//! Extensions from the paper's "Further directions" (Section 6.2):
//!
//! * **Fewer particles than sites** — `k ≤ n` particles disperse into `n`
//!   vertices ("the number of particles is considerably smaller than the
//!   number of sites"); the process ends when all `k` have settled.
//! * **Random origins** — every particle starts at an independent uniform
//!   vertex instead of a common origin.
//! * **Milestones** — the `τ_par(G, k)` quantities of Theorem 3.3: the
//!   first round at which fewer than `2^k − 1` vertices remain unsettled,
//!   streamed by the [`PhaseTimes`] observer.
//!
//! The walk/settle loop lives in [`crate::engine`]; these entry points are
//! engine configurations kept for API compatibility.

use crate::engine::observer::PhaseTimes;
use crate::engine::schedule::{Parallel, Sequential};
use crate::engine::{self, EngineConfig, EngineError, FirstVacant};
use crate::outcome::DispersionOutcome;
use crate::process::ProcessConfig;
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

/// Sequential-IDLA with `k ≤ n` particles from a common origin. The first
/// particle settles at the origin; the rest walk to vacancy as usual.
///
/// Returns an outcome with `k` entries; `settled_at` lists the aggregate
/// `A(k)` in settle order.
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
pub fn run_sequential_k<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    k: usize,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let ecfg = EngineConfig::with_particles(k, origin, cfg);
    let out = engine::run(g, &mut Sequential::new(), &FirstVacant, &ecfg, &mut (), rng)?;
    Ok(partial_outcome(origin, out.steps, out.settled_at))
}

/// Parallel-IDLA with `k ≤ n` particles from a common origin.
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
pub fn run_parallel_k<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    k: usize,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let ecfg = EngineConfig::with_particles(k, origin, cfg);
    let out = engine::run(g, &mut Parallel::new(), &FirstVacant, &ecfg, &mut (), rng)?;
    Ok(partial_outcome(origin, out.steps, out.settled_at))
}

/// Parallel-IDLA (all `n` particles) with the Theorem 3.3 milestones:
/// `milestones[j]` is the first round at which at most `2^j − 1` vertices
/// remain unsettled (`j = 0` is the full dispersion time).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
pub fn run_parallel_milestones<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<(DispersionOutcome, Vec<u64>), EngineError> {
    let ecfg = EngineConfig::full(g, origin, cfg);
    let mut phases = PhaseTimes::for_particles(g.n());
    let out = engine::run(
        g,
        &mut Parallel::new(),
        &FirstVacant,
        &ecfg,
        &mut phases,
        rng,
    )?;
    let outcome = DispersionOutcome::new(origin, out.steps, out.settled_at, None);
    Ok((outcome, phases.phases))
}

/// Sequential dispersion with **random origins**: particle `i` starts at an
/// independent uniform vertex and walks until it finds a vacant vertex
/// (settling instantly if its start is vacant).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
pub fn run_sequential_random_origins<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    k: usize,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let ecfg = EngineConfig::random_origins(k, cfg);
    let out = engine::run(g, &mut Sequential::new(), &FirstVacant, &ecfg, &mut (), rng)?;
    // origin is meaningless here; report the first particle's settle vertex
    let first = out.settled_at[0];
    Ok(partial_outcome(first, out.steps, out.settled_at))
}

fn partial_outcome(origin: Vertex, steps: Vec<u64>, settled_at: Vec<Vertex>) -> DispersionOutcome {
    // DispersionOutcome::new checks distinct settle vertices against the
    // particle count; for k < n runs the vertex ids exceed k, so do the
    // uniqueness check by sort here instead.
    let mut sorted = settled_at.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        assert!(w[0] != w[1], "two particles settled at vertex {}", w[0]);
    }
    let dispersion_time = steps.iter().copied().max().unwrap_or(0);
    let total_steps = steps.iter().sum();
    DispersionOutcome {
        origin,
        steps,
        settled_at,
        dispersion_time,
        total_steps,
        ..DispersionOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use dispersion_graphs::generators::{complete, cycle, torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_k_settles_k_distinct_vertices() {
        let g = cycle(32);
        let mut rng = StdRng::seed_from_u64(1);
        let o = run_sequential_k(&g, 0, 10, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.steps.len(), 10);
        let mut s = o.settled_at.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn parallel_k_settles_k_distinct_vertices() {
        let g = complete(32);
        let mut rng = StdRng::seed_from_u64(2);
        let o = run_parallel_k(&g, 0, 16, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.steps.len(), 16);
        let mut s = o.settled_at.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn k_equals_n_matches_full_process_distribution() {
        // k = n is the ordinary process; compare means
        let g = complete(24);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 300;
        let mut full = 0u64;
        let mut kn = 0u64;
        for _ in 0..trials {
            full += Process::Parallel
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
            kn += run_parallel_k(&g, 0, 24, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        let ratio = kn as f64 / full as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fewer_particles_disperse_faster() {
        // §6.2 intuition: dispersion is maximal when particles = sites
        let g = complete(64);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 200;
        let mut half = 0u64;
        let mut full = 0u64;
        for _ in 0..trials {
            half += run_parallel_k(&g, 0, 32, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
            full += run_parallel_k(&g, 0, 64, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        assert!(
            half < full,
            "k = n/2 ({half}) should disperse faster than k = n ({full})"
        );
    }

    #[test]
    fn milestones_monotone_and_end_at_dispersion() {
        let g = torus2d(8);
        let mut rng = StdRng::seed_from_u64(5);
        let (o, ms) = run_parallel_milestones(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        // milestones[0] = full dispersion round
        assert_eq!(ms[0], o.dispersion_time);
        // thresholds get easier as j grows: rounds decrease
        for w in ms.windows(2) {
            assert!(w[0] >= w[1], "milestones not monotone: {ms:?}");
        }
    }

    #[test]
    fn theorem_3_3_half_settle_fast() {
        // consequence of Thm 3.3 noted in the paper: within O(t_mix) steps
        // at least n/2 walks settle; on the clique t_mix = O(1), so the
        // half-way milestone must be far below the full dispersion time.
        let g = complete(128);
        let mut rng = StdRng::seed_from_u64(6);
        let (o, ms) = run_parallel_milestones(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        let j_half = (64f64).log2() as usize; // 2^6 - 1 = 63 < 64 remaining
        assert!(
            ms[j_half] * 4 < o.dispersion_time.max(4),
            "half-settle round {} vs dispersion {}",
            ms[j_half],
            o.dispersion_time
        );
    }

    #[test]
    fn random_origins_cover_k_vertices() {
        let g = cycle(40);
        let mut rng = StdRng::seed_from_u64(7);
        let o = run_sequential_random_origins(&g, 40, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut s = o.settled_at.clone();
        s.sort_unstable();
        assert_eq!(s, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn random_origins_much_faster_than_single_origin() {
        // spreading the starts removes the congestion at the origin
        let g = cycle(64);
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 60;
        let mut single = 0u64;
        let mut spread = 0u64;
        for _ in 0..trials {
            single += Process::Sequential
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
            spread += run_sequential_random_origins(&g, 64, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        assert!(
            spread * 4 < single * 3,
            "random origins {spread} should clearly beat single origin {single}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_particles_rejected() {
        let g = cycle(8);
        let mut rng = StdRng::seed_from_u64(9);
        let _ = run_sequential_k(&g, 0, 0, &ProcessConfig::simple(), &mut rng);
    }
}
