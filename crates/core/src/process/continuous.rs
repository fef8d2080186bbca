//! Continuous-time IDLA support (Section 4.3): the `Gamma(ρ, 1)` sampler
//! behind [`super::Process::ContinuousSequential`], and the
//! per-walker-clock twin of [`super::Process::Ctu`] that the
//! statistical-equivalence suite checks it against.
//!
//! Theorem 4.8: `τ_c-unif = τ_par (1 + o(1))`; the clique constants of
//! Theorem 5.2 are proved through exactly this equivalence.

use crate::engine::schedule::CtuClocks;
use crate::engine::{self, EngineConfig, EngineError, FirstVacant};
use crate::outcome::DispersionOutcome;
use crate::process::ProcessConfig;
use dispersion_graphs::{Topology, Vertex};
use rand::{Rng, RngExt};

pub use crate::engine::schedule::sample_exponential;

/// Samples `Gamma(shape, 1)` for integer `shape ≥ 0` (sum of exponentials
/// up to shape 32, Marsaglia–Tsang squeeze beyond).
pub fn sample_gamma_int<R: Rng + ?Sized>(shape: u64, rng: &mut R) -> f64 {
    if shape == 0 {
        return 0.0;
    }
    if shape <= 32 {
        return (0..shape).map(|_| sample_exponential(1.0, rng)).sum();
    }
    // Marsaglia–Tsang for alpha >= 1
    let alpha = shape as f64;
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // standard normal via Box–Muller
        let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Runs one CTU-IDLA realization with the literal per-walker-clock
/// schedule ([`CtuClocks`]: one rate-1 exponential clock per walker, kept
/// in a shrinking lazily-pruned min-heap) instead of the superposition
/// schedule of [`super::Process::Ctu`].
///
/// The two are equal in law by memorylessness; this entry point exists as
/// the cross-implementation twin for the statistical-equivalence suite
/// (`crates/core/tests/schedule_equivalence.rs`) — production paths should
/// prefer [`super::Process::Ctu`], whose moves cost O(1) instead of
/// O(log k).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn run_ctu_clocks<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, origin, cfg);
    let out = engine::run(g, &mut CtuClocks::new(), &FirstVacant, &ecfg, &mut (), rng)?;
    Ok(DispersionOutcome {
        settle_tick: out.settle_tick,
        time: out.time,
        ..DispersionOutcome::new(origin, out.steps, out.settled_at, None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use dispersion_graphs::generators::{complete, cycle, hypercube};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_exponential(2.0, &mut rng))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gamma_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        for shape in [1u64, 5, 32, 100] {
            let trials = 8000;
            let xs: Vec<f64> = (0..trials)
                .map(|_| sample_gamma_int(shape, &mut rng))
                .collect();
            let mean = xs.iter().sum::<f64>() / trials as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / trials as f64;
            let s = shape as f64;
            assert!(
                (mean - s).abs() < 0.1 * s.max(3.0),
                "shape {shape}: mean {mean}"
            );
            assert!(
                (var - s).abs() < 0.25 * s.max(3.0),
                "shape {shape}: var {var}"
            );
        }
        assert_eq!(sample_gamma_int(0, &mut rng), 0.0);
    }

    #[test]
    fn ctu_covers_every_vertex() {
        let g = cycle(9);
        let mut rng = StdRng::seed_from_u64(3);
        let o = Process::Ctu
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..9).collect::<Vec<_>>());
        assert!(o.time > 0.0);
    }

    #[test]
    fn ctu_clique_pi_squared_over_six() {
        // Theorem 5.2 mechanism: E[τ_ctu(K_n)] = Σ_k (n-1)/k² ≈ (π²/6) n.
        let n = 64usize;
        let g = complete(n);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 400;
        let mean: f64 = (0..trials)
            .map(|_| {
                Process::Ctu
                    .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .time
            })
            .sum::<f64>()
            / trials as f64;
        let expect: f64 = (1..n).map(|k| (n as f64 - 1.0) / (k * k) as f64).sum();
        assert!(
            (mean - expect).abs() < 0.1 * expect,
            "mean {mean} vs exact {expect}"
        );
    }

    #[test]
    fn ctu_clocks_covers_every_vertex() {
        let g = cycle(9);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_ctu_clocks(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..9).collect::<Vec<_>>());
        assert!(o.time > 0.0);
    }

    #[test]
    fn ctu_clocks_clique_pi_squared_over_six() {
        // same Theorem 5.2 exact-law check as the superposition schedule:
        // the per-walker-clock implementation must hit the same constant
        let n = 48usize;
        let g = complete(n);
        let mut rng = StdRng::seed_from_u64(14);
        let trials = 400;
        let mean: f64 = (0..trials)
            .map(|_| {
                run_ctu_clocks(&g, 0, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .time
            })
            .sum::<f64>()
            / trials as f64;
        let expect: f64 = (1..n).map(|k| (n as f64 - 1.0) / (k * k) as f64).sum();
        assert!(
            (mean - expect).abs() < 0.1 * expect,
            "mean {mean} vs exact {expect}"
        );
    }

    #[test]
    fn ctu_tracks_parallel_on_hypercube() {
        // Theorem 4.8: τ_ctu ≈ τ_par (1 + o(1)); loose statistical check.
        let g = hypercube(6);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 60;
        let mut ctu = 0.0;
        let mut par = 0.0;
        for _ in 0..trials {
            ctu += Process::Ctu
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .time;
            par += Process::Parallel
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time as f64;
        }
        let ratio = ctu / par;
        assert!((0.7..1.4).contains(&ratio), "ctu/par = {ratio}");
    }

    #[test]
    fn continuous_sequential_time_close_to_steps() {
        // Gamma(ρ,1) concentrates at ρ, so time ≈ dispersion_time for
        // long walks.
        let g = cycle(32);
        let mut rng = StdRng::seed_from_u64(6);
        let o = Process::ContinuousSequential
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        let ratio = o.time / o.dispersion_time as f64;
        assert!((0.5..1.5).contains(&ratio), "ratio {ratio}");
    }
}
