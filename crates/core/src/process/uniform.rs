//! Uniform-IDLA (Section 4.2): at each tick a uniformly random unsettled
//! particle moves and settles if it lands on a vacant vertex.
//!
//! Following the paper, the schedule `R_t` draws from *all* particles
//! `{1, …, n−1}` (particle 0 sits at the origin); ticks that pick an
//! already-settled particle are no-ops but still consume a tick. The
//! dispersion time of the uniform process is measured in ticks (the values
//! of the timing array `T`), not in the longest row.
//!
//! The walk/settle loop lives in [`crate::engine`]; this module is the
//! schedule-specific entry point kept for API compatibility.
//!
//! Plain runs use the event-driven [`crate::engine::schedule::Uniform`]
//! schedule (via [`Process::Uniform`]), which samples the geometric no-op
//! gap instead of simulating `Θ(n · t_par)` no-op ticks — same law, same
//! tick semantics (`settle_tick` counts skipped ticks).
//! Recording runs use the tick-loop [`UniformTicks`] schedule, because the
//! realized schedule `R_t` they return contains the identity of every
//! no-op draw and is `Θ(ticks)` to materialise anyway.

use crate::block::algorithms::TimedBlock;
use crate::engine::observer::TrajectoryBlock;
use crate::engine::schedule::UniformTicks;
use crate::engine::{self, EngineConfig, EngineError, FirstVacant};
use crate::outcome::DispersionOutcome;
use crate::process::{Process, ProcessConfig};
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

/// Outcome of a Uniform-IDLA run.
#[derive(Clone, Debug)]
pub struct UniformOutcome {
    /// Per-particle view (steps, settle vertices, trajectories).
    pub outcome: DispersionOutcome,
    /// Global tick at which the last particle settled — the uniform
    /// dispersion time.
    pub settle_tick: u64,
    /// Timed trajectories when recording was requested (rows plus the tick
    /// of every jump), suitable for comparison with
    /// [`crate::block::parallel_to_uniform`].
    pub timed: Option<TimedBlock>,
    /// The realized schedule `R_1, R_2, …` (particle index per tick) when
    /// recording was requested; feeding it back through
    /// [`crate::block::parallel_to_uniform`] reproduces this exact run
    /// (the Theorem 4.7 bijection for fixed `R`).
    pub schedule: Option<Vec<usize>>,
}

/// Runs one Uniform-IDLA realization from `origin` on any [`Topology`]
/// backend (CSR graph or implicit family).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the tick cap fires.
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn run_uniform<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<UniformOutcome, EngineError> {
    let mut traj = cfg.record_trajectories.then(TrajectoryBlock::with_timing);
    let out = if cfg.record_trajectories {
        engine::run(
            g,
            &mut UniformTicks::new(g.n()),
            &FirstVacant,
            &EngineConfig::full(g, origin, cfg),
            &mut traj,
            rng,
        )?
    } else {
        Process::Uniform.run_observed(g, origin, cfg, &mut traj, rng)?
    };
    let (block, timed, schedule) = match traj {
        Some(t) => {
            let (b, timed, schedule) = t.into_parts();
            (Some(b), timed, schedule)
        }
        None => (None, None, None),
    };
    let outcome = DispersionOutcome::new(origin, out.steps, out.settled_at, block);
    Ok(UniformOutcome {
        outcome,
        settle_tick: out.settle_tick,
        timed,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::sequential_to_parallel;
    use crate::block::validate::is_parallel_block;
    use crate::block::validate::{has_distinct_endpoints, rows_are_walks};
    use dispersion_graphs::generators::{complete, cycle, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn covers_every_vertex() {
        let g = cycle(10);
        let mut rng = StdRng::seed_from_u64(1);
        let o = run_uniform(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut settled = o.outcome.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ticks_dominate_steps() {
        // every jump consumes a tick, and no-op ticks only add
        let g = complete(12);
        let mut rng = StdRng::seed_from_u64(2);
        let o = run_uniform(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        assert!(o.settle_tick >= o.outcome.total_steps);
    }

    #[test]
    fn recorded_block_transforms_to_valid_parallel() {
        // Theorem 4.7: StP applied to a uniform block (oblivious to R)
        // yields a valid parallel block.
        let g = star(8);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_uniform(&g, 0, &ProcessConfig::simple().recording(), &mut rng).unwrap();
        let b = o.outcome.block.as_ref().unwrap();
        assert!(has_distinct_endpoints(b));
        assert!(rows_are_walks(b, &g, false));
        let p = sequential_to_parallel(b);
        assert!(is_parallel_block(&p));
        assert_eq!(p.total_length(), b.total_length());
    }

    #[test]
    fn timing_array_consistent() {
        let g = cycle(8);
        let mut rng = StdRng::seed_from_u64(4);
        let o = run_uniform(&g, 0, &ProcessConfig::simple().recording(), &mut rng).unwrap();
        let timed = o.timed.as_ref().unwrap();
        for (tr, rr) in timed.times.iter().zip(timed.block.rows()) {
            assert_eq!(tr.len(), rr.len());
            for w in tr.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        assert_eq!(timed.settle_tick(), o.settle_tick);
    }

    #[test]
    fn theorem_4_7_full_bijection_roundtrip() {
        // StP forgets the schedule; PtU_R with the recorded schedule must
        // reconstruct the exact uniform realization (rows AND times).
        use crate::block::parallel_to_uniform;
        for seed in 0..8 {
            let g = cycle(9);
            let mut rng = StdRng::seed_from_u64(seed);
            let o = run_uniform(&g, 0, &ProcessConfig::simple().recording(), &mut rng).unwrap();
            let timed = o.timed.as_ref().unwrap();
            let schedule = o.schedule.as_ref().unwrap();
            let par = sequential_to_parallel(&timed.block);
            let rebuilt = parallel_to_uniform(&par, schedule.iter().copied());
            assert_eq!(rebuilt.block, timed.block, "rows differ (seed {seed})");
            assert_eq!(rebuilt.times, timed.times, "times differ (seed {seed})");
        }
    }

    #[test]
    fn cap_returns_error() {
        let g = cycle(32);
        let mut rng = StdRng::seed_from_u64(6);
        let err = run_uniform(&g, 0, &ProcessConfig::simple().with_cap(8), &mut rng).unwrap_err();
        assert!(matches!(err, EngineError::StepCapExceeded { cap: 8, .. }));
    }

    #[test]
    fn single_vertex_graph() {
        let g = dispersion_graphs::generators::cycle(1);
        let mut rng = StdRng::seed_from_u64(5);
        let o = run_uniform(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.settle_tick, 0);
        assert_eq!(o.outcome.dispersion_time, 0);
    }
}
