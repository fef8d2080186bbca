//! Parallel-IDLA: all unsettled particles step simultaneously each round;
//! when several particles land on the same vacant vertex in a round, the one
//! with the smallest index settles (Section 1, Section 4).
//!
//! Equivalently (property (4)): reading the realization block in parallel
//! order, the first occurrence of a vertex ends its row — which is exactly
//! what scanning particles in index order within a round and settling
//! immediately implements.
//!
//! The walk/settle loop lives in [`crate::engine`]; this module is the
//! schedule-specific entry point kept for API compatibility.

use crate::engine::observer::TrajectoryBlock;
use crate::engine::EngineError;
use crate::outcome::DispersionOutcome;
use crate::process::{Process, ProcessConfig};
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

/// Runs one Parallel-IDLA realization with `g.n()` particles from `origin`
/// on any [`Topology`] backend (CSR graph or implicit family).
///
/// Particle 0 settles at the origin at round 0. The dispersion time equals
/// the number of rounds until the last particle settles (every unsettled
/// particle moves every round).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires.
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn run_parallel<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let mut traj = cfg.record_trajectories.then(TrajectoryBlock::new);
    let out = Process::Parallel.run_observed(g, origin, cfg, &mut traj, rng)?;
    Ok(DispersionOutcome::new(
        origin,
        out.steps,
        out.settled_at,
        traj.map(TrajectoryBlock::into_block),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::validate::{is_parallel_block, rows_are_walks};
    use crate::process::sequential::run_sequential;
    use dispersion_graphs::generators::{complete, cycle, path, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn covers_every_vertex_exactly_once() {
        let g = cycle(11);
        let mut rng = StdRng::seed_from_u64(1);
        let o = run_parallel(&g, 5, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..11).collect::<Vec<_>>());
        assert_eq!(o.steps[0], 0);
    }

    #[test]
    fn recorded_block_is_valid_parallel() {
        let g = complete(9);
        let mut rng = StdRng::seed_from_u64(2);
        let o = run_parallel(&g, 0, &ProcessConfig::simple().recording(), &mut rng).unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(is_parallel_block(b));
        assert!(rows_are_walks(b, &g, false));
        assert!(o.consistent_with_block());
    }

    #[test]
    fn round_structure() {
        // Unsettled particles move every round, so a particle's step count
        // equals the round it settled in.
        let g = complete(12);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_parallel(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        // particle 1 moves first each round; it settles in round 1 since the
        // first move in round 1 always finds a vacant vertex
        assert_eq!(o.steps[1], 1);
    }

    #[test]
    fn smallest_index_wins_ties_on_star() {
        // On a star from the centre, every round all unsettled particles
        // land on leaves; particle 1 reads first in round 1 and must settle.
        let g = star(6);
        let mut rng = StdRng::seed_from_u64(4);
        let o = run_parallel(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.steps[1], 1);
        // steps on the star are odd for everyone (leaf-centre oscillation
        // has period 2 and settling happens on leaves)
        for i in 1..6 {
            assert_eq!(o.steps[i] % 2, 1);
        }
    }

    #[test]
    fn dominates_sequential_in_the_mean() {
        // Theorem 4.1: τ_seq ⪯ τ_par, so means must be ordered (statistical
        // check with a comfortable margin).
        let g = complete(24);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 400;
        let mut seq_total = 0u64;
        let mut par_total = 0u64;
        for _ in 0..trials {
            seq_total += run_sequential(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
            par_total += run_parallel(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        let seq_mean = seq_total as f64 / trials as f64;
        let par_mean = par_total as f64 / trials as f64;
        assert!(
            par_mean > seq_mean * 0.95,
            "par {par_mean} should dominate seq {seq_mean}"
        );
    }

    #[test]
    fn path_parallel_settles_left_to_right() {
        let g = path(7);
        let mut rng = StdRng::seed_from_u64(6);
        let o = run_parallel(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        // from endpoint 0 the aggregate is always a prefix, so particle
        // settle vertices, sorted by settle round, are increasing
        let mut order: Vec<usize> = (0..7).collect();
        order.sort_by_key(|&i| o.steps[i]);
        let settle_positions: Vec<u32> = order.iter().map(|&i| o.settled_at[i]).collect();
        for w in settle_positions.windows(2) {
            assert!(
                w[0] < w[1],
                "settle order not monotone: {settle_positions:?}"
            );
        }
    }

    #[test]
    fn total_steps_reasonable_on_clique() {
        // mean total steps matches the sequential process's total steps
        // distribution (Theorem 4.1) ≈ n·H_n on the clique (coupon
        // collector total); crude sanity bound here.
        let n = 16usize;
        let g = complete(n);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 300;
        let mut total = 0u64;
        for _ in 0..trials {
            total += run_parallel(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .total_steps;
        }
        let mean = total as f64 / trials as f64;
        let hn: f64 = (1..n).map(|k| 1.0 / k as f64).sum();
        let expect = (n - 1) as f64 * hn; // sum of geometrics ≈ n H_{n-1}
        assert!(
            (mean - expect).abs() < 0.15 * expect,
            "mean {mean} vs {expect}"
        );
    }
}
