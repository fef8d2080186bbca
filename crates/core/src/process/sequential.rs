//! Sequential-IDLA: particles move one at a time; particle `i+1` starts only
//! after particle `i` has settled.
//!
//! This is the classical IDLA protocol of Diaconis–Fulton restricted to a
//! finite graph. On the complete graph it is exactly the coupon-collector
//! process (Theorem 5.2: `t_seq(K_n) ∼ κ_cc · n`).
//!
//! The walk/settle loop lives in [`crate::engine`]; this module is the
//! schedule-specific entry point kept for API compatibility.

use crate::engine::observer::TrajectoryBlock;
use crate::engine::EngineError;
use crate::outcome::DispersionOutcome;
use crate::process::{Process, ProcessConfig};
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

/// Runs one Sequential-IDLA realization with `g.n()` particles from `origin`
/// on any [`Topology`] backend (CSR graph or implicit family).
///
/// Particle 0 settles at the origin instantly (0 steps); each subsequent
/// particle walks from the origin until it first visits a vacant vertex.
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the walk-step cap fires
/// (disconnected graph).
///
/// # Panics
///
/// Panics if `origin` is out of range.
pub fn run_sequential<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let mut traj = cfg.record_trajectories.then(TrajectoryBlock::new);
    let out = Process::Sequential.run_observed(g, origin, cfg, &mut traj, rng)?;
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
    use crate::block::validate::{is_sequential_block, rows_are_walks};
    use dispersion_graphs::generators::{complete, cycle, path, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn covers_every_vertex_exactly_once() {
        let g = cycle(12);
        let mut rng = StdRng::seed_from_u64(1);
        let o = run_sequential(&g, 3, &ProcessConfig::simple(), &mut rng).unwrap();
        let mut settled = o.settled_at.clone();
        settled.sort_unstable();
        assert_eq!(settled, (0..12).collect::<Vec<_>>());
        assert_eq!(o.steps[0], 0);
        assert_eq!(o.settled_at[0], 3);
    }

    #[test]
    fn recorded_block_is_valid_sequential() {
        let g = complete(8);
        let mut rng = StdRng::seed_from_u64(2);
        let o = run_sequential(&g, 0, &ProcessConfig::simple().recording(), &mut rng).unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(is_sequential_block(b));
        assert!(rows_are_walks(b, &g, false));
        assert!(o.consistent_with_block());
    }

    #[test]
    fn lazy_block_allows_stays() {
        let g = path(6);
        let mut rng = StdRng::seed_from_u64(3);
        let o = run_sequential(&g, 0, &ProcessConfig::lazy().recording(), &mut rng).unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(is_sequential_block(b));
        assert!(rows_are_walks(b, &g, true));
    }

    #[test]
    fn star_first_two_particles() {
        // On the star from the centre, every walk from the centre hits a
        // leaf in 1 step; occupied leaves force returns.
        let g = star(5);
        let mut rng = StdRng::seed_from_u64(4);
        let o = run_sequential(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.steps[1], 1); // first mover settles a leaf immediately
                                   // all later particles need odd step counts (leaf-centre-leaf...)
        for i in 1..5 {
            assert_eq!(o.steps[i] % 2, 1, "particle {i} steps {}", o.steps[i]);
        }
    }

    #[test]
    fn path_from_endpoint_is_deterministic_increments() {
        // From endpoint 0 of a path, particle i must settle at vertex i
        // (each walk's first visit to a vacant vertex is the next vertex
        // right of the filled prefix).
        let g = path(6);
        let mut rng = StdRng::seed_from_u64(5);
        let o = run_sequential(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        for (i, &v) in o.settled_at.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
        // particle i needs at least i steps
        for i in 0..6 {
            assert!(o.steps[i] >= i as u64);
        }
    }

    #[test]
    fn dispersion_time_is_max() {
        let g = complete(10);
        let mut rng = StdRng::seed_from_u64(6);
        let o = run_sequential(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.dispersion_time, *o.steps.iter().max().unwrap());
        assert_eq!(o.total_steps, o.steps.iter().sum::<u64>());
    }

    #[test]
    fn tree_lower_bound_theorem_3_7() {
        // t_seq(T) >= 2n - 3 in expectation for trees; check the mean over
        // a few runs is comfortably above (2n-3)/2 and at least n-1 always.
        let g = star(8);
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = 0u64;
        for _ in 0..200 {
            let o = run_sequential(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
            total += o.dispersion_time;
        }
        let mean = total as f64 / 200.0;
        assert!(mean >= (2.0 * 8.0 - 3.0) * 0.7, "mean {mean}");
    }

    #[test]
    fn cap_returns_error() {
        let g = cycle(64);
        let mut rng = StdRng::seed_from_u64(8);
        let err =
            run_sequential(&g, 0, &ProcessConfig::simple().with_cap(16), &mut rng).unwrap_err();
        assert!(matches!(err, EngineError::StepCapExceeded { cap: 16, .. }));
    }

    #[test]
    fn works_on_lazified_graph() {
        // Theorem 4.3's G̃: simple walk on lazified graph == lazy walk on G.
        let g = cycle(8).lazified();
        let mut rng = StdRng::seed_from_u64(9);
        let o = run_sequential(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
        assert_eq!(o.n(), 8);
    }
}
