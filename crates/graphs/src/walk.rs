//! The walk-step primitive shared by the simulators.
//!
//! Both the Markov-chain toolkit and the dispersion processes step particles
//! the same way; keeping the primitive next to the graph keeps the hot loop
//! free of cross-crate indirection. The step is generic over [`Topology`],
//! so implicit families walk through the same code path as CSR graphs —
//! with identical RNG consumption, trajectories match across backends for
//! a fixed seed.

use crate::graph::Vertex;
use crate::topology::Topology;
use rand::{Rng, RngExt};

/// Which walk variant a particle performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum WalkKind {
    /// Simple random walk: move to a uniform neighbour every step.
    #[default]
    Simple,
    /// Lazy walk: stay put with probability 1/2, otherwise step
    /// (`P̃ = (I + P)/2`, Section 4.4 of the paper).
    Lazy,
}

impl WalkKind {
    /// The asymptotic multiplicative slowdown against the simple walk
    /// (Theorem 4.3: lazy dispersion times are `2(1 + o(1))×` the simple
    /// ones).
    pub fn slowdown(self) -> f64 {
        match self {
            WalkKind::Simple => 1.0,
            WalkKind::Lazy => 2.0,
        }
    }
}

/// One step of the walk from `u` on any [`Topology`].
///
/// # Panics
///
/// Debug-panics if `u` has no neighbours.
#[inline]
pub fn step<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    kind: WalkKind,
    u: Vertex,
    rng: &mut R,
) -> Vertex {
    match kind {
        WalkKind::Simple => g.random_step(u, rng),
        WalkKind::Lazy => {
            if rng.random::<bool>() {
                u
            } else {
                g.random_step(u, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, path};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn simple_step_moves_to_neighbour() {
        let g = cycle(9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let v = step(&g, WalkKind::Simple, 3, &mut rng);
            assert!(g.has_edge(3, v));
        }
    }

    #[test]
    fn lazy_step_half_stays() {
        let g = path(3);
        let mut rng = StdRng::seed_from_u64(2);
        let stays = (0..4000)
            .filter(|_| step(&g, WalkKind::Lazy, 1, &mut rng) == 1)
            .count();
        let frac = stays as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "stay fraction {frac}");
    }

    #[test]
    fn endpoint_always_bounces() {
        let g = path(2);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(step(&g, WalkKind::Simple, 0, &mut rng), 1);
    }

    #[test]
    fn slowdowns() {
        assert_eq!(WalkKind::Simple.slowdown(), 1.0);
        assert_eq!(WalkKind::Lazy.slowdown(), 2.0);
    }
}
