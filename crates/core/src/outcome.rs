//! Outcome of a dispersion-process run.

use crate::block::algorithms::TimedBlock;
use crate::block::Block;
use dispersion_graphs::Vertex;

/// What one run of a dispersion process produced.
///
/// [`crate::process::Process::run`] fills every field; the clock fields
/// (`settle_tick`, `time`) are zero in outcomes assembled by
/// [`DispersionOutcome::new`].
#[derive(Clone, Debug, Default)]
pub struct DispersionOutcome {
    /// The origin vertex all particles started from.
    pub origin: Vertex,
    /// `steps[i]`: number of walk steps particle `i` performed before
    /// settling (the row length `ρ_i`; lazy holds count as steps).
    pub steps: Vec<u64>,
    /// `settled_at[i]`: the vertex where particle `i` settled.
    pub settled_at: Vec<Vertex>,
    /// The dispersion time `max_i steps[i]`.
    pub dispersion_time: u64,
    /// Total number of steps `Σ_i steps[i]` — equidistributed between the
    /// sequential and parallel processes (Theorem 4.1).
    pub total_steps: u64,
    /// Global tick at which the last particle settled — the Uniform
    /// dispersion time. Equals `total_steps` under schedules without no-op
    /// ticks.
    pub settle_tick: u64,
    /// Real time at which the last particle settled — the dispersion time
    /// of the continuous-time processes; `0.0` for the discrete ones.
    pub time: f64,
    /// Full trajectories, when recording was requested.
    pub block: Option<Block>,
    /// Rows plus the tick of every jump, for a recorded Uniform run;
    /// suitable for comparison with [`crate::block::parallel_to_uniform`].
    pub timed: Option<TimedBlock>,
    /// The realized schedule `R_1, R_2, …` (particle index per tick) of a
    /// recorded Uniform run; feeding it back through
    /// [`crate::block::parallel_to_uniform`] reproduces this exact run (the
    /// Theorem 4.7 bijection for fixed `R`).
    pub schedule: Option<Vec<usize>>,
}

impl DispersionOutcome {
    /// Assembles an outcome, computing the aggregates.
    ///
    /// # Panics
    ///
    /// Panics if `steps` and `settled_at` have different lengths, or two
    /// particles settled on the same vertex.
    pub fn new(
        origin: Vertex,
        steps: Vec<u64>,
        settled_at: Vec<Vertex>,
        block: Option<Block>,
    ) -> Self {
        assert_eq!(steps.len(), settled_at.len());
        let mut seen = vec![false; settled_at.len()];
        for &v in &settled_at {
            assert!(
                !std::mem::replace(&mut seen[v as usize], true),
                "two particles settled at vertex {v}"
            );
        }
        let dispersion_time = steps.iter().copied().max().unwrap_or(0);
        let total_steps = steps.iter().sum();
        DispersionOutcome {
            origin,
            steps,
            settled_at,
            dispersion_time,
            total_steps,
            block,
            ..Self::default()
        }
    }

    /// Number of particles.
    pub fn n(&self) -> usize {
        self.steps.len()
    }

    /// For each vertex, which particle settled there (the inverse of
    /// `settled_at`).
    pub fn particle_at(&self) -> Vec<usize> {
        let mut inv = vec![usize::MAX; self.n()];
        for (i, &v) in self.settled_at.iter().enumerate() {
            inv[v as usize] = i;
        }
        inv
    }

    /// Cross-checks the outcome against its recorded block (when present):
    /// row lengths must equal step counts and endpoints the settle vertices.
    pub fn consistent_with_block(&self) -> bool {
        match &self.block {
            None => true,
            Some(b) => {
                b.n_rows() == self.n()
                    && (0..self.n()).all(|i| {
                        b.rho(i) as u64 == self.steps[i] && b.endpoint(i) == self.settled_at[i]
                    })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_computed() {
        let o = DispersionOutcome::new(0, vec![0, 2, 5], vec![0, 1, 2], None);
        assert_eq!(o.dispersion_time, 5);
        assert_eq!(o.total_steps, 7);
        assert_eq!(o.n(), 3);
    }

    #[test]
    fn particle_at_inverts_settled_at() {
        let o = DispersionOutcome::new(0, vec![0, 1, 1], vec![0, 2, 1], None);
        assert_eq!(o.particle_at(), vec![0, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "settled at vertex")]
    fn duplicate_settle_rejected() {
        let _ = DispersionOutcome::new(0, vec![0, 1], vec![1, 1], None);
    }

    #[test]
    fn block_consistency() {
        let b = Block::from_rows(vec![vec![0], vec![0, 1]]);
        let good = DispersionOutcome::new(0, vec![0, 1], vec![0, 1], Some(b.clone()));
        assert!(good.consistent_with_block());
        let bad = DispersionOutcome::new(0, vec![0, 2], vec![0, 1], Some(b));
        assert!(!bad.consistent_with_block());
    }
}
