//! The dispersion-process entry points: Sequential-, Parallel-, Uniform- and
//! continuous-time IDLA, plus the generalized stopping rules and §6.2
//! extensions — all thin wrappers over the schedule-generic
//! [`crate::engine`]. [`Process`] is the one dispatch from a schedule name
//! to an engine run; pass it an [`crate::engine::Observer`] tuple to
//! compose statistics (dispersion time + aggregate shape + phase
//! boundaries in one pass).

pub mod continuous;
pub mod parallel;
pub mod partial;
pub mod sequential;
pub mod stopping;
pub mod uniform;

use crate::engine::{self, schedule, EngineConfig, EngineError, FirstVacant};
use continuous::sample_gamma_int;
use dispersion_graphs::{Topology, Vertex, WalkKind};
use rand::Rng;

/// Which dispersion process to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Process {
    /// Sequential-IDLA (dispersion = longest walk, in steps).
    Sequential,
    /// Parallel-IDLA (dispersion = rounds until the last particle settles).
    Parallel,
    /// Uniform-IDLA (dispersion = global ticks).
    Uniform,
    /// Continuous-time Uniform IDLA (dispersion = real time).
    Ctu,
    /// Continuous-time Sequential-IDLA (dispersion = real time).
    ContinuousSequential,
}

impl Process {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Process::Sequential => "seq",
            Process::Parallel => "par",
            Process::Uniform => "unif",
            Process::Ctu => "ctu",
            Process::ContinuousSequential => "cseq",
        }
    }

    /// All five scheduler variants, in Table 1 order.
    pub fn all() -> [Process; 5] {
        [
            Process::Sequential,
            Process::Parallel,
            Process::Uniform,
            Process::Ctu,
            Process::ContinuousSequential,
        ]
    }

    /// Runs one realization through the engine with the observer `obs`
    /// attached, returning the raw [`engine::EngineOutcome`].
    ///
    /// Generic over the graph backend: pass a `&Graph` or one of the
    /// implicit `dispersion_graphs::topology` families — the engine
    /// monomorphises per backend, so implicit runs never materialise an
    /// adjacency.
    ///
    /// This is the composition point: pass `&mut (&mut time, &mut shape)`
    /// to measure several statistics in a single pass.
    ///
    /// For [`Process::ContinuousSequential`] the jump sequence is the
    /// discrete sequential run (that is what observers see); the outcome's
    /// `time` field carries the per-particle `Gamma(ρ, 1)` Poisson-clock
    /// settle time, sampled after the walk.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires.
    pub fn run_observed<T: Topology + ?Sized, O: engine::Observer, R: Rng + ?Sized>(
        self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        obs: &mut O,
        rng: &mut R,
    ) -> Result<engine::EngineOutcome, EngineError> {
        let ecfg = EngineConfig::full(g, origin, cfg);
        match self {
            Process::Sequential => engine::run(
                g,
                &mut schedule::Sequential::new(),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::ContinuousSequential => {
                let mut out = engine::run(
                    g,
                    &mut schedule::Sequential::new(),
                    &FirstVacant,
                    &ecfg,
                    obs,
                    rng,
                )?;
                out.time = out
                    .steps
                    .iter()
                    .map(|&rho| sample_gamma_int(rho, rng))
                    .fold(0.0, f64::max);
                Ok(out)
            }
            Process::Parallel => engine::run(
                g,
                &mut schedule::Parallel::new(),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::Uniform => engine::run(
                g,
                &mut schedule::Uniform::new(g.n()),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::Ctu => {
                engine::run(g, &mut schedule::Ctu::new(), &FirstVacant, &ecfg, obs, rng)
            }
        }
    }

    /// Extracts this process's dispersion time, in its native unit, from
    /// a finished [`engine::EngineOutcome`] (steps for Sequential, rounds
    /// for Parallel, global ticks for Uniform, real time for the
    /// continuous clocks).
    pub fn dispersion_of(self, out: &engine::EngineOutcome) -> f64 {
        match self {
            Process::Sequential | Process::Parallel => out.dispersion_time() as f64,
            Process::Uniform => out.settle_tick as f64,
            Process::Ctu | Process::ContinuousSequential => out.time,
        }
    }
}

/// Shared configuration of a dispersion-process run.
#[derive(Clone, Copy, Debug)]
pub struct ProcessConfig {
    /// Walk variant the particles perform.
    pub walk: WalkKind,
    /// Whether to record full trajectories (needed for the Cut & Paste
    /// machinery; costs memory proportional to the total number of steps).
    /// Implemented by attaching a
    /// [`crate::engine::observer::TrajectoryBlock`] observer; runs that
    /// don't record stream statistics instead of materialising state.
    pub record_trajectories: bool,
    /// Safety cap on the *total* number of ticks across all particles; a run
    /// exceeding it returns [`crate::engine::EngineError::StepCapExceeded`]
    /// (catches schedulers that cannot terminate).
    pub step_cap: u64,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            walk: WalkKind::Simple,
            record_trajectories: false,
            step_cap: 1 << 44,
        }
    }
}

impl ProcessConfig {
    /// Simple walk, no recording.
    pub fn simple() -> Self {
        Self::default()
    }

    /// Lazy walk, no recording.
    pub fn lazy() -> Self {
        ProcessConfig {
            walk: WalkKind::Lazy,
            ..Self::default()
        }
    }

    /// Enables trajectory recording.
    pub fn recording(mut self) -> Self {
        self.record_trajectories = true;
        self
    }

    /// Overrides the step cap.
    pub fn with_cap(mut self, cap: u64) -> Self {
        self.step_cap = cap;
        self
    }

    /// Accepts and ignores a walker-thread count. Every run is serial
    /// within one trial; trials and cells parallelise across the
    /// `dispersion_sim` runner. Kept only for callers that still pass it.
    pub fn with_walker_threads(self, _threads: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_process_labels_distinct() {
        let ps = Process::all();
        let mut labels: Vec<_> = ps.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ps.len());
    }

    #[test]
    fn observers_compose_through_process() {
        use crate::engine::observer::{DispersionTime, Odometer};
        use dispersion_graphs::generators::complete;
        use rand::{rngs::StdRng, SeedableRng};
        let g = complete(32);
        let mut rng = StdRng::seed_from_u64(4);
        let mut time = DispersionTime::default();
        let mut odo = Odometer::default();
        let out = Process::Parallel
            .run_observed(
                &g,
                0,
                &ProcessConfig::simple(),
                &mut (&mut time, &mut odo),
                &mut rng,
            )
            .unwrap();
        assert_eq!(time.max_steps, out.dispersion_time());
        assert_eq!(odo.steps, out.total_steps);
    }

    #[test]
    fn presets() {
        assert_eq!(ProcessConfig::simple().walk, WalkKind::Simple);
        assert_eq!(ProcessConfig::lazy().walk, WalkKind::Lazy);
        assert!(ProcessConfig::simple().recording().record_trajectories);
        assert_eq!(ProcessConfig::simple().with_cap(42).step_cap, 42);
    }
}
