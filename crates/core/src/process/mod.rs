//! The dispersion-process entry points: Sequential-, Parallel-, Uniform- and
//! continuous-time IDLA, plus the generalized stopping rules and §6.2
//! extensions — all thin wrappers over the schedule-generic
//! [`crate::engine`]. Call the engine directly to compose
//! [`crate::engine::Observer`]s (dispersion time + aggregate shape + phase
//! boundaries in one pass).

pub mod continuous;
pub mod parallel;
pub mod partial;
pub mod sequential;
pub mod stopping;
pub mod uniform;

use dispersion_graphs::WalkKind;

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
    fn presets() {
        assert_eq!(ProcessConfig::simple().walk, WalkKind::Simple);
        assert_eq!(ProcessConfig::lazy().walk, WalkKind::Lazy);
        assert!(ProcessConfig::simple().recording().record_trajectories);
        assert_eq!(ProcessConfig::simple().with_cap(42).step_cap, 42);
    }
}
