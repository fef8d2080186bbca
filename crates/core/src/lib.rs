//! # dispersion-core
//!
//! The primary contribution of *"The Dispersion Time of Random Walks on
//! Finite Graphs"* (Rivera, Stauffer, Sauerwald, Sylvester; SPAA 2019):
//! IDLA-style dispersion processes and the Cut & Paste coupling machinery.
//!
//! `n` particles start at an origin vertex of a connected `n`-vertex graph;
//! each performs a random walk until it first steps on a vacant vertex,
//! where it settles. The **dispersion time** is the maximum number of steps
//! any particle performs.
//!
//! Every scheduling variant runs through one schedule-generic [`engine`]: a
//! [`engine::Schedule`] decides *who moves this tick*, a
//! [`engine::SettleRule`] decides *whether a particle settles* (Appendix A
//! generalized stopping), and composable [`engine::Observer`]s stream
//! statistics (dispersion times, realization blocks, aggregate shapes,
//! Theorem 3.3/3.5 phase boundaries) out of the run without materialising
//! per-step state. [`process::Process`] names the paper's five dispersion
//! processes; [`process::Process::run`] runs one realization and returns a
//! [`DispersionOutcome`], and [`process::Process::run_observed`] is the one
//! dispatch from a schedule to an engine run with any observer attached:
//!
//! * [`process::Process::Sequential`] — one particle at a time,
//! * [`process::Process::Parallel`] — all unsettled particles step each
//!   round (ties to the smallest index),
//! * [`process::Process::Uniform`] — a random particle per tick,
//! * [`process::Process::Ctu`] — rate-1 exponential clocks (CTU-IDLA),
//! * [`process::Process::ContinuousSequential`] — Poisson jump times,
//!
//! next to [`process::partial`] (`k < n` particles, random origins,
//! milestones) and [`process::stopping`] (generalized settle rules,
//! Proposition A.1). All run in simple or lazy ([`ProcessConfig`]) walk
//! flavours and return `Result` with
//! [`engine::EngineError::StepCapExceeded`] instead of panicking when the
//! safety cap fires.
//!
//! The [`block`] module implements the realization blocks of Section 4 and
//! the `CP`/`StP`/`PtS`/`PtU_R` transforms whose bijectivity yields
//! `τ_seq ⪯ τ_par` (Theorem 4.1).
//!
//! ```
//! use dispersion_core::process::{Process, ProcessConfig};
//! use dispersion_graphs::generators::complete;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = complete(16);
//! let mut rng = StdRng::seed_from_u64(7);
//! let out = Process::Sequential
//!     .run(&g, 0, &ProcessConfig::simple(), &mut rng)
//!     .unwrap();
//! assert_eq!(out.n(), 16);
//! assert!(out.dispersion_time >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod block;
pub mod engine;
pub mod occupancy;
pub mod outcome;
pub mod process;

pub use block::Block;
pub use engine::{EngineError, EngineOutcome, Observer};
pub use occupancy::Occupancy;
pub use outcome::DispersionOutcome;
pub use process::ProcessConfig;
