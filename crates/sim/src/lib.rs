//! # dispersion-sim
//!
//! Monte-Carlo harness for the dispersion-time reproduction:
//!
//! * [`rng::Xoshiro256pp`] — fast seedable RNG behind the `rand` traits,
//! * [`parallel::par_trials`] — deterministic trial-level multithreading,
//! * [`stats::Summary`] / [`stats::Online`] — two-pass and streaming
//!   one-pass statistics,
//! * [`dominance`] — KS tests and empirical stochastic-dominance checks
//!   (the statistics behind the Theorem 4.1 verification),
//! * [`fit`] — `a·n^b·(ln n)^c` scaling-law fitting for Table 1 shapes,
//! * [`experiment`] — the historical path of the [`Process`] schedule
//!   dispatch, which lives in `dispersion_core::process`,
//! * [`table`] — text/CSV output,
//! * [`json`] — the shared dependency-free JSON codec (exact f64
//!   roundtrip; used by the NDJSON sinks and the `dispersion-serve`
//!   wire format),
//! * [`spec`] / [`runner`] / [`sink`] — the declarative experiment
//!   pipeline: describe a (family × size × schedule) grid once as an
//!   [`spec::ExperimentSpec`], let the streaming [`runner::Runner`]
//!   execute it deterministically across threads with adaptive
//!   trial budgets, and receive [`sink::Record`]s on pluggable
//!   [`sink::Sink`]s (tables, CSV, NDJSON checkpoints, memory). The
//!   same [`spec::Measure`] that describes a cell's trial also draws raw
//!   sample vectors ([`spec::Measure::samples`]) for the distributional
//!   checks (KS, dominance, maxima) that streamed means cannot answer.
//!
//! ```
//! use dispersion_graphs::generators::complete;
//! use dispersion_sim::{Measure, Process, Summary};
//! use dispersion_core::process::ProcessConfig;
//!
//! let g = complete(64);
//! let cols = Measure::Dispersion(Process::Sequential)
//!     .samples(&g, 0, &ProcessConfig::simple(), 100, 2, 7)
//!     .unwrap();
//! let s = Summary::from_samples(&cols[0]);
//! assert!(s.mean > 64.0); // t_seq(K_n) ≈ 1.255 n
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dominance;
pub mod experiment;
pub mod fit;
pub mod histogram;
pub mod json;
pub mod parallel;
pub mod rng;
pub mod runner;
pub mod sink;
pub mod spec;
pub mod stats;
pub mod table;

pub use experiment::Process;
pub use parallel::{default_threads, par_trials};
pub use rng::Xoshiro256pp;
pub use runner::Runner;
pub use sink::{Record, Sink};
pub use spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
pub use stats::{Online, Summary};
