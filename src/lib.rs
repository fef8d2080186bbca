//! # dispersion-repro
//!
//! Umbrella crate for the reproduction of *"The Dispersion Time of Random
//! Walks on Finite Graphs"* (Rivera, Stauffer, Sauerwald, Sylvester; SPAA
//! 2019). It re-exports the member crates under short names and hosts the
//! workspace-wide examples (`examples/`) and integration tests (`tests/`).
//!
//! ```
//! use dispersion_repro::graphs::generators::complete;
//! use dispersion_repro::core::process::{Process, ProcessConfig};
//! use dispersion_repro::sim::Xoshiro256pp;
//!
//! let g = complete(32);
//! let mut rng = Xoshiro256pp::new(1);
//! let out = Process::Sequential.run(&g, 0, &ProcessConfig::simple(), &mut rng).unwrap();
//! assert_eq!(out.settled_at.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dispersion_bounds as bounds;
pub use dispersion_core as core;
pub use dispersion_graphs as graphs;
pub use dispersion_linalg as linalg;
pub use dispersion_markov as markov;
pub use dispersion_sim as sim;
pub use dispersion_solve as solve;
