//! The schedule dispatch, re-exported from [`dispersion_core::process`]
//! under its historical path. Trial bodies and sample vectors live on
//! [`Measure`](crate::spec::Measure).

pub use dispersion_core::process::Process;
