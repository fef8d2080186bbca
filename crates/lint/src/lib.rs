//! `dispersion-lint`: the workspace's determinism & concurrency contract,
//! as executable rules.
//!
//! Every headline guarantee this reproduction makes — bit-identical engine
//! outcomes across topology backends, `--threads`, and checkpoint resume —
//! rests on source-level disciplines nothing in the type system checks: derived RNG streams, no hash-order iteration,
//! justified atomic orderings, clock-free measurement paths, panic-free
//! engine hot loops, order-fixed float reductions. This crate turns those
//! disciplines into a std-only static-analysis pass: a hand-rolled
//! comment/string-aware lexer ([`lexer`]), a path/region classifier
//! ([`source`]), a pluggable rule registry ([`rules`]), and a driver
//! ([`engine`]) that runs as both a CLI binary (`dispersion-lint`, nonzero
//! exit on findings) and a workspace test.
//!
//! Justified exceptions are *visible*: a finding is only suppressed by a
//! `// LINT: <rule>-ok — <reason>` annotation on the offending line or the
//! line above, malformed or unused annotations are findings themselves,
//! and `docs/lint.md` catalogues every rule with its rationale in terms of
//! the determinism contract.

#![forbid(unsafe_code)]

pub mod annotations;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use engine::{lint_source, lint_workspace};
pub use rules::{Finding, Rule};

use std::path::{Path, PathBuf};

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
