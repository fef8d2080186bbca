//! `forbid-unsafe-present` — every crate root keeps `#![forbid(unsafe_code)]`.
//!
//! The whole workspace is safe Rust and the concurrency story (atomic
//! bitset, the trial runner's worker threads, the serve job store) leans on
//! the compiler for data-race freedom. `forbid` (not `deny`) is the right
//! strength: it cannot be overridden by an inner `#[allow]`, so a future
//! "just one little `unsafe` block" has to come through this lint and the
//! crate manifest, not slip in under an attribute. The rule checks that
//! every `src/lib.rs` in the workspace carries the attribute.

use super::{Finding, Rule};
use crate::source::SourceFile;

pub struct ForbidUnsafePresent;

impl Rule for ForbidUnsafePresent {
    fn id(&self) -> &'static str {
        "forbid-unsafe-present"
    }

    fn description(&self) -> &'static str {
        "every crate's lib.rs must carry #![forbid(unsafe_code)]"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        if !f.path.ends_with("src/lib.rs") {
            return;
        }
        // look for `# ! [ forbid ( unsafe_code ) ]` anywhere in the stream
        for i in 0..f.tokens.len() {
            if f.punct(i, b'#')
                && f.punct(i + 1, b'!')
                && f.punct(i + 2, b'[')
                && f.ident(i + 3) == Some("forbid")
                && f.punct(i + 4, b'(')
                && f.ident(i + 5) == Some("unsafe_code")
                && f.punct(i + 6, b')')
                && f.punct(i + 7, b']')
            {
                return;
            }
        }
        out.push(Finding {
            rule: self.id(),
            path: f.path.clone(),
            line: 1,
            msg: "crate root lacks #![forbid(unsafe_code)] — the workspace is safe Rust \
                  and the data-race-freedom argument depends on it"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        ForbidUnsafePresent.check(&f, &mut out);
        out
    }

    #[test]
    fn present_is_clean() {
        let src = "//! Crate docs.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(findings("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn absent_fires() {
        let out = findings("crates/core/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn deny_is_not_forbid() {
        let out = findings("crates/core/src/lib.rs", "#![deny(unsafe_code)]\n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn only_lib_rs_is_checked() {
        assert!(findings("crates/core/src/engine/mod.rs", "pub fn f() {}").is_empty());
        assert!(findings("crates/serve/src/main.rs", "fn main() {}").is_empty());
    }

    #[test]
    fn commented_out_attribute_does_not_count() {
        let out = findings("crates/core/src/lib.rs", "// #![forbid(unsafe_code)]\n");
        assert_eq!(out.len(), 1);
    }
}
