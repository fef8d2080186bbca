//! Minimal command-line options shared by the experiment binaries.
//!
//! Flags (all optional):
//! `--trials K`, `--seed S`, `--threads T`, `--sizes a,b,c`,
//! `--format text|csv|json` (`--csv` is shorthand for `--format csv`),
//! `--topology explicit|implicit` (CSR adjacency vs closed-form neighbour
//! math for the structured families),
//! `--budget trials:N | ci:REL[,MIN[,MAX]]` (per-cell trial budget for the
//! spec-driven binaries; `ci:` stops each cell adaptively once its
//! relative 95% CI half-width reaches `REL`),
//! `--resume FILE` (NDJSON checkpoint: completed cells are loaded from
//! `FILE` and skipped, fresh cells are appended to it),
//! plus free positional arguments interpreted by each binary.

use dispersion_sim::default_threads;
use dispersion_sim::spec::Budget;
use dispersion_sim::table::TextTable;

/// Default `min_trials` for `--budget ci:REL` when not given explicitly.
pub const CI_DEFAULT_MIN_TRIALS: usize = 30;

/// Default `max_trials` for `--budget ci:REL` when not given explicitly.
pub const CI_DEFAULT_MAX_TRIALS: usize = 10_000;

/// How a binary should serialise its result tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned human-readable text table.
    #[default]
    Text,
    /// Comma-separated values with a header row.
    Csv,
    /// Newline-delimited JSON records (`BENCH_*.json` captures).
    Json,
}

/// Which graph backend the simulated columns run on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Materialised CSR adjacency (`dispersion_graphs::Graph`) — works for
    /// every family.
    #[default]
    Explicit,
    /// Closed-form implicit topology (`dispersion_graphs::topology`) —
    /// zero adjacency storage; available for path, cycle, 2-d torus,
    /// hypercube and clique.
    Implicit,
}

impl Backend {
    /// Short label for table output.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Explicit => "explicit",
            Backend::Implicit => "implicit",
        }
    }
}

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Monte-Carlo trials per data point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (across trials).
    pub threads: usize,
    /// Instance sizes to sweep (`--sizes 32,64,128`).
    pub sizes: Vec<usize>,
    /// Emit CSV instead of an aligned text table (kept in sync with
    /// [`Options::format`]; prefer `format`/[`Options::render`]).
    pub csv: bool,
    /// Table serialisation selected by `--format` / `--csv`.
    pub format: OutputFormat,
    /// Graph backend selected by `--topology explicit|implicit`; `None`
    /// when the flag was not given, so binaries whose natural default is
    /// "both backends" (e.g. `engine_throughput`) can distinguish an
    /// explicit request from no request. Single-backend binaries read it
    /// through [`Options::backend_or_explicit`].
    pub backend: Option<Backend>,
    /// Per-cell trial budget from `--budget`; `None` when not given
    /// (binaries fall back to `Trials(self.trials)` via
    /// [`Options::budget_or_trials`]).
    pub budget: Option<Budget>,
    /// NDJSON checkpoint path from `--resume`.
    pub resume: Option<String>,
    /// Positional (non-flag) arguments.
    pub positional: Vec<String>,
}

impl Options {
    /// Defaults: 100 trials, seed 1, all cores, no sizes override.
    pub fn defaults() -> Self {
        Options {
            trials: 100,
            seed: 1,
            threads: default_threads(),
            sizes: Vec::new(),
            csv: false,
            format: OutputFormat::Text,
            backend: None,
            budget: None,
            resume: None,
            positional: Vec::new(),
        }
    }

    /// Parses `std::env::args().skip(1)`-style iterators.
    ///
    /// # Panics
    ///
    /// Panics (with a usage hint) on malformed flag values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = Options::defaults();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trials" => opts.trials = expect_num(&mut it, "--trials"),
                "--seed" => opts.seed = expect_num(&mut it, "--seed"),
                "--threads" => opts.threads = expect_num(&mut it, "--threads"),
                "--sizes" => {
                    let v = it.next().unwrap_or_else(|| panic!("--sizes needs a value"));
                    opts.sizes = v
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .unwrap_or_else(|_| panic!("bad size {s:?} in --sizes"))
                        })
                        .collect();
                }
                "--csv" => opts.format = OutputFormat::Csv,
                "--topology" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| panic!("--topology needs a value"));
                    opts.backend = Some(match v.as_str() {
                        "explicit" => Backend::Explicit,
                        "implicit" => Backend::Implicit,
                        other => panic!("--topology must be explicit or implicit, got {other:?}"),
                    });
                }
                "--budget" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| panic!("--budget needs a value"));
                    opts.budget = Some(parse_budget(&v));
                }
                "--resume" => {
                    opts.resume =
                        Some(it.next().unwrap_or_else(|| panic!("--resume needs a path")));
                }
                "--format" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| panic!("--format needs a value"));
                    opts.format = match v.as_str() {
                        "text" => OutputFormat::Text,
                        "csv" => OutputFormat::Csv,
                        "json" => OutputFormat::Json,
                        other => panic!("--format must be text, csv or json, got {other:?}"),
                    };
                }
                _ => opts.positional.push(arg),
            }
        }
        opts.csv = opts.format == OutputFormat::Csv;
        opts
    }

    /// Parses the real process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// The selected backend, defaulting to [`Backend::Explicit`] when
    /// `--topology` was not given — for binaries that run on exactly one
    /// backend per invocation.
    pub fn backend_or_explicit(&self) -> Backend {
        self.backend.unwrap_or_default()
    }

    /// The per-cell trial budget: `--budget` when given, otherwise a fixed
    /// `Trials(self.trials)` (so plain `--trials K` keeps its historical
    /// meaning in the spec-driven binaries).
    pub fn budget_or_trials(&self) -> Budget {
        self.budget.unwrap_or(Budget::Trials(self.trials))
    }

    /// The sizes to use, falling back to `default` when `--sizes` was not
    /// given.
    pub fn sizes_or(&self, default: &[usize]) -> Vec<usize> {
        if self.sizes.is_empty() {
            default.to_vec()
        } else {
            self.sizes.clone()
        }
    }

    /// Serialises a table in the selected [`OutputFormat`] (with a trailing
    /// newline), so every binary prints via `print!("{}", opts.render(&t))`.
    pub fn render(&self, t: &TextTable) -> String {
        match self.format {
            OutputFormat::Text => t.render(),
            OutputFormat::Csv => t.to_csv(),
            OutputFormat::Json => t.to_json_lines(),
        }
    }
}

/// Parses a `--budget` value: `trials:N` or `ci:REL[,MIN[,MAX]]`.
fn parse_budget(v: &str) -> Budget {
    if let Some(n) = v.strip_prefix("trials:") {
        let n = n
            .parse()
            .unwrap_or_else(|_| panic!("--budget trials:N needs an integer, got {n:?}"));
        return Budget::Trials(n);
    }
    if let Some(spec) = v.strip_prefix("ci:") {
        let mut parts = spec.split(',');
        let rel: f64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("--budget ci:REL needs a number, got {spec:?}"));
        assert!(rel > 0.0, "--budget ci:REL must be positive, got {rel}");
        let min_trials: usize = match parts.next() {
            None => CI_DEFAULT_MIN_TRIALS,
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("bad min trials {s:?} in --budget")),
        };
        let max_trials: usize = match parts.next() {
            None => CI_DEFAULT_MAX_TRIALS.max(min_trials),
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| panic!("bad max trials {s:?} in --budget")),
        };
        assert!(
            min_trials >= 2 && max_trials >= min_trials,
            "--budget ci needs 2 <= min <= max, got min={min_trials} max={max_trials}"
        );
        assert!(
            parts.next().is_none(),
            "--budget ci takes at most REL,MIN,MAX"
        );
        return Budget::CiHalfWidth {
            rel,
            min_trials,
            max_trials,
        };
    }
    panic!("--budget must be trials:N or ci:REL[,MIN[,MAX]], got {v:?}");
}

fn expect_num<T: std::str::FromStr, I: Iterator<Item = String>>(it: &mut I, flag: &str) -> T {
    it.next()
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag} needs a numeric value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Options {
        Options::parse(words.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn defaults_without_args() {
        let o = parse(&[]);
        assert_eq!(o.trials, 100);
        assert_eq!(o.seed, 1);
        assert!(o.sizes.is_empty());
        assert!(!o.csv);
    }

    #[test]
    fn parses_flags_and_positional() {
        let o = parse(&[
            "cycle", "--trials", "50", "--seed", "9", "--sizes", "8,16,32", "--csv",
        ]);
        assert_eq!(o.positional, vec!["cycle"]);
        assert_eq!(o.trials, 50);
        assert_eq!(o.seed, 9);
        assert_eq!(o.sizes, vec![8, 16, 32]);
        assert!(o.csv);
    }

    #[test]
    fn sizes_fallback() {
        let o = parse(&[]);
        assert_eq!(o.sizes_or(&[4, 8]), vec![4, 8]);
        let o = parse(&["--sizes", "64"]);
        assert_eq!(o.sizes_or(&[4, 8]), vec![64]);
    }

    #[test]
    #[should_panic(expected = "--trials needs a")]
    fn missing_value_panics() {
        let _ = parse(&["--trials"]);
    }

    #[test]
    fn format_flag_parses_all_variants() {
        assert_eq!(parse(&[]).format, OutputFormat::Text);
        assert_eq!(parse(&["--format", "text"]).format, OutputFormat::Text);
        assert_eq!(parse(&["--format", "csv"]).format, OutputFormat::Csv);
        assert_eq!(parse(&["--format", "json"]).format, OutputFormat::Json);
        // --csv stays a working alias and keeps the legacy bool in sync
        let o = parse(&["--csv"]);
        assert_eq!(o.format, OutputFormat::Csv);
        assert!(o.csv);
        assert!(!parse(&["--format", "json"]).csv);
    }

    #[test]
    #[should_panic(expected = "--format must be")]
    fn bad_format_panics() {
        let _ = parse(&["--format", "xml"]);
    }

    #[test]
    fn topology_flag_parses() {
        assert_eq!(parse(&[]).backend, None);
        assert_eq!(parse(&[]).backend_or_explicit(), Backend::Explicit);
        assert_eq!(
            parse(&["--topology", "explicit"]).backend,
            Some(Backend::Explicit)
        );
        assert_eq!(
            parse(&["--topology", "implicit"]).backend,
            Some(Backend::Implicit)
        );
        assert_eq!(
            parse(&["--topology", "implicit"]).backend_or_explicit(),
            Backend::Implicit
        );
        assert_eq!(Backend::Implicit.label(), "implicit");
    }

    #[test]
    #[should_panic(expected = "--topology must be")]
    fn bad_topology_panics() {
        let _ = parse(&["--topology", "csr"]);
    }

    #[test]
    fn budget_flag_parses() {
        assert_eq!(parse(&[]).budget, None);
        assert_eq!(
            parse(&[]).budget_or_trials(),
            Budget::Trials(100),
            "falls back to --trials"
        );
        assert_eq!(
            parse(&["--trials", "7"]).budget_or_trials(),
            Budget::Trials(7)
        );
        assert_eq!(
            parse(&["--budget", "trials:50"]).budget_or_trials(),
            Budget::Trials(50)
        );
        assert_eq!(
            parse(&["--budget", "ci:0.02"]).budget_or_trials(),
            Budget::CiHalfWidth {
                rel: 0.02,
                min_trials: CI_DEFAULT_MIN_TRIALS,
                max_trials: CI_DEFAULT_MAX_TRIALS,
            }
        );
        assert_eq!(
            parse(&["--budget", "ci:0.05,16,400"]).budget_or_trials(),
            Budget::CiHalfWidth {
                rel: 0.05,
                min_trials: 16,
                max_trials: 400,
            }
        );
    }

    #[test]
    #[should_panic(expected = "--budget must be")]
    fn bad_budget_panics() {
        let _ = parse(&["--budget", "everything"]);
    }

    #[test]
    #[should_panic(expected = "2 <= min <= max")]
    fn inverted_ci_budget_panics() {
        let _ = parse(&["--budget", "ci:0.1,50,10"]);
    }

    #[test]
    fn resume_flag_parses() {
        assert_eq!(parse(&[]).resume, None);
        assert_eq!(
            parse(&["--resume", "ck.ndjson"]).resume.as_deref(),
            Some("ck.ndjson")
        );
    }

    #[test]
    fn render_matches_format() {
        let mut t = TextTable::new(["n"]);
        t.push_row(["4"]);
        assert_eq!(parse(&["--csv"]).render(&t), "n\n4\n");
        assert_eq!(parse(&["--format", "json"]).render(&t), "{\"n\":4}\n");
        assert!(parse(&[]).render(&t).contains('-'));
    }
}
