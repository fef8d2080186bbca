//! The wire format for [`ExperimentSpec`]: a JSON schema over the same
//! labels the sink layer already prints (family/measure/backend labels,
//! budget shapes), parsed with the shared [`dispersion_sim::json`] codec.
//!
//! ```json
//! {"seed": 42,
//!  "cells": [
//!    {"family": "clique", "size": 1024, "measure": "seq",
//!     "budget": {"trials": 100}},
//!    {"family": "expander", "degree": 4, "size": 512,
//!     "backend": "explicit", "graph_seed": 7, "origin": 0,
//!     "measure": "steps:par",
//!     "budget": {"rel": 0.02, "min_trials": 30, "max_trials": 10000},
//!     "walk": "lazy", "step_cap": 1000000, "master_seed": 99}]}
//! ```
//!
//! [`spec_to_json`] emits the *canonical* form: every field explicit, in
//! fixed order, with `u64` values above 2⁵³ as decimal strings (the
//! [`dispersion_sim::json::fmt_u64`] convention). Canonical text
//! roundtrips byte-identically through [`spec_from_json`], which is what
//! lets the job store persist a spec once and re-derive the *same* cell
//! keys — and hence the same `(seed, cell, trial)` RNG streams — after a
//! restart.

use dispersion_core::process::ProcessConfig;
use dispersion_graphs::families::Family;
use dispersion_graphs::WalkKind;
use dispersion_sim::experiment::Process;
use dispersion_sim::json::{fmt_f64, fmt_u64, Json};
use dispersion_sim::spec::{BackendSpec, Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};

fn process_from_label(s: &str) -> Result<Process, String> {
    Process::all()
        .into_iter()
        .find(|p| p.label() == s)
        .ok_or_else(|| format!("unknown process {s:?} (expected seq|par|unif|ctu|cseq)"))
}

fn measure_from_label(s: &str) -> Result<Measure, String> {
    if let Some(p) = s.strip_prefix("steps:") {
        return Ok(Measure::TotalSteps(process_from_label(p)?));
    }
    match s {
        "par+half" => Ok(Measure::ParallelWithHalf),
        "shape" => Ok(Measure::TorusShapeHalfFill),
        "cover" => Ok(Measure::CoverTime),
        p => Ok(Measure::Dispersion(process_from_label(p)?)),
    }
}

fn family_from_label(s: &str, degree: Option<usize>) -> Result<Family, String> {
    let f = match s {
        "path" => Family::Path,
        "cycle" => Family::Cycle,
        "grid2d" => Family::Torus2d,
        "grid3d" => Family::Torus3d,
        "hypercube" => Family::Hypercube,
        "btree" => Family::BinaryTree,
        "clique" => Family::Complete,
        "expander" => {
            Family::RandomRegular(degree.ok_or("family \"expander\" requires a \"degree\" field")?)
        }
        "star" => Family::Star,
        "lollipop" => Family::Lollipop,
        other => return Err(format!("unknown family {other:?}")),
    };
    if degree.is_some() && !matches!(f, Family::RandomRegular(_)) {
        return Err(format!(
            "\"degree\" is only valid for family \"expander\", not {s:?}"
        ));
    }
    Ok(f)
}

fn get_u64(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be an unsigned integer")),
    }
}

fn get_usize(obj: &Json, key: &str) -> Result<Option<usize>, String> {
    Ok(get_u64(obj, key)?.map(|v| v as usize))
}

fn parse_budget(v: &Json) -> Result<Budget, String> {
    let Some(_) = v.as_obj() else {
        return Err("\"budget\" must be an object".into());
    };
    if let Some(t) = get_u64(v, "trials")? {
        if v.get("rel").is_some() {
            return Err("\"budget\" mixes fixed-trials and CI fields".into());
        }
        return Ok(Budget::Trials(t as usize));
    }
    let rel = v.get("rel").and_then(Json::as_num).ok_or(
        "\"budget\" needs either {\"trials\": N} or {\"rel\", \"min_trials\", \"max_trials\"}",
    )?;
    let min_trials = get_usize(v, "min_trials")?.ok_or("adaptive budget missing \"min_trials\"")?;
    let max_trials = get_usize(v, "max_trials")?.ok_or("adaptive budget missing \"max_trials\"")?;
    // NaN needs its own check: it passes `rel <= 0.0` but is not usable
    if rel.is_nan() || rel <= 0.0 || min_trials > max_trials {
        return Err("adaptive budget needs rel > 0 and min_trials <= max_trials".into());
    }
    Ok(Budget::CiHalfWidth {
        rel,
        min_trials,
        max_trials,
    })
}

fn parse_cell(v: &Json, idx: usize) -> Result<CellSpec, String> {
    let err = |msg: String| format!("cell {idx}: {msg}");
    v.as_obj().ok_or_else(|| err("not an object".into()))?;
    let family_label = v
        .get("family")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing \"family\"".into()))?;
    let degree = get_usize(v, "degree").map_err(&err)?;
    let family = family_from_label(family_label, degree).map_err(&err)?;
    let size = get_usize(v, "size")
        .map_err(&err)?
        .ok_or_else(|| err("missing \"size\"".into()))?;
    let backend = match v.get("backend").and_then(Json::as_str) {
        None | Some("explicit") => BackendSpec::Explicit,
        Some("implicit") => BackendSpec::Implicit,
        Some(other) => return Err(err(format!("unknown backend {other:?}"))),
    };
    let measure_label = v
        .get("measure")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing \"measure\"".into()))?;
    let measure = measure_from_label(measure_label).map_err(&err)?;

    let mut fam = FamilySpec {
        family,
        size,
        backend,
        graph_seed: get_u64(v, "graph_seed").map_err(&err)?.unwrap_or(0),
        origin: None,
    };
    if let Some(o) = get_u64(v, "origin").map_err(&err)? {
        let o = u32::try_from(o).map_err(|_| err(format!("origin {o} out of range")))?;
        fam = fam.origin(o);
    }

    let mut cell = CellSpec::new(fam, measure);
    if let Some(b) = v.get("budget") {
        cell = cell.budget(parse_budget(b).map_err(&err)?);
    }
    let mut cfg = match v.get("walk").and_then(Json::as_str) {
        None | Some("simple") => ProcessConfig::simple(),
        Some("lazy") => ProcessConfig::lazy(),
        Some(other) => return Err(err(format!("unknown walk {other:?}"))),
    };
    if let Some(cap) = get_u64(v, "step_cap").map_err(&err)? {
        cfg = cfg.with_cap(cap);
    }
    cell = cell.config(cfg);
    if let Some(ms) = get_u64(v, "master_seed").map_err(&err)? {
        cell = cell.master_seed(ms);
    }
    Ok(cell)
}

/// Parses an [`ExperimentSpec`] from its JSON wire form.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax or schema
/// problem (the server surfaces it as the 400 response body).
pub fn spec_from_json(text: &str) -> Result<ExperimentSpec, String> {
    let v = Json::parse(text)?;
    v.as_obj().ok_or("spec must be a JSON object")?;
    let seed = get_u64(&v, "seed")?.unwrap_or(0);
    let cells_json = v
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("spec needs a \"cells\" array")?;
    let mut spec = ExperimentSpec::new(seed);
    for (i, cj) in cells_json.iter().enumerate() {
        spec.push(parse_cell(cj, i)?);
    }
    Ok(spec)
}

/// Serialises a spec to canonical JSON: all fields explicit, fixed field
/// order, one line. `spec_from_json(spec_to_json(s))` reproduces `s`
/// exactly (same cell keys, same master seeds), and re-serialising gives
/// the same bytes.
pub fn spec_to_json(spec: &ExperimentSpec) -> String {
    let mut s = format!("{{\"seed\":{},\"cells\":[", fmt_u64(spec.seed));
    for (i, c) in spec.cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"family\":\"{}\"", c.family.family.label()));
        if let Family::RandomRegular(d) = c.family.family {
            s.push_str(&format!(",\"degree\":{d}"));
        }
        s.push_str(&format!(
            ",\"size\":{},\"backend\":\"{}\",\"graph_seed\":{}",
            c.family.size,
            c.family.backend.label(),
            fmt_u64(c.family.graph_seed)
        ));
        if let Some(o) = c.family.origin {
            s.push_str(&format!(",\"origin\":{o}"));
        }
        s.push_str(&format!(",\"measure\":\"{}\"", c.measure.label()));
        match c.budget {
            Budget::Trials(n) => s.push_str(&format!(",\"budget\":{{\"trials\":{n}}}")),
            Budget::CiHalfWidth {
                rel,
                min_trials,
                max_trials,
            } => s.push_str(&format!(
                ",\"budget\":{{\"rel\":{},\"min_trials\":{min_trials},\"max_trials\":{max_trials}}}",
                fmt_f64(rel)
            )),
        }
        let walk = match c.cfg.walk {
            WalkKind::Simple => "simple",
            WalkKind::Lazy => "lazy",
        };
        s.push_str(&format!(
            ",\"walk\":\"{walk}\",\"step_cap\":{}",
            fmt_u64(c.cfg.step_cap)
        ));
        if let Some(ms) = c.master_seed {
            s.push_str(&format!(",\"master_seed\":{}", fmt_u64(ms)));
        }
        s.push('}');
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(7);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 64),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(24)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::implicit(Family::Cycle, 32).origin(3),
                Measure::TotalSteps(Process::Parallel),
            )
            .budget(Budget::CiHalfWidth {
                rel: 0.05,
                min_trials: 16,
                max_trials: 4096,
            })
            .config(ProcessConfig::lazy().with_cap(1 << 20))
            .master_seed(u64::MAX - 1),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::RandomRegular(4), 128).graph_seed(9),
                Measure::CoverTime,
            )
            .budget(Budget::Trials(8)),
        );
        spec
    }

    #[test]
    fn canonical_roundtrip_is_exact() {
        let spec = sample();
        let text = spec_to_json(&spec);
        let back = spec_from_json(&text).unwrap();
        assert_eq!(back.seed, spec.seed);
        assert_eq!(back.len(), spec.len());
        for i in 0..spec.len() {
            assert_eq!(back.cell_key(i), spec.cell_key(i), "cell {i}");
            assert_eq!(back.master_seed(i), spec.master_seed(i), "cell {i}");
        }
        // canonical text is a fixed point
        assert_eq!(spec_to_json(&back), text);
    }

    #[test]
    fn u64_seeds_survive_the_wire() {
        let mut spec = ExperimentSpec::new(u64::MAX);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Star, 10).graph_seed(u64::MAX - 7),
                Measure::Dispersion(Process::Ctu),
            )
            .master_seed(1 << 60),
        );
        let back = spec_from_json(&spec_to_json(&spec)).unwrap();
        assert_eq!(back.seed, u64::MAX);
        assert_eq!(back.cells[0].family.graph_seed, u64::MAX - 7);
        assert_eq!(back.cells[0].master_seed, Some(1 << 60));
    }

    #[test]
    fn minimal_cell_gets_defaults() {
        let spec =
            spec_from_json(r#"{"cells":[{"family":"clique","size":16,"measure":"par"}]}"#).unwrap();
        assert_eq!(spec.seed, 0);
        let c = &spec.cells[0];
        assert_eq!(c.budget, Budget::Trials(100));
        assert_eq!(c.family.backend, BackendSpec::Explicit);
        assert_eq!(c.cfg.walk, WalkKind::Simple);
        assert_eq!(c.master_seed, None);
    }

    #[test]
    fn retired_walker_thread_key_is_ignored() {
        // Specs written while cells carried an intra-trial thread count
        // (persisted `job-<id>.spec.json` files, old clients) still decode
        // to the cell they describe, and re-encode without the key.
        let plain = r#"{"cells":[{"family":"grid2d","size":25,"measure":"par"}]}"#;
        let legacy =
            r#"{"cells":[{"family":"grid2d","size":25,"measure":"par","walker_threads":4}]}"#;
        let plain = spec_from_json(plain).unwrap();
        let legacy = spec_from_json(legacy).unwrap();
        assert_eq!(format!("{:?}", legacy.cells), format!("{:?}", plain.cells));
        assert_eq!(legacy.cell_key(0), plain.cell_key(0));
        let text = spec_to_json(&legacy);
        assert_eq!(text, spec_to_json(&plain));
        assert!(!text.contains("walker_threads"));
    }

    #[test]
    fn all_measure_labels_parse() {
        for label in [
            "seq",
            "par",
            "unif",
            "ctu",
            "cseq",
            "par+half",
            "shape",
            "cover",
            "steps:seq",
            "steps:cseq",
        ] {
            let m = measure_from_label(label).unwrap();
            assert_eq!(m.label(), label);
        }
    }

    #[test]
    fn schema_errors_are_descriptive() {
        for (text, needle) in [
            ("[]", "object"),
            ("{\"cells\":3}", "array"),
            (r#"{"cells":[{"size":4,"measure":"seq"}]}"#, "family"),
            (
                r#"{"cells":[{"family":"blob","size":4,"measure":"seq"}]}"#,
                "blob",
            ),
            (r#"{"cells":[{"family":"clique","measure":"seq"}]}"#, "size"),
            (r#"{"cells":[{"family":"clique","size":4}]}"#, "measure"),
            (
                r#"{"cells":[{"family":"clique","size":4,"measure":"warp"}]}"#,
                "warp",
            ),
            (
                r#"{"cells":[{"family":"expander","size":4,"measure":"seq"}]}"#,
                "degree",
            ),
            (
                r#"{"cells":[{"family":"clique","size":4,"measure":"seq","budget":{}}]}"#,
                "budget",
            ),
            (
                r#"{"cells":[{"family":"clique","size":4,"measure":"seq","budget":{"rel":0.1,"min_trials":9,"max_trials":3}}]}"#,
                "min_trials",
            ),
            (
                r#"{"cells":[{"family":"clique","size":4,"measure":"seq","walk":"hop"}]}"#,
                "hop",
            ),
            (
                r#"{"cells":[{"family":"clique","size":4,"measure":"seq","backend":"magic"}]}"#,
                "magic",
            ),
            (
                r#"{"cells":[{"family":"clique","size":4,"measure":"seq","origin":4294967296}]}"#,
                "range",
            ),
        ] {
            let err = spec_from_json(text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }
}
