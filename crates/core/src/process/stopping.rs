//! Generalized stopping rules (Appendix A, Proposition A.1).
//!
//! A *dispersion process* only requires that a particle jumping to a vacant
//! vertex **may** settle; Proposition A.1 shows there is no "least action
//! principle": letting particles *skip* vacant vertices can make the
//! dispersion time smaller. The witness is the clique with a hair, with the
//! rule "settle only on the hair tip until time `3n log n`, then settle
//! greedily".
//!
//! The rule types live in [`crate::engine::rule`] (re-exported here), so
//! *every* schedule supports generalized stopping; these entry points are
//! the historical sequential/parallel pairings.

use crate::engine::schedule::{Parallel, Sequential};
use crate::engine::{self, EngineConfig, EngineError};
use crate::outcome::DispersionOutcome;
use crate::process::ProcessConfig;
use dispersion_graphs::{Topology, Vertex};
use rand::Rng;

pub use crate::engine::rule::{DelayedExcept, FirstVacant, SettleRule};

/// Sequential-IDLA with a custom settle rule.
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the rule prevents
/// termination within the step cap.
pub fn run_sequential_with_rule<T: Topology + ?Sized, S: SettleRule, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    rule: &S,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, origin, cfg);
    let out = engine::run(g, &mut Sequential::new(), rule, &ecfg, &mut (), rng)?;
    Ok(DispersionOutcome::new(
        origin,
        out.steps,
        out.settled_at,
        None,
    ))
}

/// Parallel-IDLA with a custom settle rule (ties still go to the smallest
/// index among particles willing to settle on the same vertex).
///
/// # Errors
///
/// Returns [`EngineError::StepCapExceeded`] if the rule prevents
/// termination within the step cap.
pub fn run_parallel_with_rule<T: Topology + ?Sized, S: SettleRule, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    rule: &S,
    cfg: &ProcessConfig,
    rng: &mut R,
) -> Result<DispersionOutcome, EngineError> {
    let ecfg = EngineConfig::full(g, origin, cfg);
    let out = engine::run(g, &mut Parallel::new(), rule, &ecfg, &mut (), rng)?;
    Ok(DispersionOutcome::new(
        origin,
        out.steps,
        out.settled_at,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;
    use dispersion_graphs::generators::clique_with_hair;
    use dispersion_graphs::generators::cycle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn first_vacant_matches_standard_engine_distributionally() {
        let g = cycle(16);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 300;
        let mut rule_total = 0u64;
        let mut std_total = 0u64;
        for _ in 0..trials {
            rule_total +=
                run_sequential_with_rule(&g, 0, &FirstVacant, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .dispersion_time;
            std_total += Process::Sequential
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        let ratio = rule_total as f64 / std_total as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn delayed_rule_settles_special_early() {
        let (g, _v, v_star) = clique_with_hair(32);
        let n = g.n() as f64;
        let rule = DelayedExcept {
            threshold: (3.0 * n * n.ln()) as u64,
            special: v_star,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let o = run_sequential_with_rule(&g, 0, &rule, &ProcessConfig::simple(), &mut rng).unwrap();
        // v* must be settled by some particle
        assert!(o.settled_at.contains(&v_star));
    }

    #[test]
    fn proposition_a1_rule_beats_standard_on_clique_with_hair() {
        // Prop A.1: the modified rule gives O(n log n) dispersion while the
        // standard rule is Ω(n²) with constant probability. Compare means.
        let n = 48usize;
        let (g, v, v_star) = clique_with_hair(n);
        let nf = n as f64;
        let rule = DelayedExcept {
            threshold: (3.0 * nf * nf.ln()) as u64,
            special: v_star,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 120;
        let mut modified = 0u64;
        let mut standard = 0u64;
        for _ in 0..trials {
            modified += run_sequential_with_rule(&g, v, &rule, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
            standard += Process::Sequential
                .run(&g, v, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        assert!(
            modified < standard,
            "modified rule ({modified}) should beat standard ({standard})"
        );
    }

    #[test]
    fn parallel_rule_engine_terminates() {
        let g = cycle(12);
        let mut rng = StdRng::seed_from_u64(4);
        let o = run_parallel_with_rule(&g, 0, &FirstVacant, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        assert_eq!(o.n(), 12);
        let mut s = o.settled_at.clone();
        s.sort_unstable();
        assert_eq!(s, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn refusing_rule_errors_instead_of_hanging() {
        // a rule that refuses every vacancy can never finish; the cap must
        // surface as an error, not a panic
        struct Never;
        impl SettleRule for Never {
            fn should_settle(&self, _steps: u64, _at: dispersion_graphs::Vertex) -> bool {
                false
            }
        }
        let g = cycle(6);
        let mut rng = StdRng::seed_from_u64(5);
        let err = run_sequential_with_rule(
            &g,
            0,
            &Never,
            &ProcessConfig::simple().with_cap(64),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::StepCapExceeded { cap: 64, .. }));
    }
}
