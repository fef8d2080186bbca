//! Declarative experiment specifications: the paper's (family × size ×
//! schedule) Monte-Carlo grid as data.
//!
//! An [`ExperimentSpec`] is a list of **cells**. Each [`CellSpec`] names a
//! graph instance ([`FamilySpec`] — resolving to an explicit CSR
//! [`Graph`] or a closed-form implicit [`Implicit`] topology), a
//! [`Measure`] (which per-trial statistics one engine pass yields), and a
//! [`Budget`] (a fixed trial count, or adaptive stopping on the confidence
//! interval). The streaming [`Runner`](crate::runner::Runner) executes the
//! whole spec: cells are scheduled across threads, statistics stream
//! through one-pass [`Online`](crate::stats::Online) accumulators, and
//! results arrive as [`Record`](crate::sink::Record)s on a
//! [`Sink`](crate::sink::Sink).
//!
//! Reproducibility contract: trial `t` of cell `c` always draws from
//! `Xoshiro256pp::new(trial_seed(master(c), t))`, where `master(c)` is the
//! cell's explicit master seed or a value derived from `(spec seed, c)` —
//! so results are bit-identical for any thread count, and legacy binaries
//! can pin their historical per-sweep seeds cell by cell.

use crate::experiment::Process;
use crate::rng::splitmix64;
use dispersion_core::engine::observer::{AggregateShape, DispersionTime, PhaseTimes};
use dispersion_core::engine::{self, schedule, EngineConfig, EngineError, FirstVacant};
use dispersion_core::process::ProcessConfig;
use dispersion_graphs::families::Family;
use dispersion_graphs::topology::Implicit;
use dispersion_graphs::{Graph, Topology, Vertex};
use rand::Rng;

/// Which graph backend a [`FamilySpec`] resolves to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// Materialised CSR adjacency — works for every family.
    #[default]
    Explicit,
    /// Closed-form implicit topology — zero adjacency storage; only the
    /// families with closed-form neighbour math support it.
    Implicit,
}

impl BackendSpec {
    /// Short label for keys and tables.
    pub fn label(self) -> &'static str {
        match self {
            BackendSpec::Explicit => "explicit",
            BackendSpec::Implicit => "implicit",
        }
    }
}

/// A graph instance request: family, approximate size, backend, and the
/// deterministic ingredients (graph seed, origin override) that make the
/// resolved instance reproducible.
#[derive(Clone, Debug)]
pub struct FamilySpec {
    /// The Table 1 family.
    pub family: Family,
    /// Requested vertex count (families round to the nearest feasible
    /// size, exactly as [`Family::instance`] does).
    pub size: usize,
    /// Explicit CSR or implicit closed-form backend.
    pub backend: BackendSpec,
    /// Seed of the RNG handed to the family constructor (only random
    /// families consume it); defaults to 0.
    pub graph_seed: u64,
    /// Origin override; defaults to the family's conventional origin
    /// (path endpoint, tree root, vertex 0, …).
    pub origin: Option<Vertex>,
}

impl FamilySpec {
    /// An explicit-backend instance request.
    pub fn explicit(family: Family, size: usize) -> Self {
        FamilySpec {
            family,
            size,
            backend: BackendSpec::Explicit,
            graph_seed: 0,
            origin: None,
        }
    }

    /// An implicit-backend instance request.
    pub fn implicit(family: Family, size: usize) -> Self {
        FamilySpec {
            backend: BackendSpec::Implicit,
            ..FamilySpec::explicit(family, size)
        }
    }

    /// Sets the graph-construction seed.
    pub fn graph_seed(mut self, seed: u64) -> Self {
        self.graph_seed = seed;
        self
    }

    /// Overrides the origin vertex.
    pub fn origin(mut self, v: Vertex) -> Self {
        self.origin = Some(v);
        self
    }

    /// Builds the instance this spec describes.
    ///
    /// # Errors
    ///
    /// [`CellError::Invalid`] when the family has no implicit form and
    /// [`BackendSpec::Implicit`] was requested.
    pub fn resolve(&self) -> Result<ResolvedCell, CellError> {
        match self.backend {
            BackendSpec::Explicit => {
                // LINT: rng-discipline-ok — graph_seed IS the spec-pinned stream id:
                // the cell hash covers it, so the same spec always draws the same graph
                let mut rng = crate::rng::Xoshiro256pp::new(self.graph_seed);
                let inst = self.family.instance(self.size, &mut rng);
                Ok(ResolvedCell {
                    origin: self.origin.unwrap_or(inst.origin),
                    label: inst.label,
                    topo: ResolvedTopo::Explicit(inst.graph),
                })
            }
            BackendSpec::Implicit => {
                let imp = self.family.implicit(self.size).ok_or_else(|| {
                    CellError::Invalid(format!(
                        "family {} has no implicit topology",
                        self.family.label()
                    ))
                })?;
                Ok(ResolvedCell {
                    origin: self.origin.unwrap_or(0),
                    label: self.family.label(),
                    topo: ResolvedTopo::Implicit(imp),
                })
            }
        }
    }
}

/// A resolved graph backend: the two shapes a [`FamilySpec`] can take at
/// run time.
#[derive(Clone, Debug)]
pub enum ResolvedTopo {
    /// Materialised CSR graph.
    Explicit(Graph),
    /// Closed-form implicit family.
    Implicit(Implicit),
}

/// A resolved cell instance: backend, origin, human label.
#[derive(Clone, Debug)]
pub struct ResolvedCell {
    /// The graph backend.
    pub topo: ResolvedTopo,
    /// Origin vertex of the process.
    pub origin: Vertex,
    /// Family label (e.g. `"cycle"`).
    pub label: &'static str,
}

impl ResolvedCell {
    /// Vertex count of the resolved instance.
    pub fn n(&self) -> usize {
        match &self.topo {
            ResolvedTopo::Explicit(g) => g.n(),
            ResolvedTopo::Implicit(t) => t.n(),
        }
    }
}

/// Monomorphising dispatch over a [`ResolvedTopo`]: expands `$body` once
/// per concrete backend type, so engine hot loops never pay an enum match
/// per walk step.
#[macro_export]
macro_rules! with_resolved_topology {
    ($topo:expr, $t:ident => $body:expr) => {
        match $topo {
            $crate::spec::ResolvedTopo::Explicit($t) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Path($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Cycle($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Torus2d($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Hypercube($t),
            ) => $body,
            $crate::spec::ResolvedTopo::Implicit(
                ::dispersion_graphs::topology::Implicit::Complete($t),
            ) => $body,
        }
    };
}

/// What one trial of a cell measures: each engine pass yields the fixed
/// set of named statistics in [`Measure::stat_names`] order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Measure {
    /// Dispersion time of one process, in its native unit (stat `time`).
    Dispersion(Process),
    /// Parallel-IDLA dispersion time plus the Theorem 3.3 half-milestone,
    /// both from one engine pass (stats `time`, `t_half`).
    ParallelWithHalf,
    /// Total walk steps over all particles (stat `steps`) — the Theorem
    /// 4.1 equidistributed quantity.
    TotalSteps(Process),
    /// Prop. 5.10 aggregate-shape statistics of a sequential `k = n/2`
    /// fill on a 2-d torus: one pass with composed shape/time/phase
    /// observers (stats `inner_r`, `outer_r`, `fluct`, `roundness`,
    /// `t_fill`, `half_t`). Requires a square torus instance.
    TorusShapeHalfFill,
    /// Cover time of a simple random walk from the origin (stat `cover`),
    /// computed on any backend via the neighbour oracle.
    CoverTime,
}

impl Measure {
    /// Names of the statistics one trial produces, in output order.
    pub fn stat_names(&self) -> &'static [&'static str] {
        match self {
            Measure::Dispersion(_) => &["time"],
            Measure::ParallelWithHalf => &["time", "t_half"],
            Measure::TotalSteps(_) => &["steps"],
            Measure::TorusShapeHalfFill => &[
                "inner_r",
                "outer_r",
                "fluct",
                "roundness",
                "t_fill",
                "half_t",
            ],
            Measure::CoverTime => &["cover"],
        }
    }

    /// Short label for keys and tables.
    pub fn label(&self) -> String {
        match self {
            Measure::Dispersion(p) => p.label().to_string(),
            Measure::ParallelWithHalf => "par+half".to_string(),
            Measure::TotalSteps(p) => format!("steps:{}", p.label()),
            Measure::TorusShapeHalfFill => "shape".to_string(),
            Measure::CoverTime => "cover".to_string(),
        }
    }

    /// Runs one trial on a resolved backend, writing one value per
    /// [`Measure::stat_names`] entry into `out` and returning the trial's
    /// total walk-step count (what the engine's `Odometer` observer counts
    /// as `steps`) — the raw material for throughput metrics like the
    /// serve layer's steps/s gauge.
    ///
    /// # Errors
    ///
    /// Engine step-cap overruns and invalid measure/backend pairings come
    /// back as [`CellError`]s — the runner turns them into per-cell error
    /// records instead of aborting the sweep.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from `stat_names().len()`.
    pub fn run_trial<R: Rng + ?Sized>(
        &self,
        cell: &ResolvedCell,
        cfg: &ProcessConfig,
        out: &mut [f64],
        rng: &mut R,
    ) -> Result<u64, CellError> {
        assert_eq!(out.len(), self.stat_names().len(), "stat arity mismatch");
        with_resolved_topology!(&cell.topo, t => self.run_on(t, cell.origin, cfg, out, rng))
    }

    /// The generic trial body, monomorphised per backend.
    fn run_on<T: Topology + ?Sized, R: Rng + ?Sized>(
        &self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        out: &mut [f64],
        rng: &mut R,
    ) -> Result<u64, CellError> {
        let steps = match self {
            Measure::Dispersion(p) => {
                let o = p.run_observed(g, origin, cfg, &mut (), rng)?;
                out[0] = p.dispersion_of(&o);
                o.total_steps
            }
            Measure::ParallelWithHalf => {
                let mut phases = PhaseTimes::for_particles(g.n());
                let o = Process::Parallel.run_observed(g, origin, cfg, &mut phases, rng)?;
                out[0] = o.dispersion_time() as f64;
                out[1] = phases.phases[PhaseTimes::half_index(g.n())] as f64;
                o.total_steps
            }
            Measure::TotalSteps(p) => {
                // continuous clocks do not change the jump sequence
                let p = match p {
                    Process::ContinuousSequential => Process::Sequential,
                    p => *p,
                };
                let o = p.run_observed(g, origin, cfg, &mut (), rng)?;
                out[0] = o.total_steps as f64;
                o.total_steps
            }
            Measure::TorusShapeHalfFill => {
                let n = g.n();
                let side = (n as f64).sqrt().round() as usize;
                if side * side != n {
                    return Err(CellError::Invalid(format!(
                        "shape measure needs a square torus, got n = {n}"
                    )));
                }
                let dims = [side, side];
                let particles = (n / 2).max(1);
                let j_half = PhaseTimes::half_index(particles);
                let mut shape = AggregateShape::at_counts(origin, &dims, &[particles]);
                let mut time = DispersionTime::default();
                // tick clock: per-particle steps are not a shared clock
                // under the Sequential schedule
                let mut phases = PhaseTimes::in_ticks(particles);
                let ecfg = EngineConfig::with_particles(particles, origin, cfg);
                let o = engine::run(
                    g,
                    &mut schedule::Sequential::new(),
                    &FirstVacant,
                    &ecfg,
                    &mut (&mut shape, &mut time, &mut phases),
                    rng,
                )?;
                let s = &shape.snapshots[0].1;
                out[0] = s.inner_radius;
                out[1] = s.outer_radius;
                out[2] = s.fluctuation();
                out[3] = s.roundness();
                out[4] = time.max_steps as f64;
                out[5] = phases.phases[j_half] as f64;
                o.total_steps
            }
            Measure::CoverTime => {
                let (cover, steps) = cover_time(g, origin, cfg.step_cap, rng)?;
                out[0] = cover;
                steps
            }
        };
        Ok(steps)
    }
}

/// Simple-random-walk cover time from `origin`, on any neighbour oracle.
/// Returns `(cover_time, steps)` — identical here, but typed apart so the
/// caller can feed the step count into throughput accounting.
fn cover_time<T: Topology + ?Sized, R: Rng + ?Sized>(
    g: &T,
    origin: Vertex,
    cap: u64,
    rng: &mut R,
) -> Result<(f64, u64), CellError> {
    let n = g.n();
    let mut visited = vec![false; n];
    visited[origin as usize] = true;
    let mut remaining = n - 1;
    let mut v = origin;
    let mut steps = 0u64;
    while remaining > 0 {
        v = g.random_step(v, rng);
        steps += 1;
        let slot = &mut visited[v as usize];
        if !*slot {
            *slot = true;
            remaining -= 1;
        }
        if steps > cap {
            return Err(CellError::Engine(EngineError::StepCapExceeded {
                schedule: "cover",
                cap,
                unsettled: remaining,
            }));
        }
    }
    Ok((steps as f64, steps))
}

/// How many trials a cell runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Exactly this many trials.
    Trials(usize),
    /// Adaptive stopping: run at least `min_trials`, then stop as soon as
    /// the relative 95% CI half-width of the cell's primary statistic
    /// drops to `rel` or below, capped at `max_trials`. The stopping rule
    /// is evaluated only at deterministic round boundaries, so the trial
    /// count is identical for every `--threads` setting.
    CiHalfWidth {
        /// Target relative half-width (`1.96·sem / |mean|`).
        rel: f64,
        /// Trials to run before the first check.
        min_trials: usize,
        /// Hard ceiling on trials.
        max_trials: usize,
    },
}

impl Budget {
    /// Compact label for cell keys, e.g. `"t100"` or `"ci0.02:30:10000"`.
    pub fn label(&self) -> String {
        match self {
            Budget::Trials(n) => format!("t{n}"),
            Budget::CiHalfWidth {
                rel,
                min_trials,
                max_trials,
            } => format!("ci{rel}:{min_trials}:{max_trials}"),
        }
    }
}

/// One cell of the experiment grid.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// The graph instance.
    pub family: FamilySpec,
    /// What each trial measures.
    pub measure: Measure,
    /// How many trials to run.
    pub budget: Budget,
    /// Process configuration (walk flavour, step cap).
    pub cfg: ProcessConfig,
    /// Explicit master seed; `None` derives one from `(spec seed, cell
    /// id)`. Legacy binaries pin their historical sweep seeds here.
    pub master_seed: Option<u64>,
}

impl CellSpec {
    /// A cell with 100 trials, the simple walk config, and a derived
    /// master seed.
    pub fn new(family: FamilySpec, measure: Measure) -> Self {
        CellSpec {
            family,
            measure,
            budget: Budget::Trials(100),
            cfg: ProcessConfig::simple(),
            master_seed: None,
        }
    }

    /// Sets the trial budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the process configuration.
    pub fn config(mut self, cfg: ProcessConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Pins the master seed the per-trial RNG streams derive from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = Some(seed);
        self
    }
}

/// A whole declarative experiment: a seed plus a list of cells.
#[derive(Clone, Debug, Default)]
pub struct ExperimentSpec {
    /// Spec-level seed; cells without an explicit master seed derive
    /// theirs from `(seed, cell id)`.
    pub seed: u64,
    /// The cells, in declaration order (= cell id order).
    pub cells: Vec<CellSpec>,
}

impl ExperimentSpec {
    /// An empty spec with the given seed.
    pub fn new(seed: u64) -> Self {
        ExperimentSpec {
            seed,
            cells: Vec::new(),
        }
    }

    /// Appends a cell and returns its cell id.
    pub fn push(&mut self, cell: CellSpec) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Builder-style [`ExperimentSpec::push`].
    #[must_use]
    pub fn cell(mut self, cell: CellSpec) -> Self {
        self.cells.push(cell);
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the spec has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The master seed of cell `id`: its explicit override, or a value
    /// derived deterministically from `(spec seed, id)`.
    pub fn master_seed(&self, id: usize) -> u64 {
        self.cells[id].master_seed.unwrap_or_else(|| {
            let mut s = self.seed ^ (id as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            splitmix64(&mut s)
        })
    }

    /// The resume fingerprint of cell `id`: everything that determines the
    /// cell's result, including the process configuration (walk kind and
    /// step cap). A checkpoint record is only reused when both its cell id
    /// and its key match the spec being run.
    pub fn cell_key(&self, id: usize) -> String {
        let c = &self.cells[id];
        let origin = c
            .family
            .origin
            .map(|v| format!(":o{v}"))
            .unwrap_or_default();
        format!(
            "{}:n{}:{}:{}:{}:m{:x}:g{:x}:w{:?}:c{:x}{}",
            c.family.family.label(),
            c.family.size,
            c.measure.label(),
            c.family.backend.label(),
            c.budget.label(),
            self.master_seed(id),
            c.family.graph_seed,
            c.cfg.walk,
            c.cfg.step_cap,
            origin
        )
    }
}

/// Why a cell failed (surfaced as an error record, not a panic).
#[derive(Clone, Debug, PartialEq)]
pub enum CellError {
    /// The engine aborted (step cap).
    Engine(EngineError),
    /// The spec asked for something the backend cannot do.
    Invalid(String),
    /// A [`CancelToken`](crate::runner::CancelToken) fired: the cell was
    /// stopped cooperatively at a trial boundary, keeping the statistics
    /// of the trials that completed.
    Cancelled,
}

impl From<EngineError> for CellError {
    fn from(e: EngineError) -> Self {
        CellError::Engine(e)
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Engine(e) => write!(f, "{e}"),
            CellError::Invalid(msg) => write!(f, "{msg}"),
            CellError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for CellError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn resolve_explicit_and_implicit_agree_on_size() {
        let e = FamilySpec::explicit(Family::Cycle, 32).resolve().unwrap();
        let i = FamilySpec::implicit(Family::Cycle, 32).resolve().unwrap();
        assert_eq!(e.n(), 32);
        assert_eq!(i.n(), 32);
        assert_eq!(e.origin, i.origin);
        assert_eq!(e.label, "cycle");
    }

    #[test]
    fn implicit_unavailable_is_an_error() {
        let err = FamilySpec::implicit(Family::BinaryTree, 63)
            .resolve()
            .unwrap_err();
        assert!(matches!(err, CellError::Invalid(_)), "{err}");
    }

    #[test]
    fn origin_override_respected() {
        let r = FamilySpec::explicit(Family::Torus2d, 64)
            .origin(27)
            .resolve()
            .unwrap();
        assert_eq!(r.origin, 27);
    }

    #[test]
    fn measure_arity_matches_names() {
        let cell = FamilySpec::explicit(Family::Complete, 16)
            .resolve()
            .unwrap();
        let cfg = ProcessConfig::simple();
        for m in [
            Measure::Dispersion(Process::Sequential),
            Measure::ParallelWithHalf,
            Measure::TotalSteps(Process::Parallel),
            Measure::CoverTime,
        ] {
            let mut out = vec![f64::NAN; m.stat_names().len()];
            let mut rng = Xoshiro256pp::new(1);
            m.run_trial(&cell, &cfg, &mut out, &mut rng).unwrap();
            assert!(out.iter().all(|x| x.is_finite()), "{m:?}: {out:?}");
        }
    }

    #[test]
    fn shape_measure_requires_square_torus() {
        let cell = FamilySpec::explicit(Family::Complete, 16)
            .resolve()
            .unwrap();
        let mut out = [0.0; 6];
        let mut rng = Xoshiro256pp::new(1);
        // complete(16) has n = 16 = 4², so it passes the square check and
        // simply measures a (degenerate) shape; a non-square n must error
        let cell9 = FamilySpec::explicit(Family::Complete, 15)
            .resolve()
            .unwrap();
        let err = Measure::TorusShapeHalfFill
            .run_trial(&cell9, &ProcessConfig::simple(), &mut out, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CellError::Invalid(_)));
        drop(cell);
    }

    #[test]
    fn cover_time_visits_everything() {
        let cell = FamilySpec::explicit(Family::Cycle, 24).resolve().unwrap();
        let mut out = [0.0];
        let mut rng = Xoshiro256pp::new(5);
        Measure::CoverTime
            .run_trial(&cell, &ProcessConfig::simple(), &mut out, &mut rng)
            .unwrap();
        // covering a 24-cycle needs at least n - 1 steps
        assert!(out[0] >= 23.0);
    }

    #[test]
    fn cover_time_cap_surfaces_as_error() {
        let cell = FamilySpec::explicit(Family::Cycle, 64).resolve().unwrap();
        let mut out = [0.0];
        let mut rng = Xoshiro256pp::new(5);
        let err = Measure::CoverTime
            .run_trial(
                &cell,
                &ProcessConfig::simple().with_cap(3),
                &mut out,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CellError::Engine(EngineError::StepCapExceeded { .. })
        ));
    }

    #[test]
    fn master_seed_override_and_derivation() {
        let mut spec = ExperimentSpec::new(9);
        let a = spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 16),
                Measure::Dispersion(Process::Sequential),
            )
            .master_seed(1234),
        );
        let b = spec.push(CellSpec::new(
            FamilySpec::explicit(Family::Complete, 16),
            Measure::Dispersion(Process::Parallel),
        ));
        assert_eq!(spec.master_seed(a), 1234);
        assert_ne!(spec.master_seed(b), spec.master_seed(a));
        // derived seeds depend on the spec seed
        let spec2 = ExperimentSpec {
            seed: 10,
            ..spec.clone()
        };
        assert_eq!(spec2.master_seed(a), 1234, "override survives seed change");
        assert_ne!(spec2.master_seed(b), spec.master_seed(b));
    }

    #[test]
    fn cell_keys_fingerprint_the_cell() {
        let mut spec = ExperimentSpec::new(1);
        let a = spec.push(CellSpec::new(
            FamilySpec::explicit(Family::Cycle, 32),
            Measure::Dispersion(Process::Sequential),
        ));
        let b = spec.push(CellSpec::new(
            FamilySpec::explicit(Family::Cycle, 32),
            Measure::Dispersion(Process::Parallel),
        ));
        assert_ne!(spec.cell_key(a), spec.cell_key(b));
        assert!(spec.cell_key(a).contains("cycle:n32:seq:explicit:t100"));
    }

    #[test]
    fn budget_labels() {
        assert_eq!(Budget::Trials(40).label(), "t40");
        assert_eq!(
            Budget::CiHalfWidth {
                rel: 0.02,
                min_trials: 30,
                max_trials: 10_000
            }
            .label(),
            "ci0.02:30:10000"
        );
    }
}
