//! The dispersion processes: Sequential-, Parallel-, Uniform- and
//! continuous-time IDLA ([`Process`]), plus the generalized stopping rules
//! and §6.2 extensions — all configurations of the schedule-generic
//! [`crate::engine`].
//!
//! [`Process::run`] runs one realization and returns a
//! [`DispersionOutcome`]; [`Process::run_observed`] is the one dispatch from
//! a schedule to an engine run — pass it an [`crate::engine::Observer`]
//! tuple to compose statistics (dispersion time + aggregate shape + phase
//! boundaries in one pass).

pub mod continuous;
pub mod partial;
pub mod stopping;

use crate::engine::observer::TrajectoryBlock;
use crate::engine::schedule::UniformTicks;
use crate::engine::{self, schedule, EngineConfig, EngineError, FirstVacant};
use crate::outcome::DispersionOutcome;
use continuous::sample_gamma_int;
use dispersion_graphs::{Topology, Vertex, WalkKind};
use rand::Rng;

/// Which dispersion process to run. Every process starts `g.n()` particles
/// at a common origin; particle 0 settles there at time 0 and every other
/// particle walks until it first steps on a vacant vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Process {
    /// Sequential-IDLA: particles move one at a time; particle `i+1` starts
    /// only after particle `i` has settled. This is the classical IDLA
    /// protocol of Diaconis–Fulton restricted to a finite graph; on the
    /// complete graph it is exactly the coupon-collector process
    /// (Theorem 5.2: `t_seq(K_n) ∼ κ_cc · n`). Dispersion = the longest
    /// walk, in steps.
    Sequential,
    /// Parallel-IDLA (Sections 1 and 4): all unsettled particles step
    /// simultaneously each round; when several land on the same vacant
    /// vertex in a round, the one with the smallest index settles.
    /// Equivalently (property (4)): reading the realization block in
    /// parallel order, the first occurrence of a vertex ends its row.
    /// Dispersion = rounds until the last particle settles, which equals
    /// the longest walk since every unsettled particle moves every round.
    Parallel,
    /// Uniform-IDLA (Section 4.2): at each tick a uniformly random particle
    /// of `{1, …, n−1}` moves and settles if it lands on a vacant vertex;
    /// ticks that pick an already-settled particle are no-ops but still
    /// count. Dispersion = the global tick of the last settle
    /// (`settle_tick`), not the longest row.
    ///
    /// Plain runs use the event-driven [`schedule::Uniform`], which samples
    /// the geometric no-op gap instead of simulating `Θ(n · t_par)` no-op
    /// ticks — same law, same tick semantics. Recorded runs
    /// ([`Process::run`] under `record_trajectories`) use the tick-loop
    /// [`UniformTicks`], because the realized schedule `R_t` they return
    /// names the particle of every no-op tick.
    Uniform,
    /// Continuous-time Uniform IDLA (CTU-IDLA, Section 4.3): every particle
    /// carries a rate-1 exponential clock and moves when it rings, until it
    /// settles. Simulated by superposition: with `k` unsettled particles the
    /// next relevant ring arrives after an `Exp(k)` delay and belongs to a
    /// uniform unsettled particle. Dispersion = real time (`time`);
    /// Theorem 4.8: `τ_c-unif = τ_par (1 + o(1))`.
    Ctu,
    /// Continuous-time Sequential-IDLA (Section 4.3): the sequential
    /// process with jump times given by a unit-rate Poisson process, so a
    /// particle that makes `ρ` jumps settles at a `Gamma(ρ, 1)` time on its
    /// own clock. Dispersion = the largest such time (`time`).
    ContinuousSequential,
}

impl Process {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Process::Sequential => "seq",
            Process::Parallel => "par",
            Process::Uniform => "unif",
            Process::Ctu => "ctu",
            Process::ContinuousSequential => "cseq",
        }
    }

    /// All five scheduler variants, in Table 1 order.
    pub fn all() -> [Process; 5] {
        [
            Process::Sequential,
            Process::Parallel,
            Process::Uniform,
            Process::Ctu,
            Process::ContinuousSequential,
        ]
    }

    /// Runs one realization with `g.n()` particles from `origin` and
    /// returns its [`DispersionOutcome`], with the realization block (and,
    /// for Uniform, the timing array and realized schedule) attached when
    /// `cfg.record_trajectories` is set.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires
    /// (e.g. on a disconnected graph).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is out of range.
    pub fn run<T: Topology + ?Sized, R: Rng + ?Sized>(
        self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        rng: &mut R,
    ) -> Result<DispersionOutcome, EngineError> {
        let mut traj = cfg.record_trajectories.then(|| match self {
            Process::Uniform => TrajectoryBlock::with_timing(),
            _ => TrajectoryBlock::new(),
        });
        let out = if self == Process::Uniform && traj.is_some() {
            engine::run(
                g,
                &mut UniformTicks::new(g.n()),
                &FirstVacant,
                &EngineConfig::full(g, origin, cfg),
                &mut traj,
                rng,
            )?
        } else {
            self.run_observed(g, origin, cfg, &mut traj, rng)?
        };
        let (block, timed, schedule) = match traj.map(TrajectoryBlock::into_parts) {
            Some((block, timed, schedule)) => (Some(block), timed, schedule),
            None => (None, None, None),
        };
        Ok(DispersionOutcome {
            settle_tick: out.settle_tick,
            time: out.time,
            timed,
            schedule,
            ..DispersionOutcome::new(origin, out.steps, out.settled_at, block)
        })
    }

    /// Runs one realization through the engine with the observer `obs`
    /// attached, returning the raw [`engine::EngineOutcome`].
    ///
    /// Generic over the graph backend: pass a `&Graph` or one of the
    /// implicit `dispersion_graphs::topology` families — the engine
    /// monomorphises per backend, so implicit runs never materialise an
    /// adjacency.
    ///
    /// This is the composition point: pass `&mut (&mut time, &mut shape)`
    /// to measure several statistics in a single pass.
    ///
    /// For [`Process::ContinuousSequential`] the jump sequence is the
    /// discrete sequential run (that is what observers see); the outcome's
    /// `time` field carries the per-particle `Gamma(ρ, 1)` Poisson-clock
    /// settle time, sampled after the walk.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StepCapExceeded`] when the safety cap fires.
    pub fn run_observed<T: Topology + ?Sized, O: engine::Observer, R: Rng + ?Sized>(
        self,
        g: &T,
        origin: Vertex,
        cfg: &ProcessConfig,
        obs: &mut O,
        rng: &mut R,
    ) -> Result<engine::EngineOutcome, EngineError> {
        let ecfg = EngineConfig::full(g, origin, cfg);
        match self {
            Process::Sequential => engine::run(
                g,
                &mut schedule::Sequential::new(),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::ContinuousSequential => {
                let mut out = engine::run(
                    g,
                    &mut schedule::Sequential::new(),
                    &FirstVacant,
                    &ecfg,
                    obs,
                    rng,
                )?;
                out.time = out
                    .steps
                    .iter()
                    .map(|&rho| sample_gamma_int(rho, rng))
                    .fold(0.0, f64::max);
                Ok(out)
            }
            Process::Parallel => engine::run(
                g,
                &mut schedule::Parallel::new(),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::Uniform => engine::run(
                g,
                &mut schedule::Uniform::new(g.n()),
                &FirstVacant,
                &ecfg,
                obs,
                rng,
            ),
            Process::Ctu => {
                engine::run(g, &mut schedule::Ctu::new(), &FirstVacant, &ecfg, obs, rng)
            }
        }
    }

    /// Extracts this process's dispersion time, in its native unit, from
    /// a finished [`engine::EngineOutcome`] (steps for Sequential, rounds
    /// for Parallel, global ticks for Uniform, real time for the
    /// continuous clocks).
    pub fn dispersion_of(self, out: &engine::EngineOutcome) -> f64 {
        match self {
            Process::Sequential | Process::Parallel => out.dispersion_time() as f64,
            Process::Uniform => out.settle_tick as f64,
            Process::Ctu | Process::ContinuousSequential => out.time,
        }
    }
}

/// Shared configuration of a dispersion-process run.
#[derive(Clone, Copy, Debug)]
pub struct ProcessConfig {
    /// Walk variant the particles perform.
    pub walk: WalkKind,
    /// Whether to record full trajectories (needed for the Cut & Paste
    /// machinery; costs memory proportional to the total number of steps).
    /// Implemented by attaching a
    /// [`crate::engine::observer::TrajectoryBlock`] observer; runs that
    /// don't record stream statistics instead of materialising state.
    pub record_trajectories: bool,
    /// Safety cap on the *total* number of ticks across all particles; a run
    /// exceeding it returns [`crate::engine::EngineError::StepCapExceeded`]
    /// (catches schedulers that cannot terminate).
    pub step_cap: u64,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            walk: WalkKind::Simple,
            record_trajectories: false,
            step_cap: 1 << 44,
        }
    }
}

impl ProcessConfig {
    /// Simple walk, no recording.
    pub fn simple() -> Self {
        Self::default()
    }

    /// Lazy walk, no recording.
    pub fn lazy() -> Self {
        ProcessConfig {
            walk: WalkKind::Lazy,
            ..Self::default()
        }
    }

    /// Enables trajectory recording.
    pub fn recording(mut self) -> Self {
        self.record_trajectories = true;
        self
    }

    /// Overrides the step cap.
    pub fn with_cap(mut self, cap: u64) -> Self {
        self.step_cap = cap;
        self
    }

    /// Accepts and ignores a walker-thread count. Every run is serial
    /// within one trial; trials and cells parallelise across the
    /// `dispersion_sim` runner. Kept only for callers that still pass it.
    pub fn with_walker_threads(self, _threads: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::validate::{
        has_distinct_endpoints, is_parallel_block, is_sequential_block, rows_are_walks,
    };
    use crate::block::{parallel_to_uniform, sequential_to_parallel};
    use dispersion_graphs::generators::{complete, cycle, path, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_process_labels_distinct() {
        let ps = Process::all();
        let mut labels: Vec<_> = ps.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ps.len());
    }

    #[test]
    fn observers_compose_through_process() {
        use crate::engine::observer::{DispersionTime, Odometer};
        let g = complete(32);
        let mut rng = StdRng::seed_from_u64(4);
        let mut time = DispersionTime::default();
        let mut odo = Odometer::default();
        let out = Process::Parallel
            .run_observed(
                &g,
                0,
                &ProcessConfig::simple(),
                &mut (&mut time, &mut odo),
                &mut rng,
            )
            .unwrap();
        assert_eq!(time.max_steps, out.dispersion_time());
        assert_eq!(odo.steps, out.total_steps);
    }

    #[test]
    fn presets() {
        assert_eq!(ProcessConfig::simple().walk, WalkKind::Simple);
        assert_eq!(ProcessConfig::lazy().walk, WalkKind::Lazy);
        assert!(ProcessConfig::simple().recording().record_trajectories);
        assert_eq!(ProcessConfig::simple().with_cap(42).step_cap, 42);
    }

    #[test]
    fn every_process_records_a_consistent_block() {
        // Recording attaches a block under every schedule without changing
        // the run, except Uniform, which switches to the tick loop.
        let g = cycle(10);
        for p in Process::all() {
            let rec = p
                .run(
                    &g,
                    0,
                    &ProcessConfig::simple().recording(),
                    &mut StdRng::seed_from_u64(11),
                )
                .unwrap();
            assert!(rec.block.is_some(), "{p:?}: no block");
            assert!(rec.consistent_with_block(), "{p:?}: block disagrees");
            assert_eq!(rec.timed.is_some(), p == Process::Uniform, "{p:?}");
            assert_eq!(rec.schedule.is_some(), p == Process::Uniform, "{p:?}");
            if p != Process::Uniform {
                let plain = p
                    .run(
                        &g,
                        0,
                        &ProcessConfig::simple(),
                        &mut StdRng::seed_from_u64(11),
                    )
                    .unwrap();
                assert!(plain.block.is_none());
                assert_eq!(rec.steps, plain.steps, "{p:?}");
                assert_eq!(rec.settled_at, plain.settled_at, "{p:?}");
            }
        }
    }

    #[test]
    fn covers_every_vertex_exactly_once() {
        for (p, n, origin) in [
            (Process::Sequential, 12, 3),
            (Process::Parallel, 11, 5),
            (Process::Uniform, 10, 0),
        ] {
            let g = cycle(n);
            let o = p
                .run(
                    &g,
                    origin,
                    &ProcessConfig::simple(),
                    &mut StdRng::seed_from_u64(1),
                )
                .unwrap();
            let mut settled = o.settled_at.clone();
            settled.sort_unstable();
            assert_eq!(settled, (0..n as u32).collect::<Vec<_>>(), "{p:?}");
            assert_eq!(o.steps[0], 0);
            assert_eq!(o.settled_at[0], origin);
        }
    }

    #[test]
    fn cap_returns_error() {
        for (p, cap) in [(Process::Sequential, 16), (Process::Uniform, 8)] {
            let err = p
                .run(
                    &cycle(64),
                    0,
                    &ProcessConfig::simple().with_cap(cap),
                    &mut StdRng::seed_from_u64(8),
                )
                .unwrap_err();
            assert!(matches!(err, EngineError::StepCapExceeded { cap: c, .. } if c == cap));
        }
    }

    #[test]
    fn sequential_recorded_block_is_valid() {
        let g = complete(8);
        let mut rng = StdRng::seed_from_u64(2);
        let o = Process::Sequential
            .run(&g, 0, &ProcessConfig::simple().recording(), &mut rng)
            .unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(is_sequential_block(b));
        assert!(rows_are_walks(b, &g, false));
        assert!(o.consistent_with_block());
    }

    #[test]
    fn sequential_lazy_block_allows_stays() {
        let g = path(6);
        let mut rng = StdRng::seed_from_u64(3);
        let o = Process::Sequential
            .run(&g, 0, &ProcessConfig::lazy().recording(), &mut rng)
            .unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(is_sequential_block(b));
        assert!(rows_are_walks(b, &g, true));
    }

    #[test]
    fn star_walks_have_odd_lengths() {
        // On the star from the centre the first mover settles a leaf in one
        // step; occupied leaves force leaf-centre-leaf returns, so every
        // walk has odd length.
        for p in [Process::Sequential, Process::Parallel] {
            let o = p
                .run(
                    &star(6),
                    0,
                    &ProcessConfig::simple(),
                    &mut StdRng::seed_from_u64(4),
                )
                .unwrap();
            assert_eq!(o.steps[1], 1, "{p:?}");
            for i in 1..6 {
                assert_eq!(
                    o.steps[i] % 2,
                    1,
                    "{p:?}: particle {i} steps {}",
                    o.steps[i]
                );
            }
        }
    }

    #[test]
    fn sequential_path_from_endpoint_fills_in_order() {
        // From endpoint 0 of a path, particle i must settle at vertex i
        // (each walk's first visit to a vacant vertex is the next vertex
        // right of the filled prefix) after at least i steps.
        let g = path(6);
        let mut rng = StdRng::seed_from_u64(5);
        let o = Process::Sequential
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        for (i, &v) in o.settled_at.iter().enumerate() {
            assert_eq!(v as usize, i);
            assert!(o.steps[i] >= i as u64);
        }
    }

    #[test]
    fn dispersion_time_is_max() {
        let g = complete(10);
        let mut rng = StdRng::seed_from_u64(6);
        let o = Process::Sequential
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        assert_eq!(o.dispersion_time, *o.steps.iter().max().unwrap());
        assert_eq!(o.total_steps, o.steps.iter().sum::<u64>());
        assert_eq!(o.settle_tick, o.total_steps);
    }

    #[test]
    fn sequential_tree_lower_bound_theorem_3_7() {
        // t_seq(T) >= 2n - 3 in expectation for trees; check the mean over
        // a few runs is comfortably above it.
        let g = star(8);
        let mut rng = StdRng::seed_from_u64(7);
        let total: u64 = (0..200)
            .map(|_| {
                Process::Sequential
                    .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .dispersion_time
            })
            .sum();
        let mean = total as f64 / 200.0;
        assert!(mean >= (2.0 * 8.0 - 3.0) * 0.7, "mean {mean}");
    }

    #[test]
    fn sequential_works_on_lazified_graph() {
        // Theorem 4.3's G̃: simple walk on lazified graph == lazy walk on G.
        let g = cycle(8).lazified();
        let mut rng = StdRng::seed_from_u64(9);
        let o = Process::Sequential
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        assert_eq!(o.n(), 8);
    }

    #[test]
    fn parallel_recorded_block_is_valid() {
        let g = complete(9);
        let mut rng = StdRng::seed_from_u64(2);
        let o = Process::Parallel
            .run(&g, 0, &ProcessConfig::simple().recording(), &mut rng)
            .unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(is_parallel_block(b));
        assert!(rows_are_walks(b, &g, false));
        assert!(o.consistent_with_block());
    }

    #[test]
    fn parallel_first_mover_settles_in_round_one() {
        // Unsettled particles move every round, so a particle's step count
        // equals the round it settled in; on the clique the first move of
        // round 1 always finds a vacant vertex.
        let g = complete(12);
        let mut rng = StdRng::seed_from_u64(3);
        let o = Process::Parallel
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        assert_eq!(o.steps[1], 1);
    }

    #[test]
    fn parallel_dominates_sequential_in_the_mean() {
        // Theorem 4.1: τ_seq ⪯ τ_par, so means must be ordered (statistical
        // check with a comfortable margin).
        let g = complete(24);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 400;
        let mut seq_total = 0u64;
        let mut par_total = 0u64;
        for _ in 0..trials {
            seq_total += Process::Sequential
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
            par_total += Process::Parallel
                .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                .unwrap()
                .dispersion_time;
        }
        let seq_mean = seq_total as f64 / trials as f64;
        let par_mean = par_total as f64 / trials as f64;
        assert!(
            par_mean > seq_mean * 0.95,
            "par {par_mean} should dominate seq {seq_mean}"
        );
    }

    #[test]
    fn parallel_path_settles_left_to_right() {
        let g = path(7);
        let mut rng = StdRng::seed_from_u64(6);
        let o = Process::Parallel
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        // from endpoint 0 the aggregate is always a prefix, so particle
        // settle vertices, sorted by settle round, are increasing
        let mut order: Vec<usize> = (0..7).collect();
        order.sort_by_key(|&i| o.steps[i]);
        let settle_positions: Vec<u32> = order.iter().map(|&i| o.settled_at[i]).collect();
        for w in settle_positions.windows(2) {
            assert!(
                w[0] < w[1],
                "settle order not monotone: {settle_positions:?}"
            );
        }
    }

    #[test]
    fn parallel_total_steps_on_clique() {
        // The mean total steps matches the sequential process's total steps
        // distribution (Theorem 4.1) ≈ n·H_{n-1} on the clique (coupon
        // collector total); crude sanity bound here.
        let n = 16usize;
        let g = complete(n);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 300;
        let total: u64 = (0..trials)
            .map(|_| {
                Process::Parallel
                    .run(&g, 0, &ProcessConfig::simple(), &mut rng)
                    .unwrap()
                    .total_steps
            })
            .sum();
        let mean = total as f64 / trials as f64;
        let hn: f64 = (1..n).map(|k| 1.0 / k as f64).sum();
        let expect = (n - 1) as f64 * hn;
        assert!(
            (mean - expect).abs() < 0.15 * expect,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn uniform_ticks_dominate_steps() {
        // every jump consumes a tick, and no-op ticks only add
        let g = complete(12);
        let mut rng = StdRng::seed_from_u64(2);
        let o = Process::Uniform
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        assert!(o.settle_tick >= o.total_steps);
    }

    #[test]
    fn uniform_recorded_block_transforms_to_valid_parallel() {
        // Theorem 4.7: StP applied to a uniform block (oblivious to R)
        // yields a valid parallel block.
        let g = star(8);
        let mut rng = StdRng::seed_from_u64(3);
        let o = Process::Uniform
            .run(&g, 0, &ProcessConfig::simple().recording(), &mut rng)
            .unwrap();
        let b = o.block.as_ref().unwrap();
        assert!(has_distinct_endpoints(b));
        assert!(rows_are_walks(b, &g, false));
        let p = sequential_to_parallel(b);
        assert!(is_parallel_block(&p));
        assert_eq!(p.total_length(), b.total_length());
    }

    #[test]
    fn uniform_timing_array_consistent() {
        let g = cycle(8);
        let mut rng = StdRng::seed_from_u64(4);
        let o = Process::Uniform
            .run(&g, 0, &ProcessConfig::simple().recording(), &mut rng)
            .unwrap();
        let timed = o.timed.as_ref().unwrap();
        for (tr, rr) in timed.times.iter().zip(timed.block.rows()) {
            assert_eq!(tr.len(), rr.len());
            for w in tr.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
        assert_eq!(timed.settle_tick(), o.settle_tick);
    }

    #[test]
    fn uniform_theorem_4_7_full_bijection_roundtrip() {
        // StP forgets the schedule; PtU_R with the recorded schedule must
        // reconstruct the exact uniform realization (rows AND times).
        for seed in 0..8 {
            let g = cycle(9);
            let mut rng = StdRng::seed_from_u64(seed);
            let o = Process::Uniform
                .run(&g, 0, &ProcessConfig::simple().recording(), &mut rng)
                .unwrap();
            let timed = o.timed.as_ref().unwrap();
            let schedule = o.schedule.as_ref().unwrap();
            let par = sequential_to_parallel(&timed.block);
            let rebuilt = parallel_to_uniform(&par, schedule.iter().copied());
            assert_eq!(rebuilt.block, timed.block, "rows differ (seed {seed})");
            assert_eq!(rebuilt.times, timed.times, "times differ (seed {seed})");
        }
    }

    #[test]
    fn uniform_single_vertex_graph() {
        let g = cycle(1);
        let mut rng = StdRng::seed_from_u64(5);
        let o = Process::Uniform
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap();
        assert_eq!(o.settle_tick, 0);
        assert_eq!(o.dispersion_time, 0);
    }
}
