//! The [`Schedule`] trait — *who moves this tick* — and the scheduler state
//! machines of the paper's process variants.
//!
//! A schedule never touches the particle arrays itself: it reads the
//! engine's [`EngineView`] and emits [`Event`]s; the
//! engine performs the walk step, occupancy update and observer dispatch.
//! This is what makes the five historical `process/*.rs` loops collapse
//! into one: the only thing that ever differed between them is the order
//! in which particles are granted moves.
//!
//! # Event-driven no-op skipping
//!
//! The paper's Uniform process (§4.2) draws from *all* particles each
//! tick, so `Θ(n · t_par)` ticks hit an already-settled particle and do
//! nothing. The law of the process only depends on which *active* particle
//! moves next and on how many ticks elapse in between — so [`Uniform`]
//! samples the geometric gap to the next active-particle tick directly
//! (one inverse-CDF draw, [`geometric_noops_from_u`]) and emits a single
//! [`Event::Jump`] per real move. The tick-by-tick loop survives as
//! [`UniformTicks`] for the statistical-equivalence suite
//! (`crates/core/tests/schedule_equivalence.rs`) and for trajectory
//! recording, which materialises the realized schedule `R_t` and is
//! therefore `Θ(ticks)` regardless.
//!
//! [`Ctu`] has always been event-driven (superposition: the next relevant
//! ring is `Exp(k)` for `k` active clocks); [`CtuClocks`] is the literal
//! §4.3 process — one exponential clock per walker, kept in a shrinking
//! lazily-pruned min-heap — retained as its cross-implementation twin.

use super::EngineView;
use rand::{Rng, RngExt};

/// One scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// The particle `pid` performs one walk step; real (clock) time advances
    /// by `dt` (0 for discrete-time schedules).
    Step {
        /// Particle index granted the move.
        pid: usize,
        /// Real-time advance accompanying the move (CTU exponential delay).
        dt: f64,
    },
    /// A tick is consumed but nobody moves (the tick-loop Uniform schedule
    /// drew an already-settled particle).
    Noop {
        /// The settled particle the schedule drew.
        pid: usize,
    },
    /// Event-driven skip-and-move: `noops` no-op ticks are consumed in one
    /// jump (the engine advances its tick odometer and fires a single
    /// [`super::Observer::on_skip`]), then particle `pid` performs one walk
    /// step exactly where the tick loop would have granted it.
    Jump {
        /// No-op ticks skipped before the move.
        noops: u64,
        /// Particle index granted the move.
        pid: usize,
        /// Real-time advance accompanying the move.
        dt: f64,
    },
    /// Round boundary (Parallel schedule): the engine compacts settled
    /// particles out of the active list and notifies observers.
    NewRound,
}

/// How settled particles leave the engine's active list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Removal {
    /// Swap-remove at settle time (O(1); scrambles order — fine for
    /// schedules that draw uniformly).
    Immediate,
    /// Leave in place until the next [`Event::NewRound`] compaction
    /// (preserves ascending order for the Parallel tie-breaking scan).
    AtRoundEnd,
}

/// Whether particles are placed at their origins up front or on first move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnMode {
    /// All particles placed before the first tick (Parallel/Uniform/CTU:
    /// everyone exists from time 0).
    Eager,
    /// A particle is placed when the schedule first selects it (Sequential:
    /// particle `i+1` enters only after particle `i` settled — required for
    /// random-origin runs, where the origin draw must see the up-to-date
    /// occupancy).
    Lazy,
}

/// A scheduler: decides who moves at every tick of a dispersion run.
pub trait Schedule {
    /// Short name used in error messages and throughput tables.
    fn label(&self) -> &'static str;

    /// Validates the schedule against the run's particle count, called
    /// once before the first tick. Schedules with internal sizing (e.g.
    /// [`Uniform`]) panic here with a configuration message instead of
    /// failing later with an opaque index error.
    fn check_particles(&self, particles: usize) {
        let _ = particles;
    }

    /// The next event. Called only while unsettled particles remain.
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event;

    /// Active-list removal policy (default: swap-remove on settle).
    fn removal(&self) -> Removal {
        Removal::Immediate
    }

    /// Spawn policy (default: everyone placed up front).
    fn spawn_mode(&self) -> SpawnMode {
        SpawnMode::Eager
    }
}

/// Sequential-IDLA: the lowest-index unsettled particle moves every tick;
/// particle `i+1` starts only after particle `i` has settled.
#[derive(Clone, Debug, Default)]
pub struct Sequential {
    current: usize,
}

impl Sequential {
    /// Fresh schedule starting from particle 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Schedule for Sequential {
    fn label(&self) -> &'static str {
        "sequential"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, _rng: &mut R) -> Event {
        while self.current < view.settled.len() && view.settled[self.current] {
            self.current += 1;
        }
        Event::Step {
            pid: self.current,
            dt: 0.0,
        }
    }

    fn spawn_mode(&self) -> SpawnMode {
        SpawnMode::Lazy
    }
}

/// Parallel-IDLA: every unsettled particle moves once per round, scanned in
/// ascending index order so that simultaneous arrivals at a vacant vertex
/// settle the smallest index (Section 1 / property (4)).
#[derive(Clone, Debug, Default)]
pub struct Parallel {
    cursor: usize,
}

impl Parallel {
    /// Fresh schedule at the start of round 1.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Schedule for Parallel {
    fn label(&self) -> &'static str {
        "parallel"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, _rng: &mut R) -> Event {
        if self.cursor >= view.active.len() {
            self.cursor = 0;
            return Event::NewRound;
        }
        let pid = view.active[self.cursor];
        self.cursor += 1;
        Event::Step { pid, dt: 0.0 }
    }

    fn removal(&self) -> Removal {
        Removal::AtRoundEnd
    }
}

/// Uniform-IDLA (Section 4.2), event-driven: each tick of the process draws
/// a particle uniformly from *all* of `{1, …, n−1}`, and drawing a settled
/// particle is a no-op tick — but instead of simulating those no-ops one by
/// one, this schedule samples the geometric gap to the next tick that hits
/// an *active* particle and emits a single [`Event::Jump`].
///
/// Law equivalence with the tick loop ([`UniformTicks`]): with `a` active
/// particles among the `m = n − 1` drawable ones, the number of no-op ticks
/// before the next hit is `Geom₀(a/m)` and, conditional on a hit, the mover
/// is uniform among the actives. Each move consumes exactly one gap draw
/// `u` (mapped through [`geometric_noops_from_u`]) followed by one uniform
/// slot draw, so a trial is bit-reproducible from its RNG stream; the
/// engine's tick odometer advances across the gap, so `settle_tick` /
/// `clock.ticks` semantics are identical to the tick loop's.
#[derive(Clone, Debug)]
pub struct Uniform {
    n: usize,
    /// Active count the cached values below correspond to (`usize::MAX` =
    /// none yet). Refreshed only when a settle changes the active count —
    /// the hot path then runs division-free.
    cached_a: usize,
    /// Hit probability `a/m` for `cached_a`.
    cached_p: f64,
    /// `1 / ln(1 − a/m)` for `cached_a`.
    cached_inv_ln_q: f64,
}

impl Uniform {
    /// Schedule over `n` particles (`R_t` draws from `1..n`; particle 0
    /// holds the origin).
    pub fn new(n: usize) -> Self {
        Uniform {
            n,
            cached_a: usize::MAX,
            cached_p: f64::NAN,
            cached_inv_ln_q: f64::NAN,
        }
    }
}

impl Schedule for Uniform {
    fn label(&self) -> &'static str {
        "uniform"
    }

    fn check_particles(&self, particles: usize) {
        assert_eq!(
            self.n, particles,
            "Uniform schedule draws over {} particles but the run has {particles}",
            self.n
        );
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        let a = view.active.len();
        if a != self.cached_a {
            let m = self.n - 1;
            self.cached_a = a;
            self.cached_p = a as f64 / m as f64;
            self.cached_inv_ln_q = (1.0 - self.cached_p).ln().recip();
        }
        // same arithmetic as `geometric_noops_from_u(p, u)`, with `p` and
        // `1/ln(1 − p)` cached per active count (they only change on
        // settles), so the hot path is division-free
        let u: f64 = rng.random();
        let noops = if u < self.cached_p {
            0
        } else {
            ((1.0 - u).ln() * self.cached_inv_ln_q) as u64
        };
        // widening-multiply uniform index (Lemire): one u64 draw, no
        // division. Bias is < a/2⁶⁴ (< 2⁻⁵⁴ even at a million actives) —
        // far below anything the equivalence gates could resolve, and the
        // slot draw stays a pure function of the trial's RNG stream.
        let slot = ((rng.random::<u64>() as u128 * a as u128) >> 64) as usize;
        Event::Jump {
            noops,
            pid: view.active[slot],
            dt: 0.0,
        }
    }
}

/// The tick-by-tick Uniform-IDLA loop: every tick draws from all of
/// `{1, …, n−1}` and settled draws are explicit [`Event::Noop`]s.
///
/// Retained for two purposes only — production paths use the event-driven
/// [`Uniform`]:
///
/// * the statistical-equivalence suite
///   (`crates/core/tests/schedule_equivalence.rs`) cross-validates the
///   event-driven sampler against this reference implementation;
/// * trajectory recording with the realized schedule `R_t`
///   ([`crate::engine::observer::TrajectoryBlock::with_timing`], the
///   Theorem 4.7 bijection) needs the identity of every no-op draw, which
///   is `Θ(ticks)` to materialise no matter how the engine runs.
#[derive(Clone, Debug)]
pub struct UniformTicks {
    n: usize,
}

impl UniformTicks {
    /// Tick-loop schedule over `n` particles.
    pub fn new(n: usize) -> Self {
        UniformTicks { n }
    }
}

impl Schedule for UniformTicks {
    fn label(&self) -> &'static str {
        "uniform-ticks"
    }

    fn check_particles(&self, particles: usize) {
        assert_eq!(
            self.n, particles,
            "Uniform schedule draws over {} particles but the run has {particles}",
            self.n
        );
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        let pid = if self.n > 1 {
            rng.random_range(1..self.n)
        } else {
            0
        };
        if view.settled[pid] {
            Event::Noop { pid }
        } else {
            Event::Step { pid, dt: 0.0 }
        }
    }
}

/// Continuous-time Uniform IDLA (Section 4.3): every unsettled particle
/// carries a rate-1 exponential clock; by superposition the next ring
/// arrives after an `Exp(k)` delay and belongs to a uniform unsettled
/// particle. Already event-driven: rings of settled particles are never
/// simulated, so cost is O(1) per real move.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctu;

impl Ctu {
    /// Fresh CTU schedule.
    pub fn new() -> Self {
        Ctu
    }
}

impl Schedule for Ctu {
    fn label(&self) -> &'static str {
        "ctu"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        let k = view.active.len();
        let dt = sample_exponential(k as f64, rng);
        let slot = rng.random_range(0..k);
        Event::Step {
            pid: view.active[slot],
            dt,
        }
    }
}

/// The literal §4.3 CTU process: one rate-1 exponential clock *per walker*,
/// kept in a min-heap over (next ring time, pid) that shrinks as walkers
/// settle — rings of settled walkers are lazily pruned when they surface at
/// the heap top, never rescheduled. Equivalent in law to the superposition
/// [`Ctu`] by memorylessness; retained as its cross-implementation twin for
/// the statistical-equivalence suite (each move costs `O(log k)` against
/// superposition's `O(1)`, so production paths use [`Ctu`]).
///
/// Clocks are primed on the first call, in ascending pid order over the
/// initial active list, so a trial is bit-reproducible from its RNG stream.
#[derive(Clone, Debug, Default)]
pub struct CtuClocks {
    /// Min-heap of `(next ring time, pid)`, ordered by time then pid.
    heap: Vec<(f64, usize)>,
    /// Absolute time of the last granted move.
    now: f64,
    primed: bool,
}

impl CtuClocks {
    /// Fresh per-walker-clock CTU schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of clocks resident in the heap (active walkers plus
    /// not-yet-pruned settled rings).
    pub fn clocks(&self) -> usize {
        self.heap.len()
    }

    fn less(a: (f64, usize), b: (f64, usize)) -> bool {
        a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    fn push(&mut self, t: f64, pid: usize) {
        self.heap.push((t, pid));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::less(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let top = self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < n && Self::less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < n && Self::less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
        top
    }
}

impl Schedule for CtuClocks {
    fn label(&self) -> &'static str {
        "ctu-clocks"
    }

    #[inline]
    fn next<R: Rng + ?Sized>(&mut self, view: &EngineView<'_>, rng: &mut R) -> Event {
        if !self.primed {
            self.primed = true;
            self.heap.reserve(view.active.len());
            // prime in ascending pid order (the initial active list is the
            // ascending spawn order) for a deterministic draw sequence
            for &pid in view.active {
                let t = sample_exponential(1.0, rng);
                self.push(t, pid);
            }
        }
        loop {
            let (t, pid) = self
                .pop()
                // LINT: engine-no-panic-ok — invariant: every unsettled
                // particle keeps exactly one pending clock ring in the heap
                .expect("clock heap empty with unsettled particles");
            if view.settled[pid] {
                // lazily prune a settled walker's pending ring
                continue;
            }
            let dt = t - self.now;
            self.now = t;
            self.push(t + sample_exponential(1.0, rng), pid);
            return Event::Step { pid, dt };
        }
    }
}

/// Samples `Exp(rate)`.
#[inline]
pub fn sample_exponential<R: Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.random::<f64>();
    // map u in [0,1) to (0,1] to avoid ln(0)
    -(1.0 - u).ln() / rate
}

/// Inverse-CDF map from one uniform draw `u ∈ [0, 1)` to the number of
/// failures before the first success of a Bernoulli(`p`) sequence —
/// `Geom₀(p)`, `P(X = j) = (1 − p)^j · p`.
///
/// This is the exact no-op-gap law of the Uniform schedule: with hit
/// probability `p = active/m` per tick, `X` is the number of no-op ticks
/// skipped before the next real move. The `u < p` branch is a fast path of
/// the same formula (it avoids the logarithms exactly when the floor would
/// be 0), so the function is a pure one-draw inverse CDF: the event-driven
/// [`Uniform`] schedule applied to a pinned u-stream reproduces it
/// bit-for-bit. The quotient is computed as a multiplication by
/// `1/ln(1 − p)` — the exact operation sequence of the schedule's hot
/// path, whose cached reciprocal must stay bit-identical to this function.
#[inline]
pub fn geometric_noops_from_u(p: f64, u: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0, "hit probability {p} out of (0, 1]");
    debug_assert!((0.0..1.0).contains(&u), "uniform draw {u} out of [0, 1)");
    if u < p {
        0
    } else {
        // u ≥ p implies p < 1, so the denominator is finite and negative;
        // the cast truncates toward zero = floor for non-negative values
        ((1.0 - u).ln() * (1.0 - p).ln().recip()) as u64
    }
}

/// Samples `Geom₀(p)` — the no-op gap before the next active-particle tick
/// of the Uniform schedule — consuming exactly one `f64` draw.
#[inline]
pub fn sample_geometric_noops<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    geometric_noops_from_u(p, rng.random::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn policies_match_paper_semantics() {
        assert_eq!(Sequential::new().spawn_mode(), SpawnMode::Lazy);
        assert_eq!(Sequential::new().removal(), Removal::Immediate);
        assert_eq!(Parallel::new().removal(), Removal::AtRoundEnd);
        assert_eq!(Parallel::new().spawn_mode(), SpawnMode::Eager);
        assert_eq!(Uniform::new(4).removal(), Removal::Immediate);
        assert_eq!(UniformTicks::new(4).removal(), Removal::Immediate);
        assert_eq!(Ctu::new().removal(), Removal::Immediate);
        assert_eq!(CtuClocks::new().removal(), Removal::Immediate);
    }

    #[test]
    fn labels_distinct() {
        let labels = [
            Sequential::new().label(),
            Parallel::new().label(),
            Uniform::new(2).label(),
            UniformTicks::new(2).label(),
            Ctu::new().label(),
            CtuClocks::new().label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| sample_exponential(2.0, &mut rng))
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn geometric_fast_path_is_the_same_formula() {
        // the u < p branch must agree with the logarithm formula wherever
        // the latter is defined (p < 1): floor < 1 ⟺ u < p
        for p in [0.05_f64, 0.3, 0.5, 0.9, 0.999] {
            for k in 0..1000 {
                let u = k as f64 / 1000.0;
                let direct = ((1.0 - u).ln() * (1.0 - p).ln().recip()) as u64;
                assert_eq!(
                    geometric_noops_from_u(p, u),
                    direct,
                    "p={p} u={u}: fast path diverged"
                );
            }
        }
    }

    #[test]
    fn geometric_certain_hit_never_skips() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            assert_eq!(sample_geometric_noops(1.0, &mut rng), 0);
        }
    }

    #[test]
    fn ctu_clocks_heap_orders_by_time() {
        let mut c = CtuClocks::new();
        for (t, pid) in [(3.0, 1), (1.0, 2), (2.0, 3), (1.0, 1), (0.5, 9)] {
            c.push(t, pid);
        }
        let mut drained = Vec::new();
        while let Some(x) = c.pop() {
            drained.push(x);
        }
        assert_eq!(
            drained,
            vec![(0.5, 9), (1.0, 1), (1.0, 2), (2.0, 3), (3.0, 1)]
        );
    }
}
