//! Engine-level backend equivalence: a fixed-seed dispersion run must
//! produce bit-identical outcomes on the explicit CSR graph and on the
//! implicit topology of the same family, under every schedule.
//!
//! This is stronger than distribution equality — because the implicit
//! families enumerate neighbours in CSR order and the walk primitive
//! consumes the RNG identically, the *same realization* unfolds on both
//! backends. Implicit large-`n` runs are therefore exactly the runs the
//! explicit engine would have produced had the adjacency fit.

use dispersion_core::engine::observer::{DispersionTime, Odometer};
use dispersion_core::engine::{self, schedule, EngineConfig, EngineError, FirstVacant};
use dispersion_core::process::partial::{run_parallel_k, run_sequential_random_origins};
use dispersion_core::process::stopping::{run_sequential_with_rule, DelayedExcept};
use dispersion_core::process::{Process, ProcessConfig};
use dispersion_graphs::generators::{cycle, hypercube, torus2d};
use dispersion_graphs::topology::{Cycle, Hypercube, Lazified, Torus2d};
use dispersion_graphs::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_all_schedules<T: Topology>(t: &T, seed: u64) -> Vec<engine::EngineOutcome> {
    let cfg = ProcessConfig::simple();
    let ecfg = EngineConfig::full(t, 0, &cfg);
    let mut outs = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);
    outs.push(
        engine::run(
            t,
            &mut schedule::Sequential::new(),
            &FirstVacant,
            &ecfg,
            &mut (),
            &mut rng,
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(seed + 1);
    outs.push(
        engine::run(
            t,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &ecfg,
            &mut (),
            &mut rng,
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(seed + 2);
    outs.push(
        engine::run(
            t,
            &mut schedule::Uniform::new(t.n()),
            &FirstVacant,
            &ecfg,
            &mut (),
            &mut rng,
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(seed + 3);
    outs.push(
        engine::run(
            t,
            &mut schedule::Ctu::new(),
            &FirstVacant,
            &ecfg,
            &mut (),
            &mut rng,
        )
        .unwrap(),
    );
    outs
}

fn assert_outcomes_match(a: &[engine::EngineOutcome], b: &[engine::EngineOutcome]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.steps, y.steps);
        assert_eq!(x.settled_at, y.settled_at);
        assert_eq!(x.total_steps, y.total_steps);
        assert_eq!(x.ticks, y.ticks);
        assert_eq!(x.settle_tick, y.settle_tick);
        assert_eq!(x.rounds, y.rounds);
        assert_eq!(x.time, y.time);
    }
}

#[test]
fn every_schedule_identical_on_cycle_backends() {
    let explicit = run_all_schedules(&cycle(49), 11);
    let implicit = run_all_schedules(&Cycle::new(49), 11);
    assert_outcomes_match(&explicit, &implicit);
}

#[test]
fn every_schedule_identical_on_torus_backends() {
    let explicit = run_all_schedules(&torus2d(7), 23);
    let implicit = run_all_schedules(&Torus2d::new(7), 23);
    assert_outcomes_match(&explicit, &implicit);
}

#[test]
fn every_schedule_identical_on_hypercube_backends() {
    let explicit = run_all_schedules(&hypercube(6), 37);
    let implicit = run_all_schedules(&Hypercube::new(6), 37);
    assert_outcomes_match(&explicit, &implicit);
}

#[test]
fn process_wrappers_accept_implicit_backends() {
    let t = Torus2d::new(6);
    let cfg = ProcessConfig::simple();
    let mut rng = StdRng::seed_from_u64(1);
    let o = Process::Sequential.run(&t, 0, &cfg, &mut rng).unwrap();
    let mut settled = o.settled_at.clone();
    settled.sort_unstable();
    assert_eq!(settled, (0..36).collect::<Vec<_>>());

    let o = Process::Parallel.run(&t, 0, &cfg, &mut rng).unwrap();
    assert_eq!(o.n(), 36);

    let o = run_parallel_k(&t, 0, 10, &cfg, &mut rng).unwrap();
    assert_eq!(o.steps.len(), 10);

    let o = run_sequential_random_origins(&t, 36, &cfg, &mut rng).unwrap();
    assert_eq!(o.n(), 36);

    // generalized stopping rules compose with implicit backends too
    let rule = DelayedExcept {
        threshold: 4,
        special: 5,
    };
    let o = run_sequential_with_rule(&t, 0, &rule, &cfg, &mut rng).unwrap();
    assert!(o.settled_at.contains(&5));
}

#[test]
fn lazy_walkkind_equals_lazified_view_distributionally() {
    // Theorem 4.3 plumbing: WalkKind::Lazy on T and a simple walk on
    // Lazified(T) are the same chain; compare dispersion-time means
    let t = Cycle::new(32);
    let trials = 200;
    let mut rng = StdRng::seed_from_u64(9);
    let mut lazy_kind = 0u64;
    let mut lazy_view = 0u64;
    for _ in 0..trials {
        lazy_kind += Process::Sequential
            .run(&t, 0, &ProcessConfig::lazy(), &mut rng)
            .unwrap()
            .dispersion_time;
        lazy_view += Process::Sequential
            .run(&Lazified(t), 0, &ProcessConfig::simple(), &mut rng)
            .unwrap()
            .dispersion_time;
    }
    let ratio = lazy_kind as f64 / lazy_view as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "lazy backends differ: {ratio}"
    );
}

#[test]
fn observers_stream_identically_across_backends() {
    let g = torus2d(8);
    let t = Torus2d::new(8);
    let cfg = ProcessConfig::simple();
    let ecfg = EngineConfig::full(&g, 0, &cfg);
    let run = |topo: &dyn Fn(&mut StdRng) -> (u64, u64, u64)| {
        let mut rng = StdRng::seed_from_u64(77);
        topo(&mut rng)
    };
    let explicit = run(&|rng| {
        let mut time = DispersionTime::default();
        let mut odo = Odometer::default();
        engine::run(
            &g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &ecfg,
            &mut (&mut time, &mut odo),
            rng,
        )
        .unwrap();
        (time.max_steps, odo.steps, odo.rounds)
    });
    let implicit = run(&|rng| {
        let mut time = DispersionTime::default();
        let mut odo = Odometer::default();
        engine::run(
            &t,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &ecfg,
            &mut (&mut time, &mut odo),
            rng,
        )
        .unwrap();
        (time.max_steps, odo.steps, odo.rounds)
    });
    assert_eq!(explicit, implicit);
}

#[test]
fn implicit_cap_surfaces_as_error() {
    let t = Torus2d::new(16);
    let cfg = ProcessConfig::simple().with_cap(8);
    let mut rng = StdRng::seed_from_u64(3);
    let err = Process::Sequential.run(&t, 0, &cfg, &mut rng).unwrap_err();
    assert!(matches!(err, EngineError::StepCapExceeded { cap: 8, .. }));
}

#[test]
fn lazy_walk_matches_between_walkkinds_exactly() {
    // WalkKind::Lazy consumes (bool, maybe range) identically on both
    // backends, so even lazy runs are bit-identical across backends
    let cfg = ProcessConfig::lazy();
    let mut rng_a = StdRng::seed_from_u64(13);
    let mut rng_b = StdRng::seed_from_u64(13);
    let a = Process::Sequential
        .run(&cycle(21), 0, &cfg, &mut rng_a)
        .unwrap();
    let b = Process::Sequential
        .run(&Cycle::new(21), 0, &cfg, &mut rng_b)
        .unwrap();
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.settled_at, b.settled_at);
}

#[test]
fn lazified_view_never_clones_for_walks() {
    // a lazified run through the view on a WalkKind::Simple config: the
    // underlying graph is borrowed, not copied
    let g = cycle(24);
    let view = g.lazified_view();
    assert_eq!(view.n(), 24);
    let mut rng = StdRng::seed_from_u64(21);
    let trials = 30;
    let mut lazy_total = 0u64;
    let mut simple_total = 0u64;
    for _ in 0..trials {
        lazy_total += Process::Sequential
            .run(&view, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap()
            .dispersion_time;
        simple_total += Process::Sequential
            .run(&g, 0, &ProcessConfig::simple(), &mut rng)
            .unwrap()
            .dispersion_time;
    }
    // roughly twice the simple-walk dispersion time (Theorem 4.3)
    let ratio = lazy_total as f64 / simple_total as f64;
    assert!(
        (1.4..2.8).contains(&ratio),
        "lazy/simple mean ratio {ratio}"
    );
}
