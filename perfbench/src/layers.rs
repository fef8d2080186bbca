//! The traced run: per-layer measurements, tracing overhead, and the two
//! decomposition models.
//!
//! Every traced run, whatever its workload, reports the same metric set:
//!
//! * the workload run twice, untraced and traced, for
//!   `trace_overhead_frac`, with spans around the benchmark's calls into
//!   the runner, the spec layer, the job store and the HTTP client;
//! * the workload's own inputs pushed through single layers (`sim.spec`,
//!   `sim.runner`, `sim.sink`, `sim.json`, `serve.*`);
//! * fixed-instance loops over the hot layers (`graphs.*`, `sim.rng`,
//!   `core.*`);
//! * the `torus-fill` and `serve-jobs` models: measured stage costs added
//!   up and compared with the end-to-end figure.

use crate::serverun::{self, Expected};
use crate::simrun;
use crate::stats::{median, quantile};
use crate::trace::{span, Tracer};
use crate::workload::{self, ServePlan, MIDDLE_RUNG, TORUS_SIDE};
use crate::{nproc, Args, Metrics, Outcome};
use dispersion_core::engine::observer::PhaseTimes;
use dispersion_core::engine::{self, schedule, EngineConfig, FirstVacant, Observer};
use dispersion_core::occupancy::Occupancy;
use dispersion_core::process::ProcessConfig;
use dispersion_graphs::families::Family;
use dispersion_graphs::topology::{Complete, Cycle, Hypercube, Torus2d};
use dispersion_graphs::{Topology, Vertex};
use dispersion_serve::client::Client;
use dispersion_serve::http::{read_request, ChunkedWriter};
use dispersion_serve::server::{Server, ServerConfig};
use dispersion_serve::shard::proto::{read_frame, write_frame, Frame};
use dispersion_serve::spec_json::{spec_from_json, spec_to_json};
use dispersion_sim::experiment::Process;
use dispersion_sim::json::Json;
use dispersion_sim::rng::{trial_seed, Xoshiro256pp};
use dispersion_sim::sink::{Event, NdjsonSink, Record, Sink};
use dispersion_sim::spec::ExperimentSpec;
use rand::{Rng, RngExt};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each fixed-instance loop; the median is reported.
const LOOP_REPS: usize = 5;

/// Walk steps per topology loop repetition.
const WALK_STEPS: u64 = 1 << 20;

/// Side of the torus the Sequential engine loop fills (a Sequential fill
/// of the full `torus-fill` side takes far longer than a Parallel one).
const SEQ_SIDE: usize = 80;

/// Time-to-first-record probes of a multi-cell simulation workload.
const FIRST_RECORD_PROBES: usize = 40;

/// The RNG stream `k` of the fixed-instance loops, derived like a trial
/// stream so every run draws the same numbers.
fn loop_rng(k: u64) -> Xoshiro256pp {
    Xoshiro256pp::new(trial_seed(LOOP_STREAMS, k))
}

/// Master seed of the fixed-instance loops' RNG streams.
const LOOP_STREAMS: u64 = 0x5EED;

/// Median over [`LOOP_REPS`] runs of `f`, which returns a per-item cost.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..LOOP_REPS).map(|_| f()).collect();
    median(&xs)
}

/// Nanoseconds per `random_step` of a walk on `g`.
fn walk_ns<T: Topology>(g: &T, seed: u64) -> f64 {
    med(|| {
        let mut rng = loop_rng(seed);
        let mut v: Vertex = 0;
        let t = Instant::now();
        for _ in 0..WALK_STEPS {
            v = g.random_step(black_box(v), &mut rng);
        }
        black_box(v);
        t.elapsed().as_nanos() as f64 / WALK_STEPS as f64
    })
}

/// `graphs.topology`: one walk loop per family and backend.
fn topology(m: &mut Metrics) {
    let mut rng = loop_rng(7);
    let mut csr = |f: Family, n: usize| f.instance(n, &mut rng).graph;
    let rows = [
        ("torus2d_implicit", walk_ns(&Torus2d::new(TORUS_SIDE), 1)),
        (
            "torus2d_csr",
            walk_ns(&csr(Family::Torus2d, TORUS_SIDE * TORUS_SIDE), 1),
        ),
        ("cycle_implicit", walk_ns(&Cycle::new(256), 2)),
        ("cycle_csr", walk_ns(&csr(Family::Cycle, 256), 2)),
        ("hypercube_implicit", walk_ns(&Hypercube::new(10), 3)),
        ("hypercube_csr", walk_ns(&csr(Family::Hypercube, 1024), 3)),
        ("clique_implicit", walk_ns(&Complete::new(1024), 4)),
        ("clique_csr", walk_ns(&csr(Family::Complete, 1024), 4)),
        ("btree_csr", walk_ns(&csr(Family::BinaryTree, 1023), 5)),
    ];
    for (name, ns) in rows {
        m.insert(format!("graphs.topology.{name}_ns_per_step"), (ns, "ns"));
    }
}

/// `graphs.generators`: CSR build time per Table 1 family at the
/// `table1-sweep` sizes, and the bytes those CSR arrays take.
fn generators(m: &mut Metrics) {
    let mut bytes = 0usize;
    for family in Family::table1() {
        let sizes = workload::table1_sizes(family);
        let build_s = med(|| {
            let mut rng = loop_rng(11);
            let t = Instant::now();
            for &n in sizes {
                black_box(family.instance(n, &mut rng));
            }
            t.elapsed().as_secs_f64()
        });
        let mut rng = loop_rng(11);
        for &n in sizes {
            let g = family.instance(n, &mut rng).graph;
            // u32 offsets (n + 1) and u32 neighbour slots
            bytes += 4 * (g.n() + 1) + 4 * g.total_degree();
        }
        m.insert(
            format!("graphs.generators.build_s.{}", family.label()),
            (build_s, "s"),
        );
    }
    m.insert(
        "graphs.generators.csr_bytes".into(),
        (bytes as f64, "bytes"),
    );
}

/// `sim.rng`: one raw draw, and one slot pick from `0..d` at degrees that
/// are not powers of two (a power-of-two degree, like the torus's 4, is a
/// masked raw draw). Returns the draw cost.
fn rng(m: &mut Metrics) -> f64 {
    const N: u64 = 1 << 22;
    let draw = med(|| {
        let mut rng = loop_rng(1);
        let mut acc = 0u64;
        let t = Instant::now();
        for _ in 0..N {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / N as f64
    });
    let degrees = black_box([3usize, 5, 6, 7]);
    let pick = med(|| {
        let mut rng = loop_rng(2);
        let mut acc = 0usize;
        let t = Instant::now();
        for i in 0..N {
            acc ^= rng.random_range(0..degrees[(i & 3) as usize]);
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / N as f64
    });
    m.insert("sim.rng.draw_ns".into(), (draw, "ns"));
    m.insert("sim.rng.pick_ns".into(), (pick, "ns"));
    draw
}

/// `core.occupancy` at the `torus-fill` size: a probe of a half-full
/// bitmap, and one settle.
fn occupancy(m: &mut Metrics) -> (f64, f64) {
    let n = TORUS_SIDE * TORUS_SIDE;
    let mut rng = loop_rng(3);
    let mut order: Vec<Vertex> = (0..n as Vertex).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let half = Occupancy::new(n);
    for &v in &order[..n / 2] {
        half.settle_shared(v);
    }
    let probes: Vec<Vertex> = (0..1 << 16)
        .map(|_| rng.random_range(0..n as Vertex))
        .collect();
    let probe = med(|| {
        let t = Instant::now();
        let mut hits = 0usize;
        for _ in 0..16 {
            for &v in &probes {
                hits += usize::from(half.is_occupied(black_box(v)));
            }
        }
        black_box(hits);
        t.elapsed().as_nanos() as f64 / (16 * probes.len()) as f64
    });
    let settle = med(|| {
        let mut occ = Occupancy::new(n);
        let t = Instant::now();
        for &v in &order {
            occ.settle(black_box(v));
        }
        black_box(occ.settled_count());
        t.elapsed().as_nanos() as f64 / n as f64
    });
    m.insert("core.occupancy.probe_ns".into(), (probe, "ns"));
    m.insert("core.occupancy.settle_ns".into(), (settle, "ns"));
    (probe, settle)
}

/// One engine fill of a `side × side` torus from its centre.
fn fill<S: schedule::Schedule, O: Observer>(
    side: usize,
    sched: &mut S,
    obs: &mut O,
    seed: u64,
) -> (f64, engine::EngineOutcome) {
    let g = Torus2d::new(side);
    let centre = ((side / 2) * side + side / 2) as Vertex;
    let cfg = EngineConfig::full(&g, centre, &ProcessConfig::default());
    let mut rng = Xoshiro256pp::new(trial_seed(seed, 0));
    let t = Instant::now();
    let out =
        engine::run(&g, sched, &FirstVacant, &cfg, obs, &mut rng).expect("torus fill within cap");
    (t.elapsed().as_secs_f64(), out)
}

/// A one-way ring of `n` vertices: every step moves from `v` to `v + 1`
/// and draws nothing. A Parallel fill on it has all walkers in lockstep,
/// so each step's probe hits one cache-hot word; what is left of an
/// engine step is the schedule's own work (active list, positions,
/// round bookkeeping).
struct Shift(usize);

impl Topology for Shift {
    fn n(&self) -> usize {
        self.0
    }

    fn degree(&self, _v: Vertex) -> usize {
        1
    }

    fn neighbour(&self, v: Vertex, _i: usize) -> Vertex {
        if v as usize + 1 == self.0 {
            0
        } else {
            v + 1
        }
    }

    #[inline]
    fn random_step<R: Rng + ?Sized>(&self, v: Vertex, _rng: &mut R) -> Vertex {
        self.neighbour(v, 0)
    }
}

/// `core.engine.schedule_ns_per_step`: ns per step of a Parallel fill of
/// a [`Shift`] ring with as many vertices as the Sequential loop's torus.
fn schedule_ns(m: &mut Metrics) -> f64 {
    let g = Shift(SEQ_SIDE * SEQ_SIDE);
    let cfg = EngineConfig::full(&g, 0, &ProcessConfig::default());
    let ns = med(|| {
        let mut rng = loop_rng(9);
        let t = Instant::now();
        let out = engine::run(
            &g,
            &mut schedule::Parallel::new(),
            &FirstVacant,
            &cfg,
            &mut (),
            &mut rng,
        )
        .expect("ring fill within cap");
        t.elapsed().as_nanos() as f64 / out.total_steps as f64
    });
    m.insert("core.engine.schedule_ns_per_step".into(), (ns, "ns"));
    ns
}

/// `core.engine` and `core.engine.partition` on the `torus-fill`
/// instance. Returns `(par ns/step, steps per particle settle)`.
fn engine_layer(m: &mut Metrics, seed: u64) -> (f64, f64) {
    let (par_s, par) = fill(TORUS_SIDE, &mut schedule::Parallel::new(), &mut (), seed);
    let par_ns = par_s * 1e9 / par.total_steps as f64;
    let (seq_s, seq) = fill(SEQ_SIDE, &mut schedule::Sequential::new(), &mut (), seed);
    let n = TORUS_SIDE * TORUS_SIDE;
    // the observer ParallelWithHalf attaches, against none, on paired
    // smaller fills (a difference of two timings: it can read below 0)
    let observer = med(|| {
        let (bare_s, bare) = fill(SEQ_SIDE, &mut schedule::Parallel::new(), &mut (), seed);
        let mut phases = PhaseTimes::for_particles(SEQ_SIDE * SEQ_SIDE);
        let (obs_s, _) = fill(SEQ_SIDE, &mut schedule::Parallel::new(), &mut phases, seed);
        (obs_s - bare_s) * 1e9 / bare.total_steps as f64
    });
    m.insert("core.engine.ns_per_step.par".into(), (par_ns, "ns"));
    m.insert(
        "core.engine.ns_per_step.seq".into(),
        (seq_s * 1e9 / seq.total_steps as f64, "ns"),
    );
    m.insert("core.engine.observer_ns_per_step".into(), (observer, "ns"));
    m.insert(
        "core.engine.steps".into(),
        (par.total_steps as f64, "count"),
    );
    m.insert("core.engine.rounds".into(), (par.rounds as f64, "count"));
    m.insert("core.engine.ticks".into(), (par.ticks as f64, "count"));

    // walker_threads = 1 vs 2 through the Parallel process entry point
    let g = Torus2d::new(TORUS_SIDE);
    let centre = ((TORUS_SIDE / 2) * TORUS_SIDE + TORUS_SIDE / 2) as Vertex;
    let rate = |threads: usize| {
        let cfg = ProcessConfig::default().with_walker_threads(threads);
        let mut rng = Xoshiro256pp::new(trial_seed(seed, 0));
        let t = Instant::now();
        let out = Process::Parallel
            .run_observed(&g, centre, &cfg, &mut (), &mut rng)
            .expect("torus fill within cap");
        out.total_steps as f64 / t.elapsed().as_secs_f64()
    };
    let one = rate(1);
    let two = rate(2);
    m.insert(
        "core.engine.partition.speedup_wt2".into(),
        (two / one, "ratio"),
    );
    (par_ns, par.total_steps as f64 / n as f64)
}

/// `sim.sink`, `sim.json`, `serve.spec_json`, `serve.http` and
/// `serve.shard` codecs over the workload's own specs and records.
/// Returns `[encode ns, flush µs, chunk µs, read µs]`.
fn codecs(m: &mut Metrics, specs: &[String], lines: &[String], out: &std::path::Path) -> [f64; 4] {
    let records: Vec<Record> = lines
        .iter()
        .map(|l| Record::from_json_line(l).expect("streamed records decode"))
        .collect();
    let per = |t: Instant, k: usize| t.elapsed().as_secs_f64() / k.max(1) as f64;
    let encode = med(|| {
        let t = Instant::now();
        for r in &records {
            black_box(r.to_json_line());
        }
        per(t, records.len()) * 1e9
    });
    let decode = med(|| {
        let t = Instant::now();
        for l in lines {
            black_box(Record::from_json_line(l).expect("decode"));
        }
        per(t, lines.len()) * 1e9
    });
    let path = out.join("checkpoint-layer.ndjson");
    let flush = med(|| {
        let file = std::fs::File::create(&path).expect("create checkpoint file");
        let mut sink = NdjsonSink::checkpoint(file);
        let t = Instant::now();
        for r in &records {
            sink.on_event(&Event::Done {
                record: r,
                resumed: false,
            });
        }
        per(t, records.len()) * 1e6
    });
    let _ = std::fs::remove_file(&path);
    let frames: Vec<String> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            Frame::Record {
                job: 1,
                cell: i as u64,
                line: l.clone(),
            }
            .to_json()
        })
        .collect();
    let texts: Vec<&String> = specs.iter().chain(&frames).collect();
    let total_bytes: usize = texts.iter().map(|t| t.len()).sum();
    let parse = med(|| {
        let t = Instant::now();
        for s in &texts {
            black_box(Json::parse(s).expect("valid JSON"));
        }
        total_bytes as f64 / t.elapsed().as_secs_f64() / 1e6
    });
    let spec_decode = med(|| {
        let t = Instant::now();
        for s in specs {
            black_box(spec_from_json(s).expect("valid spec"));
        }
        per(t, specs.len()) * 1e6
    });
    let requests: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| {
            format!(
                "POST /jobs HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{s}",
                s.len()
            )
            .into_bytes()
        })
        .collect();
    let read = med(|| {
        let t = Instant::now();
        for req in &requests {
            let mut r = std::io::BufReader::new(&req[..]);
            black_box(read_request(&mut r).expect("valid request"));
        }
        per(t, requests.len()) * 1e6
    });
    let chunk = med(|| {
        let mut w =
            ChunkedWriter::begin(Vec::new(), 200, "application/x-ndjson").expect("in memory");
        let t = Instant::now();
        for l in lines {
            w.chunk(format!("{l}\n").as_bytes()).expect("in memory");
        }
        per(t, lines.len()) * 1e6
    });
    let mut wire = Vec::new();
    let frame_encode = med(|| {
        wire.clear();
        let t = Instant::now();
        for (i, l) in lines.iter().enumerate() {
            let f = Frame::Record {
                job: 1,
                cell: i as u64,
                line: l.clone(),
            };
            write_frame(&mut wire, &f).expect("in memory");
        }
        per(t, lines.len()) * 1e6
    });
    let frame_decode = med(|| {
        let mut r = std::io::Cursor::new(&wire);
        let t = Instant::now();
        while let Some(f) = read_frame(&mut r).expect("valid frames") {
            black_box(f);
        }
        per(t, lines.len()) * 1e6
    });
    m.insert("sim.sink.encode_ns".into(), (encode, "ns"));
    m.insert("sim.sink.decode_ns".into(), (decode, "ns"));
    m.insert("sim.sink.checkpoint_flush_us".into(), (flush, "us"));
    m.insert("sim.json.parse_mb_per_s".into(), (parse, "MB/s"));
    m.insert("serve.spec_json.decode_us".into(), (spec_decode, "us"));
    m.insert("serve.http.read_request_us".into(), (read, "us"));
    m.insert("serve.http.chunk_us".into(), (chunk, "us"));
    m.insert("serve.shard.frame_encode_us".into(), (frame_encode, "us"));
    m.insert("serve.shard.frame_decode_us".into(), (frame_decode, "us"));
    [encode, flush, chunk, read]
}

/// `serve.client.rtt_us`: `GET /healthz` over loopback to an in-process
/// server.
fn client_rtt(m: &mut Metrics) -> f64 {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("in-process server");
    let client = Client::new(server.addr());
    let rtts: Vec<f64> = (0..300)
        .map(|_| {
            let t = Instant::now();
            let r = client
                .request("GET", "/healthz", &[], b"")
                .expect("healthz");
            assert_eq!(r.status, 200, "healthz answers 200");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    server.stop();
    let rtt = median(&rtts);
    m.insert("serve.client.rtt_us".into(), (rtt, "us"));
    rtt
}

/// `sim.spec`: resolve every cell of `specs` and run every trial
/// serially through `Measure::run_trial`, with spans per call.
fn spec_layer(m: &mut Metrics, specs: &[ExperimentSpec], tracer: &Tracer) {
    let mut resolve = Vec::new();
    let mut trials = Vec::new();
    for (j, spec) in specs.iter().enumerate() {
        for (id, c) in spec.cells.iter().enumerate() {
            let parent = tracer.open("sim.spec.cell", None, j as u64);
            let t = Instant::now();
            let cell = span(
                Some(tracer),
                "sim.spec.resolve",
                Some(parent),
                id as u64,
                || c.family.resolve().expect("workload cells resolve"),
            );
            resolve.push(t.elapsed().as_secs_f64());
            let trial_count = match c.budget {
                dispersion_sim::spec::Budget::Trials(n) => n,
                dispersion_sim::spec::Budget::CiHalfWidth { min_trials, .. } => min_trials,
            };
            let mut out = vec![0.0; c.measure.stat_names().len()];
            for trial in 0..trial_count {
                let mut rng = Xoshiro256pp::new(trial_seed(spec.master_seed(id), trial as u64));
                let t = Instant::now();
                span(
                    Some(tracer),
                    "sim.spec.run_trial",
                    Some(parent),
                    id as u64,
                    || c.measure.run_trial(&cell, &c.cfg, &mut out, &mut rng),
                )
                .expect("workload trials succeed");
                trials.push(t.elapsed().as_secs_f64());
            }
            tracer.close(parent);
        }
    }
    m.insert("sim.spec.resolve_s".into(), (median(&resolve), "s"));
    m.insert("sim.spec.trial_s_p50".into(), (median(&trials), "s"));
    m.insert("sim.spec.trial_s_max".into(), (quantile(&trials, 1.0), "s"));
}

/// The jobs of a workload, as `(due seconds, spec)`: the serve middle
/// rung, or the simulation spec as one job due at the start.
fn workload_jobs(a: &Args, plan: &ServePlan) -> Vec<(f64, ExperimentSpec)> {
    match a.workload.as_str() {
        "torus-fill" => vec![(0.0, workload::torus_fill_spec(a.seed))],
        "table1-sweep" => vec![(0.0, workload::table1_spec(a.seed))],
        _ => plan
            .rung_jobs(MIDDLE_RUNG)
            .into_iter()
            .map(|j| {
                let p = &plan.jobs[j];
                (
                    p.due,
                    spec_from_json(&p.spec_json).expect("generated specs decode"),
                )
            })
            .collect(),
    }
}

/// The serve figures a traced run needs: the middle rung run against a
/// server, plain and traced.
struct ServeFigures {
    job_p50: f64,
    traced_job_p50: f64,
    ttfr: Vec<f64>,
    job: Vec<f64>,
    late: Vec<f64>,
    requests: u64,
    bytes: u64,
    frames: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Runs the middle rung of `plan` twice, untraced then traced, against a
/// fresh `dispersion-serve` with `shards` shard processes.
fn serve_figures(
    a: &Args,
    plan: &ServePlan,
    shards: u64,
    tracer: &Tracer,
    exp: &BTreeMap<String, Expected>,
) -> ServeFigures {
    let dir = serverun::fresh_dir(&a.out, &format!("data-{}-traced", a.workload));
    let mut problems = Vec::new();
    let (server, _) = match serverun::spawn_server(&a.bin_dir, &dir, nproc(), shards) {
        Ok(s) => s,
        Err(e) => {
            return ServeFigures {
                job_p50: f64::NAN,
                traced_job_p50: f64::NAN,
                ttfr: Vec::new(),
                job: Vec::new(),
                late: Vec::new(),
                requests: 0,
                bytes: 0,
                frames: 0,
                failed: 1,
                problems: vec![e],
            }
        }
    };
    serverun::warm_up(a.seed, server.addr);
    let plain = serverun::run_rung(plan, MIDDLE_RUNG, server.addr, None);
    let traced = serverun::run_rung(plan, MIDDLE_RUNG, server.addr, Some(tracer));
    let frames = server.shard_gauge("serve_shard_records_total").iter().sum();
    if !server.stop() {
        problems.push("dispersion-serve did not exit cleanly".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mut failed = plain.failed + traced.failed;
    for rung in [&plain, &traced] {
        let bad = serverun::check_rung(plan, MIDDLE_RUNG, rung, exp);
        failed += bad;
        if bad > 0 {
            problems.push(format!(
                "{bad} streamed jobs differ from run_cell in-process"
            ));
        }
        problems.extend(rung.errors.iter().map(|e| format!("request failed: {e}")));
    }
    let job_of = |r: &serverun::RungResult| r.jobs.iter().map(|j| j.job_s).collect::<Vec<_>>();
    ServeFigures {
        job_p50: median(&job_of(&plain)),
        traced_job_p50: median(&job_of(&traced)),
        ttfr: plain.jobs.iter().map(|j| j.ttfr_s).collect(),
        job: job_of(&plain),
        late: plain.jobs.iter().map(|j| j.late_s).collect(),
        requests: plain.requests,
        bytes: plain.bytes,
        frames,
        failed,
        problems,
    }
}

/// The traced run of one workload.
pub fn traced(a: &Args) -> Outcome {
    let tracer = Tracer::default();
    let mut m = Metrics::new();
    let threads = nproc();
    let plan = workload::serve_plan(a.seed, a.seconds);
    let mid: Vec<usize> = plan.rung_jobs(MIDDLE_RUNG);
    let mid_plan_exp: BTreeMap<String, Expected> = {
        let mut out = BTreeMap::new();
        for &j in &mid {
            let s = &plan.jobs[j].spec_json;
            if !out.contains_key(s) {
                out.insert(
                    s.clone(),
                    serverun::expected(&spec_from_json(s).expect("decode")),
                );
            }
        }
        out
    };
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // the workload itself, untraced and traced; the serve model always
    // needs a serve run, so simulation workloads get one without shards
    let shards = u64::from(a.workload == "serve-sharded") * 2;
    let serve = serve_figures(a, &plan, shards, &tracer, &mid_plan_exp);
    attempted += serve.requests;
    failed += serve.failed;
    problems.extend(serve.problems.iter().cloned());
    let jobs = workload_jobs(a, &plan);
    let sim = !a.workload.starts_with("serve");
    let mut torus_rep = None;
    let (overhead, ttfr, job) = if sim {
        let spec = &jobs[0].1;
        simrun::run_once(spec, threads, None); // warm-up
        let plain = simrun::run_once(spec, threads, None);
        let traced = simrun::run_once(spec, threads, Some(&tracer));
        attempted += 2 * spec.len() as u64;
        if traced.ndjson != plain.ndjson {
            failed += spec.len() as u64;
            problems.push("traced and untraced runs differ".into());
        }
        // a sweep's first record is sampled by runs cancelled there; a
        // one-cell spec's first record is its last
        let firsts: Vec<f64> = if spec.len() > 1 {
            (0..FIRST_RECORD_PROBES)
                .map(|_| simrun::first_record(spec, threads))
                .collect()
        } else {
            vec![plain.first_s]
        };
        m.insert("sim.runner.tail_s".into(), (plain.tail_s, "s"));
        m.insert("sim.runner.cells".into(), (spec.len() as f64, "count"));
        m.insert("sim.runner.chunks".into(), (plain.chunks as f64, "count"));
        m.insert("sim.runner.wall_s".into(), (plain.wall_s, "s"));
        let figures = (
            traced.wall_s / plain.wall_s - 1.0,
            firsts,
            vec![plain.wall_s, traced.wall_s],
        );
        if a.workload == "torus-fill" {
            torus_rep = Some(plain);
        }
        figures
    } else {
        (
            serve.traced_job_p50 / serve.job_p50 - 1.0,
            serve.ttfr.clone(),
            serve.job.clone(),
        )
    };

    // serial run_cell per job: sim.runner's parallel efficiency and the
    // job store's cell time
    let mut serial: Vec<Expected> = Vec::new();
    for (j, (_, spec)) in jobs.iter().enumerate() {
        let e = span(Some(&tracer), "sim.runner.run_cell", None, j as u64, || {
            serverun::expected(spec)
        });
        serial.push(e);
    }
    let cell_run: Vec<f64> = serial.iter().map(|e| e.cell_run_s).collect();
    if sim {
        let wall = m["sim.runner.wall_s"].0;
        let eff = cell_run.iter().sum::<f64>() / (threads as f64 * wall);
        m.insert("sim.runner.parallel_eff".into(), (eff, "ratio"));
        m.remove("sim.runner.wall_s");
    } else {
        // the serve middle rung's jobs, each run through the runner
        let mut runner_wall = 0.0;
        let mut chunks = 0;
        let mut tails = Vec::new();
        for (_, spec) in &jobs {
            let rep = simrun::run_once(spec, threads, None);
            runner_wall += rep.wall_s;
            chunks += rep.chunks;
            tails.push(rep.tail_s);
        }
        let eff = cell_run.iter().sum::<f64>() / (threads as f64 * runner_wall);
        m.insert("sim.runner.parallel_eff".into(), (eff, "ratio"));
        m.insert("sim.runner.tail_s".into(), (median(&tails), "s"));
        m.insert(
            "sim.runner.cells".into(),
            (
                jobs.iter().map(|j| j.1.len()).sum::<usize>() as f64,
                "count",
            ),
        );
        m.insert("sim.runner.chunks".into(), (chunks as f64, "count"));
    }

    // the serve middle rung's arrivals straight into an in-process store
    let mid_jobs: Vec<(f64, ExperimentSpec)> = mid
        .iter()
        .map(|&j| {
            let p = &plan.jobs[j];
            (
                p.due,
                spec_from_json(&p.spec_json).expect("generated specs decode"),
            )
        })
        .collect();
    let store = serverun::store_replay(&mid_jobs, threads, Some(&tracer));
    let mid_cell_run: Vec<f64> = mid
        .iter()
        .map(|&j| mid_plan_exp[&plan.jobs[j].spec_json].cell_run_s)
        .collect();
    m.insert("serve.jobs.job_p50_s".into(), (median(&store), "s"));
    m.insert("serve.jobs.job_p99_s".into(), (quantile(&store, 0.99), "s"));
    m.insert("serve.jobs.cell_run_s".into(), (median(&mid_cell_run), "s"));

    // single layers over the workload's own inputs
    let specs_only: Vec<ExperimentSpec> = jobs.iter().map(|j| j.1.clone()).collect();
    spec_layer(&mut m, &specs_only, &tracer);
    let spec_texts: Vec<String> = specs_only.iter().map(spec_to_json).collect();
    let lines: Vec<String> = serial
        .iter()
        .flat_map(|e| e.lines.iter().cloned())
        .collect();
    let [encode_ns, flush_us, chunk_us, read_us] = codecs(&mut m, &spec_texts, &lines, &a.out);
    let rtt_us = client_rtt(&mut m);
    m.insert(
        "serve.http.requests".into(),
        (serve.requests as f64, "count"),
    );
    m.insert("serve.http.bytes".into(), (serve.bytes as f64, "bytes"));
    m.insert("serve.shard.frames".into(), (serve.frames as f64, "count"));

    // fixed-instance loops over the hot layers
    topology(&mut m);
    generators(&mut m);
    let draw_ns = rng(&mut m);
    let (probe_ns, settle_ns) = occupancy(&mut m);
    let (par_ns, steps_per_settle) = engine_layer(&mut m, a.seed);
    let sched_ns = schedule_ns(&mut m);

    // tails and failures of the end-to-end figures
    m.insert("ttfr_p50_s".into(), (median(&ttfr), "s"));
    m.insert("ttfr_p99_s".into(), (quantile(&ttfr, 0.99), "s"));
    m.insert("job_p50_s".into(), (median(&job), "s"));
    m.insert("job_p99_s".into(), (quantile(&job, 0.99), "s"));
    m.insert("p99_samples".into(), (job.len() as f64, "count"));
    m.insert("loadgen.late_p50_s".into(), (median(&serve.late), "s"));
    m.insert(
        "loadgen.late_max_s".into(),
        (quantile(&serve.late, 1.0), "s"),
    );
    m.insert(
        "failed_frac".into(),
        (failed as f64 / attempted.max(1) as f64, "ratio"),
    );

    // torus-fill model: ns per step from the measured stage costs, against
    // a torus-fill run through the runner (run here for other workloads)
    let torus_rep = torus_rep.unwrap_or_else(|| {
        let torus = workload::torus_fill_spec(a.seed);
        simrun::run_once(&torus, threads, None)
    });
    // the torus's degree 4 is a power of two: its pick is a masked draw
    let walk_ns = m["graphs.topology.torus2d_implicit_ns_per_step"].0;
    let topology_ns = walk_ns - draw_ns;
    let occupancy_ns = probe_ns + settle_ns / steps_per_settle;
    // Measure::Dispersion attaches the no-op observer
    let observer_ns = 0.0;
    let model_ns = topology_ns + draw_ns + occupancy_ns + sched_ns + observer_ns;
    let measured_ns = torus_rep.wall_s * 1e9 / torus_rep.steps as f64;
    for (k, v) in [
        ("topology_ns", topology_ns),
        ("rng_ns", draw_ns),
        ("occupancy_ns", occupancy_ns),
        ("schedule_ns", sched_ns),
        ("observer_ns", observer_ns),
        ("model_ns_per_step", model_ns),
        ("engine_ns_per_step", par_ns),
        ("measured_ns_per_step", measured_ns),
    ] {
        m.insert(format!("model.torus_fill.{k}"), (v, "ns"));
    }
    m.insert(
        "model.torus_fill.residual_frac".into(),
        ((measured_ns - model_ns) / measured_ns, "ratio"),
    );

    // serve-jobs model: a median job's path through the layers
    let mid_cells: Vec<f64> = mid.iter().map(|&j| plan.jobs[j].cells as f64).collect();
    let cells = median(&mid_cells);
    let store_p50 = median(&store);
    let cell_p50 = median(&mid_cell_run);
    let mid_texts: Vec<&String> = mid.iter().map(|&j| &plan.jobs[j].spec_json).collect();
    let decode_s = med(|| {
        let t = Instant::now();
        for s in &mid_texts {
            black_box(spec_from_json(s).expect("valid spec"));
        }
        t.elapsed().as_secs_f64() / mid_texts.len() as f64
    });
    let parts = [
        ("decode_s", decode_s),
        ("queue_wait_s", store_p50 - cell_p50),
        ("cell_run_s", cell_p50),
        ("encode_s", encode_ns * 1e-9 * cells),
        ("flush_s", flush_us * 1e-6 * cells),
        ("http_s", (2.0 * rtt_us + read_us + chunk_us * cells) * 1e-6),
    ];
    let model_s: f64 = parts.iter().map(|p| p.1).sum();
    for (k, v) in parts {
        m.insert(format!("model.serve_jobs.{k}"), (v, "s"));
    }
    m.insert("model.serve_jobs.model_s".into(), (model_s, "s"));
    m.insert("model.serve_jobs.measured_s".into(), (serve.job_p50, "s"));
    m.insert(
        "model.serve_jobs.residual_frac".into(),
        ((serve.job_p50 - model_s) / serve.job_p50, "ratio"),
    );

    // tracing
    m.insert("trace_overhead_frac".into(), (overhead, "ratio"));
    m.insert("trace.spans".into(), (tracer.len() as f64, "count"));
    let self_times = tracer.self_times();
    for layer in [
        "loadgen",
        "serve.client",
        "serve.jobs",
        "sim.runner",
        "sim.spec",
        "sim.sink",
    ] {
        let s = self_times.get(layer).copied().unwrap_or(0.0);
        m.insert(format!("trace.self_s.{layer}"), (s, "s"));
    }
    let trace_file = a.out.join(format!("trace-{}-s{}.json", a.workload, a.seed));
    if let Err(e) = std::fs::write(&trace_file, tracer.to_json()) {
        problems.push(format!("cannot write {}: {e}", trace_file.display()));
    }
    Outcome {
        metrics: m,
        attempted: attempted.max(1),
        failed,
        problems,
        detail: vec![("trace_file".into(), format!("\"{}\"", trace_file.display()))],
    }
}
