//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--bin-dir DIR] [--out DIR]
//! ```
//!
//! Runs one named workload (see `README.md` next to this crate), checks
//! the program's outputs, and prints as its last stdout line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set of a traced run. Provenance, repetitions and quartiles
//! go to `<out>/<workload>-s<seed>-t<trace>.json`.

mod layers;
mod serverun;
mod simrun;
mod stats;
mod trace;
mod workload;

use serverun::RungResult;
use stats::{median, quantile, spread};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{LADDER, MIDDLE_RUNG};

/// The seed `README.md` documents; its record digests are pinned below.
const DEFAULT_SEED: u64 = 1;

/// Record NDJSON digests of the simulation workloads at the default
/// seed, taken with `Runner::new(1)`.
const GOLDEN: [(&str, &str); 2] = [
    ("torus-fill", "fca97fbf2f4d968d"),
    ("table1-sweep", "9dc038bc8619980b"),
];

/// Capacity batches a serve workload runs untimed before the timed ones:
/// the first batches after the ladder's server drains run slower.
const CAPACITY_UNTIMED: usize = 2;

/// Set-up repetitions of a simulation workload: batches of spec
/// constructions, so many batches before each timed repetition.
/// `setup_s` is their median (on a serve workload, the median of its
/// timed server starts: one per capacity batch and one for the ladder).
const SIM_SETUP_BATCHES: usize = 10;
const SIM_SETUP_BATCH: usize = 20;

/// Timed repetitions of a simulation workload are made until
/// `--seconds` has passed, and at least this many.
const MIN_REPS: usize = 3;

/// A metric value with its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::from("perfbench/target/release"),
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--bin-dir" => a.bin_dir = value()?.into(),
            "--out" => a.out = value()?.into(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !workload::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workload::WORKLOADS,
            a.workload
        ));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Everything one run reports.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Repetition values and other detail for the results file.
    detail: Vec<(String, String)>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// `{"n","q1","median","q3","values"}` of a set of repetitions.
fn spread_json(xs: &[f64]) -> String {
    let s = spread(xs);
    format!(
        "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{},\"values\":{}}}",
        s.n,
        json_num(s.q1),
        json_num(s.median),
        json_num(s.q3),
        json_list(xs)
    )
}

/// The simulation workloads, end to end.
fn sim_workload(a: &Args) -> Outcome {
    let build = || match a.workload.as_str() {
        "torus-fill" => workload::torus_fill_spec(a.seed),
        _ => workload::table1_spec(a.seed),
    };
    // set-up is building the spec and its canonical JSON; batches of it
    // are timed before every repetition, so they sample the whole run
    let mut setup = Vec::new();
    let mut time_setup = || {
        for _ in 0..SIM_SETUP_BATCHES {
            let t = Instant::now();
            for _ in 0..SIM_SETUP_BATCH {
                let spec = build();
                std::hint::black_box(dispersion_serve::spec_json::spec_to_json(&spec));
            }
            setup.push(t.elapsed().as_secs_f64() / SIM_SETUP_BATCH as f64);
        }
    };
    time_setup();
    let spec = build();
    let threads = nproc();
    // one untimed warm-up run, which is also the one-thread reference:
    // the first run in a process pays page faults and clock ramp-up that
    // later runs do not
    let one = simrun::run_once(&spec, 1, None);
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < a.seconds {
        time_setup();
        reps.push(simrun::run_once(&spec, threads, None));
    }
    let peak_rss_mb = serverun::vm_hwm_mb("/proc/self/status");
    let first: Vec<f64> = reps.iter().map(|r| r.first_s).collect();

    // correctness, untimed: every run equals the one-thread run, which at
    // the default seed equals the pinned digest
    let mut problems = simrun::check_records(&spec, &one.records);
    let mut failed = 0;
    for rep in &reps {
        let bad = simrun::check_records(&spec, &rep.records);
        if rep.ndjson != one.ndjson || !bad.is_empty() {
            failed += spec.len() as u64;
            problems.push(format!(
                "a {threads}-thread run differs from the 1-thread run"
            ));
        }
    }
    let digest = simrun::digest(&one.ndjson);
    if a.seed == DEFAULT_SEED {
        let want = GOLDEN.iter().find(|(w, _)| *w == a.workload).map(|g| g.1);
        if want != Some(digest.as_str()) {
            problems.push(format!("record digest {digest} is not the pinned {want:?}"));
        }
    }

    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let sps: Vec<f64> = reps.iter().map(|r| r.steps as f64 / r.wall_s).collect();
    let rps: Vec<f64> = reps
        .iter()
        .map(|r| r.records.len() as f64 / r.wall_s)
        .collect();
    let jps: Vec<f64> = wall.iter().map(|w| 1.0 / w).collect();
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (median(&setup), "s"));
    m.insert("wall_s".into(), (median(&wall), "s"));
    m.insert("steps_per_s".into(), (median(&sps), "steps/s"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb, "MiB"));
    m.insert("records_per_s".into(), (median(&rps), "1/s"));
    m.insert("sustained_jobs_per_s".into(), (median(&jps), "jobs/s"));
    let detail = vec![
        ("setup_s".into(), spread_json(&setup)),
        ("wall_s".into(), spread_json(&wall)),
        ("ttfr_p50_s".into(), spread_json(&first)),
        ("steps_per_s".into(), spread_json(&sps)),
        ("warmup_1thread_wall_s".into(), json_num(one.wall_s)),
        ("steps".into(), one.steps.to_string()),
        (
            "input".into(),
            format!(
                "{{\"cells\":{},\"trials\":{},\"vertices\":{}}}",
                spec.len(),
                one.records.iter().map(|r| r.trials).sum::<u64>(),
                one.records.iter().map(|r| r.n).sum::<usize>()
            ),
        ),
        ("record_digest".into(), format!("\"{digest}\"")),
    ];
    Outcome {
        metrics: m,
        attempted: reps.len() as u64 * spec.len() as u64,
        failed,
        problems,
        detail,
    }
}

/// Starts `dispersion-serve` over a fresh data directory for `phase` and
/// adds the seconds it took to `setup`.
fn start_server(
    a: &Args,
    phase: &str,
    shards: u64,
    setup: &mut Vec<f64>,
) -> Result<serverun::ServerProc, String> {
    let dir = serverun::fresh_dir(&a.out, &format!("data-{}-{phase}", a.workload));
    let (server, s) = serverun::spawn_server(&a.bin_dir, &dir, nproc(), shards)?;
    setup.push(s);
    Ok(server)
}

/// The serve workloads, end to end.
fn serve_workload(a: &Args) -> Outcome {
    let shards = if a.workload == "serve-sharded" { 2 } else { 0 };
    let plan = workload::serve_plan(a.seed, a.seconds);
    let warm_plan = serverun::warm_plan(a.seed);
    let mut problems = Vec::new();
    let mut setup = Vec::new();
    let mut warm = Vec::new();
    // the open-loop ladder, on a server of its own; it also warms the
    // host up for the capacity phase
    let server = match start_server(a, "ladder", shards, &mut setup) {
        Ok(s) => s,
        Err(e) => {
            problems.push(e);
            return Outcome {
                metrics: Metrics::new(),
                attempted: 1,
                failed: 1,
                problems,
                detail: Vec::new(),
            };
        }
    };
    warm.push(serverun::run_rung(&warm_plan, 0, server.addr, None));
    let rungs: Vec<_> = (0..LADDER.len())
        .map(|r| serverun::run_rung(&plan, r, server.addr, None))
        .collect();
    let mut peak_rss_mb = server.peak_rss_mb();
    if !server.stop() {
        problems.push("dispersion-serve did not exit cleanly".into());
    }
    // the capacity phase: every batch on a fresh server after a short
    // untimed batch, so no batch pays for the jobs of the ones before it
    let mut batches = Vec::new();
    let mut batch_cpu = Vec::new();
    for b in 0..CAPACITY_UNTIMED + plan.capacity_batches {
        let timed = b >= CAPACITY_UNTIMED;
        let mut spawned = Vec::new();
        let server = match start_server(a, "capacity", shards, &mut spawned) {
            Ok(s) => s,
            Err(e) => {
                problems.push(e);
                break;
            }
        };
        let warm_jobs = &warm_plan.capacity[..workload::CAPACITY_WARM_JOBS];
        warm.push(serverun::run_capacity(warm_jobs, server.addr, None));
        let cpu0 = server.cpu_s();
        let batch = serverun::run_capacity(&plan.capacity, server.addr, None);
        if timed {
            setup.extend(spawned);
            batches.push(batch);
            batch_cpu.push(server.cpu_s() - cpu0);
        } else {
            warm.push(batch);
        }
        peak_rss_mb = peak_rss_mb.max(server.peak_rss_mb());
        if !server.stop() {
            problems.push("dispersion-serve did not exit cleanly".into());
        }
    }
    for phase in ["ladder", "capacity"] {
        let _ = std::fs::remove_dir_all(a.out.join(format!("data-{}-{phase}", a.workload)));
    }

    // correctness, untimed: every stream equals run_cell in-process
    let expected = serverun::expected_all(&plan);
    let mut bad = 0;
    for (r, rung) in rungs.iter().enumerate() {
        bad += serverun::check_rung(&plan, r, rung, &expected);
    }
    for batch in &batches {
        bad += serverun::check_capacity(&plan, batch, &expected);
    }
    if bad > 0 {
        problems.push(format!(
            "{bad} streamed jobs differ from run_cell in-process"
        ));
    }
    for rung in warm.iter().chain(&rungs).chain(&batches) {
        for e in &rung.errors {
            problems.push(format!("request failed: {e}"));
        }
    }
    let warm_failed: u64 = warm.iter().map(|w| w.failed).sum();
    if warm_failed > 0 {
        problems.push(format!("{warm_failed} warm-up requests failed"));
    }

    let mid = &rungs[MIDDLE_RUNG];
    let ttfr: Vec<f64> = mid.jobs.iter().map(|j| j.ttfr_s).collect();
    let job: Vec<f64> = mid.jobs.iter().map(|j| j.job_s).collect();
    let late: Vec<f64> = rungs
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.late_s)
        .collect();
    // the throughput figures are the capacity batches' drain times: the
    // ladder's follow the offered load while the server keeps up
    let batch_steps: u64 = plan
        .capacity
        .iter()
        .map(|j| expected[&j.spec_json].steps)
        .sum();
    let drain: Vec<f64> = batches.iter().map(|b| b.span_s).collect();
    let sps: Vec<f64> = drain.iter().map(|d| batch_steps as f64 / d).collect();
    let rps: Vec<f64> = batches
        .iter()
        .map(|b| b.records() as f64 / b.span_s)
        .collect();
    let jps: Vec<f64> = batches.iter().map(RungResult::achieved_rate).collect();
    let ladder_records: usize = rungs.iter().map(RungResult::records).sum();
    let ladder_s: f64 = rungs.iter().map(|r| r.span_s).sum();
    let top_sustained = rungs
        .iter()
        .rev()
        .find(|r| r.sustained())
        .map_or(0.0, |r| r.rate);
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (median(&setup), "s"));
    m.insert("wall_s".into(), (median(&drain), "s"));
    m.insert("steps_per_s".into(), (median(&sps), "steps/s"));
    m.insert("peak_rss_mb".into(), (peak_rss_mb, "MiB"));
    m.insert("records_per_s".into(), (median(&rps), "1/s"));
    m.insert("sustained_jobs_per_s".into(), (median(&jps), "jobs/s"));
    let mut detail = vec![
        ("setup_s".into(), spread_json(&setup)),
        ("ladder_jobs_per_s".into(), json_list(&LADDER)),
        ("rung_s".into(), json_list(&plan.rung_s)),
        (
            "latency_limit_s".into(),
            json_num(workload::LATENCY_LIMIT_S),
        ),
        (
            "input".into(),
            format!(
                "{{\"jobs\":{},\"cells\":{},\"polls\":{}}}",
                plan.jobs.len(),
                plan.jobs.iter().map(|j| j.cells).sum::<usize>(),
                plan.polls.len()
            ),
        ),
        (
            "capacity_batch_jobs".into(),
            plan.capacity.len().to_string(),
        ),
        (
            "capacity_window".into(),
            workload::CAPACITY_WINDOW.to_string(),
        ),
        ("capacity_drain_s".into(), spread_json(&drain)),
        ("capacity_jobs_per_s".into(), spread_json(&jps)),
        ("capacity_records_per_s".into(), spread_json(&rps)),
        ("capacity_batch_steps".into(), batch_steps.to_string()),
        ("capacity_server_cpu_s".into(), spread_json(&batch_cpu)),
        (
            "ladder_records_per_s".into(),
            json_num(ladder_records as f64 / ladder_s),
        ),
        (
            "ladder_top_sustained_rung_jobs_per_s".into(),
            json_num(top_sustained),
        ),
        ("ttfr_p50_s".into(), json_num(median(&ttfr))),
        ("job_p50_s".into(), json_num(median(&job))),
        ("ttfr_p99_s".into(), json_num(quantile(&ttfr, 0.99))),
        ("job_p99_s".into(), json_num(quantile(&job, 0.99))),
        ("p99_samples".into(), job.len().to_string()),
        ("late_p50_s".into(), json_num(median(&late))),
        ("late_max_s".into(), json_num(quantile(&late, 1.0))),
    ];
    for (r, rung) in rungs.iter().enumerate() {
        let job: Vec<f64> = rung.jobs.iter().map(|j| j.job_s).collect();
        let ttfr: Vec<f64> = rung.jobs.iter().map(|j| j.ttfr_s).collect();
        let late: Vec<f64> = rung.jobs.iter().map(|j| j.late_s).collect();
        let post: Vec<f64> = rung.jobs.iter().map(|j| j.post_s).collect();
        let stream: Vec<f64> = rung.jobs.iter().map(|j| j.stream_s).collect();
        detail.push((
            format!("rung{r}"),
            format!(
                "{{\"offered_jobs_per_s\":{},\"jobs\":{},\"sustained\":{},\"achieved_jobs_per_s\":{},\"job_s\":{},\"job_p99_s\":{},\"ttfr_s\":{},\"late_s\":{},\"post_s\":{},\"stream_s\":{},\"requests\":{},\"failed\":{}}}",
                json_num(rung.rate),
                rung.jobs.len(),
                rung.sustained(),
                json_num(rung.achieved_rate()),
                spread_json_summary(&job),
                json_num(quantile(&job, 0.99)),
                spread_json_summary(&ttfr),
                spread_json_summary(&late),
                spread_json_summary(&post),
                spread_json_summary(&stream),
                rung.requests,
                rung.failed
            ),
        ));
    }
    let attempted = rungs
        .iter()
        .chain(&batches)
        .map(|r| r.requests)
        .sum::<u64>();
    let failed = rungs.iter().chain(&batches).map(|r| r.failed).sum::<u64>() + bad;
    Outcome {
        metrics: m,
        attempted,
        failed,
        problems,
        detail,
    }
}

fn spread_json_summary(xs: &[f64]) -> String {
    let s = spread(xs);
    format!(
        "{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}}}",
        s.n,
        json_num(s.q1),
        json_num(s.median),
        json_num(s.q3),
        json_num(quantile(xs, 1.0))
    )
}

fn provenance(a: &Args) -> String {
    let env = |k: &str| {
        dispersion_sim::json::fmt_str(&std::env::var(k).unwrap_or_else(|_| "unknown".into()))
    };
    format!(
        "{{\"rev\":{},\"rustc\":{},\"nproc\":{},\"command\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        env("PERFBENCH_REV"),
        env("PERFBENCH_RUSTC"),
        nproc(),
        env("PERFBENCH_COMMAND"),
        dispersion_sim::json::fmt_str(&a.workload),
        a.seed,
        json_num(a.seconds),
        u8::from(a.trace)
    )
}

fn metrics_json(m: &Metrics) -> String {
    let rows: Vec<String> = m
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
        .collect();
    format!("{{{}}}", rows.join(","))
}

fn run(a: &Args) -> Outcome {
    let serve = a.workload.starts_with("serve");
    if !a.trace {
        return if serve {
            serve_workload(a)
        } else {
            sim_workload(a)
        };
    }
    layers::traced(a)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("perfbench: cannot create {}: {e}", a.out.display());
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let outcome = run(&a);
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    let prov = provenance(&a);
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    let file = a.out.join(format!(
        "{}-s{}-t{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let record = format!(
        "{{\"provenance\":{prov},\"elapsed_s\":{},\"detail\":{{{}}},\"result\":{result}}}\n",
        json_num(started.elapsed().as_secs_f64()),
        detail.join(",")
    );
    if let Err(e) = std::fs::write(&file, record) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!("# provenance {prov}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
