//! The serve workloads: the `dispersion-serve` binary driven over HTTP
//! through [`Client`] by an open loop of seeded arrivals.
//!
//! The generator uses two threads and at most two connections at a
//! time. The *scheduler* thread sends every `POST /jobs` and status poll
//! at its due time. The *reader* thread streams each job's records in
//! submission order; heavy jobs are read once a poll shows them done, so
//! a long torus cell does not hold up the reads of the small jobs queued
//! behind it. Every latency is taken from the request's due time, so a
//! late generator shows up in the figures, and its lateness is reported.

use crate::trace::{span, Tracer};
use crate::workload::{JobPlan, ServePlan, CAPACITY_WINDOW, LATENCY_LIMIT_S};
use dispersion_serve::client::Client;
use dispersion_serve::jobs::{JobStore, NextRecord};
use dispersion_serve::metrics::Metrics;
use dispersion_serve::spec_json::spec_from_json;
use dispersion_sim::runner::{run_cell, CancelToken};
use dispersion_sim::sink::{Event, Sink};
use dispersion_sim::spec::ExperimentSpec;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A running `dispersion-serve` process.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
    shards: u64,
}

/// Starts `dispersion-serve --workers <workers> --data-dir <dir>` (plus
/// `--shards <shards>` when non-zero) and waits until `/healthz` answers
/// and every shard worker is connected. Returns the process and the
/// seconds that took.
///
/// # Errors
///
/// Spawn failures and a server that does not come up within 30 s.
pub fn spawn_server(
    bin_dir: &Path,
    data_dir: &Path,
    workers: usize,
    shards: u64,
) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let mut cmd = Command::new(bin_dir.join("dispersion-serve"));
    cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
        .arg("--data-dir")
        .arg(data_dir);
    if shards > 0 {
        cmd.args(["--shards", &shards.to_string()]);
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start dispersion-serve: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = match stdout.read_line(&mut line) {
        Ok(n) if n > 0 => line
            .trim()
            .strip_prefix("listening http://")
            .and_then(|a| a.parse::<SocketAddr>().ok()),
        _ => None,
    };
    let server = ServerProc {
        child,
        _stdout: stdout,
        addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
        shards,
    };
    if addr.is_none() {
        return Err(format!(
            "dispersion-serve did not report its address: {line:?}"
        ));
    }
    let client = Client::new(server.addr);
    let deadline = t0 + Duration::from_secs(30);
    loop {
        let healthy = client
            .request("GET", "/healthz", &[], b"")
            .is_ok_and(|r| r.status == 200);
        let shards_up = healthy
            && (shards == 0 || server.shard_gauge("serve_shard_up").iter().all(|&u| u == 1));
        if shards_up {
            break;
        }
        if Instant::now() > deadline {
            return Err("dispersion-serve did not become ready within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

impl ServerProc {
    /// Per-shard values of one `serve_shard_*` series from `/metrics`.
    pub fn shard_gauge(&self, series: &str) -> Vec<u64> {
        let Ok(resp) = Client::new(self.addr).request("GET", "/metrics", &[], b"") else {
            return Vec::new();
        };
        let prefix = format!("{series}{{shard=");
        let values: Vec<u64> = resp
            .text()
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
            .collect();
        if values.len() as u64 == self.shards {
            values
        } else {
            vec![0; self.shards as usize]
        }
    }

    /// The server's pid and its shard processes' pids.
    fn pids(&self) -> Vec<u64> {
        let mut pids = vec![u64::from(self.child.id())];
        if self.shards > 0 {
            pids.extend(self.shard_gauge("serve_shard_pid"));
        }
        pids
    }

    /// Peak resident memory (`VmHWM`) of the server and its shard
    /// processes, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids()
            .iter()
            .map(|&p| vm_hwm_mb(&format!("/proc/{p}/status")))
            .sum()
    }

    /// CPU seconds (user + system) the server and its shard processes
    /// have used so far, threads that have exited included.
    pub fn cpu_s(&self) -> f64 {
        self.pids().iter().map(|&p| cpu_s(p)).sum()
    }

    /// Asks the server to drain (`POST /shutdown`) and waits for it to
    /// exit; kills it after 20 s. Returns whether it exited cleanly.
    pub fn stop(mut self) -> bool {
        let _ = Client::new(self.addr).request("POST", "/shutdown", &[], b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                // still running, or unknown: `Drop` kills and reaps it
                _ => return false,
            }
        }
    }
}

/// Kills the server if it is still running (an error path, or a panic in
/// the benchmark) and waits for it, so no run leaves a process behind.
impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of process `pid` from `/proc/<pid>/stat`
/// (0 if unreadable).
fn cpu_s(pid: u64) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = stat.rsplit_once(')').map_or("", |r| r.1);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What happened to one job of the open loop.
#[derive(Clone, Debug, Default)]
pub struct JobResult {
    /// Server job id.
    pub id: u64,
    /// Seconds after its due time the `POST` was sent.
    pub late_s: f64,
    /// Due time → first record line.
    pub ttfr_s: f64,
    /// Due time → last record line.
    pub job_s: f64,
    /// Seconds after the rung start the last record arrived.
    pub done_at: f64,
    /// The streamed record lines.
    pub lines: Vec<String>,
    /// The lines of the `Last-Record` re-read, if the plan asked for one.
    pub resumed: Option<Vec<String>>,
    /// Seconds the `POST /jobs` took.
    pub post_s: f64,
    /// Seconds from opening the record stream to its end.
    pub stream_s: f64,
    /// Whether every request of the job succeeded.
    pub ok: bool,
}

/// Results of one rung of the ladder, or of one capacity batch.
#[derive(Clone, Debug, Default)]
pub struct RungResult {
    /// Offered rate, jobs per second (0 for a capacity batch).
    pub rate: f64,
    /// Per job, in plan order within the rung.
    pub jobs: Vec<JobResult>,
    /// Seconds from the rung start to its last record.
    pub span_s: f64,
    /// Requests sent and how many failed.
    pub requests: u64,
    /// Failed requests (non-2xx, transport errors, refusals).
    pub failed: u64,
    /// Bytes of request bodies sent and record lines received.
    pub bytes: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl RungResult {
    /// Whether the rung met the latency limit with no backlog: every job
    /// succeeded, the p99 job latency and the generator's p99 lateness
    /// are both within [`LATENCY_LIMIT_S`].
    pub fn sustained(&self) -> bool {
        let ok = self.jobs.iter().all(|j| j.ok);
        let job: Vec<f64> = self.jobs.iter().map(|j| j.job_s).collect();
        let late: Vec<f64> = self.jobs.iter().map(|j| j.late_s).collect();
        ok && crate::stats::quantile(&job, 0.99) <= LATENCY_LIMIT_S
            && crate::stats::quantile(&late, 0.99) <= LATENCY_LIMIT_S
    }

    /// Jobs completed per second over the rung.
    pub fn achieved_rate(&self) -> f64 {
        self.jobs.len() as f64 / self.span_s
    }

    /// Record lines delivered, re-reads included.
    pub fn records(&self) -> usize {
        self.jobs
            .iter()
            .map(|j| j.lines.len() + j.resumed.as_ref().map_or(0, Vec::len))
            .sum()
    }
}

/// Request counters of one rung.
#[derive(Default)]
struct Counters {
    requests: u64,
    failed: u64,
    bytes: u64,
    errors: Vec<String>,
}

/// What the generator's two threads share while they drive one rung or
/// batch: the client, the per-job results and the request counters.
struct Loop<'a> {
    client: Client,
    jobs: Vec<&'a JobPlan>,
    tracer: Option<&'a Tracer>,
    root: Option<usize>,
    /// Start of the rung; due times are offsets from it.
    t0: Instant,
    results: Mutex<Vec<JobResult>>,
    counters: Mutex<Counters>,
}

impl<'a> Loop<'a> {
    fn new(
        addr: SocketAddr,
        jobs: Vec<&'a JobPlan>,
        tracer: Option<&'a Tracer>,
        root: Option<usize>,
        t0: Instant,
    ) -> Self {
        let results = Mutex::new(vec![JobResult::default(); jobs.len()]);
        Loop {
            client: Client::new(addr),
            jobs,
            tracer,
            root,
            t0,
            results,
            counters: Mutex::default(),
        }
    }

    /// Counts one request, its bytes and its error, if any.
    fn count(&self, err: Option<String>, bytes: usize) {
        let mut c = self.counters.lock().expect("counter lock");
        c.requests += 1;
        c.bytes += bytes as u64;
        if let Some(e) = err {
            c.failed += 1;
            if c.errors.len() < 5 {
                c.errors.push(e);
            }
        }
    }

    fn due(&self, p: usize) -> Instant {
        self.t0 + Duration::from_secs_f64(self.jobs[p].due)
    }

    /// `POST /jobs` of job `p`; its id on success.
    fn submit(&self, p: usize) -> Option<u64> {
        let late = self.t0.elapsed().as_secs_f64() - self.jobs[p].due;
        let body = &self.jobs[p].spec_json;
        let sent = Instant::now();
        let got = span(
            self.tracer,
            "serve.client.submit",
            self.root,
            p as u64,
            || self.client.submit(body),
        );
        let post_s = sent.elapsed().as_secs_f64();
        self.count(got.as_ref().err().cloned(), body.len());
        let mut res = self.results.lock().expect("result lock");
        let jr = &mut res[p];
        jr.late_s = late;
        jr.post_s = post_s;
        jr.ok = got.is_ok();
        let id = got.ok()?;
        jr.id = id;
        Some(id)
    }

    /// Streams job `p`'s records, and re-reads them from `Last-Record: k`
    /// if the plan says so.
    fn read(&self, p: usize, id: u64) {
        let job = self.jobs[p];
        let due = self.due(p);
        let mut first = None;
        let mut lines = Vec::new();
        let opened = Instant::now();
        let got = span(self.tracer, "serve.client.stream", self.root, id, || {
            self.client.stream_records(id, 0, &mut |line| {
                first.get_or_insert_with(Instant::now);
                lines.push(line.to_string());
            })
        });
        let end = Instant::now();
        let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        self.count(got.as_ref().err().map(ToString::to_string), bytes);
        let mut res = self.results.lock().expect("result lock");
        let jr = &mut res[p];
        jr.ok &= got.is_ok() && lines.len() == job.cells;
        jr.ttfr_s = first
            .unwrap_or(end)
            .saturating_duration_since(due)
            .as_secs_f64();
        jr.job_s = end.saturating_duration_since(due).as_secs_f64();
        jr.done_at = end.saturating_duration_since(self.t0).as_secs_f64();
        jr.stream_s = (end - opened).as_secs_f64();
        jr.lines = lines;
        drop(res);
        if let Some(k) = job.resume_from {
            let mut again = Vec::new();
            let got = span(self.tracer, "serve.client.resume", self.root, id, || {
                self.client
                    .stream_records(id, k, &mut |line| again.push(line.to_string()))
            });
            self.count(
                got.as_ref().err().map(ToString::to_string),
                again.iter().map(|l| l.len() + 1).sum(),
            );
            let mut res = self.results.lock().expect("result lock");
            res[p].ok &= got.is_ok();
            res[p].resumed = Some(again);
        }
    }

    /// Whether job `id` has finished, by a status poll (an error counts
    /// as finished: the stream will report it).
    fn is_done(&self, id: u64) -> bool {
        let label = span(self.tracer, "serve.client.poll", self.root, id, || {
            self.client.status_label(id)
        });
        self.count(label.as_ref().err().cloned(), 0);
        matches!(
            label.as_deref(),
            Ok("done" | "error" | "cancelled") | Err(_)
        )
    }

    fn finish(self, rate: f64, span_s: f64) -> RungResult {
        if let (Some(t), Some(root)) = (self.tracer, self.root) {
            t.close(root);
        }
        let c = self.counters.into_inner().expect("counter lock");
        RungResult {
            rate,
            jobs: self.results.into_inner().expect("result lock"),
            span_s,
            requests: c.requests,
            failed: c.failed,
            bytes: c.bytes,
            errors: c.errors,
        }
    }
}

enum Op {
    Submit(usize),
    Poll(usize),
}

/// Sleeps until `t0 + at` seconds.
fn sleep_until(t0: Instant, at: f64) {
    let due = t0 + Duration::from_secs_f64(at);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs rung `r` of `plan` against the server at `addr`.
pub fn run_rung(
    plan: &ServePlan,
    r: usize,
    addr: SocketAddr,
    tracer: Option<&Tracer>,
) -> RungResult {
    let idx = plan.rung_jobs(r);
    let pos: BTreeMap<usize, usize> = idx.iter().enumerate().map(|(p, &j)| (j, p)).collect();
    let mut ops: Vec<(f64, Op)> = idx
        .iter()
        .map(|&j| (plan.jobs[j].due, Op::Submit(pos[&j])))
        .collect();
    ops.extend(
        plan.polls
            .iter()
            .filter(|(rung, _)| *rung == r)
            .map(|(_, p)| (p.due, Op::Poll(pos[&p.job]))),
    );
    ops.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite due times"));
    let root = tracer.map(|t| t.open("loadgen.rung", None, r as u64));
    let t0 = Instant::now() + Duration::from_millis(20);
    let lp = Loop::new(
        addr,
        idx.iter().map(|&j| &plan.jobs[j]).collect(),
        tracer,
        root,
        t0,
    );
    let ids: Mutex<Vec<Option<u64>>> = Mutex::new(vec![None; idx.len()]);
    let (tx, rx) = mpsc::channel::<(usize, u64)>();

    std::thread::scope(|s| {
        let (lp, ids) = (&lp, &ids);
        // reader: streams every job in submission order, heavy ones once done
        s.spawn(move || {
            let mut deferred: VecDeque<(usize, u64, Instant)> = VecDeque::new();
            let mut open = true;
            while open || !deferred.is_empty() {
                if let Some(&(p, id, checked)) = deferred.front() {
                    if checked.elapsed() >= Duration::from_millis(10) {
                        deferred.pop_front();
                        if lp.is_done(id) {
                            lp.read(p, id);
                        } else {
                            deferred.push_front((p, id, Instant::now()));
                        }
                        continue;
                    }
                }
                match rx.recv_timeout(Duration::from_millis(2)) {
                    Ok((p, id)) if lp.jobs[p].heavy => deferred.push_back((p, id, Instant::now())),
                    Ok((p, id)) => lp.read(p, id),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        open = false;
                        if !deferred.is_empty() {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            }
        });
        // scheduler: submits and polls at their due times
        for (due, op) in &ops {
            sleep_until(t0, *due);
            match *op {
                Op::Submit(p) => {
                    if let Some(id) = lp.submit(p) {
                        ids.lock().expect("id lock")[p] = Some(id);
                        let _ = tx.send((p, id));
                    }
                }
                Op::Poll(p) => {
                    let id = ids.lock().expect("id lock")[p];
                    if let Some(id) = id {
                        let got = span(tracer, "serve.client.poll", root, id, || {
                            lp.client.status(id)
                        });
                        lp.count(got.as_ref().err().cloned(), 0);
                    }
                }
            }
        }
        drop(tx);
    });
    let span_s = lp
        .results
        .lock()
        .expect("result lock")
        .iter()
        .map(|j| j.done_at)
        .fold(0.0, f64::max)
        .max(plan.rung_s[r] * 0.5);
    lp.finish(crate::workload::LADDER[r], span_s)
}

/// Runs one batch of the capacity phase: every job of `jobs` is due at
/// once, and the submitting thread stays at most [`CAPACITY_WINDOW`]
/// jobs ahead of the reading thread, which streams them in order. The
/// span is the batch's drain time.
pub fn run_capacity(jobs: &[JobPlan], addr: SocketAddr, tracer: Option<&Tracer>) -> RungResult {
    let root = tracer.map(|t| t.open("loadgen.capacity", None, 0));
    let t0 = Instant::now();
    let lp = Loop::new(addr, jobs.iter().collect(), tracer, root, t0);
    let (tx, rx) = mpsc::sync_channel::<(usize, u64)>(CAPACITY_WINDOW);
    std::thread::scope(|s| {
        let lp = &lp;
        s.spawn(move || {
            for (p, id) in rx {
                lp.read(p, id);
            }
        });
        for p in 0..lp.jobs.len() {
            if let Some(id) = lp.submit(p) {
                let _ = tx.send((p, id));
            }
        }
        drop(tx);
    });
    let span_s = t0.elapsed().as_secs_f64();
    lp.finish(0.0, span_s)
}

/// Another seed's plan, whose jobs warm a fresh server up untimed.
pub fn warm_plan(seed: u64) -> ServePlan {
    crate::workload::serve_plan(seed ^ 0x3A3A, 4.0)
}

/// Untimed warm-up of a fresh server: the first rung and the capacity
/// batch of [`warm_plan`].
pub fn warm_up(seed: u64, addr: SocketAddr) {
    let plan = warm_plan(seed);
    run_rung(&plan, 0, addr, None);
    run_capacity(&plan.capacity, addr, None);
}

/// Counts the walker steps of a cell run.
#[derive(Default)]
struct StepSink {
    steps: u64,
}

impl Sink for StepSink {
    fn on_event(&mut self, event: &Event) {
        if let Event::Chunk { steps, .. } = event {
            self.steps += steps;
        }
    }
}

/// A job's expected output, computed in-process with `run_cell`.
#[derive(Clone, Debug)]
pub struct Expected {
    /// The NDJSON lines, in cell order.
    pub lines: Vec<String>,
    /// Walker steps summed over the job's cells.
    pub steps: u64,
    /// Seconds `run_cell` took, summed over the cells (run serially).
    pub cell_run_s: f64,
}

/// Runs every cell of `spec` serially with `run_cell`.
pub fn expected(spec: &ExperimentSpec) -> Expected {
    let mut sink = StepSink::default();
    let t0 = Instant::now();
    let lines = (0..spec.len())
        .map(|id| run_cell(spec, id, &CancelToken::new(), &mut sink).to_json_line())
        .collect();
    Expected {
        lines,
        steps: sink.steps,
        cell_run_s: t0.elapsed().as_secs_f64(),
    }
}

/// Expected outputs of every job of `plan`, keyed by spec text (heavy
/// jobs repeat a few specs, which are run once).
pub fn expected_all(plan: &ServePlan) -> BTreeMap<String, Expected> {
    let mut out = BTreeMap::new();
    for j in plan.jobs.iter().chain(&plan.capacity) {
        if !out.contains_key(&j.spec_json) {
            let spec = spec_from_json(&j.spec_json).expect("generated specs decode");
            out.insert(j.spec_json.clone(), expected(&spec));
        }
    }
    out
}

/// Compares one rung's streams with the in-process outputs. Returns the
/// number of jobs whose bytes differ.
pub fn check_rung(
    plan: &ServePlan,
    r: usize,
    rung: &RungResult,
    exp: &BTreeMap<String, Expected>,
) -> u64 {
    let jobs: Vec<&JobPlan> = plan.rung_jobs(r).iter().map(|&j| &plan.jobs[j]).collect();
    check_jobs(&jobs, rung, exp)
}

/// Compares one capacity batch's streams with the in-process outputs.
pub fn check_capacity(
    plan: &ServePlan,
    batch: &RungResult,
    exp: &BTreeMap<String, Expected>,
) -> u64 {
    let jobs: Vec<&JobPlan> = plan.capacity.iter().collect();
    check_jobs(&jobs, batch, exp)
}

fn check_jobs(jobs: &[&JobPlan], rung: &RungResult, exp: &BTreeMap<String, Expected>) -> u64 {
    let mut bad = 0;
    for (job, got) in jobs.iter().zip(&rung.jobs) {
        let want = &exp[&job.spec_json].lines;
        let resumed_ok = match (&got.resumed, job.resume_from) {
            (Some(again), Some(k)) => again.as_slice() == &want[k..],
            (None, None) => true,
            _ => false,
        };
        if !got.ok || got.lines != *want || !resumed_ok {
            bad += 1;
        }
    }
    bad
}

/// Job latencies for `jobs` (due seconds, spec) driven straight into an
/// in-process [`JobStore`] (`submit` + `next_record`, no HTTP), with
/// `workers` worker threads. Returns per job the seconds from its due
/// time to its last record.
pub fn store_replay(
    jobs: &[(f64, ExperimentSpec)],
    workers: usize,
    tracer: Option<&Tracer>,
) -> Vec<f64> {
    let store = JobStore::open(None, 1 << 20, Arc::new(Metrics::new())).expect("in-memory store");
    let handles = store.start_workers(workers);
    let t0 = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let mut latencies = vec![0.0; jobs.len()];
    std::thread::scope(|s| {
        let store = &store;
        let reader = s.spawn(move || {
            let mut out = Vec::new();
            for (p, id) in rx {
                let (due, spec) = &jobs[p];
                let due = t0 + Duration::from_secs_f64(*due);
                span(tracer, "serve.jobs.next_record", None, id, || {
                    for k in 0..spec.len() {
                        if !matches!(store.next_record(id, k), NextRecord::Line(_)) {
                            break;
                        }
                    }
                });
                out.push((
                    p,
                    Instant::now().saturating_duration_since(due).as_secs_f64(),
                ));
            }
            out
        });
        for (p, (due, spec)) in jobs.iter().enumerate() {
            sleep_until(t0, *due);
            let id = span(tracer, "serve.jobs.submit", None, p as u64, || {
                store.submit(spec.clone())
            })
            .expect("in-memory store accepts every job");
            let _ = tx.send((p, id));
        }
        drop(tx);
        for (p, l) in reader.join().expect("store reader") {
            latencies[p] = l;
        }
    });
    store.stop();
    for h in handles {
        h.join().expect("store worker");
    }
    latencies
}

/// A fresh, empty data directory under `out`.
pub fn fresh_dir(out: &Path, name: &str) -> PathBuf {
    let dir = out.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir");
    dir
}
