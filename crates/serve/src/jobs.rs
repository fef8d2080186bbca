//! The job store: a bounded queue of submitted [`ExperimentSpec`]s, the
//! per-cell record slots every executor lands into, durable NDJSON
//! checkpoints, and the blocking record iterator behind the streaming
//! endpoint.
//!
//! # Execution
//!
//! Cells run in one of two places — the in-process worker pool
//! ([`JobStore::start_workers`], `shards = 0`) or the shard worker
//! processes (`shards = k > 0`) — but both use the one executor in
//! `exec`: the same claim order (round-robin across live jobs, lowest
//! open cell first), the same chunk-progress sink and the same
//! claim → [`run_cell`](dispersion_sim::runner::run_cell) → land loop.
//! Whoever ran a cell, its record lands through one private step, which
//! checks its `(cell, key)` fingerprint, keeps the first record per cell,
//! and publishes it into the per-cell slot the blocking
//! [`JobStore::next_record`] iterator reads. The pool lands `Record`
//! values directly; [`JobStore::complete_from_shard`] lands the decoded
//! `Record` frames of the shard workers. So the stream a client sees is
//! byte-identical at any `k`, including 0.
//!
//! # Fairness
//!
//! Workers claim `(job, cell)` pairs — never whole jobs: after a worker
//! takes a cell from job `j`, the cursor moves past `j`, so the next free
//! worker serves the next job in id order. One 500×500-torus cell
//! therefore occupies exactly one worker for as long as it runs while
//! every other worker drains the small jobs behind it. Within a cell,
//! `run_cell` executes chunks in deterministic chunk order, which keeps
//! records bit-identical to an in-process
//! [`Runner`](dispersion_sim::runner::Runner) run of the same spec.
//!
//! # Durability
//!
//! With a data directory, each job persists as
//!
//! * `job-<id>.spec.json` — the canonical spec (written once at submit);
//! * `job-<id>.ndjson` — records the in-process pool completed, appended
//!   and flushed as cells finish (exact-roundtrip NDJSON, the `--resume`
//!   format);
//! * `job-<id>.shard<i>.ndjson` — records shard worker `i` completed,
//!   appended by the worker *before* it streams them (the front-end
//!   writes no checkpoint for shard records);
//! * `job-<id>.cancelled` — empty marker, present once the job is
//!   cancelled.
//!
//! [`JobStore::open`] re-scans the directory and restores completed cells
//! from both checkpoint layouts through one reader,
//! [`read_checkpoint`] (torn final lines truncated exactly like the CLI's
//! `--resume`), and one restore loop; the shard files are found by
//! listing, so `k` may even change across restarts. Interior garbage in
//! `job-<id>.ndjson` skips the job; in a shard file it only re-runs that
//! file's cells. The remaining cells re-enter the queue. Because trial
//! `t` of cell `c` always draws from the same `(seed, cell, trial)`-derived
//! RNG stream, the records a restarted server appends are byte-identical
//! to the ones the killed server would have written.

use crate::exec::{self, Claim};
use crate::metrics::Metrics;
use crate::shard::{self, ShardPool};
use crate::spec_json;
use dispersion_sim::runner::CancelToken;
use dispersion_sim::sink::{read_checkpoint, Record};
use dispersion_sim::spec::ExperimentSpec;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full: too many jobs still have open cells.
    QueueFull {
        /// The configured bound.
        max_live: usize,
    },
    /// The spec has no cells (nothing to run, nothing to stream).
    EmptySpec,
    /// Persisting the spec to the data directory failed.
    Persist(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { max_live } => {
                write!(f, "job queue full ({max_live} live jobs)")
            }
            SubmitError::EmptySpec => write!(f, "spec has no cells"),
            SubmitError::Persist(e) => write!(f, "cannot persist job: {e}"),
        }
    }
}

/// One step of the record stream for a job.
#[derive(Debug, PartialEq)]
pub enum NextRecord {
    /// The next record, as its NDJSON line (no trailing newline).
    Line(String),
    /// No further records will ever arrive (job finished, cancelled
    /// before this cell, or the server is shutting down).
    End,
    /// No such job.
    NotFound,
}

enum Cell {
    Pending,
    /// A run of the cell is under way; `trials` is its chunk-grained live
    /// trial count (status endpoint).
    Running {
        trials: u64,
    },
    Done {
        record: Record,
        /// Whether the record belongs to the durable stream. False only
        /// for records minted after cancellation — those are visible in
        /// the status but never checkpointed or streamed, so restarts
        /// and stream resumes see a consistent prefix.
        durable: bool,
    },
}

struct Job {
    spec: Arc<ExperimentSpec>,
    ctrl: CancelToken,
    cancelled: bool,
    cells: Vec<Cell>,
}

impl Job {
    fn new(spec: Arc<ExperimentSpec>) -> Job {
        let n = spec.len();
        Job {
            spec,
            ctrl: CancelToken::new(),
            cancelled: false,
            cells: (0..n).map(|_| Cell::Pending).collect(),
        }
    }

    /// The lowest pending cell, unless the job is cancelled (the
    /// in-process pool's side of [`exec::next_claim`]).
    fn open_cell(&self) -> Option<usize> {
        if self.cancelled {
            return None;
        }
        self.cells.iter().position(|c| matches!(c, Cell::Pending))
    }

    /// A run of `cell` starts — a claim by the in-process pool or a shard
    /// worker's `Started` frame, including a re-run after a shard
    /// reconnect, whose live count restarts from 0.
    fn start(&mut self, cell: usize) {
        if cell < self.cells.len() && !matches!(self.cells[cell], Cell::Done { .. }) {
            self.cells[cell] = Cell::Running { trials: 0 };
        }
    }

    /// Whether `record` may fill its cell: the cell exists, its
    /// `(cell, key)` fingerprint matches the spec, and no record landed
    /// there yet (first write per cell wins).
    fn accepts(&self, record: &Record) -> bool {
        record.cell < self.cells.len()
            && !matches!(self.cells[record.cell], Cell::Done { .. })
            && self.spec.cell_key(record.cell) == record.key
    }

    fn open_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| !matches!(c, Cell::Done { .. }))
            .count()
    }

    fn is_live(&self) -> bool {
        !self.cancelled && self.open_cells() > 0
    }

    fn status_label(&self) -> &'static str {
        if self.cancelled {
            return "cancelled";
        }
        if self.open_cells() == 0 {
            let failed = self
                .cells
                .iter()
                .any(|c| matches!(c, Cell::Done { record, .. } if record.error.is_some()));
            return if failed { "error" } else { "done" };
        }
        let touched = self.cells.iter().any(|c| !matches!(c, Cell::Pending));
        if touched {
            "running"
        } else {
            "queued"
        }
    }
}

struct Store {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    /// Fairness cursor: id of the job a cell was last claimed from.
    rr: u64,
    shutdown: bool,
}

/// The shared job queue + registry. One per server process; workers,
/// connection handlers and the re-scan all go through here.
pub struct JobStore {
    state: Mutex<Store>,
    cv: Condvar,
    /// Service counters (shared with the HTTP layer for `/metrics`).
    pub metrics: Arc<Metrics>,
    data_dir: Option<PathBuf>,
    max_live: usize,
    /// Shard count `k`; 0 = in-process worker threads (the default).
    shards: u64,
    /// The shard pool to notify on submit/cancel in sharded mode. `Weak`
    /// breaks the `JobStore ↔ ShardPool` reference cycle; the pool
    /// registers itself via [`JobStore::set_dispatch`] at startup.
    dispatch: Mutex<Option<Weak<ShardPool>>>,
}

fn spec_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.spec.json"))
}

fn ndjson_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ndjson"))
}

fn cancel_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.cancelled"))
}

impl JobStore {
    /// Opens a store, re-scanning `data_dir` (created if missing) and
    /// restoring every persisted job: completed cells from their
    /// checkpoints, unfinished cells back into the queue, cancelled jobs
    /// as inert tombstones. Without a data directory the store is purely
    /// in-memory (tests, overhead benches).
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or listed. Individual
    /// corrupt job files are skipped with a note on stderr — one bad spec
    /// must not take down the whole service.
    pub fn open(
        data_dir: Option<PathBuf>,
        max_live: usize,
        metrics: Arc<Metrics>,
    ) -> io::Result<Arc<JobStore>> {
        Self::open_with_shards(data_dir, max_live, metrics, 0)
    }

    /// [`JobStore::open`] with a shard count: `shards = 0` is today's
    /// in-process worker pool, `shards = k > 0` makes this store the
    /// merge front-end of a `k`-process [`ShardPool`] (which must be
    /// started separately and registered via [`JobStore::set_dispatch`]).
    ///
    /// # Errors
    ///
    /// See [`JobStore::open`].
    pub fn open_with_shards(
        data_dir: Option<PathBuf>,
        max_live: usize,
        metrics: Arc<Metrics>,
        shards: u64,
    ) -> io::Result<Arc<JobStore>> {
        let mut store = Store {
            jobs: BTreeMap::new(),
            next_id: 1,
            rr: 0,
            shutdown: false,
        };
        if let Some(dir) = &data_dir {
            fs::create_dir_all(dir)?;
            let mut ids = Vec::new();
            for entry in fs::read_dir(dir)? {
                let name = entry?.file_name();
                let name = name.to_string_lossy();
                if let Some(id) = name
                    .strip_prefix("job-")
                    .and_then(|r| r.strip_suffix(".spec.json"))
                    .and_then(|r| r.parse::<u64>().ok())
                {
                    ids.push(id);
                }
            }
            ids.sort_unstable();
            for id in ids {
                // a skipped job's id is never reused: a new job under it
                // would append to the stale checkpoint it was skipped for
                store.next_id = store.next_id.max(id + 1);
                match load_job(dir, id, &metrics) {
                    Ok(job) => {
                        if job.is_live() {
                            Metrics::bump(&metrics.jobs_resumed, 1);
                        }
                        store.jobs.insert(id, job);
                    }
                    Err(e) => eprintln!("# serve: skipping job {id}: {e}"),
                }
            }
        }
        Ok(Arc::new(JobStore {
            state: Mutex::new(store),
            cv: Condvar::new(),
            metrics,
            data_dir,
            max_live: max_live.max(1),
            shards,
            dispatch: Mutex::new(None),
        }))
    }

    /// The shard count this store was opened with (0 = in-process mode).
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// Registers the shard pool that submit/cancel should fan out to.
    pub fn set_dispatch(&self, pool: &Arc<ShardPool>) {
        *self.dispatch.lock().unwrap() = Some(Arc::downgrade(pool));
    }

    /// The registered pool, if it is still alive. The dispatch lock is
    /// released before the returned pool is used, so pool methods can
    /// take the store lock freely.
    fn pool(&self) -> Option<Arc<ShardPool>> {
        self.dispatch
            .lock()
            .unwrap()
            .as_ref()
            .and_then(Weak::upgrade)
    }

    /// Accepts a spec into the queue and returns its job id. The spec is
    /// persisted (when a data directory is configured) *before* the job
    /// becomes claimable, so a crash can never leave an accepted job
    /// without its spec file.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when `max_live` jobs still have open
    /// cells, [`SubmitError::EmptySpec`] for cell-less specs, and
    /// [`SubmitError::Persist`] when the spec file cannot be written.
    pub fn submit(&self, spec: ExperimentSpec) -> Result<u64, SubmitError> {
        if spec.is_empty() {
            return Err(SubmitError::EmptySpec);
        }
        let spec = Arc::new(spec);
        let mut st = self.state.lock().unwrap();
        let live = st.jobs.values().filter(|j| j.is_live()).count();
        if live >= self.max_live {
            return Err(SubmitError::QueueFull {
                max_live: self.max_live,
            });
        }
        let id = st.next_id;
        if let Some(dir) = &self.data_dir {
            fs::write(spec_path(dir, id), spec_json::spec_to_json(&spec))
                .map_err(|e| SubmitError::Persist(e.to_string()))?;
        }
        st.next_id += 1;
        st.jobs.insert(id, Job::new(Arc::clone(&spec)));
        Metrics::bump(&self.metrics.jobs_submitted, 1);
        drop(st);
        self.cv.notify_all();
        // Fan the job out to the shard workers (no store lock held). If a
        // shard is down right now, its supervisor re-assigns every live
        // job on reconnect, so this is best-effort by design.
        if let Some(pool) = self.pool() {
            pool.assign_job(id, &spec_json::spec_to_json(&spec));
        }
        Ok(id)
    }

    /// Cooperatively cancels a job: fires its [`CancelToken`] (in-flight
    /// cells stop at their next trial boundary), takes its pending cells
    /// out of the queue, and persists a marker so a restarted server does
    /// not resurrect it. Returns `false` for unknown ids; cancelling an
    /// already-cancelled or finished job is a harmless no-op.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return false;
        };
        if !job.cancelled {
            job.cancelled = true;
            job.ctrl.cancel();
            Metrics::bump(&self.metrics.jobs_cancelled, 1);
            if let Some(dir) = &self.data_dir {
                if let Err(e) = fs::write(cancel_path(dir, id), b"") {
                    eprintln!("# serve: cannot persist cancel marker for job {id}: {e}");
                }
            }
        }
        drop(st);
        self.cv.notify_all();
        if let Some(pool) = self.pool() {
            pool.cancel_job(id);
        }
        true
    }

    /// The job's status document (`GET /jobs/<id>`), or `None` for
    /// unknown ids.
    pub fn status_json(&self, id: u64) -> Option<String> {
        let st = self.state.lock().unwrap();
        let job = st.jobs.get(&id)?;
        let mut s = format!(
            "{{\"id\":{id},\"status\":\"{}\",\"cells\":[",
            job.status_label()
        );
        let mut total_trials = 0u64;
        for (i, cell) in job.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let (state, trials, error) = match cell {
                Cell::Pending if job.cancelled => ("cancelled", 0, None),
                Cell::Pending => ("queued", 0, None),
                Cell::Running { trials } => ("running", *trials, None),
                Cell::Done { record, .. } => (
                    if record.error.is_some() {
                        "error"
                    } else {
                        "done"
                    },
                    record.trials,
                    record.error.as_deref(),
                ),
            };
            total_trials += trials;
            let placement = if self.shards > 0 {
                format!(",\"shard\":{}", i as u64 % self.shards)
            } else {
                String::new()
            };
            s.push_str(&format!(
                "{{\"cell\":{i},\"state\":\"{state}\",\"trials\":{trials},\"error\":{}{placement}}}",
                match error {
                    None => "null".to_string(),
                    Some(e) => dispersion_sim::json::fmt_str(e),
                }
            ));
        }
        s.push_str(&format!("],\"trials\":{total_trials}"));
        if self.shards > 0 {
            s.push_str(&format!(",\"shards\":{}", self.shards));
            if let Some(pool) = self.pool() {
                s.push_str(",\"shard_states\":[");
                for (i, up) in pool.shard_states().iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(if *up { "\"up\"" } else { "\"down\"" });
                }
                s.push(']');
            }
        }
        s.push('}');
        Some(s)
    }

    /// The job list document (`GET /jobs`): every known job's id, status,
    /// cell count, open-cell count — and, in sharded mode, each job's
    /// shard placement (`cell mod k` for its cells).
    pub fn list_json(&self) -> String {
        let st = self.state.lock().unwrap();
        let mut s = String::from("{\"jobs\":[");
        for (i, (id, job)) in st.jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{id},\"status\":\"{}\",\"cells\":{},\"open_cells\":{}",
                job.status_label(),
                job.cells.len(),
                job.open_cells()
            ));
            if self.shards > 0 {
                s.push_str(",\"shards\":[");
                for c in 0..job.cells.len() {
                    if c > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("{}", c as u64 % self.shards));
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str(&format!("],\"shards\":{}}}", self.shards));
        s
    }

    /// Gauges for `/metrics`: `(live jobs, open cells across live jobs)`.
    pub fn gauges(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        let live: Vec<&Job> = st.jobs.values().filter(|j| j.is_live()).collect();
        let cells = live.iter().map(|j| j.open_cells() as u64).sum();
        (live.len() as u64, cells)
    }

    /// Blocks until record `k` (0-based, cell order) of job `id` exists,
    /// the stream provably ends before it, or the store shuts down.
    /// Records stream strictly in cell order — the same order an
    /// in-process `Runner` returns them and the order checkpoints are
    /// replayed in — so the concatenation of resumed streams across
    /// restarts is byte-identical to one uninterrupted stream.
    pub fn next_record(&self, id: u64, k: usize) -> NextRecord {
        let mut st = self.state.lock().unwrap();
        loop {
            let Some(job) = st.jobs.get(&id) else {
                return NextRecord::NotFound;
            };
            if k >= job.cells.len() {
                return NextRecord::End;
            }
            match &job.cells[k] {
                Cell::Done {
                    record,
                    durable: true,
                } => return NextRecord::Line(record.to_json_line()),
                Cell::Done { durable: false, .. } => return NextRecord::End,
                _ if job.cancelled || st.shutdown => return NextRecord::End,
                _ => st = self.cv.wait(st).unwrap(),
            }
        }
    }

    /// Claims the next `(job, cell)` in [`exec::next_claim`] order;
    /// blocks while the queue is empty. `None` means shutdown.
    fn claim(&self) -> Option<Claim> {
        let mut guard = self.state.lock().unwrap();
        loop {
            if guard.shutdown {
                return None;
            }
            let st = &mut *guard;
            if let Some((id, cell)) = exec::next_claim(&st.jobs, &mut st.rr, Job::open_cell) {
                let job = st.jobs.get_mut(&id).expect("claimed job exists");
                job.start(cell);
                return Some(Claim::new(id, cell, &job.spec, &job.ctrl));
            }
            guard = self.cv.wait(guard).unwrap();
        }
    }

    /// The one landing step for every record, whoever ran its cell:
    /// checkpoints it to `job-<id>.ndjson` when `checkpoint` is set and
    /// the job is not cancelled, publishes it and wakes streamers.
    /// Records the job does not [accept](Job::accepts) are ignored.
    fn land(&self, id: u64, record: Record, checkpoint: bool) {
        let mut st = self.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            return;
        };
        if !job.accepts(&record) {
            return;
        }
        let cell = record.cell;
        let durable = !job.cancelled;
        if durable && checkpoint {
            if let Some(dir) = &self.data_dir {
                let path = ndjson_path(dir, id);
                if let Err(e) = exec::append_checkpoint(&path, &record.to_json_line()) {
                    eprintln!("# serve: cannot checkpoint job {id} cell {cell}: {e}");
                }
            }
        }
        job.cells[cell] = Cell::Done { record, durable };
        Metrics::bump(&self.metrics.cells_completed, 1);
        if job.open_cells() == 0 && !job.cancelled {
            Metrics::bump(&self.metrics.jobs_completed, 1);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Lands a record streamed back by a shard worker. Duplicates (a
    /// reconnect replay, or a resume offset made conservative by a shard
    /// count change) are ignored — first write per cell wins — and so are
    /// records whose `(cell, key)` fingerprint does not match the spec.
    /// The front-end writes no checkpoint of its own here: the worker's
    /// shard file, appended *before* the frame was sent, is the
    /// durability.
    pub fn complete_from_shard(&self, id: u64, line: &str) {
        match Record::from_json_line(line) {
            Ok(record) => self.land(id, record, false),
            Err(_) => eprintln!("# serve: job {id}: unparseable shard record dropped"),
        }
    }

    /// Marks a cell as running (a shard worker's `Started` frame). A
    /// re-run after a shard reconnect restarts the cell's live count.
    pub fn shard_started(&self, id: u64, cell: usize) {
        if let Some(job) = self.state.lock().unwrap().jobs.get_mut(&id) {
            job.start(cell);
        }
    }

    /// Books one chunk of a running cell's progress — from the in-process
    /// pool's sink or a shard worker's `Progress` frame, both per-chunk
    /// deltas.
    pub fn progress(&self, id: u64, cell: usize, trials: u64, steps: u64) {
        let mut st = self.state.lock().unwrap();
        if let Some(Cell::Running { trials: live }) =
            st.jobs.get_mut(&id).and_then(|job| job.cells.get_mut(cell))
        {
            *live += trials;
        }
        drop(st);
        Metrics::bump(&self.metrics.trials_total, trials);
        Metrics::bump(&self.metrics.steps_total, steps);
    }

    /// The resume offset for one shard of one job: how many of the
    /// shard's owned records (ascending cell order) this front-end
    /// already holds as a durable prefix. Sent in `Assign` so a restarted
    /// worker skips re-streaming them.
    pub fn shard_resume(&self, id: u64, shard_id: u64) -> u64 {
        let st = self.state.lock().unwrap();
        let Some(job) = st.jobs.get(&id) else {
            return 0;
        };
        let mut n = 0;
        for cell in shard::owned_cells(job.cells.len(), shard_id, self.shards) {
            match &job.cells[cell] {
                Cell::Done { durable: true, .. } => n += 1,
                _ => break, // strictly the leading prefix
            }
        }
        n
    }

    /// Snapshot of the jobs a (re)connected shard worker must be told
    /// about: every non-cancelled job with open cells, as
    /// `(id, canonical spec JSON)`.
    pub fn live_assignments(&self) -> Vec<(u64, String)> {
        let st = self.state.lock().unwrap();
        st.jobs
            .iter()
            .filter(|(_, job)| job.is_live())
            .map(|(id, job)| (*id, spec_json::spec_to_json(&job.spec)))
            .collect()
    }

    /// Fsyncs every file in the data directory (graceful-shutdown tail:
    /// the per-record writes are flushed but not synced, trading
    /// torn-final-line recovery for throughput during normal operation).
    pub fn sync_checkpoints(&self) {
        let Some(dir) = &self.data_dir else { return };
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_type().is_ok_and(|t| t.is_file()) {
                if let Ok(f) = fs::File::open(entry.path()) {
                    let _ = f.sync_all();
                }
            }
        }
    }

    /// Spawns `n` worker threads draining the queue until [`JobStore::stop`].
    pub fn start_workers(self: &Arc<Self>, n: usize) -> Vec<JoinHandle<()>> {
        (0..n.max(1))
            .map(|_| {
                let store = Arc::clone(self);
                std::thread::spawn(move || {
                    exec::run(
                        || store.claim(),
                        |c, trials, steps| store.progress(c.job, c.cell, trials, steps),
                        |c, record| store.land(c.job, record, true),
                    );
                })
            })
            .collect()
    }

    /// Stops the store: workers exit after their current cell, blocked
    /// streamers end their streams.
    pub fn stop(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.cv.notify_all();
    }
}

/// Restores one job from its persisted files.
fn load_job(dir: &Path, id: u64, metrics: &Metrics) -> Result<Job, String> {
    let spec_text =
        fs::read_to_string(spec_path(dir, id)).map_err(|e| format!("spec unreadable: {e}"))?;
    let spec = spec_json::spec_from_json(&spec_text).map_err(|e| format!("spec invalid: {e}"))?;
    if spec.is_empty() {
        return Err("spec has no cells".into());
    }
    let mut job = Job::new(Arc::new(spec));
    if cancel_path(dir, id).exists() {
        job.cancelled = true;
        job.ctrl.cancel();
    }
    // The in-process layout first, then every shard file (found by
    // listing, so the restore works at any, even a changed, shard count;
    // a conservative resume offset plus the workers' duplicate-tolerant
    // streaming covers the difference).
    let prefix = format!("job-{id}.shard");
    let mut shard_files: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("data dir unlistable: {e}"))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".ndjson"))
        })
        .collect();
    shard_files.sort();
    let legacy = ndjson_path(dir, id);
    for path in std::iter::once(legacy.clone()).chain(shard_files) {
        let records = match read_checkpoint(&path) {
            Ok(records) => records,
            // interior garbage in `job-<id>.ndjson` means a foreign file:
            // skip the job
            Err(e) if path == legacy => return Err(e),
            Err(e) => {
                // a corrupt shard file only costs re-running its cells
                // (the owning worker resets it on Assign)
                eprintln!("# serve: job {id}: skipping {}: {e}", path.display());
                continue;
            }
        };
        for r in records {
            if job.accepts(&r) {
                let cell = r.cell;
                job.cells[cell] = Cell::Done {
                    record: r,
                    durable: true,
                };
                Metrics::bump(&metrics.cells_resumed, 1);
            }
        }
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::families::Family;
    use dispersion_sim::experiment::Process;
    use dispersion_sim::runner::Runner;
    use dispersion_sim::sink::MemorySink;
    use dispersion_sim::spec::{Budget, CellSpec, FamilySpec, Measure};

    fn small_spec(seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(seed);
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Complete, 24),
                Measure::Dispersion(Process::Sequential),
            )
            .budget(Budget::Trials(12)),
        );
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(Family::Cycle, 12),
                Measure::Dispersion(Process::Parallel),
            )
            .budget(Budget::Trials(12)),
        );
        spec
    }

    fn memory_store(max_live: usize) -> Arc<JobStore> {
        JobStore::open(None, max_live, Arc::new(Metrics::new())).unwrap()
    }

    fn drain(store: &Arc<JobStore>, id: u64) -> Vec<Record> {
        let mut out = Vec::new();
        let mut k = 0;
        loop {
            match store.next_record(id, k) {
                NextRecord::Line(line) => {
                    out.push(Record::from_json_line(&line).unwrap());
                    k += 1;
                }
                NextRecord::End => return out,
                NextRecord::NotFound => panic!("job {id} vanished"),
            }
        }
    }

    #[test]
    fn records_match_in_process_runner() {
        let store = memory_store(8);
        let workers = store.start_workers(2);
        let id = store.submit(small_spec(3)).unwrap();
        let got = drain(&store, id);
        let want = Runner::new(1).run(&small_spec(3), &[], &mut MemorySink::default());
        assert_eq!(got, want);
        let status = store.status_json(id).unwrap();
        assert!(status.contains("\"status\":\"done\""), "{status}");
        store.stop();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn queue_bound_and_empty_spec_rejected() {
        let store = memory_store(1);
        // no workers: the first job stays live and occupies the queue
        let _id = store.submit(small_spec(1)).unwrap();
        assert!(matches!(
            store.submit(small_spec(2)),
            Err(SubmitError::QueueFull { max_live: 1 })
        ));
        assert!(matches!(
            store.submit(ExperimentSpec::new(0)),
            Err(SubmitError::EmptySpec)
        ));
        store.stop();
    }

    #[test]
    fn cancel_frees_queue_and_ends_stream() {
        let store = memory_store(1);
        let id = store.submit(small_spec(1)).unwrap();
        assert!(store.cancel(id));
        assert!(!store.cancel(999));
        // cancelled job no longer counts against the bound
        let id2 = store.submit(small_spec(2)).unwrap();
        assert_ne!(id, id2);
        // its stream ends immediately (no workers ran anything)
        assert_eq!(store.next_record(id, 0), NextRecord::End);
        let status = store.status_json(id).unwrap();
        assert!(status.contains("\"status\":\"cancelled\""), "{status}");
        assert!(status.contains("\"state\":\"cancelled\""), "{status}");
        store.stop();
    }

    #[test]
    fn unknown_job_is_not_found() {
        let store = memory_store(4);
        assert_eq!(store.next_record(42, 0), NextRecord::NotFound);
        assert!(store.status_json(42).is_none());
    }

    #[test]
    fn rerun_cell_restarts_its_live_trial_count() {
        // a shard reconnect re-runs a half-finished cell: the aborted
        // attempt's progress must not add to the new run's count
        let store = memory_store(8);
        let id = store.submit(small_spec(1)).unwrap();
        store.shard_started(id, 0);
        store.progress(id, 0, 8, 100);
        let status = store.status_json(id).unwrap();
        assert!(
            status.contains("\"state\":\"running\",\"trials\":8"),
            "{status}"
        );
        store.shard_started(id, 0);
        let status = store.status_json(id).unwrap();
        assert!(
            status.contains("\"state\":\"running\",\"trials\":0"),
            "{status}"
        );
        store.stop();
    }

    #[test]
    fn round_robin_interleaves_jobs() {
        // no workers: claim() by hand and observe the order
        let store = memory_store(8);
        let a = store.submit(small_spec(1)).unwrap();
        let b = store.submit(small_spec(2)).unwrap();
        let c1 = store.claim().unwrap();
        let c2 = store.claim().unwrap();
        let c3 = store.claim().unwrap();
        let c4 = store.claim().unwrap();
        let order: Vec<(u64, usize)> = [&c1, &c2, &c3, &c4]
            .iter()
            .map(|c| (c.job, c.cell))
            .collect();
        assert_eq!(order, vec![(a, 0), (b, 0), (a, 1), (b, 1)]);
        store.stop();
    }
}
