//! The headless shard worker: owns the cells of every assigned job whose
//! `cell mod shards == shard`, runs them through the serve crate's one
//! cell executor — the claim order, progress sink, checkpoint append and
//! claim → `run_cell` → land loop the in-process pool also runs —
//! checkpoints each record to its own `job-<id>.shard<i>.ndjson`
//! *before* streaming it back, and speaks the [`proto`](super::proto)
//! frame protocol with the front-end.
//!
//! [`run_worker`] is the whole process: the `dispersion-shard-worker`
//! binary is a thin flag-parsing wrapper around it, and tests run it on an
//! in-process thread against a listener they bound themselves.
//!
//! ## Session model
//!
//! One coordinator connection at a time. Per session three threads
//! cooperate:
//!
//! * the **reader** (the session's own thread) handles `Hello`, `Assign`,
//!   `Cancel` and `Shutdown` frames;
//! * a single **runner** thread claims owned cells in the shared claim
//!   order — round-robin across jobs, lowest open cell first, the
//!   in-process pool's fairness — and runs them to records;
//! * a **heartbeat** thread sends idle liveness beacons and watches the
//!   process termination flag (SIGTERM), turning it into a drain.
//!
//! A lost connection aborts in-flight cells (their partial trials are
//! discarded; records are only durable at cell grain) and the worker goes
//! back to accepting — the coordinator reconnects and re-`Assign`s with a
//! resume offset. A `Shutdown` frame or a termination signal instead
//! *drains*: the current cell finishes, checkpoints are fsynced, `Bye` is
//! sent, and [`run_worker`] returns.

use super::proto::{read_frame, write_frame, Frame};
use super::{owned_cells, shard_ckpt_path};
use crate::exec::{self, Claim};
use crate::spec_json;
use dispersion_sim::runner::CancelToken;
use dispersion_sim::sink::{read_checkpoint, Record};
use dispersion_sim::spec::ExperimentSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How the worker process is configured (flags of the binary).
#[derive(Clone, Debug)]
pub struct WorkerOptions {
    /// Directory for `job-<id>.shard<i>.ndjson` checkpoint files.
    pub data_dir: PathBuf,
    /// Chaos hook: hard-drop the coordinator connection after this many
    /// `Record` frames have been sent, once per process. Exercises the
    /// reconnect + resume path in tests; `None` in production.
    pub drop_after_records: Option<u64>,
}

/// Worker lifecycle stop states.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stop {
    /// Normal operation.
    Run,
    /// Finish the in-flight cell, persist it, send `Bye`, exit.
    Drain,
    /// Connection lost: discard the in-flight cell, forget all jobs,
    /// go back to accepting.
    Abort,
}

/// One assigned job, worker-side.
struct WJob {
    spec: Arc<ExperimentSpec>,
    ctrl: CancelToken,
    cancelled: bool,
    /// This shard's cells not yet done (restored or run).
    open: BTreeSet<usize>,
}

impl WJob {
    /// The lowest open owned cell, unless the job is cancelled (the
    /// worker's side of [`exec::next_claim`]).
    fn open_cell(&self) -> Option<usize> {
        if self.cancelled {
            return None;
        }
        self.open.first().copied()
    }
}

struct SessState {
    jobs: BTreeMap<u64, WJob>,
    /// Round-robin cursor: last job id served.
    rr: u64,
    stop: Stop,
}

/// Everything the three session threads share.
struct Session {
    state: Mutex<SessState>,
    cv: Condvar,
    /// Write half of the coordinator connection; whole frames are sent
    /// under this lock, so they never interleave.
    out: Mutex<TcpStream>,
    /// Checkpoint files appended to this session (fsynced on drain).
    touched: Mutex<BTreeSet<PathBuf>>,
    /// Remaining chaos budget (see [`WorkerOptions::drop_after_records`]);
    /// worker-scoped so it fires once per process, not per session.
    chaos: Arc<Mutex<Option<u64>>>,
    data_dir: PathBuf,
    shard: u64,
    shards: u64,
    /// Session teardown flag for the heartbeat thread.
    finished: AtomicBool,
}

impl Session {
    /// Sends one frame, ignoring transport errors (the reader notices the
    /// dead connection and aborts the session).
    fn send(&self, frame: &Frame) {
        let mut out = self.out.lock().unwrap();
        let _ = write_frame(&mut *out, frame);
    }

    /// Sends a `Record` frame and burns one unit of chaos budget.
    fn send_record(&self, job: u64, cell: usize, line: String) {
        self.send(&Frame::Record {
            job,
            cell: cell as u64,
            line,
        });
        let mut chaos = self.chaos.lock().unwrap();
        if let Some(left) = *chaos {
            let left = left.saturating_sub(1);
            if left == 0 {
                *chaos = None; // fires once per process
                let out = self.out.lock().unwrap();
                let _ = out.shutdown(Shutdown::Both);
            } else {
                *chaos = Some(left);
            }
        }
    }
}

/// Runs the worker: accepts one coordinator session at a time on
/// `listener` until a drain (a `Shutdown` frame or `term` flipping true)
/// completes. This is the whole `dispersion-shard-worker` process; tests
/// call it on a thread with a listener they bound.
///
/// # Errors
///
/// Listener configuration or accept failures; per-session transport
/// errors are handled internally (abort + re-accept).
pub fn run_worker(
    listener: &TcpListener,
    opts: &WorkerOptions,
    term: &AtomicBool,
) -> io::Result<()> {
    fs::create_dir_all(&opts.data_dir)?;
    listener.set_nonblocking(true)?;
    let chaos = Arc::new(Mutex::new(opts.drop_after_records));
    loop {
        // ORDERING: Relaxed — monotone shutdown flag set by a signal
        // handler; the 50ms poll bounds how late we can observe it
        if term.load(Ordering::Relaxed) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                let _ = stream.set_nodelay(true);
                match serve_session(stream, opts, term, &chaos) {
                    Flow::Continue => {}
                    Flow::Exit => return Ok(()),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
}

enum Flow {
    /// Session over, keep accepting (coordinator will reconnect).
    Continue,
    /// Drained: the process is done.
    Exit,
}

fn serve_session(
    stream: TcpStream,
    opts: &WorkerOptions,
    term: &AtomicBool,
    chaos: &Arc<Mutex<Option<u64>>>,
) -> Flow {
    // Handshake under a timeout so a stray connection can't wedge the
    // worker; cleared once the coordinator has identified itself.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = match stream.try_clone() {
        Ok(r) => BufReader::new(r),
        Err(_) => return Flow::Continue,
    };
    let (shard, shards) = match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { shard, shards })) if shards > 0 && shard < shards => (shard, shards),
        _ => return Flow::Continue,
    };
    let _ = stream.set_read_timeout(None);
    let read_half = reader.get_ref().try_clone().ok();

    let sess = Session {
        state: Mutex::new(SessState {
            jobs: BTreeMap::new(),
            rr: 0,
            stop: Stop::Run,
        }),
        cv: Condvar::new(),
        out: Mutex::new(stream),
        touched: Mutex::new(BTreeSet::new()),
        chaos: Arc::clone(chaos),
        data_dir: opts.data_dir.clone(),
        shard,
        shards,
        finished: AtomicBool::new(false),
    };
    sess.send(&Frame::Ready { shard });

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| runner_loop(&sess));
        let heartbeat = scope.spawn(|| heartbeat_loop(&sess, term, read_half.as_ref()));

        let drain_requested = loop {
            match read_frame(&mut reader) {
                Ok(Some(Frame::Assign {
                    job,
                    resume,
                    spec_json,
                })) => handle_assign(&sess, job, resume, &spec_json),
                Ok(Some(Frame::Cancel { job })) => {
                    let mut st = sess.state.lock().unwrap();
                    if let Some(j) = st.jobs.get_mut(&job) {
                        j.cancelled = true;
                        j.ctrl.cancel();
                    }
                    drop(st);
                    sess.cv.notify_all();
                }
                Ok(Some(Frame::Shutdown)) => break true,
                Ok(Some(_)) => {} // worker-bound traffic only; ignore echoes
                Ok(None) | Err(_) => {
                    // EOF / transport error. During a drain (the heartbeat
                    // thread shut the read half down on SIGTERM) keep
                    // draining; otherwise the coordinator is gone.
                    break sess.state.lock().unwrap().stop == Stop::Drain;
                }
            }
        };

        let flow = if drain_requested {
            // Drain: the runner finishes its in-flight cell, then every
            // touched checkpoint is made durable before the farewell.
            {
                let mut st = sess.state.lock().unwrap();
                if st.stop == Stop::Run {
                    st.stop = Stop::Drain;
                }
            }
            sess.cv.notify_all();
            let _ = runner.join();
            for path in sess.touched.lock().unwrap().iter() {
                if let Ok(f) = fs::OpenOptions::new().append(true).open(path) {
                    let _ = f.sync_all();
                }
            }
            sess.send(&Frame::Bye);
            let _ = sess.out.lock().unwrap().shutdown(Shutdown::Both);
            Flow::Exit
        } else {
            // Abort: discard in-flight work; records are durable at cell
            // grain only, and a re-run is byte-identical by construction.
            {
                let mut st = sess.state.lock().unwrap();
                st.stop = Stop::Abort;
                for job in st.jobs.values() {
                    job.ctrl.cancel();
                }
            }
            sess.cv.notify_all();
            let _ = runner.join();
            Flow::Continue
        };

        // ORDERING: Relaxed — teardown flag polled by the heartbeat
        // thread; its join right below is the real synchronisation point
        sess.finished.store(true, Ordering::Relaxed);
        let _ = heartbeat.join();
        flow
    })
}

/// Reacts to an `Assign`: restore this shard's checkpoint, stream the
/// restored records the coordinator is missing, queue the rest for the
/// runner. Idempotent per job id — a re-sent `Assign` (reconnect race) is
/// ignored.
fn handle_assign(sess: &Session, job: u64, resume: u64, spec_text: &str) {
    let spec = match spec_json::spec_from_json(spec_text) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("# shard {}: job {job}: bad spec in Assign: {e}", sess.shard);
            return;
        }
    };
    let mut open: BTreeSet<usize> = owned_cells(spec.len(), sess.shard, sess.shards)
        .into_iter()
        .collect();
    let path = shard_ckpt_path(&sess.data_dir, job, sess.shard);
    let restored = match read_checkpoint(&path) {
        Ok(r) => r,
        Err(e) => {
            // A corrupt shard checkpoint cannot be appended to safely;
            // reset it and re-run the owned cells (determinism makes the
            // re-run byte-identical).
            eprintln!(
                "# shard {}: job {job}: {e}; resetting checkpoint",
                sess.shard
            );
            let _ = fs::write(&path, "");
            Vec::new()
        }
    };

    let mut to_stream: Vec<Record> = Vec::new();
    for r in restored {
        // skips foreign cells (k changed across restarts), stale keys and
        // repeats (first restore per cell wins)
        if open.contains(&r.cell) && spec.cell_key(r.cell) == r.key {
            open.remove(&r.cell);
            // `resume` counts owned records; owned cell `shard + i·k` is
            // the shard's record `i`
            if r.cell as u64 / sess.shards >= resume {
                to_stream.push(r);
            }
        }
    }
    to_stream.sort_by_key(|r| r.cell);
    let all_done = open.is_empty();

    {
        let mut st = sess.state.lock().unwrap();
        if st.jobs.contains_key(&job) {
            return; // duplicate Assign
        }
        st.jobs.insert(
            job,
            WJob {
                spec,
                ctrl: CancelToken::new(),
                cancelled: false,
                open,
            },
        );
    }
    sess.cv.notify_all();
    for r in &to_stream {
        sess.send_record(job, r.cell, r.to_json_line());
    }
    if all_done {
        sess.send(&Frame::JobDone { job });
    }
}

/// The single runner thread: the shared claim → run → land loop, until a
/// drain or abort. One cell in flight at a time keeps the shard
/// checkpoint file append-ordered by completion, like `k = 0` mode's
/// single-worker file order. Chunk progress goes out as `Progress`
/// frames, which double as liveness while a long cell runs.
fn runner_loop(sess: &Session) {
    exec::run(
        || claim(sess),
        |c, trials, steps| {
            sess.send(&Frame::Progress {
                job: c.job,
                cell: c.cell as u64,
                trials,
                steps,
            });
        },
        |c, record| finish_cell(sess, c, &record),
    );
}

/// Claims the next owned cell in [`exec::next_claim`] order and announces
/// it with a `Started` frame; waits while nothing is open. `None` once
/// the session drains or aborts.
fn claim(sess: &Session) -> Option<Claim> {
    let claim = {
        let mut guard = sess.state.lock().unwrap();
        loop {
            if guard.stop != Stop::Run {
                return None;
            }
            let st = &mut *guard;
            if let Some((id, cell)) = exec::next_claim(&st.jobs, &mut st.rr, WJob::open_cell) {
                let job = &st.jobs[&id];
                break Claim::new(id, cell, &job.spec, &job.ctrl);
            }
            // Timed wait: bounds the damage of any missed wakeup during
            // session teardown races.
            guard = sess
                .cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap()
                .0;
        }
    };
    sess.send(&Frame::Started {
        job: claim.job,
        cell: claim.cell as u64,
    });
    Some(claim)
}

/// Lands a finished cell: append + flush to the shard checkpoint *before*
/// the `Record` frame leaves the process, so anything the coordinator
/// ever saw survives a worker crash.
fn finish_cell(sess: &Session, claim: &Claim, record: &Record) {
    let all_done = {
        let mut st = sess.state.lock().unwrap();
        if st.stop == Stop::Abort {
            return; // session died mid-cell; the record is discarded
        }
        let Some(job) = st.jobs.get_mut(&claim.job) else {
            return;
        };
        if job.cancelled {
            return; // cancelled cells produce no durable record
        }
        job.open.remove(&claim.cell);
        job.open.is_empty()
    };
    let path = shard_ckpt_path(&sess.data_dir, claim.job, sess.shard);
    let line = record.to_json_line();
    match exec::append_checkpoint(&path, &line) {
        Ok(()) => {
            sess.touched.lock().unwrap().insert(path);
        }
        Err(e) => eprintln!(
            "# shard {}: cannot checkpoint job {} cell {} to {}: {e}",
            sess.shard,
            claim.job,
            claim.cell,
            path.display()
        ),
    }
    sess.send_record(claim.job, claim.cell, line);
    if all_done {
        sess.send(&Frame::JobDone { job: claim.job });
    }
}

/// Idle liveness + termination watcher: beacons every second, and turns
/// the process termination flag into a drain by shutting the read half
/// down (which unblocks the reader thread with a clean EOF).
fn heartbeat_loop(sess: &Session, term: &AtomicBool, read_half: Option<&TcpStream>) {
    let mut ticks: u64 = 0;
    let mut drained = false;
    loop {
        // ORDERING: Relaxed — teardown flag; worst case one extra 100ms tick
        if sess.finished.load(Ordering::Relaxed) {
            return;
        }
        // ORDERING: Relaxed — monotone signal flag, polling latency is fine
        if !drained && term.load(Ordering::Relaxed) {
            drained = true;
            sess.state.lock().unwrap().stop = Stop::Drain;
            sess.cv.notify_all();
            if let Some(r) = read_half {
                let _ = r.shutdown(Shutdown::Read);
            }
        }
        ticks += 1;
        if ticks.is_multiple_of(10) {
            sess.send(&Frame::Heartbeat);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_graphs::families::Family;
    use dispersion_sim::experiment::Process;
    use dispersion_sim::runner::Runner;
    use dispersion_sim::sink::MemorySink;
    use dispersion_sim::spec::{Budget, CellSpec, FamilySpec, Measure};

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(7);
        for n in [24usize, 32, 48] {
            spec.push(
                CellSpec::new(
                    FamilySpec::explicit(Family::Complete, n),
                    Measure::Dispersion(Process::Sequential),
                )
                .budget(Budget::Trials(8)),
            );
        }
        spec
    }

    fn reference_lines(spec: &ExperimentSpec) -> Vec<String> {
        Runner::new(1)
            .run(spec, &[], &mut MemorySink::default())
            .iter()
            .map(Record::to_json_line)
            .collect()
    }

    /// Drives one worker end-to-end over a real socket: Hello/Ready,
    /// Assign, records collected until JobDone, then Shutdown/Bye — and
    /// the records match an in-process `Runner` byte for byte.
    #[test]
    fn worker_runs_owned_cells_bit_identically() {
        let dir = std::env::temp_dir().join(format!("shard_worker_unit_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let term = Arc::new(AtomicBool::new(false));
        let opts = WorkerOptions {
            data_dir: dir.clone(),
            drop_after_records: None,
        };
        let worker = {
            let term = Arc::clone(&term);
            std::thread::spawn(move || run_worker(&listener, &opts, &term).unwrap())
        };

        let spec = tiny_spec();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut conn,
            &Frame::Hello {
                shard: 1,
                shards: 2,
            },
        )
        .unwrap();
        let mut r = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(read_frame(&mut r).unwrap(), Some(Frame::Ready { shard: 1 }));
        write_frame(
            &mut conn,
            &Frame::Assign {
                job: 1,
                resume: 0,
                spec_json: spec_json::spec_to_json(&spec),
            },
        )
        .unwrap();
        let mut lines = Vec::new();
        loop {
            match read_frame(&mut r).unwrap().expect("worker closed early") {
                Frame::Record { job, line, .. } => {
                    assert_eq!(job, 1);
                    lines.push(line);
                }
                Frame::JobDone { job } => {
                    assert_eq!(job, 1);
                    break;
                }
                Frame::Started { .. } | Frame::Progress { .. } | Frame::Heartbeat => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // shard 1 of 2 over 3 cells owns exactly cell 1, and its record is
        // the byte-identical slice of the single-process reference
        let reference = reference_lines(&spec);
        assert_eq!(lines, vec![reference[1].clone()]);
        let ckpt = fs::read_to_string(shard_ckpt_path(&dir, 1, 1)).unwrap();
        assert_eq!(ckpt, format!("{}\n", reference[1]));

        write_frame(&mut conn, &Frame::Shutdown).unwrap();
        loop {
            match read_frame(&mut r).unwrap() {
                Some(Frame::Bye) | None => break,
                Some(_) => {}
            }
        }
        worker.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// A second Assign for the same job id must be a no-op (the
    /// coordinator can race its snapshot re-assign against a reconnect).
    #[test]
    fn duplicate_assign_is_idempotent() {
        let dir = std::env::temp_dir().join(format!("shard_worker_dup_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let term = Arc::new(AtomicBool::new(false));
        let opts = WorkerOptions {
            data_dir: dir.clone(),
            drop_after_records: None,
        };
        let worker = {
            let term = Arc::clone(&term);
            std::thread::spawn(move || run_worker(&listener, &opts, &term).unwrap())
        };
        let spec = tiny_spec();
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(
            &mut conn,
            &Frame::Hello {
                shard: 0,
                shards: 1,
            },
        )
        .unwrap();
        let mut r = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(read_frame(&mut r).unwrap(), Some(Frame::Ready { shard: 0 }));
        let assign = Frame::Assign {
            job: 3,
            resume: 0,
            spec_json: spec_json::spec_to_json(&spec),
        };
        write_frame(&mut conn, &assign).unwrap();
        write_frame(&mut conn, &assign).unwrap();
        let mut records = 0usize;
        let mut job_done = 0usize;
        loop {
            match read_frame(&mut r).unwrap().expect("worker closed early") {
                Frame::Record { .. } => records += 1,
                Frame::JobDone { .. } => {
                    job_done += 1;
                    break;
                }
                _ => {}
            }
        }
        assert_eq!((records, job_done), (spec.len(), 1));
        write_frame(&mut conn, &Frame::Shutdown).unwrap();
        loop {
            match read_frame(&mut r).unwrap() {
                Some(Frame::Bye) | None => break,
                Some(_) => {}
            }
        }
        worker.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
