//! The cell executor both serve paths share: the in-process worker pool
//! ([`JobStore::start_workers`](crate::jobs::JobStore::start_workers)) and
//! the shard worker's runner thread ([`shard::worker`](crate::shard::worker)).
//!
//! Each path keeps its own job table and its own meaning of "land" — the
//! pool publishes the record into the store's per-cell slots, the shard
//! worker checkpoints it to its shard file and sends a `Record` frame —
//! but what they do *to a cell* is defined here, once: the claim order
//! ([`next_claim`]), the progress sink ([`ChunkSink`]), the checkpoint
//! append ([`append_checkpoint`]) and the claim → [`run_cell`] → land
//! loop ([`run`]).

use dispersion_sim::runner::{run_cell, CancelToken};
use dispersion_sim::sink::{Event, Record, Sink};
use dispersion_sim::spec::ExperimentSpec;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// One claimed cell: everything needed to run it without holding a lock.
pub(crate) struct Claim {
    pub(crate) job: u64,
    pub(crate) cell: usize,
    pub(crate) spec: Arc<ExperimentSpec>,
    pub(crate) ctrl: CancelToken,
}

impl Claim {
    pub(crate) fn new(
        job: u64,
        cell: usize,
        spec: &Arc<ExperimentSpec>,
        ctrl: &CancelToken,
    ) -> Self {
        Claim {
            job,
            cell,
            spec: Arc::clone(spec),
            ctrl: ctrl.clone(),
        }
    }
}

/// The claim order: the first job after the round-robin cursor `rr`
/// (cyclically, in id order) that has an open cell, and that cell —
/// `open_cell` returns a job's lowest open cell this executor owns, or
/// `None` when it has none or the job is cancelled. The cursor moves to
/// the chosen job, so the job just served goes to the back of the line
/// and many small jobs drain past one long job's cells.
pub(crate) fn next_claim<J>(
    jobs: &BTreeMap<u64, J>,
    rr: &mut u64,
    open_cell: impl Fn(&J) -> Option<usize>,
) -> Option<(u64, usize)> {
    let (id, cell) = jobs
        .range(*rr + 1..)
        .chain(jobs.range(..=*rr))
        .find_map(|(&id, job)| Some((id, open_cell(job)?)))?;
    *rr = id;
    Some((id, cell))
}

/// Forwards each [`Event::Chunk`]'s `(trials, steps)` deltas to a
/// callback; everything else (the finished record) comes back as
/// [`run_cell`]'s return value.
struct ChunkSink<F>(F);

impl<F: FnMut(u64, u64) + Send> Sink for ChunkSink<F> {
    fn on_event(&mut self, event: &Event) {
        if let Event::Chunk { trials, steps, .. } = event {
            (self.0)(*trials, *steps);
        }
    }
}

/// Appends one record line (no trailing newline) to the checkpoint at
/// `path` and flushes — the write-then-flush-per-record durability of the
/// CLI's `--resume` sink.
pub(crate) fn append_checkpoint(path: &Path, line: &str) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

/// The run loop: `claim` a cell (blocking; `None` ends the loop), run it
/// with [`run_cell`] while `progress` books each chunk, then `land` its
/// record.
pub(crate) fn run(
    mut claim: impl FnMut() -> Option<Claim>,
    progress: impl Fn(&Claim, u64, u64) + Sync,
    mut land: impl FnMut(&Claim, Record),
) {
    while let Some(c) = claim() {
        let mut sink = ChunkSink(|trials, steps| progress(&c, trials, steps));
        let record = run_cell(&c.spec, c.cell, &c.ctrl, &mut sink);
        land(&c, record);
    }
}
