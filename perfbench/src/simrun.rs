//! The simulation workloads: one [`ExperimentSpec`] run end to end
//! through [`Runner::run`], repeated, and checked against a one-thread
//! run of the same spec.

use crate::trace::Tracer;
use dispersion_sim::runner::{CancelToken, Runner};
use dispersion_sim::sink::{Event, Record, Sink};
use dispersion_sim::spec::ExperimentSpec;
use std::time::Instant;

/// Times the runner's events from the moment the run starts.
struct TimingSink {
    t0: Instant,
    steps: u64,
    chunks: usize,
    /// Seconds after the start at which each record arrived.
    done: Vec<f64>,
    /// `(cell, seconds)` of every chunk, kept only in traced runs.
    chunk_times: Option<Vec<(usize, f64)>>,
}

impl Sink for TimingSink {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Chunk { cell, steps, .. } => {
                self.steps += steps;
                self.chunks += 1;
                if let Some(times) = &mut self.chunk_times {
                    times.push((*cell, self.t0.elapsed().as_secs_f64()));
                }
            }
            Event::Done { .. } => self.done.push(self.t0.elapsed().as_secs_f64()),
            _ => {}
        }
    }
}

/// One repetition of a spec through the runner.
pub struct SimRep {
    /// Time to the full record set.
    pub wall_s: f64,
    /// Time to the first record.
    pub first_s: f64,
    /// Time between the next-to-last and the last record.
    pub tail_s: f64,
    /// Walker steps summed over the chunk events.
    pub steps: u64,
    /// Chunk events.
    pub chunks: usize,
    /// The records, as the NDJSON a sink would write.
    pub ndjson: String,
    /// The records.
    pub records: Vec<Record>,
}

/// Concatenated NDJSON lines of `records`.
pub fn ndjson(records: &[Record]) -> String {
    records
        .iter()
        .map(|r| r.to_json_line() + "\n")
        .collect::<String>()
}

/// Runs `spec` once on `threads` runner threads. With a tracer, the run
/// is one span and every chunk and record event is a child span.
pub fn run_once(spec: &ExperimentSpec, threads: usize, tracer: Option<&Tracer>) -> SimRep {
    let root = tracer.map(|t| t.open("sim.runner.run", None, 0));
    let mut sink = TimingSink {
        t0: Instant::now(),
        steps: 0,
        chunks: 0,
        done: Vec::new(),
        chunk_times: tracer.map(|_| Vec::new()),
    };
    let records = Runner::new(threads).run(spec, &[], &mut sink);
    let wall_s = sink.t0.elapsed().as_secs_f64();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
        let base = t.start_of(root);
        // chunk landings are instants: the runner does the work, the
        // span only places it on the timeline
        for &(cell, at) in sink.chunk_times.as_deref().unwrap_or(&[]) {
            let at = base + (at * 1e9) as u64;
            t.record("sim.sink.chunk", at, at, Some(root), cell as u64);
        }
    }
    let n = sink.done.len();
    let tail_s = if n >= 2 {
        sink.done[n - 1] - sink.done[n - 2]
    } else {
        wall_s
    };
    SimRep {
        wall_s,
        first_s: sink.done.first().copied().unwrap_or(wall_s),
        tail_s,
        steps: sink.steps,
        chunks: sink.chunks,
        ndjson: ndjson(&records),
        records,
    }
}

/// Stops a run at its first record.
struct FirstRecord {
    t0: Instant,
    first: Option<f64>,
    ctrl: CancelToken,
}

impl Sink for FirstRecord {
    fn on_event(&mut self, event: &Event) {
        if let Event::Done { .. } = event {
            if self.first.is_none() {
                self.first = Some(self.t0.elapsed().as_secs_f64());
                self.ctrl.cancel();
            }
        }
    }
}

/// Seconds from the start of a run of `spec` to its first record. The
/// run is cancelled there, so the time to first record of a long sweep
/// can be sampled many times.
pub fn first_record(spec: &ExperimentSpec, threads: usize) -> f64 {
    let ctrl = CancelToken::new();
    let mut sink = FirstRecord {
        t0: Instant::now(),
        first: None,
        ctrl: ctrl.clone(),
    };
    Runner::new(threads).run_with_ctrl(spec, &[], &mut sink, &ctrl);
    sink.first.expect("every run yields a record")
}

/// Checks a run's records: one per cell, in cell order, error-free, with
/// every trial of a fixed budget done and every statistic finite.
/// Returns the problems found.
pub fn check_records(spec: &ExperimentSpec, records: &[Record]) -> Vec<String> {
    let mut bad = Vec::new();
    if records.len() != spec.len() {
        bad.push(format!(
            "{} records for {} cells",
            records.len(),
            spec.len()
        ));
    }
    for (id, r) in records.iter().enumerate() {
        if r.cell != id || r.key != spec.cell_key(id) {
            bad.push(format!("record {id} is for cell {} ({})", r.cell, r.key));
        }
        if let Some(e) = &r.error {
            bad.push(format!("cell {id} failed: {e}"));
        }
        if let dispersion_sim::spec::Budget::Trials(t) = spec.cells[id].budget {
            if r.trials != t as u64 {
                bad.push(format!("cell {id} ran {} of {t} trials", r.trials));
            }
        }
        let names = spec.cells[id].measure.stat_names();
        if r.stats.len() != names.len()
            || r.stats.iter().any(|s| !s.mean.is_finite() || s.mean <= 0.0)
        {
            bad.push(format!("cell {id} has bad statistics"));
        }
    }
    bad
}

/// A 64-bit FNV-1a digest, for naming an output in the results file.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
