//! Pluggable result sinks for the streaming runner.
//!
//! The [`Runner`](crate::runner::Runner) pushes [`Event`]s — cell
//! activation, round-boundary progress, and per-cell completion
//! [`Record`]s — into one [`Sink`]. Sinks compose via [`Fanout`]; the
//! stock implementations cover the common shapes:
//!
//! * [`MemorySink`] — collect records in memory (what the binaries use to
//!   build their bespoke tables);
//! * [`NdjsonSink`] — one JSON object per record, streamed as cells
//!   finish; in *checkpoint* mode it skips records that were resumed from
//!   an earlier run, so `--resume FILE` can append to the same file
//!   [`read_checkpoint`] loaded;
//! * [`TextSink`] / [`CsvSink`] — generic long-format tables (one row per
//!   cell × statistic), rendered on [`Sink::finish`] in cell order.
//!
//! Records round-trip through NDJSON *exactly*: floats are serialised with
//! Rust's shortest-roundtrip formatting and parsed back bit-identically,
//! which is what makes kill + `--resume` restarts reproduce the
//! uninterrupted run. The value type and the scalar encoders live in the
//! shared [`crate::json`] module — the same codec the `dispersion-serve`
//! HTTP layer speaks.

use crate::json::{fmt_f64, fmt_str, Json};
use crate::stats::Online;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Summary of one streamed statistic of a cell.
#[derive(Clone, Debug, PartialEq)]
pub struct StatSummary {
    /// Statistic name (e.g. `"time"`, `"t_half"`).
    pub name: String,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub var: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl StatSummary {
    /// Builds a summary from a one-pass accumulator.
    pub fn from_online(name: &str, o: &Online) -> Self {
        StatSummary {
            name: name.to_string(),
            mean: o.mean(),
            var: o.var(),
            min: o.min(),
            max: o.max(),
        }
    }
}

/// The completed result of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Cell id (declaration order in the spec).
    pub cell: usize,
    /// Resume fingerprint
    /// ([`ExperimentSpec::cell_key`](crate::spec::ExperimentSpec::cell_key)).
    pub key: String,
    /// Family label.
    pub family: String,
    /// Resolved vertex count.
    pub n: usize,
    /// Measure label.
    pub measure: String,
    /// Backend label (`"explicit"` / `"implicit"`).
    pub backend: String,
    /// Trials completed (may undershoot the budget on error cells).
    pub trials: u64,
    /// One summary per streamed statistic.
    pub stats: Vec<StatSummary>,
    /// Why the cell aborted, when it did.
    pub error: Option<String>,
}

impl Record {
    /// Looks a statistic up by name.
    pub fn stat(&self, name: &str) -> Option<&StatSummary> {
        self.stats.iter().find(|s| s.name == name)
    }

    /// Mean of a named statistic (`NaN` when absent).
    pub fn mean(&self, name: &str) -> f64 {
        self.stat(name).map_or(f64::NAN, |s| s.mean)
    }

    /// Standard error of the mean of a named statistic (`NaN` when
    /// absent, `0` below two trials).
    pub fn sem(&self, name: &str) -> f64 {
        match self.stat(name) {
            None => f64::NAN,
            Some(s) if self.trials == 0 => {
                debug_assert!(s.var == 0.0 || s.var.is_nan());
                0.0
            }
            Some(s) => (s.var / self.trials as f64).sqrt(),
        }
    }

    /// Half-width of the 95% CI of a named statistic.
    pub fn ci95_half(&self, name: &str) -> f64 {
        1.96 * self.sem(name)
    }

    /// Serialises to one NDJSON line (no trailing newline). Floats use
    /// shortest-roundtrip formatting, so [`Record::from_json_line`]
    /// restores them bit-identically.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str(&format!(
            "{{\"cell\":{},\"key\":{},\"family\":{},\"n\":{},\"measure\":{},\"backend\":{},\"trials\":{},\"error\":{},\"stats\":[",
            self.cell,
            fmt_str(&self.key),
            fmt_str(&self.family),
            self.n,
            fmt_str(&self.measure),
            fmt_str(&self.backend),
            self.trials,
            match &self.error {
                None => "null".to_string(),
                Some(e) => fmt_str(e),
            },
        ));
        for (i, st) in self.stats.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"stat\":{},\"mean\":{},\"var\":{},\"min\":{},\"max\":{}}}",
                fmt_str(&st.name),
                fmt_f64(st.mean),
                fmt_f64(st.var),
                fmt_f64(st.min),
                fmt_f64(st.max),
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses one NDJSON line produced by [`Record::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let obj = v.as_obj().ok_or("record line is not a JSON object")?;
        let field = |k: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        let num = |k: &str| -> Result<f64, String> {
            field(k)?
                .as_num()
                .ok_or_else(|| format!("{k:?} not a number"))
        };
        let string = |k: &str| -> Result<String, String> {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{k:?} not a string"))
        };
        let stats_json = field("stats")?.as_arr().ok_or("\"stats\" not an array")?;
        let mut stats = Vec::with_capacity(stats_json.len());
        for sj in stats_json {
            let so = sj.as_obj().ok_or("stat entry not an object")?;
            let sfield = |k: &str| -> Result<f64, String> {
                so.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.as_num())
                    .ok_or_else(|| format!("stat field {k:?} missing or not a number"))
            };
            let name = so
                .iter()
                .find(|(key, _)| key == "stat")
                .and_then(|(_, v)| v.as_str())
                .ok_or("stat entry missing \"stat\" name")?
                .to_string();
            stats.push(StatSummary {
                name,
                mean: sfield("mean")?,
                var: sfield("var")?,
                min: sfield("min")?,
                max: sfield("max")?,
            });
        }
        let error = match field("error")? {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            _ => return Err("\"error\" must be null or a string".into()),
        };
        Ok(Record {
            cell: num("cell")? as usize,
            key: string("key")?,
            family: string("family")?,
            n: num("n")? as usize,
            measure: string("measure")?,
            backend: string("backend")?,
            trials: num("trials")? as u64,
            stats,
            error,
        })
    }
}

/// Reads all records from NDJSON text, skipping blank lines.
///
/// # Errors
///
/// Returns the first malformed line's error, tagged with its line number.
pub fn parse_ndjson(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::from_json_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// A malformed tail found (and skipped) by [`parse_ndjson_lossy`].
#[derive(Clone, Debug, PartialEq)]
pub struct TornTail {
    /// 1-based line number of the first malformed line.
    pub line: usize,
    /// Byte offset of that line's start — the prefix `text[..offset]` is
    /// the well-formed part a repair should truncate the file to.
    pub offset: usize,
    /// Why the line failed to parse.
    pub error: String,
}

/// Crash-tolerant checkpoint parse: reads records up to the first
/// malformed line and reports that line as a [`TornTail`] instead of
/// failing — a process killed mid-`write` leaves exactly this shape
/// (complete lines, then one torn line at the end). Everything after the
/// torn line is ignored; callers that find interior garbage followed by
/// more data are looking at a corrupt (not torn) file and can tell by
/// checking `offset` against the text length.
pub fn parse_ndjson_lossy(text: &str) -> (Vec<Record>, Option<TornTail>) {
    let mut records = Vec::new();
    let mut offset = 0;
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            match Record::from_json_line(line) {
                Ok(r) => records.push(r),
                Err(e) => {
                    return (
                        records,
                        Some(TornTail {
                            line: i + 1,
                            offset,
                            error: e,
                        }),
                    )
                }
            }
        }
        // `lines()` strips the terminator; step past it when present
        offset += line.len();
        if text[offset..].starts_with("\r\n") {
            offset += 2;
        } else if text[offset..].starts_with('\n') {
            offset += 1;
        }
    }
    (records, None)
}

/// Reads an NDJSON checkpoint file — the one reader behind the CLI's
/// `--resume` and the job server's re-scan. A missing file is an empty
/// checkpoint. A torn *final* line (the shape a kill mid-`write` leaves)
/// is dropped with a note on stderr and truncated away on disk, so
/// records appended later start on a fresh line; its cell simply re-runs.
///
/// # Errors
///
/// Unreadable files, a failed truncation, and interior garbage: a
/// malformed line followed by more lines means the file is foreign or
/// corrupt, not crash-cut. What such a file costs is the caller's policy.
pub fn read_checkpoint(path: &Path) -> Result<Vec<Record>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path).map_err(|e| format!("checkpoint unreadable: {e}"))?;
    let (records, tail) = parse_ndjson_lossy(&text);
    if let Some(tail) = tail {
        if text[tail.offset..].trim_end().contains('\n') {
            return Err(format!(
                "malformed checkpoint at line {}: {}",
                tail.line, tail.error
            ));
        }
        eprintln!(
            "# {}: dropping torn final line {} ({})",
            path.display(),
            tail.line,
            tail.error
        );
        fs::write(path, &text[..tail.offset])
            .map_err(|e| format!("cannot truncate torn checkpoint: {e}"))?;
    }
    Ok(records)
}

/// A streamed runner event.
#[derive(Clone, Debug)]
pub enum Event<'a> {
    /// A cell was activated (its instance resolved, trials starting).
    Started {
        /// Cell id.
        cell: usize,
        /// The cell's fingerprint key.
        key: &'a str,
    },
    /// A [`CHUNK`](crate::runner::CHUNK) of a cell's trials folded
    /// (chunk-grained progress: what a serving layer aggregates into live
    /// trial counts and steps/s).
    /// Counts are *deltas* for the one chunk, not cumulative totals.
    Chunk {
        /// Cell id.
        cell: usize,
        /// Trials the chunk completed.
        trials: u64,
        /// Walk steps those trials performed.
        steps: u64,
    },
    /// An adaptive cell finished a round without meeting its budget yet.
    Progress {
        /// Cell id.
        cell: usize,
        /// Trials completed so far.
        trials_done: u64,
        /// Current relative CI half-width of the primary statistic.
        relative_ci: f64,
    },
    /// A cell completed (successfully or with an error record).
    Done {
        /// The completed record.
        record: &'a Record,
        /// Whether it was restored from a checkpoint rather than run.
        resumed: bool,
    },
}

/// Receives streamed events from the runner. Implementations must be
/// `Send`: the runner's worker threads emit events under an internal lock.
pub trait Sink: Send {
    /// Handles one event.
    fn on_event(&mut self, event: &Event);

    /// Called once after every cell has completed.
    fn finish(&mut self) {}
}

/// Collects records (and counts the other events) in memory.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Completed records, sorted by cell id at [`Sink::finish`].
    pub records: Vec<Record>,
    /// Number of `Started` events seen.
    pub started: usize,
    /// Number of `Chunk` events seen.
    pub chunks: usize,
    /// Trials summed over `Chunk` events.
    pub trials: u64,
    /// Walk steps summed over `Chunk` events.
    pub steps: u64,
    /// Number of `Progress` events seen.
    pub progress: usize,
    /// Number of resumed records among `records`.
    pub resumed: usize,
}

impl Sink for MemorySink {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::Started { .. } => self.started += 1,
            Event::Chunk { trials, steps, .. } => {
                self.chunks += 1;
                self.trials += trials;
                self.steps += steps;
            }
            Event::Progress { .. } => self.progress += 1,
            Event::Done { record, resumed } => {
                self.records.push((*record).clone());
                if *resumed {
                    self.resumed += 1;
                }
            }
        }
    }

    fn finish(&mut self) {
        self.records.sort_by_key(|r| r.cell);
    }
}

/// Streams records as NDJSON lines, flushing after each one (so a killed
/// run leaves a usable checkpoint).
pub struct NdjsonSink<W: Write + Send> {
    w: W,
    include_resumed: bool,
}

impl<W: Write + Send> NdjsonSink<W> {
    /// Writes every completed record (output mode).
    pub fn new(w: W) -> Self {
        NdjsonSink {
            w,
            include_resumed: true,
        }
    }

    /// Writes only freshly computed records (checkpoint mode: resumed
    /// records are already in the file being appended to).
    pub fn checkpoint(w: W) -> Self {
        NdjsonSink {
            w,
            include_resumed: false,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> Sink for NdjsonSink<W> {
    fn on_event(&mut self, event: &Event) {
        if let Event::Done { record, resumed } = event {
            if *resumed && !self.include_resumed {
                return;
            }
            // checkpoint durability beats raw throughput here: records are
            // rare (one per cell), so write + flush each line
            let _ = writeln!(self.w, "{}", record.to_json_line());
            let _ = self.w.flush();
        }
    }

    fn finish(&mut self) {
        let _ = self.w.flush();
    }
}

/// Builds the generic long-format table (one row per cell × statistic).
fn long_table(records: &[Record]) -> crate::table::TextTable {
    let mut t = crate::table::TextTable::new([
        "cell", "family", "n", "measure", "backend", "trials", "stat", "mean", "sem", "ci95",
        "min", "max", "error",
    ]);
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by_key(|r| r.cell);
    for r in sorted {
        let err = r.error.clone().unwrap_or_default();
        if r.stats.is_empty() {
            t.push_row([
                r.cell.to_string(),
                r.family.clone(),
                r.n.to_string(),
                r.measure.clone(),
                r.backend.clone(),
                r.trials.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                err.clone(),
            ]);
            continue;
        }
        for s in &r.stats {
            t.push_row([
                r.cell.to_string(),
                r.family.clone(),
                r.n.to_string(),
                r.measure.clone(),
                r.backend.clone(),
                r.trials.to_string(),
                s.name.clone(),
                crate::table::fmt_f(s.mean),
                crate::table::fmt_f(r.sem(&s.name)),
                crate::table::fmt_f(r.ci95_half(&s.name)),
                crate::table::fmt_f(s.min),
                crate::table::fmt_f(s.max),
                err.clone(),
            ]);
        }
    }
    t
}

/// Renders the generic long-format table as aligned text on `finish`.
pub struct TextSink<W: Write + Send> {
    w: W,
    records: Vec<Record>,
}

impl<W: Write + Send> TextSink<W> {
    /// A text sink writing to `w`.
    pub fn new(w: W) -> Self {
        TextSink {
            w,
            records: Vec::new(),
        }
    }
}

impl<W: Write + Send> Sink for TextSink<W> {
    fn on_event(&mut self, event: &Event) {
        if let Event::Done { record, .. } = event {
            self.records.push((*record).clone());
        }
    }

    fn finish(&mut self) {
        let _ = write!(self.w, "{}", long_table(&self.records).render());
        let _ = self.w.flush();
    }
}

/// Renders the generic long-format table as CSV on `finish`.
pub struct CsvSink<W: Write + Send> {
    w: W,
    records: Vec<Record>,
}

impl<W: Write + Send> CsvSink<W> {
    /// A CSV sink writing to `w`.
    pub fn new(w: W) -> Self {
        CsvSink {
            w,
            records: Vec::new(),
        }
    }
}

impl<W: Write + Send> Sink for CsvSink<W> {
    fn on_event(&mut self, event: &Event) {
        if let Event::Done { record, .. } = event {
            self.records.push((*record).clone());
        }
    }

    fn finish(&mut self) {
        let _ = write!(self.w, "{}", long_table(&self.records).to_csv());
        let _ = self.w.flush();
    }
}

/// Broadcasts every event to several sinks.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Sink>>,
}

impl Fanout {
    /// An empty fanout (a valid no-op sink).
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// Builder-style [`Fanout::push`].
    #[must_use]
    pub fn with(mut self, sink: Box<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Sink for Fanout {
    fn on_event(&mut self, event: &Event) {
        for s in &mut self.sinks {
            s.on_event(event);
        }
    }

    fn finish(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record {
            cell: 3,
            key: "cycle:n32:seq:explicit:t100:m2a:g0".into(),
            family: "cycle".into(),
            n: 32,
            measure: "seq".into(),
            backend: "explicit".into(),
            trials: 100,
            stats: vec![
                StatSummary {
                    name: "time".into(),
                    mean: 462.512_345_678_901,
                    var: 0.1 + 0.2, // deliberately non-representable
                    min: 101.0,
                    max: 903.0,
                },
                StatSummary {
                    name: "t_half".into(),
                    mean: 30.5,
                    var: 2.25,
                    min: 21.0,
                    max: 44.0,
                },
            ],
            error: None,
        }
    }

    #[test]
    fn record_json_roundtrip_is_exact() {
        let r = sample_record();
        let line = r.to_json_line();
        let back = Record::from_json_line(&line).unwrap();
        assert_eq!(back, r);
        // and a second roundtrip is stable
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn record_json_roundtrip_with_error_and_weird_strings() {
        let mut r = sample_record();
        r.error = Some("parallel run exceeded step cap 4 with 3 \"particles\"\nunsettled".into());
        r.key = "weird\\key\twith\u{1F980}unicode".into();
        r.stats.clear();
        r.trials = 0;
        let back = Record::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        let mut r = sample_record();
        r.stats[0].min = f64::INFINITY;
        r.stats[0].max = f64::NEG_INFINITY;
        let back = Record::from_json_line(&r.to_json_line()).unwrap();
        assert_eq!(back.stats[0].min, f64::INFINITY);
        assert_eq!(back.stats[0].max, f64::NEG_INFINITY);
    }

    #[test]
    fn parse_ndjson_reports_line_numbers() {
        let r = sample_record();
        let good = format!("{}\n\n{}\n", r.to_json_line(), r.to_json_line());
        assert_eq!(parse_ndjson(&good).unwrap().len(), 2);
        let bad = format!("{}\nnot json\n", r.to_json_line());
        let err = parse_ndjson(&bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn record_sem_and_ci() {
        let r = sample_record();
        let sem = (r.stats[1].var / 100.0f64).sqrt();
        assert!((r.sem("t_half") - sem).abs() < 1e-15);
        assert!((r.ci95_half("t_half") - 1.96 * sem).abs() < 1e-15);
        assert!(r.sem("nope").is_nan());
        assert!(r.mean("nope").is_nan());
    }

    #[test]
    fn ndjson_sink_checkpoint_mode_skips_resumed() {
        let r = sample_record();
        let mut out = NdjsonSink::checkpoint(Vec::new());
        out.on_event(&Event::Done {
            record: &r,
            resumed: true,
        });
        out.on_event(&Event::Done {
            record: &r,
            resumed: false,
        });
        out.finish();
        let text = String::from_utf8(out.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 1);
        let mut all = NdjsonSink::new(Vec::new());
        all.on_event(&Event::Done {
            record: &r,
            resumed: true,
        });
        all.finish();
        assert_eq!(
            String::from_utf8(all.into_inner()).unwrap().lines().count(),
            1
        );
    }

    #[test]
    fn memory_sink_sorts_and_counts() {
        let mut r1 = sample_record();
        r1.cell = 7;
        let r2 = sample_record();
        let mut m = MemorySink::default();
        m.on_event(&Event::Started { cell: 3, key: "k" });
        m.on_event(&Event::Progress {
            cell: 3,
            trials_done: 30,
            relative_ci: 0.1,
        });
        m.on_event(&Event::Done {
            record: &r1,
            resumed: true,
        });
        m.on_event(&Event::Done {
            record: &r2,
            resumed: false,
        });
        m.finish();
        assert_eq!(m.started, 1);
        assert_eq!(m.progress, 1);
        assert_eq!(m.resumed, 1);
        assert_eq!(m.records[0].cell, 3);
        assert_eq!(m.records[1].cell, 7);
    }

    #[test]
    fn text_and_csv_sinks_render_long_format() {
        let r = sample_record();
        let mut t = TextSink::new(Vec::new());
        t.on_event(&Event::Done {
            record: &r,
            resumed: false,
        });
        t.finish();
        let text = String::from_utf8(t.w).unwrap();
        assert!(text.contains("t_half"), "{text}");
        let mut c = CsvSink::new(Vec::new());
        c.on_event(&Event::Done {
            record: &r,
            resumed: false,
        });
        c.finish();
        let csv = String::from_utf8(c.w).unwrap();
        assert!(csv.starts_with("cell,family,n,"), "{csv}");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn fanout_broadcasts() {
        let r = sample_record();
        let mut f = Fanout::new()
            .with(Box::new(MemorySink::default()))
            .with(Box::new(MemorySink::default()));
        f.on_event(&Event::Done {
            record: &r,
            resumed: false,
        });
        f.finish();
        // both swallowed the record without panicking; Fanout is opaque, so
        // just assert the call path ran
        f.push(Box::new(MemorySink::default()));
    }

    #[test]
    fn lossy_parse_stops_at_torn_tail() {
        let r = sample_record();
        let line = r.to_json_line();
        // a kill mid-write tears the final line at an arbitrary byte
        let torn = format!("{line}\n{line}\n{}", &line[..line.len() / 2]);
        let (records, tail) = parse_ndjson_lossy(&torn);
        assert_eq!(records.len(), 2);
        let tail = tail.expect("torn tail detected");
        assert_eq!(tail.line, 3);
        assert_eq!(&torn[..tail.offset], &format!("{line}\n{line}\n"));
        // a clean file has no tail
        let (records, tail) = parse_ndjson_lossy(&format!("{line}\n\n{line}\n"));
        assert_eq!(records.len(), 2);
        assert!(tail.is_none());
        // empty input parses to nothing
        assert_eq!(parse_ndjson_lossy(""), (Vec::new(), None));
    }

    #[test]
    fn missing_checkpoint_is_empty() {
        let p = std::env::temp_dir().join("sim_sink_no_such_checkpoint.ndjson");
        let _ = fs::remove_file(&p);
        assert_eq!(read_checkpoint(&p), Ok(Vec::new()));
        assert!(!p.exists(), "reading must not create the file");
    }
}
