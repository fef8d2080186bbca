//! In-memory spans for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written out as one JSON array.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, `<module>.<call>` (e.g. `serve.client.submit`).
    pub name: &'static str,
    /// Start, in nanoseconds after the tracer was created.
    pub start: u64,
    /// End (0 while the span is open).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Job or cell id the call worked for.
    pub id: u64,
}

/// A span store shared by the benchmark's threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced thread panicked")
    }

    /// Opens a span now and returns its index.
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Closes span `idx` now.
    pub fn close(&self, idx: usize) {
        let end = self.now();
        self.lock()[idx].end = end;
    }

    /// Start of span `idx`.
    pub fn start_of(&self, idx: usize) -> u64 {
        self.lock()[idx].start
    }

    /// Records a finished span with explicit bounds.
    pub fn record(&self, name: &'static str, start: u64, end: u64, parent: Option<usize>, id: u64) {
        self.lock().push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part of it that its children cover, summed over the spans whose
    /// name starts with the layer (`serve.client`, `sim.spec`, …).
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let spans = self.lock();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            let covered = union_within(&mut children[i], s.start, s.end);
            let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l);
            *out.entry(layer.to_string()).or_insert(0.0) +=
                dur.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// The spans as a JSON array (times in nanoseconds).
    pub fn to_json(&self) -> String {
        let spans = self.lock();
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"id\":{}}}",
                    s.name,
                    s.start,
                    s.end,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.id
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let s = t.open(name, parent, id);
            let out = f();
            t.close(s);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let t = Tracer::default();
        t.record("a.root", 0, 100, None, 0);
        t.record("b.child", 10, 40, Some(0), 0);
        t.record("b.child", 30, 60, Some(0), 1);
        t.record("b.child", 90, 120, Some(0), 2);
        let st = t.self_times();
        // children cover [10, 60) and [90, 100) of the root
        assert!((st["a"] - 40e-9).abs() < 1e-15);
        assert!((st["b"] - 90e-9).abs() < 1e-15);
    }
}
