//! In-memory span recorder for the traced replay.
//!
//! A span is (name, start, end, parent, job index). Spans live in one
//! `Vec` for the whole process and are written out once, at exit, so
//! recording costs two `Instant::now()` calls and a push. Spans timed on
//! pool worker threads are handed back with the job's result and recorded
//! by the main thread as children of the pool call that ran them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s value and the span's id.
    pub fn span_id<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        (out, id)
    }

    /// [`span_id`](Self::span_id) without the id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        self.span_id(name, job, f).0
    }

    /// Records an interval timed elsewhere (a worker thread) as a child
    /// of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, job: Option<u64>) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            job,
        };
        self.spans.push(span);
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Spans recorded since `first` (the id a replay started at).
    pub fn since(&self, first: usize) -> &[Span] {
        &self.spans[first..]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans with ids `first..`: each
    /// span's duration minus the part of it covered by the union of its
    /// children's intervals (children on worker threads overlap, so the
    /// union, not the sum, is subtracted).
    pub fn self_times(&self, first: usize) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for span in self.since(first) {
            if let Some(parent) = span.parent.filter(|&p| p >= first) {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut totals = BTreeMap::new();
        for (offset, span) in self.since(first).iter().enumerate() {
            let covered = children
                .get_mut(&(first + offset))
                .map_or(0, |kids| union_within(kids, span.start_ns, span.end_ns));
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *totals.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let job = span.job.map_or("null".to_owned(), |j| j.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{job}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Nearest-rank quantile (`q` in (0, 1]) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Durations, in seconds, of the spans named `name` in `spans`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut kids = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(union_within(&mut kids, 0, 25), 3 + 7 + 5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
