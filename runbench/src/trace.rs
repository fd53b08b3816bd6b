//! Bench-side spans for the traced run.
//!
//! Spans are kept in memory (one `Vec` push per boundary) and written
//! out once the run ends. Each span carries the counts observed at its
//! boundaries: allocator deltas on every span, `SimStats` deltas on the
//! run windows, and the program's own profile table on each cell.

use serde::Value;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Cell index within the pass (`None` on pass spans).
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span at `start`; close it later with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        start: Instant,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, end: Instant, counts: Vec<(&'static str, u64)>) {
        self.spans[id].end_ns = self.ns(end);
        self.spans[id].counts = counts;
    }

    /// A span whose bounds are already known.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        bounds: (Instant, Instant),
        counts: Vec<(&'static str, u64)>,
    ) -> usize {
        let id = self.open(name, parent, cell, bounds.0);
        self.close(id, bounds.1, counts);
        id
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: occurrences, total and self time (ms), in first-seen
    /// order.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let selfs = self.self_ns();
        let mut out: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let row = match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => r,
                None => {
                    out.push((s.name, 0, 0.0, 0.0));
                    out.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.dur_ns() as f64 / 1e6;
            row.3 += own as f64 / 1e6;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let selfs = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, own))| {
                let opt = |v: Option<usize>| v.map_or(Value::Null, |x| Value::U64(x as u64));
                let counts = s
                    .counts
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Value::U64(v)))
                    .collect();
                Value::Object(vec![
                    ("id".into(), Value::U64(id as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("parent".into(), opt(s.parent)),
                    ("cell".into(), opt(s.cell)),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("self_ns".into(), Value::U64(own)),
                    ("counts".into(), Value::Object(counts)),
                ])
            })
            .collect();
        Value::Array(spans)
    }
}
