//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers, written out once at the end of a traced run.
//!
//! A span is (name, start, end, parent, request id). Self time is the
//! span's duration minus the part of it its direct children cover.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for non-request work).
    pub request: u64,
}

/// Spans of one thread (merged with [`SpanLog::absorb`]).
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// An instant on this log's clock.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a root span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.now_ns();
        let out = f();
        let t1 = self.now_ns();
        self.record(name, t0, t1, None, 0);
        (out, (t1 - t0) as f64 / 1e9)
    }

    /// Append another log's spans (re-indexing their parent links). Both
    /// logs must share an epoch.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: duration minus its children's coverage
    /// (children of one parent are sequential in this benchmark, so their
    /// durations are summed).
    pub fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Per-name totals: count, total and self nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        by_name
    }

    /// The log as JSON: the per-name summary plus the first `max_spans`
    /// raw spans with their self times.
    pub fn to_value(&self, max_spans: usize) -> Value {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&self_times)
            .take(max_spans)
            .map(|(s, &self_ns)| {
                let mut o = vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("start_ns".to_string(), Value::UInt(s.start_ns)),
                    ("end_ns".to_string(), Value::UInt(s.end_ns)),
                    ("self_ns".to_string(), Value::UInt(self_ns)),
                    ("request".to_string(), Value::UInt(s.request)),
                ];
                if let Some(p) = s.parent {
                    o.push(("parent".to_string(), Value::UInt(p as u64)));
                }
                Value::Object(o)
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("count".to_string(), Value::UInt(count)),
                        ("total_ns".to_string(), Value::UInt(total)),
                        ("self_ns".to_string(), Value::UInt(self_ns)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("summary".to_string(), Value::Object(summary)),
            (
                "span_count".to_string(),
                Value::UInt(self.spans.len() as u64),
            ),
            ("spans".to_string(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.record("req", 0, 100, None, 1);
        log.record("write", 0, 30, Some(root), 1);
        log.record("read", 30, 90, Some(root), 1);
        assert_eq!(log.self_times(), vec![10, 30, 60]);
        assert_eq!(log.summary()["req"], (1, 100, 10));
    }
}
