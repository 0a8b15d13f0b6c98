//! JSON export of metrics snapshots and span aggregates — the payload
//! behind `--metrics-out`.
//!
//! Rendering is hand-rolled (this crate takes no dependencies): metric
//! names are the only strings that need escaping, and all values are
//! unsigned integers. Maps come from `BTreeMap`s, so key order — and
//! therefore the whole document — is deterministic for a given snapshot.
//!
//! Schema (`"schema": "pml-obs/v2"`) — a strict superset of `pml-obs/v1`:
//! every v1 key (`metrics_total`, `counters`, `gauges`, `histograms`,
//! optional `spans`) is unchanged, and v2 adds `window_counters`,
//! `window_histograms` (live-window aggregates from
//! [`crate::window`], with bucket-bound `p50`/`p99` precomputed) and an
//! always-present `events` section (sink depth and drop accounting):
//!
//! ```json
//! {
//!   "schema": "pml-obs/v2",
//!   "metrics_total": 12,
//!   "counters": {"dataset.cache.hit": 3},
//!   "gauges": {"train.model.features": 5},
//!   "histograms": {
//!     "table.fallback.depth": {
//!       "bounds": [0, 1, 2, 3],
//!       "counts": [10, 2, 0, 1],
//!       "overflow": 0, "sum": 5, "count": 13
//!     }
//!   },
//!   "window_counters": {
//!     "serve.window.requests": {"slot_ns": 1000000000, "slots": 10, "total": 412}
//!   },
//!   "window_histograms": {
//!     "serve.stage.predict_ns": {
//!       "slot_ns": 1000000000, "slots": 10,
//!       "bounds": [250, 500], "counts": [3, 1],
//!       "overflow": 0, "sum": 1350, "count": 4, "p50": 250, "p99": 500
//!     }
//!   },
//!   "events": {"buffered": 2, "dropped": 0, "info": 1, "warn": 1, "error": 0},
//!   "spans": [
//!     {"name": "table", "count": 1, "total_ns": 52000, "self_ns": 1000}
//!   ]
//! }
//! ```
//!
//! The `spans` section is present only when a [`SpanForest`] is supplied
//! (tracing was enabled for the run).

use crate::metrics::MetricsSnapshot;
use crate::trace::SpanForest;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).ok();
            }
            c => out.push(c),
        }
    }
    out
}

fn write_u64_list(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "{v}").ok();
    }
    out.push(']');
}

/// Render a metrics snapshot (and optional span aggregates) as the
/// `pml-obs/v2` JSON document (a strict superset of v1).
pub fn metrics_json(snapshot: &MetricsSnapshot, spans: Option<&SpanForest>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"schema\": \"pml-obs/v2\",").ok();
    writeln!(out, "  \"metrics_total\": {},", snapshot.total_metrics()).ok();

    out.push_str("  \"counters\": {");
    for (i, (name, v)) in snapshot.counters.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}\n    \"{}\": {v}", escape(name)).ok();
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"gauges\": {");
    for (i, (name, v)) in snapshot.gauges.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}\n    \"{}\": {v}", escape(name)).ok();
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}\n    \"{}\": {{\"bounds\": ", escape(name)).ok();
        write_u64_list(&mut out, &h.bounds);
        out.push_str(", \"counts\": ");
        write_u64_list(&mut out, &h.counts);
        write!(
            out,
            ", \"overflow\": {}, \"sum\": {}, \"count\": {}}}",
            h.overflow, h.sum, h.count
        )
        .ok();
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"window_counters\": {");
    for (i, (name, w)) in snapshot.window_counters.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(
            out,
            "{sep}\n    \"{}\": {{\"slot_ns\": {}, \"slots\": {}, \"total\": {}}}",
            escape(name),
            w.slot_ns,
            w.slots,
            w.total
        )
        .ok();
    }
    if !snapshot.window_counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"window_histograms\": {");
    for (i, (name, w)) in snapshot.window_histograms.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(
            out,
            "{sep}\n    \"{}\": {{\"slot_ns\": {}, \"slots\": {}, \"bounds\": ",
            escape(name),
            w.slot_ns,
            w.slots
        )
        .ok();
        write_u64_list(&mut out, &w.bounds);
        out.push_str(", \"counts\": ");
        write_u64_list(&mut out, &w.counts);
        write!(
            out,
            ", \"overflow\": {}, \"sum\": {}, \"count\": {}, \"p50\": {}, \"p99\": {}}}",
            w.overflow,
            w.sum,
            w.count,
            w.quantile(0.5),
            w.quantile(0.99)
        )
        .ok();
    }
    if !snapshot.window_histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    let ev = &snapshot.events;
    write!(
        out,
        "  \"events\": {{\"buffered\": {}, \"dropped\": {}, \"info\": {}, \"warn\": {}, \"error\": {}}}",
        ev.buffered, ev.dropped, ev.info, ev.warn, ev.error
    )
    .ok();

    if let Some(forest) = spans {
        out.push_str(",\n  \"spans\": [");
        for (i, (name, stats)) in forest.aggregate().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(
                out,
                "{sep}\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                escape(name),
                stats.count,
                stats.total_nanos,
                stats.self_nanos
            )
            .ok();
        }
        if !forest.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
    }

    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventsSnapshot;
    use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
    use crate::trace::{SpanForest, SpanRecord};
    use crate::window::{WindowCounterSnapshot, WindowHistogramSnapshot};

    // The vendored serde `Value` has no `Index` impls; look keys up in the
    // object's pair list directly.
    fn get<'a>(v: &'a serde_json::JsonValue, key: &str) -> &'a serde_json::JsonValue {
        v.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key))
            .map(|(_, val)| val)
            .unwrap_or_else(|| panic!("missing key `{key}`"))
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("tuner.cache.hit".into(), 3);
        snap.counters.insert("tuner.cache.miss".into(), 1);
        snap.gauges.insert("train.model.features".into(), 5);
        snap.histograms.insert(
            "table.fallback.depth".into(),
            HistogramSnapshot {
                bounds: vec![0, 1, 2, 3],
                counts: vec![10, 2, 0, 1],
                overflow: 0,
                sum: 5,
                count: 13,
            },
        );
        snap.window_counters.insert(
            "serve.window.requests".into(),
            WindowCounterSnapshot {
                slot_ns: 1_000_000_000,
                slots: 10,
                total: 412,
            },
        );
        snap.window_histograms.insert(
            "serve.stage.predict_ns".into(),
            WindowHistogramSnapshot {
                slot_ns: 1_000_000_000,
                slots: 10,
                bounds: vec![250, 500],
                counts: vec![3, 1],
                overflow: 0,
                sum: 1350,
                count: 4,
            },
        );
        snap.events = EventsSnapshot {
            buffered: 2,
            dropped: 7,
            info: 1,
            warn: 1,
            error: 0,
        };
        snap
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain.name"), "plain.name");
    }

    /// Schema round-trip: render → parse with serde_json → rebuild the
    /// snapshot → equal. Guards both JSON validity and field fidelity.
    #[test]
    fn metrics_json_roundtrips_through_serde() {
        let snap = sample_snapshot();
        let json = metrics_json(&snap, None);
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(get(&v, "schema").as_str(), Some("pml-obs/v2"));
        assert_eq!(get(&v, "metrics_total").as_u64(), Some(6));

        let mut back = MetricsSnapshot::default();
        for (k, val) in get(&v, "counters").as_object().expect("counters object") {
            back.counters
                .insert(k.clone(), val.as_u64().expect("counter u64"));
        }
        for (k, val) in get(&v, "gauges").as_object().expect("gauges object") {
            back.gauges
                .insert(k.clone(), val.as_u64().expect("gauge u64"));
        }
        for (k, h) in get(&v, "histograms")
            .as_object()
            .expect("histograms object")
        {
            let nums = |field: &str| -> Vec<u64> {
                get(h, field)
                    .as_array()
                    .expect("array")
                    .iter()
                    .map(|x| x.as_u64().expect("u64"))
                    .collect()
            };
            back.histograms.insert(
                k.clone(),
                HistogramSnapshot {
                    bounds: nums("bounds"),
                    counts: nums("counts"),
                    overflow: get(h, "overflow").as_u64().expect("overflow"),
                    sum: get(h, "sum").as_u64().expect("sum"),
                    count: get(h, "count").as_u64().expect("count"),
                },
            );
        }
        let u = |v: &serde_json::JsonValue, field: &str| -> u64 {
            get(v, field)
                .as_u64()
                .unwrap_or_else(|| panic!("{field} u64"))
        };
        for (k, w) in get(&v, "window_counters")
            .as_object()
            .expect("window_counters object")
        {
            back.window_counters.insert(
                k.clone(),
                WindowCounterSnapshot {
                    slot_ns: u(w, "slot_ns"),
                    slots: u(w, "slots"),
                    total: u(w, "total"),
                },
            );
        }
        for (k, w) in get(&v, "window_histograms")
            .as_object()
            .expect("window_histograms object")
        {
            let nums = |field: &str| -> Vec<u64> {
                get(w, field)
                    .as_array()
                    .expect("array")
                    .iter()
                    .map(|x| x.as_u64().expect("u64"))
                    .collect()
            };
            // The exported p50/p99 are derived, not state: they must agree
            // with a recomputation from the buckets.
            let rebuilt = WindowHistogramSnapshot {
                slot_ns: u(w, "slot_ns"),
                slots: u(w, "slots"),
                bounds: nums("bounds"),
                counts: nums("counts"),
                overflow: u(w, "overflow"),
                sum: u(w, "sum"),
                count: u(w, "count"),
            };
            assert_eq!(u(w, "p50"), rebuilt.quantile(0.5));
            assert_eq!(u(w, "p99"), rebuilt.quantile(0.99));
            back.window_histograms.insert(k.clone(), rebuilt);
        }
        let ev = get(&v, "events");
        back.events = EventsSnapshot {
            buffered: u(ev, "buffered"),
            dropped: u(ev, "dropped"),
            info: u(ev, "info"),
            warn: u(ev, "warn"),
            error: u(ev, "error"),
        };
        assert_eq!(back, snap);
    }

    #[test]
    fn span_section_appears_only_with_a_forest() {
        let snap = sample_snapshot();
        assert!(!metrics_json(&snap, None).contains("\"spans\""));

        let forest = SpanForest::from_records(vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "table",
                fields: vec![],
                start_nanos: 0,
                end_nanos: 100,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "train",
                fields: vec![],
                start_nanos: 10,
                end_nanos: 60,
            },
        ]);
        let json = metrics_json(&snap, Some(&forest));
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        let spans = get(&v, "spans").as_array().expect("spans array");
        assert_eq!(spans.len(), 2);
        let table = spans
            .iter()
            .find(|s| get(s, "name").as_str() == Some("table"))
            .expect("table");
        assert_eq!(get(table, "total_ns").as_u64(), Some(100));
        assert_eq!(get(table, "self_ns").as_u64(), Some(50));
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let json = metrics_json(&MetricsSnapshot::default(), None);
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(get(&v, "metrics_total").as_u64(), Some(0));
        assert!(get(&v, "counters").as_object().expect("obj").is_empty());
    }
}
