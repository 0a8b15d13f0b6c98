//! The `pml-serve/v1` wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one reply per line, strictly in order. Every
//! frame carries the protocol version (`"v": "pml-serve/v1"`) so a client
//! and daemon from different builds fail loudly instead of misparsing each
//! other, and an optional `"id"` the reply echoes so clients may pipeline.
//!
//! The contract that matters: **a bad frame is answered, never dropped**.
//! Malformed JSON, a missing version, an unknown op, a bad field — each
//! maps to a typed error reply (`{"ok": false, "error": {"kind": ...}}`)
//! on the same connection, which stays open. Only EOF or a transport error
//! closes a connection.
//!
//! Request frames:
//!
//! ```text
//! {"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":1024}
//! {"v":"pml-serve/v1","id":2,"op":"predict","cluster":"Frontera","collective":"allgather","nodes":16,"ppn":56,"msg_size":4096}
//! {"v":"pml-serve/v1","id":3,"op":"ping"}
//! {"v":"pml-serve/v1","id":4,"op":"stats"}
//! {"v":"pml-serve/v1","id":5,"op":"watch","interval_ms":1000,"count":3}
//! {"v":"pml-serve/v1","id":6,"op":"shutdown"}
//! ```
//!
//! `select` answers from the pre-computed tuning tables (compiled at load,
//! the constant-time path); `predict` runs the pre-trained forest through the
//! request batcher for job shapes no table covers. `watch` streams
//! periodic live-observability snapshots (windowed stage latencies, SLO
//! burn rate, selection-quality monitor) as one `ok` frame per tick:
//! `count` frames at `interval_ms` spacing, `count: 0` meaning "until the
//! connection closes".

use pml_collectives::{Algorithm, Collective};
use pml_core::{FallbackDepth, JobConfig};
use serde::Value;

/// The frame version this build speaks.
pub const PROTOCOL_VERSION: &str = "pml-serve/v1";

/// Last-resort reply if JSON rendering itself fails (it cannot with the
/// vendored printer, but the daemon must never answer with nothing).
const RENDER_FALLBACK: &str = r#"{"v":"pml-serve/v1","ok":false,"error":{"kind":"internal","message":"reply render failed"}}"#;

/// Typed error category, the `error.kind` field of an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON, or not a JSON object.
    Parse,
    /// Missing or unsupported `"v"` field.
    Version,
    /// Missing or unknown `"op"` field.
    Op,
    /// A request field is missing, mistyped, or out of range.
    Field,
    /// The daemon lacks the artifact the request needs (no model for the
    /// collective, unknown cluster).
    Unsupported,
    /// The batch queue is full; retry after a backoff.
    Overload,
    /// A daemon-side failure unrelated to the request content.
    Internal,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Version => "version",
            ErrorKind::Op => "op",
            ErrorKind::Field => "field",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Overload => "overload",
            ErrorKind::Internal => "internal",
        }
    }
}

/// One protocol-level failure: what went wrong, for the error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    pub kind: ErrorKind,
    pub message: String,
}

impl ProtoError {
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }
}

/// A parsed request: the operation plus the client's optional frame id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub id: Option<u64>,
    pub op: Op,
}

/// The operations `pml-serve/v1` defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Tuning-table lookup (compiled at load, the constant-time path).
    Select {
        collective: Collective,
        job: JobConfig,
    },
    /// Batched forest inference for a named zoo cluster.
    Predict {
        cluster: String,
        collective: Collective,
        job: JobConfig,
    },
    /// Liveness probe.
    Ping,
    /// Counters: requests served, cache hits/misses, loaded artifacts.
    Stats,
    /// Stream live-observability snapshots: one frame every `interval_ms`
    /// milliseconds, `count` frames total (`0` = until the connection
    /// closes).
    Watch { interval_ms: u64, count: u64 },
    /// Ask the daemon to stop accepting and exit cleanly.
    Shutdown,
}

/// Default `watch` tick spacing when the frame omits `interval_ms`.
pub const WATCH_DEFAULT_INTERVAL_MS: u64 = 1000;

/// Wire name of a collective (`"allgather"`, ...). The inverse of the
/// `collective` request field.
pub fn collective_wire_name(c: Collective) -> &'static str {
    match c {
        Collective::Allgather => "allgather",
        Collective::Alltoall => "alltoall",
        Collective::Bcast => "bcast",
        Collective::Allreduce => "allreduce",
    }
}

fn parse_collective(s: &str) -> Option<Collective> {
    let want = s.to_ascii_lowercase();
    let want = want.trim_start_matches("mpi_");
    Collective::ALL
        .iter()
        .copied()
        .find(|c| collective_wire_name(*c) == want)
}

/// Parse one NDJSON line into a [`Request`]. On failure the error comes
/// back with whatever frame id could still be recovered, so even the error
/// reply stays correlatable when the frame was well-formed enough to carry
/// an `id`.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, ProtoError)> {
    let value: Value = serde_json::from_str(line.trim())
        .map_err(|e| (None, ProtoError::new(ErrorKind::Parse, e.to_string())))?;
    let obj = value.as_object().ok_or_else(|| {
        (
            None,
            ProtoError::new(
                ErrorKind::Parse,
                format!("frame must be a JSON object, got {}", value.kind()),
            ),
        )
    })?;
    // The id is recovered first so every later error can echo it.
    let id = match get(obj, "id") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            (
                None,
                ProtoError::new(ErrorKind::Field, "id must be a non-negative integer"),
            )
        })?),
    };
    let fail = |kind, msg: String| (id, ProtoError::new(kind, msg));
    match get(obj, "v").and_then(Value::as_str) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            let msg = format!(
                "unsupported protocol version {other:?} (daemon speaks {PROTOCOL_VERSION})"
            );
            return Err(fail(ErrorKind::Version, msg));
        }
        None => {
            return Err(fail(
                ErrorKind::Version,
                format!("missing \"v\" field (expected {PROTOCOL_VERSION:?})"),
            ))
        }
    }
    let op = match get(obj, "op").and_then(Value::as_str) {
        Some(op) => op,
        None => return Err(fail(ErrorKind::Op, "missing \"op\" field".to_string())),
    };
    let op = match op {
        "select" => Op::Select {
            collective: field_collective(obj).map_err(|e| (id, e))?,
            job: field_job(obj).map_err(|e| (id, e))?,
        },
        "predict" => Op::Predict {
            cluster: field_str(obj, "cluster").map_err(|e| (id, e))?.to_string(),
            collective: field_collective(obj).map_err(|e| (id, e))?,
            job: field_job(obj).map_err(|e| (id, e))?,
        },
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "watch" => Op::Watch {
            interval_ms: field_u64_or(obj, "interval_ms", WATCH_DEFAULT_INTERVAL_MS)
                .map_err(|e| (id, e))?,
            count: field_u64_or(obj, "count", 0).map_err(|e| (id, e))?,
        },
        "shutdown" => Op::Shutdown,
        other => {
            return Err(fail(
                ErrorKind::Op,
                format!("unknown op {other:?} (select, predict, ping, stats, watch, shutdown)"),
            ))
        }
    };
    Ok(Request { id, op })
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn field_str<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a str, ProtoError> {
    get(obj, key)
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError::new(ErrorKind::Field, format!("missing string field {key:?}")))
}

fn field_u64(obj: &[(String, Value)], key: &str) -> Result<u64, ProtoError> {
    get(obj, key).and_then(Value::as_u64).ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Field,
            format!("missing non-negative integer field {key:?}"),
        )
    })
}

/// An optional non-negative integer field: absent maps to `default`, but
/// a present-yet-mistyped value is still a field error, never ignored.
fn field_u64_or(obj: &[(String, Value)], key: &str, default: u64) -> Result<u64, ProtoError> {
    match get(obj, key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            ProtoError::new(
                ErrorKind::Field,
                format!("{key:?} must be a non-negative integer"),
            )
        }),
    }
}

fn field_collective(obj: &[(String, Value)]) -> Result<Collective, ProtoError> {
    let s = field_str(obj, "collective")?;
    parse_collective(s).ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Field,
            format!("unknown collective {s:?} (allgather, alltoall, bcast, allreduce)"),
        )
    })
}

fn field_job(obj: &[(String, Value)]) -> Result<JobConfig, ProtoError> {
    let ranged_u32 = |key: &str| -> Result<u32, ProtoError> {
        let raw = field_u64(obj, key)?;
        let v = u32::try_from(raw)
            .map_err(|_| ProtoError::new(ErrorKind::Field, format!("{key:?} out of range")))?;
        if v == 0 {
            return Err(ProtoError::new(
                ErrorKind::Field,
                format!("{key:?} must be >= 1"),
            ));
        }
        Ok(v)
    };
    let nodes = ranged_u32("nodes")?;
    let ppn = ranged_u32("ppn")?;
    let msg = field_u64(obj, "msg_size")?;
    let msg = usize::try_from(msg)
        .map_err(|_| ProtoError::new(ErrorKind::Field, "\"msg_size\" out of range"))?;
    Ok(JobConfig::new(nodes, ppn, msg))
}

// ---------------------------------------------------------------------------
// Reply rendering

fn frame(id: Option<u64>, ok: bool, extra: Vec<(String, Value)>) -> String {
    let mut pairs = vec![("v".to_string(), Value::Str(PROTOCOL_VERSION.to_string()))];
    if let Some(id) = id {
        pairs.push(("id".to_string(), Value::UInt(id)));
    }
    pairs.push(("ok".to_string(), Value::Bool(ok)));
    pairs.extend(extra);
    serde_json::to_string(&Value::Object(pairs)).unwrap_or_else(|_| RENDER_FALLBACK.to_string())
}

/// A successful reply with op-specific fields appended after `"ok": true`.
pub fn render_ok(id: Option<u64>, extra: Vec<(String, Value)>) -> String {
    frame(id, true, extra)
}

/// A `select` reply: the chosen algorithm plus the fallback depth (0 exact
/// table cell … 4 static default rules), mirroring [`FallbackDepth`].
pub fn render_select(id: Option<u64>, algo: Algorithm, depth: FallbackDepth) -> String {
    frame(
        id,
        true,
        vec![
            (
                "collective".to_string(),
                Value::Str(collective_wire_name(algo.collective()).to_string()),
            ),
            ("algorithm".to_string(), Value::Str(algo.name().to_string())),
            ("depth".to_string(), Value::UInt(depth.as_u64())),
        ],
    )
}

/// A `predict` reply: the model's pick for the requested job shape.
pub fn render_predict(id: Option<u64>, algo: Algorithm) -> String {
    frame(
        id,
        true,
        vec![
            (
                "collective".to_string(),
                Value::Str(collective_wire_name(algo.collective()).to_string()),
            ),
            ("algorithm".to_string(), Value::Str(algo.name().to_string())),
        ],
    )
}

/// A `ping` reply.
pub fn render_pong(id: Option<u64>) -> String {
    frame(id, true, vec![("pong".to_string(), Value::Bool(true))])
}

/// A typed error reply. The connection stays open after sending one.
pub fn render_error(id: Option<u64>, err: &ProtoError) -> String {
    frame(
        id,
        false,
        vec![(
            "error".to_string(),
            Value::Object(vec![
                (
                    "kind".to_string(),
                    Value::Str(err.kind.as_str().to_string()),
                ),
                ("message".to_string(), Value::Str(err.message.clone())),
            ]),
        )],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn must_parse(line: &str) -> Request {
        parse_request(line).expect("frame parses")
    }

    fn must_fail(line: &str) -> (Option<u64>, ProtoError) {
        parse_request(line).expect_err("frame rejected")
    }

    #[test]
    fn select_frame_round_trips() {
        let req = must_parse(
            r#"{"v":"pml-serve/v1","id":7,"op":"select","collective":"alltoall","nodes":4,"ppn":8,"msg_size":1024}"#,
        );
        assert_eq!(req.id, Some(7));
        assert_eq!(
            req.op,
            Op::Select {
                collective: Collective::Alltoall,
                job: JobConfig::new(4, 8, 1024),
            }
        );
    }

    #[test]
    fn predict_frame_names_a_cluster() {
        let req = must_parse(
            r#"{"v":"pml-serve/v1","op":"predict","cluster":"Frontera","collective":"allgather","nodes":16,"ppn":56,"msg_size":4096}"#,
        );
        assert_eq!(req.id, None);
        match req.op {
            Op::Predict {
                cluster,
                collective,
                job,
            } => {
                assert_eq!(cluster, "Frontera");
                assert_eq!(collective, Collective::Allgather);
                assert_eq!(job, JobConfig::new(16, 56, 4096));
            }
            other => panic!("expected predict, got {other:?}"),
        }
    }

    #[test]
    fn collective_names_accept_the_mpi_prefix() {
        for (wire, want) in [
            ("allgather", Collective::Allgather),
            ("MPI_Alltoall", Collective::Alltoall),
            ("Bcast", Collective::Bcast),
            ("mpi_allreduce", Collective::Allreduce),
        ] {
            let line = format!(
                r#"{{"v":"pml-serve/v1","op":"select","collective":"{wire}","nodes":2,"ppn":2,"msg_size":64}}"#
            );
            match must_parse(&line).op {
                Op::Select { collective, .. } => assert_eq!(collective, want, "{wire}"),
                other => panic!("expected select, got {other:?}"),
            }
        }
    }

    #[test]
    fn bare_ops_parse() {
        for (op, want) in [
            ("ping", Op::Ping),
            ("stats", Op::Stats),
            ("shutdown", Op::Shutdown),
        ] {
            let req = must_parse(&format!(r#"{{"v":"pml-serve/v1","id":1,"op":"{op}"}}"#));
            assert_eq!(req.op, want);
        }
    }

    #[test]
    fn watch_frame_defaults_and_overrides() {
        let req = must_parse(r#"{"v":"pml-serve/v1","id":9,"op":"watch"}"#);
        assert_eq!(
            req.op,
            Op::Watch {
                interval_ms: WATCH_DEFAULT_INTERVAL_MS,
                count: 0,
            }
        );
        let req = must_parse(r#"{"v":"pml-serve/v1","op":"watch","interval_ms":250,"count":4}"#);
        assert_eq!(
            req.op,
            Op::Watch {
                interval_ms: 250,
                count: 4,
            }
        );
        // A present-but-mistyped optional field is still rejected.
        let (_, err) = must_fail(r#"{"v":"pml-serve/v1","op":"watch","interval_ms":"fast"}"#);
        assert_eq!(err.kind, ErrorKind::Field);
    }

    #[test]
    fn malformed_frames_map_to_typed_errors() {
        let cases: [(&str, ErrorKind); 8] = [
            ("{not json", ErrorKind::Parse),
            ("[1,2,3]", ErrorKind::Parse),
            (r#"{"op":"ping"}"#, ErrorKind::Version),
            (r#"{"v":"pml-serve/v0","op":"ping"}"#, ErrorKind::Version),
            (r#"{"v":"pml-serve/v1"}"#, ErrorKind::Op),
            (r#"{"v":"pml-serve/v1","op":"dance"}"#, ErrorKind::Op),
            (
                r#"{"v":"pml-serve/v1","op":"select","collective":"alltoall","nodes":0,"ppn":8,"msg_size":1}"#,
                ErrorKind::Field,
            ),
            (
                r#"{"v":"pml-serve/v1","op":"select","collective":"gossip","nodes":2,"ppn":8,"msg_size":1}"#,
                ErrorKind::Field,
            ),
        ];
        for (line, want) in cases {
            let (_, err) = must_fail(line);
            assert_eq!(err.kind, want, "line: {line}");
        }
    }

    #[test]
    fn truncated_frame_is_a_parse_error() {
        let full = r#"{"v":"pml-serve/v1","id":3,"op":"select","collective":"bcast","nodes":2,"ppn":4,"msg_size":256}"#;
        // Every strict prefix must be rejected, never panic.
        for cut in 1..full.len() {
            if let Ok(req) = parse_request(&full[..cut]) {
                panic!("prefix of len {cut} unexpectedly parsed: {req:?}");
            }
        }
    }

    #[test]
    fn errors_echo_the_frame_id_when_recoverable() {
        let (id, err) = must_fail(r#"{"v":"pml-serve/v1","id":42,"op":"dance"}"#);
        assert_eq!(id, Some(42));
        assert_eq!(err.kind, ErrorKind::Op);
        // A frame too broken to read the id reports none.
        let (id, _) = must_fail("{broken");
        assert_eq!(id, None);
    }

    #[test]
    fn replies_are_single_line_versioned_json() {
        use pml_collectives::AlltoallAlgo;
        let replies = [
            render_select(
                Some(1),
                Algorithm::Alltoall(AlltoallAlgo::Bruck),
                FallbackDepth::Exact,
            ),
            render_predict(None, Algorithm::Alltoall(AlltoallAlgo::Pairwise)),
            render_pong(Some(2)),
            render_error(Some(3), &ProtoError::new(ErrorKind::Overload, "queue full")),
        ];
        for r in &replies {
            assert!(!r.contains('\n'), "reply must be one line: {r}");
            let v: Value = serde_json::from_str(r).expect("reply is valid JSON");
            let obj = v.as_object().expect("reply is an object");
            assert_eq!(
                get(obj, "v").and_then(Value::as_str),
                Some(PROTOCOL_VERSION)
            );
            assert!(get(obj, "ok").and_then(Value::as_bool).is_some());
        }
        let sel: Value = serde_json::from_str(&replies[0]).expect("select reply parses");
        let obj = sel.as_object().expect("object");
        assert_eq!(get(obj, "algorithm").and_then(Value::as_str), Some("bruck"));
        assert_eq!(get(obj, "depth").and_then(Value::as_u64), Some(0));
        let err: Value = serde_json::from_str(&replies[3]).expect("error reply parses");
        let obj = err.as_object().expect("object");
        assert_eq!(get(obj, "ok").and_then(Value::as_bool), Some(false));
        let inner = get(obj, "error").and_then(Value::as_object).expect("error");
        assert_eq!(get(inner, "kind").and_then(Value::as_str), Some("overload"));
    }
}
