//! The daemon: artifact loading, the accept loop, and clean shutdown.
//!
//! One process loads the tuning tables and pre-trained models once, then
//! any number of clients connect over a Unix domain socket and speak
//! [`crate::protocol`]. Every connection gets a thread; all threads share
//! one [`Tuner`] (`select`, the constant-time table lookup) and one
//! [`Batcher`] (`predict`, batched forest inference). Shutdown is
//! cooperative: SIGTERM/SIGINT (via [`crate::signal`]) or a `shutdown`
//! frame flips a flag, the accept loop stops, connection threads drain and
//! join, and the socket file is removed — a supervisor sees exit code 0.
//!
//! Artifact directory layout (`--model DIR`):
//!
//! ```text
//! DIR/*.json          verified tuning tables (pml-table/v1), one per collective
//! DIR/models/*.json   verified pre-trained model artifacts (pml-model/v1)
//! ```
//!
//! Damaged files are skipped with a warning, not fatal — a deployment with
//! one bad table still serves the rest (mirroring [`Tuner::from_dir`]).

use crate::batch::{BatchConfig, Batcher};
use crate::protocol::{self, Op};
use crate::quality::{QualityMonitor, QualitySample};
use crate::reqtrace::{
    RequestTrace, SlowRequest, SlowRing, REQUEST_TOTAL, STAGE_NAMES, WINDOW_ERRORS,
    WINDOW_OVER_P50, WINDOW_OVER_P99, WINDOW_REQUESTS,
};
use crate::signal;
use crate::slo::SloTargets;
use pml_collectives::Collective;
use pml_core::{PretrainedModel, Tuner};
use pml_obs::{Clock, Counter, Histogram, MonotonicClock, LATENCY_NS_BOUNDS};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static REQUESTS: Counter = Counter::new("serve.requests");
static ERRORS: Counter = Counter::new("serve.errors");
static CONNECTIONS: Counter = Counter::new("serve.connections");
/// Daemon-side handling latency of the table-lookup `select` path.
static SELECT_LATENCY: Histogram = Histogram::new("serve.select.latency_ns", &LATENCY_NS_BOUNDS);
/// Daemon-side handling latency of the batched `predict` path.
static PREDICT_LATENCY: Histogram = Histogram::new("serve.predict.latency_ns", &LATENCY_NS_BOUNDS);

/// How often blocked loops re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Everything `Server::bind` needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on (created, removed on exit).
    pub socket: PathBuf,
    /// Artifact directory: tables at the top level, models under `models/`.
    pub model_dir: PathBuf,
    /// Batcher sizing for the `predict` path.
    pub batch: BatchConfig,
    /// Request-observability knobs (tracing, SLO, quality sampling).
    pub obs: ObsConfig,
}

/// Request-observability configuration: stage tracing, the slow-request
/// threshold, SLO targets for `watch`, and quality-monitor sampling. All
/// of it is strictly write-only telemetry — no setting here changes any
/// answer the daemon gives.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Stage-attribute every request (windowed histograms, slow ring).
    /// Off = the daemon never reads its clock on the request path.
    pub trace_requests: bool,
    /// Requests at least this slow land in the slow-request ring.
    pub slow_threshold_ns: u64,
    /// Latency targets `watch` reports burn-rate against.
    pub slo: Option<SloTargets>,
    /// Re-score 1 in this many served decisions through the analytic
    /// referee (0 disables the quality monitor).
    pub quality_sample: u64,
    /// Score against this zoo cluster instead of each sample's own
    /// cluster label (for deployments whose tables name no zoo cluster).
    pub quality_cluster: Option<String>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_requests: true,
            slow_threshold_ns: 1_000_000,
            slo: None,
            quality_sample: 32,
            quality_cluster: None,
        }
    }
}

/// A daemon-level failure (socket I/O or artifact loading).
#[derive(Debug)]
pub enum ServeError {
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    Load(pml_core::PmlError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            ServeError::Load(e) => write!(f, "loading artifacts: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<pml_core::PmlError> for ServeError {
    fn from(e: pml_core::PmlError) -> Self {
        ServeError::Load(e)
    }
}

/// What `load_artifacts` found in the model directory.
#[derive(Debug)]
pub struct LoadedArtifacts {
    pub tuner: Tuner,
    pub models: BTreeMap<Collective, Arc<PretrainedModel>>,
    /// Skipped files and why (surfaced on stderr by the CLI).
    pub warnings: Vec<String>,
}

/// Load and statically verify every artifact under `dir`: tuning tables
/// from `dir/*.json`, pre-trained models from `dir/models/*.json`.
pub fn load_artifacts(dir: &Path) -> Result<LoadedArtifacts, ServeError> {
    let (tuner, mut warnings) = Tuner::from_dir(dir)?;
    let mut models = BTreeMap::new();
    let models_dir = dir.join("models");
    if models_dir.is_dir() {
        let io_err = |e: std::io::Error, path: &Path| ServeError::Io {
            path: path.to_path_buf(),
            source: e,
        };
        for entry in std::fs::read_dir(&models_dir).map_err(|e| io_err(e, &models_dir))? {
            let path = entry.map_err(|e| io_err(e, &models_dir))?.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).map_err(|e| io_err(e, &path))?;
            match pml_core::verify_model_json(&text) {
                Ok(model) => {
                    models.insert(model.collective, Arc::new(model));
                }
                Err(e) => warnings.push(format!("skipping model {}: {e}", path.display())),
            }
        }
    }
    Ok(LoadedArtifacts {
        tuner,
        models,
        warnings,
    })
}

/// State every connection thread shares.
struct Shared {
    tuner: Tuner,
    batcher: Batcher,
    /// Which collectives have a loaded model (for `stats`).
    model_coverage: Vec<Collective>,
    /// Set by the `shutdown` op or the signal flag; read everywhere.
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    clock: Arc<dyn Clock>,
    /// Monotonic daemon-side request id (distinct from client frame ids).
    next_request_id: AtomicU64,
    /// Immutable after bind: whether requests carry a [`RequestTrace`].
    trace_requests: bool,
    slow_threshold_ns: u64,
    slow_ring: SlowRing,
    slo: Option<SloTargets>,
    quality: Option<QualityMonitor>,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until shutdown.
pub struct Server {
    shared: Arc<Shared>,
    listener: UnixListener,
    socket: PathBuf,
    warnings: Vec<String>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("socket", &self.socket)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Load artifacts from `cfg.model_dir` and bind `cfg.socket`. A stale
    /// socket file from a previous unclean exit is replaced.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, ServeError> {
        let artifacts = load_artifacts(&cfg.model_dir)?;
        Server::with_artifacts(&cfg.socket, artifacts, cfg.batch.clone(), cfg.obs.clone())
    }

    /// Bind with already-loaded artifacts (tests and embedders).
    pub fn with_artifacts(
        socket: &Path,
        artifacts: LoadedArtifacts,
        batch: BatchConfig,
        obs: ObsConfig,
    ) -> Result<Server, ServeError> {
        let io_err = |e: std::io::Error| ServeError::Io {
            path: socket.to_path_buf(),
            source: e,
        };
        if socket.exists() {
            // A live daemon would hold the listener; a leftover file from a
            // crash just blocks bind(2).
            std::fs::remove_file(socket).map_err(io_err)?;
        }
        let listener = UnixListener::bind(socket).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let model_coverage: Vec<Collective> = artifacts.models.keys().copied().collect();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let batch_trace = obs.trace_requests.then(|| Arc::clone(&clock));
        let quality = (obs.quality_sample > 0)
            .then(|| QualityMonitor::new(obs.quality_sample, obs.quality_cluster.clone()));
        Ok(Server {
            shared: Arc::new(Shared {
                tuner: artifacts.tuner,
                batcher: Batcher::new(artifacts.models, batch, batch_trace),
                model_coverage,
                shutdown: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                clock,
                next_request_id: AtomicU64::new(0),
                trace_requests: obs.trace_requests,
                slow_threshold_ns: obs.slow_threshold_ns,
                slow_ring: SlowRing::new(),
                slo: obs.slo,
                quality,
            }),
            listener,
            socket: socket.to_path_buf(),
            warnings: artifacts.warnings,
        })
    }

    /// Artifact-loading warnings (skipped files), for the CLI to surface.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// (requests, errors) handled so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.shared.requests.load(Ordering::SeqCst),
            self.shared.errors.load(Ordering::SeqCst),
        )
    }

    /// Accept until `term` (e.g. the SIGTERM flag from
    /// [`signal::install_termination_flag`]) or a `shutdown` frame fires,
    /// then drain: join every connection thread and remove the socket file.
    pub fn run(self, term: &AtomicBool) -> Result<(), ServeError> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if term.load(Ordering::SeqCst) {
                self.shared.shutdown.store(true, Ordering::SeqCst);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    CONNECTIONS.inc();
                    let shared = Arc::clone(&self.shared);
                    conns.push(std::thread::spawn(move || {
                        serve_connection(&shared, stream)
                    }));
                    // Reap finished threads so a long-lived daemon's handle
                    // list stays bounded by its live connections.
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => {
                    return Err(ServeError::Io {
                        path: self.socket.clone(),
                        source: e,
                    })
                }
            }
        }
        for handle in conns {
            handle.join().ok();
        }
        // Best effort: the file may already be gone if the directory was.
        std::fs::remove_file(&self.socket).ok();
        Ok(())
    }
}

/// One connection: read NDJSON lines, answer each, until EOF, a transport
/// error, or daemon shutdown. Read timeouts keep the thread responsive to
/// the shutdown flag without busy-waiting.
fn serve_connection(shared: &Shared, stream: UnixStream) {
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // The line buffer persists across read timeouts: a frame arriving in
    // pieces accumulates until its newline (or EOF) shows up.
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match reader.read_line(&mut line) {
            // EOF. A non-empty buffer is a frame truncated mid-line by the
            // disconnect: answer it (typed error or not) before closing.
            Ok(0) => {
                if !line.trim().is_empty() {
                    answer_line(shared, &mut writer, &line);
                }
                return;
            }
            Ok(_) => {
                if line.trim().is_empty() {
                    line.clear();
                    continue; // blank keep-alive line
                }
                let keep_open = answer_line(shared, &mut writer, &line);
                line.clear();
                if !keep_open {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

fn send(writer: &mut UnixStream, reply: &str) -> std::io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// What one frame asks the connection thread to do next.
enum Outcome {
    /// Send this reply; `stop` closes the daemon, `is_error` marks the
    /// reply as an error frame for the windowed error counter.
    Reply {
        reply: String,
        stop: bool,
        is_error: bool,
    },
    /// Stream periodic observability snapshots on this connection.
    Watch {
        id: Option<u64>,
        interval_ms: u64,
        count: u64,
    },
}

/// One frame, end to end: assign the daemon-side request id, open the
/// trace (when tracing is on), dispatch, time the reply write, then close
/// out the trace (windowed totals, SLO over-counters, slow ring). Returns
/// whether the connection should stay open.
fn answer_line(shared: &Shared, writer: &mut UnixStream, line: &str) -> bool {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1;
    let mut trace = shared
        .trace_requests
        .then(|| RequestTrace::new(request_id, shared.clock.now_nanos()));
    match handle_line(shared, line, trace.as_mut()) {
        Outcome::Reply {
            reply,
            stop,
            is_error,
        } => {
            let sent = if let Some(tr) = trace.as_mut() {
                let t0 = shared.clock.now_nanos();
                let sent = send(writer, &reply);
                let t1 = shared.clock.now_nanos();
                tr.stage("reply", t1.saturating_sub(t0), t1);
                sent
            } else {
                send(writer, &reply)
            };
            finish_trace(shared, trace, is_error);
            sent.is_ok() && !stop
        }
        Outcome::Watch {
            id,
            interval_ms,
            count,
        } => {
            // The watch handshake itself is one (cheap) traced request;
            // the streamed ticks are not requests.
            finish_trace(shared, trace, false);
            run_watch(shared, writer, id, interval_ms, count)
        }
    }
}

/// Answer one frame. Stage durations land on `trace` (and, via
/// [`RequestTrace::stage`], in the windowed stage histograms) when
/// tracing is on; with `None` the fast path reads the clock only for the
/// pre-existing cumulative latency histograms.
fn handle_line(shared: &Shared, line: &str, mut trace: Option<&mut RequestTrace>) -> Outcome {
    shared.requests.fetch_add(1, Ordering::SeqCst);
    REQUESTS.inc();
    let reply = |reply: String| Outcome::Reply {
        reply,
        stop: false,
        is_error: false,
    };
    let parsed = protocol::parse_request(line);
    if let Some(tr) = trace.as_deref_mut() {
        let t = shared.clock.now_nanos();
        tr.stage("parse", t.saturating_sub(tr.started_ns), t);
    }
    let req = match parsed {
        Ok(req) => req,
        Err((id, err)) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            ERRORS.inc();
            if let Some(tr) = trace.as_deref_mut() {
                tr.op = "error";
            }
            return Outcome::Reply {
                reply: protocol::render_error(id, &err),
                stop: false,
                is_error: true,
            };
        }
    };
    let id = req.id;
    match req.op {
        Op::Ping => {
            if let Some(tr) = trace.as_deref_mut() {
                tr.op = "ping";
            }
            reply(protocol::render_pong(id))
        }
        Op::Select { collective, job } => {
            let t0 = shared.clock.now_nanos();
            let (algo, depth) = shared.tuner.select_traced(collective, job);
            let t1 = shared.clock.now_nanos();
            SELECT_LATENCY.observe(t1.saturating_sub(t0));
            if let Some(tr) = trace.as_deref_mut() {
                tr.op = "select";
                tr.stage("select", t1.saturating_sub(t0), t1);
            }
            if let Some(q) = shared.quality.as_ref() {
                q.observe(|| QualitySample {
                    cluster: shared
                        .tuner
                        .table_cluster(collective)
                        .unwrap_or("?")
                        .to_string(),
                    collective,
                    job,
                    algo,
                    depth: Some(depth),
                });
            }
            let rendered = protocol::render_select(id, algo, depth);
            if let Some(tr) = trace.as_deref_mut() {
                let t2 = shared.clock.now_nanos();
                tr.stage("serialize", t2.saturating_sub(t1), t2);
            }
            reply(rendered)
        }
        Op::Predict {
            cluster,
            collective,
            job,
        } => {
            let t0 = shared.clock.now_nanos();
            let outcome = shared.batcher.submit(&cluster, collective, job);
            let t1 = shared.clock.now_nanos();
            PREDICT_LATENCY.observe(t1.saturating_sub(t0));
            if let Some(tr) = trace.as_deref_mut() {
                tr.op = "predict";
            }
            match outcome {
                Ok((algo, timing)) => {
                    if let Some(tr) = trace.as_deref_mut() {
                        // Measured worker-side and already in the windowed
                        // histograms; copy into the trace without
                        // re-observing.
                        tr.stages.push(("queue_wait", timing.queue_wait_ns));
                        tr.stages.push(("batch_assembly", timing.batch_assembly_ns));
                        tr.stages.push(("predict", timing.predict_ns));
                    }
                    if let Some(q) = shared.quality.as_ref() {
                        q.observe(|| QualitySample {
                            cluster: cluster.clone(),
                            collective,
                            job,
                            algo,
                            depth: None,
                        });
                    }
                    let rendered = protocol::render_predict(id, algo);
                    if let Some(tr) = trace.as_deref_mut() {
                        let t2 = shared.clock.now_nanos();
                        tr.stage("serialize", t2.saturating_sub(t1), t2);
                    }
                    reply(rendered)
                }
                Err(err) => {
                    shared.errors.fetch_add(1, Ordering::SeqCst);
                    ERRORS.inc();
                    Outcome::Reply {
                        reply: protocol::render_error(id, &err),
                        stop: false,
                        is_error: true,
                    }
                }
            }
        }
        Op::Stats => {
            if let Some(tr) = trace.as_deref_mut() {
                tr.op = "stats";
            }
            reply(protocol::render_ok(id, stats_fields(shared)))
        }
        Op::Watch { interval_ms, count } => {
            if let Some(tr) = trace.as_deref_mut() {
                tr.op = "watch";
            }
            Outcome::Watch {
                id,
                interval_ms,
                count,
            }
        }
        Op::Shutdown => {
            if let Some(tr) = trace {
                tr.op = "shutdown";
            }
            shared.shutdown.store(true, Ordering::SeqCst);
            Outcome::Reply {
                reply: protocol::render_ok(id, vec![("stopping".to_string(), Value::Bool(true))]),
                stop: true,
                is_error: false,
            }
        }
    }
}

/// Close out one request's trace: end-to-end total into the windowed
/// histogram, SLO over-target counters, and (past the threshold) the slow
/// ring. No-op when tracing is off.
fn finish_trace(shared: &Shared, trace: Option<RequestTrace>, is_error: bool) {
    let Some(mut tr) = trace else { return };
    let now = shared.clock.now_nanos();
    let total = now.saturating_sub(tr.started_ns);
    REQUEST_TOTAL.observe(total, now);
    WINDOW_REQUESTS.inc(now);
    if is_error {
        WINDOW_ERRORS.inc(now);
    }
    if let Some(slo) = shared.slo.as_ref() {
        if total > slo.p50_ns {
            WINDOW_OVER_P50.inc(now);
        }
        if total > slo.p99_ns {
            WINDOW_OVER_P99.inc(now);
        }
    }
    if total >= shared.slow_threshold_ns {
        tr.stages.push(("total", total));
        shared.slow_ring.push(SlowRequest {
            id: tr.id,
            op: tr.op,
            total_ns: total,
            stages: tr.stages,
        });
    }
}

/// Stream observability snapshots: one `ok` frame per tick with a `seq`
/// counter, `count` ticks total (`0` = until the client hangs up or the
/// daemon stops). Returns whether the connection should stay open.
fn run_watch(
    shared: &Shared,
    writer: &mut UnixStream,
    id: Option<u64>,
    interval_ms: u64,
    count: u64,
) -> bool {
    // An endless watch with a (near-)zero interval would spin the daemon;
    // a finite one may use interval 0 (one-shot snapshot fetches).
    let interval = if count == 0 {
        interval_ms.max(100)
    } else {
        interval_ms
    };
    let mut seq: u64 = 0;
    loop {
        seq += 1;
        let mut fields = vec![("seq".to_string(), Value::UInt(seq))];
        fields.extend(watch_fields(shared));
        if send(writer, &protocol::render_ok(id, fields)).is_err() {
            return false;
        }
        if count > 0 && seq >= count {
            return true;
        }
        // Sleep in poll-interval chunks so shutdown interrupts the stream.
        let mut left = Duration::from_millis(interval);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            if left.is_zero() {
                break;
            }
            let chunk = left.min(POLL_INTERVAL);
            std::thread::sleep(chunk);
            left -= chunk;
        }
    }
}

/// One `watch` tick's payload: windowed per-stage latency quantiles, SLO
/// burn rate, the quality monitor's per-cell verdicts, and the most
/// recent slow requests.
fn watch_fields(shared: &Shared) -> Vec<(String, Value)> {
    let mut window = Vec::new();
    for name in STAGE_NAMES {
        let Some(h) = crate::reqtrace::stage_histogram(name) else {
            continue;
        };
        let snap = h.snap();
        window.push((
            name.to_string(),
            Value::Object(vec![
                ("count".to_string(), Value::UInt(snap.count)),
                ("p50_ns".to_string(), Value::UInt(snap.quantile(0.5))),
                ("p99_ns".to_string(), Value::UInt(snap.quantile(0.99))),
            ]),
        ));
    }
    let requests = WINDOW_REQUESTS.total();
    let errors = WINDOW_ERRORS.total();
    let slo = match shared.slo.as_ref() {
        None => Value::Null,
        Some(t) => {
            let over_p50 = WINDOW_OVER_P50.total();
            let over_p99 = WINDOW_OVER_P99.total();
            Value::Object(vec![
                ("source".to_string(), Value::Str(t.source.clone())),
                ("target_p50_ns".to_string(), Value::UInt(t.p50_ns)),
                ("target_p99_ns".to_string(), Value::UInt(t.p99_ns)),
                ("error_budget".to_string(), Value::Float(t.error_budget)),
                ("over_p50".to_string(), Value::UInt(over_p50)),
                ("over_p99".to_string(), Value::UInt(over_p99)),
                (
                    "burn_rate".to_string(),
                    Value::Float(t.burn_rate(over_p99, requests)),
                ),
            ])
        }
    };
    let quality = match shared.quality.as_ref() {
        None => Value::Null,
        Some(q) => {
            let cells: Vec<Value> = q
                .cells()
                .into_iter()
                .map(|((collective, cluster), c)| {
                    Value::Object(vec![
                        ("collective".to_string(), Value::Str(collective)),
                        ("cluster".to_string(), Value::Str(cluster)),
                        ("samples".to_string(), Value::UInt(c.samples)),
                        ("scored".to_string(), Value::UInt(c.scored)),
                        ("unscored".to_string(), Value::UInt(c.unscored)),
                        ("agreements".to_string(), Value::UInt(c.agreements)),
                        (
                            "agreement_rate".to_string(),
                            Value::Float(c.agreement_rate()),
                        ),
                        ("mean_cost_gap".to_string(), Value::Float(c.mean_cost_gap())),
                        (
                            "fallback".to_string(),
                            Value::Array(c.fallback.iter().map(|&n| Value::UInt(n)).collect()),
                        ),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("sample_every".to_string(), Value::UInt(q.every())),
                ("seen".to_string(), Value::UInt(q.seen())),
                ("dropped".to_string(), Value::UInt(q.dropped())),
                ("cells".to_string(), Value::Array(cells)),
            ])
        }
    };
    let slow_entries: Vec<Value> = shared
        .slow_ring
        .recent(5)
        .into_iter()
        .map(|s| {
            Value::Object(vec![
                ("id".to_string(), Value::UInt(s.id)),
                ("op".to_string(), Value::Str(s.op.to_string())),
                ("total_ns".to_string(), Value::UInt(s.total_ns)),
                (
                    "stages".to_string(),
                    Value::Object(
                        s.stages
                            .iter()
                            .map(|&(n, d)| (n.to_string(), Value::UInt(d)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    vec![
        (
            "trace_requests".to_string(),
            Value::Bool(shared.trace_requests),
        ),
        (
            "window_ns".to_string(),
            Value::UInt(REQUEST_TOTAL.window_ns()),
        ),
        ("window_requests".to_string(), Value::UInt(requests)),
        ("window_errors".to_string(), Value::UInt(errors)),
        ("window".to_string(), Value::Object(window)),
        ("slo".to_string(), slo),
        ("quality".to_string(), quality),
        (
            "slow".to_string(),
            Value::Object(vec![
                (
                    "threshold_ns".to_string(),
                    Value::UInt(shared.slow_threshold_ns),
                ),
                (
                    "captured".to_string(),
                    Value::UInt(shared.slow_ring.captured()),
                ),
                ("recent".to_string(), Value::Array(slow_entries)),
            ]),
        ),
    ]
}

fn stats_fields(shared: &Shared) -> Vec<(String, Value)> {
    let names = |cs: &[Collective]| {
        Value::Array(
            cs.iter()
                .map(|c| Value::Str(protocol::collective_wire_name(*c).to_string()))
                .collect(),
        )
    };
    vec![
        (
            "requests".to_string(),
            Value::UInt(shared.requests.load(Ordering::SeqCst)),
        ),
        (
            "errors".to_string(),
            Value::UInt(shared.errors.load(Ordering::SeqCst)),
        ),
        ("tables".to_string(), names(&shared.tuner.covered())),
        ("models".to_string(), names(&shared.model_coverage)),
        (
            "trace_requests".to_string(),
            Value::Bool(shared.trace_requests),
        ),
        (
            "slow_captured".to_string(),
            Value::UInt(shared.slow_ring.captured()),
        ),
    ]
}

/// Convenience for binaries: install signal handlers, bind, run.
pub fn serve(cfg: &ServeConfig) -> Result<(), ServeError> {
    let term = signal::install_termination_flag();
    let server = Server::bind(cfg)?;
    for w in server.warnings() {
        eprintln!("warning: {w}");
    }
    server.run(term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_collectives::{Algorithm, AlltoallAlgo};
    use pml_core::TuningTable;

    fn test_tuner() -> Tuner {
        let mut t = TuningTable::new("X", Collective::Alltoall);
        t.insert(2, 8, 64, Algorithm::Alltoall(AlltoallAlgo::Bruck))
            .unwrap();
        t.insert(2, 8, 65536, Algorithm::Alltoall(AlltoallAlgo::Pairwise))
            .unwrap();
        Tuner::new([t])
    }

    fn test_shared() -> Shared {
        test_shared_with(ObsConfig::default())
    }

    fn test_shared_with(obs: ObsConfig) -> Shared {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let batch_trace = obs.trace_requests.then(|| Arc::clone(&clock));
        let quality = (obs.quality_sample > 0)
            .then(|| QualityMonitor::new(obs.quality_sample, obs.quality_cluster.clone()));
        Shared {
            tuner: test_tuner(),
            batcher: Batcher::new(BTreeMap::new(), BatchConfig::default(), batch_trace),
            model_coverage: Vec::new(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            clock,
            next_request_id: AtomicU64::new(0),
            trace_requests: obs.trace_requests,
            slow_threshold_ns: obs.slow_threshold_ns,
            slow_ring: SlowRing::new(),
            slo: obs.slo,
            quality,
        }
    }

    /// Unit-test shim: dispatch one line without a socket, expecting a
    /// direct reply (panics on a `watch` outcome).
    fn handle(shared: &Shared, line: &str) -> (String, bool) {
        let mut trace = shared
            .trace_requests
            .then(|| RequestTrace::new(1, shared.clock.now_nanos()));
        match handle_line(shared, line, trace.as_mut()) {
            Outcome::Reply {
                reply,
                stop,
                is_error,
            } => {
                finish_trace(shared, trace, is_error);
                (reply, stop)
            }
            Outcome::Watch { .. } => panic!("expected a direct reply, got watch"),
        }
    }

    fn obj_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    #[test]
    fn select_frames_answer_from_the_table() {
        let shared = test_shared();
        let (reply, stop) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        assert!(!stop);
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(obj_get(&v, "ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            obj_get(&v, "algorithm").and_then(Value::as_str),
            Some("bruck")
        );
        assert_eq!(obj_get(&v, "depth").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn bad_frames_get_typed_error_replies_and_count_as_errors() {
        let shared = test_shared();
        for line in ["{oops", r#"{"v":"pml-serve/v1","op":"dance"}"#] {
            let (reply, stop) = handle(&shared, line);
            assert!(!stop, "an error never closes the connection");
            let v: Value = serde_json::from_str(&reply).unwrap();
            assert_eq!(obj_get(&v, "ok").and_then(Value::as_bool), Some(false));
            assert!(obj_get(&v, "error").is_some());
        }
        assert_eq!(shared.errors.load(Ordering::SeqCst), 2);
        assert_eq!(shared.requests.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn predict_without_models_is_unsupported_not_a_crash() {
        let shared = test_shared();
        let (reply, _) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":9,"op":"predict","cluster":"Frontera","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(obj_get(&v, "ok").and_then(Value::as_bool), Some(false));
        let err = obj_get(&v, "error").unwrap();
        assert_eq!(
            obj_get(err, "kind").and_then(Value::as_str),
            Some("unsupported")
        );
    }

    #[test]
    fn shutdown_frame_stops_the_daemon() {
        let shared = test_shared();
        let (reply, stop) = handle(&shared, r#"{"v":"pml-serve/v1","op":"shutdown"}"#);
        assert!(stop);
        assert!(shared.shutdown.load(Ordering::SeqCst));
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(obj_get(&v, "ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn slow_threshold_zero_captures_every_request_with_stages() {
        let shared = test_shared_with(ObsConfig {
            slow_threshold_ns: 0,
            ..ObsConfig::default()
        });
        let (_, _) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        assert!(shared.slow_ring.captured() >= 1);
        let recent = shared.slow_ring.recent(1);
        assert_eq!(recent[0].op, "select");
        let names: Vec<&str> = recent[0].stages.iter().map(|(n, _)| *n).collect();
        for want in ["parse", "select", "serialize", "total"] {
            assert!(names.contains(&want), "missing stage {want}: {names:?}");
        }
    }

    #[test]
    fn watch_op_returns_a_watch_outcome_and_fields_render() {
        let shared = test_shared_with(ObsConfig {
            slo: Some(SloTargets {
                p50_ns: 0,
                p99_ns: 0,
                error_budget: 0.01,
                source: "test".to_string(),
            }),
            quality_sample: 1,
            quality_cluster: Some("RI".to_string()),
            ..ObsConfig::default()
        });
        // Serve a request first so the windowed metrics have content and
        // the zero SLO targets are provably exceeded.
        let (_, _) = handle(
            &shared,
            r#"{"v":"pml-serve/v1","id":1,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":64}"#,
        );
        match handle_line(
            &shared,
            r#"{"v":"pml-serve/v1","id":2,"op":"watch","count":1}"#,
            None,
        ) {
            Outcome::Watch {
                id,
                interval_ms,
                count,
            } => {
                assert_eq!(id, Some(2));
                assert_eq!(interval_ms, protocol::WATCH_DEFAULT_INTERVAL_MS);
                assert_eq!(count, 1);
            }
            Outcome::Reply { reply, .. } => panic!("expected watch outcome, got reply {reply}"),
        }
        let rendered = protocol::render_ok(Some(2), watch_fields(&shared));
        let v: Value = serde_json::from_str(&rendered).unwrap();
        for key in [
            "window",
            "window_requests",
            "window_errors",
            "slo",
            "quality",
            "slow",
            "trace_requests",
        ] {
            assert!(obj_get(&v, key).is_some(), "missing watch field {key}");
        }
        let slo = obj_get(&v, "slo").unwrap();
        assert!(obj_get(slo, "over_p99").and_then(Value::as_u64).unwrap() >= 1);
        assert!(matches!(
            obj_get(slo, "burn_rate"),
            Some(Value::Float(f)) if *f > 0.0
        ));
        let window = obj_get(&v, "window").unwrap();
        let total = obj_get(window, "total").expect("total stage present");
        assert!(obj_get(total, "count").and_then(Value::as_u64).unwrap() >= 1);
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        let dir = std::env::temp_dir().join(format!("pml-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("pml.sock");
        let server = Server::with_artifacts(
            &socket,
            LoadedArtifacts {
                tuner: test_tuner(),
                models: BTreeMap::new(),
                warnings: Vec::new(),
            },
            BatchConfig::default(),
            ObsConfig::default(),
        )
        .unwrap();
        let term = Arc::new(AtomicBool::new(false));
        let t = Arc::clone(&term);
        let daemon = std::thread::spawn(move || server.run(&t));

        let mut client = UnixStream::connect(&socket).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut ask = |line: &str| -> Value {
            client.write_all(line.as_bytes()).unwrap();
            client.write_all(b"\n").unwrap();
            client.flush().unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            serde_json::from_str(reply.trim()).unwrap()
        };

        let pong = ask(r#"{"v":"pml-serve/v1","id":1,"op":"ping"}"#);
        assert_eq!(obj_get(&pong, "pong").and_then(Value::as_bool), Some(true));

        let sel = ask(
            r#"{"v":"pml-serve/v1","id":2,"op":"select","collective":"alltoall","nodes":2,"ppn":8,"msg_size":65536}"#,
        );
        assert_eq!(
            obj_get(&sel, "algorithm").and_then(Value::as_str),
            Some("pairwise")
        );

        // Malformed frame: typed error, connection survives.
        let bad = ask("{nope");
        assert_eq!(obj_get(&bad, "ok").and_then(Value::as_bool), Some(false));
        let still = ask(r#"{"v":"pml-serve/v1","id":3,"op":"ping"}"#);
        assert_eq!(obj_get(&still, "id").and_then(Value::as_u64), Some(3));

        let stats = ask(r#"{"v":"pml-serve/v1","op":"stats"}"#);
        assert!(obj_get(&stats, "requests").and_then(Value::as_u64).unwrap() >= 4);

        // One-shot watch: a single snapshot frame on the same connection,
        // which stays usable afterwards.
        let snap = ask(r#"{"v":"pml-serve/v1","id":8,"op":"watch","interval_ms":0,"count":1}"#);
        assert_eq!(obj_get(&snap, "ok").and_then(Value::as_bool), Some(true));
        assert_eq!(obj_get(&snap, "seq").and_then(Value::as_u64), Some(1));
        assert!(obj_get(&snap, "window").is_some());
        let after = ask(r#"{"v":"pml-serve/v1","id":9,"op":"ping"}"#);
        assert_eq!(obj_get(&after, "id").and_then(Value::as_u64), Some(9));

        let bye = ask(r#"{"v":"pml-serve/v1","op":"shutdown"}"#);
        assert_eq!(
            obj_get(&bye, "stopping").and_then(Value::as_bool),
            Some(true)
        );

        daemon.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file removed on clean shutdown");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_termination_flag_stops_run() {
        let dir = std::env::temp_dir().join(format!("pml-serve-term-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("pml.sock");
        let server = Server::with_artifacts(
            &socket,
            LoadedArtifacts {
                tuner: test_tuner(),
                models: BTreeMap::new(),
                warnings: Vec::new(),
            },
            BatchConfig::default(),
            ObsConfig::default(),
        )
        .unwrap();
        let term = Arc::new(AtomicBool::new(false));
        let t = Arc::clone(&term);
        let daemon = std::thread::spawn(move || server.run(&t));
        term.store(true, Ordering::SeqCst);
        daemon.join().unwrap().unwrap();
        assert!(!socket.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
