//! The serve-side phases shared by the `select` and `predict` workloads:
//! warm-up, the timed closed loop, reference checks, and the traced
//! serve worker that hosts the daemon in-process to read its stage
//! metrics.

use crate::client::{closed_loop, Conn, Record, Reply};
use crate::daemon::{memo_stats, Daemon};
use crate::gen::{PredictGen, Req, SelectGen, HELD_OUT};
use crate::json::obj;
use crate::recipe::{self, load_models, table_path};
use crate::stats::{mean, median, per_call_us, quantile};
use crate::trace::SpanLog;
use pml_clusters::by_name;
use pml_collectives::schedcost;
use pml_core::{verify_table_json, JobConfig, PretrainedModel, Tuner, TuningTable};
use pml_simnet::{JobLayout, NodeSpec};
use serde::Value;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections (one thread each, from one client process).
pub const CONNS: usize = 2;
/// Warm-up requests per connection, excluded from timing.
const WARMUP_SELECT: usize = 3000;
const WARMUP_PREDICT: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Select,
    Predict,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Select => "select",
            Op::Predict => "predict",
        }
    }

    pub fn parse(s: &str) -> Option<Op> {
        match s {
            "select" => Some(Op::Select),
            "predict" => Some(Op::Predict),
            _ => None,
        }
    }
}

/// One connection's request stream.
#[derive(Debug)]
enum Gen {
    Select(SelectGen),
    Predict(PredictGen),
}

impl Gen {
    fn new(op: Op, seed: u64, conn: usize) -> Gen {
        match op {
            Op::Select => Gen::Select(SelectGen::new(seed, conn, CONNS)),
            Op::Predict => Gen::Predict(PredictGen::new(seed, conn)),
        }
    }

    fn next(&mut self) -> Req {
        match self {
            Gen::Select(g) => g.next().0,
            Gen::Predict(g) => g.next(),
        }
    }
}

/// Warmed-up connections, ready for the timed loop.
#[derive(Debug)]
pub struct Client {
    op: Op,
    conns: Vec<(Conn, Gen)>,
    /// Warm-up replies (checked like timed ones, never timed).
    pub warmup: Vec<Record>,
}

/// Open the connections and warm the daemon up. For `predict`, first one
/// request per distinct (cluster, collective, nodes, ppn), split across
/// the connections, so first-touch cost extraction is paid here.
pub fn warm_up(daemon: &Daemon, op: Op, seed: u64) -> Result<Client, String> {
    let mut conns = Vec::new();
    for c in 0..CONNS {
        conns.push((daemon.connect()?, Gen::new(op, seed, c)));
    }
    let shapes = match op {
        Op::Predict => PredictGen::new(seed, 0).distinct_shapes(),
        Op::Select => Vec::new(),
    };
    let per_conn = match op {
        Op::Select => WARMUP_SELECT,
        Op::Predict => WARMUP_PREDICT,
    };
    let warmup = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, (conn, gen))| {
                let shapes = &shapes;
                s.spawn(move || {
                    let mut out: Vec<Record> = shapes
                        .iter()
                        .skip(i)
                        .step_by(CONNS)
                        .map(|r| conn.request(op.name(), r, None))
                        .collect();
                    for _ in 0..per_conn {
                        let r = gen.next();
                        out.push(conn.request(op.name(), &r, None));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    Ok(Client { op, conns, warmup })
}

/// The timed closed loop: every connection on its own thread until
/// `seconds` pass. With `traced`, each thread records client spans.
#[derive(Debug)]
pub struct LoopOut {
    pub records: Vec<Record>,
    pub wall_s: f64,
    pub spans: Option<SpanLog>,
}

pub fn timed_loop(client: &mut Client, seconds: f64, traced: bool, epoch: Instant) -> LoopOut {
    let op = client.op;
    let barrier = Barrier::new(client.conns.len());
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = client
            .conns
            .iter_mut()
            .map(|(conn, gen)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut log = traced.then(|| SpanLog::new(epoch));
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let recs =
                        closed_loop(conn, op.name(), &mut || gen.next(), deadline, log.as_mut());
                    (recs, start, Instant::now(), log)
                })
            })
            .collect();
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let start = results.iter().map(|r| r.1).min().unwrap_or(epoch);
    let end = results.iter().map(|r| r.2).max().unwrap_or(start);
    let mut records = Vec::new();
    let mut spans: Option<SpanLog> = None;
    for (recs, _, _, log) in results {
        records.extend(recs);
        if let Some(log) = log {
            match spans.as_mut() {
                Some(all) => all.absorb(log),
                None => spans = Some(log),
            }
        }
    }
    LoopOut {
        records,
        wall_s: (end - start).as_secs_f64(),
        spans,
    }
}

/// Latency and throughput of a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopStats {
    pub p50_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    pub ok_per_s: f64,
    pub samples: u64,
    /// Windows the medians are taken over (1 for pooled statistics).
    pub windows: u64,
}

pub fn loop_stats(out: &LoopOut) -> LoopStats {
    let mut lat: Vec<f64> = out.records.iter().map(|r| r.lat_ns as f64 / 1e3).collect();
    let ok = out
        .records
        .iter()
        .filter(|r| r.reply != Reply::Failed)
        .count();
    LoopStats {
        p50_us: quantile(&mut lat, 0.50).unwrap_or(0.0),
        p99_us: quantile(&mut lat, 0.99).unwrap_or(0.0),
        mean_us: mean(&lat).unwrap_or(0.0),
        ok_per_s: ok as f64 / out.wall_s.max(1e-9),
        samples: lat.len() as u64,
        windows: 1,
    }
}

/// Length of one timed segment (see [`segmented_loop`]).
const SEGMENT_S: f64 = 0.5;

/// The timed phase as consecutive half-second segments, each on freshly
/// opened connections (opened before its clock starts). Each segment
/// gets a new placement of client and daemon connection threads on the
/// shared cores, so one unlucky placement moves one segment, not the
/// whole run. Returns one loop result per segment.
pub fn segmented_loop(
    daemon: &Daemon,
    client: &mut Client,
    seconds: f64,
) -> Result<Vec<LoopOut>, String> {
    let n = ((seconds / SEGMENT_S).round() as usize).max(1);
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        for (conn, _) in client.conns.iter_mut() {
            *conn = daemon.connect()?;
            // The daemon has accepted (and spawned the connection's
            // thread) once a ping comes back; only then does timing start.
            conn.control("ping", "")?;
        }
        segments.push(timed_loop(
            client,
            seconds / n as f64,
            false,
            Instant::now(),
        ));
    }
    Ok(segments)
}

/// p50, p99 and throughput as medians over segments (see
/// [`segmented_loop`]); the mean and sample count are pooled.
pub fn segment_stats(segments: &[LoopOut]) -> LoopStats {
    let per: Vec<LoopStats> = segments.iter().map(loop_stats).collect();
    let pick =
        |f: fn(&LoopStats) -> f64| median(&per.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let samples: u64 = per.iter().map(|s| s.samples).sum();
    LoopStats {
        p50_us: pick(|s| s.p50_us),
        p99_us: pick(|s| s.p99_us),
        mean_us: per
            .iter()
            .map(|s| s.mean_us * s.samples as f64)
            .sum::<f64>()
            / samples.max(1) as f64,
        ok_per_s: pick(|s| s.ok_per_s),
        samples,
        windows: per.len() as u64,
    }
}

/// The in-process reference the replies are checked against, computed
/// on the same artifact files the daemon loaded.
#[derive(Debug)]
pub enum Reference {
    Select(Tuner),
    Predict(Vec<PretrainedModel>, [NodeSpec; 2]),
}

impl Reference {
    pub fn load(op: Op, dir: &Path) -> Result<Reference, String> {
        Ok(match op {
            Op::Select => Reference::Select(Tuner::new(load_tables(dir)?)),
            Op::Predict => Reference::Predict(load_models(dir)?, predict_nodes()),
        })
    }

    /// The reference answer for one request.
    pub fn answer(&self, req: &Req) -> Reply {
        let job = JobConfig::new(req.nodes, req.ppn, req.msg);
        match self {
            Reference::Select(tuner) => {
                let (algo, depth) = tuner.select_traced(req.collective, job);
                Reply::Ok {
                    algo,
                    depth: Some(depth.as_u64() as u8),
                }
            }
            Reference::Predict(models, nodes) => {
                match models.iter().find(|m| m.collective == req.collective) {
                    Some(m) => Reply::Ok {
                        algo: m.predict(&nodes[req.cluster as usize], job),
                        depth: None,
                    },
                    None => Reply::Failed,
                }
            }
        }
    }

    /// (checked, failed): every record against the reference. A failed
    /// reply or a differing answer counts as a failure.
    pub fn check(&self, records: &[Record]) -> (u64, u64) {
        let failed = records
            .iter()
            .filter(|r| r.reply == Reply::Failed || r.reply != self.answer(&r.req))
            .count();
        (records.len() as u64, failed as u64)
    }
}

fn predict_nodes() -> [NodeSpec; 2] {
    HELD_OUT.map(|c| {
        by_name(c)
            .expect("held-out clusters are zoo clusters")
            .spec
            .node
            .clone()
    })
}

/// Both tuning tables of an artifact directory, through the verifier.
pub fn load_tables(dir: &Path) -> Result<Vec<TuningTable>, String> {
    crate::gen::COLLECTIVES
        .iter()
        .map(|&c| {
            let path = table_path(dir, c);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            verify_table_json(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean of a windowed daemon stage histogram, in microseconds.
fn stage_mean_us(snap: &pml_obs::metrics::MetricsSnapshot, name: &str) -> f64 {
    snap.window_histograms
        .get(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64 / 1e3)
}

/// (sum, count) of the since-boot `serve.batch.rows` histogram.
fn batch_rows(snap: &pml_obs::metrics::MetricsSnapshot) -> (u64, u64) {
    snap.histograms
        .get("serve.batch.rows")
        .map_or((0, 0), |h| (h.sum, h.count))
}

fn poly_counters() -> (u64, u64) {
    let snap = pml_obs::metrics::snapshot();
    let c = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    (c("schedcost.polys"), c("schedcost.cache.poly_hits"))
}

/// Microprobe sample size: requests drawn from connection 0's stream.
const PROBE_SAMPLE: usize = 20_000;

/// Worker `serve` (traced runs): host the daemon in this process over
/// `dir`, warm up, run the loop untraced for half of `seconds` and traced
/// for the other half, then read the daemon's stage metrics, `stats` and
/// `watch`, time the layers' public calls on the same request stream, and
/// check every reply. `dir` holds models and RI2 tables (a traced set-up
/// always builds both).
pub fn worker_serve(
    started: Instant,
    op: Op,
    dir: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> Result<Value, String> {
    let mut log = SpanLog::new(started);
    let reference = Reference::load(op, dir)?;
    let mut cold_s = 0.0;
    let polys_before = poly_counters();
    if op == Op::Predict {
        // First touch from outside: every distinct shape through
        // `rank_static`, as the daemon's set-up warm-up would pay it.
        let nodes = predict_nodes();
        let shapes = PredictGen::new(seed, 0).distinct_shapes();
        let ((), t) = log.time("schedcost.rank_static.cold", || {
            for r in &shapes {
                schedcost::rank_static(
                    r.collective,
                    &nodes[r.cluster as usize],
                    JobLayout::new(r.nodes, r.ppn),
                    r.msg,
                );
            }
        });
        cold_s = t;
    }
    let serves = if op == Op::Select {
        recipe::tables_dir(dir)
    } else {
        dir.to_path_buf()
    };
    let mut daemon = Daemon::in_process(work, &serves)?;
    let (client, _) = log.time("setup.warm_up", || warm_up(&daemon, op, seed));
    let mut client = client?;
    let before = pml_obs::metrics::snapshot();
    let half = seconds / 2.0;
    let plain = timed_loop(&mut client, half, false, started);
    let traced = timed_loop(&mut client, half, true, started);
    let after = pml_obs::metrics::snapshot();
    let stats = daemon.control("stats", "")?;
    let watch = daemon.control("watch", ",\"interval_ms\":1,\"count\":1")?;
    drop(std::mem::take(&mut client.conns));
    daemon.stop()?;
    let polys_after = poly_counters();

    let (a, b) = (loop_stats(&plain), loop_stats(&traced));
    let daemon_us = stage_mean_us(&after, "serve.request.total_ns");
    let (rows_sum, rows_n) = {
        let (s1, n1) = batch_rows(&before);
        let (s2, n2) = batch_rows(&after);
        (s2 - s1, n2 - n1)
    };
    let (hits, misses, entries) = memo_stats(&stats);
    let stage_means = Value::Object(
        pml_serve::STAGE_NAMES
            .iter()
            .map(|s| {
                let name = if *s == "total" {
                    "serve.request.total_ns".to_string()
                } else {
                    format!("serve.stage.{s}_ns")
                };
                (s.to_string(), Value::Float(stage_mean_us(&after, &name)))
            })
            .collect(),
    );

    // Microprobes over the stream connection 0 sent, warm-up first.
    let mut gen = Gen::new(op, seed, 0);
    let sample: Vec<Req> = (0..PROBE_SAMPLE + WARMUP_SELECT)
        .map(|_| gen.next())
        .collect();
    let probes = match &reference {
        Reference::Select(_) => probe_select(dir, &sample, &mut log)?,
        Reference::Predict(models, nodes) => {
            probe_predict(models, nodes, &sample[..2000], &mut log)?
        }
    };

    let (checked, failed) = [&client.warmup, &plain.records, &traced.records]
        .iter()
        .map(|recs| reference.check(recs))
        .fold((0, 0), |(c, f), (c2, f2)| (c + c2, f + f2));
    let mut spans = log;
    if let Some(t) = traced.spans {
        spans.absorb(t);
    }
    let polys = polys_after.0 - polys_before.0;
    let hits_p = polys_after.1 - polys_before.1;
    let mut metrics = vec![
        ("serve.daemon_us", daemon_us),
        ("serve.unattributed_us", a.mean_us - daemon_us),
        (
            "serve.queue_wait_us",
            stage_mean_us(&after, "serve.stage.queue_wait_ns"),
        ),
        (
            "serve.batch_assembly_us",
            stage_mean_us(&after, "serve.stage.batch_assembly_ns"),
        ),
        ("serve.batch_rows", ratio(rows_sum, rows_n)),
        ("tuner.memo_hit_ratio", ratio(hits, hits + misses)),
        ("tuner.memo_entries", entries as f64),
        (
            "obs.trace_overhead_pct",
            (b.p50_us - a.p50_us) / a.p50_us * 100.0,
        ),
        ("serve.latency_p99_us", a.p99_us),
        ("serve.throughput_rps", a.ok_per_s),
        ("schedcost.cold_s", cold_s),
        ("schedcost.polys_extracted", polys as f64),
        ("schedcost.poly_hit_ratio", ratio(hits_p, polys + hits_p)),
    ];
    metrics.extend(probes);
    Ok(obj([
        (
            "metrics",
            Value::Object(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(v)))
                    .collect(),
            ),
        ),
        ("checked", Value::UInt(checked)),
        ("failed", Value::UInt(failed)),
        ("samples_untraced", Value::UInt(a.samples)),
        ("samples_traced", Value::UInt(b.samples)),
        ("p50_untraced_us", Value::Float(a.p50_us)),
        ("p50_traced_us", Value::Float(b.p50_us)),
        ("stage_mean_us", stage_means),
        ("stats", stats),
        ("watch", watch),
        ("spans", spans.to_value(4000)),
    ]))
}

/// `select` microprobes: `parse_request` on the rendered frames,
/// `Tuner::select_traced` replaying the stream after its warm-up, and
/// `render_select` on the answers.
fn probe_select(
    dir: &Path,
    sample: &[Req],
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut probes = Vec::new();
    let frames: Vec<String> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| crate::gen::frame("select", i as u64, r))
        .collect();
    let (us, _) = log.time("probe.protocol.parse_request", || {
        per_call_us(20, PROBE_SAMPLE / 20, |i| {
            std::hint::black_box(pml_serve::parse_request(&frames[i]).is_ok());
        })
    });
    probes.push(("serve.parse_us", us));
    let tuner = Tuner::new(load_tables(dir)?);
    for r in &sample[..WARMUP_SELECT] {
        tuner.select(r.collective, JobConfig::new(r.nodes, r.ppn, r.msg));
    }
    let timed = &sample[WARMUP_SELECT..];
    let (us, _) = log.time("probe.tuner.select_traced", || {
        per_call_us(20, PROBE_SAMPLE / 20, |i| {
            let r = &timed[i];
            std::hint::black_box(
                tuner.select_traced(r.collective, JobConfig::new(r.nodes, r.ppn, r.msg)),
            );
        })
    });
    probes.push(("tuner.select_us", us));
    let answers: Vec<_> = timed
        .iter()
        .map(|r| tuner.select_traced(r.collective, JobConfig::new(r.nodes, r.ppn, r.msg)))
        .collect();
    let (us, _) = log.time("probe.protocol.render_select", || {
        per_call_us(20, PROBE_SAMPLE / 20, |i| {
            let (algo, depth) = answers[i];
            std::hint::black_box(pml_serve::protocol::render_select(
                Some(i as u64),
                algo,
                depth,
            ));
        })
    });
    probes.push(("serve.render_us", us));
    Ok(probes)
}

/// `predict` microprobes, each on single rows of the request stream:
/// `extract_batch`, warm `rank_static`, and the forest via
/// `predict_dataset`.
fn probe_predict(
    models: &[PretrainedModel],
    nodes: &[NodeSpec; 2],
    sample: &[Req],
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut probes = Vec::new();
    let job = |r: &Req| JobConfig::new(r.nodes, r.ppn, r.msg);
    let (us, _) = log.time("probe.features.extract_batch", || {
        per_call_us(10, 200, |i| {
            let r = &sample[i];
            std::hint::black_box(pml_core::extract_batch(
                &nodes[r.cluster as usize],
                r.collective,
                &[job(r)],
            ));
        })
    });
    probes.push(("features.extract_us", us));
    let (us, _) = log.time("probe.schedcost.rank_static", || {
        per_call_us(10, 200, |i| {
            let r = &sample[i];
            std::hint::black_box(schedcost::rank_static(
                r.collective,
                &nodes[r.cluster as usize],
                JobLayout::new(r.nodes, r.ppn),
                r.msg,
            ));
        })
    });
    probes.push(("schedcost.rank_static_us", us));
    let rows: Vec<_> = sample
        .iter()
        .map(|r| {
            let entry = by_name(HELD_OUT[r.cluster as usize]).expect("zoo cluster");
            let model = models
                .iter()
                .find(|m| m.collective == r.collective)
                .expect("both models load");
            recipe::grid_dataset(entry, r.collective, &[job(r)]).map(|d| (model, d))
        })
        .collect::<Result<_, _>>()?;
    let (us, _) = log.time("probe.forest.predict_dataset", || {
        per_call_us(10, 200, |i| {
            let (model, data) = &rows[i];
            std::hint::black_box(model.predict_dataset(data));
        })
    });
    probes.push(("forest.predict_row_us", us));
    Ok(probes)
}
