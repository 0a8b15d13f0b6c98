//! The four workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use crate::daemon::Daemon;
use crate::gen::{HELD_OUT, SELECT_CLUSTER};
use crate::json::{self, get, get_f64, get_u64, obj};
use crate::recipe::{model_bytes, spawn_worker, tables_dir, WorkerRun};
use crate::serve::{ratio, segment_stats, segmented_loop, warm_up, Op, Reference};
use crate::stats::{median, quantile};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced `select`/`predict` run; `setup_s` is their
/// median. Their set-up adds a daemon start and a warm-up to the
/// artifact build, the parts that vary most from one try to the next.
const SERVE_SETUP_REPS: usize = 2;
/// Set-ups per untraced `train`/`deploy` run: their set-up is the one
/// artifact build, and a second would add about 5 s to every run, more
/// than the time budget of a full benchmark round allows.
const OFFLINE_SETUP_REPS: usize = 1;
/// The end-to-end metrics `BENCHMARK.json` bounds: the result line of an
/// untraced run carries exactly these. `latency_p99_us` and
/// `throughput_rps` are printed for every workload too, but are too
/// sensitive to interference on a small shared box to bound; the traced
/// run reports them per layer (`serve.latency_p99_us`,
/// `serve.throughput_rps`).
pub const BOUNDED: [&str; 4] = ["latency_p50_us", "wall_s", "setup_s", "peak_rss_mib"];
/// Length of the serve probes a traced run adds for the serve op its
/// workload does not exercise itself.
const PROBE_SECONDS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Select,
    Predict,
    Train,
    Deploy,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "select" => Some(Workload::Select),
            "predict" => Some(Workload::Predict),
            "train" => Some(Workload::Train),
            "deploy" => Some(Workload::Deploy),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Select => "select",
            Workload::Predict => "predict",
            Workload::Train => "train",
            Workload::Deploy => "deploy",
        }
    }
}

#[derive(Debug)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory of this run (relative to the checkout root).
    pub work: PathBuf,
    /// The `pml-mpi` binary under test.
    pub pml_mpi: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// (name, value, unit)
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// How many samples each reported statistic rests on.
    pub samples: Vec<(&'static str, u64)>,
    /// Worker reports and spans, for the trace document.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    fn check(&mut self, checked: u64, failed: u64) {
        self.attempted += checked;
        self.failed += failed;
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

fn arg(p: &Path) -> String {
    p.display().to_string()
}

/// Run the shared recipe (plus `tables`) in a fresh worker process.
fn build(ctx: &Ctx, out: &Path, tables: bool, traced: bool) -> Result<WorkerRun, String> {
    let mut args = vec![
        "build".to_string(),
        "--seed".to_string(),
        ctx.seed.to_string(),
        "--out".to_string(),
        arg(out),
        "--verify".to_string(),
    ];
    if tables {
        args.push("--tables".to_string());
    }
    if traced {
        args.push("--trace".to_string());
    }
    spawn_worker(&args)
}

/// (checked, failed): every build's model bytes equal the first build's.
fn identical_models(dirs: &[PathBuf]) -> Result<(u64, u64), String> {
    let first = model_bytes(&dirs[0])?;
    let mut failed = 0;
    for d in &dirs[1..] {
        failed += u64::from(model_bytes(d)? != first);
    }
    Ok((dirs.len() as u64 - 1, failed))
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    match (ctx.workload, traced) {
        (Workload::Select, false) => serve_untraced(ctx, Op::Select),
        (Workload::Predict, false) => serve_untraced(ctx, Op::Predict),
        (Workload::Train, false) => offline_untraced(ctx, false),
        (Workload::Deploy, false) => offline_untraced(ctx, true),
        (_, true) => traced_run(ctx),
    }
}

/// `select` / `predict`: set up (artifacts, `pml-mpi serve`, warm-up)
/// `SERVE_SETUP_REPS` times, keep the last daemon, run the timed closed loop,
/// then check every reply against the in-process reference.
fn serve_untraced(ctx: &Ctx, op: Op) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut dirs = Vec::new();
    let mut kept = None;
    for rep in 0..SERVE_SETUP_REPS {
        let t = Instant::now();
        let dir = ctx.work.join(format!("setup{rep}"));
        build(ctx, &dir, op == Op::Select, false)?;
        let run_dir = ctx.work.join(format!("daemon{rep}"));
        std::fs::create_dir_all(&run_dir).map_err(|e| e.to_string())?;
        let serves = if op == Op::Select {
            tables_dir(&dir)
        } else {
            dir.clone()
        };
        let daemon = Daemon::spawn(&ctx.pml_mpi, &run_dir, &serves)?;
        let client = warm_up(&daemon, op, ctx.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        dirs.push(dir);
        kept = Some((daemon, client));
        if rep + 1 < SERVE_SETUP_REPS {
            let (mut daemon, client) = kept.take().expect("just set");
            drop(client);
            let stopped = daemon.stop();
            out.check(1, u64::from(stopped.is_err()));
        }
    }
    let (mut daemon, mut client) = kept.ok_or("no set-up ran")?;
    let segments = segmented_loop(&daemon, &mut client, ctx.seconds)?;
    let rss = daemon.peak_rss_mib().ok_or("daemon peak RSS unreadable")?;
    let warmup = std::mem::take(&mut client.warmup);
    drop(client);
    let stopped = daemon.stop();
    out.check(1, u64::from(stopped.is_err()));

    let reference = Reference::load(op, dirs.last().expect("at least one set-up"))?;
    let (c, f) = reference.check(&warmup);
    out.check(c, f);
    for seg in &segments {
        let (c, f) = reference.check(&seg.records);
        out.check(c, f);
    }
    let (c, f) = identical_models(&dirs)?;
    out.check(c, f);

    let st = segment_stats(&segments);
    out.metric("latency_p50_us", st.p50_us, "us");
    out.metric("latency_p99_us", st.p99_us, "us");
    out.metric("throughput_rps", st.ok_per_s, "1/s");
    out.metric("wall_s", segments.iter().map(|s| s.wall_s).sum(), "s");
    out.metric("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.samples.push(("latency_samples", st.samples));
    out.samples.push(("latency_segments", st.windows));
    out.samples.push(("warmup_requests", warmup.len() as u64));
    out.samples.push(("setup_reps", SERVE_SETUP_REPS as u64));
    Ok(out)
}

/// `train` / `deploy`: set up (the shared recipe) `OFFLINE_SETUP_REPS` times,
/// then run the timed pass in fresh worker processes until `seconds`
/// pass: at least three `train` passes (about 5 s each, so the median
/// ignores one disturbed pass) and at least one `deploy` pass (over
/// 20 s). A `train` pass must rebuild the set-up's models byte for byte;
/// a `deploy` pass checks its own tables.
fn offline_untraced(ctx: &Ctx, deploy: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut dirs = Vec::new();
    for rep in 0..OFFLINE_SETUP_REPS {
        let dir = ctx.work.join(format!("setup{rep}"));
        let run = build(ctx, &dir, false, false)?;
        setup_s.push(run.wall_s);
        dirs.push(dir);
    }
    let models = dirs.last().expect("at least one set-up").clone();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let min_passes = if deploy { 1 } else { 3 };
    while walls.len() < min_passes || walls.iter().sum::<f64>() < ctx.seconds {
        let pass = ctx.work.join(format!("pass{}", walls.len()));
        let report = if deploy {
            let clusters = HELD_OUT.join(",");
            let run = spawn_worker(&[
                "deploy".into(),
                "--models".into(),
                arg(&models),
                "--out".into(),
                arg(&pass),
                "--clusters".into(),
                clusters,
            ])?;
            let r = run.report;
            out.check(
                get_u64(&r, "checked").unwrap_or(0),
                get_u64(&r, "failed").unwrap_or(1),
            );
            r
        } else {
            let run = spawn_worker(&[
                "build".into(),
                "--seed".into(),
                ctx.seed.to_string(),
                "--out".into(),
                arg(&pass),
            ])?;
            dirs.push(pass);
            run.report
        };
        walls.push(get_f64(&report, "timed_s").ok_or("worker reported no timed_s")?);
        rss.push(get_u64(&report, "vmhwm_kib").unwrap_or(0) as f64 / 1024.0);
    }
    let (c, f) = identical_models(&dirs)?;
    out.check(c, f);

    let mut w = walls.clone();
    out.metric("latency_p50_us", median(&walls).unwrap_or(0.0) * 1e6, "us");
    out.metric(
        "latency_p99_us",
        quantile(&mut w, 0.99).unwrap_or(0.0) * 1e6,
        "us",
    );
    out.metric(
        "throughput_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("wall_s", median(&walls).unwrap_or(0.0), "s");
    out.metric("setup_s", median(&setup_s).unwrap_or(0.0), "s");
    out.metric("peak_rss_mib", median(&rss).unwrap_or(0.0), "MiB");
    out.samples.push(("timed_passes", walls.len() as u64));
    out.samples.push(("setup_reps", OFFLINE_SETUP_REPS as u64));
    Ok(out)
}

/// A traced run: the workload's own phase with spans around every call
/// into the program, plus short probes of the layers the workload does
/// not exercise, so every per-layer metric is measured on every workload
/// (on this run's own artifacts and request stream).
fn traced_run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let w = ctx.workload;
    let setup = ctx.work.join("setup0");
    // Tables too, whatever the workload: the `select` serve probe needs
    // them, and a traced run reports no set-up time.
    let setup_run = build(ctx, &setup, true, true)?;
    let setup_report = setup_run.report;

    // The build layers: the timed passes for `train`, the set-up build
    // for every other workload.
    let mut builds = vec![setup_report.clone()];
    let mut dirs = vec![setup.clone()];
    if w == Workload::Train {
        builds.clear();
        let mut total = 0.0;
        while builds.is_empty() || total < ctx.seconds {
            let pass = ctx.work.join(format!("pass{}", builds.len()));
            let run = spawn_worker(&[
                "build".into(),
                "--seed".into(),
                ctx.seed.to_string(),
                "--out".into(),
                arg(&pass),
                "--trace".into(),
            ])?;
            total += get_f64(&run.report, "timed_s").unwrap_or(0.0);
            builds.push(run.report);
            dirs.push(pass);
        }
        let (c, f) = identical_models(&dirs)?;
        out.check(c, f);
    }

    let serve = |op: Op, seconds: f64| -> Result<Value, String> {
        let work = ctx.work.join(format!("serve-{}", op.name()));
        std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
        Ok(spawn_worker(&[
            "serve".into(),
            "--op".into(),
            op.name().into(),
            "--dir".into(),
            arg(&setup),
            "--work".into(),
            arg(&work),
            "--seed".into(),
            ctx.seed.to_string(),
            "--seconds".into(),
            seconds.to_string(),
        ])?
        .report)
    };
    let length = |op: Op| {
        if (op == Op::Select && w == Workload::Select)
            || (op == Op::Predict && w == Workload::Predict)
        {
            ctx.seconds
        } else {
            PROBE_SECONDS
        }
    };
    let select = serve(Op::Select, length(Op::Select))?;
    let predict = serve(Op::Predict, length(Op::Predict))?;
    let clusters = if w == Workload::Deploy {
        HELD_OUT.join(",")
    } else {
        SELECT_CLUSTER.to_string()
    };
    let deploy = spawn_worker(&[
        "deploy".into(),
        "--models".into(),
        arg(&setup),
        "--out".into(),
        arg(&ctx.work.join("deploy")),
        "--clusters".into(),
        clusters,
        "--trace".into(),
    ])?
    .report;
    for r in [&select, &predict, &deploy] {
        out.check(
            get_u64(r, "checked").unwrap_or(0),
            get_u64(r, "failed").unwrap_or(1),
        );
    }

    // Per-layer metrics, each from the phase that owns it on this workload.
    let serve_own = if w == Workload::Predict {
        &predict
    } else {
        &select
    };
    let sm = |r: &Value, k: &str| get(r, "metrics").and_then(|m| get_f64(m, k)).unwrap_or(0.0);
    let bmed = |k: &str| {
        median(
            &builds
                .iter()
                .filter_map(|b| get_f64(b, k))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let bcount = |k: &str| {
        get(&builds[0], "counters")
            .and_then(|c| get_u64(c, k))
            .unwrap_or(0) as f64
    };
    let dcount = |k: &str| {
        get(&deploy, "counters")
            .and_then(|c| get_u64(c, k))
            .unwrap_or(0)
    };
    let datagen_s = bmed("datagen_s");
    let fit_s = median(
        &builds
            .iter()
            .map(|b| {
                get_f64(b, "train_s").unwrap_or(0.0)
                    - get_f64(b, "records_to_dataset_warm_s").unwrap_or(0.0)
            })
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let verify_ms = if w == Workload::Deploy {
        get_f64(&deploy, "verify_s").unwrap_or(0.0)
    } else {
        get_f64(&setup_report, "verify_s").unwrap_or(0.0)
    } * 1e3;
    let (cold_s, polys, poly_hits) = if w == Workload::Predict {
        (
            sm(&predict, "schedcost.cold_s"),
            sm(&predict, "schedcost.polys_extracted"),
            sm(&predict, "schedcost.poly_hit_ratio"),
        )
    } else {
        let (p, h) = (
            dcount("schedcost.polys"),
            dcount("schedcost.cache.poly_hits"),
        );
        (
            get_f64(&deploy, "cold_s").unwrap_or(0.0),
            p as f64,
            ratio(h, p + h),
        )
    };
    let m = &mut out;
    m.metric("serve.parse_us", sm(&select, "serve.parse_us"), "us");
    m.metric("serve.render_us", sm(&select, "serve.render_us"), "us");
    m.metric("serve.daemon_us", sm(serve_own, "serve.daemon_us"), "us");
    m.metric(
        "serve.unattributed_us",
        sm(serve_own, "serve.unattributed_us"),
        "us",
    );
    m.metric(
        "serve.queue_wait_us",
        sm(&predict, "serve.queue_wait_us"),
        "us",
    );
    m.metric(
        "serve.batch_assembly_us",
        sm(&predict, "serve.batch_assembly_us"),
        "us",
    );
    m.metric("serve.batch_rows", sm(&predict, "serve.batch_rows"), "rows");
    m.metric("tuner.select_us", sm(&select, "tuner.select_us"), "us");
    m.metric(
        "tuner.memo_hit_ratio",
        sm(&select, "tuner.memo_hit_ratio"),
        "ratio",
    );
    m.metric(
        "tuner.memo_entries",
        sm(&select, "tuner.memo_entries"),
        "count",
    );
    m.metric("verify.artifacts_ms", verify_ms, "ms");
    m.metric(
        "features.extract_us",
        sm(&predict, "features.extract_us"),
        "us",
    );
    m.metric(
        "features.records_to_dataset_s",
        bmed("records_to_dataset_s"),
        "s",
    );
    m.metric(
        "schedcost.rank_static_us",
        sm(&predict, "schedcost.rank_static_us"),
        "us",
    );
    m.metric("schedcost.cold_s", cold_s, "s");
    m.metric("schedcost.polys_extracted", polys, "count");
    m.metric("schedcost.poly_hit_ratio", poly_hits, "ratio");
    m.metric(
        "forest.predict_row_us",
        sm(&predict, "forest.predict_row_us"),
        "us",
    );
    m.metric(
        "forest.predict_batch_row_us",
        get_f64(&deploy, "predict_batch_row_us").unwrap_or(0.0),
        "us",
    );
    m.metric(
        "pipeline.table_s",
        get_f64(&deploy, "table_s").unwrap_or(0.0),
        "s",
    );
    m.metric("datagen.s", datagen_s, "s");
    m.metric(
        "datagen.cells_per_s",
        bcount("datagen.cells") / datagen_s.max(1e-9),
        "1/s",
    );
    m.metric("measure.points", bcount("measure.points"), "count");
    m.metric("fit.s", fit_s, "s");
    m.metric("fit.tree_nodes", bcount("train.tree.nodes"), "count");
    m.metric(
        "obs.trace_overhead_pct",
        sm(serve_own, "obs.trace_overhead_pct"),
        "%",
    );
    m.metric(
        "serve.latency_p99_us",
        sm(serve_own, "serve.latency_p99_us"),
        "us",
    );
    m.metric(
        "serve.throughput_rps",
        sm(serve_own, "serve.throughput_rps"),
        "1/s",
    );

    out.samples.push(("build_passes", builds.len() as u64));
    for (k, r) in [("select", &select), ("predict", &predict)] {
        let n =
            get_u64(r, "samples_untraced").unwrap_or(0) + get_u64(r, "samples_traced").unwrap_or(0);
        out.samples.push((
            if k == "select" {
                "select_requests"
            } else {
                "predict_requests"
            },
            n,
        ));
    }
    out.detail = vec![
        ("setup_build".to_string(), setup_report),
        ("builds".to_string(), Value::Array(builds)),
        ("serve_select".to_string(), select),
        ("serve_predict".to_string(), predict),
        ("deploy".to_string(), deploy),
    ];
    Ok(out)
}

/// The stamp every result carries.
pub fn stamp(ctx: &Ctx, traced: bool, outcome: &Outcome) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("workload", Value::Str(ctx.workload.name().to_string())),
        ("trace", Value::Bool(traced)),
        ("rev", Value::Str(crate::rev::rev())),
        ("source_digest", Value::Str(crate::rev::source_digest())),
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", Value::Float(ctx.seconds)),
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu_model", Value::Str(cpu)),
        (
            "samples",
            Value::Object(
                outcome
                    .samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Write the trace document of a traced run; returns its path.
pub fn write_trace(
    dir: &Path,
    ctx: &Ctx,
    stamp: &Value,
    outcome: &Outcome,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace.json",
        ctx.workload.name(),
        ctx.seed
    ));
    let metrics = Value::Object(
        outcome
            .metrics
            .iter()
            .map(|(k, v, u)| {
                (
                    k.to_string(),
                    obj([
                        ("value", Value::Float(*v)),
                        ("unit", Value::Str(u.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let mut doc = vec![
        ("stamp".to_string(), stamp.clone()),
        ("metrics".to_string(), metrics),
    ];
    doc.extend(outcome.detail.iter().cloned());
    std::fs::write(&path, json::render(&Value::Object(doc)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
