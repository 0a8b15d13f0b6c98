//! The shared artifact recipe and the fresh-process workers that run it.
//!
//! Every workload's set-up builds its artifacts the same way: datagen over
//! the training zoo (the 16 zoo clusters other than the held-out Frontera
//! and MRI, each cut to its first 4 node counts and first 4 PPN values,
//! every message size), `PretrainedModel::train` with 100 trees and the
//! top-5 features for allgather and alltoall, models written as JSON and
//! loaded back through the verifier as a deployment loads them.
//!
//! Workers are this binary re-invoked as `perfbench worker <kind> ...`, so
//! each timed pass starts with cold process-wide caches. A worker prints
//! one JSON object as the last line of its standard output.

use crate::gen::{COLLECTIVES, HELD_OUT, SELECT_CLUSTER};
use crate::json::{self, obj};
use crate::trace::SpanLog;
use pml_clusters::{by_name, generate_full, zoo, ClusterEntry, DatagenConfig};
use pml_collectives::{schedcost, Collective};
use pml_core::{
    records_to_dataset, verify_model_json, verify_table_json, JobConfig, PretrainedModel,
    TrainConfig,
};
use pml_mlcore::{Dataset, ForestParams};
use pml_serve::collective_wire_name;
use pml_simnet::JobLayout;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Node counts and PPN values each training cluster keeps.
const TRAIN_GRID_KEEP: usize = 4;

pub fn training_zoo() -> Vec<ClusterEntry> {
    zoo()
        .iter()
        .filter(|e| !HELD_OUT.contains(&e.name()))
        .map(|e| {
            let mut e = e.clone();
            e.node_grid.truncate(TRAIN_GRID_KEEP);
            e.ppn_grid.truncate(TRAIN_GRID_KEEP);
            e
        })
        .collect()
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        forest: ForestParams {
            n_estimators: 100,
            seed,
            ..ForestParams::default()
        },
        top_k_features: Some(5),
    }
}

pub fn model_path(dir: &Path, c: Collective) -> PathBuf {
    dir.join("models")
        .join(format!("{}.json", collective_wire_name(c)))
}

/// Tables live in their own subdirectory: a `select` daemon is pointed
/// at it and loads tables only.
pub fn table_path(dir: &Path, c: Collective) -> PathBuf {
    tables_dir(dir).join(format!("{}.json", collective_wire_name(c)))
}

pub fn tables_dir(dir: &Path) -> PathBuf {
    dir.join("tables")
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load the two models through the verifier, as a deployment does.
pub fn load_models(dir: &Path) -> Result<Vec<PretrainedModel>, String> {
    COLLECTIVES
        .iter()
        .map(|&c| {
            let path = model_path(dir, c);
            verify_model_json(&read(&path)?).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn vmhwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The pml-obs counters the workers report (exact, per process).
fn counters() -> Value {
    let snap = pml_obs::metrics::snapshot();
    let c = |name: &str| Value::UInt(snap.counters.get(name).copied().unwrap_or(0));
    let tree_nodes = snap.histograms.get("train.tree.nodes").map_or(0, |h| h.sum);
    obj([
        ("measure.points", c("measure.points")),
        ("datagen.cells", c("datagen.cells")),
        ("schedcost.polys", c("schedcost.polys")),
        ("schedcost.cache.poly_hits", c("schedcost.cache.poly_hits")),
        ("train.tree.nodes", Value::UInt(tree_nodes)),
    ])
}

/// Worker `build`: the shared recipe. With `verify`, the written models
/// are loaded back through the verifier; with `tables`, RI2 tuning tables
/// (the `select` workload's) are generated from the verified models,
/// written, and re-verified. Traced builds also time `records_to_dataset` cold (before
/// `train`) and warm (after it), so fit time is `train` minus the warm
/// pass the training call repeats internally.
pub fn worker_build(
    started: Instant,
    seed: u64,
    out: &Path,
    verify: bool,
    tables: bool,
    traced: bool,
) -> Result<Value, String> {
    let mut log = SpanLog::new(started);
    let zoo_train = training_zoo();
    let datagen = DatagenConfig {
        seed,
        ..DatagenConfig::default()
    };
    let cfg = train_config(seed);
    let (mut datagen_s, mut r2d_s, mut r2d_warm_s, mut train_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut serialize_s, mut verify_s, mut table_s) = (0.0, 0.0, 0.0);
    let mut models = Vec::new();
    for c in COLLECTIVES {
        let (records, t) = log.time("datagen.generate_full", || {
            generate_full(&zoo_train, c, &datagen)
        });
        let records = records.map_err(|e| e.to_string())?;
        datagen_s += t;
        if traced {
            let (ds, t) = log.time("features.records_to_dataset", || {
                records_to_dataset(&records, c)
            });
            ds.map_err(|e| e.to_string())?;
            r2d_s += t;
        }
        let (model, t) = log.time("pipeline.train", || {
            PretrainedModel::train(&records, c, &cfg)
        });
        let model = model.map_err(|e| e.to_string())?;
        train_s += t;
        if traced {
            let (_, t) = log.time("features.records_to_dataset.warm", || {
                records_to_dataset(&records, c)
            });
            r2d_warm_s += t;
        }
        let (written, t) = log.time("pipeline.serialize", || {
            let text = model.to_json().map_err(|e| e.to_string())?;
            write(&model_path(out, c), &text)
        });
        written?;
        serialize_s += t;
        models.push(model);
    }
    let mut cells = 0usize;
    if verify {
        let (loaded, t) = log.time("verify.models", || load_models(out));
        models = loaded?;
        verify_s += t;
    }
    if tables {
        let entry = by_name(SELECT_CLUSTER).expect("RI2 is a zoo cluster");
        for model in &models {
            let (table, t) = log.time("pipeline.generate_tuning_table", || {
                model.generate_tuning_table(entry)
            });
            let table = table.map_err(|e| e.to_string())?;
            table_s += t;
            cells += table.len();
            let path = table_path(out, model.collective);
            write(&path, &table.to_json().map_err(|e| e.to_string())?)?;
            let (checked, t) = log.time("verify.tables", || {
                verify_table_json(&read(&path)?).map_err(|e| e.to_string())
            });
            if checked? != table {
                return Err(format!(
                    "{}: table changed across a JSON round trip",
                    path.display()
                ));
            }
            verify_s += t;
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let mut out = vec![
        ("timed_s".to_string(), Value::Float(timed_s)),
        (
            "vmhwm_kib".to_string(),
            Value::UInt(vmhwm_kib("self").unwrap_or(0)),
        ),
        ("datagen_s".to_string(), Value::Float(datagen_s)),
        ("records_to_dataset_s".to_string(), Value::Float(r2d_s)),
        (
            "records_to_dataset_warm_s".to_string(),
            Value::Float(r2d_warm_s),
        ),
        ("train_s".to_string(), Value::Float(train_s)),
        ("serialize_s".to_string(), Value::Float(serialize_s)),
        ("verify_s".to_string(), Value::Float(verify_s)),
        ("table_s".to_string(), Value::Float(table_s)),
        ("table_cells".to_string(), Value::UInt(cells as u64)),
        ("counters".to_string(), counters()),
    ];
    if traced {
        out.push(("spans".to_string(), log.to_value(usize::MAX)));
    }
    Ok(Value::Object(out))
}

/// Worker `deploy`, as `pml-mpi table` runs with cold caches: load the two
/// models through the verifier, generate tables for `clusters` (Frontera
/// and MRI in the `deploy` workload) for both collectives, serialise each
/// and re-verify it. The timed phase ends
/// there; afterwards every table cell is checked against per-row
/// `predict`. Traced deploys first touch every distinct shape through
/// `schedcost::rank_static` (timed on its own), so table generation after
/// it runs warm, and time the forest on a grid-sized batch.
pub fn worker_deploy(
    started: Instant,
    models_dir: &Path,
    out: &Path,
    clusters: &[String],
    traced: bool,
) -> Result<Value, String> {
    let mut log = SpanLog::new(started);
    let (models, verify_models_s) = log.time("verify.models", || load_models(models_dir));
    let models = models?;
    let entries: Vec<&ClusterEntry> = clusters
        .iter()
        .map(|c| by_name(c).ok_or_else(|| format!("unknown cluster {c}")))
        .collect::<Result<_, _>>()?;
    let mut cold_s = 0.0;
    if traced {
        let ((), t) = log.time("schedcost.rank_static.cold", || {
            for entry in &entries {
                for model in &models {
                    for &n in &entry.node_grid {
                        for &p in &entry.ppn_grid {
                            schedcost::rank_static(
                                model.collective,
                                &entry.spec.node,
                                JobLayout::new(n, p),
                                1,
                            );
                        }
                    }
                }
            }
        });
        cold_s = t;
    }
    let (mut table_s, mut verify_tables_s) = (0.0, 0.0);
    let mut tables = Vec::new();
    for entry in &entries {
        for model in &models {
            let (table, t) = log.time("pipeline.generate_tuning_table", || {
                model.generate_tuning_table(entry)
            });
            let table = table.map_err(|e| e.to_string())?;
            table_s += t;
            let path = out.join(format!(
                "{}-{}.json",
                entry.name(),
                collective_wire_name(model.collective)
            ));
            let (verified, t) = log.time("verify.tables", || {
                write(&path, &table.to_json().map_err(|e| e.to_string())?)?;
                verify_table_json(&read(&path)?).map_err(|e| e.to_string())
            });
            verify_tables_s += t;
            tables.push((entry, model, table, verified?));
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let vmhwm = vmhwm_kib("self").unwrap_or(0);
    let counters = counters();

    // Untimed checks: each verified table equals the generated one, and
    // every cell equals the model's per-row answer.
    let (mut checked, mut failed) = (0u64, 0u64);
    for (entry, model, table, verified) in &tables {
        checked += 1;
        failed += u64::from(verified != table);
        for e in table.entries() {
            let job = JobConfig::new(e.nodes, e.ppn, e.msg_size as usize);
            checked += 1;
            failed += u64::from(model.predict(&entry.spec.node, job) != e.algorithm);
        }
    }
    let mut predict_batch_row_us = 0.0;
    if traced {
        let mut per_row = Vec::new();
        for (entry, model, table, _) in &tables {
            let jobs: Vec<JobConfig> = table
                .entries()
                .iter()
                .map(|e| JobConfig::new(e.nodes, e.ppn, e.msg_size as usize))
                .collect();
            let data = grid_dataset(entry, model.collective, &jobs)?;
            let us = crate::stats::per_call_us(5, 4, |_| {
                std::hint::black_box(model.predict_dataset(&data));
            });
            per_row.push(us / jobs.len() as f64);
        }
        predict_batch_row_us = crate::stats::median(&per_row).unwrap_or(0.0);
    }
    let mut out = vec![
        ("timed_s".to_string(), Value::Float(timed_s)),
        ("vmhwm_kib".to_string(), Value::UInt(vmhwm)),
        (
            "verify_s".to_string(),
            Value::Float(verify_models_s + verify_tables_s),
        ),
        ("table_s".to_string(), Value::Float(table_s)),
        ("cold_s".to_string(), Value::Float(cold_s)),
        (
            "predict_batch_row_us".to_string(),
            Value::Float(predict_batch_row_us),
        ),
        ("checked".to_string(), Value::UInt(checked)),
        ("failed".to_string(), Value::UInt(failed)),
        ("counters".to_string(), counters),
    ];
    if traced {
        out.push(("spans".to_string(), log.to_value(usize::MAX)));
    }
    Ok(Value::Object(out))
}

/// Full 17-feature rows for `jobs` on a cluster, as a dataset for
/// `PretrainedModel::predict_dataset`.
pub fn grid_dataset(
    entry: &ClusterEntry,
    c: Collective,
    jobs: &[JobConfig],
) -> Result<Dataset, String> {
    let x = pml_core::extract_batch(&entry.spec.node, c, jobs);
    let names = pml_core::FEATURE_NAMES
        .iter()
        .map(|s| s.to_string())
        .collect();
    Dataset::try_new(x, vec![0; jobs.len()], c.algo_count(), names).map_err(|e| e.to_string())
}

/// A finished worker: its report and wall time as seen from the parent.
#[derive(Debug)]
pub struct WorkerRun {
    pub report: Value,
    pub wall_s: f64,
}

/// Run this binary as a worker and parse the report on its last line.
pub fn spawn_worker(args: &[String]) -> Result<WorkerRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let t = Instant::now();
    let out = Command::new(exe)
        .arg("worker")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning worker {args:?}: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("worker {args:?} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("worker {args:?} printed nothing"))?;
    Ok(WorkerRun {
        report: json::parse(last)?,
        wall_s,
    })
}

/// The bytes of both model files, for exact comparison across builds.
pub fn model_bytes(dir: &Path) -> Result<Vec<Vec<u8>>, String> {
    COLLECTIVES
        .iter()
        .map(|&c| {
            let p = model_path(dir, c);
            std::fs::read(&p).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}
