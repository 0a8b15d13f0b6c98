//! perfbench: the end-to-end and per-layer benchmark of pml-mpi.
//!
//! ```text
//! perfbench --workload <select|predict|train|deploy> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the root of a checkout after building `pml-mpi` and this
//! package into the same target directory (`perfbench/run.py` does both).
//! Inputs are drawn from `--seed`; every output is checked against an
//! in-process reference. Human-readable metric lines, then a stamp line,
//! then one JSON result line are printed to standard output:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": x, "unit": "u"}, ...}}
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics, writing its spans to
//! `.perfbench/results/`. `perfbench worker ...` is the fresh-process
//! worker the runs spawn (see `recipe.rs` and `serve.rs`).

mod client;
mod daemon;
mod gen;
mod json;
mod recipe;
mod rev;
mod serve;
mod stats;
mod trace;
mod workloads;

use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Ctx, Workload};

/// Scratch and result files, relative to the checkout root.
const STATE_DIR: &str = ".perfbench";

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("worker") {
        worker(started, &args[1..])
    } else {
        bench(&args)
    };
    if let Err(e) = result {
        eprintln!("perfbench: error: {e}");
        std::process::exit(1);
    }
}

/// `--name value` flags plus bare `--switch`es.
struct Flags(Vec<String>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        self.0
            .iter()
            .position(|a| *a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn need(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.need(name)?
            .parse()
            .map_err(|_| format!("--{name}: not a number"))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| *a == format!("--{name}"))
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let flags = Flags(args.to_vec());
    let name = flags.need("workload")?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload {name:?} (select, predict, train, deploy)"))?;
    let seed: u64 = flags.num("seed")?;
    let seconds: f64 = flags.num("seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let traced = match flags.need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let pml_mpi = exe.with_file_name("pml-mpi");
    if !pml_mpi.is_file() {
        return Err(format!(
            "{} not built (run perfbench/run.py)",
            pml_mpi.display()
        ));
    }
    let work =
        PathBuf::from(STATE_DIR).join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        work,
        pml_mpi,
    };
    let outcome = workloads::run(&ctx, traced);
    std::fs::remove_dir_all(&ctx.work).ok();
    let outcome = outcome?;

    let stamp = workloads::stamp(&ctx, traced, &outcome);
    for (k, v, u) in &outcome.metrics {
        let note = if traced || workloads::BOUNDED.contains(k) {
            ""
        } else {
            "  (unbounded)"
        };
        println!("{:<8} {:<30} {:>16.6} {u}{note}", workload.name(), k, v);
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<8} {:<30} {:>16.6} ratio  ({} failed of {} attempted)",
        workload.name(),
        "error_rate",
        error_rate,
        outcome.failed,
        outcome.attempted
    );
    if traced {
        let path = workloads::write_trace(
            &Path::new(STATE_DIR).join("results"),
            &ctx,
            &stamp,
            &outcome,
        )?;
        println!("trace written to {}", path.display());
    }
    println!("{}", json::render(&json::obj([("stamp", stamp)])));
    let metrics = Value::Object(
        outcome
            .metrics
            .iter()
            .filter(|(k, _, _)| traced || workloads::BOUNDED.contains(k))
            .map(|(k, v, u)| {
                (
                    k.to_string(),
                    json::obj([
                        ("value", Value::Float(*v)),
                        ("unit", Value::Str(u.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = json::obj([
        (
            "correct",
            Value::Bool(outcome.failed == 0 && outcome.attempted > 0),
        ),
        ("attempted", Value::UInt(outcome.attempted.max(1))),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", json::render(&result));
    Ok(())
}

fn worker(started: Instant, args: &[String]) -> Result<(), String> {
    let kind = args.first().map(String::as_str).unwrap_or("");
    let flags = Flags(args.to_vec());
    let report = match kind {
        "build" => recipe::worker_build(
            started,
            flags.num("seed")?,
            Path::new(flags.need("out")?),
            flags.has("verify"),
            flags.has("tables"),
            flags.has("trace"),
        )?,
        "deploy" => {
            let clusters: Vec<String> = flags
                .need("clusters")?
                .split(',')
                .map(str::to_string)
                .collect();
            recipe::worker_deploy(
                started,
                Path::new(flags.need("models")?),
                Path::new(flags.need("out")?),
                &clusters,
                flags.has("trace"),
            )?
        }
        "serve" => {
            let op = serve::Op::parse(flags.need("op")?).ok_or("--op must be select or predict")?;
            serve::worker_serve(
                started,
                op,
                Path::new(flags.need("dir")?),
                Path::new(flags.need("work")?),
                flags.num("seed")?,
                flags.num("seconds")?,
            )?
        }
        other => return Err(format!("unknown worker {other:?}")),
    };
    println!("{}", json::render(&report));
    Ok(())
}
