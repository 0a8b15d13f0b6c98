//! The daemon under test: `pml-mpi serve` as its own process (untraced
//! runs), or the same server library hosted in this process (traced runs,
//! so its pml-obs stage metrics can be read exactly).

use crate::client::{wait_ready, Conn};
use crate::json;
use crate::recipe::vmhwm_kib;
use pml_serve::{load_artifacts, BatchConfig, ObsConfig, Server};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(120);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// Never set: in-process daemons stop through a `shutdown` frame.
static NO_SIGNAL: AtomicBool = AtomicBool::new(false);

#[derive(Debug)]
enum Host {
    Process(Child),
    Thread(JoinHandle<Result<(), String>>),
}

/// A running daemon and the socket it listens on.
#[derive(Debug)]
pub struct Daemon {
    host: Option<Host>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Start `pml-mpi serve` with its default flags over the artifact
    /// directory `model_dir`, running in `workdir`, and wait until it
    /// answers a ping.
    pub fn spawn(pml_mpi: &Path, workdir: &Path, model_dir: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(workdir.join("daemon.log")).map_err(|e| e.to_string())?;
        let model_dir = std::fs::canonicalize(model_dir)
            .map_err(|e| format!("{}: {e}", model_dir.display()))?;
        let child = Command::new(pml_mpi)
            .arg("serve")
            .arg("--socket")
            .arg("d.sock")
            .arg("--model")
            .arg(&model_dir)
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", pml_mpi.display()))?;
        let mut d = Daemon {
            host: Some(Host::Process(child)),
            socket: workdir.join("d.sock"),
        };
        let socket = d.socket.clone();
        let ready = wait_ready(&socket, READY_TIMEOUT, &mut || d.alive());
        if let Err(e) = ready {
            d.stop().ok();
            return Err(e);
        }
        Ok(d)
    }

    /// Host the server library on a thread of this process, with the
    /// same default configuration `pml-mpi serve` uses.
    pub fn in_process(workdir: &Path, model_dir: &Path) -> Result<Daemon, String> {
        let socket = workdir.join("d.sock");
        let artifacts = load_artifacts(model_dir).map_err(|e| e.to_string())?;
        if !artifacts.warnings.is_empty() {
            return Err(format!("artifact warnings: {:?}", artifacts.warnings));
        }
        let server = Server::with_artifacts(
            &socket,
            artifacts,
            BatchConfig::default(),
            ObsConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run(&NO_SIGNAL).map_err(|e| e.to_string()));
        let mut d = Daemon {
            host: Some(Host::Thread(thread)),
            socket,
        };
        let socket = d.socket.clone();
        if let Err(e) = wait_ready(&socket, READY_TIMEOUT, &mut || true) {
            d.stop().ok();
            return Err(e);
        }
        Ok(d)
    }

    fn alive(&mut self) -> bool {
        match self.host.as_mut() {
            Some(Host::Process(child)) => matches!(child.try_wait(), Ok(None)),
            Some(Host::Thread(t)) => !t.is_finished(),
            None => false,
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.socket)
    }

    /// One control request on its own connection.
    pub fn control(&self, op: &str, extra: &str) -> Result<Value, String> {
        self.connect()?.control(op, extra)
    }

    /// Peak resident set of the daemon process, in MiB (`None` when it is
    /// hosted in this process).
    pub fn peak_rss_mib(&self) -> Option<f64> {
        match self.host.as_ref() {
            Some(Host::Process(child)) => {
                vmhwm_kib(&child.id().to_string()).map(|k| k as f64 / 1024.0)
            }
            _ => None,
        }
    }

    /// Ask the daemon to shut down and wait for it; a process that does
    /// not exit in time is killed.
    pub fn stop(&mut self) -> Result<(), String> {
        let asked = self.control("shutdown", "");
        match self.host.take() {
            Some(Host::Process(mut child)) => {
                let deadline = Instant::now() + STOP_TIMEOUT;
                loop {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                        Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            child.kill().ok();
                            child.wait().ok();
                            return Err("daemon did not stop; killed".to_string());
                        }
                    }
                }
            }
            Some(Host::Thread(thread)) => {
                asked?;
                thread
                    .join()
                    .map_err(|_| "daemon thread panicked".to_string())?
            }
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.host.is_some() {
            self.stop().ok();
        }
    }
}

/// `stats` reply fields the benchmark reads: (cache hits, cache misses,
/// memoized decisions).
pub fn memo_stats(v: &Value) -> (u64, u64, u64) {
    let f = |k| json::get_u64(v, k).unwrap_or(0);
    (f("cache_hits"), f("cache_misses"), f("cached_decisions"))
}
