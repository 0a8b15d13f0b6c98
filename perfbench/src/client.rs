//! The benchmark's own closed-loop client: one connection per thread,
//! each sending its next request only after the previous reply is parsed
//! (an MPI rank waits for its answer).

use crate::gen::Req;
use crate::json;
use crate::trace::SpanLog;
use pml_collectives::{Algorithm, Collective};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ok {
        algo: Algorithm,
        /// Fallback depth (`select` only).
        depth: Option<u8>,
    },
    /// An error frame, or a reply that did not parse.
    Failed,
}

/// One request and its answer.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub req: Req,
    pub reply: Reply,
    /// Round trip: start of the write to the parsed reply.
    pub lat_ns: u64,
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
    next_id: u64,
}

impl Conn {
    pub fn connect(socket: &Path) -> Result<Conn, String> {
        let writer =
            UnixStream::connect(socket).map_err(|e| format!("{}: {e}", socket.display()))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer,
            line: String::new(),
            next_id: 1,
        })
    }

    /// One control frame (`ping`, `stats`, `watch`, `shutdown`), parsed.
    pub fn control(&mut self, op: &str, extra: &str) -> Result<Value, String> {
        let frame = format!("{{\"v\":\"pml-serve/v1\",\"op\":\"{op}\"{extra}}}\n");
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| e.to_string())?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => json::parse(&self.line),
            Err(e) => Err(e.to_string()),
        }
    }

    /// One timed request. With a span log, records the request and its
    /// write / wait / parse children under the frame id.
    pub fn request(&mut self, op: &str, req: &Req, log: Option<&mut SpanLog>) -> Record {
        let id = self.next_id;
        self.next_id += 1;
        let frame = crate::gen::frame(op, id, req);
        let t0 = Instant::now();
        let sent = self.writer.write_all(frame.as_bytes());
        let t_written = Instant::now();
        self.line.clear();
        let read = sent.is_ok() && matches!(self.reader.read_line(&mut self.line), Ok(n) if n > 0);
        let t_read = Instant::now();
        let reply = if read {
            parse_reply(&self.line, req.collective, id)
        } else {
            Reply::Failed
        };
        let t1 = Instant::now();
        if let Some(log) = log {
            let ns = |t: Instant| log.ns(t);
            let (a, b, c, d) = (ns(t0), ns(t_written), ns(t_read), ns(t1));
            let root = log.record("client.request", a, d, None, id);
            log.record("client.write", a, b, Some(root), id);
            log.record("client.wait_reply", b, c, Some(root), id);
            log.record("client.parse_reply", c, d, Some(root), id);
        }
        Record {
            req: *req,
            reply,
            lat_ns: (t1 - t0).as_nanos() as u64,
        }
    }
}

/// Parse a `select`/`predict` reply: `ok`, the echoed id, and the
/// algorithm (resolved within the request's collective).
fn parse_reply(line: &str, collective: Collective, id: u64) -> Reply {
    let Ok(v) = json::parse(line) else {
        return Reply::Failed;
    };
    if json::get(&v, "ok").and_then(Value::as_bool) != Some(true)
        || json::get_u64(&v, "id") != Some(id)
    {
        return Reply::Failed;
    }
    let Some(name) = json::get(&v, "algorithm").and_then(Value::as_str) else {
        return Reply::Failed;
    };
    let Some(algo) = Algorithm::all_for(collective)
        .into_iter()
        .find(|a| a.name() == name)
    else {
        return Reply::Failed;
    };
    let depth = json::get_u64(&v, "depth").map(|d| d.min(255) as u8);
    Reply::Ok { algo, depth }
}

/// Run a closed loop on one connection until `deadline`, drawing requests
/// from `next`.
pub fn closed_loop(
    conn: &mut Conn,
    op: &str,
    next: &mut dyn FnMut() -> Req,
    deadline: Instant,
    mut log: Option<&mut SpanLog>,
) -> Vec<Record> {
    let mut out = Vec::new();
    while Instant::now() < deadline {
        let req = next();
        out.push(conn.request(op, &req, log.as_deref_mut()));
    }
    out
}

/// Poll until the daemon answers a `ping`, or give up after `timeout`.
pub fn wait_ready(
    socket: &Path,
    timeout: Duration,
    alive: &mut dyn FnMut() -> bool,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if let Ok(mut c) = Conn::connect(socket) {
            if let Ok(v) = c.control("ping", "") {
                if json::get(&v, "ok").and_then(Value::as_bool) == Some(true) {
                    return Ok(());
                }
            }
        }
        if !alive() {
            return Err("daemon exited before it was ready".to_string());
        }
        if start.elapsed() > timeout {
            return Err(format!("daemon not ready after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
