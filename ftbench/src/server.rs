//! The `ftspan_serve` child process: spawn, cold start, memory, shutdown.

use fault_tolerant_spanners::graph::NodeId;
use fault_tolerant_spanners::Query;
use ftspan_net::{Request, Response};
use std::io::{BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a stopping server may take to drain before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server. Dropping it kills the process if [`Server::stop`]
/// was not reached, and always waits for it to end.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `ftspan_serve --store <store> --dynamic` and waits for its
    /// first answered request. Returns the server and the seconds from
    /// spawning to that answer: store open, validation, materialization,
    /// the dynamic promotion rebuild and registration all fall inside.
    pub fn start(bin: &Path, store: &Path) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .args(["--dynamic", "--print-port"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's port: {e}"))?;
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("the server did not report a port (got {line:?})"))?;
        server.addr.set_port(port);
        let probe = Request::RunBatch(vec![Query::distance(
            crate::traffic::ARTIFACT,
            Vec::new(),
            NodeId::new(0),
            NodeId::new(1),
        )]);
        match server.call(&probe)? {
            Response::Batch(results) if results.iter().all(Result::is_ok) => {}
            other => return Err(format!("the first request failed: {other:?}")),
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// One request on a fresh connection.
    pub fn call(&self, request: &Request) -> Result<Response, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(STOP_TIMEOUT)).ok();
        request
            .write_to(&mut BufWriter::new(&stream))
            .map_err(|e| e.to_string())?;
        Response::read_from(&mut BufReader::new(&stream)).map_err(|e| e.to_string())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.pid())
    }

    /// Asks the server to drain and exit, and waits until it has.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = matches!(self.call(&Request::Shutdown), Ok(Response::ShuttingDown));
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if acked && status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return Err("the server did not stop".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

/// `VmHWM` of a process, in MB: the peak of that process alone.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read the status of process {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}
