//! `selectd` process lifecycle: spawn on an ephemeral port, learn the
//! port from the `selectd listening on` line, drain at the end, and
//! kill the process and remove its spool directory on every path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sampleselect::server::wire::{Request, Response};

use crate::client::WireClient;

pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    spool: PathBuf,
}

impl Daemon {
    /// Start `selectd` with 2 workers of 1 pool thread each, quotas
    /// opened, and its own spool directory.
    pub fn spawn(exe: &Path, spool: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&spool).map_err(|e| format!("spool {}: {e}", spool.display()))?;
        let mut child = Command::new(exe)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--worker-threads",
                "1",
            ])
            .args(["--quota-burst", "1e9", "--quota-refill", "1e9", "--spool"])
            .arg(&spool)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => break None,
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("selectd listening on ") {
                        break a.parse::<SocketAddr>().ok();
                    }
                }
            }
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&spool);
            return Err("selectd exited before printing its listening address".to_string());
        };
        Ok(Self {
            child,
            _stdout: stdout,
            addr,
            spool,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Fetch the live metrics snapshot (the `Stats` op).
    pub fn stats(&self) -> Result<String, String> {
        let mut c = WireClient::connect(self.addr).map_err(|e| e.to_string())?;
        match c.call(&Request::Stats).map_err(|e| e.to_string())? {
            Response::Stats { json } => Ok(json),
            other => Err(format!("Stats answered {other:?}")),
        }
    }

    /// Graceful drain; waits for the process to exit and returns the
    /// final snapshot JSON.
    pub fn drain(mut self) -> Result<String, String> {
        let mut c = WireClient::connect(self.addr).map_err(|e| e.to_string())?;
        let json = match c.call(&Request::Drain).map_err(|e| e.to_string())? {
            Response::Drained { json } => json,
            other => return Err(format!("Drain answered {other:?}")),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(json);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("selectd did not exit after Drain".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}
