//! A real `asm serve` child process on a loopback port.

use smin_service::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// A running server; dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Boots `asm serve` on an ephemeral loopback port with `threads`
    /// dispatch workers and `graphs_dir` as its graph directory, and waits
    /// until it listens.
    pub fn boot(asm: &Path, graphs_dir: &Path, threads: usize) -> Result<ServerProc, String> {
        let mut child = Command::new(asm)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .arg("--graphs-dir")
            .arg(graphs_dir)
            // Thread counts come from the flags, never the environment.
            .env_remove("SMIN_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", asm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("asm serve did not report its address: {line:?}"));
        };
        // Keep the pipe drained so the server never blocks on its stdout.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        Ok(ServerProc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The value of the first exposition sample named exactly `series` (name
/// plus labels) in a `/metrics` scrape.
pub fn scrape_value(text: &str, series: &str) -> Option<f64> {
    text.lines()
        .filter_map(|l| l.strip_prefix(series))
        .find_map(|rest| rest.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_value_matches_the_whole_series() {
        let text = "# HELP x\nsmin_http_requests_total{route=\"select\"} 12\n\
                    smin_http_requests_total{route=\"select_batch\"} 3\n";
        let sel = "smin_http_requests_total{route=\"select\"}";
        assert_eq!(scrape_value(text, sel), Some(12.0));
        let batch = "smin_http_requests_total{route=\"select_batch\"}";
        assert_eq!(scrape_value(text, batch), Some(3.0));
        assert_eq!(scrape_value(text, "smin_http_requests_total"), None);
    }
}
