//! Structured request tracing: one JSON line per request.
//!
//! `asm serve --trace-log <path>` opens a [`TraceLog`]; the session layer
//! and the event loop then emit one [`TraceEvent`] per request. Lines are
//! built on the emitting thread but written by a dedicated log thread that
//! owns the file behind a buffered writer — request threads only push onto
//! an unbounded channel, so tracing never blocks the request path on disk
//! I/O. The writer flushes whenever its channel drains, so the file is
//! current whenever the service is idle, without a syscall per line.
//!
//! Line schema (stable field order):
//!
//! ```json
//! {"method":"POST","path":"/v1/select","status":200,
//!  "micros":{"resolve":12,"checkout":3,"sketch":4100,"coverage":890,"serialize":45},
//!  "cache":"MISS","deadline_remaining_ms":238}
//! ```
//!
//! `micros` is `null` for non-select routes and for transport-level errors
//! (400/408/429/504) answered before the pipeline ran; `cache` is `null`
//! when no cache decision was made; `deadline_remaining_ms` is `null` when
//! the request carried no `X-Deadline-Millis` header. `method`/`path` are
//! `null` for failures with no parsed request (malformed HTTP, 408s fired
//! by the deadline wheel). Timing appears only here and in response
//! headers — never in a response body — so the determinism contract holds.

use serde_json::Value;
use std::io::Write;
use std::path::Path;
use std::sync::mpsc;

/// Stage durations of one select request, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageMicrosLine {
    /// Request parse + graph resolution.
    pub resolve: u64,
    /// Warm-session checkout.
    pub checkout: u64,
    /// Sketch-pool growth, summed over rounds.
    pub sketch: u64,
    /// Coverage argmax/greedy, summed over rounds.
    pub coverage: u64,
    /// Response-body serialization.
    pub serialize: u64,
}

/// One request's trace fields; `None`s render as JSON `null`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceEvent<'a> {
    /// Request method, when a request was parsed.
    pub method: Option<&'a str>,
    /// Request path, when a request was parsed.
    pub path: Option<&'a str>,
    /// Response status.
    pub status: u16,
    /// Select stage timings; `None` off the select pipeline.
    pub micros: Option<StageMicrosLine>,
    /// `HIT` / `MISS` / `BYPASS` / `MIXED`, when a cache decision was made.
    pub cache: Option<&'a str>,
    /// `X-Deadline-Millis` minus the time already spent, floored at zero;
    /// `None` when the header was absent.
    pub deadline_remaining_ms: Option<u64>,
}

impl TraceEvent<'_> {
    fn to_value(self) -> Value {
        let micros = match self.micros {
            Some(m) => serde_json::json!({
                "resolve": m.resolve,
                "checkout": m.checkout,
                "sketch": m.sketch,
                "coverage": m.coverage,
                "serialize": m.serialize,
            }),
            None => Value::Null,
        };
        Value::Object(vec![
            ("method".to_string(), Value::from(self.method)),
            ("path".to_string(), Value::from(self.path)),
            ("status".to_string(), Value::from(self.status)),
            ("micros".to_string(), micros),
            ("cache".to_string(), Value::from(self.cache)),
            (
                "deadline_remaining_ms".to_string(),
                Value::from(self.deadline_remaining_ms),
            ),
        ])
    }
}

/// Cloneable sender half of the trace pipeline. Dropping every clone closes
/// the channel; the log thread flushes and exits.
#[derive(Clone)]
pub struct TraceLog {
    tx: mpsc::Sender<String>,
}

impl TraceLog {
    /// Creates (truncating) the log file and starts the writer thread.
    pub fn open(path: &Path) -> std::io::Result<TraceLog> {
        let file = std::fs::File::create(path)?;
        let (tx, rx) = mpsc::channel::<String>();
        std::thread::Builder::new()
            .name("smin-trace-log".to_string())
            .spawn(move || run_writer(&rx, file))?;
        Ok(TraceLog { tx })
    }

    /// Queues one trace line. Never blocks on I/O; a closed channel (writer
    /// thread gone) drops the line silently — tracing must not take down a
    /// request.
    pub fn emit(&self, event: &TraceEvent<'_>) {
        if let Ok(line) = serde_json::to_string(&event.to_value()) {
            let _ = self.tx.send(line);
        }
    }
}

/// The log thread: drain-then-flush so bursts amortize into one buffered
/// write and the file is byte-complete whenever the channel is empty.
fn run_writer(rx: &mpsc::Receiver<String>, file: std::fs::File) {
    let mut w = std::io::BufWriter::new(file);
    while let Ok(line) = rx.recv() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
        while let Ok(line) = rx.try_recv() {
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
        let _ = w.flush();
    }
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_land_in_the_file_with_the_pinned_schema() {
        let path = std::env::temp_dir().join("smin_trace_log_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let log = TraceLog::open(&path).unwrap();
        log.emit(&TraceEvent {
            method: Some("POST"),
            path: Some("/v1/select"),
            status: 200,
            micros: Some(StageMicrosLine {
                resolve: 12,
                checkout: 3,
                sketch: 4100,
                coverage: 890,
                serialize: 45,
            }),
            cache: Some("MISS"),
            deadline_remaining_ms: Some(238),
        });
        log.emit(&TraceEvent {
            method: None,
            path: None,
            status: 408,
            micros: None,
            cache: None,
            deadline_remaining_ms: None,
        });
        drop(log); // closes the channel; the writer flushes and exits
        let text = wait_for_lines(&path, 2);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            r#"{"method":"POST","path":"/v1/select","status":200,"micros":{"resolve":12,"checkout":3,"sketch":4100,"coverage":890,"serialize":45},"cache":"MISS","deadline_remaining_ms":238}"#
        );
        assert_eq!(
            lines.next().unwrap(),
            r#"{"method":null,"path":null,"status":408,"micros":null,"cache":null,"deadline_remaining_ms":null}"#
        );
        std::fs::remove_file(&path).ok();
    }

    /// The writer thread races the assertion; poll briefly for the flush.
    fn wait_for_lines(path: &Path, n: usize) -> String {
        for _ in 0..200 {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            if text.lines().count() >= n {
                return text;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        std::fs::read_to_string(path).unwrap_or_default()
    }
}
