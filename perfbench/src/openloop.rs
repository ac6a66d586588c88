//! The open-loop load generator of `select-hot`: requests go out on a fixed
//! schedule whether or not earlier ones were answered, pipelined on
//! keep-alive connections, and each is timed from when it was due.
//!
//! The writer sleeps to each due time and readers block on their sockets:
//! a socket read timeout would round a sub-millisecond wait up to a
//! scheduler tick and make the generator, not the server, late.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Due time of slot `i`, in nanoseconds after the start, at `rate`
/// requests per second: slots are evenly spaced.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// Number of slots due within `seconds` at `rate`.
pub fn slot_count(rate: f64, seconds: f64) -> u64 {
    (rate * seconds).floor() as u64
}

/// One request of the open loop.
#[derive(Clone, Debug)]
pub struct Sample {
    pub slot: u64,
    /// Nanoseconds after the start: when it was due, sent and answered.
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub status: u16,
    pub cache: CacheStatus,
    pub server_us: Option<u64>,
    pub stage_micros: Option<String>,
    /// The body equals the expected body for the slot's key.
    pub body_ok: bool,
}

/// The `X-Cache` header of a select response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    Hit,
    Miss,
    Bypass,
    /// Absent, or any other value.
    Other,
}

impl CacheStatus {
    pub fn of(header: Option<&str>) -> CacheStatus {
        match header {
            Some("HIT") => CacheStatus::Hit,
            Some("MISS") => CacheStatus::Miss,
            Some("BYPASS") => CacheStatus::Bypass,
            _ => CacheStatus::Other,
        }
    }
}

/// One parsed response.
pub struct Parsed<'a> {
    pub status: u16,
    pub headers: Vec<(&'a str, &'a str)>,
    pub body: &'a [u8],
}

impl Parsed<'_> {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| *v)
    }
}

/// Parses the first complete HTTP/1.1 response in `buf`; returns it and
/// the bytes it spans, or `None` while it is incomplete.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Parsed<'_>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header {line:?}"))?;
        headers.push((k.trim(), v.trim()));
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("response without a valid content-length")?;
    let start = head_end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let parsed = Parsed {
        status,
        headers,
        body: &buf[start..start + len],
    };
    Ok(Some((parsed, start + len)))
}

/// A request the open loop sends: its slot and due time, the request's
/// bytes and the body expected back.
pub struct Planned<'a> {
    pub slot: u64,
    pub due: u64,
    pub request: &'a [u8],
    pub expect: &'a [u8],
}

/// Sends `plan` (ascending due times) round-robin over `conns` keep-alive
/// connections to `addr`, each request at its due time relative to
/// `start`, without waiting for earlier responses. The calling thread
/// writes; one thread per connection blocks on reads, so a response is
/// timed when it arrives. Returns one sample per planned request; `grace`
/// bounds how long any read may wait.
pub fn drive(
    addr: &str,
    conns: usize,
    start: Instant,
    plan: &[Planned<'_>],
    grace: Duration,
) -> Result<Vec<Sample>, String> {
    let conns = conns.max(1);
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(grace))
            .map_err(|e| e.to_string())?;
        // One untimed round trip, so the connection is accepted and warm
        // before the schedule starts.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| format!("write: {e}"))?;
        let mut buf = Vec::new();
        read_responses(&mut stream, &mut buf, 1, |_| Ok(()))?;
        streams.push(stream);
    }
    let now = || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    std::thread::scope(|s| {
        let mut queues = Vec::with_capacity(conns);
        let mut readers = Vec::with_capacity(conns);
        for (c, stream) in streams.iter().enumerate() {
            let (tx, rx) = mpsc::channel::<(usize, u64)>();
            queues.push(tx);
            let expected = (c..plan.len()).step_by(conns).count();
            let mut stream = stream.try_clone().map_err(|e| e.to_string())?;
            readers.push(s.spawn(move || {
                let mut buf = Vec::new();
                let mut samples = Vec::with_capacity(expected);
                read_responses(&mut stream, &mut buf, expected, |resp| {
                    let done = now();
                    let (i, sent) = rx.recv().map_err(|_| "a response to no request")?;
                    samples.push(Sample {
                        slot: plan[i].slot,
                        due: plan[i].due,
                        sent,
                        done,
                        status: resp.status,
                        cache: CacheStatus::of(resp.header("x-cache")),
                        server_us: resp.header("x-select-micros").and_then(|v| v.parse().ok()),
                        stage_micros: resp.header("x-stage-micros").map(str::to_string),
                        body_ok: resp.body == plan[i].expect,
                    });
                    Ok(())
                })?;
                Ok::<_, String>(samples)
            }));
        }
        let mut written = Ok(());
        for (i, p) in plan.iter().enumerate() {
            let c = i % conns;
            let t = now();
            if p.due > t {
                std::thread::sleep(Duration::from_nanos(p.due - t));
            }
            // Queue the slot before writing: the response can only follow.
            let _ = queues[c].send((i, now()));
            if let Err(e) = (&streams[c]).write_all(p.request) {
                written = Err(format!("write: {e}"));
                break;
            }
        }
        if written.is_err() {
            // Unblock the readers: nothing more is coming.
            for stream in &streams {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let mut samples = Vec::with_capacity(plan.len());
        for r in readers {
            samples.extend(r.join().expect("open-loop reader panicked")?);
        }
        written.map(|()| samples)
    })
}

/// Reads from `stream` until `count` complete responses have been handed to
/// `on_response`, each as soon as the read that completed it returns.
fn read_responses(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    count: usize,
    mut on_response: impl FnMut(&Parsed<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut chunk = vec![0u8; 1 << 16];
    let mut seen = 0;
    while seen < count {
        let k = stream.read(&mut chunk).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                "timed out waiting for a response".to_string()
            }
            _ => format!("read: {e}"),
        })?;
        if k == 0 {
            return Err("server closed the connection".into());
        }
        buf.extend_from_slice(&chunk[..k]);
        let mut used = 0;
        while seen < count {
            let Some((resp, n)) = parse_response(&buf[used..])? else {
                break;
            };
            on_response(&resp)?;
            used += n;
            seen += 1;
        }
        buf.drain(..used);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_zero() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(2500, 5000.0), 500_000_000);
        // Spacing stays within rounding of 1/rate over a long schedule.
        let rate = 6000.0;
        for i in 1..10_000 {
            let gap = due_ns(i, rate) - due_ns(i - 1, rate);
            assert!((166_666..=166_667).contains(&gap), "gap {gap} at {i}");
        }
        assert_eq!(slot_count(6000.0, 2.5), 15_000);
    }

    #[test]
    fn parses_pipelined_responses_one_at_a_time() {
        let one = b"HTTP/1.1 200 OK\r\nX-Cache: HIT\r\nContent-Length: 2\r\n\r\n{}";
        let mut buf = one.to_vec();
        buf.extend_from_slice(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n");
        let (r, used) = parse_response(&buf).unwrap().unwrap();
        assert_eq!(
            (r.status, r.body, r.header("x-cache")),
            (200, &b"{}"[..], Some("HIT"))
        );
        assert_eq!(used, one.len());
        let (r, used) = parse_response(&buf[one.len()..]).unwrap().unwrap();
        assert_eq!((r.status, r.body.len()), (429, 0));
        assert_eq!(one.len() + used, buf.len());
        assert!(parse_response(&one[..one.len() - 1]).unwrap().is_none());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
