//! Transport and protection wire tests.
//!
//! These drive real servers on the epoll event loop and pin its response
//! bytes: `/v1/select-batch` against sequential `/v1/select`s, and every
//! error shape (429 admission, 504 deadline, 408 mid-body stall, 400
//! malformed framing, 404 unknown graph or route).

use smin_service::{Client, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;

const REGISTER: &str = r#"{"id":"g","generate":{"kind":"er","n":120,"m":360,"seed":9}}"#;

fn spawn(tweak: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::bind(&config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

/// Select items that exercise distinct cache keys, algorithms, and one
/// duplicate (an in-batch cache hit when caching is on).
fn batch_items() -> Vec<String> {
    vec![
        r#"{"eta":30,"seed":5,"cache":false}"#.into(),
        r#"{"eta":25,"seed":6,"cache":false}"#.into(),
        r#"{"eta":30,"seed":5,"cache":false}"#.into(),
        r#"{"algo":"trim-b","batch":2,"eta":20,"seed":7,"cache":false}"#.into(),
    ]
}

#[test]
fn select_batch_is_byte_identical_to_sequential_selects() {
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);

    let items = batch_items();
    // Reference: N sequential /v1/select calls.
    let mut sequential = Vec::new();
    for item in &items {
        let mut body = item.clone();
        body.insert_str(1, r#""graph":"g","#);
        let resp = c.post("/v1/select", &body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        sequential.push(resp.body);
    }

    // The batch response must be the exact concatenation of those
    // bodies inside the batch envelope — not merely JSON-equal.
    let batch_body = format!(r#"{{"graph":"g","items":[{}]}}"#, items.join(","));
    let resp = c.post("/v1/select-batch", &batch_body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let mut expected = Vec::new();
    expected.extend_from_slice(br#"{"graph":"g","count":4,"results":["#);
    for (i, body) in sequential.iter().enumerate() {
        if i > 0 {
            expected.push(b',');
        }
        expected.extend_from_slice(body);
    }
    expected.extend_from_slice(b"]}");
    assert_eq!(
        resp.body, expected,
        "batch diverged from sequential selects"
    );

    drop(c);
    handle.shutdown();
}

#[test]
fn error_responses_have_pinned_bodies() {
    const UNKNOWN_GRAPH: &str = r#"{"error":{"code":"unknown_graph","status":404,"message":"graph 'nope' is not registered"}}"#;
    const NOT_JSON: &str = r#"{"error":{"code":"bad_request","status":400,"message":"invalid JSON body: JSON error: invalid literal at byte 0"}}"#;
    const UNKNOWN_ROUTE: &str = r#"{"error":{"code":"unknown_route","status":404,"message":"no route for /no/such/route"}}"#;
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    let resp = c.post("/v1/select", r#"{"graph":"nope","eta":1}"#).unwrap();
    assert_eq!((resp.status, resp.text()), (404, UNKNOWN_GRAPH.into()));
    let resp = c.post("/v1/select", "not json").unwrap();
    assert_eq!((resp.status, resp.text()), (400, NOT_JSON.into()));
    let resp = c.get("/no/such/route").unwrap();
    assert_eq!((resp.status, resp.text()), (404, UNKNOWN_ROUTE.into()));
    drop(c);
    handle.shutdown();
}

#[test]
fn overload_returns_deterministic_429_and_keeps_the_connection() {
    const WANT: &str = r#"{"error":{"code":"overloaded","status":429,"message":"pending request queue is full; retry later"}}"#;
    // max_pending = 0: every request is over the high-water mark, so
    // the rejection is deterministic rather than load-dependent.
    let mut handle = spawn(|c| c.max_pending = 0);
    let mut c = client(&handle);
    for _ in 0..3 {
        let resp = c.post("/v1/select", r#"{"graph":"g","eta":5}"#).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.text(), WANT, "429 body must be stable");
    }
    drop(c);
    handle.shutdown();
}

#[test]
fn expired_deadline_returns_deterministic_504() {
    const WANT: &str = r#"{"error":{"code":"deadline_exceeded","status":504,"message":"deadline of 0ms exceeded before dispatch"}}"#;
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    // A zero budget is expired by definition.
    let resp = c
        .post_with_headers(
            "/v1/select",
            r#"{"graph":"g","eta":5}"#,
            &[("X-Deadline-Millis", "0")],
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.text(), WANT);

    // A malformed budget is a 400 that keeps the connection alive.
    let resp = c
        .post_with_headers(
            "/v1/select",
            r#"{"graph":"g","eta":5}"#,
            &[("X-Deadline-Millis", "soon")],
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("X-Deadline-Millis"));
    let resp = c.get("/healthz").unwrap();
    assert_eq!(resp.status, 200, "connection must survive");
    drop(c);
    handle.shutdown();
}

/// Writes `head` (a complete request head promising a body that never
/// arrives) and returns everything the server sends before closing.
fn stall_mid_body(addr: &str, head: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(head.as_bytes()).expect("write head");
    s.flush().expect("flush");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read until server close");
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn mid_body_stall_gets_408_before_close() {
    let mut handle = spawn(|c| {
        c.request_timeout_ms = 200;
        c.idle_timeout_ms = 2_000;
    });
    let reply = stall_mid_body(
        &handle.addr().to_string(),
        "POST /v1/select HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n{\"gr",
    );
    assert!(
        reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "got {reply:?}"
    );
    assert!(
        reply.contains(r#""code":"request_timeout""#),
        "got {reply:?}"
    );
    assert!(
        reply.contains("Connection: close"),
        "a timed-out request cannot keep the stream"
    );
    handle.shutdown();
}

#[test]
fn idle_stall_before_any_request_closes_silently() {
    let mut handle = spawn(|c| {
        c.request_timeout_ms = 200;
        c.idle_timeout_ms = 200;
    });
    // No bytes at all: the idle timeout closes without a response.
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read until server close");
    assert!(
        out.is_empty(),
        "idle connections close silently, got {:?}",
        String::from_utf8_lossy(&out)
    );
    handle.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let mut handle = spawn(|_| {});
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    // Two requests in one write; the second is only parsed after the
    // first response flushes (one-at-a-time backpressure), but both must
    // be answered, in order, on the one connection.
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
          GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    )
    .expect("write");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read both responses");
    let text = String::from_utf8_lossy(&out);
    assert_eq!(
        text.matches("HTTP/1.1 200 OK\r\n").count(),
        2,
        "got {text:?}"
    );
    assert!(text.contains("Connection: keep-alive"));
    assert!(text.contains("Connection: close"));
    handle.shutdown();
}

#[test]
fn pipelined_sync_response_flood_is_answered_iteratively() {
    let mut handle = spawn(|_| {});
    // Thousands of pipelined requests whose responses the poll thread
    // produces itself (400: malformed deadline header), padded with bodies
    // so the backlog tops the per-connection buffer cap. Regression for
    // two failure modes of the old state machine: mutual recursion
    // (flush → parse → respond → flush) overflowing the poll thread's
    // stack, and unbounded per-connection parse buffering.
    const N: usize = 1_500;
    let pad = "x".repeat(4 << 10);
    let mut blob = Vec::new();
    for _ in 0..N {
        blob.extend_from_slice(
            format!(
                "POST /v1/select HTTP/1.1\r\nHost: t\r\nX-Deadline-Millis: soon\r\n\
                 Content-Length: {}\r\n\r\n{pad}",
                pad.len(),
            )
            .as_bytes(),
        );
    }
    blob.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(
        blob.len() > smin_service::http::MAX_BUFFERED_BYTES,
        "flood must exceed the per-connection backlog cap to exercise it"
    );

    let s = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = s.try_clone().expect("clone stream");
    // Write and read concurrently: once the server pauses reads at the
    // backlog cap, forward progress requires draining its responses.
    let w = std::thread::spawn(move || -> std::io::Result<()> {
        writer.write_all(&blob)?;
        writer.flush()
    });
    let mut out = Vec::new();
    let mut reader = s;
    reader.read_to_end(&mut out).expect("read all responses");
    w.join().expect("writer thread").expect("write flood");

    let text = String::from_utf8_lossy(&out);
    assert_eq!(
        text.matches("HTTP/1.1 400 Bad Request\r\n").count(),
        N,
        "every pipelined request must be answered"
    );
    assert_eq!(
        text.matches("HTTP/1.1 200 OK\r\n").count(),
        1,
        "the connection stays usable through the whole flood"
    );
    handle.shutdown();
}

#[test]
fn metrics_are_exposed_over_the_wire() {
    let mut handle = spawn(|_| {});
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let select = r#"{"graph":"g","eta":30,"seed":5}"#;
    assert_eq!(c.post("/v1/select", select).unwrap().status, 200);
    assert_eq!(c.post("/v1/select", select).unwrap().status, 200);
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    let resp = c.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    let text = resp.text();
    // Session-layer series populated by the traffic above.
    assert!(
        text.contains("smin_http_requests_total{route=\"select\"} 2\n"),
        "{text}"
    );
    assert!(text.contains("smin_http_requests_total{route=\"healthz\"} 1\n"),);
    assert!(text.contains("smin_select_stage_micros_count{stage=\"coverage\"} 2\n"),);
    assert!(text.contains("smin_cache_lookups_total{outcome=\"hit\"} 1\n"),);
    assert!(text.contains("smin_graph_selects_total{graph=\"g\"} 2\n"),);
    // Event-loop series, populated by the same traffic.
    assert!(text.contains("# TYPE smin_epoll_wait_micros histogram"));
    assert!(text.contains("# TYPE smin_bytes_read_total counter"));
    let read = text
        .lines()
        .find_map(|l| l.strip_prefix("smin_bytes_read_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("bytes-read sample");
    assert!(read > 0, "event loop counted no reads");
    drop(c);
    handle.shutdown();
}

#[test]
fn trace_log_records_one_line_per_request() {
    let path = std::env::temp_dir().join("smin_trace_epoll.jsonl");
    let _ = std::fs::remove_file(&path);
    let trace = path.clone();
    let mut handle = spawn(move |c| c.trace_log = Some(trace));
    let mut c = client(&handle);
    assert_eq!(c.post("/v1/graphs", REGISTER).unwrap().status, 201);
    let resp = c
        .post_with_headers(
            "/v1/select",
            r#"{"graph":"g","eta":30,"seed":5}"#,
            &[("X-Deadline-Millis", "60000")],
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    drop(c);
    handle.shutdown(); // drops the state, flushing the log thread

    let mut text = String::new();
    for _ in 0..200 {
        text = std::fs::read_to_string(&path).unwrap_or_default();
        if text.lines().count() >= 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line parses"))
        .collect();
    assert_eq!(lines.len(), 2, "one line per request");
    let select = &lines[1];
    let get = |k: &str| {
        let v = smin_service::json::field(select, k).expect("field present");
        serde_json::to_string(v).unwrap()
    };
    assert_eq!(get("method"), r#""POST""#);
    assert_eq!(get("path"), r#""/v1/select""#);
    assert_eq!(get("status"), "200");
    assert_eq!(get("cache"), r#""MISS""#);
    let micros = smin_service::json::field(select, "micros").expect("micros present");
    assert!(
        smin_service::json::field(micros, "coverage").is_some(),
        "stage micros recorded"
    );
    assert!(
        get("deadline_remaining_ms") != "null",
        "deadline header surfaced"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn idle_connections_scale_beyond_the_dispatch_pool() {
    // 2 dispatch threads, 64 concurrently-open keep-alive connections:
    // the point of the event loop, where a connection costs a slab slot
    // rather than a thread. The CI load step scales this to 512.
    let mut handle = spawn(|c| c.workers = 2);
    let addr = handle.addr().to_string();
    let mut clients: Vec<Client> = (0..64)
        .map(|i| Client::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}")))
        .collect();
    // Every connection stays open and usable while all the others are.
    for (i, c) in clients.iter_mut().enumerate() {
        let resp = c
            .get("/healthz")
            .unwrap_or_else(|e| panic!("conn {i}: {e}"));
        assert_eq!(resp.status, 200, "conn {i}");
    }
    drop(clients);
    handle.shutdown();
}

#[test]
fn out_of_range_generator_spec_is_a_400_and_the_server_keeps_answering() {
    // One dispatch worker: a panic in it would leave nothing to answer
    // the /healthz that follows.
    let mut handle = spawn(|c| c.workers = 1);
    let mut c = client(&handle);
    let resp = c
        .post(
            "/v1/graphs",
            r#"{"generate":{"kind":"er","n":18446744073709551615,"m":1}}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains(r#""code":"bad_request""#));
    assert_eq!(c.get("/healthz").unwrap().status, 200);
    drop(c);
    handle.shutdown();
}
