//! `select-cold` and `select-hot`: `/v1/select` over loopback against a
//! real `asm serve`, from this one process with one connection per CPU.
//!
//! * `select-cold` — closed loop of uncached TRIM-B (b = 8) selects under
//!   LT, each with its own world seed: the service's compute path.
//! * `select-hot` — cached hits of a warmed key set: an open loop at a
//!   fixed rate, then a closed-loop saturation phase. No compute runs.

use crate::common::{
    eta, generate, load_graph, mix, nproc, pack, peak_rss_mb, setup_median, Args, Outcome, EPS,
    SETUP_REPS, STREAM_PICK, STREAM_REQUEST,
};
use crate::layers;
use crate::openloop::{self, CacheStatus, Planned, Sample};
use crate::redrive::{LoopCounts, Redriver};
use crate::server::{scrape_value, ServerProc};
use crate::stats::{mean, median, median_of_windows, nearest_rank, sorted, tail, window_rate};
use crate::trace::Trace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_core::AstiParams;
use smin_diffusion::Model;
use smin_graph::Graph;
use smin_service::{json, Client, ClientResponse};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Seeds per TRIM-B round on the select workloads.
const BATCH: usize = 8;
/// Distinct cached bodies `select-hot` warms and then requests.
const HOT_KEYS: u64 = 64;
/// The open-loop rate of `select-hot`, about half of what the server
/// answers in a closed loop over two connections on a 2-CPU host.
const HOT_RATE: f64 = 6000.0;
/// The open loop is invalid, not slow, when the generator itself sends its
/// 99th-percentile request later than this after it was due, in most
/// seconds of the schedule.
const LATE_BOUND_US: f64 = 2000.0;
const SECOND_NS: u64 = 1_000_000_000;
/// Delay from the start of the open loop to its first due time, so every
/// connection is open and warmed before the schedule begins.
const OPEN_OFFSET_NS: u64 = 50_000_000;
/// Requests the traced `select-cold` run re-drives in-process.
const SHADOW_REQUESTS: u64 = 6;

const SELECT_SERIES: &str = "smin_http_requests_total{route=\"select\"}";
const ERROR_SERIES: [&str; 3] = [
    "smin_http_errors_total{status=\"408\"}",
    "smin_http_errors_total{status=\"429\"}",
    "smin_http_errors_total{status=\"504\"}",
];

/// A `/v1/select` body for world seed `world`.
fn body(world: u64, cached: bool) -> String {
    let cache = if cached { "" } else { r#","cache":false"# };
    format!(
        r#"{{"graph":"g","algo":"trim-b","batch":{BATCH},"model":"lt","eta":{},"eps":{EPS},"seed":{world}{cache}}}"#,
        eta()
    )
}

/// The world seed of request `i` in stream `stream`, kept below 2^53 so it
/// survives any JSON number handling.
fn world_seed(seed: u64, stream: u64, i: u64) -> u64 {
    mix(mix(seed, stream), i) >> 11
}

/// The raw bytes of a `POST /v1/select`, as the open loop pipelines them.
fn raw_request(body: &str, stage_header: bool) -> Vec<u8> {
    let stage = if stage_header {
        "X-Stage-Micros: 1\r\n"
    } else {
        ""
    };
    format!(
        "POST /v1/select HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n{stage}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Checks a select response body: a JSON object with `"reached":true`
/// and a seed list as long as `num_seeds`. Returns the seed list.
fn check_body(body: &[u8]) -> Result<Vec<u64>, String> {
    use serde_json::Value;
    let v = json::parse_object(body).map_err(|e| format!("response is not JSON: {e}"))?;
    if json::opt_bool(&v, "reached").ok().flatten() != Some(true) {
        return Err("response does not have \"reached\":true".into());
    }
    let seeds: Vec<u64> = match json::field(&v, "seeds") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|s| match s {
                Value::Number(x) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u64),
                _ => Err("non-integer seed"),
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("response has no seed list".into()),
    };
    if json::opt_u64(&v, "num_seeds").ok().flatten() != Some(seeds.len() as u64) {
        return Err("num_seeds disagrees with the seed list".into());
    }
    Ok(seeds)
}

fn expect_ok(resp: Result<ClientResponse, String>, what: &str) -> Result<ClientResponse, String> {
    let resp = resp.map_err(|e| format!("{what}: {e}"))?;
    if resp.status / 100 != 2 {
        return Err(format!("{what}: status {} {}", resp.status, resp.text()));
    }
    Ok(resp)
}

/// A `/metrics` scrape on a fresh connection (a kept one may have idled
/// out while the load ran).
fn scrape(server: &ServerProc) -> Result<String, String> {
    Ok(expect_ok(server.connect()?.get("/metrics"), "GET /metrics")?.text())
}

fn counter(text: &str, series: &str) -> Result<f64, String> {
    scrape_value(text, series).ok_or_else(|| format!("/metrics has no {series}"))
}

/// A booted, registered and warmed server with one client per CPU.
struct Ready {
    server: ServerProc,
    clients: Vec<Client>,
    /// `select-hot`: the body of each warmed key, as first computed.
    expected: Vec<Vec<u8>>,
    /// Seconds the warm-up took.
    warmup_s: f64,
}

/// One timed set-up: pack of the generated graph, boot and registration,
/// which loads the graph.
fn boot_registered(args: &Args, g: &Graph) -> Result<(ServerProc, f64), String> {
    let asm = args
        .asm
        .as_ref()
        .ok_or("the select workloads need --asm PATH")?;
    let t = Instant::now();
    pack(g, &args.work)?;
    let server = ServerProc::boot(asm, &args.work, nproc())?;
    let mut admin = server.connect()?;
    expect_ok(
        admin.post("/v1/graphs", r#"{"id":"g","path":"g.smg"}"#),
        "register graph",
    )?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// The warm-up: one cold request per connection, which also builds the
/// server's reverse CSR, or on `select-hot` the cache fill of every key.
fn warm_up(args: &Args, server: ServerProc, hot: bool) -> Result<Ready, String> {
    let t = Instant::now();
    let mut clients = (0..nproc())
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let conns = clients.len() as u64;
    let warm: Vec<Vec<(u64, Vec<u8>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || -> Result<Vec<(u64, Vec<u8>)>, String> {
                    let keys: Vec<u64> = if hot {
                        (c as u64..HOT_KEYS).step_by(conns as usize).collect()
                    } else {
                        vec![c as u64]
                    };
                    let mut bodies = Vec::new();
                    for k in keys {
                        let b = if hot {
                            body(world_seed(args.seed, STREAM_PICK, k), true)
                        } else {
                            body(world_seed(args.seed, STREAM_REQUEST, u64::MAX - k), false)
                        };
                        let resp = expect_ok(client.post("/v1/select", &b), "warm-up select")?;
                        check_body(&resp.body)?;
                        let status = resp.header("x-cache").unwrap_or_default();
                        let want = if hot { "MISS" } else { "BYPASS" };
                        if status != want {
                            return Err(format!("warm-up X-Cache {status}, expected {want}"));
                        }
                        bodies.push((k, resp.body));
                    }
                    Ok(bodies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let mut expected = vec![Vec::new(); if hot { HOT_KEYS as usize } else { 0 }];
    if hot {
        for (k, b) in warm.into_iter().flatten() {
            expected[k as usize] = b;
        }
    }
    Ok(Ready {
        server,
        clients,
        expected,
        warmup_s: t.elapsed().as_secs_f64(),
    })
}

/// [`boot_registered`] `SETUP_REPS` times, each server stopped before the
/// next boots, then [`warm_up`] of the last. Returns it and the median
/// set-up time. The warm-up is left out of that time: it runs selects, and
/// their compute time varies with the host far more than booting does.
fn set_up(args: &Args, hot: bool) -> Result<(Ready, f64), String> {
    let g = generate()?;
    let mut times = Vec::new();
    let mut last: Option<ServerProc> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (server, secs) = boot_registered(args, &g)?;
        times.push(secs);
        last = Some(server);
    }
    let ready = warm_up(args, last.expect("SETUP_REPS >= 1"), hot)?;
    Ok((ready, setup_median(&times)))
}

/// A closed-loop sample: due when sent. `resp` is `None` for a request
/// that got no response.
fn sample_of(
    slot: u64,
    sent: u64,
    done: u64,
    resp: Option<&ClientResponse>,
    body_ok: bool,
) -> Sample {
    let header = |name: &str| resp.and_then(|r| r.header(name));
    Sample {
        slot,
        due: sent,
        sent,
        done,
        status: resp.map_or(0, |r| r.status),
        cache: CacheStatus::of(header("x-cache")),
        server_us: header("x-select-micros").and_then(|v| v.parse().ok()),
        stage_micros: header("x-stage-micros").map(str::to_string),
        body_ok,
    }
}

/// A closed loop over every client for `seconds`: each connection sends
/// its next request as soon as the previous one is answered. `next(i)`
/// gives request `i`'s body and expected body (`None`: check the JSON).
/// Returns the samples, the seed counts of checked bodies, failures as
/// messages and the completed requests per second.
fn closed_loop<'a>(
    clients: &mut [Client],
    seconds: f64,
    stage_header: bool,
    next: &(dyn Fn(u64) -> (String, Option<&'a [u8]>) + Sync),
) -> (Vec<Sample>, Vec<f64>, Vec<String>, f64) {
    let counter = AtomicU64::new(0);
    let start = Instant::now();
    let ns = |t: Instant| u64::try_from(t.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
    let headers: &[(&str, &str)] = if stage_header {
        &[("X-Stage-Micros", "1")]
    } else {
        &[]
    };
    let per_conn: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let counter = &counter;
                s.spawn(move || {
                    let (mut samples, mut seeds, mut failures) =
                        (Vec::new(), Vec::new(), Vec::new());
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        let (b, expect) = next(i);
                        let sent = Instant::now();
                        let resp = client.post_with_headers("/v1/select", &b, headers);
                        let done = Instant::now();
                        let resp = match resp {
                            Ok(r) => r,
                            Err(e) => {
                                failures.push(format!("request {i}: {e}"));
                                samples.push(sample_of(i, ns(sent), ns(done), None, false));
                                // The connection is in an unknown state.
                                break;
                            }
                        };
                        let body_ok = match expect {
                            Some(want) => resp.body == want,
                            None => match check_body(&resp.body) {
                                Ok(s) => {
                                    seeds.push(s.len() as f64);
                                    true
                                }
                                Err(e) => {
                                    failures.push(format!("request {i}: {e}"));
                                    false
                                }
                            },
                        };
                        samples.push(sample_of(i, ns(sent), ns(done), Some(&resp), body_ok));
                    }
                    (samples, seeds, failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (mut samples, mut seeds, mut failures) = (Vec::new(), Vec::new(), Vec::new());
    for (a, b, c) in per_conn {
        samples.extend(a);
        seeds.extend(b);
        failures.extend(c);
    }
    let ok = samples.iter().filter(|s| s.status == 200 && s.body_ok);
    let rate = ok.count() as f64 / elapsed;
    (samples, seeds, failures, rate)
}

/// The open loop at `HOT_RATE` for `seconds`: one writer (this thread)
/// and one reader thread per connection, `nproc − 1` connections, so the
/// generator uses at most one thread per CPU. Slot `i` requests a key
/// drawn from the seeded sequence.
fn open_loop(
    args: &Args,
    addr: &str,
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    seconds: f64,
    first_slot: u64,
) -> Result<Vec<Sample>, String> {
    let pick = mix(args.seed, STREAM_PICK);
    let plan: Vec<Planned<'_>> = (0..openloop::slot_count(HOT_RATE, seconds))
        .map(|i| {
            let slot = first_slot + i;
            let k = (mix(pick, slot) % HOT_KEYS) as usize;
            Planned {
                slot,
                due: OPEN_OFFSET_NS + openloop::due_ns(i, HOT_RATE),
                request: &requests[k],
                expect: &expected[k],
            }
        })
        .collect();
    let conns = nproc().saturating_sub(1).max(1);
    openloop::drive(addr, conns, Instant::now(), &plan, Duration::from_secs(10))
}

/// Latency of a sample from when it was due, in ms; a failed request
/// counts as infinitely late.
fn latency_ms(s: &Sample) -> f64 {
    if s.status == 200 && s.body_ok {
        (s.done - s.due) as f64 / 1e6
    } else {
        f64::INFINITY
    }
}

/// [`latency_ms`] of every sample, ascending.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(&samples.iter().map(latency_ms).collect::<Vec<_>>())
}

/// Checks every sample, `want` as its `X-Cache`, and counts failures into
/// `out`.
fn tally(out: &mut Outcome, samples: &[Sample], want: CacheStatus) {
    for s in samples {
        out.attempted += 1;
        if s.status != 200 || !s.body_ok {
            out.failed += 1;
        }
    }
    let bad_status = samples.iter().filter(|s| s.status != 200).count();
    out.check(bad_status == 0, || {
        format!("{bad_status} responses were not 200")
    });
    let bad_body = samples
        .iter()
        .filter(|s| s.status == 200 && !s.body_ok)
        .count();
    out.check(bad_body == 0, || {
        format!("{bad_body} response bodies failed their check")
    });
    let wrong_cache = samples.iter().filter(|s| s.cache != want).count();
    out.check(wrong_cache == 0, || {
        format!("{wrong_cache} responses had an X-Cache other than {want:?}")
    });
}

fn latency_metrics(out: &mut Outcome, samples: &[Sample], label: &str) {
    let ms = latencies_ms(samples);
    let t = tail(&ms).unwrap_or(crate::stats::Tail {
        value: f64::NAN,
        pct: 0.0,
        beyond: 0,
    });
    eprintln!(
        "{label}: {} requests, tail = p{:.3} with {} beyond",
        ms.len(),
        t.pct,
        t.beyond
    );
    out.metric(
        "latency_p50_ms",
        nearest_rank(&ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    out.metric("latency_tail_ms", t.value, "ms");
}

/// The `/metrics` select counter must have moved by exactly the requests
/// sent.
fn check_select_count(
    out: &mut Outcome,
    before: &str,
    after: &str,
    sent: usize,
) -> Result<(), String> {
    let delta = counter(after, SELECT_SERIES)? - counter(before, SELECT_SERIES)?;
    out.check(delta == sent as f64, || {
        format!("/metrics counted {delta} selects, {sent} were sent")
    });
    Ok(())
}

pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let (mut ready, setup_s) = set_up(args, false)?;
    let mut out = Outcome::default();
    if args.trace {
        traced_cold(args, &mut ready, &mut out)?;
        return Ok(out);
    }
    let before = scrape(&ready.server)?;
    let next = |i: u64| (body(world_seed(args.seed, STREAM_REQUEST, i), false), None);
    let (samples, seeds, failures, rate) =
        closed_loop(&mut ready.clients, args.seconds, false, &next);
    let after = scrape(&ready.server)?;
    out.failures.extend(failures);
    tally(&mut out, &samples, CacheStatus::Bypass);
    check_select_count(&mut out, &before, &after, samples.len())?;
    out.metric("setup_s", setup_s, "s");
    latency_metrics(&mut out, &samples, "select-cold");
    out.metric("throughput_rps", rate, "1/s");
    out.metric("seeds_mean", mean(&seeds), "count");
    Ok(out)
}

pub fn run_hot(args: &Args) -> Result<Outcome, String> {
    let (mut ready, setup_s) = set_up(args, true)?;
    let mut out = Outcome::default();
    let bodies: Vec<String> = (0..HOT_KEYS)
        .map(|k| body(world_seed(args.seed, STREAM_PICK, k), true))
        .collect();
    if args.trace {
        traced_hot(args, &mut ready, &bodies, &mut out)?;
        return Ok(out);
    }
    let mut seeds_of = Vec::new();
    for b in &ready.expected {
        seeds_of.push(check_body(b)?.len() as f64);
    }
    let requests: Vec<Vec<u8>> = bodies.iter().map(|b| raw_request(b, false)).collect();
    let before = scrape(&ready.server)?;
    let samples = open_loop(
        args,
        &ready.server.addr,
        &requests,
        &ready.expected,
        args.seconds,
        0,
    )?;
    let after = scrape(&ready.server)?;
    tally(&mut out, &samples, CacheStatus::Hit);
    check_lateness(&mut out, &samples);
    check_select_count(&mut out, &before, &after, samples.len())?;
    let pick = mix(args.seed, STREAM_PICK);
    let seeds: Vec<f64> = samples
        .iter()
        .map(|s| seeds_of[(mix(pick, s.slot) % HOT_KEYS) as usize])
        .collect();

    out.metric("setup_s", setup_s, "s");
    open_latency_metrics(&mut out, &samples);
    out.metric("throughput_rps", delivered_rate(&samples), "1/s");
    out.metric("seeds_mean", mean(&seeds), "count");
    Ok(out)
}

/// The closed-loop saturation phase of `select-hot`: cached hits over
/// `nproc` fresh connections for `seconds`, the keys continuing the seeded
/// sequence at slot `first`. Returns the samples, failures and the
/// capacity: the median over the whole seconds of the phase of the
/// requests answered in each, so a few seconds of host stall do not move
/// it.
fn saturation(
    args: &Args,
    ready: &Ready,
    bodies: &[String],
    first: u64,
    seconds: f64,
) -> Result<(Vec<Sample>, Vec<String>, f64), String> {
    let pick = mix(args.seed, STREAM_PICK);
    let next = |i: u64| {
        let k = (mix(pick, first + i) % HOT_KEYS) as usize;
        (bodies[k].clone(), Some(ready.expected[k].as_slice()))
    };
    // Fresh connections: the warm-up ones may have idled out meanwhile.
    let mut clients = (0..nproc())
        .map(|_| ready.server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let (sat, _, failures, _) = closed_loop(&mut clients, seconds, false, &next);
    let done: Vec<u64> = sat
        .iter()
        .filter(|s| s.status == 200 && s.body_ok)
        .map(|s| s.done)
        .collect();
    let rate = window_rate(&done, (seconds * 1e9) as u64, SECOND_NS);
    eprintln!(
        "select-hot saturation: {} requests; {rate:.0} req/s (median over seconds)",
        sat.len()
    );
    Ok((sat, failures, rate))
}

/// Successful responses per second of an open loop, from the first due
/// time to the last response: the offered rate while the server keeps up,
/// less once a backlog grows.
fn delivered_rate(samples: &[Sample]) -> f64 {
    let ok = samples
        .iter()
        .filter(|s| s.status == 200 && s.body_ok)
        .count();
    let first = samples.iter().map(|s| s.due).min().unwrap_or(0);
    let last = samples.iter().map(|s| s.done).max().unwrap_or(0);
    if last > first {
        ok as f64 * 1e9 / (last - first) as f64
    } else {
        0.0
    }
}

/// Open-loop latency, second by second of the schedule: the p50 and the
/// tail of the requests due in each second, and the median of each over
/// the seconds. A stall of the shared host delays every request due while
/// it lasts. Whole-run percentiles of 180 000 requests then move with how
/// many such seconds a run happened to catch; the per-second median
/// moves only when more than half the seconds are slower.
fn open_latency_metrics(out: &mut Outcome, samples: &[Sample]) {
    let points: Vec<(u64, f64)> = samples.iter().map(|s| (s.due, latency_ms(s))).collect();
    let p50 = median_of_windows(&points, SECOND_NS, |v| {
        nearest_rank(v, 50.0).unwrap_or(f64::NAN)
    });
    let tail_ms = median_of_windows(&points, SECOND_NS, |v| {
        tail(v).map_or(f64::NAN, |t| t.value)
    });
    let ms = latencies_ms(samples);
    let whole = tail(&ms).map_or(f64::NAN, |t| t.value);
    eprintln!(
        "select-hot open loop: {} requests; per-second p50 {p50:.4} ms, tail {tail_ms:.4} ms; whole-run p95 {whole:.4} ms",
        ms.len()
    );
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("latency_tail_ms", tail_ms, "ms");
}

/// The generator's send lateness in µs: the 99th percentile of each second
/// of the schedule, median over the seconds.
fn late_p99_us(samples: &[Sample]) -> f64 {
    let points: Vec<(u64, f64)> = samples
        .iter()
        .map(|s| (s.due, (s.sent - s.due) as f64 / 1e3))
        .collect();
    median_of_windows(&points, SECOND_NS, |v| nearest_rank(v, 99.0).unwrap_or(0.0))
}

/// An open loop whose generator ran late in most seconds measured the
/// generator, not the server: the run is invalid.
fn check_lateness(out: &mut Outcome, samples: &[Sample]) {
    let late = late_p99_us(samples);
    eprintln!("open loop: generator p99 lateness {late:.1} us (median over seconds)");
    out.check(late <= LATE_BOUND_US, || {
        format!("open loop invalid: generator p99 lateness {late:.0} us exceeds {LATE_BOUND_US} us")
    });
}

/// Spans of one request: the request on the client, the server's share of
/// it ending when the response arrived, and the server's stages laid end to
/// end inside that.
fn trace_request(trace: &mut Trace, s: &Sample) {
    let req = trace.record("request", s.slot, None, s.sent, s.done);
    let stages = parse_stages(s.stage_micros.as_deref());
    let resolve = stages.first().map_or(0, |&(_, v)| v);
    let server_ns = (s.server_us.unwrap_or(0) + resolve) * 1000;
    let end = s.done;
    let start = end.saturating_sub(server_ns).max(s.sent);
    let srv = trace.record("service.server", s.slot, Some(req), start, end);
    let mut at = start;
    for (name, us) in stages.into_iter().filter(|&(_, us)| us > 0) {
        let to = (at + us * 1000).min(end);
        trace.record(name, s.slot, Some(srv), at, to);
        at = to;
    }
}

/// `X-Stage-Micros` as (span name, µs) pairs in header order.
fn parse_stages(header: Option<&str>) -> Vec<(&'static str, u64)> {
    let Some(h) = header else { return Vec::new() };
    let names = [
        ("resolve", "service.resolve"),
        ("checkout", "service.checkout"),
        ("sketch", "service.sketch"),
        ("coverage", "service.coverage"),
        ("serialize", "service.serialize"),
    ];
    h.split(';')
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| {
            let name = names.iter().find(|(n, _)| *n == k)?.1;
            Some((name, v.parse().ok()?))
        })
        .collect()
}

/// Service-layer metrics from the traced requests.
fn service_metrics(
    out: &mut Outcome,
    samples: &[Sample],
    metrics_text: &str,
) -> Result<(), String> {
    let server: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.server_us)
        .map(|v| v as f64)
        .collect();
    let transport: Vec<f64> = samples
        .iter()
        .filter_map(|s| {
            let srv = s.server_us? as f64;
            Some((s.done - s.sent) as f64 / 1e3 - srv)
        })
        .collect();
    let stage = |name: &str| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter_map(|s| {
                parse_stages(s.stage_micros.as_deref())
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| v as f64)
            })
            .collect();
        median(&v)
    };
    let hits = samples
        .iter()
        .filter(|s| s.cache == CacheStatus::Hit)
        .count();
    let mut errors = 0.0;
    for series in ERROR_SERIES {
        errors += counter(metrics_text, series)?;
    }
    out.metric("service.server_us", median(&server), "us");
    out.metric("service.transport_us", median(&transport), "us");
    out.metric("service.resolve_us", stage("service.resolve"), "us");
    out.metric("service.checkout_us", stage("service.checkout"), "us");
    out.metric("service.serialize_us", stage("service.serialize"), "us");
    out.metric(
        "service.cache_hit_ratio",
        hits as f64 / samples.len().max(1) as f64,
        "ratio",
    );
    out.metric("service.errors", errors, "count");
    Ok(())
}

/// The service metrics of a workload without a server.
pub fn idle_service_metrics(out: &mut Outcome) {
    for (name, unit) in [
        ("service.server_us", "us"),
        ("service.transport_us", "us"),
        ("service.resolve_us", "us"),
        ("service.checkout_us", "us"),
        ("service.serialize_us", "us"),
        ("service.cache_hit_ratio", "ratio"),
        ("service.errors", "count"),
        ("service.saturation_rps", "1/s"),
        ("service.warmup_s", "s"),
    ] {
        out.metric(name, 0.0, unit);
    }
}

/// Graph metrics of the server workloads: the bench loads the same packed
/// file in-process.
fn graph_metrics(out: &mut Outcome, args: &Args) -> Result<Graph, String> {
    let (g, load_s, reverse_s, bytes) = load_graph(&args.work.join("g.smg"))?;
    out.metric("graph.load_s", load_s, "s");
    out.metric("graph.reverse_build_s", reverse_s, "s");
    out.metric("graph.smg_bytes", bytes as f64, "bytes");
    Ok(g)
}

/// The traced `select-cold` run: half the time untraced, half with
/// `X-Stage-Micros` and spans; then a fixed list of requests re-driven
/// in-process, each checked against the server's seeds.
fn traced_cold(args: &Args, ready: &mut Ready, out: &mut Outcome) -> Result<(), String> {
    let next = |i: u64| (body(world_seed(args.seed, STREAM_REQUEST, i), false), None);
    let half = args.seconds / 2.0;
    let (plain, _, f1, saturation_rps) = closed_loop(&mut ready.clients, half, false, &next);
    let epoch = Instant::now();
    let (traced, _, f2, _) = closed_loop(&mut ready.clients, half, true, &next);
    let text = scrape(&ready.server)?;
    out.failures.extend(f1.into_iter().chain(f2));
    tally(out, &plain, CacheStatus::Bypass);
    tally(out, &traced, CacheStatus::Bypass);
    let mut trace = Trace::new(epoch);
    for s in &traced {
        trace_request(&mut trace, s);
    }

    // Re-drive a fixed list of requests in-process for the layer split.
    let g = graph_metrics(out, args)?;
    let threads = nproc();
    let mut params = AstiParams::batched(EPS, BATCH);
    params.trim.threads = Some(threads);
    let mut redriver = Redriver::new(g.n());
    let mut counts = LoopCounts::default();
    let mut loop_trace = Trace::new(Instant::now());
    for i in 0..SHADOW_REQUESTS {
        let world = world_seed(args.seed, STREAM_REQUEST, i);
        let mut client = ready.server.connect()?;
        let resp = expect_ok(client.post("/v1/select", &body(world, false)), "select")?;
        let served = check_body(&resp.body)?;
        let mut world_rng = SmallRng::seed_from_u64(world.wrapping_add(1000));
        let mut algo_rng = SmallRng::seed_from_u64(world);
        let seeds = redriver.campaign(
            &g,
            Model::LT,
            eta(),
            &params,
            &mut world_rng,
            &mut algo_rng,
            &mut loop_trace,
            i,
            &mut counts,
        )?;
        let seeds: Vec<u64> = seeds.into_iter().map(u64::from).collect();
        out.check(seeds == served, || {
            format!("request {i}: the traced loop selects other seeds than the server")
        });
    }
    crate::write_trace(args, &trace)?;
    println!("in-process re-drive of {SHADOW_REQUESTS} requests:");
    print!("{}", loop_trace.table());

    layers::loop_metrics(out, &loop_trace, &counts);
    layers::sampling_probe(out, &g, Model::LT, eta(), args.seed, threads);
    service_metrics(out, &traced, &text)?;
    out.metric("service.saturation_rps", saturation_rps, "1/s");
    out.metric("service.warmup_s", ready.warmup_s, "s");
    out.metric(
        "process.peak_rss_mb",
        peak_rss_mb(&ready.server.pid())?,
        "MB",
    );
    out.metric("loadgen.late_p99_us", 0.0, "us");
    let p50 = |s: &[Sample]| nearest_rank(&latencies_ms(s), 50.0).unwrap_or(f64::NAN);
    out.metric(
        "trace.overhead_ratio",
        p50(&traced) / p50(&plain) - 1.0,
        "ratio",
    );
    Ok(())
}

/// The traced `select-hot` run: the open loop for a third of the time
/// untraced and a third with `X-Stage-Micros` and spans, then a closed-loop
/// saturation phase over `nproc` fresh connections for the last third.
fn traced_hot(
    args: &Args,
    ready: &mut Ready,
    bodies: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let third = args.seconds / 3.0;
    let plain_req: Vec<Vec<u8>> = bodies.iter().map(|b| raw_request(b, false)).collect();
    let traced_req: Vec<Vec<u8>> = bodies.iter().map(|b| raw_request(b, true)).collect();
    let addr = ready.server.addr.clone();
    let plain = open_loop(args, &addr, &plain_req, &ready.expected, third, 0)?;
    let epoch = Instant::now();
    let traced = open_loop(
        args,
        &addr,
        &traced_req,
        &ready.expected,
        third,
        plain.len() as u64,
    )?;
    // Saturation continues the key sequence after both open loops.
    let first = (plain.len() + traced.len()) as u64;
    let (sat, failures, saturation_rps) = saturation(args, ready, bodies, first, third)?;
    let text = scrape(&ready.server)?;
    out.failures.extend(failures);
    tally(out, &plain, CacheStatus::Hit);
    tally(out, &traced, CacheStatus::Hit);
    tally(out, &sat, CacheStatus::Hit);
    check_lateness(out, &plain);
    check_lateness(out, &traced);
    let mut trace = Trace::new(epoch);
    for s in &traced {
        trace_request(&mut trace, s);
    }
    crate::write_trace(args, &trace)?;

    graph_metrics(out, args)?;
    layers::idle_loop_metrics(out);
    layers::idle_sampling_probe(out);
    service_metrics(out, &traced, &text)?;
    out.metric("service.saturation_rps", saturation_rps, "1/s");
    out.metric("service.warmup_s", ready.warmup_s, "s");
    out.metric(
        "process.peak_rss_mb",
        peak_rss_mb(&ready.server.pid())?,
        "MB",
    );
    out.metric("loadgen.late_p99_us", late_p99_us(&traced), "us");
    let p50 = |s: &[Sample]| nearest_rank(&latencies_ms(s), 50.0).unwrap_or(f64::NAN);
    out.metric(
        "trace.overhead_ratio",
        p50(&traced) / p50(&plain) - 1.0,
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answered(cache: CacheStatus) -> Sample {
        Sample {
            slot: 0,
            due: 0,
            sent: 0,
            done: 1,
            status: 200,
            cache,
            server_us: None,
            stage_micros: None,
            body_ok: true,
        }
    }

    #[test]
    fn tally_wants_the_exact_cache_status() {
        let mut out = Outcome::default();
        tally(
            &mut out,
            &[answered(CacheStatus::Bypass)],
            CacheStatus::Bypass,
        );
        assert!(out.correct());
        // A cold request answered MISS was cached although it asked not to be.
        let mut out = Outcome::default();
        let cold = [answered(CacheStatus::Bypass), answered(CacheStatus::Miss)];
        tally(&mut out, &cold, CacheStatus::Bypass);
        assert!(!out.correct());
        let mut out = Outcome::default();
        tally(&mut out, &[answered(CacheStatus::Miss)], CacheStatus::Hit);
        assert!(!out.correct());
        assert_eq!(CacheStatus::of(Some("MIXED")), CacheStatus::Other);
        assert_eq!(CacheStatus::of(None), CacheStatus::Other);
    }
}
