//! The epoll readiness event loop: one poll thread multiplexing every
//! connection, a small fixed pool of dispatch threads running the
//! transport-agnostic session layer.
//!
//! Connections live in a generation-tagged slab and move through a small
//! state machine — reading (incremental [`RequestParser`]) → dispatching
//! (deregistered from the poller while the algorithm runs) → writing
//! (partial-write [`WriteBuf`]) → keep-alive idle. Concurrency therefore
//! costs a slab slot, not a thread: ≥512 idle keep-alive connections are
//! served by `1 + dispatchers` threads total.
//!
//! Four protections keep the loop healthy under load:
//!
//! * **Deadline wheel** — idle, mid-request (408 once the head was
//!   parsed), and stuck-write timeouts, swept at [`WHEEL_SLOT_MS`]
//!   granularity against one monotonic epoch.
//! * **Admission control** — when `pending` dispatches (queued + running)
//!   reach the configured high-water mark, new requests are answered with
//!   a deterministic 429 instead of queueing without bound.
//! * **Per-request deadlines** — `X-Deadline-Millis` is checked when a
//!   dispatch thread dequeues the request; an expired deadline returns a
//!   structured 504 without running the selection.
//! * **Pipelining bounds** — per-connection parse backlog is capped at
//!   [`MAX_BUFFERED_BYTES`] (reads pause at the cap and resume as the
//!   backlog drains), and each connection is driven by an *iterative*
//!   state-machine loop ([`Loop::drive`]) with a bounded synchronous-
//!   response budget per cycle, so a client pipelining thousands of
//!   poll-thread-answerable requests (429s under overload, 400s from bad
//!   deadline headers) can neither grow the poll thread's stack nor
//!   monopolize it.
//!
//! Every response is produced by [`handle`] on a fully-parsed request and
//! serialized through [`Response::write_to`]; the wire tests pin the bytes.

use crate::error::{parse_deadline, ServiceError};
use crate::http::{Request, RequestParser, Response, MAX_BUFFERED_BYTES};
use crate::platform::{EpollEvent, Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::routes::{handle, ServiceState};
use crate::trace::TraceEvent;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Deadline-wheel granularity, and the poll timeout that drives the sweep.
const WHEEL_SLOT_MS: u64 = 100;
/// Wheel circumference: deadlines further out than `SLOTS × SLOT_MS`
/// survive extra rotations (entries are re-kept until actually due).
const WHEEL_SLOTS: usize = 512;
/// Socket read chunk.
const READ_CHUNK: usize = 16 * 1024;
/// How many responses the poll thread answers synchronously (400/408/429)
/// on one connection per [`Loop::drive`] call before yielding; the
/// connection is re-queued via the redrive list so other connections and
/// timers run in between.
const SYNC_RESPONSES_PER_DRIVE: usize = 64;
/// Poller token of the accept listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the wake pipe (loopback socket pair).
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Knobs the server resolves from [`crate::server::ServerConfig`].
pub(crate) struct LoopConfig {
    /// Dispatch threads running the session layer.
    pub dispatchers: usize,
    /// Admission high-water mark: queued + running dispatches beyond which
    /// new requests get an immediate 429.
    pub max_pending: usize,
    /// Keep-alive idle timeout (silent close).
    pub idle_timeout_ms: u64,
    /// Mid-request read and response write timeout (408 when the head was
    /// already parsed; silent close otherwise).
    pub request_timeout_ms: u64,
}

/// A response being written out, tolerant of partial writes.
#[derive(Default)]
struct WriteBuf {
    buf: Vec<u8>,
    written: usize,
}

enum WriteOutcome {
    /// Everything flushed.
    Done,
    /// The socket would block; bytes remain.
    Pending,
    /// The peer is gone.
    Error,
}

impl WriteBuf {
    fn is_empty(&self) -> bool {
        self.written >= self.buf.len()
    }

    fn set(&mut self, bytes: Vec<u8>) {
        self.buf = bytes;
        self.written = 0;
    }

    /// Pushes as many pending bytes as the writer accepts.
    fn write_to(&mut self, w: &mut impl Write) -> WriteOutcome {
        while self.written < self.buf.len() {
            let pending = self.buf.get(self.written..).unwrap_or(&[]);
            match w.write(pending) {
                Ok(0) => return WriteOutcome::Error,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteOutcome::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Error,
            }
        }
        WriteOutcome::Done
    }
}

/// Which deadline (if any) is armed for a connection.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TimerClass {
    /// No deadline — a dispatch is running (504s bound it instead).
    None,
    /// Keep-alive idle window; refreshed after every response.
    Idle,
    /// Mid-request window, pinned at the first byte of the request so a
    /// trickling peer cannot extend it.
    Request,
    /// Response-write window, pinned when the write first blocks.
    Write,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    parser: RequestParser,
    write: WriteBuf,
    /// Registered with the poller (deregistered while a dispatch runs, so
    /// a hung-up peer cannot spin the loop on unmaskable `EPOLLHUP`).
    registered: bool,
    interest: u32,
    busy: bool,
    close_after_write: bool,
    read_closed: bool,
    timer: TimerClass,
    timer_gen: u64,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Conn {
        Conn {
            stream,
            fd,
            parser: RequestParser::new(),
            write: WriteBuf::default(),
            registered: false,
            interest: 0,
            busy: false,
            close_after_write: false,
            read_closed: false,
            timer: TimerClass::None,
            timer_gen: 0,
        }
    }
}

/// Generation-tagged connection slab: tokens remain unambiguous across
/// slot reuse because the generation is part of the token.
struct Slab {
    slots: Vec<Slot>,
    free: Vec<usize>,
}

struct Slot {
    conn: Option<Conn>,
    gen: u64,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `conn`, returning its `(idx, gen32)` token parts; `None` when
    /// the index space is exhausted (2³² concurrent connections).
    fn insert(&mut self, conn: Conn) -> Option<(usize, u64)> {
        if let Some(idx) = self.free.pop() {
            let slot = self.slots.get_mut(idx)?;
            slot.conn = Some(conn);
            return Some((idx, slot.gen & 0xFFFF_FFFF));
        }
        let idx = self.slots.len();
        if idx as u64 >= 0xFFFF_FFFF {
            return None;
        }
        self.slots.push(Slot {
            conn: Some(conn),
            gen: 0,
        });
        Some((idx, 0))
    }

    /// The live connection at `idx` if its generation still matches.
    fn get_mut(&mut self, idx: usize, gen32: u64) -> Option<&mut Conn> {
        let slot = self.slots.get_mut(idx)?;
        if slot.gen & 0xFFFF_FFFF != gen32 {
            return None;
        }
        slot.conn.as_mut()
    }

    /// Frees the slot, bumping its generation so stale tokens miss.
    fn remove(&mut self, idx: usize, gen32: u64) -> Option<Conn> {
        let slot = self.slots.get_mut(idx)?;
        if slot.gen & 0xFFFF_FFFF != gen32 {
            return None;
        }
        let conn = slot.conn.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        Some(conn)
    }
}

fn pack(idx: usize, gen32: u64) -> u64 {
    (gen32 << 32) | (idx as u64 & 0xFFFF_FFFF)
}

fn unpack(token: u64) -> (usize, u64) {
    ((token & 0xFFFF_FFFF) as usize, token >> 32)
}

/// Hashed-wheel timer over [`WHEEL_SLOTS`] buckets of [`WHEEL_SLOT_MS`].
/// Entries carry their absolute due time; a sweep expires what is due and
/// keeps what belongs to a later rotation. Stale entries (the connection
/// re-armed or died) are filtered by the caller via `timer_gen`.
struct DeadlineWheel {
    slots: Vec<Vec<WheelEntry>>,
    swept_ms: u64,
}

#[derive(Clone, Copy)]
struct WheelEntry {
    idx: usize,
    gen32: u64,
    timer_gen: u64,
    due_ms: u64,
}

impl DeadlineWheel {
    fn new() -> DeadlineWheel {
        DeadlineWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            swept_ms: 0,
        }
    }

    fn slot_of(due_ms: u64) -> usize {
        ((due_ms / WHEEL_SLOT_MS) % WHEEL_SLOTS as u64) as usize
    }

    fn insert(&mut self, entry: WheelEntry) {
        if let Some(bucket) = self.slots.get_mut(Self::slot_of(entry.due_ms)) {
            bucket.push(entry);
        }
    }

    /// Sweeps every bucket between the last sweep and `now_ms`, pushing
    /// due entries into `expired` and keeping future-rotation ones.
    fn advance(&mut self, now_ms: u64, expired: &mut Vec<WheelEntry>) {
        let from_tick = self.swept_ms / WHEEL_SLOT_MS;
        let to_tick = now_ms / WHEEL_SLOT_MS;
        if to_tick < from_tick {
            return;
        }
        // A gap longer than one rotation still only needs each bucket once.
        let steps = (to_tick - from_tick + 1).min(WHEEL_SLOTS as u64);
        for t in 0..steps {
            let si = ((from_tick + t) % WHEEL_SLOTS as u64) as usize;
            let Some(bucket) = self.slots.get_mut(si) else {
                continue;
            };
            bucket.retain(|e| {
                if e.due_ms <= now_ms {
                    expired.push(*e);
                    false
                } else {
                    true
                }
            });
        }
        self.swept_ms = now_ms;
    }
}

/// A fully-parsed request handed to the dispatch pool.
struct Job {
    idx: usize,
    gen32: u64,
    req: Request,
    keep_alive: bool,
    deadline_ms: Option<u64>,
    parsed_at_ms: u64,
}

/// A serialized response handed back to the poll loop.
struct Done {
    idx: usize,
    gen32: u64,
    bytes: Vec<u8>,
    close: bool,
}

fn now_ms(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// Serves `listener` until `stop` turns true. Returns an error only for
/// setup failures (epoll unavailable, wake-pair binding) — per-connection
/// failures close that connection and keep the loop running.
pub(crate) fn serve(
    listener: TcpListener,
    state: &Arc<ServiceState>,
    cfg: &LoopConfig,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;

    // Wake channel: a loopback socket pair (the std-only stand-in for
    // eventfd). Dispatch threads write one byte to interrupt the poll wait
    // as soon as a completion is queued.
    let wake_bind = TcpListener::bind("127.0.0.1:0")?;
    let wake_tx = TcpStream::connect(wake_bind.local_addr()?)?;
    let (wake_rx, _) = wake_bind.accept()?;
    drop(wake_bind);
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let wake_tx = Arc::new(wake_tx);
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, EPOLLIN)?;

    // smin-lint: allow(no-wall-clock) -- the one monotonic epoch every deadline is measured against; never reaches a response body
    let epoch = Instant::now();

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let completions: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let pending = Arc::new(AtomicUsize::new(0));

    let mut el = Loop {
        poller,
        listener,
        wake_rx,
        slab: Slab::new(),
        wheel: DeadlineWheel::new(),
        epoch,
        cfg,
        state,
        job_tx: Some(job_tx),
        completions: Arc::clone(&completions),
        pending: Arc::clone(&pending),
        redrive: Vec::new(),
    };

    std::thread::scope(|scope| {
        for _ in 0..cfg.dispatchers.max(1) {
            let job_rx = Arc::clone(&job_rx);
            let completions = Arc::clone(&completions);
            let pending = Arc::clone(&pending);
            let wake_tx = Arc::clone(&wake_tx);
            let state = Arc::clone(state);
            scope.spawn(move || {
                dispatch_loop(&state, &job_rx, &completions, &pending, &wake_tx, epoch)
            });
        }
        let result = el.run(stop);
        // Closing the job channel drains the dispatch pool; the scope then
        // joins every dispatcher before returning.
        el.job_tx = None;
        result
    })
}

/// One dispatch worker: dequeue, check the deadline, run the session
/// layer, serialize, hand the bytes back, wake the poll thread.
fn dispatch_loop(
    state: &ServiceState,
    job_rx: &Mutex<mpsc::Receiver<Job>>,
    completions: &Mutex<Vec<Done>>,
    pending: &AtomicUsize,
    wake_tx: &TcpStream,
    epoch: Instant,
) {
    loop {
        // Hold the lock only while dequeuing so workers run in parallel.
        let job = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else {
            break; // channel closed: shutting down
        };
        let elapsed = now_ms(epoch).saturating_sub(job.parsed_at_ms);
        let resp = match job.deadline_ms {
            Some(d) if elapsed >= d => {
                state.metrics().errors_504.inc();
                if let Some(trace) = state.trace() {
                    trace.emit(&TraceEvent {
                        method: Some(&job.req.method),
                        path: Some(&job.req.path),
                        status: 504,
                        deadline_remaining_ms: Some(0),
                        ..TraceEvent::default()
                    });
                }
                ServiceError::deadline_exceeded(d).to_response()
            }
            _ => handle(state, &job.req),
        };
        let mut bytes = Vec::new();
        // Writing into a Vec cannot fail.
        let _ = resp.write_to(&mut bytes, job.keep_alive);
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Done {
                idx: job.idx,
                gen32: job.gen32,
                bytes,
                close: !job.keep_alive,
            });
        pending.fetch_sub(1, Ordering::SeqCst);
        // A full wake pipe is fine: the poll thread already has a pending
        // wake-up it has not drained yet.
        let mut tx = wake_tx;
        let _ = tx.write(&[1u8]);
    }
}

/// What the incremental parser produced for one connection.
enum Parsed {
    Req(Request),
    Eof,
    Wait(TimerClass),
    Bad(String),
}

/// How [`Loop::begin_dispatch`] disposed of a parsed request.
enum Dispatch {
    /// Handed to the pool; the connection is deregistered until the
    /// completion comes back.
    Async,
    /// Answered by the poll thread itself (400/429); the response sits in
    /// the write buffer, not yet flushed.
    Sync,
    /// The connection was closed (shutdown race).
    Closed,
}

/// The poll thread's whole mutable state.
struct Loop<'a> {
    poller: Poller,
    listener: TcpListener,
    wake_rx: TcpStream,
    slab: Slab,
    wheel: DeadlineWheel,
    epoch: Instant,
    cfg: &'a LoopConfig,
    /// Shared state, for the loop-level metric series and trace log.
    state: &'a ServiceState,
    /// `Some` while serving; dropped to release the dispatch pool.
    job_tx: Option<mpsc::Sender<Job>>,
    completions: Arc<Mutex<Vec<Done>>>,
    pending: Arc<AtomicUsize>,
    /// Connections that exhausted their synchronous-response budget and
    /// still hold parseable backlog; resumed on the next loop iteration.
    redrive: Vec<(usize, u64)>,
}

impl Loop<'_> {
    fn run(&mut self, stop: &AtomicBool) -> std::io::Result<()> {
        let mut events = vec![EpollEvent::default(); 1024];
        let mut expired = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            // Pending redrives must not wait out the poll timeout: poll
            // without blocking, then resume them below.
            let timeout = if self.redrive.is_empty() {
                WHEEL_SLOT_MS as i32
            } else {
                0
            };
            let n = {
                let _span = self.state.metrics().epoll_wait_micros.start_span();
                self.poller.wait(&mut events, timeout)?
            };
            for i in 0..n {
                let Some((token, ready)) = events.get(i).map(|e| (e.token(), e.ready())) else {
                    break;
                };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    t => {
                        let (idx, gen32) = unpack(t);
                        self.conn_ready(idx, gen32, ready);
                    }
                }
            }
            self.apply_completions();
            // Resume connections that ran out of synchronous-response
            // budget last cycle (stale entries miss harmlessly on the
            // slab's generation check).
            let redrive = std::mem::take(&mut self.redrive);
            for (idx, gen32) in redrive {
                self.drive(idx, gen32);
            }
            expired.clear();
            self.wheel.advance(now_ms(self.epoch), &mut expired);
            for e in &expired {
                self.expire(*e);
            }
            // Loop-health gauges, sampled once per iteration: queued +
            // running dispatches, occupied slab slots, and connections
            // awaiting a redrive.
            let m = self.state.metrics();
            m.dispatch_queue_depth
                .set(u64::try_from(self.pending.load(Ordering::SeqCst)).unwrap_or(u64::MAX));
            let occupied = self.slab.slots.len().saturating_sub(self.slab.free.len());
            m.slab_connections
                .set(u64::try_from(occupied).unwrap_or(u64::MAX));
            m.redrive_queue_length
                .set(u64::try_from(self.redrive.len()).unwrap_or(u64::MAX));
        }
        Ok(())
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    let Some((idx, gen32)) = self.slab.insert(Conn::new(stream, fd)) else {
                        continue; // slab exhausted: drop the connection
                    };
                    if self.set_interest(idx, gen32, EPOLLIN).is_err() {
                        self.slab.remove(idx, gen32);
                        continue;
                    }
                    self.arm_timer(idx, gen32, TimerClass::Idle);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE, aborted handshakes):
                // yield to the loop; level-triggering re-reports readiness.
                Err(_) => break,
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
    }

    /// Registers/modifies/deregisters the fd to match `interest` (0 = off).
    fn set_interest(&mut self, idx: usize, gen32: u64, interest: u32) -> std::io::Result<()> {
        let Some(conn) = self.slab.get_mut(idx, gen32) else {
            return Ok(());
        };
        let (fd, registered, current) = (conn.fd, conn.registered, conn.interest);
        let token = pack(idx, gen32);
        let result = match (registered, interest) {
            (false, 0) => Ok(()),
            (false, i) => self.poller.add(fd, token, i),
            (true, 0) => self.poller.del(fd),
            (true, i) if i == current => Ok(()),
            (true, i) => self.poller.modify(fd, token, i),
        };
        if let Some(conn) = self.slab.get_mut(idx, gen32) {
            if result.is_ok() {
                conn.registered = interest != 0;
                conn.interest = interest;
            }
        }
        result
    }

    /// (Re-)arms the connection's deadline. `Request` and `Write` windows
    /// are pinned — re-arming the same class is a no-op, so a trickling
    /// peer cannot extend them — while `Idle` refreshes on every arm.
    fn arm_timer(&mut self, idx: usize, gen32: u64, class: TimerClass) {
        let due_ms = {
            let Some(conn) = self.slab.get_mut(idx, gen32) else {
                return;
            };
            if conn.timer == class && matches!(class, TimerClass::Request | TimerClass::Write) {
                return;
            }
            conn.timer = class;
            conn.timer_gen = conn.timer_gen.wrapping_add(1);
            let timeout_ms = match class {
                TimerClass::None => return, // busy: bounded by 504s instead
                TimerClass::Idle => self.cfg.idle_timeout_ms,
                TimerClass::Request | TimerClass::Write => self.cfg.request_timeout_ms,
            };
            now_ms(self.epoch).saturating_add(timeout_ms)
        };
        let timer_gen = match self.slab.get_mut(idx, gen32) {
            Some(conn) => conn.timer_gen,
            None => return,
        };
        self.wheel.insert(WheelEntry {
            idx,
            gen32,
            timer_gen,
            due_ms,
        });
    }

    fn conn_ready(&mut self, idx: usize, gen32: u64, ready: u32) {
        if ready & EPOLLERR != 0 {
            self.close_conn(idx, gen32);
            return;
        }
        if ready & EPOLLOUT != 0 {
            self.drive(idx, gen32);
        }
        if ready & (EPOLLIN | EPOLLHUP) != 0 {
            self.read_ready(idx, gen32);
        }
    }

    fn read_ready(&mut self, idx: usize, gen32: u64) {
        enum After {
            Nothing,
            Close,
            Drive,
        }
        let mut buf = [0u8; READ_CHUNK];
        let mut nread = 0u64;
        let after = loop {
            let Some(conn) = self.slab.get_mut(idx, gen32) else {
                break After::Nothing;
            };
            if conn.busy {
                break After::Nothing; // deregistered; a stray event is ignorable
            }
            if conn.read_closed {
                // EPOLLHUP after EOF: finish any in-flight write (it will
                // fail fast if the peer is fully gone), else close.
                break if conn.write.is_empty() {
                    After::Close
                } else {
                    After::Drive
                };
            }
            // Backlog cap: stop pulling bytes off the socket until the
            // already-buffered pipelined requests are consumed. The cap
            // exceeds any single request, so the drive below always makes
            // progress, and level-triggered readiness re-reports the
            // unread socket data once the backlog drains.
            if conn.parser.buffered_len() >= MAX_BUFFERED_BYTES {
                break After::Drive;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break After::Drive;
                }
                Ok(n) => {
                    nread = nread.saturating_add(n as u64);
                    conn.parser.feed(buf.get(..n).unwrap_or(&[]));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break After::Drive,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break After::Close,
            }
        };
        if nread > 0 {
            self.state.metrics().bytes_read.add(nread);
        }
        match after {
            After::Nothing => {}
            After::Close => self.close_conn(idx, gen32),
            After::Drive => self.drive(idx, gen32),
        }
    }

    /// Drives one connection's state machine to quiescence, iteratively:
    /// flush the queued response (if any), then parse the next buffered
    /// request, then loop. Returns when the connection blocks on I/O
    /// (interest re-armed), hands a request to the dispatch pool, closes,
    /// or exhausts its synchronous-response budget for this cycle (then
    /// re-queued on `redrive`). A flat loop rather than mutual recursion:
    /// a client pipelining thousands of poll-thread-answerable requests
    /// must not grow the stack per request.
    fn drive(&mut self, idx: usize, gen32: u64) {
        let mut sync_budget = SYNC_RESPONSES_PER_DRIVE;
        loop {
            // Phase 1: push out whatever is queued for writing.
            let (outcome, wrote) = {
                let Some(conn) = self.slab.get_mut(idx, gen32) else {
                    return;
                };
                if conn.write.is_empty() {
                    (None, 0u64)
                } else {
                    let Conn { stream, write, .. } = conn;
                    let before = write.written;
                    let outcome = write.write_to(stream);
                    (Some(outcome), write.written.saturating_sub(before) as u64)
                }
            };
            if wrote > 0 {
                self.state.metrics().bytes_written.add(wrote);
            }
            match outcome {
                Some(WriteOutcome::Error) => {
                    self.close_conn(idx, gen32);
                    return;
                }
                Some(WriteOutcome::Pending) => {
                    if self.set_interest(idx, gen32, EPOLLOUT).is_err() {
                        self.close_conn(idx, gen32);
                        return;
                    }
                    self.arm_timer(idx, gen32, TimerClass::Write);
                    return;
                }
                Some(WriteOutcome::Done) => {
                    let close = {
                        let Some(conn) = self.slab.get_mut(idx, gen32) else {
                            return;
                        };
                        conn.write.set(Vec::new());
                        conn.close_after_write
                    };
                    if close {
                        self.close_conn(idx, gen32);
                        return;
                    }
                }
                None => {}
            }

            // Phase 2: the write side is clear — pull the next request.
            // One at a time: a response being computed or written blocks
            // the next pipelined request (natural backpressure).
            let parsed = {
                let Some(conn) = self.slab.get_mut(idx, gen32) else {
                    return;
                };
                if conn.busy {
                    return; // a dispatch is running; its completion re-drives
                }
                match conn.parser.try_next() {
                    Ok(Some(req)) => Parsed::Req(req),
                    Ok(None) if conn.read_closed => Parsed::Eof,
                    Ok(None) => Parsed::Wait(if conn.parser.mid_request() {
                        TimerClass::Request
                    } else {
                        TimerClass::Idle
                    }),
                    Err(e) => Parsed::Bad(e.message),
                }
            };
            match parsed {
                Parsed::Req(req) => match self.begin_dispatch(idx, gen32, req) {
                    // Deregistered until the pool answers; the completion
                    // re-enters `drive`.
                    Dispatch::Async => return,
                    Dispatch::Closed => return,
                    // A 400/429 was queued; loop back to flush it.
                    Dispatch::Sync => {}
                },
                Parsed::Eof => {
                    self.close_conn(idx, gen32);
                    return;
                }
                Parsed::Wait(class) => {
                    if self.set_interest(idx, gen32, EPOLLIN).is_err() {
                        self.close_conn(idx, gen32);
                        return;
                    }
                    self.arm_timer(idx, gen32, class);
                    return;
                }
                Parsed::Bad(message) => {
                    // Protocol violation: the stream position is
                    // unknowable, so answer once and close.
                    self.state.metrics().errors_400.inc();
                    if let Some(trace) = self.state.trace() {
                        // No parsed request to name: method/path are null.
                        trace.emit(&TraceEvent {
                            status: 400,
                            ..TraceEvent::default()
                        });
                    }
                    let resp = ServiceError::bad_request(format!("malformed HTTP: {message}"))
                        .to_response();
                    self.queue_response(idx, gen32, &resp, false);
                }
            }
            // A synchronous response was queued this iteration: spend
            // budget, and once it is gone yield so other connections and
            // the timer wheel get the poll thread.
            sync_budget -= 1;
            if sync_budget == 0 {
                self.redrive.push((idx, gen32));
                return;
            }
        }
    }

    /// Admission control + deadline stamping, then hand-off to the pool.
    fn begin_dispatch(&mut self, idx: usize, gen32: u64, req: Request) -> Dispatch {
        let keep_alive = req.keep_alive();
        let deadline_ms = match parse_deadline(&req) {
            Ok(d) => d,
            Err(e) => {
                self.state.metrics().errors_400.inc();
                if let Some(trace) = self.state.trace() {
                    trace.emit(&TraceEvent {
                        method: Some(&req.method),
                        path: Some(&req.path),
                        status: 400,
                        ..TraceEvent::default()
                    });
                }
                self.queue_response(idx, gen32, &e.to_response(), keep_alive);
                return Dispatch::Sync;
            }
        };
        if self.pending.load(Ordering::SeqCst) >= self.cfg.max_pending {
            self.state.metrics().errors_429.inc();
            if let Some(trace) = self.state.trace() {
                trace.emit(&TraceEvent {
                    method: Some(&req.method),
                    path: Some(&req.path),
                    status: 429,
                    deadline_remaining_ms: deadline_ms,
                    ..TraceEvent::default()
                });
            }
            self.queue_response(
                idx,
                gen32,
                &ServiceError::overloaded().to_response(),
                keep_alive,
            );
            return Dispatch::Sync;
        }
        self.pending.fetch_add(1, Ordering::SeqCst);
        // Deregister while the dispatch runs: no read backpressure games,
        // and an unmaskable EPOLLHUP cannot spin the poll thread.
        let _ = self.set_interest(idx, gen32, 0);
        if let Some(conn) = self.slab.get_mut(idx, gen32) {
            conn.busy = true;
            conn.timer = TimerClass::None;
            conn.timer_gen = conn.timer_gen.wrapping_add(1);
        }
        let job = Job {
            idx,
            gen32,
            req,
            keep_alive,
            deadline_ms,
            parsed_at_ms: now_ms(self.epoch),
        };
        if let Some(tx) = &self.job_tx {
            // Send only fails at shutdown, when the connection is going
            // away with the whole loop anyway.
            if tx.send(job).is_err() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                self.close_conn(idx, gen32);
                return Dispatch::Closed;
            }
        }
        Dispatch::Async
    }

    /// Queues a response the poll thread produced itself (400/408/429)
    /// into the connection's write buffer; `drive` flushes it.
    fn queue_response(&mut self, idx: usize, gen32: u64, resp: &Response, keep_alive: bool) {
        let mut bytes = Vec::new();
        // Writing into a Vec cannot fail.
        let _ = resp.write_to(&mut bytes, keep_alive);
        let Some(conn) = self.slab.get_mut(idx, gen32) else {
            return;
        };
        conn.write.set(bytes);
        conn.close_after_write = !keep_alive;
    }

    /// Applies responses the dispatch pool queued.
    fn apply_completions(&mut self) {
        let done = {
            let mut guard = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for d in done {
            {
                let Some(conn) = self.slab.get_mut(d.idx, d.gen32) else {
                    continue; // connection died while its request ran
                };
                conn.busy = false;
                conn.write.set(d.bytes);
                conn.close_after_write = d.close;
            }
            self.drive(d.idx, d.gen32);
        }
    }

    /// A deadline fired. Validate it is still current, then act on the
    /// connection's state: stuck write / idle / pre-head stall close
    /// silently; a stall after the head was parsed earns a 408 (the peer
    /// committed to a request).
    fn expire(&mut self, e: WheelEntry) {
        enum Act {
            Close,
            Timeout408,
        }
        let (act, class) = {
            let Some(conn) = self.slab.get_mut(e.idx, e.gen32) else {
                return;
            };
            if conn.timer_gen != e.timer_gen || conn.busy {
                return; // re-armed (or dispatching) since this was scheduled
            }
            let act = if !conn.write.is_empty() {
                Act::Close
            } else if conn.parser.head_parsed() {
                Act::Timeout408
            } else {
                Act::Close
            };
            (act, conn.timer)
        };
        let m = self.state.metrics();
        match class {
            TimerClass::None => {}
            TimerClass::Idle => m.timer_expirations_idle.inc(),
            TimerClass::Request => m.timer_expirations_request.inc(),
            TimerClass::Write => m.timer_expirations_write.inc(),
        }
        match act {
            Act::Close => self.close_conn(e.idx, e.gen32),
            Act::Timeout408 => {
                m.errors_408.inc();
                if let Some(trace) = self.state.trace() {
                    // The wheel fired before a full request parsed:
                    // method/path are null.
                    trace.emit(&TraceEvent {
                        status: 408,
                        ..TraceEvent::default()
                    });
                }
                let resp = ServiceError::request_timeout().to_response();
                self.queue_response(e.idx, e.gen32, &resp, false);
                self.drive(e.idx, e.gen32);
            }
        }
    }

    fn close_conn(&mut self, idx: usize, gen32: u64) {
        let Some(conn) = self.slab.remove(idx, gen32) else {
            return;
        };
        if conn.registered {
            let _ = self.poller.del(conn.fd);
        }
        // Dropping the stream closes the fd (and clears any leftover
        // registration kernel-side).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call, then blocks.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            let n = buf.len().min(self.cap).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_survives_partial_writes_at_every_boundary() {
        let payload: Vec<u8> = (0u8..=255).collect();
        for cap in 1..payload.len() + 1 {
            // Each round the socket accepts exactly `cap` bytes then
            // blocks, exercising the resume path at every boundary.
            let mut w = Trickle {
                out: Vec::new(),
                cap,
                budget: cap,
            };
            let mut wb = WriteBuf::default();
            wb.set(payload.clone());
            let mut rounds = 0;
            loop {
                match wb.write_to(&mut w) {
                    WriteOutcome::Done => break,
                    WriteOutcome::Pending => w.budget = cap,
                    WriteOutcome::Error => panic!("trickle never errors"),
                }
                rounds += 1;
                assert!(rounds < 10_000);
            }
            assert_eq!(w.out, payload, "cap {cap} corrupted the stream");
            assert!(wb.is_empty());
        }
    }

    #[test]
    fn write_buf_reports_pending_and_resumes() {
        let payload = b"HTTP/1.1 200 OK\r\n\r\nhello".to_vec();
        let mut w = Trickle {
            out: Vec::new(),
            cap: 3,
            budget: 7,
        };
        let mut wb = WriteBuf::default();
        wb.set(payload.clone());
        assert!(matches!(wb.write_to(&mut w), WriteOutcome::Pending));
        assert_eq!(w.out.len(), 7);
        assert!(!wb.is_empty());
        w.budget = usize::MAX;
        assert!(matches!(wb.write_to(&mut w), WriteOutcome::Done));
        assert_eq!(w.out, payload);
    }

    #[test]
    fn slab_tokens_are_generation_tagged() {
        let mk = || {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let s = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let fd = s.as_raw_fd();
            Conn::new(s, fd)
        };
        let mut slab = Slab::new();
        let (idx, gen_a) = slab.insert(mk()).unwrap();
        assert!(slab.get_mut(idx, gen_a).is_some());
        assert!(slab.remove(idx, gen_a).is_some());
        assert!(slab.get_mut(idx, gen_a).is_none(), "stale token must miss");
        let (idx2, gen_b) = slab.insert(mk()).unwrap();
        assert_eq!(idx2, idx, "slot is reused");
        assert_ne!(gen_a, gen_b, "generation advanced");
        assert!(slab.remove(idx, gen_a).is_none(), "stale remove must miss");
        assert!(slab.get_mut(idx2, gen_b).is_some());

        let token = pack(idx2, gen_b);
        assert_eq!(unpack(token), (idx2, gen_b));
        let token = pack(7, 0xFFFF_FFFF);
        assert_eq!(unpack(token), (7, 0xFFFF_FFFF));
    }

    #[test]
    fn wheel_expires_due_entries_and_keeps_future_rotations() {
        let mut wheel = DeadlineWheel::new();
        let horizon = WHEEL_SLOT_MS * WHEEL_SLOTS as u64;
        let entry = |idx: usize, due_ms: u64| WheelEntry {
            idx,
            gen32: 0,
            timer_gen: 1,
            due_ms,
        };
        wheel.insert(entry(1, 250));
        wheel.insert(entry(2, 250 + horizon)); // same bucket, next rotation
        wheel.insert(entry(3, 900));

        let mut expired = Vec::new();
        wheel.advance(100, &mut expired);
        assert!(expired.is_empty());

        wheel.advance(300, &mut expired);
        let idxs: Vec<usize> = expired.iter().map(|e| e.idx).collect();
        assert_eq!(idxs, vec![1], "due entry fires, future rotation survives");

        expired.clear();
        wheel.advance(1_000, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].idx, 3);

        // The next-rotation entry fires once its own time arrives.
        expired.clear();
        wheel.advance(300 + horizon, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].idx, 2);
    }

    #[test]
    fn wheel_handles_sweep_gaps_longer_than_one_rotation() {
        let mut wheel = DeadlineWheel::new();
        let horizon = WHEEL_SLOT_MS * WHEEL_SLOTS as u64;
        for i in 0..10 {
            wheel.insert(WheelEntry {
                idx: i,
                gen32: 0,
                timer_gen: 1,
                due_ms: (i as u64) * 777 % horizon,
            });
        }
        let mut expired = Vec::new();
        wheel.advance(3 * horizon, &mut expired);
        assert_eq!(expired.len(), 10, "one full sweep visits every bucket");
    }
}
