//! The job server: an acceptor, one thread per connection, and a
//! counting gate that caps how many jobs run at once.
//!
//! # Threading model
//!
//! One acceptor thread owns the listener and blocks in `accept`; each
//! accepted connection gets a thread that reads frames *sequentially* —
//! a connection has at most one request in flight, so per-connection
//! response order is trivially the request order, and concurrency comes
//! from the number of connections. The connection thread parses the
//! envelope and answers `ping` and `stats` at once. For every other
//! kind it computes the job's canonical key and probes the response
//! cache: a resident body is answered right there, with no validation
//! and no slot. Every other job is validated and then run on the same
//! thread once it holds one of the gate's slots, so a request stays on
//! one thread from read to write. The slots number
//! [`ServerConfig::workers`], which defaults to the carbon-runtime
//! executor's thread count (`CARBON_THREADS` or the machine's
//! parallelism). While the jobs holding slots are at least as
//! many as the executor's threads, they alone keep every core busy, and
//! a job granted its slot then runs under
//! [`carbon_runtime::executor::as_worker`]: the executor calls inside it
//! (econ cells, `fig7` chunks, the `fig5` ladder, chunked sweeps) run
//! inline on its connection thread instead of spawning threads that
//! contend with the other jobs. A job granted its slot with cores to
//! spare, such as a lone request on an idle server, fans out onto them.
//!
//! # Determinism
//!
//! Threads never contribute timing or identity to a response body:
//! results come from deterministic analyses, floats render via the
//! shortest-round-trip formatter, and object fields keep a fixed
//! insertion order. The same request body therefore yields the same
//! response bytes at any slot count, connection count, or arrival
//! order. (`busy` responses are the one exception — admission is
//! inherently load-dependent — and carry that dependence only in the
//! reported queue depth.)
//!
//! # Backpressure and deadlines
//!
//! A job that needs a slot gets one at once when one is free and
//! nobody is waiting. Otherwise it waits, and waiters get slots in
//! arrival order; when [`ServerConfig::queue_depth`] requests already
//! wait, it is answered `busy` at once instead of stalling the
//! connection. Neither a cache hit nor `ping` or `stats` needs a slot,
//! so they are answered even when the wait list is full. Each job runs
//! under a [`CancelToken`] scope whose deadline is the request's
//! `timeout_ms` (or the server default), counted from the slot grant;
//! solver checkpoints inside carbon-spice turn an expired deadline into
//! a `timeout` response between Newton iterations or sweep points.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] is a graceful drain: it sets the shutdown flag
//! and wakes the acceptor's blocked `accept` by connecting to the
//! listener once. The acceptor checks the flag whenever `accept`
//! returns, drops that wake connection uncounted, shuts down the read
//! side of every live connection, and joins their threads. A thread
//! blocked in a read between requests sees the end of the stream at
//! once; one in the middle of a request finishes it and writes the
//! response first, so every admitted job is answered.

use std::collections::VecDeque;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_runtime::CancelToken;
use carbon_trace::Span;

use crate::cache::{Lookup, ResponseCache, WaitOutcome};
use crate::job::{Job, JobError};
use crate::metrics::ServeMetrics;
use crate::protocol::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};

/// Default response-cache byte budget: 64 MiB. Typical figure-job
/// responses are a few kilobytes, so the default holds on the order of
/// ten thousand distinct decks before evicting.
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Smallest enabled cache the server accepts. Below this the 16-way
/// sharding leaves shards too small to hold even one typical response,
/// which silently degrades to a cache that never stores anything.
pub const MIN_CACHE_BYTES: u64 = 4096;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Slots: how many jobs run at once, each on the connection thread
    /// that read it. Defaults to the carbon-runtime executor's thread
    /// count (`CARBON_THREADS` or machine parallelism). A job granted
    /// its slot while the jobs holding slots, its own included, fill
    /// the executor's threads runs its executor calls inline; one
    /// granted with threads to spare fans out.
    pub workers: usize,
    /// Wait-list length: requests admitted but still waiting for a
    /// slot. A request that needs a slot and finds this many already
    /// waiting gets a `busy` response.
    pub queue_depth: usize,
    /// Deadline applied to jobs whose request carries no `timeout_ms`.
    /// `None` means no default deadline.
    pub default_timeout_ms: Option<u64>,
    /// Byte budget of the content-addressed response cache.
    /// `0` disables caching (and single-flight deduplication) entirely;
    /// any other value must be at least [`MIN_CACHE_BYTES`]. Defaults
    /// to [`DEFAULT_CACHE_BYTES`].
    pub cache_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: carbon_runtime::Executor::new().threads(),
            queue_depth: 64,
            default_timeout_ms: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

/// Monotonic counters describing a server's lifetime so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Jobs admitted: answered by the connection thread's cache probe,
    /// or validated and given a slot or a place on the wait list.
    pub accepted: u64,
    /// Requests that needed a slot and found the wait list full,
    /// bounced with a `busy` response.
    pub rejected_busy: u64,
    /// Jobs that hit their deadline and answered `timeout`.
    pub timed_out: u64,
    /// Jobs that answered `ok` — freshly solved or served from the
    /// response cache.
    pub completed: u64,
    /// Admitted jobs that failed in execution or in rendering a
    /// response over [`MAX_FRAME_LEN`] (`error` responses).
    pub errored: u64,
    /// Frames that were not valid request envelopes, and frame headers
    /// over [`MAX_FRAME_LEN`] (each answered once before its
    /// connection closes).
    pub protocol_errors: u64,
    /// Admitted jobs served from the response cache: found resident
    /// by the cache probe or once their slot was granted, or served by
    /// waiting on an identical in-flight solve.
    pub cache_hits: u64,
    /// Admitted jobs solved on their own connection thread — counted
    /// whether the cache is enabled or not, so
    /// `cache_hits + cache_misses == accepted` always holds.
    pub cache_misses: u64,
    /// Jobs that coalesced onto another request's identical in-flight
    /// solve instead of solving themselves.
    pub cache_coalesced: u64,
    /// `ok` responses stored into the cache.
    pub cache_insertions: u64,
    /// Bytes evicted from the cache to respect the byte budget.
    pub cache_evicted_bytes: u64,
}

/// What the acceptor and every connection thread share.
struct Shared {
    gate: Gate,
    cache: Option<Arc<ResponseCache>>,
    metrics: ServeMetrics,
    default_timeout_ms: Option<u64>,
    /// The executor's thread count, which [`run_job`] compares with the
    /// jobs holding slots.
    threads: usize,
    /// Set by the drain before it wakes the acceptor; ends the accept
    /// loop.
    shutdown: AtomicBool,
}

impl Shared {
    fn new(config: &ServerConfig) -> Self {
        let slots = config.workers.max(1);
        Self {
            gate: Gate::new(slots, config.queue_depth),
            cache: (config.cache_bytes > 0).then(|| ResponseCache::new(config.cache_bytes)),
            // Every instrument is pre-registered here, so the `stats`
            // snapshot has the same structure on a fresh server as on a
            // loaded one.
            metrics: ServeMetrics::new(slots, config.queue_depth),
            default_timeout_ms: config.default_timeout_ms,
            threads: carbon_runtime::Executor::new().threads(),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// A running job server. Dropping it performs the graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding, and rejects a
    /// `cache_bytes` between `1` and [`MIN_CACHE_BYTES`] (a budget
    /// that small silently never stores anything; use `0` to disable
    /// caching).
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Self> {
        if config.cache_bytes != 0 && config.cache_bytes < MIN_CACHE_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "config.cache_bytes must be 0 (cache disabled) or at least \
                     {MIN_CACHE_BYTES}, got {}",
                    config.cache_bytes
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&config));
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            config,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.metrics.server_stats()
    }

    /// Graceful drain: stop accepting, finish in-flight requests, join
    /// all threads. Returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.shared.metrics.server_stats()
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        // The acceptor blocks in `accept` and checks the flag whenever
        // it returns, so one connection wakes it. A connect can fail,
        // for instance with no file descriptor left; then retry until
        // the acceptor has returned on its own.
        let wake = wake_address(self.addr);
        while !acceptor.is_finished() && TcpStream::connect(wake).is_err() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = acceptor.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Where the drain connects to wake the acceptor: the bound address,
/// with an unspecified IP (`0.0.0.0` or `::`) replaced by loopback.
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accepts connections until the drain, then ends every connection's
/// reads and joins its thread.
///
/// Each connection thread holds the only strong reference to its
/// socket, so a closed connection's socket closes when its thread ends.
/// The acceptor keeps a [`Weak`] beside each handle, which the drain
/// upgrades to reach a thread blocked in a read.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<(Weak<TcpStream>, JoinHandle<()>)> = Vec::new();
    loop {
        let accepted = listener.accept();
        // The drain sets the flag, then connects to wake this `accept`:
        // any return ends the loop, and the wake connection is dropped
        // uncounted.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // Responses are single small frames; Nagle + delayed
                // ACK would add ~40 ms to every request.
                let _ = stream.set_nodelay(true);
                shared.metrics.connections.incr();
                let stream = Arc::new(stream);
                let socket = Arc::downgrade(&stream);
                let thread = {
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || connection_loop(&stream, &shared))
                };
                // Reap finished connection threads so a long-lived
                // server does not accumulate handles.
                connections.retain(|(_, thread)| !thread.is_finished());
                connections.push((socket, thread));
            }
            // A failed accept (no file descriptor left, a peer that
            // reset first): back off and retry. Only the drain ends the
            // loop.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for (socket, _) in &connections {
        if let Some(stream) = socket.upgrade() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    for (_, thread) in connections {
        let _ = thread.join();
    }
}

/// Serves one connection's requests in order until the peer closes,
/// a read or write fails, or the drain shuts down the read side.
fn connection_loop(mut stream: &TcpStream, shared: &Shared) {
    let metrics = &shared.metrics;
    loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            // The declared body is never read, so the stream cannot be
            // resynchronised: answer once, then close.
            Err(e @ FrameError::TooLarge { .. }) => {
                metrics.protocol_errors.incr();
                let response = error_response(&Json::Null, "parse", &e.to_string());
                let _ = write_frame(&mut stream, &response);
                let _ = stream.shutdown(Shutdown::Write);
                return;
            }
            Ok(None) | Err(FrameError::Io(_)) => return,
        };
        let received = Instant::now();
        let request = parse_envelope(&body, shared.cache.as_deref(), shared.default_timeout_ms);
        let response = match request {
            // A resident body is admitted and answered here, with no
            // slot, so a full wait list cannot bounce it.
            Ok(Request::Hit { response, span }) => {
                metrics.accepted.incr();
                count_hit(metrics, received, span, &response);
                response
            }
            // ping/stats are answered before admission — a full wait
            // list cannot starve them.
            Ok(Request::Ping { id }) => ping_response(&id, metrics),
            Ok(Request::Stats { id }) => stats_response(&id, shared),
            Ok(Request::Job {
                id,
                job,
                key,
                timeout_ms,
            }) => {
                let admitted = Instant::now();
                match shared.gate.acquire(|| metrics.accepted.incr()) {
                    Ok(slot) => run_admitted(&id, &job, key, timeout_ms, admitted, &slot, shared),
                    Err(waiting) => {
                        metrics.rejected_busy.incr();
                        busy_response(&id, waiting, shared.gate.depth)
                    }
                }
            }
            Err(resp) => {
                metrics.protocol_errors.incr();
                resp
            }
        };
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// The counting gate that caps how many jobs run at once: at most
/// `slots` jobs hold a slot, and at most `depth` more wait for one.
/// A released slot passes straight to the longest waiter, so waiters
/// get slots in arrival order and each grant wakes one thread.
struct Gate {
    state: Mutex<GateState>,
    slots: usize,
    depth: usize,
}

struct GateState {
    /// Slots held. Someone waits only while all `slots` are held.
    running: usize,
    /// Requests waiting for a slot, longest first.
    waiters: VecDeque<Arc<Waiter>>,
}

/// A request on the wait list, parked until a slot is handed to it.
struct Waiter {
    thread: Thread,
    /// The slots held at the hand-over, this one included; 0 before.
    /// The releasing slot stores it (`Release`) before unparking the
    /// waiter, which loads it (`Acquire`) each time it wakes.
    granted: AtomicUsize,
}

/// One held slot of a [`Gate`]. It goes back when dropped, on return
/// and on unwind.
struct Slot<'a> {
    gate: &'a Gate,
    /// The slots held when this one was granted, this one included.
    running: usize,
}

impl Gate {
    fn new(slots: usize, depth: usize) -> Self {
        Self {
            state: Mutex::new(GateState {
                running: 0,
                waiters: VecDeque::new(),
            }),
            slots,
            depth,
        }
    }

    fn state(&self) -> MutexGuard<'_, GateState> {
        // No code that can panic runs between two updates of the state,
        // so a poisoned lock still guards whole counts.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Requests waiting for a slot.
    fn waiting(&self) -> usize {
        self.state().waiters.len()
    }

    /// Admits a request and blocks until it holds a slot. `admitted`
    /// runs once the request is admitted, before any wait.
    ///
    /// # Errors
    ///
    /// The number waiting, when no slot is free and `depth` requests
    /// already wait: the request is not admitted.
    fn acquire(&self, admitted: impl FnOnce()) -> Result<Slot<'_>, usize> {
        let mut state = self.state();
        if state.running < self.slots {
            admitted();
            state.running += 1;
            return Ok(Slot {
                gate: self,
                running: state.running,
            });
        }
        if state.waiters.len() >= self.depth {
            return Err(state.waiters.len());
        }
        admitted();
        let waiter = Arc::new(Waiter {
            thread: std::thread::current(),
            granted: AtomicUsize::new(0),
        });
        state.waiters.push_back(Arc::clone(&waiter));
        drop(state);
        loop {
            match waiter.granted.load(Ordering::Acquire) {
                0 => std::thread::park(),
                running => {
                    return Ok(Slot {
                        gate: self,
                        running,
                    })
                }
            }
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state();
        let Some(next) = state.waiters.pop_front() else {
            state.running -= 1;
            return;
        };
        next.granted.store(state.running, Ordering::Release);
        drop(state);
        next.thread.unpark();
    }
}

/// The `ping` response: crate version and server uptime. Like `stats`,
/// it carries timing on purpose — operational introspection, not a
/// simulation result — and is excluded from the byte-identity contract
/// the queued kinds keep.
fn ping_response(id: &Json, metrics: &ServeMetrics) -> Vec<u8> {
    metrics.ping.incr();
    let result = Json::obj()
        .push("version", env!("CARGO_PKG_VERSION"))
        .push("uptime_ms", metrics.uptime_ms());
    ok_response(id, "ping", result)
}

/// The `stats` response: the server's registry merged with the
/// process-global one, quantiles included.
fn stats_response(id: &Json, shared: &Shared) -> Vec<u8> {
    let metrics = &shared.metrics;
    metrics.stats.incr();
    let (uptime_ms, snapshot) = metrics.merged_snapshot(shared.gate.waiting());
    let mut result = Json::obj().push("uptime_ms", uptime_ms);
    // Splice the snapshot's fixed-order sections (counters, gauges,
    // histograms) into the result object.
    if let Json::Obj(sections) = snapshot.to_json() {
        for (key, value) in sections {
            result = result.push(&key, value);
        }
    }
    ok_response(id, "stats", result)
}

/// What one well-formed request envelope asks of the server.
enum Request {
    /// A `ping`: liveness, answered before the cache probe.
    Ping { id: Json },
    /// A `stats`: the metrics snapshot, answered before the cache
    /// probe.
    Stats { id: Json },
    /// The job body is resident in the cache: its stored response,
    /// spliced with this request's id, and the request's open
    /// `serve.request` span.
    Hit { response: Vec<u8>, span: Span },
    /// A validated job, keyed by the canonical content key of its
    /// `job` field.
    Job {
        id: Json,
        job: Box<Job>,
        key: u64,
        timeout_ms: Option<u64>,
    },
}

/// Parses one request envelope, picks out `ping` and `stats` by their
/// `job.kind`, and probes the cache with any other job's key; a miss is
/// then validated. Failures come back as ready-to-send response bytes.
///
/// A hit skips `Job::from_json`: the cache stores only `ok` responses
/// of bodies that passed it, under the canonical key of that same body.
fn parse_envelope(
    body: &[u8],
    cache: Option<&ResponseCache>,
    default_timeout_ms: Option<u64>,
) -> Result<Request, Vec<u8>> {
    let text = std::str::from_utf8(body)
        .map_err(|_| error_response(&Json::Null, "parse", "request is not UTF-8"))?;
    let envelope =
        Json::parse(text).map_err(|e| error_response(&Json::Null, "parse", &e.to_string()))?;
    let id = envelope
        .get("id")
        .cloned()
        .ok_or_else(|| error_response(&Json::Null, "validate", "request.id is required"))?;
    if matches!(id, Json::Arr(_) | Json::Obj(_)) {
        return Err(error_response(
            &Json::Null,
            "validate",
            "request.id must be a scalar",
        ));
    }
    let timeout_ms = match envelope.get("timeout_ms") {
        None | Some(Json::Null) => default_timeout_ms,
        Some(v) => match v.as_u64() {
            Some(ms) if ms > 0 => Some(ms),
            _ => {
                return Err(error_response(
                    &id,
                    "validate",
                    "request.timeout_ms must be a positive integer",
                ))
            }
        },
    };
    let job_field = envelope
        .get("job")
        .ok_or_else(|| error_response(&id, "validate", "request.job is required"))?;
    match job_field.get("kind").and_then(Json::as_str) {
        Some("ping") => return Ok(Request::Ping { id }),
        Some("stats") => return Ok(Request::Stats { id }),
        _ => {}
    }
    // Content identity of the work itself: the `job` field only, in
    // canonical (sorted-key) form. `id` and `timeout_ms` are excluded —
    // an `ok` response is a pure function of the job body, so neither
    // may split the cache key space.
    let key = job_field.canonical_key();
    if let Some(suffix) = cache.and_then(|cache| cache.get(key)) {
        let mut span = carbon_trace::span!("serve.request");
        if span.is_live() {
            let kind = job_field.get("kind").and_then(Json::as_str);
            span.record("kind", kind.unwrap_or_default());
        }
        return Ok(Request::Hit {
            response: splice_cached(&id, &suffix),
            span,
        });
    }
    let job = Job::from_json(job_field).map_err(|e| match e {
        JobError::Invalid { reason } => error_response(&id, "validate", &reason),
        other => error_response(&id, "validate", &other.to_string()),
    })?;
    Ok(Request::Job {
        id,
        job: Box::new(job),
        key,
        timeout_ms,
    })
}

/// Answers one admitted job with its slot held: from the cache, from an
/// identical in-flight solve it waits on, or by solving it here.
/// `admitted` is when the gate admitted the request.
fn run_admitted(
    id: &Json,
    job: &Job,
    key: u64,
    timeout_ms: Option<u64>,
    admitted: Instant,
    slot: &Slot<'_>,
    shared: &Shared,
) -> Vec<u8> {
    let metrics = &shared.metrics;
    let kind = job.kind();
    let queue_ns = nanos_since(admitted);
    if let Some(hist) = metrics.queue_wait(kind) {
        hist.record(queue_ns);
    }
    let mut span = carbon_trace::span!("serve.request");
    if span.is_live() {
        span.record("kind", kind);
        span.record("queue_ns", queue_ns);
    }
    // Every admitted job is classified exactly once as a cache hit
    // (served from stored bytes or a coalesced flight) or a miss (this
    // thread produces the response itself, including the waiter-deadline
    // edge) — so hit + miss == accepted.
    let mut guard = None;
    let mut waited_out = false;
    if let Some(cache) = &shared.cache {
        let mut coalesced = false;
        // Loops because a leader may fail: the first retrying waiter
        // then becomes the new leader.
        loop {
            let suffix = match cache.begin(key) {
                Lookup::Hit(suffix) => suffix,
                Lookup::Lead(lead) => {
                    guard = Some(lead);
                    break;
                }
                Lookup::Wait(flight) => {
                    if !coalesced {
                        metrics.cache_coalesced.incr();
                        coalesced = true;
                    }
                    // The waiter's own deadline still applies while the
                    // leader solves, mirroring the CancelToken a solving
                    // job would run under.
                    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                    match flight.wait(deadline) {
                        WaitOutcome::Ready(suffix) => suffix,
                        WaitOutcome::TimedOut => {
                            waited_out = true;
                            break;
                        }
                        WaitOutcome::LeaderFailed => continue,
                    }
                }
            };
            let response = splice_cached(id, &suffix);
            count_hit(metrics, admitted, span, &response);
            return response;
        }
    }
    metrics.cache_miss.incr();
    let (status, response) = if waited_out {
        metrics.timed_out.incr();
        let message = "deadline expired while coalesced onto an identical in-flight job";
        ("timeout", timeout_response(id, kind, message))
    } else {
        let token = match timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let exec_started = Instant::now();
        let outcome =
            carbon_runtime::cancel::scope(&token, || run_job(job, slot.running, shared.threads));
        metrics.worker_busy_ns.add(nanos_since(exec_started));
        match outcome.map(|result| ok_response(id, kind, result)) {
            // No client could read a frame this large: the result
            // becomes an error, and its leader fails the flight below.
            Ok(response) if response.len() > MAX_FRAME_LEN => {
                metrics.errored.incr();
                let message = format!(
                    "response of {} bytes exceeds the maximum frame length {MAX_FRAME_LEN}",
                    response.len()
                );
                ("error", error_response(id, "render", &message))
            }
            Ok(response) => {
                metrics.completed.incr();
                // Only `ok` responses enter the cache: the stored value
                // is everything after the `{"id":<id>` prefix, so a
                // later hit splices its own id in front and is
                // byte-identical to this solve by construction.
                if let Some(guard) = guard.take() {
                    let prefix_len = 6 + id.render().len();
                    let insert = guard.complete_ok(response[prefix_len..].to_vec());
                    if insert.inserted {
                        metrics.cache_insert.incr();
                    }
                    if insert.evicted_bytes > 0 {
                        metrics.cache_evict_bytes.add(insert.evicted_bytes);
                    }
                    if let Some(cache) = &shared.cache {
                        metrics
                            .cache_bytes
                            .set(i64::try_from(cache.bytes()).unwrap_or(i64::MAX));
                    }
                }
                ("ok", response)
            }
            Err(JobError::Cancelled { message }) => {
                metrics.timed_out.incr();
                ("timeout", timeout_response(id, kind, &message))
            }
            Err(e) => {
                metrics.errored.incr();
                ("error", error_response(id, "exec", &e.to_string()))
            }
        }
    };
    // A failed leader (timeout/error) publishes failure so waiters
    // retry; nothing is cached.
    if let Some(guard) = guard {
        guard.fail();
    }
    // End-to-end latency: admission to response, the wait for a slot
    // included — what a client experiences. Only misses land here;
    // hits go to `serve.cache.hit_latency_ns` so cached repeats cannot
    // skew the solve-latency baselines.
    if let Some(hist) = metrics.latency(kind) {
        hist.record(nanos_since(admitted));
    }
    if span.is_live() {
        span.record("status", status);
        span.record("resp_bytes", response.len());
    }
    response
}

/// Runs one job on the calling thread. `running` counts the slots held
/// when this job's slot was granted, its own included. While they are
/// at least as many as the executor's `threads`, every core already has
/// a job, and a fan-out would only contend with them: the job runs
/// under [`carbon_runtime::executor::as_worker`], its executor calls
/// inline on this thread. A job granted its slot with cores to spare
/// fans out onto them. Either way the bytes are the same.
fn run_job(job: &Job, running: usize, threads: usize) -> Result<Json, JobError> {
    if running >= threads {
        carbon_runtime::executor::as_worker(|| job.run())
    } else {
        job.run()
    }
}

/// Nanoseconds from `since` to now.
fn nanos_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts one cache hit and closes its `serve.request` span. The hit
/// latency runs from `since` to now: from the frame read for a hit
/// found by the cache probe, from admission for one found with a slot
/// held.
fn count_hit(metrics: &ServeMetrics, since: Instant, mut span: Span, response: &[u8]) {
    metrics.cache_hit.incr();
    metrics.completed.incr();
    metrics.cache_hit_latency.record(nanos_since(since));
    if span.is_live() {
        span.record("status", "ok");
        span.record("cache", "hit");
        span.record("resp_bytes", response.len());
    }
}

/// Reassembles a full response from a cached suffix: `{"id":` + the
/// request's own id + the stored bytes (which begin at the comma after
/// the leader's id and run to the closing brace).
fn splice_cached(id: &Json, suffix: &[u8]) -> Vec<u8> {
    let id_rendered = id.render();
    let mut out = Vec::with_capacity(6 + id_rendered.len() + suffix.len());
    out.extend_from_slice(b"{\"id\":");
    out.extend_from_slice(id_rendered.as_bytes());
    out.extend_from_slice(suffix);
    out
}

fn ok_response(id: &Json, kind: &str, result: Json) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "ok")
        .push("kind", kind)
        .push("result", result)
        .render()
        .into_bytes()
}

fn error_response(id: &Json, stage: &str, message: &str) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "error")
        .push("stage", stage)
        .push("message", message)
        .render()
        .into_bytes()
}

fn timeout_response(id: &Json, kind: &str, message: &str) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "timeout")
        .push("kind", kind)
        .push("message", message)
        .render()
        .into_bytes()
}

fn busy_response(id: &Json, depth: usize, capacity: usize) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "busy")
        .push("queue_depth", depth)
        .push("queue_capacity", capacity)
        .push("message", "queue full, retry later")
        .render()
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::mpsc;

    use carbon_trace::collect::Collector;
    use carbon_trace::{Event, Value};

    /// Sets `CARBON_THREADS` while it lives, and puts the previous value
    /// back when dropped, on return and on unwind.
    struct ThreadsVar(Option<std::ffi::OsString>);

    impl ThreadsVar {
        fn set(threads: &str) -> Self {
            let previous = std::env::var_os("CARBON_THREADS");
            std::env::set_var("CARBON_THREADS", threads);
            Self(previous)
        }
    }

    impl Drop for ThreadsVar {
        fn drop(&mut self) {
            match self.0.take() {
                Some(previous) => std::env::set_var("CARBON_THREADS", previous),
                None => std::env::remove_var("CARBON_THREADS"),
            }
        }
    }

    /// Spins until `gate` has `n` waiters.
    fn wait_for_waiters(gate: &Gate, n: usize) {
        while gate.waiting() < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn the_drain_wakes_an_unspecified_bind_address_on_loopback() {
        let wake = |addr: &str| wake_address(addr.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7000"), "127.0.0.1:7000");
        assert_eq!(wake("[::]:7000"), "[::1]:7000");
        assert_eq!(wake("127.0.0.1:7000"), "127.0.0.1:7000");
        assert_eq!(wake("10.1.2.3:7000"), "10.1.2.3:7000");
    }

    #[test]
    fn a_full_wait_list_answers_at_once() {
        let gate = Arc::new(Gate::new(1, 1));
        let held = gate.acquire(|| {}).unwrap();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.acquire(|| {}).map(|slot| slot.running).ok())
        };
        wait_for_waiters(&gate, 1);
        // Asked on a thread of its own, so a request that blocked fails
        // the test instead of hanging it.
        let (answered, answer) = mpsc::channel();
        let bounced = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || answered.send(gate.acquire(|| {}).err()).unwrap())
        };
        let answer = answer.recv_timeout(Duration::from_secs(1));
        assert_eq!(answer, Ok(Some(1)), "answered at once, one waiting");
        bounced.join().unwrap();
        drop(held);
        assert_eq!(waiter.join().unwrap(), Some(1), "the waiter got the slot");
    }

    #[test]
    fn waiters_get_slots_in_arrival_order() {
        let gate = Arc::new(Gate::new(1, 8));
        let held = gate.acquire(|| {}).unwrap();
        let (granted, order) = mpsc::channel();
        let waiters: Vec<_> = (0..6)
            .map(|arrival| {
                let waiter = {
                    let gate = Arc::clone(&gate);
                    let granted = granted.clone();
                    std::thread::spawn(move || {
                        let _slot = gate.acquire(|| {}).unwrap();
                        granted.send(arrival).unwrap();
                    })
                };
                // Each waiter is on the list before the next one arrives.
                wait_for_waiters(&gate, arrival + 1);
                waiter
            })
            .collect();
        drop(held);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(order.try_iter().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_panicking_job_gives_its_slot_back() {
        // One slot and no wait list: a slot that never came back would
        // bounce the next job at once.
        let gate = Gate::new(1, 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = gate.acquire(|| {}).unwrap();
            panic!("the job panicked");
        }));
        assert!(unwound.is_err());
        let next = gate.acquire(|| {}).map(|slot| slot.running);
        assert_eq!(next.ok(), Some(1), "the next job gets the slot");
    }

    /// A 24-cell `econ_campaign` job and its canonical key.
    fn econ_job() -> (Job, u64) {
        let body = Json::parse(
            "{\"kind\":\"econ_campaign\",\"nodes\":[\"cnt90\",\"cnt28\"],\
             \"areas_cm2\":[0.5,1.0],\"d0\":[0.1,0.3],\"purities\":[0.95,0.99,0.999],\
             \"devices\":256,\"seed\":7}",
        )
        .unwrap();
        (Job::from_json(&body).unwrap(), body.canonical_key())
    }

    #[test]
    fn a_job_runs_its_executor_work_on_its_worker_while_the_pool_fills_the_cores() {
        let collector = Collector::new();
        let bodies = {
            // An executor that fans out: at one thread every run is
            // inline whatever the server decides. `Executor::new` reads
            // the variable when each job runs and when `Shared` is
            // built. This binary's other tests read it too (the `job`
            // tests and the `serve_load` servers build executors);
            // their bytes are the same at any thread count, so they
            // tolerate 4. No other test here sets it.
            let _threads = ThreadsVar::set("4");
            carbon_trace::with_subscriber(collector.clone(), || {
                // Four slots, one per executor thread. The first job is
                // granted its slot while three other jobs hold theirs,
                // so the four fill the executor's threads; the second
                // starts beside two.
                [3, 2].map(|others| {
                    let shared = Shared::new(&ServerConfig {
                        workers: 4,
                        queue_depth: 1,
                        default_timeout_ms: None,
                        cache_bytes: 0,
                    });
                    let _held: Vec<Slot<'_>> = (0..others)
                        .map(|_| shared.gate.acquire(|| {}).unwrap())
                        .collect();
                    let slot = shared.gate.acquire(|| {}).unwrap();
                    let (job, key) = econ_job();
                    run_admitted(
                        &Json::Num(1.0),
                        &job,
                        key,
                        None,
                        Instant::now(),
                        &slot,
                        &shared,
                    )
                })
            })
        };
        let first = String::from_utf8_lossy(&bodies[0]);
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        assert!(
            bodies.iter().all(|b| *b == bodies[0]),
            "inline and fanned-out bytes differ"
        );

        assert_eq!(
            collector.span_field("runtime.run_chunked", "inline"),
            [true, false].map(Value::Bool)
        );
        assert_eq!(
            collector.span_field("runtime.run_chunked", "workers"),
            [1, 4].map(Value::U64)
        );
        // The inline run's chunks descend from its request's span. The
        // fanned-out run's caller ran a share of the chunks beside its
        // helpers, which report to no subscriber here; how large a
        // share is a race, so only its count is checked.
        let span_id = |e: &Event| match e {
            Event::Span { id, .. } => *id,
            Event::Instant { .. } => unreachable!("spans() returns spans"),
        };
        let parents: BTreeMap<u64, u64> = collector
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    id,
                    parent: Some(parent),
                    ..
                } => Some((*id, *parent)),
                _ => None,
            })
            .collect();
        let chunks: Vec<u64> = collector
            .spans("runtime.chunk")
            .iter()
            .map(span_id)
            .collect();
        let chunks_under = |request: u64| {
            chunks
                .iter()
                .filter(|&chunk| {
                    std::iter::successors(parents.get(chunk), |p| parents.get(p))
                        .any(|&a| a == request)
                })
                .count()
        };
        let per_request: Vec<usize> = collector
            .spans("serve.request")
            .iter()
            .map(|request| chunks_under(span_id(request)))
            .collect();
        assert_eq!(per_request[0], 24, "one chunk per econ cell");
        assert_eq!(chunks.len(), 24 + per_request[1]);
    }
}
