//! The job server: acceptor, connection threads, and a deterministic
//! worker pool over the bounded queue.
//!
//! # Threading model
//!
//! One acceptor thread owns the listener; each accepted connection gets
//! a thread that reads frames *sequentially* — a connection has at most
//! one request in flight, so per-connection response order is trivially
//! the request order, and concurrency comes from the number of
//! connections. Jobs are handed to a fixed pool of worker threads
//! through the bounded queue; the pool is sized like the carbon-runtime
//! executor (`CARBON_THREADS` or the machine's parallelism) so service
//! workers and the executor's own fan-out (inside `fig7`-style jobs)
//! follow one configuration.
//!
//! # Determinism
//!
//! Workers never contribute timing or identity to a response body:
//! results come from deterministic analyses, floats render via the
//! shortest-round-trip formatter, and object fields keep a fixed
//! insertion order. The same request body therefore yields the same
//! response bytes at any worker count, connection count, or arrival
//! order. (`busy` responses are the one exception — admission is
//! inherently load-dependent — and carry that dependence only in the
//! reported queue depth.)
//!
//! # Backpressure and deadlines
//!
//! Admission control is [`crate::queue::Bounded::try_push`]: a full
//! queue answers `busy` immediately instead of stalling the connection.
//! Each admitted job runs under a [`CancelToken`] scope whose deadline
//! is the request's `timeout_ms` (or the server default); solver
//! checkpoints inside carbon-spice turn an expired deadline into a
//! `timeout` response between Newton iterations or sweep points.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] is a graceful drain: stop accepting, let
//! connection threads finish their in-flight request, close the queue,
//! and join the workers — every admitted job is answered before the
//! pool exits.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_runtime::CancelToken;

use crate::cache::{FlightGuard, Lookup, ResponseCache, WaitOutcome};
use crate::job::{Job, JobError};
use crate::metrics::ServeMetrics;
use crate::protocol::{read_frame, write_frame, MAX_FRAME_LEN};
use crate::queue::Bounded;

/// How long a blocked socket read waits before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

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
    /// Worker threads executing jobs. Defaults to the carbon-runtime
    /// executor's thread count (`CARBON_THREADS` or machine
    /// parallelism).
    pub workers: usize,
    /// Bounded-queue depth: jobs admitted but not yet running. Requests
    /// arriving beyond this get `busy` responses.
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
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Requests bounced with a `busy` response.
    pub rejected_busy: u64,
    /// Jobs that hit their deadline and answered `timeout`.
    pub timed_out: u64,
    /// Jobs that answered `ok` — freshly solved or served from the
    /// response cache.
    pub completed: u64,
    /// Admitted jobs that failed in execution or in rendering a
    /// response over [`MAX_FRAME_LEN`] (`error` responses).
    pub errored: u64,
    /// Frames that were not valid request envelopes.
    pub protocol_errors: u64,
    /// Admitted jobs served from the response cache (directly or by
    /// waiting on an identical in-flight solve).
    pub cache_hits: u64,
    /// Admitted jobs a worker solved itself — counted whether the cache
    /// is enabled or not, so `cache_hits + cache_misses == accepted`
    /// always holds.
    pub cache_misses: u64,
    /// Jobs that coalesced onto another worker's identical in-flight
    /// solve instead of solving themselves.
    pub cache_coalesced: u64,
    /// `ok` responses stored into the cache.
    pub cache_insertions: u64,
    /// Bytes evicted from the cache to respect the byte budget.
    pub cache_evicted_bytes: u64,
}

/// An admitted job travelling from a connection thread to a worker.
struct Ticket {
    /// The request's `id`, echoed verbatim into the response.
    id: Json,
    job: Job,
    /// Canonical job key: FNV-1a-64 over the canonical (sorted-key)
    /// rendering of the request's `job` field — `id` and `timeout_ms`
    /// never participate, so identical decks from different clients
    /// share a cache entry.
    key: u64,
    timeout_ms: Option<u64>,
    enqueued: Instant,
    /// Rendezvous back to the connection thread. Capacity 1, so the
    /// worker's send never blocks even if the connection died.
    resp: SyncSender<Vec<u8>>,
}

/// A running job server. Dropping it performs the graceful drain.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<Bounded<Ticket>>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    config: ServerConfig,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and worker pool.
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
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(Bounded::new(config.queue_depth));
        let shutdown = Arc::new(AtomicBool::new(false));
        // Every instrument is pre-registered here, so the `stats`
        // snapshot has the same structure on a fresh server as on a
        // loaded one.
        let metrics = Arc::new(ServeMetrics::new(config.workers.max(1), config.queue_depth));
        let cache = (config.cache_bytes > 0).then(|| ResponseCache::new(config.cache_bytes));

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                let cache = cache.clone();
                std::thread::spawn(move || worker_loop(&queue, &metrics, cache.as_ref()))
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            let default_timeout_ms = config.default_timeout_ms;
            std::thread::spawn(move || {
                accept_loop(&listener, &queue, &shutdown, &metrics, default_timeout_ms);
            })
        };

        Ok(Self {
            addr,
            queue,
            shutdown,
            metrics,
            acceptor: Some(acceptor),
            workers,
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
        self.metrics.server_stats()
    }

    /// Graceful drain: stop accepting, finish in-flight requests,
    /// run every admitted job, join all threads. Returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.metrics.server_stats()
    }

    fn drain(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Only after every connection thread has stopped producing may
        // the queue close; workers then drain what was admitted.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue: &Arc<Bounded<Ticket>>,
    shutdown: &Arc<AtomicBool>,
    metrics: &Arc<ServeMetrics>,
    default_timeout_ms: Option<u64>,
) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Responses are single small frames; Nagle + delayed
                // ACK would add ~40 ms to every request.
                let _ = stream.set_nodelay(true);
                metrics.connections.incr();
                let queue = Arc::clone(queue);
                let shutdown = Arc::clone(shutdown);
                let metrics = Arc::clone(metrics);
                connections.push(std::thread::spawn(move || {
                    connection_loop(stream, &queue, &shutdown, &metrics, default_timeout_ms);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        // Reap finished connection threads so a long-lived server does
        // not accumulate handles.
        connections.retain(|h| !h.is_finished());
    }
    for h in connections {
        let _ = h.join();
    }
}

fn connection_loop(
    mut stream: TcpStream,
    queue: &Bounded<Ticket>,
    shutdown: &AtomicBool,
    metrics: &ServeMetrics,
    default_timeout_ms: Option<u64>,
) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    loop {
        let mut reader = UntilShutdown {
            stream: &mut stream,
            shutdown,
        };
        let body = match read_frame(&mut reader) {
            Ok(Some(body)) => body,
            Ok(None) | Err(_) => return,
        };
        let response = match parse_envelope(&body, default_timeout_ms) {
            // ping/stats are answered here, on the connection thread,
            // before admission — a full queue cannot starve them.
            Ok((id, job, _, _)) if job.is_fast_path() => {
                fast_path_response(&id, &job, queue, metrics)
            }
            Ok((id, job, key, timeout_ms)) => dispatch(id, job, key, timeout_ms, queue, metrics),
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

/// Answers the admission-free kinds (`ping`, `stats`) directly on the
/// connection thread. These responses intentionally carry timing
/// (uptime, latency aggregates) — they are operational introspection,
/// not simulation results, and are excluded from the byte-identity
/// contract the queued kinds keep.
fn fast_path_response(
    id: &Json,
    job: &Job,
    queue: &Bounded<Ticket>,
    metrics: &ServeMetrics,
) -> Vec<u8> {
    match job {
        Job::Ping => {
            metrics.ping.incr();
            let result = Json::obj()
                .push("version", env!("CARGO_PKG_VERSION"))
                .push("uptime_ms", metrics.uptime_ms());
            ok_response(id, "ping", &result)
        }
        Job::Stats => {
            metrics.stats.incr();
            let (uptime_ms, snapshot) = metrics.merged_snapshot(queue.depth());
            let mut result = Json::obj().push("uptime_ms", uptime_ms);
            // Splice the snapshot's fixed-order sections (counters,
            // gauges, histograms) into the result object.
            if let Json::Obj(sections) = snapshot.to_json() {
                for (key, value) in sections {
                    result = result.push(&key, value);
                }
            }
            ok_response(id, "stats", &result)
        }
        _ => unreachable!("fast_path_response called for a queued job kind"),
    }
}

/// Validates one request envelope into `(id, job, key, timeout_ms)`,
/// where `key` is the canonical content key of the `job` field;
/// failures come back as ready-to-send response bytes.
fn parse_envelope(
    body: &[u8],
    default_timeout_ms: Option<u64>,
) -> Result<(Json, Job, u64, Option<u64>), Vec<u8>> {
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
    let job = Job::from_json(job_field).map_err(|e| match e {
        JobError::Invalid { reason } => error_response(&id, "validate", &reason),
        other => error_response(&id, "validate", &other.to_string()),
    })?;
    // Content identity of the work itself: the `job` field only, in
    // canonical (sorted-key) form. `id` and `timeout_ms` are excluded —
    // an `ok` response is a pure function of the job body, so neither
    // may split the cache key space.
    let key = job_field.canonical_key();
    Ok((id, job, key, timeout_ms))
}

/// Admits the job (or answers `busy`) and waits for the worker's
/// response.
fn dispatch(
    id: Json,
    job: Job,
    key: u64,
    timeout_ms: Option<u64>,
    queue: &Bounded<Ticket>,
    metrics: &ServeMetrics,
) -> Vec<u8> {
    let (resp_tx, resp_rx) = std::sync::mpsc::sync_channel(1);
    let ticket = Ticket {
        id: id.clone(),
        job,
        key,
        timeout_ms,
        enqueued: Instant::now(),
        resp: resp_tx,
    };
    match queue.try_push(ticket) {
        Ok(depth) => {
            metrics.accepted.incr();
            metrics
                .queue_depth
                .set(i64::try_from(depth).unwrap_or(i64::MAX));
            resp_rx.recv().unwrap_or_else(|_| {
                error_response(&id, "exec", "worker dropped the job (server shutting down)")
            })
        }
        Err(_rejected) => {
            metrics.rejected_busy.incr();
            busy_response(&id, queue.depth(), queue.capacity())
        }
    }
}

/// How one admitted ticket resolved against the response cache.
enum CacheDecision {
    /// Serve these bytes (already id-spliced); no solve happens.
    Served(Vec<u8>),
    /// The waiter's deadline expired before its leader finished.
    WaitTimedOut,
    /// Solve it ourselves. The guard is `Some` when this worker leads a
    /// flight other workers may be waiting on, `None` when the cache is
    /// disabled or the job is not cacheable.
    Solve(Option<FlightGuard>),
}

/// Classifies one ticket against the cache: hit, coalesced wait, or
/// leader/solo solve. Loops because a leader may fail — the first
/// retrying waiter then becomes the new leader.
fn resolve_cache(
    cache: Option<&Arc<ResponseCache>>,
    ticket: &Ticket,
    metrics: &ServeMetrics,
) -> CacheDecision {
    let Some(cache) = cache.filter(|_| ticket.job.is_cacheable()) else {
        return CacheDecision::Solve(None);
    };
    let mut counted_coalesced = false;
    loop {
        match cache.begin(ticket.key) {
            Lookup::Hit(suffix) => {
                return CacheDecision::Served(splice_cached(&ticket.id, &suffix))
            }
            Lookup::Lead(guard) => return CacheDecision::Solve(Some(guard)),
            Lookup::Wait(flight) => {
                if !counted_coalesced {
                    metrics.cache_coalesced.incr();
                    counted_coalesced = true;
                }
                // The waiter's own deadline still applies while the
                // leader solves, mirroring the CancelToken a solving
                // worker would run under.
                let deadline = ticket
                    .timeout_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                match flight.wait(deadline) {
                    WaitOutcome::Ready(suffix) => {
                        return CacheDecision::Served(splice_cached(&ticket.id, &suffix))
                    }
                    WaitOutcome::TimedOut => return CacheDecision::WaitTimedOut,
                    WaitOutcome::LeaderFailed => {} // retry: maybe lead now
                }
            }
        }
    }
}

fn worker_loop(
    queue: &Bounded<Ticket>,
    metrics: &ServeMetrics,
    cache: Option<&Arc<ResponseCache>>,
) {
    while let Some(ticket) = queue.pop() {
        metrics
            .queue_depth
            .set(i64::try_from(queue.depth()).unwrap_or(i64::MAX));
        let queue_ns = u64::try_from(ticket.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let kind = ticket.job.kind();
        if let Some(hist) = metrics.queue_wait(kind) {
            hist.record(queue_ns);
        }
        let mut span = carbon_trace::span!("serve.request");
        if span.is_live() {
            span.record("kind", kind);
            span.record("queue_ns", queue_ns);
        }
        // Every admitted ticket is classified exactly once as a cache
        // hit (served from stored bytes or a coalesced flight) or a
        // miss (this worker produces the response itself, including
        // the waiter-deadline edge) — so hit + miss == accepted.
        let mut guard = match resolve_cache(cache, &ticket, metrics) {
            CacheDecision::Served(response) => {
                metrics.cache_hit.incr();
                metrics.completed.incr();
                metrics.cache_hit_latency.record(
                    u64::try_from(ticket.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
                if span.is_live() {
                    span.record("status", "ok");
                    span.record("cache", "hit");
                    span.record("resp_bytes", response.len());
                }
                drop(span);
                let _ = ticket.resp.send(response);
                continue;
            }
            CacheDecision::WaitTimedOut => {
                metrics.cache_miss.incr();
                metrics.timed_out.incr();
                let response = timeout_response(
                    &ticket.id,
                    kind,
                    "deadline expired while coalesced onto an identical in-flight job",
                );
                if let Some(hist) = metrics.latency(kind) {
                    hist.record(
                        u64::try_from(ticket.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                if span.is_live() {
                    span.record("status", "timeout");
                    span.record("resp_bytes", response.len());
                }
                drop(span);
                let _ = ticket.resp.send(response);
                continue;
            }
            CacheDecision::Solve(guard) => {
                metrics.cache_miss.incr();
                guard
            }
        };
        let token = match ticket.timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let exec_started = Instant::now();
        let outcome = carbon_runtime::cancel::scope(&token, || ticket.job.run());
        metrics
            .worker_busy_ns
            .add(u64::try_from(exec_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let rendered = outcome.map(|result| ok_response(&ticket.id, kind, &result));
        let (status, response) = match rendered {
            // No client could read a frame this large: the result
            // becomes an error, and its leader fails the flight below.
            Ok(response) if response.len() > MAX_FRAME_LEN => {
                metrics.errored.incr();
                let message = format!(
                    "response of {} bytes exceeds the maximum frame length {MAX_FRAME_LEN}",
                    response.len()
                );
                ("error", error_response(&ticket.id, "render", &message))
            }
            Ok(response) => {
                metrics.completed.incr();
                // Only `ok` responses enter the cache: the stored value
                // is everything after the `{"id":<id>` prefix, so a
                // later hit splices its own id in front and is
                // byte-identical to this solve by construction.
                if let Some(guard) = guard.take() {
                    let prefix_len = 6 + ticket.id.render().len();
                    let insert = guard.complete_ok(response[prefix_len..].to_vec());
                    if insert.inserted {
                        metrics.cache_insert.incr();
                    }
                    if insert.evicted_bytes > 0 {
                        metrics.cache_evict_bytes.add(insert.evicted_bytes);
                    }
                    if let Some(cache) = cache {
                        metrics
                            .cache_bytes
                            .set(i64::try_from(cache.bytes()).unwrap_or(i64::MAX));
                    }
                }
                ("ok", response)
            }
            Err(JobError::Cancelled { message }) => {
                metrics.timed_out.incr();
                ("timeout", timeout_response(&ticket.id, kind, &message))
            }
            Err(e) => {
                metrics.errored.incr();
                ("error", error_response(&ticket.id, "exec", &e.to_string()))
            }
        };
        // A failed leader (timeout/error) publishes failure so waiters
        // retry; nothing is cached.
        if let Some(guard) = guard.take() {
            guard.fail();
        }
        // End-to-end latency: admission to response, queue wait
        // included — what a client experiences. Only misses land here;
        // hits go to `serve.cache.hit_latency_ns` so cached repeats
        // cannot skew the solve-latency baselines.
        if let Some(hist) = metrics.latency(kind) {
            hist.record(u64::try_from(ticket.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        if span.is_live() {
            span.record("status", status);
            span.record("resp_bytes", response.len());
        }
        drop(span);
        // The connection may have vanished; the response is then simply
        // dropped (capacity-1 channel: never blocks).
        let _ = ticket.resp.send(response);
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

fn ok_response(id: &Json, kind: &str, result: &Json) -> Vec<u8> {
    Json::obj()
        .push("id", id.clone())
        .push("status", "ok")
        .push("kind", kind)
        .push("result", result.clone())
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

/// A socket with a short read timeout, read as if it blocked: each
/// timeout re-checks the shutdown flag, and once the flag is set the
/// timeout ends the read as an error. [`read_frame`] over it waits for
/// a whole frame unless the server is shutting down.
struct UntilShutdown<'a> {
    stream: &'a mut TcpStream,
    shutdown: &'a AtomicBool,
}

impl Read for UntilShutdown<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && !self.shutdown.load(Ordering::SeqCst) => {}
                other => return other,
            }
        }
    }
}
