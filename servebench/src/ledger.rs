//! The traced run: where one workload's time goes, layer by layer.
//!
//! It replays a job list twice, in alternating segments so that a
//! stretch of host contention falls on both replays alike:
//!
//! - **in-process**, on one thread without a server, timing each `pub`
//!   call a request crosses (`Json::parse`, `Json::canonical_key`,
//!   `Job::from_json`, `ResponseCache::begin`, `Job::run`,
//!   `Json::render` of the ok envelope, `FlightGuard::complete_ok`) with
//!   spans kept in memory and written out at the end;
//! - **served**, through a server exactly as an untraced run drives it,
//!   reading how far the counters exported by the `stats` job moved.
//!
//! Both replays do the same work, so their exact counts (Newton solves
//! and iterations, transient steps and rejects, sparse factors and
//! replays, cache hits and inserts, executor chunks) must agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use carbon_json::Json;
use carbon_serve::cache::{Lookup, ResponseCache};
use carbon_serve::{Client, Job, DEFAULT_CACHE_BYTES};

use crate::drive::{self, nanos, Pass, Status};
use crate::fnv;
use crate::workload::{JobList, Kind};

/// Per-layer metrics of the traced run's result line: name and unit.
/// Each applies to every workload. The ledger also prints per-kind
/// solver times, which exist only where a workload runs that kind.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("serve.round_trip_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.worker_busy_share", "share"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.round_trip_p99_us", "us"),
    ("json.parse_us", "us"),
    ("json.canonical_key_us", "us"),
    ("json.render_us", "us"),
    ("job.validate_us", "us"),
    ("job.run_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_share", "share"),
    ("cache.inserts_per_job", "count"),
    ("cache.evicted_mb", "MB"),
    ("spice.newton_solves_per_job", "count"),
    ("spice.newton_iters_per_solve", "count"),
    ("spice.sparse_factors_per_job", "count"),
    ("spice.sparse_replays_per_factor", "count"),
    ("spice.tran_steps_per_job", "count"),
    ("spice.tran_reject_share", "share"),
    ("runtime.chunks_per_job", "count"),
];

/// Counts that repeat exactly for a job list, whoever replays it.
/// Eviction bytes are left out: which entries an LRU drops depends on
/// the order two workers insert in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Newton solves, DC and transient.
    pub newton_solves: u64,
    /// Newton iterations over those solves.
    pub newton_iterations: u64,
    /// Accepted transient steps.
    pub tran_steps: u64,
    /// Rejected adaptive transient steps.
    pub tran_rejects: u64,
    /// Sparse LU symbolic factorisations, DC and AC.
    pub sparse_factors: u64,
    /// Sparse numeric replays, DC and AC.
    pub sparse_replays: u64,
    /// Jobs served from the response cache.
    pub cache_hits: u64,
    /// Responses stored into the cache.
    pub cache_inserts: u64,
    /// Executor chunks run.
    pub executor_chunks: u64,
}

/// Registry values by name; a histogram `h` contributes `h#count`
/// and `h#sum`.
type View = BTreeMap<String, u64>;

fn view_of_snapshot(snapshot: &carbon_metrics::Snapshot) -> View {
    let mut view: View = snapshot.counters.clone().into_iter().collect();
    for (name, h) in &snapshot.histograms {
        view.insert(format!("{name}#count"), h.count());
        view.insert(format!("{name}#sum"), h.sum);
    }
    view
}

/// The counters and histogram totals of a `stats` response.
fn view_of_stats(response: &Json) -> Result<View, String> {
    let result = response
        .get("result")
        .ok_or("stats response has no result")?;
    let mut view = View::new();
    if let Some(Json::Obj(counters)) = result.get("counters") {
        for (name, v) in counters {
            view.insert(name.clone(), v.as_u64().unwrap_or(0));
        }
    }
    if let Some(Json::Obj(histograms)) = result.get("histograms") {
        for (name, h) in histograms {
            for field in ["count", "sum"] {
                let v = h.get(field).and_then(Json::as_u64).unwrap_or(0);
                view.insert(format!("{name}#{field}"), v);
            }
        }
    }
    Ok(view)
}

fn delta(before: &View, after: &View) -> View {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

fn get(view: &View, name: &str) -> u64 {
    view.get(name).copied().unwrap_or(0)
}

fn sum_with_prefix(view: &View, prefix: &str, suffix: &str) -> u64 {
    view.iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

impl Counts {
    /// The counts of a registry delta. The cache counts are read from
    /// the server's names, which only a served replay has.
    fn of(d: &View) -> Self {
        Self {
            newton_solves: get(d, "spice.newton.solves.dc") + get(d, "spice.newton.solves.tran"),
            newton_iterations: get(d, "spice.newton.iterations.dc")
                + get(d, "spice.newton.iterations.tran"),
            tran_steps: get(d, "spice.tran.steps"),
            tran_rejects: get(d, "spice.tran.rejects"),
            sparse_factors: get(d, "spice.sparse.factor") + get(d, "spice.sparse.ac_factor"),
            sparse_replays: get(d, "spice.sparse.replay") + get(d, "spice.sparse.ac_replay"),
            cache_hits: get(d, "serve.cache.hit"),
            cache_inserts: get(d, "serve.cache.insert"),
            executor_chunks: get(d, "runtime.chunk_ns#count"),
        }
    }
}

/// Layer times of one request in the in-process replay, ns. The
/// layers run one after another, so their sum is the request's time.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    start: u64,
    parse: u64,
    key: u64,
    validate: u64,
    lookup: u64,
    run: u64,
    render: u64,
    insert: u64,
    hit: bool,
}

impl Spans {
    fn total(&self) -> u64 {
        self.parse + self.key + self.validate + self.lookup + self.run + self.render + self.insert
    }
}

/// One request through the layers the server crosses, in-process.
/// Returns its spans, the response bytes, and whether the response
/// was stored in the cache.
fn replay_one(
    cache: &Arc<ResponseCache>,
    body: &str,
    origin: Instant,
) -> Result<(Spans, Vec<u8>, bool), String> {
    let t0 = Instant::now();
    let envelope = Json::parse(body).map_err(|e| format!("parse: {e}"))?;
    let t1 = Instant::now();
    let job_field = envelope.get("job").ok_or("request has no job")?;
    let key = job_field.canonical_key();
    let t2 = Instant::now();
    let job = Job::from_json(job_field).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let lookup = cache.begin(key);
    let t4 = Instant::now();
    let id = envelope.get("id").ok_or("request has no id")?;
    let mut spans = Spans {
        start: nanos(t0 - origin),
        parse: nanos(t1 - t0),
        key: nanos(t2 - t1),
        validate: nanos(t3 - t2),
        lookup: nanos(t4 - t3),
        ..Spans::default()
    };
    match lookup {
        Lookup::Hit(suffix) => {
            let mut response = format!("{{\"id\":{}", id.render()).into_bytes();
            response.extend_from_slice(&suffix);
            spans.render = nanos(t4.elapsed());
            spans.hit = true;
            Ok((spans, response, false))
        }
        Lookup::Lead(guard) => {
            let result = job.run().map_err(|e| e.to_string())?;
            let t5 = Instant::now();
            let response = drive::ok_envelope(id, job.kind(), result)
                .render()
                .into_bytes();
            let t6 = Instant::now();
            let prefix = "{\"id\":".len() + id.render().len();
            let inserted = guard.complete_ok(response[prefix..].to_vec()).inserted;
            spans.run = nanos(t5 - t4);
            spans.render = nanos(t6 - t5);
            spans.insert = nanos(t6.elapsed());
            Ok((spans, response, inserted))
        }
        Lookup::Wait(_) => Err("a one-thread replay met an in-flight duplicate".to_owned()),
    }
}

fn fetch_stats(client: &mut Client) -> Result<View, String> {
    let request = Json::obj()
        .push("id", "stats")
        .push("job", Json::obj().push("kind", "stats"));
    let response = client
        .call(&request)
        .map_err(|e| format!("stats request: {e}"))?;
    view_of_stats(&response)
}

fn global_view() -> View {
    view_of_snapshot(&carbon_metrics::global().snapshot())
}

fn add(total: &mut View, d: View) {
    for (k, v) in d {
        *total.entry(k).or_insert(0) += v;
    }
}

/// Segments each replay is cut into.
const SEGMENTS: usize = 10;
/// Requests replayed in-process, uncounted, before the first segment,
/// so one-time costs (page faults, first executor spawn) stay out of
/// the layer times.
const WARM_UP: usize = 8;

/// Both replays of a job list.
struct Replays {
    spans: Vec<Spans>,
    digests: Vec<u64>,
    local: Counts,
    served: Pass,
    served_delta: View,
    workers: usize,
    accounted: bool,
}

fn replay(list: &JobList) -> Result<Replays, String> {
    let cache = ResponseCache::new(DEFAULT_CACHE_BYTES);
    let origin = Instant::now();
    for body in &list.priming {
        replay_one(&cache, body, origin)?;
    }
    let spare = ResponseCache::new(DEFAULT_CACHE_BYTES);
    for request in list.requests.iter().take(WARM_UP) {
        replay_one(&spare, &request.body, origin)?;
    }
    let mut rig = drive::set_up(list)?;

    let n = list.requests.len();
    let mut spans = Vec::with_capacity(n);
    let mut digests = Vec::with_capacity(n);
    let (mut hits, mut inserts) = (0, 0);
    let mut local_delta = View::new();
    let mut served_delta = View::new();
    let mut served = Pass {
        outcomes: Vec::with_capacity(n),
        wall: std::time::Duration::ZERO,
        client_nvcsw: 0,
    };
    for segment in list.requests.chunks(n.div_ceil(SEGMENTS).max(1)) {
        let before = global_view();
        for request in segment {
            let (s, response, inserted) = replay_one(&cache, &request.body, origin)?;
            hits += u64::from(s.hit);
            inserts += u64::from(inserted);
            spans.push(s);
            digests.push(fnv(&response));
        }
        add(&mut local_delta, delta(&before, &global_view()));

        let before = fetch_stats(&mut rig.clients[0])?;
        let pass = drive::run_pass(&mut rig.clients, segment, Instant::now());
        add(
            &mut served_delta,
            delta(&before, &fetch_stats(&mut rig.clients[0])?),
        );
        served.outcomes.extend(pass.outcomes);
        served.wall += pass.wall;
        served.client_nvcsw += pass.client_nvcsw;
    }
    drop(rig.clients);
    let workers = rig.server.config().workers;
    let stats = rig.server.shutdown();
    Ok(Replays {
        spans,
        digests,
        local: Counts {
            cache_hits: hits,
            cache_inserts: inserts,
            ..Counts::of(&local_delta)
        },
        served,
        served_delta,
        workers,
        accounted: stats.cache_hits + stats.cache_misses == stats.accepted,
    })
}

/// One ledger row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a traced run found.
pub struct Trace {
    /// Every ledger metric that applies to the workload.
    pub rows: Vec<Row>,
    /// Exact counts of the served replay (equal to the in-process
    /// replay's when `problems` is empty).
    pub counts: Counts,
    /// Requests not answered `ok`, or answered with other bytes than
    /// the in-process replay produced.
    pub failed: usize,
    /// Exact checks that did not hold: the program answered or
    /// counted differently than the job list implies.
    pub problems: Vec<String>,
    /// Timing checks that did not hold, such as in-process layers
    /// adding up to more than the served round trip.
    pub warnings: Vec<String>,
    /// FNV-1a 64 over the per-response digests in id order.
    pub digest: u64,
    /// Spans as JSON lines, one per request.
    pub spans_jsonl: String,
}

impl Trace {
    /// The value of a ledger row.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (n, sum) = values.fold((0u64, 0u128), |(n, s), v| (n + 1, s + u128::from(v)));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replays `list` in-process and through a server, checks the two
/// against each other, and builds the ledger.
///
/// # Errors
///
/// A request that cannot be replayed in-process, or a server that
/// cannot be set up.
pub fn trace(list: &JobList) -> Result<Trace, String> {
    let replays = replay(list)?;
    let n = list.requests.len();
    let jobs = n as u64;
    let d = &replays.served_delta;
    let counts = Counts::of(d);
    let served = &replays.served;

    let failed = served
        .outcomes
        .iter()
        .zip(&replays.digests)
        .filter(|(o, &digest)| o.status != Status::Ok || o.digest != digest)
        .count();
    let mut problems = Vec::new();
    if !replays.accounted {
        problems.push("cache_hits + cache_misses != accepted".to_owned());
    }
    if counts != replays.local {
        problems.push(format!(
            "served counts {counts:?} differ from in-process counts {:?}",
            replays.local
        ));
    }
    let repeats = list.requests.iter().filter(|r| r.repeat).count() as u64;
    if counts.cache_hits != repeats {
        problems.push(format!(
            "{} cache hits, but the job list repeats {repeats} bodies",
            counts.cache_hits
        ));
    }

    let us = |ns: f64| ns / 1e3;
    let spans = &replays.spans;
    let solved = || spans.iter().filter(|s| !s.hit);
    let mut sorted: Vec<f64> = served
        .outcomes
        .iter()
        .map(|o| o.round_trip_ns as f64)
        .collect();
    sorted.sort_by(f64::total_cmp);
    let round_trip = sorted.iter().sum::<f64>() / n as f64;
    let in_process_total = mean(spans.iter().map(Spans::total));
    let mut warnings = Vec::new();
    if in_process_total > round_trip {
        warnings.push(format!(
            "in-process layers take {:.1} us, more than the {:.1} us round trip",
            us(in_process_total),
            us(round_trip)
        ));
    }
    let queue_waits = (
        sum_with_prefix(d, "serve.queue_wait_ns.", "#sum"),
        sum_with_prefix(d, "serve.queue_wait_ns.", "#count"),
    );
    let wall_ns = nanos(served.wall) as f64;
    let response_bytes: u64 = served.outcomes.iter().map(|o| o.response_bytes).sum();

    let mut rows = Vec::new();
    let mut row = |name: &str, value: f64, unit: &'static str| {
        rows.push(Row {
            name: name.to_owned(),
            value,
            unit,
        });
    };
    row("serve.round_trip_us", us(round_trip), "us");
    row(
        "serve.transport_us",
        us(round_trip - in_process_total),
        "us",
    );
    row(
        "serve.queue_wait_us",
        us(ratio(queue_waits.0, queue_waits.1)),
        "us",
    );
    row(
        "serve.worker_busy_share",
        get(d, "serve.worker_busy_ns") as f64 / (replays.workers as f64 * wall_ns),
        "share",
    );
    let request_bytes = list.requests.iter().map(|r| r.body.len() as u64).sum();
    row("serve.request_bytes", ratio(request_bytes, jobs), "bytes");
    row("serve.response_bytes", ratio(response_bytes, jobs), "bytes");
    row(
        "serve.round_trip_p99_us",
        us(crate::quantile(&sorted, 0.99)),
        "us",
    );
    row(
        "serve.traced_jobs_per_s",
        served.ok() as f64 / served.wall.as_secs_f64(),
        "1/s",
    );
    row(
        "json.parse_us",
        us(mean(spans.iter().map(|s| s.parse))),
        "us",
    );
    row(
        "json.canonical_key_us",
        us(mean(spans.iter().map(|s| s.key))),
        "us",
    );
    row(
        "json.render_us",
        us(mean(spans.iter().map(|s| s.render))),
        "us",
    );
    row(
        "job.validate_us",
        us(mean(spans.iter().map(|s| s.validate))),
        "us",
    );
    row("job.run_us", us(mean(solved().map(|s| s.run))), "us");
    row(
        "cache.lookup_us",
        us(mean(spans.iter().map(|s| s.lookup))),
        "us",
    );
    row(
        "cache.insert_us",
        us(mean(solved().map(|s| s.insert))),
        "us",
    );
    row("cache.hit_share", ratio(counts.cache_hits, jobs), "share");
    row(
        "cache.inserts_per_job",
        ratio(counts.cache_inserts, jobs),
        "count",
    );
    row(
        "cache.evicted_mb",
        get(d, "serve.cache.evict_bytes") as f64 / f64::from(1u32 << 20),
        "MB",
    );
    for kind in Kind::ALL {
        let times = spans
            .iter()
            .zip(&list.requests)
            .filter(|(s, r)| r.kind == kind && !s.hit)
            .map(|(s, _)| s.run);
        let (count, time) = times.fold((0u64, 0u64), |(c, t), v| (c + 1, t + v));
        if count > 0 {
            row(kind.run_metric(), us(time as f64 / count as f64), "us");
        }
    }
    row(
        "spice.newton_solves_per_job",
        ratio(counts.newton_solves, jobs),
        "count",
    );
    row(
        "spice.newton_iters_per_solve",
        ratio(counts.newton_iterations, counts.newton_solves),
        "count",
    );
    row(
        "spice.sparse_factors_per_job",
        ratio(counts.sparse_factors, jobs),
        "count",
    );
    row(
        "spice.sparse_replays_per_factor",
        ratio(counts.sparse_replays, counts.sparse_factors),
        "count",
    );
    row(
        "spice.tran_steps_per_job",
        ratio(counts.tran_steps, jobs),
        "count",
    );
    row(
        "spice.tran_reject_share",
        ratio(counts.tran_rejects, counts.tran_steps + counts.tran_rejects),
        "share",
    );
    row(
        "runtime.chunks_per_job",
        ratio(counts.executor_chunks, jobs),
        "count",
    );
    if counts.executor_chunks > 0 {
        row(
            "runtime.chunk_us_per_job",
            us(ratio(get(d, "runtime.chunk_ns#sum"), jobs)),
            "us",
        );
    }
    let (samples, sample_ns) = spans
        .iter()
        .zip(&list.requests)
        .filter(|(s, r)| !s.hit && r.kind.mc_samples() > 0)
        .fold((0u64, 0u64), |(n, t), (s, r)| {
            (n + r.kind.mc_samples(), t + s.run)
        });
    if samples > 0 {
        row(
            "econ.samples_per_ms",
            samples as f64 / (sample_ns as f64 / 1e6),
            "1/ms",
        );
    }

    let mut spans_jsonl = String::new();
    for (i, (s, r)) in spans.iter().zip(&list.requests).enumerate() {
        let _ = writeln!(
            spans_jsonl,
            "{{\"job\":{i},\"kind\":\"{}\",\"hit\":{},\"start_ns\":{},\"json.parse\":{},\
             \"json.canonical_key\":{},\"job.validate\":{},\"cache.begin\":{},\"job.run\":{},\
             \"json.render\":{},\"cache.complete_ok\":{}}}",
            r.kind.label(),
            s.hit,
            s.start,
            s.parse,
            s.key,
            s.validate,
            s.lookup,
            s.run,
            s.render,
            s.insert
        );
    }
    Ok(Trace {
        rows,
        counts,
        failed,
        problems,
        warnings,
        digest: served.digest(),
        spans_jsonl,
    })
}
