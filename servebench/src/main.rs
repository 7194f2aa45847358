//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): sets up a server and its clients several
//! times, keeps the last set-up, sends the workload's job list over
//! two closed-loop connections, checks the answers and prints the
//! end-to-end metrics. Traced (`--trace 1`): prints the per-layer
//! ledger instead. Either way the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use carbon_json::Json;
use carbon_runtime::rng::{RngCore, Xoshiro256pp};
use carbon_serve::ServerStats;
use servebench::drive::{self, nanos, Pass, Status, CONNECTIONS};
use servebench::workload::{JobList, Workload};
use servebench::{host, ledger, median, quantile, END_TO_END};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The sampler reads the host counters this often, and the timed
/// window is measured in slices this long.
const SLICE: Duration = Duration::from_millis(250);
/// Speed probes the sampler runs per slice, each about 40 µs of CPU.
const PROBES_PER_SLICE: u32 = 10;
/// Responses rerun in-process per untraced `circuit` or `campaign`
/// run (every response is rerun on `interactive`).
const CHECK_SAMPLE: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}': choose {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "servebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(line) => {
            println!("{}", line.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn metric(metrics: Json, name: &str, value: f64, unit: &str) -> Json {
    metrics.push(name, Json::obj().push("value", value).push("unit", unit))
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: Json) -> Json {
    Json::obj()
        .push("correct", correct)
        .push("attempted", attempted)
        .push("failed", failed)
        .push("metrics", metrics)
}

/// What the sampler thread read while an untraced run went on. Times
/// are ns since the run began.
#[derive(Default)]
struct Timeline {
    /// Host counters, every [`SLICE`].
    readings: Vec<(u64, host::Reading)>,
    /// Speed probe CPU times, [`PROBES_PER_SLICE`] per slice.
    probes: Vec<(u64, u64)>,
}

impl Timeline {
    /// Host speed over `[from, to)`: the reference probe time over the
    /// median probe time then, or `None` if no probe ran then.
    fn speed(&self, from: u64, to: u64) -> Option<f64> {
        let times: Vec<f64> = self
            .probes
            .iter()
            .filter(|(at, _)| (from..to).contains(at))
            .map(|&(_, ns)| ns as f64)
            .collect();
        (!times.is_empty()).then(|| host::PROBE_REFERENCE_NS / median(&times))
    }
}

/// Reads the host counters every [`SLICE`] and runs the speed probe
/// [`PROBES_PER_SLICE`] times per slice, from `origin` until `stop`
/// gets a message or its sender is dropped.
fn sample(origin: Instant, stop: &mpsc::Receiver<()>) -> Timeline {
    let mut timeline = Timeline::default();
    let mut probe = host::SpeedProbe::default();
    let tick = SLICE / PROBES_PER_SLICE;
    for k in 0u32.. {
        if k % PROBES_PER_SLICE == 0 {
            timeline
                .readings
                .push((nanos(origin.elapsed()), host::read()));
        }
        let at = nanos(origin.elapsed());
        if let Some(ns) = probe.run().filter(|&ns| ns > 0) {
            timeline.probes.push((at, ns));
        }
        let due = origin + tick * (k + 1);
        let wait = due.saturating_duration_since(Instant::now());
        if stop.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            break;
        }
    }
    timeline
}

/// The part of an untraced run the sampler watches: the set-ups and
/// the timed window.
struct Served {
    list: JobList,
    pass: Pass,
    /// Each set-up's start and end, ns since the run began.
    setups: Vec<(u64, u64)>,
    /// Start of the timed window, ns since the run began.
    window_start: u64,
    /// Host counters at the start and the end of the window.
    before: host::Reading,
    after: host::Reading,
    peak_rss_mb: f64,
    workers: usize,
    stats_before: ServerStats,
    stats: ServerStats,
}

/// Sets up [`SETUPS`] times, keeping the last set-up, and sends the
/// job list through it. Each set-up renders the job list, starts a
/// server, connects, warms up and primes; all but the last are torn
/// down again.
fn serve(args: &Args, origin: Instant) -> Result<Served, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let begun = nanos(origin.elapsed());
        let list = args.workload.job_list(args.seed, args.seconds);
        let rig = drive::set_up(&list)?;
        setups.push((begun, nanos(origin.elapsed())));
        kept = Some((list, rig));
    }
    let (list, mut rig) = kept.expect("at least one set-up");
    let workers = rig.server.config().workers;
    let stats_before = rig.server.stats();
    let before = host::read();
    let started = Instant::now();
    let pass = drive::run_pass(&mut rig.clients, &list.requests, started);
    let after = host::read();
    let peak_rss_mb = host::peak_rss_mb();
    let stats = rig.server.stats();
    drop(rig.clients);
    rig.server.shutdown();
    Ok(Served {
        list,
        pass,
        setups,
        window_start: nanos(started - origin),
        before,
        after,
        peak_rss_mb,
        workers,
        stats_before,
        stats,
    })
}

fn untraced(args: &Args) -> Result<Json, String> {
    let origin = Instant::now();
    let (stop, stopped) = mpsc::channel::<()>();
    let (served, timeline) = std::thread::scope(|s| {
        let sampler = s.spawn(move || sample(origin, &stopped));
        // Dropping `stop` ends the sampler; unwinding from a panic in
        // `serve` drops it too, so the scope never waits forever.
        let served = serve(args, origin);
        drop(stop);
        (served, sampler.join().expect("sampler thread panicked"))
    });
    let Served {
        list,
        pass,
        setups,
        window_start,
        before,
        after,
        peak_rss_mb,
        workers,
        stats_before,
        stats,
    } = served?;
    let window_end = window_start + nanos(pass.wall);

    let n = list.requests.len();
    let ok = pass.ok();
    let wall = pass.wall.as_secs_f64();
    let cpu_s = (after.cpu_ticks - before.cpu_ticks) as f64 / host::TICKS_PER_S;
    let (Some(setup_speed), Some(window_speed)) = (
        timeline.speed(setups[0].0, setups[setups.len() - 1].1),
        timeline.speed(window_start, window_end),
    ) else {
        return Err("the speed probe could not read the thread CPU clock".to_owned());
    };
    let slices = slice_window(&pass, &timeline, window_start, (before, after));
    if slices.is_empty() {
        return Err("no slice of the timed window answered a request ok".to_owned());
    }

    // Correctness: every status, the hit/miss accounting, and the
    // bytes of every (interactive) or a seeded sample of responses
    // against an in-process rerun.
    let checked = checked_indices(args, &list);
    let mut mismatched = vec![false; n];
    for (&i, expected) in checked
        .iter()
        .zip(drive::expected_digests(&list, &checked)?)
    {
        mismatched[i] = expected != pass.outcomes[i].digest;
    }
    let failed = (0..n)
        .filter(|&i| pass.outcomes[i].status != Status::Ok || mismatched[i])
        .count();
    let accounted = stats.cache_hits + stats.cache_misses == stats.accepted
        && stats.protocol_errors == stats_before.protocol_errors;
    let refused = pass
        .outcomes
        .iter()
        .filter(|o| o.status == Status::Refused)
        .count();
    let protocol = n - ok - refused;

    let window_hits = stats.cache_hits - stats_before.cache_hits;
    println!(
        "host nproc={} CARBON_THREADS={} workers={workers} connections={CONNECTIONS} \
         cpu_util={:.3} steal_ticks={} nvcsw_per_job={:.4} speed_setup={setup_speed:.4} \
         speed_window={window_speed:.4}",
        host::nproc(),
        std::env::var("CARBON_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        cpu_s / (wall * host::nproc() as f64),
        after.steal_ticks - before.steal_ticks,
        (after.nvcsw.saturating_sub(before.nvcsw) + pass.client_nvcsw) as f64 / n as f64,
    );
    println!(
        "check jobs={n} ok={ok} refused={refused} protocol_errors={protocol} \
         rerun_in_process={} byte_mismatches={} server_accounting_ok={accounted} \
         window_cache_hits={window_hits} repeat_share={}",
        checked.len(),
        mismatched.iter().filter(|&&m| m).count(),
        list.repeat_fraction(),
    );
    println!("digest {:016x}", pass.digest());
    for (name, f) in [
        ("jobs_per_s", (|s| s.jobs_per_s) as fn(&Slice) -> f64),
        ("latency_p50_ms", |s| s.p50_ms),
        ("latency_p90_ms", |s| s.p90_ms),
        ("cpu_ms_per_job", |s| s.cpu_ms_per_job),
        ("speed", |s| s.speed),
        ("steal_ticks", |s| s.steal_ticks as f64),
    ] {
        let column: Vec<String> = slices.iter().map(|s| format!("{:.4}", f(s))).collect();
        println!("slices {name} [{}]", column.join(" "));
    }

    let setup_times: Vec<f64> = setups
        .iter()
        .map(|&(begun, done)| (done - begun) as f64 / 1e9)
        .collect();
    let column: Vec<String> = setup_times.iter().map(|t| format!("{t:.4}")).collect();
    println!("setups seconds [{}]", column.join(" "));

    // Each windowed figure is scaled to the reference host: a slice's
    // times are multiplied by the host speed measured during it, and
    // its rate is divided by it. A CPU time holds no time spent waiting
    // for a vCPU, so its figure is the median slice. A round trip or a
    // rate also holds time that other tenants stole, which only ever
    // makes a slice worse, so its figure is the value the better tenth
    // of the slices reach.
    //
    // Every figure is printed; the result line holds the ones
    // `BENCHMARK.json` bounds.
    let mut metrics = Json::obj();
    for (name, unit, rate, q, unscaled) in [
        (
            "jobs_per_s",
            "1/s",
            true,
            0.9,
            (|s| s.jobs_per_s) as fn(&Slice) -> f64,
        ),
        ("latency_p50_ms", "ms", false, 0.1, |s| s.p50_ms),
        ("latency_p90_ms", "ms", false, 0.1, |s| s.p90_ms),
        ("cpu_ms_per_job", "ms", false, 0.5, |s| s.cpu_ms_per_job),
    ] {
        let value = over_slices(&slices, q, |s| {
            if rate {
                unscaled(s) / s.speed
            } else {
                unscaled(s) * s.speed
            }
        });
        println!(
            "{name} {value} {unit} (unscaled {} {unit}, n={})",
            over_slices(&slices, q, unscaled),
            slices.len()
        );
        if END_TO_END.contains(&(name, unit)) {
            metrics = metric(metrics, name, value, unit);
        }
    }
    // Set-up time is scaled by the host speed over the set-ups.
    let setup_s = median(&setup_times);
    println!(
        "setup_s {} s (unscaled {setup_s} s, n={SETUPS})",
        setup_s * setup_speed
    );
    metrics = metric(metrics, "setup_s", setup_s * setup_speed, "s");
    for (name, value, unit, count) in [
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("failed_share", failed as f64 / n as f64, "share", n),
    ] {
        println!("{name} {value} {unit} (n={count})");
        if END_TO_END.contains(&(name, unit)) {
            metrics = metric(metrics, name, value, unit);
        }
    }
    Ok(result_line(accounted && failed == 0, n, failed, metrics))
}

/// The `q`-quantile (0..=1) over slices of `f`.
fn over_slices(slices: &[Slice], q: f64, f: impl Fn(&Slice) -> f64) -> f64 {
    let mut column: Vec<f64> = slices.iter().map(f).collect();
    column.sort_by(f64::total_cmp);
    quantile(&column, q)
}

/// One slice of the timed window, unscaled.
struct Slice {
    jobs_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    cpu_ms_per_job: f64,
    steal_ticks: u64,
    /// Host speed while the slice went on.
    speed: f64,
}

/// Cuts the timed window, which starts `window_start` ns into the run,
/// into the [`SLICE`]-long pieces between the sampler's readings that
/// lie wholly inside it, and measures each from the `ok` requests that
/// completed in it. A window that holds no whole slice is one slice,
/// between the `ends` readings.
fn slice_window(
    pass: &Pass,
    timeline: &Timeline,
    window_start: u64,
    ends: (host::Reading, host::Reading),
) -> Vec<Slice> {
    let window_end = window_start + nanos(pass.wall);
    let inside: Vec<(u64, host::Reading)> = timeline
        .readings
        .iter()
        .copied()
        .filter(|&(at, _)| (window_start..=window_end).contains(&at))
        .collect();
    let bounds = if inside.len() < 2 {
        vec![(window_start, ends.0), (window_end, ends.1)]
    } else {
        inside
    };
    // Per slice: round trips, and the first and last completion time.
    let mut buckets: Vec<(Vec<f64>, u64, u64)> = vec![(Vec::new(), u64::MAX, 0); bounds.len() - 1];
    for o in pass.outcomes.iter().filter(|o| o.status == Status::Ok) {
        let done = window_start + o.done_ns;
        // The last bound at or before `done` opens its slice.
        let k = bounds.partition_point(|&(at, _)| at <= done);
        if let Some((latencies, first, last)) = k.checked_sub(1).and_then(|k| buckets.get_mut(k)) {
            latencies.push(o.round_trip_ns as f64 / 1e6);
            *first = (*first).min(done);
            *last = (*last).max(done);
        }
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, (l, first, last))| l.len() > 1 && last > first)
        .filter_map(|(k, (mut l, first, last))| {
            let ((from, open), (to, close)) = (bounds[k], bounds[k + 1]);
            let speed = timeline.speed(from, to)?;
            l.sort_by(f64::total_cmp);
            let cpu_ms = (close.cpu_ticks - open.cpu_ticks) as f64 * 1e3 / host::TICKS_PER_S;
            Some(Slice {
                // Completions after the slice's first, over the time
                // they took: not rounded to whole jobs per slice.
                jobs_per_s: (l.len() - 1) as f64 / ((last - first) as f64 / 1e9),
                p50_ms: quantile(&l, 0.5),
                p90_ms: quantile(&l, 0.9),
                cpu_ms_per_job: cpu_ms / l.len() as f64,
                steal_ticks: close.steal_ticks - open.steal_ticks,
                speed,
            })
        })
        .collect()
}

/// Indices whose responses are rerun in-process: all of them on
/// `interactive`, otherwise a sample drawn from the seed.
fn checked_indices(args: &Args, list: &JobList) -> Vec<usize> {
    let n = list.requests.len();
    if args.workload == Workload::Interactive || n <= CHECK_SAMPLE {
        return (0..n).collect();
    }
    let mut rng = Xoshiro256pp::from_seed_and_stream(args.seed, 0xc4ec);
    let mut picked: Vec<usize> = (0..CHECK_SAMPLE)
        .map(|_| (rng.next_u64() % n as u64) as usize)
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

fn traced(args: &Args) -> Result<Json, String> {
    let list = args.workload.job_list(args.seed, args.seconds);
    let trace = ledger::trace(&list)?;
    let spans_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    let spans_file = spans_dir.join(format!("{}.jsonl", args.workload.name()));
    std::fs::create_dir_all(&spans_dir)
        .and_then(|()| std::fs::write(&spans_file, &trace.spans_jsonl))
        .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;

    println!(
        "trace counts {:?} digest {:016x} spans {}",
        trace.counts,
        trace.digest,
        spans_file.display()
    );
    for row in &trace.rows {
        println!("{} {} {}", row.name, row.value, row.unit);
    }
    for problem in &trace.problems {
        println!("inconsistent: {problem}");
    }
    for warning in &trace.warnings {
        println!("timing: {warning}");
    }
    let mut metrics = Json::obj();
    for (name, unit) in ledger::PER_LAYER {
        let value = trace
            .value(name)
            .ok_or_else(|| format!("the ledger has no {name}"))?;
        metrics = metric(metrics, name, value, unit);
    }
    Ok(result_line(
        trace.problems.is_empty() && trace.failed == 0,
        list.requests.len(),
        trace.failed,
        metrics,
    ))
}
