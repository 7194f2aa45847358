//! Benchmark snapshot and trace tooling.
//!
//! ```text
//! carbon-bench compare <old.jsonl> <new.jsonl> [--threshold <pct>]
//! carbon-bench trace-summary <trace.jsonl>
//! carbon-bench fig2
//! ```
//!
//! `compare` diffs two harness snapshots (as written to
//! `target/carbon-bench/<group>.jsonl` by the bench binaries) and exits
//! nonzero when any benchmark's median regressed more than the
//! threshold (default 10 %) *and* escaped the baseline's recorded
//! min..max noise band. `ci.sh` runs this against the committed
//! baseline in `benches/baseline/` when `CARBON_BENCH_COMPARE=1`.
//!
//! `trace-summary` folds a `CARBON_TRACE` JSONL event stream into the
//! same schema `compare` consumes (span duration stats, integer-field
//! stats, instant counts), printed to stdout. With `--folded` it
//! instead emits flamegraph folded stacks — one
//! `root;child;leaf self_ns` line per call path, self time only — for
//! direct consumption by `flamegraph.pl` / `inferno`.
//!
//! `batch` evaluates every device model through both the scalar entry
//! point and the structure-of-arrays batch kernel over fixed lanes,
//! asserts the outputs are bit-identical, and prints one digest row per
//! model plus one row for the adaptive §V Monte-Carlo campaign. The
//! output is a pure function of the models, so `ci.sh` diffs it across
//! `CARBON_THREADS` — the batch layer's and the adaptive campaign's
//! determinism smoke test.
//!
//! `fig2` runs the Fig. 2 experiment and prints its report — a small,
//! deterministic traced-run target for the CI trace smoke test.
//!
//! `ac` runs a parallel sparse AC sweep of the 64-stage RC ladder and
//! prints every phasor at full precision — the deterministic target
//! the CI AC smoke test diffs across thread counts.
//!
//! `fig7` runs the §V statistics experiment and prints its report —
//! the pure-sampling traced-run target for the CI trace baselines.
//!
//! `tran` runs the `tran_ramp` (stiff power-on ramp) and `tran_ring`
//! (3-stage ring oscillator) transient workloads under both stepping
//! methods and prints one row per run: deck, method, accepted/rejected
//! step counts, and an FNV-1a 64 digest over every time point's and
//! voltage's exact bit pattern. The rows are a pure function of the
//! decks, so `ci.sh` diffs them across `CARBON_THREADS` — and the
//! fixed-vs-adaptive step ratio on the ramp deck is the adaptive
//! method's speedup evidence.
//!
//! `econ` runs the §V wafer-economics campaign twice: once in-process
//! through the chunked executor — a 512-cell node × area × defect ×
//! purity grid in fixed mode plus the same grid in adaptive
//! (CI-targeted) mode, each folded to an FNV-1a 64 digest over every
//! cell's exact bit patterns, so `ci.sh` can diff the rows across
//! `CARBON_THREADS` — and once over a loopback carbon-serve server,
//! submitting an identical `econ_campaign` body on two passes and
//! printing the second pass's cache hit rate in per-mille (1000 on a
//! healthy server: a repeated campaign is served entirely from the
//! response cache).
//!
//! `serve-load` starts an in-process carbon-serve server on loopback
//! and drives it with a deterministic mixed job load; latency rows go
//! to stdout in the compare-JSONL schema, the human summary to stderr.
//! The rows include the server's own `stats` snapshot (flattened as
//! `serve/stats/*`), which `ci.sh` gates on for server-side health.
//! `--digest` appends an FNV-1a 64 digest of the id-sorted response
//! bodies, which `ci.sh` diffs across `CARBON_THREADS`. `--passes`
//! replays the identical schedule over one server (warming its
//! response cache) and prints one `pass<i>_digest=` line per pass;
//! `--repeat-frac` switches to the parameter-varied repeat workload
//! and `--cache-bytes` sizes or (at 0) disables the server's cache.

use std::process::ExitCode;

use carbon_bench::compare::{compare, parse_jsonl};
use carbon_bench::serve_load;
use carbon_bench::summary::summarize;

fn usage() -> ExitCode {
    eprintln!(
        "usage: carbon-bench compare <old.jsonl> <new.jsonl> [--threshold <pct>]\n       \
         carbon-bench trace-summary <trace.jsonl> [--folded]\n       \
         carbon-bench batch\n       \
         carbon-bench fig2\n       \
         carbon-bench fig7\n       \
         carbon-bench ac\n       \
         carbon-bench tran\n       \
         carbon-bench econ\n       \
         carbon-bench serve-load [--connections <n>] [--jobs <n>] [--workers <n>]\n                               \
         [--queue-depth <n>] [--passes <n>] [--repeat-frac <f>]\n                               \
         [--cache-bytes <n>] [--digest]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("trace-summary") => run_trace_summary(&args[1..]),
        Some("batch") => run_batch(),
        Some("fig2") => run_fig2(),
        Some("fig7") => run_fig7(),
        Some("ac") => run_ac(),
        Some("tran") => run_tran(),
        Some("econ") => run_econ(),
        Some("serve-load") => run_serve_load(&args[1..]),
        _ => usage(),
    }
}

fn run_fig7() -> ExitCode {
    match carbon_core::fig7_stats::run() {
        Ok(fig) => {
            print!("{fig}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("carbon-bench: fig7: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_serve_load(args: &[String]) -> ExitCode {
    let mut config = serve_load::LoadConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut parse_next = |target: &mut usize| -> bool {
            match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => {
                    *target = n;
                    true
                }
                _ => false,
            }
        };
        let ok = match a.as_str() {
            "--connections" => parse_next(&mut config.connections),
            "--jobs" => parse_next(&mut config.jobs),
            "--workers" => parse_next(&mut config.workers),
            "--queue-depth" => parse_next(&mut config.queue_depth),
            "--passes" => parse_next(&mut config.passes),
            // Zero is meaningful here (it disables the cache), so this
            // flag does not go through the positive-only parser.
            "--cache-bytes" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => {
                    config.cache_bytes = n;
                    true
                }
                None => false,
            },
            "--repeat-frac" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => {
                    config.repeat_frac = f;
                    true
                }
                _ => false,
            },
            "--digest" => {
                config.digest = true;
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    match serve_load::run(&config) {
        Ok(report) => {
            print!("{}", report.jsonl);
            if report.pass_digests.len() > 1 {
                for (i, digest) in report.pass_digests.iter().enumerate() {
                    println!("pass{i}_digest={digest:016x}");
                }
            }
            if let Some(digest) = report.digest {
                println!("digest={digest:016x}");
            }
            eprint!("{}", report.summary);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("carbon-bench: serve-load: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_trace_summary(args: &[String]) -> ExitCode {
    let (path, folded) = match args {
        [path] => (path, false),
        [path, flag] | [flag, path] if flag == "--folded" => (path, true),
        _ => return usage(),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("carbon-bench: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if folded {
        let stacks = carbon_bench::summary::folded(&text);
        print!("{stacks}");
        if stacks.is_empty() {
            eprintln!("carbon-bench: {path}: no spans recognized");
            return ExitCode::from(2);
        }
        return ExitCode::SUCCESS;
    }
    let summary = summarize(&text);
    print!("{summary}");
    if summary.stats.is_empty() {
        eprintln!("carbon-bench: {path}: no trace events recognized");
        return ExitCode::from(2);
    }
    if summary.skipped > 0 {
        eprintln!(
            "carbon-bench: {path}: {} unrecognized line(s) skipped",
            summary.skipped
        );
    }
    ExitCode::SUCCESS
}

/// Deterministic lanes spread over the operating window with
/// incommensurate strides, so no branch pattern repeats.
fn batch_lanes(n: usize) -> (Vec<f64>, Vec<f64>) {
    let vgs = (0..n)
        .map(|i| -0.2 + 1.1 * (i % 131) as f64 / 130.0)
        .collect();
    let vds = (0..n)
        .map(|i| 0.05 + 0.85 * (i % 97) as f64 / 96.0)
        .collect();
    (vgs, vds)
}

/// Evaluates one model scalar and batched, asserts bit-identity, and
/// prints the digest row.
fn batch_row(name: &str, model: &(impl carbon_devices::batch::BatchEval + ?Sized), n: usize) {
    let (vgs, vds) = batch_lanes(n);
    let mut soa = vec![0.0; n];
    model.ids_soa(&vgs, &vds, &mut soa);
    let mut digest = carbon_bench::Fnv::new();
    for k in 0..n {
        let scalar = model.ids(vgs[k], vds[k]);
        assert_eq!(
            scalar.to_bits(),
            soa[k].to_bits(),
            "{name}: SoA kernel diverged from scalar at lane {k}"
        );
        digest.write_f64(soa[k]);
    }
    println!(
        "batch model={name} lanes={n} digest={:016x}",
        digest.finish()
    );
}

fn run_batch() -> ExitCode {
    let table_src = match carbon_devices::BallisticFet::cnt_fig1() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("carbon-bench: batch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = match carbon_devices::TableFet::sample(&table_src, (-0.3, 1.2), (-0.1, 1.0), 61, 61)
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("carbon-bench: batch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let alpha = carbon_devices::AlphaPowerFet::new(0.35, 1.3, 7.2e-4, 0.8, 0.15, 75.0)
        .expect("literal parameters are valid");
    let gnr = carbon_devices::LinearGnrFet::new(2e-4, 0.35, 90.0, 0.3, 0.5)
        .expect("literal parameters are valid");

    batch_row("alpha_power", &alpha, 4096);
    batch_row("linear_gnr", &gnr, 4096);
    batch_row("table", &table, 4096);
    // The live ballistic model is transcendental-heavy; a short lane
    // still covers every branch of its SoA kernel.
    batch_row("ballistic", &table_src, 64);

    // The executor-chunked entry point: this row is what makes the
    // cross-thread diff in ci.sh meaningful for the batch layer.
    let (vgs, vds) = batch_lanes(4096);
    let par = carbon_devices::batch::par_ids_soa(&table, &vgs, &vds);
    let mut digest = carbon_bench::Fnv::new();
    for v in &par {
        digest.write_f64(*v);
    }
    println!(
        "batch model=table_par lanes={} digest={:016x}",
        par.len(),
        digest.finish()
    );

    // The adaptive campaign: devices, rounds, and CI must be identical
    // at every `CARBON_THREADS`.
    let campaign = carbon_fab::VariabilityModel::park_experiment().sample_population_adaptive(
        &carbon_runtime::Executor::new(),
        2014,
        // Tight enough to need several growth rounds, so the chunk
        // extension path is actually exercised.
        0.01,
        100_000,
    );
    let mut digest = carbon_bench::Fnv::new();
    for vt in campaign.population.thresholds() {
        digest.write_f64(vt);
    }
    for ion in campaign.population.on_currents() {
        digest.write_f64(ion);
    }
    println!(
        "batch adaptive devices={} rounds={} converged={} ci_half_width={} digest={:016x}",
        campaign.population.len(),
        campaign.rounds,
        campaign.converged,
        campaign.ci_half_width,
        digest.finish()
    );
    ExitCode::SUCCESS
}

fn run_fig2() -> ExitCode {
    match carbon_core::fig2::run() {
        Ok(fig) => {
            print!("{fig}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("carbon-bench: fig2: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_ac() -> ExitCode {
    // A sparse-path system (66 unknowns) swept in parallel chunks of 8:
    // the chunking is fixed, so this report is byte-identical at every
    // CARBON_THREADS — which is exactly what ci.sh diffs.
    let ckt = carbon_bench::rc_ladder(64);
    let freqs = carbon_bench::log_freqs(40, 1e3, 1e9);
    match ckt.ac_sweep_par("vin", &freqs, 8) {
        Ok(ac) => {
            for (f, sol) in freqs.iter().zip(ac.solutions()) {
                print!("f={f:.17e}");
                for z in sol {
                    print!(" {:.17e}{:+.17e}j", z.re, z.im);
                }
                println!();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("carbon-bench: ac: {e}");
            ExitCode::FAILURE
        }
    }
}

type TranWorkload = (&'static str, fn() -> carbon_spice::Circuit, f64, f64);

fn run_tran() -> ExitCode {
    use carbon_spice::TranOptions;

    let ring_h = 2e-9;
    let workloads: [TranWorkload; 2] = [
        (
            "tran_ramp",
            carbon_bench::tran_ramp,
            carbon_bench::TRAN_RAMP_TSTEP,
            carbon_bench::TRAN_RAMP_TSTOP,
        ),
        (
            "tran_ring",
            || carbon_bench::ring_osc(3, 2e-9),
            ring_h / 2000.0,
            ring_h,
        ),
    ];
    for (deck, build, tstep, tstop) in workloads {
        for (method, opts) in [
            ("fixed", TranOptions::default()),
            ("adaptive", TranOptions::adaptive()),
        ] {
            let tran = match build().transient_with(tstep, tstop, opts) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("carbon-bench: tran: {deck}/{method}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut digest = carbon_bench::Fnv::new();
            for &t in tran.times() {
                digest.write_f64(t);
            }
            for node in tran.node_names().to_vec() {
                for &v in tran.voltages(&node).expect("own node list") {
                    digest.write_f64(v);
                }
            }
            println!(
                "deck={deck} method={method} points={} steps={} rejects={} digest={:016x}",
                tran.times().len(),
                tran.accepted_steps(),
                tran.rejected_steps(),
                digest.finish()
            );
        }
    }
    ExitCode::SUCCESS
}

/// The CI campaign: the determinism-matrix grid — 2 nodes × 4 areas ×
/// 4 defect densities × 16 purities = 512 cells spanning the
/// metallic-removal purity cliff.
fn econ_grid() -> carbon_econ::CampaignGrid {
    let nodes = ["cnt90", "cnt28"]
        .iter()
        .map(|n| carbon_econ::NodeSpec::preset(n).expect("known preset"))
        .collect();
    carbon_econ::CampaignGrid::new(
        nodes,
        vec![0.25, 0.5, 1.0, 2.0],
        vec![0.05, 0.1, 0.2, 0.5],
        (0..16)
            .map(|i| 0.9 + 0.0999 * f64::from(i) / 15.0)
            .collect(),
    )
    .expect("literal axes are valid")
}

/// FNV-1a 64 over every cell's exact bit patterns, in grid order.
fn econ_digest(points: &[carbon_econ::EconPoint]) -> u64 {
    let mut h = carbon_bench::Fnv::new();
    for p in points {
        h.write(&p.index.to_be_bytes());
        h.write(p.node.as_bytes());
        h.write_f64(p.area_cm2);
        h.write_f64(p.d0);
        h.write_f64(p.purity);
        h.write(&p.devices_sampled.to_be_bytes());
        h.write_f64(p.device_yield);
        h.write_f64(p.ci_half_width);
        h.write_f64(p.circuit_yield);
        h.write_f64(p.defect_yield);
        h.write(&p.copies_per_die.to_be_bytes());
        h.write_f64(p.die_yield);
        h.write(&p.dies_per_wafer.to_be_bytes());
        h.write_f64(p.good_dies_per_wafer);
        h.write_f64(p.working_circuits_per_wafer);
        h.write_f64(p.cost_per_good_die);
        h.write_f64(p.carbon_per_good_die);
    }
    h.finish()
}

/// Evaluates the CI grid under one Monte-Carlo mode and prints its
/// digest row.
fn econ_row(label: &str, mc: carbon_econ::McMode) -> Result<(), String> {
    let config = carbon_econ::EconConfig {
        yield_model: carbon_econ::YieldModel::negative_binomial(2.0).expect("positive alpha"),
        mc,
        seed: 2014,
        ..carbon_econ::EconConfig::default()
    };
    let grid = econ_grid();
    let result = carbon_econ::evaluate(&carbon_runtime::Executor::new(), &grid, &config)
        .map_err(|e| e.to_string())?;
    let summary = result.summary();
    let best = summary
        .best_index
        .map_or_else(|| "none".to_owned(), |i| i.to_string());
    println!(
        "econ mode={label} cells={} viable={} devices_sampled={} best_index={best} digest={:016x}",
        summary.cells,
        summary.viable_cells,
        summary.devices_sampled,
        econ_digest(&result.points)
    );
    Ok(())
}

/// Submits the same small `econ_campaign` body twice over a loopback
/// server and returns the second pass's cache hit rate in per-mille.
fn econ_cache_smoke() -> Result<u64, String> {
    use carbon_json::Json;
    use carbon_serve::{Client, Server, ServerConfig, DEFAULT_CACHE_BYTES};

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            default_timeout_ms: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
        },
    )
    .map_err(|e| format!("cannot bind loopback server: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let job = Json::obj()
        .push("kind", "econ_campaign")
        .push(
            "nodes",
            Json::Arr(vec![
                Json::Str("cnt90".to_owned()),
                Json::Str("cnt28".to_owned()),
            ]),
        )
        .push("areas_cm2", Json::Arr(vec![Json::Num(0.5), Json::Num(1.0)]))
        .push("d0", Json::Arr(vec![Json::Num(0.1), Json::Num(0.3)]))
        .push(
            "purities",
            Json::Arr(vec![Json::Num(0.95), Json::Num(0.99), Json::Num(0.999)]),
        )
        .push("yield_model", "negative_binomial")
        .push("alpha", 2.0)
        .push("devices", 128)
        .push("seed", 2014);
    let mut second_pass_rate = 0u64;
    for pass in 0..2u32 {
        let before = server.stats();
        let request = Json::obj()
            .push("id", format!("econ-pass-{pass}"))
            .push("job", job.clone());
        let response = client.call(&request).map_err(|e| e.to_string())?;
        if response.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("pass {pass} answered {}", response.render()));
        }
        let after = server.stats();
        let admitted = after.accepted - before.accepted;
        let hits = after.cache_hits - before.cache_hits;
        if pass == 1 {
            second_pass_rate = (hits * 1000).checked_div(admitted).unwrap_or(0);
        }
    }
    drop(client);
    server.shutdown();
    Ok(second_pass_rate)
}

fn run_econ() -> ExitCode {
    let rows = [
        ("fixed", carbon_econ::McMode::Fixed { devices: 256 }),
        (
            "adaptive",
            carbon_econ::McMode::Adaptive {
                target_ci: 0.02,
                max_devices: 8192,
            },
        ),
    ];
    for (label, mc) in rows {
        if let Err(e) = econ_row(label, mc) {
            eprintln!("carbon-bench: econ: {e}");
            return ExitCode::FAILURE;
        }
    }
    match econ_cache_smoke() {
        Ok(rate) => {
            println!("econ cache second_pass_hit_rate_permille={rate}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("carbon-bench: econ: cache smoke: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = 0.10_f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            let Some(pct) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                return usage();
            };
            if !(pct.is_finite() && pct >= 0.0) {
                return usage();
            }
            threshold = pct / 100.0;
        } else {
            paths.push(a);
        }
    }
    let [old_path, new_path] = paths[..] else {
        return usage();
    };

    let mut snapshots = Vec::with_capacity(2);
    for path in [old_path, new_path] {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("carbon-bench: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match parse_jsonl(&text) {
            Ok(records) => snapshots.push(records),
            Err(e) => {
                eprintln!("carbon-bench: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let cmp = compare(&snapshots[0], &snapshots[1], threshold);
    print!("{cmp}");
    let regressions = cmp.regressions();
    if regressions.is_empty() {
        println!(
            "no regressions past {:.0} % across {} benchmark(s)",
            threshold * 100.0,
            cmp.deltas.len()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "{} benchmark(s) regressed past {:.0} %",
            regressions.len(),
            threshold * 100.0
        );
        ExitCode::FAILURE
    }
}
