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
//! min..max noise band.
//!
//! `trace-summary` folds a `CARBON_TRACE` JSONL event stream into the
//! same schema `compare` consumes (span duration stats, integer-field
//! stats, instant counts), printed to stdout. With `--folded` it
//! instead emits flamegraph folded stacks — one
//! `root;child;leaf self_ns` line per call path, self time only — for
//! direct consumption by `flamegraph.pl` / `inferno`.
//!
//! `batch` evaluates every device model's scalar `ids` over fixed bias
//! lanes and prints one digest row per model, one row for the same
//! table lanes through the executor-chunked `carbon_devices::par_ids`,
//! and one row for the adaptive §V Monte-Carlo campaign.
//!
//! `fig2` runs the Fig. 2 experiment and prints its report.
//!
//! `ac` runs a serial sparse AC sweep of the 64-stage RC ladder and
//! prints every phasor at full precision.
//!
//! `fig7` runs the §V statistics experiment and prints its report.
//!
//! `tran` runs the `tran_ramp` (stiff power-on ramp) and `tran_ring`
//! (3-stage ring oscillator) transient workloads under both stepping
//! methods and prints one row per run: deck, method, accepted/rejected
//! step counts, and an FNV-1a 64 digest over every time point's and
//! voltage's exact bit pattern. The fixed-vs-adaptive step ratio on
//! the ramp deck is the adaptive method's speedup evidence.
//!
//! `econ` runs the §V wafer-economics campaign in-process through the
//! chunked executor: a 512-cell node × area × defect × purity grid in
//! fixed mode, then the same grid in adaptive (CI-targeted) mode, each
//! folded to an FNV-1a 64 digest over every cell's exact bit patterns.
//!
//! Every report is a pure function of its inputs: the same bytes at
//! any `CARBON_THREADS`, traced or not. `tests/digest_matrix.rs` pins
//! each one to a golden digest. This binary starts no server; the
//! carbon-serve service is load-tested by `servebench`.

use std::process::ExitCode;

use carbon_bench::compare::{compare, parse_jsonl};
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
         carbon-bench econ"
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

/// Evaluates one model's scalar `ids` over the lanes and prints the
/// digest row.
fn batch_row(name: &str, model: &dyn carbon_spice::FetCurve, n: usize) {
    let (vgs, vds) = batch_lanes(n);
    let mut digest = carbon_bench::Fnv::new();
    for (&g, &d) in vgs.iter().zip(&vds) {
        digest.write_f64(model.ids(g, d));
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
    // still covers every branch of the model.
    batch_row("ballistic", &table_src, 64);

    // The executor-chunked entry point: this row is what makes the
    // batch digest's thread-count independence meaningful.
    let (vgs, vds) = batch_lanes(4096);
    let par = carbon_devices::par_ids(&table, &vgs, &vds);
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
    // Nothing stored: every round is drawn.
    let ex = carbon_runtime::Executor::new();
    let campaign = carbon_fab::Campaign::sample(
        carbon_fab::VariabilityModel::park_experiment(),
        &ex,
        2014,
        0,
    )
    // Tight enough to need several growth rounds, so the chunk
    // extension path is actually exercised.
    .grow(&ex, 0.01, 100_000)
    .expect("no cancel token is installed");
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
    // A sparse-path system (66 unknowns) swept serially: it never
    // touches the executor, so this report is byte-identical at every
    // CARBON_THREADS.
    let ckt = carbon_bench::rc_ladder(64);
    let freqs = carbon_bench::log_freqs(40, 1e3, 1e9);
    match ckt.ac_sweep("vin", &freqs) {
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
            let tran = match build().transient(tstep, tstop, opts) {
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
    ExitCode::SUCCESS
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
