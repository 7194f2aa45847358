//! The determinism oracle for every deterministic `carbon-bench`
//! report: the same bytes at `CARBON_THREADS` 1, 2, 4 and 8, with and
//! without the `CARBON_TRACE` exporter, pinned to golden FNV-1a 64
//! digests; the report's spans in every traced run's `trace-summary`;
//! and every row of the baselines in `benches/baseline/` present and
//! no larger. Each run is
//! a fresh process, so the thread count and the env-installed exporter
//! behave exactly as on the command line. EXPERIMENTS.md says how to
//! update the golden values.

use std::process::Command;

use carbon_bench::compare::{compare, parse_jsonl};
use carbon_bench::summary::summarize;
use carbon_bench::Fnv;
use carbon_runtime::bench::Record;

/// `carbon-bench` arguments, golden FNV-1a 64 of stdout, and the spans
/// (space-separated) every traced run must record.
type Case = (&'static str, u64, &'static str);

const CASES: [Case; 6] = [
    ("fig2", 0x60ad_0fd8_d93c_9c0e, "spice.newton_solve"),
    ("fig7", 0xdb78_5add_54d2_2a94, ""),
    ("ac", 0x651a_5412_2c3e_6def, "spice.ac_sweep"),
    ("tran", 0x2b79_e69d_7eba_0329, "spice.transient"),
    ("batch", 0xe91c_00e0_1ee9_6c49, ""),
    (
        "econ",
        0x41f0_9b30_5329_cfcf,
        "econ.campaign runtime.run_chunked",
    ),
];

/// The thread count every baseline was captured at.
const BASELINE_THREADS: &str = "2";

#[test]
fn reports_are_pinned_at_every_thread_count_traced_or_not() {
    let mut failures = Vec::new();
    for case @ (args, ..) in CASES {
        for threads in ["1", "2", "4", "8"] {
            for traced in [false, true] {
                if let Err(e) = check_run(case, threads, traced) {
                    failures.push(format!(
                        "`{args}` at {threads} threads, traced {traced}: {e}"
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn check_run((args, golden, spans): Case, threads: &str, traced: bool) -> Result<(), String> {
    let (stdout, trace) = run(args, threads, traced)?;
    let mut h = Fnv::new();
    h.write(stdout.as_bytes());
    let digest = h.finish();
    if digest != golden {
        return Err(format!("digest {digest:016x}, golden {golden:016x}"));
    }
    let Some(trace) = trace else { return Ok(()) };
    let summary = summarize(&trace);
    for span in spans.split_whitespace() {
        let id = format!("trace/{span}/dur_ns");
        if !summary.stats.iter().any(|s| s.id == id) {
            return Err(format!("trace summary has no {id} row"));
        }
    }
    let mut rows = summary.stats;
    let baseline = match (args, threads) {
        ("fig2", BASELINE_THREADS) => include_str!("../../../benches/baseline/fig2-trace.jsonl"),
        ("fig7", BASELINE_THREADS) => include_str!("../../../benches/baseline/fig7-trace.jsonl"),
        _ => return Ok(()),
    };
    // The convergence rows: wall-clock `/dur_ns` rows differ run to run.
    rows.retain(|r| !r.id.contains("/dur_ns"));
    no_growth(baseline, &rows)
}

/// Runs `carbon-bench args` at `CARBON_THREADS = threads` and returns
/// its stdout and, when `traced`, its trace.
fn run(args: &str, threads: &str, traced: bool) -> Result<(String, Option<String>), String> {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/digest_matrix.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_carbon-bench"));
    cmd.args(args.split(' '))
        .env("CARBON_THREADS", threads)
        .env_remove("CARBON_TRACE");
    if traced {
        cmd.env("CARBON_TRACE", path);
    }
    let out = cmd.output().expect("carbon-bench starts");
    // Removed right after reading, so no trace stands in for a later
    // run's and none of the megabyte-sized ones lingers.
    let trace = traced.then(|| {
        let text = std::fs::read_to_string(path);
        let _ = std::fs::remove_file(path);
        text.map_err(|e| format!("no trace at {path}: {e}"))
    });
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("carbon-bench exited with {}: {stderr}", out.status));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    Ok((stdout, trace.transpose()?))
}

/// Fails when a baseline row is missing from `rows` (a renamed span or
/// a dropped field would otherwise leave the gate unseen), or when any
/// row's median grew past the committed baseline's (`carbon-bench
/// compare --threshold 0`).
fn no_growth(baseline: &str, rows: &[Record]) -> Result<(), String> {
    let old = parse_jsonl(baseline)?;
    let cmp = compare(&old, rows, 0.0);
    if !cmp.only_old.is_empty() {
        return Err(format!(
            "baseline rows missing from the traced run: {}",
            cmp.only_old.join(", ")
        ));
    }
    if cmp.regressions().is_empty() {
        return Ok(());
    }
    Err(format!("rows grew past the committed baseline:\n{cmp}"))
}
