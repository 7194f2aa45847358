//! The `carbon-bench` CLI paths that ci.sh's opt-in
//! `CARBON_BENCH_COMPARE=1` gate runs: `compare` exits 0 on no
//! regression, 1 on a regression and 2 on an unreadable snapshot, and
//! `trace-summary` prints rows that `compare` reads back.

use std::process::{Command, Output};

use carbon_bench::compare::parse_jsonl;
use carbon_bench::summary::summarize;

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../benches/baseline/solver.jsonl"
);

fn carbon_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_carbon-bench"))
        .args(args)
        .output()
        .expect("carbon-bench starts")
}

/// Writes `text` to a file under the test's scratch directory.
fn scratch(name: &str, text: &str) -> String {
    let path = format!("{}/cli-{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, text).expect("scratch file");
    path
}

#[test]
fn compare_passes_a_baseline_against_itself() {
    let out = carbon_bench(&["compare", BASELINE, BASELINE]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("no regressions past 10 %"), "{stdout}");
}

#[test]
fn compare_fails_a_median_past_the_threshold_and_the_band() {
    let mut rows = parse_jsonl(&std::fs::read_to_string(BASELINE).unwrap()).unwrap();
    let slow = &mut rows[0];
    slow.median_ns = slow.max_ns.max(slow.median_ns * 12 / 10) + 1;
    let id = slow.id.clone();
    let text: String = rows.iter().map(|r| r.render() + "\n").collect();
    let out = carbon_bench(&["compare", BASELINE, &scratch("slow.jsonl", &text)]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let flagged: Vec<&str> = stdout
        .lines()
        .filter(|l| l.ends_with("REGRESSED"))
        .collect();
    assert_eq!(flagged.len(), 1, "{stdout}");
    assert!(flagged[0].starts_with(&format!("{id} ")), "{stdout}");
    assert!(
        stdout.contains("1 benchmark(s) regressed past 10 %"),
        "{stdout}"
    );
}

#[test]
fn compare_rejects_a_line_without_a_median() {
    let mut lines: Vec<String> = std::fs::read_to_string(BASELINE)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    lines[2] = "{\"id\":\"solver/broken\",\"min_ns\":1,\"max_ns\":2,\"iters\":3}".into();
    let path = scratch("broken.jsonl", &(lines.join("\n") + "\n"));
    let out = carbon_bench(&["compare", BASELINE, &path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("line 3: "), "{stderr}");
    assert!(stderr.contains("median_ns"), "{stderr}");
}

#[test]
fn trace_summary_prints_rows_that_parse_back() {
    let trace = concat!(
        "{\"ev\":\"span\",\"name\":\"spice.newton_solve\",\"id\":1,\"thread\":1,",
        "\"start_ns\":0,\"dur_ns\":900,\"fields\":{\"iters\":3,\"converged\":true}}\n",
        "{\"ev\":\"span\",\"name\":\"spice.newton_solve\",\"id\":2,\"parent\":1,\"thread\":1,",
        "\"start_ns\":10,\"dur_ns\":500,\"fields\":{\"iters\":9,\"residual\":1e-9}}\n",
        "{\"ev\":\"instant\",\"name\":\"spice.continuation_halve\",\"thread\":1,",
        "\"at_ns\":50,\"fields\":{\"depth\":1}}\n",
    );
    let out = carbon_bench(&["trace-summary", &scratch("trace.jsonl", trace)]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let rows = parse_jsonl(&stdout).unwrap();
    assert_eq!(rows, summarize(trace).stats);
    let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "trace/instant/spice.continuation_halve",
            "trace/spice.newton_solve/dur_ns",
            "trace/spice.newton_solve/iters",
        ]
    );
}
