//! Regression comparison of two benchmark JSONL snapshots.
//!
//! The harness ([`carbon_runtime::bench`]) writes one [`Record`] per
//! benchmark to `target/carbon-bench/<group>.jsonl`, and
//! `trace-summary` writes trace statistics in the same row. This module
//! reads those lines back ([`parse_jsonl`]) and diffs two snapshots:
//! the `carbon-bench` binary's `compare` subcommand exits nonzero when
//! any benchmark's median regresses past a threshold, which `ci.sh`
//! can opt into via `CARBON_BENCH_COMPARE=1`.

use std::collections::BTreeMap;
use std::fmt;

use carbon_runtime::bench::Record;

/// Parses a benchmark snapshot (one [`Record`] per non-empty line).
///
/// # Errors
///
/// Names the first bad line (1-based) and what is wrong with it.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(k, line)| Record::parse(line).map_err(|reason| format!("line {}: {reason}", k + 1)))
        .collect()
}

/// One row of a snapshot comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Benchmark id present in both snapshots.
    pub id: String,
    /// Baseline median, ns.
    pub old_ns: u64,
    /// Candidate median, ns.
    pub new_ns: u64,
    /// Relative change, `new/old − 1` (positive = slower).
    pub change: f64,
    /// The baseline's slowest sample, ns: the upper edge of its noise
    /// band.
    pub old_max_ns: u64,
}

impl Delta {
    /// Whether this delta is a regression at `threshold`: the median
    /// must have grown past the threshold **and** past the baseline's
    /// slowest sample. A noisy benchmark whose baseline band already
    /// covers the new median is jitter, not a regression.
    pub fn regressed(&self, threshold: f64) -> bool {
        self.change > threshold && self.new_ns > self.old_max_ns
    }
}

/// Outcome of diffing two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-benchmark deltas for ids present in both snapshots, in
    /// baseline order.
    pub deltas: Vec<Delta>,
    /// Ids only in the baseline (removed benchmarks).
    pub only_old: Vec<String>,
    /// Ids only in the candidate (new benchmarks).
    pub only_new: Vec<String>,
    /// Regression threshold the comparison was run with.
    pub threshold: f64,
}

impl Comparison {
    /// Deltas whose median regressed beyond the threshold *and* the
    /// baseline's noise band (see [`Delta::regressed`]).
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.regressed(self.threshold))
            .collect()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<44} {:>12} {:>12} {:>9}",
            "benchmark", "old median", "new median", "change"
        )?;
        for d in &self.deltas {
            let flag = if d.regressed(self.threshold) {
                "  REGRESSED"
            } else if d.change > self.threshold {
                "  within noise band"
            } else {
                ""
            };
            writeln!(
                f,
                "{:<44} {:>10}ns {:>10}ns {:>+8.1}%{flag}",
                d.id,
                d.old_ns,
                d.new_ns,
                d.change * 100.0
            )?;
        }
        for id in &self.only_old {
            writeln!(f, "{id:<44} (removed — only in baseline)")?;
        }
        for id in &self.only_new {
            writeln!(f, "{id:<44} (new — not in baseline)")?;
        }
        Ok(())
    }
}

/// Diffs `new` against the `old` baseline, flagging medians that grew
/// more than `threshold` (e.g. `0.10` = 10 % slower).
///
/// Duplicate ids within one snapshot keep the last occurrence, matching
/// "append and re-run" harness usage.
pub fn compare(old: &[Record], new: &[Record], threshold: f64) -> Comparison {
    let new_by_id: BTreeMap<&str, u64> = new.iter().map(|r| (r.id.as_str(), r.median_ns)).collect();
    let old_by_id: BTreeMap<&str, &Record> = old.iter().map(|r| (r.id.as_str(), r)).collect();

    let mut seen = std::collections::BTreeSet::new();
    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    for r in old {
        if !seen.insert(r.id.as_str()) {
            continue;
        }
        let old_rec = old_by_id[r.id.as_str()];
        let old_ns = old_rec.median_ns;
        match new_by_id.get(r.id.as_str()) {
            Some(&new_ns) => deltas.push(Delta {
                id: r.id.clone(),
                old_ns,
                new_ns,
                change: if old_ns == 0 {
                    0.0
                } else {
                    new_ns as f64 / old_ns as f64 - 1.0
                },
                old_max_ns: old_rec.max_ns,
            }),
            None => only_old.push(r.id.clone()),
        }
    }
    let mut only_new: Vec<String> = new
        .iter()
        .filter(|r| !old_by_id.contains_key(r.id.as_str()))
        .map(|r| r.id.clone())
        .collect();
    only_new.dedup();
    Comparison {
        deltas,
        only_old,
        only_new,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, ns: u64) -> Record {
        rec_band(id, ns, ns, ns)
    }

    fn rec_band(id: &str, ns: u64, min: u64, max: u64) -> Record {
        Record {
            id: id.into(),
            median_ns: ns,
            min_ns: min,
            max_ns: max,
            iters: 1,
        }
    }

    #[test]
    fn parses_harness_output() {
        let text = "{\"id\":\"solver/op/8\",\"median_ns\":2763,\"min_ns\":2659,\"max_ns\":3193,\"iters\":1}\n\n{\"id\":\"a\\\"b\",\"median_ns\":5,\"min_ns\":5,\"max_ns\":5,\"iters\":1}\n";
        let recs = parse_jsonl(text).unwrap();
        assert_eq!(
            recs,
            vec![rec_band("solver/op/8", 2763, 2659, 3193), rec("a\"b", 5)]
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_jsonl("\n{\"id\":\"x\"}").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        assert!(err.contains("median_ns"), "{err}");
        assert!(parse_jsonl("{\"median_ns\":3}").is_err());
        // Every row carries its noise band.
        let err = parse_jsonl("{\"id\":\"x\",\"median_ns\":5,\"iters\":1}").unwrap_err();
        assert!(err.contains("min_ns"), "{err}");
    }

    #[test]
    fn flags_only_regressions_past_threshold() {
        let old = [rec("a", 1000), rec("b", 1000), rec("c", 1000)];
        let new = [rec("a", 1099), rec("b", 1250), rec("c", 400)];
        let cmp = compare(&old, &new, 0.10);
        let regs = cmp.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "b");
        assert!((regs[0].change - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tracks_added_and_removed_benchmarks() {
        let old = [rec("gone", 10), rec("kept", 10)];
        let new = [rec("kept", 10), rec("fresh", 10)];
        let cmp = compare(&old, &new, 0.10);
        assert_eq!(cmp.only_old, vec!["gone".to_string()]);
        assert_eq!(cmp.only_new, vec!["fresh".to_string()]);
        assert_eq!(cmp.deltas.len(), 1);
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn noise_band_suppresses_jitter_regressions() {
        // Median grew 20 % but stays inside the baseline's own observed
        // min..max spread: jitter, not a regression.
        let old = [rec_band("noisy", 1000, 800, 1300)];
        let new = [rec("noisy", 1200)];
        let cmp = compare(&old, &new, 0.10);
        assert!(cmp.regressions().is_empty(), "{cmp}");
        assert!(cmp.to_string().contains("within noise band"), "{cmp}");

        // Past both the threshold and the band: a real regression.
        let cmp = compare(&old, &[rec("noisy", 1400)], 0.10);
        assert_eq!(cmp.regressions().len(), 1);

        // Inside the band but below the threshold: nothing flagged.
        let cmp = compare(&old, &[rec("noisy", 1050)], 0.10);
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn display_marks_regressions() {
        let cmp = compare(&[rec("slow/one", 100)], &[rec("slow/one", 200)], 0.10);
        let text = cmp.to_string();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("+100.0%"), "{text}");
    }
}
