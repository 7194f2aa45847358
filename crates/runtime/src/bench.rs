//! A lightweight benchmark harness.
//!
//! Replaces the external `criterion` dependency for the workspace's
//! `harness = false` bench targets. The model is deliberately small:
//! each benchmark is a closure, timed as median-of-[`SAMPLES`] where
//! each sample runs enough iterations to exceed a minimum measurable
//! window. Results print as a console table and are written as one
//! [`Record`] per line under `target/carbon-bench/` for diffing across
//! runs.
//!
//! `cargo test` executes `harness = false` binaries with a `--test`
//! flag; the harness detects it (and `--list`) and runs every closure
//! exactly once as a smoke test, so bench targets stay part of the
//! tier-1 suite without paying measurement cost.

use std::time::{Duration, Instant};

use carbon_json::Json;

pub use std::hint::black_box;

/// Samples per benchmark; the reported time is their median.
pub const SAMPLES: usize = 11;

/// Minimum wall-clock per sample; iteration count is calibrated up
/// until one sample takes at least this long.
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(20);

/// One row of a benchmark snapshot, one JSON line in the key order
/// below. The harness writes one per benchmark; `carbon-bench
/// trace-summary` writes trace statistics in the same row, and
/// `carbon-bench compare` reads both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Benchmark id, e.g. `"fig7/park_campaign"`.
    pub id: String,
    /// Median time per iteration, ns.
    pub median_ns: u64,
    /// Fastest sample per iteration, ns: the lower edge of the run's
    /// noise band.
    pub min_ns: u64,
    /// Slowest sample per iteration, ns: the upper edge of the band.
    pub max_ns: u64,
    /// Iterations per sample after calibration (for a trace
    /// statistic, the observations folded in).
    pub iters: u64,
}

impl Record {
    /// The row as one compact JSON line, without the newline.
    pub fn render(&self) -> String {
        Json::obj()
            .push("id", self.id.as_str())
            .push("median_ns", self.median_ns)
            .push("min_ns", self.min_ns)
            .push("max_ns", self.max_ns)
            .push("iters", self.iters)
            .render()
    }

    /// Reads one row back from its JSON line.
    ///
    /// # Errors
    ///
    /// Says why a line is not JSON, or which field is missing: a
    /// string `id` and four non-negative integers are required.
    pub fn parse(line: &str) -> Result<Self, String> {
        let row = Json::parse(line).map_err(|e| e.to_string())?;
        let int = |key: &str| {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing \"{key}\" integer field"))
        };
        Ok(Self {
            id: row
                .get("id")
                .and_then(Json::as_str)
                .ok_or("missing \"id\" string field")?
                .to_owned(),
            median_ns: int("median_ns")?,
            min_ns: int("min_ns")?,
            max_ns: int("max_ns")?,
            iters: int("iters")?,
        })
    }
}

/// A named group of benchmarks, mirroring the former criterion group
/// structure so bench ids (`group/param`) are unchanged.
pub struct Harness {
    group: String,
    smoke: bool,
    results: Vec<Record>,
}

impl Harness {
    /// Creates a harness for one bench group, inspecting CLI args to
    /// decide between measurement and smoke-test mode.
    pub fn group(name: &str) -> Self {
        let smoke = std::env::args()
            .skip(1)
            .any(|a| a == "--test" || a == "--list");
        if std::env::args().skip(1).any(|a| a == "--list") {
            // `cargo test -- --list` expects test enumeration output;
            // an empty listing keeps it happy.
            println!("0 tests, 0 benchmarks");
        }
        Self {
            group: name.to_string(),
            smoke,
            results: Vec::new(),
        }
    }

    /// Times `f`, reporting it as `group/id`.
    ///
    /// Wrap inputs and outputs in [`black_box`] inside the closure to
    /// keep the optimizer honest.
    pub fn bench<F: FnMut()>(&mut self, id: &str, mut f: F) -> &mut Self {
        let full = format!("{}/{}", self.group, id);
        if self.smoke {
            f();
            println!("smoke {full}: ok");
            return self;
        }

        // Calibrate: grow the iteration count until one sample clears
        // the minimum window.
        let mut iters: u64 = 1;
        loop {
            let t = Self::sample(&mut f, iters);
            if t >= MIN_SAMPLE_TIME || iters >= 1 << 24 {
                break;
            }
            // Aim 2× past the target to converge in few rounds.
            let scale = (MIN_SAMPLE_TIME.as_secs_f64() / t.as_secs_f64().max(1e-9)) * 2.0;
            iters = (iters as f64 * scale.clamp(2.0, 100.0)) as u64;
        }

        let mut per_iter: Vec<Duration> = (0..SAMPLES)
            .map(|_| Self::sample(&mut f, iters) / iters as u32)
            .collect();
        per_iter.sort();
        let (median, min, max) = (per_iter[SAMPLES / 2], per_iter[0], per_iter[SAMPLES - 1]);
        println!(
            "{full:<40} median {median:>12?}  (min {min:?}, max {max:?}, {iters} iters/sample)"
        );
        self.results.push(Record {
            id: full,
            median_ns: median.as_nanos() as u64,
            min_ns: min.as_nanos() as u64,
            max_ns: max.as_nanos() as u64,
            iters,
        });
        self
    }

    fn sample<F: FnMut()>(f: &mut F, iters: u64) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    }

    /// Writes collected results, one [`Record`] line each, to
    /// `target/carbon-bench/<group>.jsonl` (measurement mode only).
    pub fn finish(&self) {
        if self.smoke || self.results.is_empty() {
            return;
        }
        let dir = output_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let out: String = self.results.iter().map(|r| r.render() + "\n").collect();
        let path = dir.join(format!("{}.jsonl", self.group.replace('/', "_")));
        if std::fs::write(&path, out).is_ok() {
            println!("bench results written to {}", path.display());
        }
    }
}

/// Resolves the JSONL output directory. Cargo runs bench executables
/// with the *package* root as working directory, so a bare relative
/// `target/` would scatter results across member crates; prefer
/// `CARGO_TARGET_DIR`, then the workspace target dir (the nearest
/// ancestor holding a `Cargo.lock`).
fn output_dir() -> std::path::PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        return std::path::PathBuf::from(dir).join("carbon-bench");
    }
    if let Ok(mut cwd) = std::env::current_dir() {
        loop {
            if cwd.join("Cargo.lock").exists() {
                return cwd.join("target").join("carbon-bench");
            }
            if !cwd.pop() {
                break;
            }
        }
    }
    std::path::Path::new("target").join("carbon-bench")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_produces_ordered_stats() {
        // Note: unit tests don't see the bench binary's `--test` flag,
        // so force measurement mode with a cheap closure.
        let mut h = Harness {
            group: "unit".into(),
            smoke: false,
            results: Vec::new(),
        };
        let mut acc = 0u64;
        h.bench("spin", || {
            acc = black_box(acc.wrapping_add(1));
        });
        let r = &h.results[0];
        assert_eq!(r.id, "unit/spin");
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.iters >= 1);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut h = Harness {
            group: "unit".into(),
            smoke: true,
            results: Vec::new(),
        };
        let mut runs = 0;
        h.bench("once", || runs += 1);
        assert_eq!(runs, 1);
        assert!(h.results.is_empty());
        h.finish();
    }

    #[test]
    fn a_record_renders_its_line_and_parses_it_back() {
        let line = "{\"id\":\"solver/op/8\",\"median_ns\":2763,\"min_ns\":2659,\"max_ns\":3193,\"iters\":10000}";
        let r = Record::parse(line).unwrap();
        assert_eq!(
            (r.id.as_str(), r.median_ns, r.min_ns, r.max_ns, r.iters),
            ("solver/op/8", 2763, 2659, 3193, 10_000)
        );
        assert_eq!(r.render(), line);
        let quoted = Record {
            id: "a\"b\\c\nd".into(),
            ..r
        };
        assert_eq!(Record::parse(&quoted.render()).unwrap(), quoted);
    }

    #[test]
    fn a_record_line_names_what_it_lacks() {
        let err = Record::parse("{\"id\":\"x\",\"median_ns\":5,\"max_ns\":9,\"iters\":1}");
        assert_eq!(err.unwrap_err(), "missing \"min_ns\" integer field");
        let err = Record::parse("{\"median_ns\":5}").unwrap_err();
        assert_eq!(err, "missing \"id\" string field");
        assert!(Record::parse("{\"id\":\"x\",")
            .unwrap_err()
            .contains("invalid JSON"));
    }
}
