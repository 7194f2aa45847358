//! A lightweight benchmark harness.
//!
//! Replaces the external `criterion` dependency for the workspace's
//! `harness = false` bench targets. The model is deliberately small:
//! each benchmark is a closure, timed as median-of-[`SAMPLES`] where
//! each sample runs enough iterations to exceed a minimum measurable
//! window. Results print as a console table and are appended as
//! line-delimited JSON under `target/carbon-bench/` for diffing across
//! runs.
//!
//! `cargo test` executes `harness = false` binaries with a `--test`
//! flag; the harness detects it (and `--list`) and runs every closure
//! exactly once as a smoke test, so bench targets stay part of the
//! tier-1 suite without paying measurement cost.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Samples per benchmark; the reported time is their median.
pub const SAMPLES: usize = 11;

/// Minimum wall-clock per sample; iteration count is calibrated up
/// until one sample takes at least this long.
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(20);

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id, e.g. `"fig7/park_campaign"`.
    pub id: String,
    /// Median time per iteration.
    pub median: Duration,
    /// Fastest sample (per iteration).
    pub min: Duration,
    /// Slowest sample (per iteration).
    pub max: Duration,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

/// A named group of benchmarks, mirroring the former criterion group
/// structure so bench ids (`group/param`) are unchanged.
pub struct Harness {
    group: String,
    smoke: bool,
    results: Vec<Measurement>,
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
        let m = Measurement {
            id: full,
            median: per_iter[SAMPLES / 2],
            min: per_iter[0],
            max: per_iter[SAMPLES - 1],
            iters,
        };
        println!(
            "{:<40} median {:>12?}  (min {:?}, max {:?}, {} iters/sample)",
            m.id, m.median, m.min, m.max, m.iters
        );
        self.results.push(m);
        self
    }

    fn sample<F: FnMut()>(f: &mut F, iters: u64) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    }

    /// Writes collected results as JSON lines to
    /// `target/carbon-bench/<group>.jsonl` (measurement mode only).
    pub fn finish(&self) {
        use std::fmt::Write as _;
        if self.smoke || self.results.is_empty() {
            return;
        }
        let dir = output_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let mut out = String::new();
        for m in &self.results {
            let _ = writeln!(
                out,
                "{{\"id\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"iters\":{}}}",
                json_escape(&m.id),
                m.median.as_nanos(),
                m.min.as_nanos(),
                m.max.as_nanos(),
                m.iters
            );
        }
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

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
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
        let m = &h.results[0];
        assert_eq!(m.id, "unit/spin");
        assert!(m.min <= m.median && m.median <= m.max);
        assert!(m.iters >= 1);
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
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain/id"), "plain/id");
    }
}
