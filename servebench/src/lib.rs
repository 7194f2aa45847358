//! servebench: the end-to-end carbon-serve benchmark.
//!
//! One command drives an in-process server over loopback with a fixed,
//! seed-built job list per workload (`interactive`, `circuit`,
//! `campaign`), checks every answer against an in-process rerun, and
//! prints end-to-end metrics; `--trace 1` instead prints the per-layer
//! ledger. See `NOTES.md` beside this crate for why each workload
//! exists and what it loads.

pub mod drive;
pub mod host;
pub mod ledger;
pub mod workload;

/// End-to-end metrics of an untraced run's result line: name and
/// unit. The run also prints `jobs_per_s`, `latency_p90_ms` and
/// `failed_share`, which are left out of the result line: the first
/// two follow the time other tenants steal from a shared host's vCPUs
/// more than a usable bound allows, and the last is 0 in every good
/// run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// FNV-1a 64 of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = carbon_json::Fnv::new();
    h.write(bytes);
    h.finish()
}

/// The `q`-quantile (0..=1) of sorted values, interpolating linearly
/// between neighbouring order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no values");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    quantile(&sorted, 0.5)
}
