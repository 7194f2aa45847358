//! Always-on runtime metrics for the carbon-electronics stack.
//!
//! `carbon-trace` answers "what did this run decide?" — but it is
//! opt-in, off in production by design, and emits raw events. This
//! crate answers the operator's question instead: "what is this
//! process doing *right now*?" — and it is designed to stay on in
//! production, always:
//!
//! * **Hermetic** — no registry dependencies; `std` plus the shared
//!   [`carbon_json`] renderer.
//! * **Lock-free on record** — counters are sharded relaxed atomics,
//!   gauges a single atomic, histograms fixed atomic bucket arrays.
//!   Recording never allocates, never locks, never formats. The only
//!   mutex in the crate guards *registration* (rare) and *snapshot*
//!   (operator-paced).
//! * **Observation only** — no simulation or service result may depend
//!   on a metric read, so responses stay byte-identical with metrics
//!   recording at any `CARBON_THREADS`. The same contract tracing
//!   keeps, now for an always-on subsystem.
//!
//! # Model
//!
//! Three instrument kinds, owned by a [`Registry`]:
//!
//! * [`Counter`] — monotonic `u64`, sharded across cache-line-padded
//!   atomics so concurrent workers do not bounce one line.
//! * [`Gauge`] — a set-valued `i64` (queue depth, in-flight work).
//! * [`Histogram`] — a fixed 64-bucket log2 histogram over `u64`
//!   nanoseconds: bucket 0 counts zeros, bucket `k ≥ 1` counts values
//!   in `[2^(k-1), 2^k)`. Bucket boundaries are compile-time constants
//!   — every histogram in every process has the identical layout, so
//!   two shards' snapshots merge bucket-by-bucket.
//!
//! # Snapshots
//!
//! [`Registry::snapshot`] reads every instrument into a [`Snapshot`]:
//! plain data, name-sorted, mergeable ([`Snapshot::merge`]) and
//! rendered to JSON ([`Snapshot::to_json`]) with a **fixed key order**
//! (`counters`, `gauges`, `histograms`; names sorted within each) so
//! two snapshots of the same process shape are field-by-field
//! comparable — and two *different* shards' snapshots are mergeable —
//! byte-for-byte deterministically. A histogram renders its exact
//! `count`/`sum`, nearest-rank `p50`/`p90`/`p99` (deterministic
//! functions of the bucket counts: the quantile is the containing
//! bucket's upper bound), and its non-zero `[bucket, count]` pairs.
//!
//! A snapshot taken *under load* is internally consistent by
//! construction: a histogram's `count` is defined as the sum of its
//! bucket counts read once, so the invariant `count == Σ buckets`
//! cannot tear, whatever the recording concurrency. (`sum`, read
//! separately, is exact at quiescence and approximate mid-flight.)

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::missing_panics_doc
)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use carbon_json::Json;

/// Number of buckets in every [`Histogram`]. Bucket 0 counts zero
/// values; bucket `k ≥ 1` counts values in `[2^(k-1), 2^k)`; the last
/// bucket absorbs everything from `2^62` up.
pub const HIST_BUCKETS: usize = 64;

/// Shards per [`Counter`]. A power of two so the shard pick is a mask.
const COUNTER_SHARDS: usize = 16;

/// The log2 bucket a value lands in: 0 for 0, otherwise
/// `min(63, bit_length(value))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// The largest value bucket `index` can hold: 0 for bucket 0,
/// `2^index − 1` in the middle, `u64::MAX` for the last bucket. This
/// is what quantiles report — a deterministic upper bound, never an
/// interpolation that could drift between platforms.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= HIST_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// One cache line of counter state, padded so shards never share a
/// line.
#[repr(align(64))]
#[derive(Default)]
struct Shard(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter shard, assigned round-robin on first use
    /// (`usize::MAX` = unassigned).
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_id() -> usize {
    SHARD.with(|s| {
        let id = s.get();
        if id != usize::MAX {
            return id;
        }
        let id = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
        s.set(id);
        id
    })
}

/// A monotonic counter: relaxed atomic adds into per-thread shards,
/// summed on read. Totals are exact — every add lands in exactly one
/// shard — while concurrent writers on different threads typically
/// touch different cache lines.
pub struct Counter {
    shards: [Shard; COUNTER_SHARDS],
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard::default()),
        }
    }

    /// Adds `delta`. Lock-free: one thread-local read and one relaxed
    /// `fetch_add`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.shards[shard_id()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The exact total of every add so far.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("total", &self.total())
            .finish()
    }
}

/// A set-valued gauge (queue depth, in-flight chunks, uptime). Reads
/// and writes are single relaxed atomic operations.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.value.fetch_sub(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram over `u64` values (by convention,
/// nanoseconds). Recording is one relaxed `fetch_add` on the bucket
/// plus one on the running sum — no allocation, no lock, no float.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A zeroed histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Reads the histogram into plain data. The snapshot's `count` is
    /// the sum of the bucket counts read here, so it can never
    /// disagree with its own buckets, even while writers are racing.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .finish()
    }
}

/// Plain-data view of a [`Histogram`] at one instant. Mergeable
/// bucket-by-bucket: every histogram shares the same compile-time
/// bucket layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per log2 bucket (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of every recorded value (approximate while writers race;
    /// exact at quiescence).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total recorded values — by definition the sum of the bucket
    /// counts, so `count() == Σ buckets` holds for every snapshot.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank quantile upper bound: the upper boundary of the
    /// bucket containing rank `⌈p/100 · count⌉`. A pure function of
    /// the bucket counts — two snapshots with equal buckets report
    /// bit-equal quantiles on every platform. Returns 0 on an empty
    /// histogram.
    pub fn quantile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }

    /// Adds `other`'s buckets and sum into `self` — the shard-merge
    /// primitive. Identical layouts make this a plain element-wise
    /// add.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// Renders the histogram as a deterministic JSON object:
    /// `{"count":…,"sum":…,"p50":…,"p90":…,"p99":…,"buckets":[[k,n],…]}`
    /// with only the non-zero buckets listed, in ascending bucket
    /// order.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::from(i), Json::from(c)]))
            .collect();
        Json::obj()
            .push("count", self.count())
            .push("sum", self.sum)
            .push("p50", self.quantile(50.0))
            .push("p90", self.quantile(90.0))
            .push("p99", self.quantile(99.0))
            .push("buckets", Json::Arr(buckets))
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of instruments. Registration takes the mutex
/// once per *name* (callers cache the returned `Arc` handle);
/// recording through a handle never touches the registry again.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        view: impl FnOnce(&Metric) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let metric = metrics.entry(name.to_owned()).or_insert_with(make).clone();
        drop(metrics);
        view(&metric).unwrap_or_else(|| {
            panic!(
                "metric '{name}' is already registered as a {}",
                metric.kind()
            )
        })
    }

    /// The named counter, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.register(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The named gauge, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.register(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The named histogram, registered on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.register(
            name,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Reads every instrument into a [`Snapshot`]. Names come out
    /// sorted (the registry is a `BTreeMap`), so the snapshot's
    /// structure does not depend on registration timing or order.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut snap = Snapshot::default();
        for (name, metric) in metrics {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name, c.total());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name, g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name, h.snapshot());
                }
            }
        }
        snap
    }
}

/// Plain-data view of a whole [`Registry`] at one instant. Name-sorted
/// by construction, mergeable instrument-by-instrument.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Merges `other` into `self`: counters and histograms add
    /// (monotonic totals from two shards sum), gauges add as well —
    /// two shards' queue depths sum to the fleet's queue depth. Names
    /// present in only one snapshot are carried through.
    pub fn merge(&mut self, other: &Self) {
        for (name, total) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += total;
        }
        for (name, value) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Renders the snapshot as a deterministic JSON object with fixed
    /// key order: `counters`, `gauges`, `histograms`, each an object
    /// whose fields are name-sorted. Two snapshots with equal data
    /// render byte-identically.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, total) in &self.counters {
            counters = counters.push(name, *total);
        }
        let mut gauges = Json::obj();
        for (name, value) in &self.gauges {
            gauges = gauges.push(name, *value);
        }
        let mut histograms = Json::obj();
        for (name, hist) in &self.histograms {
            histograms = histograms.push(name, hist.to_json());
        }
        Json::obj()
            .push("counters", counters)
            .push("gauges", gauges)
            .push("histograms", histograms)
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry: where library layers (the runtime
/// executor, the solver) record. Service layers that need per-instance
/// isolation (one server among many in a test process) own their own
/// [`Registry`] and merge the global snapshot in at read time.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A cached handle to a counter in the [`global`] registry:
/// `global_counter!("spice.newton.iterations").add(n)`. The registry
/// is consulted once per call *site*; afterwards the probe is one
/// `OnceLock` load plus the counter's relaxed add.
#[macro_export]
macro_rules! global_counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A cached handle to a gauge in the [`global`] registry.
#[macro_export]
macro_rules! global_gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A cached handle to a histogram in the [`global`] registry.
#[macro_export]
macro_rules! global_histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_log2_with_exact_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every boundary: 2^k lands one bucket above 2^k − 1.
        for k in 1..62 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), bucket_index(v - 1) + 1, "at 2^{k}");
            assert!(v - 1 <= bucket_upper_bound(bucket_index(v - 1)));
            assert!(v > bucket_upper_bound(bucket_index(v) - 1));
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn counter_sums_exactly() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.total(), 42);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new();
        g.set(5);
        g.add(3);
        g.sub(7);
        assert_eq!(g.get(), 1);
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new();
        // 90 fast (≤ 1023 ns), 9 medium, 1 slow.
        for _ in 0..90 {
            h.record(1000);
        }
        for _ in 0..9 {
            h.record(100_000);
        }
        h.record(10_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.sum, 90 * 1000 + 9 * 100_000 + 10_000_000);
        assert_eq!(snap.quantile(50.0), 1023);
        assert_eq!(snap.quantile(90.0), 1023);
        assert_eq!(
            snap.quantile(99.0),
            bucket_upper_bound(bucket_index(100_000))
        );
        assert_eq!(
            snap.quantile(100.0),
            bucket_upper_bound(bucket_index(10_000_000))
        );
        assert_eq!(HistogramSnapshot::default().quantile(50.0), 0);
    }

    #[test]
    fn histogram_snapshot_merge_is_elementwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(2000);
        b.record(10);
        b.record(3_000_000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.sum, 10 + 2000 + 10 + 3_000_000);
        assert_eq!(merged.buckets[bucket_index(10)], 2);
    }

    #[test]
    fn registry_returns_one_instrument_per_name() {
        let r = Registry::new();
        let c1 = r.counter("x.hits");
        let c2 = r.counter("x.hits");
        c1.incr();
        c2.incr();
        assert_eq!(c1.total(), 2);
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn registry_rejects_kind_clashes() {
        let r = Registry::new();
        let _c = r.counter("x.clash");
        let _g = r.gauge("x.clash");
    }

    #[test]
    fn snapshot_is_name_sorted_and_renders_fixed_key_order() {
        let r = Registry::new();
        r.counter("z.last").add(3);
        r.counter("a.first").add(1);
        r.gauge("m.depth").set(7);
        r.histogram("l.lat").record(5);
        let json = r.snapshot().to_json().render();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"z.last\":3},\
             \"gauges\":{\"m.depth\":7},\
             \"histograms\":{\"l.lat\":{\"count\":1,\"sum\":5,\"p50\":7,\"p90\":7,\
             \"p99\":7,\"buckets\":[[3,1]]}}}"
        );
        // Registration order reversed produces the identical bytes.
        let r2 = Registry::new();
        r2.histogram("l.lat").record(5);
        r2.gauge("m.depth").set(7);
        r2.counter("a.first").add(1);
        r2.counter("z.last").add(3);
        assert_eq!(r2.snapshot().to_json().render(), json);
    }

    #[test]
    fn snapshot_merge_covers_disjoint_and_shared_names() {
        let a = Registry::new();
        a.counter("shared").add(2);
        a.counter("only_a").add(1);
        a.gauge("depth").set(3);
        a.histogram("lat").record(100);
        let b = Registry::new();
        b.counter("shared").add(5);
        b.gauge("depth").set(4);
        b.histogram("lat").record(100_000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counters["shared"], 7);
        assert_eq!(merged.counters["only_a"], 1);
        assert_eq!(merged.gauges["depth"], 7, "shard depths sum");
        assert_eq!(merged.histograms["lat"].count(), 2);
    }

    #[test]
    fn global_macros_cache_their_handles() {
        global_counter!("unit.metrics.global_hits").add(2);
        global_counter!("unit.metrics.global_hits").incr();
        assert_eq!(global().counter("unit.metrics.global_hits").total(), 3);
        global_gauge!("unit.metrics.global_depth").set(9);
        assert_eq!(global().gauge("unit.metrics.global_depth").get(), 9);
        global_histogram!("unit.metrics.global_lat").record(12);
        assert_eq!(
            global()
                .histogram("unit.metrics.global_lat")
                .snapshot()
                .count(),
            1
        );
    }
}
