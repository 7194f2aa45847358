//! Deterministic parallel execution of Monte-Carlo campaigns and bias
//! sweeps.
//!
//! The workspace's hottest loops share one shape: `N` independent
//! evaluations (a sampled device, a solved bias point, a swept gate
//! length) folded into a result vector. [`Executor`] runs that shape
//! across `std::thread::scope` workers with a **determinism contract**:
//!
//! > The output of [`Executor::par_map`] and [`Executor::par_mc`] is
//! > bit-identical at every thread count, including 1.
//!
//! For pure functions ([`par_map`](Executor::par_map)) this is free —
//! results are written back by item index. For stochastic work
//! ([`par_mc`](Executor::par_mc)) the items are partitioned into
//! *fixed-size* chunks (independent of thread count) and chunk `k`
//! draws from [`Xoshiro256pp::from_seed_and_stream`]`(seed, k)`, so the
//! random sequence an item sees depends only on the seed and its index,
//! never on scheduling.
//!
//! The calling thread and up to `threads - 1` scoped helpers pull
//! chunks from an atomic cursor (no work-stealing state to seed). Each
//! is an executor worker while it pulls, so nested calls run inline on
//! it, and a parallel sweep over devices whose model itself
//! parallelizes cannot oversubscribe the machine. A call with one chunk
//! or one thread runs on the caller alone and leaves the caller's
//! worker flag as it was, so a call nested inside it may still fan out.
//! A thread whose pool already keeps every core busy — a `carbon-serve`
//! job worker under load — joins that rule through [`as_worker`].

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use carbon_metrics::{global_gauge, global_histogram, Gauge};
use carbon_trace::span;

use crate::rng::Xoshiro256pp;

/// Items per RNG stream in [`Executor::par_mc`]. Fixed (never derived
/// from the thread count) — this constant *is* the determinism contract
/// for stochastic work, so changing it changes every campaign's draws.
pub const MC_CHUNK: usize = 1024;

thread_local! {
    /// Set while the current thread is an executor worker: a helper, a
    /// caller while helpers run beside it, or a thread inside
    /// [`as_worker`]. Nested executor calls then run inline instead of
    /// spawning again.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` as an executor worker: every executor call `f` makes on
/// this thread runs inline, its chunks in order on this thread, instead
/// of spawning scoped helpers. Results are unchanged (the determinism
/// contract holds at one thread), and chunk spans keep the caller's
/// open span as their ancestor. A fanned-out call runs the caller's own
/// share of the chunks under it while its helpers run beside it.
///
/// For a thread that is one worker of a pool whose running jobs already
/// keep every core busy, such as a loaded `carbon-serve` job worker:
/// fanning out again there only oversubscribes the machine. The
/// previous state is restored when `f` returns or unwinds.
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// A scoped-thread pool descriptor with deterministic scheduling
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Creates an executor sized for the machine: the `CARBON_THREADS`
    /// environment variable if set, read on every call, otherwise
    /// `available_parallelism`, asked once per process (on Linux it
    /// reads the cgroup CPU quota files, tens of microseconds a call).
    pub fn new() -> Self {
        static MACHINE: OnceLock<usize> = OnceLock::new();
        let threads = std::env::var("CARBON_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                *MACHINE.get_or_init(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })
            });
        Self::with_threads(threads)
    }

    /// Creates an executor with an explicit worker count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// `f` must be pure for the determinism contract to mean anything;
    /// the executor guarantees only that result `i` lands at index `i`.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // One item per chunk keeps long-tailed sweeps (e.g. the Fig. 5
        // gate-length ladder, where 3 µm devices cost far more than
        // 9 nm ones) balanced.
        self.run_chunked(n, 1, |chunk_start, _chunk_index, out| {
            out.push(f(chunk_start));
        })
    }

    /// Runs `n` stochastic evaluations seeded from `seed`, returning
    /// results in index order.
    ///
    /// Item `i` draws from the chunk generator of chunk `i / MC_CHUNK`,
    /// which is `Xoshiro256pp::from_seed_and_stream(seed, i / MC_CHUNK)`
    /// advanced by the items before it in the chunk. The schedule —
    /// which worker runs which chunk, and in what order — cannot affect
    /// any draw.
    pub fn par_mc<T, F>(&self, seed: u64, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut Xoshiro256pp) -> T + Sync,
    {
        self.par_mc_extend(seed, 0, n, f)
    }

    /// Extends a [`par_mc`](Self::par_mc) campaign: evaluates items
    /// `start..end` of the run seeded from `seed`, returning their
    /// results in index order.
    ///
    /// `start` must be chunk-aligned (a multiple of [`MC_CHUNK`]).
    /// Because chunk `k` always draws from
    /// `Xoshiro256pp::from_seed_and_stream(seed, k)` regardless of how
    /// many chunks ran before it, the concatenation of aligned extend
    /// calls is **bit-identical** to one `par_mc(seed, end, f)` of the
    /// full length — at any thread count. This is what adaptive
    /// campaign sizing grows on: each round appends chunks without
    /// re-drawing (or perturbing) a single earlier sample.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a multiple of [`MC_CHUNK`] or
    /// `start > end`.
    pub fn par_mc_extend<T, F>(&self, seed: u64, start: usize, end: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut Xoshiro256pp) -> T + Sync,
    {
        assert!(
            start.is_multiple_of(MC_CHUNK),
            "par_mc_extend start = {start} must be a multiple of MC_CHUNK = {MC_CHUNK}"
        );
        assert!(start <= end, "par_mc_extend start = {start} > end = {end}");
        let base_chunk = start / MC_CHUNK;
        self.run_chunked(end - start, MC_CHUNK, |chunk_start, chunk_index, out| {
            let global_chunk = (base_chunk + chunk_index) as u64;
            let mut rng = Xoshiro256pp::from_seed_and_stream(seed, global_chunk);
            let i0 = start + chunk_start;
            let i1 = (i0 + MC_CHUNK).min(end);
            for i in i0..i1 {
                out.push(f(i, &mut rng));
            }
        })
    }

    /// Runs `n` *expensive* stochastic evaluations seeded from `seed`,
    /// returning results in index order.
    ///
    /// Unlike [`par_mc`](Self::par_mc), every item gets its own RNG
    /// stream (`Xoshiro256pp::from_seed_and_stream(seed, i)`) and its
    /// own schedule slot. Stream setup costs a few dozen nanoseconds
    /// per item, so use this when each evaluation is heavy — a Newton
    /// solve, a VTC sweep — and [`par_mc`](Self::par_mc) when it is a
    /// handful of draws. Equally deterministic: item `i`'s draws depend
    /// only on `(seed, i)`.
    pub fn par_mc_fine<T, F>(&self, seed: u64, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut Xoshiro256pp) -> T + Sync,
    {
        self.run_chunked(n, 1, |i, _chunk_index, out| {
            let mut rng = Xoshiro256pp::from_seed_and_stream(seed, i as u64);
            out.push(f(i, &mut rng));
        })
    }

    /// Shared chunk-pulling driver: splits `0..n` into fixed-size
    /// chunks, hands each to `work` exactly once, and reassembles the
    /// per-chunk outputs in chunk order.
    fn run_chunked<T, W>(&self, n: usize, chunk_size: usize, work: W) -> Vec<T>
    where
        T: Send,
        W: Fn(usize, usize, &mut Vec<T>) + Sync,
    {
        /// Holds one chunk in the in-flight gauge, through an unwind too.
        struct InFlight<'a>(&'a Gauge);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.sub(1);
            }
        }
        if n == 0 {
            return Vec::new();
        }
        // Always-on metrics: cached handles into the process-global
        // registry (one OnceLock load after the first call).
        let chunk_hist = global_histogram!("runtime.chunk_ns");
        let inflight = global_gauge!("runtime.inflight_chunks");
        let n_chunks = n.div_ceil(chunk_size);
        let workers = if IN_WORKER.with(Cell::get) {
            1
        } else {
            self.threads.min(n_chunks)
        };
        let mut run_span = span!("runtime.run_chunked");
        if run_span.is_live() {
            run_span.record("items", n);
            run_span.record("chunk_size", chunk_size);
            run_span.record("n_chunks", n_chunks);
            run_span.record("workers", workers);
            run_span.record("inline", workers == 1);
        }
        let cursor = AtomicUsize::new(0);
        // One worker's share: the index and item count of each chunk it
        // pulled, ascending, and their items end to end.
        let pull = || {
            let mut chunks = Vec::new();
            let mut items = Vec::with_capacity(n.div_ceil(workers));
            loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    return (chunks, items);
                }
                let mut chunk_span = span!("runtime.chunk");
                if chunk_span.is_live() {
                    chunk_span.record("chunk", c);
                    chunk_span.record("items", (n - c * chunk_size).min(chunk_size));
                    // Chunks still waiting in the queue when this one
                    // was pulled.
                    chunk_span.record("queue", n_chunks - c - 1);
                }
                inflight.add(1);
                let _in_flight = InFlight(inflight);
                let started = std::time::Instant::now();
                let before = items.len();
                work(c * chunk_size, c, &mut items);
                chunk_hist.record(started.elapsed().as_nanos() as u64);
                chunks.push((c, items.len() - before));
            }
        };
        if workers == 1 {
            return pull().1;
        }

        // Helpers inherit the caller's cancellation token (if any), so
        // a deadline installed around a parallel sweep reaches the
        // checkpoints inside every chunk.
        let token = crate::cancel::current();
        let helper = || match &token {
            Some(token) => crate::cancel::scope(token, || as_worker(pull)),
            None => as_worker(pull),
        };
        let shares = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(helper)).collect();
            let mut shares = vec![as_worker(pull)];
            // A helper's panic reaches the caller with its own payload.
            shares.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
            );
            shares
        });
        // Each share holds its chunks in ascending order, so taking
        // every chunk's items from its share, chunk by chunk, puts each
        // item at its index.
        let mut owner = vec![(0, 0); n_chunks];
        for (s, (chunks, _)) in shares.iter().enumerate() {
            for &(c, len) in chunks {
                owner[c] = (s, len);
            }
        }
        let mut items: Vec<_> = shares
            .into_iter()
            .map(|(_, items)| items.into_iter())
            .collect();
        let mut out = Vec::with_capacity(n);
        for (s, len) in owner {
            out.extend(items[s].by_ref().take(len));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, RngCore};

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 5, 16] {
            let ex = Executor::with_threads(threads);
            let out = ex.par_map(1000, |i| i * i);
            assert_eq!(out.len(), 1000);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn par_mc_is_thread_count_invariant() {
        let reference = Executor::with_threads(1).par_mc(2014, 10_000, |_, rng| rng.next_f64());
        for threads in [2, 3, 8] {
            let out = Executor::with_threads(threads).par_mc(2014, 10_000, |_, rng| rng.next_f64());
            assert_eq!(out, reference, "divergence at {threads} threads");
        }
    }

    #[test]
    fn par_mc_fine_is_thread_count_invariant_and_per_item_stable() {
        let reference = Executor::with_threads(1).par_mc_fine(9, 64, |i, rng| (i, rng.next_u64()));
        for threads in [2, 7] {
            let out =
                Executor::with_threads(threads).par_mc_fine(9, 64, |i, rng| (i, rng.next_u64()));
            assert_eq!(out, reference, "divergence at {threads} threads");
        }
        // Item i's stream is independent of n.
        let longer = Executor::new().par_mc_fine(9, 128, |i, rng| (i, rng.next_u64()));
        assert_eq!(longer[..64], reference[..]);
    }

    #[test]
    fn par_mc_extend_matches_the_tail_of_one_full_run() {
        let n = 3 * MC_CHUNK + 17;
        let full = Executor::new().par_mc(2014, n, |i, rng| (i, rng.next_u64()));
        for threads in [1, 2, 4, 8] {
            let ex = Executor::with_threads(threads);
            // Grown in rounds of one chunk, the concatenation must be
            // bit-identical to the single full run.
            let mut grown = Vec::new();
            let mut start = 0;
            while start < n {
                let end = (start + MC_CHUNK).min(n);
                grown.extend(ex.par_mc_extend(2014, start, end, |i, rng| (i, rng.next_u64())));
                start = end;
            }
            assert_eq!(grown, full, "divergence at {threads} threads");
            // And a single mid-campaign extension matches the tail.
            let tail = ex.par_mc_extend(2014, MC_CHUNK, n, |i, rng| (i, rng.next_u64()));
            assert_eq!(
                tail[..],
                full[MC_CHUNK..],
                "tail divergence at {threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be a multiple of MC_CHUNK")]
    fn par_mc_extend_rejects_misaligned_start() {
        Executor::new().par_mc_extend(1, 7, MC_CHUNK, |_, rng| rng.next_u64());
    }

    #[test]
    fn par_mc_depends_on_seed() {
        let a = Executor::new().par_mc(1, 100, |_, rng| rng.next_f64());
        let b = Executor::new().par_mc(2, 100, |_, rng| rng.next_f64());
        assert_ne!(a, b);
    }

    #[test]
    fn chunk_boundaries_are_stable_across_n() {
        // Item i's draws must not depend on how many items follow it.
        let short = Executor::new().par_mc(7, MC_CHUNK + 10, |_, rng| rng.next_u64());
        let long = Executor::new().par_mc(7, 3 * MC_CHUNK, |_, rng| rng.next_u64());
        assert_eq!(short[..], long[..MC_CHUNK + 10]);
    }

    #[test]
    fn nested_calls_run_inline_and_stay_deterministic() {
        let ex = Executor::with_threads(4);
        let nested = ex.par_map(8, |i| {
            // A model that itself parallelizes: must not deadlock or
            // oversubscribe, and must stay deterministic.
            Executor::with_threads(4)
                .par_mc(i as u64, 100, |_, rng| rng.next_f64())
                .iter()
                .sum::<f64>()
        });
        let flat: Vec<f64> = (0..8)
            .map(|i| {
                Executor::with_threads(1)
                    .par_mc(i as u64, 100, |_, rng| rng.next_f64())
                    .iter()
                    .sum::<f64>()
            })
            .collect();
        assert_eq!(nested, flat);
    }

    #[test]
    fn as_worker_runs_every_item_on_the_calling_thread() {
        use std::thread::{self, ThreadId};

        /// Each item's value, and the thread that computed it.
        fn split<T>(items: Vec<(T, ThreadId)>) -> (Vec<T>, Vec<ThreadId>) {
            items.into_iter().unzip()
        }
        let ex = Executor::with_threads(4);
        let run = || {
            let id = || thread::current().id();
            let (map, mut threads) = split(ex.par_map(64, |i| (i * i, id())));
            let (mc, t) = split(ex.par_mc(5, 3 * MC_CHUNK + 5, |_, rng| (rng.next_u64(), id())));
            threads.extend(t);
            let (fine, t) = split(ex.par_mc_fine(5, 64, |_, rng| (rng.next_u64(), id())));
            threads.extend(t);
            ((map, mc, fine), threads)
        };
        let caller = thread::current().id();
        let (inside, inside_threads) = as_worker(run);
        let (outside, _) = run();
        assert!(inside_threads.iter().all(|&id| id == caller));
        assert_eq!(inside, outside);
    }

    #[test]
    fn a_fanned_out_call_runs_on_the_caller_beside_a_helper() {
        use std::thread;
        use std::time::{Duration, Instant};

        let started = AtomicUsize::new(0);
        let threads = Executor::with_threads(2).par_map(2, |_| {
            // Each item waits for the other to start, so no one thread
            // runs both; the bound keeps a broken executor from hanging.
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                thread::yield_now();
            }
            thread::current().id()
        });
        assert_ne!(threads[0], threads[1]);
        assert!(threads.contains(&thread::current().id()));
    }

    #[test]
    fn a_single_chunk_call_leaves_nested_calls_free_to_fan_out() {
        use carbon_trace::collect::Collector;
        use carbon_trace::Value;

        let collector = Collector::new();
        carbon_trace::with_subscriber(collector.clone(), || {
            Executor::with_threads(2).par_map(1, |_| Executor::with_threads(2).par_map(4, |i| i))
        });
        // Spans are recorded as they close: the nested run first.
        assert_eq!(
            collector.span_field("runtime.run_chunked", "inline"),
            vec![Value::Bool(false), Value::Bool(true)]
        );
    }

    #[test]
    fn as_worker_restores_the_flag_on_return_and_on_unwind() {
        let flag = || IN_WORKER.with(Cell::get);
        assert!(!flag());
        assert!(as_worker(flag));
        assert!(!flag());
        // A nested entry leaves the outer one in force.
        as_worker(|| {
            as_worker(|| {});
            assert!(flag());
        });
        assert!(!flag());
        let unwound = std::panic::catch_unwind(|| as_worker::<()>(|| panic!("job panicked")));
        assert!(unwound.is_err());
        assert!(!flag());
    }

    #[test]
    fn as_worker_records_inline_chunked_runs() {
        use carbon_trace::collect::Collector;
        use carbon_trace::Value;

        let ex = Executor::with_threads(4);
        let collector = Collector::new();
        carbon_trace::with_subscriber(collector.clone(), || {
            as_worker(|| ex.par_map(8, |i| i));
            ex.par_map(8, |i| i);
        });
        assert_eq!(
            collector.span_field("runtime.run_chunked", "inline"),
            vec![Value::Bool(true), Value::Bool(false)]
        );
        assert_eq!(
            collector.span_field("runtime.run_chunked", "workers"),
            vec![Value::U64(1), Value::U64(4)]
        );
        // Only the chunks the caller ran land on this thread's
        // subscriber: all 8 of the inline run's, and the fanned-out
        // run's share, which its helpers' pace decides.
        let id = |e: &carbon_trace::Event| match e {
            carbon_trace::Event::Span { id, .. } => *id,
            carbon_trace::Event::Instant { .. } => unreachable!(),
        };
        let runs: Vec<u64> = collector
            .spans("runtime.run_chunked")
            .iter()
            .map(id)
            .collect();
        let chunks = collector.spans("runtime.chunk");
        let under = |run: u64| {
            chunks
                .iter()
                .filter(|e| matches!(e, carbon_trace::Event::Span { parent, .. } if *parent == Some(run)))
                .count()
        };
        assert_eq!(under(runs[0]), 8);
        assert!(under(runs[1]) <= 8);
        assert_eq!(chunks.len(), 8 + under(runs[1]));
    }

    #[test]
    fn empty_and_single_item() {
        let ex = Executor::with_threads(4);
        assert!(ex.par_map(0, |i| i).is_empty());
        assert_eq!(ex.par_mc(0, 1, |i, _| i), vec![0]);
    }

    #[test]
    fn executor_sizing() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
        assert!(Executor::new().threads() >= 1);
    }

    #[test]
    fn inline_execution_emits_chunk_spans_with_queue_occupancy() {
        use carbon_trace::collect::Collector;
        use carbon_trace::Value;

        let collector = Collector::new();
        let out = carbon_trace::with_subscriber(collector.clone(), || {
            // threads = 1 runs inline, so every span lands on this
            // thread's subscriber.
            Executor::with_threads(1).par_mc(42, 2 * MC_CHUNK + 5, |_, rng| rng.next_f64())
        });
        assert_eq!(out.len(), 2 * MC_CHUNK + 5);

        let runs = collector.spans("runtime.run_chunked");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            collector.span_field("runtime.run_chunked", "n_chunks"),
            vec![Value::U64(3)]
        );
        let chunks = collector.spans("runtime.chunk");
        assert_eq!(chunks.len(), 3, "one span per chunk");
        // Chunk spans nest under the run span.
        let run_id = match &runs[0] {
            carbon_trace::Event::Span { id, .. } => *id,
            carbon_trace::Event::Instant { .. } => unreachable!(),
        };
        for ev in &chunks {
            if let carbon_trace::Event::Span { parent, .. } = ev {
                assert_eq!(*parent, Some(run_id));
            }
        }
        // Queue occupancy counts down as chunks drain: 2, 1, 0.
        assert_eq!(
            collector.span_field("runtime.chunk", "queue"),
            vec![Value::U64(2), Value::U64(1), Value::U64(0)]
        );
        // The short tail chunk reports its true item count.
        assert_eq!(
            collector.span_field("runtime.chunk", "items"),
            vec![
                Value::U64(MC_CHUNK as u64),
                Value::U64(MC_CHUNK as u64),
                Value::U64(5)
            ]
        );
    }

    #[test]
    fn chunk_metrics_land_in_the_global_registry() {
        // Counters and histogram counts are monotonic, so deltas are
        // robust to other tests sharing the global registry.
        let before = carbon_metrics::global()
            .histogram("runtime.chunk_ns")
            .snapshot()
            .count();
        for threads in [1, 4] {
            Executor::with_threads(threads).par_mc(11, 3 * MC_CHUNK, |_, rng| rng.next_f64());
        }
        let after = carbon_metrics::global()
            .histogram("runtime.chunk_ns")
            .snapshot()
            .count();
        assert!(after >= before + 6, "before {before}, after {after}");
        // In-flight gauge returns to zero once every chunk completed.
        assert_eq!(
            carbon_metrics::global()
                .gauge("runtime.inflight_chunks")
                .get(),
            0
        );
    }

    #[test]
    fn tracing_does_not_perturb_results() {
        use carbon_trace::collect::Collector;

        let plain = Executor::with_threads(1).par_mc(7, 3000, |_, rng| rng.next_f64());
        let traced = carbon_trace::with_subscriber(Collector::new(), || {
            Executor::with_threads(1).par_mc(7, 3000, |_, rng| rng.next_f64())
        });
        assert_eq!(plain, traced);
    }
}
