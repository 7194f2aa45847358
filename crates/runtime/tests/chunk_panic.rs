//! A panicking chunk must not leave `runtime.inflight_chunks` raised.
//! The gauge is process-global, so this check has a test binary of its
//! own: no other test runs chunks beside it.

use carbon_runtime::Executor;

#[test]
fn a_panicking_chunk_leaves_the_inflight_gauge_at_zero() {
    let inflight = || {
        carbon_metrics::global()
            .gauge("runtime.inflight_chunks")
            .get()
    };
    for threads in [1, 2] {
        let unwound = std::panic::catch_unwind(|| {
            Executor::with_threads(threads).par_map(4, |i| {
                if i == 1 {
                    panic!("chunk 1 panicked");
                }
                i
            })
        });
        // The caller sees the chunk's own panic, whichever thread ran it.
        let payload = unwound.expect_err("chunk 1 panics");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"chunk 1 panicked"),
            "at {threads} threads"
        );
        assert_eq!(inflight(), 0, "gauge left raised at {threads} threads");
    }
}
