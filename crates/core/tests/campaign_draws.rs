//! How many §V sites a process draws: the fixed campaign once, on
//! first use, and then only the adaptive rounds that reach past it.
//! Its own binary with one test, since `fab.campaign.sites_drawn` is
//! process-global and no other test may draw meanwhile.

use carbon_core::fig7_stats::{run, run_adaptive, CAMPAIGN_SIZE};

fn sites_drawn() -> u64 {
    carbon_metrics::global()
        .counter("fab.campaign.sites_drawn")
        .total()
}

/// The sites `f` draws.
fn drawn_by(f: impl FnOnce()) -> u64 {
    let before = sites_drawn();
    f();
    sites_drawn() - before
}

#[test]
fn the_campaign_is_drawn_once_and_only_its_tail_after() {
    let first = drawn_by(|| {
        run().unwrap();
    });
    assert_eq!(
        first, CAMPAIGN_SIZE as u64,
        "the first call fills the store"
    );
    let repeat = drawn_by(|| {
        run().unwrap();
        run_adaptive(1e-9, 4_096).unwrap();
        run_adaptive(1e-9, CAMPAIGN_SIZE).unwrap();
    });
    assert_eq!(repeat, 0, "calls within the store draw nothing");
    // 9 216..10 240 straddles the store's end and is drawn whole.
    let straddle = drawn_by(|| {
        run_adaptive(1e-9, 10_240).unwrap();
    });
    assert_eq!(straddle, 1_024);
    let past = drawn_by(|| {
        run_adaptive(1e-9, 12_288).unwrap();
    });
    assert_eq!(past, 3_072);
}
