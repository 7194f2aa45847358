//! Transient-integration benchmarks: the stiff power-on ramp and the
//! ring oscillator, each under the fixed-step oracle and the
//! LTE-adaptive controller.
//!
//! `tran_ramp` is the adaptive method's headline workload: two RC
//! sections four decades apart force a 50 000-step fixed grid, while
//! the LTE controller resolves the fast corner and then grows straight
//! through the slow tail in a few hundred steps — the committed
//! baseline pins the ≥3× wall-clock win (in practice far larger).
//! `tran_ring` is the adversarial case: a ring oscillator never
//! settles, so the controller holds a fine step for accuracy and the
//! bench guards against the adaptive path regressing on workloads it
//! cannot accelerate.

use carbon_runtime::bench::{black_box, Harness};

use carbon_bench::{ring_osc, tran_ramp, TRAN_RAMP_TSTEP, TRAN_RAMP_TSTOP};
use carbon_spice::TranOptions;

fn main() {
    let mut h = Harness::group("tran");

    h.bench("tran_ramp_fixed", || {
        black_box(
            tran_ramp()
                .transient(TRAN_RAMP_TSTEP, TRAN_RAMP_TSTOP, TranOptions::default())
                .expect("integrates"),
        );
    });
    h.bench("tran_ramp_adaptive", || {
        black_box(
            tran_ramp()
                .transient(TRAN_RAMP_TSTEP, TRAN_RAMP_TSTOP, TranOptions::adaptive())
                .expect("integrates"),
        );
    });

    let horizon = 2e-9;
    h.bench("tran_ring_fixed/3", || {
        black_box(
            ring_osc(3, horizon)
                .transient(horizon / 2000.0, horizon, TranOptions::default())
                .expect("integrates"),
        );
    });
    h.bench("tran_ring_adaptive/3", || {
        black_box(
            ring_osc(3, horizon)
                .transient(horizon / 2000.0, horizon, TranOptions::adaptive())
                .expect("integrates"),
        );
    });

    h.finish();
}
