//! Transient stamping and result probes scale linearly with deck size.
//!
//! A fixed-step transient on an n-section RC ladder, followed by a read
//! of every node's operating point and trace, must cost about 8× as
//! much at 8n as at n. A per-stamp search for each capacitor's
//! companion, or a per-probe scan of the node names, makes that ratio
//! grow with n instead (about 64× for a fully quadratic path).
//!
//! Kept as its own test binary with a single `#[test]`, so no other
//! test of this crate runs inside its timing window.

use std::time::{Duration, Instant};

use carbon_spice::{Circuit, TranOptions, Waveform};

/// Sections of the smaller ladder; the larger one has 8× as many.
const N: usize = 2000;

/// Largest accepted time ratio between the two ladders. Linear work
/// gives about 8×; the margin absorbs cache effects and a noisy host.
const MAX_RATIO: f64 = 16.0;

/// Fixed steps per transient.
const STEPS: usize = 20;

/// An n-section series-R / shunt-C ladder driven by a 1 ns ramp.
fn rc_ladder(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave(
        "vin",
        "n0",
        "0",
        Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]),
    )
    .expect("unique names");
    for i in 0..n {
        let (a, b) = (format!("n{i}"), format!("n{}", i + 1));
        ckt.resistor(&format!("r{i}"), &a, &b, 1e3)
            .expect("unique names");
        ckt.capacitor(&format!("c{i}"), &b, "0", 1e-12)
            .expect("unique names");
    }
    ckt
}

/// The fastest of three runs of: operating point, fixed transient, and
/// a probe of every node in both results.
fn best_time(n: usize) -> Duration {
    let ckt = rc_ladder(n);
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let op = ckt.op().expect("ladder solves");
            let tran = ckt
                .transient(1e-10, STEPS as f64 * 1e-10, TranOptions::default())
                .expect("ladder integrates");
            assert_eq!(tran.accepted_steps(), STEPS);
            let mut sum = op.source_current("vin").expect("source");
            for node in tran.node_names() {
                sum += op.voltage(node).expect("own node");
                sum += tran.voltages(node).expect("own node")[STEPS];
            }
            assert!(sum.is_finite());
            started.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn transient_and_probes_scale_linearly_with_the_deck() {
    let small = best_time(N);
    let large = best_time(8 * N);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= MAX_RATIO,
        "{N} sections took {small:?}, {} took {large:?}: ratio {ratio:.1} > {MAX_RATIO}",
        8 * N
    );
}
