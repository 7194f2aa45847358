//! Stamping, solves and result probes scale linearly with deck size.
//!
//! Two decks, each timed at n and at 8n, must cost about 8× as much at
//! the larger size:
//!
//! * a fixed-step transient on an n-section RC ladder, followed by a
//!   read of every node's operating point and trace. A per-stamp search
//!   for each capacitor's companion, or a per-probe scan of the node
//!   names, makes that ratio grow with n (about 64× for a fully
//!   quadratic path);
//! * a warmed operating point, AC sweep and fixed-step transient on a
//!   hub deck, one node with n branches like a supply rail. A stamp
//!   that searches its matrix row for its slot is quadratic there,
//!   because the hub's row holds n entries.
//!
//! Kept as its own test binary with a single `#[test]`, so no other
//! test of this crate runs inside its timing window.

use std::time::{Duration, Instant};

use carbon_spice::{AcOptions, Circuit, TranOptions, Waveform};

/// Sections of the smaller ladder; the larger one has 8× as many.
const N: usize = 2000;

/// Branches of the smaller hub deck; the larger one has 8× as many.
const HUB_N: usize = 1000;

/// Largest accepted time ratio between a deck at n and at 8n. Linear
/// work gives about 8×; the margin absorbs cache effects and a noisy
/// host.
const MAX_RATIO: f64 = 16.0;

/// Fixed steps per transient.
const STEPS: usize = 20;

/// A 1 ns ramp from 0 to 1 V.
fn ramp() -> Waveform {
    Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)])
}

/// An n-section series-R / shunt-C ladder driven by a 1 ns ramp.
fn rc_ladder(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave("vin", "n0", "0", ramp())
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

/// A `hub` node driven by a 1 ns ramp, with n branches: a resistor
/// from the hub to leaf `l{i}`, and a capacitor and a resistor from the
/// leaf to ground.
fn hub(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave("vin", "hub", "0", ramp())
        .expect("unique names");
    for i in 0..n {
        let leaf = format!("l{i}");
        ckt.resistor(&format!("r{i}"), "hub", &leaf, 1e3)
            .expect("unique names");
        ckt.capacitor(&format!("c{i}"), &leaf, "0", 1e-12)
            .expect("unique names");
        ckt.resistor(&format!("g{i}"), &leaf, "0", 1e4)
            .expect("unique names");
    }
    ckt
}

/// The fastest of three runs of `work`.
fn best_of_three(mut work: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed()
        })
        .min()
        .expect("three runs")
}

/// Operating point, fixed transient, and a probe of every node in both
/// results, on the ladder.
fn ladder_time(n: usize) -> Duration {
    let ckt = rc_ladder(n);
    best_of_three(|| {
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
    })
}

/// Warmed operating point, 3-point AC sweep and fixed transient times
/// on the hub deck. One untimed `op()` and one untimed sweep build the
/// cached workspaces first, so the symbolic analysis falls outside the
/// timed window.
fn hub_times(n: usize) -> [Duration; 3] {
    let ckt = hub(n);
    let freqs = [1e6, 1e8, 1e10];
    ckt.op().expect("hub solves");
    ckt.ac_sweep("vin", &freqs, AcOptions::default())
        .expect("hub sweeps");
    let op = best_of_three(|| {
        let op = ckt.op().expect("hub solves");
        assert!(op.voltage("l0").expect("leaf").is_finite());
    });
    let ac = best_of_three(|| {
        let ac = ckt
            .ac_sweep("vin", &freqs, AcOptions::default())
            .expect("hub sweeps");
        assert_eq!(ac.frequencies().len(), freqs.len());
    });
    let tran = best_of_three(|| {
        let tran = ckt
            .transient(1e-10, STEPS as f64 * 1e-10, TranOptions::default())
            .expect("hub integrates");
        assert_eq!(tran.accepted_steps(), STEPS);
    });
    [op, ac, tran]
}

#[test]
fn transient_and_probes_scale_linearly_with_the_deck() {
    let mut failures = Vec::new();
    let mut check = |what: &str, n: usize, small: Duration, large: Duration| {
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        if ratio > MAX_RATIO {
            failures.push(format!(
                "{what}: {n} took {small:?}, {} took {large:?}: ratio {ratio:.1} > {MAX_RATIO}",
                8 * n
            ));
        }
    };
    check("ladder transient", N, ladder_time(N), ladder_time(8 * N));
    let small = hub_times(HUB_N);
    let large = hub_times(8 * HUB_N);
    for (k, what) in ["hub op", "hub ac_sweep", "hub transient"]
        .iter()
        .enumerate()
    {
        check(what, HUB_N, small[k], large[k]);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
