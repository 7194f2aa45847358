//! Adaptive transient integration tests: agreement with the fixed-step
//! oracle on RC/RLC/ring decks, exact breakpoint landing, and clean
//! mid-horizon cancellation.

use std::sync::Arc;

use carbon_spice::{Circuit, FetCurve, SpiceError, TranOptions, Waveform};

/// R = 1 kΩ, C = 1 nF step charge delayed past t = 0 so the DC initial
/// condition sees the low level.
fn rc_step() -> (Circuit, f64, f64) {
    let tau = 1e-6;
    let t0 = 5e-8;
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave(
        "v",
        "in",
        "0",
        Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: t0,
            rise: 0.0,
            fall: 0.0,
            width: 1.0,
            period: 0.0,
        },
    )
    .unwrap();
    ckt.resistor("r", "in", "out", 1e3).unwrap();
    ckt.capacitor("c", "out", "0", 1e-9).unwrap();
    (ckt, tau, t0)
}

#[derive(Debug)]
struct SquareLawNfet {
    k: f64,
    vt: f64,
}

impl FetCurve for SquareLawNfet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        if vds < 0.0 {
            return -self.ids(vgs - vds, -vds);
        }
        let vov = vgs - self.vt;
        if vov <= 0.0 {
            0.0
        } else if vds < vov {
            self.k * (vov * vds - 0.5 * vds * vds)
        } else {
            0.5 * self.k * vov * vov
        }
    }
}

#[derive(Debug)]
struct SquareLawPfet {
    k: f64,
    vt: f64,
}

impl FetCurve for SquareLawPfet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        let n = SquareLawNfet {
            k: self.k,
            vt: self.vt,
        };
        -n.ids(-vgs, -vds)
    }
}

/// Odd-stage square-law CMOS ring with per-stage load caps and a kick
/// pulse that knocks it off its metastable DC point.
fn ring(stages: usize, horizon: f64) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    for s in 0..stages {
        let input = format!("n{s}");
        let output = format!("n{}", (s + 1) % stages);
        let pfet = Arc::new(SquareLawPfet { k: 2e-3, vt: 0.3 });
        let nfet = Arc::new(SquareLawNfet { k: 2e-3, vt: 0.3 });
        ckt.fet(&format!("mp{s}"), &output, &input, "vdd", pfet)
            .unwrap();
        ckt.fet(&format!("mn{s}"), &output, &input, "0", nfet)
            .unwrap();
        ckt.capacitor(&format!("cl{s}"), &output, "0", 1e-14)
            .unwrap();
    }
    ckt.current_source_wave(
        "ikick",
        "n0",
        "0",
        Waveform::Pulse {
            low: 0.0,
            high: 6e-5,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: horizon / 50.0,
            period: 0.0,
        },
    )
    .unwrap();
    ckt
}

/// Rising mid-rail crossing times of a trace, linearly interpolated.
fn rising_crossings(times: &[f64], v: &[f64], mid: f64, settle: f64) -> Vec<f64> {
    let mut crossings = Vec::new();
    for k in 1..v.len() {
        if times[k] > settle && v[k - 1] < mid && v[k] >= mid {
            let f = (mid - v[k - 1]) / (v[k] - v[k - 1]);
            crossings.push(times[k - 1] + f * (times[k] - times[k - 1]));
        }
    }
    crossings
}

#[test]
fn adaptive_rc_matches_the_analytic_charge_curve() {
    let (ckt, tau, t0) = rc_step();
    let tran = ckt.transient_adaptive(1e-8, 5.0 * tau).unwrap();
    let v = tran.voltages("out").unwrap();
    for (&tk, &vk) in tran.times().iter().zip(v.iter()) {
        let exact = if tk <= t0 {
            0.0
        } else {
            1.0 - (-(tk - t0) / tau).exp()
        };
        assert!(
            (vk - exact).abs() < 5e-3,
            "t = {tk}: v = {vk}, exact = {exact}"
        );
    }
    assert!((v.last().unwrap() - 1.0).abs() < 0.01, "reaches the rail");
    // The controller must beat the 500-step uniform grid it was seeded
    // with, or adaptivity is not paying for its second solve per step.
    assert!(
        tran.accepted_steps() < 500,
        "took {} steps",
        tran.accepted_steps()
    );
}

#[test]
fn adaptive_rlc_matches_a_fine_fixed_reference() {
    // Series RLC, underdamped (ζ = 0.1, ω₀ = 1e6 rad/s): several ring
    // cycles inside the horizon exercise both LTE growth and shrink.
    let build = || {
        let mut ckt = Circuit::new();
        ckt.voltage_source_wave(
            "v",
            "in",
            "0",
            Waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 1e-7,
                rise: 0.0,
                fall: 0.0,
                width: 1.0,
                period: 0.0,
            },
        )
        .unwrap();
        ckt.resistor("r", "in", "l", 200.0).unwrap();
        ckt.inductor("ind", "l", "out", 1e-3).unwrap();
        ckt.capacitor("c", "out", "0", 1e-9).unwrap();
        ckt
    };
    let fixed = build().transient(1e-8, 3e-5).unwrap();
    let adaptive = build().transient_adaptive(1e-8, 3e-5).unwrap();
    let v = adaptive.voltages("out").unwrap();
    // Compare at the adaptive grid's own points against the fine fixed
    // reference (3000 uniform steps), so no coarse-grid interpolation
    // error pollutes the bound. Swing peaks near 1.7 V; 2% of swing.
    for (&tk, &vk) in adaptive.times().iter().zip(v.iter()) {
        let reference = fixed.sample_at("out", tk).unwrap();
        assert!(
            (vk - reference).abs() < 0.04,
            "t = {tk}: adaptive {vk} vs fixed {reference}"
        );
    }
    assert!(
        adaptive.accepted_steps() < 3000,
        "took {} steps",
        adaptive.accepted_steps()
    );
}

#[test]
fn adaptive_ring_reproduces_period_and_swing() {
    let horizon = 2e-9;
    let fixed = ring(3, horizon)
        .transient(horizon / 4000.0, horizon)
        .unwrap();
    let adaptive = ring(3, horizon)
        .transient_with(
            horizon / 4000.0,
            horizon,
            TranOptions {
                lte_reltol: 1e-4,
                ..TranOptions::adaptive()
            },
        )
        .unwrap();
    let settle = horizon * 0.25;
    let period = |tran: &carbon_spice::TranResult| {
        let crossings = rising_crossings(tran.times(), tran.voltages("n0").unwrap(), 0.5, settle);
        assert!(crossings.len() >= 3, "ring must oscillate: {crossings:?}");
        let periods: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
        periods.iter().sum::<f64>() / periods.len() as f64
    };
    let (pf, pa) = (period(&fixed), period(&adaptive));
    assert!(
        ((pa - pf) / pf).abs() < 0.05,
        "period drift: fixed {pf:.3e} vs adaptive {pa:.3e}"
    );
    let swing = |v: &[f64]| {
        let tail = &v[v.len() / 2..];
        tail.iter().fold(f64::MIN, |hi, &x| hi.max(x))
            - tail.iter().fold(f64::MAX, |lo, &x| lo.min(x))
    };
    let sf = swing(fixed.voltages("n0").unwrap());
    let sa = swing(adaptive.voltages("n0").unwrap());
    assert!(
        (sa - sf).abs() < 0.05 * sf.max(1e-30),
        "swing drift: fixed {sf} vs adaptive {sa}"
    );
}

#[test]
fn adaptive_lands_on_source_breakpoints_bitwise() {
    let (ckt, tau, t0) = rc_step();
    let tran = ckt.transient_adaptive(1e-8, 5.0 * tau).unwrap();
    assert!(
        tran.times().iter().any(|t| t.to_bits() == t0.to_bits()),
        "pulse edge at {t0} must be a grid point"
    );
    // A PWL ramp contributes both corners, landed on exactly even when
    // they are not multiples of the initial step.
    let mut ckt = Circuit::new();
    let (c0, c1) = (3.7e-7, 7.21e-7);
    ckt.voltage_source_wave(
        "v",
        "in",
        "0",
        Waveform::Pwl(vec![(0.0, 0.0), (c0, 0.0), (c1, 1.0)]),
    )
    .unwrap();
    ckt.resistor("r", "in", "out", 1e3).unwrap();
    ckt.capacitor("c", "out", "0", 1e-10).unwrap();
    let tran = ckt.transient_adaptive(1e-8, 2e-6).unwrap();
    for corner in [c0, c1] {
        assert!(
            tran.times().iter().any(|t| t.to_bits() == corner.to_bits()),
            "PWL corner at {corner} must be a grid point"
        );
    }
    assert_eq!(
        tran.times().last().copied().unwrap().to_bits(),
        2e-6_f64.to_bits(),
        "horizon end is the final mandatory stop"
    );
}

#[test]
fn fixed_horizons_that_drop_a_step_are_rejected_by_name() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 1.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    // 1e-6 / 3e-9 = 333.33 steps: rounding would silently retime the
    // final third of a step.
    let err = ckt.transient(3e-9, 1e-6).unwrap_err();
    let SpiceError::InvalidSweep { reason } = err else {
        panic!("expected InvalidSweep");
    };
    assert!(
        reason.contains("tstep") && reason.contains("tstop"),
        "{reason}"
    );
    // The adaptive method has no uniform grid, so the same horizon is
    // fine there.
    assert!(ckt.transient_adaptive(3e-9, 1e-6).is_ok());
}

#[test]
fn mid_horizon_cancellation_returns_a_clean_timeout() {
    for adaptive in [false, true] {
        let (ckt, tau, _) = rc_step();
        let token = carbon_runtime::CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                token.cancel();
            })
        };
        // A horizon far too long to finish in 5 ms, so the cancel fires
        // mid-horizon at an accept/reject boundary.
        let result = carbon_runtime::cancel::scope(&token, || {
            if adaptive {
                // hmin pinned to the initial step so the controller
                // cannot grow the grid coarse enough to finish early.
                ckt.transient_with(
                    1e-9,
                    1e6 * tau,
                    TranOptions {
                        max_step: Some(1e-9),
                        ..TranOptions::adaptive()
                    },
                )
            } else {
                ckt.transient(1e-9, 1e6 * tau)
            }
        });
        canceller.join().unwrap();
        // The checkpoint that fires first may be the step boundary or
        // the Newton loop's own; both report a clean transient cancel.
        assert!(
            matches!(
                &result,
                Err(SpiceError::Cancelled { analysis }) if analysis.contains("transient")
            ),
            "adaptive = {adaptive}: {result:?}"
        );
    }
}
