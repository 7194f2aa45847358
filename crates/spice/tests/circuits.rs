//! Integration tests: complete circuits solved end-to-end.

use std::sync::Arc;

use carbon_spice::{AcOptions, Circuit, DcOptions, FetCurve, SpiceError, TranOptions, Waveform};

#[test]
fn resistive_divider() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "in", "0", 2.0);
    ckt.resistor("r1", "in", "out", 1e3).unwrap();
    ckt.resistor("r2", "out", "0", 1e3).unwrap();
    let op = ckt.op().unwrap();
    assert!((op.voltage("out").unwrap() - 1.0).abs() < 1e-9);
    // Source supplies 1 mA; convention: current into the + terminal.
    assert!((op.source_current("vin").unwrap() + 1e-3).abs() < 1e-9);
}

#[test]
fn ladder_network_kcl() {
    // 5-stage R ladder: analytic node voltages.
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "n0", "0", 1.0);
    for i in 0..5 {
        ckt.resistor(
            &format!("rs{i}"),
            &format!("n{i}"),
            &format!("n{}", i + 1),
            1e3,
        )
        .unwrap();
        ckt.resistor(&format!("rp{i}"), &format!("n{}", i + 1), "0", 1e3)
            .unwrap();
    }
    let op = ckt.op().unwrap();
    // Every node voltage must be positive and decreasing along the ladder.
    let mut prev = 1.0;
    for i in 1..=5 {
        let v = op.voltage(&format!("n{i}")).unwrap();
        assert!(v > 0.0 && v < prev, "n{i} = {v}");
        prev = v;
    }
}

#[test]
fn floating_node_is_singular() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 1.0);
    ckt.resistor("r", "a", "b", 1e3).unwrap();
    // Node "c" exists but only via a capacitor → DC-floating; gmin keeps
    // it solvable, so this should NOT error.
    ckt.capacitor("c", "b", "c", 1e-15).unwrap();
    let op = ckt.op().unwrap();
    assert!((op.voltage("b").unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn voltage_source_loop_is_singular() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v1", "a", "0", 1.0);
    ckt.voltage_source("v2", "a", "0", 2.0);
    assert!(matches!(ckt.op(), Err(SpiceError::SingularMatrix { .. })));
}

#[test]
fn current_source_into_resistor() {
    let mut ckt = Circuit::new();
    ckt.current_source("i1", "out", "0", 1e-3).unwrap();
    ckt.resistor("r", "out", "0", 2e3).unwrap();
    let op = ckt.op().unwrap();
    // 1 mA into 2 kΩ → 2 V.
    assert!((op.voltage("out").unwrap() - 2.0).abs() < 1e-6);
}

#[test]
fn diode_clamps_forward_voltage() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "in", "0", 5.0);
    ckt.resistor("r", "in", "d", 1e3).unwrap();
    ckt.diode("d1", "d", "0", 1e-15, 1.0).unwrap();
    let op = ckt.op().unwrap();
    let vd = op.voltage("d").unwrap();
    assert!((0.55..0.85).contains(&vd), "diode drop {vd} V");
    let i = -op.source_current("v").unwrap();
    assert!((i - (5.0 - vd) / 1e3).abs() < 1e-9);
}

#[test]
fn reverse_diode_blocks() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "in", "0", -5.0);
    ckt.resistor("r", "in", "d", 1e3).unwrap();
    ckt.diode("d1", "d", "0", 1e-15, 1.0).unwrap();
    let op = ckt.op().unwrap();
    let i = op.source_current("v").unwrap().abs();
    assert!(i < 1e-9, "reverse current {i} A");
}

#[test]
fn vccs_amplifier() {
    // gm of 1 mS driving 1 kΩ from a 0.5 V input: output = −gm·R·vin
    // with our sign convention (current enters p = "out").
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "in", "0", 0.5);
    ckt.vccs("g1", "out", "0", "in", "0", 1e-3).unwrap();
    ckt.resistor("rl", "out", "0", 1e3).unwrap();
    let op = ckt.op().unwrap();
    assert!((op.voltage("out").unwrap() - 0.5).abs() < 1e-9);
}

#[derive(Debug)]
struct SquareLawNfet {
    k: f64,
    vt: f64,
}

impl FetCurve for SquareLawNfet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        if vds < 0.0 {
            // Symmetric conduction for reversed drain.
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

#[test]
fn nfet_common_source_with_resistor_load() {
    let model = Arc::new(SquareLawNfet { k: 1e-3, vt: 0.4 });
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    ckt.voltage_source("vg", "g", "0", 0.8);
    ckt.resistor("rl", "vdd", "d", 10e3).unwrap();
    ckt.fet("m1", "d", "g", "0", model).unwrap();
    let op = ckt.op().unwrap();
    let vd = op.voltage("d").unwrap();
    // Solve by hand: in saturation Id = 0.5e-3·0.4² = 80 µA → drop 0.8 V
    // → vd = 0.2 V < vov = 0.4 V → actually triode. Solve triode:
    // (1 − vd)/10e3 = 1e-3(0.4·vd − vd²/2) → 1 − vd = 4vd − 5vd²
    // → 5vd² − 5vd + 1 = 0 → vd = (5 − √5)/10 ≈ 0.2764.
    assert!((vd - 0.2764).abs() < 1e-3, "vd = {vd}");
}

#[test]
fn fet_off_state_leaks_nothing() {
    let model = Arc::new(SquareLawNfet { k: 1e-3, vt: 0.4 });
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    ckt.voltage_source("vg", "g", "0", 0.0);
    ckt.resistor("rl", "vdd", "d", 10e3).unwrap();
    ckt.fet("m1", "d", "g", "0", model).unwrap();
    let op = ckt.op().unwrap();
    assert!((op.voltage("d").unwrap() - 1.0).abs() < 1e-4);
}

#[test]
fn dc_sweep_traces_square_law() {
    let model = Arc::new(SquareLawNfet { k: 1e-3, vt: 0.4 });
    let mut ckt = Circuit::new();
    ckt.voltage_source("vd", "d", "0", 1.0);
    ckt.voltage_source("vg", "g", "0", 1.0);
    ckt.fet("m1", "d", "g", "0", model).unwrap();
    let sweep = ckt
        .dc_sweep("vg", 0.0, 1.0, 0.05, DcOptions::default())
        .unwrap();
    assert_eq!(sweep.len(), 21);
    let id: Vec<f64> = sweep.currents("vd").unwrap().iter().map(|i| -i).collect();
    // Monotone non-decreasing, zero below Vt, 180 µA at Vgs = 1 V.
    assert!(id.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    assert!(id[4] < 1e-9, "below threshold at 0.2 V");
    assert!((id[20] - 0.5e-3 * 0.36).abs() < 1e-6, "Id(1V) = {}", id[20]);
}

#[test]
fn downward_sweep_works() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 0.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    let sweep = ckt
        .dc_sweep("v", 1.0, 0.0, 0.25, DcOptions::default())
        .unwrap();
    assert_eq!(sweep.sweep_values(), &[1.0, 0.75, 0.5, 0.25, 0.0]);
}

#[test]
fn sweep_rejects_bad_step() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 0.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    assert!(matches!(
        ckt.dc_sweep("v", 0.0, 1.0, 0.0, DcOptions::default()),
        Err(SpiceError::InvalidSweep { .. })
    ));
    assert!(matches!(
        ckt.dc_sweep("nope", 0.0, 1.0, 0.1, DcOptions::default()),
        Err(SpiceError::UnknownSource { .. })
    ));
    for (from, to, field) in [(0.0, f64::INFINITY, "to ="), (f64::NAN, 1.0, "from =")] {
        let err = ckt
            .dc_sweep("v", from, to, 0.1, DcOptions::default())
            .unwrap_err();
        assert!(matches!(&err, SpiceError::InvalidSweep { reason } if reason.contains(field)));
    }
}

#[test]
fn sweep_rejects_a_point_count_that_does_not_fit() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 0.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    // An infinite count, a finite one past any allocation, a span whose
    // width overflows to infinity, and counts a `Vec<f64>` may hold but
    // whose 8e17 and 4e17 bytes no address space can map (five-level
    // paging stops near 7.2e16): each names the step and the count
    // instead of wrapping the count or aborting on the allocation, and
    // none touches memory.
    for (from, to, step, count) in [
        (0.0, 1e300, 1e-300, "inf"),
        (0.0, 1e30, 1e-3, "1e33"),
        (-1e308, 1e308, 1.0, "inf"),
        (0.0, 1e17, 1.0, "1e17"),
        (0.0, 1e17, 2.0, "5e16"),
    ] {
        for result in [
            ckt.dc_sweep("v", from, to, step, DcOptions::default()),
            ckt.dc_sweep("v", from, to, step, DcOptions { chunk: Some(16) }),
        ] {
            let err = result.unwrap_err();
            assert!(
                matches!(&err, SpiceError::InvalidSweep { reason }
                    if reason.contains(&format!("step = {step}")) && reason.contains(count)),
                "{err}"
            );
        }
    }
}

#[test]
fn rc_charging_transient() {
    // R = 1 kΩ, C = 1 nF, step 0 → 1 V at t = t0: v = 1 − e^(−(t−t0)/RC).
    // The edge is delayed past t = 0 so the DC initial condition sees the
    // low level and the capacitor starts discharged.
    let tau = 1e-6;
    let h = tau / 100.0;
    let t0 = 5.0 * h;
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
    let tran = ckt.transient(h, 5.0 * tau, TranOptions::default()).unwrap();
    let v = tran.voltages("out").unwrap();
    let t = tran.times();
    for (k, (&tk, &vk)) in t.iter().zip(v.iter()).enumerate() {
        if tk <= t0 + 2.0 * h {
            continue; // skip the discrete edge itself
        }
        let exact = 1.0 - (-(tk - t0) / tau).exp();
        assert!(
            (vk - exact).abs() < 1e-2,
            "step {k}: v = {vk}, exact = {exact}"
        );
    }
    // Final value reaches the rail.
    assert!((v.last().unwrap() - 1.0).abs() < 0.02);
}

#[test]
fn lc_free_of_caps_transient_follows_source() {
    let mut ckt = Circuit::new();
    ckt.voltage_source_wave(
        "v",
        "in",
        "0",
        Waveform::Sin {
            offset: 0.0,
            amplitude: 1.0,
            freq: 1e6,
            delay: 0.0,
        },
    )
    .unwrap();
    ckt.resistor("r", "in", "out", 1e3).unwrap();
    ckt.resistor("r2", "out", "0", 1e3).unwrap();
    let tran = ckt.transient(1e-8, 1e-6, TranOptions::default()).unwrap();
    let v = tran.voltages("out").unwrap();
    // Pure resistive divider follows the sine at half amplitude.
    let quarter = 25; // t = 0.25 µs, sin peak
    assert!((v[quarter] - 0.5).abs() < 1e-3, "v = {}", v[quarter]);
}

#[test]
fn transient_rejects_bad_grid() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 1.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    assert!(ckt.transient(0.0, 1e-6, TranOptions::default()).is_err());
    assert!(ckt.transient(1e-6, 0.0, TranOptions::default()).is_err());
    assert!(ckt.transient(1e-6, 1e-9, TranOptions::default()).is_err());
}

#[test]
fn cmos_like_inverter_vtc_with_toy_models() {
    // Symmetric square-law n/p pair; the VTC must swing rail to rail and
    // cross Vdd/2 at Vin = Vdd/2.
    #[derive(Debug)]
    struct SquareLawPfet {
        k: f64,
        vt: f64,
    }
    impl FetCurve for SquareLawPfet {
        fn ids(&self, vgs: f64, vds: f64) -> f64 {
            // p-type: conduct for vgs < −|vt|; mirror of the n-type.
            let n = SquareLawNfet {
                k: self.k,
                vt: self.vt,
            };
            -n.ids(-vgs, -vds)
        }
    }
    let nfet = Arc::new(SquareLawNfet { k: 2e-3, vt: 0.3 });
    let pfet = Arc::new(SquareLawPfet { k: 2e-3, vt: 0.3 });
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", 1.0);
    ckt.voltage_source("vin", "in", "0", 0.0);
    ckt.fet("mp", "out", "in", "vdd", pfet).unwrap();
    ckt.fet("mn", "out", "in", "0", nfet).unwrap();
    let sweep = ckt
        .dc_sweep("vin", 0.0, 1.0, 0.02, DcOptions::default())
        .unwrap();
    let vout = sweep.voltages("out").unwrap();
    assert!(vout[0] > 0.99, "output high at Vin = 0: {}", vout[0]);
    assert!(vout[50] < 0.01, "output low at Vin = 1: {}", vout[50]);
    // Monotone decreasing.
    assert!(vout.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    // The switching threshold brackets mid-rail for the symmetric pair.
    // (With ideal square-law devices the VTC is vertical at Vdd/2, so the
    // mid-point value itself is indeterminate inside the plateau.)
    assert!(vout[23] > 0.5, "V(out) at 0.46 V = {}", vout[23]);
    assert!(vout[27] < 0.5, "V(out) at 0.54 V = {}", vout[27]);
}

#[test]
fn op_result_error_paths() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 1.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    let op = ckt.op().unwrap();
    assert!(op.voltage("ghost").is_err());
    assert!(op.source_current("r").is_err());
    assert_eq!(op.voltage("0").unwrap(), 0.0);
}

#[test]
fn inductor_is_a_dc_short() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "in", "0", 1.0);
    ckt.resistor("r", "in", "mid", 1e3).unwrap();
    ckt.inductor("l", "mid", "0", 1e-3).unwrap();
    let op = ckt.op().unwrap();
    assert!(op.voltage("mid").unwrap().abs() < 1e-6, "short to ground");
    // The inductor branch carries the full loop current.
    assert!((op.source_current("l").unwrap() - 1e-3).abs() < 1e-8);
}

#[test]
fn rl_current_rises_exponentially() {
    // V steps 0 → 1 V at t0 into R = 1 kΩ + L = 1 mH: τ = L/R = 1 µs,
    // i(t) = (V/R)·(1 − e^(−(t − t0)/τ)).
    let tau = 1e-6;
    let h = tau / 100.0;
    let t0 = 5.0 * h;
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
    ckt.resistor("r", "in", "mid", 1e3).unwrap();
    ckt.inductor("l", "mid", "0", 1e-3).unwrap();
    let tran = ckt.transient(h, 5.0 * tau, TranOptions::default()).unwrap();
    // Probe the inductor current through the mid-node voltage:
    // v(mid) = v_L = V − i·R → i = (v(in) − v(mid))/R.
    let vin = tran.voltages("in").unwrap();
    let vmid = tran.voltages("mid").unwrap();
    let t = tran.times();
    for k in 0..t.len() {
        if t[k] <= t0 + 2.0 * h {
            continue;
        }
        let i = (vin[k] - vmid[k]) / 1e3;
        let exact = 1e-3 * (1.0 - (-(t[k] - t0) / tau).exp());
        assert!(
            (i - exact).abs() < 2e-5,
            "t = {:.3e}: i = {i:.4e} vs {exact:.4e}",
            t[k]
        );
    }
}

#[test]
fn lc_tank_resonates_in_ac() {
    // Series R into a parallel LC tank: the tank impedance peaks at
    // f0 = 1/(2π√(LC)) ≈ 503 kHz for L = 1 mH, C = 100 nF.
    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "in", "0", 0.0);
    ckt.resistor("rs", "in", "tank", 10e3).unwrap();
    ckt.inductor("l", "tank", "0", 1e-3).unwrap();
    ckt.capacitor("c", "tank", "0", 100e-9).unwrap();
    let freqs: Vec<f64> = (0..161)
        .map(|k| 1e4 * 10f64.powf(k as f64 / 40.0))
        .collect();
    let ac = ckt.ac_sweep("vin", &freqs, AcOptions::default()).unwrap();
    let mag = ac.magnitude("tank").unwrap();
    let (k_peak, peak) =
        mag.iter().enumerate().fold(
            (0, 0.0),
            |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) },
        );
    let f_peak = freqs[k_peak];
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3_f64 * 100e-9).sqrt());
    assert!(
        (f_peak / f0 - 1.0).abs() < 0.1,
        "peak at {f_peak:.3e} vs f0 = {f0:.3e}"
    );
    assert!(peak > 5.0 * mag[0], "resonant peak stands out: {peak:.3}");
}

#[test]
fn deck_parser_accepts_inductor_cards() {
    let ckt = carbon_spice::parser::parse_deck(
        "V1 in 0 1.0
         R1 in mid 1k
         L1 mid 0 10u",
    )
    .unwrap();
    let op = ckt.op().unwrap();
    assert!(op.voltage("mid").unwrap().abs() < 1e-6);
}

#[test]
fn transient_rejects_bad_horizons_naming_the_field() {
    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "a", "0", 1.0);
    ckt.resistor("r", "a", "0", 1e3).unwrap();
    let cases = [
        (f64::NAN, 1e-3, "tstep"),
        (f64::INFINITY, 1e-3, "tstep"),
        (1e-6, f64::NAN, "tstop"),
        (1e-6, f64::NEG_INFINITY, "tstop"),
        (0.0, 1e-3, "tstep"),
        (-1e-6, 1e-3, "tstep"),
        (1e-6, 0.0, "tstop"),
        (1e-6, -1e-3, "tstop"),
    ];
    for (tstep, tstop, field) in cases {
        match ckt.transient(tstep, tstop, TranOptions::default()) {
            Err(SpiceError::InvalidSweep { reason }) => assert!(
                reason.contains(field),
                "transient({tstep}, {tstop}): expected '{field}' in '{reason}'"
            ),
            other => panic!("transient({tstep}, {tstop}): expected InvalidSweep, got {other:?}"),
        }
    }
    // A step longer than the horizon is named with both values.
    match ckt.transient(2e-3, 1e-3, TranOptions::default()) {
        Err(SpiceError::InvalidSweep { reason }) => {
            assert!(
                reason.contains("tstep") && reason.contains("tstop"),
                "{reason}"
            );
        }
        other => panic!("expected InvalidSweep, got {other:?}"),
    }
}

#[test]
fn pre_cancelled_token_stops_every_analysis() {
    use carbon_runtime::{cancel, CancelToken};

    let mut ckt = Circuit::new();
    ckt.voltage_source("v", "in", "0", 1.0);
    ckt.resistor("r", "in", "out", 1e3).unwrap();
    ckt.capacitor("c", "out", "0", 1e-9).unwrap();
    let token = CancelToken::new();
    token.cancel();
    cancel::scope(&token, || {
        assert!(matches!(ckt.op(), Err(SpiceError::Cancelled { .. })));
        assert!(matches!(
            ckt.dc_sweep("v", 0.0, 1.0, 0.1, DcOptions::default()),
            Err(SpiceError::Cancelled { .. })
        ));
        assert!(matches!(
            ckt.ac_sweep("v", &[1e3, 1e4], AcOptions::default()),
            Err(SpiceError::Cancelled { .. })
        ));
        assert!(matches!(
            ckt.transient(1e-7, 1e-5, TranOptions::default()),
            Err(SpiceError::Cancelled { .. })
        ));
    });
    // Outside the scope the same analyses run to completion.
    assert!(ckt.op().is_ok());
    assert!(ckt.transient(1e-7, 1e-6, TranOptions::default()).is_ok());
}
