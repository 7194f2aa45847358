//! Property-based tests of the circuit simulator: conservation laws on
//! random circuits, waveform envelopes, and parser robustness.

use carbon_runtime::prop::prelude::*;
use carbon_spice::parser::{parse_deck, parse_value};
use carbon_spice::{Circuit, TranOptions, Waveform};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// KCL at the source: the current delivered by the only source of a
    /// random star network equals the sum of branch currents computed
    /// from the node voltages.
    #[test]
    fn star_network_conserves_current(
        rs in carbon_runtime::prop::vec(10.0_f64..1e6, 2..8),
        v in -10.0_f64..10.0,
    ) {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "hub", "0", v);
        for (k, r) in rs.iter().enumerate() {
            ckt.resistor(&format!("r{k}"), "hub", "0", *r).expect("unique names");
        }
        let op = ckt.op().expect("solvable");
        let hub = op.voltage("hub").expect("node");
        prop_assert!((hub - v).abs() < 1e-9);
        let i_source = -op.source_current("v").expect("branch");
        let i_sum: f64 = rs.iter().map(|r| v / r).sum();
        prop_assert!((i_source - i_sum).abs() < 1e-9 + 1e-6 * i_sum.abs());
    }

    /// Superposition on a linear two-source network.
    #[test]
    fn linear_superposition(
        v1 in -5.0_f64..5.0,
        v2 in -5.0_f64..5.0,
        r in 100.0_f64..1e5,
    ) {
        let build = |a: f64, b: f64| {
            let mut ckt = Circuit::new();
            ckt.voltage_source("va", "a", "0", a);
            ckt.voltage_source("vb", "b", "0", b);
            ckt.resistor("r1", "a", "mid", r).expect("r1");
            ckt.resistor("r2", "b", "mid", 2.0 * r).expect("r2");
            ckt.resistor("r3", "mid", "0", r).expect("r3");
            ckt.op().expect("solves").voltage("mid").expect("node")
        };
        let both = build(v1, v2);
        let only1 = build(v1, 0.0);
        let only2 = build(0.0, v2);
        prop_assert!((both - only1 - only2).abs() < 1e-8);
    }

    /// Sine waveforms stay inside offset ± amplitude.
    #[test]
    fn sin_waveform_bounded(
        offset in -2.0_f64..2.0,
        amplitude in 0.0_f64..3.0,
        freq in 1e3_f64..1e9,
        t in 0.0_f64..1e-3,
    ) {
        let w = Waveform::Sin { offset, amplitude, freq, delay: 0.0 };
        let v = w.value_at(t);
        prop_assert!(v >= offset - amplitude - 1e-12);
        prop_assert!(v <= offset + amplitude + 1e-12);
    }

    /// PWL interpolation never leaves the convex hull of its corner
    /// values.
    #[test]
    fn pwl_within_hull(
        vals in carbon_runtime::prop::vec(-5.0_f64..5.0, 2..6),
        t in 0.0_f64..10.0,
    ) {
        let pts: Vec<(f64, f64)> = vals
            .iter()
            .enumerate()
            .map(|(k, &v)| (k as f64, v))
            .collect();
        let w = Waveform::Pwl(pts);
        let v = w.value_at(t);
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    /// The deck parser never panics on arbitrary printable input.
    #[test]
    fn parser_never_panics(deck in carbon_runtime::prop::printable_ascii(0..201)) {
        let _ = parse_deck(&deck);
    }

    /// Numbers with suffixes round-trip through the parser at the right
    /// magnitude.
    #[test]
    fn value_suffix_roundtrip(mantissa in 0.001_f64..999.0, suffix in 0usize..8) {
        let (txt, scale) = [
            ("f", 1e-15), ("p", 1e-12), ("n", 1e-9), ("u", 1e-6),
            ("m", 1e-3), ("k", 1e3), ("meg", 1e6), ("g", 1e9),
        ][suffix];
        let token = format!("{mantissa}{txt}");
        let v = parse_value(&token).expect("parses");
        prop_assert!((v / (mantissa * scale) - 1.0).abs() < 1e-12, "{token} → {v}");
    }

    /// Transient of a source-driven resistor tracks the waveform exactly
    /// (no spurious dynamics without reactive elements).
    #[test]
    fn resistive_transient_tracks_source(
        amp in 0.1_f64..3.0,
        freq_mhz in 0.5_f64..5.0,
    ) {
        let mut ckt = Circuit::new();
        ckt.voltage_source_wave(
            "v",
            "in",
            "0",
            Waveform::Sin { offset: 0.0, amplitude: amp, freq: freq_mhz * 1e6, delay: 0.0 },
        ).expect("source");
        ckt.resistor("r1", "in", "out", 1e3).expect("r1");
        ckt.resistor("r2", "out", "0", 1e3).expect("r2");
        let tran = ckt.transient(1e-8, 1e-6, TranOptions::default()).expect("integrates");
        let t = tran.times();
        let v = tran.voltages("out").expect("node");
        for k in (0..t.len()).step_by(17) {
            let expect = 0.5 * amp * (2.0 * std::f64::consts::PI * freq_mhz * 1e6 * t[k]).sin();
            prop_assert!((v[k] - expect).abs() < 1e-6 + 1e-6 * amp, "t = {}", t[k]);
        }
    }

    /// AC magnitude of the RC low-pass is the analytic |H| at every
    /// random frequency.
    #[test]
    fn rc_ac_matches_analytic(f in 1e3_f64..1e9) {
        let (r, c) = (1e3, 1e-9);
        let mut ckt = Circuit::new();
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.resistor("r", "in", "out", r).expect("r");
        ckt.capacitor("c", "out", "0", c).expect("c");
        let ac = ckt.ac_sweep("vin", &[f]).expect("solves");
        let mag = ac.magnitude("out").expect("node")[0];
        let w = 2.0 * std::f64::consts::PI * f;
        let expect = 1.0 / (1.0 + (w * r * c).powi(2)).sqrt();
        prop_assert!((mag - expect).abs() < 1e-6 + 1e-3 * expect, "f = {f:.3e}");
    }
}
