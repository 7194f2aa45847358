//! Cross-crate property-based tests: invariants that must hold for
//! randomly drawn parameters, not just the presets the experiments use.

use std::sync::Arc;

use carbon_electronics::band::{Band1d, CntBand};
use carbon_electronics::devices::{
    AlphaPowerFet, BallisticFet, LinearGnrFet, SeriesResistance, TableFet,
};
use carbon_electronics::fab::{CircuitYield, SortingProcess};
use carbon_electronics::spice::parser::parse_deck;
use carbon_electronics::spice::{Circuit, DcOptions, FetCurve, Waveform};
use carbon_electronics::units::{Energy, Resistance, Temperature};
use carbon_runtime::prop::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any random R-divider deck must solve to the analytic division.
    #[test]
    fn parsed_divider_matches_analytic(
        r1 in 10.0_f64..1e6,
        r2 in 10.0_f64..1e6,
        v in -10.0_f64..10.0,
    ) {
        let deck = format!("V1 in 0 {v}\nR1 in out {r1}\nR2 out 0 {r2}");
        let ckt = parse_deck(&deck).expect("parses");
        let op = ckt.op().expect("solves");
        let expect = v * r2 / (r1 + r2);
        prop_assert!((op.voltage("out").expect("node") - expect).abs() < 1e-6 + 1e-6 * expect.abs());
    }

    /// Waveforms never exceed their construction envelope.
    #[test]
    fn pulse_waveform_bounded(
        low in -2.0_f64..2.0,
        high in -2.0_f64..2.0,
        t in 0.0_f64..1e-6,
        width in 1e-9_f64..1e-7,
        period in 0.0_f64..2e-7,
    ) {
        let w = Waveform::Pulse {
            low,
            high,
            delay: 1e-8,
            rise: 1e-9,
            fall: 1e-9,
            width,
            period,
        };
        let v = w.value_at(t);
        let (lo, hi) = (low.min(high), low.max(high));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "v = {v} outside [{lo}, {hi}]");
    }

    /// Series resistance can only reduce the current magnitude, for any
    /// bias and any resistance.
    #[test]
    fn series_resistance_never_amplifies(
        vgs in -0.2_f64..0.8,
        vds in -0.5_f64..0.5,
        r_kohm in 0.1_f64..500.0,
    ) {
        let inner = Arc::new(AlphaPowerFet::fig2_nfet());
        let loaded = SeriesResistance::symmetric(inner.clone(), Resistance::from_kilohms(r_kohm));
        let i0 = inner.ids(vgs, vds).abs();
        let i1 = loaded.ids(vgs, vds).abs();
        prop_assert!(i1 <= i0 * (1.0 + 1e-6) + 1e-18, "loaded {i1:.3e} > unloaded {i0:.3e}");
    }

    /// Table models stay within the sampled model's range on the grid
    /// window (bilinear interpolation cannot overshoot the corner
    /// values of its cell).
    #[test]
    fn table_model_is_bounded_by_samples(
        vgs in 0.0_f64..1.0,
        vds in 0.0_f64..1.0,
    ) {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 21, 21).expect("table");
        let v = table.ids(vgs, vds);
        // Global bounds of the sampled function on the window.
        let max = inner.ids(1.0, 1.0);
        prop_assert!(v >= -1e-12 && v <= max * 1.0001, "v = {v:.3e}");
    }

    /// Sorting enrichment is monotone in purity and selectivity.
    #[test]
    fn enrichment_monotone(
        p in 0.01_f64..0.99,
        s1 in 0.55_f64..0.95,
        ds in 0.001_f64..0.04,
    ) {
        let weak = SortingProcess::new("weak", s1, 0.9).expect("valid");
        let strong = SortingProcess::new("strong", s1 + ds, 0.9).expect("valid");
        prop_assert!(weak.enrich(p) >= p);
        prop_assert!(strong.enrich(p) >= weak.enrich(p));
    }

    /// Circuit yield is monotone in device yield and anti-monotone in
    /// device count.
    #[test]
    fn yield_monotonicity(y in 0.5_f64..1.0, dy in 0.0_f64..0.001, n in 1u32..500) {
        let a = CircuitYield::new(y).expect("probability");
        let b = CircuitYield::new((y + dy).min(1.0)).expect("probability");
        prop_assert!(b.all_of(n) >= a.all_of(n));
        prop_assert!(a.all_of(n + 1) <= a.all_of(n));
    }

    /// The ballistic model's directed current is always bounded by the
    /// Landauer limit of its populated subbands.
    #[test]
    fn directed_current_below_landauer(mu_ev in -0.3_f64..1.2) {
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56)).expect("gap");
        let t = Temperature::room();
        let i = band.directed_current(Energy::from_electron_volts(mu_ev), t);
        // Exact bound: kT·ln(1 + e^(x/kT)) ≤ max(x, 0) + kT·ln 2 per
        // subband, so I⁺ ≤ Σ g·(q/h)·q·(max(µ − Δ, 0) + kT·ln 2).
        let q_over_h = carbon_electronics::units::consts::Q_E
            / carbon_electronics::units::consts::PLANCK_H;
        let kt_ev = t.thermal_voltage().volts();
        let bound: f64 = band
            .subbands()
            .iter()
            .map(|s| {
                let window =
                    (mu_ev - s.edge.electron_volts()).max(0.0) + kt_ev * std::f64::consts::LN_2;
                s.degeneracy * q_over_h * window * carbon_electronics::units::consts::Q_E
            })
            .sum();
        prop_assert!(i <= bound * 1.01 + 1e-18, "I = {i:.3e} vs bound {bound:.3e}");
    }

    /// Any saturating alpha-power inverter with reasonable symmetric
    /// devices produces a monotone non-increasing VTC.
    #[test]
    fn random_inverter_vtc_is_monotone(
        vt in 0.15_f64..0.45,
        lambda in 0.0_f64..0.5,
    ) {
        let nfet = AlphaPowerFet::new(vt, 1.3, 7.2e-4, 0.8, lambda, 75.0).expect("valid");
        let pfet = nfet.clone().into_p_type();
        let inv = carbon_electronics::logic::Inverter::new(
            Arc::new(nfet),
            Arc::new(pfet),
            carbon_electronics::units::Voltage::from_volts(1.0),
        )
        .expect("inverter");
        let vtc = inv.vtc(41).expect("solves");
        prop_assert!(
            vtc.vout().windows(2).all(|w| w[1] <= w[0] + 1e-6),
            "non-monotone VTC"
        );
    }

    /// The non-saturating GNR stays quasi-ohmic for any in-range gate
    /// drive: conductance at 0.4 V bias within 25 % of the small-signal
    /// conductance.
    #[test]
    fn linear_gnr_is_quasi_ohmic(vgs in 0.4_f64..1.2) {
        let g = LinearGnrFet::sub10nm_fig1();
        let g_small = g.ids(vgs, 0.01) / 0.01;
        let g_large = g.ids(vgs, 0.4) / 0.4;
        prop_assert!((g_large / g_small - 1.0).abs() < 0.25);
    }

    /// DC sweeps of a diode loop are continuous: adjacent points differ
    /// by a bounded step (Newton continuation does not jump branches).
    #[test]
    fn diode_sweep_is_continuous(r in 100.0_f64..10e3) {
        let mut ckt = Circuit::new();
        ckt.voltage_source("v", "in", "0", 0.0);
        ckt.resistor("r", "in", "d", r).expect("resistor");
        ckt.diode("d1", "d", "0", 1e-15, 1.0).expect("diode");
        let sweep = ckt.dc_sweep("v", -1.0, 2.0, 0.05, DcOptions::default()).expect("sweeps");
        let vd = sweep.voltages("d").expect("node");
        prop_assert!(vd.windows(2).all(|w| (w[1] - w[0]).abs() < 0.2));
    }
}

// The ballistic CNT device: monotone transfer for random device builds.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_ballistic_builds_are_well_behaved(
        gap_ev in 0.4_f64..0.9,
        vt in 0.2_f64..0.4,
        c_ins in 1e-10_f64..1e-9,
    ) {
        let band = CntBand::from_bandgap(Energy::from_electron_volts(gap_ev)).expect("gap");
        let fet = BallisticFet::builder(Arc::new(band))
            .threshold_voltage(vt)
            .gate_capacitance_per_length(c_ins)
            .build()
            .expect("builds");
        let mut prev = fet.ids(-0.1, 0.5);
        for k in 0..12 {
            let vg = -0.1 + k as f64 * 0.08;
            let i = fet.ids(vg, 0.5);
            prop_assert!(i >= prev * 0.999, "monotone at vg = {vg}");
            prop_assert!(i.is_finite() && i >= 0.0);
            prev = i;
        }
    }
}
