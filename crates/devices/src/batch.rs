//! Structure-of-arrays batched device evaluation.
//!
//! One call evaluates a compact model over many bias points (and, via
//! the per-model parameter-lane kernels such as
//! [`AlphaPowerFet::ids_soa_vt`](crate::AlphaPowerFet::ids_soa_vt), many
//! Monte-Carlo parameter samples): separate `vgs[]`/`vds[]` lanes
//! instead of an array of structs, per-model kernels that hoist field
//! loads and grid geometry out of the loop, and fixed-width
//! `chunks_exact` bodies the compiler can unroll and vectorize.
//!
//! The scalar `ids`/`eval` path is the **bit-identity oracle**: every
//! lane of every kernel must reproduce the corresponding scalar call
//! bitwise — batching is a speedup, never a numerics change (the same
//! contract as the dense/sparse LU split in `carbon-spice`). Kernels
//! keep that promise by hoisting only *loads* (fields, derived
//! constants computed with the exact scalar expressions) while leaving
//! the per-lane arithmetic operand-for-operand identical; no `mul_add`,
//! no reassociation.
//!
//! Lane lengths follow the one contract of
//! [`carbon_spice::batch_lanes_match`]: mismatches panic naming both
//! fields, empty lane sets are a no-op.
//!
//! [`par_ids_soa`] runs a lane set on the runtime executor in fixed
//! [`SOA_CHUNK`]-point chunks; the chunking never depends on the thread
//! count and per-chunk work is pure, so results are byte-identical at
//! any `CARBON_THREADS` — this is what [`Fet::transfer`](crate::Fet)
//! and [`Fet::output`](crate::Fet) ride on.

use carbon_spice::batch_lanes_match;

/// Unroll width of the shared SoA loop drivers: wide enough to fill
/// 512-bit vectors, small enough that the scalar tail stays cheap.
const LANE: usize = 8;

/// Fixed chunk size of [`par_ids_soa`]. Chunk boundaries depend only on
/// the lane count, never on the thread count, so the reassembled result
/// is byte-identical at any `CARBON_THREADS`.
pub const SOA_CHUNK: usize = 16;

/// Structure-of-arrays batched evaluation over separate `vgs`/`vds`
/// lanes: one entry point, [`ids_soa`](Self::ids_soa).
///
/// It must stay **bit-identical** to the scalar
/// [`FetCurve::ids`](carbon_spice::FetCurve::ids) — the default loop is
/// the oracle, overrides only amortize loads and index math. Lane
/// lengths share the [`batch_lanes_match`] contract.
pub trait BatchEval: carbon_spice::FetCurve {
    /// Drain current over matched `vgs`/`vds` lanes, writing `out[i] =
    /// ids(vgs[i], vds[i])` (bitwise).
    ///
    /// # Panics
    ///
    /// Panics per [`batch_lanes_match`] on mismatched lane lengths;
    /// empty lanes return immediately.
    fn ids_soa(&self, vgs: &[f64], vds: &[f64], out: &mut [f64]) {
        if !batch_lanes_match(&[("vgs", vgs.len()), ("vds", vds.len()), ("out", out.len())]) {
            return;
        }
        for ((o, &g), &d) in out.iter_mut().zip(vgs).zip(vds) {
            *o = self.ids(g, d);
        }
    }
}

/// Scalar `eval` routed through one 5-lane [`BatchEval::ids_soa`] call —
/// the shared stencil every overriding model uses, so a Newton
/// iteration's value + derivatives cost one kernel invocation with the
/// model's constants hoisted once instead of five scalar dispatches.
///
/// Bit-identical to the [`FetCurve::eval`](carbon_spice::FetCurve::eval)
/// default because each stencil lane is bit-identical to the scalar
/// `ids` at that bias and the difference quotients are the same
/// expressions.
pub fn eval_via_soa<M: BatchEval + ?Sized>(model: &M, vgs: f64, vds: f64) -> (f64, f64, f64) {
    const H: f64 = 1e-3;
    let vg = [vgs, vgs + H, vgs - H, vgs, vgs];
    let vd = [vds, vds, vds, vds + H, vds - H];
    let mut i = [0.0; 5];
    model.ids_soa(&vg, &vd, &mut i);
    (i[0], (i[1] - i[2]) / (2.0 * H), (i[3] - i[4]) / (2.0 * H))
}

/// Evaluates `ids` over lanes on the runtime executor in fixed
/// [`SOA_CHUNK`]-point chunks, reassembled by index.
///
/// Chunk boundaries depend only on the lane count and the per-chunk
/// work is pure, so the result is byte-identical at any
/// `CARBON_THREADS` — and bit-identical to one
/// [`BatchEval::ids_soa`] call over the whole lane set. Emits
/// `devices.batch.lanes` / `devices.batch.chunks` registry counters.
///
/// # Panics
///
/// Panics per [`batch_lanes_match`] on mismatched lane lengths.
pub fn par_ids_soa<M: BatchEval + ?Sized>(model: &M, vgs: &[f64], vds: &[f64]) -> Vec<f64> {
    if !batch_lanes_match(&[("vgs", vgs.len()), ("vds", vds.len())]) {
        return Vec::new();
    }
    let n = vgs.len();
    let n_chunks = n.div_ceil(SOA_CHUNK);
    carbon_metrics::global_counter!("devices.batch.lanes").add(n as u64);
    carbon_metrics::global_counter!("devices.batch.chunks").add(n_chunks as u64);
    let chunks = carbon_runtime::Executor::new().par_map(n_chunks, |c| {
        let a = c * SOA_CHUNK;
        let b = (a + SOA_CHUNK).min(n);
        let mut out = vec![0.0; b - a];
        model.ids_soa(&vgs[a..b], &vds[a..b], &mut out);
        out
    });
    let mut out = Vec::with_capacity(n);
    for chunk in &chunks {
        out.extend_from_slice(chunk);
    }
    out
}

/// Drives a two-lane SoA kernel body in [`LANE`]-wide `chunks_exact`
/// blocks with a scalar tail: the fixed-trip inner loop is what the
/// compiler unrolls and vectorizes. Lane lengths must already be
/// validated by the caller.
#[inline]
pub(crate) fn soa_loop(vgs: &[f64], vds: &[f64], out: &mut [f64], body: impl Fn(f64, f64) -> f64) {
    let mut o = out.chunks_exact_mut(LANE);
    let mut g = vgs.chunks_exact(LANE);
    let mut d = vds.chunks_exact(LANE);
    for ((ob, gb), db) in (&mut o).zip(&mut g).zip(&mut d) {
        for (ok, (&gk, &dk)) in ob.iter_mut().zip(gb.iter().zip(db)) {
            *ok = body(gk, dk);
        }
    }
    for ((ot, &gt), &dt) in o
        .into_remainder()
        .iter_mut()
        .zip(g.remainder())
        .zip(d.remainder())
    {
        *ot = body(gt, dt);
    }
}

/// Three-lane variant of [`soa_loop`] for kernels with one parameter
/// lane (e.g. a Monte-Carlo `vt[]` sample lane) alongside the bias.
#[inline]
pub(crate) fn soa_loop_param(
    vgs: &[f64],
    vds: &[f64],
    param: &[f64],
    out: &mut [f64],
    body: impl Fn(f64, f64, f64) -> f64,
) {
    let mut o = out.chunks_exact_mut(LANE);
    let mut g = vgs.chunks_exact(LANE);
    let mut d = vds.chunks_exact(LANE);
    let mut p = param.chunks_exact(LANE);
    for (((ob, gb), db), pb) in (&mut o).zip(&mut g).zip(&mut d).zip(&mut p) {
        for (ok, ((&gk, &dk), &pk)) in ob.iter_mut().zip(gb.iter().zip(db).zip(pb)) {
            *ok = body(gk, dk, pk);
        }
    }
    for (((ot, &gt), &dt), &pt) in o
        .into_remainder()
        .iter_mut()
        .zip(g.remainder())
        .zip(d.remainder())
        .zip(p.remainder())
    {
        *ot = body(gt, dt, pt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlphaPowerFet, BallisticFet, CntTfet, LinearGnrFet, SeriesResistance, TableFet};
    use carbon_runtime::prop::prelude::*;
    use carbon_runtime::{prop, Executor};
    use carbon_spice::FetCurve;

    fn grid_lanes(n: usize) -> (Vec<f64>, Vec<f64>) {
        // A deterministic mix of in-window, subthreshold, negative-vds
        // and out-of-window points.
        let vgs: Vec<f64> = (0..n).map(|k| -0.4 + 1.8 * k as f64 / n as f64).collect();
        let vds: Vec<f64> = (0..n)
            .map(|k| -0.3 + 1.6 * ((7 * k) % n) as f64 / n as f64)
            .collect();
        (vgs, vds)
    }

    fn assert_ids_soa_matches_scalar(model: &(impl BatchEval + std::fmt::Debug), n: usize) {
        let (vgs, vds) = grid_lanes(n);
        let mut out = vec![0.0; n];
        model.ids_soa(&vgs, &vds, &mut out);
        for k in 0..n {
            assert_eq!(
                out[k].to_bits(),
                model.ids(vgs[k], vds[k]).to_bits(),
                "{model:?} lane {k} at ({}, {})",
                vgs[k],
                vds[k]
            );
        }
    }

    #[test]
    fn kernels_are_bit_identical_to_scalar_ids() {
        assert_ids_soa_matches_scalar(&AlphaPowerFet::fig2_nfet(), 37);
        assert_ids_soa_matches_scalar(&AlphaPowerFet::fig2_pfet(), 37);
        assert_ids_soa_matches_scalar(&LinearGnrFet::sub10nm_fig1(), 37);
        assert_ids_soa_matches_scalar(&LinearGnrFet::fig2_pfet(), 37);
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 17, 17).unwrap();
        assert_ids_soa_matches_scalar(&table, 37);
    }

    #[test]
    fn ballistic_kernel_is_bit_identical_to_scalar_ids() {
        let cnt = BallisticFet::cnt_fig1().unwrap();
        assert_ids_soa_matches_scalar(&cnt, 9);
    }

    #[test]
    fn default_impls_cover_wrapper_models() {
        let inner = AlphaPowerFet::fig2_nfet();
        let series = SeriesResistance::symmetric(
            std::sync::Arc::new(inner),
            carbon_units::Resistance::from_ohms(1e3),
        );
        assert_ids_soa_matches_scalar(&series, 9);
        let tfet = CntTfet::fig6();
        assert_ids_soa_matches_scalar(&tfet, 9);
    }

    /// Forwards only `ids`, so its `eval` is the trait's default
    /// stencil: the oracle every `eval` override must match bitwise.
    struct DefaultEval<'a>(&'a dyn FetCurve);

    impl FetCurve for DefaultEval<'_> {
        fn ids(&self, vgs: f64, vds: f64) -> f64 {
            self.0.ids(vgs, vds)
        }
    }

    fn eval_bits(model: &dyn FetCurve, vgs: f64, vds: f64) -> [u64; 3] {
        let (id, gm, gds) = model.eval(vgs, vds);
        [id.to_bits(), gm.to_bits(), gds.to_bits()]
    }

    #[test]
    fn eval_overrides_match_the_default_stencil() {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 17, 17).unwrap();
        let models: [(&str, &dyn FetCurve); 5] = [
            ("alpha-power n", &AlphaPowerFet::fig2_nfet()),
            ("alpha-power p", &AlphaPowerFet::fig2_pfet()),
            ("linear GNR n", &LinearGnrFet::sub10nm_fig1()),
            ("linear GNR p", &LinearGnrFet::fig2_pfet()),
            ("table", &table),
        ];
        // Runs past the table window on both axes to cover the clamps.
        let (vgs, vds) = grid_lanes(37);
        for (name, model) in models {
            for (&g, &d) in vgs.iter().zip(&vds) {
                assert_eq!(
                    eval_bits(model, g, d),
                    eval_bits(&DefaultEval(model), g, d),
                    "{name} at ({g}, {d})"
                );
            }
        }
    }

    #[test]
    fn par_ids_soa_matches_single_call_at_any_thread_count() {
        let model = AlphaPowerFet::fig2_nfet();
        let (vgs, vds) = grid_lanes(101);
        let mut serial = vec![0.0; vgs.len()];
        model.ids_soa(&vgs, &vds, &mut serial);
        for threads in [1, 2, 4, 8] {
            // par_map picks up the ambient executor only through
            // thread-count defaults; pin it explicitly per run.
            let par = Executor::with_threads(threads)
                .par_map(vgs.len().div_ceil(SOA_CHUNK), |c| {
                    let a = c * SOA_CHUNK;
                    let b = (a + SOA_CHUNK).min(vgs.len());
                    let mut out = vec![0.0; b - a];
                    model.ids_soa(&vgs[a..b], &vds[a..b], &mut out);
                    out
                })
                .concat();
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.to_bits(), s.to_bits());
            }
        }
        let entry = par_ids_soa(&model, &vgs, &vds);
        for (p, s) in entry.iter().zip(&serial) {
            assert_eq!(p.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn empty_lanes_are_a_noop() {
        let model = AlphaPowerFet::fig2_nfet();
        model.ids_soa(&[], &[], &mut []);
        assert!(par_ids_soa(&model, &[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch lane length mismatch: vgs.len() = 3 but out.len() = 2")]
    fn mismatched_lanes_panic_with_named_fields() {
        let model = AlphaPowerFet::fig2_nfet();
        model.ids_soa(&[0.1, 0.2, 0.3], &[0.5, 0.5, 0.5], &mut [0.0; 2]);
    }

    /// Splits one drawn `[0, 1)` sample vector into `lanes` equal lanes
    /// of `len / lanes` points each, scaled to `[lo, hi)` per lane.
    fn split_lanes(samples: &[f64], lanes: usize, windows: &[(f64, f64)]) -> Vec<Vec<f64>> {
        let n = samples.len() / lanes;
        (0..lanes)
            .map(|l| {
                let (lo, hi) = windows[l];
                samples[l * n..(l + 1) * n]
                    .iter()
                    .map(|&x| lo + (hi - lo) * x)
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_alpha_power_soa_is_bit_identical(
            samples in prop::vec(0.0_f64..1.0, 0..96),
        ) {
            let model = AlphaPowerFet::fig2_nfet();
            let lanes = split_lanes(&samples, 2, &[(-1.5, 1.5), (-1.5, 1.5)]);
            let (vgs, vds) = (&lanes[0], &lanes[1]);
            let mut out = vec![0.0; vgs.len()];
            model.ids_soa(vgs, vds, &mut out);
            for k in 0..vgs.len() {
                prop_assert_eq!(out[k].to_bits(), model.ids(vgs[k], vds[k]).to_bits());
            }
        }

        #[test]
        fn prop_linear_gnr_soa_is_bit_identical(
            samples in prop::vec(0.0_f64..1.0, 0..96),
        ) {
            let model = LinearGnrFet::sub10nm_fig1();
            let lanes = split_lanes(&samples, 2, &[(-1.5, 1.5), (-1.5, 1.5)]);
            let (vgs, vds) = (&lanes[0], &lanes[1]);
            let mut out = vec![0.0; vgs.len()];
            model.ids_soa(vgs, vds, &mut out);
            for k in 0..vgs.len() {
                prop_assert_eq!(out[k].to_bits(), model.ids(vgs[k], vds[k]).to_bits());
            }
        }

        #[test]
        fn prop_table_soa_and_eval_are_bit_identical(
            samples in prop::vec(0.0_f64..1.0, 2..96),
        ) {
            let inner = AlphaPowerFet::fig2_nfet();
            let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 17, 17).unwrap();
            let lanes = split_lanes(&samples, 2, &[(-0.5, 1.5), (-0.5, 1.5)]);
            let (vgs, vds) = (&lanes[0], &lanes[1]);
            let mut out = vec![0.0; vgs.len()];
            table.ids_soa(vgs, vds, &mut out);
            for k in 0..vgs.len() {
                prop_assert_eq!(out[k].to_bits(), table.ids(vgs[k], vds[k]).to_bits());
                prop_assert_eq!(
                    eval_bits(&table, vgs[k], vds[k]),
                    eval_bits(&DefaultEval(&table), vgs[k], vds[k])
                );
            }
        }

        #[test]
        fn prop_alpha_power_vt_lane_matches_rebuilt_model(
            samples in prop::vec(0.0_f64..1.0, 3..96),
        ) {
            let model = AlphaPowerFet::fig2_nfet();
            let lanes = split_lanes(&samples, 3, &[(-1.2, 1.2), (-1.2, 1.2), (0.05, 0.6)]);
            let (vgs, vds, vt) = (&lanes[0], &lanes[1], &lanes[2]);
            let mut out = vec![0.0; vgs.len()];
            model.ids_soa_vt(vgs, vds, vt, &mut out);
            for k in 0..vgs.len() {
                let rebuilt = model.with_vt(vt[k]).unwrap();
                prop_assert_eq!(out[k].to_bits(), rebuilt.ids(vgs[k], vds[k]).to_bits());
            }
        }

        #[test]
        fn prop_linear_gnr_vt_lane_matches_rebuilt_model(
            samples in prop::vec(0.0_f64..1.0, 3..96),
        ) {
            let model = LinearGnrFet::sub10nm_fig1();
            let lanes = split_lanes(&samples, 3, &[(-1.2, 1.2), (-1.2, 1.2), (-0.4, 0.6)]);
            let (vgs, vds, vt) = (&lanes[0], &lanes[1], &lanes[2]);
            let mut out = vec![0.0; vgs.len()];
            model.ids_soa_vt(vgs, vds, vt, &mut out);
            for k in 0..vgs.len() {
                let rebuilt = model.with_vt(vt[k]);
                prop_assert_eq!(out[k].to_bits(), rebuilt.ids(vgs[k], vds[k]).to_bits());
            }
        }

        #[test]
        fn prop_ballistic_soa_is_bit_identical(
            samples in prop::vec(0.0_f64..1.0, 2..10),
        ) {
            let cnt = BallisticFet::cnt_fig1().unwrap();
            let lanes = split_lanes(&samples, 2, &[(-0.3, 0.8), (-0.3, 0.8)]);
            let (vgs, vds) = (&lanes[0], &lanes[1]);
            let mut out = vec![0.0; vgs.len()];
            cnt.ids_soa(vgs, vds, &mut out);
            for k in 0..vgs.len() {
                prop_assert_eq!(out[k].to_bits(), cnt.ids(vgs[k], vds[k]).to_bits());
            }
        }
    }
}
