//! Independent bias points evaluated in parallel.
//!
//! [`par_ids`] fans scalar [`FetCurve::ids`] calls out on the runtime
//! executor in fixed 16-point chunks; the chunking never depends
//! on the thread count and each point is one pure `ids` call, so results
//! are byte-identical at any `CARBON_THREADS` — this is what
//! [`Fet::transfer`](crate::Fet::transfer) and
//! [`Fet::output`](crate::Fet::output) ride on.

use carbon_spice::FetCurve;

/// Points per chunk of [`par_ids`]. Chunk boundaries depend only on the
/// point count, never on the thread count.
const CHUNK: usize = 16;

/// Drain current at every `(vgs[k], vds[k])`: scalar
/// [`FetCurve::ids`] calls in fixed 16-point chunks on the runtime
/// executor, reassembled by index.
///
/// `out[k]` is bit-identical to `model.ids(vgs[k], vds[k])` at any
/// `CARBON_THREADS`, and the call runs inline when made from inside
/// another parallel region. Emits the `devices.batch.lanes` and
/// `devices.batch.chunks` registry counters.
///
/// # Panics
///
/// Panics if `vgs` and `vds` differ in length, naming both lengths.
pub fn par_ids<M: FetCurve + ?Sized>(model: &M, vgs: &[f64], vds: &[f64]) -> Vec<f64> {
    let n = vgs.len();
    assert!(
        vds.len() == n,
        "bias lane length mismatch: vgs.len() = {n} but vds.len() = {}",
        vds.len()
    );
    let n_chunks = n.div_ceil(CHUNK);
    carbon_metrics::global_counter!("devices.batch.lanes").add(n as u64);
    carbon_metrics::global_counter!("devices.batch.chunks").add(n_chunks as u64);
    carbon_runtime::Executor::new()
        .par_map(n_chunks, |c| {
            let points = c * CHUNK..((c + 1) * CHUNK).min(n);
            points
                .map(|k| model.ids(vgs[k], vds[k]))
                .collect::<Vec<_>>()
        })
        .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlphaPowerFet, BallisticFet, CntTfet, LinearGnrFet, SeriesResistance, TableFet};

    /// A deterministic mix of in-window, subthreshold, negative-`vds`
    /// and out-of-window points.
    fn grid_lanes(n: usize) -> (Vec<f64>, Vec<f64>) {
        let vgs: Vec<f64> = (0..n).map(|k| -0.4 + 1.8 * k as f64 / n as f64).collect();
        let vds: Vec<f64> = (0..n)
            .map(|k| -0.3 + 1.6 * ((7 * k) % n) as f64 / n as f64)
            .collect();
        (vgs, vds)
    }

    #[test]
    fn par_ids_is_scalar_ids_inline_and_fanned_out() {
        let inner = AlphaPowerFet::fig2_nfet();
        let table = TableFet::sample(&inner, (0.0, 1.0), (0.0, 1.0), 17, 17).unwrap();
        let series = SeriesResistance::symmetric(
            std::sync::Arc::new(AlphaPowerFet::fig2_nfet()),
            carbon_units::Resistance::from_ohms(1e3),
        );
        let ballistic = BallisticFet::cnt_fig1().unwrap();
        // The self-consistent ballistic solve is slow, so it gets a
        // short lane; every other model spans three chunks.
        let models: [(&str, &dyn FetCurve, usize); 8] = [
            ("alpha-power n", &AlphaPowerFet::fig2_nfet(), 37),
            ("alpha-power p", &AlphaPowerFet::fig2_pfet(), 37),
            ("linear GNR n", &LinearGnrFet::sub10nm_fig1(), 37),
            ("linear GNR p", &LinearGnrFet::fig2_pfet(), 37),
            ("table", &table, 37),
            ("series", &series, 37),
            ("tfet", &CntTfet::fig6(), 37),
            ("ballistic", &ballistic, 9),
        ];
        for (name, model, n) in models {
            let (vgs, vds) = grid_lanes(n);
            let fanned_out = par_ids(model, &vgs, &vds);
            let inline = carbon_runtime::executor::as_worker(|| par_ids(model, &vgs, &vds));
            assert_eq!(fanned_out.len(), n, "{name}");
            for k in 0..n {
                let scalar = model.ids(vgs[k], vds[k]).to_bits();
                assert_eq!(fanned_out[k].to_bits(), scalar, "{name} point {k}");
                assert_eq!(inline[k].to_bits(), scalar, "{name} point {k} inline");
            }
        }
    }

    #[test]
    fn empty_lanes_are_a_noop() {
        assert!(par_ids(&AlphaPowerFet::fig2_nfet(), &[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "bias lane length mismatch: vgs.len() = 3 but vds.len() = 2")]
    fn mismatched_lanes_panic_with_named_fields() {
        par_ids(&AlphaPowerFet::fig2_nfet(), &[0.1, 0.2, 0.3], &[0.5, 0.5]);
    }
}
