//! Batched device evaluation: the per-point / per-device dispatch the
//! hot consumers used before the SoA layer, versus the batch kernels.
//!
//! The `campaign_*/10000` pair is the headline: a 10k-device
//! Monte-Carlo campaign (per-device threshold draw, per-device model,
//! one bias evaluation each) the pre-batch way — one fine-grained
//! executor item per device, rebuilding the model per sample — against
//! the batch layer's shape: chunked parameter sampling into a vt lane,
//! then a single `ids_soa_vt` call. On a multi-core host the batch
//! side additionally wins the executor chunking; single-core, the win
//! is the hoisting (per-device RNG-stream setup, distribution and
//! model construction, softplus scale) alone.

use carbon_devices::batch::{par_ids_soa, BatchEval};
use carbon_devices::{AlphaPowerFet, BallisticFet, LinearGnrFet, TableFet};
use carbon_runtime::bench::{black_box, Harness};
use carbon_runtime::{Distribution, Executor, Normal};
use carbon_spice::FetCurve;

fn main() {
    let mut h = Harness::group("device_batch");
    let n = 10_000usize;
    // Campaign-shaped lanes: bias points spread over the operating
    // window with incommensurate strides, so no branch pattern repeats.
    let vgs: Vec<f64> = (0..n)
        .map(|i| -0.2 + 1.1 * (i % 131) as f64 / 130.0)
        .collect();
    let vds: Vec<f64> = (0..n)
        .map(|i| 0.05 + 0.85 * (i % 97) as f64 / 96.0)
        .collect();

    // --- The 10k-sample campaign kernel -----------------------------
    let gnr = LinearGnrFet::new(2e-4, 0.35, 90.0, 0.3, 0.5).expect("model builds");
    h.bench(&format!("campaign_scalar/{n}"), || {
        // Pre-batch idiom (cf. sample_device): one executor item per
        // device, distribution and model constructed per sample.
        black_box(Executor::new().par_mc_fine(7, n, |i, rng| {
            let vt = Normal::new(0.35, 0.07_f64.max(1e-12))
                .expect("validated")
                .sample(rng);
            gnr.with_vt(vt).ids(vgs[i], vds[i])
        }));
    });
    h.bench(&format!("campaign_soa/{n}"), || {
        // Batch layer: sample the parameter lane on the chunked
        // executor, evaluate all devices in one SoA call.
        let dist = Normal::new(0.35, 0.07_f64.max(1e-12)).expect("validated");
        let vt = Executor::new().par_mc(7, n, |_, rng| dist.sample(rng));
        let mut out = vec![0.0; n];
        gnr.ids_soa_vt(&vgs, &vds, &vt, &mut out);
        black_box(out);
    });

    // --- Table lookups: pure kernels and executor entry points ------
    let live = BallisticFet::cnt_fig1().expect("model builds");
    let table = TableFet::sample(&live, (-0.3, 1.2), (-0.1, 1.0), 61, 61).expect("table");
    let mut out = vec![0.0; n];
    h.bench(&format!("table_ids_scalar/{n}"), || {
        for ((o, &g), &d) in out.iter_mut().zip(&vgs).zip(&vds) {
            *o = table.ids(black_box(g), black_box(d));
        }
        black_box(&out);
    });
    h.bench(&format!("table_ids_soa/{n}"), || {
        table.ids_soa(black_box(&vgs), black_box(&vds), &mut out);
        black_box(&out);
    });
    // The pre-batch transfer/tabulation idiom: one executor item per
    // grid point, vs the chunked batch entry point.
    h.bench(&format!("table_par_scalar/{n}"), || {
        black_box(Executor::new().par_map(n, |k| table.ids(black_box(vgs[k]), black_box(vds[k]))));
    });
    h.bench(&format!("table_par_soa/{n}"), || {
        black_box(par_ids_soa(&table, black_box(&vgs), black_box(&vds)));
    });

    // --- Monte-Carlo parameter lanes on the alpha-power model -------
    let alpha = AlphaPowerFet::new(0.35, 1.3, 7.2e-4, 0.8, 0.15, 75.0).expect("model builds");
    let vt: Vec<f64> = (0..n)
        .map(|i| 0.25 + 0.2 * (i % 53) as f64 / 52.0)
        .collect();
    h.bench(&format!("alpha_vt_scalar/{n}"), || {
        for (k, o) in out.iter_mut().enumerate() {
            *o = alpha
                .with_vt(black_box(vt[k]))
                .expect("valid vt")
                .ids(vgs[k], vds[k]);
        }
        black_box(&out);
    });
    h.bench(&format!("alpha_vt_soa/{n}"), || {
        alpha.ids_soa_vt(black_box(&vgs), black_box(&vds), black_box(&vt), &mut out);
        black_box(&out);
    });

    h.finish();
}
