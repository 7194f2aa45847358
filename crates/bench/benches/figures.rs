//! One benchmark per paper figure/claim: times the complete
//! regeneration of each artifact and prints its headline numbers once,
//! so a bench run doubles as an experiment run.

use carbon_fab::VariabilityModel;
use carbon_runtime::bench::{black_box, Harness};
use carbon_runtime::Executor;

use carbon_core::{claims, fig1, fig2, fig3, fig4, fig5, fig6, fig7_stats, fig8_computer};

fn main() {
    let mut h = Harness::group("figures");

    let fig = fig1::run().expect("fig1 runs");
    println!(
        "[fig1] log-gap {:.2} dec; saturation CNT {:.1} / realGNR {:.2}",
        fig.transfer_log_gap, fig.saturation_figures[0], fig.saturation_figures[2]
    );
    h.bench("fig1_cnt_vs_gnr", || {
        black_box(fig1::run().expect("runs"));
    });

    let fig = fig2::run().expect("fig2 runs");
    println!(
        "[fig2] gains {:.2}/{:.2}; NM {:.2}/{:.2} V",
        fig.max_gain[0], fig.max_gain[1], fig.margins_saturating.low, fig.margins_saturating.high
    );
    h.bench("fig2/inverter_vtcs", || {
        black_box(fig2::run().expect("runs"));
    });

    let fig = fig3::run().expect("fig3 runs");
    println!(
        "[fig3] GAA SS@9nm {:.1} mV/dec; CNT CET {:.2} nm",
        fig.geometries[2].ss[0],
        fig.cet_by_material.last().expect("rows").1
    );
    h.bench("fig3_electrostatics", || {
        black_box(fig3::run().expect("runs"));
    });

    let fig = fig4::run().expect("fig4 runs");
    println!(
        "[fig4] current ÷{:.2}; saturation {:.1}→{:.1}",
        fig.current_reduction, fig.saturation[0], fig.saturation[1]
    );
    h.bench("fig4/contact_resistance", || {
        black_box(fig4::run().expect("runs"));
    });

    let fig = fig5::run().expect("fig5 runs");
    println!("[fig5] CNT advantage ≥ {:.1}×", fig.min_advantage);
    h.bench("fig5/technology_benchmark", || {
        black_box(fig5::run().expect("runs"));
    });

    let fig = fig6::run().expect("fig6 runs");
    println!(
        "[fig6] SS avg {:.1} best {:.1} mV/dec; {:.2} mA/µm",
        fig.average_swing, fig.best_swing, fig.on_density_ma_per_um
    );
    h.bench("fig6_tunnel_fet", || {
        black_box(fig6::run().expect("runs"));
    });

    let cl = claims::run().expect("claims run");
    println!(
        "[claims] trigate {:.0} µA vs CNT {:.0} µA @0.6 V; {:.0}× area",
        cl.trigate_ion * 1e6,
        cl.cnt_ion_06 * 1e6,
        cl.cross_section_ratio
    );
    h.bench("scalar_claims", || {
        black_box(claims::run().expect("runs"));
    });

    let fig = fig7_stats::run().expect("fig7 runs");
    println!(
        "[fig7] functional {:.1} %; Vt {:.3}±{:.3} V",
        fig.fractions[0] * 100.0,
        fig.vt_stats.0,
        fig.vt_stats.1
    );
    // The job reads the campaign drawn once per process; the sampler
    // row times the draw itself.
    h.bench("fig7/park_campaign", || {
        black_box(fig7_stats::run().expect("runs"));
    });
    let model = VariabilityModel::park_experiment();
    h.bench("fig7/sample_10k", || {
        black_box(model.sample_population_with(
            &Executor::new(),
            fig7_stats::CAMPAIGN_SEED,
            fig7_stats::CAMPAIGN_SIZE,
        ));
    });

    let fig = fig8_computer::run().expect("fig8 runs");
    println!(
        "[fig8] stage {:.0} ps; sorted {:?}; counting {} instr",
        fig.stage_delay_s * 1e12,
        fig.sorted,
        fig.counting.0
    );
    h.bench("fig8/cnt_computer", || {
        black_box(fig8_computer::run().expect("runs"));
    });

    h.finish();
}
