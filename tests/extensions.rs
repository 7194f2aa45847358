//! Integration tests for the extension features: AC analysis + RF
//! figures of merit, the SPICE-deck parser, static gates, VMR, and
//! single-chirality sorting — each exercised through the umbrella crate.

use std::sync::Arc;

use carbon_electronics::band::Chirality;
use carbon_electronics::devices::{AlphaPowerFet, BallisticFet, TableFet};
use carbon_electronics::experiments::{ablations, rf};
use carbon_electronics::fab::{ChiralitySeparation, SelfAssembly, SynthesisRecipe, VmrProcess};
use carbon_electronics::logic::{GateTopology, RfStage, StaticGate};
use carbon_electronics::spice::{parser::parse_deck, DcOptions, TranOptions};
use carbon_electronics::units::{Capacitance, Resistance, Voltage};
use carbon_runtime::Xoshiro256pp;

#[test]
fn rf_experiment_reproduces_the_schwierz_argument() {
    let cmp = rf::run().expect("rf experiment runs");
    assert!(cmp.cnt.voltage_gain > 5.0);
    assert!(cmp.gnr.voltage_gain < 2.0);
    assert!(cmp.cnt.fmax > 3.0 * cmp.gnr.fmax);
    // The AC engine agrees with the analytic small-signal picture.
    assert!(cmp.cnt_simulated_gain > 2.0 * cmp.gnr_simulated_gain);
}

#[test]
fn ac_analysis_of_a_tabulated_cnt_stage() {
    // End-to-end: ballistic model → table → RF stage → AC simulation.
    let live = BallisticFet::cnt_fig1().expect("model builds");
    let fast = TableFet::sample(&live, (-0.2, 0.8), (-0.2, 0.8), 41, 41).expect("table");
    let stage = RfStage::new(
        Arc::new(fast),
        Voltage::from_volts(0.5),
        Voltage::from_volts(0.4),
        Capacitance::from_attofarads(8.0),
        Capacitance::from_attofarads(4.0),
        Resistance::from_ohms(100.0),
    )
    .expect("stage builds");
    let gain = stage
        .simulated_voltage_gain(Resistance::from_kilohms(500.0))
        .expect("ac solves");
    assert!(gain > 2.0, "tabulated CNT still amplifies: {gain}");
}

#[test]
fn deck_parser_to_all_four_analyses() {
    let ckt = parse_deck(
        "* RC band-limited divider
         V1 in 0 PULSE(0 1 1u 10n 10n 100u 0)
         R1 in mid 10k
         R2 mid 0 10k
         C1 mid 0 1n",
    )
    .expect("parses");
    let op = ckt.op().expect("op");
    assert!((op.voltage("mid").expect("node") - 0.0).abs() < 1e-6);
    let sweep = ckt
        .dc_sweep("V1", 0.0, 1.0, 0.1, DcOptions::default())
        .expect("sweep");
    assert!((sweep.voltages("mid").expect("node")[10] - 0.5).abs() < 1e-6);
    let tran = ckt
        .transient(1e-7, 2e-5, TranOptions::default())
        .expect("transient");
    let v_end = *tran.voltages("mid").expect("node").last().expect("points");
    assert!(
        (v_end - 0.5).abs() < 0.02,
        "settles to the divider: {v_end}"
    );
    let ac = ckt.ac_sweep("v1", &[1e2, 1e5, 1e8]).expect("ac");
    let mag = ac.magnitude("mid").expect("node");
    assert!(mag[0] > 0.49 && mag[2] < 0.05, "low-pass divider");
}

#[test]
fn nand_nor_gates_work_with_tabulated_cnt_devices() {
    let n_live = BallisticFet::cnt_fig1().expect("builds");
    let band = carbon_electronics::band::CntBand::from_bandgap(
        carbon_electronics::units::Energy::from_electron_volts(0.56),
    )
    .expect("gap ok");
    let p_live = BallisticFet::builder(Arc::new(band))
        .threshold_voltage(0.3)
        .p_type()
        .build()
        .expect("builds");
    let vdd = 0.5;
    let n = Arc::new(TableFet::sample(&n_live, (-0.2, 0.7), (-0.2, 0.7), 41, 41).expect("t"));
    let p = Arc::new(TableFet::sample(&p_live, (-0.7, 0.2), (-0.7, 0.2), 41, 41).expect("t"));
    for topology in [GateTopology::Nand2, GateTopology::Nor2] {
        let gate = StaticGate::new(topology, n.clone(), p.clone(), Voltage::from_volts(vdd))
            .expect("gate builds");
        assert!(
            gate.is_functional().expect("solves"),
            "{topology:?} restores levels with CNT devices"
        );
    }
    // Sanity with the reference silicon-like pair too.
    let gate = StaticGate::new(
        GateTopology::Nand2,
        Arc::new(AlphaPowerFet::fig2_nfet()),
        Arc::new(AlphaPowerFet::fig2_pfet()),
        Voltage::from_volts(1.0),
    )
    .expect("gate builds");
    assert!(gate.is_functional().expect("solves"));
}

#[test]
fn vmr_then_yield_closes_the_loop() {
    let mut rng = Xoshiro256pp::seed_from_u64(31);
    let vmr = VmrProcess::shulaker();
    let out = vmr.simulate(&mut rng, &SelfAssembly::park_high_density(), 0.95, 20_000);
    assert!(out.functional_after > out.functional_before);
    assert!(out.shorts_after < out.shorts_before / 20.0);
}

#[test]
fn single_chirality_pipeline() {
    let mut rng = Xoshiro256pp::seed_from_u64(41);
    let target = Chirality::new(13, 0).expect("valid");
    let recipe = SynthesisRecipe::new(
        target.diameter(),
        carbon_electronics::units::Length::from_nanometers(0.08),
    )
    .expect("recipe");
    let sep = ChiralitySeparation::dna_grade(target).expect("stage");
    let mut batch = recipe.sample_batch(&mut rng, 10_000);
    let before = sep.purity(&batch);
    for _ in 0..3 {
        batch = sep.pass(&mut rng, &batch);
    }
    let after = sep.purity(&batch);
    assert!(after > before, "{before} → {after}");
}

#[test]
fn ablations_expose_the_design_knobs() {
    let a = ablations::run().expect("ablations run");
    assert!(a.saturation.first().expect("rows").max_gain > 1.0);
    assert!(a.saturation.last().expect("rows").max_gain < 1.0);
    assert!(a.tfet.first().expect("rows").1 > a.tfet.last().expect("rows").1);
}
