//! Scaling benchmarks of the MNA circuit-simulation substrate: dense LU
//! on growing ladders, Newton convergence on diode chains, DC sweeps,
//! and transient integration.

use carbon_runtime::bench::{black_box, Harness};

use carbon_bench::{diode_chain, fet_cs_amp, log_freqs, rc_ladder, resistor_ladder};
use carbon_spice::parser::parse_deck;
use carbon_spice::{Circuit, DcOptions, TranOptions, Waveform};

fn main() {
    let mut h = Harness::group("solver");

    for n in [8usize, 32, 128] {
        let ckt = resistor_ladder(n);
        h.bench(&format!("mna_ladder_op/{n}"), || {
            black_box(ckt.op().expect("solvable"));
        });
    }

    for n in [8usize, 24, 64] {
        let ckt = diode_chain(n);
        h.bench(&format!("newton_diode_chain/{n}"), || {
            black_box(ckt.op().expect("solvable"));
        });
    }

    // The Fig. 2 voltage-transfer curve — the paper workload that the
    // warm-started sweep and the parallel ladder path serve directly
    // (65 points crosses the `vtc` parallel threshold).
    let inv = carbon_logic::Inverter::fig2_saturating();
    h.bench("fig2_vtc_trace_65pt", || {
        black_box(inv.vtc(65).expect("sweeps"));
    });

    let ckt = resistor_ladder(16);
    h.bench("dc_sweep_100pt", || {
        black_box(
            ckt.dc_sweep("v", 0.0, 1.0, 0.01, DcOptions::default())
                .expect("sweeps"),
        );
    });

    let mut ckt = Circuit::new();
    ckt.voltage_source_wave(
        "v",
        "in",
        "0",
        Waveform::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1e-8,
            rise: 1e-9,
            fall: 1e-9,
            width: 5e-7,
            period: 0.0,
        },
    )
    .expect("source");
    ckt.resistor("r", "in", "out", 1e3).expect("resistor");
    ckt.capacitor("c", "out", "0", 1e-9).expect("capacitor");
    h.bench("transient_rc_1000_steps", || {
        black_box(
            ckt.transient(1e-9, 1e-6, TranOptions::default())
                .expect("integrates"),
        );
    });

    let mut ckt = Circuit::new();
    ckt.voltage_source("vin", "in", "0", 0.0);
    ckt.resistor("r", "in", "out", 1e3).expect("resistor");
    ckt.capacitor("cl", "out", "0", 1e-9).expect("capacitor");
    let freqs: Vec<f64> = (0..100)
        .map(|k| 1e3 * 10f64.powf(k as f64 / 16.0))
        .collect();
    h.bench("ac_sweep_100pt", || {
        black_box(ckt.ac_sweep("vin", &freqs).expect("sweeps"));
    });

    // Sparse AC replay scaling: symbolic analysis once, jωC restamp +
    // numeric replay per frequency point.
    let ac_freqs = log_freqs(50, 1e3, 1e9);
    for n in [32usize, 128] {
        let ckt = rc_ladder(n);
        h.bench(&format!("ac_ladder/{n}"), || {
            black_box(ckt.ac_sweep("vin", &ac_freqs).expect("sweeps"));
        });
    }
    let ckt = fet_cs_amp();
    h.bench("ac_fet_cs_amp", || {
        black_box(ckt.ac_sweep("vin", &ac_freqs).expect("sweeps"));
    });

    let deck = {
        let mut d = String::from("V1 n0 0 1.0\n");
        for i in 0..64 {
            d.push_str(&format!("Rs{i} n{i} n{} 1k\n", i + 1));
            d.push_str(&format!("Rp{i} n{} 0 1k\n", i + 1));
        }
        d
    };
    h.bench("parse_deck_129_elements", || {
        black_box(parse_deck(&deck).expect("parses"));
    });

    h.finish();
}
