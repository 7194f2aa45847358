//! Bit-exact goldens for every element stamp, on the dense and the
//! sparse path.
//!
//! One deck section holds every element kind (R, C, L, a PULSE voltage
//! source, a current source, a diode, a VCCS and two FETs) together
//! with the corners a stamp has to get right: terminals on ground on
//! either side, an inductor to ground, a diode-connected FET
//! (`d == g`), a VCCS whose output shares a node with its control and
//! a resistor whose two terminals are one node. One section has 7
//! unknowns and solves dense; four linked sections have 28 and solve
//! sparse.
//!
//! Each case hashes FNV-1a 64 over the bits of an operating point, a
//! fixed-step transient, an adaptive transient and a serial AC sweep.
//! A refactor of the stamp or matrix layer never updates these values:
//! a changed digest means some float met a different slot or a
//! different summation order.

use carbon_json::Fnv;
use carbon_spice::{Circuit, FetCurve, TranOptions, Waveform};

/// A smooth square-law FET: softplus overdrive above a 0.3 V
/// threshold, so `gm` and `gds` both vary with bias and never jump.
#[derive(Debug)]
struct SoftFet;

impl FetCurve for SoftFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        let x = (vgs - 0.3) / 0.05;
        let vov = 0.05 * if x > 30.0 { x } else { x.exp().ln_1p() };
        2e-4 * vov * vov * (2.0 * vds).tanh() * (1.0 + 0.1 * vds)
    }
}

/// `sections` copies of the section, each linked to the next by a
/// resistor from its FET drain into the next section's node `a`.
fn deck(sections: usize) -> Circuit {
    let mut ckt = Circuit::new();
    for s in 0..sections {
        let node = |name: &str| format!("{name}{s}");
        let (inp, a, b, c, d) = (node("in"), node("a"), node("b"), node("c"), node("d"));
        ckt.voltage_source_wave(
            &node("v"),
            &inp,
            "0",
            Waveform::Pulse {
                low: 0.0,
                high: 1.0 + 0.1 * s as f64,
                delay: 1e-9,
                rise: 1e-9,
                fall: 1e-9,
                width: 5e-9,
                period: 2e-8,
            },
        )
        .expect("finite source");
        ckt.resistor(&node("ra"), &inp, &a, 1e3).expect("unique");
        // Ground on the p side.
        ckt.resistor(&node("rb"), "0", &a, 1e4).expect("unique");
        ckt.capacitor(&node("ca"), &a, "0", 1e-12).expect("unique");
        ckt.capacitor(&node("cb"), &a, &b, 5e-13).expect("unique");
        ckt.inductor(&node("l"), &b, "0", 1e-8).expect("unique");
        ckt.resistor(&node("rl"), &b, &c, 100.0).expect("unique");
        ckt.current_source(&node("i"), &c, "0", 1e-5)
            .expect("unique");
        ckt.diode(&node("d"), &a, &c, 1e-14, 1.0).expect("unique");
        ckt.resistor(&node("rc"), &c, "0", 2e3).expect("unique");
        // Output `c` is also the positive control node.
        ckt.vccs(&node("g"), &c, "0", &c, &a, 1e-4).expect("unique");
        // Both terminals on one node.
        ckt.resistor(&node("rs"), &c, &c, 1e3).expect("unique");
        ckt.resistor(&node("rd"), &inp, &d, 1e4).expect("unique");
        // Diode-connected: drain and gate on one node.
        ckt.fet(&node("m"), &d, &d, "0", std::sync::Arc::new(SoftFet))
            .expect("unique");
        ckt.fet(&node("mb"), &c, &inp, "0", std::sync::Arc::new(SoftFet))
            .expect("unique");
        if s + 1 < sections {
            ckt.resistor(&node("rx"), &d, &format!("a{}", s + 1), 5e3)
                .expect("unique");
        }
    }
    ckt
}

/// The probe names of a deck: its nodes and its branch currents.
fn names(sections: usize) -> (Vec<String>, Vec<String>) {
    let mut nodes = Vec::new();
    let mut branches = Vec::new();
    for s in 0..sections {
        for n in ["in", "a", "b", "c", "d"] {
            nodes.push(format!("{n}{s}"));
        }
        for b in ["v", "l"] {
            branches.push(format!("{b}{s}"));
        }
    }
    (nodes, branches)
}

/// Absorbs a result value, which must be finite: a golden over NaNs
/// would pin nothing.
fn put(h: &mut Fnv, v: f64) {
    assert!(v.is_finite(), "non-finite result {v}");
    h.write_f64(v);
}

/// Every node voltage, then every branch current, of the operating
/// point.
fn op_digest(ckt: &Circuit, sections: usize) -> u64 {
    let op = ckt.op().expect("operating point");
    let (nodes, branches) = names(sections);
    let mut h = Fnv::new();
    for n in &nodes {
        put(&mut h, op.voltage(n).expect("node"));
    }
    for b in &branches {
        put(&mut h, op.source_current(b).expect("branch"));
    }
    h.finish()
}

/// The time grid, the step counts, then every node trace.
fn tran_digest(ckt: &Circuit, opts: TranOptions) -> u64 {
    let tran = ckt.transient(1e-10, 2e-8, opts).expect("transient");
    let mut h = Fnv::new();
    for &t in tran.times() {
        put(&mut h, t);
    }
    h.write(&(tran.accepted_steps() as u64).to_be_bytes());
    h.write(&(tran.rejected_steps() as u64).to_be_bytes());
    for node in tran.node_names() {
        for &v in tran.voltages(node).expect("own node") {
            put(&mut h, v);
        }
    }
    h.finish()
}

/// Every raw phasor of a serial sweep driven by section 0's source.
fn ac_digest(ckt: &Circuit) -> u64 {
    let freqs: Vec<f64> = (0..13).map(|k| 1e3 * 10f64.powf(k as f64 * 0.6)).collect();
    let ac = ckt.ac_sweep("v0", &freqs).expect("sweep");
    let mut h = Fnv::new();
    for x in ac.solutions().iter().flatten() {
        put(&mut h, x.re);
        put(&mut h, x.im);
    }
    h.finish()
}

#[test]
fn every_stamp_is_pinned_on_the_dense_and_the_sparse_path() {
    const GOLDEN: [(usize, [u64; 4]); 2] = [
        (
            1,
            [
                0x8178_ee12_0007_9341,
                0x2099_067e_1057_2b4b,
                0xa56e_b8fe_0eb4_1625,
                0x09b4_fa07_cc43_e2d9,
            ],
        ),
        (
            4,
            [
                0xea20_78a3_21bf_b059,
                0xc0a8_0b64_d5af_f91f,
                0x55f6_0724_ba0e_8450,
                0x80e7_488d_b095_c119,
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (sections, golden) in GOLDEN {
        let ckt = deck(sections);
        let got = [
            op_digest(&ckt, sections),
            tran_digest(&ckt, TranOptions::default()),
            tran_digest(&ckt, TranOptions::adaptive()),
            ac_digest(&ckt),
        ];
        for ((analysis, got), want) in ["op", "tran_fixed", "tran_adaptive", "ac"]
            .iter()
            .zip(got)
            .zip(golden)
        {
            if got != want {
                mismatches.push(format!(
                    "{sections} section(s), {analysis}: got {got:#018x}, golden {want:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
