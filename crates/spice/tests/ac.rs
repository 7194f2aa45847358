//! End-to-end tests of the AC sweep: the dense path's bits pinned to
//! golden digests. The dense-vs-sparse oracle tests drive the sweep's
//! private solver choice, so they live in `analysis::ac::tests`.

use carbon_spice::Circuit;

/// `n` log-spaced frequencies over `lo..hi`.
fn log_freqs(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n)
        .map(|k| lo * (hi / lo).powf(k as f64 / (n - 1) as f64))
        .collect()
}

/// A smooth square-law FET whose `gm` and `gds` both depend on the bias.
#[derive(Debug)]
struct SquareLawFet;

impl carbon_spice::FetCurve for SquareLawFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        let vov = (vgs - 0.3).max(0.0);
        1e-4 * vov * vov * (2.0 * vds).tanh() * (1.0 + 0.1 * vds)
    }
}

/// A sweep over 13 log-spaced points from 1 kHz to 10 GHz. Every deck
/// below has fewer than 16 unknowns, so it runs the dense path.
fn dense_sweep(ckt: &Circuit, source: &str) -> carbon_spice::AcResult {
    let freqs = log_freqs(13, 1e3, 1e10);
    ckt.ac_sweep(source, &freqs).expect("sweeps")
}

/// FNV-1a 64 over the bits of every solution entry, then over every
/// listed node's `phase()` across the sweep.
fn dense_digest(ckt: &Circuit, source: &str, nodes: &[&str]) -> u64 {
    let ac = dense_sweep(ckt, source);
    let mut h = carbon_json::Fnv::new();
    for x in ac.solutions().iter().flatten() {
        h.write_f64(x.re);
        h.write_f64(x.im);
    }
    for node in nodes {
        for phase in ac.phase(node).expect("node exists") {
            h.write_f64(phase);
        }
    }
    h.finish()
}

/// Pins the dense AC path bit for bit. The dense-vs-sparse tests allow
/// 1e-9 relative error, so they cannot see a change in the last bit,
/// nor in the sign of an exactly-zero phasor, which flips its `atan2`
/// phase between 0 and ±π. Together the decks cover every AC stamp:
/// R, grounded and floating C, L, voltage and current stimulus, diode,
/// VCCS, and a FET whose supply node is AC-quiet.
#[test]
fn dense_ac_solutions_and_phases_are_pinned() {
    let mut rc = Circuit::new();
    rc.voltage_source("vin", "in", "0", 0.0);
    rc.resistor("r", "in", "out", 1e3).expect("unique");
    rc.capacitor("c", "out", "0", 1e-9).expect("unique");

    // Current stimulus into a floating C between two RLC nodes.
    let mut rlc = Circuit::new();
    rlc.current_source("iin", "a", "0", 1e-6).expect("unique");
    rlc.resistor("ra", "a", "0", 1e3).expect("unique");
    rlc.capacitor("cab", "a", "b", 1e-9).expect("unique");
    rlc.inductor("lb", "b", "0", 1e-6).expect("unique");
    rlc.resistor("rb", "b", "0", 50.0).expect("unique");

    let mut vccs = Circuit::new();
    vccs.voltage_source("vin", "in", "0", 0.0);
    vccs.resistor("rin", "in", "0", 1e3).expect("unique");
    vccs.vccs("g1", "0", "out", "in", "0", 2e-3)
        .expect("unique");
    vccs.resistor("rl", "out", "0", 10e3).expect("unique");
    vccs.capacitor("cl", "out", "0", 1e-12).expect("unique");

    // Common source: `vdd` is a DC supply and AC-quiet, so its phasor
    // is an exact (signed) zero.
    let mut fet = Circuit::new();
    fet.voltage_source("vdd", "vdd", "0", 1.0);
    fet.voltage_source("vin", "g", "0", 0.6);
    fet.resistor("rl", "vdd", "d", 1e4).expect("unique");
    fet.fet("m1", "d", "g", "0", std::sync::Arc::new(SquareLawFet))
        .expect("unique");
    fet.capacitor("cgd", "g", "d", 1e-13).expect("unique");
    fet.capacitor("cl", "d", "0", 1e-12).expect("unique");

    let mut diode = Circuit::new();
    diode.voltage_source("vin", "in", "0", 0.8);
    diode.resistor("r", "in", "a", 100.0).expect("unique");
    diode.diode("d1", "a", "0", 1e-14, 1.0).expect("unique");
    diode.capacitor("cj", "a", "0", 1e-11).expect("unique");

    let cases: [(&str, &Circuit, &str, &[&str], u64); 5] = [
        ("rc", &rc, "vin", &["in", "out"], 0x5850_e8e4_186d_b1d7),
        ("rlc_istim", &rlc, "iin", &["a", "b"], 0xf603_8cb4_41f5_2cb0),
        ("vccs", &vccs, "vin", &["in", "out"], 0x97be_6a9a_52fb_a32a),
        (
            "fet",
            &fet,
            "vin",
            &["vdd", "g", "d"],
            0xd0ca_35e4_04af_3dfb,
        ),
        ("diode", &diode, "vin", &["in", "a"], 0xe587_d5c7_5ee0_5606),
    ];
    let mut mismatches = Vec::new();
    for (name, ckt, source, nodes, golden) in cases {
        let got = dense_digest(ckt, source, nodes);
        if got != golden {
            mismatches.push(format!("{name}: got {got:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
