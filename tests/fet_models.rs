//! Bit-exact goldens for compact models placed in circuits.
//!
//! Every `carbon-logic` analysis that puts a `carbon-devices` model
//! into a `carbon-spice` circuit runs here for four n/p model pairs:
//! `AlphaPowerFet`, `LinearGnrFet` and `TableFet` (whose `eval`
//! overrides route the Newton stencil through the SoA kernels) and
//! `SeriesResistance` (which keeps the trait's default `eval`). Each
//! pair hashes FNV-1a 64 over the bits of
//!
//! * `Inverter::vtc` at 33 points (serial `dc_sweep`) and at 101
//!   points (chunked `dc_sweep_par`), and `propagation_delay`;
//! * the NAND2 and NOR2 `truth_table`s;
//! * a 3-stage `RingOscillator::oscillation`;
//! * `RfStage::figures` for both devices and `simulated_voltage_gain`
//!   (the small-signal `gm`/`gds` readers: the analytic figures and the
//!   AC static stamp);
//! * `Synthesizer::cross_check` on a NAND/NOR/INV network at all four
//!   inputs,
//!
//! and one more case pins `carbon_core::cascade::run`. A failing
//! analysis hashes its error text, so a non-saturating pair that cannot
//! ring is pinned as firmly as one that can.
//!
//! A refactor of the model interface never updates these values: a
//! changed digest means a model evaluation reached the circuit through
//! a different expression.

use std::sync::Arc;

use carbon_electronics::devices::{AlphaPowerFet, Fet, LinearGnrFet, SeriesResistance, TableFet};
use carbon_electronics::experiments::cascade;
use carbon_electronics::logic::digital::GateKind;
use carbon_electronics::logic::{
    GateNetwork, GateTopology, Inverter, LogicError, RfStage, RingOscillator, StaticGate,
    Synthesizer,
};
use carbon_electronics::units::{Capacitance, Resistance, Time, Voltage};

/// FNV-1a 64 over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// Hashes `f(value)` on success and the error text on failure,
    /// tagged so the two can never collide.
    fn result<T>(&mut self, r: Result<T, LogicError>, f: impl FnOnce(T) -> Vec<f64>) {
        match r {
            Ok(value) => {
                self.bytes(b"ok");
                self.f64s(&f(value));
            }
            Err(e) => {
                self.bytes(b"err");
                self.bytes(e.to_string().as_bytes());
            }
        }
    }
}

/// Digest of every circuit analysis on one n/p pair at `V_DD = 1 V`.
fn pair_digest(nfet: Arc<dyn Fet>, pfet: Arc<dyn Fet>) -> u64 {
    let vdd = Voltage::from_volts(1.0);
    let mut h = Fnv::new();

    let inv = Inverter::new(nfet.clone(), pfet.clone(), vdd).expect("valid inverter");
    for points in [33, 101] {
        h.result(inv.vtc(points), |vtc| {
            [vtc.vin(), vtc.vout(), vtc.supply_current()].concat()
        });
    }
    h.result(
        inv.propagation_delay(
            Capacitance::from_femtofarads(10.0),
            Time::from_nanoseconds(1.0),
        ),
        |d| vec![d.high_to_low.seconds(), d.low_to_high.seconds()],
    );

    for topology in [GateTopology::Nand2, GateTopology::Nor2] {
        let gate = StaticGate::new(topology, nfet.clone(), pfet.clone(), vdd).expect("valid gate");
        h.result(gate.truth_table(), |rows| {
            rows.iter()
                .flat_map(|r| [r.vout, f64::from(u8::from(r.valid))])
                .collect()
        });
    }

    let ring = RingOscillator::new(
        nfet.clone(),
        pfet.clone(),
        3,
        vdd,
        Capacitance::from_femtofarads(10.0),
    )
    .expect("valid ring");
    h.result(ring.oscillation(Time::from_nanoseconds(2.0)), |o| {
        vec![o.period.seconds(), o.stage_delay.seconds(), o.swing]
    });

    for (fet, bias) in [(&nfet, 1.0), (&pfet, -1.0)] {
        let stage = RfStage::new(
            fet.clone(),
            Voltage::from_volts(0.7 * bias),
            Voltage::from_volts(0.8 * bias),
            Capacitance::from_attofarads(10.0),
            Capacitance::from_attofarads(5.0),
            Resistance::from_ohms(100.0),
        )
        .expect("valid stage");
        let f = stage.figures();
        h.f64s(&[f.gm, f.gds, f.voltage_gain, f.ft, f.fmax]);
        h.result(
            stage.simulated_voltage_gain(Resistance::from_ohms(1e9)),
            |g| vec![g],
        );
    }

    let synth = Synthesizer::new(nfet, pfet, vdd).expect("valid synthesizer");
    let mut net = GateNetwork::new();
    net.add_gate(GateKind::Nand2, &["a", "b"], "y")
        .expect("gate");
    net.add_gate(GateKind::Nor2, &["y", "b"], "z")
        .expect("gate");
    net.add_gate(GateKind::Inv, &["z"], "w").expect("gate");
    for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
        h.result(synth.cross_check(&net, &[("a", a), ("b", b)]), |check| {
            let mut bits = vec![check.transistor_count as f64];
            for (_, digital, v, agree) in check.nets {
                bits.extend([f64::from(u8::from(digital)), v, f64::from(u8::from(agree))]);
            }
            bits
        });
    }
    h.0
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{case}: digest {got:016x}, golden {want:016x} — a model evaluation \
         reached the circuit through a different expression"
    );
}

#[test]
fn alpha_power_pair_is_pinned() {
    let digest = pair_digest(
        Arc::new(AlphaPowerFet::fig2_nfet()),
        Arc::new(AlphaPowerFet::fig2_pfet()),
    );
    check("alpha_power", digest, 0xd5d7_a20f_986a_d001);
}

#[test]
fn linear_gnr_pair_is_pinned() {
    let digest = pair_digest(
        Arc::new(LinearGnrFet::fig2_nfet()),
        Arc::new(LinearGnrFet::fig2_pfet()),
    );
    check("linear_gnr", digest, 0xa329_f8ea_f606_dbc9);
}

#[test]
fn table_pair_is_pinned() {
    let n = TableFet::sample(
        &AlphaPowerFet::fig2_nfet(),
        (-0.2, 1.2),
        (-0.2, 1.2),
        29,
        29,
    )
    .expect("valid grid");
    let p = TableFet::sample(
        &AlphaPowerFet::fig2_pfet(),
        (-1.2, 0.2),
        (-1.2, 0.2),
        29,
        29,
    )
    .expect("valid grid");
    check(
        "table",
        pair_digest(Arc::new(n), Arc::new(p)),
        0x6c92_b594_7d4c_b29a,
    );
}

#[test]
fn series_resistance_pair_is_pinned() {
    let r = Resistance::from_ohms(200.0);
    let n = SeriesResistance::symmetric(Arc::new(AlphaPowerFet::fig2_nfet()), r);
    let p = SeriesResistance::symmetric(Arc::new(AlphaPowerFet::fig2_pfet()), r);
    check(
        "series",
        pair_digest(Arc::new(n), Arc::new(p)),
        0xaf54_084c_3aea_5e3b,
    );
}

#[test]
fn cascade_is_pinned() {
    let c = cascade::run().expect("cascade solves");
    let mut h = Fnv::new();
    h.f64s(&[c.vdd, c.input]);
    for trace in [&c.saturating, &c.non_saturating] {
        h.f64s(&trace.levels);
        h.f64s(&trace.rail_error);
    }
    check("cascade", h.0, 0x5866_039b_1445_d726);
}
