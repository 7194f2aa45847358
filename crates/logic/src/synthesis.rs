//! Gate-to-transistor synthesis: compile a [`GateNetwork`] into a
//! transistor-level [`Circuit`] and cross-verify the two abstraction
//! levels.
//!
//! This closes the loop the §V computers rely on: the digital simulator
//! assumes gates restore levels; this module *checks* that assumption by
//! building every gate out of the actual device compact models (static
//! CMOS topologies) and solving the whole network analog-style. A
//! technology whose devices don't saturate — Fig. 2's lesson — fails
//! the cross-verification here, at netlist scale.

use std::sync::Arc;

use carbon_devices::Fet;
use carbon_spice::Circuit;
use carbon_units::Voltage;

use crate::digital::{GateKind, GateNetwork};
use crate::error::LogicError;

/// A gate-network-to-transistor compiler for one device pair.
pub struct Synthesizer {
    nfet: Arc<dyn Fet>,
    pfet: Arc<dyn Fet>,
    vdd: f64,
}

impl std::fmt::Debug for Synthesizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synthesizer")
            .field("vdd", &self.vdd)
            .finish()
    }
}

/// Result of an analog-vs-digital cross-verification.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Nets compared: `(name, digital value, analog voltage, agree)`.
    pub nets: Vec<(String, bool, f64, bool)>,
    /// Number of transistors in the synthesized netlist.
    pub transistor_count: usize,
}

impl CrossCheck {
    /// `true` when every compared net agrees between the levels.
    pub fn all_agree(&self) -> bool {
        self.nets.iter().all(|(_, _, _, ok)| *ok)
    }
}

impl Synthesizer {
    /// Creates a synthesizer over an n/p device pair and supply.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] for a non-positive
    /// supply or wrong polarities.
    pub fn new(nfet: Arc<dyn Fet>, pfet: Arc<dyn Fet>, vdd: Voltage) -> Result<Self, LogicError> {
        if vdd.volts() <= 0.0 {
            return Err(LogicError::InvalidParameter {
                reason: "vdd must be positive".into(),
            });
        }
        if nfet.polarity() != carbon_devices::Polarity::NType
            || pfet.polarity() != carbon_devices::Polarity::PType
        {
            return Err(LogicError::InvalidParameter {
                reason: "synthesis needs an n-type pull-down and p-type pull-up".into(),
            });
        }
        Ok(Self {
            nfet,
            pfet,
            vdd: vdd.volts(),
        })
    }

    /// Compiles the network with the given primary inputs into a
    /// transistor-level circuit (returns the circuit and its transistor
    /// count).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] if the network contains
    /// a [`GateKind::DLatch`] (no static-CMOS mapping here) or an input
    /// drives a gate output.
    pub fn compile(
        &self,
        network: &GateNetwork,
        inputs: &[(&str, bool)],
    ) -> Result<(Circuit, usize), LogicError> {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd!", "vdd!", "0", self.vdd);
        for (name, level) in inputs {
            if network.is_driven(name) {
                return Err(LogicError::InvalidParameter {
                    reason: format!("net '{name}' is gate-driven, cannot force"),
                });
            }
            let v = if *level { self.vdd } else { 0.0 };
            ckt.voltage_source(&format!("vin_{name}"), name, "0", v);
        }
        let mut mosid = 0usize;
        for (k, (kind, gate_inputs, output)) in network.gates_iter().enumerate() {
            self.emit_gate(&mut ckt, kind, &gate_inputs, &output, k, &mut mosid)?;
        }
        Ok((ckt, mosid))
    }

    fn emit_gate(
        &self,
        ckt: &mut Circuit,
        kind: GateKind,
        inputs: &[String],
        output: &str,
        gate_idx: usize,
        mosid: &mut usize,
    ) -> Result<(), LogicError> {
        let nmos = |ckt: &mut Circuit, d: &str, g: &str, s: &str, id: &mut usize| {
            *id += 1;
            ckt.fet(&format!("mn{id}"), d, g, s, self.nfet.clone())
        };
        let pmos = |ckt: &mut Circuit, d: &str, g: &str, s: &str, id: &mut usize| {
            *id += 1;
            ckt.fet(&format!("mp{id}"), d, g, s, self.pfet.clone())
        };
        match kind {
            GateKind::Inv => {
                pmos(ckt, output, &inputs[0], "vdd!", mosid)?;
                nmos(ckt, output, &inputs[0], "0", mosid)?;
            }
            GateKind::Buf => {
                let mid = format!("buf{gate_idx}_m");
                pmos(ckt, &mid, &inputs[0], "vdd!", mosid)?;
                nmos(ckt, &mid, &inputs[0], "0", mosid)?;
                pmos(ckt, output, &mid, "vdd!", mosid)?;
                nmos(ckt, output, &mid, "0", mosid)?;
            }
            GateKind::Nand2 => {
                pmos(ckt, output, &inputs[0], "vdd!", mosid)?;
                pmos(ckt, output, &inputs[1], "vdd!", mosid)?;
                let mid = format!("nand{gate_idx}_m");
                nmos(ckt, output, &inputs[0], &mid, mosid)?;
                nmos(ckt, &mid, &inputs[1], "0", mosid)?;
            }
            GateKind::Nor2 => {
                let mid = format!("nor{gate_idx}_m");
                pmos(ckt, &mid, &inputs[0], "vdd!", mosid)?;
                pmos(ckt, output, &inputs[1], &mid, mosid)?;
                nmos(ckt, output, &inputs[0], "0", mosid)?;
                nmos(ckt, output, &inputs[1], "0", mosid)?;
            }
            GateKind::Xor2 => {
                // Four-NAND XOR.
                let n1 = format!("xor{gate_idx}_n1");
                let n2 = format!("xor{gate_idx}_n2");
                let n3 = format!("xor{gate_idx}_n3");
                for (a, b, out) in [
                    (inputs[0].as_str(), inputs[1].as_str(), n1.as_str()),
                    (inputs[0].as_str(), n1.as_str(), n2.as_str()),
                    (inputs[1].as_str(), n1.as_str(), n3.as_str()),
                    (n2.as_str(), n3.as_str(), output),
                ] {
                    pmos(ckt, out, a, "vdd!", mosid)?;
                    pmos(ckt, out, b, "vdd!", mosid)?;
                    let mid = format!("{out}_m");
                    nmos(ckt, out, a, &mid, mosid)?;
                    nmos(ckt, &mid, b, "0", mosid)?;
                }
            }
            GateKind::DLatch => {
                return Err(LogicError::InvalidParameter {
                    reason: "DLatch has no combinational static-CMOS mapping; synthesize \
                             flip-flop-free networks only"
                        .into(),
                });
            }
        }
        Ok(())
    }

    /// Compiles the network, solves its DC operating point, and
    /// compares every gate output with the digital simulation.
    ///
    /// # Errors
    ///
    /// Propagates compilation, digital-evaluation, and circuit-solver
    /// failures.
    pub fn cross_check(
        &self,
        network: &GateNetwork,
        inputs: &[(&str, bool)],
    ) -> Result<CrossCheck, LogicError> {
        let digital = network.evaluate(inputs)?;
        let (ckt, transistor_count) = self.compile(network, inputs)?;
        let op = ckt.op()?;
        let mut nets = Vec::new();
        for (_, _, output) in network.gates_iter() {
            let expect = digital.value(&output)?;
            let v = op.voltage(&output)?;
            let agree = if expect {
                v > 0.85 * self.vdd
            } else {
                v < 0.15 * self.vdd
            };
            nets.push((output, expect, v, agree));
        }
        Ok(CrossCheck {
            nets,
            transistor_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_devices::{AlphaPowerFet, LinearGnrFet};

    fn synth() -> Synthesizer {
        Synthesizer::new(
            Arc::new(AlphaPowerFet::fig2_nfet()),
            Arc::new(AlphaPowerFet::fig2_pfet()),
            Voltage::from_volts(1.0),
        )
        .unwrap()
    }

    fn subtractor() -> GateNetwork {
        let mut n = GateNetwork::new();
        n.add_full_subtractor("a", "b", "bin", "fs").unwrap();
        n
    }

    #[test]
    fn full_subtractor_cross_checks_on_all_inputs() {
        let s = synth();
        let net = subtractor();
        for a in [false, true] {
            for b in [false, true] {
                for bin in [false, true] {
                    let check = s
                        .cross_check(&net, &[("a", a), ("b", b), ("bin", bin)])
                        .unwrap();
                    assert!(
                        check.all_agree(),
                        "({a}, {b}, {bin}): {:?}",
                        check
                            .nets
                            .iter()
                            .filter(|(_, _, _, ok)| !ok)
                            .collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn transistor_count_is_plausible() {
        let s = synth();
        let net = subtractor();
        let (_, count) = s
            .compile(&net, &[("a", true), ("b", false), ("bin", false)])
            .unwrap();
        // 2 XOR (16 each) + 2 INV (2 each) + 3 NAND (4 each) = 48.
        assert_eq!(count, 48);
    }

    #[test]
    fn non_saturating_devices_fail_the_cross_check() {
        let s = Synthesizer::new(
            Arc::new(LinearGnrFet::fig2_nfet()),
            Arc::new(LinearGnrFet::fig2_pfet()),
            Voltage::from_volts(1.0),
        )
        .unwrap();
        let mut net = GateNetwork::new();
        net.add_gate(GateKind::Nand2, &["a", "b"], "y").unwrap();
        net.add_gate(GateKind::Inv, &["y"], "z").unwrap();
        let check = s.cross_check(&net, &[("a", true), ("b", true)]).unwrap();
        assert!(
            !check.all_agree(),
            "real-GNR devices must fail level restoration: {:?}",
            check.nets
        );
    }

    #[test]
    fn latch_is_rejected() {
        let s = synth();
        let mut net = GateNetwork::new();
        net.add_d_latch("d", "en", "l").unwrap();
        assert!(s.compile(&net, &[("d", true), ("en", true)]).is_err());
    }

    #[test]
    fn forcing_a_driven_net_is_rejected() {
        let s = synth();
        let mut net = GateNetwork::new();
        net.add_gate(GateKind::Inv, &["a"], "y").unwrap();
        assert!(s.compile(&net, &[("y", true)]).is_err());
    }

    #[test]
    fn construction_validation() {
        let n = Arc::new(AlphaPowerFet::fig2_nfet());
        let p = Arc::new(AlphaPowerFet::fig2_pfet());
        assert!(Synthesizer::new(n.clone(), p.clone(), Voltage::ZERO).is_err());
        assert!(Synthesizer::new(p.clone(), p, Voltage::from_volts(1.0)).is_err());
        let _ = n;
    }
}
