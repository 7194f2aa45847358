//! Static CMOS gates (NAND2/NOR2) built from compact models and
//! verified at the circuit level.
//!
//! The §V computers are built from exactly these gates; this module
//! checks, device model in hand, that a technology's gates actually
//! produce restored logic levels — which the non-saturating GNR devices
//! of Fig. 2 do not.

use std::sync::Arc;

use carbon_devices::Fet;
use carbon_spice::Circuit;
use carbon_units::Voltage;

use crate::error::LogicError;

/// Two-input static CMOS gate topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateTopology {
    /// Series pull-down, parallel pull-up.
    Nand2,
    /// Parallel pull-down, series pull-up.
    Nor2,
}

impl GateTopology {
    /// The Boolean function of the gate.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            Self::Nand2 => !(a && b),
            Self::Nor2 => !(a || b),
        }
    }
}

/// One row of a measured truth table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthRow {
    /// Input A level.
    pub a: bool,
    /// Input B level.
    pub b: bool,
    /// Measured output voltage, V.
    pub vout: f64,
    /// Whether the output is a valid logic level (within 15 % of the
    /// correct rail).
    pub valid: bool,
}

/// A two-input static gate instance.
pub struct StaticGate {
    topology: GateTopology,
    nfet: Arc<dyn Fet>,
    pfet: Arc<dyn Fet>,
    vdd: f64,
}

impl std::fmt::Debug for StaticGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticGate")
            .field("topology", &self.topology)
            .field("vdd", &self.vdd)
            .finish()
    }
}

impl StaticGate {
    /// Builds a gate from an n/p device pair.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] for a non-positive
    /// supply or wrong polarities.
    pub fn new(
        topology: GateTopology,
        nfet: Arc<dyn Fet>,
        pfet: Arc<dyn Fet>,
        vdd: Voltage,
    ) -> Result<Self, LogicError> {
        if vdd.volts() <= 0.0 {
            return Err(LogicError::InvalidParameter {
                reason: "vdd must be positive".into(),
            });
        }
        if nfet.polarity() != carbon_devices::Polarity::NType
            || pfet.polarity() != carbon_devices::Polarity::PType
        {
            return Err(LogicError::InvalidParameter {
                reason: "gate needs an n-type pull-down and p-type pull-up".into(),
            });
        }
        Ok(Self {
            topology,
            nfet,
            pfet,
            vdd: vdd.volts(),
        })
    }

    fn circuit(&self, a: f64, b: f64) -> Result<Circuit, LogicError> {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd", "vdd", "0", self.vdd);
        ckt.voltage_source("va", "a", "0", a);
        ckt.voltage_source("vb", "b", "0", b);
        let n = |c: &mut Circuit, name: &str, d: &str, g: &str, s: &str| {
            c.fet(name, d, g, s, self.nfet.clone())
        };
        let p = |c: &mut Circuit, name: &str, d: &str, g: &str, s: &str| {
            c.fet(name, d, g, s, self.pfet.clone())
        };
        match self.topology {
            GateTopology::Nand2 => {
                // Pull-up: two pFETs in parallel vdd→out.
                p(&mut ckt, "mpa", "out", "a", "vdd")?;
                p(&mut ckt, "mpb", "out", "b", "vdd")?;
                // Pull-down: series nFETs out→mid→gnd.
                n(&mut ckt, "mna", "out", "a", "mid")?;
                n(&mut ckt, "mnb", "mid", "b", "0")?;
            }
            GateTopology::Nor2 => {
                // Pull-up: series pFETs vdd→mid→out.
                p(&mut ckt, "mpa", "mid", "a", "vdd")?;
                p(&mut ckt, "mpb", "out", "b", "mid")?;
                // Pull-down: parallel nFETs.
                n(&mut ckt, "mna", "out", "a", "0")?;
                n(&mut ckt, "mnb", "out", "b", "0")?;
            }
        }
        Ok(ckt)
    }

    /// Measures all four input combinations at DC.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn truth_table(&self) -> Result<[TruthRow; 4], LogicError> {
        let mut rows = [TruthRow {
            a: false,
            b: false,
            vout: 0.0,
            valid: false,
        }; 4];
        for (k, (a, b)) in [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .enumerate()
        {
            let va = if a { self.vdd } else { 0.0 };
            let vb = if b { self.vdd } else { 0.0 };
            let op = self.circuit(va, vb)?.op()?;
            let vout = op.voltage("out")?;
            let expect_high = self.topology.eval(a, b);
            let valid = if expect_high {
                vout > 0.85 * self.vdd
            } else {
                vout < 0.15 * self.vdd
            };
            rows[k] = TruthRow { a, b, vout, valid };
        }
        Ok(rows)
    }

    /// `true` when every row of the truth table produces a valid,
    /// restored logic level.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn is_functional(&self) -> Result<bool, LogicError> {
        Ok(self.truth_table()?.iter().all(|r| r.valid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_devices::{AlphaPowerFet, LinearGnrFet};

    fn devices() -> (Arc<dyn Fet>, Arc<dyn Fet>) {
        (
            Arc::new(AlphaPowerFet::fig2_nfet()),
            Arc::new(AlphaPowerFet::fig2_pfet()),
        )
    }

    #[test]
    fn nand2_truth_table() {
        let (n, p) = devices();
        let gate = StaticGate::new(GateTopology::Nand2, n, p, Voltage::from_volts(1.0)).unwrap();
        let rows = gate.truth_table().unwrap();
        for r in rows {
            let expect = !(r.a && r.b);
            assert!(r.valid, "({}, {}) → {:.3} V", r.a, r.b, r.vout);
            assert_eq!(r.vout > 0.5, expect, "logic value at ({}, {})", r.a, r.b);
        }
        assert!(gate.is_functional().unwrap());
    }

    #[test]
    fn nor2_truth_table() {
        let (n, p) = devices();
        let gate = StaticGate::new(GateTopology::Nor2, n, p, Voltage::from_volts(1.0)).unwrap();
        let rows = gate.truth_table().unwrap();
        for r in rows {
            let expect = !(r.a || r.b);
            assert!(r.valid, "({}, {}) → {:.3} V", r.a, r.b, r.vout);
            assert_eq!(r.vout > 0.5, expect);
        }
    }

    #[test]
    fn non_saturating_devices_fail_level_restoration() {
        let gate = StaticGate::new(
            GateTopology::Nand2,
            Arc::new(LinearGnrFet::fig2_nfet()),
            Arc::new(LinearGnrFet::fig2_pfet()),
            Voltage::from_volts(1.0),
        )
        .unwrap();
        assert!(
            !gate.is_functional().unwrap(),
            "real-GNR devices cannot restore logic levels"
        );
    }

    #[test]
    fn topology_eval() {
        assert!(GateTopology::Nand2.eval(false, true));
        assert!(!GateTopology::Nand2.eval(true, true));
        assert!(GateTopology::Nor2.eval(false, false));
        assert!(!GateTopology::Nor2.eval(true, false));
    }

    #[test]
    fn construction_validation() {
        let (n, p) = devices();
        assert!(StaticGate::new(GateTopology::Nand2, n.clone(), p.clone(), Voltage::ZERO).is_err());
        assert!(
            StaticGate::new(GateTopology::Nand2, p.clone(), p, Voltage::from_volts(1.0)).is_err()
        );
        let _ = n;
    }
}
