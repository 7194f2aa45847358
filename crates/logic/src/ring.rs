//! Ring oscillators: the standard vehicle for extracting a technology's
//! stage delay (and the circuit Schall et al. used to benchmark graphene
//! inverters, paper ref. \[4\]).

use std::sync::Arc;

use carbon_devices::Fet;
use carbon_spice::{Circuit, TranOptions};
use carbon_units::{Capacitance, Time, Voltage};

use crate::error::LogicError;

/// An odd-stage complementary ring oscillator.
pub struct RingOscillator {
    nfet: Arc<dyn Fet>,
    pfet: Arc<dyn Fet>,
    stages: usize,
    vdd: f64,
    stage_load: f64,
}

impl std::fmt::Debug for RingOscillator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingOscillator")
            .field("stages", &self.stages)
            .field("vdd", &self.vdd)
            .field("stage_load", &self.stage_load)
            .finish()
    }
}

/// Measured oscillation of a ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oscillation {
    /// Oscillation period, s.
    pub period: Time,
    /// Per-stage propagation delay `T/(2·N)`, s.
    pub stage_delay: Time,
    /// Peak-to-peak output swing, V.
    pub swing: f64,
}

impl RingOscillator {
    /// Builds an `stages`-stage ring (must be odd and ≥ 3) with a given
    /// extra load per stage.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] for even or too-small
    /// stage counts, non-positive supply, or negative load.
    pub fn new(
        nfet: Arc<dyn Fet>,
        pfet: Arc<dyn Fet>,
        stages: usize,
        vdd: Voltage,
        stage_load: Capacitance,
    ) -> Result<Self, LogicError> {
        if stages < 3 || stages.is_multiple_of(2) {
            return Err(LogicError::InvalidParameter {
                reason: format!("ring needs an odd stage count ≥ 3, got {stages}"),
            });
        }
        if vdd.volts() <= 0.0 {
            return Err(LogicError::InvalidParameter {
                reason: "vdd must be positive".into(),
            });
        }
        if stage_load.farads() < 0.0 {
            return Err(LogicError::InvalidParameter {
                reason: "stage load must be non-negative".into(),
            });
        }
        Ok(Self {
            nfet,
            pfet,
            stages,
            vdd: vdd.volts(),
            stage_load: stage_load.farads(),
        })
    }

    /// Simulates the ring and extracts period, stage delay, and swing.
    ///
    /// A small current pulse on the first node kicks the ring out of its
    /// metastable DC point; the period is measured from the last rising
    /// mid-rail crossings of the first node.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; [`LogicError::MissingFeature`] if
    /// no oscillation is detected within the horizon (as happens with
    /// sub-unity-gain stages — the non-saturating devices of Fig. 2
    /// cannot ring).
    pub fn oscillation(&self, horizon: Time) -> Result<Oscillation, LogicError> {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd", "vdd", "0", self.vdd);
        for s in 0..self.stages {
            let input = format!("n{s}");
            let output = format!("n{}", (s + 1) % self.stages);
            ckt.fet(&format!("mp{s}"), &output, &input, "vdd", self.pfet.clone())?;
            ckt.fet(&format!("mn{s}"), &output, &input, "0", self.nfet.clone())?;
            if self.stage_load > 0.0 {
                ckt.capacitor(&format!("cl{s}"), &output, "0", self.stage_load)?;
            }
        }
        // Kick: brief current pulse into node n0, sized to a fraction of
        // the device drive so weak technologies are not blown past their
        // model range.
        let drive = self.nfet.ids(self.vdd, self.vdd).abs().max(1e-9);
        ckt.current_source_wave(
            "ikick",
            "n0",
            "0",
            carbon_spice::Waveform::Pulse {
                low: 0.0,
                high: 0.25 * drive,
                delay: 0.0,
                rise: 0.0,
                fall: 0.0,
                width: horizon.seconds() / 50.0,
                period: 0.0,
            },
        )?;
        let h = horizon.seconds() / 4000.0;
        let tran = ckt.transient(h, horizon.seconds(), TranOptions::default())?;
        let t = tran.times();
        let v = tran.voltages("n0")?;
        let mid = self.vdd / 2.0;
        // Rising mid-rail crossings after the kick has decayed.
        let settle = horizon.seconds() * 0.25;
        let mut crossings = Vec::new();
        for k in 1..v.len() {
            if t[k] > settle && v[k - 1] < mid && v[k] >= mid {
                let f = (mid - v[k - 1]) / (v[k] - v[k - 1]);
                crossings.push(t[k - 1] + f * (t[k] - t[k - 1]));
            }
        }
        if crossings.len() < 3 {
            return Err(LogicError::MissingFeature {
                feature: "oscillation",
                reason: format!(
                    "only {} rising crossings within the horizon",
                    crossings.len()
                ),
            });
        }
        let periods: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
        let period = periods.iter().sum::<f64>() / periods.len() as f64;
        let tail_start = t.len() / 2;
        let (lo, hi) = v[tail_start..]
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        Ok(Oscillation {
            period: Time::from_seconds(period),
            stage_delay: Time::from_seconds(period / (2.0 * self.stages as f64)),
            swing: hi - lo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_devices::AlphaPowerFet;

    fn ring(stages: usize) -> RingOscillator {
        RingOscillator::new(
            Arc::new(AlphaPowerFet::fig2_nfet()),
            Arc::new(AlphaPowerFet::fig2_pfet()),
            stages,
            Voltage::from_volts(1.0),
            Capacitance::from_femtofarads(10.0),
        )
        .unwrap()
    }

    #[test]
    fn three_stage_ring_oscillates() {
        let osc = ring(3).oscillation(Time::from_nanoseconds(2.0)).unwrap();
        assert!(osc.period.picoseconds() > 10.0);
        assert!(osc.swing > 0.6, "swing {} V", osc.swing);
        let sd = osc.stage_delay.picoseconds();
        assert!((2.0..200.0).contains(&sd), "stage delay {sd} ps");
    }

    #[test]
    fn five_stage_ring_is_slower() {
        let o3 = ring(3).oscillation(Time::from_nanoseconds(2.0)).unwrap();
        let o5 = ring(5).oscillation(Time::from_nanoseconds(2.0)).unwrap();
        assert!(o5.period > o3.period);
        // Stage delay is roughly technology-constant.
        let r = o5.stage_delay.picoseconds() / o3.stage_delay.picoseconds();
        assert!((0.6..1.6).contains(&r), "stage-delay ratio {r}");
    }

    #[test]
    fn non_saturating_devices_cannot_ring() {
        let r = RingOscillator::new(
            Arc::new(carbon_devices::LinearGnrFet::fig2_nfet()),
            Arc::new(carbon_devices::LinearGnrFet::fig2_pfet()),
            3,
            Voltage::from_volts(1.0),
            Capacitance::from_femtofarads(10.0),
        )
        .unwrap();
        assert!(matches!(
            r.oscillation(Time::from_nanoseconds(2.0)),
            Err(LogicError::MissingFeature { .. })
        ));
    }

    #[test]
    fn construction_validation() {
        let n = Arc::new(AlphaPowerFet::fig2_nfet());
        let p = Arc::new(AlphaPowerFet::fig2_pfet());
        assert!(RingOscillator::new(
            n.clone(),
            p.clone(),
            4,
            Voltage::from_volts(1.0),
            Capacitance::ZERO
        )
        .is_err());
        assert!(RingOscillator::new(
            n.clone(),
            p.clone(),
            1,
            Voltage::from_volts(1.0),
            Capacitance::ZERO
        )
        .is_err());
        assert!(RingOscillator::new(n, p, 3, Voltage::from_volts(0.0), Capacitance::ZERO).is_err());
    }
}
