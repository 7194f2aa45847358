//! The Fig. 2 experiment: complementary inverters, voltage-transfer
//! curves, gain, and noise margins.
//!
//! Two inverters are compared exactly as in the paper:
//!
//! * [`Inverter::fig2_saturating`] — symmetric alpha-power n/p FETs with
//!   realistic (not perfect) current saturation. Its VTC swings rail to
//!   rail with gain ≫ 1 and ~0.4 V noise margins at `V_DD = 1 V`.
//! * [`Inverter::fig2_non_saturating`] — the same drive strength from
//!   gate-steered linear resistors ("real GNR" devices). Its absolute
//!   gain never exceeds one: the noise margin is *zero*, both devices
//!   conduct through the whole transition, and cascaded logic has no
//!   restoring levels.

use std::sync::Arc;

use carbon_devices::{AlphaPowerFet, Fet, LinearGnrFet};
use carbon_spice::{Circuit, DcOptions, TranOptions};
use carbon_units::{Capacitance, Time, Voltage};

use crate::error::LogicError;

/// Static noise margins extracted from a VTC by the unity-gain-point
/// method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseMargins {
    /// Low noise margin `NM_L = V_IL − V_OL`, V.
    pub low: f64,
    /// High noise margin `NM_H = V_OH − V_IH`, V.
    pub high: f64,
}

/// A complementary inverter built from two compact models.
pub struct Inverter {
    nfet: Arc<dyn Fet>,
    pfet: Arc<dyn Fet>,
    vdd: f64,
}

impl std::fmt::Debug for Inverter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inverter").field("vdd", &self.vdd).finish()
    }
}

impl Inverter {
    /// Builds an inverter from an n-type pull-down and p-type pull-up.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] if `vdd` is not positive
    /// or the polarities are wrong.
    pub fn new(nfet: Arc<dyn Fet>, pfet: Arc<dyn Fet>, vdd: Voltage) -> Result<Self, LogicError> {
        if !(vdd.volts().is_finite() && vdd.volts() > 0.0) {
            return Err(LogicError::InvalidParameter {
                reason: format!("vdd must be positive, got {} V", vdd.volts()),
            });
        }
        if nfet.polarity() != carbon_devices::Polarity::NType {
            return Err(LogicError::InvalidParameter {
                reason: "pull-down device must be n-type".into(),
            });
        }
        if pfet.polarity() != carbon_devices::Polarity::PType {
            return Err(LogicError::InvalidParameter {
                reason: "pull-up device must be p-type".into(),
            });
        }
        Ok(Self {
            nfet,
            pfet,
            vdd: vdd.volts(),
        })
    }

    /// The Fig. 2(a)/(c) inverter: symmetric saturating FETs at
    /// `V_DD = 1 V`.
    pub fn fig2_saturating() -> Self {
        Self::new(
            Arc::new(AlphaPowerFet::fig2_nfet()),
            Arc::new(AlphaPowerFet::fig2_pfet()),
            Voltage::from_volts(1.0),
        )
        .expect("preset inverter parameters are valid")
    }

    /// The Fig. 2(b)/(d) inverter: same on-current but no saturation.
    pub fn fig2_non_saturating() -> Self {
        Self::new(
            Arc::new(LinearGnrFet::fig2_nfet()),
            Arc::new(LinearGnrFet::fig2_pfet()),
            Voltage::from_volts(1.0),
        )
        .expect("preset inverter parameters are valid")
    }

    /// Supply voltage.
    pub fn vdd(&self) -> Voltage {
        Voltage::from_volts(self.vdd)
    }

    fn circuit(&self) -> Result<Circuit, LogicError> {
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd", "vdd", "0", self.vdd);
        ckt.voltage_source("vin", "in", "0", 0.0);
        ckt.fet("mp", "out", "in", "vdd", self.pfet.clone())?;
        ckt.fet("mn", "out", "in", "0", self.nfet.clone())?;
        Ok(ckt)
    }

    /// Sweeps the input and returns the voltage-transfer curve with `n`
    /// points (the supply current is captured alongside for the
    /// short-circuit-power argument).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn vtc(&self, n: usize) -> Result<Vtc, LogicError> {
        let n = n.max(8);
        let ckt = self.circuit()?;
        let step = self.vdd / (n - 1) as f64;
        // Dense curves fan out over the runtime executor in fixed chunks
        // (deterministic at any thread count); short sweeps stay serial
        // where the warm-start chain alone is cheapest.
        let chunked = DcOptions {
            chunk: (n >= 64).then_some(16),
        };
        let sweep = ckt.dc_sweep("vin", 0.0, self.vdd, step, chunked)?;
        let vin = sweep.sweep_values().to_vec();
        let vout = sweep.voltages("out")?;
        let supply_current = sweep
            .currents("vdd")?
            .into_iter()
            .map(|i| i.abs())
            .collect();
        Ok(Vtc {
            vin,
            vout,
            supply_current,
            vdd: self.vdd,
        })
    }

    /// Drives the inverter with a full-swing input step into a load
    /// capacitance and reports the 50 %-to-50 % propagation delays.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures;
    /// [`LogicError::MissingFeature`] if the output never crosses
    /// mid-rail (a non-restoring inverter driving a heavy load).
    pub fn propagation_delay(
        &self,
        load: Capacitance,
        horizon: Time,
    ) -> Result<InverterDelays, LogicError> {
        let t_half = horizon.seconds() / 2.0;
        let edge = horizon.seconds() / 200.0;
        // The inverter driven by a pulse: low half, then high half.
        let mut ckt = Circuit::new();
        ckt.voltage_source("vdd", "vdd", "0", self.vdd);
        ckt.voltage_source_wave(
            "vin",
            "in",
            "0",
            carbon_spice::Waveform::Pulse {
                low: 0.0,
                high: self.vdd,
                delay: t_half * 0.2,
                rise: edge,
                fall: edge,
                width: t_half,
                period: 0.0,
            },
        )?;
        ckt.fet("mp", "out", "in", "vdd", self.pfet.clone())?;
        ckt.fet("mn", "out", "in", "0", self.nfet.clone())?;
        ckt.capacitor("cl", "out", "0", load.farads())?;
        let stop = horizon.seconds();
        let tran = ckt.transient(stop / 2000.0, stop, TranOptions::default())?;
        let t = tran.times();
        let vin = tran.voltages("in")?;
        let vout = tran.voltages("out")?;
        let mid = self.vdd / 2.0;
        let cross = |x: &[f64], rising: bool, from: f64| -> Option<f64> {
            for k in 1..x.len() {
                if t[k] <= from {
                    continue;
                }
                let (a, b) = (x[k - 1], x[k]);
                if (rising && a < mid && b >= mid) || (!rising && a > mid && b <= mid) {
                    let f = (mid - a) / (b - a);
                    return Some(t[k - 1] + f * (t[k] - t[k - 1]));
                }
            }
            None
        };
        let t_in_rise = cross(vin, true, 0.0).ok_or_else(|| LogicError::MissingFeature {
            feature: "input rising edge",
            reason: "pulse did not reach mid-rail".into(),
        })?;
        let t_out_fall =
            cross(vout, false, t_in_rise).ok_or_else(|| LogicError::MissingFeature {
                feature: "output falling edge",
                reason: "output never crossed mid-rail after the input rose".into(),
            })?;
        let t_in_fall =
            cross(vin, false, t_out_fall).ok_or_else(|| LogicError::MissingFeature {
                feature: "input falling edge",
                reason: "pulse did not return to low".into(),
            })?;
        let t_out_rise =
            cross(vout, true, t_in_fall).ok_or_else(|| LogicError::MissingFeature {
                feature: "output rising edge",
                reason: "output never recovered high".into(),
            })?;
        Ok(InverterDelays {
            high_to_low: Time::from_seconds(t_out_fall - t_in_rise),
            low_to_high: Time::from_seconds(t_out_rise - t_in_fall),
        })
    }
}

/// 50 %-to-50 % propagation delays of an inverter stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterDelays {
    /// Output falling delay after the input rises.
    pub high_to_low: Time,
    /// Output rising delay after the input falls.
    pub low_to_high: Time,
}

impl InverterDelays {
    /// Average stage delay.
    pub fn average(&self) -> Time {
        (self.high_to_low + self.low_to_high) / 2.0
    }
}

/// A voltage-transfer curve with the supply current captured along the
/// sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Vtc {
    vin: Vec<f64>,
    vout: Vec<f64>,
    supply_current: Vec<f64>,
    vdd: f64,
}

impl Vtc {
    /// Builds a VTC from raw data (mostly useful in tests; analyses
    /// produce this via [`Inverter::vtc`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or fewer than 3 points.
    pub fn from_raw(vin: Vec<f64>, vout: Vec<f64>, supply_current: Vec<f64>, vdd: f64) -> Self {
        assert!(vin.len() >= 3, "need at least 3 points");
        assert_eq!(vin.len(), vout.len());
        assert_eq!(vin.len(), supply_current.len());
        Self {
            vin,
            vout,
            supply_current,
            vdd,
        }
    }

    /// Input grid, V.
    pub fn vin(&self) -> &[f64] {
        &self.vin
    }

    /// Output voltages, V.
    pub fn vout(&self) -> &[f64] {
        &self.vout
    }

    /// Supply-current magnitude along the sweep, A.
    pub fn supply_current(&self) -> &[f64] {
        &self.supply_current
    }

    /// Small-signal gain `dV_out/dV_in` at every interior point
    /// (central differences; endpoints replicated).
    pub fn gain(&self) -> Vec<f64> {
        let n = self.vin.len();
        let mut g = vec![0.0; n];
        #[allow(clippy::needless_range_loop)] // central difference reads k±1
        for k in 1..n - 1 {
            g[k] = (self.vout[k + 1] - self.vout[k - 1]) / (self.vin[k + 1] - self.vin[k - 1]);
        }
        g[0] = g[1];
        g[n - 1] = g[n - 2];
        g
    }

    /// Largest absolute gain along the curve.
    pub fn max_abs_gain(&self) -> f64 {
        self.gain().iter().fold(0.0, |m, g| m.max(g.abs()))
    }

    /// Input voltage where the output crosses `V_DD/2` (the switching
    /// threshold `V_M`).
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::MissingFeature`] if the output never
    /// crosses mid-rail.
    pub fn switching_threshold(&self) -> Result<f64, LogicError> {
        let mid = self.vdd / 2.0;
        for k in 1..self.vin.len() {
            let (a, b) = (self.vout[k - 1], self.vout[k]);
            if (a >= mid && b <= mid) || (a <= mid && b >= mid) {
                if a == b {
                    return Ok(self.vin[k - 1]);
                }
                let f = (mid - a) / (b - a);
                return Ok(self.vin[k - 1] + f * (self.vin[k] - self.vin[k - 1]));
            }
        }
        Err(LogicError::MissingFeature {
            feature: "switching threshold",
            reason: "output never crosses mid-rail".into(),
        })
    }

    /// Static noise margins by the unity-gain-point method: `V_IL`/`V_IH`
    /// are the inputs where the gain magnitude crosses one, and the
    /// corresponding outputs give `V_OH`/`V_OL`.
    ///
    /// If the gain never reaches unity — the paper's non-saturating
    /// inverter — both margins are **zero** by definition (there is no
    /// regenerative region at all), which is exactly the Fig. 2(d)
    /// verdict; this is reported as `Ok(NoiseMargins { low: 0, high: 0 })`
    /// rather than an error so benchmark tables can print it.
    pub fn noise_margins(&self) -> NoiseMargins {
        let gain = self.gain();
        // Find first and last |gain| ≥ 1 regions.
        let mut v_il = None;
        let mut v_ih = None;
        for k in 1..gain.len() {
            let (g0, g1) = (gain[k - 1].abs(), gain[k].abs());
            if g0 < 1.0 && g1 >= 1.0 && v_il.is_none() {
                let f = (1.0 - g0) / (g1 - g0);
                v_il = Some((
                    self.vin[k - 1] + f * (self.vin[k] - self.vin[k - 1]),
                    self.vout[k - 1] + f * (self.vout[k] - self.vout[k - 1]),
                ));
            }
            if g0 >= 1.0 && g1 < 1.0 {
                let f = (g0 - 1.0) / (g0 - g1);
                v_ih = Some((
                    self.vin[k - 1] + f * (self.vin[k] - self.vin[k - 1]),
                    self.vout[k - 1] + f * (self.vout[k] - self.vout[k - 1]),
                ));
            }
        }
        match (v_il, v_ih) {
            (Some((vil, _voh_at_il)), Some((vih, _vol_at_ih))) => {
                // V_OH: output at V_IL input; V_OL: output at V_IH input.
                let v_oh = self.vout_at(vil);
                let v_ol = self.vout_at(vih);
                NoiseMargins {
                    low: (vil - v_ol).max(0.0),
                    high: (v_oh - vih).max(0.0),
                }
            }
            _ => NoiseMargins {
                low: 0.0,
                high: 0.0,
            },
        }
    }

    /// Peak supply current during the transition (the short-circuit
    /// current the paper says "would burn dc power" in the
    /// non-saturating inverter).
    pub fn peak_short_circuit_current(&self) -> f64 {
        self.supply_current.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of the input range over which the supply current exceeds
    /// half its peak — a direct measure of "conductive almost during the
    /// whole transition".
    pub fn conduction_fraction(&self) -> f64 {
        let half = self.peak_short_circuit_current() / 2.0;
        if half == 0.0 {
            return 0.0;
        }
        let n = self.supply_current.len();
        self.supply_current.iter().filter(|&&i| i > half).count() as f64 / n as f64
    }

    fn vout_at(&self, vin: f64) -> f64 {
        if vin <= self.vin[0] {
            return self.vout[0];
        }
        if vin >= *self.vin.last().expect("non-empty") {
            return *self.vout.last().expect("non-empty");
        }
        let k = self.vin.partition_point(|&v| v < vin);
        let f = (vin - self.vin[k - 1]) / (self.vin[k] - self.vin[k - 1]);
        self.vout[k - 1] + f * (self.vout[k] - self.vout[k - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_inverter_has_large_gain_and_margins() {
        let inv = Inverter::fig2_saturating();
        let vtc = inv.vtc(101).unwrap();
        assert!(vtc.max_abs_gain() > 3.0, "gain {}", vtc.max_abs_gain());
        let nm = vtc.noise_margins();
        // The paper: "almost 0.4 Volt at the high as well as at the low
        // voltage side".
        assert!((0.25..0.48).contains(&nm.low), "NM_L = {:.3} V", nm.low);
        assert!((0.25..0.48).contains(&nm.high), "NM_H = {:.3} V", nm.high);
    }

    #[test]
    fn saturating_inverter_swings_rail_to_rail() {
        let vtc = Inverter::fig2_saturating().vtc(101).unwrap();
        assert!(vtc.vout()[0] > 0.98);
        assert!(vtc.vout()[100] < 0.02);
        let vm = vtc.switching_threshold().unwrap();
        assert!((vm - 0.5).abs() < 0.06, "V_M = {vm}");
    }

    #[test]
    fn non_saturating_inverter_never_reaches_unity_gain() {
        let inv = Inverter::fig2_non_saturating();
        let vtc = inv.vtc(101).unwrap();
        assert!(
            vtc.max_abs_gain() < 1.0,
            "max gain {} must stay below one",
            vtc.max_abs_gain()
        );
        let nm = vtc.noise_margins();
        assert_eq!(nm.low, 0.0);
        assert_eq!(nm.high, 0.0);
    }

    #[test]
    fn non_saturating_inverter_burns_through_current() {
        let good = Inverter::fig2_saturating().vtc(101).unwrap();
        let bad = Inverter::fig2_non_saturating().vtc(101).unwrap();
        assert!(
            bad.conduction_fraction() > 1.7 * good.conduction_fraction(),
            "bad {:.2} vs good {:.2}",
            bad.conduction_fraction(),
            good.conduction_fraction()
        );
    }

    #[test]
    fn fig2_inverters_have_comparable_drive() {
        // The comparison is fair: same on-current at full swing.
        let good = Inverter::fig2_saturating().vtc(51).unwrap();
        let bad = Inverter::fig2_non_saturating().vtc(51).unwrap();
        let ratio = good.peak_short_circuit_current() / bad.peak_short_circuit_current();
        assert!(ratio < 3.0 && ratio > 0.05, "peak current ratio {ratio}");
    }

    #[test]
    fn propagation_delay_with_10ff_load() {
        // Fig. 2 uses a 10 fF load; with ~0.5 mA drive the stage delay
        // is tens of picoseconds: t ≈ C·V/(2·I) ≈ 10 ps.
        let inv = Inverter::fig2_saturating();
        let d = inv
            .propagation_delay(
                Capacitance::from_femtofarads(10.0),
                Time::from_nanoseconds(1.0),
            )
            .unwrap();
        let avg = d.average().picoseconds();
        assert!((2.0..80.0).contains(&avg), "avg delay {avg} ps");
    }

    #[test]
    fn warm_start_strictly_cuts_fig2_sweep_iterations() {
        // The Fig. 2 deck is the canonical consumer of the warm-started
        // sweep: adjacent bias points have nearby solutions, so seeding
        // each point from the last must save Newton iterations over
        // solving every point from scratch — and produce the same curve.
        // A one-point sweep solves its point from zero: the cold
        // reference.
        let inv = Inverter::fig2_saturating();
        let ckt = inv.circuit().unwrap();
        let warm = ckt
            .dc_sweep("vin", 0.0, 1.0, 0.01, DcOptions::default())
            .unwrap();
        let (mut cold_iterations, mut cold_out) = (0, Vec::new());
        for &v in warm.sweep_values() {
            let cold = ckt
                .dc_sweep("vin", v, v, 0.01, DcOptions::default())
                .unwrap();
            cold_iterations += cold.total_newton_iterations();
            cold_out.push(cold.voltages("out").unwrap()[0]);
        }
        assert!(
            warm.total_newton_iterations() < cold_iterations,
            "warm {} must beat cold {cold_iterations}",
            warm.total_newton_iterations(),
        );
        for (a, b) in warm.voltages("out").unwrap().iter().zip(&cold_out) {
            assert!((a - b).abs() < 1e-7, "curves must agree: {a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_construction() {
        let n = Arc::new(AlphaPowerFet::fig2_nfet());
        let p = Arc::new(AlphaPowerFet::fig2_pfet());
        assert!(Inverter::new(n.clone(), p.clone(), Voltage::from_volts(0.0)).is_err());
        assert!(Inverter::new(p.clone(), p.clone(), Voltage::from_volts(1.0)).is_err());
        assert!(Inverter::new(n.clone(), n, Voltage::from_volts(1.0)).is_err());
        let _ = p;
    }

    #[test]
    fn vtc_helpers_on_synthetic_data() {
        // Ideal steep inverter: step at 0.5.
        let vin: Vec<f64> = (0..=100).map(|k| k as f64 / 100.0).collect();
        let vout: Vec<f64> = vin
            .iter()
            .map(|&v| 1.0 / (1.0 + ((v - 0.5) / 0.01).exp()))
            .collect();
        let i = vec![0.0; vin.len()];
        let vtc = Vtc::from_raw(vin, vout, i, 1.0);
        assert!(vtc.max_abs_gain() > 10.0);
        let vm = vtc.switching_threshold().unwrap();
        assert!((vm - 0.5).abs() < 0.01);
        let nm = vtc.noise_margins();
        assert!(nm.low > 0.3 && nm.high > 0.3);
    }

    #[test]
    fn scaling_argument_holds_at_half_vdd() {
        // §II: "this is simply a result of the constant field scaled I-V
        // curves ... translates well to the higher and lower voltage
        // levels". Check the saturating inverter still regenerates at
        // V_DD = 0.6 V.
        let inv = Inverter::new(
            Arc::new(AlphaPowerFet::fig2_nfet()),
            Arc::new(AlphaPowerFet::fig2_pfet()),
            Voltage::from_volts(0.6),
        )
        .unwrap();
        let vtc = inv.vtc(61).unwrap();
        assert!(vtc.max_abs_gain() > 1.5, "gain {}", vtc.max_abs_gain());
    }
}
