//! RF figures of merit: intrinsic voltage gain, cut-off frequency
//! `f_T`, and maximum oscillation frequency `f_max`.
//!
//! §II of the paper (leaning on Schwierz's graphene-transistor review)
//! explains why missing current saturation kills RF use: "short channel
//! GNR show no current saturation, which as a consequence, leads to very
//! low voltage gain in the FET and this only enables very low values of
//! the maximum frequency of oscillation (f_max)". This module computes
//! the standard small-signal quantities from any compact model:
//!
//! ```text
//! A_v   = g_m / g_ds
//! f_T   = g_m / (2π·(C_gs + C_gd))
//! f_max = f_T / (2·√(R_g·(g_ds + 2π·f_T·C_gd)))
//! ```
//!
//! and cross-checks the analytic gain against the AC engine of
//! `carbon-spice` on an actual common-source stage.

use std::sync::Arc;

use carbon_devices::Fet;
use carbon_spice::Circuit;
use carbon_units::{Capacitance, Resistance, Voltage};

use crate::error::LogicError;

/// A biased device with its parasitic environment.
pub struct RfStage {
    fet: Arc<dyn Fet>,
    vgs: f64,
    vds: f64,
    cgs: f64,
    cgd: f64,
    rg: f64,
}

impl std::fmt::Debug for RfStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RfStage")
            .field("vgs", &self.vgs)
            .field("vds", &self.vds)
            .field("cgs", &self.cgs)
            .field("cgd", &self.cgd)
            .field("rg", &self.rg)
            .finish()
    }
}

/// Small-signal figures of merit at one bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfFigures {
    /// Transconductance, S.
    pub gm: f64,
    /// Output conductance, S.
    pub gds: f64,
    /// Intrinsic voltage gain `g_m/g_ds`.
    pub voltage_gain: f64,
    /// Current-gain cut-off frequency, Hz.
    pub ft: f64,
    /// Maximum oscillation frequency, Hz.
    pub fmax: f64,
}

impl RfStage {
    /// Builds an RF stage.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidParameter`] for non-positive
    /// capacitances or gate resistance.
    pub fn new(
        fet: Arc<dyn Fet>,
        vgs: Voltage,
        vds: Voltage,
        cgs: Capacitance,
        cgd: Capacitance,
        rg: Resistance,
    ) -> Result<Self, LogicError> {
        if cgs.farads() <= 0.0 || cgd.farads() <= 0.0 {
            return Err(LogicError::InvalidParameter {
                reason: "gate capacitances must be positive".into(),
            });
        }
        if rg.ohms() <= 0.0 {
            return Err(LogicError::InvalidParameter {
                reason: "gate resistance must be positive".into(),
            });
        }
        Ok(Self {
            fet,
            vgs: vgs.volts(),
            vds: vds.volts(),
            cgs: cgs.farads(),
            cgd: cgd.farads(),
            rg: rg.ohms(),
        })
    }

    /// Computes the small-signal figures of merit at the bias point.
    pub fn figures(&self) -> RfFigures {
        let (_, gm, gds) = self.fet.eval(self.vgs, self.vds);
        let gm = gm.abs();
        let gds = gds.abs().max(1e-15);
        let ft = gm / (2.0 * std::f64::consts::PI * (self.cgs + self.cgd));
        let fmax = ft
            / (2.0
                * (self.rg * (gds + 2.0 * std::f64::consts::PI * ft * self.cgd))
                    .max(1e-30)
                    .sqrt());
        RfFigures {
            gm,
            gds,
            voltage_gain: gm / gds,
            ft,
            fmax,
        }
    }

    /// Simulates the stage as a common-source amplifier with an ideal
    /// current-source load (realized as a large resistor `r_load`), at a
    /// low frequency, and returns the measured voltage gain magnitude —
    /// an end-to-end check of the analytic `A_v` against the AC engine.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulated_voltage_gain(&self, r_load: Resistance) -> Result<f64, LogicError> {
        let mut ckt = Circuit::new();
        // Bias the gate through the gate resistance and drive AC on top.
        ckt.voltage_source("vg", "gdrive", "0", self.vgs);
        ckt.resistor("rg", "gdrive", "g", self.rg)?;
        // Current-source load: a DC current source holds the drain at
        // the requested operating point (it is AC-quiet), while `r_load`
        // to ground sets the AC load line. This avoids the enormous
        // supply a resistive pull-up to V_DS + I·R_load would need.
        let id0 = self.fet.ids(self.vgs, self.vds);
        ckt.current_source("ibias", "d", "0", id0 + self.vds / r_load.ohms())?;
        ckt.resistor("rl", "d", "0", r_load.ohms())?;
        ckt.capacitor("cgs", "g", "0", self.cgs)?;
        ckt.capacitor("cgd", "g", "d", self.cgd)?;
        ckt.fet("m1", "d", "g", "0", self.fet.clone())?;
        let ac = ckt.ac_sweep("vg", &[1e3])?;
        Ok(ac.magnitude("d")?[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_devices::{AlphaPowerFet, BallisticFet, LinearGnrFet};

    fn stage(fet: Arc<dyn Fet>, vgs: f64, vds: f64) -> RfStage {
        RfStage::new(
            fet,
            Voltage::from_volts(vgs),
            Voltage::from_volts(vds),
            Capacitance::from_attofarads(10.0),
            Capacitance::from_attofarads(5.0),
            Resistance::from_ohms(100.0),
        )
        .unwrap()
    }

    #[test]
    fn saturating_device_has_gain_ballistic_cnt() {
        let cnt = Arc::new(BallisticFet::cnt_fig1().unwrap());
        let fig = stage(cnt, 0.5, 0.4).figures();
        assert!(fig.voltage_gain > 5.0, "A_v = {}", fig.voltage_gain);
        assert!(
            fig.ft > 1e11,
            "f_T = {:.2e} (THz-class intrinsic device)",
            fig.ft
        );
        assert!(fig.fmax > 1e10, "f_max = {:.2e}", fig.fmax);
    }

    #[test]
    fn non_saturating_gnr_has_no_gain() {
        let gnr = Arc::new(LinearGnrFet::sub10nm_fig1());
        let fig = stage(gnr, 1.0, 0.5).figures();
        assert!(
            fig.voltage_gain < 2.0,
            "ohmic output swamps the gain: A_v = {}",
            fig.voltage_gain
        );
    }

    #[test]
    fn fmax_collapses_without_saturation() {
        let cnt = Arc::new(BallisticFet::cnt_fig1().unwrap());
        let gnr = Arc::new(LinearGnrFet::sub10nm_fig1());
        let f_cnt = stage(cnt, 0.5, 0.4).figures();
        let f_gnr = stage(gnr, 1.0, 0.5).figures();
        // Similar f_T class is possible, but f_max diverges — the §II
        // point that f_max, not f_T, is what saturation buys.
        assert!(
            f_cnt.fmax / f_gnr.fmax > 3.0,
            "f_max ratio {:.1}",
            f_cnt.fmax / f_gnr.fmax
        );
    }

    #[test]
    fn analytic_gain_matches_ac_simulation() {
        let fet = Arc::new(AlphaPowerFet::fig2_nfet());
        let s = stage(fet, 0.7, 0.8);
        let analytic = s.figures();
        // With a load ≫ 1/gds the simulated gain approaches gm/gds.
        let simulated = s
            .simulated_voltage_gain(Resistance::from_ohms(1e9))
            .unwrap();
        let ratio = simulated / analytic.voltage_gain;
        assert!(
            (0.7..1.3).contains(&ratio),
            "simulated {simulated:.1} vs analytic {:.1}",
            analytic.voltage_gain
        );
    }

    #[test]
    fn finite_load_divides_gain() {
        let fet = Arc::new(AlphaPowerFet::fig2_nfet());
        let s = stage(fet, 0.7, 0.8);
        let heavy = s
            .simulated_voltage_gain(Resistance::from_ohms(1e9))
            .unwrap();
        let light = s
            .simulated_voltage_gain(Resistance::from_kilohms(1.0))
            .unwrap();
        assert!(light < heavy);
    }

    #[test]
    fn validation() {
        let fet: Arc<dyn Fet> = Arc::new(AlphaPowerFet::fig2_nfet());
        assert!(RfStage::new(
            fet.clone(),
            Voltage::from_volts(0.5),
            Voltage::from_volts(0.5),
            Capacitance::ZERO,
            Capacitance::from_attofarads(5.0),
            Resistance::from_ohms(100.0)
        )
        .is_err());
        assert!(RfStage::new(
            fet,
            Voltage::from_volts(0.5),
            Voltage::from_volts(0.5),
            Capacitance::from_attofarads(5.0),
            Capacitance::from_attofarads(5.0),
            Resistance::from_ohms(0.0)
        )
        .is_err());
    }
}
