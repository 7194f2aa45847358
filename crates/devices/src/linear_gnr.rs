//! The experimentally observed graphene-nanoribbon FET: a gate-steered
//! linear resistor.
//!
//! The paper's central criticism of GNRs (Fig. 1(b) "real GNR",
//! Fig. 2(b)/(d)) is that fabricated ribbons turn *off* — sub-10 nm
//! devices reach `I_on/I_off = 10⁶` with 2 mA/µm drive — but never
//! *saturate*: the output characteristic stays essentially linear up to
//! volt-scale biases, and saturation appears only "at very high current
//! densities and/or high bias voltages (> 2 V)". This model captures
//! exactly that phenomenology:
//!
//! ```text
//! I_D = G(V_GS) · V_DS / (1 + |V_DS|/V_crit)
//! ```
//!
//! with a gate-controlled conductance `G` (softplus turn-on with a
//! configurable swing) and a saturation onset `V_crit` of several volts,
//! far outside the supply window of a scaled technology.

use carbon_units::{Length, Voltage};

use crate::{Fet, Polarity};

/// Non-saturating GNR FET.
///
/// # Examples
///
/// ```
/// use carbon_devices::{Fet, LinearGnrFet};
/// use carbon_units::Voltage;
///
/// let gnr = LinearGnrFet::sub10nm_fig1();
/// let out = gnr.output(
///     Voltage::ZERO,
///     Voltage::from_volts(0.5),
///     51,
///     Voltage::from_volts(1.0),
/// );
/// // No current saturation in the supply window.
/// assert!(out.saturation_figure() < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearGnrFet {
    /// Fully-on channel conductance, S.
    g_on: f64,
    /// Threshold voltage, V.
    vt: f64,
    /// Subthreshold swing, mV/dec.
    ss_mv_per_dec: f64,
    /// Gate overdrive at which `G` reaches `g_on`, V.
    v_on: f64,
    /// Bias scale where saturation would set in, V (several volts).
    v_crit: f64,
    polarity: Polarity,
    width: Option<Length>,
}

/// Error building a [`LinearGnrFet`] from non-physical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildLinearGnrError(String);

impl std::fmt::Display for BuildLinearGnrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid linear-GNR parameters: {}", self.0)
    }
}

impl std::error::Error for BuildLinearGnrError {}

impl LinearGnrFet {
    /// Creates an n-type device.
    ///
    /// # Errors
    ///
    /// Returns [`BuildLinearGnrError`] unless `g_on > 0`, `v_on > 0`,
    /// `v_crit > 0`, and the swing is at or above the thermal limit.
    pub fn new(
        g_on: f64,
        vt: f64,
        ss_mv_per_dec: f64,
        v_on: f64,
        v_crit: f64,
    ) -> Result<Self, BuildLinearGnrError> {
        if !(g_on.is_finite() && g_on > 0.0) {
            return Err(BuildLinearGnrError(format!(
                "g_on must be positive, got {g_on}"
            )));
        }
        if !(v_on.is_finite() && v_on > 0.0 && v_crit.is_finite() && v_crit > 0.0) {
            return Err(BuildLinearGnrError(format!(
                "v_on and v_crit must be positive, got {v_on}, {v_crit}"
            )));
        }
        if ss_mv_per_dec < carbon_units::consts::SS_THERMAL_LIMIT_MV_PER_DEC {
            return Err(BuildLinearGnrError(format!(
                "swing {ss_mv_per_dec} mV/dec is below the thermal limit"
            )));
        }
        Ok(Self {
            g_on,
            vt,
            ss_mv_per_dec,
            v_on,
            v_crit,
            polarity: Polarity::NType,
            width: None,
        })
    }

    /// Converts the device to p-type.
    pub fn into_p_type(mut self) -> Self {
        self.polarity = Polarity::PType;
        self
    }

    /// Attaches a footprint width.
    pub fn with_width(mut self, w: Length) -> Self {
        self.width = Some(w);
        self
    }

    /// The sub-10 nm ribbon of the paper's §II (Wang et al.): ~2 mA/µm
    /// at `V_DS = 1 V` over a 5 nm width, `I_on/I_off ≈ 10⁶`, and no
    /// saturation below several volts.
    pub fn sub10nm_fig1() -> Self {
        let width = Length::from_nanometers(5.0);
        // 2 mA/µm × 5 nm = 10 µA at (1 V, 1 V); with V_crit = 4 V the
        // divisor at 1 V is 1.25 → G_on = 12.5 µS.
        Self::new(12.5e-6, 0.2, 120.0, 0.8, 4.0)
            .expect("fig1 preset parameters are valid")
            .with_width(width)
    }

    /// A Fig. 2(b) inverter device: conductance sized so the on-current
    /// at `(V_DD, V_DD) = (1 V, 1 V)` matches the saturating Fig. 2(a)
    /// nFET, making the two inverters of Fig. 2 directly comparable.
    ///
    /// Unlike the sharply-switching sub-10 nm ribbon of Fig. 1, the
    /// Fig. 2(b) device steers its conductance *gradually* across the
    /// supply window (a very soft 700 mV/dec effective swing) — that
    /// weak gate modulation on top of the linear output characteristic
    /// is what pins the inverter gain below one in Fig. 2(d).
    pub fn fig2_nfet() -> Self {
        let target = crate::AlphaPowerFet::fig2_nfet();
        let i_ref = carbon_spice::FetCurve::ids(&target, 1.0, 1.0);
        let v_crit = 4.0;
        let (vt, ss, v_on) = (0.0, 700.0, 1.2);
        // Invert I(1,1) = g_on·(soft(1)/v_on)·1/(1 + 1/v_crit) for g_on.
        let s = ss / 1e3 / std::f64::consts::LN_10;
        let soft1: f64 = s * ((1.0 - vt) / s).exp().ln_1p();
        let g_on = i_ref * (1.0 + 1.0 / v_crit) * v_on / soft1;
        Self::new(g_on, vt, ss, v_on, v_crit)
            .expect("fig2 preset parameters are valid")
            .with_width(Length::from_micrometers(1.0))
    }

    /// The matching p-type device of Fig. 2(b)/(d).
    pub fn fig2_pfet() -> Self {
        Self::fig2_nfet().into_p_type()
    }

    /// Gate-controlled conductance `G(V_GS)`, S.
    pub fn conductance(&self, vgs: Voltage) -> f64 {
        let ss_v = self.ss_mv_per_dec / 1e3;
        let s = ss_v / std::f64::consts::LN_10;
        let x = (vgs.volts() - self.vt) / s;
        let soft = if x > 35.0 {
            vgs.volts() - self.vt
        } else if x < -35.0 {
            s * x.exp()
        } else {
            s * x.exp().ln_1p()
        };
        self.g_on * (soft / self.v_on).min(1.0)
    }

    fn ids_ntype(&self, vgs: f64, vds: f64) -> f64 {
        let g = self.conductance(Voltage::from_volts(vgs));
        g * vds / (1.0 + vds.abs() / self.v_crit)
    }
}

impl carbon_spice::FetCurve for LinearGnrFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        match self.polarity {
            Polarity::NType => self.ids_ntype(vgs, vds),
            Polarity::PType => -self.ids_ntype(-vgs, -vds),
        }
    }
}

impl Fet for LinearGnrFet {
    fn polarity(&self) -> Polarity {
        self.polarity
    }

    fn width(&self) -> Option<Length> {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_spice::FetCurve;

    #[test]
    fn sub10nm_preset_hits_published_density() {
        let g = LinearGnrFet::sub10nm_fig1();
        let i = g.ids(1.0, 1.0);
        let w = Fet::width(&g).unwrap();
        let density = carbon_units::Current::from_amperes(i).per_width(w);
        assert!(
            (density.milliamps_per_micron() - 2.0).abs() < 0.3,
            "density = {} mA/µm",
            density.milliamps_per_micron()
        );
    }

    #[test]
    fn on_off_ratio_reaches_a_million() {
        let g = LinearGnrFet::sub10nm_fig1();
        let t = g.transfer(
            Voltage::from_volts(-0.6),
            Voltage::from_volts(1.0),
            161,
            Voltage::from_volts(1.0),
        );
        assert!(t.on_off_ratio() > 1e6, "on/off = {:.2e}", t.on_off_ratio());
    }

    #[test]
    fn no_saturation_in_the_supply_window() {
        // The headline failure: output conductance barely drops across
        // the full V_DS range.
        let g = LinearGnrFet::sub10nm_fig1();
        let o = g.output(
            Voltage::ZERO,
            Voltage::from_volts(1.0),
            101,
            Voltage::from_volts(1.0),
        );
        assert!(
            o.saturation_figure() < 1.8,
            "figure = {}",
            o.saturation_figure()
        );
    }

    #[test]
    fn saturation_only_appears_beyond_two_volts() {
        // Sweeping far past the supply window the V_crit roll-off
        // finally shows — matching "current saturation can only be
        // observed at ... high bias voltages (> 2 V)".
        let g = LinearGnrFet::sub10nm_fig1();
        let wide = g.output(
            Voltage::ZERO,
            Voltage::from_volts(8.0),
            161,
            Voltage::from_volts(1.0),
        );
        assert!(
            wide.saturation_figure() > 2.0,
            "figure = {}",
            wide.saturation_figure()
        );
    }

    #[test]
    fn fig2_device_matches_alpha_power_on_current() {
        let g = LinearGnrFet::fig2_nfet();
        let a = crate::AlphaPowerFet::fig2_nfet();
        let ig = g.ids(1.0, 1.0);
        let ia = a.ids(1.0, 1.0);
        assert!((ig / ia - 1.0).abs() < 0.02, "Ion ratio {}", ig / ia);
    }

    #[test]
    fn linear_region_resistance_is_gate_steered() {
        let g = LinearGnrFet::sub10nm_fig1();
        let r_lo = 0.05 / g.ids(0.5, 0.05);
        let r_hi = 0.05 / g.ids(1.0, 0.05);
        assert!(r_lo > r_hi, "more gate → less resistance");
        // Both behave ohmically at small bias.
        let lin_err = (g.ids(1.0, 0.1) / (2.0 * g.ids(1.0, 0.05)) - 1.0).abs();
        assert!(lin_err < 0.02, "ohmic: {lin_err}");
    }

    #[test]
    fn p_type_mirror() {
        let n = LinearGnrFet::sub10nm_fig1();
        let p = LinearGnrFet::sub10nm_fig1().into_p_type();
        assert!((n.ids(0.7, 0.4) + p.ids(-0.7, -0.4)).abs() < 1e-18);
    }

    #[test]
    fn negative_vds_is_antisymmetric() {
        let g = LinearGnrFet::sub10nm_fig1();
        assert!((g.ids(0.8, 0.3) + g.ids(0.8, -0.3)).abs() < 1e-18);
    }

    #[test]
    fn validation() {
        assert!(LinearGnrFet::new(0.0, 0.2, 100.0, 0.8, 4.0).is_err());
        assert!(LinearGnrFet::new(1e-5, 0.2, 100.0, -0.8, 4.0).is_err());
        assert!(LinearGnrFet::new(1e-5, 0.2, 100.0, 0.8, 0.0).is_err());
        assert!(LinearGnrFet::new(1e-5, 0.2, 20.0, 0.8, 4.0).is_err());
    }
}
