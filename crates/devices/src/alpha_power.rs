//! Sakurai–Newton alpha-power-law MOSFET — the "well-behaved FET with
//! current saturation" of the paper's Fig. 2(a), and the silicon
//! reference device of the §III.E benchmark.
//!
//! Above threshold the model is the classic alpha-power law with a
//! finite output slope (`λ`), because the paper's Fig. 2(a) device is
//! deliberately "not a perfect saturation behavior". Below threshold the
//! overdrive is replaced by a softplus interpolation so the subthreshold
//! region is a clean exponential with a configurable swing, and the whole
//! characteristic is smooth — which the Newton solver in `carbon-spice`
//! appreciates.

use carbon_units::{Length, Voltage};

use crate::{Fet, Polarity};

/// Alpha-power-law FET.
///
/// # Examples
///
/// ```
/// use carbon_devices::{AlphaPowerFet, Fet};
/// use carbon_units::Voltage;
///
/// let nfet = AlphaPowerFet::fig2_nfet();
/// let on = nfet.drain_current(Voltage::from_volts(1.0), Voltage::from_volts(1.0));
/// assert!(on.microamperes() > 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaPowerFet {
    /// Threshold voltage, V (positive; polarity handles sign).
    vt: f64,
    /// Velocity-saturation index α ∈ [1, 2].
    alpha: f64,
    /// Current factor: `I_Dsat = b·V_ov^α`, A/V^α.
    b: f64,
    /// Saturation-voltage factor: `V_Dsat = kv·V_ov^(α/2)`, V^(1−α/2).
    kv: f64,
    /// Channel-length-modulation slope, 1/V (0 = perfect saturation).
    lambda: f64,
    /// Subthreshold swing, mV/dec.
    ss_mv_per_dec: f64,
    polarity: Polarity,
    width: Option<Length>,
}

/// Error building an [`AlphaPowerFet`] from non-physical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildAlphaPowerError(String);

impl std::fmt::Display for BuildAlphaPowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid alpha-power parameters: {}", self.0)
    }
}

impl std::error::Error for BuildAlphaPowerError {}

impl AlphaPowerFet {
    /// Creates an n-type device.
    ///
    /// # Errors
    ///
    /// Returns [`BuildAlphaPowerError`] unless `vt > 0`, `1 ≤ alpha ≤ 2`,
    /// `b > 0`, `kv > 0`, `lambda ≥ 0` and `ss ≥` the thermal limit.
    pub fn new(
        vt: f64,
        alpha: f64,
        b: f64,
        kv: f64,
        lambda: f64,
        ss_mv_per_dec: f64,
    ) -> Result<Self, BuildAlphaPowerError> {
        if !(vt.is_finite() && vt > 0.0) {
            return Err(BuildAlphaPowerError(format!(
                "vt must be positive, got {vt}"
            )));
        }
        if !(1.0..=2.0).contains(&alpha) {
            return Err(BuildAlphaPowerError(format!(
                "alpha must be in [1, 2], got {alpha}"
            )));
        }
        if !(b.is_finite() && b > 0.0 && kv.is_finite() && kv > 0.0) {
            return Err(BuildAlphaPowerError(format!(
                "b and kv must be positive, got {b}, {kv}"
            )));
        }
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(BuildAlphaPowerError(format!(
                "lambda must be ≥ 0, got {lambda}"
            )));
        }
        if ss_mv_per_dec < carbon_units::consts::SS_THERMAL_LIMIT_MV_PER_DEC {
            return Err(BuildAlphaPowerError(format!(
                "subthreshold swing {ss_mv_per_dec} mV/dec is below the thermal limit"
            )));
        }
        Ok(Self {
            vt,
            alpha,
            b,
            kv,
            lambda,
            ss_mv_per_dec,
            polarity: Polarity::NType,
            width: None,
        })
    }

    /// Converts the device to p-type (mirror symmetry).
    pub fn into_p_type(mut self) -> Self {
        self.polarity = Polarity::PType;
        self
    }

    /// Attaches a footprint width for per-micron normalization.
    pub fn with_width(mut self, w: Length) -> Self {
        self.width = Some(w);
        self
    }

    /// The symmetric nFET used in the Fig. 2(a)/(c) inverter: V_T
    /// = 0.3 V, α = 1.3, mild channel-length modulation (λ = 0.15/V — a
    /// "realistic, not perfect" saturation), ~0.45 mA at
    /// `V_GS = V_DS = 1 V`.
    pub fn fig2_nfet() -> Self {
        Self::new(0.3, 1.3, 7.2e-4, 0.8, 0.15, 75.0)
            .expect("fig2 preset parameters are valid")
            .with_width(Length::from_micrometers(1.0))
    }

    /// The matching symmetric pFET of Fig. 2 (mirror of
    /// [`fig2_nfet`](Self::fig2_nfet)).
    pub fn fig2_pfet() -> Self {
        Self::fig2_nfet().into_p_type()
    }

    /// The §III.E Intel trigate reference: 30 nm gate length, fin
    /// 35 nm tall × 18 nm wide, delivering ~66 µA at
    /// `V_DS = V_GS = 1 V`. The effective electrical width is the fin
    /// perimeter (2·35 + 18 = 88 nm).
    pub fn intel_trigate_30nm() -> Self {
        // b·(1 − 0.3)^1.3 = 66 µA → b ≈ 1.05e-4.
        Self::new(0.3, 1.3, 1.05e-4, 0.8, 0.08, 70.0)
            .expect("trigate preset parameters are valid")
            .with_width(Length::from_nanometers(88.0))
    }

    /// Threshold voltage (positive magnitude).
    pub fn vt(&self) -> Voltage {
        Voltage::from_volts(self.vt)
    }

    /// Effective overdrive: softplus interpolation that is exponential
    /// `ss` mV/dec below threshold and `(v_gs − v_t)` above.
    fn overdrive(&self, vgs: f64) -> f64 {
        // Softplus scale chosen so the subthreshold decade slope is ss:
        // below Vt, veff ≈ s·exp((vgs−vt)/s); current ∝ veff^alpha, so
        // slope in decades/V is alpha/(s·ln10) → s = alpha·ss_v/ln10,
        // expressed directly with ss in volts/decade:
        let ss_v = self.ss_mv_per_dec / 1e3;
        let s = self.alpha * ss_v / std::f64::consts::LN_10;
        let x = (vgs - self.vt) / s;
        if x > 35.0 {
            vgs - self.vt
        } else if x < -35.0 {
            s * x.exp()
        } else {
            s * x.exp().ln_1p()
        }
    }

    fn ids_ntype(&self, vgs: f64, vds: f64) -> f64 {
        if vds < 0.0 {
            return -self.ids_ntype(vgs - vds, -vds);
        }
        let vov = self.overdrive(vgs);
        if vov <= 0.0 {
            return 0.0;
        }
        let idsat = self.b * vov.powf(self.alpha);
        let vdsat = self.kv * vov.powf(self.alpha / 2.0);
        if vds < vdsat {
            let x = vds / vdsat;
            idsat * (2.0 - x) * x
        } else {
            idsat * (1.0 + self.lambda * (vds - vdsat))
        }
    }
}

impl carbon_spice::FetCurve for AlphaPowerFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        match self.polarity {
            Polarity::NType => self.ids_ntype(vgs, vds),
            Polarity::PType => -self.ids_ntype(-vgs, -vds),
        }
    }
}

impl Fet for AlphaPowerFet {
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
    fn trigate_preset_hits_66_microamps() {
        let t = AlphaPowerFet::intel_trigate_30nm();
        let i = t.ids(1.0, 1.0);
        assert!((i * 1e6 - 66.0).abs() < 5.0, "I = {} µA", i * 1e6);
    }

    #[test]
    fn saturation_region_has_small_slope() {
        let f = AlphaPowerFet::fig2_nfet();
        let o = f.output(
            Voltage::ZERO,
            Voltage::from_volts(1.0),
            101,
            Voltage::from_volts(1.0),
        );
        // The paper's Fig. 2(a) shape: strong saturation figure.
        assert!(
            o.saturation_figure() > 3.0,
            "figure = {}",
            o.saturation_figure()
        );
    }

    #[test]
    fn perfect_saturation_with_zero_lambda() {
        let f = AlphaPowerFet::new(0.3, 1.3, 7.2e-4, 0.8, 0.0, 75.0).unwrap();
        let i1 = f.ids(1.0, 0.9);
        let i2 = f.ids(1.0, 1.0);
        assert_eq!(i1, i2, "flat beyond vdsat");
    }

    #[test]
    fn subthreshold_slope_matches_parameter() {
        let f = AlphaPowerFet::fig2_nfet();
        let t = f.transfer(
            Voltage::from_volts(-0.2),
            Voltage::from_volts(1.0),
            241,
            Voltage::from_volts(1.0),
        );
        let ss = t.swing_between(1e-10, 1e-8).unwrap();
        assert!((ss - 75.0).abs() < 3.0, "ss = {ss}");
    }

    #[test]
    fn continuous_across_threshold_and_vdsat() {
        let f = AlphaPowerFet::fig2_nfet();
        // No jumps: scan finely and bound relative steps.
        let mut prev = f.ids(-0.1, 0.7);
        for k in 1..400 {
            let vg = -0.1 + k as f64 * 0.004;
            let i = f.ids(vg, 0.7);
            assert!(i >= prev, "monotone at vg = {vg}");
            prev = i;
        }
    }

    #[test]
    fn p_type_mirror() {
        let n = AlphaPowerFet::fig2_nfet();
        let p = AlphaPowerFet::fig2_pfet();
        assert!((n.ids(0.8, 0.6) + p.ids(-0.8, -0.6)).abs() < 1e-15);
        assert_eq!(p.polarity(), Polarity::PType);
    }

    #[test]
    fn triode_region_is_resistive() {
        let f = AlphaPowerFet::fig2_nfet();
        let g1 = f.ids(1.0, 0.02) / 0.02;
        let g2 = f.ids(1.0, 0.04) / 0.04;
        assert!((g1 / g2 - 1.0).abs() < 0.1, "ohmic onset");
    }

    #[test]
    fn parameter_validation() {
        assert!(AlphaPowerFet::new(-0.3, 1.3, 1e-4, 0.8, 0.1, 70.0).is_err());
        assert!(AlphaPowerFet::new(0.3, 2.5, 1e-4, 0.8, 0.1, 70.0).is_err());
        assert!(AlphaPowerFet::new(0.3, 1.3, 0.0, 0.8, 0.1, 70.0).is_err());
        assert!(AlphaPowerFet::new(0.3, 1.3, 1e-4, 0.8, -0.1, 70.0).is_err());
        assert!(AlphaPowerFet::new(0.3, 1.3, 1e-4, 0.8, 0.1, 30.0).is_err());
    }

    #[test]
    fn off_current_is_tiny() {
        let f = AlphaPowerFet::fig2_nfet();
        assert!(f.ids(0.0, 1.0) < 1e-7);
        assert!(f.ids(0.0, 1.0) > 0.0, "but finite (subthreshold)");
    }
}
