//! Self-consistent top-of-barrier ballistic FET model
//! (Natori / Rahman–Lundstrom), the physics behind the paper's Fig. 1
//! comparison and the CNT entries of Fig. 5.
//!
//! The channel is reduced to the potential energy `U` at the top of the
//! source-drain barrier. States moving +k are filled from the source
//! Fermi level, −k states from the drain, and `U` follows the terminal
//! voltages through capacitive control factors plus the charging feedback
//! of the filled states:
//!
//! ```text
//! U = −α_G·V_GS − α_D·V_DS + q·Δn(U)/C_ins
//! I = b·[I⁺(µ_S − U) − I⁺(µ_D − U)]
//! ```
//!
//! where `I⁺` is the closed-form directed current of the 1-D band
//! ([`Band1d::directed_current`]) and `b ∈ (0, 1]` a ballisticity factor
//! (`λ/(λ + L)` for a mean free path λ). Evaluated over a
//! [`CntBand`] this model reproduces the measured
//! CNT-FET behaviour the paper highlights — including current saturation
//! at `V_DS` beyond a few `kT/q` — and over a
//! [`GnrBand`] it reproduces the *prediction* that
//! GNRs should behave the same (the paper's point is that real GNRs
//! don't).

use std::sync::Arc;

use carbon_band::math::{brent, FindRootError};
use carbon_band::{Band1d, CntBand, GnrBand};
use carbon_units::consts::Q_E;
use carbon_units::{Energy, Length, Temperature};

use crate::{Fet, Polarity};

/// Self-consistent ballistic top-of-barrier FET.
///
/// Construct through [`BallisticFet::builder`]; presets
/// [`BallisticFet::cnt_fig1`] and [`BallisticFet::gnr_fig1`] reproduce
/// the two devices of the paper's Fig. 1 (same 0.56 eV bandgap).
///
/// # Examples
///
/// ```
/// use carbon_devices::{BallisticFet, Fet};
/// use carbon_units::Voltage;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// let fet = BallisticFet::cnt_fig1()?;
/// let on = fet.drain_current(Voltage::from_volts(0.5), Voltage::from_volts(0.5));
/// let off = fet.drain_current(Voltage::from_volts(0.0), Voltage::from_volts(0.5));
/// assert!(on.amperes() / off.amperes() > 1e3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct BallisticFet {
    band: Arc<dyn Band1d + Send + Sync>,
    c_ins: f64,
    alpha_g: f64,
    alpha_d: f64,
    /// Source Fermi level relative to channel mid-gap at zero bias, eV.
    ef0: f64,
    temperature: Temperature,
    ballisticity: f64,
    polarity: Polarity,
    width: Option<Length>,
    /// Equilibrium net carrier density, 1/m (cached at build time).
    n0: f64,
}

impl std::fmt::Debug for BallisticFet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BallisticFet")
            .field("bandgap_ev", &self.band.bandgap().electron_volts())
            .field("c_ins", &self.c_ins)
            .field("alpha_g", &self.alpha_g)
            .field("alpha_d", &self.alpha_d)
            .field("ef0_ev", &self.ef0)
            .field("ballisticity", &self.ballisticity)
            .field("polarity", &self.polarity)
            .finish()
    }
}

/// Error building a [`BallisticFet`] from non-physical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildBallisticError(String);

impl std::fmt::Display for BuildBallisticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid ballistic FET parameters: {}", self.0)
    }
}

impl std::error::Error for BuildBallisticError {}

/// Builder for [`BallisticFet`].
#[derive(Clone)]
pub struct BallisticFetBuilder {
    band: Arc<dyn Band1d + Send + Sync>,
    c_ins: f64,
    alpha_g: f64,
    alpha_d: f64,
    vt: f64,
    temperature: Temperature,
    ballisticity: f64,
    polarity: Polarity,
    width: Option<Length>,
}

impl BallisticFetBuilder {
    /// Gate insulator capacitance per unit channel length, F/m
    /// (default `4·10⁻¹⁰`, a wrap-gate high-k stack on a ~1.5 nm tube).
    pub fn gate_capacitance_per_length(mut self, c: f64) -> Self {
        self.c_ins = c;
        self
    }

    /// Gate control factor α_G (default 0.88).
    pub fn alpha_gate(mut self, a: f64) -> Self {
        self.alpha_g = a;
        self
    }

    /// Drain control factor α_D (default 0.035; the DIBL knob).
    pub fn alpha_drain(mut self, a: f64) -> Self {
        self.alpha_d = a;
        self
    }

    /// Sets an approximate threshold voltage by positioning the Fermi
    /// level: `ef0 = Δ₁ − α_G·V_T` (barrier reaches the Fermi level at
    /// `V_GS ≈ V_T`). Default: `V_T = 0.3 V`.
    pub fn threshold_voltage(mut self, vt: f64) -> Self {
        self.vt = vt;
        self
    }

    /// Lattice temperature (default 300 K).
    pub fn temperature(mut self, t: Temperature) -> Self {
        self.temperature = t;
        self
    }

    /// Direct ballisticity factor in `(0, 1]` (default 1: fully
    /// ballistic).
    pub fn ballisticity(mut self, b: f64) -> Self {
        self.ballisticity = b;
        self
    }

    /// Ballisticity from channel length and mean free path:
    /// `b = λ/(λ + L)`.
    pub fn channel(mut self, length: Length, mean_free_path: Length) -> Self {
        self.ballisticity = mean_free_path.meters() / (mean_free_path.meters() + length.meters());
        self
    }

    /// Makes the device p-type (mirror symmetry).
    pub fn p_type(mut self) -> Self {
        self.polarity = Polarity::PType;
        self
    }

    /// Footprint width used to normalize currents per micron (e.g. the
    /// CNT diameter, or a placement pitch).
    pub fn width(mut self, w: Length) -> Self {
        self.width = Some(w);
        self
    }

    /// Builds the device, validating parameters and caching the
    /// equilibrium charge.
    ///
    /// # Errors
    ///
    /// Returns [`BuildBallisticError`] for non-positive capacitance,
    /// control factors outside `(0, 1]`, or ballisticity outside
    /// `(0, 1]`.
    pub fn build(self) -> Result<BallisticFet, BuildBallisticError> {
        if !(self.c_ins.is_finite() && self.c_ins > 0.0) {
            return Err(BuildBallisticError(format!(
                "gate capacitance must be positive, got {}",
                self.c_ins
            )));
        }
        for (name, v) in [("alpha_g", self.alpha_g), ("alpha_d", self.alpha_d)] {
            if !(v.is_finite() && v > 0.0 && v <= 1.0) {
                return Err(BuildBallisticError(format!(
                    "{name} must be in (0, 1], got {v}"
                )));
            }
        }
        if !(self.ballisticity > 0.0 && self.ballisticity <= 1.0) {
            return Err(BuildBallisticError(format!(
                "ballisticity must be in (0, 1], got {}",
                self.ballisticity
            )));
        }
        let delta1 = self
            .band
            .subbands()
            .first()
            .map(|s| s.edge.electron_volts())
            .unwrap_or(0.0);
        let ef0 = delta1 - self.alpha_g * self.vt;
        let mut fet = BallisticFet {
            band: self.band,
            c_ins: self.c_ins,
            alpha_g: self.alpha_g,
            alpha_d: self.alpha_d,
            ef0,
            temperature: self.temperature,
            ballisticity: self.ballisticity,
            polarity: self.polarity,
            width: self.width,
            n0: 0.0,
        };
        fet.n0 = fet.net_density(0.0, 0.0);
        Ok(fet)
    }
}

impl BallisticFet {
    /// Starts a builder over an arbitrary band structure.
    pub fn builder(band: Arc<dyn Band1d + Send + Sync>) -> BallisticFetBuilder {
        BallisticFetBuilder {
            band,
            c_ins: 4e-10,
            alpha_g: 0.88,
            alpha_d: 0.035,
            vt: 0.3,
            temperature: Temperature::room(),
            ballisticity: 1.0,
            polarity: Polarity::NType,
            width: None,
        }
    }

    /// The paper's Fig. 1 CNT-FET: a semiconducting nanotube with
    /// `E_g = 0.56 eV` (d ≈ 1.5 nm), wrap-gate stack, `V_T ≈ 0.3 V`.
    ///
    /// # Errors
    ///
    /// Propagates band-structure or parameter validation failures (none
    /// occur for the fixed preset values in practice).
    pub fn cnt_fig1() -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56))?;
        let d = Length::from_nanometers(1.5);
        Ok(Self::builder(Arc::new(band))
            .threshold_voltage(0.3)
            .width(d)
            .build()?)
    }

    /// The paper's Fig. 1 GNR-FET: the N = 18 armchair ribbon with the
    /// same 0.56 eV bandgap and the same electrostatics, differing only
    /// in band structure (spin-only degeneracy).
    ///
    /// # Errors
    ///
    /// Propagates band-structure or parameter validation failures (none
    /// occur for the fixed preset values in practice).
    pub fn gnr_fig1() -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        let band = GnrBand::armchair(18)?;
        let w = band.width();
        Ok(Self::builder(Arc::new(band))
            .threshold_voltage(0.3)
            .width(w)
            .build()?)
    }

    /// The band structure this device transports through.
    pub fn band(&self) -> &(dyn Band1d + Send + Sync) {
        self.band.as_ref()
    }

    /// Ballisticity factor in use.
    pub fn ballisticity(&self) -> f64 {
        self.ballisticity
    }

    /// Mobile electron density (1/m) at the barrier top for a given
    /// barrier shift `u` (eV) and drain bias (V), averaging source- and
    /// drain-filled hemispheres.
    ///
    /// The model is unipolar (conduction-band states only), as in the
    /// standard FETToy formulation: the valence band never approaches
    /// either contact Fermi level in the operating window of the paper's
    /// devices, and including drain-referenced hole filling would inject
    /// spurious ambipolar charge at the barrier top.
    fn net_density(&self, u: f64, vds: f64) -> f64 {
        let t = self.temperature;
        let mu_s = Energy::from_electron_volts(self.ef0 - u);
        let mu_d = Energy::from_electron_volts(self.ef0 - u - vds);
        0.5 * (self.band.electron_density(mu_s, t) + self.band.electron_density(mu_d, t))
    }

    /// Solves the self-consistent barrier potential `u` (eV) at a bias
    /// point of the intrinsic n-type device.
    fn solve_barrier(&self, vgs: f64, vds: f64) -> f64 {
        let laplace = -self.alpha_g * vgs - self.alpha_d * vds;
        let residual =
            |u: f64| u - laplace - Q_E * (self.net_density(u, vds) - self.n0) / self.c_ins;
        // Expanding bracket around the Laplace solution. The residual is
        // strictly increasing in u, so a sign change brackets the root.
        let mut half_width = 0.1;
        for _ in 0..24 {
            let (lo, hi) = (laplace - half_width, laplace + half_width + 0.5);
            let (flo, fhi) = (residual(lo), residual(hi));
            if flo <= 0.0 && fhi >= 0.0 {
                match brent(residual, lo, hi, 1e-9) {
                    Ok(u) => return u,
                    Err(FindRootError::IterationLimit { best }) => {
                        // Brent's best value so far; counted, so a
                        // `stats` snapshot shows the fallback.
                        carbon_metrics::global_counter!("devices.ballistic.iteration_limit").incr();
                        return best;
                    }
                    Err(FindRootError::NoBracket { .. }) => break,
                }
            }
            half_width *= 2.0;
        }
        // Unreachable for physical parameters; fall back to the
        // charge-free barrier, and count it.
        carbon_metrics::global_counter!("devices.ballistic.no_bracket").incr();
        laplace
    }

    /// Intrinsic n-type drain current at raw bias, A.
    fn ids_ntype(&self, vgs: f64, vds: f64) -> f64 {
        if vds < 0.0 {
            // Source/drain exchange for a symmetric device.
            return -self.ids_ntype(vgs - vds, -vds);
        }
        let u = self.solve_barrier(vgs, vds);
        let t = self.temperature;
        let mu_s = Energy::from_electron_volts(self.ef0 - u);
        let mu_d = Energy::from_electron_volts(self.ef0 - u - vds);
        self.ballisticity
            * (self.band.directed_current(mu_s, t) - self.band.directed_current(mu_d, t))
    }
}

impl carbon_spice::FetCurve for BallisticFet {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        match self.polarity {
            Polarity::NType => self.ids_ntype(vgs, vds),
            Polarity::PType => -self.ids_ntype(-vgs, -vds),
        }
    }
}

impl Fet for BallisticFet {
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
    use carbon_units::Voltage;

    fn cnt() -> BallisticFet {
        BallisticFet::cnt_fig1().unwrap()
    }

    #[test]
    fn a_bias_that_never_brackets_counts_one_fallback_per_barrier_solve() {
        let fallbacks = || {
            carbon_metrics::global()
                .counter("devices.ballistic.no_bracket")
                .total()
        };
        let f = cnt();
        let before = fallbacks();
        // NaN fails every bracket test; at vds > 0 the n-type device
        // solves one barrier.
        let _ = f.ids(f64::NAN, 0.5);
        assert_eq!(fallbacks() - before, 1);
    }

    #[test]
    fn on_current_is_microamp_scale() {
        let i = cnt().ids(0.5, 0.5);
        assert!(i > 1e-6 && i < 1e-4, "Ion = {i:.3e} A");
    }

    #[test]
    fn off_state_is_orders_of_magnitude_lower() {
        let f = cnt();
        let on = f.ids(0.5, 0.5);
        let off = f.ids(0.0, 0.5);
        assert!(on / off > 1e3, "on/off = {:.1e}", on / off);
    }

    #[test]
    fn output_curve_saturates() {
        // The defining CNT-FET property in the paper: current hardly
        // changes between V_DS = 0.2 V and 0.5 V.
        let f = cnt();
        let i02 = f.ids(0.5, 0.2);
        let i05 = f.ids(0.5, 0.5);
        assert!(i05 >= i02, "monotone");
        assert!(
            i05 / i02 < 1.35,
            "saturation: I(0.5)/I(0.2) = {:.3}",
            i05 / i02
        );
        // While the low-V_DS region is resistive (roughly linear).
        let i005 = f.ids(0.5, 0.05);
        let i01 = f.ids(0.5, 0.1);
        assert!(i01 / i005 > 1.5, "linear onset: {:.3}", i01 / i005);
    }

    #[test]
    fn subthreshold_swing_is_near_thermal() {
        let f = cnt();
        // Measure decades per volt deep below threshold.
        let i1 = f.ids(0.05, 0.5);
        let i2 = f.ids(0.11, 0.5);
        let ss = 0.06 / (i2 / i1).log10() * 1e3; // mV/dec
        assert!(
            (57.0..75.0).contains(&ss),
            "SS = {ss:.1} mV/dec (thermal limit ≈ 60/α_G ≈ 68)"
        );
    }

    #[test]
    fn gnr_twin_overlaps_cnt_in_subthreshold() {
        // Fig. 1(a): on a log plot the two transfer curves overlap; the
        // residual offset is the degeneracy factor (4 vs 2).
        let c = cnt();
        let g = BallisticFet::gnr_fig1().unwrap();
        let ic = c.ids(0.1, 0.5);
        let ig = g.ids(0.1, 0.5);
        let ratio = ic / ig;
        assert!((1.2..4.5).contains(&ratio), "CNT/GNR = {ratio:.2}");
    }

    #[test]
    fn gnr_twin_also_saturates_in_theory() {
        // Fig. 1(b): the *simulated* GNR saturates like the CNT — the
        // paper's contrast is with measured devices, not the model.
        let g = BallisticFet::gnr_fig1().unwrap();
        let r = g.ids(0.5, 0.5) / g.ids(0.5, 0.2);
        assert!(r < 1.35, "GNR model saturation ratio {r:.3}");
    }

    #[test]
    fn ptype_mirrors_ntype() {
        let n = cnt();
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56)).unwrap();
        let p = BallisticFet::builder(Arc::new(band))
            .threshold_voltage(0.3)
            .p_type()
            .build()
            .unwrap();
        let i_n = n.ids(0.5, 0.5);
        let i_p = p.ids(-0.5, -0.5);
        assert!((i_n + i_p).abs() / i_n < 1e-9, "p mirrors n");
        assert_eq!(p.polarity(), Polarity::PType);
    }

    #[test]
    fn reverse_drain_antisymmetry() {
        let f = cnt();
        let fwd = f.ids(0.3, 0.2);
        let rev = f.ids(0.1, -0.2);
        // vgs' = 0.3 − 0.2 referenced to the swapped source.
        assert!((fwd + rev).abs() / fwd < 1e-9);
    }

    #[test]
    fn ballisticity_scales_current() {
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56)).unwrap();
        let half = BallisticFet::builder(Arc::new(band))
            .threshold_voltage(0.3)
            .ballisticity(0.5)
            .build()
            .unwrap();
        let full = cnt();
        let r = half.ids(0.5, 0.5) / full.ids(0.5, 0.5);
        assert!((r - 0.5).abs() < 0.02, "ratio {r}");
    }

    #[test]
    fn channel_sets_ballisticity_from_mfp() {
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56)).unwrap();
        let f = BallisticFet::builder(Arc::new(band))
            .channel(
                Length::from_nanometers(100.0),
                Length::from_nanometers(300.0),
            )
            .build()
            .unwrap();
        assert!((f.ballisticity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn charging_feedback_reduces_current() {
        // A tiny insulator capacitance strengthens the self-consistent
        // push-back and must lower the on-current.
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56)).unwrap();
        let weak = BallisticFet::builder(Arc::new(band.clone()))
            .threshold_voltage(0.3)
            .gate_capacitance_per_length(5e-11)
            .build()
            .unwrap();
        let strong = BallisticFet::builder(Arc::new(band))
            .threshold_voltage(0.3)
            .gate_capacitance_per_length(8e-10)
            .build()
            .unwrap();
        assert!(weak.ids(0.5, 0.5) < strong.ids(0.5, 0.5));
    }

    #[test]
    fn builder_validation() {
        let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56)).unwrap();
        assert!(BallisticFet::builder(Arc::new(band.clone()))
            .gate_capacitance_per_length(-1.0)
            .build()
            .is_err());
        assert!(BallisticFet::builder(Arc::new(band.clone()))
            .alpha_gate(1.5)
            .build()
            .is_err());
        assert!(BallisticFet::builder(Arc::new(band))
            .ballisticity(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn typed_api_matches_raw() {
        let f = cnt();
        let typed = f
            .drain_current(Voltage::from_volts(0.4), Voltage::from_volts(0.3))
            .amperes();
        assert_eq!(typed, f.ids(0.4, 0.3));
    }

    #[test]
    fn transfer_and_output_grids() {
        let f = cnt();
        let t = f.transfer(
            Voltage::from_volts(0.0),
            Voltage::from_volts(0.5),
            11,
            Voltage::from_volts(0.5),
        );
        assert_eq!(t.len(), 11);
        assert!(t.current().windows(2).all(|w| w[1] >= w[0] - 1e-15));
        let o = f.output(
            Voltage::ZERO,
            Voltage::from_volts(0.5),
            11,
            Voltage::from_volts(0.5),
        );
        assert!(o.current().windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use carbon_runtime::prop::prelude::*;
    use carbon_spice::FetCurve;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn current_nonnegative_and_monotone_in_vgs(
            vg in 0.0_f64..0.8,
            vd in 0.05_f64..0.6,
        ) {
            let f = BallisticFet::cnt_fig1().unwrap();
            let i1 = f.ids(vg, vd);
            let i2 = f.ids(vg + 0.05, vd);
            prop_assert!(i1 >= 0.0);
            prop_assert!(i2 >= i1 * 0.999);
        }

        #[test]
        fn output_monotone_in_vds(vg in 0.2_f64..0.7, vd in 0.0_f64..0.5) {
            let f = BallisticFet::cnt_fig1().unwrap();
            let i1 = f.ids(vg, vd);
            let i2 = f.ids(vg, vd + 0.05);
            prop_assert!(i2 >= i1 * 0.999);
        }
    }
}
