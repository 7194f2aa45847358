//! Source/drain series resistance: the Fig. 4 experiment and the §III.B
//! contact-resistance discussion.
//!
//! [`SeriesResistance`] wraps any [`Fet`] with access resistors `R_S` and
//! `R_D` and solves the implicit loop
//!
//! ```text
//! I = f(V_GS − I·R_S,  V_DS − I·(R_S + R_D))
//! ```
//!
//! for the terminal current. Fig. 4 is this wrapper with 50 kΩ per
//! contact around the ideal CNT-FET: the current drops *and the shape
//! linearizes*, which is the point the paper makes about contact
//! engineering.
//!
//! [`cnt_contact_resistance`] models the §III.B observation (Franklin &
//! Chen) that CNT contact resistance rises as the contact length shrinks
//! below the current-transfer length, with the `h/4q² ≈ 6.45 kΩ` quantum
//! bound and the paper's "as low as 11 kΩ" total series resistance as
//! reference points.

use std::sync::Arc;

use carbon_band::math::brent;
use carbon_units::consts::R_QUANTUM_CNT;
use carbon_units::{Energy, Length, Resistance, Temperature};

use crate::{Fet, Polarity};

/// A FET with source/drain access resistance.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use carbon_devices::{BallisticFet, Fet, SeriesResistance};
/// use carbon_units::{Resistance, Voltage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
/// let ideal = Arc::new(BallisticFet::cnt_fig1()?);
/// let contacted = SeriesResistance::symmetric(ideal.clone(), Resistance::from_kilohms(50.0));
/// let v = Voltage::from_volts(0.5);
/// assert!(contacted.drain_current(v, v).amperes() < ideal.drain_current(v, v).amperes());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SeriesResistance {
    inner: Arc<dyn Fet>,
    rs: f64,
    rd: f64,
}

impl std::fmt::Debug for SeriesResistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesResistance")
            .field("rs_ohm", &self.rs)
            .field("rd_ohm", &self.rd)
            .finish()
    }
}

impl SeriesResistance {
    /// Wraps `inner` with separate source and drain resistances.
    ///
    /// # Panics
    ///
    /// Panics if either resistance is negative or non-finite.
    pub fn new(inner: Arc<dyn Fet>, rs: Resistance, rd: Resistance) -> Self {
        assert!(
            rs.ohms().is_finite() && rs.ohms() >= 0.0,
            "source resistance must be ≥ 0"
        );
        assert!(
            rd.ohms().is_finite() && rd.ohms() >= 0.0,
            "drain resistance must be ≥ 0"
        );
        Self {
            inner,
            rs: rs.ohms(),
            rd: rd.ohms(),
        }
    }

    /// Equal resistance on both contacts — the Fig. 4 configuration.
    pub fn symmetric(inner: Arc<dyn Fet>, r_each: Resistance) -> Self {
        Self::new(inner, r_each, r_each)
    }

    fn solve(&self, vgs: f64, vds: f64) -> f64 {
        if self.rs == 0.0 && self.rd == 0.0 {
            return self.inner.ids(vgs, vds);
        }
        let r_tot = self.rs + self.rd;
        let unloaded = self.inner.ids(vgs, vds);
        if unloaded == 0.0 {
            return 0.0;
        }
        // The residual h(i) = f(internal biases) − i is strictly
        // decreasing in i and changes sign between 0 and the unloaded
        // current (the load only ever reduces |I|).
        let h = |i: f64| self.inner.ids(vgs - i * self.rs, vds - i * r_tot) - i;
        let (lo, hi) = if unloaded > 0.0 {
            (0.0, unloaded)
        } else {
            (unloaded, 0.0)
        };
        match brent(h, lo, hi, 1e-15 + 1e-9 * unloaded.abs()) {
            Ok(i) => i,
            // h(lo)·h(hi) > 0 can only happen from roundoff at the
            // endpoints; the unloaded current is then the fixed point.
            Err(_) => unloaded,
        }
    }
}

impl carbon_spice::FetCurve for SeriesResistance {
    fn ids(&self, vgs: f64, vds: f64) -> f64 {
        self.solve(vgs, vds)
    }
}

impl Fet for SeriesResistance {
    fn polarity(&self) -> Polarity {
        self.inner.polarity()
    }

    fn width(&self) -> Option<Length> {
        self.inner.width()
    }
}

/// Contact resistance of one metal-CNT contact versus contact length,
/// using the transfer-length closure
/// `R_c(L_c) = R_c∞ · coth(L_c / L_T)`:
/// long contacts approach `R_c∞`, short contacts diverge as
/// `R_c∞·L_T/L_c` — the §III.B "dependence on the metal length that
/// covers the CNT ... in the sub 100 nm regime".
///
/// # Panics
///
/// Panics if any length or resistance is non-positive.
pub fn cnt_contact_resistance(
    contact_length: Length,
    rc_long: Resistance,
    transfer_length: Length,
) -> Resistance {
    assert!(
        contact_length.meters() > 0.0,
        "contact length must be positive"
    );
    assert!(
        transfer_length.meters() > 0.0,
        "transfer length must be positive"
    );
    assert!(
        rc_long.ohms() > 0.0,
        "long-contact resistance must be positive"
    );
    let x = contact_length.meters() / transfer_length.meters();
    Resistance::from_ohms(rc_long.ohms() / x.tanh())
}

/// Total two-contact series resistance of a CNT-FET: the `h/4q²` quantum
/// resistance plus two length-dependent contacts. With the Franklin–Chen
/// calibration (`R_c∞ ≈ 2.3 kΩ`, `L_T ≈ 20 nm`) a device with 20 nm
/// contacts lands at the paper's "as low as 11 kΩ".
pub fn cnt_series_resistance(contact_length: Length) -> Resistance {
    let rc = cnt_contact_resistance(
        contact_length,
        Resistance::from_kilohms(2.3),
        Length::from_nanometers(20.0),
    );
    Resistance::from_ohms(R_QUANTUM_CNT + 2.0 * rc.ohms())
}

/// Effective resistance of one metal-CNT Schottky contact with barrier
/// height `phi_b` at temperature `t`, modelled as thermionic emission
/// over the barrier:
///
/// ```text
/// R_c(φ_b) = (R_q/2) · exp(φ_b / kT)
/// ```
///
/// §III.B: "in an ideal situation the channel contact would consist of
/// metal and form a low barrier Schottky-contact to the channel" — a
/// zero-barrier contact costs only the (unavoidable) quantum resistance
/// share; every 60 meV of barrier multiplies the access resistance by
/// ~10 at room temperature, which is why contact metallurgy dominates
/// the §III.B discussion.
pub fn schottky_contact_resistance(phi_b: Energy, t: Temperature) -> Resistance {
    let kt = t.thermal_energy().joules();
    let x = (phi_b.joules() / kt).clamp(-50.0, 50.0);
    Resistance::from_ohms(0.5 * R_QUANTUM_CNT * x.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlphaPowerFet, BallisticFet};
    use carbon_spice::FetCurve;
    use carbon_units::Voltage;

    fn ideal_cnt() -> Arc<dyn Fet> {
        Arc::new(BallisticFet::cnt_fig1().unwrap())
    }

    #[test]
    fn fig4_contacts_reduce_current() {
        let ideal = ideal_cnt();
        let loaded = SeriesResistance::symmetric(ideal.clone(), Resistance::from_kilohms(50.0));
        let i0 = ideal.ids(0.5, 0.5);
        let i1 = loaded.ids(0.5, 0.5);
        assert!(i1 < i0 * 0.75, "loaded {i1:.3e} vs ideal {i0:.3e}");
        assert!(i1 > 0.0);
    }

    #[test]
    fn fig4_contacts_linearize_the_output() {
        // The paper: "the shape of the I-V has changed to a more linear
        // characteristic with less saturation".
        let ideal = ideal_cnt();
        let loaded = SeriesResistance::symmetric(ideal.clone(), Resistance::from_kilohms(50.0));
        let vg = Voltage::from_volts(0.5);
        let sat_ideal = ideal
            .output(Voltage::ZERO, Voltage::from_volts(0.5), 51, vg)
            .saturation_figure();
        let sat_loaded = loaded
            .output(Voltage::ZERO, Voltage::from_volts(0.5), 51, vg)
            .saturation_figure();
        assert!(
            sat_loaded < sat_ideal * 0.7,
            "ideal {sat_ideal:.2} vs loaded {sat_loaded:.2}"
        );
    }

    #[test]
    fn zero_resistance_is_identity() {
        let ideal = ideal_cnt();
        let wrapped = SeriesResistance::symmetric(ideal.clone(), Resistance::from_ohms(0.0));
        assert_eq!(wrapped.ids(0.4, 0.3), ideal.ids(0.4, 0.3));
    }

    #[test]
    fn ohmic_limit_dominated_by_resistors() {
        // A huge series resistance turns the device into ≈ V/R.
        let ideal = ideal_cnt();
        let r = Resistance::from_kilohms(5000.0);
        let loaded = SeriesResistance::symmetric(ideal, r);
        let i = loaded.ids(0.5, 0.5);
        let ohmic = 0.5 / (2.0 * r.ohms());
        assert!(i < ohmic * 1.05, "i = {i:.3e} ≤ V/R = {ohmic:.3e}");
        assert!(i > ohmic * 0.3);
    }

    #[test]
    fn works_for_p_type() {
        let p = Arc::new(AlphaPowerFet::fig2_pfet());
        let loaded = SeriesResistance::symmetric(p.clone(), Resistance::from_kilohms(20.0));
        let i0 = p.ids(-1.0, -1.0);
        let i1 = loaded.ids(-1.0, -1.0);
        assert!(i0 < 0.0 && i1 < 0.0);
        assert!(i1.abs() < i0.abs());
        assert_eq!(loaded.polarity(), Polarity::PType);
    }

    #[test]
    fn asymmetric_contacts() {
        let ideal = ideal_cnt();
        let src_only = SeriesResistance::new(
            ideal.clone(),
            Resistance::from_kilohms(50.0),
            Resistance::from_ohms(1e-3),
        );
        let drn_only = SeriesResistance::new(
            ideal,
            Resistance::from_ohms(1e-3),
            Resistance::from_kilohms(50.0),
        );
        // Source degeneration also debiases the gate, so it hurts more.
        let i_src = src_only.ids(0.5, 0.5);
        let i_drn = drn_only.ids(0.5, 0.5);
        assert!(i_src < i_drn, "src {i_src:.3e} vs drn {i_drn:.3e}");
    }

    #[test]
    fn contact_resistance_length_scaling() {
        let long = cnt_contact_resistance(
            Length::from_nanometers(200.0),
            Resistance::from_kilohms(2.3),
            Length::from_nanometers(20.0),
        );
        let short = cnt_contact_resistance(
            Length::from_nanometers(10.0),
            Resistance::from_kilohms(2.3),
            Length::from_nanometers(20.0),
        );
        assert!(
            (long.kilohms() - 2.3).abs() < 0.01,
            "long contact saturates"
        );
        assert!(
            short.kilohms() > 4.0,
            "short contact degrades: {}",
            short.kilohms()
        );
    }

    #[test]
    fn eleven_kilohm_claim() {
        // §III.B: "the overall serial resistance of a single CNT-FET has
        // been shown to be as low as 11 kOhm" for a 20 nm contact device.
        let total = cnt_series_resistance(Length::from_nanometers(20.0));
        assert!(
            (total.kilohms() - 11.0).abs() < 1.5,
            "total = {} kΩ",
            total.kilohms()
        );
        // And the floor is the quantum resistance.
        let best = cnt_series_resistance(Length::from_micrometers(10.0));
        assert!(best.ohms() > R_QUANTUM_CNT);
        assert!((best.kilohms() - (R_QUANTUM_CNT * 1e-3 + 4.6)).abs() < 0.1);
    }

    #[test]
    fn schottky_barrier_costs_a_decade_per_60mev() {
        let t = Temperature::room();
        let r0 = schottky_contact_resistance(Energy::ZERO, t);
        assert!((r0.ohms() - R_QUANTUM_CNT / 2.0).abs() < 1.0, "ohmic limit");
        let r60 = schottky_contact_resistance(Energy::from_electron_volts(0.0596), t);
        assert!(
            (r60.ohms() / r0.ohms() - 10.0).abs() < 0.5,
            "decade per 60 meV"
        );
        let r300 = schottky_contact_resistance(Energy::from_electron_volts(0.3), t);
        assert!(r300.kilohms() > 1e5, "a 0.3 eV barrier is catastrophic");
    }

    #[test]
    fn schottky_contact_improves_when_hot() {
        let phi = Energy::from_electron_volts(0.2);
        let cold = schottky_contact_resistance(phi, Temperature::from_kelvin(250.0));
        let hot = schottky_contact_resistance(phi, Temperature::from_kelvin(400.0));
        assert!(hot < cold, "thermionic emission eases with temperature");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn contact_model_rejects_zero_length() {
        let _ = cnt_contact_resistance(
            Length::from_nanometers(0.0),
            Resistance::from_kilohms(2.3),
            Length::from_nanometers(20.0),
        );
    }
}
