//! Circuit elements and the compact-model interface.
//!
//! Elements are data; the stamping logic lives in
//! [`analysis`](crate::analysis) where integration state is managed. The
//! one abstraction exported to other crates is [`FetCurve`]: any
//! three-terminal transistor model that can report a drain current for a
//! `(V_GS, V_DS)` pair can be placed in a circuit, which is how the
//! compact models of `carbon-devices` drive the paper's Fig. 2 inverter
//! simulation.

use std::sync::Arc;

use crate::netlist::NodeId;
use crate::waveform::Waveform;

/// A three-terminal FET compact model as seen by the simulator.
///
/// A circuit needs only the drain current and its two derivatives from
/// a model, so the trait is exactly [`ids`](Self::ids) and
/// [`eval`](Self::eval). A model from another crate enters a circuit by
/// upcast: an `Arc<dyn Sub>` whose trait has `FetCurve` as a supertrait
/// coerces to the `Arc<dyn FetCurve>` that [`Circuit::fet`] takes, and
/// dispatches the model's own overrides.
///
/// Conventions:
///
/// * `ids(vgs, vds)` is the current flowing **into the drain and out of
///   the source**, in amperes, for terminal voltages in volts measured
///   source-referred.
/// * n-type models return positive current for positive `vgs`/`vds`;
///   p-type models implement their polarity internally (negative `vgs`,
///   `vds`, and current in normal operation).
/// * The model must be defined for all finite inputs (the Newton solver
///   will probe outside the normal operating region while converging).
///
/// [`Circuit::fet`]: crate::Circuit::fet
pub trait FetCurve: Send + Sync {
    /// Drain current, A.
    fn ids(&self, vgs: f64, vds: f64) -> f64;

    /// Current and both derivatives in one call: `(ids, gm, gds)`, with
    /// transconductance `gm = ∂I_DS/∂V_GS` and output conductance
    /// `gds = ∂I_DS/∂V_DS`.
    ///
    /// Every small-signal reader goes through this: the Newton stamp,
    /// the AC linearization, and RF figures of merit. The default takes
    /// central finite differences of [`ids`](Self::ids) with a 1 mV
    /// step, which is adequate for the smooth compact models in this
    /// workspace. A model may override it to share the evaluation work
    /// between the value and its stencil, but must stay bit-identical to
    /// this default.
    fn eval(&self, vgs: f64, vds: f64) -> (f64, f64, f64) {
        const H: f64 = 1e-3;
        let id = self.ids(vgs, vds);
        let gm = (self.ids(vgs + H, vds) - self.ids(vgs - H, vds)) / (2.0 * H);
        let gds = (self.ids(vgs, vds + H) - self.ids(vgs, vds - H)) / (2.0 * H);
        (id, gm, gds)
    }
}

/// A named element instance.
#[derive(Debug, Clone)]
pub(crate) struct Element {
    pub name: String,
    pub kind: ElementKind,
}

/// The element zoo.
#[derive(Clone)]
pub(crate) enum ElementKind {
    /// Linear resistor between `p` and `n` with conductance `g`.
    Resistor { p: NodeId, n: NodeId, g: f64 },
    /// Linear capacitor; open in DC, companion-stamped in transient.
    Capacitor { p: NodeId, n: NodeId, c: f64 },
    /// Independent voltage source with an MNA branch-current unknown.
    VoltageSource {
        p: NodeId,
        n: NodeId,
        branch: usize,
        wave: Waveform,
    },
    /// Linear inductor with an MNA branch-current unknown; a short in
    /// DC, companion-stamped in transient, `jωL` in AC.
    Inductor {
        p: NodeId,
        n: NodeId,
        branch: usize,
        l: f64,
    },
    /// Independent current source injecting from `n` into `p`.
    CurrentSource {
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    },
    /// Shockley diode `p → n` with saturation current `i_s` and ideality
    /// factor `n_ideality` at 300 K.
    Diode {
        p: NodeId,
        n: NodeId,
        i_s: f64,
        n_ideality: f64,
    },
    /// Voltage-controlled current source: injects
    /// `gm·(v(cp) − v(cn))` from `n` into `p`.
    Vccs {
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    },
    /// Behavioral three-terminal FET driven by a [`FetCurve`].
    Fet {
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: Arc<dyn FetCurve>,
    },
}

impl std::fmt::Debug for ElementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Resistor { p, n, g } => {
                write!(f, "Resistor(p: {p:?}, n: {n:?}, g: {g:.3e} S)")
            }
            Self::Capacitor { p, n, c } => {
                write!(f, "Capacitor(p: {p:?}, n: {n:?}, c: {c:.3e} F)")
            }
            Self::VoltageSource { p, n, branch, wave } => {
                write!(
                    f,
                    "VoltageSource(p: {p:?}, n: {n:?}, branch: {branch}, wave: {wave:?})"
                )
            }
            Self::Inductor { p, n, branch, l } => {
                write!(
                    f,
                    "Inductor(p: {p:?}, n: {n:?}, branch: {branch}, l: {l:.3e} H)"
                )
            }
            Self::CurrentSource { p, n, wave } => {
                write!(f, "CurrentSource(p: {p:?}, n: {n:?}, wave: {wave:?})")
            }
            Self::Diode {
                p,
                n,
                i_s,
                n_ideality,
            } => write!(
                f,
                "Diode(p: {p:?}, n: {n:?}, is: {i_s:.3e} A, n: {n_ideality})"
            ),
            Self::Vccs { p, n, cp, cn, gm } => write!(
                f,
                "Vccs(p: {p:?}, n: {n:?}, ctrl: ({cp:?}, {cn:?}), gm: {gm:.3e} S)"
            ),
            Self::Fet { d, g, s, .. } => {
                write!(
                    f,
                    "Fet(d: {d:?}, g: {g:?}, s: {s:?}, model: <dyn FetCurve>)"
                )
            }
        }
    }
}

/// Shockley diode current and conductance with junction voltage limiting:
/// the exponential is evaluated at a critical-voltage-limited argument so
/// Newton steps cannot overflow.
pub(crate) fn diode_iv(v: f64, i_s: f64, n_ideality: f64) -> (f64, f64) {
    let vt = n_ideality * 0.02585;
    // Limit the exponent to keep e^x finite; beyond x_max the model
    // continues linearly (standard SPICE junction treatment).
    let x = v / vt;
    let x_max = 80.0;
    if x > x_max {
        let i_knee = i_s * (x_max.exp() - 1.0);
        let g_knee = i_s * x_max.exp() / vt;
        (i_knee + g_knee * (v - x_max * vt), g_knee)
    } else {
        let e = x.exp();
        (i_s * (e - 1.0), (i_s * e / vt).max(1e-15))
    }
}

/// SPICE-style junction voltage limiting (`pnjlim`): bounds how far a
/// junction's loaded voltage may move in one Newton iteration once it is
/// past its critical voltage, turning the junction on in logarithmic
/// steps instead of letting the exponential stall the whole iteration.
///
/// `vnew` is this iteration's candidate junction voltage, `vold` the
/// voltage actually loaded last iteration. Near a fixed point
/// (`|vnew − vold| ≤ 2·vt`) the candidate passes through unchanged, so
/// limiting never distorts a converged solution.
pub(crate) fn pnjlim(vnew: f64, vold: f64, vt: f64, vcrit: f64) -> f64 {
    if vnew > vcrit && (vnew - vold).abs() > 2.0 * vt {
        if vold > 0.0 {
            let arg = 1.0 + (vnew - vold) / vt;
            if arg > 0.0 {
                vold + vt * arg.ln()
            } else {
                vcrit
            }
        } else {
            vt * (vnew / vt).ln()
        }
    } else {
        vnew
    }
}

/// Critical voltage for [`pnjlim`]: the junction voltage at which the
/// exponential's curvature overtakes the linearization.
pub(crate) fn diode_vcrit(i_s: f64, n_ideality: f64) -> f64 {
    let vt = n_ideality * 0.02585;
    vt * (vt / (std::f64::consts::SQRT_2 * i_s)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct QuadraticFet;

    impl FetCurve for QuadraticFet {
        fn ids(&self, vgs: f64, vds: f64) -> f64 {
            // Simple saturating toy: k·(vgs)²·tanh(vds).
            1e-4 * vgs * vgs * vds.tanh()
        }
    }

    #[test]
    fn default_derivatives_match_analytic() {
        let m = QuadraticFet;
        let (vgs, vds) = (0.7, 0.4);
        let (id, gm, gds) = m.eval(vgs, vds);
        assert_eq!(id, m.ids(vgs, vds));
        let gm_exact = 2e-4 * vgs * vds.tanh();
        let gds_exact = 1e-4 * vgs * vgs / vds.cosh().powi(2);
        assert!((gm - gm_exact).abs() / gm_exact < 1e-5);
        assert!((gds - gds_exact).abs() / gds_exact < 1e-5);
    }

    /// A model trait with `FetCurve` as its supertrait, in the shape of
    /// `carbon_devices::Fet`.
    trait Model: FetCurve {}

    /// Overrides `eval` with derivatives the default never returns.
    struct Marked;

    impl FetCurve for Marked {
        fn ids(&self, vgs: f64, vds: f64) -> f64 {
            QuadraticFet.ids(vgs, vds)
        }
        fn eval(&self, vgs: f64, vds: f64) -> (f64, f64, f64) {
            (self.ids(vgs, vds), -1.0, -2.0)
        }
    }

    impl Model for Marked {}

    #[test]
    fn arc_forwarding() {
        // An `Arc<dyn Model>` upcasts to the `Arc<dyn FetCurve>` a
        // circuit holds and still dispatches the model's own override.
        let model: Arc<dyn Model> = Arc::new(Marked);
        let m: Arc<dyn FetCurve> = model;
        assert_eq!(m.ids(1.0, 10.0), QuadraticFet.ids(1.0, 10.0));
        assert_eq!(m.eval(0.5, 0.5), (QuadraticFet.ids(0.5, 0.5), -1.0, -2.0));
        let d: Arc<dyn FetCurve> = Arc::new(QuadraticFet);
        assert_eq!(d.eval(0.5, 0.5), QuadraticFet.eval(0.5, 0.5));
    }

    #[test]
    fn diode_forward_reverse() {
        let (i_fwd, g_fwd) = diode_iv(0.6, 1e-15, 1.0);
        assert!(i_fwd > 1e-6, "forward diode conducts");
        assert!(g_fwd > 0.0);
        let (i_rev, g_rev) = diode_iv(-5.0, 1e-15, 1.0);
        assert!((i_rev + 1e-15).abs() < 1e-16, "reverse saturation");
        assert!(g_rev > 0.0, "conductance stays positive for Newton");
    }

    #[test]
    fn diode_limits_overflow() {
        let (i, g) = diode_iv(100.0, 1e-15, 1.0);
        assert!(i.is_finite() && g.is_finite());
        let (i2, _) = diode_iv(200.0, 1e-15, 1.0);
        assert!(i2 > i, "still monotone past the knee");
    }

    #[test]
    fn diode_continuous_at_knee() {
        let vt = 0.02585;
        let v_knee = 80.0 * vt;
        let (below, _) = diode_iv(v_knee - 1e-9, 1e-15, 1.0);
        let (above, _) = diode_iv(v_knee + 1e-9, 1e-15, 1.0);
        assert!((above - below).abs() / above < 1e-6);
    }
}
