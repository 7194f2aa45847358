//! Compact transistor models for carbon (and reference) devices.
//!
//! This crate is the modelling core of the reproduction. Every I-V curve
//! in the paper comes from one of these models:
//!
//! * [`BallisticFet`] — the self-consistent top-of-barrier ballistic
//!   transport model (Natori / Rahman–Lundstrom) evaluated over any
//!   [`Band1d`](carbon_band::Band1d) ladder. With a CNT band it is the
//!   Fig. 1/Fig. 4 CNT-FET; with a GNR band it is the Fig. 1 GNR-FET —
//!   the paper's point being that the *same physics* predicts both.
//! * [`LinearGnrFet`] — the experimentally observed non-saturating GNR:
//!   a gate-steered linear resistor with an on/off ratio but no output
//!   saturation (Fig. 1(b) "real GNR", and the failing inverter of
//!   Fig. 2(b)/(d)).
//! * [`AlphaPowerFet`] — the Sakurai–Newton alpha-power MOSFET, the
//!   "well-behaved FET with current saturation" of Fig. 2(a)/(c), also
//!   used for the Intel-trigate reference point of §III.E.
//! * [`CntTfet`] — the gated PIN-diode tunnel FET of Fig. 6 with its
//!   sub-thermal swing.
//! * [`SeriesResistance`] — wraps any model with source/drain access
//!   resistance, reproducing Fig. 4's degradation, plus the
//!   transfer-length contact-resistance scaling of §III.B.
//! * [`metrics`] — SS/DIBL/Ion extraction used by every experiment.
//!
//! All models implement [`Fet`] (typed, quantity-based API) and
//! [`carbon_spice::FetCurve`] (raw volts/amps API), so a model swept in a
//! device experiment can be dropped into a circuit unchanged: an
//! `Arc<dyn Fet>` is an `Arc<dyn FetCurve>` by upcast.

#![deny(missing_docs)]

pub mod alpha_power;
pub mod ballistic;
mod batch;
pub mod linear_gnr;
pub mod metrics;
pub mod series;
pub mod table_model;
pub mod tfet;

pub use alpha_power::AlphaPowerFet;
pub use ballistic::BallisticFet;
pub use batch::par_ids;
pub use linear_gnr::LinearGnrFet;
pub use metrics::IvCurve;
pub use series::SeriesResistance;
pub use table_model::TableFet;
pub use tfet::CntTfet;

use carbon_spice::FetCurve;
use carbon_units::{Current, Length, Voltage};

/// Channel polarity of a FET model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Electron-conducting channel; positive `V_GS` turns it on.
    NType,
    /// Hole-conducting channel; negative `V_GS` turns it on.
    PType,
}

/// A transistor compact model.
///
/// `Fet` extends [`FetCurve`] (the `ids` and `eval` a circuit
/// simulation reads) with a typed, quantity-based API for device-level
/// experiments. Every model answers through its scalar `ids` and the
/// trait's default `eval` stencil, whether it is swept here or solved
/// in a circuit.
///
/// A model enters a circuit by upcast: an `Arc<dyn Fet>` passed to
/// [`Circuit::fet`](carbon_spice::Circuit::fet) coerces to the
/// `Arc<dyn FetCurve>` it takes.
pub trait Fet: FetCurve + Send + Sync {
    /// Channel polarity.
    fn polarity(&self) -> Polarity;

    /// Effective electrical width used to express currents per micron,
    /// if the model has one (1-D channels report their footprint width).
    fn width(&self) -> Option<Length> {
        None
    }

    /// Drain current at the given bias.
    fn drain_current(&self, vgs: Voltage, vds: Voltage) -> Current {
        Current::from_amperes(self.ids(vgs.volts(), vds.volts()))
    }

    /// Transfer characteristic `I_D(V_GS)` at fixed `V_DS` over a
    /// uniform grid of `n ≥ 2` points.
    ///
    /// Bias points are independent, so the grid goes through
    /// [`par_ids`] in fixed chunks on the runtime executor: identical
    /// results at any thread count, and bit-identical to per-point
    /// scalar `ids` calls; runs inline when called from inside another
    /// parallel region.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    fn transfer(&self, vgs_from: Voltage, vgs_to: Voltage, n: usize, vds: Voltage) -> IvCurve {
        let grid = carbon_band::math::linspace(vgs_from.volts(), vgs_to.volts(), n);
        let vds_lane = vec![vds.volts(); grid.len()];
        let current = par_ids(self, &grid, &vds_lane);
        IvCurve::new(grid, current)
    }

    /// Output characteristic `I_D(V_DS)` at fixed `V_GS` over a uniform
    /// grid of `n ≥ 2` points.
    ///
    /// Evaluated through [`par_ids`], like
    /// [`transfer`](Self::transfer).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    fn output(&self, vds_from: Voltage, vds_to: Voltage, n: usize, vgs: Voltage) -> IvCurve {
        let grid = carbon_band::math::linspace(vds_from.volts(), vds_to.volts(), n);
        let vgs_lane = vec![vgs.volts(); grid.len()];
        let current = par_ids(self, &vgs_lane, &grid);
        IvCurve::new(grid, current)
    }
}
