//! Wafer-economics campaigns: what does a wafer of CNT computers cost?
//!
//! The paper's Section V argument is statistical: carbon CMOS lives or
//! dies on chirality purity, metallic-short yield, and the device
//! counts VLSI demands. `carbon-fab` models those statistics per
//! device; this crate scales them to *design spaces*. A
//! [`CampaignGrid`] sweeps technology node × chip area × defect
//! density × chirality purity in a fixed deterministic order, each
//! cell combining
//!
//! * a Monte-Carlo purity axis — metallic-short probability sampled
//!   with [`carbon_fab::VariabilityModel::sample_short`] on a per-cell
//!   RNG stream,
//! * an analytic defect axis — Poisson `e^(-A·D0)` or clustered
//!   negative-binomial `(1 + A·D0/α)^-α` die yield ([`YieldModel`]),
//! * a per-node cost layer — transistor density, wafer cost, and
//!   carbon-per-area ([`NodeSpec`] / [`CostModel`]),
//!
//! into good-dies-per-wafer, cost-per-good-die, and
//! carbon-per-good-die ([`EconPoint`]). Evaluation runs cell-parallel
//! over the deterministic chunked [`carbon_runtime::Executor`]
//! (`par_mc_fine`: one RNG stream per cell), so a campaign is
//! byte-identical at any `CARBON_THREADS`. An adaptive mode grows each
//! cell's device sample in fixed batches until the 95 % yield CI
//! reaches a target half-width — the same CI machinery as the fab
//! fig7 campaign — while remaining a deterministic prefix of the
//! fixed-size run.
//!
//! The **failure model** follows the paper's imperfection-immune
//! framing: empty assembly sites are routed around (opens are
//! tolerated), so a device *fails* only when a metallic tube shorts
//! it. A die is a field of redundant circuit copies
//! (`⌊density·area / circuit_devices⌋`); the die works when defects
//! spare it *and* at least one copy has all its devices short-free.

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::module_name_repetitions
)]

pub mod campaign;
pub mod defect;
pub mod node;

pub use campaign::{
    evaluate, CampaignGrid, CampaignResult, CampaignSummary, CellCoords, EconConfig, EconPoint,
    McMode,
};
pub use defect::YieldModel;
pub use node::{CostModel, NodeSpec};

/// Error from building or evaluating an economics campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EconError {
    /// A parameter failed validation; `reason` names the offending
    /// field in the serve style (`econ.areas_cm2[2] = 0 must be finite
    /// and positive`), suitable for returning to a client verbatim.
    Invalid {
        /// Human-readable description naming the field and value.
        reason: String,
    },
    /// Evaluation was cancelled through the ambient
    /// [`carbon_runtime::cancel`] token before every cell finished.
    Cancelled,
}

impl EconError {
    /// Shorthand for the `Invalid` variant.
    #[must_use]
    pub fn invalid(reason: impl Into<String>) -> Self {
        Self::Invalid {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for EconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid { reason } => f.write_str(reason),
            Self::Cancelled => f.write_str("econ campaign cancelled"),
        }
    }
}

impl std::error::Error for EconError {}
