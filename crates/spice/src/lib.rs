//! A from-scratch nonlinear circuit simulator.
//!
//! The paper's Fig. 2 is "a spice simulation" of inverter voltage-transfer
//! curves. This crate is the substrate that makes that reproducible
//! without a commercial simulator: a modified-nodal-analysis (MNA)
//! engine with
//!
//! * dense LU factorization with partial pivoting ([`linalg`]) plus a
//!   sparse LU path that takes over for larger systems ([`sparse`]):
//!   its symbolic analysis and first factorization run once per
//!   analysis and every later solve replays the pivot order, both
//!   generic over real and [`Complex`] scalars,
//! * Newton–Raphson iteration with voltage-step damping, gmin stepping
//!   and source stepping for hard operating points, warm-started across
//!   sweep points with step-halving source continuation ([`analysis`]),
//! * DC operating point, DC sweeps, transient analysis (fixed or
//!   LTE-adaptive stepping), and AC small-signal sweeps through one
//!   entry point, [`Circuit::ac_sweep`]; each analysis builds its own
//!   solver workspace, so its result depends only on the circuit and
//!   its arguments,
//! * element stamps for resistors, capacitors, independent sources
//!   (DC/pulse/PWL/sine), diodes, controlled sources, and an arbitrary
//!   three-terminal FET driven by any [`FetCurve`] compact model
//!   ([`element`]).
//!
//! The compact models in `carbon-devices` implement [`FetCurve`], so the
//! same model evaluated in Fig. 1's device sweeps is what the inverter of
//! Fig. 2 is built from.
//!
//! # Examples
//!
//! A resistive divider:
//!
//! ```
//! use carbon_spice::Circuit;
//!
//! # fn main() -> Result<(), carbon_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! ckt.voltage_source("vin", "in", "0", 1.0);
//! ckt.resistor("r1", "in", "mid", 1e3)?;
//! ckt.resistor("r2", "mid", "0", 3e3)?;
//! let op = ckt.op()?;
//! assert!((op.voltage("mid")? - 0.75).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod complex;
pub mod element;
pub mod error;
pub mod linalg;
pub mod netlist;
pub mod parser;
pub mod runner;
pub mod sparse;
pub mod waveform;

pub use analysis::ac::AcResult;
pub use analysis::{DcOptions, OpResult, SweepResult, TranMethod, TranOptions, TranResult};
pub use complex::Complex;
pub use element::FetCurve;
pub use error::SpiceError;
pub use netlist::{Circuit, NodeId};
pub use waveform::Waveform;
