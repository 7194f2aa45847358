//! Hermetic runtime substrate for the carbon-electronics workspace.
//!
//! Every crate in the workspace that previously reached for external
//! registry dependencies — `rand`/`rand_distr` for Monte-Carlo
//! sampling, `proptest` for property tests, `criterion` for benches —
//! now builds on this zero-dependency crate instead, which makes
//! `cargo build --offline` work from a bare checkout. Four modules:
//!
//! * [`rng`] — xoshiro256++ with `SplitMix64` seeding and splittable
//!   per-task streams;
//! * [`dist`] — the five distributions the fab/core experiments use
//!   (uniform, Bernoulli, normal, log-normal, Poisson), stateless and
//!   validated at construction;
//! * [`executor`] — deterministic parallel execution of Monte-Carlo
//!   campaigns and bias sweeps: bit-identical results at any thread
//!   count;
//! * [`prop`] — a `proptest`-shaped property-test macro and harness;
//! * [`bench`] — a median-of-N timing harness with JSON output for
//!   `harness = false` bench targets.
//!
//! # Determinism contract
//!
//! Everything here is reproducible from explicit `u64` seeds: the same
//! seed gives the same draws, the same campaign gives the same results
//! at 1 or N threads, and the same property test draws the same cases
//! on every run and platform. No entropy source is ever consulted.

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::missing_panics_doc
)]

pub mod bench;
pub mod cancel;
pub mod dist;
pub mod executor;
pub mod prop;
pub mod rng;

pub use cancel::CancelToken;
pub use dist::{Bernoulli, DistError, Distribution, LogNormal, Normal, Poisson, Uniform};
pub use executor::{Executor, MC_CHUNK};
pub use rng::{Rng, RngCore, SplitMix64, Xoshiro256pp};
