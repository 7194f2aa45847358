//! Wafer-scale CNT integration statistics — the paper's Section V.
//!
//! "Without such a high yield wafer-scale integration, SWCNT circuits
//! will be an illusional dream." This crate makes that sentence
//! quantitative with stochastic process models for every step the paper
//! discusses:
//!
//! * [`synthesis`] — chirality ensembles a growth recipe produces
//!   (diameter distribution × the `(n − m) mod 3` lottery: ~1/3 of
//!   as-grown tubes are metallic shorts),
//! * [`sorting`] — solution-phase purification (gel chromatography,
//!   density-gradient, DNA) as iterated Bayesian enrichment with yield
//!   loss per pass,
//! * [`placement`] — aligned growth on quartz and Park-style
//!   self-assembly into predefined trenches (site occupancy statistics),
//! * [`variability`] — the >10,000-device Monte-Carlo in the spirit of
//!   Park et al. \[22\]: V_T and on-current dispersion, per-device on/off
//!   ratios, device-outcome classification,
//! * [`vmr`] — electrical removal of metallic tubes (the Shulaker
//!   "imperfection-immune" step),
//! * [`chirality_sorting`] — single-chirality separation stages,
//! * [`yield_model`] — from device statistics to gate and circuit yield,
//!   including what it takes to build the §V one-bit computer.
//!
//! All sampling is deterministic given a seed (`carbon_runtime::Xoshiro256pp`), so
//! the experiment tables in `carbon-core` are reproducible.

#![deny(missing_docs)]

pub mod chirality_sorting;
pub mod placement;
pub mod sorting;
pub mod stats;
pub mod synthesis;
pub mod variability;
pub mod vmr;
pub mod wafer;
pub mod yield_model;

pub use chirality_sorting::ChiralitySeparation;
pub use placement::{AlignedGrowth, SelfAssembly};
pub use sorting::SortingProcess;
pub use synthesis::SynthesisRecipe;
pub use variability::{
    Campaign, CampaignCancelled, DeviceOutcome, DevicePopulation, MeasuredSite, VariabilityModel,
};
pub use vmr::{VmrOutcome, VmrProcess};
pub use wafer::{WaferModel, WaferSample};
pub use yield_model::CircuitYield;
