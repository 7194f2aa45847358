//! Device-population Monte-Carlo: the Park et al. experiment in silico.
//!
//! §V highlights that self-assembly placement made possible "for the
//! first time a statistical analysis of more than 10,000 CNTFETs that
//! have been measured". [`VariabilityModel`] reproduces that pipeline:
//! every site of an array receives tubes from a placement model, each
//! tube draws a chirality from the (sorted) ensemble, and the resulting
//! device is classified:
//!
//! * **empty** — no tube landed: an open;
//! * **metallic short** — at least one metallic tube bridges the
//!   contacts: the gate cannot turn the device off;
//! * **functional** — only semiconducting tubes: threshold voltage and
//!   on-current are drawn with process dispersion.

use carbon_runtime::{Distribution, Executor, LogNormal, Normal, Rng, MC_CHUNK};

use crate::placement::SelfAssembly;
use crate::stats;

/// Electrical outcome of one fabricated device site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceOutcome {
    /// No tube in the channel.
    Empty,
    /// At least one metallic tube shorts the channel.
    MetallicShort,
    /// A working FET with its sampled parameters.
    Functional {
        /// Threshold voltage, V.
        vt: f64,
        /// On-current at the benchmark bias, A.
        ion: f64,
        /// On/off current ratio.
        on_off: f64,
    },
}

/// The variability model: placement × purity × parameter dispersion.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityModel {
    assembly: SelfAssembly,
    /// Semiconducting purity of the sorted ink.
    purity: f64,
    /// Mean and sigma of the threshold voltage, V.
    vt_mean: f64,
    vt_sigma: f64,
    /// Median on-current per tube, A, with log-normal dispersion.
    ion_median: f64,
    ion_sigma_ln: f64,
}

/// Error building a [`VariabilityModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct BuildVariabilityError(String);

impl std::fmt::Display for BuildVariabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid variability model: {}", self.0)
    }
}

impl std::error::Error for BuildVariabilityError {}

impl VariabilityModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildVariabilityError`] for purity outside `[0, 1]` or
    /// non-positive dispersion scales.
    pub fn new(
        assembly: SelfAssembly,
        purity: f64,
        vt_mean: f64,
        vt_sigma: f64,
        ion_median: f64,
        ion_sigma_ln: f64,
    ) -> Result<Self, BuildVariabilityError> {
        if !(0.0..=1.0).contains(&purity) {
            return Err(BuildVariabilityError(format!(
                "purity must be in [0, 1], got {purity}"
            )));
        }
        if vt_sigma < 0.0 || ion_sigma_ln < 0.0 {
            return Err(BuildVariabilityError("dispersions must be ≥ 0".into()));
        }
        if ion_median <= 0.0 {
            return Err(BuildVariabilityError(format!(
                "median on-current must be positive, got {ion_median}"
            )));
        }
        Ok(Self {
            assembly,
            purity,
            vt_mean,
            vt_sigma,
            ion_median,
            ion_sigma_ln,
        })
    }

    /// The Park et al. style array: high site occupancy, 99.9 %-pure
    /// ink, ±70 mV threshold dispersion, ~10 µA median on-current with
    /// 40 % log-normal spread.
    pub fn park_experiment() -> Self {
        Self::new(
            SelfAssembly::park_high_density(),
            0.999,
            0.35,
            0.07,
            10e-6,
            0.4,
        )
        .expect("preset is valid")
    }

    /// Samples one device site.
    pub fn sample_device<R: Rng + ?Sized>(&self, rng: &mut R) -> DeviceOutcome {
        let tubes = self.assembly.sample_site(rng);
        if tubes == 0 {
            return DeviceOutcome::Empty;
        }
        let metallic = (0..tubes).any(|_| rng.next_f64() > self.purity);
        if metallic {
            return DeviceOutcome::MetallicShort;
        }
        let vt = Normal::new(self.vt_mean, self.vt_sigma.max(1e-12))
            .expect("validated")
            .sample(rng);
        let per_tube =
            LogNormal::new(self.ion_median.ln(), self.ion_sigma_ln.max(1e-12)).expect("validated");
        let ion: f64 = (0..tubes).map(|_| per_tube.sample(rng)).sum();
        // On/off set by how far Vt sits above the off bias, ~1 decade
        // per 90 mV of margin plus device-to-device scatter.
        let decades = (vt / 0.090) + Normal::new(0.0, 0.5).expect("const").sample(rng);
        let on_off = 10f64.powf(decades.clamp(0.5, 8.0));
        DeviceOutcome::Functional { vt, ion, on_off }
    }

    /// Samples a whole array.
    pub fn sample_population<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> DevicePopulation {
        DevicePopulation {
            outcomes: (0..n).map(|_| self.sample_device(rng)).collect(),
        }
    }

    /// Samples a whole array in parallel from a seed, on `ex`
    /// ([`Executor::new`] sizes it from `CARBON_THREADS`).
    ///
    /// Runs on the executor's deterministic chunked schedule: the
    /// result is bit-identical to itself at every thread count (though
    /// not to the sequential [`sample_population`] draw order, since
    /// each chunk owns an independent RNG stream).
    ///
    /// [`sample_population`]: Self::sample_population
    pub fn sample_population_with(&self, ex: &Executor, seed: u64, n: usize) -> DevicePopulation {
        DevicePopulation {
            outcomes: ex.par_mc(seed, n, |_, rng| self.sample_device(rng)),
        }
    }

    /// Grows a campaign adaptively until the 95 % confidence interval
    /// on the functional yield is tighter than `target_ci` (half-width)
    /// or `max_devices` sites have been measured.
    ///
    /// Each round appends exactly one [`MC_CHUNK`] of devices through
    /// [`Executor::par_mc_extend`], so round `r` of the campaign is
    /// bit-identical to items `r·MC_CHUNK..` of a fixed-size
    /// [`sample_population_with`](Self::sample_population_with) run
    /// with the same seed — at any thread count. The growth schedule
    /// depends only on the sampled outcomes (never on the schedule), so
    /// the final population is byte-identical across `CARBON_THREADS`
    /// settings and stops within one chunk of the smallest n meeting
    /// the target. A final partial chunk occurs only when `max_devices`
    /// is not chunk-aligned.
    ///
    /// # Panics
    ///
    /// Panics unless `target_ci` is positive and finite and
    /// `max_devices > 0`.
    pub fn sample_population_adaptive(
        &self,
        ex: &Executor,
        seed: u64,
        target_ci: f64,
        max_devices: usize,
    ) -> AdaptiveCampaign {
        assert!(
            target_ci > 0.0 && target_ci.is_finite(),
            "target_ci must be positive and finite, got {target_ci}"
        );
        assert!(max_devices > 0, "max_devices must be positive");
        let _span = carbon_trace::span!(
            "fab.adaptive_campaign",
            "seed" = seed,
            "max_devices" = max_devices as u64
        );
        let mut outcomes: Vec<DeviceOutcome> = Vec::new();
        let mut functional = 0usize;
        let mut rounds = 0usize;
        let mut half = f64::INFINITY;
        while outcomes.len() < max_devices {
            let start = outcomes.len();
            let end = (start + MC_CHUNK).min(max_devices);
            let chunk = ex.par_mc_extend(seed, start, end, |_, rng| self.sample_device(rng));
            functional += chunk
                .iter()
                .filter(|o| matches!(o, DeviceOutcome::Functional { .. }))
                .count();
            outcomes.extend(chunk);
            rounds += 1;
            half = yield_ci_half_width(functional, outcomes.len());
            carbon_trace::instant!(
                "fab.campaign.round",
                "round" = rounds as u64,
                "devices" = outcomes.len() as u64,
                "ci_half_width" = half
            );
            if half <= target_ci {
                break;
            }
        }
        let converged = half <= target_ci;
        AdaptiveCampaign {
            population: DevicePopulation { outcomes },
            rounds,
            ci_half_width: half,
            converged,
        }
    }
}

/// 95 % two-sided normal quantile used for the campaign yield CI.
pub const Z95: f64 = 1.959_963_984_540_054;

/// Normal-approximation half-width of the 95 % confidence interval on a
/// yield estimate of `functional` successes out of `n` devices.
/// Infinite for `n == 0`; zero when the observed yield is exactly 0 or
/// 1 (degenerate binomial — callers wanting protection against an
/// all-functional first chunk should set a larger `max_devices` floor).
pub fn yield_ci_half_width(functional: usize, n: usize) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let p = functional as f64 / n as f64;
    Z95 * (p * (1.0 - p) / n as f64).sqrt()
}

/// Result of an adaptive yield campaign
/// ([`VariabilityModel::sample_population_adaptive`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCampaign {
    /// All devices measured, in campaign order.
    pub population: DevicePopulation,
    /// Number of [`MC_CHUNK`] rounds run.
    pub rounds: usize,
    /// Final 95 % CI half-width on the functional yield.
    pub ci_half_width: f64,
    /// `true` if the target was met before `max_devices`.
    pub converged: bool,
}

/// A measured array of devices with summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePopulation {
    outcomes: Vec<DeviceOutcome>,
}

impl DevicePopulation {
    /// All device outcomes.
    pub fn outcomes(&self) -> &[DeviceOutcome] {
        &self.outcomes
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Fraction of functional devices.
    pub fn functional_yield(&self) -> f64 {
        self.count_functional() as f64 / self.outcomes.len().max(1) as f64
    }

    /// Count of functional devices.
    pub fn count_functional(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DeviceOutcome::Functional { .. }))
            .count()
    }

    /// Fraction of metallic shorts.
    pub fn short_fraction(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DeviceOutcome::MetallicShort))
            .count() as f64
            / self.outcomes.len().max(1) as f64
    }

    /// Fraction of empty sites.
    pub fn empty_fraction(&self) -> f64 {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, DeviceOutcome::Empty))
            .count() as f64
            / self.outcomes.len().max(1) as f64
    }

    /// Threshold voltages of the functional devices.
    pub fn thresholds(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                DeviceOutcome::Functional { vt, .. } => Some(*vt),
                _ => None,
            })
            .collect()
    }

    /// On-currents of the functional devices, A.
    pub fn on_currents(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                DeviceOutcome::Functional { ion, .. } => Some(*ion),
                _ => None,
            })
            .collect()
    }

    /// log₁₀ of the on/off ratios of the functional devices.
    pub fn log_on_off(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                DeviceOutcome::Functional { on_off, .. } => Some(on_off.log10()),
                _ => None,
            })
            .collect()
    }

    /// Mean and standard deviation of the threshold voltage, V.
    pub fn vt_statistics(&self) -> (f64, f64) {
        let v = self.thresholds();
        (stats::mean(&v), stats::std_dev(&v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::{Executor, Xoshiro256pp};

    fn population(n: usize, seed: u64) -> DevicePopulation {
        VariabilityModel::park_experiment()
            .sample_population(&mut Xoshiro256pp::seed_from_u64(seed), n)
    }

    #[test]
    fn ten_thousand_device_experiment() {
        // The §V headline: measure >10,000 devices and do statistics.
        let pop = population(10_000, 1);
        assert_eq!(pop.len(), 10_000);
        assert!(
            pop.functional_yield() > 0.5,
            "yield {}",
            pop.functional_yield()
        );
        let (vt_mean, vt_std) = pop.vt_statistics();
        assert!((vt_mean - 0.35).abs() < 0.01, "Vt mean {vt_mean}");
        assert!((vt_std - 0.07).abs() < 0.01, "Vt sigma {vt_std}");
    }

    #[test]
    fn outcome_fractions_sum_to_one() {
        let pop = population(5000, 2);
        let sum = pop.functional_yield() + pop.short_fraction() + pop.empty_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(
            (pop.empty_fraction() - 0.10).abs() < 0.02,
            "Poisson empties"
        );
    }

    #[test]
    fn purity_controls_shorts() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let dirty = VariabilityModel::new(
            SelfAssembly::park_high_density(),
            0.67,
            0.35,
            0.07,
            10e-6,
            0.4,
        )
        .unwrap()
        .sample_population(&mut rng, 5000);
        let clean = population(5000, 3);
        assert!(
            dirty.short_fraction() > 10.0 * clean.short_fraction(),
            "dirty {} vs clean {}",
            dirty.short_fraction(),
            clean.short_fraction()
        );
    }

    #[test]
    fn on_current_distribution_is_positive_and_skewed() {
        let pop = population(8000, 4);
        let ion = pop.on_currents();
        assert!(ion.iter().all(|&i| i > 0.0));
        let mean = stats::mean(&ion);
        let median = stats::percentile(&ion, 50.0);
        assert!(
            mean > median,
            "log-normal + multi-tube skew: {mean} vs {median}"
        );
    }

    #[test]
    fn on_off_histogram_spans_decades() {
        let pop = population(8000, 5);
        let loo = pop.log_on_off();
        let lo = stats::percentile(&loo, 5.0);
        let hi = stats::percentile(&loo, 95.0);
        assert!(hi - lo > 1.0, "spread {lo}..{hi}");
        assert!(hi <= 8.0 + 1e-12);
    }

    #[test]
    fn determinism_by_seed() {
        let a = population(100, 9);
        let b = population(100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_population_is_thread_count_invariant() {
        let model = VariabilityModel::park_experiment();
        let reference = model.sample_population_with(&Executor::with_threads(1), 2014, 4000);
        for threads in [2, 4] {
            let pop = model.sample_population_with(&Executor::with_threads(threads), 2014, 4000);
            assert_eq!(pop, reference, "divergence at {threads} threads");
        }
        // And the env-sized executor matches the same contract.
        assert_eq!(
            model
                .sample_population_with(&Executor::new(), 2014, 4000)
                .vt_statistics(),
            reference.vt_statistics()
        );
    }

    #[test]
    fn parallel_population_statistics_match_sequential() {
        // Different draw order than the sequential path, but the same
        // model: summary statistics must agree within Monte-Carlo noise.
        let par = VariabilityModel::park_experiment().sample_population_with(
            &Executor::new(),
            11,
            10_000,
        );
        let seq = population(10_000, 11);
        assert!((par.functional_yield() - seq.functional_yield()).abs() < 0.02);
        let (pm, ps) = par.vt_statistics();
        let (sm, ss) = seq.vt_statistics();
        assert!((pm - sm).abs() < 0.01, "means {pm} vs {sm}");
        assert!((ps - ss).abs() < 0.01, "sigmas {ps} vs {ss}");
    }

    #[test]
    fn adaptive_campaign_is_a_prefix_of_the_fixed_run() {
        let model = VariabilityModel::park_experiment();
        let ex = Executor::with_threads(2);
        let campaign = model.sample_population_adaptive(&ex, 2014, 0.02, 100_000);
        assert!(campaign.converged);
        assert!(campaign.ci_half_width <= 0.02);
        let n = campaign.population.len();
        assert_eq!(n, campaign.rounds * MC_CHUNK, "whole chunks only");
        // Every device matches the same-seed fixed-size run: growing
        // the campaign never perturbs earlier samples.
        let fixed = model.sample_population_with(&ex, 2014, n);
        assert_eq!(campaign.population, fixed);
    }

    #[test]
    fn adaptive_campaign_is_thread_count_invariant() {
        let model = VariabilityModel::park_experiment();
        let reference =
            model.sample_population_adaptive(&Executor::with_threads(1), 7, 0.02, 50_000);
        for threads in [2, 4, 8] {
            let campaign =
                model.sample_population_adaptive(&Executor::with_threads(threads), 7, 0.02, 50_000);
            assert_eq!(campaign, reference, "divergence at {threads} threads");
        }
    }

    #[test]
    fn adaptive_campaign_stops_within_one_chunk_of_the_target() {
        let model = VariabilityModel::park_experiment();
        let ex = Executor::with_threads(2);
        let campaign = model.sample_population_adaptive(&ex, 3, 0.015, 200_000);
        assert!(campaign.converged);
        let n = campaign.population.len();
        // One chunk fewer must NOT have met the target (minimality).
        if n > MC_CHUNK {
            let shorter = model.sample_population_with(&ex, 3, n - MC_CHUNK);
            assert!(
                yield_ci_half_width(shorter.count_functional(), shorter.len()) > 0.015,
                "stopped later than necessary"
            );
        }
    }

    #[test]
    fn adaptive_campaign_caps_at_max_devices() {
        let model = VariabilityModel::park_experiment();
        let ex = Executor::with_threads(2);
        // Unreachable target: must stop at the cap, including a final
        // partial chunk when the cap is not chunk-aligned.
        let cap = MC_CHUNK + MC_CHUNK / 2;
        let campaign = model.sample_population_adaptive(&ex, 5, 1e-9, cap);
        assert!(!campaign.converged);
        assert_eq!(campaign.population.len(), cap);
        assert_eq!(campaign.rounds, 2);
    }

    #[test]
    fn ci_half_width_shrinks_with_n() {
        assert_eq!(yield_ci_half_width(0, 0), f64::INFINITY);
        assert_eq!(yield_ci_half_width(100, 100), 0.0);
        let wide = yield_ci_half_width(870, 1000);
        let tight = yield_ci_half_width(8700, 10_000);
        assert!(wide > tight && tight > 0.0);
        // Hand check: z·sqrt(0.87·0.13/1000).
        assert!((wide - Z95 * (0.87 * 0.13 / 1000.0_f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn validation() {
        let asm = SelfAssembly::park_high_density();
        assert!(VariabilityModel::new(asm.clone(), 1.5, 0.3, 0.05, 1e-6, 0.3).is_err());
        assert!(VariabilityModel::new(asm.clone(), 0.9, 0.3, -0.05, 1e-6, 0.3).is_err());
        assert!(VariabilityModel::new(asm, 0.9, 0.3, 0.05, 0.0, 0.3).is_err());
    }
}
