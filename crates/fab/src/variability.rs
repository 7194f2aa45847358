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
//!
//! [`VariabilityModel::sample_device`] is the full per-device model,
//! on/off ratio included. Two callers read less of a site and sample
//! only that, on the same generator stream: the population samplers
//! keep the class, V_T and on-current the §V campaign statistics read
//! (a [`DevicePopulation`] of [`MeasuredSite`]s), and
//! [`VariabilityModel::sample_short`] only the short/not-short split
//! of the econ purity axis.

use std::ops::ControlFlow;

use carbon_runtime::{Distribution, Executor, LogNormal, Normal, Rng, MC_CHUNK};

use crate::placement::SelfAssembly;
use crate::stats;

/// Electrical outcome of one fabricated device site: what
/// [`VariabilityModel::sample_device`] draws, on/off ratio included. A
/// [`DevicePopulation`] keeps the [`MeasuredSite`] part of it.
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

/// One site of a measured array: its class and, for a working device,
/// the threshold voltage and on-current the campaign statistics read
/// (24 bytes; a [`DeviceOutcome`] is 32). Bit for bit the
/// [`DeviceOutcome`] that [`VariabilityModel::sample_device`] draws on
/// the same generator, less the on/off ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasuredSite {
    /// No tube in the channel.
    Empty,
    /// At least one metallic tube shorts the channel.
    MetallicShort,
    /// A working FET.
    Functional {
        /// Threshold voltage, V.
        vt: f64,
        /// On-current at the benchmark bias, A.
        ion: f64,
    },
}

/// The variability model: placement × purity × parameter dispersion.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityModel {
    assembly: SelfAssembly,
    /// Semiconducting purity of the sorted ink.
    purity: f64,
    /// Threshold voltage, V.
    vt: Normal,
    /// On-current per tube, A.
    ion_per_tube: LogNormal,
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
    /// Creates a model: threshold voltage `N(vt_mean, vt_sigma)` in V,
    /// per-tube on-current log-normal with median `ion_median` in A and
    /// log-sigma `ion_sigma_ln`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildVariabilityError`], naming the parameter, for
    /// purity outside `[0, 1]`, a non-finite parameter, a negative
    /// dispersion or a non-positive median on-current.
    pub fn new(
        assembly: SelfAssembly,
        purity: f64,
        vt_mean: f64,
        vt_sigma: f64,
        ion_median: f64,
        ion_sigma_ln: f64,
    ) -> Result<Self, BuildVariabilityError> {
        let invalid = |name: &str, need: &str, value: f64| {
            Err(BuildVariabilityError(format!(
                "{name} must be {need}, got {value}"
            )))
        };
        if !(0.0..=1.0).contains(&purity) {
            return invalid("purity", "in [0, 1]", purity);
        }
        if !vt_mean.is_finite() {
            return invalid("vt_mean", "finite", vt_mean);
        }
        if !(vt_sigma.is_finite() && vt_sigma >= 0.0) {
            return invalid("vt_sigma", "finite and ≥ 0", vt_sigma);
        }
        if !(ion_median.is_finite() && ion_median > 0.0) {
            return invalid("ion_median", "finite and positive", ion_median);
        }
        if !(ion_sigma_ln.is_finite() && ion_sigma_ln >= 0.0) {
            return invalid("ion_sigma_ln", "finite and ≥ 0", ion_sigma_ln);
        }
        Ok(Self {
            assembly,
            purity,
            vt: Normal::new(vt_mean, vt_sigma.max(1e-12)).expect("checked above"),
            ion_per_tube: LogNormal::new(ion_median.ln(), ion_sigma_ln.max(1e-12))
                .expect("checked above"),
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

    /// The site step all three samplers share: the tube count, then
    /// the per-tube purity check, stopping at the first metallic tube.
    /// Breaks with an empty or shorted site; continues with the tube
    /// count of a working one.
    fn classify_site<R: Rng + ?Sized>(&self, rng: &mut R) -> ControlFlow<MeasuredSite, usize> {
        let tubes = self.assembly.sample_site(rng);
        if tubes == 0 {
            return ControlFlow::Break(MeasuredSite::Empty);
        }
        if (0..tubes).any(|_| rng.next_f64() > self.purity) {
            return ControlFlow::Break(MeasuredSite::MetallicShort);
        }
        ControlFlow::Continue(tubes)
    }

    /// The measured part of a site, which [`measure_site`] and
    /// [`sample_device`] share: the class, then a working device's V_T
    /// and per-tube on-currents (`tubes + 1` normals).
    ///
    /// A working device draws `tubes + 2` normals in all, the last
    /// being `sample_device`'s on/off scatter. `sample_short` skips all
    /// of their words and `measure_site` the last one's, so a draw
    /// added here or in `sample_device` must be skipped by both.
    ///
    /// [`measure_site`]: Self::measure_site
    /// [`sample_device`]: Self::sample_device
    fn measure<R: Rng + ?Sized>(&self, rng: &mut R) -> MeasuredSite {
        match self.classify_site(rng) {
            ControlFlow::Break(site) => site,
            ControlFlow::Continue(tubes) => {
                let vt = self.vt.sample(rng);
                let ion = (0..tubes).map(|_| self.ion_per_tube.sample(rng)).sum();
                MeasuredSite::Functional { vt, ion }
            }
        }
    }

    /// Samples one device site: the full per-device model, on/off ratio
    /// included.
    pub fn sample_device<R: Rng + ?Sized>(&self, rng: &mut R) -> DeviceOutcome {
        match self.measure(rng) {
            MeasuredSite::Empty => DeviceOutcome::Empty,
            MeasuredSite::MetallicShort => DeviceOutcome::MetallicShort,
            MeasuredSite::Functional { vt, ion } => {
                // On/off set by how far Vt sits above the off bias, ~1
                // decade per 90 mV of margin plus device-to-device
                // scatter.
                let decades = (vt / 0.090) + Normal::new(0.0, 0.5).expect("const").sample(rng);
                let on_off = 10f64.powf(decades.clamp(0.5, 8.0));
                DeviceOutcome::Functional { vt, ion, on_off }
            }
        }
    }

    /// Samples one device site without its on/off ratio: the step every
    /// population sampler takes per site.
    ///
    /// The class, V_T and on-current are bit for bit those of
    /// [`sample_device`](Self::sample_device), and `rng` is left in the
    /// same state: the on/off scatter is not drawn, but the generator
    /// advances past its [`Normal::WORDS`] words, so every later draw
    /// is unchanged.
    pub(crate) fn measure_site<R: Rng + ?Sized>(&self, rng: &mut R) -> MeasuredSite {
        let site = self.measure(rng);
        if let MeasuredSite::Functional { .. } = site {
            skip_words(rng, Normal::WORDS);
        }
        site
    }

    /// Samples one device site and reports only whether it is a
    /// metallic short.
    ///
    /// Equal to `matches!(self.sample_device(rng), MetallicShort)`, and
    /// leaves `rng` in the same state: a working site's parameters are
    /// not computed, but the generator advances past their draws
    /// ([`Normal::WORDS`] per normal), so every later draw is unchanged.
    pub fn sample_short<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match self.classify_site(rng) {
            ControlFlow::Break(site) => matches!(site, MeasuredSite::MetallicShort),
            ControlFlow::Continue(tubes) => {
                skip_words(rng, Normal::WORDS * (tubes as u64 + 2));
                false
            }
        }
    }

    /// Samples a whole array.
    pub fn sample_population<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> DevicePopulation {
        DevicePopulation {
            sites: (0..n).map(|_| self.measure_site(rng)).collect(),
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
            sites: ex.par_mc(seed, n, |_, rng| self.measure_site(rng)),
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
        let mut sites: Vec<MeasuredSite> = Vec::new();
        let mut functional = 0usize;
        let mut rounds = 0usize;
        let mut half = f64::INFINITY;
        while sites.len() < max_devices {
            let start = sites.len();
            let end = (start + MC_CHUNK).min(max_devices);
            let chunk = ex.par_mc_extend(seed, start, end, |_, rng| self.measure_site(rng));
            functional += chunk
                .iter()
                .filter(|s| matches!(s, MeasuredSite::Functional { .. }))
                .count();
            sites.extend(chunk);
            rounds += 1;
            half = yield_ci_half_width(functional, sites.len());
            carbon_trace::instant!(
                "fab.campaign.round",
                "round" = rounds as u64,
                "devices" = sites.len() as u64,
                "ci_half_width" = half
            );
            if half <= target_ci {
                break;
            }
        }
        let converged = half <= target_ci;
        AdaptiveCampaign {
            population: DevicePopulation { sites },
            rounds,
            ci_half_width: half,
            converged,
        }
    }
}

/// Advances `rng` by `words` generator words, discarding them.
fn skip_words<R: Rng + ?Sized>(rng: &mut R, words: u64) {
    for _ in 0..words {
        rng.next_u64();
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

/// A measured array of device sites with summary statistics: each
/// site's class, and the V_T and on-current of a working one
/// ([`MeasuredSite`]). The per-device on/off ratio is
/// [`VariabilityModel::sample_device`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePopulation {
    sites: Vec<MeasuredSite>,
}

impl DevicePopulation {
    /// All measured sites, in sampling order.
    pub fn sites(&self) -> &[MeasuredSite] {
        &self.sites
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Functional, metallic-short and empty fractions, counted in one
    /// pass.
    pub fn fractions(&self) -> [f64; 3] {
        let mut counts = [0usize; 3];
        for site in &self.sites {
            counts[match site {
                MeasuredSite::Functional { .. } => 0,
                MeasuredSite::MetallicShort => 1,
                MeasuredSite::Empty => 2,
            }] += 1;
        }
        let n = self.sites.len().max(1) as f64;
        counts.map(|count| count as f64 / n)
    }

    /// Fraction of functional devices.
    pub fn functional_yield(&self) -> f64 {
        self.fractions()[0]
    }

    /// Count of functional devices.
    pub fn count_functional(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s, MeasuredSite::Functional { .. }))
            .count()
    }

    /// Fraction of metallic shorts.
    pub fn short_fraction(&self) -> f64 {
        self.fractions()[1]
    }

    /// Fraction of empty sites.
    pub fn empty_fraction(&self) -> f64 {
        self.fractions()[2]
    }

    /// Threshold voltages of the functional devices.
    pub fn thresholds(&self) -> Vec<f64> {
        self.sites
            .iter()
            .filter_map(|s| match s {
                MeasuredSite::Functional { vt, .. } => Some(*vt),
                _ => None,
            })
            .collect()
    }

    /// On-currents of the functional devices, A.
    pub fn on_currents(&self) -> Vec<f64> {
        self.sites
            .iter()
            .filter_map(|s| match s {
                MeasuredSite::Functional { ion, .. } => Some(*ion),
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
        let model = VariabilityModel::park_experiment();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let loo: Vec<f64> = (0..8000)
            .filter_map(|_| match model.sample_device(&mut rng) {
                DeviceOutcome::Functional { on_off, .. } => Some(on_off.log10()),
                _ => None,
            })
            .collect();
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

    #[test]
    fn non_finite_parameters_are_rejected_by_name() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // (name, vt_mean, vt_sigma, ion_median, ion_sigma_ln)
        let cases = [
            ("vt_mean", nan, 0.07, 10e-6, 0.4),
            ("vt_sigma", 0.35, inf, 10e-6, 0.4),
            ("vt_sigma", 0.35, nan, 10e-6, 0.4),
            ("ion_median", 0.35, 0.07, nan, 0.4),
            ("ion_median", 0.35, 0.07, inf, 0.4),
            ("ion_sigma_ln", 0.35, 0.07, 10e-6, inf),
        ];
        for (name, vt_mean, vt_sigma, ion_median, ion_sigma_ln) in cases {
            let err = VariabilityModel::new(
                SelfAssembly::park_high_density(),
                0.999,
                vt_mean,
                vt_sigma,
                ion_median,
                ion_sigma_ln,
            )
            .expect_err(name)
            .to_string();
            assert!(err.contains(name), "{name}: {err}");
        }
    }

    mod props {
        use super::*;
        use carbon_runtime::prop::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn sample_short_classifies_on_the_sample_device_stream(
                seed in 0u64..u64::MAX,
                raw_purity in -0.25f64..1.25,
                lambda_below_100 in 0.0f64..100.0,
            ) {
                // Clamping puts a sixth of the cases on each end of
                // [0, 1]; λ ∈ (0, 100] reaches Poisson's normal branch.
                let purity = raw_purity.clamp(0.0, 1.0);
                let lambda = 100.0 - lambda_below_100;
                let model = VariabilityModel::new(
                    SelfAssembly::new(lambda).unwrap(),
                    purity,
                    0.35,
                    0.07,
                    10e-6,
                    0.4,
                )
                .unwrap();
                let mut short_rng = Xoshiro256pp::seed_from_u64(seed);
                let mut device_rng = short_rng.clone();
                let mut measure_rng = short_rng.clone();
                for site in 0..2000 {
                    let device = model.sample_device(&mut device_rng);
                    let short = model.sample_short(&mut short_rng);
                    let measured = model.measure_site(&mut measure_rng);
                    prop_assert!(
                        short == matches!(device, DeviceOutcome::MetallicShort),
                        "site {site}: sample_short {short}, sample_device {device:?}"
                    );
                    let agree = match (device, measured) {
                        (DeviceOutcome::Empty, MeasuredSite::Empty)
                        | (DeviceOutcome::MetallicShort, MeasuredSite::MetallicShort) => true,
                        (
                            DeviceOutcome::Functional { vt, ion, .. },
                            MeasuredSite::Functional { vt: site_vt, ion: site_ion },
                        ) => vt.to_bits() == site_vt.to_bits() && ion.to_bits() == site_ion.to_bits(),
                        _ => false,
                    };
                    prop_assert!(
                        agree,
                        "site {site}: measure_site {measured:?}, sample_device {device:?}"
                    );
                    prop_assert!(
                        short_rng == device_rng && measure_rng == device_rng,
                        "generators part at site {site}"
                    );
                }
            }
        }
    }
}
