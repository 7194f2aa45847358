//! §V — industrial-grade integration statistics.
//!
//! Two reproductions in one experiment:
//!
//! * the **Park et al. \[22\] measurement campaign**: a >10,000-device
//!   array from self-assembly placement, with site-occupancy fractions,
//!   threshold-voltage statistics and on-current percentiles — "for the
//!   first time a statistical analysis of more than 10,000 CNTFETs that
//!   have been measured, was available". The campaign samples only what
//!   these read; the per-device on/off ratio lives on
//!   [`VariabilityModel::sample_device`];
//! * the **sorting economics**: semiconducting purity versus passes for
//!   gel chromatography / density gradient / DNA wrapping, with the
//!   cumulative material yield each purity level costs.

use std::sync::LazyLock;

use carbon_fab::stats::percentiles;
use carbon_fab::{Campaign, DevicePopulation, SortingProcess, VariabilityModel};
use carbon_runtime::Executor;

use crate::error::CoreError;
use crate::table::{num, sci, Table};

/// Results of the §V statistics experiment.
#[derive(Debug, Clone)]
pub struct Fig7Stats {
    /// The simulated measurement campaign.
    pub population: DevicePopulation,
    /// Functional / short / empty fractions.
    pub fractions: [f64; 3],
    /// Mean and sigma of the threshold voltage, V.
    pub vt_stats: (f64, f64),
    /// 5/50/95 percentiles of the on-current, µA.
    pub ion_percentiles: [f64; 3],
    /// Sorting table rows: (process, passes to 5 nines, cumulative yield).
    pub sorting: Vec<(String, usize, f64)>,
}

/// Number of devices in the campaign (the paper's ">10,000").
pub const CAMPAIGN_SIZE: usize = 10_000;

/// Campaign seed (the paper's year).
pub const CAMPAIGN_SEED: u64 = 2014;

/// The §V campaign's first [`CAMPAIGN_SIZE`] sites at [`CAMPAIGN_SEED`],
/// drawn once per process on first use and read by [`run`] and
/// [`run_adaptive`] (240 KB). Every §V request reads a prefix of this
/// one device sequence, so drawing it again would only repeat the work.
static PARK_CAMPAIGN: LazyLock<Campaign> = LazyLock::new(|| {
    Campaign::sample(
        VariabilityModel::park_experiment(),
        &Executor::new(),
        CAMPAIGN_SEED,
        CAMPAIGN_SIZE,
    )
});

/// Runs the §V statistics experiment with a fixed seed.
///
/// The campaign is drawn once per process, on the runtime executor: the
/// same summary statistics come out at any thread count (the executor's
/// deterministic chunked schedule), while the 10,000 device solves
/// spread across the available cores. Later runs copy the stored sites.
///
/// # Errors
///
/// This experiment is deterministic and cannot fail at runtime; the
/// `Result` keeps the interface uniform with the other experiments.
pub fn run() -> Result<Fig7Stats, CoreError> {
    let mut campaign_span = carbon_trace::span!("core.fig7_campaign");
    let stats = stats_from(PARK_CAMPAIGN.population().clone());
    if campaign_span.is_live() {
        campaign_span.record("devices", CAMPAIGN_SIZE);
        campaign_span.record("seed", CAMPAIGN_SEED);
        campaign_span.record("functional_yield", stats.fractions[0]);
        campaign_span.record("vt_sigma", stats.vt_stats.1);
    }
    Ok(stats)
}

/// Default device cap for the adaptive campaign (10× the fixed size).
pub const ADAPTIVE_MAX_DEFAULT: usize = 100_000;

/// The §V campaign with adaptive sizing: growing in
/// [`carbon_runtime::MC_CHUNK`] rounds until the 95 % CI half-width on
/// the functional yield drops below `target_ci` or `max_devices` is
/// reached. Same seed and per-chunk RNG streams as [`run`], so a
/// campaign that stops at 10,000 devices is byte-identical to the fixed
/// one — and any stop size is byte-identical across `CARBON_THREADS`.
/// Rounds that end within the fixed campaign copy its stored sites;
/// later rounds are drawn ([`Campaign::grow`]).
///
/// # Errors
///
/// [`CoreError::Cancelled`] when the ambient [`carbon_runtime::cancel`]
/// token fires before a round.
pub fn run_adaptive(target_ci: f64, max_devices: usize) -> Result<Fig7Adaptive, CoreError> {
    let campaign = PARK_CAMPAIGN.grow(&Executor::new(), target_ci, max_devices)?;
    Ok(Fig7Adaptive {
        stats: stats_from(campaign.population),
        rounds: campaign.rounds,
        ci_half_width: campaign.ci_half_width,
        converged: campaign.converged,
    })
}

/// Summary statistics and the sorting table for a measured population —
/// shared by the fixed-size and adaptive campaigns.
fn stats_from(population: DevicePopulation) -> Fig7Stats {
    let fractions = population.fractions();
    let vt_stats = population.vt_statistics();
    let ion_percentiles =
        percentiles(&mut population.on_currents(), [5.0, 50.0, 95.0]).map(|ion| ion * 1e6);
    let sorting = [
        SortingProcess::gel_chromatography(),
        SortingProcess::density_gradient(),
        SortingProcess::dna_wrapping(),
    ]
    .into_iter()
    .map(|p| {
        let (passes, yield_) = p
            .passes_to_reach(0.67, 0.99999)
            .expect("all presets reach five nines");
        (p.name().to_owned(), passes, yield_)
    })
    .collect();
    Fig7Stats {
        population,
        fractions,
        vt_stats,
        ion_percentiles,
        sorting,
    }
}

/// Results of the adaptive §V campaign ([`run_adaptive`]).
#[derive(Debug, Clone)]
pub struct Fig7Adaptive {
    /// The same statistics as the fixed campaign, over the devices
    /// actually measured.
    pub stats: Fig7Stats,
    /// Chunk rounds run.
    pub rounds: usize,
    /// Final 95 % CI half-width on the functional yield.
    pub ci_half_width: f64,
    /// `true` if the target was met before `max_devices`.
    pub converged: bool,
}

impl std::fmt::Display for Fig7Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "§V — Park-style measurement campaign (10,000 self-assembled devices)",
            &["metric", "value"],
        );
        t.push_owned_row(vec![
            "devices measured".into(),
            format!("{}", self.population.len()),
        ]);
        t.push_owned_row(vec![
            "functional".into(),
            format!("{:.1} %", self.fractions[0] * 100.0),
        ]);
        t.push_owned_row(vec![
            "metallic shorts".into(),
            format!("{:.2} %", self.fractions[1] * 100.0),
        ]);
        t.push_owned_row(vec![
            "empty sites".into(),
            format!("{:.1} %", self.fractions[2] * 100.0),
        ]);
        t.push_owned_row(vec![
            "V_T mean ± σ".into(),
            format!("{:.3} ± {:.3} V", self.vt_stats.0, self.vt_stats.1),
        ]);
        t.push_owned_row(vec![
            "I_on p5/p50/p95".into(),
            format!(
                "{} / {} / {} µA",
                num(self.ion_percentiles[0], 1),
                num(self.ion_percentiles[1], 1),
                num(self.ion_percentiles[2], 1)
            ),
        ]);
        writeln!(f, "{t}")?;
        let mut s = Table::new(
            "§V — sorting economics: passes to 99.999 % semiconducting purity from as-grown 67 %",
            &["process", "passes", "cumulative material yield"],
        );
        for (name, passes, yield_) in &self.sorting {
            s.push_owned_row(vec![name.clone(), format!("{passes}"), sci(*yield_)]);
        }
        writeln!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_ten_thousand_devices() {
        let fig = run().unwrap();
        assert_eq!(fig.population.len(), CAMPAIGN_SIZE);
        let sum: f64 = fig.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statistics_are_physical() {
        let fig = run().unwrap();
        assert!(fig.fractions[0] > 0.5, "mostly functional");
        assert!((fig.vt_stats.0 - 0.35).abs() < 0.02);
        let [p5, p50, p95] = fig.ion_percentiles;
        assert!(p5 < p50 && p50 < p95);
        assert!(p50 > 1.0, "µA-class devices: median {p50} µA");
    }

    #[test]
    fn every_sorting_process_reaches_five_nines() {
        let fig = run().unwrap();
        assert_eq!(fig.sorting.len(), 3);
        for (name, passes, yield_) in &fig.sorting {
            assert!(*passes >= 1 && *passes <= 20, "{name}: {passes} passes");
            assert!(*yield_ > 0.0 && *yield_ < 1.0, "{name}: yield {yield_}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run().unwrap();
        let b = run().unwrap();
        assert_eq!(a.fractions, b.fractions);
        assert_eq!(a.vt_stats, b.vt_stats);
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        // The executor's determinism contract, checked end to end: the
        // campaign must produce identical statistics at 1 and N threads.
        let model = carbon_fab::VariabilityModel::park_experiment();
        let sample = |threads: usize| {
            let ex = carbon_runtime::Executor::with_threads(threads);
            let pop = model.sample_population_with(&ex, CAMPAIGN_SEED, CAMPAIGN_SIZE);
            (pop.vt_statistics(), pop.functional_yield())
        };
        let single = sample(1);
        for threads in [2, 4, 8] {
            assert_eq!(sample(threads), single, "divergence at {threads} threads");
        }
    }

    #[test]
    fn adaptive_campaign_converges_on_whole_chunks() {
        let fig = run_adaptive(0.02, ADAPTIVE_MAX_DEFAULT).unwrap();
        assert!(fig.converged);
        assert!(fig.ci_half_width <= 0.02);
        let n = fig.stats.population.len();
        assert_eq!(n, fig.rounds * carbon_runtime::MC_CHUNK);
        assert!(n <= ADAPTIVE_MAX_DEFAULT);
        // Same seed, same streams: the adaptive population is the
        // fixed-size campaign's device sequence, drawn afresh here.
        let fresh = VariabilityModel::park_experiment().sample_population_with(
            &Executor::new(),
            CAMPAIGN_SEED,
            n,
        );
        assert_eq!(fig.stats.population, fresh);
    }

    #[test]
    fn the_stored_campaign_never_changes_an_answer() {
        // Caps inside the store, at its end, straddling it (9 216..10 240
        // is drawn whole) and past it; targets that never converge run
        // every round. The oracles bypass the store: a fresh fixed-size
        // draw and the adaptive loop with nothing stored.
        let caps = [1_536, 4_096, 9_216, 10_000, 10_240, 12_288];
        let model = VariabilityModel::park_experiment();
        for threads in [1, 4] {
            let ex = Executor::with_threads(threads);
            let unstored = Campaign::sample(model.clone(), &ex, CAMPAIGN_SEED, 0);
            let oracles: Vec<_> = caps
                .iter()
                .map(|&cap| {
                    let grown = unstored.grow(&ex, 1e-9, cap).unwrap();
                    let fresh = model.sample_population_with(&ex, CAMPAIGN_SEED, cap);
                    assert_eq!(grown.population, fresh, "cap {cap} at {threads} threads");
                    grown
                })
                .collect();
            let fixed = model.sample_population_with(&ex, CAMPAIGN_SEED, CAMPAIGN_SIZE);
            let check_fixed = || assert_eq!(run().unwrap().population, fixed);
            let check_adaptive = |i: usize| {
                let got = run_adaptive(1e-9, caps[i]).unwrap();
                let want = &oracles[i];
                assert_eq!(got.stats.population, want.population, "cap {}", caps[i]);
                assert_eq!(got.rounds, want.rounds);
                assert_eq!(got.ci_half_width.to_bits(), want.ci_half_width.to_bits());
                assert!(!got.converged && !want.converged);
            };
            // Two orders: the fixed run, then the caps up; the caps
            // down, then the fixed run.
            check_fixed();
            (0..caps.len()).for_each(check_adaptive);
            (0..caps.len()).rev().for_each(check_adaptive);
            check_fixed();
        }
        assert_eq!(PARK_CAMPAIGN.population().len(), CAMPAIGN_SIZE);
    }

    #[test]
    fn adaptive_campaign_is_deterministic() {
        let a = run_adaptive(0.03, ADAPTIVE_MAX_DEFAULT).unwrap();
        let b = run_adaptive(0.03, ADAPTIVE_MAX_DEFAULT).unwrap();
        assert_eq!(a.stats.population.sites(), b.stats.population.sites());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.ci_half_width, b.ci_half_width);
    }

    #[test]
    fn report_renders() {
        let s = run().unwrap().to_string();
        assert!(s.contains("10,000") || s.contains("10000"));
        assert!(s.contains("sorting economics"));
    }
}
