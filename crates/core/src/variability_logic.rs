//! From device statistics to circuit robustness: Monte-Carlo noise
//! margins under threshold-voltage dispersion.
//!
//! §V's measurement campaign (Park et al.) exists because "thorough
//! statistical analysis of recipes and methods needs to \[be\] applied":
//! a CNT technology is only usable if its device *distributions* still
//! yield working logic. This experiment samples inverter pairs with the
//! measured V_T dispersion (σ ≈ 70 mV from the Fig. 7 campaign), sweeps
//! each pair's VTC, and reports the noise-margin distribution and the
//! fraction of gates meeting a robustness floor — connecting
//! `carbon-fab`'s statistics to `carbon-logic`'s circuit analysis.

use std::sync::Arc;

use carbon_devices::AlphaPowerFet;
use carbon_fab::stats::{mean, percentile, std_dev};
use carbon_logic::Inverter;
use carbon_runtime::{Distribution, Executor, Normal};
use carbon_units::Voltage;

use crate::error::CoreError;
use crate::table::{num, Table};

/// One row of the study: V_T dispersion in, noise-margin statistics out.
#[derive(Debug, Clone, PartialEq)]
pub struct DispersionRow {
    /// Threshold-voltage sigma, V.
    pub vt_sigma: f64,
    /// Mean worst-side noise margin, V.
    pub nm_mean: f64,
    /// Noise-margin standard deviation, V.
    pub nm_sigma: f64,
    /// 5th-percentile noise margin, V.
    pub nm_p5: f64,
    /// Fraction of sampled gates with worst-side NM above 0.2 V.
    pub robust_fraction: f64,
}

/// Results of the variability-to-logic study.
#[derive(Debug, Clone)]
pub struct VariabilityLogic {
    /// One row per dispersion level.
    pub rows: Vec<DispersionRow>,
    /// Samples per row.
    pub samples: usize,
}

/// Samples per dispersion level (kept modest: each sample is a full
/// 61-point VTC solve).
pub const SAMPLES: usize = 40;

/// Runs the study at σ(V_T) ∈ {20, 70, 120} mV — the middle value being
/// the Fig. 7 campaign's measured dispersion.
///
/// Each sample is a full 61-point VTC solve, so the samples of a row
/// run in parallel on the runtime executor; per-sample seeding keeps
/// the margins identical at every thread count.
///
/// # Errors
///
/// Propagates device and circuit failures.
pub fn run() -> Result<VariabilityLogic, CoreError> {
    let mut rows = Vec::new();
    let ex = Executor::new();
    for vt_sigma in [0.02, 0.07, 0.12] {
        let seed = 2014 + (vt_sigma * 1e3) as u64;
        let dist = Normal::new(0.3, vt_sigma).map_err(|e| CoreError::Device(e.to_string()))?;
        let margins: Vec<f64> = ex
            .par_mc_fine(seed, SAMPLES, |_, rng| -> Result<f64, CoreError> {
                // Independent V_T draws for the n and p device, clamped to
                // the model's validity range.
                let vt_n = dist.sample(rng).clamp(0.05, 0.6);
                let vt_p = dist.sample(rng).clamp(0.05, 0.6);
                let nfet = AlphaPowerFet::new(vt_n, 1.3, 7.2e-4, 0.8, 0.15, 75.0)
                    .map_err(|e| CoreError::Device(e.to_string()))?;
                let pfet = AlphaPowerFet::new(vt_p, 1.3, 7.2e-4, 0.8, 0.15, 75.0)
                    .map_err(|e| CoreError::Device(e.to_string()))?
                    .into_p_type();
                let inv = Inverter::new(Arc::new(nfet), Arc::new(pfet), Voltage::from_volts(1.0))?;
                let vtc = inv.vtc(61)?;
                let nm = vtc.noise_margins();
                Ok(nm.low.min(nm.high))
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let robust = margins.iter().filter(|&&m| m > 0.2).count() as f64 / SAMPLES as f64;
        rows.push(DispersionRow {
            vt_sigma,
            nm_mean: mean(&margins),
            nm_sigma: std_dev(&margins),
            nm_p5: percentile(&margins, 5.0),
            robust_fraction: robust,
        });
    }
    Ok(VariabilityLogic {
        rows,
        samples: SAMPLES,
    })
}

impl std::fmt::Display for VariabilityLogic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "§V — noise margin under V_T dispersion (Monte-Carlo inverter pairs)",
            &[
                "σ(V_T) [mV]",
                "NM mean [V]",
                "NM σ [V]",
                "NM p5 [V]",
                "robust (NM > 0.2 V)",
            ],
        );
        for r in &self.rows {
            t.push_owned_row(vec![
                num(r.vt_sigma * 1e3, 0),
                num(r.nm_mean, 3),
                num(r.nm_sigma, 3),
                num(r.nm_p5, 3),
                format!("{:.0} %", r.robust_fraction * 100.0),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "({} sampled inverter pairs per row)", self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispersion_erodes_the_margin_tail() {
        let v = run().unwrap();
        assert_eq!(v.rows.len(), 3);
        // The p5 tail degrades monotonically with dispersion.
        assert!(
            v.rows.windows(2).all(|w| w[1].nm_p5 <= w[0].nm_p5 + 0.01),
            "{:?}",
            v.rows
        );
        // Tight control: everything robust. Loose control: casualties.
        assert!(v.rows[0].robust_fraction > 0.95, "{:?}", v.rows[0]);
        assert!(v.rows[2].robust_fraction < v.rows[0].robust_fraction);
    }

    #[test]
    fn park_dispersion_keeps_most_gates_alive() {
        let v = run().unwrap();
        let park = &v.rows[1]; // σ = 70 mV
        assert!(
            park.robust_fraction > 0.6,
            "the measured dispersion must leave logic viable: {park:?}"
        );
        assert!(park.nm_mean > 0.2);
    }

    #[test]
    fn spread_grows_with_sigma() {
        let v = run().unwrap();
        assert!(v.rows[2].nm_sigma > v.rows[0].nm_sigma);
    }

    #[test]
    fn report_renders() {
        let s = run().unwrap().to_string();
        assert!(s.contains("V_T dispersion"));
        assert!(s.contains("robust"));
    }
}
