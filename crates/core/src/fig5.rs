//! Fig. 5 — benchmarking CNT-FETs against Si, InAs, and InGaAs: on-
//! current density at `V_DS = 0.5 V`, off-current normalized to
//! 100 nA/µm, versus gate length.
//!
//! The Si/III-V series are the literature background (del Alamo); the
//! CNT series is *simulated* here exactly the way the paper adds
//! measured CNT devices onto the plot: for each gate length, a ballistic
//! top-of-barrier CNT-FET with mean-free-path-limited ballisticity and
//! scale-length-degraded drain control is swept, the gate window is
//! positioned at the standard off-current, and the on-current is read
//! one supply above. The headline claim: "Clearly, the CNTFET
//! outperforms the alternatives."

use std::sync::Arc;

use carbon_band::CntBand;
use carbon_devices::metrics::normalized_on_current;
use carbon_devices::{BallisticFet, Fet};
use carbon_electro::{GateGeometry, Mosfet2dModel};
use carbon_units::{Energy, Length, Voltage};

use crate::error::CoreError;
use crate::refdata::{all_reference_series, RefSeries};
use crate::table::{num, Table};

/// One simulated CNT benchmark point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CntPoint {
    /// Gate length, nm.
    pub gate_length_nm: f64,
    /// Ballisticity `λ/(λ+L)` at this length.
    pub ballisticity: f64,
    /// Normalized on-current density, µA/µm.
    pub ion_ua_per_um: f64,
}

/// Results of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Simulated CNT series.
    pub cnt: Vec<CntPoint>,
    /// Literature background series.
    pub references: Vec<RefSeries>,
    /// Minimum CNT advantage over the best reference at overlapping
    /// gate lengths (×).
    pub min_advantage: f64,
}

/// The benchmark's off-current target, A/m (100 nA/µm).
pub const I_OFF_TARGET_A_PER_M: f64 = 100e-9 / 1e-6;

/// Runs the Fig. 5 experiment.
///
/// # Errors
///
/// Propagates device construction and extraction failures.
pub fn run() -> Result<Fig5, CoreError> {
    let gate_lengths = [9.0, 15.0, 30.0, 60.0, 100.0, 300.0, 1000.0, 3000.0];
    let mfp = Length::from_nanometers(300.0);
    let diameter = Length::from_nanometers(1.5);
    let vdd = Voltage::from_volts(0.5);
    // Drain control degraded by the GAA scale length as channels shorten.
    let electro = Mosfet2dModel::new(
        GateGeometry::GateAllAround,
        diameter,
        Length::from_nanometers(3.0),
        11.7,
        16.0,
    )
    .map_err(|e| CoreError::Device(e.to_string()))?;
    let band = CntBand::from_bandgap(Energy::from_electron_volts(0.56))
        .map_err(|e| CoreError::Device(e.to_string()))?;

    // Each gate length is an independent 131-point transfer sweep;
    // fan the ladder out on the runtime executor.
    let cnt: Vec<CntPoint> = carbon_runtime::Executor::new()
        .par_map(gate_lengths.len(), |k| -> Result<CntPoint, CoreError> {
            let lg = gate_lengths[k];
            let alpha_d = (electro.dibl(Length::from_nanometers(lg)) / 1e3).clamp(1e-3, 0.5);
            let fet = BallisticFet::builder(Arc::new(band.clone()))
                .threshold_voltage(0.25)
                .alpha_drain(alpha_d)
                .channel(Length::from_nanometers(lg), mfp)
                .width(diameter)
                .build()
                .map_err(|e| CoreError::Device(e.to_string()))?;
            let transfer = fet.transfer(
                Voltage::from_volts(-0.3),
                Voltage::from_volts(1.0),
                131,
                vdd,
            );
            // The paper notes the 9 nm device was normalized at 10× higher
            // off-current (its measurement floor).
            let i_off_target = if lg <= 9.0 {
                10.0 * I_OFF_TARGET_A_PER_M
            } else {
                I_OFF_TARGET_A_PER_M
            } * diameter.meters();
            let ion = normalized_on_current(&transfer, i_off_target, vdd)?;
            Ok(CntPoint {
                gate_length_nm: lg,
                ballisticity: fet.ballisticity(),
                ion_ua_per_um: ion / diameter.meters() * 1e6 / 1e6, // A/m = µA/µm
            })
        })
        .into_iter()
        .collect::<Result<_, CoreError>>()?;

    let references = all_reference_series();
    // CNT advantage at every reference gate length we bracket.
    let mut min_advantage = f64::INFINITY;
    for r in &references {
        for p in &r.points {
            let Some(cnt_at) = interpolate_cnt(&cnt, p.gate_length_nm) else {
                continue;
            };
            min_advantage = min_advantage.min(cnt_at / p.ion_ua_per_um);
        }
    }
    Ok(Fig5 {
        cnt,
        references,
        min_advantage,
    })
}

fn interpolate_cnt(cnt: &[CntPoint], lg: f64) -> Option<f64> {
    let first = cnt.first()?;
    let last = cnt.last()?;
    if lg < first.gate_length_nm || lg > last.gate_length_nm {
        return None;
    }
    for w in cnt.windows(2) {
        if lg >= w[0].gate_length_nm && lg <= w[1].gate_length_nm {
            let f = (lg - w[0].gate_length_nm) / (w[1].gate_length_nm - w[0].gate_length_nm);
            return Some(w[0].ion_ua_per_um * (1.0 - f) + w[1].ion_ua_per_um * f);
        }
    }
    None
}

impl std::fmt::Display for Fig5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "Fig. 5 — I_on at V_DS = 0.5 V, I_off = 100 nA/µm (simulated CNT series)",
            &["L_G [nm]", "ballisticity", "I_on [µA/µm]"],
        );
        for p in &self.cnt {
            t.push_owned_row(vec![
                num(p.gate_length_nm, 0),
                num(p.ballisticity, 2),
                num(p.ion_ua_per_um, 0),
            ]);
        }
        writeln!(f, "{t}")?;
        let mut r = Table::new(
            "Fig. 5 — literature background (del Alamo)",
            &["technology", "L_G [nm]", "I_on [µA/µm]"],
        );
        for s in &self.references {
            for p in &s.points {
                r.push_owned_row(vec![
                    s.label.to_owned(),
                    num(p.gate_length_nm, 0),
                    num(p.ion_ua_per_um, 0),
                ]);
            }
        }
        writeln!(f, "{r}")?;
        writeln!(
            f,
            "minimum CNT advantage over the best alternative: {:.1}× (paper: CNTFET outperforms the alternatives)",
            self.min_advantage
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnt_outperforms_every_alternative() {
        let fig = run().unwrap();
        assert!(
            fig.min_advantage > 1.0,
            "CNT must sit on top; advantage {}",
            fig.min_advantage
        );
    }

    #[test]
    fn cnt_density_is_milliamp_per_micron_class() {
        let fig = run().unwrap();
        let short = &fig.cnt[2]; // 30 nm
        assert!(
            short.ion_ua_per_um > 1000.0,
            "per-diameter normalization puts CNTs in the mA/µm class: {}",
            short.ion_ua_per_um
        );
    }

    #[test]
    fn long_channels_lose_ballisticity_and_current() {
        let fig = run().unwrap();
        let first = fig.cnt.first().unwrap();
        let last = fig.cnt.last().unwrap();
        assert!(first.ballisticity > 0.9);
        assert!(last.ballisticity < 0.15);
        assert!(last.ion_ua_per_um < first.ion_ua_per_um);
    }

    #[test]
    fn series_is_monotone_against_gate_length_above_9nm() {
        let fig = run().unwrap();
        // Skip the 9 nm point (different off-current normalization).
        let tail: Vec<f64> = fig.cnt[1..].iter().map(|p| p.ion_ua_per_um).collect();
        assert!(
            tail.windows(2).all(|w| w[1] <= w[0] * 1.05),
            "longer channel → lower normalized Ion: {tail:?}"
        );
    }

    #[test]
    fn report_renders() {
        let s = run().unwrap().to_string();
        assert!(s.contains("del Alamo"));
        assert!(s.contains("CNTFET outperforms"));
    }
}
