//! §II — signal regeneration in cascaded logic.
//!
//! The paper's final blow against non-saturating devices: "the dynamic
//! behavior of cascaded logic circuits based on FETs without saturation
//! would be difficult to predict, as there are no defined logical 'high'
//! and 'low' levels and the transition is very smooth."
//!
//! This experiment drives a *degraded* input (a high that sags to 65 %
//! of the rail) into a chain of inverters and records the level at every
//! stage:
//!
//! * with saturating devices, each stage regenerates — the signal snaps
//!   back to the rails within a stage or two and stays there;
//! * with non-saturating devices, gain < 1 means every stage *loses*
//!   level: the chain decays toward the mid-rail fixed point and logical
//!   values cease to exist.

use std::sync::Arc;

use carbon_devices::{AlphaPowerFet, Fet, LinearGnrFet};
use carbon_spice::Circuit;

use crate::error::CoreError;
use crate::table::{num, Table};

/// Per-stage levels of one cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeTrace {
    /// Voltage at the input and after each stage, V.
    pub levels: Vec<f64>,
    /// Distance from the ideal alternating rail at each stage, V.
    pub rail_error: Vec<f64>,
}

/// Results of the cascade experiment.
#[derive(Debug, Clone)]
pub struct Cascade {
    /// Supply voltage, V.
    pub vdd: f64,
    /// The degraded input level, V.
    pub input: f64,
    /// Saturating-device chain.
    pub saturating: CascadeTrace,
    /// Non-saturating-device chain.
    pub non_saturating: CascadeTrace,
}

/// Chain length (stages).
pub const STAGES: usize = 6;

fn chain_levels(
    nfet: Arc<dyn Fet>,
    pfet: Arc<dyn Fet>,
    vdd: f64,
    input: f64,
) -> Result<CascadeTrace, CoreError> {
    let mut ckt = Circuit::new();
    ckt.voltage_source("vdd", "vdd", "0", vdd);
    ckt.voltage_source("vin", "s0", "0", input);
    for k in 0..STAGES {
        let inp = format!("s{k}");
        let out = format!("s{}", k + 1);
        ckt.fet(&format!("mp{k}"), &out, &inp, "vdd", pfet.clone())?;
        ckt.fet(&format!("mn{k}"), &out, &inp, "0", nfet.clone())?;
    }
    let op = ckt.op()?;
    let mut levels = Vec::with_capacity(STAGES + 1);
    let mut rail_error = Vec::with_capacity(STAGES + 1);
    for k in 0..=STAGES {
        let v = op.voltage(&format!("s{k}"))?;
        levels.push(v);
        // Stage k should sit at the rail matching an inverted-k-times
        // logical high input.
        let ideal = if k % 2 == 0 { vdd } else { 0.0 };
        rail_error.push((v - ideal).abs());
    }
    Ok(CascadeTrace { levels, rail_error })
}

/// Runs the cascade experiment at `V_DD = 1 V` with a 0.65·V_DD input.
///
/// # Errors
///
/// Propagates circuit-simulation failures.
pub fn run() -> Result<Cascade, CoreError> {
    let vdd = 1.0;
    let input = 0.65;
    let saturating = chain_levels(
        Arc::new(AlphaPowerFet::fig2_nfet()),
        Arc::new(AlphaPowerFet::fig2_pfet()),
        vdd,
        input,
    )?;
    let non_saturating = chain_levels(
        Arc::new(LinearGnrFet::fig2_nfet()),
        Arc::new(LinearGnrFet::fig2_pfet()),
        vdd,
        input,
    )?;
    Ok(Cascade {
        vdd,
        input,
        saturating,
        non_saturating,
    })
}

impl std::fmt::Display for Cascade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(
            "§II — signal regeneration through a 6-stage inverter chain (degraded 0.65 V input)",
            &["stage", "saturating [V]", "non-saturating [V]"],
        );
        for k in 0..self.saturating.levels.len() {
            t.push_owned_row(vec![
                if k == 0 {
                    "input".into()
                } else {
                    format!("{k}")
                },
                num(self.saturating.levels[k], 3),
                num(self.non_saturating.levels[k], 3),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "final rail error: saturating {:.3} V (restored), non-saturating {:.3} V (no logic levels)",
            self.saturating.rail_error.last().copied().unwrap_or(f64::NAN),
            self.non_saturating.rail_error.last().copied().unwrap_or(f64::NAN)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_chain_restores_the_rails() {
        let c = run().unwrap();
        let last = *c.saturating.rail_error.last().unwrap();
        assert!(last < 0.02, "restored to the rail: error {last}");
        // And restoration happens fast: by stage 2 the error is tiny.
        assert!(
            c.saturating.rail_error[2] < 0.05,
            "{:?}",
            c.saturating.rail_error
        );
    }

    #[test]
    fn non_saturating_chain_decays_to_mid_rail() {
        let c = run().unwrap();
        let last = *c.non_saturating.levels.last().unwrap();
        assert!(
            (last - 0.5).abs() < 0.1,
            "gain < 1 decays toward mid-rail: {last}"
        );
        let final_err = *c.non_saturating.rail_error.last().unwrap();
        assert!(final_err > 0.35, "no logic level: error {final_err}");
    }

    #[test]
    fn degradation_is_monotone_without_gain() {
        let c = run().unwrap();
        // Distance from mid-rail shrinks every stage for the gain-less
        // chain.
        let d: Vec<f64> = c
            .non_saturating
            .levels
            .iter()
            .map(|v| (v - 0.5).abs())
            .collect();
        assert!(d.windows(2).all(|w| w[1] <= w[0] + 1e-9), "{d:?}");
    }

    #[test]
    fn report_renders() {
        let s = run().unwrap().to_string();
        assert!(s.contains("regeneration"));
        assert!(s.contains("no logic levels"));
    }
}
