//! Wafer-scale yield maps.
//!
//! §V's bar for success is wafer-scale: Shulaker et al. "managed to
//! build several simple one-bit computers on one wafer with high
//! yield", and the paper closes with "without such a high yield
//! wafer-scale integration, SWCNT circuits will be an illusional
//! dream." This module turns the per-device statistics into a die map:
//! a circular wafer of dies, each holding one circuit of `N` devices,
//! with the ink purity degrading radially (edge effects are where real
//! wafer processes die first).

use carbon_runtime::Rng;

/// A wafer-level yield model.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferModel {
    /// Wafer diameter in dies (odd numbers centre a die on the axis).
    dies_across: usize,
    /// Semiconducting ink purity at the wafer centre.
    centre_purity: f64,
    /// Purity at the wafer edge (`≤ centre_purity`).
    edge_purity: f64,
    /// Devices per die (one circuit per die).
    devices_per_die: u32,
    /// Mean tubes per device site (Poisson λ of the placement).
    lambda: f64,
}

/// Error building a [`WaferModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct BuildWaferError(String);

impl std::fmt::Display for BuildWaferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid wafer model: {}", self.0)
    }
}

impl std::error::Error for BuildWaferError {}

/// One sampled wafer: a die grid with pass/fail outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferSample {
    dies_across: usize,
    /// `None` outside the circle; `Some(works)` for real dies.
    dies: Vec<Option<bool>>,
}

impl WaferModel {
    /// Creates a wafer model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildWaferError`] for a grid smaller than 3 dies,
    /// purities outside `[0, 1]` or ordered the wrong way, zero devices,
    /// or non-positive λ.
    pub fn new(
        dies_across: usize,
        centre_purity: f64,
        edge_purity: f64,
        devices_per_die: u32,
        lambda: f64,
    ) -> Result<Self, BuildWaferError> {
        if dies_across < 3 {
            return Err(BuildWaferError(format!(
                "wafer needs at least 3 dies across, got {dies_across}"
            )));
        }
        for (name, p) in [
            ("centre purity", centre_purity),
            ("edge purity", edge_purity),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(BuildWaferError(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if edge_purity > centre_purity {
            return Err(BuildWaferError(
                "edge purity cannot exceed centre purity".to_owned(),
            ));
        }
        if devices_per_die == 0 {
            return Err(BuildWaferError(
                "a die needs at least one device".to_owned(),
            ));
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(BuildWaferError(format!("λ must be positive, got {lambda}")));
        }
        Ok(Self {
            dies_across,
            centre_purity,
            edge_purity,
            devices_per_die,
            lambda,
        })
    }

    /// A Shulaker-run wafer: 15 dies across, five-nines ink at the
    /// centre degrading to 99 % at the edge, 178 CNFETs per computer,
    /// Park-density placement.
    pub fn shulaker_run() -> Self {
        Self::new(15, 0.99999, 0.99, 178, 2.3).expect("preset is valid")
    }

    /// Local ink purity at normalized radius `r ∈ [0, 1]` (quadratic
    /// radial roll-off).
    pub fn purity_at(&self, r: f64) -> f64 {
        let r = r.clamp(0.0, 1.0);
        self.centre_purity - (self.centre_purity - self.edge_purity) * r * r
    }

    /// Probability an *occupied, screened* device site is functional at
    /// purity `p`: for Poisson-`λ` tube counts,
    /// `P(all tubes semiconducting | ≥1 tube)
    ///  = (e^(−λ(1−p)) − e^(−λ)) / (1 − e^(−λ))`.
    pub fn device_yield(&self, purity: f64) -> f64 {
        let l = self.lambda;
        ((-l * (1.0 - purity)).exp() - (-l).exp()) / (1.0 - (-l).exp())
    }

    /// Expected die yield at normalized radius `r`.
    pub fn die_yield_at(&self, r: f64) -> f64 {
        self.device_yield(self.purity_at(r))
            .powi(self.devices_per_die as i32)
    }

    /// Expected number of working dies on the wafer.
    pub fn expected_good_dies(&self) -> f64 {
        self.die_coords()
            .into_iter()
            .map(|(_, _, r)| self.die_yield_at(r))
            .sum()
    }

    /// Number of dies that fit the circular wafer.
    pub fn die_count(&self) -> usize {
        self.die_coords().len()
    }

    /// Samples one wafer.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> WaferSample {
        let n = self.dies_across;
        let mut dies = vec![None; n * n];
        for (ix, iy, r) in self.die_coords() {
            let works = rng.next_f64() < self.die_yield_at(r);
            dies[iy * n + ix] = Some(works);
        }
        WaferSample {
            dies_across: n,
            dies,
        }
    }

    /// Grid coordinates and normalized radius of every die inside the
    /// circle.
    fn die_coords(&self) -> Vec<(usize, usize, f64)> {
        let n = self.dies_across;
        let c = (n as f64 - 1.0) / 2.0;
        let mut out = Vec::new();
        for iy in 0..n {
            for ix in 0..n {
                let dx = ix as f64 - c;
                let dy = iy as f64 - c;
                let r = (dx * dx + dy * dy).sqrt() / (c + 0.5);
                if r <= 1.0 {
                    out.push((ix, iy, r));
                }
            }
        }
        out
    }
}

impl WaferSample {
    /// Number of working dies.
    pub fn good_dies(&self) -> usize {
        self.dies.iter().filter(|d| matches!(d, Some(true))).count()
    }

    /// Number of dies on the wafer.
    pub fn total_dies(&self) -> usize {
        self.dies.iter().filter(|d| d.is_some()).count()
    }
}

impl std::fmt::Display for WaferSample {
    /// Renders the classic wafer map: `#` working die, `·` failed die,
    /// blank outside the wafer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.dies_across;
        for iy in 0..n {
            for ix in 0..n {
                let c = match self.dies[iy * n + ix] {
                    Some(true) => '#',
                    Some(false) => '·',
                    None => ' ',
                };
                write!(f, "{c} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::Xoshiro256pp;

    #[test]
    fn centre_outyields_edge() {
        let w = WaferModel::shulaker_run();
        assert!(w.die_yield_at(0.0) > w.die_yield_at(1.0));
        assert!(w.purity_at(0.0) > w.purity_at(1.0));
        assert!(w.die_yield_at(0.0) > 0.9, "five-nines centre works");
        assert!(w.die_yield_at(1.0) < 0.1, "99 % edge fails at 178 FETs");
    }

    #[test]
    fn several_computers_per_wafer() {
        // The §V claim, quantified.
        let w = WaferModel::shulaker_run();
        let expected = w.expected_good_dies();
        assert!(
            expected > 5.0,
            "several working computers expected: {expected:.1} of {}",
            w.die_count()
        );
        let sample = w.sample(&mut Xoshiro256pp::seed_from_u64(7));
        assert!(sample.good_dies() > 3, "sampled {}", sample.good_dies());
    }

    #[test]
    fn sample_tracks_expectation() {
        let w = WaferModel::shulaker_run();
        let mut total = 0usize;
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let runs = 200;
        for _ in 0..runs {
            total += w.sample(&mut rng).good_dies();
        }
        let mean = total as f64 / runs as f64;
        let expected = w.expected_good_dies();
        assert!(
            (mean - expected).abs() < 0.15 * expected,
            "MC {mean:.1} vs analytic {expected:.1}"
        );
    }

    #[test]
    fn device_yield_formula_limits() {
        let w = WaferModel::shulaker_run();
        assert!((w.device_yield(1.0) - 1.0).abs() < 1e-12);
        assert!(
            w.device_yield(0.0) < 0.12,
            "some single-tube survivors only"
        );
        assert!(w.device_yield(0.999) > w.device_yield(0.99));
    }

    #[test]
    fn map_renders_a_circle() {
        let w = WaferModel::shulaker_run();
        let s = w.sample(&mut Xoshiro256pp::seed_from_u64(3));
        let art = s.to_string();
        assert_eq!(art.lines().count(), 15);
        assert!(art.contains('#'));
        // Corners are outside the wafer.
        assert!(art.lines().next().expect("row").starts_with(' '));
        assert_eq!(s.total_dies(), w.die_count());
    }

    #[test]
    fn validation() {
        assert!(WaferModel::new(2, 0.999, 0.99, 10, 2.0).is_err());
        assert!(
            WaferModel::new(9, 0.9, 0.99, 10, 2.0).is_err(),
            "edge > centre"
        );
        assert!(WaferModel::new(9, 1.5, 0.9, 10, 2.0).is_err());
        assert!(WaferModel::new(9, 0.999, 0.99, 0, 2.0).is_err());
        assert!(WaferModel::new(9, 0.999, 0.99, 10, 0.0).is_err());
    }
}
