//! Getting tubes onto the wafer: aligned growth and self-assembly.
//!
//! §V describes the two routes this module models:
//!
//! * [`AlignedGrowth`] — CVD growth on ST-cut quartz, where atomic steps
//!   guide tubes into near-perfect alignment (the Shulaker computer's
//!   substrate): characterized by a linear tube density and an angular
//!   misalignment spread.
//! * [`SelfAssembly`] — Park et al.'s chemical self-assembly into
//!   predefined HfO₂ trenches: each site captures a Poisson-distributed
//!   number of tubes, giving the empty/single/multiple site statistics
//!   that set device yield before any electrical consideration.

use carbon_runtime::{Distribution, Normal, Poisson, Rng};

/// Aligned CVD growth on quartz.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedGrowth {
    /// Tubes per micron across the growth direction.
    density_per_um: f64,
    /// Standard deviation of the alignment angle, degrees.
    angle_sigma_deg: f64,
}

/// Error building a placement model from non-physical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildPlacementError(String);

impl std::fmt::Display for BuildPlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid placement model: {}", self.0)
    }
}

impl std::error::Error for BuildPlacementError {}

impl AlignedGrowth {
    /// Creates a growth model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlacementError`] unless density and spread are
    /// positive and finite.
    pub fn new(density_per_um: f64, angle_sigma_deg: f64) -> Result<Self, BuildPlacementError> {
        if !(density_per_um.is_finite() && density_per_um > 0.0) {
            return Err(BuildPlacementError(format!(
                "density must be positive, got {density_per_um}/µm"
            )));
        }
        if !(angle_sigma_deg.is_finite() && angle_sigma_deg >= 0.0) {
            return Err(BuildPlacementError(format!(
                "angle spread must be ≥ 0, got {angle_sigma_deg}°"
            )));
        }
        Ok(Self {
            density_per_um,
            angle_sigma_deg,
        })
    }

    /// The quartz-substrate recipe behind the CNT computer: ~5 tubes/µm
    /// with sub-degree alignment.
    pub fn quartz_st_cut() -> Self {
        Self::new(5.0, 0.5).expect("preset is valid")
    }

    /// Expected number of tubes crossing a device of the given width
    /// (µm).
    pub fn expected_tubes(&self, width_um: f64) -> f64 {
        self.density_per_um * width_um
    }

    /// Samples the number of tubes crossing a device of width
    /// `width_um` (Poisson) and their alignment angles (normal,
    /// degrees).
    pub fn sample_device<R: Rng + ?Sized>(&self, rng: &mut R, width_um: f64) -> Vec<f64> {
        let lambda = self.expected_tubes(width_um).max(1e-12);
        let n = Poisson::new(lambda).expect("positive lambda").sample(rng) as usize;
        let normal = Normal::new(0.0, self.angle_sigma_deg.max(1e-9)).expect("valid sigma");
        (0..n).map(|_| normal.sample(rng)).collect()
    }

    /// Fraction of tubes whose misalignment exceeds `limit_deg`
    /// (two-sided), from the Gaussian model.
    pub fn misaligned_fraction(&self, limit_deg: f64) -> f64 {
        if self.angle_sigma_deg == 0.0 {
            return 0.0;
        }
        let z = limit_deg / self.angle_sigma_deg;
        erfc_half(z)
    }
}

/// Two-sided Gaussian tail probability `P(|X| > z·σ)` via
/// Abramowitz–Stegun 7.1.26.
fn erfc_half(z: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * z / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    (poly * (-(z * z) / 2.0).exp()).clamp(0.0, 1.0)
}

/// Park-style chemical self-assembly into predefined trenches.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfAssembly {
    /// Tubes captured per site, built once: its λ is the mean.
    tubes: Poisson,
}

/// Site-occupancy statistics of a self-assembly run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Fraction of empty sites.
    pub empty: f64,
    /// Fraction of sites with exactly one tube.
    pub single: f64,
    /// Fraction with more than one tube.
    pub multiple: f64,
}

impl SelfAssembly {
    /// Creates an assembly model with mean occupancy `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlacementError`] unless `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, BuildPlacementError> {
        let tubes = Poisson::new(lambda).map_err(|_| {
            BuildPlacementError(format!(
                "mean site occupancy must be positive, got {lambda}"
            ))
        })?;
        Ok(Self { tubes })
    }

    /// The Park et al. recipe: ~90 % of sites occupied
    /// (`λ ≈ 2.3 → P(0) ≈ 10 %`).
    pub fn park_high_density() -> Self {
        Self::new(2.3).expect("preset is valid")
    }

    /// Analytic occupancy fractions from the Poisson model.
    pub fn occupancy(&self) -> Occupancy {
        let lambda = self.tubes.lambda();
        let p0 = (-lambda).exp();
        let p1 = lambda * p0;
        Occupancy {
            empty: p0,
            single: p1,
            multiple: (1.0 - p0 - p1).max(0.0),
        }
    }

    /// Samples the tube count of one site.
    pub fn sample_site<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.tubes.sample(rng) as usize
    }

    /// Samples `n` sites and returns the empirical occupancy.
    pub fn sample_array<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Occupancy {
        let mut counts = [0usize; 3];
        for _ in 0..n {
            let k = self.sample_site(rng).min(2);
            counts[k] += 1;
        }
        Occupancy {
            empty: counts[0] as f64 / n as f64,
            single: counts[1] as f64 / n as f64,
            multiple: counts[2] as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carbon_runtime::Xoshiro256pp;

    #[test]
    fn quartz_growth_is_well_aligned() {
        let g = AlignedGrowth::quartz_st_cut();
        assert!(g.misaligned_fraction(2.0) < 0.01, "sub-degree alignment");
        assert!((g.expected_tubes(2.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_tube_counts_follow_density() {
        let g = AlignedGrowth::quartz_st_cut();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let total: usize = (0..2000)
            .map(|_| g.sample_device(&mut rng, 1.0).len())
            .sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 5.0).abs() < 0.3, "mean tubes {mean}");
    }

    #[test]
    fn wider_angle_spread_misaligns_more() {
        let tight = AlignedGrowth::new(5.0, 0.5).unwrap();
        let loose = AlignedGrowth::new(5.0, 5.0).unwrap();
        assert!(loose.misaligned_fraction(2.0) > 10.0 * tight.misaligned_fraction(2.0));
    }

    #[test]
    fn park_occupancy_matches_poisson() {
        let a = SelfAssembly::park_high_density();
        let occ = a.occupancy();
        assert!((occ.empty - 0.1).abs() < 0.02, "≈10 % empty: {}", occ.empty);
        assert!((occ.empty + occ.single + occ.multiple - 1.0).abs() < 1e-12);
        assert!(occ.multiple > occ.single * 0.5, "high λ → many doubles");
    }

    #[test]
    fn empirical_occupancy_converges_to_analytic() {
        let a = SelfAssembly::new(1.0).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let emp = a.sample_array(&mut rng, 20_000);
        let ana = a.occupancy();
        assert!((emp.empty - ana.empty).abs() < 0.02);
        assert!((emp.single - ana.single).abs() < 0.02);
        assert!((emp.multiple - ana.multiple).abs() < 0.02);
    }

    #[test]
    fn low_density_assembly_leaves_sites_empty() {
        let sparse = SelfAssembly::new(0.2).unwrap();
        assert!(sparse.occupancy().empty > 0.8);
    }

    #[test]
    fn validation() {
        assert!(AlignedGrowth::new(0.0, 1.0).is_err());
        assert!(AlignedGrowth::new(5.0, -1.0).is_err());
        assert!(SelfAssembly::new(0.0).is_err());
        assert!(SelfAssembly::new(f64::NAN).is_err());
    }

    #[test]
    fn gaussian_tail_sanity() {
        assert!((erfc_half(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc_half(1.96) - 0.05).abs() < 0.005);
        assert!(erfc_half(5.0) < 1e-5);
    }
}
