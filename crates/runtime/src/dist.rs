//! Statistical distributions over the workspace PRNG.
//!
//! The fab/core Monte-Carlos need exactly five shapes: uniform and
//! Bernoulli draws (site screening, VMR survival), normal threshold and
//! alignment dispersion, log-normal on-currents, and Poisson site
//! occupancy. Each distribution validates its parameters at construction
//! ([`DistError`]) so sampling itself is infallible, and sampling is
//! *stateless*: a distribution plus a generator state fully determines
//! the draw, which keeps chunked parallel campaigns bit-reproducible.

use crate::rng::Rng;

/// Error constructing a distribution from non-physical parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError(String);

impl DistError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution: {}", self.0)
    }
}

impl std::error::Error for DistError {}

/// A sampleable distribution producing values of type `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    width: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(DistError::new(format!(
                "uniform needs lo < hi, got [{lo}, {hi})"
            )));
        }
        Ok(Self { lo, width: hi - lo })
    }
}

impl Distribution<f64> for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + self.width * rng.next_f64()
    }
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates a Bernoulli distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] unless `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Result<Self, DistError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(DistError::new(format!(
                "probability must be in [0, 1], got {p}"
            )));
        }
        Ok(Self { p })
    }
}

impl Distribution<bool> for Bernoulli {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_f64() < self.p
    }
}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Generator words one draw consumes: Box–Muller's two uniforms,
    /// whatever the parameters. A [`LogNormal`] draw is one normal
    /// draw, so it consumes the same. A caller that skips a draw it
    /// does not need advances the generator by this many words, and
    /// every later draw is unchanged.
    pub const WORDS: u64 = 2;

    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] unless both are finite and `std_dev ≥ 0`.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, DistError> {
        if !(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0) {
            return Err(DistError::new(format!(
                "normal needs finite mean and σ ≥ 0, got N({mean}, {std_dev})"
            )));
        }
        Ok(Self { mean, std_dev })
    }

    /// One standard normal variate via the Box–Muller transform.
    ///
    /// Stateless by design: the second Box–Muller variate is discarded
    /// so a draw consumes a fixed number of generator words
    /// ([`Normal::WORDS`]), keeping chunk boundaries reproducible.
    fn standard<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        // u1 ∈ (0, 1] keeps the log finite.
        let u1 = 1.0 - rng.next_f64();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * Self::standard(rng)
    }
}

/// Log-normal distribution: `exp(N(µ, σ))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal distribution with the given location `mu`
    /// and scale `sigma` *of the underlying normal*.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] unless both are finite and `sigma ≥ 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        Ok(Self {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Poisson distribution with rate `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
    /// `e^{−λ}` cached for the small-λ inversion loop.
    exp_neg_lambda: f64,
}

/// Above this rate the multiplication method underflows and a rounded
/// normal approximation (error `O(1/√λ)`) takes over — far beyond any
/// site-occupancy λ the fab models use.
const POISSON_NORMAL_CUTOVER: f64 = 64.0;

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] unless `λ` is finite and positive.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(DistError::new(format!(
                "Poisson rate must be positive, got {lambda}"
            )));
        }
        Ok(Self {
            lambda,
            exp_neg_lambda: (-lambda).exp(),
        })
    }

    /// The rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution<f64> for Poisson {
    /// Returns the count as `f64` (mirroring the former `rand_distr`
    /// interface the fab models were written against).
    // Hot in the fab Monte-Carlo loop (one site count per sampled
    // device). Left to its heuristics, LLVM inlines it or not depending
    // on unrelated code in the same monomorphized executor chain, and
    // the out-of-line call cost ~10 % of an adaptive fig7 campaign on a
    // 2-vCPU x86-64 host.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lambda >= POISSON_NORMAL_CUTOVER {
            let n = Normal::new(self.lambda, self.lambda.sqrt()).expect("valid by construction");
            return n.sample(rng).round().max(0.0);
        }
        // Knuth's multiplication method: count uniforms until the
        // running product drops below e^{−λ}.
        let mut k = 0u64;
        let mut prod = rng.next_f64();
        while prod > self.exp_neg_lambda {
            k += 1;
            prod *= rng.next_f64();
        }
        k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RngCore, Xoshiro256pp};

    fn moments(draws: &[f64]) -> (f64, f64) {
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn normal_moments_within_tolerance() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let d = Normal::new(0.35, 0.07).unwrap();
        let draws: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = moments(&draws);
        assert!((mean - 0.35).abs() < 2e-3, "mean {mean}");
        assert!((var.sqrt() - 0.07).abs() < 2e-3, "σ {}", var.sqrt());
    }

    #[test]
    fn uniform_covers_its_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let d = Uniform::new(-1.0, 3.0).unwrap();
        let draws: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&x| (-1.0..3.0).contains(&x)));
        let (mean, var) = moments(&draws);
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // Var of U(−1, 3) is 4²/12.
        assert!((var - 16.0 / 12.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let d = Bernoulli::new(0.3).unwrap();
        let hits = (0..50_000).filter(|_| d.sample(&mut rng)).count();
        let f = hits as f64 / 50_000.0;
        assert!((f - 0.3).abs() < 0.01, "frequency {f}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let d = LogNormal::new((10e-6f64).ln(), 0.4).unwrap();
        let mut draws: Vec<f64> = (0..20_001).map(|_| d.sample(&mut rng)).collect();
        draws.sort_by(f64::total_cmp);
        let median = draws[draws.len() / 2];
        assert!((median / 10e-6 - 1.0).abs() < 0.03, "median {median:e}");
        assert!(draws.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn poisson_mean_equals_lambda_small_and_large() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        for lambda in [0.2, 2.3, 10.0, 100.0] {
            let d = Poisson::new(lambda).unwrap();
            let draws: Vec<f64> = (0..30_000).map(|_| d.sample(&mut rng)).collect();
            let (mean, var) = moments(&draws);
            assert!(
                (mean - lambda).abs() < 0.05 * lambda + 0.02,
                "λ = {lambda}: mean {mean}"
            );
            // Poisson variance equals the rate.
            assert!(
                (var - lambda).abs() < 0.1 * lambda + 0.05,
                "λ = {lambda}: var {var}"
            );
            assert!(draws.iter().all(|&k| k >= 0.0 && k.fract() == 0.0));
        }
    }

    #[test]
    fn normal_and_lognormal_draws_consume_normal_words() {
        let mut skipped = Xoshiro256pp::seed_from_u64(12);
        for _ in 0..Normal::WORDS {
            skipped.next_u64();
        }
        let mut drawn = Xoshiro256pp::seed_from_u64(12);
        Normal::new(0.35, 0.07).unwrap().sample(&mut drawn);
        assert_eq!(drawn, skipped, "one Normal draw");
        for _ in 0..Normal::WORDS {
            skipped.next_u64();
        }
        LogNormal::new((10e-6f64).ln(), 0.4)
            .unwrap()
            .sample(&mut drawn);
        assert_eq!(drawn, skipped, "one LogNormal draw");
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = Normal::new(1.0, 2.0).unwrap();
        let a: Vec<f64> = {
            let mut rng = Xoshiro256pp::seed_from_u64(1);
            (0..64).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256pp::seed_from_u64(1);
            (0..64).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
        assert!(Bernoulli::new(1.5).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, -0.1).is_err());
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }
}
