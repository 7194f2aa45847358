//! Numbers in EXPERIMENTS.md's paper-vs-measured table held to a
//! reference computed a second way, within a stated bound.
//!
//! E7, the §V Park campaign: the 10,000-device Monte-Carlo against the
//! closed form of its own model. A site receives Poisson(λ) tubes, each
//! semiconducting with probability p, so
//!
//! * empty = e^(−λ);
//! * functional = Σₙ≥₁ e^(−λ) λⁿ pⁿ / n! = e^(−λ)·(e^(λp) − 1);
//! * metallic short = 1 − e^(−λ(1−p)) (at least one metallic tube);
//! * a working device's V_T is N(0.35 V, 0.07 V).
//!
//! Each measured value must sit inside its 95 % interval: 1.96·√(q(1−q)/n)
//! for a fraction q of n sites, 1.96·σ/√n_f for the mean V_T of n_f
//! working devices, and 1.96·σ/√(2(n_f − 1)) for their σ.

use carbon_electronics::experiments::fig7_stats;

/// Mean tubes per site (`SelfAssembly::park_high_density`).
const LAMBDA: f64 = 2.3;
/// Semiconducting purity of the Park ink.
const PURITY: f64 = 0.999;
/// Threshold-voltage mean and dispersion, V.
const VT_MEAN: f64 = 0.35;
const VT_SIGMA: f64 = 0.07;
/// Two-sided 95 % normal quantile, as the table states it.
const Z: f64 = 1.96;

fn within(name: &str, measured: f64, expected: f64, bound: f64) {
    assert!(
        (measured - expected).abs() <= bound,
        "{name}: measured {measured:.5}, closed form {expected:.5}, bound ±{bound:.5}"
    );
}

#[test]
fn e7_campaign_sits_inside_the_95_percent_interval_of_its_closed_form() {
    let fig = fig7_stats::run().expect("fig7 runs");
    let n = fig.population.len() as f64;
    let empty = (-LAMBDA).exp();
    let functional = empty * ((LAMBDA * PURITY).exp() - 1.0);
    let short = 1.0 - (-LAMBDA * (1.0 - PURITY)).exp();
    assert!((empty + functional + short - 1.0).abs() < 1e-12);

    let [measured_functional, measured_short, measured_empty] = fig.fractions;
    for (name, measured, q) in [
        ("functional", measured_functional, functional),
        ("short", measured_short, short),
        ("empty", measured_empty, empty),
    ] {
        within(name, measured, q, Z * (q * (1.0 - q) / n).sqrt());
    }

    let n_f = fig.population.count_functional() as f64;
    let (vt_mean, vt_sigma) = fig.vt_stats;
    within("V_T mean", vt_mean, VT_MEAN, Z * VT_SIGMA / n_f.sqrt());
    within(
        "V_T sigma",
        vt_sigma,
        VT_SIGMA,
        Z * VT_SIGMA / (2.0 * (n_f - 1.0)).sqrt(),
    );
}
