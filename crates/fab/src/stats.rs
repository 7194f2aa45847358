//! Small statistics helpers shared by the fabrication models.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n − 1 denominator); 0 for fewer than two
/// samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// The `ps`-th percentiles (each in `0..=100`, ascending) of `xs`, by
/// linear interpolation between the order statistics either side of
/// each rank: the value that sorting `xs` ascending and interpolating
/// gives, bit for bit, without sorting it.
///
/// Each percentile selects its lower order statistic with
/// `select_nth_unstable_by` over the part of `xs` not already below an
/// earlier one, and takes its upper one as the minimum of what lies
/// above. Samples are ordered by [`f64::total_cmp`], so the result is a
/// function of the values alone, not of their order; `xs` is left
/// permuted.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN, or if a `p` is outside
/// `[0, 100]` or below the one before it.
pub fn percentiles<const N: usize>(xs: &mut [f64], ps: [f64; N]) -> [f64; N] {
    assert!(!xs.is_empty(), "percentile of empty data");
    assert!(!xs.iter().any(|x| x.is_nan()), "percentile of NaN data");
    let last = (xs.len() - 1) as f64;
    // Invariant: xs[..from] are the `from` smallest samples.
    let mut from = 0;
    let mut previous = 0.0;
    ps.map(|p| {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        assert!(p >= previous, "percentiles must be ascending");
        previous = p;
        let rank = p / 100.0 * last;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        xs[from..].select_nth_unstable_by(lo - from, f64::total_cmp);
        from = lo;
        if lo == hi {
            xs[lo]
        } else {
            let upper = xs[hi..]
                .iter()
                .copied()
                .min_by(f64::total_cmp)
                .expect("hi is a valid index");
            let f = rank - lo as f64;
            xs[lo] * (1.0 - f) + upper * f
        }
    })
}

/// The `p`-th percentile (0..=100) of `xs`: [`percentiles`] on a copy.
///
/// # Panics
///
/// As [`percentiles`].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let [value] = percentiles(&mut xs.to_vec(), [p]);
    value
}

/// Histogram with `bins` equal-width bins over `[lo, hi]`; returns bin
/// centres and counts. Out-of-range samples clamp to the edge bins.
///
/// # Panics
///
/// Panics if `bins == 0` or `hi <= lo`.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0, "need at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let width = (hi - lo) / bins as f64;
    let centres = (0..bins).map(|k| lo + (k as f64 + 0.5) * width).collect();
    let mut counts = vec![0usize; bins];
    for &x in xs {
        let k = (((x - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        counts[k] += 1;
    }
    (centres, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138).abs() < 1e-3);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    fn percentiles_match_percentile() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0];
        let ps = [0.0, 5.0, 25.0, 25.0, 50.0, 77.7, 95.0, 100.0];
        let read = super::percentiles(&mut xs.to_vec(), ps);
        for (p, value) in ps.into_iter().zip(read) {
            assert_eq!(value.to_bits(), percentile(&xs, p).to_bits(), "p = {p}");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn percentiles_reject_descending_reads() {
        let _ = super::percentiles(&mut [1.0, 2.0, 3.0], [50.0, 10.0]);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [0.1, 0.1, 0.5, 0.9, -3.0, 7.0];
        let (centres, counts) = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(centres, vec![0.25, 0.75]);
        // 0.5 lands exactly on the bin edge and goes to the upper bin.
        assert_eq!(counts, vec![3, 3]);
        assert_eq!(counts.iter().sum::<usize>(), xs.len());
    }

    mod props {
        use crate::stats::percentiles;
        use carbon_runtime::prop::prelude::*;
        use carbon_runtime::{Rng, Xoshiro256pp};

        /// Sort, then interpolate: the value `percentiles` must equal.
        fn sorted_reference(xs: &[f64], p: f64) -> f64 {
            let mut sorted = xs.to_vec();
            sorted.sort_by(f64::total_cmp);
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            if lo == hi {
                sorted[lo]
            } else {
                let f = rank - lo as f64;
                sorted[lo] * (1.0 - f) + sorted[hi] * f
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn selection_equals_sorting(
                seed in 0u64..u64::MAX,
                len in 1usize..4001,
                pool_log2 in 0u32..13,
                random_p in 0.0f64..100.0,
            ) {
                // Samples come from a pool of 2^pool_log2 values with
                // both signed zeros in it, so most cases repeat values.
                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let mut pool = vec![0.0, -0.0];
                pool.extend((0..1usize << pool_log2).map(|_| rng.gen_range_f64(-1e3, 1e3)));
                let xs: Vec<f64> = (0..len)
                    .map(|_| pool[rng.gen_range_usize(0..pool.len())])
                    .collect();
                let mut ps = [0.0, 5.0, 10.0, 50.0, 90.0, 95.0, 100.0, random_p];
                ps.sort_by(f64::total_cmp);
                let selected = percentiles(&mut xs.clone(), ps);
                for (p, value) in ps.into_iter().zip(selected) {
                    let sorted = sorted_reference(&xs, p);
                    prop_assert!(
                        value.to_bits() == sorted.to_bits(),
                        "p = {p}: selected {value}, sorted {sorted}"
                    );
                }
            }
        }
    }
}
