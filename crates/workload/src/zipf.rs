//! Zipf-distributed sampling.
//!
//! Object popularity and client activity in storage workloads are famously
//! heavy-tailed; the classic model is the Zipf distribution, where the
//! `r`-th most popular of `n` items is drawn with probability proportional
//! to `1 / r^s`. Implemented from scratch (inverse-CDF table + binary
//! search) to avoid extra dependencies.
//!
//! For million-client populations the O(log n) binary search per draw
//! dominates generation time, so this module also provides an
//! [`AliasTable`] (Vose's method): O(n) to build, O(1) per sample, over
//! any finite discrete distribution. `tests/workload_props.rs` proves the
//! alias sampler agrees with the inverse-CDF sampler both in expectation
//! (exactly, by reconstructing the input probabilities from the table) and
//! in distribution (chi-square bound on large sample histograms).

use rand::Rng;

/// A Zipf sampler over ranks `0..n`.
///
/// Rank `0` is the most popular item. `s = 0` degenerates to the uniform
/// distribution; `s = 1` is the classic Zipf law.
///
/// # Example
///
/// ```
/// use georep_workload::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut hits = [0u32; 100];
/// for _ in 0..10_000 {
///     hits[zipf.sample(&mut rng)] += 1;
/// }
/// // Rank 0 is sampled far more often than rank 99.
/// assert!(hits[0] > 20 * hits[99].max(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[r]` = P(rank ≤ r).
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be non-negative, got {s}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against rounding keeping the last entry below 1.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    #[allow(clippy::len_without_is_empty)] // n ≥ 1 by construction
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Probability of rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn probability(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }

    /// Draws a rank.
    pub fn sample<R>(&self, rng: &mut R) -> usize
    where
        R: Rng + rand::RngExt + ?Sized,
    {
        let u: f64 = rng.random();
        // First index whose cumulative probability reaches u.
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Builds the O(1)-per-draw alias sampler for this distribution.
    pub fn alias(&self) -> AliasTable {
        let probs: Vec<f64> = (0..self.len()).map(|r| self.probability(r)).collect();
        AliasTable::new(&probs).expect("Zipf probabilities are a valid distribution")
    }
}

/// An O(1) categorical sampler built with Vose's alias method.
///
/// Each of the `n` columns holds a coin: with probability `prob[i]` the
/// draw stays in column `i`, otherwise it lands on `alias[i]`. A sample is
/// one uniform column pick plus one coin flip — no search — which is what
/// lets the sharded generators draw a client per access at million-client
/// population sizes without an O(log n) CDF walk.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (not necessarily
    /// normalized). Returns `None` if `weights` is empty, contains a
    /// negative or non-finite entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let n = weights.len();
        // Scale so the average column holds exactly 1.0: `scaled[i]` is how
        // many "column slots" worth of probability item i owns.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut prob = vec![0.0; n];
        let mut alias: Vec<usize> = (0..n).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        // Classic pairing: each underfull column is topped up by exactly
        // one overfull item, which keeps both stacks shrinking.
        while !small.is_empty() && !large.is_empty() {
            let (s, l) = (small.pop().unwrap(), large.pop().unwrap());
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Whatever remains is full up to rounding: its coin never leaves.
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        Some(AliasTable { prob, alias })
    }

    /// Draws a category: one uniform column pick, one coin flip.
    pub fn sample<R>(&self, rng: &mut R) -> usize
    where
        R: Rng + rand::RngExt + ?Sized,
    {
        let col = rng.random_range(0..self.prob.len());
        let u: f64 = rng.random();
        if u < self.prob[col] {
            col
        } else {
            self.alias[col]
        }
    }

    /// The exact probability the table assigns to category `i`,
    /// reconstructed from the columns:
    /// `p(i) = (prob[i] + Σ_{j: alias[j] = i} (1 − prob[j])) / n`.
    ///
    /// This is the sampler's *true* per-draw distribution — the
    /// "exactly in expectation" contract the property suite checks against
    /// the inverse-CDF probabilities.
    pub fn probability(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut mass = self.prob[i];
        for (j, &a) in self.alias.iter().enumerate() {
            if a == i && j != i {
                mass += 1.0 - self.prob[j];
            }
        }
        mass / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (0..50).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_zipf_ratios() {
        let z = Zipf::new(100, 1.0);
        // P(rank 0) / P(rank 1) = 2 for s = 1.
        assert!((z.probability(0) / z.probability(1) - 2.0).abs() < 1e-9);
        // P(rank 0) / P(rank 9) = 10.
        assert!((z.probability(0) / z.probability(9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_theoretical() {
        let z = Zipf::new(20, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut hits = [0u32; 20];
        for _ in 0..n {
            hits[z.sample(&mut rng)] += 1;
        }
        for (r, &hit) in hits.iter().enumerate() {
            let expected = z.probability(r) * n as f64;
            let got = hit as f64;
            assert!(
                (got - expected).abs() < expected.max(50.0) * 0.15,
                "rank {r}: got {got}, expected {expected:.0}"
            );
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exponent_rejected() {
        let _ = Zipf::new(5, -1.0);
    }

    #[test]
    fn alias_table_reconstructs_the_input_distribution_exactly_enough() {
        let z = Zipf::new(64, 1.1);
        let table = z.alias();
        for r in 0..64 {
            let diff = (table.probability(r) - z.probability(r)).abs();
            assert!(diff < 1e-12, "rank {r}: drift {diff}");
        }
    }

    #[test]
    fn alias_table_rejects_bad_weights() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -0.5]).is_none());
        assert!(AliasTable::new(&[1.0, f64::INFINITY]).is_none());
        assert!(AliasTable::new(&[0.0, 3.0]).is_some());
    }

    #[test]
    fn alias_table_never_samples_zero_weight_items() {
        let table = AliasTable::new(&[0.0, 5.0, 0.0, 1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5_000 {
            let i = table.sample(&mut rng);
            assert!(i == 1 || i == 3, "sampled zero-weight item {i}");
        }
        assert_eq!(table.probability(0), 0.0);
        assert_eq!(table.probability(2), 0.0);
    }

    #[test]
    fn alias_sampling_tracks_the_zipf_histogram() {
        let z = Zipf::new(20, 1.2);
        let table = z.alias();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut hits = [0u32; 20];
        for _ in 0..n {
            hits[table.sample(&mut rng)] += 1;
        }
        for (r, &hit) in hits.iter().enumerate() {
            let expected = z.probability(r) * n as f64;
            let got = hit as f64;
            assert!(
                (got - expected).abs() < expected.max(50.0) * 0.15,
                "rank {r}: got {got}, expected {expected:.0}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_alias_probabilities_match_weights(
            weights in prop::collection::vec(0.0..10.0f64, 1..60)
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = AliasTable::new(&weights).unwrap();
            let total: f64 = weights.iter().sum();
            let mass: f64 = (0..weights.len()).map(|i| table.probability(i)).sum();
            prop_assert!((mass - 1.0).abs() < 1e-9, "total mass {mass}");
            for (i, &w) in weights.iter().enumerate() {
                let want = w / total;
                prop_assert!(
                    (table.probability(i) - want).abs() < 1e-9,
                    "item {}: table {} vs weights {}", i, table.probability(i), want
                );
            }
        }

        #[test]
        fn prop_samples_in_range(n in 1usize..200, s in 0.0..3.0f64, seed in 0u64..100) {
            let z = Zipf::new(n, s);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..100 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn prop_probabilities_decreasing(n in 2usize..100, s in 0.1..3.0f64) {
            let z = Zipf::new(n, s);
            for r in 1..n {
                prop_assert!(z.probability(r) <= z.probability(r - 1) + 1e-12);
            }
        }
    }
}
