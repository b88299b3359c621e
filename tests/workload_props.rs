//! Property suite for the workload generators.
//!
//! Two families of claims:
//!
//! * **Alias tables are the same distribution** — [`AliasTable`] (Vose's
//!   O(1) sampler, the batched generator's hot path) must agree with the
//!   inverse-CDF samplers it replaces ([`Zipf::sample`],
//!   [`Population::sample`]): exactly in expectation (the per-index
//!   probabilities reconstructed from the table equal the source
//!   distribution's) and in distribution under a chi-square bound.
//! * **Batching is a pure delivery choice** — a [`ShardedStream`] yields
//!   the identical event sequence whether drained in one call or in chunks
//!   of any size.

use georep_workload::{AliasTable, Population, ShardedStream, StreamConfig, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pearson's chi-square statistic of observed counts against expected.
fn chi_square(observed: &[u64], expected: &[f64]) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| {
            let d = o as f64 - e;
            d * d / e
        })
        .sum()
}

#[test]
fn alias_zipf_matches_inverse_cdf_in_distribution() {
    const N: usize = 40;
    const DRAWS: usize = 120_000;
    let zipf = Zipf::new(N, 1.2);
    let alias = zipf.alias();

    let mut counts_cdf = vec![0u64; N];
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..DRAWS {
        counts_cdf[zipf.sample(&mut rng)] += 1;
    }
    let mut counts_alias = vec![0u64; N];
    let mut rng = StdRng::seed_from_u64(0xA11A5);
    for _ in 0..DRAWS {
        counts_alias[alias.sample(&mut rng)] += 1;
    }

    // Each sampler against the analytic Zipf pmf. 39 degrees of freedom:
    // the 99.9th percentile is ~72.1, so 90 only fails on real skew (the
    // seeds are fixed, so the statistic is deterministic anyway).
    let expected: Vec<f64> = (0..N).map(|r| zipf.probability(r) * DRAWS as f64).collect();
    let chi_cdf = chi_square(&counts_cdf, &expected);
    let chi_alias = chi_square(&counts_alias, &expected);
    assert!(
        chi_cdf < 90.0,
        "inverse-CDF sampler off-distribution: {chi_cdf:.1}"
    );
    assert!(
        chi_alias < 90.0,
        "alias sampler off-distribution: {chi_alias:.1}"
    );

    // And the two samplers against each other (two-sample chi-square).
    let chi_pair: f64 = counts_cdf
        .iter()
        .zip(&counts_alias)
        .map(|(&a, &b)| {
            let (a, b) = (a as f64, b as f64);
            (a - b) * (a - b) / (a + b)
        })
        .sum();
    assert!(
        chi_pair < 90.0,
        "samplers disagree in distribution: {chi_pair:.1}"
    );
}

#[test]
fn alias_population_matches_inverse_cdf_in_distribution() {
    const DRAWS: usize = 100_000;
    let pop = Population::zipf_skewed(32, 1.1, 0x5EED);
    let alias = pop.alias();
    let mut counts = vec![0u64; pop.len()];
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..DRAWS {
        counts[alias.sample(&mut rng)] += 1;
    }
    let expected: Vec<f64> = (0..pop.len())
        .map(|c| pop.probability(c) * DRAWS as f64)
        .collect();
    let chi = chi_square(&counts, &expected);
    assert!(
        chi < 90.0,
        "population alias sampler off-distribution: {chi:.1}"
    );
}

proptest! {
    /// The alias table reconstructs every source probability exactly (up to
    /// float rounding): the two samplers agree in expectation, not just
    /// empirically.
    #[test]
    fn prop_alias_probabilities_are_exact(
        weights in prop::collection::vec(0.01f64..100.0, 1..80)
    ) {
        let table = AliasTable::new(&weights).expect("positive finite weights");
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = table.probability(i);
            prop_assert!(
                (got - expect).abs() < 1e-9,
                "index {i}: table says {got}, weights say {expect}"
            );
        }
    }

    /// Same exactness through the Zipf and Population constructors.
    #[test]
    fn prop_zipf_and_population_alias_expectations_match(
        n in 2usize..64,
        s in 0.8f64..1.8,
        seed in 0u64..1_000,
    ) {
        let zipf = Zipf::new(n, s);
        let alias = zipf.alias();
        for r in 0..n {
            prop_assert!((alias.probability(r) - zipf.probability(r)).abs() < 1e-12);
        }
        let pop = Population::zipf_skewed(n, s, seed);
        let alias = pop.alias();
        for c in 0..n {
            prop_assert!((alias.probability(c) - pop.probability(c)).abs() < 1e-12);
        }
    }

    /// Chunked draining reproduces the one-shot event sequence for every
    /// batch size, and all but the final chunk are exactly full.
    #[test]
    fn prop_chunked_stream_equals_one_shot(
        batch in 1usize..600,
        seed in 0u64..1_000,
    ) {
        let pop = Population::zipf_skewed(24, 1.1, seed);
        let cfg = StreamConfig { rate_per_ms: 0.8, seed, ..Default::default() };
        let stream = ShardedStream::new(&pop, &cfg, 2_500.0, 8);
        let whole = stream.generate();
        let chunks: Vec<_> = stream.chunks(batch).collect();
        for c in &chunks[..chunks.len().saturating_sub(1)] {
            prop_assert_eq!(c.len(), batch);
        }
        let rejoined: Vec<_> = chunks.into_iter().flatten().collect();
        prop_assert_eq!(rejoined, whole);
    }
}
