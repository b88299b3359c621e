//! Per-client access-rate distributions.
//!
//! A [`Population`] assigns every client a non-negative activity weight and
//! samples clients proportionally. Several constructors model the
//! populations the paper's scenarios need: uniform activity, Zipf-skewed
//! heavy users, region-concentrated demand (built from a
//! [`georep_net::topology::Topology`]), and mixtures for modelling gradual
//! drift between two demand patterns.

use georep_net::topology::Topology;
use rand::{Rng, RngExt};

use crate::zipf::{AliasTable, Zipf};

/// A sampling distribution over client indices `0..n`.
///
/// # Example
///
/// ```
/// use georep_workload::Population;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let pop = Population::from_weights(vec![3.0, 1.0]).unwrap();
/// let mut rng = StdRng::seed_from_u64(0);
/// let heavy = (0..1000).filter(|_| pop.sample(&mut rng) == 0).count();
/// assert!((700..800).contains(&heavy), "client 0 drew {heavy}/1000");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    weights: Vec<f64>,
    /// Cumulative weights for O(log n) sampling.
    cdf: Vec<f64>,
}

impl Population {
    /// Every client equally active.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "population needs at least one client");
        Self::from_weights(vec![1.0; n]).expect("uniform weights are valid")
    }

    /// Activity follows a Zipf law over a randomly-permuted ranking, so the
    /// heavy clients are scattered across the index space.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative.
    pub fn zipf_skewed(n: usize, s: f64, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert!(n > 0, "population needs at least one client");
        let zipf = Zipf::new(n, s);
        let mut ranks: Vec<usize> = (0..n).collect();
        // Fisher–Yates with a seeded RNG.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            ranks.swap(i, j);
        }
        let weights: Vec<f64> = (0..n).map(|i| zipf.probability(ranks[i])).collect();
        Self::from_weights(weights).expect("zipf weights are valid")
    }

    /// Activity proportional to a per-region multiplier: client `i` of the
    /// topology gets the multiplier of its region. Unlisted regions get
    /// weight zero. Useful for "all the demand is in Europe tonight"
    /// scenarios.
    ///
    /// # Panics
    ///
    /// Panics if `region_weights` is shorter than the topology's region
    /// list, or if no client ends up with positive weight.
    pub fn region_weighted(topology: &Topology, region_weights: &[f64]) -> Self {
        assert!(
            region_weights.len() >= topology.regions().len(),
            "need a weight for each of the {} regions",
            topology.regions().len()
        );
        let weights: Vec<f64> = topology
            .nodes()
            .iter()
            .map(|n| region_weights[n.region].max(0.0))
            .collect();
        Self::from_weights(weights).expect("at least one region must have positive weight")
    }

    /// Builds a population from explicit weights.
    ///
    /// Returns `None` if `weights` is empty, contains a negative or
    /// non-finite entry, or sums to zero.
    pub fn from_weights(weights: Vec<f64>) -> Option<Self> {
        if weights.is_empty() {
            return None;
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cdf.push(acc);
        }
        if acc <= 0.0 {
            return None;
        }
        Some(Population { weights, cdf })
    }

    /// A pointwise blend: client weights are
    /// `(1 − t) · self + t · other`. `t = 0` is `self`, `t = 1` is
    /// `other`; intermediate values model a population drifting from one
    /// pattern to the other.
    ///
    /// # Panics
    ///
    /// Panics if the two populations cover different client counts or `t`
    /// is outside `[0, 1]`.
    pub fn blend(&self, other: &Population, t: f64) -> Population {
        assert_eq!(
            self.len(),
            other.len(),
            "populations must cover the same clients"
        );
        assert!(
            (0.0..=1.0).contains(&t),
            "blend factor must be in [0, 1], got {t}"
        );
        // Normalize both sides so the blend factor is meaningful even when
        // the raw weight scales differ.
        let (sa, sb) = (self.total(), other.total());
        let weights: Vec<f64> = self
            .weights
            .iter()
            .zip(&other.weights)
            .map(|(a, b)| (1.0 - t) * a / sa + t * b / sb)
            .collect();
        Population::from_weights(weights).expect("blend of valid populations is valid")
    }

    /// A normalized mixture of several populations: client weights are
    /// `Σ_i mix_i · pop_i / Σ pop_i` — e.g. sinusoidal "follow the sun"
    /// activity built from per-region populations with time-varying
    /// multipliers.
    ///
    /// # Panics
    ///
    /// Panics when `parts` is empty, the populations cover different client
    /// counts, any mix factor is negative/non-finite, or all factors are
    /// zero.
    pub fn mix(parts: &[(&Population, f64)]) -> Population {
        assert!(!parts.is_empty(), "mixture needs at least one population");
        let n = parts[0].0.len();
        assert!(
            parts.iter().all(|(p, _)| p.len() == n),
            "populations must cover the same clients"
        );
        assert!(
            parts.iter().all(|(_, f)| f.is_finite() && *f >= 0.0),
            "mix factors must be non-negative finite numbers"
        );
        let mut weights = vec![0.0; n];
        for (pop, factor) in parts {
            let total = pop.total();
            for (w, pw) in weights.iter_mut().zip(&pop.weights) {
                *w += factor * pw / total;
            }
        }
        Population::from_weights(weights).expect("at least one mix factor must be positive")
    }

    /// Number of clients.
    #[allow(clippy::len_without_is_empty)] // populations are non-empty
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// The raw weight of one client.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn weight(&self, client: usize) -> f64 {
        self.weights[client]
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        *self.cdf.last().expect("non-empty by construction")
    }

    /// Normalized probability of one client.
    pub fn probability(&self, client: usize) -> f64 {
        self.weights[client] / self.total()
    }

    /// Draws a client proportionally to the weights.
    pub fn sample<R: Rng + RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random::<f64>() * self.total();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.len() - 1),
            Err(i) => i.min(self.len() - 1),
        }
    }

    /// Builds the O(1)-per-draw alias sampler over this population — the
    /// sampler the sharded generators use, since at million-client sizes
    /// the O(log n) CDF walk of [`Population::sample`] dominates
    /// generation time.
    pub fn alias(&self) -> AliasTable {
        AliasTable::new(&self.weights).expect("population weights are a valid distribution")
    }

    /// Indices of clients with positive weight.
    pub fn active_clients(&self) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, &w)| w > 0.0)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::topology::{Region, Topology, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_samples_evenly() {
        let pop = Population::uniform(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = [0u32; 4];
        for _ in 0..40_000 {
            hits[pop.sample(&mut rng)] += 1;
        }
        for &h in &hits {
            assert!((9_000..11_000).contains(&h), "hits {hits:?}");
        }
    }

    #[test]
    fn from_weights_validations() {
        assert!(Population::from_weights(vec![]).is_none());
        assert!(Population::from_weights(vec![0.0, 0.0]).is_none());
        assert!(Population::from_weights(vec![1.0, -1.0]).is_none());
        assert!(Population::from_weights(vec![1.0, f64::NAN]).is_none());
        assert!(Population::from_weights(vec![0.0, 2.0]).is_some());
    }

    #[test]
    fn zero_weight_clients_never_sampled() {
        let pop = Population::from_weights(vec![0.0, 1.0, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(pop.sample(&mut rng), 1);
        }
        assert_eq!(pop.active_clients(), vec![1]);
    }

    #[test]
    fn zipf_population_is_heavy_tailed() {
        let pop = Population::zipf_skewed(100, 1.2, 9);
        let mut ws: Vec<f64> = (0..100).map(|i| pop.weight(i)).collect();
        ws.sort_by(|a, b| b.total_cmp(a));
        // Top 10 clients carry most of the activity.
        let top: f64 = ws[..10].iter().sum();
        assert!(
            top / pop.total() > 0.5,
            "top-10 share {}",
            top / pop.total()
        );
    }

    #[test]
    fn region_weighted_follows_topology() {
        let regions = vec![
            Region::new("hot", 0.0, 0.0, 1.0, 0.5),
            Region::new("cold", 40.0, 40.0, 1.0, 0.5),
        ];
        let topo = Topology::generate(TopologyConfig {
            nodes: 20,
            regions,
            ..Default::default()
        })
        .unwrap();
        let pop = Population::region_weighted(&topo, &[1.0, 0.0]);
        for (i, node) in topo.nodes().iter().enumerate() {
            if node.region == 1 {
                assert_eq!(pop.weight(i), 0.0);
            } else {
                assert!(pop.weight(i) > 0.0);
            }
        }
    }

    #[test]
    fn blend_endpoints_and_midpoint() {
        let a = Population::from_weights(vec![1.0, 0.0]).unwrap();
        let b = Population::from_weights(vec![0.0, 3.0]).unwrap();
        let at0 = a.blend(&b, 0.0);
        assert!((at0.probability(0) - 1.0).abs() < 1e-12);
        let at1 = a.blend(&b, 1.0);
        assert!((at1.probability(1) - 1.0).abs() < 1e-12);
        let mid = a.blend(&b, 0.5);
        assert!((mid.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same clients")]
    fn blend_requires_same_size() {
        let a = Population::uniform(2);
        let b = Population::uniform(3);
        let _ = a.blend(&b, 0.5);
    }

    #[test]
    fn probabilities_normalize() {
        let pop = Population::from_weights(vec![2.0, 6.0]).unwrap();
        assert!((pop.probability(0) - 0.25).abs() < 1e-12);
        assert!((pop.probability(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn alias_sampler_matches_population_probabilities() {
        let pop = Population::zipf_skewed(64, 1.1, 5);
        let table = pop.alias();
        for c in 0..64 {
            assert!(
                (table.probability(c) - pop.probability(c)).abs() < 1e-12,
                "client {c}"
            );
        }
        // And empirically: the alias draws land near the weights.
        let mut rng = StdRng::seed_from_u64(8);
        let mut hits = vec![0u32; 64];
        let n = 100_000;
        for _ in 0..n {
            hits[table.sample(&mut rng)] += 1;
        }
        for (c, &h) in hits.iter().enumerate() {
            let expected = pop.probability(c) * n as f64;
            assert!(
                (h as f64 - expected).abs() < expected.max(40.0) * 0.25,
                "client {c}: {h} vs {expected:.0}"
            );
        }
    }
}
