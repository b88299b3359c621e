//! Synthetic Internet-like topology generation.
//!
//! A [`Topology`] is a set of nodes with geographic locations plus the full
//! RTT matrix between them. Latencies are synthesized from first principles
//! so that the matrix reproduces the qualitative properties of measured
//! wide-area datasets (such as the 226-node PlanetLab matrix the paper
//! uses):
//!
//! * **multi-modal distribution** — nodes cluster into regions, so RTTs
//!   split into intra-region (few–tens of ms) and inter-continent
//!   (100–350 ms) modes;
//! * **routing inflation** — real paths are 1.5–2× longer than the great
//!   circle;
//! * **last-mile penalties** — every node adds its own access delay;
//! * **jitter and triangle-inequality violations** — a controlled fraction
//!   of pairs takes an extra detour, so the matrix is *not* perfectly
//!   embeddable, exactly like real latency data.

pub mod graph;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::error::Error;
use std::fmt;

use crate::geo::GeoPoint;
use crate::rtt::RttMatrix;

/// A geographic cluster of nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Human-readable name, e.g. `"eu-west"`.
    pub name: String,
    /// Geographic center of the region.
    pub center: GeoPoint,
    /// Scatter of node locations around the center, in degrees.
    pub spread_deg: f64,
    /// Relative share of nodes assigned to this region. Must be positive
    /// and finite; [`Topology::generate`] rejects anything else.
    pub weight: f64,
    /// Range of per-node last-mile penalties `(min, max)`, in ms (one-way).
    pub access_ms: (f64, f64),
    /// Routing-inflation multiplier applied to paths *leaving* the region
    /// (the larger of the two endpoints' factors is used; intra-region
    /// paths are unaffected). `1.0` models a well-peered region; remote or
    /// poorly-connected regions — the long tail of the PlanetLab
    /// deployment — carry factors well above 1, which is what makes a
    /// randomly chosen data center there so costly.
    pub transit_inflation: f64,
}

impl Region {
    /// Convenience constructor (well-peered region, transit factor 1).
    pub fn new(name: &str, lat: f64, lon: f64, spread_deg: f64, weight: f64) -> Self {
        Region {
            name: name.to_string(),
            center: GeoPoint::new(lat, lon),
            spread_deg,
            weight,
            access_ms: (0.5, 30.0),
            transit_inflation: 1.0,
        }
    }

    /// Returns a copy with the given inter-region transit inflation.
    ///
    /// # Panics
    ///
    /// Panics unless `factor ≥ 1`.
    pub fn with_transit(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "transit factor must be ≥ 1"
        );
        self.transit_inflation = factor;
        self
    }
}

/// Parameters of the topology generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Total number of nodes.
    pub nodes: usize,
    /// Regions nodes are drawn from (weights need not sum to 1).
    pub regions: Vec<Region>,
    /// Multiplier applied to the physical propagation lower bound,
    /// modelling indirect routing. Measured values are 1.5–2.0.
    pub routing_inflation: f64,
    /// Standard deviation of the per-pair multiplicative lognormal jitter.
    pub jitter_sigma: f64,
    /// Fraction of pairs routed through an additional detour, producing
    /// triangle-inequality violations.
    pub tiv_rate: f64,
    /// Extra RTT multiplier for detoured pairs.
    pub tiv_extra: f64,
    /// RNG seed; generation is fully deterministic given the config.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            nodes: 64,
            regions: default_regions(),
            routing_inflation: 1.7,
            jitter_sigma: 0.08,
            tiv_rate: 0.05,
            tiv_extra: 1.6,
            seed: 42,
        }
    }
}

/// A world-spanning region set with node shares mirroring the historical
/// PlanetLab deployment (North America and Europe heavy, smaller shares in
/// Asia, Oceania and South America).
pub fn default_regions() -> Vec<Region> {
    vec![
        Region::new("us-east", 40.7, -74.0, 4.0, 0.16),
        Region::new("us-west", 37.4, -122.1, 4.0, 0.11),
        Region::new("us-central", 41.9, -87.6, 4.0, 0.06),
        Region::new("canada", 45.5, -73.6, 3.0, 0.04),
        Region::new("eu-west", 48.9, 2.3, 5.0, 0.14),
        Region::new("eu-north", 52.4, 9.7, 4.0, 0.07),
        Region::new("eu-south", 41.9, 12.5, 4.0, 0.05),
        // The long tail of the 2010-era PlanetLab deployment: sites behind
        // congested or circuitous international transit. Academic hosts in
        // East Asia, China, India, Oceania and South America routinely saw
        // 2-3x the great-circle latency to the NA/EU core — which is what
        // makes a *randomly* chosen replica site so costly in Figures 1-2.
        Region::new("asia-east", 35.7, 139.7, 5.0, 0.12).with_transit(1.5),
        Region::new("asia-china", 39.9, 116.4, 4.0, 0.06).with_transit(2.4),
        Region::new("asia-south", 1.35, 103.8, 4.0, 0.05).with_transit(1.7),
        Region::new("india", 19.1, 72.9, 3.0, 0.03).with_transit(2.0),
        Region::new("oceania", -33.9, 151.2, 3.0, 0.05).with_transit(1.6),
        Region::new("south-america", -23.5, -46.6, 4.0, 0.06).with_transit(1.8),
    ]
}

/// Error produced by [`Topology::generate`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// Fewer than two nodes requested.
    TooFewNodes,
    /// The region list was empty.
    NoUsableRegions,
    /// A numeric parameter was out of range.
    BadParameter(&'static str),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::TooFewNodes => write!(f, "topology needs at least two nodes"),
            TopologyError::NoUsableRegions => {
                write!(f, "no regions were supplied")
            }
            TopologyError::BadParameter(p) => write!(f, "parameter {p} is out of range"),
        }
    }
}

impl Error for TopologyError {}

/// A node of a generated topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInfo {
    /// Index into [`Topology::regions`].
    pub region: usize,
    /// Geographic location.
    pub location: GeoPoint,
    /// One-way last-mile penalty, ms.
    pub access_ms: f64,
}

/// A generated set of nodes plus their full RTT matrix.
///
/// # Example
///
/// ```
/// use georep_net::topology::{Topology, TopologyConfig};
///
/// let topo = Topology::generate(TopologyConfig { nodes: 32, ..Default::default() })?;
/// assert_eq!(topo.matrix().len(), 32);
/// // Same-region pairs are much faster than cross-continent pairs on
/// // average.
/// # Ok::<(), georep_net::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    regions: Vec<Region>,
    matrix: RttMatrix,
}

impl Topology {
    /// Generates a topology according to `config`.
    ///
    /// # Errors
    ///
    /// See [`TopologyError`].
    pub fn generate(config: TopologyConfig) -> Result<Self, TopologyError> {
        if config.nodes < 2 {
            return Err(TopologyError::TooFewNodes);
        }
        if config.regions.is_empty() {
            return Err(TopologyError::NoUsableRegions);
        }
        // A non-positive or non-finite weight used to be clamped to zero,
        // silently yielding an empty region (or a NaN share polluting every
        // largest-remainder count) — reject it up front instead.
        if config
            .regions
            .iter()
            .any(|r| !(r.weight.is_finite() && r.weight > 0.0))
        {
            return Err(TopologyError::BadParameter("region weight"));
        }
        let total_weight: f64 = config.regions.iter().map(|r| r.weight).sum();
        if !(config.routing_inflation >= 1.0 && config.routing_inflation.is_finite()) {
            return Err(TopologyError::BadParameter("routing_inflation"));
        }
        if !(config.jitter_sigma >= 0.0 && config.jitter_sigma < 1.0) {
            return Err(TopologyError::BadParameter("jitter_sigma"));
        }
        if !(0.0..=1.0).contains(&config.tiv_rate) {
            return Err(TopologyError::BadParameter("tiv_rate"));
        }
        if !(config.tiv_extra >= 1.0 && config.tiv_extra.is_finite()) {
            return Err(TopologyError::BadParameter("tiv_extra"));
        }

        let mut rng = StdRng::seed_from_u64(config.seed);

        // Assign nodes to regions proportionally to the weights, using the
        // largest-remainder method so the split is exact and deterministic.
        let mut counts: Vec<usize> = config
            .regions
            .iter()
            .map(|r| ((r.weight / total_weight) * config.nodes as f64).floor() as usize)
            .collect();
        let assigned: usize = counts.iter().sum();
        let mut remainders: Vec<(usize, f64)> = config
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let exact = (r.weight / total_weight) * config.nodes as f64;
                (i, exact - exact.floor())
            })
            .collect();
        remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for k in 0..(config.nodes - assigned) {
            counts[remainders[k % remainders.len()].0] += 1;
        }

        let mut nodes = Vec::with_capacity(config.nodes);
        for (region_idx, (region, &count)) in config.regions.iter().zip(&counts).enumerate() {
            for _ in 0..count {
                let dlat = sample_normal(&mut rng) * region.spread_deg;
                let dlon = sample_normal(&mut rng) * region.spread_deg;
                // Heavy-tailed last-mile penalty within the region's range:
                // most nodes sit near the minimum, a few are badly hosted
                // (the overloaded-PlanetLab-machine effect the RNP paper
                // battles). Lognormal with median ≈ min + 1.5 ms, clamped
                // into the configured range.
                let (lo, hi) = region.access_ms;
                let access = if hi > lo {
                    let tail = 1.5 * (sample_normal(&mut rng) * 1.1).exp();
                    (lo + tail).min(hi)
                } else {
                    lo
                };
                nodes.push(NodeInfo {
                    region: region_idx,
                    location: region.center.displaced(dlat, dlon),
                    access_ms: access.max(0.0),
                });
            }
        }
        debug_assert_eq!(nodes.len(), config.nodes);

        let regions = &config.regions;
        let matrix = RttMatrix::from_fn(config.nodes, |i, j| {
            let a = &nodes[i];
            let b = &nodes[j];
            let mut propagation = a.location.min_rtt_ms(&b.location) * config.routing_inflation;
            // Paths between different regions pay the worse endpoint's
            // transit quality; domestic paths do not.
            if a.region != b.region {
                propagation *= regions[a.region]
                    .transit_inflation
                    .max(regions[b.region].transit_inflation);
            }
            let jitter = (sample_normal(&mut rng) * config.jitter_sigma).exp();
            let detour = if rng.random::<f64>() < config.tiv_rate {
                config.tiv_extra
            } else {
                1.0
            };
            // Access penalties hit both directions of the round trip.
            let rtt = (propagation * jitter * detour) + 2.0 * (a.access_ms + b.access_ms);
            rtt.max(0.2)
        })
        .expect("generator produces positive finite RTTs");

        Ok(Topology {
            nodes,
            regions: config.regions,
            matrix,
        })
    }

    /// The generated nodes.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// The region definitions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The full RTT matrix.
    pub fn matrix(&self) -> &RttMatrix {
        &self.matrix
    }

    /// Consumes the topology, returning just the matrix.
    pub fn into_matrix(self) -> RttMatrix {
        self.matrix
    }

    /// Mean RTT between node pairs of the same region vs pairs spanning two
    /// different regions — `(intra_ms, inter_ms)`.
    pub fn intra_inter_means(&self) -> (f64, f64) {
        let (mut intra, mut inter) = ((0.0, 0u32), (0.0, 0u32));
        for i in 0..self.nodes.len() {
            for j in (i + 1)..self.nodes.len() {
                let rtt = self.matrix.get(i, j);
                if self.nodes[i].region == self.nodes[j].region {
                    intra = (intra.0 + rtt, intra.1 + 1);
                } else {
                    inter = (inter.0 + rtt, inter.1 + 1);
                }
            }
        }
        (
            if intra.1 > 0 {
                intra.0 / intra.1 as f64
            } else {
                f64::NAN
            },
            if inter.1 > 0 {
                inter.0 / inter.1 as f64
            } else {
                f64::NAN
            },
        )
    }
}

/// Standard normal sample via the Box–Muller transform.
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_node_count() {
        for n in [2, 10, 64, 226] {
            let topo = Topology::generate(TopologyConfig {
                nodes: n,
                ..Default::default()
            })
            .unwrap();
            assert_eq!(topo.nodes().len(), n);
            assert_eq!(topo.matrix().len(), n);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TopologyConfig {
            nodes: 40,
            seed: 7,
            ..Default::default()
        };
        let a = Topology::generate(cfg.clone()).unwrap();
        let b = Topology::generate(cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Topology::generate(TopologyConfig {
            nodes: 40,
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let b = Topology::generate(TopologyConfig {
            nodes: 40,
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a.matrix(), b.matrix());
    }

    #[test]
    fn intra_region_faster_than_inter_region() {
        let topo = Topology::generate(TopologyConfig {
            nodes: 128,
            ..Default::default()
        })
        .unwrap();
        let (intra, inter) = topo.intra_inter_means();
        assert!(
            intra * 2.0 < inter,
            "intra {intra:.1} ms should be well below inter {inter:.1} ms"
        );
    }

    #[test]
    fn latencies_are_realistic() {
        let topo = Topology::generate(TopologyConfig {
            nodes: 128,
            ..Default::default()
        })
        .unwrap();
        let stats = topo.matrix().stats();
        assert!(stats.min_ms >= 0.2);
        assert!(stats.max_ms < 2_000.0, "max {}", stats.max_ms); // worst PlanetLab pairs exceeded 1 s
        assert!(stats.median_ms > 10.0, "median {}", stats.median_ms);
    }

    #[test]
    fn tiv_rate_controls_violations() {
        let none = Topology::generate(TopologyConfig {
            nodes: 64,
            tiv_rate: 0.0,
            jitter_sigma: 0.0,
            ..Default::default()
        })
        .unwrap();
        let lots = Topology::generate(TopologyConfig {
            nodes: 64,
            tiv_rate: 0.3,
            tiv_extra: 2.5,
            jitter_sigma: 0.0,
            ..Default::default()
        })
        .unwrap();
        assert!(lots.matrix().triangle_violation_rate() > none.matrix().triangle_violation_rate());
    }

    #[test]
    fn rejects_bad_configs() {
        assert_eq!(
            Topology::generate(TopologyConfig {
                nodes: 1,
                ..Default::default()
            }),
            Err(TopologyError::TooFewNodes)
        );
        assert_eq!(
            Topology::generate(TopologyConfig {
                regions: vec![],
                ..Default::default()
            }),
            Err(TopologyError::NoUsableRegions)
        );
        assert_eq!(
            Topology::generate(TopologyConfig {
                routing_inflation: 0.5,
                ..Default::default()
            }),
            Err(TopologyError::BadParameter("routing_inflation"))
        );
        // Regression: these used to be clamped to zero and pass, leaving
        // the region empty (or, for NaN, poisoning every node count).
        for bad in [0.0, -0.3, f64::NAN, f64::INFINITY] {
            let regions = vec![
                Region::new("ok", 0.0, 0.0, 1.0, 0.75),
                Region::new("bad", 50.0, 50.0, 1.0, bad),
            ];
            assert_eq!(
                Topology::generate(TopologyConfig {
                    nodes: 16,
                    regions,
                    ..Default::default()
                }),
                Err(TopologyError::BadParameter("region weight")),
                "weight {bad} must be rejected"
            );
        }
        assert_eq!(
            Topology::generate(TopologyConfig {
                tiv_rate: 1.5,
                ..Default::default()
            }),
            Err(TopologyError::BadParameter("tiv_rate"))
        );
    }

    #[test]
    fn region_weights_respected() {
        let regions = vec![
            Region::new("a", 0.0, 0.0, 1.0, 0.75),
            Region::new("b", 50.0, 50.0, 1.0, 0.25),
        ];
        let topo = Topology::generate(TopologyConfig {
            nodes: 100,
            regions,
            ..Default::default()
        })
        .unwrap();
        let a_count = topo.nodes().iter().filter(|n| n.region == 0).count();
        assert_eq!(a_count, 75);
    }

    #[test]
    fn box_muller_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
