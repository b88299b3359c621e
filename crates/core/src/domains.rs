//! Hierarchical failure domains: rack → DC → region trees with
//! per-level correlated-failure probabilities.
//!
//! The flat [`FaultPlan`](georep_net::sim::FaultPlan) can crash any node
//! set, but it has no notion of *why* nodes die together. Mills et al.
//! (*Algorithms for Optimal Replica Placement Under Correlated Failure in
//! Hierarchical Failure Domains*) model exactly that: infrastructure is a
//! tree — regions contain data centers contain racks contain nodes — and
//! a failure at any internal level takes down its whole subtree at once.
//! A placement that looks robust under independent node failures can be
//! wiped out by a single rack switch if all its replicas share the rack.
//!
//! This module provides:
//!
//! * [`DomainTree`] — a deterministic node → rack → DC → region mapping
//!   over `n` contiguous node ids, with per-level failure probabilities
//!   from [`DomainConfig`];
//! * [`DomainTree::sample_outage`] — a seeded correlated-failure draw
//!   (each domain at each level fails independently with its level's
//!   probability; a failed domain downs its entire subtree);
//! * [`DomainTree::compile`] — lowering an [`Outage`] onto the existing
//!   seeded [`FaultPlan`] window machinery, so every downstream consumer
//!   (scenario driver, telemetry, simulator) scores correlated failures
//!   through the exact same code path as flat ones;
//! * [`DomainTree::survival_probability`] — the *exact* analytic
//!   probability that at least one replica of a placement survives a
//!   correlated draw, via one recursion over the tree (no sampling).
//!
//! Everything is pure and seed-deterministic: the same
//! `(tree, seed, scenario)` triple always yields the same outage, the
//! same compiled plan, and the same analytic survival — the property
//! `tests/domain_scenarios.rs` pins.

use georep_net::sim::{FaultPlan, SimTime};
use std::error::Error;
use std::fmt;

use crate::hash::splitmix64;

/// Shape and per-level failure probabilities of a [`DomainTree`].
///
/// Probabilities are *per draw*: each region (then each surviving DC,
/// rack, node) flips its own independent coin per sampled scenario.
/// Defaults follow the usual ordering — individual machines and rack
/// switches fail far more often than whole data centers or regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainConfig {
    /// Number of regions (≥ 1).
    pub regions: usize,
    /// Data centers per region (≥ 1).
    pub dcs_per_region: usize,
    /// Racks per data center (≥ 1).
    pub racks_per_dc: usize,
    /// Probability an entire region fails in one draw.
    pub p_region: f64,
    /// Probability a data center fails (given its region survived).
    pub p_dc: f64,
    /// Probability a rack fails (given DC and region survived).
    pub p_rack: f64,
    /// Probability an individual node fails (given its ancestors survived).
    pub p_node: f64,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            regions: 3,
            dcs_per_region: 2,
            racks_per_dc: 2,
            p_region: 0.02,
            p_dc: 0.05,
            p_rack: 0.08,
            p_node: 0.02,
        }
    }
}

/// Error produced by [`DomainTree::new`] and the survival queries.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainError {
    /// A tree level had zero domains, or there were fewer nodes than racks.
    BadShape(&'static str),
    /// A per-level probability was outside `[0, 1)` or non-finite.
    BadProbability(&'static str),
    /// A placement referenced a node id outside the tree.
    NodeOutOfRange { node: usize, nodes: usize },
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::BadShape(what) => write!(f, "bad domain shape: {what}"),
            DomainError::BadProbability(which) => {
                write!(f, "probability {which} must be finite and in [0, 1)")
            }
            DomainError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} outside the {nodes}-node tree")
            }
        }
    }
}

impl Error for DomainError {}

/// One sampled correlated-failure draw over a [`DomainTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct Outage {
    /// Node ids down in this draw, ascending.
    pub downed: Vec<usize>,
    /// Regions that failed wholesale.
    pub failed_regions: Vec<usize>,
    /// DCs (global index) that failed given their region survived.
    pub failed_dcs: Vec<usize>,
    /// Racks (global index) that failed given DC and region survived.
    pub failed_racks: Vec<usize>,
    /// Nodes that failed individually (ancestors all survived).
    pub failed_nodes: Vec<usize>,
}

impl Outage {
    /// True when nothing failed in this draw.
    pub fn is_empty(&self) -> bool {
        self.downed.is_empty()
    }
}

/// A rack → DC → region tree over `n` contiguous node ids.
///
/// Nodes are assigned to racks contiguously and as evenly as possible
/// (rack `r` holds nodes `⌈r·n/R⌉ .. ⌈(r+1)·n/R⌉` for `R` total racks),
/// so the mapping is a pure function of `(n, config)` — no RNG, no state.
///
/// # Example
///
/// ```
/// use georep_core::domains::{DomainConfig, DomainTree};
///
/// let tree = DomainTree::new(24, DomainConfig::default())?;
/// // 3 regions × 2 DCs × 2 racks = 12 racks of 2 nodes each.
/// assert_eq!(tree.racks(), 12);
/// assert_eq!(tree.rack_of(0), 0);
/// assert_eq!(tree.rack_of(23), 11);
/// // Spreading replicas over regions beats packing them into one rack.
/// let packed = [0, 1];
/// let spread = [0, 8, 16];
/// assert!(
///     tree.survival_probability(&spread)? > tree.survival_probability(&packed)?
/// );
/// # Ok::<(), georep_core::domains::DomainError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DomainTree {
    nodes: usize,
    config: DomainConfig,
}

impl DomainTree {
    /// Builds the tree over node ids `0..nodes`.
    ///
    /// # Errors
    ///
    /// [`DomainError::BadShape`] when a level is empty or there are fewer
    /// nodes than racks; [`DomainError::BadProbability`] when a per-level
    /// probability is not finite in `[0, 1)`.
    pub fn new(nodes: usize, config: DomainConfig) -> Result<Self, DomainError> {
        if config.regions == 0 || config.dcs_per_region == 0 || config.racks_per_dc == 0 {
            return Err(DomainError::BadShape(
                "every level needs at least one domain",
            ));
        }
        let racks = config.regions * config.dcs_per_region * config.racks_per_dc;
        if nodes < racks {
            return Err(DomainError::BadShape("fewer nodes than racks"));
        }
        for (p, name) in [
            (config.p_region, "p_region"),
            (config.p_dc, "p_dc"),
            (config.p_rack, "p_rack"),
            (config.p_node, "p_node"),
        ] {
            if !(p.is_finite() && (0.0..1.0).contains(&p)) {
                return Err(DomainError::BadProbability(name));
            }
        }
        Ok(DomainTree { nodes, config })
    }

    /// Number of nodes in the tree.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The shape and probabilities this tree was built from.
    pub fn config(&self) -> &DomainConfig {
        &self.config
    }

    /// Total rack count.
    pub fn racks(&self) -> usize {
        self.config.regions * self.config.dcs_per_region * self.config.racks_per_dc
    }

    /// Total data-center count.
    pub fn dcs(&self) -> usize {
        self.config.regions * self.config.dcs_per_region
    }

    /// The rack holding `node` (global rack index).
    pub fn rack_of(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes);
        node * self.racks() / self.nodes
    }

    /// The data center holding `node` (global DC index).
    pub fn dc_of(&self, node: usize) -> usize {
        self.rack_of(node) / self.config.racks_per_dc
    }

    /// The region holding `node`.
    pub fn region_of(&self, node: usize) -> usize {
        self.dc_of(node) / self.config.dcs_per_region
    }

    /// The ascending node-id range of rack `rack` — the exact preimage of
    /// [`DomainTree::rack_of`]: `⌈rack·n/R⌉ .. ⌈(rack+1)·n/R⌉`.
    pub fn rack_members(&self, rack: usize) -> std::ops::Range<usize> {
        debug_assert!(rack < self.racks());
        let racks = self.racks();
        let lo = (rack * self.nodes).div_ceil(racks);
        let hi = ((rack + 1) * self.nodes).div_ceil(racks);
        lo..hi
    }

    /// One seeded correlated-failure draw. Each domain at each level
    /// flips an independent Bernoulli coin keyed on
    /// `(seed, level, index, scenario)`, so draws are reproducible and
    /// different scenarios decorrelate fully.
    pub fn sample_outage(&self, seed: u64, scenario: u64) -> Outage {
        let coin = |level: u64, index: usize, p: f64| -> bool {
            let h = splitmix64(
                seed ^ splitmix64(level.wrapping_mul(0x9E37_79B9) ^ (index as u64))
                    ^ splitmix64(scenario.wrapping_mul(0xC2B2_AE35)),
            );
            let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            unit < p
        };
        let mut outage = Outage {
            downed: Vec::new(),
            failed_regions: Vec::new(),
            failed_dcs: Vec::new(),
            failed_racks: Vec::new(),
            failed_nodes: Vec::new(),
        };
        let mut down = vec![false; self.nodes];
        for region in 0..self.config.regions {
            if coin(1, region, self.config.p_region) {
                outage.failed_regions.push(region);
                continue;
            }
            for dc_local in 0..self.config.dcs_per_region {
                let dc = region * self.config.dcs_per_region + dc_local;
                if coin(2, dc, self.config.p_dc) {
                    outage.failed_dcs.push(dc);
                    continue;
                }
                for rack_local in 0..self.config.racks_per_dc {
                    let rack = dc * self.config.racks_per_dc + rack_local;
                    if coin(3, rack, self.config.p_rack) {
                        outage.failed_racks.push(rack);
                        continue;
                    }
                    for node in self.rack_members(rack) {
                        if coin(4, node, self.config.p_node) {
                            outage.failed_nodes.push(node);
                            down[node] = true;
                        }
                    }
                }
            }
        }
        // Failed internal domains down their whole subtree.
        for &region in &outage.failed_regions {
            for dc_local in 0..self.config.dcs_per_region {
                let dc = region * self.config.dcs_per_region + dc_local;
                for rack_local in 0..self.config.racks_per_dc {
                    for node in self.rack_members(dc * self.config.racks_per_dc + rack_local) {
                        down[node] = true;
                    }
                }
            }
        }
        for &dc in &outage.failed_dcs {
            for rack_local in 0..self.config.racks_per_dc {
                for node in self.rack_members(dc * self.config.racks_per_dc + rack_local) {
                    down[node] = true;
                }
            }
        }
        for &rack in &outage.failed_racks {
            for node in self.rack_members(rack) {
                down[node] = true;
            }
        }
        outage.downed = down
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect();
        outage
    }

    /// Lowers `outage` onto the flat [`FaultPlan`] window machinery: one
    /// crash window per downed node over `[from, until)`. Downstream
    /// consumers (scenario driver, simulator, telemetry) then score the
    /// correlated scenario through exactly the same code path as any
    /// hand-written plan.
    pub fn compile(
        &self,
        outage: &Outage,
        plan_seed: u64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new(plan_seed);
        for &node in &outage.downed {
            plan = plan.crash(node, from, until);
        }
        plan
    }

    /// Exact probability that at least one replica in `placement`
    /// survives one correlated draw — no sampling, one recursion over
    /// the tree:
    ///
    /// ```text
    /// P(all dead) = ∏ over regions holding replicas
    ///   p_region + (1 − p_region) · ∏ over its DCs holding replicas
    ///     p_dc + (1 − p_dc) · ∏ over its racks holding replicas
    ///       p_rack + (1 − p_rack) · p_node^(replicas in rack)
    /// survival = 1 − P(all dead)
    /// ```
    ///
    /// Domains holding no replicas contribute nothing (their failure
    /// cannot kill a replica). Duplicate node ids in `placement` count
    /// once — a node either survives or it does not.
    ///
    /// # Errors
    ///
    /// [`DomainError::NodeOutOfRange`] if a replica id is outside the
    /// tree; [`DomainError::BadShape`] for an empty placement.
    pub fn survival_probability(&self, placement: &[usize]) -> Result<f64, DomainError> {
        if placement.is_empty() {
            return Err(DomainError::BadShape("empty placement"));
        }
        // Deduplicated per-rack replica counts.
        let mut per_rack = vec![0usize; self.racks()];
        let mut seen = vec![false; self.nodes];
        for &node in placement {
            if node >= self.nodes {
                return Err(DomainError::NodeOutOfRange {
                    node,
                    nodes: self.nodes,
                });
            }
            if !seen[node] {
                seen[node] = true;
                per_rack[self.rack_of(node)] += 1;
            }
        }
        let c = &self.config;
        let mut p_all_dead = 1.0;
        for region in 0..c.regions {
            let mut p_region_replicas_dead_given_up = 1.0;
            let mut region_holds = false;
            for dc_local in 0..c.dcs_per_region {
                let dc = region * c.dcs_per_region + dc_local;
                let mut p_dc_replicas_dead_given_up = 1.0;
                let mut dc_holds = false;
                for rack_local in 0..c.racks_per_dc {
                    let rack = dc * c.racks_per_dc + rack_local;
                    let k = per_rack[rack];
                    if k == 0 {
                        continue;
                    }
                    dc_holds = true;
                    p_dc_replicas_dead_given_up *=
                        c.p_rack + (1.0 - c.p_rack) * c.p_node.powi(k as i32);
                }
                if dc_holds {
                    region_holds = true;
                    p_region_replicas_dead_given_up *=
                        c.p_dc + (1.0 - c.p_dc) * p_dc_replicas_dead_given_up;
                }
            }
            if region_holds {
                p_all_dead *= c.p_region + (1.0 - c.p_region) * p_region_replicas_dead_given_up;
            }
        }
        Ok(1.0 - p_all_dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(nodes: usize) -> DomainTree {
        DomainTree::new(nodes, DomainConfig::default()).unwrap()
    }

    #[test]
    fn mapping_is_contiguous_and_monotone() {
        let t = tree(25); // 12 racks over 25 nodes: uneven split
        let mut prev = 0;
        let mut covered = 0;
        for rack in 0..t.racks() {
            let members = t.rack_members(rack);
            assert_eq!(members.start, covered);
            covered = members.end;
            for node in members {
                assert_eq!(t.rack_of(node), rack);
                assert!(t.rack_of(node) >= prev);
                prev = t.rack_of(node);
            }
        }
        assert_eq!(covered, 25);
        // Hierarchy consistency.
        for node in 0..25 {
            assert_eq!(t.dc_of(node), t.rack_of(node) / 2);
            assert_eq!(t.region_of(node), t.dc_of(node) / 2);
        }
    }

    #[test]
    fn rejects_bad_shapes_and_probabilities() {
        assert!(matches!(
            DomainTree::new(
                24,
                DomainConfig {
                    regions: 0,
                    ..Default::default()
                }
            ),
            Err(DomainError::BadShape(_))
        ));
        assert!(matches!(
            DomainTree::new(5, DomainConfig::default()), // 12 racks > 5 nodes
            Err(DomainError::BadShape(_))
        ));
        assert!(matches!(
            DomainTree::new(
                24,
                DomainConfig {
                    p_rack: 1.0,
                    ..Default::default()
                }
            ),
            Err(DomainError::BadProbability("p_rack"))
        ));
        assert!(matches!(
            DomainTree::new(
                24,
                DomainConfig {
                    p_node: f64::NAN,
                    ..Default::default()
                }
            ),
            Err(DomainError::BadProbability("p_node"))
        ));
    }

    #[test]
    fn outages_are_deterministic_and_scenario_decorrelated() {
        let t = tree(48);
        let a = t.sample_outage(7, 3);
        let b = t.sample_outage(7, 3);
        assert_eq!(a, b);
        // Over many scenarios the draws cannot all be identical.
        let distinct: std::collections::HashSet<Vec<usize>> =
            (0..64).map(|s| t.sample_outage(7, s).downed).collect();
        assert!(
            distinct.len() > 8,
            "only {} distinct outages",
            distinct.len()
        );
    }

    #[test]
    fn failed_domains_down_their_whole_subtree() {
        let t = tree(48);
        for scenario in 0..256 {
            let outage = t.sample_outage(11, scenario);
            for &rack in &outage.failed_racks {
                for node in t.rack_members(rack) {
                    assert!(outage.downed.contains(&node));
                }
            }
            for &dc in &outage.failed_dcs {
                for node in 0..48 {
                    if t.dc_of(node) == dc {
                        assert!(outage.downed.contains(&node));
                    }
                }
            }
            for &region in &outage.failed_regions {
                for node in 0..48 {
                    if t.region_of(node) == region {
                        assert!(outage.downed.contains(&node));
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_plan_matches_outage() {
        let t = tree(24);
        // Find a non-empty outage.
        let (scenario, outage) = (0..64)
            .map(|s| (s, t.sample_outage(5, s)))
            .find(|(_, o)| !o.is_empty())
            .expect("some scenario fails");
        let from = SimTime::from_ms(100.0);
        let until = SimTime::from_ms(200.0);
        let plan = t.compile(&outage, 5 ^ scenario, from, until);
        let mid = SimTime::from_ms(150.0);
        for node in 0..24 {
            assert_eq!(
                plan.node_down(node, mid),
                outage.downed.contains(&node),
                "node {node} in scenario {scenario}"
            );
            assert!(!plan.node_down(node, SimTime::from_ms(250.0)));
        }
    }

    #[test]
    fn analytic_survival_matches_monte_carlo() {
        let t = tree(48);
        for placement in [vec![0, 1], vec![0, 16, 32], vec![0, 4, 8, 12]] {
            let exact = t.survival_probability(&placement).unwrap();
            let samples = 4000;
            let survived = (0..samples)
                .filter(|&s| {
                    let o = t.sample_outage(99, s);
                    placement.iter().any(|r| !o.downed.contains(r))
                })
                .count();
            let empirical = survived as f64 / samples as f64;
            assert!(
                (exact - empirical).abs() < 0.03,
                "placement {placement:?}: exact {exact:.4} vs empirical {empirical:.4}"
            );
        }
    }

    #[test]
    fn survival_prefers_spreading_and_grows_with_replicas() {
        let t = tree(48);
        let packed = t.survival_probability(&[0, 1, 2]).unwrap(); // one rack
        let spread = t.survival_probability(&[0, 16, 32]).unwrap(); // three regions
        assert!(spread > packed, "spread {spread:.4} ≤ packed {packed:.4}");
        let more = t.survival_probability(&[0, 8, 16, 24, 32, 40]).unwrap();
        assert!(more > spread);
        // Duplicates count once.
        assert_eq!(
            t.survival_probability(&[5, 5, 5]).unwrap(),
            t.survival_probability(&[5]).unwrap()
        );
    }

    #[test]
    fn survival_rejects_bad_placements() {
        let t = tree(24);
        assert!(matches!(
            t.survival_probability(&[]),
            Err(DomainError::BadShape(_))
        ));
        assert!(matches!(
            t.survival_probability(&[24]),
            Err(DomainError::NodeOutOfRange {
                node: 24,
                nodes: 24
            })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert!(DomainError::BadProbability("p_dc")
            .to_string()
            .contains("p_dc"));
        assert!(DomainError::NodeOutOfRange { node: 9, nodes: 4 }
            .to_string()
            .contains("9"));
    }
}
