//! The online replica manager — the paper's system, assembled.
//!
//! A [`ReplicaManager`] plays the role of the deployed system described in
//! Section III: replicas route each access to the closest replica
//! (estimated from network coordinates), every replica summarizes the
//! accesses it serves into `m` micro-clusters, and periodically the
//! summaries are collected, macro-clustered (Algorithm 1) and — when the
//! estimated gain justifies the migration cost — the replica set migrates.
//!
//! The manager deliberately *never* touches true latencies: everything it
//! does is computable from coordinates and summaries, exactly like a real
//! deployment. True latencies exist only in the evaluation harness.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use georep_cluster::kmeans::{ClusterError, KMeansConfig, KMeansStats};
use georep_cluster::online::{OnlineClusterer, StreamStats};
use georep_cluster::point::WeightedPoint;
use georep_cluster::summary::AccessSummary;
use georep_cluster::weighted::weighted_kmeans_with_stats;
use georep_coord::Coord;

use crate::migration::{moved_replicas, MigrationCostModel, MigrationDecision};
use crate::problem::repeated_node;
use crate::strategy::nearest_distinct_candidates;

/// Error produced by [`ReplicaManager`].
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerError {
    /// The constructor inputs, or an external [`Plan`], were inconsistent.
    InvalidSetup(&'static str),
    /// Macro-clustering failed during a rebalance.
    Cluster(ClusterError),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::InvalidSetup(what) => write!(f, "invalid manager setup: {what}"),
            ManagerError::Cluster(e) => write!(f, "macro-clustering failed: {e}"),
        }
    }
}

impl Error for ManagerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ManagerError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for ManagerError {
    fn from(e: ClusterError) -> Self {
        ManagerError::Cluster(e)
    }
}

/// Tuning of the replica manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Target degree of replication `k`.
    pub k: usize,
    /// Micro-clusters per replica (`m` in the paper).
    pub micro_clusters: usize,
    /// Migration pricing.
    pub cost: MigrationCostModel,
    /// Required relative delay gain *per migration dollar*: a proposal is
    /// applied when `relative_gain ≥ gain_per_dollar × cost_usd`. Zero
    /// migrates on any improvement.
    pub gain_per_dollar: f64,
    /// Bounds for adaptive replication ([`ReplicaManager::adapt_k`]).
    pub min_k: usize,
    /// Upper bound for adaptive replication.
    pub max_k: usize,
    /// Demand weight one replica should serve per period; `adapt_k` sizes
    /// `k` as `total_weight / demand_per_replica` (clamped). Zero disables
    /// adaptation.
    pub demand_per_replica: f64,
    /// What happens to the summaries at the end of a period when the
    /// placement did *not* change: `0` discards them (hard reset, the
    /// default), a value in `(0, 1]` ages them by that factor instead, so
    /// the summary becomes an exponentially-weighted window over past
    /// periods. After an applied migration the summaries are always reset
    /// (they describe populations as served by the old placement).
    pub period_decay: f64,
    /// Seed for the macro-clustering.
    pub seed: u64,
    /// Inert: nothing reads it. The macro-clustering restarts always run
    /// on the calling thread. The declaration stays only because the
    /// frozen `benchmark/` package still assigns it; the next
    /// `[benchmark]` PR removes that line and this field together.
    #[doc(hidden)]
    pub restart_threads: usize,
}

impl ManagerConfig {
    /// Defaults for `k` replicas with `m` micro-clusters each.
    pub fn new(k: usize, m: usize) -> Self {
        ManagerConfig {
            k,
            micro_clusters: m,
            cost: MigrationCostModel::default(),
            gain_per_dollar: 0.05,
            min_k: 1,
            max_k: k.max(1) * 2,
            demand_per_replica: 0.0,
            period_decay: 0.0,
            seed: 0x6E0,
            restart_threads: 0,
        }
    }
}

/// Cumulative manager statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ManagerStats {
    /// Rebalance rounds executed.
    pub rounds: u64,
    /// Replicas moved across all applied migrations.
    pub replicas_moved: u64,
    /// Summary bytes shipped to the central server (Table II bandwidth).
    pub summary_bytes: u64,
    /// Accesses routed since construction.
    pub accesses: u64,
    /// Replica failures absorbed via [`ReplicaManager::fail_replica`].
    pub failures: u64,
}

/// What one re-placement round solves on — the *demand source* and *solver*
/// stages of [`ReplicaManager::propose`]. Every variant goes through the
/// same accounting, empty-period no-op and gain-vs-cost gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan<'a, const D: usize> {
    /// Solve and gate on this period's recorded micro-cluster pseudo
    /// points — the paper's reactive Algorithm 1.
    Recorded,
    /// Solve and gate on an external demand estimate (a forecast, or an
    /// oracle's actual next period) instead of the recorded points; zero-
    /// and negative-weight entries are dropped. Gains are estimated against
    /// the demand the round optimizes for, so a wrong forecast can buy a
    /// migration the realized demand never pays back.
    Demand(&'a [(Coord<D>, f64)]),
    /// Skip the solver: the slice *is* the proposal (e.g. a gossip-converged
    /// consensus), gated on the recorded pseudo points.
    Placement(&'a [usize]),
}

/// A proposed-but-not-yet-applied rebalance round: everything
/// [`ReplicaManager::rebalance`] computes up to (and including) the
/// decision, with the apply and period-reset steps still pending. Produced
/// by [`ReplicaManager::propose`]; finished by
/// [`ReplicaManager::commit_rebalance`] (honour the decision) or
/// [`ReplicaManager::defer_rebalance`] (a scheduler ran out of migration
/// budget — keep the old placement, end the period anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRebalance {
    /// The decision exactly as an independent manager would have taken it.
    pub decision: MigrationDecision,
    /// Nothing was observed this period: the commit is a no-op (the
    /// historical empty-period round never reset the summarizers).
    empty: bool,
}

impl PendingRebalance {
    /// `true` when no accesses were summarized this period (the commit
    /// will leave the manager untouched).
    pub fn is_empty_period(&self) -> bool {
        self.empty
    }
}

/// The live placement system: routing, summarization, periodic migration.
///
/// # Example
///
/// ```
/// use georep_core::manager::{ManagerConfig, ReplicaManager};
/// use georep_coord::Coord;
///
/// // Nodes on a line; candidates at 0, 3, 5; replicas start at {0, 3}.
/// let coords: Vec<Coord<1>> = (0..6).map(|i| Coord::new([i as f64 * 10.0])).collect();
/// let mut mgr = ReplicaManager::new(
///     coords, vec![0, 3, 5], vec![0, 3], ManagerConfig::new(2, 4),
/// )?;
/// // All the demand sits near node 5.
/// for _ in 0..100 {
///     mgr.record_access(Coord::new([48.0]), 1.0);
/// }
/// let decision = mgr.rebalance()?;
/// assert!(decision.applied);
/// assert!(mgr.placement().contains(&5));
/// # Ok::<(), georep_core::manager::ManagerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaManager<const D: usize> {
    config: ManagerConfig,
    /// Node coordinates, shared: a fleet of thousands of managers over the
    /// same topology clones the `Arc`, not the vector.
    coords: Arc<Vec<Coord<D>>>,
    candidates: Vec<usize>,
    placement: Vec<usize>,
    /// One summarizer per replica, aligned with `placement`.
    clusterers: Vec<OnlineClusterer<D>>,
    stats: ManagerStats,
    /// Stream tallies of summarizers already retired by a period reset;
    /// [`ReplicaManager::stream_stats`] adds the live ones on top.
    retired_stream: StreamStats,
    /// Macro-clustering effort accumulated across rebalance rounds
    /// (`winner_restart` is the most recent round's).
    kmeans: KMeansStats,
}

impl<const D: usize> ReplicaManager<D> {
    /// Creates a manager over the given node coordinates.
    ///
    /// # Errors
    ///
    /// [`ManagerError::InvalidSetup`] when the placement is empty, exceeds
    /// `k`, contains non-candidates, or any candidate index is out of
    /// range or repeated; or when `gain_per_dollar`, `demand_per_replica`,
    /// `period_decay` or a migration cost field is NaN, infinite or
    /// negative.
    pub fn new(
        coords: Vec<Coord<D>>,
        candidates: Vec<usize>,
        initial_placement: Vec<usize>,
        config: ManagerConfig,
    ) -> Result<Self, ManagerError> {
        Self::new_shared(Arc::new(coords), candidates, initial_placement, config)
    }

    /// [`ReplicaManager::new`] over an already-shared coordinate table —
    /// the constructor multi-object layers use so N managers pay for one
    /// coordinate vector, not N copies.
    ///
    /// # Errors
    ///
    /// As [`ReplicaManager::new`].
    pub fn new_shared(
        coords: Arc<Vec<Coord<D>>>,
        candidates: Vec<usize>,
        initial_placement: Vec<usize>,
        config: ManagerConfig,
    ) -> Result<Self, ManagerError> {
        if config.k == 0 || config.micro_clusters == 0 {
            return Err(ManagerError::InvalidSetup("k and m must be at least 1"));
        }
        if config.min_k == 0 || config.min_k > config.max_k {
            return Err(ManagerError::InvalidSetup("need 1 ≤ min_k ≤ max_k"));
        }
        if candidates.is_empty() {
            return Err(ManagerError::InvalidSetup("candidate set is empty"));
        }
        if candidates.iter().any(|&c| c >= coords.len()) {
            return Err(ManagerError::InvalidSetup(
                "candidate index out of coordinate range",
            ));
        }
        // A repeated candidate would let the snapping put two replicas on
        // one node.
        if repeated_node(&candidates).is_some() {
            return Err(ManagerError::InvalidSetup("candidates must be distinct"));
        }
        if initial_placement.is_empty() || initial_placement.len() > candidates.len() {
            return Err(ManagerError::InvalidSetup(
                "placement must be 1..=candidates replicas",
            ));
        }
        if initial_placement.iter().any(|r| !candidates.contains(r)) {
            return Err(ManagerError::InvalidSetup(
                "placement must be a subset of candidates",
            ));
        }
        // A NaN in any of these makes every comparison against it false,
        // which silently disables migration, adaptation or the period
        // reset instead of failing.
        if [
            config.gain_per_dollar,
            config.demand_per_replica,
            config.period_decay,
            config.cost.object_size_gb,
            config.cost.cost_per_gb,
        ]
        .iter()
        .any(|x| !(x.is_finite() && *x >= 0.0))
        {
            return Err(ManagerError::InvalidSetup(
                "gain_per_dollar, demand_per_replica, period_decay and the migration cost \
                 must be finite and non-negative",
            ));
        }
        let clusterers = initial_placement
            .iter()
            .map(|_| OnlineClusterer::new(config.micro_clusters))
            .collect();
        Ok(ReplicaManager {
            config,
            coords,
            candidates,
            placement: initial_placement,
            clusterers,
            stats: ManagerStats::default(),
            retired_stream: StreamStats::default(),
            kmeans: KMeansStats::default(),
        })
    }

    /// The current replica locations.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// The current target degree of replication.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The candidate data centers currently usable.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Lifetime summarizer tallies (absorbs / new micro-clusters / merges),
    /// aggregated across every replica's clusterer including ones already
    /// retired by period resets. Monotone over the manager's life.
    pub fn stream_stats(&self) -> StreamStats {
        let mut total = self.retired_stream;
        for c in &self.clusterers {
            total.merge(c.stream_stats());
        }
        total
    }

    /// Macro-clustering effort accumulated across all rebalance rounds
    /// (restarts, iterations, Hamerly prune tallies). `winner_restart` is
    /// the most recent round's winner, not a sum.
    pub fn kmeans_stats(&self) -> KMeansStats {
        self.kmeans
    }

    /// The replica that will serve a client at `coord` — the one with the
    /// smallest *predicted* latency. This mirrors the paper's claim that a
    /// client knowing the replica coordinates "can predict the closest
    /// replica with a high accuracy although it has never accessed the
    /// replicas before".
    pub fn route(&self, coord: &Coord<D>) -> usize {
        self.placement[self.slot_for(coord)]
    }

    /// The clusterer slot (index into `placement`) serving `coord`: the
    /// nearest replica by coordinate distance. `total_cmp` with a strict
    /// `Less` keeps the first of ties, exactly like `min_by`.
    fn slot_for(&self, coord: &Coord<D>) -> usize {
        let mut idx = 0usize;
        let mut best = f64::INFINITY;
        for (i, &r) in self.placement.iter().enumerate() {
            let d = self.coords[r].distance(coord);
            if d.total_cmp(&best) == std::cmp::Ordering::Less {
                idx = i;
                best = d;
            }
        }
        idx
    }

    /// Routes an access and records it in the serving replica's summary.
    /// Returns the serving replica. Bad samples are ignored by the
    /// underlying clusterer but still routed.
    pub fn record_access(&mut self, coord: Coord<D>, weight: f64) -> usize {
        let idx = self.slot_for(&coord);
        let replica = self.placement[idx];
        self.clusterers[idx].observe(coord, weight);
        self.stats.accesses += 1;
        replica
    }

    /// Ingests one period's worth of accesses in stream order — exactly
    /// [`ReplicaManager::record_access`] once per element, bit for bit.
    /// Returns the number of accesses each placement slot served.
    ///
    /// Runs on the caller's thread: a fleet runs many owners' ingests at
    /// once, and that is the process's one parallel level.
    pub fn ingest_period(&mut self, accesses: &[(Coord<D>, f64)]) -> Vec<u64> {
        let mut served = vec![0u64; self.clusterers.len()];
        for &(coord, weight) in accesses {
            let idx = self.slot_for(&coord);
            self.clusterers[idx].observe(coord, weight);
            served[idx] += 1;
        }
        self.stats.accesses += accesses.len() as u64;
        served
    }

    /// Ships the current summaries (counting their bytes) without
    /// rebalancing — useful for inspecting what the central server would
    /// receive.
    pub fn summaries(&self) -> Vec<AccessSummary> {
        self.placement
            .iter()
            .zip(&self.clusterers)
            .map(|(&r, c)| AccessSummary::from_clusterer(r as u32, c))
            .collect()
    }

    /// Estimated mean delay (coordinate distances) of serving the given
    /// demand from `placement`.
    fn estimate_mean_delay(&self, placement: &[usize], demand: &[WeightedPoint<D>]) -> f64 {
        let total_w: f64 = demand.iter().map(|p| p.weight).sum();
        if total_w <= 0.0 {
            return 0.0;
        }
        let total: f64 = demand
            .iter()
            .map(|p| {
                let d = placement
                    .iter()
                    .map(|&r| self.coords[r].distance(&p.coord))
                    .fold(f64::INFINITY, f64::min);
                p.weight * d
            })
            .sum();
        total / total_w
    }

    /// Handles the failure of a replica: the node is removed from the
    /// placement (subsequent routing fails over to the survivors) and from
    /// the candidate set (a dead data center cannot host new replicas), and
    /// its summary is discarded — its clients re-appear in the survivors'
    /// summaries, and the next [`ReplicaManager::rebalance`] restores the
    /// target degree of replication at the best *surviving* site. Call
    /// [`ReplicaManager::restore_candidate`] when the site comes back.
    ///
    /// # Errors
    ///
    /// [`ManagerError::InvalidSetup`] when `node` is not currently a
    /// replica, or when it is the *last* replica (the object would become
    /// unavailable; handle total loss at a higher layer).
    pub fn fail_replica(&mut self, node: usize) -> Result<(), ManagerError> {
        let Some(idx) = self.placement.iter().position(|&r| r == node) else {
            return Err(ManagerError::InvalidSetup("node is not a replica"));
        };
        if self.placement.len() == 1 {
            return Err(ManagerError::InvalidSetup("cannot fail the last replica"));
        }
        self.placement.remove(idx);
        let gone = self.clusterers.remove(idx);
        self.retired_stream.merge(gone.stream_stats());
        self.candidates.retain(|&c| c != node);
        self.stats.failures += 1;
        Ok(())
    }

    /// Removes a data center from the candidate set without requiring it to
    /// host a replica — the failure detector concluded the site is dark, so
    /// no future rebalance may place a replica there. If the node *does*
    /// currently host a replica, prefer [`ReplicaManager::fail_replica`],
    /// which also evicts it from the placement. Idempotent.
    ///
    /// # Errors
    ///
    /// [`ManagerError::InvalidSetup`] when `node` is outside the coordinate
    /// range, or when removing it would leave the candidate set empty.
    pub fn quarantine_candidate(&mut self, node: usize) -> Result<(), ManagerError> {
        if node >= self.coords.len() {
            return Err(ManagerError::InvalidSetup(
                "candidate index out of coordinate range",
            ));
        }
        if self.candidates == [node] {
            return Err(ManagerError::InvalidSetup(
                "cannot quarantine the last candidate",
            ));
        }
        self.candidates.retain(|&c| c != node);
        Ok(())
    }

    /// Returns a recovered data center to the candidate set (idempotent).
    ///
    /// # Errors
    ///
    /// [`ManagerError::InvalidSetup`] when `node` is outside the coordinate
    /// range.
    pub fn restore_candidate(&mut self, node: usize) -> Result<(), ManagerError> {
        if node >= self.coords.len() {
            return Err(ManagerError::InvalidSetup(
                "candidate index out of coordinate range",
            ));
        }
        if !self.candidates.contains(&node) {
            self.candidates.push(node);
        }
        Ok(())
    }

    /// Adapts `k` to the observed demand (no-op when
    /// [`ManagerConfig::demand_per_replica`] is zero). Returns the new `k`.
    pub fn adapt_k(&mut self) -> usize {
        if self.config.demand_per_replica > 0.0 {
            let demand: f64 = self.clusterers.iter().map(|c| c.total_weight()).sum();
            let wanted = (demand / self.config.demand_per_replica).round() as usize;
            self.config.k = wanted
                .clamp(self.config.min_k, self.config.max_k)
                .min(self.candidates.len());
        }
        self.config.k
    }

    /// Empties every per-replica summarizer — the start-of-period reset,
    /// sized to the current placement. Kept summarizers are `clear`ed in
    /// place (their slab allocations survive, so a long-lived manager — or
    /// a fleet of a million of them — stops paying the per-period
    /// alloc/free churn); a cleared summarizer behaves bit-identically to a
    /// fresh one. Stream tallies stay monotone either way: `clear` does not
    /// reset them, so live accumulation replaces the old banking, and only
    /// summarizers dropped on a shrink are banked into `retired_stream`.
    fn reset_clusterers(&mut self) {
        while self.clusterers.len() > self.placement.len() {
            let gone = self.clusterers.pop().expect("len checked above");
            self.retired_stream.merge(gone.stream_stats());
        }
        for c in &mut self.clusterers {
            c.clear();
        }
        while self.clusterers.len() < self.placement.len() {
            self.clusterers
                .push(OnlineClusterer::new(self.config.micro_clusters));
        }
    }

    /// One periodic round: collect summaries, macro-cluster (Algorithm 1),
    /// decide on migration, and start a fresh summarization period.
    ///
    /// When no accesses were recorded this period, the round is a no-op
    /// decision with the old placement proposed.
    ///
    /// Exactly [`ReplicaManager::propose_rebalance`] followed by
    /// [`ReplicaManager::commit_rebalance`] — the split exists so an
    /// external scheduler can collect many objects' proposals, rank them
    /// under a global migration budget, and commit or defer each one; with
    /// no scheduler in between the two halves compose to the historical
    /// single call, bit for bit.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Cluster`] if the weighted K-means fails.
    pub fn rebalance(&mut self) -> Result<MigrationDecision, ManagerError> {
        let pending = self.propose_rebalance()?;
        Ok(self.commit_rebalance(pending))
    }

    /// [`ReplicaManager::propose`] on [`Plan::Recorded`].
    ///
    /// # Errors
    ///
    /// [`ManagerError::Cluster`] if the weighted K-means fails.
    pub fn propose_rebalance(&mut self) -> Result<PendingRebalance, ManagerError> {
        self.propose(Plan::Recorded)
    }

    /// The first half of a rebalance round, for any [`Plan`]: *demand
    /// source → solver → gain-vs-cost gate*, without touching the placement
    /// or the summarization period. The returned [`PendingRebalance`]
    /// carries the decision an independent manager would have taken; hand
    /// it back via [`ReplicaManager::commit_rebalance`] or
    /// [`ReplicaManager::defer_rebalance`] to end the period.
    ///
    /// The order of effects is the same for every plan, and pinned:
    ///
    /// 1. an external plan is validated *before* anything is accounted — a
    ///    rejected plan leaves [`ReplicaManager::stats`] untouched;
    /// 2. the round and the summaries' wire bytes are accounted (summaries
    ///    are collected and shipped whatever the solver will optimize for);
    /// 3. an empty demand (nothing recorded; or, for [`Plan::Demand`], no
    ///    positive-weight entry) is the no-op round;
    /// 4. the solver — [`ReplicaManager::adapt_k`] on the observed load,
    ///    seeded weighted k-means, centroid → candidate snapping — runs and
    ///    accumulates [`ReplicaManager::kmeans_stats`], except under
    ///    [`Plan::Placement`];
    /// 5. the gate compares old and proposed placements on the plan's
    ///    demand: a resize applies unconditionally, a same-size proposal
    ///    must clear `gain_per_dollar × cost_usd`.
    ///
    /// So [`Plan::Demand`] over the manager's own pseudo points decides
    /// bit-identically to [`Plan::Recorded`], and [`Plan::Placement`] of the
    /// current placement is a quiet reactive round.
    ///
    /// # Errors
    ///
    /// [`ManagerError::InvalidSetup`] when a [`Plan::Placement`] is empty,
    /// repeats a node or strays outside the current candidate set, or a
    /// [`Plan::Demand`] holds a non-finite weight or coordinate;
    /// [`ManagerError::Cluster`] if the weighted K-means fails.
    pub fn propose(&mut self, plan: Plan<'_, D>) -> Result<PendingRebalance, ManagerError> {
        match plan {
            Plan::Recorded => {}
            Plan::Demand(demand) => {
                if demand
                    .iter()
                    .any(|(coord, w)| !w.is_finite() || !coord.is_finite())
                {
                    return Err(ManagerError::InvalidSetup(
                        "demand holds a non-finite weight or coordinate",
                    ));
                }
            }
            Plan::Placement(target) => {
                if target.is_empty() {
                    return Err(ManagerError::InvalidSetup("target placement is empty"));
                }
                if (1..target.len()).any(|i| target[..i].contains(&target[i])) {
                    return Err(ManagerError::InvalidSetup(
                        "target placement repeats a node",
                    ));
                }
                if target.iter().any(|r| !self.candidates.contains(r)) {
                    return Err(ManagerError::InvalidSetup(
                        "target placement must be a subset of candidates",
                    ));
                }
            }
        }

        self.stats.rounds += 1;
        // "The micro-clusters are sent to a central server": account for
        // the wire bytes (Table II's bandwidth). The size is a pure
        // function of each summarizer's cluster count, so no summary is
        // materialized here — [`ReplicaManager::summaries`] stays available
        // for callers that want the payloads themselves.
        self.stats.summary_bytes += self
            .clusterers
            .iter()
            .map(|c| AccessSummary::encoded_len_for(D, c.clusters().len()) as u64)
            .sum::<u64>();

        let demand: Vec<WeightedPoint<D>> = match plan {
            Plan::Demand(demand) => demand
                .iter()
                .filter(|&&(_, w)| w > 0.0)
                .map(|&(coord, w)| WeightedPoint::new(coord, w))
                .collect(),
            // Each micro-cluster's pseudo point, gathered straight from
            // the summarizers into one vector sized up front.
            Plan::Recorded | Plan::Placement(_) => {
                let mut points =
                    Vec::with_capacity(self.clusterers.iter().map(|c| c.clusters().len()).sum());
                points.extend(
                    self.clusterers
                        .iter()
                        .flat_map(|c| c.clusters())
                        .map(|mc| WeightedPoint::new(mc.centroid(), mc.weight())),
                );
                points
            }
        };
        if demand.is_empty() {
            return Ok(PendingRebalance {
                decision: MigrationDecision {
                    old: self.placement.clone(),
                    proposed: self.placement.clone(),
                    old_est_ms: 0.0,
                    new_est_ms: 0.0,
                    moved: 0,
                    cost_usd: 0.0,
                    applied: false,
                },
                empty: true,
            });
        }

        let proposed = match plan {
            Plan::Placement(target) => target.to_vec(),
            Plan::Recorded | Plan::Demand(_) => {
                let k = self.adapt_k();
                let kcfg = KMeansConfig::new(k.min(demand.len())).with_seed(self.config.seed);
                // The `_with_stats` variants return bit-for-bit the same
                // clustering as their plain counterparts; the counters are
                // a pure side channel.
                let (clustering, kstats) = weighted_kmeans_with_stats(&demand, kcfg)?;
                self.kmeans.restarts += kstats.restarts;
                self.kmeans.iterations += kstats.iterations;
                self.kmeans.pruned_upper += kstats.pruned_upper;
                self.kmeans.pruned_tightened += kstats.pruned_tightened;
                self.kmeans.full_scans += kstats.full_scans;
                self.kmeans.winner_restart = kstats.winner_restart;
                nearest_distinct_candidates(
                    &clustering.centroids,
                    &self.candidates,
                    &self.coords,
                    k,
                )
            }
        };

        let moved = moved_replicas(&self.placement, &proposed);
        let mut decision = MigrationDecision {
            old_est_ms: self.estimate_mean_delay(&self.placement, &demand),
            new_est_ms: self.estimate_mean_delay(&proposed, &demand),
            moved,
            cost_usd: self.config.cost.cost_usd(moved),
            applied: false,
            old: self.placement.clone(),
            proposed,
        };
        // A change in replica *count* is demand-driven (adapt_k) and applies
        // unconditionally — the paper varies k "as the demand of an object
        // increases [or] decreases". Same-size proposals must pay for their
        // migration: the relative gain has to clear the per-dollar bar.
        decision.applied = decision.proposed.len() != decision.old.len()
            || (moved > 0
                && decision.relative_gain() >= self.config.gain_per_dollar * decision.cost_usd);
        Ok(PendingRebalance {
            decision,
            empty: false,
        })
    }

    /// The second half of a rebalance round: honour the pending decision
    /// (apply the proposed placement if `applied`) and end the
    /// summarization period. Returns the decision unchanged.
    pub fn commit_rebalance(&mut self, pending: PendingRebalance) -> MigrationDecision {
        let decision = pending.decision;
        if pending.empty {
            return decision;
        }
        let applied = decision.applied;
        if applied {
            self.stats.replicas_moved += decision.moved as u64;
            self.placement = decision.proposed.clone();
        }
        // Start the next summarization period. With decay disabled the
        // summaries reset; with decay enabled they are aged — and, after an
        // applied migration, the aged micro-clusters are *redistributed*
        // onto the new replica set (each to the replica whose coordinates
        // are nearest its centroid), because the pooled demand evidence
        // stays valid even though the serving partition changed.
        if self.config.period_decay <= 0.0 {
            self.reset_clusterers();
        } else {
            let factor = self.config.period_decay.min(1.0);
            for c in &mut self.clusterers {
                c.decay(factor);
            }
            if applied {
                let retained: Vec<georep_cluster::micro::MicroCluster<D>> = self
                    .clusterers
                    .iter()
                    .flat_map(|c| c.clusters().iter().copied())
                    .collect();
                self.reset_clusterers();
                for mc in retained {
                    let idx = self.slot_for(&mc.centroid());
                    self.clusterers[idx].absorb_cluster(mc);
                }
            }
        }
        decision
    }

    /// Ends the period *without* migrating, whatever the pending decision
    /// said — the deferred path a budget-exhausted scheduler takes. The
    /// returned decision reports `applied: false` (and therefore zero
    /// dollars spent); the summaries still reset or decay exactly as an
    /// unapplied round would, so a deferred object re-proposes from fresh
    /// evidence next period.
    pub fn defer_rebalance(&mut self, mut pending: PendingRebalance) -> MigrationDecision {
        pending.decision.applied = false;
        self.commit_rebalance(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_coords() -> Vec<Coord<1>> {
        (0..6).map(|i| Coord::new([i as f64 * 10.0])).collect()
    }

    fn manager(k: usize) -> ReplicaManager<1> {
        ReplicaManager::new(
            line_coords(),
            vec![0, 3, 5],
            vec![0, 3].into_iter().take(k.max(1)).collect(),
            ManagerConfig::new(k, 4),
        )
        .unwrap()
    }

    /// Propose on `plan`, then commit — `rebalance()` for any plan.
    fn propose_and_commit(mgr: &mut ReplicaManager<1>, plan: Plan<'_, 1>) -> MigrationDecision {
        let pending = mgr.propose(plan).unwrap();
        mgr.commit_rebalance(pending)
    }

    #[test]
    fn constructor_validations() {
        let err = |cfg, cands: Vec<usize>, init: Vec<usize>| {
            ReplicaManager::<1>::new(line_coords(), cands, init, cfg).unwrap_err()
        };
        assert!(matches!(
            err(ManagerConfig::new(0, 4), vec![0], vec![0]),
            ManagerError::InvalidSetup(_)
        ));
        assert!(matches!(
            err(ManagerConfig::new(1, 4), vec![], vec![]),
            ManagerError::InvalidSetup(_)
        ));
        assert!(matches!(
            err(ManagerConfig::new(1, 4), vec![99], vec![99]),
            ManagerError::InvalidSetup(_)
        ));
        assert!(matches!(
            err(ManagerConfig::new(1, 4), vec![0, 3], vec![1]),
            ManagerError::InvalidSetup(_)
        ));
    }

    #[test]
    fn a_repeated_candidate_is_rejected() {
        // Accepted, this put both replicas on node 0 once demand sat there.
        let built = ReplicaManager::<1>::new(
            line_coords(),
            vec![0, 0, 5],
            vec![5],
            ManagerConfig::new(2, 4),
        );
        assert!(matches!(built, Err(ManagerError::InvalidSetup(_))));
    }

    #[test]
    fn non_finite_or_negative_money_and_rates_are_rejected() {
        type Set = fn(&mut ManagerConfig, f64);
        let fields: [(&str, Set); 5] = [
            ("gain_per_dollar", |c, x| c.gain_per_dollar = x),
            ("demand_per_replica", |c, x| c.demand_per_replica = x),
            ("period_decay", |c, x| c.period_decay = x),
            ("object_size_gb", |c, x| c.cost.object_size_gb = x),
            ("cost_per_gb", |c, x| c.cost.cost_per_gb = x),
        ];
        for (name, set) in fields {
            for bad in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
                let mut cfg = ManagerConfig::new(2, 4);
                set(&mut cfg, bad);
                assert!(
                    matches!(
                        ReplicaManager::<1>::new(line_coords(), vec![0, 3, 5], vec![0, 3], cfg),
                        Err(ManagerError::InvalidSetup(_))
                    ),
                    "{name} = {bad} must be rejected"
                );
            }
            for good in [0.0, 0.5] {
                let mut cfg = ManagerConfig::new(2, 4);
                set(&mut cfg, good);
                assert!(
                    ReplicaManager::<1>::new(line_coords(), vec![0, 3, 5], vec![0, 3], cfg).is_ok(),
                    "{name} = {good} must be accepted"
                );
            }
        }
    }

    #[test]
    fn routes_to_predicted_closest() {
        let mgr = manager(2);
        assert_eq!(mgr.route(&Coord::new([2.0])), 0);
        assert_eq!(mgr.route(&Coord::new([29.0])), 3);
    }

    #[test]
    fn migrates_toward_demand() {
        let mut mgr = manager(2);
        for _ in 0..200 {
            mgr.record_access(Coord::new([49.0]), 1.0);
            mgr.record_access(Coord::new([41.0]), 1.0);
        }
        let d = mgr.rebalance().unwrap();
        assert!(d.applied, "decision {d:?}");
        assert!(d.new_est_ms < d.old_est_ms);
        assert!(
            mgr.placement().contains(&5),
            "placement {:?}",
            mgr.placement()
        );
        assert_eq!(mgr.stats().rounds, 1);
        assert!(mgr.stats().replicas_moved >= 1);
        assert!(mgr.stats().summary_bytes > 0);
    }

    #[test]
    fn stable_demand_does_not_migrate() {
        let mut mgr = manager(2);
        // Demand exactly at the current replicas.
        for _ in 0..100 {
            mgr.record_access(Coord::new([0.0]), 1.0);
            mgr.record_access(Coord::new([30.0]), 1.0);
        }
        let d = mgr.rebalance().unwrap();
        assert!(!d.applied, "no gain available: {d:?}");
        assert_eq!(mgr.placement(), &[0, 3]);
    }

    #[test]
    fn empty_period_is_noop() {
        let mut mgr = manager(2);
        let d = mgr.rebalance().unwrap();
        assert!(!d.applied);
        assert_eq!(d.moved, 0);
        assert_eq!(d.proposed, vec![0, 3]);
    }

    #[test]
    fn external_placement_passes_through_the_migration_gate() {
        // Demand sits at 50; an external solver hands the manager node 5.
        let mut mgr = manager(1);
        for _ in 0..100 {
            mgr.record_access(Coord::new([50.0]), 1.0);
        }
        let d = propose_and_commit(&mut mgr, Plan::Placement(&[5]));
        assert!(d.applied, "{d:?}");
        assert_eq!(d.moved, 1);
        assert!(d.new_est_ms < d.old_est_ms);
        assert_eq!(mgr.placement(), &[5]);
        assert_eq!(mgr.stats().rounds, 1);
        assert!(mgr.stats().summary_bytes > 0);
    }

    #[test]
    fn external_placement_echoing_the_current_one_is_a_quiet_round() {
        let mut mgr = manager(2);
        for _ in 0..50 {
            mgr.record_access(Coord::new([0.0]), 1.0);
        }
        let d = propose_and_commit(&mut mgr, Plan::Placement(&[0, 3]));
        assert!(!d.applied, "no move proposed means nothing to pay for");
        assert_eq!(d.moved, 0);
        assert_eq!(mgr.placement(), &[0, 3]);
    }

    #[test]
    fn external_placement_on_an_empty_period_is_noop() {
        let mut mgr = manager(2);
        let d = propose_and_commit(&mut mgr, Plan::Placement(&[3, 5]));
        assert!(!d.applied);
        assert_eq!(d.moved, 0);
        assert_eq!(mgr.placement(), &[0, 3], "empty evidence moves nothing");
    }

    #[test]
    fn external_placement_is_validated() {
        let mut mgr = manager(2);
        for bad in [vec![], vec![3, 3], vec![0, 4], vec![0, 99]] {
            assert!(
                matches!(
                    mgr.propose(Plan::Placement(&bad)),
                    Err(ManagerError::InvalidSetup(_))
                ),
                "target {bad:?} must be rejected"
            );
        }
        // A rejected proposal must not have consumed the period.
        assert_eq!(mgr.stats().rounds, 0);
    }

    #[test]
    fn external_demand_is_validated() {
        let mut mgr = manager(2);
        mgr.record_access(Coord::new([1.0]), 1.0);
        let before = mgr.stats();
        for bad in [
            (Coord::new([48.0]), f64::INFINITY),
            (Coord::new([48.0]), f64::NAN),
            (Coord::new([f64::NAN]), 1.0),
            (Coord::new([f64::INFINITY]), 0.0),
        ] {
            let demand = [(Coord::new([2.0]), 1.0), bad];
            assert!(
                matches!(
                    mgr.propose(Plan::Demand(&demand)),
                    Err(ManagerError::InvalidSetup(_))
                ),
                "demand entry {bad:?} must be rejected, not panic"
            );
        }
        assert_eq!(mgr.stats(), before, "a rejected plan accounts nothing");
        // Zero and negative weights are not errors: they are dropped.
        let d = propose_and_commit(
            &mut mgr,
            Plan::Demand(&[(Coord::new([48.0]), 0.0), (Coord::new([48.0]), -1.0)]),
        );
        assert!(!d.applied);
        assert_eq!(mgr.stats().rounds, 1);
    }

    #[test]
    fn high_cost_blocks_marginal_migration() {
        let coords = line_coords();
        // Demand slightly favours node 5 over node 3, but the object is
        // huge and the threshold strict.
        let mut cfg = ManagerConfig::new(1, 4);
        cfg.cost = MigrationCostModel {
            object_size_gb: 1000.0,
            cost_per_gb: 0.10,
        };
        cfg.gain_per_dollar = 0.05;
        let mut mgr = ReplicaManager::new(coords, vec![3, 5], vec![3], cfg).unwrap();
        for _ in 0..50 {
            mgr.record_access(Coord::new([38.0]), 1.0);
        }
        let d = mgr.rebalance().unwrap();
        // Gain would be (8 vs 12)/12 ≈ 33 %, threshold needs 0.05 × $100 =
        // 5.0 ⇒ blocked.
        assert!(!d.applied, "{d:?}");
        assert_eq!(mgr.placement(), &[3]);
    }

    #[test]
    fn adaptive_k_scales_with_demand() {
        let mut cfg = ManagerConfig::new(1, 4);
        cfg.demand_per_replica = 100.0;
        cfg.min_k = 1;
        cfg.max_k = 3;
        let mut mgr = ReplicaManager::new(line_coords(), vec![0, 3, 5], vec![0], cfg).unwrap();
        // ~300 weight ⇒ k should grow to 3.
        for i in 0..300 {
            let x = (i % 3) as f64 * 20.0 + 1.0;
            mgr.record_access(Coord::new([x]), 1.0);
        }
        mgr.rebalance().unwrap();
        assert_eq!(mgr.k(), 3);
        assert_eq!(mgr.placement().len(), 3);

        // Demand collapses ⇒ k shrinks back to min_k.
        mgr.record_access(Coord::new([1.0]), 1.0);
        mgr.rebalance().unwrap();
        assert_eq!(mgr.k(), 1);
        assert_eq!(mgr.placement().len(), 1);
    }

    #[test]
    fn failed_replica_is_removed_and_restored_next_period() {
        let mut mgr = manager(2);
        assert_eq!(mgr.placement(), &[0, 3]);
        mgr.fail_replica(3).unwrap();
        assert_eq!(mgr.placement(), &[0]);
        assert_eq!(mgr.stats().failures, 1);
        // Routing fails over to the survivor.
        assert_eq!(mgr.route(&Coord::new([29.0])), 0);

        // Demand on both sides; the next round restores k = 2.
        for _ in 0..100 {
            mgr.record_access(Coord::new([2.0]), 1.0);
            mgr.record_access(Coord::new([48.0]), 1.0);
        }
        mgr.rebalance().unwrap();
        assert_eq!(
            mgr.placement().len(),
            2,
            "k must be restored: {:?}",
            mgr.placement()
        );
    }

    #[test]
    fn failing_non_replica_or_last_replica_errors() {
        let mut mgr = manager(2);
        assert!(matches!(
            mgr.fail_replica(5),
            Err(ManagerError::InvalidSetup(_))
        ));
        mgr.fail_replica(0).unwrap();
        assert!(matches!(
            mgr.fail_replica(3),
            Err(ManagerError::InvalidSetup(_))
        ));
    }

    #[test]
    fn quarantine_excludes_candidate_from_future_placements() {
        let mut mgr = manager(2);
        mgr.quarantine_candidate(5).unwrap();
        assert_eq!(mgr.candidates(), &[0, 3]);
        // Idempotent; quarantining a non-candidate is a no-op.
        mgr.quarantine_candidate(5).unwrap();
        for _ in 0..100 {
            mgr.record_access(Coord::new([49.0]), 1.0);
        }
        mgr.rebalance().unwrap();
        assert!(
            !mgr.placement().contains(&5),
            "quarantined site must not be chosen: {:?}",
            mgr.placement()
        );
        assert!(matches!(
            mgr.quarantine_candidate(99),
            Err(ManagerError::InvalidSetup(_))
        ));
        // The site heals: restore, and demand pulls a replica back.
        mgr.restore_candidate(5).unwrap();
        for _ in 0..100 {
            mgr.record_access(Coord::new([49.0]), 1.0);
        }
        mgr.rebalance().unwrap();
        assert!(mgr.placement().contains(&5));
    }

    #[test]
    fn last_candidate_cannot_be_quarantined() {
        let mut mgr =
            ReplicaManager::new(line_coords(), vec![3], vec![3], ManagerConfig::new(1, 4)).unwrap();
        assert!(matches!(
            mgr.quarantine_candidate(3),
            Err(ManagerError::InvalidSetup(_))
        ));
    }

    #[test]
    fn period_decay_keeps_faded_history() {
        let mut cfg = ManagerConfig::new(2, 4);
        cfg.period_decay = 0.5;
        let mut mgr = ReplicaManager::new(line_coords(), vec![0, 3, 5], vec![0, 3], cfg).unwrap();
        // Demand exactly at the replicas: no migration, so the summaries
        // age rather than reset.
        for _ in 0..40 {
            mgr.record_access(Coord::new([0.0]), 1.0);
            mgr.record_access(Coord::new([30.0]), 1.0);
        }
        let d = mgr.rebalance().unwrap();
        assert!(!d.applied);
        let kept: u64 = mgr
            .summaries()
            .iter()
            .map(|s| s.clusters.len() as u64)
            .sum();
        assert!(
            kept > 0,
            "decayed summaries must survive the period boundary"
        );
        let weight: f64 = mgr
            .summaries()
            .iter()
            .flat_map(|s| s.clusters.iter().map(|c| c.weight))
            .sum();
        assert!((weight - 40.0).abs() < 1e-9, "80 × 0.5 = 40, got {weight}");
    }

    #[test]
    fn decayed_history_is_redistributed_after_migration() {
        let mut cfg = ManagerConfig::new(2, 4);
        cfg.period_decay = 0.8;
        cfg.gain_per_dollar = 0.0;
        let mut mgr = ReplicaManager::new(line_coords(), vec![0, 3, 5], vec![0, 3], cfg).unwrap();
        // All demand near node 5: the placement migrates, and the aged
        // micro-clusters must survive, attached to the new replica set.
        for _ in 0..60 {
            mgr.record_access(Coord::new([48.0]), 1.0);
        }
        let d = mgr.rebalance().unwrap();
        assert!(d.applied);
        let retained: u64 = mgr
            .summaries()
            .iter()
            .map(|s| s.clusters.len() as u64)
            .sum();
        assert!(retained > 0, "history must survive the migration");
        let weight: f64 = mgr
            .summaries()
            .iter()
            .flat_map(|s| s.clusters.iter().map(|c| c.weight))
            .sum();
        assert!((weight - 60.0 * 0.8).abs() < 1e-9, "aged weight: {weight}");
        // The retained history sits with the replica nearest the demand.
        let five_idx = mgr
            .placement()
            .iter()
            .position(|&r| r == 5)
            .expect("5 is placed");
        assert!(mgr.summaries()[five_idx].clusters.len() as u64 == retained);
    }

    #[test]
    fn stream_stats_survive_period_resets_and_failures() {
        let mut mgr = manager(2);
        for _ in 0..50 {
            mgr.record_access(Coord::new([1.0]), 1.0);
            mgr.record_access(Coord::new([31.0]), 1.0);
        }
        let before = mgr.stream_stats();
        assert_eq!(before.absorbed + before.created, 100);
        // The period reset retires the clusterers but banks their tallies.
        mgr.rebalance().unwrap();
        assert_eq!(mgr.stream_stats(), before);
        // A replica failure retires one clusterer mid-period; its tallies
        // are banked too.
        for _ in 0..10 {
            mgr.record_access(Coord::new([1.0]), 1.0);
        }
        let mid = mgr.stream_stats();
        mgr.fail_replica(mgr.placement()[0]).unwrap();
        assert_eq!(mgr.stream_stats(), mid);
    }

    #[test]
    fn kmeans_stats_accumulate_across_rounds() {
        let mut mgr = manager(2);
        assert_eq!(mgr.kmeans_stats(), georep_cluster::KMeansStats::default());
        for round in 1..=3u64 {
            for _ in 0..20 {
                mgr.record_access(Coord::new([1.0]), 1.0);
                mgr.record_access(Coord::new([31.0]), 1.0);
            }
            mgr.rebalance().unwrap();
            let ks = mgr.kmeans_stats();
            // KMeansConfig::new defaults to 4 restarts per round.
            assert_eq!(ks.restarts, 4 * round, "round {round}");
            assert!(ks.iterations >= ks.restarts);
            assert_eq!(
                ks.point_updates(),
                ks.pruned_upper + ks.pruned_tightened + ks.full_scans
            );
            assert!(ks.winner_restart < 4);
        }
        // An empty period skips the macro-clustering entirely.
        let before = mgr.kmeans_stats();
        mgr.rebalance().unwrap();
        assert_eq!(mgr.kmeans_stats(), before);
    }

    /// A deterministic pseudo-random access batch spread over the line.
    fn synthetic_accesses(n: usize) -> Vec<(Coord<1>, f64)> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 55.0;
                let w = 0.5 + (state & 0xFF) as f64 / 256.0;
                (Coord::new([x]), w)
            })
            .collect()
    }

    #[test]
    fn ingest_period_matches_serial_record_access_exactly() {
        let accesses = synthetic_accesses(20_000);
        let mut serial = manager(2);
        for &(coord, weight) in &accesses {
            serial.record_access(coord, weight);
        }
        let mut batched = manager(2);
        let served = batched.ingest_period(&accesses);
        assert_eq!(served.iter().sum::<u64>(), accesses.len() as u64);
        assert_eq!(batched.summaries(), serial.summaries());
        assert_eq!(batched.stats().accesses, serial.stats().accesses);
        assert_eq!(batched.stream_stats(), serial.stream_stats());
        assert!(batched.ingest_period(&[]).iter().all(|&c| c == 0));
    }

    #[test]
    fn ingest_period_then_rebalance_migrates_like_the_serial_path() {
        let mut mgr = manager(2);
        let accesses: Vec<(Coord<1>, f64)> =
            (0..10_000).map(|_| (Coord::new([48.0]), 1.0)).collect();
        mgr.ingest_period(&accesses);
        let d = mgr.rebalance().unwrap();
        assert!(d.applied, "{d:?}");
        assert!(mgr.placement().contains(&5));
    }

    #[test]
    fn propose_then_commit_equals_rebalance() {
        let feed = |mgr: &mut ReplicaManager<1>| {
            for _ in 0..200 {
                mgr.record_access(Coord::new([49.0]), 1.0);
                mgr.record_access(Coord::new([41.0]), 1.0);
            }
        };
        let mut whole = manager(2);
        feed(&mut whole);
        let d_whole = whole.rebalance().unwrap();

        let mut split = manager(2);
        feed(&mut split);
        let pending = split.propose_rebalance().unwrap();
        assert!(!pending.is_empty_period());
        // Proposing must not yet touch the placement or the period.
        assert_eq!(split.placement(), &[0, 3]);
        let d_split = split.commit_rebalance(pending);
        assert_eq!(d_split, d_whole);
        assert_eq!(split.placement(), whole.placement());
        assert_eq!(split.summaries(), whole.summaries());
        assert_eq!(split.stats(), whole.stats());
    }

    #[test]
    fn deferred_rebalance_keeps_the_placement_but_ends_the_period() {
        let mut mgr = manager(2);
        for _ in 0..200 {
            mgr.record_access(Coord::new([49.0]), 1.0);
        }
        let pending = mgr.propose_rebalance().unwrap();
        assert!(pending.decision.applied, "the gain gate passes on its own");
        let d = mgr.defer_rebalance(pending);
        assert!(!d.applied);
        assert_eq!(mgr.placement(), &[0, 3], "deferral must not migrate");
        assert_eq!(mgr.stats().replicas_moved, 0);
        let post: u64 = mgr
            .summaries()
            .iter()
            .map(|s| s.clusters.len() as u64)
            .sum();
        assert_eq!(post, 0, "the period still ends on deferral");
        // An empty-period pending commits to a no-op, exactly as before.
        let empty = mgr.propose_rebalance().unwrap();
        assert!(empty.is_empty_period());
        let d = mgr.commit_rebalance(empty);
        assert!(!d.applied);
        assert_eq!(d.moved, 0);
    }

    #[test]
    fn summary_period_resets_after_rebalance() {
        let mut mgr = manager(2);
        for _ in 0..10 {
            mgr.record_access(Coord::new([1.0]), 1.0);
        }
        mgr.rebalance().unwrap();
        let post: u64 = mgr
            .summaries()
            .iter()
            .map(|s| s.clusters.len() as u64)
            .sum();
        assert_eq!(post, 0, "clusterers must reset each period");
        assert_eq!(mgr.stats().accesses, 10);
    }
}
