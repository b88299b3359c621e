//! The object-sharded fleet: one manager layer over a million keys.
//!
//! Everything below this module places and migrates **one** logical
//! object: a [`ReplicaManager`] summarizes one access stream, rebalances
//! one placement, pays for one object's moves. Real deployments replicate
//! *fleets* — the paper's Section V workloads are Zipf-distributed over
//! many objects — so this module shards the key space across the existing
//! per-object machinery without changing a bit of it:
//!
//! * **tiering** (`fleet::tier`) — the hot Zipf head gets exact per-object
//!   managers; the cold tail is hashed onto a bounded set of aggregated
//!   placement groups, so memory is `O(owners)`, never `O(objects)`;
//! * **shared read-only state** — all owners clone one
//!   `Arc<Vec<Coord<D>>>` coordinate table, and the fleet materializes one
//!   candidate-major [`CostTable`] for its own routing instead of
//!   rebuilding delay tables per key;
//! * **pooled ingest** ([`FleetManager::ingest_period`]) — accesses are
//!   partitioned by owner *in stream order* into arena-pooled buckets
//!   (reused across periods, so steady-state ingest allocates nothing),
//!   then owners absorb their buckets in parallel, each owner serially on
//!   whichever worker takes it;
//! * **budgeted migration** (`fleet::scheduler`) — owners propose rebalances
//!   independently, each on its recorded summaries ([`Plan::Recorded`]);
//!   a deterministic greedy batch commits the best gain-per-dollar moves
//!   under a global bandwidth budget and defers the rest. Forecast-driven
//!   placement runs only in [`crate::strategy::predictive::run_mode`].
//!
//! # The bit-identity contract
//!
//! A fleet over `K` objects is **bit-identical** to `K` independent
//! [`ReplicaManager`]s (constructed via [`FleetManager::owner_config`])
//! running on the same owner-routed sub-traces — at any
//! [`FleetConfig::threads`], and, with an unlimited budget, through every
//! rebalance round. Sharding is an execution strategy, never a semantic:
//! the `fleet_equivalence` suite pins this at `threads` 1/2/8, with
//! faults injected mid-run. Fleet owners are the process's one parallel
//! level: nothing an owner runs fans out again.

mod scheduler;
mod tier;

pub use scheduler::FleetRound;
pub use tier::Tiering;

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use georep_coord::Coord;

use crate::manager::{ManagerConfig, ManagerError, Plan, ReplicaManager};
use crate::migration::MigrationDecision;
use crate::objective::{CoordDelay, CostTable};
use crate::telemetry::Recorder;
use crate::threads::fan_out;

/// Error produced by [`FleetManager`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The fleet-level configuration was inconsistent.
    InvalidSetup(&'static str),
    /// An owner's manager rejected its inputs or failed to cluster.
    Manager(ManagerError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InvalidSetup(what) => write!(f, "invalid fleet setup: {what}"),
            FleetError::Manager(e) => write!(f, "owner manager failed: {e}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Manager(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ManagerError> for FleetError {
    fn from(e: ManagerError) -> Self {
        FleetError::Manager(e)
    }
}

/// Tuning of the fleet layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Size of the logical key space (object ids are `0..objects`).
    pub objects: u64,
    /// Objects `0..hot_objects` get exact per-object managers. Workload
    /// generators emit Zipf-*ranked* ids, so the lowest ids are the
    /// popularity head by construction.
    pub hot_objects: u64,
    /// Aggregated placement groups absorbing the cold tail (ignored when
    /// `hot_objects == objects`).
    pub cold_groups: usize,
    /// Per-owner manager tuning. The `seed` is a *base*: owner `i` runs
    /// with `seed.wrapping_add(i)` (see [`FleetManager::owner_config`]).
    pub manager: ManagerConfig,
    /// Global migration budget per rebalance round, in dollars of
    /// [`crate::migration::MigrationCostModel`] transfer cost.
    /// `f64::INFINITY` (the default) disables batching: every owner
    /// commits its own decision, exactly as if it ran in isolation.
    pub migration_budget_usd: f64,
    /// Worker threads for ingest and rebalance fan-out. `0` (the default)
    /// uses the machine's available parallelism. Thread count never
    /// changes any result — only wall-clock time.
    pub threads: usize,
}

impl FleetConfig {
    /// A fleet over `objects` keys with `hot_objects` exact managers,
    /// `cold_groups` tail groups, and `manager` as the per-owner tuning;
    /// unlimited migration budget, automatic thread count.
    pub fn new(objects: u64, hot_objects: u64, cold_groups: usize, manager: ManagerConfig) -> Self {
        FleetConfig {
            objects,
            hot_objects,
            cold_groups,
            manager,
            migration_budget_usd: f64::INFINITY,
            threads: 0,
        }
    }
}

/// Cumulative fleet statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetStats {
    /// Accesses ingested across all owners.
    pub accesses: u64,
    /// Accesses that landed in the exact hot tier.
    pub hot_accesses: u64,
    /// Fleet rebalance rounds executed.
    pub rounds: u64,
    /// Owner decisions applied across all rounds.
    pub committed: u64,
    /// Owner migrations deferred past the budget.
    pub deferred: u64,
    /// Replicas moved across all applied decisions.
    pub replicas_moved: u64,
    /// Migration dollars spent.
    pub spent_usd: f64,
    /// Replica failures absorbed via [`FleetManager::fail_node`] /
    /// [`FleetManager::fail_replica`].
    pub failures: u64,
}

impl FleetStats {
    /// Fraction of all ingested accesses served by the exact hot tier —
    /// the tiering-efficiency number the fleet bench reports.
    pub fn hot_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hot_accesses as f64 / self.accesses as f64
        }
    }
}

/// A fleet of logical objects sharded across per-object replica managers.
///
/// # Example
///
/// ```
/// use georep_core::fleet::{FleetConfig, FleetManager};
/// use georep_core::manager::ManagerConfig;
/// use georep_coord::Coord;
///
/// let coords: Vec<Coord<1>> = (0..6).map(|i| Coord::new([i as f64 * 10.0])).collect();
/// // 100 objects: the 4 hottest get exact managers, the tail shares 2 groups.
/// let config = FleetConfig::new(100, 4, 2, ManagerConfig::new(2, 4));
/// let mut fleet = FleetManager::new(coords, vec![0, 3, 5], vec![0, 3], config)?;
/// // One period of keyed accesses: (object, coordinate, weight).
/// let served = fleet.ingest_period(&[
///     (0, Coord::new([48.0]), 1.0),
///     (0, Coord::new([51.0]), 1.0),
///     (97, Coord::new([2.0]), 1.0),
/// ]);
/// assert_eq!(served.iter().sum::<u64>(), 3);
/// let round = fleet.rebalance()?;
/// assert_eq!(round.decisions.len(), fleet.owner_count());
/// # Ok::<(), georep_core::fleet::FleetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetManager<const D: usize> {
    tiering: Tiering,
    /// Hot managers first (owner id = object id), then cold groups.
    owners: Vec<ReplicaManager<D>>,
    budget_usd: f64,
    /// [`FleetConfig::threads`], with `0` resolved to the machine's count.
    threads: usize,
    /// Shared candidate-major delay table: built once from the common
    /// coordinate table, used by fleet-level routing for every key.
    cost_table: CostTable,
    stats: FleetStats,
    /// Arena-pooled per-owner ingest buckets: cleared, never shrunk, so
    /// steady-state ingest reuses the same slabs period after period.
    buckets: Vec<Vec<(Coord<D>, f64)>>,
}

impl<const D: usize> FleetManager<D> {
    /// Builds the fleet: one exact manager per hot object, one aggregated
    /// manager per cold group, all sharing one coordinate table and
    /// starting from the same candidates and initial placement.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidSetup`] for an inconsistent tiering or a NaN or
    /// negative migration budget, [`FleetError::Manager`] when the
    /// per-owner construction fails.
    pub fn new(
        coords: Vec<Coord<D>>,
        candidates: Vec<usize>,
        initial_placement: Vec<usize>,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        Self::new_shared(Arc::new(coords), candidates, initial_placement, config)
    }

    /// [`FleetManager::new`] over an already-shared coordinate table.
    ///
    /// # Errors
    ///
    /// As [`FleetManager::new`].
    pub fn new_shared(
        coords: Arc<Vec<Coord<D>>>,
        candidates: Vec<usize>,
        initial_placement: Vec<usize>,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        let tiering = Tiering::new(config.objects, config.hot_objects, config.cold_groups)
            .map_err(FleetError::InvalidSetup)?;
        // A NaN or negative budget would defer every same-size migration
        // forever instead of failing; `+∞` (no batching) stays valid.
        if config.migration_budget_usd.is_nan() || config.migration_budget_usd < 0.0 {
            return Err(FleetError::InvalidSetup(
                "migration budget must be non-negative (or +∞)",
            ));
        }
        let owner_count = tiering.owner_count();
        let mut owners = Vec::with_capacity(owner_count);
        for owner in 0..owner_count {
            owners.push(ReplicaManager::new_shared(
                coords.clone(),
                candidates.clone(),
                initial_placement.clone(),
                Self::owner_config(&config, owner),
            )?);
        }
        let oracle = CoordDelay::new(&coords, &coords);
        let cost_table = CostTable::from_oracle(&oracle, &candidates, coords.len(), coords.len());
        Ok(FleetManager {
            tiering,
            owners,
            budget_usd: config.migration_budget_usd,
            threads: match config.threads {
                0 => crate::threads::available_parallelism(),
                n => n,
            },
            cost_table,
            stats: FleetStats::default(),
            buckets: Vec::new(),
        })
    }

    /// The exact [`ManagerConfig`] owner `owner` runs with: the base
    /// config with the seed offset by the owner id — the same derivation
    /// an equivalence harness must use for its independent managers.
    pub fn owner_config(config: &FleetConfig, owner: usize) -> ManagerConfig {
        let mut cfg = config.manager;
        cfg.seed = config.manager.seed.wrapping_add(owner as u64);
        cfg
    }

    /// Ingests one period of keyed accesses `(object, coordinate, weight)`
    /// on [`FleetConfig::threads`] workers, returning the number of accesses
    /// each owner served (indexed by owner id). Owners are handed out one at
    /// a time to whichever worker is free, so the Zipf head (the lowest
    /// owner ids) spreads over every worker. The result is bit-identical
    /// at any thread count and under any schedule — threads only move
    /// wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics when an object id is outside the fleet's key space.
    pub fn ingest_period(&mut self, accesses: &[(u64, Coord<D>, f64)]) -> Vec<u64> {
        let owner_count = self.owners.len();
        if accesses.is_empty() {
            return vec![0; owner_count];
        }

        // Partition into the pooled per-owner buckets, preserving stream
        // order: each owner must see exactly the sub-trace an independent
        // manager would.
        if self.buckets.len() < owner_count {
            self.buckets.resize_with(owner_count, Vec::new);
        }
        for bucket in &mut self.buckets[..owner_count] {
            bucket.clear();
        }
        let hot_owners = self.tiering.hot_owners();
        let mut hot = 0u64;
        for &(object, coord, weight) in accesses {
            let owner = self.tiering.owner_of(object);
            if owner < hot_owners {
                hot += 1;
            }
            self.buckets[owner].push((coord, weight));
        }

        // Owners absorb their buckets, self-scheduled across the workers;
        // each owner's ingest runs serially on its worker's thread.
        let owners = self.owners.iter_mut().zip(&self.buckets[..owner_count]);
        let served = fan_out(self.threads, owners, |(mgr, bucket)| {
            mgr.ingest_period(bucket).iter().sum()
        });

        self.stats.accesses += accesses.len() as u64;
        self.stats.hot_accesses += hot;
        served
    }

    /// One fleet rebalance round: every owner proposes, handed out one at a
    /// time to whichever of the [`FleetConfig::threads`] workers is free;
    /// the scheduler batches the proposals under the global migration
    /// budget, and each owner commits or defers accordingly.
    ///
    /// # Errors
    ///
    /// [`FleetError::Manager`] when an owner's macro-clustering fails; the
    /// error of the lowest-numbered failing owner is reported.
    pub fn rebalance(&mut self) -> Result<FleetRound, FleetError> {
        let owner_count = self.owners.len();

        // Each proposal is exactly the decision the owner would take in
        // isolation, so the schedule is irrelevant.
        let proposals = fan_out(self.threads, &mut self.owners, |mgr| {
            mgr.propose(Plan::Recorded)
        });
        let pendings = proposals.into_iter().collect::<Result<Vec<_>, _>>()?;

        // Batch under the budget, then finish every owner's period.
        let decision_refs: Vec<&MigrationDecision> = pendings.iter().map(|p| &p.decision).collect();
        let (actions, spent) = scheduler::schedule(&decision_refs, self.budget_usd);
        let mut decisions = Vec::with_capacity(owner_count);
        let (mut committed, mut deferred, mut moved) = (0usize, 0usize, 0u64);
        for ((mgr, pending), action) in self.owners.iter_mut().zip(pendings).zip(&actions) {
            let decision = match action {
                scheduler::Action::Commit => mgr.commit_rebalance(pending),
                scheduler::Action::Defer => {
                    deferred += 1;
                    mgr.defer_rebalance(pending)
                }
            };
            if decision.applied {
                committed += 1;
                moved += decision.moved as u64;
            }
            decisions.push(decision);
        }

        self.stats.rounds += 1;
        self.stats.committed += committed as u64;
        self.stats.deferred += deferred as u64;
        self.stats.replicas_moved += moved;
        self.stats.spent_usd += spent;
        Ok(FleetRound {
            decisions,
            committed,
            deferred,
            moved_replicas: moved,
            spent_usd: spent,
        })
    }

    /// Routes an access to `object` from topology node `client` through
    /// the shared [`CostTable`] — bit-identical to
    /// [`ReplicaManager::route`] on the owner, without touching the
    /// coordinate table.
    ///
    /// # Panics
    ///
    /// Panics when `object` or `client` is out of range.
    pub fn route(&self, object: u64, client: usize) -> usize {
        let owner = &self.owners[self.tiering.owner_of(object)];
        let mut best = f64::INFINITY;
        let mut site = usize::MAX;
        for &node in owner.placement() {
            let slot = self
                .cost_table
                .slot_of(node)
                .expect("placements are subsets of the original candidates");
            let delay = self.cost_table.delay(slot, client);
            if delay.total_cmp(&best) == std::cmp::Ordering::Less {
                best = delay;
                site = node;
            }
        }
        site
    }

    /// Fails the replica of `object`'s owner hosted on `node` — see
    /// [`ReplicaManager::fail_replica`].
    ///
    /// # Errors
    ///
    /// As [`ReplicaManager::fail_replica`].
    ///
    /// # Panics
    ///
    /// Panics when `object` is outside the fleet's key space.
    pub fn fail_replica(&mut self, object: u64, node: usize) -> Result<(), FleetError> {
        let owner = self.tiering.owner_of(object);
        self.owners[owner].fail_replica(node)?;
        self.stats.failures += 1;
        Ok(())
    }

    /// Fleet-wide crash of topology node `node`: owners hosting a replica
    /// there evict it ([`ReplicaManager::fail_replica`]), every other
    /// owner quarantines the site so no future rebalance lands on it.
    /// Returns the number of replicas evicted.
    ///
    /// # Errors
    ///
    /// As the underlying manager calls; owners are repaired in id order
    /// and the first failure aborts (a node whose loss would strand an
    /// owner's last replica surfaces here).
    pub fn fail_node(&mut self, node: usize) -> Result<usize, FleetError> {
        let mut evicted = 0;
        for mgr in &mut self.owners {
            if mgr.placement().contains(&node) {
                mgr.fail_replica(node)?;
                self.stats.failures += 1;
                evicted += 1;
            } else {
                mgr.quarantine_candidate(node)?;
            }
        }
        Ok(evicted)
    }

    /// Fleet-wide recovery of `node`: restores it to every owner's
    /// candidate set (idempotent).
    ///
    /// # Errors
    ///
    /// As [`ReplicaManager::restore_candidate`].
    pub fn restore_node(&mut self, node: usize) -> Result<(), FleetError> {
        for mgr in &mut self.owners {
            mgr.restore_candidate(node)?;
        }
        Ok(())
    }

    /// Emits the fleet counters to `rec` as a snapshot.
    pub fn record_stats<R: Recorder + ?Sized>(&self, rec: &R) {
        rec.counter("fleet.accesses", self.stats.accesses);
        rec.counter("fleet.accesses.hot", self.stats.hot_accesses);
        rec.counter("fleet.rounds", self.stats.rounds);
        rec.counter("fleet.migrations.committed", self.stats.committed);
        rec.counter("fleet.migrations.deferred", self.stats.deferred);
        rec.counter("fleet.replicas.moved", self.stats.replicas_moved);
        rec.counter("fleet.failures", self.stats.failures);
        rec.observe("fleet.migration.spent_usd", self.stats.spent_usd);
        rec.observe("fleet.hot_fraction", self.stats.hot_fraction());
    }

    /// Cumulative fleet statistics.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// The object → owner map.
    pub fn tiering(&self) -> &Tiering {
        &self.tiering
    }

    /// The owner (manager index) of `object`.
    ///
    /// # Panics
    ///
    /// Panics when `object` is outside the fleet's key space.
    pub fn owner_of(&self, object: u64) -> usize {
        self.tiering.owner_of(object)
    }

    /// All owners, hot tier first, indexed by owner id.
    pub fn owners(&self) -> &[ReplicaManager<D>] {
        &self.owners
    }

    /// Owner `owner`'s manager.
    pub fn owner(&self, owner: usize) -> &ReplicaManager<D> {
        &self.owners[owner]
    }

    /// Number of owners (hot managers plus cold groups).
    pub fn owner_count(&self) -> usize {
        self.owners.len()
    }

    /// Size of the logical key space.
    pub fn objects(&self) -> u64 {
        self.tiering.objects()
    }

    /// The shared candidate-major delay table.
    pub fn cost_table(&self) -> &CostTable {
        &self.cost_table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_coords(n: usize) -> Vec<Coord<1>> {
        (0..n).map(|i| Coord::new([i as f64 * 10.0])).collect()
    }

    fn fleet_config(objects: u64, hot: u64, cold: usize) -> FleetConfig {
        let mut mgr = ManagerConfig::new(2, 4);
        mgr.seed = 0xF1EE7;
        FleetConfig::new(objects, hot, cold, mgr)
    }

    fn small_fleet() -> FleetManager<1> {
        FleetManager::new(
            line_coords(6),
            vec![0, 3, 5],
            vec![0, 3],
            fleet_config(100, 4, 2),
        )
        .unwrap()
    }

    #[test]
    fn a_repeated_candidate_is_rejected() {
        let built = FleetManager::<1>::new(
            line_coords(6),
            vec![0, 3, 0],
            vec![0, 3],
            fleet_config(100, 4, 2),
        );
        assert!(matches!(
            built,
            Err(FleetError::Manager(ManagerError::InvalidSetup(_)))
        ));
    }

    #[test]
    fn a_nan_or_negative_budget_is_rejected() {
        let build = |budget: f64| {
            let mut cfg = fleet_config(100, 4, 2);
            cfg.migration_budget_usd = budget;
            FleetManager::<1>::new(line_coords(6), vec![0, 3, 5], vec![0, 3], cfg)
        };
        for bad in [f64::NAN, -0.5, f64::NEG_INFINITY] {
            assert!(
                matches!(build(bad), Err(FleetError::InvalidSetup(_))),
                "budget {bad} must be rejected"
            );
        }
        for good in [0.0, 100.0, f64::INFINITY] {
            assert!(build(good).is_ok(), "budget {good} must be accepted");
        }
    }

    /// A deterministic keyed access stream skewed toward low object ids.
    fn keyed_stream(n: usize, objects: u64, seed: u64) -> Vec<(u64, Coord<1>, f64)> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Squaring a uniform draw skews toward 0: a cheap Zipf-ish head.
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let object = ((u * u * objects as f64) as u64).min(objects - 1);
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pos = (state >> 56) as f64 / 5.0;
                (object, Coord::new([pos]), 1.0)
            })
            .collect()
    }

    #[test]
    fn construction_sizes_the_owner_set_from_the_tiering() {
        let fleet = small_fleet();
        assert_eq!(fleet.owner_count(), 6);
        assert_eq!(fleet.objects(), 100);
        assert_eq!(fleet.tiering().hot_owners(), 4);
        assert_eq!(fleet.owner_of(2), 2);
        assert!(fleet.owner_of(50) >= 4);
        assert!(FleetManager::<1>::new(
            line_coords(6),
            vec![0, 3, 5],
            vec![0, 3],
            fleet_config(10, 11, 1),
        )
        .is_err());
    }

    #[test]
    fn owner_configs_derive_per_owner_seeds() {
        let config = fleet_config(100, 4, 2);
        let hot = FleetManager::<1>::owner_config(&config, 2);
        assert_eq!(hot.seed, 0xF1EE7 + 2);
        let cold = FleetManager::<1>::owner_config(&config, 5);
        assert_eq!(cold.seed, 0xF1EE7 + 5);
    }

    /// At 1, 2 and 8 fleet threads, every owner's served counts,
    /// decisions, placement and stats equal an independent manager's: on a
    /// skewed stream over many owners, and on periods of 8 192 accesses
    /// that all go to object 0, so one owner is the only one active.
    #[test]
    fn ingest_is_bit_identical_to_independent_managers() {
        let skewed = keyed_stream(15_000, 100, 0xACCE55);
        let single: Vec<(u64, Coord<1>, f64)> = keyed_stream(3 * 8_192, 100, 0x0BE)
            .into_iter()
            .map(|(_, coord, weight)| (0, coord, weight))
            .collect();
        for accesses in [skewed, single] {
            let period = accesses.len() / 3;
            for threads in [1usize, 2, 8] {
                let config = FleetConfig {
                    threads,
                    ..fleet_config(100, 4, 2)
                };
                let mut fleet =
                    FleetManager::new(line_coords(6), vec![0, 3, 5], vec![0, 3], config).unwrap();
                let mut solo: Vec<ReplicaManager<1>> = (0..fleet.owner_count())
                    .map(|owner| {
                        ReplicaManager::new(
                            line_coords(6),
                            vec![0, 3, 5],
                            vec![0, 3],
                            FleetManager::<1>::owner_config(&config, owner),
                        )
                        .unwrap()
                    })
                    .collect();

                for (round, chunk) in accesses.chunks(period).enumerate() {
                    let served = fleet.ingest_period(chunk);
                    assert_eq!(served.iter().sum::<u64>(), chunk.len() as u64);

                    // Route the same chunk by owner and feed the independents.
                    let mut sub: Vec<Vec<(Coord<1>, f64)>> = vec![Vec::new(); solo.len()];
                    for &(object, coord, weight) in chunk {
                        sub[fleet.owner_of(object)].push((coord, weight));
                    }
                    for (owner, (mgr, bucket)) in solo.iter_mut().zip(&sub).enumerate() {
                        let solo_served: u64 = mgr.ingest_period(bucket).iter().sum();
                        assert_eq!(served[owner], solo_served, "owner {owner} served count");
                    }

                    let fleet_round = fleet.rebalance().unwrap();
                    for (owner, mgr) in solo.iter_mut().enumerate() {
                        let solo_decision = mgr.rebalance().unwrap();
                        assert_eq!(
                            fleet_round.decisions[owner], solo_decision,
                            "threads={threads}: owner {owner} decision diverged in round {round}"
                        );
                        assert_eq!(fleet.owner(owner).placement(), mgr.placement());
                        assert_eq!(fleet.owner(owner).stats(), mgr.stats());
                    }
                }
                assert!(fleet.stats().hot_fraction() > 0.0);
                assert_eq!(fleet.stats().accesses, accesses.len() as u64);
            }
        }
    }

    #[test]
    fn a_zero_budget_defers_every_paid_migration() {
        let mut fleet = small_fleet();
        let mut unbudgeted = fleet.clone();
        fleet.budget_usd = 0.0;

        // Concentrate the demand at the far end of the line so every
        // owner's optimal placement clearly leaves the initial {0, 3}.
        let accesses: Vec<(u64, Coord<1>, f64)> = keyed_stream(30_000, 100, 0xB07)
            .into_iter()
            .map(|(object, coord, weight)| {
                (
                    object,
                    Coord::new([44.0 + coord.component(0) / 8.0]),
                    weight,
                )
            })
            .collect();
        fleet.ingest_period(&accesses);
        unbudgeted.ingest_period(&accesses);
        let starved = fleet.rebalance().unwrap();
        let free = unbudgeted.rebalance().unwrap();

        // The demand is skewed enough that the free fleet migrates; the
        // starved fleet must defer those same moves and stay put.
        assert!(free.committed > 0, "test demand must force a migration");
        assert_eq!(starved.deferred, free.committed);
        assert_eq!(starved.spent_usd, 0.0);
        for (owner, decision) in starved.decisions.iter().enumerate() {
            assert!(!decision.applied);
            assert_eq!(
                fleet.owner(owner).placement(),
                decision.old.as_slice(),
                "a starved owner must keep its old placement"
            );
        }
        assert_eq!(fleet.stats().deferred, free.committed as u64);
    }

    #[test]
    fn routing_matches_the_owning_manager() {
        let mut fleet = small_fleet();
        fleet.ingest_period(&keyed_stream(10_000, 100, 0x707E));
        fleet.rebalance().unwrap();
        let coords = line_coords(6);
        for object in [0u64, 3, 17, 99] {
            for (client, coord) in coords.iter().enumerate() {
                let owner = fleet.owner(fleet.owner_of(object));
                assert_eq!(
                    fleet.route(object, client),
                    owner.route(coord),
                    "object {object} client {client}"
                );
            }
        }
    }

    #[test]
    fn node_failure_sweeps_the_whole_fleet() {
        let mut fleet = small_fleet();
        fleet.ingest_period(&keyed_stream(10_000, 100, 0xFA11));
        let evicted = fleet.fail_node(3).unwrap();
        assert_eq!(evicted, fleet.owner_count());
        for owner in 0..fleet.owner_count() {
            assert!(!fleet.owner(owner).placement().contains(&3));
            assert!(!fleet.owner(owner).candidates().contains(&3));
        }
        assert_eq!(fleet.stats().failures, evicted as u64);
        fleet.restore_node(3).unwrap();
        for owner in 0..fleet.owner_count() {
            assert!(fleet.owner(owner).candidates().contains(&3));
        }
        // Failing a node nobody hosts only quarantines it.
        let mut fresh = small_fleet();
        assert_eq!(fresh.fail_node(5).unwrap(), 0);
        assert!(!fresh.owner(0).candidates().contains(&5));
    }

    #[test]
    fn ingest_buckets_are_pooled_across_periods() {
        let mut fleet = small_fleet();
        let accesses = keyed_stream(20_000, 100, 0x5AB);
        fleet.ingest_period(&accesses);
        let caps: Vec<usize> = fleet.buckets.iter().map(Vec::capacity).collect();
        for _ in 0..5 {
            fleet.ingest_period(&accesses);
        }
        assert_eq!(
            caps,
            fleet.buckets.iter().map(Vec::capacity).collect::<Vec<_>>(),
            "steady-state ingest must reuse its slabs"
        );
    }

    #[test]
    fn stats_snapshot_reaches_the_recorder() {
        use crate::telemetry::InMemoryRecorder;
        let mut fleet = small_fleet();
        fleet.ingest_period(&keyed_stream(5_000, 100, 0x7E1E));
        fleet.rebalance().unwrap();
        let rec = InMemoryRecorder::new();
        fleet.record_stats(&rec);
        assert_eq!(rec.counter_value("fleet.accesses"), 5_000);
        assert_eq!(rec.counter_value("fleet.rounds"), 1);
        assert!(rec.histogram("fleet.hot_fraction").is_some());
    }
}
