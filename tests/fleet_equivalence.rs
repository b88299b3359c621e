//! The fleet's bit-identity contract, pinned.
//!
//! A [`FleetManager`] over `K` objects is an *execution strategy*, not a
//! semantic: it must be bit-identical to `K` independent
//! [`ReplicaManager`]s (constructed via [`FleetManager::owner_config`])
//! running on the same owner-routed sub-traces — placements, served
//! counts, migration decisions and cumulative stats, with no epsilons
//! anywhere. This suite drives both sides with the same Zipf-keyed
//! workloads and asserts:
//!
//! * **thread invariance** — fleet ingest and rebalance at
//!   `FleetConfig::threads` 1, 2 and 8 produce identical results;
//! * **solo equivalence** — every owner finishes each round exactly where
//!   its isolated twin does, for all-hot and mixed hot/cold tierings;
//! * **fault transparency** — a deterministic fault schedule derived from
//!   a [`FaultPlan`] (crash windows sampled at period boundaries) leaves
//!   the fleet and its twins in identical states, at every thread count;
//! * **budget transparency** — under a binding migration budget each owner
//!   is its twin proposing on [`Plan::Recorded`] and taking the scheduler's
//!   commit-or-defer verdict, and the round never overspends.

use georep_coord::Coord;
use georep_core::fleet::{FleetConfig, FleetManager, FleetRound};
use georep_core::manager::{ManagerConfig, Plan, ReplicaManager};
use georep_core::migration::MigrationDecision;
use georep_net::sim::time::SimTime;
use georep_net::sim::FaultPlan;
use georep_workload::{Population, ShardedStream, StreamConfig, Zipf};
use proptest::prelude::*;

const D: usize = 3;
const CLIENTS: usize = 32;
const PERIOD_MS: f64 = 1_000.0;

/// Deterministic client coordinates (an LCG stand-in for an embedding).
fn coords() -> Vec<Coord<D>> {
    let mut state = 0x9E3779B97F4A7C15u64;
    (0..CLIENTS)
        .map(|_| {
            Coord::new(std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f64 / 1e4
            }))
        })
        .collect()
}

fn candidates() -> Vec<usize> {
    (0..CLIENTS).step_by(5).collect()
}

fn fleet_config(objects: u64, hot: u64, cold: usize, seed: u64) -> FleetConfig {
    let mut mgr = ManagerConfig::new(2, 4);
    mgr.seed = seed;
    FleetConfig::new(objects, hot, cold, mgr)
}

/// A keyed access trace: the workload layer's object dimension routed
/// through the shared coordinate table.
fn keyed_trace(objects: usize, seed: u64, n: usize) -> Vec<(u64, Coord<D>, f64)> {
    let pop = Population::zipf_skewed(CLIENTS, 1.2, seed);
    let cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed,
        ..Default::default()
    };
    let stream = ShardedStream::new(&pop, &cfg, n as f64 * 1.1, 8)
        .with_objects(Zipf::new(objects, 1.1).alias());
    let mut events = stream.generate();
    assert!(events.len() >= n, "stream fell short");
    events.truncate(n);
    let table = coords();
    events
        .into_iter()
        .map(|e| (e.object, table[e.client % CLIENTS], e.bytes_kib))
        .collect()
}

/// One fault operation applied at a period boundary, fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultOp {
    Fail(usize),
    Restore(usize),
}

/// Samples `plan` at each period boundary and turns node up/down *edges*
/// into a deterministic schedule of fleet-wide operations.
fn schedule_from_plan(plan: &FaultPlan, nodes: &[usize], periods: usize) -> Vec<Vec<FaultOp>> {
    let mut down = [false; CLIENTS];
    (0..periods)
        .map(|p| {
            let at = SimTime::from_ms(p as f64 * PERIOD_MS);
            let mut ops = Vec::new();
            for &node in nodes {
                let is_down = plan.node_down(node, at);
                if is_down != down[node] {
                    ops.push(if is_down {
                        FaultOp::Fail(node)
                    } else {
                        FaultOp::Restore(node)
                    });
                    down[node] = is_down;
                }
            }
            ops
        })
        .collect()
}

/// Everything the contract compares, per owner, per round.
#[derive(Debug, Clone, PartialEq)]
struct OwnerRound {
    served: u64,
    decision: MigrationDecision,
    placement: Vec<usize>,
}

fn run_fleet(
    trace: &[(u64, Coord<D>, f64)],
    config: FleetConfig,
    threads: usize,
    periods: usize,
    faults: &[Vec<FaultOp>],
) -> (Vec<Vec<OwnerRound>>, Vec<FleetRound>) {
    let initial: Vec<usize> = candidates()[..2].to_vec();
    let config = FleetConfig { threads, ..config };
    let mut fleet = FleetManager::new(coords(), candidates(), initial, config).unwrap();
    let per = trace.len() / periods;
    let mut rounds = Vec::new();
    let mut fleet_rounds = Vec::new();
    for p in 0..periods {
        if let Some(ops) = faults.get(p) {
            for &op in ops {
                match op {
                    FaultOp::Fail(node) => {
                        fleet.fail_node(node).unwrap();
                    }
                    FaultOp::Restore(node) => fleet.restore_node(node).unwrap(),
                }
            }
        }
        let chunk = &trace[p * per..(p + 1) * per];
        let served = fleet.ingest_period(chunk);
        let round = fleet.rebalance().unwrap();
        rounds.push(
            (0..fleet.owner_count())
                .map(|o| OwnerRound {
                    served: served[o],
                    decision: round.decisions[o].clone(),
                    placement: fleet.owner(o).placement().to_vec(),
                })
                .collect(),
        );
        fleet_rounds.push(round);
    }
    (rounds, fleet_rounds)
}

/// The `K` isolated twins: same owner configs, same owner-routed
/// sub-traces, same fault schedule — applied owner by owner.
fn run_solo(
    trace: &[(u64, Coord<D>, f64)],
    config: FleetConfig,
    periods: usize,
    faults: &[Vec<FaultOp>],
) -> Vec<Vec<OwnerRound>> {
    let tiering =
        georep_core::fleet::Tiering::new(config.objects, config.hot_objects, config.cold_groups)
            .unwrap();
    let initial: Vec<usize> = candidates()[..2].to_vec();
    let mut solo: Vec<ReplicaManager<D>> = (0..tiering.owner_count())
        .map(|owner| {
            ReplicaManager::new(
                coords(),
                candidates(),
                initial.clone(),
                FleetManager::<D>::owner_config(&config, owner),
            )
            .unwrap()
        })
        .collect();
    let per = trace.len() / periods;
    let mut rounds = Vec::new();
    for p in 0..periods {
        if let Some(ops) = faults.get(p) {
            for &op in ops {
                for mgr in &mut solo {
                    match op {
                        FaultOp::Fail(node) => {
                            if mgr.placement().contains(&node) {
                                mgr.fail_replica(node).unwrap();
                            } else {
                                mgr.quarantine_candidate(node).unwrap();
                            }
                        }
                        FaultOp::Restore(node) => mgr.restore_candidate(node).unwrap(),
                    }
                }
            }
        }
        let chunk = &trace[p * per..(p + 1) * per];
        let mut buckets: Vec<Vec<(Coord<D>, f64)>> = vec![Vec::new(); solo.len()];
        for &(object, coord, weight) in chunk {
            buckets[tiering.owner_of(object)].push((coord, weight));
        }
        rounds.push(
            solo.iter_mut()
                .zip(&buckets)
                .map(|(mgr, bucket)| {
                    let served: u64 = mgr.ingest_period(bucket).iter().sum();
                    let decision = mgr.rebalance().unwrap();
                    OwnerRound {
                        served,
                        decision,
                        placement: mgr.placement().to_vec(),
                    }
                })
                .collect(),
        );
    }
    rounds
}

fn assert_equivalent(
    trace: &[(u64, Coord<D>, f64)],
    config: FleetConfig,
    periods: usize,
    faults: &[Vec<FaultOp>],
) {
    let baseline = run_fleet(trace, config, 1, periods, faults);
    for threads in [2usize, 8] {
        let run = run_fleet(trace, config, threads, periods, faults);
        assert_eq!(
            baseline, run,
            "fleet diverged between 1 and {threads} threads"
        );
    }
    let solo = run_solo(trace, config, periods, faults);
    assert_eq!(baseline.0, solo, "fleet diverged from its isolated twins");
}

proptest! {
    /// All-hot fleets: every object is its own exact manager, and the
    /// fleet is literally `K` independent managers run through one layer.
    #[test]
    fn all_hot_fleets_match_their_independent_twins(
        objects in 3u64..8,
        seed in 0u64..500,
    ) {
        let config = fleet_config(objects, objects, 0, seed.wrapping_mul(0x9E37).wrapping_add(1));
        let trace = keyed_trace(objects as usize, seed.wrapping_add(0xACE), 2_400);
        assert_equivalent(&trace, config, 2, &[]);
    }

    /// Mixed tierings: a hot head of exact managers plus hashed cold
    /// groups — the twins run on owner-routed (not object-routed)
    /// sub-traces, which is exactly what the tiering promises.
    #[test]
    fn mixed_tier_fleets_match_their_independent_twins(
        hot in 1u64..4,
        cold in 1usize..4,
        seed in 0u64..500,
    ) {
        let config = fleet_config(64, hot, cold, seed.wrapping_mul(0x6B).wrapping_add(7));
        let trace = keyed_trace(64, seed.wrapping_add(0xBEEF), 2_400);
        assert_equivalent(&trace, config, 2, &[]);
    }
}

#[test]
fn fleets_stay_equivalent_under_a_fault_plan() {
    // Two crash windows from the fault layer: node 5 dies during period 1
    // and recovers for period 3; node 10 dies during period 2 and stays
    // down. Sampled at period boundaries this yields a deterministic
    // fail/restore schedule applied fleet-wide and to every twin.
    let plan = FaultPlan::new(0xFA17)
        .crash(
            5,
            SimTime::from_ms(0.5 * PERIOD_MS),
            SimTime::from_ms(2.5 * PERIOD_MS),
        )
        .crash(10, SimTime::from_ms(1.5 * PERIOD_MS), SimTime::MAX);
    let periods = 4;
    let schedule = schedule_from_plan(&plan, &candidates(), periods);
    assert_eq!(
        schedule,
        vec![
            vec![],
            vec![FaultOp::Fail(5)],
            vec![FaultOp::Fail(10)],
            vec![FaultOp::Restore(5)],
        ],
        "the derived schedule itself must be deterministic"
    );

    let config = fleet_config(48, 3, 2, 0xF417);
    let trace = keyed_trace(48, 0xC0FFEE, 8_000);
    assert_equivalent(&trace, config, periods, &schedule);
}

#[test]
fn budgeted_fleets_match_independent_managers_taking_the_schedulers_verdict() {
    let periods = 4;
    let trace = keyed_trace(64, 0x0F0F, 8_000);
    let per = trace.len() / periods;
    let initial: Vec<usize> = candidates()[..2].to_vec();
    let base = fleet_config(64, 6, 2, 0x0DD5);
    let tiering = georep_core::fleet::Tiering::new(64, 6, 2).unwrap();

    for budget in [f64::INFINITY, 0.25] {
        let mut reference: Option<Vec<FleetRound>> = None;
        for threads in [1usize, 2, 8] {
            let config = FleetConfig {
                migration_budget_usd: budget,
                threads,
                ..base
            };
            let mut fleet =
                FleetManager::new(coords(), candidates(), initial.clone(), config).unwrap();
            let mut solo: Vec<ReplicaManager<D>> = (0..fleet.owner_count())
                .map(|owner| {
                    let cfg = FleetManager::<D>::owner_config(&config, owner);
                    ReplicaManager::new(coords(), candidates(), initial.clone(), cfg).unwrap()
                })
                .collect();

            let mut rounds = Vec::new();
            for (p, chunk) in trace.chunks(per).enumerate() {
                fleet.ingest_period(chunk);
                let round = fleet.rebalance().unwrap();
                let mut buckets = vec![Vec::new(); solo.len()];
                for &(object, coord, weight) in chunk {
                    buckets[tiering.owner_of(object)].push((coord, weight));
                }
                let mut deferred = 0;
                for (owner, (mgr, bucket)) in solo.iter_mut().zip(&buckets).enumerate() {
                    mgr.ingest_period(bucket);
                    let pending = mgr.propose(Plan::Recorded).unwrap();
                    // The twin takes the scheduler's verdict, nothing else.
                    let decision = if round.decisions[owner].applied == pending.decision.applied {
                        mgr.commit_rebalance(pending)
                    } else {
                        deferred += 1;
                        mgr.defer_rebalance(pending)
                    };
                    let in_fleet = fleet.owner(owner);
                    assert_eq!(decision, round.decisions[owner], "owner {owner} period {p}");
                    assert_eq!(mgr.placement(), in_fleet.placement());
                    assert_eq!(mgr.stats(), in_fleet.stats());
                    assert_eq!(mgr.kmeans_stats(), in_fleet.kmeans_stats());
                    assert_eq!(mgr.summaries(), in_fleet.summaries());
                }
                assert_eq!(deferred, round.deferred);
                assert!(round.spent_usd <= budget);
                rounds.push(round);
            }
            assert!(rounds.iter().any(|r| r.committed > 0));
            assert_eq!(
                rounds.iter().any(|r| r.deferred > 0),
                budget.is_finite(),
                "the finite budget must bind, the infinite one never"
            );
            match &reference {
                None => reference = Some(rounds),
                Some(first) => assert_eq!(first, &rounds, "threads={threads}"),
            }
        }
    }
}

#[test]
fn served_counts_cover_every_access() {
    let config = fleet_config(100, 8, 4, 0x5E12);
    let trace = keyed_trace(100, 0xD00D, 6_000);
    let initial: Vec<usize> = candidates()[..2].to_vec();
    let mut fleet = FleetManager::new(coords(), candidates(), initial, config).unwrap();
    let served = fleet.ingest_period(&trace);
    assert_eq!(served.len(), fleet.owner_count());
    assert_eq!(served.iter().sum::<u64>(), trace.len() as u64);
    assert_eq!(fleet.stats().accesses, trace.len() as u64);
    // The Zipf head must actually dominate: that is the premise the
    // hot/cold split rests on.
    assert!(
        fleet.stats().hot_fraction() > 0.5,
        "hot fraction {:.3} — Zipf head no longer dominates",
        fleet.stats().hot_fraction()
    );
}
