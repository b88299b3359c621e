//! Differential suite: decentralized gossip placement vs the central solver.
//!
//! `strategy::decentralized` promises that a fleet of candidate DCs,
//! exchanging demand-shard summaries peer-to-peer and each running the
//! shared open/swap local search on its own view, converges to a placement
//! whose total weighted delay is within 10 % of the central solver run on
//! the full demand — and that the whole report is a pure function of the
//! inputs: bit-identical from run to run, identical final
//! state across gossip schedules that are permutations of the same seeded
//! event set, and uncorrupted (only stalled) by crash and partition
//! windows from [`FaultPlan`]. Every test here runs both sides on
//! identical workloads across the five PR-8 topology families and demands
//! those bounds hold.

use georep::core::{
    central_placement, run_decentralized, run_decentralized_with, DecentralConfig, NullRecorder,
};
use georep::net::rtt::RttMatrix;
use georep::net::sim::{FaultPlan, SimTime};
use georep::net::topology::graph::{Graph, GraphConfig, GraphFamily};
use proptest::prelude::*;

const GAP_BOUND: f64 = 0.10;

fn family_matrix(family: GraphFamily, nodes: usize, seed: u64) -> RttMatrix {
    Graph::generate(GraphConfig {
        family,
        nodes,
        seed,
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("{} at {nodes} nodes: {e}", family.name()))
    .rtt_matrix()
    .unwrap_or_else(|e| panic!("{} matrix: {e}", family.name()))
}

fn candidates(nodes: usize, every: usize) -> Vec<usize> {
    (0..nodes).step_by(every).collect()
}

fn cfg(k: usize) -> DecentralConfig {
    DecentralConfig {
        max_rounds: 48,
        ..DecentralConfig::new(k)
    }
}

/// The workload every test shares: all nodes are clients, with a skewed
/// deterministic weight profile so placements are not degenerate.
fn weights(nodes: usize) -> Vec<f64> {
    (0..nodes).map(|i| 1.0 + (i % 5) as f64 * 2.0).collect()
}

#[test]
fn gap_is_bounded_on_every_family() {
    for family in GraphFamily::standard() {
        let nodes = 24;
        let m = family_matrix(family, nodes, 13);
        let cands = candidates(nodes, 3);
        let clients: Vec<usize> = (0..nodes).collect();
        let w = weights(nodes);
        let report = run_decentralized_with(
            &m,
            &cands,
            &clients,
            &w,
            &cfg(3),
            FaultPlan::new(cfg(3).seed),
            &NullRecorder,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        assert!(report.converged, "{} must converge", family.name());
        assert!(report.agreement, "{} nodes must agree", family.name());
        assert!(
            report.gap <= GAP_BOUND,
            "{} gap {} exceeds {GAP_BOUND}",
            family.name(),
            report.gap
        );
        // Stronger than the gate: the converged view is the full demand,
        // and every node runs the central solver's own code on it.
        let (central, delay) = central_placement(&m, &cands, &clients, &w, 3).unwrap();
        assert_eq!(report.placement, central, "{}", family.name());
        assert_eq!(report.decentral_delay_ms, delay, "{}", family.name());
        assert_eq!(report.gap, 0.0, "{}", family.name());
        assert!(report.rounds < 48, "{} round budget", family.name());
        assert!(report.bytes_gossiped > 0, "{}", family.name());
        println!(
            "{:<9} rounds {:>2}, bytes gossiped {:>6}, gap {}",
            family.name(),
            report.rounds,
            report.bytes_gossiped,
            report.gap
        );
    }
}

/// The whole report is a pure function of the inputs: the same
/// configuration twice gives the identical report on every family.
#[test]
fn reports_are_bit_identical_across_thread_counts() {
    for family in GraphFamily::standard() {
        let nodes = 21;
        let m = family_matrix(family, nodes, 29);
        let cands = candidates(nodes, 3);
        let clients: Vec<usize> = (0..nodes).collect();
        let w = weights(nodes);
        let run = || {
            run_decentralized_with(
                &m,
                &cands,
                &clients,
                &w,
                &cfg(3),
                FaultPlan::new(cfg(3).seed),
                &NullRecorder,
            )
            .unwrap()
        };
        assert_eq!(run(), run(), "{}", family.name());
    }
}

#[test]
fn permuted_gossip_schedules_reach_the_identical_state() {
    // Different stagger seeds permute the per-node round phases — the same
    // logical event set in a different interleaving. The converged
    // placement, its delay, and the consensus flags may not move.
    for family in GraphFamily::standard() {
        let nodes = 18;
        let m = family_matrix(family, nodes, 5);
        let cands = candidates(nodes, 3);
        let base = run_decentralized(&m, &cands, &cfg(2)).unwrap();
        assert!(base.converged && base.agreement, "{}", family.name());
        for stagger in [1u64, 0x5EED, 0xFEED_BEEF] {
            let run = run_decentralized(
                &m,
                &cands,
                &DecentralConfig {
                    stagger_seed: stagger,
                    ..cfg(2)
                },
            )
            .unwrap();
            assert!(
                run.converged && run.agreement,
                "{} stagger={stagger:#x}",
                family.name()
            );
            assert_eq!(run.placement, base.placement, "{}", family.name());
            assert_eq!(
                run.decentral_delay_ms,
                base.decentral_delay_ms,
                "{}",
                family.name()
            );
            assert_eq!(run.gap, base.gap, "{}", family.name());
        }
    }
}

#[test]
fn crash_and_partition_windows_stall_but_never_corrupt() {
    for family in GraphFamily::standard() {
        let nodes = 18;
        let m = family_matrix(family, nodes, 3);
        let cands = candidates(nodes, 3);
        let clients: Vec<usize> = (0..nodes).collect();
        let w = weights(nodes);
        let c = cfg(2);
        let healthy = run_decentralized_with(
            &m,
            &cands,
            &clients,
            &w,
            &c,
            FaultPlan::new(c.seed),
            &NullRecorder,
        )
        .unwrap();
        assert!(healthy.converged && healthy.agreement, "{}", family.name());
        // Fault indices are candidate-slot-local: slot 1 is dark for the
        // first 1.5 s, and slots {0, 2} are cut off from the rest between
        // 0.5 s and 2.5 s. Both windows close well inside the budget.
        let plan = FaultPlan::new(c.seed)
            .crash(1, SimTime::ZERO, SimTime::from_ms(1_500.0))
            .partition(&[0, 2], SimTime::from_ms(500.0), SimTime::from_ms(2_500.0));
        let faulted =
            run_decentralized_with(&m, &cands, &clients, &w, &c, plan, &NullRecorder).unwrap();
        assert!(
            faulted.converged,
            "{} must converge once the windows close",
            family.name()
        );
        assert!(faulted.agreement, "{}", family.name());
        assert_eq!(
            faulted.placement,
            healthy.placement,
            "{} faults corrupted the consensus",
            family.name()
        );
        assert_eq!(faulted.decentral_delay_ms, healthy.decentral_delay_ms);
        assert!(
            faulted.messages_dropped > 0,
            "{} the windows must cost messages",
            family.name()
        );
    }
}

proptest! {
    /// Convergence within the round budget on arbitrary connected
    /// topologies: any standard family, any size, any seed, any feasible
    /// `k` and fanout — the protocol must reach quiescence, agree, and
    /// stay inside the gap bound.
    #[test]
    fn prop_convergence_within_the_round_bound(
        family_ix in 0usize..5,
        nodes in 8usize..20,
        seed in 0u64..500,
        k in 1usize..4,
        fanout in 1usize..4,
        stagger in 0u64..1_000,
    ) {
        let family = GraphFamily::standard()[family_ix];
        let m = family_matrix(family, nodes, seed);
        let cands = candidates(nodes, 2);
        let k = k.min(cands.len());
        let clients: Vec<usize> = (0..nodes).collect();
        let w = weights(nodes);
        let c = DecentralConfig {
            fanout,
            stagger_seed: stagger,
            max_rounds: 48,
            ..DecentralConfig::new(k)
        };
        let report = run_decentralized_with(
            &m, &cands, &clients, &w, &c, FaultPlan::new(c.seed), &NullRecorder,
        ).unwrap();
        prop_assert!(report.converged, "{} n={nodes} k={k}: no quiescence \
             within {} rounds", family.name(), c.max_rounds);
        prop_assert!(report.agreement, "{} n={nodes}", family.name());
        prop_assert!(report.rounds <= c.max_rounds);
        prop_assert!(report.gap <= GAP_BOUND, "gap {}", report.gap);
        let (central, _) = central_placement(&m, &cands, &clients, &w, k).unwrap();
        prop_assert_eq!(report.placement, central);
    }
}
