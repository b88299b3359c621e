//! End-to-end tests of the extension layers working together: SLO
//! placement, read/write awareness, the deployed DES loop, and coordinate
//! re-convergence under network drift.

use std::sync::OnceLock;

use georep::core::deployment::{run_deployment, DeploymentConfig};
use georep::core::gossip::{embed_through_shift, GossipConfig};
use georep::core::problem::PlacementProblem;
use georep::core::readwrite::{rw_greedy, RwDemand};
use georep::core::strategy::slo::{coverage, place_for_slo};
use georep::net::sim::SimDuration;
use georep::net::topology::{Topology, TopologyConfig};
use georep::net::RttMatrix;

fn fixture() -> &'static (Topology, Vec<usize>, Vec<usize>) {
    static FX: OnceLock<(Topology, Vec<usize>, Vec<usize>)> = OnceLock::new();
    FX.get_or_init(|| {
        let topo = Topology::generate(TopologyConfig {
            nodes: 72,
            seed: 0xE71,
            ..Default::default()
        })
        .expect("valid topology");
        let candidates: Vec<usize> = (0..72).step_by(4).collect();
        let clients: Vec<usize> = (0..72).filter(|i| i % 4 != 0).collect();
        (topo, candidates, clients)
    })
}

#[test]
fn slo_placement_meets_its_budget_on_the_wide_area_matrix() {
    let (topo, candidates, clients) = fixture();
    let problem = PlacementProblem::new(topo.matrix(), candidates.clone(), clients.clone())
        .expect("valid problem");

    let slo = place_for_slo(&problem, 250.0, 0.95).expect("feasible SLO");
    assert!(slo.coverage >= 0.95);
    assert!(slo.covered_mean_ms <= 250.0);
    let recomputed = coverage(&problem, &slo.placement, 250.0).expect("valid placement");
    assert!((recomputed - slo.coverage).abs() < 1e-12);

    // Tightening the budget cannot reduce the replica count.
    let tighter = place_for_slo(&problem, 120.0, 0.95).expect("feasible SLO");
    assert!(tighter.placement.len() >= slo.placement.len());
}

#[test]
fn write_awareness_changes_the_answer_on_the_wide_area_matrix() {
    let (topo, candidates, clients) = fixture();
    let problem = PlacementProblem::new(topo.matrix(), candidates.clone(), clients.clone())
        .expect("valid problem");

    let reads = RwDemand::uniform(clients.len(), 1.0);
    let mixed = RwDemand::uniform(clients.len(), 0.5);
    let (read_placement, _, _) = rw_greedy(&problem, 6, &reads).expect("greedy runs");
    let (mixed_placement, master, mixed_delay) =
        rw_greedy(&problem, 6, &mixed).expect("greedy runs");

    assert!(mixed_placement.len() <= read_placement.len());
    assert!(mixed_placement.contains(&master));
    // The write-aware result must beat evaluating the read placement under
    // mixed demand.
    let (_, read_under_mixed) =
        georep::core::readwrite::best_master(&problem, &read_placement, &mixed)
            .expect("valid placement");
    assert!(mixed_delay <= read_under_mixed + 1e-9);
}

#[test]
fn deployed_loop_beats_its_arbitrary_initial_placement() {
    let (topo, candidates, _) = fixture();
    let cfg = DeploymentConfig {
        duration: SimDuration::from_secs(60.0),
        rebalance_interval: SimDuration::from_secs(15.0),
        ..Default::default()
    };
    let outcome = run_deployment(topo.matrix(), candidates, cfg);
    assert!(outcome.placements_seen >= 1);
    let first = outcome.period_delay_ms[0];
    let last = outcome
        .period_delay_ms
        .iter()
        .rev()
        .find(|d| d.is_finite())
        .copied()
        .expect("a finite period");
    assert!(
        last < first,
        "deployed loop must improve on the initial placement: {:?}",
        outcome.period_delay_ms
    );
}

#[test]
fn coordinates_track_a_regional_degradation() {
    let (topo, ..) = fixture();
    let before = topo.matrix().clone();
    // One node's links all degrade by 2.5x (a failing host).
    let victim = 7usize;
    let after = RttMatrix::from_fn(before.len(), |i, j| {
        let base = before.get(i, j);
        if i == victim || j == victim {
            base * 2.5
        } else {
            base
        }
    })
    .expect("valid matrix");
    let (mid, end) = embed_through_shift(
        &before,
        &after,
        GossipConfig {
            duration: SimDuration::from_secs(40.0),
            ping_interval: SimDuration::from_ms(400.0),
            ..Default::default()
        },
    );
    // A single node's shift barely moves the global medians, and the
    // protocol must not fall apart.
    assert!(end.median_rel_err < mid.median_rel_err * 1.5 + 0.05);
}
