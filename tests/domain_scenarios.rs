//! Property suite for hierarchical failure domains and the
//! availability-aware spread strategy (DESIGN.md §14).
//!
//! Pins the correlated-failure pipeline end to end: the domain tree's
//! deterministic node mapping, seeded outage sampling, compilation onto
//! the flat `FaultPlan` window machinery, the exact analytic survival
//! probability (cross-checked against Monte-Carlo), and the spread
//! strategy's contract — survival ≥ the delay-greedy baseline's within
//! a bounded delay budget, bit-identically from run to run.

use georep_core::domains::{DomainConfig, DomainTree};
use georep_core::problem::PlacementProblem;
use georep_core::scenario::fault_aware_delay;
use georep_core::strategy::spread::{place_spread, SpreadConfig, SpreadOutcome};
use georep_net::rtt::RttMatrix;
use georep_net::sim::SimTime;
use georep_net::topology::graph::{Graph, GraphConfig, GraphFamily};

fn tree(nodes: usize) -> DomainTree {
    DomainTree::new(nodes, DomainConfig::default()).unwrap()
}

#[test]
fn tree_mapping_is_a_partition_respecting_the_hierarchy() {
    for nodes in [12, 48, 97] {
        let t = tree(nodes);
        let mut covered = 0usize;
        for rack in 0..t.racks() {
            let members = t.rack_members(rack);
            assert_eq!(members.start, covered, "{nodes} nodes, rack {rack}");
            covered = members.end;
            for node in members {
                assert_eq!(t.rack_of(node), rack);
                assert_eq!(t.dc_of(node), rack / t.config().racks_per_dc);
                assert_eq!(t.region_of(node), t.dc_of(node) / t.config().dcs_per_region);
            }
        }
        assert_eq!(covered, nodes, "every node lands in exactly one rack");
    }
}

#[test]
fn outage_sampling_is_seed_deterministic() {
    let t = tree(48);
    for scenario in 0..32 {
        assert_eq!(
            t.sample_outage(5, scenario),
            t.sample_outage(5, scenario),
            "scenario {scenario}"
        );
    }
    // Different seeds must not all coincide.
    assert!((0..32).any(|s| t.sample_outage(5, s) != t.sample_outage(6, s)));
}

#[test]
fn compiled_plans_agree_with_their_outage_and_stay_windowed() {
    let t = tree(48);
    let from = SimTime::from_ms(50.0);
    let until = SimTime::from_ms(150.0);
    for scenario in 0..64 {
        let outage = t.sample_outage(21, scenario);
        let plan = t.compile(&outage, scenario, from, until);
        for node in 0..48 {
            let down = outage.downed.contains(&node);
            assert_eq!(plan.node_down(node, SimTime::from_ms(100.0)), down);
            // Outside the window everything is up again.
            assert!(!plan.node_down(node, SimTime::from_ms(10.0)));
            assert!(!plan.node_down(node, SimTime::from_ms(200.0)));
        }
    }
}

#[test]
fn analytic_survival_matches_monte_carlo_sampling() {
    let t = tree(48);
    for placement in [vec![0, 1], vec![0, 16, 32], vec![3, 19, 37, 45]] {
        let exact = t.survival_probability(&placement).unwrap();
        let samples = 4000u64;
        let survived = (0..samples)
            .filter(|&s| {
                let outage = t.sample_outage(77, s);
                placement.iter().any(|r| !outage.downed.contains(r))
            })
            .count();
        let empirical = survived as f64 / samples as f64;
        assert!(
            (exact - empirical).abs() < 0.03,
            "{placement:?}: exact {exact:.4} vs empirical {empirical:.4}"
        );
    }
}

#[test]
fn survival_is_monotone_in_replicas_and_prefers_spreading() {
    let t = tree(48);
    let mut prev = 0.0;
    // Growing a placement one region at a time can only help.
    for k in 1..=3 {
        let placement: Vec<usize> = (0..k).map(|i| i * 16).collect();
        let s = t.survival_probability(&placement).unwrap();
        assert!(s > prev, "k = {k}: {s:.5} ≤ {prev:.5}");
        prev = s;
    }
    // Same replica count, increasing blast-radius sharing → lower survival.
    let across_regions = t.survival_probability(&[0, 16, 32]).unwrap();
    let across_racks = t.survival_probability(&[0, 2, 4]).unwrap();
    let one_rack = t.survival_probability(&[0, 1, 2]).unwrap();
    assert!(across_regions > across_racks);
    assert!(across_racks > one_rack);
}

#[test]
fn spread_beats_greedy_survival_on_a_packed_world() {
    // Candidates in one rack are closest to all demand; greedy packs
    // them, spread must trade delay for domain diversity.
    let matrix = georep_net::rtt::RttMatrix::from_fn(24, |i, j| match (i < 4, j < 4) {
        (true, true) => 1.0,
        (true, false) | (false, true) => 10.0,
        (false, false) => 40.0,
    })
    .unwrap();
    let problem =
        PlacementProblem::new(&matrix, vec![0, 1, 2, 3, 8, 16], (4..8).collect()).unwrap();
    let t = tree(24);
    let out = place_spread(&problem, &t, 3, SpreadConfig::default()).unwrap();
    assert!(
        out.survival > out.baseline_survival,
        "spread {:.4} vs baseline {:.4}",
        out.survival,
        out.baseline_survival
    );
    assert!(
        out.delay_ms <= out.baseline_delay_ms * 1.25 + 1e-9,
        "budget respected"
    );
}

/// The availability ordering on one family's front. Spread never loses
/// survival to the delay-greedy baseline, analytically or on any of 64
/// sampled correlated outages; it strictly gains on the random-wiring
/// families; and on the regular ones, where greedy is already
/// domain-diverse, it returns the baseline untouched.
fn assert_spread_never_loses_to_greedy(
    family: GraphFamily,
    t: &DomainTree,
    matrix: &RttMatrix,
    out: &SpreadOutcome,
) {
    let name = family.name();
    assert!(out.survival >= out.baseline_survival, "{name}");
    let mid = SimTime::from_ms(150.0);
    let (mut baseline_alive, mut spread_alive) = (0, 0);
    for s in 0..64u64 {
        let outage = t.sample_outage(23, s);
        let plan = t.compile(
            &outage,
            23 ^ s,
            SimTime::from_ms(100.0),
            SimTime::from_ms(200.0),
        );
        let alive = |placement: &[usize]| {
            placement.iter().any(|&r| !plan.node_down(r, mid))
                && fault_aware_delay(matrix, placement, &plan, mid).0.is_some()
        };
        let (b, p) = (alive(&out.baseline), alive(&out.placement));
        assert!(p || !b, "{name}: outage {s} kills spread but not greedy");
        baseline_alive += usize::from(b);
        spread_alive += usize::from(p);
    }
    println!(
        "{name:<9} survival greedy {:.6} spread {:.6}, alive greedy {baseline_alive}/64 \
         spread {spread_alive}/64, delay greedy {:.2} ms spread {:.2} ms",
        out.baseline_survival, out.survival, out.baseline_delay_ms, out.delay_ms
    );
    match family {
        GraphFamily::BarabasiAlbert { .. } | GraphFamily::WattsStrogatz { .. } => {
            assert!(out.survival > out.baseline_survival, "{name}");
        }
        GraphFamily::Grid2d | GraphFamily::Line | GraphFamily::Lollipop { .. } => {
            assert_eq!(out.placement, out.baseline, "{name}");
        }
    }
}

/// The full front pipeline, per family: graph → shortest paths → greedy
/// and spread → outage scoring. Run twice on the same inputs, it gives
/// the same placement and bit-identical outage delays.
#[test]
fn graph_to_spread_pipeline_is_bit_identical_across_thread_counts() {
    let t = tree(96);
    for family in GraphFamily::standard() {
        let run = || {
            let matrix = Graph::generate(GraphConfig {
                family,
                nodes: 96,
                seed: 17,
                ..Default::default()
            })
            .and_then(|g| g.rtt_matrix())
            .unwrap();
            let problem =
                PlacementProblem::new(&matrix, (0..96).step_by(3).collect(), (0..96).collect())
                    .unwrap();
            let out = place_spread(&problem, &t, 3, SpreadConfig::default()).unwrap();
            // Score a handful of compiled correlated outages.
            let delays: Vec<Option<f64>> = (0..8)
                .map(|s| {
                    let outage = t.sample_outage(23, s);
                    let plan =
                        t.compile(&outage, s, SimTime::from_ms(100.0), SimTime::from_ms(200.0));
                    fault_aware_delay(&matrix, &out.placement, &plan, SimTime::from_ms(150.0)).0
                })
                .collect();
            (matrix, out, delays)
        };
        let (matrix, out, delays) = run();
        assert_spread_never_loses_to_greedy(family, &t, &matrix, &out);
        let (_, again, again_delays) = run();
        assert_eq!(out.placement, again.placement, "{}", family.name());
        // Bit-identical: compare exact f64s, not approximately.
        assert_eq!(delays, again_delays, "{}", family.name());
    }
}

#[test]
fn spread_survival_never_regresses_for_any_slack() {
    let graph = Graph::generate(GraphConfig {
        family: GraphFamily::BarabasiAlbert { edges_per_node: 3 },
        nodes: 48,
        seed: 17,
        ..Default::default()
    })
    .unwrap();
    let matrix = graph.rtt_matrix().unwrap();
    let problem =
        PlacementProblem::new(&matrix, (0..48).step_by(3).collect(), (0..48).collect()).unwrap();
    let t = tree(48);
    let mut prev_survival = 0.0f64;
    for slack in [0.0, 0.1, 0.25, 0.5, 2.0] {
        let out = place_spread(&problem, &t, 3, SpreadConfig { delay_slack: slack }).unwrap();
        assert!(out.survival >= out.baseline_survival, "slack {slack}");
        // A larger budget can only expand the reachable swap set.
        assert!(
            out.survival >= prev_survival - 1e-12,
            "slack {slack}: {:.6} < {prev_survival:.6}",
            out.survival
        );
        prev_survival = out.survival;
    }
}
