//! Property suite for the graph-topology generators (DESIGN.md §14).
//!
//! Pins the contracts the per-family delay/survival front
//! (`tests/domain_scenarios.rs`) relies on:
//! seed determinism, shortest-path matrix values checked against an
//! independent Floyd–Warshall, per-family structural invariants (BA degree
//! skew, WS clustering vs. rewiring probability, grid/line/lollipop
//! exact diameters), and the triangle-inequality accounting that
//! separates shortest-path metrics from the detour-injecting synthetic
//! topology.

use georep_net::topology::graph::{lollipop_head, Graph, GraphConfig, GraphError, GraphFamily};

fn generate(family: GraphFamily, nodes: usize, seed: u64) -> Graph {
    Graph::generate(GraphConfig {
        family,
        nodes,
        seed,
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("{} at {nodes} nodes: {e}", family.name()))
}

#[test]
fn identical_seeds_reproduce_identical_graphs_and_matrices() {
    for family in GraphFamily::standard() {
        let a = generate(family, 80, 7);
        let b = generate(family, 80, 7);
        assert_eq!(a, b, "{}", family.name());
        assert_eq!(
            a.rtt_matrix().unwrap(),
            b.rtt_matrix().unwrap(),
            "{}",
            family.name()
        );
    }
}

#[test]
fn different_seeds_produce_different_weights() {
    for family in GraphFamily::standard() {
        let a = generate(family, 80, 1);
        let b = generate(family, 80, 2);
        // Wiring may coincide for deterministic families (grid/line/
        // lollipop), but the seeded edge weights must differ.
        let wa: Vec<f64> = a.edges().map(|(_, _, w)| w).collect();
        let wb: Vec<f64> = b.edges().map(|(_, _, w)| w).collect();
        assert_ne!(wa, wb, "{}", family.name());
    }
}

/// All-pairs shortest paths by Floyd–Warshall over the edge list: an
/// algorithm independent of the per-source Dijkstra under test.
fn floyd_warshall(g: &Graph) -> Vec<Vec<f64>> {
    let n = g.len();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (u, v, w) in g.edges() {
        d[u][v] = d[u][v].min(w);
        d[v][u] = d[v][u].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// `rtt_matrix` holds the true shortest-path distance of every pair, to
/// 1e-9 relative, on every family.
#[test]
fn shortest_path_matrix_is_bit_identical_across_thread_counts() {
    for family in GraphFamily::standard() {
        let g = generate(family, 100, 11);
        let m = g.rtt_matrix().unwrap();
        let want = floyd_warshall(&g);
        for (i, row) in want.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                let got = m.get(i, j);
                assert!(
                    (got - d).abs() <= 1e-9 * d,
                    "{}: d({i}, {j}) = {got}, Floyd–Warshall says {d}",
                    family.name()
                );
            }
        }
    }
}

#[test]
fn shortest_path_matrices_satisfy_the_triangle_inequality() {
    for family in GraphFamily::standard() {
        let g = generate(family, 64, 3);
        let m = g.rtt_matrix().unwrap();
        assert_eq!(
            m.triangle_violation_rate(),
            0.0,
            "{} is a shortest-path metric",
            family.name()
        );
    }
}

#[test]
fn ba_degrees_are_skewed_with_a_guaranteed_minimum() {
    let m = 3;
    let g = generate(GraphFamily::BarabasiAlbert { edges_per_node: m }, 400, 5);
    let mut degrees = g.degrees();
    assert!(
        degrees.iter().all(|&d| d >= m),
        "every node attaches (or is attached) at least m = {m} times"
    );
    degrees.sort_unstable();
    let median = degrees[degrees.len() / 2];
    let max = *degrees.last().unwrap();
    // Preferential attachment grows heavy hubs: the maximum degree must
    // dwarf the median (uniform attachment would keep them comparable).
    assert!(
        max >= 4 * median,
        "expected a heavy tail: max degree {max} vs median {median}"
    );
}

#[test]
fn ws_clustering_decays_with_rewiring_probability() {
    let at = |p: f64| {
        generate(
            GraphFamily::WattsStrogatz {
                neighbors: 6,
                rewire_p: p,
            },
            200,
            9,
        )
        .mean_clustering()
    };
    let lattice = at(0.0);
    let small_world = at(0.1);
    let random_ish = at(0.9);
    // k = 6 ring lattice: 3(k−2)/(4(k−1)) = 0.6 exactly.
    assert!((lattice - 0.6).abs() < 1e-9, "lattice clustering {lattice}");
    assert!(
        random_ish < small_world && small_world <= lattice,
        "clustering must decay with p: {lattice:.3} / {small_world:.3} / {random_ish:.3}"
    );
    assert!(random_ish < 0.15, "heavy rewiring {random_ish:.3}");
}

#[test]
fn grid_line_and_lollipop_have_exact_diameters() {
    // 7 × 7 grid: diameter = (7−1) + (7−1).
    let grid = generate(GraphFamily::Grid2d, 49, 1);
    assert_eq!(grid.hop_diameter(), 12);
    // Line: diameter = n − 1.
    let line = generate(GraphFamily::Line, 60, 1);
    assert_eq!(line.hop_diameter(), 59);
    // Lollipop: farthest pair is a non-tail clique node and the tail end —
    // one hop across the clique plus the (n − head)-edge tail.
    let n = 60;
    let fraction = 0.33;
    let head = lollipop_head(n, fraction);
    let lolly = generate(
        GraphFamily::Lollipop {
            head_fraction: fraction,
        },
        n,
        1,
    );
    assert_eq!(lolly.hop_diameter(), n - head + 1);
}

#[test]
fn families_generate_across_the_supported_size_range() {
    // The ISSUE range is N ∈ {50..5000}; keep the large end moderate so
    // the suite stays fast while proving nothing breaks away from the
    // bench sizes. Diameter checks are O(N·E), so only the matrix-free
    // invariants run at the top size.
    for family in GraphFamily::standard() {
        for nodes in [50, 500, 2000] {
            let g = generate(family, nodes, 13);
            assert_eq!(g.len(), nodes);
            let degrees = g.degrees();
            assert!(degrees.iter().all(|&d| d >= 1), "{}", family.name());
        }
    }
}

#[test]
fn generator_rejects_out_of_range_configs() {
    let gen = |family, nodes| {
        Graph::generate(GraphConfig {
            family,
            nodes,
            ..Default::default()
        })
    };
    assert!(matches!(
        gen(GraphFamily::Grid2d, 1),
        Err(GraphError::TooFewNodes { .. })
    ));
    assert!(matches!(
        gen(GraphFamily::BarabasiAlbert { edges_per_node: 0 }, 50),
        Err(GraphError::BadParameter("edges_per_node"))
    ));
    assert!(matches!(
        gen(
            GraphFamily::WattsStrogatz {
                neighbors: 3,
                rewire_p: 0.1
            },
            50
        ),
        Err(GraphError::BadParameter("neighbors"))
    ));
    assert!(matches!(
        gen(
            GraphFamily::Lollipop {
                head_fraction: -0.5
            },
            50
        ),
        Err(GraphError::BadParameter("head_fraction"))
    ));
    assert!(matches!(
        Graph::generate(GraphConfig {
            weight_ms: (5.0, 1.0),
            ..Default::default()
        }),
        Err(GraphError::BadParameter("weight_ms"))
    ));
}
