//! Parameterized graph-topology generators.
//!
//! Where [`super::Topology`] synthesizes one Internet-like matrix shape
//! (regional clusters around the PlanetLab deployment), this module sweeps
//! the classic graph families the drfe-r methodology evaluates — so every
//! robustness claim can be conditioned on *structurally different*
//! latency spaces:
//!
//! | family | generator | character |
//! |---|---|---|
//! | [`GraphFamily::BarabasiAlbert`] | preferential attachment | heavy-tailed degrees, short paths |
//! | [`GraphFamily::WattsStrogatz`] | ring lattice + rewiring | tunable clustering vs. path length |
//! | [`GraphFamily::Grid2d`] | √N × √N lattice | planar, Θ(√N) diameter |
//! | [`GraphFamily::Line`] | linear chain | worst-case Θ(N) diameter |
//! | [`GraphFamily::Lollipop`] | clique + tail | dense core, one long appendix |
//!
//! A generated [`Graph`] carries seeded deterministic per-edge RTT weights
//! (order-independent: each edge's weight is a pure hash of
//! `(seed, u, v)`), and compiles to a full [`RttMatrix`] via per-source
//! Dijkstra all-pairs shortest paths, split across cores by source and
//! bit-identical at any core count. Its callers build a topology once, at
//! the top of a run, so this is never a nested fan-out. Because the
//! matrix is a shortest-path metric, it satisfies the triangle
//! inequality exactly (violation rate 0), unlike the detour-injecting
//! [`super::Topology`] generator — which is precisely what makes the two
//! matrix families complementary scenario inputs.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::rtt::RttMatrix;

/// The five generated graph families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// Preferential attachment: each new node brings `edges_per_node`
    /// edges to existing nodes chosen proportionally to degree.
    BarabasiAlbert {
        /// Edges each arriving node attaches (the BA `m`; `≥ 1`).
        edges_per_node: usize,
    },
    /// Ring lattice (each node wired to its `neighbors` nearest ring
    /// neighbors) with each edge rewired to a random target with
    /// probability `rewire_p`.
    WattsStrogatz {
        /// Even lattice degree (the WS `k`; `2 ≤ k < nodes`).
        neighbors: usize,
        /// Per-edge rewiring probability (the WS `β`, in `[0, 1]`).
        rewire_p: f64,
    },
    /// Row-major 2-D lattice, `⌊√N⌋` rows (last row may be partial).
    Grid2d,
    /// Linear chain `0 — 1 — … — N−1`.
    Line,
    /// Clique on the first `⌈head_fraction · N⌉` nodes with a path tail
    /// hanging off the clique's last node.
    Lollipop {
        /// Fraction of nodes in the clique head, in `(0, 1]`.
        head_fraction: f64,
    },
}

impl GraphFamily {
    /// Stable machine-readable name (report labels, test output).
    pub fn name(&self) -> &'static str {
        match self {
            GraphFamily::BarabasiAlbert { .. } => "ba",
            GraphFamily::WattsStrogatz { .. } => "ws",
            GraphFamily::Grid2d => "grid",
            GraphFamily::Line => "line",
            GraphFamily::Lollipop { .. } => "lollipop",
        }
    }

    /// The five families at the drfe-r methodology's standard parameters
    /// (BA `m = 3`, WS `k = 6, β = 0.1`, lollipop head ratio `0.33`), in
    /// reporting order.
    pub fn standard() -> [GraphFamily; 5] {
        [
            GraphFamily::BarabasiAlbert { edges_per_node: 3 },
            GraphFamily::WattsStrogatz {
                neighbors: 6,
                rewire_p: 0.1,
            },
            GraphFamily::Grid2d,
            GraphFamily::Line,
            GraphFamily::Lollipop {
                head_fraction: 0.33,
            },
        ]
    }
}

/// Parameters of the graph generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Which family to generate.
    pub family: GraphFamily,
    /// Number of nodes (`≥ 2`; families impose their own minima).
    pub nodes: usize,
    /// RNG seed for the wiring *and* the per-edge weights. Generation is
    /// fully deterministic given the config.
    pub seed: u64,
    /// Per-edge RTT weight range `(min_ms, max_ms)`, sampled uniformly
    /// per edge from a pure hash of `(seed, u, v)`.
    pub weight_ms: (f64, f64),
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            family: GraphFamily::BarabasiAlbert { edges_per_node: 3 },
            nodes: 100,
            seed: 42,
            weight_ms: (2.0, 40.0),
        }
    }
}

/// Error produced by [`Graph::generate`] or [`Graph::rtt_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Fewer nodes requested than the family supports.
    TooFewNodes {
        /// The requested node count.
        got: usize,
        /// The family's minimum for the given parameters.
        min: usize,
    },
    /// A numeric parameter was out of range.
    BadParameter(&'static str),
    /// The generated graph was not connected, so no finite RTT matrix
    /// exists (possible only for Watts–Strogatz at high rewiring).
    Disconnected,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::TooFewNodes { got, min } => {
                write!(f, "family needs at least {min} nodes, got {got}")
            }
            GraphError::BadParameter(p) => write!(f, "parameter {p} is out of range"),
            GraphError::Disconnected => write!(f, "generated graph is not connected"),
        }
    }
}

impl Error for GraphError {}

/// A generated undirected graph with seeded per-edge RTT weights.
///
/// # Example
///
/// ```
/// use georep_net::topology::graph::{Graph, GraphConfig, GraphFamily};
///
/// let g = Graph::generate(GraphConfig {
///     family: GraphFamily::Line,
///     nodes: 16,
///     ..Default::default()
/// })?;
/// assert_eq!(g.len(), 16);
/// assert_eq!(g.hop_diameter(), 15);
/// let m = g.rtt_matrix()?;
/// // Shortest-path matrices are metrics: no triangle violations.
/// assert_eq!(m.triangle_violation_rate(), 0.0);
/// # Ok::<(), georep_net::topology::graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    /// Deduplicated edges `u < v`, in generation order.
    edges: Vec<(usize, usize)>,
    /// Per-edge RTT weights, ms, aligned with `edges`.
    weights_ms: Vec<f64>,
    family: GraphFamily,
    seed: u64,
}

/// SplitMix64 finalizer — the workspace's standard counter-based hash.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent per-edge weight: a pure hash of `(seed, min, max)`
/// endpoints mapped uniformly into `[lo, hi)`.
fn edge_weight_ms(seed: u64, u: usize, v: usize, lo: f64, hi: f64) -> f64 {
    let (a, b) = (u.min(v) as u64, u.max(v) as u64);
    let h = splitmix(seed ^ splitmix(a.wrapping_mul(0x0000_0100_0000_01B3) ^ b));
    let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    lo + unit * (hi - lo)
}

impl Graph {
    /// Generates a graph according to `config`.
    ///
    /// # Errors
    ///
    /// See [`GraphError`]. [`GraphError::Disconnected`] is reported here
    /// (not at matrix time) so an unusable wiring fails fast.
    pub fn generate(config: GraphConfig) -> Result<Self, GraphError> {
        let n = config.nodes;
        let (lo, hi) = config.weight_ms;
        if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo) {
            return Err(GraphError::BadParameter("weight_ms"));
        }
        if n < 2 {
            return Err(GraphError::TooFewNodes { got: n, min: 2 });
        }
        let edges = match config.family {
            GraphFamily::BarabasiAlbert { edges_per_node } => {
                if edges_per_node < 1 {
                    return Err(GraphError::BadParameter("edges_per_node"));
                }
                if n <= edges_per_node + 1 {
                    return Err(GraphError::TooFewNodes {
                        got: n,
                        min: edges_per_node + 2,
                    });
                }
                barabasi_albert(n, edges_per_node, config.seed)
            }
            GraphFamily::WattsStrogatz {
                neighbors,
                rewire_p,
            } => {
                if neighbors < 2 || neighbors % 2 != 0 {
                    return Err(GraphError::BadParameter("neighbors"));
                }
                if !(0.0..=1.0).contains(&rewire_p) {
                    return Err(GraphError::BadParameter("rewire_p"));
                }
                if n <= neighbors {
                    return Err(GraphError::TooFewNodes {
                        got: n,
                        min: neighbors + 1,
                    });
                }
                watts_strogatz(n, neighbors, rewire_p, config.seed)
            }
            GraphFamily::Grid2d => grid_2d(n),
            GraphFamily::Line => (0..n - 1).map(|i| (i, i + 1)).collect(),
            GraphFamily::Lollipop { head_fraction } => {
                if !(head_fraction.is_finite() && head_fraction > 0.0 && head_fraction <= 1.0) {
                    return Err(GraphError::BadParameter("head_fraction"));
                }
                if n < 4 {
                    return Err(GraphError::TooFewNodes { got: n, min: 4 });
                }
                lollipop(n, head_fraction)
            }
        };
        let weights_ms = edges
            .iter()
            .map(|&(u, v)| edge_weight_ms(config.seed, u, v, lo, hi))
            .collect();
        let graph = Graph {
            n,
            edges,
            weights_ms,
            family: config.family,
            seed: config.seed,
        };
        if !graph.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(graph)
    }

    /// Number of nodes.
    #[allow(clippy::len_without_is_empty)] // n ≥ 2 by construction
    pub fn len(&self) -> usize {
        self.n
    }

    /// The deduplicated edge list (`u < v`) with per-edge RTT weights, ms.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.edges
            .iter()
            .zip(&self.weights_ms)
            .map(|(&(u, v), &w)| (u, v, w))
    }

    /// The family this graph was generated from.
    pub fn family(&self) -> GraphFamily {
        self.family
    }

    /// Per-node degree.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    /// Mean local clustering coefficient over nodes of degree ≥ 2 —
    /// the WS small-world diagnostic.
    pub fn mean_clustering(&self) -> f64 {
        let adj = self.adjacency_sets();
        let (mut sum, mut counted) = (0.0, 0usize);
        for neighbors in &adj {
            let d = neighbors.len();
            if d < 2 {
                continue;
            }
            let mut links = 0usize;
            let list: Vec<usize> = neighbors.iter().copied().collect();
            for (i, &a) in list.iter().enumerate() {
                for &b in &list[i + 1..] {
                    if adj[a].contains(&b) {
                        links += 1;
                    }
                }
            }
            sum += links as f64 / (d * (d - 1) / 2) as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            sum / counted as f64
        }
    }

    /// Unweighted (hop-count) diameter, via BFS from every node.
    /// `O(N·(N + E))` — intended for invariant tests, not hot paths.
    pub fn hop_diameter(&self) -> usize {
        let adj = self.adjacency();
        let mut diameter = 0usize;
        let mut dist = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..self.n {
            dist.fill(usize::MAX);
            dist[src] = 0;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &(v, _) in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            diameter = diameter.max(*dist.iter().max().expect("n ≥ 2"));
        }
        diameter
    }

    /// The full shortest-path RTT matrix: one Dijkstra per source, the
    /// sources dealt round-robin to one worker per available core from 64
    /// nodes up. Each row is an independent serial computation, so the
    /// split cannot change a bit (a unit test pins the matrix to the
    /// one-thread rows); `tests/topology_graphs.rs` checks every entry
    /// against an independent Floyd–Warshall.
    ///
    /// # Errors
    ///
    /// See [`GraphError`].
    pub fn rtt_matrix(&self) -> Result<RttMatrix, GraphError> {
        let n = self.n;
        let adj = self.adjacency();
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); n];
        if threads <= 1 || n < 64 {
            for (src, row) in rows.iter_mut().enumerate() {
                *row = dijkstra(&adj, src);
            }
        } else {
            let adj = &adj;
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|w| {
                        scope.spawn(move || {
                            let sources = (w..n).step_by(threads);
                            sources.map(|src| dijkstra(adj, src)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for (w, worker) in workers.into_iter().enumerate() {
                    let part = worker.join().expect("dijkstra worker panicked");
                    for (row, src) in part.into_iter().zip((w..n).step_by(threads)) {
                        rows[src] = row;
                    }
                }
            });
        }
        if rows.iter().flatten().any(|d| !d.is_finite()) {
            return Err(GraphError::Disconnected);
        }
        // `from_fn` reads the i < j direction only, so the matrix is
        // exactly symmetric even where reversed-path float sums differ in
        // the last bit.
        RttMatrix::from_fn(n, |i, j| rows[i][j]).map_err(|_| GraphError::BadParameter("weight_ms"))
    }

    fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.n];
        for (u, v, w) in self.edges() {
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        adj
    }

    fn adjacency_sets(&self) -> Vec<HashSet<usize>> {
        let mut adj = vec![HashSet::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u].insert(v);
            adj[v].insert(u);
        }
        adj
    }

    fn is_connected(&self) -> bool {
        let adj = self.adjacency();
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(u) = stack.pop() {
            for &(v, _) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        reached == self.n
    }
}

/// One serial Dijkstra from `src`; distances in ms. The heap orders
/// positive finite `f64`s by their bit patterns (monotone for positives).
fn dijkstra(adj: &[Vec<(usize, f64)>], src: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; adj.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((bits, u))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            let next = d + w;
            if next < dist[v] {
                dist[v] = next;
                heap.push(Reverse((next.to_bits(), v)));
            }
        }
    }
    dist
}

/// Preferential attachment over a complete seed graph on `m + 1` nodes.
fn barabasi_albert(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA5E);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity((m + 1) * m / 2 + (n - m - 1) * m);
    // Endpoint multiset: each node appears once per incident edge, so a
    // uniform draw is degree-proportional.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * edges.capacity());
    for u in 0..=m {
        for v in (u + 1)..=m {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    for v in (m + 1)..n {
        chosen.clear();
        while chosen.len() < m {
            let target = endpoints[rng.random_range(0..endpoints.len())];
            if !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &u in &chosen {
            edges.push((u.min(v), u.max(v)));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    edges
}

/// Ring lattice with degree `k`, each lattice edge rewired with
/// probability `beta` (the rewired edge keeps its source endpoint, the
/// classic WS move). Rewiring targets that would duplicate an edge or
/// self-loop are redrawn a bounded number of times, then the original
/// edge is kept — bounded so generation always terminates.
fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5737_0757);
    let mut present: HashSet<(usize, usize)> = HashSet::new();
    let norm = |a: usize, b: usize| (a.min(b), a.max(b));
    for i in 0..n {
        for j in 1..=k / 2 {
            present.insert(norm(i, (i + j) % n));
        }
    }
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(present.len());
    for i in 0..n {
        for j in 1..=k / 2 {
            let original = norm(i, (i + j) % n);
            if !present.remove(&original) {
                continue; // already consumed as another node's lattice edge
            }
            let mut kept = original;
            if rng.random::<f64>() < beta {
                for _ in 0..32 {
                    let t = rng.random_range(0..n);
                    let candidate = norm(i, t);
                    if t != i && candidate != original && !present.contains(&candidate) {
                        // not already emitted either
                        if !edges.contains(&candidate) {
                            kept = candidate;
                            break;
                        }
                    }
                }
            }
            edges.push(kept);
        }
    }
    edges
}

/// Row-major `⌊√N⌋ × ⌈N/⌊√N⌋⌉` lattice; the last row may be partial.
fn grid_2d(n: usize) -> Vec<(usize, usize)> {
    let rows = (n as f64).sqrt().floor() as usize;
    let cols = n.div_ceil(rows);
    let mut edges = Vec::with_capacity(2 * n);
    for id in 0..n {
        let (r, c) = (id / cols, id % cols);
        if c + 1 < cols && id + 1 < n && (id + 1) / cols == r {
            edges.push((id, id + 1));
        }
        if id + cols < n {
            edges.push((id, id + cols));
        }
        let _ = r;
    }
    edges
}

/// Clique on `0..head` plus a path tail `head−1 — head — … — N−1`.
fn lollipop(n: usize, head_fraction: f64) -> Vec<(usize, usize)> {
    let head = ((n as f64 * head_fraction).round() as usize).clamp(3, n);
    let mut edges = Vec::with_capacity(head * (head - 1) / 2 + n - head);
    for u in 0..head {
        for v in (u + 1)..head {
            edges.push((u, v));
        }
    }
    for v in head..n {
        edges.push((v - 1, v));
    }
    edges
}

/// The clique head size the lollipop generator uses for `(n, fraction)` —
/// exposed so diameter invariants can be asserted without re-deriving the
/// clamping rule.
pub fn lollipop_head(n: usize, head_fraction: f64) -> usize {
    ((n as f64 * head_fraction).round() as usize).clamp(3, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_standard_families_generate_and_connect() {
        for family in GraphFamily::standard() {
            for nodes in [50, 121] {
                let g = Graph::generate(GraphConfig {
                    family,
                    nodes,
                    ..Default::default()
                })
                .unwrap_or_else(|e| panic!("{} at {nodes}: {e}", family.name()));
                assert_eq!(g.len(), nodes);
                assert!(g.is_connected());
            }
        }
    }

    #[test]
    fn edge_weights_are_order_independent_hashes() {
        let w1 = edge_weight_ms(7, 3, 9, 2.0, 40.0);
        let w2 = edge_weight_ms(7, 9, 3, 2.0, 40.0);
        assert_eq!(w1, w2);
        assert!((2.0..40.0).contains(&w1));
        assert_ne!(w1, edge_weight_ms(8, 3, 9, 2.0, 40.0));
    }

    #[test]
    fn line_and_grid_shapes_are_exact() {
        let line = Graph::generate(GraphConfig {
            family: GraphFamily::Line,
            nodes: 10,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(line.edges.len(), 9);
        assert_eq!(line.hop_diameter(), 9);

        // 3 × 3 grid: 12 edges, diameter 4.
        let grid = Graph::generate(GraphConfig {
            family: GraphFamily::Grid2d,
            nodes: 9,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(grid.edges.len(), 12);
        assert_eq!(grid.hop_diameter(), 4);
    }

    #[test]
    fn lollipop_shape_is_exact() {
        // n = 12, fraction 0.33 → head 4: C(4,2) = 6 clique edges + 8 tail
        // edges; diameter = tail length + 1 hop across the clique.
        let g = Graph::generate(GraphConfig {
            family: GraphFamily::Lollipop {
                head_fraction: 0.33,
            },
            nodes: 12,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(lollipop_head(12, 0.33), 4);
        assert_eq!(g.edges.len(), 6 + 8);
        assert_eq!(g.hop_diameter(), 12 - 4 + 1);
    }

    #[test]
    fn rejects_bad_parameters() {
        let gen = |family, nodes| {
            Graph::generate(GraphConfig {
                family,
                nodes,
                ..Default::default()
            })
        };
        assert!(matches!(
            gen(GraphFamily::Line, 1),
            Err(GraphError::TooFewNodes { .. })
        ));
        assert!(matches!(
            gen(GraphFamily::BarabasiAlbert { edges_per_node: 0 }, 10),
            Err(GraphError::BadParameter("edges_per_node"))
        ));
        assert!(matches!(
            gen(GraphFamily::BarabasiAlbert { edges_per_node: 9 }, 10),
            Err(GraphError::TooFewNodes { .. })
        ));
        assert!(matches!(
            gen(
                GraphFamily::WattsStrogatz {
                    neighbors: 5,
                    rewire_p: 0.1
                },
                20
            ),
            Err(GraphError::BadParameter("neighbors"))
        ));
        assert!(matches!(
            gen(
                GraphFamily::WattsStrogatz {
                    neighbors: 6,
                    rewire_p: 1.5
                },
                20
            ),
            Err(GraphError::BadParameter("rewire_p"))
        ));
        assert!(matches!(
            gen(GraphFamily::Lollipop { head_fraction: 0.0 }, 20),
            Err(GraphError::BadParameter("head_fraction"))
        ));
        assert!(matches!(
            Graph::generate(GraphConfig {
                weight_ms: (0.0, 40.0),
                ..Default::default()
            }),
            Err(GraphError::BadParameter("weight_ms"))
        ));
    }

    #[test]
    fn disconnected_graphs_are_rejected() {
        // Hand-built: two components. Construction goes through the
        // private fields, so the check in `generate` is exercised via
        // `is_connected` and the matrix path directly.
        let g = Graph {
            n: 4,
            edges: vec![(0, 1), (2, 3)],
            weights_ms: vec![1.0, 1.0],
            family: GraphFamily::Line,
            seed: 0,
        };
        assert!(!g.is_connected());
        assert_eq!(g.rtt_matrix(), Err(GraphError::Disconnected));
    }

    #[test]
    fn matrix_is_the_shortest_path_metric() {
        let g = Graph::generate(GraphConfig {
            family: GraphFamily::Line,
            nodes: 6,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let m = g.rtt_matrix().unwrap();
        // On a line the path 0→5 is the sum of the five edge weights.
        let total: f64 = g.edges().map(|(_, _, w)| w).sum();
        assert!((m.get(0, 5) - total).abs() < 1e-9);
        assert_eq!(m.triangle_violation_rate(), 0.0);
    }

    #[test]
    fn matrix_equals_the_one_thread_rows_bit_for_bit() {
        // 100 nodes: past the 64-node cut-over, so a multi-core host splits.
        for family in GraphFamily::standard() {
            let g = Graph::generate(GraphConfig {
                family,
                nodes: 100,
                seed: 11,
                ..Default::default()
            })
            .unwrap();
            let adj = g.adjacency();
            let rows: Vec<Vec<f64>> = (0..100).map(|src| dijkstra(&adj, src)).collect();
            let serial = RttMatrix::from_fn(100, |i, j| rows[i][j]).unwrap();
            assert_eq!(g.rtt_matrix().unwrap(), serial, "{}", family.name());
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(GraphError::TooFewNodes { got: 3, min: 5 }
            .to_string()
            .contains("at least 5"));
        assert!(GraphError::Disconnected.to_string().contains("connected"));
    }
}
