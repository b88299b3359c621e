//! Regression tests pinning the objective-layer refactor to the original
//! per-call implementations.
//!
//! The cost-table + incremental-evaluation layer in `georep_core::objective`
//! is designed to be *bit-for-bit* equivalent to the straightforward
//! matrix-walking code it replaced: every min is a selection (no rounding),
//! weights multiply the same selected operand, and sums visit clients in
//! the same order. These tests hold the strategies to that claim: each one
//! re-implements the original algorithm verbatim (candidate `contains`
//! scans and all) and asserts the refactored strategy returns the identical
//! placement and the identical `f64` total on a spread of fixed fixtures.

use std::collections::BTreeMap;

use georep_cluster::kmeans::KMeansConfig;
use georep_cluster::point::WeightedPoint;
use georep_cluster::weighted::weighted_kmeans;
use georep_coord::Coord;
use georep_core::problem::PlacementProblem;
use georep_core::quorum::quorum_total_delay;
use georep_core::strategy::greedy::Greedy;
use georep_core::strategy::hotzone::HotZone;
use georep_core::strategy::offline::OfflineKMeans;
use georep_core::strategy::optimal::Optimal;
use georep_core::strategy::swap::SwapLocalSearch;
use georep_core::strategy::{CentroidMapping, PlacementContext, Placer};
use georep_net::rtt::RttMatrix;

/// The original objective: `Σ_u w_u · min_{r ∈ placement} l(u, r)`,
/// folding `f64::min` over the placement per client.
fn reference_total(p: &PlacementProblem<'_>, placement: &[usize]) -> f64 {
    p.clients()
        .iter()
        .zip(p.weights())
        .map(|(&u, &w)| {
            w * placement
                .iter()
                .map(|&r| p.matrix().get(u, r))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The original greedy: per step, scan candidates in order (skipping chosen
/// ones via `contains`), score each against the running `best_delay`
/// vector, keep the first strict minimum.
fn reference_greedy(p: &PlacementProblem<'_>, k: usize) -> Vec<usize> {
    let mut best_delay = vec![f64::INFINITY; p.clients().len()];
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for &cand in p.candidates() {
            if chosen.contains(&cand) {
                continue;
            }
            let total: f64 = p
                .clients()
                .iter()
                .zip(p.weights())
                .zip(&best_delay)
                .map(|((&u, &w), &cur)| w * cur.min(p.matrix().get(u, cand)))
                .sum();
            if best.is_none_or(|(_, bt)| total < bt) {
                best = Some((cand, total));
            }
        }
        let (cand, _) = best.expect("k ≤ candidates");
        chosen.push(cand);
        for (slot, &u) in best_delay.iter_mut().zip(p.clients()) {
            *slot = slot.min(p.matrix().get(u, cand));
        }
    }
    chosen
}

/// The original swap local search, including its quirk of leaving the last
/// tried candidate in the slot while scanning (so the original occupant is
/// re-evaluated at `d == current` and never accepted).
fn reference_swap(p: &PlacementProblem<'_>, k: usize, max_passes: usize) -> Vec<usize> {
    let mut placement = reference_greedy(p, k);
    let mut current = reference_total(p, &placement);
    for _ in 0..max_passes {
        let mut improved = false;
        for slot in 0..placement.len() {
            let original = placement[slot];
            let mut best: Option<(usize, f64)> = None;
            for &cand in p.candidates() {
                if placement.contains(&cand) {
                    continue;
                }
                placement[slot] = cand;
                let d = reference_total(p, &placement);
                if d < current && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((cand, d));
                }
            }
            match best {
                Some((cand, d)) => {
                    placement[slot] = cand;
                    current = d;
                    improved = true;
                }
                None => placement[slot] = original,
            }
        }
        if !improved {
            break;
        }
    }
    placement
}

/// The original exhaustive search: enumerate combinations in lexicographic
/// order, inline objective, keep the first strict minimum.
fn reference_optimal(p: &PlacementProblem<'_>, k: usize) -> Vec<usize> {
    let candidates = p.candidates();
    let n = candidates.len();
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        let placement: Vec<usize> = combo.iter().map(|&ci| candidates[ci]).collect();
        let mut total = 0.0;
        for (&u, &w) in p.clients().iter().zip(p.weights()) {
            let mut min = f64::INFINITY;
            for &r in &placement {
                let d = p.matrix().get(u, r);
                if d < min {
                    min = d;
                }
            }
            total += w * min;
        }
        if best.as_ref().is_none_or(|(_, bd)| total < *bd) {
            best = Some((placement, total));
        }
        // Next lexicographic combination.
        let mut i = k;
        loop {
            if i == 0 {
                return best.expect("non-empty search space").0;
            }
            i -= 1;
            if combo[i] != i + n - k {
                break;
            }
        }
        combo[i] += 1;
        for j in i + 1..k {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

/// Deterministic dense matrices with varied structure (no RNG dependency,
/// so the fixture is identical under any test harness).
fn fixture_matrix(seed: u64, n: usize) -> RttMatrix {
    RttMatrix::from_fn(n, move |i, j| {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
        let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        ((h >> 40) % 400 + 3) as f64 + ((h >> 8) % 1000) as f64 / 1000.0
    })
    .expect("positive finite matrix")
}

fn fixture_problem(m: &RttMatrix, n_cand: usize) -> PlacementProblem<'_> {
    let n = m.len();
    let candidates: Vec<usize> = (0..n).step_by(n / n_cand).take(n_cand).collect();
    let clients: Vec<usize> = (0..n).filter(|u| !candidates.contains(u)).collect();
    let weights: Vec<f64> = clients.iter().map(|&u| 1.0 + (u % 7) as f64).collect();
    PlacementProblem::with_weights(m, candidates, clients, weights).expect("valid problem")
}

fn ctx<'a>(p: &'a PlacementProblem<'a>, k: usize) -> PlacementContext<'a, 1> {
    PlacementContext {
        problem: p,
        coords: &[],
        accesses: &[],
        summaries: &[],
        k,
        seed: 0,
    }
}

#[test]
fn total_delay_is_bitwise_identical_to_the_matrix_walk() {
    for seed in 0..5u64 {
        let m = fixture_matrix(seed, 40);
        let p = fixture_problem(&m, 10);
        let placement: Vec<usize> = p.candidates()[..4].to_vec();
        assert_eq!(
            p.total_delay(&placement).unwrap(),
            reference_total(&p, &placement),
            "seed {seed}"
        );
        // r = 1 quorum routes through the same table.
        assert_eq!(
            quorum_total_delay(&p, &placement, 1).unwrap(),
            reference_total(&p, &placement),
            "seed {seed}"
        );
    }
}

#[test]
fn greedy_returns_the_seed_placement() {
    for seed in 0..6u64 {
        let m = fixture_matrix(seed, 36);
        let p = fixture_problem(&m, 9);
        for k in 1..=5 {
            let got = Greedy.place(&ctx(&p, k)).unwrap();
            let want = reference_greedy(&p, k);
            assert_eq!(got, want, "seed {seed}, k {k}");
            assert_eq!(
                p.total_delay(&got).unwrap(),
                reference_total(&p, &want),
                "seed {seed}, k {k}"
            );
        }
    }
}

#[test]
#[allow(clippy::default_constructed_unit_structs)] // the `default()` call sites stay valid
fn swap_local_search_returns_the_seed_placement() {
    for seed in 0..6u64 {
        let m = fixture_matrix(seed, 36);
        let p = fixture_problem(&m, 9);
        for k in 2..=4 {
            let got = SwapLocalSearch::default().place(&ctx(&p, k)).unwrap();
            let want = reference_swap(&p, k, 16);
            assert_eq!(got, want, "seed {seed}, k {k}");
        }
    }
}

#[test]
fn optimal_returns_the_seed_placement() {
    for seed in 0..4u64 {
        let m = fixture_matrix(seed, 32);
        let p = fixture_problem(&m, 10);
        for k in 1..=4 {
            let got = Optimal::default().place(&ctx(&p, k)).unwrap();
            let want = reference_optimal(&p, k);
            assert_eq!(got, want, "seed {seed}, k {k}");
        }
    }
}

// ---- Coordinate-bearing strategies: HotZone and OfflineKMeans. ---------
//
// These two place from client *coordinates* (plus an access log) rather
// than the RTT matrix, so they get their own fixture and their own
// reference re-implementations: the original cell-ranking / cluster-
// mapping code, written against a BTreeMap and plain member-list folds so
// the reference itself is hash-order-free.

/// Deterministic 2-D coordinates in `[0, 300)²` (same hash family as
/// [`fixture_matrix`]).
fn fixture_coords(seed: u64, n: usize) -> Vec<Coord<2>> {
    (0..n)
        .map(|i| {
            let h = (i as u64 + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0x94D0_49BB_1331_11EB));
            let h = (h ^ (h >> 31)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
            Coord::new([
                ((h >> 40) % 3000) as f64 / 10.0,
                ((h >> 8) % 3000) as f64 / 10.0,
            ])
        })
        .collect()
}

/// An access log whose weights are pairwise distinct (and whose per-cell
/// sums are therefore distinct in practice), so every demand ranking below
/// has a unique order and the HashMap-backed production code is forced
/// onto the same one as the BTreeMap-backed reference.
fn fixture_accesses(clients: &[usize]) -> Vec<(usize, f64)> {
    (0..48)
        .map(|i| {
            (
                clients[(i * 7 + 3) % clients.len()],
                1.0 + (i % 11) as f64 * 0.317 + i as f64 * 1e-3,
            )
        })
        .collect()
}

/// Verbatim re-implementation of the strategy layer's
/// `nearest_distinct_candidates` (first strict minimum per target,
/// distance-to-any-target top-up).
fn reference_nearest_distinct(
    targets: &[Coord<2>],
    candidates: &[usize],
    coords: &[Coord<2>],
    k: usize,
) -> Vec<usize> {
    let mut used = vec![false; candidates.len()];
    let mut chosen = Vec::with_capacity(k);
    for target in targets.iter().take(k) {
        let mut best: Option<(usize, f64)> = None;
        for (ci, &cand) in candidates.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let d = coords[cand].distance(target);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((ci, d));
            }
        }
        if let Some((ci, _)) = best {
            used[ci] = true;
            chosen.push(candidates[ci]);
        }
    }
    while chosen.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for (ci, &cand) in candidates.iter().enumerate() {
            if used[ci] {
                continue;
            }
            let d = targets
                .iter()
                .map(|t| coords[cand].distance(t))
                .fold(f64::INFINITY, f64::min);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((ci, d));
            }
        }
        let (ci, _) = best.expect("k ≤ candidates");
        used[ci] = true;
        chosen.push(candidates[ci]);
    }
    chosen
}

/// The original HotZone: bin accesses into lattice cells, rank cells by
/// weight, map the top-k centroids to distinct candidates. Accumulation
/// follows access order (so the per-cell coordinate sums are bitwise the
/// production ones); a BTreeMap stands in for the HashMap, which changes
/// nothing once cell weights are distinct.
fn reference_hotzone(
    coords: &[Coord<2>],
    candidates: &[usize],
    accesses: &[(usize, f64)],
    cell_ms: f64,
    k: usize,
) -> Vec<usize> {
    let mut cells: BTreeMap<[i64; 2], (f64, Coord<2>, f64)> = BTreeMap::new();
    for &(client, weight) in accesses {
        let c = coords[client];
        let key = [
            (c.pos()[0] / cell_ms).floor() as i64,
            (c.pos()[1] / cell_ms).floor() as i64,
        ];
        let cell = cells.entry(key).or_insert((0.0, Coord::origin(), 0.0));
        cell.0 += weight;
        cell.1 = cell.1.add(&c);
        cell.2 += 1.0;
    }
    let mut ranked: Vec<(f64, Coord<2>)> = cells
        .values()
        .map(|&(w, sum, count)| (w, sum.scale(1.0 / count)))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    let targets: Vec<Coord<2>> = ranked.into_iter().take(k).map(|(_, c)| c).collect();
    reference_nearest_distinct(&targets, candidates, coords, k)
}

/// The original `best_serving_candidates`: clusters pick candidates in
/// decreasing demand order, each taking the free candidate minimizing the
/// weighted member-fold delay, topping up against all demand.
fn reference_best_serving(
    members: &[Vec<(Coord<2>, f64)>],
    candidates: &[usize],
    coords: &[Coord<2>],
    k: usize,
) -> Vec<usize> {
    let est = |cand: usize, m: &[(Coord<2>, f64)]| -> f64 {
        m.iter().map(|&(c, w)| w * coords[cand].distance(&c)).sum()
    };
    let demand: Vec<f64> = members
        .iter()
        .map(|m| m.iter().map(|&(_, w)| w).sum())
        .collect();
    let mut order: Vec<usize> = (0..members.len()).collect();
    order.sort_by(|&a, &b| demand[b].total_cmp(&demand[a]));

    let mut used = vec![false; candidates.len()];
    let mut chosen = Vec::with_capacity(k);
    for &ci in order.iter().take(k) {
        let mut best: Option<(usize, f64)> = None;
        for (slot, &is_used) in used.iter().enumerate() {
            if is_used {
                continue;
            }
            let e = est(candidates[slot], &members[ci]);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((slot, e));
            }
        }
        if let Some((slot, _)) = best {
            used[slot] = true;
            chosen.push(candidates[slot]);
        }
    }
    let all: Vec<(Coord<2>, f64)> = members.iter().flatten().copied().collect();
    while chosen.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for (slot, &is_used) in used.iter().enumerate() {
            if is_used {
                continue;
            }
            let e = est(candidates[slot], &all);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((slot, e));
            }
        }
        let (slot, _) = best.expect("k ≤ candidates");
        used[slot] = true;
        chosen.push(candidates[slot]);
    }
    chosen
}

/// The original offline baseline: every access becomes one weighted point,
/// one central k-means (the shared clustering crate — pinned by its own
/// equivalence suite), then the configured centroid mapping.
fn reference_offline(
    coords: &[Coord<2>],
    candidates: &[usize],
    accesses: &[(usize, f64)],
    k: usize,
    seed: u64,
    mapping: CentroidMapping,
) -> Vec<usize> {
    let points: Vec<WeightedPoint<2>> = accesses
        .iter()
        .map(|&(client, weight)| WeightedPoint::new(coords[client], weight))
        .collect();
    let clustering = weighted_kmeans(
        &points,
        KMeansConfig::new(k.min(points.len())).with_seed(seed),
    )
    .expect("clustering succeeds");
    match mapping {
        CentroidMapping::NearestCentroid => {
            reference_nearest_distinct(&clustering.centroids, candidates, coords, k)
        }
        CentroidMapping::BestServing => {
            let mut members = vec![Vec::new(); clustering.centroids.len()];
            for (p, &a) in points.iter().zip(&clustering.assignments) {
                members[a].push((p.coord, p.weight));
            }
            reference_best_serving(&members, candidates, coords, k)
        }
    }
}

struct CoordFixture {
    matrix: RttMatrix,
    coords: Vec<Coord<2>>,
    candidates: Vec<usize>,
    accesses: Vec<(usize, f64)>,
}

fn coord_fixture(seed: u64) -> CoordFixture {
    let n = 36;
    let coords = fixture_coords(seed, n);
    let cs = coords.clone();
    let matrix = RttMatrix::from_fn(n, move |i, j| cs[i].distance(&cs[j]).max(1.0))
        .expect("positive finite matrix");
    let candidates: Vec<usize> = (0..n).step_by(4).collect();
    let clients: Vec<usize> = (0..n).filter(|u| u % 4 != 0).collect();
    let accesses = fixture_accesses(&clients);
    CoordFixture {
        matrix,
        coords,
        candidates,
        accesses,
    }
}

#[test]
fn hotzone_returns_the_reference_cell_ranking() {
    for seed in 0..6u64 {
        let fx = coord_fixture(seed);
        let clients: Vec<usize> = (0..fx.matrix.len()).filter(|u| u % 4 != 0).collect();
        let p = PlacementProblem::new(&fx.matrix, fx.candidates.clone(), clients).unwrap();
        for k in 1..=4 {
            for cell_ms in [25.0, 60.0] {
                let ctx = PlacementContext {
                    problem: &p,
                    coords: &fx.coords,
                    accesses: &fx.accesses,
                    summaries: &[],
                    k,
                    seed: 0,
                };
                let got = HotZone::new(cell_ms).place(&ctx).unwrap();
                let want = reference_hotzone(&fx.coords, &fx.candidates, &fx.accesses, cell_ms, k);
                assert_eq!(got, want, "seed {seed}, k {k}, cell {cell_ms}");
            }
        }
    }
}

#[test]
fn offline_kmeans_returns_the_reference_for_both_mappings() {
    for seed in 0..6u64 {
        let fx = coord_fixture(seed);
        let clients: Vec<usize> = (0..fx.matrix.len()).filter(|u| u % 4 != 0).collect();
        let p = PlacementProblem::new(&fx.matrix, fx.candidates.clone(), clients).unwrap();
        for k in 1..=3 {
            for mapping in [
                CentroidMapping::NearestCentroid,
                CentroidMapping::BestServing,
            ] {
                let ctx = PlacementContext {
                    problem: &p,
                    coords: &fx.coords,
                    accesses: &fx.accesses,
                    summaries: &[],
                    k,
                    seed: 0x0FF + seed,
                };
                let got = OfflineKMeans { mapping }.place(&ctx).unwrap();
                let want = reference_offline(
                    &fx.coords,
                    &fx.candidates,
                    &fx.accesses,
                    k,
                    0x0FF + seed,
                    mapping,
                );
                assert_eq!(got, want, "seed {seed}, k {k}, {mapping:?}");
            }
        }
    }
}

#[test]
fn optimal_pruning_is_exact_under_adversarial_ties() {
    // Matrices with massive value collisions exercise the tie-breaking
    // rules (first strict minimum wins) that the pruned, greedy-seeded,
    // chunked search must reproduce.
    for n in [20usize, 25] {
        let m = RttMatrix::from_fn(n, |i, j| (((i + j) % 4) * 10 + 5) as f64).unwrap();
        let p = fixture_problem(&m, 8);
        for k in 1..=4 {
            let got = Optimal::default().place(&ctx(&p, k)).unwrap();
            let want = reference_optimal(&p, k);
            assert_eq!(got, want, "n {n}, k {k}");
        }
    }
}

#[test]
fn decentralized_central_solver_is_swap_local_search() {
    // The decentralized mode's "central placement" — what its consensus is
    // proven equal to — is the same open-and-swap search as
    // `SwapLocalSearch`, so the two agree on every instance, bit for bit.
    for seed in 0..40u64 {
        for (n, n_cand) in [(36usize, 9usize), (60, 12), (80, 20)] {
            let m = fixture_matrix(seed, n);
            let p = fixture_problem(&m, n_cand);
            for k in 2..=5 {
                let mut swap = SwapLocalSearch.place(&ctx(&p, k)).unwrap();
                swap.sort_unstable();
                let (central, total) =
                    georep_core::central_placement(&m, p.candidates(), p.clients(), p.weights(), k)
                        .unwrap();
                let at = format!("seed {seed}, n {n}, k {k}");
                assert_eq!(swap, central, "{at}");
                assert_eq!(p.total_delay(&swap).unwrap(), total, "{at}");
            }
        }
    }
}
