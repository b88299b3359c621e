//! Facility-location greedy over shipped summaries — an extension showing
//! how far the paper's summaries can go.
//!
//! Algorithm 1 composes two lossy steps at the central server: weighted
//! K-means over the pseudo-points, then a cluster→data-center mapping.
//! Nothing about the *data* forces that composition — the summaries plus
//! the candidates' coordinates define a complete (estimated) instance of
//! the placement objective, which greedy facility location solves directly:
//! repeatedly add the candidate that most reduces
//! `Σ_pseudo w · min_{chosen} dist(candidate, pseudo)`.
//!
//! A single-swap local-search pass then removes greedy's myopia (the
//! classic "grab the middle first" failure). Same inputs, still a tiny
//! central computation (the instance has `k·m` points and `|C|`
//! facilities), measurably closer to the exhaustive optimum on hard
//! matrices — evidence for the paper's thesis that the micro-cluster
//! summary itself preserves enough information for near-optimal placement.

use georep_cluster::micro::MicroCluster;
use georep_cluster::point::WeightedPoint;
use georep_coord::Coord;

use super::greedy::open_then_swap;
use super::{PlaceError, PlacementContext, Placer};
use crate::objective::{CoordDelay, CostTable, IncrementalEval};

/// Greedy facility location on the estimated (summary + coordinate)
/// objective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineGreedy;

impl<const D: usize> Placer<D> for OnlineGreedy {
    fn name(&self) -> &'static str {
        "online greedy"
    }

    fn place(&self, ctx: &PlacementContext<'_, D>) -> Result<Vec<usize>, PlaceError> {
        ctx.check_k()?;
        let coords = ctx.require_coords()?;
        if ctx.summaries.is_empty() {
            return Err(PlaceError::MissingData("per-replica access summaries"));
        }
        let mut pseudo: Vec<WeightedPoint<D>> = Vec::new();
        for summary in ctx.summaries {
            let micros: Vec<MicroCluster<D>> = summary.to_micro_clusters()?;
            for mc in micros {
                pseudo.push(WeightedPoint::new(mc.centroid(), mc.weight()));
            }
        }
        if pseudo.is_empty() {
            return Err(PlaceError::MissingData(
                "summaries with at least one micro-cluster",
            ));
        }

        // The estimated instance is a fixed pseudo-point × candidate matrix:
        // densify it once and run the matrix-backed open-and-swap search.
        let points: Vec<Coord<D>> = pseudo.iter().map(|p| p.coord).collect();
        let weights: Vec<f64> = pseudo.iter().map(|p| p.weight).collect();
        let oracle = CoordDelay::new(coords, &points);
        let table = CostTable::from_oracle(
            &oracle,
            ctx.problem.candidates(),
            coords.len(),
            points.len(),
        );
        let mut eval = IncrementalEval::new(&table, &weights);
        open_then_swap(&mut eval, ctx.k);
        Ok(eval.placement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use crate::strategy::online::OnlineClustering;
    use georep_cluster::online::OnlineClusterer;
    use georep_cluster::summary::AccessSummary;
    use georep_coord::Coord;
    use georep_net::rtt::RttMatrix;

    fn line_fixture() -> (RttMatrix, Vec<Coord<1>>) {
        let coords: Vec<Coord<1>> = (0..8).map(|i| Coord::new([i as f64 * 10.0])).collect();
        let m = RttMatrix::from_fn(8, |i, j| (j as f64 - i as f64).abs() * 10.0).unwrap();
        (m, coords)
    }

    fn summarize(replica: u32, accesses: &[(Coord<1>, f64)]) -> AccessSummary {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(4);
        for &(c, w) in accesses {
            oc.observe(c, w);
        }
        AccessSummary::from_clusterer(replica, &oc)
    }

    #[test]
    fn covers_both_populations() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 3, 7], vec![1, 6]).unwrap();
        let summaries = vec![
            summarize(0, &[(coords[1], 3.0), (coords[0], 1.0)]),
            summarize(7, &[(coords[6], 3.0), (coords[7], 1.0)]),
        ];
        let ctx = PlacementContext {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &summaries,
            k: 2,
            seed: 0,
        };
        let mut placement = OnlineGreedy.place(&ctx).unwrap();
        placement.sort_unstable();
        assert_eq!(placement, vec![0, 7]);
    }

    #[test]
    fn comparable_to_algorithm_one_in_aggregate() {
        // Neither heuristic dominates pointwise (both can hit plateaus).
        // On easy, well-clustered instances they are neck and neck — this
        // test pins that; on matrices with poorly-peered pockets the direct
        // optimization wins clearly (verified end-to-end by the figure2
        // bench and tests/paper_claims.rs).
        let mut greedy_total = 0.0;
        let mut kmeans_total = 0.0;
        for seed in 0..20u64 {
            let n = 16usize;
            let xs: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * 97 + seed * 131) % 500) as f64)
                .collect();
            let coords: Vec<Coord<1>> = xs.iter().map(|&x| Coord::new([x])).collect();
            let xs2 = xs.clone();
            let m = RttMatrix::from_fn(n, move |i, j| (xs2[i] - xs2[j]).abs().max(0.5)).unwrap();
            let candidates: Vec<usize> = (0..n).step_by(2).collect();
            let clients: Vec<usize> = (1..n).step_by(2).collect();
            let p = PlacementProblem::new(&m, candidates, clients.clone()).unwrap();
            let accesses: Vec<(Coord<1>, f64)> = clients
                .iter()
                .map(|&c| (coords[c], 1.0 + (c % 3) as f64))
                .collect();
            let summaries = vec![
                summarize(0, &accesses[..clients.len() / 2]),
                summarize(1, &accesses[clients.len() / 2..]),
            ];
            let ctx = PlacementContext {
                problem: &p,
                coords: &coords,
                accesses: &[],
                summaries: &summaries,
                k: 3,
                seed,
            };
            let greedy = OnlineGreedy.place(&ctx).unwrap();
            let kmeans = OnlineClustering::default().place(&ctx).unwrap();
            greedy_total += p.total_delay(&greedy).unwrap();
            kmeans_total += p.total_delay(&kmeans).unwrap();
        }
        assert!(
            greedy_total <= kmeans_total * 1.05,
            "greedy {greedy_total:.0} vs algorithm 1 {kmeans_total:.0} in aggregate"
        );
    }

    #[test]
    fn requires_summaries() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 7], vec![1]).unwrap();
        let ctx = PlacementContext::<1> {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &[],
            k: 1,
            seed: 0,
        };
        assert!(matches!(
            OnlineGreedy.place(&ctx),
            Err(PlaceError::MissingData(_))
        ));
    }

    #[test]
    fn returns_distinct_candidates() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 2, 4, 6], vec![1, 3]).unwrap();
        let summaries = vec![summarize(0, &[(coords[1], 1.0), (coords[3], 1.0)])];
        let ctx = PlacementContext {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &summaries,
            k: 4,
            seed: 0,
        };
        let placement = OnlineGreedy.place(&ctx).unwrap();
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }
}
