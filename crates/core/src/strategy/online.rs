//! Online clustering placement — the paper's contribution (Algorithm 1).

use georep_cluster::kmeans::KMeansConfig;
use georep_cluster::micro::MicroCluster;
use georep_cluster::point::WeightedPoint;
use georep_cluster::weighted::weighted_kmeans;

use super::{
    best_serving_candidates, nearest_distinct_candidates, CentroidMapping, PlaceError,
    PlacementContext, Placer,
};

/// The paper's Macro-clustering (Algorithm 1):
///
/// 1. obtain `m` micro-clusters from each replica location;
/// 2. use weighted K-means to cluster the `m·k` micro-clusters into `k`
///    macro-clusters (each micro-cluster participates as a pseudo-point at
///    its centroid, weighted by its traffic);
/// 3. for each macro-cluster, create a replica at a data center chosen per
///    the configured [`CentroidMapping`] (verbatim Algorithm 1 maps to the
///    candidate nearest the centroid; the default mapping picks the
///    candidate that best serves the cluster's summarized demand).
///
/// The inputs arrive as [`georep_cluster::AccessSummary`] values — the
/// same compact messages a deployment would ship over the network — so this
/// strategy never sees an individual client coordinate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineClustering {
    /// Macro-cluster → data-center mapping rule.
    pub mapping: CentroidMapping,
}

impl<const D: usize> Placer<D> for OnlineClustering {
    fn name(&self) -> &'static str {
        "online clustering"
    }

    fn place(&self, ctx: &PlacementContext<'_, D>) -> Result<Vec<usize>, PlaceError> {
        ctx.check_k()?;
        let coords = ctx.require_coords()?;
        if ctx.summaries.is_empty() {
            return Err(PlaceError::MissingData("per-replica access summaries"));
        }

        // Step 1: decode and pool the shipped micro-clusters.
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

        // Step 2: k macro-clusters by weighted k-means.
        let k = ctx.k.min(pseudo.len());
        let clustering = weighted_kmeans(&pseudo, KMeansConfig::new(k).with_seed(ctx.seed))?;

        // Step 3 (lines 3–5): one data center per macro-cluster.
        match self.mapping {
            CentroidMapping::NearestCentroid => Ok(nearest_distinct_candidates(
                &clustering.centroids,
                ctx.problem.candidates(),
                coords,
                ctx.k,
            )),
            CentroidMapping::BestServing => {
                let mut members = vec![Vec::new(); clustering.centroids.len()];
                for (p, &a) in pseudo.iter().zip(&clustering.assignments) {
                    members[a].push((p.coord, p.weight));
                }
                Ok(best_serving_candidates(
                    &members,
                    ctx.problem.candidates(),
                    coords,
                    ctx.k,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use georep_cluster::online::OnlineClusterer;
    use georep_cluster::summary::AccessSummary;
    use georep_coord::Coord;
    use georep_net::rtt::RttMatrix;

    fn line_fixture() -> (RttMatrix, Vec<Coord<1>>) {
        let coords: Vec<Coord<1>> = (0..6).map(|i| Coord::new([i as f64 * 10.0])).collect();
        let m = RttMatrix::from_fn(6, |i, j| (j as f64 - i as f64).abs() * 10.0).unwrap();
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
    fn algorithm_one_places_at_population_centers() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 2, 5], vec![1, 4]).unwrap();
        // Two replica servers each summarize the clients they served: one
        // saw the left population, the other the right.
        let summaries = vec![
            summarize(0, &[(coords[1], 1.0), (coords[1], 1.0), (coords[0], 1.0)]),
            summarize(5, &[(coords[4], 1.0), (coords[4], 2.0), (coords[5], 1.0)]),
        ];
        let ctx = PlacementContext {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &summaries,
            k: 2,
            seed: 1,
        };
        let mut placement = OnlineClustering::default().place(&ctx).unwrap();
        placement.sort_unstable();
        assert_eq!(placement.len(), 2);
        assert!(placement.contains(&5));
        assert!(placement[0] == 0 || placement[0] == 2);
    }

    #[test]
    fn requires_summaries() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1]).unwrap();
        let ctx = PlacementContext::<1> {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &[],
            k: 1,
            seed: 0,
        };
        assert!(matches!(
            OnlineClustering::default().place(&ctx),
            Err(PlaceError::MissingData("per-replica access summaries"))
        ));
    }

    #[test]
    fn empty_summaries_rejected() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1]).unwrap();
        let empty = AccessSummary {
            dims: 1,
            replica: 0,
            clusters: vec![],
        };
        let summaries = vec![empty];
        let ctx = PlacementContext::<1> {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &summaries,
            k: 1,
            seed: 0,
        };
        assert!(matches!(
            OnlineClustering::default().place(&ctx),
            Err(PlaceError::MissingData(_))
        ));
    }

    #[test]
    fn dimension_mismatch_surfaces() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1]).unwrap();
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(2);
        oc.observe(Coord::new([1.0, 1.0]), 1.0);
        let summaries = vec![AccessSummary::from_clusterer(0, &oc)]; // D = 2
        let ctx = PlacementContext::<1> {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &summaries,
            k: 1,
            seed: 0,
        };
        assert!(matches!(
            OnlineClustering::default().place(&ctx),
            Err(PlaceError::Summary(_))
        ));
    }

    #[test]
    fn traffic_weight_drives_single_replica_choice() {
        let (m, coords) = line_fixture();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1, 4]).unwrap();
        // Right population exchanges 50× the data.
        let summaries = vec![
            summarize(0, &[(coords[1], 1.0)]),
            summarize(5, &[(coords[4], 50.0)]),
        ];
        let ctx = PlacementContext {
            problem: &p,
            coords: &coords,
            accesses: &[],
            summaries: &summaries,
            k: 1,
            seed: 3,
        };
        assert_eq!(OnlineClustering::default().place(&ctx).unwrap(), vec![5]);
    }
}
