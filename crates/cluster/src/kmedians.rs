//! Weighted k-medians: clustering under the *placement* objective.
//!
//! K-means minimizes `Σ w·d²`, but the replica placement objective is
//! `Σ w·d` — linear in distance. The square makes far-away low-demand
//! populations look quadratically more important than they are, so a
//! k-means-driven placement will happily dedicate a replica to a tiny
//! remote pocket while a dense region splits one. Clustering under the
//! linear objective (k-medians: assignment by distance, centers moved to
//! the weighted geometric median via Weiszfeld iteration) aligns the
//! summarization with what placement actually optimizes.
//!
//! The experiments confirm the alignment matters: with k-medians
//! macro-clustering the online technique tracks the exhaustive optimum
//! noticeably closer on matrices with poorly-peered pockets.

use georep_coord::Coord;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kmeans::{
    run_restarts, seed_plus_plus, ClusterError, Clustering, KMeansConfig, LloydCounters,
};
use crate::point::WeightedPoint;

/// Clusters weighted points minimizing `Σ w·d` (not `d²`).
///
/// Reuses [`KMeansConfig`]; `sse` in the returned [`Clustering`] holds the
/// *linear* cost `Σ w·d` for this entry point.
///
/// # Errors
///
/// See [`ClusterError`].
///
/// # Example
///
/// ```
/// use georep_cluster::kmedians::weighted_kmedians;
/// use georep_cluster::kmeans::KMeansConfig;
/// use georep_cluster::WeightedPoint;
/// use georep_coord::Coord;
///
/// // A dense population at 0 and a light one far away: with k = 1 the
/// // median sits inside the dense population (the mean would be dragged
/// // out much further).
/// let mut pts: Vec<WeightedPoint<1>> =
///     (0..9).map(|i| WeightedPoint::new(Coord::new([i as f64]), 1.0)).collect();
/// pts.push(WeightedPoint::new(Coord::new([500.0]), 1.0));
/// let c = weighted_kmedians(&pts, KMeansConfig::new(1))?;
/// assert!(c.centroids[0].component(0) < 10.0);
/// # Ok::<(), georep_cluster::kmeans::ClusterError>(())
/// ```
pub fn weighted_kmedians<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> Result<Clustering<D>, ClusterError> {
    // k-medians has no pruning bounds, so its effort counters stay zero.
    run_restarts(points, cfg, |points, cfg| {
        (kmedians_once(points, cfg), LloydCounters::default())
    })
    .map(|(clustering, _)| clustering)
}

/// One seeded k-medians run. Input is pre-validated by [`run_restarts`].
fn kmedians_once<const D: usize>(points: &[WeightedPoint<D>], cfg: KMeansConfig) -> Clustering<D> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut centers = seed_plus_plus(points, cfg.k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    let mut converged = false;

    while iterations < cfg.max_iters {
        iterations += 1;

        for (p, slot) in points.iter().zip(assignments.iter_mut()) {
            *slot = nearest(&centers, &p.coord);
        }

        let mut movement = 0.0;
        for c in 0..cfg.k {
            let members: Vec<&WeightedPoint<D>> = points
                .iter()
                .zip(&assignments)
                .filter(|(_, &a)| a == c)
                .map(|(p, _)| p)
                .collect();
            let next = if members.is_empty() {
                farthest(points, &centers, &assignments)
            } else {
                geometric_median(&members, centers[c])
            };
            movement += centers[c].euclidean(&next);
            centers[c] = next;
        }
        if movement <= cfg.tolerance {
            converged = true;
            break;
        }
    }

    let mut cost = 0.0;
    for (p, slot) in points.iter().zip(assignments.iter_mut()) {
        *slot = nearest(&centers, &p.coord);
        cost += p.weight * centers[*slot].distance(&p.coord);
    }
    Clustering {
        centroids: centers,
        assignments,
        sse: cost,
        iterations,
        converged,
    }
}

fn nearest<const D: usize>(centers: &[Coord<D>], p: &Coord<D>) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centers.iter().enumerate() {
        let d = c.distance(p);
        if d < best.1 {
            best = (i, d);
        }
    }
    best.0
}

fn farthest<const D: usize>(
    points: &[WeightedPoint<D>],
    centers: &[Coord<D>],
    assignments: &[usize],
) -> Coord<D> {
    let mut best = (points[0].coord, -1.0);
    for (p, &a) in points.iter().zip(assignments) {
        let d = p.weight * p.coord.distance(&centers[a]);
        if d > best.1 {
            best = (p.coord, d);
        }
    }
    best.0
}

/// Weiszfeld iteration for the weighted geometric median (L1-of-L2 cost),
/// starting from `start`. A handful of iterations suffices for cluster
/// updates; points coinciding with the current iterate are handled by the
/// standard epsilon guard.
fn geometric_median<const D: usize>(members: &[&WeightedPoint<D>], start: Coord<D>) -> Coord<D> {
    debug_assert!(!members.is_empty());
    if members.len() == 1 {
        return members[0].coord;
    }
    let mut current = start;
    for _ in 0..24 {
        let mut num = Coord::<D>::origin();
        let mut denom = 0.0;
        for m in members {
            let d = current.euclidean(&m.coord).max(1e-9);
            let w = m.weight / d;
            num = num.add(&m.coord.scale(w));
            denom += w;
        }
        if denom <= 0.0 {
            break;
        }
        let next = num.scale(1.0 / denom);
        let step = current.euclidean(&next);
        current = next;
        if step < 1e-6 {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wp(x: f64, y: f64, w: f64) -> WeightedPoint<2> {
        WeightedPoint::new(Coord::new([x, y]), w)
    }

    #[test]
    fn median_resists_outliers_where_mean_does_not() {
        // 9 points at x = 0, one at x = 1000. Median ≈ 0, mean = 100.
        let mut pts: Vec<WeightedPoint<2>> = (0..9).map(|_| wp(0.0, 0.0, 1.0)).collect();
        pts.push(wp(1000.0, 0.0, 1.0));
        let med = weighted_kmedians(&pts, KMeansConfig::new(1)).unwrap();
        let mean = crate::weighted::weighted_kmeans(&pts, KMeansConfig::new(1)).unwrap();
        assert!(
            med.centroids[0].component(0) < 5.0,
            "median {:?}",
            med.centroids[0]
        );
        assert!((mean.centroids[0].component(0) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn separates_two_blobs_like_kmeans() {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(wp((i % 5) as f64, (i / 5) as f64, 1.0));
            pts.push(wp(300.0 + (i % 5) as f64, (i / 5) as f64, 1.0));
        }
        let c = weighted_kmedians(&pts, KMeansConfig::new(2)).unwrap();
        let d = c.centroids[0].distance(&c.centroids[1]);
        assert!(d > 250.0, "separation {d}");
    }

    #[test]
    fn dense_region_outranks_remote_pocket() {
        // Nearly all demand at the origin spread over a wide disc, a sliver
        // (1%) in a pocket 400 away. Under the linear objective the pocket
        // costs 0.6 × 400 = 240 while splitting the dense region saves more,
        // so k-medians keeps both centers home; under the squared objective
        // the pocket costs 0.6 × 400² = 96 000 and k-means chases it.
        let mut pts = Vec::new();
        for i in 0..30 {
            let x = (i % 6) as f64 * 16.0;
            let y = (i / 6) as f64 * 16.0;
            pts.push(wp(x, y, 2.0));
        }
        for i in 0..3 {
            pts.push(wp(400.0 + i as f64, 0.0, 0.2));
        }
        let med = weighted_kmedians(&pts, KMeansConfig::new(2)).unwrap();
        let mean = crate::weighted::weighted_kmeans(&pts, KMeansConfig::new(2)).unwrap();
        let near = |c: &Clustering<2>| {
            c.centroids
                .iter()
                .filter(|ct| ct.component(0) < 150.0)
                .count()
        };
        assert_eq!(
            near(&med),
            2,
            "k-medians keeps both centers in the dense region"
        );
        assert_eq!(near(&mean), 1, "k-means chases the pocket");
    }

    #[test]
    fn cost_is_linear_not_squared() {
        let pts = vec![wp(0.0, 0.0, 2.0), wp(10.0, 0.0, 2.0)];
        let c = weighted_kmedians(&pts, KMeansConfig::new(1)).unwrap();
        // Median of two points lies anywhere on the segment; cost is
        // 2·d(a) + 2·d(b) = 2 × 10 = 20 at any interior point.
        assert!((c.sse - 20.0).abs() < 1e-3, "cost {}", c.sse);
    }

    #[test]
    fn errors_match_kmeans() {
        assert_eq!(
            weighted_kmedians::<2>(&[], KMeansConfig::new(1)),
            Err(ClusterError::NoPoints)
        );
        let pts = vec![wp(0.0, 0.0, 1.0)];
        assert_eq!(
            weighted_kmedians(&pts, KMeansConfig::new(0)),
            Err(ClusterError::ZeroK)
        );
        assert_eq!(
            weighted_kmedians(&pts, KMeansConfig::new(2)),
            Err(ClusterError::KTooLarge { k: 2, points: 1 })
        );
    }

    proptest! {
        #[test]
        fn prop_assignments_are_nearest(seed in 0u64..30, k in 1usize..4) {
            let pts: Vec<WeightedPoint<2>> = (0..24)
                .map(|i| wp((i * 13 % 100) as f64, (i * 7 % 60) as f64, 1.0 + (i % 3) as f64))
                .collect();
            let c = weighted_kmedians(&pts, KMeansConfig::new(k).with_seed(seed)).unwrap();
            for (p, &a) in pts.iter().zip(&c.assignments) {
                let best = c.centroids.iter()
                    .map(|ct| ct.distance(&p.coord))
                    .fold(f64::INFINITY, f64::min);
                prop_assert!((c.centroids[a].distance(&p.coord) - best).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_reported_cost_is_the_linear_objective(seed in 0u64..30, k in 1usize..4) {
            let pts: Vec<WeightedPoint<2>> = (0..30)
                .map(|i| wp((i * 17 % 120) as f64, (i * 11 % 80) as f64, 1.0 + (i % 2) as f64))
                .collect();
            let med = weighted_kmedians(&pts, KMeansConfig::new(k).with_seed(seed)).unwrap();
            let manual: f64 = pts.iter().zip(&med.assignments)
                .map(|(p, &a)| p.weight * med.centroids[a].distance(&p.coord))
                .sum();
            prop_assert!((manual - med.sse).abs() < 1e-6);
        }
    }
}
