//! Weighted K-means over pseudo-points.
//!
//! The macro-clustering step of the paper's Algorithm 1: "use weighted
//! K-means to cluster the `m·k` micro-clusters into `k` macro-clusters".
//! Each micro-cluster participates as a single point at its centroid,
//! weighted by the traffic it summarizes, so the macro-centroids land where
//! the *clients* are — not where the micro-clusters happen to be.
//!
//! The solve itself is delegated to the bounds-pruned Lloyd core in
//! [`crate::kmeans`]; results are bit-for-bit identical to the plain
//! full-scan solver preserved in [`crate::reference`], so callers can
//! treat this as the same algorithm, merely faster. The exactness argument
//! lives in DESIGN.md ("The streaming layer").

use crate::kmeans::{lloyd, ClusterError, Clustering, KMeansConfig, KMeansStats};
use crate::point::WeightedPoint;

/// Clusters weighted pseudo-points into `cfg.k` groups.
///
/// Identical to [`crate::kmeans::kmeans`] except that both the centroid
/// update and the SSE weigh each point by its weight.
///
/// # Errors
///
/// See [`ClusterError`].
///
/// # Example
///
/// ```
/// use georep_cluster::weighted::weighted_kmeans;
/// use georep_cluster::kmeans::KMeansConfig;
/// use georep_cluster::WeightedPoint;
/// use georep_coord::Coord;
///
/// // A heavy population at x = 0 and a light one at x = 90: with k = 1 the
/// // centroid sits close to the heavy population.
/// let pts = vec![
///     WeightedPoint::new(Coord::new([0.0]), 9.0),
///     WeightedPoint::new(Coord::new([90.0]), 1.0),
/// ];
/// let c = weighted_kmeans(&pts, KMeansConfig::new(1))?;
/// assert!((c.centroids[0].component(0) - 9.0).abs() < 1e-9);
/// # Ok::<(), georep_cluster::kmeans::ClusterError>(())
/// ```
pub fn weighted_kmeans<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> Result<Clustering<D>, ClusterError> {
    lloyd(points, cfg).map(|(clustering, _)| clustering)
}

/// [`weighted_kmeans`] plus the solver-effort counters ([`KMeansStats`]).
///
/// The clustering is bit-for-bit the one [`weighted_kmeans`] returns; the
/// stats are integer tallies of work the solver performed anyway (prune
/// hits, full scans, iterations, the winning restart).
///
/// # Errors
///
/// See [`ClusterError`].
pub fn weighted_kmeans_with_stats<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> Result<(Clustering<D>, KMeansStats), ClusterError> {
    lloyd(points, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_coord::Coord;

    #[test]
    fn weights_pull_the_centroid() {
        let pts = vec![
            WeightedPoint::new(Coord::new([0.0, 0.0]), 3.0),
            WeightedPoint::new(Coord::new([12.0, 0.0]), 1.0),
        ];
        let c = weighted_kmeans(&pts, KMeansConfig::new(1)).unwrap();
        assert!((c.centroids[0].component(0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn equal_weights_match_unweighted() {
        let raw: Vec<Coord<2>> = (0..30)
            .map(|i| Coord::new([(i % 6) as f64 * 7.0, (i / 6) as f64 * 5.0]))
            .collect();
        let weighted: Vec<WeightedPoint<2>> =
            raw.iter().map(|&c| WeightedPoint::new(c, 2.5)).collect();
        let a = crate::kmeans::kmeans(&raw, KMeansConfig::new(3)).unwrap();
        let b = weighted_kmeans(&weighted, KMeansConfig::new(3)).unwrap();
        // Same seeding path, uniformly scaled weights: identical centroids
        // (up to floating-point rounding); SSE scales by the weight.
        for (ca, cb) in a.centroids.iter().zip(&b.centroids) {
            assert!(ca.euclidean(cb) < 1e-9, "{ca:?} vs {cb:?}");
        }
        assert!((b.sse - 2.5 * a.sse).abs() < 1e-6);
    }

    #[test]
    fn heavy_cluster_attracts_k1_centroid_between_blobs() {
        // 10 points of weight 10 at the left, 10 points of weight 1 at the
        // right: the single centroid sits near the left blob.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(WeightedPoint::new(Coord::new([i as f64, 0.0]), 10.0));
            pts.push(WeightedPoint::new(Coord::new([100.0 + i as f64, 0.0]), 1.0));
        }
        let c = weighted_kmeans(&pts, KMeansConfig::new(1)).unwrap();
        assert!(
            c.centroids[0].component(0) < 20.0,
            "x = {}",
            c.centroids[0].component(0)
        );
    }

    #[test]
    fn propagates_errors() {
        assert_eq!(
            weighted_kmeans::<2>(&[], KMeansConfig::new(1)),
            Err(ClusterError::NoPoints)
        );
        assert_eq!(
            weighted_kmeans_with_stats::<2>(&[], KMeansConfig::new(1)),
            Err(ClusterError::NoPoints)
        );
    }

    #[test]
    fn stats_variant_returns_the_same_clustering() {
        let pts: Vec<WeightedPoint<2>> = (0..30)
            .map(|i| {
                WeightedPoint::new(
                    Coord::new([(i % 6) as f64 * 7.0, (i / 6) as f64 * 5.0]),
                    1.0 + (i % 3) as f64,
                )
            })
            .collect();
        let cfg = KMeansConfig::new(3).with_seed(17);
        let plain = weighted_kmeans(&pts, cfg).unwrap();
        let (counted, stats) = weighted_kmeans_with_stats(&pts, cfg).unwrap();
        assert_eq!(plain, counted);
        assert_eq!(stats.point_updates(), stats.iterations * pts.len() as u64);
    }

    #[test]
    fn macro_clustering_of_micro_pseudo_points() {
        // Simulates Algorithm 1's input shape: 3 replicas × 4 micro-clusters
        // summarizing two true populations.
        let mut pseudo = Vec::new();
        for r in 0..3 {
            for m in 0..4 {
                let (base, weight) = if m % 2 == 0 {
                    (0.0, 50.0)
                } else {
                    (300.0, 20.0)
                };
                pseudo.push(WeightedPoint::new(
                    Coord::new([base + r as f64 + m as f64, base]),
                    weight,
                ));
            }
        }
        let c = weighted_kmeans(&pseudo, KMeansConfig::new(2)).unwrap();
        let mut xs: Vec<f64> = c.centroids.iter().map(|c| c.component(0)).collect();
        xs.sort_by(f64::total_cmp);
        assert!(xs[0] < 10.0, "left centroid at {}", xs[0]);
        assert!(xs[1] > 290.0, "right centroid at {}", xs[1]);
    }
}
