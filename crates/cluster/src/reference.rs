//! The pre-refactor streaming implementations, kept verbatim.
//!
//! The bounds-pruned Lloyd in [`crate::kmeans`](mod@crate::kmeans) and the cached/incremental
//! online clusterer in [`crate::online`] are *bit-for-bit* equivalence
//! refactors: same assignments, same SSE, same micro-cluster accumulators,
//! down to the last `f64` bit. This module preserves the straightforward
//! originals — full nearest-centroid scans, serial restarts, centroids
//! recomputed from `sum / count` on every read, a fresh O(m²) sweep per
//! overflow merge — so the equivalence suites
//! (`tests/streaming_equivalence.rs`, and the whole-manager trajectory in
//! `tests/manager_pipeline.rs`) can hold the refactor to that claim against
//! the real pre-PR code, not a strawman.
//!
//! Nothing here is part of the supported API.

use georep_coord::Coord;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kmeans::{seed_plus_plus, ClusterError, Clustering, KMeansConfig, TOLERANCE};
use crate::micro::MicroCluster;
use crate::online::{StreamStats, MIN_RADIUS, RADIUS_FACTOR};
use crate::point::WeightedPoint;

// ---- Weighted k-means: serial restarts, full-scan Lloyd. ----

/// The original restart loop: serial, winner by strict lowest SSE in
/// restart order.
pub fn lloyd_reference<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> Result<Clustering<D>, ClusterError> {
    let mut best: Option<Clustering<D>> = None;
    for r in 0..cfg.restarts.max(1) {
        let run = lloyd_once_reference(
            points,
            KMeansConfig {
                seed: cfg.seed.wrapping_add(r as u64),
                restarts: 1,
                ..cfg
            },
        )?;
        if best.as_ref().is_none_or(|b| run.sse < b.sse) {
            best = Some(run);
        }
    }
    Ok(best.expect("restarts ≥ 1"))
}

/// The original Lloyd iteration: every point scans every centroid, every
/// assignment step, with per-iteration `Vec` allocations for the sums.
fn lloyd_once_reference<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> Result<Clustering<D>, ClusterError> {
    if points.is_empty() {
        return Err(ClusterError::NoPoints);
    }
    if cfg.k == 0 {
        return Err(ClusterError::ZeroK);
    }
    if cfg.k > points.len() {
        return Err(ClusterError::KTooLarge {
            k: cfg.k,
            points: points.len(),
        });
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut seeds, mut d2) = (Vec::new(), Vec::new());
    seed_plus_plus(points, cfg.k, &mut rng, &mut seeds, &mut d2);
    let mut centroids: Vec<Coord<D>> = seeds.iter().map(|&i| points[i].coord).collect();
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    let mut converged = false;

    while iterations < cfg.max_iters {
        iterations += 1;

        for (p, slot) in points.iter().zip(assignments.iter_mut()) {
            *slot = nearest_reference(&centroids, &p.coord).0;
        }

        let mut sums = vec![Coord::<D>::origin(); cfg.k];
        let mut weights = vec![0.0; cfg.k];
        for (p, &a) in points.iter().zip(&assignments) {
            sums[a] = sums[a].add(&p.coord.scale(p.weight));
            weights[a] += p.weight;
        }

        let mut movement = 0.0;
        for c in 0..cfg.k {
            let next = if weights[c] > 0.0 {
                sums[c].scale(1.0 / weights[c])
            } else {
                farthest_point_reference(points, &centroids, &assignments)
            };
            movement += centroids[c].euclidean(&next);
            centroids[c] = next;
        }

        if movement <= TOLERANCE {
            converged = true;
            break;
        }
    }

    let mut sse = 0.0;
    for (p, slot) in points.iter().zip(assignments.iter_mut()) {
        let (idx, dist) = nearest_reference(&centroids, &p.coord);
        *slot = idx;
        sse += p.weight * dist * dist;
    }

    Ok(Clustering {
        centroids,
        assignments,
        sse,
        iterations,
        converged,
    })
}

fn nearest_reference<const D: usize>(centroids: &[Coord<D>], point: &Coord<D>) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = c.distance(point);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

fn farthest_point_reference<const D: usize>(
    points: &[WeightedPoint<D>],
    centroids: &[Coord<D>],
    assignments: &[usize],
) -> Coord<D> {
    let mut best = (points[0].coord, -1.0);
    for (p, &a) in points.iter().zip(assignments) {
        let d = p.weight * p.coord.distance(&centroids[a]);
        if d > best.1 {
            best = (p.coord, d);
        }
    }
    best.0
}

// ---- Online micro-clustering: accumulators only, no caches. ----

/// The original four-accumulator micro-cluster: centroid and radius are
/// recomputed from `count`/`sum`/`sum2` on every read, exactly as
/// [`MicroCluster`] did before it grew its caches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceMicroCluster<const D: usize> {
    /// Number of accesses summarized.
    pub count: u64,
    /// Total data weight.
    pub weight: f64,
    /// Per-dimension coordinate sums.
    pub sum: Coord<D>,
    /// Per-dimension squared-coordinate sums.
    pub sum2: [f64; D],
}

impl<const D: usize> ReferenceMicroCluster<D> {
    /// See [`MicroCluster::from_access`].
    pub fn from_access(coord: Coord<D>, weight: f64) -> Self {
        assert!(coord.is_finite(), "coordinate must be finite");
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive and finite, got {weight}"
        );
        let mut sum2 = [0.0; D];
        for (s, &x) in sum2.iter_mut().zip(coord.pos()) {
            *s = x * x;
        }
        ReferenceMicroCluster {
            count: 1,
            weight,
            sum: coord,
            sum2,
        }
    }

    /// The read-time centroid, `sum / count`.
    pub fn centroid(&self) -> Coord<D> {
        self.sum.scale(1.0 / self.count as f64)
    }

    /// The read-time RMS radius.
    pub fn radius(&self) -> f64 {
        let n = self.count as f64;
        let mut var = 0.0;
        for d in 0..D {
            let mean = self.sum.component(d) / n;
            var += (self.sum2[d] / n - mean * mean).max(0.0);
        }
        var.sqrt()
    }

    /// Distance from the (recomputed) centroid to a coordinate.
    pub fn distance_to(&self, coord: &Coord<D>) -> f64 {
        self.centroid().distance(coord)
    }

    /// See [`MicroCluster::absorb`].
    pub fn absorb(&mut self, coord: Coord<D>, weight: f64) {
        self.count += 1;
        self.weight += weight;
        self.sum = self.sum.add(&coord);
        for (s, &x) in self.sum2.iter_mut().zip(coord.pos()) {
            *s += x * x;
        }
    }

    /// See [`MicroCluster::merge`].
    pub fn merge(&mut self, other: &ReferenceMicroCluster<D>) {
        self.count += other.count;
        self.weight += other.weight;
        self.sum = self.sum.add(&other.sum);
        for (s, o) in self.sum2.iter_mut().zip(&other.sum2) {
            *s += o;
        }
    }

    /// See [`MicroCluster::decay`].
    #[must_use]
    pub fn decay(&mut self, factor: f64) -> bool {
        let decayed = (self.count as f64 * factor).round();
        if decayed < 1.0 {
            return false;
        }
        let applied = decayed / self.count as f64;
        self.count = decayed as u64;
        self.weight *= factor;
        self.sum = self.sum.scale(applied);
        for s in &mut self.sum2 {
            *s *= applied;
        }
        true
    }

    /// The same accumulator state as a cached [`MicroCluster`] (panics on
    /// accumulators violating its invariants — reference states produced by
    /// the methods above always satisfy them).
    pub fn to_micro(&self) -> MicroCluster<D> {
        MicroCluster::from_raw(self.count, self.weight, self.sum, self.sum2)
    }

    /// Accumulator-level equality against the refactored representation.
    pub fn same_accumulators(&self, other: &MicroCluster<D>) -> bool {
        self.count == other.count()
            && self.weight == other.weight()
            && self.sum == *other.sum()
            && self.sum2 == *other.sum2()
    }
}

/// The original [`crate::online::OnlineClusterer`]: same absorb/scatter
/// logic, but centroids recomputed per candidate per access and a fresh
/// O(m²) closest-pair sweep on every overflow. It tallies the same
/// [`StreamStats`], which decide nothing here.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceOnlineClusterer<const D: usize> {
    m: usize,
    clusters: Vec<ReferenceMicroCluster<D>>,
    observed: u64,
    stats: StreamStats,
}

impl<const D: usize> ReferenceOnlineClusterer<D> {
    /// See [`crate::online::OnlineClusterer::new`].
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "at least one micro-cluster is required");
        ReferenceOnlineClusterer {
            m,
            clusters: Vec::with_capacity(m),
            observed: 0,
            stats: StreamStats::default(),
        }
    }

    /// The current micro-clusters.
    pub fn clusters(&self) -> &[ReferenceMicroCluster<D>] {
        &self.clusters
    }

    /// Accesses observed since creation.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Absorb / create / merge tallies, counted as
    /// [`crate::online::OnlineClusterer::stream_stats`] defines them.
    pub fn stream_stats(&self) -> StreamStats {
        self.stats
    }

    /// The micro-clusters as weighted pseudo-points.
    pub fn pseudo_points(&self) -> Vec<WeightedPoint<D>> {
        self.clusters
            .iter()
            .map(|c| WeightedPoint::new(c.centroid(), c.weight))
            .collect()
    }

    /// Drops all micro-clusters.
    pub fn clear(&mut self) {
        self.clusters.clear();
    }

    /// Ages every micro-cluster, dropping the faded ones.
    pub fn decay(&mut self, factor: f64) {
        self.clusters.retain_mut(|c| c.decay(factor));
    }

    /// The original `absorb_cluster`: unconditional push (no validation,
    /// `observed` untouched) plus the overflow merge.
    pub fn absorb_cluster(&mut self, cluster: ReferenceMicroCluster<D>) {
        self.stats.created += 1;
        self.clusters.push(cluster);
        if self.clusters.len() > self.m {
            self.merge_closest_pair();
        }
    }

    /// The original per-access update.
    pub fn observe(&mut self, coord: Coord<D>, weight: f64) {
        if !(coord.is_finite() && weight.is_finite() && weight > 0.0) {
            return;
        }
        self.observed += 1;

        if self.clusters.is_empty() {
            self.stats.created += 1;
            self.clusters
                .push(ReferenceMicroCluster::from_access(coord, weight));
            return;
        }

        let (nearest_idx, nearest_dist) = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.distance_to(&coord)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("clusters is non-empty");

        let threshold = (RADIUS_FACTOR * self.clusters[nearest_idx].radius()).max(MIN_RADIUS);

        if nearest_dist <= threshold {
            self.stats.absorbed += 1;
            self.clusters[nearest_idx].absorb(coord, weight);
        } else {
            self.stats.created += 1;
            self.clusters
                .push(ReferenceMicroCluster::from_access(coord, weight));
            if self.clusters.len() > self.m {
                self.merge_closest_pair();
            }
        }
    }

    fn merge_closest_pair(&mut self) {
        debug_assert!(self.clusters.len() >= 2);
        self.stats.merged += 1;
        let mut best = (0usize, 1usize, f64::INFINITY);
        for i in 0..self.clusters.len() {
            let ci = self.clusters[i].centroid();
            for j in (i + 1)..self.clusters.len() {
                let d = ci.distance(&self.clusters[j].centroid());
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (i, j, _) = best;
        let absorbed = self.clusters.swap_remove(j);
        self.clusters[i].merge(&absorbed);
    }
}
