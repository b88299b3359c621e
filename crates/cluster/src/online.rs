//! The per-replica online clustering of access coordinates.
//!
//! This is the paper's Section III-B, verbatim: whenever a client accesses
//! the replica, the micro-cluster whose centroid is closest to the client's
//! coordinates is located. If the client is within the cluster's standard
//! deviation, the cluster absorbs the access; otherwise a new cluster is
//! created from the access and the two closest clusters are merged so that
//! at most `m` micro-clusters exist at any time.
//!
//! The paper leaves one case unspecified: a fresh cluster summarizes a
//! single access and therefore has standard deviation zero, which would
//! prevent it from ever absorbing anything. Following the CluStream
//! tradition the absorb threshold is therefore
//! `max(RADIUS_FACTOR × σ, MIN_RADIUS)`, with a small `MIN_RADIUS` floor
//! (5 ms — populations closer than that are indistinguishable for placement
//! purposes anyway).
//!
//! This is the hottest path in the system (one call per client access), so
//! the implementation leans on two caches with *bit-identical* behaviour to
//! the plain version preserved in [`crate::reference`]: micro-clusters keep
//! their centroid and radius precomputed (see [`MicroCluster`]), and a
//! `PairCache` keeps per-cluster nearest-forward-neighbor records so the
//! overflow merge is an amortized update instead of a fresh O(m²) sweep.
//!
//! Most overflowing accesses end with the newcomer merged straight into its
//! nearest micro-cluster, and that merge is bitwise an absorb there (a
//! single-access cluster's accumulators are the access itself, and the
//! newcomer sits last, so the swap-remove relocates nothing). `observe`
//! absorbs directly whenever the reference would pick that pair: when every
//! existing pair is farther apart than the newcomer is from its nearest
//! cluster, or exactly as far with a later first index. A lower bound on the
//! existing pairs' distances, drifted down as centroids move, usually
//! settles this without refreshing the `PairCache` at all; see
//! [`OnlineClusterer::observe`] for the rounding argument.

use georep_coord::Coord;

use crate::micro::MicroCluster;
use crate::point::WeightedPoint;

/// Multiplier on a micro-cluster's RMS deviation in the absorb test.
pub(crate) const RADIUS_FACTOR: f64 = 1.0;

/// Lower bound on the absorb threshold, in coordinate units (ms).
pub(crate) const MIN_RADIUS: f64 = 5.0;

/// Lifetime accounting of the summarizer's structural decisions: how many
/// accesses were absorbed into an existing micro-cluster, how many opened a
/// new one, and how many overflow merges ran. Plain `u64`s incremented on
/// the hot path (no recorder dispatch there); drivers flush them into a
/// `Recorder` once per period. Monotonic — neither `clear` nor `decay`
/// resets them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Accesses absorbed into an existing micro-cluster.
    pub absorbed: u64,
    /// Micro-clusters opened (first access, scatter path, or an accepted
    /// [`OnlineClusterer::absorb_cluster`]).
    pub created: u64,
    /// Closest-pair overflow merges performed.
    pub merged: u64,
}

impl StreamStats {
    /// Folds another summarizer's tallies into this one (used by drivers
    /// aggregating across replicas and across summarization periods).
    pub fn merge(&mut self, other: StreamStats) {
        self.absorbed += other.absorbed;
        self.created += other.created;
        self.merged += other.merged;
    }
}

/// Witness index meaning "no forward neighbor" (only the last row).
const NO_FORWARD: usize = usize::MAX;

/// Relative slack of the pair-distance bound (see
/// [`OnlineClusterer::observe`]): far above the rounding error of one
/// computed distance, `(D + 5)·2⁻⁵³`.
const MU: f64 = 1e-9;

/// Converts a computed distance into a bound on exact distances and back.
const SHRINK: f64 = 1.0 - MU;

/// Scales a computed centroid drift into a bound on the exact drift.
const GROW: f64 = 1.0 + MU;

/// Cap on the pair-distance bound, far below the ~1.3e154 at which a
/// squared coordinate difference overflows: a pair whose computed distance
/// overflowed to `+∞` is still at least this far apart.
const BOUND_CAP: f64 = 1e150;

/// The bound that a computed distance `d` certifies for the exact distance
/// it rounds.
fn exact_bound(d: f64) -> f64 {
    d.min(BOUND_CAP) * SHRINK
}

/// Which way an overflowing access went; tallied by the tests only.
#[derive(Debug, Clone, Copy)]
enum Overflow {
    /// Absorbed into the nearest cluster on the bound, no refresh.
    BoundSkip,
    /// Absorbed into the nearest cluster after a refresh.
    Refreshed,
    /// Pushed, then the existing closest pair merged.
    Slow,
}

/// Incremental closest-pair bookkeeping over the micro-cluster list.
///
/// `rows[i]`, when `Some((j, d))`, records cluster `i`'s nearest *forward*
/// neighbor: `j > i` minimizing `centroid(i).distance(centroid(j))`, with
/// ties broken toward the smallest `j` — so folding the rows in ascending
/// `i` with a strict `<` reproduces exactly the lexicographically-first
/// minimal pair the original O(m²) double loop selected. Rows are `None`
/// while stale; `moved[i]` flags clusters whose centroid changed since the
/// last [`PairCache::refresh`].
///
/// Invariant between refreshes: a `Some` row's witness is an unmoved
/// cluster at its current distance, and `d` is ≤ the current distance from
/// `i` to every *unmoved* forward cluster (moved ones are reconciled during
/// refresh).
#[derive(Debug, Clone)]
struct PairCache {
    rows: Vec<Option<(usize, f64)>>,
    moved: Vec<bool>,
}

impl PairCache {
    fn new(capacity: usize) -> Self {
        PairCache {
            rows: Vec::with_capacity(capacity.saturating_add(1)),
            moved: Vec::with_capacity(capacity.saturating_add(1)),
        }
    }

    /// Forgets everything; the next refresh rebuilds all `len` rows.
    fn reset(&mut self, len: usize) {
        self.rows.clear();
        self.rows.resize(len, None);
        self.moved.clear();
        self.moved.resize(len, false);
    }

    /// Appends the row for a brand-new last cluster (no forward neighbors).
    fn push_fresh(&mut self) {
        self.rows.push(Some((NO_FORWARD, f64::INFINITY)));
        self.moved.push(false);
    }

    /// Appends the row for a new last cluster given the distances from
    /// every existing cluster to it (the `observe` scan buffer, reused: the
    /// scan distance `centroid(i).distance(coord)` *is* the pair distance,
    /// because a fresh cluster's centroid is bitwise its founding
    /// coordinate). Valid rows move to the newcomer only on a strict
    /// improvement — on a tie the stored smaller-index witness keeps
    /// winning, as in the full scan.
    fn push_with_distances(&mut self, dists: &[f64]) {
        let newcomer = self.rows.len();
        debug_assert_eq!(dists.len(), newcomer);
        for (i, row) in self.rows.iter_mut().enumerate() {
            if self.moved[i] {
                continue; // stale row, rebuilt wholesale at next refresh
            }
            if let Some((_, d)) = row {
                if dists[i] < *d {
                    *row = Some((newcomer, dists[i]));
                }
            }
        }
        self.push_fresh();
    }

    /// Flags cluster `i`'s centroid as changed.
    fn mark_moved(&mut self, i: usize) {
        self.moved[i] = true;
    }

    /// Brings every row back to exactness. Cost is proportional to the
    /// number of rows invalidated since the last refresh, not m².
    fn refresh<const D: usize>(&mut self, clusters: &[MicroCluster<D>]) {
        let n = clusters.len();
        debug_assert_eq!(self.rows.len(), n);

        // 1. Rows whose own cluster or witness moved no longer describe a
        //    current distance: drop them.
        for r in 0..n {
            if self.moved[r] {
                self.rows[r] = None;
            } else if let Some((j, _)) = self.rows[r] {
                if j != NO_FORWARD && self.moved[j] {
                    self.rows[r] = None;
                }
            }
        }

        // 2. A moved cluster may have become the nearest forward neighbor
        //    of a row that is otherwise still exact. Processing moved
        //    clusters in ascending index keeps the smallest-index winner on
        //    exact ties, matching the full scan.
        for c in 0..n {
            if !self.moved[c] {
                continue;
            }
            let cc = clusters[c].centroid();
            for (r, cluster) in clusters.iter().enumerate().take(c) {
                if let Some((j, d)) = self.rows[r] {
                    let dm = cluster.centroid().distance(&cc);
                    if dm < d || (dm == d && c < j) {
                        self.rows[r] = Some((c, dm));
                    }
                }
            }
        }

        // 3. Full forward scans only for the dropped rows.
        for r in 0..n {
            if self.rows[r].is_none() {
                self.rows[r] = Some(forward_scan(clusters, r));
            }
        }
        self.moved.fill(false);
    }

    /// The closest pair `(i, j)`, `i < j`, and its distance. Requires a
    /// preceding [`PairCache::refresh`]. The ascending fold with a strict
    /// `<` over per-row minima returns the lexicographically-first minimal
    /// pair, exactly like the original double loop (including its `(0, 1)`
    /// fallback, at distance `+∞`, when no distance is finite).
    fn closest(&self) -> (usize, usize, f64) {
        let mut best = (0usize, 1usize, f64::INFINITY);
        for (i, row) in self.rows.iter().enumerate() {
            if let Some((j, d)) = *row {
                if j != NO_FORWARD && d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        best
    }

    /// Records that cluster `removed` was swap-removed after merging into
    /// `target` (which is flagged moved). `clusters` is the list *after*
    /// the removal. Must be called with the cache exact (right after
    /// [`PairCache::refresh`]), which is what lets the tie fix below assume
    /// stored distances are current minima.
    fn merged<const D: usize>(
        &mut self,
        target: usize,
        removed: usize,
        clusters: &[MicroCluster<D>],
    ) {
        let old_last = self.rows.len() - 1;
        self.rows.swap_remove(removed);
        self.moved.swap_remove(removed);
        // swap_remove relocated the former last cluster to index `removed`
        // (unless `removed` itself was last).
        let relocated = removed < old_last;

        for r in 0..self.rows.len() {
            let Some((j, d)) = self.rows[r] else { continue };
            if j == removed || j == old_last {
                // Witness vanished, or changed index; rescan at refresh.
                self.rows[r] = None;
            } else if relocated && removed > r && j != NO_FORWARD {
                // The relocated cluster kept its centroid but now carries a
                // *smaller* index than before. A row whose stored distance
                // it exactly ties must switch to it when the new index wins
                // the tie-break. (It cannot be strictly closer: the cache
                // was exact, and the relocated cluster was already a
                // forward neighbor of every row before it.)
                let dm = clusters[r]
                    .centroid()
                    .distance(&clusters[removed].centroid());
                debug_assert!(dm >= d);
                if dm == d && removed < j {
                    self.rows[r] = Some((removed, dm));
                }
            }
        }
        if relocated {
            // The relocated cluster inherited the old last row (a
            // sentinel); it now has forward neighbors, so rescan.
            self.rows[removed] = None;
        }
        if let Some(last) = self.rows.last_mut() {
            // The new last cluster has no forward neighbors left.
            *last = Some((NO_FORWARD, f64::INFINITY));
        }
        self.mark_moved(target);
    }
}

/// Cluster `r`'s nearest forward neighbor by full scan (first-minimal-wins,
/// i.e. smallest index on ties — the double-loop order).
fn forward_scan<const D: usize>(clusters: &[MicroCluster<D>], r: usize) -> (usize, f64) {
    let cr = clusters[r].centroid();
    let mut best = (NO_FORWARD, f64::INFINITY);
    for (j, c) in clusters.iter().enumerate().skip(r + 1) {
        let d = cr.distance(&c.centroid());
        if d < best.1 {
            best = (j, d);
        }
    }
    best
}

/// Streaming summarizer keeping at most `m` micro-clusters.
///
/// # Example
///
/// ```
/// use georep_cluster::OnlineClusterer;
/// use georep_coord::Coord;
///
/// let mut oc: OnlineClusterer<2> = OnlineClusterer::new(3);
/// for i in 0..50 {
///     oc.observe(Coord::new([(i % 5) as f64, 0.0]), 1.0);       // population A
///     oc.observe(Coord::new([200.0 + (i % 5) as f64, 0.0]), 1.0); // population B
/// }
/// assert!(oc.len() <= 3);
/// assert_eq!(oc.total_count(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineClusterer<const D: usize> {
    /// Maximum number of micro-clusters (`m` in the paper).
    m: usize,
    clusters: Vec<MicroCluster<D>>,
    observed: u64,
    stats: StreamStats,
    pairs: PairCache,
    /// Scratch buffer for the per-access distance scan, reused so `observe`
    /// allocates nothing in steady state.
    scan: Vec<f64>,
    /// A lower bound on the exact distance of every pair of current
    /// clusters (`+∞` while there is no pair, `−∞` or NaN when unknown).
    pair_bound: f64,
    /// Overflowing accesses per [`Overflow`] branch.
    #[cfg(test)]
    overflows: [u64; 3],
}

// The pair cache, scan buffer and stream stats are derived state; two
// summarizers are equal when their summaries are — the equality the struct
// derived before the caches existed.
impl<const D: usize> PartialEq for OnlineClusterer<D> {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && self.clusters == other.clusters && self.observed == other.observed
    }
}

impl<const D: usize> OnlineClusterer<D> {
    /// A summarizer with at most `m` micro-clusters.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "at least one micro-cluster is required");
        OnlineClusterer {
            m,
            clusters: Vec::with_capacity(m),
            observed: 0,
            stats: StreamStats::default(),
            pairs: PairCache::new(m),
            scan: Vec::with_capacity(m.saturating_add(1)),
            pair_bound: f64::INFINITY,
            #[cfg(test)]
            overflows: [0; 3],
        }
    }

    /// Current number of micro-clusters (`≤ m`).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` when no access has been observed since creation / the last
    /// [`OnlineClusterer::clear`].
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Accesses observed since creation (monotonic; not reset by `clear`).
    /// [`OnlineClusterer::absorb_cluster`] adds the accepted cluster's
    /// whole count.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Lifetime absorb / create / merge accounting (monotonic, like
    /// [`OnlineClusterer::observed`]; excluded from equality).
    pub fn stream_stats(&self) -> StreamStats {
        self.stats
    }

    /// Sum of the counts of all current micro-clusters.
    pub fn total_count(&self) -> u64 {
        self.clusters.iter().map(|c| c.count()).sum()
    }

    /// Sum of the weights of all current micro-clusters.
    pub fn total_weight(&self) -> f64 {
        self.clusters.iter().map(|c| c.weight()).sum()
    }

    /// The current micro-clusters.
    pub fn clusters(&self) -> &[MicroCluster<D>] {
        &self.clusters
    }

    /// The micro-clusters as weighted pseudo-points (centroid + weight),
    /// ready for the central weighted K-means.
    pub fn pseudo_points(&self) -> Vec<WeightedPoint<D>> {
        self.clusters
            .iter()
            .map(|c| WeightedPoint::new(c.centroid(), c.weight()))
            .collect()
    }

    /// Drops all micro-clusters, starting a fresh summarization period.
    pub fn clear(&mut self) {
        self.clusters.clear();
        self.pairs.reset(0);
        self.pair_bound = f64::INFINITY;
    }

    /// Ages every micro-cluster by `factor` (see
    /// [`MicroCluster::decay`]), dropping clusters that fade out entirely.
    /// Calling this once per period with, say, `0.5` makes the summary an
    /// exponentially-weighted window over past periods — a smoother notion
    /// of "recent accesses" than the hard [`OnlineClusterer::clear`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor ≤ 1`.
    pub fn decay(&mut self, factor: f64) {
        self.clusters.retain_mut(|c| c.decay(factor));
        // Survivors kept their centroids (decay scales numerator and
        // denominator together) but indices may have shifted; decay is a
        // rare period-boundary event, so a lazy full rebuild is fine.
        self.pairs.reset(self.clusters.len());
        self.pair_bound = f64::NEG_INFINITY;
    }

    /// Inserts a whole micro-cluster (e.g. history handed over from another
    /// replica after a migration), merging the two closest clusters if the
    /// bound would be exceeded.
    ///
    /// Clusters whose accumulators have gone non-finite (or non-positive in
    /// count or weight) are ignored, mirroring the per-sample validation in
    /// [`OnlineClusterer::observe`]; an accepted cluster's count is folded
    /// into [`OnlineClusterer::observed`], again mirroring `observe`.
    pub fn absorb_cluster(&mut self, cluster: MicroCluster<D>) {
        if !(cluster.count() > 0
            && cluster.weight().is_finite()
            && cluster.weight() > 0.0
            && cluster.centroid().is_finite()
            && cluster.radius().is_finite())
        {
            return;
        }
        self.observed += cluster.count();
        self.stats.created += 1;

        // Same cache maintenance as the scatter path of `observe`, with the
        // scan distances computed against the incoming cluster's centroid.
        let centroid = cluster.centroid();
        self.scan.clear();
        for c in &self.clusters {
            self.scan.push(c.distance_to(&centroid));
        }
        self.clusters.push(cluster);
        self.pairs.push_with_distances(&self.scan);
        self.pair_bound = f64::NEG_INFINITY;
        if self.clusters.len() > self.m {
            self.stats.merged += 1;
            self.pairs.refresh(&self.clusters);
            let (i, j, _) = self.pairs.closest();
            self.merge_pair(i, j);
        }
    }

    /// Incorporates one access: the client's coordinate and the amount of
    /// data exchanged.
    ///
    /// Non-finite coordinates or non-positive weights are ignored (a live
    /// system cannot afford to crash on one bad sample).
    ///
    /// An access that opens a cluster while `m` already exist would be
    /// pushed at index `m` and then the lexicographically first closest pair
    /// merged. With `D_N` the distance to its nearest cluster `n` (the first
    /// at that distance) and `(a, b)` the existing clusters' first closest
    /// pair at distance `P`, that pair is `(n, newcomer)` iff `P > D_N`, or
    /// `P == D_N` and `a > n`; the merge is then bitwise
    /// `clusters[n].absorb(coord, weight)`, which is what runs.
    ///
    /// `pair_bound` often decides `P > D_N` without a refresh. It bounds the
    /// *exact* distance `d(i, j) = ‖c_i − c_j‖ + h_i + h_j` of every pair of
    /// current centroids from below:
    ///
    /// - Every term of a computed distance is non-negative (heights are, as
    ///   [`Coord::with_height`] requires), so it is within a relative
    ///   `γ ≤ (D + 5)·2⁻⁵³` of the exact one (far below `µ = 1e-9`):
    ///   a computed `P` or `D_N` certifies `min(·, BOUND_CAP)·(1 − µ)`.
    ///   It is set from `P` after a refresh and lowered to `D_N`'s on a
    ///   create below `m`.
    /// - `d` obeys the triangle inequality, so a centroid move by
    ///   `δ = ‖u − u′‖ + |h_u − h_u′|` lowers it by at most `δ`. An absorb
    ///   subtracts the computed `δ·(1 + µ)` and steps one float down, so
    ///   the subtraction's own rounding cannot lift it.
    /// - If `bound·(1 − µ) > D_N`, every computed existing pair distance
    ///   exceeds `D_N`. Equality always takes the exact path, and a slow
    ///   merge, `decay` or `absorb_cluster` forgets the bound (`−∞`).
    pub fn observe(&mut self, coord: Coord<D>, weight: f64) {
        if !(coord.is_finite() && weight.is_finite() && weight > 0.0) {
            return;
        }
        self.observed += 1;

        if self.clusters.is_empty() {
            self.stats.created += 1;
            self.clusters.push(MicroCluster::from_access(coord, weight));
            self.pairs.push_fresh();
            return;
        }

        // i* = argmin_i ‖sum_i/count_i − u‖. First-minimal-wins strict `<`
        // is exactly `min_by(total_cmp)` over these distances (never NaN
        // for finite inputs). The distances are kept: if the access opens a
        // new cluster they double as its pair-cache distances.
        self.scan.clear();
        let mut nearest_idx = 0usize;
        let mut nearest_dist = f64::INFINITY;
        for (i, c) in self.clusters.iter().enumerate() {
            let d = c.distance_to(&coord);
            self.scan.push(d);
            if d < nearest_dist {
                nearest_idx = i;
                nearest_dist = d;
            }
        }

        let threshold = (RADIUS_FACTOR * self.clusters[nearest_idx].radius()).max(MIN_RADIUS);

        if nearest_dist <= threshold {
            self.stats.absorbed += 1;
            self.absorb_into(nearest_idx, coord, weight);
            return;
        }
        self.stats.created += 1;
        if self.clusters.len() < self.m {
            self.clusters.push(MicroCluster::from_access(coord, weight));
            self.pairs.push_with_distances(&self.scan);
            // Every new pair is at least `nearest_dist` apart. (`<` keeps a
            // NaN bound unknown.)
            let bound = exact_bound(nearest_dist);
            if bound < self.pair_bound {
                self.pair_bound = bound;
            }
            return;
        }

        self.stats.merged += 1;
        if self.pair_bound * SHRINK > nearest_dist {
            self.note(Overflow::BoundSkip);
            self.absorb_into(nearest_idx, coord, weight);
            return;
        }
        self.pairs.refresh(&self.clusters);
        let (a, b, closest) = self.pairs.closest();
        if closest > nearest_dist || (closest == nearest_dist && a > nearest_idx) {
            self.note(Overflow::Refreshed);
            self.pair_bound = exact_bound(closest);
            self.absorb_into(nearest_idx, coord, weight);
        } else {
            // The cache is exact and the newcomer's row changes no winner,
            // so `(a, b)` is still the closest pair after the push.
            self.note(Overflow::Slow);
            self.clusters.push(MicroCluster::from_access(coord, weight));
            self.pairs.push_with_distances(&self.scan);
            self.merge_pair(a, b);
        }
    }

    /// Absorbs one access into cluster `i`, lowering the pair bound by the
    /// centroid's drift.
    fn absorb_into(&mut self, i: usize, coord: Coord<D>, weight: f64) {
        let before = self.clusters[i].centroid();
        self.clusters[i].absorb(coord, weight);
        self.pairs.mark_moved(i);
        // An infinite bound means no pair (it stays so); an unknown one
        // stays unknown.
        if self.pair_bound.is_finite() {
            let after = self.clusters[i].centroid();
            let drift = before.euclidean(&after) + (before.height() - after.height()).abs();
            self.pair_bound = (self.pair_bound - drift * GROW).next_down();
        }
    }

    /// Merges cluster `j` into cluster `i` (`i < j`), which must be a pair
    /// of an exact cache: swap-remove `j`, fold it into `i` (the original
    /// arithmetic).
    fn merge_pair(&mut self, i: usize, j: usize) {
        let absorbed = self.clusters.swap_remove(j);
        self.clusters[i].merge(&absorbed);
        self.pairs.merged(i, j, &self.clusters);
        self.pair_bound = f64::NEG_INFINITY;
    }

    /// Tallies an overflow branch (a no-op outside tests).
    fn note(&mut self, _branch: Overflow) {
        #[cfg(test)]
        {
            self.overflows[_branch as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ReferenceMicroCluster, ReferenceOnlineClusterer};
    use proptest::prelude::*;

    #[test]
    fn never_exceeds_max_clusters() {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(4);
        for i in 0..200 {
            // Scatter far apart so absorption is rare.
            oc.observe(
                Coord::new([(i * 97 % 1000) as f64, (i * 31 % 1000) as f64]),
                1.0,
            );
            assert!(oc.len() <= 4, "len {} after {} accesses", oc.len(), i + 1);
        }
        assert_eq!(oc.total_count(), 200);
    }

    #[test]
    fn nearby_accesses_are_absorbed() {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(8);
        for i in 0..100 {
            oc.observe(Coord::new([(i % 3) as f64, 0.0]), 1.0); // spread 2 < min_radius 5
        }
        assert_eq!(oc.len(), 1);
        assert_eq!(oc.clusters()[0].count(), 100);
    }

    #[test]
    fn two_populations_stay_separate() {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(4);
        for i in 0..100 {
            oc.observe(Coord::new([(i % 4) as f64, 0.0]), 1.0);
            oc.observe(Coord::new([500.0 + (i % 4) as f64, 0.0]), 2.0);
        }
        // All clusters sit near one of the two populations — none bridges
        // the gap.
        for c in oc.clusters() {
            let x = c.centroid().component(0);
            assert!(!(50.0..=450.0).contains(&x), "bridging centroid at x = {x}");
        }
        assert_eq!(oc.total_count(), 200);
        assert!((oc.total_weight() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn pseudo_points_carry_weights() {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(4);
        oc.observe(Coord::new([0.0, 0.0]), 5.0);
        oc.observe(Coord::new([1.0, 0.0]), 3.0);
        let pts = oc.pseudo_points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].weight, 8.0);
        assert_eq!(pts[0].coord.component(0), 0.5);
    }

    #[test]
    fn ignores_bad_samples() {
        let mut oc: OnlineClusterer<2> = OnlineClusterer::new(2);
        oc.observe(Coord::new([f64::NAN, 0.0]), 1.0);
        oc.observe(Coord::new([0.0, 0.0]), 0.0);
        oc.observe(Coord::new([0.0, 0.0]), -1.0);
        assert!(oc.is_empty());
        assert_eq!(oc.observed(), 0);
    }

    #[test]
    fn clear_starts_fresh_but_keeps_observed() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(2);
        oc.observe(Coord::new([1.0]), 1.0);
        oc.observe(Coord::new([100.0]), 1.0);
        assert_eq!(oc.len(), 2);
        oc.clear();
        assert!(oc.is_empty());
        assert_eq!(oc.observed(), 2);
        oc.observe(Coord::new([5.0]), 1.0);
        assert_eq!(oc.len(), 1);
    }

    #[test]
    fn m_equals_one_merges_everything() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(1);
        for x in [0.0, 1000.0, -500.0, 42.0] {
            oc.observe(Coord::new([x]), 1.0);
        }
        assert_eq!(oc.len(), 1);
        assert_eq!(oc.total_count(), 4);
    }

    #[test]
    fn radius_grows_then_absorbs_wider() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(4);
        // Feed a population spread over ±4, widening outward from 0 (every
        // point stays within the MIN_RADIUS floor of the single cluster's
        // centroid): one cluster absorbs everything and its radius converges
        // to the true spread (σ of Uniform{-4..4} ≈ 2.58).
        for _ in 0..12 {
            for i in 0..9 {
                let x = if i % 2 == 0 {
                    (i / 2) as f64
                } else {
                    -((i / 2 + 1) as f64)
                };
                oc.observe(Coord::new([x]), 1.0);
            }
        }
        assert_eq!(oc.len(), 1);
        assert_eq!(oc.total_count(), 12 * 9);
        let r = oc.clusters()[0].radius();
        assert!((r - 2.58).abs() < 0.5, "radius {r}");
    }

    #[test]
    #[should_panic(expected = "at least one micro-cluster")]
    fn zero_m_rejected() {
        let _ = OnlineClusterer::<2>::new(0);
    }

    #[test]
    fn stream_stats_count_absorbs_creates_and_merges() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(2);
        assert_eq!(oc.stream_stats(), StreamStats::default());
        oc.observe(Coord::new([0.0]), 1.0); // creates cluster 1
        oc.observe(Coord::new([1.0]), 1.0); // absorbed (within min_radius 5)
        oc.observe(Coord::new([500.0]), 1.0); // creates cluster 2
        oc.observe(Coord::new([900.0]), 1.0); // creates cluster 3 → overflow merge
        let s = oc.stream_stats();
        assert_eq!(s.created, 3);
        assert_eq!(s.absorbed, 1);
        assert_eq!(s.merged, 1);
        assert_eq!(s.created + s.absorbed, oc.observed());

        // Bad samples and rejected clusters do not count.
        oc.observe(Coord::new([f64::NAN]), 1.0);
        assert_eq!(oc.stream_stats(), s);

        // Stats are excluded from equality and survive clear.
        let fresh: OnlineClusterer<1> = OnlineClusterer::new(2);
        oc.clear();
        assert_eq!(oc.stream_stats(), s, "clear keeps lifetime stats");
        assert_ne!(oc.stream_stats(), fresh.stream_stats());
    }

    #[test]
    fn stream_stats_count_absorbed_clusters_as_created() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(4);
        oc.absorb_cluster(MicroCluster::from_access(Coord::new([7.0]), 1.0));
        assert_eq!(oc.stream_stats().created, 1);
        // A rejected (non-finite) cluster leaves the stats untouched.
        let mut bad = MicroCluster::from_access(Coord::new([f64::MAX / 2.0]), 1.0);
        bad.absorb(Coord::new([f64::MAX / 2.0]), 1.0);
        bad.absorb(Coord::new([f64::MAX / 2.0]), 1.0);
        oc.absorb_cluster(bad);
        assert_eq!(oc.stream_stats().created, 1);
    }

    #[test]
    fn absorb_cluster_counts_and_merges() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(2);
        oc.observe(Coord::new([0.0]), 1.0);
        oc.observe(Coord::new([100.0]), 1.0);
        assert_eq!(oc.observed(), 2);
        let mut incoming = MicroCluster::from_access(Coord::new([500.0]), 2.0);
        incoming.absorb(Coord::new([502.0]), 1.0);
        oc.absorb_cluster(incoming);
        assert_eq!(oc.len(), 2, "overflow merged down to the bound");
        assert_eq!(oc.observed(), 4, "the cluster's two accesses count");
        assert_eq!(oc.total_count(), 4);
    }

    #[test]
    fn absorb_cluster_rejects_nonfinite() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(2);
        // Drive the accumulators to infinity legitimately: from_raw asserts
        // finiteness, but repeated absorbs can overflow the coordinate sum.
        let mut bad = MicroCluster::from_access(Coord::new([f64::MAX / 2.0]), 1.0);
        bad.absorb(Coord::new([f64::MAX / 2.0]), 1.0);
        bad.absorb(Coord::new([f64::MAX / 2.0]), 1.0);
        assert!(!bad.centroid().is_finite());
        oc.absorb_cluster(bad);
        assert!(oc.is_empty(), "non-finite cluster ignored");
        assert_eq!(oc.observed(), 0, "rejected clusters do not count");
    }

    #[test]
    fn decay_fades_old_populations() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(4);
        // An old population at x = 0 with 100 accesses...
        for _ in 0..100 {
            oc.observe(Coord::new([0.0]), 1.0);
        }
        // ...aged across four periods...
        for _ in 0..4 {
            oc.decay(0.3);
        }
        // ...is outweighed by a fresh population at x = 500.
        for _ in 0..20 {
            oc.observe(Coord::new([500.0]), 1.0);
        }
        let pts = oc.pseudo_points();
        let fresh_weight: f64 = pts
            .iter()
            .filter(|p| p.coord.component(0) > 400.0)
            .map(|p| p.weight)
            .sum();
        let stale_weight: f64 = pts
            .iter()
            .filter(|p| p.coord.component(0) < 100.0)
            .map(|p| p.weight)
            .sum();
        assert!(
            fresh_weight > stale_weight * 10.0,
            "fresh {fresh_weight} vs stale {stale_weight}"
        );
    }

    #[test]
    fn decay_drops_faded_clusters_entirely() {
        let mut oc: OnlineClusterer<1> = OnlineClusterer::new(4);
        oc.observe(Coord::new([0.0]), 1.0);
        oc.observe(Coord::new([500.0]), 1.0);
        assert_eq!(oc.len(), 2);
        oc.decay(0.3);
        assert_eq!(
            oc.len(),
            0,
            "single-access clusters fade after one strong decay"
        );
    }

    /// One step of a differential stream.
    #[derive(Debug, Clone, Copy)]
    enum Step<const D: usize> {
        Observe(Coord<D>, f64),
        AbsorbCluster(ReferenceMicroCluster<D>),
        Decay(f64),
        Clear,
    }

    /// Runs `steps` through the summarizer and the reference side by side,
    /// checking after every step that the accumulators, `observed` and the
    /// stream stats agree. Returns the overflow tally (bound skips,
    /// refreshed shortcuts, slow merges).
    fn run_against_reference<const D: usize>(m: usize, steps: &[Step<D>]) -> [u64; 3] {
        let mut fast: OnlineClusterer<D> = OnlineClusterer::new(m);
        let mut slow: ReferenceOnlineClusterer<D> = ReferenceOnlineClusterer::new(m);
        // The reference leaves a handed-over cluster's count out of `observed`.
        let mut handed_over = 0;
        for (t, &step) in steps.iter().enumerate() {
            match step {
                Step::Observe(coord, weight) => {
                    fast.observe(coord, weight);
                    slow.observe(coord, weight);
                }
                Step::AbsorbCluster(cluster) => {
                    handed_over += cluster.count;
                    fast.absorb_cluster(cluster.to_micro());
                    slow.absorb_cluster(cluster);
                }
                Step::Decay(factor) => {
                    fast.decay(factor);
                    slow.decay(factor);
                }
                Step::Clear => {
                    fast.clear();
                    slow.clear();
                }
            }
            assert_eq!(fast.len(), slow.clusters().len(), "step {t}: {step:?}");
            for (f, r) in fast.clusters().iter().zip(slow.clusters()) {
                assert!(r.same_accumulators(f), "step {t}: {f:?} vs {r:?}");
            }
            assert_eq!(fast.observed(), slow.observed() + handed_over, "step {t}");
            assert_eq!(fast.stream_stats(), slow.stream_stats(), "step {t}");
        }
        fast.overflows
    }

    fn at(x: f64, h: f64) -> Step<1> {
        Step::Observe(Coord::new([x]).with_height(h), 1.0)
    }

    // In the tie cases every distance is an exact integer: `|Δx| + h + h′`.

    #[test]
    fn a_tie_with_a_later_existing_pair_merges_the_newcomer() {
        // Existing pairs (0,1) 101, (0,2) 109, (1,2) 8; the newcomer is 8
        // from cluster 0, and (0, newcomer) precedes (1, 2).
        let steps = [at(0.0, 1.0), at(100.0, 0.0), at(107.0, 1.0), at(-7.0, 0.0)];
        assert_eq!(run_against_reference(3, &steps), [0, 1, 0]);
    }

    #[test]
    fn a_tie_with_an_earlier_existing_pair_merges_that_pair() {
        // (0,1) is 8 apart and precedes (2, newcomer), also 8.
        let steps = [at(0.0, 1.0), at(7.0, 0.0), at(300.0, 2.0), at(306.0, 0.0)];
        assert_eq!(run_against_reference(3, &steps), [0, 0, 1]);
    }

    #[test]
    fn a_tie_on_the_nearest_clusters_own_pair_merges_that_pair() {
        // (0,1) and (0, newcomer) are both 8: the existing pair precedes.
        let steps = [at(0.0, 1.0), at(7.0, 0.0), at(300.0, 2.0), at(-7.0, 0.0)];
        assert_eq!(run_against_reference(3, &steps), [0, 0, 1]);
    }

    #[test]
    fn an_equidistant_newcomer_joins_the_first_nearest_cluster() {
        // 10 from both clusters 0 and 1, which are 20 apart.
        let steps = [at(0.0, 0.0), at(20.0, 0.0), at(200.0, 0.0), at(10.0, 0.0)];
        assert_eq!(run_against_reference(3, &steps), [1, 0, 0]);
    }

    #[test]
    fn a_slow_merge_forgets_the_bound() {
        let at2 = |x: f64, y: f64| Step::Observe(Coord::new([x, y]), 1.0);
        // (0,1) merges into (0, 0), which is then 11 from (0, 11): closer
        // than any pair before the merge. The last access is 11.5 from
        // the merged cluster, so the new closest pair must win.
        let steps = [
            at2(-6.0, 0.0),
            at2(6.0, 0.0),
            at2(0.0, 11.0),
            at2(100.0, 0.0),
            at2(-11.5, 0.0),
        ];
        assert_eq!(run_against_reference(3, &steps), [0, 0, 2]);
    }

    #[test]
    fn a_far_pair_bound_skips_the_refresh() {
        let steps = [at(0.0, 0.0), at(1000.0, 0.0), at(10.0, 0.0), at(990.0, 1.0)];
        assert_eq!(run_against_reference(2, &steps), [2, 0, 0]);
    }

    #[test]
    fn one_cluster_absorbs_every_newcomer_on_the_bound() {
        let steps: Vec<Step<1>> = (0..40)
            .map(|i| at(((i * 37) % 23) as f64 * 9.0, (i % 3) as f64))
            .collect();
        let [skips, refreshed, slow] = run_against_reference(1, &steps);
        assert_eq!((refreshed, slow), (0, 0));
        assert!(skips > 0);
    }

    /// A deterministic stream on an integer grid with integer heights and
    /// weights, dense enough in ties; every 50th step hands over a cluster,
    /// decays or clears.
    fn grid_stream(len: usize, seed: u64) -> Vec<Step<2>> {
        let mut state = seed | 1;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        (0..len)
            .map(|t| {
                let x = next(25) as f64 * 4.0;
                let y = next(25) as f64 * 4.0;
                let coord = Coord::new([x, y]).with_height(next(3) as f64);
                match (t % 50, next(3)) {
                    (49, 0) => {
                        let mut mc = ReferenceMicroCluster::from_access(coord, 2.0);
                        mc.absorb(Coord::new([x + 3.0, y]), 1.0);
                        Step::AbsorbCluster(mc)
                    }
                    (49, 1) => Step::Decay(0.5),
                    (49, _) => Step::Clear,
                    _ => Step::Observe(coord, 1.0 + next(4) as f64),
                }
            })
            .collect()
    }

    #[test]
    fn every_overflow_branch_fires_and_matches_the_reference() {
        for m in [2, 3, 5, 8] {
            let [skips, refreshed, slow] = run_against_reference(m, &grid_stream(3_000, m as u64));
            assert!(
                skips > 0 && refreshed > 0 && slow > 0,
                "m {m}: {skips} bound skips, {refreshed} refreshed, {slow} slow"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_counts_are_conserved(
            xs in prop::collection::vec((-1e4..1e4f64, -1e4..1e4f64), 1..300),
            m in 1usize..12,
        ) {
            let mut oc: OnlineClusterer<2> = OnlineClusterer::new(m);
            for &(x, y) in &xs {
                oc.observe(Coord::new([x, y]), 1.0);
            }
            prop_assert_eq!(oc.total_count(), xs.len() as u64);
            prop_assert!((oc.total_weight() - xs.len() as f64).abs() < 1e-6);
            prop_assert!(oc.len() <= m);
            prop_assert!(!oc.is_empty());
        }

        #[test]
        fn prop_grid_streams_match_the_reference(
            steps in prop::collection::vec((0u8..40, 0u8..12, 0u8..12, 0u8..3, 1u8..4), 1..250),
            m in 1usize..7,
        ) {
            let steps: Vec<Step<2>> = steps
                .iter()
                .map(|&(kind, x, y, h, w)| {
                    let coord = Coord::new([f64::from(x) * 3.0, f64::from(y) * 3.0])
                        .with_height(f64::from(h));
                    match kind {
                        0 => Step::AbsorbCluster(ReferenceMicroCluster::from_access(
                            coord,
                            f64::from(w),
                        )),
                        1 => Step::Decay(0.5),
                        2 => Step::Clear,
                        _ => Step::Observe(coord, f64::from(w)),
                    }
                })
                .collect();
            run_against_reference(m, &steps);
        }

        #[test]
        fn prop_centroid_inside_bounding_box(
            xs in prop::collection::vec(-1e3..1e3f64, 1..100),
        ) {
            let mut oc: OnlineClusterer<1> = OnlineClusterer::new(3);
            for &x in &xs {
                oc.observe(Coord::new([x]), 1.0);
            }
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for c in oc.clusters() {
                let x = c.centroid().component(0);
                prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9);
            }
        }
    }
}
