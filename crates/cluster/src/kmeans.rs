//! Lloyd's K-means with k-means++ seeding.
//!
//! Used in two roles in the reproduction: directly over raw client
//! coordinates for the paper's *offline k-means clustering* baseline, and —
//! through [`crate::weighted`] — over micro-cluster pseudo-points for the
//! paper's own online technique.
//!
//! The implementation is the fast half of the streaming layer: the
//! assignment step keeps Hamerly-style per-point upper/lower bounds so most
//! points skip the full centroid scan, and centroids live in a flat
//! structure-of-arrays buffer reused across iterations. All of it is a
//! *bit-for-bit* equivalence with the plain full-scan implementation
//! (preserved in [`crate::reference`]): identical assignments, SSE,
//! iteration counts and winning restart. See DESIGN.md ("The streaming
//! layer") for the exactness argument.
//!
//! The `restarts` independent runs execute one after the other on the
//! caller's thread, through the one driver every solver in this crate
//! shares. Nothing in this crate spawns a thread: the online technique
//! clusters only `k·m` pseudo-points, a solve that costs less than the
//! spawn would, and its callers (a fleet round, an experiment's seed
//! workers) already run many solves side by side.

use std::error::Error;
use std::fmt;

use georep_coord::Coord;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::point::WeightedPoint;

/// Error produced by the clustering entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No input points were supplied.
    NoPoints,
    /// `k` was zero.
    ZeroK,
    /// `k` exceeded the number of input points.
    KTooLarge {
        /// Requested number of clusters.
        k: usize,
        /// Number of points available.
        points: usize,
    },
    /// A configuration field was out of its valid range (e.g. a zero
    /// `max_iters` or `restarts` written directly into the struct, which
    /// previously made the solver silently loop zero times).
    InvalidConfig(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoPoints => write!(f, "cannot cluster an empty point set"),
            ClusterError::ZeroK => write!(f, "k must be at least 1"),
            ClusterError::KTooLarge { k, points } => {
                write!(f, "k = {k} exceeds the number of points ({points})")
            }
            ClusterError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl Error for ClusterError {}

/// Convergence threshold on total centroid movement per Lloyd iteration,
/// in coordinate units (milliseconds).
pub(crate) const TOLERANCE: f64 = 1e-3;

/// Parameters of a K-means run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Seed for the k-means++ initialization.
    pub seed: u64,
    /// Number of independent restarts; the run with the lowest SSE wins.
    /// Lloyd's algorithm is a local search, and a handful of restarts is
    /// the standard defence against bad initializations.
    pub restarts: usize,
}

impl KMeansConfig {
    /// Default-tuned configuration for `k` clusters. `max_iters` and
    /// `restarts` are routed through the clamping builders, so they can
    /// never start below 1.
    pub fn new(k: usize) -> Self {
        KMeansConfig {
            k,
            max_iters: 1,
            seed: 0x5EED,
            restarts: 1,
        }
        .with_max_iters(100)
        .with_restarts(4)
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different restart count (minimum 1).
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Returns a copy with a different iteration cap (minimum 1).
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters.max(1);
        self
    }
}

/// Result of a K-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering<const D: usize> {
    /// The `k` cluster centroids.
    pub centroids: Vec<Coord<D>>,
    /// For each input point, the index of its centroid.
    pub assignments: Vec<usize>,
    /// Weighted sum of squared distances from points to their centroids.
    pub sse: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
    /// Whether the run converged before `max_iters`.
    pub converged: bool,
}

/// Solver-effort counters aggregated across every restart of a run.
///
/// A side channel next to [`Clustering`] — the clustering itself is
/// compared bit-for-bit by the equivalence suites and must not grow
/// fields. All counters are plain `u64` sums over the restarts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KMeansStats {
    /// Restarts executed (`cfg.restarts`).
    pub restarts: u64,
    /// Lloyd iterations summed over all restarts.
    pub iterations: u64,
    /// Per-point assignment decisions resolved by the Hamerly upper-bound
    /// check alone (no distance computed).
    pub pruned_upper: u64,
    /// Decisions resolved after tightening the upper bound with one exact
    /// distance (one distance computed instead of `k`).
    pub pruned_tightened: u64,
    /// Decisions that fell through to the full `k`-way centroid scan.
    pub full_scans: u64,
    /// Index of the winning restart (lowest SSE, ties to the lowest index).
    pub winner_restart: u64,
}

impl KMeansStats {
    /// Total per-point assignment decisions: every iteration of every
    /// restart touches every point exactly once, so this always equals
    /// `iterations × n`.
    pub fn point_updates(&self) -> u64 {
        self.pruned_upper + self.pruned_tightened + self.full_scans
    }

    /// Fraction of assignment decisions the Hamerly bounds resolved without
    /// a full scan, in `[0, 1]`. Returns 0 when nothing ran.
    pub fn prune_rate(&self) -> f64 {
        let total = self.point_updates();
        if total == 0 {
            return 0.0;
        }
        (self.pruned_upper + self.pruned_tightened) as f64 / total as f64
    }
}

/// Clusters unweighted coordinates into `cfg.k` groups.
///
/// This is the paper's offline baseline: it requires *every* client
/// coordinate to be present in memory, which is exactly the scalability
/// problem the online technique avoids.
///
/// # Errors
///
/// See [`ClusterError`].
///
/// # Example
///
/// ```
/// use georep_cluster::kmeans::{kmeans, KMeansConfig};
/// use georep_coord::Coord;
///
/// let pts: Vec<Coord<2>> = (0..20)
///     .map(|i| {
///         let off = if i < 10 { 0.0 } else { 100.0 };
///         Coord::new([off + (i % 10) as f64, off])
///     })
///     .collect();
/// let c = kmeans(&pts, KMeansConfig::new(2))?;
/// assert_eq!(c.centroids.len(), 2);
/// assert!(c.converged);
/// # Ok::<(), georep_cluster::kmeans::ClusterError>(())
/// ```
pub fn kmeans<const D: usize>(
    points: &[Coord<D>],
    cfg: KMeansConfig,
) -> Result<Clustering<D>, ClusterError> {
    let weighted: Vec<WeightedPoint<D>> = points.iter().map(|&c| WeightedPoint::unit(c)).collect();
    crate::weighted::weighted_kmeans(&weighted, cfg)
}

/// [`kmeans`] plus the solver-effort counters ([`KMeansStats`]).
///
/// The clustering is bit-for-bit the one [`kmeans`] returns; the stats are
/// a pure side channel (integer counters only, no extra float or RNG work
/// on the solver path).
///
/// # Errors
///
/// See [`ClusterError`].
pub fn kmeans_with_stats<const D: usize>(
    points: &[Coord<D>],
    cfg: KMeansConfig,
) -> Result<(Clustering<D>, KMeansStats), ClusterError> {
    let weighted: Vec<WeightedPoint<D>> = points.iter().map(|&c| WeightedPoint::unit(c)).collect();
    lloyd(&weighted, cfg)
}

/// Rejects inputs the solvers cannot run on, once, before the first
/// restart. The config checks exist because a zero `max_iters` or
/// `restarts` written directly into the struct would otherwise make the
/// solver silently loop zero times.
fn validate(points: usize, cfg: &KMeansConfig) -> Result<(), ClusterError> {
    if points == 0 {
        return Err(ClusterError::NoPoints);
    }
    if cfg.k == 0 {
        return Err(ClusterError::ZeroK);
    }
    if cfg.k > points {
        return Err(ClusterError::KTooLarge { k: cfg.k, points });
    }
    if cfg.max_iters == 0 {
        return Err(ClusterError::InvalidConfig("max_iters must be at least 1"));
    }
    if cfg.restarts == 0 {
        return Err(ClusterError::InvalidConfig("restarts must be at least 1"));
    }
    Ok(())
}

/// Shared Lloyd implementation over weighted points (used by every k-means
/// entry point; see [`crate::weighted::weighted_kmeans`] for the public
/// API): `cfg.restarts` independent restarts, one after the other on the
/// caller's thread, and the winner.
///
/// Restart `r` always runs with seed `cfg.seed + r`, and the winner is the
/// lowest SSE with ties broken by the lowest restart index (a strict `<`
/// while walking the restarts in index order). The counters are summed
/// over *all* restarts, not just the winner. This layer never spawns: a
/// caller that runs many solves side by side owns the fan-out (DESIGN.md
/// §8, "Restarts").
pub(crate) fn lloyd<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> Result<(Clustering<D>, KMeansStats), ClusterError> {
    validate(points.len(), &cfg)?;
    let mut stats = KMeansStats {
        restarts: cfg.restarts as u64,
        ..KMeansStats::default()
    };
    let mut best: Option<Clustering<D>> = None;
    for r in 0..cfg.restarts {
        let (run, counters) = lloyd_once(
            points,
            KMeansConfig {
                seed: cfg.seed.wrapping_add(r as u64),
                restarts: 1,
                ..cfg
            },
        );
        stats.iterations += run.iterations as u64;
        stats.pruned_upper += counters.pruned_upper;
        stats.pruned_tightened += counters.pruned_tightened;
        stats.full_scans += counters.full_scans;
        if best.as_ref().is_none_or(|b| run.sse < b.sse) {
            stats.winner_restart = r as u64;
            best = Some(run);
        }
    }
    Ok((best.expect("restarts ≥ 1"), stats))
}

// ---- The bounds-pruned Lloyd core. ----
//
// Hamerly's observation: if a point's (conservative) upper bound on the
// distance to its assigned centroid is strictly below a (conservative)
// lower bound on the distance to every *other* centroid, the assignment
// cannot change and the k-way scan can be skipped. The bounds are
// maintained across iterations from per-centroid movement. Because the
// reproduction demands *bit-identical* results — not merely the same
// clustering — the bounds carry explicit floating-point safety margins
// (`GUARD_OPS × ε`, absolute, see below), and a prune only happens when the
// full scan provably returns the currently assigned index. Everything the
// naive code computes (weighted sums, movement, SSE, empty-cluster
// repairs) is replicated operation-for-operation in the same order.

/// Safety-margin scale: distances cost `O(D)` rounded operations and the
/// bound recurrences a handful more, each contributing at most one ε of
/// relative error; `4·D + 32` over-covers the worst chain by a wide factor.
fn fp_guard(d: usize) -> f64 {
    (4 * d + 32) as f64 * f64::EPSILON
}

/// Flat structure-of-arrays centroid store, written in place each update
/// step instead of reallocating `Vec<Coord>` per iteration.
struct CentroidStore<const D: usize> {
    pos: Vec<f64>, // k × D, row-major
    height: Vec<f64>,
}

impl<const D: usize> CentroidStore<D> {
    fn new(centroids: &[Coord<D>]) -> Self {
        let mut store = CentroidStore {
            pos: Vec::with_capacity(centroids.len() * D),
            height: Vec::with_capacity(centroids.len()),
        };
        for c in centroids {
            store.pos.extend_from_slice(c.pos());
            store.height.push(c.height());
        }
        store
    }

    fn k(&self) -> usize {
        self.height.len()
    }

    /// `centroids[j].distance(&p)` — the assignment-scan orientation.
    /// Height addition is not associative, so both orientations exist.
    fn dist_centroid_point(&self, j: usize, p: &Coord<D>) -> f64 {
        let row = &self.pos[j * D..(j + 1) * D];
        let pp = p.pos();
        let mut s = 0.0;
        for i in 0..D {
            let d = row[i] - pp[i];
            s += d * d;
        }
        (s.sqrt() + self.height[j]) + p.height()
    }

    /// `p.distance(&centroids[j])` — the empty-cluster-repair orientation.
    fn dist_point_centroid(&self, p: &Coord<D>, j: usize) -> f64 {
        let row = &self.pos[j * D..(j + 1) * D];
        let pp = p.pos();
        let mut s = 0.0;
        for i in 0..D {
            let d = pp[i] - row[i];
            s += d * d;
        }
        (s.sqrt() + p.height()) + self.height[j]
    }

    /// First-wins strict-minimum scan, exactly the naive `nearest`.
    fn nearest(&self, p: &Coord<D>) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for j in 0..self.k() {
            let d = self.dist_centroid_point(j, p);
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    }

    /// Nearest centroid plus the distance to the closest *other* centroid
    /// (the lower bound seed). The `d < d1` branch keeps the first minimal
    /// index, matching [`CentroidStore::nearest`].
    fn nearest_two(&self, p: &Coord<D>) -> (usize, f64, f64) {
        let mut a = 0usize;
        let mut d1 = f64::INFINITY;
        let mut d2 = f64::INFINITY;
        for j in 0..self.k() {
            let d = self.dist_centroid_point(j, p);
            if d < d1 {
                d2 = d1;
                d1 = d;
                a = j;
            } else if d < d2 {
                d2 = d;
            }
        }
        (a, d1, d2)
    }

    /// Overwrites centroid `c`, returning the Euclidean move (the exact
    /// `old.euclidean(&new)` the naive code adds to `movement`) and the
    /// absolute height change (which the distance bounds also need).
    fn replace(&mut self, c: usize, new: &Coord<D>) -> (f64, f64) {
        let row = &mut self.pos[c * D..(c + 1) * D];
        let np = new.pos();
        let mut s = 0.0;
        for i in 0..D {
            let d = row[i] - np[i];
            s += d * d;
            row[i] = np[i];
        }
        let euclid = s.sqrt();
        let dh = (self.height[c] - new.height()).abs();
        self.height[c] = new.height();
        (euclid, dh)
    }

    fn get(&self, j: usize) -> Coord<D> {
        let mut pos = [0.0; D];
        pos.copy_from_slice(&self.pos[j * D..(j + 1) * D]);
        Coord::new(pos).with_height(self.height[j])
    }

    fn to_coords(&self) -> Vec<Coord<D>> {
        (0..self.k()).map(|j| self.get(j)).collect()
    }
}

/// Largest element (first index on ties) and second-largest element of the
/// per-centroid movement bounds.
fn top_two(delta: &[f64]) -> (f64, usize, f64) {
    let mut am = 0usize;
    let mut m1 = f64::NEG_INFINITY;
    let mut m2 = f64::NEG_INFINITY;
    for (j, &d) in delta.iter().enumerate() {
        if d > m1 {
            m2 = m1;
            m1 = d;
            am = j;
        } else if d > m2 {
            m2 = d;
        }
    }
    (m1, am, m2)
}

/// Per-restart tallies of how each point's assignment was decided. The
/// three fields partition the per-point decisions, so their sum is always
/// `iterations × n` for the restart.
#[derive(Debug, Clone, Copy, Default)]
struct LloydCounters {
    pruned_upper: u64,
    pruned_tightened: u64,
    full_scans: u64,
}

/// One seeded Lloyd run plus its prune/scan tallies. Input is
/// pre-validated by [`lloyd`]. The counters are integer increments
/// on paths the solver already takes — no extra float arithmetic, no RNG
/// draws — so they never influence the clustering.
fn lloyd_once<const D: usize>(
    points: &[WeightedPoint<D>],
    cfg: KMeansConfig,
) -> (Clustering<D>, LloydCounters) {
    let mut counters = LloydCounters::default();
    let guard = fp_guard(D);
    let up = 1.0 + guard;
    let k = cfg.k;
    let n = points.len();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = CentroidStore::new(&seed_plus_plus(points, k, &mut rng));

    let mut assignments = vec![0usize; n];
    // upper[i] ≥ distance(point i, its centroid); lower[i] ≤ distance to
    // every other centroid. Conservative with respect to the *computed*
    // floating-point distances, not just the real ones.
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![f64::INFINITY; n];
    let mut delta = vec![0.0f64; k];

    // Flat accumulators for the update step, reused across iterations.
    let mut sum_pos = vec![0.0f64; k * D];
    let mut sum_h = vec![0.0f64; k];
    let mut sum_w = vec![0.0f64; k];

    let mut iterations = 0;
    let mut converged = false;
    // Whether the previous update step ran an empty-cluster repair; a
    // repair rewrites a centroid from the store's mid-update state, so the
    // change-free shortcut below must not fire after one.
    let mut repaired = false;

    while iterations < cfg.max_iters {
        iterations += 1;
        let mut changed = false;

        if iterations == 1 {
            changed = true;
            // No movement information yet: full scan, exact bounds.
            counters.full_scans += n as u64;
            for (i, p) in points.iter().enumerate() {
                let (a, d1, d2) = store.nearest_two(&p.coord);
                assignments[i] = a;
                upper[i] = d1;
                lower[i] = d2;
            }
        } else {
            let (m1, am, m2) = top_two(&delta);
            for (i, p) in points.iter().enumerate() {
                let a = assignments[i];
                // Inflate by the assigned centroid's movement; deflate the
                // other-centroid bound by the largest movement among the
                // *other* centroids. The deflation margin is absolute —
                // `(|x| + |y|)·guard` — because when the drift nearly
                // cancels the bound, a relative margin on the difference
                // would be smaller than the rounding error of the operands
                // that produced it.
                let drift = if a == am { m2 } else { m1 };
                let l = if lower[i].is_finite() {
                    let deflated = (lower[i] - drift) - (lower[i] + drift) * guard;
                    if deflated > 0.0 {
                        deflated
                    } else {
                        f64::NEG_INFINITY
                    }
                } else {
                    // k = 1 (no other centroid, bound stays +∞) or a row
                    // already marked for rescan (−∞): avoid ∞ − ∞.
                    lower[i]
                };
                if l > f64::NEG_INFINITY {
                    let u = (upper[i] + delta[a]) * up;
                    if u < l {
                        counters.pruned_upper += 1;
                        upper[i] = u;
                        lower[i] = l;
                        continue;
                    }
                    // Tighten the upper bound to the exact distance, retry.
                    let tight = store.dist_centroid_point(a, &p.coord);
                    if tight < l {
                        counters.pruned_tightened += 1;
                        upper[i] = tight;
                        lower[i] = l;
                        continue;
                    }
                }
                // A collapsed (−∞) bound can never beat a distance, so the
                // checks above are skipped — straight to the full scan.
                // Bounds can't decide: fresh exact bounds.
                counters.full_scans += 1;
                let (a2, d1, d2) = store.nearest_two(&p.coord);
                if a2 != a {
                    changed = true;
                }
                assignments[i] = a2;
                upper[i] = d1;
                lower[i] = d2;
            }
        }

        if !changed && !repaired {
            // The assignment vector is identical to the previous
            // iteration's and no repair rewrote a centroid, so recomputing
            // the sums would re-add the exact same terms in the exact same
            // order: every centroid lands bit-for-bit where it already is
            // and the movement the naive code would measure is exactly 0.0,
            // within TOLERANCE. Skip the O(n·D) update: the run converged.
            converged = true;
            break;
        }

        // Update step: the naive weighted-mean update, operation for
        // operation (accumulate x·w in point order, multiply by the
        // reciprocal weight), over the flat buffers.
        sum_pos.fill(0.0);
        sum_h.fill(0.0);
        sum_w.fill(0.0);
        for (p, &a) in points.iter().zip(&assignments) {
            let row = &mut sum_pos[a * D..(a + 1) * D];
            let pp = p.coord.pos();
            for i in 0..D {
                row[i] += pp[i] * p.weight;
            }
            sum_h[a] += p.coord.height() * p.weight;
            sum_w[a] += p.weight;
        }

        let mut movement = 0.0;
        repaired = false;
        for c in 0..k {
            let next = if sum_w[c] > 0.0 {
                let s = 1.0 / sum_w[c];
                let mut pos = [0.0; D];
                for i in 0..D {
                    pos[i] = sum_pos[c * D + i] * s;
                }
                Coord::new(pos).with_height(sum_h[c] * s)
            } else {
                // Empty cluster: restart it at the point currently farthest
                // from its centroid (a standard repair that keeps k exact).
                // The store is mid-update here — clusters below `c` already
                // replaced, the rest not — exactly the mixed state the
                // naive in-place loop exposed.
                repaired = true;
                farthest_point(points, &store, &assignments)
            };
            let (euclid, dh) = store.replace(c, &next);
            movement += euclid;
            // Movement bound for the pruning recurrence: a centroid moving
            // by (euclid, Δh) changes any point's distance by at most
            // euclid + |Δh| in exact arithmetic; inflate for rounding.
            delta[c] = (euclid + dh) * up;
        }

        if movement <= TOLERANCE {
            converged = true;
            break;
        }
    }

    // Final assignment and SSE against the final centroids: always the
    // verbatim full scan (the bounds never touch the reported result).
    let mut sse = 0.0;
    for (p, slot) in points.iter().zip(assignments.iter_mut()) {
        let (idx, dist) = store.nearest(&p.coord);
        *slot = idx;
        sse += p.weight * dist * dist;
    }

    (
        Clustering {
            centroids: store.to_coords(),
            assignments,
            sse,
            iterations,
            converged,
        },
        counters,
    )
}

/// k-means++ seeding: the first centroid is weight-proportional random, each
/// further centroid is chosen with probability proportional to
/// `weight × D(x)²` where `D(x)` is the distance to the closest centroid
/// chosen so far.
pub(crate) fn seed_plus_plus<const D: usize>(
    points: &[WeightedPoint<D>],
    k: usize,
    rng: &mut StdRng,
) -> Vec<Coord<D>> {
    let mut centroids = Vec::with_capacity(k);
    let total_w: f64 = points.iter().map(|p| p.weight).sum();
    let mut pick = rng.random::<f64>() * total_w;
    let mut first = 0;
    for (i, p) in points.iter().enumerate() {
        pick -= p.weight;
        if pick <= 0.0 {
            first = i;
            break;
        }
    }
    centroids.push(points[first].coord);

    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| {
            let d = p.coord.distance(&centroids[0]);
            d * d
        })
        .collect();

    while centroids.len() < k {
        let total: f64 = points.iter().zip(&d2).map(|(p, &d)| p.weight * d).sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with existing centroids; pick
            // the first point not yet used as a centroid.
            points
                .iter()
                .position(|p| !centroids.contains(&p.coord))
                .unwrap_or(0)
        } else {
            let mut pick = rng.random::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, (p, &d)) in points.iter().zip(&d2).enumerate() {
                pick -= p.weight * d;
                if pick <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let c = points[next].coord;
        centroids.push(c);
        for (p, slot) in points.iter().zip(d2.iter_mut()) {
            let d = p.coord.distance(&c);
            *slot = slot.min(d * d);
        }
    }
    centroids
}

/// The point with the largest weighted distance to its assigned centroid.
fn farthest_point<const D: usize>(
    points: &[WeightedPoint<D>],
    store: &CentroidStore<D>,
    assignments: &[usize],
) -> Coord<D> {
    let mut best = (points[0].coord, -1.0);
    for (p, &a) in points.iter().zip(assignments) {
        let d = p.weight * store.dist_point_centroid(&p.coord, a);
        if d > best.1 {
            best = (p.coord, d);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_blobs() -> Vec<Coord<2>> {
        let mut pts = Vec::new();
        for i in 0..25 {
            let (dx, dy) = ((i % 5) as f64, (i / 5) as f64);
            pts.push(Coord::new([dx, dy]));
            pts.push(Coord::new([200.0 + dx, 200.0 + dy]));
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let c = kmeans(&two_blobs(), KMeansConfig::new(2)).unwrap();
        assert!(c.converged);
        let d = c.centroids[0].distance(&c.centroids[1]);
        assert!(d > 200.0, "centroid separation {d}");
        // Every point assigned to the near centroid.
        for (p, &a) in two_blobs().iter().zip(&c.assignments) {
            let other = 1 - a;
            assert!(p.distance(&c.centroids[a]) <= p.distance(&c.centroids[other]));
        }
    }

    #[test]
    fn k_equals_one_gives_mean() {
        let pts = vec![Coord::new([0.0, 0.0]), Coord::new([10.0, 0.0])];
        let c = kmeans(&pts, KMeansConfig::new(1)).unwrap();
        assert!((c.centroids[0].component(0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn k_equals_n_gives_zero_sse() {
        let pts: Vec<Coord<2>> = (0..5).map(|i| Coord::new([i as f64 * 50.0, 0.0])).collect();
        let c = kmeans(&pts, KMeansConfig::new(5)).unwrap();
        assert!(c.sse < 1e-9, "sse {}", c.sse);
    }

    #[test]
    fn errors_are_reported() {
        let pts: Vec<Coord<2>> = vec![Coord::origin(); 3];
        assert_eq!(
            kmeans::<2>(&[], KMeansConfig::new(2)),
            Err(ClusterError::NoPoints)
        );
        assert_eq!(kmeans(&pts, KMeansConfig::new(0)), Err(ClusterError::ZeroK));
        assert_eq!(
            kmeans(&pts, KMeansConfig::new(4)),
            Err(ClusterError::KTooLarge { k: 4, points: 3 })
        );
        assert!(ClusterError::NoPoints.to_string().contains("empty"));
    }

    #[test]
    fn zero_config_fields_are_rejected_not_ignored() {
        let pts: Vec<Coord<2>> = vec![Coord::origin(); 3];
        let zero_iters = KMeansConfig {
            max_iters: 0,
            ..KMeansConfig::new(2)
        };
        assert_eq!(
            kmeans(&pts, zero_iters),
            Err(ClusterError::InvalidConfig("max_iters must be at least 1"))
        );
        let zero_restarts = KMeansConfig {
            restarts: 0,
            ..KMeansConfig::new(2)
        };
        assert_eq!(
            kmeans(&pts, zero_restarts),
            Err(ClusterError::InvalidConfig("restarts must be at least 1"))
        );
        assert!(ClusterError::InvalidConfig("max_iters must be at least 1")
            .to_string()
            .contains("max_iters"));
    }

    #[test]
    fn builders_clamp_to_one() {
        let cfg = KMeansConfig::new(2).with_restarts(0).with_max_iters(0);
        assert_eq!(cfg.restarts, 1);
        assert_eq!(cfg.max_iters, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let pts = two_blobs();
        let a = kmeans(&pts, KMeansConfig::new(3).with_seed(9)).unwrap();
        let b = kmeans(&pts, KMeansConfig::new(3).with_seed(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_points_do_not_break_seeding() {
        let pts = vec![Coord::new([1.0, 1.0]); 6];
        let c = kmeans(&pts, KMeansConfig::new(3)).unwrap();
        assert_eq!(c.centroids.len(), 3);
        assert!(c.sse < 1e-9);
    }

    #[test]
    fn stats_ride_along_without_changing_the_clustering() {
        let pts = two_blobs();
        let cfg = KMeansConfig::new(3).with_seed(7);
        let plain = kmeans(&pts, cfg).unwrap();
        let (counted, stats) = kmeans_with_stats(&pts, cfg).unwrap();
        assert_eq!(plain, counted);
        assert_eq!(stats.restarts, cfg.restarts as u64);
        assert!(stats.iterations >= stats.restarts, "every restart iterates");
        assert!((0.0..=1.0).contains(&stats.prune_rate()));
    }

    #[test]
    fn stats_partition_every_point_decision() {
        // Each Lloyd iteration decides every point exactly once, through
        // exactly one of the three counted paths.
        let pts = two_blobs();
        let (_, stats) = kmeans_with_stats(&pts, KMeansConfig::new(2)).unwrap();
        assert_eq!(stats.point_updates(), stats.iterations * pts.len() as u64);
        // Iteration 1 of every restart is always a full scan.
        assert!(stats.full_scans >= stats.restarts * pts.len() as u64);
    }

    #[test]
    fn winner_restart_reruns_to_the_same_clustering() {
        let pts = two_blobs();
        let cfg = KMeansConfig::new(3).with_seed(123).with_restarts(5);
        let (best, stats) = kmeans_with_stats(&pts, cfg).unwrap();
        assert!(stats.winner_restart < stats.restarts);
        // Restart r runs with seed `cfg.seed + r` and a single restart, so
        // replaying the winner alone reproduces the winning clustering.
        let replay = kmeans(
            &pts,
            cfg.with_seed(cfg.seed.wrapping_add(stats.winner_restart))
                .with_restarts(1),
        )
        .unwrap();
        assert_eq!(best, replay);
    }

    #[test]
    fn empty_stats_have_a_zero_prune_rate() {
        assert_eq!(KMeansStats::default().prune_rate(), 0.0);
        assert_eq!(KMeansStats::default().point_updates(), 0);
    }

    proptest! {
        #[test]
        fn prop_stats_clustering_matches_plain(seed in 0u64..30, k in 1usize..5) {
            let pts = two_blobs();
            let cfg = KMeansConfig::new(k).with_seed(seed);
            let plain = kmeans(&pts, cfg).unwrap();
            let (counted, stats) = kmeans_with_stats(&pts, cfg).unwrap();
            prop_assert_eq!(plain, counted);
            prop_assert_eq!(stats.point_updates(), stats.iterations * pts.len() as u64);
        }

        #[test]
        fn prop_assignments_are_nearest(
            seed in 0u64..50,
            k in 1usize..5,
        ) {
            let pts = two_blobs();
            let c = kmeans(&pts, KMeansConfig::new(k).with_seed(seed)).unwrap();
            for (p, &a) in pts.iter().zip(&c.assignments) {
                let best = c.centroids.iter()
                    .map(|ct| ct.distance(p))
                    .fold(f64::INFINITY, f64::min);
                prop_assert!((p.distance(&c.centroids[a]) - best).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_more_clusters_never_increase_sse(seed in 0u64..20) {
            let pts = two_blobs();
            let mut prev = f64::INFINITY;
            for k in 1..=4 {
                let mut best = f64::INFINITY;
                // Best of a few seeds: k-means is a local search, a single
                // run can get unlucky.
                for s in 0..5 {
                    let c = kmeans(&pts, KMeansConfig::new(k).with_seed(seed * 31 + s)).unwrap();
                    best = best.min(c.sse);
                }
                prop_assert!(best <= prev + 1e-6, "k={k}: sse {best} > previous {prev}");
                prev = best;
            }
        }

        #[test]
        fn prop_sse_matches_assignments(seed in 0u64..20) {
            let pts = two_blobs();
            let c = kmeans(&pts, KMeansConfig::new(2).with_seed(seed)).unwrap();
            let manual: f64 = pts.iter().zip(&c.assignments)
                .map(|(p, &a)| {
                    let d = p.distance(&c.centroids[a]);
                    d * d
                })
                .sum();
            prop_assert!((manual - c.sse).abs() < 1e-6);
        }
    }
}
