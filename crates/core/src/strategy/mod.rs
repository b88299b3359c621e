//! Replica placement strategies.
//!
//! Every strategy implements [`Placer`]: given a [`PlacementContext`] it
//! returns `k` distinct data centers drawn from the candidate set. The
//! strategies the paper evaluates (its Section IV-A list) plus the
//! related-work baselines:
//!
//! | strategy | paper role | information used |
//! |---|---|---|
//! | [`random::Random`] | baseline | nothing |
//! | [`offline::OfflineKMeans`] | costly baseline | every recorded access coordinate |
//! | [`online::OnlineClustering`] | **the contribution** (Algorithm 1) | `k·m` shipped micro-clusters |
//! | [`online_greedy::OnlineGreedy`] | extension (same summaries, stronger central step) | `k·m` shipped micro-clusters |
//! | [`optimal::Optimal`] | impractical upper bound | true latencies, exhaustive search |
//! | [`greedy::Greedy`] | related work (Qiu et al.) | true latencies, incremental search |
//! | [`hotzone::HotZone`] | related work (Szymaniak et al.) | access coordinates, grid cells |
//! | [`swap::SwapLocalSearch`] | related work (facility location) | true latencies, greedy + swaps |
//! | [`slo::place_for_slo`] | extension (latency budgets from the paper's intro) | true latencies, greedy set cover |
//! | [`spread::place_spread`] | extension (correlated-failure availability) | true latencies + failure-domain tree |
//! | [`decentralized::run_decentralized`] | extension (coordinator-free gossip placement) | gossiped shard summaries, local search |

pub mod decentralized;
pub mod greedy;
pub mod hotzone;
pub mod offline;
pub mod online;
pub mod online_greedy;
pub mod optimal;
pub mod predictive;
pub mod random;
pub mod slo;
pub mod spread;
pub mod swap;

use std::error::Error;
use std::fmt;

use georep_cluster::kmeans::ClusterError;
use georep_cluster::summary::{AccessSummary, SummaryError};
use georep_coord::Coord;

use crate::objective::{CoordDelay, CostTable};
use crate::problem::{PlacementProblem, ProblemError};

/// Error produced by a placement strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// More replicas requested than candidates exist.
    KTooLarge {
        /// Requested degree of replication.
        k: usize,
        /// Number of candidate data centers.
        candidates: usize,
    },
    /// `k` was zero.
    ZeroK,
    /// The context lacked an input this strategy requires.
    MissingData(&'static str),
    /// A numeric budget (e.g. a delay-slack allowance) was negative, NaN
    /// or infinite — a configuration bug the caller must hear about rather
    /// than silently receiving the unbudgeted baseline.
    InvalidBudget {
        /// Which budget was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Macro-clustering failed.
    Cluster(ClusterError),
    /// A shipped summary could not be used.
    Summary(SummaryError),
    /// Objective evaluation failed.
    Problem(ProblemError),
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::KTooLarge { k, candidates } => {
                write!(f, "cannot place {k} replicas among {candidates} candidates")
            }
            PlaceError::ZeroK => write!(f, "degree of replication must be at least 1"),
            PlaceError::MissingData(what) => {
                write!(
                    f,
                    "strategy requires {what}, which the context did not provide"
                )
            }
            PlaceError::InvalidBudget { what, value } => {
                write!(f, "{what} must be finite and non-negative, got {value}")
            }
            PlaceError::Cluster(e) => write!(f, "clustering failed: {e}"),
            PlaceError::Summary(e) => write!(f, "summary error: {e}"),
            PlaceError::Problem(e) => write!(f, "objective error: {e}"),
        }
    }
}

impl Error for PlaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlaceError::Cluster(e) => Some(e),
            PlaceError::Summary(e) => Some(e),
            PlaceError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for PlaceError {
    fn from(e: ClusterError) -> Self {
        PlaceError::Cluster(e)
    }
}

impl From<SummaryError> for PlaceError {
    fn from(e: SummaryError) -> Self {
        PlaceError::Summary(e)
    }
}

impl From<ProblemError> for PlaceError {
    fn from(e: ProblemError) -> Self {
        PlaceError::Problem(e)
    }
}

/// Everything a strategy might consume.
///
/// Each strategy reads only the fields it needs; unavailable inputs can be
/// left empty, and strategies that require them fail with
/// [`PlaceError::MissingData`].
#[derive(Debug, Clone)]
pub struct PlacementContext<'a, const D: usize> {
    /// The placement problem: candidates, clients, true latencies.
    pub problem: &'a PlacementProblem<'a>,
    /// Network coordinates for every node of the matrix (empty slice when
    /// no embedding was computed).
    pub coords: &'a [Coord<D>],
    /// Recorded accesses as `(client, weight)` pairs — the offline
    /// baseline's input.
    pub accesses: &'a [(usize, f64)],
    /// Shipped per-replica micro-cluster summaries — the online technique's
    /// input.
    pub summaries: &'a [AccessSummary],
    /// Target degree of replication.
    pub k: usize,
    /// Seed for stochastic strategies.
    pub seed: u64,
}

impl<'a, const D: usize> PlacementContext<'a, D> {
    /// Validates `k` against the candidate set.
    pub fn check_k(&self) -> Result<(), PlaceError> {
        if self.k == 0 {
            return Err(PlaceError::ZeroK);
        }
        let candidates = self.problem.candidates().len();
        if self.k > candidates {
            return Err(PlaceError::KTooLarge {
                k: self.k,
                candidates,
            });
        }
        Ok(())
    }

    /// Coordinates, failing when the embedding is absent or does not cover
    /// the matrix.
    pub fn require_coords(&self) -> Result<&'a [Coord<D>], PlaceError> {
        if self.coords.len() != self.problem.matrix().len() {
            return Err(PlaceError::MissingData(
                "network coordinates for every node",
            ));
        }
        Ok(self.coords)
    }
}

/// How a macro-cluster is mapped onto a data center (line 4 of the paper's
/// Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CentroidMapping {
    /// Verbatim Algorithm 1: the candidate whose coordinates are closest to
    /// the macro-cluster's centroid.
    NearestCentroid,
    /// The candidate minimizing the estimated weighted delay to the
    /// cluster's member points (a 1-median step over the same data; the
    /// default; a 1-median step over the same shipped data).
    #[default]
    BestServing,
}

/// A replica placement strategy.
pub trait Placer<const D: usize> {
    /// Short human-readable name ("random", "online clustering", …).
    fn name(&self) -> &'static str;

    /// Chooses `ctx.k` distinct data centers from the candidates.
    ///
    /// # Errors
    ///
    /// See [`PlaceError`].
    fn place(&self, ctx: &PlacementContext<'_, D>) -> Result<Vec<usize>, PlaceError>;
}

/// Maps target points (e.g. macro-cluster centroids) to *distinct* candidate
/// data centers: each target in turn takes the nearest not-yet-used
/// candidate (by coordinate distance). If fewer targets than `k` are given,
/// remaining slots are filled with the unused candidates nearest to any
/// target.
///
/// This is lines 3–5 of the paper's Algorithm 1, made total: the paper does
/// not say what happens when two macro-clusters share a nearest data
/// center, and a valid placement needs `k` *distinct* locations.
///
/// `candidates` must be distinct (every constructor that feeds it checks),
/// so a candidate is free exactly when `chosen` does not hold it.
pub(crate) fn nearest_distinct_candidates<const D: usize>(
    targets: &[Coord<D>],
    candidates: &[usize],
    coords: &[Coord<D>],
    k: usize,
) -> Vec<usize> {
    debug_assert!(k <= candidates.len());
    let mut chosen = Vec::with_capacity(k);

    for target in targets.iter().take(k) {
        let mut best: Option<(usize, f64)> = None;
        for &cand in candidates {
            if chosen.contains(&cand) {
                continue;
            }
            let d = coords[cand].distance(target);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((cand, d));
            }
        }
        if let Some((cand, _)) = best {
            chosen.push(cand);
        }
    }

    // Top up if fewer targets than k (or targets exhausted the same DCs).
    while chosen.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for &cand in candidates {
            if chosen.contains(&cand) {
                continue;
            }
            let d = targets
                .iter()
                .map(|t| coords[cand].distance(t))
                .fold(f64::INFINITY, f64::min);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((cand, d));
            }
        }
        let (cand, _) = best.expect("k ≤ candidates guarantees a free candidate");
        chosen.push(cand);
    }
    chosen
}

/// Maps each macro-cluster to the *distinct* candidate data center that
/// minimizes the estimated (coordinate-space) weighted delay to the
/// cluster's member pseudo-points.
///
/// This is a strengthened line 4 of Algorithm 1: where the paper maps each
/// macro-cluster to the candidate nearest its *centroid*, this picks the
/// candidate that best serves the cluster's summarized demand — a
/// 1-median step over the same shipped data. On perfectly Euclidean
/// latencies the two coincide; on realistic matrices (triangle-inequality
/// violations, asymmetric transit) the 1-median mapping is measurably
/// closer to optimal. Clusters are processed in decreasing demand order so
/// heavy populations pick first.
pub(crate) fn best_serving_candidates<const D: usize>(
    members: &[Vec<(Coord<D>, f64)>],
    candidates: &[usize],
    coords: &[Coord<D>],
    k: usize,
) -> Vec<usize> {
    debug_assert!(k <= candidates.len());
    // Densify the pseudo-point × candidate distance matrix once; every
    // 1-median scan below reads contiguous slices of a candidate-major row
    // instead of recomputing coordinate distances per (cluster, candidate)
    // pair. Rows are the clusters' members flattened in cluster order, so
    // per-cluster sums visit the same values in the same order as the
    // member-list fold this replaces.
    let points: Vec<Coord<D>> = members.iter().flatten().map(|&(c, _)| c).collect();
    let weights: Vec<f64> = members.iter().flatten().map(|&(_, w)| w).collect();
    let oracle = CoordDelay::new(coords, &points);
    let table = CostTable::from_oracle(&oracle, candidates, coords.len(), points.len());
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(members.len());
    let mut start = 0usize;
    for m in members {
        ranges.push(start..start + m.len());
        start += m.len();
    }
    let est_for = |slot: usize, rows: std::ops::Range<usize>| -> f64 {
        table.row(slot)[rows.clone()]
            .iter()
            .zip(&weights[rows])
            .map(|(&d, &w)| w * d)
            .sum()
    };

    let mut order: Vec<usize> = (0..members.len()).collect();
    let demand: Vec<f64> = ranges
        .iter()
        .map(|r| weights[r.clone()].iter().sum())
        .collect();
    order.sort_by(|&a, &b| demand[b].total_cmp(&demand[a]));

    // Candidates are distinct, so a slot is free exactly when `chosen` does
    // not hold its node.
    let mut chosen = Vec::with_capacity(k);
    for &ci in order.iter().take(k) {
        let mut best: Option<(usize, f64)> = None;
        for (slot, cand) in candidates.iter().enumerate() {
            if chosen.contains(cand) {
                continue;
            }
            let est = est_for(slot, ranges[ci].clone());
            if best.is_none_or(|(_, bd)| est < bd) {
                best = Some((slot, est));
            }
        }
        if let Some((slot, _)) = best {
            chosen.push(candidates[slot]);
        }
    }

    // Top up (deduped clusters or fewer clusters than k): fall back to the
    // candidate that best serves *all* demand not yet chosen.
    while chosen.len() < k {
        let mut best: Option<(usize, f64)> = None;
        for (slot, cand) in candidates.iter().enumerate() {
            if chosen.contains(cand) {
                continue;
            }
            let est = est_for(slot, 0..points.len());
            if best.is_none_or(|(_, bd)| est < bd) {
                best = Some((slot, est));
            }
        }
        let (slot, _) = best.expect("k ≤ candidates guarantees a free candidate");
        chosen.push(candidates[slot]);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::rtt::RttMatrix;

    #[test]
    fn nearest_distinct_dedupes() {
        // Two targets both nearest to candidate 0; the second must fall
        // back to candidate 1.
        let coords = vec![
            Coord::new([0.0, 0.0]),  // node 0 (candidate)
            Coord::new([50.0, 0.0]), // node 1 (candidate)
            Coord::new([99.0, 0.0]), // node 2 (unused)
        ];
        let targets = vec![Coord::new([1.0, 0.0]), Coord::new([2.0, 0.0])];
        let chosen = nearest_distinct_candidates(&targets, &[0, 1], &coords, 2);
        assert_eq!(chosen, vec![0, 1]);
    }

    #[test]
    fn fills_up_when_targets_are_short() {
        let coords = vec![Coord::new([0.0]), Coord::new([10.0]), Coord::new([20.0])];
        let targets = vec![Coord::new([0.0])];
        let chosen = nearest_distinct_candidates(&targets, &[0, 1, 2], &coords, 3);
        assert_eq!(chosen.len(), 3);
        let mut sorted = chosen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "placements must be distinct: {chosen:?}");
    }

    #[test]
    fn context_checks() {
        let m = RttMatrix::from_fn(4, |i, j| (i + j) as f64 * 5.0).unwrap();
        let p = PlacementProblem::new(&m, vec![0, 1], vec![2, 3]).unwrap();
        let ctx = PlacementContext::<'_, 2> {
            problem: &p,
            coords: &[],
            accesses: &[],
            summaries: &[],
            k: 3,
            seed: 0,
        };
        assert_eq!(
            ctx.check_k(),
            Err(PlaceError::KTooLarge {
                k: 3,
                candidates: 2
            })
        );
        let ctx = PlacementContext { k: 0, ..ctx };
        assert_eq!(ctx.check_k(), Err(PlaceError::ZeroK));
        let ctx = PlacementContext { k: 2, ..ctx };
        assert!(ctx.check_k().is_ok());
        assert!(matches!(
            ctx.require_coords(),
            Err(PlaceError::MissingData(_))
        ));
    }

    #[test]
    fn error_display_and_source() {
        let e = PlaceError::KTooLarge {
            k: 5,
            candidates: 3,
        };
        assert!(e.to_string().contains("5 replicas"));
        let e: PlaceError = ClusterError::ZeroK.into();
        assert!(Error::source(&e).is_some());
    }
}
