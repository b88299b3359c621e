//! Exhaustive-optimal placement — the paper's impractical upper bound.
//!
//! The search is exhaustive in its *result*, not in its work: combinations
//! are explored depth-first over a prefix tree (first chosen slot, then
//! second, …), each prefix carries the elementwise minimum of its rows, and
//! a subtree is discarded when `Σ_row min(prefix_min, suffix_min)` — a
//! lower bound on every completion, since the remaining slots can only be
//! drawn from the suffix — already exceeds the best total seen. Both the
//! bound and the totals sum the same non-negative per-row values in the
//! same row order, and IEEE round-to-nearest is monotone, so the float
//! bound never overshoots a descendant's float total: pruning (strict `>`)
//! returns bit-for-bit the placement of the plain scan.

use crate::combin::binomial;

use super::greedy::Greedy;
use super::{PlaceError, PlacementContext, Placer};

/// Evaluates the true objective for **every** `C(|C|, k)` combination of
/// candidate data centers and returns the best.
///
/// The paper includes this comparator "for comparison purposes" only — it
/// needs the true latency between every client and every candidate, and its
/// cost explodes combinatorially. [`Optimal::search_space`] reports how
/// many placements a context would enumerate so callers can bail out of
/// infeasible configurations; [`Optimal::with_limit`] enforces a hard cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Optimal {
    /// Maximum number of combinations this instance will evaluate.
    limit: u128,
}

impl Default for Optimal {
    fn default() -> Self {
        // Generous default: 20 candidates at k = 7 is 77 520; even
        // C(30, 5) = 142 506 stays comfortably below.
        Optimal { limit: 20_000_000 }
    }
}

impl Optimal {
    /// An exhaustive search capped at `limit` combinations.
    pub fn with_limit(limit: u128) -> Self {
        Optimal { limit }
    }

    /// Number of placements a context would enumerate.
    pub fn search_space<const D: usize>(ctx: &PlacementContext<'_, D>) -> u128 {
        binomial(ctx.problem.candidates().len(), ctx.k)
    }
}

/// Best `(placement, total)` found within one first-slot subtree, if the
/// subtree beat the running bound at all.
type GroupBest = Option<(Vec<usize>, f64)>;

/// One exhaustive search: the read-only costs plus the running bound.
struct Search<'a> {
    /// Candidate-major weighted costs (`w · delay` per client row).
    wcost: &'a [f64],
    /// Candidate-major suffix minima: row `s` is the elementwise minimum of
    /// `wcost` rows `s..`.
    suffix: &'a [f64],
    n_rows: usize,
    n_cand: usize,
    k: usize,
    /// Best total seen across every subtree so far, seeded by greedy.
    /// Stays `∞` when the costs may be negative and pruning is off.
    bound: f64,
    prunable: bool,
}

impl<'a> Search<'a> {
    fn row(&self, slot: usize) -> &'a [f64] {
        &self.wcost[slot * self.n_rows..(slot + 1) * self.n_rows]
    }

    fn suffix_row(&self, slot: usize) -> &'a [f64] {
        &self.suffix[slot * self.n_rows..(slot + 1) * self.n_rows]
    }

    /// Depth-first scan with `combo[level]` ranging over `from..=to`.
    /// `mins` is the prefix-minimum stack (`k` rows of `n_rows`): level ℓ
    /// holds the elementwise minimum of the first ℓ+1 chosen rows, folded
    /// left with strict `<` exactly like the flat per-combination loop.
    fn descend(
        &mut self,
        level: usize,
        from: usize,
        to: usize,
        combo: &mut Vec<usize>,
        mins: &mut [f64],
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        let n_rows = self.n_rows;
        let leaf = level + 1 == self.k;
        for v in from..=to {
            let bound = self.bound;
            let row = self.row(v);
            let (done, rest) = mins.split_at_mut(level * n_rows);
            let prev: Option<&[f64]> = done.get(done.len().wrapping_sub(n_rows)..);
            if leaf {
                // Exact total, summed in row order with early exit: once
                // the partial exceeds the bound the full total does too
                // (adding non-negative terms, monotone rounding).
                let mut total = 0.0;
                let mut pruned = false;
                for r in 0..n_rows {
                    let c = row[r];
                    total += match prev {
                        Some(p) if p[r] < c => p[r],
                        _ => c,
                    };
                    if total > bound {
                        pruned = true;
                        break;
                    }
                }
                if !pruned && best.as_ref().is_none_or(|&(_, bd)| total < bd) {
                    if self.prunable {
                        self.bound = total;
                    }
                    combo.push(v);
                    *best = Some((combo.clone(), total));
                    combo.pop();
                }
            } else {
                // Interior node: extend the prefix-min stack and lower-
                // bound every completion (remaining slots come from
                // `v+1..`, so `suffix[v+1]` bounds their contribution).
                let cur = &mut rest[..n_rows];
                let sfx = self.suffix_row(v + 1);
                let mut lb = 0.0;
                let mut pruned = false;
                for r in 0..n_rows {
                    let c = row[r];
                    let m = match prev {
                        Some(p) if p[r] < c => p[r],
                        _ => c,
                    };
                    cur[r] = m;
                    let s = sfx[r];
                    lb += if m < s { m } else { s };
                    if lb > bound {
                        pruned = true;
                        break;
                    }
                }
                if !pruned {
                    combo.push(v);
                    let to = self.n_cand - (self.k - level - 1);
                    self.descend(level + 1, v + 1, to, combo, mins, best);
                    combo.pop();
                }
            }
        }
    }

    /// Scans the subtree rooted at first slot `v0`, returning its best
    /// (first-wins on ties, like the flat lexicographic scan).
    fn scan_group(&mut self, v0: usize, mins: &mut [f64]) -> GroupBest {
        let mut combo = Vec::with_capacity(self.k);
        let mut best = None;
        self.descend(0, v0, v0, &mut combo, mins, &mut best);
        best
    }
}

impl<const D: usize> Placer<D> for Optimal {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn place(&self, ctx: &PlacementContext<'_, D>) -> Result<Vec<usize>, PlaceError> {
        ctx.check_k()?;
        let space = Self::search_space(ctx);
        if space > self.limit {
            return Err(PlaceError::MissingData(
                "a search space within the exhaustive-search limit",
            ));
        }

        let problem = ctx.problem;
        let table = problem.cost_table();
        let n_cand = table.n_candidates();
        let n_rows = table.n_rows();
        let k = ctx.k;
        let costs = problem.objective_costs();
        let wcost = costs.wcost();
        let prunable = costs.is_prunable();

        // Candidate-major suffix minima feed the subtree lower bounds.
        let mut suffix = vec![0.0; n_cand * n_rows];
        suffix[(n_cand - 1) * n_rows..].copy_from_slice(&wcost[(n_cand - 1) * n_rows..]);
        for s in (0..n_cand - 1).rev() {
            for r in 0..n_rows {
                let c = wcost[s * n_rows + r];
                let nxt = suffix[(s + 1) * n_rows + r];
                suffix[s * n_rows + r] = if c < nxt { c } else { nxt };
            }
        }

        // A greedy solution seeds the prune bound: most subtrees exceed it
        // within a few rows. Pruning is strict (`>`), so ties with the
        // bound still complete and the returned placement stays the first
        // minimum in lexicographic order — exactly the unpruned answer.
        let greedy_total = if prunable {
            let greedy = Greedy.place(ctx)?;
            problem
                .total_delay(&greedy)
                .expect("greedy returns a valid placement")
        } else {
            f64::INFINITY
        };
        let mut search = Search {
            wcost,
            suffix: &suffix,
            n_rows,
            n_cand,
            k,
            bound: greedy_total,
            prunable,
        };

        // One subtree per first-slot choice, merged in first-slot (=
        // lexicographic) order with strict `<` so the earliest minimum wins.
        let mut mins = vec![0.0; k * n_rows];
        let mut merged: GroupBest = None;
        for v0 in 0..n_cand - k + 1 {
            if let Some(r) = search.scan_group(v0, &mut mins) {
                if merged.as_ref().is_none_or(|&(_, bd)| r.1 < bd) {
                    merged = Some(r);
                }
            }
        }

        let (combo, _) = merged.expect("search space is non-empty when k ≤ candidates");
        Ok(combo.into_iter().map(|slot| table.site_of(slot)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use crate::strategy::random::Random;
    use georep_net::rtt::RttMatrix;

    fn ctx<'a>(p: &'a PlacementProblem<'a>, k: usize) -> PlacementContext<'a, 1> {
        PlacementContext {
            problem: p,
            coords: &[],
            accesses: &[],
            summaries: &[],
            k,
            seed: 7,
        }
    }

    #[test]
    fn finds_the_true_optimum_on_a_line() {
        // Nodes 0..6 on a line; candidates {0, 3, 5}; clients {1, 2, 4}.
        let m = RttMatrix::from_fn(6, |i, j| (j as f64 - i as f64) * 10.0).unwrap();
        let p = PlacementProblem::new(&m, vec![0, 3, 5], vec![1, 2, 4]).unwrap();
        // k = 1: candidate 3 minimizes 20+10+10 = 40 (vs 0: 70, 5: 70).
        let placement = Optimal::default().place(&ctx(&p, 1)).unwrap();
        assert_eq!(placement, vec![3]);
    }

    #[test]
    fn never_worse_than_any_other_strategy() {
        let m = RttMatrix::from_fn(12, |i, j| ((i * 7 + j * 13) % 90 + 5) as f64).unwrap();
        let p = PlacementProblem::new(&m, (0..6).collect(), (6..12).collect()).unwrap();
        let c = ctx(&p, 3);
        let opt = Optimal::default().place(&c).unwrap();
        let opt_delay = p.total_delay(&opt).unwrap();
        for seed in 0..10 {
            let rnd = Placer::<1>::place(&Random, &PlacementContext { seed, ..c.clone() }).unwrap();
            assert!(opt_delay <= p.total_delay(&rnd).unwrap() + 1e-9);
        }
    }

    #[test]
    fn k_equals_candidates_returns_all() {
        let m = RttMatrix::from_fn(5, |i, j| (i + j + 1) as f64).unwrap();
        let p = PlacementProblem::new(&m, vec![0, 1, 2], vec![3, 4]).unwrap();
        let mut placement = Optimal::default().place(&ctx(&p, 3)).unwrap();
        placement.sort_unstable();
        assert_eq!(placement, vec![0, 1, 2]);
    }

    #[test]
    fn limit_is_enforced() {
        let m = RttMatrix::from_fn(30, |i, j| (i + j + 1) as f64).unwrap();
        let p = PlacementProblem::new(&m, (0..25).collect(), (25..30).collect()).unwrap();
        let tight = Optimal::with_limit(10);
        assert!(matches!(
            tight.place(&ctx(&p, 5)),
            Err(PlaceError::MissingData(_))
        ));
        assert_eq!(Optimal::search_space(&ctx(&p, 5)), 53_130);
    }

    #[test]
    fn respects_client_weights() {
        // One heavy client decides the k = 1 winner.
        let m = RttMatrix::from_fn(4, |i, j| (j as f64 - i as f64) * 10.0).unwrap();
        let p =
            PlacementProblem::with_weights(&m, vec![0, 3], vec![1, 2], vec![1.0, 100.0]).unwrap();
        let c = PlacementContext::<1> {
            problem: &p,
            coords: &[],
            accesses: &[],
            summaries: &[],
            k: 1,
            seed: 0,
        };
        // Client 2 (weight 100) is 10 from candidate 3, 20 from candidate 0.
        assert_eq!(Optimal::default().place(&c).unwrap(), vec![3]);
    }
}
