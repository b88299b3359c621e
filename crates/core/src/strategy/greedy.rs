//! Greedy incremental placement (Qiu, Padmanabhan, Voelker — INFOCOM 2001).

use super::{PlaceError, PlacementContext, Placer};
use crate::objective::IncrementalEval;

/// Upper bound on improvement passes in [`open_then_swap`]. Every accepted
/// swap strictly lowers the objective, so this is a safety valve, not a
/// knob: no measured input has needed more than five passes.
const MAX_SWAP_PASSES: usize = 64;

/// Adds one replica at a time, each time choosing the candidate that most
/// reduces the total access delay given the replicas already placed.
///
/// This is the "naive greedy algorithm that effectively reduces latency at
/// a high computation cost" from the paper's related work: every step
/// evaluates every remaining candidate against every client, so it needs
/// the full latency matrix — information a scalable system does not have.
/// It is nevertheless a strong baseline: greedy is within a few percent of
/// optimal on most instances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Greedy;

impl<const D: usize> Placer<D> for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn place(&self, ctx: &PlacementContext<'_, D>) -> Result<Vec<usize>, PlaceError> {
        ctx.check_k()?;
        let mut eval = ctx.problem.objective_eval();
        greedy_fill(&mut eval, ctx.k);
        Ok(eval.placement())
    }
}

/// Runs the greedy selection into `eval`, committing `k` replicas. Shared
/// with [`open_then_swap`], whose local search picks up the evaluator state
/// exactly where greedy left it (no rebuild).
pub(crate) fn greedy_fill(eval: &mut IncrementalEval<'_>, k: usize) {
    let table = eval.table();
    // Slot-indexed "already chosen" mask — O(1) per candidate where the
    // former `chosen.contains` scan was O(k).
    let mut used = vec![false; table.n_candidates()];

    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        if eval.is_empty() {
            // First replica: every trial total is the candidate's weighted
            // column sum, which the shared [`WeightedCosts`] precomputed —
            // same row-order sums, so the same bits and the same winner.
            for (slot, &total) in eval.costs().column_sums().iter().enumerate() {
                if !used[slot] && best.is_none_or(|(_, bt)| total < bt) {
                    best = Some((slot, total));
                }
            }
        } else {
            for (slot, &is_used) in used.iter().enumerate() {
                if is_used {
                    continue;
                }
                // The incumbent total is an exact prune bound: selection is
                // strict `<`, so a trial that reaches it can never win.
                let bound = best.map_or(f64::INFINITY, |(_, bt)| bt);
                if let Some(total) = eval.add_total_pruned(slot, bound) {
                    best = Some((slot, total));
                }
            }
        }
        let (slot, _) = best.expect("k ≤ candidates leaves a free candidate");
        // Duplicate node ids in the candidate list share their fate, as
        // they did when chosen-ness was tracked per node.
        let node = table.site_of(slot);
        for (s, u) in used.iter_mut().enumerate() {
            if table.site_of(s) == node {
                *u = true;
            }
        }
        eval.commit_add(slot);
    }
}

/// The one open-and-swap search: [`greedy_fill`] to `k` replicas, then
/// per-position best-improvement passes — for each placement position in
/// turn, the first strictly cheapest swap in candidate scan order is
/// committed — until a pass improves nothing. Every caller that refines
/// greedy by single swaps (swap local search, online greedy, each
/// decentralized node and its central comparator) runs exactly this.
pub(crate) fn open_then_swap(eval: &mut IncrementalEval<'_>, k: usize) {
    greedy_fill(eval, k);
    let mut current = eval.total();
    // Slot-indexed membership mask: O(1) per candidate, not O(k).
    let mut in_placement = vec![false; eval.table().n_candidates()];
    for &s in eval.slots() {
        in_placement[s] = true;
    }
    for _ in 0..MAX_SWAP_PASSES {
        let mut improved = false;
        for pos in 0..eval.len() {
            let mut best: Option<(usize, f64)> = None;
            for (slot, &in_place) in in_placement.iter().enumerate() {
                if in_place {
                    continue;
                }
                // Accepting needs `d < current` and `d < best`, so the
                // smaller of the two prunes the trial exactly.
                let bound = best.map_or(current, |(_, bd)| f64::min(current, bd));
                if let Some(d) = eval.swap_total_pruned(pos, slot, bound) {
                    best = Some((slot, d));
                }
            }
            if let Some((slot, d)) = best {
                in_placement[eval.slots()[pos]] = false;
                in_placement[slot] = true;
                eval.commit_swap(pos, slot);
                current = d;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use crate::strategy::optimal::Optimal;
    use crate::strategy::random::Random;
    use georep_net::rtt::RttMatrix;

    fn ctx<'a>(p: &'a PlacementProblem<'a>, k: usize) -> PlacementContext<'a, 1> {
        PlacementContext {
            problem: p,
            coords: &[],
            accesses: &[],
            summaries: &[],
            k,
            seed: 5,
        }
    }

    #[test]
    fn first_pick_is_the_1_median() {
        let m = RttMatrix::from_fn(6, |i, j| (j as f64 - i as f64) * 10.0).unwrap();
        let p = PlacementProblem::new(&m, vec![0, 3, 5], vec![1, 2, 4]).unwrap();
        let greedy = Greedy.place(&ctx(&p, 1)).unwrap();
        let optimal = Optimal::default().place(&ctx(&p, 1)).unwrap();
        assert_eq!(greedy, optimal);
    }

    #[test]
    fn returns_k_distinct_candidates() {
        let m = RttMatrix::from_fn(10, |i, j| ((i * 3 + j * 5) % 40 + 1) as f64).unwrap();
        let p = PlacementProblem::new(&m, (0..6).collect(), (6..10).collect()).unwrap();
        let placement = Greedy.place(&ctx(&p, 4)).unwrap();
        assert_eq!(placement.len(), 4);
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(p.validate_placement(&placement).is_ok());
    }

    #[test]
    fn close_to_optimal_and_better_than_random() {
        let m = RttMatrix::from_fn(16, |i, j| (((i * 13 + j * 29) % 173) + 7) as f64).unwrap();
        let p = PlacementProblem::new(&m, (0..8).collect(), (8..16).collect()).unwrap();
        let c = ctx(&p, 3);
        let greedy_delay = p.total_delay(&Greedy.place(&c).unwrap()).unwrap();
        let optimal_delay = p
            .total_delay(&Optimal::default().place(&c).unwrap())
            .unwrap();
        assert!(greedy_delay >= optimal_delay - 1e-9);
        assert!(
            greedy_delay <= optimal_delay * 1.15,
            "greedy {greedy_delay} vs optimal {optimal_delay}"
        );
        let mut random_mean = 0.0;
        for seed in 0..10 {
            let r = Placer::<1>::place(&Random, &PlacementContext { seed, ..c.clone() }).unwrap();
            random_mean += p.total_delay(&r).unwrap();
        }
        random_mean /= 10.0;
        assert!(greedy_delay <= random_mean);
    }

    #[test]
    fn marginal_gain_is_diminishing() {
        let m = RttMatrix::from_fn(20, |i, j| (((i * 7 + j * 11) % 200) + 3) as f64).unwrap();
        let p = PlacementProblem::new(&m, (0..10).collect(), (10..20).collect()).unwrap();
        let mut prev = f64::INFINITY;
        let mut prev_gain = f64::INFINITY;
        for k in 1..=5 {
            let d = p.total_delay(&Greedy.place(&ctx(&p, k)).unwrap()).unwrap();
            if prev.is_finite() {
                let gain = prev - d;
                assert!(gain >= -1e-9, "delay increased at k = {k}");
                assert!(
                    gain <= prev_gain + 1e-9,
                    "greedy marginal gain must shrink (submodularity): k = {k}"
                );
                prev_gain = gain;
            }
            prev = d;
        }
    }
}
