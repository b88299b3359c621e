//! Swap-based local search (PAM-style) — a strong related-work baseline.
//!
//! The facility-location literature the paper builds on (Qiu et al. call it
//! *super-optimal* search territory) refines a greedy solution by repeated
//! single swaps: replace one chosen data center with one unchosen candidate
//! whenever that lowers the true objective, until no single swap helps.
//! Local search carries a worst-case guarantee of 5× optimal for k-median
//! and is near-optimal in practice — at a computation cost even higher than
//! greedy's, which is why scalable systems (like the paper's) do not use
//! it. It serves here to sandwich the online technique between greedy and
//! optimal.

use super::greedy::open_then_swap;
use super::{PlaceError, PlacementContext, Placer};

/// Greedy followed by single-swap local search on the true objective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapLocalSearch;

impl<const D: usize> Placer<D> for SwapLocalSearch {
    fn name(&self) -> &'static str {
        "swap local search"
    }

    fn place(&self, ctx: &PlacementContext<'_, D>) -> Result<Vec<usize>, PlaceError> {
        ctx.check_k()?;
        let mut eval = ctx.problem.objective_eval();
        open_then_swap(&mut eval, ctx.k);
        Ok(eval.placement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementProblem;
    use crate::strategy::greedy::Greedy;
    use crate::strategy::optimal::Optimal;
    use georep_net::rtt::RttMatrix;

    fn fixture() -> RttMatrix {
        RttMatrix::from_fn(18, |i, j| (((i * 29 + j * 31) % 211) + 4) as f64).unwrap()
    }

    fn ctx<'a>(p: &'a PlacementProblem<'a>, k: usize) -> PlacementContext<'a, 1> {
        PlacementContext {
            problem: p,
            coords: &[],
            accesses: &[],
            summaries: &[],
            k,
            seed: 2,
        }
    }

    #[test]
    fn never_worse_than_greedy() {
        let m = fixture();
        let p = PlacementProblem::new(&m, (0..9).collect(), (9..18).collect()).unwrap();
        for k in 1..=4 {
            let c = ctx(&p, k);
            let greedy = p.total_delay(&Greedy.place(&c).unwrap()).unwrap();
            let swapped = p.total_delay(&SwapLocalSearch.place(&c).unwrap()).unwrap();
            assert!(swapped <= greedy + 1e-9, "k = {k}: {swapped} > {greedy}");
        }
    }

    #[test]
    fn bounded_below_by_optimal_and_usually_tight() {
        let m = fixture();
        let p = PlacementProblem::new(&m, (0..9).collect(), (9..18).collect()).unwrap();
        let c = ctx(&p, 3);
        let optimal = p.total_delay(&Optimal.place(&c).unwrap()).unwrap();
        let swapped = p.total_delay(&SwapLocalSearch.place(&c).unwrap()).unwrap();
        assert!(swapped >= optimal - 1e-9);
        assert!(
            swapped <= optimal * 1.05,
            "local search should land within 5% of optimal here: {swapped} vs {optimal}"
        );
    }

    #[test]
    fn returns_k_distinct_members() {
        let m = fixture();
        let p = PlacementProblem::new(&m, (0..9).collect(), (9..18).collect()).unwrap();
        let placement = SwapLocalSearch.place(&ctx(&p, 4)).unwrap();
        assert_eq!(placement.len(), 4);
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(p.validate_placement(&placement).is_ok());
    }
}
