//! Availability-aware placement: spread replicas across failure domains
//! subject to a delay budget.
//!
//! The delay-optimal strategies concentrate replicas wherever demand is —
//! which, under the correlated failures of [`crate::domains`], routinely
//! means one rack. Mills et al. show the resulting fragility: a single
//! rack or DC event kills every replica at once. [`place_spread`] trades
//! a bounded amount of delay for survival:
//!
//! 1. run the deterministic delay-greedy baseline
//!    ([`Greedy`](super::greedy::Greedy)) to get the delay-optimal anchor;
//! 2. set the budget `baseline_total · (1 + delay_slack)`;
//! 3. hill-climb over single-replica swaps, accepting the swap that most
//!    increases the *exact analytic* survival probability
//!    ([`crate::domains::DomainTree::survival_probability`]) while
//!    keeping total delay within the budget (ties broken toward lower
//!    delay, then lowest swap index — fully deterministic, no RNG).
//!
//! Because only survival-improving swaps are ever accepted, the outcome's
//! survival is ≥ the baseline's *by construction*, and its delay is within
//! `1 + delay_slack` of delay-optimal — the two sides of the
//! (delay, survival) front `tests/domain_scenarios.rs` checks per topology
//! family.

use super::greedy::greedy_fill;
use super::PlaceError;
use crate::domains::DomainTree;
use crate::problem::PlacementProblem;

/// Safety cap on hill-climb rounds (each round commits at most one swap;
/// the climb stops earlier as soon as no swap improves survival).
const MAX_ROUNDS: usize = 64;

/// Parameters of the spread hill-climb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpreadConfig {
    /// Fractional delay budget over the greedy baseline: the final
    /// placement's total delay is at most `baseline · (1 + delay_slack)`.
    pub delay_slack: f64,
}

impl Default for SpreadConfig {
    fn default() -> Self {
        SpreadConfig { delay_slack: 0.25 }
    }
}

/// Result of [`place_spread`]: the availability-aware placement next to
/// the delay-greedy baseline it budgeted against.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadOutcome {
    /// The availability-aware placement (node ids, `k` distinct).
    pub placement: Vec<usize>,
    /// The delay-greedy baseline placement.
    pub baseline: Vec<usize>,
    /// Mean client delay of `placement`, ms.
    pub delay_ms: f64,
    /// Mean client delay of `baseline`, ms.
    pub baseline_delay_ms: f64,
    /// Exact analytic survival probability of `placement`.
    pub survival: f64,
    /// Exact analytic survival probability of `baseline`.
    pub baseline_survival: f64,
}

/// Places `k` replicas spreading across `tree`'s failure domains while
/// staying within `config.delay_slack` of the delay-greedy baseline.
///
/// # Errors
///
/// [`PlaceError::ZeroK`] / [`PlaceError::KTooLarge`] for a bad `k`;
/// [`PlaceError::MissingData`] when `tree` does not cover the problem's
/// matrix; [`PlaceError::InvalidBudget`] for a non-finite or negative
/// `delay_slack` — the swap hill-climb would otherwise degrade to the
/// unbudgeted baseline without telling anyone.
pub fn place_spread(
    problem: &PlacementProblem<'_>,
    tree: &DomainTree,
    k: usize,
    config: SpreadConfig,
) -> Result<SpreadOutcome, PlaceError> {
    if k == 0 {
        return Err(PlaceError::ZeroK);
    }
    if k > problem.candidates().len() {
        return Err(PlaceError::KTooLarge {
            k,
            candidates: problem.candidates().len(),
        });
    }
    if tree.nodes() != problem.matrix().len() {
        return Err(PlaceError::MissingData(
            "a domain tree covering every matrix node",
        ));
    }
    if !(config.delay_slack.is_finite() && config.delay_slack >= 0.0) {
        return Err(PlaceError::InvalidBudget {
            what: "delay_slack",
            value: config.delay_slack,
        });
    }

    let mut eval = problem.objective_eval();
    greedy_fill(&mut eval, k);
    let baseline = eval.placement();
    let baseline_total = eval.total();
    let budget = baseline_total * (1.0 + config.delay_slack);

    let survival_of = |placement: &[usize]| -> f64 {
        tree.survival_probability(placement)
            .expect("placement nodes are matrix indices inside the tree")
    };
    let baseline_survival = survival_of(&baseline);

    let table = eval.table();
    let n_slots = table.n_candidates();
    let mut survival = baseline_survival;
    for _ in 0..MAX_ROUNDS {
        let current = eval.placement();
        // Best swap this round: strictly better survival, then lower
        // total delay, then lowest (pos, slot) — a total deterministic
        // order.
        let mut best: Option<(usize, usize, f64, f64)> = None;
        for pos in 0..k {
            for slot in 0..n_slots {
                let node = table.site_of(slot);
                if current.contains(&node) {
                    continue;
                }
                let total = eval.swap_total(pos, slot);
                if total > budget {
                    continue;
                }
                let mut trial = current.clone();
                trial[pos] = node;
                let s = survival_of(&trial);
                if s <= survival {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, _, bs, bt)) => match s.total_cmp(&bs) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => total < bt,
                    },
                };
                if better {
                    best = Some((pos, slot, s, total));
                }
            }
        }
        match best {
            Some((pos, slot, s, _)) => {
                eval.commit_swap(pos, slot);
                survival = s;
            }
            None => break,
        }
    }

    let placement = eval.placement();
    let delay_ms = problem.mean_delay(&placement)?;
    let baseline_delay_ms = problem.mean_delay(&baseline)?;
    Ok(SpreadOutcome {
        placement,
        baseline,
        delay_ms,
        baseline_delay_ms,
        survival,
        baseline_survival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::DomainConfig;
    use georep_net::rtt::RttMatrix;

    /// A 24-node matrix where the 6 candidates in rack 0 (nodes 0..4) are
    /// blazingly close to all demand and everything else is far: greedy
    /// packs one rack, spread must leave it when given slack.
    fn packed_world() -> (RttMatrix, Vec<usize>, Vec<usize>) {
        let m = RttMatrix::from_fn(24, |i, j| {
            let near = |n: usize| n < 4;
            match (near(i), near(j)) {
                (true, true) => 1.0,
                (true, false) | (false, true) => 10.0,
                (false, false) => 40.0,
            }
        })
        .unwrap();
        let candidates: Vec<usize> = vec![0, 1, 2, 3, 8, 16];
        let clients: Vec<usize> = (4..8).collect();
        (m, candidates, clients)
    }

    fn tree24() -> DomainTree {
        DomainTree::new(24, DomainConfig::default()).unwrap()
    }

    #[test]
    fn zero_slack_keeps_the_greedy_baseline_delay() {
        let (m, cands, clients) = packed_world();
        let p = PlacementProblem::new(&m, cands, clients).unwrap();
        let out = place_spread(&p, &tree24(), 3, SpreadConfig { delay_slack: 0.0 }).unwrap();
        // With zero slack only equal-delay swaps are allowed; survival can
        // only have improved if such a swap existed.
        assert!(out.delay_ms <= out.baseline_delay_ms + 1e-9);
        assert!(out.survival >= out.baseline_survival);
    }

    #[test]
    fn generous_slack_buys_strictly_better_survival() {
        let (m, cands, clients) = packed_world();
        let p = PlacementProblem::new(&m, cands, clients).unwrap();
        let out = place_spread(&p, &tree24(), 3, SpreadConfig { delay_slack: 50.0 }).unwrap();
        // Greedy packs nodes 0..3 (one rack); the huge budget lets spread
        // reach nodes 8 and 16 in other regions.
        assert!(
            out.survival > out.baseline_survival,
            "spread {:.4} vs baseline {:.4}",
            out.survival,
            out.baseline_survival
        );
        let regions: std::collections::HashSet<usize> = out
            .placement
            .iter()
            .map(|&n| tree24().region_of(n))
            .collect();
        assert!(regions.len() > 1, "placement {:?}", out.placement);
        // The budget is still respected.
        assert!(out.delay_ms <= out.baseline_delay_ms * 51.0 + 1e-9);
    }

    #[test]
    fn survival_never_regresses_and_is_deterministic() {
        let (m, cands, clients) = packed_world();
        let p = PlacementProblem::new(&m, cands, clients).unwrap();
        for slack in [0.0, 0.1, 0.25, 1.0, 4.0] {
            let cfg = SpreadConfig { delay_slack: slack };
            let a = place_spread(&p, &tree24(), 3, cfg).unwrap();
            let b = place_spread(&p, &tree24(), 3, cfg).unwrap();
            assert_eq!(a, b, "slack {slack}");
            assert!(a.survival >= a.baseline_survival, "slack {slack}");
            assert_eq!(a.placement.len(), 3);
            assert!(p.validate_placement(&a.placement).is_ok());
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let (m, cands, clients) = packed_world();
        let p = PlacementProblem::new(&m, cands, clients).unwrap();
        assert!(matches!(
            place_spread(&p, &tree24(), 0, SpreadConfig::default()),
            Err(PlaceError::ZeroK)
        ));
        assert!(matches!(
            place_spread(&p, &tree24(), 7, SpreadConfig::default()),
            Err(PlaceError::KTooLarge { k: 7, .. })
        ));
        let small_tree = DomainTree::new(12, DomainConfig::default()).unwrap();
        assert!(matches!(
            place_spread(&p, &small_tree, 3, SpreadConfig::default()),
            Err(PlaceError::MissingData(_))
        ));
        // A bad slack budget is a typed error, never a silent baseline.
        for bad_slack in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let err = place_spread(
                &p,
                &tree24(),
                3,
                SpreadConfig {
                    delay_slack: bad_slack,
                },
            )
            .unwrap_err();
            match err {
                PlaceError::InvalidBudget { what, value } => {
                    assert_eq!(what, "delay_slack");
                    assert!(value.to_bits() == bad_slack.to_bits());
                }
                other => panic!("expected InvalidBudget for {bad_slack}, got {other:?}"),
            }
            assert!(err.to_string().contains("delay_slack"));
        }
    }
}
