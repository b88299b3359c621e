//! Replica failure injection — the paper's availability future work.
//!
//! The paper's conclusion plans to "take into account … data availability".
//! This module quantifies it: when replicas fail, surviving replicas absorb
//! the failed ones' clients, and the access delay degrades accordingly.

use std::collections::HashSet;

use crate::problem::{PlacementProblem, ProblemError};

/// The placement with the failed replicas removed (order preserved).
pub fn surviving(placement: &[usize], failed: &HashSet<usize>) -> Vec<usize> {
    placement
        .iter()
        .copied()
        .filter(|r| !failed.contains(r))
        .collect()
}

/// Demand-weighted mean delay after the given replicas fail.
///
/// Returns `Ok(None)` when *every* replica failed (the object is
/// unavailable — there is no finite delay to report).
///
/// # Errors
///
/// Propagates [`ProblemError`] when the surviving placement is invalid for
/// the problem (e.g. contains non-candidates).
pub fn degraded_mean_delay(
    problem: &PlacementProblem<'_>,
    placement: &[usize],
    failed: &HashSet<usize>,
) -> Result<Option<f64>, ProblemError> {
    let alive = surviving(placement, failed);
    if alive.is_empty() {
        return Ok(None);
    }
    problem.mean_delay(&alive).map(Some)
}

/// Impact of each *single* replica failure: for every replica in the
/// placement, the mean delay after just that replica fails. Sorted
/// worst-first, so the head of the result is the placement's availability
/// Achilles' heel.
///
/// # Errors
///
/// Propagates [`ProblemError`] for invalid placements. Placements with a
/// single replica yield an empty result (losing it makes the object
/// unavailable rather than slow).
pub fn single_failure_impact(
    problem: &PlacementProblem<'_>,
    placement: &[usize],
) -> Result<Vec<(usize, f64)>, ProblemError> {
    problem.validate_placement(placement)?;
    if placement.len() < 2 {
        return Ok(Vec::new());
    }
    let mut impacts = Vec::with_capacity(placement.len());
    for &r in placement {
        let failed: HashSet<usize> = [r].into_iter().collect();
        let delay = degraded_mean_delay(problem, placement, &failed)?
            .expect("≥ 2 replicas means one survives");
        impacts.push((r, delay));
    }
    impacts.sort_by(|a, b| b.1.total_cmp(&a.1));
    Ok(impacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::rtt::RttMatrix;

    fn fixture() -> RttMatrix {
        RttMatrix::from_fn(6, |i, j| (j as f64 - i as f64) * 10.0).unwrap()
    }

    #[test]
    fn surviving_filters_failed() {
        let failed: HashSet<usize> = [3].into_iter().collect();
        assert_eq!(surviving(&[0, 3, 5], &failed), vec![0, 5]);
        assert_eq!(surviving(&[3], &failed), Vec::<usize>::new());
    }

    #[test]
    fn failure_degrades_delay() {
        let m = fixture();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1, 4]).unwrap();
        let healthy = p.mean_delay(&[0, 5]).unwrap();
        let failed: HashSet<usize> = [5].into_iter().collect();
        let degraded = degraded_mean_delay(&p, &[0, 5], &failed).unwrap().unwrap();
        assert!(
            degraded > healthy,
            "degraded {degraded} vs healthy {healthy}"
        );
        // Clients 1 and 4 both go to node 0: (10 + 40) / 2.
        assert_eq!(degraded, 25.0);
    }

    #[test]
    fn total_failure_is_none() {
        let m = fixture();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1]).unwrap();
        let failed: HashSet<usize> = [0, 5].into_iter().collect();
        assert_eq!(degraded_mean_delay(&p, &[0, 5], &failed).unwrap(), None);
    }

    #[test]
    fn impact_ranks_worst_first() {
        let m = fixture();
        // Clients 1, 2 near node 0; client 4 near node 5. Losing node 0
        // hurts two clients; losing node 5 hurts one.
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1, 2, 4]).unwrap();
        let impacts = single_failure_impact(&p, &[0, 5]).unwrap();
        assert_eq!(impacts.len(), 2);
        assert_eq!(impacts[0].0, 0, "losing node 0 must rank worst");
        assert!(impacts[0].1 > impacts[1].1);
    }

    #[test]
    fn single_replica_has_no_survivable_failure() {
        let m = fixture();
        let p = PlacementProblem::new(&m, vec![0], vec![1]).unwrap();
        assert!(single_failure_impact(&p, &[0]).unwrap().is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        use crate::hash::splitmix64_next;

        /// A symmetric pseudo-random RTT matrix, entries in [10, 510) ms.
        fn random_matrix(n: usize, seed: u64) -> RttMatrix {
            RttMatrix::from_fn(n, |i, j| {
                if i == j {
                    0.0
                } else {
                    let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
                    let mut s = seed ^ (lo * 1001 + hi);
                    10.0 + (splitmix64_next(&mut s) % 500) as f64
                }
            })
            .expect("symmetric non-negative matrix is valid")
        }

        /// The mean delay recomputed from scratch: every client walks to
        /// its nearest *surviving* replica, no cost tables involved.
        fn brute_force_mean(
            matrix: &RttMatrix,
            clients: &[usize],
            placement: &[usize],
            failed: &HashSet<usize>,
        ) -> Option<f64> {
            let alive: Vec<usize> = placement
                .iter()
                .copied()
                .filter(|r| !failed.contains(r))
                .collect();
            if alive.is_empty() {
                return None;
            }
            let total: f64 = clients
                .iter()
                .map(|&c| {
                    alive
                        .iter()
                        .map(|&r| matrix.get(c, r))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum();
            Some(total / clients.len() as f64)
        }

        proptest! {
            #[test]
            fn degraded_mean_delay_matches_brute_force(
                seed in 0u64..1_000_000,
                n in 8usize..16,
                fail_mask in 0u32..16,
            ) {
                let m = random_matrix(n, seed);
                let candidates: Vec<usize> = (0..n).step_by(2).collect();
                let clients: Vec<usize> = (0..n).collect();
                let placement: Vec<usize> =
                    candidates.iter().copied().take(4).collect();
                let failed: HashSet<usize> = placement
                    .iter()
                    .enumerate()
                    .filter(|(slot, _)| fail_mask & (1 << slot) != 0)
                    .map(|(_, &r)| r)
                    .collect();
                let p = PlacementProblem::new(&m, candidates, clients.clone())
                    .expect("valid problem");
                let got = degraded_mean_delay(&p, &placement, &failed)
                    .expect("valid placement");
                let want = brute_force_mean(&m, &clients, &placement, &failed);
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => prop_assert!(
                        (g - w).abs() < 1e-9,
                        "cost tables {g} vs brute force {w}"
                    ),
                    other => prop_assert!(false, "mismatch: {other:?}"),
                }
            }

            #[test]
            fn single_failure_impact_matches_brute_force(
                seed in 0u64..1_000_000,
                n in 8usize..16,
            ) {
                let m = random_matrix(n, seed);
                let candidates: Vec<usize> = (0..n).step_by(2).collect();
                let clients: Vec<usize> = (0..n).collect();
                let placement: Vec<usize> =
                    candidates.iter().copied().take(3).collect();
                let p = PlacementProblem::new(&m, candidates, clients.clone())
                    .expect("valid problem");
                let impacts = single_failure_impact(&p, &placement)
                    .expect("valid placement");
                prop_assert_eq!(impacts.len(), placement.len());
                // Sorted worst-first …
                for pair in impacts.windows(2) {
                    prop_assert!(pair[0].1 >= pair[1].1);
                }
                // … and each entry is exactly the from-scratch recomputation.
                for &(r, delay) in &impacts {
                    let failed: HashSet<usize> = [r].into_iter().collect();
                    let want = brute_force_mean(&m, &clients, &placement, &failed)
                        .expect("two replicas survive");
                    prop_assert!(
                        (delay - want).abs() < 1e-9,
                        "replica {r}: {delay} vs {want}"
                    );
                }
            }
        }
    }
}
