//! Quorum-read delay — the paper's consistency future work.
//!
//! The paper assumes each user reads a single (closest) replica and defers
//! "quorum-based approaches in which users need to access multiple data
//! replicas to ensure stronger consistency". This module evaluates exactly
//! that: with a read quorum of `r`, a client's access completes when the
//! `r`-th fastest replica responds, so its delay is the `r`-th smallest
//! latency to the placement (replicas are contacted in parallel).

use std::error::Error;
use std::fmt;

use crate::problem::{PlacementProblem, ProblemError};

/// Error produced by quorum evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuorumError {
    /// `r` was zero.
    ZeroQuorum,
    /// `r` exceeded the number of replicas.
    QuorumTooLarge {
        /// Requested read quorum.
        r: usize,
        /// Number of replicas placed.
        replicas: usize,
    },
    /// The placement itself was invalid.
    Problem(ProblemError),
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumError::ZeroQuorum => write!(f, "read quorum must be at least 1"),
            QuorumError::QuorumTooLarge { r, replicas } => {
                write!(f, "read quorum {r} exceeds the {replicas} placed replicas")
            }
            QuorumError::Problem(e) => write!(f, "{e}"),
        }
    }
}

impl Error for QuorumError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QuorumError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProblemError> for QuorumError {
    fn from(e: ProblemError) -> Self {
        QuorumError::Problem(e)
    }
}

/// The quorum analogue of the paper's objective:
/// `Σ_u w_u · (r-th smallest latency from u to the placement)`.
///
/// `r = 1` reproduces [`PlacementProblem::total_delay`] exactly.
///
/// # Errors
///
/// See [`QuorumError`].
pub fn quorum_total_delay(
    problem: &PlacementProblem<'_>,
    placement: &[usize],
    r: usize,
) -> Result<f64, QuorumError> {
    let table = problem.cost_table();
    let slots = table
        .slots_for(placement)
        .ok_or(ProblemError::BadPlacement)?;
    if r == 0 {
        return Err(QuorumError::ZeroQuorum);
    }
    if r > placement.len() {
        return Err(QuorumError::QuorumTooLarge {
            r,
            replicas: placement.len(),
        });
    }
    // The cost table stores *raw* delays (weights applied only here), so
    // the r-th order statistic is taken over the same values the
    // per-client path sorts; one reused buffer replaces an allocation per
    // client.
    let mut delays = Vec::with_capacity(slots.len());
    let mut total = 0.0;
    for (row, &w) in problem.weights().iter().enumerate() {
        delays.clear();
        delays.extend(slots.iter().map(|&s| table.delay(s, row)));
        delays.sort_by(f64::total_cmp);
        total += w * delays[r - 1];
    }
    Ok(total)
}

/// Demand-weighted mean quorum delay.
///
/// # Errors
///
/// See [`QuorumError`].
pub fn quorum_mean_delay(
    problem: &PlacementProblem<'_>,
    placement: &[usize],
    r: usize,
) -> Result<f64, QuorumError> {
    Ok(quorum_total_delay(problem, placement, r)? / problem.total_weight())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{DelayOracle, QuorumDelay};
    use georep_net::rtt::RttMatrix;

    fn fixture() -> RttMatrix {
        RttMatrix::from_fn(5, |i, j| (j as f64 - i as f64) * 10.0).unwrap()
    }

    #[test]
    fn r1_matches_closest_replica_objective() {
        let m = fixture();
        let p = PlacementProblem::new(&m, vec![0, 4], vec![1, 2, 3]).unwrap();
        let q1 = quorum_total_delay(&p, &[0, 4], 1).unwrap();
        assert_eq!(q1, p.total_delay(&[0, 4]).unwrap());
    }

    #[test]
    fn higher_quorum_is_slower() {
        let m = fixture();
        let p = PlacementProblem::new(&m, vec![0, 2, 4], vec![1, 3]).unwrap();
        let placement = [0, 2, 4];
        let mut prev = 0.0;
        for r in 1..=3 {
            let d = quorum_mean_delay(&p, &placement, r).unwrap();
            assert!(d >= prev, "quorum delay must be monotone in r");
            prev = d;
        }
    }

    #[test]
    fn r_equals_k_is_farthest_replica() {
        let m = fixture();
        // Client 1: 10 from replica 0, 30 from replica 4.
        assert_eq!(
            QuorumDelay::new(&m, &[1], 2).placement_delay(0, &[0, 4]),
            30.0
        );
    }

    #[test]
    fn errors_are_checked() {
        let m = fixture();
        let p = PlacementProblem::new(&m, vec![0, 4], vec![1]).unwrap();
        assert_eq!(
            quorum_total_delay(&p, &[0, 4], 0),
            Err(QuorumError::ZeroQuorum)
        );
        assert_eq!(
            quorum_total_delay(&p, &[0, 4], 3),
            Err(QuorumError::QuorumTooLarge { r: 3, replicas: 2 })
        );
        assert!(matches!(
            quorum_total_delay(&p, &[], 1),
            Err(QuorumError::Problem(_))
        ));
        assert!(QuorumError::ZeroQuorum.to_string().contains("at least 1"));
    }

    #[test]
    fn placement_that_helps_r1_may_hurt_r2() {
        // With r = 2 a spread-out placement pays the long tail; a compact
        // placement can win. This is why quorum systems re-run placement
        // with the quorum objective.
        let m = RttMatrix::from_rows(&[
            vec![0.0, 10.0, 100.0, 100.0],
            vec![10.0, 0.0, 100.0, 100.0],
            vec![100.0, 100.0, 0.0, 10.0],
            vec![100.0, 100.0, 10.0, 0.0],
        ])
        .unwrap();
        // Clients at 1 and 3; candidates everywhere.
        let p = PlacementProblem::new(&m, vec![0, 2], vec![1, 3]).unwrap();
        let spread = [0, 2];
        // r = 1: each client reads its local replica (10 + 10 = 20).
        assert_eq!(quorum_total_delay(&p, &spread, 1).unwrap(), 20.0);
        // r = 2: each client must also hear the far replica (100 + 100).
        assert_eq!(quorum_total_delay(&p, &spread, 2).unwrap(), 200.0);
    }
}
