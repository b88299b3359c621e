//! The replica placement problem (paper Section II-B).
//!
//! Given data centers `C`, clients `U`, and pairwise latencies `l(u, c)`,
//! choose `R ⊆ C` with `|R| = k` minimizing
//!
//! ```text
//! l(o) = Σ_{u ∈ U} min_{c ∈ R} l(u, c)
//! ```
//!
//! [`PlacementProblem`] carries the candidate set, the client set (with
//! per-client demand weights) and the latency matrix, and evaluates the
//! objective for any concrete placement. Minimizing `l(o)` also minimizes
//! the average access delay, which is what the paper's figures plot.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use georep_net::rtt::RttMatrix;

use crate::objective::{CostTable, IncrementalEval, MatrixDelay, WeightedCosts};

/// Error produced when constructing a [`PlacementProblem`] or evaluating a
/// placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// The candidate set was empty.
    NoCandidates,
    /// The client set was empty.
    NoClients,
    /// A node index exceeded the latency matrix.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the matrix.
        nodes: usize,
    },
    /// A candidate node was listed more than once.
    DuplicateCandidate(usize),
    /// Per-client weights had the wrong arity or invalid values.
    BadWeights,
    /// The evaluated placement was empty or contained a non-candidate.
    BadPlacement,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::NoCandidates => write!(f, "candidate set is empty"),
            ProblemError::NoClients => write!(f, "client set is empty"),
            ProblemError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node matrix")
            }
            ProblemError::DuplicateCandidate(node) => {
                write!(f, "candidate {node} is listed more than once")
            }
            ProblemError::BadWeights => {
                write!(f, "weights must be one positive finite value per client")
            }
            ProblemError::BadPlacement => {
                write!(f, "placement must be a non-empty subset of the candidates")
            }
        }
    }
}

impl Error for ProblemError {}

/// A node that `nodes` lists more than once, if any.
pub(crate) fn repeated_node(nodes: &[usize]) -> Option<usize> {
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// A concrete instance of the replica placement problem.
#[derive(Debug, Clone)]
pub struct PlacementProblem<'a> {
    matrix: &'a RttMatrix,
    candidates: Vec<usize>,
    clients: Vec<usize>,
    /// Per-client demand weight (number of accesses, or bytes). Defaults to
    /// 1 per client.
    weights: Vec<f64>,
    /// Lazily built dense client×candidate cost table, shared by every
    /// strategy that evaluates this instance.
    cost_table: OnceLock<CostTable>,
    /// Lazily built demand-weighted cost slabs over `cost_table`, shared by
    /// every incremental evaluator of this instance.
    objective_costs: OnceLock<WeightedCosts>,
}

impl PartialEq for PlacementProblem<'_> {
    /// Equality over the problem definition; the lazily built cost table is
    /// derived state and deliberately ignored.
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
            && self.candidates == other.candidates
            && self.clients == other.clients
            && self.weights == other.weights
    }
}

impl<'a> PlacementProblem<'a> {
    /// Creates a problem with unit demand per client.
    ///
    /// # Errors
    ///
    /// See [`ProblemError`].
    pub fn new(
        matrix: &'a RttMatrix,
        candidates: Vec<usize>,
        clients: Vec<usize>,
    ) -> Result<Self, ProblemError> {
        let n = clients.len();
        Self::with_weights(matrix, candidates, clients, vec![1.0; n])
    }

    /// Creates a problem with explicit per-client demand weights.
    ///
    /// # Errors
    ///
    /// See [`ProblemError`].
    pub fn with_weights(
        matrix: &'a RttMatrix,
        candidates: Vec<usize>,
        clients: Vec<usize>,
        weights: Vec<f64>,
    ) -> Result<Self, ProblemError> {
        if candidates.is_empty() {
            return Err(ProblemError::NoCandidates);
        }
        if clients.is_empty() {
            return Err(ProblemError::NoClients);
        }
        let nodes = matrix.len();
        if let Some(&node) = candidates.iter().chain(&clients).find(|&&x| x >= nodes) {
            return Err(ProblemError::NodeOutOfRange { node, nodes });
        }
        if let Some(node) = repeated_node(&candidates) {
            return Err(ProblemError::DuplicateCandidate(node));
        }
        if weights.len() != clients.len() || weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(ProblemError::BadWeights);
        }
        Ok(PlacementProblem {
            matrix,
            candidates,
            clients,
            weights,
            cost_table: OnceLock::new(),
            objective_costs: OnceLock::new(),
        })
    }

    /// The dense client×candidate [`CostTable`] of this instance, built on
    /// first use and cached. Strategies share it: each problem pays for the
    /// `|U| × |C|` matrix scan exactly once, no matter how many placers run.
    pub fn cost_table(&self) -> &CostTable {
        self.cost_table.get_or_init(|| {
            CostTable::from_oracle(
                &MatrixDelay::new(self.matrix, &self.clients),
                &self.candidates,
                self.matrix.len(),
                self.clients.len(),
            )
        })
    }

    /// The demand-weighted cost slabs over [`PlacementProblem::cost_table`],
    /// built on first use and cached like the table itself.
    pub fn objective_costs(&self) -> &WeightedCosts {
        self.objective_costs
            .get_or_init(|| WeightedCosts::new(self.cost_table(), &self.weights))
    }

    /// A fresh [`IncrementalEval`] over the cached table and cost slabs —
    /// `O(|U|)` to construct once the caches are warm.
    pub fn objective_eval(&self) -> IncrementalEval<'_> {
        IncrementalEval::with_costs(self.cost_table(), self.objective_costs())
    }

    /// The latency matrix.
    pub fn matrix(&self) -> &RttMatrix {
        self.matrix
    }

    /// The candidate data centers.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// The clients.
    pub fn clients(&self) -> &[usize] {
        &self.clients
    }

    /// Per-client demand weights (aligned with [`PlacementProblem::clients`]).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total demand across clients.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// `l(u, o)`: latency from one client to its closest replica in
    /// `placement`, using true matrix latencies.
    ///
    /// # Panics
    ///
    /// Panics if `placement` is empty (checked APIs below return errors
    /// instead).
    pub fn client_delay(&self, client: usize, placement: &[usize]) -> f64 {
        placement
            .iter()
            .map(|&r| self.matrix.get(client, r))
            .fold(f64::INFINITY, f64::min)
    }

    /// The replica of `placement` closest to `client` (true latencies).
    ///
    /// # Panics
    ///
    /// Panics if `placement` is empty.
    pub fn closest_replica(&self, client: usize, placement: &[usize]) -> usize {
        assert!(!placement.is_empty(), "placement must be non-empty");
        *placement
            .iter()
            .min_by(|&&a, &&b| {
                self.matrix
                    .get(client, a)
                    .total_cmp(&self.matrix.get(client, b))
            })
            .expect("placement is non-empty")
    }

    /// The objective `l(o) = Σ_u w_u · min_{c ∈ R} l(u, c)`.
    ///
    /// # Errors
    ///
    /// [`ProblemError::BadPlacement`] if the placement is empty or not a
    /// subset of the candidates.
    pub fn total_delay(&self, placement: &[usize]) -> Result<f64, ProblemError> {
        let table = self.cost_table();
        let slots = table
            .slots_for(placement)
            .ok_or(ProblemError::BadPlacement)?;
        Ok(table.total_delay(&self.weights, &slots))
    }

    /// The demand-weighted mean access delay, `l(o) / Σ_u w_u` — the y-axis
    /// of the paper's figures.
    ///
    /// # Errors
    ///
    /// Same as [`PlacementProblem::total_delay`].
    pub fn mean_delay(&self, placement: &[usize]) -> Result<f64, ProblemError> {
        Ok(self.total_delay(placement)? / self.total_weight())
    }

    /// Checks that a placement is usable: non-empty, all members candidates.
    /// `O(k)` via the cost table's node→slot remap (the former per-member
    /// scan of the candidate list was `O(k·|C|)`).
    pub fn validate_placement(&self, placement: &[usize]) -> Result<(), ProblemError> {
        if self.cost_table().is_valid_placement(placement) {
            Ok(())
        } else {
            Err(ProblemError::BadPlacement)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> RttMatrix {
        // Node layout on a line: rtt = 10 × |i − j|.
        RttMatrix::from_fn(6, |i, j| 10.0 * (j as f64 - i as f64)).unwrap()
    }

    #[test]
    fn objective_matches_hand_computation() {
        let m = matrix();
        // Candidates at nodes 0 and 5; clients 1..=4.
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1, 2, 3, 4]).unwrap();
        // Placement {0}: delays 10+20+30+40 = 100.
        assert_eq!(p.total_delay(&[0]).unwrap(), 100.0);
        // Placement {0, 5}: delays 10+20+20+10 = 60.
        assert_eq!(p.total_delay(&[0, 5]).unwrap(), 60.0);
        assert_eq!(p.mean_delay(&[0, 5]).unwrap(), 15.0);
    }

    #[test]
    fn weights_scale_the_objective() {
        let m = matrix();
        let p = PlacementProblem::with_weights(&m, vec![0], vec![1, 2], vec![3.0, 1.0]).unwrap();
        // 3·10 + 1·20 = 50.
        assert_eq!(p.total_delay(&[0]).unwrap(), 50.0);
        assert_eq!(p.mean_delay(&[0]).unwrap(), 12.5);
    }

    #[test]
    fn closest_replica_is_nearest() {
        let m = matrix();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1, 4]).unwrap();
        assert_eq!(p.closest_replica(1, &[0, 5]), 0);
        assert_eq!(p.closest_replica(4, &[0, 5]), 5);
    }

    #[test]
    fn more_replicas_never_hurt() {
        let m = matrix();
        let p = PlacementProblem::new(&m, vec![0, 2, 5], vec![1, 3, 4]).unwrap();
        let one = p.total_delay(&[0]).unwrap();
        let two = p.total_delay(&[0, 5]).unwrap();
        let three = p.total_delay(&[0, 2, 5]).unwrap();
        assert!(two <= one);
        assert!(three <= two);
    }

    #[test]
    fn construction_errors() {
        let m = matrix();
        assert_eq!(
            PlacementProblem::new(&m, vec![], vec![1]),
            Err(ProblemError::NoCandidates)
        );
        assert_eq!(
            PlacementProblem::new(&m, vec![0], vec![]),
            Err(ProblemError::NoClients)
        );
        assert_eq!(
            PlacementProblem::new(&m, vec![9], vec![1]),
            Err(ProblemError::NodeOutOfRange { node: 9, nodes: 6 })
        );
        assert_eq!(
            PlacementProblem::new(&m, vec![5, 0, 5], vec![1]),
            Err(ProblemError::DuplicateCandidate(5))
        );
        assert_eq!(
            PlacementProblem::with_weights(&m, vec![0], vec![1], vec![0.0]),
            Err(ProblemError::BadWeights)
        );
        assert_eq!(
            PlacementProblem::with_weights(&m, vec![0], vec![1], vec![1.0, 2.0]),
            Err(ProblemError::BadWeights)
        );
    }

    #[test]
    fn placement_validation() {
        let m = matrix();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1]).unwrap();
        assert_eq!(p.total_delay(&[]), Err(ProblemError::BadPlacement));
        assert_eq!(p.total_delay(&[3]), Err(ProblemError::BadPlacement));
        assert!(p.total_delay(&[5]).is_ok());
    }

    #[test]
    fn cost_table_is_cached_and_ignored_by_equality() {
        let m = matrix();
        let p = PlacementProblem::new(&m, vec![0, 5], vec![1, 2]).unwrap();
        let fresh = p.clone();
        // Force the cache on one copy only; equality must not care.
        let t = p.cost_table() as *const _;
        assert_eq!(
            p.cost_table() as *const _,
            t,
            "second call reuses the table"
        );
        assert_eq!(p, fresh);
        // The table agrees with the direct evaluation path.
        let slots = p.cost_table().slots_for(&[0, 5]).unwrap();
        assert_eq!(
            p.cost_table().total_delay(p.weights(), &slots),
            p.total_delay(&[0, 5]).unwrap()
        );
    }

    #[test]
    fn error_display() {
        assert!(ProblemError::NoCandidates.to_string().contains("candidate"));
        assert!(ProblemError::NodeOutOfRange { node: 9, nodes: 6 }
            .to_string()
            .contains("9"));
    }
}
