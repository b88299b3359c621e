//! [`CostTable`]: a dense, candidate-major snapshot of a delay oracle.
//!
//! Placement search reads the same `|C| × n` client–candidate delays over
//! and over: greedy touches every pair per step, local search per trial
//! swap, exhaustive search per combination. The table materializes them
//! once — candidate-major, so a strategy scanning "all clients against one
//! candidate" walks a contiguous row — and adds the `O(1)` node →
//! candidate-slot remap that replaces the `O(|C|)` `contains` scans
//! previously buried in validation and strategy inner loops.

use super::oracle::DelayOracle;

/// Dense candidate-major cost matrix over a placement instance.
///
/// Rows are demand points (`0..n_rows`), columns are the candidate sites in
/// their original order; `delays[slot · n_rows + row]` holds the oracle
/// delay between demand row `row` and candidate slot `slot`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    n_rows: usize,
    /// Candidate node ids, in problem order (`slot → node`).
    candidates: Vec<usize>,
    /// `node → slot + 1`; `0` marks a non-candidate. Sized to the topology.
    slot_of_node: Vec<u32>,
    /// Candidate-major delays (row-contiguous per candidate).
    delays: Vec<f64>,
}

impl CostTable {
    /// Materializes `oracle` over `n_rows` demand rows and `candidates`
    /// drawn from a topology of `n_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if a candidate id is out of range for `n_nodes`, or if the
    /// candidate count overflows the slot encoding (> `u32::MAX - 1`, far
    /// beyond any real deployment).
    pub fn from_oracle<O: DelayOracle>(
        oracle: &O,
        candidates: &[usize],
        n_nodes: usize,
        n_rows: usize,
    ) -> CostTable {
        assert!(
            candidates.len() < u32::MAX as usize,
            "candidate set too large for the slot encoding"
        );
        let mut slot_of_node = vec![0u32; n_nodes];
        for (slot, &node) in candidates.iter().enumerate() {
            assert!(node < n_nodes, "candidate {node} out of range");
            // First-wins for duplicated candidate entries, matching the
            // `iter().position()` scans this map replaces.
            if slot_of_node[node] == 0 {
                slot_of_node[node] = slot as u32 + 1;
            }
        }
        let mut delays = Vec::with_capacity(candidates.len() * n_rows);
        for &site in candidates {
            for row in 0..n_rows {
                delays.push(oracle.delay(row, site));
            }
        }
        CostTable {
            n_rows,
            candidates: candidates.to_vec(),
            slot_of_node,
            delays,
        }
    }

    /// Number of demand rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of candidate sites.
    pub fn n_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Candidate node ids in slot order.
    pub fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// The candidate slot of `node`, or `None` when `node` is not a
    /// candidate — the `O(1)` replacement for `candidates.contains(&node)`.
    pub fn slot_of(&self, node: usize) -> Option<usize> {
        match self.slot_of_node.get(node) {
            Some(&s) if s != 0 => Some(s as usize - 1),
            _ => None,
        }
    }

    /// The node id occupying candidate slot `slot`.
    pub fn site_of(&self, slot: usize) -> usize {
        self.candidates[slot]
    }

    /// The contiguous per-client delay row of candidate `slot`.
    pub fn row(&self, slot: usize) -> &[f64] {
        &self.delays[slot * self.n_rows..(slot + 1) * self.n_rows]
    }

    /// Delay between demand row `row` and candidate `slot`.
    #[inline]
    pub fn delay(&self, slot: usize, row: usize) -> f64 {
        self.delays[slot * self.n_rows + row]
    }

    /// Maps a placement of node ids onto candidate slots; `None` when the
    /// placement is empty or contains a non-candidate (the conditions of
    /// [`crate::problem::ProblemError::BadPlacement`]).
    pub fn slots_for(&self, placement: &[usize]) -> Option<Vec<usize>> {
        if placement.is_empty() {
            return None;
        }
        placement.iter().map(|&node| self.slot_of(node)).collect()
    }

    /// Allocation-free version of [`CostTable::slots_for`]'s validity check:
    /// non-empty and every member a candidate.
    pub fn is_valid_placement(&self, placement: &[usize]) -> bool {
        !placement.is_empty() && placement.iter().all(|&node| self.slot_of(node).is_some())
    }

    /// Smallest delay from `row` to any of `slots` (in slot order — a pure
    /// selection, bit-identical to folding the raw delays).
    pub fn min_delay(&self, row: usize, slots: &[usize]) -> f64 {
        let mut min = f64::INFINITY;
        for &s in slots {
            let d = self.delay(s, row);
            if d < min {
                min = d;
            }
        }
        min
    }

    /// The objective `Σ_row w_row · min_slot delay` over `slots`, summed in
    /// row order (matching the straightforward per-client evaluation).
    pub fn total_delay(&self, weights: &[f64], slots: &[usize]) -> f64 {
        debug_assert_eq!(weights.len(), self.n_rows);
        let mut total = 0.0;
        for (row, &w) in weights.iter().enumerate() {
            total += w * self.min_delay(row, slots);
        }
        total
    }

    /// Writes the demand-weighted costs into `out`, replacing its contents
    /// and keeping its allocation: candidate-major like [`CostTable::row`],
    /// `w_row · delay(slot, row)`. The incremental evaluator precomputes
    /// these so its inner loops skip the per-trial multiplication.
    pub fn weighted_costs_into(&self, weights: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(weights.len(), self.n_rows);
        out.clear();
        out.reserve(self.delays.len());
        for slot in 0..self.candidates.len() {
            out.extend(self.row(slot).iter().zip(weights).map(|(d, &w)| w * d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::oracle::MatrixDelay;
    use super::*;
    use georep_net::rtt::RttMatrix;

    fn table() -> CostTable {
        let m = RttMatrix::from_fn(6, |i, j| 10.0 * (j as f64 - i as f64)).unwrap();
        let clients = vec![1usize, 2, 4];
        let oracle = MatrixDelay::new(&m, &clients);
        // Leak-free: build from locals, table owns its data.
        CostTable::from_oracle(&oracle, &[0, 5], 6, 3)
    }

    #[test]
    fn rows_are_candidate_major() {
        let t = table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_candidates(), 2);
        // Candidate 0 serves clients 1, 2, 4 at 10/20/40.
        assert_eq!(t.row(0), &[10.0, 20.0, 40.0]);
        // Candidate 5 at 40/30/10.
        assert_eq!(t.row(1), &[40.0, 30.0, 10.0]);
        assert_eq!(t.delay(1, 2), 10.0);
        assert_eq!(t.site_of(1), 5);
    }

    #[test]
    fn slot_remap_is_exact() {
        let t = table();
        assert_eq!(t.slot_of(0), Some(0));
        assert_eq!(t.slot_of(5), Some(1));
        assert_eq!(t.slot_of(3), None);
        assert_eq!(t.slot_of(99), None);
        assert_eq!(t.slots_for(&[5, 0]), Some(vec![1, 0]));
        assert_eq!(t.slots_for(&[5, 3]), None);
        assert_eq!(t.slots_for(&[]), None);
        assert!(t.is_valid_placement(&[5, 0]));
        assert!(!t.is_valid_placement(&[5, 3]));
        assert!(!t.is_valid_placement(&[]));
    }

    #[test]
    fn objective_matches_hand_computation() {
        let t = table();
        let w = [1.0, 1.0, 1.0];
        // Placement {0}: 10+20+40.
        assert_eq!(t.total_delay(&w, &[0]), 70.0);
        // Placement {0, 5}: 10+20+10.
        assert_eq!(t.total_delay(&w, &[0, 1]), 40.0);
        assert_eq!(t.min_delay(2, &[0, 1]), 10.0);
    }

    #[test]
    fn weighted_costs_premultiply() {
        let t = table();
        let w = [2.0, 1.0, 0.5];
        let mut wc = vec![1.0; 9];
        t.weighted_costs_into(&w, &mut wc);
        assert_eq!(&wc[..3], &[20.0, 20.0, 20.0]);
        assert_eq!(&wc[3..], &[80.0, 30.0, 5.0]);
    }
}
