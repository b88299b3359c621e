//! [`IncrementalEval`]: O(n) scoring of single-replica additions and swaps.
//!
//! Greedy placement and local search both score trial placements that
//! differ from the current one by a single replica. Re-summing the full
//! objective makes every trial `O(n·k)`; tracking each demand row's nearest
//! and second-nearest replica makes it `O(n)`:
//!
//! * **add** `s`: the row's new cost is `min(best, cost(s))` — the existing
//!   nearest replica only ever gets undercut;
//! * **swap** `pos → s`: removing position `pos` exposes `second` exactly
//!   when `pos` held the nearest replica, so the row's new cost is
//!   `min(pos == best_pos ? second : best, cost(s))`.
//!
//! Both are *selections over the same weighted costs* the from-scratch
//! evaluation would multiply and compare, so the totals are bit-for-bit
//! identical to [`super::CostTable::total_delay`] (see the property tests
//! at the bottom of this module). The `*_pruned` variants additionally bail
//! out as soon as the partial sum reaches a caller-supplied bound, which is
//! sound because the costs are non-negative (checked at construction) and
//! callers accept improvements strictly below the bound.
//!
//! On top of the exact partial-sum exit, the pruned variants carry a
//! *suffix lookahead*: per demand row, no trial can cost less than
//! `min(rest, floor)` where `floor` is the row's cheapest candidate
//! anywhere and `rest` is what the unchanged replicas already provide, so
//! precomputed suffix sums of that optimistic remainder give a lower bound
//! on every trial's final total at every row. A trial whose partial sum
//! plus optimistic remainder already reaches the bound aborts immediately —
//! typically within a handful of rows, because most of the objective is
//! irreducible baseline delay shared by all trials. The suffix sums are
//! associated differently than the row-order evaluation, so the comparison
//! is shaved by a rounding margin (`≈ n·ε`, scale-aware) and can only
//! under-prune, never misprune: a pruned trial provably reaches the bound.

use std::borrow::Cow;
use std::cell::RefCell;

use super::table::CostTable;

/// Rows per prune check in the scan loops: long enough to amortize the
/// threshold comparison, short enough that a prunable trial stops within a
/// few cache lines of where it became hopeless.
const BLOCK: usize = 8;

/// The demand-weighted cost slab every evaluator of a problem shares:
/// `w_row · delay` in the candidate-major layout of the [`CostTable`], plus
/// the per-row floor the lookahead prune needs. Building it is the `O(rows
/// × candidates)` part of evaluator construction, so problems cache one
/// (see `PlacementProblem::objective_costs`) and hand out borrows.
#[derive(Debug, Clone)]
pub struct WeightedCosts {
    /// Demand-weighted costs, candidate-major (`w_row · delay`).
    wcost: Vec<f64>,
    /// Per-row minimum weighted cost over *all* candidate slots — the
    /// cheapest any trial could ever make that row. Empty when `!prunable`.
    floor: Vec<f64>,
    /// All weighted costs are non-negative, so partial sums are monotone
    /// and bound-based early exit cannot misprune.
    prunable: bool,
    /// Safety factor absorbing the re-association error between the
    /// precomputed suffix sums and the row-order partial sums they bound.
    margin: f64,
    /// Per-candidate row-order sum of `wcost` — the objective of the
    /// single-replica placement `{slot}`, which no placement state affects.
    /// Greedy's first step reads these instead of scanning columns.
    column_sums: Vec<f64>,
    n_rows: usize,
}

impl WeightedCosts {
    /// Weighted costs of `table` under per-row `weights`.
    pub fn new(table: &CostTable, weights: &[f64]) -> Self {
        let mut costs = WeightedCosts::empty();
        costs.refill(table, weights);
        costs
    }

    /// A slab over no table, for [`WeightedCosts::refill`] to fill.
    pub(crate) fn empty() -> Self {
        WeightedCosts {
            wcost: Vec::new(),
            floor: Vec::new(),
            prunable: true,
            margin: 1.0,
            column_sums: Vec::new(),
            n_rows: 0,
        }
    }

    /// Rebuilds the slab in place as the weighted costs of `table` under
    /// per-row `weights` — bit-identical to [`WeightedCosts::new`], reusing
    /// the slab's allocations, so a solver that re-solves as its weights
    /// change pays for the fill and not for the memory.
    pub(crate) fn refill(&mut self, table: &CostTable, weights: &[f64]) {
        assert_eq!(weights.len(), table.n_rows(), "one weight per demand row");
        let n = table.n_rows();
        table.weighted_costs_into(weights, &mut self.wcost);
        self.floor.clear();
        self.column_sums.clear();
        if n == 0 {
            self.prunable = true;
            self.column_sums.resize(table.n_candidates(), 0.0);
        } else {
            // One branch-free pass finds every row's floor and whether any
            // cost is negative (or NaN); an unprunable slab keeps no floor.
            self.floor.resize(n, f64::INFINITY);
            let mut negative = false;
            for col in self.wcost.chunks_exact(n) {
                for (f, &c) in self.floor.iter_mut().zip(col) {
                    negative |= (c < 0.0) | c.is_nan();
                    *f = if c < *f { c } else { *f };
                }
            }
            self.prunable = !negative;
            if negative {
                self.floor.clear();
            }
            let sums = self
                .wcost
                .chunks_exact(n)
                .map(|col| col.iter().sum::<f64>());
            self.column_sums.extend(sums);
        }
        self.margin = 1.0 - 8.0 * (n as f64 + 8.0) * f64::EPSILON;
        self.n_rows = n;
    }

    /// The objective of each single-replica placement `{slot}`, candidate
    /// by candidate — bit-identical to summing the column in row order.
    pub fn column_sums(&self) -> &[f64] {
        &self.column_sums
    }

    /// The demand-weighted costs, candidate-major (`w_row · delay`).
    pub fn wcost(&self) -> &[f64] {
        &self.wcost
    }

    /// Whether every weighted cost is non-negative (bound pruning is sound).
    pub fn is_prunable(&self) -> bool {
        self.prunable
    }
}

/// Lazily (re)built caches for the lookahead prune, keyed by the placement
/// version they were computed against.
#[derive(Debug, Clone, Default)]
struct Lookahead {
    /// Placement version the caches below match; caches are dropped
    /// wholesale when the evaluator commits a change.
    version: u64,
    /// `add[r] = Σ_{r' ≥ r} min(best[r'], floor[r'])` — empty until an
    /// add-trial needs it.
    add: Vec<f64>,
    /// Prune thresholds for the add path: a partial sum at row `r` that
    /// reaches `add_thresh[r]` provably ends at or above `add_bound`.
    add_thresh: Vec<f64>,
    /// The bound `add_thresh` was derived for (`NAN` bits = none yet).
    add_bound: u64,
    /// Which swap position the three caches below were built for, if any.
    swap_pos: Option<usize>,
    /// Dense "what the unchanged replicas provide" per row for `swap_pos`
    /// (`second` where the position is the row's best, `best` otherwise).
    rest: Vec<f64>,
    /// `swap[r] = Σ_{r' ≥ r} min(rest[r'], floor[r'])` for `swap_pos`.
    swap: Vec<f64>,
    /// Prune thresholds for the swap path, as `add_thresh`.
    swap_thresh: Vec<f64>,
    /// The bound `swap_thresh` was derived for (`NAN` bits = none yet).
    swap_bound: u64,
}

/// Rebuilds `thresh[r] = bound / margin − ahead[r]` so scan loops compare
/// their partial sum against one preloaded value per block instead of
/// re-deriving the lookahead inequality per row. The division and
/// subtraction round within a couple of ulps, well inside the margin's
/// slack, and can only weaken the prune, never unsound it.
fn rebuild_thresh(thresh: &mut Vec<f64>, ahead: &[f64], bound: f64, margin: f64) {
    let scaled = bound / margin;
    thresh.clear();
    thresh.extend(ahead.iter().map(|&a| scaled - a));
}

/// Incremental objective evaluator over a [`CostTable`].
///
/// Holds the current placement as candidate *slots* plus, per demand row,
/// the weighted cost of its nearest replica (`best`), which placement
/// position provides it (`best_pos`, first-wins on ties), and the weighted
/// cost of the nearest replica outside that position (`second`).
#[derive(Debug, Clone)]
pub struct IncrementalEval<'a> {
    table: &'a CostTable,
    /// Weighted cost slabs — borrowed from the problem's cache when
    /// available, owned otherwise.
    costs: Cow<'a, WeightedCosts>,
    slots: Vec<usize>,
    best: Vec<f64>,
    best_pos: Vec<usize>,
    second: Vec<f64>,
    /// Bumped on every committed change; invalidates `lookahead`.
    version: u64,
    lookahead: RefCell<Lookahead>,
}

impl<'a> IncrementalEval<'a> {
    /// Evaluator for `table` under per-row `weights`, starting from an
    /// empty placement (`best`/`second` are `+∞` sentinels).
    pub fn new(table: &'a CostTable, weights: &[f64]) -> Self {
        IncrementalEval::from_costs(table, Cow::Owned(WeightedCosts::new(table, weights)))
    }

    /// Evaluator borrowing an already-built [`WeightedCosts`] slab, so
    /// construction is `O(rows)` instead of `O(rows × candidates)`.
    pub fn with_costs(table: &'a CostTable, costs: &'a WeightedCosts) -> Self {
        IncrementalEval::from_costs(table, Cow::Borrowed(costs))
    }

    fn from_costs(table: &'a CostTable, costs: Cow<'a, WeightedCosts>) -> Self {
        assert_eq!(
            costs.n_rows,
            table.n_rows(),
            "weighted costs built for this table's rows"
        );
        assert_eq!(
            costs.wcost.len(),
            table.n_rows() * table.n_candidates(),
            "weighted costs built for this table's candidates"
        );
        let n = table.n_rows();
        IncrementalEval {
            table,
            costs,
            slots: Vec::new(),
            best: vec![f64::INFINITY; n],
            best_pos: vec![0; n],
            second: vec![f64::INFINITY; n],
            version: 1,
            lookahead: RefCell::new(Lookahead::default()),
        }
    }

    /// Evaluator pre-seeded with a placement (slot indices of `table`).
    pub fn with_placement(table: &'a CostTable, weights: &[f64], slots: &[usize]) -> Self {
        let mut eval = IncrementalEval::new(table, weights);
        eval.slots = slots.to_vec();
        eval.rebuild();
        eval
    }

    /// The cost table this evaluator scores against.
    pub fn table(&self) -> &'a CostTable {
        self.table
    }

    /// The weighted-cost slabs this evaluator scores with.
    pub fn costs(&self) -> &WeightedCosts {
        &self.costs
    }

    /// The current placement as candidate slots, in placement order.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// The current placement as node ids, in placement order.
    pub fn placement(&self) -> Vec<usize> {
        self.slots.iter().map(|&s| self.table.site_of(s)).collect()
    }

    /// Number of replicas currently placed.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    fn wc(&self, slot: usize, row: usize) -> f64 {
        self.costs.wcost[slot * self.table.n_rows() + row]
    }

    /// The weighted-cost row of candidate `slot`, one entry per demand row.
    #[inline]
    fn cost_row(&self, slot: usize) -> &[f64] {
        let n = self.table.n_rows();
        &self.costs.wcost[slot * n..(slot + 1) * n]
    }

    /// Objective of the current placement: `Σ_row` nearest weighted cost,
    /// in row order (`+∞` while empty). Bit-identical to
    /// [`CostTable::total_delay`] on [`IncrementalEval::slots`].
    pub fn total(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Objective after hypothetically adding `slot` — `O(n)`.
    pub fn add_total(&self, slot: usize) -> f64 {
        let mut total = 0.0;
        for (&c, &b) in self.cost_row(slot).iter().zip(&self.best) {
            total += if c < b { c } else { b };
        }
        total
    }

    /// Drops stale caches, then makes sure the add-path suffix sums and the
    /// thresholds for `bound` exist.
    fn add_lookahead(&self, la: &mut Lookahead, bound: f64) {
        if la.version != self.version {
            la.version = self.version;
            la.add.clear();
            la.add_bound = f64::NAN.to_bits();
            la.swap_pos = None;
        }
        if la.add.is_empty() {
            let n = self.table.n_rows();
            la.add.resize(n + 1, 0.0);
            for row in (0..n).rev() {
                let b = self.best[row];
                let f = self.costs.floor[row];
                la.add[row] = (if f < b { f } else { b }) + la.add[row + 1];
            }
            la.add_bound = f64::NAN.to_bits();
        }
        if la.add_bound != bound.to_bits() {
            rebuild_thresh(&mut la.add_thresh, &la.add, bound, self.costs.margin);
            la.add_bound = bound.to_bits();
        }
    }

    /// Like [`IncrementalEval::add_total`], but returns `None` as soon as
    /// the partial sum reaches `bound` (callers only accept totals strictly
    /// below their bound, so a pruned trial was never going to win), or as
    /// soon as the suffix lookahead proves the final total must reach it.
    pub fn add_total_pruned(&self, slot: usize, bound: f64) -> Option<f64> {
        if !self.costs.prunable {
            let total = self.add_total(slot);
            return if total < bound { Some(total) } else { None };
        }
        let mut la = self.lookahead.borrow_mut();
        self.add_lookahead(&mut la, bound);
        let costs = self.cost_row(slot);
        let n = costs.len();
        let mut total = 0.0;
        let mut row = 0;
        while row < n {
            if total >= la.add_thresh[row] {
                return None;
            }
            let end = (row + BLOCK).min(n);
            for (&c, &b) in costs[row..end].iter().zip(&self.best[row..end]) {
                total += if c < b { c } else { b };
            }
            row = end;
        }
        if total < bound {
            Some(total)
        } else {
            None
        }
    }

    /// Objective after hypothetically swapping placement position `pos` to
    /// candidate `slot` — `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the current placement.
    pub fn swap_total(&self, pos: usize, slot: usize) -> f64 {
        assert!(pos < self.slots.len(), "swap position out of range");
        let costs = self.cost_row(slot);
        let mut total = 0.0;
        for (row, &c) in costs.iter().enumerate() {
            let rest = if self.best_pos[row] == pos {
                self.second[row]
            } else {
                self.best[row]
            };
            total += if c < rest { c } else { rest };
        }
        total
    }

    /// Drops stale caches, then makes sure the swap-path caches (dense
    /// `rest`, suffix sums, thresholds for `bound`) match position `pos` —
    /// local search tries every candidate per position, so one rebuild
    /// amortizes over a whole inner scan.
    fn swap_lookahead(&self, la: &mut Lookahead, pos: usize, bound: f64) {
        if la.version != self.version {
            la.version = self.version;
            la.add.clear();
            la.add_bound = f64::NAN.to_bits();
            la.swap_pos = None;
        }
        if la.swap_pos != Some(pos) {
            let n = self.table.n_rows();
            la.rest.clear();
            la.rest.extend((0..n).map(|row| {
                if self.best_pos[row] == pos {
                    self.second[row]
                } else {
                    self.best[row]
                }
            }));
            la.swap.clear();
            la.swap.resize(n + 1, 0.0);
            for row in (0..n).rev() {
                let r = la.rest[row];
                let f = self.costs.floor[row];
                la.swap[row] = (if f < r { f } else { r }) + la.swap[row + 1];
            }
            la.swap_pos = Some(pos);
            la.swap_bound = f64::NAN.to_bits();
        }
        if la.swap_bound != bound.to_bits() {
            rebuild_thresh(&mut la.swap_thresh, &la.swap, bound, self.costs.margin);
            la.swap_bound = bound.to_bits();
        }
    }

    /// Like [`IncrementalEval::swap_total`], but returns `None` as soon as
    /// the partial sum reaches `bound`, or as soon as the suffix lookahead
    /// proves the final total must reach it.
    pub fn swap_total_pruned(&self, pos: usize, slot: usize, bound: f64) -> Option<f64> {
        assert!(pos < self.slots.len(), "swap position out of range");
        if !self.costs.prunable {
            let total = self.swap_total(pos, slot);
            return if total < bound { Some(total) } else { None };
        }
        let mut la = self.lookahead.borrow_mut();
        self.swap_lookahead(&mut la, pos, bound);
        let costs = self.cost_row(slot);
        let n = costs.len();
        let mut total = 0.0;
        let mut row = 0;
        while row < n {
            if total >= la.swap_thresh[row] {
                return None;
            }
            let end = (row + BLOCK).min(n);
            for (&c, &t) in costs[row..end].iter().zip(&la.rest[row..end]) {
                total += if c < t { c } else { t };
            }
            row = end;
        }
        if total < bound {
            Some(total)
        } else {
            None
        }
    }

    /// Appends `slot` to the placement, updating the nearest/second-nearest
    /// bookkeeping in `O(n)`.
    pub fn commit_add(&mut self, slot: usize) {
        self.version += 1;
        let new_pos = self.slots.len();
        self.slots.push(slot);
        for row in 0..self.table.n_rows() {
            let c = self.wc(slot, row);
            if c < self.best[row] {
                self.second[row] = self.best[row];
                self.best[row] = c;
                self.best_pos[row] = new_pos;
            } else if c < self.second[row] {
                self.second[row] = c;
            }
        }
    }

    /// Replaces the candidate at placement position `pos` with `slot`.
    ///
    /// Rebuilds the bookkeeping from scratch (`O(n·k)`) — accepted swaps
    /// are rare next to the `O(n)` trials that precede them.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the current placement.
    pub fn commit_swap(&mut self, pos: usize, slot: usize) {
        assert!(pos < self.slots.len(), "swap position out of range");
        self.slots[pos] = slot;
        self.rebuild();
    }

    /// Recomputes `best`/`best_pos`/`second` for every row from the current
    /// slots (first-wins argmin, then min over the remaining positions).
    fn rebuild(&mut self) {
        self.version += 1;
        for row in 0..self.table.n_rows() {
            let mut best = f64::INFINITY;
            let mut best_pos = 0usize;
            for (pos, &s) in self.slots.iter().enumerate() {
                let c = self.wc(s, row);
                if c < best {
                    best = c;
                    best_pos = pos;
                }
            }
            let mut second = f64::INFINITY;
            for (pos, &s) in self.slots.iter().enumerate() {
                if pos == best_pos {
                    continue;
                }
                let c = self.wc(s, row);
                if c < second {
                    second = c;
                }
            }
            self.best[row] = best;
            self.best_pos[row] = best_pos;
            self.second[row] = second;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::oracle::MatrixDelay;
    use super::*;
    use georep_net::rtt::RttMatrix;
    use proptest::prelude::*;

    /// Deterministic pseudo-random matrix + weights from a seed.
    fn instance(n: usize, seed: u64) -> (RttMatrix, Vec<f64>) {
        let m = RttMatrix::from_fn(n, |i, j| {
            ((i * 37 + j * 101 + seed as usize * 13) % 400 + 1) as f64
        })
        .unwrap();
        let weights: Vec<f64> = (0..n)
            .map(|i| ((i * 7 + seed as usize) % 9) as f64 + 0.5)
            .collect();
        (m, weights)
    }

    fn full_table(m: &RttMatrix, clients: &[usize]) -> CostTable {
        let oracle = MatrixDelay::new(m, clients);
        let all: Vec<usize> = (0..m.len()).collect();
        CostTable::from_oracle(&oracle, &all, m.len(), clients.len())
    }

    #[test]
    fn add_then_total_matches_scratch() {
        let (m, w) = instance(6, 1);
        let clients: Vec<usize> = (0..6).collect();
        let table = full_table(&m, &clients);
        let mut eval = IncrementalEval::new(&table, &w);

        assert!(eval.is_empty());
        let first = eval.add_total(2);
        assert_eq!(first, table.total_delay(&w, &[2]));
        eval.commit_add(2);
        assert_eq!(eval.total(), table.total_delay(&w, &[2]));
        assert_eq!(eval.len(), 1);

        let with_four = eval.add_total(4);
        assert_eq!(with_four, table.total_delay(&w, &[2, 4]));
        eval.commit_add(4);
        assert_eq!(eval.total(), table.total_delay(&w, &[2, 4]));
        assert_eq!(eval.slots(), &[2, 4]);
        assert_eq!(eval.placement(), vec![2, 4]);
    }

    #[test]
    fn swap_total_matches_scratch() {
        let (m, w) = instance(7, 2);
        let clients: Vec<usize> = (0..7).collect();
        let table = full_table(&m, &clients);
        let eval = IncrementalEval::with_placement(&table, &w, &[1, 3, 5]);

        for pos in 0..3 {
            for slot in 0..7 {
                let mut trial = vec![1, 3, 5];
                trial[pos] = slot;
                assert_eq!(
                    eval.swap_total(pos, slot),
                    table.total_delay(&w, &trial),
                    "pos {pos} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn pruned_variants_agree_with_exact() {
        let (m, w) = instance(8, 3);
        let clients: Vec<usize> = (0..8).collect();
        let table = full_table(&m, &clients);
        let eval = IncrementalEval::with_placement(&table, &w, &[0, 6]);
        assert!(eval.costs.prunable);

        for slot in 0..8 {
            let exact = eval.add_total(slot);
            // A generous bound keeps the result; the exact value as bound
            // prunes (callers accept strictly-below only).
            assert_eq!(eval.add_total_pruned(slot, f64::INFINITY), Some(exact));
            assert_eq!(eval.add_total_pruned(slot, exact), None);

            let swapped = eval.swap_total(1, slot);
            assert_eq!(
                eval.swap_total_pruned(1, slot, f64::INFINITY),
                Some(swapped)
            );
            assert_eq!(eval.swap_total_pruned(1, slot, swapped), None);
        }
    }

    #[test]
    fn commit_swap_keeps_bookkeeping_consistent() {
        let (m, w) = instance(6, 4);
        let clients: Vec<usize> = (0..6).collect();
        let table = full_table(&m, &clients);
        let mut eval = IncrementalEval::with_placement(&table, &w, &[0, 1]);
        eval.commit_swap(0, 5);
        assert_eq!(eval.slots(), &[5, 1]);
        assert_eq!(eval.total(), table.total_delay(&w, &[5, 1]));
        // Further trials remain exact after the rebuild.
        assert_eq!(eval.swap_total(1, 3), table.total_delay(&w, &[5, 3]));
    }

    /// Every field of a slab, floats as bits.
    type SlabBits = (Vec<u64>, Vec<u64>, bool, u64, Vec<u64>, usize);

    fn slab_bits(c: &WeightedCosts) -> SlabBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(&c.wcost),
            bits(&c.floor),
            c.prunable,
            c.margin.to_bits(),
            bits(&c.column_sums),
            c.n_rows,
        )
    }

    /// The slab built the plain way: products pushed candidate by
    /// candidate, `all` for prunability, a conditional-store floor, and
    /// each column's `Iterator::sum`.
    fn plain_slab(table: &CostTable, weights: &[f64]) -> SlabBits {
        let n = table.n_rows();
        let mut wcost = Vec::new();
        for slot in 0..table.n_candidates() {
            for (d, &w) in table.row(slot).iter().zip(weights) {
                wcost.push(w * d);
            }
        }
        let prunable = wcost.iter().all(|&c| c >= 0.0);
        let mut floor = Vec::new();
        if prunable && n > 0 {
            floor = vec![f64::INFINITY; n];
            for chunk in wcost.chunks_exact(n) {
                for (f, &c) in floor.iter_mut().zip(chunk) {
                    if c < *f {
                        *f = c;
                    }
                }
            }
        }
        let column_sums: Vec<f64> = if n > 0 {
            wcost.chunks_exact(n).map(|col| col.iter().sum()).collect()
        } else {
            vec![0.0; table.n_candidates()]
        };
        let margin = 1.0 - 8.0 * (n as f64 + 8.0) * f64::EPSILON;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(&wcost),
            bits(&floor),
            prunable,
            margin.to_bits(),
            bits(&column_sums),
            n,
        )
    }

    #[test]
    fn refill_matches_new_bit_for_bit() {
        // One slab refilled across growing, shrinking and empty shapes
        // (rows × candidates), so stale contents of a larger fill would
        // show.
        let mut slab = WeightedCosts::empty();
        for (rows, cands, seed) in [
            (6, 6, 1),
            (0, 4, 2),
            (9, 3, 3),
            (2, 8, 4),
            (0, 0, 5),
            (7, 7, 6),
            (1, 1, 7),
            (5, 19, 8),
            (12, 17, 9),
            (3, 0, 10),
        ] {
            let (m, w) = instance(rows.max(cands).max(2), seed);
            let clients: Vec<usize> = (0..rows).collect();
            let candidates: Vec<usize> = (0..cands).collect();
            let oracle = MatrixDelay::new(&m, &clients);
            let table = CostTable::from_oracle(&oracle, &candidates, m.len(), rows);
            // Positive weights; all −0.0 (prunable, and `Iterator::sum`
            // starts at −0.0, so the column sums keep the sign); and one
            // negative weight, which makes the slab unprunable.
            let mut mixed = w[..rows].to_vec();
            if let Some(first) = mixed.first_mut() {
                *first = -1.5;
            }
            for weights in [w[..rows].to_vec(), vec![-0.0; rows], mixed] {
                slab.refill(&table, &weights);
                let fresh = WeightedCosts::new(&table, &weights);
                assert_eq!(slab_bits(&slab), slab_bits(&fresh), "{rows} × {cands}");
                assert_eq!(
                    slab_bits(&slab),
                    plain_slab(&table, &weights),
                    "{rows} × {cands}"
                );
                assert_eq!(slab.column_sums().len(), cands);
                if rows > 0 && weights.iter().all(|w| w.to_bits() == (-0.0f64).to_bits()) {
                    assert!(slab.is_prunable());
                    assert!(slab.column_sums().iter().all(|s| s.is_sign_negative()));
                }
            }
        }
    }

    proptest! {
        /// Arbitrary add/swap sequences: every hypothetical score and every
        /// committed total must equal the from-scratch table evaluation,
        /// bit for bit.
        #[test]
        fn prop_deltas_match_scratch(n in 3usize..10, seed in 0u64..200, ops in 1usize..12) {
            let (m, w) = instance(n, seed);
            let clients: Vec<usize> = (0..n).collect();
            let table = full_table(&m, &clients);
            let mut eval = IncrementalEval::new(&table, &w);
            let mut slots: Vec<usize> = Vec::new();

            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = |modulus: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize % modulus
            };

            for step in 0..ops {
                if slots.is_empty() || (slots.len() < n && step % 3 == 0) {
                    let slot = next(n);
                    let mut trial = slots.clone();
                    trial.push(slot);
                    prop_assert_eq!(eval.add_total(slot), table.total_delay(&w, &trial));
                    eval.commit_add(slot);
                    slots = trial;
                } else {
                    let pos = next(slots.len());
                    let slot = next(n);
                    let mut trial = slots.clone();
                    trial[pos] = slot;
                    prop_assert_eq!(eval.swap_total(pos, slot), table.total_delay(&w, &trial));
                    eval.commit_swap(pos, slot);
                    slots = trial;
                }
                prop_assert_eq!(eval.total(), table.total_delay(&w, &slots));
                prop_assert_eq!(eval.slots(), &slots[..]);
            }
        }

        /// Pruned variants: `Some` exactly below the bound, and the value
        /// always matches the exact evaluation.
        #[test]
        fn prop_pruning_never_lies(n in 3usize..9, seed in 0u64..200) {
            let (m, w) = instance(n, seed);
            let clients: Vec<usize> = (0..n).collect();
            let table = full_table(&m, &clients);
            let eval = IncrementalEval::with_placement(&table, &w, &[0, n - 1]);

            for slot in 0..n {
                let exact_add = eval.add_total(slot);
                let exact_swap = eval.swap_total(0, slot);
                for bound_scale in [0.5, 0.999, 1.0, 1.001, 2.0] {
                    let add_bound = exact_add * bound_scale;
                    match eval.add_total_pruned(slot, add_bound) {
                        Some(v) => {
                            prop_assert_eq!(v, exact_add);
                            prop_assert!(v < add_bound);
                        }
                        None => prop_assert!(exact_add >= add_bound),
                    }
                    let swap_bound = exact_swap * bound_scale;
                    match eval.swap_total_pruned(0, slot, swap_bound) {
                        Some(v) => {
                            prop_assert_eq!(v, exact_swap);
                            prop_assert!(v < swap_bound);
                        }
                        None => prop_assert!(exact_swap >= swap_bound),
                    }
                }
            }
        }
    }
}
