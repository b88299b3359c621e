//! Migration cost accounting.
//!
//! "Since the cost of migrating data may not be ignored (e.g., $.1 per GB),
//! our approach carries out data migration only when the gain in the
//! quality of service compared to the migration cost is higher than a
//! certain threshold" — paper Section III-C, citing Amazon EC2 pricing.

/// Dollar cost of moving replicas between data centers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCostModel {
    /// Size of the replicated object, GB.
    pub object_size_gb: f64,
    /// Transfer price, $ per GB (the paper quotes $0.1/GB).
    pub cost_per_gb: f64,
}

impl Default for MigrationCostModel {
    fn default() -> Self {
        MigrationCostModel {
            object_size_gb: 1.0,
            cost_per_gb: 0.10,
        }
    }
}

impl MigrationCostModel {
    /// Dollar cost of creating `moved_replicas` new replicas.
    pub fn cost_usd(&self, moved_replicas: usize) -> f64 {
        moved_replicas as f64 * self.object_size_gb * self.cost_per_gb
    }
}

/// Replicas present in `new` but not in `old` — each must be copied over
/// the wide area.
pub fn moved_replicas(old: &[usize], new: &[usize]) -> usize {
    new.iter().filter(|r| !old.contains(r)).count()
}

/// Outcome of one re-placement round.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationDecision {
    /// Placement before the round.
    pub old: Vec<usize>,
    /// Placement Algorithm 1 proposed.
    pub proposed: Vec<usize>,
    /// Estimated mean delay of `old` on the summarized demand, ms.
    pub old_est_ms: f64,
    /// Estimated mean delay of `proposed`, ms.
    pub new_est_ms: f64,
    /// Number of replicas that would move.
    pub moved: usize,
    /// Dollar cost of the move.
    pub cost_usd: f64,
    /// Whether the migration was carried out.
    pub applied: bool,
}

impl MigrationDecision {
    /// Relative delay reduction the proposal was estimated to deliver.
    pub fn relative_gain(&self) -> f64 {
        if self.old_est_ms > 0.0 {
            (self.old_est_ms - self.new_est_ms) / self.old_est_ms
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_follows_paper_pricing() {
        let model = MigrationCostModel::default();
        assert!((model.cost_usd(3) - 0.30).abs() < 1e-12);
        assert_eq!(model.cost_usd(0), 0.0);

        let big = MigrationCostModel {
            object_size_gb: 50.0,
            cost_per_gb: 0.10,
        };
        assert!((big.cost_usd(2) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn moved_counts_only_new_sites() {
        assert_eq!(moved_replicas(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(moved_replicas(&[1, 2, 3], &[3, 2, 1]), 0);
        assert_eq!(moved_replicas(&[1, 2, 3], &[1, 2, 9]), 1);
        assert_eq!(moved_replicas(&[1, 2, 3], &[7, 8, 9]), 3);
        assert_eq!(moved_replicas(&[], &[1]), 1);
    }

    #[test]
    fn relative_gain() {
        let d = MigrationDecision {
            old: vec![1],
            proposed: vec![2],
            old_est_ms: 100.0,
            new_est_ms: 80.0,
            moved: 1,
            cost_usd: 0.1,
            applied: true,
        };
        assert!((d.relative_gain() - 0.2).abs() < 1e-12);

        let no_base = MigrationDecision {
            old_est_ms: 0.0,
            ..d
        };
        assert_eq!(no_base.relative_gain(), 0.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        use crate::hash::splitmix64_next;

        fn shuffled(mut v: Vec<usize>, mut seed: u64) -> Vec<usize> {
            for i in (1..v.len()).rev() {
                let j = (splitmix64_next(&mut seed) % (i as u64 + 1)) as usize;
                v.swap(i, j);
            }
            v
        }

        /// Distinct node ids decoded from a bitmask.
        fn set_from_mask(mask: u32) -> Vec<usize> {
            (0..16).filter(|b| mask & (1 << b) != 0).collect()
        }

        proptest! {
            #[test]
            fn moved_is_the_set_difference_under_any_permutation(
                old_mask in 0u32..65_536,
                new_mask in 0u32..65_536,
                old_seed in 0u64..1_000_000,
                new_seed in 0u64..1_000_000,
            ) {
                let old = set_from_mask(old_mask);
                let new = set_from_mask(new_mask);
                // Ground truth straight from the mask bits: in new, not old.
                let want = (new_mask & !old_mask).count_ones() as usize;
                prop_assert_eq!(moved_replicas(&old, &new), want);
                // Placements are sets: shuffling either side changes nothing.
                let old_p = shuffled(old, old_seed);
                let new_p = shuffled(new, new_seed);
                prop_assert_eq!(moved_replicas(&old_p, &new_p), want);
            }

            #[test]
            fn cost_is_linear_in_moves_size_and_price(
                moved in 0usize..64,
                size_tenths in 1u32..500,
                price_cents in 0u32..100,
            ) {
                let model = MigrationCostModel {
                    object_size_gb: size_tenths as f64 / 10.0,
                    cost_per_gb: price_cents as f64 / 100.0,
                };
                let want =
                    moved as f64 * model.object_size_gb * model.cost_per_gb;
                prop_assert!((model.cost_usd(moved) - want).abs() < 1e-12);
                // Doubling the move count exactly doubles the bill.
                prop_assert!(
                    (model.cost_usd(2 * moved) - 2.0 * model.cost_usd(moved)).abs()
                        < 1e-12
                );
            }
        }
    }
}
