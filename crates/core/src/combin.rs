//! Combination enumeration for the exhaustive-optimal baseline.
//!
//! The paper's *optimal* comparator examines "each possible replica
//! deployment (i.e., each combination of replica locations)". This module
//! provides a lexicographic k-combination iterator over `0..n` plus the
//! binomial count used to size (and sanity-bound) exhaustive searches.

/// `C(n, k)` with saturating arithmetic (returns `u128::MAX` on overflow,
/// which in practice only signals "far too many to enumerate").
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    acc
}

/// Iterator over all k-element subsets of `0..n` in lexicographic order.
///
/// Yields index vectors; callers map them onto their candidate arrays.
///
/// # Example
///
/// ```
/// use georep_core::combin::Combinations;
///
/// let all: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
/// assert_eq!(all.len(), 6);
/// assert_eq!(all[0], vec![0, 1]);
/// assert_eq!(all[5], vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Combinations {
    n: usize,
    k: usize,
    current: Vec<usize>,
    done: bool,
}

impl Combinations {
    /// Creates the iterator. `k = 0` yields a single empty combination;
    /// `k > n` yields nothing.
    pub fn new(n: usize, k: usize) -> Self {
        let done = k > n;
        Combinations {
            n,
            k,
            current: (0..k).collect(),
            done,
        }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let result = self.current.clone();

        // Advance to the next combination: find the rightmost index that can
        // still move right, bump it, and reset everything after it.
        if self.k == 0 {
            self.done = true;
            return Some(result);
        }
        let mut i = self.k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.current[i] < self.n - self.k + i {
                self.current[i] += 1;
                for j in (i + 1)..self.k {
                    self.current[j] = self.current[j - 1] + 1;
                }
                break;
            }
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binomial_known_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(20, 3), 1140);
        assert_eq!(binomial(20, 7), 77_520);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(226, 3), 1_898_400);
    }

    #[test]
    fn enumerates_all_pairs() {
        let all: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn k_zero_and_k_equals_n() {
        let zero: Vec<Vec<usize>> = Combinations::new(3, 0).collect();
        assert_eq!(zero, vec![Vec::<usize>::new()]);
        let full: Vec<Vec<usize>> = Combinations::new(3, 3).collect();
        assert_eq!(full, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn k_larger_than_n_is_empty() {
        assert_eq!(Combinations::new(2, 3).count(), 0);
    }

    proptest! {
        #[test]
        fn prop_count_matches_binomial(n in 0usize..12, k in 0usize..8) {
            let count = Combinations::new(n, k).count() as u128;
            prop_assert_eq!(count, binomial(n, k));
        }

        #[test]
        fn prop_combinations_sorted_distinct(n in 1usize..10, k in 1usize..6) {
            prop_assume!(k <= n);
            for combo in Combinations::new(n, k) {
                prop_assert_eq!(combo.len(), k);
                for w in combo.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
                prop_assert!(*combo.last().unwrap() < n);
            }
        }

        #[test]
        fn prop_lexicographic_order(n in 1usize..9, k in 1usize..5) {
            prop_assume!(k <= n);
            let all: Vec<Vec<usize>> = Combinations::new(n, k).collect();
            for w in all.windows(2) {
                prop_assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
            }
        }
    }
}
