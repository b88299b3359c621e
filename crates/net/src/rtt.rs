//! Dense round-trip-time matrices.
//!
//! An [`RttMatrix`] stores the measured (or synthesized) RTT in milliseconds
//! between every pair of `n` nodes. It is the single source of truth for
//! all experiments: coordinate systems train on it, placement strategies are
//! evaluated against it.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Error produced when constructing or parsing an [`RttMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub enum RttError {
    /// The input was not an `n × n` table.
    NotSquare {
        /// Offending row index.
        row: usize,
        /// Expected length (= number of rows).
        expected: usize,
        /// Actual length of that row.
        got: usize,
    },
    /// An off-diagonal entry was non-finite, zero, or negative.
    InvalidValue {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The value found.
        value: f64,
    },
    /// `rtt(i, j)` differed from `rtt(j, i)` by more than the tolerance.
    Asymmetric {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// Magnitude of the difference, in ms.
        delta: f64,
    },
    /// A token failed to parse as a float.
    Parse {
        /// Line number (0-based) of the offending token.
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
    /// The matrix had fewer than two nodes.
    TooSmall,
}

impl fmt::Display for RttError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RttError::NotSquare { row, expected, got } => {
                write!(f, "row {row} has {got} entries, expected {expected}")
            }
            RttError::InvalidValue { row, col, value } => {
                write!(
                    f,
                    "rtt({row}, {col}) = {value} is not a positive finite value"
                )
            }
            RttError::Asymmetric { row, col, delta } => {
                write!(f, "rtt({row}, {col}) differs from its mirror by {delta} ms")
            }
            RttError::Parse { line, token } => {
                write!(f, "line {line}: cannot parse {token:?} as a number")
            }
            RttError::TooSmall => write!(f, "matrix must cover at least two nodes"),
        }
    }
}

impl Error for RttError {}

/// Distribution statistics of the off-diagonal entries of a matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttStats {
    /// Smallest pairwise RTT, ms.
    pub min_ms: f64,
    /// Median pairwise RTT, ms.
    pub median_ms: f64,
    /// Mean pairwise RTT, ms.
    pub mean_ms: f64,
    /// 90th percentile, ms.
    pub p90_ms: f64,
    /// Largest pairwise RTT, ms.
    pub max_ms: f64,
}

/// A symmetric `n × n` matrix of round-trip times in milliseconds.
///
/// The diagonal is always zero; off-diagonal entries are positive and
/// finite. Symmetry is enforced on construction (within a tolerance for
/// loaded data, exactly for generated data).
///
/// # Example
///
/// ```
/// use georep_net::rtt::RttMatrix;
///
/// let m = RttMatrix::from_fn(3, |i, j| ((i + j) * 10) as f64)?;
/// assert_eq!(m.get(1, 2), 30.0);
/// assert_eq!(m.get(2, 1), 30.0);
/// assert_eq!(m.get(0, 0), 0.0);
/// # Ok::<(), georep_net::rtt::RttError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RttMatrix {
    n: usize,
    /// Row-major `n × n`, diagonal zero, symmetric.
    data: Vec<f64>,
}

impl RttMatrix {
    /// Builds a matrix by evaluating `f(i, j)` for every pair `i < j`.
    ///
    /// # Errors
    ///
    /// [`RttError::TooSmall`] if `n < 2`; [`RttError::InvalidValue`] if `f`
    /// produces a non-finite, zero or negative value.
    pub fn from_fn<F>(n: usize, mut f: F) -> Result<Self, RttError>
    where
        F: FnMut(usize, usize) -> f64,
    {
        if n < 2 {
            return Err(RttError::TooSmall);
        }
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = f(i, j);
                if !(v.is_finite() && v > 0.0) {
                    return Err(RttError::InvalidValue {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
                data[i * n + j] = v;
                data[j * n + i] = v;
            }
        }
        Ok(RttMatrix { n, data })
    }

    /// Builds a matrix from explicit rows, checking shape, values and
    /// symmetry (1 ms tolerance; the mean of the two mirrored entries is
    /// stored). The diagonal of the input is ignored.
    ///
    /// # Errors
    ///
    /// See [`RttError`].
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, RttError> {
        let n = rows.len();
        if n < 2 {
            return Err(RttError::TooSmall);
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(RttError::NotSquare {
                    row: i,
                    expected: n,
                    got: row.len(),
                });
            }
        }
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (rows[i][j], rows[j][i]);
                if !(a.is_finite() && a > 0.0) {
                    return Err(RttError::InvalidValue {
                        row: i,
                        col: j,
                        value: a,
                    });
                }
                if !(b.is_finite() && b > 0.0) {
                    return Err(RttError::InvalidValue {
                        row: j,
                        col: i,
                        value: b,
                    });
                }
                if (a - b).abs() > 1.0 {
                    return Err(RttError::Asymmetric {
                        row: i,
                        col: j,
                        delta: (a - b).abs(),
                    });
                }
                let v = (a + b) / 2.0;
                data[i * n + j] = v;
                data[j * n + i] = v;
            }
        }
        Ok(RttMatrix { n, data })
    }

    /// Number of nodes covered by the matrix.
    #[allow(clippy::len_without_is_empty)] // n ≥ 2 by construction
    pub fn len(&self) -> usize {
        self.n
    }

    /// The RTT between nodes `i` and `j` in milliseconds (zero when
    /// `i == j`).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for n = {}",
            self.n
        );
        self.data[i * self.n + j]
    }

    /// Distribution statistics over the off-diagonal entries.
    pub fn stats(&self) -> RttStats {
        let mut vals: Vec<f64> = Vec::with_capacity(self.n * (self.n - 1) / 2);
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                vals.push(self.get(i, j));
            }
        }
        vals.sort_by(f64::total_cmp);
        let pct = |q: f64| vals[((vals.len() - 1) as f64 * q).round() as usize];
        RttStats {
            min_ms: vals[0],
            median_ms: pct(0.5),
            mean_ms: vals.iter().sum::<f64>() / vals.len() as f64,
            p90_ms: pct(0.9),
            max_ms: *vals.last().expect("non-empty by construction"),
        }
    }

    /// Fraction of node triples `(i, j, k)` violating the triangle
    /// inequality, i.e. `rtt(i, j) > rtt(i, k) + rtt(k, j)`.
    ///
    /// Real Internet latencies violate it for a few percent of triples;
    /// coordinate embeddings can never reproduce those pairs exactly, which
    /// is why coordinate-driven placement stays slightly above the true
    /// optimum. Exhaustive for `n ≤ 128`; deterministically sampled above.
    pub fn triangle_violation_rate(&self) -> f64 {
        let n = self.n;
        let mut total = 0u64;
        let mut violations = 0u64;
        if n <= 128 {
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = self.get(i, j);
                    for k in 0..n {
                        if k == i || k == j {
                            continue;
                        }
                        total += 1;
                        if d > self.get(i, k) + self.get(k, j) + 1e-9 {
                            violations += 1;
                        }
                    }
                }
            }
        } else {
            // Deterministic stride-based sample of ~200k triples.
            let mut state = 0x853C49E6748FEA9Bu64;
            for _ in 0..200_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let i = (state >> 33) as usize % n;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % n;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = (state >> 33) as usize % n;
                if i == j || j == k || i == k {
                    continue;
                }
                total += 1;
                if self.get(i, j) > self.get(i, k) + self.get(k, j) + 1e-9 {
                    violations += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            violations as f64 / total as f64
        }
    }

    /// Linear interpolation toward another matrix: entry-wise
    /// `(1 − t)·self + t·other`. Used to model gradual latency drift (a
    /// region's transit degrading, a cable cut healing) in simulations.
    ///
    /// # Errors
    ///
    /// [`RttError::NotSquare`] when the matrices cover different node
    /// counts (reported as row 0).
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `[0, 1]`.
    pub fn blend(&self, other: &RttMatrix, t: f64) -> Result<RttMatrix, RttError> {
        assert!(
            (0.0..=1.0).contains(&t),
            "blend factor must be in [0, 1], got {t}"
        );
        if self.n != other.n {
            return Err(RttError::NotSquare {
                row: 0,
                expected: self.n,
                got: other.n,
            });
        }
        RttMatrix::from_fn(self.n, |i, j| {
            (1.0 - t) * self.get(i, j) + t * other.get(i, j)
        })
    }

    /// Serializes to the whitespace text format used by the public latency
    /// datasets (one row per line, entries in ms).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.n * self.n * 8);
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{:.3}", self.get(i, j)));
            }
            out.push('\n');
        }
        out
    }
}

impl FromStr for RttMatrix {
    type Err = RttError;

    /// Parses the whitespace text format: one row per line, `n` entries per
    /// row, values in milliseconds. Blank lines and lines starting with `#`
    /// are skipped.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut row = Vec::new();
            for tok in line.split_whitespace() {
                let v: f64 = tok.parse().map_err(|_| RttError::Parse {
                    line: lineno,
                    token: tok.to_string(),
                })?;
                row.push(v);
            }
            rows.push(row);
        }
        RttMatrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RttMatrix {
        RttMatrix::from_fn(4, |i, j| ((i + 1) * (j + 1)) as f64).unwrap()
    }

    #[test]
    fn from_fn_is_symmetric_with_zero_diagonal() {
        let m = sample();
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn from_fn_rejects_bad_values() {
        assert!(matches!(
            RttMatrix::from_fn(3, |_, _| -1.0),
            Err(RttError::InvalidValue { .. })
        ));
        assert!(matches!(
            RttMatrix::from_fn(3, |_, _| f64::NAN),
            Err(RttError::InvalidValue { .. })
        ));
        assert_eq!(RttMatrix::from_fn(1, |_, _| 1.0), Err(RttError::TooSmall));
    }

    #[test]
    fn from_rows_checks_shape_and_symmetry() {
        let bad_shape = vec![vec![0.0, 1.0], vec![1.0, 0.0, 2.0]];
        assert!(matches!(
            RttMatrix::from_rows(&bad_shape),
            Err(RttError::NotSquare { row: 1, .. })
        ));

        let asym = vec![vec![0.0, 10.0], vec![20.0, 0.0]];
        assert!(matches!(
            RttMatrix::from_rows(&asym),
            Err(RttError::Asymmetric { .. })
        ));

        // Sub-tolerance asymmetry is averaged away.
        let nearly = vec![vec![0.0, 10.0], vec![10.5, 0.0]];
        let m = RttMatrix::from_rows(&nearly).unwrap();
        assert_eq!(m.get(0, 1), 10.25);
    }

    #[test]
    fn text_roundtrip() {
        let m = sample();
        let text = m.to_text();
        let back: RttMatrix = text.parse().unwrap();
        assert_eq!(back.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert!((back.get(i, j) - m.get(i, j)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# header\n\n0 5\n5 0\n";
        let m: RttMatrix = text.parse().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0, 1), 5.0);
    }

    #[test]
    fn parse_reports_bad_token() {
        let text = "0 x\n5 0\n";
        match text.parse::<RttMatrix>() {
            Err(RttError::Parse { line: 0, token }) => assert_eq!(token, "x"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_are_ordered() {
        let m = sample();
        let s = m.stats();
        assert!(s.min_ms <= s.median_ms);
        assert!(s.median_ms <= s.p90_ms);
        assert!(s.p90_ms <= s.max_ms);
        assert!(s.min_ms > 0.0);
    }

    #[test]
    fn metric_matrix_has_no_violations() {
        // Points on a line: distances satisfy the triangle inequality.
        let m = RttMatrix::from_fn(6, |i, j| (j - i) as f64 * 10.0).unwrap();
        assert_eq!(m.triangle_violation_rate(), 0.0);
    }

    #[test]
    fn constructed_violation_is_detected() {
        // rtt(0, 1) = 100 but both reach node 2 in 10 ⇒ violation.
        let m = RttMatrix::from_rows(&[
            vec![0.0, 100.0, 10.0],
            vec![100.0, 0.0, 10.0],
            vec![10.0, 10.0, 0.0],
        ])
        .unwrap();
        assert!(m.triangle_violation_rate() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(0, 99);
    }

    #[test]
    fn blend_interpolates_entrywise() {
        let a = RttMatrix::from_fn(3, |_, _| 10.0).unwrap();
        let b = RttMatrix::from_fn(3, |_, _| 30.0).unwrap();
        assert_eq!(a.blend(&b, 0.0).unwrap(), a);
        assert_eq!(a.blend(&b, 1.0).unwrap(), b);
        let mid = a.blend(&b, 0.25).unwrap();
        assert_eq!(mid.get(0, 1), 15.0);
        assert_eq!(mid.get(1, 1), 0.0);
    }

    #[test]
    fn blend_rejects_size_mismatch() {
        let a = RttMatrix::from_fn(3, |_, _| 10.0).unwrap();
        let b = RttMatrix::from_fn(4, |_, _| 10.0).unwrap();
        assert!(matches!(a.blend(&b, 0.5), Err(RttError::NotSquare { .. })));
    }

    #[test]
    #[should_panic(expected = "blend factor")]
    fn blend_rejects_bad_factor() {
        let a = RttMatrix::from_fn(3, |_, _| 10.0).unwrap();
        let _ = a.blend(&a, 1.5);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = RttError::Asymmetric {
            row: 1,
            col: 2,
            delta: 3.5,
        };
        assert!(e.to_string().contains("3.5 ms"));
        let e = RttError::Parse {
            line: 7,
            token: "abc".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    proptest! {
        #[test]
        fn prop_from_fn_symmetric(n in 2usize..12, seed in 0u64..1000) {
            let m = RttMatrix::from_fn(n, |i, j| {
                ((i * 31 + j * 17 + seed as usize) % 250 + 1) as f64
            }).unwrap();
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(m.get(i, j), m.get(j, i));
                }
            }
        }

        #[test]
        fn prop_text_roundtrip(n in 2usize..8, seed in 0u64..1000) {
            let m = RttMatrix::from_fn(n, |i, j| {
                ((i * 13 + j * 7 + seed as usize) % 300) as f64 + 0.5
            }).unwrap();
            let back: RttMatrix = m.to_text().parse().unwrap();
            prop_assert_eq!(back.len(), n);
            for i in 0..n {
                for j in 0..n {
                    prop_assert!((back.get(i, j) - m.get(i, j)).abs() < 1e-3);
                }
            }
        }

        #[test]
        fn prop_stats_bounded_by_extremes(n in 2usize..10) {
            let m = RttMatrix::from_fn(n, |i, j| (i + j) as f64 * 3.0 + 1.0).unwrap();
            let s = m.stats();
            prop_assert!(s.mean_ms >= s.min_ms && s.mean_ms <= s.max_ms);
        }
    }
}
