//! A small, dependency-free Nelder–Mead downhill-simplex minimizer.
//!
//! Both landmark-based embedding ([`crate::gnp`]) and retrospective
//! positioning ([`crate::rnp`]) solve low-dimensional non-linear
//! least-squares problems ("place me such that my distances to these
//! reference points best match the measured RTTs"). Nelder–Mead is the
//! classic derivative-free choice for those problems — it is what the
//! original GNP paper used.

/// Options controlling a [`minimize`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Objective-evaluation budget. It is checked once per iteration,
    /// before the iteration starts, and one iteration spends up to `n + 2`
    /// evaluations (reflection, contraction and an `n`-vertex shrink), so
    /// a run over `n` dimensions can end up to `n + 1` evaluations past it.
    pub max_evals: usize,
    /// Convergence threshold on the objective spread across the simplex.
    pub f_tolerance: f64,
    /// Initial simplex scale (distance of the probing vertices from the
    /// starting point).
    pub initial_step: f64,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_evals: 2_000,
            f_tolerance: 1e-9,
            initial_step: 10.0,
        }
    }
}

/// Result of a [`minimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexResult {
    /// The best point found.
    pub point: Vec<f64>,
    /// Objective value at [`SimplexResult::point`].
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
    /// Whether the spread criterion was met (as opposed to running out of
    /// evaluations).
    pub converged: bool,
}

/// Minimizes `f` starting from `start` using the Nelder–Mead simplex method
/// with the standard (1, 2, ½, ½) coefficients.
///
/// The objective must return a finite value for finite inputs; non-finite
/// returns are treated as `+∞` (the vertex is rejected), which makes the
/// optimizer robust to domain edges.
///
/// # Panics
///
/// Panics if `start` is empty.
///
/// # Example
///
/// ```
/// use georep_coord::simplex::{minimize, SimplexOptions};
///
/// // Minimize (x-3)^2 + (y+1)^2.
/// let r = minimize(&[0.0, 0.0], SimplexOptions::default(), |p| {
///     (p[0] - 3.0).powi(2) + (p[1] + 1.0).powi(2)
/// });
/// assert!((r.point[0] - 3.0).abs() < 1e-3);
/// assert!((r.point[1] + 1.0).abs() < 1e-3);
/// ```
pub fn minimize<F>(start: &[f64], opts: SimplexOptions, mut f: F) -> SimplexResult
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(!start.is_empty(), "cannot minimize over zero dimensions");
    let n = start.len();
    let mut evals = 0usize;
    let mut eval = |p: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(p);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    // One flat buffer: the n + 1 vertices in index order (vertex `i` at
    // `buf[i * n..(i + 1) * n]`), then the centroid, reflection and trial
    // working points. The initial simplex is the start plus one vertex per
    // axis.
    let mut buf = vec![0.0; (n + 4) * n];
    let (verts, work) = buf.split_at_mut((n + 1) * n);
    for (i, v) in verts.chunks_exact_mut(n).enumerate() {
        v.copy_from_slice(start);
        if i > 0 {
            v[i - 1] += opts.initial_step;
        }
    }
    let (centroid, work) = work.split_at_mut(n);
    let (reflected, trial) = work.split_at_mut(n);
    let mut values: Vec<f64> = verts.chunks_exact(n).map(|v| eval(v, &mut evals)).collect();

    // Vertex indices ranked by (value, index) — the order a stable sort by
    // value gives. An iteration replaces at most one vertex, which moves to
    // its new rank; only a shrink, which re-evaluates every vertex but the
    // best, re-sorts.
    let mut order: Vec<usize> = (0..=n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));

    let mut converged = false;
    while evals < opts.max_evals {
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if (values[worst] - values[best]).abs() <= opts.f_tolerance {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex, summed in index order.
        centroid.fill(0.0);
        for (idx, v) in verts.chunks_exact(n).enumerate() {
            if idx == worst {
                continue;
            }
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x;
            }
        }
        for c in centroid.iter_mut() {
            *c /= n as f64;
        }

        // Reflection.
        let worst_v = worst * n..(worst + 1) * n;
        blend(reflected, centroid, &verts[worst_v.clone()], -1.0);
        let fr = eval(reflected, &mut evals);
        let replacement = if fr < values[best] {
            // Expansion.
            blend(trial, centroid, &verts[worst_v.clone()], -2.0);
            let fe = eval(trial, &mut evals);
            if fe < fr {
                Some((&*trial, fe))
            } else {
                Some((&*reflected, fr))
            }
        } else if fr < values[second_worst] {
            Some((&*reflected, fr))
        } else {
            // Contraction (outside if the reflection improved on the worst,
            // inside otherwise).
            if fr < values[worst] {
                blend(trial, centroid, reflected, 0.5);
            } else {
                blend(trial, centroid, &verts[worst_v.clone()], 0.5);
            }
            let fc = eval(trial, &mut evals);
            if fc < values[worst].min(fr) {
                Some((&*trial, fc))
            } else {
                None
            }
        };
        match replacement {
            Some((point, value)) => {
                verts[worst_v].copy_from_slice(point);
                values[worst] = value;
                // Move the replaced vertex down from the last rank to its
                // (value, index) rank.
                let mut rank = n;
                while rank > 0 && ranks_after(&values, order[rank - 1], worst) {
                    order[rank] = order[rank - 1];
                    rank -= 1;
                }
                order[rank] = worst;
            }
            None => {
                // Shrink everything toward the best vertex, copied into the
                // centroid buffer this iteration no longer needs.
                centroid.copy_from_slice(&verts[best * n..(best + 1) * n]);
                for (idx, v) in verts.chunks_exact_mut(n).enumerate() {
                    if idx == best {
                        continue;
                    }
                    for (x, b) in v.iter_mut().zip(centroid.iter()) {
                        *x = b + 0.5 * (*x - b);
                    }
                    values[idx] = eval(v, &mut evals);
                }
                order.clear();
                order.extend(0..=n);
                order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            }
        }
    }

    let best = order[0];
    SimplexResult {
        point: verts[best * n..(best + 1) * n].to_vec(),
        value: values[best],
        evals,
        converged,
    }
}

/// Whether vertex `a` ranks after vertex `b`: a greater value, or an equal
/// value at a greater index.
fn ranks_after(values: &[f64], a: usize, b: usize) -> bool {
    values[a].total_cmp(&values[b]).then(a.cmp(&b)).is_gt()
}

/// Writes the point `a + t·(b − a)` into `out`.
fn blend(out: &mut [f64], a: &[f64], b: &[f64], t: f64) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + t * (y - x);
    }
}

/// The minimizer as it stood before the flat-buffer rewrite, kept verbatim
/// as the differential reference for [`minimize`].
#[cfg(test)]
mod reference {
    use super::{blend, SimplexOptions, SimplexResult};

    pub fn minimize<F>(start: &[f64], opts: SimplexOptions, mut f: F) -> SimplexResult
    where
        F: FnMut(&[f64]) -> f64,
    {
        assert!(!start.is_empty(), "cannot minimize over zero dimensions");
        let n = start.len();
        let mut evals = 0usize;
        let mut eval = |p: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            let v = f(p);
            if v.is_finite() {
                v
            } else {
                f64::INFINITY
            }
        };

        // Build the initial simplex: the start plus one vertex per axis.
        let mut verts: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
        verts.push(start.to_vec());
        for i in 0..n {
            let mut v = start.to_vec();
            v[i] += opts.initial_step;
            verts.push(v);
        }
        let mut values: Vec<f64> = verts.iter().map(|v| eval(v, &mut evals)).collect();

        // Working buffers, allocated once per call. An accepted trial point is
        // swapped into the simplex, and the displaced vertex becomes the next
        // trial buffer.
        let mut order: Vec<usize> = Vec::with_capacity(n + 1);
        let mut centroid = vec![0.0; n];
        let mut reflected = vec![0.0; n];
        let mut trial = vec![0.0; n];
        let mut best_v = vec![0.0; n];

        let mut converged = false;
        while evals < opts.max_evals {
            // Order vertices by objective value (stable: ties keep index order).
            order.clear();
            order.extend(0..=n);
            order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
            let best = order[0];
            let worst = order[n];
            let second_worst = order[n - 1];

            if (values[worst] - values[best]).abs() <= opts.f_tolerance {
                converged = true;
                break;
            }

            // Centroid of all but the worst vertex.
            centroid.fill(0.0);
            for (idx, v) in verts.iter().enumerate() {
                if idx == worst {
                    continue;
                }
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x;
                }
            }
            for c in &mut centroid {
                *c /= n as f64;
            }

            // Reflection.
            blend(&mut reflected, &centroid, &verts[worst], -1.0);
            let fr = eval(&reflected, &mut evals);
            if fr < values[best] {
                // Expansion.
                blend(&mut trial, &centroid, &verts[worst], -2.0);
                let fe = eval(&trial, &mut evals);
                if fe < fr {
                    std::mem::swap(&mut verts[worst], &mut trial);
                    values[worst] = fe;
                } else {
                    std::mem::swap(&mut verts[worst], &mut reflected);
                    values[worst] = fr;
                }
            } else if fr < values[second_worst] {
                std::mem::swap(&mut verts[worst], &mut reflected);
                values[worst] = fr;
            } else {
                // Contraction (outside if the reflection improved on the worst,
                // inside otherwise).
                if fr < values[worst] {
                    blend(&mut trial, &centroid, &reflected, 0.5);
                } else {
                    blend(&mut trial, &centroid, &verts[worst], 0.5);
                }
                let fc = eval(&trial, &mut evals);
                if fc < values[worst].min(fr) {
                    std::mem::swap(&mut verts[worst], &mut trial);
                    values[worst] = fc;
                } else {
                    // Shrink everything toward the best vertex.
                    best_v.copy_from_slice(&verts[best]);
                    for (idx, v) in verts.iter_mut().enumerate() {
                        if idx == best {
                            continue;
                        }
                        for (x, b) in v.iter_mut().zip(&best_v) {
                            *x = b + 0.5 * (*x - b);
                        }
                        values[idx] = eval(v, &mut evals);
                    }
                }
            }
        }

        let (best_idx, _) = values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("simplex always has vertices");
        SimplexResult {
            point: verts[best_idx].clone(),
            value: values[best_idx],
            evals,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = minimize(&[10.0, -10.0, 5.0], SimplexOptions::default(), |p| {
            p.iter().map(|x| x * x).sum()
        });
        assert!(r.value < 1e-6, "value {}", r.value);
        assert!(r.converged);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let opts = SimplexOptions {
            max_evals: 20_000,
            initial_step: 0.5,
            ..Default::default()
        };
        let r = minimize(&[-1.2, 1.0], opts, |p| {
            let (x, y) = (p[0], p[1]);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        });
        assert!((r.point[0] - 1.0).abs() < 1e-2, "x = {}", r.point[0]);
        assert!((r.point[1] - 1.0).abs() < 1e-2, "y = {}", r.point[1]);
    }

    #[test]
    fn one_dimensional_problems_work() {
        let r = minimize(&[100.0], SimplexOptions::default(), |p| (p[0] + 4.0).abs());
        assert!((r.point[0] + 4.0).abs() < 1e-3);
    }

    #[test]
    fn respects_eval_budget() {
        // The budget is checked once per iteration and a shrink iteration
        // spends n + 2 evaluations, so the overshoot is at most n + 1.
        for n in 1..=8 {
            let opts = SimplexOptions {
                max_evals: 50,
                ..Default::default()
            };
            let r = minimize(&vec![5.0; n], opts, |p| p.iter().map(|x| x * x).sum());
            assert!(r.evals <= 50 + n + 1, "n = {n}: evals {}", r.evals);
        }
    }

    #[test]
    fn survives_nonfinite_objective_regions() {
        // NaN outside the unit disk; minimum at origin within.
        let r = minimize(
            &[0.9, 0.0],
            SimplexOptions {
                initial_step: 0.05,
                ..Default::default()
            },
            |p| {
                let n: f64 = p.iter().map(|x| x * x).sum();
                if n > 1.0 {
                    f64::NAN
                } else {
                    n
                }
            },
        );
        assert!(r.value < 1e-4, "value {}", r.value);
    }

    #[test]
    #[should_panic(expected = "zero dimensions")]
    fn empty_start_panics() {
        let _ = minimize(&[], SimplexOptions::default(), |_| 0.0);
    }

    /// Objectives for the differential check against [`reference`]:
    /// a smooth bowl, integer plateaus (equal values, so the (value,
    /// index) tie order decides), a hashed landscape on which contraction
    /// keeps failing (shrink-heavy), a bowl that is NaN off a half-space,
    /// and a plateau that is infinite past a ring.
    fn landscape(kind: usize, p: &[f64]) -> f64 {
        match kind {
            0 => p
                .iter()
                .enumerate()
                .map(|(i, x)| (x - i as f64).powi(2))
                .sum(),
            1 => p.iter().map(|x| (x / 3.0).floor().abs()).sum(),
            2 => {
                let h = p.iter().fold(0.0, |acc, x| acc * 31.0 + x * 12.9898);
                (h.sin() * 43_758.545_3).fract().abs() + 1e-3 * p[0].abs()
            }
            3 => {
                if p[0] > 2.5 {
                    f64::NAN
                } else {
                    p.iter().map(|x| x * x).sum()
                }
            }
            _ => {
                let r: f64 = p.iter().map(|x| x * x).sum();
                if r > 400.0 {
                    f64::INFINITY
                } else {
                    (r / 50.0).round()
                }
            }
        }
    }

    proptest! {
        /// The flat-buffer minimizer equals the pre-rewrite one field by
        /// field, point bits and evaluation count included.
        #[test]
        fn prop_matches_the_reference_minimizer(
            start in prop::collection::vec(-20.0..20.0f64, 1..6),
            step in 0.01..30.0f64,
            max_evals in 1usize..600,
            tolerance in 0usize..3,
        ) {
            let opts = SimplexOptions {
                max_evals,
                f_tolerance: [0.0, 1e-9, 1e-2][tolerance],
                initial_step: step,
            };
            for kind in 0..5 {
                let fast = minimize(&start, opts, |p| landscape(kind, p));
                let slow = reference::minimize(&start, opts, |p| landscape(kind, p));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast.point), bits(&slow.point), "kind {}", kind);
                prop_assert_eq!(fast.value.to_bits(), slow.value.to_bits(), "kind {}", kind);
                prop_assert_eq!(fast.evals, slow.evals, "kind {}", kind);
                prop_assert_eq!(fast.converged, slow.converged, "kind {}", kind);
            }
        }

        #[test]
        fn prop_never_returns_worse_than_start(
            start in prop::collection::vec(-100.0..100.0f64, 1..5)
        ) {
            let f = |p: &[f64]| p.iter().map(|x| (x - 1.0) * (x - 1.0)).sum::<f64>();
            let f0 = f(&start);
            let r = minimize(&start, SimplexOptions::default(), f);
            prop_assert!(r.value <= f0 + 1e-12);
        }

        #[test]
        fn prop_quadratic_converges_to_target(
            target in prop::collection::vec(-50.0..50.0f64, 2..4)
        ) {
            let t = target.clone();
            let r = minimize(&vec![0.0; target.len()],
                SimplexOptions { max_evals: 10_000, ..Default::default() },
                move |p| p.iter().zip(&t).map(|(x, y)| (x - y) * (x - y)).sum());
            for (x, y) in r.point.iter().zip(&target) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }
    }
}
