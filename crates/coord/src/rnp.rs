//! Retrospective Network Positioning (RNP).
//!
//! RNP (Ping, McConnell, Hwang — GridPeer 2010) is the coordinate scheme the
//! replica-placement paper builds on. Where Vivaldi reacts to every sample
//! with an immediate spring step — and therefore jitters on noisy platforms
//! such as PlanetLab — RNP is *retrospective*: each node retains a bounded
//! history of latency samples and periodically re-solves its own position
//! against the retained history with a downhill-simplex search.
//!
//! Samples are not treated equally: each is weighted by the *reliability* of
//! the peer that produced it (peers advertising a low error estimate count
//! for more) and by its age (old samples decay geometrically). This is the
//! "consumes information differently according to the reliability of the
//! information" behaviour described in the papers.
//!
//! The net effect, which the tests in this module check, is that on the same
//! sample stream RNP's coordinates are both more accurate and far more
//! stable than Vivaldi's.

use std::collections::VecDeque;

use crate::simplex::{minimize, SimplexOptions};
use crate::space::Coord;
use crate::LatencyEstimator;

/// Tuning constants for [`Rnp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RnpConfig {
    /// Maximum number of retained samples.
    pub window: usize,
    /// Re-solve the position every `refit_interval` samples.
    pub refit_interval: usize,
    /// Objective-evaluation budget per re-solve.
    pub max_evals: usize,
    /// Geometric age decay applied per retained sample (newest = 1.0).
    pub age_decay: f64,
    /// Whether the node also fits a height component (access-link delay
    /// shared by all of its paths). Heights noticeably improve wide-area
    /// accuracy, exactly as in Vivaldi's height-vector model.
    pub use_height: bool,
}

impl Default for RnpConfig {
    fn default() -> Self {
        RnpConfig {
            window: 96,
            refit_interval: 8,
            max_evals: 800,
            age_decay: 0.98,
            use_height: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample<const D: usize> {
    peer: Coord<D>,
    rtt: f64,
    reliability: f64,
}

/// Node-local state of the RNP protocol.
///
/// # Example
///
/// ```
/// use georep_coord::{rnp::Rnp, Coord, LatencyEstimator};
///
/// let mut node: Rnp<2> = Rnp::new();
/// for _ in 0..32 {
///     node.observe(Coord::new([25.0, 0.0]), 0.1, 25.0);
///     node.observe(Coord::new([-25.0, 0.0]), 0.1, 25.0);
/// }
/// // The node must sit equidistant from both anchors.
/// let c = node.coordinate();
/// assert!(c.component(0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct Rnp<const D: usize> {
    coord: Coord<D>,
    error: f64,
    config: RnpConfig,
    history: VecDeque<Sample<D>>,
    samples: u64,
    since_refit: usize,
}

impl<const D: usize> Default for Rnp<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> Rnp<D> {
    /// A fresh node at the origin with maximum uncertainty.
    pub fn new() -> Self {
        Self::with_config(RnpConfig::default())
    }

    /// A fresh node with explicit tuning constants.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `refit_interval` is zero, or if `age_decay` is
    /// outside `(0, 1]`.
    pub fn with_config(config: RnpConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        assert!(config.refit_interval > 0, "refit_interval must be positive");
        assert!(
            config.age_decay > 0.0 && config.age_decay <= 1.0,
            "age_decay must be in (0, 1], got {}",
            config.age_decay
        );
        Rnp {
            coord: Coord::origin(),
            error: 1.0,
            config,
            history: VecDeque::with_capacity(config.window),
            samples: 0,
            since_refit: 0,
        }
    }

    /// Number of samples incorporated so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Number of samples currently retained in the window.
    pub fn retained(&self) -> usize {
        self.history.len()
    }

    /// The configuration this node runs with.
    pub fn config(&self) -> &RnpConfig {
        &self.config
    }

    /// Forces an immediate retrospective re-solve, regardless of the refit
    /// interval. A no-op when no samples are retained.
    pub fn refit(&mut self) {
        if self.history.is_empty() {
            return;
        }
        self.since_refit = 0;

        // Per-sample weight: peer reliability × geometric age decay
        // (newest sample has age 0).
        let n = self.history.len();
        let weights: Vec<f64> = self
            .history
            .iter()
            .enumerate()
            .map(|(idx, s)| s.reliability * self.config.age_decay.powi((n - 1 - idx) as i32))
            .collect();
        let total_w: f64 = weights.iter().sum();
        if total_w <= 0.0 {
            return;
        }

        // The window, copied once into column-major arrays: one column per
        // position axis (`axes[axis * n + sample]`), then the peers'
        // heights and the RTTs. Every objective evaluation runs over these
        // contiguous columns and reuses one column of terms.
        let mut axes = vec![0.0; D * n];
        let mut heights = Vec::with_capacity(n);
        let mut rtts = Vec::with_capacity(n);
        for (j, s) in self.history.iter().enumerate() {
            for (axis, x) in s.peer.pos().iter().enumerate() {
                axes[axis * n + j] = *x;
            }
            heights.push(s.peer.height());
            rtts.push(s.rtt);
        }
        let mut terms = vec![0.0; n];
        let use_height = self.config.use_height;
        let objective = |p: &[f64]| -> f64 {
            // The height parameter is free during the search; negative
            // trial values are clamped to zero (heights model a physical
            // delay).
            let height = if use_height { p[D].max(0.0) } else { 0.0 };
            // `Coord::distance` from the candidate to each peer, with its
            // operations in its order: squared axis differences summed from
            // 0.0 axis by axis, the root, the candidate's height, then the
            // peer's height.
            terms.fill(0.0);
            for (c, col) in p.iter().zip(axes.chunks_exact(n)) {
                for (t, x) in terms.iter_mut().zip(col) {
                    let d = c - x;
                    *t += d * d;
                }
            }
            // Squared error normalized by the RTT: a compromise between
            // absolute error (dominated by long trans-continental paths)
            // and relative error (dominated by short local paths). Dividing
            // once by the RTT keeps both regimes in play, which measurably
            // beats either extreme on wide-area matrices.
            for (((t, h), rtt), w) in terms.iter_mut().zip(&heights).zip(&rtts).zip(&weights) {
                let e = t.sqrt() + height + h - rtt;
                *t = w * e * e / rtt;
            }
            // Summed sequentially in window order.
            let mut acc = 0.0;
            for t in &terms {
                acc += t;
            }
            acc / total_w
        };

        // The median retained RTT sets a sensible probe scale for the
        // simplex: coordinates live on the scale of RTT milliseconds.
        let mut sorted = rtts.clone();
        sorted.sort_by(f64::total_cmp);
        let scale = (sorted[n / 2] * 0.25).max(1.0);

        let mut start: Vec<f64> = self.coord.pos().to_vec();
        if use_height {
            start.push(self.coord.height());
        }
        let result = minimize(
            &start,
            SimplexOptions {
                max_evals: self.config.max_evals,
                initial_step: scale,
                ..Default::default()
            },
            objective,
        );

        let mut pos = [0.0; D];
        pos.copy_from_slice(&result.point[..D]);
        let next = if use_height {
            Coord::new(pos).with_height(result.point[D].max(0.0))
        } else {
            Coord::new(pos)
        };
        if next.is_finite() {
            self.coord = next;
            // Weighted RMS *relative* error at the solution becomes our new
            // confidence figure (the fit objective itself is ms-scaled).
            let mut rel_acc = 0.0;
            for (s, w) in self.history.iter().zip(&weights) {
                let rel = (next.distance(&s.peer) - s.rtt) / s.rtt;
                rel_acc += w * rel * rel;
            }
            self.error = (rel_acc / total_w).sqrt().clamp(1e-6, 2.0);
        }
    }
}

impl<const D: usize> LatencyEstimator<D> for Rnp<D> {
    fn coordinate(&self) -> Coord<D> {
        self.coord
    }

    fn error(&self) -> f64 {
        self.error
    }

    fn observe(&mut self, peer: Coord<D>, peer_error: f64, rtt_ms: f64) {
        if !(rtt_ms.is_finite() && rtt_ms > 0.0 && peer.is_finite()) {
            return;
        }
        self.samples += 1;
        // A NaN peer error counts as the least reliable value; `clamp`
        // would pass it through and poison every weight in the window.
        let peer_error = if peer_error.is_nan() {
            10.0
        } else {
            peer_error.clamp(0.0, 10.0)
        };
        let reliability = 1.0 / (1.0 + peer_error);
        if self.history.len() == self.config.window {
            self.history.pop_front();
        }
        self.history.push_back(Sample {
            peer,
            rtt: rtt_ms,
            reliability,
        });
        self.since_refit += 1;
        if self.since_refit >= self.config.refit_interval {
            self.refit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vivaldi::Vivaldi;

    #[test]
    fn fresh_node_is_uncertain() {
        let r: Rnp<3> = Rnp::new();
        assert_eq!(r.error(), 1.0);
        assert_eq!(r.retained(), 0);
        assert_eq!(r.coordinate(), Coord::origin());
    }

    #[test]
    fn positions_against_fixed_anchors() {
        // Anchors at known positions; the node is 50 ms from each of four
        // anchors at (±50, 0), (0, ±50) — the only consistent spot is the
        // origin... place it at (10, 10) instead for a non-trivial answer.
        let anchors = [
            (Coord::new([60.0, 10.0]), 50.0),
            (Coord::new([-40.0, 10.0]), 50.0),
            (Coord::new([10.0, 60.0]), 50.0),
            (Coord::new([10.0, -40.0]), 50.0),
        ];
        let mut node: Rnp<2> = Rnp::new();
        for _ in 0..8 {
            for (peer, rtt) in anchors {
                node.observe(peer, 0.05, rtt);
            }
        }
        node.refit();
        let c = node.coordinate();
        assert!(
            (c.component(0) - 10.0).abs() < 1.0,
            "x = {}",
            c.component(0)
        );
        assert!(
            (c.component(1) - 10.0).abs() < 1.0,
            "y = {}",
            c.component(1)
        );
        assert!(node.error() < 0.05);
    }

    #[test]
    fn window_is_bounded() {
        let cfg = RnpConfig {
            window: 16,
            ..Default::default()
        };
        let mut node: Rnp<2> = Rnp::with_config(cfg);
        for i in 0..100 {
            node.observe(Coord::new([i as f64, 0.0]), 0.1, 10.0);
        }
        assert_eq!(node.retained(), 16);
        assert_eq!(node.samples(), 100);
    }

    #[test]
    fn ignores_invalid_samples() {
        let mut node: Rnp<2> = Rnp::new();
        node.observe(Coord::new([1.0, 1.0]), 0.1, f64::INFINITY);
        node.observe(Coord::new([1.0, 1.0]), 0.1, -1.0);
        node.observe(Coord::new([f64::NAN, 1.0]), 0.1, 5.0);
        assert_eq!(node.retained(), 0);
    }

    #[test]
    fn a_nan_peer_error_does_not_poison_the_window() {
        let mut node: Rnp<2> = Rnp::new();
        let peer = Coord::new([30.0, 0.0]);
        node.observe(peer, f64::NAN, 30.0);
        for i in 0..400 {
            node.observe(peer, 0.1, 30.0);
            assert!(node.error().is_finite(), "error NaN after {i} good samples");
        }
        assert!(node.coordinate().is_finite());
    }

    #[test]
    fn refit_without_samples_is_noop() {
        let mut node: Rnp<2> = Rnp::new();
        node.refit();
        assert_eq!(node.coordinate(), Coord::origin());
    }

    #[test]
    fn unreliable_peers_count_less() {
        // Reliable anchors say "you are at x = 30"; an unreliable anchor
        // claims a latency that would place the node at x = 130. The fit
        // must side with the reliable majority.
        let mut node: Rnp<1> = Rnp::new();
        for _ in 0..20 {
            node.observe(Coord::new([0.0]), 0.01, 30.0);
            node.observe(Coord::new([60.0]), 0.01, 30.0);
            node.observe(Coord::new([230.0]), 9.0, 100.0); // unreliable liar
        }
        node.refit();
        assert!(
            (node.coordinate().component(0) - 30.0).abs() < 6.0,
            "x = {}",
            node.coordinate().component(0)
        );
    }

    #[test]
    fn more_stable_than_vivaldi_on_noisy_stream() {
        // Same noisy sample stream into both protocols; after warm-up, RNP
        // must move (far) less per sample than Vivaldi.
        let anchors = [
            Coord::new([50.0, 0.0]),
            Coord::new([-50.0, 0.0]),
            Coord::new([0.0, 50.0]),
        ];
        let true_rtts = [52.0, 48.0, 55.0];
        // Deterministic "noise": ±20% multiplicative, cycling.
        let noise = [1.2, 0.85, 1.0, 1.15, 0.8, 1.05];

        let mut rnp: Rnp<2> = Rnp::new();
        let mut viv: Vivaldi<2> = Vivaldi::new();
        let mut rnp_motion = 0.0;
        let mut viv_motion = 0.0;
        let mut k = 0;
        for round in 0..300 {
            for (i, &peer) in anchors.iter().enumerate() {
                let rtt = true_rtts[i] * noise[k % noise.len()];
                k += 1;
                let (r0, v0) = (rnp.coordinate(), viv.coordinate());
                rnp.observe(peer, 0.05, rtt);
                viv.observe(peer, 0.05, rtt);
                if round >= 100 {
                    rnp_motion += r0.euclidean(&rnp.coordinate());
                    viv_motion += v0.euclidean(&viv.coordinate());
                }
            }
        }
        assert!(
            rnp_motion < viv_motion * 0.5,
            "rnp motion {rnp_motion:.1} should be well below vivaldi {viv_motion:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = Rnp::<2>::with_config(RnpConfig {
            window: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "age_decay")]
    fn bad_decay_rejected() {
        let _ = Rnp::<2>::with_config(RnpConfig {
            age_decay: 1.5,
            ..Default::default()
        });
    }
}
