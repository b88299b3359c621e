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

/// Samples per block of the fused refit objective.
const LANES: usize = 8;

/// Eight consecutive retained samples in column form: lane `j` of block
/// `b` is window sample `8b + j`.
#[derive(Debug, Clone, Copy)]
struct Block<const D: usize> {
    axes: [[f64; LANES]; D],
    heights: [f64; LANES],
    rtts: [f64; LANES],
    weights: [f64; LANES],
}

/// A refit's retained window, copied once into 8-sample blocks so every
/// objective evaluation is one pass over contiguous columns.
struct Window<const D: usize> {
    blocks: Vec<Block<D>>,
    len: usize,
    total_w: f64,
}

impl<const D: usize> Window<D> {
    /// The window of `history` under per-sample `weights` summing to
    /// `total_w`. Lanes past the last sample hold finite filler that the
    /// objective computes but never adds.
    fn new(history: &VecDeque<Sample<D>>, weights: &[f64], total_w: f64) -> Self {
        let filler = Block {
            axes: [[0.0; LANES]; D],
            heights: [0.0; LANES],
            rtts: [1.0; LANES],
            weights: [0.0; LANES],
        };
        let mut blocks = vec![filler; history.len().div_ceil(LANES)];
        for (i, (s, &w)) in history.iter().zip(weights).enumerate() {
            let (block, lane) = (&mut blocks[i / LANES], i % LANES);
            for (col, x) in block.axes.iter_mut().zip(s.peer.pos()) {
                col[lane] = *x;
            }
            block.heights[lane] = s.peer.height();
            block.rtts[lane] = s.rtt;
            block.weights[lane] = w;
        }
        Window {
            blocks,
            len: history.len(),
            total_w,
        }
    }

    /// The fit objective at candidate `p` (position, then the height when
    /// `use_height`): the weighted squared error of `Coord::distance`
    /// against each RTT, normalized by the RTT — a compromise between
    /// absolute error (dominated by long trans-continental paths) and
    /// relative error (dominated by short local paths) that measurably
    /// beats either extreme on wide-area matrices.
    ///
    /// Each sample keeps `Coord::distance`'s operations in its order —
    /// squared axis differences summed from 0.0 axis by axis, the root,
    /// the candidate's height, then the peer's — and the terms are added
    /// to one running sum in window order, block by block.
    fn objective(&self, p: &[f64], use_height: bool) -> f64 {
        // The height parameter is free during the search; negative trial
        // values are clamped to zero (heights model a physical delay).
        let height = if use_height { p[D].max(0.0) } else { 0.0 };
        let mut acc = 0.0;
        for (b, block) in self.blocks.iter().enumerate() {
            let mut sq = [0.0; LANES];
            for (c, col) in p.iter().zip(&block.axes) {
                for (s, x) in sq.iter_mut().zip(col) {
                    let d = c - x;
                    *s += d * d;
                }
            }
            let mut terms = [0.0; LANES];
            for (lane, t) in terms.iter_mut().enumerate() {
                let e = sq[lane].sqrt() + height + block.heights[lane] - block.rtts[lane];
                *t = block.weights[lane] * e * e / block.rtts[lane];
            }
            let live = (self.len - b * LANES).min(LANES);
            for t in &terms[..live] {
                acc += t;
            }
        }
        acc / self.total_w
    }
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

        let window = Window::new(&self.history, &weights, total_w);
        let use_height = self.config.use_height;

        // The median retained RTT sets a sensible probe scale for the
        // simplex: coordinates live on the scale of RTT milliseconds.
        let mut rtts: Vec<f64> = self.history.iter().map(|s| s.rtt).collect();
        let (_, median, _) = rtts.select_nth_unstable_by(n / 2, f64::total_cmp);
        let scale = (*median * 0.25).max(1.0);

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
            |p| window.objective(p, use_height),
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

    /// The fit objective as a plain loop: `Coord::distance` per sample,
    /// one running sum in window order.
    fn naive_objective<const D: usize>(
        history: &VecDeque<Sample<D>>,
        weights: &[f64],
        p: &[f64],
        use_height: bool,
    ) -> f64 {
        let mut pos = [0.0; D];
        pos.copy_from_slice(&p[..D]);
        let candidate = if use_height {
            Coord::new(pos).with_height(p[D].max(0.0))
        } else {
            Coord::new(pos)
        };
        let total_w: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for (s, w) in history.iter().zip(weights) {
            let e = candidate.distance(&s.peer) - s.rtt;
            acc += w * e * e / s.rtt;
        }
        acc / total_w
    }

    /// Every window length from 1 to 96 (so every block tail runs), both
    /// height modes, at `D` dimensions.
    fn check_fused_objective<const D: usize>(seed: u64) {
        let mut state = seed;
        let mut draw = |scale: f64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
        };
        for len in 1..=96 {
            let history: VecDeque<Sample<D>> = (0..len)
                .map(|_| Sample {
                    peer: Coord::new(std::array::from_fn(|_| draw(300.0)))
                        .with_height(draw(20.0).abs()),
                    rtt: 1.0 + draw(400.0).abs(),
                    reliability: 0.1 + draw(1.0).abs(),
                })
                .collect();
            let weights: Vec<f64> = history
                .iter()
                .enumerate()
                .map(|(i, s)| s.reliability * 0.98f64.powi((len - 1 - i) as i32))
                .collect();
            let total_w: f64 = weights.iter().sum();
            let window = Window::new(&history, &weights, total_w);
            // The last entry of a probe is its height; random probes
            // range over negative heights too, which the objective clamps
            // to zero. The far probe makes every term infinite, where an
            // added filler lane (0 · ∞) would turn the sum into NaN.
            let mut probes: Vec<Vec<f64>> = (0..4)
                .map(|_| (0..=D).map(|_| draw(500.0)).collect())
                .collect();
            probes.push(vec![1e300; D + 1]);
            for p in probes {
                for use_height in [true, false] {
                    let fused = window.objective(&p, use_height);
                    let naive = naive_objective(&history, &weights, &p, use_height);
                    assert_eq!(
                        fused.to_bits(),
                        naive.to_bits(),
                        "D {D}, len {len}, use_height {use_height}: {fused} vs {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_objective_matches_per_sample_distances_bit_for_bit() {
        check_fused_objective::<1>(1);
        check_fused_objective::<3>(3);
        check_fused_objective::<7>(7);
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
