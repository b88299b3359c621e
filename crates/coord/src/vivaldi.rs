//! The Vivaldi decentralized network coordinate protocol.
//!
//! Vivaldi (Dabek, Cox, Kaashoek, Morris — SIGCOMM 2004) models the network
//! as a mass-spring system: each latency sample exerts a force proportional
//! to the prediction error, and nodes move a fraction of that force on every
//! sample. The fraction adapts to the relative confidence of the two nodes
//! involved, so uncertain newcomers move a lot and converged nodes barely
//! budge. The paper under reproduction uses Vivaldi as the baseline that its
//! own RNP scheme improves upon.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::space::Coord;
use crate::LatencyEstimator;

/// Process-wide nonce so that independently-created nodes break coincident
/// positions in *different* random directions.
static INSTANCE_NONCE: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);

/// Adaptive timestep constant `c_c`: the fraction of the force applied per
/// sample. The Vivaldi paper recommends `0.25`.
const CC: f64 = 0.25;

/// Error-smoothing constant `c_e`. The Vivaldi paper recommends `0.25`.
const CE: f64 = 0.25;

/// Lower bound applied to heights under the height-vector model, in
/// milliseconds. Keeps the height from collapsing to zero, which would let
/// the spring system fold nodes on top of each other.
const MIN_HEIGHT: f64 = 0.1;

/// Model choice for [`Vivaldi`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VivaldiConfig {
    /// Whether coordinates carry a height component modelling access-link
    /// delay. Heights generally improve wide-area accuracy.
    pub use_height: bool,
}

impl VivaldiConfig {
    /// Configuration with the height-vector model enabled.
    pub fn with_height() -> Self {
        VivaldiConfig { use_height: true }
    }
}

/// Node-local state of the Vivaldi protocol.
///
/// # Example
///
/// ```
/// use georep_coord::{vivaldi::Vivaldi, Coord, LatencyEstimator};
///
/// let mut node: Vivaldi<2> = Vivaldi::new();
/// let peer = Coord::new([30.0, 0.0]);
/// for _ in 0..50 {
///     node.observe(peer, 0.2, 30.0);
/// }
/// assert!((node.predict(&peer) - 30.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct Vivaldi<const D: usize> {
    coord: Coord<D>,
    error: f64,
    config: VivaldiConfig,
    samples: u64,
    /// Tiny deterministic counter used to derive a direction when two nodes
    /// sit at exactly the same position.
    tiebreak: u64,
}

impl<const D: usize> Default for Vivaldi<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> Vivaldi<D> {
    /// A fresh node at the origin with maximum uncertainty.
    pub fn new() -> Self {
        let nonce = INSTANCE_NONCE.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        Self::seeded(VivaldiConfig::default(), nonce)
    }

    /// A fresh node with a caller-chosen tie-break seed.
    ///
    /// Two coincident nodes with different seeds separate in different
    /// directions. Use this (e.g. with the node's index as the seed) when a
    /// simulation must be bit-for-bit reproducible; [`Vivaldi::new`] draws
    /// the seed from a process-wide counter instead.
    pub fn seeded(config: VivaldiConfig, seed: u64) -> Self {
        let coord = if config.use_height {
            Coord::origin().with_height(MIN_HEIGHT)
        } else {
            Coord::origin()
        };
        // Spread user seeds (often small integers) across the u64 space.
        let tiebreak = seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1B54A32D192ED03;
        Vivaldi {
            coord,
            error: 1.0,
            config,
            samples: 0,
            tiebreak,
        }
    }

    /// Number of samples incorporated so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    fn random_unit(&mut self) -> [f64; D] {
        // SplitMix64 over the tiebreak counter: deterministic, cheap, and
        // good enough to break the symmetry of coincident nodes.
        let mut v = [0.0; D];
        let mut norm_sq = 0.0;
        while norm_sq <= f64::EPSILON {
            for slot in &mut v {
                self.tiebreak = self.tiebreak.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = self.tiebreak;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                // Map to (-1, 1).
                *slot = (z as f64 / u64::MAX as f64) * 2.0 - 1.0;
            }
            norm_sq = v.iter().map(|x| x * x).sum();
        }
        let norm = norm_sq.sqrt();
        for x in &mut v {
            *x /= norm;
        }
        v
    }
}

impl<const D: usize> LatencyEstimator<D> for Vivaldi<D> {
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
        // A NaN peer error counts as the least reliable value; `clamp`
        // would pass it through into every later weight.
        let peer_error = if peer_error.is_nan() {
            10.0
        } else {
            peer_error.clamp(1e-6, 10.0)
        };
        self.samples += 1;

        // Sample-confidence balance: w → 1 when we are much less certain
        // than the peer, w → 0 when we are much more certain.
        let w = self.error / (self.error + peer_error);

        let predicted = self.coord.distance(&peer);
        let sample_err = (predicted - rtt_ms).abs() / rtt_ms;

        // Exponentially smooth our error estimate toward the sample error.
        let alpha = CE * w;
        self.error = (sample_err * alpha + self.error * (1.0 - alpha)).clamp(1e-6, 2.0);

        // Apply the spring force.
        let delta = CC * w;
        let force = rtt_ms - predicted; // >0 pushes us away from the peer
        let dir = match self.coord.direction_from(&peer) {
            Some(d) => d,
            None => self.random_unit(),
        };
        let mut next = self.coord.displace(&dir, delta * force);

        if self.config.use_height {
            // Under the height-vector model the unit vector's height
            // component is (h_i + h_j) / ‖x_i − x_j‖; positive force grows
            // our height, negative force shrinks it.
            let sep = predicted.max(f64::EPSILON);
            let h_frac = (self.coord.height() + peer.height()) / sep;
            next = next.displace_height(delta * force * h_frac);
            if next.height() < MIN_HEIGHT {
                next = Coord::new(*next.pos()).with_height(MIN_HEIGHT);
            }
        }

        if next.is_finite() {
            self.coord = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converge_pair(rtt: f64, rounds: usize) -> (Vivaldi<3>, Vivaldi<3>) {
        let mut a: Vivaldi<3> = Vivaldi::new();
        let mut b: Vivaldi<3> = Vivaldi::new();
        for _ in 0..rounds {
            let (ca, cb) = (a.coordinate(), b.coordinate());
            let (ea, eb) = (a.error(), b.error());
            a.observe(cb, eb, rtt);
            b.observe(ca, ea, rtt);
        }
        (a, b)
    }

    #[test]
    fn fresh_node_is_uncertain() {
        let v: Vivaldi<2> = Vivaldi::new();
        assert_eq!(v.error(), 1.0);
        assert_eq!(v.samples(), 0);
        assert_eq!(v.coordinate(), Coord::origin());
    }

    #[test]
    fn two_nodes_converge_to_their_rtt() {
        let (a, b) = converge_pair(42.0, 200);
        let d = a.coordinate().distance(&b.coordinate());
        assert!(
            (d - 42.0).abs() < 2.0,
            "distance {d} should approximate 42 ms"
        );
        assert!(a.error() < 0.2);
    }

    #[test]
    fn error_shrinks_with_consistent_samples() {
        let (a, _) = converge_pair(20.0, 100);
        assert!(a.error() < 0.5, "error {} should shrink", a.error());
    }

    #[test]
    fn ignores_invalid_rtts() {
        let mut v: Vivaldi<2> = Vivaldi::new();
        let peer = Coord::new([5.0, 5.0]);
        v.observe(peer, 0.5, f64::NAN);
        v.observe(peer, 0.5, -3.0);
        v.observe(peer, 0.5, 0.0);
        assert_eq!(v.samples(), 0);
        assert_eq!(v.coordinate(), Coord::origin());
    }

    #[test]
    fn ignores_nonfinite_peer() {
        let mut v: Vivaldi<2> = Vivaldi::new();
        let bad = Coord::new([f64::INFINITY, 0.0]);
        v.observe(bad, 0.5, 10.0);
        assert_eq!(v.samples(), 0);
    }

    #[test]
    fn a_nan_peer_error_does_not_poison_the_error_estimate() {
        let mut v: Vivaldi<2> = Vivaldi::new();
        let peer = Coord::new([30.0, 0.0]);
        v.observe(peer, f64::NAN, 30.0);
        for i in 0..400 {
            v.observe(peer, 0.1, 30.0);
            assert!(v.error().is_finite(), "error NaN after {i} good samples");
        }
        assert!(v.coordinate().is_finite());
    }

    #[test]
    fn coincident_nodes_separate() {
        // Both start at the origin; the random tie-break direction must
        // separate them.
        let (a, b) = converge_pair(30.0, 50);
        assert!(a.coordinate().euclidean(&b.coordinate()) > 1.0);
    }

    #[test]
    fn height_stays_above_minimum() {
        let mut v: Vivaldi<2> = Vivaldi::seeded(VivaldiConfig::with_height(), 0);
        let peer = Coord::new([1.0, 0.0]).with_height(0.1);
        for _ in 0..100 {
            v.observe(peer, 0.2, 1.0); // tiny RTT pulls heights down
        }
        assert!(v.coordinate().height() >= MIN_HEIGHT);
    }

    #[test]
    fn triangle_of_nodes_embeds_consistently() {
        // Three nodes with RTTs 30/40/50 (a right triangle) should embed
        // with low relative error.
        let rtts = [[0.0, 30.0, 40.0], [30.0, 0.0, 50.0], [40.0, 50.0, 0.0]];
        let mut nodes: Vec<Vivaldi<3>> = (0..3).map(|_| Vivaldi::new()).collect();
        for _ in 0..500 {
            for i in 0..3 {
                for j in 0..3 {
                    if i == j {
                        continue;
                    }
                    let peer = nodes[j].coordinate();
                    let err = nodes[j].error();
                    nodes[i].observe(peer, err, rtts[i][j]);
                }
            }
        }
        for i in 0..3 {
            for j in (i + 1)..3 {
                let d = nodes[i].coordinate().distance(&nodes[j].coordinate());
                let rel = (d - rtts[i][j]).abs() / rtts[i][j];
                assert!(
                    rel < 0.12,
                    "pair ({i},{j}): predicted {d}, true {}",
                    rtts[i][j]
                );
            }
        }
    }
}
