//! The coordinate space: Euclidean positions augmented with a Vivaldi
//! *height* component.
//!
//! Distances follow the height-vector model of Dabek et al.: the distance
//! between two coordinates is the Euclidean distance between their position
//! vectors plus both heights. The height models the node's access-link
//! delay, which affects every path in and out of the node. With heights left
//! at zero the space degenerates to plain Euclidean space, which is what the
//! clustering layers of the paper operate on.

/// A network coordinate in `D`-dimensional Euclidean space plus a height.
///
/// `Coord` is `Copy` and cheap to pass by value. All arithmetic helpers are
/// careful to keep components finite; see [`Coord::is_finite`].
///
/// # Example
///
/// ```
/// use georep_coord::Coord;
///
/// let a = Coord::new([0.0, 3.0]);
/// let b = Coord::new([4.0, 0.0]);
/// assert_eq!(a.distance(&b), 5.0);
///
/// let c = Coord::new([0.0, 3.0]).with_height(1.0);
/// let d = Coord::new([4.0, 0.0]).with_height(2.0);
/// assert_eq!(c.distance(&d), 8.0); // 5 + 1 + 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coord<const D: usize> {
    pos: [f64; D],
    height: f64,
}

impl<const D: usize> Default for Coord<D> {
    fn default() -> Self {
        Self::origin()
    }
}

impl<const D: usize> Coord<D> {
    /// The origin with zero height.
    pub fn origin() -> Self {
        Coord {
            pos: [0.0; D],
            height: 0.0,
        }
    }

    /// Creates a coordinate at `pos` with zero height.
    pub fn new(pos: [f64; D]) -> Self {
        Coord { pos, height: 0.0 }
    }

    /// Returns a copy with the given height.
    ///
    /// # Panics
    ///
    /// Panics if `height` is negative (heights model an access-link delay
    /// and must be non-negative).
    pub fn with_height(mut self, height: f64) -> Self {
        assert!(height >= 0.0, "height must be non-negative, got {height}");
        self.height = height;
        self
    }

    /// The position vector.
    pub fn pos(&self) -> &[f64; D] {
        &self.pos
    }

    /// The value of one position component.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= D`.
    pub fn component(&self, axis: usize) -> f64 {
        self.pos[axis]
    }

    /// The height component.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Distance under the height-vector model: `‖a.pos − b.pos‖ + a.h + b.h`.
    ///
    /// This is the value used to predict round-trip times (in milliseconds
    /// when the space was trained on millisecond RTTs).
    pub fn distance(&self, other: &Self) -> f64 {
        self.euclidean(other) + self.height + other.height
    }

    /// Plain Euclidean distance between position vectors, ignoring heights.
    pub fn euclidean(&self, other: &Self) -> f64 {
        let mut s = 0.0;
        for i in 0..D {
            let d = self.pos[i] - other.pos[i];
            s += d * d;
        }
        s.sqrt()
    }

    /// Euclidean norm of the position vector.
    pub fn norm(&self) -> f64 {
        self.euclidean(&Self::origin())
    }

    /// Component-wise sum of positions; heights are added as well.
    pub fn add(&self, other: &Self) -> Self {
        let mut pos = self.pos;
        for (p, o) in pos.iter_mut().zip(&other.pos) {
            *p += o;
        }
        Coord {
            pos,
            height: self.height + other.height,
        }
    }

    /// Component-wise difference of positions; heights are *summed* because
    /// under the height-vector model the vector from `other` to `self` has
    /// magnitude `‖Δpos‖ + h_a + h_b`.
    pub fn sub(&self, other: &Self) -> Self {
        let mut pos = self.pos;
        for (p, o) in pos.iter_mut().zip(&other.pos) {
            *p -= o;
        }
        Coord {
            pos,
            height: self.height + other.height,
        }
    }

    /// Scales position and height by `s`.
    pub fn scale(&self, s: f64) -> Self {
        let mut pos = self.pos;
        for p in &mut pos {
            *p *= s;
        }
        Coord {
            pos,
            height: self.height * s,
        }
    }

    /// Unit vector (position part only) pointing from `other` toward `self`.
    ///
    /// Returns `None` when the two positions coincide; callers typically
    /// substitute a random direction in that case.
    pub fn direction_from(&self, other: &Self) -> Option<[f64; D]> {
        let mut v = [0.0; D];
        let mut norm_sq = 0.0;
        for ((slot, a), b) in v.iter_mut().zip(&self.pos).zip(&other.pos) {
            *slot = a - b;
            norm_sq += *slot * *slot;
        }
        let norm = norm_sq.sqrt();
        if norm <= f64::EPSILON {
            return None;
        }
        for x in &mut v {
            *x /= norm;
        }
        Some(v)
    }

    /// Displaces the position by `delta` scaled by `scale`; height is left
    /// untouched.
    pub fn displace(&self, delta: &[f64; D], scale: f64) -> Self {
        let mut pos = self.pos;
        for i in 0..D {
            pos[i] += delta[i] * scale;
        }
        Coord {
            pos,
            height: self.height,
        }
    }

    /// Adds `dh` to the height, clamping at zero.
    pub fn displace_height(&self, dh: f64) -> Self {
        Coord {
            pos: self.pos,
            height: (self.height + dh).max(0.0),
        }
    }

    /// `true` when every component (and the height) is finite.
    pub fn is_finite(&self) -> bool {
        self.height.is_finite() && self.pos.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn origin_is_default() {
        assert_eq!(Coord::<3>::origin(), Coord::<3>::default());
        assert_eq!(Coord::<3>::origin().norm(), 0.0);
    }

    #[test]
    fn distance_includes_heights() {
        let a = Coord::new([0.0]).with_height(2.0);
        let b = Coord::new([10.0]).with_height(3.0);
        assert_eq!(a.distance(&b), 15.0);
        assert_eq!(a.euclidean(&b), 10.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Coord::new([1.0, 2.0, 3.0]).with_height(0.5);
        let b = Coord::new([-4.0, 0.0, 9.0]).with_height(1.5);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    #[should_panic(expected = "height must be non-negative")]
    fn negative_height_rejected() {
        let _ = Coord::new([0.0]).with_height(-1.0);
    }

    #[test]
    fn direction_from_is_unit() {
        let a = Coord::new([3.0, 4.0]);
        let b = Coord::new([0.0, 0.0]);
        let u = a.direction_from(&b).unwrap();
        assert!((u[0] - 0.6).abs() < 1e-12);
        assert!((u[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn direction_from_coincident_is_none() {
        let a = Coord::new([1.0, 1.0]);
        assert!(a.direction_from(&a).is_none());
    }

    #[test]
    fn displace_height_clamps_at_zero() {
        let a = Coord::new([0.0]).with_height(1.0);
        assert_eq!(a.displace_height(-5.0).height(), 0.0);
        assert_eq!(a.displace_height(0.5).height(), 1.5);
    }

    fn arb_coord() -> impl Strategy<Value = Coord<3>> {
        (prop::array::uniform3(-1e3..1e3f64), 0.0..100.0f64)
            .prop_map(|(pos, h)| Coord::new(pos).with_height(h))
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric(a in arb_coord(), b in arb_coord()) {
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-9);
        }

        #[test]
        fn prop_distance_nonnegative(a in arb_coord(), b in arb_coord()) {
            prop_assert!(a.distance(&b) >= 0.0);
        }

        #[test]
        fn prop_euclidean_triangle_inequality(
            a in arb_coord(), b in arb_coord(), c in arb_coord()
        ) {
            // The pure Euclidean part is a metric; heights intentionally
            // break d(x,x)=0 but not the triangle inequality on positions.
            prop_assert!(a.euclidean(&c) <= a.euclidean(&b) + b.euclidean(&c) + 1e-9);
        }

        #[test]
        fn prop_self_distance_is_twice_height(a in arb_coord()) {
            prop_assert!((a.distance(&a) - 2.0 * a.height()).abs() < 1e-9);
        }

        #[test]
        fn prop_scale_linearity(a in arb_coord(), s in 0.0..10.0f64) {
            let scaled = a.scale(s);
            prop_assert!((scaled.norm() - a.norm() * s).abs() < 1e-6);
        }
    }
}
