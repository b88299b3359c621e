//! Weighted pseudo-points.

use georep_coord::Coord;

/// A coordinate with an attached weight.
///
/// The weighted K-means of the paper's Algorithm 1 treats every
/// micro-cluster as a single *pseudo-point* located at the cluster's
/// centroid and weighted by the amount of traffic the cluster represents.
///
/// # Example
///
/// ```
/// use georep_cluster::WeightedPoint;
/// use georep_coord::Coord;
///
/// let p = WeightedPoint::new(Coord::new([1.0, 2.0]), 3.5);
/// assert_eq!(p.weight, 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPoint<const D: usize> {
    /// The point's position.
    pub coord: Coord<D>,
    /// Its weight (must be positive and finite).
    pub weight: f64,
}

impl<const D: usize> WeightedPoint<D> {
    /// Creates a weighted point.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not a positive finite number or the
    /// coordinate is not finite.
    pub fn new(coord: Coord<D>, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive and finite, got {weight}"
        );
        assert!(coord.is_finite(), "coordinate must be finite");
        WeightedPoint { coord, weight }
    }

    /// A point with unit weight.
    pub fn unit(coord: Coord<D>) -> Self {
        Self::new(coord, 1.0)
    }
}

impl<const D: usize> From<Coord<D>> for WeightedPoint<D> {
    fn from(coord: Coord<D>) -> Self {
        WeightedPoint::unit(coord)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_weight_is_one() {
        let p = WeightedPoint::unit(Coord::new([0.0; 3]));
        assert_eq!(p.weight, 1.0);
    }

    #[test]
    fn from_coord() {
        let p: WeightedPoint<2> = Coord::new([1.0, 1.0]).into();
        assert_eq!(p.weight, 1.0);
        assert_eq!(p.coord, Coord::new([1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let _ = WeightedPoint::new(Coord::new([0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn nan_weight_rejected() {
        let _ = WeightedPoint::new(Coord::new([0.0]), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "coordinate must be finite")]
    fn nonfinite_coord_rejected() {
        let _ = WeightedPoint::new(Coord::new([f64::INFINITY]), 1.0);
    }
}
