//! Great-circle geometry for latency synthesis.
//!
//! Wide-area round-trip times are dominated by propagation delay, which is
//! bounded below by the great-circle distance between the endpoints divided
//! by the speed of light in fiber (roughly ⅔ of `c`). Real paths are longer
//! than the great circle — traffic detours through exchange points — which
//! is modelled by a configurable *routing inflation* factor in
//! [`crate::topology`].

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6_371.0;

/// Propagation speed of light in optical fiber, km per millisecond.
///
/// Light travels at ~299.8 km/ms in vacuum; the refractive index of fiber
/// (≈1.47) brings it down to roughly 204 km/ms.
pub const FIBER_KM_PER_MS: f64 = 204.0;

/// A point on the Earth's surface.
///
/// # Example
///
/// ```
/// use georep_net::geo::GeoPoint;
///
/// let nyc = GeoPoint::new(40.71, -74.00);
/// let london = GeoPoint::new(51.51, -0.13);
/// let km = nyc.great_circle_km(&london);
/// assert!((km - 5570.0).abs() < 60.0);
/// // Lower bound on the RTT between the two (propagation only, out + back).
/// assert!(nyc.min_rtt_ms(&london) > 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in degrees.
    ///
    /// # Panics
    ///
    /// Panics if latitude is outside `[-90, 90]` or longitude outside
    /// `[-180, 180]`.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        assert!(
            (-90.0..=90.0).contains(&lat_deg),
            "latitude {lat_deg} out of range [-90, 90]"
        );
        assert!(
            (-180.0..=180.0).contains(&lon_deg),
            "longitude {lon_deg} out of range [-180, 180]"
        );
        GeoPoint { lat_deg, lon_deg }
    }

    /// Latitude in degrees.
    pub fn lat_deg(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees.
    pub fn lon_deg(&self) -> f64 {
        self.lon_deg
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn great_circle_km(&self, other: &Self) -> f64 {
        let lat1 = self.lat_deg.to_radians();
        let lat2 = other.lat_deg.to_radians();
        let dlat = (other.lat_deg - self.lat_deg).to_radians();
        let dlon = (other.lon_deg - self.lon_deg).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Physical lower bound on the round-trip time to `other` in
    /// milliseconds: twice the great-circle distance at fiber speed.
    pub fn min_rtt_ms(&self, other: &Self) -> f64 {
        2.0 * self.great_circle_km(other) / FIBER_KM_PER_MS
    }

    /// Returns a copy displaced by the given offsets (degrees), clamping the
    /// latitude and wrapping the longitude so the result stays valid.
    pub fn displaced(&self, dlat: f64, dlon: f64) -> Self {
        let lat = (self.lat_deg + dlat).clamp(-90.0, 90.0);
        let mut lon = self.lon_deg + dlon;
        while lon > 180.0 {
            lon -= 360.0;
        }
        while lon < -180.0 {
            lon += 360.0;
        }
        GeoPoint {
            lat_deg: lat,
            lon_deg: lon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_to_self_is_zero() {
        let p = GeoPoint::new(12.0, 34.0);
        assert_eq!(p.great_circle_km(&p), 0.0);
    }

    #[test]
    fn known_city_pairs() {
        let sf = GeoPoint::new(37.77, -122.42);
        let tokyo = GeoPoint::new(35.68, 139.69);
        let d = sf.great_circle_km(&tokyo);
        assert!((d - 8_270.0).abs() < 100.0, "SF-Tokyo = {d}");

        let sydney = GeoPoint::new(-33.87, 151.21);
        let d2 = tokyo.great_circle_km(&sydney);
        assert!((d2 - 7_790.0).abs() < 100.0, "Tokyo-Sydney = {d2}");
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = a.great_circle_km(&b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    #[test]
    fn min_rtt_scales_with_distance() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 10.0);
        let c = GeoPoint::new(0.0, 20.0);
        assert!(a.min_rtt_ms(&c) > a.min_rtt_ms(&b));
        assert!((a.min_rtt_ms(&c) - 2.0 * a.min_rtt_ms(&b)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "latitude")]
    fn bad_latitude_rejected() {
        let _ = GeoPoint::new(91.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "longitude")]
    fn bad_longitude_rejected() {
        let _ = GeoPoint::new(0.0, 200.0);
    }

    #[test]
    fn displaced_wraps_longitude() {
        let p = GeoPoint::new(0.0, 179.0).displaced(0.0, 2.0);
        assert_eq!(p.lon_deg(), -179.0);
        let q = GeoPoint::new(0.0, -179.0).displaced(0.0, -2.0);
        assert_eq!(q.lon_deg(), 179.0);
    }

    #[test]
    fn displaced_clamps_latitude() {
        let p = GeoPoint::new(89.0, 0.0).displaced(5.0, 0.0);
        assert_eq!(p.lat_deg(), 90.0);
    }

    fn arb_point() -> impl Strategy<Value = GeoPoint> {
        (-90.0..90.0f64, -180.0..180.0f64).prop_map(|(la, lo)| GeoPoint::new(la, lo))
    }

    proptest! {
        #[test]
        fn prop_distance_symmetric(a in arb_point(), b in arb_point()) {
            prop_assert!((a.great_circle_km(&b) - b.great_circle_km(&a)).abs() < 1e-6);
        }

        #[test]
        fn prop_distance_bounded(a in arb_point(), b in arb_point()) {
            let d = a.great_circle_km(&b);
            prop_assert!(d >= 0.0);
            prop_assert!(d <= std::f64::consts::PI * EARTH_RADIUS_KM + 1e-6);
        }

        #[test]
        fn prop_triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
            prop_assert!(
                a.great_circle_km(&c) <= a.great_circle_km(&b) + b.great_circle_km(&c) + 1e-6
            );
        }

        #[test]
        fn prop_displaced_always_valid(p in arb_point(), dla in -200.0..200.0f64, dlo in -400.0..400.0f64) {
            let q = p.displaced(dla, dlo);
            prop_assert!((-90.0..=90.0).contains(&q.lat_deg()));
            prop_assert!((-180.0..=180.0).contains(&q.lon_deg()));
        }
    }
}
