//! Equivalence suite for the streaming-half performance refactor.
//!
//! The bounds-pruned weighted k-means, the shared restart driver and the
//! cached/incremental online clusterer are all *bit-for-bit* refactors:
//! they must produce exactly the `f64`s the straightforward originals
//! produced, on every input, including tie cases. The originals are kept
//! verbatim in `georep_cluster::reference`; these tests drive both halves
//! with the same randomized inputs and assert full-state equality — no
//! epsilons anywhere.
//!
//! Coordinates are drawn from a coarse grid on purpose: snapping positions
//! to a lattice manufactures exact distance ties, which is where a pruning
//! or caching bug would change which index a `<`-scan picks first.

use georep_cluster::kmeans::{kmeans, ClusterError, KMeansConfig};
use georep_cluster::micro::MicroCluster;
use georep_cluster::online::{OnlineClusterer, OnlineConfig};
use georep_cluster::reference::{lloyd_reference, ReferenceMicroCluster, ReferenceOnlineClusterer};
use georep_cluster::weighted::weighted_kmeans;
use georep_cluster::WeightedPoint;
use georep_coord::Coord;
use georep_core::telemetry::{InMemoryRecorder, Recorder};
use proptest::prelude::*;

// ---- Input strategies. ----

/// A weighted point on a coarse grid (exact ties likely) with an optional
/// height, so the non-Euclidean part of the distance is exercised too.
fn grid_point() -> impl Strategy<Value = WeightedPoint<2>> {
    (0i32..8, 0i32..8, 0u8..3, 1u8..4).prop_map(|(x, y, h, w)| {
        WeightedPoint::new(
            Coord::new([x as f64 * 25.0, y as f64 * 25.0]).with_height(h as f64 * 5.0),
            w as f64,
        )
    })
}

fn grid_points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<WeightedPoint<2>>> {
    prop::collection::vec(grid_point(), n)
}

/// One event of an online stream: mostly observations, occasionally a
/// decay or a clear, to exercise cache invalidation on every path.
#[derive(Debug, Clone)]
enum StreamEvent {
    Observe { x: i32, y: i32, w: u8 },
    Decay { permille: u16 },
    Clear,
}

fn stream_event() -> impl Strategy<Value = StreamEvent> {
    // A selector in 0..18 picks the event kind (weighted 16:1:1 toward
    // observations) so the strategy builds from tuples only — no
    // `prop_oneof`, which keeps shrinking simple.
    (0u8..18, 0i32..6, 0i32..6, 1u8..4, 100u16..1000).prop_map(|(sel, x, y, w, permille)| match sel
    {
        0 => StreamEvent::Decay { permille },
        1 => StreamEvent::Clear,
        _ => StreamEvent::Observe { x, y, w },
    })
}

// ---- Weighted k-means: pruned vs full-scan; the restart winner rule. ----

proptest! {
    /// The bounds-pruned Lloyd returns the *identical* `Clustering` —
    /// centroids, assignments, SSE, iteration count, convergence flag —
    /// as the retained full-scan original, for every seed and restart
    /// count.
    #[test]
    fn pruned_kmeans_is_bit_identical_to_reference(
        pts in grid_points(4..40),
        k in 1usize..5,
        restarts in 1usize..6,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= pts.len());
        let cfg = KMeansConfig::new(k).with_seed(seed).with_restarts(restarts);
        let fast = weighted_kmeans(&pts, cfg).unwrap();
        let slow = lloyd_reference(&pts, cfg).unwrap();
        prop_assert_eq!(fast, slow);
    }
}

// ---- Online clusterer: cached/incremental vs recompute-everything. ----

proptest! {
    /// The cached-centroid, incremental-closest-pair online clusterer ends
    /// any event stream (observations, decays, clears) in exactly the
    /// accumulator state of the recompute-everything original.
    #[test]
    fn online_clusterer_matches_reference_on_streams(
        events in prop::collection::vec(stream_event(), 1..120),
        m in 2usize..8,
    ) {
        let mut fast: OnlineClusterer<2> = OnlineClusterer::new(m);
        let mut slow: ReferenceOnlineClusterer<2> = ReferenceOnlineClusterer::new(m);
        for ev in &events {
            match *ev {
                StreamEvent::Observe { x, y, w } => {
                    let c = Coord::new([x as f64 * 20.0, y as f64 * 20.0]);
                    fast.observe(c, w as f64);
                    slow.observe(c, w as f64);
                }
                StreamEvent::Decay { permille } => {
                    let f = permille as f64 / 1000.0;
                    fast.decay(f);
                    slow.decay(f);
                }
                StreamEvent::Clear => {
                    fast.clear();
                    slow.clear();
                }
            }
        }
        prop_assert_eq!(fast.clusters().len(), slow.clusters().len());
        for (f, s) in fast.clusters().iter().zip(slow.clusters()) {
            prop_assert!(
                s.same_accumulators(f),
                "accumulators diverged:\n  fast {:?}\n  slow {:?}",
                f,
                s
            );
        }
        prop_assert_eq!(fast.observed(), slow.observed());
    }

    /// The micro-cluster caches never go stale: after any mutation
    /// sequence the cached centroid and radius equal the read-time
    /// recomputation of the original, bit for bit.
    #[test]
    fn micro_cluster_caches_match_read_time_recomputation(
        seed_x in 0i32..10,
        seed_y in 0i32..10,
        ops in prop::collection::vec((0u8..3, 0i32..10, 0i32..10, 100u16..1000), 0..30),
    ) {
        let first = Coord::new([seed_x as f64, seed_y as f64]);
        let mut fast: MicroCluster<2> = MicroCluster::from_access(first, 1.0);
        let mut slow: ReferenceMicroCluster<2> = ReferenceMicroCluster::from_access(first, 1.0);
        'ops: for &(op, x, y, permille) in &ops {
            match op {
                0 => {
                    let c = Coord::new([x as f64, y as f64]);
                    fast.absorb(c, 1.5);
                    slow.absorb(c, 1.5);
                }
                1 => {
                    let other = Coord::new([x as f64, y as f64]);
                    fast.merge(&MicroCluster::from_access(other, 2.0));
                    slow.merge(&ReferenceMicroCluster::from_access(other, 2.0));
                }
                _ => {
                    let f = permille as f64 / 1000.0;
                    let kept_fast = fast.decay(f);
                    let kept_slow = slow.decay(f);
                    prop_assert_eq!(kept_fast, kept_slow);
                    if !kept_fast {
                        break 'ops; // both faded to nothing — stream ends
                    }
                }
            }
            prop_assert!(slow.same_accumulators(&fast));
            prop_assert_eq!(fast.centroid(), slow.centroid());
            prop_assert_eq!(fast.radius(), slow.radius());
            let probe = Coord::new([3.0, 4.0]);
            prop_assert_eq!(fast.distance_to(&probe), slow.distance_to(&probe));
        }
    }
}

// ---- Telemetry non-perturbation on the streaming path. ----

proptest! {
    /// Instrumenting the streaming ingest — reading `stream_stats` after
    /// every event and flushing them into an [`InMemoryRecorder`] — leaves
    /// the clusterer in exactly the state of an unobserved run, and the
    /// flushed counters agree with the final accumulator totals.
    #[test]
    fn recorder_attached_ingest_is_bit_identical(
        events in prop::collection::vec(stream_event(), 1..80),
        m in 2usize..8,
    ) {
        let rec = InMemoryRecorder::new();
        let mut observed: OnlineClusterer<2> = OnlineClusterer::new(m);
        let mut plain: OnlineClusterer<2> = OnlineClusterer::new(m);
        for ev in &events {
            match *ev {
                StreamEvent::Observe { x, y, w } => {
                    let c = Coord::new([x as f64 * 20.0, y as f64 * 20.0]);
                    observed.observe(c, w as f64);
                    plain.observe(c, w as f64);
                }
                StreamEvent::Decay { permille } => {
                    let f = permille as f64 / 1000.0;
                    observed.decay(f);
                    plain.decay(f);
                }
                StreamEvent::Clear => {
                    observed.clear();
                    plain.clear();
                }
            }
            // The per-event stats read a driver would do between batches.
            let _ = observed.stream_stats();
        }
        let stats = observed.stream_stats();
        rec.counter("stream.absorbed", stats.absorbed);
        rec.counter("stream.created", stats.created);
        rec.counter("stream.merged", stats.merged);

        // Observation changed nothing: full accumulator equality.
        prop_assert_eq!(observed.clusters().len(), plain.clusters().len());
        for (o, p) in observed.clusters().iter().zip(plain.clusters()) {
            prop_assert_eq!(o.count(), p.count());
            prop_assert_eq!(o.weight(), p.weight());
            prop_assert_eq!(o.sum(), p.sum());
            prop_assert_eq!(o.sum2(), p.sum2());
        }
        prop_assert_eq!(observed.observed(), plain.observed());
        prop_assert_eq!(observed.stream_stats(), plain.stream_stats());

        // And the recorder holds exactly the flushed totals.
        prop_assert_eq!(rec.counter_value("stream.absorbed"), stats.absorbed);
        prop_assert_eq!(rec.counter_value("stream.created"), stats.created);
        prop_assert_eq!(rec.counter_value("stream.merged"), stats.merged);
    }
}

// ---- Deliberate divergences and config hardening (plain units). ----

/// `absorb_cluster` now validates its input and folds the absorbed counts
/// into `observed` — a deliberate divergence from the reference (which
/// pushed anything and left `observed` alone). The *merge* behavior on
/// overflow must still match.
#[test]
fn absorb_cluster_validates_and_counts_where_reference_did_not() {
    let mut fast: OnlineClusterer<2> = OnlineClusterer::with_config(OnlineConfig::new(2));
    let mut slow: ReferenceOnlineClusterer<2> = ReferenceOnlineClusterer::new(2);

    // A micro-cluster whose coordinate sums overflowed to infinity (every
    // individual input was finite, so the constructors let it happen): the
    // reference swallowed it, the refactor must reject it.
    let huge = Coord::new([f64::MAX / 2.0, 0.0]);
    let mut poisoned_slow = ReferenceMicroCluster::<2>::from_access(huge, 1.0);
    let mut poisoned_fast = MicroCluster::<2>::from_access(huge, 1.0);
    for _ in 0..2 {
        poisoned_slow.absorb(huge, 1.0);
        poisoned_fast.absorb(huge, 1.0);
    }
    assert!(
        !poisoned_slow.centroid().is_finite(),
        "fixture must be non-finite"
    );
    slow.absorb_cluster(poisoned_slow);
    assert_eq!(slow.clusters().len(), 1, "reference pushes anything");
    fast.absorb_cluster(poisoned_fast);
    assert!(fast.is_empty(), "refactor rejects a non-finite centroid");
    assert_eq!(fast.observed(), 0, "rejected clusters are not counted");

    // Healthy clusters are absorbed identically, but the refactor also
    // credits their access counts to `observed`.
    let mut fast = OnlineClusterer::<2>::with_config(OnlineConfig::new(2));
    let mk = |x: f64, n: u64| {
        let mut c = ReferenceMicroCluster::<2>::from_access(Coord::new([x, 0.0]), 1.0);
        for _ in 1..n {
            c.absorb(Coord::new([x, 0.0]), 1.0);
        }
        c
    };
    for (x, n) in [(0.0, 3), (100.0, 2), (102.0, 4)] {
        fast.absorb_cluster(mk(x, n).to_micro());
    }
    // Third absorb overflowed m = 2 and merged the closest pair (100, 102).
    assert_eq!(fast.len(), 2);
    assert_eq!(
        fast.observed(),
        9,
        "absorbed access counts fold into observed"
    );
    assert_eq!(fast.total_count(), 9);
}

#[test]
fn zeroed_config_fields_error_instead_of_looping_zero_times() {
    let pts: Vec<WeightedPoint<2>> = (0..4)
        .map(|i| WeightedPoint::new(Coord::new([i as f64, 0.0]), 1.0))
        .collect();
    let coords: Vec<Coord<2>> = pts.iter().map(|p| p.coord).collect();

    let zero_iters = KMeansConfig {
        max_iters: 0,
        ..KMeansConfig::new(2)
    };
    let zero_restarts = KMeansConfig {
        restarts: 0,
        ..KMeansConfig::new(2)
    };
    for bad in [zero_iters, zero_restarts] {
        assert!(matches!(
            weighted_kmeans(&pts, bad),
            Err(ClusterError::InvalidConfig(_))
        ));
        assert!(matches!(
            kmeans(&coords, bad),
            Err(ClusterError::InvalidConfig(_))
        ));
    }

    // The builders clamp instead of erroring, so `new` can never produce
    // an invalid configuration.
    let clamped = KMeansConfig::new(2).with_max_iters(0).with_restarts(0);
    assert_eq!(clamped.max_iters, 1);
    assert_eq!(clamped.restarts, 1);
    assert!(weighted_kmeans(&pts, clamped).is_ok());
}
