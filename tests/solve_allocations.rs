//! Allocation counts of the re-placement solve, pinned by equality.
//!
//! The macro-clustering runs once per owner per period, thousands of times
//! a round in a fleet, so its heap traffic is part of its cost. A warm
//! weighted k-means allocates only the two vectors of the clustering it
//! returns (its buffers live in a per-thread workspace, DESIGN.md §8), and
//! a warm `propose` adds only the vectors its decision carries. A change
//! that brings a per-restart or per-solve allocation back moves these
//! counts.
//!
//! The counting allocator counts only on the thread that measures, so the
//! test harness's other threads cannot disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use georep::cluster::kmeans::KMeansConfig;
use georep::cluster::point::WeightedPoint;
use georep::cluster::weighted::weighted_kmeans_with_stats;
use georep::coord::Coord;
use georep::core::experiment::DIMS;
use georep::core::manager::{ManagerConfig, Plan, ReplicaManager};

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches allocation-free `const`
// thread-locals, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocations and
/// reallocations it made on this thread. The result is dropped by the
/// caller, after counting stops.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, COUNT.with(Cell::get))
}

/// A deterministic stream of values in `[0, 1)`.
fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn coord_near(center: &Coord<DIMS>, spread: f64, next: &mut impl FnMut() -> f64) -> Coord<DIMS> {
    let mut pos = [0.0; DIMS];
    for (x, c) in pos.iter_mut().zip(center.pos()) {
        *x = c + (next() - 0.5) * spread;
    }
    Coord::new(pos)
}

#[test]
fn a_warm_weighted_kmeans_allocates_only_its_result() {
    let mut next = unit_stream(0x5017);
    let points: Vec<WeightedPoint<DIMS>> = (0..24)
        .map(|_| {
            let coord = coord_near(&Coord::origin(), 300.0, &mut next).with_height(next() * 4.0);
            WeightedPoint::new(coord, 0.5 + next() * 3.0)
        })
        .collect();
    let cfg = KMeansConfig::new(3).with_seed(9);
    assert_eq!(cfg.restarts, 4);

    let cold = weighted_kmeans_with_stats(&points, cfg).unwrap();
    let (warm, allocations) = allocations_in(|| weighted_kmeans_with_stats(&points, cfg));
    assert_eq!(warm.unwrap(), cold);
    // The returned clustering's `centroids` and `assignments`.
    assert_eq!(allocations, 2);
}

#[test]
fn a_warm_propose_allocates_a_fixed_handful() {
    let mut next = unit_stream(0xA110C);
    let coords: Vec<Coord<DIMS>> = (0..12)
        .map(|_| coord_near(&Coord::origin(), 400.0, &mut next))
        .collect();
    let placement = vec![0, 4, 8];
    let mut mgr = ReplicaManager::new(
        coords.clone(),
        (0..coords.len()).collect(),
        placement.clone(),
        ManagerConfig::new(3, 8),
    )
    .unwrap();
    // Scattered demand around every replica fills each summarizer to its
    // `m = 8` micro-clusters.
    for &r in &placement {
        for _ in 0..200 {
            mgr.record_access(coord_near(&coords[r], 60.0, &mut next), 1.0);
        }
    }
    let sizes: Vec<usize> = mgr.summaries().iter().map(|s| s.clusters.len()).collect();
    assert_eq!(sizes, [8, 8, 8], "the fixture must be a 3 × 8 summary");

    let cold = mgr.propose(Plan::Recorded).unwrap();
    let (warm, allocations) = allocations_in(|| mgr.propose(Plan::Recorded));
    assert_eq!(warm.unwrap(), cold);
    // The demand vector, the clustering's two vectors, the proposed
    // placement, and the decision's copy of the old placement.
    assert_eq!(allocations, 5);
}
