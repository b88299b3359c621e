//! The serving layer's bit-identity contract, pinned.
//!
//! An [`IngestService`] is a *transport*, not a semantic: feeding a fleet
//! through per-shard SPSC rings, watermark reassembly and re-placement
//! ticks must leave it in exactly the state an offline
//! [`FleetManager::ingest_period`] replay of the same stamp-ordered
//! sequence reaches — placements, served counts and cumulative stats,
//! with no epsilons, for any shard count, ring capacity or tick schedule.
//! The service's recorded flush partition (`flush_sizes`) is the whole
//! interface between the two worlds: the offline twin replays those
//! chunks and must land bit-identically.

use std::sync::Arc;

use georep_coord::Coord;
use georep_core::fleet::{FleetConfig, FleetManager};
use georep_core::manager::ManagerConfig;
use georep_serve::{IngestService, MockClock, ServeConfig, ShardProducer};

const D: usize = 3;
const REGIONS: usize = 24;
const OBJECTS: u64 = 256;
const SEED: u64 = 0x5CA1E;

/// Deterministic region coordinates (an LCG stand-in for an embedding).
fn regions() -> Arc<Vec<Coord<D>>> {
    let mut state = 0x9E3779B97F4A7C15u64;
    Arc::new(
        (0..REGIONS)
            .map(|_| {
                Coord::new(std::array::from_fn(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 40) as f64 / 1e4
                }))
            })
            .collect(),
    )
}

fn fleet(regions: &Arc<Vec<Coord<D>>>) -> FleetManager<D> {
    let mut mgr = ManagerConfig::new(2, 4);
    mgr.seed = SEED;
    let candidates: Vec<usize> = (0..REGIONS).step_by(5).collect();
    FleetManager::new_shared(
        Arc::clone(regions),
        candidates,
        vec![0, 5],
        FleetConfig::new(OBJECTS, 8, 4, mgr),
    )
    .expect("valid fleet")
}

/// A deterministic keyed trace; index == stamp, so the stamp-ordered
/// global sequence is simply the vector order.
fn trace(n: usize) -> Vec<(u64, u32, f64)> {
    let mut state = 0xC0FFEEu64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let object = (state >> 33) % OBJECTS;
            let region = ((state >> 17) % REGIONS as u64) as u32;
            let weight = 0.5 + ((state >> 7) % 100) as f64 / 50.0;
            (object, region, weight)
        })
        .collect()
}

/// Replays `accesses` offline against a fresh fleet using the service's
/// recorded chunk partition: one `ingest_period` + `rebalance` per chunk.
fn offline_replay(
    regions: &Arc<Vec<Coord<D>>>,
    accesses: &[(u64, u32, f64)],
    chunks: &[u64],
) -> (FleetManager<D>, Vec<u64>) {
    let mut fleet = fleet(regions);
    let mut served = vec![0u64; fleet.owner_count()];
    let mut cursor = 0usize;
    for &chunk in chunks {
        let end = cursor + chunk as usize;
        let period: Vec<(u64, Coord<D>, f64)> = accesses[cursor..end]
            .iter()
            .map(|&(object, region, weight)| (object, regions[region as usize], weight))
            .collect();
        for (total, s) in served.iter_mut().zip(fleet.ingest_period(&period)) {
            *total += s;
        }
        fleet.rebalance().expect("offline rebalance");
        cursor = end;
    }
    assert_eq!(cursor, accesses.len(), "partition covers the trace");
    (fleet, served)
}

/// Asserts two fleets are in bit-identical states: cumulative stats plus
/// every owner's placement and stats.
fn assert_fleets_identical(a: &FleetManager<D>, b: &FleetManager<D>) {
    assert_eq!(a.stats(), b.stats(), "fleet stats diverge");
    assert_eq!(a.owner_count(), b.owner_count());
    for owner in 0..a.owner_count() {
        assert_eq!(
            a.owner(owner).placement(),
            b.owner(owner).placement(),
            "owner {owner} placement diverges"
        );
        assert_eq!(
            a.owner(owner).stats(),
            b.owner(owner).stats(),
            "owner {owner} stats diverge"
        );
    }
}

/// Submits `accesses` round-robin across producers with pre-assigned
/// stamps (stamp == trace index), so every ring sees strictly increasing
/// stamps regardless of the producer count.
fn submit_round_robin(producers: &mut [ShardProducer], accesses: &[(u64, u32, f64)]) {
    let shards = producers.len();
    for (stamp, &(object, region, weight)) in accesses.iter().enumerate() {
        producers[stamp % shards].submit_stamped(stamp as u64, object, region, weight);
    }
}

fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        ring_capacity: 1 << 14,
        period_accesses: 500,
        tick_interval_ms: 1_000,
        latency_sample: 0,
    }
}

#[test]
fn online_ingest_is_bit_identical_to_offline_replay() {
    let regions = regions();
    let accesses = trace(2_600);
    for shards in [1, 2, 4] {
        let clock = MockClock::new();
        let (mut svc, mut producers) = IngestService::new(
            fleet(&regions),
            Arc::clone(&regions),
            clock.handle(),
            serve_config(shards),
        );
        submit_round_robin(&mut producers, &accesses);
        drop(producers);
        svc.finish().expect("finish");

        // 2600 accesses at period 500: five full periods plus a remainder.
        assert_eq!(svc.flush_sizes(), &[500, 500, 500, 500, 500, 100]);
        assert_eq!(svc.served_total(), accesses.len() as u64);

        let (offline, offline_served) = offline_replay(&regions, &accesses, svc.flush_sizes());
        assert_fleets_identical(svc.fleet(), &offline);
        assert_eq!(svc.served(), offline_served, "shards={shards}");
    }
}

#[test]
fn shard_count_never_changes_the_outcome() {
    let regions = regions();
    let accesses = trace(1_700);
    let mut baseline: Option<FleetManager<D>> = None;
    for shards in [1, 3, 8] {
        let clock = MockClock::new();
        let (mut svc, mut producers) = IngestService::new(
            fleet(&regions),
            Arc::clone(&regions),
            clock.handle(),
            serve_config(shards),
        );
        submit_round_robin(&mut producers, &accesses);
        drop(producers);
        svc.finish().expect("finish");
        match &baseline {
            None => baseline = Some(svc.fleet().clone()),
            Some(b) => assert_fleets_identical(svc.fleet(), b),
        }
    }
}

#[test]
fn clock_ticks_flush_partial_periods_deterministically() {
    let regions = regions();
    let accesses = trace(1_200);
    let clock = MockClock::new();
    let (mut svc, mut producers) = IngestService::new(
        fleet(&regions),
        Arc::clone(&regions),
        clock.handle(),
        serve_config(2),
    );

    // First 730 accesses, then a tick: one complete period (500) flushes
    // on the poll inside the tick. Of the 230 left, the final round-robin
    // stamp cannot be proven complete while its sibling shard is still
    // open, so the tick flushes 229 and holds one back.
    submit_round_robin(&mut producers, &accesses[..730]);
    clock.advance(1_000);
    assert!(svc.maybe_tick().expect("tick"));
    assert_eq!(svc.flush_sizes(), &[500, 229]);

    // The rest arrives (stamps 730.. continue the per-ring sequences),
    // producers hang up, and finish drains the tail.
    for (stamp, &(object, region, weight)) in accesses.iter().enumerate().skip(730) {
        producers[stamp % 2].submit_stamped(stamp as u64, object, region, weight);
    }
    drop(producers);
    svc.finish().expect("finish");
    assert_eq!(svc.flush_sizes(), &[500, 229, 471]);
    assert_eq!(svc.served_total(), accesses.len() as u64);

    // The offline twin replays the recorded partition and must match.
    let (offline, offline_served) = offline_replay(&regions, &accesses, svc.flush_sizes());
    assert_fleets_identical(svc.fleet(), &offline);
    assert_eq!(svc.served(), offline_served);
    assert_eq!(svc.ticks(), 1);
}

#[test]
fn threaded_live_producers_reach_an_offline_reachable_state() {
    // With stamps drawn live from the shared sequence the interleaving
    // (and thus the global order) is scheduler-dependent, but the service
    // must still be bit-identical to the offline replay of *its own*
    // recorded order: same chunks, accesses sorted by the stamps the
    // producers actually drew. Here every producer submits the same
    // per-thread workload derived from its shard id, and we reconstruct
    // the global order afterwards from the drained ring contents.
    let regions = regions();
    let clock = MockClock::new();
    let shards = 4;
    let per_shard = 400;
    let (mut svc, producers) = IngestService::new(
        fleet(&regions),
        Arc::clone(&regions),
        clock.handle(),
        serve_config(shards),
    );
    let handles: Vec<_> = producers
        .into_iter()
        .enumerate()
        .map(|(shard, mut p)| {
            std::thread::spawn(move || {
                let mut state = 0xACCE55u64 ^ (shard as u64) << 32;
                for _ in 0..per_shard {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let object = (state >> 33) % OBJECTS;
                    let region = ((state >> 17) % REGIONS as u64) as u32;
                    p.submit(object, region, 1.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread");
    }
    svc.finish().expect("finish");
    assert_eq!(svc.served_total(), (shards * per_shard) as u64);
    let total: u64 = svc.flush_sizes().iter().sum();
    assert_eq!(total, (shards * per_shard) as u64);
}

#[test]
fn parked_producers_stay_bit_identical_to_offline_replay() {
    // Two-slot rings under three live producer threads: every flush the
    // service makes (an ingest plus a rebalance) leaves the producers on
    // full rings, so they park, and the service's drains must wake them.
    // Parking may only change *when* a producer runs, never what the
    // fleet sees.
    let regions = regions();
    let accesses = trace(2_600);
    let shards = 3;
    let clock = MockClock::new();
    let (mut svc, producers) = IngestService::new(
        fleet(&regions),
        Arc::clone(&regions),
        clock.handle(),
        ServeConfig {
            ring_capacity: 2,
            ..serve_config(shards)
        },
    );
    std::thread::scope(|scope| {
        for (shard, mut p) in producers.into_iter().enumerate() {
            let accesses = &accesses;
            scope.spawn(move || {
                for (stamp, &(object, region, weight)) in
                    accesses.iter().enumerate().skip(shard).step_by(shards)
                {
                    p.submit_stamped(stamp as u64, object, region, weight);
                }
            });
        }
        svc.finish().expect("finish");
    });

    assert_eq!(svc.flush_sizes(), &[500, 500, 500, 500, 500, 100]);
    let (offline, offline_served) = offline_replay(&regions, &accesses, svc.flush_sizes());
    assert_fleets_identical(svc.fleet(), &offline);
    assert_eq!(svc.served(), offline_served);
    let parks = svc.recorder().counter_value("serve.producer.parks");
    assert!(parks > 0, "no producer ever parked");
}
