//! Trace record/replay round-trip at the million-access scale.
//!
//! A generated workload written through [`Trace::to_text_exact`] and parsed
//! back must be *bit-identical* — every `f64` timestamp and payload size
//! survives the text round-trip — and replaying either copy through the
//! replica manager's batched period ingest must produce the identical
//! [`RunReport`]. This is the property that makes recorded traces a valid
//! substitute for live generation in experiments: replay is exact, not
//! approximate.

use georep_coord::Coord;
use georep_core::manager::{ManagerConfig, ReplicaManager};
use georep_core::telemetry::{InMemoryRecorder, Recorder, RunReport};
use georep_workload::{AccessEvent, Population, ShardedStream, StreamConfig, Trace};

const ACCESSES: usize = 1_000_000;
const CLIENTS: usize = 48;
const PERIOD: usize = 100_000;

/// Deterministic client coordinates: a cheap stand-in for an embedding run
/// (the round-trip claim is about the trace, not coordinate quality).
fn synthetic_coords() -> Vec<Coord<3>> {
    let mut state = 0x9E3779B97F4A7C15u64;
    (0..CLIENTS)
        .map(|_| {
            Coord::new(std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f64 / 1e4
            }))
        })
        .collect()
}

/// Replays a trace through batched period ingest and summarises the run as
/// a [`RunReport`]: counters for volume and routing, the final placement,
/// and an order-sensitive FNV-1a fingerprint over every event.
fn replay(trace: &Trace) -> RunReport {
    let coords = synthetic_coords();
    let candidates: Vec<usize> = (0..CLIENTS).step_by(6).collect();
    let mut cfg = ManagerConfig::new(3, 6);
    cfg.seed = 0x7ACE;
    let initial = candidates[..3].to_vec();
    let mut mgr =
        ReplicaManager::new(coords.clone(), candidates, initial, cfg).expect("valid manager");

    let rec = InMemoryRecorder::new();
    let mut fnv = 0xCBF29CE484222325u64;
    let demand: Vec<(Coord<3>, f64)> = trace
        .events()
        .iter()
        .map(|e| {
            for half in [e.at_ms, e.bytes_kib] {
                for b in half.to_bits().to_le_bytes() {
                    fnv = (fnv ^ b as u64).wrapping_mul(0x100000001B3);
                }
            }
            (coords[e.client % CLIENTS], e.bytes_kib)
        })
        .collect();
    rec.counter("replay.events_fnv", fnv);

    for chunk in demand.chunks(PERIOD) {
        let served = mgr.ingest_period(chunk);
        rec.counter("replay.periods", 1);
        rec.counter("replay.served", served.iter().sum());
        mgr.rebalance().expect("rebalance succeeds");
    }
    rec.counter("replay.accesses", mgr.stats().accesses);
    for (i, &site) in mgr.placement().iter().enumerate() {
        rec.counter("replay.placement", (i as u64 + 1) * site as u64);
    }
    RunReport::from_recorder("trace_roundtrip", &rec)
}

#[test]
fn million_access_trace_text_roundtrip_replays_bit_identically() {
    // ---- Record: a million Zipf/Poisson accesses into a trace. ----
    let pop = Population::zipf_skewed(CLIENTS, 1.1, 0xBEE5);
    let cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed: 0x7EACE,
        ..Default::default()
    };
    // 3% over the mean horizon, then truncate to exactly one million.
    let stream = ShardedStream::new(&pop, &cfg, ACCESSES as f64 * 1.03, 64);
    let mut events: Vec<AccessEvent> = stream.generate();
    assert!(
        events.len() >= ACCESSES,
        "stream fell short: {}",
        events.len()
    );
    events.truncate(ACCESSES);
    let recorded = Trace::from_events(events).expect("generated events are valid");

    // ---- Round-trip through the exact text format. ----
    let text = recorded.to_text_exact();
    let replayed: Trace = text.parse().expect("exact text parses");
    assert_eq!(replayed.len(), ACCESSES);
    assert_eq!(
        replayed.events(),
        recorded.events(),
        "exact text round-trip must preserve every bit"
    );

    // ---- Replay both copies: the reports must match byte for byte. ----
    let report_recorded = replay(&recorded);
    let report_replayed = replay(&replayed);
    assert_eq!(
        report_recorded.to_json(),
        report_replayed.to_json(),
        "replaying the round-tripped trace diverged"
    );
    assert_eq!(report_recorded.counter("replay.accesses"), ACCESSES as u64);
    assert_eq!(
        report_recorded.counter("replay.periods"),
        (ACCESSES / PERIOD) as u64
    );
}

#[test]
fn lossy_text_format_differs_but_exact_format_does_not() {
    // Guard the contract boundary: `to_text` (3-decimal rendering) is lossy
    // on adversarial values, `to_text_exact` never is.
    let events = vec![
        AccessEvent {
            at_ms: 0.1234567890123,
            client: 3,
            bytes_kib: 7.000000000001,
            object: 0,
        },
        AccessEvent {
            at_ms: 2.0 / 3.0,
            client: 1,
            bytes_kib: 1.0 / 3.0,
            object: 0,
        },
    ];
    let trace = Trace::from_events(events).unwrap();
    let exact: Trace = trace.to_text_exact().parse().unwrap();
    assert_eq!(exact.events(), trace.events());
    let lossy: Trace = trace.to_text().parse().unwrap();
    assert_ne!(
        lossy.events(),
        trace.events(),
        "3-decimal text kept full precision unexpectedly — tighten this test"
    );
}
