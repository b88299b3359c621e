//! Scale benchmark: the calendar-queue scheduler vs the reference heap
//! engine, and million-access period ingest through the replica manager.
//!
//! Two halves, one JSON record (`BENCH_scale.json`):
//!
//! * **engine** — a hold-model stress test: `hold` events stay pending at
//!   all times while `events` fire in total, each handler rescheduling
//!   itself at a pseudo-random future instant. The heap engine pays
//!   `O(log hold)` cache-missy sift levels per event; the calendar queue
//!   pays amortized `O(1)` bucket operations. Both engines execute the
//!   *identical* event sequence — the run is fingerprinted by an FNV-1a
//!   hash over every execution instant and the two hashes must match.
//! * **scale** — batched workload generation ([`ShardedStream`]) feeding
//!   [`ReplicaManager::ingest_period`] at 10k / 100k / 1M accesses, with a
//!   rebalance round per 100k-access period. The 1M row is additionally
//!   replayed through the single-threaded ingest path and the resulting
//!   summaries, placement and stats must be identical — the sharded path
//!   is an equivalence, not an approximation.
//!
//! Run with `cargo run -p georep-bench --release --bin bench_scale`
//! (`--quick` shrinks the engine half for the CI sanity gate, `--out DIR`
//! moves the JSON).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use georep_bench::peak_rss_mb;
use georep_coord::rnp::Rnp;
use georep_coord::{Coord, EmbeddingRunner};
use georep_core::experiment::DIMS;
use georep_core::manager::{ManagerConfig, ReplicaManager};
use georep_net::sim::{reference, SimDuration, Simulation};
use georep_net::topology::{Topology, TopologyConfig};
use georep_workload::population::Population;
use georep_workload::stream::{ShardedStream, StreamConfig};

/// Accesses per summarization period of the scale rows.
const PERIOD: usize = 100_000;
/// Shards the workload generator splits each stream into.
const SHARDS: usize = 64;

/// The hold-model world: all randomness lives here so the handler closure
/// stays zero-sized (no per-event allocation in either engine).
struct HoldWorld {
    rng: u64,
    /// Reschedules still to issue; the pending set stays at `hold` until
    /// this runs dry, then drains.
    remaining: u64,
    executed: u64,
    /// FNV-1a over every execution instant — the cross-engine fingerprint.
    hash: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a_step(hash: u64, value: u64) -> u64 {
    let mut h = hash;
    for b in value.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Next reschedule delay: 1 µs .. 1 s, uniform-ish.
fn next_delay(w: &mut HoldWorld) -> SimDuration {
    SimDuration::from_micros(splitmix64(&mut w.rng) % 1_000_000 + 1)
}

fn hold_handler(w: &mut HoldWorld, ctx: &mut georep_net::sim::Context<HoldWorld>) {
    w.executed += 1;
    w.hash = fnv1a_step(w.hash, ctx.now().as_micros());
    if w.remaining > 0 {
        w.remaining -= 1;
        let d = next_delay(w);
        ctx.schedule_in(d, hold_handler);
    }
}

fn hold_handler_ref(w: &mut HoldWorld, ctx: &mut reference::Context<HoldWorld>) {
    w.executed += 1;
    w.hash = fnv1a_step(w.hash, ctx.now().as_micros());
    if w.remaining > 0 {
        w.remaining -= 1;
        let d = next_delay(w);
        ctx.schedule_in(d, hold_handler_ref);
    }
}

/// Initial pending set: `hold` events at seeded pseudo-random instants.
/// Identical for both engines by construction.
fn seed_delays(hold: u64, seed: u64) -> Vec<SimDuration> {
    let mut state = seed;
    (0..hold)
        .map(|_| SimDuration::from_micros(splitmix64(&mut state) % 1_000_000 + 1))
        .collect()
}

fn run_hold_calendar(hold: u64, events: u64, seed: u64) -> (f64, u64, u64) {
    let mut sim = Simulation::new(HoldWorld {
        rng: seed ^ 0xCA1E,
        remaining: events - hold,
        executed: 0,
        hash: 0xCBF2_9CE4_8422_2325,
    });
    for d in seed_delays(hold, seed) {
        sim.schedule_in(d, hold_handler);
    }
    let start = Instant::now();
    sim.run_to_completion(None);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let w = sim.into_world();
    (ms, w.executed, w.hash)
}

fn run_hold_reference(hold: u64, events: u64, seed: u64) -> (f64, u64, u64) {
    let mut sim = reference::Simulation::new(HoldWorld {
        rng: seed ^ 0xCA1E,
        remaining: events - hold,
        executed: 0,
        hash: 0xCBF2_9CE4_8422_2325,
    });
    for d in seed_delays(hold, seed) {
        sim.schedule_in(d, hold_handler_ref);
    }
    let start = Instant::now();
    sim.run_to_completion(None);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let w = sim.into_world();
    (ms, w.executed, w.hash)
}

struct ScaleRow {
    accesses: usize,
    wall_ms: f64,
    accesses_per_sec: f64,
    periods: usize,
    peak_rss_mb: f64,
}

/// Feeds `demand` through a fresh manager in `PERIOD`-sized periods with a
/// rebalance per period; returns (wall ms, periods, final placement,
/// summaries fingerprintable by the caller).
fn ingest_run(
    coords: &[Coord<DIMS>],
    candidates: &[usize],
    demand: &[(Coord<DIMS>, f64)],
    threads: Option<usize>,
) -> (f64, usize, ReplicaManager<DIMS>) {
    let mut cfg = ManagerConfig::new(3, 8);
    cfg.seed = 0x5CA1E;
    let initial: Vec<usize> = candidates[..3].to_vec();
    let mut mgr = ReplicaManager::new(coords.to_vec(), candidates.to_vec(), initial, cfg)
        .expect("valid manager");
    let start = Instant::now();
    let mut periods = 0usize;
    for chunk in demand.chunks(PERIOD) {
        match threads {
            Some(t) => mgr.ingest_period_with_threads(chunk, t),
            None => mgr.ingest_period(chunk),
        };
        mgr.rebalance().expect("rebalance succeeds");
        periods += 1;
    }
    (start.elapsed().as_secs_f64() * 1e3, periods, mgr)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?} (supported: --quick, --out DIR)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // ---- Engine half: hold-model scheduler stress. ----
    let (hold, engine_events) = if quick {
        (300_000u64, 1_500_000u64)
    } else {
        (1_000_000u64, 4_000_000u64)
    };
    println!(
        "scale benchmark ({}): engine hold={hold} events={engine_events}, \
         ingest rows 10k/100k/1M\n",
        if quick { "quick" } else { "full" }
    );

    let (ref_ms, ref_count, ref_hash) = run_hold_reference(hold, engine_events, 0xBEEF);
    let (cal_ms, cal_count, cal_hash) = run_hold_calendar(hold, engine_events, 0xBEEF);
    let engine_identical = ref_count == cal_count && ref_hash == cal_hash;
    let speedup = ref_ms / cal_ms;
    let events_per_sec = engine_events as f64 / (cal_ms / 1e3);
    println!(
        "engine          reference {ref_ms:>10.1} ms   calendar {cal_ms:>10.1} ms   \
         {speedup:>5.1}x   {:.2}M events/s   same={engine_identical}",
        events_per_sec / 1e6
    );
    assert!(
        engine_identical,
        "calendar queue diverged from the reference engine \
         ({ref_count}/{ref_hash:x} vs {cal_count}/{cal_hash:x})"
    );
    assert!(
        speedup >= 3.0,
        "scheduler speedup {speedup:.2}x below the 3x floor at hold={hold}"
    );

    // ---- Scale half: sharded generation + batched period ingest. ----
    let topo = Topology::generate(TopologyConfig {
        nodes: 128,
        seed: georep_net::planetlab::PLANETLAB_SEED,
        ..Default::default()
    })
    .expect("valid topology config");
    let matrix = topo.matrix().clone();
    let n = matrix.len();
    let runner = EmbeddingRunner {
        rounds: 60,
        samples_per_round: 4,
        seed: 0xDECA,
    };
    let (coords, _) = runner.run(n, |i, j| matrix.get(i, j), |_| Rnp::<DIMS>::new());
    let candidates: Vec<usize> = (0..n).step_by(5).collect();
    let clients: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    // 1M Poisson accesses, Zipf-skewed over the clients, generated in
    // deterministic shards across all cores.
    let total_accesses = 1_000_000usize;
    let pop = Population::zipf_skewed(clients.len(), 1.1, 0x21F);
    let stream_cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed: 0x5CA1E,
        ..Default::default()
    };
    let gen_start = Instant::now();
    // Oversample the Poisson horizon by 2% and truncate: a draw at the mean
    // would land a hair under the 1M floor about half the time.
    let stream = ShardedStream::new(&pop, &stream_cfg, total_accesses as f64 * 1.02, SHARDS);
    let mut events = stream.generate_parallel(threads);
    assert!(
        events.len() >= total_accesses,
        "Poisson stream fell short of {total_accesses} accesses ({})",
        events.len()
    );
    events.truncate(total_accesses);
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "workload        generated {} events in {gen_ms:.1} ms ({SHARDS} shards, {threads} threads)",
        events.len()
    );
    let demand: Vec<(Coord<DIMS>, f64)> = events
        .iter()
        .map(|e| (coords[clients[e.client]], e.bytes_kib))
        .collect();

    let mut rows: Vec<ScaleRow> = Vec::new();
    for &accesses in &[10_000usize, 100_000, 1_000_000] {
        let accesses = accesses.min(demand.len());
        let (wall_ms, periods, _) = ingest_run(&coords, &candidates, &demand[..accesses], None);
        let row = ScaleRow {
            accesses,
            wall_ms,
            accesses_per_sec: accesses as f64 / (wall_ms / 1e3),
            periods,
            peak_rss_mb: peak_rss_mb(),
        };
        println!(
            "ingest {:>9}   {wall_ms:>10.1} ms   {:>6.2}M acc/s   {periods} periods   rss {:.0} MiB",
            row.accesses,
            row.accesses_per_sec / 1e6,
            row.peak_rss_mb
        );
        rows.push(row);
    }

    // Equivalence: the full 1M run through the single-threaded path must
    // leave the manager in the identical state.
    let (_, _, sharded) = ingest_run(&coords, &candidates, &demand, None);
    let (_, _, serial) = ingest_run(&coords, &candidates, &demand, Some(1));
    let ingest_identical = sharded.placement() == serial.placement()
        && sharded.summaries() == serial.summaries()
        && sharded.stats() == serial.stats()
        && sharded.stream_stats() == serial.stream_stats();
    println!("equivalence     sharded == serial over 1M accesses: {ingest_identical}");
    assert!(
        ingest_identical,
        "sharded ingest diverged from the serial path"
    );

    // ---- JSON record. ----
    let biggest = rows.last().expect("three rows");
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"available_parallelism\": {threads},");
    let _ = writeln!(
        json,
        "  \"engine\": {{\"hold\": {hold}, \"events\": {engine_events}, \
         \"reference_ms\": {ref_ms:.1}, \"calendar_ms\": {cal_ms:.1}, \
         \"events_per_sec\": {events_per_sec:.0}, \"speedup\": {speedup:.2}, \
         \"identical_result\": {engine_identical}}},"
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"accesses\": {}, \"shards\": {SHARDS}, \"generate_ms\": {gen_ms:.1}}},",
        events.len()
    );
    json.push_str("  \"scale\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"accesses\": {}, \"wall_ms\": {:.1}, \"accesses_per_sec\": {:.0}, \
             \"periods\": {}, \"peak_rss_mb\": {:.1}}}",
            r.accesses, r.wall_ms, r.accesses_per_sec, r.periods, r.peak_rss_mb
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"e2e\": {{\"accesses\": {}, \"accesses_per_sec\": {:.0}, \
         \"peak_rss_mb\": {:.1}, \"identical_result\": {ingest_identical}}},",
        biggest.accesses, biggest.accesses_per_sec, biggest.peak_rss_mb
    );
    let _ = writeln!(
        json,
        "  \"note\": \"engine: hold-model stress, both engines execute the identical \
         event sequence (FNV fingerprint over execution instants); scale: ShardedStream \
         generation + ReplicaManager::ingest_period in 100k-access periods with a rebalance \
         each; the 1M row is replayed single-threaded and must match bit for bit\""
    );
    json.push_str("}\n");

    let path = out_dir.join("BENCH_scale.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: cannot write {}: {e}", path.display()),
    }
}
