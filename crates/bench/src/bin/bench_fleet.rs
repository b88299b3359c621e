//! Fleet benchmark: a million-key object-sharded manager fleet.
//!
//! One JSON record (`BENCH_fleet.json`) covering the
//! [`FleetManager`] scale envelope:
//!
//! * **workload** — a Zipf-keyed access stream ([`ShardedStream`] with an
//!   object dimension): 1M accesses over a 1M-object key space, generated
//!   in deterministic shards across all cores;
//! * **ingest** — the keyed stream fed through
//!   [`FleetManager::ingest_period`] in 100k-access periods, one
//!   budget-scheduled rebalance per period, across a hot tier of exact
//!   per-object managers plus hashed cold groups. Memory stays
//!   `O(owners)` — the per-owner ingest buckets are arena-pooled, so the
//!   reported peak RSS is flat in the number of *objects*;
//! * **equivalence** — the identical run is replayed with single-threaded
//!   fan-out and every owner placement, migration decision and counter
//!   must match bit for bit (`identical_result`);
//! * **batching** — a third run under a finite global migration budget
//!   shows the scheduler deferring the moves the budget cannot cover.
//!
//! Run with `cargo run -p georep-bench --release --bin bench_fleet`
//! (`--quick` shrinks the key space for the CI sanity gate, `--out DIR`
//! moves the JSON).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use georep_bench::peak_rss_mb;
use georep_coord::rnp::Rnp;
use georep_coord::{Coord, EmbeddingRunner};
use georep_core::experiment::DIMS;
use georep_core::fleet::{FleetConfig, FleetManager, FleetRound};
use georep_core::manager::ManagerConfig;
use georep_net::topology::{Topology, TopologyConfig};
use georep_workload::population::Population;
use georep_workload::stream::{ShardedStream, StreamConfig};
use georep_workload::Zipf;

/// Accesses per summarization period.
const PERIOD: usize = 100_000;
/// Shards the workload generator splits the stream into.
const SHARDS: usize = 64;

struct FleetRun {
    wall_ms: f64,
    periods: usize,
    rounds: Vec<FleetRound>,
    placements: Vec<Vec<usize>>,
    stats: georep_core::fleet::FleetStats,
    served_total: u64,
}

/// Feeds `demand` through a fresh fleet in `PERIOD`-sized periods with a
/// scheduled rebalance per period.
fn fleet_run(
    coords: &[Coord<DIMS>],
    candidates: &[usize],
    demand: &[(u64, Coord<DIMS>, f64)],
    config: FleetConfig,
) -> FleetRun {
    let initial: Vec<usize> = candidates[..3].to_vec();
    let mut fleet = FleetManager::new(coords.to_vec(), candidates.to_vec(), initial, config)
        .expect("valid fleet");
    let start = Instant::now();
    let mut periods = 0usize;
    let mut rounds = Vec::new();
    let mut served_total = 0u64;
    for chunk in demand.chunks(PERIOD) {
        served_total += fleet.ingest_period(chunk).iter().sum::<u64>();
        rounds.push(fleet.rebalance().expect("rebalance succeeds"));
        periods += 1;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    FleetRun {
        wall_ms,
        periods,
        placements: (0..fleet.owner_count())
            .map(|o| fleet.owner(o).placement().to_vec())
            .collect(),
        stats: fleet.stats(),
        served_total,
        rounds,
    }
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

    // ---- Shape: 1M objects / 1M accesses full, shrunk for the CI gate. ----
    let (objects, hot_objects, cold_groups, total_accesses) = if quick {
        (50_000u64, 512u64, 32usize, 150_000usize)
    } else {
        (1_000_000u64, 4_096u64, 64usize, 1_000_000usize)
    };
    println!(
        "fleet benchmark ({}): {objects} objects ({hot_objects} hot + {cold_groups} cold groups), \
         {total_accesses} accesses\n",
        if quick { "quick" } else { "full" }
    );

    // ---- Topology + embedding (identical recipe to bench_scale). ----
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

    // ---- Keyed workload: Zipf clients × Zipf objects. ----
    let pop = Population::zipf_skewed(clients.len(), 1.1, 0x21F);
    let stream_cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed: 0xF1EE7,
        ..Default::default()
    };
    let gen_start = Instant::now();
    let stream = ShardedStream::new(&pop, &stream_cfg, total_accesses as f64 * 1.02, SHARDS)
        .with_objects(Zipf::new(objects as usize, 1.1).alias());
    let mut events = stream.generate_parallel(threads);
    assert!(
        events.len() >= total_accesses,
        "Poisson stream fell short of {total_accesses} accesses ({})",
        events.len()
    );
    events.truncate(total_accesses);
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    let mut distinct: Vec<u64> = events.iter().map(|e| e.object).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let distinct_objects = distinct.len();
    drop(distinct);
    println!(
        "workload        generated {} keyed events in {gen_ms:.1} ms \
         ({distinct_objects} distinct objects, {SHARDS} shards, {threads} threads)",
        events.len()
    );
    let demand: Vec<(u64, Coord<DIMS>, f64)> = events
        .iter()
        .map(|e| (e.object, coords[clients[e.client]], e.bytes_kib))
        .collect();
    drop(events);

    let mut mgr_cfg = ManagerConfig::new(3, 8);
    mgr_cfg.seed = 0x5CA1E;
    let config = FleetConfig::new(objects, hot_objects, cold_groups, mgr_cfg);

    // ---- Main run (auto threads) + single-threaded equivalence replay. ----
    let main_run = fleet_run(&coords, &candidates, &demand, config);
    let rss_after_main = peak_rss_mb();
    let accesses_per_sec = total_accesses as f64 / (main_run.wall_ms / 1e3);
    let objects_per_sec = objects as f64 / (main_run.wall_ms / 1e3);
    let hot_fraction = main_run.stats.hot_fraction();
    println!(
        "ingest          {:>10.1} ms   {:.2}M acc/s   {} periods   \
         hot fraction {hot_fraction:.3}   rss {rss_after_main:.0} MiB",
        main_run.wall_ms,
        accesses_per_sec / 1e6,
        main_run.periods,
    );

    let mut serial_cfg = config;
    serial_cfg.threads = 1;
    let serial_run = fleet_run(&coords, &candidates, &demand, serial_cfg);
    let identical = main_run.placements == serial_run.placements
        && main_run.rounds == serial_run.rounds
        && main_run.stats == serial_run.stats
        && main_run.served_total == serial_run.served_total;
    println!(
        "equivalence     parallel == serial over {} owners: {identical}",
        main_run.placements.len()
    );
    assert!(identical, "fleet fan-out diverged from the serial replay");
    assert_eq!(main_run.served_total, total_accesses as u64);

    // ---- Budgeted run: the scheduler under a finite migration budget. ----
    let mut budgeted_cfg = config;
    budgeted_cfg.migration_budget_usd = 1.0;
    let budgeted = fleet_run(&coords, &candidates, &demand, budgeted_cfg);
    println!(
        "budget $1.00    committed {} / deferred {} (unlimited: committed {}, ${:.2} spent)",
        budgeted.stats.committed,
        budgeted.stats.deferred,
        main_run.stats.committed,
        main_run.stats.spent_usd,
    );
    assert!(
        budgeted.stats.spent_usd <= 1.0 * budgeted.stats.rounds as f64 + 1e-9,
        "budgeted run overspent: ${:.2} over {} rounds",
        budgeted.stats.spent_usd,
        budgeted.stats.rounds
    );

    let peak_rss = peak_rss_mb();

    // ---- JSON record. ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"available_parallelism\": {threads},");
    let _ = writeln!(
        json,
        "  \"fleet\": {{\"objects\": {objects}, \"hot_objects\": {hot_objects}, \
         \"cold_groups\": {cold_groups}, \"owners\": {}}},",
        main_run.placements.len()
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"accesses\": {total_accesses}, \"distinct_objects\": {distinct_objects}, \
         \"shards\": {SHARDS}, \"generate_ms\": {gen_ms:.1}}},"
    );
    let _ = writeln!(
        json,
        "  \"ingest\": {{\"wall_ms\": {:.1}, \"accesses_per_sec\": {accesses_per_sec:.0}, \
         \"objects_per_sec\": {objects_per_sec:.0}, \"periods\": {}, \"peak_rss_mb\": {peak_rss:.1}}},",
        main_run.wall_ms, main_run.periods
    );
    let _ = writeln!(
        json,
        "  \"migration\": {{\"rounds\": {}, \"committed\": {}, \"deferred\": {}, \
         \"replicas_moved\": {}, \"spent_usd\": {:.2}, \"budgeted_committed\": {}, \
         \"budgeted_deferred\": {}}},",
        main_run.stats.rounds,
        main_run.stats.committed,
        main_run.stats.deferred,
        main_run.stats.replicas_moved,
        main_run.stats.spent_usd,
        budgeted.stats.committed,
        budgeted.stats.deferred,
    );
    let _ = writeln!(json, "  \"hot_fraction\": {hot_fraction:.4},");
    let _ = writeln!(json, "  \"identical_result\": {identical},");
    let _ = writeln!(
        json,
        "  \"note\": \"keyed ShardedStream (Zipf objects x Zipf clients) through \
         FleetManager::ingest_period in {PERIOD}-access periods with a budget-scheduled \
         rebalance each; hot tier = exact per-object managers, cold tail hashed onto \
         aggregated groups, so peak RSS is O(owners), flat in the object count; the run \
         is replayed with single-threaded fan-out and must match bit for bit\""
    );
    json.push_str("}\n");

    let path = out_dir.join("BENCH_fleet.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: cannot write {}: {e}", path.display()),
    }
}
