//! A million-key fleet on one machine: object-sharded replica management.
//!
//! The paper's single-object machinery scales to real key spaces by
//! sharding: the hot Zipf head gets exact per-object managers, the cold
//! tail is hashed onto a few aggregated placement groups, and a global
//! scheduler batches every object's proposed migration under one
//! bandwidth budget. This example runs 200k logical objects — 256 exact
//! hot managers plus 16 cold groups — through four summarization periods
//! of a keyed Zipf workload, then contrasts an unlimited migration budget
//! with a starved one.
//!
//! Run with `cargo run --release --example fleet`.

use georep::coord::rnp::Rnp;
use georep::coord::{Coord, EmbeddingRunner};
use georep::core::experiment::DIMS;
use georep::core::fleet::{FleetConfig, FleetManager};
use georep::core::manager::ManagerConfig;
use georep::core::telemetry::{InMemoryRecorder, RunReport};
use georep::net::topology::{Topology, TopologyConfig};
use georep::workload::population::Population;
use georep::workload::stream::{ShardedStream, StreamConfig};
use georep::workload::zipf::Zipf;

const OBJECTS: u64 = 200_000;
const HOT: u64 = 256;
const COLD_GROUPS: usize = 16;
const ACCESSES: usize = 200_000;
const PERIODS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- A wide-area topology, embedded into coordinates. ----
    let topo = Topology::generate(TopologyConfig {
        nodes: 100,
        ..Default::default()
    })?;
    let matrix = topo.matrix().clone();
    let n = matrix.len();
    let runner = EmbeddingRunner {
        rounds: 60,
        samples_per_round: 4,
        seed: 0xF1EE7,
    };
    let (coords, _) = runner.run(n, |i, j| matrix.get(i, j), |_| Rnp::<DIMS>::new());
    let candidates: Vec<usize> = (0..n).step_by(4).collect(); // 25 DCs
    let clients: Vec<usize> = (0..n).filter(|i| i % 4 != 0).collect();

    // ---- A keyed workload: Zipf clients × Zipf objects. ----
    let population = Population::zipf_skewed(clients.len(), 1.1, 0xBEE5);
    let stream_cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed: 0x0B1EC7,
        ..Default::default()
    };
    let stream = ShardedStream::new(&population, &stream_cfg, ACCESSES as f64 * 1.03, 32)
        .with_objects(Zipf::new(OBJECTS as usize, 1.1).alias());
    let mut events = stream.generate();
    events.truncate(ACCESSES);
    let demand: Vec<(u64, Coord<DIMS>, f64)> = events
        .iter()
        .map(|e| (e.object, coords[clients[e.client]], e.bytes_kib))
        .collect();

    // ---- The fleet: 256 exact hot managers + 16 cold groups. ----
    let mut mgr_cfg = ManagerConfig::new(2, 6);
    mgr_cfg.seed = 0xF1EE7;
    let config = FleetConfig::new(OBJECTS, HOT, COLD_GROUPS, mgr_cfg);
    let initial: Vec<usize> = candidates[..2].to_vec();
    let mut fleet = FleetManager::new(coords.clone(), candidates.clone(), initial.clone(), config)?;
    println!(
        "fleet: {OBJECTS} objects → {} owners ({HOT} hot + {COLD_GROUPS} cold groups)\n",
        fleet.owner_count()
    );

    let per = demand.len() / PERIODS;
    for period in 0..PERIODS {
        let chunk = &demand[period * per..(period + 1) * per];
        let served = fleet.ingest_period(chunk);
        let round = fleet.rebalance()?;
        println!(
            "period {}: {} accesses, {} owners active, {} migrations committed \
             ({} replicas moved, ${:.2})",
            period + 1,
            chunk.len(),
            served.iter().filter(|&&s| s > 0).count(),
            round.committed,
            round.moved_replicas,
            round.spent_usd,
        );
    }

    let stats = fleet.stats();
    println!(
        "\nhot tier served {:.1}% of all accesses across {} exact managers",
        stats.hot_fraction() * 100.0,
        HOT
    );
    let hottest = fleet.owner(0).placement();
    let cold_group = fleet.owner(fleet.owner_of(OBJECTS - 1)).placement();
    println!("hottest object placed at DCs {hottest:?}; a cold group at {cold_group:?}");

    // ---- The same run, starved: a $0.50 budget per round. ----
    let mut starved_cfg = config;
    starved_cfg.migration_budget_usd = 0.5;
    let mut starved = FleetManager::new(coords, candidates, initial, starved_cfg)?;
    for period in 0..PERIODS {
        starved.ingest_period(&demand[period * per..(period + 1) * per]);
        starved.rebalance()?;
    }
    println!(
        "\nmigration budget: unlimited spent ${:.2} ({} commits); \
         $0.50/round spent ${:.2} ({} commits, {} deferred)",
        stats.spent_usd,
        stats.committed,
        starved.stats().spent_usd,
        starved.stats().committed,
        starved.stats().deferred,
    );

    // ---- Telemetry snapshot. ----
    let rec = InMemoryRecorder::new();
    fleet.record_stats(&rec);
    println!(
        "\n{}",
        RunReport::from_recorder("fleet_example", &rec).to_json()
    );

    assert_eq!(stats.accesses, ACCESSES as u64);
    assert!(
        stats.hot_fraction() > 0.5,
        "the Zipf head must dominate the traffic"
    );
    assert!(
        starved.stats().spent_usd <= 0.5 * PERIODS as f64 + 1e-9,
        "the scheduler must respect its budget"
    );
    assert!(starved.stats().deferred > 0, "starvation must defer moves");
    Ok(())
}
