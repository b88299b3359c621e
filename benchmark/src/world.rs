//! Set-up shared by the ingest workloads and the layer probes: the
//! 128-node topology, its RNP embedding, and the keyed access trace made
//! from `--seed`. Everything here runs inside the `setup_s` timer, each
//! layer under a span of its own.

use std::sync::Arc;

use georep_coord::rnp::Rnp;
use georep_coord::{Coord, EmbeddingRunner};
use georep_core::fleet::{FleetConfig, FleetManager};
use georep_core::manager::ManagerConfig;
use georep_net::planetlab::PLANETLAB_SEED;
use georep_net::topology::{Topology, TopologyConfig};
use georep_net::RttMatrix;
use georep_workload::population::Population;
use georep_workload::stream::{AccessEvent, ShardedStream, StreamConfig};
use georep_workload::Zipf;

use crate::span::Tracer;

pub use georep_core::experiment::DIMS;

/// Set-up spans.
pub const TOPOLOGY: &str = "net.topology.generate";
pub const EMBED: &str = "coord.embedding.run";
pub const GENERATE: &str = "workload.stream.generate";

/// Replicas per object.
pub const K: usize = 3;
/// Micro-clusters per replica.
pub const M: usize = 8;
/// `ManagerConfig.seed` everywhere.
pub const MANAGER_SEED: u64 = 0x5CA1E;
/// Zipf exponent of both the object and the client popularity.
const ZIPF_S: f64 = 1.1;
/// Generation windows of the trace (fixed, so the trace does not depend
/// on the host's core count).
const STREAM_SHARDS: usize = 64;

/// One keyed demand record in the form `FleetManager::ingest_period` takes.
pub type Demand = (u64, Coord<DIMS>, f64);

/// The embedded topology every ingest workload places replicas on.
#[derive(Debug, Clone)]
pub struct Topo {
    /// One coordinate per topology node; doubles as the serve tier's
    /// region table.
    pub coords: Arc<Vec<Coord<DIMS>>>,
    /// Every fifth node.
    pub candidates: Vec<usize>,
    /// The rest.
    pub clients: Vec<usize>,
}

/// Input scale: the recorded one, or roughly a hundredth of it for the
/// package's own tests (never recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `full`, or a hundredth of it (at least 1) under [`Scale::Smoke`].
    pub fn of(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 100).max(1),
        }
    }

    /// `full`, or the hand-picked `smoke` where a hundredth makes no sense.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// The 128-node RTT matrix at the PlanetLab seed.
pub fn matrix(scale: Scale) -> RttMatrix {
    Topology::generate(TopologyConfig {
        nodes: scale.pick(128, 40),
        seed: PLANETLAB_SEED,
        ..Default::default()
    })
    .expect("valid topology config")
    .into_matrix()
}

/// Generates the topology and embeds it (the recipe of `bench_fleet`).
pub fn topo(scale: Scale, tracer: &mut Tracer) -> Topo {
    let matrix = tracer.time(TOPOLOGY, None, |_| matrix(scale));
    Topo::new(tracer.time(EMBED, None, |_| {
        embed(scale, matrix.len(), |i, j| matrix.get(i, j))
    }))
}

impl Topo {
    /// Candidates are every fifth node, clients the rest.
    pub fn new(coords: Vec<Coord<DIMS>>) -> Self {
        let n = coords.len();
        Topo {
            coords: Arc::new(coords),
            candidates: (0..n).step_by(5).collect(),
            clients: (0..n).filter(|i| i % 5 != 0).collect(),
        }
    }
}

/// The 7-d RNP embedding of `n` nodes under `rtt`.
pub fn embed(scale: Scale, n: usize, rtt: impl Fn(usize, usize) -> f64) -> Vec<Coord<DIMS>> {
    let runner = EmbeddingRunner {
        rounds: scale.pick(60, 10),
        samples_per_round: 4,
        seed: 0xDECA,
    };
    runner.run(n, rtt, |_| Rnp::<DIMS>::new()).0
}

/// A compact trace record (16 bytes, so an 8M-access trace stays small
/// next to the system under test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rec {
    pub object: u32,
    /// Topology node of the client (index into `Topo::coords`).
    pub node: u32,
    pub weight: f64,
}

impl Rec {
    pub fn demand(&self, topo: &Topo) -> Demand {
        (
            u64::from(self.object),
            topo.coords[self.node as usize],
            self.weight,
        )
    }
}

/// Exactly `accesses` keyed events: Zipf objects × Zipf clients through
/// `ShardedStream`, seeded by `seed`.
///
/// # Panics
///
/// Panics when `objects` does not fit the compact record.
pub fn trace(
    topo: &Topo,
    seed: u64,
    objects: u64,
    accesses: usize,
    tracer: &mut Tracer,
) -> Vec<Rec> {
    tracer.time(GENERATE, None, |_| generate(topo, seed, objects, accesses))
}

fn generate(topo: &Topo, seed: u64, objects: u64, accesses: usize) -> Vec<Rec> {
    assert!(u32::try_from(objects).is_ok(), "object ids must fit u32");
    let pop = Population::zipf_skewed(topo.clients.len(), ZIPF_S, 0x21F);
    let cfg = StreamConfig {
        rate_per_ms: 1.0,
        seed,
        ..Default::default()
    };
    // Poisson count: 2 % plus a constant over the target keeps a shortfall
    // many standard deviations away at every input size used here.
    let duration_ms = accesses as f64 * 1.02 + 1_000.0;
    let stream = ShardedStream::new(&pop, &cfg, duration_ms, STREAM_SHARDS)
        .with_objects(Zipf::new(objects as usize, ZIPF_S).alias());
    let convert = |e: &AccessEvent| Rec {
        object: e.object as u32,
        node: topo.clients[e.client] as u32,
        weight: e.bytes_kib,
    };
    // Generation windows go out in waves of one per core and land in the
    // output in window order, so the transient is a few windows, never a
    // second copy of the trace (which would be this process's peak RSS).
    let threads = georep_core::threads::available_parallelism().clamp(1, STREAM_SHARDS);
    let shards: Vec<usize> = (0..STREAM_SHARDS).collect();
    let mut out = Vec::with_capacity(accesses);
    for wave in shards.chunks(threads) {
        let parts: Vec<Vec<Rec>> = std::thread::scope(|scope| {
            let workers: Vec<_> = wave
                .iter()
                .map(|&shard| {
                    let (stream, convert) = (&stream, &convert);
                    scope.spawn(move || stream.shard_events(shard).iter().map(convert).collect())
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("generator thread"))
                .collect()
        });
        for part in parts {
            let room = accesses - out.len();
            out.extend(part.into_iter().take(room));
        }
    }
    assert!(
        out.len() == accesses,
        "Poisson stream fell short of {accesses} accesses ({})",
        out.len()
    );
    out
}

/// Shape of a fleet: key space, tiers, and migration budget per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetShape {
    pub objects: u64,
    pub hot: u64,
    pub cold_groups: usize,
    pub budget_usd: f64,
}

impl FleetShape {
    /// Placement owners: one per hot object, one per cold group.
    pub fn owners(&self) -> usize {
        self.hot as usize + self.cold_groups
    }

    /// Library-default thread settings: what users get.
    pub fn config(&self) -> FleetConfig {
        let mut manager = ManagerConfig::new(K, M);
        manager.seed = MANAGER_SEED;
        let mut cfg = FleetConfig::new(self.objects, self.hot, self.cold_groups, manager);
        cfg.migration_budget_usd = self.budget_usd;
        cfg
    }

    /// The single-threaded baseline of the same job.
    pub fn config_1t(&self) -> FleetConfig {
        let mut cfg = self.config();
        cfg.threads = 1;
        cfg.manager.restart_threads = 1;
        cfg
    }
}

/// A fresh fleet over `topo`, starting from the first `K` candidates.
pub fn fleet(topo: &Topo, config: FleetConfig) -> FleetManager<DIMS> {
    FleetManager::new_shared(
        Arc::clone(&topo.coords),
        topo.candidates.clone(),
        topo.candidates[..K].to_vec(),
        config,
    )
    .expect("valid fleet configuration")
}

/// Demand-weighted delay of one access under the placement in force.
pub fn routed_delay(fleet: &FleetManager<DIMS>, object: u64, node: usize) -> f64 {
    let table = fleet.cost_table();
    let site = fleet.route(object, node);
    let slot = table.slot_of(site).expect("replicas sit on candidates");
    table.delay(slot, node)
}

/// Whether two fleets that ingested the same demand ended bit-identical:
/// fleet stats, every owner's placement and stats.
pub fn fleets_identical(a: &FleetManager<DIMS>, b: &FleetManager<DIMS>) -> bool {
    a.stats() == b.stats()
        && a.owner_count() == b.owner_count()
        && (0..a.owner_count()).all(|o| {
            a.owner(o).placement() == b.owner(o).placement()
                && a.owner(o).stats() == b.owner(o).stats()
        })
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
