//! `georep-benchmark probes`: stand-alone unit costs of the inner layers
//! the workloads reach only through `FleetManager` and the scenario
//! drivers, where no span of the harness can separate them — the ring on
//! its own, one `ReplicaManager`, the clusterer, the solver, the summary
//! codec, the objective tables, the gossip embedding, the event engine.
//!
//! They run on one fixed-size input made from the seed, whatever the
//! workload, so they are a subcommand of their own and not part of a
//! traced run: run them once per commit, next to the traces. Each reports
//! the median of a few repetitions; none is in `/BENCHMARK.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use georep_cluster::{weighted_kmeans_with_stats, AccessSummary, KMeansConfig, OnlineClusterer};
use georep_coord::Coord;
use georep_core::fleet::FleetManager;
use georep_core::gossip::{embed_via_simulation, GossipConfig};
use georep_core::manager::ReplicaManager;
use georep_core::objective::{CoordDelay, CostTable, IncrementalEval};
use georep_net::sim::{Context, SimDuration, Simulation};
use georep_net::topology::graph::{Graph, GraphConfig, GraphFamily};
use georep_serve::spsc;

use crate::span::Tracer;
use crate::stats::median;
use crate::world::{self, Demand, FleetShape, Rec, Scale, Topo, DIMS, K, M};

/// Accesses in the probe trace.
const KIT_ACCESSES: usize = 200_000;
/// Fleet whose tiering and owner configuration the probes use: the
/// `serve_churn` shape.
const KIT_SHAPE: FleetShape = FleetShape {
    objects: 65_536,
    hot: 256,
    cold_groups: 8,
    budget_usd: f64::INFINITY,
};
const KIT_RING: usize = 65_536;

/// `(metric name, value, unit)` per probe.
type Out = Vec<(&'static str, f64, &'static str)>;

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `reps` timings of `f`, seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            secs(start)
        })
        .collect();
    median(&samples)
}

/// The probe input: topology, embedding, and a short keyed trace.
struct Kit {
    scale: Scale,
    topo: Topo,
    recs: Vec<Rec>,
    demand: Vec<Demand>,
}

/// Runs every probe.
pub fn run(seed: u64, scale: Scale) -> Out {
    let mut off = Tracer::disabled();
    let topo = world::topo(scale, &mut off);
    let accesses = scale.of(KIT_ACCESSES);
    let recs = world::trace(&topo, seed, KIT_SHAPE.objects, accesses, &mut off);
    let kit = Kit {
        scale,
        demand: recs.iter().map(|r| r.demand(&topo)).collect(),
        recs,
        topo,
    };
    let mut out = Vec::new();
    ring(&kit, &mut out);
    tiering(&kit, &mut out);
    manager(&kit, &mut out);
    cluster(&kit, &mut out);
    objective(&kit, &mut out);
    gossip(seed, scale, &mut out);
    engine(seed, scale, &mut out);
    out
}

/// One producer thread → one consumer, the ring on its own.
fn ring(kit: &Kit, out: &mut Out) {
    let transfers = kit.scale.of(4_000_000) as u64;
    let ring_s = median_secs(3, || {
        let (mut tx, mut rx) = spsc::<u64>(KIT_RING);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..transfers {
                    tx.push(i);
                }
            });
            let mut buf = Vec::with_capacity(KIT_RING);
            let mut got = 0u64;
            while got < transfers {
                buf.clear();
                got += rx.drain_into(&mut buf) as u64;
                black_box(&buf);
            }
        });
    });
    out.push((
        "serve.ring.transfer_per_s",
        transfers as f64 / ring_s,
        "1/s",
    ));
}

/// The object → owner lookup every routed access pays.
fn tiering(kit: &Kit, out: &mut Out) {
    let fleet = world::fleet(&kit.topo, KIT_SHAPE.config());
    let tiering = *fleet.tiering();
    let owner_s = median_secs(5, || {
        let mut acc = 0usize;
        for r in &kit.recs {
            acc ^= tiering.owner_of(u64::from(r.object));
        }
        black_box(acc);
    });
    out.push((
        "core.fleet.tier.owner_of_ns",
        owner_s * 1e9 / kit.recs.len() as f64,
        "ns",
    ));
}

/// One `ReplicaManager` on the hottest object's sub-trace.
fn manager(kit: &Kit, out: &mut Out) {
    let hottest: Vec<(Coord<DIMS>, f64)> = kit
        .demand
        .iter()
        .filter(|d| d.0 == 0)
        .map(|d| (d.1, d.2))
        .collect();
    assert!(!hottest.is_empty(), "object 0 is the Zipf head");
    let config = FleetManager::<DIMS>::owner_config(&KIT_SHAPE.config(), 0);
    let (mut ingest, mut propose, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..15 {
        let mut mgr = ReplicaManager::new_shared(
            Arc::clone(&kit.topo.coords),
            kit.topo.candidates.clone(),
            kit.topo.candidates[..K].to_vec(),
            config,
        )
        .expect("valid manager");
        let start = Instant::now();
        black_box(mgr.ingest_period(&hottest));
        ingest.push(secs(start) * 1e9 / hottest.len() as f64);
        let start = Instant::now();
        let pending = mgr.propose_rebalance().expect("probe propose");
        propose.push(secs(start) * 1e6);
        let start = Instant::now();
        black_box(mgr.commit_rebalance(pending));
        commit.push(secs(start) * 1e6);
    }
    out.push(("core.manager.ingest_ns_per_access", median(&ingest), "ns"));
    out.push(("core.manager.propose_us", median(&propose), "us"));
    out.push(("core.manager.commit_us", median(&commit), "us"));
}

/// Micro-cluster absorb, the k·m-point macro solve, summary wire codec.
fn cluster(kit: &Kit, out: &mut Out) {
    let mut clusterers: Vec<OnlineClusterer<DIMS>> = Vec::new();
    let observe_s = median_secs(3, || {
        clusterers = (0..K).map(|_| OnlineClusterer::new(M)).collect();
        for (i, d) in kit.demand.iter().enumerate() {
            clusterers[i % K].observe(d.1, d.2);
        }
    });
    out.push((
        "cluster.online.observe_ns",
        observe_s * 1e9 / kit.demand.len() as f64,
        "ns",
    ));

    let pseudo: Vec<_> = clusterers.iter().flat_map(|c| c.pseudo_points()).collect();
    let config = KMeansConfig::new(K).with_seed(world::MANAGER_SEED);
    let solve_s = median_secs(kit.scale.pick(200, 5), || {
        black_box(weighted_kmeans_with_stats(&pseudo, config).expect("probe solve"));
    });
    out.push(("cluster.kmeans.solve_us", solve_s * 1e6, "us"));

    let codec_reps = kit.scale.of(2_000);
    let summary = AccessSummary::from_clusterer(0, &clusterers[0]);
    let wire = summary.encode();
    let encode_s = median_secs(5, || {
        for _ in 0..codec_reps {
            black_box(black_box(&summary).encode());
        }
    });
    let decode_s = median_secs(5, || {
        for _ in 0..codec_reps {
            black_box(AccessSummary::decode(black_box(&wire)).expect("probe decode"));
        }
    });
    out.push((
        "cluster.summary.encode_ns",
        encode_s * 1e9 / codec_reps as f64,
        "ns",
    ));
    out.push((
        "cluster.summary.decode_ns",
        decode_s * 1e9 / codec_reps as f64,
        "ns",
    ));
}

/// Cost-table build and the incremental swap evaluation over it.
fn objective(kit: &Kit, out: &mut Out) {
    let coords = &kit.topo.coords[..];
    let n = coords.len();
    let oracle = CoordDelay::new(coords, coords);
    let build_s = median_secs(kit.scale.pick(50, 3), || {
        black_box(CostTable::from_oracle(&oracle, &kit.topo.candidates, n, n));
    });
    out.push(("core.objective.table_build_us", build_s * 1e6, "us"));

    let table = CostTable::from_oracle(&oracle, &kit.topo.candidates, n, n);
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + 2.0 * (i % 5) as f64).collect();
    let eval = IncrementalEval::with_placement(&table, &weights, &[0, 1, 2]);
    let trials = K * table.n_candidates();
    let sweeps = kit.scale.of(200);
    let swap_s = median_secs(5, || {
        let mut acc = 0.0;
        for _ in 0..sweeps {
            for pos in 0..K {
                for slot in 0..table.n_candidates() {
                    acc += eval.swap_total(pos, slot);
                }
            }
        }
        black_box(acc);
    });
    out.push((
        "core.objective.swap_eval_ns",
        swap_s * 1e9 / (sweeps * trials) as f64,
        "ns",
    ));
}

/// One gossip embedding (`embed_via_simulation`) of a small graph.
fn gossip(seed: u64, scale: Scale, out: &mut Out) {
    let small = Graph::generate(GraphConfig {
        family: GraphFamily::WattsStrogatz {
            neighbors: 6,
            rewire_p: 0.1,
        },
        nodes: scale.pick(24, 14),
        seed,
        ..Default::default()
    })
    .and_then(|g| g.rtt_matrix())
    .expect("valid probe graph");
    let gossip_s = median_secs(scale.pick(3, 1), || {
        let cfg = GossipConfig {
            seed,
            duration: SimDuration::from_secs(scale.pick(30.0, 5.0)),
            ..Default::default()
        };
        black_box(embed_via_simulation(&small, cfg));
    });
    out.push(("core.gossip.embed_ms", gossip_s * 1e3, "ms"));
}

/// The event engine on its own, under the hold model.
fn engine(seed: u64, scale: Scale, out: &mut Out) {
    /// Hold model: a fixed population of pending events, each of which
    /// reschedules itself a pseudo-random delay ahead when it fires.
    const PENDING: u64 = 1_024;
    fn hold(world: &mut u64, ctx: &mut Context<u64>) {
        // LCG step: the world is the RNG state.
        *world = world
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ctx.schedule_in(SimDuration::from_micros(1 + (*world >> 44)), hold);
    }
    let events = scale.of(150_000) as u64;
    let engine_s = median_secs(3, || {
        let mut sim = Simulation::new(seed | 1);
        for i in 0..PENDING {
            sim.schedule_in(SimDuration::from_micros(1 + i * 977), hold);
        }
        black_box(sim.run_to_completion(Some(events)));
    });
    out.push(("net.sim.hold_events_per_s", events as f64 / engine_s, "1/s"));
}
