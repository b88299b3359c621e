//! `decide_mesh`: the decision plane under faults, no ingest tier. For
//! each standard graph family a pass makes five driver calls — two
//! scenario runs (a DC crash re-placed reactively, a 50/50 partition
//! re-placed by gossip consensus) and three decentralized solves on a
//! larger graph with one crash window that heals inside the round budget.

use std::time::Instant;

use georep_core::scenario::{run_scenario, ScenarioConfig, ScenarioKind, ScenarioReport};
use georep_core::strategy::decentralized::{
    central_placement, run_decentralized_with, DecentralConfig, DecentralReport,
};
use georep_core::strategy::predictive::PlacementMode;
use georep_core::telemetry::NullRecorder;
use georep_net::sim::{FaultPlan, SimTime};
use georep_net::topology::graph::{Graph, GraphConfig, GraphFamily};
use georep_net::RttMatrix;

use super::{traced_wall, Pass, Verdict, Workload, PASS_SPAN, SETUP_SPAN};
use crate::span::Tracer;
use crate::stats;
use crate::world::{Scale, K};

const SCENARIO: &str = "core.scenario.run_scenario";
const DECENTRAL: &str = "core.strategy.decentralized.run";
const CENTRAL: &str = "core.strategy.decentralized.central_placement";
const GRAPH: &str = "net.topology.graph.generate";
const APSP: &str = "net.topology.graph.rtt_matrix";

/// Decentralized solves per family and pass (seeds `s..s+SOLVES`).
const SOLVES: u64 = 3;
/// Candidate stride of the decentralized solves.
const CAND_EVERY: usize = 3;
/// The crashed candidate slot, and the simulated window it is down for:
/// rounds 2–10 of a 64-round budget at the default 250 ms cadence.
const CRASH_SLOT: usize = 1;
const CRASH_MS: (f64, f64) = (500.0, 2_500.0);
/// The graphs are the topology, and fixed like the PlanetLab topology of
/// the ingest workloads (`bench_decentral`'s seed); `--seed` drives what
/// runs on them: gossip jitter, peer selection, stagger, fault draws.
const GRAPH_SEED: u64 = 13;

/// One family's inputs.
struct Family {
    name: &'static str,
    /// Scenario graph.
    small: RttMatrix,
    /// Decentralized-solve graph.
    large: RttMatrix,
    candidates: Vec<usize>,
    clients: Vec<usize>,
    weights: Vec<f64>,
    /// The central solve on `large`: what every decentralized run of the
    /// family must agree on.
    central: Result<Vec<usize>, String>,
}

pub struct Mesh {
    seed: u64,
    families: Vec<Family>,
}

/// What one pass's driver calls returned.
struct Calls<'a> {
    scenarios: Vec<(&'a Family, &'static str, Result<ScenarioReport, String>)>,
    solves: Vec<(&'a Family, Result<DecentralReport, String>)>,
    pass: Pass,
}

/// One driver call: a span, a lag sample, and its records.
fn timed<T>(
    tracer: &mut Tracer,
    pass: &mut Pass,
    name: &'static str,
    records: u64,
    f: impl FnOnce() -> T,
) -> T {
    let call = pass.lags_ms.len() as u32;
    let start = Instant::now();
    let out = tracer.time(name, Some(call), |_| f());
    let lag = start.elapsed().as_secs_f64();
    pass.wall_s += lag;
    pass.lags_ms.push(lag * 1e3);
    pass.records += records;
    pass.attempted += 1;
    out
}

fn matrix(family: GraphFamily, nodes: usize, tracer: &mut Tracer) -> RttMatrix {
    let config = GraphConfig {
        family,
        nodes,
        seed: GRAPH_SEED,
        ..Default::default()
    };
    tracer
        .time(GRAPH, None, |_| Graph::generate(config))
        .and_then(|g| tracer.time(APSP, None, |_| g.rtt_matrix()))
        .unwrap_or_else(|e| panic!("{} graph on {nodes} nodes: {e}", family.name()))
}

impl Mesh {
    /// Set-up is what the passes and their verification read: per family
    /// two graphs with their all-pairs RTT matrices, the demand, and the
    /// central placement the decentralized runs must reach.
    pub fn new(seed: u64, scale: Scale, tracer: &mut Tracer) -> Self {
        let (small, large) = scale.pick((48, 192), (14, 30));
        let families = GraphFamily::standard()
            .into_iter()
            .take(scale.pick(5, 1))
            .map(|family| {
                let small = matrix(family, small, tracer);
                let large = matrix(family, large, tracer);
                let candidates: Vec<usize> = (0..large.len()).step_by(CAND_EVERY).collect();
                let clients: Vec<usize> = (0..large.len()).collect();
                // Skewed deterministic demand so placements are not degenerate.
                let weights: Vec<f64> =
                    clients.iter().map(|i| 1.0 + 2.0 * (i % 5) as f64).collect();
                let central = tracer
                    .time(CENTRAL, None, |_| {
                        central_placement(&large, &candidates, &clients, &weights, K)
                    })
                    .map(|(placement, _)| placement)
                    .map_err(|e| e.to_string());
                Family {
                    name: family.name(),
                    small,
                    large,
                    candidates,
                    clients,
                    weights,
                    central,
                }
            })
            .collect();
        Mesh { seed, families }
    }

    fn scenario_config(&self, mode: PlacementMode) -> ScenarioConfig {
        ScenarioConfig {
            seed: self.seed,
            k: K,
            mode,
            ..Default::default()
        }
    }

    fn calls(&self, tracer: &mut Tracer) -> Calls<'_> {
        let mut out = Calls {
            scenarios: Vec::new(),
            solves: Vec::new(),
            pass: Pass::default(),
        };
        let crash = |seed: u64| {
            FaultPlan::new(seed).crash(
                CRASH_SLOT,
                SimTime::from_ms(CRASH_MS.0),
                SimTime::from_ms(CRASH_MS.1),
            )
        };
        tracer.time(PASS_SPAN, None, |tracer| {
            for fam in &self.families {
                for (kind, mode) in [
                    (ScenarioKind::SingleDcCrash, PlacementMode::Reactive),
                    (ScenarioKind::Partition5050, PlacementMode::Decentralized),
                ] {
                    let cfg = self.scenario_config(mode);
                    // A record is one client-weight row the driver consumes:
                    // every node, every tick.
                    let records = fam.small.len() as u64 * 3 * u64::from(cfg.phase_ticks);
                    let report = timed(tracer, &mut out.pass, SCENARIO, records, || {
                        run_scenario(&fam.small, kind, cfg)
                    });
                    out.scenarios
                        .push((fam, kind.name(), report.map_err(|e| e.to_string())));
                }
                for s in 0..SOLVES {
                    let cfg = DecentralConfig {
                        seed: self.seed.wrapping_add(s),
                        ..DecentralConfig::new(K)
                    };
                    let records = fam.large.len() as u64;
                    let report = timed(tracer, &mut out.pass, DECENTRAL, records, || {
                        run_decentralized_with(
                            &fam.large,
                            &fam.candidates,
                            &fam.clients,
                            &fam.weights,
                            &cfg,
                            crash(cfg.seed),
                            &NullRecorder,
                        )
                    });
                    out.solves.push((fam, report.map_err(|e| e.to_string())));
                }
            }
        });
        out.pass.failed = (out.scenarios.iter().filter(|s| s.2.is_err()).count()
            + out.solves.iter().filter(|s| s.1.is_err()).count()) as u64;
        out
    }
}

impl Workload for Mesh {
    fn pass(&self, tracer: &mut Tracer) -> Pass {
        self.calls(tracer).pass
    }

    fn verify(&self, _tracer: &mut Tracer) -> Verdict {
        // An untraced pass like any other: the spans the layer metrics
        // read are those of the traced passes.
        let calls = self.calls(&mut Tracer::disabled());
        let mut v = Verdict {
            attempted: calls.pass.attempted,
            failed: calls.pass.failed,
            ..Verdict::default()
        };
        // Demand-weighted mean delay of the final placements.
        let (mut delay_sum, mut demand) = (0.0f64, 0.0f64);
        for (fam, kind, report) in &calls.scenarios {
            match report {
                Ok(r) => {
                    let nodes = fam.small.len() as f64;
                    delay_sum += r.final_delay_ms * nodes;
                    demand += nodes;
                }
                Err(e) => v.problems.push(format!("{}/{kind}: {e}", fam.name)),
            }
        }
        let mut totals = [0u64; 5];
        for (fam, report) in &calls.solves {
            let family = fam.name;
            let r = match report {
                Ok(r) => r,
                Err(e) => {
                    v.problems.push(format!("{family}/decentralized: {e}"));
                    continue;
                }
            };
            v.check(r.converged && r.agreement, || {
                format!(
                    "{family}: decentralized run converged={} agreement={} after {} rounds",
                    r.converged, r.agreement, r.rounds
                )
            });
            v.check(fam.central.as_ref() == Ok(&r.placement), || {
                format!(
                    "{family}: consensus placement {:?} differs from the central {:?}",
                    r.placement, fam.central
                )
            });
            delay_sum += r.decentral_delay_ms;
            demand += fam.weights.iter().sum::<f64>();
            for (total, part) in totals.iter_mut().zip([
                u64::from(r.rounds),
                r.bytes_gossiped,
                r.view_deltas,
                r.local_moves,
                r.events_executed,
            ]) {
                *total += part;
            }
        }
        v.placed_delay_ms = delay_sum / demand;
        v.counts = [
            "core.strategy.decentralized.rounds",
            "core.strategy.decentralized.bytes_gossiped",
            "core.strategy.decentralized.view_deltas",
            "core.strategy.decentralized.local_moves",
            "core.strategy.decentralized.events_executed",
        ]
        .into_iter()
        .zip(totals.map(|t| t as f64))
        .collect();
        v.counts
            .push(("trace.periods_per_pass", calls.pass.lags_ms.len() as f64));
        v
    }

    fn layers(&self, tracer: &Tracer, verdict: &Verdict) -> Vec<(&'static str, f64)> {
        let (wall_ns, passes) = traced_wall(tracer);
        let calls = |name| tracer.under(PASS_SPAN, 0, name).total_ns as f64;
        let setup = |name| tracer.under(SETUP_SPAN, 0, name);
        // Events the engine executed in one pass's decentralized solves
        // (a count of the verification pass) over the time they took.
        let events = verdict
            .counts
            .iter()
            .find(|c| c.0 == "core.strategy.decentralized.events_executed")
            .map_or(0.0, |c| c.1);
        vec![
            ("core.scenario.share", calls(SCENARIO) / wall_ns),
            (
                "core.scenario.run_ms_p50",
                stats::median(&tracer.durations_ns(SCENARIO)) / 1e6,
            ),
            (
                "core.strategy.decentralized.share",
                calls(DECENTRAL) / wall_ns,
            ),
            (
                "core.strategy.decentralized.solve_ms_p50",
                stats::median(&tracer.durations_ns(DECENTRAL)) / 1e6,
            ),
            (
                "net.sim.events_per_s",
                events * passes / (calls(DECENTRAL) / 1e9),
            ),
            (
                "core.strategy.central_us",
                setup(CENTRAL).total_ns as f64 / setup(CENTRAL).spans as f64 / 1e3,
            ),
            ("net.topology.apsp_ms", setup(APSP).total_ns as f64 / 1e6),
        ]
    }
}
