//! `fleet_wide`: `FleetManager::ingest_period` + `rebalance` called
//! directly, no serve crate anywhere — a million-object key space, 4 160
//! owners, and a finite migration budget so the scheduler both commits
//! and defers every round.

use std::time::Instant;

use georep_core::fleet::{FleetConfig, FleetManager, FleetRound};

use super::{
    fleet_counts, fleet_ns, ingest_layers, traced_wall, Pass, Verdict, Workload, INGEST, PASS_SPAN,
    REBALANCE, ROUTE, VERIFY_1T_SPAN, VERIFY_SPAN,
};
use crate::span::Tracer;
use crate::world::{self, Demand, FleetShape, Scale, Topo, DIMS};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    pub shape: FleetShape,
    /// Accesses per decision period.
    pub period: usize,
    /// Accesses per pass.
    pub accesses: usize,
}

pub struct FleetWide {
    topo: Topo,
    demand: Vec<Demand>,
    /// Client node of each demand record, for scoring placements.
    nodes: Vec<u32>,
    p: Params,
}

/// Everything one run over the demand produced.
struct Run {
    fleet: FleetManager<DIMS>,
    rounds: Vec<FleetRound>,
    served: u64,
    pass: Pass,
    placed_delay_ms: f64,
}

impl FleetWide {
    pub fn new(seed: u64, scale: Scale, tracer: &mut Tracer, p: Params) -> Self {
        let topo = world::topo(scale, tracer);
        let recs = world::trace(&topo, seed, p.shape.objects, p.accesses, tracer);
        FleetWide {
            demand: recs.iter().map(|r| r.demand(&topo)).collect(),
            nodes: recs.iter().map(|r| r.node).collect(),
            topo,
            p,
        }
    }

    fn periods(&self) -> usize {
        self.demand.len().div_ceil(self.p.period)
    }

    /// Feeds the demand through a fresh fleet under a `root` span. With
    /// `score`, every access is first scored against the placement in
    /// force (untimed passes only: it sits between the timed calls, not
    /// inside them).
    fn run(
        &self,
        config: FleetConfig,
        root: &'static str,
        score: bool,
        tracer: &mut Tracer,
    ) -> Run {
        let mut fleet = world::fleet(&self.topo, config);
        let mut rounds = Vec::new();
        let mut lags_ms = Vec::new();
        let (mut served, mut errors) = (0u64, 0u64);
        let (mut delay_sum, mut weight_sum) = (0.0f64, 0.0f64);
        let mut wall_s = 0.0;
        tracer.time(root, None, |tracer| {
            let nodes = self.nodes.chunks(self.p.period);
            for (period, (chunk, nodes)) in self.demand.chunks(self.p.period).zip(nodes).enumerate()
            {
                let period = Some(period as u32);
                if score {
                    tracer.time(ROUTE, period, |_| {
                        for (d, &node) in chunk.iter().zip(nodes) {
                            delay_sum += world::routed_delay(&fleet, d.0, node as usize) * d.2;
                            weight_sum += d.2;
                        }
                    });
                }
                let start = Instant::now();
                let got = tracer.time(INGEST, period, |_| fleet.ingest_period(chunk));
                let round = tracer.time(REBALANCE, period, |_| fleet.rebalance());
                let lag = start.elapsed().as_secs_f64();
                wall_s += lag;
                lags_ms.push(lag * 1e3);
                served += got.iter().sum::<u64>();
                match round {
                    Ok(round) => rounds.push(round),
                    Err(_) => errors += 1,
                }
            }
        });
        let total = self.demand.len() as u64;
        Run {
            fleet,
            rounds,
            served,
            pass: Pass {
                wall_s,
                records: served,
                lags_ms,
                attempted: total,
                failed: total - served.min(total) + errors,
            },
            placed_delay_ms: if score { delay_sum / weight_sum } else { 0.0 },
        }
    }
}

impl Workload for FleetWide {
    fn pass(&self, tracer: &mut Tracer) -> Pass {
        self.run(self.p.shape.config(), PASS_SPAN, false, tracer)
            .pass
    }

    fn verify(&self, tracer: &mut Tracer) -> Verdict {
        let auto = self.run(self.p.shape.config(), VERIFY_SPAN, true, tracer);
        let serial = self.run(self.p.shape.config_1t(), VERIFY_1T_SPAN, false, tracer);
        let mut v = Verdict {
            placed_delay_ms: auto.placed_delay_ms,
            attempted: auto.pass.attempted + serial.pass.attempted,
            failed: auto.pass.failed + serial.pass.failed,
            ..Verdict::default()
        };
        v.check(auto.served == self.demand.len() as u64, || {
            format!("served {} of {} accesses", auto.served, self.demand.len())
        });
        v.check(world::fleets_identical(&auto.fleet, &serial.fleet), || {
            "auto-thread fleet differs from the threads = 1 run".to_string()
        });
        v.check(
            auto.rounds == serial.rounds && auto.served == serial.served,
            || "auto-thread rounds differ from the threads = 1 run".to_string(),
        );
        let stats = auto.fleet.stats();
        v.check(stats.committed > 0 && stats.deferred > 0, || {
            format!(
                "the budget should make the scheduler both commit and defer \
                 (committed {}, deferred {})",
                stats.committed, stats.deferred
            )
        });
        v.counts = fleet_counts(&auto.fleet, self.demand.len());
        v.counts
            .push(("trace.periods_per_pass", self.periods() as f64));
        v
    }

    fn layers(&self, tracer: &Tracer, _verdict: &Verdict) -> Vec<(&'static str, f64)> {
        let (wall_ns, passes) = traced_wall(tracer);
        let (ingest_ns, rebalance_ns) = fleet_ns(tracer, PASS_SPAN);
        ingest_layers(
            tracer,
            (ingest_ns / passes, rebalance_ns / passes),
            wall_ns / passes,
            self.demand.len(),
            self.periods() * self.p.shape.owners(),
        )
    }
}
