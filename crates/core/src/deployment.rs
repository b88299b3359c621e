//! A fully-deployed run of the system on the discrete-event simulator.
//!
//! [`run_deployment`] is the no-oracle closed loop: *everything* the paper
//! describes happens as messages over the simulated network, paying real
//! (jittered) latencies —
//!
//! * every node gossips RNP coordinates (ping/pong with measured RTTs);
//! * candidate data centers advertise their coordinates to a coordinator;
//! * clients issue accesses to the replica with the lowest *predicted*
//!   latency (own coordinate vs the advertised replica coordinates — the
//!   paper's "identify or estimate, before actual data transfer, a replica
//!   location that can transmit data with the lowest latency");
//! * each replica summarizes the accesses it serves into micro-clusters;
//! * on a timer, the coordinator requests the summaries (each arrives as a
//!   message whose payload is the real wire encoding), recomputes the
//!   placement from pseudo-points and candidate coordinates alone, and
//!   disseminates the new placement to every node.
//!
//! No component ever reads the latency matrix: clients measure their own
//! access delays, the run reports them per period, and the expected shape
//! is visible end to end — delays drop once the first placement round
//! replaces the arbitrary initial replicas.

use georep_cluster::online::OnlineClusterer;
use georep_cluster::point::WeightedPoint;
use georep_cluster::summary::AccessSummary;
use georep_coord::rnp::Rnp;
use georep_coord::{Coord, LatencyEstimator};
use georep_net::rtt::RttMatrix;
use georep_net::sim::process::{NodeId, Process, ProcessCtx, ProcessNet};
use georep_net::sim::{Network, SimDuration, SimTime};

use crate::experiment::DIMS;
use crate::hash::splitmix64_next;
use crate::objective::{CoordDelay, CostTable, IncrementalEval};
use crate::strategy::greedy::greedy_fill;

/// Parameters of a deployment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentConfig {
    /// Degree of replication.
    pub k: usize,
    /// Micro-clusters per replica.
    pub m: usize,
    /// Gossip ping interval per node.
    pub gossip_interval: SimDuration,
    /// Mean time between accesses per client (exponential).
    pub access_interval: SimDuration,
    /// Re-placement period of the coordinator.
    pub rebalance_interval: SimDuration,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Message-delay jitter sigma.
    pub jitter_sigma: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            k: 3,
            m: 8,
            gossip_interval: SimDuration::from_ms(400.0),
            access_interval: SimDuration::from_ms(900.0),
            rebalance_interval: SimDuration::from_secs(20.0),
            duration: SimDuration::from_secs(80.0),
            jitter_sigma: 0.05,
            seed: 0xDE9107,
        }
    }
}

#[derive(Debug, Clone)]
enum Msg {
    /// Coordinate gossip.
    Ping {
        sent_at: SimTime,
    },
    Pong {
        sent_at: SimTime,
        coord: Coord<DIMS>,
        error: f64,
    },
    /// Candidate → coordinator coordinate advertisement.
    Advert {
        coord: Coord<DIMS>,
    },
    /// Client → replica data access (client includes its coordinate, as in
    /// the paper's summarization protocol).
    Access {
        sent_at: SimTime,
        coord: Coord<DIMS>,
        kib: f64,
    },
    AccessAck {
        sent_at: SimTime,
    },
    /// Coordinator → replica summary request; replica → coordinator reply
    /// carrying the wire-encoded summary.
    ShipSummary,
    Summary {
        wire: Vec<u8>,
    },
    /// Coordinator → everyone: the new replica set with advertised
    /// coordinates (what clients route against).
    Placement {
        replicas: Vec<(NodeId, Coord<DIMS>)>,
    },
}

const TIMER_GOSSIP: u64 = 1;
const TIMER_ACCESS: u64 = 2;
const TIMER_REBALANCE: u64 = 3;

struct DeployNode {
    n: usize,
    cfg: DeploymentConfig,
    estimator: Rnp<DIMS>,
    rng_state: u64,
    /// Candidate data centers (same list everywhere; the coordinator is
    /// its first entry).
    candidates: Vec<NodeId>,
    is_candidate: bool,
    is_coordinator: bool,
    /// Current replica set as disseminated, with advertised coordinates.
    placement: Vec<(NodeId, Coord<DIMS>)>,
    /// Replica role: summarizer for served accesses.
    clusterer: Option<OnlineClusterer<DIMS>>,
    /// Coordinator state: latest advertised coordinate per candidate and
    /// summaries collected this period.
    adverts: Vec<Option<Coord<DIMS>>>,
    collected: Vec<AccessSummary>,
    /// Client-side measured access delays: (time, delay_ms).
    access_log: Vec<(SimTime, f64)>,
    summary_bytes: u64,
    placements_applied: u32,
}

impl DeployNode {
    fn rand(&mut self) -> u64 {
        splitmix64_next(&mut self.rng_state)
    }

    fn rand_f64(&mut self) -> f64 {
        (self.rand() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn exp_interval(&mut self, mean: SimDuration) -> SimDuration {
        let u = self.rand_f64().max(1e-12);
        SimDuration::from_micros(((-u.ln()) * mean.as_micros() as f64).round().max(1.0) as u64)
    }

    fn closest_replica(&self) -> Option<NodeId> {
        let own = self.estimator.coordinate();
        self.placement
            .iter()
            .min_by(|a, b| own.distance(&a.1).total_cmp(&own.distance(&b.1)))
            .map(|(id, _)| *id)
    }

    /// Coordinator: recompute the placement from collected summaries and
    /// candidate adverts (greedy facility location on estimates).
    fn recompute_placement(&mut self) -> Option<Vec<(NodeId, Coord<DIMS>)>> {
        // Partial views are the norm here: whichever replicas the period's
        // gossip reached contributed, possibly more than once. Merge first
        // (keep-latest per replica, order-preserving concatenation), so a
        // replica that reported twice does not double its demand.
        let merged = AccessSummary::merge_partial(&self.collected).ok();
        self.collected.clear();
        let pseudo: Vec<WeightedPoint<DIMS>> = merged
            .map(|s| {
                s.to_micro_clusters::<DIMS>()
                    .unwrap_or_default()
                    .into_iter()
                    .map(|mc| WeightedPoint::new(mc.centroid(), mc.weight()))
                    .collect()
            })
            .unwrap_or_default();
        if pseudo.is_empty() {
            return None;
        }
        let known: Vec<(NodeId, Coord<DIMS>)> = self
            .candidates
            .iter()
            .zip(&self.adverts)
            .filter_map(|(&c, a)| a.map(|coord| (c, coord)))
            .collect();
        if known.len() < self.cfg.k {
            return None;
        }
        // Adverts are unique per candidate (a duplicated id never gets its
        // advert slot filled), so slot `i` is `known[i]`.
        let sites: Vec<Coord<DIMS>> = known.iter().map(|&(_, coord)| coord).collect();
        let points: Vec<Coord<DIMS>> = pseudo.iter().map(|p| p.coord).collect();
        let weights: Vec<f64> = pseudo.iter().map(|p| p.weight).collect();
        let slots: Vec<usize> = (0..known.len()).collect();
        let oracle = CoordDelay::new(&sites, &points);
        let table = CostTable::from_oracle(&oracle, &slots, sites.len(), points.len());
        let mut eval = IncrementalEval::new(&table, &weights);
        greedy_fill(&mut eval, self.cfg.k);
        Some(eval.slots().iter().map(|&slot| known[slot]).collect())
    }
}

impl Process<Msg> for DeployNode {
    fn on_start(&mut self, ctx: &mut ProcessCtx<Msg>) {
        let stagger = SimDuration::from_micros(self.rand() % 200_000);
        ctx.set_timer(self.cfg.gossip_interval + stagger, TIMER_GOSSIP);
        if !self.is_candidate {
            ctx.set_timer(
                self.exp_interval(self.cfg.access_interval) + stagger,
                TIMER_ACCESS,
            );
        }
        if self.is_coordinator {
            ctx.set_timer(self.cfg.rebalance_interval, TIMER_REBALANCE);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut ProcessCtx<Msg>) {
        match msg {
            Msg::Ping { sent_at } => ctx.send(
                from,
                Msg::Pong {
                    sent_at,
                    coord: self.estimator.coordinate(),
                    error: self.estimator.error(),
                },
            ),
            Msg::Pong {
                sent_at,
                coord,
                error,
            } => {
                let rtt = (ctx.now() - sent_at).as_ms();
                self.estimator.observe(coord, error, rtt);
            }
            Msg::Advert { coord } => {
                if let Some(pos) = self.candidates.iter().position(|&c| c == from) {
                    self.adverts[pos] = Some(coord);
                }
            }
            Msg::Access {
                sent_at,
                coord,
                kib,
            } => {
                if let Some(clusterer) = &mut self.clusterer {
                    clusterer.observe(coord, kib);
                }
                ctx.send(from, Msg::AccessAck { sent_at });
            }
            Msg::AccessAck { sent_at } => {
                self.access_log
                    .push((ctx.now(), (ctx.now() - sent_at).as_ms()));
            }
            Msg::ShipSummary => {
                if let Some(clusterer) = &mut self.clusterer {
                    let summary = AccessSummary::from_clusterer(ctx.node() as u32, clusterer);
                    clusterer.clear();
                    ctx.send(
                        from,
                        Msg::Summary {
                            wire: summary.encode().to_vec(),
                        },
                    );
                }
            }
            Msg::Summary { wire } => {
                self.summary_bytes += wire.len() as u64;
                if let Ok(summary) = AccessSummary::decode(&wire) {
                    self.collected.push(summary);
                }
            }
            Msg::Placement { replicas } => {
                let was_replica = self.clusterer.is_some();
                let is_replica = replicas.iter().any(|(id, _)| *id == ctx.node());
                if is_replica && !was_replica {
                    self.clusterer = Some(OnlineClusterer::new(self.cfg.m));
                } else if !is_replica {
                    self.clusterer = None;
                }
                self.placement = replicas;
                self.placements_applied += 1;
            }
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut ProcessCtx<Msg>) {
        match id {
            TIMER_GOSSIP => {
                let peer = loop {
                    let p = (self.rand() % self.n as u64) as usize;
                    if p != ctx.node() {
                        break p;
                    }
                };
                ctx.send(peer, Msg::Ping { sent_at: ctx.now() });
                // Candidates also refresh their advertisement at the
                // coordinator (candidates[0]).
                if self.is_candidate {
                    ctx.send(
                        self.candidates[0],
                        Msg::Advert {
                            coord: self.estimator.coordinate(),
                        },
                    );
                }
                ctx.set_timer(self.cfg.gossip_interval, TIMER_GOSSIP);
            }
            TIMER_ACCESS => {
                if let Some(replica) = self.closest_replica() {
                    let kib = 16.0 + self.rand_f64() * 96.0;
                    ctx.send(
                        replica,
                        Msg::Access {
                            sent_at: ctx.now(),
                            coord: self.estimator.coordinate(),
                            kib,
                        },
                    );
                }
                let next = self.exp_interval(self.cfg.access_interval);
                ctx.set_timer(next, TIMER_ACCESS);
            }
            TIMER_REBALANCE => {
                // First harvest whatever summaries arrived since the last
                // request, then re-place and request the next batch.
                if let Some(placement) = self.recompute_placement() {
                    for node in 0..self.n {
                        ctx.send(
                            node,
                            Msg::Placement {
                                replicas: placement.clone(),
                            },
                        );
                    }
                }
                let current: Vec<NodeId> = self.placement.iter().map(|(id, _)| *id).collect();
                for replica in current {
                    ctx.send(replica, Msg::ShipSummary);
                }
                ctx.set_timer(self.cfg.rebalance_interval, TIMER_REBALANCE);
            }
            _ => unreachable!("unknown timer {id}"),
        }
    }
}

/// Result of a deployment run.
#[derive(Debug, Clone)]
pub struct DeploymentOutcome {
    /// Mean measured access delay per rebalance period, ms.
    pub period_delay_ms: Vec<f64>,
    /// Accesses completed.
    pub accesses: usize,
    /// Wire bytes of all shipped summaries.
    pub summary_bytes: u64,
    /// Placement dissemination rounds every node saw (min across nodes).
    pub placements_seen: u32,
    /// Messages delivered by the simulator in total.
    pub messages: u64,
}

/// Runs the deployment: the first `candidates.len()` entries of
/// `candidates` are data centers (the first doubles as coordinator), every
/// other node of the matrix is a client. The initial placement is the
/// first `cfg.k` candidates — deliberately arbitrary, so the first
/// re-placement round has something to fix.
///
/// # Panics
///
/// Panics when fewer than `cfg.k` candidates are given, a candidate index
/// is out of range, `cfg.k == 0`, or `gossip_interval`, `access_interval`
/// or `rebalance_interval` is zero (a zero interval re-arms its timer at
/// the same instant, so the run would never reach its end).
pub fn run_deployment(
    matrix: &RttMatrix,
    candidates: &[usize],
    cfg: DeploymentConfig,
) -> DeploymentOutcome {
    assert!(cfg.k > 0, "k must be at least 1");
    assert!(candidates.len() >= cfg.k, "need at least k candidates");
    assert!(
        candidates.iter().all(|&c| c < matrix.len()),
        "candidate index out of range"
    );
    assert!(
        cfg.gossip_interval > SimDuration::ZERO,
        "gossip interval must be positive"
    );
    assert!(
        cfg.access_interval > SimDuration::ZERO,
        "access interval must be positive"
    );
    assert!(
        cfg.rebalance_interval > SimDuration::ZERO,
        "rebalance interval must be positive"
    );
    let n = matrix.len();
    let initial: Vec<(NodeId, Coord<DIMS>)> = candidates[..cfg.k]
        .iter()
        .map(|&c| (c, Coord::origin()))
        .collect();

    let procs: Vec<DeployNode> = (0..n)
        .map(|i| {
            let is_candidate = candidates.contains(&i);
            DeployNode {
                n,
                cfg,
                estimator: Rnp::new(),
                rng_state: cfg.seed ^ (i as u64).wrapping_mul(0xD1B54A32D192ED03),
                candidates: candidates.to_vec(),
                is_candidate,
                is_coordinator: i == candidates[0],
                placement: initial.clone(),
                clusterer: if initial.iter().any(|(id, _)| *id == i) {
                    Some(OnlineClusterer::new(cfg.m))
                } else {
                    None
                },
                adverts: vec![None; candidates.len()],
                collected: Vec::new(),
                access_log: Vec::new(),
                summary_bytes: 0,
                placements_applied: 0,
            }
        })
        .collect();

    let network = Network::with_jitter(matrix.clone(), cfg.jitter_sigma, cfg.seed);
    let mut net = ProcessNet::new(network, procs);
    net.run_until(SimTime::ZERO + cfg.duration);
    let stats = net.stats();
    let procs = net.into_processes();

    // Aggregate the client-measured delays into rebalance periods.
    let period_us = cfg.rebalance_interval.as_micros();
    let periods = (cfg.duration.as_micros() / period_us) as usize;
    let mut sums = vec![(0.0f64, 0usize); periods.max(1)];
    let mut accesses = 0;
    for p in &procs {
        for &(at, delay) in &p.access_log {
            let idx = ((at.as_micros() / period_us) as usize).min(sums.len() - 1);
            sums[idx].0 += delay;
            sums[idx].1 += 1;
            accesses += 1;
        }
    }
    DeploymentOutcome {
        period_delay_ms: sums
            .iter()
            .map(|(s, c)| if *c > 0 { s / *c as f64 } else { f64::NAN })
            .collect(),
        accesses,
        summary_bytes: procs.iter().map(|p| p.summary_bytes).sum(),
        placements_seen: procs
            .iter()
            .map(|p| p.placements_applied)
            .min()
            .unwrap_or(0),
        messages: stats.messages_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::topology::{Topology, TopologyConfig};

    fn fixture() -> (RttMatrix, Vec<usize>) {
        let matrix = Topology::generate(TopologyConfig {
            nodes: 48,
            seed: 77,
            ..Default::default()
        })
        .unwrap()
        .into_matrix();
        let candidates: Vec<usize> = (0..48).step_by(4).collect();
        (matrix, candidates)
    }

    #[test]
    fn deployment_improves_delay_over_time() {
        let (matrix, candidates) = fixture();
        let outcome = run_deployment(&matrix, &candidates, DeploymentConfig::default());

        assert!(outcome.accesses > 500, "accesses {}", outcome.accesses);
        assert!(outcome.summary_bytes > 0);
        assert!(
            outcome.placements_seen >= 1,
            "placement must be disseminated"
        );
        assert!(outcome.messages > 10_000);

        // The first period runs on the arbitrary initial placement; the
        // last runs on a placement computed from real summaries. Allow for
        // gossip warm-up by comparing first vs last.
        let first = outcome.period_delay_ms[0];
        let last = *outcome.period_delay_ms.last().expect("at least one period");
        assert!(
            last < first * 0.9,
            "deployment must improve: first {first:.1} ms, last {last:.1} ms \
             (periods: {:?})",
            outcome.period_delay_ms
        );
    }

    #[test]
    fn deployment_is_deterministic() {
        let (matrix, candidates) = fixture();
        let cfg = DeploymentConfig {
            duration: SimDuration::from_secs(30.0),
            ..Default::default()
        };
        let a = run_deployment(&matrix, &candidates, cfg);
        let b = run_deployment(&matrix, &candidates, cfg);
        assert_eq!(a.period_delay_ms, b.period_delay_ms);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    #[should_panic(expected = "at least k candidates")]
    fn too_few_candidates_rejected() {
        let (matrix, _) = fixture();
        let _ = run_deployment(&matrix, &[0], DeploymentConfig::default());
    }

    #[test]
    #[should_panic(expected = "gossip interval must be positive")]
    fn zero_gossip_interval_rejected() {
        let (matrix, candidates) = fixture();
        let cfg = DeploymentConfig {
            gossip_interval: SimDuration::ZERO,
            ..Default::default()
        };
        let _ = run_deployment(&matrix, &candidates, cfg);
    }

    #[test]
    #[should_panic(expected = "access interval must be positive")]
    fn zero_access_interval_rejected() {
        let (matrix, candidates) = fixture();
        let cfg = DeploymentConfig {
            access_interval: SimDuration::ZERO,
            ..Default::default()
        };
        let _ = run_deployment(&matrix, &candidates, cfg);
    }

    #[test]
    #[should_panic(expected = "rebalance interval must be positive")]
    fn zero_rebalance_interval_rejected() {
        let (matrix, candidates) = fixture();
        let cfg = DeploymentConfig {
            rebalance_interval: SimDuration::ZERO,
            ..Default::default()
        };
        let _ = run_deployment(&matrix, &candidates, cfg);
    }
}
