//! Coordinate assignment by *simulated communications* — the paper's own
//! methodology, end to end.
//!
//! Section IV-A: "this simulator can emulate communications between nodes
//! based on real network traffic data … Based on such emulated network
//! communications, the simulator can assign synthetic coordinates to all
//! the 226 nodes using RNP". [`embed_via_simulation`] does exactly that:
//! every node runs an RNP gossip [`Process`] on the discrete-event
//! simulator, periodically pinging a random peer; the pong carries the
//! peer's current coordinate and confidence, and the *measured* round-trip
//! time — including whatever jitter the network applied — feeds the node's
//! estimator. No component ever reads the latency matrix directly; RTTs
//! are observed the way a deployed system observes them.
//!
//! A node may also run without an estimator: it probes, times out, retries
//! and suspects exactly as before, and its pongs carry no coordinate.
//! Nothing in the protocol's control flow — peer choice, timers, jitter,
//! drops — reads the estimator, so such a run produces the same messages,
//! suspicion and counters as an embedding run. [`detect_with_faults`] is
//! that run: failure detection without fitting coordinates nobody reads.
//!
//! # Failure handling
//!
//! Under a [`FaultPlan`] messages can be dropped, so every ping carries a
//! sequence number and arms a timeout with exponential backoff
//! (`PROBE_TIMEOUT` = 900 ms, doubling per retry, at most `MAX_RETRIES` = 2
//! retries). A peer that misses `SUSPICION_THRESHOLD` = 3 consecutive probes
//! is *suspected* and excluded from routine peer selection; any message from
//! it clears the suspicion, and a probation probe every eighth ping tick
//! gives suspected peers a path back. [`detected_failures`] turns the
//! per-node suspicion vectors into a quorum verdict an observer can act on.
//! All of this state lives in plain `Vec`s — determinism is preserved.

use georep_coord::embedding::{evaluate, EmbeddingReport};
use georep_coord::rnp::Rnp;
use georep_coord::{Coord, LatencyEstimator};
use georep_net::rtt::RttMatrix;
use georep_net::sim::process::{NetStats, NodeId, Process, ProcessCtx, ProcessNet};
use georep_net::sim::{FaultPlan, Network, SimDuration, SimTime};

use crate::experiment::DIMS;
use crate::hash::splitmix64_next;

/// How long a node waits for a pong before declaring the probe missed.
/// Doubles per retry (exponential backoff). Must exceed the largest healthy
/// RTT or healthy peers get suspected.
const PROBE_TIMEOUT: SimDuration = SimDuration::from_micros(900_000);

/// How many times a missed probe is retried (with backoff) before the node
/// gives up on that exchange.
const MAX_RETRIES: u32 = 2;

/// Consecutive missed probes after which a peer is suspected and excluded
/// from routine peer selection.
const SUSPICION_THRESHOLD: u32 = 3;

/// Parameters of a gossip embedding run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// How often each node pings a random peer.
    pub ping_interval: SimDuration,
    /// Total simulated duration of the protocol run.
    pub duration: SimDuration,
    /// Multiplicative lognormal jitter applied to every message delay —
    /// this is the measurement noise the estimators must cope with.
    pub jitter_sigma: f64,
    /// Seed for both the network jitter and the peer selection.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            ping_interval: SimDuration::from_ms(500.0),
            duration: SimDuration::from_secs(60.0),
            jitter_sigma: 0.05,
            seed: 0x605517,
        }
    }
}

/// Messages of the gossip protocol.
#[derive(Debug, Clone, Copy)]
enum GossipMsg {
    /// "What are your coordinates?" — carries the send time so the sender
    /// can measure the RTT from the reply, and a sequence number matching
    /// the reply to the sender's outstanding-probe table.
    Ping { sent_at: SimTime, seq: u64 },
    /// The reply: echo of the ping time and sequence plus the peer's
    /// current coordinate and error, when the peer runs an estimator.
    Pong {
        sent_at: SimTime,
        seq: u64,
        state: Option<(Coord<DIMS>, f64)>,
    },
}

/// A probe awaiting its pong.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    seq: u64,
    peer: NodeId,
    attempt: u32,
}

/// One gossiping node.
struct GossipNode {
    /// `None` in a detection-only run.
    estimator: Option<Rnp<DIMS>>,
    peers: usize,
    interval: SimDuration,
    /// SplitMix64 state for peer selection (deterministic per node).
    rng_state: u64,
    pings_sent: u64,
    pings_retried: u64,
    timeouts: u64,
    pongs_received: u64,
    next_seq: u64,
    ticks: u64,
    outstanding: Vec<Outstanding>,
    /// Consecutive missed probes per peer.
    misses: Vec<u32>,
    /// Peers currently excluded from routine selection.
    suspected: Vec<bool>,
}

impl GossipNode {
    fn new(cfg: &GossipConfig, n: usize, i: usize, estimator: bool) -> Self {
        GossipNode {
            estimator: estimator.then(Rnp::new),
            peers: n,
            interval: cfg.ping_interval,
            rng_state: cfg.seed ^ (i as u64).wrapping_mul(0xD1B54A32D192ED03),
            pings_sent: 0,
            pings_retried: 0,
            timeouts: 0,
            pongs_received: 0,
            next_seq: 0,
            ticks: 0,
            outstanding: Vec::new(),
            misses: vec![0; n],
            suspected: vec![false; n],
        }
    }

    fn draw(&mut self) -> u64 {
        splitmix64_next(&mut self.rng_state)
    }

    /// Picks the next probe target: a uniform non-self peer, skipping
    /// suspected peers except on every eighth tick (probation — suspected
    /// peers must keep being probed or a healed peer could never redeem
    /// itself) or when everyone is suspected (the node is probably the
    /// isolated one; keep probing so recovery is observed promptly).
    fn pick_peer(&mut self, me: NodeId) -> NodeId {
        let probation = self.ticks.is_multiple_of(8);
        let all_suspected = (0..self.peers).all(|p| p == me || self.suspected[p]);
        loop {
            let peer = (self.draw() % self.peers as u64) as usize;
            if peer == me {
                continue;
            }
            if probation || all_suspected || !self.suspected[peer] {
                return peer;
            }
        }
    }

    fn send_ping(&mut self, peer: NodeId, attempt: u32, ctx: &mut ProcessCtx<GossipMsg>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.push(Outstanding { seq, peer, attempt });
        self.pings_sent += 1;
        ctx.send(
            peer,
            GossipMsg::Ping {
                sent_at: ctx.now(),
                seq,
            },
        );
        // Exponential backoff: 1×, 2×, 4×, … the base timeout.
        let wait = SimDuration::from_micros(PROBE_TIMEOUT.as_micros() << attempt.min(16));
        ctx.set_timer(wait, TIMER_TIMEOUT_BASE + seq);
    }

    /// Any message from `from` proves it is alive.
    fn mark_alive(&mut self, from: NodeId) {
        self.misses[from] = 0;
        self.suspected[from] = false;
    }
}

const TIMER_PING: u64 = 1;
/// Timeout timer ids are `TIMER_TIMEOUT_BASE + seq`; sequence numbers are
/// node-local, so ids never collide with `TIMER_PING`.
const TIMER_TIMEOUT_BASE: u64 = 1 << 32;

impl Process<GossipMsg> for GossipNode {
    fn on_start(&mut self, ctx: &mut ProcessCtx<GossipMsg>) {
        // Stagger the first ping by a node-dependent fraction of the
        // interval so the population does not gossip in lockstep.
        let stagger =
            SimDuration::from_micros((ctx.node() as u64 * 7919) % self.interval.as_micros().max(1));
        ctx.set_timer(self.interval + stagger, TIMER_PING);
    }

    fn on_message(&mut self, from: NodeId, msg: GossipMsg, ctx: &mut ProcessCtx<GossipMsg>) {
        self.mark_alive(from);
        match msg {
            GossipMsg::Ping { sent_at, seq } => {
                ctx.send(
                    from,
                    GossipMsg::Pong {
                        sent_at,
                        seq,
                        state: self.estimator.as_ref().map(|e| (e.coordinate(), e.error())),
                    },
                );
            }
            GossipMsg::Pong {
                sent_at,
                seq,
                state,
            } => {
                self.pongs_received += 1;
                if let Some(pos) = self.outstanding.iter().position(|o| o.seq == seq) {
                    self.outstanding.swap_remove(pos);
                }
                // A pong that arrives after its timeout already fired still
                // carries a valid measurement — feed it to the estimator.
                if let (Some(estimator), Some((coord, error))) = (&mut self.estimator, state) {
                    let rtt_ms = (ctx.now() - sent_at).as_ms();
                    estimator.observe(coord, error, rtt_ms);
                }
            }
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut ProcessCtx<GossipMsg>) {
        if id == TIMER_PING {
            self.ticks += 1;
            let peer = self.pick_peer(ctx.node());
            self.send_ping(peer, 0, ctx);
            ctx.set_timer(self.interval, TIMER_PING);
        } else if id >= TIMER_TIMEOUT_BASE {
            let seq = id - TIMER_TIMEOUT_BASE;
            let Some(pos) = self.outstanding.iter().position(|o| o.seq == seq) else {
                return; // the pong beat the timeout — nothing to do
            };
            let probe = self.outstanding.swap_remove(pos);
            self.timeouts += 1;
            self.misses[probe.peer] = self.misses[probe.peer].saturating_add(1);
            if self.misses[probe.peer] >= SUSPICION_THRESHOLD {
                self.suspected[probe.peer] = true;
            }
            if probe.attempt < MAX_RETRIES {
                self.pings_retried += 1;
                self.send_ping(probe.peer, probe.attempt + 1, ctx);
            }
        }
    }
}

/// Quorum failure detection from per-node suspicion vectors.
///
/// `suspicion[i][j]` is whether node `i` currently suspects node `j` (see
/// [`ProtocolOutcome::suspicion`]). The verdict is computed *from the
/// observer's perspective*: the voters are the observer plus every peer the
/// observer still trusts, and a non-voter is detected as failed when at
/// least half of the voters suspect it. Under a clean partition each side
/// therefore detects exactly the other side — neither is fooled into
/// failing its own reachable peers.
pub fn detected_failures(suspicion: &[Vec<bool>], observer: NodeId) -> Vec<NodeId> {
    let n = suspicion.len();
    assert!(observer < n, "observer out of range");
    let mut voters: Vec<NodeId> = vec![observer];
    voters.extend((0..n).filter(|&p| p != observer && !suspicion[observer][p]));
    (0..n)
        .filter(|t| !voters.contains(t))
        .filter(|&t| {
            let votes = voters.iter().filter(|&&v| suspicion[v][t]).count();
            2 * votes >= voters.len()
        })
        .collect()
}

/// What the probing protocol itself produced: message counts and the
/// failure detector's verdicts. Identical with and without estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// Message/event counts of the protocol run.
    pub net: NetStats,
    /// Total pings issued across the population (retries included).
    pub pings: u64,
    /// Probes re-sent after a timeout, across the population.
    pub retries: u64,
    /// Probe timeouts that fired before the pong arrived.
    pub timeouts: u64,
    /// `suspicion[i][j]`: does node `i` suspect node `j` at the end of the
    /// run? Feed to [`detected_failures`] for a quorum verdict.
    pub suspicion: Vec<Vec<bool>>,
}

/// Outcome of a gossip embedding run.
#[derive(Debug, Clone)]
pub struct GossipOutcome {
    /// Final coordinate per node.
    pub coords: Vec<Coord<DIMS>>,
    /// Accuracy of the coordinates against the true matrix.
    pub report: EmbeddingReport,
    /// Message counts and suspicion of the run.
    pub protocol: ProtocolOutcome,
}

fn check_config(cfg: &GossipConfig) {
    assert!(
        cfg.ping_interval > SimDuration::ZERO,
        "ping interval must be positive"
    );
    assert!(
        cfg.duration > SimDuration::ZERO,
        "duration must be positive"
    );
}

/// The one protocol runner: every node of `network` gossips for
/// `cfg.duration`, with an RNP estimator each when `estimators` is set and
/// with none otherwise.
fn run(
    network: Network,
    cfg: &GossipConfig,
    estimators: bool,
) -> ProcessNet<GossipNode, GossipMsg> {
    check_config(cfg);
    let n = network.len();
    let procs: Vec<GossipNode> = (0..n)
        .map(|i| GossipNode::new(cfg, n, i, estimators))
        .collect();
    let mut net = ProcessNet::new(network, procs);
    net.run_until(SimTime::ZERO + cfg.duration);
    net
}

fn protocol_outcome(net: &ProcessNet<GossipNode, GossipMsg>) -> ProtocolOutcome {
    ProtocolOutcome {
        net: net.stats(),
        pings: net.processes().map(|p| p.pings_sent).sum(),
        retries: net.processes().map(|p| p.pings_retried).sum(),
        timeouts: net.processes().map(|p| p.timeouts).sum(),
        suspicion: net.processes().map(|p| p.suspected.clone()).collect(),
    }
}

fn coords(net: &ProcessNet<GossipNode, GossipMsg>) -> Vec<Coord<DIMS>> {
    net.processes()
        .map(|p| {
            p.estimator
                .as_ref()
                .expect("an embedding run gives every node an estimator")
                .coordinate()
        })
        .collect()
}

/// Runs the RNP gossip protocol over a jittered network built from
/// `matrix` and returns the resulting embedding.
///
/// # Panics
///
/// Panics if `ping_interval` or `duration` is zero.
pub fn embed_via_simulation(matrix: &RttMatrix, cfg: GossipConfig) -> GossipOutcome {
    let network = Network::with_jitter(matrix.clone(), cfg.jitter_sigma, cfg.seed);
    let net = run(network, &cfg, true);
    let coords = coords(&net);
    let report = evaluate(&coords, &|i, j| matrix.get(i, j), cfg.seed);
    GossipOutcome {
        coords,
        report,
        protocol: protocol_outcome(&net),
    }
}

/// Runs the gossip protocol with a [`FaultPlan`] installed and no
/// estimators: the protocol rides out drops, partitions and crashes, and
/// the outcome's [`ProtocolOutcome::suspicion`] / retry counters report
/// what the failure detector concluded. No coordinates are fitted; the
/// outcome equals the protocol half of an embedding run under the same
/// plan.
///
/// # Panics
///
/// Panics if `ping_interval` or `duration` is zero.
pub fn detect_with_faults(
    matrix: &RttMatrix,
    cfg: GossipConfig,
    plan: FaultPlan,
) -> ProtocolOutcome {
    let network = Network::with_faults(matrix.clone(), cfg.jitter_sigma, cfg.seed, plan);
    protocol_outcome(&run(network, &cfg, false))
}

/// Runs the gossip protocol for `cfg.duration` on `before`, then swaps the
/// network to `after` and runs for the same duration again — the
/// "network changed underneath us" scenario. Returns the embedding accuracy
/// at the swap point (scored against `before`) and at the end (scored
/// against `after`), so callers can quantify how well the protocol
/// *re-converges* after a latency shift.
///
/// # Panics
///
/// Panics if the matrices cover different node counts or the configured
/// durations are zero.
pub fn embed_through_shift(
    before: &RttMatrix,
    after: &RttMatrix,
    cfg: GossipConfig,
) -> (EmbeddingReport, EmbeddingReport) {
    assert_eq!(
        before.len(),
        after.len(),
        "matrices must cover the same nodes"
    );
    let network = Network::with_jitter(before.clone(), cfg.jitter_sigma, cfg.seed);
    let mut net = run(network, &cfg, true);
    let report_mid = evaluate(&coords(&net), &|i, j| before.get(i, j), cfg.seed);

    net.network_mut().set_matrix(after.clone());
    net.run_until(SimTime::ZERO + cfg.duration + cfg.duration);
    let report_end = evaluate(&coords(&net), &|i, j| after.get(i, j), cfg.seed);

    (report_mid, report_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::topology::{Topology, TopologyConfig};

    fn small_matrix() -> RttMatrix {
        Topology::generate(TopologyConfig {
            nodes: 32,
            seed: 3,
            ..Default::default()
        })
        .expect("default topology config with ≥2 nodes always generates")
        .into_matrix()
    }

    #[test]
    fn gossip_converges_to_useful_coordinates() {
        let matrix = small_matrix();
        let outcome = embed_via_simulation(
            &matrix,
            GossipConfig {
                ping_interval: SimDuration::from_ms(200.0),
                duration: SimDuration::from_secs(60.0),
                ..Default::default()
            },
        );
        assert_eq!(outcome.coords.len(), 32);
        assert!(
            outcome.report.median_rel_err < 0.3,
            "median relative error {} too high",
            outcome.report.median_rel_err
        );
        // 32 nodes × 60 s / 200 ms ≈ 9600 pings.
        let protocol = &outcome.protocol;
        assert!(protocol.pings > 8_000, "pings {}", protocol.pings);
        assert!(protocol.net.messages_delivered >= protocol.pings);
    }

    #[test]
    fn longer_runs_are_more_accurate() {
        let matrix = small_matrix();
        let short = embed_via_simulation(
            &matrix,
            GossipConfig {
                duration: SimDuration::from_secs(5.0),
                ..Default::default()
            },
        );
        let long = embed_via_simulation(
            &matrix,
            GossipConfig {
                duration: SimDuration::from_secs(90.0),
                ..Default::default()
            },
        );
        assert!(
            long.report.median_abs_err < short.report.median_abs_err,
            "long {} vs short {}",
            long.report.median_abs_err,
            short.report.median_abs_err
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let matrix = small_matrix();
        let cfg = GossipConfig {
            duration: SimDuration::from_secs(10.0),
            ..Default::default()
        };
        let a = embed_via_simulation(&matrix, cfg);
        let b = embed_via_simulation(&matrix, cfg);
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn jitter_degrades_but_does_not_break_the_embedding() {
        let matrix = small_matrix();
        let clean = embed_via_simulation(
            &matrix,
            GossipConfig {
                jitter_sigma: 0.0,
                duration: SimDuration::from_secs(40.0),
                ..Default::default()
            },
        );
        let noisy = embed_via_simulation(
            &matrix,
            GossipConfig {
                jitter_sigma: 0.3,
                duration: SimDuration::from_secs(40.0),
                ..Default::default()
            },
        );
        assert!(noisy.report.median_abs_err >= clean.report.median_abs_err * 0.8);
        assert!(
            noisy.report.median_rel_err < 0.5,
            "even a noisy run must stay usable: {}",
            noisy.report.median_rel_err
        );
    }

    #[test]
    fn coordinates_reconverge_after_a_latency_shift() {
        // The network changes: every inter-node path inflates by 60%
        // (e.g. a backbone failure forces detours). The protocol must
        // re-converge onto the new latencies within another run's worth of
        // gossip.
        let before = small_matrix();
        let after = RttMatrix::from_fn(before.len(), |i, j| before.get(i, j) * 1.6)
            .expect("scaled matrix is valid");
        let cfg = GossipConfig {
            duration: SimDuration::from_secs(45.0),
            ping_interval: SimDuration::from_ms(300.0),
            ..Default::default()
        };
        let (mid, end) = embed_through_shift(&before, &after, cfg);
        assert!(
            mid.median_rel_err < 0.3,
            "pre-shift accuracy {}",
            mid.median_rel_err
        );
        assert!(
            end.median_rel_err < mid.median_rel_err * 2.0,
            "post-shift accuracy must recover: {} vs {}",
            end.median_rel_err,
            mid.median_rel_err
        );
        assert!(
            end.median_rel_err < 0.35,
            "post-shift accuracy {}",
            end.median_rel_err
        );
    }

    #[test]
    fn crashed_peer_is_suspected_by_the_population() {
        let matrix = small_matrix();
        // Node 5 goes dark at t = 5 s and never returns.
        let plan = FaultPlan::new(11).crash(5, SimTime::from_ms(5_000.0), SimTime::MAX);
        let cfg = GossipConfig {
            ping_interval: SimDuration::from_ms(250.0),
            duration: SimDuration::from_secs(40.0),
            ..Default::default()
        };
        let outcome = detect_with_faults(&matrix, cfg, plan);
        assert!(
            outcome.timeouts > 0,
            "probes to the dead node must time out"
        );
        assert!(outcome.retries > 0, "timed-out probes must be retried");
        assert!(outcome.net.messages_dropped > 0);
        let suspecters = (0..matrix.len())
            .filter(|&i| i != 5 && outcome.suspicion[i][5])
            .count();
        assert!(
            suspecters > matrix.len() / 2,
            "most nodes should suspect the crashed DC, got {suspecters}"
        );
        // The quorum verdict from any healthy observer names exactly node 5.
        assert_eq!(detected_failures(&outcome.suspicion, 0), vec![5]);
        // No healthy node is suspected by a healthy observer.
        for i in 0..matrix.len() {
            for j in 0..matrix.len() {
                if i != 5 && j != 5 {
                    assert!(!outcome.suspicion[i][j], "{i} wrongly suspects {j}");
                }
            }
        }
    }

    #[test]
    fn suspicion_clears_after_recovery() {
        let matrix = small_matrix();
        // Node 5 is dark from 5 s to 20 s, then heals; the run continues to
        // 60 s, long enough for probation probes to redeem it everywhere it
        // matters.
        let plan =
            FaultPlan::new(12).crash(5, SimTime::from_ms(5_000.0), SimTime::from_ms(20_000.0));
        let cfg = GossipConfig {
            ping_interval: SimDuration::from_ms(250.0),
            duration: SimDuration::from_secs(60.0),
            ..Default::default()
        };
        let outcome = detect_with_faults(&matrix, cfg, plan);
        assert!(outcome.timeouts > 0, "the dark window must cause timeouts");
        assert_eq!(
            detected_failures(&outcome.suspicion, 0),
            Vec::<usize>::new(),
            "after recovery no quorum should fail node 5"
        );
    }

    /// The estimator is only the pong payload: a run without one sends the
    /// same messages, draws the same jitter and reaches the same suspicion
    /// as a run with one, with or without faults. The fault-free embedding
    /// runs on the plain jittered network, so an empty plan is also pinned
    /// as transparent to the protocol.
    #[test]
    fn detection_without_estimators_matches_the_embedding_run() {
        let matrix = small_matrix();
        let side_a: Vec<usize> = (0..16).collect();
        let onset = SimTime::from_ms(3_000.0);
        for seed in [1, 2, 3] {
            let cfg = GossipConfig {
                ping_interval: SimDuration::from_ms(250.0),
                duration: SimDuration::from_secs(10.0),
                seed,
                ..Default::default()
            };
            let plans = [
                ("no faults", None),
                (
                    "crash",
                    Some(FaultPlan::new(seed).crash(5, onset, SimTime::MAX)),
                ),
                (
                    "partition",
                    Some(FaultPlan::new(seed).partition(&side_a, onset, SimTime::MAX)),
                ),
                ("loss", Some(FaultPlan::new(seed).with_default_loss(0.2))),
            ];
            for (name, plan) in plans {
                let embedded = match &plan {
                    None => embed_via_simulation(&matrix, cfg).protocol,
                    Some(plan) => {
                        let network = Network::with_faults(
                            matrix.clone(),
                            cfg.jitter_sigma,
                            cfg.seed,
                            plan.clone(),
                        );
                        protocol_outcome(&run(network, &cfg, true))
                    }
                };
                let faultless = plan.is_none();
                let plan = plan.unwrap_or_else(|| FaultPlan::new(seed));
                let detected = detect_with_faults(&matrix, cfg, plan);
                assert_eq!(detected, embedded, "{name}, seed {seed}");
                if faultless {
                    assert_eq!(detected.net.messages_dropped, 0, "seed {seed}");
                } else {
                    assert!(detected.timeouts > 0, "{name}, seed {seed}: no timeouts");
                }
            }
        }
    }

    #[test]
    fn partition_detection_is_perspective_correct() {
        let matrix = small_matrix();
        let side_a: Vec<usize> = (0..16).collect();
        let plan = FaultPlan::new(13).partition(&side_a, SimTime::from_ms(5_000.0), SimTime::MAX);
        let cfg = GossipConfig {
            ping_interval: SimDuration::from_ms(250.0),
            duration: SimDuration::from_secs(45.0),
            ..Default::default()
        };
        let outcome = detect_with_faults(&matrix, cfg, plan);
        // An observer inside side A fails exactly side B, and vice versa.
        assert_eq!(
            detected_failures(&outcome.suspicion, 0),
            (16..32).collect::<Vec<usize>>()
        );
        assert_eq!(
            detected_failures(&outcome.suspicion, 20),
            (0..16).collect::<Vec<usize>>()
        );
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let matrix = small_matrix();
        let _ = embed_via_simulation(
            &matrix,
            GossipConfig {
                duration: SimDuration::ZERO,
                ..Default::default()
            },
        );
    }
}
