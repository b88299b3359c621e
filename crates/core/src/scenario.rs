//! Named fault scenarios — the robustness harness that closes the loop.
//!
//! Each [`ScenarioKind`] drives the *whole* stack through a three-phase
//! timeline (healthy → fault → recovery) on a single deterministic clock:
//!
//! 1. coordinates come from RNP gossip over the simulator
//!    ([`crate::gossip::embed_via_simulation`]);
//! 2. a [`ReplicaManager`] routes synthetic client demand and periodically
//!    rebalances (migration-gated by [`crate::migration`] pricing);
//! 3. when the fault signature changes, a gossip run *under the fault plan*
//!    that fits no coordinates ([`crate::gossip::detect_with_faults`])
//!    feeds the quorum failure detector
//!    ([`crate::gossip::detected_failures`]); detected DCs are
//!    failed/quarantined, the surviving placement is scored through the
//!    objective cost tables ([`crate::failure::degraded_mean_delay`]), and
//!    an immediate rebalance responds — re-placement, gated by cost;
//! 4. every tick the *true* (fault-aware) client delay is recorded, so the
//!    report carries a degraded-delay timeline.
//!
//! # Determinism contract
//!
//! A scenario run is a pure function of `(matrix, kind, config)`. All
//! randomness is counter-based and seeded; all collections that influence
//! decisions are `Vec`s; every mode, the decentralized one included, runs
//! on the calling thread. Two runs with the same inputs produce
//! bit-identical [`ScenarioReport`]s, which `tests/robustness_scenarios.rs`
//! asserts for every kind.
//!
//! # Serving model
//!
//! A replica evicted from the placement (failed or partitioned away from
//! the coordinator) stops serving: clients that cannot reach any placed,
//! living, connected replica are counted `unreachable` for that tick and
//! excluded from the mean. Under a 50/50 partition the mean can therefore
//! *improve* while the unreachable count spikes — read both columns.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use georep_coord::Coord;
use georep_net::rtt::RttMatrix;
use georep_net::sim::{FaultPlan, SimDuration, SimTime};

use crate::failure::degraded_mean_delay;
use crate::forecast::ForecastConfig;
use crate::gossip::{detect_with_faults, detected_failures, embed_via_simulation, GossipConfig};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::manager::{ManagerConfig, ManagerError, Plan, ReplicaManager};
use crate::problem::{PlacementProblem, ProblemError};
use crate::strategy::decentralized::{run_decentralized_with, DecentralConfig};
use crate::strategy::predictive::{PlacementMode, Predictor};
use crate::telemetry::{NullRecorder, Recorder};

/// The five named robustness scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// One replica-hosting data center goes dark for the fault phase.
    SingleDcCrash,
    /// The link between the two busiest replicas loses most packets.
    FlappingLink,
    /// The population splits into two halves that cannot talk.
    Partition5050,
    /// Every link touching the upper half of the population slows 3×.
    RegionalLatencySurge,
    /// Two replica DCs crash on overlapping windows and recover in turn.
    RollingRecovery,
}

impl ScenarioKind {
    /// Stable machine-readable name (report labels, trace events).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::SingleDcCrash => "single_dc_crash",
            ScenarioKind::FlappingLink => "flapping_link",
            ScenarioKind::Partition5050 => "partition_50_50",
            ScenarioKind::RegionalLatencySurge => "regional_latency_surge",
            ScenarioKind::RollingRecovery => "rolling_recovery",
        }
    }
}

/// All five scenarios, in reporting order.
pub const ALL_SCENARIOS: [ScenarioKind; 5] = [
    ScenarioKind::SingleDcCrash,
    ScenarioKind::FlappingLink,
    ScenarioKind::Partition5050,
    ScenarioKind::RegionalLatencySurge,
    ScenarioKind::RollingRecovery,
];

/// Tuning of a scenario run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Master seed: gossip jitter, peer selection, fault loss draws and
    /// macro-clustering all derive from it.
    pub seed: u64,
    /// Degree of replication.
    pub k: usize,
    /// Ticks per phase; the run is `3 × phase_ticks` ticks long.
    pub phase_ticks: u32,
    /// Simulated length of one tick.
    pub tick: SimDuration,
    /// Rebalance cadence, in ticks (a detection additionally forces one).
    pub rebalance_every: u32,
    /// Simulated duration of the coordinate-embedding gossip run.
    pub embed_duration: SimDuration,
    /// Simulated duration of each failure-detection gossip run.
    pub detect_duration: SimDuration,
    /// What drives re-placement: the recorded summaries
    /// ([`PlacementMode::Reactive`], the default and the historical
    /// behavior), the forecast next tick when the confidence gate engages
    /// ([`PlacementMode::Predictive`] — the scenario's per-fault-state
    /// demand is stationary, so the gate declines and the report stays
    /// bit-identical to reactive), the actual next tick
    /// ([`PlacementMode::Oracle`]), or a peer-to-peer gossip solve over the
    /// live candidates with no central solver in the loop
    /// ([`PlacementMode::Decentralized`] — the consensus placement still
    /// passes the manager's migration gate).
    pub mode: PlacementMode,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0x0B5E55ED,
            k: 3,
            phase_ticks: 8,
            tick: SimDuration::from_secs(1.0),
            rebalance_every: 4,
            embed_duration: SimDuration::from_secs(30.0),
            detect_duration: SimDuration::from_secs(30.0),
            mode: PlacementMode::Reactive,
        }
    }
}

/// One entry of the degraded-delay timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Tick index (tick × [`ScenarioConfig::tick`] = simulated time).
    pub tick: u32,
    /// Demand-weighted mean client delay over *reachable* clients, ms;
    /// `None` when no client can reach any replica.
    pub mean_delay_ms: Option<f64>,
    /// Clients with no placed, living, connected replica this tick.
    pub unreachable: usize,
}

/// An event of the deterministic scenario trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A phase boundary ("healthy", "fault", "recovery").
    PhaseStart { tick: u32, phase: &'static str },
    /// The failure detector ran; `nodes` is the quorum verdict and
    /// `degraded_ms` the surviving placement scored through the objective
    /// cost tables (`None` when nothing was detected or nothing survives).
    Detected {
        tick: u32,
        nodes: Vec<usize>,
        degraded_ms: Option<f64>,
    },
    /// A detected node hosting a replica was evicted from the placement.
    ReplicaFailed { tick: u32, node: usize },
    /// A detected non-replica candidate was excluded from future placements.
    Quarantined { tick: u32, node: usize },
    /// A previously excluded node returned to the candidate set.
    Restored { tick: u32, node: usize },
    /// A rebalance round ran.
    Rebalance {
        tick: u32,
        applied: bool,
        moved: usize,
        cost_usd: f64,
    },
}

/// The full, comparable outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// [`ScenarioKind::name`] of the scenario.
    pub name: &'static str,
    /// Per-tick degraded-delay timeline.
    pub timeline: Vec<TimelinePoint>,
    /// Every decision the harness took, in order.
    pub trace: Vec<TraceEvent>,
    /// Placement at the end of the healthy phase, sorted.
    pub pre_fault_placement: Vec<usize>,
    /// Placement at the end of the run, sorted.
    pub final_placement: Vec<usize>,
    /// True mean client delay of the pre-fault placement, ms.
    pub pre_fault_delay_ms: f64,
    /// True mean client delay of the final placement, ms (healthy network).
    pub final_delay_ms: f64,
    /// Worst mean delay seen on the timeline at or after fault onset, ms
    /// (the healthy warm-up ticks before the first rebalances would
    /// otherwise dominate).
    pub peak_delay_ms: f64,
    /// Applied rebalances that moved replicas after fault onset.
    pub replacements: u64,
    /// Messages dropped across all gossip runs (embedding + detections).
    pub messages_dropped: u64,
    /// Probe retries across all gossip runs.
    pub retries: u64,
    /// FNV-1a hash of the debug-formatted trace — a compact fingerprint
    /// for cross-thread-count identity checks.
    pub trace_hash: u64,
}

/// Error produced by [`run_scenario`].
#[derive(Debug)]
pub enum ScenarioError {
    /// The configuration or matrix was unusable.
    Setup(&'static str),
    /// The replica manager failed.
    Manager(ManagerError),
    /// Objective scoring failed.
    Problem(ProblemError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Setup(what) => write!(f, "invalid scenario setup: {what}"),
            ScenarioError::Manager(e) => write!(f, "manager failed: {e}"),
            ScenarioError::Problem(e) => write!(f, "objective scoring failed: {e}"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Manager(e) => Some(e),
            ScenarioError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ManagerError> for ScenarioError {
    fn from(e: ManagerError) -> Self {
        ScenarioError::Manager(e)
    }
}

impl From<ProblemError> for ScenarioError {
    fn from(e: ProblemError) -> Self {
        ScenarioError::Problem(e)
    }
}

/// The scenario's faults, expressed twice: absolute windows on the tick
/// timeline (for truth-scoring), and a builder for detection-time plans.
struct Faults {
    /// `(node, from_tick, until_tick)` crash windows.
    crashes: Vec<(usize, u32, u32)>,
    /// Partition side A, active during the fault phase (empty = none).
    partition_a: Vec<usize>,
    /// `(a, b, probability)` lossy links, active during the fault phase.
    lossy: Vec<(usize, usize, f64)>,
    /// `(region, factor)` latency surges, active during the fault phase.
    surges: Vec<(Vec<usize>, f64)>,
}

impl Faults {
    /// Crash-and-partition signature at a tick — the part of the fault
    /// state the failure detector can distinguish. Loss and surge do not
    /// change membership, only delay/retry statistics.
    fn signature(&self, tick: u32, p: u32) -> (Vec<usize>, Vec<usize>) {
        let mut down: Vec<usize> = self
            .crashes
            .iter()
            .filter(|&&(_, from, until)| from <= tick && tick < until)
            .map(|&(node, _, _)| node)
            .collect();
        down.sort_unstable();
        let part = if (p..2 * p).contains(&tick) && !self.partition_a.is_empty() {
            self.partition_a.clone()
        } else {
            Vec::new()
        };
        (down, part)
    }

    fn has_noise(&self) -> bool {
        !self.lossy.is_empty() || !self.surges.is_empty()
    }

    /// The plan truth-scoring consults, with windows in absolute tick time.
    fn scoring_plan(&self, seed: u64, cfg: &ScenarioConfig) -> FaultPlan {
        let p = cfg.phase_ticks;
        let at = |t: u32| SimTime::ZERO + cfg.tick.mul(t as u64);
        let mut plan = FaultPlan::new(seed);
        for &(node, from, until) in &self.crashes {
            plan = plan.crash(node, at(from), at(until));
        }
        if !self.partition_a.is_empty() {
            plan = plan.partition(&self.partition_a, at(p), at(2 * p));
        }
        for &(a, b, prob) in &self.lossy {
            plan = plan.lossy_link(a, b, prob, at(p), at(2 * p));
        }
        for (region, factor) in &self.surges {
            plan = plan.latency_surge(region, *factor, at(p), at(2 * p));
        }
        plan
    }

    /// A steady-state plan for one detection gossip run: every fault active
    /// at `tick` is held from `warmup` onward, so the detector converges on
    /// the *current* network state.
    fn detection_plan(&self, tick: u32, p: u32, seed: u64) -> FaultPlan {
        let warmup = SimTime::from_ms(5_000.0);
        let (down, part) = self.signature(tick, p);
        let mut plan = FaultPlan::new(seed ^ (tick as u64).wrapping_mul(0x9E37_79B9));
        for node in down {
            plan = plan.crash(node, warmup, SimTime::MAX);
        }
        if !part.is_empty() {
            plan = plan.partition(&part, warmup, SimTime::MAX);
        }
        if (p..2 * p).contains(&tick) {
            for &(a, b, prob) in &self.lossy {
                plan = plan.lossy_link(a, b, prob, warmup, SimTime::MAX);
            }
            for (region, factor) in &self.surges {
                plan = plan.latency_surge(region, *factor, warmup, SimTime::MAX);
            }
        }
        plan
    }
}

/// True fault-aware mean client delay at `at`: each client reaches the
/// nearest placed replica that is alive and connected to it, with surge
/// factors applied; clients with no such replica (or themselves down) count
/// as unreachable.
///
/// Returns `(mean_delay_ms, unreachable_clients)`; the mean is `None` when
/// no client could be served at all. Public so correlated-failure scoring
/// (compiled [`crate::domains`] outages in the domain-scenario suite) goes
/// through the exact same delay accounting as the scenario driver itself.
pub fn fault_aware_delay(
    matrix: &RttMatrix,
    placement: &[usize],
    plan: &FaultPlan,
    at: SimTime,
) -> (Option<f64>, usize) {
    let mut total = 0.0;
    let mut served = 0usize;
    let mut unreachable = 0usize;
    for c in 0..matrix.len() {
        if plan.node_down(c, at) {
            unreachable += 1;
            continue;
        }
        let best = placement
            .iter()
            .filter(|&&r| !plan.node_down(r, at) && !plan.partitioned(c, r, at))
            .map(|&r| matrix.get(c, r) * plan.latency_factor(c, r, at))
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            total += best;
            served += 1;
        } else {
            unreachable += 1;
        }
    }
    if served == 0 {
        (None, unreachable)
    } else {
        (Some(total / served as f64), unreachable)
    }
}

/// Runs one scenario over `matrix` and returns its deterministic report.
///
/// Candidate data centers are every third node (the coordinator is
/// candidate 0 — it is never chosen as a fault target); every node is a
/// client with unit demand per tick.
///
/// # Errors
///
/// [`ScenarioError`] when the inputs are inconsistent or any layer fails.
pub fn run_scenario(
    matrix: &RttMatrix,
    kind: ScenarioKind,
    cfg: ScenarioConfig,
) -> Result<ScenarioReport, ScenarioError> {
    run_scenario_with_recorder(matrix, kind, cfg, &NullRecorder)
}

/// [`run_scenario`] with a [`Recorder`] attached. Every recorder call is a
/// read-only side channel over values the run computes anyway — integer
/// counters and already-computed floats — so the [`ScenarioReport`] is
/// bit-identical whichever recorder is installed (asserted by
/// `tests/robustness_scenarios.rs`).
///
/// # Errors
///
/// [`ScenarioError`] when the inputs are inconsistent or any layer fails.
pub fn run_scenario_with_recorder<R: Recorder>(
    matrix: &RttMatrix,
    kind: ScenarioKind,
    cfg: ScenarioConfig,
    rec: &R,
) -> Result<ScenarioReport, ScenarioError> {
    let _span = crate::span!("scenario.run");
    let n = matrix.len();
    let p = cfg.phase_ticks;
    if n < 12 {
        return Err(ScenarioError::Setup("need at least 12 nodes"));
    }
    if cfg.k < 2 {
        return Err(ScenarioError::Setup("need k ≥ 2 to survive failures"));
    }
    if p < 2 || cfg.rebalance_every == 0 {
        return Err(ScenarioError::Setup(
            "need ≥ 2 ticks per phase and a positive rebalance cadence",
        ));
    }
    let Some(run_ticks) = p
        .checked_mul(3)
        .filter(|&t| cfg.tick.as_micros().checked_mul(u64::from(t)).is_some())
    else {
        return Err(ScenarioError::Setup(
            "3 × phase_ticks ticks overflow the simulated clock",
        ));
    };
    if cfg.embed_duration == SimDuration::ZERO || cfg.detect_duration == SimDuration::ZERO {
        return Err(ScenarioError::Setup("gossip durations must be positive"));
    }
    let candidates: Vec<usize> = (0..n).step_by(3).collect();
    if cfg.k >= candidates.len() {
        return Err(ScenarioError::Setup("k must be below the candidate count"));
    }
    let clients: Vec<usize> = (0..n).collect();
    let coordinator = candidates[0];

    // 1. Coordinates from gossip over the healthy network.
    let gossip_cfg = GossipConfig {
        ping_interval: SimDuration::from_ms(250.0),
        duration: cfg.embed_duration,
        seed: cfg.seed,
        ..GossipConfig::default()
    };
    let embed = {
        let _span = crate::span!("scenario.embed");
        embed_via_simulation(matrix, gossip_cfg)
    };
    let mut messages_dropped = embed.protocol.net.messages_dropped;
    let mut retries = embed.protocol.retries;
    if rec.enabled() {
        rec.event(
            "scenario.start",
            &[
                ("scenario", kind.name().into()),
                ("nodes", n.into()),
                ("k", cfg.k.into()),
                ("seed", cfg.seed.into()),
            ],
        );
        rec.counter("gossip.pings", embed.protocol.pings);
        rec.counter("gossip.retries", embed.protocol.retries);
        rec.counter("gossip.timeouts", embed.protocol.timeouts);
        rec.counter("net.messages_dropped", embed.protocol.net.messages_dropped);
        rec.observe("embed.median_rel_err", embed.report.median_rel_err);
    }

    // 2. The live pipeline: manager + objective scoring.
    // Generous micro-cluster budget: with summaries this fine the macro
    // input barely depends on how routing split the clients, so the
    // optimizer's post-recovery proposal converges back to its pre-fault
    // fixed point instead of a near-tied alternative.
    let mut mgr_cfg = ManagerConfig::new(cfg.k, 8);
    mgr_cfg.seed = cfg.seed;
    mgr_cfg.gain_per_dollar = 0.02;
    let initial: Vec<usize> = candidates.iter().copied().take(cfg.k).collect();
    let mut mgr = ReplicaManager::new(embed.coords.clone(), candidates.clone(), initial, mgr_cfg)?;
    let problem = PlacementProblem::new(matrix, candidates.clone(), clients.clone())?;

    // The forecaster summarizes each tick's demand onto the candidate
    // coordinates; one seasonal cycle = one rebalance cadence. On this
    // harness's stationary per-fault-state demand the gate declines, so
    // predictive mode reproduces the reactive report bit for bit — the
    // predictive machinery is wired in, never worse, and a future
    // non-stationary demand model engages it for free.
    let regions: Vec<Coord<_>> = candidates.iter().map(|&c| embed.coords[c]).collect();
    let forecast_cfg =
        ForecastConfig::new(cfg.rebalance_every.max(1) as usize).expect("positive season");
    let mut predictor =
        Predictor::new(regions, forecast_cfg).map_err(|_| ScenarioError::Setup("predictor"))?;

    let mut trace: Vec<TraceEvent> = Vec::new();
    let mut timeline: Vec<TimelinePoint> = Vec::new();
    let mut replacements = 0u64;
    let mut excluded: Vec<usize> = Vec::new();
    let mut faults: Option<Faults> = None;
    let mut scoring_plan = FaultPlan::new(cfg.seed);
    let mut pre_fault_placement: Vec<usize> = Vec::new();
    let mut pre_fault_delay_ms = 0.0;
    let mut prev_signature = (Vec::new(), Vec::new());

    for tick in 0..run_ticks {
        let now = SimTime::ZERO + cfg.tick.mul(tick as u64);
        if tick == 0 {
            trace.push(TraceEvent::PhaseStart {
                tick,
                phase: "healthy",
            });
            rec.event(
                "phase",
                &[("tick", tick.into()), ("phase", "healthy".into())],
            );
        }
        // The fault targets depend on the demand-driven placement, so the
        // plan is built at the fault-phase boundary.
        if tick == p {
            trace.push(TraceEvent::PhaseStart {
                tick,
                phase: "fault",
            });
            rec.event("phase", &[("tick", tick.into()), ("phase", "fault".into())]);
            let mut placed: Vec<usize> = mgr.placement().to_vec();
            placed.sort_unstable();
            pre_fault_placement = placed;
            pre_fault_delay_ms = problem.mean_delay(mgr.placement())?;
            let f = build_faults(kind, &pre_fault_placement, coordinator, n, p);
            scoring_plan = f.scoring_plan(cfg.seed, &cfg);
            faults = Some(f);
        }
        if tick == 2 * p {
            trace.push(TraceEvent::PhaseStart {
                tick,
                phase: "recovery",
            });
            rec.event(
                "phase",
                &[("tick", tick.into()), ("phase", "recovery".into())],
            );
        }
        let ctx = TickCtx {
            matrix,
            clients: &clients,
            coords: &embed.coords,
            plan: &scoring_plan,
            coordinator,
            cfg: &cfg,
            tick,
        };

        // Failure detection: rerun gossip under the current fault state
        // whenever the crash/partition signature changes, plus once at
        // fault onset for loss/surge-only scenarios (their signature is
        // empty, but retry statistics and detector tolerance matter).
        if let Some(f) = &faults {
            let signature = f.signature(tick, p);
            let noise_onset = tick == p && f.has_noise();
            if signature != prev_signature || noise_onset {
                let verdict = if signature == (Vec::new(), Vec::new()) && !noise_onset {
                    Vec::new() // all clear — nothing to probe for
                } else {
                    let _span = crate::span!("scenario.detect");
                    let detect = detect_with_faults(
                        matrix,
                        GossipConfig {
                            ping_interval: SimDuration::from_ms(250.0),
                            duration: cfg.detect_duration,
                            seed: cfg.seed ^ 0xDE7EC7,
                            ..GossipConfig::default()
                        },
                        f.detection_plan(tick, p, cfg.seed),
                    );
                    messages_dropped += detect.net.messages_dropped;
                    retries += detect.retries;
                    if rec.enabled() {
                        rec.counter("gossip.detect_runs", 1);
                        rec.counter("gossip.pings", detect.pings);
                        rec.counter("gossip.retries", detect.retries);
                        rec.counter("gossip.timeouts", detect.timeouts);
                        rec.counter("net.messages_dropped", detect.net.messages_dropped);
                    }
                    detected_failures(&detect.suspicion, coordinator)
                };
                prev_signature = signature;

                let failed_set: HashSet<usize> = verdict.iter().copied().collect();
                let degraded_ms = if verdict.is_empty() {
                    None
                } else {
                    degraded_mean_delay(&problem, mgr.placement(), &failed_set)?
                };
                trace.push(TraceEvent::Detected {
                    tick,
                    nodes: verdict.clone(),
                    degraded_ms,
                });
                if rec.enabled() {
                    rec.event(
                        "detected",
                        &[
                            ("tick", tick.into()),
                            ("nodes", verdict.len().into()),
                            ("degraded_ms", degraded_ms.unwrap_or(f64::NAN).into()),
                        ],
                    );
                }

                // Newly detected nodes leave the pipeline. Only candidate
                // DCs matter here: a detected non-candidate hosts nothing
                // and can host nothing (restoring it later would otherwise
                // smuggle it into the candidate set).
                for &node in &verdict {
                    if excluded.contains(&node) || !candidates.contains(&node) {
                        continue;
                    }
                    if mgr.placement().contains(&node) && mgr.fail_replica(node).is_ok() {
                        trace.push(TraceEvent::ReplicaFailed { tick, node });
                        rec.counter("scenario.replica_failures", 1);
                        rec.event(
                            "replica_failed",
                            &[("tick", tick.into()), ("node", node.into())],
                        );
                        excluded.push(node);
                    } else if mgr.quarantine_candidate(node).is_ok() {
                        trace.push(TraceEvent::Quarantined { tick, node });
                        rec.counter("scenario.quarantines", 1);
                        rec.event(
                            "quarantined",
                            &[("tick", tick.into()), ("node", node.into())],
                        );
                        excluded.push(node);
                    }
                }
                // … and nodes no longer detected come back.
                let healed: Vec<usize> = excluded
                    .iter()
                    .copied()
                    .filter(|node| !verdict.contains(node))
                    .collect();
                for node in healed {
                    mgr.restore_candidate(node)?;
                    excluded.retain(|&e| e != node);
                    trace.push(TraceEvent::Restored { tick, node });
                    rec.counter("scenario.restores", 1);
                    rec.event("restored", &[("tick", tick.into()), ("node", node.into())]);
                }
                // The degradation loop responds immediately: re-placement,
                // still gated by migration cost.
                rebalance_round(
                    &mut mgr,
                    &predictor,
                    &ctx,
                    &mut trace,
                    &mut replacements,
                    rec,
                )?;
            }
        }

        // Demand: every client the coordinator can currently hear from,
        // recorded on this thread.
        let demand = ctx.demand_at(tick);
        for &(coord, weight) in &demand {
            mgr.record_access(coord, weight);
        }
        predictor.observe(&demand);

        // Truth-score this tick.
        let (mean, unreachable) = fault_aware_delay(matrix, mgr.placement(), &scoring_plan, now);
        timeline.push(TimelinePoint {
            tick,
            mean_delay_ms: mean,
            unreachable,
        });
        if rec.enabled() {
            if let Some(ms) = mean {
                rec.observe("tick.mean_delay_ms", ms);
            }
            rec.counter("tick.unreachable", unreachable as u64);
        }

        if (tick + 1) % cfg.rebalance_every == 0 {
            rebalance_round(
                &mut mgr,
                &predictor,
                &ctx,
                &mut trace,
                &mut replacements,
                rec,
            )?;
        }
    }

    let mut final_placement: Vec<usize> = mgr.placement().to_vec();
    final_placement.sort_unstable();
    let final_delay_ms = problem.mean_delay(mgr.placement())?;
    let peak_delay_ms = timeline
        .iter()
        .filter(|t| t.tick >= p)
        .filter_map(|t| t.mean_delay_ms)
        .fold(0.0, f64::max);
    let trace_hash = fnv1a(FNV_OFFSET, format!("{trace:?}").as_bytes());

    // Flush the lower layers' always-on tallies into the recorder once per
    // run (the hot paths themselves never pay recorder dispatch).
    if rec.enabled() {
        let ms = mgr.stats();
        rec.counter("manager.accesses", ms.accesses);
        rec.counter("manager.rounds", ms.rounds);
        rec.counter("manager.replicas_moved", ms.replicas_moved);
        rec.counter("manager.summary_bytes", ms.summary_bytes);
        let ss = mgr.stream_stats();
        rec.counter("stream.absorbed", ss.absorbed);
        rec.counter("stream.created", ss.created);
        rec.counter("stream.merged", ss.merged);
        let ks = mgr.kmeans_stats();
        rec.counter("kmeans.restarts", ks.restarts);
        rec.counter("kmeans.iterations", ks.iterations);
        rec.counter("kmeans.pruned_upper", ks.pruned_upper);
        rec.counter("kmeans.pruned_tightened", ks.pruned_tightened);
        rec.counter("kmeans.full_scans", ks.full_scans);
        rec.event(
            "scenario.end",
            &[
                ("scenario", kind.name().into()),
                ("replacements", replacements.into()),
                ("messages_dropped", messages_dropped.into()),
                ("retries", retries.into()),
                ("peak_delay_ms", peak_delay_ms.into()),
            ],
        );
    }

    Ok(ScenarioReport {
        name: kind.name(),
        timeline,
        trace,
        pre_fault_placement,
        final_placement,
        pre_fault_delay_ms,
        final_delay_ms,
        peak_delay_ms,
        replacements,
        messages_dropped,
        retries,
        trace_hash,
    })
}

/// What one tick's demand and re-placement read: the population, the fault
/// state as currently planned, and the clock.
struct TickCtx<'a, const D: usize> {
    matrix: &'a RttMatrix,
    clients: &'a [usize],
    coords: &'a [Coord<D>],
    plan: &'a FaultPlan,
    coordinator: usize,
    cfg: &'a ScenarioConfig,
    tick: u32,
}

impl<const D: usize> TickCtx<'_, D> {
    /// Whether the coordinator can hear from client `c` at `tick` — one
    /// predicate for the ingest path, the oracle's foresight and the
    /// decentralized demand weights, so they cannot drift.
    fn reachable(&self, c: usize, tick: u32) -> bool {
        let now = SimTime::ZERO + self.cfg.tick.mul(tick as u64);
        !self.plan.node_down(c, now) && !self.plan.partitioned(c, self.coordinator, now)
    }

    /// The reachable-client demand of `tick`.
    fn demand_at(&self, tick: u32) -> Vec<(Coord<D>, f64)> {
        let reachable = self.clients.iter().filter(|&&c| self.reachable(c, tick));
        reachable.map(|&c| (self.coords[c], 1.0)).collect()
    }
}

/// One re-placement of the run under the configured mode, committed and
/// logged. The demand comes from [`Predictor::demand_for`]; the oracle's
/// foresight is the *next* tick's demand under the scoring plan as
/// currently built (the fault plan itself is only constructed at fault
/// onset — foresight does not extend to faults that have not been planned
/// yet), and nothing past the last tick. Decentralized mode swaps the
/// solver instead: the gossip consensus goes through
/// [`Plan::Placement`], so the migration cost gate applies to it exactly
/// as to any centrally computed proposal (reactive fallback when no solve
/// is possible).
fn rebalance_round<const D: usize, R: Recorder>(
    mgr: &mut ReplicaManager<D>,
    predictor: &Predictor<D>,
    ctx: &TickCtx<'_, D>,
    trace: &mut Vec<TraceEvent>,
    replacements: &mut u64,
    rec: &R,
) -> Result<(), ScenarioError> {
    let (mode, tick) = (ctx.cfg.mode, ctx.tick);
    let next = (tick + 1 < 3 * ctx.cfg.phase_ticks).then(|| ctx.demand_at(tick + 1));
    let demand = predictor
        .demand_for(mode, next.as_deref())
        .map_err(|_| ScenarioError::Setup("forecast on empty history"))?;
    let consensus = match mode {
        PlacementMode::Decentralized => decentralized_consensus(mgr, ctx, rec),
        _ => None,
    };
    let plan = match (&consensus, &demand) {
        (Some(placement), _) => Plan::Placement(placement),
        (None, Some(demand)) => Plan::Demand(demand),
        (None, None) => Plan::Recorded,
    };
    let pending = mgr.propose(plan)?;
    let d = mgr.commit_rebalance(pending);

    if d.applied && d.moved > 0 && tick >= ctx.cfg.phase_ticks {
        *replacements += 1;
    }
    trace.push(TraceEvent::Rebalance {
        tick,
        applied: d.applied,
        moved: d.moved,
        cost_usd: d.cost_usd,
    });
    if rec.enabled() {
        rec.counter("manager.rebalances", 1);
        if d.applied {
            rec.counter("manager.migrations_applied", 1);
        } else if d.moved > 0 {
            rec.counter("manager.migrations_gated", 1);
        }
        rec.event(
            "rebalance",
            &[
                ("tick", tick.into()),
                ("applied", d.applied.into()),
                ("moved", d.moved.into()),
                ("cost_usd", d.cost_usd.into()),
            ],
        );
    }
    Ok(())
}

/// The placement a peer-to-peer gossip solve over the live candidates
/// converges to on the current tick's true matrix and fault state; `None`
/// when no solve is possible (e.g. every candidate quarantined away).
fn decentralized_consensus<const D: usize, R: Recorder>(
    mgr: &ReplicaManager<D>,
    ctx: &TickCtx<'_, D>,
    rec: &R,
) -> Option<Vec<usize>> {
    let live = mgr.candidates();
    let k = mgr.placement().len().min(live.len());
    if k == 0 {
        return None;
    }
    // Demand the protocol shards: reachability as weights over the full
    // client list, so the cost-table rows stay stable across fault states.
    let weight = |&c: &usize| if ctx.reachable(c, ctx.tick) { 1.0 } else { 0.0 };
    let weights: Vec<f64> = ctx.clients.iter().map(weight).collect();
    let dcfg = DecentralConfig {
        quiet_rounds: 2,
        refine_round: 1,
        max_rounds: 24,
        jitter_sigma: 0.0,
        seed: ctx.cfg.seed ^ 0xDECE_0000 ^ ctx.tick as u64,
        ..DecentralConfig::new(k)
    };
    let plan = FaultPlan::new(dcfg.seed);
    run_decentralized_with(ctx.matrix, live, ctx.clients, &weights, &dcfg, plan, rec)
        .ok()
        .map(|report| report.placement)
}

/// Chooses fault targets from the pre-fault placement. The coordinator is
/// never a target — it is the observer whose verdicts drive the loop.
fn build_faults(
    kind: ScenarioKind,
    pre_fault_placement: &[usize],
    coordinator: usize,
    n: usize,
    p: u32,
) -> Faults {
    // Replica-hosting DCs other than the coordinator, largest first so
    // targets stay stable when the placement grows at the front.
    let mut targets: Vec<usize> = pre_fault_placement
        .iter()
        .copied()
        .filter(|&r| r != coordinator)
        .collect();
    targets.sort_unstable_by(|a, b| b.cmp(a));
    let primary = targets.first().copied().unwrap_or(n - 1);
    let secondary = targets.get(1).copied().unwrap_or(n - 2);
    let empty = Faults {
        crashes: Vec::new(),
        partition_a: Vec::new(),
        lossy: Vec::new(),
        surges: Vec::new(),
    };
    match kind {
        ScenarioKind::SingleDcCrash => Faults {
            crashes: vec![(primary, p, 2 * p)],
            ..empty
        },
        ScenarioKind::FlappingLink => Faults {
            lossy: vec![(primary, secondary, 0.5)],
            ..empty
        },
        ScenarioKind::Partition5050 => Faults {
            // The coordinator's side is the lower half.
            partition_a: (0..n / 2).collect(),
            ..empty
        },
        ScenarioKind::RegionalLatencySurge => Faults {
            surges: vec![((n / 2..n).collect(), 3.0)],
            ..empty
        },
        ScenarioKind::RollingRecovery => Faults {
            // Overlapping windows: primary dies first and recovers while
            // secondary is still dark.
            crashes: vec![(primary, p, p + (3 * p) / 4), (secondary, p + p / 4, 2 * p)],
            ..empty
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::topology::{Topology, TopologyConfig};

    fn matrix(n: usize) -> RttMatrix {
        Topology::generate(TopologyConfig {
            nodes: n,
            seed: 7,
            ..Default::default()
        })
        .expect("topology generates for n ≥ 2")
        .into_matrix()
    }

    fn quick_cfg() -> ScenarioConfig {
        ScenarioConfig {
            phase_ticks: 4,
            embed_duration: SimDuration::from_secs(20.0),
            detect_duration: SimDuration::from_secs(25.0),
            rebalance_every: 2,
            ..Default::default()
        }
    }

    #[test]
    fn single_crash_detects_fails_over_and_recovers() {
        let m = matrix(24);
        let report = run_scenario(&m, ScenarioKind::SingleDcCrash, quick_cfg()).unwrap();
        assert!(
            report
                .trace
                .iter()
                .any(|e| matches!(e, TraceEvent::ReplicaFailed { .. })),
            "the crashed replica must be evicted: {:?}",
            report.trace
        );
        assert!(
            report
                .trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Restored { .. })),
            "the healed DC must return: {:?}",
            report.trace
        );
        assert!(report.replacements >= 1, "failover must re-place");
        assert!(report.messages_dropped > 0);
        assert_eq!(report.timeline.len(), 12);
        // The degradation loop scored the survivors through the cost tables.
        assert!(report.trace.iter().any(|e| matches!(
            e,
            TraceEvent::Detected {
                degraded_ms: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn flapping_link_retries_without_failover() {
        let m = matrix(24);
        let report = run_scenario(&m, ScenarioKind::FlappingLink, quick_cfg()).unwrap();
        assert!(report.messages_dropped > 0, "the lossy link must drop");
        assert!(
            !report
                .trace
                .iter()
                .any(|e| matches!(e, TraceEvent::ReplicaFailed { .. })),
            "loss alone must not evict a replica: {:?}",
            report.trace
        );
    }

    /// Same inputs twice, same report, in the reactive mode and in the
    /// decentralized one.
    #[test]
    fn scenario_is_deterministic_and_thread_count_invariant() {
        let m = matrix(24);
        let run = |mode| {
            let cfg = ScenarioConfig {
                mode,
                ..quick_cfg()
            };
            run_scenario(&m, ScenarioKind::SingleDcCrash, cfg).unwrap()
        };
        for mode in [PlacementMode::Reactive, PlacementMode::Decentralized] {
            assert_eq!(run(mode), run(mode), "{mode:?}");
        }
    }

    /// The gossip-solved mode still evicts the crashed replica, and a
    /// second run with the same inputs gives the identical report.
    #[test]
    fn decentralized_mode_survives_a_crash_and_stays_thread_invariant() {
        let m = matrix(24);
        let cfg = ScenarioConfig {
            mode: PlacementMode::Decentralized,
            ..quick_cfg()
        };
        let base = run_scenario(&m, ScenarioKind::SingleDcCrash, cfg).unwrap();
        assert_eq!(base.timeline.len(), 12);
        assert!(
            base.trace
                .iter()
                .any(|e| matches!(e, TraceEvent::ReplicaFailed { .. })),
            "the crashed replica must still be evicted: {:?}",
            base.trace
        );
        assert!(
            base.trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Rebalance { .. })),
            "gossip-solved rebalances must appear in the trace"
        );
        let again = run_scenario(&m, ScenarioKind::SingleDcCrash, cfg).unwrap();
        assert_eq!(again, base);
    }

    #[test]
    fn too_small_inputs_rejected() {
        let m = matrix(12);
        assert!(matches!(
            run_scenario(
                &m,
                ScenarioKind::SingleDcCrash,
                ScenarioConfig {
                    k: 1,
                    ..quick_cfg()
                }
            ),
            Err(ScenarioError::Setup(_))
        ));
    }

    fn rejected_at_setup(cfg: ScenarioConfig) -> bool {
        matches!(
            run_scenario(&matrix(12), ScenarioKind::SingleDcCrash, cfg),
            Err(ScenarioError::Setup(_))
        )
    }

    #[test]
    fn phase_ticks_whose_run_length_overflows_are_rejected() {
        let cfg = ScenarioConfig {
            phase_ticks: 0x6000_0000,
            ..quick_cfg()
        };
        assert!(rejected_at_setup(cfg));
    }

    #[test]
    fn zero_gossip_durations_are_rejected() {
        for cfg in [
            ScenarioConfig {
                embed_duration: SimDuration::ZERO,
                ..quick_cfg()
            },
            ScenarioConfig {
                detect_duration: SimDuration::ZERO,
                ..quick_cfg()
            },
        ] {
            assert!(rejected_at_setup(cfg), "{cfg:?}");
        }
    }

    #[test]
    fn a_tick_whose_run_overflows_the_clock_is_rejected() {
        let cfg = ScenarioConfig {
            tick: SimDuration::from_micros(u64::MAX / 4),
            ..quick_cfg()
        };
        assert!(rejected_at_setup(cfg));
    }
}
