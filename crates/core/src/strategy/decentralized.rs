//! Coordinator-free placement: gossip-native facility location.
//!
//! Every other strategy in this crate funnels demand to one solver — the
//! last single point of failure and scale in the pipeline. This module
//! removes it. Each candidate data center runs the *same* protocol node on
//! the discrete-event simulator:
//!
//! 1. **Shard summaries.** Demand is sharded by proximity: every client row
//!    belongs to the candidate that serves it cheapest. Each DC publishes a
//!    summary of its shard into a staleness-versioned view
//!    ([`georep_net::sim::VersionedView`]) — first a coarse single-point
//!    version, then (a couple of rounds in) the refined per-client version,
//!    so stale entries demonstrably get superseded in flight.
//! 2. **Anti-entropy gossip.** On a seeded per-node cadence each DC picks
//!    `fanout` random peers and sends its version-vector digest. A peer
//!    replies with exactly the entries the digest shows missing or stale,
//!    plus its own digest; the originator pushes back whatever the peer
//!    lacked. Merges are max-version-wins, so they are commutative,
//!    associative and idempotent — the gossip *schedule* cannot change what
//!    a view converges to, only when.
//! 3. **Local improvement.** After any view delta a node re-derives its
//!    placement with the shared scoring machinery ([`CostTable`] /
//!    [`IncrementalEval`]) and the same open-and-swap search as
//!    [`super::swap::SwapLocalSearch`]: greedy open steps to `k` replicas,
//!    then per-position best-improvement swap passes (each swap closes one
//!    replica and opens another) to a local optimum. The solve is a pure
//!    function of the view, so two nodes with the same view always hold the
//!    same placement.
//! 4. **Quiescence.** A node that has seen no view delta and accepted no
//!    move for `quiet_rounds` consecutive rounds — and whose view is
//!    complete at the refined version — declares convergence and stops
//!    initiating gossip (it keeps answering digests, which is what lets a
//!    node stranded behind a healed partition still catch up).
//!
//! Crashes and partitions injected through [`FaultPlan`] drop messages but
//! never corrupt state: convergence stalls until the fault window closes,
//! then completes to the *same* placement a fault-free run reaches.
//! `tests/decentralized_equivalence.rs` pins all of this differentially
//! against the central solver across the five topology families.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use georep_net::rtt::RttMatrix;
use georep_net::sim::{
    FaultPlan, Network, NodeId, Process, ProcessCtx, ProcessNet, SimDuration, VersionedView,
};

use crate::hash::{fnv1a, mix64, splitmix64_next, FNV_OFFSET};
use crate::objective::{CostTable, IncrementalEval, MatrixDelay, WeightedCosts};
use crate::strategy::greedy::open_then_swap;
use crate::strategy::PlaceError;
use crate::telemetry::{NullRecorder, Recorder};

/// The round-cadence timer of every protocol node.
const TIMER_ROUND: u64 = 1;
/// Version a refined (per-client) shard summary is published at; the
/// coarse bootstrap summary is version 1.
const FINE_VERSION: u64 = 2;

/// One DC's shard of the demand: `(client row, weight)` pairs, row-sorted.
type ShardSummary = Vec<(u32, f64)>;

/// Gossip payloads of the placement protocol.
#[derive(Debug, Clone, PartialEq)]
enum PlaceMsg {
    /// Round fanout: the sender's version vector.
    Digest { versions: Vec<u64> },
    /// Push-pull reply to a digest: the entries the digest lacked, plus the
    /// responder's own version vector so the originator can push back.
    Sync {
        entries: Vec<(u32, u64, ShardSummary)>,
        versions: Vec<u64>,
    },
    /// Terminal push of entries the `Sync` sender was missing.
    Fill {
        entries: Vec<(u32, u64, ShardSummary)>,
    },
}

/// Accounted wire size of a message, bytes: an 8-byte frame header, 8 bytes
/// per digest slot, and per shard entry a 16-byte `(origin, version)`
/// header plus 12 bytes per `(client, weight)` pair.
fn wire_bytes(msg: &PlaceMsg) -> u64 {
    let entries_bytes = |entries: &[(u32, u64, ShardSummary)]| -> u64 {
        entries
            .iter()
            .map(|(_, _, s)| 16 + 12 * s.len() as u64)
            .sum()
    };
    match msg {
        PlaceMsg::Digest { versions } => 8 + 8 * versions.len() as u64,
        PlaceMsg::Sync { entries, versions } => {
            8 + 8 * versions.len() as u64 + entries_bytes(entries)
        }
        PlaceMsg::Fill { entries } => 8 + entries_bytes(entries),
    }
}

/// Tuning of a decentralized placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecentralConfig {
    /// Degree of replication.
    pub k: usize,
    /// Peers contacted per gossip round.
    pub fanout: usize,
    /// Gossip round cadence per node.
    pub round_interval: SimDuration,
    /// Consecutive rounds without a view delta or an accepted move before
    /// a (complete-view) node declares convergence — the K of the
    /// quiescence rule.
    pub quiet_rounds: u32,
    /// Round at which each node supersedes its coarse bootstrap summary
    /// with the refined per-client version.
    pub refine_round: u32,
    /// Hard per-node round budget; a node that exhausts it without
    /// converging gives up (the run reports `converged: false`).
    pub max_rounds: u32,
    /// Master seed: per-node peer selection and network jitter/loss draws.
    pub seed: u64,
    /// Seed of the per-node round phase offsets. Two runs differing only
    /// here execute permutations of the same logical gossip rounds — and
    /// must reach the identical placement. `0` derives it from `seed`.
    pub stagger_seed: u64,
    /// Per-message latency jitter σ (fraction of RTT), seeded.
    pub jitter_sigma: f64,
}

impl DecentralConfig {
    /// Defaults for `k` replicas.
    pub fn new(k: usize) -> Self {
        DecentralConfig {
            k,
            fanout: 2,
            round_interval: SimDuration::from_ms(250.0),
            quiet_rounds: 3,
            refine_round: 2,
            max_rounds: 64,
            seed: 0xDECE_7124,
            stagger_seed: 0,
            jitter_sigma: 0.05,
        }
    }
}

/// Panics on configurations that cannot drive the protocol at all —
/// programmer errors, not data errors.
fn check_config(cfg: &DecentralConfig) {
    assert!(cfg.fanout >= 1, "fanout must be at least 1");
    assert!(cfg.quiet_rounds >= 1, "quiescence needs at least one round");
    assert!(cfg.refine_round >= 1, "refinement round must be positive");
    assert!(
        u64::from(cfg.max_rounds) > u64::from(cfg.refine_round) + u64::from(cfg.quiet_rounds),
        "round budget too small to ever reach quiescence"
    );
    assert!(
        cfg.round_interval > SimDuration::ZERO,
        "round interval must be positive"
    );
}

/// The input validation [`run_decentralized_with`] and
/// [`central_placement`] share, over a matrix of `n` nodes.
fn check_inputs(
    n: usize,
    candidates: &[usize],
    clients: &[usize],
    weights: &[f64],
    k: usize,
) -> Result<(), PlaceError> {
    let m = candidates.len();
    if m == 0 || candidates.iter().any(|&c| c >= n) {
        return Err(PlaceError::MissingData(
            "a non-empty in-range candidate set",
        ));
    }
    if (1..m).any(|i| candidates[..i].contains(&candidates[i])) {
        return Err(PlaceError::MissingData("distinct candidate sites"));
    }
    if clients.is_empty() || clients.iter().any(|&c| c >= n) {
        return Err(PlaceError::MissingData("a non-empty in-range client set"));
    }
    if weights.len() != clients.len() {
        return Err(PlaceError::MissingData("one weight per client"));
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(PlaceError::MissingData("finite non-negative weights"));
    }
    if k == 0 {
        return Err(PlaceError::ZeroK);
    }
    if k > m {
        return Err(PlaceError::KTooLarge { k, candidates: m });
    }
    Ok(())
}

/// Per-node gossip/solver tallies, summed into the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeTally {
    digests: u64,
    syncs: u64,
    fills: u64,
    bytes: u64,
    deltas: u64,
    moves: u64,
}

/// One candidate DC's protocol state.
struct PlaceNode {
    slot: usize,
    cfg: DecentralConfig,
    first_offset: SimDuration,
    rng_state: u64,
    table: Arc<CostTable>,
    view: VersionedView<ShardSummary>,
    /// Own refined summary, published at `refine_round`.
    fine: ShardSummary,
    /// Per-row demand weights of the last re-solve, refilled in place.
    weights: Vec<f64>,
    /// The weighted cost slab every re-solve of the run refills in place.
    /// The simulator runs one handler at a time and a refill overwrites
    /// the whole slab, so sharing it carries nothing from one solve to the
    /// next: it only keeps one slab in host memory instead of one per node
    /// (64 candidates × 192 clients would otherwise hold 64 × 96 KiB).
    costs: Rc<RefCell<WeightedCosts>>,
    /// Current local placement, as candidate slots in commit order.
    placement_slots: Vec<usize>,
    round: u32,
    quiet: u32,
    /// A view delta (merge or own publish) happened since the last round.
    dirty: bool,
    converged_round: Option<u32>,
    tally: NodeTally,
}

impl PlaceNode {
    fn rand(&mut self) -> u64 {
        splitmix64_next(&mut self.rng_state)
    }

    fn merge_entries(&mut self, entries: Vec<(u32, u64, ShardSummary)>) {
        for (origin, version, summary) in entries {
            if self.view.merge(origin as usize, version, summary) {
                self.dirty = true;
                self.tally.deltas += 1;
            }
        }
    }

    /// Re-derives the placement from the current view, refilling the
    /// weights and the cost slab in place; returns whether the placement
    /// moved.
    fn resolve(&mut self) -> bool {
        weights_from_view(&self.view, &mut self.weights);
        let next = {
            let mut costs = self.costs.borrow_mut();
            costs.refill(&self.table, &self.weights);
            local_solve(&self.table, &costs, self.cfg.k)
        };
        let moved = next != self.placement_slots;
        if moved {
            self.placement_slots = next;
            self.tally.moves += 1;
        }
        moved
    }

    fn send_accounted(&mut self, to: NodeId, msg: PlaceMsg, ctx: &mut ProcessCtx<PlaceMsg>) {
        self.tally.bytes += wire_bytes(&msg);
        match &msg {
            PlaceMsg::Digest { .. } => self.tally.digests += 1,
            PlaceMsg::Sync { .. } => self.tally.syncs += 1,
            PlaceMsg::Fill { .. } => self.tally.fills += 1,
        }
        ctx.send(to, msg);
    }
}

impl Process<PlaceMsg> for PlaceNode {
    fn on_start(&mut self, ctx: &mut ProcessCtx<PlaceMsg>) {
        // The coarse bootstrap summary is already in the view (version 1,
        // installed at construction); just stagger the first round.
        ctx.set_timer(self.first_offset, TIMER_ROUND);
    }

    fn on_message(&mut self, from: NodeId, msg: PlaceMsg, ctx: &mut ProcessCtx<PlaceMsg>) {
        match msg {
            PlaceMsg::Digest { versions } => {
                // Push-pull: ship what the sender lacks, reflect our own
                // digest so the sender can push back what we lack. The
                // reply is unconditional — a quiescent responder still
                // serves a stale requester.
                let entries: Vec<(u32, u64, ShardSummary)> = self
                    .view
                    .newer_than(&versions)
                    .into_iter()
                    .map(|(origin, version, entry)| (origin as u32, version, entry.clone()))
                    .collect();
                let reply = PlaceMsg::Sync {
                    entries,
                    versions: self.view.digest(),
                };
                self.send_accounted(from, reply, ctx);
            }
            PlaceMsg::Sync { entries, versions } => {
                self.merge_entries(entries);
                let back: Vec<(u32, u64, ShardSummary)> = self
                    .view
                    .newer_than(&versions)
                    .into_iter()
                    .map(|(origin, version, entry)| (origin as u32, version, entry.clone()))
                    .collect();
                if !back.is_empty() {
                    self.send_accounted(from, PlaceMsg::Fill { entries: back }, ctx);
                }
            }
            PlaceMsg::Fill { entries } => self.merge_entries(entries),
        }
    }

    fn on_timer(&mut self, id: u64, ctx: &mut ProcessCtx<PlaceMsg>) {
        debug_assert_eq!(id, TIMER_ROUND, "unknown timer {id}");
        self.round += 1;
        if self.round == self.cfg.refine_round {
            let version = self.view.publish(self.slot, self.fine.clone());
            debug_assert_eq!(version, FINE_VERSION);
            self.dirty = true;
        }

        // Local facility-location improvement: a full deterministic
        // re-solve whenever the view moved. Path-independence is the point:
        // the placement a node holds depends only on the view it holds,
        // never on the order deltas arrived in.
        let dirty = std::mem::take(&mut self.dirty);
        let moved = (dirty || self.placement_slots.is_empty()) && self.resolve();

        // Quiescence rule: K consecutive rounds with no view delta and no
        // accepted move — plus a complete refined view, so a node isolated
        // by a partition keeps gossiping instead of settling on half the
        // demand.
        if !dirty && !moved {
            self.quiet += 1;
        } else {
            self.quiet = 0;
        }
        if self.quiet >= self.cfg.quiet_rounds && self.view.is_complete_at(FINE_VERSION) {
            self.converged_round = Some(self.round);
            return;
        }
        if self.round >= self.cfg.max_rounds {
            return;
        }

        // Seeded fanout: up to `fanout` distinct peers this round.
        let m = self.view.origins();
        if m > 1 {
            let digest = self.view.digest();
            let mut peers: Vec<usize> = Vec::with_capacity(self.cfg.fanout);
            let wanted = self.cfg.fanout.min(m - 1);
            while peers.len() < wanted {
                let peer = (self.rand() % m as u64) as usize;
                if peer != self.slot && !peers.contains(&peer) {
                    peers.push(peer);
                }
            }
            for peer in peers {
                self.send_accounted(
                    peer,
                    PlaceMsg::Digest {
                        versions: digest.clone(),
                    },
                    ctx,
                );
            }
        }
        ctx.set_timer(self.cfg.round_interval, TIMER_ROUND);
    }
}

/// Writes the per-client demand weights a view implies into `weights`,
/// keeping its length: every known shard contributes its pairs. Shards
/// partition the client rows, so each row receives at most one
/// contribution per origin and the sum order cannot matter.
fn weights_from_view(view: &VersionedView<ShardSummary>, weights: &mut [f64]) {
    weights.fill(0.0);
    for origin in 0..view.origins() {
        if let Some(shard) = view.entry(origin) {
            for &(row, w) in shard {
                weights[row as usize] += w;
            }
        }
    }
}

/// The deterministic local solver every node runs — the same open-and-swap
/// search as [`super::swap::SwapLocalSearch`]: greedy open steps to `k`,
/// then per-position best-improvement swap passes (ties to the first
/// candidate in scan order) until a pass improves nothing. A pure function
/// of `(table, costs, k)` — the bedrock of cross-node agreement.
fn local_solve(table: &CostTable, costs: &WeightedCosts, k: usize) -> Vec<usize> {
    let mut eval = IncrementalEval::with_costs(table, costs);
    open_then_swap(&mut eval, k);
    eval.slots().to_vec()
}

/// The full, comparable outcome of one decentralized run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecentralReport {
    /// The consensus placement (node ids, sorted) — every node's final
    /// placement when `agreement` holds; node 0's otherwise.
    pub placement: Vec<usize>,
    /// Every node declared quiescence within its round budget.
    pub converged: bool,
    /// All nodes hold bit-identical final placements.
    pub agreement: bool,
    /// Rounds to convergence: the last node's quiescence round
    /// (`max_rounds` when the run did not converge).
    pub rounds: u32,
    /// Objective total of the consensus placement (weighted delay, ms).
    pub decentral_delay_ms: f64,
    /// Objective total of the central solver
    /// ([`super::swap::SwapLocalSearch`]'s search on the full demand) — the
    /// differential baseline.
    pub central_delay_ms: f64,
    /// `(decentral − central) / central`; `0` when central is zero.
    pub gap: f64,
    /// Wire bytes of every gossip message put on the network.
    pub bytes_gossiped: u64,
    /// Digest messages sent.
    pub digests_sent: u64,
    /// Push-pull sync replies sent.
    pub syncs_sent: u64,
    /// Terminal fill pushes sent.
    pub fills_sent: u64,
    /// View deltas accepted across all nodes (staleness-versioned merges).
    pub view_deltas: u64,
    /// Accepted local placement moves across all nodes.
    pub local_moves: u64,
    /// Objective total of each node's own final placement, in slot order.
    pub node_delays_ms: Vec<f64>,
    /// Messages the simulator delivered.
    pub messages_delivered: u64,
    /// Messages dropped by the fault plan.
    pub messages_dropped: u64,
    /// Engine events executed.
    pub events_executed: u64,
    /// FNV-1a fingerprint of every node's final placement and quiescence
    /// round — the compact cross-run / cross-schedule identity.
    pub fingerprint: u64,
}

/// Runs decentralized placement with every matrix node as a unit-weight
/// client and no injected faults.
///
/// # Errors
///
/// See [`run_decentralized_with`].
pub fn run_decentralized(
    matrix: &RttMatrix,
    candidates: &[usize],
    cfg: &DecentralConfig,
) -> Result<DecentralReport, PlaceError> {
    let clients: Vec<usize> = (0..matrix.len()).collect();
    let weights = vec![1.0; clients.len()];
    run_decentralized_with(
        matrix,
        candidates,
        &clients,
        &weights,
        cfg,
        FaultPlan::new(cfg.seed),
        &NullRecorder,
    )
}

/// Runs the full protocol: shard the demand, gossip summaries to
/// convergence under `plan`, and score the outcome against the central
/// solver. The fault plan is expressed over *candidate slots* (the
/// protocol's network nodes), not raw matrix ids.
///
/// Every recorder call is a read-only side channel over values the run
/// computes anyway, so the report is bit-identical whichever recorder is
/// installed.
///
/// # Errors
///
/// [`PlaceError::ZeroK`] / [`PlaceError::KTooLarge`] on an unusable `k`;
/// [`PlaceError::MissingData`] when candidates or clients are empty or out
/// of range, candidates repeat, or weights are misaligned, negative or
/// non-finite.
pub fn run_decentralized_with<R: Recorder>(
    matrix: &RttMatrix,
    candidates: &[usize],
    clients: &[usize],
    weights: &[f64],
    cfg: &DecentralConfig,
    plan: FaultPlan,
    rec: &R,
) -> Result<DecentralReport, PlaceError> {
    let _span = crate::span!("decentral.run");
    check_config(cfg);
    let n = matrix.len();
    let m = candidates.len();
    check_inputs(n, candidates, clients, weights, cfg.k)?;

    let oracle = MatrixDelay::new(matrix, clients);
    let table = Arc::new(CostTable::from_oracle(
        &oracle,
        candidates,
        n,
        clients.len(),
    ));

    // Shard the demand by proximity: each client row belongs to the
    // candidate slot serving it cheapest (ties to the lowest slot).
    let mut fine: Vec<ShardSummary> = vec![Vec::new(); m];
    for (row, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        let mut owner = 0usize;
        let mut best = f64::INFINITY;
        for slot in 0..m {
            let d = table.delay(slot, row);
            if d < best {
                best = d;
                owner = slot;
            }
        }
        fine[owner].push((row as u32, w));
    }
    // Coarse bootstrap: the whole shard collapsed onto its heaviest row
    // (ties to the lowest row) — deliberately lossy, so the refined
    // version 2 has something real to supersede.
    let coarse: Vec<ShardSummary> = fine
        .iter()
        .map(|shard| {
            shard
                .iter()
                .copied()
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(anchor, _)| {
                    let total: f64 = shard.iter().map(|&(_, w)| w).sum();
                    vec![(anchor, total)]
                })
                .unwrap_or_default()
        })
        .collect();

    let stagger_salt = if cfg.stagger_seed == 0 {
        cfg.seed ^ 0x51A6_6E5A
    } else {
        cfg.stagger_seed
    };
    let interval_micros = cfg.round_interval.as_micros().max(1);
    let costs = Rc::new(RefCell::new(WeightedCosts::empty()));
    let nodes: Vec<PlaceNode> = (0..m)
        .map(|slot| {
            let mut view = VersionedView::new(m);
            view.publish(slot, coarse[slot].clone());
            let mix = mix64(stagger_salt ^ (slot as u64).wrapping_mul(0x9E3779B97F4A7C15));
            PlaceNode {
                slot,
                cfg: *cfg,
                first_offset: SimDuration::from_micros(1 + mix % interval_micros),
                rng_state: cfg.seed ^ (slot as u64).wrapping_mul(0xD1B54A32D192ED03),
                table: Arc::clone(&table),
                view,
                fine: fine[slot].clone(),
                weights: vec![0.0; clients.len()],
                costs: Rc::clone(&costs),
                placement_slots: Vec::new(),
                round: 0,
                quiet: 0,
                dirty: true,
                converged_round: None,
                tally: NodeTally::default(),
            }
        })
        .collect();

    let cand_matrix = RttMatrix::from_fn(m, |i, j| matrix.get(candidates[i], candidates[j]))
        .map_err(|_| PlaceError::MissingData("a usable candidate sub-matrix"))?;
    let network = Network::with_faults(cand_matrix, cfg.jitter_sigma, cfg.seed ^ 0x6055, plan);
    let mut net = ProcessNet::new(network, nodes);
    // Quiescent nodes stop re-arming their round timer, so the queue
    // drains on its own; the event cap is a runaway backstop only.
    net.run_to_completion(Some(50_000_000));
    let stats = net.stats();
    let procs = net.into_processes();

    // Final per-node placements (slot form for scoring, sorted node ids
    // for reporting) and the convergence accounting.
    let placements: Vec<Vec<usize>> = procs.iter().map(|p| p.placement_slots.clone()).collect();
    let converged = procs.iter().all(|p| p.converged_round.is_some());
    let rounds = procs
        .iter()
        .map(|p| p.converged_round.unwrap_or(cfg.max_rounds))
        .max()
        .unwrap_or(0);
    let agreement = {
        let mut sorted: Vec<Vec<usize>> = placements
            .iter()
            .map(|slots| {
                let mut s: Vec<usize> = slots.iter().map(|&sl| table.site_of(sl)).collect();
                s.sort_unstable();
                s
            })
            .collect();
        let first = sorted.remove(0);
        let all_equal = sorted.iter().all(|p| *p == first);
        all_equal
    };

    // The differential baseline: the same open/swap machinery, run
    // centrally on the full demand.
    let central_slots = local_solve(&table, &WeightedCosts::new(&table, weights), cfg.k);
    let central_delay_ms = table.total_delay(weights, &central_slots);
    let decentral_delay_ms = table.total_delay(weights, &placements[0]);
    let gap = if central_delay_ms > 0.0 {
        (decentral_delay_ms - central_delay_ms) / central_delay_ms
    } else {
        0.0
    };

    let node_delays_ms: Vec<f64> = placements
        .iter()
        .map(|slots| table.total_delay(weights, slots))
        .collect();

    let mut placement: Vec<usize> = placements[0].iter().map(|&sl| table.site_of(sl)).collect();
    placement.sort_unstable();

    let mut tally = NodeTally::default();
    for p in &procs {
        tally.digests += p.tally.digests;
        tally.syncs += p.tally.syncs;
        tally.fills += p.tally.fills;
        tally.bytes += p.tally.bytes;
        tally.deltas += p.tally.deltas;
        tally.moves += p.tally.moves;
    }

    let mut fingerprint = FNV_OFFSET;
    for p in &procs {
        for &slot in &p.placement_slots {
            fingerprint = fnv1a(fingerprint, &(table.site_of(slot) as u64).to_le_bytes());
        }
        let converged = p.converged_round.unwrap_or(u32::MAX);
        fingerprint = fnv1a(fingerprint, &converged.to_le_bytes());
        fingerprint = fnv1a(fingerprint, &[0xFF]);
    }

    if rec.enabled() {
        rec.counter("decentral.runs", 1);
        rec.counter("decentral.rounds", rounds as u64);
        rec.counter("decentral.bytes_gossiped", tally.bytes);
        rec.counter("decentral.digests", tally.digests);
        rec.counter("decentral.syncs", tally.syncs);
        rec.counter("decentral.fills", tally.fills);
        rec.counter("decentral.view_deltas", tally.deltas);
        rec.counter("decentral.local_moves", tally.moves);
        rec.counter("decentral.messages_dropped", stats.messages_dropped);
        rec.observe("decentral.gap", gap);
        rec.event(
            "decentral.run",
            &[
                ("nodes", m.into()),
                ("k", cfg.k.into()),
                ("rounds", rounds.into()),
                ("converged", converged.into()),
                ("agreement", agreement.into()),
            ],
        );
    }

    Ok(DecentralReport {
        placement,
        converged,
        agreement,
        rounds,
        decentral_delay_ms,
        central_delay_ms,
        gap,
        bytes_gossiped: tally.bytes,
        digests_sent: tally.digests,
        syncs_sent: tally.syncs,
        fills_sent: tally.fills,
        view_deltas: tally.deltas,
        local_moves: tally.moves,
        node_delays_ms,
        messages_delivered: stats.messages_delivered,
        messages_dropped: stats.messages_dropped,
        events_executed: stats.events_executed,
        fingerprint,
    })
}

/// The central comparator on the same inputs, exposed so callers (the
/// differential suite, the repo benchmark's `decide_mesh` verification)
/// score gaps through exactly the machinery the protocol nodes run.
///
/// # Errors
///
/// Same validation as [`run_decentralized_with`].
pub fn central_placement(
    matrix: &RttMatrix,
    candidates: &[usize],
    clients: &[usize],
    weights: &[f64],
    k: usize,
) -> Result<(Vec<usize>, f64), PlaceError> {
    check_inputs(matrix.len(), candidates, clients, weights, k)?;
    let oracle = MatrixDelay::new(matrix, clients);
    let table = CostTable::from_oracle(&oracle, candidates, matrix.len(), clients.len());
    let slots = local_solve(&table, &WeightedCosts::new(&table, weights), k);
    let delay = table.total_delay(weights, &slots);
    let mut placement: Vec<usize> = slots.iter().map(|&sl| table.site_of(sl)).collect();
    placement.sort_unstable();
    Ok((placement, delay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::InMemoryRecorder;
    use georep_net::sim::SimTime;
    use georep_net::topology::{Topology, TopologyConfig};

    fn matrix(n: usize) -> RttMatrix {
        Topology::generate(TopologyConfig {
            nodes: n,
            seed: 11,
            ..Default::default()
        })
        .expect("topology generates")
        .into_matrix()
    }

    fn quick_cfg(k: usize) -> DecentralConfig {
        DecentralConfig {
            max_rounds: 48,
            ..DecentralConfig::new(k)
        }
    }

    #[test]
    fn converges_to_the_central_placement() {
        let m = matrix(24);
        let candidates: Vec<usize> = (0..24).step_by(3).collect();
        let report = run_decentralized(&m, &candidates, &quick_cfg(3)).unwrap();
        assert!(report.converged, "must converge: {report:?}");
        assert!(report.agreement, "nodes must agree: {report:?}");
        assert_eq!(report.gap, 0.0, "full view ⇒ exact central agreement");
        let clients: Vec<usize> = (0..24).collect();
        let weights = vec![1.0; 24];
        let (central, delay) = central_placement(&m, &candidates, &clients, &weights, 3).unwrap();
        assert_eq!(report.placement, central);
        assert_eq!(report.decentral_delay_ms, delay);
        assert!(report.bytes_gossiped > 0);
        assert!(report.rounds >= 1 && report.rounds < 48);
        assert!(report.view_deltas > 0, "summaries must propagate");
    }

    #[test]
    fn schedule_permutations_reach_the_same_placement() {
        let m = matrix(21);
        let candidates: Vec<usize> = (0..21).step_by(3).collect();
        let base = run_decentralized(&m, &candidates, &quick_cfg(3)).unwrap();
        for stagger in [1u64, 0xABCD, 0x1234_5678] {
            let cfg = DecentralConfig {
                stagger_seed: stagger,
                ..quick_cfg(3)
            };
            let run = run_decentralized(&m, &candidates, &cfg).unwrap();
            assert!(run.converged && run.agreement, "stagger={stagger:#x}");
            assert_eq!(run.placement, base.placement, "stagger={stagger:#x}");
            assert_eq!(run.decentral_delay_ms, base.decentral_delay_ms);
        }
    }

    /// The whole run is a pure function of its inputs: the same
    /// configuration twice gives the identical report.
    #[test]
    fn report_is_identical_across_thread_counts() {
        let m = matrix(24);
        let candidates: Vec<usize> = (0..24).step_by(2).collect();
        let base = run_decentralized(&m, &candidates, &quick_cfg(4)).unwrap();
        let again = run_decentralized(&m, &candidates, &quick_cfg(4)).unwrap();
        assert_eq!(again, base);
    }

    #[test]
    fn crash_window_stalls_but_does_not_corrupt() {
        let m = matrix(18);
        let candidates: Vec<usize> = (0..18).step_by(3).collect();
        let cfg = quick_cfg(2);
        let healthy = run_decentralized(&m, &candidates, &cfg).unwrap();
        // Slot 2 is dark for the first two seconds (≈ 8 rounds).
        let plan = FaultPlan::new(cfg.seed).crash(2, SimTime::ZERO, SimTime::from_ms(2_000.0));
        let clients: Vec<usize> = (0..18).collect();
        let weights = vec![1.0; 18];
        let faulted = run_decentralized_with(
            &m,
            &candidates,
            &clients,
            &weights,
            &cfg,
            plan,
            &NullRecorder,
        )
        .unwrap();
        assert!(faulted.converged, "must converge after the window closes");
        assert!(faulted.agreement);
        assert_eq!(faulted.placement, healthy.placement);
        assert!(faulted.messages_dropped > 0, "the crash must cost messages");
        assert!(
            faulted.rounds >= healthy.rounds,
            "the stall cannot speed convergence: {} vs {}",
            faulted.rounds,
            healthy.rounds
        );
    }

    #[test]
    fn recorder_does_not_perturb_the_report() {
        let m = matrix(15);
        let candidates: Vec<usize> = (0..15).step_by(3).collect();
        let clients: Vec<usize> = (0..15).collect();
        let weights = vec![1.0; 15];
        let cfg = quick_cfg(2);
        let silent = run_decentralized(&m, &candidates, &cfg).unwrap();
        let rec = InMemoryRecorder::new();
        let loud = run_decentralized_with(
            &m,
            &candidates,
            &clients,
            &weights,
            &cfg,
            FaultPlan::new(cfg.seed),
            &rec,
        )
        .unwrap();
        assert_eq!(loud, silent);
        assert_eq!(rec.counter_value("decentral.runs"), 1);
        assert_eq!(rec.counter_value("decentral.rounds"), silent.rounds as u64);
        assert_eq!(
            rec.counter_value("decentral.bytes_gossiped"),
            silent.bytes_gossiped
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let m = matrix(12);
        let clients: Vec<usize> = (0..12).collect();
        let weights = vec![1.0; 12];
        let run = |cands: &[usize], k: usize, w: &[f64]| {
            run_decentralized_with(
                &m,
                cands,
                &clients,
                w,
                &quick_cfg(k),
                FaultPlan::new(1),
                &NullRecorder,
            )
        };
        assert!(matches!(
            run(&[], 1, &weights),
            Err(PlaceError::MissingData(_))
        ));
        assert!(matches!(
            run(&[0, 0, 3], 1, &weights),
            Err(PlaceError::MissingData(_))
        ));
        assert!(matches!(
            run(&[0, 99], 1, &weights),
            Err(PlaceError::MissingData(_))
        ));
        assert!(matches!(run(&[0, 3], 0, &weights), Err(PlaceError::ZeroK)));
        assert!(matches!(
            run(&[0, 3], 3, &weights),
            Err(PlaceError::KTooLarge {
                k: 3,
                candidates: 2
            })
        ));
        assert!(matches!(
            run(&[0, 3], 1, &weights[..4]),
            Err(PlaceError::MissingData(_))
        ));
        let bad = vec![f64::NAN; 12];
        assert!(matches!(
            run(&[0, 3], 1, &bad),
            Err(PlaceError::MissingData(_))
        ));
        assert!(central_placement(&m, &[0, 0, 3], &clients, &weights, 2).is_err());
        assert!(central_placement(&m, &[0, 3], &clients, &bad, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "round budget")]
    fn a_refine_round_past_the_budget_is_rejected() {
        // `refine_round + quiet_rounds` overflows `u32`; the budget check
        // must still see a budget too small to ever refine.
        let cfg = DecentralConfig {
            refine_round: u32::MAX,
            ..quick_cfg(2)
        };
        let m = matrix(12);
        let candidates: Vec<usize> = (0..12).step_by(3).collect();
        let _ = run_decentralized(&m, &candidates, &cfg);
    }

    #[test]
    fn re_solves_refill_one_slab_in_place() {
        let m = matrix(18);
        let candidates: Vec<usize> = (0..18).step_by(2).collect();
        let clients: Vec<usize> = (0..18).collect();
        let oracle = MatrixDelay::new(&m, &clients);
        let table = Arc::new(CostTable::from_oracle(&oracle, &candidates, 18, 18));
        let shard = |slot: usize| -> ShardSummary {
            (0..18)
                .filter(|row| row % candidates.len() == slot)
                .map(|row| (row as u32, 1.0 + slot as f64))
                .collect()
        };
        let costs = Rc::new(RefCell::new(WeightedCosts::empty()));
        let mut nodes: Vec<PlaceNode> = (0..2)
            .map(|slot| {
                let mut view = VersionedView::new(candidates.len());
                view.publish(slot, shard(slot));
                PlaceNode {
                    slot,
                    cfg: quick_cfg(2),
                    first_offset: SimDuration::from_micros(1),
                    rng_state: 1,
                    table: Arc::clone(&table),
                    view,
                    fine: Vec::new(),
                    placement_slots: Vec::new(),
                    weights: vec![0.0; clients.len()],
                    costs: Rc::clone(&costs),
                    round: 0,
                    quiet: 0,
                    dirty: true,
                    converged_round: None,
                    tally: NodeTally::default(),
                }
            })
            .collect();
        let buffers = |nodes: &[PlaceNode]| {
            let slab = costs.borrow();
            (
                nodes.iter().map(|n| n.weights.as_ptr()).collect::<Vec<_>>(),
                slab.wcost().as_ptr(),
                slab.column_sums().as_ptr(),
            )
        };
        nodes[0].resolve();
        let first = buffers(&nodes);
        for slot in 2..candidates.len() {
            // Each re-solve sees one more shard, so the weights differ,
            // and the two nodes take turns with the slab.
            for node in &mut nodes {
                node.view.publish(slot, shard(slot));
                node.resolve();
                let central = WeightedCosts::new(&table, &node.weights);
                assert_eq!(node.placement_slots, local_solve(&table, &central, 2));
                assert_eq!(costs.borrow().wcost(), central.wcost());
                assert_eq!(costs.borrow().column_sums(), central.column_sums());
            }
            assert_eq!(buffers(&nodes), first, "re-solves must reuse their buffers");
        }
    }

    #[test]
    fn coarse_summaries_are_superseded_by_refined_ones() {
        // A skewed instance where the coarse (single-anchor) view and the
        // refined view disagree on the best placement: convergence must
        // land on the refined answer.
        let m = matrix(20);
        let candidates: Vec<usize> = (0..20).step_by(4).collect();
        let clients: Vec<usize> = (0..20).collect();
        let weights: Vec<f64> = (0..20).map(|i| 1.0 + (i % 7) as f64 * 3.0).collect();
        let cfg = quick_cfg(2);
        let report = run_decentralized_with(
            &m,
            &candidates,
            &clients,
            &weights,
            &cfg,
            FaultPlan::new(cfg.seed),
            &NullRecorder,
        )
        .unwrap();
        assert!(report.converged && report.agreement);
        let (central, delay) = central_placement(&m, &candidates, &clients, &weights, 2).unwrap();
        assert_eq!(report.placement, central);
        assert_eq!(report.decentral_delay_ms, delay);
        assert_eq!(report.gap, 0.0);
    }
}
