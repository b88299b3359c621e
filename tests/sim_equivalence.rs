//! Differential suite: the calendar-queue engine vs the reference heap.
//!
//! `georep_net::sim::engine` (the calendar queue) and
//! `georep_net::sim::reference` (the original `BinaryHeap` loop) promise the
//! exact same contract: events execute in strict `(timestamp, sequence
//! number)` order, cancellation is by handle, and a fault-injected
//! [`Network`] driven from event handlers sees the identical RNG stream.
//! Every test here runs the same schedule through both engines and demands
//! bit-identical results — execution order, timestamps, delivery logs and
//! [`DeliveryStats`] — so the fast engine can never silently drift from the
//! trusted oracle.

use georep_net::rtt::RttMatrix;
use georep_net::sim::reference::{
    Context as RefContext, EventId as RefEventId, Simulation as RefSimulation,
};
use georep_net::sim::{reference, Delivery, DeliveryStats, FaultPlan, Network};
use georep_net::sim::{Context, EventId, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// Runs a static schedule (all events known up front) through either
/// engine; the world logs `(timestamp_us, schedule_index)` per execution.
macro_rules! run_static {
    ($Sim:ty, $times:expr) => {{
        let mut sim = <$Sim>::new(Vec::<(u64, usize)>::new());
        for (i, &t) in $times.iter().enumerate() {
            sim.schedule_at(
                SimTime::from_micros(t),
                move |w: &mut Vec<(u64, usize)>, _| w.push((t, i)),
            );
        }
        sim.run_to_completion(None);
        (sim.now(), sim.executed(), sim.into_world())
    }};
}

/// Schedules every event, cancels those under `kill`, runs to completion.
/// Returns the per-cancel outcomes plus the execution log.
macro_rules! run_cancelled {
    ($Sim:ty, $times:expr, $kill:expr) => {{
        let mut sim = <$Sim>::new(Vec::<(u64, usize)>::new());
        let ids: Vec<_> = $times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                sim.schedule_at(
                    SimTime::from_micros(t),
                    move |w: &mut Vec<(u64, usize)>, _| w.push((t, i)),
                )
            })
            .collect();
        let mut outcomes = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if $kill[i % $kill.len()] {
                outcomes.push((sim.is_pending(*id), sim.cancel(*id), sim.cancel(*id)));
            }
        }
        sim.run_to_completion(None);
        (outcomes, sim.into_world())
    }};
}

/// Chained follow-ups: each seed event reschedules twice more, with delays
/// drawn from a per-chain LCG, exercising handler-time insertion in both
/// engines.
macro_rules! run_followups {
    ($Sim:ty, $seeds:expr) => {{
        let mut sim = <$Sim>::new(Vec::<u64>::new());
        for &(t0, mix) in $seeds.iter() {
            sim.schedule_at(SimTime::from_micros(t0), move |w: &mut Vec<u64>, ctx| {
                w.push(ctx.now().as_micros());
                let d1 = mix.wrapping_mul(6364136223846793005u64.wrapping_add(t0)) % 997 + 1;
                ctx.schedule_in(
                    SimDuration::from_micros(d1),
                    move |w: &mut Vec<u64>, ctx| {
                        w.push(ctx.now().as_micros());
                        let d2 = d1 * 31 % 497 + 1;
                        ctx.schedule_in(
                            SimDuration::from_micros(d2),
                            move |w: &mut Vec<u64>, ctx| w.push(ctx.now().as_micros()),
                        );
                    },
                );
            });
        }
        sim.run_to_completion(None);
        sim.into_world()
    }};
}

/// A world for the fault-window tests: messages submitted to a
/// fault-injected network from inside event handlers, arrivals logged.
struct NetWorld {
    net: Network,
    log: Vec<(u64, usize, usize)>,
}

fn grid_matrix(nodes: usize) -> RttMatrix {
    RttMatrix::from_fn(nodes, |i, j| {
        if i == j {
            0.0
        } else {
            ((i * 7 + j * 13) % 40 + 5) as f64
        }
    })
    .expect("valid matrix")
}

/// Drives `sends` (`(from, to, at_ms)`) through a fault-injected network in
/// either engine: the send-time handler asks the network for the message's
/// fate and schedules the arrival; arrivals log `(at_us, from, to)`.
macro_rules! run_deliveries {
    ($Sim:ty, $nodes:expr, $plan:expr, $sends:expr) => {
        run_deliveries!($Sim, $nodes, $plan, $sends, 0.2)
    };
    ($Sim:ty, $nodes:expr, $plan:expr, $sends:expr, $jitter:expr) => {{
        let net = Network::with_faults(grid_matrix($nodes), $jitter, 0xD15C, $plan);
        let mut sim = <$Sim>::new(NetWorld {
            net,
            log: Vec::new(),
        });
        for &(from, to, at) in $sends.iter() {
            sim.schedule_at(SimTime::from_ms(at as f64), move |w: &mut NetWorld, ctx| {
                if let Delivery::Deliver(d) = w.net.deliver(from, to, ctx.now()) {
                    ctx.schedule_in(d, move |w: &mut NetWorld, ctx| {
                        let now = ctx.now().as_micros();
                        w.log.push((now, from, to));
                    });
                }
            });
        }
        sim.run_to_completion(None);
        let w = sim.into_world();
        (w.log, w.net.stats())
    }};
}

/// A fault plan covering every window kind, derived deterministically from
/// proptest-chosen parameters. Both engines build their own copy from the
/// same parameters, so the plans are identical by construction.
fn build_plan(nodes: usize, seed: u64, loss: f64, w0: u64, w1: u64) -> FaultPlan {
    let side: Vec<usize> = (0..nodes / 2).collect();
    FaultPlan::new(seed)
        .with_default_loss(loss)
        .crash(
            seed as usize % nodes,
            SimTime::from_ms(w0 as f64),
            SimTime::from_ms((w0 + w1) as f64),
        )
        .partition(
            &side,
            SimTime::from_ms((w1 / 2) as f64),
            SimTime::from_ms((w1 / 2 + w0) as f64),
        )
        .latency_surge(
            &[(seed as usize + 1) % nodes],
            3.0,
            SimTime::ZERO,
            SimTime::from_ms(w0 as f64),
        )
}

#[test]
fn ties_break_by_sequence_number_in_both_engines() {
    // 60 events on three distinct timestamps: the execution order within a
    // timestamp must be the scheduling order, in both engines.
    let times: Vec<u64> = (0..60).map(|i| [500u64, 100, 500][i % 3]).collect();
    let (now_a, ran_a, log_a) = run_static!(Simulation<Vec<(u64, usize)>>, times);
    let (now_b, ran_b, log_b) = run_static!(reference::Simulation<Vec<(u64, usize)>>, times);
    assert_eq!(log_a, log_b);
    assert_eq!((now_a, ran_a), (now_b, ran_b));
    for w in log_a.windows(2) {
        assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        if w[0].0 == w[1].0 {
            assert!(w[0].1 < w[1].1, "tie broke FIFO: {w:?}");
        }
    }
}

#[test]
fn in_handler_cancellation_matches_the_reference() {
    macro_rules! run {
        ($Sim:ty) => {{
            let mut sim = <$Sim>::new(Vec::<u32>::new());
            let doomed = sim.schedule_at(SimTime::from_ms(50.0), |w: &mut Vec<u32>, _| w.push(99));
            sim.schedule_at(SimTime::from_ms(10.0), move |w: &mut Vec<u32>, ctx| {
                w.push(u32::from(ctx.cancel(doomed)));
                w.push(u32::from(ctx.cancel(doomed)));
                w.push(u32::from(ctx.is_pending(doomed)));
            });
            sim.run_to_completion(None);
            (sim.executed(), sim.into_world())
        }};
    }
    let a = run!(Simulation<Vec<u32>>);
    let b = run!(reference::Simulation<Vec<u32>>);
    assert_eq!(a, b);
    assert_eq!(a.1, vec![1, 0, 0]);
}

proptest! {
    /// Arbitrary static schedules — a narrow timestamp range forces heavy
    /// same-timestamp ties — execute identically in both engines.
    #[test]
    fn prop_static_schedules_execute_identically(
        times in prop::collection::vec(0u64..300, 1..250)
    ) {
        let (now_a, ran_a, log_a) = run_static!(Simulation<Vec<(u64, usize)>>, times);
        let (now_b, ran_b, log_b) =
            run_static!(reference::Simulation<Vec<(u64, usize)>>, times);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(now_a, now_b);
        prop_assert_eq!(ran_a, ran_b);
    }

    /// Cancelling an arbitrary subset produces the same cancel outcomes
    /// (first cancel true, double cancel false, pending flags) and the same
    /// surviving execution log.
    #[test]
    fn prop_cancellation_is_identical(
        times in prop::collection::vec(0u64..2_000, 1..150),
        kill in prop::collection::vec(any::<bool>(), 1..150),
    ) {
        let (out_a, log_a) = run_cancelled!(Simulation<Vec<(u64, usize)>>, times, kill);
        let (out_b, log_b) =
            run_cancelled!(reference::Simulation<Vec<(u64, usize)>>, times, kill);
        prop_assert_eq!(out_a, out_b);
        prop_assert_eq!(log_a, log_b);
    }

    /// Handler-scheduled follow-up chains land at identical instants.
    #[test]
    fn prop_followup_chains_are_identical(
        seeds in prop::collection::vec((0u64..5_000, 1u64..1_000), 1..60)
    ) {
        let log_a = run_followups!(Simulation<Vec<u64>>, seeds);
        let log_b = run_followups!(reference::Simulation<Vec<u64>>, seeds);
        prop_assert_eq!(log_a, log_b);
    }

    /// A fault-injected network driven from handlers: delivery order,
    /// arrival timestamps and the full [`DeliveryStats`] accounting match
    /// across engines (the jitter/loss RNG streams advance identically
    /// because the event orders do).
    #[test]
    fn prop_fault_plan_deliveries_are_identical(
        nodes in 4usize..8,
        seed in 0u64..1_000,
        loss in 0.0f64..0.4,
        w0 in 1u64..400,
        w1 in 1u64..400,
        sends_raw in prop::collection::vec((0usize..8, 0usize..8, 0u64..800), 1..120),
    ) {
        let sends: Vec<(usize, usize, u64)> = sends_raw
            .iter()
            .map(|&(f, t, at)| (f % nodes, t % nodes, at))
            .collect();
        let (log_a, stats_a) = run_deliveries!(
            Simulation<NetWorld>, nodes, build_plan(nodes, seed, loss, w0, w1), sends);
        let (log_b, stats_b) = run_deliveries!(
            reference::Simulation<NetWorld>, nodes, build_plan(nodes, seed, loss, w0, w1), sends);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(stats_a.sends(), sends.len() as u64);
    }

    /// Sharding one run's sends across two networks and merging the stats
    /// equals the unsharded accounting — on both engines.
    #[test]
    fn prop_delivery_stats_merge_is_engine_invariant(
        nodes in 4usize..8,
        seed in 0u64..1_000,
        sends_raw in prop::collection::vec((0usize..8, 0usize..8, 0u64..800), 2..100),
    ) {
        let sends: Vec<(usize, usize, u64)> = sends_raw
            .iter()
            .map(|&(f, t, at)| (f % nodes, t % nodes, at))
            .collect();
        // No loss windows and no jitter here: merged-vs-whole equality
        // needs each message's fate to be independent of the RNG position.
        let plan = || FaultPlan::new(seed).crash(
            seed as usize % nodes, SimTime::ZERO, SimTime::from_ms(200.0));
        let (half, rest) = sends.split_at(sends.len() / 2);
        let (_, whole_a) = run_deliveries!(Simulation<NetWorld>, nodes, plan(), sends, 0.0);
        let (_, whole_b) =
            run_deliveries!(reference::Simulation<NetWorld>, nodes, plan(), sends, 0.0);
        let mut merged = DeliveryStats::default();
        // Each shard re-sorts its own sends through its own engine run.
        let (_, s1) = run_deliveries!(Simulation<NetWorld>, nodes, plan(), half, 0.0);
        let (_, s2) = run_deliveries!(Simulation<NetWorld>, nodes, plan(), rest, 0.0);
        merged.merge(s1);
        merged += s2;
        prop_assert_eq!(whole_a, whole_b);
        prop_assert_eq!(merged.delivered, whole_a.delivered);
        prop_assert_eq!(merged.dropped(), whole_a.dropped());
        prop_assert_eq!(merged.sends(), whole_a.sends());
    }
}

/// A world for the gossip-round tests: per-node seeded peer-selection RNGs
/// plus a fault-injected network, with rumor and ack arrivals logged.
struct GossipWorld {
    net: Network,
    rng: Vec<u64>,
    log: Vec<(u64, u8, usize, usize)>,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Periodic gossip rounds in either engine: every node fires a round event
/// at the *same* instants (maximal same-timestamp ties), picks `fanout`
/// peers from its own RNG, and pushes a rumor through the fault-injected
/// network; each arrival chains an anti-entropy ack back to the sender.
/// This is the event shape `strategy::decentralized` runs on the process
/// layer, reproduced at the raw engine level.
macro_rules! run_gossip_rounds {
    ($Sim:ty, $nodes:expr, $plan:expr, $rounds:expr, $fanout:expr, $interval_ms:expr, $seed:expr) => {{
        let net = Network::with_faults(grid_matrix($nodes), 0.15, 0xD15C ^ $seed, $plan);
        let mut sim = <$Sim>::new(GossipWorld {
            net,
            rng: (0..$nodes as u64)
                .map(|i| $seed ^ i.wrapping_mul(0x9E3779B97F4A7C15))
                .collect(),
            log: Vec::new(),
        });
        let (nodes, fanout) = ($nodes, $fanout);
        for node in 0..nodes {
            for round in 0..$rounds {
                let at = SimTime::from_ms(($interval_ms * (round as u64 + 1)) as f64);
                sim.schedule_at(at, move |w: &mut GossipWorld, ctx| {
                    for _ in 0..fanout {
                        let peer = (lcg(&mut w.rng[node]) as usize) % nodes;
                        if peer == node {
                            continue;
                        }
                        if let Delivery::Deliver(d) = w.net.deliver(node, peer, ctx.now()) {
                            ctx.schedule_in(d, move |w: &mut GossipWorld, ctx| {
                                w.log.push((ctx.now().as_micros(), 0, node, peer));
                                if let Delivery::Deliver(back) =
                                    w.net.deliver(peer, node, ctx.now())
                                {
                                    ctx.schedule_in(back, move |w: &mut GossipWorld, ctx| {
                                        w.log.push((ctx.now().as_micros(), 1, peer, node));
                                    });
                                }
                            });
                        }
                    }
                });
            }
        }
        sim.run_to_completion(None);
        let w = sim.into_world();
        (w.log, w.net.stats())
    }};
}

#[test]
fn gossip_rounds_execute_identically_across_engines() {
    let plan = build_plan(6, 42, 0.1, 120, 150);
    let (log_a, stats_a) = run_gossip_rounds!(
        Simulation<GossipWorld>,
        6,
        plan.clone(),
        5u32,
        2usize,
        40u64,
        42u64
    );
    let (log_b, stats_b) = run_gossip_rounds!(
        reference::Simulation<GossipWorld>,
        6,
        plan,
        5u32,
        2usize,
        40u64,
        42u64
    );
    assert_eq!(log_a, log_b);
    assert_eq!(stats_a, stats_b);
    assert!(!log_a.is_empty(), "rounds must deliver something");
    assert!(
        log_a.windows(2).all(|w| w[0].0 <= w[1].0),
        "arrivals must log in timestamp order"
    );
    assert!(
        log_a.iter().any(|&(_, kind, _, _)| kind == 1),
        "acks must chain off arrivals"
    );
}

proptest! {
    /// Arbitrary gossip-round schedules — node count, round count, fanout,
    /// cadence, loss and fault windows all free — execute identically in
    /// the calendar-queue engine and the reference heap: same arrival log
    /// (rumors and chained acks), same delivery accounting.
    #[test]
    fn prop_gossip_rounds_are_engine_invariant(
        nodes in 3usize..8,
        rounds in 1u32..8,
        fanout in 1usize..4,
        interval in 5u64..120,
        seed in 0u64..1_000,
        loss in 0.0f64..0.3,
        w0 in 1u64..300,
        w1 in 1u64..300,
    ) {
        let (log_a, stats_a) = run_gossip_rounds!(
            Simulation<GossipWorld>,
            nodes, build_plan(nodes, seed, loss, w0, w1), rounds, fanout, interval, seed);
        let (log_b, stats_b) = run_gossip_rounds!(
            reference::Simulation<GossipWorld>,
            nodes, build_plan(nodes, seed, loss, w0, w1), rounds, fanout, interval, seed);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(stats_a, stats_b);
    }
}

/// The hold model in either engine: `pending` self-rescheduling chains,
/// each firing again a pseudo-random whole number of milliseconds (1 ms –
/// 1 s) ahead, so equal timestamps are common. Logs `(at_us, chain)` per
/// execution.
macro_rules! run_hold {
    ($Sim:ident, $Ctx:ident, $pending:expr, $pops:expr) => {{
        type W = (u64, Vec<(u64, u32)>);
        fn hold(chain: u32) -> impl FnOnce(&mut W, &mut $Ctx<W>) + 'static {
            move |w: &mut W, ctx: &mut $Ctx<W>| {
                w.1.push((ctx.now().as_micros(), chain));
                let ms = 1 + lcg(&mut w.0) % 1_000;
                ctx.schedule_in(SimDuration::from_ms(ms as f64), hold(chain));
            }
        }
        let mut sim = $Sim::new((0x5EED_u64, Vec::new()));
        for chain in 0..$pending {
            let first = SimDuration::from_micros(1 + u64::from(chain) * 977);
            sim.schedule_in(first, hold(chain));
        }
        let ran = sim.run_to_completion(Some($pops));
        (sim.now(), ran, sim.queued(), sim.into_world().1)
    }};
}

#[test]
fn low_occupancy_hold_models_execute_identically_across_engines() {
    // At most 1 024 pending: the occupancy the calendar's insert-side
    // rebuild never reaches, so the ring tunes only on fruitless rotations.
    for pending in [16u32, 256, 1_024] {
        let a = run_hold!(Simulation, Context, pending, 20_000);
        let b = run_hold!(RefSimulation, RefContext, pending, 20_000);
        assert_eq!(a, b, "{pending} pending");
        assert_eq!(a.1, 20_000);
        assert_eq!(a.2, pending as usize);
    }
}

/// One node's ping state in the gossip-shaped schedule, generic over the
/// engine's event handle.
struct PingWorld<Id> {
    rng: u64,
    nodes: usize,
    /// The most recently armed timeout of each node.
    timeout: Vec<Option<Id>>,
    /// `(at_us, kind, node, detail)`; kinds: 0 ping (detail = attempt),
    /// 1 reply, 2 reply's cancel of the timeout (detail = cancelled),
    /// 3 timeout fired (detail = attempt), 4 random cancel (detail =
    /// cancelled).
    log: Vec<(u64, u8, usize, u32)>,
}

/// The event shape gossip failure detection runs on, in either engine:
/// every node pings a random peer each 250 ms round, arms a per-ping
/// timeout that doubles with each retry, and a reply cancels the timeout;
/// a quarter of the pings are lost, and one round in eight also cancels a
/// random node's pending timeout.
macro_rules! run_pings {
    ($Sim:ident, $Ctx:ident, $Id:ident, $nodes:expr, $rounds:expr) => {{
        type W = PingWorld<$Id>;
        fn ping(w: &mut W, ctx: &mut $Ctx<W>, node: usize, attempt: u32) {
            let now = ctx.now().as_micros();
            w.log.push((now, 0, node, attempt));
            let peer = (node + 1 + lcg(&mut w.rng) as usize % (w.nodes - 1)) % w.nodes;
            if lcg(&mut w.rng) % 4 != 0 {
                let rtt_ms = 5 + (node * 7 + peer * 13) % 40;
                ctx.schedule_in(
                    SimDuration::from_ms(rtt_ms as f64),
                    move |w: &mut W, ctx: &mut $Ctx<W>| {
                        let now = ctx.now().as_micros();
                        w.log.push((now, 1, node, attempt));
                        if let Some(id) = w.timeout[node].take() {
                            w.log.push((now, 2, node, u32::from(ctx.cancel(id))));
                        }
                    },
                );
            }
            let id = ctx.schedule_in(
                SimDuration::from_ms(100.0 * f64::from(1u32 << attempt)),
                move |w: &mut W, ctx: &mut $Ctx<W>| {
                    w.log.push((ctx.now().as_micros(), 3, node, attempt));
                    if attempt < 3 {
                        ping(w, ctx, node, attempt + 1);
                    }
                },
            );
            w.timeout[node] = Some(id);
        }
        fn round(node: usize, left: u32) -> impl FnOnce(&mut W, &mut $Ctx<W>) + 'static {
            move |w: &mut W, ctx: &mut $Ctx<W>| {
                if left > 1 {
                    ctx.schedule_in(SimDuration::from_ms(250.0), round(node, left - 1));
                }
                ping(w, ctx, node, 0);
                if lcg(&mut w.rng) % 8 == 0 {
                    let victim = lcg(&mut w.rng) as usize % w.nodes;
                    if let Some(id) = w.timeout[victim] {
                        let cancelled = ctx.is_pending(id) && ctx.cancel(id);
                        let now = ctx.now().as_micros();
                        w.log.push((now, 4, victim, u32::from(cancelled)));
                    }
                }
            }
        }
        let nodes: usize = $nodes;
        let mut sim = $Sim::new(PingWorld {
            rng: 0x9E37_79B9,
            nodes,
            timeout: (0..nodes).map(|_| None).collect(),
            log: Vec::new(),
        });
        for node in 0..nodes {
            sim.schedule_at(SimTime::ZERO, round(node, $rounds));
        }
        sim.run_to_completion(None);
        (sim.now(), sim.executed(), sim.into_world().log)
    }};
}

#[test]
fn gossip_shaped_pings_with_timeouts_execute_identically_across_engines() {
    let a = run_pings!(Simulation, Context, EventId, 48, 40);
    let b = run_pings!(RefSimulation, RefContext, RefEventId, 48, 40);
    assert_eq!(a, b);
    let kinds = |k: u8| a.2.iter().filter(|e| e.1 == k).count();
    assert!(kinds(3) > 0, "some timeouts must fire");
    assert!(kinds(0) > 48 * 40, "fired timeouts must retry");
    assert!(
        a.2.iter().any(|e| e.1 == 2 && e.3 == 1),
        "replies must cancel pending timeouts"
    );
    assert!(
        a.2.iter().any(|e| e.1 == 4 && e.3 == 1),
        "random cancels must hit pending timeouts"
    );
}
