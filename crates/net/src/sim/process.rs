//! A typed message-passing layer over the event engine.
//!
//! The raw [`super::Simulation`] engine schedules closures; for
//! protocol simulations (such as running RNP gossip over the network, the
//! way the paper's simulator assigns coordinates) it is far more convenient
//! to model *nodes that exchange messages*. [`ProcessNet`] runs one
//! [`Process`] per node of an [`RttMatrix`](crate::rtt::RttMatrix)-backed
//! [`Network`]: messages are delivered after half an (optionally jittered)
//! RTT, timers fire locally, and every handler can read the clock, send
//! messages and arm timers through a [`ProcessCtx`]. Timers cannot be
//! disarmed: a protocol whose timeout was made moot (say, by the reply
//! arriving first) lets it fire and ignores it.

use super::engine::Simulation;
use super::network::Network;
use super::time::{SimDuration, SimTime};

/// Identifies a node in a [`ProcessNet`].
pub type NodeId = usize;

/// Actions a handler can request.
enum Action<M> {
    Send { to: NodeId, msg: M },
    Timer { delay: SimDuration, id: u64 },
}

/// Handle passed to [`Process`] handlers.
pub struct ProcessCtx<M> {
    now: SimTime,
    node: NodeId,
    actions: Vec<Action<M>>,
}

impl<M> ProcessCtx<M> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to`; it arrives after a one-way network delay.
    /// Sending to self delivers after a negligible local delay.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Arms a timer that fires on this node after `delay`, carrying `id`.
    pub fn set_timer(&mut self, delay: SimDuration, id: u64) {
        self.actions.push(Action::Timer { delay, id });
    }
}

/// A node-local protocol state machine.
///
/// All handlers are infallible by design: a distributed protocol must
/// tolerate whatever arrives, and the simulator mirrors that.
pub trait Process<M>: 'static {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut ProcessCtx<M>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut ProcessCtx<M>);

    /// Called when a timer armed with [`ProcessCtx::set_timer`] fires.
    fn on_timer(&mut self, id: u64, ctx: &mut ProcessCtx<M>) {
        let _ = (id, ctx);
    }
}

struct World<P, M> {
    procs: Vec<P>,
    network: Network,
    messages_delivered: u64,
    messages_dropped: u64,
    _marker: std::marker::PhantomData<M>,
}

/// Statistics of a finished (or paused) protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered so far.
    pub messages_delivered: u64,
    /// Messages dropped by the fault layer (zero without a fault plan).
    pub messages_dropped: u64,
    /// Events executed by the underlying engine.
    pub events_executed: u64,
}

/// A population of processes bound to a latency-realistic network.
///
/// # Example: ping-pong counting
///
/// ```
/// use georep_net::rtt::RttMatrix;
/// use georep_net::sim::process::{Process, ProcessCtx, ProcessNet};
/// use georep_net::sim::{Network, SimDuration, SimTime};
///
/// struct Pinger { got: u32 }
/// impl Process<&'static str> for Pinger {
///     fn on_start(&mut self, ctx: &mut ProcessCtx<&'static str>) {
///         if ctx.node() == 0 {
///             ctx.send(1, "ping");
///         }
///     }
///     fn on_message(&mut self, from: usize, msg: &'static str, ctx: &mut ProcessCtx<&'static str>) {
///         self.got += 1;
///         if msg == "ping" {
///             ctx.send(from, "pong");
///         }
///     }
/// }
///
/// let matrix = RttMatrix::from_fn(2, |_, _| 80.0)?;
/// let mut net = ProcessNet::new(Network::new(matrix), vec![
///     Pinger { got: 0 }, Pinger { got: 0 },
/// ]);
/// net.run_until(SimTime::from_ms(1_000.0));
/// assert_eq!(net.process(0).got, 1); // the pong, after a full RTT
/// assert_eq!(net.now(), SimTime::from_ms(1_000.0));
/// # Ok::<(), georep_net::rtt::RttError>(())
/// ```
pub struct ProcessNet<P: Process<M>, M: 'static> {
    sim: Simulation<World<P, M>>,
}

impl<P: Process<M>, M: 'static> ProcessNet<P, M> {
    /// Creates the population and runs every process's
    /// [`Process::on_start`] at `t = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the number of processes does not match the network size.
    pub fn new(network: Network, procs: Vec<P>) -> Self {
        assert_eq!(
            procs.len(),
            network.len(),
            "need exactly one process per network node"
        );
        let n = procs.len();
        let world = World {
            procs,
            network,
            messages_delivered: 0,
            messages_dropped: 0,
            _marker: std::marker::PhantomData,
        };
        let mut sim = Simulation::new(world);
        for node in 0..n {
            sim.schedule_at(SimTime::ZERO, move |w: &mut World<P, M>, ctx| {
                let mut pctx = ProcessCtx {
                    now: ctx.now(),
                    node,
                    actions: Vec::new(),
                };
                w.procs[node].on_start(&mut pctx);
                apply_actions(node, pctx, w, ctx);
            });
        }
        ProcessNet { sim }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Shared access to one process's state.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn process(&self, node: NodeId) -> &P {
        &self.sim.world().procs[node]
    }

    /// Iterates over all processes.
    pub fn processes(&self) -> impl Iterator<Item = &P> {
        self.sim.world().procs.iter()
    }

    /// Runs the protocol until `deadline` (events at the deadline run).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Runs until no events remain (careful: periodic protocols never
    /// drain; prefer [`ProcessNet::run_until`]). `max_events` bounds the
    /// run.
    pub fn run_to_completion(&mut self, max_events: Option<u64>) -> u64 {
        self.sim.run_to_completion(max_events)
    }

    /// Mutable access to the network (e.g. to swap the latency matrix mid
    /// simulation and watch the protocol re-converge).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.sim.world_mut().network
    }

    /// Delivery and engine statistics.
    pub fn stats(&self) -> NetStats {
        NetStats {
            messages_delivered: self.sim.world().messages_delivered,
            messages_dropped: self.sim.world().messages_dropped,
            events_executed: self.sim.executed(),
        }
    }

    /// Consumes the harness, returning the process states.
    pub fn into_processes(self) -> Vec<P> {
        self.sim.into_world().procs
    }
}

/// Translates the actions a handler queued into engine events.
fn apply_actions<P: Process<M>, M: 'static>(
    node: NodeId,
    pctx: ProcessCtx<M>,
    w: &mut World<P, M>,
    ctx: &mut super::engine::Context<World<P, M>>,
) {
    for action in pctx.actions {
        match action {
            Action::Send { to, msg } => {
                let delay = if to == node {
                    // Self-sends bypass the network — and the fault layer: a
                    // DC can always talk to itself.
                    SimDuration::from_micros(1)
                } else {
                    match w.network.deliver(node, to, ctx.now()) {
                        super::fault::Delivery::Deliver(d) => d,
                        super::fault::Delivery::Dropped(_) => {
                            w.messages_dropped += 1;
                            continue;
                        }
                    }
                };
                ctx.schedule_in(delay, move |w: &mut World<P, M>, ctx| {
                    w.messages_delivered += 1;
                    let mut pctx = ProcessCtx {
                        now: ctx.now(),
                        node: to,
                        actions: Vec::new(),
                    };
                    w.procs[to].on_message(node, msg, &mut pctx);
                    apply_actions(to, pctx, w, ctx);
                });
            }
            Action::Timer { delay, id } => {
                ctx.schedule_in(delay, move |w: &mut World<P, M>, ctx| {
                    let mut pctx = ProcessCtx {
                        now: ctx.now(),
                        node,
                        actions: Vec::new(),
                    };
                    w.procs[node].on_timer(id, &mut pctx);
                    apply_actions(node, pctx, w, ctx);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::RttMatrix;

    /// Every node floods a token once; everyone counts receipts.
    struct Flooder {
        received: u32,
        peers: usize,
    }

    #[derive(Clone)]
    struct Token;

    impl Process<Token> for Flooder {
        fn on_start(&mut self, ctx: &mut ProcessCtx<Token>) {
            for p in 0..self.peers {
                if p != ctx.node() {
                    ctx.send(p, Token);
                }
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Token, _ctx: &mut ProcessCtx<Token>) {
            self.received += 1;
        }
    }

    fn matrix(n: usize) -> RttMatrix {
        RttMatrix::from_fn(n, |i, j| 10.0 * (i + j) as f64 + 5.0).unwrap()
    }

    #[test]
    fn flood_reaches_everyone() {
        let n = 5;
        let procs: Vec<Flooder> = (0..n)
            .map(|_| Flooder {
                received: 0,
                peers: n,
            })
            .collect();
        let mut net = ProcessNet::new(Network::new(matrix(n)), procs);
        net.run_to_completion(None);
        for p in net.processes() {
            assert_eq!(p.received, (n - 1) as u32);
        }
        assert_eq!(net.stats().messages_delivered, (n * (n - 1)) as u64);
    }

    /// Request-response timing: the reply arrives exactly one RTT after the
    /// request was sent (no jitter configured).
    struct Echo {
        reply_at: Option<SimTime>,
    }

    #[derive(Clone)]
    enum EchoMsg {
        Request,
        Reply,
    }

    impl Process<EchoMsg> for Echo {
        fn on_start(&mut self, ctx: &mut ProcessCtx<EchoMsg>) {
            if ctx.node() == 0 {
                ctx.send(1, EchoMsg::Request);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: EchoMsg, ctx: &mut ProcessCtx<EchoMsg>) {
            match msg {
                EchoMsg::Request => ctx.send(from, EchoMsg::Reply),
                EchoMsg::Reply => self.reply_at = Some(ctx.now()),
            }
        }
    }

    #[test]
    fn round_trip_takes_one_rtt() {
        let m = RttMatrix::from_fn(2, |_, _| 120.0).unwrap();
        let procs = vec![Echo { reply_at: None }, Echo { reply_at: None }];
        let mut net = ProcessNet::new(Network::new(m), procs);
        net.run_to_completion(None);
        assert_eq!(net.process(0).reply_at, Some(SimTime::from_ms(120.0)));
    }

    /// Timers: a node reschedules itself and counts ticks.
    struct Ticker {
        ticks: u32,
    }

    impl Process<()> for Ticker {
        fn on_start(&mut self, ctx: &mut ProcessCtx<()>) {
            ctx.set_timer(SimDuration::from_ms(50.0), 1);
        }
        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut ProcessCtx<()>) {}
        fn on_timer(&mut self, id: u64, ctx: &mut ProcessCtx<()>) {
            assert_eq!(id, 1);
            self.ticks += 1;
            if self.ticks < 4 {
                ctx.set_timer(SimDuration::from_ms(50.0), 1);
            }
        }
    }

    #[test]
    fn timers_drive_periodic_behaviour() {
        let m = matrix(2);
        let mut net = ProcessNet::new(
            Network::new(m),
            vec![Ticker { ticks: 0 }, Ticker { ticks: 0 }],
        );
        net.run_to_completion(None);
        assert_eq!(net.process(0).ticks, 4);
        assert_eq!(net.now(), SimTime::from_ms(200.0));
    }

    #[test]
    fn self_sends_are_nearly_instant() {
        struct SelfSender {
            got_at: Option<SimTime>,
        }
        impl Process<u8> for SelfSender {
            fn on_start(&mut self, ctx: &mut ProcessCtx<u8>) {
                if ctx.node() == 0 {
                    ctx.send(0, 42);
                }
            }
            fn on_message(&mut self, from: NodeId, msg: u8, ctx: &mut ProcessCtx<u8>) {
                assert_eq!((from, msg), (0, 42));
                self.got_at = Some(ctx.now());
            }
        }
        let mut net = ProcessNet::new(
            Network::new(matrix(2)),
            vec![SelfSender { got_at: None }, SelfSender { got_at: None }],
        );
        net.run_to_completion(None);
        assert_eq!(net.process(0).got_at, Some(SimTime::from_micros(1)));
    }

    #[test]
    #[should_panic(expected = "one process per network node")]
    fn process_count_must_match() {
        let _ = ProcessNet::new(Network::new(matrix(3)), vec![Ticker { ticks: 0 }]);
    }

    #[test]
    fn fault_plan_drops_are_counted_not_delivered() {
        use super::super::fault::FaultPlan;
        use super::super::network::Network as Net;
        let n = 4;
        // Node 3 is dark for the whole run: every message to or from it is
        // dropped; the other 3 nodes flood normally.
        let plan = FaultPlan::new(9).crash(3, SimTime::ZERO, SimTime::from_ms(3_600_000.0));
        let procs: Vec<Flooder> = (0..n)
            .map(|_| Flooder {
                received: 0,
                peers: n,
            })
            .collect();
        let mut net = ProcessNet::new(Net::with_faults(matrix(n), 0.0, 0, plan), procs);
        net.run_to_completion(None);
        for (i, p) in net.processes().enumerate() {
            let expect = if i == 3 { 0 } else { (n - 2) as u32 };
            assert_eq!(p.received, expect, "node {i}");
        }
        let stats = net.stats();
        assert_eq!(stats.messages_delivered, (3 * 2) as u64);
        // 3 sends from node 3 + 3 sends to node 3.
        assert_eq!(stats.messages_dropped, 6);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let m = matrix(2);
        let mut net = ProcessNet::new(
            Network::new(m),
            vec![Ticker { ticks: 0 }, Ticker { ticks: 0 }],
        );
        net.run_until(SimTime::from_ms(120.0));
        assert_eq!(net.process(0).ticks, 2);
        net.run_until(SimTime::from_ms(1_000.0));
        assert_eq!(net.process(0).ticks, 4);
    }
}
