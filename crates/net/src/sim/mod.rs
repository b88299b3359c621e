//! A discrete-event network simulator.
//!
//! The paper's evaluation runs on "an event-based simulator \[...\] that can
//! emulate communications between nodes based on real network traffic
//! data". This module is that simulator, rebuilt in Rust:
//!
//! * [`time`] — the simulated clock ([`SimTime`], [`SimDuration`]),
//!   microsecond granularity;
//! * [`engine`] — the event loop: a calendar-queue (bucketed time-wheel)
//!   scheduler executing closures in timestamp order against a
//!   user-supplied world state;
//! * [`reference`](mod@reference) — the original `BinaryHeap` event loop, kept as the
//!   trusted oracle the differential suite compares [`engine`] against;
//! * [`network`] — message-delay sampling backed by an
//!   [`crate::rtt::RttMatrix`], with optional per-message jitter;
//! * [`fault`] — seeded, time-scheduled fault injection ([`FaultPlan`]):
//!   packet loss, latency surges, partitions and DC crashes that the
//!   network consults for every delivery;
//! * [`view`] — staleness-versioned per-origin state with anti-entropy
//!   digests, the payload store epidemic (gossip) protocols reconcile.
//!
//! # Example: ping-pong
//!
//! ```
//! use georep_net::sim::{Simulation, SimDuration};
//!
//! struct World { pongs: u32 }
//!
//! let mut sim = Simulation::new(World { pongs: 0 });
//! sim.schedule_in(SimDuration::from_ms(10.0), |w: &mut World, ctx| {
//!     // The "ping" arrives at t = 10 ms; reply 25 ms later.
//!     ctx.schedule_in(SimDuration::from_ms(25.0), |w: &mut World, _| {
//!         w.pongs += 1;
//!     });
//!     let _ = w;
//! });
//! sim.run_to_completion(None);
//! assert_eq!(sim.world().pongs, 1);
//! assert_eq!(sim.now().as_ms(), 35.0);
//! ```

pub mod engine;
pub mod fault;
pub mod network;
pub mod process;
pub mod reference;
pub mod time;
pub mod view;

pub use engine::{Context, Simulation};
pub use fault::{Delivery, DropCause, FaultPlan};
pub use network::{DeliveryStats, Network};
pub use process::{NetStats, NodeId, Process, ProcessCtx, ProcessNet};
pub use time::{SimDuration, SimTime};
pub use view::VersionedView;
