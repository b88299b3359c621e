//! Replica placement across data centers — the paper's core contribution.
//!
//! This crate assembles the substrates ([`georep_coord`], [`georep_net`],
//! [`georep_cluster`], [`georep_workload`]) into the system of Ping et al.,
//! *Towards Optimal Data Replication Across Data Centers* (ICDCS 2011):
//!
//! * [`problem`] — the formal objective (Section II-B): place `k` replicas
//!   among candidate data centers minimizing total client access delay;
//! * [`strategy`] — placement strategies: the paper's online technique
//!   (Algorithm 1) plus the random / offline k-means / optimal comparators
//!   and related-work baselines (greedy, hotzone, swap local search);
//! * [`objective`] — the shared evaluation layer under every strategy:
//!   delay oracles, precomputed cost tables, incremental delta scoring;
//! * [`manager`] — the live system: closest-replica routing, per-replica
//!   micro-cluster summaries, periodic macro-clustering and cost-gated
//!   migration, adaptive replication degree;
//! * [`migration`] — the $/GB migration cost model (Section III-C);
//! * [`quorum`], [`failure`], [`readwrite`] — the paper's stated future
//!   work (consistency quorums, availability under replica failures,
//!   update propagation), implemented;
//! * [`domains`] — hierarchical failure domains (rack → DC → region) with
//!   correlated outage sampling, compilation onto seeded fault plans, and
//!   exact analytic survival probabilities;
//! * [`gossip`], [`deployment`] — the paper's methodology end to end on the
//!   discrete-event simulator: coordinates assigned by emulated
//!   communications, and a fully message-passing deployment of the whole
//!   system;
//! * [`scenario`] — named fault scenarios (crash, flapping link, partition,
//!   latency surge, rolling recovery) driving detection, failover and
//!   cost-gated re-placement on one deterministic clock;
//! * [`forecast`] — per-region seasonal + trend demand forecasting with a
//!   confidence gate, feeding [`strategy::predictive`] pre-positioning;
//! * [`experiment`] — the paper's evaluation methodology (Section IV),
//!   ready to regenerate every figure;
//! * [`telemetry`] — zero-cost-when-disabled run instrumentation: the
//!   [`telemetry::Recorder`] trait, in-memory aggregation, JSONL traces and
//!   the [`telemetry::RunReport`] aggregate of a finished run;
//! * [`metrics`], [`combin`] — supporting statistics and combinatorics.
//!
//! # Example: one evaluation point of Figure 2
//!
//! ```
//! use georep_core::experiment::{Experiment, StrategyKind};
//! use georep_net::topology::{Topology, TopologyConfig};
//!
//! let matrix = Topology::generate(TopologyConfig { nodes: 40, ..Default::default() })
//!     .expect("valid config")
//!     .into_matrix();
//! let exp = Experiment::builder(matrix)
//!     .data_centers(10)
//!     .replicas(3)
//!     .seeds(0..3)
//!     .embedding_rounds(15)
//!     .build()
//!     .expect("valid experiment");
//! let online = exp.run(StrategyKind::OnlineClustering).expect("runs");
//! let random = exp.run(StrategyKind::Random).expect("runs");
//! assert!(online.mean_delay_ms < random.mean_delay_ms);
//! ```

pub mod combin;
pub mod deployment;
pub mod domains;
pub mod experiment;
pub mod failure;
pub mod fleet;
pub mod forecast;
pub mod gossip;
mod hash;
pub mod manager;
pub mod metrics;
pub mod migration;
pub mod objective;
pub mod problem;
pub mod quorum;
pub mod readwrite;
pub mod scenario;
pub mod strategy;
pub mod telemetry;
pub mod threads;

pub use domains::{DomainConfig, DomainError, DomainTree, Outage};
pub use experiment::{Experiment, RunSummary, StrategyKind};
pub use fleet::{FleetConfig, FleetError, FleetManager, FleetRound, FleetStats};
pub use forecast::{DemandHistory, ForecastConfig, ForecastError, GateDecision};
pub use manager::{ManagerConfig, Plan, ReplicaManager};
pub use objective::{CostTable, DelayOracle, IncrementalEval};
pub use problem::{PlacementProblem, ProblemError};
pub use scenario::{run_scenario, ScenarioKind, ScenarioReport};
pub use strategy::decentralized::{
    central_placement, run_decentralized, run_decentralized_with, DecentralConfig, DecentralReport,
};
pub use strategy::{PlaceError, PlacementContext, Placer};
pub use telemetry::{InMemoryRecorder, NullRecorder, Recorder, RunReport, TraceWriter};
