//! The paper's evaluation methodology, packaged (Section IV-A).
//!
//! An [`Experiment`] owns a latency matrix and a network-coordinate
//! embedding of its nodes. Each run:
//!
//! 1. selects a number of nodes as candidate data centers (different per
//!    seed — the paper averages over 30 runs "each of which began with
//!    different candidate replica locations");
//! 2. treats the remaining nodes as clients, each issuing a Poisson number
//!    of accesses;
//! 3. places `k` replicas with the strategy under test — the online
//!    technique is driven exactly like a deployment: a random initial
//!    placement, accesses routed to the closest replica, per-replica
//!    micro-cluster summaries, Algorithm 1, repeated for a configurable
//!    number of migration rounds;
//! 4. reports the demand-weighted mean access delay measured on the *true*
//!    latency matrix.
//!
//! Seeds run in parallel (scoped threads). That is the process's one
//! parallel level: everything a seed runs — ingest, clustering, every
//! strategy's solve — stays on its seed worker's thread.

use std::fmt;

use georep_cluster::online::OnlineClusterer;
use georep_cluster::summary::AccessSummary;
use georep_coord::embedding::{EmbeddingReport, EmbeddingRunner};
use georep_coord::rnp::Rnp;
use georep_coord::vivaldi::{Vivaldi, VivaldiConfig};
use georep_coord::Coord;
use georep_net::rtt::RttMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::manager::route_then_absorb;
use crate::metrics::DelayStats;
use crate::problem::{PlacementProblem, ProblemError};
use crate::strategy::greedy::Greedy;
use crate::strategy::hotzone::HotZone;
use crate::strategy::offline::OfflineKMeans;
use crate::strategy::online::OnlineClustering;
use crate::strategy::online_greedy::OnlineGreedy;
use crate::strategy::optimal::Optimal;
use crate::strategy::random::Random;
use crate::strategy::swap::SwapLocalSearch;
use crate::strategy::{CentroidMapping, PlaceError, PlacementContext, Placer};

/// Coordinate dimensionality used by experiments. Seven dimensions (plus
/// the height component) give the embedding enough freedom to express
/// poorly-peered regions that sit "far from everyone but close to
/// themselves" — shapes a 2-3-D space cannot represent; the ablation bench
/// measures the accuracy difference.
pub const DIMS: usize = 7;

/// Which placement strategy an experiment run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Uniform-random selection (paper baseline 1).
    Random,
    /// Offline k-means over all access coordinates (paper baseline 2).
    OfflineKMeans,
    /// The paper's online micro-clustering technique (Algorithm 1).
    OnlineClustering,
    /// Facility-location greedy over the same shipped summaries (our
    /// extension — stronger central step, identical inputs).
    OnlineGreedy,
    /// Exhaustive search over all candidate combinations (paper baseline 4).
    Optimal,
    /// Greedy incremental placement (related work, Qiu et al.).
    Greedy,
    /// Cell-based placement (related work, Szymaniak et al.).
    HotZone,
    /// Greedy plus single-swap local search (facility-location baseline).
    SwapLocalSearch,
}

impl StrategyKind {
    /// The four strategies of the paper's figures, in legend order.
    pub const PAPER: [StrategyKind; 4] = [
        StrategyKind::Random,
        StrategyKind::OfflineKMeans,
        StrategyKind::OnlineClustering,
        StrategyKind::Optimal,
    ];

    /// All implemented strategies.
    pub const ALL: [StrategyKind; 8] = [
        StrategyKind::Random,
        StrategyKind::OfflineKMeans,
        StrategyKind::OnlineClustering,
        StrategyKind::OnlineGreedy,
        StrategyKind::Optimal,
        StrategyKind::Greedy,
        StrategyKind::HotZone,
        StrategyKind::SwapLocalSearch,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Random => "random",
            StrategyKind::OfflineKMeans => "offline k-means clustering",
            StrategyKind::OnlineClustering => "online clustering",
            StrategyKind::OnlineGreedy => "online greedy",
            StrategyKind::Optimal => "optimal",
            StrategyKind::Greedy => "greedy",
            StrategyKind::HotZone => "hotzone",
            StrategyKind::SwapLocalSearch => "swap local search",
        }
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which coordinate protocol embeds the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordProtocol {
    /// Retrospective Network Positioning — what the paper uses.
    Rnp,
    /// Vivaldi — the baseline RNP improves upon.
    Vivaldi,
    /// GNP — landmark-based (related work). The first `max(DIMS + 2, 12)`
    /// nodes of the matrix act as landmarks; unlike the decentralized
    /// protocols it needs no gossip rounds.
    Gnp,
}

/// Error produced while configuring or running an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// Configuration out of range.
    BadConfig(&'static str),
    /// A strategy failed.
    Place(PlaceError),
    /// Objective evaluation failed.
    Problem(ProblemError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::BadConfig(what) => write!(f, "bad experiment config: {what}"),
            ExperimentError::Place(e) => write!(f, "placement failed: {e}"),
            ExperimentError::Problem(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Place(e) => Some(e),
            ExperimentError::Problem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlaceError> for ExperimentError {
    fn from(e: PlaceError) -> Self {
        ExperimentError::Place(e)
    }
}

impl From<ProblemError> for ExperimentError {
    fn from(e: ProblemError) -> Self {
        ExperimentError::Problem(e)
    }
}

/// Builder for [`Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    matrix: RttMatrix,
    data_centers: usize,
    replicas: usize,
    micro_clusters: usize,
    seeds: Vec<u64>,
    protocol: CoordProtocol,
    embedding_rounds: usize,
    accesses_per_client: f64,
    online_rounds: usize,
    mapping: CentroidMapping,
    coords: Option<(Vec<Coord<DIMS>>, EmbeddingReport)>,
}

impl ExperimentBuilder {
    /// Target number of candidate data centers per run.
    pub fn data_centers(mut self, n: usize) -> Self {
        self.data_centers = n;
        self
    }

    /// Degree of replication `k`.
    pub fn replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// Micro-clusters per replica `m`.
    pub fn micro_clusters(mut self, m: usize) -> Self {
        self.micro_clusters = m;
        self
    }

    /// Seeds to average over (the paper uses 30).
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Coordinate protocol (default RNP, as in the paper).
    pub fn protocol(mut self, protocol: CoordProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Gossip rounds for the embedding (default 60).
    pub fn embedding_rounds(mut self, rounds: usize) -> Self {
        self.embedding_rounds = rounds;
        self
    }

    /// Mean accesses each client issues (Poisson; default 10).
    pub fn accesses_per_client(mut self, mean: f64) -> Self {
        self.accesses_per_client = mean;
        self
    }

    /// Migration rounds the online technique runs (default 2: one to learn
    /// the population from the random start, one to settle).
    pub fn online_rounds(mut self, rounds: usize) -> Self {
        self.online_rounds = rounds;
        self
    }

    /// Macro-cluster → data-center mapping used by the clustering
    /// strategies (default [`CentroidMapping::BestServing`]; select
    /// [`CentroidMapping::NearestCentroid`] for verbatim Algorithm 1).
    pub fn mapping(mut self, mapping: CentroidMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Reuses a previously computed embedding instead of re-running the
    /// coordinate protocol (e.g. when sweeping a parameter over the same
    /// matrix). Take the pair from [`Experiment::coords`] and
    /// [`Experiment::embedding_report`].
    pub fn with_embedding(mut self, coords: Vec<Coord<DIMS>>, report: EmbeddingReport) -> Self {
        self.coords = Some((coords, report));
        self
    }

    /// Embeds the nodes and returns the ready experiment.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::BadConfig`] for out-of-range parameters.
    pub fn build(self) -> Result<Experiment, ExperimentError> {
        let n = self.matrix.len();
        if self.data_centers < 2 || self.data_centers >= n {
            return Err(ExperimentError::BadConfig(
                "data_centers must be in 2..matrix nodes (clients need the rest)",
            ));
        }
        if self.replicas == 0 || self.replicas > self.data_centers {
            return Err(ExperimentError::BadConfig(
                "replicas must be in 1..=data_centers",
            ));
        }
        if self.micro_clusters == 0 {
            return Err(ExperimentError::BadConfig(
                "micro_clusters must be at least 1",
            ));
        }
        if self.seeds.is_empty() {
            return Err(ExperimentError::BadConfig("at least one seed is required"));
        }
        if !(self.accesses_per_client.is_finite() && self.accesses_per_client > 0.0) {
            return Err(ExperimentError::BadConfig(
                "accesses_per_client must be positive",
            ));
        }
        if self.online_rounds == 0 {
            return Err(ExperimentError::BadConfig(
                "online_rounds must be at least 1",
            ));
        }

        let (coords, report) = match self.coords {
            Some((coords, report)) => {
                if coords.len() != n {
                    return Err(ExperimentError::BadConfig(
                        "injected embedding must cover every matrix node",
                    ));
                }
                (coords, report)
            }
            None => {
                let runner = EmbeddingRunner {
                    rounds: self.embedding_rounds,
                    samples_per_round: 8,
                    seed: 0xE3BED,
                };
                let oracle = |i: usize, j: usize| self.matrix.get(i, j);
                match self.protocol {
                    CoordProtocol::Rnp => runner.run(n, oracle, |_| Rnp::<DIMS>::new()),
                    CoordProtocol::Vivaldi => runner.run(n, oracle, |i| {
                        Vivaldi::<DIMS>::seeded(VivaldiConfig::with_height(), i as u64)
                    }),
                    CoordProtocol::Gnp => {
                        let coords = gnp_embedding(&self.matrix).map_err(|_| {
                            ExperimentError::BadConfig(
                                "GNP landmark embedding failed on this matrix",
                            )
                        })?;
                        let report = georep_coord::embedding::evaluate(&coords, &oracle, 0xE3BED);
                        (coords, report)
                    }
                }
            }
        };

        Ok(Experiment {
            matrix: self.matrix,
            coords,
            report,
            data_centers: self.data_centers,
            replicas: self.replicas,
            micro_clusters: self.micro_clusters,
            seeds: self.seeds,
            accesses_per_client: self.accesses_per_client,
            online_rounds: self.online_rounds,
            mapping: self.mapping,
        })
    }
}

/// Outcome of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// The placement chosen.
    pub placement: Vec<usize>,
    /// Demand-weighted mean access delay on the true matrix, ms.
    pub mean_delay_ms: f64,
    /// Summary bytes the online technique shipped (0 for other
    /// strategies).
    pub summary_bytes: u64,
}

/// Aggregated outcome of a strategy across all seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The strategy.
    pub kind: StrategyKind,
    /// Mean of the per-seed mean delays, ms — the y-value of the paper's
    /// figures.
    pub mean_delay_ms: f64,
    /// Distribution of per-seed delays.
    pub stats: DelayStats,
    /// Per-seed outcomes, sorted by seed.
    pub per_seed: Vec<SeedOutcome>,
    /// Mean summary bytes shipped per seed (online only).
    pub mean_summary_bytes: f64,
}

/// A ready-to-run reproduction of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct Experiment {
    matrix: RttMatrix,
    coords: Vec<Coord<DIMS>>,
    report: EmbeddingReport,
    data_centers: usize,
    replicas: usize,
    micro_clusters: usize,
    seeds: Vec<u64>,
    accesses_per_client: f64,
    online_rounds: usize,
    mapping: CentroidMapping,
}

impl Experiment {
    /// Starts building an experiment over the given latency matrix.
    pub fn builder(matrix: RttMatrix) -> ExperimentBuilder {
        ExperimentBuilder {
            matrix,
            data_centers: 20,
            replicas: 3,
            micro_clusters: 8,
            seeds: (0..30).collect(),
            protocol: CoordProtocol::Rnp,
            embedding_rounds: 60,
            accesses_per_client: 10.0,
            online_rounds: 2,
            mapping: CentroidMapping::default(),
            coords: None,
        }
    }

    /// The coordinate embedding used by coordinate-based strategies.
    pub fn coords(&self) -> &[Coord<DIMS>] {
        &self.coords
    }

    /// Accuracy report of the embedding.
    pub fn embedding_report(&self) -> &EmbeddingReport {
        &self.report
    }

    /// The latency matrix.
    pub fn matrix(&self) -> &RttMatrix {
        &self.matrix
    }

    /// Number of candidate data centers per run.
    pub fn data_centers(&self) -> usize {
        self.data_centers
    }

    /// Degree of replication.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Runs one strategy over all seeds (in parallel) and aggregates.
    ///
    /// # Errors
    ///
    /// See [`ExperimentError`]. The first per-seed error aborts the run.
    pub fn run(&self, kind: StrategyKind) -> Result<RunSummary, ExperimentError> {
        self.run_with_recorder(kind, &crate::telemetry::NullRecorder)
    }

    /// [`Experiment::run`] with a [`telemetry::Recorder`](crate::telemetry::Recorder)
    /// attached. Per-seed work still runs in parallel; recording happens
    /// after the join, over the seed-sorted outcomes, so the emitted
    /// counters and events are deterministic and the summary is bit-identical
    /// to [`Experiment::run`]'s.
    ///
    /// # Errors
    ///
    /// See [`ExperimentError`]. The first per-seed error aborts the run.
    pub fn run_with_recorder<R: crate::telemetry::Recorder>(
        &self,
        kind: StrategyKind,
        rec: &R,
    ) -> Result<RunSummary, ExperimentError> {
        let _span = crate::span!("experiment.run");
        let threads = crate::threads::available_parallelism().min(self.seeds.len());
        let per = self.seeds.len().div_ceil(threads);

        // Each worker returns its chunk's outcomes from `join`; a worker
        // panic resumes on this thread with its original payload.
        let mut outcomes: Vec<SeedOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .seeds
                .chunks(per)
                .map(|chunk| {
                    scope.spawn(move || {
                        let run = |&seed| self.run_seed(kind, seed);
                        chunk.iter().map(run).collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Result<_, _>>()
        })?;
        outcomes.sort_by_key(|o| o.seed);

        let delays: Vec<f64> = outcomes.iter().map(|o| o.mean_delay_ms).collect();
        let stats =
            DelayStats::from_samples(&delays).expect("per-seed delays are finite and non-empty");
        let mean_summary_bytes =
            outcomes.iter().map(|o| o.summary_bytes as f64).sum::<f64>() / outcomes.len() as f64;

        if rec.enabled() {
            for o in &outcomes {
                rec.counter("experiment.seeds", 1);
                rec.counter("experiment.summary_bytes", o.summary_bytes);
                rec.observe("seed.mean_delay_ms", o.mean_delay_ms);
            }
            rec.event(
                "experiment.run",
                &[
                    ("strategy", kind.name().into()),
                    ("seeds", outcomes.len().into()),
                    ("mean_delay_ms", stats.mean_ms.into()),
                    ("p99_delay_ms", stats.p99_ms.into()),
                    ("mean_summary_bytes", mean_summary_bytes.into()),
                ],
            );
        }

        Ok(RunSummary {
            kind,
            mean_delay_ms: stats.mean_ms,
            stats,
            per_seed: outcomes,
            mean_summary_bytes,
        })
    }

    /// Runs one strategy for one seed.
    ///
    /// # Errors
    ///
    /// See [`ExperimentError`].
    pub fn run_seed(&self, kind: StrategyKind, seed: u64) -> Result<SeedOutcome, ExperimentError> {
        let n = self.matrix.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDC_5EED);

        // Candidate data centers: a fresh random subset per seed.
        let mut nodes: Vec<usize> = (0..n).collect();
        for i in 0..self.data_centers {
            let j = rng.random_range(i..n);
            nodes.swap(i, j);
        }
        let candidates: Vec<usize> = nodes[..self.data_centers].to_vec();
        let clients: Vec<usize> = nodes[self.data_centers..].to_vec();

        // Per-client demand: Poisson(mean accesses), at least one access.
        let mut accesses: Vec<(usize, f64)> = Vec::new();
        let mut weights: Vec<f64> = Vec::with_capacity(clients.len());
        for &client in &clients {
            let count = poisson(self.accesses_per_client, &mut rng).max(1);
            weights.push(count as f64);
            for _ in 0..count {
                accesses.push((client, 1.0));
            }
        }

        let problem = PlacementProblem::with_weights(&self.matrix, candidates, clients, weights)?;
        // Densify the client × candidate cost table up front: the strategy
        // under test and the final true-matrix evaluation share one table
        // instead of each paying the first-touch build.
        problem.cost_table();
        let ctx = PlacementContext::<DIMS> {
            problem: &problem,
            coords: &self.coords,
            accesses: &accesses,
            summaries: &[],
            k: self.replicas,
            seed,
        };

        let mut summary_bytes = 0u64;
        let placement = match kind {
            StrategyKind::Random => Random.place(&ctx)?,
            StrategyKind::OfflineKMeans => OfflineKMeans {
                mapping: self.mapping,
            }
            .place(&ctx)?,
            StrategyKind::Optimal => Optimal.place(&ctx)?,
            StrategyKind::Greedy => Greedy.place(&ctx)?,
            StrategyKind::HotZone => HotZone::default().place(&ctx)?,
            StrategyKind::SwapLocalSearch => SwapLocalSearch.place(&ctx)?,
            StrategyKind::OnlineClustering => {
                self.run_online(&ctx, &accesses, &mut summary_bytes, false)?
            }
            StrategyKind::OnlineGreedy => {
                self.run_online(&ctx, &accesses, &mut summary_bytes, true)?
            }
        };

        let mean_delay_ms = problem.mean_delay(&placement)?;
        Ok(SeedOutcome {
            seed,
            placement,
            mean_delay_ms,
            summary_bytes,
        })
    }

    /// Drives the online pipeline like a deployment: random initial
    /// placement, true-latency routing, per-replica summarization,
    /// Algorithm 1, for `online_rounds` migration rounds.
    fn run_online(
        &self,
        ctx: &PlacementContext<'_, DIMS>,
        accesses: &[(usize, f64)],
        summary_bytes: &mut u64,
        greedy_central_step: bool,
    ) -> Result<Vec<usize>, ExperimentError> {
        let problem = ctx.problem;
        let mut placement = Random.place(ctx)?;

        for round in 0..self.online_rounds {
            // Each replica summarizes the accesses it serves. Clients reach
            // the replica with the lowest true latency (the paper's "use
            // whichever replica it can obtain first").
            let mut clusterers: Vec<OnlineClusterer<DIMS>> = placement
                .iter()
                .map(|_| OnlineClusterer::new(self.micro_clusters))
                .collect();
            let slot_of = |&(client, _): &(usize, f64)| {
                let replica = problem.closest_replica(client, &placement);
                placement
                    .iter()
                    .position(|&r| r == replica)
                    .expect("closest_replica returns a member")
            };
            // The seed fan-out is this process's one parallel level, so the
            // per-seed ingest runs on the seed worker's own thread.
            route_then_absorb(
                accesses,
                1,
                &mut clusterers,
                slot_of,
                |&(client, weight)| (self.coords[client], weight),
            );

            let summaries: Vec<AccessSummary> = placement
                .iter()
                .zip(&clusterers)
                .map(|(&r, c)| AccessSummary::from_clusterer(r as u32, c))
                .collect();
            *summary_bytes += summaries
                .iter()
                .map(|s| s.encoded_len() as u64)
                .sum::<u64>();

            let round_ctx = PlacementContext {
                summaries: &summaries,
                seed: ctx.seed.wrapping_add(round as u64),
                ..ctx.clone()
            };
            placement = if greedy_central_step {
                OnlineGreedy.place(&round_ctx)?
            } else {
                OnlineClustering {
                    mapping: self.mapping,
                }
                .place(&round_ctx)?
            };
        }
        Ok(placement)
    }
}

/// Embeds all nodes with GNP: the leading nodes are landmarks, everyone
/// else positions against them.
fn gnp_embedding(matrix: &RttMatrix) -> Result<Vec<Coord<DIMS>>, georep_coord::gnp::GnpError> {
    use georep_coord::gnp::Gnp;
    let n = matrix.len();
    let landmarks: Vec<usize> = (0..(DIMS + 2).max(12).min(n)).collect();
    let lm_rtts: Vec<Vec<f64>> = landmarks
        .iter()
        .map(|&a| landmarks.iter().map(|&b| matrix.get(a, b)).collect())
        .collect();
    let gnp: Gnp<DIMS> = Gnp::embed_landmarks(&lm_rtts)?;
    let mut coords = Vec::with_capacity(n);
    for node in 0..n {
        if let Some(pos) = landmarks.iter().position(|&l| l == node) {
            coords.push(gnp.landmarks()[pos]);
        } else {
            let rtts: Vec<f64> = landmarks.iter().map(|&l| matrix.get(node, l)).collect();
            coords.push(gnp.position(&rtts)?);
        }
    }
    Ok(coords)
}

/// Knuth's Poisson sampler (fine for small means).
fn poisson(mean: f64, rng: &mut StdRng) -> u64 {
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // guard against pathological means
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_net::topology::{Topology, TopologyConfig};

    /// A small matrix so tests stay fast; 48 nodes is plenty to separate
    /// the strategies.
    fn small_matrix() -> RttMatrix {
        Topology::generate(TopologyConfig {
            nodes: 48,
            seed: 11,
            ..Default::default()
        })
        .unwrap()
        .into_matrix()
    }

    fn small_experiment() -> Experiment {
        Experiment::builder(small_matrix())
            .data_centers(10)
            .replicas(3)
            .micro_clusters(4)
            .seeds(0..4)
            .embedding_rounds(20)
            .accesses_per_client(5.0)
            .build()
            .unwrap()
    }

    #[test]
    fn recorder_does_not_perturb_the_run() {
        let exp = small_experiment();
        let rec = crate::telemetry::InMemoryRecorder::default();
        let plain = exp.run(StrategyKind::OnlineClustering).unwrap();
        let recorded = exp
            .run_with_recorder(StrategyKind::OnlineClustering, &rec)
            .unwrap();
        assert_eq!(plain, recorded);
        assert_eq!(rec.counter_value("experiment.seeds"), 4);
        let hist = rec.histogram("seed.mean_delay_ms").expect("observed");
        assert_eq!(hist.count, 4);
        assert!((hist.mean() - recorded.mean_delay_ms).abs() < 1e-9);
        assert_eq!(rec.events_len(), 1);
    }

    #[test]
    fn gnp_protocol_produces_usable_coordinates() {
        let matrix = small_matrix();
        let exp = Experiment::builder(matrix)
            .data_centers(10)
            .replicas(2)
            .seeds(0..2)
            .protocol(CoordProtocol::Gnp)
            .build()
            .expect("GNP experiment builds");
        // Landmark embeddings are coarser than gossip protocols but must
        // still beat random placement.
        let online = exp
            .run(StrategyKind::OnlineClustering)
            .expect("online runs");
        let random = exp.run(StrategyKind::Random).expect("random runs");
        assert!(online.mean_delay_ms < random.mean_delay_ms);
        assert!(exp.embedding_report().median_rel_err < 0.8);
    }

    #[test]
    fn builder_validations() {
        let m = small_matrix();
        let err = |b: ExperimentBuilder| b.build().unwrap_err();
        assert!(matches!(
            err(Experiment::builder(m.clone()).data_centers(1)),
            ExperimentError::BadConfig(_)
        ));
        assert!(matches!(
            err(Experiment::builder(m.clone()).data_centers(48)),
            ExperimentError::BadConfig(_)
        ));
        assert!(matches!(
            err(Experiment::builder(m.clone()).replicas(0)),
            ExperimentError::BadConfig(_)
        ));
        assert!(matches!(
            err(Experiment::builder(m.clone()).data_centers(10).replicas(11)),
            ExperimentError::BadConfig(_)
        ));
        assert!(matches!(
            err(Experiment::builder(m.clone()).seeds(std::iter::empty())),
            ExperimentError::BadConfig(_)
        ));
        assert!(matches!(
            err(Experiment::builder(m).online_rounds(0)),
            ExperimentError::BadConfig(_)
        ));
    }

    #[test]
    fn embedding_is_reasonably_accurate() {
        let exp = small_experiment();
        let r = exp.embedding_report();
        assert!(
            r.median_rel_err < 0.35,
            "median rel err {}",
            r.median_rel_err
        );
    }

    #[test]
    fn strategies_rank_as_in_the_paper() {
        let exp = small_experiment();
        let random = exp.run(StrategyKind::Random).unwrap();
        let online = exp.run(StrategyKind::OnlineClustering).unwrap();
        let offline = exp.run(StrategyKind::OfflineKMeans).unwrap();
        let optimal = exp.run(StrategyKind::Optimal).unwrap();

        // Optimal lower-bounds everything; the clustering techniques beat
        // random by a wide margin (paper: ≥ 35 %).
        assert!(optimal.mean_delay_ms <= online.mean_delay_ms + 1e-9);
        assert!(optimal.mean_delay_ms <= offline.mean_delay_ms + 1e-9);
        assert!(optimal.mean_delay_ms <= random.mean_delay_ms + 1e-9);
        assert!(
            online.mean_delay_ms < random.mean_delay_ms * 0.8,
            "online {} vs random {}",
            online.mean_delay_ms,
            random.mean_delay_ms
        );
    }

    #[test]
    fn optimal_lower_bounds_every_seed() {
        let exp = small_experiment();
        let optimal = exp.run(StrategyKind::Optimal).unwrap();
        for kind in [StrategyKind::Greedy, StrategyKind::OnlineClustering] {
            let run = exp.run(kind).unwrap();
            for (o, r) in optimal.per_seed.iter().zip(&run.per_seed) {
                assert_eq!(o.seed, r.seed);
                assert!(o.mean_delay_ms <= r.mean_delay_ms + 1e-9);
            }
        }
    }

    #[test]
    fn online_ships_summaries_others_do_not() {
        let exp = small_experiment();
        let online = exp.run(StrategyKind::OnlineClustering).unwrap();
        assert!(online.mean_summary_bytes > 0.0);
        let random = exp.run(StrategyKind::Random).unwrap();
        assert_eq!(random.mean_summary_bytes, 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let exp = small_experiment();
        let a = exp.run(StrategyKind::OnlineClustering).unwrap();
        let b = exp.run(StrategyKind::OnlineClustering).unwrap();
        assert_eq!(a.per_seed, b.per_seed);
    }

    #[test]
    fn seed_outcome_placement_is_valid() {
        let exp = small_experiment();
        for kind in StrategyKind::ALL {
            let outcome = exp.run_seed(kind, 1).unwrap();
            assert_eq!(
                outcome.placement.len(),
                3,
                "{kind}: {:?}",
                outcome.placement
            );
            let mut sorted = outcome.placement.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "{kind} produced duplicates");
        }
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(7.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 7.0).abs() < 0.15, "mean {mean}");
    }
}
