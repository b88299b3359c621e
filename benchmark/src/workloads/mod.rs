//! The four workloads. Each is built by [`build`] (the set-up the run
//! times as `setup_s`) and then asked for passes: a pass builds a fresh
//! system outside its timed region, pushes the whole input through it in
//! a closed loop, and returns wall time, records consumed and one
//! commit-lag sample per decision.

pub mod fleet;
pub mod mesh;
pub mod serve;

use georep_cluster::KMeansConfig;
use georep_core::fleet::FleetManager;

use crate::span::Tracer;
use crate::stats;
use crate::world::{self, FleetShape, Scale, DIMS, K};

/// Root span of the traced set-up.
pub const SETUP_SPAN: &str = "bench.setup";
/// Root span of one traced pass.
pub const PASS_SPAN: &str = "bench.pass";
/// Root span of the verification pass's offline half.
pub const VERIFY_SPAN: &str = "bench.verify";
/// Root span of the same offline work at `threads = 1`.
pub const VERIFY_1T_SPAN: &str = "bench.verify.threads1";

/// Span names of the two fleet calls, wherever the harness makes them.
pub const INGEST: &str = "core.fleet.ingest_period";
pub const REBALANCE: &str = "core.fleet.rebalance";
/// Span of the read path: routing a period's accesses to their replicas.
pub const ROUTE: &str = "core.fleet.route";

/// What one pass over the input measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// First hand-off to last decision, seconds.
    pub wall_s: f64,
    /// Demand records the system consumed.
    pub records: u64,
    /// Per decision, in input order (the same on every pass): last record
    /// of the period handed over → decision returned, milliseconds.
    pub lags_ms: Vec<f64>,
    /// Operations attempted / failed (see the README).
    pub attempted: u64,
    pub failed: u64,
}

/// Outcome of the untimed verification pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// The paper's objective under the placements the run produced.
    pub placed_delay_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Workload-derived per-layer counts, by metric name. Deterministic
    /// per seed.
    pub counts: Vec<(&'static str, f64)>,
}

impl Verdict {
    /// Records one verification check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

pub trait Workload {
    /// One closed-loop pass over the input through a fresh system.
    fn pass(&self, tracer: &mut Tracer) -> Pass;

    /// The untimed verification pass: repeats the work, checks the
    /// outputs against a reference, scores the placements.
    fn verify(&self, tracer: &mut Tracer) -> Verdict;

    /// The time-valued layer metrics of a traced run, from the spans of
    /// its set-up, its traced passes and its verification pass. A layer
    /// the workload never enters is left out (and reads 0).
    fn layers(&self, tracer: &Tracer, verdict: &Verdict) -> Vec<(&'static str, f64)>;
}

/// Builds workload `name` from `seed` at `scale`. `None` for an unknown
/// name.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    tracer: &mut Tracer,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_hot" => Box::new(serve::Serve::new(
            seed,
            scale,
            tracer,
            serve::Params {
                shape: FleetShape {
                    objects: 4_096,
                    hot: 16,
                    cold_groups: 8,
                    budget_usd: f64::INFINITY,
                },
                ring: 65_536,
                period: scale.of(250_000),
                accesses: scale.of(8_000_000),
            },
        )),
        "serve_churn" => Box::new(serve::Serve::new(
            seed,
            scale,
            tracer,
            serve::Params {
                shape: FleetShape {
                    objects: 65_536,
                    hot: 256,
                    cold_groups: 8,
                    budget_usd: f64::INFINITY,
                },
                // Smaller than a period, so backpressure bites inside
                // every period.
                ring: scale.pick(4_096, 64),
                period: scale.pick(8_192, 128),
                accesses: scale.of(1_000_000),
            },
        )),
        "fleet_wide" => Box::new(fleet::FleetWide::new(
            seed,
            scale,
            tracer,
            fleet::Params {
                shape: FleetShape {
                    objects: scale.of(1_000_000) as u64,
                    hot: scale.of(4_096) as u64,
                    cold_groups: 64,
                    // Tight enough that every round both commits and defers.
                    budget_usd: scale.pick(200.0, 2.0),
                },
                period: scale.of(50_000),
                accesses: scale.of(1_000_000),
            },
        )),
        "decide_mesh" => Box::new(mesh::Mesh::new(seed, scale, tracer)),
        _ => return None,
    })
}

/// Records per second of each pass.
pub fn throughputs(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.records as f64 / p.wall_s).collect()
}

/// What the timed passes of one run add up to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Records of all passes over the wall time of all passes.
    pub accesses_per_s: f64,
    /// Mean over the passes of each pass's median lag.
    pub lag_p50_ms: f64,
    /// 90th percentile of the lag samples of all passes, pooled.
    pub lag_p90_ms: f64,
    pub lag_samples: usize,
}

/// Sums the passes up. The host's speed moves between two levels a
/// third apart and stays on one for tens of seconds, so a run sees some
/// mix of the two: sums and means move with the mix in proportion, where
/// a median of passes, or a best pass, jumps from one level to the other
/// (see the README). The passes are seconds long, so inside one the level
/// mostly holds and the pass's own median is a median proper; the tail
/// is taken over all samples, because one pass has too few.
///
/// A pass in which no decision came back (its operations failed) has no
/// lag to add; with no lag sample at all the lags read 0.
pub fn summarise(passes: &[Pass]) -> Summary {
    let records: u64 = passes.iter().map(|p| p.records).sum();
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let decided = passes.iter().filter(|p| !p.lags_ms.is_empty());
    let medians: Vec<f64> = decided
        .map(|p| stats::percentile(&p.lags_ms, 0.50))
        .collect();
    let pooled: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.lags_ms.iter().copied())
        .collect();
    let (lag_p50_ms, lag_p90_ms) = if pooled.is_empty() {
        (0.0, 0.0)
    } else {
        (stats::mean(&medians), stats::percentile(&pooled, 0.90))
    };
    Summary {
        accesses_per_s: records as f64 / wall_s,
        lag_p50_ms,
        lag_p90_ms,
        lag_samples: pooled.len(),
    }
}

/// Wall time the traced passes add up to, ns, and how many there were
/// (a traced run makes at least one).
pub fn traced_wall(tracer: &Tracer) -> (f64, f64) {
    let passes = tracer.durations_ns(PASS_SPAN);
    (passes.iter().sum(), passes.len() as f64)
}

/// Time inside `ingest_period` and `rebalance` calls under `root`, ns.
pub fn fleet_ns(tracer: &Tracer, root: &str) -> (f64, f64) {
    let total = |name| tracer.under(root, 0, name).total_ns as f64;
    (total(INGEST), total(REBALANCE))
}

/// The set-up and `core.fleet` layer metrics every ingest workload
/// reports. `ingest_ns` / `rebalance_ns` are one pass's worth of the two
/// fleet calls at library-default threads, `pass_wall_ns` the mean traced
/// pass; the read path and the `threads = 1` twin come from the
/// verification spans, embedding and trace generation from the set-up's.
pub fn ingest_layers(
    tracer: &Tracer,
    (ingest_ns, rebalance_ns): (f64, f64),
    pass_wall_ns: f64,
    accesses: usize,
    owner_rounds: usize,
) -> Vec<(&'static str, f64)> {
    let (ingest_1t, rebalance_1t) = fleet_ns(tracer, VERIFY_1T_SPAN);
    let route_ns = tracer.under(VERIFY_SPAN, 0, ROUTE).total_ns as f64;
    let setup_ns = |name| tracer.under(SETUP_SPAN, 0, name).total_ns as f64;
    vec![
        ("coord.embed_ms", setup_ns(world::EMBED) / 1e6),
        (
            "workload.generate_per_s",
            accesses as f64 / (setup_ns(world::GENERATE) / 1e9),
        ),
        (
            "core.fleet.ingest_ns_per_access",
            ingest_ns / accesses as f64,
        ),
        (
            "core.fleet.rebalance_us_per_owner",
            rebalance_ns / 1e3 / owner_rounds as f64,
        ),
        ("core.fleet.rebalance_share", rebalance_ns / pass_wall_ns),
        ("core.fleet.route_ns", route_ns / accesses as f64),
        (
            "core.fleet.speedup_vs_1t",
            (ingest_1t + rebalance_1t) / (ingest_ns + rebalance_ns),
        ),
    ]
}

/// The fleet-level counts every ingest workload reports, read off the
/// fleet the verification pass produced.
pub fn fleet_counts(fleet: &FleetManager<DIMS>, accesses: usize) -> Vec<(&'static str, f64)> {
    let stats = fleet.stats();
    let (mut summary_bytes, mut restarts, mut iterations) = (0u64, 0u64, 0u64);
    let (mut pruned, mut updates) = (0u64, 0u64);
    for owner in fleet.owners() {
        summary_bytes += owner.stats().summary_bytes;
        let km = owner.kmeans_stats();
        restarts += km.restarts;
        iterations += km.iterations;
        pruned += km.pruned_upper + km.pruned_tightened;
        updates += km.point_updates();
    }
    // Every solve runs the default restart count, so restarts count solves.
    let solves = restarts as f64 / KMeansConfig::new(K).restarts as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("core.fleet.hot_fraction", stats.hot_fraction()),
        ("core.fleet.committed", stats.committed as f64),
        ("core.fleet.deferred", stats.deferred as f64),
        ("core.fleet.replicas_moved", stats.replicas_moved as f64),
        (
            "core.fleet.migration_usd_per_macc",
            ratio(stats.spent_usd, accesses as f64 / 1e6),
        ),
        (
            "core.manager.summary_bytes_per_access",
            ratio(summary_bytes as f64, accesses as f64),
        ),
        (
            "cluster.kmeans.iterations_per_solve",
            ratio(iterations as f64, solves),
        ),
        (
            "cluster.kmeans.prune_rate",
            ratio(pruned as f64, updates as f64),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_sum_up_to_rate_mean_of_medians_and_pooled_tail() {
        let pass = |wall_s, records, lags: &[f64]| Pass {
            wall_s,
            records,
            lags_ms: lags.to_vec(),
            ..Pass::default()
        };
        let passes = [
            pass(2.0, 100, &[5.0, 1.0, 9.0]),
            pass(4.0, 100, &[3.0, 2.0, 4.0, 8.0, 7.0]),
        ];
        assert_eq!(throughputs(&passes), [50.0, 25.0]);
        let sum = summarise(&passes);
        // 200 records in 6 s, not the mean of 50 and 25.
        assert_eq!(sum.accesses_per_s, 200.0 / 6.0);
        // Medians 5 and 4.
        assert_eq!(sum.lag_p50_ms, 4.5);
        // Eight samples pooled: the 90th percentile is the largest.
        assert_eq!((sum.lag_p90_ms, sum.lag_samples), (9.0, 8));
        // A pass whose decisions all failed adds time and nothing else.
        let failed = [pass(1.0, 0, &[])];
        assert_eq!(summarise(&failed).lag_samples, 0);
        assert_eq!(summarise(&failed).lag_p90_ms, 0.0);
    }
}
