//! Forecast-driven pre-positioning over the reactive manager.
//!
//! The [`crate::manager::ReplicaManager`] is reactive: it re-places on the
//! demand a period *recorded*, so every migration trails the shift that
//! justified it by one period — the delay of serving the shifted demand
//! from the stale placement has already been paid. This module closes the
//! loop (ROADMAP item 1, after Pfandzelter & Bermbach): a forecaster
//! folds each period's demand into a [`DemandHistory`], and when the
//! [`forecast::gate`] engages, the next rebalance runs on the *predicted*
//! next-period demand via [`crate::manager::Plan::Demand`] — the migration
//! lands before the shift does.
//!
//! Three [`PlacementMode`]s share one driver, [`run_mode`], the only one
//! that carries a forecaster (the scenario runner, [`crate::scenario`],
//! re-places reactively or by decentralized consensus and rejects the
//! forecast modes at setup):
//!
//! * [`PlacementMode::Reactive`] — the unmodified manager loop, the
//!   baseline;
//! * [`PlacementMode::Predictive`] — forecast when the gate engages,
//!   reactive fallback otherwise (so stationary workloads are served
//!   **bit-identically** to the reactive baseline: the gate declines with
//!   [`forecast::GateDecision::Stationary`] and the same recorded plan runs);
//! * [`PlacementMode::Oracle`] — perfect foresight: the rebalance runs on
//!   the *actual* next-period demand, aggregated onto the same region set
//!   a forecast would use. Oracle regret is the floor any forecaster can
//!   reach with this placement machinery; `predicted − oracle` isolates
//!   forecast error from placement-machinery limits.
//!
//! [`ModeReport`] scores each run with the **delay regret** (mean realized
//! delay above the oracle's) and the **wasted-migration USD** (dollars
//! spent on committed migrations the realized next period did not pay
//! back). `tests/predictive_placement.rs` prints both for the diurnal and
//! drift workloads.
//!
//! Determinism: the driver, the manager's ingest and the forecaster all run
//! serially on the caller's thread, so two [`run_mode`] calls with the same
//! inputs compare `==` (pinned by `tests/predictive_placement.rs`).

use georep_coord::Coord;

use crate::forecast::{self, DemandHistory, ForecastConfig, ForecastError};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::manager::{ManagerConfig, ManagerError, ManagerStats, Plan, ReplicaManager};

/// Which loop drives re-placement in [`run_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementMode {
    /// Re-place on the demand the period recorded (the baseline manager).
    Reactive,
    /// Re-place on the forecast next period when the confidence gate
    /// engages; fall back to reactive otherwise.
    Predictive,
    /// Re-place on the *actual* next period — perfect foresight, the
    /// regret floor.
    Oracle,
    /// Re-place on the consensus a peer-to-peer gossip solve converges to
    /// ([`crate::strategy::decentralized`]) — no central solver in the
    /// loop. Driven by the scenario runner, which owns the RTT matrix the
    /// protocol gossips over; the coordinate-space [`run_mode`] driver
    /// rejects it.
    Decentralized,
}

impl PlacementMode {
    /// Stable lowercase name (JSON keys, report labels).
    pub fn name(&self) -> &'static str {
        match self {
            PlacementMode::Reactive => "reactive",
            PlacementMode::Predictive => "predictive",
            PlacementMode::Oracle => "oracle",
            PlacementMode::Decentralized => "decentralized",
        }
    }
}

/// Every *centrally solved* mode, in regret order (best foresight first) —
/// the set [`run_mode`] drives. [`PlacementMode::Decentralized`] lives in
/// the scenario runner instead.
pub const ALL_MODES: [PlacementMode; 3] = [
    PlacementMode::Oracle,
    PlacementMode::Predictive,
    PlacementMode::Reactive,
];

/// Tuning of a [`run_mode`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeConfig {
    /// Replicas to maintain.
    pub k: usize,
    /// Micro-clusters per replica.
    pub micro_clusters: usize,
    /// Seed for the manager's macro-clustering.
    pub seed: u64,
    /// Required relative delay gain per migration dollar.
    pub gain_per_dollar: f64,
    /// Forecaster tuning (season length, confidence gate bounds).
    pub forecast: ForecastConfig,
}

impl ModeConfig {
    /// Defaults for `k` replicas with a `season`-period forecast cycle.
    ///
    /// # Errors
    ///
    /// [`ForecastError::ZeroSeason`] when `season` is zero.
    pub fn new(k: usize, season: usize) -> Result<Self, ForecastError> {
        Ok(ModeConfig {
            k,
            micro_clusters: 8,
            seed: 0x0FC5,
            gain_per_dollar: 0.02,
            forecast: ForecastConfig::new(season)?,
        })
    }

    fn manager_config(&self) -> ManagerConfig {
        let mut cfg = ManagerConfig::new(self.k, self.micro_clusters);
        cfg.seed = self.seed;
        cfg.gain_per_dollar = self.gain_per_dollar;
        cfg
    }
}

/// The online forecaster [`run_mode`] carries: a [`DemandHistory`] over
/// a fixed region set plus the gate configuration.
struct Predictor<const D: usize> {
    history: DemandHistory<D>,
    config: ForecastConfig,
}

impl<const D: usize> Predictor<D> {
    fn new(regions: Vec<Coord<D>>, config: ForecastConfig) -> Result<Self, ForecastError> {
        config.validate()?;
        let history = DemandHistory::new(regions)?;
        Ok(Predictor { history, config })
    }

    /// The demand `mode` solves the next round on; `None` means the
    /// manager's own recorded summaries ([`Plan::Recorded`]). Predictive is
    /// the forecast when the gate engages and recorded otherwise (so a
    /// declined gate *is* the reactive round); the oracle is `next` — the
    /// actual next period, when there is one — aggregated onto the region
    /// set, so oracle and predictive differ *only* in forecast accuracy,
    /// not in regional granularity.
    fn demand_for(
        &self,
        mode: PlacementMode,
        next: Option<&[(Coord<D>, f64)]>,
    ) -> Result<Option<Vec<(Coord<D>, f64)>>, ForecastError> {
        Ok(match mode {
            PlacementMode::Reactive | PlacementMode::Decentralized => None,
            PlacementMode::Predictive if forecast::gate(&self.history, &self.config).engaged() => {
                Some(self.history.forecast_next(self.config.season)?)
            }
            PlacementMode::Predictive => None,
            PlacementMode::Oracle => next.map(|next| self.history.aggregate(next)),
        })
    }
}

/// Weighted mean distance from each demand point to its nearest replica —
/// the realized-delay metric every mode is scored on. `0.0` when the
/// demand carries no weight.
pub fn mean_delay<const D: usize>(
    coords: &[Coord<D>],
    placement: &[usize],
    demand: &[(Coord<D>, f64)],
) -> f64 {
    let total_w: f64 = demand.iter().map(|&(_, w)| w).sum();
    if total_w <= 0.0 {
        return 0.0;
    }
    let total: f64 = demand
        .iter()
        .map(|&(p, w)| {
            let d = placement
                .iter()
                .map(|&r| coords[r].distance(&p))
                .fold(f64::INFINITY, f64::min);
            w * d
        })
        .sum();
    total / total_w
}

/// What one [`run_mode`] run did and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeReport {
    /// The mode that ran.
    pub mode: PlacementMode,
    /// Periods served.
    pub periods: usize,
    /// Total demand weight served.
    pub total_weight: f64,
    /// Weighted mean realized delay across all periods — each period is
    /// scored against the placement that was *live while it was served*.
    pub mean_delay_ms: f64,
    /// Committed migrations (rounds whose decision applied with moves).
    pub migrations: usize,
    /// Dollars spent on committed migrations.
    pub migration_usd: f64,
    /// Dollars spent on committed migrations the *realized* next period
    /// did not pay back (its delay under the new placement was no better
    /// than under the old one) — the cost of acting on a wrong forecast.
    pub wasted_usd: f64,
    /// Rounds the forecast gate engaged (predictive mode only).
    pub gate_engaged: usize,
    /// Rounds the gate declined and the reactive fallback ran
    /// (predictive mode only).
    pub gate_declined: usize,
    /// The placement after the final round.
    pub final_placement: Vec<usize>,
    /// FNV-1a over every per-period placement — two runs served every
    /// period from the same replicas iff the fingerprints match.
    pub placement_fingerprint: u64,
    /// Manager stats at the end of the run.
    pub stats: ManagerStats,
}

impl ModeReport {
    /// This run's delay regret against a reference (normally the oracle's
    /// `mean_delay_ms`): how much realized delay the mode paid above it.
    pub fn regret_vs(&self, oracle_mean_delay_ms: f64) -> f64 {
        self.mean_delay_ms - oracle_mean_delay_ms
    }
}

/// Serves `periods` of demand through a fresh [`ReplicaManager`] under
/// `mode`, re-placing after every period. Per period `t`:
///
/// 1. score the period's demand against the live placement (this is where
///    pre-positioning pays: a migration committed *before* the shift means
///    period `t` is served from the right side of it);
/// 2. settle the previous round's migration bill — if the placement it
///    bought serves this period no better than the one it replaced, its
///    dollars were wasted;
/// 3. ingest the period into the manager's summarizers and the predictor's
///    history;
/// 4. re-place on the demand `mode` solves on — recorded, forecast or
///    the actual next period (the oracle is reactive on the last period —
///    there is no next period to foresee).
///
/// `regions` fixes the forecast/oracle aggregation grid (typically the
/// candidate coordinates). The demand slices are borrowed per period so
/// callers can replay one generated workload across all three modes.
///
/// # Errors
///
/// [`ForecastError`]-derived setup failures and
/// [`PlacementMode::Decentralized`] surface as
/// [`ManagerError::InvalidSetup`]; clustering failures as
/// [`ManagerError::Cluster`].
pub fn run_mode<const D: usize>(
    coords: &[Coord<D>],
    candidates: &[usize],
    initial: &[usize],
    regions: &[Coord<D>],
    periods: &[Vec<(Coord<D>, f64)>],
    mode: PlacementMode,
    cfg: &ModeConfig,
) -> Result<ModeReport, ManagerError> {
    if mode == PlacementMode::Decentralized {
        return Err(ManagerError::InvalidSetup(
            "decentralized placement needs an RTT matrix; drive it via run_scenario",
        ));
    }
    let mut mgr = ReplicaManager::new(
        coords.to_vec(),
        candidates.to_vec(),
        initial.to_vec(),
        cfg.manager_config(),
    )?;
    let mut predictor = Predictor::new(regions.to_vec(), cfg.forecast)
        .map_err(|_| ManagerError::InvalidSetup("predictor regions/forecast config"))?;

    let mut weighted_delay = 0.0f64;
    let mut total_weight = 0.0f64;
    let mut migrations = 0usize;
    let mut migration_usd = 0.0f64;
    let mut wasted_usd = 0.0f64;
    let mut gate_engaged = 0usize;
    let mut gate_declined = 0usize;
    let mut fingerprint = FNV_OFFSET;
    // The previous period's committed migration, still awaiting its
    // realized verdict: (placement it replaced, dollars it cost).
    let mut open_bill: Option<(Vec<usize>, f64)> = None;

    for (t, demand) in periods.iter().enumerate() {
        // 1. Realized delay of this period under the live placement.
        let live = mgr.placement().to_vec();
        weighted_delay += mean_delay(coords, &live, demand) * period_weight(demand);
        total_weight += period_weight(demand);
        for &r in &live {
            fingerprint = fnv1a(fingerprint, &(r as u64).to_le_bytes());
        }
        fingerprint = fnv1a(fingerprint, &[0xff]);

        // 2. Settle the previous round's migration against what actually
        // happened.
        if let Some((old, cost)) = open_bill.take() {
            if mean_delay(coords, &live, demand) >= mean_delay(coords, &old, demand) {
                wasted_usd += cost;
            }
        }

        // 3. Feed the period to the summarizers and the forecaster.
        for &(coord, weight) in demand {
            mgr.record_access(coord, weight);
        }
        predictor.history.push_period(demand);

        // 4. Re-place for the next period.
        let solve_on = predictor
            .demand_for(mode, periods.get(t + 1).map(Vec::as_slice))
            .map_err(|_| ManagerError::InvalidSetup("forecast on empty history"))?;
        if mode == PlacementMode::Predictive {
            match solve_on {
                Some(_) => gate_engaged += 1,
                None => gate_declined += 1,
            }
        }
        let pending = mgr.propose(solve_on.as_deref().map_or(Plan::Recorded, Plan::Demand))?;
        let decision = mgr.commit_rebalance(pending);
        if decision.applied && decision.moved > 0 {
            migrations += 1;
            migration_usd += decision.cost_usd;
            open_bill = Some((decision.old.clone(), decision.cost_usd));
        }
    }

    Ok(ModeReport {
        mode,
        periods: periods.len(),
        total_weight,
        mean_delay_ms: if total_weight > 0.0 {
            weighted_delay / total_weight
        } else {
            0.0
        },
        migrations,
        migration_usd,
        wasted_usd,
        gate_engaged,
        gate_declined,
        final_placement: mgr.placement().to_vec(),
        placement_fingerprint: fingerprint,
        stats: mgr.stats(),
    })
}

fn period_weight<const D: usize>(demand: &[(Coord<D>, f64)]) -> f64 {
    demand.iter().map(|&(_, w)| w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten nodes on a line; candidates at both ends and the middle.
    fn line() -> (Vec<Coord<1>>, Vec<usize>, Vec<Coord<1>>) {
        let coords: Vec<Coord<1>> = (0..10).map(|i| Coord::new([i as f64 * 10.0])).collect();
        let candidates = vec![0usize, 4, 9];
        let regions = candidates.iter().map(|&c| coords[c]).collect();
        (coords, candidates, regions)
    }

    fn stationary_periods(n: usize) -> Vec<Vec<(Coord<1>, f64)>> {
        (0..n)
            .map(|_| vec![(Coord::new([5.0]), 3.0), (Coord::new([85.0]), 3.0)])
            .collect()
    }

    /// Demand that swings end-to-end with a fixed cycle.
    fn swinging_periods(n: usize, cycle: usize) -> Vec<Vec<(Coord<1>, f64)>> {
        (0..n)
            .map(|t| {
                let hot = if (t / (cycle / 2)).is_multiple_of(2) {
                    5.0
                } else {
                    85.0
                };
                vec![(Coord::new([hot]), 6.0), (Coord::new([45.0]), 1.0)]
            })
            .collect()
    }

    #[test]
    fn stationary_workload_makes_predictive_equal_reactive() {
        let (coords, candidates, regions) = line();
        let cfg = ModeConfig::new(2, 4).unwrap();
        let periods = stationary_periods(12);
        let reactive = run_mode(
            &coords,
            &candidates,
            &[0, 4],
            &regions,
            &periods,
            PlacementMode::Reactive,
            &cfg,
        )
        .unwrap();
        let predictive = run_mode(
            &coords,
            &candidates,
            &[0, 4],
            &regions,
            &periods,
            PlacementMode::Predictive,
            &cfg,
        )
        .unwrap();
        // Gate never engages on stationary demand, so the predictive run
        // IS the reactive run, bit for bit.
        assert_eq!(predictive.gate_engaged, 0);
        assert_eq!(predictive.mean_delay_ms, reactive.mean_delay_ms);
        assert_eq!(
            predictive.placement_fingerprint,
            reactive.placement_fingerprint
        );
        assert_eq!(predictive.final_placement, reactive.final_placement);
    }

    #[test]
    fn oracle_beats_reactive_on_a_swinging_workload() {
        let (coords, candidates, regions) = line();
        let cfg = ModeConfig::new(1, 8).unwrap();
        let periods = swinging_periods(32, 8);
        let reactive = run_mode(
            &coords,
            &candidates,
            &[4],
            &regions,
            &periods,
            PlacementMode::Reactive,
            &cfg,
        )
        .unwrap();
        let oracle = run_mode(
            &coords,
            &candidates,
            &[4],
            &regions,
            &periods,
            PlacementMode::Oracle,
            &cfg,
        )
        .unwrap();
        assert!(
            oracle.mean_delay_ms < reactive.mean_delay_ms,
            "oracle {:.3} vs reactive {:.3}",
            oracle.mean_delay_ms,
            reactive.mean_delay_ms
        );
    }

    #[test]
    fn engaged_predictive_tracks_the_swing() {
        let (coords, candidates, regions) = line();
        let cfg = ModeConfig::new(1, 8).unwrap();
        let periods = swinging_periods(48, 8);
        let predictive = run_mode(
            &coords,
            &candidates,
            &[4],
            &regions,
            &periods,
            PlacementMode::Predictive,
            &cfg,
        )
        .unwrap();
        let reactive = run_mode(
            &coords,
            &candidates,
            &[4],
            &regions,
            &periods,
            PlacementMode::Reactive,
            &cfg,
        )
        .unwrap();
        assert!(predictive.gate_engaged > 0, "{predictive:?}");
        assert!(
            predictive.mean_delay_ms <= reactive.mean_delay_ms,
            "predictive {:.3} vs reactive {:.3}",
            predictive.mean_delay_ms,
            reactive.mean_delay_ms
        );
    }

    /// Same inputs twice, same report, in every mode.
    #[test]
    fn reports_are_identical_across_thread_counts() {
        let (coords, candidates, regions) = line();
        let periods = swinging_periods(24, 8);
        let cfg = ModeConfig::new(2, 6).unwrap();
        for mode in ALL_MODES {
            let run = || {
                run_mode(
                    &coords,
                    &candidates,
                    &[0, 4],
                    &regions,
                    &periods,
                    mode,
                    &cfg,
                )
            };
            assert_eq!(run().unwrap(), run().unwrap(), "{mode:?}");
        }
    }

    #[test]
    fn mean_delay_handles_weightless_demand() {
        let (coords, _, _) = line();
        assert_eq!(mean_delay(&coords, &[0], &[]), 0.0);
        assert_eq!(mean_delay(&coords, &[0], &[(Coord::new([50.0]), 0.0)]), 0.0);
    }

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(PlacementMode::Reactive.name(), "reactive");
        assert_eq!(PlacementMode::Predictive.name(), "predictive");
        assert_eq!(PlacementMode::Oracle.name(), "oracle");
        assert_eq!(PlacementMode::Decentralized.name(), "decentralized");
    }

    #[test]
    fn coordinate_driver_rejects_the_decentralized_mode() {
        let (coords, candidates, regions) = line();
        let cfg = ModeConfig::new(1, 4).unwrap();
        let periods = stationary_periods(4);
        let err = run_mode(
            &coords,
            &candidates,
            &[4],
            &regions,
            &periods,
            PlacementMode::Decentralized,
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, ManagerError::InvalidSetup(_)));
        assert!(err.to_string().contains("run_scenario"));
    }
}
