//! Differential suite for forecast-driven pre-positioning
//! (`georep::core::strategy::predictive`) against the reactive manager.
//!
//! The contract under test (DESIGN.md §15):
//!
//! * on a **stationary** workload the confidence gate declines every
//!   round, so the predictive run IS the reactive run, bit for bit;
//! * on the shifting workloads (`PhasedWorkload::diurnal` / `drift`) the
//!   engaged forecast serves demand strictly below the reactive delay, and
//!   the regret ordering `oracle ≤ predictive ≤ reactive` holds;
//! * every mode's full report is bit-identical from run to run.

use std::sync::OnceLock;

use georep::coord::rnp::Rnp;
use georep::coord::{Coord, EmbeddingRunner};
use georep::core::experiment::DIMS;
use georep::core::forecast::{gate, MAX_BACKTEST_ERROR, MIN_SHIFT};
use georep::core::strategy::predictive::{
    run_mode, ModeConfig, ModeReport, PlacementMode, ALL_MODES,
};
use georep::core::{DemandHistory, ForecastConfig, GateDecision};
use georep::net::topology::{Topology, TopologyConfig};
use georep::workload::population::Population;
use georep::workload::stream::{generate, AccessEvent, PhasedWorkload, StreamConfig};

/// One simulated hour (compressed), the diurnal phase / drift step length.
const HOUR_MS: f64 = 1_000.0;
/// Hours per re-placement period on the diurnal workload.
const PERIOD_HOURS: usize = 3;
/// Diurnal forecast season: periods per simulated day.
const SEASON: usize = 24 / PERIOD_HOURS;
/// Replicas maintained — fewer than the regional peaks, so the placement
/// has to chase the demand.
const K: usize = 2;

struct Fixture {
    coords: Vec<Coord<DIMS>>,
    candidates: Vec<usize>,
    clients: Vec<usize>,
    regions: Vec<Coord<DIMS>>,
    diurnal: Vec<Vec<(Coord<DIMS>, f64)>>,
    drift: Vec<Vec<(Coord<DIMS>, f64)>>,
    stationary: Vec<Vec<(Coord<DIMS>, f64)>>,
}

fn bucket(
    events: &[AccessEvent],
    clients: &[usize],
    coords: &[Coord<DIMS>],
    period_ms: f64,
    n_periods: usize,
) -> Vec<Vec<(Coord<DIMS>, f64)>> {
    let mut weights = vec![vec![0.0f64; clients.len()]; n_periods];
    for e in events {
        let p = ((e.at_ms / period_ms) as usize).min(n_periods - 1);
        weights[p][e.client] += 1.0;
    }
    weights
        .into_iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .map(|(i, &w)| (coords[clients[i]], w))
                .collect()
        })
        .collect()
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let topo = Topology::generate(TopologyConfig {
            nodes: 128,
            seed: georep::net::planetlab::PLANETLAB_SEED,
            ..Default::default()
        })
        .expect("valid topology");
        let matrix = topo.matrix();
        let n = matrix.len();
        let runner = EmbeddingRunner {
            rounds: 60,
            samples_per_round: 4,
            seed: 0xDECA,
        };
        let (coords, _) = runner.run(n, |i, j| matrix.get(i, j), |_| Rnp::<DIMS>::new());
        let candidates: Vec<usize> = (0..n).step_by(5).collect();
        let clients: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
        let regions: Vec<Coord<DIMS>> = candidates.iter().map(|&c| coords[c]).collect();

        let by_lon = |lo: f64, hi: f64| -> Population {
            Population::from_weights(
                clients
                    .iter()
                    .map(|&c| {
                        let lon = topo.nodes()[c].location.lon_deg();
                        if lon >= lo && lon < hi {
                            1.0
                        } else {
                            0.02
                        }
                    })
                    .collect(),
            )
            .expect("active clients exist")
        };
        let americas = by_lon(-130.0, -30.0);
        let europe = by_lon(-30.0, 60.0);
        let asia = by_lon(60.0, 180.0);
        let cfg = StreamConfig {
            rate_per_ms: 2.0,
            seed: 0xF0CA,
            ..Default::default()
        };

        // Four simulated days of the sun-following mix, in 3-hour periods.
        let diurnal_hours = 4 * 24;
        let diurnal_events = PhasedWorkload::diurnal(
            &[
                (americas.clone(), 4.0),
                (europe, 12.0),
                (asia.clone(), 20.0),
            ],
            diurnal_hours,
            HOUR_MS,
        )
        .expect("valid diurnal workload")
        .generate(&cfg);
        let diurnal = bucket(
            &diurnal_events,
            &clients,
            &coords,
            PERIOD_HOURS as f64 * HOUR_MS,
            diurnal_hours / PERIOD_HOURS,
        );

        // One west → east migration, one step per period.
        let drift_events = PhasedWorkload::drift(&americas, &asia, 12, HOUR_MS)
            .expect("valid drift workload")
            .generate(&cfg);
        let drift = bucket(&drift_events, &clients, &coords, HOUR_MS, 12);

        // Stationary: one generated period of uniform demand, repeated.
        // The repeated series is bitwise constant, so the forecaster
        // predicts it exactly and the gate declines as `Stationary`.
        let stationary_events = generate(
            &Population::uniform(clients.len()),
            &StreamConfig {
                rate_per_ms: 0.5,
                seed: 0x57A7,
                ..Default::default()
            },
            PERIOD_HOURS as f64 * HOUR_MS,
        );
        let one_period = bucket(
            &stationary_events,
            &clients,
            &coords,
            PERIOD_HOURS as f64 * HOUR_MS,
            1,
        );
        let stationary: Vec<_> = (0..3 * SEASON).map(|_| one_period[0].clone()).collect();

        Fixture {
            coords,
            candidates,
            clients,
            regions,
            diurnal,
            drift,
            stationary,
        }
    })
}

fn run(
    fx: &Fixture,
    periods: &[Vec<(Coord<DIMS>, f64)>],
    mode: PlacementMode,
    season: usize,
) -> ModeReport {
    let cfg = ModeConfig::new(K, season).expect("valid season");
    run_mode(
        &fx.coords,
        &fx.candidates,
        &fx.candidates[..K],
        &fx.regions,
        periods,
        mode,
        &cfg,
    )
    .expect("mode run succeeds")
}

#[test]
fn stationary_workload_runs_predictive_bit_identical_to_reactive() {
    let fx = fixture();
    let reactive = run(fx, &fx.stationary, PlacementMode::Reactive, SEASON);
    let predictive = run(fx, &fx.stationary, PlacementMode::Predictive, SEASON);
    // The gate never engages, so the two runs are the same run: every
    // per-period placement (the fingerprint), every counter, every delay.
    assert_eq!(predictive.gate_engaged, 0, "{predictive:?}");
    assert_eq!(
        predictive.gate_declined,
        fx.stationary.len(),
        "every round must fall back to the reactive loop"
    );
    assert_eq!(
        predictive.placement_fingerprint,
        reactive.placement_fingerprint
    );
    assert_eq!(predictive.final_placement, reactive.final_placement);
    assert_eq!(
        predictive.mean_delay_ms.to_bits(),
        reactive.mean_delay_ms.to_bits()
    );
    assert_eq!(predictive.stats, reactive.stats);
}

#[test]
fn predictive_serves_the_diurnal_swing_at_or_below_reactive_delay() {
    let fx = fixture();
    let reactive = run(fx, &fx.diurnal, PlacementMode::Reactive, SEASON);
    let predictive = run(fx, &fx.diurnal, PlacementMode::Predictive, SEASON);
    assert!(
        predictive.gate_engaged > 0,
        "the forecast gate must engage after the warm-up days: {predictive:?}"
    );
    assert!(
        predictive.mean_delay_ms < reactive.mean_delay_ms,
        "predictive {:.4} ms vs reactive {:.4} ms",
        predictive.mean_delay_ms,
        reactive.mean_delay_ms
    );
}

#[test]
fn predictive_serves_the_drift_strictly_below_reactive_delay() {
    let fx = fixture();
    // Season 1: the trend component alone carries the forecast.
    let reactive = run(fx, &fx.drift, PlacementMode::Reactive, 1);
    let predictive = run(fx, &fx.drift, PlacementMode::Predictive, 1);
    assert!(predictive.gate_engaged > 0, "{predictive:?}");
    assert!(
        predictive.mean_delay_ms < reactive.mean_delay_ms,
        "predictive {:.4} ms vs reactive {:.4} ms",
        predictive.mean_delay_ms,
        reactive.mean_delay_ms
    );
}

#[test]
fn regret_ordering_is_oracle_then_predictive_then_reactive() {
    let fx = fixture();
    for (workload, periods, season) in [("diurnal", &fx.diurnal, SEASON), ("drift", &fx.drift, 1)] {
        let oracle = run(fx, periods, PlacementMode::Oracle, season);
        let predictive = run(fx, periods, PlacementMode::Predictive, season);
        let reactive = run(fx, periods, PlacementMode::Reactive, season);
        for r in [&oracle, &predictive, &reactive] {
            println!(
                "{workload:<8} {:<11} {:.2} ms, regret {:.2} ms, gate {}/{}, ${:.2} spent, ${:.2} wasted",
                r.mode.name(),
                r.mean_delay_ms,
                r.regret_vs(oracle.mean_delay_ms),
                r.gate_engaged,
                r.gate_declined,
                r.migration_usd,
                r.wasted_usd
            );
        }
        assert!(
            oracle.mean_delay_ms <= predictive.mean_delay_ms + 1e-9,
            "oracle {:.4} ms above predictive {:.4} ms",
            oracle.mean_delay_ms,
            predictive.mean_delay_ms
        );
        assert!(
            predictive.mean_delay_ms <= reactive.mean_delay_ms + 1e-9,
            "predictive {:.4} ms above reactive {:.4} ms",
            predictive.mean_delay_ms,
            reactive.mean_delay_ms
        );
        // Regret against the oracle floor agrees with the raw delays.
        assert!(predictive.regret_vs(oracle.mean_delay_ms) >= -1e-9);
        assert!(
            predictive.regret_vs(oracle.mean_delay_ms)
                <= reactive.regret_vs(oracle.mean_delay_ms) + 1e-9
        );
    }
}

/// Every mode, run twice on the diurnal workload, reports bit-identically.
#[test]
fn every_mode_reports_bit_identically_across_thread_counts() {
    let fx = fixture();
    for mode in ALL_MODES {
        let first = run(fx, &fx.diurnal, mode, SEASON);
        assert_eq!(run(fx, &fx.diurnal, mode, SEASON), first, "{mode:?}");
    }
}

// ---------------------------------------------------------------------------
// Negative paths of the confidence gate: every typed decline reason is
// constructible from a crafted history, and a declining workload falls back
// bit-identically to the reactive loop.
// ---------------------------------------------------------------------------

/// A history on the fixture's region set whose period `t` is the fixed
/// per-region profile scaled by `factors[t]` — constant factors make a
/// stationary series, erratic factors an unforecastable one.
fn scaled_history(fx: &Fixture, factors: &[f64]) -> DemandHistory<DIMS> {
    let mut history = DemandHistory::new(fx.regions.clone()).expect("fixture regions");
    for &f in factors {
        let demand: Vec<(Coord<DIMS>, f64)> = fx
            .regions
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, f * (1.0 + (i % 3) as f64)))
            .collect();
        history.push_period(&demand);
    }
    history
}

/// Exponentially blowing-up scale factors: the forecaster's
/// linear-plus-seasonal model cannot track geometric growth, so the
/// held-out backtest misses the error bound at every prefix length.
fn erratic_factors(n: usize) -> Vec<f64> {
    (0..n).map(|i| 3f64.powi(i as i32)).collect()
}

#[test]
fn gate_declines_history_too_short_with_exact_counts() {
    let fx = fixture();
    let cfg = ForecastConfig::new(SEASON).expect("valid season");
    let need = (2 * SEASON).max(4);
    assert_eq!(cfg.min_history(), need);
    // Every prefix below the requirement declines with the exact counts —
    // including the empty history.
    for have in 0..need {
        let history = scaled_history(fx, &vec![1.0; have]);
        assert_eq!(
            gate(&history, &cfg),
            GateDecision::HistoryTooShort { have, need },
            "prefix of {have} periods"
        );
        assert!(!gate(&history, &cfg).engaged());
    }
}

#[test]
fn gate_declines_history_too_short_when_the_forecast_itself_errors() {
    // The fallback arm: enough periods for the gate's own length check,
    // but the backtest cannot run (zero season) — the gate must decline as
    // HistoryTooShort rather than panic or engage.
    let fx = fixture();
    let mut cfg = ForecastConfig::new(SEASON).expect("valid season");
    cfg.season = 0;
    let have = cfg.min_history();
    let history = scaled_history(fx, &erratic_factors(have));
    assert_eq!(
        gate(&history, &cfg),
        GateDecision::HistoryTooShort { have, need: have }
    );
}

#[test]
fn gate_declines_error_too_high_on_an_erratic_history() {
    let fx = fixture();
    let cfg = ForecastConfig::new(SEASON).expect("valid season");
    let history = scaled_history(fx, &erratic_factors(20));
    assert!(history.periods() >= cfg.min_history());
    match gate(&history, &cfg) {
        GateDecision::ErrorTooHigh { error, bound } => {
            assert_eq!(bound.to_bits(), MAX_BACKTEST_ERROR.to_bits());
            assert!(error > bound, "error {error} must exceed the bound {bound}");
            assert!(error.is_finite());
        }
        other => panic!("expected ErrorTooHigh, got {other:?}"),
    }
}

#[test]
fn gate_declines_stationary_on_a_constant_history() {
    let fx = fixture();
    let cfg = ForecastConfig::new(SEASON).expect("valid season");
    let history = scaled_history(fx, &vec![3.0; cfg.min_history() + 2]);
    match gate(&history, &cfg) {
        GateDecision::Stationary { shift, bound } => {
            assert_eq!(bound.to_bits(), MIN_SHIFT.to_bits());
            assert!(
                shift < bound,
                "shift {shift} must sit below the bound {bound}"
            );
            assert!(shift >= 0.0);
        }
        other => panic!("expected Stationary, got {other:?}"),
    }
}

#[test]
fn short_history_workload_falls_back_bit_identical_to_reactive() {
    // Fewer periods than the gate's warm-up requirement: every round
    // declines HistoryTooShort, so the predictive run IS the reactive run.
    let fx = fixture();
    let short = &fx.diurnal[..4];
    assert!(short.len() < ForecastConfig::new(SEASON).unwrap().min_history());
    let reactive = run(fx, short, PlacementMode::Reactive, SEASON);
    let predictive = run(fx, short, PlacementMode::Predictive, SEASON);
    assert_eq!(predictive.gate_engaged, 0, "{predictive:?}");
    assert_eq!(predictive.gate_declined, short.len());
    assert_eq!(
        predictive.placement_fingerprint,
        reactive.placement_fingerprint
    );
    assert_eq!(predictive.final_placement, reactive.final_placement);
    assert_eq!(
        predictive.mean_delay_ms.to_bits(),
        reactive.mean_delay_ms.to_bits()
    );
    assert_eq!(predictive.stats, reactive.stats);
}

#[test]
fn erratic_workload_falls_back_bit_identical_to_reactive() {
    // An unforecastable workload: once past the warm-up, every round's
    // backtest misses the bound and the gate declines ErrorTooHigh — the
    // run must still be bitwise the reactive run.
    let fx = fixture();
    let cfg = ForecastConfig::new(SEASON).expect("valid season");
    let periods: Vec<Vec<(Coord<DIMS>, f64)>> = erratic_factors(20)
        .iter()
        .map(|&f| fx.stationary[0].iter().map(|&(c, w)| (c, w * f)).collect())
        .collect();
    // Pin the per-round reason: every prefix long enough to clear the
    // warm-up declines as ErrorTooHigh on the history run_mode maintains.
    let mut history = DemandHistory::new(fx.regions.clone()).expect("fixture regions");
    for (t, period) in periods.iter().enumerate() {
        history.push_period(period);
        if t + 1 >= cfg.min_history() {
            assert!(
                matches!(gate(&history, &cfg), GateDecision::ErrorTooHigh { .. }),
                "prefix of {} periods: {:?}",
                t + 1,
                gate(&history, &cfg)
            );
        }
    }
    let reactive = run(fx, &periods, PlacementMode::Reactive, SEASON);
    let predictive = run(fx, &periods, PlacementMode::Predictive, SEASON);
    assert_eq!(predictive.gate_engaged, 0, "{predictive:?}");
    assert_eq!(predictive.gate_declined, periods.len());
    assert_eq!(
        predictive.placement_fingerprint,
        reactive.placement_fingerprint
    );
    assert_eq!(predictive.final_placement, reactive.final_placement);
    assert_eq!(
        predictive.mean_delay_ms.to_bits(),
        reactive.mean_delay_ms.to_bits()
    );
    assert_eq!(predictive.stats, reactive.stats);
}

#[test]
fn fixture_demand_is_nontrivial() {
    // Guard against the workload degenerating into something the suite
    // would vacuously pass on.
    let fx = fixture();
    assert_eq!(fx.clients.len() + fx.candidates.len(), fx.coords.len());
    assert!(fx.diurnal.iter().all(|p| !p.is_empty()));
    assert!(fx.drift.iter().all(|p| !p.is_empty()));
    let weight: f64 = fx
        .diurnal
        .iter()
        .flat_map(|p| p.iter().map(|&(_, w)| w))
        .sum();
    assert!(weight > 1_000.0, "diurnal weight {weight}");
}
