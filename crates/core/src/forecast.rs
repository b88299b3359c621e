//! Per-region demand forecasting over period histories.
//!
//! The reactive [`crate::manager::ReplicaManager`] re-places only after a
//! demand shift has been observed — every migration lags one summarization
//! period behind the workload. This module closes the loop the other way
//! (after Pfandzelter & Bermbach, *Towards Predictive Replica Placement
//! for Distributed Data Stores in Fog Environments*): record the demand
//! each period lands on a fixed set of *regions*, fit a seasonal-plus-
//! linear-trend model per region, and predict the next period's demand
//! so the manager can migrate **before** the shift arrives
//! ([`crate::strategy::predictive::run_mode`], the one driver that carries
//! a forecaster, drives the re-placement).
//!
//! # Model
//!
//! Each region's per-period weight series `w_0 … w_{T-1}` is decomposed as
//!
//! ```text
//! w_t ≈ intercept + slope · t + seasonal[t mod season]
//! ```
//!
//! with the trend fitted by ordinary least squares and the seasonal
//! offsets as per-phase means of the detrended residuals. Predictions are
//! clamped to be non-negative. A bitwise-constant series short-circuits to
//! that constant — "constant history predicts itself **exactly**" is part
//! of the contract (floating-point regression on constant data would
//! otherwise wobble in the last ulp).
//!
//! # Confidence gate
//!
//! Forecast-driven migration must never make a stationary workload worse,
//! so [`gate`] only *engages* prediction when all three hold:
//!
//! 1. the history is long enough to cover the seasonal structure
//!    ([`ForecastConfig::min_history`]);
//! 2. a backtest — fit on every period but the last, predict the held-out
//!    last period — lands within [`ForecastConfig::max_backtest_error`]
//!    relative L1 error;
//! 3. the predicted next period actually *differs* from the last observed
//!    one by at least [`ForecastConfig::min_shift`] — on a stationary
//!    workload the forecast matches the present, there is nothing to
//!    pre-position, and the caller falls back to the reactive path
//!    bit-for-bit.
//!
//! # Determinism
//!
//! Everything here is straight-line serial arithmetic over `Vec`s: no RNG,
//! no threads, no hash maps. Forecasts are a pure function of the pushed
//! period history, and each period's weights accumulate in input order.

use std::error::Error;
use std::fmt;

use georep_coord::Coord;

/// Error produced by the forecasting layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastError {
    /// The history contains no regions to forecast over.
    NoRegions,
    /// The history contains no recorded periods.
    EmptyHistory,
    /// Fewer periods than the operation needs.
    HistoryTooShort {
        /// Periods recorded.
        have: usize,
        /// Periods required.
        need: usize,
    },
    /// `season` was zero.
    ZeroSeason,
    /// A configuration bound was non-finite or out of range.
    BadParameter(&'static str),
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::NoRegions => write!(f, "demand history needs at least one region"),
            ForecastError::EmptyHistory => write!(f, "demand history contains no periods"),
            ForecastError::HistoryTooShort { have, need } => {
                write!(f, "history too short: have {have} periods, need {need}")
            }
            ForecastError::ZeroSeason => write!(f, "season length must be at least 1 period"),
            ForecastError::BadParameter(p) => write!(f, "parameter {p} is out of range"),
        }
    }
}

impl Error for ForecastError {}

/// Tuning of the forecaster and its confidence gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForecastConfig {
    /// Periods per seasonal cycle (24 for hourly periods of a diurnal
    /// workload; 1 disables seasonality and fits a pure trend).
    pub season: usize,
    /// Minimum recorded periods before the gate may engage. Defaults to
    /// two full seasons (and never below 4), so every phase has been seen
    /// at least twice.
    pub min_history: usize,
    /// Maximum relative L1 error of the held-out backtest; above it the
    /// forecast is not trusted and the gate declines.
    pub max_backtest_error: f64,
    /// Minimum relative L1 difference between the predicted next period
    /// and the last observed one; below it the workload is stationary and
    /// the gate declines (there is nothing to pre-position).
    pub min_shift: f64,
}

impl ForecastConfig {
    /// Default bounds for a `season`-period cycle.
    ///
    /// # Errors
    ///
    /// [`ForecastError::ZeroSeason`] when `season` is zero.
    pub fn new(season: usize) -> Result<Self, ForecastError> {
        if season == 0 {
            return Err(ForecastError::ZeroSeason);
        }
        Ok(ForecastConfig {
            season,
            min_history: (2 * season).max(4),
            max_backtest_error: 0.35,
            min_shift: 0.02,
        })
    }

    /// Validates the numeric bounds.
    ///
    /// # Errors
    ///
    /// [`ForecastError::ZeroSeason`] / [`ForecastError::BadParameter`] on
    /// a zero season or a non-finite / negative bound.
    pub fn validate(&self) -> Result<(), ForecastError> {
        if self.season == 0 {
            return Err(ForecastError::ZeroSeason);
        }
        if !self.max_backtest_error.is_finite() || self.max_backtest_error < 0.0 {
            return Err(ForecastError::BadParameter("max_backtest_error"));
        }
        if !self.min_shift.is_finite() || self.min_shift < 0.0 {
            return Err(ForecastError::BadParameter("min_shift"));
        }
        Ok(())
    }
}

/// One region's fitted seasonal + trend decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalTrend {
    /// OLS intercept of the linear trend.
    pub intercept: f64,
    /// OLS slope of the linear trend, per period.
    pub slope: f64,
    /// Mean detrended residual per phase (`len == season`); phases never
    /// observed carry 0.
    pub seasonal: Vec<f64>,
}

impl SeasonalTrend {
    /// The model's value at period index `t`, clamped to be non-negative
    /// (demand weights cannot go below zero).
    pub fn predict(&self, t: usize) -> f64 {
        let phase = t % self.seasonal.len();
        (self.intercept + self.slope * t as f64 + self.seasonal[phase]).max(0.0)
    }
}

/// Fits one series. A bitwise-constant series (including a single sample)
/// short-circuits to `intercept = value, slope = 0, seasonal = 0` so the
/// prediction reproduces the constant exactly.
///
/// # Errors
///
/// [`ForecastError::EmptyHistory`] on an empty series,
/// [`ForecastError::ZeroSeason`] on a zero season.
pub fn fit_seasonal_trend(series: &[f64], season: usize) -> Result<SeasonalTrend, ForecastError> {
    if season == 0 {
        return Err(ForecastError::ZeroSeason);
    }
    if series.is_empty() {
        return Err(ForecastError::EmptyHistory);
    }
    let constant = series.iter().all(|&w| w.to_bits() == series[0].to_bits());
    if constant {
        return Ok(SeasonalTrend {
            intercept: series[0],
            slope: 0.0,
            seasonal: vec![0.0; season],
        });
    }
    let n = series.len() as f64;
    let t_mean = (series.len() - 1) as f64 / 2.0;
    let w_mean: f64 = series.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (t, &w) in series.iter().enumerate() {
        let dt = t as f64 - t_mean;
        num += dt * (w - w_mean);
        den += dt * dt;
    }
    let slope = if den > 0.0 { num / den } else { 0.0 };
    let intercept = w_mean - slope * t_mean;

    let mut sums = vec![0.0f64; season];
    let mut counts = vec![0u32; season];
    for (t, &w) in series.iter().enumerate() {
        let residual = w - (intercept + slope * t as f64);
        sums[t % season] += residual;
        counts[t % season] += 1;
    }
    let seasonal: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    Ok(SeasonalTrend {
        intercept,
        slope,
        seasonal,
    })
}

/// Why the confidence gate declined — or that it engaged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateDecision {
    /// Forecast trusted and non-trivial: drive placement on it.
    Engage,
    /// Not enough periods recorded yet; fall back to reactive.
    HistoryTooShort {
        /// Periods recorded.
        have: usize,
        /// Periods required.
        need: usize,
    },
    /// The held-out backtest missed by too much; fall back to reactive.
    ErrorTooHigh {
        /// Measured relative L1 backtest error.
        error: f64,
        /// Configured bound.
        bound: f64,
    },
    /// The forecast matches the present — stationary workload, nothing to
    /// pre-position; fall back to reactive.
    Stationary {
        /// Measured relative L1 shift.
        shift: f64,
        /// Configured minimum.
        bound: f64,
    },
}

impl GateDecision {
    /// Whether prediction should drive the next placement round.
    pub fn engaged(&self) -> bool {
        matches!(self, GateDecision::Engage)
    }
}

/// Per-region, per-period demand weights on a fixed region set.
///
/// Regions are fixed at construction; every pushed period maps each demand
/// point to its nearest region (ties broken toward the lowest region
/// index) and accumulates the weight in input order, so the recorded
/// series — and everything fitted from it — is a deterministic pure
/// function of the pushed demand.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandHistory<const D: usize> {
    regions: Vec<Coord<D>>,
    /// Row-major `[period][region]` weights.
    weights: Vec<f64>,
    periods: usize,
}

impl<const D: usize> DemandHistory<D> {
    /// A history over a fixed, non-empty region set.
    ///
    /// # Errors
    ///
    /// [`ForecastError::NoRegions`] when `regions` is empty.
    pub fn new(regions: Vec<Coord<D>>) -> Result<Self, ForecastError> {
        if regions.is_empty() {
            return Err(ForecastError::NoRegions);
        }
        Ok(DemandHistory {
            regions,
            weights: Vec::new(),
            periods: 0,
        })
    }

    /// Recorded periods.
    pub fn periods(&self) -> usize {
        self.periods
    }

    /// The last recorded period's weights, one per region.
    pub fn last_period(&self) -> Option<&[f64]> {
        if self.periods == 0 {
            return None;
        }
        let n = self.regions.len();
        Some(&self.weights[(self.periods - 1) * n..self.periods * n])
    }

    /// Aggregates one period's demand onto the region set: each point goes
    /// to its nearest region (lowest index on ties), weights accumulate in
    /// input order. An empty `demand` records a zero-access period.
    pub fn push_period(&mut self, demand: &[(Coord<D>, f64)]) {
        let n = self.regions.len();
        let base = self.weights.len();
        self.weights.resize(base + n, 0.0);
        for &(coord, weight) in demand {
            let region = self.nearest_region(&coord);
            self.weights[base + region] += weight;
        }
        self.periods += 1;
    }

    /// Aggregates `demand` onto the region set without recording it — the
    /// same mapping [`DemandHistory::push_period`] applies, exposed so a
    /// perfect-foresight oracle can feed *actual* next-period demand
    /// through the identical regional summarization a forecast would use.
    pub fn aggregate(&self, demand: &[(Coord<D>, f64)]) -> Vec<(Coord<D>, f64)> {
        let mut weights = vec![0.0f64; self.regions.len()];
        for &(coord, weight) in demand {
            weights[self.nearest_region(&coord)] += weight;
        }
        self.regions
            .iter()
            .zip(&weights)
            .filter(|&(_, &w)| w > 0.0)
            .map(|(&c, &w)| (c, w))
            .collect()
    }

    fn nearest_region(&self, coord: &Coord<D>) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, r) in self.regions.iter().enumerate() {
            let d = r.distance(coord);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    /// Fits every region on periods `0..upto` and predicts period index
    /// `t`, returning one weight per region.
    fn predict_with(
        &self,
        upto: usize,
        t: usize,
        season: usize,
    ) -> Result<Vec<f64>, ForecastError> {
        if upto == 0 {
            return Err(ForecastError::EmptyHistory);
        }
        let n = self.regions.len();
        (0..n)
            .map(|r| {
                let series: Vec<f64> = (0..upto).map(|p| self.weights[p * n + r]).collect();
                Ok(fit_seasonal_trend(&series, season)?.predict(t))
            })
            .collect()
    }

    /// Predicts the next period's regional demand. Regions whose predicted
    /// weight clamps to zero are omitted (a weightless point would carry
    /// no information for placement).
    ///
    /// # Errors
    ///
    /// [`ForecastError::EmptyHistory`] when no period was recorded,
    /// [`ForecastError::ZeroSeason`] on a zero season.
    pub fn forecast_next(&self, season: usize) -> Result<Vec<(Coord<D>, f64)>, ForecastError> {
        if season == 0 {
            return Err(ForecastError::ZeroSeason);
        }
        let predicted = self.predict_with(self.periods, self.periods, season)?;
        Ok(self
            .regions
            .iter()
            .zip(&predicted)
            .filter(|&(_, &w)| w > 0.0)
            .map(|(&c, &w)| (c, w))
            .collect())
    }

    /// Relative L1 error of the held-out backtest: fit on every period but
    /// the last, predict the last, compare against what actually happened.
    /// Zero actual demand with a zero prediction scores 0; zero actual
    /// demand with any predicted weight scores the predicted mass itself
    /// (fully wrong).
    ///
    /// # Errors
    ///
    /// [`ForecastError::HistoryTooShort`] below 2 periods,
    /// [`ForecastError::ZeroSeason`] on a zero season.
    pub fn backtest_error(&self, season: usize) -> Result<f64, ForecastError> {
        if season == 0 {
            return Err(ForecastError::ZeroSeason);
        }
        if self.periods < 2 {
            return Err(ForecastError::HistoryTooShort {
                have: self.periods,
                need: 2,
            });
        }
        let predicted = self.predict_with(self.periods - 1, self.periods - 1, season)?;
        let actual = self.last_period().expect("periods >= 2");
        Ok(relative_l1(&predicted, actual))
    }

    /// Relative L1 distance between the predicted next period and the last
    /// observed one — how much demand the forecast expects to move.
    ///
    /// # Errors
    ///
    /// [`ForecastError::EmptyHistory`] when no period was recorded,
    /// [`ForecastError::ZeroSeason`] on a zero season.
    pub fn predicted_shift(&self, season: usize) -> Result<f64, ForecastError> {
        if season == 0 {
            return Err(ForecastError::ZeroSeason);
        }
        let predicted = self.predict_with(self.periods, self.periods, season)?;
        let last = self.last_period().ok_or(ForecastError::EmptyHistory)?;
        Ok(relative_l1(&predicted, last))
    }
}

/// `Σ|a−b| / Σ|b|`, with the all-zero-reference edge cases pinned: both
/// sides zero → 0 (nothing moved), reference zero but `a` carries mass →
/// that mass (fully wrong).
fn relative_l1(a: &[f64], b: &[f64]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
    let denom: f64 = b.iter().map(|y| y.abs()).sum();
    if denom > 0.0 {
        diff / denom
    } else {
        diff
    }
}

/// Evaluates the confidence gate over `history` (see the module docs for
/// the three conditions). Never panics: any internal forecast error simply
/// declines the gate with the matching reason.
pub fn gate<const D: usize>(history: &DemandHistory<D>, cfg: &ForecastConfig) -> GateDecision {
    let need = cfg.min_history.max(2);
    if history.periods() < need {
        return GateDecision::HistoryTooShort {
            have: history.periods(),
            need,
        };
    }
    let error = match history.backtest_error(cfg.season) {
        Ok(e) => e,
        Err(_) => {
            return GateDecision::HistoryTooShort {
                have: history.periods(),
                need,
            }
        }
    };
    if error > cfg.max_backtest_error {
        return GateDecision::ErrorTooHigh {
            error,
            bound: cfg.max_backtest_error,
        };
    }
    let shift = match history.predicted_shift(cfg.season) {
        Ok(s) => s,
        Err(_) => {
            return GateDecision::HistoryTooShort {
                have: history.periods(),
                need,
            }
        }
    };
    if shift < cfg.min_shift {
        return GateDecision::Stationary {
            shift,
            bound: cfg.min_shift,
        };
    }
    GateDecision::Engage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_1d(regions: &[f64]) -> DemandHistory<1> {
        DemandHistory::new(regions.iter().map(|&x| Coord::new([x])).collect()).unwrap()
    }

    #[test]
    fn empty_region_set_rejected() {
        assert_eq!(
            DemandHistory::<1>::new(vec![]).unwrap_err(),
            ForecastError::NoRegions
        );
    }

    #[test]
    fn constant_history_predicts_itself_exactly() {
        let mut h = history_1d(&[0.0, 100.0]);
        // 0.1 is not exactly representable: a naive OLS round-trip would
        // miss in the last ulp, the constant short-circuit must not.
        for _ in 0..7 {
            h.push_period(&[(Coord::new([1.0]), 0.1), (Coord::new([99.0]), 0.3)]);
        }
        let next = h.forecast_next(24).unwrap();
        assert_eq!(
            next,
            vec![(Coord::new([0.0]), 0.1), (Coord::new([100.0]), 0.3)]
        );
        assert_eq!(h.backtest_error(24).unwrap(), 0.0);
        assert_eq!(h.predicted_shift(24).unwrap(), 0.0);
    }

    #[test]
    fn planted_diurnal_signal_is_recovered() {
        // One region with w(t) = 10 + 4·cos(2πt/8) + 0.05·t over 4 cycles.
        let season = 8;
        let mut h = history_1d(&[0.0]);
        let value = |t: usize| {
            10.0 + 4.0 * (std::f64::consts::TAU * t as f64 / season as f64).cos() + 0.05 * t as f64
        };
        let total = 4 * season;
        for t in 0..total {
            h.push_period(&[(Coord::new([0.0]), value(t))]);
        }
        let predicted = h.forecast_next(season).unwrap()[0].1;
        let truth = value(total);
        // The seasonal residual means absorb a little trend misfit (the
        // finite-window cosine is not exactly orthogonal to t), so allow
        // ~5% of the ~14-weight signal.
        assert!(
            (predicted - truth).abs() < 0.7,
            "predicted {predicted:.3}, truth {truth:.3}"
        );
        // And the backtest agrees the model is good.
        assert!(h.backtest_error(season).unwrap() < 0.1);
    }

    #[test]
    fn pure_trend_is_tracked_with_season_one() {
        let mut h = history_1d(&[0.0]);
        for t in 0..10 {
            h.push_period(&[(Coord::new([0.0]), 5.0 + 2.0 * t as f64)]);
        }
        let predicted = h.forecast_next(1).unwrap()[0].1;
        assert!((predicted - 25.0).abs() < 1e-6, "predicted {predicted}");
    }

    #[test]
    fn degenerate_inputs_error_or_fall_back_cleanly() {
        let h = history_1d(&[0.0, 10.0]);
        // Empty history: typed errors, no panic.
        assert_eq!(
            h.forecast_next(24).unwrap_err(),
            ForecastError::EmptyHistory
        );
        assert!(matches!(
            h.backtest_error(24),
            Err(ForecastError::HistoryTooShort { have: 0, need: 2 })
        ));
        // Zero season: typed error.
        assert_eq!(
            fit_seasonal_trend(&[1.0], 0).unwrap_err(),
            ForecastError::ZeroSeason
        );
        assert_eq!(h.forecast_next(0).unwrap_err(), ForecastError::ZeroSeason);
        // Single period: forecastable (constant short-circuit), but the
        // gate declines on history length.
        let mut h = history_1d(&[0.0, 10.0]);
        h.push_period(&[(Coord::new([0.0]), 2.0)]);
        assert_eq!(h.forecast_next(24).unwrap(), vec![(Coord::new([0.0]), 2.0)]);
        let cfg = ForecastConfig::new(24).unwrap();
        assert!(matches!(
            gate(&h, &cfg),
            GateDecision::HistoryTooShort { have: 1, .. }
        ));
        // All-zero periods: predicts no demand, gate declines as
        // stationary once history suffices — never a panic.
        let mut h = history_1d(&[0.0]);
        for _ in 0..8 {
            h.push_period(&[]);
        }
        assert_eq!(h.forecast_next(2).unwrap(), vec![]);
        let cfg = ForecastConfig::new(2).unwrap();
        assert!(matches!(gate(&h, &cfg), GateDecision::Stationary { .. }));
    }

    #[test]
    fn gate_engages_on_a_learnable_shift_and_declines_on_stationary() {
        let season = 6;
        let cfg = ForecastConfig::new(season).unwrap();
        // Stationary: declines with Stationary once history suffices.
        let mut flat = history_1d(&[0.0, 50.0]);
        for _ in 0..3 * season {
            flat.push_period(&[(Coord::new([0.0]), 1.0), (Coord::new([50.0]), 1.0)]);
        }
        assert!(matches!(gate(&flat, &cfg), GateDecision::Stationary { .. }));
        // Seasonal swing between the two regions: engages.
        let mut swing = history_1d(&[0.0, 50.0]);
        for t in 0..3 * season {
            let a = if t % season < season / 2 { 4.0 } else { 1.0 };
            swing.push_period(&[(Coord::new([0.0]), a), (Coord::new([50.0]), 5.0 - a)]);
        }
        assert!(gate(&swing, &cfg).engaged(), "{:?}", gate(&swing, &cfg));
    }

    #[test]
    fn unpredictable_noise_declines_on_backtest_error() {
        let cfg = ForecastConfig {
            max_backtest_error: 0.10,
            ..ForecastConfig::new(2).unwrap()
        };
        // Flat history ending in an unforeseeable spike: the backtest
        // (fit on the flat prefix, predict the spike) misses by ~95%.
        let mut h = history_1d(&[0.0]);
        for _ in 0..8 {
            h.push_period(&[(Coord::new([0.0]), 1.0)]);
        }
        h.push_period(&[(Coord::new([0.0]), 20.0)]);
        assert!(matches!(gate(&h, &cfg), GateDecision::ErrorTooHigh { .. }));
    }

    #[test]
    fn ties_map_to_the_lowest_region_index() {
        let mut h = history_1d(&[10.0, 30.0]);
        // x = 20 is equidistant: region 0 must win.
        h.push_period(&[(Coord::new([20.0]), 1.0)]);
        assert_eq!(h.last_period().unwrap(), &[1.0, 0.0]);
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            ForecastConfig::new(0).unwrap_err(),
            ForecastError::ZeroSeason
        );
        let mut cfg = ForecastConfig::new(4).unwrap();
        assert!(cfg.validate().is_ok());
        cfg.max_backtest_error = f64::NAN;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ForecastError::BadParameter("max_backtest_error")
        );
        cfg = ForecastConfig::new(4).unwrap();
        cfg.min_shift = -1.0;
        assert_eq!(
            cfg.validate().unwrap_err(),
            ForecastError::BadParameter("min_shift")
        );
    }

    #[test]
    fn error_display() {
        assert!(ForecastError::NoRegions.to_string().contains("region"));
        assert!(ForecastError::HistoryTooShort { have: 1, need: 4 }
            .to_string()
            .contains("have 1"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Constant series round-trip exactly, whatever the value,
            /// length, or season.
            #[test]
            fn constant_series_round_trip(
                value in 0.0f64..1e6,
                len in 1usize..40,
                season in 1usize..30,
            ) {
                let series = vec![value; len];
                let model = fit_seasonal_trend(&series, season).unwrap();
                prop_assert_eq!(model.predict(len), value);
            }

            /// Predictions are never negative and always finite for finite
            /// histories.
            #[test]
            fn predictions_stay_finite_and_non_negative(
                weights in proptest::collection::vec(0.0f64..1e4, 1..50),
                season in 1usize..25,
            ) {
                let mut h = DemandHistory::new(vec![Coord::new([0.0f64])]).unwrap();
                for &w in &weights {
                    h.push_period(&[(Coord::new([0.0]), w)]);
                }
                for (_, w) in h.forecast_next(season).unwrap() {
                    prop_assert!(w.is_finite() && w > 0.0);
                }
            }

            /// The gate never panics, whatever the history shape.
            #[test]
            fn gate_is_total(
                weights in proptest::collection::vec(0.0f64..100.0, 0..30),
                season in 1usize..10,
            ) {
                let mut h = DemandHistory::new(vec![
                    Coord::new([0.0f64]),
                    Coord::new([80.0]),
                ]).unwrap();
                for (i, &w) in weights.iter().enumerate() {
                    let x = if i % 2 == 0 { 0.0 } else { 80.0 };
                    h.push_period(&[(Coord::new([x]), w)]);
                }
                let cfg = ForecastConfig::new(season).unwrap();
                let _ = gate(&h, &cfg);
            }
        }
    }
}
