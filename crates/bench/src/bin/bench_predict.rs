//! Predictive-placement benchmark: forecast-driven pre-positioning vs the
//! reactive manager vs perfect foresight.
//!
//! One JSON record (`BENCH_predict.json`) comparing the three
//! [`PlacementMode`]s of `georep_core::strategy::predictive` on the two
//! workloads where pre-positioning should pay:
//!
//! * **diurnal** — demand follows the sun across three longitude windows
//!   ([`PhasedWorkload::diurnal`], 24-hour cycle). The forecaster's
//!   seasonal component captures the cycle after two observed days;
//! * **drift** — demand migrates west → east once
//!   ([`PhasedWorkload::drift`]); the trend component captures it within
//!   a few periods.
//!
//! Each mode is scored by [`run_mode`]: the **delay regret** (mean
//! realized delay above the oracle's — the oracle re-places on the actual
//! next period and is the floor this placement machinery can reach) and
//! the **wasted-migration USD** (dollars spent on committed moves the
//! realized next period did not pay back). The record is only emitted
//! when predictive regret is strictly below reactive regret on *both*
//! workloads, the oracle holds the floor, and every mode's report is
//! bit-identical across 1/2/auto worker threads (`identical_result`).
//!
//! Run with `cargo run -p georep-bench --release --bin bench_predict`
//! (`--quick` shortens the horizon for the CI sanity gate, `--out DIR`
//! moves the JSON).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use georep_bench::peak_rss_mb;
use georep_coord::rnp::Rnp;
use georep_coord::{Coord, EmbeddingRunner};
use georep_core::experiment::DIMS;
use georep_core::strategy::predictive::{run_mode, ModeConfig, ModeReport, ALL_MODES};
use georep_net::topology::{Topology, TopologyConfig};
use georep_workload::population::Population;
use georep_workload::stream::{AccessEvent, PhasedWorkload, StreamConfig};

/// One simulated hour, compressed (the diurnal phase / drift step length).
const HOUR_MS: f64 = 1_000.0;
/// Hours per re-placement period on the diurnal workload: coarse enough
/// that the sun moves materially within one period (a one-period forecast
/// lead is worth something) and each period carries enough accesses to
/// summarize well.
const DIURNAL_PERIOD_HOURS: usize = 3;
/// Diurnal forecast season, periods per simulated day.
const DIURNAL_SEASON: usize = 24 / DIURNAL_PERIOD_HOURS;
/// Replicas each mode maintains — fewer than the demand's regional peaks,
/// so the placement has to chase the sun and pre-positioning can pay.
const K: usize = 2;

/// Buckets a generated event stream into per-period demand: one
/// `(coordinate, accesses)` pair per active client per period, in client
/// order (deterministic — no hashing anywhere).
fn bucket_periods(
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

struct WorkloadResult {
    name: &'static str,
    season: usize,
    n_periods: usize,
    demand_points: usize,
    wall_ms: f64,
    /// Reports in [`ALL_MODES`] order: oracle, predictive, reactive.
    reports: Vec<ModeReport>,
    identical: bool,
}

impl WorkloadResult {
    fn oracle(&self) -> &ModeReport {
        &self.reports[0]
    }
    fn predictive(&self) -> &ModeReport {
        &self.reports[1]
    }
    fn reactive(&self) -> &ModeReport {
        &self.reports[2]
    }
}

/// Runs all three modes over one workload, each under 1 / 2 / auto
/// worker threads (reports must compare equal), and checks the regret
/// ordering the record is gated on.
fn run_workload(
    name: &'static str,
    coords: &[Coord<DIMS>],
    candidates: &[usize],
    regions: &[Coord<DIMS>],
    periods: &[Vec<(Coord<DIMS>, f64)>],
    season: usize,
) -> WorkloadResult {
    let initial = &candidates[..K];
    let start = Instant::now();
    let mut identical = true;
    let mut reports = Vec::new();
    for mode in ALL_MODES {
        let mut runs: Vec<ModeReport> = [1usize, 2, 0]
            .iter()
            .map(|&threads| {
                let mut cfg = ModeConfig::new(K, season).expect("valid season");
                cfg.threads = threads;
                run_mode(coords, candidates, initial, regions, periods, mode, &cfg)
                    .unwrap_or_else(|e| panic!("{name}/{:?} run failed: {e}", mode))
            })
            .collect();
        identical &= runs[0] == runs[1] && runs[0] == runs[2];
        reports.push(runs.swap_remove(0));
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let demand_points: usize = periods.iter().map(Vec::len).sum();

    let result = WorkloadResult {
        name,
        season,
        n_periods: periods.len(),
        demand_points,
        wall_ms,
        reports,
        identical,
    };
    let (o, p, r) = (
        result.oracle().mean_delay_ms,
        result.predictive().mean_delay_ms,
        result.reactive().mean_delay_ms,
    );
    println!(
        "{name:<8} oracle {o:>7.3} ms   predictive {p:>7.3} ms (gate {}/{})   \
         reactive {r:>7.3} ms   identical across threads: {}",
        result.predictive().gate_engaged,
        result.predictive().gate_engaged + result.predictive().gate_declined,
        result.identical,
    );
    assert!(result.identical, "{name}: reports diverged across threads");
    assert!(
        result.predictive().gate_engaged > 0,
        "{name}: the forecast gate never engaged"
    );
    assert!(
        o <= p + 1e-9,
        "{name}: oracle {o:.4} ms above predictive {p:.4} ms"
    );
    assert!(
        p < r,
        "{name}: predictive {p:.4} ms did not beat reactive {r:.4} ms"
    );
    result
}

/// One mode's slice of the JSON record.
fn mode_json(r: &ModeReport, oracle_mean: f64) -> String {
    format!(
        "{{\"mean_delay_ms\": {:.4}, \"regret_ms\": {:.4}, \"migrations\": {}, \
         \"migration_usd\": {:.4}, \"wasted_usd\": {:.4}, \"gate_engaged\": {}, \
         \"gate_declined\": {}, \"replicas_moved\": {}}}",
        r.mean_delay_ms,
        r.regret_vs(oracle_mean),
        r.migrations,
        r.migration_usd,
        r.wasted_usd,
        r.gate_engaged,
        r.gate_declined,
        r.stats.replicas_moved,
    )
}

fn workload_json(w: &WorkloadResult) -> String {
    let oracle_mean = w.oracle().mean_delay_ms;
    format!(
        "{{\"periods\": {}, \"season\": {}, \"demand_points\": {}, \"wall_ms\": {:.1},\n    \
         \"oracle\": {},\n    \"predictive\": {},\n    \"reactive\": {}}}",
        w.n_periods,
        w.season,
        w.demand_points,
        w.wall_ms,
        mode_json(w.oracle(), oracle_mean),
        mode_json(w.predictive(), oracle_mean),
        mode_json(w.reactive(), oracle_mean),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_dir = args.get(i).map(PathBuf::from).unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?} (supported: --quick, --out DIR)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // ---- Shape: days of hourly periods, shortened for the CI gate. ----
    // The diurnal season is 24 periods, so the gate's default warm-up is
    // two observed days; everything past it is forecast-driven.
    let (diurnal_days, drift_steps) = if quick { (4usize, 12usize) } else { (6, 16) };
    let diurnal_hours = diurnal_days * 24;
    println!(
        "predictive placement benchmark ({}): {diurnal_hours} diurnal hours, \
         {drift_steps} drift steps, k = {K}\n",
        if quick { "quick" } else { "full" }
    );

    // ---- Topology + embedding (identical recipe to bench_fleet). ----
    let topo = Topology::generate(TopologyConfig {
        nodes: 128,
        seed: georep_net::planetlab::PLANETLAB_SEED,
        ..Default::default()
    })
    .expect("valid topology config");
    let matrix = topo.matrix().clone();
    let n = matrix.len();
    let runner = EmbeddingRunner {
        rounds: 60,
        samples_per_round: 4,
        seed: 0xDECA,
    };
    let (coords, _) = runner.run(n, |i, j| matrix.get(i, j), |_| Rnp::<DIMS>::new());
    let candidates: Vec<usize> = (0..n).step_by(5).collect();
    let clients: Vec<usize> = (0..n).filter(|i| i % 5 != 0).collect();
    // The forecast aggregation grid: one region per candidate data center.
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
    let stream_cfg = StreamConfig {
        rate_per_ms: 2.0,
        seed: 0xF0CA,
        ..Default::default()
    };

    // ---- Diurnal: three regions peaking 8 hours apart. ----
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
    .generate(&stream_cfg);
    let diurnal_periods = bucket_periods(
        &diurnal_events,
        &clients,
        &coords,
        DIURNAL_PERIOD_HOURS as f64 * HOUR_MS,
        diurnal_hours / DIURNAL_PERIOD_HOURS,
    );
    let diurnal = run_workload(
        "diurnal",
        &coords,
        &candidates,
        &regions,
        &diurnal_periods,
        DIURNAL_SEASON,
    );

    // ---- Drift: Americas → Asia, one step per period, trend-only
    // forecast (season 1). ----
    let drift_events = PhasedWorkload::drift(&americas, &asia, drift_steps, HOUR_MS)
        .expect("valid drift workload")
        .generate(&stream_cfg);
    let drift_periods = bucket_periods(&drift_events, &clients, &coords, HOUR_MS, drift_steps);
    let drift = run_workload("drift", &coords, &candidates, &regions, &drift_periods, 1);

    let identical = diurnal.identical && drift.identical;
    let peak_rss = peak_rss_mb();
    println!("\npeak rss {peak_rss:.0} MiB");

    // ---- JSON record. ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"predict\": {{\"candidates\": {}, \"clients\": {}, \"k\": {K}, \
         \"peak_rss_mb\": {peak_rss:.1}}},",
        candidates.len(),
        clients.len(),
    );
    for w in [&diurnal, &drift] {
        let _ = writeln!(json, "  \"{}\": {},", w.name, workload_json(w));
    }
    // Flat copies of the gated numbers so the dependency-free checker can
    // compare them without walking the nested objects.
    for w in [&diurnal, &drift] {
        let oracle_mean = w.oracle().mean_delay_ms;
        let _ = writeln!(
            json,
            "  \"{0}_regret_reactive_ms\": {1:.4},\n  \"{0}_regret_predictive_ms\": {2:.4},",
            w.name,
            w.reactive().regret_vs(oracle_mean),
            w.predictive().regret_vs(oracle_mean),
        );
    }
    let _ = writeln!(json, "  \"identical_result\": {identical},");
    let _ = writeln!(
        json,
        "  \"note\": \"three placement modes (oracle / predictive / reactive) replaying the \
         same diurnal and drift workloads through run_mode; regret is mean realized delay \
         above the oracle (re-placement on the actual next period), wasted_usd the dollars \
         spent on migrations the realized next period did not pay back; every mode is run \
         under 1/2/auto worker threads and the reports must compare equal\""
    );
    json.push_str("}\n");

    let path = out_dir.join("BENCH_predict.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
