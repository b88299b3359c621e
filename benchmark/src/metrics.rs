//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `/BENCHMARK.json` repeats it and a
//! test holds the two together; `README.md` says which end-to-end metric
//! each layer metric should move, and on which workload.

/// Seconds one run measures when `--seconds` is not given; the same value
/// is `run_seconds` in `/BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Default `--seed` (the fleet bench's historical stream seed).
pub const DEFAULT_SEED: u64 = 0xF1EE7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its fixed name and the one-line reason it exists.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "serve_hot",
        why: "8M Zipf accesses through ring+service into 24 owners in 250k periods: per-access stages (ring, merge, routing, scatter, absorb) do nearly all the work",
    },
    WorkloadDecl {
        name: "serve_churn",
        why: "same path, 264 owners, ring smaller than an 8192-access period: per-period fixed cost (fan-out, propose/solve/gate/commit, reset, spawn) dominates",
    },
    WorkloadDecl {
        name: "fleet_wide",
        why: "no serve crate: ingest_period+rebalance over 1M objects, 4160 owners, $200/round budget; solve, gate and scheduling dominate, ring changes must read no change",
    },
    WorkloadDecl {
        name: "decide_mesh",
        why: "decision plane under faults, no ingest tier: scenario, gossip, net::sim, decentralized strategy and objective on five graph families",
    },
];

/// A metric a user of the system would see; same name on every workload.
pub struct EndToEndDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndDecl; 6] = [
    EndToEndDecl {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "accesses_per_s",
        unit: "acc/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "commit_lag_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "commit_lag_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDecl {
        name: "placed_delay_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.04,
    },
    EndToEndDecl {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A metric of a single layer (layer = module path), from the spans and
/// counters of the traced workload itself. It reads 0 on a workload that
/// never enters the layer.
pub struct PerLayerDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Whether the value must repeat exactly run to run (same seed).
    pub exact: bool,
}

/// A time, rate or ratio of times taken from spans.
const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayerDecl {
    PerLayerDecl {
        name,
        unit,
        better,
        exact: false,
    }
}

/// Span time over traced-pass wall.
const fn share(name: &'static str) -> PerLayerDecl {
    timed(name, "share", Better::Lower)
}

/// A deterministic count (or ratio of counts) from the verification pass.
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayerDecl {
    PerLayerDecl {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayerDecl; 36] = [
    // serve
    timed("serve.producer.submit_ns", "ns", Lower),
    share("serve.producer.blocked_share"),
    share("serve.service.poll_busy_share"),
    timed("serve.service.flush_ms_p50", "ms", Lower),
    timed("serve.service.overhead_ns_per_access", "ns", Lower),
    share("serve.service.multi_flush_share"),
    timed("serve.metrics.render_us", "us", Lower),
    // core::fleet
    timed("core.fleet.ingest_ns_per_access", "ns", Lower),
    timed("core.fleet.rebalance_us_per_owner", "us", Lower),
    share("core.fleet.rebalance_share"),
    timed("core.fleet.route_ns", "ns", Lower),
    timed("core.fleet.speedup_vs_1t", "ratio", Higher),
    count("core.fleet.hot_fraction", "ratio", Higher),
    count("core.fleet.committed", "count", Lower),
    count("core.fleet.deferred", "count", Lower),
    count("core.fleet.replicas_moved", "count", Lower),
    count("core.fleet.migration_usd_per_macc", "usd/Macc", Lower),
    // core::manager, cluster: counters of the owners
    count("core.manager.summary_bytes_per_access", "B/acc", Lower),
    count("cluster.kmeans.iterations_per_solve", "count", Lower),
    count("cluster.kmeans.prune_rate", "ratio", Higher),
    // core::strategy, core::scenario, net::sim
    timed("core.strategy.central_us", "us", Lower),
    timed("core.strategy.decentralized.solve_ms_p50", "ms", Lower),
    share("core.strategy.decentralized.share"),
    count("core.strategy.decentralized.rounds", "count", Lower),
    count("core.strategy.decentralized.bytes_gossiped", "B", Lower),
    count("core.strategy.decentralized.view_deltas", "count", Lower),
    count("core.strategy.decentralized.local_moves", "count", Lower),
    count(
        "core.strategy.decentralized.events_executed",
        "count",
        Lower,
    ),
    timed("core.scenario.run_ms_p50", "ms", Lower),
    share("core.scenario.share"),
    timed("net.sim.events_per_s", "1/s", Higher),
    // set-up layers
    timed("net.topology.apsp_ms", "ms", Lower),
    timed("coord.embed_ms", "ms", Lower),
    timed("workload.generate_per_s", "1/s", Higher),
    // the tracer itself: traced minus untraced accesses_per_s, as a share
    // of untraced
    timed("trace.overhead_pct", "%", Lower),
    count("trace.periods_per_pass", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `/BENCHMARK.json` must say what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Value::String("benchmark".into())]);

        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let declared: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, declared);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.as_object().unwrap().len(), 4);
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let declared: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, declared);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.as_object().unwrap().len(), 3);
                (s(m, "name"), s(m, "unit"), s(m, "better"))
            })
            .collect();
        let declared: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, declared);
    }
}
