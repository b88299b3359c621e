//! CI-gated robustness suite over the named fault scenarios.
//!
//! The suite embeds its one topology once ([`scenario::prepare`]) and runs
//! every kind on that embedding. Two invariants hold for every scenario in
//! [`georep_core::scenario::ALL_SCENARIOS`]:
//!
//! 1. **Determinism** — a run is a pure function of
//!    `(prepared embedding, kind, config)` and spawns nothing, so the
//!    reactive and the decentralized modes are each pinned
//!    same-config-twice: not a single bit of the report may move (trace,
//!    timeline, placements, hash). Two checked-in fingerprints, computed
//!    when every run embedded afresh, pin the held embedding's reports to
//!    what [`georep_core::scenario::run_scenario`] returns.
//! 2. **Recovery** — once every fault window closes and quarantined data
//!    centers are restored, the cost-gated re-placement loop must bring
//!    the true mean client delay back within ε of the pre-fault optimum.
//!
//! A further test attaches an `InMemoryRecorder` and requires the identical
//! report plus non-empty, run-to-run identical telemetry. The wall time of
//! a scenario run is `core.scenario.run_ms_p50` on the repo benchmark's
//! `decide_mesh` workload.

use std::sync::OnceLock;

use georep_core::scenario::{
    self, Prepared, ScenarioConfig, ScenarioKind, ScenarioReport, ALL_SCENARIOS,
};
use georep_core::strategy::predictive::PlacementMode;
use georep_core::telemetry::{InMemoryRecorder, NullRecorder};
use georep_net::rtt::RttMatrix;
use georep_net::sim::SimDuration;
use georep_net::topology::{Topology, TopologyConfig};

/// Post-recovery mean delay may exceed the pre-fault optimum by this
/// fraction. The placement is re-derived from post-fault demand summaries,
/// so exact equality is not guaranteed — closeness is.
const EPSILON: f64 = 0.15;

fn matrix() -> &'static RttMatrix {
    static MATRIX: OnceLock<RttMatrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        Topology::generate(TopologyConfig {
            nodes: 24,
            seed: 11,
            ..Default::default()
        })
        .expect("topology generates for n ≥ 2")
        .into_matrix()
    })
}

fn suite_cfg() -> ScenarioConfig {
    ScenarioConfig {
        phase_ticks: 4,
        rebalance_every: 2,
        embed_duration: SimDuration::from_secs(20.0),
        detect_duration: SimDuration::from_secs(25.0),
        ..Default::default()
    }
}

/// The suite's topology, embedded once under [`suite_cfg`].
fn prepared() -> &'static Prepared<'static> {
    static PREPARED: OnceLock<Prepared<'static>> = OnceLock::new();
    PREPARED.get_or_init(|| scenario::prepare(matrix(), &suite_cfg()).expect("valid setup"))
}

fn run(kind: ScenarioKind, cfg: ScenarioConfig) -> ScenarioReport {
    prepared()
        .run(kind, cfg, &NullRecorder)
        .unwrap_or_else(|e| panic!("{} does not run: {e:?}", kind.name()))
}

/// FNV-1a over the `{:?}` of every kind's reactive report, in
/// [`ALL_SCENARIOS`] order. Comparing a run with itself cannot catch a
/// change that moves every run the same way; this checked-in constant
/// can. Update it only with a change that means to move a report.
const REACTIVE_REPORTS_FINGERPRINT: u64 = 0x7eb4_73c6_f193_8323;

/// The same fold over every kind's decentralized report.
const DECENTRALIZED_REPORTS_FINGERPRINT: u64 = 0x6901_68a2_9ae9_b4e2;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Each kind runs twice per mode, reactive and decentralized, and the
/// second run's report and trace hash equal the first's. The reports also
/// fold into [`REACTIVE_REPORTS_FINGERPRINT`] and
/// [`DECENTRALIZED_REPORTS_FINGERPRINT`]. Both were computed when each run
/// embedded the topology afresh, so they also pin every report on the held
/// embedding, field for field, to the one `run_scenario` returns.
#[test]
fn reports_are_bit_identical_across_1_2_and_8_threads() {
    let mut reactive = 0xCBF2_9CE4_8422_2325;
    let mut decentralized = reactive;
    for kind in ALL_SCENARIOS {
        for mode in [PlacementMode::Reactive, PlacementMode::Decentralized] {
            let cfg = ScenarioConfig {
                mode,
                ..suite_cfg()
            };
            let base = run(kind, cfg);
            let again = run(kind, cfg);
            assert_eq!(again, base, "{} {mode:?}: rerun diverged", kind.name());
            assert_eq!(
                again.trace_hash,
                base.trace_hash,
                "{} {mode:?}: trace hash diverged",
                kind.name()
            );
            let fingerprint = if mode == PlacementMode::Reactive {
                &mut reactive
            } else {
                &mut decentralized
            };
            *fingerprint = fnv1a(*fingerprint, format!("{base:?}").as_bytes());
        }
    }
    assert_eq!(
        reactive, REACTIVE_REPORTS_FINGERPRINT,
        "a reactive scenario report moved: {reactive:#018x}"
    );
    assert_eq!(
        decentralized, DECENTRALIZED_REPORTS_FINGERPRINT,
        "a decentralized scenario report moved: {decentralized:#018x}"
    );
}

/// The instrumentation contract of the telemetry layer: attaching a live
/// [`InMemoryRecorder`] must not change a single bit of any scenario
/// report, and what the recorder captures must itself be deterministic.
#[test]
fn reports_are_bit_identical_with_a_recorder_attached() {
    for kind in ALL_SCENARIOS {
        let plain = run(kind, suite_cfg());
        let rec = InMemoryRecorder::new();
        let recorded = prepared()
            .run(kind, suite_cfg(), &rec)
            .expect("scenario runs");
        assert_eq!(
            recorded,
            plain,
            "{}: the recorder perturbed the report",
            kind.name()
        );
        // The run must actually have been observed, not silently skipped.
        assert!(
            rec.counter_value("gossip.pings") > 0,
            "{}: no gossip telemetry recorded",
            kind.name()
        );
        assert!(
            rec.counter_value("manager.rounds") > 0,
            "{}: no manager telemetry recorded",
            kind.name()
        );
        assert!(rec.events_len() > 0, "{}: no events recorded", kind.name());

        // And the captured telemetry is a pure function of the run.
        let rec2 = InMemoryRecorder::new();
        let again = prepared()
            .run(kind, suite_cfg(), &rec2)
            .expect("scenario runs");
        assert_eq!(again, plain);
        assert_eq!(
            rec.counters(),
            rec2.counters(),
            "{}: counters diverged run-to-run",
            kind.name()
        );
        assert_eq!(
            rec.histograms(),
            rec2.histograms(),
            "{}: histograms diverged run-to-run",
            kind.name()
        );
    }
}

#[test]
fn post_recovery_delay_returns_within_epsilon_of_the_pre_fault_optimum() {
    for kind in ALL_SCENARIOS {
        let report = run(kind, suite_cfg());
        assert!(
            report.pre_fault_delay_ms > 0.0,
            "{}: pre-fault baseline must be positive",
            kind.name()
        );
        assert!(
            report.final_delay_ms <= report.pre_fault_delay_ms * (1.0 + EPSILON),
            "{}: final {:.2} ms vs pre-fault {:.2} ms exceeds ε = {EPSILON}",
            kind.name(),
            report.final_delay_ms,
            report.pre_fault_delay_ms
        );
        // The last timeline tick happens on a healthy network again: every
        // client must be reachable.
        let last = report.timeline.last().expect("timeline is non-empty");
        assert_eq!(
            last.unreachable,
            0,
            "{}: clients still unreachable after recovery",
            kind.name()
        );
    }
}

#[test]
fn crash_scenarios_fail_over_and_restore() {
    use georep_core::scenario::TraceEvent;
    for kind in [ScenarioKind::SingleDcCrash, ScenarioKind::RollingRecovery] {
        let report = run(kind, suite_cfg());
        let failed = report
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::ReplicaFailed { .. }))
            .count();
        let restored = report
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Restored { .. }))
            .count();
        assert!(failed >= 1, "{}: no replica was evicted", kind.name());
        assert_eq!(
            failed,
            restored,
            "{}: every evicted DC must eventually be restored",
            kind.name()
        );
        assert!(
            report.replacements >= 1,
            "{}: failover must trigger a re-placement",
            kind.name()
        );
    }
}
