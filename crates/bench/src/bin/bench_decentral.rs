//! Decentralized-placement benchmark: gossip-native facility location vs
//! the central solver, across the five standard topology families.
//!
//! One JSON record (`BENCH_decentral.json`): for each
//! [`GraphFamily::standard`] family, a fleet of candidate DCs exchanges
//! demand-shard summaries peer-to-peer (`run_decentralized_with`) and each
//! runs the shared open/swap local search on its own view until the
//! quiescence detector fires. The record carries **rounds to
//! convergence**, **wire bytes gossiped**, and the **optimality gap**
//! against [`central_placement`] (the same solver machinery on the full
//! demand). It is only emitted when every family converges inside its
//! round budget with all nodes in agreement, the gap stays within the
//! 10 % envelope, and the full report is bit-identical across 1/2/auto
//! worker threads (`identical_result`).
//!
//! Run with `cargo run -p georep-bench --release --bin bench_decentral`
//! (`--quick` shrinks the fleets for the CI sanity gate, `--out DIR`
//! moves the JSON).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use georep_bench::peak_rss_mb;
use georep_core::strategy::decentralized::{
    central_placement, run_decentralized_with, DecentralConfig, DecentralReport,
};
use georep_core::telemetry::NullRecorder;
use georep_net::sim::FaultPlan;
use georep_net::topology::graph::{Graph, GraphConfig, GraphFamily};

/// Replicas the fleet maintains on every family.
const K: usize = 3;
/// Candidate DC stride: every `CAND_EVERY`-th node hosts a candidate.
const CAND_EVERY: usize = 3;
/// Round budget every family must converge inside.
const ROUND_BUDGET: u32 = 48;
/// Gap envelope the record is gated on (matches check_bench).
const MAX_GAP: f64 = 0.10;

struct FamilyResult {
    name: &'static str,
    nodes: usize,
    candidates: usize,
    wall_ms: f64,
    report: DecentralReport,
    central_delay_ms: f64,
    identical: bool,
}

/// Runs one family's fleet under 1 / 2 / auto worker threads (reports
/// must compare equal) and checks the convergence and gap gates.
fn run_family(family: GraphFamily, nodes: usize, seed: u64) -> FamilyResult {
    let name = family.name();
    let matrix = Graph::generate(GraphConfig {
        family,
        nodes,
        seed,
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"))
    .rtt_matrix()
    .unwrap_or_else(|e| panic!("{name} matrix: {e}"));
    let candidates: Vec<usize> = (0..nodes).step_by(CAND_EVERY).collect();
    let clients: Vec<usize> = (0..nodes).collect();
    // Skewed deterministic demand so the placement is not degenerate.
    let weights: Vec<f64> = (0..nodes).map(|i| 1.0 + (i % 5) as f64 * 2.0).collect();

    let start = Instant::now();
    let run = |threads: usize| {
        let cfg = DecentralConfig {
            threads,
            max_rounds: ROUND_BUDGET,
            ..DecentralConfig::new(K)
        };
        run_decentralized_with(
            &matrix,
            &candidates,
            &clients,
            &weights,
            &cfg,
            FaultPlan::new(cfg.seed),
            &NullRecorder,
        )
        .unwrap_or_else(|e| panic!("{name} run failed: {e}"))
    };
    let base = run(1);
    let identical = base == run(2) && base == run(0);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let (central, central_delay_ms) =
        central_placement(&matrix, &candidates, &clients, &weights, K)
            .unwrap_or_else(|e| panic!("{name} central solve failed: {e}"));

    println!(
        "{name:<8} {nodes:>3} nodes / {:>2} candidates   rounds {:>2}   \
         {:>6} bytes gossiped   gap {:.4}   identical across threads: {identical}",
        candidates.len(),
        base.rounds,
        base.bytes_gossiped,
        base.gap,
    );
    assert!(identical, "{name}: reports diverged across thread counts");
    assert!(
        base.converged,
        "{name}: no quiescence within {ROUND_BUDGET} rounds"
    );
    assert!(base.agreement, "{name}: nodes disagree on the placement");
    assert!(
        base.rounds <= ROUND_BUDGET,
        "{name}: rounds {}",
        base.rounds
    );
    assert!(
        base.gap <= MAX_GAP,
        "{name}: gap {:.4} outside the {MAX_GAP} envelope",
        base.gap
    );
    assert_eq!(
        base.placement, central,
        "{name}: converged placement differs from the central solver's"
    );

    FamilyResult {
        name,
        nodes,
        candidates: candidates.len(),
        wall_ms,
        report: base,
        central_delay_ms,
        identical,
    }
}

fn family_json(f: &FamilyResult) -> String {
    format!(
        "{{\"family\": \"{}\", \"nodes\": {}, \"candidates\": {}, \"rounds\": {}, \
         \"bytes_gossiped\": {}, \"gap\": {:.6}, \"decentral_delay_ms\": {:.4}, \
         \"central_delay_ms\": {:.4}, \"view_deltas\": {}, \"local_moves\": {}, \
         \"messages_delivered\": {}, \"messages_dropped\": {}, \"converged\": {}, \
         \"agreement\": {}, \"wall_ms\": {:.1}}}",
        f.name,
        f.nodes,
        f.candidates,
        f.report.rounds,
        f.report.bytes_gossiped,
        f.report.gap,
        f.report.decentral_delay_ms,
        f.central_delay_ms,
        f.report.view_deltas,
        f.report.local_moves,
        f.report.messages_delivered,
        f.report.messages_dropped,
        f.report.converged,
        f.report.agreement,
        f.wall_ms,
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

    let nodes = if quick { 18 } else { 24 };
    println!(
        "decentralized placement benchmark ({}): {nodes} nodes per family, \
         k = {K}, round budget {ROUND_BUDGET}\n",
        if quick { "quick" } else { "full" }
    );

    let results: Vec<FamilyResult> = GraphFamily::standard()
        .iter()
        .map(|&family| run_family(family, nodes, 13))
        .collect();

    let identical = results.iter().all(|f| f.identical);
    let max_gap = results.iter().map(|f| f.report.gap).fold(0.0, f64::max);
    let max_rounds = results.iter().map(|f| f.report.rounds).max().unwrap_or(0);
    let total_bytes: u64 = results.iter().map(|f| f.report.bytes_gossiped).sum();
    let peak_rss = peak_rss_mb();
    println!(
        "\nmax gap {max_gap:.4}   max rounds {max_rounds}   \
         {total_bytes} total bytes gossiped   peak rss {peak_rss:.0} MiB"
    );

    // ---- JSON record. ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"decentral\": {{\"nodes\": {nodes}, \"k\": {K}, \"cand_every\": {CAND_EVERY}, \
         \"round_budget\": {ROUND_BUDGET}, \"peak_rss_mb\": {peak_rss:.1}}},",
    );
    json.push_str("  \"families\": [\n");
    for (i, f) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{sep}", family_json(f));
    }
    json.push_str("  ],\n");
    // Flat copies of the gated numbers so the dependency-free checker can
    // compare them without walking the nested objects.
    let _ = writeln!(json, "  \"max_gap\": {max_gap:.6},");
    let _ = writeln!(json, "  \"max_rounds_observed\": {max_rounds},");
    let _ = writeln!(json, "  \"total_bytes_gossiped\": {total_bytes},");
    let _ = writeln!(json, "  \"identical_result\": {identical},");
    let _ = writeln!(
        json,
        "  \"note\": \"per standard topology family: candidate DCs gossip demand-shard \
         summaries peer-to-peer and each runs the shared open/swap local search on its own \
         view until quiescence; rounds is the last node's quiescence round, gap the relative \
         weighted-delay excess over the central solver on the full demand; every family is \
         run under 1/2/auto worker threads and the reports must compare equal\""
    );
    json.push_str("}\n");

    let path = out_dir.join("BENCH_decentral.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
