//! `georep` — command-line front end to the library.
//!
//! ```text
//! georep topology  --nodes 226 [--seed S] [--out matrix.txt]
//! georep embed     --nodes 226 [--protocol rnp|vivaldi] [--rounds 60]
//! georep compare   --nodes 226 --dcs 20 --k 3 [--seeds 10]
//! georep place     --nodes 226 --dcs 20 --k 3 --strategy online [--seed 0]
//! georep trace     --clients 100 [--rate 0.1] [--duration 10000] [--out trace.txt]
//! georep simulate  --nodes 226 --dcs 20 --k 3 [--duration 60000]
//! ```
//!
//! Every subcommand is deterministic given its seed. With
//! `GEOREP_TRACE=out.jsonl` set, `compare` also streams each run's
//! counters and events to that file. All output goes through one locked
//! stdout handle; when its reader goes away (`georep … | head -1`) the
//! command ends quietly with exit code 0.

use std::error::Error;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::process::ExitCode;

use georep::core::deployment::{run_deployment, DeploymentConfig};
use georep::core::experiment::{CoordProtocol, Experiment, StrategyKind};
use georep::core::metrics::improvement_pct;
use georep::core::telemetry::TraceWriter;
use georep::net::sim::SimDuration;
use georep::net::topology::{Topology, TopologyConfig};
use georep::workload::{generate, Population, StreamConfig, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = io::stdout().lock();
    let result = match command.as_str() {
        "topology" => cmd_topology(&opts, &mut out),
        "embed" => cmd_embed(&opts, &mut out),
        "compare" => cmd_compare(&opts, &mut out),
        "place" => cmd_place(&opts, &mut out),
        "trace" => cmd_trace(&opts, &mut out),
        "simulate" => cmd_simulate(&opts, &mut out),
        "help" | "--help" | "-h" => writeln!(out, "{USAGE}").map_err(Into::into),
        other => Err(format!("unknown command {other:?}").into()),
    }
    .and_then(|()| out.flush().map_err(Into::into));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe: nobody is left to tell.
        Err(e)
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
georep — latency-aware geo-replica placement (Ping et al., ICDCS 2011)

usage:
  georep topology  --nodes N [--seed S] [--out FILE]
      synthesize a wide-area RTT matrix and print its statistics
  georep embed     --nodes N [--protocol rnp|vivaldi|gnp] [--rounds R]
      embed the nodes into network coordinates and report accuracy
  georep compare   --nodes N --dcs D --k K [--seeds S]
      run every placement strategy and print the comparison table
      (GEOREP_TRACE=FILE also writes each run's counters and events as JSONL)
  georep place     --nodes N --dcs D --k K --strategy NAME [--seed S]
      place replicas with one strategy for one seed
  georep trace     --clients N [--rate R] [--duration MS] [--out FILE]
      generate a synthetic access trace (R × MS at most 10000000 accesses)
  georep simulate  --nodes N --dcs D --k K [--duration MS]
      run the fully-deployed system (gossip + accesses + migration) on the
      discrete-event simulator and print per-period delays (MS at most
      3600000, one simulated hour)

strategies: random, offline, online, online-greedy, optimal, greedy, hotzone, swap";

/// What a subcommand returns: a bad input, a failed run or a failed write.
type CmdResult = Result<(), Box<dyn Error>>;

/// Bag of parsed `--key value` options.
struct Options {
    nodes: usize,
    dcs: usize,
    k: usize,
    seed: u64,
    seeds: u64,
    rounds: usize,
    protocol: CoordProtocol,
    strategy: Option<StrategyKind>,
    clients: usize,
    rate: f64,
    duration: f64,
    out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut o = Options {
            nodes: 226,
            dcs: 20,
            k: 3,
            seed: 0,
            seeds: 10,
            rounds: 60,
            protocol: CoordProtocol::Rnp,
            strategy: None,
            clients: 100,
            rate: 0.1,
            duration: 10_000.0,
            out: None,
        };
        let mut i = 0;
        while i < args.len() {
            let key = args[i].as_str();
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{key} needs a value"))?;
            match key {
                "--nodes" => o.nodes = num(key, value)?,
                "--dcs" => o.dcs = num(key, value)?,
                "--k" => o.k = num(key, value)?,
                "--seed" => o.seed = num(key, value)?,
                "--seeds" => o.seeds = num(key, value)?,
                "--rounds" => o.rounds = num(key, value)?,
                "--clients" => o.clients = num(key, value)?,
                "--rate" => o.rate = num(key, value)?,
                "--duration" => o.duration = num(key, value)?,
                "--out" => o.out = Some(value.clone()),
                "--protocol" => {
                    o.protocol = match value.as_str() {
                        "rnp" => CoordProtocol::Rnp,
                        "vivaldi" => CoordProtocol::Vivaldi,
                        "gnp" => CoordProtocol::Gnp,
                        other => return Err(format!("unknown protocol {other:?}")),
                    }
                }
                "--strategy" => o.strategy = Some(parse_strategy(value)?),
                other => return Err(format!("unknown option {other:?}")),
            }
            i += 2;
        }
        Ok(o)
    }
}

/// Parses `value` as the option's own type: integer options reject
/// fractions, signs and exponents instead of truncating them.
fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| {
        format!(
            "{key}: {value:?} is not a valid {}",
            std::any::type_name::<T>()
        )
    })
}

/// Most accesses `trace` may expect (`--rate × --duration`): the events
/// are held in memory before the trace is printed or written.
const MAX_TRACE_EVENTS: f64 = 1e7;

/// Longest `simulate --duration` in ms, one simulated hour: wall time
/// grows linearly with it (≈ 20 ms per simulated second at 226 nodes on a
/// 2-core host).
const MAX_SIMULATE_MS: f64 = 3_600_000.0;

/// `--duration`, rejected unless finite, non-negative and within the
/// simulated clock.
fn duration_ms(opts: &Options) -> Result<f64, String> {
    if SimDuration::checked_from_ms(opts.duration).is_some() {
        Ok(opts.duration)
    } else {
        Err(format!(
            "--duration must be finite, non-negative and at most u64::MAX µs, got {}",
            opts.duration
        ))
    }
}

fn parse_strategy(name: &str) -> Result<StrategyKind, String> {
    Ok(match name {
        "random" => StrategyKind::Random,
        "offline" => StrategyKind::OfflineKMeans,
        "online" => StrategyKind::OnlineClustering,
        "optimal" => StrategyKind::Optimal,
        "greedy" => StrategyKind::Greedy,
        "hotzone" => StrategyKind::HotZone,
        "swap" => StrategyKind::SwapLocalSearch,
        "online-greedy" => StrategyKind::OnlineGreedy,
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

fn make_matrix(opts: &Options) -> Result<georep::net::RttMatrix, String> {
    Topology::generate(TopologyConfig {
        nodes: opts.nodes,
        seed: georep::net::planetlab::PLANETLAB_SEED ^ opts.seed,
        ..Default::default()
    })
    .map(Topology::into_matrix)
    .map_err(|e| e.to_string())
}

fn cmd_topology(opts: &Options, out: &mut impl Write) -> CmdResult {
    let matrix = make_matrix(opts)?;
    let stats = matrix.stats();
    writeln!(out, "nodes: {}", matrix.len())?;
    writeln!(
        out,
        "rtt min/median/mean/p90/max (ms): {:.1} / {:.1} / {:.1} / {:.1} / {:.1}",
        stats.min_ms, stats.median_ms, stats.mean_ms, stats.p90_ms, stats.max_ms
    )?;
    writeln!(
        out,
        "triangle-inequality violations: {:.2}%",
        matrix.triangle_violation_rate() * 100.0
    )?;
    if let Some(path) = &opts.out {
        std::fs::write(path, matrix.to_text())?;
        writeln!(out, "matrix written to {path}")?;
    }
    Ok(())
}

fn cmd_embed(opts: &Options, out: &mut impl Write) -> CmdResult {
    let matrix = make_matrix(opts)?;
    let exp = Experiment::builder(matrix)
        .data_centers(opts.dcs.min(opts.nodes - 1).max(2))
        .replicas(1)
        .seeds(0..1)
        .protocol(opts.protocol)
        .embedding_rounds(opts.rounds)
        .build()
        .map_err(|e| e.to_string())?;
    let r = exp.embedding_report();
    writeln!(
        out,
        "protocol: {}",
        match opts.protocol {
            CoordProtocol::Rnp => "rnp",
            CoordProtocol::Vivaldi => "vivaldi",
            CoordProtocol::Gnp => "gnp",
        }
    )?;
    writeln!(out, "gossip rounds: {}", opts.rounds)?;
    writeln!(out, "median abs error: {:.1} ms", r.median_abs_err)?;
    writeln!(out, "p90 abs error: {:.1} ms", r.p90_abs_err)?;
    writeln!(out, "median rel error: {:.1}%", r.median_rel_err * 100.0)?;
    writeln!(
        out,
        "pairs within 10 ms: {:.0}%",
        r.frac_within_10ms * 100.0
    )?;
    Ok(())
}

fn cmd_compare(opts: &Options, out: &mut impl Write) -> CmdResult {
    let matrix = make_matrix(opts)?;
    let exp = Experiment::builder(matrix)
        .data_centers(opts.dcs)
        .replicas(opts.k)
        .seeds(0..opts.seeds)
        .build()
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{} nodes, {} data centers, k = {}, {} seeds\n",
        opts.nodes, opts.dcs, opts.k, opts.seeds
    )?;
    // `GEOREP_TRACE=out.jsonl` streams every run's counters and events.
    let trace = TraceWriter::from_env();
    let run = |kind| {
        match &trace {
            Some(writer) => exp.run_with_recorder(kind, writer),
            None => exp.run(kind),
        }
        .map_err(|e| e.to_string())
    };
    let random = run(StrategyKind::Random)?;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<28} {:>12} {:>12}",
        "strategy", "delay (ms)", "vs random"
    );
    for kind in StrategyKind::ALL {
        let summary = run(kind)?;
        let gain = improvement_pct(summary.mean_delay_ms, random.mean_delay_ms).unwrap_or(f64::NAN);
        let _ = writeln!(
            table,
            "{:<28} {:>12.1} {:>11.0}%",
            kind.name(),
            summary.mean_delay_ms,
            gain
        );
    }
    write!(out, "{table}")?;
    Ok(())
}

fn cmd_place(opts: &Options, out: &mut impl Write) -> CmdResult {
    let kind = opts.strategy.ok_or("place needs --strategy")?;
    let matrix = make_matrix(opts)?;
    let exp = Experiment::builder(matrix)
        .data_centers(opts.dcs)
        .replicas(opts.k)
        .seeds(0..1)
        .build()
        .map_err(|e| e.to_string())?;
    let outcome = exp.run_seed(kind, opts.seed).map_err(|e| e.to_string())?;
    writeln!(out, "strategy: {}", kind.name())?;
    writeln!(out, "placement (node ids): {:?}", outcome.placement)?;
    writeln!(out, "mean access delay: {:.1} ms", outcome.mean_delay_ms)?;
    if outcome.summary_bytes > 0 {
        writeln!(
            out,
            "summary traffic: {:.1} KB",
            outcome.summary_bytes as f64 / 1024.0
        )?;
    }
    Ok(())
}

fn cmd_simulate(opts: &Options, out: &mut impl Write) -> CmdResult {
    if opts.k == 0 {
        return Err("simulate needs --k of at least 1".into());
    }
    let duration = duration_ms(opts)?;
    if duration > MAX_SIMULATE_MS {
        return Err(format!(
            "simulate --duration is at most {MAX_SIMULATE_MS} ms (one simulated hour), got {duration}"
        ).into());
    }
    let matrix = make_matrix(opts)?;
    let n = matrix.len();
    let step = (n / opts.dcs.max(1)).max(1);
    let candidates: Vec<usize> = (0..n).step_by(step).take(opts.dcs).collect();
    if candidates.len() < opts.k {
        return Err("not enough candidates for k (raise --dcs or lower --k)".into());
    }
    let cfg = DeploymentConfig {
        k: opts.k,
        duration: SimDuration::from_ms(duration.max(10_000.0)),
        seed: opts.seed,
        ..Default::default()
    };
    writeln!(
        out,
        "deploying: {n} nodes, {} data centers, k = {}, {:.0} s simulated",
        candidates.len(),
        opts.k,
        cfg.duration.as_ms() / 1_000.0
    )?;
    let outcome = run_deployment(&matrix, &candidates, cfg);
    writeln!(
        out,
        "{} accesses, {} messages, {:.1} KB of summaries, {} placement rounds seen",
        outcome.accesses,
        outcome.messages,
        outcome.summary_bytes as f64 / 1024.0,
        outcome.placements_seen
    )?;
    writeln!(out, "\nmean measured access delay per period (ms):")?;
    for (i, d) in outcome.period_delay_ms.iter().enumerate() {
        if d.is_finite() {
            writeln!(out, "  period {i}: {d:.1}")?;
        }
    }
    Ok(())
}

fn cmd_trace(opts: &Options, out: &mut impl Write) -> CmdResult {
    if opts.clients == 0 {
        return Err("trace needs at least one client".into());
    }
    if !(opts.rate.is_finite() && opts.rate > 0.0) {
        return Err(format!("--rate must be finite and positive, got {}", opts.rate).into());
    }
    let duration = duration_ms(opts)?;
    let expected = opts.rate * duration;
    if expected > MAX_TRACE_EVENTS {
        return Err(format!(
            "--rate × --duration expects {expected} accesses, above the limit of {MAX_TRACE_EVENTS}"
        )
        .into());
    }
    let pop = Population::zipf_skewed(opts.clients, 1.0, opts.seed);
    let cfg = StreamConfig {
        rate_per_ms: opts.rate,
        seed: opts.seed,
        ..Default::default()
    };
    let events = generate(&pop, &cfg, duration);
    let trace = Trace::from_events(events).map_err(|e| e.to_string())?;
    match trace.stats() {
        Some(s) => writeln!(
            out,
            "{} accesses by {} clients over {:.0} ms ({:.1} KiB total)",
            s.events, s.distinct_clients, s.span_ms, s.total_kib
        )?,
        None => writeln!(
            out,
            "empty trace (try a longer --duration or higher --rate)"
        )?,
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, trace.to_text())?;
        writeln!(out, "trace written to {path}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.nodes, 226);
        assert_eq!(o.k, 3);
        assert_eq!(o.protocol, CoordProtocol::Rnp);
    }

    #[test]
    fn options_override_defaults() {
        let o = parse(&["--nodes", "50", "--k", "5", "--protocol", "vivaldi"]).unwrap();
        assert_eq!(o.nodes, 50);
        assert_eq!(o.k, 5);
        assert_eq!(o.protocol, CoordProtocol::Vivaldi);
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse(&["--nodes"]).is_err());
        assert!(parse(&["--nodes", "abc"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["--protocol", "gnp2"]).is_err());
        assert!(parse(&["--strategy", "nope"]).is_err());
        // Integer options take integers: no exponent, fraction or sign
        // gets truncated or saturated into a size.
        for (key, value) in [
            ("--nodes", "1e30"),
            ("--seeds", "1e30"),
            ("--k", "2.9"),
            ("--nodes", "-3"),
            ("--seed", "-1"),
            ("--dcs", "inf"),
            ("--clients", "NaN"),
            ("--rounds", "18446744073709551616000"),
        ] {
            assert!(parse(&[key, value]).is_err(), "{key} {value}");
        }
    }

    #[test]
    fn trace_rejects_unusable_rate_and_duration() {
        for rate in ["inf", "0", "-1", "NaN"] {
            let o = parse(&["--rate", rate]).unwrap();
            assert!(cmd_trace(&o, &mut io::sink()).is_err(), "--rate {rate}");
        }
        for duration in ["inf", "-5", "NaN"] {
            let o = parse(&["--duration", duration]).unwrap();
            assert!(
                cmd_trace(&o, &mut io::sink()).is_err(),
                "--duration {duration}"
            );
        }
    }

    #[test]
    fn simulate_rejects_zero_k_and_unusable_duration() {
        let o = parse(&["--k", "0", "--nodes", "40", "--dcs", "5"]).unwrap();
        assert!(cmd_simulate(&o, &mut io::sink()).is_err());
        for duration in ["inf", "1e20"] {
            let o = parse(&["--duration", duration, "--nodes", "40", "--dcs", "5"]).unwrap();
            assert!(cmd_simulate(&o, &mut io::sink()).is_err(), "{duration}");
        }
    }

    #[test]
    fn trace_rejects_an_expected_count_above_its_limit() {
        let o = parse(&["--clients", "10", "--rate", "1", "--duration", "1e16"]).unwrap();
        let err = cmd_trace(&o, &mut io::sink()).unwrap_err();
        assert!(err.to_string().contains("limit of 10000000"), "{err}");
    }

    #[test]
    fn simulate_rejects_a_duration_above_one_simulated_hour() {
        let o = parse(&["--nodes", "40", "--dcs", "5", "--duration", "1e15"]).unwrap();
        let err = cmd_simulate(&o, &mut io::sink()).unwrap_err();
        assert!(err.to_string().contains("at most 3600000 ms"), "{err}");
    }

    #[test]
    fn all_strategy_names_parse() {
        for (name, kind) in [
            ("random", StrategyKind::Random),
            ("offline", StrategyKind::OfflineKMeans),
            ("online", StrategyKind::OnlineClustering),
            ("optimal", StrategyKind::Optimal),
            ("greedy", StrategyKind::Greedy),
            ("hotzone", StrategyKind::HotZone),
            ("swap", StrategyKind::SwapLocalSearch),
        ] {
            assert_eq!(parse_strategy(name).unwrap(), kind);
        }
    }
}
