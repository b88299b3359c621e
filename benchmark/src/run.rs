//! One run: set-up → verification pass (the warm-up as well) → timed
//! passes, with two more set-ups among and after them; one workload per
//! process, and the report it prints.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use crate::json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::Tracer;
use crate::stats;
use crate::workloads::{self, Pass, Workload};
use crate::world::{self, Scale};

/// Set-up rounds per untraced run: before, halfway through and after the
/// timed passes, so that one slow stretch of the host cannot hit them all.
const SETUP_ROUNDS: usize = 3;
/// A round repeats its set-up while the repetitions add up to less than
/// this (a set-up of milliseconds, as `decide_mesh` has, is otherwise
/// below what a timer resolves steadily), up to a cap.
const SETUP_ROUND_MIN_S: f64 = 0.3;
const SETUP_ROUND_MAX_REPS: usize = 30;
/// Lag samples a run pools at least, however slow the host (`--seconds`
/// or this, whichever takes longer): what leaves ten samples beyond the
/// 90th percentile.
const MIN_LAG_SAMPLES: usize = 100;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Seconds the timed passes run for.
    pub seconds: f64,
    pub trace: bool,
    /// Inputs ÷ 100 — for the package's own tests, never recorded.
    pub smoke: bool,
    /// Append the record (with workload, seed and trace) to this file.
    pub out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in declaration order.
    pub metrics: Vec<Metric>,
    /// The human-readable report.
    pub text: String,
}

impl Outcome {
    fn json_fields(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result object the run prints as its last line.
    pub fn json_line(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }

    /// The same object with the run's identity in front, as `--out` and
    /// `compare` use it.
    pub fn record_line(&self, args: &Args) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}}}",
            json::escape(&args.workload),
            args.seed,
            args.trace,
            self.json_fields()
        )
    }
}

/// Why a run could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    UnknownWorkload(String),
    TraceFile(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            RunError::TraceFile(e) => write!(f, "cannot write the trace file: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Where runs leave their files: `out/` in the benchmark's package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where traced runs leave their spans.
pub fn trace_path(workload: &str) -> PathBuf {
    out_dir().join(format!("trace_{workload}.jsonl"))
}

/// One set-up round: builds the workload afresh into `slot`, freeing the
/// previous copy first (one input in memory at a time), and records how
/// long each build took. With `repeat`, a set-up of milliseconds is built
/// again until the round adds up to something a timer resolves.
fn set_up(
    args: &Args,
    scale: Scale,
    repeat: bool,
    tracer: &mut Tracer,
    slot: &mut Option<Box<dyn Workload>>,
    setups: &mut Vec<f64>,
) -> Result<(), RunError> {
    let (mut round_s, mut reps) = (0.0, 0);
    loop {
        drop(slot.take());
        let start = Instant::now();
        *slot = tracer.time(workloads::SETUP_SPAN, None, |t| {
            workloads::build(&args.workload, args.seed, scale, t)
        });
        let took = start.elapsed().as_secs_f64();
        if slot.is_none() {
            return Err(RunError::UnknownWorkload(args.workload.clone()));
        }
        setups.push(took);
        round_s += took;
        reps += 1;
        if !repeat || round_s >= SETUP_ROUND_MIN_S || reps >= SETUP_ROUND_MAX_REPS {
            return Ok(());
        }
    }
}

/// Runs one workload once.
///
/// # Errors
///
/// [`RunError`] for an unknown workload name or an unwritable trace file.
pub fn run(args: &Args) -> Result<Outcome, RunError> {
    let mut text = String::new();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let _ = writeln!(
        text,
        "georep-benchmark: workload {} seed {:#x} seconds {} trace {} ({} cores{})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        if args.smoke { ", SMOKE inputs" } else { "" }
    );
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    // Traced and smoke runs do not report `setup_s`: one set-up will do.
    let measured = !(args.trace || args.smoke);
    let mut off = Tracer::disabled();
    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    // ---- Set-up, round 1 (the one a traced run records spans of). ----
    let mut setups: Vec<f64> = Vec::new();
    let mut slot: Option<Box<dyn Workload>> = None;
    set_up(args, scale, measured, &mut tracer, &mut slot, &mut setups)?;
    let mut rounds = 1;

    // ---- Verification pass; it is the warm-up as well. ----
    let verdict = slot.as_deref().expect("set up").verify(&mut tracer);
    let (mut attempted, mut failed) = (verdict.attempted, verdict.failed);
    for problem in &verdict.problems {
        let _ = writeln!(text, "FAILED CHECK: {problem}");
    }

    // ---- Timed passes for `--seconds`, set-up rounds 2 and 3 halfway
    // through and after them. ----
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let workload = slot.as_deref().expect("set up");
        let start = Instant::now();
        untraced.push(workload.pass(&mut off));
        if args.trace {
            // Alternate, so drift hits both sides of the overhead alike.
            traced.push(workload.pass(&mut tracer));
        }
        timed_s += start.elapsed().as_secs_f64();
        let lag_samples: usize = untraced.iter().map(|p| p.lags_ms.len()).sum();
        // A pass with failed operations ends the run: it is wrong already.
        let broken = untraced.last().is_some_and(|p| p.failed > 0);
        let done = args.smoke
            || broken
            || (timed_s >= args.seconds && (args.trace || lag_samples >= MIN_LAG_SAMPLES));
        let due = match (done, timed_s >= args.seconds / 2.0) {
            (true, _) => SETUP_ROUNDS,
            (false, true) => 2,
            (false, false) => 1,
        };
        while measured && rounds < due {
            set_up(args, scale, true, &mut off, &mut slot, &mut setups)?;
            rounds += 1;
        }
        if done {
            break;
        }
    }
    for pass in untraced.iter().chain(&traced) {
        attempted += pass.attempted;
        failed += pass.failed;
    }
    let workload = slot.as_deref().expect("set up");

    let sum = workloads::summarise(&untraced);
    let _ = writeln!(
        text,
        "{} timed passes in {timed_s:.1} s, {} lag samples; {} set-ups",
        untraced.len(),
        sum.lag_samples,
        setups.len()
    );
    let per_pass: Vec<String> = workloads::throughputs(&untraced)
        .iter()
        .map(|t| format!("{t:.0}"))
        .collect();
    let _ = writeln!(text, "records/s per timed pass: {}", per_pass.join(" "));

    let mut metrics = Vec::new();
    if args.trace {
        let mut values: Vec<(&'static str, f64)> = verdict.counts.clone();
        values.extend(workload.layers(&tracer, &verdict));
        let traced_throughput = workloads::summarise(&traced).accesses_per_s;
        values.push((
            "trace.overhead_pct",
            (sum.accesses_per_s - traced_throughput) / sum.accesses_per_s * 100.0,
        ));
        for (name, _) in &values {
            assert!(
                PER_LAYER.iter().any(|decl| decl.name == *name),
                "layer metric {name} is not declared"
            );
        }
        for decl in &PER_LAYER {
            // A metric the workload did not report is a layer it never
            // enters.
            let reported = values.iter().find(|(name, _)| *name == decl.name);
            metrics.push(Metric {
                name: decl.name,
                value: reported.map_or(0.0, |&(_, v)| v),
                unit: decl.unit,
            });
        }
        share_table(&tracer, &mut text);
        write_trace(&tracer, &args.workload).map_err(|e| RunError::TraceFile(e.to_string()))?;
        let _ = writeln!(
            text,
            "{} spans written to {}",
            tracer.spans().len(),
            trace_path(&args.workload).display()
        );
    } else {
        let values = [
            stats::mean(&setups),
            sum.accesses_per_s,
            sum.lag_p50_ms,
            sum.lag_p90_ms,
            verdict.placed_delay_ms,
            world::peak_rss_mb(),
        ];
        for (decl, value) in END_TO_END.iter().zip(values) {
            metrics.push(Metric {
                name: decl.name,
                value,
                unit: decl.unit,
            });
        }
    }
    for m in &metrics {
        let _ = writeln!(text, "{:<46} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let _ = writeln!(
        text,
        "operations: {attempted} attempted, {failed} failed; outputs {}",
        if correct { "correct" } else { "WRONG" }
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        text,
    })
}

/// Share-of-wall table: self time per span name and thread over the
/// traced passes, largest first.
fn share_table(tracer: &Tracer, text: &mut String) {
    let (wall, passes) = workloads::traced_wall(tracer);
    // Only spans under a traced pass: set-up and the verification replay
    // have roots of their own.
    let rows = tracer.self_times(Some(workloads::PASS_SPAN));
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let _ = writeln!(
        text,
        "share of wall over {passes} traced passes (self time; thread 0 drives, 1 produces):"
    );
    for ((thread, name), t) in rows {
        let _ = writeln!(
            text,
            "  t{thread} {name:<40} {:>6.2} %  {:>10} calls",
            t.self_ns as f64 / wall * 100.0,
            t.calls
        );
    }
}

fn write_trace(tracer: &Tracer, workload: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    tracer.write_jsonl(std::fs::File::create(trace_path(workload))?)
}
