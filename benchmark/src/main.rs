//! `georep-benchmark run | probes | compare | selfcheck` — see `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use georep_benchmark::compare::{compare, load};
use georep_benchmark::metrics::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use georep_benchmark::probes;
use georep_benchmark::run::{out_dir, run, Args};
use georep_benchmark::world::Scale;

const USAGE: &str = "usage:
  georep-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  georep-benchmark probes [--seed N] [--smoke]
  georep-benchmark compare <a.jsonl> <b.jsonl>
  georep-benchmark selfcheck [--seconds S]
workloads: serve_hot serve_churn fleet_wide decide_mesh
exit codes: 0 fine, 1 wrong output or regressed, 2 bad arguments,
  3 compare found no regression but left rows unresolved";

/// What a command found.
enum Found {
    Fine,
    /// A wrong output, a regression, or two sets that disagree.
    Bad,
    /// `compare` only: nothing regressed, but some rows are unresolved.
    Unresolved,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--out" => out.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("run needs --workload".to_string());
    }
    Ok(out)
}

fn cmd_run(args: &[String]) -> Result<Found, String> {
    let args = parse_run(args)?;
    let outcome = run(&args).map_err(|e| e.to_string())?;
    if let Some(path) = &args.out {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", outcome.record_line(&args)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", outcome.text);
    println!("{}", outcome.json_line());
    Ok(if outcome.correct {
        Found::Fine
    } else {
        Found::Bad
    })
}

/// Unit costs of the inner layers, once, on the fixed probe input.
fn cmd_probes(args: &[String]) -> Result<Found, String> {
    let (mut seed, mut scale) = (DEFAULT_SEED, Scale::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.as_slice().first()) {
            ("--smoke", _) => scale = Scale::Smoke,
            ("--seed", Some(value)) => {
                seed = parse_u64(value).ok_or(format!("bad value {value:?} for --seed"))?;
                it.next();
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    for (name, value, unit) in probes::run(seed, scale) {
        println!("{name:<46} {value:>18.6} {unit}");
    }
    Ok(Found::Fine)
}

fn cmd_compare(args: &[String]) -> Result<Found, String> {
    let [a, b] = args else {
        return Err("compare needs two records files".to_string());
    };
    let (text, tally) = compare(&load(Path::new(a))?, &load(Path::new(b))?, false);
    print!("{text}");
    Ok(match (tally.regressed, tally.unresolved) {
        (0, 0) => Found::Fine,
        (0, _) => Found::Unresolved,
        _ => Found::Bad,
    })
}

/// Runs the untraced suite twice, one process per workload and set, the
/// two sets alternating, and fails when any end-to-end metric disagrees
/// beyond its bound.
fn cmd_selfcheck(args: &[String]) -> Result<Found, String> {
    let seconds = match args {
        [] => RUN_SECONDS.to_string(),
        [flag, value] if flag == "--seconds" => value.clone(),
        _ => return Err("selfcheck takes only --seconds S".to_string()),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let sets = [dir.join("selfcheck_a.jsonl"), dir.join("selfcheck_b.jsonl")];
    for set in &sets {
        let _ = std::fs::remove_file(set);
    }
    for w in &WORKLOADS {
        for set in &sets {
            eprintln!("selfcheck: {} → {}", w.name, set.display());
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name, "--seconds", &seconds, "--out"])
                .arg(set)
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} failed its own checks ({status})", w.name));
            }
        }
    }
    let (text, tally) = compare(&load(&sets[0])?, &load(&sets[1])?, true);
    print!("{text}");
    Ok(if tally.regressed + tally.unresolved == 0 {
        Found::Fine
    } else {
        Found::Bad
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "probes" => cmd_probes(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => cmd_selfcheck(rest),
        _ => Err("expected run, probes, compare or selfcheck".to_string()),
    };
    match result {
        Ok(Found::Fine) => ExitCode::SUCCESS,
        Ok(Found::Bad) => ExitCode::from(1),
        Ok(Found::Unresolved) => ExitCode::from(3),
        Err(message) => {
            eprintln!("georep-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
