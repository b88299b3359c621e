//! `compare` and `selfcheck`: hold two sets of records against the
//! bounds the benchmark fixed.
//!
//! A records file is JSON Lines, one object per run as `run --out FILE`
//! appends them. Per workload × end-to-end metric the comparison prints
//! both medians, the relative change, the bound and a verdict by the rule
//! of choosing-metrics §6: `regressed` when the second median is worse by
//! more than the bound; when either side's own quartile spread is wider
//! than the bound the medians decide nothing, and the verdict is
//! `unresolved` unless every run of one side beats every run of the other
//! (then it is `ok`, or `regressed` when the medians differ by more than
//! the bound); `ok` otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// `workload → metric → one value per run`.
pub type Records = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Parses a records file's text. Lines that are not record objects (the
/// human-readable report, blank lines) are skipped, so a captured stdout
/// works when its last line was extended with a workload name.
///
/// # Errors
///
/// A message naming the line when a line that starts with `{` is not a
/// valid record.
pub fn parse_records(text: &str) -> Result<Records, String> {
    let mut out = Records::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", n + 1);
        let doc = json::parse(line).map_err(|e| bad(&e.to_string()))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("record without a workload"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("record without metrics"))?;
        let per_metric = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without a numeric value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one workload × metric.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            stats::relative_spread(v)
        } else {
            0.0
        }
    };
    let worse = worse_by(better, stats::median(a), stats::median(b));
    if spread(a) > bound || spread(b) > bound {
        // Too noisy for the medians to mean anything — unless the sides
        // do not even overlap.
        let sweeps = |winners: &[f64], losers: &[f64]| {
            let beats = |x: f64, y: f64| worse_by(better, y, x) < 0.0;
            winners.iter().all(|&x| losers.iter().all(|&y| beats(x, y)))
        };
        return if sweeps(b, a) {
            Verdict::Ok
        } else if sweeps(a, b) && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// How many workload × end-to-end metric rows got each verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub ok: usize,
    pub regressed: usize,
    pub unresolved: usize,
}

/// The comparison table and the verdict counts over its end-to-end rows.
/// With `both_ways` a row is also `regressed` when `a` is worse than `b`
/// — the self-check of two sets of runs of the same code.
pub fn compare(a: &Records, b: &Records, both_ways: bool) -> (String, Tally) {
    let mut text = String::new();
    let mut tally = Tally::default();
    let _ = writeln!(
        text,
        "{:<12} {:<40} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "change", "bound"
    );
    for w in &WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            let mut verdict = judge(m.better, m.bound, va, vb);
            if both_ways && verdict == Verdict::Ok {
                verdict = judge(m.better, m.bound, vb, va);
            }
            match verdict {
                Verdict::Ok => tally.ok += 1,
                Verdict::Regressed => tally.regressed += 1,
                Verdict::Unresolved => tally.unresolved += 1,
            }
            let (med_a, med_b) = (stats::median(va), stats::median(vb));
            let _ = writeln!(
                text,
                "{:<12} {:<40} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {} ({}+{} runs, {})",
                w.name,
                m.name,
                med_a,
                med_b,
                (med_b - med_a) / med_a.abs() * 100.0,
                m.bound * 100.0,
                verdict.as_str(),
                va.len(),
                vb.len(),
                m.unit
            );
        }
        // Traced records: layer numbers carry no bound; counts must repeat.
        for m in &PER_LAYER {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            let (med_a, med_b) = (stats::median(va), stats::median(vb));
            let note = match (m.exact, med_a == med_b) {
                (true, true) => "same count",
                (true, false) => "COUNT DIFFERS",
                (false, _) => "-",
            };
            let change = if med_a == 0.0 {
                0.0
            } else {
                (med_b - med_a) / med_a.abs() * 100.0
            };
            let _ = writeln!(
                text,
                "{:<12} {:<40} {:>14.4} {:>14.4} {:>+7.1}% {:>6}  {note} ({})",
                w.name, m.name, med_a, med_b, change, "", m.unit
            );
        }
    }
    let _ = writeln!(
        text,
        "end-to-end rows: {} ok, {} regressed, {} unresolved",
        tally.ok, tally.regressed, tally.unresolved
    );
    (text, tally)
}

/// Reads and parses a records file.
///
/// # Errors
///
/// A message naming the file when it cannot be read or parsed.
pub fn load(path: &Path) -> Result<Records, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_records(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, metric: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": false, \"correct\": true, \
             \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"{metric}\": \
             {{\"value\": {value}, \"unit\": \"x\"}}}}}}"
        )
    }

    #[test]
    fn records_group_by_workload_and_metric() {
        let text = [
            "some report line".to_string(),
            record("serve_hot", "accesses_per_s", 10.0),
            record("serve_hot", "accesses_per_s", 12.0),
            record("fleet_wide", "accesses_per_s", 3.0),
        ]
        .join("\n");
        let r = parse_records(&text).unwrap();
        assert_eq!(r["serve_hot"]["accesses_per_s"], [10.0, 12.0]);
        assert_eq!(r["fleet_wide"]["accesses_per_s"], [3.0]);
        assert!(parse_records("{\"metrics\": {}}").is_err());
        assert!(parse_records("{not json").is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady_a = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +20 % is a regression at a 10 % bound, +5 % is not.
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                &steady_a,
                &[120.0, 121.0, 119.0, 120.0]
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                Better::Lower,
                0.10,
                &steady_a,
                &[105.0, 104.0, 106.0, 105.0]
            ),
            Verdict::Ok
        );
        // Higher is better: the same +20 % is an improvement.
        assert_eq!(
            judge(
                Better::Higher,
                0.10,
                &steady_a,
                &[120.0, 121.0, 119.0, 120.0]
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &steady_a, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Regressed
        );
        // A side noisier than the bound cannot resolve an overlap ...
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(Better::Lower, 0.10, &steady_a, &noisy),
            Verdict::Unresolved
        );
        // ... but a clean sweep still counts, in either direction ...
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &[50.0, 51.0, 52.0, 53.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy, &[150.0, 151.0, 152.0, 153.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &noisy, &[50.0, 51.0, 52.0, 53.0]),
            Verdict::Regressed
        );
        // ... as long as the medians are further apart than the bound.
        assert_eq!(
            judge(Better::Lower, 0.70, &[80.0, 100.0, 160.0], &[161.0, 162.0]),
            Verdict::Unresolved
        );
        // Single runs have no spread: medians decide.
        assert_eq!(
            judge(Better::Lower, 0.10, &[100.0], &[111.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_flags_regressions_and_self_disagreement() {
        let a = parse_records(&record("serve_hot", "accesses_per_s", 100.0)).unwrap();
        let faster = parse_records(&record("serve_hot", "accesses_per_s", 160.0)).unwrap();
        let slower = parse_records(&record("serve_hot", "accesses_per_s", 60.0)).unwrap();
        let regressed = |a, b, both_ways| compare(a, b, both_ways).1.regressed;
        assert_eq!(regressed(&a, &faster, false), 0);
        assert_eq!(regressed(&a, &slower, false), 1);
        // The self-check fails on disagreement in either direction.
        assert_eq!(regressed(&a, &faster, true), 1);
        let (text, tally) = compare(&a, &a, true);
        let one_ok = Tally {
            ok: 1,
            ..Tally::default()
        };
        assert_eq!(tally, one_ok);
        assert!(text.contains("serve_hot"));
        assert!(text.contains("end-to-end rows: 1 ok, 0 regressed, 0 unresolved"));
    }
}
