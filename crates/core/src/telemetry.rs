//! Zero-cost-when-disabled run instrumentation.
//!
//! The placement pipeline is driven by *observed* behavior — pruning
//! hit-rates, gossip retries, merge churn, per-phase placement decisions —
//! yet none of that was visible at runtime before this module. A
//! [`Recorder`] is the sink for that signal:
//!
//! * [`NullRecorder`] — the default. Every method is an empty `#[inline]`
//!   body; call sites are monomorphized, so with the null recorder the
//!   instrumentation compiles to nothing. The hot paths (`Network::deliver`,
//!   `OnlineClusterer::observe`, the pruned Lloyd inner loop) additionally
//!   keep their own plain-`u64` counters (see `DeliveryStats`,
//!   `StreamStats`, `KMeansStats` in the lower crates) that driver layers
//!   flush into a recorder once per run, so per-message virtual dispatch
//!   never happens at all.
//! * [`InMemoryRecorder`] — internally synchronized aggregation: named
//!   counters, histogram summaries and structured events, readable while
//!   the run is in flight. This is what the equivalence suites attach to
//!   prove instrumentation does not perturb results.
//! * [`TraceWriter`] — a JSONL sink (one object per line). Lines carry a
//!   sequence number but **no wall-clock timestamp**, so a deterministic
//!   caller produces a bit-identical trace file on every run.
//!
//! A finished [`InMemoryRecorder`] collapses into a [`RunReport`] — the
//! JSON aggregate `examples/fleet.rs` prints and `tests/trace_roundtrip.rs`
//! compares replays by.
//!
//! # Overhead contract
//!
//! Instrumented code must stay bit-identical with any recorder attached:
//! recorder calls never touch an RNG stream, never feed back into `f64`
//! arithmetic that reaches a report, and only ever *read* the values they
//! record (pinned by the recorder-attached tests of
//! `tests/streaming_equivalence.rs` and `tests/robustness_scenarios.rs`).
//! [`NullRecorder`] is empty `#[inline(always)]` bodies with
//! `enabled() == false`, so guarded call sites compile away; the cost of a
//! *live* recorder is not measured anywhere yet.
//!
//! # Trace schema
//!
//! Every line of a [`TraceWriter`] file is one JSON object:
//!
//! ```json
//! {"seq":0,"kind":"counter","name":"net.delivered","delta":412}
//! {"seq":1,"kind":"observe","name":"tick.delay_ms","value":83.25}
//! {"seq":2,"kind":"event","name":"phase.start","fields":{"phase":"fault","tick":4}}
//! ```
//!
//! Set `GEOREP_TRACE=out.jsonl` to make [`TraceWriter::from_env`] return a
//! writer; `georep compare` checks that variable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One field value of a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            FieldValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// A sink for counters, histogram observations, timers and structured
/// events.
///
/// Implementations must be internally synchronized (`Sync` is a
/// supertrait): instrumented code is free to record from scoped worker
/// threads.
pub trait Recorder: Sync {
    /// Whether this recorder keeps anything at all. Call sites gate
    /// *payload construction* (not the record call itself) on this, so a
    /// [`NullRecorder`] never pays for string formatting or field vectors.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the named counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Records one sample of the named distribution.
    fn observe(&self, name: &'static str, value: f64);

    /// Records a structured event.
    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]);

    /// Times `f` and records the elapsed wall-clock milliseconds as an
    /// observation of `name`. With a disabled recorder `f` runs untimed.
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T
    where
        Self: Sized,
    {
        if self.enabled() {
            let start = Instant::now();
            let out = f();
            self.observe(name, start.elapsed().as_secs_f64() * 1e3);
            out
        } else {
            f()
        }
    }
}

/// Forwarding impl so `&R` can be handed to generic drivers.
impl<R: Recorder> Recorder for &R {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn counter(&self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }
    fn observe(&self, name: &'static str, value: f64) {
        (**self).observe(name, value);
    }
    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        (**self).event(name, fields);
    }
}

/// The disabled recorder: every method is an empty inlined body, so
/// monomorphized call sites vanish entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn counter(&self, _name: &'static str, _delta: u64) {}
    #[inline(always)]
    fn observe(&self, _name: &'static str, _value: f64) {}
    #[inline(always)]
    fn event(&self, _name: &'static str, _fields: &[(&'static str, FieldValue)]) {}
}

/// Number of finite exponential histogram buckets. Bucket `i` has the
/// upper bound `2^(i - 20)` — from ~9.5e-7 up to 2^19 = 524288 — and one
/// extra overflow bucket catches everything above the last bound.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Power-of-two offset of the first bucket bound (`2^-HISTOGRAM_MIN_EXP`).
const HISTOGRAM_MIN_EXP: i64 = 20;

/// Upper bound of finite bucket `i` (see [`HISTOGRAM_BUCKETS`]).
///
/// # Panics
///
/// Panics when `i >= HISTOGRAM_BUCKETS`.
pub fn bucket_bound(i: usize) -> f64 {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    f64::powi(2.0, i as i32 - HISTOGRAM_MIN_EXP as i32)
}

/// Index of the smallest bucket bound ≥ `value`, or `HISTOGRAM_BUCKETS`
/// for the overflow bucket. Exact: the bound exponent is read from the
/// float's bit pattern, so boundary samples (`value == 2^e`) always land
/// in *their own* bucket, with no `log2` rounding involved. Non-positive
/// samples land in bucket 0.
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 {
        return 0;
    }
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    // For value in (2^e, 2^(e+1)) the smallest covering bound is 2^(e+1);
    // an exact power of two (zero mantissa, normal range) is its own bound.
    let exact_pow2 = bits & 0x000f_ffff_ffff_ffff == 0 && exp > -1023;
    let bound_exp = if exact_pow2 { exp } else { exp + 1 };
    (bound_exp + HISTOGRAM_MIN_EXP).clamp(0, HISTOGRAM_BUCKETS as i64) as usize
}

/// Count / sum / min / max summary of an observed distribution, plus
/// exponential bucket counts for percentile extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Per-bucket sample counts: `buckets[i]` counts samples in
    /// `(bucket_bound(i-1), bucket_bound(i)]` (bucket 0 additionally
    /// absorbs non-positive samples); the final slot is the overflow
    /// bucket above the last finite bound.
    pub buckets: [u64; HISTOGRAM_BUCKETS + 1],
}

impl HistogramSummary {
    /// A summary with no samples yet.
    pub fn empty() -> Self {
        HistogramSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS + 1],
        }
    }

    fn absorb(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) read exactly off the bucket
    /// boundaries: the upper bound of the first bucket whose cumulative
    /// count reaches `⌈q · count⌉` samples.
    ///
    /// **Bias**: buckets are powers of two, so the result overestimates
    /// the true quantile by at most one bucket factor (< 2×); it is
    /// clamped to the exact observed `max` (and the overflow bucket
    /// reports `max`), so it never exceeds any real sample. Returns 0 when
    /// nothing was observed.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return if i < HISTOGRAM_BUCKETS {
                    bucket_bound(i).min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// One recorded structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name.
    pub name: &'static str,
    /// Field name/value pairs, in call order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Locks `mutex`, tolerating poison: a panic on another recording thread
/// must not take the telemetry down with it. Every update under these
/// locks is one collection or writer call, so a poisoned value is still
/// whole.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread-safe in-memory aggregation of everything recorded.
#[derive(Debug, Default)]
pub struct InMemoryRecorder {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, HistogramSummary>>,
    events: Mutex<Vec<EventRecord>>,
}

impl InMemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Summary of a distribution, if any sample was observed.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        lock(&self.histograms).get(name).copied()
    }

    /// Snapshot of every histogram, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// All structured events recorded so far, in order.
    pub fn events(&self) -> Vec<EventRecord> {
        lock(&self.events).clone()
    }

    /// Number of structured events recorded so far.
    pub fn events_len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Drops everything recorded so far.
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.histograms).clear();
        lock(&self.events).clear();
    }
}

impl Recorder for InMemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        *lock(&self.counters).entry(name).or_insert(0) += delta;
    }

    fn observe(&self, name: &'static str, value: f64) {
        if !value.is_finite() {
            return;
        }
        lock(&self.histograms)
            .entry(name)
            .or_insert_with(HistogramSummary::empty)
            .absorb(value);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        lock(&self.events).push(EventRecord {
            name,
            fields: fields.to_vec(),
        });
    }
}

/// A JSONL trace sink: one JSON object per recorded call.
///
/// Lines are sequence-numbered but carry no timestamps, so deterministic
/// callers produce bit-identical trace files.
#[derive(Debug)]
pub struct TraceWriter {
    out: Mutex<BufWriter<File>>,
    seq: AtomicU64,
}

impl TraceWriter {
    /// Creates (truncates) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(TraceWriter {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            seq: AtomicU64::new(0),
        })
    }

    /// A writer for the file named by the `GEOREP_TRACE` environment
    /// variable, or `None` when the variable is unset/empty or the file
    /// cannot be created.
    pub fn from_env() -> Option<Self> {
        let path = std::env::var("GEOREP_TRACE").ok()?;
        if path.is_empty() {
            return None;
        }
        Self::create(path).ok()
    }

    /// Flushes buffered lines to disk.
    pub fn flush(&self) {
        let _ = lock(&self.out).flush();
    }

    fn emit(&self, body: &str) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut out = lock(&self.out);
        let _ = writeln!(out, "{{\"seq\":{seq},{body}}}");
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        let _ = lock(&self.out).flush();
    }
}

impl Recorder for TraceWriter {
    fn counter(&self, name: &'static str, delta: u64) {
        self.emit(&format!(
            "\"kind\":\"counter\",\"name\":\"{name}\",\"delta\":{delta}"
        ));
    }

    fn observe(&self, name: &'static str, value: f64) {
        let mut body = format!("\"kind\":\"observe\",\"name\":\"{name}\",\"value\":");
        FieldValue::F64(value).write_json(&mut body);
        self.emit(&body);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let mut body = format!("\"kind\":\"event\",\"name\":\"{name}\",\"fields\":{{");
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let _ = write!(body, "\"{key}\":");
            value.write_json(&mut body);
        }
        body.push('}');
        self.emit(&body);
    }
}

/// Aggregate of one run: the counters and histogram summaries of an
/// [`InMemoryRecorder`], serializable as one JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the run (e.g. the emitting binary).
    pub run: String,
    /// Number of structured events recorded.
    pub events: u64,
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl RunReport {
    /// Collapses a recorder into a report.
    pub fn from_recorder(run: &str, recorder: &InMemoryRecorder) -> Self {
        RunReport {
            run: run.to_owned(),
            events: recorder.events_len() as u64,
            counters: recorder.counters(),
            histograms: recorder.histograms(),
        }
    }

    /// Value of a counter in this report (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Renders the report as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(out, "  \"run\": ");
        FieldValue::Str(self.run.clone()).write_json(&mut out);
        let _ = write!(out, ",\n  \"events\": {},\n  \"counters\": {{", self.events);
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{name}\": {value}");
        }
        if !self.counters.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{name}\": {{\"count\": {}, \"sum\": {:.6}, \"min\": {:.6}, \"max\": {:.6}, \
                 \"mean\": {:.6}, \"p50\": {:.6}, \"p99\": {:.6}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99)
            );
        }
        if !self.histograms.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// A lightweight scope marker. With the `spans` feature disabled (the
/// default) this is a zero-sized no-op; with it enabled, entering and
/// leaving a span prints nesting-indented lines with elapsed wall-clock
/// time to stderr — enough to see where a scenario or bench run spends its
/// time without adding a dependency.
#[must_use = "a span ends when its guard is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(feature = "spans")]
    name: &'static str,
    #[cfg(feature = "spans")]
    start: Instant,
}

#[cfg(feature = "spans")]
thread_local! {
    static SPAN_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl SpanGuard {
    /// Enters a named span; the span closes when the guard drops.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        #[cfg(feature = "spans")]
        {
            let depth = SPAN_DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth
            });
            eprintln!("[span] {:indent$}> {name}", "", indent = depth * 2);
            SpanGuard {
                name,
                start: Instant::now(),
            }
        }
        #[cfg(not(feature = "spans"))]
        {
            let _ = name;
            SpanGuard {}
        }
    }
}

#[cfg(feature = "spans")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get().saturating_sub(1);
            d.set(depth);
            depth
        });
        eprintln!(
            "[span] {:indent$}< {} {:.3} ms",
            "",
            self.name,
            self.start.elapsed().as_secs_f64() * 1e3,
            indent = depth * 2
        );
    }
}

/// Enters a [`SpanGuard`] scope: `let _span = georep_core::span!("name");`.
/// Compiles to a zero-sized no-op unless the `spans` feature is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.counter("x", 5);
        r.observe("y", 1.0);
        r.event("z", &[("k", FieldValue::U64(1))]);
        let out = r.time("t", || 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn in_memory_counters_accumulate() {
        let r = InMemoryRecorder::new();
        r.counter("net.delivered", 3);
        r.counter("net.delivered", 4);
        r.counter("net.dropped", 1);
        assert_eq!(r.counter_value("net.delivered"), 7);
        assert_eq!(r.counter_value("net.dropped"), 1);
        assert_eq!(r.counter_value("missing"), 0);
        assert_eq!(
            r.counters(),
            vec![
                ("net.delivered".to_string(), 7),
                ("net.dropped".to_string(), 1)
            ]
        );
    }

    #[test]
    fn in_memory_histograms_summarize() {
        let r = InMemoryRecorder::new();
        for v in [2.0, 8.0, 5.0] {
            r.observe("delay", v);
        }
        r.observe("delay", f64::NAN); // ignored
        let h = r.histogram("delay").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 15.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 8.0);
        assert_eq!(h.mean(), 5.0);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn in_memory_events_and_reset() {
        let r = InMemoryRecorder::new();
        r.event(
            "phase.start",
            &[("tick", 4u64.into()), ("name", "fault".into())],
        );
        assert_eq!(r.events_len(), 1);
        let ev = &r.events()[0];
        assert_eq!(ev.name, "phase.start");
        assert_eq!(ev.fields[0], ("tick", FieldValue::U64(4)));
        r.reset();
        assert_eq!(r.events_len(), 0);
        assert_eq!(r.counters().len(), 0);
    }

    #[test]
    fn timer_records_an_observation() {
        let r = InMemoryRecorder::new();
        let out = r.time("work_ms", || 7);
        assert_eq!(out, 7);
        let h = r.histogram("work_ms").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn trace_writer_emits_one_json_object_per_line() {
        let path = std::env::temp_dir().join("georep_trace_writer_test.jsonl");
        {
            let w = TraceWriter::create(&path).unwrap();
            w.counter("net.delivered", 3);
            w.observe("delay_ms", 12.5);
            w.event(
                "phase.start",
                &[("tick", 4u64.into()), ("name", "fault \"q\"".into())],
            );
            w.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"kind\":\"counter\",\"name\":\"net.delivered\",\"delta\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"kind\":\"observe\",\"name\":\"delay_ms\",\"value\":12.5}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"kind\":\"event\",\"name\":\"phase.start\",\
             \"fields\":{\"tick\":4,\"name\":\"fault \\\"q\\\"\"}}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_report_renders_counters_and_histograms() {
        let r = InMemoryRecorder::new();
        r.counter("gossip.pings", 10);
        r.counter("net.delivered", 40);
        r.observe("tick.delay_ms", 80.0);
        r.observe("tick.delay_ms", 120.0);
        r.event("done", &[]);
        let report = RunReport::from_recorder("unit_test", &r);
        assert_eq!(report.counter("gossip.pings"), 10);
        assert_eq!(report.counter("absent"), 0);
        assert_eq!(report.events, 1);
        let json = report.to_json();
        assert!(json.contains("\"run\": \"unit_test\""));
        assert!(json.contains("\"gossip.pings\": 10"));
        assert!(json.contains("\"net.delivered\": 40"));
        assert!(json.contains("\"tick.delay_ms\": {\"count\": 2"));
        assert!(json.contains("\"mean\": 100.000000"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn bucket_index_is_exact_at_power_of_two_boundaries() {
        // 1.0 = 2^0 is bucket bound HISTOGRAM_MIN_EXP's own bucket.
        assert_eq!(bucket_index(1.0), 20);
        assert_eq!(bucket_bound(20), 1.0);
        // Just above a bound spills into the next bucket; just below stays.
        assert_eq!(bucket_index(1.0 + f64::EPSILON), 21);
        assert_eq!(bucket_index(0.75), 20);
        assert_eq!(bucket_index(0.5), 19);
        // Non-positive and tiny samples collapse into bucket 0.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(1e-300), 0);
        // Huge samples land in the overflow bucket.
        assert_eq!(bucket_index(1e30), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn percentiles_come_from_bucket_bounds_clamped_to_max() {
        let r = InMemoryRecorder::new();
        // 99 samples at ~0.7 (bucket bound 1.0), one at ~300 (bound 512).
        for _ in 0..99 {
            r.observe("lat", 0.7);
        }
        r.observe("lat", 300.0);
        let h = r.histogram("lat").unwrap();
        // p50 rank 50 falls in the 0.7 bucket, whose upper bound is 1.0.
        assert_eq!(h.percentile(0.50), 1.0);
        // p99 rank 99 still falls in the first bucket.
        assert_eq!(h.percentile(0.99), 1.0);
        // p100 reaches the outlier; its bucket bound 512 exceeds the
        // observed max, so the exact max is reported instead.
        assert_eq!(h.percentile(1.0), 300.0);
        assert_eq!(h.percentile(0.0), 1.0);
        // Bucket counts partition the samples.
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        assert_eq!(HistogramSummary::empty().percentile(0.99), 0.0);
    }

    #[test]
    fn overflow_bucket_reports_the_exact_max() {
        let r = InMemoryRecorder::new();
        r.observe("big", 1e30);
        let h = r.histogram("big").unwrap();
        assert_eq!(h.percentile(0.99), 1e30);
    }

    #[test]
    fn run_report_carries_percentiles() {
        let r = InMemoryRecorder::new();
        r.observe("lat", 0.7);
        let report = RunReport::from_recorder("unit_test", &r);
        let json = report.to_json();
        assert!(json.contains("\"p50\": "), "{json}");
        assert!(json.contains("\"p99\": "), "{json}");
    }

    #[test]
    fn span_guard_is_a_noop_without_the_feature() {
        let _guard = SpanGuard::enter("test.span");
        #[cfg(not(feature = "spans"))]
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
    }

    #[test]
    fn trace_from_env_requires_the_variable() {
        // The suite does not set GEOREP_TRACE; reading it here keeps the
        // test independent of environment mutation (which is unsafe under
        // threads).
        if std::env::var("GEOREP_TRACE").is_err() {
            assert!(TraceWriter::from_env().is_none());
        }
    }
}
