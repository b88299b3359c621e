//! Harness-side tracing: a span around every call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! The spans live in the benchmark's own files (choosing-metrics §4: spans
//! inside the program are a later change), so a layer is whatever public
//! function the harness called, named by its module path. A disabled
//! tracer never reads the clock, which is what untraced runs use.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (module path) plus the call, e.g. `core.fleet.rebalance`.
    pub name: &'static str,
    /// 0 = the thread driving the system, 1 = the producer thread.
    pub thread: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    /// Decision period the call belongs to (spans of one period share it).
    pub period: Option<u32>,
    /// Back-to-back calls folded into this span (polls that did nothing
    /// would otherwise be millions of spans per pass).
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of one span name on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub spans: u64,
    pub calls: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u8,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for the driving thread.
    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// A tracer for a second thread sharing this one's time axis and
    /// on/off state; merge it back with [`Tracer::absorb`].
    pub fn for_thread(&self, thread: u8) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span; `f` receives the tracer back so the calls
    /// it makes nest under this one. Disabled: just runs `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        period: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            period,
            calls: 1,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured childless span under the open one.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        period: Option<u32>,
        calls: u32,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                thread: self.thread,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                period,
                calls,
            });
        }
    }

    /// Appends another thread's spans. Its root spans hang under
    /// `parent` (an index into this tracer, e.g. the pass that spawned the
    /// thread); self-time accounting stays per thread.
    pub fn absorb(&mut self, other: Tracer, parent: Option<u32>) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<u32> {
        self.open.last().copied()
    }

    /// Self time (span minus the part its same-thread children cover) per
    /// `(thread, name)`, over the spans at or below a span called `root`
    /// (`None`: every span).
    pub fn self_times(&self, root: Option<&str>) -> BTreeMap<(u8, &'static str), SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents are recorded before their children, so one forward pass
        // settles which spans sit under the root.
        let mut included = vec![root.is_none(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                included[i] |= included[p as usize];
                if self.spans[p as usize].thread == s.thread {
                    child_ns[p as usize] += s.duration_ns();
                }
            }
            included[i] |= Some(s.name) == root;
        }
        let mut out: BTreeMap<(u8, &'static str), SelfTime> = BTreeMap::new();
        for ((s, covered), _) in self
            .spans
            .iter()
            .zip(child_ns)
            .zip(included)
            .filter(|(_, included)| *included)
        {
            let e = out.entry((s.thread, s.name)).or_default();
            e.self_ns += s.duration_ns().saturating_sub(covered);
            e.total_ns += s.duration_ns();
            e.spans += 1;
            e.calls += u64::from(s.calls);
        }
        out
    }

    /// Totals of the spans called `name` on `thread` at or below a span
    /// called `root` (all zero when there are none).
    pub fn under(&self, root: &str, thread: u8, name: &'static str) -> SelfTime {
        self.self_times(Some(root))
            .get(&(thread, name))
            .copied()
            .unwrap_or_default()
    }

    /// Durations, ns, of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.duration_ns() as f64).collect()
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error of the underlying writer, including the final flush.
    pub fn write_jsonl<W: Write>(&self, out: W) -> io::Result<()> {
        let mut out = io::BufWriter::new(out);
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"period\": {}, \"calls\": {}}}",
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.period),
                s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree on thread 0 plus one span on thread 1:
    ///
    /// ```text
    /// pass            [0, 100)
    ///   ingest        [10, 40)
    ///     absorb      [15, 35)
    ///   rebalance     [40, 90)
    ///   rebalance     [90, 95)
    /// submit (t1)     [0, 60)   parent = pass, other thread
    /// ```
    fn tree() -> Tracer {
        let mut t = Tracer::enabled();
        let span = |name, thread, start_ns, end_ns, parent| Span {
            name,
            thread,
            start_ns,
            end_ns,
            parent,
            period: None,
            calls: 1,
        };
        t.spans = vec![
            span("pass", 0, 0, 100, None),
            span("ingest", 0, 10, 40, Some(0)),
            span("absorb", 0, 15, 35, Some(1)),
            span("rebalance", 0, 40, 90, Some(0)),
            span("rebalance", 0, 90, 95, Some(0)),
            span("submit", 1, 0, 60, Some(0)),
        ];
        t
    }

    #[test]
    fn self_time_is_span_minus_same_thread_children() {
        let st = tree().self_times(None);
        // pass: 100 − (30 + 50 + 5); the other thread's span is not a child
        // in time-accounting terms.
        assert_eq!(st[&(0, "pass")].self_ns, 15);
        assert_eq!(st[&(0, "ingest")].self_ns, 10);
        assert_eq!(st[&(0, "absorb")].self_ns, 20);
        assert_eq!(st[&(0, "rebalance")].self_ns, 55);
        assert_eq!(st[&(0, "rebalance")].spans, 2);
        assert_eq!(st[&(1, "submit")].self_ns, 60);
        // Self times of one thread add up to its root span.
        let thread0: u64 = st
            .iter()
            .filter(|((t, _), _)| *t == 0)
            .map(|(_, s)| s.self_ns)
            .sum();
        assert_eq!(thread0, 100);
        assert_eq!(tree().under("pass", 0, "rebalance").self_ns, 55);
        assert_eq!(tree().under("ingest", 0, "rebalance"), SelfTime::default());
        assert_eq!(tree().durations_ns("rebalance"), [50.0, 5.0]);
        // Restricted to a root: the root, what hangs under it, nothing else.
        let under = tree().self_times(Some("ingest"));
        let names: Vec<_> = under.keys().map(|k| k.1).collect();
        assert_eq!(names, ["absorb", "ingest"]);
        assert_eq!(under[&(0, "ingest")].self_ns, 10);
    }

    #[test]
    fn nested_time_calls_link_parents_and_disabled_records_nothing() {
        let mut t = Tracer::enabled();
        let out = t.time("outer", Some(3), |t| {
            t.time("inner", Some(3), |t| t.leaf("leaf", 1, 2, None, 7));
            41 + 1
        });
        assert_eq!(out, 42);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("outer", None), ("inner", Some(0)), ("leaf", Some(1))]
        );
        assert_eq!(t.spans()[2].calls, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::disabled();
        assert_eq!(off.time("outer", None, |t| t.time("inner", None, |_| 5)), 5);
        off.leaf("leaf", 0, 1, None, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_jsonl_parses_back() {
        let mut main = Tracer::enabled();
        main.time("pass", None, |t| {
            let mut other = t.for_thread(1);
            other.time("batch", Some(0), |o| o.leaf("push", 5, 6, Some(0), 4096));
            let parent = t.current();
            t.absorb(other, parent);
        });
        let s = main.spans();
        assert_eq!((s[1].name, s[1].parent, s[1].thread), ("batch", Some(0), 1));
        assert_eq!((s[2].name, s[2].parent), ("push", Some(1)));

        let mut buf = Vec::new();
        main.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let v = crate::json::parse(lines[2]).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("push"));
        assert_eq!(v.get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("calls").unwrap().as_f64(), Some(4096.0));
        assert_eq!(
            crate::json::parse(lines[0]).unwrap().get("parent"),
            Some(&crate::json::Value::Null)
        );
    }
}
