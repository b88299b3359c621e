//! Access-trace recording and replay.
//!
//! The paper's future work plans a "more realistic evaluation study based
//! on data accesses in actual applications". A [`Trace`] is the container
//! for that: a time-ordered access log that can be saved to a plain text
//! format, loaded back, windowed and replayed against any placement
//! machinery. Generated workloads and real logs meet in this one type.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::stream::AccessEvent;

/// Error produced when building or parsing a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// An event carried a non-finite time or size, or a negative time.
    InvalidEvent {
        /// Index of the offending event.
        index: usize,
    },
    /// A text line did not parse.
    Parse {
        /// 0-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidEvent { index } => {
                write!(f, "event {index} has a non-finite time or size")
            }
            TraceError::Parse { line, content } => {
                write!(f, "line {line}: cannot parse {content:?}")
            }
        }
    }
}

impl Error for TraceError {}

/// Per-trace summary statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of accesses.
    pub events: usize,
    /// Distinct clients that appear.
    pub distinct_clients: usize,
    /// Distinct object keys that appear (1 for single-object traces).
    pub distinct_objects: usize,
    /// Duration from first to last event, ms.
    pub span_ms: f64,
    /// Mean access rate over the span, per ms.
    pub rate_per_ms: f64,
    /// Total payload, KiB.
    pub total_kib: f64,
}

/// A time-ordered access log.
///
/// # Example
///
/// ```
/// use georep_workload::trace::Trace;
/// use georep_workload::{generate, Population, StreamConfig};
///
/// let events = generate(&Population::uniform(5), &StreamConfig::default(), 1_000.0);
/// let trace = Trace::from_events(events)?;
/// let text = trace.to_text();
/// let back: Trace = text.parse()?;
/// assert_eq!(back.len(), trace.len());
/// # Ok::<(), georep_workload::trace::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    events: Vec<AccessEvent>,
}

impl Trace {
    /// Builds a trace, sorting events by time.
    ///
    /// # Errors
    ///
    /// [`TraceError::InvalidEvent`] when a time or size is non-finite,
    /// negative, or non-positive respectively.
    pub fn from_events(mut events: Vec<AccessEvent>) -> Result<Self, TraceError> {
        for (index, e) in events.iter().enumerate() {
            if !(e.at_ms.is_finite()
                && e.at_ms >= 0.0
                && e.bytes_kib.is_finite()
                && e.bytes_kib > 0.0)
            {
                return Err(TraceError::InvalidEvent { index });
            }
        }
        events.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        Ok(Trace { events })
    }

    /// The events, in time order.
    pub fn events(&self) -> &[AccessEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events within `[from_ms, to_ms)`.
    pub fn window(&self, from_ms: f64, to_ms: f64) -> &[AccessEvent] {
        let start = self.events.partition_point(|e| e.at_ms < from_ms);
        let end = self.events.partition_point(|e| e.at_ms < to_ms);
        &self.events[start..end]
    }

    /// Summary statistics. Returns `None` for an empty trace.
    pub fn stats(&self) -> Option<TraceStats> {
        let first = self.events.first()?;
        let last = self.events.last()?;
        let span = (last.at_ms - first.at_ms).max(1e-9);
        let mut clients: Vec<usize> = self.events.iter().map(|e| e.client).collect();
        clients.sort_unstable();
        clients.dedup();
        let mut objects: Vec<u64> = self.events.iter().map(|e| e.object).collect();
        objects.sort_unstable();
        objects.dedup();
        Some(TraceStats {
            events: self.events.len(),
            distinct_clients: clients.len(),
            distinct_objects: objects.len(),
            span_ms: last.at_ms - first.at_ms,
            rate_per_ms: self.events.len() as f64 / span,
            total_kib: self.events.iter().map(|e| e.bytes_kib).sum(),
        })
    }

    /// `true` when any event touches an object other than `0` — i.e. the
    /// trace needs the 4-column multi-object text form.
    fn is_multi_object(&self) -> bool {
        self.events.iter().any(|e| e.object != 0)
    }

    /// Serializes to the text format: one `at_ms client kib` triple per
    /// line (plus a trailing `object` column for multi-object traces),
    /// `#`-comments allowed. Single-object traces keep the historical
    /// 3-column form so older readers still parse them.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 24 + 32);
        if self.is_multi_object() {
            out.push_str("# georep access trace: at_ms client kib object\n");
            for e in &self.events {
                out.push_str(&format!(
                    "{:.3} {} {:.3} {}\n",
                    e.at_ms, e.client, e.bytes_kib, e.object
                ));
            }
        } else {
            out.push_str("# georep access trace: at_ms client kib\n");
            for e in &self.events {
                out.push_str(&format!("{:.3} {} {:.3}\n", e.at_ms, e.client, e.bytes_kib));
            }
        }
        out
    }

    /// Serializes losslessly: like [`Trace::to_text`] but with
    /// shortest-round-trip float formatting instead of fixed `%.3f`, so
    /// `text.parse::<Trace>()` reconstructs every event bit-for-bit.
    /// Record/replay pipelines use this form; the fixed-precision form
    /// stays the human-facing default.
    pub fn to_text_exact(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 32 + 32);
        if self.is_multi_object() {
            out.push_str("# georep access trace (exact): at_ms client kib object\n");
            for e in &self.events {
                out.push_str(&format!(
                    "{} {} {} {}\n",
                    e.at_ms, e.client, e.bytes_kib, e.object
                ));
            }
        } else {
            out.push_str("# georep access trace (exact): at_ms client kib\n");
            for e in &self.events {
                out.push_str(&format!("{} {} {}\n", e.at_ms, e.client, e.bytes_kib));
            }
        }
        out
    }
}

impl FromStr for Trace {
    type Err = TraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut events = Vec::new();
        for (line, content) in s.lines().enumerate() {
            let content = content.trim();
            if content.is_empty() || content.starts_with('#') {
                continue;
            }
            let mut parts = content.split_whitespace();
            let bad = || TraceError::Parse {
                line,
                content: content.to_string(),
            };
            let at_ms: f64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            // The client indexes coordinate tables downstream, so it must
            // be a plain non-negative integer, never a float cast.
            let client: usize = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            let bytes_kib: f64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
            // Optional 4th column: the object key (absent = single-object
            // trace, object 0).
            let object = match parts.next() {
                None => 0,
                Some(tok) => tok.parse::<u64>().map_err(|_| bad())?,
            };
            if parts.next().is_some() {
                return Err(bad());
            }
            events.push(AccessEvent {
                at_ms,
                client,
                bytes_kib,
                object,
            });
        }
        Trace::from_events(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use crate::stream::{generate, StreamConfig};
    use proptest::prelude::*;

    fn sample() -> Trace {
        let pop = Population::uniform(6);
        let events = generate(&pop, &StreamConfig::default(), 2_000.0);
        Trace::from_events(events).unwrap()
    }

    #[test]
    fn events_are_time_ordered_even_from_shuffled_input() {
        let events = vec![
            AccessEvent {
                at_ms: 30.0,
                client: 1,
                bytes_kib: 1.0,
                object: 0,
            },
            AccessEvent {
                at_ms: 10.0,
                client: 2,
                bytes_kib: 2.0,
                object: 0,
            },
            AccessEvent {
                at_ms: 20.0,
                client: 0,
                bytes_kib: 3.0,
                object: 0,
            },
        ];
        let t = Trace::from_events(events).unwrap();
        let times: Vec<f64> = t.events().iter().map(|e| e.at_ms).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn invalid_events_rejected() {
        let bad_time = vec![AccessEvent {
            at_ms: -1.0,
            client: 0,
            bytes_kib: 1.0,
            object: 0,
        }];
        assert_eq!(
            Trace::from_events(bad_time),
            Err(TraceError::InvalidEvent { index: 0 })
        );
        let bad_size = vec![
            AccessEvent {
                at_ms: 1.0,
                client: 0,
                bytes_kib: 1.0,
                object: 0,
            },
            AccessEvent {
                at_ms: 2.0,
                client: 0,
                bytes_kib: 0.0,
                object: 0,
            },
        ];
        assert_eq!(
            Trace::from_events(bad_size),
            Err(TraceError::InvalidEvent { index: 1 })
        );
    }

    #[test]
    fn text_roundtrip_preserves_events() {
        let t = sample();
        let back: Trace = t.to_text().parse().unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.events().iter().zip(back.events()) {
            assert!((a.at_ms - b.at_ms).abs() < 1e-3);
            assert_eq!(a.client, b.client);
            assert!((a.bytes_kib - b.bytes_kib).abs() < 1e-3);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(
            "1.0 2".parse::<Trace>(),
            Err(TraceError::Parse { line: 0, .. })
        ));
        assert!(matches!(
            "1.0 2 3.0 extra".parse::<Trace>(),
            Err(TraceError::Parse { .. })
        ));
        assert!(matches!(
            "abc def ghi".parse::<Trace>(),
            Err(TraceError::Parse { .. })
        ));
        // The client column must be a non-negative integer.
        for client in ["2.9", "-3", "NaN", "1e30"] {
            assert!(
                matches!(
                    format!("1.0 {client} 3.0").parse::<Trace>(),
                    Err(TraceError::Parse { line: 0, .. })
                ),
                "client {client}"
            );
        }
        // Comments and blanks are fine.
        let ok: Trace = "# hi\n\n5.0 1 2.0\n".parse().unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn window_selects_half_open_range() {
        let events = (0..10)
            .map(|i| AccessEvent {
                at_ms: i as f64 * 10.0,
                client: i,
                bytes_kib: 1.0,
                object: 0,
            })
            .collect();
        let t = Trace::from_events(events).unwrap();
        let w = t.window(20.0, 50.0);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].at_ms, 20.0);
        assert_eq!(w[2].at_ms, 40.0);
        assert!(t.window(500.0, 600.0).is_empty());
    }

    #[test]
    fn stats_summarize() {
        let t = sample();
        let s = t.stats().unwrap();
        assert_eq!(s.events, t.len());
        assert!(s.distinct_clients <= 6);
        assert!(s.span_ms <= 2_000.0);
        assert!(s.total_kib > 0.0);

        let empty = Trace::from_events(vec![]).unwrap();
        assert!(empty.stats().is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn multi_object_traces_round_trip_with_the_fourth_column() {
        let events = vec![
            AccessEvent {
                at_ms: 1.5,
                client: 0,
                bytes_kib: 4.0,
                object: 7,
            },
            AccessEvent {
                at_ms: 2.5,
                client: 1,
                bytes_kib: 8.0,
                object: 0,
            },
        ];
        let t = Trace::from_events(events).unwrap();
        assert!(t.to_text().lines().next().unwrap().contains("object"));
        let exact: Trace = t.to_text_exact().parse().unwrap();
        assert_eq!(exact, t, "object column must survive the round trip");
        let lossy: Trace = t.to_text().parse().unwrap();
        assert_eq!(lossy.events()[0].object, 7);
        assert_eq!(lossy.events()[1].object, 0);
        assert_eq!(t.stats().unwrap().distinct_objects, 2);
        // Single-object traces keep the historical 3-column form.
        let single = sample();
        assert!(!single.to_text().lines().next().unwrap().contains("object"));
        let data_line = single.to_text().lines().nth(1).unwrap().to_string();
        assert_eq!(data_line.split_whitespace().count(), 3);
        assert_eq!(single.stats().unwrap().distinct_objects, 1);
    }

    #[test]
    fn object_column_must_be_an_integer() {
        // A fractional or junk 4th token is a parse error, not a silent
        // truncation.
        assert!(matches!(
            "1.0 2 3.0 4.5".parse::<Trace>(),
            Err(TraceError::Parse { .. })
        ));
        assert!(matches!(
            "1.0 2 3.0 extra".parse::<Trace>(),
            Err(TraceError::Parse { .. })
        ));
        let ok: Trace = "1.0 2 3.0 4\n".parse().unwrap();
        assert_eq!(ok.events()[0].object, 4);
    }

    #[test]
    fn exact_text_roundtrip_is_bit_identical() {
        let t = sample();
        let back: Trace = t.to_text_exact().parse().unwrap();
        assert_eq!(
            back, t,
            "shortest-round-trip floats must parse back exactly"
        );
        // The lossy form, by contrast, generally is not bit-identical.
        let lossy: Trace = t.to_text().parse().unwrap();
        assert_eq!(lossy.len(), t.len());
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_generated_trace(seed in 0u64..100, dur in 10.0..3_000.0f64) {
            let pop = Population::uniform(4);
            let cfg = StreamConfig { seed, ..Default::default() };
            let t = Trace::from_events(generate(&pop, &cfg, dur)).unwrap();
            let back: Trace = t.to_text().parse().unwrap();
            prop_assert_eq!(back.len(), t.len());
        }
    }
}
