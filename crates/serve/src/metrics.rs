//! Prometheus text-format rendering of recorder state, plus a minimal
//! `std::net` HTTP endpoint serving it.
//!
//! The renderer turns an [`InMemoryRecorder`] snapshot into the
//! Prometheus exposition format: counters become `_total` series and
//! histograms become cumulative `_bucket{le="..."}` series straight off
//! the recorder's exponential buckets (nearcore's `near_peer_rtt_bucket`
//! style), with the usual `_sum` / `_count` companions. The HTTP side is
//! deliberately tiny — blocking `TcpListener`, one request per
//! connection, `GET /metrics` for scrapes and `POST /ingest` for
//! line-oriented access submission — because the primary benchmark path
//! is in-process rings; the endpoint exists for observability and ad-hoc
//! driving, not peak throughput.

use std::io::{self, BufRead, BufReader, ErrorKind, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use georep_core::telemetry::{bucket_bound, InMemoryRecorder, HISTOGRAM_BUCKETS};

use crate::service::ShardProducer;

/// Largest `POST /ingest` body accepted; a larger `Content-Length` is
/// answered `413` before anything is allocated for it.
const MAX_INGEST_BODY: usize = 1 << 20;
/// Largest request line plus headers accepted; a head that reaches it
/// before its blank line is answered `431`.
const MAX_HEAD_BYTES: u64 = 16 << 10;
/// Longest one read of a request may wait, so a silent client cannot hold
/// the accept loop: a stalled head is answered `408`, a stalled body
/// dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Renders a recorder snapshot in the Prometheus text exposition format.
///
/// Metric names are the recorder names with `.` mapped to `_` and a
/// `georep_` prefix; counters additionally get the conventional `_total`
/// suffix.
pub fn render_prometheus(recorder: &InMemoryRecorder) -> String {
    let mut out = String::new();
    for (name, value) in recorder.counters() {
        let metric = format!("georep_{}_total", name.replace('.', "_"));
        out.push_str(&format!("# TYPE {metric} counter\n{metric} {value}\n"));
    }
    for (name, hist) in recorder.histograms() {
        let metric = format!("georep_{}", name.replace('.', "_"));
        out.push_str(&format!("# TYPE {metric} histogram\n"));
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            cumulative += hist.buckets[i];
            out.push_str(&format!(
                "{metric}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_bound(i)
            ));
        }
        out.push_str(&format!(
            "{metric}_bucket{{le=\"+Inf\"}} {}\n{metric}_sum {}\n{metric}_count {}\n",
            hist.count, hist.sum, hist.count
        ));
    }
    out
}

/// A minimal blocking HTTP server exposing `GET /metrics` (Prometheus
/// text) and `POST /ingest` (one `object region weight` triple per body
/// line, submitted through a [`ShardProducer`]).
#[derive(Debug)]
pub struct MetricsExporter {
    listener: TcpListener,
    recorder: Arc<InMemoryRecorder>,
    producer: Option<Mutex<ShardProducer>>,
    stop: Arc<AtomicBool>,
}

impl MetricsExporter {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    /// `producer` backs `POST /ingest`; without one the endpoint answers
    /// 404.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: &str,
        recorder: Arc<InMemoryRecorder>,
        producer: Option<ShardProducer>,
    ) -> std::io::Result<Self> {
        Ok(MetricsExporter {
            listener: TcpListener::bind(addr)?,
            recorder,
            producer: producer.map(Mutex::new),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that makes [`MetricsExporter::serve`] return after the
    /// in-flight connection: set it, then poke the port once to unblock
    /// `accept`.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves connections until the stop flag is raised. One request per
    /// connection, blocking — spawn this on its own thread. A client that
    /// stalls holds the loop for at most the 2 s read timeout per read.
    pub fn serve(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let Ok((stream, _)) = self.listener.accept() else {
                continue;
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let _ = self.handle(stream);
        }
    }

    fn handle(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        // Reading the head through `take` caps every line; `into_inner`
        // hands back the buffered reader, body bytes it already holds included.
        let mut head = BufReader::new(stream).take(MAX_HEAD_BYTES);
        let parsed = read_head(&mut head);
        let mut reader = head.into_inner();
        let (method, path, content_length) = match parsed {
            Ok(parsed) => parsed,
            Err(status) => return respond(reader.into_inner(), status, "text/plain", "\n"),
        };
        match (method.as_str(), path.as_str()) {
            ("GET", "/metrics") => {
                let body = render_prometheus(&self.recorder);
                respond(
                    reader.into_inner(),
                    "200 OK",
                    "text/plain; version=0.0.4",
                    &body,
                )
            }
            ("POST", "/ingest") if content_length > MAX_INGEST_BODY => respond(
                reader.into_inner(),
                "413 Payload Too Large",
                "text/plain",
                &format!("body exceeds {MAX_INGEST_BODY} bytes\n"),
            ),
            ("POST", "/ingest") => {
                let mut body = vec![0u8; content_length];
                reader.read_exact(&mut body)?;
                let body = String::from_utf8_lossy(&body);
                match self.ingest(&body) {
                    Ok(accepted) => respond(
                        reader.into_inner(),
                        "200 OK",
                        "text/plain",
                        &format!("accepted {accepted}\n"),
                    ),
                    Err(e) => respond(
                        reader.into_inner(),
                        "400 Bad Request",
                        "text/plain",
                        &format!("{e}\n"),
                    ),
                }
            }
            _ => respond(reader.into_inner(), "404 Not Found", "text/plain", "\n"),
        }
    }

    /// Parses `object region weight` lines and submits them. All-or-
    /// nothing per request: the first line that is malformed, or that the
    /// service behind the producer could not absorb, rejects the batch
    /// before anything is submitted.
    fn ingest(&self, body: &str) -> Result<usize, String> {
        let Some(producer) = &self.producer else {
            return Err("ingest endpoint not wired to a producer".into());
        };
        let mut producer = producer.lock().map_err(|_| "producer poisoned")?;
        let mut parsed = Vec::new();
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (object, region, weight) =
                parse_access(line).ok_or_else(|| format!("malformed access line: {line:?}"))?;
            if let Some(why) = producer.rejects(object, region, weight) {
                return Err(format!("rejected access line {line:?}: {why}"));
            }
            parsed.push((object, region, weight));
        }
        let n = parsed.len();
        for (object, region, weight) in parsed {
            producer.submit(object, region, weight);
        }
        Ok(n)
    }
}

/// Reads the request line and headers into `(method, path,
/// Content-Length)`, or the status to refuse them with: a client that
/// stalls (`408`), a head that reaches [`MAX_HEAD_BYTES`] (`431`), an
/// unreadable head or a non-numeric `Content-Length` (`400`).
fn read_head<R: BufRead>(head: &mut Take<R>) -> Result<(String, String, usize), &'static str> {
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut line = String::new();
        match head.read_line(&mut line) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err("408 Request Timeout")
            }
            Err(_) => return Err("400 Bad Request"),
            Ok(_) if !line.ends_with('\n') && head.limit() == 0 => {
                return Err("431 Request Header Fields Too Large")
            }
            Ok(0) => break,
            Ok(_) if !lines.is_empty() && line.trim().is_empty() => break,
            Ok(_) => lines.push(line),
        }
    }
    let mut parts = lines.first().map_or("", String::as_str).split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    // Headers: only Content-Length matters for the ingest body.
    let mut content_length = 0usize;
    for line in lines.iter().skip(1) {
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().map_err(|_| "400 Bad Request")?;
        }
    }
    Ok((method, path, content_length))
}

/// Parses one `object region weight` triple; rejects trailing fields.
fn parse_access(line: &str) -> Option<(u64, u32, f64)> {
    let mut f = line.split_whitespace();
    let object = f.next()?.parse().ok()?;
    let region = f.next()?.parse().ok()?;
    let weight = f.next()?.parse().ok()?;
    if f.next().is_some() {
        return None;
    }
    Some((object, region, weight))
}

fn respond(mut stream: TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::service::{IngestService, ServeConfig};
    use georep_coord::Coord;
    use georep_core::fleet::{FleetConfig, FleetManager};
    use georep_core::manager::ManagerConfig;
    use georep_core::telemetry::Recorder;

    /// Golden snapshot of a full `/metrics` page. Pins the exposition
    /// format wholesale: the `georep_` prefix and `.`→`_` mapping, the
    /// `_total` suffix on counters, every exponential bucket bound with
    /// *cumulative* `le` counts, the `+Inf` bucket, and the `_sum` /
    /// `_count` companions — in BTreeMap name order. A diff here means
    /// dashboards scraping the endpoint will see different series.
    #[test]
    fn metrics_page_matches_the_golden_snapshot() {
        let rec = InMemoryRecorder::new();
        rec.counter("serve.ingested", 3);
        rec.counter("serve.ticks", 7);
        // One sample per regime: le="1", le="4", le="128".
        rec.observe("serve.lag_ms", 0.75);
        rec.observe("serve.lag_ms", 3.0);
        rec.observe("serve.lag_ms", 100.0);
        let golden = "\
# TYPE georep_serve_ingested_total counter\n\
georep_serve_ingested_total 3\n\
# TYPE georep_serve_ticks_total counter\n\
georep_serve_ticks_total 7\n\
# TYPE georep_serve_lag_ms histogram\n\
georep_serve_lag_ms_bucket{le=\"0.00000095367431640625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.0000019073486328125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.000003814697265625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.00000762939453125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.0000152587890625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.000030517578125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.00006103515625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.0001220703125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.000244140625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.00048828125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.0009765625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.001953125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.00390625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.0078125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.015625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.03125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.0625\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.125\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.25\"} 0\n\
georep_serve_lag_ms_bucket{le=\"0.5\"} 0\n\
georep_serve_lag_ms_bucket{le=\"1\"} 1\n\
georep_serve_lag_ms_bucket{le=\"2\"} 1\n\
georep_serve_lag_ms_bucket{le=\"4\"} 2\n\
georep_serve_lag_ms_bucket{le=\"8\"} 2\n\
georep_serve_lag_ms_bucket{le=\"16\"} 2\n\
georep_serve_lag_ms_bucket{le=\"32\"} 2\n\
georep_serve_lag_ms_bucket{le=\"64\"} 2\n\
georep_serve_lag_ms_bucket{le=\"128\"} 3\n\
georep_serve_lag_ms_bucket{le=\"256\"} 3\n\
georep_serve_lag_ms_bucket{le=\"512\"} 3\n\
georep_serve_lag_ms_bucket{le=\"1024\"} 3\n\
georep_serve_lag_ms_bucket{le=\"2048\"} 3\n\
georep_serve_lag_ms_bucket{le=\"4096\"} 3\n\
georep_serve_lag_ms_bucket{le=\"8192\"} 3\n\
georep_serve_lag_ms_bucket{le=\"16384\"} 3\n\
georep_serve_lag_ms_bucket{le=\"32768\"} 3\n\
georep_serve_lag_ms_bucket{le=\"65536\"} 3\n\
georep_serve_lag_ms_bucket{le=\"131072\"} 3\n\
georep_serve_lag_ms_bucket{le=\"262144\"} 3\n\
georep_serve_lag_ms_bucket{le=\"524288\"} 3\n\
georep_serve_lag_ms_bucket{le=\"+Inf\"} 3\n\
georep_serve_lag_ms_sum 103.75\n\
georep_serve_lag_ms_count 3\n";
        let rendered = render_prometheus(&rec);
        if rendered != golden {
            let mismatch = rendered
                .lines()
                .zip(golden.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b);
            panic!(
                "rendering drifted from the golden snapshot; first diff: {mismatch:?}\n\
                 full render:\n{rendered}"
            );
        }
    }

    #[test]
    fn counters_render_as_prometheus_totals() {
        let rec = InMemoryRecorder::new();
        rec.counter("serve.ingested", 42);
        let text = render_prometheus(&rec);
        assert!(text.contains("# TYPE georep_serve_ingested_total counter"));
        assert!(text.contains("georep_serve_ingested_total 42"));
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let rec = InMemoryRecorder::new();
        rec.observe("serve.enqueue_to_absorb_ms", 0.75);
        rec.observe("serve.enqueue_to_absorb_ms", 3.0);
        let text = render_prometheus(&rec);
        assert!(text.contains("# TYPE georep_serve_enqueue_to_absorb_ms histogram"));
        // 0.75 lands in the le="1" bucket; by le="4" both samples count.
        assert!(text.contains("georep_serve_enqueue_to_absorb_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("georep_serve_enqueue_to_absorb_ms_bucket{le=\"4\"} 2"));
        assert!(text.contains("georep_serve_enqueue_to_absorb_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("georep_serve_enqueue_to_absorb_ms_sum 3.75"));
        assert!(text.contains("georep_serve_enqueue_to_absorb_ms_count 2"));
    }

    #[test]
    fn http_endpoint_serves_metrics_and_rejects_unknown_paths() {
        // A two-region, one-owner service: its producer backs `/ingest`,
        // and its `poll` shows what the endpoint actually submitted.
        let regions = Arc::new(vec![Coord::new([0.0; 3]), Coord::new([50.0; 3])]);
        let fleet = FleetManager::new_shared(
            Arc::clone(&regions),
            vec![0, 1],
            vec![0],
            FleetConfig::new(1, 1, 0, ManagerConfig::new(1, 4)),
        )
        .expect("valid fleet");
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let (mut svc, mut producers) = IngestService::new(fleet, regions, MockClock::new(), config);

        let rec = Arc::new(InMemoryRecorder::new());
        rec.counter("serve.ticks", 7);
        let exporter =
            MetricsExporter::bind("127.0.0.1:0", Arc::clone(&rec), producers.pop()).expect("bind");
        let addr = exporter.local_addr().expect("addr");
        let stop = exporter.stop_flag();
        let server = std::thread::spawn(move || exporter.serve());

        // Sends `raw`, half-closes so a server waiting on undelivered bytes
        // sees EOF, reads the reply.
        let send = |raw: &str| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("write");
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            let mut out = String::new();
            s.read_to_string(&mut out).expect("read");
            out
        };
        // `head` is the request line plus headers.
        let request = |head: &str, body: &str| send(&format!("{head}\r\nHost: x\r\n\r\n{body}"));
        let get = |path: &str| request(&format!("GET {path} HTTP/1.1"), "");
        let post = |content_length: u64, body: &str| {
            let head = format!("POST /ingest HTTP/1.1\r\nContent-Length: {content_length}");
            request(&head, body)
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("georep_serve_ticks_total 7"));
        assert!(get("/nope").starts_with("HTTP/1.1 404"));

        // An accepted batch reaches the service's ring, all of it.
        let batch = "0 0 1.5\n\n0 1 2\n0 1 0.25\n";
        let accepted = post(batch.len() as u64, batch);
        assert!(accepted.starts_with("HTTP/1.1 200 OK"), "{accepted}");
        assert!(accepted.ends_with("accepted 3\n"), "{accepted}");
        assert_eq!(svc.poll().expect("poll"), 3);
        // One malformed line rejects the whole batch: nothing is submitted.
        let batch = "0 0 1\n0 zero 1\n";
        let malformed = post(batch.len() as u64, batch);
        assert!(malformed.starts_with("HTTP/1.1 400"), "{malformed}");
        assert_eq!(svc.poll().expect("poll"), 0);
        // So does one well-formed line the service could not absorb: a
        // region or object it has no entry for (either would panic a
        // thread), or a weight the summaries silently drop.
        for bad in ["0 2 1", "1 0 1", "0 0 NaN", "0 0 inf", "0 0 0", "0 0 -1"] {
            let batch = format!("0 0 1\n{bad}\n");
            let rejected = post(batch.len() as u64, &batch);
            assert!(rejected.starts_with("HTTP/1.1 400"), "{bad}: {rejected}");
            assert!(rejected.contains(bad), "{bad}: {rejected}");
            assert_eq!(svc.poll().expect("poll"), 0, "{bad}");
        }
        // ...and the endpoint still takes a valid batch afterwards.
        let batch = "0 1 1\n0 0 2\n";
        let accepted = post(batch.len() as u64, batch);
        assert!(accepted.ends_with("accepted 2\n"), "{accepted}");
        assert_eq!(svc.poll().expect("poll"), 2);
        // A body the header alone declares oversize is refused before
        // anything is allocated or read for it.
        let oversize = post(1 << 40, "");
        assert!(oversize.starts_with("HTTP/1.1 413"), "{oversize}");
        assert_eq!(svc.poll().expect("poll"), 0);
        // ...and the scrape path still answers afterwards.
        assert!(get("/metrics").starts_with("HTTP/1.1 200 OK"));

        // A Content-Length that is not a number is refused, not read as 0.
        let garbled = request("POST /ingest HTTP/1.1\r\nContent-Length: abc", "");
        assert!(garbled.starts_with("HTTP/1.1 400"), "{garbled}");
        assert_eq!(svc.poll().expect("poll"), 0);
        // A head that reaches the byte cap without ending is refused
        // without reading further (exactly the cap is sent, so the server
        // leaves nothing unread and closes cleanly).
        let line = "GET /metrics HTTP/1.1\r\nX-Fill: ";
        let fill = "a".repeat(MAX_HEAD_BYTES as usize - line.len());
        let refused = send(&format!("{line}{fill}"));
        assert!(refused.starts_with("HTTP/1.1 431"), "{refused}");
        // A client that connects and sends nothing is answered once the
        // read timeout elapses instead of holding the accept loop forever...
        let mut silent = TcpStream::connect(addr).expect("connect");
        silent
            .set_read_timeout(Some(READ_TIMEOUT * 5))
            .expect("client timeout");
        let mut out = String::new();
        silent
            .read_to_string(&mut out)
            .expect("the server answers a silent client within its timeout");
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        // ...and scrapes are served again afterwards.
        assert!(get("/metrics").starts_with("HTTP/1.1 200 OK"));

        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        server.join().expect("server thread");
    }
}
