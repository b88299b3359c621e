//! `serve_hot` / `serve_churn`: one producer thread → `IngestService`
//! (1 shard) → `FleetManager`, closed loop.
//!
//! The producer submits the pre-generated trace as fast as the bounded
//! ring lets it; the driving thread calls `poll()` back to back. Nothing
//! sleeps, ticks or paces: the mock clock never advances, so every flush
//! is cut by size, and the flush partition is the same on every pass.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use georep_core::fleet::{FleetConfig, FleetError, FleetManager};
use georep_serve::{render_prometheus, IngestService, MockClock, ServeConfig, ShardProducer};

use super::{
    fleet_counts, fleet_ns, ingest_layers, traced_wall, Pass, Verdict, Workload, INGEST, PASS_SPAN,
    REBALANCE, ROUTE, VERIFY_1T_SPAN, VERIFY_SPAN,
};
use crate::span::Tracer;
use crate::stats;
use crate::world::{self, Demand, FleetShape, Rec, Scale, Topo, DIMS};

/// Producer calls per traced `serve.producer.submit` span.
const SUBMIT_BATCH: usize = 4_096;
/// A batch slower than this many median batches counts as blocked on a
/// full ring.
const BLOCKED_FACTOR: f64 = 4.0;

const POLL_FLUSH: &str = "serve.service.poll.flush";
const POLL_DRAIN: &str = "serve.service.poll.drain";
const POLL_IDLE: &str = "serve.service.poll.idle";
const FINISH: &str = "serve.service.finish";
const SUBMIT: &str = "serve.producer.submit";
const RENDER: &str = "serve.metrics.render_prometheus";

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    pub shape: FleetShape,
    /// Ring slots.
    pub ring: usize,
    /// `period_accesses`: one decision per this many accesses.
    pub period: usize,
    /// Accesses per pass.
    pub accesses: usize,
}

pub struct Serve {
    topo: Topo,
    trace: Vec<Rec>,
    p: Params,
}

type Service = IngestService<DIMS, MockClock>;

/// What [`drive`] needs of the service; a test drives a stand-in whose
/// flushes fail.
trait Polled {
    fn poll(&mut self) -> Result<usize, FleetError>;
    fn finish(&mut self) -> Result<(), FleetError>;
    /// Periods decided so far.
    fn flushed(&self) -> usize;
}

impl Polled for Service {
    fn poll(&mut self) -> Result<usize, FleetError> {
        IngestService::poll(self)
    }

    fn finish(&mut self) -> Result<(), FleetError> {
        IngestService::finish(self)
    }

    fn flushed(&self) -> usize {
        self.flush_sizes().len()
    }
}

impl Serve {
    pub fn new(seed: u64, scale: Scale, tracer: &mut Tracer, p: Params) -> Self {
        let topo = world::topo(scale, tracer);
        let trace = world::trace(&topo, seed, p.shape.objects, p.accesses, tracer);
        Serve { topo, trace, p }
    }

    fn periods(&self) -> usize {
        self.p.accesses.div_ceil(self.p.period)
    }

    /// One online pass; returns the service so verification can read the
    /// fleet and the flush partition back.
    fn online(&self, tracer: &mut Tracer) -> (Service, Pass) {
        // Fresh system, built outside the timed region.
        let fleet = world::fleet(&self.topo, self.p.shape.config());
        let (mut svc, mut producers) = IngestService::new(
            fleet,
            Arc::clone(&self.topo.coords),
            MockClock::new(),
            ServeConfig {
                shards: 1,
                ring_capacity: self.p.ring,
                period_accesses: self.p.period,
                // Never reached: the mock clock stands still.
                tick_interval_ms: u64::MAX / 2,
                latency_sample: 0,
            },
        );
        let mut producer = producers.pop().expect("one shard, one producer");
        let handoff: Vec<AtomicU64> = (0..self.periods()).map(|_| AtomicU64::new(0)).collect();
        let mut decided = vec![0u64; self.periods()];
        let done = AtomicBool::new(false);
        let mut producer_tracer = tracer.for_thread(1);

        let mut errors = 0u64;
        let mut wall_s = 0.0;
        let mut pass_span = None;
        tracer.time(PASS_SPAN, None, |tracer| {
            pass_span = tracer.current();
            let epoch = Instant::now();
            std::thread::scope(|scope| {
                let feeder = scope.spawn(|| {
                    produce(
                        &mut producer,
                        &self.trace,
                        self.p.period,
                        &handoff,
                        epoch,
                        &mut producer_tracer,
                    );
                    // Hang up (retires the shard from the watermark), then
                    // tell the driver the input is exhausted.
                    drop(producer);
                    done.store(true, Ordering::Release);
                });
                errors = drive(&mut svc, &done, &mut decided, epoch, tracer);
                wall_s = epoch.elapsed().as_secs_f64();
                feeder.join().expect("producer thread");
            });
        });
        tracer.absorb(producer_tracer, pass_span);

        let flushed = svc.flush_sizes().len();
        let lags_ms = handoff
            .iter()
            .zip(&decided)
            .take(flushed)
            .map(|(h, &d)| d.saturating_sub(h.load(Ordering::Acquire)) as f64 / 1e6)
            .collect();
        let lost = self.p.accesses as u64 - svc.served_total().min(self.p.accesses as u64);
        let pass = Pass {
            wall_s,
            records: svc.served_total(),
            lags_ms,
            attempted: self.p.accesses as u64,
            failed: lost + errors,
        };
        (svc, pass)
    }

    /// Offline twin: a fresh fleet fed the recorded flush partition,
    /// scoring every access against the placement in force on arrival.
    fn replay(&self, sizes: &[u64], config: FleetConfig, tracer: &mut Tracer) -> Replay {
        let mut fleet = world::fleet(&self.topo, config);
        let mut served = vec![0u64; fleet.owner_count()];
        let (mut delay_sum, mut weight_sum) = (0.0f64, 0.0f64);
        let mut errors = 0u64;
        let mut batch: Vec<Demand> = Vec::new();
        let mut cursor = 0usize;
        for (period, &size) in sizes.iter().enumerate() {
            let end = (cursor + size as usize).min(self.trace.len());
            let chunk = &self.trace[cursor..end];
            cursor = end;
            let period = Some(period as u32);
            tracer.time(ROUTE, period, |_| {
                for r in chunk {
                    let d = world::routed_delay(&fleet, u64::from(r.object), r.node as usize);
                    delay_sum += d * r.weight;
                    weight_sum += r.weight;
                }
            });
            batch.clear();
            batch.extend(chunk.iter().map(|r| r.demand(&self.topo)));
            let got = tracer.time(INGEST, period, |_| fleet.ingest_period(&batch));
            for (total, s) in served.iter_mut().zip(got) {
                *total += s;
            }
            let round = tracer.time(REBALANCE, period, |_| fleet.rebalance());
            errors += u64::from(round.is_err());
        }
        Replay {
            fleet,
            served,
            covered: cursor,
            placed_delay_ms: delay_sum / weight_sum,
            errors,
        }
    }
}

struct Replay {
    fleet: FleetManager<DIMS>,
    served: Vec<u64>,
    covered: usize,
    placed_delay_ms: f64,
    errors: u64,
}

/// The producer thread: submits the whole trace, stamping the hand-off
/// time of each period's last record.
fn produce(
    producer: &mut ShardProducer,
    trace: &[Rec],
    period: usize,
    handoff: &[AtomicU64],
    epoch: Instant,
    tracer: &mut Tracer,
) {
    let traced = tracer.is_enabled();
    let mut stamp = 0u64;
    for (p, chunk) in trace.chunks(period).enumerate() {
        for batch in chunk.chunks(SUBMIT_BATCH) {
            let start_ns = if traced { tracer.now_ns() } else { 0 };
            for r in batch {
                producer.submit_stamped(stamp, u64::from(r.object), r.node, r.weight);
                stamp += 1;
            }
            if traced {
                let end_ns = tracer.now_ns();
                tracer.leaf(SUBMIT, start_ns, end_ns, Some(p as u32), batch.len() as u32);
            }
        }
        handoff[p].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
    }
}

/// Back-to-back polls folded into one span while nothing changes class.
struct Folded {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    calls: u32,
}

/// The driving thread: polls back to back until the producer is done,
/// stamping each decision right after the poll that returned it. Returns
/// the number of `Err`s. A failed poll does not end the loop: the
/// producer is inside a blocking `submit_stamped` until the ring is
/// drained, so the driver keeps polling (every poll drains before it
/// flushes) and the failures are counted.
fn drive<S: Polled>(
    svc: &mut S,
    done: &AtomicBool,
    decided: &mut [u64],
    epoch: Instant,
    tracer: &mut Tracer,
) -> u64 {
    let traced = tracer.is_enabled();
    let mut seen = 0usize;
    let mut errors = 0u64;
    let mut folded: Option<Folded> = None;
    let mut stamp = |svc: &S, seen: &mut usize| {
        let flushed = svc.flushed().min(decided.len());
        if flushed > *seen {
            let now = epoch.elapsed().as_nanos() as u64;
            decided[*seen..flushed].fill(now);
        }
        let newly = flushed - *seen;
        *seen = flushed;
        newly
    };
    loop {
        let exhausted = done.load(Ordering::Acquire);
        let start_ns = if traced { tracer.now_ns() } else { 0 };
        let drained = svc.poll().unwrap_or_else(|_| {
            errors += 1;
            0
        });
        let first = seen;
        let newly = stamp(svc, &mut seen);
        if traced {
            let end_ns = tracer.now_ns();
            let name = match (newly, drained) {
                (0, 0) => POLL_IDLE,
                (0, _) => POLL_DRAIN,
                _ => POLL_FLUSH,
            };
            match &mut folded {
                Some(f) if f.name == name && name != POLL_FLUSH => {
                    f.end_ns = end_ns;
                    f.calls += 1;
                }
                _ => {
                    if let Some(f) = folded.take() {
                        tracer.leaf(f.name, f.start_ns, f.end_ns, None, f.calls);
                    }
                    if name == POLL_FLUSH {
                        // `calls` carries the periods this poll decided.
                        tracer.leaf(name, start_ns, end_ns, Some(first as u32), newly as u32);
                    } else {
                        folded = Some(Folded {
                            name,
                            start_ns,
                            end_ns,
                            calls: 1,
                        });
                    }
                }
            }
        }
        if exhausted {
            break;
        }
    }
    if let Some(f) = folded.take() {
        tracer.leaf(f.name, f.start_ns, f.end_ns, None, f.calls);
    }
    let first = seen;
    let result = tracer.time(FINISH, Some(first as u32), |_| svc.finish());
    stamp(svc, &mut seen);
    errors + u64::from(result.is_err())
}

impl Workload for Serve {
    fn pass(&self, tracer: &mut Tracer) -> Pass {
        self.online(tracer).1
    }

    fn verify(&self, tracer: &mut Tracer) -> Verdict {
        // The online half is an untraced pass like any other; the spans
        // are of the offline half.
        let (svc, pass) = self.online(&mut Tracer::disabled());
        let replay = tracer.time(VERIFY_SPAN, None, |t| {
            t.time(RENDER, None, |_| {
                std::hint::black_box(render_prometheus(svc.recorder()))
            });
            self.replay(svc.flush_sizes(), self.p.shape.config(), t)
        });
        if tracer.is_enabled() {
            // The same partition single-threaded, for `speedup_vs_1t`.
            tracer.time(VERIFY_1T_SPAN, None, |t| {
                self.replay(svc.flush_sizes(), self.p.shape.config_1t(), t)
            });
        }
        let mut v = Verdict {
            placed_delay_ms: replay.placed_delay_ms,
            attempted: pass.attempted,
            failed: pass.failed + replay.errors,
            ..Verdict::default()
        };
        v.check(svc.served_total() == self.p.accesses as u64, || {
            format!(
                "served {} of {} submitted accesses",
                svc.served_total(),
                self.p.accesses
            )
        });
        v.check(
            replay.covered == self.p.accesses && svc.flush_sizes().len() == self.periods(),
            || {
                format!(
                    "flush partition covers {} accesses in {} flushes, expected {} in {}",
                    replay.covered,
                    svc.flush_sizes().len(),
                    self.p.accesses,
                    self.periods()
                )
            },
        );
        v.check(world::fleets_identical(svc.fleet(), &replay.fleet), || {
            "online fleet differs from the offline replay of flush_sizes".to_string()
        });
        v.check(svc.served() == replay.served, || {
            "per-owner served counts differ from the offline replay".to_string()
        });
        v.counts = fleet_counts(&replay.fleet, self.p.accesses);
        v.counts
            .push(("trace.periods_per_pass", self.periods() as f64));
        v
    }

    fn layers(&self, tracer: &Tracer, _verdict: &Verdict) -> Vec<(&'static str, f64)> {
        let (wall_ns, passes) = traced_wall(tracer);
        let accesses = self.p.accesses as f64;
        let pass_wall_ns = wall_ns / passes;
        let driver = |name| tracer.under(PASS_SPAN, 0, name).total_ns as f64 / passes;
        let busy_ns = driver(POLL_FLUSH) + driver(POLL_DRAIN) + driver(FINISH);
        // The fleet calls happen inside `poll()`, out of a span's reach:
        // their time is that of the offline replay of the same partition.
        let (ingest_ns, rebalance_ns) = fleet_ns(tracer, VERIFY_SPAN);

        let flushes: Vec<&crate::span::Span> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == POLL_FLUSH)
            .collect();
        let multi = flushes.iter().filter(|s| s.calls > 1).count();

        // Producer batches, normalised per call so the short batch at a
        // period's end compares with the full ones.
        let batches: Vec<(f64, f64)> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == SUBMIT && s.calls > 0)
            .map(|s| {
                let ns = s.duration_ns() as f64;
                (ns, ns / f64::from(s.calls))
            })
            .collect();
        let per_call: Vec<f64> = batches.iter().map(|b| b.1).collect();
        let limit = BLOCKED_FACTOR * stats::median(&per_call);
        let submit_ns: f64 = batches.iter().map(|b| b.0).sum();
        // (`+ 0.0`: an empty sum is -0.0.)
        let blocked_ns = batches
            .iter()
            .filter(|b| b.1 > limit)
            .map(|b| b.0)
            .sum::<f64>()
            + 0.0;

        let owner_rounds = self.periods() * self.p.shape.owners();
        let mut out = ingest_layers(
            tracer,
            (ingest_ns, rebalance_ns),
            pass_wall_ns,
            self.p.accesses,
            owner_rounds,
        );
        out.extend([
            ("serve.producer.submit_ns", submit_ns / passes / accesses),
            ("serve.producer.blocked_share", blocked_ns / submit_ns),
            ("serve.service.poll_busy_share", busy_ns / pass_wall_ns),
            (
                "serve.service.flush_ms_p50",
                stats::median(&tracer.durations_ns(POLL_FLUSH)) / 1e6,
            ),
            (
                "serve.service.overhead_ns_per_access",
                (busy_ns - ingest_ns - rebalance_ns) / accesses,
            ),
            (
                "serve.service.multi_flush_share",
                multi as f64 / flushes.len() as f64,
            ),
            (
                "serve.metrics.render_us",
                tracer.under(VERIFY_SPAN, 0, RENDER).total_ns as f64 / 1e3,
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use georep_serve::spsc;

    /// Drains a ring like the service does, then fails every flush.
    struct FailingFlush {
        ring: georep_serve::Consumer<u64>,
        scratch: Vec<u64>,
        drained: usize,
    }

    impl Polled for FailingFlush {
        fn poll(&mut self) -> Result<usize, FleetError> {
            self.scratch.clear();
            let n = self.ring.drain_into(&mut self.scratch);
            self.drained += n;
            if self.drained >= 100 {
                return Err(FleetError::InvalidSetup("flush failed"));
            }
            Ok(n)
        }

        fn finish(&mut self) -> Result<(), FleetError> {
            self.poll().map(|_| ())
        }

        fn flushed(&self) -> usize {
            0
        }
    }

    /// A failing poll must not strand the producer on a full ring: the
    /// driver keeps draining, the producer finishes, the errors count.
    #[test]
    fn a_failed_poll_neither_hangs_the_producer_nor_goes_unreported() {
        const PUSHES: u64 = 50_000;
        // Far smaller than the input: the producer blocks on a full ring
        // unless the driver goes on draining.
        let (mut tx, rx) = spsc::<u64>(8);
        let mut svc = FailingFlush {
            ring: rx,
            scratch: Vec::new(),
            drained: 0,
        };
        let done = AtomicBool::new(false);
        let errors = std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..PUSHES {
                    tx.push(i);
                }
                drop(tx);
                done.store(true, Ordering::Release);
            });
            let mut tracer = Tracer::disabled();
            drive(&mut svc, &done, &mut [], Instant::now(), &mut tracer)
        });
        assert_eq!(svc.drained as u64, PUSHES);
        assert!(errors >= 2, "poll and finish both failed: {errors}");
    }
}
