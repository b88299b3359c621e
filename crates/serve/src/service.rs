//! The ingest service: per-shard SPSC rings in front of a
//! [`FleetManager`], with deterministic re-placement ticks.
//!
//! # Shape
//!
//! Producer threads (one per shard, thread-per-core style) stamp accesses
//! with a global logical sequence number and push them into their shard's
//! bounded ring. The service side drains every ring into per-shard period
//! buffers, reassembles the *global stamp order* behind a low watermark,
//! and hands complete periods of `period_accesses` accesses to the
//! two-phase [`FleetManager::ingest_period`], followed by a fleet
//! rebalance — exactly the offline pipeline, fed online.
//!
//! # Determinism contract
//!
//! Stamps are the only ordering authority. Every producer emits strictly
//! increasing stamps into its own ring, so after draining, every access
//! with a stamp below `min` over open shards of (last drained stamp + 1)
//! is in hand — no straggler can arrive below that watermark. The service
//! only ingests watermark-complete prefixes, in stamp order, chunked at
//! `period_accesses`. The result is **bit-identical** to offline
//! [`FleetManager::ingest_period`] calls over the same stamp-ordered
//! sequence with the same chunk sizes, for *any* shard count, thread
//! interleaving, or ring capacity. [`IngestService::flush_sizes`] records
//! the chunk partition so a replay harness can mirror it exactly.
//!
//! # Backpressure
//!
//! The bounded ring *is* the policy: a full ring makes
//! [`ShardProducer::submit`] park its thread until the service frees
//! slots, so a waiting producer leaves its core to the fleet. Nothing is
//! ever dropped, queues never grow without bound, and a stalled service
//! surfaces as producer-side latency — which the enqueue-to-absorb
//! histogram then shows — and as the `serve.producer.parks` counter.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use georep_coord::Coord;
use georep_core::fleet::{FleetError, FleetManager};
use georep_core::telemetry::{InMemoryRecorder, Recorder};

use crate::clock::Clock;
use crate::ring::{spsc, Consumer, Producer};

/// One stamped access in flight between a producer and the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// Global logical sequence number; the only ordering authority.
    pub stamp: u64,
    /// Object id in the fleet's key space.
    pub object: u64,
    /// Index into the shared region coordinate table.
    pub region: u32,
    /// Access weight (e.g. bytes transferred), as in offline traces.
    pub weight: f64,
    /// Producer-side monotonic nanoseconds for latency sampling, or 0
    /// when this access is not sampled. Telemetry only: never consulted
    /// for ordering or placement.
    pub enqueue_ns: u64,
}

/// Per-shard state shared between a producer handle and the service.
#[derive(Debug, Default)]
struct ShardShared {
    /// Set (after the final push) when the producer hangs up; lets the
    /// service retire the shard from the watermark.
    closed: AtomicBool,
}

/// Tuning of the ingest service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of rings / producer handles (one per producer thread).
    pub shards: usize,
    /// Per-ring slot count (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Accesses per re-placement period: each complete period is one
    /// `ingest_period` + `rebalance` against the fleet.
    pub period_accesses: usize,
    /// Clock interval between forced ticks (a tick also flushes the
    /// partial period accumulated so far); `u64::MAX` never ticks.
    pub tick_interval_ms: u64,
    /// Sample one in `latency_sample` accesses for the enqueue-to-absorb
    /// histogram (0 disables sampling entirely).
    pub latency_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            ring_capacity: 4096,
            period_accesses: 100_000,
            tick_interval_ms: 1_000,
            latency_sample: 64,
        }
    }
}

/// The write handle for one shard: owned by exactly one producer thread.
///
/// Stamps come from a sequence shared by every producer of the service
/// ([`ShardProducer::submit`]), or from the caller
/// ([`ShardProducer::submit_stamped`]) when the harness pre-assigns them
/// for deterministic replay. Either way each ring must see strictly
/// increasing stamps — `submit` guarantees it, `submit_stamped` asserts
/// it.
#[derive(Debug)]
pub struct ShardProducer {
    producer: Producer<Access>,
    shared: Arc<ShardShared>,
    stamps: Arc<AtomicU64>,
    epoch: Arc<Instant>,
    latency_sample: u64,
    last_stamp: u64,
    regions: u32,
    objects: u64,
}

impl ShardProducer {
    /// Why the service behind this handle could not absorb the access, if
    /// it could not: `region` has no coordinate, `object` has no owner, or
    /// the summaries would drop `weight`. For input from outside the
    /// program, which must be refused rather than panic a thread.
    pub(crate) fn rejects(&self, object: u64, region: u32, weight: f64) -> Option<&'static str> {
        if region >= self.regions {
            Some("region outside the coordinate table")
        } else if object >= self.objects {
            Some("object outside the fleet's key space")
        } else if !(weight.is_finite() && weight > 0.0) {
            Some("weight must be finite and positive")
        } else {
            None
        }
    }

    /// Submits one access, drawing the next global stamp. Parks while the
    /// ring is full (bounded-queue backpressure; nothing is dropped).
    ///
    /// # Panics
    ///
    /// Panics when `region` is outside the service's coordinate table.
    pub fn submit(&mut self, object: u64, region: u32, weight: f64) {
        let stamp = self.stamps.fetch_add(1, Ordering::Relaxed);
        self.submit_stamped(stamp, object, region, weight);
    }

    /// Submits one access under a caller-assigned stamp. The caller owns
    /// the stamp discipline: globally unique, strictly increasing per
    /// ring. Used by benches and equivalence tests to pin the exact
    /// global order independent of thread scheduling. Parks while the
    /// ring is full, as [`ShardProducer::submit`] does.
    ///
    /// # Panics
    ///
    /// Panics when `region` is out of range or `stamp` does not increase
    /// within this ring.
    pub fn submit_stamped(&mut self, stamp: u64, object: u64, region: u32, weight: f64) {
        assert!(region < self.regions, "region {region} out of range");
        assert!(
            self.last_stamp == u64::MAX || stamp > self.last_stamp,
            "per-ring stamps must increase: {stamp} after {}",
            self.last_stamp
        );
        self.last_stamp = stamp;
        let enqueue_ns = if self.latency_sample > 0 && stamp.is_multiple_of(self.latency_sample) {
            (self.epoch.elapsed().as_nanos() as u64).max(1)
        } else {
            0
        };
        self.producer.push(Access {
            stamp,
            object,
            region,
            weight,
            enqueue_ns,
        });
    }

    /// Hangs up this shard: after the flag is visible the service stops
    /// waiting for it in the watermark. Dropping the handle closes too.
    pub fn close(self) {}
}

impl Drop for ShardProducer {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
    }
}

/// Per-shard consumer-side state.
#[derive(Debug)]
struct Shard {
    consumer: Consumer<Access>,
    shared: Arc<ShardShared>,
    /// Stamp-ordered accesses drained but not yet ingested.
    buf: std::collections::VecDeque<Access>,
    /// Smallest stamp this shard could still deliver (last seen + 1).
    next_possible: u64,
    /// Producer still attached (participates in the watermark).
    open: bool,
    /// Scratch for `drain_into`.
    scratch: Vec<Access>,
    /// The ring's park count already added to `serve.producer.parks`.
    parks: u64,
}

/// The ingest service: rings in, bit-deterministic fleet periods out.
///
/// Single-threaded on the consumer side by design (thread-per-core: one
/// service instance owns its fleet shard); producers are the parallel
/// part. Drive it with [`IngestService::poll`] from a worker loop, and
/// [`IngestService::maybe_tick`] for clock-driven re-placement.
#[derive(Debug)]
pub struct IngestService<const D: usize, C: Clock> {
    fleet: FleetManager<D>,
    regions: Arc<Vec<Coord<D>>>,
    clock: C,
    shards: Vec<Shard>,
    period_accesses: usize,
    tick_interval_ms: u64,
    next_tick_ms: u64,
    epoch: Arc<Instant>,
    recorder: Arc<InMemoryRecorder>,
    /// Chunk sizes of every flush, in order — the partition a replay
    /// harness must mirror for bit-identity.
    flush_sizes: Vec<u64>,
    served: Vec<u64>,
    served_total: u64,
    ticks: u64,
    /// Merge scratch: the chunk handed to `ingest_period`.
    chunk: Vec<(u64, Coord<D>, f64)>,
    /// Latency-sampled enqueue timestamps for the current chunk.
    sampled: Vec<u64>,
}

impl<const D: usize, C: Clock> IngestService<D, C> {
    /// Builds the service in front of `fleet` and returns it with one
    /// [`ShardProducer`] per shard. `regions` maps the wire-level region
    /// index to the coordinate every access is tagged with.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards == 0`, `config.period_accesses == 0` or
    /// `regions` is empty.
    pub fn new(
        fleet: FleetManager<D>,
        regions: Arc<Vec<Coord<D>>>,
        clock: C,
        config: ServeConfig,
    ) -> (Self, Vec<ShardProducer>) {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.period_accesses > 0, "period must be non-empty");
        assert!(!regions.is_empty(), "need at least one region");
        let stamps = Arc::new(AtomicU64::new(0));
        let epoch = Arc::new(Instant::now());
        let objects = fleet.objects();
        let mut shards = Vec::with_capacity(config.shards);
        let mut producers = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let (producer, consumer) = spsc(config.ring_capacity);
            let shared = Arc::new(ShardShared::default());
            producers.push(ShardProducer {
                producer,
                shared: Arc::clone(&shared),
                stamps: Arc::clone(&stamps),
                epoch: Arc::clone(&epoch),
                latency_sample: config.latency_sample,
                last_stamp: u64::MAX,
                regions: regions.len() as u32,
                objects,
            });
            shards.push(Shard {
                consumer,
                shared,
                buf: std::collections::VecDeque::new(),
                next_possible: 0,
                open: true,
                scratch: Vec::new(),
                parks: 0,
            });
        }
        let owner_count = fleet.owner_count();
        let next_tick_ms = clock.now_ms().saturating_add(config.tick_interval_ms);
        (
            IngestService {
                fleet,
                regions,
                clock,
                shards,
                period_accesses: config.period_accesses,
                tick_interval_ms: config.tick_interval_ms,
                next_tick_ms,
                epoch,
                recorder: Arc::new(InMemoryRecorder::new()),
                flush_sizes: Vec::new(),
                served: vec![0; owner_count],
                served_total: 0,
                ticks: 0,
                chunk: Vec::new(),
                sampled: Vec::new(),
            },
            producers,
        )
    }

    /// Drains every ring into its shard buffer and flushes every complete
    /// period that became available. Returns how many accesses were
    /// drained. Call this from the shard worker loop.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetError`] from the rebalance that follows each
    /// flushed period.
    pub fn poll(&mut self) -> Result<usize, FleetError> {
        let mut drained = 0usize;
        for shard in &mut self.shards {
            // Read the flag *before* draining: if it was already set, the
            // producer's final push happened before it, so this drain is
            // the complete picture and the shard can retire.
            let was_closed = shard.shared.closed.load(Ordering::SeqCst);
            shard.scratch.clear();
            let n = shard.consumer.drain_into(&mut shard.scratch);
            if n > 0 {
                debug_assert!(shard.scratch.windows(2).all(|w| w[0].stamp < w[1].stamp));
                debug_assert!(shard.scratch[0].stamp >= shard.next_possible);
                shard.next_possible = shard.scratch[n - 1].stamp + 1;
                shard.buf.extend(shard.scratch.drain(..));
                drained += n;
            }
            if was_closed {
                shard.open = false;
            }
            let parks = shard.consumer.parks();
            if parks > shard.parks {
                self.recorder
                    .counter("serve.producer.parks", parks - shard.parks);
                shard.parks = parks;
            }
        }
        if drained > 0 {
            self.recorder.counter("serve.drained", drained as u64);
        }
        while self.available() >= self.period_accesses {
            self.flush(self.period_accesses)?;
        }
        Ok(drained)
    }

    /// Fires a re-placement tick when the clock says one is due: drains,
    /// flushes complete periods, then flushes the remaining partial
    /// period (if any) so re-placement never waits on a half-full buffer.
    /// Returns whether a tick fired.
    ///
    /// # Errors
    ///
    /// As [`IngestService::poll`].
    pub fn maybe_tick(&mut self) -> Result<bool, FleetError> {
        if self.clock.now_ms() < self.next_tick_ms {
            return Ok(false);
        }
        self.next_tick_ms = self.clock.now_ms().saturating_add(self.tick_interval_ms);
        self.poll()?;
        let rest = self.available();
        if rest > 0 {
            self.flush(rest)?;
        }
        self.ticks += 1;
        self.recorder.counter("serve.ticks", 1);
        Ok(true)
    }

    /// Waits for every producer to hang up, then drains and flushes
    /// everything left (complete periods first, then the final partial
    /// one). Used at shutdown and by benches for an exact end state.
    ///
    /// # Errors
    ///
    /// As [`IngestService::poll`].
    pub fn finish(&mut self) -> Result<(), FleetError> {
        loop {
            self.poll()?;
            if self.shards.iter().all(|s| !s.open) {
                break;
            }
            std::thread::yield_now();
        }
        let rest = self.available();
        if rest > 0 {
            self.flush(rest)?;
        }
        Ok(())
    }

    /// Smallest stamp any open shard could still deliver: everything
    /// below it is in hand and safe to ingest in global order.
    fn watermark(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.open)
            .map(|s| s.next_possible)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Number of buffered accesses below the watermark.
    fn available(&self) -> usize {
        let bound = self.watermark();
        self.shards
            .iter()
            .map(|s| s.buf.partition_point(|a| a.stamp < bound))
            .sum()
    }

    /// Merges the `count` lowest-stamped buffered accesses into one chunk
    /// (they are guaranteed below the watermark by the caller), ingests
    /// it, and rebalances. One flush = one offline period.
    fn flush(&mut self, count: usize) -> Result<(), FleetError> {
        self.chunk.clear();
        self.sampled.clear();
        for _ in 0..count {
            // Linear-scan min over shard heads: shard count is small and
            // each shard buffer is already stamp-sorted.
            let mut best: Option<(usize, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                if let Some(head) = shard.buf.front() {
                    if best.is_none_or(|(_, s)| head.stamp < s) {
                        best = Some((i, head.stamp));
                    }
                }
            }
            let (i, _) = best.expect("caller checked availability");
            let a = self.shards[i].buf.pop_front().expect("head exists");
            if a.enqueue_ns != 0 {
                self.sampled.push(a.enqueue_ns);
            }
            self.chunk
                .push((a.object, self.regions[a.region as usize], a.weight));
        }
        let served = self.fleet.ingest_period(&self.chunk);
        for (total, s) in self.served.iter_mut().zip(&served) {
            *total += s;
        }
        self.served_total += count as u64;
        self.fleet.rebalance()?;
        self.flush_sizes.push(count as u64);
        self.recorder.counter("serve.ingested", count as u64);
        self.recorder.counter("serve.periods", 1);
        if !self.sampled.is_empty() {
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            for &enq in &self.sampled {
                self.recorder.observe(
                    "serve.enqueue_to_absorb_ms",
                    now_ns.saturating_sub(enq) as f64 / 1e6,
                );
            }
        }
        Ok(())
    }

    /// Accesses ingested so far.
    pub fn served_total(&self) -> u64 {
        self.served_total
    }

    /// Per-owner served counts, accumulated across all flushes (same
    /// indexing as [`FleetManager::ingest_period`]'s return value).
    pub fn served(&self) -> &[u64] {
        &self.served
    }

    /// Clock ticks fired so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Chunk sizes of every flush, in order — replay these against
    /// [`FleetManager::ingest_period`] for a bit-identical offline twin.
    pub fn flush_sizes(&self) -> &[u64] {
        &self.flush_sizes
    }

    /// The fleet behind the service.
    pub fn fleet(&self) -> &FleetManager<D> {
        &self.fleet
    }

    /// The service's recorder (shared with the metrics exporter).
    pub fn recorder(&self) -> &Arc<InMemoryRecorder> {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use georep_core::fleet::FleetConfig;
    use georep_core::manager::ManagerConfig;

    const D: usize = 3;

    fn regions() -> Arc<Vec<Coord<D>>> {
        let mut state = 0xDEADBEEFu64;
        Arc::new(
            (0..8)
                .map(|_| {
                    Coord::new(std::array::from_fn(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 40) as f64 / 1e4
                    }))
                })
                .collect(),
        )
    }

    fn fleet(regions: &Arc<Vec<Coord<D>>>) -> FleetManager<D> {
        let mut mgr = ManagerConfig::new(2, 4);
        mgr.seed = 0x5CA1E;
        let candidates = vec![0, 2, 4, 6];
        FleetManager::new_shared(
            Arc::clone(regions),
            candidates,
            vec![0, 4],
            FleetConfig::new(64, 4, 2, mgr),
        )
        .expect("valid fleet")
    }

    fn service(
        shards: usize,
        period: usize,
    ) -> (IngestService<D, MockClock>, Vec<ShardProducer>, MockClock) {
        let regions = regions();
        let clock = MockClock::new();
        let (svc, producers) = IngestService::new(
            fleet(&regions),
            regions,
            clock.handle(),
            ServeConfig {
                shards,
                ring_capacity: 64,
                period_accesses: period,
                tick_interval_ms: 100,
                latency_sample: 4,
            },
        );
        (svc, producers, clock)
    }

    #[test]
    fn complete_periods_flush_on_poll() {
        let (mut svc, mut producers, _clock) = service(2, 10);
        for stamp in 0..20u64 {
            let p = (stamp % 2) as usize;
            producers[p].submit_stamped(stamp, stamp % 64, (stamp % 8) as u32, 1.0);
        }
        // With both producers still open the highest stamp (19) cannot be
        // proven watermark-complete, so only the first period flushes.
        let drained = svc.poll().expect("poll");
        assert_eq!(drained, 20);
        assert_eq!(svc.flush_sizes(), &[10]);
        // Hanging up retires the shards from the watermark: the rest goes.
        drop(producers);
        svc.poll().expect("poll");
        assert_eq!(svc.flush_sizes(), &[10, 10]);
        assert_eq!(svc.served_total(), 20);
    }

    #[test]
    fn watermark_holds_back_incomplete_prefixes() {
        let (mut svc, mut producers, _clock) = service(2, 4);
        // Shard 0 delivers stamps 0..8, shard 1 nothing yet: stamps above
        // shard 1's watermark (0) must wait even though 8 are buffered.
        for stamp in 0..8u64 {
            producers[0].submit_stamped(stamp, stamp, 0, 1.0);
        }
        svc.poll().expect("poll");
        assert_eq!(svc.served_total(), 0);
        // Shard 1 delivers stamp 8: now 0..8 are watermark-complete.
        producers[1].submit_stamped(8, 8, 1, 1.0);
        svc.poll().expect("poll");
        assert_eq!(svc.flush_sizes(), &[4, 4]);
        assert_eq!(svc.served_total(), 8);
    }

    #[test]
    fn tick_flushes_the_partial_period() {
        let (mut svc, mut producers, clock) = service(1, 100);
        for stamp in 0..7u64 {
            producers[0].submit_stamped(stamp, stamp, 0, 2.0);
        }
        assert!(!svc.maybe_tick().expect("tick"), "not due yet");
        clock.advance(100);
        assert!(svc.maybe_tick().expect("tick"));
        assert_eq!(svc.ticks(), 1);
        assert_eq!(svc.flush_sizes(), &[7]);
        assert_eq!(svc.served_total(), 7);
    }

    #[test]
    fn a_u64_max_tick_interval_never_ticks() {
        let regions = regions();
        let clock = MockClock::new();
        clock.set(1);
        let (mut svc, mut producers) = IngestService::new(
            fleet(&regions),
            regions,
            clock.handle(),
            ServeConfig {
                shards: 1,
                ring_capacity: 64,
                period_accesses: 100,
                tick_interval_ms: u64::MAX,
                latency_sample: 0,
            },
        );
        producers[0].submit_stamped(0, 0, 0, 1.0);
        assert!(!svc.maybe_tick().expect("tick"), "u64::MAX means never");
        assert!(svc.flush_sizes().is_empty());
    }

    #[test]
    fn finish_waits_for_closed_producers_and_drains_everything() {
        let (mut svc, mut producers, _clock) = service(2, 5);
        for stamp in 0..13u64 {
            let p = (stamp % 2) as usize;
            producers[p].submit_stamped(stamp, stamp % 64, 0, 1.0);
        }
        drop(producers);
        svc.finish().expect("finish");
        assert_eq!(svc.flush_sizes(), &[5, 5, 3]);
        assert_eq!(svc.served_total(), 13);
        assert_eq!(svc.served().iter().sum::<u64>(), 13);
    }

    #[test]
    fn live_stamps_from_shared_sequence_are_globally_unique() {
        let (mut svc, producers, _clock) = service(4, 8);
        let handles: Vec<_> = producers
            .into_iter()
            .map(|mut p| {
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        p.submit(i % 64, (i % 8) as u32, 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer");
        }
        svc.finish().expect("finish");
        assert_eq!(svc.served_total(), 200);
        // 200 accesses over period 8: 25 exact periods.
        assert_eq!(svc.flush_sizes().len(), 25);
    }

    #[test]
    fn latency_samples_land_in_the_recorder() {
        let (mut svc, mut producers, _clock) = service(1, 4);
        for stamp in 0..8u64 {
            producers[0].submit_stamped(stamp, stamp, 0, 1.0);
        }
        svc.poll().expect("poll");
        let hist = svc
            .recorder()
            .histogram("serve.enqueue_to_absorb_ms")
            .expect("sampled latency recorded");
        // latency_sample = 4 → stamps 0 and 4 are sampled.
        assert_eq!(hist.count, 2);
        assert_eq!(svc.recorder().counter_value("serve.ingested"), 8);
    }
}
