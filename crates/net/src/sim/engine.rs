//! The event loop: a calendar-queue scheduler.
//!
//! A [`Simulation`] owns a user-supplied *world* (the mutable state of the
//! experiment) and a time-ordered queue of events. Each event is a closure
//! receiving `(&mut World, &mut Context)`; the [`Context`] exposes the
//! current simulated time and lets handlers schedule follow-up events.
//! Events at equal timestamps run in FIFO scheduling order, so runs are
//! fully deterministic. Nothing cancels an event: every protocol on this
//! engine lets its timers fire and ignores the ones made moot.
//!
//! # The calendar queue
//!
//! The original engine (preserved verbatim in [`super::reference`]) kept
//! every pending event in one `BinaryHeap`: at million-event occupancy each
//! pop sifts through ~20 cache-missing tree levels. This engine is a
//! *calendar queue* (Brown 1988), the structure production discrete-event
//! simulators use:
//!
//! * **Arena slots** — every event body lives in a slab (`Vec<Slot>`) with
//!   a free list; the ring buckets and the front heap store 4-byte indices,
//!   not boxed nodes, and a slot is recycled the moment its event runs.
//! * **Bucket ring** — an event at time `t` hangs in bucket
//!   `(t / width) % nbuckets`, like a calendar where bucket = day-of-year:
//!   events a "year" (`nbuckets × width`) apart share a bucket and are told
//!   apart by their timestamp when the bucket is visited.
//! * **Batched dequeue via a front heap** — when the cursor enters a
//!   bucket, every event of the current year is moved *in one batch* into a
//!   small `front` min-heap ordered by `(t, seq)`; pops then come from that
//!   tiny heap. With width tuned to the mean event spacing the front holds
//!   O(1) events, so scheduling and dequeue are amortised O(1) instead of
//!   O(log n).
//! * **Self-tuning** — when occupancy drifts past 2× the target (or below
//!   a small fraction of it) the queue rebuilds, re-deriving the
//!   power-of-two `width` from the observed event-time span so each bucket
//!   again holds ~`TARGET_OCCUPANCY` events per year. A batch per visited
//!   bucket keeps the ring cache-sized and lets the CPU overlap the arena
//!   reads, and the power-of-two width makes the bucket hash a
//!   shift-and-mask. The queue also rebuilds on a full fruitless rotation
//!   (all events more than a year ahead): that is how a ring that never
//!   crosses the occupancy thresholds — the first 16-bucket, 1 µs-wide
//!   ring, at up to 1 024 pending — still tunes its width to the event
//!   spacing, so a pop costs O(1) slot reads at any occupancy instead of
//!   a sweep of every live event.
//!
//! The tie-breaking contract is identical to the reference engine — strict
//! `(timestamp, sequence number)` order — and `tests/sim_equivalence.rs`
//! proves both engines produce bit-identical schedules, including under
//! fault-plan drops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::time::{SimDuration, SimTime};

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Context<W>)>;

/// Smallest / largest bucket-ring sizes the queue will tune itself to.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 20;

/// Events the tuner aims to keep per bucket. The textbook calendar queue
/// uses ~1; batching a few dozen beats that on real hardware — the ring
/// shrinks by the same factor (so rotations stay in L2), and each visited
/// bucket issues a batch of independent arena reads the CPU can overlap
/// instead of one dependent miss per rotation. The front heap stays
/// ≤ ~2× this size, so pops stay cheap. On the repo benchmark's hold-model
/// probe (`net.sim.hold_events_per_s`, 1 024 pending) 4, 16, 32 and 64 all
/// read 7.5–7.9 M events/s (median of 5 runs each, 2-vCPU host,
/// 2026-10-17): at that size the choice is inside run-to-run noise.
const TARGET_OCCUPANCY: usize = 32;

/// One arena cell. `f: None` marks a vacant slot, one whose event ran and
/// whose index sits on the free list.
struct Slot<W> {
    at: u64,
    seq: u64,
    f: Option<EventFn<W>>,
}

/// The calendar queue proper. Shared between [`Simulation`] and a running
/// [`Context`] by value (taken and restored around each handler call, so
/// handlers schedule straight into the real queue with no pending buffer).
struct CalendarQueue<W> {
    slots: Vec<Slot<W>>,
    free: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    /// log2 of the bucket width in microseconds. The width is kept a power
    /// of two (and the ring a power-of-two length) so the bucket hash is a
    /// shift-and-mask instead of a 64-bit divide on every insert.
    width_log2: u32,
    /// Index of the bucket the cursor is on.
    cursor: usize,
    /// Start of the cursor bucket's current window, as a multiple of
    /// `width`. Kept in `u128` so windows adjacent to `SimTime::MAX` never
    /// overflow.
    cursor_start: u128,
    /// Min-heap over `(at, seq, slot)` of every live event with
    /// `at < cursor_start + width`. Pops come from here.
    front: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Pending (scheduled, not yet run) events anywhere.
    len: usize,
    next_seq: u64,
    /// Slot reads made by bucket visits and rebuilds: the per-pop work the
    /// tuning exists to bound.
    #[cfg(test)]
    slot_reads: u64,
}

impl<W> Default for CalendarQueue<W> {
    /// A zero-allocation placeholder (also the state a fresh simulation
    /// starts from); the bucket ring materialises on first use.
    fn default() -> Self {
        CalendarQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: Vec::new(),
            width_log2: 0,
            cursor: 0,
            cursor_start: 0,
            front: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            #[cfg(test)]
            slot_reads: 0,
        }
    }
}

impl<W> CalendarQueue<W> {
    /// Bucket width in microseconds (always a power of two, ≥ 1).
    fn width(&self) -> u64 {
        1u64 << self.width_log2
    }

    /// End (exclusive) of the cursor bucket's window.
    fn cursor_end(&self) -> u128 {
        self.cursor_start + self.width() as u128
    }

    fn bucket_of(&self, t: u64) -> usize {
        ((t >> self.width_log2) as usize) & (self.buckets.len() - 1)
    }

    fn insert<F>(&mut self, at: SimTime, now: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        assert!(at >= now, "cannot schedule into the past ({at} < {now})");
        let t = at.as_micros();
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                slot.at = t;
                slot.seq = seq;
                slot.f = Some(Box::new(f));
                i
            }
            None => {
                let i = self.slots.len();
                assert!(i < u32::MAX as usize, "event arena exhausted");
                self.slots.push(Slot {
                    at: t,
                    seq,
                    f: Some(Box::new(f)),
                });
                i as u32
            }
        };
        self.len += 1;
        if (t as u128) < self.cursor_end() {
            self.front.push(Reverse((t, seq, idx)));
        } else {
            if self.buckets.is_empty() {
                self.buckets = vec![Vec::new(); MIN_BUCKETS];
            }
            let b = self.bucket_of(t);
            self.buckets[b].push(idx);
        }
        if self.len > self.buckets.len() * (2 * TARGET_OCCUPANCY)
            && self.buckets.len() < MAX_BUCKETS
        {
            self.rebuild();
        }
    }

    /// Moves every current-window event of the cursor bucket into the
    /// front heap in one batch.
    fn collect_current(&mut self) {
        let cursor = self.cursor;
        let end = self.cursor_end();
        let mut i = 0;
        while i < self.buckets[cursor].len() {
            #[cfg(test)]
            {
                self.slot_reads += 1;
            }
            let idx = self.buckets[cursor][i];
            let slot = &self.slots[idx as usize];
            let (at, seq) = (slot.at, slot.seq);
            if (at as u128) < end {
                self.buckets[cursor].swap_remove(i);
                self.front.push(Reverse((at, seq, idx)));
            } else {
                i += 1;
            }
        }
    }

    /// Advances the cursor until the front heap holds at least one event.
    /// Precondition: the front is empty and `len > 0` (so the ring is
    /// non-empty and the bucket ring has been materialised).
    fn advance(&mut self) {
        let n = self.buckets.len();
        for _ in 0..n {
            self.cursor = (self.cursor + 1) % n;
            self.cursor_start += self.width() as u128;
            self.collect_current();
            if !self.front.is_empty() {
                return;
            }
        }
        // A full fruitless rotation: every live event is more than a year
        // ahead, so the width no longer fits the event spacing. Retune —
        // the rebuild re-derives the width from the live span and moves the
        // earliest event's window into the front.
        self.rebuild();
    }

    fn ensure_front(&mut self) {
        while self.front.is_empty() && self.len > 0 {
            self.advance();
        }
    }

    /// Pops the earliest pending event as `(at_micros, seq, handler)`.
    fn pop(&mut self) -> Option<(u64, u64, EventFn<W>)> {
        self.ensure_front();
        let Reverse((at, seq, idx)) = self.front.pop()?;
        let slot = &mut self.slots[idx as usize];
        debug_assert_eq!(slot.seq, seq, "front held a stale key");
        let f = slot.f.take().expect("front held a vacant slot");
        self.free.push(idx);
        self.len -= 1;
        if self.buckets.len() > MIN_BUCKETS
            && self.len * (4 * TARGET_OCCUPANCY) < self.buckets.len()
        {
            self.rebuild();
        }
        Some((at, seq, f))
    }

    /// Timestamp of the earliest pending event, in microseconds.
    fn peek_at(&mut self) -> Option<u64> {
        self.ensure_front();
        self.front.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Re-sizes the ring to ~[`TARGET_OCCUPANCY`] events per bucket and
    /// re-derives the bucket width from the observed event-time span, then
    /// re-hangs every pending event.
    fn rebuild(&mut self) {
        let mut live: Vec<u32> = Vec::with_capacity(self.len + 8);
        live.extend(self.front.drain().map(|Reverse((_, _, idx))| idx));
        let mut rings: Vec<Vec<u32>> = std::mem::take(&mut self.buckets);
        for ring in &mut rings {
            live.append(ring);
        }
        #[cfg(test)]
        {
            self.slot_reads += live.len() as u64;
        }
        debug_assert_eq!(live.len(), self.len, "pending-event accounting drifted");

        let n = (self.len / TARGET_OCCUPANCY)
            .max(1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        rings.clear();
        rings.resize(n, Vec::new());
        self.buckets = rings;
        if live.is_empty() {
            self.width_log2 = 0;
            self.cursor = 0;
            return;
        }
        let min_at = live
            .iter()
            .map(|&i| self.slots[i as usize].at)
            .min()
            .unwrap();
        let max_at = live
            .iter()
            .map(|&i| self.slots[i as usize].at)
            .max()
            .unwrap();
        // Width ≈ TARGET_OCCUPANCY × mean spacing, rounded up to a power of
        // two: one year (n × width ≥ span) covers the whole occupied range
        // with a handful of events per visited bucket.
        let spacing = ((max_at - min_at) / self.len as u64).max(1);
        let target = spacing.saturating_mul(TARGET_OCCUPANCY as u64).min(1 << 62);
        self.width_log2 = target.next_power_of_two().trailing_zeros();
        self.cursor_start = ((min_at >> self.width_log2) as u128) << self.width_log2;
        self.cursor = self.bucket_of(min_at);
        let end = self.cursor_end();
        for idx in live {
            let slot = &self.slots[idx as usize];
            if (slot.at as u128) < end {
                self.front.push(Reverse((slot.at, slot.seq, idx)));
            } else {
                let b = self.bucket_of(slot.at);
                self.buckets[b].push(idx);
            }
        }
    }
}

/// Handle given to running events, for reading the clock and scheduling
/// follow-ups.
pub struct Context<W> {
    now: SimTime,
    queue: CalendarQueue<W>,
}

impl<W> Context<W> {
    /// The simulated instant the current event runs at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.queue.insert(at, self.now, f)
    }
}

/// A discrete-event simulation over a world of type `W`.
pub struct Simulation<W> {
    world: W,
    now: SimTime,
    queue: CalendarQueue<W>,
    executed: u64,
}

impl<W: std::fmt::Debug> std::fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("queued", &self.queue.len)
            .field("executed", &self.executed)
            .field("world", &self.world)
            .finish()
    }
}

impl<W> Simulation<W> {
    /// Creates a simulation at `t = 0` over the given world.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            now: SimTime::ZERO,
            queue: CalendarQueue::default(),
            executed: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. for inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedules `f` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.queue.insert(at, self.now, f)
    }

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((at, _seq, f)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(
            at >= self.now.as_micros(),
            "queue returned an event from the past"
        );
        self.now = SimTime::from_micros(at);
        let mut ctx = Context {
            now: self.now,
            queue: std::mem::take(&mut self.queue),
        };
        f(&mut self.world, &mut ctx);
        self.queue = ctx.queue;
        self.executed += 1;
        true
    }

    /// Runs events until the queue is empty or the next event lies strictly
    /// after `deadline`; the clock is then advanced to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let deadline_us = deadline.as_micros();
        while let Some(at) = self.queue.peek_at() {
            if at > deadline_us {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue drains, or until `max_events` have
    /// executed when a limit is given. Returns the number of events run by
    /// this call.
    pub fn run_to_completion(&mut self, max_events: Option<u64>) -> u64 {
        let mut ran = 0;
        while max_events.is_none_or(|m| ran < m) {
            if !self.step() {
                break;
            }
            ran += 1;
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_timestamp_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_ms(30.0), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(SimTime::from_ms(10.0), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_ms(20.0), |w: &mut Vec<u32>, _| w.push(2));
        sim.run_to_completion(None);
        assert_eq!(sim.world(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ms(30.0));
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_ms(5.0), move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run_to_completion(None);
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimDuration::from_ms(1.0), |_, ctx| {
            ctx.schedule_in(SimDuration::from_ms(1.0), |w: &mut u32, ctx| {
                *w += 1;
                ctx.schedule_in(SimDuration::from_ms(1.0), |w: &mut u32, _| *w += 10);
            });
        });
        sim.run_to_completion(None);
        assert_eq!(*sim.world(), 11);
        assert_eq!(sim.now(), SimTime::from_ms(3.0));
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_ms(10.0), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_ms(50.0), |w: &mut Vec<u32>, _| w.push(2));
        sim.run_until(SimTime::from_ms(25.0));
        assert_eq!(sim.world(), &vec![1]);
        assert_eq!(sim.now(), SimTime::from_ms(25.0));
        assert_eq!(sim.queued(), 1);
        sim.run_until(SimTime::from_ms(100.0));
        assert_eq!(sim.world(), &vec![1, 2]);
    }

    #[test]
    fn run_until_includes_events_at_deadline() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_at(SimTime::from_ms(25.0), |w: &mut u32, _| *w += 1);
        sim.run_until(SimTime::from_ms(25.0));
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn max_events_limit_respected() {
        let mut sim = Simulation::new(0u32);
        for _ in 0..100 {
            sim.schedule_in(SimDuration::from_ms(1.0), |w: &mut u32, _| *w += 1);
        }
        let ran = sim.run_to_completion(Some(30));
        assert_eq!(ran, 30);
        assert_eq!(*sim.world(), 30);
        assert_eq!(sim.queued(), 70);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_at(SimTime::from_ms(10.0), |_, ctx| {
            ctx.schedule_at(SimTime::from_ms(5.0), |_, _| {});
        });
        sim.run_to_completion(None);
    }

    #[test]
    fn periodic_timer_pattern() {
        // A self-rescheduling tick: classic DES pattern used by the replica
        // manager's periodic re-clustering.
        struct World {
            ticks: u32,
        }
        fn tick(w: &mut World, ctx: &mut Context<World>) {
            w.ticks += 1;
            if w.ticks < 5 {
                ctx.schedule_in(SimDuration::from_ms(100.0), tick);
            }
        }
        let mut sim = Simulation::new(World { ticks: 0 });
        sim.schedule_in(SimDuration::from_ms(100.0), tick);
        sim.run_to_completion(None);
        assert_eq!(sim.world().ticks, 5);
        assert_eq!(sim.now(), SimTime::from_ms(500.0));
    }

    #[test]
    fn step_on_empty_queue_is_false() {
        let mut sim = Simulation::new(());
        assert!(!sim.step());
        assert_eq!(sim.executed(), 0);
    }

    #[test]
    fn sparse_far_apart_events_retune_the_calendar() {
        // Events separated by far more than a ring "year" force the
        // fruitless-rotation rebuild path.
        let mut sim = Simulation::new(Vec::<u64>::new());
        for t in [3u64, 5_000_000, 40_000_000_000, 40_000_000_001] {
            sim.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<u64>, _| {
                w.push(t)
            });
        }
        sim.run_to_completion(None);
        assert_eq!(
            sim.world(),
            &vec![3, 5_000_000, 40_000_000_000, 40_000_000_001]
        );
        assert_eq!(sim.now(), SimTime::from_micros(40_000_000_001));
    }

    #[test]
    fn heavy_occupancy_triggers_rebuilds_and_keeps_order() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        // Deliberately awkward spacing: dense cluster + long tail, with
        // interleaved scheduling order.
        for i in 0..2_000u64 {
            let t = if i % 3 == 0 {
                i
            } else {
                i * 977 % 65_536 + 10_000
            };
            sim.schedule_at(SimTime::from_micros(t), move |w: &mut Vec<u64>, _| {
                w.push(t)
            });
        }
        sim.run_to_completion(None);
        let log = sim.world();
        assert_eq!(log.len(), 2_000);
        assert!(log.windows(2).all(|w| w[0] <= w[1]), "out of order");
    }

    /// Slot reads per pop under the hold model: `pending` events, each of
    /// which reschedules itself a pseudo-random 1 µs – 1 s ahead when it
    /// fires (the shape of the repo benchmark's engine probe).
    fn hold_reads_per_pop(pending: u64) -> f64 {
        fn hold(world: &mut u64, ctx: &mut Context<u64>) {
            *world = world
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ctx.schedule_in(SimDuration::from_micros(1 + (*world >> 44)), hold);
        }
        let mut sim = Simulation::new(1u64);
        for i in 0..pending {
            sim.schedule_in(SimDuration::from_micros(1 + i * 977), hold);
        }
        let pops = 20_000;
        assert_eq!(sim.run_to_completion(Some(pops)), pops);
        sim.queue.slot_reads as f64 / pops as f64
    }

    #[test]
    fn hold_model_work_per_pop_is_bounded_at_every_occupancy() {
        // Before fruitless rotations rebuilt, a ring at or below the
        // insert-side rebuild threshold (1 024 pending) kept its first 16 µs
        // year, so nearly every pop swept the whole ring: 17.9, 271.8,
        // 1 072.3 and 1.2 reads per pop at 16, 256, 1 024 and 4 096 pending
        // (not counting the teleport's extra scan). Now: 0.5, 1.0, 1.1, 1.2.
        for pending in [16, 256, 1_024, 4_096] {
            let reads = hold_reads_per_pop(pending);
            assert!(
                reads < 4.0,
                "{reads:.1} slot reads per pop at {pending} pending"
            );
        }
    }

    #[test]
    fn schedules_adjacent_to_sim_time_max_do_not_overflow() {
        // Regression: bucket-window arithmetic near `SimTime::MAX` must not
        // overflow u64 (the window end is tracked in u128).
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.schedule_at(SimTime::MAX, |w: &mut Vec<u64>, ctx| {
            w.push(ctx.now().as_micros());
        });
        sim.schedule_at(SimTime::from_micros(u64::MAX - 1), |w: &mut Vec<u64>, _| {
            w.push(u64::MAX - 1);
        });
        sim.schedule_at(SimTime::from_micros(5), |w: &mut Vec<u64>, _| w.push(5));
        sim.run_to_completion(None);
        assert_eq!(sim.world(), &vec![5, u64::MAX - 1, u64::MAX]);
        assert_eq!(sim.now(), SimTime::MAX);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever order events are scheduled in, they execute in
            /// nondecreasing timestamp order, and ties preserve scheduling
            /// (FIFO) order.
            #[test]
            fn prop_execution_is_chronological(
                times in prop::collection::vec(0u64..10_000, 1..200)
            ) {
                let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
                for (seq, &t) in times.iter().enumerate() {
                    sim.schedule_at(
                        SimTime::from_micros(t),
                        move |w: &mut Vec<(u64, usize)>, _| w.push((t, seq)),
                    );
                }
                sim.run_to_completion(None);
                let log = sim.world();
                prop_assert_eq!(log.len(), times.len());
                for w in log.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0, "out of order: {:?}", w);
                    if w[0].0 == w[1].0 {
                        prop_assert!(w[0].1 < w[1].1, "tie broke FIFO: {:?}", w);
                    }
                }
            }

            /// Splitting a run at an arbitrary deadline never changes the
            /// final world (run_until is a pure pause point).
            #[test]
            fn prop_run_until_is_a_pure_pause(
                times in prop::collection::vec(0u64..5_000, 1..100),
                split in 0u64..5_000,
            ) {
                let build = || {
                    let mut sim = Simulation::new(Vec::<u64>::new());
                    for &t in &times {
                        sim.schedule_at(
                            SimTime::from_micros(t),
                            move |w: &mut Vec<u64>, _| w.push(t),
                        );
                    }
                    sim
                };
                let mut straight = build();
                straight.run_to_completion(None);

                let mut paused = build();
                paused.run_until(SimTime::from_micros(split));
                paused.run_to_completion(None);

                prop_assert_eq!(straight.world(), paused.world());
            }

            /// Follow-up events scheduled from handlers also obey the clock.
            #[test]
            fn prop_followups_never_run_early(
                delays in prop::collection::vec(1u64..500, 1..50)
            ) {
                let mut sim = Simulation::new(Vec::<(u64, u64)>::new());
                for &d in &delays {
                    sim.schedule_at(
                        SimTime::from_micros(d),
                        move |_, ctx| {
                            let fired_at = ctx.now().as_micros();
                            ctx.schedule_in(
                                SimDuration::from_micros(d),
                                move |w: &mut Vec<(u64, u64)>, ctx| {
                                    w.push((fired_at + d, ctx.now().as_micros()));
                                },
                            );
                        },
                    );
                }
                sim.run_to_completion(None);
                for &(expected, actual) in sim.world() {
                    prop_assert_eq!(expected, actual);
                }
            }
        }
    }
}
