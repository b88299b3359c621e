//! The original `BinaryHeap` event loop, kept as the trusted oracle.
//!
//! [`super::engine`] replaced this scheduler with a calendar queue; this
//! module preserves the heap-based algorithm — O(log n) push/pop over a
//! single `BinaryHeap`, earliest `(at, seq)` first — so the differential
//! suite (`tests/sim_equivalence.rs`) can prove the fast engine produces
//! bit-identical execution order, timestamps and statistics.
//! The same pattern as `georep_cluster::reference`: never optimised, only
//! trusted.
//!
//! The one addition over the historical engine is event cancellation
//! ([`Simulation::cancel`] / [`Context::cancel`]), mirrored here so both
//! engines expose the same contract: cancelling marks the sequence number
//! dead and the entry is skipped (and dropped) when it surfaces at the top
//! of the heap.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use super::time::{SimDuration, SimTime};

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Context<W>)>;

/// Handle to a scheduled event, for [`Simulation::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<W> {
    at: SimTime,
    seq: u64,
    f: EventFn<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<W> Eq for Entry<W> {}

impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking timestamp ties by scheduling order (FIFO).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduling state, shared between [`Simulation`] and a running
/// [`Context`] by value (taken and restored around each handler call).
struct Queue<W> {
    heap: BinaryHeap<Entry<W>>,
    /// Sequence numbers of scheduled-but-not-yet-run, not-cancelled events.
    live: HashSet<u64>,
    next_seq: u64,
}

impl<W> Default for Queue<W> {
    fn default() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            next_seq: 0,
        }
    }
}

impl<W> Queue<W> {
    fn insert<F>(&mut self, at: SimTime, now: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        assert!(at >= now, "cannot schedule into the past ({at} < {now})");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
        EventId(seq)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        self.live.remove(&id.0)
    }

    fn is_pending(&self, id: EventId) -> bool {
        self.live.contains(&id.0)
    }

    /// Pops the earliest live entry, discarding cancelled ones on the way.
    fn pop(&mut self) -> Option<Entry<W>> {
        while let Some(entry) = self.heap.pop() {
            if self.live.remove(&entry.seq) {
                return Some(entry);
            }
        }
        None
    }

    /// Timestamp of the earliest live entry, discarding cancelled heads.
    fn peek_at(&mut self) -> Option<SimTime> {
        while let Some(head) = self.heap.peek() {
            if self.live.contains(&head.seq) {
                return Some(head.at);
            }
            self.heap.pop();
        }
        None
    }
}

/// Handle given to running events, for reading the clock, scheduling
/// follow-ups and cancelling pending events.
pub struct Context<W> {
    now: SimTime,
    queue: Queue<W>,
}

impl<W> Context<W> {
    /// The simulated instant the current event runs at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventId
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
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.queue.insert(at, self.now, f)
    }

    /// Cancels a pending event. Returns `false` if it already ran or was
    /// already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Whether `id` is still scheduled to run.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }
}

/// The heap-based discrete-event simulation over a world of type `W`.
pub struct Simulation<W> {
    world: W,
    now: SimTime,
    queue: Queue<W>,
    executed: u64,
}

impl<W: std::fmt::Debug> std::fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("reference::Simulation")
            .field("now", &self.now)
            .field("queued", &self.queue.live.len())
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
            queue: Queue::default(),
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

    /// Number of events currently queued (cancelled events excluded).
    pub fn queued(&self) -> usize {
        self.queue.live.len()
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F) -> EventId
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
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.queue.insert(at, self.now, f)
    }

    /// Cancels a pending event. Returns `false` if it already ran or was
    /// already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Whether `id` is still scheduled to run.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "heap returned an event from the past");
        self.now = entry.at;
        let mut ctx = Context {
            now: self.now,
            queue: std::mem::take(&mut self.queue),
        };
        (entry.f)(&mut self.world, &mut ctx);
        self.queue = ctx.queue;
        self.executed += 1;
        true
    }

    /// Runs events until the queue is empty or the next event lies strictly
    /// after `deadline`; the clock is then advanced to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
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
    fn cancelled_events_never_run_and_free_the_queue() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let a = sim.schedule_at(SimTime::from_ms(10.0), |w: &mut Vec<u32>, _| w.push(1));
        let _b = sim.schedule_at(SimTime::from_ms(20.0), |w: &mut Vec<u32>, _| w.push(2));
        assert!(sim.cancel(a));
        assert!(!sim.cancel(a), "double cancel must report false");
        assert_eq!(sim.queued(), 1);
        sim.run_to_completion(None);
        assert_eq!(sim.world(), &vec![2]);
        assert!(!sim.cancel(a), "cancel after drain must report false");
    }

    #[test]
    fn handlers_can_cancel_pending_events() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let doomed = sim.schedule_at(SimTime::from_ms(50.0), |w: &mut Vec<u32>, _| w.push(99));
        sim.schedule_at(SimTime::from_ms(10.0), move |w: &mut Vec<u32>, ctx| {
            assert!(ctx.is_pending(doomed));
            assert!(ctx.cancel(doomed));
            assert!(!ctx.is_pending(doomed));
            w.push(1);
        });
        sim.run_to_completion(None);
        assert_eq!(sim.world(), &vec![1]);
        assert_eq!(sim.executed(), 1);
        assert_eq!(sim.now(), SimTime::from_ms(10.0));
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
    fn run_until_skips_cancelled_heads() {
        let mut sim = Simulation::new(0u32);
        let head = sim.schedule_at(SimTime::from_ms(5.0), |w: &mut u32, _| *w += 1);
        sim.schedule_at(SimTime::from_ms(50.0), |w: &mut u32, _| *w += 10);
        sim.cancel(head);
        sim.run_until(SimTime::from_ms(10.0));
        assert_eq!(*sim.world(), 0);
        assert_eq!(sim.now(), SimTime::from_ms(10.0));
        sim.run_until(SimTime::from_ms(100.0));
        assert_eq!(*sim.world(), 10);
    }
}
