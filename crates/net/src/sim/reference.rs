//! The original `BinaryHeap` event loop, kept as the trusted oracle.
//!
//! [`super::engine`] replaced this scheduler with a calendar queue; this
//! module preserves the heap-based algorithm — O(log n) push/pop over a
//! single `BinaryHeap`, earliest `(at, seq)` first — so the differential
//! suite (`tests/sim_equivalence.rs`) can prove the fast engine produces
//! bit-identical execution order, timestamps and statistics.
//! The same pattern as `georep_cluster::reference`: never optimised, only
//! trusted.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::time::{SimDuration, SimTime};

type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Context<W>)>;

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
    next_seq: u64,
}

impl<W> Default for Queue<W> {
    fn default() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<W> Queue<W> {
    fn insert<F>(&mut self, at: SimTime, now: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        assert!(at >= now, "cannot schedule into the past ({at} < {now})");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
    }
}

/// Handle given to running events, for reading the clock and scheduling
/// follow-ups.
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
            .field("queued", &self.queue.heap.len())
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

    /// Number of events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.heap.len()
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
        let Some(entry) = self.queue.heap.pop() else {
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
        while let Some(head) = self.queue.heap.peek() {
            if head.at > deadline {
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
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_at(SimTime::from_ms(10.0), |_, ctx| {
            ctx.schedule_at(SimTime::from_ms(5.0), |_, _| {});
        });
        sim.run_to_completion(None);
    }
}
