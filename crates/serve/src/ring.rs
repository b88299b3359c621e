//! Bounded lock-free SPSC ring buffers — the hot path between producer
//! threads and the ingest service.
//!
//! One ring carries accesses from exactly one producer thread to exactly
//! one consumer (the service's drain loop), so the only synchronization
//! needed is a pair of monotone positions: the producer publishes writes
//! with a `Release` store of `tail`, the consumer publishes frees with a
//! `Release` store of `head`, and each side reads the other's position
//! with `Acquire`. No locks on the hot path, no CAS loops, no allocation
//! after construction.
//!
//! Layout choices, in the nearcore/crossbeam idiom:
//!
//! * capacity is rounded up to a **power of two**, so position → slot is a
//!   mask, not a modulo;
//! * `head` and `tail` live on **separate cache lines**
//!   (`CachePadded`), so the producer and consumer never false-share;
//! * both sides keep a **cached copy** of the opposite position and only
//!   reload it when the cached value says the ring looks full (producer)
//!   or empty (consumer), which removes almost all cross-core traffic in
//!   steady state.
//!
//! The single-producer / single-consumer discipline is enforced by
//! construction: [`spsc`] returns exactly one [`Producer`] and one
//! [`Consumer`], neither of which is `Clone`.
//!
//! A producer that finds the ring full **parks** its thread
//! ([`Producer::push`]) instead of spinning, so a busy consumer gets the
//! core back. The wake handshake lives off the hot path: a `parked` flag
//! on a third cache line and the producer's [`Thread`] handle behind a
//! mutex that only the slow path touches. Every consumer path that
//! advances `head` ([`Consumer::drain_into`], [`Consumer::try_pop`], and
//! so `Drop`) pays one `SeqCst` fence and one flag load per batch, and
//! unparks the producer when the flag is set. The ring counts its parks,
//! which the service exports as `serve.producer.parks`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};

/// Pads its contents to a 64-byte cache line so two adjacent atomics never
/// share one (the classic false-sharing defence).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// The shared core of one SPSC ring.
#[derive(Debug)]
struct Ring<T> {
    /// Slot storage; only the producer writes a slot, and only between the
    /// consumer freeing it and the producer publishing it.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `capacity - 1`, valid because the capacity is a power of two.
    mask: usize,
    /// Consumer position: slots below it are free (all-time count).
    head: CachePadded<AtomicUsize>,
    /// Producer position: slots below it are published (all-time count).
    tail: CachePadded<AtomicUsize>,
    /// The producer's slow-path state; only a full ring writes it.
    wake: CachePadded<Wake>,
    /// The thread to unpark while `wake.parked` is set.
    waiter: Mutex<Option<Thread>>,
}

/// Set and counted by a producer about to park on a full ring.
#[derive(Debug, Default)]
struct Wake {
    parked: AtomicBool,
    /// All-time number of `park()` calls (a statistic: `Relaxed`).
    parks: AtomicU64,
}

// Safety: the producer/consumer split guarantees each slot is accessed by
// at most one thread at a time (ownership is handed over through the
// Release/Acquire pair on `tail` and `head`). `wake` and `waiter` are
// atomics and a mutex, shared safely by construction.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// The write half of a ring: exactly one exists per ring.
#[derive(Debug)]
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Cached snapshot of the consumer's `head`; refreshed only when the
    /// ring looks full against the snapshot.
    cached_head: usize,
    /// Local copy of `tail` (only this side ever writes it).
    tail: usize,
}

/// The read half of a ring: exactly one exists per ring.
#[derive(Debug)]
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached snapshot of the producer's `tail`; refreshed only when the
    /// ring looks empty against the snapshot.
    cached_tail: usize,
    /// Local copy of `head` (only this side ever writes it).
    head: usize,
}

/// Creates one bounded SPSC ring. `capacity` is rounded up to the next
/// power of two (minimum 2).
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        mask: capacity - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        wake: CachePadded(Wake::default()),
        waiter: Mutex::new(None),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            cached_head: 0,
            tail: 0,
        },
        Consumer {
            ring,
            cached_tail: 0,
            head: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Number of slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Attempts to enqueue `value`; returns it back when the ring is full
    /// (the caller picks the backpressure policy — [`Producer::push`]
    /// parks).
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let capacity = self.ring.mask + 1;
        if self.tail.wrapping_sub(self.cached_head) == capacity {
            // Looks full against the snapshot: reload the real head.
            self.cached_head = self.ring.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) == capacity {
                return Err(value);
            }
        }
        let slot = &self.ring.buf[self.tail & self.ring.mask];
        // Safety: `head ≤ tail - capacity` was just excluded, so the
        // consumer has freed this slot and will not touch it until the
        // Release store below publishes it.
        unsafe { (*slot.get()).write(value) };
        self.tail = self.tail.wrapping_add(1);
        self.ring.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Enqueues `value`, parking the thread while the ring is full until
    /// the consumer frees a slot. The bounded ring is the backpressure: a
    /// stalled consumer slows producers down instead of growing a queue,
    /// and a waiting producer leaves its core to the consumer.
    pub fn push(&mut self, mut value: T) {
        while let Err(v) = self.try_push(value) {
            value = v;
            self.park_while_full();
        }
    }

    /// Parks until a consumer that advanced `head` unparks this thread,
    /// unless the ring turns out to have room already. May return with
    /// the ring still full (a spurious wakeup); the caller retries.
    #[cold]
    fn park_while_full(&mut self) {
        let ring = &*self.ring;
        // Nothing panics while holding the lock, and any value is valid.
        *ring.waiter.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current());
        // No lost wakeup (store buffering): this side stores `parked`,
        // fences, then loads `head`; the consumer stores `head`, fences,
        // then loads `parked`. The two SeqCst fences are totally ordered,
        // so either this load sees the freed slot or the consumer's load
        // sees the flag and unparks us. An unpark that lands before
        // `park()` leaves a token, so `park()` then returns at once.
        ring.wake.0.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        self.cached_head = ring.head.0.load(Ordering::Acquire);
        if self.tail.wrapping_sub(self.cached_head) == ring.mask + 1 {
            ring.wake.0.parks.fetch_add(1, Ordering::Relaxed);
            thread::park();
        }
        ring.wake.0.parked.store(false, Ordering::Relaxed);
    }
}

impl<T> Consumer<T> {
    /// Number of slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Dequeues one value, or `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        let slot = &self.ring.buf[self.head & self.ring.mask];
        // Safety: `head < tail`, so the producer published this slot and
        // will not rewrite it until the Release store below frees it.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.ring.head.0.store(self.head, Ordering::Release);
        self.wake_producer();
        Some(value)
    }

    /// Moves every currently-published element into `out`, returning how
    /// many were drained. One `Acquire` load and one `Release` store per
    /// batch, not per element.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        let tail = self.ring.tail.0.load(Ordering::Acquire);
        let n = tail.wrapping_sub(self.head);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        for i in 0..n {
            let slot = &self.ring.buf[self.head.wrapping_add(i) & self.ring.mask];
            // Safety: all slots in `head..tail` are published (see
            // `try_pop`); freeing is deferred to the single store below.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        self.head = self.head.wrapping_add(n);
        self.cached_tail = tail;
        self.ring.head.0.store(self.head, Ordering::Release);
        self.wake_producer();
        n
    }

    /// Unparks a producer waiting on a full ring. Call right after every
    /// `Release` store that advances `head`.
    fn wake_producer(&self) {
        // The other half of `Producer::park_while_full`'s handshake: the
        // caller's `head` store, this fence, then the flag load. Either the
        // producer's reload of `head` sees the freed slot, or this load
        // sees its flag (and the waiter it recorded before setting it).
        fence(Ordering::SeqCst);
        if self.ring.wake.0.parked.load(Ordering::Relaxed) {
            let waiter = self
                .ring
                .waiter
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(thread) = waiter.as_ref() {
                thread.unpark();
            }
        }
    }

    /// How many times the producer has parked on this ring so far.
    pub(crate) fn parks(&self) -> u64 {
        self.ring.wake.0.parks.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drop any still-queued elements (the producer may also still be
        // alive, but it can only write to *free* slots, never published
        // ones, so reading the published range here is exclusive).
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let (p, _c) = spsc::<u32>(100);
        assert_eq!(p.capacity(), 128);
        let (p, _c) = spsc::<u32>(1);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn push_pop_roundtrip_in_order() {
        let (mut p, mut c) = spsc(8);
        for i in 0..5 {
            p.try_push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.try_pop(), Some(i));
        }
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn full_ring_rejects_until_drained() {
        let (mut p, mut c) = spsc(4);
        for i in 0..4 {
            p.try_push(i).unwrap();
        }
        assert_eq!(p.try_push(99), Err(99));
        assert_eq!(c.try_pop(), Some(0));
        p.try_push(99).unwrap();
        let mut out = Vec::new();
        assert_eq!(c.drain_into(&mut out), 4);
        assert_eq!(out, vec![1, 2, 3, 99]);
    }

    #[test]
    fn drain_empties_and_wraps() {
        let (mut p, mut c) = spsc(4);
        let mut out = Vec::new();
        for round in 0..10 {
            for i in 0..3 {
                p.try_push(round * 3 + i).unwrap();
            }
            out.clear();
            assert_eq!(c.drain_into(&mut out), 3);
            assert_eq!(out, vec![round * 3, round * 3 + 1, round * 3 + 2]);
        }
        assert_eq!(c.drain_into(&mut out), 0);
    }

    #[test]
    fn cross_thread_stream_preserves_order() {
        let (mut p, mut c) = spsc(64);
        let n = 100_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                p.push(i);
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        while expected < n {
            out.clear();
            c.drain_into(&mut out);
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    /// A capacity-2 ring makes nearly every push find it full, and the
    /// consumer's pauses let the producer reach `park()`; a lost wakeup
    /// would leave the producer asleep on a full ring the consumer has
    /// already emptied, which the watchdog turns into a failure.
    #[test]
    fn a_parked_producer_is_always_woken() {
        use std::time::{Duration, Instant};
        const PUSHES: u64 = 200_000;
        const WATCHDOG: Duration = Duration::from_secs(30);
        let (mut p, mut c) = spsc(2);
        let producer = std::thread::spawn(move || {
            for i in 0..PUSHES {
                p.push(i);
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        let mut progress = Instant::now();
        while expected < PUSHES {
            let before = expected;
            if expected.is_multiple_of(2) {
                out.clear();
                c.drain_into(&mut out);
                for &v in &out {
                    assert_eq!(v, expected);
                    expected += 1;
                }
            } else if let Some(v) = c.try_pop() {
                assert_eq!(v, expected);
                expected += 1;
            }
            if expected > before {
                progress = Instant::now();
                if expected / 4_096 != before / 4_096 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            } else {
                assert!(
                    progress.elapsed() < WATCHDOG,
                    "no progress for {WATCHDOG:?} at item {expected}: lost wakeup"
                );
                std::hint::spin_loop();
            }
        }
        producer.join().expect("producer thread");
        assert!(c.parks() > 0, "the producer never parked");
    }

    #[test]
    fn a_blocked_producer_sleeps_instead_of_spinning() {
        let (mut p, mut c) = spsc(2);
        p.push(0);
        p.push(1);
        let producer = std::thread::spawn(move || p.push(2));
        // An idle consumer: the producer waits 100 ms on a full ring. A
        // sleeping producer parks once (a spurious wakeup or two aside);
        // a spinning one never parks at all.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let parks = c.parks();
        assert!((1..=3).contains(&parks), "{parks} parks in 100 ms");
        assert_eq!(c.try_pop(), Some(0));
        producer.join().expect("producer thread");
        let mut out = Vec::new();
        c.drain_into(&mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_its_elements() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut p, _c) = spsc(8);
            for _ in 0..5 {
                p.try_push(Counted).unwrap();
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }
}
