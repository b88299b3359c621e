//! The workspace's thread plumbing: a process-lifetime snapshot of the
//! machine's available parallelism, and the one self-scheduling fan-out
//! every parallel level in this crate runs on.
//!
//! `std::thread::available_parallelism` re-reads cgroup quota files on
//! every call on Linux — ≈ 12 µs per call, which dominated the per-owner
//! rebalance cost when the fleet asked once per `ReplicaManager` per
//! period. Every hot path in the workspace is thread-count-*invariant* by
//! construction (the equivalence suites pin this), so the count only
//! steers wall-clock time and a one-shot snapshot is always safe.

use std::sync::{Mutex, OnceLock};

/// Cached `std::thread::available_parallelism()`, defaulting to 1 when the
/// query fails. First call pays the OS lookup; the rest are a load.
pub fn available_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs `work` on every item on `threads` workers, the caller's thread
/// being one of them, and returns the outputs in item order.
///
/// Workers self-schedule: each takes the next item from one shared queue
/// as soon as it finishes the last, so a run of costly items (a fleet's
/// Zipf head holds the lowest owner ids) spreads over every worker
/// instead of landing on one contiguous chunk. Each item writes only its
/// own output slot, so the result is the same under any schedule and at
/// any thread count. A worker's panic resumes on the caller with its
/// original payload.
pub(crate) fn fan_out<I, O, F>(threads: usize, items: I, work: F) -> Vec<O>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    O: Send,
    F: Fn(I::Item) -> O + Sync,
{
    let items = items.into_iter();
    let mut slots: Vec<Option<O>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let workers = threads.min(slots.len()).max(1);
    let queue = Mutex::new(items.zip(slots.iter_mut()));
    let worker = || loop {
        // A statement of its own, so the lock is released before `work`.
        let next = queue.lock().expect("no panic holds the queue").next();
        let Some((item, slot)) = next else { return };
        *slot = Some(work(item));
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        worker();
        for helper in helpers {
            helper
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        }
    });
    let outputs = slots.into_iter().map(|slot| slot.expect("every item ran"));
    outputs.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn snapshot_is_positive_and_stable() {
        let first = available_parallelism();
        assert!(first >= 1);
        assert_eq!(first, available_parallelism());
    }

    /// Spins until `counter` reaches `target`; false after a 10 s deadline.
    fn wait_for(counter: &AtomicUsize, target: usize) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < target && Instant::now() < deadline {
            std::thread::yield_now();
        }
        counter.load(Ordering::SeqCst) >= target
    }

    #[test]
    fn an_idle_worker_takes_the_rest_while_one_item_blocks() {
        // Item 0 holds its worker until every other item has run, which
        // only the other worker can do: a contiguous split would queue
        // items 1–3 behind item 0 on its worker and time out.
        let done = AtomicUsize::new(0);
        let waited = fan_out(2, 0..8usize, |item| {
            let ok = item != 0 || wait_for(&done, 7);
            done.fetch_add(1, Ordering::SeqCst);
            ok
        });
        assert!(waited[0], "item 0 waited 10 s for the other seven items");
    }

    #[test]
    fn every_item_runs_once_and_outputs_keep_item_order() {
        for threads in [1, 2, 3, 8, 100] {
            let runs: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            let out = fan_out(threads, 0..50usize, |item| {
                runs[item].fetch_add(1, Ordering::SeqCst);
                item * item
            });
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        }
        assert!(fan_out(4, 0..0u8, |i| i).is_empty());
    }

    #[test]
    fn a_spawned_workers_panic_payload_reaches_the_caller() {
        let caller = std::thread::current().id();
        let started = AtomicUsize::new(0);
        let got = std::panic::catch_unwind(|| {
            fan_out(2, 0..4usize, |item| {
                started.fetch_add(1, Ordering::SeqCst);
                // Item 0 waits until the other worker has taken an item.
                if item == 0 {
                    assert!(wait_for(&started, 2));
                }
                if std::thread::current().id() != caller {
                    std::panic::panic_any(format!("worker item {item}"));
                }
            })
        });
        let payload = got.expect_err("the spawned worker panicked");
        let message = payload.downcast_ref::<String>().expect("a String payload");
        assert!(message.starts_with("worker item "), "{message}");
    }
}
