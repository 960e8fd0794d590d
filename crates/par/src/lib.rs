//! The workspace's one thread layer: a **persistent worker pool** and one
//! instance-level claim loop on top of it.
//!
//! AST-DME's bottom-up merge is sequential; parallelism pays at the
//! instance level — fleet batches, streams and robustness sweeps. The
//! container image has no crates.io access, so instead of `rayon` this
//! crate provides the three entry points those layers need:
//!
//! * [`claim_each`] — the caller and pool helpers claim indices from one
//!   shared cursor; helpers hand results back to the caller in completion
//!   order, through a channel bounded at the caller's in-flight limit.
//!   The fleet's batch barrier and the robustness sweep both run on it.
//! * [`spawn_pooled`] — a detached job that owns its data; the fleet's
//!   completion-order streams ride on it.
//! * [`scope_with`] — the blocking barrier [`claim_each`] is built on.
//!
//! # The pool
//!
//! Worker threads are spawned lazily on first use, park on a private job
//! channel between calls, and are **reused across calls** — a fan-out is
//! a submission to the pool, not a spawn/join cycle, so the per-call cost
//! is a channel send and a wakeup rather than thread creation. Parked
//! workers never keep the process alive. See [`pool_threads`] for the
//! reuse diagnostic and the `pool` module docs for the lifecycle.
//!
//! # Scheduling: one claim per item
//!
//! Workers do **not** get fixed contiguous chunks. The caller and its
//! helpers share one atomic next-index cursor and claim one index at a
//! time until it runs dry. A worker that lands on cheap items comes back
//! for more while a worker stuck on an expensive item keeps crunching — so skewed workloads (one
//! huge instance among many small ones) do not leave threads idle, which
//! is exactly the shape of a routing portfolio. Every result carries its
//! index, so callers that write it to its input slot (or re-buffer into
//! index order) produce output identical at every thread count: claiming
//! changes scheduling, never output.
//!
//! # Thread counts
//!
//! The fan-out width is, in priority order: the process-global
//! [`set_thread_override`] count when set, else the `ASTDME_THREADS`
//! environment variable (read once per process) when set and ≥ 1, else
//! `available_parallelism`. [`effective_threads`] reports the resolved
//! value.
//!
//! # Nested fan-out
//!
//! Fan-outs never nest: pool threads are permanently marked, barrier
//! callers are marked for the duration of the call, and any
//! [`claim_each`] made *from inside a worker* runs in index order on that
//! worker. Results are unchanged either way — the fallback is
//! byte-for-byte the one-thread schedule — so the guard only prevents
//! oversubscription, never changes output.
//!
//! # Panics
//!
//! If the claimed closure panics on a helper, the panic **payload** is
//! re-raised on the caller via [`std::panic::resume_unwind`] — not
//! swallowed into a generic join-failure message — so callers that isolate
//! failures (the fleet layer catches per-instance panics) and test
//! harnesses both see the original message. Pool workers survive
//! panicking jobs and return to the idle list.

// The one `unsafe` block in the workspace lives in `pool::scope_with`
// (lifetime erasure made sound by a completion latch); everything else
// stays checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{pool_threads, scope_with, spawn_pooled};

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Whether the current thread is a pool worker (or a barrier caller
    /// for the duration of its call). Nested fan-outs run in index order
    /// (see the module docs).
    pub(crate) static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside a pool worker — i.e. a further
/// [`claim_each`] call from here would run in index order on this thread.
pub fn in_parallel_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Process-global thread-count override (0 = none / auto).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent fan-out to use exactly `n` threads instead of
/// the automatic count (`None` restores auto — the `ASTDME_THREADS`
/// environment variable if set, else `available_parallelism`). `Some(1)`
/// runs the in-order fallback on the caller.
///
/// Results are thread-count invariant by construction (every result
/// carries its index), so this knob only changes *scheduling*: the
/// determinism tests sweep it to prove exactly that, and the scaling
/// bench pins it for its fleet and pool measurements. Process-global;
/// concurrent tests that flip it should serialize on a lock and restore
/// the previous value with [`override_guard`] so a failing test cannot
/// poison later ones.
pub fn set_thread_override(n: Option<NonZeroUsize>) {
    THREAD_OVERRIDE.store(n.map_or(0, NonZeroUsize::get), Ordering::SeqCst);
}

/// The active thread-count override, if any.
pub fn thread_override() -> Option<NonZeroUsize> {
    NonZeroUsize::new(THREAD_OVERRIDE.load(Ordering::SeqCst))
}

/// RAII handle restoring the previous thread-count override on drop; see
/// [`override_guard`].
#[must_use = "dropping the guard immediately restores the previous override"]
#[derive(Debug)]
pub struct ThreadOverrideGuard {
    prev: Option<NonZeroUsize>,
}

/// Sets the thread-count override to `n` and returns a guard that restores
/// the *previous* value when dropped — including during a panic unwind, so
/// a failing test or bench cannot leave its override in place to poison
/// whatever runs next in the same process.
///
/// Tests that sweep several counts can keep calling
/// [`set_thread_override`] inside the guard's scope; the guard always
/// restores the value it captured at construction.
pub fn override_guard(n: Option<NonZeroUsize>) -> ThreadOverrideGuard {
    let prev = thread_override();
    set_thread_override(n);
    ThreadOverrideGuard { prev }
}

impl Drop for ThreadOverrideGuard {
    fn drop(&mut self) {
        set_thread_override(self.prev);
    }
}

/// The automatic thread count, read once per process: the
/// `ASTDME_THREADS` environment variable when set to an integer ≥ 1
/// (the CI knob that makes fan-out real on single-core runners), else
/// `available_parallelism`. Cached because the std call is not cheap on
/// Linux (it re-reads cgroup quota files every time) and every fleet
/// batch, stream and sweep asks for it. An explicit
/// [`set_thread_override`] wins over both sources.
fn auto_threads() -> usize {
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Some(n) = std::env::var("ASTDME_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
        {
            return n;
        }
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    })
}

/// The thread count a fan-out would use right now: the
/// [`set_thread_override`] value when set, else the automatic count (see
/// [`auto_threads`'s sources](set_thread_override)). The fleet layer
/// sizes its streaming worker sets from this.
pub fn effective_threads() -> usize {
    thread_override().map_or_else(auto_threads, NonZeroUsize::get)
}

/// Per-worker scheduling statistics of one [`claim_each`] call: the raw
/// material for load-balance and latency measurements (the scaling
/// bench's skewed fleet portfolio records [`StealStats::balance`], and
/// its `latency` section reads the queue-wait and idle columns).
///
/// All four vectors are parallel: entry *j* describes worker *j* of the
/// call — the caller or one pool helper — in the order they finished
/// (which worker is which varies run to run, the multiset of entries is
/// what's meaningful). The in-order fallback has the caller as its single
/// entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StealStats {
    /// Busy wall-clock seconds per worker, from the moment its claim loop
    /// started to the moment the shared cursor ran dry for it.
    pub worker_busy_seconds: Vec<f64>,
    /// Items processed per worker (sums to the input length).
    pub worker_items: Vec<usize>,
    /// Seconds each worker waited between call submission and its claim
    /// loop starting — pool wakeup latency for a helper, zero for the
    /// caller.
    pub worker_queue_wait_seconds: Vec<f64>,
    /// Seconds of each worker's busy window *not* spent executing items:
    /// cursor claims, blocking on the bounded result channel (helpers),
    /// and delivering results (the caller). Zero for the in-order
    /// fallback.
    pub worker_idle_seconds: Vec<f64>,
}

impl StealStats {
    /// Number of workers that participated (1 for the in-order fallback).
    pub fn workers(&self) -> usize {
        self.worker_busy_seconds.len()
    }

    /// Load balance as max/min worker busy-time over the workers that
    /// processed at least one item: 1.0 is perfect, large values mean
    /// some loaded workers sat on far less work than others. Workers that
    /// claimed nothing are excluded — a thread that woke after the
    /// cursor ran dry is wakeup latency, not imbalance, and dividing by
    /// its ~zero busy time would turn the metric into noise. Defined as
    /// 1.0 when fewer than two workers processed items (including the
    /// in-order fallback).
    pub fn balance(&self) -> f64 {
        let busy = || {
            self.worker_busy_seconds
                .iter()
                .zip(&self.worker_items)
                .filter(|&(_, &items)| items > 0)
                .map(|(&secs, _)| secs)
        };
        if busy().count() < 2 {
            return 1.0;
        }
        let max = busy().fold(0.0f64, f64::max);
        let min = busy().fold(f64::INFINITY, f64::min);
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }

    /// The worst queue wait across workers (0.0 with no workers): how
    /// long the slowest-to-wake helper sat between submission and its
    /// first cursor claim.
    pub fn max_queue_wait_seconds(&self) -> f64 {
        self.worker_queue_wait_seconds
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// Total non-item seconds inside workers' busy windows, summed across
    /// workers — the scheduling overhead of the call.
    pub fn total_idle_seconds(&self) -> f64 {
        self.worker_idle_seconds.iter().sum()
    }
}

/// The thread count a call over `len` items fans out to (the caller plus
/// pool helpers); 1 means the in-order loop on the caller (fewer than 2
/// items, one thread, or a nested call).
fn fanout_threads(len: usize) -> usize {
    let threads = effective_threads();
    if len < 2 || threads < 2 || in_parallel_worker() {
        1
    } else {
        threads.min(len)
    }
}

/// One participant's claim loop over the shared cursor: claims indices
/// until the cursor runs dry or `hand_off` refuses a result, and returns
/// its row of [`StealStats`] as `(busy, items, idle)`.
fn claim_loop<T>(
    cursor: &AtomicUsize,
    len: usize,
    work: &(dyn Fn(usize) -> T + Sync),
    mut hand_off: impl FnMut(usize, T) -> bool,
) -> (f64, usize, f64) {
    let t0 = Instant::now();
    let mut items = 0usize;
    let mut item_seconds = 0.0f64;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            break;
        }
        let tb = Instant::now();
        let result = work(i);
        item_seconds += tb.elapsed().as_secs_f64();
        items += 1;
        if !hand_off(i, result) {
            break;
        }
    }
    let busy = t0.elapsed().as_secs_f64();
    (busy, items, (busy - item_seconds).max(0.0))
}

/// Runs `work(i)` for every `i` in `0..len` and passes each result to
/// `deliver(i, result)` on the calling thread, in completion order.
///
/// The caller and up to [`effective_threads`] minus one pool helpers
/// claim indices one at a time from a shared cursor. Helpers send
/// `(index, result)` pairs over a channel bounded at `in_flight` (at
/// least 1), so a helper blocks rather than let more than `in_flight`
/// undelivered results pile up; the caller delivers its own results
/// directly and drains the channel between its items, then until every
/// helper has finished. Callers that need input order write each result
/// to its index slot or re-buffer; the result set is identical at every
/// thread count.
///
/// With fewer than 2 items, a thread count of 1, or a call from inside a
/// pool worker, the call is an in-order loop on the caller; when the pool
/// grants no helpers, the caller claims every index itself, which is the
/// same order.
///
/// Returns the per-worker [`StealStats`].
///
/// # Panics
///
/// A panic in `work` on a helper ends that helper (dropping its sender,
/// so the drain cannot hang on it); the caller and the other helpers
/// finish the cursor and the payload is re-raised on the caller after the
/// join. A panic in `work` or `deliver` on the caller drops the receiver,
/// which stops every helper at its next send, and is re-raised likewise.
pub fn claim_each<T: Send>(
    len: usize,
    in_flight: usize,
    work: &(dyn Fn(usize) -> T + Sync),
    mut deliver: impl FnMut(usize, T),
) -> StealStats {
    let threads = fanout_threads(len);
    if threads < 2 {
        let t0 = Instant::now();
        for i in 0..len {
            deliver(i, work(i));
        }
        return StealStats {
            worker_busy_seconds: vec![t0.elapsed().as_secs_f64()],
            worker_items: vec![len],
            worker_queue_wait_seconds: vec![0.0],
            worker_idle_seconds: vec![0.0],
        };
    }
    let helpers = threads - 1;
    let (tx, rx) = sync_channel::<(usize, T)>(in_flight.max(1));
    // One sender per requested helper, taken by the helper that runs in
    // that slot; the caller keeps none, so the final drain ends exactly
    // when the last helper is done (or has unwound).
    let senders: Vec<_> = (0..helpers).map(|_| Mutex::new(Some(tx.clone()))).collect();
    drop(tx);
    let take_sender = |slot: usize| {
        senders[slot]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    };
    let cursor = &AtomicUsize::new(0);
    let submitted = Instant::now();
    let stats = Mutex::new(StealStats::default());
    let record = |queue_wait: f64, (busy, items, idle): (f64, usize, f64)| {
        let mut stats = stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.worker_busy_seconds.push(busy);
        stats.worker_items.push(items);
        stats.worker_queue_wait_seconds.push(queue_wait);
        stats.worker_idle_seconds.push(idle);
    };
    let helper = |slot: usize| {
        let Some(tx) = take_sender(slot - 1) else {
            return;
        };
        let queue_wait = submitted.elapsed().as_secs_f64();
        let row = claim_loop(cursor, len, work, |i, result| tx.send((i, result)).is_ok());
        drop(tx);
        record(queue_wait, row);
    };
    scope_with(helpers, &helper, move |running| {
        // Moved in: if the caller panics, the receiver drops with the
        // unwind and blocked helpers fail their send instead of hanging.
        let rx = rx;
        for slot in running..helpers {
            drop(take_sender(slot));
        }
        let row = claim_loop(cursor, len, work, |i, result| {
            deliver(i, result);
            for (j, early) in rx.try_iter() {
                deliver(j, early);
            }
            true
        });
        record(0.0, row);
        for (i, result) in rx.iter() {
            deliver(i, result);
        }
    });
    stats.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::MutexGuard;

    /// Tests touching the process-global override (or asserting helper
    /// counts, which the override perturbs) serialize on this lock.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    /// Lock + RAII override for a test: serializes on [`OVERRIDE_LOCK`]
    /// and restores the previous override when dropped — even when the
    /// test body panics mid-sweep, so one failing test cannot poison the
    /// override for the rest of the binary.
    fn pinned(n: Option<NonZeroUsize>) -> (MutexGuard<'static, ()>, ThreadOverrideGuard) {
        let lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        (lock, override_guard(n))
    }

    /// `claim_each` collected into index order.
    fn collect<T: Send>(
        len: usize,
        in_flight: usize,
        work: &(dyn Fn(usize) -> T + Sync),
    ) -> (Vec<T>, StealStats) {
        let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
        let stats = claim_each(len, in_flight, work, |i, r| {
            assert!(slots[i].replace(r).is_none(), "index {i} delivered twice");
        });
        let out = slots
            .into_iter()
            .map(|s| s.expect("every index delivered"))
            .collect();
        (out, stats)
    }

    #[test]
    fn thread_override_is_respected_and_results_invariant() {
        let _pin = pinned(None);
        let expected: Vec<u64> = (0..500).map(|x| x * 7).collect();
        for n in [1usize, 2, 3, 8] {
            set_thread_override(NonZeroUsize::new(n));
            assert_eq!(thread_override(), NonZeroUsize::new(n));
            assert_eq!(effective_threads(), n);
            assert_eq!(
                collect(500, 4, &|i| i as u64 * 7).0,
                expected,
                "threads = {n}"
            );
        }
        set_thread_override(None);
        assert_eq!(thread_override(), None);
        assert_eq!(collect(500, 4, &|i| i as u64 * 7).0, expected);
    }

    #[test]
    fn override_guard_restores_previous_value() {
        let _pin = pinned(NonZeroUsize::new(3));
        {
            let _inner = override_guard(NonZeroUsize::new(7));
            assert_eq!(thread_override(), NonZeroUsize::new(7));
            // Sweeping inside the guard is fine; drop restores 3, not 5.
            set_thread_override(NonZeroUsize::new(5));
        }
        assert_eq!(thread_override(), NonZeroUsize::new(3));
    }

    #[test]
    fn skewed_costs_stay_bit_identical() {
        // One very expensive item at the front, many cheap ones behind it:
        // indexed delivery must reassemble input order exactly.
        let _pin = pinned(NonZeroUsize::new(4));
        let cost = |i: usize| if i == 0 { 200_000u64 } else { 50 };
        let crunch = |x: u64| -> u64 { (0..x).fold(7u64, |a, b| a.wrapping_mul(31) ^ b) };
        let serial: Vec<u64> = (0..97).map(|i| crunch(cost(i))).collect();
        assert_eq!(collect(97, 97, &|i| crunch(cost(i))).0, serial);
    }

    #[test]
    fn stats_cover_every_item_and_worker() {
        let _pin = pinned(NonZeroUsize::new(4));
        let (out, stats) = collect(300, 300, &|i| i as u64 + 1);
        assert_eq!(out, (1..=300).collect::<Vec<u64>>());
        assert_eq!(stats.workers(), 4);
        assert_eq!(stats.worker_items.iter().sum::<usize>(), 300);
        assert!(stats.balance() >= 1.0);
        // The latency columns are parallel to the busy column and
        // non-negative.
        assert_eq!(stats.worker_queue_wait_seconds.len(), 4);
        assert_eq!(stats.worker_idle_seconds.len(), 4);
        assert!(stats.max_queue_wait_seconds() >= 0.0);
        assert!(stats.total_idle_seconds() >= 0.0);
    }

    #[test]
    fn balance_ignores_workers_that_claimed_nothing() {
        // A helper that woke after the cursor ran dry (0 items, ~zero
        // busy time) is wakeup latency, not imbalance.
        let stats = StealStats {
            worker_busy_seconds: vec![2.0, 1.0, 1e-7],
            worker_items: vec![5, 3, 0],
            ..StealStats::default()
        };
        assert_eq!(stats.balance(), 2.0);
        let one_loaded = StealStats {
            worker_busy_seconds: vec![2.0, 1e-7],
            worker_items: vec![8, 0],
            ..StealStats::default()
        };
        assert_eq!(one_loaded.balance(), 1.0);
    }

    #[test]
    fn in_order_fallback_reports_one_worker() {
        let _pin = pinned(NonZeroUsize::new(1));
        let mut seen = Vec::new();
        let stats = claim_each(10, 1, &|i| i, |i, r| seen.push((i, r)));
        assert_eq!(seen, (0..10).map(|i| (i, i)).collect::<Vec<_>>());
        assert_eq!(stats.workers(), 1);
        assert_eq!(stats.worker_items, vec![10]);
        assert_eq!(stats.worker_queue_wait_seconds, vec![0.0]);
        assert_eq!(stats.worker_idle_seconds, vec![0.0]);
        assert_eq!(stats.balance(), 1.0);
    }

    #[test]
    fn single_slot_channel_with_slow_consumer_completes() {
        let _pin = pinned(NonZeroUsize::new(4));
        let mut delivered = 0usize;
        let stats = claim_each(40, 1, &|i| i * 2, |i, r| {
            assert_eq!(r, i * 2);
            std::thread::sleep(std::time::Duration::from_millis(1));
            delivered += 1;
        });
        assert_eq!(delivered, 40);
        assert_eq!(stats.worker_items.iter().sum::<usize>(), 40);
    }

    #[test]
    fn helper_panic_payload_reaches_the_caller() {
        let _pin = pinned(NonZeroUsize::new(4));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_each(
                64,
                2,
                &|i| {
                    if i == 13 {
                        panic!("boom at {i}");
                    }
                    i
                },
                |_, _| {},
            )
        }))
        .expect_err("the helper panic must propagate");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("format-style panics carry a String payload");
        assert_eq!(msg, "boom at 13");
    }

    #[test]
    fn deliver_panic_stops_blocked_helpers() {
        let _pin = pinned(NonZeroUsize::new(4));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_each(256, 1, &|i| i, |i, _| {
                assert!(i % 64 != 5, "deliver failed")
            })
        }))
        .expect_err("the deliver panic must propagate");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .expect("literal panics carry a &str payload");
        assert_eq!(msg, "deliver failed");
    }

    #[test]
    fn pool_survives_panicking_jobs_and_is_reused() {
        let _pin = pinned(NonZeroUsize::new(4));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            collect(64, 64, &|i| {
                assert_ne!(i, 7, "injected");
                i
            })
        }));
        // The panicking call's helpers went back to the idle list; the
        // next call runs normally on the same pool.
        assert_eq!(collect(64, 64, &|i| i + 1).0, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_calls_reuse_pool_threads() {
        let _pin = pinned(NonZeroUsize::new(3));
        // Warm the pool, then measure: many further calls at the same
        // width must not spawn additional threads.
        let _ = collect(256, 256, &|i| i + 1);
        let warmed = pool_threads();
        for _ in 0..32 {
            let _ = collect(256, 256, &|i| i * 2);
        }
        assert_eq!(
            pool_threads(),
            warmed,
            "steady-state calls must reuse parked workers, not spawn"
        );
    }

    #[test]
    fn spawn_pooled_runs_detached_jobs() {
        let (tx, rx) = mpsc::channel::<u64>();
        for i in 0..8u64 {
            let tx = tx.clone();
            spawn_pooled(move || {
                // Detached jobs run on marked workers: nested fan-outs
                // inside them run in index order.
                assert!(in_parallel_worker());
                tx.send(i * 10).unwrap();
            });
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn scope_with_reports_helper_count_and_joins() {
        let _pin = pinned(None);
        let hits = AtomicUsize::new(0);
        let work = |_slot: usize| {
            hits.fetch_add(1, Ordering::SeqCst);
        };
        let running = scope_with(2, &work, |running| {
            // The caller is marked as a worker for the duration of main.
            assert!(in_parallel_worker());
            running
        });
        assert!(running <= 2);
        // Every granted helper ran its work closure by the time the
        // barrier returned.
        assert_eq!(hits.load(Ordering::SeqCst), running);
        assert!(!in_parallel_worker(), "caller mark must be restored");
    }

    #[test]
    fn tiny_and_empty_inputs_run_in_order() {
        let _pin = pinned(NonZeroUsize::new(4));
        let mut seen = Vec::new();
        let stats = claim_each(1, 1, &|i| i + 1, |i, r| seen.push((i, r)));
        assert_eq!((seen, stats.workers()), (vec![(0, 1)], 1));
        let stats = claim_each(0, 1, &|i| i, |_, _| unreachable!("no items"));
        assert_eq!(stats.worker_items, vec![0]);
    }

    #[test]
    fn nested_call_runs_in_index_order_on_the_worker() {
        let _pin = pinned(NonZeroUsize::new(4));
        assert!(!in_parallel_worker(), "main thread is not a worker");
        // Each outer item runs an inner claim loop; the guard must keep
        // the inner one on the helper itself, in index order.
        let (nested, _) = collect(64, 64, &|x| {
            let mut order = Vec::new();
            let stats = claim_each(5, 1, &|j| x * 10 + j, |j, r| order.push((j, r)));
            (in_parallel_worker(), stats.workers(), order)
        });
        for (x, (flagged, workers, order)) in nested.into_iter().enumerate() {
            assert!(flagged, "outer item {x} should run on a marked worker");
            assert_eq!(
                workers, 1,
                "outer item {x}: the inner call must not fan out"
            );
            assert_eq!(order, (0..5).map(|j| (j, x * 10 + j)).collect::<Vec<_>>());
        }
        assert!(
            !in_parallel_worker(),
            "the call must not leak the worker mark"
        );
    }
}
