//! The persistent worker pool behind every fan-out in this crate: lazily
//! spawned OS threads that park on a private job channel between calls and
//! are reused across calls, instead of being spawned and joined per call.
//!
//! # Lifecycle
//!
//! The pool starts empty. A fan-out checks out up to `n` idle workers
//! (spawning the shortfall, capped at `MAX_POOL_THREADS` per process) and
//! sends each one a job; when a worker finishes its job it checks itself
//! back into the idle list and parks on its channel again. Workers are
//! never joined — a parked worker costs one blocked OS thread and nothing
//! else, and parked threads do not keep the process alive. Every pool
//! thread is permanently marked as a pool worker, so any nested fan-out
//! from a job runs in index order on that worker (see the crate docs).
//!
//! # Two submission shapes
//!
//! * [`scope_with`] — the **blocking barrier** primitive: the caller
//!   participates in the work and does not return until every helper has
//!   finished. Because the call blocks, the work closure may borrow from
//!   the caller's stack (the classic scoped-thread contract, here checked
//!   by one audited `unsafe` lifetime erasure — see the safety comment).
//! * [`spawn_pooled`] — a **detached** job: it must own its data
//!   (`'static`), runs when a worker picks it up, and nothing waits for
//!   it. The fleet layer's completion-order streams ride on this; their
//!   handle types own their instances precisely because nothing here can
//!   promise to outwait a borrow (a leaked handle never joins).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::IN_WORKER;

/// A boxed unit of work handed to one parked worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A stashed panic payload from a helper, re-raised on the caller.
type PanicSlot = Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>;

/// One checked-out worker: the sending half of its private job channel.
/// Dropping a ticket after sending is fine — the worker holds its own
/// clone of the sender and re-enlists itself when the job completes.
struct Ticket(Sender<Job>);

/// Hard cap on pool threads per process — a sanity backstop far above any
/// real fan-out (thread counts come from `available_parallelism` or an
/// explicit override), not a tuning knob. Checkout shortfalls beyond it
/// degrade gracefully: barriers run the work on fewer helpers (or in
/// order on the caller when none is granted), detached jobs fall back to
/// a one-shot thread.
const MAX_POOL_THREADS: usize = 256;

struct Pool {
    /// Parked workers available for checkout (LIFO: the most recently
    /// parked worker is the most likely to still be cache- and OS-warm).
    idle: Mutex<Vec<Ticket>>,
    /// Total pool threads ever spawned in this process.
    spawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        idle: Mutex::new(Vec::new()),
        spawned: AtomicUsize::new(0),
    })
}

/// Number of pool threads spawned so far in this process — a diagnostic
/// for tests and benches proving reuse (repeated fan-outs must not grow
/// this past the fan-out width).
pub fn pool_threads() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

fn lock_idle() -> std::sync::MutexGuard<'static, Vec<Ticket>> {
    pool().idle.lock().unwrap_or_else(|e| e.into_inner())
}

/// The body of every pool thread: park on the channel, run one job, check
/// back in, park again. Exits (and ends the thread) only if its own sender
/// clone is gone, which never happens — the worker keeps one forever.
fn worker_main(rx: Receiver<Job>, self_sender: Sender<Job>) {
    IN_WORKER.with(|w| w.set(true));
    while let Ok(job) = rx.recv() {
        // Submitters wrap their jobs in `catch_unwind` and route payloads
        // to the caller; this outer catch only keeps the worker alive if
        // a payload ever slips through a submitter's wrapper.
        let _ = catch_unwind(AssertUnwindSafe(job));
        lock_idle().push(Ticket(self_sender.clone()));
    }
}

/// Checks out up to `want` workers: idle ones first, then freshly spawned
/// ones up to [`MAX_POOL_THREADS`]. May return fewer than `want` (even
/// zero); callers must treat the returned length as the real helper count.
fn checkout(want: usize) -> Vec<Ticket> {
    let mut out = Vec::with_capacity(want);
    if want == 0 {
        return out;
    }
    {
        let mut idle = lock_idle();
        let take = want.min(idle.len());
        let keep = idle.len() - take;
        out.extend(idle.drain(keep..));
    }
    while out.len() < want {
        let reserved = pool()
            .spawned
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < MAX_POOL_THREADS).then_some(n + 1)
            });
        if reserved.is_err() {
            break;
        }
        let (tx, rx) = channel::<Job>();
        let self_sender = tx.clone();
        let spawned = std::thread::Builder::new()
            .name("astdme-pool".into())
            .spawn(move || worker_main(rx, self_sender));
        match spawned {
            Ok(_) => out.push(Ticket(tx)),
            Err(_) => {
                pool().spawned.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        }
    }
    out
}

/// A countdown latch: the caller blocks until every helper has counted
/// down. This is the object that makes borrowed-data submission sound.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut n = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *n -= 1;
        if *n == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut n = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = self.all_done.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs `f` with the current thread marked as a pool worker, restoring
/// the previous mark afterwards (including on unwind) — the caller-side
/// half of the nested-fanout guard.
fn run_as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// The blocking barrier primitive: runs `work(1..=running)` on up to
/// `helpers` pool workers while the caller runs `main(running)` on its own
/// thread (marked as a worker for the duration, so nested fan-outs inside
/// `main` run in index order), then blocks until every helper has
/// finished before returning `main`'s result.
///
/// `running` is the number of helpers actually handed a job, numbered
/// `1..=running` — it can be less than `helpers` (down to zero) if the
/// pool is saturated, so a `main` that *consumes* helper output must fall
/// back to producing inline when it receives zero.
///
/// Because this call does not return (or unwind) until every helper is
/// done, `work` may borrow data from the caller's stack even though pool
/// threads are `'static` — that is the entire point of the primitive.
///
/// # Panics
///
/// A panic in any helper is stashed and re-raised on the caller (original
/// payload, via [`std::panic::resume_unwind`]) after all helpers finish;
/// a panic in `main` likewise waits for the helpers before unwinding.
/// Pool workers themselves survive panicking jobs.
#[allow(unsafe_code)]
pub fn scope_with<R>(
    helpers: usize,
    work: &(dyn Fn(usize) + Sync),
    main: impl FnOnce(usize) -> R,
) -> R {
    let tickets = checkout(helpers);
    if tickets.is_empty() {
        return run_as_worker(|| main(0));
    }
    let latch = Arc::new(Latch::new(tickets.len()));
    let panic_slot: PanicSlot = Arc::new(Mutex::new(None));
    // SAFETY: `work` is only erased to `'static` so it can cross into the
    // pool threads' job boxes. Every job that captures it counts down the
    // latch as its final action, and this function — on both the return
    // and the unwind path (`main` runs under `catch_unwind`) — waits for
    // the latch before the borrow of `work` ends. No helper touches
    // `work` after its countdown, so the reference never outlives the
    // data it borrows.
    let work_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work) };
    let mut running = 0usize;
    for ticket in tickets {
        let slot = running + 1;
        let job_latch = Arc::clone(&latch);
        let panic_slot = Arc::clone(&panic_slot);
        let job: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| work_static(slot)));
            if let Err(payload) = result {
                let mut slot = panic_slot.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            job_latch.count_down();
        });
        if ticket.0.send(job).is_ok() {
            running += 1;
        } else {
            // The worker's thread is gone (cannot happen while it holds
            // its own sender, but stay conservative): take over its latch
            // share so the barrier below cannot hang, and hand its slot
            // number to the next helper so `1..=running` stays exact.
            latch.count_down();
        }
    }
    let main_result = catch_unwind(AssertUnwindSafe(|| run_as_worker(|| main(running))));
    latch.wait();
    let helper_panic = panic_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
    match main_result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

/// Submits one detached job to the pool: it runs when a worker picks it
/// up, and nothing waits for it — the job must own everything it touches
/// (`'static`). The worker running it is marked, so nested fan-outs
/// inside the job run in index order.
///
/// If the pool is saturated (`MAX_POOL_THREADS` live workers, all busy)
/// the job falls back to a dedicated one-shot thread, and if even thread
/// spawning fails it runs inline on the caller — it is never dropped.
///
/// A panicking detached job is caught and its payload discarded (there is
/// no caller to re-raise on); submitters that care route failures through
/// their own channels, as the fleet layer's streams do.
pub fn spawn_pooled<F: FnOnce() + Send + 'static>(job: F) {
    let mut tickets = checkout(1);
    match tickets.pop() {
        Some(ticket) => {
            if let Err(failed) = ticket.0.send(Box::new(job)) {
                fallback_thread(failed.0);
            }
        }
        None => fallback_thread(Box::new(job)),
    }
}

/// Runs a job the pool could not take: on a fresh one-shot thread when
/// possible, inline (still marked as a worker) as the last resort. The
/// shared slot exists because a failed `spawn` does not hand the closure
/// back — the job must survive the attempt either way.
fn fallback_thread(job: Job) {
    let shared: Arc<Mutex<Option<Job>>> = Arc::new(Mutex::new(Some(job)));
    let for_thread = Arc::clone(&shared);
    let spawned = std::thread::Builder::new()
        .name("astdme-pool-overflow".into())
        .spawn(move || {
            IN_WORKER.with(|w| w.set(true));
            let taken = for_thread.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(job) = taken {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
        });
    if spawned.is_err() {
        let taken = shared.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(job) = taken {
            run_as_worker(|| {
                let _ = catch_unwind(AssertUnwindSafe(job));
            });
        }
    }
}
