//! A per-thread allocation counter the pipeline samples per stage.
//!
//! The library crates forbid `unsafe`, so the `GlobalAlloc` shim itself
//! lives in whichever *binary* wants allocation accounting (the scaling
//! bench, the alloc-budget test harness). That shim calls [`on_alloc`]
//! once per allocation; the pipeline snapshots [`current`] around each
//! stage and reports the deltas in
//! [`StageStats::allocs`](crate::StageStats). In a binary without an
//! instrumented allocator the counter simply stays at zero and every
//! reported delta is zero — the accounting is free to ignore.
//!
//! The counter is per thread: a delta read on one thread counts that
//! thread's allocations only, so concurrent routes (fleet workers, sibling
//! tests in one harness) never inflate each other's figures. Allocations a
//! stage hands off to pool workers are not part of its delta.

use std::cell::Cell;

thread_local! {
    /// Allocations observed on this thread since it started. `const`
    /// initialized and drop-free, so bumping it from inside a global
    /// allocator never allocates or registers a destructor.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation on the calling thread. Called by an
/// instrumented `GlobalAlloc` in the hosting binary.
#[inline]
pub fn on_alloc() {
    COUNT.with(|c| c.set(c.get() + 1));
}

/// The calling thread's allocation count.
#[inline]
pub fn current() -> u64 {
    COUNT.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_this_thread_only() {
        let before = current();
        on_alloc();
        on_alloc();
        // A pool helper's allocation lands on the helper's counter.
        astdme_par::scope_with(1, &|_| on_alloc(), |_| ());
        assert_eq!(current(), before + 2);
    }
}
