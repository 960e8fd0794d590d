//! Deterministic allocation-budget regression test for the merge hot
//! path: the bottom-up merge loop (incremental planner + engine expansion)
//! must stay at O(1) amortized heap allocations per merge — no per-pair
//! `Scratch`, overlay hash maps, or per-candidate `DelayMap` spills.
//!
//! Allocation *counts* are deterministic for a fixed build where timings
//! are not, so this is the CI-stable form of the `scaling` bench's
//! `allocs_per_merge` section (same counting-allocator technique).

use std::alloc::{GlobalAlloc, Layout, System};

use astdme::instances::{partition, synthetic_instance};
use astdme::{run_bottom_up, DelayModel, EngineConfig, Instance, TopoConfig};

/// Twin of the counting allocator in `crates/bench/src/bin/scaling.rs` —
/// the library crates forbid `unsafe_code`, so each binary hosts its own
/// copy; keep them counting the same events. Counts go to the allocating
/// thread's [`astdme_core::allocmeter`] counter, so the tests in this
/// binary, which the harness runs concurrently, never see each other's
/// allocations.
struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        astdme_core::allocmeter::on_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        astdme_core::allocmeter::on_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The recorded baseline is ~10-12 allocs/merge (see `allocs_per_merge`
/// in `BENCH_scaling.json`); the budget leaves headroom for legitimate
/// drift while still catching a reintroduced per-pair allocation (each
/// costs tens per merge: merges expand several pairs, and pair-cost
/// estimation runs per candidate pair).
const BUDGET_PER_MERGE: f64 = 64.0;

fn instance(n: usize) -> Instance {
    let p = synthetic_instance(n, 2006, &format!("a{n}"));
    let inst = partition::intermingled(&p, 4, 2006 ^ 0xBEEF).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(10e-12)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

/// With an instrumented allocator installed, the pipeline's per-stage
/// allocation deltas ([`astdme::StageStats::allocs`]) must be populated —
/// the merge stage dominates and can never be zero on a real instance.
#[test]
fn pipeline_surfaces_per_stage_alloc_counts() {
    use astdme::ClockRouter;
    let inst = instance(60);
    let out = astdme::AstDme::new().route_traced(&inst).expect("routes");
    assert!(
        out.stats.merge.allocs > 0,
        "merge stage must observe allocations: {:?}",
        out.stats
    );
    assert!(out.stats.total_allocs() >= out.stats.merge.allocs);
    assert!(!out.stats.cache_hit, "no cache attached");
}

#[test]
fn merge_loop_allocations_stay_in_budget() {
    // Large enough to leave the planner's brute-force regime and trigger
    // multi-merge refresh sweeps; small enough for a debug-build test.
    let n = 500;
    let inst = instance(n);
    let model = DelayModel::elmore(*inst.rc());
    let engine = EngineConfig::fast();
    let count = |topo: &TopoConfig| {
        let before = astdme_core::allocmeter::current();
        let (_forest, _root) = run_bottom_up(&inst, model, engine, topo);
        astdme_core::allocmeter::current() - before
    };
    for (name, topo) in [
        ("greedy", TopoConfig::greedy()),
        ("multi_merge", TopoConfig::default()),
    ] {
        let first = count(&topo);
        let second = count(&topo);
        // The routing itself is deterministic and the counter is this
        // thread's own, so two runs may differ only by one-time lazy
        // initialization on the first — never by a reintroduced per-pair
        // allocation, which costs thousands here.
        assert!(
            first.abs_diff(second) <= 32,
            "{name}: allocation counts diverged beyond harness noise \
             ({first} vs {second})"
        );
        let per_merge = first.min(second) as f64 / (n - 1) as f64;
        assert!(
            per_merge <= BUDGET_PER_MERGE,
            "{name}: {per_merge:.2} allocs/merge exceeds the {BUDGET_PER_MERGE} budget \
             ({} allocations over {} merges)",
            first.min(second),
            n - 1
        );
    }
}
