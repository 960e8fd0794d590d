//! Content-addressed subtree cache: the hit ≡ recompute invariant,
//! end-to-end.
//!
//! The cache's contract: a cached outcome is a **pure function of the
//! instance and the router's plan** — a hit is bit-identical to the
//! recompute a miss performs, so cache capacity, sharing, eviction order,
//! and thread count can change wall-clock and hit counters, never a tree.
//! These tests pin that at every thread count the determinism suite
//! sweeps (1, 2, 3, 8, auto), under forced evictions (capacity-1 cache),
//! with the cache shared across a skewed batch, and across repeated
//! portfolios; plus a golden hit/miss/insert count for a repeated
//! portfolio at one thread, where lookup order is deterministic. For
//! instances anchored at the origin, translation normalization is the
//! exact identity and cached outcomes additionally coincide with the
//! cache-free path.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    route_batch, route_batch_cached, sweep, AstDme, BatchPlan, BatchPolicy, ClockRouter, Groups,
    Instance, PerturbationSpec, Point, RcParams, RouteOutcome, Sink, StitchPerGroup, SubtreeCache,
    SweepConfig,
};
use proptest::prelude::*;

const BOUND: f64 = 10e-12;

/// The thread override is process-global; tests that set it serialize on
/// this lock and restore the previous value via
/// `astdme_par::override_guard`.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_lock() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn instance(n: usize, k: usize, seed: u64) -> Instance {
    let p = synthetic_instance(n, seed, "cache");
    let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

/// An instance on an exact-integer grid anchored at the origin: integer
/// translations of it are exact in f64, so translated copies share the
/// normalized fingerprint.
fn grid_instance(n: usize, k: usize) -> Instance {
    let sinks: Vec<Sink> = (0..n)
        .map(|i| {
            Sink::new(
                Point::new(700.0 * i as f64, 250.0 * (i % 3) as f64),
                1e-14 + 1e-15 * (i % 4) as f64,
            )
        })
        .collect();
    let assignment: Vec<usize> = (0..n).map(|i| i % k).collect();
    Instance::new(
        sinks,
        Groups::from_assignments(assignment, k)
            .expect("valid")
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
        RcParams::default(),
        Point::new(1400.0, 3000.0),
    )
    .expect("valid")
}

/// Bit-exact structural equality; wall-clock and alloc stats (legitimately
/// run-dependent) are masked out.
fn assert_outcomes_identical(a: &RouteOutcome, b: &RouteOutcome, ctx: &str) {
    assert_eq!(a.tree, b.tree, "{ctx}: trees diverged");
    assert_eq!(a.report, b.report, "{ctx}: audit reports diverged");
    assert_eq!(
        (a.stats.merge.rounds, a.stats.merge.merges),
        (b.stats.merge.rounds, b.stats.merge.merges),
        "{ctx}: merge counters diverged"
    );
    assert_eq!(
        a.stats.repair.repair_iterations, b.stats.repair.repair_iterations,
        "{ctx}: repair counters diverged"
    );
}

/// The recompute reference: each instance routed through the *cached*
/// pipeline with its own fresh cache — a guaranteed miss, i.e. exactly
/// the work a hit claims to reproduce.
fn recompute_reference<R>(instances: &[Instance], router: &R) -> Vec<RouteOutcome>
where
    R: ClockRouter + Sync + ?Sized,
{
    instances
        .iter()
        .map(|inst| {
            let slot =
                route_batch_cached(std::slice::from_ref(inst), router, &SubtreeCache::new(1))
                    .pop()
                    .expect("one instance, one slot");
            let out = slot.expect("routes");
            assert!(!out.stats.cache_hit, "a fresh cache cannot hit");
            out
        })
        .collect()
}

/// A portfolio with repeats: duplicates, exact-integer translated copies,
/// and distinct fillers, deliberately skewed in size.
fn repeat_portfolio() -> Vec<Instance> {
    let a = grid_instance(14, 3);
    let b = instance(44, 4, 11); // the skew: ~3x the rest
    let c = grid_instance(9, 2);
    vec![
        a.clone(),
        b.clone(),
        a.translated(5000.0, -3000.0).expect("finite"),
        c.clone(),
        a,
        c.translated(-1250.0, 8000.0).expect("finite"),
        b,
    ]
}

/// The load-bearing invariant: a cached batch — fresh cache, shared warm
/// cache, or a capacity-1 cache thrashing through evictions — returns
/// outcomes bit-identical to the per-instance recompute at every thread
/// count.
#[test]
fn cached_batches_match_recompute_across_thread_counts() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let instances = repeat_portfolio();
    let routers: Vec<Box<dyn ClockRouter + Sync>> =
        vec![Box::new(AstDme::new()), Box::new(StitchPerGroup::new())];
    for router in &routers {
        astdme_par::set_thread_override(NonZeroUsize::new(1));
        let reference = recompute_reference(&instances, router.as_ref());
        let shared = SubtreeCache::new(256);
        for threads in [1usize, 2, 3, 8] {
            astdme_par::set_thread_override(NonZeroUsize::new(threads));
            // A fresh cache, the shared (increasingly warm) cache, and a
            // capacity-1 cache that evicts on every distinct region.
            for (label, cache) in [
                ("fresh", SubtreeCache::new(256)),
                ("shared", shared.clone()),
                ("evicting", SubtreeCache::new(1)),
            ] {
                let cached = route_batch_cached(&instances, router.as_ref(), &cache);
                for (i, (got, want)) in cached.iter().zip(&reference).enumerate() {
                    let ctx = format!("{} {label} threads={threads} instance {i}", router.name());
                    assert_outcomes_identical(got.as_ref().expect("routes"), want, &ctx);
                }
            }
        }
        // Fully warm + auto threads: every region is resident, every
        // instance must hit, and outcomes still match exactly.
        astdme_par::set_thread_override(None);
        let warm = route_batch_cached(&instances, router.as_ref(), &shared);
        for (i, (got, want)) in warm.iter().zip(&reference).enumerate() {
            let got = got.as_ref().expect("routes");
            assert!(
                got.stats.cache_hit,
                "{} warm instance {i} must hit",
                router.name()
            );
            let ctx = format!("{} warm auto instance {i}", router.name());
            assert_outcomes_identical(got, want, &ctx);
        }
    }
}

/// For instances anchored at the origin, normalization is the exact
/// identity (`a - a = +0.0`), so the cached pipeline routes the very same
/// frame as the cache-free one: cached and uncached outcomes coincide.
#[test]
fn origin_anchored_cached_equals_uncached() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(2));
    let instances = vec![
        grid_instance(13, 3),
        grid_instance(8, 2),
        grid_instance(13, 3),
    ];
    for router in [&AstDme::new() as &(dyn ClockRouter + Sync)] {
        let uncached = route_batch(&instances, router);
        let cache = SubtreeCache::new(32);
        for pass in 0..2 {
            let cached = route_batch_cached(&instances, router, &cache);
            for (i, (got, want)) in cached.iter().zip(&uncached).enumerate() {
                assert_outcomes_identical(
                    got.as_ref().expect("routes"),
                    want.as_ref().expect("routes"),
                    &format!("origin-anchored pass {pass} instance {i}"),
                );
            }
        }
    }
}

/// Golden accounting: at one thread the lookup sequence is deterministic,
/// so the repeated-portfolio hit/miss/insert counts pin exactly. The
/// portfolio holds three distinct regions (the translated copies fold
/// into their originals), so the first pass misses 3 and hits 4; a second
/// pass over the same portfolio hits all 7.
#[test]
fn repeated_portfolio_hit_counts_are_golden() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let instances = repeat_portfolio();
    let cache = SubtreeCache::new(64);
    let router = AstDme::new();
    let first = route_batch_cached(&instances, &router, &cache);
    assert!(first.iter().all(|r| r.is_ok()));
    let stats = cache.stats();
    assert_eq!(stats.misses, 3, "three distinct regions: {stats:?}");
    assert_eq!(stats.hits, 4, "duplicates and translations hit: {stats:?}");
    assert_eq!(stats.inserts, 3);
    assert_eq!(stats.evictions, 0);
    let second = route_batch_cached(&instances, &router, &cache);
    assert!(second.iter().all(|r| r.as_ref().unwrap().stats.cache_hit));
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (11, 3));
    assert!((stats.hit_rate() - 11.0 / 14.0).abs() < 1e-12);
    assert_eq!(cache.len(), 3);
}

/// An exact-integer translation of a routed placement must hit the cache
/// (translation normalization folds the copies together) — and the hit's
/// spliced tree must equal the recompute of the translated instance.
#[test]
fn integer_translated_duplicates_hit_and_splice_exactly() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let base = grid_instance(12, 3);
    let moved = base.translated(123_456.0, -77_000.0).expect("finite");
    let router = AstDme::new();
    let want = recompute_reference(std::slice::from_ref(&moved), &router);
    let cache = SubtreeCache::new(8);
    let batch = route_batch_cached(&[base, moved], &router, &cache);
    let spliced = batch[1].as_ref().expect("routes");
    assert!(spliced.stats.cache_hit, "translated copy must hit");
    assert_outcomes_identical(spliced, &want[0], "translated splice");
}

/// A sweep's report is independent of cache state: fresh, carried-warm,
/// and capacity-1 evicting caches all reproduce the same report — under
/// zero noise (every variant identical: one miss, then all hits) and
/// under jitter (mostly misses; equality must hold regardless of hit
/// rate). With an origin-anchored nominal and zero noise the cached
/// report also equals the cache-free one.
#[test]
fn sweep_reports_are_independent_of_cache_state() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(2));
    let nominal = instance(16, 3, 29);
    for spec in [
        PerturbationSpec::new(7),
        PerturbationSpec::new(7)
            .with_position_jitter(120.0)
            .with_load_jitter(0.1),
    ] {
        let config = SweepConfig::new(10).with_chunk(4);
        let cache = SubtreeCache::new(128);
        let fresh = sweep(
            &nominal,
            &spec,
            &config.clone().with_cache(cache.clone()),
            &AstDme::new(),
        )
        .expect("sweeps");
        // Carried warm cache and a thrashing capacity-1 cache: same bits.
        let warm = sweep(
            &nominal,
            &spec,
            &config.clone().with_cache(cache.clone()),
            &AstDme::new(),
        )
        .expect("sweeps");
        let evicting = sweep(
            &nominal,
            &spec,
            &config.clone().with_cache(SubtreeCache::new(1)),
            &AstDme::new(),
        )
        .expect("sweeps");
        assert_eq!(fresh, warm, "carried cache changed a sweep report");
        assert_eq!(fresh, evicting, "evictions changed a sweep report");
        assert_eq!(cache.stats().hits + cache.stats().misses, 20);
    }
    // Origin-anchored nominal, zero noise: cached == uncached, and the
    // hit counts pin exactly at one thread (variant 0 misses, the other
    // five hit).
    astdme_par::set_thread_override(NonZeroUsize::new(1));
    let nominal = grid_instance(11, 3);
    let spec = PerturbationSpec::new(3);
    let uncached = sweep(
        &nominal,
        &spec,
        &SweepConfig::new(6).with_chunk(3),
        &AstDme::new(),
    )
    .expect("sweeps");
    let cache = SubtreeCache::new(16);
    let cached = sweep(
        &nominal,
        &spec,
        &SweepConfig::new(6).with_chunk(3).with_cache(cache.clone()),
        &AstDme::new(),
    )
    .expect("sweeps");
    assert_eq!(uncached, cached, "origin-anchored sweep must coincide");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (5, 1), "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary instances and eviction pressure, a cached route is
    /// bit-identical to the recompute — including when the batch mixes
    /// duplicates so some slots hit and some miss, and across passes
    /// (cold-ish, then warm or still thrashing).
    #[test]
    fn cached_routing_matches_recompute(
        n in 5usize..18,
        k in 1usize..4,
        seed in any::<u64>(),
        capacity in 1usize..4,
    ) {
        let _lock = override_lock();
        let _guard = astdme_par::override_guard(NonZeroUsize::new(2));
        let a = instance(n, k, seed);
        let b = instance(n + 3, k, seed ^ 0xA5A5);
        let batch = vec![a.clone(), b, a];
        let router = AstDme::new();
        let reference = recompute_reference(&batch, &router);
        let cache = SubtreeCache::new(capacity);
        for pass in 0..2 {
            let cached = route_batch_cached(&batch, &router, &cache);
            for (i, (got, want)) in cached.iter().zip(&reference).enumerate() {
                let ctx = format!("pass {pass} instance {i} (capacity {capacity})");
                assert_outcomes_identical(got.as_ref().expect("routes"), want, &ctx);
            }
        }
    }

    /// Integer translations on the exact grid always fold into the same
    /// cache entry, and the spliced result equals the recompute of the
    /// translated instance.
    #[test]
    fn integer_translations_share_one_entry(
        n in 4usize..14,
        k in 1usize..4,
        dx in -50_000i64..50_000,
        dy in -50_000i64..50_000,
    ) {
        let _lock = override_lock();
        let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
        let base = grid_instance(n, k);
        let moved = base.translated(dx as f64, dy as f64).expect("finite");
        let router = AstDme::new();
        let want = recompute_reference(std::slice::from_ref(&moved), &router);
        let cache = SubtreeCache::new(4);
        let batch = route_batch_cached(&[base, moved], &router, &cache);
        prop_assert_eq!(cache.len(), 1, "translations must share one entry");
        let spliced = batch[1].as_ref().expect("routes");
        assert_outcomes_identical(spliced, &want[0], "proptest translated splice");
    }
}

/// `BatchPolicy::with_cache` composes with the hardening policy: injected
/// faults still fail only their own slot, corrupted output is never
/// memoized, and survivors match the clean recompute bit for bit.
#[test]
fn cache_composes_with_fault_injection() {
    use astdme::{Fault, FaultKind, FaultPlan, RouteError, StageId};
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let a = grid_instance(10, 2);
    let instances = vec![a.clone(), a.clone(), a];
    let cache = SubtreeCache::new(16);
    // Corrupt the FIRST scheduled route (all costs tie, so schedule order
    // is input order): its output must be rejected, not cached, and the
    // later duplicates must route clean.
    let policy = BatchPolicy::new()
        .with_cache(cache.clone())
        .with_faults(FaultPlan::new().inject(
            0,
            Fault {
                stage: StageId::Embed,
                kind: FaultKind::Corrupt,
            },
        ));
    let plan = BatchPlan::new(&instances);
    let (batch, _) = plan.route_with_policy(&instances, &AstDme::new(), &policy);
    assert!(matches!(batch[0], Err(RouteError::MalformedOutput { .. })));
    let clean = recompute_reference(&instances, &AstDme::new());
    for i in [1usize, 2] {
        assert_outcomes_identical(
            batch[i].as_ref().expect("survivor routes"),
            &clean[i],
            &format!("survivor {i}"),
        );
    }
    // The corrupted slot inserted nothing; the surviving duplicate did.
    let stats = cache.stats();
    assert_eq!(
        stats.inserts, 1,
        "corrupt output must not be memoized: {stats:?}"
    );
}
