//! Fleet-layer determinism: `route_batch` output must be bit-identical to
//! a sequential `route_traced` loop at every thread count.
//!
//! The batch layer fans whole instances out over `astdme_par`'s claim
//! loop, costliest instance first (input-ordered reassembly); both
//! mechanisms change scheduling only. Sweeping the process-global thread
//! override proves it: trees, reports and merge counters all match the
//! single-thread reference exactly — including on a deliberately skewed
//! large+small portfolio, the shape the claim loop exists for. A
//! panicking router must fail only its own instance's slot.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    route_batch, AstDme, ClockRouter, GreedyDme, Instance, RouteError, RouteOutcome, StitchPerGroup,
};

const BOUND: f64 = 10e-12;

/// The thread override is process-global and the harness runs tests on
/// parallel threads: every test that sets it serializes on this lock (and
/// restores the previous value via `astdme_par::override_guard`), so a
/// sweep actually runs at the thread counts it claims to.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn override_lock() -> MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn portfolio() -> Vec<Instance> {
    // Distinct sizes, seeds and group counts: input order is observable.
    [
        (40usize, 3usize, 7u64),
        (52, 4, 11),
        (33, 2, 23),
        (47, 5, 5),
    ]
    .iter()
    .map(|&(n, k, seed)| {
        let p = synthetic_instance(n, seed, &format!("fleet{n}"));
        let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
        inst.with_groups(
            inst.groups()
                .clone()
                .with_uniform_bound(BOUND)
                .expect("bound ok"),
        )
        .expect("regroup ok")
    })
    .collect()
}

/// Bit-exact structural equality, with the stats' wall-clock fields
/// (legitimately run-dependent) masked out.
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

#[test]
fn route_batch_is_bit_identical_across_thread_counts() {
    // RAII: restores whatever override was active even if an assert
    // below fires mid-sweep, so this test cannot poison its siblings.
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let instances = portfolio();
    let routers: Vec<Box<dyn ClockRouter + Sync>> = vec![
        Box::new(AstDme::new()),
        Box::new(GreedyDme::new()),
        Box::new(StitchPerGroup::new()),
    ];
    for router in &routers {
        // The single-thread reference: a plain sequential loop.
        astdme_par::set_thread_override(NonZeroUsize::new(1));
        let reference: Vec<RouteOutcome> = instances
            .iter()
            .map(|inst| router.route_traced(inst).expect("routes"))
            .collect();
        for threads in [1usize, 2, 3, 8] {
            astdme_par::set_thread_override(NonZeroUsize::new(threads));
            let batch = route_batch(&instances, router.as_ref());
            assert_eq!(batch.len(), instances.len());
            for (i, (out, want)) in batch.iter().zip(&reference).enumerate() {
                let out = out.as_ref().expect("routes");
                let ctx = format!("{} threads={threads} instance {i}", router.name());
                assert_outcomes_identical(out, want, &ctx);
            }
        }
        astdme_par::set_thread_override(None);
        let auto = route_batch(&instances, router.as_ref());
        for (i, (out, want)) in auto.iter().zip(&reference).enumerate() {
            let out = out.as_ref().expect("routes");
            let ctx = format!("{} threads=auto instance {i}", router.name());
            assert_outcomes_identical(out, want, &ctx);
        }
    }
}

/// A deliberately skewed portfolio: one instance roughly an order of
/// magnitude larger than the rest — under the old fixed contiguous-chunk
/// schedule the large instance's worker also dragged its chunk-mates; the
/// cost-model + work-stealing schedule must still return the exact
/// sequential results in input order.
fn skewed_portfolio() -> Vec<Instance> {
    [
        (34usize, 2usize, 3u64),
        (300, 4, 17), // the heavyweight, deliberately not first or last once scheduled
        (28, 2, 19),
        (45, 3, 29),
        (31, 2, 41),
        (52, 4, 43),
    ]
    .iter()
    .map(|&(n, k, seed)| {
        let p = synthetic_instance(n, seed, &format!("skew{n}"));
        let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
        inst.with_groups(
            inst.groups()
                .clone()
                .with_uniform_bound(BOUND)
                .expect("bound ok"),
        )
        .expect("regroup ok")
    })
    .collect()
}

#[test]
fn skewed_portfolio_batch_equals_sequential_loop() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let instances = skewed_portfolio();
    let router = AstDme::new().with_engine(astdme::EngineConfig::fast());
    let reference: Vec<RouteOutcome> = instances
        .iter()
        .map(|inst| router.route_traced(inst).expect("routes"))
        .collect();
    for threads in [1usize, 2, 3, 8] {
        astdme_par::set_thread_override(NonZeroUsize::new(threads));
        let batch = route_batch(&instances, &router);
        assert_eq!(batch.len(), instances.len());
        for (i, (out, want)) in batch.iter().zip(&reference).enumerate() {
            let out = out.as_ref().expect("routes");
            let ctx = format!("skewed threads={threads} instance {i}");
            assert_outcomes_identical(out, want, &ctx);
        }
    }
}

/// A router that panics on exactly one instance (identified by sink
/// count), delegating everything else to AST-DME.
struct PanicOnSinkCount {
    trip: usize,
    inner: AstDme,
}

impl ClockRouter for PanicOnSinkCount {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        if inst.sink_count() == self.trip {
            panic!("injected panic at n={}", self.trip);
        }
        self.inner.route_traced(inst)
    }
    fn name(&self) -> &'static str {
        "panic-on-sink-count"
    }
}

#[test]
fn panicking_instance_fails_alone_and_leaves_the_rest_intact() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(None);
    let instances: Vec<Instance> = portfolio().into_iter().take(3).collect();
    let trip = instances[1].sink_count();
    let router = PanicOnSinkCount {
        trip,
        inner: AstDme::new(),
    };
    let batch = route_batch(&instances, &router);
    assert_eq!(batch.len(), 3);
    match &batch[1] {
        Err(RouteError::Panicked {
            instance,
            sinks,
            message,
        }) => {
            assert_eq!(*instance, 1, "panic attributed to the wrong batch slot");
            assert_eq!(*sinks, trip);
            assert!(
                message.contains("injected panic"),
                "unexpected message: {message}"
            );
        }
        other => panic!("instance 1 should surface the panic, got {other:?}"),
    }
    // The other instances' outcomes are returned unchanged.
    for i in [0usize, 2] {
        let want = AstDme::new()
            .route_traced(&instances[i])
            .expect("reference routes");
        let out = batch[i].as_ref().expect("survivor routes");
        assert_outcomes_identical(out, &want, &format!("survivor instance {i}"));
    }
}

#[test]
fn route_batch_reports_per_instance_errors_in_place() {
    let mut instances = portfolio();
    let router = astdme::ExtBst::new(-1.0); // invalid bound: every route fails
    let batch = route_batch(&instances, &router);
    assert!(batch.iter().all(|r| r.is_err()));
    // A valid router over the same batch: all succeed, order preserved.
    let ok = route_batch(&instances, &AstDme::new());
    assert!(ok.iter().all(|r| r.is_ok()));
    instances.truncate(1);
    assert_eq!(route_batch(&instances, &AstDme::new()).len(), 1);
}
