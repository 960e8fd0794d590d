//! Incremental ECO re-routing: the flush ≡ from-scratch invariant,
//! end-to-end.
//!
//! The contract of [`EcoSession::flush`]: after queueing any batch of
//! sink edits, the flushed outcome is **bit-identical to a from-scratch
//! route of the edited instance** under the session's plan — same tree,
//! same audit report — at every thread count, with and without an
//! attached subtree cache, across consecutive flushes (replay-of-replay),
//! for inserts and deletes (which replay through the sink-identity map
//! like moves and retunes), and for the full-reroute fallbacks (RC
//! retune, cached-frame anchor drift, non-replayable plans), each of
//! which names its [`RerouteReason`]. Net no-op batches
//! (move-then-move-back, insert-then-delete) return the standing tree
//! without routing.

use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    run_with_cache, AstDme, ClockRouter, EcoEdit, EcoSession, EcoStats, GroupId, Groups, Instance,
    Point, RcParams, RerouteReason, RouteError, Sink, StitchPerGroup, SubtreeCache, TopoConfig,
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
    let p = synthetic_instance(n, seed, "eco");
    let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

/// The test's own mirror of the documented sequential edit semantics,
/// kept independent of the session's internals.
fn apply_expected(inst: &Instance, edits: &[EcoEdit]) -> Instance {
    let mut sinks = inst.sinks().to_vec();
    let mut assignment = inst.groups().assignment();
    let mut rc = *inst.rc();
    for edit in edits {
        match *edit {
            EcoEdit::Move { sink, to } => sinks[sink].pos = to,
            EcoEdit::Retune { sink, cap } => sinks[sink].cap = cap,
            EcoEdit::Insert { sink, group } => {
                sinks.push(sink);
                assignment.push(group.index());
            }
            EcoEdit::Delete { sink } => {
                sinks.remove(sink);
                assignment.remove(sink);
            }
            EcoEdit::RetuneRc(params) => rc = params,
        }
    }
    let groups = Groups::from_assignments(assignment, inst.groups().group_count())
        .expect("valid assignment")
        .with_bounds(inst.groups().bounds().to_vec())
        .expect("bounds carry over");
    Instance::new(sinks, groups, rc, inst.source()).expect("valid edited instance")
}

/// The last flush's statistics, checked for the one invariant every
/// flush keeps: it fell back to a full reroute exactly when it names a
/// reason.
fn flush_stats(session: &EcoSession) -> EcoStats {
    let fs = session.last_flush();
    assert_eq!(
        fs.full_reroute,
        fs.reroute_reason.is_some(),
        "full_reroute must agree with reroute_reason: {fs:?}"
    );
    fs
}

/// Three spread-out moves plus a load retune — small edit set on a
/// grid-regime instance, the replay's home turf.
fn sample_edits(inst: &Instance) -> Vec<EcoEdit> {
    let n = inst.sink_count();
    vec![
        EcoEdit::Move {
            sink: 5,
            to: Point::new(inst.sinks()[5].pos.x + 430.0, inst.sinks()[5].pos.y - 210.0),
        },
        EcoEdit::Move {
            sink: n / 2,
            to: Point::new(
                inst.sinks()[n / 2].pos.x - 125.0,
                inst.sinks()[n / 2].pos.y + 305.0,
            ),
        },
        EcoEdit::Retune {
            sink: n - 3,
            cap: 2.5e-14,
        },
    ]
}

/// The load-bearing invariant: a replayed flush is bit-identical to a
/// from-scratch route of the edited instance, at every thread count the
/// determinism suite sweeps — and it must actually *replay* (adopting
/// recorded merges), or the speedup claim is vacuous.
#[test]
fn flush_matches_from_scratch_across_thread_counts() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(120, 3, 7);
    let router = AstDme::new();
    let edits = sample_edits(&inst);
    let edited = apply_expected(&inst, &edits);
    let second_edit = vec![EcoEdit::Move {
        sink: 17,
        to: Point::new(
            edited.sinks()[17].pos.x + 260.0,
            edited.sinks()[17].pos.y + 90.0,
        ),
    }];
    let twice_edited = apply_expected(&edited, &second_edit);

    astdme_par::set_thread_override(NonZeroUsize::new(1));
    let want = router.route_traced(&edited).expect("routes");
    let want_twice = router.route_traced(&twice_edited).expect("routes");

    for threads in [1usize, 2, 3, 8] {
        astdme_par::set_thread_override(NonZeroUsize::new(threads));
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        for edit in &edits {
            session.queue(*edit);
        }
        let out = session.flush().expect("flushes");
        assert_eq!(out.tree, want.tree, "threads={threads}: trees diverged");
        assert_eq!(
            out.report, want.report,
            "threads={threads}: reports diverged"
        );
        let fs = flush_stats(&session);
        assert!(
            !fs.full_reroute,
            "threads={threads}: must replay, not reroute"
        );
        assert!(
            fs.adopted_merges > fs.fresh_merges,
            "threads={threads}: a 3-sink edit must adopt most merges \
             (adopted {}, fresh {})",
            fs.adopted_merges,
            fs.fresh_merges
        );
        assert_eq!(fs.dirty_sinks, 3, "threads={threads}");
        assert!(fs.replayed_rounds > 0, "threads={threads}");

        // Second flush: the replay must have produced a valid recording
        // of its own (replay-of-replay).
        for edit in &second_edit {
            session.queue(*edit);
        }
        let out = session.flush().expect("flushes again");
        assert_eq!(out.tree, want_twice.tree, "threads={threads}: second flush");
        assert_eq!(out.report, want_twice.report, "threads={threads}");
        assert!(!flush_stats(&session).full_reroute, "threads={threads}");
    }
}

/// Cached sessions: a flush matches the cached pipeline bit for bit, a
/// flush back to a memoized placement is satisfied by splicing, and the
/// flush after a hit (which drops the stale recording) still matches.
#[test]
fn cached_flush_matches_cached_pipeline_and_hits_on_return() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(100, 3, 13);
    let plan = AstDme::new().plan();
    let cache = SubtreeCache::new(64);
    let mut session = EcoSession::with_cache(&inst, plan, cache.clone()).expect("routes");
    let base = session.outcome().clone();

    let moved = EcoEdit::Move {
        sink: 31,
        to: Point::new(
            inst.sinks()[31].pos.x + 380.0,
            inst.sinks()[31].pos.y + 140.0,
        ),
    };
    let edited = apply_expected(&inst, &[moved]);
    let want = run_with_cache(&edited, &plan, &SubtreeCache::new(4)).expect("routes");

    session.queue(moved);
    let out = session.flush().expect("flushes");
    assert_eq!(out.tree, want.tree, "cached flush diverged from pipeline");
    assert_eq!(out.report, want.report);
    assert_eq!(out.stats.cache_misses, 1, "replayed flush missed the cache");
    let fs = flush_stats(&session);
    assert!(!fs.full_reroute && fs.adopted_merges > 0, "must replay");

    // Moving back lands on the session-creation placement, which the
    // session inserted — a pure splice, bit-identical to the original.
    session.queue(EcoEdit::Move {
        sink: 31,
        to: inst.sinks()[31].pos,
    });
    let out = session.flush().expect("flushes back");
    assert!(out.stats.cache_hit, "return to a routed placement must hit");
    assert_eq!(out.tree, base.tree, "hit diverged from the original route");
    assert_eq!(out.report, base.report);
    assert!(flush_stats(&session).cache_hit);

    // A hit drops the stale recording; the next novel edit takes the
    // full-reroute path and must still match the pipeline.
    let moved_again = EcoEdit::Move {
        sink: 9,
        to: Point::new(inst.sinks()[9].pos.x - 270.0, inst.sinks()[9].pos.y + 55.0),
    };
    let edited = apply_expected(&inst, &[moved_again]);
    let want = run_with_cache(&edited, &plan, &SubtreeCache::new(4)).expect("routes");
    session.queue(moved_again);
    let out = session.flush().expect("flushes after hit");
    assert_eq!(out.tree, want.tree, "post-hit flush diverged");
    assert_eq!(out.report, want.report);
    let fs = flush_stats(&session);
    assert_eq!(
        fs.reroute_reason,
        Some(RerouteReason::NoRecording),
        "no recording to replay"
    );

    // An insert inside the bounding box keeps the normalization anchor,
    // so it replays off the recording the reroute above left behind.
    let bb = inst.bounding_box();
    let inserted = EcoEdit::Insert {
        sink: Sink::new(
            Point::new(0.5 * (bb.x0() + bb.x1()), 0.5 * (bb.y0() + bb.y1())),
            1.5e-14,
        ),
        group: GroupId(2),
    };
    let edited = apply_expected(&edited, &[inserted]);
    let want = run_with_cache(&edited, &plan, &SubtreeCache::new(4)).expect("routes");
    session.queue(inserted);
    let out = session.flush().expect("flushes an insert");
    assert_eq!(out.tree, want.tree, "cached insert diverged");
    assert_eq!(out.report, want.report);
    let fs = flush_stats(&session);
    assert!(
        !fs.full_reroute && fs.adopted_merges > 0,
        "must replay: {fs:?}"
    );
}

/// A cached session routes in a frame anchored at the bounding-box
/// minimum corner. Deleting the sink that sets that corner moves the
/// anchor, so every clean sink lands on new normalized coordinates: the
/// flush falls back with [`RerouteReason::AnchorDrift`] and still matches
/// the cached pipeline bit for bit.
#[test]
fn cached_anchor_drift_falls_back_and_matches_cached_pipeline() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(80, 3, 29);
    let plan = AstDme::new().plan();
    let mut session = EcoSession::with_cache(&inst, plan, SubtreeCache::new(64)).expect("routes");
    let corner = (0..inst.sink_count())
        .min_by(|&a, &b| inst.sinks()[a].pos.x.total_cmp(&inst.sinks()[b].pos.x))
        .expect("non-empty");
    let delete = EcoEdit::Delete { sink: corner };
    let edited = apply_expected(&inst, &[delete]);
    assert_ne!(
        edited.bounding_box().x0().to_bits(),
        inst.bounding_box().x0().to_bits(),
        "the deleted sink must set the minimum corner"
    );
    let want = run_with_cache(&edited, &plan, &SubtreeCache::new(4)).expect("routes");
    session.queue(delete);
    let out = session.flush().expect("flushes");
    assert_eq!(out.tree, want.tree, "anchor-drift flush diverged");
    assert_eq!(out.report, want.report);
    let fs = flush_stats(&session);
    assert_eq!(fs.reroute_reason, Some(RerouteReason::AnchorDrift));
    assert_eq!(fs.dirty_sinks, 1, "one deleted sink");
}

/// Inserts and deletes replay through the sink-identity map, adopting
/// most merges; an RC retune and non-replayable plans fall back to a
/// full reroute. Every one matches from-scratch exactly.
#[test]
fn structural_edits_and_fallback_plans_match_from_scratch() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(60, 3, 23);

    // Insert + delete: net sink count unchanged but indices shifted; the
    // clean sinks still map onto their standing leaves.
    let router = AstDme::new();
    let structural = vec![
        EcoEdit::Insert {
            sink: Sink::new(Point::new(3100.0, 2200.0), 1.5e-14),
            group: GroupId(1),
        },
        EcoEdit::Delete { sink: 4 },
    ];
    let edited = apply_expected(&inst, &structural);
    let want = router.route_traced(&edited).expect("routes");
    let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
    for edit in &structural {
        session.queue(*edit);
    }
    let out = session.flush().expect("flushes");
    assert_eq!(out.tree, want.tree, "insert/delete flush diverged");
    assert_eq!(out.report, want.report);
    let fs = flush_stats(&session);
    assert!(!fs.full_reroute, "insert/delete must replay: {fs:?}");
    assert!(
        fs.adopted_merges > fs.fresh_merges,
        "an insert and a delete must adopt most merges (adopted {}, fresh {})",
        fs.adopted_merges,
        fs.fresh_merges
    );
    assert_eq!(fs.dirty_sinks, 2, "one inserted and one deleted sink");

    // An RC retune changes every merge's delays: a full reroute.
    let retune = EcoEdit::RetuneRc(RcParams::new(
        inst.rc().r_per_um() * 1.25,
        inst.rc().c_per_um(),
    ));
    let edited = apply_expected(&edited, &[retune]);
    let want = router.route_traced(&edited).expect("routes");
    session.queue(retune);
    let out = session.flush().expect("flushes");
    assert_eq!(out.tree, want.tree, "RC retune flush diverged");
    assert_eq!(out.report, want.report);
    assert_eq!(
        flush_stats(&session).reroute_reason,
        Some(RerouteReason::RcChanged)
    );

    // Greedy merge order and the stitching script are not recorded;
    // every flush is a full reroute and must still be exact.
    let greedy = AstDme::new().with_topo(TopoConfig::greedy());
    let stitch = StitchPerGroup::new();
    let edits = vec![EcoEdit::Move {
        sink: 11,
        to: Point::new(inst.sinks()[11].pos.x + 240.0, inst.sinks()[11].pos.y),
    }];
    let edited = apply_expected(&inst, &edits);
    for (plan, want) in [
        (greedy.plan(), greedy.route_traced(&edited).expect("routes")),
        (stitch.plan(), stitch.route_traced(&edited).expect("routes")),
    ] {
        let mut session = EcoSession::new(&inst, plan).expect("routes");
        session.queue(edits[0]);
        let out = session.flush().expect("flushes");
        assert_eq!(out.tree, want.tree, "fallback plan diverged");
        assert_eq!(out.report, want.report);
        assert_eq!(
            flush_stats(&session).reroute_reason,
            Some(RerouteReason::NotRecordable)
        );
    }
}

/// Net no-op batches — empty, move-then-move-back, insert-then-delete —
/// return the standing tree without routing, and a bad edit discards the
/// batch leaving the standing route untouched.
#[test]
fn noop_batches_return_standing_tree_and_bad_edits_are_rejected() {
    let _lock = override_lock();
    let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
    let inst = instance(50, 2, 41);
    let mut session = EcoSession::new(&inst, AstDme::new().plan()).expect("routes");
    let before = session.outcome().clone();

    session.flush().expect("empty flush");
    assert!(flush_stats(&session).noop, "empty batch is a no-op");
    assert_eq!(flush_stats(&session).edits, 0);
    assert_eq!(session.outcome().tree, before.tree);

    let home = inst.sinks()[4].pos;
    session.queue(EcoEdit::Move {
        sink: 4,
        to: Point::new(home.x + 900.0, home.y - 500.0),
    });
    session.queue(EcoEdit::Move { sink: 4, to: home });
    session.flush().expect("cancelling moves");
    assert!(flush_stats(&session).noop, "move-then-back cancels out");
    assert_eq!(session.outcome().tree, before.tree);

    session.queue(EcoEdit::Insert {
        sink: Sink::new(Point::new(100.0, 100.0), 1e-14),
        group: GroupId(0),
    });
    session.queue(EcoEdit::Delete { sink: 50 });
    session.flush().expect("cancelling insert/delete");
    assert!(flush_stats(&session).noop, "insert-then-delete cancels out");
    assert_eq!(session.outcome().tree, before.tree);

    session.queue(EcoEdit::Move {
        sink: 999,
        to: Point::new(0.0, 0.0),
    });
    let err = session.flush().expect_err("out-of-range sink");
    assert!(matches!(err, RouteError::BadParameter(_)), "got {err:?}");
    assert!(session.pending().is_empty(), "failed flush discards batch");
    assert_eq!(session.outcome().tree, before.tree, "standing route intact");
}

/// A random edit of any replayable kind. Sink indices are drawn from
/// `0..n` and folded onto the instance size at the point the edit
/// applies by [`fold_indices`].
fn arb_edit(n: usize, groups: usize) -> impl Strategy<Value = EcoEdit> {
    prop_oneof![
        (0..n, -900.0f64..900.0, -900.0f64..900.0).prop_map(|(s, dx, dy)| EcoEdit::Move {
            sink: s,
            to: Point::new(4000.0 + dx, 4000.0 + dy),
        }),
        (0..n, 5e-15f64..5e-14).prop_map(|(s, cap)| EcoEdit::Retune { sink: s, cap }),
        (
            -900.0f64..900.0,
            -900.0f64..900.0,
            5e-15f64..5e-14,
            0..groups
        )
            .prop_map(|(dx, dy, cap, g)| EcoEdit::Insert {
                sink: Sink::new(Point::new(4000.0 + dx, 4000.0 + dy), cap),
                group: GroupId(g as u32),
            }),
        (0..n).prop_map(|s| EcoEdit::Delete { sink: s }),
    ]
}

/// Folds each edit's sink index onto the instance size it sees (inserts
/// grow it, deletes shrink it), so every generated batch is valid.
fn fold_indices(mut n: usize, edits: &mut [EcoEdit]) {
    for edit in edits {
        match edit {
            EcoEdit::Move { sink, .. } | EcoEdit::Retune { sink, .. } => *sink %= n,
            EcoEdit::Delete { sink } => {
                *sink %= n;
                n -= 1;
            }
            EcoEdit::Insert { .. } => n += 1,
            EcoEdit::RetuneRc(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of queued moves, retunes, inserts, and deletes —
    /// including several edits to the same sink, where only the last one
    /// survives — flushes to exactly
    /// the net edit set's from-scratch route; and splitting the same
    /// batch across two flushes (replaying a replay) converges to the
    /// same tree.
    #[test]
    fn random_batches_flush_to_the_net_reroute(
        seed in 0u64..500,
        edit_seed in any::<u64>(),
        count in 1usize..7,
        split in 0usize..7,
    ) {
        let _lock = override_lock();
        let _guard = astdme_par::override_guard(NonZeroUsize::new(1));
        // The vendored proptest shim has no `collection::vec`; draw the
        // batch from a derived RNG instead.
        let mut erng = proptest::test_runner::TestRng::from_seed(edit_seed);
        let strat = arb_edit(48, 3);
        let mut edits: Vec<EcoEdit> = (0..count).map(|_| strat.generate(&mut erng)).collect();
        fold_indices(48, &mut edits);
        let inst = instance(48, 3, seed);
        let router = AstDme::new();
        let edited = apply_expected(&inst, &edits);
        let want = router.route_traced(&edited).expect("routes");

        // One batch, one flush.
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        for edit in &edits {
            session.queue(*edit);
        }
        let out = session.flush().expect("flushes");
        prop_assert_eq!(&out.tree, &want.tree, "single flush diverged");
        prop_assert_eq!(&out.report, &want.report);
        flush_stats(&session);

        // Same edits split across two flushes.
        let cut = split.min(edits.len());
        let mut session = EcoSession::new(&inst, router.plan()).expect("routes");
        for edit in &edits[..cut] {
            session.queue(*edit);
        }
        session.flush().expect("first half");
        for edit in &edits[cut..] {
            session.queue(*edit);
        }
        let out = session.flush().expect("second half");
        prop_assert_eq!(&out.tree, &want.tree, "split flush diverged");
        prop_assert_eq!(&out.report, &want.report);
        flush_stats(&session);
    }
}
