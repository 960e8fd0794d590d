//! An outside-in replica of the five-stage routing pipeline, built only
//! from the library's public functions, with a span around each call.
//!
//! `ClockRouter::route_traced` is one opaque call. The replica performs
//! the same operations in the same order (`Groups::single` /
//! `Instance::with_groups`, `MergeForest::for_instance_with_model`, the
//! `MergePlanner` merge loop, `embed`, `repair_group_skew`, `audit`), so
//! the traced run can time each layer while producing the same tree; the
//! workloads check that it is bit-identical to `route_traced`'s.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use astdme_core::{
    audit, repair_group_skew, AstDme, ClockRouter, DelayModel, ExtBst, ForestSpace, GroupId,
    GroupingStage, Groups, Instance, MergeForest, MergePlanner, MergeSpace, MergeStage, NodeId,
    RouteError, RouteOutcome, RouteStats, RoutedTree, StagePlan, StageStats, Trr,
};

use crate::trace::{SpanId, Tracer};

/// The paper's skew bound: per group for AST-DME, global for EXT-BST.
pub const BOUND: f64 = 10e-12;

/// Iteration budget of the pipeline's skew-repair stage (the library keeps
/// its constant crate-private; the bit-identity check catches any drift).
const REPAIR_ITERS: usize = 80;

/// What one replica route measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Profile {
    /// Routed against one global group (EXT-BST) rather than the
    /// instance's own groups (AST-DME).
    pub baseline: bool,
    pub route_s: f64,
    pub group_s: f64,
    pub forest_s: f64,
    pub merge_s: f64,
    pub embed_s: f64,
    pub repair_s: f64,
    pub repair_iters: usize,
    pub audit_s: f64,
    pub planner_new_s: f64,
    pub plan_s: f64,
    pub apply_s: f64,
    pub engine_merge_s: f64,
    pub rounds: usize,
    pub grid_rounds: usize,
    pub merges: usize,
    pub candidates: usize,
    pub classes_final: usize,
    pub distance_calls: u64,
    pub region_calls: u64,
    pub delay_calls: u64,
    pub wire_um: f64,
    pub snaking_um: f64,
}

/// Call counters of the planner's view of the forest.
#[derive(Debug, Default)]
struct Calls {
    region: AtomicU64,
    distance: AtomicU64,
    delay: AtomicU64,
}

/// `ForestSpace` with every planner query counted.
struct Counting<'a> {
    inner: ForestSpace<'a>,
    calls: &'a Calls,
}

impl<'a> Counting<'a> {
    fn new(forest: &'a MergeForest, calls: &'a Calls) -> Self {
        Counting {
            inner: ForestSpace::new(forest),
            calls,
        }
    }
}

impl MergeSpace for Counting<'_> {
    fn region(&self, id: usize) -> Trr {
        self.calls.region.fetch_add(1, Ordering::Relaxed);
        self.inner.region(id)
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        self.calls.distance.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }

    fn delay(&self, id: usize) -> f64 {
        self.calls.delay.fetch_add(1, Ordering::Relaxed);
        self.inner.delay(id)
    }
}

/// The plan a portfolio job routes under: EXT-BST for a single-group
/// baseline instance, AST-DME otherwise.
pub fn portfolio_plan(inst: &Instance) -> StagePlan {
    if inst.groups().group_count() == 1 {
        ExtBst::new(BOUND).plan()
    } else {
        AstDme::new().plan()
    }
}

/// Routes `inst` under `plan` through the replica, recording spans under
/// `parent`. Only flat merge plans (every router the workloads use).
pub fn run(
    inst: &Instance,
    plan: &StagePlan,
    tr: &Tracer,
    parent: Option<SpanId>,
    route: u64,
) -> Result<(RouteOutcome, Profile), RouteError> {
    assert_eq!(plan.merge, MergeStage::Flat, "replica covers flat plans");
    let mut p = Profile {
        baseline: plan.grouping != GroupingStage::Keep,
        ..Profile::default()
    };
    let t_route = Instant::now();
    let root_span = tr.open("pipeline.route", parent, route);
    let sp = Some(root_span);

    // Stage 1: group.
    let (regrouped, d) = tr.span("pipeline.group", sp, route, |_| match plan.grouping {
        GroupingStage::Keep => Ok(None),
        GroupingStage::Single { bound } => {
            let mut groups = Groups::single(inst.sink_count())?;
            if let Some(b) = bound {
                groups = groups.with_uniform_bound(b)?;
            }
            Ok::<_, RouteError>(Some(inst.with_groups(groups)?))
        }
    });
    p.group_s = d;
    let regrouped = regrouped?;
    let against = regrouped.as_ref().unwrap_or(inst);
    let model = plan.model.unwrap_or(DelayModel::elmore(*inst.rc()));

    // Stage 2: forest, then the merge loop.
    let (mut forest, d) = tr.span("engine.forest", sp, route, |_| {
        MergeForest::for_instance_with_model(against, model, plan.engine)
    });
    p.forest_s = d;
    let (root, d) = tr.span("drivers.merge_loop", sp, route, |loop_span| {
        merge_loop(&mut forest, plan, tr, Some(loop_span), route, &mut p)
    });
    p.merge_s = d;
    p.classes_final = {
        let mut classes: Vec<u32> = (0..against.groups().group_count())
            .map(|g| forest.class_of(GroupId(g as u32)))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        classes.len()
    };

    // Stage 3: embed.
    let (tree, d) = tr.span("engine.embed", sp, route, |_| {
        forest.embed(root, against.source())
    });
    p.embed_s = d;

    // Stage 4: repair, skipped when the engine left no residual.
    let (tree, d) = tr.span("engine.repair", sp, route, |_| {
        if forest.residual() <= plan.engine.skew_tol {
            tree
        } else {
            let r = repair_group_skew(&tree, against, &model, plan.engine.skew_tol, REPAIR_ITERS);
            p.repair_iters = r.iterations;
            r.tree
        }
    });
    p.repair_s = d;

    // Stage 5: audit against the original instance.
    let (report, d) = tr.span("audit.audit", sp, route, |_| audit(&tree, inst, &model));
    p.audit_s = d;
    tr.close(root_span);
    p.route_s = t_route.elapsed().as_secs_f64();
    p.wire_um = report.wirelength();
    p.snaking_um = report.snaking();

    let stats = RouteStats {
        group: StageStats {
            seconds: p.group_s,
            ..StageStats::default()
        },
        merge: StageStats {
            seconds: p.forest_s + p.merge_s,
            rounds: p.rounds,
            merges: p.merges,
            ..StageStats::default()
        },
        embed: StageStats {
            seconds: p.embed_s,
            ..StageStats::default()
        },
        repair: StageStats {
            seconds: p.repair_s,
            repair_iterations: p.repair_iters,
            ..StageStats::default()
        },
        audit: StageStats {
            seconds: p.audit_s,
            ..StageStats::default()
        },
        ..RouteStats::default()
    };
    Ok((
        RouteOutcome {
            tree,
            report,
            stats,
        },
        p,
    ))
}

/// The bottom-up loop of `merge_until_one_traced`, one span per planner
/// call and per round of engine merges.
fn merge_loop(
    forest: &mut MergeForest,
    plan: &StagePlan,
    tr: &Tracer,
    parent: Option<SpanId>,
    route: u64,
    p: &mut Profile,
) -> NodeId {
    let leaves = forest.leaves();
    if leaves.len() == 1 {
        return leaves[0];
    }
    let keys: Vec<usize> = leaves.iter().map(|n| n.index()).collect();
    let calls = Calls::default();
    let (mut planner, d) = tr.span("planner.new", parent, route, |_| {
        MergePlanner::new(&Counting::new(forest, &calls), &keys, plan.topo)
    });
    p.planner_new_s = d;
    let mut round: Vec<(usize, usize, usize)> = Vec::new();
    while planner.len() > 1 {
        if planner.in_grid_regime() {
            p.grid_rounds += 1;
        }
        let (pairs, d) = tr.span("planner.plan_round", parent, route, |_| {
            planner.plan_round(&Counting::new(forest, &calls))
        });
        p.plan_s += d;
        assert!(!pairs.is_empty(), "planner must make progress");
        round.clear();
        let ((), d) = tr.span("engine.merge", parent, route, |_| {
            for (a, b) in pairs {
                let m = forest.merge(NodeId::from_index(a), NodeId::from_index(b));
                p.candidates += forest.candidates(m).len();
                round.push((a, b, m.index()));
            }
        });
        p.engine_merge_s += d;
        let ((), d) = tr.span("planner.apply_round", parent, route, |_| {
            planner.apply_round(&Counting::new(forest, &calls), &round)
        });
        p.apply_s += d;
        p.rounds += 1;
        p.merges += round.len();
    }
    p.distance_calls = calls.distance.load(Ordering::Relaxed);
    p.region_calls = calls.region.load(Ordering::Relaxed);
    p.delay_calls = calls.delay.load(Ordering::Relaxed);
    NodeId::from_index(planner.sole_key())
}

/// Whether two outcomes carry the same tree and audit, bit for bit.
pub fn same_bits(a: &RouteOutcome, b: &RouteOutcome) -> bool {
    tree_bits_equal(&a.tree, &b.tree)
        && a.report.wirelength().to_bits() == b.report.wirelength().to_bits()
        && a.report.snaking().to_bits() == b.report.snaking().to_bits()
        && a.report.global_skew().to_bits() == b.report.global_skew().to_bits()
        && a.report.sink_delays().len() == b.report.sink_delays().len()
        && a.report
            .sink_delays()
            .iter()
            .zip(b.report.sink_delays())
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn tree_bits_equal(a: &RoutedTree, b: &RoutedTree) -> bool {
    let pt = |p: astdme_core::Point| (p.x.to_bits(), p.y.to_bits());
    pt(a.source()) == pt(b.source())
        && a.nodes().len() == b.nodes().len()
        && a.nodes().iter().zip(b.nodes()).all(|(x, y)| {
            pt(x.pos) == pt(y.pos)
                && x.parent == y.parent
                && x.sink == y.sink
                && x.wire.to_bits() == y.wire.to_bits()
        })
}

/// How a [`TracedRouter`] routes each instance it is handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Through the replica, under [`portfolio_plan`].
    Replica,
    /// Through `AstDme::route_traced`, so the fleet's cache applies.
    Library,
}

/// One route as seen from the router boundary on a pool thread.
#[derive(Debug, Clone, Copy)]
pub struct RouteRecord {
    pub start: f64,
    pub end: f64,
    pub thread: usize,
    pub cache_hit: bool,
}

/// A `ClockRouter` handed to the fleet in traced runs: wraps each route in
/// a span (parented to the current pass) and records what it measured.
pub struct TracedRouter {
    pub tracer: Arc<Tracer>,
    exec: Exec,
    /// Span id of the pass in progress (`usize::MAX` for none).
    pass: AtomicUsize,
    threads: Mutex<Vec<ThreadId>>,
    pub records: Mutex<Vec<RouteRecord>>,
    pub profiles: Mutex<Vec<Profile>>,
}

impl TracedRouter {
    pub fn new(tracer: Arc<Tracer>, exec: Exec) -> Self {
        TracedRouter {
            tracer,
            exec,
            pass: AtomicUsize::new(usize::MAX),
            threads: Mutex::new(Vec::new()),
            records: Mutex::new(Vec::new()),
            profiles: Mutex::new(Vec::new()),
        }
    }

    pub fn set_pass(&self, span: SpanId) {
        self.pass.store(span, Ordering::SeqCst);
    }

    fn thread_index(&self) -> usize {
        let me = std::thread::current().id();
        let mut t = self.threads.lock().expect("thread list is never poisoned");
        t.iter().position(|&x| x == me).unwrap_or_else(|| {
            t.push(me);
            t.len() - 1
        })
    }
}

impl ClockRouter for TracedRouter {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        let tr = &self.tracer;
        let pass = self.pass.load(Ordering::SeqCst);
        let parent = (pass != usize::MAX).then_some(pass);
        let route = tr.route_id();
        let thread = self.thread_index();
        let span = tr.open("fleet.route", parent, route);
        let start = tr.now();
        let out = match self.exec {
            Exec::Replica => {
                run(inst, &portfolio_plan(inst), tr, Some(span), route).map(|(out, prof)| {
                    self.profiles
                        .lock()
                        .expect("profile list is never poisoned")
                        .push(prof);
                    out
                })
            }
            Exec::Library => {
                tr.span("pipeline.route", Some(span), route, |_| {
                    AstDme::new().route_traced(inst)
                })
                .0
            }
        };
        tr.close(span);
        let end = tr.now();
        self.records
            .lock()
            .expect("record list is never poisoned")
            .push(RouteRecord {
                start,
                end,
                thread,
                cache_hit: out.as_ref().is_ok_and(|o| o.stats.cache_hit),
            });
        out
    }

    fn name(&self) -> &'static str {
        "traced"
    }
}
