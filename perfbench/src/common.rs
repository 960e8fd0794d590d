//! Pieces every workload shares: input synthesis, the closed measuring
//! loop, correctness predicates, and the per-layer roll-ups of a traced
//! run.

use std::time::Instant;

use astdme_core::{Instance, RouteOutcome};
use astdme_instances::{partition, synthetic_instance};

use crate::replica::{Profile, BOUND};
use crate::report::Report;
use crate::stats::{secs, Samples};
use crate::trace::{self, Tracer};
use crate::Ctx;

/// Set-up is repeated at least this many times per run, and for at least
/// [`SETUP_MIN_S`] seconds, and its median reported.
pub const SETUP_REPS: usize = 7;
/// A set-up of a few milliseconds is repeated over this long, so its
/// median is taken across the host's short swings in speed.
pub const SETUP_MIN_S: f64 = 1.0;

/// Runs the workload's set-up `f` repeatedly (see [`SETUP_REPS`]),
/// records the median duration as `setup_s`, and returns the last result.
pub fn setup<T>(r: &mut Report, mut f: impl FnMut() -> T) -> T {
    let mut times = Samples::default();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS || secs(start) < SETUP_MIN_S {
        // Free the previous set-up first, so that two never live at once.
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(secs(t));
    }
    r.set("setup_s", times.p50());
    r.note(
        "setup_s",
        times.p50(),
        "s",
        &format!("median of {} set-ups", times.len()),
    );
    last.expect("at least one set-up")
}

/// A seeded placement of `n` sinks split into `k` intermingled groups,
/// each bounded at the paper's 10 ps.
pub fn intermingled(n: usize, k: usize, seed: u64, name: &str) -> Instance {
    let p = synthetic_instance(n, seed, name);
    let inst = partition::intermingled(&p, k, seed ^ 0x5EED).expect("synthetic partition");
    bounded(inst)
}

/// `inst` with every group bounded at [`BOUND`].
pub fn bounded(inst: Instance) -> Instance {
    let groups = inst
        .groups()
        .clone()
        .with_uniform_bound(BOUND)
        .expect("bound is valid");
    inst.with_groups(groups).expect("regrouping is valid")
}

/// Calls `step(i)` in a closed loop until `seconds` have passed and at
/// least `min_iters` steps ran; returns the steps run.
pub fn closed_loop(seconds: f64, min_iters: usize, mut step: impl FnMut(usize)) -> usize {
    let t = Instant::now();
    let mut i = 0;
    while i < min_iters || secs(t) < seconds {
        step(i);
        i += 1;
    }
    i
}

/// The AST-DME constraint: intra-group skew within the 10 ps bound.
pub fn skew_ok(out: &RouteOutcome) -> bool {
    out.report.max_intra_group_skew() <= BOUND * (1.0 + 1e-6)
}

fn mean_by(ps: &[&Profile], f: impl Fn(&Profile) -> f64) -> f64 {
    if ps.is_empty() {
        0.0
    } else {
        ps.iter().map(|p| f(p)).sum::<f64>() / ps.len() as f64
    }
}

/// Per-route means of the replica's stage, planner, engine and wire
/// figures over the AST-DME routes, plus the EXT-BST route time.
pub fn layer_metrics(r: &mut Report, profiles: &[Profile]) {
    let ast: Vec<&Profile> = profiles.iter().filter(|p| !p.baseline).collect();
    let ext: Vec<&Profile> = profiles.iter().filter(|p| p.baseline).collect();
    let m = |f: &dyn Fn(&Profile) -> f64| mean_by(&ast, f);
    r.set("pipeline.group_s", m(&|p| p.group_s));
    r.set("pipeline.forest_s", m(&|p| p.forest_s));
    r.set("pipeline.merge_s", m(&|p| p.merge_s));
    r.set("pipeline.embed_s", m(&|p| p.embed_s));
    r.set("pipeline.repair_s", m(&|p| p.repair_s));
    r.set("pipeline.repair_iters", m(&|p| p.repair_iters as f64));
    r.set("pipeline.audit_s", m(&|p| p.audit_s));
    r.set("pipeline.baseline_route_s", mean_by(&ext, |p| p.route_s));
    r.set("planner.new_s", m(&|p| p.planner_new_s));
    r.set("planner.plan_s", m(&|p| p.plan_s));
    r.set("planner.apply_s", m(&|p| p.apply_s));
    r.set("planner.rounds", m(&|p| p.rounds as f64));
    r.set(
        "planner.pairs_per_round",
        m(&|p| p.merges as f64 / p.rounds.max(1) as f64),
    );
    r.set("planner.grid_rounds", m(&|p| p.grid_rounds as f64));
    r.set("planner.distance_calls", m(&|p| p.distance_calls as f64));
    r.set("planner.region_calls", m(&|p| p.region_calls as f64));
    r.set("planner.delay_calls", m(&|p| p.delay_calls as f64));
    r.set("engine.merge_s", m(&|p| p.engine_merge_s));
    r.set("engine.merges", m(&|p| p.merges as f64));
    r.set(
        "engine.candidates_per_merge",
        m(&|p| p.candidates as f64 / p.merges.max(1) as f64),
    );
    r.set("engine.classes_final", m(&|p| p.classes_final as f64));
    r.set("wire.total_um", m(&|p| p.wire_um));
    r.set("wire.snaking_um", m(&|p| p.snaking_um));
    r.set("wire.merge_um", m(&|p| p.wire_um - p.snaking_um));
    r.line(format!(
        "  replica routes: {} AST-DME, {} EXT-BST",
        ast.len(),
        ext.len()
    ));
}

/// Fleet figures for a workload whose operations run inline on the
/// benchmark thread, its only worker: `ops` are the `(start, end)` times
/// of each operation inside a loop that ran from `t0` to `t1`.
pub fn inline_fleet(r: &mut Report, ops: &[(f64, f64)], t0: f64, t1: f64) {
    let n = ops.len().max(1) as f64;
    let busy: f64 = ops.iter().map(|(a, b)| b - a).sum();
    let mut prev = t0;
    let mut max_wait = 0.0f64;
    for &(a, b) in ops {
        max_wait = max_wait.max(a - prev);
        prev = b;
    }
    r.set("fleet.busy_s", busy / n);
    r.set("fleet.idle_s", ((t1 - t0) - busy).max(0.0) / n);
    r.set("fleet.max_queue_wait_s", max_wait);
    r.set("fleet.balance", 1.0);
    r.set("fleet.efficiency", busy / (t1 - t0));
}

/// Each layer's self time as a share of all traced self time, printed per
/// operation as well; then writes the spans out.
pub fn finish_trace(r: &mut Report, ctx: &Ctx, tracer: &Tracer, ops: usize) {
    let spans = tracer.snapshot();
    let by_layer = trace::self_time_by_layer(&spans);
    let total: f64 = by_layer.values().sum();
    r.line(format!(
        "  self time per operation ({ops} traced operations):"
    ));
    for (layer, s) in &by_layer {
        r.line(format!(
            "    {layer:<10} {:>12.6} s  {:>6.2}%",
            s / ops.max(1) as f64,
            100.0 * s / total.max(f64::MIN_POSITIVE)
        ));
    }
    for (layer, metric) in [
        ("pipeline", "self.pipeline_share"),
        ("drivers", "self.drivers_share"),
        ("planner", "self.planner_share"),
        ("engine", "self.engine_share"),
        ("audit", "self.audit_share"),
        ("fleet", "self.fleet_share"),
        ("stream", "self.stream_share"),
        ("eco", "self.eco_share"),
        ("bench", "self.bench_share"),
    ] {
        let s = by_layer.get(layer).copied().unwrap_or(0.0);
        r.set(metric, if total > 0.0 { s / total } else { 0.0 });
    }
    let path = ctx
        .spans_dir
        .join(format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    match trace::export(&spans, &path) {
        Ok(()) => r.line(format!(
            "  {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => r.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        }),
    }
}
