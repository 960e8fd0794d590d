//! `large_intermingled`: seeded n = 16000 instances with 8 intermingled
//! groups under a 10 ps bound, each routed by AST-DME and then EXT-BST on
//! the benchmark thread. The merge engine and planner dominate; the
//! fleet, cache and ECO layers do not run.

use std::time::Instant;

use astdme_core::{AstDme, ClockRouter, ExtBst, Instance, RouteOutcome};

use crate::common::{self, closed_loop, intermingled, setup, skew_ok};
use crate::replica::{self, BOUND};
use crate::report::Report;
use crate::stats::{geomean, secs, Rng, Samples};
use crate::trace::Tracer;
use crate::Ctx;

const N: usize = 16_000;
const GROUPS: usize = 8;
/// Instances made in set-up and routed first by every run; the
/// wirelength ratio is taken over them, so it depends on the seed alone.
/// The traced half cycles through them and compares each replica route
/// with its `route_traced` twin. Past them, each step routes a fresh
/// seeded instance, made untimed just before it is routed.
const FIXED: usize = 8;

fn instance(seed: u64) -> Instance {
    intermingled(N, GROUPS, seed, "large_intermingled")
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let mut rng = Rng::new(ctx.seed, 0x1A);
    let seeds: Vec<u64> = (0..FIXED).map(|_| rng.next_u64()).collect();
    let insts = setup(&mut r, || {
        seeds.iter().map(|&s| instance(s)).collect::<Vec<_>>()
    });
    let ast = AstDme::new();
    let ext = ExtBst::new(BOUND);
    // Warm the allocator and code paths on a small instance, untimed.
    let warm = intermingled(2000, GROUPS, seeds[0] ^ 1, "warm-up");
    let _ = (ast.route_traced(&warm), ext.route_traced(&warm));

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut ast_s = Samples::default();
    let mut ext_s = Samples::default();
    let mut ratios = Vec::new();
    let mut kept: Vec<(usize, RouteOutcome, RouteOutcome)> = Vec::new();
    closed_loop(budget, FIXED, |i| {
        let fresh;
        let inst = match insts.get(i) {
            Some(inst) => inst,
            None => {
                fresh = instance(rng.next_u64());
                &fresh
            }
        };
        let t = Instant::now();
        let a = ast.route_traced(inst);
        ast_s.push(secs(t));
        let t = Instant::now();
        let e = ext.route_traced(inst);
        ext_s.push(secs(t));
        r.attempt(a.is_ok());
        r.attempt(e.is_ok());
        let (Ok(a), Ok(e)) = (a, e) else {
            return;
        };
        r.check(skew_ok(&a), || {
            format!(
                "AST-DME intra-group skew {}",
                a.report.max_intra_group_skew()
            )
        });
        if i < FIXED {
            ratios.push(a.report.wirelength() / e.report.wirelength());
            if ctx.trace {
                kept.push((i, a, e));
            }
        }
    });
    let wl_ratio = geomean(&ratios);
    let pairs = ast_s.len() as f64;

    r.set("latency_s_mean", ast_s.mean());
    r.set("tail.latency_s_p90", ast_s.p90());
    r.set("first_result_s", ast_s.mean());
    r.set("inst_per_s", pairs / (ast_s.sum() + ext_s.sum()));
    r.set("wl_ratio", wl_ratio);
    r.note(
        "route_s_p50 (AST-DME)",
        ast_s.p50(),
        "s",
        &ast_s.count_note(),
    );
    r.note(
        "route_s_p90 (AST-DME)",
        ast_s.p90(),
        "s",
        &ast_s.count_note(),
    );
    r.note(
        "baseline_route_s_p50 (EXT-BST)",
        ext_s.p50(),
        "s",
        &ext_s.count_note(),
    );
    r.note(
        "wl_ratio (AST/EXT geomean)",
        wl_ratio,
        "",
        &format!("first {} instances", ratios.len()),
    );

    if ctx.trace {
        traced(ctx, &mut r, &insts, &kept, budget, ast_s.p50(), wl_ratio);
    }
    r
}

/// The traced half: the stage replica on the first instances, checked bit
/// for bit against their `route_traced` outcomes.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    insts: &[Instance],
    kept: &[(usize, RouteOutcome, RouteOutcome)],
    budget: f64,
    untraced_p50: f64,
    wl_ratio: f64,
) {
    if kept.is_empty() {
        r.check(false, || {
            "no instance routed untraced to compare with".into()
        });
        return;
    }
    let tr = Tracer::new();
    let plans = [AstDme::new().plan(), ExtBst::new(BOUND).plan()];
    let mut profiles = Vec::new();
    let mut ops = Vec::new();
    let mut traced_ast = Samples::default();
    let t0 = tr.now();
    let n = closed_loop(budget, 1, |j| {
        let (i, ref ast_ref, ref ext_ref) = kept[j % kept.len()];
        let route = tr.route_id();
        let start = tr.now();
        let (outs, _) = tr.span("bench.instance", None, route, |sp| {
            plans
                .iter()
                .map(|plan| replica::run(&insts[i], plan, &tr, Some(sp), route))
                .collect::<Vec<_>>()
        });
        ops.push((start, tr.now()));
        for (k, out) in outs.into_iter().enumerate() {
            r.attempt(out.is_ok());
            let Ok((out, p)) = out else {
                continue;
            };
            if k == 0 {
                traced_ast.push(p.route_s);
                r.check(skew_ok(&out), || "replica AST-DME skew".to_string());
            }
            profiles.push(p);
            let reference = if k == 0 { ast_ref } else { ext_ref };
            r.check(replica::same_bits(&out, reference), || {
                format!("replica differs from route_traced on instance {i}, router {k}")
            });
        }
    });
    let t1 = tr.now();
    common::layer_metrics(r, &profiles);
    common::inline_fleet(r, &ops, t0, t1);
    r.set("quality.intermingled_wl_ratio", wl_ratio);
    r.set("trace.overhead_ratio", traced_ast.p50() / untraced_p50);
    r.line(format!(
        "  replica compared bit for bit with route_traced on {n} instances"
    ));
    common::finish_trace(r, ctx, &tr, n);
}
