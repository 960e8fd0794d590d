//! `paper_tables`: the Tables I+II portfolio — r1–r5 × {clustered,
//! intermingled} × k ∈ {4, 6, 8, 10} for AST-DME plus the EXT-BST
//! baselines, from the generators and partitioners `table1`/`table2` use —
//! passed repeatedly through `route_batch` on the library's pool. Many
//! instances of 267–3101 sinks make per-instance overhead, scheduling and
//! balance matter; the pass also yields the paper's wirelength ratios.

use std::sync::Arc;
use std::time::Instant;

use astdme_bench::{run_table, PartitionMode, Row, GROUP_COUNTS};
use astdme_core::{
    route_batch, AstDme, BatchPlan, ClockRouter, ExtBst, Instance, RouteError, RouteOutcome,
};
use astdme_instances::{partition, r_benchmark, RBench};

use crate::common::{self, bounded, closed_loop, setup, skew_ok};
use crate::replica::{self, Exec, TracedRouter, BOUND};
use crate::report::Report;
use crate::stats::{geomean, secs, Samples};
use crate::trace::Tracer;
use crate::Ctx;

/// Routes a portfolio job: EXT-BST for the single-group baseline
/// instances, AST-DME for the grouped ones.
struct PortfolioRouter;

impl ClockRouter for PortfolioRouter {
    fn route_traced(&self, inst: &Instance) -> Result<RouteOutcome, RouteError> {
        if inst.groups().group_count() == 1 {
            ExtBst::new(BOUND).route_traced(inst)
        } else {
            AstDme::new().route_traced(inst)
        }
    }

    fn name(&self) -> &'static str {
        "portfolio"
    }
}

/// Jobs per circuit: the baseline, then clustered and intermingled rows.
const PER_CIRCUIT: usize = 1 + 2 * GROUP_COUNTS.len();

/// The portfolio, circuit by circuit in the order of [`PER_CIRCUIT`].
fn portfolio(seed: u64) -> Vec<Instance> {
    let mut out = Vec::new();
    for bench in RBench::ALL {
        let p = r_benchmark(bench, seed);
        out.push(partition::single(&p).expect("single partition"));
        for clustered in [true, false] {
            for k in GROUP_COUNTS {
                let s = seed.wrapping_add(k as u64);
                let inst = if clustered {
                    partition::clustered(&p, k, s)
                } else {
                    partition::intermingled(&p, k, s)
                };
                out.push(bounded(inst.expect("synthetic partition")));
            }
        }
    }
    out
}

/// AST-DME over EXT-BST wirelength per row: `(clustered, intermingled)`.
fn ratios(wl: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mut c, mut i) = (Vec::new(), Vec::new());
    for circuit in wl.chunks(PER_CIRCUIT) {
        let (base, rows) = circuit.split_first().expect("non-empty circuit");
        let (cl, im) = rows.split_at(GROUP_COUNTS.len());
        c.extend(cl.iter().map(|w| w / base));
        i.extend(im.iter().map(|w| w / base));
    }
    (c, i)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let insts = setup(&mut r, || portfolio(ctx.seed));
    // Wake the pool's workers on a small batch, untimed.
    let _ = route_batch(&insts[..PER_CIRCUIT], &PortfolioRouter);
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };

    let mut pass_s = Samples::default();
    let mut first: Option<Vec<RouteOutcome>> = None;
    let passes = closed_loop(budget, 2, |_| {
        let t = Instant::now();
        let outs = route_batch(&insts, &PortfolioRouter);
        pass_s.push(secs(t));
        let mut ok = Vec::with_capacity(outs.len());
        for (j, o) in outs.into_iter().enumerate() {
            r.attempt(o.is_ok());
            if let Ok(o) = o {
                if insts[j].groups().group_count() > 1 {
                    r.check(skew_ok(&o), || format!("job {j}: intra-group skew"));
                }
                ok.push(o);
            }
        }
        if ok.len() != insts.len() {
            return;
        }
        match &first {
            None => first = Some(ok),
            Some(f) => {
                let same = f.iter().zip(&ok).all(|(a, b)| replica::same_bits(a, b));
                r.check(same, || "a pass differs from the first pass".to_string());
            }
        }
    });
    let Some(first) = first else {
        r.check(false, || "no pass routed every job".to_string());
        return r;
    };
    let wl: Vec<f64> = first.iter().map(|o| o.report.wirelength()).collect();
    let (c, i) = ratios(&wl);
    let all: Vec<f64> = c.iter().chain(&i).copied().collect();
    check_against_tables(&mut r, ctx.seed, &wl);

    r.set("latency_s_mean", pass_s.mean());
    r.set("tail.latency_s_p90", pass_s.p90());
    r.set("first_result_s", pass_s.mean());
    let inst_per_s = (passes * insts.len()) as f64 / pass_s.sum();
    r.set("inst_per_s", inst_per_s);
    r.set("wl_ratio", geomean(&all));
    r.note("pass_s_p50", pass_s.p50(), "s", &pass_s.count_note());
    r.note(
        "inst_per_s",
        inst_per_s,
        "1/s",
        &format!("{} jobs per pass", insts.len()),
    );
    r.note(
        "clustered_wl_ratio",
        geomean(&c),
        "",
        "paper implies 0.964-0.980",
    );
    r.note(
        "intermingled_wl_ratio",
        geomean(&i),
        "",
        "paper implies 0.855-0.906",
    );
    r.line(format!(
        "  workers: {} (ASTDME_THREADS)",
        astdme_par::effective_threads()
    ));

    if ctx.trace {
        r.set("quality.clustered_wl_ratio", geomean(&c));
        r.set("quality.intermingled_wl_ratio", geomean(&i));
        traced(ctx, &mut r, &insts, &first, budget, pass_s.p50());
    }
    r
}

/// The portfolio's wirelengths must equal `table1`/`table2` at this seed.
fn check_against_tables(r: &mut Report, seed: u64, wl: &[f64]) {
    let tables = [
        run_table(PartitionMode::Clustered, &RBench::ALL, seed),
        run_table(PartitionMode::Intermingled, &RBench::ALL, seed),
    ];
    let per = 1 + GROUP_COUNTS.len();
    for (t, rows) in tables.iter().enumerate() {
        for (c, circuit) in rows.chunks(per).enumerate() {
            let mine = &wl[c * PER_CIRCUIT..(c + 1) * PER_CIRCUIT];
            let expect = |row: &Row, j: usize| row.wirelength.to_bits() == mine[j].to_bits();
            r.check(expect(&circuit[0], 0), || {
                format!("table {} circuit {c}: EXT-BST wirelength differs", t + 1)
            });
            for (k, row) in circuit[1..].iter().enumerate() {
                let j = 1 + t * GROUP_COUNTS.len() + k;
                r.check(expect(row, j), || {
                    format!("table {} circuit {c} row {k}: wirelength differs", t + 1)
                });
            }
        }
    }
}

/// The traced half: the same passes through `BatchPlan::route_with_stats`
/// with each job routed by the stage replica inside a span.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    insts: &[Instance],
    first: &[RouteOutcome],
    budget: f64,
    untraced_p50: f64,
) {
    let tracer = Arc::new(Tracer::new());
    let router = TracedRouter::new(Arc::clone(&tracer), Exec::Replica);
    let plan = BatchPlan::new(insts);
    let mut pass_s = Samples::default();
    let (mut busy, mut idle, mut wait, mut balance, mut eff) = (0.0, 0.0, 0.0f64, 0.0, 0.0);
    let passes = closed_loop(budget, 1, |_| {
        let route = tracer.route_id();
        let span = tracer.open("fleet.pass", None, route);
        router.set_pass(span);
        let t = Instant::now();
        let (outs, steal) = plan.route_with_stats(insts, &router);
        let wall = secs(t);
        tracer.close(span);
        pass_s.push(wall);
        busy += steal.worker_busy_seconds.iter().sum::<f64>();
        idle += steal.total_idle_seconds();
        wait = wait.max(steal.max_queue_wait_seconds());
        balance += steal.balance();
        let routed: f64 = outs.iter().flatten().map(|o| o.stats.route_seconds()).sum();
        eff += routed / (wall * steal.workers() as f64);
        for (j, o) in outs.iter().enumerate() {
            r.attempt(o.is_ok());
            if let Ok(o) = o {
                r.check(replica::same_bits(o, &first[j]), || {
                    format!("job {j}: replica differs from route_batch")
                });
            }
        }
    });
    let n = passes as f64;
    r.set("fleet.busy_s", busy / n);
    r.set("fleet.idle_s", idle / n);
    r.set("fleet.max_queue_wait_s", wait);
    r.set("fleet.balance", balance / n);
    r.set("fleet.efficiency", eff / n);
    let profiles = router.profiles.lock().expect("profiles").clone();
    common::layer_metrics(r, &profiles);
    r.set("trace.overhead_ratio", pass_s.p50() / untraced_p50);
    common::finish_trace(r, ctx, &tracer, passes);
}
