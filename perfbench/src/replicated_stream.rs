//! `replicated_stream`: 6 seeded blocks (800–1800 sinks, 4–8 groups), 8
//! copies each — half exact re-submissions, half translated to other die
//! positions — streamed through `route_stream` with a fresh
//! `SubtreeCache` per pass. The only workload that runs the cache and the
//! stream executor. A run draws [`SETS`] such portfolios and streams them
//! in turn, one per pass.

use std::sync::Arc;
use std::time::Instant;

use astdme_core::{
    route_stream, AstDme, BatchPlan, BatchPolicy, ClockRouter, ExtBst, Instance, RouteError,
    RouteOutcome, StreamPolicy, SubtreeCache,
};

use crate::common::{self, closed_loop, intermingled, setup, skew_ok};
use crate::replica::{self, Exec, RouteRecord, TracedRouter, BOUND};
use crate::report::Report;
use crate::stats::{geomean, secs, Rng, Samples};
use crate::trace::{self, Tracer};
use crate::Ctx;

const BLOCKS: usize = 6;
const COPIES: usize = 8;
/// Portfolios per run. How long a block takes to route depends on its
/// seeded placement, so a run streams several portfolios in turn: its
/// figures then average over this many placements of every block size.
const SETS: usize = 8;
const CACHE_CAPACITY: usize = 64;
/// Placement area of the synthetic generator (µm); translated copies move
/// by whole dies plus a seeded fraction.
const DIE: f64 = 100_000.0;

/// One streamed job: which block it copies, and whether it was moved.
#[derive(Debug, Clone, Copy)]
struct Job {
    block: usize,
    translated: bool,
}

struct Inputs {
    blocks: Vec<Instance>,
    jobs: Vec<Job>,
    insts: Vec<Instance>,
}

/// Block sizes and group counts, dealt to the blocks in a seeded order:
/// the seed moves placements and pairings, while the work per pass stays
/// about the same from seed to seed.
const SIZES: [usize; BLOCKS] = [800, 1000, 1200, 1400, 1600, 1800];
const GROUP_COUNTS: [usize; BLOCKS] = [4, 5, 6, 7, 8, 6];

fn inputs(seed: u64, set: usize) -> Inputs {
    let mut rng = Rng::new(seed, 0x57 + set as u64);
    let mut sizes = SIZES;
    let mut groups = GROUP_COUNTS;
    rng.shuffle(&mut sizes);
    rng.shuffle(&mut groups);
    let blocks: Vec<Instance> = (0..BLOCKS)
        .map(|b| intermingled(sizes[b], groups[b], rng.next_u64(), &format!("block{b}")))
        .collect();
    let mut pairs: Vec<(Job, Instance)> = Vec::new();
    for (b, inst) in blocks.iter().enumerate() {
        for c in 0..COPIES {
            let translated = c % 2 == 1;
            let copy = if translated {
                let mut off = || DIE * rng.int(1, 3) as f64 + rng.range(0.0, DIE);
                let (dx, dy) = (off(), off());
                inst.translated(dx, dy).expect("translation stays finite")
            } else {
                inst.clone()
            };
            pairs.push((
                Job {
                    block: b,
                    translated,
                },
                copy,
            ));
        }
    }
    rng.shuffle(&mut pairs);
    let (jobs, insts) = pairs.into_iter().unzip();
    Inputs {
        blocks,
        jobs,
        insts,
    }
}

/// What one streamed pass produced.
struct Pass {
    wall: f64,
    first: f64,
    wait: f64,
    outs: Vec<Option<Result<RouteOutcome, RouteError>>>,
}

fn stream_pass(insts: &[Instance], router: Arc<dyn ClockRouter + Send + Sync>) -> Pass {
    let insts = insts.to_vec();
    let policy = StreamPolicy::new()
        .with_batch(BatchPolicy::new().with_cache(SubtreeCache::new(CACHE_CAPACITY)));
    let mut outs: Vec<Option<Result<RouteOutcome, RouteError>>> = vec![None; insts.len()];
    let t = Instant::now();
    let mut stream = route_stream(insts, router, policy);
    let mut first = None;
    let mut wait = 0.0;
    loop {
        let tw = Instant::now();
        let Some((idx, res)) = stream.next() else {
            break;
        };
        wait += secs(tw);
        first.get_or_insert_with(|| secs(t));
        outs[idx] = Some(res);
    }
    let wall = secs(t);
    Pass {
        wall,
        first: first.unwrap_or(wall),
        wait,
        outs,
    }
}

/// Per-pass totals.
#[derive(Debug, Default)]
struct Totals {
    passes: usize,
    hits: u64,
    misses: u64,
    translated_hits: u64,
    wait: f64,
    wall: f64,
}

/// Checks a pass and folds it into the totals; returns its outcomes when
/// every job routed.
fn absorb(r: &mut Report, jobs: &[Job], pass: Pass, t: &mut Totals) -> Option<Vec<RouteOutcome>> {
    t.passes += 1;
    t.wait += pass.wait;
    t.wall += pass.wall;
    let mut ok = Vec::with_capacity(jobs.len());
    for (j, o) in pass.outs.into_iter().enumerate() {
        let o = o.unwrap_or_else(|| {
            Err(RouteError::BadParameter(format!(
                "job {j} was never yielded"
            )))
        });
        r.attempt(o.is_ok());
        if let Ok(o) = o {
            r.check(skew_ok(&o), || format!("job {j}: intra-group skew"));
            t.hits += o.stats.cache_hits;
            t.misses += o.stats.cache_misses;
            if jobs[j].translated {
                t.translated_hits += o.stats.cache_hits;
            }
            ok.push(o);
        }
    }
    (ok.len() == jobs.len()).then_some(ok)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let sets = setup(&mut r, || {
        (0..SETS)
            .map(|set| inputs(ctx.seed, set))
            .collect::<Vec<_>>()
    });
    // Wake the pool's workers on a small stream, untimed.
    let _ = stream_pass(&sets[0].insts[..4], Arc::new(AstDme::new()));
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };

    let router: Arc<dyn ClockRouter + Send + Sync> = Arc::new(AstDme::new());
    let mut pass_s = Samples::default();
    let mut first_s = Samples::default();
    let mut totals = Totals::default();
    let mut firsts: Vec<Option<Vec<RouteOutcome>>> = (0..SETS).map(|_| None).collect();
    // Every portfolio is streamed at least twice, so each pass is checked.
    let passes = closed_loop(budget, 2 * SETS, |p| {
        let inp = &sets[p % SETS];
        let pass = stream_pass(&inp.insts, Arc::clone(&router));
        pass_s.push(pass.wall);
        first_s.push(pass.first);
        let Some(outs) = absorb(&mut r, &inp.jobs, pass, &mut totals) else {
            return;
        };
        match &firsts[p % SETS] {
            None => firsts[p % SETS] = Some(outs),
            Some(f) => {
                let same = f.iter().zip(&outs).all(|(a, b)| replica::same_bits(a, b));
                r.check(same, || {
                    format!(
                        "a pass of portfolio {} differs from its first pass",
                        p % SETS
                    )
                });
            }
        }
    });
    let Some(firsts) = firsts.into_iter().collect::<Option<Vec<_>>>() else {
        r.check(false, || "a portfolio never routed every job".to_string());
        return r;
    };

    // Checks, untimed: the stream equals route_batch under the same cache
    // policy, and EXT-BST baselines give the wirelength ratio.
    for (set, (inp, first)) in sets.iter().zip(&firsts).enumerate() {
        let batch = BatchPlan::new(&inp.insts)
            .route_with_policy(
                &inp.insts,
                &AstDme::new(),
                &BatchPolicy::new().with_cache(SubtreeCache::new(CACHE_CAPACITY)),
            )
            .0;
        let same = batch
            .iter()
            .zip(first)
            .all(|(b, s)| b.as_ref().is_ok_and(|b| replica::same_bits(b, s)));
        r.check(same, || {
            format!("portfolio {set}: streamed outcomes differ from route_batch")
        });
    }
    let tracer = ctx.trace.then(Tracer::new);
    let mut profiles = Vec::new();
    let blocks = sets
        .iter()
        .zip(&firsts)
        .flat_map(|(inp, first)| (0..BLOCKS).map(move |b| (inp, first, b)));
    let ratios: Vec<f64> = blocks
        .map(|(inp, first, b)| {
            let j = (0..inp.jobs.len())
                .find(|&j| inp.jobs[j].block == b && !inp.jobs[j].translated)
                .expect("every block has exact copies");
            let ext = match &tracer {
                None => ExtBst::new(BOUND).route_traced(&inp.blocks[b]),
                Some(tr) => {
                    // The stage split of a cache miss: the block routed
                    // uncached by the replica, then its baseline. Neither
                    // is part of a pass, so both count as the benchmark's.
                    let route = tr.route_id();
                    let (ext, _) = tr.span(trace::CHECK, None, route, |sp| {
                        let mut replica_route = |plan| {
                            replica::run(&inp.blocks[b], &plan, tr, Some(sp), route).map(
                                |(o, p)| {
                                    profiles.push(p);
                                    o
                                },
                            )
                        };
                        let ast = replica_route(AstDme::new().plan());
                        r.attempt(ast.is_ok());
                        replica_route(ExtBst::new(BOUND).plan())
                    });
                    ext
                }
            };
            r.attempt(ext.is_ok());
            ext.map_or(1.0, |e| {
                first[j].report.wirelength() / e.report.wirelength()
            })
        })
        .collect();
    let wl_ratio = geomean(&ratios);

    let jobs = BLOCKS * COPIES;
    let inst_per_s = (passes * jobs) as f64 / pass_s.sum();
    r.set("latency_s_mean", pass_s.mean());
    r.set("tail.latency_s_p90", pass_s.p90());
    r.set("first_result_s", first_s.mean());
    r.set("inst_per_s", inst_per_s);
    r.set("wl_ratio", wl_ratio);
    r.note(
        "inst_per_s",
        inst_per_s,
        "1/s",
        &format!("{jobs} jobs per pass"),
    );
    r.note("first_result_s", first_s.p50(), "s", &first_s.count_note());
    r.note("pass_s_p50", pass_s.p50(), "s", &pass_s.count_note());
    let per = totals.passes.max(1) as u64;
    r.line(format!(
        "  cache per pass: {} hits / {} lookups; translated copies: {} hits of {} lookups",
        totals.hits / per,
        (totals.hits + totals.misses) / per,
        totals.translated_hits / per,
        jobs / 2
    ));
    r.note(
        "wl_ratio (AST-DME/EXT-BST)",
        wl_ratio,
        "",
        &format!("{SETS} portfolios of {BLOCKS} blocks"),
    );

    if let Some(tr) = tracer {
        traced(ctx, &mut r, &sets, tr, budget, pass_s.p50(), &profiles);
        r.set("quality.intermingled_wl_ratio", wl_ratio);
    }
    r
}

/// The traced half: the same passes with every route wrapped in a span at
/// the router boundary, on the pool's threads.
fn traced(
    ctx: &Ctx,
    r: &mut Report,
    sets: &[Inputs],
    tracer: Tracer,
    budget: f64,
    untraced_p50: f64,
    profiles: &[replica::Profile],
) {
    let tracer = Arc::new(tracer);
    let router = Arc::new(TracedRouter::new(Arc::clone(&tracer), Exec::Library));
    let mut pass_s = Samples::default();
    let mut totals = Totals::default();
    let (mut busy, mut idle, mut wait, mut balance, mut eff) = (0.0, 0.0, 0.0f64, 0.0, 0.0);
    let (mut hit_s, mut miss_s) = (Samples::default(), Samples::default());
    let passes = closed_loop(budget, 1, |p| {
        let inp = &sets[p % SETS];
        let route = tracer.route_id();
        let span = tracer.open("stream.pass", None, route);
        router.set_pass(span);
        let p0 = tracer.now();
        let pass = stream_pass(
            &inp.insts,
            Arc::clone(&router) as Arc<dyn ClockRouter + Send + Sync>,
        );
        let p1 = tracer.now();
        tracer.close(span);
        pass_s.push(pass.wall);
        let records: Vec<RouteRecord> =
            std::mem::take(&mut *router.records.lock().expect("records"));
        let workers = records.iter().map(|x| x.thread).max().map_or(1, |m| m + 1);
        let mut per_thread = vec![(0.0f64, f64::INFINITY); workers];
        for x in &records {
            let d = x.end - x.start;
            per_thread[x.thread].0 += d;
            per_thread[x.thread].1 = per_thread[x.thread].1.min(x.start);
            if x.cache_hit {
                hit_s.push(d);
            } else {
                miss_s.push(d);
            }
        }
        let active: Vec<&(f64, f64)> = per_thread.iter().filter(|t| t.0 > 0.0).collect();
        let b: f64 = active.iter().map(|t| t.0).sum();
        let wall = p1 - p0;
        busy += b;
        idle += (active.len() as f64 * wall - b).max(0.0);
        wait = active.iter().fold(wait, |w, t| w.max(t.1 - p0));
        let (mx, mn) = active.iter().fold((0.0f64, f64::INFINITY), |(mx, mn), t| {
            (mx.max(t.0), mn.min(t.0))
        });
        balance += if active.len() > 1 { mx / mn } else { 1.0 };
        eff += b / (active.len().max(1) as f64 * wall);
        let _ = absorb(r, &inp.jobs, pass, &mut totals);
    });
    let n = passes as f64;
    r.set("fleet.busy_s", busy / n);
    r.set("fleet.idle_s", idle / n);
    r.set("fleet.max_queue_wait_s", wait);
    r.set("fleet.balance", balance / n);
    r.set("fleet.efficiency", eff / n);
    r.set("stream.consumer_wait_share", totals.wait / totals.wall);
    r.set("cache.hits", totals.hits as f64 / n);
    r.set("cache.misses", totals.misses as f64 / n);
    r.set(
        "cache.hit_ratio",
        totals.hits as f64 / (totals.hits + totals.misses).max(1) as f64,
    );
    r.set("cache.translated_hits", totals.translated_hits as f64 / n);
    r.set(
        "cache.hit_speedup",
        if hit_s.len() > 0 {
            miss_s.p50() / hit_s.p50()
        } else {
            0.0
        },
    );
    r.note(
        "cache hit route p50",
        hit_s.p50(),
        "s",
        &format!("n={}", hit_s.len()),
    );
    r.note(
        "cache miss route p50",
        miss_s.p50(),
        "s",
        &format!("n={}", miss_s.len()),
    );
    common::layer_metrics(r, profiles);
    r.set("trace.overhead_ratio", pass_s.p50() / untraced_p50);
    common::finish_trace(r, ctx, &tracer, passes);
}
