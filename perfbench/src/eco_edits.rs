//! `eco_edits`: one `EcoSession` over n = 8000 sinks in 4 intermingled
//! groups, fed a seeded stream of small edit batches, each `flush` timed.
//! Replayed merges are adopted instead of computed, so embed and audit
//! should weigh more per flush than per route (a flush is one public call,
//! so its stages are not timed here); structural edits (insert, delete)
//! fall back to a full reroute and set the tail.

use std::time::Instant;

use astdme_core::{
    AstDme, ClockRouter, EcoEdit, EcoSession, EcoStats, ExtBst, GroupId, Instance, Point,
    RouteOutcome, Sink,
};

use crate::common::{self, closed_loop, intermingled, setup, skew_ok};
use crate::replica::{self, Profile, BOUND};
use crate::report::Report;
use crate::stats::{geomean, secs, Rng, Samples};
use crate::trace::{self, Tracer};
use crate::Ctx;

const N: usize = 8000;
const GROUPS: usize = 4;
/// Largest move per axis, so a move spans at most 500 µm Manhattan.
const MOVE_MAX: f64 = 250.0;
/// Placement area of the synthetic generator (µm).
const DIE: f64 = 100_000.0;
/// Every block of 10 batches holds 6 move batches, 2 retunes and 2
/// structural edits (inserts and deletes alternate, so n stays near
/// 8000), in a seeded order. Structural edits are a fifth of the flushes:
/// the 90th percentile is then the median full reroute, not a point on
/// the edge between the two kinds of flush.
const BLOCK: [Kind; 10] = [
    Kind::Move,
    Kind::Move,
    Kind::Move,
    Kind::Move,
    Kind::Move,
    Kind::Move,
    Kind::Retune,
    Kind::Retune,
    Kind::Structural,
    Kind::Structural,
];
/// One seeded flush in each window of this many is checked against a
/// from-scratch reroute (plus flush 0).
const CHECK_WINDOW: usize = 64;
/// Flushes every run makes; the checks within them give the wirelength
/// ratio, so it depends on the seed alone.
const MIN_FLUSHES: usize = 2 * CHECK_WINDOW;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Move,
    Retune,
    Structural,
}

/// The seeded edit stream.
struct Edits {
    rng: Rng,
    block: Vec<Kind>,
    insert_next: bool,
    check_rng: Rng,
    check_at: usize,
}

impl Edits {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xEC0);
        let insert_next = rng.next_u64() & 1 == 0;
        Edits {
            rng,
            block: Vec::new(),
            insert_next,
            check_rng: Rng::new(seed, 0xC4EC),
            check_at: 0,
        }
    }

    /// The next batch against the session's current instance.
    fn batch(&mut self, inst: &Instance) -> (Kind, Vec<EcoEdit>) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("refilled above");
        let n = inst.sink_count();
        let rng = &mut self.rng;
        let edits = match kind {
            Kind::Move => (0..rng.int(1, 3))
                .map(|_| {
                    let sink = rng.int(0, n - 1);
                    let p = inst.sinks()[sink].pos;
                    let to = Point::new(
                        (p.x + rng.range(-MOVE_MAX, MOVE_MAX)).clamp(0.0, DIE),
                        (p.y + rng.range(-MOVE_MAX, MOVE_MAX)).clamp(0.0, DIE),
                    );
                    EcoEdit::Move { sink, to }
                })
                .collect(),
            Kind::Retune => (0..rng.int(1, 2))
                .map(|_| EcoEdit::Retune {
                    sink: rng.int(0, n - 1),
                    cap: rng.range(5e-15, 55e-15),
                })
                .collect(),
            Kind::Structural => {
                self.insert_next = !self.insert_next;
                if self.insert_next {
                    let pos = Point::new(rng.range(0.0, DIE), rng.range(0.0, DIE));
                    vec![EcoEdit::Insert {
                        sink: Sink::new(pos, rng.range(5e-15, 55e-15)),
                        group: GroupId(rng.int(0, GROUPS - 1) as u32),
                    }]
                } else {
                    vec![EcoEdit::Delete {
                        sink: rng.int(0, n - 1),
                    }]
                }
            }
        };
        (kind, edits)
    }

    /// Whether flush `i` (asked in order) is checked: flush 0 and one
    /// seeded flush per [`CHECK_WINDOW`].
    fn checked(&mut self, i: usize) -> bool {
        if i.is_multiple_of(CHECK_WINDOW) {
            self.check_at = i + self.check_rng.int(0, CHECK_WINDOW - 1);
        }
        i == 0 || i == self.check_at
    }
}

/// Running totals of the flushes' `EcoStats`.
#[derive(Debug, Default)]
struct EcoTotals {
    flushes: usize,
    dirty: usize,
    adopted: usize,
    fresh: usize,
    replayed: usize,
    planned: usize,
    full: usize,
}

impl EcoTotals {
    fn add(&mut self, s: &EcoStats) {
        self.flushes += 1;
        self.dirty += s.dirty_sinks;
        self.adopted += s.adopted_merges;
        self.fresh += s.fresh_merges;
        self.replayed += s.replayed_rounds;
        self.planned += s.planned_rounds;
        self.full += usize::from(s.full_reroute);
    }
}

/// The session's state carried from the untraced into the traced half.
struct Stream {
    session: EcoSession,
    edits: Edits,
    next: usize,
}

/// What a half of the run measured.
#[derive(Default)]
struct Half {
    flush_s: Samples,
    /// Flush seconds by batch kind.
    by_kind: [Samples; 3],
    scratch_s: Samples,
    /// AST-DME over EXT-BST wirelength at checks among the first
    /// [`MIN_FLUSHES`] flushes.
    ratios: Vec<f64>,
    totals: EcoTotals,
    ops: Vec<(f64, f64)>,
    profiles: Vec<Profile>,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let inst_seed = Rng::new(ctx.seed, 0xEC).next_u64();
    let mut session_s = Samples::default();
    let session = setup(&mut r, || {
        let inst = intermingled(N, GROUPS, inst_seed, "eco_edits");
        let t = Instant::now();
        let s = EcoSession::new(&inst, AstDme::new().plan());
        session_s.push(secs(t));
        s
    });
    let setup_s = r.get("setup_s").expect("set-up is measured");
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            r.attempt(false);
            r.check(false, || format!("EcoSession::new failed: {e}"));
            return r;
        }
    };
    let mut stream = Stream {
        session,
        edits: Edits::new(ctx.seed),
        next: 0,
    };
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = half(&mut r, &mut stream, budget, MIN_FLUSHES, None);
    let f = &plain.flush_s;
    let wl_ratio = geomean(&plain.ratios);
    r.set("latency_s_mean", f.mean());
    r.set("tail.latency_s_p90", f.p90());
    r.set("first_result_s", f.mean());
    r.set("inst_per_s", f.len() as f64 / f.sum());
    r.set("wl_ratio", wl_ratio);
    r.note("flush_s_p50", f.p50(), "s", &f.count_note());
    r.note("flush_s_p90", f.p90(), "s", &f.count_note());
    for (name, k) in [("move", 0), ("retune", 1), ("structural", 2)] {
        let s = &plain.by_kind[k];
        r.note(
            &format!("flush_s_p50 ({name} batches)"),
            s.p50(),
            "s",
            &format!("n={}", s.len()),
        );
    }
    r.note(
        "scratch_route_s_p50",
        plain.scratch_s.p50(),
        "s",
        &format!("n={} checked flushes", plain.scratch_s.len()),
    );
    r.note(
        "wl_ratio (ECO AST-DME/EXT-BST)",
        wl_ratio,
        "",
        &format!("{} checks", plain.ratios.len()),
    );
    r.note(
        "session_s (EcoSession::new)",
        session_s.p50(),
        "s",
        "median of the set-ups",
    );

    if ctx.trace {
        let tracer = Tracer::new();
        let t0 = tracer.now();
        let traced = half(&mut r, &mut stream, budget, 1, Some(&tracer));
        let t1 = tracer.now();
        let t = &traced.totals;
        let n = t.flushes.max(1) as f64;
        r.set("eco.dirty_sinks", t.dirty as f64 / n);
        r.set("eco.adopted_merges", t.adopted as f64 / n);
        r.set("eco.fresh_merges", t.fresh as f64 / n);
        r.set(
            "eco.adopt_ratio",
            t.adopted as f64 / (t.adopted + t.fresh).max(1) as f64,
        );
        r.set("eco.replayed_rounds", t.replayed as f64 / n);
        r.set("eco.planned_rounds", t.planned as f64 / n);
        r.set("eco.full_reroutes", t.full as f64 / n);
        r.set("eco.session_share", session_s.p50() / setup_s);
        r.set(
            "eco.scratch_over_flush",
            traced.scratch_s.p50() / traced.flush_s.p50(),
        );
        r.set("quality.intermingled_wl_ratio", wl_ratio);
        r.set("trace.overhead_ratio", traced.flush_s.p50() / f.p50());
        common::layer_metrics(&mut r, &traced.profiles);
        common::inline_fleet(&mut r, &traced.ops, t0, t1);
        common::finish_trace(&mut r, ctx, &tracer, t.flushes);
    }
    r
}

/// Flushes batches for `budget` seconds (at least `min` of them). With a
/// tracer, each flush and each check runs inside spans and the checks
/// route through the stage replica.
fn half(r: &mut Report, st: &mut Stream, budget: f64, min: usize, tracer: Option<&Tracer>) -> Half {
    let mut h = Half::default();
    let clock = Instant::now();
    let now = |t: Option<&Tracer>| t.map_or_else(|| secs(clock), Tracer::now);
    closed_loop(budget, min, |_| {
        let i = st.next;
        st.next += 1;
        let (kind, edits) = st.edits.batch(st.session.instance());
        let route = tracer.map_or(0, Tracer::route_id);
        let span = tracer.map(|t| t.open("eco.flush", None, route));
        let start = now(tracer);
        let t = Instant::now();
        for e in edits {
            st.session.queue(e);
        }
        let ok = st.session.flush().is_ok();
        let d = secs(t);
        if let (Some(tr), Some(sp)) = (tracer, span) {
            tr.close(sp);
        }
        h.ops.push((start, now(tracer)));
        r.attempt(ok);
        if !ok {
            return;
        }
        h.flush_s.push(d);
        h.by_kind[kind as usize].push(d);
        h.totals.add(&st.session.last_flush());
        let out = st.session.outcome();
        r.check(skew_ok(out), || format!("flush {i}: intra-group skew"));
        if st.edits.checked(i) {
            let (ratio, scratch_s) =
                check(r, st.session.instance(), out, i, tracer, &mut h.profiles);
            h.scratch_s.push(scratch_s);
            if i < MIN_FLUSHES {
                h.ratios.push(ratio);
            }
        }
    });
    h
}

/// Reroutes the edited instance from scratch (AST-DME, which must equal
/// the flushed outcome bit for bit) and with EXT-BST; returns the
/// AST-DME over EXT-BST wirelength and the scratch route's seconds.
fn check(
    r: &mut Report,
    inst: &Instance,
    flushed: &RouteOutcome,
    i: usize,
    tracer: Option<&Tracer>,
    profiles: &mut Vec<Profile>,
) -> (f64, f64) {
    let routes: Vec<Result<(RouteOutcome, f64), String>> = match tracer {
        None => [
            &AstDme::new() as &dyn ClockRouter,
            &ExtBst::new(BOUND) as &dyn ClockRouter,
        ]
        .iter()
        .map(|router| {
            let t = Instant::now();
            let out = router.route_traced(inst).map_err(|e| e.to_string())?;
            Ok((out, secs(t)))
        })
        .collect(),
        Some(tr) => {
            let route = tr.route_id();
            let sp = tr.open(trace::CHECK, None, route);
            let outs = [AstDme::new().plan(), ExtBst::new(BOUND).plan()]
                .iter()
                .map(|plan| {
                    let (out, p) =
                        replica::run(inst, plan, tr, Some(sp), route).map_err(|e| e.to_string())?;
                    profiles.push(p);
                    Ok((out, p.route_s))
                })
                .collect();
            tr.close(sp);
            outs
        }
    };
    let mut routes = routes.into_iter();
    let (Some(Ok((ast, ast_s))), Some(Ok((ext, _)))) = (routes.next(), routes.next()) else {
        r.check(false, || format!("flush {i}: check reroute failed"));
        return (1.0, 0.0);
    };
    r.check(replica::same_bits(&ast, flushed), || {
        format!("flush {i}: ECO outcome differs from a from-scratch reroute")
    });
    (ast.report.wirelength() / ext.report.wirelength(), ast_s)
}
