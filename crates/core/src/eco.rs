//! Incremental ECO re-routing: batched sink edits with dirty-region
//! re-planning, sublinear in the instance size.
//!
//! Late engineering-change orders (ECOs) move a handful of flip-flops,
//! retune a few loads, or swap a cell — and the clock tree must follow.
//! Rerouting from scratch costs the full `O(n log n)` pipeline for a
//! change that touches a constant number of sinks. An [`EcoSession`]
//! instead keeps the routed state *live* and repairs it:
//!
//! ```text
//!   queue(edit)            flush()
//!  ┌──────────┐   ┌──────────────────────────────────────────────┐
//!  │  batch   │   │ 1. apply     net edit set → edited instance  │
//!  │ (Vec of  ├──▶│ 2. invalidate dirty sinks → their merge-path │
//!  │  edits,  │   │               ancestors lose adoption rights │
//!  │  write-  │   │ 3. re-plan   replay recorded rounds; fresh   │
//!  │  only)   │   │               NN scans only for novel nodes  │
//!  │          │   │ 4. splice    adopted merges are copied bit   │
//!  └──────────┘   │               for bit, dirty cone re-merged, │
//!                 │               then embed / repair / audit    │
//!                 └──────────────────────────────────────────────┘
//! ```
//!
//! # How the replay works
//!
//! A session's standing route is produced by a **recording** run: per
//! planning round, the incremental planner's nearest-neighbor table is
//! snapshotted ([`astdme_topo::MergePlanner::nn_snapshot`]), and per
//! merge, the engine appends a [`MergeLog`](astdme_engine::MergeLog)
//! (children, creation candidates, offset-adjustment appends, residual,
//! class-fusion epochs). On `flush`, the edited instance is rerouted
//! against this script:
//!
//! * Every sink carries its identity through the batch: `apply_edits`
//!   records, per edited sink, the standing index it came from (`None`
//!   for an insert; a delete drops its entry, mirroring `Vec::remove`).
//!   A surviving sink whose position, load, and group bits are unchanged
//!   maps onto its standing leaf; inserted and changed sinks get no
//!   mapping, and deleted leaves have no counterpart. Either way exactly
//!   their merge-path ancestors lose their mapping — the *dirty cone*.
//!   A merge's result depends only on its two children's candidate
//!   lists, the class state, and the engine config, so everything outside
//!   the cone replays verbatim.
//! * Each round, subtrees with a standing counterpart **inherit** the
//!   recorded nearest-neighbor entry (key-translated); subtrees in the
//!   dirty cone run a fresh nearest-neighbor scan and may *take over* an
//!   inherited entry when strictly closer — the same supersession rule the
//!   incremental planner applies to newly registered subtrees.
//! * Selected pairs whose children both map onto a recorded merge (same
//!   log, same orientation) are **adopted**:
//!   [`MergeForest::adopt_merge`](astdme_engine::MergeForest::adopt_merge)
//!   clones the recorded result instead of re-running candidate-pair
//!   expansion. Everything else is merged fresh (bit-correct by
//!   construction).
//!
//! Embedding, repair, validation, and the audit then run exactly as the
//! staged pipeline does, so a flushed session is **bit-identical to a
//! from-scratch route of the edited instance** — same tree, same audit
//! report, at every thread count. Update latency is sublinear in `n` for
//! small edit sets: inherited entries cost `O(1)` each, and fresh scans
//! are bounded by a work budget. Moves, retunes, inserts, and deletes all
//! replay; a flush falls back to a full reroute only when the RC
//! technology or the group bounds change, when a cached session's
//! normalization anchor drifts, or when an edit storm exhausts the
//! budget ([`EcoStats::reroute_reason`] says which).
//!
//! Replay is recorded for [`MergeStage::Flat`] plans under
//! [`MergeOrder::MultiMerge`] (the default of every router except the
//! stitching strawman); other plans still flush correctly via a full
//! reroute each time.
//!
//! # Caching
//!
//! A session created with [`EcoSession::with_cache`] routes in the same
//! translation-normalized frame as [`run_with_cache`](crate::run_with_cache)
//! and keeps the cache coherent: every flushed tree is fingerprinted and
//! inserted, and a flush whose edited instance is already cached (e.g.
//! an edit that returns to a previously routed placement) is satisfied by
//! splicing — bit-identical to the cached pipeline's hit path. Session
//! creation never *consults* the cache (it must route fresh to produce
//! the replay recording); outcomes are a pure function of instance and
//! plan, never of cache state, so this costs correctness nothing.
//!
//! # Example
//!
//! ```
//! use astdme_core::eco::{EcoEdit, EcoSession};
//! use astdme_core::{AstDme, Groups, Instance, Point, RcParams, Sink};
//!
//! let sinks: Vec<Sink> = (0..8)
//!     .map(|i| Sink::new(Point::new(400.0 * i as f64, (i % 2) as f64 * 300.0), 1e-14))
//!     .collect();
//! let groups = Groups::from_assignments((0..8).map(|i| i % 2).collect(), 2)?;
//! let inst = Instance::new(sinks, groups, RcParams::default(), Point::new(0.0, 2500.0))?;
//!
//! let mut session = EcoSession::new(&inst, AstDme::new().plan())?;
//! let before = session.outcome().tree.total_wirelength();
//! session.queue(EcoEdit::Move { sink: 3, to: Point::new(1180.0, 40.0) });
//! session.queue(EcoEdit::Retune { sink: 5, cap: 2e-14 });
//! let out = session.flush()?;
//! assert_eq!(out.tree.sink_nodes().count(), 8);
//! # let _ = before;
//! # Ok::<(), astdme_core::RouteError>(())
//! ```

use crate::stopwatch::Stopwatch;

use astdme_cache::{region_fingerprint, CachedRegion, SubtreeCache};
use astdme_delay::{DelayModel, RcParams};
use astdme_engine::{
    audit, repair_group_skew, GroupId, Groups, Instance, MergeForest, MergeRecording, NodeId, Sink,
    NO_NODE,
};
use astdme_geom::Point;
use astdme_topo::{
    pair_score, plan_round, round_limit, score_bits, select_disjoint, MergeOrder, MergePlanner,
    NnSnapshotRow, TopoConfig, BRUTE_FORCE_CUTOFF,
};

use crate::drivers::{ForestSpace, MergeTrace};
use crate::pipeline::{
    derive_grouping, validate_tree, MergeStage, RouteOutcome, RouteStats, StagePlan, StageStats,
    REPAIR_ITERS,
};
use crate::{allocmeter, pipeline, RouteError};

/// Sentinel in the dense active-position table: the key is not active.
const NO_POS: u32 = u32::MAX;
/// Sentinel in the child → merge-log index: the node is never a child.
const NO_LOG: u32 = u32::MAX;

/// One queued engineering-change-order edit. Sink indices refer to the
/// session's instance *at the point the edit applies* — edits in a batch
/// apply sequentially, so a [`EcoEdit::Delete`] shifts the indices later
/// edits in the same batch see, exactly like `Vec::remove`.
///
/// Moves, retunes, inserts, and deletes replay incrementally: only the
/// touched sinks' merge-path cones are recomputed. [`EcoEdit::RetuneRc`]
/// changes every merge's delays and always forces a full reroute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EcoEdit {
    /// Move a sink to a new position.
    Move {
        /// Index of the sink to move.
        sink: usize,
        /// New placement.
        to: Point,
    },
    /// Change a sink's load capacitance.
    Retune {
        /// Index of the sink to retune.
        sink: usize,
        /// New load capacitance (F).
        cap: f64,
    },
    /// Add a sink to an existing group (appended at the highest index).
    Insert {
        /// The new sink.
        sink: Sink,
        /// The group it joins (must already exist).
        group: GroupId,
    },
    /// Remove a sink (later sinks shift down by one).
    Delete {
        /// Index of the sink to remove.
        sink: usize,
    },
    /// Replace the instance's interconnect technology parameters.
    RetuneRc(RcParams),
}

/// What one [`EcoSession::flush`] did, for observability and the bench's
/// reused-region accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EcoStats {
    /// Edits in the flushed batch.
    pub edits: usize,
    /// Sinks the batch touched, net after cancelling edits: inserted
    /// ones, surviving ones whose position or load changed, and deleted
    /// ones. A replayed flush counts in the routed frame.
    pub dirty_sinks: usize,
    /// Merges satisfied by adopting a recorded merge bit-for-bit.
    pub adopted_merges: usize,
    /// Merges recomputed fresh (the dirty cone).
    pub fresh_merges: usize,
    /// Planning rounds replayed against the recorded nearest-neighbor
    /// snapshots.
    pub replayed_rounds: usize,
    /// Planning rounds re-planned from scratch (brute-force tail rounds
    /// and rounds the recording could not cover).
    pub planned_rounds: usize,
    /// Whether the flush fell back to a full pipeline reroute; always
    /// `reroute_reason.is_some()`.
    pub full_reroute: bool,
    /// Why the flush fell back to a full reroute, if it did.
    pub reroute_reason: Option<RerouteReason>,
    /// Whether the flush was satisfied by a subtree-cache hit.
    pub cache_hit: bool,
    /// Whether the batch was a net no-op (standing tree returned
    /// unchanged, by reference).
    pub noop: bool,
    /// Wall-clock seconds of the whole flush.
    pub seconds: f64,
}

/// Why an [`EcoSession::flush`] fell back to a full pipeline reroute
/// instead of replaying the standing route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteReason {
    /// A [`EcoEdit::RetuneRc`] changed the interconnect technology, which
    /// changes every merge's delays.
    RcChanged,
    /// The groups' skew bounds changed, which changes every merge's
    /// feasibility.
    BoundsChanged,
    /// In a cached session, the edit moved the bounding-box minimum corner
    /// the normalized frame is anchored at (or the frame could not be
    /// reproduced), so clean sinks no longer land on their recorded
    /// coordinates.
    AnchorDrift,
    /// The replay's fresh nearest-neighbor scans exhausted the work
    /// budget.
    ScanBudget,
    /// The plan's merge loop is not recorded (greedy order or the
    /// per-group stitching script).
    NotRecordable,
    /// The session holds no recording to replay (the previous flush was a
    /// cache hit).
    NoRecording,
    /// A replayed round selected no pair to merge.
    EmptyRound,
}

/// One planning round of the standing route: the planner's
/// nearest-neighbor table right after the round was planned (rows in
/// active order), or `grid: false` for brute-force tail rounds, which
/// replay by re-planning (cheap: at most [`BRUTE_FORCE_CUTOFF`] subtrees).
#[derive(Debug, Clone)]
struct RoundSnap {
    grid: bool,
    rows: Vec<NnSnapshotRow>,
}

/// Everything a flush needs to replay the standing route: the routed
/// (framed, regrouped) instance, its merge forest, and the per-round /
/// per-merge script.
struct Recording {
    /// `Some((x_bits, y_bits))` of the normalization anchor when the
    /// session routes in the cached pipeline's translation-normalized
    /// frame; `None` for raw-frame (uncached) sessions.
    anchor: Option<(u64, u64)>,
    routed: Instance,
    forest: MergeForest,
    merges: MergeRecording,
    rounds: Vec<RoundSnap>,
}

/// A live routed instance accepting batched sink edits. See the
/// [module docs](self) for the lifecycle.
pub struct EcoSession {
    plan: StagePlan,
    cache: Option<SubtreeCache>,
    inst: Instance,
    outcome: RouteOutcome,
    rec: Option<Recording>,
    queue: Vec<EcoEdit>,
    last_flush: EcoStats,
}

impl EcoSession {
    /// Routes `inst` under `plan` (with replay recording when the plan
    /// supports it) and opens the session.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the initial route fails.
    pub fn new(inst: &Instance, plan: StagePlan) -> Result<Self, RouteError> {
        Self::build(inst, plan, None)
    }

    /// Like [`EcoSession::new`], routing in the content-addressed cache's
    /// normalized frame and keeping `cache` coherent across flushes (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the initial route fails.
    pub fn with_cache(
        inst: &Instance,
        plan: StagePlan,
        cache: SubtreeCache,
    ) -> Result<Self, RouteError> {
        Self::build(inst, plan, Some(cache))
    }

    fn build(
        inst: &Instance,
        plan: StagePlan,
        cache: Option<SubtreeCache>,
    ) -> Result<Self, RouteError> {
        let (outcome, rec) = route_full(inst, &plan, cache.as_ref())?;
        Ok(Self {
            plan,
            cache,
            inst: inst.clone(),
            outcome,
            rec,
            queue: Vec::new(),
            last_flush: EcoStats::default(),
        })
    }

    /// Queues an edit. Write-optimized: a push, no routing work until
    /// [`EcoSession::flush`].
    pub fn queue(&mut self, edit: EcoEdit) {
        self.queue.push(edit);
    }

    /// The queued, not-yet-flushed edits, in application order.
    pub fn pending(&self) -> &[EcoEdit] {
        &self.queue
    }

    /// The session's current instance (queued edits not applied).
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The standing routed outcome (as of the last flush).
    pub fn outcome(&self) -> &RouteOutcome {
        &self.outcome
    }

    /// Statistics of the most recent [`EcoSession::flush`].
    pub fn last_flush(&self) -> EcoStats {
        self.last_flush
    }

    /// Applies the queued batch: computes the net edited instance,
    /// invalidates the dirty region, re-plans it against the recorded
    /// route, and splices the repaired region back. Returns the standing
    /// outcome — **bit-identical to a from-scratch route of the edited
    /// instance** under the session's plan (and cache mode).
    ///
    /// An empty (or net no-op) batch returns the standing outcome by
    /// reference without routing anything.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::BadParameter`] for an out-of-range sink index
    /// or unknown group, and propagates routing errors. A failed flush
    /// discards the batch and leaves the standing route unchanged.
    pub fn flush(&mut self) -> Result<&RouteOutcome, RouteError> {
        let t0 = Stopwatch::start();
        let edits = std::mem::take(&mut self.queue);
        let mut stats = EcoStats {
            edits: edits.len(),
            ..EcoStats::default()
        };
        if edits.is_empty() {
            stats.noop = true;
            stats.seconds = t0.seconds();
            self.last_flush = stats;
            return Ok(&self.outcome);
        }
        let (edited, origin) = apply_edits(&self.inst, &edits)?;
        if instance_bits_equal(&edited, &self.inst) {
            stats.noop = true;
            stats.seconds = t0.seconds();
            self.last_flush = stats;
            return Ok(&self.outcome);
        }
        let global = if !rc_bits_equal(edited.rc(), self.inst.rc()) {
            Some(RerouteReason::RcChanged)
        } else if !bits_equal(edited.groups().bounds(), self.inst.groups().bounds()) {
            Some(RerouteReason::BoundsChanged)
        } else {
            None
        };
        let map = leaf_map(&edited, &self.inst, &origin);
        stats.dirty_sinks = touched_sinks(&map, &origin, self.inst.sink_count());
        let (outcome, rec) = route_edited(
            &self.plan,
            self.cache.as_ref(),
            self.rec.as_ref(),
            &edited,
            &origin,
            global,
            &mut stats,
        )?;
        self.inst = edited;
        self.outcome = outcome;
        self.rec = rec;
        stats.seconds = t0.seconds();
        self.last_flush = stats;
        Ok(&self.outcome)
    }
}

/// Whether the plan's merge loop can be recorded and replayed: one flat
/// loop under multi-merge ordering. (Greedy ordering would snapshot one
/// nearest-neighbor table per merge — `O(n²)` memory; the per-group
/// script runs several loops over one forest.) Other plans flush via a
/// full reroute.
fn recordable(plan: &StagePlan) -> bool {
    plan.merge == MergeStage::Flat && matches!(plan.topo.order, MergeOrder::MultiMerge { .. })
}

fn sink_bits_equal(a: &Sink, b: &Sink) -> bool {
    a.pos.x.to_bits() == b.pos.x.to_bits()
        && a.pos.y.to_bits() == b.pos.y.to_bits()
        && a.cap.to_bits() == b.cap.to_bits()
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn rc_bits_equal(a: &RcParams, b: &RcParams) -> bool {
    a.r_per_um().to_bits() == b.r_per_um().to_bits()
        && a.c_per_um().to_bits() == b.c_per_um().to_bits()
}

fn instance_bits_equal(a: &Instance, b: &Instance) -> bool {
    a.sink_count() == b.sink_count()
        && a.sinks()
            .iter()
            .zip(b.sinks())
            .all(|(x, y)| sink_bits_equal(x, y))
        && a.groups().group_count() == b.groups().group_count()
        && a.groups().assignment() == b.groups().assignment()
        && bits_equal(a.groups().bounds(), b.groups().bounds())
        && rc_bits_equal(a.rc(), b.rc())
}

/// The leaf map of an edited instance onto the standing one: edited sink
/// `i` maps to standing sink `origin[i]` when it survived the batch with
/// its position, load, and group intact, else (inserted or changed) to
/// [`NO_NODE`].
fn leaf_map(edited: &Instance, standing: &Instance, origin: &[Option<usize>]) -> Vec<u32> {
    origin
        .iter()
        .enumerate()
        .map(|(i, &o)| match o {
            Some(o)
                if sink_bits_equal(&edited.sinks()[i], &standing.sinks()[o])
                    && edited.group_of(i) == standing.group_of(o) =>
            {
                o as u32
            }
            _ => NO_NODE,
        })
        .collect()
}

/// Sinks a batch touched: the unmapped edited sinks (inserted or changed)
/// plus the deleted standing sinks (those no edited sink came from).
fn touched_sinks(map: &[u32], origin: &[Option<usize>], standing_n: usize) -> usize {
    let unmapped = map.iter().filter(|&&m| m == NO_NODE).count();
    unmapped + standing_n - origin.iter().flatten().count()
}

/// Applies the batch sequentially to the standing instance and rebuilds a
/// validated [`Instance`]. Bounds and the source are preserved. Also
/// returns, per edited sink, the standing index it came from (`None` for
/// an inserted sink).
fn apply_edits(
    standing: &Instance,
    edits: &[EcoEdit],
) -> Result<(Instance, Vec<Option<usize>>), RouteError> {
    let mut sinks = standing.sinks().to_vec();
    let mut origin: Vec<Option<usize>> = (0..sinks.len()).map(Some).collect();
    let mut assignment = standing.groups().assignment();
    let mut rc = *standing.rc();
    let group_count = standing.groups().group_count();
    for (i, edit) in edits.iter().enumerate() {
        match *edit {
            EcoEdit::Move { sink, to } => {
                let len = sinks.len();
                sinks
                    .get_mut(sink)
                    .ok_or_else(|| bad_edit(i, "moves", sink, len))?
                    .pos = to;
            }
            EcoEdit::Retune { sink, cap } => {
                let len = sinks.len();
                sinks
                    .get_mut(sink)
                    .ok_or_else(|| bad_edit(i, "retunes", sink, len))?
                    .cap = cap;
            }
            EcoEdit::Insert { sink, group } => {
                if group.index() >= group_count {
                    return Err(RouteError::BadParameter(format!(
                        "ECO edit {i} inserts into group {} of a {group_count}-group instance",
                        group.index()
                    )));
                }
                sinks.push(sink);
                assignment.push(group.index());
                origin.push(None);
            }
            EcoEdit::Delete { sink } => {
                if sink >= sinks.len() {
                    return Err(bad_edit(i, "deletes", sink, sinks.len()));
                }
                sinks.remove(sink);
                assignment.remove(sink);
                origin.remove(sink);
            }
            EcoEdit::RetuneRc(params) => rc = params,
        }
    }
    let groups = Groups::from_assignments(assignment, group_count)?
        .with_bounds(standing.groups().bounds().to_vec())?;
    let edited = Instance::new(sinks, groups, rc, standing.source())?;
    Ok((edited, origin))
}

fn bad_edit(i: usize, verb: &str, sink: usize, len: usize) -> RouteError {
    RouteError::BadParameter(format!(
        "ECO edit {i} {verb} out-of-range sink {sink} (instance has {len})"
    ))
}

/// Routes the edited instance, cheapest strategy first: subtree-cache
/// splice, then recorded replay, then full reroute. `global` names an
/// edit that changes every merge (RC technology or bounds), which no
/// replay can survive.
fn route_edited(
    plan: &StagePlan,
    cache: Option<&SubtreeCache>,
    standing: Option<&Recording>,
    edited: &Instance,
    origin: &[Option<usize>],
    global: Option<RerouteReason>,
    stats: &mut EcoStats,
) -> Result<Routed, RouteError> {
    // Cached sessions: a flush whose edited instance is already memoized
    // splices it, bit-identical to the cached pipeline's hit path. (For
    // non-recordable plans the pipeline call below does its own lookup.)
    if let (Some(cache), true) = (cache, recordable(plan)) {
        let bb = edited.bounding_box();
        let (ax, ay) = (bb.x0(), bb.y0());
        if let Ok(norm) = edited.translated(-ax, -ay) {
            let (key, verify) = region_fingerprint(&norm, &plan.fingerprint_words());
            if let Some(region) = cache.lookup(key, verify, norm.sink_count()) {
                stats.cache_hit = true;
                let model = plan.model.unwrap_or(DelayModel::elmore(*edited.rc()));
                let tree = region.splice(Point::new(ax, ay), edited.source());
                validate_tree(&tree, edited)?;
                let report = audit(&tree, edited, &model);
                let mut rstats = RouteStats {
                    cache_hit: true,
                    cache_hits: 1,
                    ..RouteStats::default()
                };
                rstats.merge.rounds = region.rounds;
                rstats.merge.merges = region.merges;
                rstats.repair.repair_iterations = region.repair_iterations;
                // The standing recording described the pre-edit instance;
                // the next flush starts from a full (recording) reroute.
                return Ok((
                    RouteOutcome {
                        tree,
                        report,
                        stats: rstats,
                    },
                    None,
                ));
            }
        }
    }
    let reason = match (global, standing) {
        _ if !recordable(plan) => RerouteReason::NotRecordable,
        (Some(reason), _) => reason,
        (None, None) => RerouteReason::NoRecording,
        (None, Some(rec)) => match try_replay(plan, cache, rec, edited, origin, stats)? {
            Ok(done) => return Ok(done),
            Err(reason) => reason,
        },
    };
    stats.reroute_reason = Some(reason);
    stats.full_reroute = true;
    let (mut outcome, recording) = route_full(edited, plan, cache)?;
    if cache.is_some() && outcome.stats.cache_hits == 0 {
        outcome.stats.cache_misses = outcome.stats.cache_misses.max(1);
    }
    Ok((outcome, recording))
}

/// A full route of `inst`, recording the merge script when the plan
/// supports replay.
fn route_full(
    inst: &Instance,
    plan: &StagePlan,
    cache: Option<&SubtreeCache>,
) -> Result<Routed, RouteError> {
    if !recordable(plan) {
        let outcome = match cache {
            Some(c) => pipeline::run_with_cache(inst, plan, c)?,
            None => pipeline::run(inst, plan)?,
        };
        return Ok((outcome, None));
    }
    match cache {
        None => route_recorded(inst, plan, None),
        Some(c) => {
            let bb = inst.bounding_box();
            let (ax, ay) = (bb.x0(), bb.y0());
            match inst.translated(-ax, -ay) {
                // Mirrors `run_with_cache`: an instance whose normalization
                // overflows silently routes raw (and skips the cache).
                Err(_) => route_recorded(inst, plan, None),
                Ok(norm) => route_recorded(inst, plan, Some((norm, Point::new(ax, ay), c))),
            }
        }
    }
}

/// The recording twin of the staged pipeline: same stages, same order,
/// same arithmetic — plus per-round planner snapshots and per-merge logs.
/// `framed` carries the normalized instance, the anchor, and the cache
/// for cached-frame sessions; `None` routes in the raw frame.
///
/// No fault checkpoints fire here: ECO sessions are not supported inside
/// fault-injection contexts (the fleet/robustness harnesses own those).
fn route_recorded(
    inst: &Instance,
    plan: &StagePlan,
    framed: Option<(Instance, Point, &SubtreeCache)>,
) -> Result<Routed, RouteError> {
    let mut stats = RouteStats::default();

    // Stage 1: group (and fingerprint, in the cached frame).
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let base = framed.as_ref().map_or(inst, |(norm, _, _)| norm);
    let fingerprint = framed
        .as_ref()
        .map(|(norm, _, _)| region_fingerprint(norm, &plan.fingerprint_words()));
    let regrouped = derive_grouping(base, plan)?;
    let routed_against = regrouped.unwrap_or_else(|| base.clone());
    let model = plan.model.unwrap_or(DelayModel::elmore(*inst.rc()));
    stats.group.seconds = t0.seconds();
    stats.group.allocs = allocmeter::current().saturating_sub(a0);

    // Stage 2: plan/merge, recorded.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let mut forest = MergeForest::for_instance_with_model(&routed_against, model, plan.engine);
    let leaves = forest.leaves();
    let (root, trace, merges, rounds) = merge_until_one_recorded(&mut forest, leaves, &plan.topo);
    stats.merge = StageStats {
        seconds: t0.seconds(),
        rounds: trace.rounds,
        merges: trace.merges,
        repair_iterations: 0,
        allocs: allocmeter::current().saturating_sub(a0),
    };

    // Stage 3: embed.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let tree = forest.embed(root, routed_against.source());
    stats.embed.seconds = t0.seconds();
    stats.embed.allocs = allocmeter::current().saturating_sub(a0);

    // Stage 4: repair.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let tree = if forest.residual() <= plan.engine.skew_tol {
        tree
    } else {
        let repaired = repair_group_skew(
            &tree,
            &routed_against,
            &model,
            plan.engine.skew_tol,
            REPAIR_ITERS,
        );
        stats.repair.repair_iterations = repaired.iterations;
        repaired.tree
    };
    stats.repair.seconds = t0.seconds();
    stats.repair.allocs = allocmeter::current().saturating_sub(a0);

    // Final assembly: raw trees validate in place; cached-frame trees are
    // captured as a region, spliced back (the same single splice call as
    // the cached pipeline), and inserted after validation.
    let (tree, anchor) = match &framed {
        None => {
            validate_tree(&tree, inst)?;
            (tree, None)
        }
        Some((norm, anchor, cache)) => {
            let (key, verify) = fingerprint.expect("fingerprint computed with the frame");
            let region = CachedRegion {
                verify,
                sink_count: norm.sink_count(),
                nodes: tree.nodes().to_vec(),
                rounds: trace.rounds,
                merges: trace.merges,
                repair_iterations: stats.repair.repair_iterations,
            };
            let tree = region.splice(*anchor, inst.source());
            validate_tree(&tree, inst)?;
            cache.insert(key, region);
            (tree, Some((anchor.x.to_bits(), anchor.y.to_bits())))
        }
    };

    // Stage 5: audit — always against the original instance.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let report = audit(&tree, inst, &model);
    stats.audit.seconds = t0.seconds();
    stats.audit.allocs = allocmeter::current().saturating_sub(a0);

    let recording = Recording {
        anchor,
        routed: routed_against,
        forest,
        merges,
        rounds,
    };
    Ok((
        RouteOutcome {
            tree,
            report,
            stats,
        },
        Some(recording),
    ))
}

/// [`merge_until_one_traced`](crate::merge_until_one_traced) plus the
/// replay script: per-round planner snapshots (grid regime only — tail
/// rounds re-plan cheaply) and per-merge [`MergeLog`](astdme_engine::MergeLog)s.
fn merge_until_one_recorded(
    forest: &mut MergeForest,
    start: Vec<NodeId>,
    topo: &TopoConfig,
) -> (NodeId, MergeTrace, MergeRecording, Vec<RoundSnap>) {
    assert!(!start.is_empty(), "need at least one subtree to merge");
    let mut rec = MergeRecording::for_forest(forest);
    let mut rounds = Vec::new();
    if start.len() == 1 {
        return (start[0], MergeTrace::default(), rec, rounds);
    }
    let keys: Vec<usize> = start.iter().map(|n| n.index()).collect();
    let mut planner = MergePlanner::new(&ForestSpace::new(forest), &keys, *topo);
    let mut trace = MergeTrace::default();
    let mut round: Vec<(usize, usize, usize)> = Vec::new();
    while planner.len() > 1 {
        let pairs = planner.plan_round(&ForestSpace::new(forest));
        assert!(!pairs.is_empty(), "planner must make progress");
        // Snapshot *after* planning (caches are flushed, rows are what the
        // round selected from), *before* the merges mutate the forest.
        rounds.push(if planner.in_grid_regime() {
            RoundSnap {
                grid: true,
                rows: planner.nn_snapshot(),
            }
        } else {
            RoundSnap {
                grid: false,
                rows: Vec::new(),
            }
        });
        round.clear();
        for (a, b) in pairs {
            let m = forest.merge_recorded(NodeId::from_index(a), NodeId::from_index(b), &mut rec);
            round.push((a, b, m.index()));
        }
        planner.apply_round(&ForestSpace::new(forest), &round);
        trace.rounds += 1;
        trace.merges += round.len();
    }
    (NodeId::from_index(planner.sole_key()), trace, rec, rounds)
}

/// A routed outcome and the recording the next flush replays against.
type Routed = (RouteOutcome, Option<Recording>);

/// Attempts a replayed flush. `Ok(Err(reason))` means the replay could
/// not run (anchor drift, work budget exhausted) — fall back to a full
/// reroute.
fn try_replay(
    plan: &StagePlan,
    cache: Option<&SubtreeCache>,
    rec: &Recording,
    edited: &Instance,
    origin: &[Option<usize>],
    stats: &mut EcoStats,
) -> Result<Result<Routed, RerouteReason>, RouteError> {
    let mut rstats = RouteStats::default();

    // Stage 1: frame and group the edited instance like the recording.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let framed_owned;
    let mut anchor: Option<Point> = None;
    let framed: &Instance = match (rec.anchor, cache) {
        (None, None) => edited,
        (Some((axb, ayb)), Some(_)) => {
            let bb = edited.bounding_box();
            // The anchor must not drift: normalization must subtract the
            // exact same bits as the standing route, or clean sinks would
            // land on different normalized coordinates.
            if (bb.x0().to_bits(), bb.y0().to_bits()) != (axb, ayb) {
                return Ok(Err(RerouteReason::AnchorDrift));
            }
            let Ok(norm) = edited.translated(-bb.x0(), -bb.y0()) else {
                return Ok(Err(RerouteReason::AnchorDrift));
            };
            anchor = Some(Point::new(bb.x0(), bb.y0()));
            framed_owned = norm;
            &framed_owned
        }
        // A cached session whose normalization overflowed routed raw.
        _ => return Ok(Err(RerouteReason::AnchorDrift)),
    };
    let regrouped = derive_grouping(framed, plan)?;
    let routed_edited = regrouped.unwrap_or_else(|| framed.clone());
    let model = plan.model.unwrap_or(DelayModel::elmore(*edited.rc()));
    // The leaf map and the touched set, in the routed frame.
    let map = leaf_map(&routed_edited, &rec.routed, origin);
    stats.dirty_sinks = touched_sinks(&map, origin, rec.routed.sink_count());
    rstats.group.seconds = t0.seconds();
    rstats.group.allocs = allocmeter::current().saturating_sub(a0);

    // Stage 2: the replay proper.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let rep = match replay_merges(rec, &routed_edited, model, plan, &map, stats.dirty_sinks) {
        Ok(rep) => rep,
        Err(reason) => return Ok(Err(reason)),
    };
    rstats.merge = StageStats {
        seconds: t0.seconds(),
        rounds: rep.trace.rounds,
        merges: rep.trace.merges,
        repair_iterations: 0,
        allocs: allocmeter::current().saturating_sub(a0),
    };
    stats.adopted_merges = rep.adopted;
    stats.fresh_merges = rep.fresh;
    stats.replayed_rounds = rep.replayed_rounds;
    stats.planned_rounds = rep.planned_rounds;

    // Stage 3: embed.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let tree = rep.forest.embed(rep.root, routed_edited.source());
    rstats.embed.seconds = t0.seconds();
    rstats.embed.allocs = allocmeter::current().saturating_sub(a0);

    // Stage 4: repair.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let tree = if rep.forest.residual() <= plan.engine.skew_tol {
        tree
    } else {
        let repaired = repair_group_skew(
            &tree,
            &routed_edited,
            &model,
            plan.engine.skew_tol,
            REPAIR_ITERS,
        );
        rstats.repair.repair_iterations = repaired.iterations;
        repaired.tree
    };
    rstats.repair.seconds = t0.seconds();
    rstats.repair.allocs = allocmeter::current().saturating_sub(a0);

    // Assembly: cached-frame trees are captured, spliced, and inserted
    // (this flush's lookup already missed — count it).
    let tree = match (cache, anchor) {
        (Some(cache), Some(anchor)) => {
            let (key, verify) = region_fingerprint(framed, &plan.fingerprint_words());
            let region = CachedRegion {
                verify,
                sink_count: framed.sink_count(),
                nodes: tree.nodes().to_vec(),
                rounds: rep.trace.rounds,
                merges: rep.trace.merges,
                repair_iterations: rstats.repair.repair_iterations,
            };
            let tree = region.splice(anchor, edited.source());
            validate_tree(&tree, edited)?;
            cache.insert(key, region);
            rstats.cache_misses = 1;
            tree
        }
        _ => {
            validate_tree(&tree, edited)?;
            tree
        }
    };

    // Stage 5: audit.
    let t0 = Stopwatch::start();
    let a0 = allocmeter::current();
    let report = audit(&tree, edited, &model);
    rstats.audit.seconds = t0.seconds();
    rstats.audit.allocs = allocmeter::current().saturating_sub(a0);

    let recording = Recording {
        anchor: rec.anchor,
        routed: routed_edited,
        forest: rep.forest,
        merges: rep.merges,
        rounds: rep.rounds,
    };
    Ok(Ok((
        RouteOutcome {
            tree,
            report,
            stats: rstats,
        },
        Some(recording),
    )))
}

/// The result of a successful merge replay.
struct Replayed {
    forest: MergeForest,
    root: NodeId,
    trace: MergeTrace,
    merges: MergeRecording,
    rounds: Vec<RoundSnap>,
    adopted: usize,
    fresh: usize,
    replayed_rounds: usize,
    planned_rounds: usize,
}

/// Replays the recorded merge script against the edited instance.
///
/// Per round, each active subtree is classified against the recorded
/// nearest-neighbor snapshot:
///
/// * **inherited** — the subtree has a standing counterpart, the
///   counterpart is in the round's snapshot, and the recorded neighbor's
///   counterpart is still active: reuse the recorded `(neighbor,
///   region-distance, score)` verbatim (`O(1)`);
/// * **stale** — counterpart exists but its recorded neighbor was
///   consumed: fresh nearest-neighbor scan (exactly what the incremental
///   planner's dirty-list requery computes);
/// * **novel** — no counterpart (the dirty cone): fresh scan, *and* the
///   subtree may take over any inherited entry it sits strictly closer
///   to, mirroring the planner's supersession rule for newly registered
///   subtrees. (Mapped counterparts never take over: their effect on
///   clean entries is already baked into the standing snapshots.)
///
/// Pair selection then ranks every entry by the planner's `(score bits,
/// lo, hi)` key and takes disjoint pairs up to the round limit —
/// the planner's exact selection semantics. Selected pairs whose children
/// both map onto one recorded merge (same orientation) are adopted
/// bit-for-bit; the rest merge fresh. Fresh scans are charged against a
/// work budget of `(64·n + 65536) · max(k, 1)` subtree visits for `k`
/// touched (inserted, changed, or deleted) sinks — the scans are what the
/// dirty cone costs, so the allowance scales with it; exhausting the
/// budget returns [`RerouteReason::ScanBudget`] (fall back to a full
/// reroute) so flush latency stays bounded even when a replay
/// degenerates.
///
/// `leaf_map[i]` is edited leaf `i`'s standing counterpart, or
/// [`NO_NODE`]. Returns [`RerouteReason::EmptyRound`] if a round selected
/// no pair — never the case for well-formed recordings, but cheap to
/// guard.
fn replay_merges(
    rec: &Recording,
    edited: &Instance,
    model: DelayModel,
    plan: &StagePlan,
    leaf_map: &[u32],
    touched: usize,
) -> Result<Replayed, RerouteReason> {
    let topo = &plan.topo;
    let n = edited.sink_count();
    let mut forest = MergeForest::for_instance_with_model(edited, model, plan.engine);
    let leaves = forest.leaves();
    let mut out_rec = MergeRecording::for_forest(&forest);
    if n == 1 {
        return Ok(Replayed {
            root: leaves[0],
            forest,
            trace: MergeTrace::default(),
            merges: out_rec,
            rounds: Vec::new(),
            adopted: 0,
            fresh: 0,
            replayed_rounds: 0,
            planned_rounds: 0,
        });
    }

    let std_nodes = rec.forest.node_count();
    // Bidirectional node translation: clean leaves map through the leaf
    // map; adopted merges extend the maps as they land.
    let mut std_to_new: Vec<u32> = vec![NO_NODE; std_nodes];
    let mut new_to_std: Vec<u32> = leaf_map.to_vec();
    for (i, &o) in leaf_map.iter().enumerate() {
        if o != NO_NODE {
            std_to_new[o as usize] = i as u32;
        }
    }
    // Which recorded merge consumed each standing node as a child.
    let mut log_of_child: Vec<u32> = vec![NO_LOG; std_nodes];
    for (li, log) in rec.merges.logs().iter().enumerate() {
        log_of_child[log.a as usize] = li as u32;
        log_of_child[log.b as usize] = li as u32;
    }
    // Per-round row lookup over the snapshot (stamped, reused each round).
    let mut row_stamp: Vec<u32> = vec![0; std_nodes];
    let mut row_slot: Vec<u32> = vec![0; std_nodes];

    // Active set with the exact swap_remove discipline both drivers use —
    // active order is what breaks exact score ties, so it must match.
    let mut active: Vec<usize> = leaves.iter().map(|l| l.index()).collect();
    let mut pos: Vec<u32> = vec![NO_POS; n];
    for (i, &k) in active.iter().enumerate() {
        pos[k] = i as u32;
    }

    let mut out_rounds: Vec<RoundSnap> = Vec::new();
    let mut trace = MergeTrace::default();
    let (mut adopted, mut fresh) = (0usize, 0usize);
    let (mut replayed_rounds, mut planned_rounds) = (0usize, 0usize);
    let mut scan_work: u64 = 0;
    let scan_budget: u64 = (64 * n as u64 + 65_536) * touched.max(1) as u64;

    let mut round_idx = 0usize;
    while active.len() > 1 {
        let n_present = active.len();
        let snap = rec
            .rounds
            .get(round_idx)
            .filter(|s| s.grid && n_present > BRUTE_FORCE_CUTOFF);
        let pairs: Vec<(usize, usize)> = match snap {
            None => {
                // Tail rounds (and rounds the recording cannot cover):
                // re-plan from scratch — the reference planner, which the
                // incremental planner is equivalence-tested against.
                planned_rounds += 1;
                out_rounds.push(RoundSnap {
                    grid: false,
                    rows: Vec::new(),
                });
                let pairs = plan_round(&ForestSpace::new(&forest), &active, topo);
                assert!(!pairs.is_empty(), "planner must make progress");
                pairs
            }
            Some(snap) => {
                replayed_rounds += 1;
                let stamp = round_idx as u32 + 1;
                for (ri, row) in snap.rows.iter().enumerate() {
                    if row.key < std_nodes {
                        row_stamp[row.key] = stamp;
                        row_slot[row.key] = ri as u32;
                    }
                }
                let mut nn_of: Vec<Option<(usize, f64, u64)>> = vec![None; n_present];
                let mut inherited = vec![false; n_present];
                let mut refresh: Vec<usize> = Vec::new();
                let mut novel: Vec<usize> = Vec::new();
                for (ai, &x) in active.iter().enumerate() {
                    let m = new_to_std[x];
                    if m == NO_NODE || row_stamp[m as usize] != stamp {
                        refresh.push(ai);
                        novel.push(ai);
                        continue;
                    }
                    let row = &snap.rows[row_slot[m as usize] as usize];
                    let valid = row.nn.and_then(|(v, rd, score)| {
                        let sv = *std_to_new.get(v)?;
                        if sv == NO_NODE {
                            return None;
                        }
                        let sv = sv as usize;
                        (sv < pos.len() && pos[sv] != NO_POS).then_some((sv, rd, score))
                    });
                    match valid {
                        Some(t) => {
                            nn_of[ai] = Some(t);
                            inherited[ai] = true;
                        }
                        None => refresh.push(ai),
                    }
                }
                scan_work += (refresh.len() + novel.len()) as u64 * n_present as u64;
                if scan_work > scan_budget {
                    return Err(RerouteReason::ScanBudget);
                }
                {
                    let space = ForestSpace::new(&forest);
                    // Fresh own-neighbor scans: exact region-distance
                    // argmin, first-wins in active order (the brute-force
                    // planner's tie rule).
                    for &ai in &refresh {
                        let x = active[ai];
                        let rx = forest.representative_region(NodeId::from_index(x));
                        let mut best: Option<(usize, f64)> = None;
                        for &y in &active {
                            if y == x {
                                continue;
                            }
                            let d =
                                rx.distance(&forest.representative_region(NodeId::from_index(y)));
                            if best.is_none_or(|(_, bd)| d < bd) {
                                best = Some((y, d));
                            }
                        }
                        let (v, rd) = best.expect("two or more active subtrees");
                        let exact =
                            forest.merge_distance(NodeId::from_index(x), NodeId::from_index(v));
                        let (lo, hi) = if x < v { (x, v) } else { (v, x) };
                        nn_of[ai] =
                            Some((v, rd, score_bits(pair_score(&space, topo, lo, hi, exact))));
                    }
                    // Takeover: a novel subtree strictly closer than an
                    // inherited entry's recorded neighbor supersedes it.
                    for &ci in &novel {
                        let d = active[ci];
                        let rd_region = forest.representative_region(NodeId::from_index(d));
                        for ui in 0..n_present {
                            if ui == ci || !inherited[ui] {
                                continue;
                            }
                            let Some((_, urd, _)) = nn_of[ui] else {
                                continue;
                            };
                            let u = active[ui];
                            let nd = forest
                                .representative_region(NodeId::from_index(u))
                                .distance(&rd_region);
                            if nd < urd {
                                let exact = forest
                                    .merge_distance(NodeId::from_index(u), NodeId::from_index(d));
                                let (lo, hi) = if u < d { (u, d) } else { (d, u) };
                                nn_of[ui] = Some((
                                    d,
                                    nd,
                                    score_bits(pair_score(&space, topo, lo, hi, exact)),
                                ));
                            }
                        }
                    }
                }
                // Rank by the planner's (score bits, lo, hi) key and take
                // disjoint pairs up to the round limit.
                let mut ranked: Vec<(u64, usize, usize)> = Vec::with_capacity(n_present);
                for (ai, &x) in active.iter().enumerate() {
                    let (v, _, score) = nn_of[ai].ok_or(RerouteReason::EmptyRound)?;
                    let (lo, hi) = if x < v { (x, v) } else { (v, x) };
                    ranked.push((score, lo, hi));
                }
                ranked.sort_unstable();
                ranked.dedup();
                let pairs = select_disjoint(
                    ranked.iter().map(|&(_, a, b)| (a, b)),
                    round_limit(topo.order, n_present),
                );
                if pairs.is_empty() {
                    return Err(RerouteReason::EmptyRound);
                }
                // The replay's own snapshot, in the new id space, so the
                // next flush replays off this route.
                out_rounds.push(RoundSnap {
                    grid: true,
                    rows: active
                        .iter()
                        .enumerate()
                        .map(|(ai, &x)| NnSnapshotRow {
                            key: x,
                            nn: nn_of[ai],
                        })
                        .collect(),
                });
                pairs
            }
        };

        for &(x, y) in &pairs {
            let mx = new_to_std[x];
            let my = new_to_std[y];
            let mut adopted_as: Option<(NodeId, u32)> = None;
            if mx != NO_NODE && my != NO_NODE {
                let li = log_of_child[mx as usize];
                if li != NO_LOG && li == log_of_child[my as usize] {
                    let log = &rec.merges.logs()[li as usize];
                    // Orientation matters: merge(a, b) != merge(b, a) in
                    // candidate layout, so only the recorded orientation
                    // reproduces what a from-scratch run would execute.
                    if log.a == mx && log.b == my {
                        if let Some(m) = forest.adopt_merge(
                            NodeId::from_index(x),
                            NodeId::from_index(y),
                            &rec.forest,
                            log,
                            &rec.merges,
                            &std_to_new,
                            Some(&mut out_rec),
                        ) {
                            adopted_as = Some((m, log.result));
                        }
                    }
                }
            }
            let m = match adopted_as {
                Some((m, result)) => {
                    adopted += 1;
                    std_to_new[result as usize] = m.index() as u32;
                    m
                }
                None => {
                    fresh += 1;
                    forest.merge_recorded(
                        NodeId::from_index(x),
                        NodeId::from_index(y),
                        &mut out_rec,
                    )
                }
            };
            let mk = m.index();
            for k in [x, y] {
                let i = pos[k] as usize;
                pos[k] = NO_POS;
                active.swap_remove(i);
                if i < active.len() {
                    pos[active[i]] = i as u32;
                }
            }
            if mk >= pos.len() {
                pos.resize(mk + 1, NO_POS);
            }
            pos[mk] = active.len() as u32;
            active.push(mk);
            if mk >= new_to_std.len() {
                new_to_std.resize(mk + 1, NO_NODE);
            }
            if let Some((_, result)) = adopted_as {
                new_to_std[mk] = result;
            }
        }
        trace.rounds += 1;
        trace.merges += pairs.len();
        round_idx += 1;
    }

    Ok(Replayed {
        root: NodeId::from_index(active[0]),
        forest,
        trace,
        merges: out_rec,
        rounds: out_rounds,
        adopted,
        fresh,
        replayed_rounds,
        planned_rounds,
    })
}
