//! The incremental merge planner: near-linear bottom-up merge ordering.
//!
//! [`plan_round`](crate::plan_round) is a from-scratch planner: every call
//! rebuilds the grid index, re-queries every nearest neighbor, and re-ranks
//! every pair, making the driving loop O(n²)–O(n³) over a whole routing
//! run. [`MergePlanner`] keeps that work alive across rounds:
//!
//! * the [`GridIndex`] is built **once** and maintained by removal and
//!   insertion (with amortized rebuilds when the active set halves or
//!   region extents outgrow the cell size, keeping queries local);
//! * each active subtree caches its nearest neighbor; a merge invalidates
//!   only the entries whose neighbor was consumed (re-queried against the
//!   grid) plus a bounded grid range query deciding whether the newly
//!   created subtree became anyone's nearest neighbor (bounded by the
//!   largest cached neighbor distance, tracked in a lazy max-heap);
//! * candidate pairs live in a lazy min-heap keyed by (score, keys), so a
//!   greedy round peeks the best live pair in O(1)-ish time — no sorting,
//!   no ordered-set rebalancing, stale entries dropped on contact;
//! * the active set itself is a dense vector with a position map —
//!   removal is `swap_remove`, never an O(n) `retain`.
//!
//! # Batched maintenance and the dense-key invariant
//!
//! Merges are reported back per **round** via
//! [`MergePlanner::apply_round`] (with [`MergePlanner::apply_merge`] as
//! the single-merge convenience): the whole round's removals and
//! insertions are applied first, then *one* maintenance sweep runs —
//! a single `current_max_rd` bound computation, one bounded takeover
//! range-query per new subtree against the final grid, and one amortized
//! rebuild check — instead of per-merge churn. When a round replaces a
//! large fraction of the active set (Edahiro-style multi-merging pairs
//! off ~a quarter of the subtrees per round), incremental patching is
//! slower than starting over, so past [`ROUND_REFRESH_DIVISOR`] the sweep
//! switches to a **refresh**: patch the grid per merge (amortized rebuilds
//! as usual) and re-derive every neighbor cache, reusing the cached pair
//! score whenever
//! a subtree's neighbor did not change (which skips the expensive exact
//! `MergeSpace::distance` refinement — the bulk of a from-scratch round).
//!
//! All per-key state lives in flat vectors indexed by key (`NO_POS`
//! sentinel for inactive): the planner assumes **dense keys** — merged
//! subtrees get fresh keys that grow by roughly one per merge, as forest
//! node indices do — so a `Vec` position map replaces the old `HashMap`s
//! (`pos`, `pair_info`, `rev`) without a memory blow-up, and steady-state
//! maintenance performs no hashing and (thanks to recycled back-reference
//! buffers) no allocation. Pair scores are stored on the neighbor cache
//! itself: a pair is in the ranking set iff at least one endpoint caches
//! the other, and both endpoints derive bit-identical score keys, so the
//! old refcounted `pair_info` map is redundant.
//!
//! The planner produces the **same pair sequence** as the from-scratch
//! reference on every instance (modulo exact ties in region distance,
//! which are measure-zero for real placements): below
//! `BRUTE_FORCE_CUTOFF` active subtrees it delegates to `plan_round`
//! outright, and above it the cached neighbors are exactly the neighbors a
//! fresh grid query would return. The equivalence — and the equivalence of
//! batched `apply_round` to a sequence of `apply_merge` calls — is pinned
//! down by the property tests in `tests/planner_equiv.rs`.
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`mod@self`] | [`MergePlanner`]: construction, accessors, [`MergePlanner::plan_round`] / [`MergePlanner::apply_round`] orchestration |
//! | `keys` | the dense key tables: position map growth, active-set removal/insertion, back-reference invalidation |
//! | `pairs` | the pair ranking: score folding, the lazy min-heap, the flat post-refresh ranking, round selection |
//! | `points` | the point-update maintenance path: dirty-cache flushes, neighbor takeover scans, the takeover bound |
//! | `refresh` | bulk maintenance: the initial derivation, the multi-merge refresh sweep, amortized grid rebuilds |
//! | `tail` | the brute-force tail below the cutoff, with its memoized distance matrix |

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use astdme_geom::Trr;

use crate::plan::{round_limit, select_disjoint, BRUTE_FORCE_CUTOFF};
use crate::{GridIndex, MergeSpace, TopoConfig};

mod keys;
mod pairs;
mod points;
mod refresh;
mod tail;
#[cfg(test)]
mod tests;

use tail::BfMemo;

/// Sentinel in the dense `pos` map: the key is not active.
const NO_POS: u32 = u32::MAX;

/// Sentinel in the `dirty` list: no re-query seed available.
const NO_HINT: usize = usize::MAX;

/// When one round's merges replace at least `1/ROUND_REFRESH_DIVISOR` of
/// the surviving active set, [`MergePlanner::apply_round`] refreshes the
/// whole neighbor structure instead of patching it: the patching constant
/// (takeover range queries, invalidation re-queries) exceeds the refresh
/// cost once most caches are invalidated anyway. Multi-merge rounds
/// (fraction ≥ ~1/8) always refresh; greedy rounds (one merge) never do
/// above the brute-force cutoff.
const ROUND_REFRESH_DIVISOR: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Nn {
    /// The neighbor's key.
    key: usize,
    /// Representative-region distance to it (the grid's metric, used to
    /// decide whether a new subtree supersedes the cached neighbor).
    region_dist: f64,
    /// Folded score bits of the `(lo, hi)` pair this cache references.
    /// Both endpoints of a pair derive bit-identical scores (the exact
    /// distance is symmetric), so membership of the pair in the ranking
    /// set is simply "some endpoint caches the other" — no refcount map.
    score: u64,
}

#[derive(Debug)]
struct Entry {
    key: usize,
    region: Trr,
    nn: Option<Nn>,
}

/// One row of [`MergePlanner::nn_snapshot`]: an active subtree plus its
/// cached nearest neighbor, if one is cached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnSnapshotRow {
    /// The active subtree's key.
    pub key: usize,
    /// Cached neighbor as `(neighbor key, region distance, folded score
    /// bits)` — the exact triple the planner ranks the pair by (see
    /// [`score_bits`](crate::score_bits)).
    pub nn: Option<(usize, f64, u64)>,
}

/// Stateful, incremental merge planner (see the module docs).
///
/// Drive it with [`MergePlanner::plan_round`] /
/// [`MergePlanner::apply_round`] (or per-merge
/// [`MergePlanner::apply_merge`]):
///
/// ```
/// use astdme_geom::{Point, Trr};
/// use astdme_topo::{MergePlanner, MergeSpace, TopoConfig};
///
/// struct Pts(Vec<Point>);
/// impl MergeSpace for Pts {
///     fn region(&self, id: usize) -> Trr { Trr::from_point(self.0[id]) }
///     fn distance(&self, a: usize, b: usize) -> f64 { self.0[a].dist(self.0[b]) }
///     fn delay(&self, _id: usize) -> f64 { 0.0 }
/// }
///
/// let mut space = Pts(vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(10.0, 0.0),
/// ]);
/// let mut planner = MergePlanner::new(&space, &[0, 1, 2], TopoConfig::greedy());
/// while planner.len() > 1 {
///     let mut round = Vec::new();
///     for (a, b) in planner.plan_round(&space) {
///         // "Merge": a new point midway, registered as a fresh key.
///         let m = space.0.len();
///         let (pa, pb) = (space.0[a], space.0[b]);
///         space.0.push(Point::new(0.5 * (pa.x + pb.x), 0.5 * (pa.y + pb.y)));
///         round.push((a, b, m));
///     }
///     planner.apply_round(&space, &round);
/// }
/// assert_eq!(planner.len(), 1);
/// ```
#[derive(Debug)]
pub struct MergePlanner {
    cfg: TopoConfig,
    entries: Vec<Entry>,
    /// key → index into `entries` (`NO_POS` = inactive). Flat and dense:
    /// see the module docs for the dense-key invariant.
    pos: Vec<u32>,
    grid: GridIndex,
    /// Active count and max extent at the last grid (re)build; when the
    /// set halves or extents quadruple, the grid is rebuilt so cell size
    /// and query bounds track the surviving subtrees.
    built_len: usize,
    built_extent: f64,
    /// Current nearest-neighbor pairs as a lazy min-heap over
    /// `(score, lo, hi)` — the exact ranking the from-scratch planner
    /// sorts into. Entries are never removed eagerly: a pair is live iff
    /// some endpoint still caches the other at the recorded score
    /// ([`MergePlanner::pair_live`]); stale tops are popped at selection.
    /// Lazy deletion beats an ordered set here because the point-update
    /// path only ever needs the *minimum* live pair (greedy rounds), so
    /// maintenance is an O(1)-ish push instead of tree rebalancing.
    /// Unused (empty) while `sorted_valid`: a refresh stores the ranking
    /// as the flat `sorted_pairs` instead, and the heap is only
    /// materialized when the incremental maintenance path next needs
    /// point updates ([`MergePlanner::ensure_heap`]).
    pairs: BinaryHeap<Reverse<(u64, usize, usize)>>,
    /// Sorted, deduplicated pair ranking as of the last refresh; the
    /// active representation while `sorted_valid`. Selection walks this
    /// vector — no tree nodes are built in the refresh regime, where the
    /// whole ranking is replaced every round anyway.
    sorted_pairs: Vec<(u64, usize, usize)>,
    sorted_valid: bool,
    /// key → keys whose cached neighbor is that key (lazily validated),
    /// dense-indexed like `pos`. Inner buffers are recycled through
    /// `rev_pool` when their key is consumed.
    rev: Vec<Vec<u32>>,
    rev_pool: Vec<Vec<u32>>,
    /// Keys whose neighbor cache must be refilled from the grid, paired
    /// with a seed hint (`NO_HINT` when there is none): the key of the
    /// merged subtree that consumed the old neighbor. The merge result
    /// sits where the old neighbor was, so seeding the re-query with it
    /// collapses the ring expansion to the immediate neighborhood.
    dirty: Vec<(usize, usize)>,
    /// Lazy max-heap over `(region_dist bits, key)` of every cached
    /// neighbor ever set; stale tops are popped on demand. Its maximum
    /// bounds how far a new subtree can "take over" an existing cache,
    /// which bounds the insertion range query.
    rd_heap: BinaryHeap<(u64, usize)>,
    /// Reused round buffers (new keys of the round; takeover victims).
    round_new: Vec<usize>,
    takeover_buf: Vec<(usize, f64)>,
    /// Reused refresh staging: consumed key → merge result, sorted.
    consumed_buf: Vec<(usize, usize)>,
    /// Reused refresh staging: per new key (offset by the round's smallest
    /// new key), the first sweep entry that picked it as neighbor plus
    /// their region distance — the seed for the new key's own re-query.
    seed_buf: Vec<(u32, f64)>,
    /// Memoized exact pair distances for the brute-force tail
    /// (`n <=` [`BRUTE_FORCE_CUTOFF`]). Subtrees are immutable, so entries
    /// never go stale; the matrix stays tiny (pairs among the final few
    /// dozen subtrees).
    bf_cache: BfMemo,
    /// Whether `rev` and `rd_heap` reflect the current caches. A refresh
    /// re-derives every cache without maintaining either (the refresh
    /// regime never reads them); the point-update path rebuilds both on
    /// demand ([`MergePlanner::ensure_point_mode`]).
    point_valid: bool,
    /// Set by [`MergePlanner::new`], cleared by the first flush or apply:
    /// while fresh, the initial neighbor derivation can go through the
    /// bulk path ([`MergePlanner::bulk_derive`]) instead of per-entry
    /// point updates.
    fresh: bool,
}

impl MergePlanner {
    /// Builds a planner over the subtrees in `active` (keys must be
    /// unique). Costs one grid build plus one neighbor query per subtree —
    /// the same work as a single from-scratch round.
    pub fn new<S: MergeSpace>(space: &S, active: &[usize], cfg: TopoConfig) -> Self {
        let entries: Vec<Entry> = active
            .iter()
            .map(|&k| Entry {
                key: k,
                region: space.region(k),
                nn: None,
            })
            .collect();
        let items: Vec<(usize, Trr)> = entries.iter().map(|e| (e.key, e.region)).collect();
        let grid = GridIndex::build(&items);
        let max_key = active.iter().copied().max().unwrap_or(0);
        assert!(max_key < NO_POS as usize, "planner keys must fit u32");
        let mut pos = vec![NO_POS; max_key + 1];
        for (i, e) in entries.iter().enumerate() {
            // Hard assert (matching merge_until_one_from_scratch): a
            // duplicate key would silently corrupt `pos`/the grid and hang
            // the merge loop in release builds.
            assert!(pos[e.key] == NO_POS, "duplicate planner key {}", e.key);
            pos[e.key] = i as u32;
        }
        let built_extent = grid.max_extent();
        let dirty = entries.iter().map(|e| (e.key, NO_HINT)).collect();
        let rev = vec![Vec::new(); pos.len()];
        Self {
            cfg,
            built_len: entries.len(),
            entries,
            pos,
            grid,
            built_extent,
            pairs: BinaryHeap::new(),
            sorted_pairs: Vec::new(),
            sorted_valid: false,
            rev,
            rev_pool: Vec::new(),
            dirty,
            rd_heap: BinaryHeap::new(),
            round_new: Vec::new(),
            takeover_buf: Vec::new(),
            consumed_buf: Vec::new(),
            seed_buf: Vec::new(),
            bf_cache: BfMemo::default(),
            point_valid: true,
            fresh: true,
        }
    }

    /// Number of active subtrees.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no subtrees remain (only possible before any were added).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The single surviving key.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one subtree remains.
    pub fn sole_key(&self) -> usize {
        assert_eq!(
            self.entries.len(),
            1,
            "planner still holds multiple subtrees"
        );
        self.entries[0].key
    }

    /// Whether the planner is above the brute-force cutoff, i.e. the last
    /// [`MergePlanner::plan_round`] at the current size went through the
    /// grid-backed nearest-neighbor caches (whose state
    /// [`MergePlanner::nn_snapshot`] captures) rather than the exact
    /// all-pairs tail.
    pub fn in_grid_regime(&self) -> bool {
        self.entries.len() > BRUTE_FORCE_CUTOFF
    }

    /// Snapshot of every active subtree's cached nearest neighbor, in the
    /// planner's internal active order (the order exact ties break by).
    ///
    /// Meaningful immediately after [`MergePlanner::plan_round`] in the
    /// grid regime (see [`MergePlanner::in_grid_regime`]), when every
    /// cache has just been flushed: the rows are then exactly the pair
    /// ranking the round was selected from. Replay drivers (the ECO flush
    /// path) record this per round to re-derive later rounds without
    /// re-planning.
    pub fn nn_snapshot(&self) -> Vec<NnSnapshotRow> {
        self.entries
            .iter()
            .map(|e| NnSnapshotRow {
                key: e.key,
                nn: e.nn.map(|nn| (nn.key, nn.region_dist, nn.score)),
            })
            .collect()
    }

    /// Plans one merge round over the current active set: disjoint pairs,
    /// best first, exactly as [`plan_round`](crate::plan_round) would
    /// return them. Does not modify the active set — report merges back
    /// via [`MergePlanner::apply_round`] / [`MergePlanner::apply_merge`].
    pub fn plan_round<S: MergeSpace>(&mut self, space: &S) -> Vec<(usize, usize)> {
        let n = self.entries.len();
        if n < 2 {
            return Vec::new();
        }
        if n <= BRUTE_FORCE_CUTOFF {
            return self.plan_tail(space);
        }
        self.flush_dirty(space);
        let limit = round_limit(self.cfg.order, n);
        if self.sorted_valid {
            select_disjoint(self.sorted_pairs.iter().map(|&(_, a, b)| (a, b)), limit)
        } else {
            self.select_from_heap(limit)
        }
    }

    /// Records that subtrees `a` and `b` were merged into the new subtree
    /// `merged`. Equivalent to `apply_round(space, &[(a, b, merged)])` —
    /// batch a whole round through [`MergePlanner::apply_round`] when it
    /// has more than one merge.
    pub fn apply_merge<S: MergeSpace>(&mut self, space: &S, a: usize, b: usize, merged: usize) {
        self.apply_round(space, &[(a, b, merged)]);
    }

    /// Applies one whole round of merges `(a, b, merged)` and then runs a
    /// single maintenance sweep: one combined invalidation pass, one
    /// takeover bound, one bounded range query per new subtree, and one
    /// amortized grid-upkeep check — or a wholesale refresh when the round
    /// replaced a large fraction of the active set (see the module docs).
    ///
    /// Produces the same observable state as applying the merges one at a
    /// time (modulo exact region-distance ties).
    pub fn apply_round<S: MergeSpace>(&mut self, space: &S, merges: &[(usize, usize, usize)]) {
        if merges.is_empty() {
            return;
        }
        self.fresh = false;
        // Each merge nets one fewer active subtree.
        let final_len = self.entries.len() - merges.len();
        if merges.len() * ROUND_REFRESH_DIVISOR >= final_len {
            // A round this large (multi-merge) invalidates nearly every
            // cache — merged subtrees are exactly the popular neighbors —
            // so patching would re-derive almost everything through the
            // point-update machinery. The refresh rebuilds the ranking and
            // every cache in bulk instead (seeded by this round's merges);
            // the per-merge bookkeeping that would be thrown away (pair
            // unreferencing, back-reference invalidation, takeover
            // queries) is skipped here — only the active set and the grid
            // are updated.
            for &(a, b, m) in merges {
                self.drop_key(a);
                self.drop_key(b);
                self.add_key_deferred(space, m);
            }
            self.refresh(space, merges);
            return;
        }
        self.ensure_point_mode();
        let mut fresh = std::mem::take(&mut self.round_new);
        fresh.clear();
        for &(a, b, m) in merges {
            // `m` seeds the re-queries of caches that pointed at `a`/`b`.
            self.remove_key(a, m);
            self.remove_key(b, m);
            self.register_key(space, m);
            fresh.push(m);
        }
        // Neighbor takeover: a new subtree may now be the nearest
        // neighbor (by region distance, the grid's metric) of existing
        // entries. Only entries whose cached neighbor is *farther*
        // than the new region can be affected.
        if merges.len() == 1 {
            // One new subtree: a single grid range query bounded by the
            // largest cached distance finds every victim.
            if let Some(bound) = self.current_max_rd() {
                for &m in &fresh {
                    self.takeover_from(space, m, bound);
                }
            }
        } else {
            self.takeover_round(space, &fresh);
        }
        self.maybe_rebuild();
        self.round_new = fresh;
    }
}
