//! Candidate-pair selection: shared-constraint assembly, merge-cost
//! estimation, and the cheapest-first ranking that decides which child
//! candidate pairs a merge expands.
//!
//! Ranking does its per-candidate work once per merge, not once per pair:
//! every child candidate's class entries are derived up front, so pricing
//! a pair is a merge-join of two precomputed slices. Only the best
//! `pair_limit` pairs are kept while walking the pairs, and on well-formed
//! inputs a pair whose region distance alone already loses is never priced
//! (see [`MergeForest::rank_candidate_pairs`]).

use astdme_delay::{intersect_delta_windows, SharedConstraint};

use crate::{DelayMap, MergeForest};

use super::context::{class_of_in, MergeCtx, Scratch};
use super::NodeId;

/// Per-class adjusted delay hull of a delay map:
/// `(class, adj_lo, adj_hi, min member bound)`.
pub(crate) type ClassEntry = (u32, f64, f64, f64);

/// A ranked child-candidate pair: `(estimated cost, index in a, index in b)`.
pub(crate) type RankedPair = (f64, usize, usize);

/// Largest magnitude of a class entry field (delay or bound) for which the
/// ranking's distance skip is taken: a sum of three such values cannot overflow,
/// so every constraint window and conflict spread the estimate derives
/// from them stays finite.
const TAME: f64 = f64::MAX / 8.0;

/// Appends the per-class adjusted delay hulls of `delays` to `out`,
/// ascending by class. The single implementation behind constraint
/// assembly, pair ranking and class fusing. With group fusion off every
/// class is its own group at offset zero, so the entries are the map's
/// own ranges.
pub(crate) fn effective_entries_into(
    class_parent: &[u32],
    phi: &[f64],
    bounds: &[f64],
    delays: &DelayMap,
    out: &mut Vec<ClassEntry>,
) {
    let start = out.len();
    for (g, r) in delays.iter() {
        let c = class_of_in(class_parent, g);
        out.push((
            c,
            r.lo - phi[g.index()],
            r.hi - phi[g.index()],
            bounds[g.index()],
        ));
    }
    // Sort once, then coalesce same-class runs in place: O(C log C)
    // instead of a linear `find` per group (hulling is order-independent,
    // so this matches the old first-occurrence merge exactly).
    out[start..].sort_unstable_by_key(|(c, ..)| *c);
    let mut w = start;
    for i in start..out.len() {
        if w > start && out[w - 1].0 == out[i].0 {
            out[w - 1].1 = out[w - 1].1.min(out[i].1);
            out[w - 1].2 = out[w - 1].2.max(out[i].2);
            out[w - 1].3 = out[w - 1].3.min(out[i].3);
        } else {
            out[w] = out[i];
            w += 1;
        }
    }
    out.truncate(w);
}

/// Shared-class constraints of two entry lists (each ascending by class),
/// into `cons` (cleared first): a merge-join on the class.
fn join_entries(ea: &[ClassEntry], eb: &[ClassEntry], cons: &mut Vec<SharedConstraint>) {
    cons.clear();
    let (mut i, mut j) = (0, 0);
    while i < ea.len() && j < eb.len() {
        match ea[i].0.cmp(&eb[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                cons.push(SharedConstraint {
                    lo_a: ea[i].1,
                    hi_a: ea[i].2,
                    lo_b: eb[j].1,
                    hi_b: eb[j].2,
                    bound: ea[i].3.min(eb[j].3),
                });
                i += 1;
                j += 1;
            }
        }
    }
}

impl MergeCtx<'_> {
    /// Appends the class entries of `delays` under this context's class
    /// state (see [`effective_entries_into`]).
    fn class_entries_into(&self, delays: &DelayMap, out: &mut Vec<ClassEntry>) {
        effective_entries_into(self.class_parent, self.phi, self.bounds, delays, out);
    }

    /// Shared-group constraints between two candidates, into
    /// `scratch.cons` (cleared first), reusing `scratch`'s entry buffers —
    /// the sole entry point, so every caller shares one buffer set instead
    /// of allocating per call. With group fusion on, constraints are per
    /// effective class over offset-adjusted delays; otherwise per original
    /// group.
    pub(crate) fn shared_constraints_in(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) {
        scratch.ea.clear();
        scratch.eb.clear();
        self.class_entries_into(&self.cand(a, ia).delays, &mut scratch.ea);
        self.class_entries_into(&self.cand(b, ib).delays, &mut scratch.eb);
        join_entries(&scratch.ea, &scratch.eb, &mut scratch.cons);
    }

    /// Estimated wire cost of merging one candidate pair: the geometric
    /// distance plus any snaking the shared-group δ-windows force, plus a
    /// proxy for offset-conflict resolution cost. This is what makes the
    /// engine prefer offset-compatible partners — the quantity the paper's
    /// "minimum merging-cost" scheme needs on difficult instances.
    ///
    /// Takes an explicit [`Scratch`] so the constraint assembly reuses the
    /// caller's buffers instead of allocating per call.
    pub(crate) fn pair_cost_estimate(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) -> f64 {
        let (ca, cb) = (self.cand(a, ia), self.cand(b, ib));
        let d = ca.region.distance(&cb.region);
        self.shared_constraints_in(a, b, ia, ib, scratch);
        self.cost_from_constraints(d, ca.cap, cb.cap, &scratch.cons)
    }

    /// The estimate of [`MergeCtx::pair_cost_estimate`] from the pair's
    /// region distance `d`, child loads and shared constraints.
    ///
    /// Every branch returns `d` or more: `max(d, ·)` with a number `d` is
    /// never NaN, and `d + extension` adds a non-negative extension. The
    /// extension is finite or `+inf` whenever its delay argument is finite
    /// and the load is a non-negative number, which the ranking's distance
    /// skip checks before it relies on this.
    fn cost_from_constraints(
        &self,
        d: f64,
        cap_a: f64,
        cap_b: f64,
        cons: &[SharedConstraint],
    ) -> f64 {
        match intersect_delta_windows(cons, self.cfg.skew_tol) {
            Some(None) => d,
            Some(Some(w)) => {
                let mut need = d;
                if w.lo() > 0.0 {
                    need = need.max(self.model.extension_for_delay(w.lo(), cap_a));
                }
                if w.hi() < 0.0 {
                    need = need.max(self.model.extension_for_delay(-w.hi(), cap_b));
                }
                need
            }
            None => {
                // Conflict: the windows' spread must be paid as relative
                // shifts somewhere inside a child. Approximate with the
                // wire needed to realize the full spread against the
                // smaller load.
                let (mut mid_lo, mut mid_hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for c in cons {
                    let mid = 0.5 * ((c.hi_b - c.lo_a - c.bound) + (c.bound + c.lo_b - c.hi_a));
                    mid_lo = mid_lo.min(mid);
                    mid_hi = mid_hi.max(mid);
                }
                let spread = mid_hi - mid_lo;
                d + self
                    .model
                    .extension_for_delay(spread.max(0.0), cap_a.min(cap_b))
            }
        }
    }
}

impl MergeForest {
    /// Ranks the child-candidate pairs of `a` × `b` cheapest-first by
    /// estimated merge cost, into `out` (cleared first), and keeps the
    /// `pair_limit` best.
    ///
    /// The list equals a stable `total_cmp` sort of every pair's cost in
    /// index order (`ia` major), truncated by the NaN rule and then to
    /// `pair_limit`. One walk over the pairs in index order keeps that
    /// sort's first `pair_limit` entries: an insert goes after every kept
    /// cost that is no greater, so equal costs stay in index order.
    ///
    /// * **Distance skip** — when every child load is a non-negative number
    ///   and every class entry is within [`TAME`], a pair with a finite
    ///   region distance that is already no better than the last kept cost
    ///   is not priced: the estimate is never below the distance, and a
    ///   later pair with an equal cost ranks after the earlier one.
    /// * **NaN rule** — `total_cmp`, not `partial_cmp`: a NaN cost must
    ///   surface as a deterministic ordering and ultimately as an audit
    ///   failure, not as a panic deep inside a merge round. As long as any
    ///   non-NaN pair ranks first, NaN pairs are dropped so poisoned
    ///   estimates never reach expansion (where their NaN wirelengths would
    ///   panic the pruning sort); an all-NaN ranking keeps the first pair
    ///   and lets the audit flag the poisoned result downstream. Applying
    ///   the rule to the kept prefix gives the same list as applying it to
    ///   the full sort and then truncating.
    pub(super) fn rank_candidate_pairs(&mut self, a: NodeId, b: NodeId, out: &mut Vec<RankedPair>) {
        out.clear();
        let k = self.cfg.pair_limit;
        if k == 0 {
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let ctx = self.ctx();
        let (ca, cb) = (&self.nodes[a.0].cands, &self.nodes[b.0].cands);
        // Class entries of a's candidates then b's, concatenated; candidate
        // `i` of the concatenation owns `ents[ends[i - 1]..ends[i]]`.
        let (ents, ends) = (&mut scratch.ents, &mut scratch.ent_ends);
        ents.clear();
        ends.clear();
        for c in ca.iter().chain(cb) {
            ctx.class_entries_into(&c.delays, ents);
            ends.push(ents.len());
        }
        let tame = ca.iter().chain(cb).all(|c| c.cap >= 0.0 && c.cap <= TAME)
            && ents
                .iter()
                .all(|e| e.1.abs() <= TAME && e.2.abs() <= TAME && e.3.abs() <= TAME);
        let entries = |i: usize| &ents[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
        let cons = &mut scratch.cons;
        for (ia, x) in ca.iter().enumerate() {
            for (ib, y) in cb.iter().enumerate() {
                let d = x.region.distance(&y.region);
                let full = out.len() == k;
                let loses = |cost: f64| full && cost.total_cmp(&out[k - 1].0).is_ge();
                if tame && d.is_finite() && loses(d) {
                    continue;
                }
                join_entries(entries(ia), entries(ca.len() + ib), cons);
                let cost = ctx.cost_from_constraints(d, x.cap, y.cap, cons);
                debug_assert!(
                    !(tame && d.is_finite()) || cost.total_cmp(&d).is_ge(),
                    "estimate {cost} below distance {d}"
                );
                if loses(cost) {
                    continue;
                }
                let at = out.partition_point(|p| p.0.total_cmp(&cost).is_le());
                if full {
                    out.pop();
                }
                out.insert(at, (cost, ia, ib));
            }
        }
        let keep = match out.first() {
            Some(p) if p.0.is_nan() => 1,
            _ => out.iter().position(|p| p.0.is_nan()).unwrap_or(out.len()),
        };
        out.truncate(keep);
        self.scratch = scratch;
    }
}
