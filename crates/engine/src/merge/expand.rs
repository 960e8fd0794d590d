//! Candidate-pair expansion, the overlay commit, pruning, and the delay
//! maps of the pruned survivors.
//!
//! Split from `mod.rs` (which keeps the `merge` orchestration): this file
//! owns the expand -> commit -> prune half of a merge. Ranked pairs are
//! expanded in order, each against its own
//! [`MergeCtx`](super::context::MergeCtx); merged candidates are appended
//! straight into one buffer, and an expansion's overlay is committed
//! before the next pair only when it derived candidates on existing
//! nodes. See the module docs in `context.rs` for why the overlay's
//! indices are final.

use crate::{CandKind, Candidate};

use super::context::Overlay;
use super::pairing::RankedPair;
use super::{MergeForest, NodeId};

impl MergeForest {
    /// Expands every ranked pair in order, appending the merged candidates
    /// to `out` with their delay maps still empty (see
    /// [`MergeForest::fill_delays`]). Returns the worst skew residual the
    /// expansions incurred.
    ///
    /// With `appends` given, records the per-node append slices
    /// `(node, start, len)` the overlay commits wrote, in first-touch
    /// order — the raw material of a [`MergeLog`](super::MergeLog).
    pub(super) fn expand_pairs(
        &mut self,
        a: NodeId,
        b: NodeId,
        pairs: &[RankedPair],
        out: &mut Vec<Candidate>,
        mut appends: Option<&mut Vec<(u32, u32, u32)>>,
    ) -> f64 {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut worst_residual = 0.0f64;
        for &(_, ia, ib) in pairs {
            let mut ctx = self.ctx();
            let residual = ctx.expand_pair(a, b, ia, ib, &mut scratch, out);
            worst_residual = worst_residual.max(residual);
            let overlay = ctx.into_overlay();
            if !overlay.is_empty() {
                self.commit_overlay(overlay, appends.as_deref_mut());
            }
        }
        self.scratch = scratch;
        worst_residual
    }

    /// Appends an expansion's overlay candidates to their nodes in overlay
    /// order. The overlay numbered each node's candidates from the node's
    /// count when the expansion started, so they land at exactly the
    /// indices their provenance (and the merged candidates) already use.
    fn commit_overlay(&mut self, overlay: Overlay, mut appends: Option<&mut Vec<(u32, u32, u32)>>) {
        for (n, cand) in overlay.into_entries() {
            if let Some(log) = appends.as_deref_mut() {
                match log.iter_mut().find(|e| e.0 == n as u32) {
                    Some(e) => e.2 += 1,
                    None => log.push((n as u32, self.nodes[n].cands.len() as u32, 1)),
                }
            }
            self.nodes[n].push_candidate(cand);
        }
    }

    /// Builds the delay map of every merged candidate of `a` × `b` from its
    /// provenance. Runs after pruning, so only survivors pay for a map.
    pub(super) fn fill_delays(&self, a: NodeId, b: NodeId, cands: &mut [Candidate]) {
        let ctx = self.ctx();
        for c in cands {
            if let CandKind::Merge {
                cand_a,
                cand_b,
                ea,
                eb,
            } = c.kind
            {
                c.delays = ctx.merged_delays(a, b, cand_a, cand_b, ea, eb);
            }
        }
    }

    /// Keeps the `k` most promising candidates: cheapest wirelength first,
    /// larger regions (more downstream freedom) on ties. `total_cmp` so a
    /// poisoned (NaN) candidate sorts deterministically last instead of
    /// panicking — the audit reports the damage. Reads only `wirelen` and
    /// `region`, so it runs before the survivors' delay maps exist.
    pub(super) fn prune(cands: &mut Vec<Candidate>, k: usize) {
        cands.sort_by(|x, y| {
            let wl = x.wirelen.total_cmp(&y.wirelen);
            wl.then(y.region.diameter().total_cmp(&x.region.diameter()))
        });
        // Drop near-duplicates (same wirelen, same region within tolerance).
        cands.dedup_by(|x, y| {
            (x.wirelen - y.wirelen).abs() <= 1e-9 * (1.0 + y.wirelen)
                && x.region.hull(&y.region).half_perimeter() <= y.region.half_perimeter() + 1e-9
        });
        cands.truncate(k.max(1));
    }
}
