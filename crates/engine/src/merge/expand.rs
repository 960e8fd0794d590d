//! Candidate-pair expansion and the deterministic commit.
//!
//! Split from `mod.rs` (which keeps the `merge` orchestration): this file
//! owns the expand -> commit half of a merge — expanding ranked pairs
//! against their own [`MergeCtx`](super::context::MergeCtx) snapshots,
//! replaying each pair's overlay in ranked order so the committed
//! candidate contents *and indices* are fixed by the ranking alone, and
//! pruning the merged node's candidate list. See the module docs in `mod.rs` for the
//! borrow discipline that makes expansions independent.

use crate::{CandKind, Candidate};

use super::context::{Expansion, Scratch};
use super::{MergeForest, NodeId};

impl MergeForest {
    /// Expands every ranked pair against its own [`MergeCtx`], reusing the
    /// forest's scratch across all pairs so the hot path allocates no
    /// per-pair buffers.
    pub(super) fn expand_pairs(
        &mut self,
        a: NodeId,
        b: NodeId,
        pairs: &[(f64, usize, usize)],
    ) -> Vec<Expansion> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = pairs
            .iter()
            .map(|&(_, ia, ib)| self.expand_one(a, b, ia, ib, &mut scratch))
            .collect();
        self.scratch = scratch;
        out
    }

    fn expand_one(
        &self,
        a: NodeId,
        b: NodeId,
        ia: usize,
        ib: usize,
        scratch: &mut Scratch,
    ) -> Expansion {
        let mut ctx = self.ctx();
        let (cands, residual) = ctx.expand_pair(a, b, ia, ib, scratch);
        Expansion {
            cands,
            residual,
            overlay: ctx.into_overlay(),
        }
    }

    /// Commits expansions in ranked-pair order: overlay candidates are
    /// appended to their nodes and every overlay-local provenance index is
    /// remapped to its final position. Because expansions are computed
    /// against the pre-merge snapshot and replayed in pair order, the
    /// final candidate contents *and indices* are exactly what the old
    /// single-borrow serial loop produced.
    ///
    /// With `record` set, additionally returns the per-node append slices
    /// `(node, start, len)` this commit wrote (empty otherwise) — the raw
    /// material of a [`MergeLog`].
    pub(super) fn commit_expansions(
        &mut self,
        a: NodeId,
        b: NodeId,
        expansions: Vec<Expansion>,
        record: bool,
    ) -> (Vec<Candidate>, f64, Vec<(u32, u32, u32)>) {
        // Pre-commit candidate counts of every overlay-touched node: any
        // provenance index below the snapshot refers to a committed
        // candidate; anything at or above is overlay-local to its pair.
        // Expansions touch a handful of nodes, so `(node, count)`
        // association lists (reused via scratch) beat hash maps here.
        let mut snap = std::mem::take(&mut self.scratch.snap);
        snap.clear();
        for exp in &expansions {
            for n in exp.overlay.nodes() {
                if !snap.iter().any(|&(sn, _)| sn == n) {
                    snap.push((n, self.nodes[n].cands.len()));
                }
            }
        }
        fn lookup(list: &[(usize, usize)], node: usize) -> Option<usize> {
            list.iter().find(|&&(n, _)| n == node).map(|&(_, v)| v)
        }
        // Within one expansion's replay, a node's overlay candidates commit
        // at consecutive indices (nothing else touches the node), so the
        // remap only needs the node's candidate count at first touch.
        fn remap(
            bases: &[(usize, usize)],
            snap: &[(usize, usize)],
            node: usize,
            idx: usize,
        ) -> usize {
            match lookup(snap, node) {
                Some(s) if idx >= s => {
                    lookup(bases, node).expect("remapped node has a base") + (idx - s)
                }
                _ => idx,
            }
        }
        let mut bases = std::mem::take(&mut self.scratch.bases);
        let mut cands: Vec<Candidate> = Vec::new();
        let mut worst_residual = 0.0f64;
        for exp in expansions {
            worst_residual = worst_residual.max(exp.residual);
            // Committed index of this expansion's first overlay candidate,
            // per node.
            bases.clear();
            for (n, mut cand) in exp.overlay.into_entries() {
                if let CandKind::Merge { cand_a, cand_b, .. } = &mut cand.kind {
                    let (l, r) = self.nodes[n]
                        .children
                        .expect("overlay candidates extend merge nodes");
                    *cand_a = remap(&bases, &snap, l.0, *cand_a);
                    *cand_b = remap(&bases, &snap, r.0, *cand_b);
                }
                if !bases.iter().any(|&(bn, _)| bn == n) {
                    bases.push((n, self.nodes[n].cands.len()));
                }
                self.nodes[n].push_candidate(cand);
            }
            for mut cand in exp.cands {
                if let CandKind::Merge { cand_a, cand_b, .. } = &mut cand.kind {
                    *cand_a = remap(&bases, &snap, a.0, *cand_a);
                    *cand_b = remap(&bases, &snap, b.0, *cand_b);
                }
                cands.push(cand);
            }
        }
        let mut appends = Vec::new();
        if record {
            for &(n, pre) in snap.iter() {
                let now = self.nodes[n].cands.len();
                if now > pre {
                    appends.push((n as u32, pre as u32, (now - pre) as u32));
                }
            }
        }
        snap.clear();
        bases.clear();
        self.scratch.snap = snap;
        self.scratch.bases = bases;
        (cands, worst_residual, appends)
    }

    /// Keeps the `k` most promising candidates: cheapest wirelength first,
    /// larger regions (more downstream freedom) on ties. `total_cmp` so a
    /// poisoned (NaN) candidate sorts deterministically last instead of
    /// panicking — the audit reports the damage.
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
