//! The explicit merge context: an immutable view of the forest plus a
//! private candidate overlay, so candidate-pair expansion is a pure
//! function of pre-merge state.
//!
//! # Borrow discipline
//!
//! [`MergeForest::merge`](crate::MergeForest::merge) runs in two phases:
//!
//! 1. **Expansion** — every selected child-candidate pair is expanded
//!    against a [`MergeCtx`]: shared `&` borrows of the forest's nodes,
//!    model, config and class state, plus an owned [`Overlay`] where the
//!    offset-adjustment machinery parks any candidates it derives on
//!    *existing* nodes. Expansions never see each other's overlays (a
//!    pair's provenance chain predates the merge), so each one is a pure
//!    function of pre-merge state.
//! 2. **Commit** — back under `&mut self`, the forest replays each
//!    expansion's overlay in pair order, remapping overlay-local candidate
//!    indices to their final positions. This reproduces the exact indices
//!    the old single-borrow code produced, and it is the one place the
//!    forest mutates — so the ECO merge log records from here.
//!
//! [`Scratch`] buffers (constraint assembly) are threaded as
//! explicit `&mut` parameters rather than stored in the context, so a
//! context can hand out `&Candidate` borrows while a callee fills buffers.

use astdme_delay::{DelayModel, SharedConstraint};

use crate::{Candidate, EngineConfig, GroupId};

use super::node::Node;
use super::NodeId;

/// Reusable buffers for the hot constraint-assembly path
/// ([`MergeCtx::pair_cost_estimate`]): per-call `Vec` allocations in the
/// inner loop of `merge` showed up as a constant-factor tax, so the forest
/// carries one scratch set and reuses it across merges.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub(crate) ea: Vec<(u32, f64, f64, f64)>,
    pub(crate) eb: Vec<(u32, f64, f64, f64)>,
    pub(crate) cons: Vec<SharedConstraint>,
    /// Split-sample staging for `sample_candidates`.
    pub(crate) samples: Vec<f64>,
    /// Candidate-index-pair staging for `rank_candidate_pairs`.
    pub(crate) index_pairs: Vec<(usize, usize)>,
    /// Commit-phase node snapshots/bases (`commit_expansions`): small
    /// `(node, count)` association lists reused across merges.
    pub(crate) snap: Vec<(usize, usize)>,
    pub(crate) bases: Vec<(usize, usize)>,
}

/// Candidates derived on *existing* nodes during one pair expansion
/// (offset adjustment / wire sneaking), indexed past the node's pre-merge
/// candidate count. Owned by a [`MergeCtx`]; committed to the forest in
/// pair order afterwards.
///
/// Storage is three flat vectors (append list, intrusive per-node chain,
/// first-touch tail table) instead of a `HashMap<node, Vec<positions>>`:
/// an untouched overlay — the common case, one per candidate pair — costs
/// no allocation at all, and a touched one costs three `Vec`s regardless
/// of how many candidates a deep offset-adjustment recursion derives.
#[derive(Debug, Clone, Default)]
pub(crate) struct Overlay {
    /// `(node index, candidate)` in append order. Append order guarantees
    /// a candidate's overlay-local provenance indices refer to entries
    /// earlier in this list (children are derived before the parents that
    /// reference them), which is what lets the commit remap in one pass.
    added: Vec<(usize, Candidate)>,
    /// `prev[i]`: index in `added` of the previous candidate for the same
    /// node (`NO_PREV` for a node's first), forming per-node chains.
    prev: Vec<u32>,
    /// One entry per touched node, in first-touch order:
    /// `(node, last added index, count)`. Expansions touch a handful of
    /// nodes (the provenance chain of one pair), so lookup is a scan.
    tails: Vec<(usize, u32, u32)>,
}

/// Chain terminator in [`Overlay::prev`].
const NO_PREV: u32 = u32::MAX;

impl Overlay {
    /// The `slot`-th candidate appended for `node`.
    fn get(&self, node: usize, slot: usize) -> &Candidate {
        let &(_, last, count) = self
            .tails
            .iter()
            .find(|&&(n, ..)| n == node)
            .expect("overlay read of an untouched node");
        let mut pos = last;
        for _ in 0..(count as usize - 1 - slot) {
            pos = self.prev[pos as usize];
        }
        &self.added[pos as usize].1
    }

    fn push(&mut self, node: usize, cand: Candidate) -> usize {
        let at = self.added.len() as u32;
        let slot = match self.tails.iter_mut().find(|&&mut (n, ..)| n == node) {
            Some((_, last, count)) => {
                self.prev.push(*last);
                *last = at;
                *count += 1;
                *count as usize - 1
            }
            None => {
                self.prev.push(NO_PREV);
                self.tails.push((node, at, 1));
                0
            }
        };
        self.added.push((node, cand));
        slot
    }

    /// The touched node indices (with repeats, in append order).
    pub(crate) fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.added.iter().map(|(n, _)| *n)
    }

    /// Consumes the overlay in append order.
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (usize, Candidate)> {
        self.added.into_iter()
    }
}

/// The immutable merge context: everything one pair expansion may read,
/// plus its private [`Overlay`]. See the module docs for the borrow
/// discipline.
pub(crate) struct MergeCtx<'a> {
    pub(crate) nodes: &'a [Node],
    pub(crate) model: &'a DelayModel,
    pub(crate) bounds: &'a [f64],
    pub(crate) cfg: &'a EngineConfig,
    pub(crate) class_parent: &'a [u32],
    pub(crate) phi: &'a [f64],
    overlay: Overlay,
}

impl<'a> MergeCtx<'a> {
    pub(crate) fn new(
        nodes: &'a [Node],
        model: &'a DelayModel,
        bounds: &'a [f64],
        cfg: &'a EngineConfig,
        class_parent: &'a [u32],
        phi: &'a [f64],
    ) -> Self {
        Self {
            nodes,
            model,
            bounds,
            cfg,
            class_parent,
            phi,
            overlay: Overlay::default(),
        }
    }

    /// Candidate `i` of `node`: a committed candidate when `i` is below the
    /// node's pre-merge count, an overlay entry otherwise.
    pub(crate) fn cand(&self, node: NodeId, i: usize) -> &Candidate {
        let base = &self.nodes[node.0].cands;
        if i < base.len() {
            &base[i]
        } else {
            self.overlay.get(node.0, i - base.len())
        }
    }

    /// Parks a derived candidate on `node`, returning the index future
    /// [`MergeCtx::cand`] calls (and provenance) can use for it.
    pub(crate) fn push_overlay(&mut self, node: NodeId, cand: Candidate) -> usize {
        let base = self.nodes[node.0].cands.len();
        base + self.overlay.push(node.0, cand)
    }

    /// Surrenders the overlay for the commit phase.
    pub(crate) fn into_overlay(self) -> Overlay {
        self.overlay
    }
}

/// Union-find root lookup over the class-parent table (path-compression-free:
/// chains are at most a few links long and the table is shared immutably
/// during expansion).
pub(crate) fn class_of_in(class_parent: &[u32], g: GroupId) -> u32 {
    let mut c = g.0;
    while class_parent[c as usize] != c {
        c = class_parent[c as usize];
    }
    c
}

/// The result of expanding one child-candidate pair: the merged candidates
/// (with provenance indices still overlay-local), the skew residual
/// incurred, and the overlay of candidates derived on existing nodes.
pub(crate) struct Expansion {
    pub(crate) cands: Vec<Candidate>,
    pub(crate) residual: f64,
    pub(crate) overlay: Overlay,
}
