//! The explicit merge context: an immutable view of the forest plus a
//! private candidate overlay, so expanding one candidate pair is a pure
//! function of the forest state it starts from.
//!
//! # Borrow discipline
//!
//! [`MergeForest::merge`](crate::MergeForest::merge) expands its ranked
//! child-candidate pairs one after another. Each expansion runs against a
//! fresh [`MergeCtx`]: shared `&` borrows of the forest's nodes, model,
//! config and class state, plus an owned [`Overlay`] where the
//! offset-adjustment machinery parks any candidates it derives on
//! *existing* nodes. The merged candidates themselves go straight into one
//! reused buffer. Back under `&mut self`, a non-empty overlay is committed
//! before the next pair is expanded: its candidates are appended to their
//! nodes in overlay order, which lands each at exactly the index the
//! overlay handed out, so no provenance index needs remapping. An empty
//! overlay, the common case, commits nothing. The commit is the one place
//! an expansion mutates the forest, so the ECO merge log records from
//! there.
//!
//! [`Scratch`] buffers are threaded as explicit `&mut` parameters rather
//! than stored in the context, so a context can hand out `&Candidate`
//! borrows while a callee fills buffers.

use astdme_delay::{DelayModel, SharedConstraint};

use crate::{Candidate, EngineConfig, GroupId};

use super::node::Node;
use super::pairing::{ClassEntry, RankedPair};
use super::NodeId;

/// Reusable buffers of the merge path, carried by the forest so a merge
/// allocates no working storage of its own once the buffers have grown.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Class entries of the two candidates of one constraint assembly
    /// (`shared_constraints_in`), and of class fusing.
    pub(crate) ea: Vec<ClassEntry>,
    pub(crate) eb: Vec<ClassEntry>,
    pub(crate) cons: Vec<SharedConstraint>,
    /// Split-sample staging for `try_expand_at`.
    pub(crate) samples: Vec<f64>,
    /// `rank_candidate_pairs`: every child candidate's class entries,
    /// concatenated, and the end offset of each candidate's run.
    pub(crate) ents: Vec<ClassEntry>,
    pub(crate) ent_ends: Vec<usize>,
    /// The ranked pairs of the current merge.
    pub(crate) pairs: Vec<RankedPair>,
    /// The merged candidates of the current merge, before pruning.
    pub(crate) merged: Vec<Candidate>,
}

/// Candidates derived on *existing* nodes during one pair expansion
/// (offset adjustment / wire sneaking), indexed past the node's candidate
/// count at the start of the expansion. Owned by a [`MergeCtx`]; committed
/// to the forest right after the expansion.
///
/// Storage is three flat vectors (append list, intrusive per-node chain,
/// first-touch tail table) instead of a `HashMap<node, Vec<positions>>`:
/// an untouched overlay — the common case, one per candidate pair — costs
/// no allocation at all, and a touched one costs three `Vec`s regardless
/// of how many candidates a deep offset-adjustment recursion derives.
#[derive(Debug, Clone, Default)]
pub(crate) struct Overlay {
    /// `(node index, candidate)` in append order. Children are derived
    /// before the parents that reference them, and a node's entries appear
    /// in slot order, so committing in this order puts every candidate at
    /// the index its provenance already names.
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

    /// Whether the expansion derived no candidate on an existing node.
    pub(crate) fn is_empty(&self) -> bool {
        self.added.is_empty()
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
    /// node's committed count, an overlay entry otherwise.
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
