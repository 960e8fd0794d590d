//! The merge forest: bottom-up subtree merging with group-aware skew
//! feasibility, snaking, and offset adjustment.
//!
//! This implements the body of the AST-DME algorithm (Kim 2006, Fig. 6).
//! The four cases distinguished there fall out of the shared-group
//! structure of the two children's [`DelayMap`]s:
//!
//! | paper case | shared groups | behaviour here |
//! |---|---|---|
//! | same group (step 4) | all, windows overlap | classic DME/BST split |
//! | different groups (step 5) | none | SDR: every split `[0, D]` feasible |
//! | share one group (step 6) | some, windows overlap | constrained window |
//! | share several groups (step 7) | some, windows conflict | offset adjustment (wire sneaking, Eqs. 5.1–5.3) |
//!
//! plus wire snaking whenever the feasible δ-window is out of reach at the
//! geometric distance (the classic detour case of exact zero-skew routing).
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`mod@self`] | [`MergeForest`]: construction, accessors, the `merge` orchestration (rank → expand → commit → prune/fuse) |
//! | `node` | [`NodeId`], the per-node candidate storage and cached hull / max-delay summaries |
//! | `context` | `MergeCtx` (the immutable expansion view), the candidate `Overlay`, reusable `Scratch` buffers |
//! | `expand` | candidate-pair expansion, the deterministic overlay-replay commit, candidate pruning |
//! | `pairing` | shared-constraint assembly, pair-cost estimation, cheapest-first candidate-pair ranking |
//! | `cases` | the Fig. 6 case analysis: feasible splits, snaking, best-effort fallback |
//! | `offset` | class fusing (steps 6–7) and recursive offset adjustment / wire sneaking |
//! | `embed` | top-down embedding of a finished root into a [`RoutedTree`] |
//!
//! # Borrow discipline
//!
//! [`MergeForest::merge`] never hands `&mut self` to the case analysis.
//! Instead it builds a `MergeCtx` — shared borrows of the node table,
//! delay model, config and class state — and expands each ranked
//! candidate pair against it. Anything an expansion *derives* (offset
//! adjustment re-deriving child candidates) goes into the context's
//! private overlay. Expansions only ever read state that predates the
//! merge call, so they are independent, and the commit phase replays the
//! overlays in ranked-pair order. See `context` for details.

use astdme_delay::DelayModel;
use astdme_geom::{Point, Trr};

use crate::{CandKind, Candidate, DelayMap, EngineConfig, GroupId, Instance};

mod cases;
mod context;
mod embed;
mod expand;
mod node;
mod offset;
mod pairing;
mod record;

#[cfg(test)]
mod tests;

pub use node::NodeId;
pub use record::{MergeLog, MergeRecording, NO_NODE};

use context::{class_of_in, MergeCtx, Scratch};
use node::Node;

/// Bottom-up merge state for one routing run.
///
/// Leaves are created first (one per sink); [`MergeForest::merge`] combines
/// two subtrees into a new one, enforcing every shared group's skew bound;
/// [`MergeForest::embed`] turns the finished root into a
/// [`RoutedTree`](crate::RoutedTree).
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct MergeForest {
    nodes: Vec<Node>,
    model: DelayModel,
    bounds: Vec<f64>,
    cfg: EngineConfig,
    leaves: usize,
    residual: f64,
    // Global group fusion (cfg.fuse_groups): union-find over groups plus
    // the prescribed offset of each original group relative to its class
    // reference (adjusted delay = real delay - phi).
    class_parent: Vec<u32>,
    phi: Vec<f64>,
    scratch: Scratch,
}

impl MergeForest {
    /// Creates an empty forest for a given delay model and per-group skew
    /// bounds (seconds, indexed by group).
    pub fn new(model: DelayModel, bounds: Vec<f64>, cfg: EngineConfig) -> Self {
        let k = bounds.len();
        Self {
            nodes: Vec::new(),
            model,
            bounds,
            cfg,
            leaves: 0,
            residual: 0.0,
            class_parent: (0..k as u32).collect(),
            phi: vec![0.0; k],
            scratch: Scratch::default(),
        }
    }

    /// Creates a forest for `inst` using its RC technology under the Elmore
    /// model, with one leaf per sink.
    pub fn for_instance(inst: &Instance, cfg: EngineConfig) -> Self {
        Self::for_instance_with_model(inst, DelayModel::elmore(*inst.rc()), cfg)
    }

    /// Like [`MergeForest::for_instance`] but with an explicit delay model
    /// (e.g. [`DelayModel::Pathlength`] for the ablation of Ch. III).
    pub fn for_instance_with_model(inst: &Instance, model: DelayModel, cfg: EngineConfig) -> Self {
        let mut f = Self::new(model, inst.groups().bounds().to_vec(), cfg);
        for (i, s) in inst.sinks().iter().enumerate() {
            f.add_leaf(i, s.pos, s.cap, inst.group_of(i));
        }
        f
    }

    /// The expansion view of the current forest state: shared borrows of
    /// everything the case analysis reads, plus a fresh overlay. See the
    /// module docs for the borrow discipline.
    pub(crate) fn ctx(&self) -> MergeCtx<'_> {
        MergeCtx::new(
            &self.nodes,
            &self.model,
            &self.bounds,
            &self.cfg,
            &self.class_parent,
            &self.phi,
        )
    }

    /// Adds a leaf subtree for sink `sink_idx` and returns its node.
    pub fn add_leaf(&mut self, sink_idx: usize, pos: Point, cap: f64, group: GroupId) -> NodeId {
        debug_assert!(
            group.index() < self.bounds.len(),
            "group {group} has no declared bound"
        );
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::new(
            vec![Candidate {
                region: Trr::from_point(pos),
                delays: DelayMap::leaf(group),
                cap,
                wirelen: 0.0,
                kind: CandKind::Leaf(sink_idx),
            }],
            None,
            Some(sink_idx),
        ));
        self.leaves += 1;
        id
    }

    /// Node ids of all leaves, in insertion order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.sink.is_some())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// The candidates of a node.
    pub fn candidates(&self, id: NodeId) -> &[Candidate] {
        &self.nodes[id.0].cands
    }

    /// The children of a node, if it is a merge.
    pub fn children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[id.0].children
    }

    /// A representative region for neighbor queries: the hull of the node's
    /// candidate regions (TRRs are closed under hull). O(1): the hull is
    /// maintained as candidates are created, never recomputed — the
    /// incremental planner queries this every round.
    pub fn representative_region(&self, id: NodeId) -> Trr {
        self.nodes[id.0].hull
    }

    /// Minimum distance between the best candidates of two nodes — the
    /// merging cost used for nearest-neighbor selection.
    pub fn merge_distance(&self, a: NodeId, b: NodeId) -> f64 {
        let mut best = f64::INFINITY;
        for ca in &self.nodes[a.0].cands {
            for cb in &self.nodes[b.0].cands {
                best = best.min(ca.region.distance(&cb.region));
            }
        }
        best
    }

    /// Minimum estimated merge cost over all candidate pairs (see
    /// [`MergeForest::merge_distance`] for the purely geometric variant).
    pub fn merge_cost(&self, a: NodeId, b: NodeId) -> f64 {
        let ctx = self.ctx();
        let mut scratch = Scratch::default();
        let mut best = f64::INFINITY;
        for ia in 0..self.nodes[a.0].cands.len() {
            for ib in 0..self.nodes[b.0].cands.len() {
                best = best.min(ctx.pair_cost_estimate(a, b, ia, ib, &mut scratch));
            }
        }
        best
    }

    /// The largest root-to-sink delay among a node's candidates (used by
    /// the delay-target merging-order enhancement, Ch. V.F). O(1): cached
    /// at candidate creation like [`MergeForest::representative_region`].
    pub fn max_delay(&self, id: NodeId) -> f64 {
        self.nodes[id.0].max_delay
    }

    /// Worst skew-bound violation accepted so far (seconds); zero on any
    /// instance the engine solved exactly. Non-zero values indicate an
    /// irreconcilable offset conflict that even wire sneaking could not
    /// repair (see module docs) and are surfaced by the audit as well.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Number of nodes (leaves + merges) created so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The effective (fused) class of a group.
    pub fn class_of(&self, g: GroupId) -> u32 {
        class_of_in(&self.class_parent, g)
    }

    /// The prescribed offset of a group relative to its class reference.
    pub fn class_offset(&self, g: GroupId) -> f64 {
        self.phi[g.index()]
    }

    /// Merges subtrees `a` and `b` into a new subtree, satisfying every
    /// shared group's skew bound, snaking or adjusting offsets as needed.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is stale.
    pub fn merge(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.merge_impl(a, b, None)
    }

    /// The merge body, optionally recording a [`MergeLog`] into `rec` (see
    /// [`MergeForest::merge_recorded`]). The recorded and unrecorded paths
    /// run the same operations in the same order, so recording never
    /// changes a routed bit.
    fn merge_impl(&mut self, a: NodeId, b: NodeId, mut rec: Option<&mut MergeRecording>) -> NodeId {
        assert!(a != b, "cannot merge a node with itself");
        // Rank child-candidate pairs by estimated merge cost (distance plus
        // forced snaking / conflict-resolution cost); expand the best few.
        // NaN costs sort last (total_cmp); as long as any finite-cost pair
        // exists, NaN pairs are dropped here so poisoned estimates never
        // reach expansion (where their NaN wirelengths would panic the
        // pruning sort). An all-NaN ranking keeps the first pair and lets
        // the audit flag the poisoned result downstream.
        let mut pairs = self.rank_candidate_pairs(a, b);
        if !pairs[0].0.is_nan() {
            pairs.truncate(
                pairs
                    .iter()
                    .position(|p| p.0.is_nan())
                    .unwrap_or(pairs.len()),
            );
        } else {
            pairs.truncate(1);
        }
        pairs.truncate(self.cfg.pair_limit);

        let expansions = self.expand_pairs(a, b, &pairs);
        let (mut cands, worst_residual, appends) =
            self.commit_expansions(a, b, expansions, rec.is_some());
        if self.cfg.debug {
            if let Some(c) = cands.first() {
                let d = self.nodes[a.0].cands[0]
                    .region
                    .distance(&self.nodes[b.0].cands[0].region);
                if c.merge_wire() > 20.0 * (d + 100.0) {
                    eprintln!(
                        "[bigmerge] {}x{}: wire {:.0} vs dist {:.0}",
                        a.0,
                        b.0,
                        c.merge_wire(),
                        d
                    );
                }
            }
        }
        if cands.is_empty() {
            // All pairs failed even best-effort: should be unreachable, but
            // degrade gracefully with the closest pair at face value.
            let (_, ia, ib) = pairs[0];
            let d = self.nodes[a.0].cands[ia]
                .region
                .distance(&self.nodes[b.0].cands[ib].region);
            let half = 0.5 * d;
            let fallback = self.ctx().build_candidate(a, b, ia, ib, half, d - half);
            cands.push(fallback);
        }
        Self::prune(&mut cands, self.cfg.max_candidates);
        self.residual = self.residual.max(worst_residual);
        let epoch_before = rec.as_ref().map_or(0, |r| r.epoch());
        if self.cfg.fuse_groups {
            self.fuse_classes(&mut cands);
        }
        let epoch_after = match rec.as_mut() {
            Some(r) if self.cfg.fuse_groups => r.note_class_state(&self.class_parent, &self.phi),
            _ => epoch_before,
        };
        let id = NodeId(self.nodes.len());
        let creation_len = cands.len();
        self.nodes.push(Node::new(cands, Some((a, b)), None));
        if let Some(r) = rec {
            r.logs.push(MergeLog {
                a: a.0 as u32,
                b: b.0 as u32,
                result: id.0 as u32,
                creation_len: creation_len as u32,
                appends,
                residual: worst_residual,
                epoch_before: epoch_before as u32,
                epoch_after: epoch_after as u32,
            });
        }
        id
    }
}
