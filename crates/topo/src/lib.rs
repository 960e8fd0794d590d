//! Merging-order schemes for bottom-up clock routing.
//!
//! The AST-DME algorithm (Kim 2006, Fig. 6, step 3) repeatedly merges the
//! pair of subtrees at minimum merging cost. This crate provides:
//!
//! * [`GridIndex`] — a bucketed neighbor index over subtree root regions,
//!   so nearest-pair queries do not scan all pairs;
//! * [`plan_round`] — one round of merge planning under a [`TopoConfig`],
//!   **from scratch** (rebuilds the index and re-queries every neighbor on
//!   each call): the reference implementation;
//! * [`MergePlanner`] — the **incremental planner** the routing drivers
//!   use: the index is built once, merges patch it in place, and only
//!   invalidated neighbor caches are re-queried, making a full bottom-up
//!   run near-linear instead of quadratic (see the `planner` module docs
//!   for the data structures and the equivalence argument);
//! * two merge orders under either planner:
//!   * [`MergeOrder::GreedyNearest`]: the paper's base scheme, one
//!     minimum-cost pair per round;
//!   * [`MergeOrder::MultiMerge`]: Edahiro's simultaneous multi-merging
//!     (enhancement 1 of Ch. V.F) — a large set of disjoint nearest pairs
//!     per round, reducing neighbor-graph rebuilds;
//!   * a **delay-target bias** (enhancement 2 of Ch. V.F): preferring to
//!     merge subtrees with large accumulated delay first, which reduces
//!     later imbalance and hence wire snaking.
//!
//! The schemes only *order* merges; skew feasibility is enforced by the
//! engine regardless, so any ordering yields a correct tree — ordering
//! affects wirelength and runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod plan;
mod planner;

pub use grid::GridIndex;
pub use plan::{
    pair_score, plan_round, round_limit, score_bits, select_disjoint, MergeOrder, MergeSpace,
    TopoConfig, BRUTE_FORCE_CUTOFF,
};
pub use planner::{MergePlanner, NnSnapshotRow};
