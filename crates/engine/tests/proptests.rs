//! Property-based tests for the merge engine: the candidate invariants on
//! randomized merge sequences, verified against the independent audit.

use astdme_delay::{DelayModel, RcParams};
use astdme_engine::{audit, CandKind, EngineConfig, Groups, Instance, MergeForest, Sink};
use astdme_geom::Point;
use proptest::prelude::*;

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (3usize..14, 1usize..4, any::<u64>()).prop_map(|(n, k, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 16) as f64 / (u64::MAX >> 16) as f64
        };
        let sinks: Vec<Sink> = (0..n)
            .map(|_| {
                Sink::new(
                    Point::new(next() * 10_000.0, next() * 10_000.0),
                    1e-15 + next() * 5e-14,
                )
            })
            .collect();
        let assignment: Vec<usize> = (0..n)
            .map(|i| {
                if i < k {
                    i
                } else {
                    (next() * k as f64) as usize % k
                }
            })
            .collect();
        Instance::new(
            sinks,
            Groups::from_assignments(assignment, k).expect("valid"),
            RcParams::default(),
            Point::new(5_000.0, 5_000.0),
        )
        .expect("valid")
    })
}

/// Merge all leaves left-to-right (a deliberately bad order — the engine
/// must stay correct under any order).
fn fold_all(forest: &mut MergeForest) -> astdme_engine::NodeId {
    let leaves = forest.leaves();
    let mut acc = leaves[0];
    for &l in &leaves[1..] {
        acc = forest.merge(acc, l);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn candidate_capacitance_is_sinks_plus_wire(inst in instance_strategy()) {
        let mut forest = MergeForest::for_instance(&inst, EngineConfig::default());
        let root = fold_all(&mut forest);
        let sink_cap: f64 = inst.sinks().iter().map(|s| s.cap).sum();
        let c_unit = inst.rc().c_per_um();
        for cand in forest.candidates(root) {
            let expected = sink_cap + c_unit * cand.wirelen;
            prop_assert!(
                (cand.cap - expected).abs() <= 1e-9 * expected,
                "cap {} vs sinks+wire {}", cand.cap, expected
            );
        }
    }

    #[test]
    fn bookkeeping_agrees_with_audit_after_embedding(inst in instance_strategy()) {
        let mut forest = MergeForest::for_instance(&inst, EngineConfig::default());
        let root = fold_all(&mut forest);
        let tree = forest.embed(root, inst.source());
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));

        // The chosen root candidate's wirelength matches the embedded tree
        // (minus the source hookup, which the forest does not know).
        let best = forest
            .candidates(root)
            .iter()
            .map(|c| c.wirelen)
            .fold(f64::INFINITY, f64::min);
        let subtree_wire: f64 = tree
            .nodes()
            .iter()
            .filter(|n| n.parent.is_some())
            .map(|n| n.wire)
            .sum();
        prop_assert!(
            subtree_wire >= best - 1e-6,
            "embedded wire {} below any candidate {}", subtree_wire, best
        );

        // Per-group spreads frozen in the bookkeeping equal the audited
        // spreads (upstream wire shifts all delays equally).
        if forest.residual() == 0.0 {
            prop_assert!(
                report.max_intra_group_skew() <= forest.node_count() as f64 * 1e-18 + 1e-18,
                "audited skew {} exceeds accumulated tolerance", report.max_intra_group_skew()
            );
        }
    }

    #[test]
    fn merged_regions_are_reachable_from_children(inst in instance_strategy()) {
        let mut forest = MergeForest::for_instance(&inst, EngineConfig::default());
        let root = fold_all(&mut forest);
        // Walk all nodes; every merge candidate's region must lie within
        // its recorded wire lengths of the children's regions.
        for idx in 0..forest.node_count() {
            let id = astdme_engine::NodeId::from_index(idx);
            let Some((a, b)) = forest.children(id) else { continue };
            for cand in forest.candidates(id) {
                let CandKind::Merge { cand_a, cand_b, ea, eb } = cand.kind else {
                    continue;
                };
                let ra = forest.candidates(a)[cand_a].region;
                let rb = forest.candidates(b)[cand_b].region;
                prop_assert!(ra.distance(&cand.region) <= ea + 1e-6 * (1.0 + ea));
                prop_assert!(rb.distance(&cand.region) <= eb + 1e-6 * (1.0 + eb));
            }
        }
        let _ = root;
    }

    #[test]
    fn embed_covers_every_sink_exactly_once(inst in instance_strategy()) {
        let mut forest = MergeForest::for_instance(&inst, EngineConfig::default());
        let root = fold_all(&mut forest);
        let tree = forest.embed(root, inst.source());
        let mut seen = vec![false; inst.sink_count()];
        for (_, s) in tree.sink_nodes() {
            prop_assert!(!seen[s], "sink {s} routed twice");
            seen[s] = true;
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn unfused_mode_also_meets_bounds(inst in instance_strategy()) {
        let cfg = EngineConfig { fuse_groups: false, ..EngineConfig::default() };
        let mut forest = MergeForest::for_instance(&inst, cfg);
        let root = fold_all(&mut forest);
        let tree = forest.embed(root, inst.source());
        let report = audit(&tree, &inst, &DelayModel::elmore(*inst.rc()));
        // The general machinery may fall back to best-effort on deep
        // conflicts; the residual it reports must bound the audited skew.
        prop_assert!(
            report.max_intra_group_skew() <= 2.0 * forest.residual() + 1e-15,
            "audited {} vs residual {}", report.max_intra_group_skew(), forest.residual()
        );
    }
}
