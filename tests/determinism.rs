//! Determinism and driver-equivalence tests over the full routing stack:
//! the same instance must produce the identical routed tree on every run,
//! for every merge order, and the incremental planner must route exactly
//! what the from-scratch reference planner routes.

use astdme::instances::{partition, synthetic_instance};
use astdme::{
    run_bottom_up, run_bottom_up_from_scratch, AstDme, ClockRouter, DelayModel, EngineConfig,
    GreedyDme, Instance, MergeOrder, RoutedTree, StitchPerGroup, TopoConfig,
};

const BOUND: f64 = 10e-12;

fn instance(n: usize, k: usize, seed: u64) -> Instance {
    let p = synthetic_instance(n, seed, "det");
    let inst = partition::intermingled(&p, k, seed ^ 1).expect("valid partition");
    inst.with_groups(
        inst.groups()
            .clone()
            .with_uniform_bound(BOUND)
            .expect("bound ok"),
    )
    .expect("regroup ok")
}

/// Exact structural equality of routed trees (positions, parents, wire).
fn assert_identical(a: &RoutedTree, b: &RoutedTree) {
    assert_eq!(a.nodes().len(), b.nodes().len(), "node counts differ");
    for (x, y) in a.nodes().iter().zip(b.nodes().iter()) {
        assert_eq!(x.parent, y.parent);
        assert_eq!(x.sink, y.sink);
        assert_eq!(x.pos.x, y.pos.x);
        assert_eq!(x.pos.y, y.pos.y);
        assert_eq!(x.wire, y.wire);
    }
    assert_eq!(a.total_wirelength(), b.total_wirelength());
}

#[test]
fn repeated_routing_is_bit_identical() {
    let inst = instance(90, 4, 17);
    for topo in [
        TopoConfig::greedy(),
        TopoConfig::default(),
        TopoConfig {
            order: MergeOrder::MultiMerge { fraction: 0.4 },
            delay_weight: 1e12,
        },
    ] {
        let router = AstDme::new().with_topo(topo);
        let t1 = router.route(&inst).expect("routes");
        let t2 = router.route(&inst).expect("routes");
        assert_identical(&t1, &t2);
    }
}

#[test]
fn all_routers_are_deterministic() {
    let inst = instance(60, 3, 23);
    let routers: Vec<Box<dyn ClockRouter>> = vec![
        Box::new(AstDme::new()),
        Box::new(GreedyDme::new()),
        Box::new(StitchPerGroup::new()),
    ];
    for r in routers {
        let t1 = r.route(&inst).expect("routes");
        let t2 = r.route(&inst).expect("routes");
        assert_identical(&t1, &t2);
    }
}

#[test]
fn incremental_planner_routes_identically_to_from_scratch() {
    // Big enough that the whole grid regime, the brute-force tail, and
    // several grid rebuilds are exercised.
    let inst = instance(150, 4, 5);
    let model = DelayModel::elmore(*inst.rc());
    for topo in [TopoConfig::greedy(), TopoConfig::default()] {
        let (forest_inc, root_inc) = run_bottom_up(&inst, model, EngineConfig::default(), &topo);
        let (forest_ref, root_ref) =
            run_bottom_up_from_scratch(&inst, model, EngineConfig::default(), &topo);
        let t_inc = forest_inc.embed(root_inc, inst.source());
        let t_ref = forest_ref.embed(root_ref, inst.source());
        assert_identical(&t_inc, &t_ref);
    }
}
