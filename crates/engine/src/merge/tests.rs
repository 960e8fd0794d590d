//! Unit tests for the merge module tree (formerly `forest.rs` inline
//! tests), exercising each Fig. 6 case at the `MergeForest` API level.

use astdme_delay::{DelayModel, RcParams};
use astdme_geom::Point;

use crate::{CandKind, EngineConfig, GroupId, MergeForest};

fn forest_with(bounds: Vec<f64>) -> MergeForest {
    MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        bounds,
        EngineConfig::default(),
    )
}

fn pt(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

#[test]
fn leaf_candidates_are_points_at_zero_delay() {
    let mut f = forest_with(vec![0.0]);
    let id = f.add_leaf(0, pt(3.0, 4.0), 1e-14, GroupId(0));
    let c = &f.candidates(id)[0];
    assert!(c.region.is_point(1e-12));
    assert_eq!(c.cap, 1e-14);
    assert_eq!(c.wirelen, 0.0);
    assert_eq!(c.delays.range(GroupId(0)).unwrap().hi, 0.0);
}

#[test]
fn same_group_zero_skew_merge_is_classic_dme() {
    let mut f = forest_with(vec![0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(1000.0, 0.0), 1e-14, GroupId(0));
    let m = f.merge(a, b);
    for c in f.candidates(m) {
        // Zero-skew with equal loads: split in half, region is an arc.
        let CandKind::Merge { ea, eb, .. } = c.kind else {
            panic!("expected merge provenance")
        };
        assert!((ea - 500.0).abs() < 1e-6);
        assert!((eb - 500.0).abs() < 1e-6);
        assert!(c.region.is_arc(1e-9));
        assert!((c.wirelen - 1000.0).abs() < 1e-9);
        // Both sinks at identical delay.
        let r = c.delays.range(GroupId(0)).unwrap();
        assert!(r.spread() < 1e-18);
    }
}

#[test]
fn different_groups_merge_spans_the_sdr() {
    // Fusion retains only the offset-consistent candidate; the SDR
    // sweep is visible in the general (unfused) mode.
    let mut f = MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        vec![0.0, 0.0],
        EngineConfig {
            fuse_groups: false,
            ..EngineConfig::default()
        },
    );
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(800.0, 600.0), 1e-14, GroupId(1));
    let m = f.merge(a, b);
    let cands = f.candidates(m);
    // Multiple sampled splits, all spending exactly the distance.
    assert!(cands.len() > 1);
    for c in cands {
        assert!((c.wirelen - 1400.0).abs() < 1e-6);
        assert_eq!(c.delays.group_count(), 2);
    }
    // The extreme samples touch the child positions.
    let spans: Vec<f64> = cands
        .iter()
        .map(|c| match c.kind {
            CandKind::Merge { ea, .. } => ea,
            _ => unreachable!(),
        })
        .collect();
    let min = spans.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = spans.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(min < 1e-6);
    assert!((max - 1400.0).abs() < 1e-6);
}

#[test]
fn bounded_skew_merge_allows_off_balance_splits() {
    let mut f = MergeForest::new(
        DelayModel::elmore(RcParams::default()),
        vec![1e-11],
        EngineConfig::default(),
    );
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(2000.0, 0.0), 1e-14, GroupId(0));
    let m = f.merge(a, b);
    let mut spread_seen = 0.0f64;
    for c in f.candidates(m) {
        let r = c.delays.range(GroupId(0)).unwrap();
        assert!(r.spread() <= 1e-11 + 1e-18);
        spread_seen = spread_seen.max(r.spread());
    }
    assert!(spread_seen > 0.0, "bounded merges should use the slack");
}

#[test]
fn unbalanced_zero_skew_merge_snakes() {
    let mut f = forest_with(vec![0.0]);
    // A heavy, far subtree vs a nearby light sink: build the heavy one
    // first out of two distant sinks.
    let a1 = f.add_leaf(0, pt(0.0, 0.0), 5e-14, GroupId(0));
    let a2 = f.add_leaf(1, pt(4000.0, 0.0), 5e-14, GroupId(0));
    let a = f.merge(a1, a2);
    let b = f.add_leaf(2, pt(2050.0, 10.0), 1e-15, GroupId(0));
    let m = f.merge(a, b);
    // b is tiny and close to a's merging arc: zero skew demands more
    // wire to b than the distance.
    let c = &f.candidates(m)[0];
    let CandKind::Merge { ea, eb, .. } = c.kind else {
        panic!("expected merge")
    };
    let d = f
        .candidates(a)
        .iter()
        .map(|ca| ca.region.distance(&f.candidates(b)[0].region))
        .fold(f64::INFINITY, f64::min);
    assert!(ea + eb > d + 1.0, "expected a snaking detour");
    let r = c.delays.range(GroupId(0)).unwrap();
    assert!(r.spread() < 1e-18);
}

#[test]
fn embed_realizes_bookkept_wirelength_and_delays() {
    let mut f = forest_with(vec![0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(600.0, 400.0), 2e-14, GroupId(0));
    let m = f.merge(a, b);
    let best_wirelen = f.candidates(m)[0].wirelen;
    let tree = f.embed(m, pt(300.0, 1000.0));
    // Total wire = subtree wire + source connection.
    let subtree_wire: f64 = tree
        .nodes()
        .iter()
        .filter(|n| n.parent.is_some())
        .map(|n| n.wire)
        .sum();
    assert!((subtree_wire - best_wirelen).abs() < 1e-6);
    assert_eq!(tree.sink_nodes().count(), 2);
}

#[test]
fn merge_distance_and_representative_region() {
    let mut f = forest_with(vec![0.0, 0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(100.0, 0.0), 1e-14, GroupId(1));
    assert_eq!(f.merge_distance(a, b), 100.0);
    let m = f.merge(a, b);
    let rep = f.representative_region(m);
    for c in f.candidates(m) {
        assert!(rep.contains_trr(&c.region, 1e-9));
    }
}

#[test]
fn residual_zero_on_clean_instances() {
    let mut f = forest_with(vec![0.0, 0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let b = f.add_leaf(1, pt(500.0, 0.0), 1e-14, GroupId(1));
    let c = f.add_leaf(2, pt(250.0, 400.0), 1e-14, GroupId(0));
    let ab = f.merge(a, b);
    let _ = f.merge(ab, c);
    assert_eq!(f.residual(), 0.0);
}

#[test]
#[should_panic(expected = "cannot merge a node with itself")]
fn merging_self_panics() {
    let mut f = forest_with(vec![0.0]);
    let a = f.add_leaf(0, pt(0.0, 0.0), 1e-14, GroupId(0));
    let _ = f.merge(a, a);
}

/// The one-walk pair ranking against the reference it replaces: every
/// pair priced on its own by `pair_cost_estimate`, stably sorted by
/// `total_cmp`, NaN pairs truncated (all-NaN keeps the first), then cut to
/// `pair_limit`.
mod ranking {
    use proptest::prelude::*;

    use astdme_delay::{DelayModel, RcParams};
    use astdme_geom::{Point, Trr};

    use crate::merge::context::Scratch;
    use crate::merge::node::Node;
    use crate::merge::pairing::RankedPair;
    use crate::merge::NodeId;
    use crate::{CandKind, Candidate, DelayMap, DelayRange, EngineConfig, GroupId, MergeForest};

    /// `pair_limit` values covered: one, the tuned presets' range, and more
    /// than any generated node pair has.
    const LIMITS: [usize; 3] = [1, 3, 64];

    /// Deterministic candidate lists from a seed. Positions sit on a coarse
    /// grid and loads and delays come from short lists, so equal distances
    /// and equal costs are common; each candidate carries one to three of
    /// three groups.
    fn candidates(seed: u64, n: usize) -> Vec<Candidate> {
        let mut s = seed;
        let mut next = move |m: u64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        (0..n)
            .map(|_| {
                let pos = Point::new(next(8) as f64 * 125.0, next(8) as f64 * 125.0);
                let cap = [1e-15, 2e-14, 5e-14][next(3) as usize];
                let mut entries: Vec<(GroupId, DelayRange)> = Vec::new();
                for g in 0..3u32 {
                    if next(2) == 0 {
                        let lo = next(4) as f64 * 4e-12;
                        let hi = lo + next(3) as f64 * 3e-12;
                        entries.push((GroupId(g), DelayRange { lo, hi }));
                    }
                }
                let delays = if entries.is_empty() {
                    DelayMap::leaf(GroupId(next(3) as u32))
                } else {
                    DelayMap::from_entries(entries)
                };
                Candidate {
                    region: Trr::from_point(pos),
                    delays,
                    cap,
                    wirelen: 0.0,
                    kind: CandKind::Leaf(0),
                }
            })
            .collect()
    }

    /// A forest holding exactly the two listed nodes (ids 0 and 1).
    fn forest(
        a: Vec<Candidate>,
        b: Vec<Candidate>,
        bounds: Vec<f64>,
        pair_limit: usize,
        fuse_groups: bool,
    ) -> MergeForest {
        let cfg = EngineConfig {
            pair_limit,
            fuse_groups,
            ..EngineConfig::default()
        };
        let mut f = MergeForest::new(DelayModel::elmore(RcParams::default()), bounds, cfg);
        f.nodes.push(Node::new(a, None, None));
        f.nodes.push(Node::new(b, None, None));
        f
    }

    fn reference(f: &MergeForest) -> Vec<RankedPair> {
        let (a, b) = (NodeId(0), NodeId(1));
        let ctx = f.ctx();
        let mut scratch = Scratch::default();
        let mut pairs = Vec::new();
        for ia in 0..f.candidates(a).len() {
            for ib in 0..f.candidates(b).len() {
                pairs.push((ctx.pair_cost_estimate(a, b, ia, ib, &mut scratch), ia, ib));
            }
        }
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
        let keep = if pairs[0].0.is_nan() {
            1
        } else {
            pairs
                .iter()
                .position(|p| p.0.is_nan())
                .unwrap_or(pairs.len())
        };
        pairs.truncate(keep.min(f.cfg.pair_limit));
        pairs
    }

    fn ranked(f: &mut MergeForest) -> Vec<RankedPair> {
        let mut out = Vec::new();
        f.rank_candidate_pairs(NodeId(0), NodeId(1), &mut out);
        out
    }

    fn bits(pairs: &[RankedPair]) -> Vec<(u64, usize, usize)> {
        pairs
            .iter()
            .map(|&(c, ia, ib)| (c.to_bits(), ia, ib))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn ranking_equals_the_full_sort(
            seed in any::<u64>(),
            na in 1usize..7,
            nb in 1usize..7,
            limit in 0usize..3,
            bound_mix in 0usize..3,
            fuse_groups in prop::bool::ANY,
        ) {
            let bounds = [vec![0.0; 3], vec![1e-11; 3], vec![0.0, 2e-12, 1e-11]][bound_mix].clone();
            let (a, b) = (candidates(seed, na), candidates(seed ^ 0x5DEE_CE66, nb));
            let mut f = forest(a, b, bounds, LIMITS[limit], fuse_groups);
            let expected = reference(&f);
            prop_assert_eq!(bits(&ranked(&mut f)), bits(&expected));
        }

        #[test]
        fn non_finite_caps_and_bounds_match_the_full_sort(
            seed in any::<u64>(),
            na in 1usize..7,
            nb in 1usize..7,
            limit in 0usize..3,
            poison in 0usize..3,
        ) {
            let (mut a, b) = (candidates(seed, na), candidates(seed ^ 0x5DEE_CE66, nb));
            let mut bounds = vec![1e-11; 3];
            match poison {
                0 => a[na - 1].cap = f64::NAN,
                1 => a[na - 1].cap = f64::INFINITY,
                _ => bounds[1] = f64::INFINITY,
            }
            let mut f = forest(a, b, bounds, LIMITS[limit], true);
            let expected = reference(&f);
            prop_assert_eq!(bits(&ranked(&mut f)), bits(&expected));
        }
    }

    /// A one-group leaf candidate at `(x, y)`.
    fn leaf(x: f64, y: f64, group: u32) -> Candidate {
        Candidate {
            region: Trr::from_point(Point::new(x, y)),
            delays: DelayMap::leaf(GroupId(group)),
            cap: 1e-15,
            wirelen: 0.0,
            kind: CandKind::Leaf(0),
        }
    }

    /// Every pair at one point and one group costs the same, so the walk
    /// must keep the first `pair_limit` pairs in index order.
    #[test]
    fn equal_costs_keep_index_order() {
        let at = |_| leaf(500.0, 500.0, 0);
        let mut f = forest(
            (0..4).map(at).collect(),
            (0..4).map(at).collect(),
            vec![0.0],
            3,
            true,
        );
        let got = ranked(&mut f);
        assert_eq!(bits(&got), bits(&reference(&f)));
        let order: Vec<(usize, usize)> = got.iter().map(|&(_, ia, ib)| (ia, ib)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2)]);
    }

    /// A later pair only slightly closer than the kept one must still be
    /// priced and displace it: the distance skip may fire only at the last
    /// kept cost itself, not at any margin below it.
    #[test]
    fn a_slightly_closer_later_pair_displaces_the_kept_one() {
        let a = vec![leaf(0.0, 0.0, 0)];
        let b = vec![
            leaf(1000.0, 0.0, 1),
            leaf(990.0, 0.0, 1),
            leaf(999.0, 0.0, 1),
        ];
        for limit in [1, 2] {
            let mut f = forest(a.clone(), b.clone(), vec![0.0; 2], limit, true);
            let got = ranked(&mut f);
            assert_eq!(bits(&got), bits(&reference(&f)));
            assert_eq!((got[0].0, got[0].2), (990.0, 1));
        }
    }

    /// A NaN load priced through the conflict branch makes a NaN cost.
    /// Mixed with finite pairs NaN pairs are dropped; when every pair is
    /// NaN the first one is kept.
    #[test]
    fn nan_costs_follow_the_truncation_rule() {
        // Groups 0 and 1 need δ = 0 and δ = 10 ps at zero skew: a conflict.
        let cand = |cap: f64, g1: f64| Candidate {
            cap,
            delays: DelayMap::from_entries(vec![
                (GroupId(0), DelayRange { lo: 0.0, hi: 0.0 }),
                (GroupId(1), DelayRange { lo: g1, hi: g1 }),
            ]),
            ..leaf(0.0, 0.0, 0)
        };
        let b = vec![cand(f64::NAN, 1e-11), cand(f64::NAN, 1e-11)];
        let mixed = vec![cand(f64::NAN, 0.0), cand(1e-15, 0.0)];
        let poisoned = vec![cand(f64::NAN, 0.0)];
        for (a, want) in [(mixed, vec![(1, 0), (1, 1)]), (poisoned, vec![(0, 0)])] {
            let mut f = forest(a, b.clone(), vec![0.0; 2], 64, true);
            let got = ranked(&mut f);
            assert!(got[0].0.is_nan() == (want.len() == 1), "{got:?}");
            assert_eq!(bits(&got), bits(&reference(&f)));
            let order: Vec<(usize, usize)> = got.iter().map(|&(_, ia, ib)| (ia, ib)).collect();
            assert_eq!(order, want);
        }
    }
}
