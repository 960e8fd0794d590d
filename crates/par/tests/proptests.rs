//! Claim-loop determinism under skew: random mixed-cost workloads run
//! through `claim_each` at thread overrides 1/2/3/8 must deliver every
//! index exactly once with its serial value — claiming changes who
//! computes an item and when it arrives, never what it is.

use std::num::NonZeroUsize;

use proptest::prelude::*;

/// Deterministic busy-work whose cost scales with `rounds`: the value the
/// scheduler must reproduce regardless of which worker crunched it.
fn crunch(x: u64, rounds: u32) -> u64 {
    (0..rounds as u64).fold(x, |acc, i| {
        acc.wrapping_mul(6364136223846793005)
            .wrapping_add(i)
            .rotate_left(17)
    })
}

/// A skewed workload: item values plus per-item cost classes mixing very
/// cheap items with items hundreds of times more expensive, in random
/// positions — the shape that starves a fixed contiguous-chunk schedule.
fn workload() -> impl Strategy<Value = Vec<(u64, u32)>> {
    (1usize..120, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        (0..n)
            .map(|_| {
                let value = next();
                let rounds = match next() % 5 {
                    0 => 12_000, // expensive outlier
                    1 => 800,
                    _ => 40, // the cheap majority
                };
                (value, rounds as u32)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn claim_each_delivers_every_index_once_with_the_serial_value(items in workload()) {
        // RAII: a failing case restores whatever override was active
        // before this test instead of leaking its last sweep value.
        let _guard = astdme_par::override_guard(None);
        let f = |i: usize| {
            let (v, rounds) = items[i];
            crunch(v ^ i as u64, rounds)
        };
        let serial: Vec<u64> = (0..items.len()).map(f).collect();
        for threads in [1usize, 2, 3, 8] {
            astdme_par::set_thread_override(NonZeroUsize::new(threads));
            for in_flight in [1usize, items.len()] {
                let mut got: Vec<Option<u64>> = vec![None; items.len()];
                let stats = astdme_par::claim_each(items.len(), in_flight, &f, |i, r| {
                    assert!(got[i].replace(r).is_none(), "index {i} delivered twice");
                });
                let got: Vec<u64> = got.into_iter().map(|r| r.expect("index delivered")).collect();
                prop_assert_eq!(&got, &serial, "diverged at {} threads", threads);
                prop_assert_eq!(stats.worker_items.iter().sum::<usize>(), items.len());
            }
        }
    }
}
