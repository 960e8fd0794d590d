//! Back-to-back barriers of one width reuse the same parked workers. A
//! helper parks itself again before its barrier releases the caller, so
//! once the first barrier has spawned its helpers no later one spawns a
//! pool thread. Its own test binary, so no concurrent test shares the
//! pool.

use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn repeated_barriers_spawn_no_pool_threads() {
    const HELPERS: usize = 3;
    let ran = AtomicUsize::new(0);
    let work = |_slot: usize| {
        ran.fetch_add(1, Ordering::Relaxed);
    };
    let running = astdme_par::scope_with(HELPERS, &work, |running| running);
    assert_eq!(running, HELPERS, "the first barrier gets every helper");
    let spawned = astdme_par::pool_threads();
    for call in 0..500 {
        let running = astdme_par::scope_with(HELPERS, &work, |running| running);
        assert_eq!(running, HELPERS);
        assert_eq!(
            astdme_par::pool_threads(),
            spawned,
            "barrier {call} spawned a pool thread: a helper was not parked yet"
        );
    }
    assert_eq!(ran.load(Ordering::Relaxed), 501 * HELPERS);
}
