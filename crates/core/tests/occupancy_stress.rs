//! Concurrent stress for the atomic occupancy bitset.
//!
//! The soundness story for the shared `Occupancy` API is: reads are
//! relaxed and may be stale, and occupancy is monotone so staleness only
//! ever under-reports. These tests push on it with many racing settle
//! threads over disjoint stripes, and a racing reader watching for any
//! non-monotone or over-reporting state.

use dispersion_core::occupancy::Occupancy;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const N: usize = 1 << 14;
const THREADS: usize = 8;

/// Racing settlers on disjoint stripes: the final bitmap and counter must
/// be exact regardless of interleaving — no lost fetch_or, no lost count.
#[test]
fn disjoint_stripes_settle_exactly_once() {
    let occ = Occupancy::new(N);
    thread::scope(|s| {
        for t in 0..THREADS {
            let occ = &occ;
            s.spawn(move || {
                // stripe t: vertices congruent to t mod THREADS, in a
                // scrambled order so threads collide on words, not vertices
                let mut v = t;
                while v < N {
                    occ.settle_shared(v as u32);
                    v += THREADS;
                }
            });
        }
    });
    assert_eq!(occ.settled_count(), N);
    assert!(occ.is_full());
    assert!(occ.vacant().is_empty());
    assert_eq!(occ.aggregate().len(), N);
}

/// A racing reader never observes the aggregate shrink, never sees the
/// counter exceed the true number of settles, and never sees a vertex
/// flip back to vacant.
#[test]
fn reader_observes_monotone_growth() {
    let occ = Occupancy::new(N);
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let occ_ref = &occ;
        let done_ref = &done;
        let reader = s.spawn(move || {
            let mut last_count = 0usize;
            let mut max_seen = 0usize;
            while !done_ref.load(Ordering::Acquire) {
                let c = occ_ref.settled_count();
                assert!(
                    c >= last_count,
                    "settled_count went backwards: {last_count} -> {c}"
                );
                assert!(c <= N, "settled_count over-reported: {c} > {N}");
                last_count = c;
                // spot-check monotonicity of individual bits on a stride
                let mut seen = 0usize;
                for v in (0..N as u32).step_by(61) {
                    if occ_ref.is_occupied(v) {
                        seen += 1;
                    }
                }
                assert!(
                    seen >= max_seen,
                    "occupied spot-check shrank: {max_seen} -> {seen}"
                );
                max_seen = seen;
            }
            last_count
        });
        for t in 0..THREADS {
            let occ_w = &occ;
            s.spawn(move || {
                let mut v = t;
                while v < N {
                    occ_w.settle_shared(v as u32);
                    v += THREADS;
                }
            });
        }
        // The writer handles are detached into the scope; order "writers
        // done" before "reader stops" by watching the count reach full.
        while occ.settled_count() < N {
            thread::yield_now();
        }
        done.store(true, Ordering::Release);
        let final_read = reader.join().unwrap();
        assert!(final_read <= N);
    });
    assert_eq!(occ.settled_count(), N);
    assert_eq!(occ.aggregate().len(), N);
}

/// Double-settle still panics when the race is cross-thread: the bitset's
/// exactly-once claim is enforced, not just documented.
#[test]
fn cross_thread_double_settle_is_caught() {
    let occ = Occupancy::new(64);
    occ.settle_shared(7);
    let result = thread::scope(|s| s.spawn(|| occ.settle_shared(7)).join());
    assert!(
        result.is_err(),
        "second settle of the same vertex must panic"
    );
    assert_eq!(occ.settled_count(), 1);
}
