//! Occupancy map of the growing aggregate.
//!
//! The aggregate of an IDLA process is the set of vertices on which a
//! particle has settled. The hot loop queries and updates it once per walk
//! step, so it is a flat bitmap plus a settled counter — stored as packed
//! 64-bit words (8× denser than `Vec<bool>`, so far more of a big torus
//! fits in cache) behind relaxed atomics, so a map can be read from other
//! threads and settled through a shared reference
//! ([`Occupancy::settle_shared`]). The engine itself is single-threaded
//! and owns its map. Occupancy is monotone (bits only ever turn on), which
//! is what makes relaxed ordering sound: a stale read can only
//! under-report the aggregate.

use dispersion_graphs::Vertex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Which vertices are occupied by settled particles.
#[derive(Debug)]
pub struct Occupancy {
    words: Vec<AtomicU64>,
    n: usize,
    count: AtomicUsize,
}

impl Clone for Occupancy {
    fn clone(&self) -> Self {
        Occupancy {
            words: self
                .words
                .iter()
                // ORDERING: Relaxed — clone runs while no other thread writes
                // (callers clone between rounds); no cross-word ordering needed
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            n: self.n,
            // ORDERING: Relaxed — same quiescent-clone argument as the words
            count: AtomicUsize::new(self.count.load(Ordering::Relaxed)),
        }
    }
}

impl Occupancy {
    /// All-vacant occupancy for `n` vertices.
    pub fn new(n: usize) -> Self {
        Occupancy {
            words: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            n,
            count: AtomicUsize::new(0),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `v` is occupied.
    #[inline]
    pub fn is_occupied(&self, v: Vertex) -> bool {
        let v = v as usize;
        debug_assert!(v < self.n);
        // ORDERING: Relaxed — occupancy is monotone (bits only turn on), so a
        // stale read only under-reports (module docs)
        self.words[v >> 6].load(Ordering::Relaxed) >> (v & 63) & 1 == 1
    }

    /// Marks `v` occupied.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already occupied — a settled vertex can never be
    /// settled again; hitting this indicates a scheduler bug.
    #[inline]
    pub fn settle(&mut self, v: Vertex) {
        self.settle_shared(v);
    }

    /// Marks `v` occupied through a shared reference, so a settling thread
    /// can run while others hold `&Occupancy`. Panics on double-settle
    /// like [`Occupancy::settle`].
    #[inline]
    pub fn settle_shared(&self, v: Vertex) {
        let vi = v as usize;
        debug_assert!(vi < self.n);
        // ORDERING: Relaxed — monotone set; the RMW is atomic on its own word
        // and readers tolerate staleness (see is_occupied)
        let prev = self.words[vi >> 6].fetch_or(1 << (vi & 63), Ordering::Relaxed);
        assert!(
            prev >> (vi & 63) & 1 == 0,
            "vertex {v} settled twice: scheduler bug"
        );
        // ORDERING: Relaxed — count is a statistic, not a synchronisation
        // point; only a writer's own reads need the exact value
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of occupied vertices.
    #[inline]
    pub fn settled_count(&self) -> usize {
        // ORDERING: Relaxed — monotone counter; cross-thread readers may see a
        // lagging value, which only delays (never falsifies) an is_full answer
        self.count.load(Ordering::Relaxed)
    }

    /// Whether every vertex is occupied.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.settled_count() == self.n
    }

    /// The currently vacant vertices (ascending).
    pub fn vacant(&self) -> Vec<Vertex> {
        (0..self.n as Vertex)
            .filter(|&v| !self.is_occupied(v))
            .collect()
    }

    /// The currently occupied vertices — the aggregate `A(t)` (ascending).
    pub fn aggregate(&self) -> Vec<Vertex> {
        (0..self.n as Vertex)
            .filter(|&v| self.is_occupied(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_vacant() {
        let o = Occupancy::new(4);
        assert_eq!(o.settled_count(), 0);
        assert!(!o.is_full());
        assert_eq!(o.vacant(), vec![0, 1, 2, 3]);
        assert!(o.aggregate().is_empty());
    }

    #[test]
    fn settle_updates_all_views() {
        let mut o = Occupancy::new(3);
        o.settle(1);
        assert!(o.is_occupied(1));
        assert!(!o.is_occupied(0));
        assert_eq!(o.settled_count(), 1);
        assert_eq!(o.vacant(), vec![0, 2]);
        assert_eq!(o.aggregate(), vec![1]);
        o.settle(0);
        o.settle(2);
        assert!(o.is_full());
    }

    #[test]
    #[should_panic(expected = "settled twice")]
    fn double_settle_panics() {
        let mut o = Occupancy::new(2);
        o.settle(0);
        o.settle(0);
    }

    #[test]
    fn word_boundaries() {
        // Vertices straddling the u64 word edges behave like any other.
        let mut o = Occupancy::new(200);
        for v in [0u32, 63, 64, 127, 128, 191, 199] {
            assert!(!o.is_occupied(v));
            o.settle(v);
            assert!(o.is_occupied(v));
        }
        assert_eq!(o.settled_count(), 7);
        assert_eq!(o.aggregate(), vec![0, 63, 64, 127, 128, 191, 199]);
        let clone = o.clone();
        assert_eq!(clone.aggregate(), o.aggregate());
        assert_eq!(clone.settled_count(), 7);
    }

    #[test]
    fn shared_settle_visible_across_threads() {
        let o = Occupancy::new(1024);
        std::thread::scope(|s| {
            let or = &o;
            s.spawn(move || {
                for v in (0..1024).step_by(2) {
                    or.settle_shared(v);
                }
            });
        });
        assert_eq!(o.settled_count(), 512);
        assert!(o.is_occupied(0) && o.is_occupied(2) && !o.is_occupied(3));
    }
}
