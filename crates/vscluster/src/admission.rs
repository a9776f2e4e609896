//! The campaign service's bookkeeping: admission gate, results cache,
//! exactly-once completion board.
//!
//! [`crate::service::Service`] owns all three and drives them from its
//! one thread through `&mut self`, in virtual-time order. The guarantees
//! its report depends on — occupancy never exceeds capacity, an admitted
//! job is never lost, a job never completes twice after a node leaves, a
//! cache key never resolves to a different value than the one first
//! published — are properties of these plain structures (DESIGN.md §13).

use std::collections::{BTreeMap, VecDeque};

/// Key of one per-ligand docking result: everything that determines the
/// outcome of the computation. Two submissions with equal keys are the
/// same work, so the second may be served from the cache; any differing
/// component (receptor geometry, ligand identity/parameters, RNG seed, or
/// scoring kernel) changes the key and can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Hash of the receptor side: atom count, surface spots (and target
    /// name for cross-docking).
    pub receptor: u64,
    /// Hash of the ligand side: ligand id, atom count, payload bytes and
    /// metaheuristic parameters.
    pub ligand: u64,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Hash of the scoring/scheduling kernel configuration.
    pub kernel: u64,
}

/// The cached outcome of one per-ligand job (virtual-time quantities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedResult {
    /// Device compute time the original (cold) execution paid.
    pub compute_s: f64,
    /// Virtual time the result became available; a duplicate arriving
    /// earlier than this must recompute (the original is still in flight).
    pub ready_vt: f64,
}

/// FNV-1a over a stream of `u64` words — the deterministic hash the cache
/// key components are built from (stable across runs and platforms, unlike
/// `std::hash::RandomState`).
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Hash a string into the same FNV-1a stream (for kernel labels and
/// receptor names).
pub fn fnv1a_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Bounded admission counter: the front door of the campaign service.
///
/// [`AdmissionGate::try_admit`] either reserves `n` slots or rejects
/// without side effects, so occupancy never overshoots `capacity`. A
/// headroom of `interactive_reserve` slots is admissible only by
/// interactive submissions, keeping re-dock latency bounded while bulk
/// sweeps saturate the rest of the queue.
pub struct AdmissionGate {
    occupancy: usize,
    capacity: usize,
    interactive_reserve: usize,
}

impl AdmissionGate {
    /// Gate with `capacity` total slots, `interactive_reserve` of which
    /// only interactive submissions may claim.
    ///
    /// # Panics
    /// Panics if the reserve exceeds the capacity.
    pub fn new(capacity: usize, interactive_reserve: usize) -> AdmissionGate {
        assert!(interactive_reserve <= capacity, "reserve exceeds capacity");
        AdmissionGate { occupancy: 0, capacity, interactive_reserve }
    }

    /// Reserve `n` queue slots for one submission. Returns `false` (no
    /// side effects) when the submission's admissible bound is exceeded:
    /// `capacity` for interactive traffic, `capacity - reserve` for bulk.
    pub fn try_admit(&mut self, n: usize, interactive: bool) -> bool {
        let bound =
            if interactive { self.capacity } else { self.capacity - self.interactive_reserve };
        let admit = self.occupancy + n <= bound;
        if admit {
            self.occupancy += n;
        }
        admit
    }

    /// Release `n` slots after their jobs were dispatched to a node.
    ///
    /// # Panics
    /// Panics if more slots are released than were admitted (a service
    /// bug: a job was dispatched that was never admitted).
    pub fn release(&mut self, n: usize) {
        assert!(n <= self.occupancy, "released {n} slots with only {} admitted", self.occupancy);
        self.occupancy -= n;
    }

    /// Currently admitted-but-undispatched slots.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Exactly-once completion latches, one per job.
///
/// When a node leaves mid-campaign its in-flight jobs are requeued, and
/// the original execution and the requeued one may then both deliver the
/// same job id. [`CompletionBoard::try_complete`] lets exactly one
/// delivery count, so the report never double-counts and never loses a
/// job.
pub struct CompletionBoard {
    done: Vec<bool>,
}

impl CompletionBoard {
    /// Board for `jobs` job ids, all incomplete.
    pub fn new(jobs: usize) -> CompletionBoard {
        CompletionBoard { done: vec![false; jobs] }
    }

    /// Claim the completion of `job`. The first caller gets `true`; every
    /// later (duplicate) delivery gets `false` and must discard its result.
    pub fn try_complete(&mut self, job: usize) -> bool {
        !std::mem::replace(&mut self.done[job], true)
    }
}

/// Keyed results cache with publish-once semantics and FIFO eviction.
///
/// A key's value is immutable once published: a second publish for the
/// same key is rejected, so a lookup can never observe a key "change
/// value". Eviction removes whole entries (a later lookup misses and
/// recomputes); it never mutates them in place.
pub struct ResultsCache {
    map: BTreeMap<CacheKey, CachedResult>,
    /// Keys in publish order, oldest first: the eviction order.
    fifo: VecDeque<CacheKey>,
    capacity: usize,
}

impl ResultsCache {
    /// Cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> ResultsCache {
        ResultsCache { map: BTreeMap::new(), fifo: VecDeque::new(), capacity }
    }

    /// Look `key` up. A hit is only returned once the entry's result is
    /// ready by `at_vt` — a duplicate arriving while the original is still
    /// in flight recomputes rather than reading the future.
    pub fn lookup(&self, key: &CacheKey, at_vt: f64) -> Option<CachedResult> {
        self.map.get(key).filter(|e| e.ready_vt <= at_vt).copied()
    }

    /// Publish `key -> value`. The first publish wins and returns `true`;
    /// a duplicate publish (same key) is rejected with `false` and leaves
    /// the stored value untouched.
    pub fn publish(&mut self, key: CacheKey, value: CachedResult) -> bool {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return false;
        }
        if self.fifo.len() == self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key, value);
        self.fifo.push_back(key);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey { receptor: 1, ligand: n, seed: 7, kernel: 3 }
    }

    #[test]
    fn gate_admits_to_capacity_and_releases() {
        let mut g = AdmissionGate::new(10, 0);
        assert!(g.try_admit(6, false));
        assert!(g.try_admit(4, false));
        assert!(!g.try_admit(1, false), "over capacity");
        g.release(5);
        assert!(g.try_admit(5, false));
        assert_eq!(g.occupancy(), 10);
    }

    #[test]
    fn interactive_reserve_is_interactive_only() {
        let mut g = AdmissionGate::new(10, 4);
        assert!(g.try_admit(6, false));
        assert!(!g.try_admit(1, false), "bulk capped at capacity - reserve");
        assert!(g.try_admit(3, true), "interactive may use the reserve");
        assert!(!g.try_admit(2, true), "but not beyond total capacity");
        assert!(g.try_admit(1, true));
    }

    #[test]
    #[should_panic]
    fn over_release_panics() {
        let mut g = AdmissionGate::new(4, 0);
        assert!(g.try_admit(2, false));
        g.release(3);
    }

    #[test]
    #[should_panic]
    fn reserve_over_capacity_panics() {
        AdmissionGate::new(2, 3);
    }

    #[test]
    fn completion_board_is_exactly_once() {
        let mut b = CompletionBoard::new(3);
        assert!(b.try_complete(1));
        assert!(!b.try_complete(1), "duplicate delivery rejected");
        assert!(!b.try_complete(1), "and every later one");
        assert!(b.try_complete(0), "other jobs are untouched");
        assert!(b.try_complete(2));
    }

    #[test]
    fn cache_publish_once_and_ready_gating() {
        let mut c = ResultsCache::new(8);
        assert!(c.publish(key(1), CachedResult { compute_s: 2.0, ready_vt: 5.0 }));
        assert!(!c.publish(key(1), CachedResult { compute_s: 9.0, ready_vt: 0.0 }));
        assert_eq!(c.lookup(&key(1), 4.0), None, "not ready yet");
        let hit = c.lookup(&key(1), 5.0).expect("ready");
        assert_eq!(hit.compute_s, 2.0, "first publish wins");
        assert_eq!(c.lookup(&key(2), 10.0), None);
    }

    #[test]
    fn cache_evicts_fifo_and_never_aliases() {
        let mut c = ResultsCache::new(2);
        for n in 0..3u64 {
            assert!(c.publish(key(n), CachedResult { compute_s: n as f64, ready_vt: 0.0 }));
        }
        assert_eq!(c.lookup(&key(0), 1.0), None, "oldest evicted");
        assert_eq!(c.lookup(&key(1), 1.0).map(|e| e.compute_s), Some(1.0));
        assert_eq!(c.lookup(&key(2), 1.0).map(|e| e.compute_s), Some(2.0));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultsCache::new(0);
        assert!(!c.publish(key(1), CachedResult { compute_s: 1.0, ready_vt: 0.0 }));
        assert_eq!(c.lookup(&key(1), 1.0), None, "nothing was stored");
    }

    #[test]
    fn fnv_hashes_are_stable_and_distinct() {
        assert_eq!(fnv1a(&[1, 2, 3]), fnv1a(&[1, 2, 3]));
        assert_ne!(fnv1a(&[1, 2, 3]), fnv1a(&[3, 2, 1]));
        assert_eq!(fnv1a_str("fused"), fnv1a_str("fused"));
        assert_ne!(fnv1a_str("fused"), fnv1a_str("grid"));
    }
}
