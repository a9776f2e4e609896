//! The campaign service's bookkeeping: admission gate, results cache,
//! exactly-once completion board.
//!
//! [`crate::service::Service`] owns all three and drives them from its
//! one thread through `&mut self`, in virtual-time order. The guarantees
//! its report depends on — occupancy never exceeds capacity, an admitted
//! job is never lost, a job never completes twice after a node leaves, a
//! cache key never resolves to a different value than the one first
//! published — are properties of these plain structures (DESIGN.md §13).

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Hash of the `Debug` string of the campaign's scheduling
    /// [`vsched::Strategy`]. Every campaign scores with the same kernel,
    /// so nothing else of the run's configuration enters the key.
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
#[derive(Default)]
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

/// Hasher for keys made of a few machine words (a [`CacheKey`], a job
/// shape). Each word is folded in with one rotate, xor and multiply and
/// the sum is finished by the SplitMix64 mixer. It holds no seed, so a
/// table's layout is the same in every run; the tables it serves are only
/// probed by key, never iterated. A cache key's words are FNV-1a hashes,
/// which crafted inputs can collide anyway, so a keyed hasher would not
/// protect the cache from a tenant choosing its keys.
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Keyed results cache with publish-once semantics and FIFO eviction.
///
/// A key's value is immutable once published: a second publish for the
/// same key is rejected, so a lookup can never observe a key "change
/// value". Eviction removes whole entries (a later lookup misses and
/// recomputes); it never mutates them in place.
pub struct ResultsCache {
    /// Entries by key: one hashed probe per lookup or publish.
    by_key: HashMap<CacheKey, CachedResult, BuildHasherDefault<WordHasher>>,
    /// Keys in publish order, oldest first: the eviction order.
    fifo: VecDeque<CacheKey>,
    capacity: usize,
}

impl ResultsCache {
    /// Cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> ResultsCache {
        ResultsCache { by_key: HashMap::default(), fifo: VecDeque::new(), capacity }
    }

    /// Look `key` up. A hit is only returned once the entry's result is
    /// ready by `at_vt` — a duplicate arriving while the original is still
    /// in flight recomputes rather than reading the future.
    pub fn lookup(&self, key: &CacheKey, at_vt: f64) -> Option<CachedResult> {
        self.by_key.get(key).filter(|e| e.ready_vt <= at_vt).copied()
    }

    /// Publish `key -> value`. The first publish wins and returns `true`;
    /// a duplicate publish (same key) is rejected with `false` and leaves
    /// the stored value untouched. A new key in a full cache evicts the
    /// oldest published one.
    pub fn publish(&mut self, key: CacheKey, value: CachedResult) -> bool {
        if self.capacity == 0 {
            return false;
        }
        match self.by_key.entry(key) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
        // The new key is not the oldest, so evicting after the insert
        // removes what evicting before it would have.
        if self.fifo.len() == self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.by_key.remove(&old);
            }
        }
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

    /// The reference model: an ordered `BTreeMap` of entries beside the
    /// FIFO of keys, probed for the key before every insert.
    struct Reference {
        map: std::collections::BTreeMap<CacheKey, CachedResult>,
        fifo: VecDeque<CacheKey>,
        capacity: usize,
    }

    impl Reference {
        fn lookup(&self, key: &CacheKey, at_vt: f64) -> Option<CachedResult> {
            self.map.get(key).filter(|e| e.ready_vt <= at_vt).copied()
        }

        fn publish(&mut self, key: CacheKey, value: CachedResult) -> bool {
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

    #[test]
    fn hashed_cache_agrees_with_the_ordered_reference() {
        // 3 × 8 × 2 keys, so publishes repeat keys and keys share words.
        let keys: Vec<CacheKey> = (0..48)
            .map(|k| CacheKey { receptor: k % 3, ligand: k / 6, seed: 7, kernel: k % 2 })
            .collect();
        for capacity in [0, 1, 7, usize::MAX] {
            let mut rng = vsmath::RngStream::derive(2016, capacity as u64);
            let mut cache = ResultsCache::new(capacity);
            let mut model = Reference { map: Default::default(), fifo: VecDeque::new(), capacity };
            for op in 0..4000 {
                let key = keys[rng.index(keys.len())];
                match rng.index(3) {
                    0 => {
                        let value = CachedResult {
                            compute_s: rng.uniform(),
                            ready_vt: rng.uniform_range(1.0, 10.0),
                        };
                        assert_eq!(cache.publish(key, value), model.publish(key, value), "op {op}");
                    }
                    1 => {
                        let at = rng.uniform_range(0.0, 10.0);
                        assert_eq!(cache.lookup(&key, at), model.lookup(&key, at), "op {op}");
                    }
                    _ => {
                        // At the entry's ready time it hits; just before, it
                        // misses.
                        if let Some(e) = model.map.get(&key) {
                            let before = f64::from_bits(e.ready_vt.to_bits() - 1);
                            assert_eq!(cache.lookup(&key, e.ready_vt), Some(*e), "op {op}");
                            assert_eq!(cache.lookup(&key, before), None, "op {op}");
                        }
                    }
                }
                // Every eviction agrees: the same keys are held afterwards.
                for k in &keys {
                    let held = |e: Option<CachedResult>| e.map(|e| e.compute_s.to_bits());
                    assert_eq!(
                        held(cache.lookup(k, f64::INFINITY)),
                        held(model.lookup(k, f64::INFINITY)),
                        "capacity {capacity}, op {op}"
                    );
                }
            }
            assert!(model.map.len() <= capacity);
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultsCache::new(0);
        assert!(!c.publish(key(1), CachedResult { compute_s: 1.0, ready_vt: 0.0 }));
        assert_eq!(c.lookup(&key(1), 1.0), None, "nothing was stored");
    }
}
