//! Lock-free per-device chunk deque for the work-stealing runtime.
//!
//! Each device owns one [`ChunkDeque`]: a half-open index range
//! `[lo, hi)` over the current batch's conformations, packed into a single
//! `AtomicU64` (`lo` in the high 32 bits, `hi` in the low 32). The owning
//! device claims chunks from the *front* ([`ChunkDeque::pop_front`],
//! advancing `lo`); idle thieves claim from the *back*
//! ([`ChunkDeque::steal_back`], retreating `hi`). Both ends are plain CAS
//! loops on the one word, so every claim is linearizable: a successful CAS
//! transfers ownership of exactly the claimed sub-range, and no
//! interleaving of owners and thieves can lose or double-claim an index —
//! the property the `model_*` suite below explores exhaustively under the
//! `vscheck-model` feature (DESIGN.md §10).
//!
//! # Memory ordering
//!
//! All operations use `Relaxed` loads and a `Relaxed`-failure CAS
//! (entered in `xlint`'s Relaxed allowlist). This is sound because the
//! packed range word is the *entire* shared state: the indices themselves
//! are the transferred data, carried by the CAS value, and the
//! conformation slice the indices refer to is written only *after* all
//! claims are handed to workers through a `Mutex`-protected job slot
//! (`vsscore::pool`'s, behind `runtime::dispatch`), which provides the
//! necessary happens-before edge. No payload is published through the
//! deque word, so no acquire/release pairing is needed on it.

use crate::sync::atomic::{AtomicU64, Ordering};

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// A range deque holding the not-yet-claimed chunk `[lo, hi)` of one
/// device's seeded share. See the module docs for the concurrency
/// contract.
pub struct ChunkDeque {
    range: AtomicU64,
}

impl ChunkDeque {
    /// A deque holding the half-open range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> ChunkDeque {
        assert!(lo <= hi, "inverted range [{lo}, {hi})");
        ChunkDeque { range: AtomicU64::new(pack(lo, hi)) }
    }

    /// Items not yet claimed.
    pub fn len(&self) -> u32 {
        let (lo, hi) = unpack(self.range.load(Ordering::Relaxed));
        hi.saturating_sub(lo)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unclaimed `(lo, hi)` bounds (a racy snapshot under concurrency,
    /// exact when quiescent).
    pub fn bounds(&self) -> (u32, u32) {
        unpack(self.range.load(Ordering::Relaxed))
    }

    /// Owner end: claim up to `max` items from the front. Returns the
    /// claimed half-open range, or `None` if the deque is empty or
    /// `max == 0`.
    pub fn pop_front(&self, max: u32) -> Option<(u32, u32)> {
        if max == 0 {
            return None;
        }
        let mut cur = self.range.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = max.min(hi - lo);
            match self.range.compare_exchange(
                cur,
                pack(lo + take, hi),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((lo, lo + take)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief end: claim up to `max` items from the back. Returns the
    /// claimed half-open range, or `None` if the deque is empty or
    /// `max == 0`.
    pub fn steal_back(&self, max: u32) -> Option<(u32, u32)> {
        if max == 0 {
            return None;
        }
        let mut cur = self.range.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = max.min(hi - lo);
            match self.range.compare_exchange(
                cur,
                pack(lo, hi - take),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((hi - take, hi)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Test-and-teaching hook: a deliberately *broken* pop that performs
    /// the claim as a non-atomic load/store pair instead of a CAS. Two
    /// concurrent broken pops can both read the same `lo` and hand out the
    /// same chunk twice — the defect the model-checking suite proves
    /// `explore` finds and `replay` reproduces deterministically.
    #[cfg(any(test, feature = "vscheck-model"))]
    pub fn racy_pop_for_test(&self, max: u32) -> Option<(u32, u32)> {
        let (lo, hi) = unpack(self.range.load(Ordering::Relaxed));
        if lo >= hi || max == 0 {
            return None;
        }
        let take = max.min(hi - lo);
        // Lost update on purpose: another claim between the load above and
        // this store is silently overwritten.
        self.range.store(pack(lo + take, hi), Ordering::Relaxed);
        Some((lo, lo + take))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_drains_front_in_order() {
        let d = ChunkDeque::new(0, 10);
        assert_eq!(d.pop_front(4), Some((0, 4)));
        assert_eq!(d.pop_front(4), Some((4, 8)));
        assert_eq!(d.pop_front(4), Some((8, 10)), "final pop clips to the remainder");
        assert_eq!(d.pop_front(4), None);
        assert!(d.is_empty());
    }

    #[test]
    fn steal_takes_from_tail() {
        let d = ChunkDeque::new(0, 10);
        assert_eq!(d.steal_back(3), Some((7, 10)));
        assert_eq!(d.steal_back(100), Some((0, 7)), "oversized steal clips");
        assert_eq!(d.steal_back(1), None);
    }

    #[test]
    fn pop_and_steal_partition_the_range() {
        let d = ChunkDeque::new(5, 25);
        let a = d.pop_front(8).unwrap();
        let b = d.steal_back(8).unwrap();
        let c = d.pop_front(100).unwrap();
        assert_eq!(a, (5, 13));
        assert_eq!(b, (17, 25));
        assert_eq!(c, (13, 17));
        assert!(d.is_empty());
    }

    #[test]
    fn zero_max_claims_nothing() {
        let d = ChunkDeque::new(0, 4);
        assert_eq!(d.pop_front(0), None);
        assert_eq!(d.steal_back(0), None);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn empty_range_allowed() {
        let d = ChunkDeque::new(7, 7);
        assert!(d.is_empty());
        assert_eq!(d.pop_front(1), None);
        assert_eq!(d.steal_back(1), None);
        assert_eq!(d.bounds(), (7, 7));
    }

    #[test]
    #[should_panic]
    fn inverted_range_rejected() {
        ChunkDeque::new(3, 2);
    }

    /// OS-thread stress: an owner popping and two thieves stealing must
    /// partition the range exactly once (coarse real-concurrency check;
    /// the exhaustive version is the `model_*` suite).
    #[test]
    fn concurrent_claims_cover_exactly_once() {
        use std::sync::{Arc, Mutex};
        const N: u32 = 50_000;
        let d = Arc::new(ChunkDeque::new(0, N));
        let claimed = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for thief in [false, true, true] {
            let d = Arc::clone(&d);
            let claimed = Arc::clone(&claimed);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                loop {
                    let got = if thief { d.steal_back(7) } else { d.pop_front(13) };
                    match got {
                        Some(r) => local.push(r),
                        None => break,
                    }
                }
                claimed.lock().unwrap().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut ranges = claimed.lock().unwrap().clone();
        ranges.sort_unstable();
        let mut next = 0u32;
        for (lo, hi) in ranges {
            assert_eq!(lo, next, "gap or overlap at {lo}");
            assert!(hi > lo);
            next = hi;
        }
        assert_eq!(next, N, "tail lost");
    }
}

/// Exhaustive interleaving checks of the deque's claim protocol under the
/// `vscheck` model checker (run with
/// `cargo test -p vsched --features vscheck-model model_`).
///
/// Invariant: under *every* bounded interleaving of two claiming workers
/// plus one stealer, the union of claimed ranges is exactly the seeded
/// range — no chunk lost, none double-executed. A deliberately broken
/// (non-CAS) variant shows the checker finds the violation and that the
/// reported schedule replays it deterministically.
#[cfg(all(test, feature = "vscheck-model"))]
mod model_tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::Arc;
    use vscheck::thread::Builder;
    use vscheck::{explore, replay, Config};

    /// Run `claimers` threads against one deque of `n` items; each thread
    /// repeatedly invokes its claim function until the deque is empty.
    /// Returns the sorted list of claimed ranges.
    fn claim_all(n: u32, claimers: &[fn(&ChunkDeque) -> Option<(u32, u32)>]) -> Vec<(u32, u32)> {
        let deque = Arc::new(ChunkDeque::new(0, n));
        let claimed = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = claimers
            .iter()
            .map(|&claim| {
                let deque = Arc::clone(&deque);
                let claimed = Arc::clone(&claimed);
                Builder::new()
                    .name("claimer".into())
                    .spawn(move || {
                        while let Some(r) = claim(&deque) {
                            claimed.lock().expect("claim log poisoned").push(r);
                        }
                    })
                    .expect("spawn claimer")
            })
            .collect();
        for h in handles {
            h.join().expect("claimer panicked");
        }
        let mut ranges = claimed.lock().expect("claim log poisoned").clone();
        ranges.sort_unstable();
        ranges
    }

    fn assert_exact_cover(ranges: &[(u32, u32)], n: u32) {
        let mut next = 0u32;
        for &(lo, hi) in ranges {
            assert_eq!(lo, next, "chunk lost or double-claimed at index {lo} (got {ranges:?})");
            assert!(hi > lo, "empty claim in {ranges:?}");
            next = hi;
        }
        assert_eq!(next, n, "tail of the range lost ({ranges:?})");
    }

    #[test]
    fn model_two_workers_one_stealer_exact_coverage() {
        let report = explore(Config::with_bound(2), || {
            let ranges = claim_all(
                6,
                &[
                    |d| d.pop_front(2),  // worker, guided-size grabs
                    |d| d.pop_front(3),  // second worker, larger grabs
                    |d| d.steal_back(2), // thief at the tail
                ],
            );
            assert_exact_cover(&ranges, 6);
        });
        report.assert_passed();
        assert!(report.complete, "bounded state space must be exhausted");
    }

    #[test]
    fn model_thieves_only_still_partition() {
        let report = explore(Config::with_bound(2), || {
            let ranges = claim_all(5, &[|d| d.steal_back(2), |d| d.steal_back(3)]);
            assert_exact_cover(&ranges, 5);
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_broken_pop_found_and_replays_deterministically() {
        // The non-CAS pop loses updates: two concurrent claims can hand
        // out the same chunk. `explore` must find such an interleaving,
        // and the reported schedule must reproduce the same failure via
        // `replay` — the satellite's "a found violation replays
        // deterministically" contract.
        let check = || {
            let ranges = claim_all(4, &[|d| d.racy_pop_for_test(2), |d| d.racy_pop_for_test(2)]);
            assert_exact_cover(&ranges, 4);
        };
        let report = explore(Config::with_bound(2), check);
        let failure = report.failure.expect("the racy pop must be caught");
        assert!(
            failure.message.contains("double-claimed") || failure.message.contains("lost"),
            "unexpected failure: {}",
            failure.message
        );
        for _ in 0..2 {
            let replayed = replay(&failure.schedule, check);
            let again = replayed.failure.expect("replay must reproduce the violation");
            assert_eq!(again.message, failure.message, "replay diverged");
        }
    }
}
