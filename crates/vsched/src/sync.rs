//! Synchronization facade for the scheduler's concurrency cores.
//!
//! Normal builds re-export `std` types verbatim — a zero-cost pure alias,
//! so production code is bit-for-bit the `std`-based implementation.
//! Under the `vscheck-model` feature the same names resolve to the
//! `vscheck` instrumented primitives, turning every sync operation in
//! [`crate::deque`] and [`crate::oracle`] into a scheduler choice point so
//! the `model_*` tests can exhaustively explore interleavings (DESIGN.md
//! §9). There is no thread or condvar here: `vsched` starts no threads —
//! batches are scored on `vsscore`'s pool, whose protocol is modelled in
//! `vsscore::pool`.

#[cfg(not(feature = "vscheck-model"))]
pub(crate) use std::sync::Mutex;
#[cfg(feature = "vscheck-model")]
pub(crate) use vscheck::sync::Mutex;

pub(crate) mod atomic {
    #[cfg(not(feature = "vscheck-model"))]
    pub(crate) use std::sync::atomic::AtomicU64;
    #[cfg(feature = "vscheck-model")]
    pub(crate) use vscheck::sync::atomic::AtomicU64;
    // The vscheck atomics take `std` orderings (and collapse them to
    // SeqCst), so `Ordering` aliases `std` in both configurations.
    pub(crate) use std::sync::atomic::Ordering;
}
