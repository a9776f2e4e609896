//! Synchronization facade for the pool's concurrency core.
//!
//! Normal builds re-export `std` types verbatim — a zero-cost pure alias,
//! so the production pool is bit-for-bit the `std`-based implementation.
//! Under the `vscheck-model` feature the same names resolve to the
//! `vscheck` instrumented primitives, turning every sync operation in
//! [`crate::pool`] into a scheduler choice point so the `model_*` tests
//! can exhaustively explore interleavings (see DESIGN.md §9).

#[cfg(not(feature = "vscheck-model"))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};
#[cfg(feature = "vscheck-model")]
pub(crate) use vscheck::sync::{Condvar, Mutex, MutexGuard};

pub(crate) mod thread {
    #[cfg(not(feature = "vscheck-model"))]
    pub(crate) use std::thread::{Builder, JoinHandle};
    #[cfg(feature = "vscheck-model")]
    pub(crate) use vscheck::thread::{Builder, JoinHandle};

    /// How many threads this host runs at once (1 when it will not say),
    /// asked once per process: the answer costs a system call or more.
    // DETERMINISM: sizes a worker team and nothing else — every pool job gives the same bits on any team (`pool` module docs).
    #[cfg(not(feature = "vscheck-model"))]
    pub(crate) fn available_parallelism() -> usize {
        static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *THREADS
            .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
    }
    /// A model run has no host: a fixed team keeps explorations repeatable.
    #[cfg(feature = "vscheck-model")]
    pub(crate) fn available_parallelism() -> usize {
        2
    }
}
