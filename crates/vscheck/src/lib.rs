//! # vscheck — deterministic concurrency model checking
//!
//! The workspace's hottest path rests on a hand-rolled low-level
//! concurrency protocol: the persistent `CpuPool` worker team
//! (`vsscore::pool`). Happy-path integration tests exercise one or two
//! interleavings of such a protocol per run; the races they can miss (a
//! clobbered job slot, a lost wakeup, a torn seqlock read) corrupt scores
//! *silently*. This crate
//! is the repo's answer: a dependency-free, loom-style model checker that
//! **exhaustively explores thread interleavings** of a test closure within
//! a preemption bound, and prints a **replayable schedule** when an
//! interleaving fails.
//!
//! ## How it works
//!
//! Code under test is written against the drop-in primitives in
//! [`sync`] and [`thread`] (the production crates route through a
//! `crate::sync` facade that re-exports `std` types in normal builds and
//! these instrumented types under their `vscheck-model` feature — the
//! wrapper layer is a pure re-export, so normal builds are bit-for-bit
//! identical to using `std` directly).
//!
//! Inside [`explore`], every model thread is a real OS thread, but **at
//! most one is ever running**: each instrumented operation (mutex
//! lock/unlock, condvar wait/notify, atomic access, spawn/join) is a
//! *choice point* that hands control to a scheduler, which decides — per
//! the schedule being explored — which thread runs next. Schedules are
//! enumerated by depth-first search with **preemption bounding** (Musuvathi
//! & Qadeer's CHESS heuristic): at most `preemption_bound` involuntary
//! context switches per schedule, which finds the vast majority of real
//! concurrency bugs with a tractable state space.
//!
//! The checker detects and reports, with a replayable schedule trace:
//!
//! - **deadlocks** (every live thread blocked — includes lost wakeups,
//!   which strand a waiter that missed its `notify`),
//! - **assertion failures / panics** under some interleaving,
//! - **livelock** (a schedule exceeding the step budget),
//! - **nondeterminism** in the closure (the same choice prefix must
//!   reproduce the same runnable set; if not, the run is not checkable).
//!
//! ## What is (and is not) modeled
//!
//! - Interleavings are explored under **sequential consistency**. Weak
//!   memory reordering (`Relaxed`/`Acquire`/`Release` distinctions) is
//!   *not* modeled: a protocol can pass vscheck and still have an ordering
//!   bug on hardware. Orderings are accepted and ignored in model mode.
//! - Condvars have no spurious wakeups in the model; `notify_one` wakes
//!   waiters FIFO. A protocol must therefore be robust to *lost* wakeups
//!   (checked) but is not exercised against *spurious* ones.
//! - Non-atomic memory accessed between choice points executes as one
//!   indivisible step; tearing of plain (non-`sync`-mediated) data is
//!   checked at the protocol level (see the toy seqlock self-test), not at
//!   byte granularity.
//! - Everything an exploration touches must be created inside the closure
//!   and synchronized only through [`sync`]/[`thread`] primitives created
//!   there. Mixing scheduler-managed and free-running threads on the same
//!   primitive is unsupported.
//!
//! Outside an exploration the instrumented types transparently pass
//! through to their `std` counterparts, so a crate compiled with its
//! `vscheck-model` feature still runs its whole ordinary test suite
//! unchanged.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use vscheck::{explore, Config};
//!
//! let report = explore(Config::default(), || {
//!     let counter = Arc::new(vscheck::sync::atomic::AtomicU64::new(0));
//!     let c2 = Arc::clone(&counter);
//!     let t = vscheck::thread::spawn(move || {
//!         // load-modify-store without atomicity: a lost update under
//!         // some interleaving, which the checker will find.
//!         let v = c2.load(std::sync::atomic::Ordering::SeqCst);
//!         c2.store(v + 1, std::sync::atomic::Ordering::SeqCst);
//!     });
//!     let v = counter.load(std::sync::atomic::Ordering::SeqCst);
//!     counter.store(v + 1, std::sync::atomic::Ordering::SeqCst);
//!     t.join().unwrap();
//!     // Not always 2: the racy schedule loses an update.
//!     assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 2);
//! });
//! let failure = report.failure.expect("the race must be found");
//! // The failing schedule replays deterministically:
//! assert!(!failure.schedule.is_empty() || failure.schedule.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod sched;
pub mod sync;
pub mod thread;

pub use sched::{explore, replay, Config, Failure, FailureKind, Report};
