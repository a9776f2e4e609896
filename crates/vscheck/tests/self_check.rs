//! Self-tests for the model checker: known-broken protocols it must flag
//! (mutation-style "does the checker have teeth" targets, per ISSUE 4),
//! known-correct protocols it must pass exhaustively, and schedule-replay
//! reproduction.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use vscheck::sync::atomic::AtomicU64;
use vscheck::sync::{Condvar, Mutex};
use vscheck::{explore, replay, Config, FailureKind};

// ---------------------------------------------------------------------------
// Racy counter: the canonical lost-update bug.
// ---------------------------------------------------------------------------

fn racy_counter() {
    let counter = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&counter);
    let t = vscheck::thread::spawn(move || {
        let v = c2.load(Ordering::SeqCst);
        c2.store(v + 1, Ordering::SeqCst);
    });
    let v = counter.load(Ordering::SeqCst);
    counter.store(v + 1, Ordering::SeqCst);
    t.join().unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
}

#[test]
fn finds_lost_update_in_racy_counter() {
    let report = explore(Config::default(), racy_counter);
    let failure = report.failure.expect("the lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("lost update"), "message: {}", failure.message);
    assert!(!failure.schedule.is_empty());
}

#[test]
fn mutex_counter_passes_exhaustively() {
    let report = explore(Config::default(), || {
        let counter = Arc::new(Mutex::new(0u64));
        let c2 = Arc::clone(&counter);
        let t = vscheck::thread::spawn(move || {
            *c2.lock().unwrap() += 1;
        });
        *counter.lock().unwrap() += 1;
        t.join().unwrap();
        assert_eq!(*counter.lock().unwrap(), 2);
    });
    report.assert_passed();
    assert!(report.complete, "state space must be exhausted");
    assert!(report.schedules > 1, "more than one interleaving explored");
}

// ---------------------------------------------------------------------------
// Schedule replay: a failure reproduces deterministically from its trace.
// ---------------------------------------------------------------------------

#[test]
fn failing_schedule_replays_identically() {
    let report = explore(Config::default(), racy_counter);
    let failure = report.failure.expect("failure expected");

    let replayed = replay(&failure.schedule, racy_counter)
        .failure
        .expect("replaying the schedule must reproduce the failure");
    assert_eq!(replayed.kind, failure.kind);
    assert_eq!(replayed.message, failure.message);
    assert_eq!(replayed.schedule, failure.schedule);
}

#[test]
fn replay_of_wrong_schedule_reports_divergence() {
    // A schedule referencing a task id that never exists diverges.
    let report = replay("0,0,7,0", racy_counter);
    let failure = report.failure.expect("divergence expected");
    assert_eq!(failure.kind, FailureKind::ReplayDivergence);
}

// ---------------------------------------------------------------------------
// Deadlock detection: AB-BA lock ordering.
// ---------------------------------------------------------------------------

#[test]
fn finds_abba_deadlock() {
    let report = explore(Config::with_bound(1), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = vscheck::thread::Builder::new()
            .name("ba-locker".into())
            .spawn(move || {
                let _gb = b2.lock().unwrap();
                let _ga = a2.lock().unwrap();
            })
            .unwrap();
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        t.join().unwrap();
    });
    let failure = report.failure.expect("AB-BA deadlock must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(failure.message.contains("deadlock"), "message: {}", failure.message);
    // The deadlocking schedule replays to the same deadlock.
    let replayed = replay(&failure.schedule, || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = vscheck::thread::Builder::new()
            .name("ba-locker".into())
            .spawn(move || {
                let _gb = b2.lock().unwrap();
                let _ga = a2.lock().unwrap();
            })
            .unwrap();
        {
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
        }
        t.join().unwrap();
    });
    assert_eq!(replayed.failure.expect("replay reproduces").kind, FailureKind::Deadlock);
}

// ---------------------------------------------------------------------------
// Seeded mutation #1: a lost-wakeup pool variant (the bug class PR 1 fixed
// by hand in CpuPool). The waiter re-acquires the lock between checking the
// condition and waiting, opening a window where the notify is lost.
// ---------------------------------------------------------------------------

fn lost_wakeup_pool(buggy: bool) {
    let ready = Arc::new(Mutex::new(false));
    let cv = Arc::new(Condvar::new());
    let (r2, cv2) = (Arc::clone(&ready), Arc::clone(&cv));
    let notifier = vscheck::thread::spawn(move || {
        *r2.lock().unwrap() = true;
        cv2.notify_one();
    });
    if buggy {
        // BUG: condition checked under one critical section, wait entered
        // under a second one — the notify can land in the window between
        // them and is lost, stranding the waiter forever.
        let is_ready = { *ready.lock().unwrap() };
        if !is_ready {
            let guard = ready.lock().unwrap();
            let _guard = cv.wait(guard).unwrap();
        }
    } else {
        // Correct: check and wait under one guard; the condvar re-checks.
        let mut guard = ready.lock().unwrap();
        while !*guard {
            guard = cv.wait(guard).unwrap();
        }
    }
    notifier.join().unwrap();
}

#[test]
fn catches_lost_wakeup_pool_mutation() {
    let report = explore(Config::default(), || lost_wakeup_pool(true));
    let failure = report.failure.expect("the lost wakeup must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock, "lost wakeup manifests as deadlock");
    // And it replays.
    let replayed = replay(&failure.schedule, || lost_wakeup_pool(true));
    assert_eq!(replayed.failure.expect("replay reproduces").kind, FailureKind::Deadlock);
}

#[test]
fn fixed_pool_wait_loop_passes_exhaustively() {
    let report = explore(Config::default(), || lost_wakeup_pool(false));
    report.assert_passed();
    assert!(report.complete);
}

// ---------------------------------------------------------------------------
// Seeded mutation #2: a broken toy seqlock (the bug class a seqlock ring
// buffer guards against). The broken writer updates the payload outside the
// odd-sequence window, so a single-attempt reader validates a clean
// sequence around a torn payload.
// ---------------------------------------------------------------------------

struct ToySeqlock {
    seq: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl ToySeqlock {
    fn new() -> ToySeqlock {
        ToySeqlock { seq: AtomicU64::new(0), a: AtomicU64::new(0), b: AtomicU64::new(0) }
    }

    /// Correct protocol: mark odd, write payload, publish even.
    fn write_correct(&self, v: u64) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed); // odd: write in progress
        self.a.store(v, Ordering::Relaxed);
        self.b.store(v, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Relaxed); // even: published
    }

    /// BUG: payload written with the sequence still even — a reader
    /// sampling between the two stores sees a torn (a != b) payload and
    /// validates it against an unchanged even sequence.
    fn write_broken(&self, v: u64) {
        self.a.store(v, Ordering::Relaxed);
        self.b.store(v, Ordering::Relaxed);
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Relaxed);
    }

    /// Single-attempt validated read:
    /// returns `None` (discard) rather than spinning, so the model never
    /// livelocks.
    fn read(&self) -> Option<(u64, u64)> {
        let s1 = self.seq.load(Ordering::Relaxed);
        if s1 % 2 == 1 {
            return None;
        }
        let a = self.a.load(Ordering::Relaxed);
        let b = self.b.load(Ordering::Relaxed);
        let s2 = self.seq.load(Ordering::Relaxed);
        if s1 != s2 {
            return None;
        }
        Some((a, b))
    }
}

fn seqlock_round(broken: bool) {
    let lock = Arc::new(ToySeqlock::new());
    let w = Arc::clone(&lock);
    let writer = vscheck::thread::spawn(move || {
        if broken {
            w.write_broken(7);
        } else {
            w.write_correct(7);
        }
    });
    if let Some((a, b)) = lock.read() {
        assert_eq!(a, b, "validated read returned a torn payload");
    }
    writer.join().unwrap();
}

#[test]
fn catches_torn_read_in_broken_seqlock() {
    let report = explore(Config::default(), || seqlock_round(true));
    let failure = report.failure.expect("the torn read must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("torn"), "message: {}", failure.message);
}

#[test]
fn correct_seqlock_passes_exhaustively() {
    let report = explore(Config::default(), || seqlock_round(false));
    report.assert_passed();
    assert!(report.complete);
}

// ---------------------------------------------------------------------------
// Livelock / budget behavior.
// ---------------------------------------------------------------------------

#[test]
fn unbounded_spin_reports_step_limit() {
    let cfg = Config { max_steps: 200, ..Config::default() };
    let report = explore(cfg, || {
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let t = vscheck::thread::spawn(move || f2.store(1, Ordering::SeqCst));
        // Spin-wait with no blocking operation: under the schedule that
        // never preempts the spinner, this loops forever.
        while flag.load(Ordering::SeqCst) == 0 {}
        t.join().unwrap();
    });
    let failure = report.failure.expect("step limit expected");
    assert_eq!(failure.kind, FailureKind::StepLimit);
}

#[test]
fn schedule_budget_stops_search_incomplete() {
    let cfg = Config { max_schedules: 1, ..Config::default() };
    let report = explore(cfg, || {
        let counter = Arc::new(Mutex::new(0u64));
        let c2 = Arc::clone(&counter);
        let t = vscheck::thread::spawn(move || *c2.lock().unwrap() += 1);
        *counter.lock().unwrap() += 1;
        t.join().unwrap();
    });
    assert!(report.failure.is_none());
    assert!(!report.complete, "one schedule cannot exhaust this space");
    assert_eq!(report.schedules, 1);
}

// ---------------------------------------------------------------------------
// Passthrough: outside explore() the types behave like std.
// ---------------------------------------------------------------------------

#[test]
fn passthrough_mutex_condvar_and_threads_work() {
    let ready = Arc::new(Mutex::new(false));
    let cv = Arc::new(Condvar::new());
    let (r2, cv2) = (Arc::clone(&ready), Arc::clone(&cv));
    let t = vscheck::thread::Builder::new()
        .name("passthrough".into())
        .spawn(move || {
            *r2.lock().unwrap() = true;
            cv2.notify_all();
            42u32
        })
        .unwrap();
    let mut guard = ready.lock().unwrap();
    while !*guard {
        guard = cv.wait(guard).unwrap();
    }
    drop(guard);
    assert_eq!(t.join().unwrap(), 42);

    let a = AtomicU64::new(5);
    assert_eq!(a.fetch_add(2, Ordering::Relaxed), 5);
    assert_eq!(a.load(Ordering::Acquire), 7);
    assert_eq!(a.swap(1, Ordering::AcqRel), 7);
    assert_eq!(a.compare_exchange(1, 9, Ordering::SeqCst, Ordering::Relaxed), Ok(1));
    assert_eq!(a.load(Ordering::SeqCst), 9);
}

#[test]
fn passthrough_panic_propagates_through_join() {
    let t = vscheck::thread::spawn(|| panic!("boom"));
    let err = t.join().expect_err("panic must surface");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"boom"));
}

// ---------------------------------------------------------------------------
// Panics inside a model run surface as failures with a schedule.
// ---------------------------------------------------------------------------

#[test]
fn child_panic_propagates_through_model_join() {
    let report = explore(Config::with_bound(0), || {
        let t = vscheck::thread::spawn(|| panic!("worker exploded"));
        let err = t.join().expect_err("panic must surface through model join");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"worker exploded"));
    });
    report.assert_passed();
}

#[test]
fn unjoined_child_panic_is_reported() {
    let report = explore(Config::with_bound(0), || {
        let _detached = vscheck::thread::spawn(|| panic!("nobody joins me"));
        // Handle dropped without join.
    });
    let failure = report.failure.expect("unjoined panic must be a failure");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("nobody joins me"), "message: {}", failure.message);
}
