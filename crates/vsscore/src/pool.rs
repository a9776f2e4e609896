//! A persistent CPU worker pool for batch scoring and for building.
//!
//! The paper's CPU baseline ("OpenMP") keeps a thread team alive for the
//! whole run; the previous implementation here spawned and joined fresh OS
//! threads on *every batch*, which is pure host-side overhead in the hot
//! loop. [`CpuPool`] replaces that: workers are spawned once, parked on a
//! condvar, and fed work descriptors; each worker owns a [`PoseScratch`]
//! that it reuses across batches, so the steady-state batch path performs
//! no thread creation and no per-pose allocation.
//!
//! The team takes two kinds of job. [`CpuPool::score_batch`] scores a batch
//! of poses against one [`Scorer`]. [`CpuPool::for_each_mut`] runs a
//! caller's closure once over every element of a `&mut [T]` — the potential
//! grids are built through it, one range of lattice planes per item
//! (`grid_potential`). Both are the same job underneath: a length, split
//! into contiguous chunks, one per worker.
//!
//! # Determinism
//!
//! Work is split into the same contiguous chunks as the old
//! spawn-per-batch path (`ceil(len / workers)` per worker, in order), and
//! every pose is scored by the identical serial kernel, so results are
//! bit-identical to the serial [`Scorer::score_batch`] path regardless of
//! worker count or interleaving — the schedule-invariance invariant
//! (DESIGN §7). `for_each_mut` promises the same as long as the body's
//! effect on an item depends on that item alone: which worker runs an item,
//! and when, is all that varies.
//!
//! # Safety model
//!
//! A submitted job carries raw pointers to the caller's slices (and, for
//! `for_each_mut`, to the caller's closure). The pool's `State` has a
//! single job slot, so submissions are serialized through a submitter
//! mutex held for the entire `run_job` — concurrent callers (shared pools
//! are handed to every evaluator with the same thread count) queue up
//! rather than clobbering each other's job, whatever the kinds.
//! Submission blocks until every worker has signalled completion, so the
//! borrows those pointers were derived from strictly outlive all worker
//! access; workers only touch disjoint index ranges, so no two threads
//! alias the same element. `for_each_mut` erases its item and closure
//! types behind a monomorphized trampoline stored beside the pointers; its
//! bounds (`T: Send`, `F: Sync`) are what moving `&mut T` to, and sharing
//! `&F` with, the workers requires.
//!
//! # Panics
//!
//! Workers run each job body under `catch_unwind`: a panicking scorer or
//! closure cannot wedge the completion count. The panic is re-raised on
//! the submitting thread ("pool worker panicked"), and the pool remains
//! usable for subsequent jobs. Items a panicking `for_each_mut` body did
//! not reach are left as they were.

use crate::scorer::{PoseScratch, ScoreBatch, Scorer};
use crate::sync::thread::{Builder, JoinHandle};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;
use vsmath::RigidTransform;
use vsmol::Conformation;

/// What one submission asks the workers to do with their chunk of `0..len`.
#[derive(Clone, Copy)]
enum JobKind {
    /// Score `poses[i]` into `out[i]`.
    Poses { scorer: *const Scorer, poses: *const RigidTransform, out: *mut f64 },
    /// Score `confs[i].pose` into `confs[i].score`.
    Confs { scorer: *const Scorer, confs: *mut Conformation },
    /// `run(items, body, start, end)`: apply the closure behind `body` to
    /// each of `items[start..end]`.
    // SAFETY: `run` is only ever [`run_each`] at the item and closure types the two pointers beside it were erased from (`for_each_mut` is the one constructor).
    Each { items: *mut (), body: *const (), run: unsafe fn(*mut (), *const (), usize, usize) },
}

#[derive(Clone, Copy)]
struct Job {
    kind: JobKind,
    len: usize,
    /// Number of workers the length was chunked over.
    workers: usize,
}

// SAFETY: the pointers are only dereferenced between job publication and
// the completion signal, during which the submitting thread is blocked in
// `run_job` keeping the underlying borrows alive; chunk ranges are
// disjoint per worker. The pointees may cross threads: a `Scorer` is
// `Sync`, poses and conformations are plain data, and `for_each_mut`
// bounds its items `Send` and its closure `Sync`.
unsafe impl Send for Job {}

/// The typed half of a [`JobKind::Each`] job.
///
/// # Safety
/// `items` must point to at least `end` initialized `T`s that no other
/// thread touches in `start..end` for the duration of the call, and `body`
/// to a live `F`.
unsafe fn run_each<T, F: Fn(&mut T)>(items: *mut (), body: *const (), start: usize, end: usize) {
    // SAFETY: the caller's contract, verbatim.
    let (items, body) = unsafe {
        (
            std::slice::from_raw_parts_mut(items.cast::<T>().add(start), end - start),
            &*body.cast::<F>(),
        )
    };
    items.iter_mut().for_each(body);
}

struct State {
    generation: u64,
    shutdown: bool,
    job: Option<Job>,
    remaining: usize,
    /// Set by any worker whose job body panicked; re-raised by the
    /// submitter once the batch completes.
    panicked: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // PANICS: job bodies run under `catch_unwind` outside this lock, so poisoning means the pool's own bookkeeping panicked; propagating that is deliberate.
        self.state.lock().expect("pool mutex poisoned")
    }
}

/// Park on `cv` until it is signalled, releasing the state meanwhile.
fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    // PANICS: as for `Shared::lock`.
    cv.wait(st).expect("pool mutex poisoned")
}

/// A fixed-size team of persistent workers.
///
/// Dropping the pool shuts the workers down and joins them — no threads
/// outlive the pool.
pub struct CpuPool {
    shared: Arc<Shared>,
    /// Serializes submitters: the pool has one job slot, and shared pools
    /// (`shared_pool`) are reachable from many threads at once.
    submit: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl CpuPool {
    /// Spawn a pool of `threads` persistent workers (at least one).
    pub fn new(threads: usize) -> CpuPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                shutdown: false,
                job: None,
                remaining: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                Builder::new()
                    .name(format!("vsscore-cpu-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    // PANICS: worker spawn fails only on OS thread exhaustion; the pool has no degraded mode.
                    .expect("failed to spawn scoring worker")
            })
            .collect();
        CpuPool { shared, submit: Mutex::new(()), workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run one batch across the pool — same input shape as
    /// [`Scorer::score_batch`]; this is the [`crate::Exec::Pool`] backend.
    /// Bit-identical to the serial path for a fixed kernel.
    pub fn score_batch(&self, scorer: &Scorer, input: ScoreBatch<'_>) {
        input.assert_valid();
        if input.is_empty() {
            return;
        }
        let len = input.len();
        let kind = match input {
            ScoreBatch::Poses { poses, out } => {
                JobKind::Poses { scorer, poses: poses.as_ptr(), out: out.as_mut_ptr() }
            }
            ScoreBatch::Confs(confs) => JobKind::Confs { scorer, confs: confs.as_mut_ptr() },
        };
        self.run_job(Job { kind, len, workers: self.workers.len() });
    }

    /// Call `body` once on every item, the items split into contiguous
    /// chunks, one per worker, and return when all are done. Which thread
    /// runs an item is the only thing the worker count decides: a body
    /// whose effect on an item depends on that item alone gives the same
    /// result on any pool. A panic in `body` is re-raised here once every
    /// worker has stopped.
    pub fn for_each_mut<T: Send, F: Fn(&mut T) + Sync>(&self, items: &mut [T], body: F) {
        if items.is_empty() {
            return;
        }
        let kind = JobKind::Each {
            items: items.as_mut_ptr().cast(),
            body: std::ptr::from_ref(&body).cast(),
            run: run_each::<T, F>,
        };
        self.run_job(Job { kind, len: items.len(), workers: self.workers.len() });
    }

    /// Publish a job to every worker and block until all have finished.
    ///
    /// Holds the submitter lock for the whole call: the single job slot in
    /// `State` can only describe one batch, and the raw pointers in `job`
    /// must not be overwritten while workers still dereference them. A
    /// worker panic is re-raised here after all workers have checked in.
    fn run_job(&self, job: Job) {
        // `into_inner` rather than `expect`: a prior submitter that
        // re-raised a worker panic while holding this guard must not
        // poison the pool for everyone after it.
        let _submitting = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut st = self.shared.lock();
            st.job = Some(job);
            st.generation += 1;
            st.remaining = self.workers.len();
        }
        self.shared.work_cv.notify_all();

        let panicked = {
            let mut st = self.shared.lock();
            while st.remaining > 0 {
                st = wait(&self.shared.done_cv, st);
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        if panicked {
            panic!("pool worker panicked");
        }
    }
}

impl Drop for CpuPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut scratch = PoseScratch::new();
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    // PANICS: a generation bump always publishes a job; the model tests explore this exhaustively.
                    break st.job.expect("job published with generation bump");
                }
                st = wait(&shared.work_cv, st);
            }
        };

        // Same contiguous chunking as serial iteration order: worker i
        // owns [i*chunk, (i+1)*chunk) ∩ [0, len). The body runs under
        // catch_unwind so a panicking scorer still decrements `remaining`
        // (otherwise the submitter would block forever); the panic is
        // recorded and re-raised by `run_job`.
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let chunk = job.len.div_ceil(job.workers);
            let start = (index * chunk).min(job.len);
            let end = ((index + 1) * chunk).min(job.len);
            if start < end {
                match job.kind {
                    // SAFETY: see the module-level safety model — the
                    // submitting thread blocks until `remaining` hits zero,
                    // so the scorer and both slices outlive the job;
                    // [start, end) ⊆ [0, job.len) and chunk ranges are
                    // disjoint per worker, so `poses`/`out` elements in
                    // this range are accessed by this thread only.
                    JobKind::Poses { scorer, poses, out } => unsafe {
                        let poses = std::slice::from_raw_parts(poses.add(start), end - start);
                        let out = std::slice::from_raw_parts_mut(out.add(start), end - start);
                        let batch = ScoreBatch::Poses { poses, out };
                        (&*scorer).score_batch_serial(batch, &mut scratch);
                    },
                    // SAFETY: same disjoint-chunk argument for the in-place
                    // conformation variant.
                    JobKind::Confs { scorer, confs } => unsafe {
                        let confs = std::slice::from_raw_parts_mut(confs.add(start), end - start);
                        (&*scorer).score_batch_serial(ScoreBatch::Confs(confs), &mut scratch);
                    },
                    // SAFETY: and for the caller's items; `run` is
                    // `run_each` at the types `items` and `body` were
                    // erased from in `for_each_mut`, which is still blocked
                    // in `run_job` holding both borrows.
                    JobKind::Each { items, body, run } => unsafe { run(items, body, start, end) },
                }
            }
        }));

        let mut st = shared.lock();
        if body.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// How many threads this host runs at once — the one place that asks the
/// OS. A caller that picks its own team reads it here: the potential grid
/// build takes this many workers, and `vsched`'s device dispatch never takes
/// more. Results never depend on it.
pub fn host_threads() -> usize {
    crate::sync::thread::available_parallelism()
}

/// Process-wide shared pools, one per distinct thread count.
///
/// Every host worker team in the workspace is one of these. The
/// [`crate::Exec::Pool`] policy of [`Scorer::score_batch`] routes through
/// them, and with it `metaheur::CpuEvaluator` and `vsched`'s device dispatch
/// (`vsched::DeviceEvaluator` scores the claims of a planned batch as
/// `Exec::Pool` jobs); the potential grid build submits its z-ranges to one
/// through [`CpuPool::for_each_mut`]. Repeated evaluator construction
/// (common in the experiment runners — one per ligand in a library screen)
/// therefore reuses one persistent thread team instead of growing a new one
/// each time.
/// Shared pools live for the process; ad-hoc pools from [`CpuPool::new`]
/// join their workers on drop.
pub fn shared_pool(threads: usize) -> Arc<CpuPool> {
    let threads = threads.max(1);
    if let Some(pool) = registry().get(&threads) {
        return Arc::clone(pool);
    }
    // The team is spawned with the registry unlocked: the lock covers map
    // operations only. Of two first callers racing here, the later adopts
    // the earlier one's team and its own is joined as it drops.
    let fresh = Arc::new(CpuPool::new(threads));
    Arc::clone(registry().entry(threads).or_insert(fresh))
}

/// The shared pools by thread count, locked.
fn registry() -> std::sync::MutexGuard<'static, BTreeMap<usize, Arc<CpuPool>>> {
    // The registry is process-global state that outlives any one vscheck
    // exploration, so it must never be scheduler-managed.
    // DETERMINISM: deliberately raw `std::sync::Mutex`, not the crate::sync facade (see above).
    static POOLS: std::sync::Mutex<BTreeMap<usize, Arc<CpuPool>>> =
        std::sync::Mutex::new(BTreeMap::new());
    // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
    POOLS.lock().expect("shared pool registry poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::ScorerOptions;
    use vsmath::RngStream;
    use vsmol::synth;

    fn scorer() -> Scorer {
        let rec = synth::synth_receptor("r", 500, 5);
        let lig = synth::synth_ligand("l", 14, 6);
        Scorer::new(&rec, &lig, ScorerOptions::default())
    }

    fn poses(n: usize, seed: u64) -> Vec<RigidTransform> {
        let mut rng = RngStream::from_seed(seed);
        (0..n).map(|_| RigidTransform::new(rng.rotation(), rng.in_ball(25.0))).collect()
    }

    /// Serial reference scores through the unified entry point.
    fn serial_scores(s: &Scorer, ps: &[RigidTransform]) -> Vec<f64> {
        let mut out = vec![0.0; ps.len()];
        let mut scratch = PoseScratch::new();
        s.score_batch(
            ScoreBatch::Poses { poses: ps, out: &mut out },
            &mut scratch,
            crate::Exec::Serial,
        );
        out
    }

    fn pool_scores(pool: &CpuPool, s: &Scorer, ps: &[RigidTransform]) -> Vec<f64> {
        let mut out = vec![0.0; ps.len()];
        pool.score_batch(s, ScoreBatch::Poses { poses: ps, out: &mut out });
        out
    }

    #[test]
    fn pool_matches_serial_bitwise() {
        let s = scorer();
        let ps = poses(41, 1);
        let serial = serial_scores(&s, &ps);
        for threads in [1, 2, 3, 7, 16] {
            let pool = CpuPool::new(threads);
            assert_eq!(serial, pool_scores(&pool, &s, &ps), "threads={threads}");
        }
    }

    #[test]
    fn pool_matches_serial_bitwise_for_every_kernel() {
        // The per-kernel bit-identity policy (DESIGN §7): for a *fixed*
        // kernel, the pool path must reproduce serial scores bitwise.
        use crate::scorer::{Kernel, ScoringModel};
        let rec = synth::synth_receptor("r", 500, 5);
        let lig = synth::synth_ligand("l", 14, 6);
        let ps = poses(23, 2);
        let model = ScoringModel::Full { dielectric: 4.0, hbond_epsilon: 1.0 };
        for kernel in [Kernel::Naive, Kernel::Tiled, Kernel::Run, Kernel::Fused] {
            let s = Scorer::new(&rec, &lig, ScorerOptions { model, kernel });
            let serial = serial_scores(&s, &ps);
            let pool = CpuPool::new(3);
            let out = pool_scores(&pool, &s, &ps);
            for (a, b) in serial.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "kernel {kernel:?}");
            }
        }
    }

    #[test]
    fn pool_reuse_across_batches() {
        let s = scorer();
        let pool = CpuPool::new(4);
        for seed in 0..5 {
            let ps = poses(17 + seed as usize, seed);
            assert_eq!(pool_scores(&pool, &s, &ps), serial_scores(&s, &ps), "batch #{seed}");
        }
    }

    #[test]
    fn pool_handles_empty_and_single() {
        let s = scorer();
        let pool = CpuPool::new(4);
        assert!(pool_scores(&pool, &s, &[]).is_empty());
        let one = poses(1, 9);
        assert_eq!(pool_scores(&pool, &s, &one), serial_scores(&s, &one));
    }

    #[test]
    fn pool_scores_conformations_in_place() {
        let s = scorer();
        let pool = CpuPool::new(3);
        let mut rng = RngStream::from_seed(11);
        let mut confs: Vec<Conformation> = (0..23)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
            .collect();
        let want: Vec<f64> = serial_scores(&s, &confs.iter().map(|c| c.pose).collect::<Vec<_>>());
        pool.score_batch(&s, ScoreBatch::Confs(&mut confs));
        let got: Vec<f64> = confs.iter().map(|c| c.score).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn drop_joins_workers() {
        // Every worker owns an Arc clone of the pool's shared state;
        // join-on-drop guarantees all clones are gone when drop returns.
        let pool = CpuPool::new(4);
        let weak = Arc::downgrade(&pool.shared);
        let s = scorer();
        let ps = poses(8, 5);
        let _ = pool_scores(&pool, &s, &ps);
        drop(pool);
        assert!(weak.upgrade().is_none(), "drop must join all pool workers");
    }

    #[test]
    fn concurrent_submitters_are_serialized() {
        // Shared pools hand the same CpuPool to every caller with the same
        // thread count; parallel submissions must queue, not race on the
        // single job slot (each used to be able to clobber the other's
        // job, leaving batches unscored or `remaining` underflowed).
        let pool = CpuPool::new(4);
        let s = scorer();
        let ps = poses(33, 7);
        let want = serial_scores(&s, &ps);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        assert_eq!(want, pool_scores(&pool, &s, &ps));
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let s = scorer();
        let pool = CpuPool::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_mut(&mut [0u8; 3], |_| panic!("induced test panic"));
        }));
        assert!(caught.is_err(), "worker panic must re-raise on the submitter");
        // The pool must stay fully usable: workers caught their panics and
        // the completion bookkeeping recovered.
        let ps = poses(19, 3);
        assert_eq!(pool_scores(&pool, &s, &ps), serial_scores(&s, &ps));
    }

    #[test]
    fn for_each_mut_visits_every_item_once_on_any_pool() {
        for threads in [1, 2, 3, 7, 16] {
            let pool = CpuPool::new(threads);
            for len in [0, 1, 2, 5, 16, 41] {
                // Each item carries a borrow, as the grid build's do.
                let mut cells = vec![0u32; len];
                let mut items: Vec<(usize, &mut u32)> = cells.iter_mut().enumerate().collect();
                pool.for_each_mut(&mut items, |(i, cell)| **cell += 1 + *i as u32);
                let want: Vec<u32> = (1..=len as u32).collect();
                assert_eq!(cells, want, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn one_panicking_item_leaves_the_other_chunks_done() {
        let pool = CpuPool::new(4);
        let mut items = [0u32, 0, 7, 0, 0, 0, 0, 0];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |v| {
                assert_ne!(*v, 7, "induced test panic");
                *v += 1;
            });
        }));
        assert!(caught.is_err());
        // Worker 1 owns items 2..4 and stopped at the first; the rest ran.
        assert_eq!(items, [1, 1, 7, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn shared_pool_is_cached_per_thread_count() {
        let a = shared_pool(2);
        let b = shared_pool(2);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_pool(3);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.threads(), 3);
    }
}

/// Exhaustive interleaving checks of the pool's submit/park protocol,
/// via the `vscheck` model checker (run with
/// `cargo test -p vsscore --features vscheck-model model_`).
///
/// These pin the invariants PR 1 fixed by hand: no batch left unscored,
/// no `remaining` underflow (an underflow aborts a schedule as a panic in
/// debug builds), concurrent submitters serialized through the submit
/// lock, a worker panic observed by the submitter without wedging the
/// pool, and drop joining every worker (a lost shutdown wakeup shows up
/// as a deadlock).
#[cfg(all(test, feature = "vscheck-model"))]
mod model_tests {
    use super::*;
    use crate::scorer::ScorerOptions;
    use vscheck::{explore, Config};
    use vsmath::RngStream;
    use vsmol::synth;

    /// Tiny scorer: immutable after construction and free of facade sync
    /// ops, so sharing one across schedules is deterministic.
    fn tiny_scorer() -> Arc<Scorer> {
        let rec = synth::synth_receptor("r", 30, 1);
        let lig = synth::synth_ligand("l", 4, 1);
        Arc::new(Scorer::new(&rec, &lig, ScorerOptions::default()))
    }

    fn tiny_poses(n: usize) -> Vec<RigidTransform> {
        let mut rng = RngStream::from_seed(7);
        (0..n).map(|_| RigidTransform::new(rng.rotation(), rng.in_ball(25.0))).collect()
    }

    fn serial(s: &Scorer, ps: &[RigidTransform]) -> Vec<f64> {
        let mut out = vec![0.0; ps.len()];
        let mut scratch = PoseScratch::new();
        s.score_batch(
            ScoreBatch::Poses { poses: ps, out: &mut out },
            &mut scratch,
            crate::Exec::Serial,
        );
        out
    }

    #[test]
    fn model_no_batch_left_unscored() {
        let s = tiny_scorer();
        let ps = tiny_poses(3);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(2), move || {
            let pool = CpuPool::new(2);
            let mut out = vec![f64::NAN; ps.len()];
            pool.score_batch(&s, ScoreBatch::Poses { poses: &ps, out: &mut out });
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "pose left unscored or misscored");
            }
            drop(pool); // a lost shutdown wakeup would deadlock here
        });
        report.assert_passed();
        assert!(report.complete, "bounded state space must be exhausted");
    }

    #[test]
    fn model_two_batches_back_to_back() {
        // The generation handshake must not lose or double-run a batch
        // when a worker is still parked (or not yet parked) from the
        // previous one.
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(2), move || {
            let pool = CpuPool::new(1);
            for _ in 0..2 {
                let mut out = vec![f64::NAN; ps.len()];
                pool.score_batch(&s, ScoreBatch::Poses { poses: &ps, out: &mut out });
                for (got, want) in out.iter().zip(&want) {
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_concurrent_submitters_are_serialized() {
        // Two submitters share one pool: each must get its own complete,
        // correct result — the single job slot must never be clobbered
        // (the PR 1 race) and `remaining` must never underflow.
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(1), move || {
            let pool = Arc::new(CpuPool::new(1));
            let (p2, s2, ps2, want2) =
                (Arc::clone(&pool), Arc::clone(&s), ps.clone(), want.clone());
            let other = vscheck::thread::spawn(move || {
                let mut out = vec![f64::NAN; ps2.len()];
                p2.score_batch(&s2, ScoreBatch::Poses { poses: &ps2, out: &mut out });
                for (got, want) in out.iter().zip(&want2) {
                    assert_eq!(got.to_bits(), want.to_bits(), "submitter B clobbered");
                }
            });
            let mut out = vec![f64::NAN; ps.len()];
            pool.score_batch(&s, ScoreBatch::Poses { poses: &ps, out: &mut out });
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "submitter A clobbered");
            }
            other.join().unwrap();
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_for_each_mut_visits_every_item_exactly_once() {
        // Three items over two workers: chunks of two and one. No
        // interleaving may skip an item, run one twice, or return to the
        // submitter before the last one is done.
        let report = explore(Config::with_bound(2), || {
            let pool = CpuPool::new(2);
            let mut items = [0u32; 3];
            pool.for_each_mut(&mut items, |v| *v += 1);
            assert_eq!(items, [1, 1, 1], "item skipped, repeated or still running");
            drop(pool);
        });
        report.assert_passed();
        assert!(report.complete, "bounded state space must be exhausted");
    }

    #[test]
    fn model_score_batch_and_for_each_mut_are_serialized() {
        // One submitter of each job kind on a shared pool: the single job
        // slot must hold one of them at a time, so neither worker ever runs
        // the other's chunk through the wrong pointers.
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(1), move || {
            let pool = Arc::new(CpuPool::new(1));
            let p2 = Arc::clone(&pool);
            let other = vscheck::thread::spawn(move || {
                let mut items = [10u32, 20];
                p2.for_each_mut(&mut items, |v| *v += 1);
                assert_eq!(items, [11, 21], "for_each_mut clobbered");
            });
            let mut out = vec![f64::NAN; ps.len()];
            pool.score_batch(&s, ScoreBatch::Poses { poses: &ps, out: &mut out });
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "score_batch clobbered");
            }
            other.join().unwrap();
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_worker_panic_reaches_submitter_and_pool_survives() {
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(2), move || {
            let pool = CpuPool::new(1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.for_each_mut(&mut [0u8], |_| panic!("induced test panic"));
            }));
            assert!(caught.is_err(), "worker panic must re-raise on the submitter");
            // Completion bookkeeping must have recovered: the next batch
            // runs to completion with correct scores.
            let mut out = vec![f64::NAN; ps.len()];
            pool.score_batch(&s, ScoreBatch::Poses { poses: &ps, out: &mut out });
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_idle_pool_drop_joins_cleanly() {
        // Spawn-then-shutdown with no job: the shutdown flag and wakeup
        // must reach workers in every interleaving (lost wakeup = deadlock).
        let report = explore(Config::with_bound(2), || {
            let pool = CpuPool::new(2);
            drop(pool);
        });
        report.assert_passed();
        assert!(report.complete);
    }
}
