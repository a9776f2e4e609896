//! A persistent CPU worker pool for batch scoring and for building.
//!
//! The paper's CPU baseline ("OpenMP") keeps a thread team alive for the
//! whole run, and the thread that reaches a parallel region works in it.
//! [`CpuPool`] does both: a pool of `n` threads spawns `n − 1` workers
//! once, each with a [`PoseScratch`] it reuses, and the submitter works on
//! its own job beside them with the scratch it holds. Every participant
//! claims the next unclaimed chunk of a job until none is left, so a job no
//! worker wakes up in time for is finished by the submitter at serial
//! speed: no job is too small for the pool.
//!
//! [`CpuPool::score_batch`] cuts a batch of poses into [`CHUNKS_PER_THREAD`]
//! contiguous chunks per thread. [`CpuPool::for_each_mut`] runs a closure
//! over every element of a `&mut [T]`, one element per chunk — the
//! potential grids are built through it, one z-range per item.
//!
//! # Determinism
//!
//! Every pose is scored alone by the identical serial kernel, so results
//! are bit-identical to the serial [`Scorer::score_batch`] path whichever
//! thread claims which chunk and however many threads there are — the
//! schedule-invariance invariant (DESIGN §7). `for_each_mut` promises the
//! same as long as the body's effect on an item depends on that item alone:
//! which thread runs an item, and when, is all that varies.
//!
//! # Safety model
//!
//! A submitted job carries raw pointers to the caller's slices (and, for
//! `for_each_mut`, to the caller's closure). The pool's `State` has one job
//! slot, and a submitter waits for it to be empty before publishing, so
//! concurrent callers (shared pools are handed to every evaluator with the
//! same thread count) queue up rather than clobber each other's job. Chunks
//! are claimed once each under the state lock, so no two threads alias an
//! element. `run_job` empties the slot, and returns, only once no chunk is
//! unclaimed or in flight (`busy == 0`): the borrows behind the pointers
//! outlive all worker access, and a worker that wakes late finds nothing to
//! claim. The submitter runs its own chunks under `catch_unwind` too, so it
//! never unwinds while a worker still holds pointers into its slices.
//! `for_each_mut` erases its item and closure types behind a monomorphized
//! trampoline stored beside the pointers; its bounds (`T: Send`, `F: Sync`)
//! are what moving `&mut T` to, and sharing `&F` with, the workers
//! requires.
//!
//! # Panics
//!
//! Every chunk runs under `catch_unwind`, so a panicking scorer or closure
//! cannot wedge the count of chunks in flight; the other chunks still run.
//! The panic is re-raised on the submitting thread ("pool worker
//! panicked") once every claimed chunk has finished, and the pool remains
//! usable. Items of the panicking chunk it did not reach are left as they
//! were.

use crate::scorer::{PoseScratch, ScoreBatch, Scorer};
use crate::sync::thread::{Builder, JoinHandle};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::Arc;
use vsmath::RigidTransform;
use vsmol::Conformation;

/// Chunks per thread a batch of poses is cut into: enough for a thread woken
/// late to find some left, few enough that claiming costs next to nothing.
const CHUNKS_PER_THREAD: usize = 4;

/// What one submission asks its participants to do with a chunk of `0..len`.
#[derive(Clone, Copy)]
enum JobKind {
    /// Score `poses[i]` into `out[i]`.
    Poses { scorer: *const Scorer, poses: *const RigidTransform, out: *mut f64 },
    /// Score `confs[i].pose` into `confs[i].score`.
    Confs { scorer: *const Scorer, confs: *mut Conformation },
    /// `each(items, body, start, end)`: apply the closure behind `body` to
    /// each of `items[start..end]`.
    // SAFETY: `each` is only ever [`run_each`] at the item and closure types the two pointers beside it were erased from (`for_each_mut` is the one constructor).
    Each { items: *mut (), body: *const (), each: unsafe fn(*mut (), *const (), usize, usize) },
}

#[derive(Clone, Copy)]
struct Job {
    kind: JobKind,
    len: usize,
    /// Items per chunk; the last chunk may be shorter.
    chunk: usize,
}

// SAFETY: the pointers are dereferenced only for a chunk claimed once, and
// the submitter keeps the borrows alive in `run_job` until every claimed
// chunk has finished. The pointees may cross threads: a `Scorer` is `Sync`,
// poses and conformations are plain data, `for_each_mut` bounds `T: Send`
// and `F: Sync`.
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

/// Run a claimed chunk of a job on this thread; `false` if it panicked.
fn run_chunk((job, start, end): Claim, scratch: &mut PoseScratch) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match job.kind {
        // SAFETY: see the module-level safety model — `run_job` outlasts
        // this chunk, so the scorer and both slices do; `start..end` ⊆
        // [0, job.len) was claimed once, under the state lock, so its
        // `poses`/`out` elements are accessed by this thread only.
        JobKind::Poses { scorer, poses, out } => unsafe {
            let poses = std::slice::from_raw_parts(poses.add(start), end - start);
            let out = std::slice::from_raw_parts_mut(out.add(start), end - start);
            (&*scorer).score_batch_serial(ScoreBatch::Poses { poses, out }, scratch);
        },
        // SAFETY: same claimed-once argument for the in-place conformation
        // variant.
        JobKind::Confs { scorer, confs } => unsafe {
            let confs = std::slice::from_raw_parts_mut(confs.add(start), end - start);
            (&*scorer).score_batch_serial(ScoreBatch::Confs(confs), scratch);
        },
        // SAFETY: and for the caller's items; `each` is `run_each` at the
        // types `items` and `body` were erased from in `for_each_mut`, which
        // is still in `run_job` holding both borrows.
        JobKind::Each { items, body, each } => unsafe { each(items, body, start, end) },
    }))
    .is_ok()
}

/// A job and the items `start..end` of it one thread took.
type Claim = (Job, usize, usize);

#[derive(Default)]
struct State {
    shutdown: bool,
    job: Option<Job>,
    /// First item of `job` no thread has claimed.
    next: usize,
    /// Chunks claimed and not yet finished.
    busy: usize,
    /// A chunk's body panicked; re-raised by the submitter at the end.
    panicked: bool,
}

impl State {
    /// Take the next chunk of the published job, if one is left.
    fn claim(&mut self) -> Option<Claim> {
        let job = self.job.filter(|job| self.next < job.len)?;
        let start = self.next;
        self.next = job.len.min(start + job.chunk);
        self.busy += 1;
        Some((job, start, self.next))
    }
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

    /// Record a claimed chunk finished, `ok` or panicked.
    fn finish(&self, ok: bool) {
        let mut st = self.lock();
        st.panicked |= !ok;
        st.busy -= 1;
        if st.busy == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// Park on `cv` until it is signalled, releasing the state meanwhile.
fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    // PANICS: as for `Shared::lock`.
    cv.wait(st).expect("pool mutex poisoned")
}

/// A fixed-size team: the thread that submits a job and persistent workers.
///
/// Dropping the pool shuts the workers down and joins them — no threads
/// outlive the pool.
pub struct CpuPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl CpuPool {
    /// A team of `threads` (at least one): the submitting thread and
    /// `threads − 1` persistent workers.
    pub fn new(threads: usize) -> CpuPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                Builder::new()
                    .name(format!("vsscore-cpu-{index}"))
                    .spawn(move || worker_loop(&shared))
                    // PANICS: worker spawn fails only on OS thread exhaustion; the pool has no degraded mode.
                    .expect("failed to spawn scoring worker")
            })
            .collect();
        CpuPool { shared, workers }
    }

    /// Threads a job runs on: the workers and the submitting thread.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run one batch across the pool — same input shape as
    /// [`Scorer::score_batch`]; this is the [`crate::Exec::Pool`] backend.
    /// The calling thread scores its chunks with `scratch`. Bit-identical
    /// to the serial path for a fixed kernel.
    pub fn score_batch(&self, scorer: &Scorer, input: ScoreBatch<'_>, scratch: &mut PoseScratch) {
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
        let chunk = len.div_ceil(CHUNKS_PER_THREAD * self.threads());
        self.run_job(Job { kind, len, chunk }, scratch);
    }

    /// Call `body` once on every item, each a chunk that the calling thread
    /// or a worker claims, and return when all are done. Which thread runs
    /// an item is all the pool decides: a body whose effect on an item
    /// depends on that item alone gives the same result on any pool. A panic
    /// in `body` is re-raised here once every claimed item has finished.
    pub fn for_each_mut<T: Send, F: Fn(&mut T) + Sync>(&self, items: &mut [T], body: F) {
        if items.is_empty() {
            return;
        }
        let kind = JobKind::Each {
            items: items.as_mut_ptr().cast(),
            body: std::ptr::from_ref(&body).cast(),
            each: run_each::<T, F>,
        };
        self.run_job(Job { kind, len: items.len(), chunk: 1 }, &mut PoseScratch::new());
    }

    /// Publish a job once the one job slot is empty, claim its chunks beside
    /// the workers until none is left, and return once every claimed chunk
    /// has finished, re-raising a panic in any of them.
    fn run_job(&self, job: Job, scratch: &mut PoseScratch) {
        {
            let mut st = self.shared.lock();
            while st.job.is_some() {
                st = wait(&self.shared.done_cv, st);
            }
            st.job = Some(job);
            st.next = 0;
        }
        self.shared.work_cv.notify_all();
        // Claim until no chunk is left, then wait out those in flight.
        loop {
            let Some(claim) = self.shared.lock().claim() else { break };
            self.shared.finish(run_chunk(claim, scratch));
        }
        let panicked = {
            let mut st = self.shared.lock();
            while st.busy > 0 {
                st = wait(&self.shared.done_cv, st);
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        self.shared.done_cv.notify_all();
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

/// Claim and run chunks of any published job until shutdown; park between.
fn worker_loop(shared: &Shared) {
    let mut scratch = PoseScratch::new();
    loop {
        let claim = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claim) = st.claim() {
                    break claim;
                }
                st = wait(&shared.work_cv, st);
            }
        };
        shared.finish(run_chunk(claim, &mut scratch));
    }
}

/// How many threads this host runs at once — the one place that asks the
/// OS, once per process. A caller that picks its own team reads it here:
/// the potential grid build runs on a pool of this many threads, and
/// `vsched`'s device dispatch never takes more. Results never depend on it.
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
/// each time. `threads` counts the submitting thread. Shared pools live for
/// the process; ad-hoc pools from [`CpuPool::new`] join their workers on drop.
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
        pool.score_batch(
            s,
            ScoreBatch::Poses { poses: ps, out: &mut out },
            &mut PoseScratch::new(),
        );
        out
    }

    #[test]
    fn pool_matches_serial_bitwise() {
        // One thread is a pool with no worker: the caller scores it all.
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
        for kernel in [Kernel::Naive, Kernel::Fused] {
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
        pool.score_batch(&s, ScoreBatch::Confs(&mut confs), &mut PoseScratch::new());
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
        // job, leaving batches unscored or a count underflowed).
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
        // Every item is a chunk of its own: whoever claimed item 2 stopped
        // there, and every other item ran.
        assert_eq!(items, [1, 1, 7, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn a_panic_is_reraised_only_after_every_claimed_chunk_finished() {
        // The first item panics at once, on whichever thread claims it;
        // the others take about 5 ms each. Re-raising the panic while any
        // of them is still running would leave its flag unset.
        let pool = CpuPool::new(3);
        let mut items: Vec<(usize, bool)> = (0..8).map(|i| (i, false)).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_mut(&mut items, |(i, done)| {
                assert_ne!(*i, 0, "induced test panic");
                std::thread::sleep(std::time::Duration::from_millis(5));
                *done = true;
            });
        }));
        assert!(caught.is_err());
        let done: Vec<bool> = items.iter().map(|&(_, done)| done).collect();
        assert_eq!(done, [false, true, true, true, true, true, true, true]);
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

/// Exhaustive interleaving checks of the pool's claim/park protocol,
/// via the `vscheck` model checker (run with
/// `cargo test -p vsscore --features vscheck-model model_`).
///
/// Every pool here has a worker beside the submitter: a pool of one thread
/// has nothing to interleave. These pin: no batch left unscored, no `busy`
/// underflow (an underflow aborts a schedule as a panic in debug builds),
/// concurrent submitters serialized through the job slot, a panic
/// observed by the submitter without wedging the pool, a worker that wakes
/// after its job returned claiming nothing of it, and drop joining every
/// worker (a lost shutdown wakeup shows up as a deadlock).
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

    /// Score `ps` on `pool`, the caller taking part with a scratch of its own.
    fn pooled(pool: &CpuPool, s: &Scorer, ps: &[RigidTransform]) -> Vec<f64> {
        let mut out = vec![f64::NAN; ps.len()];
        pool.score_batch(
            s,
            ScoreBatch::Poses { poses: ps, out: &mut out },
            &mut PoseScratch::new(),
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
            for (got, want) in pooled(&pool, &s, &ps).iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "pose left unscored or misscored");
            }
            drop(pool); // a lost shutdown wakeup would deadlock here
        });
        report.assert_passed();
        assert!(report.complete, "bounded state space must be exhausted");
    }

    #[test]
    fn model_two_batches_back_to_back() {
        // Claiming must not lose or double-run a batch when the worker is
        // still parked (or not yet parked) from the previous one.
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(2), move || {
            let pool = CpuPool::new(2);
            for _ in 0..2 {
                for (got, want) in pooled(&pool, &s, &ps).iter().zip(&want) {
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
        // and `busy` must never underflow.
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(1), move || {
            let pool = Arc::new(CpuPool::new(2));
            let (p2, s2, ps2, want2) =
                (Arc::clone(&pool), Arc::clone(&s), ps.clone(), want.clone());
            let other = vscheck::thread::spawn(move || {
                for (got, want) in pooled(&p2, &s2, &ps2).iter().zip(&want2) {
                    assert_eq!(got.to_bits(), want.to_bits(), "submitter B clobbered");
                }
            });
            for (got, want) in pooled(&pool, &s, &ps).iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits(), "submitter A clobbered");
            }
            other.join().unwrap();
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_for_each_mut_visits_every_item_exactly_once() {
        // Three items, one chunk each, claimed by the submitter and one
        // worker. No interleaving may skip an item, run one twice, or return
        // to the submitter before the last one is done.
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
        // slot must hold one of them at a time, so no thread ever runs the
        // other's chunk through the wrong pointers.
        let s = tiny_scorer();
        let ps = tiny_poses(2);
        let want = serial(&s, &ps);
        let report = explore(Config::with_bound(1), move || {
            let pool = Arc::new(CpuPool::new(2));
            let p2 = Arc::clone(&pool);
            let other = vscheck::thread::spawn(move || {
                let mut items = [10u32, 20];
                p2.for_each_mut(&mut items, |v| *v += 1);
                assert_eq!(items, [11, 21], "for_each_mut clobbered");
            });
            for (got, want) in pooled(&pool, &s, &ps).iter().zip(&want) {
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
            let pool = CpuPool::new(2);
            // Two items, both panicking: either thread may claim either, so
            // the worker's panic and the submitter's own are both explored.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.for_each_mut(&mut [0u8; 2], |_| panic!("induced test panic"));
            }));
            assert!(caught.is_err(), "a chunk's panic must re-raise on the submitter");
            // Completion bookkeeping must have recovered: the next batch
            // runs to completion with correct scores.
            for (got, want) in pooled(&pool, &s, &ps).iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        });
        report.assert_passed();
        assert!(report.complete);
    }

    #[test]
    fn model_late_worker_claims_nothing_from_a_returned_job() {
        // Two jobs back to back on one worker. Among the schedules are
        // those in which the worker, woken for the first job, runs only
        // after the submitter has done all of it and returned: it must find
        // nothing of that job to claim, whichever part of the second it
        // then takes.
        let report = explore(Config::with_bound(2), || {
            let pool = CpuPool::new(2);
            let mut first = [0u32; 2];
            pool.for_each_mut(&mut first, |v| *v += 1);
            assert_eq!(first, [1, 1], "first job incomplete on return");
            let mut second = [0u32; 2];
            pool.for_each_mut(&mut second, |v| *v += 1);
            assert_eq!(first, [1, 1], "a late worker ran the returned job again");
            assert_eq!(second, [1, 1], "second job incomplete on return");
            drop(pool);
        });
        report.assert_passed();
        assert!(report.complete, "bounded state space must be exhausted");
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
