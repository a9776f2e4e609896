//! Poses/sec for the zero-allocation batch pipeline vs the old per-batch
//! style, across batch sizes and the paper's Table 5 complex sizes.
//!
//! Two axes of host-side overhead were removed:
//!
//! - *per-pose allocation*: the old `score` path built a fresh ligand
//!   frame (5 Vecs) and scratch per pose; `score_batch` reuses one
//!   [`PoseScratch`] across the whole batch;
//! - *per-batch thread spawning*: the old parallel path spawned and joined
//!   OS threads on every batch; [`CpuPool`] keeps a persistent worker team
//!   parked on a condvar, which the submitting thread joins for the batch.
//!
//! The `spawn_per_batch` baselines below reconstruct the old behavior from
//! public APIs (per-pose `score` = fresh scratch each call, plus
//! `std::thread::scope` per batch with the same contiguous chunking), so
//! the comparison isolates exactly the overhead the pipeline eliminates.
//! Small batches are where it matters: spawn/join cost is constant per
//! batch while kernel work shrinks with the batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vsmath::{RigidTransform, RngStream};
use vsmol::synth;
use vsscore::{CpuPool, Exec, PoseScratch, ScoreBatch, Scorer, ScorerOptions};

/// Threads that score one batch, on either path: `spawn_per_batch` spawns
/// this many, and the pool counts the calling thread among its participants
/// (`CpuPool::new(THREADS)` keeps `THREADS − 1` workers).
const THREADS: usize = 4;

fn poses(n: usize, seed: u64) -> Vec<RigidTransform> {
    let mut rng = RngStream::from_seed(seed);
    (0..n).map(|_| RigidTransform::new(rng.rotation(), rng.in_ball(28.0))).collect()
}

/// The old multithreaded batch path: spawn a thread team, score chunks
/// pose-by-pose with a fresh scratch per pose, join.
fn spawn_per_batch(scorer: &Scorer, ps: &[RigidTransform], out: &mut [f64]) {
    let chunk = ps.len().div_ceil(THREADS);
    std::thread::scope(|s| {
        for (pchunk, ochunk) in ps.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (p, o) in pchunk.iter().zip(ochunk.iter_mut()) {
                    *o = scorer.score(p);
                }
            });
        }
    });
}

fn serial_alloc_vs_scratch(c: &mut Criterion) {
    // Serial axis: per-pose allocation vs reused scratch, Table 5 sizes.
    let mut group = c.benchmark_group("serial_pipeline");
    group.sample_size(12);
    for (n_rec, n_lig) in [(3264usize, 45usize), (8609, 32)] {
        let rec = synth::synth_receptor("r", n_rec, 3);
        let lig = synth::synth_ligand("l", n_lig, 7);
        let scorer = Scorer::new(&rec, &lig, ScorerOptions::default());
        let ps = poses(256, 17);
        group.throughput(Throughput::Elements(ps.len() as u64));
        let label = format!("{n_rec}x{n_lig}");
        group.bench_function(BenchmarkId::new("alloc_per_pose", &label), |b| {
            b.iter(|| black_box(ps.iter().map(|p| scorer.score(p)).collect::<Vec<f64>>()))
        });
        let mut scratch = PoseScratch::new();
        let mut out = vec![0.0; ps.len()];
        group.bench_function(BenchmarkId::new("scratch_reuse", &label), |b| {
            b.iter(|| {
                scorer.score_batch(
                    ScoreBatch::Poses { poses: &ps, out: &mut out },
                    &mut scratch,
                    Exec::Serial,
                );
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn pool_vs_spawn(c: &mut Criterion) {
    // Parallel axis: persistent pool vs spawn-per-batch, across batch
    // sizes. The small receptor makes per-batch overhead visible; the
    // Table 5 complexes show the effect shrinking as kernel work grows.
    let mut group = c.benchmark_group("batch_pipeline");
    group.sample_size(10);
    let pool = CpuPool::new(THREADS);
    let mut scratch = PoseScratch::new();
    // The 100-atom receptor is the overhead-dominated regime (per-batch
    // spawn cost rivals kernel time); the other complexes are Table 5.
    for (n_rec, n_lig) in [(100usize, 45usize), (600, 45), (3264, 45), (8609, 32)] {
        let rec = synth::synth_receptor("r", n_rec, 3);
        let lig = synth::synth_ligand("l", n_lig, 7);
        let scorer = Scorer::new(&rec, &lig, ScorerOptions::default());
        for batch in [32usize, 256, 2048] {
            let ps = poses(batch, 23);
            let mut out = vec![0.0; batch];
            group.throughput(Throughput::Elements(batch as u64));
            let label = format!("{n_rec}x{n_lig}/batch{batch}");
            group.bench_function(BenchmarkId::new("spawn_per_batch", &label), |b| {
                b.iter(|| {
                    spawn_per_batch(&scorer, &ps, &mut out);
                    black_box(out[0])
                })
            });
            group.bench_function(BenchmarkId::new("persistent_pool", &label), |b| {
                b.iter(|| {
                    let batch = ScoreBatch::Poses { poses: &ps, out: &mut out };
                    pool.score_batch(&scorer, batch, &mut scratch);
                    black_box(out[0])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, serial_alloc_vs_scratch, pool_vs_spawn);
criterion_main!(benches);
