//! Wall-time benches of the work-stealing node runtime: the deque drain in
//! virtual time (the scheduling overhead the paper's node-level execution
//! pays per batch) and the full faulty replay under stealing vs the frozen
//! Percent split. The drain must stay negligible next to scoring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpusim::{catalog, SimDevice, WorkProfile};
use std::hint::black_box;
use std::sync::Arc;
use vsched::{
    drain_deques, proportional_split, schedule_trace_with, ChunkDeque, ReplayOptions, StealConfig,
    Strategy, WarmupConfig,
};
use vstrace::Trace;

const PAIRS: u64 = 45 * 3264;

fn hertz() -> (Arc<SimDevice>, Vec<Arc<SimDevice>>) {
    let cpu = Arc::new(SimDevice::new(0, catalog::xeon_e3_1220()));
    let gpus = vec![
        Arc::new(SimDevice::new(1, catalog::tesla_k40c())),
        Arc::new(SimDevice::new(2, catalog::geforce_gtx_580())),
    ];
    (cpu, gpus)
}

fn deque_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("steal_drain");
    group.sample_size(50);
    let (_, gpus) = hertz();
    let weights = [1.6, 1.0];
    let cfg = StealConfig { divisor: 2, min_chunk: 0 };
    for items in [16_384u64, 262_144] {
        group.bench_with_input(BenchmarkId::new("drain_2gpu", items), &items, |b, &n| {
            b.iter(|| {
                for g in &gpus {
                    g.reset();
                }
                let shares = proportional_split(n, &weights);
                let mut lo = 0u32;
                let deques: Vec<ChunkDeque> = shares
                    .iter()
                    .map(|&s| {
                        let d = ChunkDeque::new(lo, lo + s as u32);
                        lo += s as u32;
                        d
                    })
                    .collect();
                black_box(drain_deques(
                    &gpus,
                    &deques,
                    &cfg,
                    WorkProfile::pairs(PAIRS),
                    None,
                    &Trace::disabled(),
                ))
            })
        });
    }
    group.finish();
}

fn faulty_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("faulty_replay");
    group.sample_size(20);
    let (cpu, gpus) = hertz();
    let trace: Vec<u64> = std::iter::repeat_n(16 * 1024, 24).collect();
    let phases = [(WarmupConfig::default().iterations + 2, vec![1.0, 4.0])];
    let strategies = [
        ("percent_frozen", Strategy::HeterogeneousSplit { warmup: WarmupConfig::default() }),
        ("work_steal", Strategy::WorkSteal { warmup: WarmupConfig::default(), divisor: 2 }),
    ];
    for (label, strat) in strategies {
        group.bench_function(BenchmarkId::new("straggler_4x", label), |b| {
            b.iter(|| {
                black_box(schedule_trace_with(
                    &cpu,
                    &gpus,
                    &trace,
                    WorkProfile::pairs(PAIRS),
                    strat,
                    ReplayOptions { phases: &phases, ..Default::default() },
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, deque_drain, faulty_replay);
criterion_main!(benches);
