//! Wall-time benches of the metaheuristic engine itself (Algorithm 1
//! overhead, excluding scoring): selection, crossover, local-search
//! bookkeeping and population maintenance. The paper assigns "the most
//! costly parts to the GPUs" while the CPU runs this engine — these
//! benches confirm the engine side is cheap relative to scoring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vsmath::Vec3;
use vsmol::Spot;

fn spots(n: usize) -> Vec<Spot> {
    (0..n)
        .map(|i| Spot {
            id: i,
            center: Vec3::new(12.0 * i as f64, 0.0, 0.0),
            normal: Vec3::Z,
            radius: 5.0,
            anchor_atom: 0,
        })
        .collect()
}

fn engine_on_synthetic_landscape(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for n_spots in [4usize, 16, 64] {
        let sp = spots(n_spots);
        let optima: Vec<Vec3> = sp.iter().map(|s| s.center).collect();
        group.bench_with_input(BenchmarkId::new("m1_scale_0.1", n_spots), &n_spots, |b, _| {
            b.iter(|| {
                let mut ev = metaheur::SyntheticEvaluator::new(optima.clone());
                black_box(metaheur::run(&metaheur::m1(0.1), &sp, &mut ev, 42))
            })
        });
    }
    group.finish();
}

fn suite_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("suite_engine_overhead");
    group.sample_size(10);
    let sp = spots(8);
    let optima: Vec<Vec3> = sp.iter().map(|s| s.center).collect();
    for params in metaheur::paper_suite(0.05) {
        group.bench_function(&params.name, |b| {
            b.iter(|| {
                let mut ev = metaheur::SyntheticEvaluator::new(optima.clone());
                black_box(metaheur::run(&params, &sp, &mut ev, 7))
            })
        });
    }
    group.finish();
}

fn trace_generation(c: &mut Criterion) {
    // The analytic trace is the experiment harness's inner loop.
    let mut group = c.benchmark_group("synthetic_trace");
    group.sample_size(30);
    for params in metaheur::paper_suite(1.0) {
        group.bench_function(&params.name, |b| {
            b.iter(|| black_box(vscreen::trace::synthetic_trace(&params, 128)))
        });
    }
    group.finish();
}

fn extension_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("extension_engines");
    group.sample_size(10);
    let sp = spots(8);
    let optima: Vec<Vec3> = sp.iter().map(|s| s.center).collect();
    let sets = [
        ("pso_24x20", metaheur::pso(24, 20)),
        ("tabu_30x8", metaheur::tabu(30, 8)),
        ("memetic_3gens", metaheur::memetic(3, 10, 8)),
    ];
    for (label, params) in sets {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut ev = metaheur::SyntheticEvaluator::new(optima.clone());
                black_box(metaheur::run(&params, &sp, &mut ev, 3))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    engine_on_synthetic_landscape,
    suite_comparison,
    trace_generation,
    extension_engines
);
criterion_main!(benches);
