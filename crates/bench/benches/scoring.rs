//! Real wall-time benches of the scoring kernels.
//!
//! Validates the micro-level claims behind the paper's evaluation:
//!
//! - the fused element-run kernel (gather-free, tiled within each run: the
//!   CUDA shared-memory tiling analog) beats the naive all-pairs loop;
//! - per-pair cost shrinks (or at least does not grow) with receptor size —
//!   the data-locality effect behind "this advantage is bigger the larger
//!   the number of atoms in the receptor protein" (§5);
//! - grid-cutoff scoring trades accuracy for asymptotic speed (ablation);
//! - multithreaded batch scoring (the OpenMP baseline path) scales.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vsmath::RngStream;
use vsmol::{synth, Element, LjTable};
use vsscore::lj::{lj_naive, Frame, PairTable};
use vsscore::run::{fused_run, RunFrame};
use vsscore::scorer::{Kernel, ScorerOptions, ScoringModel};
use vsscore::{Exec, PoseScratch, ScoreBatch, Scorer};

fn kernels_by_receptor_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("lj_kernel");
    group.sample_size(15);
    let lig = Frame::from_molecule(&synth::synth_ligand("l", 45, 7));
    let table = PairTable::new(&LjTable::standard());
    for n_rec in [512usize, 3264, 8609, 32768] {
        let rec = Frame::from_molecule(&synth::synth_receptor("r", n_rec, 3));
        let runs = RunFrame::from_frame(&rec);
        let pairs = (45 * n_rec) as u64;
        group.throughput(Throughput::Elements(pairs));
        group.bench_with_input(BenchmarkId::new("naive", n_rec), &n_rec, |b, _| {
            b.iter(|| black_box(lj_naive(&lig, &rec, &table)))
        });
        group.bench_with_input(BenchmarkId::new("fused_lj", n_rec), &n_rec, |b, _| {
            b.iter(|| black_box(fused_run(&lig, &runs, &table, None, None)))
        });
    }
    group.finish();
}

fn cutoff_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("cutoff_ablation");
    group.sample_size(15);
    let rec = synth::synth_receptor("r", 8609, 3);
    let lig = synth::synth_ligand("l", 32, 7);
    let mut rng = RngStream::from_seed(5);
    let pose = vsmath::RigidTransform::new(rng.rotation(), rng.in_ball(30.0));
    for (label, kernel) in [
        ("all_pairs_fused", Kernel::Fused),
        ("cells_8A", Kernel::CellList { cutoff: 8.0 }),
        ("cells_16A", Kernel::CellList { cutoff: 16.0 }),
    ] {
        let scorer =
            Scorer::new(&rec, &lig, ScorerOptions { model: ScoringModel::LennardJones, kernel });
        group.bench_function(label, |b| b.iter(|| black_box(scorer.score(&pose))));
    }
    group.finish();
}

fn parallel_batch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("openmp_baseline_scaling");
    group.sample_size(10);
    let rec = synth::synth_receptor("r", 3264, 3);
    let lig = synth::synth_ligand("l", 45, 7);
    let scorer = Scorer::new(&rec, &lig, ScorerOptions::default());
    let mut rng = RngStream::from_seed(9);
    let poses: Vec<_> =
        (0..64).map(|_| vsmath::RigidTransform::new(rng.rotation(), rng.in_ball(30.0))).collect();
    group.throughput(Throughput::Elements(poses.len() as u64));
    let mut scratch = PoseScratch::new();
    let mut out = vec![0.0; poses.len()];
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                scorer.score_batch(
                    ScoreBatch::Poses { poses: &poses, out: &mut out },
                    &mut scratch,
                    Exec::Pool(t),
                );
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn coulomb_extension(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring_model");
    group.sample_size(15);
    let rec = synth::synth_receptor("r", 3264, 3);
    let lig = synth::synth_ligand("l", 45, 7);
    let mut rng = RngStream::from_seed(11);
    let pose = vsmath::RigidTransform::new(rng.rotation(), rng.in_ball(25.0));
    for (label, model) in [
        ("lennard_jones", ScoringModel::LennardJones),
        ("lj_plus_coulomb", ScoringModel::LennardJonesCoulomb { dielectric: 4.0 }),
    ] {
        let scorer = Scorer::new(&rec, &lig, ScorerOptions { model, kernel: Kernel::Naive });
        group.bench_function(label, |b| b.iter(|| black_box(scorer.score(&pose))));
    }
    group.finish();
}

fn grid_potential_tradeoff(c: &mut Criterion) {
    // The AutoDock-style precomputed grid: O(ligand) per pose after a
    // one-time build vs O(ligand x receptor) exact scoring.
    let mut group = c.benchmark_group("grid_potential");
    group.sample_size(20);
    let rec = synth::synth_receptor("r", 3264, 3);
    let lig = synth::synth_ligand("l", 45, 7);
    let mut rng = RngStream::from_seed(13);
    let pose = vsmath::RigidTransform::new(rng.rotation(), rng.unit_vector() * 27.0);

    let exact = Scorer::new(&rec, &lig, ScorerOptions::default());
    group.bench_function("exact_fused_per_pose", |b| b.iter(|| black_box(exact.score(&pose))));

    let grid = vsscore::GridScorer::new(
        &rec,
        &lig,
        vsscore::GridOptions { spacing: 1.0, ..Default::default() },
    );
    group.bench_function("grid_interpolated_per_pose", |b| b.iter(|| black_box(grid.score(&pose))));
    // Cold builds: the slab cache is emptied before every request, so a
    // cell times one slab per ligand element over the 300-atom receptor.
    // The one- and five-element cells give the fixed cost of a build and
    // the cost of each further slab.
    let small_rec = synth::synth_receptor("r", 300, 5);
    let opts = vsscore::GridOptions { spacing: 1.5, ..Default::default() };
    let of_elements = |elements: &[Element]| {
        let atoms = elements.iter().enumerate();
        let atoms = atoms.map(|(i, &e)| vsmol::Atom::new(vsmath::Vec3::X * (1.5 * i as f64), e));
        vsmol::Molecule::new("by-element", atoms.collect())
    };
    let one = of_elements(&[Element::C]);
    let five = of_elements(&[Element::C, Element::N, Element::O, Element::S, Element::Cl]);
    for (cell, ligand) in [
        ("grid_build_300atom_receptor", &lig),
        ("grid_build_300atom_receptor_1_element", &one),
        ("grid_build_300atom_receptor_5_elements", &five),
    ] {
        group.bench_function(cell, |b| {
            b.iter(|| {
                vsscore::grid_cache_clear();
                black_box(vsscore::GridScorer::new(&small_rec, ligand, opts))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    kernels_by_receptor_size,
    cutoff_ablation,
    parallel_batch_scaling,
    coulomb_extension,
    grid_potential_tradeoff
);
criterion_main!(benches);
