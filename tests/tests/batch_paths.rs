//! Cross-path determinism of the batch scoring pipeline: the serial CPU
//! path, the persistent CPU worker pool, and the device evaluator (which
//! scores its claims on that pool) must produce bit-identical scores for
//! the same batch, on every call — the score-level form of DESIGN §7
//! schedule-invariance.

use gpusim::{catalog, SimDevice};
use metaheur::{BatchEvaluator, CpuEvaluator};
use std::sync::Arc;
use vsched::{DeviceEvaluator, Strategy};
use vsmath::{RigidTransform, RngStream};
use vsmol::{synth, Conformation};
use vsscore::{Exec, Scorer};

fn scorer() -> Scorer {
    let rec = synth::synth_receptor("r", 450, 2);
    let lig = synth::synth_ligand("l", 13, 3);
    Scorer::new(&rec, &lig, Default::default())
}

fn confs(n: usize, seed: u64) -> Vec<Conformation> {
    let mut rng = RngStream::from_seed(seed);
    (0..n)
        .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(22.0)), 0))
        .collect()
}

fn devices() -> Vec<Arc<SimDevice>> {
    vec![
        Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
        Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
        Arc::new(SimDevice::new(2, catalog::geforce_gtx_590())),
    ]
}

/// Every evaluator path, same batches, repeated calls: all score streams
/// bit-identical to the serial reference.
#[test]
fn all_paths_bit_identical_across_repeated_evaluates() {
    let sc = scorer();
    let mut serial = CpuEvaluator::new(sc.clone(), Exec::Serial);
    let mut pooled = CpuEvaluator::new(sc.clone(), Exec::Pool(3));
    let mut device =
        DeviceEvaluator::new(devices(), Arc::new(sc.clone()), Strategy::HomogeneousSplit);
    let mut dynamic =
        DeviceEvaluator::new(devices(), Arc::new(sc), Strategy::DynamicQueue { chunk: 4 });

    for round in 0..4 {
        let reference = confs(5 + 17 * round as usize, round);
        let mut a = reference.clone();
        let mut b = reference.clone();
        let mut c = reference.clone();
        let mut d = reference;
        serial.evaluate(&mut a);
        pooled.evaluate(&mut b);
        device.evaluate(&mut c);
        dynamic.evaluate(&mut d);
        for i in 0..a.len() {
            assert_eq!(a[i].score.to_bits(), b[i].score.to_bits(), "pool, round {round} #{i}");
            assert_eq!(a[i].score.to_bits(), c[i].score.to_bits(), "device, round {round} #{i}");
            assert_eq!(a[i].score.to_bits(), d[i].score.to_bits(), "dynamic, round {round} #{i}");
        }
    }
}

#[test]
fn all_paths_handle_empty_and_single_batches() {
    let sc = scorer();
    let expected = {
        let mut one = confs(1, 99);
        CpuEvaluator::new(sc.clone(), Exec::Serial).evaluate(&mut one);
        one[0].score
    };

    let mut pooled = CpuEvaluator::new(sc.clone(), Exec::Pool(4));
    let mut device = DeviceEvaluator::new(devices(), Arc::new(sc), Strategy::HomogeneousSplit);
    for ev in [&mut pooled as &mut dyn BatchEvaluator, &mut device] {
        ev.evaluate(&mut []);
        let mut one = confs(1, 99);
        ev.evaluate(&mut one);
        assert_eq!(one[0].score.to_bits(), expected.to_bits());
    }
}
