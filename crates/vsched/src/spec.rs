//! Unified evaluator construction.
//!
//! Every experiment driver used to pick between divergent per-backend
//! constructors (serial CPU, pooled CPU, device-scheduled) at each call
//! site. [`EvaluatorSpec`] is the single factory: a declarative
//! description of *where* batches are scored
//! that [`EvaluatorSpec::build`]s into a boxed [`BatchEvaluator`], with
//! [`EvaluatorSpec::build_traced`] threading a [`vstrace::Trace`] through
//! the instrumented backends.

use crate::executor::DeviceEvaluator;
use crate::strategy::Strategy;
use gpusim::SimDevice;
use metaheur::{BatchEvaluator, CpuEvaluator};
use std::sync::Arc;
use vsscore::{Exec, Scorer};
use vstrace::Trace;

/// A declarative description of a scoring backend.
#[derive(Debug, Clone)]
pub enum EvaluatorSpec {
    /// Single-threaded CPU scoring on the calling thread.
    SerialCpu,
    /// The persistent shared CPU worker pool — the paper's OpenMP baseline.
    PooledCpu { threads: usize },
    /// Batches partitioned across simulated devices by `strategy` — who
    /// is charged for what — and computed on the same shared pool, by
    /// `min(devices, host threads)` workers ([`crate::DeviceEvaluator`]).
    Device { devices: Vec<Arc<SimDevice>>, strategy: Strategy },
}

impl EvaluatorSpec {
    /// Build the evaluator this spec describes, uninstrumented.
    pub fn build(&self, scorer: Arc<Scorer>) -> Box<dyn BatchEvaluator> {
        self.build_traced(scorer, Trace::disabled())
    }

    /// Build the evaluator with `trace` attached where the backend supports
    /// instrumentation (a disabled trace costs nothing).
    pub fn build_traced(&self, scorer: Arc<Scorer>, trace: Trace) -> Box<dyn BatchEvaluator> {
        match self {
            EvaluatorSpec::SerialCpu => {
                Box::new(CpuEvaluator::new((*scorer).clone(), Exec::Serial).with_trace(trace))
            }
            EvaluatorSpec::PooledCpu { threads } => Box::new(
                CpuEvaluator::new((*scorer).clone(), Exec::Pool(*threads)).with_trace(trace),
            ),
            EvaluatorSpec::Device { devices, strategy } => {
                Box::new(DeviceEvaluator::new(devices.clone(), scorer, *strategy).with_trace(trace))
            }
        }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            EvaluatorSpec::SerialCpu => "serial CPU".into(),
            EvaluatorSpec::PooledCpu { threads } => format!("CPU pool ({threads} threads)"),
            EvaluatorSpec::Device { devices, strategy } => {
                format!("{} ({} devices)", strategy.label(), devices.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::catalog;
    use vsmath::{RigidTransform, RngStream};
    use vsmol::synth;
    use vsmol::Conformation;

    fn scorer() -> Arc<Scorer> {
        let rec = synth::synth_receptor("r", 300, 1);
        let lig = synth::synth_ligand("l", 10, 2);
        Arc::new(Scorer::new(&rec, &lig, Default::default()))
    }

    fn confs(n: usize, seed: u64) -> Vec<Conformation> {
        let mut rng = RngStream::from_seed(seed);
        (0..n)
            .map(|_| Conformation::new(RigidTransform::new(rng.rotation(), rng.in_ball(25.0)), 0))
            .collect()
    }

    #[test]
    fn all_backends_agree_bitwise() {
        let sc = scorer();
        let specs = [
            EvaluatorSpec::SerialCpu,
            EvaluatorSpec::PooledCpu { threads: 3 },
            EvaluatorSpec::Device {
                devices: vec![
                    Arc::new(SimDevice::new(0, catalog::tesla_k40c())),
                    Arc::new(SimDevice::new(1, catalog::geforce_gtx_580())),
                ],
                strategy: Strategy::HomogeneousSplit,
            },
        ];
        let mut reference: Option<Vec<u64>> = None;
        for spec in &specs {
            let mut ev = spec.build(sc.clone());
            let mut c = confs(37, 5);
            ev.evaluate(&mut c);
            let bits: Vec<u64> = c.iter().map(|x| x.score.to_bits()).collect();
            match &reference {
                Some(want) => assert_eq!(want, &bits, "{} diverged", spec.label()),
                None => reference = Some(bits),
            }
        }
    }

    #[test]
    fn built_evaluator_reports_pairs() {
        let sc = scorer();
        let ev = EvaluatorSpec::SerialCpu.build(sc.clone());
        assert_eq!(ev.pairs_per_eval(), sc.pairs_per_eval());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(EvaluatorSpec::SerialCpu.label(), "serial CPU");
        assert_eq!(EvaluatorSpec::PooledCpu { threads: 8 }.label(), "CPU pool (8 threads)");
    }
}
