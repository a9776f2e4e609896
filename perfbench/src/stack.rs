//! The dock stack assembled by hand from public API, exactly as
//! `VirtualScreen::run` assembles it for a node backend — `node.reset()`,
//! the device list the strategy calls for, `DeviceEvaluator::new`, then
//! `metaheur::run_traced` or `run_exec` — with a timing decorator at the
//! seam between engine and evaluator. The equivalence tests pin that it
//! computes what `VirtualScreen::run` computes.

use gpusim::{SimDevice, SimNode};
use metaheur::{BatchEvaluator, EngineExec, MetaheuristicParams, RunResult};
use std::sync::Arc;
use std::time::Instant;
use vsched::Strategy;
use vsmol::{Conformation, Spot};
use vsscore::RigidGradient;
use vstrace::Trace;

/// Most batches a decorator holds for the evaluation ladder.
pub const MAX_CAPTURED: usize = 64;

/// One `evaluate*` call as seen from the engine side of the seam.
#[derive(Debug, Clone, Copy)]
pub struct EvalCall {
    /// Nanoseconds since the decorator's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub items: u32,
}

/// Times every call through the `BatchEvaluator` seam and keeps a
/// deterministic 1-in-k sample of the batches (poses as submitted) for
/// the evaluation ladder: every k-th batch is held; when
/// [`MAX_CAPTURED`] are held, every other one is dropped and k doubles.
pub struct TimedEvaluator<E> {
    pub inner: E,
    epoch: Instant,
    pub calls: Vec<EvalCall>,
    pub captured: Vec<Vec<Conformation>>,
    every: usize,
}

impl<E: BatchEvaluator> TimedEvaluator<E> {
    /// Wrap `inner`; call times are relative to `epoch`.
    pub fn new(inner: E, epoch: Instant) -> TimedEvaluator<E> {
        TimedEvaluator { inner, epoch, calls: Vec::new(), captured: Vec::new(), every: 1 }
    }

    fn timed<R>(
        &mut self,
        confs: &mut [Conformation],
        f: impl FnOnce(&mut E, &mut [Conformation]) -> R,
    ) -> R {
        if self.calls.len().is_multiple_of(self.every) {
            if self.captured.len() == MAX_CAPTURED {
                let mut keep = false;
                self.captured.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.every *= 2;
            }
            if self.calls.len().is_multiple_of(self.every) {
                self.captured.push(confs.to_vec());
            }
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut self.inner, confs);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.calls.push(EvalCall { start_ns, end_ns, items: confs.len() as u32 });
        out
    }
}

impl<E: BatchEvaluator> BatchEvaluator for TimedEvaluator<E> {
    fn evaluate(&mut self, confs: &mut [Conformation]) {
        self.timed(confs, |inner, confs| inner.evaluate(confs));
    }

    fn pairs_per_eval(&self) -> u64 {
        self.inner.pairs_per_eval()
    }

    fn evaluate_with_gradients(
        &mut self,
        confs: &mut [Conformation],
    ) -> Option<Vec<RigidGradient>> {
        self.timed(confs, |inner, confs| inner.evaluate_with_gradients(confs))
    }

    fn evaluate_after(&mut self, confs: &mut [Conformation], release: f64) -> f64 {
        self.timed(confs, |inner, confs| inner.evaluate_after(confs, release))
    }
}

/// The devices `VirtualScreen::run` hands a `DeviceEvaluator`: work
/// stealing and the oracle run the whole node (the host CPU is one more
/// lane); the split strategies keep the GPU-only partitioning.
pub fn devices_for(node: &SimNode, strategy: Strategy) -> Vec<Arc<SimDevice>> {
    if matches!(strategy, Strategy::WorkSteal { .. } | Strategy::Oracle { .. }) {
        let mut devices = vec![node.cpu().clone()];
        devices.extend(node.gpus().iter().cloned());
        devices
    } else {
        node.gpus().to_vec()
    }
}

/// The engine entry point `VirtualScreen::run` dispatches to: the classic
/// loop when no execution mode is requested, the mode-aware one otherwise.
pub fn run_engine<E: BatchEvaluator + Send>(
    params: &MetaheuristicParams,
    spots: &[Spot],
    evaluator: &mut E,
    seed: u64,
    exec: Option<EngineExec>,
) -> RunResult {
    let trace = Trace::disabled();
    match exec {
        None => metaheur::run_traced(params, spots, evaluator, seed, &trace),
        Some(exec) => metaheur::run_exec(params, spots, evaluator, seed, &[], &trace, exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaheur::SyntheticEvaluator;
    use vsmath::{RigidTransform, Vec3};

    fn batch(n: usize) -> Vec<Conformation> {
        (0..n)
            .map(|i| Conformation::new(RigidTransform::from_translation(Vec3::X * i as f64), 0))
            .collect()
    }

    #[test]
    fn decorator_forwards_scores_and_times_every_call() {
        let mut plain = SyntheticEvaluator::new(vec![Vec3::ZERO]);
        let mut timed =
            TimedEvaluator::new(SyntheticEvaluator::new(vec![Vec3::ZERO]), Instant::now());
        let (mut a, mut b) = (batch(5), batch(5));
        plain.evaluate(&mut a);
        timed.evaluate(&mut b);
        assert_eq!(timed.evaluate_after(&mut b, 1.5), 1.5);
        assert!(timed.evaluate_with_gradients(&mut b).is_some());
        assert_eq!(
            a.iter().map(|c| c.score).collect::<Vec<_>>(),
            b.iter().map(|c| c.score).collect::<Vec<_>>()
        );
        assert_eq!((timed.calls.len(), timed.inner.evaluations), (3, 15));
        assert!(timed.calls.iter().all(|c| c.items == 5));
        assert_eq!(timed.pairs_per_eval(), 1);
        assert!(timed.calls.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        assert!(timed.captured[0].iter().all(|c| !c.is_scored()), "batches are captured unscored");
    }

    #[test]
    fn capture_is_a_bounded_deterministic_sample() {
        let mut timed =
            TimedEvaluator::new(SyntheticEvaluator::new(vec![Vec3::ZERO]), Instant::now());
        for i in 0..1000 {
            timed.evaluate(&mut batch(1 + i % 7));
        }
        assert!(timed.captured.len() <= MAX_CAPTURED && timed.captured.len() >= MAX_CAPTURED / 2);
        // 1000 calls: k doubles to 16, so batches 0, 16, 32, … are held.
        assert_eq!(timed.every, 16);
        let sizes: Vec<usize> = timed.captured.iter().map(Vec::len).collect();
        let want: Vec<usize> = (0..1000).step_by(16).map(|i| 1 + i % 7).collect();
        assert_eq!(sizes, want);
    }
}
