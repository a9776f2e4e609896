//! A simulated device with a virtual clock.

use crate::cost::{CostModel, WorkBatch};
use crate::spec::DeviceSpec;
use serde::{Deserialize, Serialize};
// DETERMINISM: raw std mutex — gpusim state is host-side simulation bookkeeping outside the modeled sync surface (no facade in this crate).
use std::sync::{Mutex, MutexGuard};

/// Cumulative execution statistics for one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceStats {
    pub batches: u64,
    pub items: u64,
    pub units: u64,
    /// Total modeled busy time, seconds.
    pub busy_s: f64,
}

/// A compute device with a virtual clock.
///
/// Executing a [`WorkBatch`] advances the device's clock by the modeled
/// time. One thread at a time drives a device — a simulated device is a
/// clock, not a thread — but its state sits behind a `Mutex` because the
/// evaluator that holds it must stay `Send`: perfbench's
/// `stack::run_engine` bounds its evaluator `E: BatchEvaluator + Send` and
/// passes a `vsched::DeviceEvaluator`. That evaluator holds its devices
/// as `Arc<SimDevice>`, and `Arc<T>` is `Send` only when `T` is `Sync`,
/// which a `Cell` or `RefCell` state would not be.
#[derive(Debug)]
pub struct SimDevice {
    id: usize,
    spec: DeviceSpec,
    model: CostModel,
    state: Mutex<DeviceState>,
}

#[derive(Debug)]
struct DeviceState {
    clock_s: f64,
    stats: DeviceStats,
    /// Multiplier on every modeled execution time (1.0 = nominal). Fault
    /// injection uses this to degrade a device mid-run: thermal throttling,
    /// a failing board, ECC retirement storms.
    slowdown: f64,
}

impl Default for DeviceState {
    fn default() -> DeviceState {
        DeviceState { clock_s: 0.0, stats: DeviceStats::default(), slowdown: 1.0 }
    }
}

impl SimDevice {
    pub fn new(id: usize, spec: DeviceSpec) -> SimDevice {
        SimDevice::with_model(id, spec, CostModel::default())
    }

    pub fn with_model(id: usize, spec: DeviceSpec, model: CostModel) -> SimDevice {
        SimDevice { id, spec, model, state: Mutex::new(DeviceState::default()) }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    fn state(&self) -> MutexGuard<'_, DeviceState> {
        // PANICS: lock poisoning means a sibling thread panicked while holding it; propagating the panic is deliberate.
        self.state.lock().expect("device state mutex poisoned")
    }

    /// Execute a batch: advances the virtual clock and returns the modeled
    /// elapsed time in seconds.
    pub fn execute(&self, batch: &WorkBatch) -> f64 {
        let base = self.model.execution_time(&self.spec, batch);
        let mut st = self.state();
        let dt = base * st.slowdown;
        st.clock_s += dt;
        st.stats.batches += 1;
        st.stats.items += batch.items;
        st.stats.units += batch.total_units();
        st.stats.busy_s += dt;
        dt
    }

    /// Modeled time for a batch *without* executing it (used by planners).
    /// Always equals what [`SimDevice::execute`] would charge right now,
    /// including any active [`SimDevice::set_slowdown`] factor.
    pub fn estimate(&self, batch: &WorkBatch) -> f64 {
        let slowdown = self.state().slowdown;
        self.model.execution_time(&self.spec, batch) * slowdown
    }

    /// Degrade (or restore) the device: every subsequent modeled execution
    /// time is multiplied by `factor`. `1.0` is nominal; a straggler GPU
    /// that thermally throttles to quarter speed uses `4.0`. Past work is
    /// not re-priced. [`SimDevice::reset`] restores the nominal factor.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and strictly positive.
    pub fn set_slowdown(&self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bad slowdown factor {factor}");
        self.state().slowdown = factor;
    }

    /// The active slowdown multiplier (1.0 = nominal).
    pub fn slowdown(&self) -> f64 {
        self.state().slowdown
    }

    /// The `(kernel, PCIe transfer)` split of a batch's modeled time — see
    /// [`CostModel::time_breakdown`]. Trace instrumentation records this
    /// next to every `DeviceBusy` event. Both components scale with the
    /// active slowdown factor, consistent with [`SimDevice::execute`].
    pub fn time_breakdown(&self, batch: &WorkBatch) -> (f64, f64) {
        let slowdown = self.state().slowdown;
        let (kernel, transfer) = self.model.time_breakdown(&self.spec, batch);
        (kernel * slowdown, transfer * slowdown)
    }

    /// The device's catalog name (e.g. `"Tesla K40c"`).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Current virtual time, seconds.
    pub fn clock(&self) -> f64 {
        self.state().clock_s
    }

    /// Advance the clock to at least `t` (idle wait / barrier sync).
    pub fn sync_to(&self, t: f64) {
        let mut st = self.state();
        if t > st.clock_s {
            st.clock_s = t;
        }
    }

    /// Add idle time (e.g. host-side serial section attributed to this
    /// device's controlling thread).
    pub fn advance(&self, dt: f64) {
        assert!(dt >= 0.0, "cannot advance clock backwards");
        self.state().clock_s += dt;
    }

    /// Reset clock and statistics (between experiments).
    pub fn reset(&self) {
        *self.state() = DeviceState::default();
    }

    pub fn stats(&self) -> DeviceStats {
        self.state().stats
    }

    /// Fraction of the device's virtual lifetime spent busy.
    pub fn utilization(&self) -> f64 {
        let st = self.state();
        if st.clock_s <= 0.0 {
            0.0
        } else {
            st.stats.busy_s / st.clock_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn dev() -> SimDevice {
        SimDevice::new(0, catalog::geforce_gtx_580())
    }

    #[test]
    fn execute_advances_clock() {
        let d = dev();
        assert_eq!(d.clock(), 0.0);
        let dt = d.execute(&WorkBatch::conformations(1000, 1000));
        assert!(dt > 0.0);
        assert_eq!(d.clock(), dt);
        let dt2 = d.execute(&WorkBatch::conformations(1000, 1000));
        assert!((d.clock() - (dt + dt2)).abs() < 1e-15);
    }

    #[test]
    fn estimate_matches_execute_without_side_effects() {
        let d = dev();
        let b = WorkBatch::conformations(512, 2048);
        let est = d.estimate(&b);
        assert_eq!(d.clock(), 0.0, "estimate must not advance the clock");
        assert_eq!(d.execute(&b), est);
    }

    #[test]
    fn stats_accumulate() {
        let d = dev();
        d.execute(&WorkBatch::conformations(10, 100));
        d.execute(&WorkBatch::conformations(20, 100));
        let s = d.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.items, 30);
        assert_eq!(s.units, 3000);
        assert!(s.busy_s > 0.0);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let d = dev();
        d.sync_to(5.0);
        assert_eq!(d.clock(), 5.0);
        d.sync_to(3.0);
        assert_eq!(d.clock(), 5.0);
    }

    #[test]
    fn advance_and_utilization() {
        let d = dev();
        d.execute(&WorkBatch::conformations(100_000, 1000));
        let busy = d.clock();
        d.advance(busy); // equal idle time
        assert!((d.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn negative_advance_panics() {
        dev().advance(-1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let d = dev();
        d.execute(&WorkBatch::conformations(10, 10));
        d.reset();
        assert_eq!(d.clock(), 0.0);
        assert_eq!(d.stats(), DeviceStats::default());
    }

    #[test]
    fn slowdown_scales_future_work_only() {
        let d = dev();
        let b = WorkBatch::conformations(500, 1000);
        let nominal = d.execute(&b);
        let (k0, t0) = d.time_breakdown(&b);
        d.set_slowdown(4.0);
        assert_eq!(d.slowdown(), 4.0);
        assert!((d.estimate(&b) - 4.0 * nominal).abs() < 1e-15);
        let degraded = d.execute(&b);
        assert!((degraded - 4.0 * nominal).abs() < 1e-15);
        // Past work is not re-priced: clock = nominal + 4*nominal.
        assert!((d.clock() - 5.0 * nominal).abs() < 1e-15);
        let (k, t) = d.time_breakdown(&b);
        assert!((k - 4.0 * k0).abs() < 1e-15 && (t - 4.0 * t0).abs() < 1e-15);
    }

    #[test]
    fn estimate_matches_execute_under_slowdown() {
        let d = dev();
        d.set_slowdown(2.5);
        let b = WorkBatch::conformations(512, 2048);
        let est = d.estimate(&b);
        assert_eq!(d.execute(&b), est);
    }

    #[test]
    fn reset_restores_nominal_slowdown() {
        let d = dev();
        d.set_slowdown(8.0);
        d.reset();
        assert_eq!(d.slowdown(), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_slowdown_rejected() {
        dev().set_slowdown(0.0);
    }

    #[test]
    fn concurrent_execution_is_safe() {
        let d = std::sync::Arc::new(dev());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    d.execute(&WorkBatch::conformations(10, 10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(d.stats().batches, 800);
    }
}
