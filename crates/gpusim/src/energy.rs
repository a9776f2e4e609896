//! Energy accounting.
//!
//! The paper motivates heterogeneity-awareness partly by energy ("the
//! energy barrier", §1; Table 1's performance-per-watt row; the authors'
//! earlier work \[14\] is explicitly about energy efficiency in virtual
//! screening). This module turns the virtual-time accounting of
//! [`crate::SimDevice`] into energy-to-solution numbers: a device burns its
//! TDP while busy and an idle fraction of it while waiting.

use crate::device::SimDevice;
use crate::node::SimNode;
use serde::{Deserialize, Serialize};

/// Simple two-state power model: `P_busy = TDP`, `P_idle = idle_fraction ×
/// TDP`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Idle power as a fraction of TDP (modern boards idle at ~20–35%).
    pub idle_fraction: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel { idle_fraction: 0.30 }
    }
}

/// Energy report for one device over its virtual lifetime `[0, horizon]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceEnergy {
    pub name: String,
    pub busy_s: f64,
    pub idle_s: f64,
    pub joules: f64,
}

impl EnergyModel {
    /// Energy one device consumed up to `horizon` seconds of virtual time
    /// (the node makespan): busy time at TDP, the rest idling.
    ///
    /// # Panics
    /// Panics if `horizon` is shorter than the device's busy time.
    pub fn device_energy(&self, dev: &SimDevice, horizon: f64) -> DeviceEnergy {
        let busy = dev.stats().busy_s;
        assert!(horizon + 1e-12 >= busy, "horizon {horizon} shorter than busy time {busy}");
        let idle = (horizon - busy).max(0.0);
        let tdp = dev.spec().tdp_watts;
        DeviceEnergy {
            name: dev.spec().name.clone(),
            busy_s: busy,
            idle_s: idle,
            joules: tdp * busy + self.idle_fraction * tdp * idle,
        }
    }

    /// Total energy of a node over its makespan: every device (CPU + GPUs)
    /// is powered for the whole run, busy or not — the pessimistic
    /// whole-node accounting the paper's energy discussion implies.
    pub fn node_energy(&self, node: &SimNode) -> f64 {
        let horizon = node.makespan();
        let mut total = self.device_energy(node.cpu(), horizon).joules;
        for g in node.gpus() {
            total += self.device_energy(g, horizon).joules;
        }
        total
    }

    /// Per-device breakdown for a node over its makespan.
    pub fn node_breakdown(&self, node: &SimNode) -> Vec<DeviceEnergy> {
        let horizon = node.makespan();
        let mut out = vec![self.device_energy(node.cpu(), horizon)];
        out.extend(node.gpus().iter().map(|g| self.device_energy(g, horizon)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::cost::WorkBatch;

    #[test]
    fn busy_device_burns_tdp() {
        let d = SimDevice::new(0, catalog::geforce_gtx_580());
        d.execute(&WorkBatch::conformations(100_000, 10_000));
        let t = d.clock();
        let e = EnergyModel::default().device_energy(&d, t);
        assert!((e.joules - 244.0 * t).abs() < 1e-9, "fully busy = TDP × t");
        assert_eq!(e.idle_s, 0.0);
    }

    #[test]
    fn idle_device_burns_idle_fraction() {
        let d = SimDevice::new(0, catalog::tesla_k40c());
        let e = EnergyModel::default().device_energy(&d, 10.0);
        assert!((e.joules - 0.30 * 235.0 * 10.0).abs() < 1e-9);
        assert_eq!(e.busy_s, 0.0);
    }

    #[test]
    fn mixed_busy_idle() {
        let m = EnergyModel { idle_fraction: 0.5 };
        let d = SimDevice::new(0, catalog::geforce_gtx_580());
        d.execute(&WorkBatch::conformations(100_000, 10_000));
        let busy = d.clock();
        let horizon = busy * 2.0;
        let e = m.device_energy(&d, horizon);
        let want = 244.0 * busy + 0.5 * 244.0 * busy;
        assert!((e.joules - want).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn horizon_before_busy_panics() {
        let d = SimDevice::new(0, catalog::geforce_gtx_580());
        d.execute(&WorkBatch::conformations(100_000, 10_000));
        EnergyModel::default().device_energy(&d, d.clock() / 2.0);
    }

    #[test]
    fn node_energy_sums_devices() {
        let node = SimNode::new(
            "n",
            catalog::xeon_e3_1220(),
            vec![catalog::tesla_k40c(), catalog::geforce_gtx_580()],
        );
        node.gpu(0).execute(&WorkBatch::conformations(10_000, 10_000));
        node.gpu(1).execute(&WorkBatch::conformations(10_000, 10_000));
        let m = EnergyModel::default();
        let breakdown = m.node_breakdown(&node);
        assert_eq!(breakdown.len(), 3);
        let sum: f64 = breakdown.iter().map(|e| e.joules).sum();
        assert!((sum - m.node_energy(&node)).abs() < 1e-9);
    }

    #[test]
    fn balanced_schedule_uses_less_energy_than_imbalanced() {
        // Same total work; the balanced version finishes sooner, so the
        // idle tail (and its energy) shrinks — the energy argument for the
        // heterogeneous algorithm.
        let m = EnergyModel::default();
        let make = || {
            SimNode::new(
                "n",
                catalog::xeon_e3_1220(),
                vec![catalog::tesla_k40c(), catalog::geforce_gtx_580()],
            )
        };
        let imbalanced = make();
        imbalanced.gpu(0).execute(&WorkBatch::conformations(50_000, 100_000));
        imbalanced.gpu(1).execute(&WorkBatch::conformations(50_000, 100_000));

        let balanced = make();
        balanced.gpu(0).execute(&WorkBatch::conformations(70_000, 100_000));
        balanced.gpu(1).execute(&WorkBatch::conformations(30_000, 100_000));

        assert!(balanced.makespan() < imbalanced.makespan());
        assert!(m.node_energy(&balanced) < m.node_energy(&imbalanced));
    }
}
