//! Interconnect cost model — the message-passing (MPI) analog.

use serde::{Deserialize, Serialize};

/// A simple latency + bandwidth model for point-to-point messages:
/// `t(bytes) = latency + bytes / bandwidth` — the standard Hockney model
/// MPI performance analysis uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetModel {
    /// One-way message latency, seconds.
    pub latency_s: f64,
    /// Link bandwidth, bytes per second.
    pub bandwidth_bps: f64,
}

impl NetModel {
    /// Gigabit Ethernet-class interconnect.
    pub fn gigabit_ethernet() -> NetModel {
        NetModel { latency_s: 50e-6, bandwidth_bps: 125e6 }
    }

    /// FDR InfiniBand-class interconnect.
    pub fn infiniband() -> NetModel {
        NetModel { latency_s: 1.5e-6, bandwidth_bps: 6.8e9 }
    }

    /// Time to move one message of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        assert!(self.bandwidth_bps > 0.0, "bandwidth must be positive");
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_includes_latency_and_bandwidth() {
        let n = NetModel { latency_s: 1e-3, bandwidth_bps: 1e6 };
        let t = n.transfer_time(1_000_000);
        assert!((t - (1e-3 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let n = NetModel::gigabit_ethernet();
        assert_eq!(n.transfer_time(0), n.latency_s);
    }

    #[test]
    fn infiniband_beats_ethernet() {
        let bytes = 10_000_000;
        assert!(
            NetModel::infiniband().transfer_time(bytes)
                < NetModel::gigabit_ethernet().transfer_time(bytes)
        );
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        NetModel { latency_s: 0.0, bandwidth_bps: 0.0 }.transfer_time(1);
    }
}
