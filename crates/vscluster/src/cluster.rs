//! The node pool: heterogeneous nodes joined by an interconnect.
//!
//! `SimCluster` is purely the hardware description — nodes plus network.
//! All campaign execution goes through [`crate::service::Service`], the
//! single submission API (`submit`/`drain`) that replaced the old
//! per-campaign-kind entry points.

use crate::net::NetModel;
use gpusim::SimNode;

/// Several multicore + multi-GPU nodes joined by an interconnect. Node 0's
/// host doubles as the campaign root that scatters ligands and gathers
/// results (the master of the message-passing design).
///
/// ```
/// use vscluster::{NetModel, SimCluster};
///
/// let cluster = SimCluster::uniform(2, NetModel::infiniband(), vscreen::platform::hertz);
/// assert_eq!(cluster.nodes().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SimCluster {
    nodes: Vec<SimNode>,
    net: NetModel,
}

impl SimCluster {
    pub fn new(nodes: Vec<SimNode>, net: NetModel) -> SimCluster {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        SimCluster { nodes, net }
    }

    /// A homogeneous cluster of `n` copies of a node template produced by
    /// `make_node`.
    pub fn uniform(n: usize, net: NetModel, make_node: impl Fn() -> SimNode) -> SimCluster {
        SimCluster::new((0..n).map(|_| make_node()).collect(), net)
    }

    pub fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// The interconnect cost model.
    pub fn net(&self) -> NetModel {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vscreen::platform;

    #[test]
    fn uniform_builds_n_nodes() {
        let c = SimCluster::uniform(3, NetModel::infiniband(), platform::hertz);
        assert_eq!(c.nodes().len(), 3);
        assert_eq!(c.net(), NetModel::infiniband());
    }

    #[test]
    #[should_panic]
    fn empty_cluster_panics() {
        SimCluster::new(vec![], NetModel::infiniband());
    }
}
