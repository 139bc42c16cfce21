//! Machine descriptions and presets for the systems evaluated in the paper.

use crate::power::PowerModel;

/// Immutable description of one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    pub sockets: u32,
    pub cores_per_socket: u32,
    pub power: PowerModel,
}

impl NodeSpec {
    /// Total cores on the node.
    pub fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Socket index a core belongs to.
    pub fn socket_of(&self, core: u32) -> u32 {
        core / self.cores_per_socket
    }
}

/// A cluster: `nodes` identical nodes of a given [`NodeSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    pub name: String,
    pub nodes: u32,
    pub node: NodeSpec,
}

impl ClusterSpec {
    pub fn new(name: &str, nodes: u32, node: NodeSpec) -> Self {
        ClusterSpec {
            name: name.to_string(),
            nodes,
            node,
        }
    }

    /// Total cores in the machine.
    pub fn total_cores(&self) -> u64 {
        self.nodes as u64 * self.node.cores() as u64
    }

    /// Nodes needed to hold `procs` processors at full-node granularity
    /// (the select/linear rule: whole nodes only).
    pub fn nodes_for_procs(&self, procs: u64) -> u32 {
        let per = self.node.cores() as u64;
        (procs.div_ceil(per)).min(self.nodes as u64) as u32
    }

    // ----- presets matching the paper's Table 1 systems -----

    /// MareNostrum4 nodes: 2 × Intel Xeon Platinum 8160 (24 c), 96 GB.
    /// Used for Workload 5 (49 nodes, 2352 cores).
    pub fn marenostrum4(nodes: u32) -> ClusterSpec {
        ClusterSpec::new(
            "MareNostrum4",
            nodes,
            NodeSpec {
                sockets: 2,
                cores_per_socket: 24,
                power: PowerModel::mn4_node(),
            },
        )
    }

    /// RICC (Workload 3): 1024 nodes / 8192 cores → 8-core nodes (2 × 4).
    pub fn ricc() -> ClusterSpec {
        ClusterSpec::new(
            "RICC",
            1024,
            NodeSpec {
                sockets: 2,
                cores_per_socket: 4,
                power: PowerModel {
                    idle_watts: 120.0,
                    core_watts: 15.0,
                },
            },
        )
    }

    /// CEA Curie primary partition (Workload 4): 5040 nodes / 80640 cores
    /// → 16-core nodes (2 × 8 SandyBridge).
    pub fn cea_curie() -> ClusterSpec {
        ClusterSpec::new(
            "CEA-Curie",
            5040,
            NodeSpec {
                sockets: 2,
                cores_per_socket: 8,
                power: PowerModel {
                    idle_watts: 150.0,
                    core_watts: 12.0,
                },
            },
        )
    }

    /// The 49-node MN4 subset used for the real-run evaluation (Workload 5):
    /// one node is the controller, 48 are compute — the paper quotes
    /// "49 computing nodes … total 2353 cores" for 49 × 48 + controller; we
    /// model the 49 compute nodes (2352 cores) and keep the controller
    /// outside the simulated machine.
    pub fn mn4_real_run() -> ClusterSpec {
        let mut c = Self::marenostrum4(49);
        c.name = "MN4-49".into();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_sizes_match_table1() {
        // Workloads 1–2 run on 1024 MN4-like nodes.
        assert_eq!(ClusterSpec::marenostrum4(1024).total_cores(), 49_152);
        assert_eq!(ClusterSpec::ricc().total_cores(), 8_192);
        assert_eq!(ClusterSpec::cea_curie().total_cores(), 80_640);
        assert_eq!(ClusterSpec::mn4_real_run().total_cores(), 2_352);
    }

    #[test]
    fn socket_of_maps_cores() {
        let node = ClusterSpec::ricc().node;
        assert_eq!(node.socket_of(0), 0);
        assert_eq!(node.socket_of(3), 0);
        assert_eq!(node.socket_of(4), 1);
        assert_eq!(node.socket_of(7), 1);
    }

    #[test]
    fn nodes_for_procs_rounds_up_whole_nodes() {
        let c = ClusterSpec::cea_curie(); // 16-core nodes
        assert_eq!(c.nodes_for_procs(1), 1);
        assert_eq!(c.nodes_for_procs(16), 1);
        assert_eq!(c.nodes_for_procs(17), 2);
        assert_eq!(c.nodes_for_procs(79_808), 4_988); // Table 1 max job
        assert_eq!(c.nodes_for_procs(u64::MAX), 5_040, "clamped to machine");
    }
}
