//! The paper's five workloads as one enumeration (Table 1).
//!
//! Experiment binaries select workloads through [`PaperWorkload`]; the
//! `scale` knob shrinks both the job count and the machine proportionally so
//! CI-sized runs keep the full-scale pressure (offered load).

use crate::realrun::{workload5, AppTrace};
use crate::synth::SyntheticTraceModel;
use cluster::ClusterSpec;
use swf::Trace;

/// The five workloads of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperWorkload {
    /// 1 — Cirne model, user estimates.
    W1Cirne,
    /// 2 — Cirne model, exact estimates ("Cirne_ideal").
    W2CirneIdeal,
    /// 3 — RICC-like trace.
    W3Ricc,
    /// 4 — CEA-Curie-like trace (the big workload).
    W4Curie,
    /// 5 — Cirne model converted to application submissions ("real run").
    W5RealRun,
}

impl PaperWorkload {
    /// The four simulator workloads (Figs. 1–3, 8).
    pub const SIMULATED: [PaperWorkload; 4] = [
        PaperWorkload::W1Cirne,
        PaperWorkload::W2CirneIdeal,
        PaperWorkload::W3Ricc,
        PaperWorkload::W4Curie,
    ];

    pub fn label(self) -> &'static str {
        match self {
            PaperWorkload::W1Cirne => "Workload 1 (Cirne)",
            PaperWorkload::W2CirneIdeal => "Workload 2 (Cirne_ideal)",
            PaperWorkload::W3Ricc => "Workload 3 (RICC-sept)",
            PaperWorkload::W4Curie => "Workload 4 (CEA-Curie)",
            PaperWorkload::W5RealRun => "Workload 5 (Cirne_real_run)",
        }
    }

    pub fn short(self) -> &'static str {
        match self {
            PaperWorkload::W1Cirne => "W1",
            PaperWorkload::W2CirneIdeal => "W2",
            PaperWorkload::W3Ricc => "W3",
            PaperWorkload::W4Curie => "W4",
            PaperWorkload::W5RealRun => "W5",
        }
    }

    /// The simulator workload whose [`short`](Self::short) name is `word`,
    /// in either case (`w3` is [`PaperWorkload::W3Ricc`]) — the one table
    /// behind every `w1..w4` flag.
    pub fn by_short(word: &str) -> Option<PaperWorkload> {
        Self::SIMULATED.into_iter().find(|w| w.short().eq_ignore_ascii_case(word))
    }

    /// The default CI-sized scale for this workload: a few thousand jobs,
    /// seconds of wall time, same offered load as the paper-scale run.
    pub fn default_ci_scale(self) -> f64 {
        match self {
            PaperWorkload::W1Cirne | PaperWorkload::W2CirneIdeal => 0.20,
            PaperWorkload::W3Ricc => 0.20,
            PaperWorkload::W4Curie => 0.02,
            PaperWorkload::W5RealRun => 1.0, // already only 49 nodes / 2000 jobs
        }
    }

    /// The generative model for simulator workloads (panics for W5, which
    /// carries applications — use [`PaperWorkload::generate_apps`]).
    pub fn model(self, scale: f64) -> SyntheticTraceModel {
        match self {
            PaperWorkload::W1Cirne => crate::cirne::workload1(scale),
            PaperWorkload::W2CirneIdeal => crate::cirne::workload2(scale),
            PaperWorkload::W3Ricc => crate::ricc::workload3(scale),
            PaperWorkload::W4Curie => crate::curie::workload4(scale),
            PaperWorkload::W5RealRun => crate::realrun::workload5_model(),
        }
    }

    /// Generates the trace at the given scale.
    pub fn generate(self, seed: u64, scale: f64) -> Trace {
        self.model(scale).generate(seed)
    }

    /// Workload 5 with its application bindings (always full scale — the
    /// real run is only 49 nodes to begin with).
    pub fn generate_apps(seed: u64) -> AppTrace {
        workload5(seed)
    }

    /// The machine this workload runs on, consistent with `model(scale)`.
    pub fn cluster(self, scale: f64) -> ClusterSpec {
        let m = self.model(scale);
        match self {
            PaperWorkload::W1Cirne | PaperWorkload::W2CirneIdeal => {
                let mut c = ClusterSpec::marenostrum4(m.system_nodes);
                c.name = "Cirne-1024".into();
                c
            }
            PaperWorkload::W3Ricc => {
                let mut c = ClusterSpec::ricc();
                c.nodes = m.system_nodes;
                c
            }
            PaperWorkload::W4Curie => {
                let mut c = ClusterSpec::cea_curie();
                c.nodes = m.system_nodes;
                c
            }
            PaperWorkload::W5RealRun => ClusterSpec::mn4_real_run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_and_model_sizes_agree() {
        for w in PaperWorkload::SIMULATED {
            for scale in [0.05, 0.25, 1.0] {
                let m = w.model(scale);
                let c = w.cluster(scale);
                assert_eq!(c.nodes, m.system_nodes, "{w:?} at {scale}");
                assert_eq!(c.node.cores(), m.cores_per_node, "{w:?} at {scale}");
            }
        }
    }

    #[test]
    fn w5_cluster_is_mn4_subset() {
        let c = PaperWorkload::W5RealRun.cluster(1.0);
        assert_eq!(c.nodes, 49);
        assert_eq!(c.total_cores(), 2_352);
    }

    #[test]
    fn generate_produces_jobs_for_all() {
        for w in PaperWorkload::SIMULATED {
            let t = w.generate(3, 0.02);
            assert!(!t.is_empty(), "{w:?}");
            // Every job fits the machine.
            let c = w.cluster(0.02);
            for j in &t.jobs {
                assert!(j.procs().unwrap() <= c.total_cores(), "{w:?}");
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let all = [PaperWorkload::W5RealRun].into_iter().chain(PaperWorkload::SIMULATED);
        let mut labels: Vec<&str> = all.map(|w| w.short()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 5);
        // Each simulator workload is found by its short name, in either case.
        for w in PaperWorkload::SIMULATED {
            assert_eq!(PaperWorkload::by_short(w.short()), Some(w));
            assert_eq!(PaperWorkload::by_short(&w.short().to_lowercase()), Some(w));
        }
        assert_eq!(PaperWorkload::by_short("w5"), None, "not a simulator workload");
        assert_eq!(PaperWorkload::by_short("ricc"), None);
    }
}
