//! SD-Policy configuration.

use crate::maxsd::MaxSlowdown;

/// Tunables of the Slowdown Driven policy (paper §3.2–3.3).
#[derive(Debug, Clone, PartialEq)]
pub struct SdPolicyConfig {
    /// The penalty cut-off `P` (paper: MAX_SLOWDOWN).
    pub max_slowdown: MaxSlowdown,
    /// Maximum mates per co-schedule, the paper's `m`. "From our evaluation
    /// … we did not see improvements … increasing m over two."
    pub max_mates: usize,
    /// "Options such as including free nodes to reduce fragmentation … are
    /// supported": allow idle nodes to count toward the weight constraint.
    pub include_free_nodes: bool,
}

impl Default for SdPolicyConfig {
    fn default() -> Self {
        SdPolicyConfig {
            max_slowdown: MaxSlowdown::DynAvg,
            max_mates: 2,
            include_free_nodes: false,
        }
    }
}

impl SdPolicyConfig {
    /// Paper label for experiment tables: `MAXSD 10`, `DynAVGSD`, …
    pub fn label(&self) -> String {
        self.max_slowdown.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_optima() {
        let c = SdPolicyConfig::default();
        assert_eq!(c.max_mates, 2, "m = 2 is the paper's optimal value");
        assert_eq!(c.max_slowdown, MaxSlowdown::DynAvg);
        assert!(!c.include_free_nodes);
    }

    #[test]
    fn label_delegates_to_cutoff() {
        let c = SdPolicyConfig {
            max_slowdown: MaxSlowdown::Static(10.0),
            ..SdPolicyConfig::default()
        };
        assert_eq!(c.label(), "MAXSD 10");
    }
}
