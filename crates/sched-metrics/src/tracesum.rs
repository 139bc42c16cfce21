//! Trace summarizer: turns a decision-trace event stream (DESIGN.md §12)
//! into the two views a workload post-mortem needs — the **decision mix**
//! (how often each decision fired) and the **wait-time decomposition**
//! (for every job that eventually started, what it spent its queue time
//! waiting *on*: a reservation ahead of it, a tenant quota, or simply no
//! fit in the machine).

use crate::table::Table;
use sd_trace::{TraceEvent, TraceKind};
use std::collections::HashMap;

/// Stable order for the decision-mix table (every kind a ring can hold).
pub(crate) const KIND_NAMES: [&str; 12] = [
    "pass_begin",
    "pass_end",
    "submitted",
    "started",
    "easy_reserved",
    "backfill_rejected",
    "quota_skipped",
    "shrunk",
    "expanded",
    "relocated",
    "cancelled",
    "completed",
];

/// Where a started job's queue wait went, summed over jobs whose dominant
/// pre-start signal was each cause. All values in virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaitDecomposition {
    /// Dominant signal: an EASY/conservative reservation was parked ahead
    /// of or for the job — it queued behind the profile.
    pub(crate) reserved_s: f64,
    /// Dominant signal: the tenant's quota blocked it.
    pub(crate) quota_s: f64,
    /// Dominant signal: backfill rejected it (no fit now / never fits /
    /// fragmentation).
    pub(crate) no_fit_s: f64,
    /// The job waited but no decision about it survived in the stream
    /// (e.g. the ring wrapped) — kept separate so the three causes above
    /// always mean what they say.
    pub(crate) unattributed_s: f64,
    /// Jobs that started with a non-zero wait.
    pub(crate) waited_jobs: u64,
}

impl WaitDecomposition {
    pub(crate) fn total_s(&self) -> f64 {
        self.reserved_s + self.quota_s + self.no_fit_s + self.unattributed_s
    }
}

/// Aggregate view of one trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    pub events: usize,
    /// Completed scheduler passes (`pass_end` events).
    pub passes: u64,
    /// Jobs started during passes (sum of `pass_end.started`).
    pub(crate) started_in_passes: u64,
    /// `(kind name, count)` in [`KIND_NAMES`] order, zero-count kinds kept.
    pub(crate) decision_mix: Vec<(&'static str, u64)>,
    pub wait: WaitDecomposition,
}

/// Summarize a stream (as returned by `TraceRing::snapshot` — ascending
/// sequence order is assumed for the wait attribution).
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut counts: HashMap<&'static str, u64> = HashMap::new();
    let mut passes = 0u64;
    let mut started_in_passes = 0u64;
    // Per pending job: (reservation signals, quota signals, no-fit signals)
    // seen since submission.
    let mut signals: HashMap<u64, [u64; 3]> = HashMap::new();
    let mut wait = WaitDecomposition::default();

    for ev in events {
        *counts.entry(ev.kind.name()).or_insert(0) += 1;
        match ev.kind {
            TraceKind::PassEnd { started, .. } => {
                passes += 1;
                started_in_passes += started as u64;
            }
            TraceKind::Submitted { job } => {
                signals.insert(job, [0; 3]);
            }
            TraceKind::EasyReserved { job, .. } => {
                signals.entry(job).or_insert([0; 3])[0] += 1;
            }
            TraceKind::QuotaSkipped { job, .. } => {
                signals.entry(job).or_insert([0; 3])[1] += 1;
            }
            TraceKind::BackfillRejected { job, .. } => {
                signals.entry(job).or_insert([0; 3])[2] += 1;
            }
            TraceKind::Started { job, wait: w, .. } => {
                if w > 0 {
                    wait.waited_jobs += 1;
                    let s = signals.get(&job).copied().unwrap_or([0; 3]);
                    let slot = if s == [0; 3] {
                        &mut wait.unattributed_s
                    } else if s[1] >= s[0] && s[1] >= s[2] {
                        // Quota wins ties: it is the only *policy* cause.
                        &mut wait.quota_s
                    } else if s[0] >= s[2] {
                        &mut wait.reserved_s
                    } else {
                        &mut wait.no_fit_s
                    };
                    *slot += w as f64;
                }
                signals.remove(&job);
            }
            TraceKind::Cancelled { job } => {
                signals.remove(&job);
            }
            _ => {}
        }
    }

    let decision_mix = KIND_NAMES
        .iter()
        .map(|&k| (k, counts.get(k).copied().unwrap_or(0)))
        .collect();
    TraceSummary { events: events.len(), passes, started_in_passes, decision_mix, wait }
}

impl TraceSummary {
    /// Two plain-text tables (decision mix, wait decomposition) for the
    /// experiment binaries.
    pub fn render(&self) -> String {
        let mut mix = Table::new(&["decision", "count"]);
        for &(k, c) in &self.decision_mix {
            if c > 0 {
                mix.row(vec![k.to_string(), format!("{c}")]);
            }
        }
        let total = self.wait.total_s().max(f64::MIN_POSITIVE);
        let mut wt = Table::new(&["wait cause", "virtual s", "share"]);
        for (label, v) in [
            ("queued_behind_reservation", self.wait.reserved_s),
            ("quota", self.wait.quota_s),
            ("no_fit", self.wait.no_fit_s),
            ("unattributed", self.wait.unattributed_s),
        ] {
            wt.row(vec![
                label.to_string(),
                format!("{v:.0}"),
                format!("{:.1}%", 100.0 * v / total),
            ]);
        }
        format!(
            "{}\npasses {}  started-in-passes {}  waited-jobs {}\n{}",
            mix.render(),
            self.passes,
            self.started_in_passes,
            self.wait.waited_jobs,
            wt.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_trace::RejectReason;

    fn ev(seq: u64, t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent { seq, t, kind }
    }

    #[test]
    fn mix_and_wait_attribution() {
        let events = vec![
            ev(0, 0, TraceKind::Submitted { job: 1 }),
            ev(1, 0, TraceKind::Submitted { job: 2 }),
            ev(2, 0, TraceKind::Submitted { job: 3 }),
            ev(3, 0, TraceKind::PassBegin { pass: 1, wall_ns: 5 }),
            // Job 1 queues behind a reservation, job 2 is quota-blocked,
            // job 3 is plain rejected.
            ev(4, 0, TraceKind::EasyReserved { job: 1, est: 50 }),
            ev(5, 0, TraceKind::QuotaSkipped { job: 2, tenant: 7 }),
            ev(
                6,
                0,
                TraceKind::BackfillRejected { job: 3, reason: RejectReason::NoFitNow },
            ),
            ev(7, 0, TraceKind::PassEnd { pass: 1, wall_ns: 9, started: 0 }),
            ev(8, 10, TraceKind::Started { job: 1, malleable: false, nodes: 4, wait: 10 }),
            ev(9, 20, TraceKind::Started { job: 2, malleable: false, nodes: 2, wait: 20 }),
            ev(10, 30, TraceKind::Started { job: 3, malleable: true, nodes: 1, wait: 30 }),
            // Job 4 started instantly: contributes no wait.
            ev(11, 30, TraceKind::Submitted { job: 4 }),
            ev(12, 30, TraceKind::Started { job: 4, malleable: false, nodes: 1, wait: 0 }),
        ];
        let s = summarize(&events);
        assert_eq!(s.events, 13);
        assert_eq!(s.passes, 1);
        assert_eq!(s.wait.waited_jobs, 3);
        assert_eq!(s.wait.reserved_s, 10.0);
        assert_eq!(s.wait.quota_s, 20.0);
        assert_eq!(s.wait.no_fit_s, 30.0);
        assert_eq!(s.wait.unattributed_s, 0.0);
        assert_eq!(s.wait.total_s(), 60.0);
        let mix: std::collections::HashMap<_, _> = s.decision_mix.iter().copied().collect();
        assert_eq!(mix["submitted"], 4);
        assert_eq!(mix["started"], 4);
        assert_eq!(mix["quota_skipped"], 1);
        assert_eq!(mix["shrunk"], 0);
        let text = s.render();
        assert!(text.contains("quota"));
        assert!(text.contains("queued_behind_reservation"));
    }

    #[test]
    fn unattributed_wait_when_signals_lost() {
        // A started event whose pre-start history was overwritten.
        let events =
            vec![ev(0, 9, TraceKind::Started { job: 8, malleable: false, nodes: 1, wait: 42 })];
        let s = summarize(&events);
        assert_eq!(s.wait.unattributed_s, 42.0);
        assert_eq!(s.wait.waited_jobs, 1);
    }
}
