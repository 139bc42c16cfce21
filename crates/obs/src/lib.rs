//! # sd-obs — operational observability primitives
//!
//! Building blocks shared by the service, the campaign runner and the
//! dashboards (DESIGN.md §15); the only dependency is `sd-trace`, for its
//! seqlock ring:
//!
//! * [`log`] — structured leveled logging: the [`log_event!`] macro feeds a
//!   bounded lock-free ring ([`LogRing`], the 51-word instance of
//!   `sd_trace::ring::SeqRing`) plus an optional stderr echo and a
//!   JSON-lines file sink. Readers tail the ring by cursor without ever
//!   blocking the writer — that is what lets `GET /v1/logs` be served off
//!   the scheduler hot path.
//! * [`profile`] — Brendan-Gregg collapsed-stack rendering for the
//!   per-function timing accumulated by `slurm_sim::timing`
//!   (`stack;frames;joined value` lines — loadable in inferno and
//!   speedscope).
//! * [`slo`] — declarative service-level objectives with multi-window
//!   burn-rate math over cumulative good/total counters, the engine behind
//!   `[slo]` scenario sections, `GET /v1/slo` and `sd-loadgen --slo-gate`.

pub mod log;
pub mod profile;
pub mod slo;

pub use crate::log::{
    attach_json_sink, flush_sink, log_emit, log_enabled, read_since, ring_head, set_ring_level,
    set_stderr_level, set_virtual_now, stderr_level, Level, LogRecord, LogRing, LogTail,
};
pub use crate::profile::{collapsed, StackSample};
pub use crate::slo::{good_within, SloKind, SloSpec, SloStatus, SloTracker, BURN_PAGE_THRESHOLD, KNOWN_KEYS};

/// Minimal JSON string escaping (quotes, backslash, control characters) for
/// the JSON-lines log sink and the `/v1/logs` payload.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
