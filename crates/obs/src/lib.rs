//! # sd-obs — operational observability primitives
//!
//! Building blocks shared by the service, the campaign runner and the
//! dashboards (DESIGN.md §15); the only dependency is `sd-trace`, for its
//! seqlock ring:
//!
//! * `log` — structured leveled logging: the [`log_event!`] macro feeds a
//!   bounded lock-free ring ([`LogRing`], the 51-word instance of
//!   `sd_trace::ring::SeqRing`) plus an optional stderr echo and a
//!   JSON-lines file sink. Readers tail the ring by cursor without ever
//!   blocking the writer — that is what lets `GET /v1/logs` be served off
//!   the scheduler hot path.
//! * `slo` — declarative service-level objectives with multi-window
//!   burn-rate math over cumulative good/total counters, the engine behind
//!   `[slo]` scenario sections, `GET /v1/slo` and `sd-loadgen --slo-gate`.

mod log;
mod slo;

pub use crate::log::{
    attach_json_sink, flush_sink, log_emit, log_enabled, read_since, ring_head, set_ring_level,
    set_stderr_level, set_virtual_now, Level, LogRecord, LogRing, LogTail,
};
pub use crate::slo::{good_within, SloKind, SloSpec, SloStatus, SloTracker, KNOWN_KEYS};

/// Appends `s` to `out` as a JSON string: quoted, with quotes, backslashes
/// and control characters escaped. The one JSON string writer — the log
/// sink, `/v1/logs`, the service's wire JSON and the campaign exports all
/// write through it — and it allocates nothing beyond `out`'s growth. Runs
/// of bytes that need no escape are copied with one `push_str`.
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every byte that needs an escape is ASCII, so each cut below falls on
    // a character boundary.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        let json = |s: &str| {
            let mut out = String::from("x");
            push_json_str(&mut out, s);
            out
        };
        assert_eq!(json("a\"b\\c\nd"), "x\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json("\u{1}\r\t"), "x\"\\u0001\\r\\t\"");
        assert_eq!(json("plain é"), "x\"plain é\"");
        assert_eq!(json("é\u{1f}ü\"\u{7f}"), "x\"é\\u001fü\\\"\u{7f}\"");
    }
}
