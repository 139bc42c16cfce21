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
use std::fmt::Write as _;

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

/// Appends `v` as a JSON number — the one JSON number rule, shared by the
/// service's wire JSON and the campaign exports. NaN and the infinities are
/// not JSON and print `null`; a finite integral value below 1e15 in
/// magnitude prints as integer digits (`-0.0` as `0`); any other value
/// prints by `f64`'s shortest-roundtrip `Display`, so parsing the text gives
/// `v` back bit for bit.
#[inline]
pub fn push_json_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        if v < 0.0 {
            out.push('-');
        }
        push_u64(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends the decimal digits of `n`.
#[inline]
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
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

    #[test]
    fn json_num_rule() {
        let num = |v: f64| {
            let mut out = String::new();
            push_json_num(&mut out, v);
            out
        };
        assert_eq!(num(5000.0), "5000");
        assert_eq!(num(0.05), "0.05");
        assert_eq!(num(-1.5), "-1.5");
        assert_eq!(num(-0.0), "0");
        assert_eq!(num(f64::NAN), "null", "NaN is not valid JSON");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
