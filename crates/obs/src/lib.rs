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
    set_stderr_level, Level, LogRecord, LogRing, LogTail,
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

/// 2⁵³: every integer of smaller magnitude is exact in an `f64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// `|v|` as an integer when `v` is integral and below 2⁵³ in magnitude:
/// then its digits are exactly what `f64`'s `Display` prints. The `as`
/// casts saturate and send NaN to 0, so the round trip compares equal only
/// for such a value.
#[inline]
fn exact_int(v: f64) -> Option<u64> {
    let a = v.abs();
    let n = a as u64;
    (a < EXACT_INT && n as f64 == a).then_some(n)
}

/// Appends `v` as a JSON number — the one JSON number rule, shared by the
/// service's wire JSON and the campaign exports. NaN and the infinities are
/// not JSON and print `null`; any other value prints by `f64`'s
/// shortest-roundtrip `Display`, so parsing the text gives `v` back bit for
/// bit — except `-0.0`, which prints `0`. An integral value below 2⁵³ in
/// magnitude takes the digit loop, which prints the same digits.
#[inline]
pub fn push_json_num(out: &mut String, v: f64) {
    if let Some(n) = exact_int(v) {
        if v < 0.0 {
            out.push('-');
        }
        push_u64(out, n);
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `v` exactly as `f64`'s `Display` prints it — the Prometheus
/// exposition's number rule (`-0.0` keeps its sign, `-0`; NaN is `NaN`).
/// An integral value below 2⁵³ in magnitude takes the digit loop.
#[inline]
pub fn push_f64(out: &mut String, v: f64) {
    if let Some(n) = exact_int(v) {
        if v.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, n);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends the decimal digits of `n`, two at a time: each pair is a
/// two-byte slice of one static table, copied with one `push_str`.
pub fn push_u64(out: &mut String, n: u64) {
    const PAIRS: &str = "00010203040506070809101112131415161718192021222324\
                         25262728293031323334353637383940414243444546474849\
                         50515253545556575859606162636465666768697071727374\
                         75767778798081828384858687888990919293949596979899";
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    if n >= 100 {
        push_u64(out, n / 100);
    }
    let at = (n % 100) as usize * 2;
    out.push_str(&PAIRS[at..at + 2]);
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
        // Either side of 2⁵³, where the digit loop hands over to `Display`.
        assert_eq!(num(9_007_199_254_740_991.0), "9007199254740991");
        assert_eq!(num(-9_007_199_254_740_992.0), "-9007199254740992");
        assert_eq!(num(1e21), "1000000000000000000000");
        let exposition = |v: f64| {
            let mut out = String::new();
            push_f64(&mut out, v);
            out
        };
        for v in [-0.0, 0.0, 7.0, 1e15, 1.5, f64::NAN, f64::NEG_INFINITY, 5e-324] {
            assert_eq!(exposition(v), format!("{v}"));
        }
        for n in [0, 7, 10, 99, 100, 101, 1_000, 65_536, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }
}
