//! Structured leveled logging into a bounded lock-free ring.
//!
//! The ring is `sd_trace::ring::SeqRing` (DESIGN.md §12) with 51-word
//! slots: a meta word (level, text length, truncation flag), wall/virtual
//! timestamps and 48 text words holding the `\x1f`-separated
//! `target, message, key\x1evalue…` text. Any thread may log; readers
//! never block — a record overwritten or caught mid-write is *counted
//! dropped*, never returned torn. `tests/prop_log_ring.rs` property-tests
//! that contract through the text packing.
//!
//! On top of the ring sits the process-global `Logger` behind the
//! [`log_event!`] macro: one relaxed atomic load when the level is off,
//! ring + optional stderr echo + optional JSON-lines file sink when on.

use crate::push_json_str;
use sd_trace::ring::SeqRing;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::SystemTime;

/// Severity, ordered by verbosity: `Error < Warn < Info < Debug < Trace`.
/// "Level `l` is enabled at threshold `t`" means `l <= t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Info,
        }
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Global sequence number (ring cursor space).
    pub seq: u64,
    /// Wall-clock microseconds since the Unix epoch at emit time.
    pub wall_micros: u64,
    /// Virtual-clock seconds at emit time (0 until [`set_virtual_now`]).
    pub virt_secs: u64,
    pub level: Level,
    pub target: String,
    pub message: String,
    pub fields: Vec<(String, String)>,
    /// True when the encoded payload exceeded the slot capacity and the
    /// tail was cut (always at a UTF-8-safe point via lossy decode).
    pub truncated: bool,
}

impl LogRecord {
    /// One JSON object (no trailing newline) — the `/v1/logs` element and
    /// the JSON-lines sink format.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"wall_us\":{},\"virt_s\":{},\"level\":\"{}\",\"target\":",
            self.seq,
            self.wall_micros,
            self.virt_secs,
            self.level.label(),
        );
        push_json_str(&mut out, &self.target);
        out.push_str(",\"msg\":");
        push_json_str(&mut out, &self.message);
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push('}');
        }
        if self.truncated {
            out.push_str(",\"truncated\":true");
        }
        out.push('}');
        out
    }
}

/// Result of a cursor read: decoded records, the next cursor, and how many
/// records in the requested span were lost to wrap-around or a concurrent
/// overwrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogTail {
    pub records: Vec<LogRecord>,
    pub next: u64,
    pub dropped: u64,
}

/// Text capacity per slot in 8-byte words (384 bytes of encoded text).
const TEXT_WORDS: usize = 48;
const TEXT_BYTES: usize = TEXT_WORDS * 8;
/// Words before the text: meta (bits 0..=31 text byte length, bits 32..=39
/// level, bit 40 truncated), wall microseconds, virtual seconds.
const HEADER_WORDS: usize = 3;
const SLOT_WORDS: usize = HEADER_WORDS + TEXT_WORDS;
/// Unit separator between target / message / fields in the encoded text.
const SEP: u8 = 0x1f;
/// Separator between a field key and its value.
const KV: u8 = 0x1e;

/// Bounded multi-producer (serialised) / multi-consumer (lock-free) ring of
/// structured log records: the 51-word instance of [`SeqRing`].
pub struct LogRing {
    ring: SeqRing<SLOT_WORDS>,
}

impl LogRing {
    /// Capacity is rounded up to a power of two and clamped to `8..=2^20`.
    pub fn new(capacity: usize) -> LogRing {
        LogRing { ring: SeqRing::new(capacity.clamp(8, 1 << 20)) }
    }

    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Records written so far (== the cursor one past the newest record).
    pub fn head(&self) -> u64 {
        self.ring.head()
    }

    /// Encode and append one record. Any thread may call this; concurrent
    /// writers serialise inside the ring.
    pub fn push(
        &self,
        level: Level,
        wall_micros: u64,
        virt_secs: u64,
        target: &str,
        message: &str,
        fields: &[(&str, String)],
    ) {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(target.as_bytes());
        buf.push(SEP);
        buf.extend_from_slice(message.as_bytes());
        for (k, v) in fields {
            buf.push(SEP);
            buf.extend_from_slice(k.as_bytes());
            buf.push(KV);
            buf.extend_from_slice(v.as_bytes());
        }
        let truncated = buf.len() > TEXT_BYTES;
        buf.truncate(TEXT_BYTES);
        let meta = buf.len() as u64
            | (level as u64) << 32
            | if truncated { 1u64 << 40 } else { 0 };

        let mut words = [0u64; SLOT_WORDS];
        words[..HEADER_WORDS].copy_from_slice(&[meta, wall_micros, virt_secs]);
        for (w, chunk) in words[HEADER_WORDS..].iter_mut().zip(buf.chunks(8)) {
            let mut padded = [0u8; 8];
            padded[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(padded);
        }
        // Only the words this record uses are stored.
        self.ring.push(&words[..HEADER_WORDS + buf.len().div_ceil(8)]);
    }

    /// Tail up to `limit` records from `cursor`. Records the writer lapped
    /// (or overwrote mid-read) are counted in `dropped`, never returned
    /// torn or out of order. `next` resumes the tail.
    pub fn read_since(&self, cursor: u64, limit: usize) -> LogTail {
        let tail = self.ring.read_since(cursor, limit, decode_record);
        LogTail { records: tail.items, next: tail.next, dropped: tail.dropped }
    }
}

/// Unpacks one stable slot; text words past the record's length are
/// leftovers of older records and are not looked at.
fn decode_record(seq: u64, words: &[u64; SLOT_WORDS]) -> LogRecord {
    let (meta, wall_micros, virt_secs) = (words[0], words[1], words[2]);
    let len = (meta & 0xFFFF_FFFF) as usize;
    let bytes: Vec<u8> = words[HEADER_WORDS..]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .take(len)
        .collect();
    let mut parts = bytes.split(|&b| b == SEP);
    let target = String::from_utf8_lossy(parts.next().unwrap_or(&[])).into_owned();
    let message = String::from_utf8_lossy(parts.next().unwrap_or(&[])).into_owned();
    let fields = parts
        .map(|p| {
            let mut kv = p.splitn(2, |&b| b == KV);
            let k = String::from_utf8_lossy(kv.next().unwrap_or(&[])).into_owned();
            let v = String::from_utf8_lossy(kv.next().unwrap_or(&[])).into_owned();
            (k, v)
        })
        .collect();
    LogRecord {
        seq,
        wall_micros,
        virt_secs,
        level: Level::from_u8(((meta >> 32) & 0xFF) as u8),
        target,
        message,
        fields,
        truncated: meta & (1 << 40) != 0,
    }
}

/// Process-global logger state behind [`log_event!`].
pub(crate) struct Logger {
    ring: LogRing,
    ring_level: AtomicU8,
    stderr_level: AtomicU8,
    virt_secs: AtomicU64,
    sink_armed: AtomicBool,
    sink: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// Default ring capacity: 16 Ki records (~7 MiB), allocated on first log.
const DEFAULT_RING: usize = 1 << 14;

pub(crate) fn logger() -> &'static Logger {
    LOGGER.get_or_init(|| Logger {
        ring: LogRing::new(DEFAULT_RING),
        ring_level: AtomicU8::new(Level::Info as u8),
        stderr_level: AtomicU8::new(Level::Info as u8),
        virt_secs: AtomicU64::new(0),
        sink_armed: AtomicBool::new(false),
        sink: Mutex::new(None),
    })
}

/// Verbosity threshold for records kept in the ring (and JSON sink).
pub fn set_ring_level(l: Level) {
    logger().ring_level.store(l as u8, Ordering::Relaxed);
}

/// Verbosity threshold for the human-readable stderr echo (default: info,
/// matching the chattiness of the `eprintln!` sites this replaced).
pub fn set_stderr_level(l: Level) {
    logger().stderr_level.store(l as u8, Ordering::Relaxed);
}

/// Publishes the engine's virtual clock so records carry both timelines.
pub fn set_virtual_now(secs: u64) {
    logger().virt_secs.store(secs, Ordering::Relaxed);
}

/// Is anything listening at this level? One relaxed load per sink — the
/// whole disabled-path cost of a [`log_event!`] call site.
pub fn log_enabled(l: Level) -> bool {
    let lg = logger();
    let v = l as u8;
    v <= lg.ring_level.load(Ordering::Relaxed) || v <= lg.stderr_level.load(Ordering::Relaxed)
}

/// Streams every ring-enabled record to `path` as JSON lines.
pub fn attach_json_sink(path: &std::path::Path) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let lg = logger();
    *lg.sink.lock().expect("log sink poisoned") = Some(std::io::BufWriter::new(f));
    lg.sink_armed.store(true, Ordering::Release);
    Ok(())
}

/// Flushes the JSON-lines sink (call before exit; records are buffered).
pub fn flush_sink() {
    let lg = logger();
    if lg.sink_armed.load(Ordering::Acquire) {
        if let Some(w) = lg.sink.lock().expect("log sink poisoned").as_mut() {
            let _ = w.flush();
        }
    }
}

fn wall_micros_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// One JSON-lines record, newline included, in a single `write_all`: the
/// sink only ever holds (and, when its buffer spills, the file only ever
/// gains) whole lines, so a crash cannot leave a record without its newline.
fn write_json_line(w: &mut impl std::io::Write, rec: &LogRecord) -> std::io::Result<()> {
    let mut line = rec.to_json();
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Emit one record to every armed sink. Call through [`log_event!`], which
/// performs the level check before paying for formatting.
pub fn log_emit(level: Level, target: &str, message: &str, fields: &[(&str, String)]) {
    let lg = logger();
    let wall = wall_micros_now();
    let virt = lg.virt_secs.load(Ordering::Relaxed);
    let to_ring = level as u8 <= lg.ring_level.load(Ordering::Relaxed);
    if to_ring {
        lg.ring.push(level, wall, virt, target, message, fields);
        if lg.sink_armed.load(Ordering::Acquire) {
            let rec = LogRecord {
                seq: lg.ring.head().saturating_sub(1),
                wall_micros: wall,
                virt_secs: virt,
                level,
                target: target.to_string(),
                message: message.to_string(),
                fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                truncated: false,
            };
            if let Some(w) = lg.sink.lock().expect("log sink poisoned").as_mut() {
                let _ = write_json_line(w, &rec);
            }
        }
    }
    if level as u8 <= lg.stderr_level.load(Ordering::Relaxed) {
        let mut line = format!("[{} {}] {}", level.label(), target, message);
        for (k, v) in fields {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

/// Tails the global ring (see [`LogRing::read_since`]).
pub fn read_since(cursor: u64, limit: usize) -> LogTail {
    logger().ring.read_since(cursor, limit)
}

/// Records ever pushed to the global ring (tail cursor upper bound).
pub fn ring_head() -> u64 {
    logger().ring.head()
}

/// Structured leveled logging:
///
/// ```
/// use sd_obs::log_event;
/// log_event!(Info, "engine", "pass {} done", 7; started = 3, queue = 12);
/// log_event!(Warn, "wal", "append failed");
/// ```
///
/// The level is an identifier (`Error | Warn | Info | Debug | Trace`);
/// everything after the target up to `;` is a `format!` argument list; the
/// optional `; key = value, …` tail becomes structured fields (values
/// through `Display`). Costs one relaxed atomic load when the level is off.
#[macro_export]
macro_rules! log_event {
    ($lvl:ident, $target:expr, $($fmt:expr),+ $(,)? $(; $($k:ident = $v:expr),+ $(,)?)?) => {{
        let __lvl = $crate::Level::$lvl;
        if $crate::log_enabled(__lvl) {
            let __msg = format!($($fmt),+);
            let __fields: &[(&str, String)] = &[
                $($( (stringify!($k), format!("{}", $v)) ),+)?
            ];
            $crate::log_emit(__lvl, $target, &__msg, __fields);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_roundtrips_records_in_order() {
        let ring = LogRing::new(64);
        for i in 0..10u64 {
            ring.push(
                Level::Info,
                1000 + i,
                i,
                "engine",
                &format!("event {i}"),
                &[("job", format!("{i}"))],
            );
        }
        let tail = ring.read_since(0, 100);
        assert_eq!(tail.records.len(), 10);
        assert_eq!(tail.dropped, 0);
        assert_eq!(tail.next, 10);
        for (i, r) in tail.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.target, "engine");
            assert_eq!(r.message, format!("event {i}"));
            assert_eq!(r.fields, vec![("job".to_string(), format!("{i}"))]);
            assert_eq!(r.virt_secs, i as u64);
            assert_eq!(r.level, Level::Info);
        }
    }

    #[test]
    fn oversize_record_truncates_and_flags() {
        let ring = LogRing::new(8);
        let big = "x".repeat(1000);
        ring.push(Level::Warn, 0, 0, "t", &big, &[]);
        let tail = ring.read_since(0, 1);
        let r = &tail.records[0];
        assert!(r.truncated);
        assert!(r.message.len() < 1000);
        assert!(r.message.starts_with("xxx"));
    }

    #[test]
    fn level_thresholds_gate_the_macro() {
        // Process-global state: use a distinctive target and only assert on
        // records this test wrote.
        set_ring_level(Level::Info);
        let before = read_since(0, 0).next;
        log_event!(Debug, "gate-test", "below threshold");
        assert_eq!(read_since(0, 0).next, before, "debug suppressed at info");
        set_ring_level(Level::Debug);
        log_event!(Debug, "gate-test", "now visible"; answer = 42);
        let tail = read_since(before, 10);
        let rec = tail
            .records
            .iter()
            .find(|r| r.target == "gate-test")
            .expect("record landed");
        assert_eq!(rec.fields, vec![("answer".to_string(), "42".to_string())]);
        set_ring_level(Level::Info);
    }

    #[test]
    fn json_line_shape() {
        let r = LogRecord {
            seq: 7,
            wall_micros: 123,
            virt_secs: 9,
            level: Level::Warn,
            target: "wal".to_string(),
            message: "torn \"tail\"".to_string(),
            fields: vec![("bytes".to_string(), "5".to_string())],
            truncated: false,
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"seq\":7,"));
        assert!(j.contains("\"level\":\"warn\""));
        assert!(j.contains("\"msg\":\"torn \\\"tail\\\"\""));
        assert!(j.contains("\"fields\":{\"bytes\":\"5\"}"));

        // The sink gets the record and its newline in one write.
        struct Writes(Vec<Vec<u8>>);
        impl std::io::Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Writes(Vec::new());
        write_json_line(&mut sink, &r).unwrap();
        assert_eq!(sink.0, vec![format!("{j}\n").into_bytes()]);
    }
}
