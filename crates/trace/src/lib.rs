//! # sd-trace — structured scheduler decision tracing
//!
//! A dependency-free tracing substrate threaded from the scheduler core to
//! the service (DESIGN.md §12):
//!
//! * [`TraceEvent`] / [`TraceKind`] — typed, fixed-size decision records
//!   (pass begin/end, started, EASY-reserved, backfill-rejected-with-reason,
//!   quota-skipped, shrunk, expanded, relocated, cancelled, completed),
//! * [`ring::SeqRing`] — the bounded seqlock ring of fixed-width word
//!   records with **lock-free readers** (every word an atomic — readers
//!   never block the writer, torn reads are detected and dropped);
//!   [`TraceRing`] is its 4-word instance and `sd_obs::LogRing` its
//!   51-word one,
//! * [`TraceSink`] — the probe handle embedded in `SimState`: dormant it is
//!   a `None` check, armed it is one relaxed atomic load per probe (the
//!   dormant-until-enabled idiom of `slurm_sim::timing`),
//! * [`render_virtual`] — the canonical virtual-time rendering (wall-clock
//!   fields excluded) pinned byte-identical across runs by the determinism
//!   tests,
//! * [`chrome_trace`] — Chrome trace-event JSON (`chrome://tracing` /
//!   Perfetto): scheduler passes as nested `B`/`E` spans over the virtual
//!   timeline, per-job decisions as instant events.
//!
//! Wall-clock time appears only in `PassBegin`/`PassEnd` (`wall_ns` since
//! the ring's creation instant); every other field is virtual time or a job
//! identifier, so the virtual-time stream is deterministic by construction.

pub mod ring;

use crate::ring::SeqRing;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why the backfill pass declined to act on a pending job this pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Fits eventually but not now, and no reservation was placed (EASY
    /// mode, non-head job).
    NoFitNow,
    /// Requests more nodes than the cluster will ever have free.
    NeverFits,
    /// The profile said "now" but node selection failed (fragmentation).
    Fragmentation,
}

impl RejectReason {
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::NoFitNow => "no_fit_now",
            RejectReason::NeverFits => "never_fits",
            RejectReason::Fragmentation => "fragmentation",
        }
    }

    fn from_code(code: u32) -> RejectReason {
        match code {
            0 => RejectReason::NoFitNow,
            1 => RejectReason::NeverFits,
            _ => RejectReason::Fragmentation,
        }
    }

    fn code(self) -> u32 {
        match self {
            RejectReason::NoFitNow => 0,
            RejectReason::NeverFits => 1,
            RejectReason::Fragmentation => 2,
        }
    }
}

/// One scheduler decision. All payloads are plain integers so an event
/// packs into three 64-bit words in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A scheduler pass is starting. `wall_ns` is wall-clock nanoseconds
    /// since the ring was created — the only non-deterministic field.
    PassBegin { pass: u64, wall_ns: u64 },
    /// The pass finished; `started` jobs left the queue during it.
    PassEnd { pass: u64, wall_ns: u64, started: u32 },
    /// A job entered the pending queue.
    Submitted { job: u64 },
    /// A job started (static backfill or malleable co-schedule).
    Started { job: u64, malleable: bool, nodes: u32, wait: u64 },
    /// The profile reserved a future start for this job.
    EasyReserved { job: u64, est: u64 },
    /// The pass looked at the job and moved on.
    BackfillRejected { job: u64, reason: RejectReason },
    /// The tenant's quota blocked the job this pass.
    QuotaSkipped { job: u64, tenant: u64 },
    /// A running mate shrank to lend nodes to `borrower`.
    Shrunk { mate: u64, borrower: u64 },
    /// A running job expanded back onto reclaimed nodes (now `nodes` wide).
    Expanded { job: u64, nodes: u32 },
    /// A borrower was relocated onto idle nodes, freeing its lenders.
    Relocated { job: u64, nodes: u32 },
    /// A pending or running job was cancelled.
    Cancelled { job: u64 },
    /// A job finished.
    Completed { job: u64 },
}

/// A field value for rendering: numeric payloads plus symbolic names
/// (reject reasons) stay distinguishable without string allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldVal {
    U64(u64),
    Str(&'static str),
}

impl fmt::Display for FieldVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldVal::U64(v) => write!(f, "{v}"),
            FieldVal::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Every [`TraceKind`]'s stable snake-case name, in tag order: a kind's
/// index here is the tag it is packed under in the ring.
pub const NAMES: [&str; 12] = [
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

impl TraceKind {
    /// Stable snake-case event name used by every rendering.
    pub fn name(&self) -> &'static str {
        NAMES[self.tag() as usize]
    }

    /// The kind's index in [`NAMES`], and its tag in the ring.
    fn tag(&self) -> u8 {
        match self {
            TraceKind::PassBegin { .. } => 0,
            TraceKind::PassEnd { .. } => 1,
            TraceKind::Submitted { .. } => 2,
            TraceKind::Started { .. } => 3,
            TraceKind::EasyReserved { .. } => 4,
            TraceKind::BackfillRejected { .. } => 5,
            TraceKind::QuotaSkipped { .. } => 6,
            TraceKind::Shrunk { .. } => 7,
            TraceKind::Expanded { .. } => 8,
            TraceKind::Relocated { .. } => 9,
            TraceKind::Cancelled { .. } => 10,
            TraceKind::Completed { .. } => 11,
        }
    }

    /// All payload fields, in declaration order.
    pub fn fields(&self) -> Vec<(&'static str, FieldVal)> {
        use FieldVal::{Str, U64};
        match *self {
            TraceKind::PassBegin { pass, wall_ns } => {
                vec![("pass", U64(pass)), ("wall_ns", U64(wall_ns))]
            }
            TraceKind::PassEnd { pass, wall_ns, started } => vec![
                ("pass", U64(pass)),
                ("wall_ns", U64(wall_ns)),
                ("started", U64(started as u64)),
            ],
            TraceKind::Submitted { job } => vec![("job", U64(job))],
            TraceKind::Started { job, malleable, nodes, wait } => vec![
                ("job", U64(job)),
                ("malleable", U64(malleable as u64)),
                ("nodes", U64(nodes as u64)),
                ("wait", U64(wait)),
            ],
            TraceKind::EasyReserved { job, est } => {
                vec![("job", U64(job)), ("est", U64(est))]
            }
            TraceKind::BackfillRejected { job, reason } => {
                vec![("job", U64(job)), ("reason", Str(reason.name()))]
            }
            TraceKind::QuotaSkipped { job, tenant } => {
                vec![("job", U64(job)), ("tenant", U64(tenant))]
            }
            TraceKind::Shrunk { mate, borrower } => {
                vec![("mate", U64(mate)), ("borrower", U64(borrower))]
            }
            TraceKind::Expanded { job, nodes } => {
                vec![("job", U64(job)), ("nodes", U64(nodes as u64))]
            }
            TraceKind::Relocated { job, nodes } => {
                vec![("job", U64(job)), ("nodes", U64(nodes as u64))]
            }
            TraceKind::Cancelled { job } => vec![("job", U64(job))],
            TraceKind::Completed { job } => vec![("job", U64(job))],
        }
    }

    /// Like [`fields`](Self::fields) but with wall-clock fields removed —
    /// the deterministic subset rendered by [`render_virtual`].
    pub(crate) fn virtual_fields(&self) -> Vec<(&'static str, FieldVal)> {
        self.fields()
            .into_iter()
            .filter(|(k, _)| *k != "wall_ns")
            .collect()
    }

    /// The job a decision is primarily about (`None` for pass markers).
    pub fn job(&self) -> Option<u64> {
        match *self {
            TraceKind::PassBegin { .. } | TraceKind::PassEnd { .. } => None,
            TraceKind::Submitted { job }
            | TraceKind::Started { job, .. }
            | TraceKind::EasyReserved { job, .. }
            | TraceKind::BackfillRejected { job, .. }
            | TraceKind::QuotaSkipped { job, .. }
            | TraceKind::Expanded { job, .. }
            | TraceKind::Relocated { job, .. }
            | TraceKind::Cancelled { job }
            | TraceKind::Completed { job } => Some(job),
            TraceKind::Shrunk { borrower, .. } => Some(borrower),
        }
    }

    /// Whether the event mentions `job` in any role (a `Shrunk` event
    /// involves both the lender and the borrower).
    pub fn involves(&self, job: u64) -> bool {
        match *self {
            TraceKind::Shrunk { mate, borrower } => mate == job || borrower == job,
            _ => self.job() == Some(job),
        }
    }

    /// Pack into `(w1, w2, w3)`: tag in `w1[0..8]`, 32-bit aux payload in
    /// `w1[32..64]`, two full-width words after that.
    fn encode(&self) -> (u64, u64, u64) {
        let (aux, w2, w3): (u32, u64, u64) = match *self {
            TraceKind::PassBegin { pass, wall_ns } => (0, pass, wall_ns),
            TraceKind::PassEnd { pass, wall_ns, started } => (started, pass, wall_ns),
            TraceKind::Submitted { job } => (0, job, 0),
            TraceKind::Started { job, malleable, nodes, wait } => {
                debug_assert!(nodes < 1 << 31);
                (nodes | (malleable as u32) << 31, job, wait)
            }
            TraceKind::EasyReserved { job, est } => (0, job, est),
            TraceKind::BackfillRejected { job, reason } => (reason.code(), job, 0),
            TraceKind::QuotaSkipped { job, tenant } => (0, job, tenant),
            TraceKind::Shrunk { mate, borrower } => (0, mate, borrower),
            TraceKind::Expanded { job, nodes } => (nodes, job, 0),
            TraceKind::Relocated { job, nodes } => (nodes, job, 0),
            TraceKind::Cancelled { job } => (0, job, 0),
            TraceKind::Completed { job } => (0, job, 0),
        };
        (self.tag() as u64 | (aux as u64) << 32, w2, w3)
    }

    fn decode(w1: u64, w2: u64, w3: u64) -> TraceKind {
        let tag = (w1 & 0xff) as u8;
        let aux = (w1 >> 32) as u32;
        match tag {
            0 => TraceKind::PassBegin { pass: w2, wall_ns: w3 },
            1 => TraceKind::PassEnd { pass: w2, wall_ns: w3, started: aux },
            2 => TraceKind::Submitted { job: w2 },
            3 => TraceKind::Started {
                job: w2,
                malleable: aux >> 31 != 0,
                nodes: aux & 0x7fff_ffff,
                wait: w3,
            },
            4 => TraceKind::EasyReserved { job: w2, est: w3 },
            5 => TraceKind::BackfillRejected { job: w2, reason: RejectReason::from_code(aux) },
            6 => TraceKind::QuotaSkipped { job: w2, tenant: w3 },
            7 => TraceKind::Shrunk { mate: w2, borrower: w3 },
            8 => TraceKind::Expanded { job: w2, nodes: aux },
            9 => TraceKind::Relocated { job: w2, nodes: aux },
            10 => TraceKind::Cancelled { job: w2 },
            _ => TraceKind::Completed { job: w2 },
        }
    }
}

/// One traced decision: global sequence number (total pushes before it),
/// virtual time in seconds, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub seq: u64,
    pub t: u64,
    pub kind: TraceKind,
}

/// Bounded lock-free trace ring: the 4-word (`t`, `w1`, `w2`, `w3`)
/// instance of [`ring::SeqRing`]. Single logical writer (the scheduler
/// thread owning `SimState`), any number of concurrent readers. When the
/// ring wraps, the oldest events are overwritten; readers learn how many
/// they missed via [`TraceTail::dropped`].
pub struct TraceRing {
    enabled: AtomicBool,
    ring: SeqRing<4>,
    epoch: Instant,
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("head", &self.pushed())
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// The result of tailing the ring from a cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTail {
    pub events: Vec<TraceEvent>,
    /// Pass this back as the next cursor to continue where this read ended.
    pub next: u64,
    /// Events between the cursor and `next` that were overwritten (or
    /// mid-overwrite) before they could be read.
    pub dropped: u64,
}

impl TraceRing {
    /// Create a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum 8), enabled from the start.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            enabled: AtomicBool::new(true),
            ring: SeqRing::new(capacity.clamp(8, 1 << 24)),
            epoch: Instant::now(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Total events ever pushed (== the sequence number the next event
    /// will get).
    pub fn pushed(&self) -> u64 {
        self.ring.head()
    }

    /// How many events have been overwritten since creation.
    pub fn overwritten(&self) -> u64 {
        self.pushed().saturating_sub(self.capacity() as u64)
    }

    /// Wall-clock nanoseconds since the ring was created — the timestamp
    /// domain of `PassBegin`/`PassEnd`.
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append one event. Readers tailing concurrently never block this.
    pub fn push(&self, t: u64, kind: TraceKind) {
        let (w1, w2, w3) = kind.encode();
        self.ring.push(&[t, w1, w2, w3]);
    }

    /// Read up to `limit` events starting at sequence number `cursor`.
    /// Events older than `head - capacity` are gone and counted in
    /// [`TraceTail::dropped`].
    pub fn read_since(&self, cursor: u64, limit: usize) -> TraceTail {
        let tail = self.ring.read_since(cursor, limit, |seq, &[t, w1, w2, w3]| TraceEvent {
            seq,
            t,
            kind: TraceKind::decode(w1, w2, w3),
        });
        TraceTail { events: tail.items, next: tail.next, dropped: tail.dropped }
    }

    /// Everything still held in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.read_since(0, usize::MAX).events
    }
}

/// The probe handle owned by `SimState`. Detached (the default) every
/// probe is an `Option` check; attached but disabled it is one relaxed
/// atomic load — the same dormant-until-enabled contract as
/// `slurm_sim::timing`.
#[derive(Clone, Default)]
pub struct TraceSink {
    ring: Option<Arc<TraceRing>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ring {
            Some(r) => write!(f, "TraceSink({r:?})"),
            None => write!(f, "TraceSink(detached)"),
        }
    }
}

impl TraceSink {
    pub fn detached() -> TraceSink {
        TraceSink::default()
    }

    pub fn attached(ring: Arc<TraceRing>) -> TraceSink {
        TraceSink { ring: Some(ring) }
    }

    pub fn ring(&self) -> Option<&Arc<TraceRing>> {
        self.ring.as_ref()
    }

    /// True when probes should bother building event payloads.
    #[inline]
    pub fn active(&self) -> bool {
        matches!(&self.ring, Some(r) if r.enabled())
    }

    #[inline]
    pub fn emit(&self, t: u64, kind: TraceKind) {
        if let Some(r) = &self.ring {
            if r.enabled() {
                r.push(t, kind);
            }
        }
    }

    /// Wall-clock nanoseconds in the attached ring's epoch (0 if detached).
    pub fn wall_ns(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.wall_ns())
    }
}

/// Render the deterministic virtual-time stream: one line per event,
/// `seq t name k=v ...`, wall-clock fields omitted. Two runs of the same
/// scenario must produce byte-identical output (pinned by
/// `tests/trace_determinism.rs`).
pub fn render_virtual(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48);
    for ev in events {
        out.push_str(&format!("{} {} {}", ev.seq, ev.t, ev.kind.name()));
        for (k, v) in ev.kind.virtual_fields() {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Render events as a Chrome trace-event JSON array (load in
/// `chrome://tracing` or <https://ui.perfetto.dev>). Scheduler passes
/// become `B`/`E` duration spans on the virtual timeline (1 virtual second
/// = 1 trace second; `ts` is in microseconds), per-job decisions become
/// instant events. Only passes whose begin *and* end survived in the ring
/// are emitted, so `B` and `E` counts always match.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(events.len());
    let mut open: Option<(u64, u64, u64)> = None; // (pass, t, wall_ns)
    for ev in events {
        let ts = ev.t.saturating_mul(1_000_000);
        match ev.kind {
            TraceKind::PassBegin { pass, wall_ns } => open = Some((pass, ev.t, wall_ns)),
            TraceKind::PassEnd { pass, wall_ns, started } => {
                if let Some((p, t0, w0)) = open.take() {
                    if p == pass {
                        entries.push(format!(
                            "{{\"name\":\"pass {p}\",\"cat\":\"sched\",\"ph\":\"B\",\
                             \"pid\":1,\"tid\":1,\"ts\":{}}}",
                            t0.saturating_mul(1_000_000)
                        ));
                        entries.push(format!(
                            "{{\"name\":\"pass {p}\",\"cat\":\"sched\",\"ph\":\"E\",\
                             \"pid\":1,\"tid\":1,\"ts\":{ts},\"args\":{{\
                             \"started\":{started},\"wall_us\":{}}}}}",
                            wall_ns.saturating_sub(w0) / 1_000
                        ));
                    }
                }
            }
            ref kind => {
                let mut args = String::new();
                for (k, v) in kind.virtual_fields() {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    match v {
                        FieldVal::U64(n) => args.push_str(&format!("\"{k}\":{n}")),
                        FieldVal::Str(s) => args.push_str(&format!("\"{k}\":\"{s}\"")),
                    }
                }
                entries.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"g\",\
                     \"pid\":1,\"tid\":2,\"ts\":{ts},\"args\":{{{args}}}}}",
                    kind.name()
                ));
            }
        }
    }
    let mut out = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(e);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceKind {
        TraceKind::Submitted { job: i }
    }

    #[test]
    fn roundtrip_every_kind() {
        let kinds = [
            TraceKind::PassBegin { pass: 7, wall_ns: 123_456 },
            TraceKind::PassEnd { pass: 7, wall_ns: 223_456, started: 3 },
            TraceKind::Submitted { job: 42 },
            TraceKind::Started { job: 42, malleable: true, nodes: 16, wait: 900 },
            TraceKind::Started { job: 43, malleable: false, nodes: 1, wait: 0 },
            TraceKind::EasyReserved { job: 5, est: 3_600 },
            TraceKind::BackfillRejected { job: 6, reason: RejectReason::NeverFits },
            TraceKind::BackfillRejected { job: 6, reason: RejectReason::Fragmentation },
            TraceKind::QuotaSkipped { job: 9, tenant: 2 },
            TraceKind::Shrunk { mate: 3, borrower: 9 },
            TraceKind::Expanded { job: 3, nodes: 12 },
            TraceKind::Relocated { job: 9, nodes: 4 },
            TraceKind::Cancelled { job: 1 },
            TraceKind::Completed { job: 2 },
        ];
        let ring = TraceRing::new(32);
        for (i, k) in kinds.iter().enumerate() {
            ring.push(i as u64, *k);
        }
        let got = ring.snapshot();
        assert_eq!(got.len(), kinds.len());
        assert_eq!((ring.pushed(), ring.overwritten()), (kinds.len() as u64, 0));
        for (i, (e, k)) in got.iter().zip(kinds.iter()).enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.t, i as u64);
            assert_eq!(&e.kind, k, "kind {i} did not round-trip");
        }
    }

    #[test]
    fn disabled_sink_emits_nothing() {
        let ring = Arc::new(TraceRing::new(8));
        let sink = TraceSink::attached(ring.clone());
        ring.disable();
        assert!(!sink.active());
        sink.emit(1, ev(1));
        assert_eq!(ring.pushed(), 0);
        ring.enable();
        sink.emit(2, ev(2));
        assert_eq!(ring.pushed(), 1);
        // Detached sink is inert and reports zero wall time.
        let d = TraceSink::detached();
        assert!(!d.active());
        assert_eq!(d.wall_ns(), 0);
        d.emit(3, ev(3));
    }

    #[test]
    fn virtual_rendering_hides_wall_time() {
        let ring = TraceRing::new(8);
        ring.push(10, TraceKind::PassBegin { pass: 1, wall_ns: 999 });
        ring.push(10, TraceKind::Started { job: 4, malleable: false, nodes: 2, wait: 5 });
        ring.push(10, TraceKind::PassEnd { pass: 1, wall_ns: 1_999, started: 1 });
        let text = render_virtual(&ring.snapshot());
        assert_eq!(
            text,
            "0 10 pass_begin pass=1\n\
             1 10 started job=4 malleable=0 nodes=2 wait=5\n\
             2 10 pass_end pass=1 started=1\n"
        );
        assert!(!text.contains("999"));
    }

    #[test]
    fn chrome_trace_pairs_and_instants() {
        let ring = TraceRing::new(8);
        ring.push(10, TraceKind::PassBegin { pass: 1, wall_ns: 1_000 });
        ring.push(
            10,
            TraceKind::BackfillRejected { job: 3, reason: RejectReason::NoFitNow },
        );
        ring.push(12, TraceKind::PassEnd { pass: 1, wall_ns: 41_000, started: 0 });
        // An unmatched begin (as after ring overflow) must not emit a span.
        ring.push(15, TraceKind::PassBegin { pass: 2, wall_ns: 50_000 });
        let json = chrome_trace(&ring.snapshot());
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        assert!(json.contains("\"ts\":10000000"));
        assert!(json.contains("\"reason\":\"no_fit_now\""));
        assert!(json.contains("\"wall_us\":40"));
    }
}
