//! The service's reported numbers: `GET /v1/stats`, `GET /v1/cluster` and
//! the Prometheus text exposition of `GET /metrics`.
//!
//! Every plain number of the engine's [`Snapshot`] is one [`Row`] of
//! [`ROWS`] (and every number of a [`TenantSnap`] one row of
//! [`TENANT_ROWS`]): its `/v1/stats` key, its `/metrics` series, its type
//! and HELP text, and how to read it. Both views loop over the same rows, so
//! a number is in both or in neither. Hand-written beside them: the HTTP
//! counters, the histograms, the timing probes, the SLO block and
//! `recovered{mode}` — none of them a plain snapshot number.
//!
//! Plain text format 0.0.4: `# HELP`/`# TYPE` pairs and one sample per
//! line — scrapeable by any Prometheus without extra deps. Three
//! histogram-typed series ride along: HTTP request latency and scheduler
//! pass duration (wall clock, observed lock-free into [`ServeHistograms`]
//! by the workers/engine) and the submit→start wait of started jobs
//! (virtual time, rebuilt from outcomes at snapshot time so the simulation
//! result stays wall-clock-free).

use crate::engine::{ClockMode, Snapshot, TenantSnap};
use crate::json::{self, JsonWriter};
use sd_obs::{push_f64, push_u64};
use std::sync::atomic::{AtomicU64, Ordering};

/// One reported number of a `T` (the [`Snapshot`] or one [`TenantSnap`]).
pub struct Row<T> {
    /// Its `/v1/stats` key.
    pub key: &'static str,
    /// Its `/metrics` series.
    pub series: &'static str,
    /// `counter` or `gauge`.
    pub kind: &'static str,
    pub help: &'static str,
    /// `None` leaves the number out of both views (the WAL rows without
    /// `--wal`).
    pub read: fn(&T) -> Option<f64>,
    /// `key` as JSON member text, quotes and colon included (`"now":`).
    json_key: &'static str,
    /// The `# HELP` and `# TYPE` lines.
    head: &'static str,
}

/// `row!(counter|gauge, key, series, help, read)`: a [`Row`] whose JSON key
/// and exposition head are joined at compile time, so a view writes each
/// with one copy. Keys need no JSON escape (`tests/prop_wire.rs` checks).
macro_rules! row {
    ($kind:ident, $key:literal, $series:literal, $help:literal, $read:expr) => {
        Row {
            key: $key,
            series: $series,
            kind: stringify!($kind),
            help: $help,
            read: $read,
            json_key: concat!("\"", $key, "\":"),
            head: concat!("# HELP ", $series, " ", $help, "\n# TYPE ", $series, " ", stringify!($kind), "\n"),
        }
    };
}

pub const NOW: Row<Snapshot> = row!(gauge, "now", "sd_serve_sim_now_seconds", "Virtual clock position.", |s| Some(s.now as f64));
pub const SUBMITTED: Row<Snapshot> = row!(counter, "submitted", "sd_serve_jobs_submitted_total", "Jobs accepted over the API.", |s| Some(s.submitted as f64));
pub(crate) const JOBS_TOTAL: Row<Snapshot> = row!(gauge, "jobs_total", "sd_serve_jobs_total", "Jobs known to the simulator.", |s| Some(s.jobs_total as f64));
pub const PENDING: Row<Snapshot> = row!(gauge, "pending", "sd_serve_jobs_pending", "Jobs waiting in the queue.", |s| Some(s.pending as f64));
pub const RUNNING: Row<Snapshot> = row!(gauge, "running", "sd_serve_jobs_running", "Jobs currently executing.", |s| Some(s.running as f64));
pub const COMPLETED: Row<Snapshot> = row!(counter, "completed", "sd_serve_jobs_completed_total", "Jobs that finished.", |s| Some(s.completed as f64));
const CANCELLED: Row<Snapshot> = row!(counter, "cancelled", "sd_serve_jobs_cancelled_total", "Jobs withdrawn.", |s| Some(s.stats.cancelled as f64));
const QUOTA_SKIPPED: Row<Snapshot> = row!(counter, "quota_skipped", "sd_serve_quota_skipped_total", "Backfill trials skipped by tenant quotas.", |s| Some(s.stats.quota_skipped as f64));
const STARTED_STATIC: Row<Snapshot> = row!(counter, "started_static", "sd_serve_started_static_total", "Exclusive whole-node starts.", |s| Some(s.stats.started_static as f64));
pub(crate) const STARTED_MALLEABLE: Row<Snapshot> = row!(counter, "started_malleable", "sd_serve_started_malleable_total", "Malleable co-scheduled starts.", |s| Some(s.stats.started_malleable as f64));
const UNIQUE_MATES: Row<Snapshot> = row!(counter, "unique_mates", "sd_serve_unique_mates_total", "Distinct jobs shrunk as mates.", |s| Some(s.stats.unique_mates as f64));
const SHRINK_EVENTS: Row<Snapshot> = row!(counter, "shrink_events", "sd_serve_shrink_events_total", "Mate shrink operations.", |s| Some(s.stats.shrink_events as f64));
const EXPAND_EVENTS: Row<Snapshot> = row!(counter, "expand_events", "sd_serve_expand_events_total", "Expand-back operations.", |s| Some(s.stats.expand_events as f64));
const RELOCATIONS: Row<Snapshot> = row!(counter, "relocations", "sd_serve_relocations_total", "Shrunk borrowers moved to idle nodes.", |s| Some(s.stats.relocations as f64));
pub const SCHED_PASSES: Row<Snapshot> = row!(counter, "sched_passes", "sd_serve_sched_passes_total", "Scheduling passes executed.", |s| Some(s.stats.sched_passes as f64));
pub const PASSES_SKIPPED: Row<Snapshot> = row!(counter, "passes_skipped", "sd_serve_sched_passes_skipped_total", "Passes skipped by no-op gating.", |s| Some(s.stats.passes_skipped as f64));
const EVENTS_DISPATCHED: Row<Snapshot> = row!(counter, "events_dispatched", "sd_serve_events_dispatched_total", "Simulation events dispatched.", |s| Some(s.stats.events_dispatched as f64));
const EVENTS_OUTSTANDING: Row<Snapshot> = row!(gauge, "events_outstanding", "sd_serve_events_outstanding", "Events still scheduled.", |s| Some(s.events_outstanding as f64));
const PEAK_PROFILE_LEN: Row<Snapshot> = row!(gauge, "peak_profile_len", "sd_serve_peak_profile_len", "Largest availability-profile length seen.", |s| Some(s.stats.peak_profile_len as f64));
pub const BUSY_CORES: Row<Snapshot> = row!(gauge, "busy_cores", "sd_serve_busy_cores", "Cores currently allocated.", |s| Some(s.busy_cores as f64));
pub const EMPTY_NODES: Row<Snapshot> = row!(gauge, "empty_nodes", "sd_serve_empty_nodes", "Completely idle nodes.", |s| Some(f64::from(s.empty_nodes)));
pub const NODES: Row<Snapshot> = row!(gauge, "nodes", "sd_serve_cluster_nodes", "Machine size in nodes.", |s| Some(f64::from(s.nodes)));
pub const CORES_PER_NODE: Row<Snapshot> = row!(gauge, "cores_per_node", "sd_serve_cores_per_node", "Cores per node.", |s| Some(f64::from(s.cores_per_node)));
pub(crate) const ENERGY_JOULES: Row<Snapshot> = row!(counter, "energy_joules", "sd_serve_energy_joules_total", "Energy integral over the makespan window.", |s| Some(s.energy_joules));
const MEAN_SLOWDOWN: Row<Snapshot> = row!(gauge, "mean_slowdown", "sd_serve_mean_slowdown", "Mean slowdown of completed jobs.", |s| Some(s.mean_slowdown));
const MEAN_RESPONSE: Row<Snapshot> = row!(gauge, "mean_response", "sd_serve_mean_response_seconds", "Mean response time of completed jobs.", |s| Some(s.mean_response));
const MEAN_WAIT: Row<Snapshot> = row!(gauge, "mean_wait", "sd_serve_mean_wait_seconds", "Mean submit-to-start wait of completed jobs.", |s| Some(s.mean_wait));
const MAKESPAN: Row<Snapshot> = row!(gauge, "makespan", "sd_serve_makespan_seconds", "First submit to last end, so far.", |s| Some(s.makespan as f64));
const WAL_RECORDS_WRITTEN: Row<Snapshot> = row!(counter, "wal_records_written", "sd_serve_wal_records_written_total", "Commands appended to the write-ahead log since boot.", |s| s.wal.as_ref().map(|w| w.records_written as f64));
const WAL_RECORDS_REPLAYED: Row<Snapshot> = row!(counter, "wal_records_replayed", "sd_serve_wal_records_replayed_total", "WAL records replayed during boot recovery.", |s| s.wal.as_ref().map(|w| w.records_replayed as f64));
pub const CHECKPOINTS_WRITTEN: Row<Snapshot> = row!(counter, "checkpoints_written", "sd_serve_checkpoints_written_total", "Checkpoints installed since boot.", |s| s.wal.as_ref().map(|w| w.checkpoints_written as f64));
const RECOVERY_SECONDS: Row<Snapshot> = row!(gauge, "recovery_seconds", "sd_serve_recovery_duration_seconds", "Wall time of boot recovery (restore + replay).", |s| s.wal.as_ref().map(|w| w.recovery_seconds));
pub const WAL_BYTES: Row<Snapshot> = row!(gauge, "wal_bytes", "sd_serve_wal_bytes", "Current on-disk size of the write-ahead log.", |s| s.wal.as_ref().map(|w| w.wal_bytes as f64));
pub const WAL_SEGMENT_AGE: Row<Snapshot> = row!(gauge, "wal_segment_age_seconds", "sd_serve_wal_segment_age_seconds", "Age of the oldest un-checkpointed WAL record.", |s| s.wal.as_ref().map(|w| w.wal_segment_age_seconds));

/// Every snapshot number, in `/v1/stats` and `/metrics` order.
pub static ROWS: [Row<Snapshot>; 34] = [
    NOW, SUBMITTED, JOBS_TOTAL, PENDING, RUNNING, COMPLETED, CANCELLED, QUOTA_SKIPPED,
    STARTED_STATIC, STARTED_MALLEABLE, UNIQUE_MATES, SHRINK_EVENTS, EXPAND_EVENTS, RELOCATIONS,
    SCHED_PASSES, PASSES_SKIPPED, EVENTS_DISPATCHED, EVENTS_OUTSTANDING, PEAK_PROFILE_LEN,
    BUSY_CORES, EMPTY_NODES, NODES, CORES_PER_NODE, ENERGY_JOULES, MEAN_SLOWDOWN, MEAN_RESPONSE,
    MEAN_WAIT, MAKESPAN, WAL_RECORDS_WRITTEN, WAL_RECORDS_REPLAYED, CHECKPOINTS_WRITTEN,
    RECOVERY_SECONDS, WAL_BYTES, WAL_SEGMENT_AGE,
];

/// The `GET /v1/cluster` body.
pub(crate) static CLUSTER: [Row<Snapshot>; 5] = [NODES, CORES_PER_NODE, BUSY_CORES, EMPTY_NODES, RUNNING];

pub const TENANT_SUBMITTED: Row<TenantSnap> = row!(counter, "submitted", "sd_serve_tenant_submitted_total", "Jobs accepted per tenant.", |t| Some(t.submitted as f64));
pub const TENANT_RATE_LIMITED: Row<TenantSnap> = row!(counter, "rate_limited", "sd_serve_tenant_rate_limited_total", "Submissions refused by the per-tenant rate limit.", |t| Some(t.rate_limited as f64));
const TENANT_STARTED: Row<TenantSnap> = row!(counter, "started", "sd_serve_tenant_started_total", "Jobs started per tenant.", |t| Some(t.started as f64));
pub const TENANT_COMPLETED: Row<TenantSnap> = row!(counter, "completed", "sd_serve_tenant_completed_total", "Jobs completed per tenant.", |t| Some(t.completed as f64));
const TENANT_QUOTA_SKIPPED: Row<TenantSnap> = row!(counter, "quota_skipped", "sd_serve_tenant_quota_skipped_total", "Backfill trials skipped by this tenant's quota.", |t| Some(t.quota_skipped as f64));
pub const TENANT_RUNNING_WIDTH: Row<TenantSnap> = row!(gauge, "running_width", "sd_serve_tenant_running_width", "Requested nodes currently running per tenant.", |t| Some(t.running_width as f64));

/// Every per-tenant number, in `/v1/stats` and `/metrics` order; `/metrics`
/// labels each sample `{tenant="…"}`.
pub static TENANT_ROWS: [Row<TenantSnap>; 6] = [
    TENANT_SUBMITTED, TENANT_RATE_LIMITED, TENANT_STARTED, TENANT_COMPLETED, TENANT_QUOTA_SKIPPED,
    TENANT_RUNNING_WIDTH,
];

/// One member per row that `v` has a number for.
pub(crate) fn fields<T>(w: &mut JsonWriter, rows: &[Row<T>], v: &T) {
    for r in rows {
        if let Some(x) = (r.read)(v) {
            w.quoted_key(r.json_key).num(x);
        }
    }
}

/// Room for one number's text when sizing a body: the digits of the
/// service's counts and instants (a fractional mean takes more, and there
/// are three), so a body's estimate is a little above its size.
const NUM_BYTES: usize = 8;

/// Room for `rows`' members in a JSON object.
fn json_bytes<T>(rows: &[Row<T>]) -> usize {
    rows.iter().map(|r| r.json_key.len() + 1 + NUM_BYTES).sum()
}

/// Room for the `GET /v1/stats` body of `snap`.
fn stats_bytes(snap: &Snapshot) -> usize {
    let tenant = r#"{"tenant":},"#.len() + NUM_BYTES + json_bytes(&TENANT_ROWS);
    128 + json_bytes(&ROWS) + snap.tenants.len() * tenant
}

/// The `GET /v1/stats` body: scheduler and clock, every row, then one
/// object per tenant. Its buffer starts at the body's size.
pub(crate) fn stats_json(snap: &Snapshot) -> String {
    json::write_object_sized(stats_bytes(snap), |w| {
        w.field("scheduler", snap.scheduler).key("clock");
        match snap.clock {
            ClockMode::Virtual => w.str("virtual"),
            ClockMode::Realtime { compression } => {
                w.object(|w| {
                    w.field("mode", "realtime").field("compression", compression);
                })
            }
        };
        fields(w, &ROWS, snap);
        w.key("tenants").array(|w| {
            for t in &snap.tenants {
                w.object(|w| {
                    w.field("tenant", t.tenant);
                    fields(w, &TENANT_ROWS, t);
                });
            }
        });
    })
}

/// The value of the first sample of unlabelled series `name` in
/// exposition `text`.
pub fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Request-level counters maintained by the HTTP workers.
#[derive(Debug, Default)]
pub struct HttpCounters {
    pub(crate) requests_2xx: AtomicU64,
    pub(crate) requests_4xx: AtomicU64,
    pub(crate) requests_5xx: AtomicU64,
    pub(crate) connections: AtomicU64,
    /// `POST /v1/jobs` acceptances (2xx) — the "good" side of the submit
    /// availability SLO.
    pub(crate) submit_ok: AtomicU64,
    /// `POST /v1/jobs` refusals attributable to the service (429 rate
    /// limits and 5xx); client errors (malformed bodies, clock violations)
    /// do not burn the availability budget.
    pub(crate) submit_refused: AtomicU64,
}

impl HttpCounters {
    pub(crate) fn count_status(&self, status: u16) {
        let c = match status {
            200..=299 => &self.requests_2xx,
            400..=499 => &self.requests_4xx,
            _ => &self.requests_5xx,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Upper bounds (seconds) for the wall-clock duration histograms: 10 µs to
/// 1 s in a 1-2.5-5 ladder, `+Inf` implicit.
pub(crate) const DURATION_BOUNDS_S: [f64; 14] = [
    0.000_01, 0.000_025, 0.000_05, 0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01,
    0.025, 0.05, 0.1, 1.0,
];

/// [`DURATION_BOUNDS_S`] as `f64`'s `Display` prints them, for the `le`
/// labels: written out once instead of formatted on every render.
const DURATION_LE: [&str; 14] = [
    "0.00001", "0.000025", "0.00005", "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005",
    "0.01", "0.025", "0.05", "0.1", "1",
];

/// A fixed-bucket histogram writable from any thread (relaxed atomics):
/// `sched_metrics::Histogram`'s bucket rule over lock-free storage, which
/// `&mut self` counters cannot give the HTTP workers and the engine.
#[derive(Debug)]
pub struct AtomicHistogram {
    /// Per-bucket counts; the last entry is the `+Inf` overflow bucket.
    buckets: [AtomicU64; DURATION_BOUNDS_S.len() + 1],
    sum_nanos: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    pub fn observe(&self, secs: f64) {
        let idx = sched_metrics::histogram::le_bucket(&DURATION_BOUNDS_S, secs);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((secs.max(0.0) * 1e9) as u64, Ordering::Relaxed);
    }

    /// Per-bucket counts with the `+Inf` overflow appended (lock-free read;
    /// the SLO sampler feeds these to `sd_obs::good_within`).
    pub fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// The service's wall-clock histograms, shared between the HTTP workers
/// (request latency), the engine's pass timer and the `/metrics` renderer.
#[derive(Debug, Default)]
pub struct ServeHistograms {
    /// Wall time spent routing one HTTP request (the engine call included).
    pub(crate) request_seconds: AtomicHistogram,
    /// Wall time of one scheduler pass (`Scheduler::schedule` call).
    pub(crate) pass_seconds: AtomicHistogram,
}

/// Appends a label value escaped per the exposition format: backslash,
/// double quote and newline must be backslash-escaped inside `label="..."`.
/// Runs that need no escape are copied with one `push_str`.
fn push_label(out: &mut String, v: &str) {
    let mut plain = 0;
    for (i, b) in v.bytes().enumerate() {
        let escaped = match b {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            b'\n' => "\\n",
            _ => continue,
        };
        // Every escaped byte is ASCII, so each cut falls on a character
        // boundary.
        out.push_str(&v[plain..i]);
        out.push_str(escaped);
        plain = i + 1;
    }
    out.push_str(&v[plain..]);
}

/// One labelled sample: `prefix`, the label `value` escaped, `suffix`
/// (which closes the label set), a space and `v`.
fn labelled(out: &mut String, prefix: &str, value: &str, suffix: &str, v: f64) {
    out.push_str(prefix);
    push_label(out, value);
    line(out, &[suffix], v);
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    for part in ["# HELP ", name, " ", help, "\n# TYPE ", name, " ", kind, "\n"] {
        out.push_str(part);
    }
}

/// One sample line: the concatenated `series` (labels included), a space
/// and `v` as `f64` `Display` prints it. Counters pass `as f64`, as the
/// row table does (the same digits below 2⁵³).
fn line(out: &mut String, series: &[&str], v: f64) {
    for part in series {
        out.push_str(part);
    }
    out.push(' ');
    push_f64(out, v);
    out.push('\n');
}

fn sample(out: &mut String, name: &str, help: &str, kind: &str, v: f64) {
    header(out, name, help, kind);
    line(out, &[name], v);
}

/// One histogram exposition block: cumulative `_bucket{le=...}` samples,
/// `_sum`, `_count`. `counts` holds per-bucket counts with the `+Inf`
/// overflow bucket last; `le(out, i)` writes bucket `i`'s bound.
fn histogram(
    out: &mut String,
    name: &str,
    help: &str,
    counts: impl ExactSizeIterator<Item = u64>,
    sum: f64,
    le: impl Fn(&mut String, usize),
) {
    header(out, name, help, "histogram");
    let buckets = counts.len();
    let mut cum = 0u64;
    for (i, c) in counts.enumerate() {
        cum += c;
        out.push_str(name);
        if i + 1 < buckets {
            out.push_str("_bucket{le=\"");
            le(out, i);
            out.push_str("\"}");
        } else {
            out.push_str("_bucket{le=\"+Inf\"}");
        }
        line(out, &[], cum as f64);
    }
    line(out, &[name, "_sum"], sum);
    line(out, &[name, "_count"], cum as f64);
}

fn atomic_histogram(out: &mut String, name: &str, help: &str, h: &AtomicHistogram) {
    let counts = h.buckets.iter().map(|b| b.load(Ordering::Relaxed));
    histogram(out, name, help, counts, h.sum_secs(), |out, i| out.push_str(DURATION_LE[i]));
}

/// Room for one labelled sample of a hand-written block, label value
/// aside: series, label name, quotes, the number and the newline.
const LINE_BYTES: usize = 64;

/// Room for the exposition of `snap` with `slos`: every row's head and
/// samples, two lines per probe, four per SLO, and 5 KiB for the fixed
/// blocks (HTTP counters and the three histograms).
fn exposition_bytes(snap: &Snapshot, slos: &[sd_obs::SloStatus]) -> usize {
    let sample = |series: &str| series.len() + 2 + NUM_BYTES;
    let rows: usize = ROWS.iter().map(|r| r.head.len() + sample(r.series)).sum();
    let tenant_heads: usize = TENANT_ROWS.iter().map(|r| r.head.len()).sum();
    let tenant: usize = TENANT_ROWS.iter().map(|r| sample(r.series) + r#"{tenant=""}"#.len() + NUM_BYTES).sum();
    let probes: usize = snap.timing.iter().map(|f| 2 * (LINE_BYTES + f.name.len())).sum();
    let slo_lines: usize = slos.iter().map(|s| 4 * (LINE_BYTES + s.name.len())).sum();
    5 * 1024 + rows + tenant_heads + snap.tenants.len() * tenant + probes + slo_lines
}

/// Renders the full exposition. Deterministic order (the wall-clock
/// histogram and timing values are the only non-deterministic numbers).
/// `slos` carries the burn-rate engine's current view (empty without
/// `--slo`). The buffer starts at the text's size.
pub fn render(
    snap: &Snapshot,
    http: &HttpCounters,
    hists: &ServeHistograms,
    slos: &[sd_obs::SloStatus],
) -> String {
    let mut out = String::with_capacity(exposition_bytes(snap, slos));
    for r in &ROWS {
        if let Some(v) = (r.read)(snap) {
            out.push_str(r.head);
            line(&mut out, &[r.series], v);
        }
    }

    header(&mut out, "sd_serve_http_requests_total", "HTTP requests by status class.", "counter");
    for (class, v) in [
        ("2xx", &http.requests_2xx),
        ("4xx", &http.requests_4xx),
        ("5xx", &http.requests_5xx),
    ] {
        line(&mut out, &["sd_serve_http_requests_total{class=\"", class, "\"}"], v.load(Ordering::Relaxed) as f64);
    }
    sample(&mut out, "sd_serve_http_connections_total", "Accepted TCP connections.", "counter", http.connections.load(Ordering::Relaxed) as f64);

    header(&mut out, "sd_serve_submit_requests_total", "Submit attempts by outcome (ok = accepted, refused = 429/5xx).", "counter");
    for (result, v) in [("ok", &http.submit_ok), ("refused", &http.submit_refused)] {
        line(&mut out, &["sd_serve_submit_requests_total{result=\"", result, "\"}"], v.load(Ordering::Relaxed) as f64);
    }

    atomic_histogram(
        &mut out,
        "sd_serve_http_request_duration_seconds",
        "Wall time to serve one HTTP request.",
        &hists.request_seconds,
    );
    atomic_histogram(
        &mut out,
        "sd_serve_pass_duration_seconds",
        "Wall time of one scheduler pass.",
        &hists.pass_seconds,
    );
    let wait = &snap.wait_hist;
    debug_assert_eq!(wait.counts().len(), wait.bounds().len() + 1);
    histogram(
        &mut out,
        "sd_serve_job_wait_seconds",
        "Virtual submit-to-start wait of started jobs.",
        wait.counts().iter().copied(),
        wait.sum(),
        |out, i| push_f64(out, wait.bounds()[i]),
    );

    // The engine's per-function timing probes, folded from every worker that
    // called it (armed by `sd_serve` for its whole life), as labelled counters.
    header(&mut out, "sd_serve_timing_seconds_total", "Wall seconds attributed to instrumented hot functions.", "counter");
    for f in &snap.timing {
        labelled(&mut out, "sd_serve_timing_seconds_total{function=\"", f.name, "\"}", f.total_secs);
    }
    header(&mut out, "sd_serve_timing_calls_total", "Invocations of instrumented hot functions.", "counter");
    for f in &snap.timing {
        labelled(&mut out, "sd_serve_timing_calls_total{function=\"", f.name, "\"}", f.count as f64);
    }

    if !slos.is_empty() {
        header(&mut out, "sd_serve_slo_error_budget_remaining", "Fraction of the SLO error budget left (1 = untouched, <= 0 = exhausted).", "gauge");
        for s in slos {
            labelled(&mut out, "sd_serve_slo_error_budget_remaining{slo=\"", &s.name, "\"}", s.budget_remaining);
        }
        header(&mut out, "sd_serve_slo_burn_rate", "Error-budget burn rate by evaluation window (1 = exactly on budget).", "gauge");
        for s in slos {
            labelled(&mut out, "sd_serve_slo_burn_rate{slo=\"", &s.name, "\",window=\"fast\"}", s.burn_fast);
            labelled(&mut out, "sd_serve_slo_burn_rate{slo=\"", &s.name, "\",window=\"slow\"}", s.burn_slow);
        }
        header(&mut out, "sd_serve_slo_breached", "Whether the SLO is currently breached (budget exhausted or both windows page-level burning).", "gauge");
        for s in slos {
            labelled(&mut out, "sd_serve_slo_breached{slo=\"", &s.name, "\"}", f64::from(u8::from(s.breached)));
        }
    }

    if let Some(w) = &snap.wal {
        header(&mut out, "sd_serve_recovered", "Whether this boot recovered prior state, by recovery mode.", "gauge");
        for mode in ["clean", "torn_tail"] {
            line(&mut out, &["sd_serve_recovered{mode=\"", mode, "\"}"], f64::from(u8::from(w.recovered == Some(mode))));
        }
    }

    if !snap.tenants.is_empty() {
        for r in &TENANT_ROWS {
            out.push_str(r.head);
            for t in &snap.tenants {
                if let Some(v) = (r.read)(t) {
                    out.push_str(r.series);
                    out.push_str("{tenant=\"");
                    push_u64(&mut out, t.tenant);
                    line(&mut out, &["\"}"], v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClockMode;

    fn snap() -> Snapshot {
        Snapshot {
            scheduler: "sd-policy",
            now: 1234,
            clock: ClockMode::Virtual,
            nodes: 64,
            cores_per_node: 8,
            busy_cores: 100,
            empty_nodes: 10,
            jobs_total: 20,
            pending: 3,
            running: 5,
            completed: 12,
            events_outstanding: 5,
            stats: Default::default(),
            energy_joules: 1.5e6,
            mean_slowdown: 2.5,
            mean_response: 100.0,
            mean_wait: 10.0,
            makespan: 5000,
            submitted: 20,
            tenants: vec![],
            wait_hist: sched_metrics::Histogram::wait_seconds(),
            wal: None,
            timing: Vec::new(),
        }
    }

    #[test]
    fn exposition_has_expected_series() {
        let http = HttpCounters::default();
        http.count_status(200);
        http.count_status(204);
        http.count_status(404);
        http.count_status(500);
        let text = render(&snap(), &http, &ServeHistograms::default(), &[]);
        assert!(text.contains("sd_serve_jobs_submitted_total 20"));
        assert!(text.contains("sd_serve_sim_now_seconds 1234"));
        assert!(text.contains("sd_serve_sched_passes_skipped_total 0"));
        assert!(text.contains("sd_serve_http_requests_total{class=\"2xx\"} 2"));
        assert!(text.contains("sd_serve_http_requests_total{class=\"4xx\"} 1"));
        assert!(text.contains("sd_serve_http_requests_total{class=\"5xx\"} 1"));
        // Every HELP has a TYPE and at least one sample.
        let helps = text.matches("# HELP").count();
        let types = text.matches("# TYPE").count();
        assert_eq!(helps, types);
        assert!(helps >= 20, "{helps} series");
        let hist_types = text
            .lines()
            .filter(|l| l.starts_with("# TYPE") && l.ends_with("histogram"))
            .count();
        assert!(hist_types >= 3, "{hist_types} histogram series");
    }

    #[test]
    fn histograms_expose_cumulative_buckets() {
        let hists = ServeHistograms::default();
        hists.request_seconds.observe(0.000_02); // → le 0.000025
        hists.request_seconds.observe(0.003); // → le 0.005
        hists.request_seconds.observe(30.0); // → +Inf
        hists.pass_seconds.observe(0.000_2);
        let mut s = snap();
        s.wait_hist.observe(5.0);
        s.wait_hist.observe(50_000.0);
        let text = render(&s, &HttpCounters::default(), &hists, &[]);
        assert!(
            text.contains("sd_serve_http_request_duration_seconds_bucket{le=\"0.000025\"} 1"),
            "{text}"
        );
        assert!(text.contains("sd_serve_http_request_duration_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("sd_serve_http_request_duration_seconds_count 3"));
        assert!(text.contains("sd_serve_pass_duration_seconds_count 1"));
        assert!(text.contains("sd_serve_job_wait_seconds_count 2"));
        assert!(text.contains("sd_serve_job_wait_seconds_sum 50005"));
        // One bucket rule: on, just below and just above every bound, the
        // atomic storage and `sched_metrics::Histogram` agree.
        let atomic = AtomicHistogram::default();
        let mut plain = sched_metrics::Histogram::new(DURATION_BOUNDS_S.to_vec());
        for b in DURATION_BOUNDS_S {
            for v in [b, b * (1.0 - f64::EPSILON), b * (1.0 + f64::EPSILON)] {
                atomic.observe(v);
                plain.observe(v);
            }
        }
        assert_eq!(atomic.counts(), plain.counts());
        assert_eq!(atomic.counts()[0], 2, "a value equal to a bound is in that bound's bucket");
        for (b, le) in DURATION_BOUNDS_S.iter().zip(DURATION_LE) {
            assert_eq!(format!("{b}"), le, "the label is the bound's `Display`");
        }
        // Buckets are cumulative: every later bucket ≥ the first one.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("sd_serve_http_request_duration_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn tenant_series_are_labelled() {
        let mut s = snap();
        s.tenants = vec![
            crate::engine::TenantSnap {
                tenant: 1,
                submitted: 10,
                rate_limited: 0,
                completed: 8,
                quota_skipped: 0,
                ..Default::default()
            },
            crate::engine::TenantSnap {
                tenant: 2,
                submitted: 5,
                rate_limited: 3,
                completed: 4,
                quota_skipped: 7,
                ..Default::default()
            },
        ];
        let text = render(&s, &HttpCounters::default(), &ServeHistograms::default(), &[]);
        assert!(text.contains("sd_serve_tenant_submitted_total{tenant=\"1\"} 10"), "{text}");
        assert!(text.contains("sd_serve_tenant_rate_limited_total{tenant=\"2\"} 3"), "{text}");
        assert!(text.contains("sd_serve_tenant_quota_skipped_total{tenant=\"2\"} 7"), "{text}");
        assert!(text.contains("sd_serve_quota_skipped_total 0"), "{text}");
    }

    #[test]
    fn wal_series_render_only_when_durable() {
        let http = HttpCounters::default();
        let hists = ServeHistograms::default();
        let text = render(&snap(), &http, &hists, &[]);
        assert!(!text.contains("sd_serve_wal_records_written_total"), "{text}");
        let mut s = snap();
        s.wal = Some(crate::engine::WalStatus {
            records_written: 7,
            records_replayed: 3,
            checkpoints_written: 2,
            recovery_seconds: 0.25,
            recovered: Some("torn_tail"),
            wal_bytes: 168,
            wal_segment_age_seconds: 4.5,
        });
        let text = render(&s, &http, &hists, &[]);
        assert!(text.contains("sd_serve_wal_records_written_total 7"), "{text}");
        assert!(text.contains("sd_serve_wal_records_replayed_total 3"), "{text}");
        assert!(text.contains("sd_serve_checkpoints_written_total 2"), "{text}");
        assert!(text.contains("sd_serve_recovery_duration_seconds 0.25"), "{text}");
        assert!(text.contains("sd_serve_wal_bytes 168"), "{text}");
        assert!(text.contains("sd_serve_wal_segment_age_seconds 4.5"), "{text}");
        assert!(text.contains("sd_serve_recovered{mode=\"clean\"} 0"), "{text}");
        assert!(text.contains("sd_serve_recovered{mode=\"torn_tail\"} 1"), "{text}");
    }

    #[test]
    fn slo_gauges_render_per_objective() {
        let slo = sd_obs::SloStatus {
            name: "submit_availability".into(),
            kind: sd_obs::SloKind::Availability,
            objective: 0.999,
            threshold: 0.0,
            good: 990,
            total: 1000,
            bad_fraction: 0.01,
            budget_remaining: -9.0,
            burn_fast: 10.0,
            burn_slow: 10.0,
            fast_window: 300,
            slow_window: 3600,
            breached: true,
        };
        let text = render(&snap(), &HttpCounters::default(), &ServeHistograms::default(), &[slo]);
        assert!(
            text.contains("sd_serve_slo_error_budget_remaining{slo=\"submit_availability\"} -9"),
            "{text}"
        );
        assert!(
            text.contains("sd_serve_slo_burn_rate{slo=\"submit_availability\",window=\"fast\"} 10"),
            "{text}"
        );
        assert!(text.contains("sd_serve_slo_breached{slo=\"submit_availability\"} 1"), "{text}");
    }

    /// Both big bodies are written into the buffer they start with: it
    /// never regrows, and it is less than twice the text.
    #[test]
    fn big_bodies_start_at_their_size() {
        let mut s = snap();
        s.tenants = (0..97)
            .map(|t| crate::engine::TenantSnap { tenant: t, submitted: 40 + t, completed: 3 * t, ..Default::default() })
            .collect();
        s.timing = (0..12)
            .map(|i| slurm_sim::timing::FnTiming { name: ["sched_pass", "backfill_trial", "job_start"][i % 3], count: 1_000_000 + i as u64, total_secs: 1.0 / (i + 3) as f64 })
            .collect();
        let slos = [sd_obs::SloStatus {
            name: "submit_latency".into(),
            kind: sd_obs::SloKind::Availability,
            objective: 0.999,
            threshold: 0.0,
            good: 0,
            total: 0,
            bad_fraction: 0.0,
            budget_remaining: 0.123_456_789,
            burn_fast: 12.345_678_9,
            burn_slow: 0.000_123_456,
            fast_window: 300,
            slow_window: 3600,
            breached: false,
        }];
        let text = render(&s, &HttpCounters::default(), &ServeHistograms::default(), &slos);
        assert_eq!(text.capacity(), exposition_bytes(&s, &slos));
        let body = stats_json(&s);
        assert_eq!(body.capacity(), stats_bytes(&s));
        for (what, len, capacity) in [("/metrics", text.len(), text.capacity()), ("/v1/stats", body.len(), body.capacity())] {
            assert!(len <= capacity && capacity < 2 * len, "{what}: {len} bytes in {capacity}");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let label = |v: &str| {
            let mut out = String::from("x");
            push_label(&mut out, v);
            out
        };
        assert_eq!(label("plain"), "xplain");
        assert_eq!(label("a\"b\\c\nd"), "xa\\\"b\\\\c\\nd");
        assert_eq!(label("é\n\"ü"), "xé\\n\\\"ü");
    }

    #[test]
    fn deterministic_output() {
        let http = HttpCounters::default();
        let hists = ServeHistograms::default();
        assert_eq!(
            render(&snap(), &http, &hists, &[]),
            render(&snap(), &http, &hists, &[])
        );
    }
}
