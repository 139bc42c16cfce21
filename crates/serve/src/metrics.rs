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
use crate::json::{self, push_f64, push_u64, JsonWriter};
use std::fmt::Write as _;
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
}

impl<T> Row<T> {
    const fn counter(key: &'static str, series: &'static str, help: &'static str, read: fn(&T) -> Option<f64>) -> Row<T> {
        Row { key, series, kind: "counter", help, read }
    }

    const fn gauge(key: &'static str, series: &'static str, help: &'static str, read: fn(&T) -> Option<f64>) -> Row<T> {
        Row { key, series, kind: "gauge", help, read }
    }
}

pub const NOW: Row<Snapshot> = Row::gauge("now", "sd_serve_sim_now_seconds", "Virtual clock position.", |s| Some(s.now as f64));
pub const SUBMITTED: Row<Snapshot> = Row::counter("submitted", "sd_serve_jobs_submitted_total", "Jobs accepted over the API.", |s| Some(s.submitted as f64));
pub(crate) const JOBS_TOTAL: Row<Snapshot> = Row::gauge("jobs_total", "sd_serve_jobs_total", "Jobs known to the simulator.", |s| Some(s.jobs_total as f64));
pub const PENDING: Row<Snapshot> = Row::gauge("pending", "sd_serve_jobs_pending", "Jobs waiting in the queue.", |s| Some(s.pending as f64));
pub const RUNNING: Row<Snapshot> = Row::gauge("running", "sd_serve_jobs_running", "Jobs currently executing.", |s| Some(s.running as f64));
pub const COMPLETED: Row<Snapshot> = Row::counter("completed", "sd_serve_jobs_completed_total", "Jobs that finished.", |s| Some(s.completed as f64));
const CANCELLED: Row<Snapshot> = Row::counter("cancelled", "sd_serve_jobs_cancelled_total", "Jobs withdrawn.", |s| Some(s.stats.cancelled as f64));
const QUOTA_SKIPPED: Row<Snapshot> = Row::counter("quota_skipped", "sd_serve_quota_skipped_total", "Backfill trials skipped by tenant quotas.", |s| Some(s.stats.quota_skipped as f64));
const STARTED_STATIC: Row<Snapshot> = Row::counter("started_static", "sd_serve_started_static_total", "Exclusive whole-node starts.", |s| Some(s.stats.started_static as f64));
pub(crate) const STARTED_MALLEABLE: Row<Snapshot> = Row::counter("started_malleable", "sd_serve_started_malleable_total", "Malleable co-scheduled starts.", |s| Some(s.stats.started_malleable as f64));
const UNIQUE_MATES: Row<Snapshot> = Row::counter("unique_mates", "sd_serve_unique_mates_total", "Distinct jobs shrunk as mates.", |s| Some(s.stats.unique_mates as f64));
const SHRINK_EVENTS: Row<Snapshot> = Row::counter("shrink_events", "sd_serve_shrink_events_total", "Mate shrink operations.", |s| Some(s.stats.shrink_events as f64));
const EXPAND_EVENTS: Row<Snapshot> = Row::counter("expand_events", "sd_serve_expand_events_total", "Expand-back operations.", |s| Some(s.stats.expand_events as f64));
const RELOCATIONS: Row<Snapshot> = Row::counter("relocations", "sd_serve_relocations_total", "Shrunk borrowers moved to idle nodes.", |s| Some(s.stats.relocations as f64));
pub const SCHED_PASSES: Row<Snapshot> = Row::counter("sched_passes", "sd_serve_sched_passes_total", "Scheduling passes executed.", |s| Some(s.stats.sched_passes as f64));
pub const PASSES_SKIPPED: Row<Snapshot> = Row::counter("passes_skipped", "sd_serve_sched_passes_skipped_total", "Passes skipped by no-op gating.", |s| Some(s.stats.passes_skipped as f64));
const EVENTS_DISPATCHED: Row<Snapshot> = Row::counter("events_dispatched", "sd_serve_events_dispatched_total", "Simulation events dispatched.", |s| Some(s.stats.events_dispatched as f64));
const EVENTS_OUTSTANDING: Row<Snapshot> = Row::gauge("events_outstanding", "sd_serve_events_outstanding", "Events still scheduled.", |s| Some(s.events_outstanding as f64));
const PEAK_PROFILE_LEN: Row<Snapshot> = Row::gauge("peak_profile_len", "sd_serve_peak_profile_len", "Largest availability-profile length seen.", |s| Some(s.stats.peak_profile_len as f64));
pub const BUSY_CORES: Row<Snapshot> = Row::gauge("busy_cores", "sd_serve_busy_cores", "Cores currently allocated.", |s| Some(s.busy_cores as f64));
pub const EMPTY_NODES: Row<Snapshot> = Row::gauge("empty_nodes", "sd_serve_empty_nodes", "Completely idle nodes.", |s| Some(f64::from(s.empty_nodes)));
pub const NODES: Row<Snapshot> = Row::gauge("nodes", "sd_serve_cluster_nodes", "Machine size in nodes.", |s| Some(f64::from(s.nodes)));
pub const CORES_PER_NODE: Row<Snapshot> = Row::gauge("cores_per_node", "sd_serve_cores_per_node", "Cores per node.", |s| Some(f64::from(s.cores_per_node)));
pub(crate) const ENERGY_JOULES: Row<Snapshot> = Row::counter("energy_joules", "sd_serve_energy_joules_total", "Energy integral over the makespan window.", |s| Some(s.energy_joules));
const MEAN_SLOWDOWN: Row<Snapshot> = Row::gauge("mean_slowdown", "sd_serve_mean_slowdown", "Mean slowdown of completed jobs.", |s| Some(s.mean_slowdown));
const MEAN_RESPONSE: Row<Snapshot> = Row::gauge("mean_response", "sd_serve_mean_response_seconds", "Mean response time of completed jobs.", |s| Some(s.mean_response));
const MEAN_WAIT: Row<Snapshot> = Row::gauge("mean_wait", "sd_serve_mean_wait_seconds", "Mean submit-to-start wait of completed jobs.", |s| Some(s.mean_wait));
const MAKESPAN: Row<Snapshot> = Row::gauge("makespan", "sd_serve_makespan_seconds", "First submit to last end, so far.", |s| Some(s.makespan as f64));
const WAL_RECORDS_WRITTEN: Row<Snapshot> = Row::counter("wal_records_written", "sd_serve_wal_records_written_total", "Commands appended to the write-ahead log since boot.", |s| s.wal.as_ref().map(|w| w.records_written as f64));
const WAL_RECORDS_REPLAYED: Row<Snapshot> = Row::counter("wal_records_replayed", "sd_serve_wal_records_replayed_total", "WAL records replayed during boot recovery.", |s| s.wal.as_ref().map(|w| w.records_replayed as f64));
pub const CHECKPOINTS_WRITTEN: Row<Snapshot> = Row::counter("checkpoints_written", "sd_serve_checkpoints_written_total", "Checkpoints installed since boot.", |s| s.wal.as_ref().map(|w| w.checkpoints_written as f64));
const RECOVERY_SECONDS: Row<Snapshot> = Row::gauge("recovery_seconds", "sd_serve_recovery_duration_seconds", "Wall time of boot recovery (restore + replay).", |s| s.wal.as_ref().map(|w| w.recovery_seconds));
pub const WAL_BYTES: Row<Snapshot> = Row::gauge("wal_bytes", "sd_serve_wal_bytes", "Current on-disk size of the write-ahead log.", |s| s.wal.as_ref().map(|w| w.wal_bytes as f64));
pub const WAL_SEGMENT_AGE: Row<Snapshot> = Row::gauge("wal_segment_age_seconds", "sd_serve_wal_segment_age_seconds", "Age of the oldest un-checkpointed WAL record.", |s| s.wal.as_ref().map(|w| w.wal_segment_age_seconds));

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

pub const TENANT_SUBMITTED: Row<TenantSnap> = Row::counter("submitted", "sd_serve_tenant_submitted_total", "Jobs accepted per tenant.", |t| Some(t.submitted as f64));
pub const TENANT_RATE_LIMITED: Row<TenantSnap> = Row::counter("rate_limited", "sd_serve_tenant_rate_limited_total", "Submissions refused by the per-tenant rate limit.", |t| Some(t.rate_limited as f64));
const TENANT_STARTED: Row<TenantSnap> = Row::counter("started", "sd_serve_tenant_started_total", "Jobs started per tenant.", |t| Some(t.started as f64));
pub const TENANT_COMPLETED: Row<TenantSnap> = Row::counter("completed", "sd_serve_tenant_completed_total", "Jobs completed per tenant.", |t| Some(t.completed as f64));
const TENANT_QUOTA_SKIPPED: Row<TenantSnap> = Row::counter("quota_skipped", "sd_serve_tenant_quota_skipped_total", "Backfill trials skipped by this tenant's quota.", |t| Some(t.quota_skipped as f64));
pub const TENANT_RUNNING_WIDTH: Row<TenantSnap> = Row::gauge("running_width", "sd_serve_tenant_running_width", "Requested nodes currently running per tenant.", |t| Some(t.running_width as f64));

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
            w.field(r.key, x);
        }
    }
}

/// The `GET /v1/stats` body: scheduler and clock, every row, then one
/// object per tenant.
pub(crate) fn stats_json(snap: &Snapshot) -> String {
    json::write_object(|w| {
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
    /// Wall time spent routing one HTTP request (engine round-trip included).
    pub(crate) request_seconds: AtomicHistogram,
    /// Wall time of one scheduler pass (`Scheduler::schedule` call).
    pub(crate) pass_seconds: AtomicHistogram,
}

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline must be backslash-escaped inside `label="..."`.
pub(crate) fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
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
/// overflow bucket appended after `bounds`.
fn histogram(out: &mut String, name: &str, help: &str, bounds: &[f64], counts: &[u64], sum: f64) {
    debug_assert_eq!(counts.len(), bounds.len() + 1);
    header(out, name, help, "histogram");
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        out.push_str(name);
        match bounds.get(i) {
            Some(b) => {
                let _ = write!(out, "_bucket{{le=\"{b}\"}}");
            }
            None => out.push_str("_bucket{le=\"+Inf\"}"),
        }
        line(out, &[], cum as f64);
    }
    line(out, &[name, "_sum"], sum);
    line(out, &[name, "_count"], cum as f64);
}

fn atomic_histogram(out: &mut String, name: &str, help: &str, h: &AtomicHistogram) {
    histogram(out, name, help, &DURATION_BOUNDS_S, &h.counts(), h.sum_secs());
}

/// Renders the full exposition. Deterministic order (the wall-clock
/// histogram and timing values are the only non-deterministic numbers).
/// `slos` carries the burn-rate engine's current view (empty without
/// `--slo`).
pub fn render(
    snap: &Snapshot,
    http: &HttpCounters,
    hists: &ServeHistograms,
    slos: &[sd_obs::SloStatus],
) -> String {
    let mut out = String::with_capacity(4096 + 1024 * snap.tenants.len());
    for r in &ROWS {
        if let Some(v) = (r.read)(snap) {
            sample(&mut out, r.series, r.help, r.kind, v);
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
    histogram(
        &mut out,
        "sd_serve_job_wait_seconds",
        "Virtual submit-to-start wait of started jobs.",
        snap.wait_hist.bounds(),
        snap.wait_hist.counts(),
        snap.wait_hist.sum(),
    );

    // The engine thread's per-function timing probes (armed by `sd_serve`
    // for its whole life) as labelled counters.
    header(&mut out, "sd_serve_timing_seconds_total", "Wall seconds attributed to instrumented hot functions.", "counter");
    for f in &snap.timing {
        line(&mut out, &["sd_serve_timing_seconds_total{function=\"", &escape_label(f.name), "\"}"], f.total_secs);
    }
    header(&mut out, "sd_serve_timing_calls_total", "Invocations of instrumented hot functions.", "counter");
    for f in &snap.timing {
        line(&mut out, &["sd_serve_timing_calls_total{function=\"", &escape_label(f.name), "\"}"], f.count as f64);
    }

    if !slos.is_empty() {
        header(&mut out, "sd_serve_slo_error_budget_remaining", "Fraction of the SLO error budget left (1 = untouched, <= 0 = exhausted).", "gauge");
        for s in slos {
            line(&mut out, &["sd_serve_slo_error_budget_remaining{slo=\"", &escape_label(&s.name), "\"}"], s.budget_remaining);
        }
        header(&mut out, "sd_serve_slo_burn_rate", "Error-budget burn rate by evaluation window (1 = exactly on budget).", "gauge");
        for s in slos {
            let slo = escape_label(&s.name);
            line(&mut out, &["sd_serve_slo_burn_rate{slo=\"", &slo, "\",window=\"fast\"}"], s.burn_fast);
            line(&mut out, &["sd_serve_slo_burn_rate{slo=\"", &slo, "\",window=\"slow\"}"], s.burn_slow);
        }
        header(&mut out, "sd_serve_slo_breached", "Whether the SLO is currently breached (budget exhausted or both windows page-level burning).", "gauge");
        for s in slos {
            line(&mut out, &["sd_serve_slo_breached{slo=\"", &escape_label(&s.name), "\"}"], f64::from(u8::from(s.breached)));
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
            header(&mut out, r.series, r.help, r.kind);
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

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
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
