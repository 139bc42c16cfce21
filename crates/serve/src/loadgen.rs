//! The load generator: replays a workload trace as live traffic against a
//! running `sd-serve` and reports achieved throughput, per-request latency
//! percentiles and end-state metric deltas.
//!
//! In virtual-clock mode the trace's own submit timestamps ride along with
//! each request and a final `/v1/drain` runs the simulation — so the service
//! under load produces the *same* schedule the offline simulator would,
//! while the wire, framing and scheduler-thread handoff are all exercised at
//! full speed. `--rate` throttles the wall-clock request rate instead of
//! going flat out.

use crate::client::{Client, ClientError};
use crate::json::Json;
use crate::metrics::{COMPLETED, ENERGY_JOULES, PASSES_SKIPPED, SCHED_PASSES, STARTED_MALLEABLE};
use crate::proto::SubmitRequest;
use sched_metrics::{Histogram, Percentiles};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What to replay and how fast.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Target submissions per wall-second (None = as fast as possible).
    pub rate: Option<f64>,
    /// Carry trace submit times (virtual mode). Off = submit "now"
    /// (realtime servers).
    pub virtual_timestamps: bool,
    /// Drain the virtual clock after the last submission.
    pub drain: bool,
    /// Shut the server down at the end and collect its final result.
    pub shutdown: bool,
    /// Submit under `N` round-robin tenant identities (job *i* goes to
    /// tenant `1 + i mod N`). `None` = carry each record's own SWF
    /// user/group, so a replay reproduces the offline tenant mix exactly.
    pub tenants: Option<u32>,
    /// Transport-failure retries per request (capped exponential backoff
    /// with jitter, see [`Client::with_retries`]). 0 = fail fast.
    pub max_retries: u32,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            rate: None,
            virtual_timestamps: true,
            drain: true,
            shutdown: false,
            tenants: None,
            max_retries: 0,
        }
    }
}

/// Per-tenant slice of a loadgen run.
#[derive(Debug)]
pub(crate) struct TenantLoad {
    pub tenant: u64,
    pub submitted: u64,
    /// Submissions refused with 429 (per-tenant rate limit).
    pub rate_limited: u64,
    /// Achieved submissions per wall-second for this tenant alone.
    pub achieved_rate: f64,
    pub latency_ms: Option<Percentiles>,
}

/// Everything one loadgen run measured.
#[derive(Debug)]
pub struct LoadgenReport {
    pub submitted: u64,
    pub rejected: u64,
    /// Submissions refused with 429 (per-tenant rate limit), also counted
    /// in `rejected`.
    pub rate_limited: u64,
    /// Transport retries the client performed (reconnect + backoff).
    pub retries: u64,
    /// Per-tenant breakdown, ascending by tenant id (one entry even for
    /// untenanted runs, where everything lands on tenant 0).
    pub(crate) per_tenant: Vec<TenantLoad>,
    /// Wall seconds spent in the submission phase.
    pub(crate) submit_wall_s: f64,
    /// Achieved submissions per wall-second.
    pub achieved_rate: f64,
    /// Per-request latency percentiles, milliseconds — interpolated from
    /// [`latency_hist`](Self::latency_hist) buckets, not a sorted vector.
    pub latency_ms: Option<Percentiles>,
    /// The full submit→first-state-change latency histogram (milliseconds)
    /// behind those percentiles; `--latency-out` writes its CSV.
    pub latency_hist: Histogram,
    /// Wall seconds the final drain took (0 when not draining).
    pub(crate) drain_wall_s: f64,
    /// `/v1/stats` before the run and after the drain.
    pub(crate) stats_before: Json,
    pub(crate) stats_after: Json,
    /// Prometheus exposition captured after the drain (before shutdown).
    pub metrics_text: String,
    /// The server's final result (only with `shutdown`).
    pub final_result: Option<slurm_sim::SimResult>,
}

impl LoadgenReport {
    fn stat(v: &Json, key: &str) -> f64 {
        v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// End-state delta of one `/v1/stats` numeric field (after − before).
    pub fn delta(&self, key: &str) -> f64 {
        Self::stat(&self.stats_after, key) - Self::stat(&self.stats_before, key)
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "submitted        {}", self.submitted);
        let _ = writeln!(out, "rejected         {}", self.rejected);
        if self.rate_limited > 0 {
            let _ = writeln!(out, "rate limited     {}", self.rate_limited);
        }
        if self.retries > 0 {
            let _ = writeln!(out, "transport retries {}", self.retries);
        }
        let _ = writeln!(out, "submit wall      {:.3} s", self.submit_wall_s);
        let _ = writeln!(out, "achieved rate    {:.0} submits/s", self.achieved_rate);
        if let Some(p) = &self.latency_ms {
            let _ = writeln!(
                out,
                "latency (ms)     p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
                p.p50, p.p90, p.p99, p.max
            );
        }
        if self.per_tenant.len() > 1 {
            for t in &self.per_tenant {
                let lat = t
                    .latency_ms
                    .as_ref()
                    .map(|p| format!("p50 {:.3}  p99 {:.3}", p.p50, p.p99))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "tenant {:<4} ok {:<6} limited {:<4} {:.0}/s  {}",
                    t.tenant, t.submitted, t.rate_limited, t.achieved_rate, lat
                );
            }
        }
        if self.drain_wall_s > 0.0 {
            let _ = writeln!(out, "drain wall       {:.3} s", self.drain_wall_s);
        }
        let _ = writeln!(out, "Δ completed      {:+.0}", self.delta(COMPLETED.key));
        let _ = writeln!(out, "Δ malleable      {:+.0}", self.delta(STARTED_MALLEABLE.key));
        let _ = writeln!(out, "Δ sched passes   {:+.0}", self.delta(SCHED_PASSES.key));
        let _ = writeln!(out, "Δ passes skipped {:+.0}", self.delta(PASSES_SKIPPED.key));
        let _ = writeln!(out, "Δ energy (J)     {:+.3e}", self.delta(ENERGY_JOULES.key));
        if let Some(r) = &self.final_result {
            let _ = writeln!(
                out,
                "final            jobs {}  makespan {}  mean slowdown {:.2}",
                r.outcomes.len(),
                r.makespan,
                r.mean_slowdown()
            );
        }
        out
    }
}

/// Replays `jobs` (SWF records; `submit`/`run_time`/`procs`/`req_time` are
/// used) against the service at `addr`.
pub fn run(
    addr: SocketAddr,
    jobs: &[swf::SwfJob],
    opts: &LoadgenOptions,
) -> Result<LoadgenReport, ClientError> {
    let mut client = Client::new(addr).with_retries(opts.max_retries);
    client.health()?;
    let stats_before = client.stats()?;

    struct TenantAcc {
        submitted: u64,
        rate_limited: u64,
        latency: Histogram,
    }
    impl Default for TenantAcc {
        fn default() -> Self {
            TenantAcc {
                submitted: 0,
                rate_limited: 0,
                latency: Histogram::latency_ms(),
            }
        }
    }
    let mut latency = Histogram::latency_ms();
    let mut by_tenant: std::collections::BTreeMap<u64, TenantAcc> = Default::default();
    let mut submitted = 0u64;
    let mut rejected = 0u64;
    let mut rate_limited = 0u64;
    let pacing = opts.rate.map(|r| Duration::from_secs_f64(1.0 / r.max(1e-9)));
    let t0 = Instant::now();
    for (i, j) in jobs.iter().enumerate() {
        if let Some(gap) = pacing {
            let due = t0 + gap.mul_f64(i as f64);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let (tenant, project) = match opts.tenants {
            Some(n) => (1 + (i as u64) % u64::from(n.max(1)), 0),
            None => (j.user.max(0) as u64, j.group.max(0) as u64),
        };
        let req = SubmitRequest {
            procs: j.procs().unwrap_or(1),
            req_time: j.requested_time().unwrap_or(0),
            run_time: j.runtime().unwrap_or(0),
            submit: if opts.virtual_timestamps {
                Some(j.submit.max(0) as u64)
            } else {
                None
            },
            malleable: None,
            // The record's own id seeds the malleability draw, so a
            // fraction < 1 server draws the same population an offline
            // build of this trace would.
            trace_id: Some(j.job_id),
            tenant: Some(tenant),
            project: Some(project),
        };
        let r0 = Instant::now();
        let acc = by_tenant.entry(tenant).or_default();
        match client.submit(&req) {
            Ok(_) => {
                submitted += 1;
                acc.submitted += 1;
            }
            Err(ClientError::Status(429, _)) => {
                rejected += 1;
                rate_limited += 1;
                acc.rate_limited += 1;
            }
            Err(ClientError::Status(_, _)) => rejected += 1,
            Err(e) => return Err(e),
        }
        let ms = r0.elapsed().as_secs_f64() * 1e3;
        latency.observe(ms);
        acc.latency.observe(ms);
    }
    let submit_wall_s = t0.elapsed().as_secs_f64();
    let per_tenant = by_tenant
        .into_iter()
        .map(|(tenant, a)| TenantLoad {
            tenant,
            submitted: a.submitted,
            rate_limited: a.rate_limited,
            achieved_rate: if submit_wall_s > 0.0 {
                a.submitted as f64 / submit_wall_s
            } else {
                0.0
            },
            latency_ms: a.latency.percentiles(),
        })
        .collect();

    let mut drain_wall_s = 0.0;
    if opts.drain {
        let d0 = Instant::now();
        client.drain()?;
        drain_wall_s = d0.elapsed().as_secs_f64();
    }
    let stats_after = client.stats()?;
    let metrics_text = client.metrics()?;
    let final_result = if opts.shutdown {
        Some(client.shutdown()?)
    } else {
        None
    };

    Ok(LoadgenReport {
        submitted,
        rejected,
        rate_limited,
        retries: client.retries(),
        per_tenant,
        submit_wall_s,
        achieved_rate: if submit_wall_s > 0.0 {
            submitted as f64 / submit_wall_s
        } else {
            0.0
        },
        latency_ms: latency.percentiles(),
        latency_hist: latency,
        drain_wall_s,
        stats_before,
        stats_after,
        metrics_text,
        final_result,
    })
}
