//! The wire protocol: typed request/response bodies and their JSON
//! encodings. Everything round-trips (`decode(encode(x)) == x`), including
//! a full [`SimResult`] — floats survive bit-for-bit via the shortest-
//! roundtrip rendering in [`crate::json`].

use crate::json::{Json, JsonError};
use cluster::JobId;
use simkit::SimTime;
use slurm_sim::{JobOutcome, SimResult, SimStats};
use workload::AppId;

/// A job submission, as posted to `POST /v1/jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Processors requested (rounded up to whole nodes by the simulator).
    pub procs: u64,
    /// Requested wall limit (seconds).
    pub req_time: u64,
    /// True runtime on a static allocation (seconds) — the simulated
    /// "payload" of the job.
    pub run_time: u64,
    /// Virtual submit instant; `None` = "now" (required to be ≥ the clock).
    pub submit: Option<u64>,
    /// Force rigid (`false`) or malleable (`true`); `None` = the server's
    /// configured malleable-fraction draw.
    pub malleable: Option<bool>,
    /// Trace identity of the record, used as the seed of the per-job
    /// malleability draw (matching what an offline build of the same trace
    /// would draw). `None` = the dense id the server assigns. Irrelevant
    /// when `malleable` is explicit or the configured fraction is 1.
    pub trace_id: Option<u64>,
    /// Submitting tenant id (maps to the SWF `user` field); `None` = 0,
    /// the untenanted default.
    pub tenant: Option<u64>,
    /// Project/accounting group under the tenant (SWF `group`); `None` = 0.
    pub project: Option<u64>,
}

impl SubmitRequest {
    pub fn encode(&self) -> Json {
        Json::obj()
            .set("procs", self.procs)
            .set("req_time", self.req_time)
            .set("run_time", self.run_time)
            .set("submit", self.submit)
            .set("malleable", self.malleable)
            .set("trace_id", self.trace_id)
            .set("tenant", self.tenant)
            .set("project", self.project)
    }

    pub fn decode(v: &Json) -> Result<SubmitRequest, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing field `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` must be a non-negative integer"))
        };
        let opt_num = |k: &str| match v.get(k) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{k}` must be a non-negative integer")),
        };
        let opt_bool = |k: &str| match v.get(k) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_bool()
                .map(Some)
                .ok_or_else(|| format!("`{k}` must be a boolean")),
        };
        let r = SubmitRequest {
            procs: num("procs")?,
            req_time: num("req_time")?,
            run_time: num("run_time")?,
            submit: opt_num("submit")?,
            malleable: opt_bool("malleable")?,
            trace_id: opt_num("trace_id")?,
            tenant: opt_num("tenant")?,
            project: opt_num("project")?,
        };
        if r.procs == 0 {
            return Err("`procs` must be at least 1".into());
        }
        if r.run_time == 0 {
            return Err("`run_time` must be at least 1".into());
        }
        Ok(r)
    }

    /// The SWF record this submission denotes, under a given id and with the
    /// effective submit instant filled in.
    pub(crate) fn to_swf(&self, id: u64, submit: u64) -> swf::SwfJob {
        let mut j = swf::SwfJob::for_simulation(
            id,
            submit,
            self.run_time,
            self.procs,
            self.req_time.max(self.run_time),
        );
        j.user = self.tenant.unwrap_or(0) as i64;
        j.group = self.project.unwrap_or(0) as i64;
        j
    }
}

// ---------------------------------------------------------------------
// SimResult over the wire
// ---------------------------------------------------------------------

fn encode_outcome(o: &JobOutcome) -> Json {
    Json::obj()
        .set("id", o.id.0)
        .set("submit", o.submit.secs())
        .set("start", o.start.secs())
        .set("end", o.end.secs())
        .set("nodes", o.nodes)
        .set("procs", o.procs)
        .set("req_time", o.req_time)
        .set("static_runtime", o.static_runtime)
        .set("malleable_backfilled", o.malleable_backfilled)
        .set("was_mate", o.was_mate)
        // An application crosses the wire as its index in `workload::APPS`.
        .set("app", o.app.map(|a| a.index() as u64))
        .set("tenant", u64::from(o.tenant))
}

fn decode_outcome(v: &Json) -> Result<JobOutcome, String> {
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("outcome field `{k}` missing or not an integer"))
    };
    let boolean = |k: &str| {
        v.get(k)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("outcome field `{k}` missing or not a boolean"))
    };
    Ok(JobOutcome {
        id: JobId(num("id")?),
        submit: SimTime(num("submit")?),
        start: SimTime(num("start")?),
        end: SimTime(num("end")?),
        nodes: num("nodes")? as u32,
        procs: num("procs")?,
        req_time: num("req_time")?,
        static_runtime: num("static_runtime")?,
        malleable_backfilled: boolean("malleable_backfilled")?,
        was_mate: boolean("was_mate")?,
        tenant: num("tenant")? as u32,
        app: match v.get("app") {
            None | Some(Json::Null) => None,
            Some(x) => {
                let i = x.as_u64().ok_or("outcome field `app` not an integer")?;
                let app = usize::try_from(i).ok().and_then(AppId::from_index);
                Some(app.ok_or_else(|| format!("unknown app index {i}"))?)
            }
        },
    })
}

fn encode_stats(s: &SimStats) -> Json {
    Json::obj()
        .set("started_static", s.started_static)
        .set("started_malleable", s.started_malleable)
        .set("unique_mates", s.unique_mates)
        .set("shrink_events", s.shrink_events)
        .set("expand_events", s.expand_events)
        .set("relocations", s.relocations)
        .set("sched_passes", s.sched_passes)
        .set("passes_skipped", s.passes_skipped)
        .set("cancelled", s.cancelled)
        .set("quota_skipped", s.quota_skipped)
        .set("events_dispatched", s.events_dispatched)
        .set("peak_profile_len", s.peak_profile_len)
}

fn decode_stats(v: &Json) -> Result<SimStats, String> {
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats field `{k}` missing or not an integer"))
    };
    Ok(SimStats {
        started_static: num("started_static")?,
        started_malleable: num("started_malleable")?,
        unique_mates: num("unique_mates")?,
        shrink_events: num("shrink_events")?,
        expand_events: num("expand_events")?,
        relocations: num("relocations")?,
        sched_passes: num("sched_passes")?,
        passes_skipped: num("passes_skipped")?,
        cancelled: num("cancelled")?,
        quota_skipped: num("quota_skipped")?,
        events_dispatched: num("events_dispatched")?,
        peak_profile_len: num("peak_profile_len")? as usize,
    })
}

/// Scheduler labels cross the wire as strings; map the known ones back to
/// their `&'static str` identities so a decoded result compares equal.
fn scheduler_label(name: &str) -> &'static str {
    match name {
        "sd-policy" => "sd-policy",
        "static-backfill" => "static-backfill",
        "scheduler" => "scheduler",
        _ => "remote",
    }
}

/// Full result encoding (`GET /v1/result`, the shutdown response).
pub fn encode_result(r: &SimResult) -> Json {
    Json::obj()
        .set("scheduler", r.scheduler)
        .set("first_submit", r.first_submit.secs())
        .set("last_end", r.last_end.secs())
        .set("makespan", r.makespan)
        // Exact bits: shortest-roundtrip Display → parse restores the f64.
        .set("energy_joules", r.energy_joules)
        .set("leftover_pending", r.leftover_pending)
        .set("leftover_running", r.leftover_running)
        .set("stats", encode_stats(&r.stats))
        .set(
            "outcomes",
            r.outcomes.iter().map(encode_outcome).collect::<Vec<_>>(),
        )
}

pub fn decode_result(v: &Json) -> Result<SimResult, String> {
    let num = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("result field `{k}` missing or not an integer"))
    };
    let outcomes = v
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or("result field `outcomes` missing")?
        .iter()
        .map(decode_outcome)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SimResult {
        scheduler: scheduler_label(
            v.get("scheduler")
                .and_then(Json::as_str)
                .ok_or("result field `scheduler` missing")?,
        ),
        first_submit: SimTime(num("first_submit")?),
        last_end: SimTime(num("last_end")?),
        makespan: num("makespan")?,
        energy_joules: v
            .get("energy_joules")
            .and_then(Json::as_f64)
            .ok_or("result field `energy_joules` missing")?,
        leftover_pending: num("leftover_pending")? as usize,
        leftover_running: num("leftover_running")? as usize,
        stats: decode_stats(v.get("stats").ok_or("result field `stats` missing")?)?,
        outcomes,
    })
}

/// Parses a JSON request body into a value, with a protocol-level error
/// string on failure.
pub(crate) fn body_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e: JsonError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrip() {
        let r = SubmitRequest {
            procs: 16,
            req_time: 3600,
            run_time: 1800,
            submit: Some(42),
            malleable: Some(false),
            trace_id: Some(9001),
            tenant: Some(7),
            project: Some(2),
        };
        assert_eq!(SubmitRequest::decode(&r.encode()).unwrap(), r);
        let r2 = SubmitRequest {
            submit: None,
            malleable: None,
            trace_id: None,
            tenant: None,
            project: None,
            ..r
        };
        assert_eq!(SubmitRequest::decode(&r2.encode()).unwrap(), r2);
    }

    #[test]
    fn submit_validation() {
        let bad = Json::obj().set("procs", 0u64).set("req_time", 10u64).set("run_time", 5u64);
        assert!(SubmitRequest::decode(&bad).is_err());
        let missing = Json::obj().set("procs", 4u64);
        assert!(SubmitRequest::decode(&missing).unwrap_err().contains("req_time"));
        let wrong_type = Json::obj()
            .set("procs", "four")
            .set("req_time", 10u64)
            .set("run_time", 5u64);
        assert!(SubmitRequest::decode(&wrong_type).is_err());
    }

    #[test]
    fn result_roundtrips_bit_for_bit() {
        let r = SimResult {
            scheduler: "sd-policy",
            outcomes: vec![JobOutcome {
                id: JobId(3),
                submit: SimTime(10),
                start: SimTime(20),
                end: SimTime(500),
                nodes: 2,
                procs: 16,
                req_time: 600,
                static_runtime: 480,
                malleable_backfilled: true,
                was_mate: false,
                app: Some(workload::AppId::CoreNeuron),
                tenant: 7,
            }],
            stats: SimStats {
                started_static: 5,
                started_malleable: 1,
                sched_passes: 9,
                passes_skipped: 4,
                peak_profile_len: 17,
                ..Default::default()
            },
            first_submit: SimTime(10),
            last_end: SimTime(500),
            makespan: 490,
            energy_joules: 0.1 + 0.2, // deliberately non-representable
            leftover_pending: 0,
            leftover_running: 0,
        };
        let text = encode_result(&r).render();
        let back = decode_result(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
