//! The scheduler's state machine: single writer over the simulation.
//!
//! [`Engine`]'s public methods are the service's whole API. The server's
//! workers call them under one lock, one caller at a time, each call ending
//! in `Engine::settle` (DESIGN.md §10); [`Command`] is their channel form,
//! answered by [`Engine::run`]. Each mutating method is the whole live body:
//! rate gate (submit only), WAL append, effect, periodic checkpoint. A failed
//! append refuses the command ([`EngineError::Storage`]) before its effect.
//! [`Engine::recover`] replays the WAL through the same methods, so a
//! recovered engine is the engine that never crashed (DESIGN.md §14).
//!
//! The engine has one clock, virtual: it moves only on `advance` and
//! `drain` ([`Controller::step_until`], the same loop `Controller::run`
//! uses offline), so the methods are a pure function of their command
//! sequence. [`ClockMode`] says who sends the advances:
//!
//! * **Virtual** (deterministic): a client (`/v1/clock/advance`,
//!   `/v1/drain`). Submissions carry explicit virtual timestamps; a
//!   scripted session therefore feeds the simulator the exact event
//!   sequence an offline replay would build up front, and produces a
//!   bit-identical [`SimResult`] (pinned by `tests/serve_equivalence.rs`).
//! * **Realtime**: the server's ticker, to the wall clock scaled by a
//!   compression factor (sim-seconds per wall-second); submissions default
//!   to the last tick. Ticks are logged lazily, ahead of the next logged
//!   mutation, so idle ticks cost no disk.

use crate::durable::{EngineCheckpoint, WalCmd};
use crate::metrics::ServeHistograms;
use crate::proto::SubmitRequest;
use sd_durable::{DurableStore, FsyncPolicy};
use simkit::{Mean, SimTime};
use slurm_sim::timing::{self, FnTiming};
use slurm_sim::{
    Controller, DirtyFlags, JobState, Scheduler, SimResult, SimState, SubmitError, TraceRing,
};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// How the service clock advances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockMode {
    /// Deterministic: advance only on client request.
    Virtual,
    /// Wall-clock driven, `compression` sim-seconds per wall-second.
    Realtime { compression: f64 },
}

/// Acknowledgement of an accepted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitAck {
    pub id: u64,
    /// Effective virtual submit instant.
    pub submit: u64,
}

/// Queue/cluster/campaign snapshot used by `/v1/*` reads and `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub scheduler: &'static str,
    pub now: u64,
    pub clock: ClockMode,
    pub nodes: u32,
    pub cores_per_node: u32,
    pub busy_cores: u64,
    pub empty_nodes: u32,
    pub jobs_total: usize,
    pub pending: usize,
    pub running: usize,
    pub completed: usize,
    pub(crate) events_outstanding: usize,
    pub stats: slurm_sim::SimStats,
    pub energy_joules: f64,
    /// Completed-job aggregates so far (campaign-style).
    pub mean_slowdown: f64,
    pub mean_response: f64,
    pub mean_wait: f64,
    pub makespan: u64,
    /// Total submissions accepted over the API.
    pub submitted: u64,
    /// Per-tenant breakdown, ascending by tenant id. Empty when the service
    /// has seen no tenant traffic and no registry is configured.
    pub tenants: Vec<TenantSnap>,
    /// Submit→start wait of completed jobs, bucketed (virtual seconds) —
    /// rendered as the `sd_serve_job_wait_seconds` histogram.
    pub(crate) wait_hist: sched_metrics::Histogram,
    /// Durability counters; `None` when running without `--wal`.
    pub wal: Option<WalStatus>,
    /// The engine's hot-path probe counters, as `Engine::settle` folded them
    /// in from every calling thread: they count while an `arm` window is open.
    pub timing: Vec<FnTiming>,
}

/// One tenant's slice of the service counters: wire-side submission counts
/// merged with the simulator's per-tenant accounting (when a
/// [`slurm_sim::TenantRegistry`] is configured).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSnap {
    pub tenant: u64,
    /// Submissions accepted over the API for this tenant.
    pub submitted: u64,
    /// Submissions refused by the per-tenant rate limit (429).
    pub rate_limited: u64,
    /// Jobs of this tenant that started.
    pub started: u64,
    /// Jobs of this tenant that completed.
    pub completed: u64,
    /// Backfill trials skipped because a quota was exhausted.
    pub quota_skipped: u64,
    /// Requested nodes currently running.
    pub running_width: u64,
}

/// Per-job status for `GET /v1/jobs/{id}`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    pub id: u64,
    pub state: &'static str,
    pub submit: u64,
    pub req_nodes: u32,
    pub req_time: u64,
    pub malleable: bool,
    pub start: Option<u64>,
    pub end: Option<u64>,
    pub cores: Option<u64>,
    pub rate: Option<f64>,
}

/// One pending-queue entry for `GET /v1/queue`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueView {
    pub id: u64,
    pub req_nodes: u32,
    pub req_time: u64,
}

/// The decision chain of one job for `GET /v1/explain/{id}`: its current
/// status plus every trace event that mentions it, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainView {
    pub job: JobView,
    /// Whether a trace ring is attached (without one the history is empty).
    pub tracing: bool,
    /// Events involving the job still held in the ring, ascending by seq.
    pub events: Vec<slurm_sim::TraceEvent>,
    /// Ring events overwritten since creation — when non-zero, the oldest
    /// part of this job's history may be missing.
    pub overwritten: u64,
}

/// Why a command was refused (mapped to 4xx by the server).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Submit/advance instant lies before the virtual clock.
    Clock(String),
    /// The job record cannot be simulated.
    Rejected(String),
    /// Unknown job id.
    NoSuchJob(u64),
    /// The job is not in a cancellable state (already finished/cancelled).
    NotPending(u64),
    /// The tenant exceeded its configured submit rate (HTTP 429).
    RateLimited(u64),
    /// The command's WAL append failed, so it was not applied (HTTP 503).
    Storage(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Clock(m) | EngineError::Rejected(m) => write!(f, "{m}"),
            EngineError::NoSuchJob(id) => write!(f, "no job with id {id}"),
            EngineError::NotPending(id) => write!(f, "job {id} is not cancellable"),
            EngineError::RateLimited(t) => {
                write!(f, "tenant {t} exceeded its submit rate limit")
            }
            EngineError::Storage(e) => write!(f, "write-ahead log append failed, command not applied: {e}"),
        }
    }
}

/// The channel form of [`Engine`]'s methods, answered by [`Engine::run`]: each
/// variant carries the method's arguments and a sender for its return value.
pub enum Command {
    Submit {
        req: SubmitRequest,
        reply: Sender<Result<SubmitAck, EngineError>>,
    },
    Cancel {
        id: u64,
        reply: Sender<Result<(), EngineError>>,
    },
    JobInfo {
        id: u64,
        reply: Sender<Result<JobView, EngineError>>,
    },
    /// Full decision history of one job (trace-backed).
    Explain {
        id: u64,
        reply: Sender<Result<ExplainView, EngineError>>,
    },
    Queue {
        limit: usize,
        reply: Sender<(usize, Vec<QueueView>)>,
    },
    Stats {
        reply: Sender<Snapshot>,
    },
    /// Process every event batch with `time <= to`.
    Advance {
        to: u64,
        reply: Sender<Result<u64, EngineError>>,
    },
    /// Run the event loop until nothing remains; replies with the final
    /// clock.
    Drain {
        reply: Sender<Result<u64, EngineError>>,
    },
    /// Read-only result of the run so far (complete once drained).
    Result {
        reply: Sender<SimResult>,
    },
    /// Stop the engine; replies with the final result.
    Shutdown {
        reply: Sender<SimResult>,
    },
}

/// Wall-clock token bucket: `rate` tokens/second, burst capacity `max(rate, 1)`.
struct TokenBucket {
    rate: f64,
    capacity: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64) -> TokenBucket {
        let capacity = rate.max(1.0);
        TokenBucket {
            rate,
            capacity,
            tokens: capacity,
            last: Instant::now(),
        }
    }

    fn allow(&mut self) -> bool {
        let now = Instant::now();
        let refill = now.duration_since(self.last).as_secs_f64() * self.rate;
        self.tokens = (self.tokens + refill).min(self.capacity);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Wire-side per-tenant counters (keyed by the tenant id on the request,
/// which may or may not be in the simulator's registry).
#[derive(Default)]
struct TenantWire {
    submitted: u64,
    rate_limited: u64,
}

/// WAL/checkpoint figures for `/metrics` (present only with `--wal`).
#[derive(Debug, Clone, PartialEq)]
pub struct WalStatus {
    /// Records appended since this process opened the log.
    pub records_written: u64,
    /// Records replayed during boot recovery.
    pub records_replayed: u64,
    /// Checkpoints installed since this process opened the store.
    pub checkpoints_written: u64,
    /// Wall time of boot recovery (open + restore + replay + checkpoint).
    pub recovery_seconds: f64,
    /// `None`: fresh directory; `"clean"`: recovered an intact image;
    /// `"torn_tail"`: recovered after discarding a corrupt WAL tail.
    pub recovered: Option<&'static str>,
    /// Current on-disk WAL size (zero right after a checkpoint).
    pub wal_bytes: u64,
    /// Age of the oldest un-checkpointed record (0.0 when the log is empty).
    pub wal_segment_age_seconds: f64,
}

/// Write-ahead durability attached to the engine (DESIGN.md §14). Every
/// state-mutating command is logged *before* it is applied, and refused when
/// its append fails; a checkpoint is installed (collapsing the log) every
/// `checkpoint_every` records and at shutdown, and a failed one is retried
/// after the next `checkpoint_every` records.
struct Durability {
    store: DurableStore,
    checkpoint_every: u64,
    records_since_checkpoint: u64,
    /// Next WAL sequence number (global, resumes across restarts).
    next_seq: u64,
    /// The floor of a realtime tick that changed the state since the last
    /// record or checkpoint: [`Engine::log`] writes it as an `Advance`
    /// ahead of the next logged mutation.
    unlogged_floor: Option<u64>,
    replayed: u64,
    recovery_seconds: f64,
    recovered: Option<&'static str>,
}

impl Durability {
    fn status(&self) -> WalStatus {
        WalStatus {
            records_written: self.store.wal_records_written(),
            records_replayed: self.replayed,
            checkpoints_written: self.store.checkpoints_written(),
            recovery_seconds: self.recovery_seconds,
            recovered: self.recovered,
            wal_bytes: self.store.wal_bytes(),
            wal_segment_age_seconds: self.store.wal_segment_age_seconds(),
        }
    }

    /// Appends one record; on `Err` the log and the seq are as they were, and
    /// the caller refuses the command. `now` stamps the log record of a failure.
    fn append(&mut self, cmd: &WalCmd, now: u64) -> Result<(), EngineError> {
        let seq = self.next_seq;
        if let Err(e) = self.store.append(seq, &cmd.encode()) {
            sd_obs::log_event!(Error @ now, "wal", "append failed ({e}); command refused"; seq = seq);
            return Err(EngineError::Storage(e.to_string()));
        }
        self.next_seq += 1;
        self.records_since_checkpoint += 1;
        Ok(())
    }

    /// Installs `payload` as the checkpoint covering every applied command,
    /// unlogged ticks included, and resets the record counter. A failure
    /// loses nothing — the log is truncated only once the image is in, so the
    /// old checkpoint plus the log still recover everything — and the next
    /// budget retries it. A pending tick stays pending then: logged after an
    /// image that already holds it, it replays as a no-op. `now` stamps the
    /// log record.
    fn install(&mut self, payload: &[u8], now: u64) {
        // Seqs start at 1, so `next_seq - 1` is the last logged (= applied)
        // record; 0 = "nothing beyond the checkpoint".
        let applied = self.next_seq - 1;
        match self.store.install_checkpoint(applied, payload) {
            Ok(()) => {
                sd_obs::log_event!(Debug @ now, "wal", "checkpoint installed"; applied = applied);
                self.unlogged_floor = None;
            }
            Err(e) => {
                sd_obs::log_event!(Error @ now, "wal", "checkpoint failed ({e}); will retry"; applied = applied)
            }
        }
        self.records_since_checkpoint = 0;
    }
}

/// Running aggregates over the simulator's append-only outcome list, kept
/// so a read folds only the outcomes completed since the previous read.
/// Folding is the same additions in the same order as one pass over the
/// whole list, so every sum — and every mean derived from it — is
/// bit-identical to a from-scratch recompute. The same cursor indexes each
/// folded outcome by its job, so a finished job's status is one lookup.
/// Derived state: starts empty on every boot (the first read after a
/// recovery folds everything once) and is never serialised.
struct OutcomeFold {
    /// Outcomes already folded: `outcomes()[..seen]`.
    seen: usize,
    slowdown: Mean,
    response: Mean,
    wait: Mean,
    wait_hist: sched_metrics::Histogram,
    /// `by_job[id]`: where job `id`'s outcome sits in `outcomes()`, once
    /// folded, else [`OutcomeFold::UNFOLDED`] — 4 bytes per job ever served.
    by_job: Vec<u32>,
}

impl OutcomeFold {
    /// A `by_job` entry whose job has no folded outcome.
    const UNFOLDED: u32 = u32::MAX;

    fn new() -> OutcomeFold {
        OutcomeFold {
            seen: 0,
            slowdown: Mean::default(),
            response: Mean::default(),
            wait: Mean::default(),
            wait_hist: sched_metrics::Histogram::wait_seconds(),
            by_job: Vec::new(),
        }
    }

    fn catch_up(&mut self, outcomes: &[slurm_sim::JobOutcome]) {
        for (i, o) in outcomes.iter().enumerate().skip(self.seen) {
            self.slowdown.add(o.slowdown());
            self.response.add(o.response() as f64);
            self.wait.add(o.wait() as f64);
            self.wait_hist.observe(o.wait() as f64);
            let id = o.id.0 as usize;
            if self.by_job.len() <= id {
                self.by_job.resize(id + 1, Self::UNFOLDED);
            }
            let at = u32::try_from(i).ok().filter(|&at| at != Self::UNFOLDED);
            self.by_job[id] = at.expect("an outcome index fits below the sentinel");
        }
        self.seen = outcomes.len();
    }

    /// Job `id`'s outcome, after folding any new ones.
    fn outcome<'o>(&mut self, outcomes: &'o [slurm_sim::JobOutcome], id: u64) -> Option<&'o slurm_sim::JobOutcome> {
        self.catch_up(outcomes);
        let at = *self.by_job.get(usize::try_from(id).ok()?)?;
        if at == Self::UNFOLDED {
            return None;
        }
        outcomes.get(at as usize)
    }
}

/// The engine: owns the controller, executes commands sequentially.
pub struct Engine {
    ctl: Controller<TimedScheduler>,
    mode: ClockMode,
    /// Highest instant the clock was advanced to: where an unstamped
    /// submission lands (at the earliest).
    floor: SimTime,
    submitted: u64,
    /// Per-tenant submit rate limits (wall clock), empty = unlimited.
    tenant_rates: std::collections::HashMap<u64, TokenBucket>,
    /// Wire counters per tenant id; BTreeMap for deterministic snapshots.
    tenant_wire: std::collections::BTreeMap<u64, TenantWire>,
    /// Decision-trace ring, shared with `/v1/trace` readers.
    trace: Option<Arc<TraceRing>>,
    /// Write-ahead log + checkpoints; `None` = in-memory only.
    dur: Option<Durability>,
    /// Completed-job aggregates for [`Snapshot`], advanced only by reads.
    fold: OutcomeFold,
    /// Probe counters folded in by [`Engine::settle`].
    probes: Vec<FnTiming>,
}

/// Wraps the configured scheduler to time each pass into the service's
/// wall-clock histograms (`sd_serve_pass_duration_seconds`); a private set
/// until [`Engine::with_histograms`] attaches the server's.
struct TimedScheduler {
    inner: Box<dyn Scheduler + Send>,
    hists: Arc<ServeHistograms>,
}

impl Scheduler for TimedScheduler {
    fn schedule(&mut self, st: &mut SimState) {
        let t0 = Instant::now();
        self.inner.schedule(st);
        self.hists.pass_seconds.observe(t0.elapsed().as_secs_f64());
    }

    fn pass_needed(&self, st: &SimState, dirty: DirtyFlags) -> bool {
        self.inner.pass_needed(st, dirty)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Engine {
    pub fn new(state: SimState, scheduler: Box<dyn Scheduler + Send>, mode: ClockMode) -> Engine {
        Engine {
            ctl: Controller::new(state, TimedScheduler { inner: scheduler, hists: Arc::default() }),
            mode,
            floor: SimTime::ZERO,
            submitted: 0,
            tenant_rates: Default::default(),
            tenant_wire: Default::default(),
            trace: None,
            dur: None,
            fold: OutcomeFold::new(),
            probes: Vec::new(),
        }
    }

    /// Builds a crash-tolerant engine: opens (or creates) the durable store at
    /// `dir`, restores the checkpointed state, replays each outstanding WAL
    /// record by calling the public method live traffic called, and installs a
    /// fresh checkpoint so the next boot starts from a collapsed log. Returns
    /// the engine plus a recovery summary.
    ///
    /// During replay the WAL append and the rate gate are inert by
    /// construction: the store is attached only after the loop, and rate
    /// limits are installed by [`Engine::with_tenant_rates`] after this
    /// returns. A replayed record is therefore neither logged twice nor
    /// throttled (a 429 was never logged), and refusals that were logged
    /// replay to the same refusals. Replayed commands also emit the live
    /// methods' debug log events, each stamped with the recovering engine's
    /// virtual instant as that record replays.
    ///
    /// Replay runs on the virtual clock, since every instant is in the log;
    /// [`Engine::with_clock`] sets the mode the session then serves in.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        dir: &std::path::Path,
        policy: FsyncPolicy,
        checkpoint_every: u64,
        spec: cluster::ClusterSpec,
        cfg: slurm_sim::SlurmConfig,
        rate_model: Box<dyn slurm_sim::RateModel>,
        sharing: drom::SharingFactor,
        scheduler: Box<dyn Scheduler + Send>,
    ) -> Result<(Engine, WalStatus), String> {
        let t0 = Instant::now();
        let (store, rec) = DurableStore::open(dir, policy)
            .map_err(|e| format!("open WAL store at {}: {e}", dir.display()))?;
        let recovered = (!rec.is_fresh()).then_some(if rec.torn_tail { "torn_tail" } else { "clean" });
        let cp = rec.checkpoint.as_deref().map(EngineCheckpoint::decode).transpose();
        let cp = cp.map_err(|e| format!("corrupt engine checkpoint: {e}"))?;
        let state = match &cp {
            Some(cp) => SimState::restore(spec, cfg, rate_model, sharing, &cp.state)
                .map_err(|e| format!("restore checkpointed state: {e}"))?,
            None => SimState::new_online(spec, cfg, rate_model, sharing),
        };
        let mut engine = Engine::new(state, scheduler, ClockMode::Virtual);
        if let Some(cp) = cp {
            engine.floor = SimTime(cp.floor);
            engine.submitted = cp.submitted;
            let wire = |(t, submitted, rate_limited)| (t, TenantWire { submitted, rate_limited });
            engine.tenant_wire = cp.tenant_wire.into_iter().map(wire).collect();
        }
        for record in &rec.records {
            let cmd = WalCmd::decode(&record.payload)
                .map_err(|e| format!("undecodable WAL record seq {}: {e}", record.seq))?;
            let _ = match cmd {
                WalCmd::Submit(req) => engine.submit(req).map(drop),
                WalCmd::Cancel(id) => engine.cancel(id),
                WalCmd::Advance(to) => engine.advance(to).map(drop),
                WalCmd::Drain => engine.drain().map(drop),
            };
        }
        let mut d = Durability {
            store,
            checkpoint_every: checkpoint_every.max(1),
            records_since_checkpoint: 0,
            next_seq: rec.next_seq,
            unlogged_floor: None,
            replayed: rec.records.len() as u64,
            recovery_seconds: 0.0,
            recovered,
        };
        // Collapse the replayed log so a crash during this session never
        // replays the previous session's records on top of them again.
        d.install(&engine.checkpoint_payload(), engine.virtual_now().secs());
        d.recovery_seconds = t0.elapsed().as_secs_f64();
        let status = d.status();
        engine.dur = Some(d);
        Ok((engine, status))
    }

    /// Installs per-tenant submit rate limits (submissions per wall-second;
    /// burst capacity is `max(rate, 1)`). Unlisted tenants are unlimited.
    pub fn with_tenant_rates(mut self, rates: &[(u64, f64)]) -> Engine {
        self.tenant_rates = rates
            .iter()
            .map(|&(t, r)| (t, TokenBucket::new(r)))
            .collect();
        self
    }

    /// Attaches a decision-trace ring: the simulator emits into it and
    /// `Explain` answers from it. Share the same `Arc` with the HTTP layer
    /// so `/v1/trace` can tail it lock-free.
    pub fn with_trace(mut self, ring: Arc<TraceRing>) -> Engine {
        self.ctl.state.attach_trace(ring.clone());
        self.trace = Some(ring);
        self
    }

    /// Sets the clock mode: who sends the advances, and how they are logged.
    pub fn with_clock(mut self, mode: ClockMode) -> Engine {
        self.mode = mode;
        self
    }

    /// Times every scheduler pass into `hists.pass_seconds`.
    pub fn with_histograms(mut self, hists: Arc<ServeHistograms>) -> Engine {
        self.ctl.scheduler.hists = hists;
        self
    }

    /// The service clock: everything already simulated or advanced past.
    fn virtual_now(&self) -> SimTime {
        self.ctl.state.now.max(self.floor)
    }

    /// Runs the command loop to completion, answering each [`Command`] with
    /// the method of the same name. Returns the final result (also sent to
    /// the `Shutdown` requester, if that is how the loop ended).
    pub fn run(mut self, rx: Receiver<Command>) -> SimResult {
        // `recv` fails once every client handle is dropped.
        while let Ok(cmd) = rx.recv() {
            let stop = matches!(cmd, Command::Shutdown { .. });
            self.handle(cmd);
            self.settle();
            if stop {
                break;
            }
        }
        self.ctl.into_result()
    }

    /// Ends a call: folds the caller's probe counters in.
    pub(crate) fn settle(&mut self) {
        timing::take_into(&mut self.probes);
    }

    /// Answers one command with the method of the same name.
    fn handle(&mut self, cmd: Command) {
        // A requester that hung up no longer wants the answer.
        fn send<T>(reply: Sender<T>, value: T) {
            let _ = reply.send(value);
        }
        match cmd {
            Command::Submit { req, reply } => send(reply, self.submit(req)),
            Command::Cancel { id, reply } => send(reply, self.cancel(id)),
            Command::JobInfo { id, reply } => send(reply, self.job_view(id)),
            Command::Explain { id, reply } => send(reply, self.explain(id)),
            Command::Queue { limit, reply } => send(reply, self.queue(limit)),
            Command::Stats { reply } => send(reply, self.snapshot()),
            Command::Advance { to, reply } => send(reply, self.advance(to)),
            Command::Drain { reply } => send(reply, self.drain()),
            Command::Result { reply } => send(reply, self.result()),
            Command::Shutdown { reply } => send(reply, self.shutdown()),
        }
    }

    /// Admits one job. The wall-clock rate gate runs before the log, so a
    /// 429 is never logged; every refusal after a logged append replays to
    /// itself.
    pub fn submit(&mut self, req: SubmitRequest) -> Result<SubmitAck, EngineError> {
        let tenant = req.tenant.unwrap_or(0);
        if let Some(bucket) = self.tenant_rates.get_mut(&tenant) {
            if !bucket.allow() {
                self.tenant_wire.entry(tenant).or_default().rate_limited += 1;
                return Err(EngineError::RateLimited(tenant));
            }
        }
        self.log(&WalCmd::Submit(req.clone()))?;
        let min = self.min_virtual_submit();
        let ack = match req.submit {
            Some(t) if SimTime(t) < min => Err(EngineError::Clock(format!(
                "submit time {t} is at or before an already-simulated instant \
                 (earliest accepted: {})",
                min.secs()
            ))),
            at => {
                let submit = at.unwrap_or(min.max(self.floor).secs());
                // Dense id = next job-table slot (SimState assigns the same);
                // the malleability draw forks from the client's trace identity
                // when given, matching the offline constructor on the same trace.
                let id = self.ctl.state.job_count() as u64 + 1;
                let sj = req.to_swf(req.trace_id.unwrap_or(id), submit);
                match self.ctl.state.submit_job(&sj, req.malleable) {
                    Ok(id) => {
                        self.submitted += 1;
                        self.tenant_wire.entry(tenant).or_default().submitted += 1;
                        sd_obs::log_event!(Debug @ self.virtual_now().secs(), "engine", "submit accepted";
                            id = id.0, tenant = tenant, submit = submit);
                        Ok(SubmitAck { id: id.0, submit })
                    }
                    Err(SubmitError::Unusable) => Err(EngineError::Rejected(
                        "job record cannot be simulated (check procs/run_time)".into(),
                    )),
                    Err(e @ SubmitError::InPast { .. }) => Err(EngineError::Clock(e.to_string())),
                }
            }
        };
        if let Err(e) = &ack {
            sd_obs::log_event!(Debug @ self.virtual_now().secs(), "engine", "submit refused: {e}"; tenant = tenant);
        }
        self.maybe_checkpoint();
        ack
    }

    /// Cancels a pending or running job.
    pub fn cancel(&mut self, id: u64) -> Result<(), EngineError> {
        self.log(&WalCmd::Cancel(id))?;
        let r = if id == 0 || id as usize > self.ctl.state.job_count() {
            Err(EngineError::NoSuchJob(id))
        } else if self.ctl.state.cancel_job(cluster::JobId(id)) {
            // A dropped queue entry can unblock backfill immediately; run a
            // (gated) pass now instead of waiting for the next event batch.
            self.ctl.pass_now();
            Ok(())
        } else {
            Err(EngineError::NotPending(id))
        };
        self.maybe_checkpoint();
        r
    }

    /// Processes every event batch with `time <= to`; returns the clock. A
    /// client's advance is logged before it is applied. A realtime tick that
    /// changed the floor or the state is only noted; the WAL gets it ahead of
    /// the next logged mutation, so idle ticks cost no disk. One
    /// `Advance(t_k)` replays what ticks `t_1 … t_k` did: `step_until` composes.
    pub fn advance(&mut self, to: u64) -> Result<u64, EngineError> {
        let tick = self.mode != ClockMode::Virtual;
        if !tick {
            self.log(&WalCmd::Advance(to))?;
        }
        let before = (self.floor, self.ctl.state.stats.events_dispatched);
        self.ctl.step_until(Some(SimTime(to)));
        self.floor = self.floor.max(SimTime(to));
        let moved = before != (self.floor, self.ctl.state.stats.events_dispatched);
        if !tick {
            sd_obs::log_event!(Debug @ self.virtual_now().secs(), "engine", "clock advanced"; to = to);
        } else if let Some(d) = self.dur.as_mut().filter(|_| moved) {
            d.unlogged_floor = Some(self.floor.secs());
        }
        self.maybe_checkpoint();
        Ok(self.virtual_now().secs())
    }

    /// Runs the event loop until nothing remains; returns the final clock.
    pub fn drain(&mut self) -> Result<u64, EngineError> {
        self.log(&WalCmd::Drain)?;
        self.ctl.step_until(None);
        self.maybe_checkpoint();
        Ok(self.virtual_now().secs())
    }

    /// The pending-queue length and its first `limit` entries.
    pub fn queue(&self, limit: usize) -> (usize, Vec<QueueView>) {
        let queue = &self.ctl.state.queue;
        let mut head = Vec::with_capacity(limit.min(queue.len()));
        head.extend(
            queue
                .prefix(limit)
                .map(|e| QueueView { id: e.job.0, req_nodes: e.req_nodes, req_time: e.req_time }),
        );
        (queue.len(), head)
    }

    /// The result of the run so far (complete once drained).
    pub fn result(&self) -> SimResult {
        SimResult::snapshot(&self.ctl.state, self.ctl.scheduler.name())
    }

    /// Installs a final checkpoint, so a restart after a graceful stop
    /// resumes from this exact state with an empty log, and returns the
    /// result. [`Engine::run`] stops after it.
    pub fn shutdown(&mut self) -> SimResult {
        self.checkpoint_now();
        self.result()
    }

    /// Earliest legal submit instant. Every batch at an instant ≤ `state.now`
    /// has already run, so a new event there would split what offline is one
    /// batch into two (diverging the pass accounting): the bound is exclusive
    /// of `now` once anything has been dispatched. Instants between `now` and
    /// the advance floor hold no processed batches and stay legal.
    fn min_virtual_submit(&self) -> SimTime {
        let now = self.ctl.state.now;
        if self.ctl.state.stats.events_dispatched > 0 {
            SimTime(now.secs() + 1)
        } else {
            now
        }
    }

    /// Appends one command to the WAL (no-op without `--wal`), after the
    /// noted tick if one is pending. Called *before* the command is applied
    /// — the log is a total order of effects — and an `Err` refuses it: the
    /// command is not applied, and a tick whose frame failed stays pending.
    fn log(&mut self, cmd: &WalCmd) -> Result<(), EngineError> {
        let now = self.virtual_now().secs();
        let Some(d) = self.dur.as_mut() else { return Ok(()) };
        if let Some(floor) = d.unlogged_floor {
            d.append(&WalCmd::Advance(floor), now)?;
            d.unlogged_floor = None;
        }
        d.append(cmd, now)
    }

    /// Serialises the full durable image: engine counters + the canonical
    /// simulator state.
    fn checkpoint_payload(&self) -> Vec<u8> {
        EngineCheckpoint {
            floor: self.floor.secs(),
            submitted: self.submitted,
            tenant_wire: self
                .tenant_wire
                .iter()
                .map(|(&t, w)| (t, w.submitted, w.rate_limited))
                .collect(),
            state: self.ctl.state.checkpoint_bytes(),
        }
        .encode()
    }

    /// Installs a checkpoint covering everything applied so far and resets
    /// the record counter. No-op without `--wal`.
    fn checkpoint_now(&mut self) {
        let Some(mut d) = self.dur.take() else { return };
        d.install(&self.checkpoint_payload(), self.virtual_now().secs());
        self.dur = Some(d);
    }

    /// Checkpoints when the per-`checkpoint_every` budget is used up.
    fn maybe_checkpoint(&mut self) {
        let due = self
            .dur
            .as_ref()
            .is_some_and(|d| d.records_since_checkpoint >= d.checkpoint_every);
        if due {
            self.checkpoint_now();
        }
    }

    /// One job's status; a finished job's outcome is found through the
    /// fold's index, which this advances.
    pub fn job_view(&mut self, id: u64) -> Result<JobView, EngineError> {
        if id == 0 || id as usize > self.ctl.state.job_count() {
            return Err(EngineError::NoSuchJob(id));
        }
        let job = self.ctl.state.job(cluster::JobId(id));
        let run = job.running();
        // Only a finished job has an outcome.
        let done = match job.state {
            JobState::Done => self.fold.outcome(self.ctl.state.outcomes(), id),
            _ => None,
        };
        Ok(JobView {
            id,
            state: job.state_label(),
            submit: job.spec.submit.secs(),
            req_nodes: job.spec.req_nodes,
            req_time: job.spec.req_time,
            malleable: job.spec.malleable,
            start: run
                .map(|r| r.start.secs())
                .or_else(|| done.map(|o| o.start.secs())),
            end: done.map(|o| o.end.secs()),
            cores: run.map(|r| r.total_cores()),
            rate: run.map(|r| r.rate),
        })
    }

    /// The job's status plus every decision about it still in the ring.
    pub fn explain(&mut self, id: u64) -> Result<ExplainView, EngineError> {
        let job = self.job_view(id)?;
        let (tracing, events, overwritten) = match &self.trace {
            None => (false, Vec::new(), 0),
            Some(r) => (
                true,
                r.snapshot()
                    .into_iter()
                    .filter(|e| e.kind.involves(id))
                    .collect(),
                r.overwritten(),
            ),
        };
        Ok(ExplainView { job, tracing, events, overwritten })
    }

    /// Queue, cluster and campaign figures; folds the outcomes completed
    /// since the previous read.
    pub fn snapshot(&mut self) -> Snapshot {
        let st = &self.ctl.state;
        let outcomes = st.outcomes();
        self.fold.catch_up(outcomes);
        Snapshot {
            scheduler: self.ctl.scheduler.name(),
            now: self.virtual_now().secs(),
            clock: self.mode,
            nodes: st.spec().nodes,
            cores_per_node: st.spec().node.cores(),
            busy_cores: st.cluster.busy_cores(),
            empty_nodes: st.cluster.empty_node_count(),
            jobs_total: st.job_count(),
            pending: st.queue.len(),
            running: st.running_count(),
            completed: outcomes.len(),
            events_outstanding: st.events.len(),
            stats: st.stats.clone(),
            energy_joules: st.snapshot_energy(),
            mean_slowdown: self.fold.slowdown.mean(),
            mean_response: self.fold.response.mean(),
            mean_wait: self.fold.wait.mean(),
            makespan: st.makespan(),
            submitted: self.submitted,
            tenants: self.tenant_snaps(),
            wait_hist: self.fold.wait_hist.clone(),
            wal: self.dur.as_ref().map(Durability::status),
            timing: self.probes.clone(),
        }
    }

    /// Wire counters merged with the simulator's per-tenant accounting
    /// (registry slots aggregated by tenant id across projects).
    fn tenant_snaps(&self) -> Vec<TenantSnap> {
        let mut rows: std::collections::BTreeMap<u64, TenantSnap> = self
            .tenant_wire
            .iter()
            .map(|(&t, w)| {
                (
                    t,
                    TenantSnap {
                        tenant: t,
                        submitted: w.submitted,
                        rate_limited: w.rate_limited,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let st = &self.ctl.state;
        for (slot, t) in st.cfg.tenants.iter().enumerate() {
            let u = &st.tenant_usage()[slot];
            let row = rows.entry(u64::from(t.id)).or_insert_with(|| TenantSnap {
                tenant: u64::from(t.id),
                ..Default::default()
            });
            // Offline-built or registry-only tenants have no wire count;
            // fall back to the simulator's own submit tally.
            if row.submitted == 0 {
                row.submitted = u.submitted;
            }
            row.started += u.started;
            row.completed += u.completed;
            row.quota_skipped += u.quota_skipped;
            row.running_width += u64::from(u.running_width);
        }
        rows.into_values().collect()
    }
}

#[cfg(test)]
#[path = "../../durable/tests/fault/mod.rs"]
mod fault; // the storage fault double of `sd-durable`'s own tests

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use drom::SharingFactor;
    use sd_policy::SdPolicy;
    use slurm_sim::{IdealModel, SlurmConfig};
    use std::sync::mpsc;

    /// An 8-node machine.
    fn spec() -> ClusterSpec {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 8;
        spec
    }

    /// An SD-Policy engine over an empty 8-node machine.
    fn engine(mode: ClockMode) -> Engine {
        let (model, sharing) = (Box::new(IdealModel), SharingFactor::HALF);
        let state = SimState::new_online(spec(), SlurmConfig::default(), model, sharing);
        Engine::new(state, Box::new(SdPolicy::default()), mode)
    }

    /// Runs `engine` on its own thread, as the server does.
    fn spawn(engine: Engine) -> (Sender<Command>, std::thread::JoinHandle<SimResult>) {
        let (tx, rx) = mpsc::channel();
        (tx, std::thread::spawn(move || engine.run(rx)))
    }

    /// Sends one command to a running engine and waits for the reply.
    fn call<T>(tx: &Sender<Command>, build: impl FnOnce(Sender<T>) -> Command) -> T {
        let (reply, answer) = mpsc::channel();
        tx.send(build(reply)).unwrap();
        answer.recv().unwrap()
    }

    fn request(procs: u64, run: u64, at: u64) -> SubmitRequest {
        SubmitRequest {
            procs,
            req_time: run * 2,
            run_time: run,
            submit: Some(at),
            malleable: None,
            trace_id: None,
            tenant: None,
            project: None,
        }
    }

    #[test]
    fn virtual_session_submits_drains_and_reports() {
        let mut e = engine(ClockMode::Virtual);
        for i in 0..5u64 {
            assert_eq!(e.submit(request(8, 100, i * 10)).unwrap().id, i + 1);
        }
        e.drain().unwrap();
        let res = e.shutdown();
        assert_eq!(res.outcomes.len(), 5);
        assert_eq!(res.leftover_pending, 0);
    }

    #[test]
    fn stats_carry_the_engine_threads_own_probes() {
        // An armed window reaches the engine thread, which counts on its own
        // counters and publishes them in its snapshot; this thread's stay 0.
        timing::reset();
        timing::arm();
        let (tx, h) = spawn(engine(ClockMode::Virtual));
        for i in 0..4u64 {
            call(&tx, |reply| Command::Submit { req: request(64, 100, i), reply }).unwrap();
        }
        call(&tx, |reply| Command::Drain { reply }).unwrap();
        let snap = call(&tx, |reply| Command::Stats { reply });
        timing::disarm();
        drop(tx);
        h.join().unwrap();
        let trials = |rows: &[FnTiming]| rows.iter().find(|r| r.name == "backfill_trial").unwrap().count;
        assert!(trials(&snap.timing) > 0, "{:?}", snap.timing);
        assert_eq!(trials(&timing::report()), 0);
        // `/metrics` renders those rows, the count-only probe among them.
        let text = crate::metrics::render(&snap, &Default::default(), &Default::default(), &[]);
        let line = format!("sd_serve_timing_calls_total{{function=\"backfill_trial\"}} {}\n", trials(&snap.timing));
        assert!(text.contains(&line), "{text}");
        assert!(text.contains("sd_serve_timing_calls_total{function=\"trial_memo_hit\"}"));
    }

    #[test]
    fn clock_rejects_already_simulated_instants() {
        let mut e = engine(ClockMode::Virtual);
        e.submit(request(8, 50, 100)).unwrap();
        assert_eq!(e.advance(500), Ok(500));
        // The job ran 100→150, so batches exist at 100 and 150: instants up
        // to and *including* 150 are closed (a new event there would split
        // an offline batch in two)…
        for at in [0, 100, 149, 150] {
            let err = e.submit(request(8, 50, at)).unwrap_err();
            assert!(matches!(err, EngineError::Clock(_)), "t={at}: {err:?}");
        }
        // …while unprocessed instants stay open, even below the advance
        // floor — offline would order those batches identically.
        for at in [151, 300, 500] {
            e.submit(request(8, 50, at)).unwrap();
        }
        e.drain().unwrap();
        assert_eq!(e.shutdown().outcomes.len(), 4);
    }

    #[test]
    fn cancel_covers_pending_and_running_but_not_done() {
        let mut e = engine(ClockMode::Virtual);
        // Two machine-filling jobs: the second stays queued at t=0.
        e.submit(request(64, 1000, 0)).unwrap();
        e.submit(request(64, 1000, 0)).unwrap();
        e.advance(0).unwrap();
        assert_eq!(e.cancel(2), Ok(()), "pending");
        assert_eq!(e.cancel(2), Err(EngineError::NotPending(2)), "already gone");
        assert_eq!(e.cancel(1), Ok(()), "running jobs are cancellable too");
        assert_eq!(e.cancel(99), Err(EngineError::NoSuchJob(99)));
        // A third job runs to completion and can no longer be cancelled.
        e.submit(request(8, 50, 1)).unwrap();
        e.drain().unwrap();
        assert_eq!(e.cancel(3), Err(EngineError::NotPending(3)), "done");
        let res = e.shutdown();
        assert_eq!(res.outcomes.len(), 1, "cancelled jobs record no outcome");
        assert_eq!(res.stats.cancelled, 2);
    }

    #[test]
    fn tenant_rate_limit_rejects_burst_and_counts() {
        // Tenant 2: one-token bucket at a negligible refill rate.
        let mut e = engine(ClockMode::Virtual).with_tenant_rates(&[(2, 1e-6)]);
        let as_tenant = |tenant, at| SubmitRequest { tenant, ..request(8, 50, at) };
        e.submit(as_tenant(Some(2), 0)).unwrap();
        assert_eq!(
            e.submit(as_tenant(Some(2), 1)).unwrap_err(),
            EngineError::RateLimited(2),
            "burst capacity 1: the second submit is refused"
        );
        // Unlimited tenants are unaffected.
        e.submit(as_tenant(Some(1), 2)).unwrap();
        e.submit(as_tenant(None, 3)).unwrap();
        let snap = e.snapshot();
        let row = |t: u64| snap.tenants.iter().find(|r| r.tenant == t).unwrap();
        assert_eq!((row(2).submitted, row(2).rate_limited), (1, 1));
        assert_eq!((row(1).submitted, row(1).rate_limited), (1, 0));
        assert_eq!(row(0).submitted, 1);
    }

    #[test]
    fn explain_returns_decision_chain_from_trace() {
        let mut e = engine(ClockMode::Virtual)
            .with_trace(Arc::new(TraceRing::new(4096)))
            .with_histograms(Arc::new(ServeHistograms::default()));
        // Job 1 fills the machine; job 2 queues behind it.
        e.submit(request(64, 1000, 0)).unwrap();
        e.submit(request(64, 1000, 1)).unwrap();
        e.drain().unwrap();
        let v = e.explain(2).unwrap();
        assert!(v.tracing);
        assert_eq!(v.overwritten, 0);
        assert_eq!(v.job.id, 2);
        let kinds: Vec<&str> = v.events.iter().map(|e| e.kind.name()).collect();
        assert!(kinds.contains(&"submitted"), "{kinds:?}");
        assert!(kinds.contains(&"started"), "{kinds:?}");
        assert!(kinds.contains(&"completed"), "{kinds:?}");
        // Every event mentions the job, in ascending seq order.
        assert!(v.events.iter().all(|e| e.kind.involves(2)));
        assert!(v.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(e.explain(99).is_err());
        let snap = e.snapshot();
        assert!(snap.stats.sched_passes > 0);
        assert!(!snap.wait_hist.is_empty(), "completed jobs feed the wait histogram");
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "sd-serve-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Durable engine over `dir` with a deliberately small checkpoint cadence
    /// (every 3 records) so tests exercise both periodic checkpoints and log
    /// replay.
    fn recover_engine(dir: &std::path::Path) -> (Engine, WalStatus) {
        recover_engine_every(dir, 3)
    }

    fn recover_engine_every(dir: &std::path::Path, records: u64) -> (Engine, WalStatus) {
        let (model, sharing) = (Box::new(IdealModel), SharingFactor::HALF);
        let scheduler = Box::new(SdPolicy::default());
        Engine::recover(dir, FsyncPolicy::Never, records, spec(), SlurmConfig::default(), model, sharing, scheduler)
            .unwrap()
    }

    #[test]
    fn crash_recovery_resumes_bit_identically() {
        let dir = tmp_dir("crash");
        let traffic = |e: &mut Engine| {
            for i in 0..4u64 {
                e.submit(request(16, 200, i * 10)).unwrap();
            }
            e.advance(120).unwrap();
        };
        let finish = |e: &mut Engine| {
            e.submit(request(16, 200, 500)).unwrap();
            e.drain().unwrap();
            e.shutdown()
        };
        // Session 1: accepted traffic hits the WAL, then the process
        // "crashes" — the engine is dropped without a shutdown, so no final
        // checkpoint is written.
        let (mut e, status) = recover_engine(&dir);
        assert!(status.recovered.is_none(), "fresh directory");
        traffic(&mut e);
        drop(e);
        // Session 2: recover and finish the run.
        let (mut e, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("clean"));
        assert!(status.records_replayed > 0, "{status:?}");
        let wal = e.snapshot().wal.expect("durable engine exposes WAL status");
        assert_eq!(wal.records_replayed, status.records_replayed);
        assert!(wal.checkpoints_written >= 1, "recovery collapses the log");
        let recovered = finish(&mut e);
        // Reference: identical traffic against an engine that never crashed.
        let mut reference = engine(ClockMode::Virtual);
        traffic(&mut reference);
        assert_eq!(recovered, finish(&mut reference), "recovery ≡ never crashed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn logged_refusals_replay_to_the_same_refusals() {
        let as_tenant = |tenant, at| SubmitRequest { tenant: Some(tenant), ..request(8, 50, at) };
        let session = |e: &mut Engine| {
            vec![
                e.submit(as_tenant(2, 0)).map(drop),
                e.submit(as_tenant(2, 1)).map(drop), // 429: refused before the log
                e.submit(as_tenant(1, 2)).map(drop),
                e.submit(as_tenant(1, 3)).map(drop),
                e.advance(100).map(drop),
                // The periodic checkpoint falls here, after the fourth record:
                // it holds the 429's count, and the refusals below are replayed.
                e.submit(request(8, 50, 40)).map(drop), // 409: an already-simulated instant
                e.cancel(99),                           // unknown id
                e.cancel(1),                            // finished job
            ]
        };
        let dir = tmp_dir("refusals");
        let (e, _) = recover_engine_every(&dir, 4);
        let mut e = e.with_tenant_rates(&[(2, 1e-6)]);
        let replies = session(&mut e);
        let refusals: Vec<_> = replies.iter().filter_map(|r| r.clone().err()).collect();
        assert!(
            matches!(
                refusals[..],
                [
                    EngineError::RateLimited(2),
                    EngineError::Clock(_),
                    EngineError::NoSuchJob(99),
                    EngineError::NotPending(1)
                ]
            ),
            "{refusals:?}"
        );
        assert_eq!(e.snapshot().wal.unwrap().records_written, 7, "every command but the 429 is logged");
        drop(e); // crash: no shutdown checkpoint

        let (recovered, status) = recover_engine_every(&dir, 4);
        assert_eq!(status.records_replayed, 3, "the three logged refusals, not the 429");
        let mut twin = engine(ClockMode::Virtual).with_tenant_rates(&[(2, 1e-6)]);
        assert_eq!(session(&mut twin), replies);
        assert!(recovered.checkpoint_payload() == twin.checkpoint_payload(), "recovery ≡ never crashed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The aggregates of a snapshot, recomputed in one pass over every
    /// outcome: the reference the engine's cursor must equal bit for bit.
    fn aggregates_from_scratch(e: &Engine) -> (usize, f64, f64, f64, sched_metrics::Histogram) {
        let outcomes = e.ctl.state.outcomes();
        let (mut slow, mut resp, mut wait) = (0.0, 0.0, 0.0);
        let mut hist = sched_metrics::Histogram::wait_seconds();
        for o in outcomes {
            slow += o.slowdown();
            resp += o.response() as f64;
            wait += o.wait() as f64;
            hist.observe(o.wait() as f64);
        }
        let n = outcomes.len().max(1) as f64;
        (outcomes.len(), slow / n, resp / n, wait / n, hist)
    }

    fn assert_snapshot_matches_recompute(e: &mut Engine, step: &str) {
        let snap = e.snapshot();
        let got = (
            snap.completed,
            snap.mean_slowdown,
            snap.mean_response,
            snap.mean_wait,
            snap.wait_hist,
        );
        assert_eq!(got, aggregates_from_scratch(e), "{step}");
    }

    #[test]
    fn snapshot_cursor_matches_from_scratch_recompute_across_recovery() {
        let dir = tmp_dir("fold");
        let (mut e, _) = recover_engine(&dir);
        assert_snapshot_matches_recompute(&mut e, "empty");
        // Uneven widths and runtimes on 8 nodes: jobs queue, so waits and
        // slowdowns are not all trivial.
        for i in 0..12u64 {
            e.submit(request(16 + 8 * (i % 4), 70 + 37 * i, i * 5)).unwrap();
            assert_snapshot_matches_recompute(&mut e, "after a submit");
        }
        for to in [60, 61, 200, 450] {
            e.advance(to).unwrap();
            assert_snapshot_matches_recompute(&mut e, "after an advance");
            // A read between mutations must not disturb the next fold.
            assert_snapshot_matches_recompute(&mut e, "repeated read");
        }
        e.cancel(12).unwrap();
        assert_snapshot_matches_recompute(&mut e, "after a cancel");
        let before_crash = e.fold.seen;
        assert!(before_crash > 0 && before_crash < 11, "mid-session: {before_crash}");
        drop(e); // crash: no shutdown checkpoint

        let (mut e, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("clean"));
        assert_eq!(e.fold.seen, 0, "the cursor is derived state: it restarts at 0");
        assert_snapshot_matches_recompute(&mut e, "first read after recovery");
        assert_eq!(e.fold.seen, before_crash);
        e.submit(request(24, 90, 500)).unwrap();
        assert_snapshot_matches_recompute(&mut e, "submit after recovery");
        e.drain().unwrap();
        assert_snapshot_matches_recompute(&mut e, "drained");
        assert_eq!(e.fold.seen, 12, "11 original completions + 1 after recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_view_reads_outcomes_only_for_finished_jobs() {
        let mut e = engine(ClockMode::Virtual);
        // Four machine-filling jobs: at t = 150 one is done, one running,
        // one pending; the fourth is cancelled while pending.
        for at in [0, 1, 2, 3] {
            e.submit(request(64, 100, at)).unwrap();
        }
        e.advance(150).unwrap();
        e.cancel(4).unwrap();
        let mut view = |id: u64| {
            let v = e.job_view(id).unwrap();
            (v.state, v.start, v.end)
        };
        assert_eq!(view(1), ("done", Some(0), Some(100)));
        assert_eq!(view(2), ("running", Some(100), None));
        assert_eq!(view(3), ("pending", None, None));
        assert_eq!(view(4), ("cancelled", None, None));
    }

    /// Every id's status, each finished job's start and end read by a scan
    /// over every outcome: the reference the fold's index must equal.
    fn assert_job_views_match_the_scan(e: &mut Engine, step: &str) {
        for id in 1..=e.ctl.state.job_count() as u64 {
            let done = e.ctl.state.outcomes().iter().find(|o| o.id.0 == id).cloned();
            let mut want = e.job_view(id).unwrap();
            if want.state == "done" {
                let o = done.unwrap_or_else(|| panic!("{step}: job {id} is done without an outcome"));
                (want.start, want.end) = (Some(o.start.secs()), Some(o.end.secs()));
            } else {
                assert!(done.is_none() && want.end.is_none(), "{step}: job {id}");
            }
            assert_eq!(e.job_view(id).unwrap(), want, "{step}: job {id}");
        }
    }

    #[test]
    fn a_finished_jobs_outcome_is_found_by_index_across_recovery() {
        let dir = tmp_dir("by-job");
        let (mut e, _) = recover_engine(&dir);
        for i in 0..12u64 {
            e.submit(request(16 + 8 * (i % 4), 70 + 37 * i, i * 5)).unwrap();
        }
        for to in [60, 200, 450] {
            e.advance(to).unwrap();
            assert_job_views_match_the_scan(&mut e, "live");
        }
        e.cancel(12).unwrap();
        assert_job_views_match_the_scan(&mut e, "after a cancel");
        let before: Vec<JobView> = (1..=12).map(|id| e.job_view(id).unwrap()).collect();
        drop(e); // crash: no shutdown checkpoint

        let (mut e, _) = recover_engine(&dir);
        assert_eq!(e.fold.by_job.len(), 0, "the index is derived state: it restarts empty");
        let after: Vec<JobView> = (1..=12).map(|id| e.job_view(id).unwrap()).collect();
        assert_eq!(after, before, "a recovered engine answers as before the crash");
        assert_job_views_match_the_scan(&mut e, "after recovery");
        e.drain().unwrap();
        assert_job_views_match_the_scan(&mut e, "drained");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_outcome_index_finds_nothing_past_its_end_or_for_an_unfolded_job() {
        let outcome = |id| slurm_sim::JobOutcome {
            id: cluster::JobId(id),
            submit: SimTime(0),
            start: SimTime(id),
            end: SimTime(10 * id),
            nodes: 1,
            procs: 8,
            req_time: 100,
            static_runtime: 50,
            malleable_backfilled: false,
            was_mate: false,
            app: None,
            tenant: 0,
        };
        let mut fold = OutcomeFold::new();
        let mut outcomes = vec![outcome(3), outcome(1)];
        let found = |fold: &mut OutcomeFold, outcomes: &[slurm_sim::JobOutcome], id| {
            fold.outcome(outcomes, id).map(|o| o.id.0)
        };
        assert_eq!(found(&mut fold, &outcomes, 3), Some(3));
        assert_eq!(found(&mut fold, &outcomes, 1), Some(1));
        assert_eq!(fold.by_job.len(), 4);
        for past_the_end in [4, 1 << 40, u64::MAX] {
            assert_eq!(found(&mut fold, &outcomes, past_the_end), None, "id {past_the_end}");
        }
        assert_eq!(found(&mut fold, &outcomes, 0), None, "ids start at 1");
        assert_eq!(found(&mut fold, &outcomes, 2), None, "job 2 has not finished");
        outcomes.push(outcome(2));
        assert_eq!(found(&mut fold, &outcomes, 2), Some(2), "a read folds the new outcome first");
        assert_eq!(fold.by_job, [OutcomeFold::UNFOLDED, 1, 2, 0]);
    }

    #[test]
    fn torn_wal_tail_is_discarded_without_panic() {
        let dir = tmp_dir("torn");
        let (mut e, _) = recover_engine(&dir);
        e.submit(request(8, 100, 0)).unwrap();
        e.submit(request(8, 100, 1)).unwrap();
        drop(e);
        // A torn append: half a frame of garbage at the log tail.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[0x13, 0x37, 0xFF]).unwrap();
        drop(f);
        let (mut e, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("torn_tail"));
        assert_eq!(status.records_replayed, 2, "valid prefix fully replayed");
        e.drain().unwrap();
        assert_eq!(e.shutdown().outcomes.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graceful_shutdown_checkpoint_collapses_log() {
        let dir = tmp_dir("grace");
        let (mut e, _) = recover_engine(&dir);
        e.submit(request(8, 100, 0)).unwrap();
        e.drain().unwrap();
        e.shutdown();
        drop(e);
        let (mut e, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("clean"));
        assert_eq!(status.records_replayed, 0, "shutdown checkpoint collapsed the log");
        assert_eq!(e.shutdown().outcomes.len(), 1, "completed work survives restarts");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    const REALTIME: ClockMode = ClockMode::Realtime { compression: 1.0 };

    /// A submit without a time: it lands at the clock's current instant.
    fn unstamped(procs: u64, run: u64) -> SubmitRequest {
        SubmitRequest { submit: None, ..request(procs, run, 0) }
    }

    #[test]
    fn realtime_admits_submits_by_the_virtual_rule() {
        // Every batch at an instant ≤ `state.now` has already run, so a new
        // event there would split that batch in two: once anything has been
        // dispatched, `state.now` is closed in realtime as in virtual.
        let mut e = engine(REALTIME);
        assert_eq!(e.submit(request(8, 100, 0)).unwrap().submit, 0);
        e.advance(50).unwrap(); // a tick: the job starts at 0
        let err = e.submit(request(8, 100, 0)).unwrap_err();
        assert!(matches!(err, EngineError::Clock(_)), "{err:?}");
        // An unstamped submit lands at max(now + 1, floor): the last tick…
        assert_eq!(e.submit(unstamped(8, 100)).unwrap().submit, 50);
        // …or just past `now` when a tick stopped on a processed batch.
        e.advance(100).unwrap(); // job 1 ends at 100
        assert_eq!(e.ctl.state.now, SimTime(100));
        assert_eq!(e.submit(unstamped(8, 100)).unwrap().submit, 101);
    }

    #[test]
    fn one_advance_replays_the_ticks_before_it() {
        // `step_until` composes: the reason a realtime WAL may keep only the
        // last tick before each logged mutation.
        let session = |ticks: &[u64]| {
            let mut e = engine(REALTIME);
            for i in 0..6u64 {
                e.submit(request(16 + 8 * (i % 3), 40 + 30 * i, i * 7)).unwrap();
            }
            for &to in ticks {
                e.advance(to).unwrap();
            }
            e.checkpoint_payload()
        };
        let every_3s: Vec<u64> = (0..=100).map(|k| 3 * k).collect();
        assert!(session(&every_3s) == session(&[300]));
    }

    #[test]
    fn a_durable_realtime_session_logs_ticks_lazily_and_recovers() {
        // Ticks are direct advances. Returns the records written after each
        // step (0 throughout without a WAL).
        fn session(e: &mut Engine) -> Vec<u64> {
            let written = |e: &mut Engine| e.snapshot().wal.map_or(0, |w| w.records_written);
            let tick = |e: &mut Engine, to: u64| assert_eq!(e.advance(to), Ok(to));
            let mut log = Vec::new();
            [10, 20, 30].into_iter().for_each(|to| tick(e, to));
            log.push(written(e));
            e.submit(unstamped(16, 100)).unwrap();
            log.push(written(e));
            e.submit(unstamped(16, 100)).unwrap();
            log.push(written(e));
            (31..=40).for_each(|to| tick(e, to)); // jobs 1 and 2 start at 30
            e.cancel(2).unwrap();
            log.push(written(e));
            (41..=191).step_by(10).for_each(|to| tick(e, to)); // job 1 ends at 130
            assert_eq!(e.submit(unstamped(8, 100)).unwrap().submit, 191);
            log.push(written(e));
            // This tick leaves the floor where it was but starts job 3, so it
            // is logged too: replay must find job 3 running when cancelled.
            tick(e, 191);
            assert_eq!(e.job_view(3).unwrap().state, "running");
            e.cancel(3).unwrap();
            log.push(written(e));
            (0..5).for_each(|_| tick(e, 250));
            log.push(written(e));
            log
        }
        let dir = tmp_dir("ticks");
        let mut e = recover_engine(&dir).0.with_clock(REALTIME);
        // Idle ticks write nothing; a mutation after a moved floor writes the
        // `Advance`, then itself; one with no tick since writes itself alone.
        assert_eq!(session(&mut e), [0, 2, 3, 5, 7, 9, 9]);
        drop(e); // crash: no shutdown checkpoint, the last ticks unlogged

        let (recovered, status) = recover_engine(&dir);
        let mut recovered = recovered.with_clock(REALTIME);
        assert_eq!(status.records_replayed, 2, "Advance(191), Cancel(3)");
        recovered.advance(250).unwrap();
        let mut twin = engine(REALTIME);
        session(&mut twin);
        assert!(recovered.checkpoint_payload() == twin.checkpoint_payload(), "recovery ≡ never crashed");
        // A checkpoint covers the tick to 250: the next mutation is alone.
        recovered.shutdown();
        let written = |e: &mut Engine| e.snapshot().wal.unwrap().records_written;
        let before = written(&mut recovered);
        assert_eq!(recovered.cancel(1), Err(EngineError::NotPending(1)));
        assert_eq!(written(&mut recovered), before + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One logged command of [`FAULTED_SESSION`]; `at: None` is unstamped.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Submit { procs: u64, run: u64, at: Option<u64> },
        Cancel(u64),
        Advance(u64),
        Drain,
    }

    fn apply(e: &mut Engine, op: Op) -> Result<(), EngineError> {
        match op {
            Op::Submit { procs, run, at } => e.submit(SubmitRequest { submit: at, ..request(procs, run, 0) }).map(drop),
            Op::Cancel(id) => e.cancel(id),
            Op::Advance(to) => e.advance(to).map(drop),
            Op::Drain => e.drain().map(drop),
        }
    }

    /// Every kind of logged command, two logged refusals (an instant already
    /// simulated, an unknown id) and, at three records per checkpoint,
    /// periodic checkpoints between them. In realtime the advances are ticks,
    /// and the unstamped submit lands where the tick before it left the floor.
    const FAULTED_SESSION: [Op; 10] = [
        Op::Submit { procs: 16, run: 200, at: Some(0) },
        Op::Submit { procs: 64, run: 300, at: Some(5) },
        Op::Advance(50),
        Op::Submit { procs: 16, run: 200, at: None },
        Op::Cancel(2),
        Op::Submit { procs: 8, run: 50, at: Some(3) },
        Op::Advance(250),
        Op::Cancel(99),
        Op::Submit { procs: 16, run: 100, at: Some(300) },
        Op::Drain,
    ];

    /// The state an engine that never touched a disk reaches on the session's
    /// commands that `keep` picks.
    fn twin_payload(mode: ClockMode, keep: impl Fn(usize) -> bool) -> Vec<u8> {
        let mut twin = engine(mode);
        for (i, &op) in FAULTED_SESSION.iter().enumerate() {
            if keep(i) {
                let _ = apply(&mut twin, op);
            }
        }
        twin.advance(250).unwrap();
        twin.checkpoint_payload()
    }

    /// How a faulted session checkpoints: every `every` records, and at a
    /// shutdown before the crash when `stop`.
    #[derive(Debug, Clone, Copy)]
    struct Cadence {
        every: u64,
        stop: bool,
    }

    /// Runs [`FAULTED_SESSION`] on a durable engine over `storage`, then
    /// crashes. Returns which commands were refused for storage.
    fn faulted_session(mode: ClockMode, storage: fault::Faulty, cadence: Cadence) -> Vec<bool> {
        let Ok((store, rec)) = DurableStore::open_with(Box::new(storage), FsyncPolicy::Always) else {
            return vec![true; FAULTED_SESSION.len()]; // no store, no command acked
        };
        let mut e = engine(mode);
        e.dur = Some(Durability {
            store,
            checkpoint_every: cadence.every,
            records_since_checkpoint: 0,
            next_seq: rec.next_seq,
            unlogged_floor: None,
            replayed: 0,
            recovery_seconds: 0.0,
            recovered: None,
        });
        let refused = FAULTED_SESSION
            .iter()
            .map(|&op| matches!(apply(&mut e, op), Err(EngineError::Storage(_))))
            .collect();
        if cadence.stop {
            e.shutdown();
        }
        refused
    }

    /// A failed append refuses its command, a failed checkpoint is retried,
    /// and recovery brings back exactly the acknowledged commands — for each
    /// storage fault at each call of a session, once or from that call on,
    /// with periodic checkpoints, with a shutdown's before the crash, or with
    /// none (which leaves every record in the log). The one
    /// exception: when a fault persists, the first refused command's frame
    /// may survive the failed cut-back, and its outcome is unknown.
    #[test]
    fn recovery_holds_exactly_the_acked_commands_under_every_storage_fault() {
        let cadences = [(3, false), (3, true), (u64::MAX, false)].map(|(every, stop)| Cadence { every, stop });
        for (mode, cadence) in [ClockMode::Virtual, REALTIME].into_iter().flat_map(|m| cadences.map(|c| (m, c))) {
            let dir = tmp_dir("faults");
            let counting = fault::Faulty::counting(&dir);
            let calls = counting.calls();
            assert!(faulted_session(mode, counting, cadence).iter().all(|&r| !r));
            std::fs::remove_dir_all(&dir).unwrap();
            let calls = calls.load(std::sync::atomic::Ordering::Relaxed);
            for fault in fault::FAULTS {
                let mut refusals = 0;
                for from_on in [false, true] {
                    for at in 0..calls {
                        let case = format!("{mode:?} {cadence:?} {fault:?} at call {at}{}", if from_on { " on" } else { "" });
                        let dir = tmp_dir("faults");
                        let refused = faulted_session(mode, fault::Faulty::new(&dir, fault, at, from_on), cadence);
                        let (mut recovered, _) = recover_engine(&dir);
                        recovered.advance(250).unwrap();
                        let got = recovered.checkpoint_payload();
                        let acked = twin_payload(mode, |i| !refused[i]);
                        let first = refused.iter().position(|&r| r);
                        let unknown = from_on && first.is_some_and(|f| got == twin_payload(mode, |i| !refused[i] || i == f));
                        assert!(got == acked || unknown, "{case}: refused {refused:?}");
                        refusals += refused.iter().filter(|&&r| r).count();
                        std::fs::remove_dir_all(&dir).unwrap();
                    }
                }
                assert!(refusals > 0, "{mode:?} {cadence:?} {fault:?} never refused a command");
            }
        }
    }

    #[test]
    fn every_command_answers_what_its_method_returns() {
        // One thread drives all ten variants through `run`; a twin fed the
        // same sequence by direct calls must return the same values.
        let traced = || engine(ClockMode::Virtual).with_trace(Arc::new(TraceRing::new(1024)));
        let mut twin = traced();
        let (tx, h) = spawn(traced());
        for at in [0, 1] {
            let live = call(&tx, |reply| Command::Submit { req: request(64, 1000, at), reply });
            assert_eq!(live, twin.submit(request(64, 1000, at)));
        }
        assert_eq!(call(&tx, |reply| Command::Advance { to: 10, reply }), twin.advance(10));
        assert_eq!(call(&tx, |reply| Command::JobInfo { id: 2, reply }), twin.job_view(2));
        assert_eq!(call(&tx, |reply| Command::Explain { id: 1, reply }), twin.explain(1));
        assert_eq!(call(&tx, |reply| Command::Queue { limit: 10, reply }), twin.queue(10));
        assert_eq!(call(&tx, |reply| Command::Cancel { id: 2, reply }), twin.cancel(2));
        // Probe counters belong to the thread that ran the pass.
        let untimed = |s: Snapshot| Snapshot { timing: Vec::new(), ..s };
        assert_eq!(untimed(call(&tx, |reply| Command::Stats { reply })), untimed(twin.snapshot()));
        assert_eq!(call(&tx, |reply| Command::Drain { reply }), twin.drain());
        assert_eq!(call(&tx, |reply| Command::Result { reply }), twin.result());
        let last = call(&tx, |reply| Command::Shutdown { reply });
        assert_eq!(last, twin.shutdown());
        assert_eq!(h.join().unwrap(), last, "the loop stops on shutdown and returns its result");
    }
}
