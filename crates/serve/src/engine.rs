//! The scheduler thread: single writer over the simulation.
//!
//! Every HTTP worker translates its request into a [`Command`] and sends it
//! over one mpsc channel; this loop is the only code that ever touches the
//! [`SimState`]/[`Controller`]. That keeps the scheduler hot path
//! single-writer by construction — no locks around the availability-profile
//! cache, the queue index or the energy meter (DESIGN.md §10).
//!
//! Two clock modes share one code path ([`Controller::step_until`], the same
//! loop `Controller::run` uses offline):
//!
//! * **Virtual** (deterministic): the clock only advances when a client asks
//!   (`/v1/clock/advance`, `/v1/drain`). Submissions carry explicit virtual
//!   timestamps; a scripted session therefore feeds the simulator the exact
//!   event sequence an offline replay would build up front, and produces a
//!   bit-identical [`SimResult`] (pinned by `tests/serve_equivalence.rs`).
//! * **Realtime**: the clock tracks the wall clock scaled by a compression
//!   factor (sim-seconds per wall-second); due events are processed as their
//!   instants pass, and submissions default to "now".

use crate::durable::{EngineCheckpoint, WalCmd};
use crate::metrics::ServeHistograms;
use crate::proto::SubmitRequest;
use sd_durable::{DurableStore, FsyncPolicy};
use simkit::SimTime;
use slurm_sim::timing::{self, FnTiming};
use slurm_sim::{
    Controller, DirtyFlags, JobState, Scheduler, SimResult, SimState, SubmitError, TraceRing,
};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
#[derive(Debug, Clone)]
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
    /// The engine thread's hot-path probe counters (`timing::report()`
    /// taken on that thread): they count while an `arm` window is open.
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct QueueView {
    pub id: u64,
    pub req_nodes: u32,
    pub req_time: u64,
}

/// The decision chain of one job for `GET /v1/explain/{id}`: its current
/// status plus every trace event that mentions it, oldest first.
#[derive(Debug, Clone)]
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
    /// Operation requires the other clock mode.
    WrongMode(&'static str),
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
            EngineError::WrongMode(m) => write!(f, "{m}"),
        }
    }
}

/// Commands from the HTTP workers. Each carries its own reply channel.
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
    /// Virtual mode: process every event batch with `time <= to`.
    Advance {
        to: u64,
        reply: Sender<Result<u64, EngineError>>,
    },
    /// Virtual mode: run the event loop until nothing remains; replies with
    /// the final clock.
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
/// state-mutating command is logged *before* it is applied; a checkpoint is
/// installed (collapsing the log) every `checkpoint_every` records and at
/// shutdown.
struct Durability {
    store: DurableStore,
    checkpoint_every: u64,
    records_since_checkpoint: u64,
    /// Next WAL sequence number (global, resumes across restarts).
    next_seq: u64,
    replayed: u64,
    recovery_seconds: f64,
    recovered: Option<&'static str>,
    /// A failed append or checkpoint makes recovery guarantees void; noted
    /// once (loudly) and surfaced here rather than crashing the service.
    degraded: bool,
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

    /// Installs `payload` as the checkpoint covering every logged record and
    /// resets the record counter. A failure degrades durability loudly.
    fn install(&mut self, payload: &[u8]) {
        // Seqs start at 1, so `next_seq - 1` is the last logged (= applied)
        // record; 0 = "nothing beyond the checkpoint".
        let applied = self.next_seq - 1;
        if let Err(e) = self.store.install_checkpoint(applied, payload) {
            if !self.degraded {
                sd_obs::log_event!(
                    Error,
                    "wal",
                    "checkpoint failed ({e}); crash recovery is no longer guaranteed";
                    applied = applied
                );
            }
            self.degraded = true;
        } else {
            sd_obs::log_event!(Debug, "wal", "checkpoint installed"; applied = applied);
        }
        self.records_since_checkpoint = 0;
    }
}

/// Running aggregates over the simulator's append-only outcome list, kept
/// so a read folds only the outcomes completed since the previous read.
/// Folding is the same additions in the same order as one pass over the
/// whole list, so every sum — and every mean derived from it — is
/// bit-identical to a from-scratch recompute. Derived state: starts empty
/// on every boot (the first read after a recovery folds everything once)
/// and is never serialised.
struct OutcomeFold {
    /// Outcomes already folded: `outcomes()[..seen]`.
    seen: usize,
    slowdown: f64,
    response: f64,
    wait: f64,
    wait_hist: sched_metrics::Histogram,
}

impl OutcomeFold {
    fn new() -> OutcomeFold {
        OutcomeFold {
            seen: 0,
            slowdown: 0.0,
            response: 0.0,
            wait: 0.0,
            wait_hist: sched_metrics::Histogram::wait_seconds(),
        }
    }

    fn catch_up(&mut self, outcomes: &[slurm_sim::JobOutcome]) {
        for o in &outcomes[self.seen..] {
            self.slowdown += o.slowdown();
            self.response += o.response() as f64;
            self.wait += o.wait() as f64;
            self.wait_hist.observe(o.wait() as f64);
        }
        self.seen = outcomes.len();
    }
}

/// The engine: owns the controller, executes commands sequentially.
pub struct Engine {
    ctl: Controller<Box<dyn Scheduler + Send>>,
    mode: ClockMode,
    /// Virtual mode: highest instant the clock was advanced to. Submissions
    /// must not land before it (they would rewrite already-simulated past).
    floor: SimTime,
    /// Realtime mode: wall anchor of sim t = 0.
    epoch: Instant,
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
}

/// Wraps the configured scheduler to time each pass into the service's
/// wall-clock histograms (`sd_serve_pass_duration_seconds`).
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

/// Placeholder used only while swapping the scheduler box in
/// [`Engine::with_histograms`]; never scheduled.
struct NeverScheduled;

impl Scheduler for NeverScheduled {
    fn schedule(&mut self, _st: &mut SimState) {
        unreachable!("placeholder scheduler must be replaced before use");
    }
}

impl Engine {
    pub fn new(state: SimState, scheduler: Box<dyn Scheduler + Send>, mode: ClockMode) -> Engine {
        Engine {
            ctl: Controller::new(state, scheduler),
            mode,
            floor: SimTime::ZERO,
            epoch: Instant::now(),
            submitted: 0,
            tenant_rates: Default::default(),
            tenant_wire: Default::default(),
            trace: None,
            dur: None,
            fold: OutcomeFold::new(),
        }
    }

    /// Builds a crash-tolerant virtual-clock engine: opens (or creates) the
    /// durable store at `dir`, restores the checkpointed state, replays the
    /// outstanding WAL records through the exact command paths the live
    /// service uses, and installs a fresh checkpoint so the next boot starts
    /// from a collapsed log. Returns the engine plus a recovery summary.
    ///
    /// The WAL requires the deterministic virtual clock: realtime replay
    /// would re-time events against a different wall clock.
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
        let recovered = if rec.is_fresh() {
            None
        } else if rec.torn_tail {
            Some("torn_tail")
        } else {
            Some("clean")
        };
        let mut engine = match &rec.checkpoint {
            Some(bytes) => {
                let cp = EngineCheckpoint::decode(bytes)
                    .map_err(|e| format!("corrupt engine checkpoint: {e}"))?;
                let state = SimState::restore(spec, cfg, rate_model, sharing, &cp.state)
                    .map_err(|e| format!("restore checkpointed state: {e}"))?;
                let mut e = Engine::new(state, scheduler, ClockMode::Virtual);
                e.floor = SimTime(cp.floor);
                e.submitted = cp.submitted;
                e.tenant_wire = cp
                    .tenant_wire
                    .into_iter()
                    .map(|(t, s, r)| {
                        (t, TenantWire { submitted: s, rate_limited: r })
                    })
                    .collect();
                e
            }
            None => Engine::new(
                SimState::new_online(spec, cfg, rate_model, sharing),
                scheduler,
                ClockMode::Virtual,
            ),
        };
        let mut replayed = 0u64;
        for record in &rec.records {
            let cmd = WalCmd::decode(&record.payload)
                .map_err(|e| format!("undecodable WAL record seq {}: {e}", record.seq))?;
            engine.apply_replayed(cmd);
            replayed += 1;
        }
        let mut d = Durability {
            store,
            checkpoint_every: checkpoint_every.max(1),
            records_since_checkpoint: 0,
            next_seq: rec.next_seq,
            replayed,
            recovery_seconds: 0.0,
            recovered,
            degraded: false,
        };
        // Collapse the replayed log so a crash during this session never
        // replays the previous session's records on top of them again.
        d.install(&engine.checkpoint_payload());
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

    /// Times every scheduler pass into `hists.pass_seconds`.
    pub fn with_histograms(mut self, hists: Arc<ServeHistograms>) -> Engine {
        let inner = std::mem::replace(&mut self.ctl.scheduler, Box::new(NeverScheduled));
        self.ctl.scheduler = Box::new(TimedScheduler { inner, hists });
        self
    }

    /// The service clock: everything already simulated or advanced past.
    fn virtual_now(&self) -> SimTime {
        self.ctl.state.now.max(self.floor)
    }

    /// Realtime: the sim instant the wall clock has reached.
    fn realtime_target(&self) -> SimTime {
        let ClockMode::Realtime { compression } = self.mode else {
            unreachable!("realtime_target in virtual mode");
        };
        let elapsed = self.epoch.elapsed().as_secs_f64();
        SimTime((elapsed * compression) as u64)
    }

    /// Runs the command loop to completion. Returns the final result (also
    /// sent to the `Shutdown` requester, if that is how the loop ended).
    pub fn run(mut self, rx: Receiver<Command>) -> SimResult {
        self.epoch = Instant::now();
        loop {
            let cmd = match self.mode {
                ClockMode::Virtual => match rx.recv() {
                    Ok(c) => c,
                    Err(_) => break, // every client handle dropped
                },
                ClockMode::Realtime { compression } => {
                    // Catch the clock up, then wait for either the next
                    // command or the next due event.
                    let target = self.realtime_target();
                    self.ctl.step_until(Some(target));
                    self.floor = self.floor.max(target);
                    let timeout = self
                        .next_event_wall_delay(compression)
                        .unwrap_or(Duration::from_millis(200))
                        .min(Duration::from_millis(200));
                    match rx.recv_timeout(timeout) {
                        Ok(c) => c,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            let stop = self.handle(cmd);
            // Log records carry the virtual instant; publish it after every
            // command so concurrently-emitted records stamp the right time.
            sd_obs::set_virtual_now(self.virtual_now().secs());
            if stop {
                break;
            }
        }
        self.ctl.into_result()
    }

    fn next_event_wall_delay(&self, compression: f64) -> Option<Duration> {
        // peek_time needs &mut (lazy cancellation); approximate with the
        // queue emptiness check and a short poll otherwise.
        if self.ctl.state.events.is_empty() {
            None
        } else {
            Some(Duration::from_millis((50.0 / compression.max(1e-9)) as u64).max(Duration::from_millis(5)))
        }
    }

    /// Executes one command; `true` = shutdown.
    fn handle(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Submit { req, reply } => {
                let _ = reply.send(self.submit(req));
            }
            Command::Cancel { id, reply } => {
                self.log(&WalCmd::Cancel(id));
                let r = self.cancel(id);
                self.maybe_checkpoint();
                let _ = reply.send(r);
            }
            Command::JobInfo { id, reply } => {
                let _ = reply.send(self.job_view(id));
            }
            Command::Explain { id, reply } => {
                let _ = reply.send(self.explain(id));
            }
            Command::Queue { limit, reply } => {
                let st = &self.ctl.state;
                let entries = st
                    .queue
                    .prefix(limit)
                    .map(|e| QueueView {
                        id: e.job.0,
                        req_nodes: e.req_nodes,
                        req_time: e.req_time,
                    })
                    .collect();
                let _ = reply.send((st.queue.len(), entries));
            }
            Command::Stats { reply } => {
                let _ = reply.send(self.snapshot());
            }
            Command::Advance { to, reply } => {
                self.log(&WalCmd::Advance(to));
                let r = self.advance(to);
                self.maybe_checkpoint();
                let _ = reply.send(r);
            }
            Command::Drain { reply } => {
                if self.mode == ClockMode::Virtual {
                    self.log(&WalCmd::Drain);
                    self.ctl.step_until(None);
                    self.maybe_checkpoint();
                    let _ = reply.send(Ok(self.virtual_now().secs()));
                } else {
                    let _ = reply.send(Err(EngineError::WrongMode(
                        "drain requires the virtual clock",
                    )));
                }
            }
            Command::Result { reply } => {
                let name = self.ctl.scheduler.name();
                let _ = reply.send(SimResult::snapshot(&self.ctl.state, name));
            }
            Command::Shutdown { reply } => {
                // Final checkpoint: a restart after a graceful stop resumes
                // from the exact shutdown state with an empty log.
                self.checkpoint_now();
                let name = self.ctl.scheduler.name();
                let _ = reply.send(SimResult::snapshot(&self.ctl.state, name));
                return true;
            }
        }
        false
    }

    /// Earliest legal submit instant (virtual mode). Every batch at an
    /// instant ≤ `state.now` has already run, so a new event there would
    /// split what offline is one batch into two (diverging the pass
    /// accounting): the bound is exclusive of `now` once anything has been
    /// dispatched. Instants between `now` and the advance floor hold no
    /// processed batches and stay legal.
    fn min_virtual_submit(&self) -> SimTime {
        let now = self.ctl.state.now;
        if self.ctl.state.stats.events_dispatched > 0 {
            SimTime(now.secs() + 1)
        } else {
            now
        }
    }

    /// Appends one command to the WAL (no-op without `--wal`). Called
    /// *before* the command is applied — the log is a total order of
    /// effects. An append failure cannot be surfaced to the already-running
    /// simulation, so it degrades durability loudly instead of crashing.
    fn log(&mut self, cmd: &WalCmd) {
        let Some(d) = self.dur.as_mut() else { return };
        let seq = d.next_seq;
        d.next_seq += 1;
        d.records_since_checkpoint += 1;
        if let Err(e) = d.store.append(seq, &cmd.encode()) {
            if !d.degraded {
                sd_obs::log_event!(
                    Error,
                    "wal",
                    "append failed ({e}); crash recovery is no longer guaranteed";
                    seq = seq
                );
            }
            d.degraded = true;
        }
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
        d.install(&self.checkpoint_payload());
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

    /// Re-applies one recovered WAL command. Replay goes through the same
    /// code paths live traffic does, minus the WAL append (the record is
    /// already on disk) and minus the rate limiter (refusals were never
    /// logged, and throttling is a wall-clock concern).
    fn apply_replayed(&mut self, cmd: WalCmd) {
        match cmd {
            WalCmd::Submit(req) => {
                let _ = self.apply_submit(req);
            }
            WalCmd::Cancel(id) => {
                let _ = self.cancel(id);
            }
            WalCmd::Advance(to) => {
                let _ = self.advance(to);
            }
            WalCmd::Drain => self.ctl.step_until(None),
        }
    }

    fn submit(&mut self, req: SubmitRequest) -> Result<SubmitAck, EngineError> {
        let tenant = req.tenant.unwrap_or(0);
        if let Some(bucket) = self.tenant_rates.get_mut(&tenant) {
            if !bucket.allow() {
                self.tenant_wire.entry(tenant).or_default().rate_limited += 1;
                return Err(EngineError::RateLimited(tenant));
            }
        }
        // Log after the (non-deterministic, wall-clock) rate gate but before
        // any effect: replay then reproduces exactly the accepted traffic.
        self.log(&WalCmd::Submit(req.clone()));
        let ack = self.apply_submit(req);
        match &ack {
            Ok(a) => {
                sd_obs::log_event!(Debug, "engine", "submit accepted";
                    id = a.id, tenant = tenant, submit = a.submit);
            }
            Err(e) => {
                sd_obs::log_event!(Debug, "engine", "submit refused: {e}"; tenant = tenant);
            }
        }
        self.maybe_checkpoint();
        ack
    }

    fn apply_submit(&mut self, req: SubmitRequest) -> Result<SubmitAck, EngineError> {
        let tenant = req.tenant.unwrap_or(0);
        let (min, default) = match self.mode {
            ClockMode::Virtual => {
                let min = self.min_virtual_submit();
                (min, min.max(self.floor))
            }
            ClockMode::Realtime { .. } => {
                let target = self.realtime_target();
                (self.ctl.state.now, target)
            }
        };
        let submit = match req.submit {
            Some(t) => {
                if SimTime(t) < min {
                    return Err(EngineError::Clock(format!(
                        "submit time {t} is at or before an already-simulated instant \
                         (earliest accepted: {})",
                        min.secs()
                    )));
                }
                t
            }
            None => default.secs(),
        };
        // Dense id = next job-table slot (SimState assigns the same); the
        // malleability draw forks from the client's trace identity when
        // given, matching the offline constructor on the same trace.
        let id = self.ctl.state.job_count() as u64 + 1;
        let sj = req.to_swf(req.trace_id.unwrap_or(id), submit);
        match self.ctl.state.submit_job(&sj, req.malleable) {
            Ok(id) => {
                self.submitted += 1;
                self.tenant_wire.entry(tenant).or_default().submitted += 1;
                Ok(SubmitAck { id: id.0, submit })
            }
            Err(SubmitError::Unusable) => Err(EngineError::Rejected(
                "job record cannot be simulated (check procs/run_time)".into(),
            )),
            Err(e @ SubmitError::InPast { .. }) => Err(EngineError::Clock(e.to_string())),
        }
    }

    fn cancel(&mut self, id: u64) -> Result<(), EngineError> {
        if id == 0 || id as usize > self.ctl.state.job_count() {
            return Err(EngineError::NoSuchJob(id));
        }
        if self.ctl.state.cancel_job(cluster::JobId(id)) {
            // A dropped queue entry can unblock backfill immediately; run a
            // (gated) pass now instead of waiting for the next event batch.
            self.ctl.pass_now();
            Ok(())
        } else {
            Err(EngineError::NotPending(id))
        }
    }

    fn advance(&mut self, to: u64) -> Result<u64, EngineError> {
        if self.mode != ClockMode::Virtual {
            return Err(EngineError::WrongMode(
                "advance requires the virtual clock (realtime advances itself)",
            ));
        }
        self.ctl.step_until(Some(SimTime(to)));
        self.floor = self.floor.max(SimTime(to));
        sd_obs::log_event!(Debug, "engine", "clock advanced"; to = to);
        Ok(self.virtual_now().secs())
    }

    fn job_view(&self, id: u64) -> Result<JobView, EngineError> {
        if id == 0 || id as usize > self.ctl.state.job_count() {
            return Err(EngineError::NoSuchJob(id));
        }
        let job = self.ctl.state.job(cluster::JobId(id));
        let run = job.running();
        // Only a finished job has an outcome; for any other state the scan
        // over every outcome would come back empty.
        let done = match job.state {
            JobState::Done => self.ctl.state.outcomes().iter().find(|o| o.id.0 == id),
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
    fn explain(&self, id: u64) -> Result<ExplainView, EngineError> {
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

    fn snapshot(&mut self) -> Snapshot {
        let st = &self.ctl.state;
        let outcomes = st.outcomes();
        self.fold.catch_up(outcomes);
        let n = outcomes.len().max(1) as f64;
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
            mean_slowdown: self.fold.slowdown / n,
            mean_response: self.fold.response / n,
            mean_wait: self.fold.wait / n,
            makespan: st.last_end().since(st.first_submit().min(st.last_end())),
            submitted: self.submitted,
            tenants: self.tenant_snaps(),
            wait_hist: self.fold.wait_hist.clone(),
            wal: self.dur.as_ref().map(Durability::status),
            timing: timing::report(),
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
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use drom::SharingFactor;
    use sd_policy::SdPolicy;
    use slurm_sim::{IdealModel, SlurmConfig};
    use std::sync::mpsc;

    /// An empty 8-node online state.
    fn small_state() -> SimState {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 8;
        SimState::new_online(
            spec,
            SlurmConfig::default(),
            Box::new(IdealModel),
            SharingFactor::HALF,
        )
    }

    fn spawn_engine(mode: ClockMode) -> (Sender<Command>, std::thread::JoinHandle<SimResult>) {
        let engine = Engine::new(small_state(), Box::new(SdPolicy::default()), mode);
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || engine.run(rx));
        (tx, h)
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

    fn submit(tx: &Sender<Command>, procs: u64, run: u64, at: u64) -> Result<SubmitAck, EngineError> {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Submit { req: request(procs, run, at), reply: rtx })
            .unwrap();
        rrx.recv().unwrap()
    }

    fn drain(tx: &Sender<Command>) -> u64 {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Drain { reply: rtx }).unwrap();
        rrx.recv().unwrap().unwrap()
    }

    fn shutdown(tx: &Sender<Command>) -> SimResult {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Shutdown { reply: rtx }).unwrap();
        rrx.recv().unwrap()
    }

    #[test]
    fn virtual_session_submits_drains_and_reports() {
        let (tx, h) = spawn_engine(ClockMode::Virtual);
        for i in 0..5u64 {
            let ack = submit(&tx, 8, 100, i * 10).unwrap();
            assert_eq!(ack.id, i + 1);
        }
        drain(&tx);
        let res = shutdown(&tx);
        assert_eq!(res.outcomes.len(), 5);
        assert_eq!(res.leftover_pending, 0);
        let joined = h.join().unwrap();
        assert_eq!(joined, res, "shutdown snapshot equals the final result");
    }

    #[test]
    fn stats_carry_the_engine_threads_own_probes() {
        // An armed window reaches the engine thread, which counts on its own
        // counters and publishes them in its snapshot; this thread's stay 0.
        timing::reset();
        timing::arm();
        let (tx, h) = spawn_engine(ClockMode::Virtual);
        for i in 0..4u64 {
            submit(&tx, 64, 100, i).unwrap();
        }
        drain(&tx);
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Stats { reply: rtx }).unwrap();
        let snap = rrx.recv().unwrap();
        timing::disarm();
        shutdown(&tx);
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
        let (tx, h) = spawn_engine(ClockMode::Virtual);
        submit(&tx, 8, 50, 100).unwrap();
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Advance { to: 500, reply: rtx }).unwrap();
        assert_eq!(rrx.recv().unwrap().unwrap(), 500);
        // The job ran 100→150, so batches exist at 100 and 150: instants up
        // to and *including* 150 are closed (a new event there would split
        // an offline batch in two)…
        for at in [0, 100, 149, 150] {
            let err = submit(&tx, 8, 50, at).unwrap_err();
            assert!(matches!(err, EngineError::Clock(_)), "t={at}: {err:?}");
        }
        // …while unprocessed instants stay open, even below the advance
        // floor — offline would order those batches identically.
        submit(&tx, 8, 50, 151).unwrap();
        submit(&tx, 8, 50, 300).unwrap();
        submit(&tx, 8, 50, 500).unwrap();
        drain(&tx);
        let res = shutdown(&tx);
        h.join().unwrap();
        assert_eq!(res.outcomes.len(), 4);
    }

    #[test]
    fn cancel_covers_pending_and_running_but_not_done() {
        let (tx, h) = spawn_engine(ClockMode::Virtual);
        // Two machine-filling jobs: the second stays queued at t=0.
        submit(&tx, 64, 1000, 0).unwrap();
        submit(&tx, 64, 1000, 0).unwrap();
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Advance { to: 0, reply: rtx }).unwrap();
        rrx.recv().unwrap().unwrap();

        let cancel = |id: u64| {
            let (rtx, rrx) = mpsc::channel();
            tx.send(Command::Cancel { id, reply: rtx }).unwrap();
            rrx.recv().unwrap()
        };
        assert_eq!(cancel(2), Ok(()), "pending");
        assert_eq!(cancel(2), Err(EngineError::NotPending(2)), "already gone");
        assert_eq!(cancel(1), Ok(()), "running jobs are cancellable too");
        assert_eq!(cancel(99), Err(EngineError::NoSuchJob(99)));
        // A third job runs to completion and can no longer be cancelled.
        submit(&tx, 8, 50, 1).unwrap();
        drain(&tx);
        assert_eq!(cancel(3), Err(EngineError::NotPending(3)), "done");
        let res = shutdown(&tx);
        h.join().unwrap();
        assert_eq!(res.outcomes.len(), 1, "cancelled jobs record no outcome");
        assert_eq!(res.stats.cancelled, 2);
    }

    #[test]
    fn tenant_rate_limit_rejects_burst_and_counts() {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 8;
        let state = SimState::new_online(
            spec,
            SlurmConfig::default(),
            Box::new(IdealModel),
            SharingFactor::HALF,
        );
        // Tenant 2: one-token bucket at a negligible refill rate.
        let engine = Engine::new(state, Box::new(SdPolicy::default()), ClockMode::Virtual)
            .with_tenant_rates(&[(2, 1e-6)]);
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || engine.run(rx));

        let submit_as = |tenant: Option<u64>, at: u64| {
            let (rtx, rrx) = mpsc::channel();
            tx.send(Command::Submit {
                req: SubmitRequest {
                    procs: 8,
                    req_time: 100,
                    run_time: 50,
                    submit: Some(at),
                    malleable: None,
                    trace_id: None,
                    tenant,
                    project: None,
                },
                reply: rtx,
            })
            .unwrap();
            rrx.recv().unwrap()
        };
        submit_as(Some(2), 0).unwrap();
        assert_eq!(
            submit_as(Some(2), 1).unwrap_err(),
            EngineError::RateLimited(2),
            "burst capacity 1: the second submit is refused"
        );
        // Unlimited tenants are unaffected.
        submit_as(Some(1), 2).unwrap();
        submit_as(None, 3).unwrap();

        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Stats { reply: rtx }).unwrap();
        let snap = rrx.recv().unwrap();
        let row = |t: u64| snap.tenants.iter().find(|r| r.tenant == t).unwrap();
        assert_eq!((row(2).submitted, row(2).rate_limited), (1, 1));
        assert_eq!((row(1).submitted, row(1).rate_limited), (1, 0));
        assert_eq!(row(0).submitted, 1);
        shutdown(&tx);
        h.join().unwrap();
    }

    #[test]
    fn explain_returns_decision_chain_from_trace() {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 8;
        let state = SimState::new_online(
            spec,
            SlurmConfig::default(),
            Box::new(IdealModel),
            SharingFactor::HALF,
        );
        let ring = Arc::new(TraceRing::new(4096));
        let engine = Engine::new(state, Box::new(SdPolicy::default()), ClockMode::Virtual)
            .with_trace(ring)
            .with_histograms(Arc::new(ServeHistograms::default()));
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || engine.run(rx));
        // Job 1 fills the machine; job 2 queues behind it.
        submit(&tx, 64, 1000, 0).unwrap();
        submit(&tx, 64, 1000, 1).unwrap();
        drain(&tx);

        let explain = |id: u64| {
            let (rtx, rrx) = mpsc::channel();
            tx.send(Command::Explain { id, reply: rtx }).unwrap();
            rrx.recv().unwrap()
        };
        let v = explain(2).unwrap();
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
        assert!(explain(99).is_err());
        // The pass timer observed at least one pass.
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Stats { reply: rtx }).unwrap();
        let snap = rrx.recv().unwrap();
        assert!(snap.stats.sched_passes > 0);
        assert!(!snap.wait_hist.is_empty(), "completed jobs feed the wait histogram");
        shutdown(&tx);
        h.join().unwrap();
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
    /// so tests exercise both periodic checkpoints and log replay.
    fn recover_engine(dir: &std::path::Path) -> (Engine, WalStatus) {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 8;
        Engine::recover(
            dir,
            FsyncPolicy::Never,
            3,
            spec,
            SlurmConfig::default(),
            Box::new(IdealModel),
            SharingFactor::HALF,
            Box::new(SdPolicy::default()),
        )
        .unwrap()
    }

    fn advance(tx: &Sender<Command>, to: u64) -> u64 {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Advance { to, reply: rtx }).unwrap();
        rrx.recv().unwrap().unwrap()
    }

    #[test]
    fn crash_recovery_resumes_bit_identically() {
        let dir = tmp_dir("crash");
        // Session 1: accepted traffic hits the WAL, then the process
        // "crashes" — the engine is dropped without Shutdown, so no final
        // checkpoint is written.
        {
            let (engine, status) = recover_engine(&dir);
            assert!(status.recovered.is_none(), "fresh directory");
            let (tx, rx) = mpsc::channel();
            let h = std::thread::spawn(move || engine.run(rx));
            for i in 0..4u64 {
                submit(&tx, 16, 200, i * 10).unwrap();
            }
            advance(&tx, 120);
            drop(tx);
            h.join().unwrap();
        }
        // Session 2: recover and finish the run.
        let (engine, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("clean"));
        assert!(status.records_replayed > 0, "{status:?}");
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || engine.run(rx));
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Stats { reply: rtx }).unwrap();
        let snap = rrx.recv().unwrap();
        let wal = snap.wal.expect("durable engine exposes WAL status");
        assert_eq!(wal.records_replayed, status.records_replayed);
        assert!(wal.checkpoints_written >= 1, "recovery collapses the log");
        submit(&tx, 16, 200, 500).unwrap();
        drain(&tx);
        let recovered_result = shutdown(&tx);
        h.join().unwrap();

        // Reference: identical traffic against an engine that never crashed.
        let (tx, h) = spawn_engine(ClockMode::Virtual);
        for i in 0..4u64 {
            submit(&tx, 16, 200, i * 10).unwrap();
        }
        advance(&tx, 120);
        submit(&tx, 16, 200, 500).unwrap();
        drain(&tx);
        let reference = shutdown(&tx);
        h.join().unwrap();
        assert_eq!(recovered_result, reference, "recovery ≡ never crashed");
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
        /// One command through the engine's own dispatch (WAL append included).
        fn step<T>(e: &mut Engine, build: impl FnOnce(Sender<Result<T, EngineError>>) -> Command) {
            let (rtx, rrx) = mpsc::channel();
            e.handle(build(rtx));
            rrx.recv().unwrap().unwrap();
        }
        let submit_job = |e: &mut Engine, procs: u64, run: u64, at: u64| {
            step(e, |reply| Command::Submit { req: request(procs, run, at), reply })
        };
        let dir = tmp_dir("fold");
        let (mut e, _) = recover_engine(&dir);
        assert_snapshot_matches_recompute(&mut e, "empty");
        // Uneven widths and runtimes on 8 nodes: jobs queue, so waits and
        // slowdowns are not all trivial.
        for i in 0..12u64 {
            submit_job(&mut e, 16 + 8 * (i % 4), 70 + 37 * i, i * 5);
            assert_snapshot_matches_recompute(&mut e, "after a submit");
        }
        for to in [60, 61, 200, 450] {
            step(&mut e, |reply| Command::Advance { to, reply });
            assert_snapshot_matches_recompute(&mut e, "after an advance");
            // A read between mutations must not disturb the next fold.
            assert_snapshot_matches_recompute(&mut e, "repeated read");
        }
        step(&mut e, |reply| Command::Cancel { id: 12, reply });
        assert_snapshot_matches_recompute(&mut e, "after a cancel");
        let before_crash = e.fold.seen;
        assert!(before_crash > 0 && before_crash < 11, "mid-session: {before_crash}");
        drop(e); // crash: no shutdown checkpoint

        let (mut e, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("clean"));
        assert_eq!(e.fold.seen, 0, "the cursor is derived state: it restarts at 0");
        assert_snapshot_matches_recompute(&mut e, "first read after recovery");
        assert_eq!(e.fold.seen, before_crash);
        submit_job(&mut e, 24, 90, 500);
        assert_snapshot_matches_recompute(&mut e, "submit after recovery");
        step(&mut e, |reply| Command::Drain { reply });
        assert_snapshot_matches_recompute(&mut e, "drained");
        assert_eq!(e.fold.seen, 12, "11 original completions + 1 after recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_view_reads_outcomes_only_for_finished_jobs() {
        let mut e = Engine::new(small_state(), Box::new(SdPolicy::default()), ClockMode::Virtual);
        // Four machine-filling jobs: at t = 150 one is done, one running,
        // one pending; the fourth is cancelled while pending.
        for at in [0, 1, 2, 3] {
            e.apply_submit(request(64, 100, at)).unwrap();
        }
        e.advance(150).unwrap();
        e.cancel(4).unwrap();
        let view = |id: u64| {
            let v = e.job_view(id).unwrap();
            (v.state, v.start, v.end)
        };
        assert_eq!(view(1), ("done", Some(0), Some(100)));
        assert_eq!(view(2), ("running", Some(100), None));
        assert_eq!(view(3), ("pending", None, None));
        assert_eq!(view(4), ("cancelled", None, None));
    }

    #[test]
    fn torn_wal_tail_is_discarded_without_panic() {
        let dir = tmp_dir("torn");
        {
            let (engine, _) = recover_engine(&dir);
            let (tx, rx) = mpsc::channel();
            let h = std::thread::spawn(move || engine.run(rx));
            submit(&tx, 8, 100, 0).unwrap();
            submit(&tx, 8, 100, 1).unwrap();
            drop(tx);
            h.join().unwrap();
        }
        // A torn append: half a frame of garbage at the log tail.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[0x13, 0x37, 0xFF]).unwrap();
        drop(f);
        let (engine, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("torn_tail"));
        assert_eq!(status.records_replayed, 2, "valid prefix fully replayed");
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || engine.run(rx));
        drain(&tx);
        let res = shutdown(&tx);
        h.join().unwrap();
        assert_eq!(res.outcomes.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graceful_shutdown_checkpoint_collapses_log() {
        let dir = tmp_dir("grace");
        {
            let (engine, _) = recover_engine(&dir);
            let (tx, rx) = mpsc::channel();
            let h = std::thread::spawn(move || engine.run(rx));
            submit(&tx, 8, 100, 0).unwrap();
            drain(&tx);
            shutdown(&tx);
            h.join().unwrap();
        }
        let (engine, status) = recover_engine(&dir);
        assert_eq!(status.recovered, Some("clean"));
        assert_eq!(status.records_replayed, 0, "shutdown checkpoint collapsed the log");
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || engine.run(rx));
        let res = shutdown(&tx);
        h.join().unwrap();
        assert_eq!(res.outcomes.len(), 1, "completed work survives restarts");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn realtime_mode_processes_events_from_wall_clock() {
        let (tx, h) = spawn_engine(ClockMode::Realtime {
            compression: 10_000.0,
        });
        // Submit "now"; 100 sim-seconds pass in 10 ms of wall time.
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Submit {
            req: SubmitRequest {
                procs: 8,
                req_time: 200,
                run_time: 100,
                submit: None,
                malleable: None,
                trace_id: None,
                tenant: None,
                project: None,
            },
            reply: rtx,
        })
        .unwrap();
        rrx.recv().unwrap().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let (rtx, rrx) = mpsc::channel();
            tx.send(Command::Stats { reply: rtx }).unwrap();
            let snap = rrx.recv().unwrap();
            if snap.completed == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "job never completed: {snap:?}");
        }
        let res = shutdown(&tx);
        h.join().unwrap();
        assert_eq!(res.outcomes.len(), 1);
    }
}
