//! Canonical serialization of [`SimState`] for crash-tolerant serving
//! (DESIGN.md §14).
//!
//! [`SimState::checkpoint_bytes`] captures every order-sensitive primary
//! structure field-for-field (floats via `to_bits`, so the round trip is
//! bit-exact); [`SimState::restore`] rebuilds the derived indices
//! (running sets, release counts, the availability cache, pass scratch)
//! canonically and re-validates the whole state. Configuration that the
//! caller re-supplies on restart (cluster spec, scheduler config, rate
//! model, sharing factor) is *not* serialized — a small fingerprint guards
//! against restoring a checkpoint under a different configuration.
//!
//! Values are written and read through `sd_durable::codec` (little-endian,
//! counts guarded against the remaining input); `sd-durable` frames and
//! checksums whatever bytes it is given, and this module owns the field
//! order — what those bytes mean.

use super::*;
use cluster::cpumask::CpuMask;
use sd_durable::codec::{Reader, Writer};
use cluster::NodeOccupancy;
use drom::node::Resident;
use drom::registry::ProcessEntry;
use drom::DromHandle;
use workload::AppId;

const MAGIC: u32 = 0x5344_5353; // "SDSS"
const VERSION: u32 = 1;

// ----------------------------------------------------------------------
// Domain helpers over the shared codec
// ----------------------------------------------------------------------

fn put_mask(w: &mut Writer<'_>, m: &CpuMask) {
    w.u32(m.width() as u32);
    w.len(m.words().len());
    for &word in m.words() {
        w.u64(word);
    }
}

/// A mask over a `cores`-wide node; any other width is rejected, since
/// mask arithmetic assumes both sides cover the same node.
fn read_mask(r: &mut Reader<'_>, cores: u32) -> Result<CpuMask, String> {
    let width = r.u32()?;
    if width != cores {
        return Err(format!("CPU mask is {width} cores wide, nodes have {cores}"));
    }
    let n = r.len(8)?;
    let words = (0..n).map(|_| r.u64()).collect::<Result<Vec<u64>, String>>()?;
    CpuMask::from_words(width as usize, &words).ok_or_else(|| "malformed CPU mask".into())
}

/// Smallest encoding of one element of each counted sequence — what
/// [`Reader::len`] divides the remaining input by before a `Vec` is sized.
const MASK_MIN: usize = 4 + 8; // width, word count
const JOB_MIN: usize = 8 + 8 + 4 + 8 + 8 + 8 + 1 + 4 + 1 + 4 + 4 + 1; // spec + state tag
const NODE_AND_CORES_MIN: usize = 4 + 4; // one `nodes` entry and its `cores` entry
const QUEUE_ENTRY_MIN: usize = 8 + 4 + 8 + 4;
const EVENT_MIN: usize = 8 + 1 + 8 + 8; // time, tag, job, seq (`End` adds a gen)
const MATE_ENTRY_MIN: usize = 8 + 8 + 8 + 8 + 8 + 4 + 4;
const OCCUPANT_MIN: usize = 8 + 4;
const DROM_ENTRY_MIN: usize = 8 + 8 + 4 + MASK_MIN + 1;
const RESIDENT_MIN: usize = 8 + MASK_MIN + 1 + 1 + 1;
const OUTCOME_MIN: usize = 8 + 8 + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 1 + 1 + 4;
const TENANT_USAGE_MIN: usize = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8;

fn app_to_u8(a: AppId) -> u8 {
    match a {
        AppId::Pils => 0,
        AppId::Stream => 1,
        AppId::CoreNeuron => 2,
        AppId::Nest => 3,
        AppId::Alya => 4,
    }
}

fn app_from_u8(b: u8) -> Result<AppId, String> {
    Ok(match b {
        0 => AppId::Pils,
        1 => AppId::Stream,
        2 => AppId::CoreNeuron,
        3 => AppId::Nest,
        4 => AppId::Alya,
        _ => return Err(format!("unknown AppId tag {b}")),
    })
}

// ----------------------------------------------------------------------
// Encode
// ----------------------------------------------------------------------

impl SimState {
    /// Serializes the full simulator state into a canonical byte image.
    /// Cold path only (checkpoints between batches) — never called from
    /// the scheduling hot loop.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u32(MAGIC);
        w.u32(VERSION);
        // Configuration fingerprint (checked on restore).
        w.u32(self.spec.nodes);
        w.u32(self.spec.node.cores());
        // Hot-path byte, then availability backend tag: one hot path
        // (incremental, `true`) and one backend (the step-function profile,
        // 0) are left; both bytes stay so the image format does not change.
        w.bool(true);
        w.u8(0);
        w.u32(self.cfg.tenants.len() as u32);

        w.u64(self.now.0);

        // Job table (index == id - 1).
        w.len(self.jobs.len());
        for job in &self.jobs {
            let s = &job.spec;
            w.u64(s.id.0);
            w.u64(s.submit.0);
            w.u32(s.req_nodes);
            w.u64(s.req_procs);
            w.u64(s.req_time);
            w.u64(s.static_runtime);
            w.bool(s.malleable);
            w.u32(s.ranks_per_node);
            match s.app {
                None => w.u8(0xFF),
                Some(a) => w.u8(app_to_u8(a)),
            }
            w.u32(s.tenant);
            w.u32(s.project);
            match &job.state {
                JobState::Pending => w.u8(0),
                JobState::Running(r) => {
                    w.u8(1);
                    w.u64(r.start.0);
                    w.len(r.nodes.len());
                    for &n in &r.nodes {
                        w.u32(n.0);
                    }
                    for &c in &r.cores {
                        w.u32(c);
                    }
                    w.u32(r.full_cores);
                    w.f64(r.work_done);
                    w.f64(r.rate);
                    w.u64(r.last_banked.0);
                    w.u64(r.end_gen);
                    w.u64(r.req_end.0);
                    w.len(r.mates.len());
                    for &m in &r.mates {
                        w.u64(m.0);
                    }
                    w.len(r.lent_to.len());
                    for &m in &r.lent_to {
                        w.u64(m.0);
                    }
                    w.bool(r.ever_shrunk);
                    w.bool(r.malleable_backfilled);
                    w.f64(r.energy_weight);
                }
                JobState::Done => w.u8(2),
                JobState::Cancelled => w.u8(3),
            }
        }

        // Pending queue, FIFO order (re-pushed on restore; nothing depends
        // on absolute slot sequence numbers).
        w.len(self.queue.len());
        for e in self.queue.prefix(usize::MAX) {
            w.u64(e.job.0);
            w.u32(e.req_nodes);
            w.u64(e.req_time);
            w.u32(e.tslot);
        }

        // Event queue: live entries with their sequence numbers (ties at
        // the same instant are FIFO by seq, so seqs must survive).
        let (events, next_seq) = self.events.snapshot();
        w.len(events.len());
        for (t, ev, seq) in events {
            w.u64(t.0);
            match ev {
                Event::Submit(j) => {
                    w.u8(0);
                    w.u64(j.0);
                }
                Event::End { job, gen } => {
                    w.u8(1);
                    w.u64(job.0);
                    w.u64(gen);
                }
            }
            w.u64(seq);
        }
        w.u64(next_seq);

        // Mate pool, in its maintained `(base, id)` order.
        w.len(self.mate_pool.len());
        for e in &self.mate_pool {
            w.f64(e.base);
            w.u64(e.id.0);
            w.u64(e.wait);
            w.u64(e.req_time);
            w.u64(e.req_end.0);
            w.u32(e.weight);
            w.u32(e.ranks_per_node);
        }

        // Cluster occupancy, per node.
        w.len(self.cluster.occupancies().len());
        for occ in self.cluster.occupancies() {
            w.len(occ.jobs.len());
            for &(j, c) in &occ.jobs {
                w.u64(j.0);
                w.u32(c);
            }
        }

        // DROM registry.
        let (entries, next_handle) = self.drom.snapshot();
        w.len(entries.len());
        for e in &entries {
            w.u64(e.handle.0);
            w.u64(e.job.0);
            w.u32(e.node.0);
            put_mask(&mut w, &e.current);
            match &e.pending {
                None => w.bool(false),
                Some(m) => {
                    w.bool(true);
                    put_mask(&mut w, m);
                }
            }
        }
        w.u64(next_handle);

        // Node managers.
        w.len(self.node_mgrs.len());
        for nm in &self.node_mgrs {
            let residents = nm.snapshot();
            w.len(residents.len());
            for r in residents {
                w.u64(r.job.0);
                put_mask(&mut w, &r.mask);
                w.bool(r.malleable);
                w.opt_u64(r.handle.map(|h| h.0));
                w.opt_u64(r.lender.map(|j| j.0));
            }
        }

        // Release map (counts/busy re-derived on restore).
        w.len(self.releases.node_releases().len());
        for &rel in self.releases.node_releases() {
            w.opt_u64(rel.map(|t| t.0));
        }

        // Stats.
        w.u64(self.stats.started_static);
        w.u64(self.stats.started_malleable);
        w.u64(self.stats.unique_mates);
        w.u64(self.stats.shrink_events);
        w.u64(self.stats.expand_events);
        w.u64(self.stats.relocations);
        w.u64(self.stats.sched_passes);
        w.u64(self.stats.passes_skipped);
        w.u64(self.stats.cancelled);
        w.u64(self.stats.quota_skipped);
        w.u64(self.stats.events_dispatched);
        w.u64(self.stats.peak_profile_len as u64);

        // Dirty flags (a checkpoint can land between a dispatch and its
        // pass; the pending pass gate must survive).
        w.bool(self.dirty.queue);
        w.bool(self.dirty.capacity);

        // Outcomes.
        w.len(self.outcomes.len());
        for o in &self.outcomes {
            w.u64(o.id.0);
            w.u64(o.submit.0);
            w.u64(o.start.0);
            w.u64(o.end.0);
            w.u32(o.nodes);
            w.u64(o.procs);
            w.u64(o.req_time);
            w.u64(o.static_runtime);
            w.bool(o.malleable_backfilled);
            w.bool(o.was_mate);
            match o.app {
                None => w.u8(0xFF),
                Some(a) => w.u8(app_to_u8(a)),
            }
            w.u32(o.tenant);
        }

        // Energy meter + incremental weighted-busy accumulator.
        let (last_time, meter_busy, joules, started) = self.meter.snapshot();
        w.u64(last_time.0);
        w.f64(meter_busy);
        w.f64(joules);
        w.bool(started);
        w.f64(self.weighted_busy);

        // Tenant accounting.
        w.len(self.tenant_usage.len());
        for u in &self.tenant_usage {
            w.u32(u.running_width);
            w.u64(u.committed_node_seconds);
            w.f64(u.usage);
            w.u64(u.last_decay.0);
            w.u64(u.submitted);
            w.u64(u.started);
            w.u64(u.completed);
            w.u64(u.quota_skipped);
        }

        w.u64(self.first_submit.0);
        w.u64(self.last_end.0);
        buf
    }

    // ------------------------------------------------------------------
    // Decode
    // ------------------------------------------------------------------

    /// Rebuilds a state from [`SimState::checkpoint_bytes`] output plus the
    /// re-supplied configuration. Derived structures (running indices,
    /// release counts, the availability cache, pass scratch) are rebuilt
    /// canonically, and the result passes [`SimState::deep_validate`].
    pub fn restore(
        spec: ClusterSpec,
        cfg: SlurmConfig,
        rate_model: Box<dyn RateModel>,
        sharing: SharingFactor,
        bytes: &[u8],
    ) -> Result<SimState, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err("not a SimState checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        // Fingerprint: the checkpoint must describe the same machine and
        // the same scheduling configuration the caller is restarting with.
        let (nodes, cores) = (r.u32()?, r.u32()?);
        if nodes != spec.nodes || cores != spec.node.cores() {
            return Err(format!(
                "checkpoint is for a {nodes}×{cores} machine, config says {}×{}",
                spec.nodes,
                spec.node.cores()
            ));
        }
        if !r.bool()? {
            return Err("checkpoint was taken on the removed legacy hot path".into());
        }
        match r.u8()? {
            0 => {}
            1 => {
                return Err(
                    "checkpoint was taken with the removed slot-tree availability backend".into(),
                )
            }
            b => return Err(format!("unknown availability backend tag {b}")),
        }
        let tenant_count = r.u32()? as usize;
        if tenant_count != cfg.tenants.len() {
            return Err(format!(
                "checkpoint has {tenant_count} tenants, config registers {}",
                cfg.tenants.len()
            ));
        }

        let mut st = SimState::new_online(spec, cfg, rate_model, sharing);
        st.now = SimTime(r.u64()?);

        // Job table.
        let njobs = r.len(JOB_MIN)?;
        let mut jobs = Vec::with_capacity(njobs);
        for i in 0..njobs {
            let id = JobId(r.u64()?);
            if id.0 != i as u64 + 1 {
                return Err(format!("job table out of order: slot {i} holds {id}"));
            }
            let spec = JobSpec {
                id,
                submit: SimTime(r.u64()?),
                req_nodes: r.u32()?,
                req_procs: r.u64()?,
                req_time: r.u64()?,
                static_runtime: r.u64()?,
                malleable: r.bool()?,
                ranks_per_node: r.u32()?,
                app: match r.u8()? {
                    0xFF => None,
                    b => Some(app_from_u8(b)?),
                },
                tenant: r.u32()?,
                project: r.u32()?,
            };
            let state = match r.u8()? {
                0 => JobState::Pending,
                1 => {
                    let start = SimTime(r.u64()?);
                    let width = r.len(NODE_AND_CORES_MIN)?;
                    let mut nodes = Vec::with_capacity(width);
                    for _ in 0..width {
                        nodes.push(NodeId(r.u32()?));
                    }
                    let mut cores = Vec::with_capacity(width);
                    for _ in 0..width {
                        cores.push(r.u32()?);
                    }
                    let full_cores = r.u32()?;
                    let work_done = r.f64()?;
                    let rate = r.f64()?;
                    let last_banked = SimTime(r.u64()?);
                    let end_gen = r.u64()?;
                    let req_end = SimTime(r.u64()?);
                    let mut mates = Vec::with_capacity(r.len(8)?);
                    for _ in 0..mates.capacity() {
                        mates.push(JobId(r.u64()?));
                    }
                    let mut lent_to = Vec::with_capacity(r.len(8)?);
                    for _ in 0..lent_to.capacity() {
                        lent_to.push(JobId(r.u64()?));
                    }
                    JobState::Running(RunningJob {
                        start,
                        nodes,
                        cores,
                        full_cores,
                        work_done,
                        rate,
                        last_banked,
                        end_gen,
                        armed_end: SimTime::MAX, // read from the event queue below
                        req_end,
                        mates,
                        lent_to,
                        ever_shrunk: r.bool()?,
                        malleable_backfilled: r.bool()?,
                        energy_weight: r.f64()?,
                    })
                }
                2 => JobState::Done,
                3 => JobState::Cancelled,
                b => return Err(format!("unknown job state tag {b}")),
            };
            jobs.push(Job { spec, state });
        }
        st.jobs = jobs;

        // Pending queue (re-pushed: slot seqs normalise, order preserved).
        let nqueue = r.len(QUEUE_ENTRY_MIN)?;
        let mut queue = PendingQueue::new();
        for _ in 0..nqueue {
            let job = JobId(r.u64()?);
            let (req_nodes, req_time, tslot) = (r.u32()?, r.u64()?, r.u32()?);
            queue.push(job, req_nodes, req_time, tslot);
        }
        st.queue = queue;

        // Event queue.
        let nevents = r.len(EVENT_MIN)?;
        let mut entries = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            let t = SimTime(r.u64()?);
            let ev = match r.u8()? {
                0 => Event::Submit(JobId(r.u64()?)),
                1 => Event::End {
                    job: JobId(r.u64()?),
                    gen: r.u64()?,
                },
                b => return Err(format!("unknown event tag {b}")),
            };
            entries.push((t, ev, r.u64()?));
        }
        // A running job's armed end is not serialised: it is the instant of
        // its live end event. (Recomputing `predicted_end(now)` instead can
        // land a second away at a rate below 1.)
        for &(t, ev, _) in &entries {
            let Event::End { job, gen } = ev else { continue };
            let run = job.0.checked_sub(1).and_then(|i| st.jobs.get_mut(i as usize)?.running_mut());
            if let Some(run) = run.filter(|r| r.end_gen == gen) {
                run.armed_end = t;
            }
        }
        st.events = EventQueue::from_snapshot(entries, r.u64()?);

        // Mate pool.
        let nmates = r.len(MATE_ENTRY_MIN)?;
        let mut mate_pool = Vec::with_capacity(nmates);
        for _ in 0..nmates {
            mate_pool.push(MateEntry {
                base: r.f64()?,
                id: JobId(r.u64()?),
                wait: r.u64()?,
                req_time: r.u64()?,
                req_end: SimTime(r.u64()?),
                weight: r.u32()?,
                ranks_per_node: r.u32()?,
            });
        }
        st.pool_weights = PoolWeights::recount(&mate_pool);
        st.mate_pool = mate_pool;

        // Cluster occupancy.
        let nnodes = r.len(8)?; // each node is at least a count
        let mut occs = Vec::with_capacity(nnodes);
        for _ in 0..nnodes {
            let njobs = r.len(OCCUPANT_MIN)?;
            let mut occ_jobs = Vec::with_capacity(njobs);
            let mut used = 0u32;
            for _ in 0..njobs {
                let j = JobId(r.u64()?);
                let c = r.u32()?;
                used += c;
                occ_jobs.push((j, c));
            }
            occs.push(NodeOccupancy {
                jobs: occ_jobs,
                cores_used: used,
            });
        }
        st.cluster = ClusterState::from_occupancies(st.spec.clone(), occs)?;

        // DROM registry.
        let cores = st.spec.node.cores();
        let nentries = r.len(DROM_ENTRY_MIN)?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            let handle = DromHandle(r.u64()?);
            let job = JobId(r.u64()?);
            let node = NodeId(r.u32()?);
            if node.0 >= st.spec.nodes {
                return Err(format!(
                    "DROM entry on {node}, machine has {} nodes",
                    st.spec.nodes
                ));
            }
            let current = read_mask(&mut r, cores)?;
            let pending = if r.bool()? { Some(read_mask(&mut r, cores)?) } else { None };
            entries.push(ProcessEntry {
                handle,
                job,
                node,
                current,
                pending,
            });
        }
        st.drom = DromRegistry::from_snapshot(entries, r.u64()?)?;

        // Node managers.
        let nmgrs = r.len(8)?; // each manager is at least a count
        if nmgrs != st.spec.nodes as usize {
            return Err(format!(
                "checkpoint has {nmgrs} node managers, machine has {}",
                st.spec.nodes
            ));
        }
        let mut node_mgrs = Vec::with_capacity(nmgrs);
        for i in 0..nmgrs {
            let nres = r.len(RESIDENT_MIN)?;
            let mut residents = Vec::with_capacity(nres);
            for _ in 0..nres {
                residents.push(Resident {
                    job: JobId(r.u64()?),
                    mask: read_mask(&mut r, cores)?,
                    malleable: r.bool()?,
                    handle: r.opt_u64()?.map(DromHandle),
                    lender: r.opt_u64()?.map(JobId),
                });
            }
            node_mgrs.push(NodeManager::from_snapshot(
                NodeId(i as u32),
                st.spec.node.clone(),
                residents,
            )?);
        }
        st.node_mgrs = node_mgrs;

        // Release map.
        let nrel = r.len(1)?; // each slot is at least a presence byte
        if nrel != st.spec.nodes as usize {
            return Err(format!(
                "checkpoint has {nrel} release slots, machine has {}",
                st.spec.nodes
            ));
        }
        let mut releases = Vec::with_capacity(nrel);
        for _ in 0..nrel {
            releases.push(r.opt_u64()?.map(SimTime));
        }
        st.releases = ReleaseMap::from_releases(&releases);

        st.stats = SimStats {
            started_static: r.u64()?,
            started_malleable: r.u64()?,
            unique_mates: r.u64()?,
            shrink_events: r.u64()?,
            expand_events: r.u64()?,
            relocations: r.u64()?,
            sched_passes: r.u64()?,
            passes_skipped: r.u64()?,
            cancelled: r.u64()?,
            quota_skipped: r.u64()?,
            events_dispatched: r.u64()?,
            peak_profile_len: r.u64()? as usize,
        };
        st.dirty = DirtyFlags {
            queue: r.bool()?,
            capacity: r.bool()?,
        };

        // Outcomes.
        let nout = r.len(OUTCOME_MIN)?;
        let mut outcomes = Vec::with_capacity(nout);
        for _ in 0..nout {
            outcomes.push(JobOutcome {
                id: JobId(r.u64()?),
                submit: SimTime(r.u64()?),
                start: SimTime(r.u64()?),
                end: SimTime(r.u64()?),
                nodes: r.u32()?,
                procs: r.u64()?,
                req_time: r.u64()?,
                static_runtime: r.u64()?,
                malleable_backfilled: r.bool()?,
                was_mate: r.bool()?,
                app: match r.u8()? {
                    0xFF => None,
                    b => Some(app_from_u8(b)?),
                },
                tenant: r.u32()?,
            });
        }
        st.outcomes = outcomes;

        // Energy meter + weighted busy.
        let last_time = SimTime(r.u64()?);
        let meter_busy = r.f64()?;
        let joules = r.f64()?;
        let started = r.bool()?;
        st.meter = EnergyMeter::from_snapshot(
            st.spec.node.power,
            st.spec.nodes,
            last_time,
            meter_busy,
            joules,
            started,
        );
        st.weighted_busy = r.f64()?;

        // Tenant accounting.
        let ntenants = r.len(TENANT_USAGE_MIN)?;
        if ntenants != st.cfg.tenants.len() {
            return Err(format!(
                "checkpoint has {ntenants} tenant slots, config registers {}",
                st.cfg.tenants.len()
            ));
        }
        let mut usage = Vec::with_capacity(ntenants);
        for _ in 0..ntenants {
            usage.push(TenantUsage {
                running_width: r.u32()?,
                committed_node_seconds: r.u64()?,
                usage: r.f64()?,
                last_decay: SimTime(r.u64()?),
                submitted: r.u64()?,
                started: r.u64()?,
                completed: r.u64()?,
                quota_skipped: r.u64()?,
            });
        }
        st.tenant_usage = usage;

        st.first_submit = SimTime(r.u64()?);
        st.last_end = SimTime(r.u64()?);
        r.finish()?;

        // Derived indices: running sets, the shrunk-borrower index and the
        // DynAVGSD sum come straight from the job table.
        st.running.clear();
        st.running_by_end.clear();
        st.shrunk.clear();
        for job in &st.jobs {
            if let JobState::Running(rj) = &job.state {
                st.running.insert(job.spec.id);
                st.running_by_end.insert((rj.req_end, job.spec.id));
                if rj.malleable_backfilled && !rj.at_full_allocation() {
                    st.shrunk.insert(job.spec.id);
                }
            }
        }
        st.slowdown = st.recount_slowdown();

        // Availability cache: rebuilt canonically at `now` — equal (by the
        // incremental-maintenance invariant) to the advanced cache the
        // uninterrupted run would hold.
        st.avail = st.build_profile();
        st.scratch = PassScratch::default();

        // The meter was constructed by `new_online` with a fresh start; the
        // restored snapshot fully replaced it, so nothing to reconcile.
        st.deep_validate()
            .map_err(|e| format!("restored state failed validation: {e}"))?;
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::WorstCaseModel;

    fn spec4() -> ClusterSpec {
        let mut spec = ClusterSpec::ricc();
        spec.nodes = 4;
        spec
    }

    fn cfg() -> SlurmConfig {
        SlurmConfig {
            self_check: true,
            ..SlurmConfig::default()
        }
    }

    fn job(id: u64, submit: u64, run: u64, nodes: u64, req: u64) -> swf::SwfJob {
        swf::SwfJob::for_simulation(id, submit, run, nodes * 8, req)
    }

    fn mid_run_state() -> SimState {
        let mut st = SimState::new_online(
            spec4(),
            cfg(),
            Box::new(WorstCaseModel),
            SharingFactor::HALF,
        );
        for sj in [
            job(1, 0, 1000, 2, 1000),
            job(2, 0, 100, 2, 100),
            job(3, 5, 50, 1, 60),
            job(4, 10, 500, 4, 600),
        ] {
            st.submit_job(&sj, None).unwrap();
        }
        // Drive to an interesting point: a running pair (one shrunk), one
        // queued, one still in the event queue, one completed.
        while let Some(t) = st.events.peek_time() {
            if t > SimTime(5) {
                break;
            }
            let ev = st.events.pop().unwrap();
            st.now = t.max(st.now);
            st.dispatch(ev.payload);
        }
        assert!(st.start_static(JobId(1)));
        st.co_schedule(JobId(2), &[JobId(1)], 0).unwrap();
        st.deep_validate().unwrap();
        st
    }

    fn roundtrip(st: &SimState) -> SimState {
        let bytes = st.checkpoint_bytes();
        SimState::restore(
            st.spec().clone(),
            st.cfg.clone(),
            Box::new(WorstCaseModel),
            st.sharing(),
            &bytes,
        )
        .expect("restore")
    }

    /// Drains every remaining event under a trivial FCFS driver and
    /// returns the observable end-of-run record.
    fn run_to_end(mut st: SimState) -> (Vec<JobOutcome>, SimStats, f64, SimTime) {
        while let Some(ev) = st.events.pop() {
            st.now = ev.time.max(st.now);
            st.dispatch(ev.payload);
            let pending: Vec<JobId> = st.queue.prefix(16).map(|e| e.job).collect();
            for id in pending {
                st.start_static(id);
            }
        }
        let joules = st.finish_energy();
        let last = st.last_end();
        (st.take_outcomes(), st.stats.clone(), joules, last)
    }

    #[test]
    fn roundtrip_preserves_and_validates() {
        let st = mid_run_state();
        let re = roundtrip(&st);
        re.deep_validate().expect("restored state valid");
        assert_eq!(re.now, st.now);
        assert_eq!(re.job_count(), st.job_count());
        assert_eq!(re.running_count(), st.running_count());
        assert_eq!(re.queue.len(), st.queue.len());
        assert_eq!(re.stats, st.stats);
        assert_eq!(re.first_submit(), st.first_submit());
        // Second serialization is bit-identical: the image is canonical.
        let image = st.checkpoint_bytes();
        assert_eq!(re.checkpoint_bytes(), image);
        // And it is the image `6f73e6f` wrote for this state: length and
        // FNV-1a digest recorded there.
        let fnv = image.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((image.len(), fnv), (1345, 0x0aab_5cea_85d8_a155));
    }

    #[test]
    fn restore_rebuilds_the_pool_weight_index() {
        let mut st = mid_run_state();
        // J1 is lending; a second running job puts an entry in the pool.
        assert!(st.start_static(JobId(3)));
        assert_eq!(st.eligible_mates().len(), 1);
        let re = roundtrip(&st);
        assert_eq!(re.pool_weights, st.pool_weights);
        assert_ne!(re.pool_weights, PoolWeights::default());
        assert!(re.mate_weights_cover(1, 2) && !re.mate_weights_cover(2, 2));
        // The index is derived, not serialised: the image does not change.
        assert_eq!(re.checkpoint_bytes(), st.checkpoint_bytes());
    }

    #[test]
    fn restored_run_finishes_identically() {
        let st = mid_run_state();
        let re = roundtrip(&st);
        let (out_a, stats_a, joules_a, last_a) = run_to_end(st);
        let (out_b, stats_b, joules_b, last_b) = run_to_end(re);
        assert_eq!(out_a, out_b, "outcomes diverged");
        assert_eq!(stats_a, stats_b, "stats diverged");
        assert_eq!(joules_a.to_bits(), joules_b.to_bits(), "energy diverged");
        assert_eq!(last_a, last_b);
    }

    #[test]
    fn fingerprint_mismatches_are_rejected() {
        let st = mid_run_state();
        let bytes = st.checkpoint_bytes();
        // Wrong machine size.
        let mut big = spec4();
        big.nodes = 8;
        let err = SimState::restore(
            big,
            st.cfg.clone(),
            Box::new(WorstCaseModel),
            st.sharing(),
            &bytes,
        )
        .err().unwrap();
        assert!(err.contains("machine"), "{err}");
        // Wrong tenant table.
        let mut tenanted = cfg();
        tenanted.tenants.add(crate::tenant::Tenant::unlimited(1, 0));
        let err = SimState::restore(
            spec4(),
            tenanted,
            Box::new(WorstCaseModel),
            st.sharing(),
            &bytes,
        )
        .err().unwrap();
        assert!(err.contains("tenants"), "{err}");
    }

    /// The hot-path byte and the availability-backend byte are still
    /// written (as `true` and 0) so images keep their layout. An image
    /// taken on the removed legacy path or with the removed slot-tree tag,
    /// or carrying any other value in either byte, is refused by name
    /// rather than restored or panicked on.
    #[test]
    fn dead_or_unknown_backend_tag_is_rejected() {
        let st = mid_run_state();
        let bytes = st.checkpoint_bytes();
        // magic, version, nodes, cores (u32 each), then the two bytes.
        let (path_at, tag_at) = (4 * 4, 4 * 4 + 1);
        assert_eq!(bytes[path_at..=tag_at], [1, 0]);
        let patched = |at: usize, value: u8| {
            let mut image = bytes.clone();
            image[at] = value;
            SimState::restore(
                spec4(),
                cfg(),
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
                &image,
            )
        };
        assert!(patched(tag_at, 0).is_ok());
        let err = patched(tag_at, 1).err().expect("slot-tree image");
        assert!(err.contains("removed slot-tree"), "{err}");
        let err = patched(tag_at, 7).err().expect("unknown tag");
        assert!(err.contains("unknown availability backend tag 7"), "{err}");
        let err = patched(path_at, 0).err().expect("legacy-path image");
        assert!(err.contains("removed legacy hot path"), "{err}");
        let err = patched(path_at, 7).err().expect("not a bool");
        assert!(err.contains("bad bool byte 7"), "{err}");
    }

    /// A hostile image: well-formed everywhere except one DROM `node` or one
    /// mask `width`. (This layer has no checksum — the engine's frame CRC is
    /// recomputed by whoever rewrites the file, so it protects nothing here.)
    /// Each must come back as `Err`: `node = u32::MAX` used to size the
    /// registry's per-node table (≈ 100 GB, an allocator abort), and a mask
    /// of another width used to restore.
    #[test]
    fn poisoned_drom_node_or_mask_width_is_rejected() {
        let mut st = mid_run_state();
        let staged = st.drom.snapshot().0[0];
        st.drom.set_mask(staged.node, staged.handle, staged.current);
        let bytes = st.checkpoint_bytes();

        // Byte offset of the one place `pattern` occurs in the image.
        let locate = |pattern: &[u8]| {
            let at: Vec<usize> = (0..bytes.len() - pattern.len())
                .filter(|&i| bytes[i..].starts_with(pattern))
                .collect();
            assert_eq!(at.len(), 1, "pattern must be unique in the image");
            at[0]
        };
        let entry = st.drom.snapshot().0[0];
        let mut head_bytes = Vec::new();
        let mut head = Writer::new(&mut head_bytes);
        head.u64(entry.handle.0);
        head.u64(entry.job.0);
        head.u32(entry.node.0);
        put_mask(&mut head, &entry.current);
        let entry_at = locate(&head_bytes);
        // After the current mask: the "has pending" byte, then its width.
        let pending_width = entry_at + head_bytes.len() + 1;
        let resident = &st.node_mgrs[0].snapshot()[0];
        let mut res_bytes = Vec::new();
        let mut res = Writer::new(&mut res_bytes);
        res.u64(resident.job.0);
        put_mask(&mut res, &resident.mask);
        res.bool(resident.malleable);
        res.opt_u64(resident.handle.map(|h| h.0));
        let resident_at = locate(&res_bytes);

        let poisoned = |at: usize, value: u32| {
            let mut image = bytes[..at].to_vec();
            Writer::new(&mut image).u32(value);
            image.extend_from_slice(&bytes[at + 4..]);
            SimState::restore(
                spec4(),
                cfg(),
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
                &image,
            )
        };
        // The locators point where they should: rewriting the real value is
        // a no-op, and the image still restores.
        assert!(poisoned(entry_at + 16, entry.node.0).is_ok());
        assert!(poisoned(pending_width, 8).is_ok());
        for node in [4, 5, u32::MAX] {
            let err = poisoned(entry_at + 16, node).err().expect("node out of range");
            assert!(err.contains("DROM entry"), "{err}");
        }
        for width_at in [entry_at + 20, pending_width, resident_at + 8] {
            for width in [0, 7, 9, 64, 65, 256, 257, u32::MAX] {
                let err = poisoned(width_at, width).err().expect("foreign mask width");
                assert!(err.contains("cores wide"), "{width}: {err}");
            }
        }
    }

    #[test]
    fn corrupt_or_truncated_bytes_error_cleanly() {
        let st = mid_run_state();
        let bytes = st.checkpoint_bytes();
        let try_restore = |data: &[u8]| {
            SimState::restore(
                spec4(),
                cfg(),
                Box::new(WorstCaseModel),
                SharingFactor::HALF,
                data,
            )
        };
        assert!(try_restore(&[]).is_err());
        for cut in (0..bytes.len()).step_by(7) {
            assert!(try_restore(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 3]);
        assert!(try_restore(&long).is_err());
        // A job count as large as the bytes that follow it — one job per
        // byte — is refused at the count, before a table is sized by it.
        let count_at = 4 * 4 + 2 + 4 + 8; // fingerprint, two tag bytes, tenants, now
        let mut hostile = bytes[..count_at].to_vec();
        Writer::new(&mut hostile).len(bytes.len() - count_at - 8);
        hostile.extend_from_slice(&bytes[count_at + 8..]);
        let err = try_restore(&hostile).err().expect("hostile job count");
        assert!(err.contains("exceeds"), "{err}");
    }
}
