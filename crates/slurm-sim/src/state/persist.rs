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
//! checksums whatever bytes it is given, and this module owns what those
//! bytes mean. Each record's layout is written once, as the field list of
//! a [`Persist`] impl: its writer, its reader and the smallest encoding
//! that [`Reader::len`] guards its counts with all follow from that list.

use super::*;
use cluster::cpumask::CpuMask;
use cluster::NodeOccupancy;
use drom::node::Resident;
use drom::registry::ProcessEntry;
use drom::DromHandle;
use sd_durable::codec::{Reader, Writer};
use workload::AppId;

const MAGIC: u32 = 0x5344_5353; // "SDSS"
const VERSION: u32 = 1;

// ----------------------------------------------------------------------
// One layout per value
// ----------------------------------------------------------------------

/// A value in the image. Records, tuples and `JobState` are `#[inline]`: a
/// call per record keeps the reader's cursor in memory, and `restore` ran
/// ≈ 18 % slower than a hand-written reader that way.
trait Persist: Sized {
    /// Smallest encoding — what [`Reader::len`] divides the remaining input
    /// by before a `Vec` of these is sized. Name a primitive's as
    /// `<u64 as Persist>::MIN`: `u64::MIN` is the integer's own constant.
    const MIN: usize;
    fn put(&self, w: &mut Writer<'_>);
    fn get(r: &mut Input<'_>) -> Result<Self, String>;
}

/// The image being restored: the codec reader, and the node width every
/// mask in it must have.
struct Input<'a> {
    r: Reader<'a>,
    cores: u32,
}

impl Input<'_> {
    #[inline]
    fn get<T: Persist>(&mut self) -> Result<T, String> {
        T::get(self)
    }

    /// `n` values into a `Vec` sized once (collecting through a `Result`
    /// iterator loses the size hint).
    fn get_n<T: Persist>(&mut self, n: usize) -> Result<Vec<T>, String> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get()?);
        }
        Ok(v)
    }
}

/// A codec scalar, written by `Writer::$m` and read by `Reader::$m`.
macro_rules! scalar {
    ($($ty:ty => $m:ident),*) => {$(
        impl Persist for $ty {
            const MIN: usize = std::mem::size_of::<$ty>();
            #[inline]
            fn put(&self, w: &mut Writer<'_>) {
                w.$m(*self)
            }
            #[inline]
            fn get(r: &mut Input<'_>) -> Result<Self, String> {
                r.r.$m()
            }
        }
    )*};
}
scalar!(u8 => u8, bool => bool, u32 => u32, u64 => u64, f64 => f64);

/// An id or time newtype: the value it wraps.
macro_rules! newtype {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Persist for $ty {
            const MIN: usize = <$inner as Persist>::MIN;
            #[inline]
            fn put(&self, w: &mut Writer<'_>) {
                self.0.put(w)
            }
            #[inline]
            fn get(r: &mut Input<'_>) -> Result<Self, String> {
                r.get::<$inner>().map($ty)
            }
        }
    )*};
}
newtype!(JobId(u64), SimTime(u64), NodeId(u32), DromHandle(u64));

/// A `usize` is written as a `u64`.
impl Persist for usize {
    const MIN: usize = <u64 as Persist>::MIN;
    fn put(&self, w: &mut Writer<'_>) {
        w.u64(*self as u64)
    }
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        Ok(r.r.u64()? as usize)
    }
}

/// A tuple: its members in order.
macro_rules! tuple {
    ($(($($T:ident . $i:tt),+))*) => {$(
        impl<$($T: Persist),+> Persist for ($($T,)+) {
            const MIN: usize = 0 $(+ $T::MIN)+;
            #[inline]
            fn put(&self, w: &mut Writer<'_>) {
                $(self.$i.put(w);)+
            }
            #[inline]
            fn get(r: &mut Input<'_>) -> Result<Self, String> {
                Ok(($(r.get::<$T>()?,)+))
            }
        }
    )*};
}
tuple!((A.0, B.1) (A.0, B.1, C.2) (A.0, B.1, C.2, D.3));

/// A presence byte, then the value.
impl<T: Persist> Persist for Option<T> {
    const MIN: usize = 1;
    fn put(&self, w: &mut Writer<'_>) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        Ok(if r.r.bool()? { Some(r.get()?) } else { None })
    }
}

/// An application as its index in `workload::APPS`, `0xFF` for none.
impl Persist for Option<AppId> {
    const MIN: usize = 1;
    fn put(&self, w: &mut Writer<'_>) {
        w.u8(self.map_or(0xFF, |a| a.index() as u8))
    }
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        match r.r.u8()? {
            0xFF => Ok(None),
            b => AppId::from_index(b.into())
                .map(Some)
                .ok_or_else(|| format!("unknown AppId tag {b}")),
        }
    }
}

/// A `u64` count, then the elements.
impl<T: Persist> Persist for Vec<T> {
    const MIN: usize = <u64 as Persist>::MIN;
    fn put(&self, w: &mut Writer<'_>) {
        put_seq(w, self)
    }
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        let n = r.r.len(T::MIN)?;
        r.get_n(n)
    }
}

fn put_seq<T: Persist>(w: &mut Writer<'_>, items: &[T]) {
    w.len(items.len());
    for x in items {
        x.put(w);
    }
}

/// Width, then the words as a `Vec`. Any width but the node's is refused
/// before a word is read, since mask arithmetic assumes both sides cover
/// the same node.
impl Persist for CpuMask {
    const MIN: usize = <u32 as Persist>::MIN + Vec::<u64>::MIN;
    fn put(&self, w: &mut Writer<'_>) {
        w.u32(self.width() as u32);
        put_seq(w, self.words());
    }
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        let (width, cores) = (r.r.u32()?, r.cores);
        if width != cores {
            return Err(format!("CPU mask is {width} cores wide, nodes have {cores}"));
        }
        let words: Vec<u64> = r.get()?;
        CpuMask::from_words(width as usize, &words).ok_or_else(|| "malformed CPU mask".into())
    }
}

/// A record whose layout is its field list, in image order. The struct
/// pattern and literal make a field missing from the list a build error.
macro_rules! record {
    ($($ty:ident { $($f:ident: $t:ty),* $(,)? })*) => {$(
        impl Persist for $ty {
            const MIN: usize = 0 $(+ <$t as Persist>::MIN)*;
            #[inline]
            fn put(&self, w: &mut Writer<'_>) {
                let $ty { $($f),* } = self;
                $($f.put(w);)*
            }
            #[inline]
            fn get(r: &mut Input<'_>) -> Result<Self, String> {
                Ok($ty { $($f: r.get::<$t>()?),* })
            }
        }
    )*};
}

record! {
    JobSpec {
        id: JobId, submit: SimTime, req_nodes: u32, req_procs: u64, req_time: u64,
        static_runtime: u64, malleable: bool, ranks_per_node: u32, app: Option<AppId>,
        tenant: u32, project: u32,
    }
    Job { spec: JobSpec, state: JobState }
    QueueEntry { job: JobId, req_nodes: u32, req_time: u64, tslot: u32 }
    MateEntry {
        base: f64, id: JobId, wait: u64, req_time: u64, req_end: SimTime, weight: u32,
        ranks_per_node: u32,
    }
    ProcessEntry {
        handle: DromHandle, job: JobId, node: NodeId, current: CpuMask,
        pending: Option<CpuMask>,
    }
    Resident {
        job: JobId, mask: CpuMask, malleable: bool, handle: Option<DromHandle>,
        lender: Option<JobId>,
    }
    SimStats {
        started_static: u64, started_malleable: u64, unique_mates: u64, shrink_events: u64,
        expand_events: u64, relocations: u64, sched_passes: u64, passes_skipped: u64,
        cancelled: u64, quota_skipped: u64, events_dispatched: u64, peak_profile_len: usize,
    }
    DirtyFlags { queue: bool, capacity: bool }
    JobOutcome {
        id: JobId, submit: SimTime, start: SimTime, end: SimTime, nodes: u32, procs: u64,
        req_time: u64, static_runtime: u64, malleable_backfilled: bool, was_mate: bool,
        app: Option<AppId>, tenant: u32,
    }
    TenantUsage {
        running_width: u32, committed_node_seconds: u64, usage: f64, last_decay: SimTime,
        submitted: u64, started: u64, completed: u64, quota_skipped: u64,
    }
}

/// A tag, then for `Running` its fields, with one count shared by `nodes`
/// and `cores`. `armed_end` is not written: it is the instant of the job's
/// live end event, which restore reads back from the event queue.
impl Persist for JobState {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, w: &mut Writer<'_>) {
        let run = match self {
            JobState::Pending => return w.u8(0),
            JobState::Running(run) => run,
            JobState::Done => return w.u8(2),
            JobState::Cancelled => return w.u8(3),
        };
        w.u8(1);
        run.start.put(w);
        w.len(run.nodes.len());
        run.nodes.iter().for_each(|n| n.put(w));
        run.cores.iter().for_each(|c| c.put(w));
        (run.full_cores, run.work_done, run.rate, run.last_banked).put(w);
        (run.end_gen, run.req_end).put(w);
        run.mates.put(w);
        run.lent_to.put(w);
        (run.ever_shrunk, run.malleable_backfilled, run.energy_weight).put(w);
    }
    #[inline]
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        Ok(match r.r.u8()? {
            0 => JobState::Pending,
            1 => {
                let start = r.get()?;
                let width = r.r.len(NodeId::MIN + <u32 as Persist>::MIN)?;
                JobState::Running(RunningJob {
                    start,
                    nodes: r.get_n(width)?,
                    cores: r.get_n(width)?,
                    full_cores: r.get()?,
                    work_done: r.get()?,
                    rate: r.get()?,
                    last_banked: r.get()?,
                    end_gen: r.get()?,
                    armed_end: SimTime::MAX,
                    req_end: r.get()?,
                    mates: r.get()?,
                    lent_to: r.get()?,
                    ever_shrunk: r.get()?,
                    malleable_backfilled: r.get()?,
                    energy_weight: r.get()?,
                })
            }
            2 => JobState::Done,
            3 => JobState::Cancelled,
            b => return Err(format!("unknown job state tag {b}")),
        })
    }
}

/// A tag, then the job, then for `End` its generation.
impl Persist for Event {
    const MIN: usize = 1 + JobId::MIN;
    fn put(&self, w: &mut Writer<'_>) {
        match *self {
            Event::Submit(job) => (0u8, job).put(w),
            Event::End { job, gen } => (1u8, job, gen).put(w),
        }
    }
    fn get(r: &mut Input<'_>) -> Result<Self, String> {
        match r.r.u8()? {
            0 => Ok(Event::Submit(r.get()?)),
            1 => Ok(Event::End { job: r.get()?, gen: r.get()? }),
            b => Err(format!("unknown event tag {b}")),
        }
    }
}

// ----------------------------------------------------------------------
// The image: header, then the sections in order
// ----------------------------------------------------------------------

impl SimState {
    /// Serializes the full simulator state into a canonical byte image.
    /// Cold path only (checkpoints between batches) — never called from
    /// the scheduling hot loop.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let w = &mut Writer::new(&mut buf);
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
        self.now.put(w);

        // Job table (index == id - 1).
        self.jobs.put(w);

        // Pending queue, FIFO order (re-pushed on restore; nothing depends
        // on absolute slot sequence numbers).
        w.len(self.queue.len());
        self.queue.prefix(usize::MAX).for_each(|e| e.put(w));

        // Event queue: live entries with their sequence numbers (ties at
        // the same instant are FIFO by seq, so seqs must survive), then the
        // next sequence number.
        self.events.snapshot().put(w);

        // Mate pool, in its maintained `(base, id)` order.
        self.mate_pool.put(w);

        // Cluster occupancy: per node, its `(job, cores)` list.
        w.len(self.cluster.occupancies().len());
        self.cluster.occupancies().iter().for_each(|occ| occ.jobs.put(w));

        // DROM registry entries, then the next handle.
        self.drom.snapshot().put(w);

        // Node managers: per node, its residents.
        w.len(self.node_mgrs.len());
        self.node_mgrs.iter().for_each(|nm| put_seq(w, nm.snapshot()));

        // Release map (counts/busy re-derived on restore).
        put_seq(w, self.releases.node_releases());

        // Stats, then the dirty flags: a checkpoint can land between a
        // dispatch and its pass, and the pending pass gate must survive.
        self.stats.put(w);
        self.dirty.put(w);
        self.outcomes.put(w);

        // Energy meter + incremental weighted-busy accumulator.
        (self.meter.snapshot(), self.weighted_busy).put(w);

        // Tenant accounting.
        self.tenant_usage.put(w);

        (self.first_submit, self.last_end).put(w);
        buf
    }

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
        let mut r = Input { r: Reader::new(bytes), cores: spec.node.cores() };
        if r.r.u32()? != MAGIC {
            return Err("not a SimState checkpoint (bad magic)".into());
        }
        let version = r.r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        // Fingerprint: the checkpoint must describe the same machine and
        // the same scheduling configuration the caller is restarting with.
        let (nodes, cores) = (r.r.u32()?, r.r.u32()?);
        if nodes != spec.nodes || cores != spec.node.cores() {
            return Err(format!(
                "checkpoint is for a {nodes}×{cores} machine, config says {}×{}",
                spec.nodes,
                spec.node.cores()
            ));
        }
        if !r.r.bool()? {
            return Err("checkpoint was taken on the removed legacy hot path".into());
        }
        match r.r.u8()? {
            0 => {}
            1 => {
                return Err(
                    "checkpoint was taken with the removed slot-tree availability backend".into(),
                )
            }
            b => return Err(format!("unknown availability backend tag {b}")),
        }
        let tenant_count = r.r.u32()? as usize;
        if tenant_count != cfg.tenants.len() {
            return Err(format!(
                "checkpoint has {tenant_count} tenants, config registers {}",
                cfg.tenants.len()
            ));
        }

        let mut st = SimState::new_online(spec, cfg, rate_model, sharing);
        st.now = r.get()?;

        // Job table.
        st.jobs = r.get()?;
        let misplaced = st.jobs.iter().enumerate().find(|&(i, j)| j.spec.id.0 != i as u64 + 1);
        if let Some((i, job)) = misplaced {
            return Err(format!("job table out of order: slot {i} holds {}", job.spec.id));
        }

        // Pending queue (re-pushed: slot seqs normalise, order preserved).
        st.queue = PendingQueue::new();
        for _ in 0..r.r.len(QueueEntry::MIN)? {
            let e: QueueEntry = r.get()?;
            st.queue.push(e.job, e.req_nodes, e.req_time, e.tslot);
        }

        // Event queue.
        let entries: Vec<(SimTime, Event, u64)> = r.get()?;
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
        st.events = EventQueue::from_snapshot(entries, r.get()?);

        // Mate pool.
        st.mate_pool = r.get()?;
        st.pool_weights = PoolWeights::recount(&st.mate_pool);

        // Cluster occupancy.
        let n = r.r.len(Vec::<(JobId, u32)>::MIN)?;
        let mut occs = Vec::with_capacity(n);
        for _ in 0..n {
            let jobs: Vec<(JobId, u32)> = r.get()?;
            let cores_used = jobs.iter().map(|&(_, c)| c).sum();
            occs.push(NodeOccupancy { jobs, cores_used });
        }
        st.cluster = ClusterState::from_occupancies(st.spec.clone(), occs)?;

        // DROM registry.
        let entries: Vec<ProcessEntry> = r.get()?;
        if let Some(e) = entries.iter().find(|e| e.node.0 >= nodes) {
            return Err(format!("DROM entry on {}, machine has {nodes} nodes", e.node));
        }
        st.drom = DromRegistry::from_snapshot(entries, r.get()?)?;

        // Node managers.
        let nmgrs = r.r.len(Vec::<Resident>::MIN)?;
        if nmgrs != nodes as usize {
            return Err(format!("checkpoint has {nmgrs} node managers, machine has {nodes}"));
        }
        let mut node_mgrs = Vec::with_capacity(nmgrs);
        for i in 0..nodes {
            node_mgrs.push(NodeManager::from_snapshot(NodeId(i), st.spec.node.clone(), r.get()?)?);
        }
        st.node_mgrs = node_mgrs;

        // Release map.
        let releases: Vec<Option<SimTime>> = r.get()?;
        if releases.len() != nodes as usize {
            return Err(format!(
                "checkpoint has {} release slots, machine has {nodes}",
                releases.len()
            ));
        }
        st.releases = ReleaseMap::from_releases(&releases);

        st.stats = r.get()?;
        st.dirty = r.get()?;
        st.outcomes = r.get()?;

        // Energy meter + weighted busy.
        let ((last, busy, joules, started), weighted_busy) = r.get()?;
        st.meter = EnergyMeter::from_snapshot(st.spec.node.power, nodes, last, busy, joules, started);
        st.weighted_busy = weighted_busy;

        // Tenant accounting.
        st.tenant_usage = r.get()?;
        if st.tenant_usage.len() != tenant_count {
            return Err(format!(
                "checkpoint has {} tenant slots, config registers {tenant_count}",
                st.tenant_usage.len()
            ));
        }

        (st.first_submit, st.last_end) = r.get()?;
        r.r.finish()?;

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
        let joules = st.snapshot_energy();
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
        entry.current.put(&mut head);
        let entry_at = locate(&head_bytes);
        // After the current mask: the "has pending" byte, then its width.
        let pending_width = entry_at + head_bytes.len() + 1;
        let resident = &st.node_mgrs[0].snapshot()[0];
        let mut res_bytes = Vec::new();
        let mut res = Writer::new(&mut res_bytes);
        res.u64(resident.job.0);
        resident.mask.put(&mut res);
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

    /// Every count `restore` guards with `Reader::len` divides by its
    /// element's `MIN`, so a minimal element (every `Option` `None`, every
    /// `Vec` empty, the job pending) must encode to exactly `MIN` bytes: a
    /// larger `MIN` refuses valid images, a smaller one lets a forged count
    /// size a bigger table. A mask adds only its words.
    #[test]
    fn every_guarded_minimum_is_exact() {
        fn size<T: Persist>(v: &T) -> usize {
            let mut buf = Vec::new();
            v.put(&mut Writer::new(&mut buf));
            buf.len()
        }
        fn exact<T: Persist>(v: T) {
            assert_eq!(size(&v), T::MIN, "{}", std::any::type_name::<T>());
        }
        let st = mid_run_state();
        let mut job = st.jobs[0].clone();
        job.state = JobState::Pending;
        assert_eq!(job.spec.app, None);
        exact(job);
        exact((SimTime(9), Event::Submit(JobId(1)), 3u64));
        exact(st.queue.prefix(1).next().expect("a queued job"));
        exact(MateEntry {
            base: 1.0,
            id: JobId(1),
            wait: 0,
            req_time: 60,
            req_end: SimTime(60),
            weight: 1,
            ranks_per_node: 1,
        });
        exact((JobId(1), 8u32));
        exact(None::<SimTime>);
        exact(JobOutcome {
            id: JobId(1),
            submit: SimTime(0),
            start: SimTime(1),
            end: SimTime(2),
            nodes: 1,
            procs: 8,
            req_time: 2,
            static_runtime: 1,
            malleable_backfilled: false,
            was_mate: false,
            app: None,
            tenant: 0,
        });
        exact(TenantUsage::default());
        exact(Vec::<Resident>::new());
        exact(Vec::<(JobId, u32)>::new());

        let words = |m: &CpuMask| 8 * m.words().len();
        let mut entry = st.drom.snapshot().0[0];
        entry.pending = None;
        assert_eq!(size(&entry), ProcessEntry::MIN + words(&entry.current));
        let mut resident = st.node_mgrs[0].snapshot()[0];
        (resident.handle, resident.lender) = (None, None);
        assert_eq!(size(&resident), Resident::MIN + words(&resident.mask));
        assert_eq!(size(&resident.mask), CpuMask::MIN + words(&resident.mask));
    }
}
