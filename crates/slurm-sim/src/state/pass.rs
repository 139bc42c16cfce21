//! Per-pass scratch buffers, the scheduling prefix (fair-share / FIFO)
//! and tenant quota admission — everything a scheduling pass borrows
//! from the state and hands back.

use super::*;

impl SimState {

    /// Takes the reusable pass-availability buffer, filled with a copy of
    /// the cached availability (no BTreeMap walk, allocations reused).
    pub(crate) fn take_pass_profile(&mut self) -> Profile {
        let mut p = self.take_pass_buffer();
        p.clone_from(self.availability());
        p
    }

    /// The reusable pass-availability buffer with whatever the last pass
    /// left in it: only its allocations are of use.
    pub(crate) fn take_pass_buffer(&mut self) -> Profile {
        std::mem::take(&mut self.scratch.profile)
    }

    /// Takes the conservative pass plan (allocated on first use only: the
    /// box goes back through [`SimState::recycle_pass_plan`]).
    pub(crate) fn take_pass_plan(&mut self) -> Box<PassPlan> {
        self.scratch.plan.take().unwrap_or_default()
    }

    pub(crate) fn recycle_pass_plan(&mut self, plan: Box<PassPlan>) {
        self.scratch.plan = Some(plan);
    }

    /// Returns a pass availability for reuse by the next pass.
    pub fn recycle_pass_profile(&mut self, p: Profile) {
        self.scratch.profile = p;
    }

    pub(crate) fn take_prefix_scratch(&mut self) -> Vec<crate::queue::QueueEntry> {
        let mut v = std::mem::take(&mut self.scratch.prefix);
        v.clear();
        v
    }

    pub(crate) fn recycle_prefix_scratch(&mut self, v: Vec<crate::queue::QueueEntry>) {
        self.scratch.prefix = v;
    }

    /// Fills `prefix` with the entries a fair-share pass examines: the
    /// whole queue reordered by usage-decayed fair-share priority (usage
    /// halving every `half_life` seconds) and truncated to `depth`. The
    /// reorder is a stable sort on `usage/weight`, so ties — including the
    /// entire queue under a single tenant — keep FIFO order. (A FIFO pass
    /// walks the queue in place instead.)
    pub(crate) fn fill_fair_share_prefix(
        &mut self,
        half_life: u64,
        depth: usize,
        prefix: &mut Vec<QueueEntry>,
    ) {
        let _t = timing::scope(Probe::FairShareSort);
        prefix.extend(self.queue.prefix(usize::MAX));
        let now = self.now;
        for u in &mut self.tenant_usage {
            u.decay_to(now, half_life);
        }
        let usage = &self.tenant_usage;
        let registry = &self.cfg.tenants;
        fair_share_sort(prefix, |slot| {
            if slot == NO_TENANT_SLOT {
                0.0
            } else {
                usage[slot as usize].usage / registry.get(slot).weight
            }
        });
        prefix.truncate(depth);
    }

    /// What [`SimState::quota_blocks`] would answer, without counting or
    /// tracing a skip.
    pub(crate) fn quota_would_block(&self, e: &QueueEntry) -> bool {
        e.tslot != NO_TENANT_SLOT
            && self.tenant_usage[e.tslot as usize].would_exceed(
                &self.cfg.tenants.get(e.tslot).quota,
                e.req_nodes,
                e.req_time,
            )
    }

    /// Whether starting this entry now would exceed its tenant's quota.
    /// Counts the skip (globally and per tenant) when it would. O(1), and a
    /// constant-time `false` for untenanted entries.
    pub(crate) fn quota_blocks(&mut self, e: &QueueEntry) -> bool {
        if e.tslot == NO_TENANT_SLOT {
            return false;
        }
        let _t = timing::scope(Probe::QuotaCheck);
        let quota = self.cfg.tenants.get(e.tslot).quota;
        let usage = &mut self.tenant_usage[e.tslot as usize];
        let blocked = usage.would_exceed(&quota, e.req_nodes, e.req_time);
        if blocked {
            usage.quota_skipped += 1;
            self.stats.quota_skipped += 1;
            self.trace.emit(
                self.now.secs(),
                sd_trace::TraceKind::QuotaSkipped {
                    job: e.job.0,
                    tenant: self.cfg.tenants.get(e.tslot).id as u64,
                },
            );
        }
        blocked
    }

    pub fn first_submit(&self) -> SimTime {
        self.first_submit
    }

    pub fn last_end(&self) -> SimTime {
        self.last_end
    }

    /// The paper's makespan, `last_end − first_submit` in seconds, saturating
    /// at 0: it is 0 until a job ends, and while no submission has anchored
    /// `first_submit`. [`crate::SimResult`] and the service read it here.
    pub fn makespan(&self) -> u64 {
        self.last_end.since(self.first_submit)
    }

}
