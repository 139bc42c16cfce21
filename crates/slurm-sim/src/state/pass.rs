//! Per-pass scratch buffers, the scheduling prefix (fair-share / FIFO)
//! and tenant quota admission — everything a scheduling pass borrows
//! from the state and hands back.

use super::*;

impl SimState {

    /// Takes the reusable pass-availability buffer, filled with a copy of
    /// the cached availability (no BTreeMap walk, allocations reused).
    pub(crate) fn take_pass_profile(&mut self) -> Profile {
        let mut p = std::mem::take(&mut self.scratch.profile);
        p.clone_from(self.availability());
        p
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

    /// Fills `prefix` with the entries a scheduling pass examines: the FIFO
    /// prefix under [`QueuePolicy::Fifo`] (today's behaviour), or the whole
    /// queue reordered by usage-decayed fair-share priority and truncated to
    /// `depth`. The reorder is a stable sort on `usage/weight`, so ties —
    /// including the entire queue under a single tenant — keep FIFO order.
    pub(crate) fn fill_pass_prefix(&mut self, depth: usize, prefix: &mut Vec<QueueEntry>) {
        match self.cfg.queue_policy {
            QueuePolicy::Fifo => prefix.extend(self.queue.prefix(depth)),
            QueuePolicy::FairShare { half_life } => {
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
        }
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

}
