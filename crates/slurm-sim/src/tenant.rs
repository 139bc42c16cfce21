//! Multi-tenant identities, quotas and fair-share ordering.
//!
//! A [`Tenant`] is a `(tenant id, project id)` pair with a scheduling
//! `weight` and a [`Quota`]. The static table lives in
//! [`TenantRegistry`] inside [`SlurmConfig`](crate::SlurmConfig); the
//! mutable per-tenant accounting ([`TenantUsage`]) lives in
//! [`SimState`](crate::SimState), indexed by the registry *slot* so the
//! hot path never hashes.
//!
//! ## Quota semantics
//!
//! Quotas are enforced in the backfill pass, *before* a trial runs: a
//! pending job whose start would exceed its tenant's budget is skipped for
//! that pass (no reservation, no trial) and counted in
//! `SimStats::quota_skipped`. Two budgets exist:
//!
//! * `node_seconds` — a cumulative budget of **requested** node-seconds
//!   (`req_nodes × req_time`), charged at start and never refunded. Charging
//!   the request (not the actual usage) keeps the check monotonic and
//!   order-independent: a job's admissibility never depends on how much
//!   earlier jobs under-ran.
//! * `max_running_width` — a cap on the tenant's concurrently *running*
//!   requested nodes, released when a job completes or is cancelled.
//!
//! An empty registry (the default) makes every check a no-op and the
//! simulator bit-identical to the untenanted build — the equivalence tests
//! pin this.
//!
//! ## Fair-share ordering
//!
//! [`QueuePolicy::FairShare`] reorders the examined queue prefix by classic
//! usage-decayed fair-share priority `2^(−usage/share)`. The implementation
//! sorts ascending on the order-equivalent key `usage/weight` (shares are
//! weights normalised by a common constant, and `2^(−x)` is strictly
//! decreasing, so both produce the same permutation) with a **stable** sort:
//! equal keys keep FIFO order. With one tenant — or equal weights and zero
//! usage — every key ties and the order degenerates to FIFO exactly, which
//! is what makes the single-tenant configuration bit-identical to today's
//! scheduler (see DESIGN.md §11).

use crate::queue::QueueEntry;
use simkit::SimTime;
use std::collections::HashMap;

/// Sentinel slot for jobs whose `(tenant, project)` is not in the registry
/// (including every job when the registry is empty).
pub const NO_TENANT_SLOT: u32 = u32::MAX;

/// Per-tenant admission limits. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quota {
    /// Budget of requested node-seconds (`req_nodes × req_time`), charged
    /// at job start, never refunded.
    pub node_seconds: Option<u64>,
    /// Cap on concurrently running requested nodes.
    pub max_running_width: Option<u32>,
}

impl Quota {
    pub const UNLIMITED: Quota = Quota {
        node_seconds: None,
        max_running_width: None,
    };
}

/// A tenant identity: who may run, with what priority and what limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant id (maps to the SWF `user` field; 0 is the anonymous tenant).
    pub id: u32,
    /// Project id (maps to the SWF `group` field; 0 is the default project).
    pub project: u32,
    /// Fair-share weight (relative; share = weight / Σ weights).
    pub weight: f64,
    pub quota: Quota,
    /// Per-tenant malleability adoption override; `None` inherits
    /// `SlurmConfig::malleable_fraction`.
    pub malleable_fraction: Option<f64>,
}

impl Tenant {
    /// An unlimited, weight-1 tenant for `(id, project)`.
    pub fn unlimited(id: u32, project: u32) -> Tenant {
        Tenant {
            id,
            project,
            weight: 1.0,
            quota: Quota::UNLIMITED,
            malleable_fraction: None,
        }
    }
}

/// The static tenant table, part of [`SlurmConfig`](crate::SlurmConfig).
///
/// Lookups go through [`TenantRegistry::slot`], resolved once per job at
/// submit time; the hot path only ever carries the dense slot index.
#[derive(Debug, Clone, Default)]
pub struct TenantRegistry {
    tenants: Vec<Tenant>,
    /// `(tenant, project)` → slot. Point lookups only — never iterated — so
    /// the hash map cannot introduce nondeterminism.
    index: HashMap<(u32, u32), u32>,
    total_weight: f64,
}

impl TenantRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a registry of `count` equal-weight tenants `1..=count`, all on
    /// project 0, each with the given quota.
    pub fn equal_weights(count: u32, quota: Quota) -> Self {
        let mut r = Self::new();
        for id in 1..=count {
            r.add(Tenant {
                quota,
                ..Tenant::unlimited(id, 0)
            });
        }
        r
    }

    /// Registers a tenant; returns its slot. Re-registering an existing
    /// `(tenant, project)` pair replaces the entry in place.
    pub fn add(&mut self, t: Tenant) -> u32 {
        debug_assert!(t.weight > 0.0, "tenant weight must be positive");
        if let Some(&slot) = self.index.get(&(t.id, t.project)) {
            self.total_weight += t.weight - self.tenants[slot as usize].weight;
            self.tenants[slot as usize] = t;
            return slot;
        }
        let slot = self.tenants.len() as u32;
        self.index.insert((t.id, t.project), slot);
        self.total_weight += t.weight;
        self.tenants.push(t);
        slot
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Slot for `(tenant, project)`, falling back to the tenant's project-0
    /// entry (a per-tenant default) before giving up.
    pub fn slot(&self, tenant: u32, project: u32) -> Option<u32> {
        self.index
            .get(&(tenant, project))
            .or_else(|| self.index.get(&(tenant, 0)))
            .copied()
    }

    pub fn get(&self, slot: u32) -> &Tenant {
        &self.tenants[slot as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.iter()
    }

    /// Normalised fair share of a slot (weight / Σ weights).
    pub fn share(&self, slot: u32) -> f64 {
        self.tenants[slot as usize].weight / self.total_weight
    }
}

/// How the backfill pass orders the pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QueuePolicy {
    /// Submit order (today's behaviour, SLURM default priority).
    #[default]
    Fifo,
    /// Usage-decayed fair-share: priority `2^(−usage/share)`, usage halving
    /// every `half_life` seconds (0 disables decay). Ties — including the
    /// whole queue under a single tenant — keep FIFO order.
    FairShare { half_life: u64 },
}

/// Mutable per-tenant accounting, one per registry slot, owned by
/// [`SimState`](crate::SimState).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantUsage {
    /// Requested nodes of this tenant's currently running jobs.
    pub running_width: u32,
    /// Cumulative requested node-seconds charged at start (never refunded).
    pub(crate) committed_node_seconds: u64,
    /// Decayed fair-share usage (node-seconds, halving per half-life).
    pub usage: f64,
    /// Virtual instant `usage` was last decayed to.
    pub(crate) last_decay: SimTime,
    pub submitted: u64,
    pub started: u64,
    pub completed: u64,
    /// Backfill trials skipped because they would exceed this tenant's quota.
    pub quota_skipped: u64,
}

impl Default for TenantUsage {
    fn default() -> Self {
        TenantUsage {
            running_width: 0,
            committed_node_seconds: 0,
            usage: 0.0,
            last_decay: SimTime::ZERO,
            submitted: 0,
            started: 0,
            completed: 0,
            quota_skipped: 0,
        }
    }
}

impl TenantUsage {
    /// Decays `usage` to `now`: `usage ×= 2^(−Δt/half_life)`.
    pub(crate) fn decay_to(&mut self, now: SimTime, half_life: u64) {
        if now <= self.last_decay {
            return;
        }
        let dt = now.since(self.last_decay);
        if half_life > 0 && self.usage > 0.0 {
            self.usage *= (-(dt as f64) / half_life as f64).exp2();
        }
        self.last_decay = now;
    }

    /// Would starting a `req_nodes × req_time` job exceed `quota`?
    pub(crate) fn would_exceed(&self, quota: &Quota, req_nodes: u32, req_time: u64) -> bool {
        if let Some(cap) = quota.max_running_width {
            if self.running_width + req_nodes > cap {
                return true;
            }
        }
        if let Some(budget) = quota.node_seconds {
            let charge = req_nodes as u64 * req_time;
            if self.committed_node_seconds + charge > budget {
                return true;
            }
        }
        false
    }

    /// Charges a starting job against this tenant.
    pub(crate) fn charge_start(&mut self, req_nodes: u32, req_time: u64) {
        let charge = req_nodes as u64 * req_time;
        self.running_width += req_nodes;
        self.committed_node_seconds += charge;
        self.usage += charge as f64;
        self.started += 1;
    }

    /// Releases a finished/cancelled job's running width (the node-second
    /// charge is deliberately not refunded).
    pub(crate) fn release_width(&mut self, req_nodes: u32) {
        debug_assert!(self.running_width >= req_nodes, "width released twice");
        self.running_width = self.running_width.saturating_sub(req_nodes);
    }
}

/// Stable fair-share reorder of a queue prefix. `key_of(tslot)` maps a
/// tenant slot (possibly [`NO_TENANT_SLOT`]) to its sort key
/// (`usage / weight`, ascending = higher priority). Ties keep FIFO order,
/// so the result is always a permutation of the input and collapses to the
/// identity when every key is equal.
pub fn fair_share_sort(entries: &mut [QueueEntry], key_of: impl Fn(u32) -> f64) {
    entries.sort_by(|a, b| key_of(a.tslot).total_cmp(&key_of(b.tslot)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::JobId;

    fn entry(id: u64, tslot: u32) -> QueueEntry {
        QueueEntry {
            job: JobId(id),
            req_nodes: 1,
            req_time: 100,
            tslot,
        }
    }

    #[test]
    fn registry_slots_and_shares() {
        let mut r = TenantRegistry::new();
        let a = r.add(Tenant {
            weight: 3.0,
            ..Tenant::unlimited(1, 0)
        });
        let b = r.add(Tenant {
            weight: 1.0,
            ..Tenant::unlimited(2, 7)
        });
        assert_eq!(r.len(), 2);
        assert_eq!(r.slot(1, 0), Some(a));
        // Unknown project falls back to the tenant's project-0 default…
        assert_eq!(r.slot(1, 99), Some(a));
        // …but only when a project-0 entry exists.
        assert_eq!(r.slot(2, 7), Some(b));
        assert_eq!(r.slot(2, 8), None);
        assert_eq!(r.slot(3, 0), None);
        assert!((r.share(a) - 0.75).abs() < 1e-12);
        assert!((r.share(b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn re_adding_replaces_in_place() {
        let mut r = TenantRegistry::new();
        let a = r.add(Tenant::unlimited(1, 0));
        let a2 = r.add(Tenant {
            weight: 4.0,
            ..Tenant::unlimited(1, 0)
        });
        assert_eq!(a, a2);
        assert_eq!(r.len(), 1);
        assert!((r.get(a).weight - 4.0).abs() < 1e-12);
        assert!((r.share(a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equal_weights_builder() {
        let r = TenantRegistry::equal_weights(
            4,
            Quota {
                node_seconds: Some(1000),
                max_running_width: None,
            },
        );
        assert_eq!(r.len(), 4);
        for id in 1..=4 {
            let slot = r.slot(id, 0).unwrap();
            assert!((r.share(slot) - 0.25).abs() < 1e-12);
            assert_eq!(r.get(slot).quota.node_seconds, Some(1000));
        }
    }

    #[test]
    fn quota_checks_width_and_budget() {
        let q = Quota {
            node_seconds: Some(1000),
            max_running_width: Some(4),
        };
        let mut u = TenantUsage::default();
        assert!(!u.would_exceed(&q, 4, 100)); // 400 ns ≤ 1000, width 4 ≤ 4
        assert!(u.would_exceed(&q, 5, 1)); // width 5 > 4
        assert!(u.would_exceed(&q, 2, 501)); // 1002 ns > 1000
        u.charge_start(4, 100);
        assert_eq!(u.running_width, 4);
        assert_eq!(u.committed_node_seconds, 400);
        assert!(u.would_exceed(&q, 1, 1)); // width 4+1 > 4
        u.release_width(4);
        assert!(!u.would_exceed(&q, 4, 150)); // 400+600 ≤ 1000
        assert!(u.would_exceed(&q, 4, 151)); // 400+604 > 1000: no refunds
    }

    #[test]
    fn usage_decays_with_half_life() {
        let mut u = TenantUsage::default();
        u.charge_start(10, 100); // usage 1000
        u.decay_to(SimTime(3600), 3600);
        assert!((u.usage - 500.0).abs() < 1e-9, "one half-life → half");
        u.decay_to(SimTime(3600), 3600); // same instant: no-op
        assert!((u.usage - 500.0).abs() < 1e-9);
        u.decay_to(SimTime(2 * 3600), 0); // half_life 0: decay disabled
        assert!((u.usage - 500.0).abs() < 1e-9);
        assert_eq!(u.last_decay, SimTime(2 * 3600));
    }

    #[test]
    fn fair_share_ties_keep_fifo() {
        let mut v: Vec<QueueEntry> = (0..6).map(|i| entry(i, (i % 3) as u32)).collect();
        let orig = v.clone();
        fair_share_sort(&mut v, |_| 0.0);
        assert_eq!(v, orig, "all-equal keys degenerate to submit order");
    }

    #[test]
    fn fair_share_orders_by_usage_per_weight() {
        // Slot 0 heavily used, slot 1 idle, slot 2 lightly used.
        let mut v = vec![entry(1, 0), entry(2, 1), entry(3, 2), entry(4, 1)];
        let key = |slot: u32| [900.0, 0.0, 10.0][slot as usize];
        fair_share_sort(&mut v, key);
        assert_eq!(
            v.iter().map(|e| e.job.0).collect::<Vec<_>>(),
            vec![2, 4, 3, 1],
            "idle tenant first (FIFO within), then light, then heavy"
        );
    }
}
