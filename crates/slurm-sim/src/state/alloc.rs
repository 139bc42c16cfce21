//! Allocation primitives: static starts, SD-Policy co-scheduling
//! (shrink + place), borrower relocation, job completion with
//! owner-return / redistribution semantics, tenant accounting, and the
//! release-map / mate-pool / borrower-index internals they maintain.

use super::*;

impl SimState {
    // ------------------------------------------------------------------

    /// Starts `id` on exclusive whole nodes if enough are free.
    pub fn start_static(&mut self, id: JobId) -> bool {
        let _t = timing::scope(Probe::JobStart);
        let spec = self.job(id).spec.clone();
        debug_assert!(self.job(id).is_pending(), "start of non-pending {id}");
        let (full, req_end) = (self.spec.node.cores(), self.now.after(spec.req_time));
        let launched = self.cluster.launch_idle(spec.req_nodes, id, full, spec.malleable, req_end);
        let Some(nodes) = launched else {
            return false;
        };
        self.move_releases(None, Some(req_end), spec.req_nodes);
        let cores = vec![full; nodes.len()];
        let mut run = Box::new(RunningJob::new(self.now, nodes, cores, full, spec.req_time));
        run.rate = 1.0;
        self.job_mut(id).state = JobState::Running(run);
        self.running += 1;
        self.arm_end(id);
        self.queue.remove(id);
        self.refresh_eligibility(id);
        self.energy_reweigh(&[id]);
        self.stats.started_static += 1;
        self.trace.emit(
            self.now.secs(),
            sd_trace::TraceKind::Started {
                job: id.0,
                malleable: false,
                nodes: spec.req_nodes,
                wait: self.now.secs().saturating_sub(spec.submit.secs()),
            },
        );
        self.tenant_charge_start(id);
        if self.cfg.self_check {
            self.cluster.validate().expect("node table consistent");
            self.self_check_caches();
        }
        true
    }

    // ------------------------------------------------------------------
    // Malleable co-scheduling (SD-Policy's mechanism)
    // ------------------------------------------------------------------

    /// Planned rate (worst-case) the new job would get if co-scheduled with
    /// these mates, and the freed cores per node. Used by the policy to
    /// compute `mall_end` before committing.
    pub(crate) fn plan_co_schedule(&self, mates: &[JobId]) -> Option<(f64, u32)> {
        let full = self.spec.node.cores();
        let mut min_freed = u32::MAX;
        for &m in mates {
            let mj = self.job(m);
            let freed = self
                .sharing
                .freed_cores(full, mj.spec.ranks_per_node);
            min_freed = min_freed.min(freed);
        }
        if min_freed == 0 || min_freed == u32::MAX {
            return None;
        }
        Some((min_freed as f64 / full as f64, min_freed))
    }

    /// Executes the malleable start: shrinks every node of every mate,
    /// places `new_id` in the freed cores (plus `free_nodes` completely idle
    /// nodes when the "include free nodes to reduce fragmentation" option is
    /// active), and re-arms everyone's end events.
    ///
    /// The caller (the policy) has already verified the slowdown condition,
    /// the weight constraint (Σ mate nodes + free = job nodes) and the
    /// finish-inside-mates constraint; this re-checks the structural ones.
    pub fn co_schedule(
        &mut self,
        new_id: JobId,
        mates: &[JobId],
        free_nodes: u32,
    ) -> Result<(), CoScheduleError> {
        let _t = timing::scope(Probe::JobStart);
        let new_spec = self.job(new_id).spec.clone();
        if !self.job(new_id).is_pending() {
            return Err(CoScheduleError::NotPending);
        }
        if !new_spec.malleable || mates.is_empty() {
            return Err(CoScheduleError::NotMalleable);
        }
        let mut total_nodes = free_nodes;
        for &m in mates {
            if !self.is_eligible_mate(m) {
                return Err(CoScheduleError::MateNotEligible(m));
            }
            total_nodes += self.job(m).running().unwrap().nodes.len() as u32;
        }
        if total_nodes != new_spec.req_nodes || free_nodes > self.cluster.empty_node_count() {
            return Err(CoScheduleError::WeightMismatch {
                mates: total_nodes,
                wanted: new_spec.req_nodes,
            });
        }
        let full = self.spec.node.cores();
        let (plan_rate, plan_freed) = self
            .plan_co_schedule(mates)
            .ok_or(CoScheduleError::NoFreedCores(mates[0]))?;
        // Planned wall duration of the new job (worst-case model, §3.4:
        // "in the SD-Policy case, we use the worst case model").
        let new_wall = (new_spec.req_time as f64 / plan_rate).ceil() as u64;

        // The new job's requested end uses the planned (worst-case) rate.
        let new_req_end = self.now.after(new_wall);
        let mut new_nodes: Vec<NodeId> = Vec::with_capacity(new_spec.req_nodes as usize);
        let mut new_cores: Vec<u32> = Vec::with_capacity(new_spec.req_nodes as usize);

        for &m in mates {
            let (mate_end, pair_end, shared) = {
                let Job { spec, state } = &mut self.jobs[(m.0 - 1) as usize];
                let JobState::Running(run) = state else {
                    unreachable!("eligible mates run");
                };
                let (sharing, ranks) = (self.sharing, spec.ranks_per_node);
                // The mate ran alone on these nodes; they now release when
                // the later of the pair does.
                let pair_end = run.req_end.max(new_req_end);
                for (i, &n) in run.nodes.iter().enumerate() {
                    let [kept, given] = self
                        .cluster
                        .co_launch(n, new_id, m, sharing, ranks, pair_end)
                        .ok_or(CoScheduleError::NoFreedCores(m))?;
                    run.cores[i] = kept.cores();
                    new_nodes.push(n);
                    new_cores.push(given.cores());
                }
                (run.req_end, pair_end, run.nodes.len() as u32)
            };
            self.move_releases(Some(mate_end), Some(pair_end), shared);
            // Re-rate the mate. Its requested end (wall-clock limit) stays
            // fixed: SLURM never extends a job's time limit on shrink — the
            // stretch eats the job's own over-request slack, and §3.2.4's
            // finish-inside constraint is defined against the *original*
            // requested end. (Extending it here created a feedback loop:
            // later profiles grew more pessimistic, admitting ever longer
            // borrowers — the makespan/energy regression.)
            {
                let now = self.now;
                let rate = self.compute_rate(m);
                let was_mate_before = {
                    let run = self.jobs[(m.0 - 1) as usize].running_mut().unwrap();
                    let was = run.ever_shrunk;
                    run.set_rate(now, rate);
                    run.lent_to.push(new_id);
                    was
                };
                if !was_mate_before {
                    self.stats.unique_mates += 1;
                }
            }
            self.stats.shrink_events += 1;
            self.trace.emit(
                self.now.secs(),
                sd_trace::TraceKind::Shrunk { mate: m.0, borrower: new_id.0 },
            );
            self.arm_end(m);
            self.refresh_eligibility(m);
            // A mate that was itself malleable-backfilled (a relocated
            // ex-borrower lending again) just dropped below full width.
            self.refresh_borrower_index(m);
        }

        // Optional free nodes: the new job takes the same per-node width as
        // on the shared nodes (keeps the allocation balanced, constraint 3).
        if free_nodes > 0 {
            let idle = self
                .cluster
                .launch_idle(free_nodes, new_id, plan_freed, true, new_req_end)
                .expect("checked empty count above");
            self.move_releases(None, Some(new_req_end), free_nodes);
            new_nodes.extend_from_slice(&idle);
            new_cores.resize(new_nodes.len(), plan_freed);
        }

        // Sort the new job's allocation for binary-searchable node lookups.
        let mut paired: Vec<(NodeId, u32)> = new_nodes.into_iter().zip(new_cores).collect();
        paired.sort_by_key(|&(n, _)| n);
        let (nodes_sorted, cores_sorted): (Vec<NodeId>, Vec<u32>) = paired.into_iter().unzip();

        let mut run =
            Box::new(RunningJob::new(self.now, nodes_sorted, cores_sorted, full, new_spec.req_time));
        run.mates = mates.to_vec();
        run.malleable_backfilled = true;
        run.req_end = new_req_end;
        self.job_mut(new_id).state = JobState::Running(run);
        self.running += 1;
        self.refresh_borrower_index(new_id);
        let rate = self.compute_rate(new_id);
        let now = self.now;
        self.job_mut(new_id)
            .running_mut()
            .unwrap()
            .set_rate(now, rate);
        self.arm_end(new_id);
        self.queue.remove(new_id);
        let mut reweigh: Vec<JobId> = mates.to_vec();
        reweigh.push(new_id);
        self.energy_reweigh(&reweigh);
        self.stats.started_malleable += 1;
        self.trace.emit(
            self.now.secs(),
            sd_trace::TraceKind::Started {
                job: new_id.0,
                malleable: true,
                nodes: new_spec.req_nodes,
                wait: self.now.secs().saturating_sub(new_spec.submit.secs()),
            },
        );
        self.tenant_charge_start(new_id);
        if self.cfg.self_check {
            self.cluster.validate().expect("node table consistent");
            self.self_check_caches();
        }
        Ok(())
    }

    /// Running malleable-backfilled jobs currently shrunk below full width —
    /// the candidates for [`SimState::relocate_borrower`] (ascending id),
    /// served from an index maintained at every reconfiguration.
    pub fn shrunk_borrowers(&self) -> Vec<JobId> {
        self.shrunk.iter().copied().collect()
    }

    /// Whether any shrunk borrower exists (O(1); pass gating).
    pub fn has_shrunk_borrowers(&self) -> bool {
        !self.shrunk.is_empty()
    }

    /// Moves a shrunk malleable-backfilled job onto idle whole nodes at full
    /// width, expanding its former mates back — the expand half of the
    /// resource manager (DMR-style node reconfiguration). Without it, a
    /// co-scheduled pair stays at reduced rate even when the machine drains,
    /// which stretches the tail and charges idle power: the makespan/energy
    /// regression. Returns `false` when `id` is not a shrunk borrower or the
    /// cluster lacks enough empty nodes.
    pub fn relocate_borrower(&mut self, id: JobId) -> bool {
        let now = self.now;
        {
            let Some(r) = self.job(id).running() else {
                return false;
            };
            if !r.malleable_backfilled || r.at_full_allocation() {
                return false;
            }
            if self.cluster.empty_node_count() < r.nodes.len() as u32 {
                return false;
            }
        }
        // The old allocation and mate links are replaced wholesale below, so
        // move them out instead of cloning.
        let (old_nodes, mates) = {
            let r = self.jobs[(id.0 - 1) as usize].running_mut().unwrap();
            (std::mem::take(&mut r.nodes), std::mem::take(&mut r.mates))
        };
        let width = old_nodes.len() as u32;

        // Leave the shared nodes; former mates expand into the cores.
        let touched = self.leave(id, &old_nodes);
        for &m in &mates {
            if let Some(other) = self.jobs[(m.0 - 1) as usize].running_mut() {
                other.lent_to.retain(|&x| x != id);
            }
        }

        // Take the idle nodes at full width (ascending, like every
        // allocation: `launch_idle` walks the idle index upwards).
        let full = self.spec.node.cores();
        let req_end = self.job(id).running().unwrap().req_end;
        let new_nodes = self
            .cluster
            .launch_idle(width, id, full, true, req_end)
            .expect("checked empty count above");
        self.move_releases(None, Some(req_end), width);
        {
            let run = self.jobs[(id.0 - 1) as usize].running_mut().unwrap();
            run.cores.fill(full); // same width, now full everywhere
            run.nodes = new_nodes; // moved, not cloned
        }
        let rate = self.compute_rate(id);
        self.job_mut(id).running_mut().unwrap().set_rate(now, rate);
        self.arm_end(id);
        self.refresh_eligibility(id);
        self.refresh_borrower_index(id);

        self.expand(&touched);
        self.energy_reweigh_iter(touched.iter().copied().chain(std::iter::once(id)));
        self.stats.relocations += 1;
        self.trace
            .emit(self.now.secs(), sd_trace::TraceKind::Relocated { job: id.0, nodes: width });
        if self.cfg.self_check {
            self.cluster.validate().expect("node table consistent");
            self.self_check_caches();
        }
        true
    }

    /// Whether `id` currently qualifies as a mate: running, malleable, at
    /// full allocation and not already involved in a co-schedule.
    pub(crate) fn is_eligible_mate(&self, id: JobId) -> bool {
        let j = self.job(id);
        if !j.spec.malleable {
            return false;
        }
        match j.running() {
            Some(r) => r.lent_to.is_empty() && r.mates.is_empty() && r.at_full_allocation(),
            None => false,
        }
    }


    // ------------------------------------------------------------------

    pub(super) fn complete_job(&mut self, id: JobId) {
        let _t = timing::scope(Probe::JobEnd);
        let now = self.now;
        let (spec, run) = {
            let job = self.job_mut(id);
            let JobState::Running(mut run) = std::mem::replace(&mut job.state, JobState::Done)
            else {
                unreachable!("complete_job on non-running job");
            };
            run.bank(now);
            (job.spec.clone(), run)
        };
        self.outcomes.push(JobOutcome {
            id,
            submit: spec.submit,
            start: run.start,
            end: now,
            nodes: run.nodes.len() as u32,
            procs: spec.req_procs,
            req_time: spec.req_time,
            static_runtime: spec.static_runtime,
            malleable_backfilled: run.malleable_backfilled,
            was_mate: run.ever_shrunk,
            app: spec.app,
            tenant: spec.tenant,
        });
        self.tenant_finish(&spec, true);
        self.last_end = self.last_end.max(now);
        self.release_running(id, &spec, &run);
        self.trace
            .emit(self.now.secs(), sd_trace::TraceKind::Completed { job: id.0 });
    }

    /// Shared teardown of a running job (completion and running-job
    /// cancellation): removes it from every index, frees its nodes with
    /// beneficiary expansion, settles DROM masks, partner links, the release
    /// map and the energy meter. The caller has already replaced the job's
    /// state and handled outcome/last-end bookkeeping.
    pub(super) fn release_running(&mut self, id: JobId, spec: &JobSpec, run: &RunningJob) {
        self.running -= 1;
        self.slowdown.sub(spec, run.armed_end);
        self.shrunk.remove(&id);
        self.pool_remove_keyed(Self::pool_key(spec, run.start), id);

        let touched = self.leave(id, &run.nodes);

        // Unlink this job from partners' bookkeeping.
        for &m in run.mates.iter().chain(run.lent_to.iter()) {
            if let Some(other) = self.jobs[(m.0 - 1) as usize].running_mut() {
                other.lent_to.retain(|&x| x != id);
                other.mates.retain(|&x| x != id);
            }
        }

        self.expand(&touched);
        self.energy_sub_job(run.energy_weight);
        self.energy_reweigh(&touched);
        if self.cfg.self_check {
            self.cluster.validate().expect("node table consistent");
            self.self_check_caches();
        }
    }

    /// Takes `id` off every node of `alloc`, one visit per node: the table
    /// frees its cores and sets the node's release to that of whoever is
    /// left on it — nobody, after an exclusive end — and the co-resident
    /// that takes the cores has its per-node count updated. Returns the
    /// jobs that expanded, in the order they were first met.
    fn leave(&mut self, id: JobId, alloc: &[NodeId]) -> Vec<JobId> {
        let mut touched: Vec<JobId> = Vec::new();
        let Self { cluster, jobs, avail, now, .. } = self;
        let updates = alloc.iter().map(|&n| {
            let req_end = |j: JobId| jobs[(j.0 - 1) as usize].running().expect("residents run").req_end;
            let left = cluster.vacate(n, id, req_end).expect("a running job occupies its nodes");
            if let Some(up) = left.expanded {
                let other = jobs[(up.job.0 - 1) as usize]
                    .running_mut()
                    .expect("beneficiary is running");
                let i = other.nodes.binary_search(&n).expect("owns node");
                other.cores[i] = up.cores();
                if !touched.contains(&up.job) {
                    touched.push(up.job);
                }
            }
            left.release
        });
        group_release_moves(updates, |old, new, count| avail.patch(*now, old, new, count));
        touched
    }

    /// Re-rates the jobs that expanded into freed cores (their requested
    /// ends, and so their nodes' releases, do not move).
    fn expand(&mut self, touched: &[JobId]) {
        let now = self.now;
        for &t in touched {
            let rate = self.compute_rate(t);
            let run = self.jobs[(t.0 - 1) as usize].running_mut().unwrap();
            run.set_rate(now, rate);
            let nodes = run.nodes.len() as u32;
            self.stats.expand_events += 1;
            self.trace
                .emit(now.secs(), sd_trace::TraceKind::Expanded { job: t.0, nodes });
            self.arm_end(t);
            self.refresh_eligibility(t);
            self.refresh_borrower_index(t);
        }
    }

    /// Per-tenant accounting rows, parallel to the registry's slots.
    pub fn tenant_usage(&self) -> &[TenantUsage] {
        &self.tenant_usage
    }

    /// Registry slot of a job's `(tenant, project)`, [`NO_TENANT_SLOT`]
    /// when unregistered (always the case with an empty registry).
    pub(super) fn tenant_slot(&self, id: JobId) -> u32 {
        if self.cfg.tenants.is_empty() {
            return NO_TENANT_SLOT;
        }
        let s = &self.job(id).spec;
        self.cfg
            .tenants
            .slot(s.tenant, s.project)
            .unwrap_or(NO_TENANT_SLOT)
    }

    /// Charges a starting job against its tenant (requested node-seconds +
    /// running width). No-op for unregistered tenants.
    pub(super) fn tenant_charge_start(&mut self, id: JobId) {
        let slot = self.tenant_slot(id);
        if slot == NO_TENANT_SLOT {
            return;
        }
        let (req_nodes, req_time) = {
            let s = &self.job(id).spec;
            (s.req_nodes, s.req_time)
        };
        self.tenant_usage[slot as usize].charge_start(req_nodes, req_time);
    }

    /// Releases a finished/cancelled running job's width back to its tenant
    /// (the node-second charge stays — no refunds) and counts the
    /// completion when `completed`.
    pub(super) fn tenant_finish(&mut self, spec: &JobSpec, completed: bool) {
        if self.cfg.tenants.is_empty() {
            return;
        }
        let Some(slot) = self.cfg.tenants.slot(spec.tenant, spec.project) else {
            return;
        };
        let usage = &mut self.tenant_usage[slot as usize];
        usage.release_width(spec.req_nodes);
        if completed {
            usage.completed += 1;
        }
    }


    // ------------------------------------------------------------------

    /// Computes the progress rate of a running job via the rate model,
    /// including neighbour memory pressure for the app-aware model.
    pub(super) fn compute_rate(&self, id: JobId) -> f64 {
        let job = self.job(id);
        let run = job.running().expect("rate of running job");
        let mut neighbour_mem = 0.0_f64;
        for &n in &run.nodes {
            for other in self.cluster.record(n).residents().iter().map(|r| r.job) {
                if other == id {
                    continue;
                }
                if let Some(app) = self.job(other).spec.app {
                    neighbour_mem = neighbour_mem.max(AppModel::by_id(app).mem_util);
                } else {
                    // Unknown co-resident app: neutral pressure.
                    neighbour_mem = neighbour_mem.max(0.0);
                }
            }
        }
        let inputs = RateInputs {
            cores: &run.cores,
            full_cores: run.full_cores,
            app: job.spec.app,
            neighbour_mem,
        };
        self.rate_model.rate(&inputs).clamp(0.0, 1.0)
    }

    /// Arms (or re-arms) the end event for `id` at its predicted completion,
    /// moving the job's DynAVGSD term from its previous armed end to this one.
    pub(super) fn arm_end(&mut self, id: JobId) {
        let now = self.now;
        let Job { spec, state } = &mut self.jobs[(id.0 - 1) as usize];
        let JobState::Running(run) = state else {
            panic!("arm end of non-running {id}");
        };
        let when = run.predicted_end(now, spec.static_runtime);
        let gen = run.end_gen;
        debug_assert!(when != SimTime::MAX, "job would never finish");
        let was = std::mem::replace(&mut run.armed_end, when);
        self.slowdown.sub(spec, was);
        self.slowdown.add(spec, when);
        self.events.push(when, Event::End { job: id, gen });
    }

    /// Patches the cached availability once for `nodes` nodes whose
    /// release moved from `old` to `new` (the node table set each in its
    /// visit).
    fn move_releases(&mut self, old: Option<SimTime>, new: Option<SimTime>, nodes: u32) {
        if old != new {
            self.avail.patch(self.now, old, new, nodes);
        }
    }

    /// Re-evaluates whether `id` belongs in the shrunk-borrower index.
    /// Called wherever a running job's per-node cores can change.
    pub(super) fn refresh_borrower_index(&mut self, id: JobId) {
        let is_shrunk = self
            .job(id)
            .running()
            .is_some_and(|r| r.malleable_backfilled && !r.at_full_allocation());
        if is_shrunk {
            self.shrunk.insert(id);
        } else {
            self.shrunk.remove(&id);
        }
    }

    /// The mate pool's sort key for a job: the fixed part of Eq. 4,
    /// `(wait + req)/req`. Deterministic from immutable job data, so the
    /// same key can be recomputed for an O(log n) indexed removal.
    pub(super) fn pool_key(spec: &JobSpec, start: SimTime) -> f64 {
        let wait = start.since(spec.submit) as f64;
        let req = spec.req_time.max(1) as f64;
        (wait + req) / req
    }

    /// Inserts/removes `id` from the mate pool according to eligibility.
    pub(super) fn refresh_eligibility(&mut self, id: JobId) {
        let Some(start) = self.job(id).running().map(|r| r.start) else {
            return; // never called on non-running jobs; nothing to refresh
        };
        let base = Self::pool_key(&self.job(id).spec, start);
        self.pool_remove_keyed(base, id);
        if self.is_eligible_mate(id) {
            let (spec, run) = (&self.job(id).spec, self.job(id).running().unwrap());
            let entry = MateEntry {
                base,
                id,
                wait: run.start.since(spec.submit),
                req_time: spec.req_time,
                req_end: run.req_end,
                weight: run.nodes.len() as u32,
                ranks_per_node: spec.ranks_per_node,
            };
            let pos = self
                .mate_pool
                .partition_point(|e| (e.base, e.id) < (base, id));
            self.mate_pool.insert(pos, entry);
            self.pool_weights.insert(entry.weight);
        }
    }

    /// Removes `id` from the mate pool by binary search on its recomputed
    /// key (the pool is sorted by `(base, id)`), replacing the old O(n)
    /// position scan.
    pub(super) fn pool_remove_keyed(&mut self, base: f64, id: JobId) {
        let pos = self
            .mate_pool
            .partition_point(|e| (e.base, e.id) < (base, id));
        if self.mate_pool.get(pos).is_some_and(|e| e.id == id) {
            let gone = self.mate_pool.remove(pos);
            self.pool_weights.remove(gone.weight);
        } else {
            debug_assert!(
                !self.mate_pool.iter().any(|e| e.id == id),
                "{id} in mate pool under a different key"
            );
        }
    }

    // Energy accounting: weighted busy cores = Σ job cores × cpu-utilisation.
}
