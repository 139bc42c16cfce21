//! Online (service-mode) mutations: job submission and cancellation.
//! [`SimState::submit_job`] is the one way a job enters the simulator — the
//! trace constructors call it once per record — so an offline replay and a
//! served session of the same records build the same state.

use super::*;

impl SimState {

    /// Admits a job and arms its submit event — the one admission path:
    /// [`SimState::new`] and [`SimState::with_apps`] call it once per trace
    /// record, the service once per request. The record is converted by
    /// `JobSpec::from_swf`, numbered densely (job table index = id − 1), made
    /// malleable by a draw forked from the record's own id, and the
    /// makespan/energy window is anchored at the earliest submit seen.
    ///
    /// The record's submit time must not lie in the past (`>= now`); records
    /// the simulator cannot run are rejected. `malleable` overrides the
    /// configured fraction draw (`None` = draw).
    pub fn submit_job(
        &mut self,
        sj: &swf::SwfJob,
        malleable: Option<bool>,
    ) -> Result<JobId, SubmitError> {
        if sj.submit >= 0 && SimTime(sj.submit as u64) < self.now {
            return Err(SubmitError::InPast {
                submit: SimTime(sj.submit as u64),
                now: self.now,
            });
        }
        let malleable = malleable.unwrap_or_else(|| {
            // A registered tenant's adoption override replaces the global
            // fraction; the draw itself is the same either way.
            let fraction = self
                .cfg
                .malleable_fraction_for(sj.user.max(0) as u32, sj.group.max(0) as u32);
            fraction >= 1.0
                || DetRng::new(self.cfg.malleable_seed)
                    .fork(sj.job_id)
                    .chance(fraction)
        });
        let Some(mut js) = JobSpec::from_swf(sj, &self.spec, malleable, self.cfg.ranks_per_node)
        else {
            return Err(SubmitError::Unusable);
        };
        js.id = JobId(self.jobs.len() as u64 + 1);
        let id = js.id;
        if js.submit < self.first_submit {
            // Re-anchor the measurement window. Only possible before the
            // first dispatch: afterwards `now > ZERO` and past submits were
            // rejected above, so the window never moves under the meter.
            debug_assert_eq!(self.stats.events_dispatched, 0, "window moved mid-run");
            self.first_submit = js.submit;
            self.meter.start(js.submit);
        }
        self.events.push(js.submit, Event::Submit(id));
        self.jobs.push(Job {
            spec: js,
            state: JobState::Pending,
        });
        Ok(id)
    }

    /// Withdraws a job (SLURM `scancel`). Pending jobs leave the queue;
    /// running jobs — including shrunk borrowers and active mates — tear
    /// down exactly like a completion (partners expand back into the freed
    /// cores, DROM masks and the energy meter are settled) but record no
    /// outcome. Finished or already-cancelled jobs return `false`. On
    /// success the matching dirty flag is raised (dropping a reservation
    /// holder or freeing capacity can unblock backfill).
    pub fn cancel_job(&mut self, id: JobId) -> bool {
        if id.0 == 0 || id.0 as usize > self.jobs.len() {
            return false;
        }
        match self.job(id).state {
            JobState::Pending => {
                // A pending job may not have reached its submit instant yet;
                // cancel both the queue entry (present after dispatch) and
                // any future submit event (skipped as stale on dispatch).
                let was_queued = self.queue.remove(id);
                self.job_mut(id).state = JobState::Cancelled;
                self.stats.cancelled += 1;
                self.trace
                    .emit(self.now.secs(), sd_trace::TraceKind::Cancelled { job: id.0 });
                if was_queued {
                    self.dirty.queue = true;
                }
                true
            }
            JobState::Running(_) => {
                let now = self.now;
                let (spec, run) = {
                    let job = self.job_mut(id);
                    let JobState::Running(mut run) =
                        std::mem::replace(&mut job.state, JobState::Cancelled)
                    else {
                        unreachable!("matched running above");
                    };
                    run.bank(now);
                    (job.spec.clone(), run)
                };
                self.tenant_finish(&spec, false);
                // The machine was busy until this instant; the energy/
                // makespan window must cover it even when the cancellation
                // is the session's last activity.
                self.last_end = self.last_end.max(now);
                self.release_running(id, &spec, &run);
                self.stats.cancelled += 1;
                self.trace
                    .emit(self.now.secs(), sd_trace::TraceKind::Cancelled { job: id.0 });
                self.dirty.capacity = true;
                true
            }
            JobState::Done | JobState::Cancelled => false,
        }
    }

}
