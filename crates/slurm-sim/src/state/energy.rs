//! Energy accounting: the incremental weighted-busy integrator that
//! prices shrink/expand transitions without rescanning the machine.

use super::*;

impl SimState {
    pub(super) fn job_weight(cores: u64, app: Option<workload::AppId>) -> f64 {
        let util = app.map(|a| AppModel::by_id(a).cpu_util).unwrap_or(1.0);
        cores as f64 * util
    }

    /// Updates the global weighted-busy figure after the allocations of
    /// exactly the `changed` jobs moved: each job's delta against its
    /// registered `energy_weight` is applied to the running sum — `O(|changed|)`
    /// per event instead of a full `O(running)` rescan. The meter integrates
    /// the pre-change level over the elapsed interval first, so the step
    /// function stays piecewise-exact across shrink/expand boundaries.
    /// `cfg.self_check` cross-validates the sum against a full rescan.
    pub(super) fn energy_reweigh(&mut self, changed: &[JobId]) {
        self.energy_reweigh_iter(changed.iter().copied());
    }

    /// Iterator form of [`SimState::energy_reweigh`] so callers can chain id
    /// sources without building a temporary `Vec`.
    pub(super) fn energy_reweigh_iter(&mut self, changed: impl IntoIterator<Item = JobId>) {
        for id in changed {
            let job = &mut self.jobs[(id.0 - 1) as usize];
            let app = job.spec.app;
            if let Some(r) = job.running_mut() {
                let w = Self::job_weight(r.total_cores(), app);
                self.weighted_busy += w - r.energy_weight;
                r.energy_weight = w;
            }
        }
        if self.weighted_busy < 0.0 {
            // Float drift can leave a tiny negative residue on an empty
            // machine; snap it away so idle power is exact.
            debug_assert!(self.weighted_busy > -1e-6, "weight drift");
            self.weighted_busy = 0.0;
        }
        if self.cfg.self_check {
            let rescan: f64 = self
                .running
                .iter()
                .map(|&id| {
                    let job = self.job(id);
                    job.running()
                        .map_or(0.0, |r| Self::job_weight(r.total_cores(), job.spec.app))
                })
                .sum();
            assert!(
                (rescan - self.weighted_busy).abs() < 1e-6,
                "incremental weighted-busy {} diverged from rescan {}",
                self.weighted_busy,
                rescan
            );
        }
        self.meter.update(self.now, self.weighted_busy);
    }

    /// Removes a completed job's contribution. The caller passes the final
    /// tracked weight from the torn-down [`RunningJob`] — the job is no
    /// longer in the running set, so the incremental path cannot see it.
    pub(super) fn energy_sub_job(&mut self, last_weight: f64) {
        self.weighted_busy -= last_weight;
        // Anything beyond float drift means a core change bypassed
        // energy_reweigh — fail loudly rather than undercount energy.
        debug_assert!(self.weighted_busy > -1e-6, "weight drift after completion");
        self.weighted_busy = self.weighted_busy.max(0.0);
        // No meter update or rescan here: mid-completion the beneficiaries'
        // deltas are still pending, so the sum is transiently inconsistent.
        // `complete_job` always follows with `energy_reweigh`, which applies
        // them, cross-validates under self_check and registers the level.
    }

    /// Energy of the run so far, joules: the meter integrated up to the
    /// last end. It is finalised on a copy, so the live meter keeps running
    /// and the value equals finalising the meter itself; a finished run and
    /// a service snapshot both read their energy here.
    pub fn snapshot_energy(&self) -> f64 {
        self.meter.clone().finish(self.last_end)
    }

}
