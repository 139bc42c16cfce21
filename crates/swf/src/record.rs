//! The 18-field SWF job record.

/// Completion status of a job (SWF field 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// 0 — job failed.
    Failed,
    /// 1 — job completed normally.
    Completed,
    /// 2 — partial execution, will continue (checkpointed trace).
    PartialToBeContinued,
    /// 3 — partial execution, last segment.
    PartialLast,
    /// 4 — job was cancelled.
    Cancelled,
    /// −1 (or anything else) — unknown.
    Unknown,
}

impl JobStatus {
    pub fn from_code(code: i64) -> JobStatus {
        match code {
            0 => JobStatus::Failed,
            1 => JobStatus::Completed,
            2 => JobStatus::PartialToBeContinued,
            3 => JobStatus::PartialLast,
            4 => JobStatus::Cancelled,
            _ => JobStatus::Unknown,
        }
    }

    pub fn code(self) -> i64 {
        match self {
            JobStatus::Failed => 0,
            JobStatus::Completed => 1,
            JobStatus::PartialToBeContinued => 2,
            JobStatus::PartialLast => 3,
            JobStatus::Cancelled => 4,
            JobStatus::Unknown => -1,
        }
    }
}

/// One job record, mirroring SWF v2.2 exactly.
///
/// Missing values are encoded as `-1` in the file; numeric fields keep that
/// convention (`i64`/`f64`) and the typed accessors (`runtime()`,
/// `requested_time()`, …) translate them into `Option`s.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfJob {
    /// 1: job number, a counter starting from 1.
    pub job_id: u64,
    /// 2: submit time in seconds since trace start.
    pub submit: i64,
    /// 3: wait time in seconds (difference between submit and start), −1 unknown.
    pub wait: i64,
    /// 4: run time in seconds (wall clock), −1 unknown.
    pub run_time: i64,
    /// 5: number of allocated processors, −1 unknown.
    pub used_procs: i64,
    /// 6: average CPU time used per processor, seconds, −1 unknown.
    pub avg_cpu_time: f64,
    /// 7: used memory per processor, KB, −1 unknown.
    pub used_mem: f64,
    /// 8: requested number of processors, −1 unknown.
    pub req_procs: i64,
    /// 9: requested (user-estimated) wall-clock time, seconds, −1 unknown.
    pub req_time: i64,
    /// 10: requested memory per processor, KB, −1 unknown.
    pub req_mem: f64,
    /// 11: completion status.
    pub status: JobStatus,
    /// 12: user id, −1 unknown.
    pub user: i64,
    /// 13: group id, −1 unknown.
    pub group: i64,
    /// 14: executable (application) number, −1 unknown.
    pub app: i64,
    /// 15: queue number, −1 unknown.
    pub queue: i64,
    /// 16: partition number, −1 unknown.
    pub partition: i64,
    /// 17: preceding job number (dependency), −1 none.
    pub preceding_job: i64,
    /// 18: think time from preceding job, seconds, −1 none.
    pub think_time: i64,
}

impl Default for SwfJob {
    fn default() -> Self {
        SwfJob {
            job_id: 0,
            submit: 0,
            wait: -1,
            run_time: -1,
            used_procs: -1,
            avg_cpu_time: -1.0,
            used_mem: -1.0,
            req_procs: -1,
            req_time: -1,
            req_mem: -1.0,
            status: JobStatus::Unknown,
            user: -1,
            group: -1,
            app: -1,
            queue: -1,
            partition: -1,
            preceding_job: -1,
            think_time: -1,
        }
    }
}

impl SwfJob {
    /// A minimal, valid record for simulation: id, submit, runtime, size and
    /// user estimate.
    pub fn for_simulation(
        job_id: u64,
        submit: u64,
        run_time: u64,
        procs: u64,
        req_time: u64,
    ) -> SwfJob {
        SwfJob {
            job_id,
            submit: submit as i64,
            run_time: run_time as i64,
            used_procs: procs as i64,
            req_procs: procs as i64,
            req_time: req_time as i64,
            status: JobStatus::Completed,
            ..SwfJob::default()
        }
    }

    /// Actual runtime if known.
    pub fn runtime(&self) -> Option<u64> {
        (self.run_time >= 0).then_some(self.run_time as u64)
    }

    /// Requested (estimated) wall time if known, falling back to the actual
    /// runtime — the usual convention when replaying traces with missing
    /// estimates.
    pub fn requested_time(&self) -> Option<u64> {
        if self.req_time >= 0 {
            Some(self.req_time as u64)
        } else {
            self.runtime()
        }
    }

    /// Processor count to use when replaying: requested, else used.
    pub fn procs(&self) -> Option<u64> {
        if self.req_procs > 0 {
            Some(self.req_procs as u64)
        } else if self.used_procs > 0 {
            Some(self.used_procs as u64)
        } else {
            None
        }
    }

    /// Wait time if recorded.
    pub fn wait_time(&self) -> Option<u64> {
        (self.wait >= 0).then_some(self.wait as u64)
    }

    /// True when the record carries everything needed to simulate it.
    pub(crate) fn is_simulatable(&self) -> bool {
        self.submit >= 0 && self.runtime().is_some() && self.procs().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_roundtrip() {
        for code in [-1i64, 0, 1, 2, 3, 4] {
            let s = JobStatus::from_code(code);
            assert_eq!(s.code(), code);
        }
        assert_eq!(JobStatus::from_code(99), JobStatus::Unknown);
    }

    #[test]
    fn defaults_are_unknown() {
        let j = SwfJob::default();
        assert_eq!(j.runtime(), None);
        assert_eq!(j.requested_time(), None);
        assert_eq!(j.procs(), None);
        assert_eq!(j.wait_time(), None);
        assert!(!j.is_simulatable());
    }

    #[test]
    fn for_simulation_is_simulatable() {
        let j = SwfJob::for_simulation(1, 100, 3600, 64, 7200);
        assert!(j.is_simulatable());
        assert_eq!(j.runtime(), Some(3600));
        assert_eq!(j.requested_time(), Some(7200));
        assert_eq!(j.procs(), Some(64));
    }

    #[test]
    fn requested_time_falls_back_to_runtime() {
        let mut j = SwfJob::for_simulation(1, 0, 500, 4, 600);
        j.req_time = -1;
        assert_eq!(j.requested_time(), Some(500));
    }

    #[test]
    fn procs_prefers_requested() {
        let mut j = SwfJob {
            used_procs: 32,
            ..SwfJob::default()
        };
        assert_eq!(j.procs(), Some(32));
        j.req_procs = 64;
        assert_eq!(j.procs(), Some(64));
    }
}
