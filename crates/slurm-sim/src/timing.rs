//! Opt-in per-function hot-path timing attribution.
//!
//! The OAR simulator's `auto_bench_fct` idiom: every hot function gets a
//! cheap global counter + wall-time accumulator, always compiled in but dormant
//! until enabled (one relaxed atomic load per probe when off). Enable with
//! [`enable`], or hold an [`arm`] window as `sd-serve` does for its whole
//! life; `run_scenario --timing` prints the report. It attributes a pass's
//! wall time to `earliest_start`, the backfill trials, the quota checks and
//! the node bookkeeping of each job start and end instead of one opaque
//! total.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Windowed-profiling refcount: each `/v1/profile?seconds=N` window (or a
/// long-lived service arming at boot) holds one count. Probes fire while
/// either the static switch or any window is armed.
static ARMED: AtomicU32 = AtomicU32::new(0);

/// Turns probes on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns probes off (accumulated totals are kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Arms a profiling window; probes fire until the matching [`disarm`].
/// Nestable (refcounted) — concurrent `/v1/profile` windows compose.
pub fn arm() {
    ARMED.fetch_add(1, Ordering::Relaxed);
}

/// Releases one [`arm`] window.
pub fn disarm() {
    let prev = ARMED.fetch_sub(1, Ordering::Relaxed);
    debug_assert!(prev > 0, "disarm without a matching arm");
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || ARMED.load(Ordering::Relaxed) > 0
}

/// One instrumented function: invocation count + summed wall nanoseconds.
pub struct FnTimer {
    name: &'static str,
    count: AtomicU64,
    nanos: AtomicU64,
}

impl FnTimer {
    const fn new(name: &'static str) -> FnTimer {
        FnTimer {
            name,
            count: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn snapshot(&self) -> FnTiming {
        FnTiming {
            name: self.name,
            count: self.count.load(Ordering::Relaxed),
            total_secs: self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// `earliest_start` probes (the linear sweep over the pass profile).
pub(crate) static EARLIEST_START: FnTimer = FnTimer::new("earliest_start");
/// One per pending job examined by a backfill pass (static trial +
/// flexible/malleable fallback together).
pub(crate) static BACKFILL_TRIAL: FnTimer = FnTimer::new("backfill_trial");
/// One per job start attempted (`start_static`, `co_schedule`): idle-node
/// pick, per-node placement + DROM launch, release map, indexes. Fires
/// *inside* a backfill trial, so `backfill_trial` minus this is what the
/// scheduler itself spent deciding.
pub(crate) static JOB_START: FnTimer = FnTimer::new("job_start");
/// One per job completion, dispatched from the event loop outside any pass:
/// per-node removal + DROM teardown, beneficiary expansion, release map.
pub(crate) static JOB_END: FnTimer = FnTimer::new("job_end");
/// SD-Policy mate scans that actually ran (candidate collection + mate
/// pick together); trials pruned by the pool weight index never get here.
pub static MATE_SCAN: FnTimer = FnTimer::new("mate_scan");
/// The MAX_SLOWDOWN cut-off resolved once per pass — for DynAVGSD the
/// O(running jobs) average-slowdown recompute.
pub static CUTOFF: FnTimer = FnTimer::new("cutoff");
/// Per-entry tenant quota admission checks.
pub(crate) static QUOTA_CHECK: FnTimer = FnTimer::new("quota_check");
/// Fair-share prefix reorders (decay + stable sort).
pub(crate) static FAIR_SHARE_SORT: FnTimer = FnTimer::new("fair_share_sort");
/// One whole scheduler pass (the controller's `run_pass`) — the root frame
/// every finer-grained probe nests under.
pub(crate) static SCHED_PASS: FnTimer = FnTimer::new("sched_pass");
/// SD-Policy trials answered from the per-pass verdict memo instead of an
/// `earliest_start` sweep or a mate scan. Work, not time: fed through
/// [`count`], so its `total_secs` stays zero.
pub static TRIAL_MEMO_HIT: FnTimer = FnTimer::new("trial_memo_hit");

const ALL: [&FnTimer; 10] = [
    &SCHED_PASS,
    &EARLIEST_START,
    &BACKFILL_TRIAL,
    &JOB_START,
    &JOB_END,
    &MATE_SCAN,
    &CUTOFF,
    &QUOTA_CHECK,
    &FAIR_SHARE_SORT,
    &TRIAL_MEMO_HIT,
];

/// RAII probe: measures from construction to drop when timing is enabled,
/// and is a no-op (no clock read) when disabled.
pub struct TimedScope {
    armed: Option<(Instant, &'static FnTimer)>,
}

impl Drop for TimedScope {
    fn drop(&mut self) {
        if let Some((start, timer)) = self.armed.take() {
            timer.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts a timed scope over `timer` (no-op unless [`enabled`]).
pub fn scope(timer: &'static FnTimer) -> TimedScope {
    TimedScope {
        armed: enabled().then(|| (Instant::now(), timer)),
    }
}

/// Counts one occurrence on `timer` without reading the clock (no-op unless
/// [`enabled`]) — for events too frequent and too short to time.
pub fn count(timer: &'static FnTimer) {
    if enabled() {
        timer.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A snapshot row of one instrumented function.
#[derive(Debug, Clone, PartialEq)]
pub struct FnTiming {
    pub name: &'static str,
    pub count: u64,
    pub total_secs: f64,
}

impl FnTiming {
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs * 1e6 / self.count as f64
        }
    }
}

/// Snapshots every instrumented function (fixed, deterministic order).
pub fn report() -> Vec<FnTiming> {
    ALL.iter().map(|t| t.snapshot()).collect()
}

/// `after - before` over two [`report`] snapshots (a profiling window).
/// Panics if the snapshots are not index-aligned [`report`] outputs.
pub fn delta(before: &[FnTiming], after: &[FnTiming]) -> Vec<FnTiming> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| {
            assert_eq!(a.name, b.name, "delta over unlike snapshots");
            FnTiming {
                name: a.name,
                count: a.count.saturating_sub(b.count),
                total_secs: (a.total_secs - b.total_secs).max(0.0),
            }
        })
        .collect()
}

/// The nominal call hierarchy of each probe, root-first, for
/// collapsed-stack export. "Nominal" because probes measure inclusive wall
/// time wherever they fire: `earliest_start` also runs outside backfill
/// trials, but attributing each probe to its dominant caller keeps the
/// flamegraph honest for the hot path that matters (the ROADMAP's
/// `backfill_trial` wall).
pub(crate) fn stack_frames(name: &str) -> &'static [&'static str] {
    match name {
        "sched_pass" => &["sd", "sched_pass"],
        "fair_share_sort" => &["sd", "sched_pass", "fair_share_sort"],
        "quota_check" => &["sd", "sched_pass", "quota_check"],
        "backfill_trial" => &["sd", "sched_pass", "backfill_trial"],
        "earliest_start" => &["sd", "sched_pass", "backfill_trial", "earliest_start"],
        "job_start" => &["sd", "sched_pass", "backfill_trial", "job_start"],
        "job_end" => &["sd", "dispatch", "job_end"],
        "mate_scan" => &["sd", "sched_pass", "backfill_trial", "mate_scan"],
        "cutoff" => &["sd", "sched_pass", "backfill_trial", "cutoff"],
        "trial_memo_hit" => &["sd", "sched_pass", "backfill_trial", "trial_memo_hit"],
        _ => &["sd", "other"],
    }
}

/// Maps a [`report`]/[`delta`] snapshot onto `(stack, self_micros)` rows
/// for collapsed-stack rendering: each probe's value is its inclusive wall
/// time minus its direct children's (clamped at zero — probes measure
/// independently, so a child can slightly exceed its nominal parent).
pub fn stack_rows(rows: &[FnTiming]) -> Vec<(Vec<&'static str>, u64)> {
    let totals: Vec<(&'static [&'static str], u64)> = rows
        .iter()
        .map(|r| (stack_frames(r.name), (r.total_secs * 1e6) as u64))
        .collect();
    totals
        .iter()
        .map(|(frames, total)| {
            let children: u64 = totals
                .iter()
                .filter(|(f, _)| f.len() == frames.len() + 1 && f.starts_with(frames))
                .map(|(_, v)| *v)
                .sum();
            (frames.to_vec(), total.saturating_sub(children))
        })
        .collect()
}

/// Zeroes all counters (e.g. between scenario runs).
pub fn reset() {
    for t in ALL {
        t.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Timing state is process-global; keep every assertion in one test so
    // parallel test threads can't interleave enable/reset windows.
    #[test]
    fn probes_accumulate_only_when_enabled() {
        disable();
        reset();
        drop(scope(&EARLIEST_START));
        count(&TRIAL_MEMO_HIT);
        assert_eq!(EARLIEST_START.snapshot().count, 0, "dormant when off");
        assert_eq!(TRIAL_MEMO_HIT.snapshot().count, 0, "dormant when off");

        enable();
        for _ in 0..3 {
            drop(scope(&EARLIEST_START));
        }
        drop(scope(&QUOTA_CHECK));
        count(&TRIAL_MEMO_HIT);
        count(&TRIAL_MEMO_HIT);
        let rows = report();
        assert_eq!(rows.len(), 10);
        let hit = rows.iter().find(|r| r.name == "trial_memo_hit").unwrap();
        assert_eq!((hit.count, hit.total_secs), (2, 0.0), "never timed");
        let es = rows.iter().find(|r| r.name == "earliest_start").unwrap();
        assert_eq!(es.count, 3);
        let qc = rows.iter().find(|r| r.name == "quota_check").unwrap();
        assert_eq!(qc.count, 1);
        assert!(qc.mean_micros() >= 0.0);

        disable();
        reset();
        assert!(report().iter().all(|r| r.count == 0 && r.total_secs == 0.0));

        // Windowed arming: probes fire while any arm() window is open.
        assert!(!enabled());
        arm();
        assert!(enabled());
        drop(scope(&BACKFILL_TRIAL));
        disarm();
        assert!(!enabled());
        drop(scope(&BACKFILL_TRIAL));
        assert_eq!(BACKFILL_TRIAL.snapshot().count, 1, "only the armed window");
        reset();
    }

    #[test]
    fn stack_rows_subtract_children_and_stay_rooted() {
        // Synthetic snapshot: pass 100 ms, trials 60 ms — of which earliest
        // 20 ms, mate scans 15 ms, the cut-off 5 ms, job starts 12 ms — and
        // 30 ms of job ends outside any pass.
        let rows = vec![
            FnTiming { name: "sched_pass", count: 1, total_secs: 0.100 },
            FnTiming { name: "backfill_trial", count: 10, total_secs: 0.060 },
            FnTiming { name: "earliest_start", count: 10, total_secs: 0.020 },
            FnTiming { name: "mate_scan", count: 3, total_secs: 0.015 },
            FnTiming { name: "cutoff", count: 1, total_secs: 0.005 },
            FnTiming { name: "job_start", count: 2, total_secs: 0.012 },
            FnTiming { name: "job_end", count: 2, total_secs: 0.030 },
            FnTiming { name: "trial_memo_hit", count: 7, total_secs: 0.0 },
        ];
        let stacks = stack_rows(&rows);
        let find = |suffix: &str| {
            stacks
                .iter()
                .find(|(f, _)| f.last() == Some(&suffix))
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(find("sched_pass"), 40_000, "pass self = 100 - 60 ms");
        assert_eq!(find("backfill_trial"), 8_000, "trial self = 60 - 52 ms");
        assert_eq!(find("job_start"), 12_000);
        assert_eq!(find("job_end"), 30_000, "not charged to the pass");
        assert_eq!(find("earliest_start"), 20_000);
        assert_eq!(find("mate_scan"), 15_000);
        assert_eq!(find("cutoff"), 5_000);
        assert_eq!(find("trial_memo_hit"), 0, "a count weighs nothing in a flamegraph");
        assert!(stacks.iter().all(|(f, _)| f[0] == "sd"));
        // Every timer has a hierarchy entry (no frame falls back to other).
        for r in report() {
            assert_ne!(stack_frames(r.name), ["sd", "other"], "{}", r.name);
        }
    }
}
