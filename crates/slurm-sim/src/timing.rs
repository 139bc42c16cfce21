//! Opt-in per-function hot-path timing attribution.
//!
//! The OAR simulator's `auto_bench_fct` idiom: every hot function gets a
//! cheap counter + wall-time accumulator, always compiled in but dormant
//! until enabled (one thread-local and one relaxed atomic load per probe
//! when off). Counters belong to the thread the probe runs on: [`enable`],
//! [`disable`], [`reset`] and [`report`] act on the calling thread, so a run
//! that does all four on its own thread reads exactly its own numbers. An
//! [`arm`] window is process-wide instead — `sd-serve` holds one for its
//! whole life, and each worker that calls the engine folds its share into
//! the engine's total with [`take_into`]. `run_scenario
//! --timing` prints the report and [`collapsed`] renders it as folded
//! stacks. It attributes a pass's wall time to `earliest_start`, the
//! backfill trials, the quota checks and the node bookkeeping of each job
//! start and end instead of one opaque total.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One instrumented function. Declaration order is the row order of
/// [`report`], `/metrics` and `run_scenario --timing`.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    /// One whole scheduler pass (the controller's `run_pass`) — the root
    /// frame every finer-grained probe nests under.
    SchedPass,
    /// `earliest_start` (the linear sweep over the pass profile).
    EarliestStart,
    /// One per pending job examined by a backfill pass (static trial +
    /// flexible/malleable fallback together).
    BackfillTrial,
    /// One per job start attempted (`start_static`, `co_schedule`): idle-node
    /// pick, per-node placement + DROM launch, availability patch, indexes.
    /// Fires *inside* a backfill trial, so `backfill_trial` minus this is what the
    /// scheduler itself spent deciding.
    JobStart,
    /// One per job completion, dispatched from the event loop outside any
    /// pass: per-node removal + DROM teardown, beneficiary expansion,
    /// availability patch.
    JobEnd,
    /// SD-Policy mate scans that actually ran (candidate collection + mate
    /// pick together); trials pruned by the pool weight index never get here.
    MateScan,
    /// Mate scans whose scored candidates cannot meet Eq. 3, so the `nm` cut
    /// and the pick never ran: a subset of `mate_scan`'s calls. A count, fed
    /// through [`count`], like `trial_memo_hit`.
    MateScanRefused,
    /// The MAX_SLOWDOWN cut-off resolved once per pass.
    Cutoff,
    /// Per-entry tenant quota admission checks.
    QuotaCheck,
    /// Fair-share prefix reorders (decay + stable sort).
    FairShareSort,
    /// SD-Policy trials answered from the per-pass verdict memo instead of
    /// an `earliest_start` sweep or a mate scan. Work, not time: fed through
    /// [`count`], so its `total_secs` stays zero.
    TrialMemoHit,
    /// Conservative sweeps a pass took from the previous idle pass's plan
    /// instead of running `earliest_start`: a count, like `trial_memo_hit`.
    SweepReplayed,
    /// Static EASY trials a pass skipped because the previous pass proved
    /// them failing on an availability that has not changed since: a count
    /// (a subset of `backfill_trial`'s calls, which it adds in bulk).
    TailSkipped,
}

const PROBES: usize = Probe::TailSkipped as usize + 1;

/// Each [`Probe`]'s name and the frames it nominally runs under, root-first,
/// for [`collapsed`]. "Nominal" because probes measure inclusive wall time
/// wherever they fire: `earliest_start` also runs outside backfill trials,
/// but attributing each probe to its dominant caller keeps the flamegraph
/// honest for the hot path that matters (the `backfill_trial` wall).
pub(crate) const TABLE: [(&str, &[&str]); PROBES] = [
    ("sched_pass", &["sd"]),
    ("earliest_start", &["sd", "sched_pass", "backfill_trial"]),
    ("backfill_trial", &["sd", "sched_pass"]),
    ("job_start", &["sd", "sched_pass", "backfill_trial"]),
    ("job_end", &["sd", "dispatch"]),
    ("mate_scan", &["sd", "sched_pass", "backfill_trial"]),
    ("mate_scan_refused", &["sd", "sched_pass", "backfill_trial", "mate_scan"]),
    ("cutoff", &["sd", "sched_pass", "backfill_trial"]),
    ("quota_check", &["sd", "sched_pass"]),
    ("fair_share_sort", &["sd", "sched_pass"]),
    ("trial_memo_hit", &["sd", "sched_pass", "backfill_trial"]),
    ("sweep_replayed", &["sd", "sched_pass", "backfill_trial"]),
    ("tail_skipped", &["sd", "sched_pass", "backfill_trial"]),
];

/// The calling thread's switch and counters: plain cells, no atomics.
struct Counters {
    enabled: Cell<bool>,
    calls: [Cell<u64>; PROBES],
    nanos: [Cell<u64>; PROBES],
}

thread_local! {
    static LOCAL: Counters = const {
        Counters {
            enabled: Cell::new(false),
            calls: [const { Cell::new(0) }; PROBES],
            nanos: [const { Cell::new(0) }; PROBES],
        }
    };
}

/// Windowed-profiling refcount: each `/v1/profile?seconds=N` window (or a
/// long-lived service arming at boot) holds one count. Probes fire while
/// their own thread enabled them or any window is armed.
static ARMED: AtomicU32 = AtomicU32::new(0);

/// Turns probes on for the calling thread.
pub fn enable() {
    LOCAL.with(|l| l.enabled.set(true));
}

/// Turns the calling thread's probes off (its totals are kept until
/// [`reset`]).
pub fn disable() {
    LOCAL.with(|l| l.enabled.set(false));
}

/// Arms a profiling window: probes fire on every thread until the matching
/// [`disarm`]. Nestable (refcounted) — concurrent `/v1/profile` windows
/// compose.
pub fn arm() {
    ARMED.fetch_add(1, Ordering::Relaxed);
}

/// Releases one [`arm`] window.
pub fn disarm() {
    let prev = ARMED.fetch_sub(1, Ordering::Relaxed);
    debug_assert!(prev > 0, "disarm without a matching arm");
}

fn enabled() -> bool {
    LOCAL.with(|l| l.enabled.get()) || ARMED.load(Ordering::Relaxed) > 0
}

/// RAII probe: measures from construction to drop when timing is enabled,
/// and is a no-op (no clock read) when disabled.
pub struct TimedScope {
    armed: Option<(Instant, Probe)>,
}

impl Drop for TimedScope {
    fn drop(&mut self) {
        if let Some((start, probe)) = self.armed.take() {
            record(probe, 1, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Adds `calls` calls and `nanos` wall nanoseconds to the calling thread's
/// counters for `probe`.
fn record(probe: Probe, calls: u64, nanos: u64) {
    LOCAL.with(|l| {
        let i = probe as usize;
        l.calls[i].set(l.calls[i].get() + calls);
        l.nanos[i].set(l.nanos[i].get() + nanos);
    });
}

/// Starts a timed scope over `probe` (no-op unless enabled).
pub fn scope(probe: Probe) -> TimedScope {
    TimedScope {
        armed: enabled().then(|| (Instant::now(), probe)),
    }
}

/// Counts one occurrence of `probe` without reading the clock (no-op unless
/// enabled) — for events too frequent and too short to time.
pub fn count(probe: Probe) {
    count_many(probe, 1);
}

/// Counts `n` occurrences of `probe` at once, without reading the clock
/// (no-op unless enabled): work a caller proved it need not repeat.
pub fn count_many(probe: Probe, n: u64) {
    if enabled() {
        record(probe, n, 0);
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

/// The calling thread's counters, one row per [`Probe`] in declaration order.
pub fn report() -> Vec<FnTiming> {
    LOCAL.with(|l| {
        (TABLE.iter().zip(&l.calls).zip(&l.nanos))
            .map(|((&(name, _), calls), nanos)| FnTiming {
                name,
                count: calls.get(),
                total_secs: nanos.get() as f64 / 1e9,
            })
            .collect()
    })
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

pub use crate::profile::collapsed;

/// Zeroes the calling thread's counters (e.g. between scenario runs).
pub fn reset() {
    LOCAL.with(|l| {
        for c in l.calls.iter().chain(&l.nanos) {
            c.set(0);
        }
    });
}

/// Adds the calling thread's counters into `total` and zeroes them: the
/// share a thread hands over to a total kept elsewhere, folded in place. An
/// empty `total` becomes the thread's [`report`]; otherwise it must hold
/// index-aligned [`report`] rows (panics if not).
pub fn take_into(total: &mut Vec<FnTiming>) {
    if total.is_empty() {
        *total = report();
        reset();
        return;
    }
    assert_eq!(total.len(), PROBES, "take_into over unlike rows");
    LOCAL.with(|l| {
        for ((t, calls), nanos) in total.iter_mut().zip(&l.calls).zip(&l.nanos) {
            t.count += calls.replace(0);
            t.total_secs += nanos.replace(0) as f64 / 1e9;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calls(name: &str) -> u64 {
        report().iter().find(|r| r.name == name).unwrap().count
    }

    #[test]
    fn enabled_probes_count_and_time_per_function() {
        reset();
        enable();
        for _ in 0..3 {
            drop(scope(Probe::EarliestStart));
        }
        drop(scope(Probe::QuotaCheck));
        count(Probe::TrialMemoHit);
        count(Probe::TrialMemoHit);
        disable();
        let rows = report();
        assert_eq!(rows.len(), PROBES);
        let hit = rows.iter().find(|r| r.name == "trial_memo_hit").unwrap();
        assert_eq!((hit.count, hit.total_secs), (2, 0.0), "never timed");
        assert_eq!(calls("earliest_start"), 3);
        let qc = rows.iter().find(|r| r.name == "quota_check").unwrap();
        assert_eq!(qc.count, 1);
        assert!(qc.mean_micros() >= 0.0);
        reset();
        assert!(report().iter().all(|r| r.count == 0 && r.total_secs == 0.0));
    }

    // The only test that touches the process-wide switch: every assertion
    // that a probe stayed dormant lives here, so no other test's window can
    // open in the middle of one.
    #[test]
    fn take_hands_the_threads_counters_over_once() {
        reset();
        enable();
        drop(scope(Probe::QuotaCheck));
        let mut total = Vec::new();
        take_into(&mut total);
        drop(scope(Probe::QuotaCheck));
        count(Probe::TrialMemoHit);
        disable();
        take_into(&mut total);
        assert!(report().iter().all(|r| r.count == 0), "take_into zeroes the thread");
        let n = |name| total.iter().find(|r| r.name == name).unwrap().count;
        assert_eq!((n("quota_check"), n("trial_memo_hit")), (2, 1));
    }

    #[test]
    fn dormant_probes_fire_only_inside_an_arm_window() {
        disable();
        reset();
        drop(scope(Probe::EarliestStart));
        count(Probe::TrialMemoHit);
        assert_eq!(calls("earliest_start"), 0, "dormant when off");
        assert_eq!(calls("trial_memo_hit"), 0, "dormant when off");

        arm();
        assert!(enabled());
        drop(scope(Probe::BackfillTrial));
        let elsewhere = std::thread::spawn(|| {
            drop(scope(Probe::BackfillTrial));
            calls("backfill_trial")
        });
        assert_eq!(elsewhere.join().unwrap(), 1, "a window arms every thread");
        disarm();
        assert!(!enabled());
        drop(scope(Probe::BackfillTrial));
        assert_eq!(calls("backfill_trial"), 1, "only the armed window");
        reset();
    }

    #[test]
    fn each_thread_reads_only_its_own_probes() {
        // A counts N scopes; halfway through, B resets, enables, counts M
        // and disables. Neither may see the other's resets or numbers.
        use std::sync::Barrier;
        const N: u64 = 40;
        const M: u64 = 7;
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                reset();
                enable();
                for _ in 0..N / 2 {
                    drop(scope(Probe::EarliestStart));
                }
                barrier.wait();
                barrier.wait();
                for _ in 0..N / 2 {
                    drop(scope(Probe::EarliestStart));
                }
                disable();
                calls("earliest_start")
            });
            let b = s.spawn(|| {
                barrier.wait();
                reset();
                enable();
                for _ in 0..M {
                    drop(scope(Probe::EarliestStart));
                }
                disable();
                let m = calls("earliest_start");
                barrier.wait();
                m
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (N, M));
    }

    #[test]
    fn stack_rows_subtract_children_and_stay_rooted() {
        // Synthetic snapshot: pass 100 ms, trials 60 ms — of which earliest
        // 20 ms, mate scans 15 ms, the cut-off 5 ms, job starts 12 ms — and
        // 30 ms of job ends outside any pass.
        let row = |name, count, total_secs| FnTiming { name, count, total_secs };
        let rows = vec![
            row("sched_pass", 1, 0.100),
            row("backfill_trial", 10, 0.060),
            row("earliest_start", 10, 0.020),
            row("mate_scan", 3, 0.015),
            row("cutoff", 1, 0.005),
            row("job_start", 2, 0.012),
            row("job_end", 2, 0.030),
            row("trial_memo_hit", 7, 0.0),
        ];
        // The bytes the removed `stack_rows` + `sd_obs::collapsed` pair wrote
        // for these rows: pass self = 100 - 60 ms, trial self = 60 - 52 ms,
        // job ends not charged to the pass, and the count-only memo hit
        // dropped (a count weighs nothing in a flamegraph).
        let pinned = "sd;dispatch;job_end 30000\n\
                      sd;sched_pass 40000\n\
                      sd;sched_pass;backfill_trial 8000\n\
                      sd;sched_pass;backfill_trial;cutoff 5000\n\
                      sd;sched_pass;backfill_trial;earliest_start 20000\n\
                      sd;sched_pass;backfill_trial;job_start 12000\n\
                      sd;sched_pass;backfill_trial;mate_scan 15000\n";
        assert_eq!(collapsed(&rows), pinned);
        assert!(TABLE.iter().all(|(_, callers)| callers[0] == "sd"), "every stack is rooted");
    }
}
