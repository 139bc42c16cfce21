//! Bytes per job, pinned: the size of a job-table entry, and the peak live
//! heap of a small offline W4 SD-Policy replay per job, counted by a
//! `#[global_allocator]` that keeps the live byte count and its high-water
//! mark.
//!
//! The job table grows with every job ever submitted, but only the few
//! hundred jobs executing at once need their running state, so it lives out
//! of line (`JobState::Running(Box<RunningJob>)`). A change that puts running
//! state back into every `Job`, or adds another per-job allocation, fails
//! here instead of showing up as a noisy peak-RSS reading.
//!
//! `SimState`'s own size is pinned exactly on x86-64: 32 unused bytes in it
//! once read as a 2 % served slowdown, so a growth must be a reviewed edit.
//!
//! One test function on purpose: the counter sees every thread's heap, so
//! nothing else may allocate in this process while the replay is measured.
//! Run it in release too (CI does): the byte counts must hold in the profile
//! the benchmark measures.

use sd_sched::prelude::*;
use slurm_sim::{Job, JobState, SimState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts the bytes of every `alloc`, `alloc_zeroed`, `realloc` and `dealloc`.
struct Counting;

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the larger size first, so a peak is never missed.
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Restarts the high-water mark at the current live bytes; returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The `Job` size a pending, done or cancelled job costs: its spec plus the
/// state tag and the running state's pointer.
const JOB_BYTES: usize = 80;
const JOB_STATE_BYTES: usize = 16;

/// `SimState`'s size on x86-64. Growing it moved the served workloads by a
/// few percent through layout alone (`EventQueue` padded by 32 bytes:
/// `serve_live` ×0.979), so a change here says why in its review. It is a
/// multiple of 16 (the DynAVGSD sum is an `i128`): the conservative pass
/// plan's 8-byte box took it from 976 to 992. The release tally left it
/// (−24) and the queue's walk in place, its edit count and the cached
/// availability's version with its one-patch undo came in: 1 008
/// (served pairs in `bench-history/pr52.json`).
#[cfg(target_arch = "x86_64")]
const SIM_STATE_BYTES: usize = 1008;

/// W4 (Curie) at its default scale: ≈ 4 K jobs, under a second in a debug
/// build.
const SCALE: f64 = 0.02;

/// Peak live heap of the replay per job, the trace excluded: 239 B measured.
/// It was 434 B with the running state inline in every `Job`, 284 B with it
/// boxed but the outcome list grown by doubling instead of sized up front,
/// and 252 B with two event slots reserved per job instead of one.
const PEAK_BYTES_PER_JOB: usize = 267;

#[test]
fn a_job_pays_for_running_state_only_while_it_runs() {
    assert!(
        std::mem::size_of::<Job>() <= JOB_BYTES,
        "Job is {} B, budget {JOB_BYTES} B",
        std::mem::size_of::<Job>()
    );
    assert!(
        std::mem::size_of::<JobState>() <= JOB_STATE_BYTES,
        "JobState is {} B, budget {JOB_STATE_BYTES} B",
        std::mem::size_of::<JobState>()
    );
    #[cfg(target_arch = "x86_64")]
    assert_eq!(
        std::mem::size_of::<SimState>(),
        SIM_STATE_BYTES,
        "SimState's size moved: re-pin it only with the served workloads measured"
    );

    let w = PaperWorkload::W4Curie;
    let trace = w.generate(42, SCALE);
    let cluster = w.cluster(SCALE);
    let jobs = trace.jobs.len();
    // Everything live now — the trace above all — is not the simulator's.
    let before = reset_peak();
    let result = run_trace(
        cluster,
        SlurmConfig::default(),
        &trace,
        Box::new(IdealModel),
        SharingFactor::HALF,
        SdPolicy::default(),
    );
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(result.outcomes.len(), jobs, "every job finished");
    assert!(result.stats.started_malleable > 0, "the replay co-scheduled jobs");
    let per_job = peak / jobs;
    println!("{jobs} jobs, peak {peak} B = {per_job} B per job");
    assert!(
        per_job <= PEAK_BYTES_PER_JOB,
        "peak live heap {per_job} B per job over {jobs} jobs, budget {PEAK_BYTES_PER_JOB} B"
    );
}
