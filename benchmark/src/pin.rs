//! Pins the workload's process to one CPU.
//!
//! Every workload is sequential by construction — one simulator thread
//! offline; one closed-loop client served, so client, HTTP worker and
//! engine thread never run at the same time. Spread over two virtual CPUs
//! the same session runs at 37 µs or at 120 µs per submit for minutes at a
//! time, depending on whether the hypervisor is quick to wake the idle
//! vCPU each hand-off needs. On one CPU a hand-off is a context switch:
//! the fast figure, every time. Threads spawned later inherit the mask.

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the mask can name: 1 024, glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Restricts this process to the highest-numbered CPU it may run on
/// (CPU 0 takes the housekeeping interrupts). Returns that CPU.
pub fn to_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the
    // `size_of_val(&mask)` bytes passed as `cpusetsize`; pid 0 names the
    // calling thread. The kernel writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of the `size_of_val(&one)` bytes
    // passed as `cpusetsize`, only read by the kernel; it names one CPU
    // taken from the mask the kernel just reported, so the set is valid.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}
