//! How the benchmark measures time: CPU-time clocks, and a reference
//! kernel that rescales job times to a fixed host speed.
//!
//! On a shared host, wall time swings between runs by far more than any
//! change in the program: it also counts the time the thread or the
//! whole VM was descheduled for other tenants. CPU time leaves that out
//! (the kernel's steal-time accounting keeps host preemption out of it),
//! but the host's speed itself drifts too: for minutes at a time every
//! job type took about 2.1 times the CPU time, with no steal time
//! reported. So every run times a fixed kernel of the benchmark's own
//! between jobs, and scales each job time by [`REFERENCE_NOMINAL_S`] ÷
//! the kernel's recent time. The times reported are those of a host
//! on which the kernel takes its nominal time. The kernel is not the
//! program's code, so a change to the program moves job times and not
//! the kernel's.

use std::hint::black_box;

/// CPU time of one [`reference_s`] run at the host speed reported times
/// are rescaled to, seconds: that of the 2.1 GHz Xeon vCPU the benchmark
/// was developed on at its fastest, when `paper_direct` ran 38 000 jobs
/// per CPU second (estimated from the kernel's time against that rate in
/// slower spells, 4.2–4.6 ms·jobs/s). Only the scale of reported times
/// depends on it.
pub const REFERENCE_NOMINAL_S: f64 = 0.000_12;

/// Job time between two reference samples, seconds: the kernel costs a
/// few percent of the timed phase, and a run takes hundreds of samples.
pub const SAMPLE_EVERY_S: f64 = 0.01;

/// How many of the latest reference samples a job time is rescaled by
/// (their median): about 50 ms of job time in the warm workloads, the
/// last five jobs in `cold_calibration`. The host's speed changes within
/// seconds, so the samples nearest the job serve best.
pub const REFERENCE_WINDOW: usize = 5;

/// CPU time the calling thread has used so far, seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Every timed compile is single-threaded
/// work without I/O or waits, so on a quiet host this agrees with wall
/// time.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has used so far, seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`): how `setup_s` is timed, since set-up
/// may fan out over the rayon pool. A thread still running on another
/// core is counted up to its last scheduler update, a few milliseconds
/// at most.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a Linux CPU-time clock (64-bit `struct timespec`).
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of the 64-bit
    // Linux layout, and the clock ids are the kernel's fixed constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs the reference kernel once on the calling thread and returns its
/// CPU time, seconds.
pub fn reference_s() -> f64 {
    let start = thread_cpu_s();
    black_box(reference_kernel(black_box(REFERENCE_SEED)));
    thread_cpu_s() - start
}

const REFERENCE_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The reference work: sorting and binary search over a vector that
/// stays in the core's own caches, so it measures the core's speed, not
/// memory's. Returns a checksum.
fn reference_kernel(seed: u64) -> u64 {
    const N: usize = 1024;
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut values = vec![0u64; N];
    let mut sum = 0u64;
    for _ in 0..8 {
        values.iter_mut().for_each(|v| *v = next() % 100_000);
        values.sort_unstable();
        for _ in 0..N {
            let probe = next() % 100_000;
            sum = sum.wrapping_add(values.partition_point(|&v| v < probe) as u64);
        }
    }
    sum
}

/// Median reference time of `n` runs on the calling thread, seconds.
pub fn reference_median_s(n: usize) -> f64 {
    crate::stats::median(&(0..n).map(|_| reference_s()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (thread, process) = (thread_cpu_s(), process_cpu_s());
        black_box(reference_kernel(1));
        assert!(thread_cpu_s() > thread);
        assert!(process_cpu_s() > process);
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(REFERENCE_SEED), reference_kernel(REFERENCE_SEED));
        assert_ne!(reference_kernel(REFERENCE_SEED), reference_kernel(1));
    }
}
