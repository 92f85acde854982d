//! Client placement on CPUs, and the CPU time clients actually got.
//!
//! On the reference host (a 2-vCPU VM) the two vCPUs run the same
//! single-client workload at speeds up to ~40% apart, and which one a
//! fresh client thread lands on stays fixed for a whole run. Unplaced,
//! a run measured one vCPU or the other, and runs split into two modes.
//! The benchmark therefore places every client explicitly and rotates
//! placements over the rounds, so each run weighs every vCPU equally.
//!
//! The host also takes the vCPU away for milliseconds at a time. A
//! client's thread CPU time against its wall time shows how much of a
//! round it really ran, which the provenance records.

use std::time::Duration;

/// The CPUs this process may run on, ascending; empty if unknown (then
/// [`pin`] is never called and threads float).
pub fn allowed() -> Vec<usize> {
    sys::allowed()
}

/// Pins the calling thread to `cpu`, best effort: where the platform
/// refuses, the thread floats.
pub fn pin(cpu: usize) {
    sys::pin(cpu);
}

/// CPU time the calling thread has consumed; `None` if unknown.
pub fn thread_time() -> Option<Duration> {
    sys::thread_time()
}

#[cfg(target_os = "linux")]
mod sys {
    use std::time::Duration;

    /// A `cpu_set_t`: 1024 CPU bits.
    type CpuSet = [u64; 16];

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub fn thread_time() -> Option<Duration> {
        if cfg!(not(target_pointer_width = "64")) {
            return None;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a writable `struct timespec` (64-bit layout,
        // checked above) that outlives the call.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return None;
        }
        Some(Duration::new(
            u64::try_from(ts.tv_sec).ok()?,
            u32::try_from(ts.tv_nsec).ok()?,
        ))
    }

    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut set: CpuSet = [0; 16];
        if cpu >= set.len() * 64 {
            return;
        }
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread, so only it moves. A refusal
        // leaves the thread where it is, which `pin` documents.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::time::Duration;

    pub fn thread_time() -> Option<Duration> {
        None
    }

    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_: usize) {}
}
