//! CPU-time clocks: the time the process, or the calling thread, spent
//! running on a processor. Unlike the wall clock they do not advance while
//! the host runs other tenants on the benchmark's processors (steal time)
//! or while a thread waits for a processor.

#![allow(unsafe_code)]

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn seconds(clock: i32) -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec` for the call's
    // duration, and both clock ids exist on every Linux kernel.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// CPU time of every thread of the process so far, including threads
/// that have ended, in seconds.
pub fn process_s() -> f64 {
    seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in seconds.
pub fn thread_s() -> f64 {
    seconds(CLOCK_THREAD_CPUTIME_ID)
}
