//! CPU time of the calling thread.

/// Nanoseconds of CPU the calling thread has used, read from the
/// thread's CPU-time clock (`CLOCK_THREAD_CPUTIME_ID`), which the kernel
/// keeps to the nanosecond rather than in scheduler ticks.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's; on 64-bit Linux
    // `struct timespec` is two 64-bit integers, matching `Timespec`, and
    // `ts` is a valid, writable, exclusively borrowed instance.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere the benchmark is not calibrated; fall back to wall time so
/// the metric stays defined.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_cpu_advances_with_work_not_sleep() {
        let a = super::thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = super::thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let c = super::thread_cpu_ns();
        assert!(b > a, "busy loop used CPU");
        assert!(c - b < 20_000_000, "sleeping used little CPU: {}", c - b);
    }
}
