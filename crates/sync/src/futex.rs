//! A thin futex abstraction, with no libc dependency.
//!
//! The paper's blocking mechanism (§3.6) is built directly on the Linux
//! `futex(2)` syscall: "a circular buffer of futexes (the Linux kernel's
//! fast userspace mutex object)". On x86-64 and AArch64 Linux this module
//! issues the raw syscall itself (`FUTEX_WAIT_PRIVATE` /
//! `FUTEX_WAKE_PRIVATE` via inline assembly — the kernel ABI is stable,
//! and going direct removes the workspace's only reason to link `libc`).
//! Elsewhere it degrades to a mutex/condvar parking table keyed by the
//! atom's address — slower, but with identical semantics, so the
//! [`crate::event::EventBuffer`] logic is portable.
//!
//! # Fault injection
//!
//! `futex.spurious-wake` — fires in [`futex_wait`] / [`futex_wait_timeout`]
//! *instead of* parking: the call returns immediately as if the kernel
//! delivered a spurious wakeup or `EINTR`. Forces every caller's
//! re-check-the-predicate loop; a caller that treats "returned" as
//! "signalled" loses wakeups or spins forever under this schedule.
//!
//! # Observability
//!
//! Always-on counters `futex.waits`, `futex.wait_timeouts`,
//! `futex.wakes`, `futex.woken_threads` (exported through
//! [`crate::obs::snapshot`]) and, under `obs-trace`, `futex_wait` /
//! `futex_wake` flight-recorder events. Park durations are recorded
//! into the caller's current [`crate::site`] as
//! `sync.futex_wait_ns{site=…}`.

use std::sync::atomic::AtomicU32;

/// Completed [`futex_wait`] / [`futex_wait_timeout`] calls.
pub(crate) static WAITS: obs::Counter = obs::Counter::new();
/// Timed waits that expired without a wakeup.
pub(crate) static WAIT_TIMEOUTS: obs::Counter = obs::Counter::new();
/// [`futex_wake`] / [`futex_wake_all`] calls.
pub(crate) static WAKES: obs::Counter = obs::Counter::new();
/// Threads actually woken across all wake calls.
pub(crate) static WOKEN_THREADS: obs::Counter = obs::Counter::new();

/// Block the calling thread while `*atom == expected`.
///
/// Returns immediately if the value has already changed; otherwise sleeps
/// until a matching [`futex_wake`]. Spurious wakeups are possible and the
/// caller must re-check its predicate — the event buffer does.
#[inline]
pub fn futex_wait(atom: &AtomicU32, expected: u32) {
    WAITS.incr();
    obs::trace_event!(obs::EventKind::FutexWait);
    fault::fail_point!("futex.spurious-wake", return);
    if det::det_futex_wait!(atom, expected, None).is_some() {
        return;
    }
    let t0 = obs::recorder::now_ns();
    imp::wait(atom, None, expected);
    crate::site::record_futex_wait(obs::recorder::now_ns().saturating_sub(t0));
}

/// Like [`futex_wait`], with a relative timeout. Returns `false` if the
/// wait (probably) timed out, `true` if woken / value changed / spurious.
#[inline]
pub fn futex_wait_timeout(atom: &AtomicU32, expected: u32, timeout: std::time::Duration) -> bool {
    WAITS.incr();
    obs::trace_event!(obs::EventKind::FutexWait, 1);
    fault::fail_point!("futex.spurious-wake", return true);
    if let Some(woken) = det::det_futex_wait!(atom, expected, Some(timeout)) {
        if !woken {
            WAIT_TIMEOUTS.incr();
        }
        return woken;
    }
    let t0 = obs::recorder::now_ns();
    let woken = imp::wait(atom, Some(timeout), expected);
    crate::site::record_futex_wait(obs::recorder::now_ns().saturating_sub(t0));
    if !woken {
        WAIT_TIMEOUTS.incr();
    }
    woken
}

/// Wake up to `count` threads blocked in [`futex_wait`] on `atom`.
///
/// Returns the number of threads woken (best effort on the fallback path).
#[inline]
pub fn futex_wake(atom: &AtomicU32, count: u32) -> usize {
    WAKES.incr();
    if let Some(woken) = det::det_futex_wake!(atom, count) {
        WOKEN_THREADS.add(woken as u64);
        obs::trace_event!(obs::EventKind::FutexWake, woken as u32);
        return woken;
    }
    let woken = imp::wake(atom, count);
    WOKEN_THREADS.add(woken as u64);
    obs::trace_event!(obs::EventKind::FutexWake, woken as u32);
    woken
}

/// Wake every thread blocked on `atom`.
#[inline]
pub fn futex_wake_all(atom: &AtomicU32) -> usize {
    WAKES.incr();
    if let Some(woken) = det::det_futex_wake!(atom, u32::MAX) {
        WOKEN_THREADS.add(woken as u64);
        obs::trace_event!(obs::EventKind::FutexWake, woken as u32);
        return woken;
    }
    let woken = imp::wake(atom, u32::MAX);
    WOKEN_THREADS.add(woken as u64);
    obs::trace_event!(obs::EventKind::FutexWake, woken as u32);
    woken
}

#[cfg(all(
    target_os = "linux",
    not(miri),
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    const FUTEX_WAIT: usize = 0;
    const FUTEX_WAKE: usize = 1;
    const FUTEX_PRIVATE_FLAG: usize = 128;
    const ETIMEDOUT: isize = 110;

    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// Raw `futex(2)`: returns the kernel's value (negative = `-errno`).
    ///
    /// # Safety
    ///
    /// `uaddr` must point to a live, 4-byte-aligned futex word for the
    /// duration of the call; `timeout`, when non-null, must point to a
    /// valid `Timespec`.
    unsafe fn sys_futex(uaddr: *const u32, op: usize, val: u32, timeout: *const Timespec) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: x86-64 Linux syscall ABI — nr in rax (futex = 202),
        // args in rdi/rsi/rdx/r10; the kernel clobbers rcx and r11.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 202usize => ret,
                in("rdi") uaddr,
                in("rsi") op,
                in("rdx") val as usize,
                in("r10") timeout,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: AArch64 Linux syscall ABI — nr in x8 (futex = 98),
        // args in x0..x3, `svc 0`, result in x0.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 98usize,
                inlateout("x0") uaddr as usize => ret,
                in("x1") op,
                in("x2") val as usize,
                in("x3") timeout,
                options(nostack),
            );
        }
        ret
    }

    /// Returns false only on (probable) timeout.
    pub fn wait(atom: &AtomicU32, timeout: Option<Duration>, expected: u32) -> bool {
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        // SAFETY: the futex word outlives the call (we hold a reference);
        // FUTEX_WAIT blocks until woken, value change, timeout, or signal.
        // EAGAIN/EINTR are benign (caller re-checks its predicate).
        let rc = unsafe {
            sys_futex(
                atom.as_ptr(),
                FUTEX_WAIT | FUTEX_PRIVATE_FLAG,
                expected,
                ts_ptr,
            )
        };
        rc != -ETIMEDOUT
    }

    pub fn wake(atom: &AtomicU32, count: u32) -> usize {
        // The kernel takes the wake count as a *signed* int: u32::MAX
        // would arrive as -1 and wake exactly one waiter (the comparison
        // `++woken >= nr_wake` trips immediately). Clamp to i32::MAX so
        // "wake all" really is unbounded.
        let count = count.min(i32::MAX as u32);
        // SAFETY: as above; FUTEX_WAKE reads no pointer arguments beyond
        // the futex word itself.
        let woken = unsafe {
            sys_futex(
                atom.as_ptr(),
                FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
                count,
                std::ptr::null(),
            )
        };
        woken.max(0) as usize
    }
}

#[cfg(not(all(
    target_os = "linux",
    not(miri),
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    //! Portable fallback: a fixed-size hash table of (mutex, condvar)
    //! buckets keyed by futex-word address, in the style of parking lots.
    //! Collisions only cause extra wakeups, never missed ones, because a
    //! wake broadcasts the bucket and waiters re-check the futex word.

    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Condvar, Mutex, OnceLock};
    use std::time::Duration;

    const BUCKETS: usize = 256;

    struct Bucket {
        lock: Mutex<()>,
        cond: Condvar,
    }

    fn table() -> &'static Vec<Bucket> {
        static TABLE: OnceLock<Vec<Bucket>> = OnceLock::new();
        TABLE.get_or_init(|| {
            (0..BUCKETS)
                .map(|_| Bucket {
                    lock: Mutex::new(()),
                    cond: Condvar::new(),
                })
                .collect()
        })
    }

    fn bucket_for(atom: *const AtomicU32) -> &'static Bucket {
        // Fibonacci hash of the address.
        let h = (atom as usize).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &table()[(h >> 48) % BUCKETS]
    }

    /// Returns false only on (probable) timeout of an explicit deadline.
    pub fn wait(atom: &AtomicU32, timeout: Option<Duration>, expected: u32) -> bool {
        let bucket = bucket_for(atom);
        let guard = bucket.lock.lock().unwrap();
        // The check must happen under the bucket lock: a waker that changed
        // the word and then broadcast holds/held the same lock, so either
        // we see the new value here or we are parked before its notify.
        if atom.load(Ordering::Acquire) != expected {
            return true;
        }
        // An untimed wait still uses a bounded sleep: it bounds the damage
        // of a hash-collision notify storm (callers re-check predicates).
        let dur = timeout.unwrap_or(Duration::from_millis(50));
        let (_g, res) = bucket.cond.wait_timeout(guard, dur).unwrap();
        timeout.is_none() || !res.timed_out()
    }

    pub fn wake(atom: &AtomicU32, count: u32) -> usize {
        let bucket = bucket_for(atom);
        let _guard = bucket.lock.lock().unwrap();
        if count == 1 {
            bucket.cond.notify_one();
            1
        } else {
            bucket.cond.notify_all();
            count as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wait_returns_when_value_differs() {
        let atom = AtomicU32::new(5);
        // Expected != current: must not block.
        futex_wait(&atom, 4);
    }

    #[test]
    fn wake_unblocks_waiter() {
        let atom = Arc::new(AtomicU32::new(0));
        let a2 = Arc::clone(&atom);
        let h = std::thread::spawn(move || {
            while a2.load(Ordering::Acquire) == 0 {
                futex_wait(&a2, 0);
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        atom.store(1, Ordering::Release);
        futex_wake_all(&atom);
        h.join().unwrap();
    }

    #[test]
    fn timed_wait_expires() {
        let atom = AtomicU32::new(0);
        let t0 = std::time::Instant::now();
        let woken = futex_wait_timeout(&atom, 0, Duration::from_millis(30));
        assert!(!woken, "nothing woke us: must report timeout");
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn timed_wait_returns_early_on_wake() {
        let atom = Arc::new(AtomicU32::new(0));
        let a2 = Arc::clone(&atom);
        let h = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            while a2.load(Ordering::Acquire) == 0 {
                if !futex_wait_timeout(&a2, 0, Duration::from_secs(10)) {
                    panic!("timed out despite wake");
                }
            }
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        atom.store(1, Ordering::Release);
        futex_wake_all(&atom);
        let waited = h.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "woke well before the timeout"
        );
    }

    #[test]
    fn timed_wait_value_already_changed() {
        let atom = AtomicU32::new(7);
        assert!(futex_wait_timeout(&atom, 3, Duration::from_secs(10)));
    }

    #[test]
    fn wake_with_no_waiters_is_harmless() {
        let atom = AtomicU32::new(0);
        futex_wake(&atom, 1);
        futex_wake_all(&atom);
    }

    #[test]
    fn many_waiters_all_wake() {
        const WAITERS: usize = 8;
        let atom = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..WAITERS {
            let a = Arc::clone(&atom);
            handles.push(std::thread::spawn(move || {
                while a.load(Ordering::Acquire) == 0 {
                    futex_wait(&a, 0);
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        atom.store(7, Ordering::Release);
        futex_wake_all(&atom);
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Injected spurious wakeups must surface as "woken" (never as
    /// timeout) so predicate loops re-check instead of giving up.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_spurious_wake_reports_woken() {
        let _x = fault::exclusive();
        fault::set_seed(11);
        fault::configure(
            "futex.spurious-wake",
            fault::Policy::new(fault::Trigger::Always).on_this_thread(),
        );
        let atom = AtomicU32::new(0);
        let t0 = std::time::Instant::now();
        // Would park 10s if the failpoint did not preempt the syscall.
        assert!(futex_wait_timeout(&atom, 0, Duration::from_secs(10)));
        futex_wait(&atom, 0); // returns immediately, does not hang
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(fault::hit_count("futex.spurious-wake") >= 2);
        fault::reset();
    }
}
