//! The failpoint registry — compiled only with `--features fault-inject`.
//!
//! A failpoint is a *named* program location (e.g. `pool.refill-delay`)
//! that tests arm with a [`Policy`]: a [`Trigger`] deciding *when* it
//! fires and an [`Action`] deciding *what* happens. Determinism comes
//! from a global seed ([`set_seed`]) expanded into per-thread xoshiro
//! streams: the same (seed, thread-spawn order, policy) always produces
//! the same fault schedule on a given interleaving, and probabilistic
//! triggers never share RNG state across threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;

use crate::rng::DetRng;

/// When an armed failpoint fires.
#[derive(Clone, Copy, Debug)]
pub enum Trigger {
    /// Every evaluation.
    Always,
    /// Each evaluation independently with this probability (per-thread
    /// deterministic streams).
    Prob(f64),
    /// Every `n`-th evaluation, counted globally across threads.
    EveryNth(u64),
    /// Exactly the first evaluation, globally.
    Once,
}

/// What a firing failpoint does, beyond returning `true` to the macro.
#[derive(Clone, Debug)]
pub enum Action {
    /// Nothing — the `fail_point!` body (if any) is the whole effect.
    Nothing,
    /// `std::thread::yield_now()` — surrenders the timeslice so another
    /// thread can race into the window.
    Yield,
    /// Bounded sleep — holds the window open long enough for slower
    /// threads to march through it.
    SleepMs(u64),
    /// Panic with this message — drives the unwind-safety paths.
    Panic(&'static str),
}

/// A complete failpoint arming: when × what, and optionally on which
/// thread.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Firing schedule.
    pub trigger: Trigger,
    /// Effect on fire.
    pub action: Action,
    /// When set, only this thread's evaluations are in scope: other
    /// threads pass the point as if it were unarmed and are not counted
    /// by [`hit_count`].
    pub thread: Option<ThreadId>,
}

impl Policy {
    /// Policy with the given trigger and no built-in action.
    pub fn new(trigger: Trigger) -> Self {
        Self {
            trigger,
            action: Action::Nothing,
            thread: None,
        }
    }

    /// Attach an action.
    pub fn with_action(mut self, action: Action) -> Self {
        self.action = action;
        self
    }

    /// Scope the point to the calling thread. The registry is
    /// process-global, so a test that arms a point while unrelated
    /// tests run concurrently in the same process (cargo's default test
    /// threads) uses this to keep their evaluations from firing it or
    /// moving its counters.
    pub fn on_this_thread(mut self) -> Self {
        self.thread = Some(std::thread::current().id());
        self
    }
}

struct Point {
    policy: Policy,
    hits: AtomicU64,
    fired_once: AtomicBool,
}

struct Registry {
    points: Mutex<HashMap<&'static str, Arc<Point>>>,
    /// Fast-path gate: evaluations short-circuit without locking while no
    /// point is armed.
    armed: AtomicBool,
    seed: AtomicU64,
    /// Bumped by [`reset`]/[`set_seed`] so per-thread RNGs re-derive.
    generation: AtomicU64,
    /// Serializes tests that arm global failpoints.
    test_mutex: Mutex<()>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        points: Mutex::new(HashMap::new()),
        armed: AtomicBool::new(false),
        seed: AtomicU64::new(0),
        generation: AtomicU64::new(0),
        test_mutex: Mutex::new(()),
    })
}

/// Set the global fault seed (also clears all armed points, so a test
/// always starts from `set_seed` + `configure` calls).
pub fn set_seed(seed: u64) {
    let r = registry();
    let mut map = r.points.lock().unwrap();
    map.clear();
    r.armed.store(false, Ordering::SeqCst);
    r.seed.store(seed, Ordering::SeqCst);
    r.generation.fetch_add(1, Ordering::SeqCst);
}

/// Arm (or re-arm) the named failpoint.
pub fn configure(name: &'static str, policy: Policy) {
    let r = registry();
    let mut map = r.points.lock().unwrap();
    map.insert(
        name,
        Arc::new(Point {
            policy,
            hits: AtomicU64::new(0),
            fired_once: AtomicBool::new(false),
        }),
    );
    r.armed.store(true, Ordering::SeqCst);
}

/// Disarm one failpoint.
pub fn remove(name: &str) {
    let r = registry();
    let mut map = r.points.lock().unwrap();
    map.remove(name);
    if map.is_empty() {
        r.armed.store(false, Ordering::SeqCst);
    }
}

/// Disarm everything.
pub fn reset() {
    let r = registry();
    r.points.lock().unwrap().clear();
    r.armed.store(false, Ordering::SeqCst);
    r.generation.fetch_add(1, Ordering::SeqCst);
}

/// Serialize tests that arm failpoints: the registry is process-global,
/// so concurrent `#[test]`s would trample each other's policies. Hold
/// the returned guard for the duration of the test.
pub fn exclusive() -> MutexGuard<'static, ()> {
    registry()
        .test_mutex
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Evaluate the named failpoint: `true` if it fired (after performing
/// its action). This is what `fail_point!` expands to.
pub fn fire(name: &'static str) -> bool {
    let r = registry();
    if !r.armed.load(Ordering::Relaxed) {
        return false;
    }
    let point = {
        let map = r.points.lock().unwrap();
        match map.get(name) {
            Some(p) => Arc::clone(p),
            None => return false,
        }
    };
    if point
        .policy
        .thread
        .is_some_and(|t| t != std::thread::current().id())
    {
        return false;
    }
    let hit = point.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let fired = match point.policy.trigger {
        Trigger::Always => true,
        Trigger::Prob(p) => with_thread_rng(|rng| rng.random_bool(p)),
        Trigger::EveryNth(n) => n > 0 && hit % n == 0,
        Trigger::Once => !point.fired_once.swap(true, Ordering::Relaxed),
    };
    if fired {
        match point.policy.action {
            Action::Nothing => {}
            Action::Yield => std::thread::yield_now(),
            Action::SleepMs(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            Action::Panic(msg) => panic!("failpoint {name}: {msg}"),
        }
    }
    fired
}

/// Per-thread deterministic RNG: derived from (global seed, thread
/// index in first-use order), re-derived whenever the seed changes.
fn with_thread_rng<R>(f: impl FnOnce(&mut DetRng) -> R) -> R {
    use std::cell::RefCell;
    static THREAD_COUNTER: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static STATE: RefCell<Option<(u64, u64, DetRng)>> = const { RefCell::new(None) };
    }
    let r = registry();
    let generation = r.generation.load(Ordering::SeqCst);
    STATE.with(|cell| {
        let mut slot = cell.borrow_mut();
        let needs_init = match &*slot {
            Some((gen_seen, _, _)) => *gen_seen != generation,
            None => true,
        };
        if needs_init {
            let index = match &*slot {
                Some((_, idx, _)) => *idx,
                None => THREAD_COUNTER.fetch_add(1, Ordering::SeqCst),
            };
            let seed = r.seed.load(Ordering::SeqCst);
            let mut mix = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
            let rng = DetRng::seed_from_u64(crate::rng::splitmix64(&mut mix));
            *slot = Some((generation, index, rng));
        }
        let (_, _, rng) = slot.as_mut().unwrap();
        f(rng)
    })
}

/// Number of times the named point has been *evaluated* (not fired)
/// since it was armed — by its thread only, for a point armed
/// [`on_this_thread`](Policy::on_this_thread). Useful for asserting a failpoint is actually on
/// the exercised path.
pub fn hit_count(name: &str) -> u64 {
    let r = registry();
    let map = r.points.lock().unwrap();
    map.get(name).map_or(0, |p| p.hits.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        let _g = exclusive();
        reset();
        assert!(!fire("registry-test.nope"));
    }

    #[test]
    fn always_and_once_triggers() {
        let _g = exclusive();
        set_seed(1);
        configure("registry-test.always", Policy::new(Trigger::Always));
        configure("registry-test.once", Policy::new(Trigger::Once));
        for _ in 0..3 {
            assert!(fire("registry-test.always"));
        }
        assert!(fire("registry-test.once"));
        assert!(!fire("registry-test.once"));
        assert_eq!(hit_count("registry-test.always"), 3);
        reset();
    }

    #[test]
    fn every_nth_counts_globally() {
        let _g = exclusive();
        set_seed(1);
        configure("registry-test.nth", Policy::new(Trigger::EveryNth(3)));
        let fires: Vec<bool> = (0..6).map(|_| fire("registry-test.nth")).collect();
        assert_eq!(fires, [false, false, true, false, false, true]);
        reset();
    }

    #[test]
    fn prob_is_seed_deterministic() {
        let _g = exclusive();
        let run = |seed| {
            set_seed(seed);
            configure("registry-test.prob", Policy::new(Trigger::Prob(0.5)));
            let v: Vec<bool> = (0..64).map(|_| fire("registry-test.prob")).collect();
            reset();
            v
        };
        // Same seed twice on the same thread: identical schedule.
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn thread_scoped_point_ignores_other_threads() {
        let _g = exclusive();
        set_seed(1);
        configure(
            "registry-test.scoped",
            Policy::new(Trigger::Once).on_this_thread(),
        );
        let other = std::thread::spawn(|| fire("registry-test.scoped"))
            .join()
            .unwrap();
        assert!(!other, "another thread fired a thread-scoped point");
        assert_eq!(hit_count("registry-test.scoped"), 0, "foreign hit counted");
        assert!(fire("registry-test.scoped"), "Once must still be unspent");
        assert_eq!(hit_count("registry-test.scoped"), 1);
        reset();
    }

    #[test]
    fn panic_action_panics_with_point_name() {
        let _g = exclusive();
        set_seed(1);
        configure(
            "registry-test.boom",
            Policy::new(Trigger::Always).with_action(Action::Panic("injected")),
        );
        let err = std::panic::catch_unwind(|| fire("registry-test.boom")).expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("registry-test.boom"), "got: {msg}");
        reset();
    }
}
