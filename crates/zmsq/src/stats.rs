//! Operation statistics with striped counters.
//!
//! The evaluation sections rely on internal profiling ("With profiling, we
//! found that dynamic (1:1.5) had the highest percentage of full sets",
//! "only 3% of extractMax() calls access the root", §4.2) — these counters
//! regenerate those observations. A single shared cache line of counters
//! would serialize every operation, so each logical counter is striped
//! across cache-padded slots; reads sum the stripes.
//!
//! The counter itself is [`obs::Counter`], which assigns stripes to
//! threads round-robin from a global ticket (an earlier revision hashed
//! `ThreadId` through `DefaultHasher`, which clusters badly for the
//! sequential ids real programs produce — see the distribution test
//! below). [`StatsSnapshot::to_obs`] exports a snapshot into the shared
//! observability schema for the bench harness's `*.metrics.json`.

/// A monotone counter striped over cache-padded slots. Alias of
/// [`obs::Counter`]; kept under the original name for the queue internals.
pub(crate) use obs::Counter as Striped;

/// All per-queue counters. Fields are incremented with relaxed atomics on
/// thread-striped cache lines; the overhead is a handful of cycles per op.
#[derive(Default)]
pub(crate) struct Stats {
    pub inserts: Striped,
    pub insert_retries: Striped,
    pub forced_inserts: Striped,
    pub min_swap_inserts: Striped,
    pub fast_pool_inserts: Striped,
    pub splits: Striped,
    pub tree_grows: Striped,
    pub extracts: Striped,
    pub pool_hits: Striped,
    pub pool_refills: Striped,
    pub root_extracts: Striped,
    pub swap_downs: Striped,
    pub empty_observed: Striped,
    pub trylock_fails: Striped,
    pub refill_races: Striped,
    pub capacity_hits: Striped,
    pub shed_rejected: Striped,
    pub shed_evicted: Striped,
    pub producer_waits: Striped,
}

/// A point-in-time copy of a queue's operation counters.
///
/// Obtain via [`Zmsq::stats`](crate::Zmsq::stats). Sums are consistent
/// only on a quiescent queue; during concurrent operation they are
/// best-effort (each counter individually monotone and exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Completed `insert` operations.
    pub inserts: u64,
    /// Insert attempts that failed validation and restarted (§4.1).
    pub insert_retries: u64,
    /// Inserts that used the forced non-max path into a deep leaf (§3.2).
    pub forced_inserts: u64,
    /// Inserts that applied the parent-min swap quality optimization.
    pub min_swap_inserts: u64,
    /// Inserts placed directly into the extraction pool (§5 future work;
    /// requires `ZmsqConfig::pool_fast_insert`).
    pub fast_pool_inserts: u64,
    /// Oversized-set splits pushed down to children.
    pub splits: u64,
    /// Tree depth expansions.
    pub tree_grows: u64,
    /// Completed successful `extract_max` operations.
    pub extracts: u64,
    /// Extractions served from the shared pool (the relaxed fast path).
    pub pool_hits: u64,
    /// Pool refills (each implies one root critical section).
    pub pool_refills: u64,
    /// Extractions that entered the root critical section (every strict
    /// extraction; one per refill in relaxed mode).
    pub root_extracts: u64,
    /// Set exchanges performed while restoring the mound invariant.
    pub swap_downs: u64,
    /// `extract_max` calls that observed a truly empty queue.
    pub empty_observed: u64,
    /// Trylock failures that caused an operation restart.
    pub trylock_fails: u64,
    /// Root acquisitions that found the pool already refilled by a
    /// concurrent extractor — direct evidence of ≥ 2 threads racing for
    /// the same refill, and (with `trylock_fails`) the contention signal
    /// the adaptive batch controller feeds on.
    pub refill_races: u64,
    /// Admission attempts that found the queue at capacity (bounded
    /// queues only). Counts *attempts*, not elements: one blocked
    /// producer retrying bumps this on every failed round.
    pub capacity_hits: u64,
    /// Incoming elements dropped at capacity: `ShedPolicy::Reject`
    /// drops via the infallible `insert`, plus `ShedLowest` cases where
    /// the incoming element was itself the lowest candidate.
    pub shed_rejected: u64,
    /// Admitted-then-evicted elements: `ShedPolicy::ShedLowest` removed
    /// them from a deep tree node to make room for higher-priority work.
    pub shed_evicted: u64,
    /// Times a producer entered a capacity wait (`ShedPolicy::Block`
    /// under sustained overload); each round of a blocked insert's
    /// wait-retry loop counts once.
    pub producer_waits: u64,
}

impl Stats {
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts.sum(),
            insert_retries: self.insert_retries.sum(),
            forced_inserts: self.forced_inserts.sum(),
            min_swap_inserts: self.min_swap_inserts.sum(),
            fast_pool_inserts: self.fast_pool_inserts.sum(),
            splits: self.splits.sum(),
            tree_grows: self.tree_grows.sum(),
            extracts: self.extracts.sum(),
            pool_hits: self.pool_hits.sum(),
            pool_refills: self.pool_refills.sum(),
            root_extracts: self.root_extracts.sum(),
            swap_downs: self.swap_downs.sum(),
            empty_observed: self.empty_observed.sum(),
            trylock_fails: self.trylock_fails.sum(),
            refill_races: self.refill_races.sum(),
            capacity_hits: self.capacity_hits.sum(),
            shed_rejected: self.shed_rejected.sum(),
            shed_evicted: self.shed_evicted.sum(),
            producer_waits: self.producer_waits.sum(),
        }
    }
}

impl StatsSnapshot {
    /// Accumulate `other` into `self`, field by field. Used by
    /// [`ShardedZmsq`](crate::ShardedZmsq) to fold per-shard counters
    /// into one queue-level view.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        let StatsSnapshot {
            inserts,
            insert_retries,
            forced_inserts,
            min_swap_inserts,
            fast_pool_inserts,
            splits,
            tree_grows,
            extracts,
            pool_hits,
            pool_refills,
            root_extracts,
            swap_downs,
            empty_observed,
            trylock_fails,
            refill_races,
            capacity_hits,
            shed_rejected,
            shed_evicted,
            producer_waits,
        } = *other;
        self.inserts += inserts;
        self.insert_retries += insert_retries;
        self.forced_inserts += forced_inserts;
        self.min_swap_inserts += min_swap_inserts;
        self.fast_pool_inserts += fast_pool_inserts;
        self.splits += splits;
        self.tree_grows += tree_grows;
        self.extracts += extracts;
        self.pool_hits += pool_hits;
        self.pool_refills += pool_refills;
        self.root_extracts += root_extracts;
        self.swap_downs += swap_downs;
        self.empty_observed += empty_observed;
        self.trylock_fails += trylock_fails;
        self.refill_races += refill_races;
        self.capacity_hits += capacity_hits;
        self.shed_rejected += shed_rejected;
        self.shed_evicted += shed_evicted;
        self.producer_waits += producer_waits;
    }

    /// Total elements shed at capacity, whatever the mechanism.
    pub fn shed_total(&self) -> u64 {
        self.shed_rejected + self.shed_evicted
    }

    /// Fraction of successful extractions that had to touch the root
    /// (§4.2 reports ~3% with `batch = 32`). `root_extracts` counts every
    /// root critical section, strict or refilling.
    pub fn root_access_ratio(&self) -> f64 {
        if self.extracts == 0 {
            return 0.0;
        }
        self.root_extracts as f64 / self.extracts as f64
    }

    /// Export into the shared observability schema under `zmsq.*` names,
    /// including the derived `zmsq.root_access_ratio` the §4.2 recipe in
    /// `EXPERIMENTS.md` reads out of `*.metrics.json`.
    pub fn to_obs(&self) -> obs::Snapshot {
        let mut s = obs::Snapshot::new();
        s.push_counter("zmsq.inserts", self.inserts);
        s.push_counter("zmsq.insert_retries", self.insert_retries);
        s.push_counter("zmsq.forced_inserts", self.forced_inserts);
        s.push_counter("zmsq.min_swap_inserts", self.min_swap_inserts);
        s.push_counter("zmsq.fast_pool_inserts", self.fast_pool_inserts);
        s.push_counter("zmsq.splits", self.splits);
        s.push_counter("zmsq.tree_grows", self.tree_grows);
        s.push_counter("zmsq.extracts", self.extracts);
        s.push_counter("zmsq.pool_hits", self.pool_hits);
        s.push_counter("zmsq.pool_refills", self.pool_refills);
        s.push_counter("zmsq.root_extracts", self.root_extracts);
        s.push_counter("zmsq.swap_downs", self.swap_downs);
        s.push_counter("zmsq.empty_observed", self.empty_observed);
        s.push_counter("zmsq.trylock_fails", self.trylock_fails);
        s.push_counter("zmsq.refill_races", self.refill_races);
        s.push_counter("queue.shed.capacity_hits", self.capacity_hits);
        s.push_counter("queue.shed.rejected", self.shed_rejected);
        s.push_counter("queue.shed.evicted", self.shed_evicted);
        s.push_counter("queue.shed.producer_waits", self.producer_waits);
        if self.inserts + self.shed_rejected > 0 {
            // Shed ratio over *offered* load: sheds / (admitted + refused).
            // Evicted elements were admitted first, so the denominator is
            // inserts (which counted them) plus outright rejections.
            s.push_ratio(
                "queue.shed.ratio",
                self.shed_total() as f64 / (self.inserts + self.shed_rejected) as f64,
            );
        }
        s.push_ratio("zmsq.root_access_ratio", self.root_access_ratio());
        if self.extracts > 0 {
            s.push_ratio(
                "zmsq.pool_hit_ratio",
                self.pool_hits as f64 / self.extracts as f64,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn striped_counts_exactly() {
        let s = Arc::new(Striped::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.sum(), 80_000);
    }

    /// The old `DefaultHasher(ThreadId)` stripe assignment could cluster
    /// many threads onto few stripes; the round-robin ticket guarantees
    /// near-uniform spread. With 4 full rounds of threads over the stripe
    /// count, every stripe must receive work and no stripe may carry more
    /// than a small multiple of its fair share.
    #[test]
    fn many_threads_spread_across_all_stripes() {
        let threads = 4 * obs::STRIPES;
        let s = Arc::new(Striped::default());
        let mut handles = Vec::new();
        for _ in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || s.add(1)));
        }
        for h in handles {
            h.join().unwrap();
        }
        let loads = s.stripe_loads();
        assert_eq!(loads.iter().sum::<u64>(), threads as u64);
        let fair = threads as u64 / obs::STRIPES as u64;
        assert!(loads.iter().all(|&l| l > 0), "stripe starved: {loads:?}");
        // Other test threads in this process also consume ticket numbers,
        // shifting which stripes our threads land on — but round-robin
        // still bounds any stripe's load by fair + (ticket interleavers).
        assert!(
            loads.iter().all(|&l| l <= 3 * fair),
            "stripe overloaded: {loads:?}"
        );
    }

    #[test]
    fn snapshot_reflects_increments() {
        let st = Stats::default();
        st.inserts.add(5);
        st.pool_hits.add(3);
        st.pool_refills.incr();
        st.root_extracts.incr();
        st.extracts.add(4);
        let snap = st.snapshot();
        assert_eq!(snap.inserts, 5);
        assert_eq!(snap.pool_hits, 3);
        assert_eq!(snap.pool_refills, 1);
        assert!((snap.root_access_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn root_ratio_zero_when_idle() {
        assert_eq!(StatsSnapshot::default().root_access_ratio(), 0.0);
    }

    #[test]
    fn shed_counters_export_and_absorb() {
        let st = Stats::default();
        st.inserts.add(90);
        st.capacity_hits.add(25);
        st.shed_rejected.add(10);
        st.shed_evicted.add(5);
        st.producer_waits.add(3);
        let snap = st.snapshot();
        assert_eq!(snap.shed_total(), 15);
        let s = snap.to_obs();
        assert_eq!(s.counter("queue.shed.capacity_hits"), Some(25));
        assert_eq!(s.counter("queue.shed.rejected"), Some(10));
        assert_eq!(s.counter("queue.shed.evicted"), Some(5));
        assert_eq!(s.counter("queue.shed.producer_waits"), Some(3));
        // ratio = 15 / (90 + 10)
        assert!((s.ratio("queue.shed.ratio").unwrap() - 0.15).abs() < 1e-9);
        let mut folded = StatsSnapshot::default();
        folded.absorb(&snap);
        folded.absorb(&snap);
        assert_eq!(folded.shed_rejected, 20);
        assert_eq!(folded.shed_evicted, 10);
        assert_eq!(folded.capacity_hits, 50);
        assert_eq!(folded.producer_waits, 6);
    }

    #[test]
    fn to_obs_exports_counters_and_ratio() {
        let st = Stats::default();
        st.extracts.add(100);
        st.root_extracts.add(3);
        st.pool_hits.add(97);
        let s = st.snapshot().to_obs();
        assert_eq!(s.counter("zmsq.extracts"), Some(100));
        assert_eq!(s.counter("zmsq.root_extracts"), Some(3));
        let r = s.ratio("zmsq.root_access_ratio").unwrap();
        assert!((r - 0.03).abs() < 1e-9);
        assert!((s.ratio("zmsq.pool_hit_ratio").unwrap() - 0.97).abs() < 1e-9);
        // The export must serialize into the shared JSON schema.
        let json = s.to_json();
        assert!(obs::json::parse(&json).is_ok());
    }
}
