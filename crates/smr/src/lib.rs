//! Safe memory reclamation without garbage collection.
//!
//! The paper's §3.5 argues that ZMSQ is amenable to protection by **hazard
//! pointers** (Michael, 2004) because the algorithm holds references to at
//! most a few shared objects at a time, and most accesses happen under a
//! `TNode` lock. This crate provides that substrate from scratch:
//!
//! * [`Domain`] — a hazard-pointer domain: per-thread records with a small
//!   number of hazard slots, per-thread retired lists, and an amortized
//!   scan that frees retired objects no active hazard points to.
//! * [`HazardPointer`] — an acquired slot; `protect` publishes a pointer
//!   with the load/publish/validate loop.
//! * [`LeakyDomain`] — the null reclaimer backing the paper's
//!   `ZMSQ (leak)` measurement arm: `retire` leaks.
//! * [`ebr`] — a process-global epoch-based collector for the lock-free
//!   baselines, whose unbounded traversals don't fit per-pointer hazards.
//!
//! Always-on counters (retires, scans, frees, hazard-validation retries,
//! epoch pins/collects) are exported by [`obs::snapshot`]; with
//! `obs/obs-trace` the same sites also emit flight-recorder events.
//!
//! # Design
//!
//! A domain owns an append-only intrusive list of `HpRecord`s. A thread
//! claims a record by CAS-ing its `active` flag, caches the claim in TLS,
//! and releases it (for reuse by other threads) when the thread exits.
//! Records are only freed when the domain itself is dropped; the domain
//! core is reference-counted from every TLS cache entry and every
//! [`Domain`] handle, and a [`HazardPointer`] borrows a handle, so
//! records can never dangle.
//!
//! Retired objects stay in the retiring thread's record until the list
//! exceeds a threshold proportional to the total number of hazard slots;
//! the scan then collects every published hazard into a sorted set and
//! frees exactly the retired objects not present in it — the classic
//! wait-free-readers, lock-free-reclaimers structure of the original paper.
//!
//! # Example
//!
//! ```
//! use smr::Domain;
//! use std::sync::atomic::{AtomicPtr, Ordering};
//!
//! let domain = Domain::new();
//! let shared = AtomicPtr::new(Box::into_raw(Box::new(41_u64)));
//!
//! // Reader: protect before dereferencing.
//! let mut hp = domain.hazard();
//! let p = hp.protect(&shared);
//! assert_eq!(unsafe { *p }, 41);
//!
//! // Writer: unlink, then hand the old object to the domain.
//! let fresh = Box::into_raw(Box::new(42_u64));
//! let old = shared.swap(fresh, Ordering::AcqRel);
//! unsafe { domain.retire(old) };        // deferred: the reader holds it
//!
//! assert_eq!(domain.try_reclaim(), 1);  // still protected
//! hp.clear();
//! assert_eq!(domain.try_reclaim(), 0);  // freed now
//! # let last = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
//! # unsafe { domain.retire(last) };
//! ```

#![warn(missing_docs)]

mod domain;
pub mod ebr;
mod leaky;
pub mod obs;

pub use domain::{Domain, HazardPointer};
pub use leaky::LeakyDomain;

/// How many hazard slots each per-thread record carries.
///
/// ZMSQ needs at most two simultaneously (§3.5: "we can use two hazard
/// pointers per thread", plus possibly one more for the set
/// implementation); 8 leaves comfortable slack for composed uses.
pub const SLOTS_PER_RECORD: usize = 8;
