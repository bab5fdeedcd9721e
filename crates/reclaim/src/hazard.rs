//! Hazard-pointer reclamation (Michael, 2004).
//!
//! Every thread owns a row of `HAZARDS_PER_SLOT` single-writer hazard
//! records. Before dereferencing a shared pointer the thread *publishes* it
//! into a record and then **re-validates** that the pointer is still
//! reachable from the structure; only a validated publication protects.
//! Retired nodes accumulate in the retiring slot's bag; past the retire
//! threshold the owner *scans* every record and destroys exactly the
//! retired nodes no record names.
//!
//! Memory bound: at most `slots × HAZARDS_PER_SLOT` nodes can be protected
//! at once, so each bag never holds more than threshold + that many nodes —
//! unlike epochs, a single stalled thread cannot delay unrelated frees.
//!
//! All orderings come from [`HazardSpec`]; the publish store, the
//! re-validating load (`protect` hands its ordering to the structure that
//! makes it) and the scan load are all SeqCst because the protocol is a
//! Dekker-style store/load handshake (publisher stores hazard then re-reads
//! the structure; scanner "stores" the unlink first — the linearizing CAS —
//! then reads hazards). The records are [`Atomics`] words holding the
//! protected address, so `splash4-check` runs this reclaimer itself under
//! its model: in `R1-reclaim` a dropped publication is a use-after-free,
//! in `W1-weakmem` so is a re-validation weakened to `Acquire`.

use crate::bag::{Bag, Retired};
use crate::registry::{self, SlotHolder};
use crate::{ReclaimStats, Reclaimer, StatCells};
use splash4_parmacs::atomics::{Atomics, Std, Word};
use splash4_parmacs::{CachePadded, HazardSpec, SyncCounters};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Hazard records per thread slot. Two suffice for every structure in this
/// crate (Michael-Scott dequeue protects head and next simultaneously).
pub const HAZARDS_PER_SLOT: usize = 2;

/// Retire-bag length that triggers a scan.
const RETIRE_THRESHOLD: usize = 64;

/// One thread's hazard row (protected addresses, 0 for none) plus its
/// retired bag.
struct HazardSlot<A: Atomics> {
    hazards: CachePadded<[A::Usize; HAZARDS_PER_SLOT]>,
    bag: Bag,
}

struct Inner<A: Atomics> {
    slots: Box<[HazardSlot<A>]>,
    in_use: Box<[AtomicBool]>,
    /// Slot claims so far (see [`registry::thread_slot`]).
    claims: AtomicUsize,
    stats: StatCells,
}

impl<A: Atomics> SlotHolder for Inner<A> {
    fn vacate(&self, slot: usize) {
        // Clear the departing thread's hazards so they stop pinning nodes;
        // its bag stays for the next lease-holder (or `flush`) to drain.
        let s = A::spec(HazardSpec::SPLASH4);
        for hp in self.slots[slot].hazards.iter() {
            hp.store(0, s.clear_store);
        }
        self.in_use[slot].store(false, Ordering::Release);
    }
}

impl<A: Atomics> Inner<A> {
    /// Scan every hazard record and destroy `slot`'s unprotected retirees.
    fn scan(&self, slot: usize) {
        self.stats.scanned();
        let s = A::spec(HazardSpec::SPLASH4);
        // Read on the first entry judged: after every entry has left the bag
        // (an entry retired once the records were read could be protected
        // by a publication the snapshot missed), and not at all for an
        // empty bag.
        let mut protected: Option<Vec<usize>> = None;
        let mut snapshot = || {
            let records = self.slots.iter().flat_map(|row| row.hazards.iter());
            let mut addrs: Vec<usize> = records.map(|hp| hp.load(s.scan_load)).collect();
            addrs.retain(|a| *a != 0);
            addrs.sort_unstable();
            addrs
        };
        // SAFETY: a rejected entry was unlinked before retirement and no
        // hazard record named it *after* the unlink became visible (SeqCst
        // store/load pair), so no thread can still hold a validated
        // reference.
        unsafe {
            self.slots[slot].bag.sweep(&self.stats, |r| {
                let protected = protected.get_or_insert_with(&mut snapshot);
                protected.binary_search(&(r.ptr as usize)).is_ok()
            })
        };
    }
}

/// Hazard-pointer reclaimer (see the module docs for the protocol).
pub struct HazardReclaimer<A: Atomics = Std> {
    registry_id: usize,
    inner: Arc<Inner<A>>,
    holder: Arc<dyn SlotHolder>,
}

impl<A: Atomics> HazardReclaimer<A> {
    /// Reclaimer with room for `capacity` concurrently live threads,
    /// shipping [`HazardSpec::SPLASH4`] orderings and reporting into
    /// `stats`.
    pub fn new(capacity: usize, stats: Arc<SyncCounters>) -> HazardReclaimer<A> {
        let capacity = capacity.max(1);
        let inner = Arc::new(Inner::<A> {
            slots: (0..capacity)
                .map(|_| HazardSlot {
                    hazards: CachePadded::new(std::array::from_fn(|_| {
                        A::Usize::new("hazard.hp", 0)
                    })),
                    bag: Bag::default(),
                })
                .collect(),
            in_use: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            claims: AtomicUsize::new(0),
            stats: StatCells::new(stats),
        });
        HazardReclaimer {
            registry_id: registry::new_registry_id(),
            holder: inner.clone(),
            inner,
        }
    }
}

impl<A: Atomics> Reclaimer for HazardReclaimer<A> {
    fn enter(&self) -> usize {
        let inner = &self.inner;
        registry::thread_slot(self.registry_id, &self.holder, &inner.in_use, &inner.claims)
    }

    fn exit(&self, slot: usize) {
        let s = A::spec(HazardSpec::SPLASH4);
        for hp in self.inner.slots[slot].hazards.iter() {
            hp.store(0, s.clear_store);
        }
    }

    fn protect(&self, slot: usize, hp: usize, ptr: *mut u8) -> Ordering {
        let s = A::spec(HazardSpec::SPLASH4);
        self.inner.slots[slot].hazards[hp].store(ptr as usize, s.publish_store);
        s.validate_load
    }

    unsafe fn retire(&self, slot: usize, ptr: *mut u8, drop_fn: unsafe fn(*mut u8)) {
        self.inner.stats.retired();
        let pending = self.inner.slots[slot].bag.push(Retired {
            ptr,
            drop_fn,
            epoch: 0,
        });
        if pending >= RETIRE_THRESHOLD {
            self.inner.scan(slot);
        }
    }

    fn flush(&self) {
        // One scan per slot drains every bag of its unprotected entries; at
        // quiescence all hazards are null, so everything frees.
        for slot in 0..self.inner.slots.len() {
            self.inner.scan(slot);
        }
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        self.inner.stats.snapshot()
    }
}

impl<A: Atomics> Drop for HazardReclaimer<A> {
    fn drop(&mut self) {
        // Last owner: no thread can hold a validated reference anymore.
        for slot in self.inner.slots.iter() {
            // SAFETY: `&mut self` on the sole owner — quiescent.
            unsafe { slot.bag.sweep(&self.inner.stats, |_| false) };
        }
    }
}

impl<A: Atomics> fmt::Debug for HazardReclaimer<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HazardReclaimer")
            .field("capacity", &self.inner.slots.len())
            .field("hazards_per_slot", &HAZARDS_PER_SLOT)
            .field("stats", &self.reclaim_stats())
            .finish()
    }
}
