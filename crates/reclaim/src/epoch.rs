//! Epoch-based reclamation.
//!
//! The classic three-phase scheme: every thread announces the global epoch
//! in its own padded slot while inside a protected region and a quiescent
//! sentinel outside it; retired nodes land in the retiring slot's
//! defer-destroy bag tagged with the epoch of retirement; when a bag grows
//! past the retire threshold the owner scans all announcements and, if
//! every active thread has caught up to the global epoch, advances it.
//! A node retired in epoch `e` is destroyed once the global epoch reaches
//! `e + 2`: two advances prove every thread pinned during `e` has left its
//! protected region at least once, so no reference can survive.
//!
//! All orderings come from [`EpochSpec`]. The global epoch and the
//! announcements are [`Atomics`] words, so `splash4-check` (`R1-reclaim`)
//! runs this reclaimer itself under its model: with an announcement store
//! dropped the two-epoch rule frees under a pinned reader, which the model
//! reports as a use-after-free; with the advance dropped nothing is ever
//! freed, a leak at quiescence. `W1-weakmem` runs it again under weak-memory
//! value exploration, where the pin's or the scan's `SeqCst` load weakened
//! to `Acquire` ends in a free under a reader.

use crate::bag::{Bag, Retired};
use crate::registry::{self, SlotHolder};
use crate::{ReclaimStats, Reclaimer, StatCells};
use splash4_parmacs::atomics::{Atomics, Std, Word};
use splash4_parmacs::{CachePadded, EpochSpec, SyncCounters};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Announcement value of a thread outside any protected region.
const QUIESCENT: usize = usize::MAX;

/// Retire-bag length that triggers a collection attempt.
const RETIRE_THRESHOLD: usize = 64;

/// One thread's record: the epoch announcement plus the defer-destroy bag.
struct EpochSlot<A: Atomics> {
    announce: CachePadded<A::Usize>,
    bag: Bag,
}

struct Inner<A: Atomics> {
    global: CachePadded<A::Usize>,
    slots: Box<[EpochSlot<A>]>,
    in_use: Box<[AtomicBool]>,
    /// Slot claims so far (see [`registry::thread_slot`]).
    claims: AtomicUsize,
    stats: StatCells,
}

impl<A: Atomics> SlotHolder for Inner<A> {
    fn vacate(&self, slot: usize) {
        // The bag stays: a later thread leasing this slot (or a flush)
        // inherits and eventually destroys its contents.
        let s = A::spec(EpochSpec::SPLASH4);
        self.slots[slot].announce.store(QUIESCENT, s.quiesce_store);
        self.in_use[slot].store(false, Ordering::Release);
    }
}

impl<A: Atomics> Inner<A> {
    /// Try to advance the global epoch; returns the (possibly new) epoch.
    ///
    /// Advance is legal only when every *active* announcement equals the
    /// current global epoch — a thread still announcing an older epoch may
    /// hold references retired under it.
    fn try_advance(&self) -> usize {
        let s = A::spec(EpochSpec::SPLASH4);
        let e = self.global.load(s.global_load);
        for slot in self.slots.iter() {
            let a = slot.announce.load(s.scan_load);
            if a != QUIESCENT && a != e {
                return e;
            }
        }
        match self
            .global
            .compare_exchange(e, e + 1, s.advance_cas_ok, s.advance_cas_fail)
        {
            Ok(_) => e + 1,
            Err(now) => now,
        }
    }

    /// Destroy the entries of `bag` old enough for the two-epoch rule.
    fn sweep(&self, bag: &Bag, global: usize) {
        // SAFETY: a rejected entry was retired under `r.epoch` and the
        // global epoch has advanced twice since, so every thread pinned at
        // retirement has since quiesced — no reference survives.
        unsafe { bag.sweep(&self.stats, |r| r.epoch.saturating_add(2) > global) };
    }
}

/// Epoch-based reclaimer (see the module docs for the protocol).
pub struct EpochReclaimer<A: Atomics = Std> {
    registry_id: usize,
    inner: Arc<Inner<A>>,
    holder: Arc<dyn SlotHolder>,
}

impl EpochReclaimer {
    /// Reclaimer with room for `capacity` concurrently live threads,
    /// shipping [`EpochSpec::SPLASH4`] orderings and reporting into
    /// `stats`.
    pub fn new(capacity: usize, stats: Arc<SyncCounters>) -> EpochReclaimer {
        EpochReclaimer::new_in(capacity, stats)
    }
}

impl<A: Atomics> EpochReclaimer<A> {
    /// [`EpochReclaimer::new`] over any [`Atomics`].
    pub fn new_in(capacity: usize, stats: Arc<SyncCounters>) -> EpochReclaimer<A> {
        let capacity = capacity.max(1);
        let inner = Arc::new(Inner::<A> {
            global: CachePadded::new(A::Usize::new("epoch.global", 0)),
            slots: (0..capacity)
                .map(|_| EpochSlot {
                    announce: CachePadded::new(A::Usize::new("epoch.announce", QUIESCENT)),
                    bag: Bag::default(),
                })
                .collect(),
            in_use: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            claims: AtomicUsize::new(0),
            stats: StatCells::new(stats),
        });
        EpochReclaimer {
            registry_id: registry::new_registry_id(),
            holder: inner.clone(),
            inner,
        }
    }
}

impl<A: Atomics> Reclaimer for EpochReclaimer<A> {
    fn enter(&self) -> usize {
        let inner = &self.inner;
        let slot =
            registry::thread_slot(self.registry_id, &self.holder, &inner.in_use, &inner.claims);
        let s = A::spec(EpochSpec::SPLASH4);
        let announce = &inner.slots[slot].announce;
        // Announce-and-revalidate: settle only once the announced epoch is
        // the current global epoch, so the collector's scan can never
        // observe this thread behind an epoch it missed.
        loop {
            let e = inner.global.load(s.global_load);
            announce.store(e, s.announce_store);
            if inner.global.load(s.global_load) == e {
                return slot;
            }
        }
    }

    fn exit(&self, slot: usize) {
        let s = A::spec(EpochSpec::SPLASH4);
        self.inner.slots[slot]
            .announce
            .store(QUIESCENT, s.quiesce_store);
    }

    fn protect(&self, _slot: usize, _hp: usize, _ptr: *mut u8) -> Ordering {
        // Epoch reclamation protects whole regions, not single pointers.
        A::spec(EpochSpec::SPLASH4).validate_load
    }

    unsafe fn retire(&self, slot: usize, ptr: *mut u8, drop_fn: unsafe fn(*mut u8)) {
        let epoch = self
            .inner
            .global
            .load(A::spec(EpochSpec::SPLASH4).global_load);
        self.inner.stats.retired();
        let bag = &self.inner.slots[slot].bag;
        let pending = bag.push(Retired {
            ptr,
            drop_fn,
            epoch,
        });
        if pending >= RETIRE_THRESHOLD {
            self.inner.stats.scanned();
            self.inner.sweep(bag, self.inner.try_advance());
        }
    }

    fn flush(&self) {
        // Advance as far as the active announcements allow, then apply the
        // two-epoch rule to every bag (not just the caller's). At
        // quiescence two advances always succeed, so everything frees.
        self.inner.stats.scanned();
        let global = self.inner.try_advance();
        let global = self.inner.try_advance().max(global);
        for slot in self.inner.slots.iter() {
            self.inner.sweep(&slot.bag, global);
        }
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        self.inner.stats.snapshot()
    }
}

impl<A: Atomics> Drop for EpochReclaimer<A> {
    fn drop(&mut self) {
        // Last owner going away: nothing can hold protected references, so
        // destroy every remaining bag entry unconditionally.
        for slot in self.inner.slots.iter() {
            // SAFETY: `&mut self` on the sole owner — quiescent.
            unsafe { slot.bag.sweep(&self.inner.stats, |_| false) };
        }
    }
}

impl<A: Atomics> fmt::Debug for EpochReclaimer<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochReclaimer")
            .field("capacity", &self.inner.slots.len())
            .field("global_epoch", &self.inner.global.load(Ordering::Relaxed))
            .field("stats", &self.reclaim_stats())
            .finish()
    }
}
