//! The retire bag both reclaimers defer destruction into, and the slot's
//! exact tallies.

use crate::ReclaimStats;
use splash4_parmacs::{Counter, SyncCounters};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A type-erased deferred destruction request.
///
/// `ptr` is an owned heap allocation whose real type only `drop_fn` knows;
/// `epoch` tags the global epoch at retirement (unused by hazard pointers).
pub(crate) struct Retired {
    pub(crate) ptr: *mut u8,
    pub(crate) drop_fn: unsafe fn(*mut u8),
    pub(crate) epoch: usize,
}

// SAFETY: a retired node is unlinked and owned exclusively by the bag it
// sits in; the bag hands it to exactly one `drop_fn` call on any thread.
unsafe impl Send for Retired {}

/// What a bag's lock guards: its entries and the slot's exact tallies.
#[derive(Default)]
struct Contents {
    entries: Vec<Retired>,
    tally: ReclaimStats,
}

/// One slot's retired nodes and its retire/scan/free tallies.
///
/// A `std::sync::Mutex`, deliberately uninstrumented: reclamation
/// bookkeeping must not show up as `lock_acquires` in kernel profiles.
/// Contention is nil — only the owning thread pushes; other threads touch a
/// foreign bag only in [`Reclaimer::flush`](crate::Reclaimer::flush) and
/// [`Reclaimer::reclaim_stats`](crate::Reclaimer::reclaim_stats). The
/// tallies move under the lock that `push` and `sweep` take anyway, so
/// counting costs no read-modify-write on a line another thread writes.
/// Every update leaves the contents valid, so a poisoned lock is taken over.
#[derive(Default)]
pub(crate) struct Bag(Mutex<Contents>);

impl Bag {
    fn lock(&self) -> MutexGuard<'_, Contents> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `r` and tally its retirement; returns the bag's length.
    pub(crate) fn push(&self, stats: &SyncCounters, r: Retired) -> usize {
        stats.bump(Counter::ReclaimRetires);
        let mut bag = self.lock();
        bag.tally.retires += 1;
        bag.entries.push(r);
        bag.entries.len()
    }

    /// The bag's tallies, read under its lock: a free is tallied in the bag
    /// its node was retired into, so `frees <= retires` in every reading.
    pub(crate) fn tally(&self) -> ReclaimStats {
        self.lock().tally
    }

    /// Destroy every entry `keep` rejects and tally them as freed, and one
    /// scan when `scan`. The entries leave the bag before `keep` first runs,
    /// so protocol state it reads then is newer than every entry's unlink,
    /// and are freed with the lock released. The survivors go back — as
    /// does, when a payload's `Drop` unwinds, every entry not destroyed yet.
    ///
    /// # Safety
    /// No thread may still hold a protected reference to an entry `keep`
    /// rejects (the reclamation protocol's whole job).
    pub(crate) unsafe fn sweep(
        &self,
        stats: &SyncCounters,
        scan: bool,
        mut keep: impl FnMut(&Retired) -> bool,
    ) {
        let entries = {
            let mut bag = self.lock();
            bag.tally.scans += u64::from(scan);
            std::mem::take(&mut bag.entries)
        };
        if scan {
            stats.bump(Counter::ReclaimScans);
        }
        let mut taken = Taken {
            bag: self,
            stats,
            entries,
            freed: 0,
        };
        let mut i = 0;
        while i < taken.entries.len() {
            if keep(&taken.entries[i]) {
                i += 1;
                continue;
            }
            let r = taken.entries.swap_remove(i);
            taken.freed += 1;
            // SAFETY: forwarded contract; `r` is out of the bag, so this is
            // its one destruction, and `drop_fn` was captured with `ptr`'s
            // real type at retirement.
            unsafe { (r.drop_fn)(r.ptr) };
        }
    }
}

/// The exact tallies of `bags`, each read under its own lock.
pub(crate) fn fold<'a>(bags: impl Iterator<Item = &'a Bag>) -> ReclaimStats {
    bags.map(Bag::tally)
        .fold(ReclaimStats::default(), |a, b| ReclaimStats {
            retires: a.retires + b.retires,
            scans: a.scans + b.scans,
            frees: a.frees + b.frees,
        })
}

/// A bag's entries while [`Bag::sweep`] judges them.
struct Taken<'a> {
    bag: &'a Bag,
    stats: &'a SyncCounters,
    entries: Vec<Retired>,
    freed: u64,
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        if self.freed > 0 {
            self.stats.add(Counter::ReclaimFrees, self.freed);
        }
        let mut bag = self.bag.lock();
        bag.tally.frees += self.freed;
        if bag.entries.is_empty() {
            // The common case; keeps the buffer's capacity with the bag.
            std::mem::swap(&mut bag.entries, &mut self.entries);
        } else {
            bag.entries.append(&mut self.entries);
        }
    }
}
