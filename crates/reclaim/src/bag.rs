//! The retire bag both reclaimers defer destruction into.

use crate::StatCells;
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

/// One slot's retired nodes.
///
/// A `std::sync::Mutex`, deliberately uninstrumented: reclamation
/// bookkeeping must not show up as `lock_acquires` in kernel profiles.
/// Contention is nil — only the owning thread pushes; other threads touch a
/// foreign bag only in [`Reclaimer::flush`](crate::Reclaimer::flush). Every
/// update leaves the vector valid, so a poisoned lock is taken over.
#[derive(Default)]
pub(crate) struct Bag(Mutex<Vec<Retired>>);

impl Bag {
    fn lock(&self) -> MutexGuard<'_, Vec<Retired>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `r`; returns the bag's length.
    pub(crate) fn push(&self, r: Retired) -> usize {
        let mut bag = self.lock();
        bag.push(r);
        bag.len()
    }

    /// Destroy every entry `keep` rejects and tally them as freed. The
    /// entries leave the bag before `keep` first runs, so protocol state it
    /// reads then is newer than every entry's unlink, and are freed with the
    /// lock released. The survivors go back — as does, when a payload's
    /// `Drop` unwinds, every entry not destroyed yet.
    ///
    /// # Safety
    /// No thread may still hold a protected reference to an entry `keep`
    /// rejects (the reclamation protocol's whole job).
    pub(crate) unsafe fn sweep(&self, tally: &StatCells, mut keep: impl FnMut(&Retired) -> bool) {
        let entries = std::mem::take(&mut *self.lock());
        let mut taken = Taken {
            bag: self,
            tally,
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

/// A bag's entries while [`Bag::sweep`] judges them.
struct Taken<'a> {
    bag: &'a Bag,
    tally: &'a StatCells,
    entries: Vec<Retired>,
    freed: u64,
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        self.tally.freed(self.freed);
        let mut bag = self.bag.lock();
        if bag.is_empty() {
            // The common case; keeps the buffer's capacity with the bag.
            std::mem::swap(&mut *bag, &mut self.entries);
        } else {
            bag.append(&mut self.entries);
        }
    }
}
