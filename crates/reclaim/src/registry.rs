//! Per-thread slot leasing shared by both reclaimers.
//!
//! A reclaimer owns a fixed array of per-thread records (epoch slots or
//! hazard-pointer rows). OS threads lease a record on first use and cache
//! the lease in a thread-local; when the thread exits, the lease's `Drop`
//! vacates the record (clearing protocol state) so a later thread can
//! reuse it. `splash4_parmacs::current_tid` is *not* usable here: it is a
//! team index that is 0 outside any team and repeats across teams, while
//! hazard-pointer soundness requires every concurrently live thread to own
//! a distinct record.
//!
//! The lease flags are bookkeeping and stay on `std` under every
//! [`Atomics`](splash4_parmacs::Atomics): which record a thread holds is
//! not part of either protocol.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Process-wide allocator of registry identities (one per reclaimer).
static NEXT_REGISTRY_ID: AtomicUsize = AtomicUsize::new(0);

/// A fresh identity for a reclaimer's slot registry.
pub(crate) fn new_registry_id() -> usize {
    NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed)
}

/// Implemented by a reclaimer's shared state: clears a slot's protocol
/// residue (hazards, epoch announcement) and marks it leasable again.
pub(crate) trait SlotHolder: Send + Sync {
    fn vacate(&self, slot: usize);
}

struct Lease {
    registry_id: usize,
    slot: usize,
    holder: Weak<dyn SlotHolder>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        // The reclaimer may have been dropped before the thread exits; a
        // dead holder has already reclaimed everything, nothing to vacate.
        if let Some(h) = self.holder.upgrade() {
            h.vacate(self.slot);
        }
    }
}

thread_local! {
    /// This thread's live leases, one per reclaimer it has used. The list
    /// stays tiny (a handful of pools per process), so linear scans beat a
    /// map.
    static LEASES: RefCell<Vec<Lease>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's slot in `holder`'s registry, claiming a free one
/// via `in_use` on first use. `claims` counts the registry's claims: each
/// starts looking one record further on, so which record a thread gets is
/// settled by the order of the claims, not by how far the TLS destructor of
/// a thread that just exited has come.
///
/// # Panics
/// Panics when more threads are concurrently live than the registry has
/// slots.
pub(crate) fn thread_slot(
    registry_id: usize,
    holder: &Arc<dyn SlotHolder>,
    in_use: &[AtomicBool],
    claims: &AtomicUsize,
) -> usize {
    LEASES.with(|leases| {
        let mut leases = leases.borrow_mut();
        if let Some(lease) = leases.iter().find(|l| l.registry_id == registry_id) {
            return lease.slot;
        }
        // A long-lived thread outlives many reclaimers: forget theirs.
        leases.retain(|l| l.holder.strong_count() > 0);
        let slot = claim(in_use, claims.fetch_add(1, Ordering::Relaxed));
        leases.push(Lease {
            registry_id,
            slot,
            holder: Arc::downgrade(holder),
        });
        slot
    })
}

fn claim(in_use: &[AtomicBool], start: usize) -> usize {
    // A full registry is usually transient: `std::thread::scope` unblocks
    // as soon as the scoped closures return, *before* the exiting threads
    // run their TLS destructors — so a fresh team can race the previous
    // team's leases mid-vacate. Yield until those destructors land; only a
    // genuinely oversubscribed registry panics.
    const EXHAUSTED_YIELDS: usize = 100_000;
    for attempt in 0..EXHAUSTED_YIELDS {
        for i in (0..in_use.len()).map(|k| (start + k) % in_use.len()) {
            if in_use[i]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return i;
            }
        }
        if attempt + 1 == EXHAUSTED_YIELDS {
            break;
        }
        std::thread::yield_now();
    }
    panic!(
        "reclaimer slot registry exhausted: more than {} concurrently live threads",
        in_use.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug)]
    struct Recorder {
        in_use: Vec<AtomicBool>,
        claims: AtomicUsize,
        vacated: Mutex<Vec<usize>>,
    }

    impl SlotHolder for Recorder {
        fn vacate(&self, slot: usize) {
            self.in_use[slot].store(false, Ordering::Release);
            self.vacated.lock().unwrap().push(slot);
        }
    }

    fn recorder(slots: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            in_use: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            claims: AtomicUsize::new(0),
            vacated: Mutex::new(Vec::new()),
        })
    }

    fn leased(r: &Recorder, slot: usize) -> bool {
        r.in_use[slot].load(Ordering::Acquire)
    }

    fn lease(id: usize, r: &Arc<Recorder>) -> usize {
        let holder: Arc<dyn SlotHolder> = r.clone();
        thread_slot(id, &holder, &r.in_use, &r.claims)
    }

    #[test]
    fn same_thread_reuses_its_lease() {
        let r = recorder(4);
        let id = new_registry_id();
        let a = lease(id, &r);
        let b = lease(id, &r);
        assert_eq!(a, b);
        assert!(leased(&r, a));
    }

    #[test]
    fn concurrent_threads_get_distinct_slots_and_vacate_on_exit() {
        let r = recorder(8);
        let id = new_registry_id();
        // Hold all 8 leases simultaneously (the barrier keeps every thread
        // alive until the last has claimed); only then is distinctness
        // guaranteed — an exited thread's slot is legitimately reusable.
        let gate = Arc::new(std::sync::Barrier::new(8));
        let slots: Vec<usize> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let r = r.clone();
                    let gate = gate.clone();
                    s.spawn(move || {
                        let slot = lease(id, &r);
                        gate.wait();
                        slot
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "live threads must own distinct slots");
        // All threads exited: every slot was vacated and is leasable again.
        assert_eq!(r.vacated.lock().unwrap().len(), 8);
        assert!((0..8).all(|slot| !leased(&r, slot)));
    }

    #[test]
    fn two_registries_on_one_thread_do_not_collide() {
        let r1 = recorder(2);
        let r2 = recorder(2);
        let (id1, id2) = (new_registry_id(), new_registry_id());
        let s1 = lease(id1, &r1);
        let s2 = lease(id2, &r2);
        assert!(leased(&r1, s1));
        assert!(leased(&r2, s2));
        assert_eq!(lease(id1, &r1), s1);
    }

    #[test]
    fn claims_rotate_past_a_record_that_was_just_vacated() {
        // Which record the second thread gets must not depend on whether the
        // first thread's TLS destructor has run yet: the model checker
        // replays executions whose threads come and go.
        let r = recorder(3);
        let id = new_registry_id();
        let claim = || {
            let r = r.clone();
            std::thread::spawn(move || lease(id, &r)).join().unwrap()
        };
        assert_eq!([claim(), claim(), claim(), claim()], [0, 1, 2, 0]);
    }

    #[test]
    fn a_long_lived_thread_forgets_the_leases_of_dead_registries() {
        for _ in 0..100 {
            lease(new_registry_id(), &recorder(1));
        }
        let kept = LEASES.with(|leases| leases.borrow().len());
        assert!(kept <= 2, "{kept} leases kept for 100 dead registries");
    }
}
