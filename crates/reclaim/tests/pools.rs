//! Reclamation correctness and stress tests (ISSUE satellite: tests).
//!
//! The counting-drop payload proves drop-exactly-once and
//! no-leak-at-quiescence for both reclaimers; the stress tests hammer both
//! pool shapes with 8 threads × 100k operations each and then check value
//! conservation plus full reclamation. Iteration counts shrink under Miri
//! (the CI Miri job runs this same file).

use splash4_parmacs::{SyncCounters, TaskQueue};
use splash4_reclaim::{
    EliminationStack, EpochReclaimer, HazardReclaimer, MsQueue, PoolShape, ReclaimKind, Reclaimer,
    TaskPool,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = if cfg!(miri) { 200 } else { 100_000 };

fn counters() -> Arc<SyncCounters> {
    Arc::new(SyncCounters::new())
}

/// Payload that counts its drops; `live` goes to zero only when every
/// instance has been dropped exactly once (a double drop would panic the
/// checked-subtraction debug assert or drive the counter negative).
struct Counted {
    live: Arc<AtomicU64>,
    #[allow(dead_code)]
    tag: u64,
}

impl Counted {
    fn new(live: &Arc<AtomicU64>, tag: u64) -> Counted {
        live.fetch_add(1, Ordering::Relaxed);
        Counted {
            live: live.clone(),
            tag,
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        let prev = self.live.fetch_sub(1, Ordering::Relaxed);
        assert!(prev > 0, "payload dropped more than once");
    }
}

fn reclaimer(kind: ReclaimKind, stats: Arc<SyncCounters>) -> Arc<dyn Reclaimer> {
    match kind {
        ReclaimKind::Epoch => Arc::new(EpochReclaimer::new(THREADS, stats)),
        ReclaimKind::Hazard => Arc::new(HazardReclaimer::new(THREADS, stats)),
    }
}

/// Push/pop churn through an `MsQueue`, then flush at quiescence: every
/// retired node must be freed (no leak) and every payload dropped exactly
/// once.
fn queue_reclaims_everything(kind: ReclaimKind) {
    let stats = counters();
    let rec = reclaimer(kind, stats.clone());
    let live = Arc::new(AtomicU64::new(0));
    let q: MsQueue<Counted> = MsQueue::new(rec, stats);
    let n = if cfg!(miri) { 100 } else { 4096 };

    std::thread::scope(|s| {
        for t in 0..4 {
            let q = &q;
            let live = &live;
            s.spawn(move || {
                for i in 0..n {
                    q.push(Counted::new(live, (t * n + i) as u64));
                    if i % 2 == 0 {
                        drop(q.pop());
                    }
                }
                while q.pop().is_some() {}
            });
        }
    });

    assert!(q.is_empty());
    q.flush();
    let st = q.reclaim_stats();
    assert_eq!(st.retires as usize, 4 * n, "one retire per popped dummy");
    assert_eq!(
        st.pending(),
        0,
        "{kind:?}: quiescent flush must reclaim every retired node"
    );
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "{kind:?}: every payload dropped exactly once"
    );
}

fn queue_flush(kind: ReclaimKind) -> splash4_reclaim::ReclaimStats {
    let stats = counters();
    let rec = reclaimer(kind, stats.clone());
    let q: MsQueue<u64> = MsQueue::new(rec, stats);
    for i in 0..128 {
        q.push(i);
    }
    while q.pop().is_some() {}
    q.flush();
    q.reclaim_stats()
}

#[test]
fn epoch_queue_drops_exactly_once_and_leaks_nothing_at_quiescence() {
    queue_reclaims_everything(ReclaimKind::Epoch);
}

#[test]
fn hazard_queue_drops_exactly_once_and_leaks_nothing_at_quiescence() {
    queue_reclaims_everything(ReclaimKind::Hazard);
}

#[test]
fn both_reclaimers_free_all_retired_nodes_on_quiescent_flush() {
    for kind in [ReclaimKind::Epoch, ReclaimKind::Hazard] {
        let st = queue_flush(kind);
        assert_eq!(st.retires, 128);
        assert_eq!(st.frees, 128, "{kind:?} must free everything at quiescence");
        assert!(st.scans >= 1);
    }
}

/// Stack churn with the same counting payload, exercising the elimination
/// slot (threads ping-pong push/pop so offers collide).
fn stack_reclaims_everything(kind: ReclaimKind) {
    let stats = counters();
    let rec = reclaimer(kind, stats.clone());
    let live = Arc::new(AtomicU64::new(0));
    let st: EliminationStack<Counted> = EliminationStack::new(rec, stats);
    let n = if cfg!(miri) { 100 } else { 4096 };

    std::thread::scope(|s| {
        for t in 0..4 {
            let st = &st;
            let live = &live;
            s.spawn(move || {
                for i in 0..n {
                    st.push(Counted::new(live, (t * n + i) as u64));
                    if i % 2 == 1 {
                        drop(st.pop());
                    }
                }
                while st.pop().is_some() {}
            });
        }
    });

    assert!(st.is_empty());
    st.flush();
    let r = st.reclaim_stats();
    assert_eq!(r.retires as usize, 4 * n, "one retire per popped node");
    assert_eq!(r.pending(), 0, "{kind:?}: no leak at quiescence");
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "{kind:?}: every payload dropped exactly once"
    );
}

#[test]
fn epoch_stack_drops_exactly_once_and_leaks_nothing_at_quiescence() {
    stack_reclaims_everything(ReclaimKind::Epoch);
}

#[test]
fn hazard_stack_drops_exactly_once_and_leaks_nothing_at_quiescence() {
    stack_reclaims_everything(ReclaimKind::Hazard);
}

/// 8 threads × 100k mixed ops per pool shape and reclaimer: every pushed
/// value is popped exactly once (conservation) and the pool ends empty with
/// nothing pending after a quiescent flush.
fn stress(shape: PoolShape, kind: ReclaimKind) {
    let stats = counters();
    let pool: Arc<TaskPool<u64>> = Arc::new(TaskPool::new(shape, kind, THREADS, stats));

    let popped: Vec<Vec<u64>> = std::thread::scope(|s| {
        (0..THREADS)
            .map(|t| {
                let pool = pool.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..OPS_PER_THREAD {
                        let v = (t * OPS_PER_THREAD + i) as u64;
                        TaskQueue::push(&*pool, v);
                        if i % 3 != 0 {
                            if let Some(x) = TaskQueue::pop(&*pool) {
                                got.push(x);
                            }
                        }
                    }
                    while let Some(x) = TaskQueue::pop(&*pool) {
                        got.push(x);
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let total = THREADS * OPS_PER_THREAD;
    let mut seen = HashSet::with_capacity(total);
    for v in popped.iter().flatten() {
        assert!(
            seen.insert(*v),
            "{shape:?}/{kind:?}: value {v} popped twice"
        );
    }
    assert_eq!(
        seen.len(),
        total,
        "{shape:?}/{kind:?}: every pushed value must be popped exactly once"
    );
    assert!(pool.is_empty());
    pool.flush();
    assert_eq!(
        pool.reclaim_stats().pending(),
        0,
        "{shape:?}/{kind:?}: quiescent flush reclaims everything"
    );
}

#[test]
fn stress_fifo_pool_under_epoch_reclamation() {
    stress(PoolShape::Fifo, ReclaimKind::Epoch);
}

#[test]
fn stress_fifo_pool_under_hazard_reclamation() {
    stress(PoolShape::Fifo, ReclaimKind::Hazard);
}

#[test]
fn stress_lifo_pool_under_epoch_reclamation() {
    stress(PoolShape::Lifo, ReclaimKind::Epoch);
}

#[test]
fn stress_lifo_pool_under_hazard_reclamation() {
    stress(PoolShape::Lifo, ReclaimKind::Hazard);
}

/// A payload whose `Drop` panics while a reclaimer frees it must cost that
/// one sweep and nothing else: the bag is neither poisoned nor left holding
/// the entry it already destroyed, every other payload still drops exactly
/// once, and the same thread goes on retiring, pushing, popping and flushing.
fn survives_a_panicking_payload(kind: ReclaimKind) {
    struct PanicsOnce {
        armed: bool,
        _count: Counted,
    }
    impl Drop for PanicsOnce {
        fn drop(&mut self) {
            assert!(!std::mem::take(&mut self.armed), "payload drop panics");
        }
    }
    unsafe fn drop_payload(p: *mut u8) {
        // SAFETY: `retire_payload` below boxed a `PanicsOnce` behind `p`.
        drop(unsafe { Box::from_raw(p.cast::<PanicsOnce>()) });
    }
    let stats = counters();
    let rec = reclaimer(kind, stats.clone());
    let live = Arc::new(AtomicU64::new(0));
    let retire_payload = |tag: u64| {
        let payload = Box::new(PanicsOnce {
            armed: tag == 2,
            _count: Counted::new(&live, tag),
        });
        let slot = rec.enter();
        // SAFETY: a fresh box, reachable from nowhere else, retired once.
        unsafe { rec.retire(slot, Box::into_raw(payload).cast(), drop_payload) };
        rec.exit(slot);
    };
    (0..5).for_each(retire_payload);

    let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rec.flush()));
    assert!(flushed.is_err(), "{kind:?}: the armed payload must unwind");

    // Same thread, same slot, same bag.
    retire_payload(5);
    let q: MsQueue<Counted> = MsQueue::new(rec.clone(), stats);
    q.push(Counted::new(&live, 6));
    drop(q.pop());
    rec.flush();
    let st = rec.reclaim_stats();
    assert_eq!(st.retires, 7, "{kind:?}: six payloads and one queue dummy");
    assert_eq!(st.pending(), 0, "{kind:?}: nothing left after the panic");
    assert_eq!(
        live.load(Ordering::Relaxed),
        0,
        "{kind:?}: every payload dropped exactly once"
    );
}

#[test]
fn epoch_reclaimer_survives_a_payload_whose_drop_panics() {
    survives_a_panicking_payload(ReclaimKind::Epoch);
}

#[test]
fn hazard_reclaimer_survives_a_payload_whose_drop_panics() {
    survives_a_panicking_payload(ReclaimKind::Hazard);
}
