//! `cmap` — concurrent keyed-map churn (suite extension, PR 10).
//!
//! A mixed insert/lookup/remove stream over a bucketed map. The original
//! thirteen kernels are reducer/barrier/counter-heavy; `cmap` brings the
//! pointer-chasing churn profile of the Synch-framework microbenchmarks
//! into the suite: the lock-free variant is a Harris–Michael linked list
//! per bucket (mark bit in the `next` pointer, helping traversals snip
//! logically deleted nodes) with **epoch-based safe memory reclamation**
//! from `splash4-reclaim`; the lock-based variant banks each bucket's
//! `Vec` behind an `ALOCK`-style lock array. All atomic orderings come
//! from [`CMapSpec`], and [`LockFreeMap`] is generic over the `parmacs`
//! `Atomics` facade: `splash4-check` explores the mark/unlink/retire
//! protocol on this type itself (`V2-kernel-check`, `W1-weakmem`).
//!
//! Determinism: every key has one owner thread (`owner(key) % nthreads`);
//! the owner executes all of that key's operations in global program
//! order. Operations on distinct keys commute for both the final map
//! contents and per-key lookup hits, so the checksum is identical across
//! sync modes and thread counts and a sequential replay is an exact
//! oracle.
//!
//! Synchronization profile: this is the suite's **data-RMW- and
//! reclamation-heavy** workload — no `GETSUB` counters, no task queues;
//! churn is CAS traffic (or bucket locks) plus retire/scan/free activity
//! that none of the original kernels exhibit (the `D1-diversity` claim).

use crate::common::{close, KernelResult, SharedSlice, DATA_OP};
use crate::inputs::InputClass;
use crate::workload::{driver, Workload};
use splash4_parmacs::atomics::{Atomics, DataCell, Std, Word};
use splash4_parmacs::{CMapSpec, PhaseSpec, SleepLock, SmallRng, SyncCounters, SyncEnv, WorkModel};
use splash4_reclaim::{EpochReclaimer, ReclaimStats, Reclaimer};
use std::collections::HashMap;
use std::sync::Arc;

/// One map operation in the generated churn stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// Insert-or-update `key` with `val`.
    Insert(u64, u64),
    /// Remove `key` (no-op miss if absent).
    Remove(u64),
    /// Lookup `key`; counts a hit if present.
    Lookup(u64),
}

impl MapOp {
    fn key(self) -> u64 {
        match self {
            MapOp::Insert(k, _) | MapOp::Remove(k) | MapOp::Lookup(k) => k,
        }
    }
}

/// Concurrent-map kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CMapConfig {
    /// Key universe (keys are drawn from `0..universe`).
    pub universe: u64,
    /// Bucket count.
    pub buckets: usize,
    /// Operations in the churn stream.
    pub ops: usize,
    /// RNG seed for the operation stream.
    pub seed: u64,
}

impl CMapConfig {
    /// Standard configuration for an input class.
    pub fn class(class: InputClass) -> CMapConfig {
        let (universe, buckets, ops) = match class {
            InputClass::Test => (512, 64, 24_000),
            InputClass::Small => (4_096, 256, 200_000),
            InputClass::Native => (16_384, 1_024, 1_500_000),
        };
        CMapConfig {
            universe,
            buckets,
            ops,
            seed: 0x5eed_c3ab,
        }
    }
}

/// Generate the deterministic operation stream (≈50% lookups, 30%
/// inserts, 20% removes).
pub fn generate_ops(cfg: &CMapConfig) -> Vec<MapOp> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    (0..cfg.ops)
        .map(|_| {
            let k = rng.gen_range(0..cfg.universe);
            match rng.gen_range(0..10u32) {
                0..=4 => MapOp::Lookup(k),
                5..=7 => MapOp::Insert(k, rng.gen_range(0..1_000u64)),
                _ => MapOp::Remove(k),
            }
        })
        .collect()
}

fn bucket_of(key: u64, buckets: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % buckets
}

fn owner_of(key: u64, nthreads: usize) -> usize {
    ((key.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 33) as usize) % nthreads
}

/// Sequential oracle: replay the stream in program order against a plain
/// `HashMap`; returns (lookup hits, live-entry count, live-entry sum).
pub fn oracle(ops: &[MapOp]) -> (u64, u64, f64) {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut hits = 0u64;
    for &op in ops {
        match op {
            MapOp::Insert(k, v) => {
                map.insert(k, v);
            }
            MapOp::Remove(k) => {
                map.remove(&k);
            }
            MapOp::Lookup(k) => {
                if map.contains_key(&k) {
                    hits += 1;
                }
            }
        }
    }
    let sum: f64 = map
        .iter()
        .map(|(&k, &v)| (k as f64 + 1.0) * (v as f64 + 1.0))
        .sum();
    (hits, map.len() as u64, sum)
}

// --- lock-free variant: Harris–Michael list per bucket ------------------

struct Node<A: Atomics> {
    /// Plain data, written once before the link CAS publishes the node.
    key: A::Cell<u64>,
    val: A::U64,
    next: A::Ptr<Node<A>>,
}

impl<A: Atomics> Node<A> {
    /// # Safety
    /// The caller must have reached the node through an acquiring load of a
    /// pointer to it, inside a protected region.
    unsafe fn key(&self) -> u64 {
        // SAFETY: the key is never written after the link CAS released it.
        unsafe { self.key.with(|k| *k) }
    }
}

/// Low-bit mark tag: a set bit on a node's `next` pointer marks the node
/// as logically deleted.
fn marked<T>(p: *mut T) -> *mut T {
    (p as usize | 1) as *mut T
}

fn unmark<T>(p: *mut T) -> *mut T {
    (p as usize & !1) as *mut T
}

fn is_marked<T>(p: *mut T) -> bool {
    (p as usize & 1) == 1
}

unsafe fn drop_node<A: Atomics>(p: *mut u8) {
    // SAFETY: `p` is a `Node<A>` of `A::alloc` and the reclaimer's
    // two-epoch rule proves no reference survives.
    unsafe { A::free(p.cast::<Node<A>>()) };
}

/// The lock-free map: one Harris–Michael list per bucket over an embedded
/// epoch reclaimer. Generic over the `parmacs` [`Atomics`] facade, [`Std`]
/// in the kernel, so `splash4-check` explores this type itself. Every
/// operation pins its own protected region.
pub struct LockFreeMap<A: Atomics = Std> {
    heads: Vec<A::Ptr<Node<A>>>,
    reclaimer: EpochReclaimer<A>,
    stats: Arc<SyncCounters>,
}

impl<A: Atomics> LockFreeMap<A> {
    /// Empty map of `buckets` chains with room for `capacity` concurrently
    /// live threads, reporting into `stats`.
    pub fn new(buckets: usize, capacity: usize, stats: Arc<SyncCounters>) -> LockFreeMap<A> {
        LockFreeMap {
            heads: (0..buckets)
                .map(|_| A::Ptr::new("cmap.head", std::ptr::null_mut()))
                .collect(),
            reclaimer: EpochReclaimer::new(capacity, Arc::clone(&stats)),
            stats,
        }
    }

    /// Run `op` inside a protected region of the calling thread.
    fn pinned<R>(&self, op: impl FnOnce(usize) -> R) -> R {
        let slot = self.reclaimer.enter();
        let result = op(slot);
        self.reclaimer.exit(slot);
        result
    }

    /// Harris–Michael `find`: returns `(prev_link, cur)` where `cur` is
    /// the first unmarked node with `node.key >= key` (null at list end)
    /// and `prev_link` is the pointer field that leads to it. Marked nodes
    /// encountered on the way are snipped; the successful snipper retires
    /// the node.
    ///
    /// # Safety
    /// The calling thread must be inside a protected region (`slot` from
    /// `reclaimer.enter()`), which keeps every traversed node alive.
    unsafe fn find(&self, slot: usize, key: u64) -> (&A::Ptr<Node<A>>, *mut Node<A>) {
        let s = A::spec(CMapSpec::SPLASH4);
        let head = &self.heads[bucket_of(key, self.heads.len())];
        'retry: loop {
            let mut prev: &A::Ptr<Node<A>> = head;
            let mut cur = unmark(prev.load(s.head_load));
            loop {
                if cur.is_null() {
                    return (prev, cur);
                }
                // SAFETY: pinned epoch keeps `cur` alive even if a
                // concurrent remove retires it mid-traversal.
                let cur_ref = unsafe { &*cur };
                let next_tagged = cur_ref.next.load(s.next_load);
                let next = unmark(next_tagged);
                if is_marked(next_tagged) {
                    // Snip the logically deleted node. The expected value
                    // carries no mark bit, so this fails (and we restart)
                    // if `prev` itself got marked meanwhile.
                    self.stats.record(DATA_OP);
                    let unlink =
                        prev.compare_exchange(cur, next, s.unlink_cas_ok, s.unlink_cas_fail);
                    match self.stats.cas(unlink) {
                        Ok(_) => {
                            // SAFETY: the CAS made this thread the unique
                            // unlinker; hand the node to the reclaimer.
                            unsafe {
                                self.reclaimer.retire(slot, cur.cast(), drop_node::<A>);
                            }
                            cur = next;
                        }
                        Err(_) => continue 'retry,
                    }
                    continue;
                }
                // SAFETY: `cur` was reached through an acquiring load.
                if unsafe { cur_ref.key() } >= key {
                    return (prev, cur);
                }
                prev = &cur_ref.next;
                cur = next;
            }
        }
    }

    /// Insert-or-update. The kernel calls this from the key's owner thread
    /// only, which is what makes its checksum schedule-independent.
    pub fn insert(&self, key: u64, val: u64) {
        let s = A::spec(CMapSpec::SPLASH4);
        self.pinned(|slot| loop {
            // SAFETY: inside the protected region of `slot`.
            let (prev, cur) = unsafe { self.find(slot, key) };
            if !cur.is_null() {
                // SAFETY (both): `cur` is pinned by the epoch, and `find`
                // reached it through an acquiring load.
                let cur_ref = unsafe { &*cur };
                if unsafe { cur_ref.key() } == key {
                    cur_ref.val.store(val, s.value_store);
                    return;
                }
            }
            let node = A::alloc(Node::<A> {
                key: A::Cell::new("cmap.node.key", key),
                val: A::U64::new("cmap.node.val", val),
                next: A::Ptr::new("cmap.node.next", cur),
            });
            self.stats.record(DATA_OP);
            match self
                .stats
                .cas(prev.compare_exchange(cur, node, s.link_cas_ok, s.link_cas_fail))
            {
                Ok(_) => return,
                Err(_) => {
                    // SAFETY: the node never became visible; give it back
                    // directly and retry the whole find.
                    unsafe { A::free(node) };
                }
            }
        })
    }

    /// Logically delete `key` (mark), then help unlink. Returns `true` on
    /// hit. Called from the key's owner thread only, like `insert`.
    pub fn remove(&self, key: u64) -> bool {
        let s = A::spec(CMapSpec::SPLASH4);
        self.pinned(|slot| loop {
            // SAFETY: inside the protected region of `slot`.
            let (_prev, cur) = unsafe { self.find(slot, key) };
            if cur.is_null() {
                return false;
            }
            // SAFETY (both): pinned, and reached through an acquiring load.
            let cur_ref = unsafe { &*cur };
            if unsafe { cur_ref.key() } != key {
                return false;
            }
            let next_tagged = cur_ref.next.load(s.next_load);
            if is_marked(next_tagged) {
                // Already logically deleted (only the owner marks this
                // key, so this means a prior remove won the race with a
                // helper's snip); treat as miss.
                return false;
            }
            self.stats.record(DATA_OP);
            let mark = cur_ref.next.compare_exchange(
                next_tagged,
                marked(next_tagged),
                s.mark_cas_ok,
                s.mark_cas_fail,
            );
            // A failed mark means a helper inserted after `cur` (its next
            // changed); the mark itself is owner-exclusive. Retry.
            if self.stats.cas(mark).is_ok() {
                // Physical removal: re-run find, whose snip path unlinks
                // and retires the node (or a helper already did).
                // SAFETY: still pinned.
                let _ = unsafe { self.find(slot, key) };
                return true;
            }
        })
    }

    /// Lookup without helping. Returns the value on hit.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let s = A::spec(CMapSpec::SPLASH4);
        self.pinned(|_slot| {
            let mut cur = unmark(self.heads[bucket_of(key, self.heads.len())].load(s.head_load));
            while !cur.is_null() {
                // SAFETY (both): pinned, and reached through an acquiring
                // load.
                let cur_ref = unsafe { &*cur };
                let next_tagged = cur_ref.next.load(s.next_load);
                let cur_key = unsafe { cur_ref.key() };
                if cur_key == key {
                    if is_marked(next_tagged) {
                        return None;
                    }
                    return Some(cur_ref.val.load(s.value_load));
                }
                if cur_key > key {
                    return None;
                }
                cur = unmark(next_tagged);
            }
            None
        })
    }

    /// Scan of bucket `b`: (live count, live (k+1)·(v+1) sum).
    pub fn scan_bucket(&self, b: usize) -> (u64, f64) {
        let s = A::spec(CMapSpec::SPLASH4);
        self.pinned(|_slot| {
            let mut count = 0u64;
            let mut sum = 0.0f64;
            let mut cur = unmark(self.heads[b].load(s.head_load));
            while !cur.is_null() {
                // SAFETY (both): pinned, and reached through an acquiring
                // load.
                let cur_ref = unsafe { &*cur };
                let next_tagged = cur_ref.next.load(s.next_load);
                if !is_marked(next_tagged) {
                    let (k, v) = (unsafe { cur_ref.key() }, cur_ref.val.load(s.value_load));
                    count += 1;
                    sum += (k as f64 + 1.0) * (v as f64 + 1.0);
                }
                cur = unmark(next_tagged);
            }
            (count, sum)
        })
    }

    /// Destroy every retired node the epoch protocol can prove unreachable
    /// (everything, when callers are quiescent).
    pub fn flush(&self) {
        self.reclaimer.flush();
    }

    /// Exact reclamation tallies of this map's reclaimer.
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaimer.reclaim_stats()
    }
}

impl<A: Atomics> Drop for LockFreeMap<A> {
    fn drop(&mut self) {
        // Retired nodes are off the lists (the reclaimer frees them);
        // everything still reachable — marked or not — is freed here.
        for head in &mut self.heads {
            let mut cur = unmark(head.load_mut());
            while !cur.is_null() {
                // SAFETY: `&mut self` — no concurrent access remains; each
                // node is read, then freed once.
                unsafe {
                    let next = (*cur).next.load_mut();
                    A::free(cur);
                    cur = unmark(next);
                }
            }
        }
    }
}

// --- lock-based variant: bucket Vecs behind an ALOCK array --------------

struct LockedMap<'a> {
    buckets: SharedSlice<'a, Vec<(u64, u64)>>,
    locks: Vec<SleepLock>,
    stats: Arc<SyncCounters>,
}

impl LockedMap<'_> {
    fn insert(&self, key: u64, val: u64) {
        self.stats.record(DATA_OP);
        let b = bucket_of(key, self.buckets.len());
        self.locks[b].acquire();
        // SAFETY: bucket `b` is exclusively held under its lock.
        let bucket = unsafe { self.buckets.at(b) };
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = val,
            None => bucket.push((key, val)),
        }
        self.locks[b].release();
    }

    fn remove(&self, key: u64) -> bool {
        self.stats.record(DATA_OP);
        let b = bucket_of(key, self.buckets.len());
        self.locks[b].acquire();
        // SAFETY: as above.
        let bucket = unsafe { self.buckets.at(b) };
        let hit = match bucket.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                bucket.swap_remove(i);
                true
            }
            None => false,
        };
        self.locks[b].release();
        hit
    }

    fn lookup(&self, key: u64) -> Option<u64> {
        self.stats.record(DATA_OP);
        let b = bucket_of(key, self.buckets.len());
        self.locks[b].acquire();
        // SAFETY: as above.
        let bucket = unsafe { self.buckets.at(b) };
        let got = bucket.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        self.locks[b].release();
        got
    }

    fn scan_bucket(&self, b: usize) -> (u64, f64) {
        // Phase-separated read (post-churn barrier): no lock needed.
        // SAFETY: no concurrent writers after the barrier.
        let bucket = unsafe { self.buckets.at(b) };
        let sum = bucket
            .iter()
            .map(|&(k, v)| (k as f64 + 1.0) * (v as f64 + 1.0))
            .sum();
        (bucket.len() as u64, sum)
    }
}

enum MapImpl<'a> {
    Locked(LockedMap<'a>),
    LockFree(LockFreeMap),
}

/// Run the concurrent-map churn under `env`; validates lookup hits, live
/// count and live sum against the sequential oracle.
pub fn run(cfg: &CMapConfig, env: &SyncEnv) -> KernelResult {
    let nthreads = env.nthreads();
    let ops = generate_ops(cfg);
    let (want_hits, want_count, want_sum) = oracle(&ops);

    // Per-key ownership: pre-partition the stream so each thread replays
    // its keys' operations in global order (input prep, outside the ROI).
    let mut owned: Vec<Vec<MapOp>> = vec![Vec::new(); nthreads];
    for &op in &ops {
        owned[owner_of(op.key(), nthreads)].push(op);
    }
    let owned = owned;

    let mut bucket_store: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cfg.buckets];
    let map = if env.data_locks() {
        MapImpl::Locked(LockedMap {
            buckets: SharedSlice::new(&mut bucket_store),
            locks: env.lock_array(cfg.buckets),
            stats: Arc::clone(env.stats()),
        })
    } else {
        MapImpl::LockFree(LockFreeMap::new(
            cfg.buckets,
            nthreads + 1,
            Arc::clone(env.stats()),
        ))
    };

    let barrier = env.barrier();
    let hits = env.reducer_u64();
    let live_count = env.reducer_u64();
    let live_sum = env.reducer_f64();

    let elapsed = driver::roi(env, |ctx| {
        // Phase 1 — churn: replay the owned sub-stream.
        let mut my_hits = 0u64;
        match &map {
            MapImpl::Locked(m) => {
                for &op in &owned[ctx.tid] {
                    match op {
                        MapOp::Insert(k, v) => m.insert(k, v),
                        MapOp::Remove(k) => {
                            m.remove(k);
                        }
                        MapOp::Lookup(k) => {
                            if m.lookup(k).is_some() {
                                my_hits += 1;
                            }
                        }
                    }
                }
            }
            MapImpl::LockFree(m) => {
                for &op in &owned[ctx.tid] {
                    match op {
                        MapOp::Insert(k, v) => m.insert(k, v),
                        MapOp::Remove(k) => {
                            m.remove(k);
                        }
                        MapOp::Lookup(k) => {
                            if m.lookup(k).is_some() {
                                my_hits += 1;
                            }
                        }
                    }
                }
            }
        }
        hits.add(my_hits);
        barrier.wait(ctx.tid);

        // Phase 2 — scan: static bucket chunks, live-set digest.
        let mut my_count = 0u64;
        let mut my_sum = 0.0f64;
        for b in ctx.chunk(cfg.buckets) {
            let (c, s) = match &map {
                MapImpl::Locked(m) => m.scan_bucket(b),
                MapImpl::LockFree(m) => m.scan_bucket(b),
            };
            my_count += c;
            my_sum += s;
        }
        live_count.add(my_count);
        live_sum.add(my_sum);
        barrier.wait(ctx.tid);

        // Drain the defer-destroy bags while the team is still up.
        if ctx.is_master() {
            if let MapImpl::LockFree(m) = &map {
                m.flush();
            }
        }
        barrier.wait(ctx.tid);
    });

    let got_hits = hits.load();
    let got_count = live_count.load();
    let got_sum = live_sum.load();
    let validated =
        got_hits == want_hits && got_count == want_count && close(got_sum, want_sum, 1e-9);
    let checksum = got_sum + got_hits as f64;

    let nu = cfg.ops as u64;
    let bu = cfg.buckets as u64;
    let work = WorkModel::new("cmap")
        .phase(
            PhaseSpec::compute("churn", nu, 60)
                .data_touches(1.0)
                .reduces(1),
        )
        .phase(
            PhaseSpec::compute("scan", bu, 14 * (cfg.universe / bu.max(1)).max(1))
                .reduces(2)
                .barriers(2),
        );

    driver::finish(env, elapsed, checksum, validated, work)
}

/// `cmap`'s suite registration.
#[derive(Debug, Clone, Copy)]
pub struct CMap;

impl Workload for CMap {
    fn name(&self) -> &'static str {
        "cmap"
    }

    fn input_description(&self, class: InputClass) -> String {
        let c = CMapConfig::class(class);
        format!(
            "{} ops over {} keys, {} buckets",
            c.ops, c.universe, c.buckets
        )
    }

    fn run(&self, class: InputClass, env: &SyncEnv) -> KernelResult {
        run(&CMapConfig::class(class), env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::SyncMode;

    #[test]
    fn validates_single_thread() {
        let cfg = CMapConfig::class(InputClass::Test);
        for mode in SyncMode::ALL {
            let r = run(&cfg, &SyncEnv::new(mode, 1));
            assert!(r.validated, "mode {mode}");
        }
    }

    #[test]
    fn validates_multithreaded() {
        let cfg = CMapConfig::class(InputClass::Test);
        for mode in SyncMode::ALL {
            for t in [2, 3, 4] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert!(r.validated, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn checksum_is_mode_and_thread_invariant() {
        let cfg = CMapConfig::class(InputClass::Test);
        let want = run(&cfg, &SyncEnv::new(SyncMode::LockBased, 1)).checksum;
        for mode in SyncMode::ALL {
            for t in [1, 3] {
                let r = run(&cfg, &SyncEnv::new(mode, t));
                assert_eq!(r.checksum, want, "mode {mode}, {t} threads");
            }
        }
    }

    #[test]
    fn lock_free_mode_churns_and_reclaims_without_locks() {
        let cfg = CMapConfig::class(InputClass::Test);
        let env = SyncEnv::new(SyncMode::LockFree, 2);
        let r = run(&cfg, &env);
        assert!(r.validated);
        assert_eq!(r.profile.lock_acquires, 0);
        assert!(r.profile.atomic_rmws > 0);
        assert!(r.profile.reclaim_retires > 0, "removes must retire nodes");
        assert!(r.profile.reclaim_frees > 0, "flush must free retirees");
        assert_eq!(r.profile.getsub_calls, 0, "cmap uses no GETSUB");
        assert_eq!(r.profile.queue_ops, 0, "cmap uses no task queues");
    }

    #[test]
    fn lock_based_mode_uses_bucket_locks_only() {
        let cfg = CMapConfig::class(InputClass::Test);
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        let r = run(&cfg, &env);
        assert!(r.validated);
        assert_eq!(r.profile.atomic_rmws, 0);
        assert!(r.profile.lock_acquires > 0);
        assert_eq!(r.profile.reclaim_retires, 0);
    }

    #[test]
    fn std_map_and_node_keep_their_pre_facade_size() {
        // At the commit before the facade (x86-64) a node was 24 bytes and
        // the map 80, 16 of them the stored `CMapSpec` copy that is gone:
        // `A = Std` adds no byte to either.
        assert_eq!(std::mem::size_of::<Node<Std>>(), 24);
        assert_eq!(std::mem::size_of::<LockFreeMap>(), 80 - 16);
    }

    #[test]
    fn oracle_counts_hits_and_live_set() {
        let ops = vec![
            MapOp::Insert(1, 10),
            MapOp::Lookup(1),
            MapOp::Remove(1),
            MapOp::Lookup(1),
            MapOp::Insert(2, 20),
        ];
        let (hits, count, sum) = oracle(&ops);
        assert_eq!(hits, 1);
        assert_eq!(count, 1);
        assert_eq!(sum, 3.0 * 21.0);
    }

    #[test]
    fn per_key_ownership_covers_every_op() {
        let cfg = CMapConfig::class(InputClass::Test);
        let ops = generate_ops(&cfg);
        for t in [1, 2, 5] {
            let total: usize = (0..t)
                .map(|tid| ops.iter().filter(|op| owner_of(op.key(), t) == tid).count())
                .sum();
            assert_eq!(total, ops.len());
        }
    }
}
