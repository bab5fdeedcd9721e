//! Content-hashed result cache with in-flight request coalescing.
//!
//! [`ResultCache`] generalizes the calibrated-model cache to *whole results*:
//! any value keyed by a content hash of the request that produced it. It is
//! the dedup layer of the `splash4-serve` experiment service — two clients
//! submitting byte-identical configs share one computation — but it is
//! deliberately value-generic so [`crate::experiments::ModelCache`] rebases
//! on it too.
//!
//! Three properties the tests pin down:
//!
//! - **exactly-once**: concurrent requests for the same key coalesce on a
//!   condvar while the first caller computes; the value is computed once and
//!   every waiter gets the clone (and counts as a *hit*).
//! - **bounded**: at most `capacity` ready values are retained; inserting
//!   past that evicts the least-recently-used entry (in-flight computations
//!   are never evicted and do not count against the bound).
//! - **observable**: hits and misses are recorded into the shared
//!   [`SyncCounters`] (`cache_hits` / `cache_misses` in the profile), so a
//!   service can *prove* a duplicate was served from cache.
//!
//! Errors are not cached: a failed computation removes the in-flight marker
//! and wakes the waiters, one of which retries the computation itself. One
//! that *panics* does the same as it unwinds (the marker is a drop guard).
//!
//! There is one hit path, [`ResultCache::get_ready`] (clone, refresh the LRU
//! order, count the hit); `get_or_try_compute` goes through it too, so a hit
//! the service answers at submit is the hit a worker would have seen. The
//! lock is poison-tolerant: every update is one map insert or remove, so a
//! panicking `Clone` or `Drop` of a value leaves the map valid.

use splash4_parmacs::{Counter, SyncCounters};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// FNV-1a over `bytes`: the content hash used for cache keys.
///
/// Stable across processes and platforms (unlike `DefaultHasher`), so keys
/// derived from a request's canonical form are reproducible in logs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

enum Slot<V> {
    /// Some caller is computing this key; waiters park on the condvar.
    InFlight,
    /// Computed value plus the logical time of its last use (for eviction).
    Ready { value: V, last_used: u64 },
}

struct CacheInner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Logical clock advanced on every touch; drives LRU eviction.
    tick: u64,
}

struct CacheShared<V> {
    inner: Mutex<CacheInner<V>>,
    cond: Condvar,
    capacity: usize,
    stats: Arc<SyncCounters>,
}

impl<V> CacheShared<V> {
    fn lock(&self) -> MutexGuard<'_, CacheInner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One computation's in-flight marker. Its drop — after success, on error or
/// as a panic unwinds — removes an unresolved marker and wakes the waiters.
struct InFlight<'a, V> {
    shared: &'a CacheShared<V>,
    key: u64,
}

impl<V> Drop for InFlight<'_, V> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        if matches!(inner.map.get(&self.key), Some(Slot::InFlight)) {
            inner.map.remove(&self.key);
        }
        drop(inner);
        self.shared.cond.notify_all();
    }
}

/// Shareable content-hashed result cache (clones share the same storage).
pub struct ResultCache<V> {
    shared: Arc<CacheShared<V>>,
}

impl<V> Clone for ResultCache<V> {
    fn clone(&self) -> ResultCache<V> {
        ResultCache {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<V> std::fmt::Debug for ResultCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}

impl<V: Clone> ResultCache<V> {
    /// A cache retaining at most `capacity` ready values (minimum 1),
    /// recording hit/miss counts into `stats`.
    pub fn new(capacity: usize, stats: Arc<SyncCounters>) -> ResultCache<V> {
        ResultCache {
            shared: Arc::new(CacheShared {
                inner: Mutex::new(CacheInner {
                    map: HashMap::new(),
                    tick: 0,
                }),
                cond: Condvar::new(),
                capacity: capacity.max(1),
                stats,
            }),
        }
    }

    /// The ready value for `key`, if there is one: the cache's one hit path.
    /// Counts a hit and refreshes the entry's LRU order; never waits, never
    /// computes — an in-flight or absent key is `None`.
    pub fn get_ready(&self, key: u64) -> Option<V> {
        self.ready(&mut self.shared.lock(), key)
    }

    fn ready(&self, inner: &mut CacheInner<V>, key: u64) -> Option<V> {
        let CacheInner { map, tick } = inner;
        let Some(Slot::Ready { value, last_used }) = map.get_mut(&key) else {
            return None;
        };
        *tick += 1;
        *last_used = *tick;
        self.shared.stats.add(Counter::CacheHits, 1);
        Some(value.clone())
    }

    /// The value for `key`, computing it with `compute` on miss. Returns
    /// `(value, hit)`; `hit` is `true` when the value came from the cache —
    /// including when this call coalesced onto another caller's in-flight
    /// computation. A failed `compute` caches nothing and propagates the
    /// error (waiters retry); so does one that panics. A coalesced wait
    /// given `patience` ends at its instant with its error.
    pub fn get_or_try_compute<E>(
        &self,
        key: u64,
        patience: Option<(Instant, E)>,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let s = &*self.shared;
        let mut inner = s.lock();
        loop {
            if let Some(v) = self.ready(&mut inner, key) {
                return Ok((v, true));
            }
            if !inner.map.contains_key(&key) {
                break;
            }
            // Coalesce: park until the computing caller resolves the slot —
            // Ready (a hit) or gone (it failed: loop around and take over).
            inner = match patience.as_ref().map(|(until, _)| *until) {
                None => s.cond.wait(inner).unwrap_or_else(PoisonError::into_inner),
                Some(until) => {
                    let left = until.saturating_duration_since(Instant::now());
                    let (inner, wait) = s
                        .cond
                        .wait_timeout(inner, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    if wait.timed_out() {
                        return Err(patience.expect("a wait with a deadline").1);
                    }
                    inner
                }
            };
        }
        inner.map.insert(key, Slot::InFlight);
        drop(inner);
        s.stats.add(Counter::CacheMisses, 1);

        let marker = InFlight { shared: s, key };
        let v = compute()?;
        let mut inner = s.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Slot::Ready {
                value: v.clone(),
                last_used: tick,
            },
        );
        let evicted = Self::evict_over_capacity(&mut inner, s.capacity);
        if evicted > 0 {
            s.stats.add(Counter::CacheEvictions, evicted);
        }
        drop(inner);
        drop(marker);
        Ok((v, false))
    }

    /// Infallible convenience wrapper around [`Self::get_or_try_compute`].
    pub fn get_or_compute(&self, key: u64, compute: impl FnOnce() -> V) -> (V, bool) {
        match self.get_or_try_compute::<std::convert::Infallible>(key, None, || Ok(compute())) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// Drop least-recently-used ready entries until the bound holds; returns
    /// how many entries were dropped.
    fn evict_over_capacity(inner: &mut CacheInner<V>, capacity: usize) -> u64 {
        let mut evicted = 0;
        loop {
            if inner.map.len() - Self::in_flight_of(inner) <= capacity {
                return evicted;
            }
            let oldest = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*k, *last_used)),
                    Slot::InFlight => None,
                })
                .min_by_key(|&(_, t)| t)
                .map(|(k, _)| k);
            match oldest {
                Some(k) => {
                    inner.map.remove(&k);
                    evicted += 1;
                }
                None => return evicted,
            }
        }
    }
}

impl<V> ResultCache<V> {
    /// `true` if `key` currently has a ready value (does not touch LRU
    /// order or counters).
    pub fn contains(&self, key: u64) -> bool {
        matches!(self.shared.lock().map.get(&key), Some(Slot::Ready { .. }))
    }

    /// Number of ready values currently cached.
    pub fn len(&self) -> usize {
        let inner = self.shared.lock();
        inner.map.len() - Self::in_flight_of(&inner)
    }

    /// Number of computations in flight right now (distinct keys).
    pub fn in_flight(&self) -> usize {
        Self::in_flight_of(&self.shared.lock())
    }

    fn in_flight_of(inner: &CacheInner<V>) -> usize {
        inner
            .map
            .values()
            .filter(|s| matches!(s, Slot::InFlight))
            .count()
    }

    /// `true` if no values are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retention bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Cache hits recorded so far (folded across threads).
    pub fn hits(&self) -> u64 {
        self.shared.stats.snapshot().cache_hits
    }

    /// Cache misses (computations started) recorded so far.
    pub fn misses(&self) -> u64 {
        self.shared.stats.snapshot().cache_misses
    }

    /// Ready values evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.shared.stats.snapshot().cache_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn cache(capacity: usize) -> ResultCache<String> {
        ResultCache::new(capacity, Arc::new(SyncCounters::new()))
    }

    #[test]
    fn fnv1a_is_stable_and_content_sensitive() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"experiment/F2"), fnv1a(b"experiment/F3"));
    }

    #[test]
    fn identical_keys_hit_and_counters_prove_it() {
        let c = cache(8);
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::SeqCst);
            "value".to_string()
        };
        let (v1, hit1) = c.get_or_compute(42, compute);
        let (v2, hit2) = c.get_or_compute(42, compute);
        assert_eq!((v1.as_str(), hit1), ("value", false));
        assert_eq!((v2.as_str(), hit2), ("value", true));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!((c.misses(), c.hits()), (1, 1));
    }

    #[test]
    fn different_keys_miss() {
        let c = cache(8);
        let (_, h1) = c.get_or_compute(1, || "a".into());
        let (_, h2) = c.get_or_compute(2, || "b".into());
        assert!(!h1 && !h2);
        assert_eq!((c.misses(), c.hits()), (2, 0));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let c = cache(2);
        c.get_or_compute(1, || "one".into());
        c.get_or_compute(2, || "two".into());
        // Touch key 1 so key 2 is the LRU entry.
        assert!(c.get_or_compute(1, || unreachable!()).1);
        c.get_or_compute(3, || "three".into());
        assert_eq!(c.len(), 2);
        assert!(c.contains(1) && c.contains(3));
        assert!(!c.contains(2), "LRU entry must be evicted");
        assert_eq!(c.evictions(), 1, "the eviction must be counted");
        // Re-requesting the evicted key recomputes (and evicts again).
        let (_, hit) = c.get_or_compute(2, || "two again".into());
        assert!(!hit);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn concurrent_duplicates_compute_exactly_once() {
        const WAITERS: usize = 8;
        let c = ResultCache::new(8, Arc::new(SyncCounters::new()));
        let runs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let c = c.clone();
                let runs = Arc::clone(&runs);
                thread::spawn(move || {
                    c.get_or_compute(7, move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Hold the in-flight slot long enough that the other
                        // threads observe it and coalesce.
                        thread::sleep(std::time::Duration::from_millis(20));
                        "shared".to_string()
                    })
                })
            })
            .collect();
        let outcomes: Vec<(String, bool)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "must compute exactly once");
        assert!(outcomes.iter().all(|(v, _)| v == "shared"));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), WAITERS as u64 - 1);
        assert_eq!(
            outcomes.iter().filter(|(_, hit)| !hit).count(),
            1,
            "exactly one caller reports a miss"
        );
    }

    #[test]
    fn errors_are_not_cached_and_waiters_retry() {
        let c = cache(8);
        let attempts = AtomicUsize::new(0);
        let r: Result<(String, bool), String> = c.get_or_try_compute(9, None, || {
            attempts.fetch_add(1, Ordering::SeqCst);
            Err("boom".to_string())
        });
        assert_eq!(r.unwrap_err(), "boom");
        assert!(!c.contains(9), "errors must not be cached");
        let (v, hit) = c.get_or_compute(9, || {
            attempts.fetch_add(1, Ordering::SeqCst);
            "recovered".to_string()
        });
        assert_eq!((v.as_str(), hit), ("recovered", false));
        assert_eq!(attempts.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn get_ready_is_a_counted_lru_touching_hit_and_nothing_else() {
        let c = cache(2);
        assert_eq!(c.get_ready(1), None);
        c.get_or_compute(1, || "one".into());
        c.get_or_compute(2, || "two".into());
        // The hit-only lookup refreshes key 1, so key 2 is evicted next.
        assert_eq!(c.get_ready(1).as_deref(), Some("one"));
        c.get_or_compute(3, || "three".into());
        assert!(c.contains(1) && !c.contains(2));
        assert_eq!(c.get_ready(2), None, "an absent key is not computed");
        assert_eq!((c.misses(), c.hits()), (3, 1));
    }

    #[test]
    fn a_panicking_computation_leaves_no_marker_and_its_waiter_takes_over() {
        let c = cache(8);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let c1 = c.clone();
        let panicking = thread::spawn(move || {
            c1.get_or_compute(9, move || {
                started_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                panic!("boom in compute");
            })
        });
        started_rx.recv().unwrap();
        assert_eq!(c.in_flight(), 1);
        assert_eq!(c.get_ready(9), None, "an in-flight key is not ready");
        let c2 = c.clone();
        let waiter = thread::spawn(move || c2.get_or_compute(9, || "recovered".to_string()));
        go_tx.send(()).unwrap();
        assert!(panicking.join().is_err(), "the panic reaches its caller");
        // Whether it had coalesced already or arrives after the unwind, the
        // second caller finds no marker to wait on for ever and computes.
        assert_eq!(waiter.join().unwrap(), ("recovered".to_string(), false));
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn in_flight_entries_survive_eviction_pressure() {
        let c = ResultCache::new(1, Arc::new(SyncCounters::new()));
        let c2 = c.clone();
        let slow = thread::spawn(move || {
            c2.get_or_compute(100, || {
                thread::sleep(std::time::Duration::from_millis(30));
                "slow".to_string()
            })
        });
        // Let the slow computation claim its in-flight slot, then churn the
        // cache past capacity while it runs.
        thread::sleep(std::time::Duration::from_millis(5));
        for k in 0..5 {
            c.get_or_compute(k, || format!("v{k}"));
        }
        let (v, hit) = slow.join().unwrap();
        assert_eq!((v.as_str(), hit), ("slow", false));
        assert!(c.contains(100), "freshly computed value must be retained");
    }
}
