//! Pins the sync-counter table: every counter's slot, its `SyncProfile`
//! field, its JSON key and the key order, and its kind, which decides
//! whether `SyncProfile::logical` returns it. The table is written out by
//! hand here so that a slip in the code that generates it shows.

use splash4_parmacs::{Counter, Json, SyncCounters, SyncProfile, ToJson};
use Kind::{Logical, Mechanism};

/// What a counter counts: what the program asked for, or what the
/// schedule did.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Logical,
    Mechanism,
}

/// The counters in slot order, each with its JSON key and kind.
const TABLE: [(Counter, &str, Kind); 21] = [
    (Counter::LockAcquires, "lock_acquires", Mechanism),
    (Counter::LockContended, "lock_contended", Mechanism),
    (Counter::LockWaitNs, "lock_wait_ns", Mechanism),
    (Counter::BarrierWaits, "barrier_waits", Logical),
    (Counter::BarrierWaitNs, "barrier_wait_ns", Mechanism),
    (Counter::AtomicRmws, "atomic_rmws", Mechanism),
    (Counter::GetsubCalls, "getsub_calls", Logical),
    (Counter::ReduceOps, "reduce_ops", Logical),
    (Counter::FlagWaits, "flag_waits", Mechanism),
    (Counter::FlagWaitNs, "flag_wait_ns", Mechanism),
    (Counter::QueueOps, "queue_ops", Logical),
    (Counter::CasFailures, "cas_failures", Mechanism),
    (Counter::CacheHits, "cache_hits", Mechanism),
    (Counter::CacheMisses, "cache_misses", Mechanism),
    (Counter::CacheEvictions, "cache_evictions", Mechanism),
    (Counter::ReclaimRetires, "reclaim_retires", Logical),
    (Counter::ReclaimScans, "reclaim_scans", Mechanism),
    (Counter::ReclaimFrees, "reclaim_frees", Mechanism),
    (Counter::CombineOps, "combine_ops", Logical),
    (Counter::CombineBatches, "combine_batches", Mechanism),
    (Counter::FlagSets, "flag_sets", Logical),
];

/// Every field of `p`, read by name, in slot order.
fn fields(p: &SyncProfile) -> [u64; 21] {
    [
        p.lock_acquires,
        p.lock_contended,
        p.lock_wait_ns,
        p.barrier_waits,
        p.barrier_wait_ns,
        p.atomic_rmws,
        p.getsub_calls,
        p.reduce_ops,
        p.flag_waits,
        p.flag_wait_ns,
        p.queue_ops,
        p.cas_failures,
        p.cache_hits,
        p.cache_misses,
        p.cache_evictions,
        p.reclaim_retires,
        p.reclaim_scans,
        p.reclaim_frees,
        p.combine_ops,
        p.combine_batches,
        p.flag_sets,
    ]
}

/// A snapshot whose slot `i` holds `value(i)`.
fn profile_of(value: impl Fn(u64) -> u64) -> SyncProfile {
    let c = SyncCounters::new();
    for (i, (counter, _, _)) in (0..).zip(TABLE) {
        c.add(counter, value(i));
    }
    c.snapshot()
}

#[test]
fn one_bump_sets_exactly_its_own_field() {
    assert_eq!(Counter::ALL, TABLE.map(|(c, _, _)| c));
    for (i, (counter, _, _)) in TABLE.into_iter().enumerate() {
        assert_eq!(counter as usize, i, "{counter:?} names slot {i}");
        let c = SyncCounters::new();
        c.bump(counter);
        let mut want = [0; 21];
        want[i] = 1;
        assert_eq!(fields(&c.snapshot()), want, "{counter:?}");
    }
}

#[test]
fn json_keys_are_the_field_names_in_slot_order() {
    let p = profile_of(|i| 100 + i);
    let Json::Object(pairs) = p.to_json() else {
        panic!("a profile serializes to an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "lock_acquires",
            "lock_contended",
            "lock_wait_ns",
            "barrier_waits",
            "barrier_wait_ns",
            "atomic_rmws",
            "getsub_calls",
            "reduce_ops",
            "flag_waits",
            "flag_wait_ns",
            "queue_ops",
            "cas_failures",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "reclaim_retires",
            "reclaim_scans",
            "reclaim_frees",
            "combine_ops",
            "combine_batches",
            "flag_sets",
        ]
    );
    assert_eq!(keys, TABLE.map(|(_, k, _)| k));
    let values: Vec<u64> = pairs.iter().map(|(_, v)| v.as_u64().unwrap()).collect();
    assert_eq!(values, fields(&p));
}

#[test]
fn logical_returns_the_logical_rows_in_slot_order() {
    let p = profile_of(|i| 100 + i);
    let want: Vec<(&str, u64)> = (100..)
        .zip(TABLE)
        .filter(|(_, (_, _, kind))| *kind == Logical)
        .map(|(n, (_, key, _))| (key, n))
        .collect();
    assert_eq!(p.logical(), want);
    assert_eq!(want.len(), 7);
}
