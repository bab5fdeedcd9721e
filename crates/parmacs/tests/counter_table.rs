//! Pins the sync-counter table: every counter's slot, its `SyncProfile`
//! field, its JSON key and the key order, and the field-by-field `merged`
//! and `delta`. The table is written out by hand here so that a slip in the
//! code that generates it shows.

use splash4_parmacs::{Counter, Json, SyncCounters, SyncProfile, ToJson};

/// The counters in slot order, each with its JSON key.
const TABLE: [(Counter, &str); 20] = [
    (Counter::LockAcquires, "lock_acquires"),
    (Counter::LockContended, "lock_contended"),
    (Counter::LockWaitNs, "lock_wait_ns"),
    (Counter::BarrierWaits, "barrier_waits"),
    (Counter::BarrierWaitNs, "barrier_wait_ns"),
    (Counter::AtomicRmws, "atomic_rmws"),
    (Counter::GetsubCalls, "getsub_calls"),
    (Counter::ReduceOps, "reduce_ops"),
    (Counter::FlagWaits, "flag_waits"),
    (Counter::FlagWaitNs, "flag_wait_ns"),
    (Counter::QueueOps, "queue_ops"),
    (Counter::CasFailures, "cas_failures"),
    (Counter::CacheHits, "cache_hits"),
    (Counter::CacheMisses, "cache_misses"),
    (Counter::CacheEvictions, "cache_evictions"),
    (Counter::ReclaimRetires, "reclaim_retires"),
    (Counter::ReclaimScans, "reclaim_scans"),
    (Counter::ReclaimFrees, "reclaim_frees"),
    (Counter::CombineOps, "combine_ops"),
    (Counter::CombineBatches, "combine_batches"),
];

/// Every field of `p`, read by name, in slot order.
fn fields(p: &SyncProfile) -> [u64; 20] {
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
    ]
}

/// A snapshot whose slot `i` holds `value(i)`.
fn profile_of(value: impl Fn(u64) -> u64) -> SyncProfile {
    let c = SyncCounters::new();
    for (i, (counter, _)) in (0..).zip(TABLE) {
        c.add(counter, value(i));
    }
    c.snapshot()
}

#[test]
fn one_bump_sets_exactly_its_own_field() {
    assert_eq!(Counter::ALL, TABLE.map(|(c, _)| c));
    for (i, (counter, _)) in TABLE.into_iter().enumerate() {
        assert_eq!(counter as usize, i, "{counter:?} names slot {i}");
        let c = SyncCounters::new();
        c.bump(counter);
        let mut want = [0; 20];
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
        ]
    );
    assert_eq!(keys, TABLE.map(|(_, k)| k));
    let values: Vec<u64> = pairs.iter().map(|(_, v)| v.as_u64().unwrap()).collect();
    assert_eq!(values, fields(&p));
}

#[test]
fn merged_and_delta_act_field_by_field() {
    let a = profile_of(|i| 10 * i + 3);
    let b = profile_of(|i| if i % 2 == 0 { 7 * i } else { 1000 });
    let (fa, fb) = (fields(&a), fields(&b));
    let (m, d) = (fields(&a.merged(&b)), fields(&a.delta(&b)));
    for i in 0..20 {
        assert_eq!(m[i], fa[i] + fb[i], "merged slot {i}");
        assert_eq!(d[i], fa[i].saturating_sub(fb[i]), "delta slot {i}");
    }
    // Both kinds of slot occur: one that subtracts, one that saturates.
    assert!(d.iter().any(|&x| x > 0) && d.contains(&0));
}
