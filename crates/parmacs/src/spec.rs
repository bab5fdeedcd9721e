//! Memory-ordering specifications for the lock-free constructs.
//!
//! Every atomic operation the Splash-4 back-ends perform is named here, with
//! the `std::sync::atomic::Ordering` it uses. The primitives
//! ([`crate::queue::TreiberStack`], [`crate::barrier::SenseBarrier`],
//! [`crate::reduce::AtomicF64`], [`crate::flag::AtomicFlag`],
//! [`crate::counter::IndexCounter`], [`crate::combining::CombiningCore`],
//! [`crate::queue::BoundedMpmcQueue`]) hand their table to
//! [`Atomics::spec`](crate::atomics::Atomics::spec) instead of hard-coding
//! orderings: production gets the constant back, and the `splash4-check`
//! model checker, which runs the same primitives over its own `Atomics`,
//! the table a scenario installed. That closes the loop: if a future edit
//! weakens an ordering here, the checker's race detector fails on the next
//! `V1-check` run; if a mutation test overrides a field (e.g. `pop_load:
//! Relaxed`), it explores the shipped construct with that ordering changed.
//! The reclamation and `cmap` tables reach `splash4-reclaim`'s pools and
//! reclaimers and `splash4-kernels`' `LockFreeMap` the same way.
//!
//! Not every ordering downgrade surfaces as a data race: weakening a
//! `SeqCst` fence-pair to `Acquire`/`Release`, or an `Acquire` spin to
//! `Relaxed`, changes only which *values* a load on the atomic itself may
//! return — no plain data becomes unordered, so interleaving search over
//! sequentially consistent executions cannot tell the difference. The
//! checker's `W1-weakmem` experiment covers that blind spot: under its weak
//! memory model the engine also branches over the stale reads the shipped
//! orderings admit, so spec fields documented as "`SeqCst` because ..." or
//! "`Acquire` because ..." below are pinned by a second, value-level line
//! of defense.

use std::sync::atomic::Ordering;

/// Orderings used by the Treiber stack (`queue::TreiberStack`).
#[derive(Debug, Clone, Copy)]
pub struct TreiberSpec {
    /// Initial head load in `push` (the CAS validates it, so `Relaxed`).
    pub push_load: Ordering,
    /// Success ordering of the publishing CAS in `push`.
    pub push_cas_ok: Ordering,
    /// Failure ordering of the publishing CAS in `push`.
    pub push_cas_fail: Ordering,
    /// Initial head load in `pop`. Must be `Acquire`: the popped node's
    /// fields (`next`, `value`) are plain data published by the push CAS.
    pub pop_load: Ordering,
    /// Success ordering of the unlinking CAS in `pop`.
    pub pop_cas_ok: Ordering,
    /// Failure ordering of the unlinking CAS in `pop` (the reloaded head is
    /// dereferenced on the next iteration, so `Acquire`).
    pub pop_cas_fail: Ordering,
    /// Initial load of the retired-list head (the CAS validates it).
    pub retire_load: Ordering,
    /// Success ordering of the CAS that links a popped node onto the
    /// retired list.
    pub retire_cas_ok: Ordering,
    /// Failure ordering of the retire CAS.
    pub retire_cas_fail: Ordering,
}

impl TreiberSpec {
    /// The orderings the Splash-4 stack ships with.
    pub const SPLASH4: TreiberSpec = TreiberSpec {
        push_load: Ordering::Relaxed,
        push_cas_ok: Ordering::AcqRel,
        push_cas_fail: Ordering::Acquire,
        pop_load: Ordering::Acquire,
        pop_cas_ok: Ordering::AcqRel,
        pop_cas_fail: Ordering::Acquire,
        retire_load: Ordering::Relaxed,
        retire_cas_ok: Ordering::AcqRel,
        retire_cas_fail: Ordering::Relaxed,
    };
}

/// Orderings used by the sense-reversing barrier (`barrier::SenseBarrier`).
#[derive(Debug, Clone, Copy)]
pub struct SenseBarrierSpec {
    /// Read of the generation before arriving.
    pub generation_load: Ordering,
    /// The arrival `fetch_add` on the central counter.
    pub arrive_rmw: Ordering,
    /// The winner's reset of the arrival counter.
    pub arrived_reset: Ordering,
    /// The winner's generation bump that releases the episode.
    pub generation_bump: Ordering,
    /// The waiters' spin load on the generation. Must be `Acquire` to pair
    /// with the bump: a `Relaxed` spin may observe the bump yet read
    /// pre-episode data — caught only by `W1-weakmem`'s stale-value search
    /// (`barrier-spin-relaxed`), not by interleaving-only exploration.
    pub spin_load: Ordering,
}

impl SenseBarrierSpec {
    /// The orderings the Splash-4 barrier ships with.
    pub const SPLASH4: SenseBarrierSpec = SenseBarrierSpec {
        generation_load: Ordering::Acquire,
        arrive_rmw: Ordering::AcqRel,
        arrived_reset: Ordering::Relaxed,
        generation_bump: Ordering::AcqRel,
        spin_load: Ordering::Acquire,
    };
}

/// Orderings used by the CAS-loop f64 cell (`reduce::AtomicF64`).
#[derive(Debug, Clone, Copy)]
pub struct CasF64Spec {
    /// Initial load of the bit pattern (the CAS validates it).
    pub load: Ordering,
    /// Success ordering of the update CAS.
    pub cas_ok: Ordering,
    /// Failure ordering of the update CAS.
    pub cas_fail: Ordering,
    /// A reader's load of the accumulated value.
    pub value_load: Ordering,
    /// An overwrite of the value (between phases).
    pub value_store: Ordering,
}

impl CasF64Spec {
    /// The orderings the Splash-4 reduction ships with.
    pub const SPLASH4: CasF64Spec = CasF64Spec {
        load: Ordering::Relaxed,
        cas_ok: Ordering::AcqRel,
        cas_fail: Ordering::Relaxed,
        value_load: Ordering::Acquire,
        value_store: Ordering::Release,
    };
}

/// Orderings used by the `fetch_add` integer cell of the Splash-4
/// reduction (`reduce::Reducer`).
#[derive(Debug, Clone, Copy)]
pub struct SumU64Spec {
    /// The contributing `fetch_add`.
    pub add_rmw: Ordering,
    /// A reader's load of the accumulated value.
    pub value_load: Ordering,
    /// An overwrite of the value (between phases).
    pub value_store: Ordering,
}

impl SumU64Spec {
    /// The orderings the Splash-4 reduction ships with.
    pub const SPLASH4: SumU64Spec = SumU64Spec {
        add_rmw: Ordering::AcqRel,
        value_load: Ordering::Acquire,
        value_store: Ordering::Release,
    };
}

/// Orderings used by the atomic pause variable (`flag::AtomicFlag`).
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// The producer's `set` store. Must be `Release`: data written before
    /// `set` must be visible to a waiter after `wait`. The `W1-weakmem`
    /// mutant `flag-set-relaxed` demonstrates the stale-payload window a
    /// `Relaxed` store opens.
    pub set_store: Ordering,
    /// The consumer's `wait`/`is_set` load. Must be `Acquire` to pair with
    /// `set_store` (`W1-weakmem` mutant `flag-wait-relaxed`).
    pub wait_load: Ordering,
    /// The reset store of `clear` (between phases, under external
    /// quiescence).
    pub clear_store: Ordering,
}

impl FlagSpec {
    /// The orderings the Splash-4 flag ships with.
    pub const SPLASH4: FlagSpec = FlagSpec {
        set_store: Ordering::Release,
        wait_load: Ordering::Acquire,
        clear_store: Ordering::Release,
    };
}

/// Orderings used by the `fetch_add` arm of the index counter
/// (`counter::IndexCounter`).
///
/// `Relaxed` is correct for the claim itself: each grabbed index is
/// independent and the task data is immutable and published before the team
/// starts (a barrier separates construction from distribution).
#[derive(Debug, Clone, Copy)]
pub struct TicketSpec {
    /// The claiming `fetch_add`.
    pub claim_rmw: Ordering,
    /// The cursor store of `reset` (between barrier-separated phases).
    pub reset_store: Ordering,
    /// The CAS that pulls an overshot cursor back to the range end, both
    /// outcomes: bookkeeping that publishes nothing.
    pub clamp_cas: Ordering,
}

impl TicketSpec {
    /// The orderings the Splash-4 counter ships with.
    pub const SPLASH4: TicketSpec = TicketSpec {
        claim_rmw: Ordering::Relaxed,
        reset_store: Ordering::Release,
        clamp_cas: Ordering::Relaxed,
    };
}

/// Orderings used by epoch-based reclamation (`splash4-reclaim`'s
/// `EpochReclaimer`).
///
/// The invariant the orderings protect: a thread that observed epoch `e`
/// while pinned can still hold references retired in `e` or `e - 1`, so a
/// retired node is only freed once the global epoch has advanced two steps
/// past its retirement epoch with every pinned thread having announced the
/// newer epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochSpec {
    /// A pinning thread's read of the global epoch. `SeqCst`: the
    /// announcement below must not appear to predate a concurrent advance.
    /// Downgrading it to `Acquire` opens a store-buffering window between
    /// the announcement and the collector's scan — no data race, invisible
    /// to SC interleaving search, caught by the `W1-weakmem` mutant
    /// `epoch-pin-load-acquire`.
    pub global_load: Ordering,
    /// The pin announcement store into the thread's epoch slot. `SeqCst`
    /// orders it against the collector's slot scan — with anything weaker
    /// the scan can miss a freshly pinned thread and free under it.
    pub announce_store: Ordering,
    /// The unpin store of the quiescent sentinel (also when the thread's
    /// record is vacated).
    pub quiesce_store: Ordering,
    /// The collector's scan load of each announcement slot. `SeqCst` for
    /// the same store-buffering reason as `global_load` (`W1-weakmem`
    /// mutant `epoch-scan-acquire`).
    pub scan_load: Ordering,
    /// The re-read a pool makes of a pointer after `protect`. The pin, not
    /// this load, is what protects under epochs, so it only has to acquire
    /// what the pointer load before it did.
    pub validate_load: Ordering,
    /// The CAS that advances the global epoch.
    pub advance_cas_ok: Ordering,
    /// Failure ordering of the advance CAS (another collector advanced).
    pub advance_cas_fail: Ordering,
}

impl EpochSpec {
    /// The orderings the Splash-4 epoch reclaimer ships with.
    pub const SPLASH4: EpochSpec = EpochSpec {
        global_load: Ordering::SeqCst,
        announce_store: Ordering::SeqCst,
        quiesce_store: Ordering::Release,
        scan_load: Ordering::SeqCst,
        validate_load: Ordering::Acquire,
        advance_cas_ok: Ordering::AcqRel,
        advance_cas_fail: Ordering::Acquire,
    };
}

/// Orderings used by hazard-pointer reclamation (`splash4-reclaim`'s
/// `HazardReclaimer`).
///
/// The publish/validate pair is the load-bearing half of Michael's protocol:
/// the hazard store must be globally visible before the pointer is re-read,
/// or a concurrent scan can miss the hazard and free the protected node.
#[derive(Debug, Clone, Copy)]
pub struct HazardSpec {
    /// The hazard publication store. `SeqCst` — see the struct docs.
    pub publish_store: Ordering,
    /// The re-read that validates the protected pointer is still reachable
    /// (the pools' re-reads of `head`, `tail` and the exchange slot, with
    /// the ordering `protect` hands them).
    /// `SeqCst`: an `Acquire` validate may be satisfied by a stale
    /// pre-retirement value, letting use and free overlap (`W1-weakmem`
    /// mutant `hazard-validate-acquire`).
    pub validate_load: Ordering,
    /// The hazard clear after the protected region ends, or when the
    /// thread's record is vacated.
    pub clear_store: Ordering,
    /// The reclaimer's scan load of every hazard slot.
    pub scan_load: Ordering,
}

impl HazardSpec {
    /// The orderings the Splash-4 hazard reclaimer ships with.
    pub const SPLASH4: HazardSpec = HazardSpec {
        publish_store: Ordering::SeqCst,
        validate_load: Ordering::SeqCst,
        clear_store: Ordering::Release,
        scan_load: Ordering::SeqCst,
    };
}

/// Orderings used by the Michael-Scott queue (`splash4-reclaim`'s
/// `MsQueue`).
#[derive(Debug, Clone, Copy)]
pub struct MsQueueSpec {
    /// Loads of `head`/`tail` at the top of each attempt. `Acquire`: the
    /// loaded node's `next` field and value cell are dereferenced.
    pub ptr_load: Ordering,
    /// Load of a node's `next` pointer.
    pub next_load: Ordering,
    /// The enqueue link CAS on `tail.next` — the linearization point of
    /// `push`; `AcqRel` publishes the new node's fields.
    pub link_cas_ok: Ordering,
    /// Failure ordering of the link CAS (the loaded `next` is chased).
    pub link_cas_fail: Ordering,
    /// The helping tail-swing CAS (both in push and pop). `Release` would
    /// suffice for correctness; `AcqRel` keeps the helping path symmetric.
    pub tail_swing_ok: Ordering,
    /// Failure ordering of the tail swing.
    pub tail_swing_fail: Ordering,
    /// The dequeue head CAS — the linearization point of `pop`.
    pub head_cas_ok: Ordering,
    /// Failure ordering of the head CAS.
    pub head_cas_fail: Ordering,
}

impl MsQueueSpec {
    /// The orderings the Splash-4 queue ships with.
    pub const SPLASH4: MsQueueSpec = MsQueueSpec {
        ptr_load: Ordering::Acquire,
        next_load: Ordering::Acquire,
        link_cas_ok: Ordering::AcqRel,
        link_cas_fail: Ordering::Acquire,
        tail_swing_ok: Ordering::AcqRel,
        tail_swing_fail: Ordering::Relaxed,
        head_cas_ok: Ordering::AcqRel,
        head_cas_fail: Ordering::Acquire,
    };
}

/// Orderings used by the elimination slot of the elimination-backoff stack
/// (`splash4-reclaim`'s `EliminationStack`; the base stack reuses
/// [`TreiberSpec`]).
#[derive(Debug, Clone, Copy)]
pub struct EliminationSpec {
    /// A popper's read of the exchange slot. `Acquire`: a successful take
    /// dereferences the offered node.
    pub slot_load: Ordering,
    /// The pusher's install CAS offering its node.
    pub install_cas_ok: Ordering,
    /// Failure ordering of the install CAS.
    pub install_cas_fail: Ordering,
    /// The pusher's withdraw CAS (slot back to empty). Failure means a
    /// popper took the node — the exchange linearizes there.
    pub withdraw_cas_ok: Ordering,
    /// Failure ordering of the withdraw CAS.
    pub withdraw_cas_fail: Ordering,
    /// The popper's take CAS claiming the offered node.
    pub take_cas_ok: Ordering,
    /// Failure ordering of the take CAS.
    pub take_cas_fail: Ordering,
    /// A pusher's store of its still unpublished node's link (the head CAS
    /// releases it).
    pub next_store: Ordering,
    /// A popper's load of the head node's link (the head load acquired the
    /// node, the head CAS validates the link).
    pub next_load: Ordering,
}

impl EliminationSpec {
    /// The orderings the Splash-4 elimination stack ships with.
    pub const SPLASH4: EliminationSpec = EliminationSpec {
        slot_load: Ordering::Acquire,
        install_cas_ok: Ordering::AcqRel,
        install_cas_fail: Ordering::Acquire,
        withdraw_cas_ok: Ordering::AcqRel,
        withdraw_cas_fail: Ordering::Acquire,
        take_cas_ok: Ordering::AcqRel,
        take_cas_fail: Ordering::Acquire,
        next_store: Ordering::Relaxed,
        next_load: Ordering::Relaxed,
    };
}

/// Orderings used by the concurrent keyed map (`splash4-kernels`' `cmap`
/// workload): a Harris–Michael bucket list with mark-bit logical deletion
/// and epoch-protected traversal.
///
/// The load-bearing edges: the link CAS publishes the new node's plain
/// `key` field (so every pointer load that may dereference must acquire),
/// and the mark CAS must be `AcqRel` so an unlink that observes the mark
/// also observes everything the remover did before it.
#[derive(Debug, Clone, Copy)]
pub struct CMapSpec {
    /// Load of a bucket head at the top of a traversal. `Acquire`: the
    /// loaded node's `key` and `next` fields are dereferenced.
    pub head_load: Ordering,
    /// Load of a node's `next` pointer while walking a bucket chain.
    pub next_load: Ordering,
    /// The insert link CAS (on the head or a predecessor's `next`) — the
    /// linearization point of `insert`; `AcqRel` publishes the node.
    pub link_cas_ok: Ordering,
    /// Failure ordering of the link CAS (the reloaded pointer is chased).
    pub link_cas_fail: Ordering,
    /// The logical-delete CAS that sets the mark bit on the victim's
    /// `next` — the linearization point of `remove`.
    pub mark_cas_ok: Ordering,
    /// Failure ordering of the mark CAS.
    pub mark_cas_fail: Ordering,
    /// The physical unlink CAS that snips a marked node out of the chain
    /// (performed by the remover or by any helping traversal).
    pub unlink_cas_ok: Ordering,
    /// Failure ordering of the unlink CAS.
    pub unlink_cas_fail: Ordering,
    /// Store of a live node's value cell on key update.
    pub value_store: Ordering,
    /// Load of a node's value cell on lookup.
    pub value_load: Ordering,
}

impl CMapSpec {
    /// The orderings the Splash-4 concurrent map ships with.
    pub const SPLASH4: CMapSpec = CMapSpec {
        head_load: Ordering::Acquire,
        next_load: Ordering::Acquire,
        link_cas_ok: Ordering::AcqRel,
        link_cas_fail: Ordering::Acquire,
        mark_cas_ok: Ordering::AcqRel,
        mark_cas_fail: Ordering::Acquire,
        unlink_cas_ok: Ordering::AcqRel,
        unlink_cas_fail: Ordering::Acquire,
        value_store: Ordering::Release,
        value_load: Ordering::Acquire,
    };
}

/// Orderings used by the bounded MPMC ring (`queue::BoundedMpmcQueue`) —
/// the lock-free stage queue of the `stream` pipeline workload and the
/// serve subsystem's job queue.
///
/// The slot sequence number doubles as the payload's publication fence:
/// [`RingSpec::publish_store`] must release the payload write and
/// [`RingSpec::seq_load`] must acquire it, or a consumer can read a slot
/// before the producer's value lands (and vice versa one lap later).
#[derive(Debug, Clone, Copy)]
pub struct RingSpec {
    /// Load of a slot's sequence number when probing it for this ticket.
    pub seq_load: Ordering,
    /// Load of the shared enqueue/dequeue cursor (the CAS validates it).
    pub cursor_load: Ordering,
    /// Success ordering of the cursor-claim CAS (slot ownership only; the
    /// seq handoff carries the payload, so `Relaxed`).
    pub cursor_cas_ok: Ordering,
    /// Failure ordering of the cursor-claim CAS.
    pub cursor_cas_fail: Ordering,
    /// The sequence-number store that publishes a filled (or recycled)
    /// slot to the other side.
    pub publish_store: Ordering,
}

impl RingSpec {
    /// The orderings the Splash-4 ring ships with.
    pub const SPLASH4: RingSpec = RingSpec {
        seq_load: Ordering::Acquire,
        cursor_load: Ordering::Relaxed,
        cursor_cas_ok: Ordering::Relaxed,
        cursor_cas_fail: Ordering::Relaxed,
        publish_store: Ordering::Release,
    };
}

/// Orderings used by the flat-combining core (`combining::CombiningCore`)
/// that backs the Splash-4x (`SyncMode::Combining`) counters, reductions
/// and barrier arrival phase.
///
/// The protocol has two publication edges the orderings must keep intact:
///
/// 1. *Request publication*: a thread writes its argument into its record
///    (plain data) and then publishes the opcode with
///    [`CombiningSpec::publish_store`];
///    the combiner's [`CombiningSpec::scan_load`] acquires it before reading
///    the argument. Weakening either side is the "lost publication record"
///    family of bugs.
/// 2. *Result handoff*: the combiner writes the result (plain data), then
///    marks the record complete with [`CombiningSpec::complete_store`]; the waiter's
///    [`CombiningSpec::wait_load`] acquires the completion before reading
///    the result. Weakening either side is the "stale result handoff"
///    family.
#[derive(Debug, Clone, Copy)]
pub struct CombiningSpec {
    /// Success ordering of the combiner-lock CAS. `Acquire`: the new
    /// combiner reads the protected state the previous combiner wrote.
    pub lock_cas_ok: Ordering,
    /// Failure ordering of the combiner-lock CAS (the loser just spins).
    pub lock_cas_fail: Ordering,
    /// The opcode store that publishes the record to the combiner.
    pub publish_store: Ordering,
    /// The combiner's scan load of each record's opcode.
    pub scan_load: Ordering,
    /// The combiner's completion store (opcode back to empty) that releases
    /// the result to the waiting thread.
    pub complete_store: Ordering,
    /// The waiter's spin load on its record's opcode.
    pub wait_load: Ordering,
    /// The combiner's release store of the combiner lock.
    pub lock_release: Ordering,
    /// Success ordering of the CAS that claims a publication record.
    /// `Acquire`: the claimant overwrites the argument and result the
    /// previous owner was still reading when it released the record.
    pub claim_cas_ok: Ordering,
    /// Failure ordering of the claim CAS (the loser probes the next record).
    pub claim_cas_fail: Ordering,
    /// The owner's store that frees its record after reading the result.
    pub claim_release: Ordering,
}

impl CombiningSpec {
    /// The orderings the Splash-4x combining core ships with.
    pub const SPLASH4X: CombiningSpec = CombiningSpec {
        lock_cas_ok: Ordering::Acquire,
        lock_cas_fail: Ordering::Relaxed,
        publish_store: Ordering::Release,
        scan_load: Ordering::Acquire,
        complete_store: Ordering::Release,
        wait_load: Ordering::Acquire,
        lock_release: Ordering::Release,
        claim_cas_ok: Ordering::Acquire,
        claim_cas_fail: Ordering::Relaxed,
        claim_release: Ordering::Release,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_combining_spec_keeps_both_publication_edges() {
        // Request publication: publish must release the argument write and
        // the scan must acquire it, or the combiner reads a half-built
        // record (the lost-publication mutant).
        assert_eq!(CombiningSpec::SPLASH4X.publish_store, Ordering::Release);
        assert_eq!(CombiningSpec::SPLASH4X.scan_load, Ordering::Acquire);
        // Result handoff: completion must release the result store and the
        // waiter must acquire it (the stale-result mutant).
        assert_eq!(CombiningSpec::SPLASH4X.complete_store, Ordering::Release);
        assert_eq!(CombiningSpec::SPLASH4X.wait_load, Ordering::Acquire);
        // Combiner handoff: state written by the previous combiner must be
        // visible to the next.
        assert_eq!(CombiningSpec::SPLASH4X.lock_cas_ok, Ordering::Acquire);
        assert_eq!(CombiningSpec::SPLASH4X.lock_release, Ordering::Release);
    }

    #[test]
    fn shipped_specs_have_safe_cas_orderings() {
        // compare_exchange requires failure ordering without Release and the
        // shipped specs must keep the publication edges strong enough for the
        // checker's race model: pop_load acquires, set_store releases.
        assert_eq!(TreiberSpec::SPLASH4.pop_load, Ordering::Acquire);
        assert_eq!(TreiberSpec::SPLASH4.pop_cas_fail, Ordering::Acquire);
        assert_eq!(FlagSpec::SPLASH4.set_store, Ordering::Release);
        assert_eq!(FlagSpec::SPLASH4.wait_load, Ordering::Acquire);
        assert_eq!(SenseBarrierSpec::SPLASH4.generation_bump, Ordering::AcqRel);
        assert_eq!(CasF64Spec::SPLASH4.cas_ok, Ordering::AcqRel);
    }

    #[test]
    fn shipped_reclaim_specs_keep_publication_and_scan_edges() {
        // The reclamation protocols are only safe with sequentially
        // consistent publish/scan pairs (Dekker-style visibility): a pin
        // announcement or hazard publication that can be reordered past the
        // protected load is exactly the premature-free mutant the checker
        // catches.
        assert_eq!(EpochSpec::SPLASH4.announce_store, Ordering::SeqCst);
        assert_eq!(EpochSpec::SPLASH4.scan_load, Ordering::SeqCst);
        assert_eq!(HazardSpec::SPLASH4.publish_store, Ordering::SeqCst);
        assert_eq!(HazardSpec::SPLASH4.validate_load, Ordering::SeqCst);
        assert_eq!(HazardSpec::SPLASH4.scan_load, Ordering::SeqCst);
        // Queue/stack nodes carry plain-data payloads: the linearizing CAS
        // must publish them and the pointer loads must acquire them.
        assert_eq!(MsQueueSpec::SPLASH4.link_cas_ok, Ordering::AcqRel);
        assert_eq!(MsQueueSpec::SPLASH4.ptr_load, Ordering::Acquire);
        assert_eq!(MsQueueSpec::SPLASH4.next_load, Ordering::Acquire);
        assert_eq!(EliminationSpec::SPLASH4.install_cas_ok, Ordering::AcqRel);
        assert_eq!(EliminationSpec::SPLASH4.take_cas_ok, Ordering::AcqRel);
    }

    #[test]
    fn shipped_family_specs_keep_publication_edges() {
        // cmap: the link CAS publishes the node's plain key field; every
        // pointer load that may dereference must acquire it.
        assert_eq!(CMapSpec::SPLASH4.link_cas_ok, Ordering::AcqRel);
        assert_eq!(CMapSpec::SPLASH4.head_load, Ordering::Acquire);
        assert_eq!(CMapSpec::SPLASH4.next_load, Ordering::Acquire);
        assert_eq!(CMapSpec::SPLASH4.mark_cas_ok, Ordering::AcqRel);
        // stream ring: the seq store/load pair is the payload handoff.
        assert_eq!(RingSpec::SPLASH4.publish_store, Ordering::Release);
        assert_eq!(RingSpec::SPLASH4.seq_load, Ordering::Acquire);
    }
}
