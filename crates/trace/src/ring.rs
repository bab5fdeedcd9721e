//! Single-producer single-consumer event ring.
//!
//! The recorder gives each traced thread one of these. The producer side
//! ([`SpscRing::push`]) is wait-free: it claims the producer flag, writes a
//! slot and publishes it with one release store; a full ring, or a flag
//! already held by another producer, costs a relaxed drop-count increment
//! instead of any form of waiting. The consumer side ([`SpscRing::drain`])
//! is the recorder's `finish`; producer and consumer never contend on a
//! cursor.

use crate::Stamped;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Fixed-capacity SPSC ring of [`Stamped`] events with drop counting.
///
/// Cursor discipline: `head` is written only by the producer, `tail` only by
/// the consumer; each side reads the other's cursor with acquire ordering.
/// One producer at a time is enforced, not assumed: `push` runs only while
/// it holds `producing`, and a second thread that pushes meanwhile drops its
/// event. One consumer at a time is the recorder's discipline, which is why
/// the type is private to this crate: only the recorder's `finish`, which
/// owns the recorder, drains.
pub(crate) struct SpscRing {
    slots: Box<[UnsafeCell<MaybeUninit<Stamped>>]>,
    mask: usize,
    /// Next slot the producer writes. Monotonic (not wrapped).
    head: AtomicUsize,
    /// Next slot the consumer reads. Monotonic (not wrapped).
    tail: AtomicUsize,
    /// Held by the thread inside `push`.
    producing: AtomicBool,
    dropped: AtomicU64,
}

// SAFETY: slot access is partitioned by the head/tail cursors — the producer
// only writes slots in `head..tail + capacity`, the consumer only reads
// `tail..head`, and cursor publication uses release/acquire pairs. The
// producer side is exclusive: `push` touches `head` and the slots only
// between winning `producing` (acquire, so it sees the previous holder's
// writes) and releasing it, so two threads recording under one tid never
// write one slot or one cursor at once.
unsafe impl Sync for SpscRing {}

impl SpscRing {
    /// Ring with at least `capacity` slots (rounded up to a power of two,
    /// minimum 2).
    pub(crate) fn new(capacity: usize) -> SpscRing {
        let cap = capacity.max(2).next_power_of_two();
        SpscRing {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            producing: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events discarded because the ring was full, or another thread was
    /// pushing, at push time.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Producer side: append `v`, or count a drop if the ring is full or
    /// another thread is pushing. Returns `true` when the event was stored.
    /// Wait-free.
    pub(crate) fn push(&self, v: Stamped) -> bool {
        if self.producing.swap(true, Ordering::Acquire) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let stored = head - tail < self.slots.len();
        if stored {
            // SAFETY: `head - tail < capacity`, so this slot is outside the
            // consumer's `tail..head` window; holding `producing`, only this
            // thread writes it.
            unsafe { (*self.slots[head & self.mask].get()).write(v) };
            self.head.store(head + 1, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.producing.store(false, Ordering::Release);
        stored
    }

    /// Consumer side: take every buffered event, in push order.
    pub(crate) fn drain(&self) -> Vec<Stamped> {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(head - tail);
        while tail < head {
            // SAFETY: slots in `tail..head` were published by the producer's
            // release store of `head`; the producer will not reuse them until
            // `tail` advances past.
            let v = unsafe { (*self.slots[tail & self.mask].get()).assume_init_read() };
            out.push(v);
            tail += 1;
        }
        self.tail.store(tail, Ordering::Release);
        out
    }
}

impl std::fmt::Debug for SpscRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.slots.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::TraceEvent;

    fn ev(n: u32) -> Stamped {
        Stamped {
            ts_ns: u64::from(n),
            event: TraceEvent::Getsub { n },
        }
    }

    #[test]
    fn fifo_order_and_capacity_rounding() {
        let r = SpscRing::new(5);
        for i in 0..8 {
            assert!(r.push(ev(i)));
        }
        assert!(!r.push(ev(99)), "9th push into an 8-ring must drop");
        assert_eq!(r.dropped(), 1);
        let out = r.drain();
        assert_eq!(out.len(), 8);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(*s, ev(i as u32));
        }
        assert!(r.drain().is_empty());
    }

    #[test]
    fn drain_makes_room_for_more_pushes() {
        let r = SpscRing::new(4);
        let mut out = Vec::new();
        for round in 0..50u32 {
            for i in 0..4 {
                assert!(r.push(ev(round * 4 + i)));
            }
            out.extend(r.drain());
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(out.len(), 200);
        assert!(out.iter().enumerate().all(|(i, s)| s.ts_ns == i as u64));
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing_without_overflow() {
        let r = SpscRing::new(1024);
        const N: u32 = 100_000;
        let mut out = Vec::new();
        let r = &r;
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut i = 0;
                while i < N {
                    if r.push(ev(i)) {
                        i += 1;
                    } else {
                        // Full: wait for the consumer rather than dropping,
                        // so the assertion below can demand completeness.
                        std::thread::yield_now();
                    }
                }
            });
            let consumer_out = &mut out;
            s.spawn(move || {
                while consumer_out.len() < N as usize {
                    consumer_out.extend(r.drain());
                    std::hint::spin_loop();
                }
            });
        });
        assert_eq!(out.len(), N as usize);
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s.ts_ns, i as u64, "stream must arrive in order, intact");
        }
    }
}
