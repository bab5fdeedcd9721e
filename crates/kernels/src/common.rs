//! Shared kernel infrastructure: results, shared-memory views, and the
//! dual-mode accumulator array used for fine-grained force/energy sums,
//! histogram counts and slot claims. Its lock-free arm is the parmacs cell
//! the checker explores (`AtomicF64` for `f64`, the `SumU64Spec` word for
//! `u64`), so no atomic protocol is written here.

use splash4_parmacs::{
    AtomicF64, ConstructClass, Counter, SleepLock, SumU64Spec, SyncCounters, SyncEnv, SyncProfile,
    TraceEvent, WorkModel,
};
use std::marker::PhantomData;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one kernel execution.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Wall-clock time of the parallel region, its team's spawn and join included;
    /// input generation and validation (whose oracle may run its own team) are not.
    pub elapsed: Duration,
    /// Output digest. Run to run it is bit-identical at one thread; across
    /// sync modes and thread counts, and between runs with several threads,
    /// it agrees to rounding ([`close`], relative 1e-6), since a reduction
    /// may add its threads' parts in schedule order.
    pub checksum: f64,
    /// `true` if the kernel's self-check (oracle comparison, conservation
    /// law, sortedness…) passed.
    pub validated: bool,
    /// Dynamic synchronization profile of the run.
    pub profile: SyncProfile,
    /// Phase-structure model for the timing simulator, already calibrated to
    /// this run's measured compute.
    pub work: WorkModel,
}

impl KernelResult {
    /// Elapsed time in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed.as_nanos() as u64
    }
}

/// Compare two checksums with a relative tolerance.
///
/// Floating-point reductions may legally reorder across back-ends, so kernel
/// checksums agree only to rounding.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= rel * scale
}

/// The larger of `a` and `b`, or NaN if either is: the validation oracles'
/// error fold. `f64::max` returns the other operand of a NaN, so a result
/// holding a NaN would pass a fold over it.
pub(crate) fn max_or_nan(a: f64, b: f64) -> f64 {
    if b > a || b.is_nan() {
        b
    } else {
        a
    }
}

/// A raw shared view of a mutable slice for the suite's classic
/// "disjoint-index" parallel writes (each thread updates only indices it
/// owns, with phases separated by barriers).
///
/// All access is `unsafe`: the caller asserts the disjointness discipline.
/// The view borrows the underlying storage, so it cannot outlive it.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the view hands out access only through unsafe methods whose
// contract requires data-race freedom; T crosses threads by value.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap a mutable slice.
    pub fn new(slice: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No thread may be concurrently writing index `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        // SAFETY: in-bounds per debug_assert; race freedom per caller contract.
        unsafe { *self.ptr.add(i) }
    }

    /// Write element `i`.
    ///
    /// # Safety
    /// No other thread may be concurrently reading or writing index `i`.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        // SAFETY: as above.
        unsafe { *self.ptr.add(i) = v };
    }

    /// Mutable reference to element `i`.
    ///
    /// # Safety
    /// The returned reference must be the only live access to index `i` for
    /// its lifetime.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn at(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        // SAFETY: as above.
        unsafe { &mut *self.ptr.add(i) }
    }
}

impl<T> std::fmt::Debug for SharedSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSlice")
            .field("len", &self.len)
            .finish()
    }
}

/// An element type of [`SharedAccum`]: `f64` (forces, energies) or `u64`
/// (histograms, occupancy counts, slot claims). Each names the shipped
/// parmacs cell that holds it, with the orderings of that cell's spec
/// table: `f64` is [`AtomicF64`] and its CAS loop, `u64` is the
/// `fetch_add` word of the Splash-4 [`Reducer`](splash4_parmacs::Reducer).
pub trait Accumulate: Copy {
    /// One element's atomic cell.
    type Cell: Send + Sync;
    /// The additive identity.
    const ZERO: Self;
    /// A cell holding `v`.
    fn cell(v: Self) -> Self::Cell;
    /// The lock-free add, counting into `stats`; returns the previous value.
    fn fetch_add(cell: &Self::Cell, v: Self, stats: &SyncCounters) -> Self;
    /// Read the cell.
    fn load(cell: &Self::Cell) -> Self;
    /// Overwrite the cell.
    fn store(cell: &Self::Cell, v: Self);
    /// `a + v` as the lock-based arm computes it (`u64` wraps, so adding
    /// `u64::MAX` is a decrement).
    fn plus(a: Self, v: Self) -> Self;
}

impl Accumulate for f64 {
    type Cell = AtomicF64;
    const ZERO: f64 = 0.0;
    fn cell(v: f64) -> AtomicF64 {
        AtomicF64::new(v)
    }
    #[inline]
    fn fetch_add(cell: &AtomicF64, v: f64, stats: &SyncCounters) -> f64 {
        cell.add(v, stats)
    }
    #[inline]
    fn load(cell: &AtomicF64) -> f64 {
        cell.load()
    }
    #[inline]
    fn store(cell: &AtomicF64, v: f64) {
        cell.store(v);
    }
    #[inline]
    fn plus(a: f64, v: f64) -> f64 {
        a + v
    }
}

impl Accumulate for u64 {
    type Cell = AtomicU64;
    const ZERO: u64 = 0;
    fn cell(v: u64) -> AtomicU64 {
        AtomicU64::new(v)
    }
    #[inline]
    fn fetch_add(cell: &AtomicU64, v: u64, stats: &SyncCounters) -> u64 {
        stats.bump(Counter::AtomicRmws);
        cell.fetch_add(v, SumU64Spec::SPLASH4.add_rmw)
    }
    #[inline]
    fn load(cell: &AtomicU64) -> u64 {
        cell.load(SumU64Spec::SPLASH4.value_load)
    }
    #[inline]
    fn store(cell: &AtomicU64, v: u64) {
        cell.store(v, SumU64Spec::SPLASH4.value_store);
    }
    #[inline]
    fn plus(a: u64, v: u64) -> u64 {
        a.wrapping_add(v)
    }
}

/// Dual-mode fine-grained accumulator array of `f64` or `u64` cells.
///
/// This is the force/energy-array pattern at the heart of the water, barnes
/// and radiosity modernizations, and the histogram / slot-claim counters of
/// radix, fmm, water-spatial, cholesky and stream: Splash-3 guards banks of
/// elements with an `ALOCK` array and updates plain words; Splash-4 drops
/// the locks and updates the words atomically (a CAS loop for `f64`,
/// `fetch_add` for `u64`). `SharedAccum` keeps kernel code identical across
/// modes: `add(i, v)` picks the discipline from the environment's
/// `DataLock` policy.
pub struct SharedAccum<T: Accumulate> {
    cells: Vec<T::Cell>,
    /// `Some` in lock-based mode: one lock per `bank` consecutive cells.
    locks: Option<Vec<SleepLock>>,
    bank: usize,
    stats: Arc<SyncCounters>,
}

impl<T: Accumulate> SharedAccum<T> {
    /// `n` zero-initialized cells; in lock-based mode elements share one lock
    /// per `bank` consecutive indices (1 = a lock per element, as in
    /// water-nsquared's per-molecule locks).
    pub fn new(env: &SyncEnv, n: usize, bank: usize) -> SharedAccum<T> {
        assert!(bank > 0, "bank must be non-zero");
        let locks = env
            .data_locks()
            .then(|| env.lock_array(n.div_ceil(bank).max(1)));
        SharedAccum {
            cells: (0..n).map(|_| T::cell(T::ZERO)).collect(),
            locks,
            bank,
            stats: Arc::clone(env.stats()),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomically (or under the bank lock) add `v` to cell `i`; returns the
    /// previous value (slot claiming).
    #[inline]
    pub fn add(&self, i: usize, v: T) -> T {
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::DataLock,
            n: 1,
        });
        let cell = &self.cells[i];
        match &self.locks {
            Some(locks) => {
                let lock = &locks[i / self.bank];
                lock.acquire();
                let cur = T::load(cell);
                T::store(cell, T::plus(cur, v));
                lock.release();
                cur
            }
            None => T::fetch_add(cell, v, &self.stats),
        }
    }

    /// Read cell `i` (well-defined between phases).
    pub fn load(&self, i: usize) -> T {
        T::load(&self.cells[i])
    }

    /// Overwrite cell `i` (between phases; not lock-protected).
    pub fn store(&self, i: usize, v: T) {
        T::store(&self.cells[i], v);
    }

    /// Reset every cell to zero (between phases).
    pub fn reset(&self) {
        for c in &self.cells {
            T::store(c, T::ZERO);
        }
    }

    /// Copy all cells out.
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(T::load).collect()
    }
}

impl<T: Accumulate> std::fmt::Debug for SharedAccum<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedAccum")
            .field("len", &self.cells.len())
            .field("locked", &self.locks.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash4_parmacs::{SyncMode, Team};

    #[test]
    fn close_tolerates_relative_error() {
        assert!(close(1e9, 1e9 + 1.0, 1e-6));
        assert!(!close(1.0, 2.0, 1e-6));
        assert!(close(0.0, 1e-9, 1e-6));
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let mut data = vec![0u64; 100];
        let view = SharedSlice::new(&mut data);
        Team::new(4).run(|ctx| {
            for i in ctx.chunk(view.len()) {
                // SAFETY: chunks are disjoint.
                unsafe { view.set(i, i as u64 * 2) };
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    /// An element type the shared-array assertions run over.
    trait Elem: Accumulate + PartialEq + std::fmt::Debug + Sync {
        fn of(n: u32) -> Self;
    }
    impl Elem for f64 {
        fn of(n: u32) -> f64 {
            f64::from(n)
        }
    }
    impl Elem for u64 {
        fn of(n: u32) -> u64 {
            u64::from(n)
        }
    }

    // Each assertion below is written once, generic over the element type,
    // and runs for `f64` and for `u64` (the `shared_counters_*` tests are the
    // `u64` runs).

    /// Sums in every mode: 4 threads × 50 adds of 2 into each of 16 cells,
    /// with one lock per cell and per bank of 4 in lock-based mode.
    fn sums_in_every_mode<T: Elem>() {
        for bank in [1, 4] {
            for mode in SyncMode::ALL {
                let env = SyncEnv::new(mode, 4);
                let acc = SharedAccum::<T>::new(&env, 16, bank);
                Team::new(4).run(|_| {
                    for i in 0..16 {
                        for _ in 0..50 {
                            acc.add(i, T::of(2));
                        }
                    }
                });
                assert_eq!(acc.to_vec(), vec![T::of(400); 16], "mode {mode}");
                let p = env.profile();
                match mode {
                    SyncMode::LockBased => {
                        assert_eq!(p.lock_acquires, 3200);
                        assert_eq!(p.atomic_rmws, 0);
                    }
                    // Combining leaves scattered data updates on the direct
                    // atomic path, so it profiles like lock-free here.
                    SyncMode::LockFree | SyncMode::Combining => {
                        assert_eq!(p.lock_acquires, 0);
                        assert!(p.atomic_rmws >= 3200);
                    }
                }
            }
        }
    }

    /// 10 cells, bank of 4 → 3 locks.
    fn banked_locks<T: Elem>() {
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        let acc = SharedAccum::<T>::new(&env, 10, 4);
        for i in 0..10 {
            acc.add(i, T::of(1));
        }
        assert_eq!(acc.to_vec(), vec![T::of(1); 10]);
    }

    /// `store`, `load` and `reset` between phases.
    fn store_and_reset<T: Elem>() {
        let env = SyncEnv::new(SyncMode::LockFree, 1);
        let acc = SharedAccum::<T>::new(&env, 3, 1);
        assert_eq!(acc.len(), 3);
        acc.add(0, T::of(5));
        acc.store(1, T::of(9));
        assert_eq!(acc.load(1), T::of(9));
        acc.reset();
        assert_eq!(acc.to_vec(), vec![T::ZERO; 3]);
    }

    /// `add` returns the previous value under either discipline.
    fn add_returns_previous<T: Elem>() {
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            let env = SyncEnv::new(mode, 1);
            let acc = SharedAccum::<T>::new(&env, 2, 1);
            assert_eq!(acc.add(1, T::of(3)), T::ZERO, "mode {mode}");
            assert_eq!(acc.add(1, T::of(4)), T::of(3), "mode {mode}");
            assert_eq!(acc.load(1), T::of(7), "mode {mode}");
        }
    }

    /// Uncontended lock-free adds: one RMW each, no CAS ever fails.
    fn lock_free_adds_cost_one_rmw<T: Elem>() {
        let env = SyncEnv::new(SyncMode::LockFree, 1);
        let acc = SharedAccum::<T>::new(&env, 4, 1);
        for i in 0..100 {
            acc.add(i % 4, T::of(1));
        }
        let p = env.profile();
        assert_eq!((p.atomic_rmws, p.cas_failures), (100, 0));
    }

    #[test]
    fn shared_accum_sums_in_both_modes() {
        sums_in_every_mode::<f64>();
    }

    #[test]
    fn shared_counters_sum_in_both_modes() {
        sums_in_every_mode::<u64>();
    }

    #[test]
    fn shared_accum_banked_locks() {
        banked_locks::<f64>();
        banked_locks::<u64>();
    }

    #[test]
    fn shared_accum_reset_zeroes() {
        store_and_reset::<f64>();
    }

    #[test]
    fn shared_counters_store_and_reset() {
        store_and_reset::<u64>();
    }

    #[test]
    fn shared_accum_add_returns_the_previous_value() {
        // The fmm, water-spatial and cholesky slot protocols rely on it;
        // cholesky counts a predecessor down by adding `u64::MAX`.
        add_returns_previous::<f64>();
        add_returns_previous::<u64>();
        for mode in [SyncMode::LockBased, SyncMode::LockFree] {
            let env = SyncEnv::new(mode, 1);
            let acc = SharedAccum::<u64>::new(&env, 1, 1);
            acc.store(0, 2);
            assert_eq!(acc.add(0, u64::MAX), 2, "mode {mode}");
            assert_eq!(acc.load(0), 1, "mode {mode}");
        }
    }

    #[test]
    fn shared_accum_lock_free_adds_cost_one_rmw_each() {
        lock_free_adds_cost_one_rmw::<f64>();
        lock_free_adds_cost_one_rmw::<u64>();
    }
}
