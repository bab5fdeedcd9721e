//! Shared kernel infrastructure: results, shared-memory views, and the
//! dual-mode accumulator used for fine-grained force/energy updates.

use splash4_parmacs::{
    ConstructClass, Counter, SleepLock, SyncCounters, SyncEnv, SyncProfile, TraceEvent, WorkModel,
};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one kernel execution.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Wall-clock time of the parallel region (excludes input generation and
    /// validation, matching the suite's `ROI` timing convention).
    pub elapsed: Duration,
    /// Deterministic output digest; identical across sync modes and thread
    /// counts for the same input.
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

/// Dual-mode fine-grained `f64` accumulator array.
///
/// This is the force/energy-array pattern at the heart of the water, barnes
/// and radiosity modernizations: Splash-3 guards banks of elements with an
/// `ALOCK` array and updates plain doubles; Splash-4 drops the locks and
/// updates the doubles with CAS loops. `SharedAccum` keeps kernel code
/// identical across modes: `add(i, v)` picks the discipline from the
/// environment's `DataLock` policy.
pub struct SharedAccum {
    cells: Vec<AtomicU64>,
    /// `Some` in lock-based mode: one lock per `bank` consecutive cells.
    locks: Option<Vec<SleepLock>>,
    bank: usize,
    stats: Arc<SyncCounters>,
}

impl SharedAccum {
    /// `n` zero-initialized cells; in lock-based mode elements share one lock
    /// per `bank` consecutive indices (1 = a lock per element, as in
    /// water-nsquared's per-molecule locks).
    pub fn new(env: &SyncEnv, n: usize, bank: usize) -> SharedAccum {
        assert!(bank > 0, "bank must be non-zero");
        let locks = env
            .data_locks()
            .then(|| env.lock_array(n.div_ceil(bank).max(1)));
        SharedAccum {
            cells: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
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

    /// Atomically (or under the bank lock) add `v` to cell `i`.
    #[inline]
    pub fn add(&self, i: usize, v: f64) {
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::DataLock,
            n: 1,
        });
        match &self.locks {
            Some(locks) => {
                let lock = &locks[i / self.bank];
                lock.acquire();
                let cell = &self.cells[i];
                let cur = f64::from_bits(cell.load(Ordering::Relaxed));
                cell.store((cur + v).to_bits(), Ordering::Relaxed);
                lock.release();
            }
            None => {
                self.stats.bump(Counter::AtomicRmws);
                let cell = &self.cells[i];
                let mut cur = cell.load(Ordering::Relaxed);
                loop {
                    let new = (f64::from_bits(cur) + v).to_bits();
                    match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
                    {
                        Ok(_) => break,
                        Err(actual) => {
                            self.stats.bump(Counter::CasFailures);
                            self.stats.bump(Counter::AtomicRmws);
                            cur = actual;
                        }
                    }
                }
            }
        }
    }

    /// Read cell `i` (well-defined between phases).
    pub fn load(&self, i: usize) -> f64 {
        f64::from_bits(self.cells[i].load(Ordering::Acquire))
    }

    /// Overwrite cell `i` (between phases; not lock-protected).
    pub fn set(&self, i: usize, v: f64) {
        self.cells[i].store(v.to_bits(), Ordering::Release);
    }

    /// Reset every cell to zero (between phases).
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0f64.to_bits(), Ordering::Release);
        }
    }

    /// Copy all cells out as plain `f64`s.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }
}

/// Dual-mode fine-grained `u64` counter array (histogram merges, occupancy
/// counts). Lock-based mode guards banks of counters with sleeping locks;
/// lock-free mode uses `fetch_add`.
pub struct SharedCounters {
    cells: Vec<AtomicU64>,
    locks: Option<Vec<SleepLock>>,
    bank: usize,
    stats: Arc<SyncCounters>,
}

impl SharedCounters {
    /// `n` zeroed counters, one lock per `bank` consecutive counters in
    /// lock-based mode.
    pub fn new(env: &SyncEnv, n: usize, bank: usize) -> SharedCounters {
        assert!(bank > 0, "bank must be non-zero");
        let locks = env
            .data_locks()
            .then(|| env.lock_array(n.div_ceil(bank).max(1)));
        SharedCounters {
            cells: (0..n).map(|_| AtomicU64::new(0)).collect(),
            locks,
            bank,
            stats: Arc::clone(env.stats()),
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if there are no counters.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Add `v` to counter `i` under the active discipline.
    #[inline]
    pub fn add(&self, i: usize, v: u64) {
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::DataLock,
            n: 1,
        });
        match &self.locks {
            Some(locks) => {
                let lock = &locks[i / self.bank];
                lock.acquire();
                let cur = self.cells[i].load(Ordering::Relaxed);
                self.cells[i].store(cur.wrapping_add(v), Ordering::Relaxed);
                lock.release();
            }
            None => {
                self.stats.bump(Counter::AtomicRmws);
                self.cells[i].fetch_add(v, Ordering::AcqRel);
            }
        }
    }

    /// Add `v` to counter `i` and return the previous value (slot claiming).
    #[inline]
    pub fn claim(&self, i: usize, v: u64) -> u64 {
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::DataLock,
            n: 1,
        });
        match &self.locks {
            Some(locks) => {
                let lock = &locks[i / self.bank];
                lock.acquire();
                let cur = self.cells[i].load(Ordering::Relaxed);
                self.cells[i].store(cur.wrapping_add(v), Ordering::Relaxed);
                lock.release();
                cur
            }
            None => {
                self.stats.bump(Counter::AtomicRmws);
                self.cells[i].fetch_add(v, Ordering::AcqRel)
            }
        }
    }

    /// Read counter `i` (between phases).
    pub fn load(&self, i: usize) -> u64 {
        self.cells[i].load(Ordering::Acquire)
    }

    /// Overwrite counter `i` (between phases).
    pub fn store(&self, i: usize, v: u64) {
        self.cells[i].store(v, Ordering::Release);
    }

    /// Reset all counters to zero (between phases).
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Release);
        }
    }

    /// Copy all counters out.
    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }
}

impl std::fmt::Debug for SharedCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCounters")
            .field("len", &self.cells.len())
            .field("locked", &self.locks.is_some())
            .finish()
    }
}

impl std::fmt::Debug for SharedAccum {
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

    #[test]
    fn shared_accum_sums_in_both_modes() {
        for mode in SyncMode::ALL {
            let env = SyncEnv::new(mode, 4);
            let acc = SharedAccum::new(&env, 8, 1);
            Team::new(4).run(|_| {
                for i in 0..8 {
                    for _ in 0..100 {
                        acc.add(i, 0.5);
                    }
                }
            });
            for i in 0..8 {
                assert_eq!(acc.load(i), 200.0, "cell {i} in mode {mode}");
            }
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

    #[test]
    fn shared_accum_banked_locks() {
        let env = SyncEnv::new(SyncMode::LockBased, 2);
        // 10 cells, bank of 4 → 3 locks.
        let acc = SharedAccum::new(&env, 10, 4);
        for i in 0..10 {
            acc.add(i, 1.0);
        }
        assert_eq!(acc.to_vec(), vec![1.0; 10]);
    }

    #[test]
    fn shared_counters_sum_in_both_modes() {
        for mode in SyncMode::ALL {
            let env = SyncEnv::new(mode, 4);
            let c = SharedCounters::new(&env, 16, 4);
            Team::new(4).run(|_| {
                for i in 0..16 {
                    for _ in 0..50 {
                        c.add(i, 2);
                    }
                }
            });
            assert_eq!(c.to_vec(), vec![400u64; 16], "mode {mode}");
        }
    }

    #[test]
    fn shared_counters_store_and_reset() {
        let env = SyncEnv::new(SyncMode::LockFree, 1);
        let c = SharedCounters::new(&env, 3, 1);
        c.store(1, 9);
        assert_eq!(c.load(1), 9);
        c.reset();
        assert_eq!(c.to_vec(), vec![0, 0, 0]);
    }

    #[test]
    fn shared_accum_reset_zeroes() {
        let env = SyncEnv::new(SyncMode::LockFree, 1);
        let acc = SharedAccum::new(&env, 3, 1);
        acc.add(1, 5.0);
        acc.reset();
        assert_eq!(acc.to_vec(), vec![0.0; 3]);
    }
}
