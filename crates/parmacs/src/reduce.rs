//! Global reductions (lock-protected accumulators in Splash-3, CAS-loop
//! atomics in Splash-4, combiner-folded accumulators in Splash-4x), all one
//! [`Reducer`] type.
//!
//! The suite's kernels accumulate global energies, residual errors and
//! checksums from every thread each iteration. Splash-3 guards a shared
//! `double` with a lock; Splash-4 performs a compare-exchange loop on the bit
//! pattern (C11 `atomic_compare_exchange_weak` on a `_Atomic double` — here a
//! 64-bit word holding `f64::to_bits`).

use crate::atomics::{Atomics, IntWord, Std, Word};
use crate::mode::{ConstructClass, SyncMode};
use crate::serial::Serial;
use crate::spec::{CasF64Spec, SumU64Spec};
use crate::stats::{Counter, SyncCounters};
use crate::trace::TraceEvent;
use std::fmt;
use std::sync::Arc;

/// A shared floating-point reduction cell.
pub trait ReduceF64: Send + Sync + fmt::Debug {
    /// Add `v` to the accumulator.
    fn add(&self, v: f64);
    /// Fold `v` into the accumulator with max.
    fn max(&self, v: f64);
    /// Fold `v` into the accumulator with min.
    fn min(&self, v: f64);
    /// Read the current value. Only well-defined between phases (after a
    /// barrier), exactly as in the original suite.
    fn load(&self) -> f64;
    /// Reset to `v` (between phases).
    fn store(&self, v: f64);
}

/// A shared integer reduction cell (sums only; used for histogram merges and
/// global statistics counters).
pub trait ReduceU64: Send + Sync + fmt::Debug {
    /// Add `v` to the accumulator.
    fn add(&self, v: u64);
    /// Read the current value (between phases).
    fn load(&self) -> u64;
    /// Reset to `v` (between phases).
    fn store(&self, v: u64);
}

/// An `f64` stored in a 64-bit atomic word with CAS-loop read-modify-write.
///
/// This is the building block the Splash-4 paper's "lock-free constructs"
/// headline refers to for reductions. Exposed directly (not only through the
/// [`ReduceF64`] trait) because several kernels use it for fine-grained
/// per-element force/energy accumulation in data structures.
pub struct AtomicF64<A: Atomics = Std> {
    bits: A::U64,
    stats: Arc<SyncCounters>,
}

impl AtomicF64 {
    /// New cell holding `v`, reporting into `stats`.
    pub fn new(v: f64, stats: Arc<SyncCounters>) -> AtomicF64 {
        AtomicF64::new_in(v, stats)
    }
}

impl<A: Atomics> AtomicF64<A> {
    /// [`AtomicF64::new`] over any [`Atomics`].
    pub fn new_in(v: f64, stats: Arc<SyncCounters>) -> AtomicF64<A> {
        AtomicF64 {
            bits: A::U64::new("reduce.f64", v.to_bits()),
            stats,
        }
    }

    /// Apply `f` atomically via a compare-exchange loop.
    pub fn fetch_update(&self, f: impl Fn(f64) -> f64) {
        let s = A::spec(CasF64Spec::SPLASH4);
        self.stats.bump(Counter::AtomicRmws);
        let mut cur = self.bits.load(s.load);
        loop {
            let new = f(f64::from_bits(cur)).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, new, s.cas_ok, s.cas_fail)
            {
                Ok(_) => return,
                Err(actual) => {
                    self.stats.bump(Counter::CasFailures);
                    self.stats.bump(Counter::AtomicRmws);
                    cur = actual;
                }
            }
        }
    }

    /// Atomic add.
    pub fn add(&self, v: f64) {
        self.fetch_update(|x| x + v);
    }

    /// Current value.
    pub fn load(&self) -> f64 {
        f64::from_bits(self.bits.load(A::spec(CasF64Spec::SPLASH4).value_load))
    }

    /// Overwrite the value.
    pub fn store(&self, v: f64) {
        self.bits
            .store(v.to_bits(), A::spec(CasF64Spec::SPLASH4).value_store);
    }
}

impl<A: Atomics> fmt::Debug for AtomicF64<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicF64")
            .field("value", &self.load())
            .finish()
    }
}

struct ReduceState {
    f: f64,
    u: u64,
}

const OP_FADD: u64 = 1;
const OP_FMAX: u64 = 2;
const OP_FMIN: u64 = 3;
const OP_FLOAD: u64 = 4;
const OP_FSTORE: u64 = 5;
const OP_UADD: u64 = 6;
const OP_ULOAD: u64 = 7;
const OP_USTORE: u64 = 8;

fn apply_reduce(s: &mut ReduceState, op: u64, arg: u64) -> u64 {
    match op {
        OP_FADD => {
            s.f += f64::from_bits(arg);
            0
        }
        OP_FMAX => {
            s.f = s.f.max(f64::from_bits(arg));
            0
        }
        OP_FMIN => {
            s.f = s.f.min(f64::from_bits(arg));
            0
        }
        OP_FLOAD => s.f.to_bits(),
        OP_FSTORE => {
            s.f = f64::from_bits(arg);
            0
        }
        OP_UADD => {
            s.u += arg;
            0
        }
        OP_ULOAD => s.u,
        _ => {
            s.u = arg;
            0
        }
    }
}

enum Cells<A: Atomics> {
    /// Splash-4: a CAS-loop [`AtomicF64`] plus a `fetch_add` integer cell.
    Atomic { float: AtomicF64<A>, int: A::U64 },
    /// Splash-3 / Splash-4x: [`apply_reduce`] under the serial executor.
    Serial(Serial<ReduceState, A>),
}

/// The suite's global reduction cell: one float and one integer
/// accumulator, viewed through [`ReduceF64`] or [`ReduceU64`]. The
/// expansion is its private cell strategy — sequential accumulators run by
/// the crate's serial executor (under a lock in Splash-3, by a combiner in
/// Splash-4x) or native atomics (Splash-4).
pub struct Reducer<A: Atomics = Std> {
    cells: Cells<A>,
    stats: Arc<SyncCounters>,
}

impl<A: Atomics> Reducer<A> {
    /// Zero-initialized reducer expanded per `mode` for a team of
    /// `nthreads`, reporting into `stats`.
    pub fn new(mode: SyncMode, nthreads: usize, stats: Arc<SyncCounters>) -> Reducer<A> {
        let state = ReduceState { f: 0.0, u: 0 };
        let cells = match Serial::for_mode(mode, nthreads, state, apply_reduce, &stats) {
            Some(serial) => Cells::Serial(serial),
            None => Cells::Atomic {
                float: AtomicF64::new_in(0.0, Arc::clone(&stats)),
                int: A::U64::new("reduce.u64", 0),
            },
        };
        Reducer { cells, stats }
    }

    #[inline]
    fn run(&self, op: u64, arg: u64) -> u64 {
        let (float, int) = match &self.cells {
            Cells::Serial(serial) => return serial.run(op, arg),
            Cells::Atomic { float, int } => (float, int),
        };
        let v = f64::from_bits(arg);
        let s = A::spec(SumU64Spec::SPLASH4);
        match op {
            OP_FADD => float.add(v),
            OP_FMAX => float.fetch_update(|x| x.max(v)),
            OP_FMIN => float.fetch_update(|x| x.min(v)),
            OP_FLOAD => return float.load().to_bits(),
            OP_FSTORE => float.store(v),
            OP_UADD => {
                self.stats.bump(Counter::AtomicRmws);
                int.fetch_add(arg, s.add_rmw);
            }
            OP_ULOAD => return int.load(s.value_load),
            _ => int.store(arg, s.value_store),
        }
        0
    }

    /// One logical reduction contribution (`add`/`max`/`min`).
    #[inline]
    fn contribute(&self, op: u64, arg: u64) {
        self.stats.bump(Counter::ReduceOps);
        self.stats.trace(TraceEvent::Rmw {
            class: ConstructClass::Reduction,
            n: 1,
        });
        self.run(op, arg);
    }
}

impl<A: Atomics> ReduceF64 for Reducer<A> {
    fn add(&self, v: f64) {
        self.contribute(OP_FADD, v.to_bits());
    }
    fn max(&self, v: f64) {
        self.contribute(OP_FMAX, v.to_bits());
    }
    fn min(&self, v: f64) {
        self.contribute(OP_FMIN, v.to_bits());
    }
    fn load(&self) -> f64 {
        f64::from_bits(self.run(OP_FLOAD, 0))
    }
    fn store(&self, v: f64) {
        self.run(OP_FSTORE, v.to_bits());
    }
}

impl<A: Atomics> ReduceU64 for Reducer<A> {
    fn add(&self, v: u64) {
        self.contribute(OP_UADD, v);
    }
    fn load(&self) -> u64 {
        self.run(OP_ULOAD, 0)
    }
    fn store(&self, v: u64) {
        self.run(OP_USTORE, v);
    }
}

impl<A: Atomics> fmt::Debug for Reducer<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reducer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_f64_fetch_update_applies() {
        let stats = Arc::new(SyncCounters::new());
        let a = AtomicF64::new(2.0, Arc::clone(&stats));
        a.fetch_update(|x| x * 10.0);
        assert_eq!(a.load(), 20.0);
        assert!(stats.snapshot().atomic_rmws >= 1);
    }
}
