//! Mode-independent workload models.
//!
//! Each kernel, in addition to *running*, can describe its phase structure as
//! a [`WorkModel`]: how many work items each phase has, how much compute an
//! item costs, how items are dispatched, and which synchronization each item
//! or thread issues. Counts are per item or per thread, never per run, so a
//! model built from a one-thread run expands at any core count. The
//! description is independent of the sync back-end — the timing
//! simulator (`splash4-sim`) expands it under a concrete
//! [`SyncPolicy`](crate::mode::SyncPolicy) into per-core op streams, which is
//! how this repository produces 1–64-thread characterization on a host with
//! fewer cores (the paper's gem5/EPYC axes).
//!
//! Compute costs are expressed in *cycles per item*. Kernels fill them with
//! analytic estimates and the harness rescales them against measured
//! single-thread wall time ([`WorkModel::calibrated`]), so only the *ratios*
//! between phases need to be right a priori.

/// How a phase's items are handed to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Static partition (block or cyclic): no sync per item.
    Static,
    /// Dynamic `GETSUB` counter, grabbing `chunk` items per call; each
    /// thread's last grab comes back empty.
    GetSub {
        /// Items claimed per counter operation.
        chunk: u64,
    },
    /// Task pool: each item is pushed once and popped once.
    Pool,
    /// Every thread runs all of the phase's items (a master decision each
    /// thread waits on, a merge of every partial result): no sync per item.
    Replicated,
}

/// One barrier-delimited phase of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name (matches the kernel's internal structure, e.g. `"transpose1"`).
    pub name: String,
    /// How many times the phase executes (timesteps, iterations, digits…).
    pub repeats: u64,
    /// Work items per execution, across all threads ([`Dispatch::Replicated`]:
    /// each thread's).
    pub items: u64,
    /// Compute cycles per item (pre-calibration estimate).
    pub cycles_per_item: u64,
    /// Item dispatch mechanism.
    pub dispatch: Dispatch,
    /// Fine-grained shared-data updates per item (DataLock class): a lock
    /// acquire/release pair under the lock-based back-end, one atomic RMW
    /// under the lock-free back-end.
    pub data_touches_per_item: f64,
    /// Global reduction contributions per thread per execution.
    pub reduces_per_thread: u64,
    /// Counter claims per item besides its dispatch (a global id taken per
    /// item, as raytrace's `RayID`): one `GETSUB` each.
    pub claims_per_item: f64,
    /// Pause-variable sets per item (dependency flags).
    pub flags_per_item: f64,
    /// Barrier episodes per thread at the end of each execution.
    pub barriers_after: u64,
}

impl PhaseSpec {
    /// A compute-only phase with static dispatch and one trailing barrier.
    pub fn compute(name: &str, items: u64, cycles_per_item: u64) -> PhaseSpec {
        PhaseSpec {
            name: name.to_string(),
            repeats: 1,
            items,
            cycles_per_item,
            dispatch: Dispatch::Static,
            data_touches_per_item: 0.0,
            reduces_per_thread: 0,
            claims_per_item: 0.0,
            flags_per_item: 0.0,
            barriers_after: 1,
        }
    }

    /// Builder-style: set the repeat count.
    #[must_use]
    pub fn repeats(mut self, r: u64) -> PhaseSpec {
        self.repeats = r;
        self
    }

    /// Builder-style: set the dispatch mechanism.
    #[must_use]
    pub fn dispatch(mut self, d: Dispatch) -> PhaseSpec {
        self.dispatch = d;
        self
    }

    /// Builder-style: set fine-grained data touches per item.
    #[must_use]
    pub fn data_touches(mut self, t: f64) -> PhaseSpec {
        self.data_touches_per_item = t;
        self
    }

    /// Builder-style: set reduction contributions per thread.
    #[must_use]
    pub fn reduces(mut self, r: u64) -> PhaseSpec {
        self.reduces_per_thread = r;
        self
    }

    /// Builder-style: set counter claims per item.
    #[must_use]
    pub fn claims(mut self, c: f64) -> PhaseSpec {
        self.claims_per_item = c;
        self
    }

    /// Builder-style: set flag sets per item.
    #[must_use]
    pub fn flags(mut self, f: f64) -> PhaseSpec {
        self.flags_per_item = f;
        self
    }

    /// Builder-style: set the number of trailing barriers per repeat.
    #[must_use]
    pub fn barriers(mut self, b: u64) -> PhaseSpec {
        self.barriers_after = b;
        self
    }

    /// Total compute cycles this phase contributes (`repeats × items ×
    /// cycles_per_item`).
    pub fn total_cycles(&self) -> u64 {
        self.repeats * self.items * self.cycles_per_item
    }
}

/// A kernel's complete phase-structure description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkModel {
    /// Kernel name.
    pub name: String,
    /// Phases in execution order.
    pub phases: Vec<PhaseSpec>,
}

impl WorkModel {
    /// Model with no phases.
    pub fn new(name: &str) -> WorkModel {
        WorkModel {
            name: name.to_string(),
            phases: Vec::new(),
        }
    }

    /// Append a phase (builder style).
    #[must_use]
    pub fn phase(mut self, p: PhaseSpec) -> WorkModel {
        self.phases.push(p);
        self
    }

    /// Total compute cycles across all phases.
    pub fn total_cycles(&self) -> u64 {
        self.phases.iter().map(PhaseSpec::total_cycles).sum()
    }

    /// Total barrier episodes (per thread) the model implies.
    pub fn total_barriers(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.repeats * p.barriers_after)
            .sum()
    }

    /// Rescale all per-item compute costs so the model's total compute
    /// matches `measured_ns` of single-thread execution at `ghz`.
    ///
    /// Phases keep their relative weights. Models whose `total_cycles` is
    /// zero are returned unchanged.
    #[must_use]
    pub fn calibrated(mut self, measured_ns: u64, ghz: f64) -> WorkModel {
        let total = self.total_cycles();
        if total == 0 {
            return self;
        }
        let target = (measured_ns as f64 * ghz).max(1.0);
        let factor = target / total as f64;
        for p in &mut self.phases {
            p.cycles_per_item = ((p.cycles_per_item as f64) * factor).max(1.0).round() as u64;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let m = WorkModel::new("demo")
            .phase(PhaseSpec::compute("a", 100, 10).repeats(3))
            .phase(PhaseSpec::compute("b", 50, 20).barriers(2));
        assert_eq!(m.total_cycles(), 3 * 100 * 10 + 50 * 20);
        assert_eq!(m.total_barriers(), 3 + 2);
    }

    #[test]
    fn calibration_preserves_ratios() {
        let m = WorkModel::new("demo")
            .phase(PhaseSpec::compute("a", 100, 10))
            .phase(PhaseSpec::compute("b", 100, 30));
        // 4000 cycles modeled; measured 2 µs at 2 GHz = 4000 cycles → no-op.
        let same = m.clone().calibrated(2_000, 2.0);
        assert_eq!(same.phases[0].cycles_per_item, 10);
        assert_eq!(same.phases[1].cycles_per_item, 30);
        // measured 4 µs at 2 GHz = 8000 cycles → double everything.
        let scaled = m.calibrated(4_000, 2.0);
        assert_eq!(scaled.phases[0].cycles_per_item, 20);
        assert_eq!(scaled.phases[1].cycles_per_item, 60);
    }

    #[test]
    fn calibrating_empty_model_is_noop() {
        let m = WorkModel::new("empty").calibrated(1_000, 2.0);
        assert_eq!(m.total_cycles(), 0);
    }

    #[test]
    fn builders_set_fields() {
        let p = PhaseSpec::compute("x", 10, 5)
            .dispatch(Dispatch::GetSub { chunk: 4 })
            .data_touches(2.0)
            .reduces(3)
            .claims(0.5)
            .flags(0.25)
            .barriers(0)
            .repeats(7);
        assert_eq!(p.dispatch, Dispatch::GetSub { chunk: 4 });
        assert_eq!(p.data_touches_per_item, 2.0);
        assert_eq!(p.reduces_per_thread, 3);
        assert_eq!(p.claims_per_item, 0.5);
        assert_eq!(p.flags_per_item, 0.25);
        assert_eq!(p.barriers_after, 0);
        assert_eq!(p.repeats, 7);
    }
}
