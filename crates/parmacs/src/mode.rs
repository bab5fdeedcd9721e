//! Synchronization back-end selection.
//!
//! [`SyncMode`] selects a suite generation wholesale; [`SyncPolicy`] refines the
//! choice per construct class, which is what the paper-style ablation experiment
//! (`F6-ablation`) sweeps: "what if we modernize *only* the barriers?".

use std::fmt;

/// Which suite generation's synchronization constructs to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncMode {
    /// Splash-3 style: pthreads-like sleeping locks, condvar barriers,
    /// lock-protected counters/reductions/queues.
    LockBased,
    /// Splash-4 style: C11-atomic equivalents — sense-reversing barriers,
    /// `fetch_add` counters, CAS-loop reductions, lock-free queues.
    LockFree,
    /// Splash-4x style: flat-combining/CC-Synch back-ends for the contended
    /// constructs — threads publish requests into per-thread records and one
    /// combiner applies the whole batch, instead of every thread CAS-storming
    /// the same line.
    Combining,
}

impl SyncMode {
    /// All modes, in presentation order (lock-based first, as the baseline,
    /// then each successive modernization generation).
    pub const ALL: [SyncMode; 3] = [SyncMode::LockBased, SyncMode::LockFree, SyncMode::Combining];

    /// Short stable label used in tables, CSV headers and CLI arguments.
    pub fn label(self) -> &'static str {
        match self {
            SyncMode::LockBased => "splash3",
            SyncMode::LockFree => "splash4",
            SyncMode::Combining => "splash4x",
        }
    }

    /// Parse a label produced by [`SyncMode::label`] (case-insensitive; also
    /// accepts `lock-based`/`lock-free`/`combining` style names).
    pub fn from_label(s: &str) -> Option<SyncMode> {
        match s.to_ascii_lowercase().as_str() {
            "splash3" | "lock-based" | "lockbased" | "locked" => Some(SyncMode::LockBased),
            "splash4" | "lock-free" | "lockfree" | "atomic" => Some(SyncMode::LockFree),
            "splash4x" | "combining" | "flat-combining" | "flatcombining" | "cc-synch" => {
                Some(SyncMode::Combining)
            }
            _ => None,
        }
    }
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The classes of synchronization construct the suite distinguishes.
///
/// Each class corresponds to one transformation the Splash-4 modernization
/// applies (see the crate docs table) and to one column of the paper's
/// "changes" table (`T2-changes`). The discriminant is the class's index in
/// [`ConstructClass::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstructClass {
    /// Phase barriers (`BARRIER`).
    Barrier,
    /// Dynamic index distribution (`GETSUB` / `GET_PID`-style counters).
    Counter,
    /// Global floating-point / integer reductions.
    Reduction,
    /// Pause variables and completion flags (`PAUSE`/`SETPAUSE`).
    Flag,
    /// Task queues, free lists, work stacks.
    Queue,
    /// Fine-grained data locks (per-cell, per-molecule, per-patch). In
    /// lock-free mode these become CAS/atomic-RMW updates on the data itself.
    DataLock,
}

impl ConstructClass {
    /// All classes, in the order used by reports.
    pub const ALL: [ConstructClass; 6] = [
        ConstructClass::Barrier,
        ConstructClass::Counter,
        ConstructClass::Reduction,
        ConstructClass::Flag,
        ConstructClass::Queue,
        ConstructClass::DataLock,
    ];

    /// Stable snake-case label.
    pub fn label(self) -> &'static str {
        match self {
            ConstructClass::Barrier => "barrier",
            ConstructClass::Counter => "counter",
            ConstructClass::Reduction => "reduction",
            ConstructClass::Flag => "flag",
            ConstructClass::Queue => "queue",
            ConstructClass::DataLock => "data_lock",
        }
    }

    /// Parse a label produced by [`ConstructClass::label`].
    pub fn from_label(s: &str) -> Option<ConstructClass> {
        ConstructClass::ALL.into_iter().find(|c| c.label() == s)
    }
}

impl fmt::Display for ConstructClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-construct back-end selection.
///
/// A `SyncPolicy` assigns a [`SyncMode`] to every [`ConstructClass`]
/// independently. The uniform policies reproduce the two suites; mixed
/// policies drive the ablation experiment.
///
/// # Example
///
/// ```
/// use splash4_parmacs::{SyncMode, SyncPolicy, ConstructClass};
///
/// // Splash-3 baseline, but with only the barriers modernized.
/// let policy = SyncPolicy::uniform(SyncMode::LockBased)
///     .with(ConstructClass::Barrier, SyncMode::LockFree);
/// assert_eq!(policy.mode_for(ConstructClass::Barrier), SyncMode::LockFree);
/// assert_eq!(policy.mode_for(ConstructClass::Counter), SyncMode::LockBased);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncPolicy {
    /// The back-end of each class, indexed by its discriminant.
    modes: [SyncMode; ConstructClass::ALL.len()],
}

impl SyncPolicy {
    /// Policy using `mode` for every construct class.
    pub fn uniform(mode: SyncMode) -> SyncPolicy {
        SyncPolicy {
            modes: [mode; ConstructClass::ALL.len()],
        }
    }

    /// Return a copy with `class` switched to `mode`.
    #[must_use]
    pub fn with(mut self, class: ConstructClass, mode: SyncMode) -> SyncPolicy {
        self.modes[class as usize] = mode;
        self
    }

    /// The back-end selected for `class`.
    pub fn mode_for(self, class: ConstructClass) -> SyncMode {
        self.modes[class as usize]
    }
}

impl From<SyncMode> for SyncPolicy {
    fn from(mode: SyncMode) -> SyncPolicy {
        SyncPolicy::uniform(mode)
    }
}

impl Default for SyncPolicy {
    /// Defaults to the modern (Splash-4) suite.
    fn default() -> SyncPolicy {
        SyncPolicy::uniform(SyncMode::LockFree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for m in SyncMode::ALL {
            assert_eq!(SyncMode::from_label(m.label()), Some(m));
        }
        assert_eq!(SyncMode::from_label("Lock-Free"), Some(SyncMode::LockFree));
        assert_eq!(SyncMode::from_label("bogus"), None);
    }

    #[test]
    fn combining_aliases_parse() {
        for alias in ["splash4x", "combining", "flat-combining", "Flat-Combining"] {
            assert_eq!(SyncMode::from_label(alias), Some(SyncMode::Combining));
        }
        assert_eq!(SyncMode::Combining.label(), "splash4x");
    }

    #[test]
    fn mode_count_is_pinned() {
        // Tables, JSON schemas and the benchmark's per-mode rungs all iterate
        // SyncMode::ALL; a fourth generation must consciously revisit every
        // consumer (sim cost model, suite parity tests, BENCHMARK.json)
        // rather than silently growing their arrays.
        assert_eq!(SyncMode::ALL.len(), 3);
        assert_eq!(
            SyncMode::ALL,
            [SyncMode::LockBased, SyncMode::LockFree, SyncMode::Combining]
        );
        let labels: Vec<_> = SyncMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels, ["splash3", "splash4", "splash4x"]);
    }

    #[test]
    fn class_discriminant_is_its_index() {
        for (i, c) in ConstructClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c}");
        }
    }

    #[test]
    fn uniform_policy_reports_mode() {
        for m in SyncMode::ALL {
            let p = SyncPolicy::uniform(m);
            for c in ConstructClass::ALL {
                assert_eq!(p.mode_for(c), m);
            }
        }
    }

    #[test]
    fn with_overrides_single_class() {
        let p = SyncPolicy::uniform(SyncMode::LockBased)
            .with(ConstructClass::Reduction, SyncMode::LockFree);
        assert_eq!(p.mode_for(ConstructClass::Reduction), SyncMode::LockFree);
        for c in ConstructClass::ALL {
            if c != ConstructClass::Reduction {
                assert_eq!(p.mode_for(c), SyncMode::LockBased);
            }
        }
    }

    #[test]
    fn from_mode_is_uniform() {
        let p: SyncPolicy = SyncMode::LockBased.into();
        assert_eq!(p, SyncPolicy::uniform(SyncMode::LockBased));
    }
}
