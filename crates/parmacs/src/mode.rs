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
/// "changes" table (`T2-changes`).
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
    barrier: SyncMode,
    counter: SyncMode,
    reduction: SyncMode,
    flag: SyncMode,
    queue: SyncMode,
    data_lock: SyncMode,
}

impl SyncPolicy {
    /// Policy using `mode` for every construct class.
    pub fn uniform(mode: SyncMode) -> SyncPolicy {
        SyncPolicy {
            barrier: mode,
            counter: mode,
            reduction: mode,
            flag: mode,
            queue: mode,
            data_lock: mode,
        }
    }

    /// Return a copy with `class` switched to `mode`.
    #[must_use]
    pub fn with(mut self, class: ConstructClass, mode: SyncMode) -> SyncPolicy {
        match class {
            ConstructClass::Barrier => self.barrier = mode,
            ConstructClass::Counter => self.counter = mode,
            ConstructClass::Reduction => self.reduction = mode,
            ConstructClass::Flag => self.flag = mode,
            ConstructClass::Queue => self.queue = mode,
            ConstructClass::DataLock => self.data_lock = mode,
        }
        self
    }

    /// The back-end selected for `class`.
    pub fn mode_for(self, class: ConstructClass) -> SyncMode {
        match class {
            ConstructClass::Barrier => self.barrier,
            ConstructClass::Counter => self.counter,
            ConstructClass::Reduction => self.reduction,
            ConstructClass::Flag => self.flag,
            ConstructClass::Queue => self.queue,
            ConstructClass::DataLock => self.data_lock,
        }
    }

    /// `Some(mode)` if every class uses the same back-end.
    pub fn uniform_mode(self) -> Option<SyncMode> {
        let m = self.barrier;
        ConstructClass::ALL
            .iter()
            .all(|&c| self.mode_for(c) == m)
            .then_some(m)
    }

    /// Human-readable summary, e.g. `splash3+lockfree{barrier}`.
    ///
    /// The majority back-end becomes the base label; every minority back-end
    /// appends a `+name{classes}` segment. Ties go to the earlier generation
    /// in [`SyncMode::ALL`] so two-mode outputs are stable across releases.
    pub fn describe(self) -> String {
        if let Some(m) = self.uniform_mode() {
            return m.label().to_string();
        }
        let classes_of = |m: SyncMode| -> Vec<ConstructClass> {
            ConstructClass::ALL
                .into_iter()
                .filter(|&c| self.mode_for(c) == m)
                .collect()
        };
        let mut base = SyncMode::ALL[0];
        for m in SyncMode::ALL {
            if classes_of(m).len() > classes_of(base).len() {
                base = m;
            }
        }
        let mut out = base.label().to_string();
        for m in SyncMode::ALL {
            if m == base {
                continue;
            }
            let flipped = classes_of(m);
            if flipped.is_empty() {
                continue;
            }
            let adjective = match m {
                SyncMode::LockBased => "lockbased",
                SyncMode::LockFree => "lockfree",
                SyncMode::Combining => "combining",
            };
            let names: Vec<_> = flipped.iter().map(|c| c.label()).collect();
            out.push_str(&format!("+{}{{{}}}", adjective, names.join(",")));
        }
        out
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
    fn uniform_policy_reports_mode() {
        for m in SyncMode::ALL {
            let p = SyncPolicy::uniform(m);
            assert_eq!(p.uniform_mode(), Some(m));
            for c in ConstructClass::ALL {
                assert_eq!(p.mode_for(c), m);
            }
            assert_eq!(p.describe(), m.label());
        }
    }

    #[test]
    fn with_overrides_single_class() {
        let p = SyncPolicy::uniform(SyncMode::LockBased)
            .with(ConstructClass::Reduction, SyncMode::LockFree);
        assert_eq!(p.uniform_mode(), None);
        assert_eq!(p.mode_for(ConstructClass::Reduction), SyncMode::LockFree);
        for c in ConstructClass::ALL {
            if c != ConstructClass::Reduction {
                assert_eq!(p.mode_for(c), SyncMode::LockBased);
            }
        }
        assert_eq!(p.describe(), "splash3+lockfree{reduction}");
    }

    #[test]
    fn describe_picks_minority_side() {
        let mut p = SyncPolicy::uniform(SyncMode::LockFree);
        p = p.with(ConstructClass::Barrier, SyncMode::LockBased);
        assert_eq!(p.describe(), "splash4+lockbased{barrier}");
    }

    #[test]
    fn describe_handles_three_mode_mixes() {
        let p = SyncPolicy::uniform(SyncMode::LockFree)
            .with(ConstructClass::Reduction, SyncMode::Combining)
            .with(ConstructClass::Counter, SyncMode::Combining);
        assert_eq!(p.describe(), "splash4+combining{counter,reduction}");
        let p3 = SyncPolicy::uniform(SyncMode::LockBased)
            .with(ConstructClass::Barrier, SyncMode::LockFree)
            .with(ConstructClass::Reduction, SyncMode::Combining);
        assert_eq!(
            p3.describe(),
            "splash3+lockfree{barrier}+combining{reduction}"
        );
        let uniform = SyncPolicy::uniform(SyncMode::Combining);
        assert_eq!(uniform.describe(), "splash4x");
        assert_eq!(uniform.uniform_mode(), Some(SyncMode::Combining));
    }

    #[test]
    fn from_mode_is_uniform() {
        let p: SyncPolicy = SyncMode::LockBased.into();
        assert_eq!(p.uniform_mode(), Some(SyncMode::LockBased));
    }
}
