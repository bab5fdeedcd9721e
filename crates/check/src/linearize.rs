//! Linearizability testing: concurrent histories against sequential specs.
//!
//! The engine records an *invocation/response history* for every execution:
//! each recorded construct operation logs an [`Op`] when it starts and a
//! [`RetVal`] when it completes, stamped with the global step order the
//! cooperative scheduler already imposes. A history is **linearizable** when
//! some total order of the operations (a) respects real-time order — an
//! operation that returned before another was invoked comes first — and
//! (b) is legal for the construct's sequential specification
//! ([`SpecModel`]).
//!
//! The checker is the classic Wing & Gong / Lowe depth-first search over
//! "minimal" operations with memoization on (remaining-set, spec-state);
//! histories here are small (a dozen operations), so the search is cheap
//! even across thousands of explored schedules.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;

/// An operation invocation on a checked construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Stack / pool push of a value.
    Push(u64),
    /// Stack / pool pop.
    Pop,
    /// FIFO enqueue of a value.
    Enqueue(u64),
    /// FIFO dequeue.
    Dequeue,
    /// `GETSUB`-style index grab.
    Next,
    /// Floating-point reduction add (value as `f64::to_bits`).
    AddF(u64),
    /// Floating-point reduction read.
    LoadF,
    /// Integer reduction add.
    AddU(u64),
    /// Integer reduction read.
    LoadU,
    /// Map insert-or-update of a key with a value.
    Insert(u64, u64),
    /// Map remove of a key; returns whether it was present.
    Remove(u64),
    /// Map lookup of a key.
    Lookup(u64),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Push(v) => write!(f, "push({v})"),
            Op::Pop => write!(f, "pop"),
            Op::Enqueue(v) => write!(f, "enq({v})"),
            Op::Dequeue => write!(f, "deq"),
            Op::Next => write!(f, "next"),
            Op::AddF(b) => write!(f, "add({})", f64::from_bits(b)),
            Op::LoadF => write!(f, "load"),
            Op::AddU(v) => write!(f, "add({v})"),
            Op::LoadU => write!(f, "load"),
            Op::Insert(k, v) => write!(f, "insert({k}, {v})"),
            Op::Remove(k) => write!(f, "remove({k})"),
            Op::Lookup(k) => write!(f, "lookup({k})"),
        }
    }
}

/// An operation's observed result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetVal {
    /// No return value.
    Unit,
    /// A present value (or `Some(v)` for optional returns).
    Val(u64),
    /// An absent optional return (`None`: empty pool, exhausted range…).
    Empty,
}

impl From<()> for RetVal {
    fn from((): ()) -> RetVal {
        RetVal::Unit
    }
}

impl From<u64> for RetVal {
    fn from(v: u64) -> RetVal {
        RetVal::Val(v)
    }
}

impl From<bool> for RetVal {
    fn from(v: bool) -> RetVal {
        RetVal::Val(u64::from(v))
    }
}

impl From<Option<u64>> for RetVal {
    fn from(v: Option<u64>) -> RetVal {
        v.map_or(RetVal::Empty, RetVal::Val)
    }
}

impl fmt::Display for RetVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RetVal::Unit => write!(f, "()"),
            RetVal::Val(v) => write!(f, "{v}"),
            RetVal::Empty => write!(f, "None"),
        }
    }
}

/// Sequential specification of a checked construct.
///
/// `apply` advances the state by one operation and returns the result the
/// sequential object would produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecModel {
    /// LIFO stack of values (Treiber stack spec).
    Stack(Vec<u64>),
    /// FIFO queue of values (locked-queue spec).
    Fifo(VecDeque<u64>),
    /// `GETSUB` counter over `0..total`: hands out
    /// consecutive indices then `Empty`.
    Ticket {
        /// Number of slots to dispense.
        total: u64,
        /// Next undispensed index.
        next: u64,
    },
    /// Floating-point sum cell (bits of the running sum).
    SumF64(u64),
    /// Integer sum cell.
    SumU64(u64),
    /// Keyed map (the `cmap` kernel's `LockFreeMap` spec).
    Map(BTreeMap<u64, u64>),
}

impl SpecModel {
    /// Apply `op` sequentially, returning its result.
    pub fn apply(&mut self, op: &Op) -> RetVal {
        match (self, op) {
            (SpecModel::Stack(s), Op::Push(v)) => {
                s.push(*v);
                RetVal::Unit
            }
            (SpecModel::Stack(s), Op::Pop) => match s.pop() {
                Some(v) => RetVal::Val(v),
                None => RetVal::Empty,
            },
            (SpecModel::Fifo(q), Op::Enqueue(v)) => {
                q.push_back(*v);
                RetVal::Unit
            }
            (SpecModel::Fifo(q), Op::Dequeue) => match q.pop_front() {
                Some(v) => RetVal::Val(v),
                None => RetVal::Empty,
            },
            (SpecModel::Ticket { total, next }, Op::Next) => {
                if *next < *total {
                    let i = *next;
                    *next += 1;
                    RetVal::Val(i)
                } else {
                    *next += 1; // mirrors fetch_add past the end
                    RetVal::Empty
                }
            }
            (SpecModel::SumF64(bits), Op::AddF(v)) => {
                *bits = (f64::from_bits(*bits) + f64::from_bits(*v)).to_bits();
                RetVal::Unit
            }
            (SpecModel::SumF64(bits), Op::LoadF) => RetVal::Val(*bits),
            (SpecModel::SumU64(s), Op::AddU(v)) => {
                *s = s.wrapping_add(*v);
                RetVal::Unit
            }
            (SpecModel::SumU64(s), Op::LoadU) => RetVal::Val(*s),
            (SpecModel::Map(m), Op::Insert(k, v)) => {
                m.insert(*k, *v);
                RetVal::Unit
            }
            (SpecModel::Map(m), Op::Remove(k)) => m.remove(k).is_some().into(),
            (SpecModel::Map(m), Op::Lookup(k)) => m.get(k).copied().into(),
            (spec, op) => unreachable!("op {op} not part of spec {spec:?}"),
        }
    }

    /// Compact state fingerprint for memoization.
    fn fingerprint(&self) -> Vec<u64> {
        match self {
            SpecModel::Stack(s) => s.clone(),
            SpecModel::Fifo(q) => q.iter().copied().collect(),
            SpecModel::Ticket { next, .. } => vec![*next],
            SpecModel::SumF64(b) => vec![*b],
            SpecModel::SumU64(s) => vec![*s],
            SpecModel::Map(m) => m.iter().flat_map(|(k, v)| [*k, *v]).collect(),
        }
    }
}

/// One completed operation of a history.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Virtual thread that performed the operation.
    pub tid: usize,
    /// What was invoked.
    pub op: Op,
    /// What it returned.
    pub ret: RetVal,
    /// Global event index of the invocation.
    pub invoked: usize,
    /// Global event index of the response.
    pub returned: usize,
}

impl fmt::Display for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{}: {} -> {} @[{},{}]",
            self.tid, self.op, self.ret, self.invoked, self.returned
        )
    }
}

/// Check that `history` is linearizable with respect to `spec`.
///
/// Returns `Ok(())` or a rendering of the non-linearizable history.
/// Histories longer than 63 operations are rejected (the search uses a
/// 64-bit remaining-set mask; the suite's scenarios stay far below that).
pub fn check_history(spec: &SpecModel, history: &[OpRecord]) -> Result<(), String> {
    assert!(history.len() < 64, "history too long for the WGL mask");
    let full: u64 = (1u64 << history.len()) - 1;
    let mut memo: HashSet<(u64, Vec<u64>)> = HashSet::new();
    if wgl(spec.clone(), history, full, &mut memo) {
        Ok(())
    } else {
        let mut s = String::from("history admits no legal linearization:");
        for r in history {
            s.push_str("\n  ");
            s.push_str(&r.to_string());
        }
        Err(s)
    }
}

/// Wing & Gong recursion: try every *minimal* remaining operation (one whose
/// invocation precedes every remaining response) as the next linearized op.
fn wgl(
    spec: SpecModel,
    history: &[OpRecord],
    remaining: u64,
    memo: &mut HashSet<(u64, Vec<u64>)>,
) -> bool {
    if remaining == 0 {
        return true;
    }
    if !memo.insert((remaining, spec.fingerprint())) {
        return false; // already proven a dead end
    }
    let min_return = history
        .iter()
        .enumerate()
        .filter(|(i, _)| remaining & (1 << i) != 0)
        .map(|(_, r)| r.returned)
        .min()
        .expect("remaining is non-empty");
    for (i, r) in history.iter().enumerate() {
        if remaining & (1 << i) == 0 || r.invoked > min_return {
            continue; // taken already, or not minimal
        }
        let mut next = spec.clone();
        if next.apply(&r.op) == r.ret && wgl(next, history, remaining & !(1 << i), memo) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: usize, op: Op, ret: RetVal, invoked: usize, returned: usize) -> OpRecord {
        OpRecord {
            tid,
            op,
            ret,
            invoked,
            returned,
        }
    }

    #[test]
    fn sequential_stack_history_is_linearizable() {
        let h = vec![
            rec(0, Op::Push(1), RetVal::Unit, 0, 1),
            rec(0, Op::Push(2), RetVal::Unit, 2, 3),
            rec(0, Op::Pop, RetVal::Val(2), 4, 5),
            rec(0, Op::Pop, RetVal::Val(1), 6, 7),
            rec(0, Op::Pop, RetVal::Empty, 8, 9),
        ];
        assert!(check_history(&SpecModel::Stack(Vec::new()), &h).is_ok());
    }

    #[test]
    fn fifo_order_violation_is_caught() {
        // Two sequential enqueues, then the *second* value dequeued first:
        // legal for a stack, illegal for a queue.
        let h = vec![
            rec(0, Op::Enqueue(1), RetVal::Unit, 0, 1),
            rec(0, Op::Enqueue(2), RetVal::Unit, 2, 3),
            rec(1, Op::Dequeue, RetVal::Val(2), 4, 5),
            rec(1, Op::Dequeue, RetVal::Val(1), 6, 7),
        ];
        assert!(check_history(&SpecModel::Fifo(VecDeque::new()), &h).is_err());
        let lifo = vec![
            rec(0, Op::Push(1), RetVal::Unit, 0, 1),
            rec(0, Op::Push(2), RetVal::Unit, 2, 3),
            rec(1, Op::Pop, RetVal::Val(2), 4, 5),
            rec(1, Op::Pop, RetVal::Val(1), 6, 7),
        ];
        assert!(check_history(&SpecModel::Stack(Vec::new()), &lifo).is_ok());
    }

    #[test]
    fn overlapping_ops_may_linearize_either_way() {
        // pop overlaps push(7): returning the value is legal (push first),
        // returning Empty is also legal (pop first).
        for ret in [RetVal::Val(7), RetVal::Empty] {
            let h = vec![
                rec(0, Op::Push(7), RetVal::Unit, 0, 3),
                rec(1, Op::Pop, ret, 1, 2),
            ];
            assert!(
                check_history(&SpecModel::Stack(Vec::new()), &h).is_ok(),
                "{ret:?}"
            );
        }
        // But a pop strictly *before* the push cannot see the value.
        let h = vec![
            rec(1, Op::Pop, RetVal::Val(7), 0, 1),
            rec(0, Op::Push(7), RetVal::Unit, 2, 3),
        ];
        assert!(check_history(&SpecModel::Stack(Vec::new()), &h).is_err());
    }

    #[test]
    fn map_history_must_agree_with_a_sequential_map() {
        let stocked = || SpecModel::Map(BTreeMap::from([(2, 20), (4, 40)]));
        // A lookup overlapping the insert may miss it or hit it; the remove
        // of a stocked key hits.
        for seen in [RetVal::Empty, RetVal::Val(30)] {
            let h = vec![
                rec(0, Op::Remove(2), RetVal::Val(1), 0, 5),
                rec(1, Op::Insert(3, 30), RetVal::Unit, 1, 4),
                rec(2, Op::Lookup(3), seen, 2, 3),
            ];
            assert!(check_history(&stocked(), &h).is_ok(), "{seen:?}");
        }
        // A lookup after the insert returned cannot miss it, and a remove
        // cannot miss a key nobody else removes.
        let late_miss = vec![
            rec(1, Op::Insert(3, 30), RetVal::Unit, 0, 1),
            rec(2, Op::Lookup(3), RetVal::Empty, 2, 3),
        ];
        assert!(check_history(&stocked(), &late_miss).is_err());
        let lost_remove = vec![rec(0, Op::Remove(2), RetVal::Val(0), 0, 1)];
        assert!(check_history(&stocked(), &lost_remove).is_err());
    }

    #[test]
    fn lost_update_sum_is_not_linearizable() {
        // Two adds both completed, but a later read sees only one of them.
        let one = 1f64.to_bits();
        let h = vec![
            rec(0, Op::AddF(one), RetVal::Unit, 0, 1),
            rec(1, Op::AddF(one), RetVal::Unit, 2, 3),
            rec(2, Op::LoadF, RetVal::Val(one), 4, 5),
        ];
        assert!(check_history(&SpecModel::SumF64(0f64.to_bits()), &h).is_err());
    }

    #[test]
    fn ticket_spec_dispenses_consecutively() {
        let h = vec![
            rec(0, Op::Next, RetVal::Val(0), 0, 1),
            rec(1, Op::Next, RetVal::Val(1), 2, 3),
            rec(0, Op::Next, RetVal::Empty, 4, 5),
        ];
        assert!(check_history(&SpecModel::Ticket { total: 2, next: 0 }, &h).is_ok());
        let dup = vec![
            rec(0, Op::Next, RetVal::Val(0), 0, 1),
            rec(1, Op::Next, RetVal::Val(0), 2, 3),
        ];
        assert!(check_history(&SpecModel::Ticket { total: 2, next: 0 }, &dup).is_err());
    }
}
