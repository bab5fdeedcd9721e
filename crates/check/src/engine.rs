//! Deterministic cooperative execution engine.
//!
//! A *scenario* is a handful of virtual threads operating on the shipped
//! constructs (through [`crate::model::Model`]) or on raw engine cells.
//! Virtual thread *t* runs on worker *t* of its explorer's `Workers`: OS
//! threads that are started once, parked between executions and joined with
//! the explorer, on the one CPU the explorer is on. Only ever one of them
//! runs — the one holding the **token**. Every shared-memory operation
//! (`ThreadCtx::op_load` & co.) is a **schedule point**: the token holder
//! records its own status, picks — via a `Driver`, under the one state
//! lock — who performs the next operation, and either keeps running (it
//! picked itself: no thread switch at all) or unparks exactly the chosen
//! worker and parks until the token comes back. There is no scheduler
//! thread: the thread that arrives runs the scheduling step itself, so a
//! modelled operation costs at most one hand-off between OS threads, and an
//! execution costs its hand-offs plus the one wake-up that tells the
//! explorer it is over. All nondeterminism is funnelled through the driver,
//! so a sequence of driver choices *is* a schedule: replaying the same
//! choices reproduces the same execution bit for bit.
//!
//! On top of the interleaving semantics the engine models the C11 ordering
//! annotations with vector clocks: release stores/RMWs publish the writer's
//! clock on the location, acquire loads join it, and plain-data accesses
//! (`ThreadCtx::data_read`/`ThreadCtx::data_write`) assert that they are
//! ordered by happens-before — an unordered pair is a **data race** and
//! fails the execution. Values stay sequentially consistent (the scheduler
//! serializes operations); weak-memory bugs surface as the races they would
//! cause, which is exactly how they corrupt real executions.
//!
//! Blocking (spin loops, lock waits) is modelled explicitly: a thread that
//! would spin parks on the location via `ThreadCtx::block_on` and is
//! re-enabled by the next write to it. A thread that gives the token up and
//! finds every unfinished thread parked on a location reports a **deadlock**
//! (which is also how lost wakeups surface, since a wakeup that never comes
//! leaves its waiter parked forever). A failure is the one event that wakes
//! everybody: each parked thread unwinds out of its body, so no body
//! outlives its execution, and no worker its explorer.
//!
//! The nodes a construct allocates through the facade are on record
//! (`Shared::alloc`), and one it frees (`Shared::free`) stays allocated —
//! **quarantined** — so an address is never reused within an execution and
//! an operation on a word or cell of a freed node fails as a
//! **use-after-free** instead of being one. The free is also a write to the
//! node's cells: an earlier read it is unordered with is a data race. When
//! the execution ends every node on record is destroyed, freed or not, so a
//! failing execution, whose threads unwind mid-operation, leaks nothing.
//!
//! # Weak-memory exploration
//!
//! Under [`MemoryModel::Sc`] (the default) values are sequentially
//! consistent: every load returns the latest store, and ordering bugs
//! surface only as the data races they cause on *plain* data. Under
//! [`MemoryModel::Weak`] the engine additionally explores the stale values
//! the C11 orderings permit on the **atomics themselves**: every atomic
//! keeps its store history, and a non-`SeqCst` load may read any record the
//! happens-before relation and per-thread coherence admit — the choice is a
//! recorded [`Decision`] like a thread choice, so DFS/PCT enumerate value
//! outcomes exactly as they enumerate interleavings and a failing schedule
//! replays bit for bit. An acquire load that reads a release store joins
//! that *record's* published clock (not the location's latest), which is
//! what makes an `Acquire → Relaxed` downgrade observable even when the
//! sequentially consistent interleavings all pass: the stale read the
//! weakened ordering newly admits drives the scenario into an invariant
//! violation no SC schedule can reach. `SeqCst` loads and all RMWs still
//! read the latest record, and a per-execution stale-read budget keeps spin
//! loops terminating.

use crate::clock::VClock;
use crate::linearize::{Op, OpRecord, RetVal, SpecModel};
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// Why an execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Two plain-data accesses unordered by happens-before.
    DataRace {
        /// Description: location and the racing threads.
        what: String,
    },
    /// Every unfinished thread is parked with nobody left to wake it
    /// (covers lost wakeups: the missed signal leaves its waiter parked).
    Deadlock {
        /// Description of who is blocked on what.
        what: String,
    },
    /// A `ThreadCtx::check` or finale invariant did not hold.
    Invariant {
        /// The violated invariant.
        what: String,
    },
    /// The execution's history admits no legal linearization.
    NotLinearizable {
        /// Rendering of the offending history.
        what: String,
    },
    /// A word or cell was used, or freed again, after the allocation it
    /// lies in was freed through the facade.
    UseAfterFree {
        /// Description: the word, the accessing and the freeing thread.
        what: String,
    },
    /// The execution exceeded the step budget (runaway interleaving).
    StepLimit,
    /// A virtual thread panicked outside the engine's control.
    Panic {
        /// The panic payload, if printable.
        what: String,
    },
}

impl Failure {
    /// Stable short name of the failure class (used to compare failures
    /// during counterexample minimization and in report tables).
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::DataRace { .. } => "data-race",
            Failure::Deadlock { .. } => "deadlock",
            Failure::Invariant { .. } => "invariant",
            Failure::NotLinearizable { .. } => "not-linearizable",
            Failure::UseAfterFree { .. } => "use-after-free",
            Failure::StepLimit => "step-limit",
            Failure::Panic { .. } => "panic",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::DataRace { what }
            | Failure::Deadlock { what }
            | Failure::Invariant { what }
            | Failure::NotLinearizable { what }
            | Failure::UseAfterFree { what }
            | Failure::Panic { what } => write!(f, "{}: {}", self.kind(), what),
            Failure::StepLimit => write!(f, "step-limit exceeded"),
        }
    }
}

/// Scheduling status of a virtual thread, as of the last time it gave the
/// token up (the holder rewrites its own entry before every pick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// At a schedule point (or not yet started); eligible to run.
    Ready,
    /// Parked on a location; re-enabled by the next write to it.
    Blocked(usize),
    /// Body returned (or unwound during an abort).
    Finished,
}

/// Memory model the engine explores atomic values under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryModel {
    /// Sequentially consistent values: every load returns the latest store.
    /// Ordering bugs surface only as data races on plain data.
    #[default]
    Sc,
    /// C11-style weak values: a non-`SeqCst` load may additionally read any
    /// stale store record that happens-before and per-thread coherence
    /// admit. Each admissible-value choice is a recorded [`Decision`], so
    /// weak executions replay exactly like interleavings do.
    Weak {
        /// Stale-read budget per execution: once spent, loads return the
        /// latest record again (keeps spin loops terminating).
        stale_reads: u32,
    },
}

impl MemoryModel {
    fn is_weak(self) -> bool {
        matches!(self, MemoryModel::Weak { .. })
    }

    fn stale_budget(self) -> u32 {
        match self {
            MemoryModel::Sc => 0,
            MemoryModel::Weak { stale_reads } => stale_reads,
        }
    }
}

/// A structural bug the model injects at every word of one name
/// ([`Sandbox::fault`]). A spec override mutates *which ordering* an
/// operation carries, a fault *what the operation does*; either way the
/// construct under test stays the shipped code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// An RMW executes as load · schedule point · store, and a CAS stores
    /// without comparing: the lost-update window.
    Torn,
    /// A store, RMW or CAS reads the word and writes nothing: the forgotten
    /// update.
    Dropped,
}

/// Oldest-reachable cap on the admissible window of a weak load: a load may
/// look at most this many records back in the modification order. Bounds the
/// per-load branching factor the explorer has to enumerate.
const STALE_WINDOW: usize = 4;

/// One store in an atomic location's modification order (weak mode only).
#[derive(Debug)]
struct StoreRecord {
    value: u64,
    /// Release clock published with this store (empty after a relaxed store
    /// that broke the release chain).
    release: VClock,
    /// Writing thread, or `usize::MAX` for the initial value.
    writer: usize,
    /// Writer's own clock component at the write (pairs with `writer` to
    /// decide whether a reader already happens-after this record).
    at: u32,
}

/// Metadata for one shadow atomic location.
#[derive(Debug)]
struct AtomicMeta {
    name: &'static str,
    value: u64,
    /// Clock published by the last release store / joined by release RMWs.
    release: VClock,
    /// Modification order, oldest first. Maintained only in weak mode; the
    /// last record always mirrors `value`/`release`.
    history: Vec<StoreRecord>,
    /// Per-thread coherence floor: index of the newest record each thread
    /// has read or written here (reads never go backwards). Lazily sized.
    read_floor: Vec<usize>,
}

impl AtomicMeta {
    fn new(name: &'static str, init: u64, memory: MemoryModel) -> AtomicMeta {
        let mut word = AtomicMeta {
            name,
            value: init,
            release: VClock::default(),
            history: Vec::new(),
            read_floor: Vec::new(),
        };
        if memory.is_weak() {
            word.restart_history();
        }
        word
    }

    /// Make the current value the word's one record, which every thread may
    /// read: the value it is created with, or the one a write outside the
    /// schedule leaves.
    fn restart_history(&mut self) {
        self.history = vec![StoreRecord {
            value: self.value,
            release: self.release.clone(),
            writer: usize::MAX,
            at: 0,
        }];
        self.read_floor.clear();
    }
}

/// Metadata for one plain-data location.
#[derive(Debug)]
struct DataMeta {
    name: &'static str,
    value: u64,
    /// Last writer as (thread, its component at the write), if any.
    last_write: Option<(usize, u32)>,
    /// Per-thread component of each thread's latest read since that write.
    reads: Vec<u32>,
    /// Where the cell lives, once a virtual thread accessed it in place (0
    /// before): how a free finds the cells of its allocation.
    addr: usize,
}

/// A node allocated through the facade, destroyed when the execution ends.
struct Node {
    start: usize,
    end: usize,
    drop_fn: unsafe fn(*mut u8),
    /// Once freed (quarantined): by which virtual thread (`None`: set-up,
    /// finale or a drop).
    freed: Option<Option<usize>>,
}

// SAFETY: nodes are destroyed on any thread (`Atomics::free`'s contract).
unsafe impl Send for Node {}

impl Node {
    /// Who freed the node, if `addr` lies in it and it was freed.
    fn freed_at(&self, addr: usize) -> Option<String> {
        let by = self
            .freed
            .filter(|_| (self.start..self.end).contains(&addr))?;
        Some(by.map_or("the harness".into(), |t| format!("t{t}")))
    }
}

/// One recorded history event.
#[derive(Debug, Clone)]
pub(crate) enum HistEvent {
    Invoke(usize, Op),
    Return(usize, RetVal),
}

/// Mutable engine state, guarded by the single engine mutex.
struct EngineState {
    status: Vec<Status>,
    clocks: Vec<VClock>,
    atomics: Vec<AtomicMeta>,
    data: Vec<DataMeta>,
    /// The thread allowed to run; also the driver's `prev` at the next pick.
    token: Option<usize>,
    /// The worker each virtual thread runs on, so a hand-off wakes only the
    /// thread it hands to.
    wakers: Vec<Thread>,
    /// Token passes that woke another OS thread, the first grant included.
    handoffs: u64,
    driver: Box<dyn Driver>,
    decisions: Vec<Decision>,
    aborting: bool,
    failure: Option<Failure>,
    steps: u64,
    max_steps: u64,
    history: Vec<HistEvent>,
    memory: MemoryModel,
    /// Remaining stale reads this execution (weak mode only).
    stale_budget: u32,
    /// Ordering tables the scenario installed over the shipped ones.
    specs: Vec<Box<dyn Any + Send>>,
    /// Faults the scenario injects, by word name.
    faults: Vec<(&'static str, Fault)>,
    /// The nodes allocated through the facade, the quarantine among them.
    nodes: Vec<Node>,
}

impl EngineState {
    /// Take one branching decision through the driver and log it. `enabled`
    /// is a set of runnable threads, or the offsets `0..window` of a weak
    /// load's admissible records (0 = latest) — so every driver branches
    /// over values exactly as it branches over threads.
    fn choose(&mut self, enabled: Vec<usize>) -> usize {
        let chosen = self
            .driver
            .choose(self.decisions.len(), &enabled, self.token);
        debug_assert!(enabled.contains(&chosen), "driver chose outside `enabled`");
        self.decisions.push(Decision {
            enabled,
            prev: self.token,
            chosen,
        });
        chosen
    }

    /// Pass the token on. Called by the holder once it has recorded its own
    /// status: forced when one thread is runnable, a [`Decision`] when more
    /// are, a deadlock when none is but some thread is unfinished. Waking
    /// the new holder is the caller's part, once it has let go of the state.
    fn pick_next(&mut self) {
        let enabled: Vec<usize> = (0..self.status.len())
            .filter(|&t| self.status[t] == Status::Ready)
            .collect();
        let chosen = match enabled[..] {
            [] => {
                let blocked: Vec<String> = self
                    .status
                    .iter()
                    .enumerate()
                    .filter_map(|(t, s)| match s {
                        Status::Blocked(loc) => {
                            Some(format!("t{t} blocked on `{}`", self.atomics[*loc].name))
                        }
                        _ => None,
                    })
                    .collect();
                if !blocked.is_empty() {
                    self.abort(Failure::Deadlock {
                        what: blocked.join(", "),
                    });
                }
                return;
            }
            [only] => only,
            _ => self.choose(enabled),
        };
        self.token = Some(chosen);
    }

    /// Record the first failure and wake every parked thread to unwind.
    fn abort(&mut self, failure: Failure) {
        self.failure.get_or_insert(failure);
        self.aborting = true;
        self.wakers.iter().for_each(Thread::unpark);
    }
}

/// Shared engine handle: the state mutex every party serializes on.
pub(crate) struct Shared {
    state: Mutex<EngineState>,
}

/// Panic payload used to unwind virtual threads when an execution aborts.
struct AbortToken;

impl Shared {
    fn new(driver: Box<dyn Driver>, max_steps: u64, memory: MemoryModel) -> Shared {
        Shared {
            state: Mutex::new(EngineState {
                status: Vec::new(),
                clocks: Vec::new(),
                atomics: Vec::new(),
                data: Vec::new(),
                token: None,
                wakers: Vec::new(),
                handoffs: 0,
                driver,
                decisions: Vec::new(),
                aborting: false,
                failure: None,
                steps: 0,
                max_steps,
                history: Vec::new(),
                memory,
                stale_budget: memory.stale_budget(),
                specs: Vec::new(),
                faults: Vec::new(),
                nodes: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocate an atomic location; also reports the fault injected at
    /// `name`, if any. Not a schedule point.
    pub(crate) fn alloc_atomic(&self, name: &'static str, init: u64) -> (usize, Option<Fault>) {
        let mut st = self.lock();
        let meta = AtomicMeta::new(name, init, st.memory);
        st.atomics.push(meta);
        let fault = st.faults.iter().find(|(n, _)| *n == name).map(|(_, f)| *f);
        (st.atomics.len() - 1, fault)
    }

    /// Allocate a plain-data location. Not a schedule point.
    pub(crate) fn alloc_data(&self, name: &'static str, init: u64) -> usize {
        let mut st = self.lock();
        st.data.push(DataMeta {
            name,
            value: init,
            last_write: None,
            reads: Vec::new(),
            addr: 0,
        });
        st.data.len() - 1
    }

    /// Put the `size`-byte node at `ptr`, which `drop_fn` destroys, on
    /// record.
    pub(crate) fn alloc(&self, ptr: *mut u8, size: usize, drop_fn: unsafe fn(*mut u8)) {
        let (start, end) = (ptr as usize, ptr as usize + size);
        self.lock().nodes.push(Node {
            start,
            end,
            drop_fn,
            freed: None,
        });
    }

    /// Quarantine the node at `ptr`; `false` if it is not on record. From a
    /// virtual thread (`by`) this is a write to every cell of the node, and
    /// freeing it a second time fails the execution; outside one the second
    /// free is only ignored.
    pub(crate) fn free(&self, by: Option<&ThreadCtx>, ptr: *mut u8) -> bool {
        let mut st = self.lock();
        let Some(node) = st.nodes.iter_mut().find(|n| n.start == ptr as usize) else {
            return false;
        };
        let (start, end) = (node.start, node.end);
        if let Some(first) = node.freed_at(start) {
            let Some(ctx) = by else { return true };
            let what = format!("t{} frees memory {first} freed", ctx.tid);
            ctx.fail(&mut st, Failure::UseAfterFree { what });
        }
        node.freed = Some(by.map(|ctx| ctx.tid));
        if let Some(ctx) = by {
            for loc in 0..st.data.len() {
                if (start..end).contains(&st.data[loc].addr) {
                    ctx.write_to(&mut st, loc);
                }
            }
        }
        true
    }

    /// Destroy the nodes on record. They stay on it meanwhile: a payload's
    /// drop may free a node, which is then only marked, whichever comes first.
    fn release_nodes(&self) {
        let nth = |i: usize| self.lock().nodes.get(i).map(|n| (n.drop_fn, n.start));
        for i in 0.. {
            let Some((drop_fn, start)) = nth(i) else {
                break;
            };
            // SAFETY: `alloc` recorded `drop_fn` with the node's type, and
            // the record is walked once.
            unsafe { drop_fn(start as *mut u8) };
        }
        self.lock().nodes.clear();
    }

    /// Act on an atomic's current value outside the schedule (set-up,
    /// finale, drop): no step, no clock. Under weak memory what `f` leaves
    /// at set-up, before any virtual thread exists, is the word's only
    /// record — a construct stocked there is read as stocked, not as
    /// created. Later on nothing reads the history behind a direct write
    /// (the finale's loads are direct too), and it must not move under an
    /// exited thread's destructors, which run beside the schedule.
    pub(crate) fn raw<R>(&self, loc: usize, f: impl FnOnce(&mut u64) -> R) -> R {
        let mut st = self.lock();
        let set_up = st.memory.is_weak() && st.status.is_empty();
        let word = &mut st.atomics[loc];
        let result = f(&mut word.value);
        if set_up {
            word.restart_history();
        }
        result
    }

    /// The table of type `S` the scenario installed, if it installed one.
    pub(crate) fn installed_spec<S: Copy + 'static>(&self) -> Option<S> {
        let st = self.lock();
        st.specs.iter().find_map(|s| s.downcast_ref::<S>().copied())
    }
}

/// An execution as one OS thread sees it: building or finishing it (no
/// virtual thread), or running one of its virtual threads.
type Current = (Arc<Shared>, Option<ThreadCtx>);

thread_local! {
    /// The execution the calling OS thread is in: how the words and cells
    /// of [`crate::model::Model`], which the shipped constructs create and
    /// use with no engine handle, find the engine. A pointer to a value on
    /// the thread's stack, not the value: a thread-local with a destructor
    /// makes every fresh OS thread (a lone replay's workers still are)
    /// register it with the C runtime, once a tenth of an execution's wall.
    static CURRENT: Cell<*const Current> = const { Cell::new(ptr::null()) };
}

/// Keeps [`CURRENT`] pointing at a [`Current`] while it is borrowed.
struct Entered<'a>(PhantomData<&'a Current>);

impl<'a> Entered<'a> {
    fn new(here: &'a Current) -> Entered<'a> {
        CURRENT.set(here);
        Entered(PhantomData)
    }
}

impl Drop for Entered<'_> {
    fn drop(&mut self) {
        CURRENT.set(ptr::null());
    }
}

/// Run `f` on the calling OS thread's execution (`None` outside
/// [`run_one`]) and, inside one of its virtual threads, that thread's
/// context.
pub(crate) fn with_current<R>(
    f: impl FnOnce(Option<(&Arc<Shared>, Option<&ThreadCtx>)>) -> R,
) -> R {
    // SAFETY: `CURRENT` is non-null only while an `Entered` on this thread's
    // stack borrows the pointee, and `f` returns before that guard can drop.
    let here = unsafe { CURRENT.get().as_ref() };
    f(here.map(|(shared, ctx)| (shared, ctx.as_ref())))
}

/// Run `f` on the virtual thread the caller runs as: `None` during set-up
/// and finale, and while unwinding, when an operation must not wait for the
/// token.
pub(crate) fn with_running<R>(f: impl FnOnce(Option<&ThreadCtx>) -> R) -> R {
    if std::thread::panicking() {
        return f(None);
    }
    with_current(|c| f(c.and_then(|(_, ctx)| ctx)))
}

/// A decision taken at a branching schedule point.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Threads that were eligible (sorted ascending, length ≥ 2).
    pub enabled: Vec<usize>,
    /// The previously running thread, if any.
    pub prev: Option<usize>,
    /// The thread granted the next operation.
    pub chosen: usize,
}

/// Result of one execution.
#[derive(Debug)]
pub(crate) struct RunOutcome {
    pub decisions: Vec<Decision>,
    pub failure: Option<Failure>,
    pub history: Vec<OpRecord>,
    /// Modelled operations executed.
    pub steps: u64,
    /// Token passes that woke another OS thread (see `EngineState`).
    pub handoffs: u64,
}

/// Chooses the next thread at each branching schedule point. `Send`
/// because whichever virtual thread reaches the schedule point calls it.
pub(crate) trait Driver: Send {
    /// `idx` counts branching decisions from 0; `enabled` is sorted and has
    /// at least two entries; `prev` is the last thread that ran.
    fn choose(&mut self, idx: usize, enabled: &[usize], prev: Option<usize>) -> usize;
}

/// A virtual thread body, run once per execution under the scheduler.
type ThreadBody = Box<dyn FnOnce(&mut ThreadCtx) + Send>;

/// Handle a scenario builder uses to declare shadow state and threads.
pub struct Sandbox {
    shared: Arc<Shared>,
    threads: Vec<ThreadBody>,
    finale: Option<Box<dyn FnOnce() -> Result<(), String> + Send>>,
    spec: Option<SpecModel>,
}

impl fmt::Debug for Sandbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sandbox")
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl Sandbox {
    /// Add a virtual thread. Threads are numbered in registration order.
    pub fn thread(&mut self, body: impl FnOnce(&mut ThreadCtx) + Send + 'static) {
        self.threads.push(Box::new(body));
    }

    /// Invariant checked after all threads finished (runs outside the
    /// schedule; read shadow state through the `raw` accessors).
    pub fn finale(&mut self, f: impl FnOnce() -> Result<(), String> + Send + 'static) {
        self.finale = Some(Box::new(f));
    }

    /// Sequential spec the execution's recorded history must linearize to.
    pub fn spec(&mut self, spec: SpecModel) {
        self.spec = Some(spec);
    }

    /// Run the scenario's constructs with `spec` in place of the shipped
    /// table of its type: an ordering mutant is this with one field changed.
    pub fn override_spec<S: Copy + Send + 'static>(&mut self, spec: S) {
        self.shared.lock().specs.push(Box::new(spec));
    }

    /// Inject `fault` at every word named `cell` created from here on.
    pub fn fault(&mut self, cell: &'static str, fault: Fault) {
        self.shared.lock().faults.push((cell, fault));
    }

    pub(crate) fn alloc_atomic(&self, name: &'static str, init: u64) -> usize {
        self.shared.alloc_atomic(name, init).0
    }

    pub(crate) fn alloc_data(&self, name: &'static str, init: u64) -> usize {
        self.shared.alloc_data(name, init)
    }

    /// Read-only view of the final shadow memory, for finale invariants.
    pub fn peek(&self) -> Peek {
        Peek {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Read-only view of shadow memory after the threads finished. Handed to
/// [`Sandbox::finale`] closures to state whole-execution invariants.
#[derive(Clone)]
pub struct Peek {
    shared: Arc<Shared>,
}

impl fmt::Debug for Peek {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Peek").finish()
    }
}

impl Peek {
    pub(crate) fn atomic(&self, loc: usize) -> u64 {
        self.shared.lock().atomics[loc].value
    }

    pub(crate) fn data(&self, loc: usize) -> u64 {
        self.shared.lock().data[loc].value
    }

    /// Final values of the atomic words named `name`, in creation order —
    /// the way to a shipped construct's private words.
    pub fn words(&self, name: &str) -> Vec<u64> {
        let st = self.shared.lock();
        let named = st.atomics.iter().filter(|a| a.name == name);
        named.map(|a| a.value).collect()
    }
}

/// Per-thread handle used inside thread bodies to perform modelled
/// operations. Every `op_*` call is a schedule point.
#[derive(Clone)]
pub struct ThreadCtx {
    shared: Arc<Shared>,
    tid: usize,
}

impl fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx").field("tid", &self.tid).finish()
    }
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl ThreadCtx {
    /// This thread's index.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Park until this thread holds the token — the engine's only wait
    /// loop — or unwind if the execution aborted meanwhile. A wake-up is a
    /// permit, so one that lands between the check and the park is kept.
    fn await_token(&self) -> MutexGuard<'_, EngineState> {
        loop {
            let st = self.shared.lock();
            if st.aborting {
                drop(st);
                resume_unwind(Box::new(AbortToken));
            }
            if st.token == Some(self.tid) {
                return st;
            }
            drop(st);
            thread::park();
        }
    }

    /// Give the token up as `status` and pick the successor: the worker to
    /// wake, if that is another thread. The caller wakes it once it has let
    /// go of the state, so the woken thread never finds the lock taken.
    fn pass_token(&self, mut st: MutexGuard<'_, EngineState>, status: Status) -> Option<Thread> {
        st.status[self.tid] = status;
        st.pick_next();
        let next = st.token.filter(|&t| t != self.tid)?;
        st.handoffs += 1;
        Some(st.wakers[next].clone())
    }

    /// Give the token up as `status`, wake the successor, and return once
    /// the token is back (without parking, when the pick was this thread).
    fn hand_over(
        &self,
        st: MutexGuard<'_, EngineState>,
        status: Status,
    ) -> MutexGuard<'_, EngineState> {
        if let Some(next) = self.pass_token(st, status) {
            next.unpark();
        }
        self.await_token()
    }

    /// Record a failure and unwind every virtual thread.
    fn fail(&self, st: &mut EngineState, failure: Failure) -> ! {
        st.abort(failure);
        resume_unwind(Box::new(AbortToken));
    }

    /// Begin a modelled operation: take a scheduling turn, bump the step
    /// counter and this thread's clock, and return the locked state.
    fn begin_op(&self) -> MutexGuard<'_, EngineState> {
        let mut st = self.hand_over(self.shared.lock(), Status::Ready);
        st.steps += 1;
        if st.steps > st.max_steps {
            self.fail(&mut st, Failure::StepLimit);
        }
        let tid = self.tid;
        st.clocks[tid].tick(tid);
        st
    }

    fn wake_blocked_on(&self, st: &mut EngineState, loc: usize) {
        for s in st.status.iter_mut() {
            if *s == Status::Blocked(loc) {
                *s = Status::Ready;
            }
        }
    }

    /// Advance this thread's coherence floor on `loc` to `idx`.
    fn raise_floor(&self, st: &mut EngineState, loc: usize, idx: usize) {
        let floors = &mut st.atomics[loc].read_floor;
        if floors.len() <= self.tid {
            floors.resize(self.tid + 1, 0);
        }
        floors[self.tid] = floors[self.tid].max(idx);
    }

    /// Append the just-performed store to `loc`'s modification order (weak
    /// mode only) and pin the writer's floor to it: a thread never reads
    /// older than its own latest write.
    fn push_record(&self, st: &mut EngineState, loc: usize) {
        if !st.memory.is_weak() {
            return;
        }
        let rec = StoreRecord {
            value: st.atomics[loc].value,
            release: st.atomics[loc].release.clone(),
            writer: self.tid,
            at: st.clocks[self.tid].get(self.tid),
        };
        st.atomics[loc].history.push(rec);
        let latest = st.atomics[loc].history.len() - 1;
        self.raise_floor(st, loc, latest);
    }

    /// Weak-memory load: pick a record from the admissible window.
    ///
    /// The window runs from the newest record the reader is already bound to
    /// — the later of its coherence floor and its happens-before floor (the
    /// newest record whose writer's clock the reader has joined) — up to the
    /// latest, capped at [`STALE_WINDOW`]. `SeqCst` loads and an exhausted
    /// stale budget collapse the window to the latest record; a wider
    /// window is a branching decision, taken inline by the loading thread.
    fn weak_load(&self, mut st: MutexGuard<'_, EngineState>, loc: usize, ord: Ordering) -> u64 {
        let tid = self.tid;
        let latest = st.atomics[loc].history.len() - 1;
        let floor_coh = st.atomics[loc].read_floor.get(tid).copied().unwrap_or(0);
        let mut floor_hb = 0;
        for (i, rec) in st.atomics[loc].history.iter().enumerate().rev() {
            if rec.writer == usize::MAX
                || rec.writer == tid
                || st.clocks[tid].get(rec.writer) >= rec.at
            {
                floor_hb = i;
                break;
            }
        }
        let mut lo = floor_coh
            .max(floor_hb)
            .max(latest.saturating_sub(STALE_WINDOW - 1));
        if ord == Ordering::SeqCst || st.stale_budget == 0 {
            lo = latest;
        }
        let window = latest - lo + 1;
        let offset = if window > 1 {
            st.choose((0..window).collect())
        } else {
            0
        };
        let idx = latest - offset;
        if offset > 0 {
            st.stale_budget -= 1;
        }
        if is_acquire(ord) {
            let release = st.atomics[loc].history[idx].release.clone();
            st.clocks[tid].join(&release);
        }
        let value = st.atomics[loc].history[idx].value;
        self.raise_floor(&mut st, loc, idx);
        value
    }

    /// One poll of a bounded spin on `loc`: a load at which the thread
    /// offers its turn, so running another thread there is no preemption.
    pub(crate) fn op_poll(&self, loc: usize, ord: Ordering) -> u64 {
        // With no previous thread on record the pick starts afresh.
        self.shared.lock().token = None;
        self.op_load(loc, ord)
    }

    /// Fail as a use-after-free if the word (or, `data`, the cell) `loc`,
    /// which lives at `addr`, lies in memory freed in this execution.
    pub(crate) fn touch(&self, loc: usize, data: bool, addr: usize) {
        let mut st = self.shared.lock();
        let name = if data {
            st.data[loc].addr = addr;
            st.data[loc].name
        } else {
            st.atomics[loc].name
        };
        if let Some(by) = st.nodes.iter().find_map(|n| n.freed_at(addr)) {
            let what = format!("t{} touches `{name}` in memory {by} freed", self.tid);
            self.fail(&mut st, Failure::UseAfterFree { what });
        }
    }

    /// Atomic load with `ord` semantics.
    pub(crate) fn op_load(&self, loc: usize, ord: Ordering) -> u64 {
        let mut st = self.begin_op();
        if st.memory.is_weak() {
            return self.weak_load(st, loc, ord);
        }
        if is_acquire(ord) {
            let release = st.atomics[loc].release.clone();
            st.clocks[self.tid].join(&release);
        }
        st.atomics[loc].value
    }

    /// Atomic store with `ord` semantics.
    pub(crate) fn op_store(&self, loc: usize, v: u64, ord: Ordering) {
        let mut st = self.begin_op();
        st.atomics[loc].value = v;
        if is_release(ord) {
            st.atomics[loc].release = st.clocks[self.tid].clone();
        } else {
            // A relaxed store starts a new modification without carrying the
            // previous release chain.
            st.atomics[loc].release.clear();
        }
        self.push_record(&mut st, loc);
        self.wake_blocked_on(&mut st, loc);
    }

    /// Atomic read-modify-write; returns the previous value. RMWs always
    /// read the latest record (they act on the tail of the modification
    /// order, even under weak memory).
    pub(crate) fn op_rmw(&self, loc: usize, ord: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        let mut st = self.begin_op();
        if is_acquire(ord) {
            let release = st.atomics[loc].release.clone();
            st.clocks[self.tid].join(&release);
        }
        let old = st.atomics[loc].value;
        st.atomics[loc].value = f(old);
        if is_release(ord) {
            // RMWs extend the release sequence: join rather than replace.
            let clock = st.clocks[self.tid].clone();
            st.atomics[loc].release.join(&clock);
        }
        self.push_record(&mut st, loc);
        self.wake_blocked_on(&mut st, loc);
        old
    }

    /// Atomic compare-exchange; `Ok(previous)` on success, `Err(actual)`
    /// on failure (which is a load with `fail` ordering).
    pub(crate) fn op_cas(
        &self,
        loc: usize,
        expect: u64,
        new: u64,
        ok: Ordering,
        fail: Ordering,
    ) -> Result<u64, u64> {
        let mut st = self.begin_op();
        let cur = st.atomics[loc].value;
        if cur == expect {
            if is_acquire(ok) {
                let release = st.atomics[loc].release.clone();
                st.clocks[self.tid].join(&release);
            }
            st.atomics[loc].value = new;
            if is_release(ok) {
                let clock = st.clocks[self.tid].clone();
                st.atomics[loc].release.join(&clock);
            }
            self.push_record(&mut st, loc);
            self.wake_blocked_on(&mut st, loc);
            Ok(cur)
        } else {
            if is_acquire(fail) {
                let release = st.atomics[loc].release.clone();
                st.clocks[self.tid].join(&release);
            }
            // A failed CAS still observed the tail of the modification
            // order: pin the reader's coherence floor there (weak mode).
            if st.memory.is_weak() {
                let latest = st.atomics[loc].history.len() - 1;
                self.raise_floor(&mut st, loc, latest);
            }
            Err(cur)
        }
    }

    /// Park until another thread writes `loc` (spin-loop model). The caller
    /// re-checks its predicate after waking.
    pub(crate) fn block_on(&self, loc: usize) {
        let st = self.shared.lock();
        if st.memory.is_weak() {
            let latest = st.atomics[loc].history.len() - 1;
            let floor = st.atomics[loc]
                .read_floor
                .get(self.tid)
                .copied()
                .unwrap_or(0);
            if latest > floor {
                // A store this thread has not observed exists, so its last
                // (possibly stale) read does not justify parking: model a
                // spurious wake and let the caller re-check its predicate.
                // The stale budget guarantees the re-read eventually returns
                // the latest record, so this cannot spin forever.
                return;
            }
        }
        drop(self.hand_over(st, Status::Blocked(loc)));
    }

    /// Plain-data read with happens-before race checking. Not a schedule
    /// point (interleaving is fixed by the surrounding atomic operations).
    pub(crate) fn data_read(&self, loc: usize) -> u64 {
        let mut st = self.shared.lock();
        if let Some((w, at)) = st.data[loc].last_write {
            if w != self.tid && st.clocks[self.tid].get(w) < at {
                let what = format!(
                    "read of `{}` by t{} races with write by t{}",
                    st.data[loc].name, self.tid, w
                );
                self.fail(&mut st, Failure::DataRace { what });
            }
        }
        let epoch = st.clocks[self.tid].get(self.tid);
        if st.data[loc].reads.is_empty() {
            let n = st.clocks.len();
            st.data[loc].reads = vec![0; n];
        }
        let tid = self.tid;
        st.data[loc].reads[tid] = epoch;
        st.data[loc].value
    }

    /// Plain-data write with happens-before race checking.
    pub(crate) fn data_write(&self, loc: usize, v: u64) {
        let mut st = self.shared.lock();
        self.write_to(&mut st, loc);
        st.data[loc].value = v;
    }

    /// The race check and the bookkeeping of a write to `loc`.
    fn write_to(&self, st: &mut EngineState, loc: usize) {
        if let Some((w, at)) = st.data[loc].last_write {
            if w != self.tid && st.clocks[self.tid].get(w) < at {
                let what = format!(
                    "write of `{}` by t{} races with write by t{}",
                    st.data[loc].name, self.tid, w
                );
                self.fail(st, Failure::DataRace { what });
            }
        }
        for u in 0..st.clocks.len() {
            if u != self.tid
                && st.data[loc].reads.get(u).copied().unwrap_or(0) > st.clocks[self.tid].get(u)
            {
                let what = format!(
                    "write of `{}` by t{} races with read by t{}",
                    st.data[loc].name, self.tid, u
                );
                self.fail(st, Failure::DataRace { what });
            }
        }
        let epoch = st.clocks[self.tid].get(self.tid);
        st.data[loc].last_write = Some((self.tid, epoch));
        st.data[loc].reads.clear();
    }

    /// Record an operation invocation for the linearizability history.
    pub fn invoke(&self, op: Op) {
        let mut st = self.shared.lock();
        st.history.push(HistEvent::Invoke(self.tid, op));
    }

    /// Record the matching operation response.
    pub fn ret(&self, val: RetVal) {
        let mut st = self.shared.lock();
        st.history.push(HistEvent::Return(self.tid, val));
    }

    /// Assert a scenario invariant from inside a thread body; a violation
    /// fails the execution with a replayable schedule (use this instead of
    /// `assert!`, which would tear down the whole process).
    pub fn check(&self, cond: bool, what: &str) {
        if !cond {
            let mut st = self.shared.lock();
            let what = format!("t{}: {}", self.tid, what);
            self.fail(&mut st, Failure::Invariant { what });
        }
    }
}

/// Build the per-execution history records from the raw event log.
fn collect_history(events: &[HistEvent]) -> Vec<OpRecord> {
    let mut open: Vec<Option<(Op, usize)>> = Vec::new();
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            HistEvent::Invoke(tid, op) => {
                if open.len() <= *tid {
                    open.resize(*tid + 1, None);
                }
                open[*tid] = Some((*op, i));
            }
            HistEvent::Return(tid, val) => {
                if let Some((op, invoked)) = open.get_mut(*tid).and_then(Option::take) {
                    out.push(OpRecord {
                        tid: *tid,
                        op,
                        ret: *val,
                        invoked,
                        returned: i,
                    });
                }
            }
        }
    }
    out
}

/// What a worker runs in one execution: a virtual thread and its body.
type Job = (ThreadCtx, ThreadBody);
/// Where a worker finds it. Filling the box wakes nobody: the first token
/// pass to the worker does.
type JobBox = Arc<Mutex<Option<Job>>>;

/// What an explorer and its workers share besides their executions.
struct Gate {
    /// Virtual threads of the current execution still to report: a worker
    /// reports with nothing of the execution left on it.
    pending: AtomicUsize,
    /// Whom the last report wakes: the thread the set was made on.
    explorer: Thread,
    /// Set when the explorer is through with its workers.
    closed: AtomicBool,
}

/// The OS threads an explorer runs its virtual threads on: worker *t* is
/// virtual thread *t* of every execution, parked in between, and joined
/// when the set drops. Explorer and workers share one CPU while the set
/// lives: a worker inherits the mask its explorer narrowed (`affinity`).
pub(crate) struct Workers {
    threads: Vec<(JobBox, JoinHandle<()>)>,
    gate: Arc<Gate>,
    _cpu: crate::affinity::Pinned,
    /// Not `Send`: the gate wakes the thread the set was made on.
    _here: PhantomData<*const ()>,
}

impl Workers {
    pub(crate) fn new() -> Workers {
        let gate = Gate {
            pending: AtomicUsize::new(0),
            explorer: thread::current(),
            closed: AtomicBool::new(false),
        };
        Workers {
            threads: Vec::new(),
            gate: Arc::new(gate),
            _cpu: crate::affinity::pin_here(),
            _here: PhantomData,
        }
    }

    /// Run `bodies` as the virtual threads of `shared`'s execution, whose
    /// first pick is taken, and return when every one of them has reported.
    fn run(&mut self, shared: &Arc<Shared>, bodies: Vec<ThreadBody>) {
        while self.threads.len() < bodies.len() {
            let (jobs, gate) = (JobBox::default(), Arc::clone(&self.gate));
            let theirs = Arc::clone(&jobs);
            let handle = thread::spawn(move || {
                while !gate.closed.load(Ordering::Acquire) {
                    let job = theirs.lock().unwrap_or_else(PoisonError::into_inner).take();
                    let Some((ctx, body)) = job else {
                        thread::park();
                        continue;
                    };
                    ctx.run(body);
                    if gate.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        gate.explorer.unpark();
                    }
                }
            });
            self.threads.push((jobs, handle));
        }
        let workers = &self.threads[..bodies.len()];
        self.gate.pending.store(workers.len(), Ordering::Release);
        let mut st = shared.lock();
        st.wakers = workers.iter().map(|w| w.1.thread().clone()).collect();
        // Under the state lock, which a worker up early needs before it can
        // run: nobody passes the token to a thread whose body is not there.
        for (tid, (body, (jobs, _))) in bodies.into_iter().zip(workers).enumerate() {
            let shared = Arc::clone(shared);
            let job = Some((ThreadCtx { shared, tid }, body));
            *jobs.lock().unwrap_or_else(PoisonError::into_inner) = job;
        }
        st.handoffs += 1;
        let first = st.wakers[st.token.expect("the first pick is taken")].clone();
        drop(st);
        first.unpark();
        while self.gate.pending.load(Ordering::Acquire) != 0 {
            thread::park();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.gate.closed.store(true, Ordering::Release);
        for (_, handle) in self.threads.drain(..) {
            handle.thread().unpark();
            // A worker catches what its bodies throw: nothing to re-raise.
            let _ = handle.join();
        }
    }
}

impl ThreadCtx {
    /// Run `body` as this virtual thread, on the calling worker: wait for
    /// the token, run, pass the token on for good. An abort unwinds to here.
    fn run(mut self, body: ThreadBody) {
        let here = (Arc::clone(&self.shared), Some(self.clone()));
        let _entered = Entered::new(&here);
        // The exit-time pick runs the driver too, so it sits inside the
        // `catch_unwind`: a panic there must abort the execution like one in
        // the body, not strand the parked threads.
        let result = catch_unwind(AssertUnwindSafe(|| {
            drop(self.await_token());
            body(&mut self);
            if let Some(next) = self.pass_token(self.shared.lock(), Status::Finished) {
                next.unpark();
            }
        }));
        match result {
            Ok(()) => {}
            Err(payload) if payload.is::<AbortToken>() => {}
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                self.shared.lock().abort(Failure::Panic { what });
            }
        }
    }
}

/// Run one execution of the scenario under `driver`, on `workers`.
///
/// `factory` builds a fresh scenario (shadow state + thread bodies) each
/// call; the engine takes the first pick and hands each worker its body.
/// The virtual threads pass the token among themselves until the last one
/// finishes (or one fails); then come the finale and the linearizability
/// check, on the calling thread like the factory.
pub(crate) fn run_one(
    workers: &mut Workers,
    factory: &(dyn Fn(&mut Sandbox) + Sync),
    driver: Box<dyn Driver>,
    max_steps: u64,
    memory: MemoryModel,
) -> RunOutcome {
    let shared = Arc::new(Shared::new(driver, max_steps, memory));
    let here = (Arc::clone(&shared), None);
    let _entered = Entered::new(&here);
    let mut sandbox = Sandbox {
        shared: Arc::clone(&shared),
        threads: Vec::new(),
        finale: None,
        spec: None,
    };
    factory(&mut sandbox);
    let Sandbox {
        threads,
        finale,
        spec,
        ..
    } = sandbox;
    let n = threads.len();
    assert!(n > 0, "scenario needs at least one thread");
    {
        let mut st = shared.lock();
        st.status = vec![Status::Ready; n];
        // A thread's clock starts at its first tick, not at zero: the plain
        // accesses it makes before its first operation must be unordered
        // with a thread that has acquired nothing from it.
        st.clocks = vec![VClock::new(n); n];
        for (tid, clock) in st.clocks.iter_mut().enumerate() {
            clock.tick(tid);
        }
        // The first pick is taken before any worker has its body, and a body
        // runs only while it holds the token, so neither which worker wakes
        // first nor how fast can leak into the schedule.
        st.pick_next();
    }
    workers.run(&shared, threads);

    let (mut failure, history, steps, handoffs, decisions) = {
        let mut st = shared.lock();
        (
            st.failure.take(),
            std::mem::take(&mut st.history),
            st.steps,
            st.handoffs,
            std::mem::take(&mut st.decisions),
        )
    };
    let history = collect_history(&history);

    // Run or dropped, the finale is the last owner of what the scenario
    // built: past this statement every construct has died — inside the
    // execution, so what its `Drop` freed is still quarantined.
    if let Some(Err(what)) = finale.filter(|_| failure.is_none()).map(|f| f()) {
        failure = Some(Failure::Invariant { what });
    }
    shared.release_nodes();
    if failure.is_none() {
        if let Some(spec) = spec {
            if let Err(what) = crate::linearize::check_history(&spec, &history) {
                failure = Some(Failure::NotLinearizable { what });
            }
        }
    }

    RunOutcome {
        decisions,
        failure,
        history,
        steps,
        handoffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always continue the previous thread when possible.
    struct Sticky;
    impl Driver for Sticky {
        fn choose(&mut self, _idx: usize, enabled: &[usize], prev: Option<usize>) -> usize {
            match prev {
                Some(p) if enabled.contains(&p) => p,
                _ => enabled[0],
            }
        }
    }

    /// Follows a fixed list of choices, then the lowest enabled entry.
    struct Script(Vec<usize>);
    impl Driver for Script {
        fn choose(&mut self, idx: usize, enabled: &[usize], _prev: Option<usize>) -> usize {
            match self.0.get(idx) {
                Some(c) if enabled.contains(c) => *c,
                _ => enabled[0],
            }
        }
    }

    #[test]
    fn threads_that_never_overlap_decide_only_who_starts() {
        // t0 has no schedule point, so once it is picked every later step is
        // forced: it finishes, t1 is the only thread left. The initial pick
        // is the one branching decision two threads cannot avoid.
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                let x = sb.alloc_atomic("x", 0);
                let d = sb.alloc_data("cell", 0);
                sb.thread(move |ctx| ctx.data_write(d, 1));
                sb.thread(move |ctx| {
                    for _ in 0..3 {
                        ctx.op_rmw(x, Ordering::AcqRel, |v| v + 1);
                    }
                });
            },
            Box::new(Sticky),
            1000,
            MemoryModel::Sc,
        );
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert_eq!(out.steps, 3);
        let [first] = &out.decisions[..] else {
            panic!("forced steps were recorded: {:?}", out.decisions);
        };
        assert_eq!(
            (&first.enabled[..], first.prev, first.chosen),
            (&[0, 1][..], None, 0)
        );
    }

    #[test]
    fn value_window_choice_is_a_recorded_decision() {
        // Three records of `x` (initial, 1, 2) are admissible to t1's relaxed
        // load: the loading thread itself asks the driver, and the answer is
        // logged like a thread choice with the offsets as its enabled set.
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                let x = sb.alloc_atomic("x", 0);
                sb.thread(move |ctx| {
                    ctx.op_store(x, 1, Ordering::Relaxed);
                    ctx.op_store(x, 2, Ordering::Relaxed);
                });
                sb.thread(move |ctx| {
                    let v = ctx.op_load(x, Ordering::Relaxed);
                    ctx.check(v == 1, "offset 1 is the record before the latest");
                });
            },
            Box::new(Script(vec![0, 0, 0, 1])),
            1000,
            MemoryModel::Weak { stale_reads: 4 },
        );
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert_eq!(out.decisions.len(), 4, "{:?}", out.decisions);
        let value = &out.decisions[3];
        assert_eq!(
            (&value.enabled[..], value.prev, value.chosen),
            (&[0, 1, 2][..], Some(1), 1)
        );
    }

    #[test]
    fn a_failure_unwinds_every_parked_thread() {
        // When t0 fails, t1 is parked at a schedule point inside its body and
        // t2 is parked on `flag`; both must unwind (running their drops) and
        // exit before `run_one` returns.
        struct Unwound(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for Unwound {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let unwound = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&unwound);
        let out = run_one(
            &mut Workers::new(),
            &move |sb: &mut Sandbox| {
                let x = sb.alloc_atomic("x", 0);
                let flag = sb.alloc_atomic("flag", 0);
                let guard = |c: &Arc<_>| Unwound(Arc::clone(c));
                let (g0, g1, g2) = (guard(&counter), guard(&counter), guard(&counter));
                sb.thread(move |ctx| {
                    let _g = g0;
                    ctx.op_load(x, Ordering::Relaxed);
                    ctx.check(false, "boom");
                });
                sb.thread(move |ctx| {
                    let _g = g1;
                    ctx.op_load(x, Ordering::Relaxed);
                    ctx.op_load(x, Ordering::Relaxed);
                    unreachable!("t1 is never scheduled again");
                });
                sb.thread(move |ctx| {
                    let _g = g2;
                    while ctx.op_load(flag, Ordering::Acquire) == 0 {
                        ctx.block_on(flag);
                    }
                    unreachable!("nobody sets the flag");
                });
            },
            Box::new(Script(vec![2, 2, 1, 1, 0, 0])),
            1000,
            MemoryModel::Sc,
        );
        assert_eq!(
            out.failure,
            Some(Failure::Invariant {
                what: "t0: boom".into()
            })
        );
        assert_eq!(out.steps, 3, "t2's load, t1's first load, t0's load");
        assert_eq!(unwound.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_driver_panic_at_thread_exit_aborts_instead_of_hanging() {
        // No thread has a schedule point, so decision 1 is taken by t0 as it
        // exits, with t1 and t2 still parked at their initial wait.
        struct PanicsAt(usize);
        impl Driver for PanicsAt {
            fn choose(&mut self, idx: usize, enabled: &[usize], _prev: Option<usize>) -> usize {
                assert!(idx != self.0, "driver gave up");
                enabled[0]
            }
        }
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                for _ in 0..3 {
                    sb.thread(|_ctx| {});
                }
            },
            Box::new(PanicsAt(1)),
            1000,
            MemoryModel::Sc,
        );
        assert_eq!(
            out.failure,
            Some(Failure::Panic {
                what: "driver gave up".into()
            })
        );
        assert_eq!(out.decisions.len(), 1, "{:?}", out.decisions);
    }

    #[test]
    fn workers_outlive_a_failure_a_body_panic_and_a_driver_panic() {
        // One set of workers: each execution that ends badly — a failed
        // check with a thread parked mid-body and one blocked, a panicking
        // body, a driver that panics on the explorer's own thread at the
        // first pick — is followed by one that passes on the same threads.
        struct GivesUp;
        impl Driver for GivesUp {
            fn choose(&mut self, _idx: usize, _enabled: &[usize], _prev: Option<usize>) -> usize {
                panic!("driver gave up")
            }
        }
        fn scenario(t0: fn(&ThreadCtx)) -> impl Fn(&mut Sandbox) + Sync {
            move |sb: &mut Sandbox| {
                let x = sb.alloc_atomic("x", 0);
                let flag = sb.alloc_atomic("flag", 0);
                sb.thread(move |ctx| {
                    ctx.op_rmw(x, Ordering::AcqRel, |v| v + 1);
                    t0(ctx);
                    ctx.op_store(flag, 1, Ordering::Release);
                });
                sb.thread(move |ctx| {
                    ctx.op_rmw(x, Ordering::AcqRel, |v| v + 1);
                    ctx.op_rmw(x, Ordering::AcqRel, |v| v + 1);
                });
                sb.thread(move |ctx| {
                    while ctx.op_load(flag, Ordering::Acquire) == 0 {
                        ctx.block_on(flag);
                    }
                });
                let peek = sb.peek();
                sb.finale(move || (peek.atomic(x) == 3).then_some(()).ok_or("lost".into()));
            }
        }
        // t2 blocks, t1 stops mid-body, t0 runs to whatever `t0` does.
        let script = || Box::new(Script(vec![2, 2, 1, 1, 0, 0]));
        let cpus = crate::affinity::allowed();
        let mut workers = Workers::new();
        let passes = |workers: &mut Workers| {
            let out = run_one(workers, &scenario(|_| {}), script(), 1000, MemoryModel::Sc);
            assert_eq!((out.failure, out.steps), (None, 6));
        };
        passes(&mut workers);
        let fails = scenario(|ctx| ctx.check(false, "boom"));
        let out = run_one(&mut workers, &fails, script(), 1000, MemoryModel::Sc);
        let what = "t0: boom".into();
        assert_eq!(out.failure, Some(Failure::Invariant { what }));
        passes(&mut workers);
        let panics = scenario(|_| panic!("body gave up"));
        let out = run_one(&mut workers, &panics, script(), 1000, MemoryModel::Sc);
        let what = "body gave up".into();
        assert_eq!(out.failure, Some(Failure::Panic { what }));
        passes(&mut workers);
        let thrown = catch_unwind(AssertUnwindSafe(|| {
            let gives_up = Box::new(GivesUp);
            run_one(
                &mut workers,
                &scenario(|_| {}),
                gives_up,
                1000,
                MemoryModel::Sc,
            )
        }));
        assert!(thrown.is_err());
        passes(&mut workers);
        assert_eq!(workers.threads.len(), 3, "no worker was replaced");
        drop(workers);
        assert_eq!(crate::affinity::allowed(), cpus);
    }

    #[test]
    fn single_thread_runs_to_completion() {
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                let loc = sb.alloc_atomic("x", 0);
                sb.thread(move |ctx| {
                    ctx.op_store(loc, 7, Ordering::Release);
                    let v = ctx.op_load(loc, Ordering::Acquire);
                    ctx.check(v == 7, "stored value visible");
                });
            },
            Box::new(Sticky),
            1000,
            MemoryModel::Sc,
        );
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert_eq!(out.steps, 2);
        assert!(out.decisions.is_empty(), "one thread never branches");
    }

    #[test]
    fn unsynchronized_data_accesses_race() {
        // Two threads write the same plain cell with only relaxed atomics
        // between them: no interleaving orders the pair, so every schedule
        // must report the race.
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                let sync = sb.alloc_atomic("sync", 0);
                let d = sb.alloc_data("cell", 0);
                for v in 1..=2u64 {
                    sb.thread(move |ctx| {
                        ctx.op_rmw(sync, Ordering::Relaxed, |x| x + 1);
                        ctx.data_write(d, v);
                    });
                }
            },
            Box::new(Sticky),
            1000,
            MemoryModel::Sc,
        );
        assert!(
            matches!(out.failure, Some(Failure::DataRace { .. })),
            "{:?}",
            out.failure
        );
    }

    #[test]
    fn release_acquire_orders_data() {
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                let flag = sb.alloc_atomic("flag", 0);
                let d = sb.alloc_data("payload", 0);
                sb.thread(move |ctx| {
                    ctx.data_write(d, 42);
                    ctx.op_store(flag, 1, Ordering::Release);
                });
                sb.thread(move |ctx| {
                    while ctx.op_load(flag, Ordering::Acquire) == 0 {
                        ctx.block_on(flag);
                    }
                    let v = ctx.data_read(d);
                    ctx.check(v == 42, "payload visible after acquire");
                });
            },
            Box::new(Sticky),
            1000,
            MemoryModel::Sc,
        );
        assert!(out.failure.is_none(), "{:?}", out.failure);
    }

    #[test]
    fn blocked_forever_is_a_deadlock() {
        let out = run_one(
            &mut Workers::new(),
            &|sb: &mut Sandbox| {
                let flag = sb.alloc_atomic("flag", 0);
                sb.thread(move |ctx| {
                    while ctx.op_load(flag, Ordering::Acquire) == 0 {
                        ctx.block_on(flag);
                    }
                });
            },
            Box::new(Sticky),
            1000,
            MemoryModel::Sc,
        );
        assert!(
            matches!(out.failure, Some(Failure::Deadlock { .. })),
            "{:?}",
            out.failure
        );
    }
}
