//! Heap node shared by the dynamic pools.

use splash4_parmacs::atomics::{Atomics, DataCell, Word};
use std::ptr;

/// One linked node. `value` is `None` for queue dummies and for nodes whose
/// payload was already taken by the unique dequeue/pop winner.
pub(crate) struct Node<T, A: Atomics> {
    /// Plain data: written before the node is published, taken by the one
    /// thread whose linearizing CAS won it.
    pub(crate) value: A::Cell<Option<T>>,
    pub(crate) next: A::Ptr<Node<T, A>>,
}

impl<T, A: Atomics> Node<T, A> {
    /// Allocate a node holding `value`, its cell and link named `names` for
    /// the model checker; the caller owns the raw pointer.
    pub(crate) fn boxed(names: [&'static str; 2], value: Option<T>) -> *mut Node<T, A> {
        A::alloc(Node {
            value: A::Cell::new(names[0], value),
            next: A::Ptr::new(names[1], ptr::null_mut()),
        })
    }

    /// Type-erased destructor handed to [`Reclaimer::retire`].
    ///
    /// # Safety
    /// `p` must be an owned `Node::<T, A>::boxed` allocation, destroyed only
    /// once.
    ///
    /// [`Reclaimer::retire`]: crate::Reclaimer::retire
    pub(crate) unsafe fn drop_erased(p: *mut u8) {
        // SAFETY: forwarded contract — `p` came from `Node::<T, A>::boxed`.
        unsafe { A::free(p.cast::<Node<T, A>>()) };
    }

    /// Take the payload out of `p`.
    ///
    /// # Safety
    /// The caller must hold the unique take right (it won the linearizing
    /// CAS) and `p` must be protected from destruction.
    pub(crate) unsafe fn take_value(p: *mut Node<T, A>) -> Option<T> {
        // SAFETY: unique take right per the contract; no other thread
        // accesses `value` concurrently.
        unsafe { (*p).value.with_mut(Option::take) }
    }

    /// Free the chain starting at `p`, dropping the payloads still in it.
    ///
    /// # Safety
    /// The caller must own every node of the chain exclusively (a pool's
    /// `Drop`).
    pub(crate) unsafe fn free_chain(mut p: *mut Node<T, A>) {
        while !p.is_null() {
            // SAFETY: exclusive ownership per the contract; each node is
            // read, then freed once.
            unsafe {
                let next = (*p).next.load_mut();
                A::free(p);
                p = next;
            }
        }
    }
}
