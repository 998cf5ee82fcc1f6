//! Per-thread scratch buffers for the GED kernels.
//!
//! The bipartite solvers build an `(n1 + n2)²` cost matrix and a set of
//! row/column working arrays on every call; routing evaluates thousands of
//! candidate distances per query, so those allocations dominated the
//! kernel profile. [`GedScratch`] owns all of them and is reused through a
//! `thread_local` (mirroring `lan-models`' `InferScratch`), so the steady
//! state allocates nothing.
//!
//! Every user reinitializes the buffers it touches to exactly the values
//! the allocating path starts from, so scratch reuse is bit-identical to
//! fresh allocation (property-tested in [`crate::assignment`] and
//! [`crate::bipartite`]).

use crate::assignment::{AssignScratch, CostMatrix};
use lan_graph::Label;
use std::cell::RefCell;

/// Reusable buffers for one thread's GED computations.
#[derive(Debug)]
pub struct GedScratch {
    /// LSAP solver working arrays (Hungarian + LAPJV).
    pub assign: AssignScratch,
    /// Riesen–Bunke cost matrix.
    pub cost: CostMatrix,
    /// Sorted neighbor labels of the current `g1` row node.
    pub nu: Vec<Label>,
    /// Sorted neighbor labels of every `g2` node, concatenated; node `w`'s
    /// list is `nw[nw_off[w]..nw_off[w + 1]]`.
    pub nw: Vec<Label>,
    pub(crate) nw_off: Vec<usize>,
}

impl GedScratch {
    pub fn new() -> Self {
        GedScratch {
            assign: AssignScratch::new(),
            cost: CostMatrix::zeros(0),
            nu: Vec::new(),
            nw: Vec::new(),
            nw_off: Vec::new(),
        }
    }
}

impl Default for GedScratch {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static SCRATCH: RefCell<GedScratch> = RefCell::new(GedScratch::new());
}

/// Runs `f` with this thread's [`GedScratch`].
///
/// Not reentrant: `f` must not call `with_scratch` again (the kernels take
/// the scratch as an explicit parameter below the entry points, so this
/// cannot happen from within this crate).
pub fn with_scratch<R>(f: impl FnOnce(&mut GedScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
