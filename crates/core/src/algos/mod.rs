//! Row-kernel implementations of the paper's algorithms (Section 5).
//!
//! * [`MsaKernel`] — masked sparse accumulator (Section 5.2);
//! * [`HashKernel`] — hash accumulator (Section 5.3);
//! * [`McaKernel`] — mask-compressed accumulator (Section 5.4);
//! * [`HeapKernel`] — k-way merge heap with configurable `NInspect`
//!   (Section 5.5);
//! * [`inner`] — the pull-based dot-product algorithm (Section 4.1), which
//!   reads `B` in CSC form; the drivers run it through its own row producer.

mod hash;
mod heap;
pub mod inner;
mod mca;
mod msa;

pub use hash::HashKernel;
pub use heap::{ninspect, HeapKernel, NInspect};
pub use mca::McaKernel;
pub use msa::MsaKernel;
