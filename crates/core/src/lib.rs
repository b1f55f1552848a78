#![warn(missing_docs)]

//! # masked-spgemm
//!
//! Parallel algorithms for **masked sparse matrix-matrix products**
//! (`C = M ⊙ (A·B)` and `C = ¬M ⊙ (A·B)`), reproducing
//! *“Parallel Algorithms for Masked Sparse Matrix-Matrix Products”*
//! (Milaković, Selvitopi, Nisa, Budimlić, Buluç — ICPP 2022,
//! arXiv:2111.09947).
//!
//! The mask `M` restricts which output entries are computed: only positions
//! where `M` has a stored entry (or, complemented, where it has none) may
//! appear in `C`, and a good algorithm exploits this *during* the
//! multiplication rather than filtering afterwards.
//!
//! ## Algorithms
//!
//! Six row-parallel algorithms are provided (see [`Algorithm`]):
//!
//! * **push-based** Gustavson row-by-row with four accumulators —
//!   [`Algorithm::Msa`] (masked sparse accumulator: dense state/value
//!   arrays), [`Algorithm::Hash`] (open-addressing hash, load factor 0.25),
//!   [`Algorithm::Mca`] (mask-compressed accumulator, the paper's novel
//!   structure sized `nnz(mask row)`), and [`Algorithm::Heap`] /
//!   [`Algorithm::HeapDot`] (k-way merge heap with `NInspect` = 1 / ∞);
//! * **pull-based** [`Algorithm::Inner`] — one sorted-merge dot product per
//!   unmasked output position, with `B` accessed column-major.
//!
//! Each runs in **one phase** (single numeric pass) or **two phases**
//! (symbolic nonzero count, then numeric), and — except MCA — with a
//! **complemented** mask.
//!
//! ## Quick example
//!
//! ```
//! use masked_spgemm::{masked_spgemm, Algorithm, Phases};
//! use sparse::{CsrMatrix, PlusTimes};
//!
//! // A = B = 2x2 with a full off-diagonal, mask keeps only (0,1).
//! let a = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![2.0, 3.0]).unwrap();
//! let mask = CsrMatrix::try_new(2, 2, vec![0, 1, 1], vec![1], vec![()]).unwrap();
//! let c = masked_spgemm(
//!     Algorithm::Msa,
//!     Phases::One,
//!     false,
//!     PlusTimes::<f64>::new(),
//!     &mask,
//!     &a,
//!     &a,
//! )
//! .unwrap();
//! assert_eq!(c.nnz(), 0); // (A·A)(0,1) = 0 products at (0,1): A(0,1)*A(1,1) missing
//! ```

pub mod accum;
pub mod algos;
pub mod api;
pub mod dynsr;
pub mod estimate;
pub mod exec;
pub mod hybrid;
pub mod kernel;
pub mod scratch;
pub mod spgevm;

pub use api::{masked_spgemm, masked_spgemm_csc, Algorithm, Choice, Phases};
pub use dynsr::{DynLane, LaneValue, SemiringKind, ValueKind};
pub use estimate::{flops, flops_masked, flops_per_row};
pub use exec::thread_pool;
pub use hybrid::{hybrid_choices, hybrid_masked_spgemm, HybridConfig};
pub use scratch::{KernelScratch, ScratchSet, WorkerLocal};
pub use spgevm::{masked_spgevm, masked_spgevm_csc};
