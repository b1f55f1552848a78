#![warn(missing_docs)]

//! Sparse matrix substrate for the Masked SpGEMM reproduction.
//!
//! This crate provides the storage formats and elementary kernels the paper's
//! algorithms are built on: CSR/CSC/COO matrices, semiring abstraction,
//! conversions, transpose, triangular extraction, element-wise operations,
//! reductions, permutations, and Matrix Market I/O.
//!
//! Indices are `u32` ([`Idx`]), row pointers are `usize`, values are generic.
//! All structural invariants (monotone row pointers, in-range and per-row
//! sorted column indices) are enforced at construction time by
//! [`CsrMatrix::try_new`] and friends; kernels may then rely on them.

pub mod coo;
pub mod csc;
pub mod csr;
pub mod degree;
pub mod dense;
pub mod error;
pub mod ewise;
pub mod index;
pub mod io;
pub mod permute;
pub mod reduce;
pub mod semiring;
pub mod spvec;
pub mod transpose;
pub mod triangular;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use index::Idx;
pub use semiring::{BoolAndOr, MinPlus, PlusFirst, PlusPair, PlusSecond, PlusTimes, Semiring};
pub use spvec::SparseVec;
