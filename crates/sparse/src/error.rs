//! Error type for structural validation and I/O.

use std::fmt;

/// Errors produced when constructing or parsing sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Row-pointer array has the wrong length (must be `nrows + 1`).
    RowPtrLength {
        /// Expected length (`nrows + 1`).
        expected: usize,
        /// Length actually provided.
        got: usize,
    },
    /// Row pointers are not monotonically non-decreasing.
    RowPtrNotMonotone {
        /// First row at which the pointers decrease.
        row: usize,
    },
    /// Row pointers do not start at zero.
    RowPtrStart,
    /// Last row pointer does not equal the number of stored entries.
    RowPtrEnd {
        /// The index-array length the last pointer must equal.
        expected: usize,
        /// Value of the last row pointer.
        got: usize,
    },
    /// Column index out of range.
    IndexOutOfRange {
        /// Row containing the offending index.
        row: usize,
        /// The offending index.
        index: u32,
        /// Exclusive bound the index must stay below.
        dim: usize,
    },
    /// Column indices within a row are not strictly increasing.
    UnsortedRow {
        /// First offending row.
        row: usize,
    },
    /// `values` and `indices` length mismatch.
    ValueLength {
        /// Index-array length.
        expected: usize,
        /// Value-array length actually provided.
        got: usize,
    },
    /// Dimension exceeds the `u32` index space.
    DimensionTooLarge {
        /// The oversized dimension.
        dim: usize,
    },
    /// Dimension mismatch between operands of a binary operation.
    DimMismatch {
        /// Operation name, for the error message.
        op: &'static str,
        /// Left operand shape.
        lhs: (usize, usize),
        /// Right operand shape (or the shape it was required to have).
        rhs: (usize, usize),
    },
    /// Operation not supported by the selected algorithm/configuration.
    Unsupported(&'static str),
    /// Matrix Market parse error with line number and message.
    Parse {
        /// 1-based line number in the input stream (0 = whole file).
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// I/O error (stringified; `std::io::Error` is not `Clone`).
    Io(String),
    /// A handle that names no registered matrix or vector (never
    /// registered, or removed).
    UnknownHandle,
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::RowPtrLength { expected, got } => {
                write!(f, "row pointer array length {got}, expected {expected}")
            }
            SparseError::RowPtrNotMonotone { row } => {
                write!(f, "row pointers decrease at row {row}")
            }
            SparseError::RowPtrStart => write!(f, "row pointers must start at 0"),
            SparseError::RowPtrEnd { expected, got } => {
                write!(f, "last row pointer is {got}, expected nnz {expected}")
            }
            SparseError::IndexOutOfRange { row, index, dim } => {
                write!(f, "index {index} out of range {dim} in row {row}")
            }
            SparseError::UnsortedRow { row } => {
                write!(f, "column indices not strictly increasing in row {row}")
            }
            SparseError::ValueLength { expected, got } => {
                write!(f, "values length {got}, expected {expected}")
            }
            SparseError::DimensionTooLarge { dim } => {
                write!(f, "dimension {dim} exceeds u32 index space")
            }
            SparseError::DimMismatch { op, lhs, rhs } => {
                write!(f, "{op}: dimension mismatch {lhs:?} vs {rhs:?}")
            }
            SparseError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            SparseError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            SparseError::Io(msg) => write!(f, "io error: {msg}"),
            SparseError::UnknownHandle => write!(f, "handle not registered"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}
