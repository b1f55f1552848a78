#![warn(missing_docs)]

//! Graph-analytics benchmarks built on Masked SpGEMM (paper Section 7):
//! Triangle Counting, k-truss, Betweenness Centrality, BFS, similarity,
//! and engine-planned SSSP.
//!
//! Every application is **one implementation with two product adapters**:
//! a crate-private function holds the algorithm (validation, loop, glue,
//! result) and takes its masked products as closures, which the public
//! entry points supply. The **direct adapters** (`ktruss`, ...) run a
//! caller-chosen [`Scheme`] (our six algorithms × 1P/2P, the hybrid, or
//! the SS:GB-like baselines) on CSR/CSC operands, so the harnesses in
//! `crates/bench` can sweep them. The **engine adapters** (`*_auto`)
//! stage their operands in scratch handles of an [`engine::Context`],
//! removed before they return (errors included), and plan each product
//! per iteration from cached statistics. That pays off in iterative runs:
//!
//! * k-truss builds a CSC copy of the current edge set only when the plan
//!   pulls, and consecutive peels in the same nnz regime reuse the plan
//!   cached under their structural fingerprint class;
//! * betweenness centrality caches `Aᵀ` and the CSC copies on the
//!   adjacency handle, reused across levels, calls, and repetitions;
//! * repeated runs over one graph reuse every cached auxiliary.
//!
//! Both adapters return bit-identical results: the engine changes *which*
//! kernel runs and *what* is recomputed, never the arithmetic. Caller
//! errors (non-square adjacency, bad sources, `k < 3`) come back as
//! [`sparse::SparseError`]s, except from the infallible [`fn@bfs`], which
//! panics. Serial textbook implementations in
//! [`mod@reference`] validate every benchmark end-to-end.

use sparse::{Idx, SparseError};

pub mod bc;
pub mod bfs;
pub mod ktruss;
pub mod reference;
pub mod scheme;
pub mod similarity;
mod sssp;
pub mod triangle;

pub use bc::{betweenness_centrality, betweenness_centrality_auto, BcResult};
pub use bfs::{bfs, bfs_auto, bfs_auto_with_value, BfsResult, Direction};
pub use ktruss::{ktruss, ktruss_auto, KtrussResult};
pub use scheme::Scheme;
pub use similarity::{masked_cosine_similarity, masked_cosine_similarity_auto};
pub use sssp::sssp_auto;
pub use triangle::{prepare_triangle_input, triangle_count, triangle_count_auto};

/// Validate a traversal's adjacency `shape` and its `sources`: the
/// adjacency must be square and every source a vertex of it. Returns the
/// vertex count.
pub(crate) fn check_sources(
    op: &'static str,
    shape: (usize, usize),
    sources: &[Idx],
) -> Result<usize, SparseError> {
    let n = shape.0;
    if shape.1 != n {
        return Err(SparseError::DimMismatch {
            op,
            lhs: shape,
            rhs: (n, n),
        });
    }
    match sources.iter().position(|&s| s as usize >= n) {
        Some(row) => Err(SparseError::IndexOutOfRange {
            row,
            index: sources[row],
            dim: n,
        }),
        None => Ok(n),
    }
}

#[cfg(test)]
#[path = "auto_tests.rs"]
mod auto;
