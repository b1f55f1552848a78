#![warn(missing_docs)]

//! Planning and batch-execution engine for masked SpGEMM workloads.
//!
//! The kernels in `masked-spgemm` answer *how* to run one masked multiply;
//! this crate answers *which* kernel to run and *what to keep* between
//! calls. The paper's evaluation (and its Section 9 future work on hybrid
//! execution) shows the best algorithm depends on mask density and matrix
//! structure — so iterative workloads like k-truss peeling and batched
//! betweenness centrality, which issue hundreds of masked multiplies over
//! slowly-evolving operands, want a layer that:
//!
//! * **describes operations first-class** — a [`MaskedOp`] (built with the
//!   fluent [`OpBuilder`] from [`Context::op`]) carries operands, mask
//!   polarity, a runtime [`SemiringKind`], optional algorithm/phase
//!   overrides, and an accumulation mode, decoupling *what* to compute
//!   from *how* it runs;
//! * **stores matrices natively typed** — the registry holds each matrix
//!   on its own value lane ([`ValueMat`]: `bool`, `i64`, or `f64` via
//!   [`Context::insert_typed`]; the historical [`Context::insert`] is the
//!   `f64` case), so a boolean adjacency costs 1 byte/nnz and is consumed
//!   zero-copy by `bool`-lane operations, with cross-lane *casts* demoted
//!   to on-demand, byte-budgeted auxiliaries;
//! * **stores a vector as its one-row matrix** — a vector registered with
//!   [`Context::insert_vec`] is a `1 × dim` entry of the same registry,
//!   and a vector op ([`Context::vec_op`]) is the one-row matrix product:
//!   it is validated, planned, run and merged down the matrix op's one
//!   path, and only its delivered form ([`OpOutput`]'s vector variants)
//!   differs;
//! * **caches auxiliaries per matrix** — per-lane CSC forms and cast views,
//!   native-lane transposes, degree vectors and row statistics are
//!   computed lazily, reused until the matrix changes
//!   ([`Context::insert`] / [`Context::update`] / [`Context::update_typed`],
//!   which invalidates every lane's slots), and evicted
//!   least-recently-used under a byte budget ([`Context::set_aux_budget`]);
//! * **plans per operation** — [`Context::plan`] aggregates the per-row
//!   cost model over cached statistics and picks a fixed algorithm or the
//!   per-row hybrid ([`Plan`]); plans are cached under structural
//!   *fingerprint classes* ([`Context::plan_fingerprint`]), so
//!   structurally-similar versions (k-truss peels) reuse plans without
//!   re-planning at all;
//! * **calibrates the serial cutoff** — [`Context::calibrate`] measures
//!   the pool's dispatch cost against a flop on this machine and installs
//!   the flop count below which products run on the calling thread (the
//!   cost model itself, [`HybridConfig`], is a committed default);
//! * **streams heterogeneous batches** — [`Context::for_each_result`] runs
//!   many independent multiplies concurrently (one worker per product,
//!   per-worker reused kernel scratch), mixing semirings freely, and hands
//!   each result to a [`ResultSink`] as it finishes instead of keeping
//!   every output resident ([`Context::run_batch_collect`] collects when
//!   you do want them all).
//!
//! ```
//! use engine::{Context, SemiringKind};
//! use sparse::CsrMatrix;
//!
//! let ctx = Context::with_threads(2);
//! let a = ctx.insert(CsrMatrix::diagonal(8, 2.0));
//! let m = ctx.insert(CsrMatrix::diagonal(8, 1.0));
//!
//! // One planned multiply…
//! let c = ctx.op(m, a, a).run().unwrap();
//! assert_eq!(c.get(3, 3), Some(&4.0));
//!
//! // …and a streamed batch mixing two semirings over the same operands.
//! let ops = vec![
//!     ctx.op(m, a, a).build(),
//!     ctx.op(m, a, a).semiring(SemiringKind::PlusPair).build(),
//!     ctx.op(m, a, a).semiring(SemiringKind::MinPlus).build(),
//! ];
//! let mut done = 0;
//! ctx.for_each_result(&ops, |_i, r: Result<CsrMatrix<f64>, _>| {
//!     r.unwrap();
//!     done += 1;
//! });
//! assert_eq!(done, 3);
//! ```

mod batch;
mod calibrate;
mod context;
mod lane;
mod op;
mod plan;

pub use calibrate::Calibration;
pub use context::{
    AuxCacheStats, AuxStatus, Context, MatrixHandle, MatrixStats, PlanCacheStats, ValueMat,
    ValueVec, VectorHandle,
};
pub use masked_spgemm::{
    Algorithm, DynLane, HybridConfig, LaneValue, Phases, SemiringKind, ValueKind,
};
pub use op::{
    AccumMode, AccumMonoid, AccumTarget, FromOpOutput, MaskedOp, OpBuilder, OpOutput, Operands,
    ResultSink,
};
/// The uniform error strings of the lane/operand validation surface, for
/// callers that match on [`sparse::SparseError::Unsupported`] payloads.
pub mod op_errors {
    pub use crate::op::{
        ACCUM_MONOID_LANE_MISMATCH, ACCUM_TARGET_MISMATCH, OPERAND_LANE_MISMATCH,
        OUTPUT_KIND_MISMATCH, SEMIRING_LANE_UNSUPPORTED,
    };
}
pub use plan::{Choice, CostBreakdown, Plan};
