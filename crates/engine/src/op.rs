//! First-class operation descriptors: [`MaskedOp`], its fluent
//! [`OpBuilder`], the typed [`OpOutput`], and the [`ResultSink`] consumer
//! interface.
//!
//! The paper's central claim is that no single masked-SpGEMM scheme wins
//! everywhere — selection must happen *per operation*. The descriptor API
//! encodes that: a [`MaskedOp`] says **what** to compute and the
//! [`Context`](crate::Context) decides **how** (planner, cached
//! auxiliaries, worker scheduling). A descriptor carries:
//!
//! * [`Operands`] — either a matrix product `M ⊙ (A·B)` ([`Operands::MatMat`])
//!   or a vector-matrix product `m ⊙ (u·B)` ([`Operands::VecMat`], the
//!   frontier-expansion step of BFS-style traversals), planned as the
//!   one-row matrix product: the planner prices every family on that row,
//!   so Beamer's push/pull direction choice is one case of its choice;
//! * a runtime [`SemiringKind`] **and** a [`ValueKind`] lane — `bool`
//!   frontiers, exact `i64` counts, and `f64` products each run on
//!   kernels monomorphized for their lane and kind, and one batch can mix
//!   all three;
//! * an [`AccumMode`]: deliver the product as-is, or merge it into a
//!   registered matrix/vector with an [`AccumMonoid`] chosen independently
//!   of the multiply semiring (`add`, `min`, the semiring's own `add`, or
//!   a custom function) and deliver only the entries the merge changed.
//!
//! ```
//! use engine::{Context, OpOutput, SemiringKind, ValueKind};
//! use sparse::{CsrMatrix, SparseVec};
//!
//! let ctx = Context::with_threads(2);
//! let a = ctx.insert(CsrMatrix::diagonal(8, 2.0));
//! let m = ctx.insert(CsrMatrix::diagonal(8, 1.0));
//!
//! // One planned multiply…
//! let c = ctx.op(m, a, a).run().unwrap();
//! assert_eq!(c.get(3, 3), Some(&4.0));
//!
//! // …a typed vector-operand op (a BFS-style frontier step)…
//! let frontier = ctx.insert_vec(SparseVec::try_new(8, vec![3], vec![true]).unwrap());
//! let visited = ctx.insert_vec(SparseVec::try_new(8, vec![3], vec![true]).unwrap());
//! let next = ctx.vec_op(visited, frontier, a).complemented(true).run_out().unwrap();
//! assert_eq!(next.value_kind(), ValueKind::Bool);
//!
//! // …and a heterogeneous streamed batch mixing semirings and lanes.
//! let ops = vec![
//!     ctx.op(m, a, a).build(),                                  // f64 plus_times
//!     ctx.op(m, a, a).semiring(SemiringKind::PlusPair)
//!         .value(ValueKind::I64).build(),                       // i64 plus_pair
//! ];
//! let mut nnz_total = 0;
//! ctx.for_each_result(&ops, |_idx, result: Result<OpOutput, _>| {
//!     nnz_total += result.unwrap().nnz(); // consumed and dropped here
//! });
//! assert_eq!(nnz_total, 16);
//! ```

use masked_spgemm::{Algorithm, DynLane, LaneValue, Phases, SemiringKind, ValueKind};
use sparse::ewise::ewise_merge_changes;
use sparse::{CscMatrix, CsrMatrix, Semiring, SparseError, SparseVec};
use std::sync::Arc;

use crate::context::{Context, MatrixHandle, ValueMat, ValueVec, VectorHandle};
use crate::lane::{on_variant, with_lane, Fixed, Lane, ScratchSets};
use crate::plan::{self, Choice, Plan};

/// Uniform error text: the semiring kind is not defined on the value lane.
pub const SEMIRING_LANE_UNSUPPORTED: &str =
    "semiring kind is not defined on the operation's value lane";
/// Uniform error text: a vector operand's lane differs from the op's lane.
pub const OPERAND_LANE_MISMATCH: &str =
    "vector operand lane differs from the operation's value lane";
/// Uniform error text: the accumulation target cannot absorb this result.
pub const ACCUM_TARGET_MISMATCH: &str =
    "accumulation target cannot absorb this operation's result kind";
/// Uniform error text: a custom accumulation monoid is for another lane.
pub const ACCUM_MONOID_LANE_MISMATCH: &str =
    "custom accumulation monoid is defined on a different value lane";
/// Uniform error text: the output is not the kind the caller requested.
pub const OUTPUT_KIND_MISMATCH: &str =
    "operation output is a different kind; consume it as an OpOutput";

/// The operands of a masked multiply: today's matrix product, or a masked
/// sparse vector-matrix product over [`masked_spgemm::masked_spgevm`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Operands {
    /// `C = M ⊙ (A·B)` — three registered matrices.
    MatMat {
        /// Mask handle.
        mask: MatrixHandle,
        /// Left operand handle.
        a: MatrixHandle,
        /// Right operand handle.
        b: MatrixHandle,
    },
    /// `v = m ⊙ (u·B)` — a vector mask, a vector operand, and a matrix.
    /// With a complemented mask this is the BFS frontier expansion
    /// `next = ¬visited ⊙ (frontier · A)`.
    VecMat {
        /// Mask vector handle (only its pattern matters).
        mask: VectorHandle,
        /// Operand vector handle (its lane must match the op's
        /// [`MaskedOp::value`]).
        u: VectorHandle,
        /// Matrix handle.
        b: MatrixHandle,
    },
}

impl Operands {
    /// `(mask, a, b)` as registry entries: a vector operand is its
    /// `1 × dim` matrix.
    pub(crate) fn handles(self) -> (MatrixHandle, MatrixHandle, MatrixHandle) {
        match self {
            Operands::MatMat { mask, a, b } => (mask, a, b),
            Operands::VecMat { mask, u, b } => (mask.row(), u.row(), b),
        }
    }
}

/// Where an accumulating operation merges its result.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccumTarget {
    /// A registered matrix (for matrix products whose value lane matches
    /// the target's natively stored lane).
    Mat(MatrixHandle),
    /// A registered vector (for vector products; lanes must agree).
    Vec(VectorHandle),
}

impl AccumTarget {
    /// The target's registry entry (a vector's is its `1 × dim` matrix).
    fn handle(self) -> MatrixHandle {
        match self {
            AccumTarget::Mat(h) => h,
            AccumTarget::Vec(h) => h.row(),
        }
    }
}

/// The monoid an accumulating operation folds with — chosen independently
/// of the multiply semiring, so a `plus_times` product can `min`-merge into
/// a running distance vector.
#[derive(Copy, Clone, Debug)]
pub enum AccumMonoid {
    /// The `add` of the operation's own semiring (the historical
    /// `AddInto` behavior: `min_plus` products min-merge, additive
    /// semirings sum).
    Semiring,
    /// Lane addition (`||` on `bool`).
    Add,
    /// Lane minimum (`&&` on `bool`).
    Min,
    /// A custom monoid on the `f64` lane.
    CustomF64(fn(f64, f64) -> f64),
    /// A custom monoid on the `i64` lane.
    CustomI64(fn(i64, i64) -> i64),
    /// A custom monoid on the `bool` lane.
    CustomBool(fn(bool, bool) -> bool),
}

/// What happens to an operation's result before it reaches the caller.
#[derive(Copy, Clone, Debug)]
pub enum AccumMode {
    /// Deliver the product as computed (the default).
    Replace,
    /// Merge the product into the matrix or vector behind the target with
    /// the given monoid, store the merged value behind the handle, and
    /// deliver **only the entries of the target that the merge changed**
    /// (GraphBLAS's `C<M> ⊕= A·B` with the changed set exposed):
    ///
    /// * the entries the target gains, and
    /// * the entries whose merged value is not bit-identical to the stored
    ///   one. On `f64`, a `-0.0` that replaces `0.0` is a change, and a NaN
    ///   that merges to the same NaN bits is not.
    ///
    /// The result has the target's shape and holds the merged values. Read
    /// the whole merged value from the handle: without a copy for a matrix
    /// ([`Context::matrix`], [`Context::value_mat`]), copied out of its
    /// stored row for a vector ([`Context::vector`]).
    /// A merge that changes nothing delivers an empty result and leaves the
    /// target, its version and its cached auxiliaries as they were. The
    /// rule is the same for matrix and vector targets, single ops and
    /// batch entries.
    ///
    /// Two shapes fall out of it. A `min` merge into a distance vector
    /// delivers the strictly improved vertices: SSSP's next frontier. A
    /// product under the complement of its own target's pattern is
    /// disjoint from the target, so accumulating it delivers the product
    /// itself while the target becomes the union: BFS's next frontier and
    /// visited set in one op.
    ///
    /// In a batch, accumulation is applied on the *calling* thread in
    /// completion order, so two operations targeting the same handle never
    /// race — but their merge order (and therefore float rounding on the
    /// `f64` lane, and which op reports a shared change) follows completion
    /// order, which is nondeterministic across runs.
    MergeInto(AccumTarget, AccumMonoid),
}

/// A fully-described masked multiply on a runtime-selected semiring and
/// value lane, with optional execution overrides.
///
/// Build one with [`Context::op`] (matrix operands) or [`Context::vec_op`]
/// (vector operand); run it alone ([`OpBuilder::run`] /
/// [`OpBuilder::run_out`]) or in a heterogeneous batch
/// ([`Context::for_each_result`], [`Context::run_batch_collect`]). All
/// fields are public — a descriptor is plain data, inspectable and
/// rewritable by schedulers layered above the engine.
#[derive(Copy, Clone, Debug)]
pub struct MaskedOp {
    /// What is multiplied (see [`Operands`]).
    pub operands: Operands,
    /// Mask polarity (`true` = `¬M ⊙ (A·B)`).
    pub complemented: bool,
    /// Which semiring the multiply runs on.
    pub semiring: SemiringKind,
    /// Which value lane the multiply runs on — each lane is a real
    /// monomorphized kernel instantiation ([`ValueKind`]).
    pub value: ValueKind,
    /// Force this algorithm instead of consulting the planner.
    pub algorithm: Option<Algorithm>,
    /// Force this phase discipline instead of the planner's choice.
    ///
    /// Every product with more than one row runs it: row-parallel, serial
    /// under the cutoff, and as a batch entry. A one-row product (a
    /// vector-operand product, or a `1 × n` matrix product) always runs
    /// the one-phase driver serially on its row, so this setting does not
    /// apply to it. Results are bit-identical either way.
    pub phases: Option<Phases>,
    /// What happens to the result (see [`AccumMode`]).
    pub accum: AccumMode,
}

impl MaskedOp {
    /// The matrix operands, when this is a [`Operands::MatMat`] op —
    /// `(mask, a, b)`.
    pub fn mat_operands(&self) -> Option<(MatrixHandle, MatrixHandle, MatrixHandle)> {
        match self.operands {
            Operands::MatMat { mask, a, b } => Some((mask, a, b)),
            Operands::VecMat { .. } => None,
        }
    }
}

/// The result of one executed [`MaskedOp`]: a matrix or vector on the
/// operation's value lane.
#[derive(Clone, Debug, PartialEq)]
pub enum OpOutput {
    /// `f64` matrix product.
    MatF64(CsrMatrix<f64>),
    /// `i64` matrix product.
    MatI64(CsrMatrix<i64>),
    /// `bool` matrix product.
    MatBool(CsrMatrix<bool>),
    /// `f64` vector product.
    VecF64(SparseVec<f64>),
    /// `i64` vector product.
    VecI64(SparseVec<i64>),
    /// `bool` vector product.
    VecBool(SparseVec<bool>),
}

impl OpOutput {
    /// The value lane of the result.
    pub fn value_kind(&self) -> ValueKind {
        match self {
            OpOutput::MatF64(_) | OpOutput::VecF64(_) => ValueKind::F64,
            OpOutput::MatI64(_) | OpOutput::VecI64(_) => ValueKind::I64,
            OpOutput::MatBool(_) | OpOutput::VecBool(_) => ValueKind::Bool,
        }
    }

    /// Whether the result is a vector (a [`Operands::VecMat`] product).
    pub fn is_vector(&self) -> bool {
        matches!(
            self,
            OpOutput::VecF64(_) | OpOutput::VecI64(_) | OpOutput::VecBool(_)
        )
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        match self {
            OpOutput::MatF64(m) => m.nnz(),
            OpOutput::MatI64(m) => m.nnz(),
            OpOutput::MatBool(m) => m.nnz(),
            OpOutput::VecF64(v) => v.nnz(),
            OpOutput::VecI64(v) => v.nnz(),
            OpOutput::VecBool(v) => v.nnz(),
        }
    }

    /// Convert into the concrete matrix/vector type, or report
    /// [`OUTPUT_KIND_MISMATCH`] (see [`FromOpOutput`]).
    pub fn into_typed<T: FromOpOutput>(self) -> Result<T, SparseError> {
        T::from_output(self)
    }

    /// Convert a vector result into a registerable [`ValueVec`] (lane
    /// preserved), or `None` for matrix results — the bridge between an
    /// executed frontier step and [`Context::update_vec`].
    pub fn into_vec(self) -> Option<ValueVec> {
        with_lane!(self.value_kind(), T => T::take_vec(self).map(ValueVec::from))
    }
}

/// Conversion from an executed operation's [`OpOutput`] into the concrete
/// type a caller wants to consume — the typed side of the streaming APIs.
///
/// Implemented by [`OpOutput`] itself (identity: mixed-kind batches) and by
/// every lane's matrix and vector type (kind-checked: a batch known to be
/// all-`f64`-matrix can sink `CsrMatrix<f64>` directly, and a wrong kind is
/// a uniform [`SparseError::Unsupported`]).
pub trait FromOpOutput: Sized {
    /// Convert, or report [`OUTPUT_KIND_MISMATCH`].
    fn from_output(output: OpOutput) -> Result<Self, SparseError>;
}

impl FromOpOutput for OpOutput {
    fn from_output(output: OpOutput) -> Result<Self, SparseError> {
        Ok(output)
    }
}

/// Fluent constructor for [`MaskedOp`], obtained from [`Context::op`] or
/// [`Context::vec_op`].
///
/// Defaults: plain mask, [`SemiringKind::PlusTimes`] on the
/// [`ValueKind::F64`] lane (vector ops default to the operand vector's own
/// lane, with [`SemiringKind::BoolAndOr`] on `bool`), planner-chosen
/// algorithm and phases, [`AccumMode::Replace`].
#[derive(Copy, Clone)]
#[must_use = "an OpBuilder does nothing until .run(), .run_out() or .build()"]
pub struct OpBuilder<'c> {
    ctx: &'c Context,
    op: MaskedOp,
}

impl<'c> OpBuilder<'c> {
    /// Select the semiring the multiply runs on.
    pub fn semiring(mut self, kind: SemiringKind) -> Self {
        self.op.semiring = kind;
        self
    }

    /// Select the value lane the multiply runs on (see [`ValueKind`]).
    /// Non-`f64` matrix operands are read through the context's cached
    /// typed views ([`Context::bool_view`], [`Context::i64_view`]).
    pub fn value(mut self, value: ValueKind) -> Self {
        self.op.value = value;
        self
    }

    /// Use the complement of the mask (`C = ¬M ⊙ (A·B)`).
    pub fn complemented(mut self, yes: bool) -> Self {
        self.op.complemented = yes;
        self
    }

    /// Force an algorithm instead of consulting the planner.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.op.algorithm = Some(algorithm);
        self
    }

    /// Force a phase discipline instead of the planner's choice (see
    /// [`MaskedOp::phases`]).
    pub fn phases(mut self, phases: Phases) -> Self {
        self.op.phases = Some(phases);
        self
    }

    /// Merge the result into the matrix behind `target` with the
    /// operation's own semiring `add`. The op then delivers only the
    /// entries of `target` that changed (see [`AccumMode::MergeInto`]).
    pub fn accumulate_into(mut self, target: MatrixHandle) -> Self {
        self.op.accum = AccumMode::MergeInto(AccumTarget::Mat(target), AccumMonoid::Semiring);
        self
    }

    /// Min-merge the result into the matrix behind `target`, regardless of
    /// the multiply semiring. The op then delivers only the entries that
    /// the merge lowered or added (see [`AccumMode::MergeInto`]).
    pub fn min_into(mut self, target: MatrixHandle) -> Self {
        self.op.accum = AccumMode::MergeInto(AccumTarget::Mat(target), AccumMonoid::Min);
        self
    }

    /// Add-merge the result into the vector behind `target` (`||` on the
    /// `bool` lane). The op then delivers only the entries that changed.
    /// Under the complement of `target` as its own mask, that is the whole
    /// product: BFS's next frontier, with `target` its visited set (see
    /// [`AccumMode::MergeInto`]).
    pub fn accumulate_into_vec(mut self, target: VectorHandle) -> Self {
        self.op.accum = AccumMode::MergeInto(AccumTarget::Vec(target), AccumMonoid::Add);
        self
    }

    /// Min-merge the result into the vector behind `target` — the
    /// distance-relaxation step of a tropical traversal. The op then
    /// delivers only the strictly improved entries, the traversal's next
    /// frontier (see [`AccumMode::MergeInto`]).
    pub fn min_into_vec(mut self, target: VectorHandle) -> Self {
        self.op.accum = AccumMode::MergeInto(AccumTarget::Vec(target), AccumMonoid::Min);
        self
    }

    /// Merge the result into an arbitrary target with an arbitrary
    /// [`AccumMonoid`] (the fully general form of the accumulation modes).
    /// The op delivers only the entries of the target that changed (see
    /// [`AccumMode::MergeInto`]).
    pub fn merge_into(mut self, target: AccumTarget, monoid: AccumMonoid) -> Self {
        self.op.accum = AccumMode::MergeInto(target, monoid);
        self
    }

    /// The finished descriptor, for batching or later execution.
    pub fn build(self) -> MaskedOp {
        self.op
    }

    /// Resolve the execution plan this descriptor would run under
    /// (overrides applied), without executing.
    pub fn plan(&self) -> Result<Plan, SparseError> {
        self.ctx.resolve_plan(&self.op)
    }

    /// Plan (or apply overrides) and execute now, returning the typed
    /// [`OpOutput`].
    pub fn run_out(self) -> Result<OpOutput, SparseError> {
        self.ctx.run_op_out(&self.op)
    }

    /// Plan and execute now, returning the `f64` matrix product — the
    /// historical convenience for the default lane. Operations on other
    /// lanes (or vector operands) report [`OUTPUT_KIND_MISMATCH`]; consume
    /// those through [`OpBuilder::run_out`].
    pub fn run(self) -> Result<CsrMatrix<f64>, SparseError> {
        self.ctx.run_op(&self.op)
    }
}

/// Consumer of streamed batch results.
///
/// [`Context::for_each_result`] hands each finished operation to the sink
/// **in completion order** (not input order) together with its index into
/// the submitted slice, on the calling thread. A sink that drops the
/// result immediately (e.g. one that only tallies `nnz`) keeps at most a
/// few results resident at any moment, no matter how large the batch.
///
/// The payload type `T` is any [`FromOpOutput`] implementor: sink
/// [`OpOutput`] to consume mixed-kind batches, or a concrete type like
/// `CsrMatrix<f64>` for homogeneous ones. Any
/// `FnMut(usize, Result<T, SparseError>)` closure is a sink.
pub trait ResultSink<T = OpOutput> {
    /// Receive the result of `ops[index]`.
    fn absorb(&mut self, index: usize, result: Result<T, SparseError>);
}

impl<T, F> ResultSink<T> for F
where
    F: FnMut(usize, Result<T, SparseError>),
{
    fn absorb(&mut self, index: usize, result: Result<T, SparseError>) {
        self(index, result)
    }
}

/// Resolve an accumulation monoid on lane `T` (custom functions for other
/// lanes are rejected by descriptor validation before execution).
#[inline]
fn apply_monoid<T: LaneValue>(
    monoid: AccumMonoid,
    kind: SemiringKind,
    custom: Option<fn(T, T) -> T>,
    x: T,
    y: T,
) -> T {
    match monoid {
        AccumMonoid::Semiring => DynLane::<T>::new(kind).add(x, y),
        AccumMonoid::Add => T::lane_add(x, y),
        AccumMonoid::Min => T::lane_min(x, y),
        AccumMonoid::CustomF64(_) | AccumMonoid::CustomI64(_) | AccumMonoid::CustomBool(_) => {
            custom.expect("custom monoid lane validated")(x, y)
        }
    }
}

impl Context {
    /// Start describing the masked matrix multiply `M ⊙ (A·B)`.
    ///
    /// ```
    /// use engine::{Context, SemiringKind};
    /// use sparse::CsrMatrix;
    ///
    /// let ctx = Context::with_threads(1);
    /// let h = ctx.insert(CsrMatrix::diagonal(4, 3.0));
    /// let c = ctx.op(h, h, h).semiring(SemiringKind::PlusPair).run().unwrap();
    /// assert_eq!(c.get(2, 2), Some(&1.0)); // one contributing product
    /// ```
    pub fn op(&self, mask: MatrixHandle, a: MatrixHandle, b: MatrixHandle) -> OpBuilder<'_> {
        OpBuilder {
            ctx: self,
            op: MaskedOp {
                operands: Operands::MatMat { mask, a, b },
                complemented: false,
                semiring: SemiringKind::PlusTimes,
                value: ValueKind::F64,
                algorithm: None,
                phases: None,
                accum: AccumMode::Replace,
            },
        }
    }

    /// Start describing the masked vector-matrix multiply `v = m ⊙ (u·B)`
    /// — with a complemented mask, the BFS frontier expansion
    /// `next = ¬visited ⊙ (frontier · A)`.
    ///
    /// The value lane defaults to the operand vector's own lane, and the
    /// semiring to [`SemiringKind::BoolAndOr`] on `bool` /
    /// [`SemiringKind::PlusTimes`] elsewhere.
    ///
    /// ```
    /// use engine::{Context, ValueKind};
    /// use sparse::{CsrMatrix, SparseVec};
    ///
    /// let ctx = Context::with_threads(1);
    /// let adj = ctx.insert(CsrMatrix::try_new(
    ///     3, 3, vec![0, 1, 2, 2], vec![1, 2], vec![1.0, 1.0],
    /// ).unwrap());
    /// let frontier = ctx.insert_vec(SparseVec::try_new(3, vec![0], vec![true]).unwrap());
    /// let visited = ctx.insert_vec(SparseVec::try_new(3, vec![0], vec![true]).unwrap());
    /// let next: SparseVec<bool> = ctx
    ///     .vec_op(visited, frontier, adj)
    ///     .complemented(true)
    ///     .run_out()
    ///     .unwrap()
    ///     .into_typed()
    ///     .unwrap();
    /// assert_eq!(next.indices(), &[1]);
    /// ```
    pub fn vec_op(&self, mask: VectorHandle, u: VectorHandle, b: MatrixHandle) -> OpBuilder<'_> {
        // An unregistered `u` gets any lane: running the op reports it.
        let value = self
            .try_entry(u.row())
            .map_or(ValueKind::F64, |e| e.matrix.value_kind());
        let semiring = match value {
            ValueKind::Bool => SemiringKind::BoolAndOr,
            _ => SemiringKind::PlusTimes,
        };
        OpBuilder {
            ctx: self,
            op: MaskedOp {
                operands: Operands::VecMat { mask, u, b },
                complemented: false,
                semiring,
                value,
                algorithm: None,
                phases: None,
                accum: AccumMode::Replace,
            },
        }
    }

    /// Validate a descriptor: every handle it names must be registered
    /// ([`SparseError::UnknownHandle`]), the semiring must be defined on
    /// the value lane, vector operands must live on it, and the
    /// accumulation target/monoid must be able to absorb the result. Every
    /// execution path (single-op, batch) runs this first, so a violation
    /// is the same error value everywhere.
    fn validate_op(&self, op: &MaskedOp) -> Result<(), SparseError> {
        let kind = |h| self.try_entry(h).map(|e| e.matrix.value_kind());
        let (mask, a, b) = op.operands.handles();
        kind(mask)?;
        let a_kind = kind(a)?;
        kind(b)?;
        let accum = match op.accum {
            AccumMode::MergeInto(target, monoid) => Some((target, monoid, kind(target.handle())?)),
            AccumMode::Replace => None,
        };
        if !op.semiring.supports_value(op.value) {
            return Err(SparseError::Unsupported(SEMIRING_LANE_UNSUPPORTED));
        }
        let vector = matches!(op.operands, Operands::VecMat { .. });
        if vector && a_kind != op.value {
            return Err(SparseError::Unsupported(OPERAND_LANE_MISMATCH));
        }
        if let Some((target, monoid, target_kind)) = accum {
            let monoid_lane = match monoid {
                AccumMonoid::CustomF64(_) => Some(ValueKind::F64),
                AccumMonoid::CustomI64(_) => Some(ValueKind::I64),
                AccumMonoid::CustomBool(_) => Some(ValueKind::Bool),
                AccumMonoid::Semiring | AccumMonoid::Add | AccumMonoid::Min => None,
            };
            if monoid_lane.is_some_and(|lane| lane != op.value) {
                return Err(SparseError::Unsupported(ACCUM_MONOID_LANE_MISMATCH));
            }
            // The registry stores targets natively typed: a product merges
            // back into a target of its own form (matrix or vector) stored
            // on its own lane (zero-cast merge); any other combination is a
            // uniform mismatch.
            let same_form = matches!(target, AccumTarget::Vec(_)) == vector;
            if !same_form || target_kind != op.value {
                return Err(SparseError::Unsupported(ACCUM_TARGET_MISMATCH));
            }
        }
        Ok(())
    }

    /// Resolve the plan a descriptor runs under: the planner's choice, with
    /// the descriptor's algorithm/phase overrides applied on top. A forced
    /// algorithm that cannot honor the mask polarity (MCA × complemented)
    /// is a uniform [`SparseError::Unsupported`].
    pub(crate) fn resolve_plan(&self, op: &MaskedOp) -> Result<Plan, SparseError> {
        self.validate_op(op)?;
        if let Some(alg) = op.algorithm {
            alg.check_complement_support(op.complemented)?;
        }
        let (mask, a, b) = op.operands.handles();
        // One row runs serially at one phase, whatever the op asks.
        let one_row = self.try_entry(a)?.matrix.nrows() == 1;
        let phases = if one_row {
            Some(Phases::One)
        } else {
            op.phases
        };
        match (op.algorithm, phases) {
            // A fully-overridden op skips the cost model entirely — but
            // still honors the calibrated serial cutoff (the flop count is
            // the only quantity needed).
            (Some(alg), Some(ph)) => {
                plan::validate(self, mask, a, b)?;
                let mut fixed = Plan::fixed(alg, ph, op.complemented);
                let cutoff = self.serial_cutoff_flops();
                fixed.serial = one_row || (cutoff > 0.0 && (self.flops(a, b) as f64) < cutoff);
                Ok(fixed)
            }
            (algorithm, phases) => {
                let mut planned = self.plan(mask, op.complemented, a, b)?;
                if let Some(alg) = algorithm {
                    planned.choice = Choice::Fixed(alg);
                }
                if let Some(ph) = phases {
                    planned.phases = ph;
                }
                Ok(planned)
            }
        }
    }

    /// Execute one descriptor now, applying its accumulation mode, and
    /// return the typed [`OpOutput`].
    ///
    /// Operands resolve to their **native** stored lane with zero copies
    /// when the op's lane matches ([`crate::ValueMat`]); cross-lane casts
    /// come from the aux cache. The product runs on kernels monomorphized
    /// for its lane and semiring (bit-identical to [`DynLane`] and the
    /// typed semirings): row-parallel on the context's pool, or — for a
    /// plan under the calibrated serial cutoff, and for every one-row
    /// product — on the calling thread with the context's reused kernel
    /// scratch.
    pub fn run_op_out(&self, op: &MaskedOp) -> Result<OpOutput, SparseError> {
        let out = on_variant!(&self.resolve(op, false)?, Resolved, r => {
            // Another single op holding the scratch right now: run on
            // transient scratch rather than serializing behind it.
            let shared = if r.plan.serial { self.scratch.try_lock().ok() } else { None };
            match shared {
                Some(mut sets) => self.execute(r, &mut sets),
                None => self.execute(r, &mut ScratchSets::default()),
            }
        })?;
        self.finish(op, out)
    }

    /// Execute one descriptor now and return the `f64` matrix product (the
    /// historical signature; see [`OpBuilder::run`]).
    pub fn run_op(&self, op: &MaskedOp) -> Result<CsrMatrix<f64>, SparseError> {
        FromOpOutput::from_output(self.run_op_out(op)?)
    }

    /// Resolve a descriptor on the calling thread: plan it (`serial` forces
    /// a serial plan, as for a batch entry that one worker runs whole) and
    /// snapshot what the run reads.
    pub(crate) fn resolve(&self, op: &MaskedOp, serial: bool) -> Result<Resolved, SparseError> {
        let mut plan = self.resolve_plan(op)?;
        if serial {
            plan.make_serial();
        }
        with_lane!(op.value, T => self.resolve_lane::<T>(op, plan).map(Resolved::from))
    }

    /// [`Context::resolve`] on lane `T`, under an already resolved plan.
    fn resolve_lane<T: Lane>(
        &self,
        op: &MaskedOp,
        plan: Plan,
    ) -> Result<ResolvedOp<T>, SparseError> {
        let (mask, a, b) = op.operands.handles();
        Ok(ResolvedOp {
            kind: op.semiring,
            mask: self.value_mat(mask),
            a: self.view(a),
            b: self.view(b),
            b_csc: plan.pulls().then(|| self.lane_csc(b)),
            plan,
        })
    }

    /// Run a resolved op — the one path behind single ops, matrix and
    /// vector alike, and batch entries. The op's semiring kind is
    /// dispatched here, once, to the kernels monomorphized for it
    /// ([`Fixed`]), and the plan runs through the core executor
    /// ([`ScratchSet::run`]): a serial plan on the calling thread with the
    /// kind's reused kernels from `scratch`, any other plan row-parallel on
    /// the pool. The product is a matrix until [`Context::finish`].
    ///
    /// [`ScratchSet::run`]: masked_spgemm::ScratchSet::run
    pub(crate) fn execute<T: Lane>(
        &self,
        r: &ResolvedOp<T>,
        scratch: &mut ScratchSets,
    ) -> Result<OpOutput, SparseError> {
        use SemiringKind as K;
        macro_rules! as_kind {
            ($k:ident) => {
                self.execute_as(r, Fixed::<T, { K::$k as usize }>::new(), scratch)
            };
        }
        // `PlusTimes` and `BoolAndOr` perform the same operations on every
        // lane, and `bool` supports no other kind: one kernel set serves it.
        match r.kind {
            _ if T::BOOL => as_kind!(BoolAndOr),
            K::PlusTimes | K::BoolAndOr => as_kind!(PlusTimes),
            K::PlusPair => as_kind!(PlusPair),
            K::PlusFirst => as_kind!(PlusFirst),
            K::PlusSecond => as_kind!(PlusSecond),
            K::MinPlus => as_kind!(MinPlus),
        }
    }

    /// [`Context::execute`] on the semiring `sr` the op's kind fixed.
    fn execute_as<T, S>(
        &self,
        r: &ResolvedOp<T>,
        sr: S,
        scratch: &mut ScratchSets,
    ) -> Result<OpOutput, SparseError>
    where
        T: Lane,
        S: Semiring<A = T, B = T, C = T> + 'static,
    {
        let (plan, csc, set) = (&r.plan, r.b_csc.as_deref(), scratch.get::<S>());
        let (a, b, cfg) = (&r.a, &r.b, self.config());
        on_variant!(&r.mask, ValueMat, m => {
            let m = m.as_ref();
            let mut run = || {
                let (choice, phases, compl) = (plan.choice, plan.phases, plan.complemented);
                set.run(choice, phases, plan.serial, compl, sr, cfg, m, a, b, csc)
            };
            if plan.serial { run() } else { self.pool.install(run) }
        })
        .map(T::mat_output)
    }

    /// Finish a freshly-computed product: apply the descriptor's
    /// [`AccumMode`], then deliver a vector-operand product as a vector.
    pub(crate) fn finish(&self, op: &MaskedOp, out: OpOutput) -> Result<OpOutput, SparseError> {
        with_lane!(out.value_kind(), T => {
            let mut c = T::take_mat(out).expect("a product is a matrix until delivered");
            if let AccumMode::MergeInto(target, monoid) = op.accum {
                c = self.merge::<T>(op, target, monoid, c)?;
            }
            match op.operands {
                Operands::MatMat { .. } => Ok(T::mat_output(c)),
                Operands::VecMat { .. } => SparseVec::from_row(c).map(T::vec_output),
            }
        })
    }

    /// Merge a lane-`T` product into the matrix or vector behind `target`,
    /// returning the entries the merge changed.
    fn merge<T: Lane>(
        &self,
        op: &MaskedOp,
        target: AccumTarget,
        monoid: AccumMonoid,
        c: CsrMatrix<T>,
    ) -> Result<CsrMatrix<T>, SparseError> {
        // Validation pinned the target's stored lane to the op's lane;
        // reaching a mismatch means a concurrent lane change.
        let handle = target.handle();
        let stored = self.value_mat(handle);
        let existing =
            T::native_mat(&stored).ok_or(SparseError::Unsupported(ACCUM_TARGET_MISMATCH))?;
        if existing.shape() != c.shape() {
            let op = match target {
                AccumTarget::Mat(_) => "accumulate_into",
                AccumTarget::Vec(_) => "accumulate_into_vec",
            };
            return Err(SparseError::DimMismatch {
                op,
                lhs: existing.shape(),
                rhs: c.shape(),
            });
        }
        let custom = T::custom_monoid(monoid);
        let (merged, changed) = ewise_merge_changes(
            existing.as_ref(),
            c,
            |x, y| apply_monoid(monoid, op.semiring, custom, x, y),
            T::same_bits,
        );
        if changed.nnz() > 0 {
            self.store_matrix(handle, T::wrap_mat(Arc::new(merged)), false);
        }
        Ok(changed)
    }
}

/// A descriptor resolved on the calling thread into everything its run
/// reads: the plan, the semiring kind, and the operands as snapshotted at
/// resolve time — a vector operand as its `1 × dim` matrix.
pub(crate) struct ResolvedOp<T> {
    plan: Plan,
    kind: SemiringKind,
    /// The mask in its **native** stored lane (the kernels read only its
    /// pattern, so no cast is built for it).
    mask: ValueMat,
    /// The lane views of `A` and `B`: the stored matrices themselves when
    /// they live on this lane.
    a: Arc<CsrMatrix<T>>,
    b: Arc<CsrMatrix<T>>,
    /// `B`'s lane CSC, built only when the plan pulls.
    b_csc: Option<Arc<CscMatrix<T>>>,
}

/// A [`ResolvedOp`] on whichever lane its descriptor runs.
pub(crate) enum Resolved {
    Bool(ResolvedOp<bool>),
    I64(ResolvedOp<i64>),
    F64(ResolvedOp<f64>),
}
