//! Concurrent execution of many independent masked multiplies, streamed.
//!
//! Batch mode inverts the parallelization axis: instead of one product
//! parallelized across rows, the [`Context`]'s workers each run whole
//! products serially and pull the next operation from a shared queue. Each
//! worker holds one scratch set *per value lane* ([`LaneScratch`]) for the
//! entire batch, so accumulator scratch (the `O(ncols)` MSA arrays, hash
//! tables, heap state) is allocated once per worker and lane rather than
//! once per product.
//!
//! The op queue is drained by the context's own persistent pool workers
//! ([`rayon::ThreadPool::with_workers`]) — batch execution spawns no
//! threads of its own, so inter-op parallelism here and intra-op row
//! parallelism elsewhere share one set of threads and a batch issued while
//! other work is in flight cannot oversubscribe the machine.
//!
//! Three things distinguish this from a plain parallel map:
//!
//! * **heterogeneous semirings *and* lanes** — each [`MaskedOp`] carries
//!   its own [`SemiringKind`](masked_spgemm::SemiringKind) and
//!   [`ValueKind`](masked_spgemm::ValueKind); execution erases the
//!   semiring through [`DynLane`] per lane, so one batch mixes `bool`
//!   BFS steps, exact `i64` counting ops, and `f64` products on the same
//!   worker scratch;
//! * **vector operands** — [`Operands::VecMat`] ops run the serial masked
//!   SpGEVM kernels, so frontier expansions batch alongside matrix
//!   products;
//! * **streamed delivery** — finished products flow through a channel to
//!   the calling thread, which hands them to a [`ResultSink`] in
//!   *completion order*. A sink that consumes-and-drops keeps memory flat
//!   regardless of batch size; [`Context::run_batch_collect`] is the
//!   convenience that collects into input order when you do want them all.
//!
//! Plans are computed up front on the calling thread (they read cached
//! auxiliaries, so this is cheap) and forced to fixed algorithms: per-row
//! hybrid dispatch buys nothing when the batch already saturates the
//! workers, and fixed plans let scratch be reused by family.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use masked_spgemm::{masked_spgevm_csc, Algorithm, DynLane};
use sparse::{CscMatrix, CsrMatrix, SparseError, SparseVec};

use crate::context::{Context, ValueMat};
use crate::lane::{on_variant, with_lane, Lane, LaneScratch};
use crate::op::{FromOpOutput, MaskedOp, OpOutput, Operands, ResultSink, OPERAND_LANE_MISMATCH};
use crate::plan::{Choice, Plan};

/// A batch entry resolved to the data a worker needs, on any lane.
trait Prepared: Send + Sync {
    /// Run on the worker's scratch and wrap the result in its lane's
    /// output variant.
    fn run(&self, scratch: &mut LaneScratch) -> Result<OpOutput, SparseError>;
}

/// A matrix-product batch entry: the mask in its **native** stored lane
/// (kernels read only its pattern), operand `Arc`s on the op's lane (the
/// stored matrices themselves when the lanes agree — no canonical copy), a
/// fixed algorithm, and the per-op erased semiring.
struct PreparedMat<T: Lane> {
    sr: DynLane<T>,
    mask: ValueMat,
    a: Arc<CsrMatrix<T>>,
    b: Arc<CsrMatrix<T>>,
    b_csc: Option<Arc<CscMatrix<T>>>,
    algorithm: Algorithm,
    complemented: bool,
}

impl<T: Lane> Prepared for PreparedMat<T> {
    fn run(&self, scratch: &mut LaneScratch) -> Result<OpOutput, SparseError> {
        let scratch = T::scratch(scratch);
        on_variant!(&self.mask, ValueMat, m => scratch.run(
            self.algorithm,
            self.complemented,
            self.sr,
            m.as_ref(),
            &self.a,
            &self.b,
            self.b_csc.as_deref(),
        ))
        .map(T::mat_output)
    }
}

/// A vector-product batch entry: the mask pattern, the typed operand
/// vector, and `B` in the form the fixed algorithm consumes.
struct PreparedVec<T: Lane> {
    sr: DynLane<T>,
    mask: SparseVec<()>,
    u: Arc<SparseVec<T>>,
    b_view: Option<Arc<CsrMatrix<T>>>,
    b_csc: Option<Arc<CscMatrix<T>>>,
    algorithm: Algorithm,
    complemented: bool,
}

impl<T: Lane> Prepared for PreparedVec<T> {
    /// Push products run through the worker's reused per-lane scratch; the
    /// pull path carries no accumulator.
    fn run(&self, scratch: &mut LaneScratch) -> Result<OpOutput, SparseError> {
        if self.algorithm == Algorithm::Inner {
            let csc = self.b_csc.as_ref().expect("pull plan materialized CSC");
            masked_spgevm_csc(self.complemented, self.sr, &self.mask, &self.u, csc)
        } else {
            let view = self.b_view.as_ref().expect("push plan materialized view");
            T::scratch(scratch).run_vec(
                self.algorithm,
                self.complemented,
                self.sr,
                &self.mask,
                &self.u,
                view,
                None,
            )
        }
        .map(T::vec_output)
    }
}

/// Reduce a plan to one fixed algorithm (batch workers and the serial
/// in-thread path both need one): when the planner wanted the per-row
/// hybrid, take the fixed family its own cost breakdown ranked best.
pub(crate) fn fixed_algorithm(plan: &Plan) -> Algorithm {
    match plan.choice {
        Choice::Fixed(alg) => alg,
        Choice::Hybrid => {
            let c = &plan.costs;
            let mut best = (Algorithm::Msa, c.msa);
            for cand in [
                (Algorithm::Mca, c.mca),
                (Algorithm::Heap, c.heap),
                (Algorithm::Inner, c.inner),
            ] {
                let supported = !plan.complemented || cand.0.supports_complement();
                if supported && cand.1 < best.1 {
                    best = cand;
                }
            }
            best.0
        }
    }
}

impl Context {
    /// Resolve one descriptor for batch execution: plan it, fix the
    /// algorithm, and materialize the lane views the workers will read.
    fn prepare_any(&self, op: &MaskedOp) -> Result<Box<dyn Prepared>, SparseError> {
        let plan = self.resolve_plan(op)?;
        with_lane!(op.value, T => self.prepare::<T>(op, fixed_algorithm(&plan)))
    }

    fn prepare<T: Lane>(
        &self,
        op: &MaskedOp,
        algorithm: Algorithm,
    ) -> Result<Box<dyn Prepared>, SparseError> {
        let sr = DynLane::new(op.semiring);
        // Materialize the cached CSC only when the plan actually pulls.
        let pull = algorithm == Algorithm::Inner;
        Ok(match op.operands {
            Operands::MatMat { mask, a, b } => Box::new(PreparedMat::<T> {
                sr,
                // Native mask — no lane cast for a pattern-only operand.
                mask: self.value_mat(mask),
                a: self.view(a),
                b: self.view(b),
                b_csc: pull.then(|| self.lane_csc(b)),
                algorithm,
                complemented: op.complemented,
            }),
            Operands::VecMat { mask, u, b } => {
                let mask = self.vector(mask).pattern();
                // Lane agreement was validated by `resolve_plan`; a
                // mismatch here means a concurrent lane change.
                let u = T::native_vec(&self.vector(u))
                    .cloned()
                    .ok_or(SparseError::Unsupported(OPERAND_LANE_MISMATCH))?;
                Box::new(PreparedVec {
                    sr,
                    mask,
                    u,
                    b_view: (!pull).then(|| self.view(b)),
                    b_csc: pull.then(|| self.lane_csc(b)),
                    algorithm,
                    complemented: op.complemented,
                })
            }
        })
    }

    /// The shared batch scaffold: the context's pool workers drain an
    /// indexed job queue with per-worker state (built once per worker by
    /// `make_state`) and send `(index, result)` pairs to the calling
    /// thread, which invokes `deliver` in completion order while execution
    /// is still in flight — this receive loop IS the streaming path.
    pub(crate) fn stream_indexed<St, R>(
        &self,
        count: usize,
        make_state: impl Fn() -> St + Sync,
        run: impl Fn(&mut St, usize) -> R + Sync,
        mut deliver: impl FnMut(usize, R),
    ) where
        R: Send,
    {
        if count == 0 {
            return;
        }
        /// One pre-cloned result sender per batch worker slot.
        type SenderSlots<R> = Vec<Mutex<Option<mpsc::Sender<(usize, R)>>>>;
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(count).max(1);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        // Each pool worker takes one pre-cloned sender; the channel closes
        // when the last worker finishes (or unwinds), which is what ends
        // the foreground delivery loop below.
        let senders: SenderSlots<R> = (0..workers).map(|_| Mutex::new(Some(tx.clone()))).collect();
        drop(tx);
        self.pool.with_workers(
            workers,
            |slot| {
                let tx = senders[slot]
                    .lock()
                    .expect("sender slot lock")
                    .take()
                    .expect("each worker slot claimed once");
                let mut state = make_state();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let result = run(&mut state, i);
                    if tx.send((i, result)).is_err() {
                        break; // receiver gone — nothing left to deliver to
                    }
                }
            },
            || {
                for (i, result) in rx {
                    deliver(i, result);
                }
            },
        );
    }

    /// Execute a heterogeneous batch, streaming each result to `sink` as
    /// its worker finishes (completion order, calling thread).
    ///
    /// Each [`MaskedOp`] is planned individually (forced to a fixed
    /// algorithm; the serial drivers assemble rows exactly, so the 1P/2P
    /// phase distinction does not arise here — see [`MaskedOp::phases`])
    /// and runs on its own semiring and value lane. The sink's payload type
    /// chooses the consumption mode: sink [`OpOutput`] for mixed-kind
    /// batches, or a concrete type like `CsrMatrix<f64>` when the batch is
    /// homogeneous (a wrong kind delivers a uniform error for that index).
    /// Operations are independent: one failing op (dimension mismatch,
    /// unsupported override) delivers an `Err` for its index without
    /// affecting the rest. Accumulating ops ([`AccumMode::MergeInto`]) are
    /// merged on the calling thread before the sink sees them, so
    /// concurrent ops never race on a target handle.
    ///
    /// ```
    /// use engine::{Context, OpOutput, SemiringKind, ValueKind};
    /// use sparse::CsrMatrix;
    ///
    /// let ctx = Context::with_threads(2);
    /// let h = ctx.insert(CsrMatrix::diagonal(6, 2.0));
    /// let ops = vec![
    ///     ctx.op(h, h, h).build(),
    ///     ctx.op(h, h, h)
    ///         .semiring(SemiringKind::PlusPair)
    ///         .value(ValueKind::I64)
    ///         .build(),
    /// ];
    /// let mut seen = 0;
    /// ctx.for_each_result(&ops, |_i, r: Result<OpOutput, _>| {
    ///     seen += usize::from(r.unwrap().nnz() == 6);
    /// });
    /// assert_eq!(seen, 2);
    /// ```
    ///
    /// [`AccumMode::MergeInto`]: crate::AccumMode::MergeInto
    pub fn for_each_result<T: FromOpOutput>(&self, ops: &[MaskedOp], mut sink: impl ResultSink<T>) {
        let prepared: Vec<Result<Box<dyn Prepared>, SparseError>> =
            ops.iter().map(|op| self.prepare_any(op)).collect();
        self.stream_indexed(
            prepared.len(),
            LaneScratch::default,
            |scratch, i| match &prepared[i] {
                Err(e) => Err(e.clone()),
                Ok(p) => p.run(scratch),
            },
            |i, result| {
                let result = result
                    .and_then(|out| self.apply_accum(&ops[i], out))
                    .and_then(T::from_output);
                sink.absorb(i, result);
            },
        );
    }

    /// Stream a batch into input-order slots — the one collect discipline
    /// behind both typed collectors.
    fn collect_batch<T: FromOpOutput>(&self, ops: &[MaskedOp]) -> Vec<Result<T, SparseError>> {
        let mut slots: Vec<Option<Result<T, SparseError>>> = (0..ops.len()).map(|_| None).collect();
        self.for_each_result(ops, |i: usize, result| {
            slots[i] = Some(result);
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every op delivered"))
            .collect()
    }

    /// Execute a heterogeneous batch and collect every typed result in
    /// input order — the mixed-kind counterpart of
    /// [`Context::run_batch_collect`].
    pub fn run_batch_outputs(&self, ops: &[MaskedOp]) -> Vec<Result<OpOutput, SparseError>> {
        self.collect_batch(ops)
    }

    /// Execute a batch of `f64` matrix products and collect every result in
    /// input order — the convenience wrapper over
    /// [`Context::for_each_result`] for callers that do want all outputs
    /// resident (ops of another kind deliver an `Err` in their slot; use
    /// [`Context::run_batch_outputs`] for mixed-kind batches).
    pub fn run_batch_collect(&self, ops: &[MaskedOp]) -> Vec<Result<CsrMatrix<f64>, SparseError>> {
        self.collect_batch(ops)
    }
}
