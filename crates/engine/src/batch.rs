//! Concurrent execution of many independent masked multiplies, streamed.
//!
//! Batch mode inverts the parallelization axis: instead of one product
//! parallelized across rows, the [`Context`]'s workers each run whole
//! products serially and pull the next operation from a shared queue. Each
//! worker holds one scratch set *per lane and semiring* it runs
//! ([`ScratchSets`]) for the entire batch, so accumulator scratch (the
//! `O(ncols)` MSA arrays, hash tables, heap state) is allocated once per
//! worker, lane and semiring rather than once per product.
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
//!   [`ValueKind`](masked_spgemm::ValueKind), dispatched per op to the
//!   kernels built for that pair, so one batch mixes `bool` BFS steps,
//!   exact `i64` counting ops, and `f64` products on the same worker;
//! * **vector operands** — an [`Operands::VecMat`](crate::Operands::VecMat)
//!   op runs as the one-row matrix product it is, on the same executor,
//!   so frontier expansions batch alongside matrix products;
//! * **streamed delivery** — finished products flow through a channel to
//!   the calling thread, which hands them to a [`ResultSink`] in
//!   *completion order*. A sink that consumes-and-drops keeps memory flat
//!   regardless of batch size; [`Context::run_batch_collect`] is the
//!   convenience that collects into input order when you do want them all.
//!
//! Each op is resolved up front on the calling thread (plans read cached
//! auxiliaries, so this is cheap) exactly as a single op is, except that
//! its plan is marked serial: the worker runs the plan's one- or two-phase
//! driver on the one row range with its own scratch. A serial plan names
//! one fixed family — a planned per-row hybrid becomes the cheapest family
//! of its costs — since per-row dispatch buys nothing when the batch
//! already saturates the workers, and fixed families let scratch be reused
//! by family.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

use sparse::{CsrMatrix, SparseError};

use crate::context::Context;
use crate::lane::{on_variant, ScratchSets};
use crate::op::{FromOpOutput, MaskedOp, OpOutput, Resolved, ResultSink};

impl Context {
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
    /// Each [`MaskedOp`] is planned individually, under a serial plan (one
    /// fixed algorithm and the plan's phases, see [`MaskedOp::phases`]),
    /// and runs on its own semiring and value lane. The sink's payload type
    /// chooses the consumption mode: sink [`OpOutput`] for mixed-kind
    /// batches, or a concrete type like `CsrMatrix<f64>` when the batch is
    /// homogeneous (a wrong kind delivers a uniform error for that index).
    /// Operations are independent: one failing op (dimension mismatch,
    /// unsupported override) delivers an `Err` for its index without
    /// affecting the rest. Accumulating ops ([`AccumMode::MergeInto`]) are
    /// merged on the calling thread before the sink sees them, so
    /// concurrent ops never race on a target handle; the sink receives the
    /// entries each merge changed, as a single op delivers them.
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
        // Each entry runs whole on one worker, so its plan is serial.
        let resolved: Vec<Result<Resolved, SparseError>> =
            ops.iter().map(|op| self.resolve(op, true)).collect();
        self.stream_indexed(
            resolved.len(),
            ScratchSets::default,
            |scratch, i| match &resolved[i] {
                Err(e) => Err(e.clone()),
                Ok(r) => on_variant!(r, Resolved, r => self.execute(r, scratch)),
            },
            |i, result| {
                let result = result
                    .and_then(|out| self.finish(&ops[i], out))
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
