//! The row drivers: one-phase and two-phase execution (Sections 4.2 and
//! 6). Every product in this crate is assembled by one of the two.
//!
//! A vector product `v⊺ = m⊺ ⊙ (u⊺·B)` is the one-row matrix product
//! (Section 5 writes every row-wise algorithm this way): the drivers read
//! the mask through `MaskRows` and the left operand through `Rows`, and
//! both view a sparse vector in place as a `1 × n` matrix (`one_row`), so
//! a vector runs the same producers and driver as a matrix.
//!
//! Parallelism is coarse-grained across rows, as in the paper ("our
//! algorithms do not parallelize the formation of individual rows").
//! Rows are grouped into contiguous chunks at the pool scheduler's own
//! claim granularity ([`rayon::recommended_parts`]); idle workers pull the
//! next chunk from a shared atomic cursor, so load imbalance from skewed
//! degree distributions (power-law hub rows) rebalances dynamically
//! instead of relying on a hand-tuned oversubscription factor. Each worker
//! keeps one kernel (accumulator scratch) alive across every chunk it
//! claims within a driver call ([`crate::scratch::WorkerLocal`] keyed by
//! the pool's stable worker indices).
//!
//! Every product reaches its row producer through one dispatch,
//! [`crate::ScratchSet::run`]'s executor: a push producer per accumulator
//! (closing over CSR `B`), the pull `Inner` producer (closing over CSC
//! `B`), or the per-row [`crate::hybrid`] producer (both forms). A
//! producer is shared by every worker; the mutable state it computes rows
//! with (its kernel: an accumulator, none for `Inner`, three for the
//! hybrid) is per worker.
//!
//! A serial run is the same drivers on the one row range `0..nrows` with
//! one kernel the caller lends (`Kernels::One`): a one-part parallel
//! iterator runs inline on the calling thread, so it never dispatches the
//! pool.
//!
//! * **One phase**: each chunk computes its rows into growable thread-local
//!   buffers; per-row counts are prefix-summed into the final row pointers
//!   and the buffers are scattered into the output arrays in parallel (a
//!   single chunk's buffers become the output arrays).
//!   Memory overhead: one transient copy of the output (the paper's
//!   "allocate enough, then copy" strategy).
//! * **Two phases**: a symbolic pass counts each row's nonzeros (pattern
//!   only), the exact output is allocated, and the numeric pass writes rows
//!   through a small per-thread scratch directly into their final slots.
//!   Memory overhead: `O(rows per thread)` scratch, at the cost of doing
//!   the traversal twice.

use std::sync::Mutex;

use rayon::prelude::*;
use sparse::{CscMatrix, CsrMatrix, Idx, Semiring, SparseError, SparseVec};

use crate::algos::inner;
use crate::api::Phases;
use crate::kernel::RowKernel;
use crate::scratch::WorkerLocal;

/// Produce rows of the output, one at a time, with a per-worker kernel
/// `K` (the mutable scratch rows are computed in). One producer serves
/// every worker of a product.
pub(crate) trait RowProducer<C, K>: Sync {
    /// A fresh kernel for one pool worker.
    fn new_kernel(&self) -> K;
    fn compute_row(&self, kernel: &mut K, i: usize, out_cols: &mut Vec<Idx>, out_vals: &mut Vec<C>);
    fn count_row(&self, kernel: &mut K, i: usize) -> usize;
}

/// A mask as the kernels read it: its pattern, whatever its value type.
/// Drivers take this rather than `&CsrMatrix<MT>`, so each is compiled
/// once per semiring and kernel, not once more per mask value type.
#[derive(Copy, Clone)]
pub(crate) struct MaskRows<'m> {
    rowptr: &'m [usize],
    colidx: &'m [Idx],
}

impl<'m> MaskRows<'m> {
    pub(crate) fn of<MT>(mask: &'m CsrMatrix<MT>) -> Self {
        MaskRows {
            rowptr: mask.rowptr(),
            colidx: mask.colidx(),
        }
    }

    /// Column indices of row `i`.
    #[inline]
    pub(crate) fn row(self, i: usize) -> &'m [Idx] {
        &self.colidx[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Largest row nonzero count (sizes hash/MCA accumulators).
    pub(crate) fn max_row_nnz(self) -> usize {
        self.rowptr
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// The left operand `A` as the kernels read it: row pointers, column
/// indices and values. Built from a [`CsrMatrix`], or with no copy from a
/// [`SparseVec`] as its one row.
#[derive(Copy, Clone)]
pub(crate) struct Rows<'a, T> {
    rowptr: &'a [usize],
    colidx: &'a [Idx],
    values: &'a [T],
}

impl<'a, T> Rows<'a, T> {
    pub(crate) fn of(a: &'a CsrMatrix<T>) -> Self {
        Rows {
            rowptr: a.rowptr(),
            colidx: a.colidx(),
            values: a.values(),
        }
    }

    pub(crate) fn nrows(self) -> usize {
        self.rowptr.len() - 1
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub(crate) fn row(self, i: usize) -> (&'a [Idx], &'a [T]) {
        let range = self.rowptr[i]..self.rowptr[i + 1];
        (&self.colidx[range.clone()], &self.values[range])
    }
}

/// Run a vector product as the one-row matrix product: `product` gets a
/// [`Product`] viewing the mask and `u` as one-row operands, and its
/// `1 × n` result comes back as a vector.
pub(crate) fn one_row<S: Semiring, MT>(
    sr: S,
    mask: &SparseVec<MT>,
    complemented: bool,
    u: &SparseVec<S::A>,
    product: impl FnOnce(Product<'_, S>) -> Result<CsrMatrix<S::C>, SparseError>,
) -> Result<SparseVec<S::C>, SparseError> {
    let (mask_ptr, u_ptr) = ([0, mask.nnz()], [0, u.nnz()]);
    let mask = MaskRows {
        rowptr: &mask_ptr,
        colidx: mask.indices(),
    };
    let a = Rows {
        rowptr: &u_ptr,
        colidx: u.indices(),
        values: u.values(),
    };
    let c = product(Product {
        sr,
        mask,
        complemented,
        a,
    })?;
    SparseVec::from_row(c)
}

/// One product's mask, polarity and left operand, as every row producer
/// reads them.
#[derive(Copy, Clone)]
pub(crate) struct Product<'p, S: Semiring> {
    pub(crate) sr: S,
    pub(crate) mask: MaskRows<'p>,
    pub(crate) complemented: bool,
    pub(crate) a: Rows<'p, S::A>,
}

impl<'p, S: Semiring> Product<'p, S> {
    /// The product of matrix operands.
    pub(crate) fn of<MT>(
        sr: S,
        mask: &'p CsrMatrix<MT>,
        complemented: bool,
        a: &'p CsrMatrix<S::A>,
    ) -> Self {
        let (mask, a) = (MaskRows::of(mask), Rows::of(a));
        Product {
            sr,
            mask,
            complemented,
            a,
        }
    }

    /// Row `i`'s mask columns, and the columns and values of `A`'s row.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> (&'p [Idx], &'p [Idx], &'p [S::A]) {
        let (ac, av) = self.a.row(i);
        (self.mask.row(i), ac, av)
    }
}

/// A push producer: any [`RowKernel`] scattering the rows of CSR `B`. Its
/// kernels are sized for `B`'s columns and the longest mask row `max_m`.
pub(crate) struct PushProducer<'p, S: Semiring> {
    pub(crate) p: Product<'p, S>,
    pub(crate) b: &'p CsrMatrix<S::B>,
    pub(crate) max_m: usize,
}

impl<S, K> RowProducer<S::C, K> for PushProducer<'_, S>
where
    S: Semiring,
    K: RowKernel<S>,
{
    fn new_kernel(&self) -> K {
        K::new(self.b.ncols(), self.max_m)
    }

    #[inline]
    fn compute_row(
        &self,
        kernel: &mut K,
        i: usize,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    ) {
        let ((mc, ac, av), sr, b) = (self.p.row(i), self.p.sr, self.b);
        if self.p.complemented {
            kernel.compute_row_complemented(sr, mc, ac, av, b, out_cols, out_vals);
        } else {
            kernel.compute_row(sr, mc, ac, av, b, out_cols, out_vals);
        }
    }

    #[inline]
    fn count_row(&self, kernel: &mut K, i: usize) -> usize {
        let (mc, ac, av) = self.p.row(i);
        if self.p.complemented {
            kernel.count_row_complemented(mc, ac, av, self.b)
        } else {
            kernel.count_row(mc, ac, av, self.b)
        }
    }
}

/// The pull producer: one sorted-merge dot product per admissible output
/// position, against CSC `B`. It needs no kernel.
pub(crate) struct InnerProducer<'p, S: Semiring> {
    pub(crate) p: Product<'p, S>,
    pub(crate) b: &'p CscMatrix<S::B>,
}

impl<S: Semiring> RowProducer<S::C, ()> for InnerProducer<'_, S> {
    fn new_kernel(&self) {}

    #[inline]
    fn compute_row(&self, _: &mut (), i: usize, out_cols: &mut Vec<Idx>, out_vals: &mut Vec<S::C>) {
        let ((mc, ac, av), sr, b) = (self.p.row(i), self.p.sr, self.b);
        if self.p.complemented {
            inner::inner_row_complemented(sr, mc, ac, av, b, out_cols, out_vals);
        } else {
            inner::inner_row(sr, mc, ac, av, b, out_cols, out_vals);
        }
    }

    #[inline]
    fn count_row(&self, _: &mut (), i: usize) -> usize {
        let (mc, ac, _) = self.p.row(i);
        if self.p.complemented {
            inner::inner_count_row_complemented::<S>(mc, ac, self.b)
        } else {
            inner::inner_count_row::<S>(mc, ac, self.b)
        }
    }
}

/// Contiguous row ranges at the scheduler's claim granularity: the chunk
/// list is sized so each parallel part is exactly one chunk, making the
/// pool's atomic chunk claiming the load balancer (no local splitting
/// policy on top).
fn row_chunks(nrows: usize) -> Vec<(usize, usize)> {
    if nrows == 0 {
        return Vec::new();
    }
    let target = rayon::recommended_parts(nrows);
    let chunk = nrows.div_ceil(target).max(1);
    (0..nrows)
        .step_by(chunk)
        .map(|s| (s, (s + chunk).min(nrows)))
        .collect()
}

/// Split `buf` into mutable sub-slices at the given cumulative `bounds`
/// (ascending, last == buf.len()).
fn split_at_bounds<'a, T>(mut buf: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len());
    let mut prev = 0usize;
    for &b in bounds {
        let (head, tail) = buf.split_at_mut(b - prev);
        out.push(head);
        buf = tail;
        prev = b;
    }
    out
}

/// Where a driver's rows run and which kernels compute them.
enum Kernels<'f, K> {
    /// Rows in chunks at the pool's claim granularity; one kernel per pool
    /// worker, built by the function on the worker's first chunk.
    PerWorker(WorkerLocal<K>, &'f (dyn Fn() -> K + Sync)),
    /// Every row as the one range `0..nrows`, computed with the caller's
    /// kernel on the calling thread (the lock is never contended).
    One(Mutex<&'f mut K>),
}

impl<K> Kernels<'_, K> {
    fn chunks(&self, nrows: usize) -> Vec<(usize, usize)> {
        match self {
            Kernels::PerWorker(..) => row_chunks(nrows),
            Kernels::One(_) => vec![(0, nrows)],
        }
    }

    fn with<R>(&self, body: impl FnOnce(&mut K) -> R) -> R {
        match self {
            Kernels::PerWorker(local, make) => local.with(make, body),
            Kernels::One(kernel) => body(&mut kernel.lock().expect("kernel lock")),
        }
    }
}

/// Run `producer` over every `nrows × ncols` output row under the `phases`
/// discipline: serially on the caller's `kernel`, or, given none,
/// row-parallel with one fresh kernel per pool worker.
pub(crate) fn drive<C, K, P>(
    phases: Phases,
    nrows: usize,
    ncols: usize,
    producer: &P,
    kernel: Option<&mut K>,
) -> CsrMatrix<C>
where
    C: Copy + Default + Send + Sync,
    K: Send,
    P: RowProducer<C, K>,
{
    let make = || producer.new_kernel();
    let kernels = match kernel {
        Some(kernel) => Kernels::One(Mutex::new(kernel)),
        None => Kernels::PerWorker(WorkerLocal::new(), &make),
    };
    match phases {
        Phases::One => one_phase_driver(nrows, ncols, producer, kernels),
        Phases::Two => two_phase_driver(nrows, ncols, producer, kernels),
    }
}

/// One-phase driver: a single numeric pass into per-chunk buffers,
/// followed by a parallel scatter into the final CSR arrays (a single
/// chunk's buffers are moved in instead).
fn one_phase_driver<C, K, P>(
    nrows: usize,
    ncols: usize,
    producer: &P,
    kernels: Kernels<'_, K>,
) -> CsrMatrix<C>
where
    C: Copy + Default + Send + Sync,
    K: Send,
    P: RowProducer<C, K>,
{
    let chunks = kernels.chunks(nrows);
    struct ChunkOut<C> {
        counts: Vec<usize>,
        cols: Vec<Idx>,
        vals: Vec<C>,
    }
    // Per worker, one kernel (accumulator scratch) is shared across every
    // chunk that worker claims — with skewed rows a worker may claim many.
    let mut outs: Vec<ChunkOut<C>> = chunks
        .par_iter()
        .map(|&(s, e)| {
            kernels.with(|kernel| {
                let mut counts = Vec::with_capacity(e - s);
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                for i in s..e {
                    let before = cols.len();
                    producer.compute_row(kernel, i, &mut cols, &mut vals);
                    counts.push(cols.len() - before);
                }
                ChunkOut { counts, cols, vals }
            })
        })
        .collect();

    // Row pointers from per-row counts.
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    for out in &outs {
        for &c in &out.counts {
            rowptr.push(rowptr.last().unwrap() + c);
        }
    }
    if outs.len() == 1 {
        let out = outs.pop().expect("one chunk");
        return CsrMatrix::from_parts_unchecked(nrows, ncols, rowptr, out.cols, out.vals);
    }
    let nnz = *rowptr.last().unwrap();

    // Parallel scatter of chunk buffers into the final arrays.
    let mut colidx: Vec<Idx> = vec![0; nnz];
    let mut values: Vec<C> = vec![C::default(); nnz];
    let bounds: Vec<usize> = chunks.iter().map(|&(_, e)| rowptr[e]).collect();
    let col_slices = split_at_bounds(&mut colidx, &bounds);
    let val_slices = split_at_bounds(&mut values, &bounds);
    outs.par_iter()
        .zip(col_slices)
        .zip(val_slices)
        .for_each(|((out, cs), vs)| {
            cs.copy_from_slice(&out.cols);
            vs.copy_from_slice(&out.vals);
        });
    CsrMatrix::from_parts_unchecked(nrows, ncols, rowptr, colidx, values)
}

/// Two-phase driver: symbolic count, exact allocation, then a numeric pass
/// that writes each row through a small scratch straight into its slot.
fn two_phase_driver<C, K, P>(
    nrows: usize,
    ncols: usize,
    producer: &P,
    kernels: Kernels<'_, K>,
) -> CsrMatrix<C>
where
    C: Copy + Default + Send + Sync,
    K: Send,
    P: RowProducer<C, K>,
{
    let chunks = kernels.chunks(nrows);
    // Both passes share the kernels: the symbolic count and the numeric
    // write reuse the same accumulator scratch.

    // Symbolic phase.
    let chunk_counts: Vec<Vec<usize>> = chunks
        .par_iter()
        .map(|&(s, e)| {
            kernels.with(|kernel| (s..e).map(|i| producer.count_row(kernel, i)).collect())
        })
        .collect();
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    for counts in &chunk_counts {
        for &c in counts {
            rowptr.push(rowptr.last().unwrap() + c);
        }
    }
    let nnz = *rowptr.last().unwrap();

    // Numeric phase into exact storage.
    let mut colidx: Vec<Idx> = vec![0; nnz];
    let mut values: Vec<C> = vec![C::default(); nnz];
    let bounds: Vec<usize> = chunks.iter().map(|&(_, e)| rowptr[e]).collect();
    let col_slices = split_at_bounds(&mut colidx, &bounds);
    let val_slices = split_at_bounds(&mut values, &bounds);
    chunks
        .par_iter()
        .zip(col_slices)
        .zip(val_slices)
        .for_each(|((&(s, e), cs), vs)| {
            kernels.with(|kernel| {
                let mut rc: Vec<Idx> = Vec::new();
                let mut rv: Vec<C> = Vec::new();
                let mut cursor = 0usize;
                for i in s..e {
                    rc.clear();
                    rv.clear();
                    producer.compute_row(kernel, i, &mut rc, &mut rv);
                    debug_assert_eq!(
                        rc.len(),
                        rowptr[i + 1] - rowptr[i],
                        "symbolic/numeric mismatch at row {i}"
                    );
                    cs[cursor..cursor + rc.len()].copy_from_slice(&rc);
                    vs[cursor..cursor + rv.len()].copy_from_slice(&rv);
                    cursor += rc.len();
                }
                debug_assert_eq!(cursor, cs.len());
            });
        });
    CsrMatrix::from_parts_unchecked(nrows, ncols, rowptr, colidx, values)
}

/// Build a rayon thread pool with `n` persistent workers (strong-scaling
/// harnesses). Workers are spawned once and parked between jobs;
/// `pool.install(op)` scopes both the worker set and the observed
/// `current_num_threads` — including inside worker closures and across
/// nested installs — and panics in worker closures propagate to the
/// caller.
pub fn thread_pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("failed to build rayon pool")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{masked_spgemm, Algorithm, Choice};
    use crate::hybrid::HybridConfig;
    use crate::kernel::testutil::random_csr;
    use crate::scratch::ScratchSet;
    use sparse::dense::reference_masked_spgemm;
    use sparse::PlusTimes;

    #[test]
    fn chunking_covers_all_rows() {
        for nrows in [0usize, 1, 7, 100, 1023] {
            let chunks = row_chunks(nrows);
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for &(s, e) in &chunks {
                assert_eq!(s, prev_end);
                assert!(e > s);
                covered += e - s;
                prev_end = e;
            }
            assert_eq!(covered, nrows);
        }
    }

    #[test]
    fn split_bounds() {
        let mut v = vec![0u32; 10];
        let slices = split_at_bounds(&mut v, &[3, 3, 10]);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].len(), 3);
        assert_eq!(slices[1].len(), 0);
        assert_eq!(slices[2].len(), 7);
    }

    /// Every choice (the six families and the hybrid) × 1P/2P ×
    /// pooled/serial agrees with the dense reference through the one
    /// executor, with one scratch set reused throughout; a complemented
    /// mask on MCA or the hybrid is an error.
    #[test]
    fn drivers_match_reference_all_kernels() {
        let sr = PlusTimes::<f64>::new();
        let cfg = HybridConfig::default();
        let mut set = ScratchSet::new();
        let choices = Algorithm::ALL.map(Choice::Fixed);
        for seed in 0..3u64 {
            let a = random_csr(33, 29, seed * 7 + 1, 25);
            let b = random_csr(29, 41, seed * 7 + 2, 25);
            let m = random_csr(33, 41, seed * 7 + 3, 35).pattern();
            let bc = CscMatrix::from_csr(&b);
            for compl in [false, true] {
                let expect = reference_masked_spgemm(sr, &m, compl, &a, &b);
                for choice in choices.into_iter().chain([Choice::Hybrid]) {
                    let supported =
                        !compl || matches!(choice, Choice::Fixed(alg) if alg.supports_complement());
                    for (phases, serial) in Phases::ALL
                        .into_iter()
                        .flat_map(|ph| [(ph, false), (ph, true)])
                    {
                        let got = set.run(
                            choice,
                            phases,
                            serial,
                            compl,
                            sr,
                            cfg,
                            &m,
                            &a,
                            &b,
                            Some(&bc),
                        );
                        let case = format!(
                            "{choice:?}-{phases:?} serial={serial} seed={seed} compl={compl}"
                        );
                        if supported {
                            assert_eq!(got.unwrap(), expect, "{case}");
                        } else {
                            assert!(matches!(got, Err(SparseError::Unsupported(_))), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_matrices() {
        let sr = PlusTimes::<f64>::new();
        let a = CsrMatrix::<f64>::empty(5, 4);
        let b = CsrMatrix::<f64>::empty(4, 3);
        let m = CsrMatrix::<()>::empty(5, 3);
        let c = masked_spgemm(Algorithm::Msa, Phases::One, false, sr, &m, &a, &b).unwrap();
        assert_eq!(c.shape(), (5, 3));
        assert_eq!(c.nnz(), 0);
        let c = masked_spgemm(Algorithm::Hash, Phases::Two, true, sr, &m, &a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn custom_thread_pool_runs_driver() {
        let sr = PlusTimes::<f64>::new();
        let a = random_csr(50, 50, 9, 20);
        let b = random_csr(50, 50, 10, 20);
        let m = random_csr(50, 50, 11, 30).pattern();
        let run = || masked_spgemm(Algorithm::Msa, Phases::One, false, sr, &m, &a, &b);
        let expect = run().unwrap();
        let got = thread_pool(2).install(run).unwrap();
        assert_eq!(got, expect);
    }
}
