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
//! A serial run is the same drivers on the one row range `0..nrows` with
//! one producer the caller lends (`Producers::One`): a one-part
//! parallel iterator runs inline on the calling thread, so it never
//! dispatches the pool.
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

/// Produce rows of the output, one at a time. Implemented by the push
/// kernels (closing over CSR `B`), by the pull `Inner` algorithm
/// (closing over CSC `B`), and by the adaptive [`crate::hybrid`] producer;
/// lets all of them share the drivers below.
pub(crate) trait RowProducer<C>: Send {
    fn compute_row(&mut self, i: usize, out_cols: &mut Vec<Idx>, out_vals: &mut Vec<C>);
    fn count_row(&mut self, i: usize) -> usize;
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

/// Run a vector product as the one-row matrix product: `product` gets the
/// mask and `u` as one-row views and its `1 × n` result comes back as a
/// vector.
pub(crate) fn one_row<MT, A, C>(
    mask: &SparseVec<MT>,
    u: &SparseVec<A>,
    product: impl FnOnce(MaskRows<'_>, Rows<'_, A>) -> Result<CsrMatrix<C>, SparseError>,
) -> Result<SparseVec<C>, SparseError> {
    let (mask_ptr, u_ptr) = ([0, mask.nnz()], [0, u.nnz()]);
    let mask = MaskRows {
        rowptr: &mask_ptr,
        colidx: mask.indices(),
    };
    let u = Rows {
        rowptr: &u_ptr,
        colidx: u.indices(),
        values: u.values(),
    };
    let c = product(mask, u)?;
    let (_, ncols, _, cols, vals) = c.into_parts();
    SparseVec::try_new(ncols, cols, vals)
}

struct PushProducer<'m, S: Semiring, K> {
    sr: S,
    kernel: K,
    mask: MaskRows<'m>,
    a: Rows<'m, S::A>,
    b: &'m CsrMatrix<S::B>,
    complemented: bool,
}

impl<'m, S, K> RowProducer<S::C> for PushProducer<'m, S, K>
where
    S: Semiring,
    K: RowKernel<S>,
{
    #[inline]
    fn compute_row(&mut self, i: usize, out_cols: &mut Vec<Idx>, out_vals: &mut Vec<S::C>) {
        let mc = self.mask.row(i);
        let (ac, av) = self.a.row(i);
        let kernel = &mut self.kernel;
        if self.complemented {
            kernel.compute_row_complemented(self.sr, mc, ac, av, self.b, out_cols, out_vals);
        } else {
            kernel.compute_row(self.sr, mc, ac, av, self.b, out_cols, out_vals);
        }
    }

    #[inline]
    fn count_row(&mut self, i: usize) -> usize {
        let mc = self.mask.row(i);
        let (ac, av) = self.a.row(i);
        let kernel = &mut self.kernel;
        if self.complemented {
            kernel.count_row_complemented(mc, ac, av, self.b)
        } else {
            kernel.count_row(mc, ac, av, self.b)
        }
    }
}

struct InnerProducer<'m, S: Semiring> {
    sr: S,
    mask: MaskRows<'m>,
    a: Rows<'m, S::A>,
    b: &'m CscMatrix<S::B>,
    complemented: bool,
}

impl<'m, S> RowProducer<S::C> for InnerProducer<'m, S>
where
    S: Semiring,
{
    #[inline]
    fn compute_row(&mut self, i: usize, out_cols: &mut Vec<Idx>, out_vals: &mut Vec<S::C>) {
        let mc = self.mask.row(i);
        let (ac, av) = self.a.row(i);
        if self.complemented {
            inner::inner_row_complemented(self.sr, mc, ac, av, self.b, out_cols, out_vals);
        } else {
            inner::inner_row(self.sr, mc, ac, av, self.b, out_cols, out_vals);
        }
    }

    #[inline]
    fn count_row(&mut self, i: usize) -> usize {
        let mc = self.mask.row(i);
        let (ac, _) = self.a.row(i);
        if self.complemented {
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

/// Where a driver's rows run and which producers compute them.
pub(crate) enum Producers<'f, P> {
    /// Rows in chunks at the pool's claim granularity; one producer per
    /// pool worker, built by the function on the worker's first chunk.
    PerWorker(WorkerLocal<P>, &'f (dyn Fn() -> P + Sync)),
    /// Every row as the one range `0..nrows`, computed by the caller's
    /// producer on the calling thread (the lock is never contended).
    One(Mutex<&'f mut P>),
}

impl<P> Producers<'_, P> {
    fn chunks(&self, nrows: usize) -> Vec<(usize, usize)> {
        match self {
            Producers::PerWorker(..) => row_chunks(nrows),
            Producers::One(_) => vec![(0, nrows)],
        }
    }

    fn with<R>(&self, body: impl FnOnce(&mut P) -> R) -> R {
        match self {
            Producers::PerWorker(local, make) => local.with(make, body),
            Producers::One(producer) => body(&mut producer.lock().expect("producer lock")),
        }
    }
}

/// Run `producers` over every row under the `phases` discipline.
pub(crate) fn drive<C, P>(
    phases: Phases,
    nrows: usize,
    ncols: usize,
    producers: Producers<'_, P>,
) -> CsrMatrix<C>
where
    C: Copy + Default + Send + Sync,
    P: RowProducer<C>,
{
    match phases {
        Phases::One => one_phase_driver(nrows, ncols, producers),
        Phases::Two => two_phase_driver(nrows, ncols, producers),
    }
}

/// One-phase driver: a single numeric pass into per-chunk buffers,
/// followed by a parallel scatter into the final CSR arrays (a single
/// chunk's buffers are moved in instead).
fn one_phase_driver<C, P>(nrows: usize, ncols: usize, producers: Producers<'_, P>) -> CsrMatrix<C>
where
    C: Copy + Default + Send + Sync,
    P: RowProducer<C>,
{
    let chunks = producers.chunks(nrows);
    struct ChunkOut<C> {
        counts: Vec<usize>,
        cols: Vec<Idx>,
        vals: Vec<C>,
    }
    // Per worker, one producer (kernel scratch) is shared across every
    // chunk that worker claims — with skewed rows a worker may claim many.
    let mut outs: Vec<ChunkOut<C>> = chunks
        .par_iter()
        .map(|&(s, e)| {
            producers.with(|producer| {
                let mut counts = Vec::with_capacity(e - s);
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                for i in s..e {
                    let before = cols.len();
                    producer.compute_row(i, &mut cols, &mut vals);
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
fn two_phase_driver<C, P>(nrows: usize, ncols: usize, producers: Producers<'_, P>) -> CsrMatrix<C>
where
    C: Copy + Default + Send + Sync,
    P: RowProducer<C>,
{
    let chunks = producers.chunks(nrows);
    // Both passes share the producers: the symbolic count and the numeric
    // write reuse the same accumulator scratch.

    // Symbolic phase.
    let chunk_counts: Vec<Vec<usize>> = chunks
        .par_iter()
        .map(|&(s, e)| producers.with(|producer| (s..e).map(|i| producer.count_row(i)).collect()))
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
            producers.with(|producer| {
                let mut rc: Vec<Idx> = Vec::new();
                let mut rv: Vec<C> = Vec::new();
                let mut cursor = 0usize;
                for i in s..e {
                    rc.clear();
                    rv.clear();
                    producer.compute_row(i, &mut rc, &mut rv);
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

/// Run a push-based kernel `K` in one or two phases. Shapes are the
/// caller's to check ([`crate::api::check_shapes`]).
pub(crate) fn push_driver<S, K, MT>(
    phases: Phases,
    sr: S,
    mask: &CsrMatrix<MT>,
    complemented: bool,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S: Semiring,
    S::C: Default,
    K: RowKernel<S>,
    MT: Copy + Sync,
{
    push_rows::<S, K>(phases, sr, MaskRows::of(mask), complemented, Rows::of(a), b)
}

/// [`push_driver`] on the mask's pattern.
fn push_rows<S, K>(
    phases: Phases,
    sr: S,
    mask: MaskRows<'_>,
    complemented: bool,
    a: Rows<'_, S::A>,
    b: &CsrMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S: Semiring,
    S::C: Default,
    K: RowKernel<S>,
{
    let (max_m, ncols) = (mask.max_row_nnz(), b.ncols());
    let make = || PushProducer {
        sr,
        kernel: K::new(ncols, max_m),
        mask,
        a,
        b,
        complemented,
    };
    let producers = Producers::PerWorker(WorkerLocal::new(), &make);
    drive(phases, a.nrows(), ncols, producers)
}

/// A serial push run: the drivers on the one row range `0..nrows` with
/// the caller's reused `kernel` (sized for `b` and the mask by the
/// caller), which is handed back with the product.
pub(crate) fn push_rows_serial<S, K>(
    phases: Phases,
    sr: S,
    mask: MaskRows<'_>,
    complemented: bool,
    a: Rows<'_, S::A>,
    b: &CsrMatrix<S::B>,
    kernel: K,
) -> (CsrMatrix<S::C>, K)
where
    S: Semiring,
    S::C: Default,
    K: RowKernel<S>,
{
    let mut producer = PushProducer {
        sr,
        kernel,
        mask,
        a,
        b,
        complemented,
    };
    let producers = Producers::One(Mutex::new(&mut producer));
    let c = drive(phases, a.nrows(), b.ncols(), producers);
    (c, producer.kernel)
}

/// Run the pull-based `Inner` algorithm (B in CSC) in one or two phases.
/// Shapes are the caller's to check ([`crate::api::check_shapes`]).
pub(crate) fn inner_driver<S, MT>(
    phases: Phases,
    sr: S,
    mask: &CsrMatrix<MT>,
    complemented: bool,
    a: &CsrMatrix<S::A>,
    b: &CscMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S: Semiring,
    S::C: Default + Sync,
    MT: Copy + Sync,
{
    inner_rows(
        phases,
        false,
        sr,
        MaskRows::of(mask),
        complemented,
        Rows::of(a),
        b,
    )
}

/// [`inner_driver`] on the mask's pattern, row-parallel or, when `serial`,
/// on the one row range `0..nrows`.
pub(crate) fn inner_rows<S>(
    phases: Phases,
    serial: bool,
    sr: S,
    mask: MaskRows<'_>,
    complemented: bool,
    a: Rows<'_, S::A>,
    b: &CscMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S: Semiring,
    S::C: Default + Sync,
{
    let make = || InnerProducer {
        sr,
        mask,
        a,
        b,
        complemented,
    };
    let mut producer;
    let producers = if serial {
        producer = make();
        Producers::One(Mutex::new(&mut producer))
    } else {
        Producers::PerWorker(WorkerLocal::new(), &make)
    };
    drive(phases, a.nrows(), b.ncols(), producers)
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
    use crate::algos::{ninspect, HashKernel, HeapKernel, McaKernel, MsaKernel};
    use crate::kernel::testutil::random_csr;
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

    /// All drivers × kernels must agree with the dense reference.
    #[test]
    fn drivers_match_reference_all_kernels() {
        let sr = PlusTimes::<f64>::new();
        for seed in 0..3u64 {
            let a = random_csr(33, 29, seed * 7 + 1, 25);
            let b = random_csr(29, 41, seed * 7 + 2, 25);
            let m = random_csr(33, 41, seed * 7 + 3, 35).pattern();
            let bc = CscMatrix::from_csr(&b);
            for compl in [false, true] {
                let expect = reference_masked_spgemm(sr, &m, compl, &a, &b);
                type S = PlusTimes<f64>;
                let results = vec![
                    (
                        "msa-1p",
                        push_driver::<S, MsaKernel<S>, ()>(Phases::One, sr, &m, compl, &a, &b),
                    ),
                    (
                        "msa-2p",
                        push_driver::<S, MsaKernel<S>, ()>(Phases::Two, sr, &m, compl, &a, &b),
                    ),
                    (
                        "hash-1p",
                        push_driver::<S, HashKernel<S>, ()>(Phases::One, sr, &m, compl, &a, &b),
                    ),
                    (
                        "hash-2p",
                        push_driver::<S, HashKernel<S>, ()>(Phases::Two, sr, &m, compl, &a, &b),
                    ),
                    (
                        "heap1-1p",
                        push_driver::<S, HeapKernel<S, { ninspect::ONE }>, ()>(
                            Phases::One,
                            sr,
                            &m,
                            compl,
                            &a,
                            &b,
                        ),
                    ),
                    (
                        "heapinf-2p",
                        push_driver::<S, HeapKernel<S, { ninspect::INF }>, ()>(
                            Phases::Two,
                            sr,
                            &m,
                            compl,
                            &a,
                            &b,
                        ),
                    ),
                    (
                        "inner-1p",
                        inner_driver(Phases::One, sr, &m, compl, &a, &bc),
                    ),
                    (
                        "inner-2p",
                        inner_driver(Phases::Two, sr, &m, compl, &a, &bc),
                    ),
                ];
                for (name, got) in results {
                    assert_eq!(got, expect, "{name} seed={seed} compl={compl}");
                }
                if !compl {
                    let got =
                        push_driver::<S, McaKernel<S>, ()>(Phases::One, sr, &m, compl, &a, &b);
                    assert_eq!(got, expect, "mca-1p seed={seed}");
                    let got =
                        push_driver::<S, McaKernel<S>, ()>(Phases::Two, sr, &m, compl, &a, &b);
                    assert_eq!(got, expect, "mca-2p seed={seed}");
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
        let c = push_driver::<_, MsaKernel<_>, _>(Phases::One, sr, &m, false, &a, &b);
        assert_eq!(c.shape(), (5, 3));
        assert_eq!(c.nnz(), 0);
        let c = push_driver::<_, HashKernel<_>, _>(Phases::Two, sr, &m, true, &a, &b);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn custom_thread_pool_runs_driver() {
        let sr = PlusTimes::<f64>::new();
        let a = random_csr(50, 50, 9, 20);
        let b = random_csr(50, 50, 10, 20);
        let m = random_csr(50, 50, 11, 30).pattern();
        let expect = push_driver::<_, MsaKernel<_>, _>(Phases::One, sr, &m, false, &a, &b);
        let pool = thread_pool(2);
        let got =
            pool.install(|| push_driver::<_, MsaKernel<_>, _>(Phases::One, sr, &m, false, &a, &b));
        assert_eq!(got, expect);
    }
}
