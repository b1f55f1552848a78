//! The row-kernel abstraction shared by all push-based algorithms.
//!
//! Every push-based Masked SpGEMM in the paper computes output row `i` as
//! `C(i,:) = M(i,:) ⊙ Σ_k A(i,k)·B(k,:)` — a masked sparse vector-matrix
//! product (Masked SpGEVM, Section 5). A [`RowKernel`] encapsulates the
//! per-thread scratch state (the accumulator) and computes one such row at a
//! time; the drivers in [`crate::exec`] create one kernel per rayon worker
//! and iterate rows in parallel.
//!
//! Kernels expose both a *numeric* entry point (`compute_row`, which appends
//! `(column, value)` pairs in increasing column order) and a *symbolic* one
//! (`count_row`, which only counts output nonzeros) so the same machinery
//! serves the one-phase and two-phase drivers. Complemented-mask variants
//! have separate entry points because their control flow differs
//! fundamentally (the default accumulator state flips from NOTALLOWED to
//! ALLOWED, Section 5.2).

use sparse::{CsrMatrix, Idx, Semiring};

/// Per-thread state for computing masked output rows.
///
/// Implementations must append output columns in **strictly increasing**
/// order — the drivers assemble rows directly into CSR.
pub trait RowKernel<S: Semiring>: Send {
    /// Whether the kernel supports the complemented mask (`¬M ⊙ (A·B)`).
    ///
    /// MCA structurally cannot (its accumulator is addressed by mask rank);
    /// calling a `*_complemented` method on such a kernel panics.
    const SUPPORTS_COMPLEMENT: bool;

    /// Whether [`RowKernel::new`] sizes the scratch by `max_mask_row_nnz`.
    /// A kernel that ignores it (MSA's accumulators are `ncols` long, the
    /// heap's grows per row) serves any mask row, so a reused kernel
    /// ([`crate::KernelScratch`]) need not be rebuilt when the mask grows.
    const SIZED_BY_MASK: bool;

    /// Create scratch for operands with `ncols` output columns and at most
    /// `max_mask_row_nnz` mask entries per row.
    fn new(ncols: usize, max_mask_row_nnz: usize) -> Self;

    /// Compute one masked row: `out ← m ⊙ (u·B)`.
    ///
    /// `mcols` is the (sorted) mask row pattern, `(acols, avals)` the row of
    /// `A`, and the result is appended to `out_cols`/`out_vals` in
    /// increasing column order.
    #[allow(clippy::too_many_arguments)]
    fn compute_row(
        &mut self,
        sr: S,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    );

    /// Symbolic version of [`RowKernel::compute_row`]: the number of output
    /// entries the numeric pass will produce. `avals` is available because
    /// some kernels (heap) carry the scaling value inside their iterator
    /// state even when only counting.
    fn count_row(
        &mut self,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
    ) -> usize;

    /// Compute one row under the complemented mask: `out ← ¬m ⊙ (u·B)`.
    #[allow(clippy::too_many_arguments)]
    fn compute_row_complemented(
        &mut self,
        _sr: S,
        _mcols: &[Idx],
        _acols: &[Idx],
        _avals: &[S::A],
        _b: &CsrMatrix<S::B>,
        _out_cols: &mut Vec<Idx>,
        _out_vals: &mut Vec<S::C>,
    ) {
        panic!("this kernel does not support complemented masks");
    }

    /// Symbolic version of [`RowKernel::compute_row_complemented`].
    fn count_row_complemented(
        &mut self,
        _mcols: &[Idx],
        _acols: &[Idx],
        _avals: &[S::A],
        _b: &CsrMatrix<S::B>,
    ) -> usize {
        panic!("this kernel does not support complemented masks");
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for kernel unit tests.

    use sparse::dense::reference_masked_spgemm;
    use sparse::{CsrMatrix, PlusTimes, Semiring};

    use super::RowKernel;

    /// Run a kernel row-by-row over whole matrices (serial driver used only
    /// in tests; the real drivers live in `exec`).
    pub fn run_kernel<S: Semiring, K: RowKernel<S>>(
        sr: S,
        mask: &CsrMatrix<()>,
        complemented: bool,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
    ) -> CsrMatrix<S::C> {
        let max_mask = (0..mask.nrows())
            .map(|i| mask.row_nnz(i))
            .max()
            .unwrap_or(0);
        let mut k = K::new(b.ncols(), max_mask);
        let mut rowptr = vec![0usize];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..a.nrows() {
            let (mc, _) = mask.row(i);
            let (ac, av) = a.row(i);
            if complemented {
                k.compute_row_complemented(sr, mc, ac, av, b, &mut cols, &mut vals);
            } else {
                k.compute_row(sr, mc, ac, av, b, &mut cols, &mut vals);
            }
            rowptr.push(cols.len());
        }
        CsrMatrix::try_new(a.nrows(), b.ncols(), rowptr, cols, vals)
            .expect("kernel produced invalid CSR")
    }

    /// Run the symbolic pass row-by-row and return per-row counts.
    pub fn count_kernel<S: Semiring, K: RowKernel<S>>(
        mask: &CsrMatrix<()>,
        complemented: bool,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
    ) -> Vec<usize> {
        let max_mask = (0..mask.nrows())
            .map(|i| mask.row_nnz(i))
            .max()
            .unwrap_or(0);
        let mut k = K::new(b.ncols(), max_mask);
        (0..a.nrows())
            .map(|i| {
                let (mc, _) = mask.row(i);
                let (ac, av) = a.row(i);
                if complemented {
                    k.count_row_complemented(mc, ac, av, b)
                } else {
                    k.count_row(mc, ac, av, b)
                }
            })
            .collect()
    }

    /// Small deterministic pseudo-random CSR pattern with values 1..=nnz.
    pub fn random_csr(nrows: usize, ncols: usize, seed: u64, density_pct: u64) -> CsrMatrix<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut rowptr = vec![0usize];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut count = 1.0f64;
        for _ in 0..nrows {
            for j in 0..ncols {
                if next() % 100 < density_pct {
                    cols.push(j as u32);
                    vals.push(count);
                    count += 1.0;
                }
            }
            rowptr.push(cols.len());
        }
        CsrMatrix::try_new(nrows, ncols, rowptr, cols, vals).unwrap()
    }

    /// Assert kernel output equals the dense reference on a battery of
    /// random instances, both plain and (if supported) complemented.
    pub fn check_against_reference<K>(complement: bool)
    where
        K: RowKernel<PlusTimes<f64>>,
    {
        let sr = PlusTimes::<f64>::new();
        for seed in 0..6u64 {
            for &(n, k, m, da, dm) in &[
                (6usize, 5usize, 7usize, 40u64, 40u64),
                (10, 10, 10, 20, 60),
                (12, 4, 9, 60, 15),
                (1, 8, 8, 50, 50),
                (8, 8, 1, 50, 50),
                (5, 5, 5, 0, 50),
                (5, 5, 5, 50, 0),
            ] {
                let a = random_csr(n, k, seed * 31 + 1, da);
                let b = random_csr(k, m, seed * 31 + 2, da);
                let mask = random_csr(n, m, seed * 31 + 3, dm).pattern();
                let expect = reference_masked_spgemm(sr, &mask, complement, &a, &b);
                let got = run_kernel::<_, K>(sr, &mask, complement, &a, &b);
                assert_eq!(
                    got, expect,
                    "mismatch: seed={seed} dims=({n},{k},{m}) da={da} dm={dm} compl={complement}"
                );
                let counts = count_kernel::<PlusTimes<f64>, K>(&mask, complement, &a, &b);
                let expect_counts: Vec<usize> = (0..n).map(|i| expect.row_nnz(i)).collect();
                assert_eq!(counts, expect_counts, "symbolic mismatch seed={seed}");
            }
        }
    }
}
