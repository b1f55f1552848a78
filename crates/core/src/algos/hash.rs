//! Hash row kernel (Section 5.3).
//!
//! Identical control flow to the MSA kernel, with the dense accumulator
//! replaced by the open-addressing table: initialization per row costs
//! `O(nnz(m))` instead of `O(ncols)`, so total work is
//! `O(nnz(m) + flops(u·B))` per row.
//!
//! Complemented masks use [`HashComplement`]: products are filtered by a
//! sorted merge of each `B(k,:)` against the mask row (both are sorted),
//! whose mask cursor gallops ([`skip_below`]) so a short `B` row under a
//! long mask row costs `O(nnz(B(k,:))·log)`, not `O(nnz(m))`; surviving
//! products accumulate in a grow-on-demand table.

use sparse::spvec::skip_below;
use sparse::{CsrMatrix, Idx, Semiring};

use crate::accum::{HashAccum, HashComplement};
use crate::kernel::RowKernel;

/// Push-based row kernel backed by the hash accumulator.
pub struct HashKernel<S: Semiring>
where
    S::C: Default,
{
    accum: HashAccum<S::C>,
    caccum: HashComplement<S::C>,
    /// Distinct-key count scratch for the complemented symbolic pass.
    ccount: HashComplement<()>,
}

impl<S: Semiring> RowKernel<S> for HashKernel<S>
where
    S::C: Default,
{
    const SUPPORTS_COMPLEMENT: bool = true;
    const SIZED_BY_MASK: bool = true;

    fn new(_ncols: usize, max_mask_row_nnz: usize) -> Self {
        HashKernel {
            accum: HashAccum::new(max_mask_row_nnz),
            caccum: HashComplement::new(64),
            ccount: HashComplement::new(64),
        }
    }

    fn compute_row(
        &mut self,
        sr: S,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    ) {
        if mcols.is_empty() || acols.is_empty() {
            return;
        }
        let accum = &mut self.accum;
        accum.reset(mcols.len());
        for &j in mcols {
            accum.set_allowed(j);
        }
        for (&k, &av) in acols.iter().zip(avals) {
            let (bc, bv) = b.row(k as usize);
            for (&j, &bvj) in bc.iter().zip(bv) {
                accum.insert_with(j, || sr.mul(av, bvj), |x, y| sr.add(x, y));
            }
        }
        for &j in mcols {
            if let Some(v) = accum.remove(j) {
                out_cols.push(j);
                out_vals.push(v);
            }
        }
    }

    fn count_row(
        &mut self,
        mcols: &[Idx],
        acols: &[Idx],
        _avals: &[S::A],
        b: &CsrMatrix<S::B>,
    ) -> usize {
        if mcols.is_empty() || acols.is_empty() {
            return 0;
        }
        let accum = &mut self.accum;
        accum.reset(mcols.len());
        for &j in mcols {
            accum.set_allowed(j);
        }
        let mut count = 0usize;
        for &k in acols {
            let (bc, _) = b.row(k as usize);
            for &j in bc {
                if accum.mark_set(j) {
                    count += 1;
                }
            }
        }
        count
    }

    fn compute_row_complemented(
        &mut self,
        sr: S,
        mcols: &[Idx],
        acols: &[Idx],
        avals: &[S::A],
        b: &CsrMatrix<S::B>,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    ) {
        if acols.is_empty() {
            return;
        }
        let accum = &mut self.caccum;
        accum.reset();
        for (&k, &av) in acols.iter().zip(avals) {
            let (bc, bv) = b.row(k as usize);
            // Set difference B(k,:) \ m over sorted streams, galloping
            // over the mask entries between products.
            let mut q = 0usize;
            for (&j, &bvj) in bc.iter().zip(bv) {
                q = skip_below(mcols, q, j);
                if mcols.get(q) == Some(&j) {
                    continue; // masked out under ¬M
                }
                accum.insert(j, sr.mul(av, bvj), |x, y| sr.add(x, y));
            }
        }
        accum.gather_sorted(out_cols, out_vals);
    }

    fn count_row_complemented(
        &mut self,
        mcols: &[Idx],
        acols: &[Idx],
        _avals: &[S::A],
        b: &CsrMatrix<S::B>,
    ) -> usize {
        if acols.is_empty() {
            return 0;
        }
        let accum = &mut self.ccount;
        accum.reset();
        for &k in acols {
            let (bc, _) = b.row(k as usize);
            let mut q = 0usize;
            for &j in bc {
                q = skip_below(mcols, q, j);
                if mcols.get(q) == Some(&j) {
                    continue;
                }
                accum.insert(j, (), |_, _| ());
            }
        }
        accum.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::check_against_reference;
    use sparse::PlusTimes;

    #[test]
    fn matches_reference_plain() {
        check_against_reference::<HashKernel<PlusTimes<f64>>>(false);
    }

    #[test]
    fn matches_reference_complemented() {
        check_against_reference::<HashKernel<PlusTimes<f64>>>(true);
    }

    #[test]
    fn mask_larger_than_initial_table_sizing() {
        // Kernel constructed with a small hint must still be correct when a
        // row's mask is at the constructed maximum.
        use crate::kernel::testutil::{random_csr, run_kernel};
        use sparse::dense::reference_masked_spgemm;
        let sr = PlusTimes::<f64>::new();
        let a = random_csr(8, 8, 11, 70);
        let b = random_csr(8, 8, 12, 70);
        let m = random_csr(8, 8, 13, 95).pattern();
        let expect = reference_masked_spgemm(sr, &m, false, &a, &b);
        let got = run_kernel::<_, HashKernel<_>>(sr, &m, false, &a, &b);
        assert_eq!(got, expect);
    }
}
