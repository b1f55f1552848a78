//! MSA row kernel (paper Algorithm 2).
//!
//! Under a complemented mask the paper stamps every mask column before the
//! scatter, which costs `O(nnz(m))` per row however few keys the row
//! touches. A row whose flops are few against its mask stamps it lazily
//! instead, one binary search per touched key
//! ([`crate::hybrid::complemented_mask_cost`] decides, for the kernel and
//! the planner alike); the result is the same bits either way.

use sparse::{CsrMatrix, Idx, Semiring};

use crate::accum::{Msa, MsaComplement};
use crate::hybrid::complemented_mask_cost;
use crate::kernel::RowKernel;

/// Push-based row kernel backed by the Masked Sparse Accumulator.
pub struct MsaKernel<S: Semiring>
where
    S::C: Default,
{
    accum: Msa<S::C>,
    caccum: MsaComplement<S::C>,
}

impl<S: Semiring> RowKernel<S> for MsaKernel<S>
where
    S::C: Default,
{
    const SUPPORTS_COMPLEMENT: bool = true;
    const SIZED_BY_MASK: bool = false;

    fn new(ncols: usize, _max_mask_row_nnz: usize) -> Self {
        MsaKernel {
            accum: Msa::new(ncols),
            caccum: MsaComplement::new(ncols),
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
        accum.reset();
        // Step 1: mark mask entries ALLOWED.
        for &j in mcols {
            accum.set_allowed(j);
        }
        // Step 2: scatter scaled rows of B.
        for (&k, &av) in acols.iter().zip(avals) {
            let (bc, bv) = b.row(k as usize);
            for (&j, &bvj) in bc.iter().zip(bv) {
                accum.insert_with(j, || sr.mul(av, bvj), |x, y| sr.add(x, y));
            }
        }
        // Step 3: gather in mask order (stable — mask rows are sorted).
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
        accum.reset();
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
        if stamp_mask(accum, mcols, acols, b) {
            let in_mask = |j| mcols.binary_search(&j).is_ok();
            scatter_complemented(accum, sr, acols, avals, b, in_mask);
        } else {
            scatter_complemented(accum, sr, acols, avals, b, |_| false);
        }
        // Gather only the inserted keys, sorted for CSR output.
        // Split borrow: copy keys out first (rows are short relative to B).
        let start = out_cols.len();
        out_cols.extend_from_slice(accum.sorted_inserted());
        for &j in &out_cols[start..] {
            out_vals.push(accum.value(j));
        }
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
        let accum = &mut self.caccum;
        if stamp_mask(accum, mcols, acols, b) {
            mark_complemented(accum, acols, b, |j| mcols.binary_search(&j).is_ok());
        } else {
            mark_complemented(accum, acols, b, |_| false);
        }
        accum.inserted().len()
    }
}

/// The scatter of a complemented row: every scaled row of `B` into
/// `accum`, asking `in_mask` about each key the row touches first. An
/// eagerly stamped row passes `|_| false`, which compiles to the paper's
/// loop; the lazy one passes the mask probe.
#[inline(always)]
fn scatter_complemented<S: Semiring>(
    accum: &mut MsaComplement<S::C>,
    sr: S,
    acols: &[Idx],
    avals: &[S::A],
    b: &CsrMatrix<S::B>,
    in_mask: impl Fn(Idx) -> bool,
) where
    S::C: Default,
{
    for (&k, &av) in acols.iter().zip(avals) {
        let (bc, bv) = b.row(k as usize);
        for (&j, &bvj) in bc.iter().zip(bv) {
            let (make, add) = (|| sr.mul(av, bvj), |x, y| sr.add(x, y));
            accum.insert_with(j, || in_mask(j), make, add);
        }
    }
}

/// The symbolic [`scatter_complemented`].
#[inline(always)]
fn mark_complemented<V: Copy + Default, B>(
    accum: &mut MsaComplement<V>,
    acols: &[Idx],
    b: &CsrMatrix<B>,
    in_mask: impl Fn(Idx) -> bool,
) {
    for &k in acols {
        for &j in b.row(k as usize).0 {
            accum.mark_set(j, || in_mask(j));
        }
    }
}

/// Begin a complemented row: reset `accum` and stamp the mask row `mcols`
/// up front, unless probing it lazily per touched key is cheaper
/// ([`complemented_mask_cost`], the rule the planner prices). Returns
/// whether the row probes lazily.
fn stamp_mask<V: Copy + Default, B>(
    accum: &mut MsaComplement<V>,
    mcols: &[Idx],
    acols: &[Idx],
    b: &CsrMatrix<B>,
) -> bool {
    accum.reset();
    // The flops are summed only until they rule the lazy way out: reading
    // `B`'s row lengths costs one random access per `A` entry, as much as
    // a short row's scatter.
    let mm = mcols.len();
    let mut f = 0u64;
    let lazy = mm > 0
        && acols.iter().all(|&k| {
            f += b.row_nnz(k as usize) as u64;
            complemented_mask_cost(mm, f) < mm as u64
        });
    if !lazy {
        for &j in mcols {
            accum.set_not_allowed(j);
        }
    }
    lazy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::check_against_reference;
    use sparse::PlusTimes;

    #[test]
    fn matches_reference_plain() {
        check_against_reference::<MsaKernel<PlusTimes<f64>>>(false);
    }

    #[test]
    fn matches_reference_complemented() {
        check_against_reference::<MsaKernel<PlusTimes<f64>>>(true);
    }

    #[test]
    fn empty_mask_row_produces_nothing() {
        use crate::kernel::RowKernel;
        let b = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).unwrap();
        let mut k = MsaKernel::<PlusTimes<f64>>::new(2, 2);
        let (mut c, mut v) = (Vec::new(), Vec::new());
        k.compute_row(
            PlusTimes::new(),
            &[],
            &[0, 1],
            &[1.0, 1.0],
            &b,
            &mut c,
            &mut v,
        );
        assert!(c.is_empty());
        // Complemented: empty mask allows everything.
        k.compute_row_complemented(
            PlusTimes::new(),
            &[],
            &[0, 1],
            &[1.0, 1.0],
            &b,
            &mut c,
            &mut v,
        );
        assert_eq!(c, vec![0, 1]);
    }
}
