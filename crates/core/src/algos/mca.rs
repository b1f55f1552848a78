//! MCA row kernel (paper Algorithm 3).
//!
//! For every nonzero `A(i,k)`, the sorted row `B(k,:)` is merged against the
//! sorted mask row; entries present in both produce a product inserted at
//! the mask *rank* of the column. The accumulator therefore needs only
//! `nnz(mask row)` slots (see [`crate::accum::Mca`]). Per-row cost is
//! `O(nnz(u)·nnz(m) + flops(u·B))` — each A-nonzero may walk the whole mask
//! row — which is why MCA excels when mask rows are short relative to the
//! accumulated rows of `B`.
//!
//! MCA does not support complemented masks: rank addressing presupposes the
//! output pattern is a subset of the mask (Section 5.4; the complement is
//! everything *but* the mask).

use sparse::{CsrMatrix, Idx, Semiring};

use crate::accum::Mca;
use crate::kernel::RowKernel;

/// Push-based row kernel backed by the Mask Compressed Accumulator.
pub struct McaKernel<S: Semiring>
where
    S::C: Default,
{
    accum: Mca<S::C>,
}

/// Merge one `B(k,:)` row against the mask row, calling `hit(rank, pos)` for
/// every column present in both. `pos` indexes into the B row slices.
#[inline(always)]
fn merge_row_with_mask(bc: &[Idx], mcols: &[Idx], mut hit: impl FnMut(usize, usize)) {
    let mut p = 0usize; // position in bc (rowIter of Algorithm 3)
    for (rank, &mj) in mcols.iter().enumerate() {
        while p < bc.len() && bc[p] < mj {
            p += 1;
        }
        if p >= bc.len() {
            break;
        }
        if bc[p] == mj {
            hit(rank, p);
        }
    }
}

impl<S: Semiring> RowKernel<S> for McaKernel<S>
where
    S::C: Default,
{
    const SUPPORTS_COMPLEMENT: bool = false;
    const SIZED_BY_MASK: bool = true;

    fn new(_ncols: usize, max_mask_row_nnz: usize) -> Self {
        McaKernel {
            accum: Mca::new(max_mask_row_nnz),
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
        for (&k, &av) in acols.iter().zip(avals) {
            let (bc, bv) = b.row(k as usize);
            merge_row_with_mask(bc, mcols, |rank, p| {
                accum.insert(rank, sr.mul(av, bv[p]), |x, y| sr.add(x, y));
            });
        }
        for (rank, &j) in mcols.iter().enumerate() {
            if let Some(v) = accum.remove(rank) {
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
        let mut count = 0usize;
        for &k in acols {
            let (bc, _) = b.row(k as usize);
            merge_row_with_mask(bc, mcols, |rank, _| {
                if accum.mark_set(rank) {
                    count += 1;
                }
            });
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::check_against_reference;
    use sparse::PlusTimes;

    #[test]
    fn matches_reference_plain() {
        check_against_reference::<McaKernel<PlusTimes<f64>>>(false);
    }

    #[test]
    fn merge_hits_intersection_only() {
        let bc = [1u32, 3, 4, 9];
        let mc = [0u32, 3, 4, 8, 10];
        let mut hits = Vec::new();
        merge_row_with_mask(&bc, &mc, |rank, p| hits.push((rank, p)));
        assert_eq!(hits, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn merge_empty_inputs() {
        let mut hits = 0;
        merge_row_with_mask(&[], &[1, 2], |_, _| hits += 1);
        merge_row_with_mask(&[1, 2], &[], |_, _| hits += 1);
        assert_eq!(hits, 0);
    }
}
