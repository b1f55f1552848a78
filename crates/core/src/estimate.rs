//! Work estimation: `flops(·)` in the paper's sense.
//!
//! `flops(A·B)` counts the scalar multiplications a push-based (Gustavson)
//! algorithm performs: one per pair `(A(i,k), B(k,j))`. The evaluation
//! figures report GFLOPS computed as `2·flops / time` (each product also
//! incurs one addition into the accumulator), which is the convention the
//! harnesses in `crates/bench` use.

use rayon::prelude::*;
use sparse::CsrMatrix;

use crate::hybrid::row_flops;

/// Scalar multiplications of the unmasked product `A·B`
/// (`Σ_{A(i,k)≠0} nnz(B(k,:))`).
pub fn flops<A, B>(a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> u64
where
    A: Sync,
    B: Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let bptr = b.rowptr();
    a.colidx()
        .par_iter()
        .map(|&k| (bptr[k as usize + 1] - bptr[k as usize]) as u64)
        .sum()
}

/// Per-row multiplication counts of `A·B` (load-balance diagnostics and the
/// complemented-mask output-size upper bound).
pub fn flops_per_row<A, B>(a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> Vec<u64>
where
    A: Sync,
    B: Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    (0..a.nrows())
        .into_par_iter()
        .map(|i| row_flops(a.row(i).0, |k| b.row_nnz(k)))
        .collect()
}

/// Multiplications a *mask-aware* pull algorithm performs: for each mask
/// entry `(i,j)`, the merge length is bounded by `nnz(A(i,:)) + nnz(B(:,j))`;
/// this returns the exact number of matching index pairs instead — i.e. the
/// products that survive the mask. Useful to quantify how much work masking
/// can save (`flops_masked / flops ≤ 1`).
pub fn flops_masked<MT, A, B>(mask: &CsrMatrix<MT>, a: &CsrMatrix<A>, b: &CsrMatrix<B>) -> u64
where
    MT: Sync,
    A: Sync,
    B: Sync,
{
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    assert_eq!(mask.nrows(), a.nrows(), "mask rows mismatch");
    assert_eq!(mask.ncols(), b.ncols(), "mask cols mismatch");
    let bc = sparse::CscMatrix::from_csr(&b.map(|_| ()));
    (0..mask.nrows())
        .into_par_iter()
        .map(|i| {
            let (mcols, _) = mask.row(i);
            let (acols, _) = a.row(i);
            let mut total = 0u64;
            for &j in mcols {
                let (brows, _) = bc.col(j as usize);
                let (mut p, mut q) = (0usize, 0usize);
                while p < acols.len() && q < brows.len() {
                    match acols[p].cmp(&brows[q]) {
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                        std::cmp::Ordering::Equal => {
                            total += 1;
                            p += 1;
                            q += 1;
                        }
                    }
                }
            }
            total
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::CsrMatrix;

    fn a() -> CsrMatrix<f64> {
        // [1 2]
        // [0 3]
        CsrMatrix::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 2.0, 3.0]).unwrap()
    }

    fn b() -> CsrMatrix<f64> {
        // [4 0]
        // [5 6]
        CsrMatrix::try_new(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn flop_count() {
        // Row 0 of A: k=0 (nnz 1) + k=1 (nnz 2) = 3; row 1: k=1 -> 2.
        assert_eq!(flops(&a(), &b()), 5);
        assert_eq!(flops_per_row(&a(), &b()), vec![3, 2]);
    }

    #[test]
    fn masked_flops_never_exceed_plain() {
        let m = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![(), ()]).unwrap();
        let fm = flops_masked(&m, &a(), &b());
        assert!(fm <= flops(&a(), &b()));
        // (0,0): A(0,:)={0,1} ∩ B(:,0)={0,1} -> 2 products; (1,1): {1}∩{1} -> 1.
        assert_eq!(fm, 3);
    }

    #[test]
    fn empty_mask_no_masked_flops() {
        let m = CsrMatrix::<()>::empty(2, 2);
        assert_eq!(flops_masked(&m, &a(), &b()), 0);
    }
}
