//! Element-wise operations on sorted CSR rows.
//!
//! `ewise_mult` (pattern intersection) implements the `M ⊙ X` masking step
//! of the strawman "compute-then-mask" baseline and the k-truss edge
//! pruning; `ewise_union` implements pattern union (used by `symmetrize`).
//! These are rayon-parallel over rows with two-pointer sorted merges per
//! row. `ewise_merge_changes`, the union that also reports the entries it
//! changed (the engine's matrix accumulation), is one serial pass that
//! reuses its second operand's storage.

use rayon::prelude::*;

use crate::csr::CsrMatrix;
use crate::index::Idx;
use crate::spvec::merge_sorted_into;

/// Element-wise "multiply" (intersection): the output contains entries at
/// positions present in **both** `a` and `b`, with value `f(&a_v, &b_v)`.
pub fn ewise_mult<A, B, C, F>(a: &CsrMatrix<A>, b: &CsrMatrix<B>, f: F) -> CsrMatrix<C>
where
    A: Sync,
    B: Sync,
    C: Send,
    F: Fn(&A, &B) -> C + Sync,
{
    assert_eq!(a.shape(), b.shape(), "ewise_mult shape mismatch");
    let nrows = a.nrows();
    let rows: Vec<(Vec<Idx>, Vec<C>)> = (0..nrows)
        .into_par_iter()
        .map(|i| {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        cols.push(ac[p]);
                        vals.push(f(&av[p], &bv[q]));
                        p += 1;
                        q += 1;
                    }
                }
            }
            (cols, vals)
        })
        .collect();
    assemble_rows(nrows, a.ncols(), rows)
}

/// Element-wise union: entries present in either input. `both` combines
/// values present in both, `only_a`/`only_b` map single-sided values.
pub fn ewise_union<A, B, C, FB, FA, FB2>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
    both: FB,
    only_a: FA,
    only_b: FB2,
) -> CsrMatrix<C>
where
    A: Sync,
    B: Sync,
    C: Send,
    FB: Fn(&A, &B) -> C + Sync,
    FA: Fn(&A) -> C + Sync,
    FB2: Fn(&B) -> C + Sync,
{
    assert_eq!(a.shape(), b.shape(), "ewise_union shape mismatch");
    let nrows = a.nrows();
    let rows: Vec<(Vec<Idx>, Vec<C>)> = (0..nrows)
        .into_par_iter()
        .map(|i| {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let mut cols = Vec::with_capacity(ac.len() + bc.len());
            let mut vals = Vec::with_capacity(ac.len() + bc.len());
            let (mut p, mut q) = (0usize, 0usize);
            while p < ac.len() || q < bc.len() {
                if q >= bc.len() || (p < ac.len() && ac[p] < bc[q]) {
                    cols.push(ac[p]);
                    vals.push(only_a(&av[p]));
                    p += 1;
                } else if p >= ac.len() || bc[q] < ac[p] {
                    cols.push(bc[q]);
                    vals.push(only_b(&bv[q]));
                    q += 1;
                } else {
                    cols.push(ac[p]);
                    vals.push(both(&av[p], &bv[q]));
                    p += 1;
                    q += 1;
                }
            }
            (cols, vals)
        })
        .collect();
    assemble_rows(nrows, a.ncols(), rows)
}

/// [`SparseVec::merge_changes`](crate::SparseVec::merge_changes) row by
/// row: merges `b` into `a` and returns `(merged, changed)`, where `merged`
/// is `a ∪ b` (combined with `both` where both hold an entry) and `changed`
/// holds the entries of `merged` that `a` lacks, or whose merged value
/// `same(old, new)` does not accept as the stored one. `changed` is built
/// in `b`'s storage. One serial pass: each row is merged straight into
/// `merged`'s arrays and compacted in place in `b`'s.
pub fn ewise_merge_changes<T: Copy>(
    a: &CsrMatrix<T>,
    b: CsrMatrix<T>,
    both: impl Fn(T, T) -> T,
    same: impl Fn(T, T) -> bool,
) -> (CsrMatrix<T>, CsrMatrix<T>) {
    assert_eq!(a.shape(), b.shape(), "ewise_merge_changes shape mismatch");
    let (nrows, ncols, mut rowptr, mut colidx, mut values) = b.into_parts();
    let cap = a.nnz() + colidx.len();
    let mut merged = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    let mut merged_ptr = Vec::with_capacity(nrows + 1);
    merged_ptr.push(0);
    let mut kept = 0usize;
    for i in 0..nrows {
        let (start, end) = (rowptr[i], rowptr[i + 1]);
        let row = (&mut colidx[start..end], &mut values[start..end]);
        let k = merge_sorted_into(a.row(i), row, &both, &same, &mut merged);
        colidx.copy_within(start..start + k, kept);
        values.copy_within(start..start + k, kept);
        rowptr[i] = kept;
        kept += k;
        merged_ptr.push(merged.0.len());
    }
    rowptr[nrows] = kept;
    colidx.truncate(kept);
    values.truncate(kept);
    (
        CsrMatrix::from_parts_unchecked(nrows, ncols, merged_ptr, merged.0, merged.1),
        CsrMatrix::from_parts_unchecked(nrows, ncols, rowptr, colidx, values),
    )
}

/// Keep entries of `a` at positions **not** present in `b` (set difference).
pub fn ewise_difference<A: Clone + Sync + Send, B: Sync>(
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
) -> CsrMatrix<A> {
    assert_eq!(a.shape(), b.shape(), "ewise_difference shape mismatch");
    let nrows = a.nrows();
    let rows: Vec<(Vec<Idx>, Vec<A>)> = (0..nrows)
        .into_par_iter()
        .map(|i| {
            let (ac, av) = a.row(i);
            let (bc, _) = b.row(i);
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            let mut q = 0usize;
            for (p, &j) in ac.iter().enumerate() {
                while q < bc.len() && bc[q] < j {
                    q += 1;
                }
                if q >= bc.len() || bc[q] != j {
                    cols.push(j);
                    vals.push(av[p].clone());
                }
            }
            (cols, vals)
        })
        .collect();
    assemble_rows(nrows, a.ncols(), rows)
}

/// Assemble per-row `(cols, vals)` pairs into a CSR matrix. Rows must be
/// sorted and in-range; exposed for row-producing kernels in other crates.
pub fn assemble_rows<C>(nrows: usize, ncols: usize, rows: Vec<(Vec<Idx>, Vec<C>)>) -> CsrMatrix<C> {
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let total: usize = rows.iter().map(|(c, _)| c.len()).sum();
    let mut colidx = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    for (cols, vals) in rows {
        colidx.extend_from_slice(&cols);
        values.extend(vals);
        rowptr.push(colidx.len());
    }
    CsrMatrix::from_parts_unchecked(nrows, ncols, rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> CsrMatrix<i32> {
        // [1 2 0 0]
        // [0 3 0 4]
        CsrMatrix::try_new(2, 4, vec![0, 2, 4], vec![0, 1, 1, 3], vec![1, 2, 3, 4]).unwrap()
    }

    fn b() -> CsrMatrix<i32> {
        // [0 5 6 0]
        // [7 3 0 0]
        CsrMatrix::try_new(2, 4, vec![0, 2, 4], vec![1, 2, 0, 1], vec![5, 6, 7, 3]).unwrap()
    }

    #[test]
    fn mult_intersects() {
        let c = ewise_mult(&a(), &b(), |x, y| x * y);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 1), Some(&10));
        assert_eq!(c.get(1, 1), Some(&9));
    }

    #[test]
    fn union_merges() {
        let c = ewise_union(&a(), &b(), |x, y| x + y, |x| *x, |y| *y);
        assert_eq!(c.nnz(), 6);
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(0, 1), Some(&7));
        assert_eq!(c.get(0, 2), Some(&6));
        assert_eq!(c.get(1, 0), Some(&7));
        assert_eq!(c.get(1, 3), Some(&4));
        // output rows sorted
        for i in 0..2 {
            let (cols, _) = c.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn difference_removes() {
        let c = ewise_difference(&a(), &b());
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 0), Some(&1));
        assert_eq!(c.get(1, 3), Some(&4));
    }

    #[test]
    fn mult_with_empty_is_empty() {
        let e = CsrMatrix::<i32>::empty(2, 4);
        assert_eq!(ewise_mult(&a(), &e, |x, y| x * y).nnz(), 0);
        assert_eq!(ewise_difference(&a(), &e), a());
    }

    #[test]
    fn merge_changes_is_union_plus_changed_rows() {
        let min = |x: &i32, y: &i32| *x.min(y);
        let (merged, changed) = ewise_merge_changes(&a(), b(), |x, y| min(&x, &y), |x, y| x == y);
        assert_eq!(merged, ewise_union(&a(), &b(), min, |x| *x, |y| *y));
        // Row 0 gains (0, 2); row 1 gains (1, 0); min(2, 5) and min(3, 3)
        // keep the stored values.
        let got: Vec<(usize, Idx, i32)> = changed.iter().map(|(i, j, &v)| (i, j, v)).collect();
        assert_eq!(got, vec![(0, 2, 6), (1, 0, 7)]);
        let (_, none) = ewise_merge_changes(&a(), a(), |x, _| x, |x, y| x == y);
        assert_eq!((none.shape(), none.nnz()), ((2, 4), 0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mult_shape_mismatch_panics() {
        let e = CsrMatrix::<i32>::empty(3, 4);
        ewise_mult(&a(), &e, |x, y| x * y);
    }
}
