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
use crate::spvec::skip_below;

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

/// Merges `b` into `a` and returns `(merged, changed)`, where `merged` is
/// `a ∪ b` (combined with `both` where both hold an entry) and `changed`
/// holds the entries of `merged` that `a` lacks, or whose merged value
/// `same(old, new)` does not accept as the stored one. Every changed entry
/// comes from `b`, so `changed` is built in `b`'s storage. One serial pass:
/// each row is merged straight into `merged`'s arrays and compacted in
/// place in `b`'s; the runs of `a` between `b`'s entries are found by a
/// galloping search ([`skip_below`]) and copied whole. A vector is its
/// one-row matrix ([`SparseVec::into_row`](crate::SparseVec::into_row)):
///
/// ```
/// use sparse::ewise::ewise_merge_changes;
/// use sparse::SparseVec;
/// let dist = SparseVec::try_new(8, vec![0, 3], vec![0, 7]).unwrap().into_row();
/// let cand = SparseVec::try_new(8, vec![3, 4], vec![9, 2]).unwrap().into_row();
/// let (merged, changed) = ewise_merge_changes(&dist, cand, |x, y| x.min(y), |x, y| x == y);
/// assert_eq!(merged.colidx(), &[0, 3, 4]);
/// assert_eq!(merged.values(), &[0, 7, 2]);
/// assert_eq!(changed.colidx(), &[4]); // 3 kept its 7
/// ```
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

/// One ascending index list with its values: a sparse vector or CSR row.
type Sorted<'a, T> = (&'a [Idx], &'a [T]);
/// The owned form of [`Sorted`], which a merge appends to.
type SortedBuf<T> = (Vec<Idx>, Vec<T>);

/// Merge the sorted list `b` into the sorted list `a`, appending `a ∪ b`
/// (combined with `both` where both hold an index) to `merged`. `b` is
/// overwritten in place: its first `k` entries become the union entries
/// that `a` lacks, or whose merged value `same(old, new)` rejects, and `k`
/// is returned. The one pass of [`ewise_merge_changes`] over a row.
fn merge_sorted_into<T: Copy>(
    (ai, av): Sorted<'_, T>,
    (bi, bv): (&mut [Idx], &mut [T]),
    both: impl Fn(T, T) -> T,
    same: impl Fn(T, T) -> bool,
    merged: &mut SortedBuf<T>,
) -> usize {
    let (mut p, mut k) = (0usize, 0usize);
    for q in 0..bi.len() {
        let (j, y) = (bi[q], bv[q]);
        let run = skip_below(ai, p, j);
        merged.0.extend_from_slice(&ai[p..run]);
        merged.1.extend_from_slice(&av[p..run]);
        p = run;
        let (value, unchanged) = if ai.get(p) == Some(&j) {
            let x = av[p];
            p += 1;
            let value = both(x, y);
            (value, same(x, value))
        } else {
            (y, false)
        };
        merged.0.push(j);
        merged.1.push(value);
        if !unchanged {
            bi[k] = j;
            bv[k] = value;
            k += 1;
        }
    }
    merged.0.extend_from_slice(&ai[p..]);
    merged.1.extend_from_slice(&av[p..]);
    k
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
    use crate::SparseVec;

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

    /// A vector as its one-row matrix.
    fn row<T>(dim: usize, idx: Vec<Idx>, vals: Vec<T>) -> CsrMatrix<T> {
        SparseVec::try_new(dim, idx, vals).unwrap().into_row()
    }

    /// On one row, the merged value equals `union_with`, and the changed
    /// set is the union filtered to entries the old row lacks or holds
    /// differently.
    #[test]
    fn merge_changes_matches_union_and_filter() {
        let a = SparseVec::try_new(12, vec![1, 4, 6, 9], vec![5, 2, 3, 8]).unwrap();
        let b = SparseVec::try_new(12, vec![0, 4, 6, 7, 11], vec![9, 1, 3, 4, 6]).unwrap();
        let min = |x: i32, y: i32| x.min(y);
        let (merged, changed) =
            ewise_merge_changes(&a.clone().into_row(), b.clone().into_row(), min, |x, y| {
                x == y
            });
        let merged = SparseVec::from_row(merged).unwrap();
        assert_eq!(merged, a.union_with(&b, min));
        let expect: Vec<(Idx, i32)> = merged
            .iter()
            .filter(|&(j, v)| a.get(j) != Some(v))
            .map(|(j, &v)| (j, v))
            .collect();
        let got: Vec<(Idx, i32)> = changed.iter().map(|(_, j, &v)| (j, v)).collect();
        assert_eq!(got, expect);
        assert_eq!(changed.colidx(), &[0, 4, 7, 11]);
        assert_eq!(changed.shape(), (1, 12));
    }

    #[test]
    fn merge_changes_edge_cases() {
        let a = row(6, vec![1, 3], vec![1.0, 2.0]);
        let empty = CsrMatrix::<f64>::empty(1, 6);
        let add = |x: f64, y: f64| x + y;
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits();
        // Nothing merged in: nothing changes.
        let (merged, changed) = ewise_merge_changes(&a, empty.clone(), add, same);
        assert_eq!((merged, changed.nnz()), (a.clone(), 0));
        // Merged into nothing: everything is gained.
        let (merged, changed) = ewise_merge_changes(&empty, a.clone(), add, same);
        assert_eq!((&merged, &changed), (&a, &a));
        // Disjoint rows: the changed set is exactly the incoming one.
        let b = row(6, vec![0, 2, 5], vec![7.0, 8.0, 9.0]);
        let (merged, changed) = ewise_merge_changes(&a, b.clone(), add, same);
        assert_eq!(merged.colidx(), &[0, 1, 2, 3, 5]);
        assert_eq!(changed, b);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mult_shape_mismatch_panics() {
        let e = CsrMatrix::<i32>::empty(3, 4);
        ewise_mult(&a(), &e, |x, y| x * y);
    }
}
