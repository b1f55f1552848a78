//! Pull-based inner-product algorithm (Section 4.1).
//!
//! For every unmasked output position `(i,j)` the sparse dot product
//! `A(i,:) · B(:,j)` is computed by a two-pointer merge of the sorted row of
//! `A` (CSR) and the sorted column of `B` (CSC). The computation is driven
//! entirely by the mask, giving at least `nnz(M)`-way parallelism, and no
//! accumulator is needed — but temporal locality on `B`'s columns is poor
//! (the paper's memory-traffic analysis:
//! `nnz(A) + nnz(M)·(1 + nnz(B)/n)`).
//!
//! With a complemented mask every position *outside* the mask needs a dot
//! product — `Θ(n·m − nnz(M))` of them — which is why the paper reports
//! `Inner` (and SS:DOT) as prohibitively slow for betweenness centrality.
//! It is implemented for completeness and measured rather than skipped.

use sparse::{CscMatrix, Idx, Semiring};

/// Sorted-merge dot product of a CSR row and a CSC column.
///
/// Returns `None` when no index pair matches (no output entry — masked
/// SpGEMM output is structural).
#[inline]
pub fn sparse_dot<S: Semiring>(
    sr: S,
    acols: &[Idx],
    avals: &[S::A],
    brows: &[Idx],
    bvals: &[S::B],
) -> Option<S::C> {
    let mut acc: Option<S::C> = None;
    let (mut p, mut q) = (0usize, 0usize);
    while p < acols.len() && q < brows.len() {
        match acols[p].cmp(&brows[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                let v = sr.mul(avals[p], bvals[q]);
                acc = Some(match acc {
                    None => v,
                    Some(x) => sr.add(x, v),
                });
                p += 1;
                q += 1;
            }
        }
    }
    acc
}

/// Compute one output row of `M ⊙ (A·B)` with dot products.
pub fn inner_row<S: Semiring>(
    sr: S,
    mcols: &[Idx],
    acols: &[Idx],
    avals: &[S::A],
    b: &CscMatrix<S::B>,
    out_cols: &mut Vec<Idx>,
    out_vals: &mut Vec<S::C>,
) {
    if acols.is_empty() {
        return;
    }
    for &j in mcols {
        let (br, bv) = b.col(j as usize);
        if let Some(v) = sparse_dot(sr, acols, avals, br, bv) {
            out_cols.push(j);
            out_vals.push(v);
        }
    }
}

/// Symbolic variant of [`inner_row`]: pattern-only dot (merge until first
/// match), counting output entries.
pub fn inner_count_row<S: Semiring>(mcols: &[Idx], acols: &[Idx], b: &CscMatrix<S::B>) -> usize {
    if acols.is_empty() {
        return 0;
    }
    let mut count = 0usize;
    for &j in mcols {
        let (br, _) = b.col(j as usize);
        if patterns_intersect(acols, br) {
            count += 1;
        }
    }
    count
}

/// Compute one output row of `¬M ⊙ (A·B)`: a dot product for every column
/// *not* present in the mask row.
pub fn inner_row_complemented<S: Semiring>(
    sr: S,
    mcols: &[Idx],
    acols: &[Idx],
    avals: &[S::A],
    b: &CscMatrix<S::B>,
    out_cols: &mut Vec<Idx>,
    out_vals: &mut Vec<S::C>,
) {
    if acols.is_empty() {
        return;
    }
    let mut q = 0usize;
    for j in 0..b.ncols() as Idx {
        while q < mcols.len() && mcols[q] < j {
            q += 1;
        }
        if q < mcols.len() && mcols[q] == j {
            continue;
        }
        let (br, bv) = b.col(j as usize);
        if let Some(v) = sparse_dot(sr, acols, avals, br, bv) {
            out_cols.push(j);
            out_vals.push(v);
        }
    }
}

/// Symbolic variant of [`inner_row_complemented`].
pub fn inner_count_row_complemented<S: Semiring>(
    mcols: &[Idx],
    acols: &[Idx],
    b: &CscMatrix<S::B>,
) -> usize {
    if acols.is_empty() {
        return 0;
    }
    let mut q = 0usize;
    let mut count = 0usize;
    for j in 0..b.ncols() as Idx {
        while q < mcols.len() && mcols[q] < j {
            q += 1;
        }
        if q < mcols.len() && mcols[q] == j {
            continue;
        }
        let (br, _) = b.col(j as usize);
        if patterns_intersect(acols, br) {
            count += 1;
        }
    }
    count
}

/// Whether two sorted index lists share at least one element (early-exit
/// two-pointer merge).
#[inline]
pub fn patterns_intersect(a: &[Idx], b: &[Idx]) -> bool {
    let (mut p, mut q) = (0usize, 0usize);
    while p < a.len() && q < b.len() {
        match a[p].cmp(&b[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{masked_spgemm_csc, Algorithm, Phases};
    use crate::kernel::testutil::random_csr;
    use sparse::dense::reference_masked_spgemm;
    use sparse::PlusTimes;

    #[test]
    fn dot_basic() {
        let sr = PlusTimes::<f64>::new();
        let v = sparse_dot(
            sr,
            &[0, 2, 5],
            &[1.0, 2.0, 3.0],
            &[2, 5, 7],
            &[10.0, 100.0, 1000.0],
        );
        assert_eq!(v, Some(320.0));
        assert_eq!(
            sparse_dot(sr, &[0, 1], &[1.0, 1.0], &[2, 3], &[1.0, 1.0]),
            None
        );
        assert_eq!(
            sparse_dot::<PlusTimes<f64>>(sr, &[], &[], &[1], &[1.0]),
            None
        );
    }

    #[test]
    fn intersect_detects() {
        assert!(patterns_intersect(&[1, 4, 9], &[0, 9]));
        assert!(!patterns_intersect(&[1, 4, 9], &[0, 2, 10]));
        assert!(!patterns_intersect(&[], &[1]));
    }

    #[test]
    fn inner_matches_reference() {
        let sr = PlusTimes::<f64>::new();
        for seed in 0..5u64 {
            let a = random_csr(7, 6, seed + 1, 45);
            let b = random_csr(6, 8, seed + 2, 45);
            let m = random_csr(7, 8, seed + 3, 55).pattern();
            let bc = sparse::CscMatrix::from_csr(&b);
            for compl in [false, true] {
                let expect = reference_masked_spgemm(sr, &m, compl, &a, &b);
                let got = masked_spgemm_csc(Algorithm::Inner, Phases::One, compl, sr, &m, &a, &bc)
                    .unwrap();
                assert_eq!(got, expect, "seed={seed} compl={compl}");
            }
        }
    }

    #[test]
    fn inner_counts_match_numeric() {
        let sr = PlusTimes::<f64>::new();
        let a = random_csr(6, 6, 42, 50);
        let b = random_csr(6, 6, 43, 50);
        let m = random_csr(6, 6, 44, 50).pattern();
        let bc = sparse::CscMatrix::from_csr(&b);
        for compl in [false, true] {
            let c =
                masked_spgemm_csc(Algorithm::Inner, Phases::One, compl, sr, &m, &a, &bc).unwrap();
            for i in 0..6 {
                let (mc, _) = m.row(i);
                let (ac, _) = a.row(i);
                let count = if compl {
                    inner_count_row_complemented::<PlusTimes<f64>>(mc, ac, &bc)
                } else {
                    inner_count_row::<PlusTimes<f64>>(mc, ac, &bc)
                };
                assert_eq!(count, c.row_nnz(i), "row {i} compl={compl}");
            }
        }
    }
}
