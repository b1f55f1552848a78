//! Property-based tests of the sparse substrate: format round trips,
//! transpose involution, permutation inverses, and element-wise algebra.

use proptest::prelude::*;
use sparse::degree::{degree_sort_perm, invert_perm};
use sparse::ewise::{ewise_difference, ewise_mult, ewise_union};
use sparse::io::{read_matrix_market, write_matrix_market};
use sparse::permute::permute_symmetric;
use sparse::transpose::transpose;
use sparse::{CooMatrix, CscMatrix, CsrMatrix, Idx};

/// CSR matrix of a fixed shape with ~30% fill and f64 integer values.
fn csr_of_shape(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    proptest::collection::vec((0.0f64..1.0, -50i32..50), nrows * ncols).prop_map(move |cells| {
        let mut rowptr = vec![0usize];
        let mut cols: Vec<Idx> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for i in 0..nrows {
            for j in 0..ncols {
                let (p, v) = cells[i * ncols + j];
                if p < 0.3 {
                    cols.push(j as Idx);
                    vals.push(v as f64);
                }
            }
            rowptr.push(cols.len());
        }
        CsrMatrix::try_new(nrows, ncols, rowptr, cols, vals).unwrap()
    })
}

/// Strategy: a CSR matrix up to 12×12 with f64 integer values.
fn small_csr() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..12, 1usize..12).prop_flat_map(|(nrows, ncols)| csr_of_shape(nrows, ncols))
}

/// Strategy: a square CSR matrix up to 12×12.
fn small_square_csr() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..12).prop_flat_map(|n| csr_of_shape(n, n))
}

/// Strategy: two CSR matrices of one shared shape.
fn same_shape_pair() -> impl Strategy<Value = (CsrMatrix<f64>, CsrMatrix<f64>)> {
    (1usize..12, 1usize..12)
        .prop_flat_map(|(nrows, ncols)| (csr_of_shape(nrows, ncols), csr_of_shape(nrows, ncols)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csc_roundtrip(a in small_csr()) {
        let c = CscMatrix::from_csr(&a);
        prop_assert_eq!(c.nnz(), a.nnz());
        prop_assert_eq!(c.to_csr(), a);
    }

    #[test]
    fn transpose_involution(a in small_csr()) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn transpose_agrees_with_csc(a in small_csr()) {
        // Aᵀ in CSR has the same flat arrays as A in CSC.
        let t = transpose(&a);
        let c = CscMatrix::from_csr(&a);
        prop_assert_eq!(t.rowptr(), c.colptr());
        prop_assert_eq!(t.colidx(), c.rowidx());
        prop_assert_eq!(t.values(), c.values());
    }

    #[test]
    fn coo_roundtrip(a in small_csr()) {
        let triplets: Vec<(Idx, Idx, f64)> =
            a.iter().map(|(i, j, &v)| (i as Idx, j, v)).collect();
        let coo = CooMatrix::from_triplets(a.nrows(), a.ncols(), triplets).unwrap();
        prop_assert_eq!(coo.to_csr(), a);
    }

    #[test]
    fn matrix_market_roundtrip(a in small_csr()) {
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &a).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap().to_csr();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn ewise_idempotence(a in small_csr()) {
        // A ∩ A = A, A ∪ A = A (taking left values), A \ A = ∅.
        let inter = ewise_mult(&a, &a, |x, _| *x);
        prop_assert_eq!(&inter, &a);
        let union = ewise_union(&a, &a, |x, _| *x, |x| *x, |y| *y);
        prop_assert_eq!(&union, &a);
        let diff = ewise_difference(&a, &a);
        prop_assert_eq!(diff.nnz(), 0);
    }

    #[test]
    fn ewise_partition((a, b) in same_shape_pair()) {
        // |A| = |A∩B| + |A\B|.
        let inter = ewise_mult(&a, &b, |x, _| *x);
        let diff = ewise_difference(&a, &b);
        prop_assert_eq!(inter.nnz() + diff.nnz(), a.nnz());
    }

    #[test]
    fn symmetric_permutation_inverse(a in small_square_csr()) {
        let perm = degree_sort_perm(&a);
        let p = permute_symmetric(&a, &perm);
        // Permuting back with the inverse restores the original.
        let inv = invert_perm(&perm);
        prop_assert_eq!(permute_symmetric(&p, &inv), a);
    }

    #[test]
    fn validation_accepts_all_generated(a in small_csr()) {
        // try_new over the raw parts must accept what we build.
        let ok = CsrMatrix::try_new(
            a.nrows(), a.ncols(),
            a.rowptr().to_vec(), a.colidx().to_vec(), a.values().to_vec(),
        );
        prop_assert!(ok.is_ok());
    }
}
