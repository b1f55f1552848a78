//! Masked sparse vector-matrix products (Masked SpGEVM).
//!
//! The paper formulates every row-wise algorithm as
//! `v⊺ = m⊺ ⊙ (u⊺·B)` (Section 5) — Masked SpGEMM is just this, once per
//! row. This module exposes the operation directly on sparse vectors,
//! which is what frontier-based graph traversals (BFS, push-pull) consume.
//! A vector is one row: each product here is the one-row matrix product,
//! run by the same executor and one-phase driver as a matrix, on views of
//! the vectors (no copy).

use sparse::{CscMatrix, CsrMatrix, Semiring, SparseError, SparseVec};

use crate::api::{check_shapes, Algorithm, Choice, Phases};
use crate::exec::one_row;
use crate::hybrid::HybridConfig;
use crate::scratch::ScratchSet;

/// Compute `v = m ⊙ (u·B)` (or `¬m ⊙` with `complemented`) with the chosen
/// algorithm. `B` is CSR; use [`masked_spgevm_csc`] for `Inner`.
pub fn masked_spgevm<S, MT>(
    algorithm: Algorithm,
    complemented: bool,
    sr: S,
    mask: &SparseVec<MT>,
    u: &SparseVec<S::A>,
    b: &CsrMatrix<S::B>,
) -> Result<SparseVec<S::C>, SparseError>
where
    S: Semiring,
    S::C: Default,
    MT: Copy,
{
    if algorithm == Algorithm::Inner {
        return Err(SparseError::Unsupported(
            "Inner consumes B in CSC form; call masked_spgevm_csc",
        ));
    }
    ScratchSet::new().run_vec(algorithm, complemented, sr, mask, u, b, None)
}

/// [`masked_spgevm`] with the pull-based `Inner` algorithm (`B` in CSC).
pub fn masked_spgevm_csc<S, MT>(
    complemented: bool,
    sr: S,
    mask: &SparseVec<MT>,
    u: &SparseVec<S::A>,
    b: &CscMatrix<S::B>,
) -> Result<SparseVec<S::C>, SparseError>
where
    S: Semiring,
    S::C: Default + Sync,
    MT: Copy,
{
    check_shapes((1, mask.dim()), (1, u.dim()), b.shape())?;
    one_row(sr, mask, complemented, u, |p| {
        let (choice, cfg) = (Choice::Fixed(Algorithm::Inner), HybridConfig::default());
        ScratchSet::new().execute(choice, Phases::One, true, cfg, p, None, Some(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::COMPLEMENT_UNSUPPORTED;
    use crate::kernel::testutil::random_csr;
    use sparse::PlusTimes;

    fn dense_reference(
        mask: &SparseVec<()>,
        complemented: bool,
        u: &SparseVec<f64>,
        b: &CsrMatrix<f64>,
    ) -> SparseVec<f64> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        for j in 0..b.ncols() as u32 {
            let in_mask = mask.get(j).is_some();
            if in_mask == complemented {
                continue;
            }
            let mut acc: Option<f64> = None;
            for (k, &uv) in u.iter() {
                if let Some(&bv) = b.get(k as usize, j) {
                    acc = Some(acc.unwrap_or(0.0) + uv * bv);
                }
            }
            if let Some(v) = acc {
                out.push((j, v));
            }
        }
        let (idx, vals) = out.into_iter().unzip();
        SparseVec::try_new(b.ncols(), idx, vals).unwrap()
    }

    #[test]
    fn all_algorithms_match_dense_vector_reference() {
        let sr = PlusTimes::<f64>::new();
        for seed in 0..4u64 {
            let b = random_csr(12, 15, seed + 1, 35);
            let bc = sparse::CscMatrix::from_csr(&b);
            let urow = random_csr(1, 12, seed + 2, 50);
            let mrow = random_csr(1, 15, seed + 3, 45);
            let u = SparseVec::try_new(12, urow.row(0).0.to_vec(), urow.row(0).1.to_vec()).unwrap();
            let m =
                SparseVec::try_new(15, mrow.row(0).0.to_vec(), vec![(); mrow.row_nnz(0)]).unwrap();
            for compl in [false, true] {
                let expect = dense_reference(&m, compl, &u, &b);
                for alg in [
                    Algorithm::Msa,
                    Algorithm::Hash,
                    Algorithm::Heap,
                    Algorithm::HeapDot,
                ] {
                    let got = masked_spgevm(alg, compl, sr, &m, &u, &b).unwrap();
                    assert_eq!(got, expect, "{alg:?} seed={seed} compl={compl}");
                }
                if !compl {
                    let got = masked_spgevm(Algorithm::Mca, compl, sr, &m, &u, &b).unwrap();
                    assert_eq!(got, expect, "Mca seed={seed}");
                }
                let got = masked_spgevm_csc(compl, sr, &m, &u, &bc).unwrap();
                assert_eq!(got, expect, "Inner seed={seed} compl={compl}");
            }
        }
    }

    #[test]
    fn dimension_errors() {
        let sr = PlusTimes::<f64>::new();
        let b = random_csr(4, 4, 1, 50);
        let bc = CscMatrix::from_csr(&b);
        fn dim_mismatch<T: std::fmt::Debug>(got: Result<T, SparseError>, case: &str) {
            assert!(
                matches!(got, Err(SparseError::DimMismatch { .. })),
                "{case}: {got:?}"
            );
        }
        let good_u = SparseVec::try_new(4, vec![0], vec![1.0]).unwrap();
        let good_m = SparseVec::<()>::empty(4);
        let wrong_u = SparseVec::try_new(5, vec![0], vec![1.0]).unwrap();
        let wrong_m = SparseVec::<()>::empty(9);
        for (m, u, case) in [(&good_m, &wrong_u, "u·B"), (&wrong_m, &good_u, "mask")] {
            dim_mismatch(masked_spgevm(Algorithm::Msa, false, sr, m, u, &b), case);
            dim_mismatch(masked_spgevm_csc(false, sr, m, u, &bc), case);
            for alg in Algorithm::ALL {
                let got = ScratchSet::new().run_vec(alg, false, sr, m, u, &b, None);
                dim_mismatch(got, case);
            }
        }
        // A CSC copy of the wrong shape is a shape error, never a panic.
        let wrong_csc = CscMatrix::from_csr(&random_csr(4, 3, 1, 50));
        for alg in Algorithm::ALL {
            let got =
                ScratchSet::new().run_vec(alg, false, sr, &good_m, &good_u, &b, Some(&wrong_csc));
            dim_mismatch(got, "run_vec CSC");
        }
        let (m, a) = (random_csr(4, 4, 2, 50).pattern(), random_csr(4, 4, 3, 50));
        let got = crate::hybrid_masked_spgemm(
            Phases::One,
            crate::HybridConfig::default(),
            sr,
            &m,
            &a,
            &b,
            &wrong_csc,
        );
        dim_mismatch(got, "hybrid CSC");
    }

    /// A vector product is the one-row matrix product: `run_vec` equals the
    /// row of `run` on `m` and `u` as `1 × n` matrices, for every family,
    /// both polarities and phase disciplines, pooled and serial, with one
    /// scratch set reused as the sizes grow and shrink; `masked_spgevm_csc`
    /// equals the Inner row, and the hybrid's one-row form equals them all
    /// under a plain mask.
    #[test]
    fn vector_form_is_the_one_row_matrix_form() {
        let (sr, cfg) = (PlusTimes::<f64>::new(), HybridConfig::default());
        let mut set = ScratchSet::new();
        let as_row = |v: &SparseVec<f64>| {
            CsrMatrix::try_new(
                1,
                v.dim(),
                vec![0, v.nnz()],
                v.indices().to_vec(),
                v.values().to_vec(),
            )
            .unwrap()
        };
        for (k, n, seed) in [
            (12usize, 15usize, 1u64),
            (40, 60, 2),
            (6, 5, 3),
            (30, 33, 4),
        ] {
            let b = random_csr(k, n, seed * 11 + 1, 35);
            let bc = CscMatrix::from_csr(&b);
            let urow = random_csr(1, k, seed * 11 + 2, 50);
            let u = SparseVec::try_new(k, urow.row(0).0.to_vec(), urow.row(0).1.to_vec()).unwrap();
            let mrow = random_csr(1, n, seed * 11 + 3, 45).pattern();
            let m =
                SparseVec::try_new(n, mrow.row(0).0.to_vec(), vec![(); mrow.row_nnz(0)]).unwrap();
            let a = as_row(&u);
            for compl in [false, true] {
                for alg in Algorithm::ALL {
                    let vec = set
                        .run_vec(alg, compl, sr, &m, &u, &b, Some(&bc))
                        .map(|v| as_row(&v));
                    for (ph, serial) in Phases::ALL
                        .into_iter()
                        .flat_map(|ph| [(ph, false), (ph, true)])
                    {
                        let choice = Choice::Fixed(alg);
                        let mat =
                            set.run(choice, ph, serial, compl, sr, cfg, &mrow, &a, &b, Some(&bc));
                        let case =
                            format!("{alg:?}-{ph:?} serial={serial} compl={compl} seed={seed}");
                        assert_eq!(vec, mat, "{case}");
                        let hybrid = set.run(
                            Choice::Hybrid,
                            ph,
                            serial,
                            compl,
                            sr,
                            cfg,
                            &mrow,
                            &a,
                            &b,
                            Some(&bc),
                        );
                        if compl {
                            let plain_only = matches!(hybrid, Err(SparseError::Unsupported(_)));
                            assert!(plain_only, "hybrid {case}");
                        } else {
                            assert_eq!(hybrid, mat, "hybrid vs {case}");
                        }
                    }
                    if compl && !alg.supports_complement() {
                        let unsupported = SparseError::Unsupported(COMPLEMENT_UNSUPPORTED);
                        assert_eq!(vec, Err(unsupported), "{alg:?} seed={seed}");
                    }
                    if alg == Algorithm::Inner {
                        let csc = masked_spgevm_csc(compl, sr, &m, &u, &bc).map(|v| as_row(&v));
                        assert_eq!(csc, vec, "Inner compl={compl} seed={seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn unsupported_combinations() {
        let sr = PlusTimes::<f64>::new();
        let b = random_csr(4, 4, 1, 50);
        let u = SparseVec::try_new(4, vec![0], vec![1.0]).unwrap();
        let m = SparseVec::<()>::empty(4);
        assert!(masked_spgevm(Algorithm::Inner, false, sr, &m, &u, &b).is_err());
        // Complemented MCA is the same uniform error as every matrix path.
        assert_eq!(
            masked_spgevm(Algorithm::Mca, true, sr, &m, &u, &b).unwrap_err(),
            sparse::SparseError::Unsupported(crate::api::COMPLEMENT_UNSUPPORTED)
        );
    }
}
