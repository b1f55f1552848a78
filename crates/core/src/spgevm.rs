//! Masked sparse vector-matrix products (Masked SpGEVM).
//!
//! The paper formulates every row-wise algorithm as
//! `v⊺ = m⊺ ⊙ (u⊺·B)` (Section 5) — Masked SpGEMM is just this, once per
//! row. This module exposes the operation directly on sparse vectors,
//! which is what frontier-based graph traversals (BFS, push-pull) consume.

use sparse::{CscMatrix, CsrMatrix, Semiring, SparseError, SparseVec};

use crate::algos::inner;
use crate::api::Algorithm;
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
    MT: Copy,
{
    if u.dim() != b.nrows() {
        return Err(SparseError::DimMismatch {
            op: "masked_spgevm_csc (u·B)",
            lhs: (1, u.dim()),
            rhs: b.shape(),
        });
    }
    if mask.dim() != b.ncols() {
        return Err(SparseError::DimMismatch {
            op: "masked_spgevm_csc (mask)",
            lhs: (1, mask.dim()),
            rhs: (1, b.ncols()),
        });
    }
    // Inner does support complemented masks; the check is here so every
    // SpGEVM entry point funnels polarity support through the same
    // `check_complement_support` gate as the matrix paths (uniform
    // `SparseError::Unsupported`, never a panic or silent fallback).
    Algorithm::Inner.check_complement_support(complemented)?;
    let mut out_cols = Vec::new();
    let mut out_vals = Vec::new();
    if complemented {
        inner::inner_row_complemented(
            sr,
            mask.indices(),
            u.indices(),
            u.values(),
            b,
            &mut out_cols,
            &mut out_vals,
        );
    } else {
        inner::inner_row(
            sr,
            mask.indices(),
            u.indices(),
            u.values(),
            b,
            &mut out_cols,
            &mut out_vals,
        );
    }
    SparseVec::try_new(b.ncols(), out_cols, out_vals)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let u = SparseVec::try_new(5, vec![0], vec![1.0]).unwrap();
        let m = SparseVec::<()>::empty(4);
        assert!(masked_spgevm(Algorithm::Msa, false, sr, &m, &u, &b).is_err());
        let u = SparseVec::try_new(4, vec![0], vec![1.0]).unwrap();
        let m = SparseVec::<()>::empty(9);
        assert!(masked_spgevm(Algorithm::Msa, false, sr, &m, &u, &b).is_err());
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
