//! Masked inner-product similarity (the paper's intro motivation from
//! bioinformatics/data analytics: "computing inner-product similarities"
//! where only a candidate subset of pairs matters).
//!
//! Given a sparse feature matrix `A` (rows = items, columns = features) and
//! a candidate-pair mask `M`, computes cosine similarity
//! `S = M ⊙ (A·Aᵀ) / (‖a_i‖·‖a_j‖)` — one Masked SpGEMM plus a normalization
//! pass over the surviving entries. Without the mask this is an all-pairs
//! `O(n²)`-output join; the mask makes it proportional to the candidates.

use engine::{Context, MatrixHandle};
use sparse::transpose::transpose;
use sparse::{CscMatrix, CsrMatrix, PlusTimes, SparseError};

use crate::scheme::Scheme;

/// Divide each masked dot product `dots[i][j] = a_i · a_j` by
/// `‖a_i‖·‖a_j‖` in place (0 where a norm is 0); the pattern is already
/// the masked dot pattern.
fn normalize(mut dots: CsrMatrix<f64>, a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let norms: Vec<f64> = (0..a.nrows())
        .map(|i| {
            let (_, vals) = a.row(i);
            vals.iter().map(|v| v * v).sum::<f64>().sqrt()
        })
        .collect();
    let nrows = dots.nrows();
    let rowptr = dots.rowptr().to_vec();
    let colidx = dots.colidx().to_vec();
    let values = dots.values_mut();
    for i in 0..nrows {
        for p in rowptr[i]..rowptr[i + 1] {
            let j = colidx[p] as usize;
            let denom = norms[i] * norms[j];
            values[p] = if denom > 0.0 { values[p] / denom } else { 0.0 };
        }
    }
    dots
}

/// Masked cosine similarity over the rows of `a`.
///
/// Entries of the result are in `[-1, 1]` (exactly 1 for identical rows
/// with nonnegative features). Rows with zero norm produce no output.
pub fn masked_cosine_similarity(
    scheme: Scheme,
    mask: &CsrMatrix<()>,
    a: &CsrMatrix<f64>,
) -> Result<CsrMatrix<f64>, SparseError> {
    let at = transpose(a);
    let at_csc = CscMatrix::from_csr(&at);
    let sr = PlusTimes::<f64>::new();
    let dots = scheme.run(sr, mask, false, a, &at, &at_csc)?;
    Ok(normalize(dots, a))
}

/// Masked cosine similarity with the engine planning the dot products.
///
/// `mask` holds the candidate pairs (values ignored); `a` is the feature
/// matrix. `Aᵀ` comes from the context's transpose cache.
pub fn masked_cosine_similarity_auto(
    ctx: &Context,
    mask: MatrixHandle,
    a: MatrixHandle,
) -> Result<CsrMatrix<f64>, SparseError> {
    // Owned by `a`'s entry: stays cached for the next call.
    let at = ctx.transpose_handle(a);
    let dots = ctx.op(mask, a, at).run()?;
    Ok(normalize(dots, &ctx.matrix(a)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm::{Algorithm, Phases};
    use sparse::Idx;

    fn features() -> CsrMatrix<f64> {
        // item 0: {f0:1, f1:1}; item 1: {f0:1, f1:1} (identical);
        // item 2: {f2:5}; item 3: {f0:3}.
        CsrMatrix::try_new(
            4,
            3,
            vec![0, 2, 4, 5, 6],
            vec![0, 1, 0, 1, 2, 0],
            vec![1.0, 1.0, 1.0, 1.0, 5.0, 3.0],
        )
        .unwrap()
    }

    fn full_offdiag_mask(n: usize) -> CsrMatrix<()> {
        let mut coo = sparse::CooMatrix::new(n, n);
        for i in 0..n as Idx {
            for j in 0..n as Idx {
                if i != j {
                    coo.push(i, j, ());
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn identical_rows_have_similarity_one() {
        let m = full_offdiag_mask(4);
        let s =
            masked_cosine_similarity(Scheme::Ours(Algorithm::Msa, Phases::One), &m, &features())
                .unwrap();
        assert!((s.get(0, 1).unwrap() - 1.0).abs() < 1e-12);
        // Orthogonal items share no feature: no stored entry at all.
        assert_eq!(s.get(0, 2), None);
        // Partial overlap: cos(items 0,3) = 3 / (√2·3) = 1/√2.
        let expect = 1.0 / 2.0f64.sqrt();
        assert!((s.get(0, 3).unwrap() - expect).abs() < 1e-12);
        // Symmetric.
        assert_eq!(s.get(0, 3), s.get(3, 0));
    }

    #[test]
    fn mask_restricts_candidate_pairs() {
        // Only the pair (0,1) is a candidate.
        let m = CsrMatrix::try_new(4, 4, vec![0, 1, 1, 1, 1], vec![1], vec![()]).unwrap();
        let s = masked_cosine_similarity(Scheme::Hybrid, &m, &features()).unwrap();
        assert_eq!(s.nnz(), 1);
        assert!((s.get(0, 1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn schemes_agree() {
        let m = full_offdiag_mask(4);
        let a = features();
        let base =
            masked_cosine_similarity(Scheme::Ours(Algorithm::Msa, Phases::One), &m, &a).unwrap();
        for s in [
            Scheme::Ours(Algorithm::Inner, Phases::Two),
            Scheme::SsSaxpy,
            Scheme::Hybrid,
        ] {
            assert_eq!(masked_cosine_similarity(s, &m, &a).unwrap(), base);
        }
    }

    #[test]
    fn similarity_values_in_unit_range() {
        let a = graphs::erdos_renyi(30, 6.0, 3);
        let m = graphs::erdos_renyi(30, 10.0, 4).pattern();
        let s =
            masked_cosine_similarity(Scheme::Ours(Algorithm::Hash, Phases::One), &m, &a).unwrap();
        for (_, _, &v) in s.iter() {
            assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&v), "{v}");
        }
    }
}
