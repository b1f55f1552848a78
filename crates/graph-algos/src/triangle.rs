//! Triangle counting (paper Section 8.2).
//!
//! After relabeling vertices in non-increasing degree order, the triangle
//! count is `sum(L .* (L·L))` where `L` is the strictly lower-triangular
//! part of the adjacency matrix — one Masked SpGEMM on the `plus_pair`
//! semiring (each surviving product is a wedge closed by a mask edge)
//! followed by a reduction.

use engine::{Context, MatrixHandle, SemiringKind};
use sparse::reduce::sum_all;
use sparse::triangular::tril;
use sparse::{CscMatrix, CsrMatrix, PlusPair, SparseError};

use crate::scheme::Scheme;

/// Degree-relabel an undirected simple graph and take the strictly
/// lower-triangular part: the `L` the benchmark multiplies.
pub fn prepare_triangle_input(adj: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    tril(&graphs::relabel_by_degree(adj))
}

/// Count triangles: one `L ⊙ (L·L)` Masked SpGEMM + reduction.
///
/// `l_csc` is the CSC copy of `l` for pull-based schemes (pass
/// `&CscMatrix::from_csr(&l)`; kept explicit so harnesses can exclude the
/// conversion from timings).
pub fn triangle_count(
    scheme: Scheme,
    l: &CsrMatrix<f64>,
    l_csc: &CscMatrix<f64>,
) -> Result<u64, SparseError> {
    let sr = PlusPair::<f64, f64, u64>::new();
    let c = scheme.run(sr, l, false, l, l, l_csc)?;
    Ok(sum_all(&c))
}

/// Triangle count via one planned `L ⊙ (L·L)` on `plus_pair`.
///
/// `l` is the prepared lower-triangular input (see
/// [`prepare_triangle_input`]) registered in `ctx`.
pub fn triangle_count_auto(ctx: &Context, l: MatrixHandle) -> Result<u64, SparseError> {
    let c = ctx.op(l, l, l).semiring(SemiringKind::PlusPair).run()?;
    Ok(sum_all(&c) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::triangle_count_reference;
    use graphs::to_undirected_simple;
    use masked_spgemm::{Algorithm, Phases};

    fn count_all_schemes(adj: &CsrMatrix<f64>) -> u64 {
        let l = prepare_triangle_input(adj);
        let lc = CscMatrix::from_csr(&l);
        let expected = triangle_count_reference(adj);
        for s in Scheme::all_ours().into_iter().chain(Scheme::baselines()) {
            let got = triangle_count(s, &l, &lc).unwrap();
            assert_eq!(got, expected, "{}", s.label());
        }
        expected
    }

    #[test]
    fn k4_has_four_triangles() {
        // Complete graph K4: C(4,3) = 4 triangles.
        let mut coo = sparse::CooMatrix::new(4, 4);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    coo.push(i, j, 1.0);
                }
            }
        }
        assert_eq!(count_all_schemes(&coo.to_csr()), 4);
    }

    #[test]
    fn path_has_no_triangles() {
        let mut coo = sparse::CooMatrix::new(5, 5);
        for i in 0..4u32 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        assert_eq!(count_all_schemes(&coo.to_csr()), 0);
    }

    #[test]
    fn random_graphs_match_reference() {
        for seed in 0..3 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(60, 8.0, seed));
            count_all_schemes(&adj);
        }
        let adj = to_undirected_simple(&graphs::rmat(6, graphs::RmatParams::default(), 9));
        count_all_schemes(&adj);
    }

    #[test]
    fn relabeling_does_not_change_count() {
        let adj = to_undirected_simple(&graphs::erdos_renyi(50, 10.0, 3));
        let l_plain = tril(&adj);
        let l_relab = prepare_triangle_input(&adj);
        let c1 = triangle_count(
            Scheme::Ours(Algorithm::Msa, Phases::One),
            &l_plain,
            &CscMatrix::from_csr(&l_plain),
        )
        .unwrap();
        let c2 = triangle_count(
            Scheme::Ours(Algorithm::Msa, Phases::One),
            &l_relab,
            &CscMatrix::from_csr(&l_relab),
        )
        .unwrap();
        assert_eq!(c1, c2);
    }
}
