//! The scheme axis of the evaluation: every Masked SpGEMM implementation a
//! benchmark can be run with, labeled as in the paper's plots.

use masked_spgemm::{masked_spgemm, masked_spgemm_csc, Algorithm, Phases};
use sparse::{CscMatrix, CsrMatrix, Semiring, SparseError};

/// One line in the paper's performance-profile plots: our 12 algorithm
/// variants (6 algorithms × 1P/2P) or one of the SS:GB-like baselines.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// One of this paper's algorithms with a phase discipline.
    Ours(Algorithm, Phases),
    /// SuiteSparse-like pull baseline (dot products, binary-search
    /// intersection).
    SsDot,
    /// SuiteSparse-like push baseline (unmasked scatter, mask at gather).
    SsSaxpy,
    /// Adaptive per-row algorithm selection (the paper's future work,
    /// implemented in [`masked_spgemm::hybrid`]). Plain masks only.
    Hybrid,
}

impl Scheme {
    /// The 12 schemes proposed in the paper (Figures 8 and 12).
    pub fn all_ours() -> Vec<Scheme> {
        let mut v = Vec::new();
        for alg in Algorithm::ALL {
            for ph in Phases::ALL {
                v.push(Scheme::Ours(alg, ph));
            }
        }
        v
    }

    /// The two baseline schemes (Figures 9, 13, 16).
    pub fn baselines() -> Vec<Scheme> {
        vec![Scheme::SsDot, Scheme::SsSaxpy]
    }

    /// Label as used in the paper's plots (`MSA-1P`, `SS:DOT`, ...).
    pub fn label(&self) -> String {
        match self {
            Scheme::Ours(alg, ph) => format!("{}-{}", alg.name(), ph.suffix()),
            Scheme::SsDot => "SS:DOT".to_string(),
            Scheme::SsSaxpy => "SS:SAXPY".to_string(),
            Scheme::Hybrid => "Hybrid-1P".to_string(),
        }
    }

    /// Whether this scheme can run `C = ¬M ⊙ (A·B)` (everything but MCA
    /// and the hybrid).
    pub fn supports_complement(&self) -> bool {
        match self {
            Scheme::Ours(alg, _) => alg.supports_complement(),
            Scheme::Hybrid => false,
            _ => true,
        }
    }

    /// Execute `C = M ⊙ (A·B)` (or `¬M ⊙` with `complemented`).
    ///
    /// Pull-based schemes consume `b_csc`; push-based schemes consume
    /// `b_csr`. Callers running iterative benchmarks provide both so
    /// format-conversion cost stays out of the kernel-time comparisons
    /// (SS:GB pays a transpose before each multiply — the paper notes this
    /// as overhead; our harnesses time it separately).
    pub fn run<S, MT>(
        &self,
        sr: S,
        mask: &CsrMatrix<MT>,
        complemented: bool,
        a: &CsrMatrix<S::A>,
        b_csr: &CsrMatrix<S::B>,
        b_csc: &CscMatrix<S::B>,
    ) -> Result<CsrMatrix<S::C>, SparseError>
    where
        S: Semiring,
        S::C: Default + Send + Sync,
        MT: Copy + Sync,
    {
        match self {
            Scheme::Ours(Algorithm::Inner, ph) => {
                masked_spgemm_csc(Algorithm::Inner, *ph, complemented, sr, mask, a, b_csc)
            }
            Scheme::Ours(alg, ph) => masked_spgemm(*alg, *ph, complemented, sr, mask, a, b_csr),
            Scheme::SsDot => Ok(baselines::ss_dot(sr, mask, complemented, a, b_csc)),
            Scheme::SsSaxpy => Ok(baselines::ss_saxpy(sr, mask, complemented, a, b_csr)),
            Scheme::Hybrid => {
                if complemented {
                    return Err(sparse::SparseError::Unsupported(
                        "hybrid scheme handles plain masks only",
                    ));
                }
                masked_spgemm::hybrid_masked_spgemm(
                    Phases::One,
                    masked_spgemm::HybridConfig::default(),
                    sr,
                    mask,
                    a,
                    b_csr,
                    b_csc,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::dense::reference_masked_spgemm;
    use sparse::PlusTimes;

    #[test]
    fn labels() {
        assert_eq!(Scheme::Ours(Algorithm::Msa, Phases::One).label(), "MSA-1P");
        assert_eq!(
            Scheme::Ours(Algorithm::HeapDot, Phases::Two).label(),
            "HeapDot-2P"
        );
        assert_eq!(Scheme::SsDot.label(), "SS:DOT");
        assert_eq!(Scheme::all_ours().len(), 12);
    }

    #[test]
    fn hybrid_scheme_agrees_on_plain_masks() {
        let a = graphs::erdos_renyi(50, 6.0, 4);
        let b = graphs::erdos_renyi(50, 6.0, 5);
        let m = graphs::erdos_renyi(50, 12.0, 6).pattern();
        let bc = CscMatrix::from_csr(&b);
        let sr = PlusTimes::<f64>::new();
        let expect = reference_masked_spgemm(sr, &m, false, &a, &b);
        let got = Scheme::Hybrid.run(sr, &m, false, &a, &b, &bc).unwrap();
        assert_eq!(got, expect);
        assert!(Scheme::Hybrid.run(sr, &m, true, &a, &b, &bc).is_err());
        assert!(!Scheme::Hybrid.supports_complement());
        assert_eq!(Scheme::Hybrid.label(), "Hybrid-1P");
    }

    #[test]
    fn every_scheme_computes_the_same_product() {
        let a = graphs::erdos_renyi(40, 6.0, 1);
        let b = graphs::erdos_renyi(40, 6.0, 2);
        let m = graphs::erdos_renyi(40, 10.0, 3).pattern();
        let bc = CscMatrix::from_csr(&b);
        let sr = PlusTimes::<f64>::new();
        for compl in [false, true] {
            let expect = reference_masked_spgemm(sr, &m, compl, &a, &b);
            for s in Scheme::all_ours().into_iter().chain(Scheme::baselines()) {
                if compl && !s.supports_complement() {
                    assert!(s.run(sr, &m, compl, &a, &b, &bc).is_err());
                    continue;
                }
                let got = s.run(sr, &m, compl, &a, &b, &bc).unwrap();
                assert_eq!(got, expect, "{} compl={compl}", s.label());
            }
        }
    }
}
