//! High-level API: algorithm selection and the matrix entry points.

use sparse::{CscMatrix, CsrMatrix, Semiring, SparseError};

use crate::exec::Product;
use crate::hybrid::HybridConfig;
use crate::scratch::ScratchSet;

/// The Masked SpGEMM algorithm families of the paper (Section 8's scheme
/// names, minus the 1P/2P suffix which is [`Phases`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Masked Sparse Accumulator (push; dense state/value arrays).
    Msa,
    /// Hash accumulator (push; open addressing, load factor 0.25).
    Hash,
    /// Mask Compressed Accumulator (push; `nnz(mask row)`-sized arrays).
    /// Does not support complemented masks.
    Mca,
    /// Heap k-way merge with `NInspect = 1`.
    Heap,
    /// Heap k-way merge with `NInspect = ∞` (paper scheme `HeapDot`).
    HeapDot,
    /// Pull-based dot products driven by the mask (`B` accessed
    /// column-major; converted internally unless you call
    /// [`masked_spgemm_csc`]).
    Inner,
}

impl Algorithm {
    /// All algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Msa,
        Algorithm::Hash,
        Algorithm::Mca,
        Algorithm::Heap,
        Algorithm::HeapDot,
        Algorithm::Inner,
    ];

    /// Scheme name as used in the paper's plots (e.g. `MSA`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Msa => "MSA",
            Algorithm::Hash => "Hash",
            Algorithm::Mca => "MCA",
            Algorithm::Heap => "Heap",
            Algorithm::HeapDot => "HeapDot",
            Algorithm::Inner => "Inner",
        }
    }

    /// Whether the algorithm supports `C = ¬M ⊙ (A·B)`.
    pub fn supports_complement(self) -> bool {
        !matches!(self, Algorithm::Mca)
    }

    /// Validate a requested mask polarity against this algorithm.
    ///
    /// Every execution path in this workspace — direct calls, serial runs
    /// on reused scratch, and the engine's planned/forced/batched paths —
    /// funnels complement support through this check, so a
    /// complemented-mask request on [`Algorithm::Mca`] uniformly yields
    /// [`SparseError::Unsupported`] with [`COMPLEMENT_UNSUPPORTED`] instead
    /// of a panic or a silent fallback.
    pub fn check_complement_support(self, complemented: bool) -> Result<(), SparseError> {
        if complemented && !self.supports_complement() {
            return Err(SparseError::Unsupported(COMPLEMENT_UNSUPPORTED));
        }
        Ok(())
    }
}

/// What runs a product: one algorithm family for every row, or the
/// per-row hybrid ([`crate::hybrid`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Choice {
    /// One algorithm for every row.
    Fixed(Algorithm),
    /// Per-row adaptive selection (plain masks only).
    Hybrid,
}

/// The one error message for "MCA × complemented mask", shared by every
/// entry point (the MCA accumulator is addressed by mask *rank*, which
/// presupposes the output pattern is a subset of the mask — Section 5.4).
pub const COMPLEMENT_UNSUPPORTED: &str = "MCA does not support complemented masks";

/// One-phase (numeric only) vs. two-phase (symbolic + numeric) execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Phases {
    /// Single numeric pass with transient over-allocation.
    One,
    /// Symbolic nonzero count, exact allocation, then numeric pass.
    Two,
}

impl Phases {
    /// Both phase disciplines.
    pub const ALL: [Phases; 2] = [Phases::One, Phases::Two];

    /// Suffix as used in the paper's plots (`1P` / `2P`).
    pub fn suffix(self) -> &'static str {
        match self {
            Phases::One => "1P",
            Phases::Two => "2P",
        }
    }
}

/// A [`SparseError::DimMismatch`] unless a mask of shape `mask`, `A` of
/// shape `a` and `B` of shape `b` form the product `M ⊙ (A·B)`. A vector
/// operand is one row: shape `(1, dim)`.
pub fn check_shapes(
    mask: (usize, usize),
    a: (usize, usize),
    b: (usize, usize),
) -> Result<(), SparseError> {
    if a.1 != b.0 {
        return Err(SparseError::DimMismatch {
            op: "masked product (A·B)",
            lhs: a,
            rhs: b,
        });
    }
    if mask != (a.0, b.1) {
        return Err(SparseError::DimMismatch {
            op: "masked product (mask)",
            lhs: mask,
            rhs: (a.0, b.1),
        });
    }
    Ok(())
}

/// A [`SparseError::DimMismatch`] unless a CSC copy of `B` (shape `csc`)
/// has `B`'s shape `b`.
pub(crate) fn check_csc(csc: (usize, usize), b: (usize, usize)) -> Result<(), SparseError> {
    if csc != b {
        return Err(SparseError::DimMismatch {
            op: "masked product (CSC copy of B)",
            lhs: csc,
            rhs: b,
        });
    }
    Ok(())
}

/// Execute a Masked SpGEMM with explicit algorithm/phase selection.
///
/// `B` is taken in CSR; [`Algorithm::Inner`] converts it to CSC internally
/// (use [`masked_spgemm_csc`] to amortize that conversion across calls).
///
/// ```
/// use masked_spgemm::{masked_spgemm, Algorithm, Phases};
/// use sparse::{CsrMatrix, PlusPair};
///
/// // Count common neighbors along existing edges of a triangle graph.
/// let tri = CsrMatrix::try_new(
///     3, 3,
///     vec![0, 2, 4, 6],
///     vec![1, 2, 0, 2, 0, 1],
///     vec![1.0f64; 6],
/// ).unwrap();
/// let sr = PlusPair::<f64, f64, u32>::new();
/// let c = masked_spgemm(Algorithm::Mca, Phases::Two, false, sr, &tri, &tri, &tri).unwrap();
/// // Every edge of the triangle closes through exactly one wedge.
/// assert!(c.values().iter().all(|&v| v == 1));
/// ```
pub fn masked_spgemm<S, MT>(
    algorithm: Algorithm,
    phases: Phases,
    complemented: bool,
    sr: S,
    mask: &CsrMatrix<MT>,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
) -> Result<CsrMatrix<S::C>, SparseError>
where
    S: Semiring,
    S::C: Default + Sync,
    MT: Copy + Sync,
{
    check_shapes(mask.shape(), a.shape(), b.shape())?;
    let p = Product::of(sr, mask, complemented, a);
    let (choice, cfg) = (Choice::Fixed(algorithm), HybridConfig::default());
    ScratchSet::new().execute(choice, phases, false, cfg, p, Some(b), None)
}

/// [`masked_spgemm`] for callers that already hold `B` in CSC form
/// (only meaningful for [`Algorithm::Inner`]; the push algorithms read
/// `B` in CSR, so they return an error).
pub fn masked_spgemm_csc<S, MT>(
    algorithm: Algorithm,
    phases: Phases,
    complemented: bool,
    sr: S,
    mask: &CsrMatrix<MT>,
    a: &CsrMatrix<S::A>,
    b: &CscMatrix<S::B>,
) -> Result<CsrMatrix<S::C>, SparseError>
where
    S: Semiring,
    S::C: Default + Sync,
    MT: Copy + Sync,
{
    check_shapes(mask.shape(), a.shape(), b.shape())?;
    let p = Product::of(sr, mask, complemented, a);
    let (choice, cfg) = (Choice::Fixed(algorithm), HybridConfig::default());
    ScratchSet::new().execute(choice, phases, false, cfg, p, None, Some(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::random_csr;
    use sparse::dense::reference_masked_spgemm;
    use sparse::{PlusPair, PlusTimes};

    #[test]
    fn all_schemes_agree_on_all_semirings() {
        let a = random_csr(20, 20, 1, 30);
        let b = random_csr(20, 20, 2, 30);
        let m = random_csr(20, 20, 3, 40).pattern();
        // plus_times
        let sr = PlusTimes::<f64>::new();
        let expect = reference_masked_spgemm(sr, &m, false, &a, &b);
        for alg in Algorithm::ALL {
            for ph in Phases::ALL {
                let got = masked_spgemm(alg, ph, false, sr, &m, &a, &b).unwrap();
                assert_eq!(got, expect, "{alg:?}-{ph:?}");
            }
        }
        // plus_pair
        let sp = PlusPair::<f64, f64, u32>::new();
        let expect = reference_masked_spgemm(sp, &m, false, &a, &b);
        for alg in Algorithm::ALL {
            let got = masked_spgemm(alg, Phases::One, false, sp, &m, &a, &b).unwrap();
            assert_eq!(got, expect, "{alg:?} plus_pair");
        }
    }

    #[test]
    fn complemented_schemes_agree() {
        let a = random_csr(15, 15, 4, 35);
        let b = random_csr(15, 15, 5, 35);
        let m = random_csr(15, 15, 6, 30).pattern();
        let sr = PlusTimes::<f64>::new();
        let expect = reference_masked_spgemm(sr, &m, true, &a, &b);
        for alg in Algorithm::ALL {
            if !alg.supports_complement() {
                assert!(masked_spgemm(alg, Phases::One, true, sr, &m, &a, &b).is_err());
                continue;
            }
            for ph in Phases::ALL {
                let got = masked_spgemm(alg, ph, true, sr, &m, &a, &b).unwrap();
                assert_eq!(got, expect, "{alg:?}-{ph:?} complemented");
            }
        }
    }

    #[test]
    fn shape_errors() {
        let sr = PlusTimes::<f64>::new();
        let a = CsrMatrix::<f64>::empty(2, 3);
        let b = CsrMatrix::<f64>::empty(4, 2);
        let m = CsrMatrix::<()>::empty(2, 2);
        assert!(masked_spgemm(Algorithm::Msa, Phases::One, false, sr, &m, &a, &b).is_err());
        let b = CsrMatrix::<f64>::empty(3, 2);
        let bad_mask = CsrMatrix::<()>::empty(3, 2);
        assert!(masked_spgemm(Algorithm::Msa, Phases::One, false, sr, &bad_mask, &a, &b).is_err());
    }

    #[test]
    fn labels() {
        let label = |alg: Algorithm, ph: Phases| format!("{}-{}", alg.name(), ph.suffix());
        assert_eq!(label(Algorithm::Msa, Phases::One), "MSA-1P");
        assert_eq!(label(Algorithm::HeapDot, Phases::Two), "HeapDot-2P");
    }

    #[test]
    fn csc_entry_point() {
        let a = random_csr(10, 10, 7, 40);
        let b = random_csr(10, 10, 8, 40);
        let m = random_csr(10, 10, 9, 40).pattern();
        let sr = PlusTimes::<f64>::new();
        let bc = CscMatrix::from_csr(&b);
        let expect = reference_masked_spgemm(sr, &m, false, &a, &b);
        let got = masked_spgemm_csc(Algorithm::Inner, Phases::One, false, sr, &m, &a, &bc).unwrap();
        assert_eq!(got, expect);
        assert!(masked_spgemm_csc(Algorithm::Msa, Phases::One, false, sr, &m, &a, &bc).is_err());
    }
}
