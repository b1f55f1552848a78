//! Hybrid Masked SpGEMM — the paper's stated future work
//! ("hybrid algorithms that can use different accumulators in the same
//! Masked SpGEMM depending on the density of the mask and parts of matrices
//! being processed", Section 9), implemented here as an extension.
//!
//! For each output row the producer estimates the cost of every algorithm
//! family from quantities it can read in `O(nnz(A(i,:)))`:
//!
//! * `f`   — flops of the row (`Σ_k nnz(B(k,:))` over `A(i,k) ≠ 0`);
//! * `mm`  — `nnz(mask row)`;
//! * `u`   — `nnz(A(i,:))`;
//! * `d̄_B` — average column degree of `B` (precomputed once).
//!
//! Cost model (unit = one memory-touch-ish operation; constants calibrated
//! by the `hybrid_ablation` bench):
//!
//! | family | estimate | paper complexity it mirrors |
//! |--------|----------|------------------------------|
//! | MSA    | `mm + f + K_MSA` | `O(nnz(m) + flops)` + amortized dense-array traffic |
//! | MCA    | `u·mm + f` | `O(nnz(u)·nnz(m) + flops)` |
//! | Heap   | `mm + f·(1 + log₂(u+1))` | `O(nnz(m) + log nnz(u)·flops)` |
//! | Inner  | `mm·(u + d̄_B)` | `nnz(m)` dots of length `u + d̄_B` |
//!
//! The winner computes the row. The whole multiply therefore mixes
//! families across rows — dense hub rows can go to MSA while sparse
//! fringe rows use dots — which no fixed scheme can do.

use sparse::{CscMatrix, CsrMatrix, Idx, Semiring, SparseError};

use crate::algos::{inner, ninspect, HeapKernel, McaKernel, MsaKernel};
use crate::api::Phases;
use crate::exec::{one_phase_driver, two_phase_driver, MaskRows, RowProducer};
use crate::kernel::RowKernel;

/// Which family the hybrid picked for a row (exposed for diagnostics).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RowChoice {
    /// Row skipped (empty mask row or empty `A` row).
    Empty,
    /// Masked sparse accumulator.
    Msa,
    /// Mask-compressed accumulator.
    Mca,
    /// Heap merge (`NInspect = 1`).
    Heap,
    /// Dot products against CSC columns.
    Inner,
}

/// Tunable constants of the per-row cost model.
#[derive(Copy, Clone, Debug)]
pub struct HybridConfig {
    /// Flat penalty charged to MSA for touching `O(ncols)` arrays
    /// (amortized TLB/cache cost of the dense accumulator).
    pub msa_overhead: f64,
    /// Multiplier on the heap's per-flop cost.
    pub heap_factor: f64,
    /// Multiplier on the pull-based dot cost (branchy sorted merges cost
    /// more per touched element than MSA's streaming scatter; measured by
    /// `engine`'s calibration).
    pub inner_factor: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            msa_overhead: 96.0,
            heap_factor: 1.0,
            inner_factor: 1.0,
        }
    }
}

/// Pick the cheapest family for one row under the cost model.
pub fn choose_row(
    cfg: &HybridConfig,
    mm: usize,
    u: usize,
    f: u64,
    avg_b_col_nnz: f64,
) -> RowChoice {
    if mm == 0 || u == 0 || f == 0 {
        return RowChoice::Empty;
    }
    let (mm_f, u_f, f_f) = (mm as f64, u as f64, f as f64);
    let msa = mm_f + f_f + cfg.msa_overhead;
    let mca = u_f * mm_f + f_f;
    let heap = mm_f + cfg.heap_factor * f_f * (1.0 + (u_f + 1.0).log2());
    let dot = cfg.inner_factor * mm_f * (u_f + avg_b_col_nnz);
    let mut best = (RowChoice::Msa, msa);
    for cand in [
        (RowChoice::Mca, mca),
        (RowChoice::Heap, heap),
        (RowChoice::Inner, dot),
    ] {
        if cand.1 < best.1 {
            best = cand;
        }
    }
    best.0
}

struct HybridProducer<'m, S: Semiring>
where
    S::C: Default,
{
    sr: S,
    cfg: HybridConfig,
    mask: MaskRows<'m>,
    a: &'m CsrMatrix<S::A>,
    b: &'m CsrMatrix<S::B>,
    b_csc: &'m CscMatrix<S::B>,
    avg_b_col_nnz: f64,
    msa: MsaKernel<S>,
    mca: McaKernel<S>,
    heap: HeapKernel<S, { ninspect::ONE }>,
}

impl<'m, S> HybridProducer<'m, S>
where
    S: Semiring,
    S::C: Default,
{
    fn choice(&self, i: usize) -> RowChoice {
        let mm = self.mask.row(i).len();
        let (acols, _) = self.a.row(i);
        let bptr = self.b.rowptr();
        let f: u64 = acols
            .iter()
            .map(|&k| (bptr[k as usize + 1] - bptr[k as usize]) as u64)
            .sum();
        choose_row(&self.cfg, mm, acols.len(), f, self.avg_b_col_nnz)
    }
}

impl<'m, S> RowProducer<S::C> for HybridProducer<'m, S>
where
    S: Semiring,
    S::C: Default,
{
    fn compute_row(&mut self, i: usize, out_cols: &mut Vec<Idx>, out_vals: &mut Vec<S::C>) {
        let mc = self.mask.row(i);
        let (ac, av) = self.a.row(i);
        match self.choice(i) {
            RowChoice::Empty => {}
            RowChoice::Msa => self
                .msa
                .compute_row(self.sr, mc, ac, av, self.b, out_cols, out_vals),
            RowChoice::Mca => self
                .mca
                .compute_row(self.sr, mc, ac, av, self.b, out_cols, out_vals),
            RowChoice::Heap => self
                .heap
                .compute_row(self.sr, mc, ac, av, self.b, out_cols, out_vals),
            RowChoice::Inner => {
                inner::inner_row(self.sr, mc, ac, av, self.b_csc, out_cols, out_vals)
            }
        }
    }

    fn count_row(&mut self, i: usize) -> usize {
        let mc = self.mask.row(i);
        let (ac, av) = self.a.row(i);
        match self.choice(i) {
            RowChoice::Empty => 0,
            RowChoice::Msa => self.msa.count_row(mc, ac, av, self.b),
            RowChoice::Mca => self.mca.count_row(mc, ac, av, self.b),
            RowChoice::Heap => self.heap.count_row(mc, ac, av, self.b),
            RowChoice::Inner => inner::inner_count_row::<S>(mc, ac, self.b_csc),
        }
    }
}

/// Adaptive Masked SpGEMM choosing an algorithm per output row
/// (plain masks only; for the complement use a fixed scheme).
pub fn hybrid_masked_spgemm<S, MT>(
    phases: Phases,
    cfg: HybridConfig,
    sr: S,
    mask: &CsrMatrix<MT>,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    b_csc: &CscMatrix<S::B>,
) -> Result<CsrMatrix<S::C>, SparseError>
where
    S: Semiring,
    S::C: Default + Sync,
    MT: Copy + Sync,
{
    if a.ncols() != b.nrows() || mask.shape() != (a.nrows(), b.ncols()) {
        return Err(SparseError::DimMismatch {
            op: "hybrid_masked_spgemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if b_csc.shape() != b.shape() {
        return Err(SparseError::DimMismatch {
            op: "hybrid_masked_spgemm (CSC copy)",
            lhs: b_csc.shape(),
            rhs: b.shape(),
        });
    }
    Ok(hybrid_rows(
        phases,
        cfg,
        sr,
        MaskRows::of(mask),
        a,
        b,
        b_csc,
    ))
}

/// [`hybrid_masked_spgemm`] on the mask's pattern.
fn hybrid_rows<S>(
    phases: Phases,
    cfg: HybridConfig,
    sr: S,
    mask: MaskRows<'_>,
    a: &CsrMatrix<S::A>,
    b: &CsrMatrix<S::B>,
    b_csc: &CscMatrix<S::B>,
) -> CsrMatrix<S::C>
where
    S: Semiring,
    S::C: Default + Sync,
{
    let avg_b_col_nnz = if b.ncols() > 0 {
        b.nnz() as f64 / b.ncols() as f64
    } else {
        0.0
    };
    let (max_m, ncols) = (mask.max_row_nnz(), b.ncols());
    let make = || HybridProducer {
        sr,
        cfg,
        mask,
        a,
        b,
        b_csc,
        avg_b_col_nnz,
        msa: MsaKernel::new(ncols, max_m),
        mca: McaKernel::new(ncols, max_m),
        heap: HeapKernel::new(ncols, max_m),
    };
    match phases {
        Phases::One => one_phase_driver(a.nrows(), ncols, make),
        Phases::Two => two_phase_driver(a.nrows(), ncols, make),
    }
}

/// Per-row choices for a whole multiply (diagnostics / ablation).
pub fn hybrid_choices<MT, A, B>(
    cfg: HybridConfig,
    mask: &CsrMatrix<MT>,
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
) -> Vec<RowChoice> {
    let avg = if b.ncols() > 0 {
        b.nnz() as f64 / b.ncols() as f64
    } else {
        0.0
    };
    let bptr = b.rowptr();
    (0..a.nrows())
        .map(|i| {
            let (ac, _) = a.row(i);
            let f: u64 = ac
                .iter()
                .map(|&k| (bptr[k as usize + 1] - bptr[k as usize]) as u64)
                .sum();
            choose_row(&cfg, mask.row_nnz(i), ac.len(), f, avg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::random_csr;
    use sparse::dense::reference_masked_spgemm;
    use sparse::PlusTimes;

    #[test]
    fn matches_reference_both_phases() {
        let sr = PlusTimes::<f64>::new();
        for seed in 0..4u64 {
            let a = random_csr(40, 35, seed + 1, 20);
            let b = random_csr(35, 45, seed + 2, 20);
            let m = random_csr(40, 45, seed + 3, 30).pattern();
            let bc = CscMatrix::from_csr(&b);
            let expect = reference_masked_spgemm(sr, &m, false, &a, &b);
            for ph in Phases::ALL {
                let got =
                    hybrid_masked_spgemm(ph, HybridConfig::default(), sr, &m, &a, &b, &bc).unwrap();
                assert_eq!(got, expect, "seed={seed} {ph:?}");
            }
        }
    }

    #[test]
    fn cost_model_prefers_dot_for_tiny_masks() {
        let cfg = HybridConfig::default();
        // Huge row flops, one mask entry: dot wins.
        assert_eq!(choose_row(&cfg, 1, 4, 100_000, 8.0), RowChoice::Inner);
        // Empty cases.
        assert_eq!(choose_row(&cfg, 0, 4, 100, 8.0), RowChoice::Empty);
        assert_eq!(choose_row(&cfg, 4, 0, 100, 8.0), RowChoice::Empty);
        assert_eq!(choose_row(&cfg, 4, 4, 0, 8.0), RowChoice::Empty);
    }

    #[test]
    fn cost_model_prefers_accumulators_for_balanced_rows() {
        let cfg = HybridConfig::default();
        // Many mask entries and moderate flops: MSA or MCA, never dot.
        let c = choose_row(&cfg, 500, 50, 2_000, 64.0);
        assert!(matches!(c, RowChoice::Msa | RowChoice::Mca), "{c:?}");
    }

    #[test]
    fn choices_vary_across_skewed_rows() {
        // A graph with hub rows and fringe rows should not pick one family
        // for everything when the mask is uniform but inputs are skewed.
        let adj = {
            let mut coo = sparse::CooMatrix::new(64, 64);
            // hub: row 0 connects everywhere
            for j in 1..64u32 {
                coo.push(0, j, 1.0);
                coo.push(j, 0, 1.0);
            }
            // fringe chain
            for j in 1..63u32 {
                coo.push(j, j + 1, 1.0);
                coo.push(j + 1, j, 1.0);
            }
            coo.to_csr()
        };
        let mask = random_csr(64, 64, 9, 40).pattern();
        let choices = hybrid_choices(HybridConfig::default(), &mask, &adj, &adj);
        let distinct: std::collections::HashSet<_> =
            choices.iter().filter(|c| **c != RowChoice::Empty).collect();
        assert!(distinct.len() >= 2, "hybrid degenerated to {distinct:?}");
    }

    #[test]
    fn dimension_errors() {
        let sr = PlusTimes::<f64>::new();
        let a = CsrMatrix::<f64>::empty(2, 3);
        let b = CsrMatrix::<f64>::empty(4, 2);
        let bc = CscMatrix::from_csr(&b);
        let m = CsrMatrix::<()>::empty(2, 2);
        assert!(
            hybrid_masked_spgemm(Phases::One, HybridConfig::default(), sr, &m, &a, &b, &bc)
                .is_err()
        );
    }
}
