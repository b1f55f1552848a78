//! Hybrid Masked SpGEMM — the paper's stated future work ("hybrid
//! algorithms that can use different accumulators in the same Masked
//! SpGEMM depending on the density of the mask and parts of matrices being
//! processed", Section 9) — and the one cost model behind every algorithm
//! choice: the hybrid's per row, the engine planner's per multiply.
//!
//! [`row_costs`] prices each family on one output row with `mm` mask
//! entries, `u = nnz(A(i,:))`, `f` flops ([`row_flops`]) and `B`'s average
//! column degree `d̄_B` ([`avg_col_nnz`]). A pull visits `dots = mm` output
//! positions, or `ncols − mm` under a complemented mask.
//!
//! | family | estimate (unit: one MSA flop) | paper complexity it mirrors |
//! |--------|----------|------------------------------|
//! | MSA    | `mm + f + msa_overhead` | `O(nnz(m) + flops)` + amortized dense-array traffic |
//! | MCA    | `u·mm + f` | `O(nnz(u)·nnz(m) + flops)` |
//! | Heap   | `mm + heap_factor·f·(1 + log₂(u+1))` | `O(nnz(m) + log nnz(u)·flops)` |
//! | Inner  | `inner_factor·dots·(u + d̄_B)` | `dots` dot products of length `u + d̄_B` |
//!
//! [`HybridConfig`] holds the three constants; `engine`'s
//! `Context::calibrate` measures them on the machine at hand.
//! [`cheapest`] picks the family: per row for the hybrid
//! (dense hub rows to MSA, sparse fringe rows to dots, a mix no fixed
//! scheme can run), and over the [`CostTotals`] of a whole multiply.

use sparse::{CscMatrix, CsrMatrix, Idx, Semiring, SparseError};

use crate::algos::{inner, ninspect, HeapKernel, McaKernel, MsaKernel};
use crate::api::Phases;
use crate::exec::{drive, MaskRows, Producers, RowProducer};
use crate::kernel::RowKernel;
use crate::scratch::WorkerLocal;

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

/// Relative advantage the hybrid must show over the best fixed family
/// before it is chosen for a whole multiply.
const HYBRID_MARGIN: f64 = 0.85;

/// Per-active-row cost of the hybrid's choice computation and kernel
/// switching, in model units.
const HYBRID_ROW_DISPATCH: f64 = 8.0;

/// The model's cost of each family — MSA, MCA, Heap, Inner, in that
/// order — on one row or summed over a multiply.
pub type FamilyCosts = [f64; 4];

/// The cheapest family and its cost. Ties go to the earlier family in
/// [`FamilyCosts`] order; MCA, which cannot run a complemented mask, is
/// skipped when `complemented`.
pub fn cheapest(costs: FamilyCosts, complemented: bool) -> (RowChoice, f64) {
    let [msa, mca, heap, inner] = costs;
    let mut best = (RowChoice::Msa, msa);
    for (family, cost) in [
        (RowChoice::Mca, mca),
        (RowChoice::Heap, heap),
        (RowChoice::Inner, inner),
    ] {
        let supported = !complemented || family != RowChoice::Mca;
        if supported && cost < best.1 {
            best = (family, cost);
        }
    }
    best
}

/// The cost model (see the module docs) on one output row. Under a
/// complemented mask over `ncols` output columns (`complement_ncols`) the
/// pull visits the `ncols − mm` unmasked positions, so an empty mask row
/// is its costliest row, not a free one.
pub fn row_costs(
    cfg: &HybridConfig,
    mm: usize,
    u: usize,
    f: u64,
    avg_b_col_nnz: f64,
    complement_ncols: Option<usize>,
) -> FamilyCosts {
    let (mm_f, u_f, f_f) = (mm as f64, u as f64, f as f64);
    let dots_f = complement_ncols.map_or(mm_f, |ncols| ncols as f64 - mm_f);
    [
        mm_f + f_f + cfg.msa_overhead,
        u_f * mm_f + f_f,
        mm_f + cfg.heap_factor * f_f * (1.0 + (u_f + 1.0).log2()),
        cfg.inner_factor * dots_f * (u_f + avg_b_col_nnz),
    ]
}

/// Flops of one output row: `Σ nnz(B(k,:))` over its `A` columns `a_cols`.
pub fn row_flops(a_cols: &[Idx], b_row_nnz: impl Fn(usize) -> usize) -> u64 {
    a_cols.iter().map(|&k| b_row_nnz(k as usize) as u64).sum()
}

/// Average column degree `nnz / ncols` (0 with no columns).
pub fn avg_col_nnz(nnz: usize, ncols: usize) -> f64 {
    if ncols > 0 {
        nnz as f64 / ncols as f64
    } else {
        0.0
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
    cheapest(row_costs(cfg, mm, u, f, avg_b_col_nnz, None), false).0
}

/// The cost model summed, in row order, over the rows of one multiply.
#[derive(Copy, Clone, Debug, Default)]
pub struct CostTotals {
    /// Each family's cost summed over the rows.
    pub families: FamilyCosts,
    /// The hybrid's row choices ([`choose_row`]) summed over the rows.
    mixed: f64,
    rows: usize,
    /// Bit set of the families the rows chose.
    chosen: u8,
}

impl CostTotals {
    /// Add one row with work.
    pub fn add_row(&mut self, row: FamilyCosts) {
        for (total, cost) in self.families.iter_mut().zip(row) {
            *total += cost;
        }
        // The hybrid runs plain masks only: its row choice never skips MCA.
        let (choice, cost) = cheapest(row, false);
        self.mixed += cost;
        self.rows += 1;
        self.chosen |= 1 << choice as u8;
    }

    /// The hybrid's full cost next to the best fixed family `fixed` (of
    /// cost `fixed_cost`), and whether it should run instead. The cost adds
    /// per-row dispatch and the CSC copy of `B` (`b_nnz` entries) to the
    /// row choices; the copy is free when `fixed` pulls anyway. The hybrid
    /// runs only under a plain mask, only when the rows disagree about
    /// their cheapest family, and only below `HYBRID_MARGIN · fixed_cost`.
    pub fn hybrid(
        &self,
        (fixed, fixed_cost): (RowChoice, f64),
        b_nnz: usize,
        complemented: bool,
    ) -> (f64, bool) {
        let csc_cost = if fixed == RowChoice::Inner {
            0.0
        } else {
            b_nnz as f64
        };
        let cost = self.mixed + (HYBRID_ROW_DISPATCH * self.rows as f64 + csc_cost);
        let wins =
            !complemented && self.chosen.count_ones() > 1 && cost < HYBRID_MARGIN * fixed_cost;
        (cost, wins)
    }
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
        let acols = self.a.row(i).0;
        let f = row_flops(acols, |k| self.b.row_nnz(k));
        let mm = self.mask.row(i).len();
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
    let avg_b_col_nnz = avg_col_nnz(b.nnz(), b.ncols());
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
    let producers = Producers::PerWorker(WorkerLocal::new(), &make);
    drive(phases, a.nrows(), ncols, producers)
}

/// Per-row choices for a whole multiply (diagnostics / ablation).
pub fn hybrid_choices<MT, A, B>(
    cfg: HybridConfig,
    mask: &CsrMatrix<MT>,
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
) -> Vec<RowChoice> {
    let avg = avg_col_nnz(b.nnz(), b.ncols());
    (0..a.nrows())
        .map(|i| {
            let acols = a.row(i).0;
            let f = row_flops(acols, |k| b.row_nnz(k));
            choose_row(&cfg, mask.row_nnz(i), acols.len(), f, avg)
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
