//! Hybrid Masked SpGEMM — the paper's stated future work ("hybrid
//! algorithms that can use different accumulators in the same Masked
//! SpGEMM depending on the density of the mask and parts of matrices being
//! processed", Section 9) — and the one cost model behind every algorithm
//! choice: the hybrid's per row, the engine planner's per multiply.
//!
//! [`row_costs`] prices each family on one output row with `mm` mask
//! entries, `u = nnz(A(i,:))` and `f` flops ([`row_flops`]). A pull runs one
//! sorted-merge dot product per admissible output position and each dot
//! walks `A(i,:)` and `B(:,j)`, so it is priced by the columns it visits
//! ([`col_counts`]): a plain mask scans its `mm` entries and dots them all;
//! a complemented one scans all `ncols` positions and dots the `ncols − mm`
//! columns it does not name.
//!
//! | family | estimate (unit: one MSA flop) | paper complexity it mirrors |
//! |--------|----------|------------------------------|
//! | MSA    | `mm + f + msa_overhead` | `O(nnz(m) + flops)` + amortized dense-array traffic |
//! | MCA    | `u·mm + f` | `O(nnz(u)·nnz(m) + flops)` |
//! | Heap   | `mm + heap_factor·f·(1 + log₂(u+1))` | `O(nnz(m) + log nnz(u)·flops)` |
//! | Inner  | `inner_factor·(scan + Σ_{dots j} (u + nnz(B(:,j))))` | one dot of length `u + nnz(B(:,j))` per visited column |
//!
//! Under a complemented mask the MSA's `mm` term becomes
//! [`complemented_mask_cost`], `min(mm, f·⌈log₂(mm+1)⌉)`: when a row's
//! flops are few against its mask, the kernel probes the mask once per key
//! it touches instead of stamping every mask entry, so a BFS level under a
//! large visited mask costs what its frontier touches. The heap keeps its
//! `mm` term; its complemented mask cursor gallops
//! ([`sparse::spvec::skip_below`]), so `mm` overstates what it walks.
//!
//! [`HybridConfig`] holds the three constants; its defaults are the model
//! every `engine` context plans with unless a caller installs others.
//! [`cheapest`] picks the family: per row for the hybrid
//! (dense hub rows to MSA, sparse fringe rows to dots, a mix no fixed
//! scheme can run), and over the [`CostTotals`] of a whole multiply.

use sparse::{CscMatrix, CsrMatrix, Idx, Semiring, SparseError};

use crate::algos::{inner, ninspect, HeapKernel, McaKernel, MsaKernel};
use crate::api::{check_shapes, Choice, Phases};
use crate::exec::{Product, RowProducer};
use crate::kernel::RowKernel;
use crate::scratch::ScratchSet;

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
    /// Multiplier on the pull-based dot cost (branchy sorted merges may
    /// cost more per touched element than MSA's streaming scatter).
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

/// What the MSA pays to apply a complemented mask row of `mm` entries to a
/// row of `f` flops: the cheaper of stamping all `mm` entries NOTALLOWED up
/// front, and stamping lazily — one binary search of the mask row, of
/// `⌈log₂(mm+1)⌉` steps, the first time the row touches a key, so at most
/// `f` searches. The kernel stamps lazily exactly when this is below `mm`,
/// and [`row_costs`] charges it, so model and kernel cannot drift apart.
pub fn complemented_mask_cost(mm: usize, f: u64) -> u64 {
    let search_steps = u64::from(usize::BITS - mm.leading_zeros());
    (mm as u64).min(f.saturating_mul(search_steps))
}

/// The cost model (see the module docs) on one output row.
/// `mask_col_nnz` is `Σ nnz(B(:,j))` over the mask row's columns `j`.
/// Under a complemented mask, `complement` holds `B`'s column count and
/// nonzero count: the pull then scans all `ncols` output positions and dots
/// the `ncols − mm` columns the mask does not name, which hold
/// `nnz(B) − mask_col_nnz` entries — so an empty mask row is its costliest
/// row, not a free one. The MSA's mask term under a complement is
/// [`complemented_mask_cost`]: a frontier of a few flops under a large
/// visited mask pays `O(f·log mm)`, not `O(mm)`.
pub fn row_costs(
    cfg: &HybridConfig,
    mm: usize,
    u: usize,
    f: u64,
    mask_col_nnz: u64,
    complement: Option<(usize, usize)>,
) -> FamilyCosts {
    let (mm_f, u_f, f_f) = (mm as f64, u as f64, f as f64);
    let (msa_mask, scan, dots, dot_col_nnz) = match complement {
        None => (mm_f, mm_f, mm_f, mask_col_nnz as f64),
        Some((ncols, b_nnz)) => (
            complemented_mask_cost(mm, f) as f64,
            ncols as f64,
            ncols as f64 - mm_f,
            b_nnz as f64 - mask_col_nnz as f64,
        ),
    };
    [
        msa_mask + f_f + cfg.msa_overhead,
        u_f * mm_f + f_f,
        mm_f + cfg.heap_factor * f_f * (1.0 + (u_f + 1.0).log2()),
        cfg.inner_factor * (scan + dots * u_f + dot_col_nnz),
    ]
}

/// Flops of one output row: `Σ nnz(B(k,:))` over its `A` columns `a_cols`.
pub fn row_flops(a_cols: &[Idx], b_row_nnz: impl Fn(usize) -> usize) -> u64 {
    a_cols.iter().map(|&k| b_row_nnz(k as usize) as u64).sum()
}

/// Column degrees `nnz(B(:,j))` of a CSR matrix with `ncols` columns,
/// counted from its column indices `colidx` in `O(nnz + ncols)`.
pub fn col_counts(colidx: &[Idx], ncols: usize) -> Vec<u32> {
    let mut counts = vec![0u32; ncols];
    for &j in colidx {
        counts[j as usize] += 1;
    }
    counts
}

/// `Σ counts[j]` over the columns `cols`: with [`col_counts`], the
/// `mask_col_nnz` of [`row_costs`].
pub fn col_sum(cols: &[Idx], counts: &[u32]) -> u64 {
    cols.iter().map(|&j| counts[j as usize] as u64).sum()
}

/// Pick the cheapest family for one row under the cost model (plain mask;
/// `mask_col_nnz` as in [`row_costs`]).
pub fn choose_row(cfg: &HybridConfig, mm: usize, u: usize, f: u64, mask_col_nnz: u64) -> RowChoice {
    if mm == 0 || u == 0 || f == 0 {
        return RowChoice::Empty;
    }
    cheapest(row_costs(cfg, mm, u, f, mask_col_nnz, None), false).0
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

/// The per-row hybrid as a row producer: each row runs the family
/// [`choose_row`] picks for it, push rows on CSR `B` and pull rows on its
/// CSC copy. Its kernel is one accumulator per push family it can pick,
/// each sized for `B`'s columns and the longest mask row `max_m`.
pub(crate) struct HybridProducer<'p, S: Semiring> {
    pub(crate) p: Product<'p, S>,
    pub(crate) cfg: HybridConfig,
    pub(crate) b: &'p CsrMatrix<S::B>,
    pub(crate) b_csc: &'p CscMatrix<S::B>,
    pub(crate) max_m: usize,
}

/// The hybrid's kernel: the MSA, MCA and heap accumulators.
pub(crate) type HybridKernels<S> = (MsaKernel<S>, McaKernel<S>, HeapKernel<S, { ninspect::ONE }>);

impl<S: Semiring> HybridProducer<'_, S> {
    fn choice(&self, i: usize) -> RowChoice {
        let (mcols, acols, _) = self.p.row(i);
        let f = row_flops(acols, |k| self.b.row_nnz(k));
        let mask_col_nnz = mcols
            .iter()
            .map(|&j| self.b_csc.col_nnz(j as usize) as u64)
            .sum();
        choose_row(&self.cfg, mcols.len(), acols.len(), f, mask_col_nnz)
    }
}

impl<S> RowProducer<S::C, HybridKernels<S>> for HybridProducer<'_, S>
where
    S: Semiring,
    S::C: Default,
{
    fn new_kernel(&self) -> HybridKernels<S> {
        let (ncols, max_m) = (self.b.ncols(), self.max_m);
        (
            RowKernel::new(ncols, max_m),
            RowKernel::new(ncols, max_m),
            RowKernel::new(ncols, max_m),
        )
    }

    fn compute_row(
        &self,
        (msa, mca, heap): &mut HybridKernels<S>,
        i: usize,
        out_cols: &mut Vec<Idx>,
        out_vals: &mut Vec<S::C>,
    ) {
        let ((mc, ac, av), sr, b) = (self.p.row(i), self.p.sr, self.b);
        match self.choice(i) {
            RowChoice::Empty => {}
            RowChoice::Msa => msa.compute_row(sr, mc, ac, av, b, out_cols, out_vals),
            RowChoice::Mca => mca.compute_row(sr, mc, ac, av, b, out_cols, out_vals),
            RowChoice::Heap => heap.compute_row(sr, mc, ac, av, b, out_cols, out_vals),
            RowChoice::Inner => inner::inner_row(sr, mc, ac, av, self.b_csc, out_cols, out_vals),
        }
    }

    fn count_row(&self, (msa, mca, heap): &mut HybridKernels<S>, i: usize) -> usize {
        let ((mc, ac, av), b) = (self.p.row(i), self.b);
        match self.choice(i) {
            RowChoice::Empty => 0,
            RowChoice::Msa => msa.count_row(mc, ac, av, b),
            RowChoice::Mca => mca.count_row(mc, ac, av, b),
            RowChoice::Heap => heap.count_row(mc, ac, av, b),
            RowChoice::Inner => inner::inner_count_row::<S>(mc, ac, self.b_csc),
        }
    }
}

/// Adaptive Masked SpGEMM choosing an algorithm per output row
/// (plain masks only; for the complement use a fixed scheme): the
/// executor ([`crate::ScratchSet::run`]) with [`Choice::Hybrid`],
/// row-parallel.
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
    check_shapes(mask.shape(), a.shape(), b.shape())?;
    let p = Product::of(sr, mask, false, a);
    ScratchSet::new().execute(Choice::Hybrid, phases, false, cfg, p, Some(b), Some(b_csc))
}

/// Per-row choices for a whole multiply (diagnostics / ablation).
pub fn hybrid_choices<MT, A, B>(
    cfg: HybridConfig,
    mask: &CsrMatrix<MT>,
    a: &CsrMatrix<A>,
    b: &CsrMatrix<B>,
) -> Vec<RowChoice> {
    let b_col_nnz = col_counts(b.colidx(), b.ncols());
    (0..a.nrows())
        .map(|i| {
            let (acols, mcols) = (a.row(i).0, mask.row(i).0);
            let f = row_flops(acols, |k| b.row_nnz(k));
            let mask_col_nnz = col_sum(mcols, &b_col_nnz);
            choose_row(&cfg, mcols.len(), acols.len(), f, mask_col_nnz)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::testutil::random_csr;
    use sparse::dense::reference_masked_spgemm;
    use sparse::PlusTimes;

    /// Vertex 0 links to every other vertex and the rest form a chain:
    /// `nnz(B(:,0)) = 63`, the chain's ends have 2 entries, the rest 3.
    fn hub_and_fringe() -> CsrMatrix<f64> {
        let mut coo = sparse::CooMatrix::new(64, 64);
        for j in 1..64u32 {
            coo.push(0, j, 1.0);
            coo.push(j, 0, 1.0);
        }
        for j in 1..63u32 {
            coo.push(j, j + 1, 1.0);
            coo.push(j + 1, j, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn pull_is_priced_by_the_columns_it_visits() {
        let g = hub_and_fringe();
        let cfg = HybridConfig {
            inner_factor: 2.0,
            ..HybridConfig::default()
        };
        let counts = col_counts(g.colidx(), g.ncols());
        // Mask, A and B are all `g`, so a row's mask and A columns agree.
        let costs = |i: usize, complement| {
            let cols = g.row(i).0;
            let f = row_flops(cols, |k| g.row_nnz(k));
            let mask_col_nnz = col_sum(cols, &counts);
            row_costs(&cfg, cols.len(), cols.len(), f, mask_col_nnz, complement)
        };
        let inner = |i, complement| costs(i, complement)[3];
        let complement = Some((64, g.nnz()));
        assert_eq!(g.nnz(), 250);
        // Hub row: the mask names columns 1..=63 (2 + 61·3 + 2 = 187
        // entries); the complement leaves only the hub's column 0.
        assert_eq!(inner(0, None), 2.0 * (63.0 + 63.0 * 63.0 + 187.0));
        assert_eq!(inner(0, complement), 2.0 * (64.0 + (63.0 + 63.0)));
        // Fringe row 5: the mask names the hub column (63 entries) and two
        // chain columns (3 each); the complement dots the other 61 columns,
        // which hold 250 − 69 entries.
        assert_eq!(inner(5, None), 2.0 * (3.0 + 3.0 * 3.0 + 69.0));
        assert_eq!(
            inner(5, complement),
            2.0 * (64.0 + 61.0 * 3.0 + (250.0 - 69.0))
        );

        // The hybrid executor's row choice (column lengths from the CSC
        // copy), `hybrid_choices` (a column count) and the planner's rule
        // on the same row agree.
        let b_csc = CscMatrix::from_csr(&g);
        let producer = HybridProducer {
            p: Product::of(PlusTimes::<f64>::new(), &g, false, &g),
            cfg,
            b: &g,
            b_csc: &b_csc,
            max_m: 63,
        };
        let choices = hybrid_choices(cfg, &g, &g, &g);
        for (i, &choice) in choices.iter().enumerate() {
            assert_eq!(choice, producer.choice(i), "row {i}");
            assert_eq!(choice, cheapest(costs(i, None), false).0, "row {i}");
        }
        assert_eq!(choices[0], RowChoice::Msa);
        assert_eq!(choices[5], RowChoice::Mca);
    }

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
        assert_eq!(choose_row(&cfg, 1, 4, 100_000, 8), RowChoice::Inner);
        // Empty cases.
        assert_eq!(choose_row(&cfg, 0, 4, 100, 32), RowChoice::Empty);
        assert_eq!(choose_row(&cfg, 4, 0, 100, 32), RowChoice::Empty);
        assert_eq!(choose_row(&cfg, 4, 4, 0, 32), RowChoice::Empty);
    }

    #[test]
    fn cost_model_prefers_accumulators_for_balanced_rows() {
        let cfg = HybridConfig::default();
        // Many mask entries and moderate flops: MSA or MCA, never dot.
        let c = choose_row(&cfg, 500, 50, 2_000, 500 * 64);
        assert!(matches!(c, RowChoice::Msa | RowChoice::Mca), "{c:?}");
    }

    #[test]
    fn choices_vary_across_skewed_rows() {
        // A graph with hub rows and fringe rows should not pick one family
        // for everything when the mask is uniform but inputs are skewed.
        let adj = hub_and_fringe();
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
