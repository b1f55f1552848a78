//! Cost-model-based algorithm selection.
//!
//! The per-row cost model of [`masked_spgemm::hybrid`] (Section 9 future
//! work of the paper) is aggregated over whole operations here: for each
//! family the planner sums the per-row estimates using cached degree
//! vectors and the pair-cached flop count, then picks the cheapest. When
//! mixing families per row is estimated to beat every fixed family by a
//! margin, the plan is [`Choice::Hybrid`] and execution routes through
//! `hybrid_masked_spgemm`.
//!
//! All quantities are `O(nnz(A) + nrows)` to evaluate and come from the
//! [`crate::Context`] auxiliary cache, so repeated planning over the same
//! operands (k-truss peeling, BC sweeps) is cheap.

use masked_spgemm::{Algorithm, Phases};
use sparse::SparseError;

use crate::context::{Context, MatrixHandle, VectorHandle};

/// What executes the multiply.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Choice {
    /// One algorithm for every row.
    Fixed(Algorithm),
    /// Per-row adaptive selection (plain masks only).
    Hybrid,
}

/// Estimated unit costs per algorithm family (the planner's working).
#[derive(Copy, Clone, Debug, Default)]
pub struct CostBreakdown {
    /// Masked sparse accumulator.
    pub msa: f64,
    /// Mask-compressed accumulator.
    pub mca: f64,
    /// Heap merge.
    pub heap: f64,
    /// Pull-based dot products.
    pub inner: f64,
    /// Per-row minimum across families (the hybrid's idealized cost).
    pub hybrid: f64,
    /// Flops of the unmasked product (the model's work term).
    pub flops: u64,
}

/// A chosen execution strategy for one masked multiply.
#[derive(Copy, Clone, Debug)]
pub struct Plan {
    /// Algorithm (or per-row hybrid).
    pub choice: Choice,
    /// Phase discipline.
    pub phases: Phases,
    /// Mask polarity.
    pub complemented: bool,
    /// Run serially on the calling thread instead of dispatching the pool:
    /// the estimated work is below the calibrated dispatch overhead
    /// ([`Context::set_serial_cutoff_flops`]). Vector-operand plans are
    /// always serial — a single output row has no row parallelism to win.
    pub serial: bool,
    /// The cost estimates that produced the choice.
    pub costs: CostBreakdown,
}

impl Plan {
    /// A plan forcing `algorithm` with no cost evaluation.
    pub fn fixed(algorithm: Algorithm, phases: Phases, complemented: bool) -> Self {
        Plan {
            choice: Choice::Fixed(algorithm),
            phases,
            complemented,
            serial: false,
            costs: CostBreakdown::default(),
        }
    }

    /// Reduce the plan to one fixed algorithm (serial runs and batch
    /// workers need one): when the planner wanted the per-row hybrid, take
    /// the fixed family its own cost breakdown ranked best.
    pub(crate) fn fixed_algorithm(&self) -> Algorithm {
        match self.choice {
            Choice::Fixed(alg) => alg,
            Choice::Hybrid => {
                let c = &self.costs;
                let mut best = (Algorithm::Msa, c.msa);
                for cand in [
                    (Algorithm::Mca, c.mca),
                    (Algorithm::Heap, c.heap),
                    (Algorithm::Inner, c.inner),
                ] {
                    let supported = !self.complemented || cand.0.supports_complement();
                    if supported && cand.1 < best.1 {
                        best = cand;
                    }
                }
                best.0
            }
        }
    }

    /// Whether running the plan reads `B` in CSC form: the pull family, or
    /// the per-row hybrid (whose pull rows do) when it runs row-parallel.
    pub(crate) fn pulls(&self) -> bool {
        match self.choice {
            _ if self.serial => self.fixed_algorithm() == Algorithm::Inner,
            Choice::Fixed(alg) => alg == Algorithm::Inner,
            Choice::Hybrid => true,
        }
    }

    /// Label like the paper's scheme names (`MSA-1P`, `Hybrid-1P`).
    pub fn label(&self) -> String {
        let name = match self.choice {
            Choice::Fixed(alg) => alg.name(),
            Choice::Hybrid => "Hybrid",
        };
        format!("{}-{}", name, self.phases.suffix())
    }
}

/// Relative advantage the hybrid must show over the best fixed family
/// before the planner accepts it.
const HYBRID_MARGIN: f64 = 0.85;

/// Per-active-row cost of the hybrid's choice computation and kernel
/// switching, in model units.
const HYBRID_ROW_DISPATCH: f64 = 8.0;

/// Flop count above which a complemented-mask multiply switches to
/// two-phase execution (the 1P transient copy has no mask-derived bound
/// under a complemented mask, so exact allocation wins for heavy products).
const COMPLEMENTED_TWO_PHASE_FLOPS: u64 = 1 << 22;

/// Validate that the three operands form a well-shaped masked multiply
/// (shared by the planner, the cache lookup, and the descriptor path).
pub(crate) fn validate(
    ctx: &Context,
    mask: MatrixHandle,
    a: MatrixHandle,
    b: MatrixHandle,
) -> Result<(), SparseError> {
    let (em, ea, eb) = (ctx.entry(mask), ctx.entry(a), ctx.entry(b));
    if ea.matrix.ncols() != eb.matrix.nrows() {
        return Err(SparseError::DimMismatch {
            op: "engine plan (A·B)",
            lhs: ea.matrix.shape(),
            rhs: eb.matrix.shape(),
        });
    }
    if em.matrix.shape() != (ea.matrix.nrows(), eb.matrix.ncols()) {
        return Err(SparseError::DimMismatch {
            op: "engine plan (mask)",
            lhs: em.matrix.shape(),
            rhs: (ea.matrix.nrows(), eb.matrix.ncols()),
        });
    }
    Ok(())
}

/// Cost-model planning proper. Operand shapes are the caller's
/// responsibility ([`Context::plan`] runs [`validate`] before the cache
/// lookup, which is the only path here).
pub(crate) fn plan(
    ctx: &Context,
    mask: MatrixHandle,
    complemented: bool,
    a: MatrixHandle,
    b: MatrixHandle,
) -> Result<Plan, SparseError> {
    let (ea, eb) = (ctx.entry(a), ctx.entry(b));

    let cfg = ctx.config();
    let flops_total = ctx.flops(a, b);
    let mask_deg = ctx.row_degrees(mask);
    let a_deg = ctx.row_degrees(a);
    let b_deg = ctx.row_degrees(b);
    let avg_b_col_nnz = if eb.matrix.ncols() > 0 {
        eb.matrix.nnz() as f64 / eb.matrix.ncols() as f64
    } else {
        0.0
    };

    // Aggregate the per-row model exactly: one pass over A's indices for
    // per-row flops, one pass over rows for the family sums.
    //
    // Under a complemented mask the pull algorithm's work per row is driven
    // by the *unmasked* column count (`ncols − mm` dots — an empty mask row
    // is the maximal-work row, not a free one), and such rows must not be
    // skipped.
    // Structure-only: the planner reads patterns and degrees, never a
    // value lane, so it costs the same whatever lane the operands are
    // natively stored on.
    let a_mat = &ea.matrix;
    let ncols_out = eb.matrix.ncols() as f64;
    let mut costs = CostBreakdown {
        flops: flops_total,
        ..CostBreakdown::default()
    };
    let mut row_choices_differ = false;
    let mut first_choice: Option<u8> = None;
    let mut active_rows = 0usize;
    for i in 0..a_mat.nrows() {
        let mm = mask_deg[i] as usize;
        let u = a_deg[i] as usize;
        if u == 0 || (mm == 0 && !complemented) {
            continue;
        }
        let acols = a_mat.row_cols(i);
        let f: u64 = acols.iter().map(|&k| b_deg[k as usize] as u64).sum();
        if f == 0 {
            continue;
        }
        let (mm_f, u_f, f_f) = (mm as f64, u as f64, f as f64);
        // Output positions the pull algorithm visits on this row.
        let dots_f = if complemented { ncols_out - mm_f } else { mm_f };
        let msa = mm_f + f_f + cfg.msa_overhead;
        let mca = u_f * mm_f + f_f;
        let heap = mm_f + cfg.heap_factor * f_f * (1.0 + (u_f + 1.0).log2());
        let inner = cfg.inner_factor * dots_f * (u_f + avg_b_col_nnz);
        costs.msa += msa;
        costs.mca += mca;
        costs.heap += heap;
        costs.inner += inner;
        let (mut rc, mut row_min) = (0u8, msa);
        for (tag, cost) in [(1u8, mca), (2, heap), (3, inner)] {
            if cost < row_min {
                (rc, row_min) = (tag, cost);
            }
        }
        costs.hybrid += row_min;
        active_rows += 1;
        match first_choice {
            None => first_choice = Some(rc),
            Some(prev) if prev != rc => row_choices_differ = true,
            Some(_) => {}
        }
    }

    let candidates: &[(Choice, f64)] = &[
        (Choice::Fixed(Algorithm::Msa), costs.msa),
        (Choice::Fixed(Algorithm::Mca), costs.mca),
        (Choice::Fixed(Algorithm::Heap), costs.heap),
        (Choice::Fixed(Algorithm::Inner), costs.inner),
    ];
    let mut best = candidates[0];
    for &cand in &candidates[1..] {
        let supported = match cand.0 {
            Choice::Fixed(alg) => !complemented || alg.supports_complement(),
            Choice::Hybrid => !complemented,
        };
        if supported && cand.1 < best.1 {
            best = cand;
        }
    }
    // The hybrid only pays off when rows genuinely disagree about the best
    // family and the idealized mixed cost still clears the bar after its
    // real overheads: per-row choice/dispatch, and the CSC copy of `B` its
    // pull rows require (free only if already cached for this version).
    let mut choice = best.0;
    let csc_cost = if matches!(best.0, Choice::Fixed(Algorithm::Inner)) {
        0.0 // the best fixed plan would build it anyway
    } else {
        eb.matrix.nnz() as f64
    };
    costs.hybrid += HYBRID_ROW_DISPATCH * active_rows as f64 + csc_cost;
    if !complemented && row_choices_differ && costs.hybrid < HYBRID_MARGIN * best.1 {
        choice = Choice::Hybrid;
    }

    // Paper finding (Section 8): 1P beats 2P when the transient copy is
    // affordable. Plain masks bound the output by nnz(mask); complemented
    // masks have no such bound, so heavyweight complemented products take
    // the exact-allocation path.
    let phases = if complemented && flops_total > COMPLEMENTED_TWO_PHASE_FLOPS {
        Phases::Two
    } else {
        Phases::One
    };

    // Calibrated serial cutoff (ROADMAP follow-on from the persistent
    // pool): when the whole product's estimated work is below the cost of
    // waking the workers, dispatching the pool is pure overhead — run the
    // serial scratch driver on the calling thread instead.
    let serial = (flops_total as f64) < ctx.serial_cutoff_flops();

    Ok(Plan {
        choice,
        phases,
        complemented,
        serial,
        costs,
    })
}

/// Validate that a vector-operand multiply `v = m ⊙ (u·B)` is well-shaped.
pub(crate) fn validate_vec(
    ctx: &Context,
    mask: VectorHandle,
    u: VectorHandle,
    b: MatrixHandle,
) -> Result<(), SparseError> {
    let (mv, uv) = (ctx.vector(mask), ctx.vector(u));
    // Shape checks are structure-only: never materialize a lane view here.
    let b_shape = ctx.entry(b).matrix.shape();
    if uv.dim() != b_shape.0 {
        return Err(SparseError::DimMismatch {
            op: "engine plan (u·B)",
            lhs: (1, uv.dim()),
            rhs: b_shape,
        });
    }
    if mv.dim() != b_shape.1 {
        return Err(SparseError::DimMismatch {
            op: "engine plan (vector mask)",
            lhs: (1, mv.dim()),
            rhs: (1, b_shape.1),
        });
    }
    Ok(())
}

/// Cost-model planning for a vector-operand multiply `v = m ⊙ (u·B)` (or
/// `¬m ⊙` with `complemented`) — the frontier-expansion step of BFS-style
/// traversals, where Beamer's direction heuristic becomes a planner
/// decision:
///
/// * **push** ([`Algorithm::Msa`]) scatters the operand's rows; its work is
///   the exact flop count `Σ_{k ∈ u} deg_B(k)` plus the mask touch — the
///   "frontier's outgoing work" side of the heuristic;
/// * **pull** ([`Algorithm::Inner`]) runs one dot product per admissible
///   output position (`nnz(m)` plain, `ncols − nnz(m)` complemented — the
///   "unvisited count" side under the complemented visited mask of a BFS).
///
/// Single-row products never dispatch the pool, so the plan is always
/// [`Plan::serial`]; the phase discipline is irrelevant (rows are appended
/// exactly once) and fixed at [`Phases::One`].
pub(crate) fn plan_vec(
    ctx: &Context,
    mask: VectorHandle,
    complemented: bool,
    u: VectorHandle,
    b: MatrixHandle,
) -> Result<Plan, SparseError> {
    let (mv, uv) = (ctx.vector(mask), ctx.vector(u));
    let cfg = ctx.config();
    let b_deg = ctx.row_degrees(b);
    // Structure-only statistics — no lane view is materialized to plan.
    let bs = ctx.stats(b);

    let flops: u64 = uv.indices().iter().map(|&k| b_deg[k as usize] as u64).sum();
    let (mm, un) = (mv.nnz() as f64, uv.nnz() as f64);
    let ncols = bs.shape.1 as f64;
    let avg_b_col_nnz = if bs.shape.1 > 0 {
        bs.nnz as f64 / ncols
    } else {
        0.0
    };
    // Output positions the pull algorithm visits (Beamer's "unvisited"
    // term under a complemented visited mask).
    let dots = if complemented { ncols - mm } else { mm };
    let msa = mm + flops as f64 + cfg.msa_overhead;
    let inner = cfg.inner_factor * dots * (un + avg_b_col_nnz);

    let choice = if inner < msa && flops > 0 {
        Choice::Fixed(Algorithm::Inner)
    } else {
        Choice::Fixed(Algorithm::Msa)
    };
    Ok(Plan {
        choice,
        phases: Phases::One,
        complemented,
        serial: true,
        costs: CostBreakdown {
            msa,
            inner,
            hybrid: msa.min(inner),
            flops,
            ..CostBreakdown::default()
        },
    })
}
