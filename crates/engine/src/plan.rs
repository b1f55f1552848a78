//! Cost-model-based algorithm selection.
//!
//! The per-row cost model of [`masked_spgemm::hybrid`] (Section 9 future
//! work of the paper) is aggregated over whole operations here: the
//! planner sums each family's per-row estimate using `B`'s cached degree
//! vector, and takes the cheapest family the mask polarity supports. When
//! mixing families per row is estimated to beat every fixed family by a
//! margin, the plan is [`Choice::Hybrid`]; the core executor runs either
//! choice. The planner itself adds only the phase discipline and the
//! serial decision.
//!
//! There is one planner body. A vector product `m ⊙ (u·B)` is the one-row
//! matrix product, so it is planned as that row: every family is priced,
//! and the cheapest one runs — Beamer's push/pull direction choice is one
//! case of it, and the heap's k-way merge, which skips the `O(ncols)` scan,
//! wins the last levels of a BFS.
//!
//! Planning is `O(nnz(A) + nnz(B) + ncols)` on a plan-cache miss, and a
//! hit serves repeated planning over similar operands (k-truss peeling, BC
//! sweeps, BFS levels) without one cost-model pass.

use masked_spgemm::api::check_shapes;
use masked_spgemm::hybrid::{
    cheapest, col_counts, col_sum, row_costs, row_flops, CostTotals, RowChoice,
};
pub use masked_spgemm::Choice;
use masked_spgemm::{Algorithm, Phases};
use sparse::{Idx, SparseError};

use crate::context::{Context, MatrixHandle};

/// Estimated unit costs per algorithm family (the planner's working),
/// summed over the product's rows with work: a vector product's one row
/// prices all four families like any matrix row. A plan built with no cost
/// evaluation ([`Plan::fixed`]) holds all zeros.
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
    /// The per-row hybrid's estimate: its row choices plus per-row dispatch
    /// and, unless the best fixed family pulls too, the CSC copy of `B`. A
    /// one-row product's rows cannot disagree, so it never runs the hybrid;
    /// this is still its one-row estimate.
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
    /// ([`Context::set_serial_cutoff_flops`]), or a batch worker runs the
    /// op whole. A product with one output row — a vector product or a
    /// `1 × n` matrix product — plans serial at [`Phases::One`]: one row
    /// has no row parallelism to win. A serial plan's choice is never
    /// [`Choice::Hybrid`].
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

    /// Mark the plan serial: it runs on the calling thread and never
    /// dispatches the pool. A serial run executes one fixed family on
    /// reused scratch, so a per-row hybrid choice becomes the cheapest
    /// supported family of the plan's own costs (the rule the planner
    /// chose with): the plan names what runs.
    pub(crate) fn make_serial(&mut self) {
        self.serial = true;
        if self.choice == Choice::Hybrid {
            let c = &self.costs;
            let (family, _) = cheapest([c.msa, c.mca, c.heap, c.inner], self.complemented);
            self.choice = Choice::Fixed(algorithm(family));
        }
    }

    /// Whether running the plan reads `B` in CSC form: the pull family, or
    /// the per-row hybrid (whose pull rows do).
    pub(crate) fn pulls(&self) -> bool {
        matches!(
            self.choice,
            Choice::Fixed(Algorithm::Inner) | Choice::Hybrid
        )
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

/// The algorithm that runs a cost-model family.
fn algorithm(family: RowChoice) -> Algorithm {
    match family {
        RowChoice::Msa => Algorithm::Msa,
        RowChoice::Mca => Algorithm::Mca,
        RowChoice::Heap => Algorithm::Heap,
        RowChoice::Inner => Algorithm::Inner,
        RowChoice::Empty => unreachable!("the cheapest family is never Empty"),
    }
}

/// Flop count above which a complemented-mask multiply switches to
/// two-phase execution (the 1P transient copy has no mask-derived bound
/// under a complemented mask, so exact allocation wins for heavy products).
const COMPLEMENTED_TWO_PHASE_FLOPS: u64 = 1 << 22;

/// Validate that the operands are registered and form a well-shaped
/// masked multiply (shared by the planner, the cache lookup, and the
/// descriptor path; a vector operand is its `1 × dim` entry). Shape checks
/// are structure-only: no lane view is materialized here.
pub(crate) fn validate(
    ctx: &Context,
    mask: MatrixHandle,
    a: MatrixHandle,
    b: MatrixHandle,
) -> Result<(), SparseError> {
    let shape = |h| ctx.try_entry(h).map(|e| e.matrix.shape());
    check_shapes(shape(mask)?, shape(a)?, shape(b)?)
}

/// Cost-model planning proper. Operand shapes are the caller's
/// responsibility (`Context::plan` runs [`validate`] before the cache
/// lookup, which is the only path here).
///
/// A vector product is the one-row matrix product: its one row is the
/// mask's and `u`'s entries, planned by the same body as a matrix's rows.
pub(crate) fn plan(
    ctx: &Context,
    mask: MatrixHandle,
    a: MatrixHandle,
    b: MatrixHandle,
    complemented: bool,
) -> Plan {
    let (em, ea) = (ctx.entry(mask), ctx.entry(a));
    let rows = (0..ea.matrix.nrows()).map(|i| (em.matrix.row_cols(i), ea.matrix.row_cols(i)));
    plan_rows(ctx, rows, complemented, b)
}

/// The one planner body over a product's `(mask row, A row)` column lists.
///
/// Structure-only: the planner reads patterns and degrees, never a value
/// lane, so it costs the same whatever lane the operands are natively
/// stored on.
fn plan_rows<'r>(
    ctx: &Context,
    rows: impl ExactSizeIterator<Item = (&'r [Idx], &'r [Idx])>,
    complemented: bool,
    b: MatrixHandle,
) -> Plan {
    // A single output row has no row parallelism to win and no transient
    // copy worth a symbolic pass: it runs serially at one phase.
    let one_row = rows.len() == 1;
    let eb = ctx.entry(b);
    let cfg = ctx.config();
    let b_deg = ctx.row_degrees(b);
    // The pull is priced by the columns it visits; counting them is one
    // pass over B, the same order as the flop count.
    let b_col_nnz = col_counts(eb.matrix.colidx(), eb.matrix.ncols());
    let complement = complemented.then_some((eb.matrix.ncols(), eb.matrix.nnz()));

    // Sum the per-row model over the rows with work. Under a complemented
    // mask an empty mask row is the pull's costliest row, so it counts.
    let (mut totals, mut flops_total) = (CostTotals::default(), 0);
    for (mask_cols, a_cols) in rows {
        let f = row_flops(a_cols, |k| b_deg[k] as usize);
        flops_total += f;
        if f == 0 || (mask_cols.is_empty() && !complemented) {
            continue;
        }
        let (mm, u) = (mask_cols.len(), a_cols.len());
        let mask_col_nnz = col_sum(mask_cols, &b_col_nnz);
        totals.add_row(row_costs(&cfg, mm, u, f, mask_col_nnz, complement));
    }
    // One row chooses one family, so it never plans the hybrid.
    let fixed = cheapest(totals.families, complemented);
    let (hybrid, hybrid_wins) = totals.hybrid(fixed, eb.matrix.nnz(), complemented);
    let choice = if hybrid_wins {
        Choice::Hybrid
    } else {
        Choice::Fixed(algorithm(fixed.0))
    };

    // Paper finding (Section 8): 1P beats 2P when the transient copy is
    // affordable. Plain masks bound the output by nnz(mask); complemented
    // masks have no such bound, so heavyweight complemented products take
    // the exact-allocation path.
    let phases = if !one_row && complemented && flops_total > COMPLEMENTED_TWO_PHASE_FLOPS {
        Phases::Two
    } else {
        Phases::One
    };

    let [msa, mca, heap, inner] = totals.families;
    let mut plan = Plan {
        choice,
        phases,
        complemented,
        serial: false,
        costs: CostBreakdown {
            msa,
            mca,
            heap,
            inner,
            hybrid,
            flops: flops_total,
        },
    };
    // When the whole product's estimated work is below the cost of waking
    // the workers, dispatching the pool is pure overhead: run the drivers
    // on the calling thread instead.
    if one_row || (flops_total as f64) < ctx.serial_cutoff_flops() {
        plan.make_serial();
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{CooMatrix, SparseVec};

    /// The inputs of the pinned plans in `tests/engine_context.rs`.
    fn pinned_plans(ctx: &Context) -> Vec<Plan> {
        let hub = {
            let mut coo = CooMatrix::new(64, 64);
            for j in 1..64u32 {
                coo.push(0, j, 1.0);
                coo.push(j, 0, 1.0);
            }
            for j in 1..63u32 {
                coo.push(j, j + 1, 1.0);
                coo.push(j + 1, j, 1.0);
            }
            ctx.insert(coo.to_csr())
        };
        let bool_vec = |dim: usize, idx: Vec<u32>| {
            let n = idx.len();
            ctx.insert_vec(SparseVec::try_new(dim, idx, vec![true; n]).unwrap())
        };
        let rmat = ctx.insert(graphs::rmat(8, graphs::RmatParams::default(), 1));
        let dense_mask = ctx.insert(graphs::erdos_renyi(256, 64.0, 5));
        let heavy = ctx.insert(graphs::erdos_renyi(2048, 64.0, 3));
        let sparse_mask = ctx.insert(graphs::erdos_renyi(2048, 2.0, 4));
        let grid = ctx.insert(graphs::grid2d(16, 16));
        let source = bool_vec(256, vec![17]);
        let wide_frontier = bool_vec(256, (0..256).step_by(2).collect());
        let nearly_all = bool_vec(256, (0..250).collect());
        vec![
            ctx.plan(dense_mask, false, rmat, rmat).unwrap(),
            ctx.plan(hub, false, hub, hub).unwrap(),
            ctx.plan(sparse_mask, true, heavy, heavy).unwrap(),
            ctx.vec_op(source, source, grid)
                .complemented(true)
                .plan()
                .unwrap(),
            ctx.vec_op(nearly_all, wide_frontier, grid)
                .complemented(true)
                .plan()
                .unwrap(),
            ctx.vec_op(source, wide_frontier, grid).plan().unwrap(),
        ]
    }

    /// A fixed plan's choice, and the choice of a plan marked serial, is
    /// the cheapest supported family of the plan's own estimates — the
    /// one rule, so planning and serial runs cannot drift apart.
    #[test]
    fn make_serial_fixes_the_cheapest_family_of_the_plans_costs() {
        let ctx = Context::with_threads(1);
        let plans = pinned_plans(&ctx);
        assert!(plans.iter().any(|p| p.choice == Choice::Hybrid));
        for plan in plans {
            let c = &plan.costs;
            let (family, _) = cheapest([c.msa, c.mca, c.heap, c.inner], plan.complemented);
            let cheapest_fixed = Choice::Fixed(algorithm(family));
            let label = plan.label();
            if plan.choice != Choice::Hybrid {
                assert_eq!(plan.choice, cheapest_fixed, "{label}: {:?}", plan.costs);
            }
            let mut serial = plan;
            serial.make_serial();
            assert!(serial.serial);
            assert_eq!(serial.pulls(), family == RowChoice::Inner, "{label}");
            assert_eq!(
                serial.choice, cheapest_fixed,
                "{label} serial: {:?}",
                plan.costs
            );
        }
    }
}
