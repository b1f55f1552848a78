//! Engine-planned single-source shortest paths.

use engine::{Context, MatrixHandle, SemiringKind, ValueVec};
use sparse::{Idx, SparseError, SparseVec};

/// Engine-planned single-source shortest paths on the exact `i64` lane
/// (Bellman-Ford over the tropical `(min, +)` semiring, edge weights
/// truncated to integers; must be non-negative).
///
/// Each round is one vector descriptor
/// `candidates = ¬∅ ⊙ (frontier · A)` on [`SemiringKind::MinPlus`] /
/// [`ValueKind::I64`](engine::ValueKind::I64) whose result is
/// **min-merged into the registered distance vector** by the engine's
/// accumulation monoid ([`engine::OpBuilder::min_into_vec`]) — accumulation chosen
/// independently of the multiply semiring, end to end on the integer lane.
/// The op delivers only the entries the merge changed, which are the
/// strictly improved vertices: that is the next frontier, as is. A round
/// costs the product and the merge; the distance vector is read once, at
/// the end.
///
/// Returns one distance per vertex, `-1` = unreachable; agrees with
/// [`crate::reference::sssp_reference`]. A non-square adjacency or an
/// out-of-range source is an error.
pub fn sssp_auto(ctx: &Context, adj: MatrixHandle, source: Idx) -> Result<Vec<i64>, SparseError> {
    let n = crate::check_sources("sssp", ctx.stats(adj).shape, &[source])?;

    // A complemented empty mask admits every output position.
    let mask = ctx.insert_vec(SparseVec::<i64>::empty(n));
    let start = SparseVec::try_new(n, vec![source], vec![0i64]).expect("single index");
    let dist = ctx.insert_vec(start.clone());
    let frontier = ctx.insert_vec(start);

    // Bellman-Ford settles in at most n rounds on any graph without a
    // negative-total-weight cycle; a round beyond that proves one exists
    // (truncation can make float weights negative), so bail out instead
    // of relaxing forever.
    let mut rounds = 0usize;
    let result = loop {
        rounds += 1;
        if rounds > n {
            break Err(SparseError::Unsupported(
                "sssp_auto requires non-negative weights (negative-weight \
                 cycle detected: distances kept improving after n rounds)",
            ));
        }
        let improved = ctx
            .vec_op(mask, frontier, adj)
            .complemented(true)
            .semiring(SemiringKind::MinPlus)
            .min_into_vec(dist)
            .run_out();
        let improved = match improved {
            Ok(out) => out.into_vec().expect("vector op yields a vector"),
            Err(e) => break Err(e),
        };
        if improved.nnz() == 0 {
            break Ok(());
        }
        ctx.update_vec(frontier, improved);
    };

    let out = result.map(|()| {
        let ValueVec::I64(final_dist) = ctx.vector(dist) else {
            unreachable!("dist stays on the i64 lane");
        };
        let mut dense = vec![-1i64; n];
        for (j, &d) in final_dist.iter() {
            dense[j as usize] = d;
        }
        dense
    });
    ctx.remove_vec(mask);
    ctx.remove_vec(dist);
    ctx.remove_vec(frontier);
    out
}
