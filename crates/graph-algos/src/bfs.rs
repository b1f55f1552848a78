//! Direction-optimized breadth-first search on masked SpGEVM.
//!
//! Masking entered sparse linear algebra through exactly this computation
//! (paper Section 4, citing Beamer's direction-optimization and
//! Yang et al.'s push-pull): the frontier expands as
//! `next = ¬visited ⊙ (frontier · A)`, where the complemented mask *is* the
//! "don't rediscover visited vertices" filter. **Push** evaluates that with
//! a row-scatter accumulator (MSA); **pull** evaluates it with one dot
//! product per unvisited vertex (Inner); the **auto** mode picks per level.
//! [`bfs`] switches with Beamer's work heuristic; [`bfs_auto`] asks the
//! engine's planner, which prices every family on the level's one row and
//! may pick any push family or the pull. No push family scans the visited
//! set on a thin level: the MSA probes the visited mask once per vertex
//! the frontier reaches instead of stamping all of it, and the heap and
//! hash gallop their mask cursors over it, so a late level costs about
//! what its frontier touches. Only the pull visits every vertex.
//!
//! One level loop serves both [`bfs`] (direct `masked_spgevm` calls) and
//! [`bfs_auto`] (engine-planned vector descriptors); they differ in how a
//! level's product is run, its direction picked, and its visited set kept.
//! [`bfs`] keeps an index list and unions each level into it. In
//! [`bfs_auto`] the engine keeps it: each level accumulates into the
//! visited vector it is masked by, and the entries that merge changed are
//! exactly the next frontier, so the glue around a level does work in
//! proportion to the frontier, not to the visited set.

use engine::{Choice, Context, MatrixHandle, SemiringKind, ValueKind, ValueVec};
use sparse::semiring::BoolAndOr;
use sparse::{CscMatrix, CsrMatrix, Idx, SparseError, SparseVec};

use masked_spgemm::{masked_spgevm, masked_spgevm_csc, Algorithm};

/// Traversal direction policy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Always scatter from the frontier (masked MSA SpGEVM).
    Push,
    /// Always gather into unvisited vertices (masked Inner SpGEVM).
    Pull,
    /// Pick per level. [`fn@bfs`] pulls when the frontier's outgoing work
    /// exceeds the number of unvisited vertices and pushes otherwise;
    /// [`bfs_auto`] runs whichever family the planner picks.
    Auto,
}

/// Result of a BFS traversal.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Level per vertex; `-1` = unreached.
    pub levels: Vec<i64>,
    /// Number of expansion steps taken.
    pub depth: usize,
    /// Direction actually used at each level (interesting for `Auto`):
    /// [`Direction::Pull`] for the pull (Inner), [`Direction::Push`] for
    /// every push family.
    pub directions: Vec<Direction>,
}

/// Sorted-merge union of two ascending index lists.
fn union_sorted(a: &[Idx], b: &[Idx]) -> Vec<Idx> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut p, mut q) = (0usize, 0usize);
    while p < a.len() || q < b.len() {
        if q >= b.len() || (p < a.len() && a[p] < b[q]) {
            out.push(a[p]);
            p += 1;
        } else if p >= a.len() || b[q] < a[p] {
            out.push(b[q]);
            q += 1;
        } else {
            out.push(a[p]);
            p += 1;
            q += 1;
        }
    }
    out
}

/// The level loop shared by [`bfs`] and [`bfs_auto`].
///
/// `expand(next)` runs one level's `¬visited ⊙ (frontier · A)`, writes
/// the new frontier's indices into `next`, and reports whether it pulled.
/// The closure owns its frontier and visited set: both are `{source}` at
/// the first level, and it adds each level's `next` to its visited set.
/// The caller has checked that `source` is one of the `n` vertices.
fn traverse(
    n: usize,
    source: Idx,
    mut expand: impl FnMut(&mut Vec<Idx>) -> Result<bool, SparseError>,
) -> Result<BfsResult, SparseError> {
    let mut levels = vec![-1i64; n];
    levels[source as usize] = 0;
    let mut next = Vec::new();
    let mut depth = 0usize;
    let mut directions = Vec::new();
    loop {
        let pulled = expand(&mut next)?;
        directions.push(if pulled {
            Direction::Pull
        } else {
            Direction::Push
        });
        if next.is_empty() {
            break;
        }
        depth += 1;
        for &v in &next {
            levels[v as usize] = depth as i64;
        }
    }
    Ok(BfsResult {
        levels,
        depth,
        directions,
    })
}

/// The vector over the ascending indices `idx` with every value `one` —
/// frontiers and visited masks, where only the pattern carries meaning.
fn unit_vec<T: Clone>(n: usize, idx: &[Idx], one: T) -> SparseVec<T> {
    SparseVec::try_new(n, idx.to_vec(), vec![one; idx.len()]).expect("ascending indices")
}

/// [`unit_vec`] on the given lane (`true` / `1` / `1.0`).
fn lane_unit_vec(n: usize, idx: &[Idx], value: ValueKind) -> ValueVec {
    match value {
        ValueKind::Bool => unit_vec(n, idx, true).into(),
        ValueKind::I64 => unit_vec(n, idx, 1i64).into(),
        ValueKind::F64 => unit_vec(n, idx, 1.0f64).into(),
    }
}

/// BFS from `source` over the (symmetric-pattern) adjacency matrix.
///
/// Panics if `adj` is not square or `source` is not one of its vertices.
pub fn bfs(adj: &CsrMatrix<f64>, source: Idx, policy: Direction) -> BfsResult {
    let n = adj.nrows();
    assert_eq!(adj.ncols(), n, "adjacency must be square");
    assert!((source as usize) < n, "source out of range");
    let adj_bool = adj.map(|_| true);
    let adj_csc = CscMatrix::from_csr(&adj_bool);
    let avg_deg = adj.nnz() as f64 / n as f64;
    let mut frontier = None;
    let mut visited: Vec<Idx> = vec![source];
    traverse(n, source, |next| {
        let mask = unit_vec(n, &visited, ());
        let current = frontier
            .take()
            .unwrap_or_else(|| unit_vec(n, &visited, true));
        let pull = match policy {
            Direction::Push => false,
            Direction::Pull => true,
            Direction::Auto => current.nnz() as f64 * avg_deg > (n - visited.len()) as f64,
        };
        let expanded = if pull {
            masked_spgevm_csc(true, BoolAndOr, &mask, &current, &adj_csc)?
        } else {
            masked_spgevm(Algorithm::Msa, true, BoolAndOr, &mask, &current, &adj_bool)?
        };
        next.clear();
        next.extend_from_slice(expanded.indices());
        visited = union_sorted(&visited, next);
        frontier = Some(expanded);
        Ok(pull)
    })
    .expect("dims agree")
}

/// Engine-planned direction-optimized BFS on the `bool` lane.
///
/// Every level is one [`engine::Operands::VecMat`] descriptor —
/// `next = ¬visited ⊙ (frontier · A)` on [`SemiringKind::BoolAndOr`],
/// accumulated into `visited` ([`engine::OpBuilder::accumulate_into_vec`])
/// — planned and executed by the [`Context`]. The product is disjoint from
/// the visited set it is masked by, so the entries the merge changed, which
/// the op delivers, are exactly `next`, and the engine leaves `visited` as
/// the union: the glue around a level does no work over the visited set.
/// The frontier and visited sets live in the context as
/// [`engine::VectorHandle`]s, the boolean adjacency view and its CSC form
/// come from the aux cache (built once, reused across levels *and*
/// traversals), and with [`Direction::Auto`] each level runs the
/// family the planner picks for its one row — Beamer's direction choice as
/// a plan decision rather than hand-rolled caller logic, widened to every
/// family: MSA, MCA (never under this complemented mask), the heap, or the
/// pull. [`BfsResult::directions`] records [`Direction::Pull`] only for the
/// pull. No direct `masked_spgevm` calls.
///
/// Levels are identical to [`fn@crate::bfs`] and [`crate::bfs::bfs_reference`].
pub fn bfs_auto(
    ctx: &Context,
    adj: MatrixHandle,
    source: Idx,
    policy: Direction,
) -> Result<BfsResult, SparseError> {
    bfs_auto_with_value(ctx, adj, source, policy, ValueKind::Bool)
}

/// [`bfs_auto`] on an explicit value lane.
///
/// The expansion runs on [`SemiringKind::BoolAndOr`] for
/// [`ValueKind::Bool`] and [`SemiringKind::PlusPair`] for the numeric
/// lanes — the reached *pattern* (and therefore every level set) is
/// identical on all lanes, which is what the cross-lane equivalence tests
/// pin down.
pub fn bfs_auto_with_value(
    ctx: &Context,
    adj: MatrixHandle,
    source: Idx,
    policy: Direction,
    value: ValueKind,
) -> Result<BfsResult, SparseError> {
    let n = crate::check_sources("bfs", ctx.stats(adj).shape, &[source])?;
    let semiring = match value {
        ValueKind::Bool => SemiringKind::BoolAndOr,
        _ => SemiringKind::PlusPair,
    };
    let start = lane_unit_vec(n, &[source], value);
    let (visited, frontier) = (ctx.insert_vec(start.clone()), ctx.insert_vec(start));
    let result = traverse(n, source, |next| {
        let op = ctx
            .vec_op(visited, frontier, adj)
            .complemented(true)
            .semiring(semiring)
            .value(value)
            .accumulate_into_vec(visited);
        // One plan resolution per level: forced policies know their
        // algorithm outright, and Auto consults the planner once, then
        // pins its choice so execution does not re-resolve (cache hits
        // stay an honest measure of cross-level/cross-traversal reuse).
        let algorithm = match policy {
            Direction::Push => Algorithm::Msa,
            Direction::Pull => Algorithm::Inner,
            Direction::Auto => match op.plan()?.choice {
                Choice::Fixed(alg) => alg,
                // Unreachable by construction: a one-row product chooses
                // one family, so it never plans the per-row hybrid.
                Choice::Hybrid => Algorithm::Msa,
            },
        };
        let expanded = op
            .algorithm(algorithm)
            .run_out()?
            .into_vec()
            .expect("vector op yields a vector");
        next.clear();
        next.extend_from_slice(expanded.indices());
        if !next.is_empty() {
            ctx.update_vec(frontier, expanded);
        }
        Ok(algorithm == Algorithm::Inner)
    });
    ctx.remove_vec(visited);
    ctx.remove_vec(frontier);
    result
}

/// Serial reference BFS (queue-based), for tests.
pub fn bfs_reference(adj: &CsrMatrix<f64>, source: Idx) -> Vec<i64> {
    let n = adj.nrows();
    let mut levels = vec![-1i64; n];
    levels[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source as usize]);
    while let Some(v) = queue.pop_front() {
        let (nbrs, _) = adj.row(v);
        for &w in nbrs {
            if levels[w as usize] < 0 {
                levels[w as usize] = levels[v] + 1;
                queue.push_back(w as usize);
            }
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::to_undirected_simple;

    #[test]
    fn union_merges() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[1]), vec![1]);
        assert_eq!(union_sorted(&[1], &[]), vec![1]);
    }

    #[test]
    fn all_policies_match_reference() {
        for seed in 0..3 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(200, 3.0, seed));
            let expect = bfs_reference(&adj, 0);
            for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
                let got = bfs(&adj, 0, policy);
                assert_eq!(got.levels, expect, "seed={seed} {policy:?}");
            }
        }
    }

    #[test]
    fn auto_switches_direction_on_expander() {
        // On a well-connected random graph the frontier explodes by level
        // 2-3, which should trip the pull heuristic at least once.
        let adj = to_undirected_simple(&graphs::erdos_renyi(2000, 8.0, 7));
        let r = bfs(&adj, 0, Direction::Auto);
        assert!(
            r.directions.contains(&Direction::Pull),
            "never pulled: {:?}",
            r.directions
        );
        assert!(
            r.directions.contains(&Direction::Push),
            "never pushed: {:?}",
            r.directions
        );
        assert_eq!(r.levels, bfs_reference(&adj, 0));
    }

    #[test]
    fn disconnected_component_unreached() {
        let mut coo = sparse::CooMatrix::new(5, 5);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let adj = coo.to_csr();
        let r = bfs(&adj, 0, Direction::Auto);
        assert_eq!(r.levels, vec![0, 1, -1, -1, -1]);
        assert_eq!(r.depth, 1);
    }

    #[test]
    fn path_graph_depth() {
        let mut coo = sparse::CooMatrix::new(6, 6);
        for i in 0..5u32 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        let r = bfs(&coo.to_csr(), 0, Direction::Push);
        assert_eq!(r.depth, 5);
        assert_eq!(r.levels, vec![0, 1, 2, 3, 4, 5]);
    }
}
