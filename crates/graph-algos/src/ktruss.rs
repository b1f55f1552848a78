//! k-truss decomposition (paper Section 8.3).
//!
//! The k-truss of a graph is the maximal subgraph in which every edge is
//! supported by at least `k − 2` triangles. The matrix formulation computes
//! edge supports with one Masked SpGEMM per iteration —
//! `S = A ⊙ (A·A)` on `plus_pair`, where the mask is the current edge set
//! itself — prunes under-supported edges, and repeats until a fixed point.
//! The mask gets sparser every iteration, which is why pull-based schemes
//! shine here (paper Figure 14).

use std::borrow::Cow;

use engine::{Context, FromOpOutput, LaneValue, MatrixHandle, OpOutput, SemiringKind, ValueMat};
use sparse::{CscMatrix, CsrMatrix, PlusPair, SparseError};

use crate::scheme::Scheme;

/// Outcome of a k-truss computation.
#[derive(Clone, Debug)]
pub struct KtrussResult {
    /// The surviving edge set (symmetric pattern, unit values).
    pub truss: CsrMatrix<f64>,
    /// Masked-SpGEMM iterations until the fixed point.
    pub iterations: usize,
    /// Σ flops(A·A) over all iterations — numerator of the paper's GFLOPS
    /// metric for this benchmark.
    pub total_flops: u64,
}

/// The peel loop shared by [`ktruss`] and [`ktruss_auto`]: prune edges
/// supported by fewer than `k − 2` triangles until a fixed point.
///
/// `support(kept)` computes `S = E ⊙ (E·E)` on `plus_pair` over the
/// current edge set `E` — the initial one (`nnz` edges) when `kept` is
/// `None`, else the unit-valued `kept` set of the previous peel — and
/// returns it with flops(E·E). `finish` converts the surviving truss
/// to the result's `f64` representation.
fn peel<S, K>(
    k: usize,
    mut nnz: usize,
    finish: impl FnOnce(CsrMatrix<K>) -> CsrMatrix<f64>,
    mut support: impl FnMut(Option<CsrMatrix<K>>) -> Result<(CsrMatrix<S>, u64), SparseError>,
) -> Result<KtrussResult, SparseError>
where
    S: PartialOrd + From<u32> + Clone,
    K: LaneValue,
{
    if k < 3 {
        return Err(SparseError::Unsupported("k-truss needs k >= 3"));
    }
    // Support counts never reach u32::MAX (they are bounded by the vertex
    // count), so saturating keeps an oversized k's truss empty.
    let min_support = S::from(u32::try_from(k - 2).unwrap_or(u32::MAX));
    let mut kept = None;
    let mut iterations = 0usize;
    let mut total_flops = 0u64;
    loop {
        iterations += 1;
        let (support, flops) = support(kept.take())?;
        total_flops += flops;
        // Keep edges with enough support. `support` may lack entries for
        // edges with zero wedges — those are pruned implicitly.
        let next = support
            .filter(|_, _, s| *s >= min_support)
            .map(|_| K::lane_one());
        if next.nnz() == nnz || next.nnz() == 0 {
            return Ok(KtrussResult {
                truss: finish(next),
                iterations,
                total_flops,
            });
        }
        nnz = next.nnz();
        kept = Some(next);
    }
}

/// Compute the k-truss of a simple undirected graph with the given scheme.
///
/// `adj` must have a symmetric pattern (as produced by
/// [`graphs::to_undirected_simple`]); `k < 3` is an error.
pub fn ktruss(scheme: Scheme, adj: &CsrMatrix<f64>, k: usize) -> Result<KtrussResult, SparseError> {
    let sr = PlusPair::<f64, f64, u64>::new();
    let mut current = Cow::Borrowed(adj);
    peel(
        k,
        adj.nnz(),
        |m: CsrMatrix<f64>| m,
        |kept| {
            if let Some(kept) = kept {
                current = Cow::Owned(kept);
            }
            let csc = CscMatrix::from_csr(&current);
            let support = scheme.run(sr, &*current, false, &current, &current, &csc)?;
            Ok((support, masked_spgemm::flops(&current, &current)))
        },
    )
}

/// k-truss via engine-planned support computations.
///
/// `adj` must have a symmetric pattern. The shrinking edge set lives in a
/// scratch handle whose auxiliaries are invalidated by each peel —
/// [`Context::update_typed`] is exactly the mutation the cache is built
/// around. Plan reuse across peels comes from the context's
/// fingerprint-keyed plan cache: while the edge set stays in the same nnz
/// regime, each iteration's `Context::op(..)` serves the cached plan
/// instead of re-running the cost model (watch it with
/// [`Context::plan_cache_stats`]).
///
/// The peel runs on the adjacency's **native lane**: an `f64`-registered
/// graph counts in `f64` exactly as before, while natively `i64`/`bool`
/// graphs ([`Context::insert_typed`]) peel on the exact `i64` lane (the
/// `bool` lane has no counting semiring; its pattern is lifted to `i64`
/// once, never through an `f64` canonical). The surviving-edge patterns
/// are identical on every lane — support counts are small integers.
pub fn ktruss_auto(
    ctx: &Context,
    adj: MatrixHandle,
    k: usize,
) -> Result<KtrussResult, SparseError> {
    let to_f64 = |m: CsrMatrix<i64>| m.map_values(|v| v as f64);
    match ctx.value_mat(adj) {
        ValueMat::F64(m) => ktruss_auto_lane::<f64>(ctx, ValueMat::F64(m), k, |m| m),
        ValueMat::I64(m) => ktruss_auto_lane::<i64>(ctx, ValueMat::I64(m), k, to_f64),
        // One transient i64 lift of the pattern, owned by the peel's work
        // entry (a cached `i64_view` would pin the same Arc in both the aux
        // ledger and the registry — double-billed bytes and an eviction
        // that frees nothing), then the whole peel stays on the integer
        // lane.
        ValueMat::Bool(m) => {
            let lifted = ValueMat::from(m.map_values(i64::cast_from));
            ktruss_auto_lane::<i64>(ctx, lifted, k, to_f64)
        }
    }
}

/// [`ktruss_auto`]'s product on lane `T`: the edge set starts as `initial`
/// (registered zero-copy) and is replaced by each peel's kept set.
fn ktruss_auto_lane<T>(
    ctx: &Context,
    initial: ValueMat,
    k: usize,
    finish: impl FnOnce(CsrMatrix<T>) -> CsrMatrix<f64>,
) -> Result<KtrussResult, SparseError>
where
    T: LaneValue + PartialOrd + From<u32>,
    CsrMatrix<T>: FromOpOutput + Into<ValueMat>,
{
    let nnz = initial.nnz();
    let work = ctx.insert_typed(initial);
    let result = peel(k, nnz, finish, |kept| {
        if let Some(kept) = kept {
            ctx.update_typed(work, kept);
        }
        let flops = ctx.flops(work, work);
        // Support of every surviving edge; the algorithm is re-chosen as
        // the mask sparsifies (plan served from the fingerprint cache
        // while the regime holds).
        let support = ctx
            .op(work, work, work)
            .semiring(SemiringKind::PlusPair)
            .value(T::KIND)
            .run_out()
            .and_then(OpOutput::into_typed)?;
        Ok((support, flops))
    });
    ctx.remove(work);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ktruss_reference;
    use graphs::to_undirected_simple;
    use masked_spgemm::{Algorithm, Phases};

    fn check_all_schemes(adj: &CsrMatrix<f64>, k: usize) {
        let expected = ktruss_reference(adj, k);
        for s in Scheme::all_ours().into_iter().chain(Scheme::baselines()) {
            let got = ktruss(s, adj, k).unwrap();
            assert_eq!(
                got.truss.pattern(),
                expected.pattern(),
                "{} k={k}",
                s.label()
            );
        }
    }

    fn k4_plus_tail() -> CsrMatrix<f64> {
        // K4 on {0,1,2,3} plus a pendant edge 3-4: the 3-truss is K4.
        let mut coo = sparse::CooMatrix::new(5, 5);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    coo.push(i, j, 1.0);
                }
            }
        }
        coo.push(3, 4, 1.0);
        coo.push(4, 3, 1.0);
        coo.to_csr()
    }

    #[test]
    fn k4_tail_3truss_is_k4() {
        let adj = k4_plus_tail();
        let r = ktruss(Scheme::Ours(Algorithm::Msa, Phases::One), &adj, 3).unwrap();
        assert_eq!(r.truss.nnz(), 12); // K4 edges, both directions
        assert!(r.truss.get(3, 4).is_none());
        assert!(r.iterations >= 2);
        assert!(r.total_flops > 0);
    }

    #[test]
    fn k4_tail_5truss_is_empty() {
        // K4 edges have support 2, so the 5-truss (needs >= 3) is empty.
        let r = ktruss(
            Scheme::Ours(Algorithm::Hash, Phases::Two),
            &k4_plus_tail(),
            5,
        )
        .unwrap();
        assert_eq!(r.truss.nnz(), 0);
    }

    #[test]
    fn all_schemes_agree_on_random_graphs() {
        for seed in 0..2 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(40, 10.0, seed));
            check_all_schemes(&adj, 3);
            check_all_schemes(&adj, 4);
        }
    }

    #[test]
    fn triangle_free_graph_has_empty_truss() {
        // 4-cycle has no triangles.
        let mut coo = sparse::CooMatrix::new(4, 4);
        for (i, j) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            coo.push(i, j, 1.0);
            coo.push(j, i, 1.0);
        }
        let r = ktruss(Scheme::Ours(Algorithm::Mca, Phases::One), &coo.to_csr(), 3).unwrap();
        assert_eq!(r.truss.nnz(), 0);
    }

    #[test]
    fn rejects_small_k() {
        let adj = k4_plus_tail();
        assert!(ktruss(Scheme::SsSaxpy, &adj, 2).is_err());
        let ctx = Context::with_threads(1);
        let h = ctx.insert(adj);
        assert!(ktruss_auto(&ctx, h, 2).is_err());
    }
}
