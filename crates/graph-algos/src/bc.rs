//! Batch (multi-source) Betweenness Centrality (paper Section 8.4).
//!
//! Brandes' two-stage algorithm \[8\] expressed over matrices, processing a
//! batch of sources at once as in the GraphBLAS C API's
//! `BC_batch` reference:
//!
//! * **forward**: a batch BFS where the frontier `F` (batch × n, values =
//!   shortest-path counts σ) expands as `F ← ¬P ⊙ (F·A)` — a
//!   **complemented**-mask SpGEMM on `plus_times` (`P` accumulates visited
//!   vertices' path counts, and the complement keeps the search from
//!   rediscovering them);
//! * **backward**: dependencies flow down level by level with a
//!   **plain**-mask SpGEMM, `W ← S_{d−1} ⊙ (T·Aᵀ)`, where `T` holds
//!   `(1 + δ)/σ` on the level-`d` pattern.
//!
//! Both mask polarities are exercised, which is why MCA (no complement
//! support) sits out this benchmark in the paper — requesting it here
//! returns an error from the forward sweep.
//!
//! One function holds the algorithm; [`betweenness_centrality`] and
//! [`betweenness_centrality_auto`] only supply its two masked products.

use engine::{Context, MatrixHandle};
use rayon::prelude::*;
use sparse::ewise::{assemble_rows, ewise_mult, ewise_union};
use sparse::transpose::transpose;
use sparse::{CscMatrix, CsrMatrix, Idx, PlusTimes, SparseError};

use crate::scheme::Scheme;

/// Outcome of a batch betweenness-centrality run.
#[derive(Clone, Debug)]
pub struct BcResult {
    /// Per-vertex centrality, summed over the batch's sources
    /// (unnormalized, endpoints excluded, as in Brandes).
    pub centrality: Vec<f64>,
    /// BFS depth reached (number of forward Masked SpGEMM calls).
    pub depth: usize,
    /// Number of sources processed.
    pub batch: usize,
}

/// `(1 + delta) ./ sigma` evaluated on the pattern of `sigma`
/// (`delta` entries default to 0 where absent) — the backward sweep's `T`.
fn one_plus_delta_over_sigma(sigma: &CsrMatrix<f64>, delta: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    assert_eq!(sigma.shape(), delta.shape());
    let rows: Vec<(Vec<Idx>, Vec<f64>)> = (0..sigma.nrows())
        .into_par_iter()
        .map(|i| {
            let (sc, sv) = sigma.row(i);
            let (dc, dv) = delta.row(i);
            let mut cols = Vec::with_capacity(sc.len());
            let mut vals = Vec::with_capacity(sc.len());
            let mut q = 0usize;
            for (p, &j) in sc.iter().enumerate() {
                while q < dc.len() && dc[q] < j {
                    q += 1;
                }
                let d = if q < dc.len() && dc[q] == j {
                    dv[q]
                } else {
                    0.0
                };
                cols.push(j);
                vals.push((1.0 + d) / sv[p]);
            }
            (cols, vals)
        })
        .collect();
    assemble_rows(sigma.nrows(), sigma.ncols(), rows)
}

/// Brandes' algorithm over a batch of `sources` on an adjacency of the
/// given `shape`, with the masked products supplied by the caller:
///
/// * `forward(paths, frontier)` = `¬paths ⊙ (frontier · A)` on
///   `plus_times` — the next level's path counts;
/// * `backward(sigma_prev, t)` = `sigma_prev ⊙ (t · Aᵀ)` on `plus_times`.
fn brandes(
    shape: (usize, usize),
    sources: &[Idx],
    mut forward: impl FnMut(&CsrMatrix<f64>, &CsrMatrix<f64>) -> Result<CsrMatrix<f64>, SparseError>,
    mut backward: impl FnMut(&CsrMatrix<f64>, CsrMatrix<f64>) -> Result<CsrMatrix<f64>, SparseError>,
) -> Result<BcResult, SparseError> {
    if sources.is_empty() {
        return Err(SparseError::Unsupported("empty source batch"));
    }
    let n = crate::check_sources("betweenness centrality", shape, sources)?;
    let s = sources.len();

    // Forward sweep: `levels[d]` holds the path counts of the vertices
    // first reached at depth `d`; the last level is the frontier.
    let mut paths = CsrMatrix::from_rows(s, n, sources.iter().map(|&v| vec![(v, 1.0f64)]))?;
    let mut levels = vec![paths.clone()];
    loop {
        let next = forward(&paths, levels.last().expect("the source level"))?;
        if next.nnz() == 0 {
            break;
        }
        // Frontier and visited sets are disjoint by construction of the
        // complemented mask, so the union never merges values.
        paths = ewise_union(
            &paths,
            &next,
            |_, _| unreachable!("disjoint"),
            |x| *x,
            |y| *y,
        );
        levels.push(next);
    }

    // Backward sweep.
    let mut delta = CsrMatrix::<f64>::empty(s, n);
    for d in (1..levels.len()).rev() {
        let sigma_prev = &levels[d - 1];
        let t = one_plus_delta_over_sigma(&levels[d], &delta);
        let w = backward(sigma_prev, t)?;
        let contrib = ewise_mult(&w, sigma_prev, |wv, sv| wv * sv);
        delta = ewise_union(&delta, &contrib, |x, y| x + y, |x| *x, |y| *y);
    }

    // Aggregate, excluding each source's own row entry.
    let mut centrality = vec![0.0f64; n];
    for (r, &src) in sources.iter().enumerate() {
        let (cols, vals) = delta.row(r);
        for (&j, &v) in cols.iter().zip(vals) {
            if j != src {
                centrality[j as usize] += v;
            }
        }
    }
    Ok(BcResult {
        centrality,
        depth: levels.len() - 1,
        batch: s,
    })
}

/// Batch betweenness centrality from the given `sources`, using `scheme`
/// for every Masked SpGEMM. `adj` is the (directed or undirected, simple)
/// adjacency matrix with unit values.
pub fn betweenness_centrality(
    scheme: Scheme,
    adj: &CsrMatrix<f64>,
    sources: &[Idx],
) -> Result<BcResult, SparseError> {
    let sr = PlusTimes::<f64>::new();
    let adj_csc = CscMatrix::from_csr(adj);
    let adj_t = transpose(adj);
    let adj_t_csc = CscMatrix::from_csr(&adj_t);
    brandes(
        adj.shape(),
        sources,
        |paths, frontier| scheme.run(sr, paths, true, frontier, adj, &adj_csc),
        |sigma_prev, t| scheme.run(sr, sigma_prev, false, &t, &adj_t, &adj_t_csc),
    )
}

/// Register `m` in a scratch `slot` on first use and replace it after.
fn stage(ctx: &Context, slot: &mut Option<MatrixHandle>, m: CsrMatrix<f64>) -> MatrixHandle {
    match *slot {
        Some(h) => {
            ctx.update(h, m);
            h
        }
        None => *slot.insert(ctx.insert(m)),
    }
}

/// Batch betweenness centrality with engine-planned multiplies.
///
/// The adjacency's transpose and any CSC copies are cached on the context,
/// so repeated calls (and the per-level loop) stop paying conversion costs.
/// The products' operands live in four scratch handles, each registered
/// once and removed before returning.
pub fn betweenness_centrality_auto(
    ctx: &Context,
    adj: MatrixHandle,
    sources: &[Idx],
) -> Result<BcResult, SparseError> {
    let [mut paths_h, mut frontier_h, mut sigma_h, mut t_h] = [None; 4];
    // Owned by the adjacency's entry: reused across calls, invalidated
    // with it. Not removed here.
    let mut adj_t = None;
    let result = brandes(
        ctx.stats(adj).shape,
        sources,
        |paths, frontier| {
            let p = stage(ctx, &mut paths_h, paths.clone());
            let f = stage(ctx, &mut frontier_h, frontier.clone());
            ctx.op(p, f, adj).complemented(true).run()
        },
        |sigma_prev, t| {
            let t = stage(ctx, &mut t_h, t);
            let sigma = stage(ctx, &mut sigma_h, sigma_prev.clone());
            let at = *adj_t.get_or_insert_with(|| ctx.transpose_handle(adj));
            ctx.op(sigma, t, at).run()
        },
    );
    for h in [paths_h, frontier_h, sigma_h, t_h].into_iter().flatten() {
        ctx.remove(h);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::brandes_reference;
    use graphs::to_undirected_simple;
    use masked_spgemm::{Algorithm, Phases};

    fn assert_close(a: &[f64], b: &[f64], label: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "{label}: vertex {i}: {x} vs {y}");
        }
    }

    fn path_graph(n: usize) -> CsrMatrix<f64> {
        let mut coo = sparse::CooMatrix::new(n, n);
        for i in 0..(n - 1) as u32 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn path_graph_single_source() {
        // Path 0-1-2-3, source 0: delta(1)=2 (paths to 2,3 pass through 1),
        // delta(2)=1, delta(3)=0.
        let adj = path_graph(4);
        let r =
            betweenness_centrality(Scheme::Ours(Algorithm::Msa, Phases::One), &adj, &[0]).unwrap();
        assert_eq!(r.depth, 3);
        assert_close(&r.centrality, &[0.0, 2.0, 1.0, 0.0], "path");
    }

    #[test]
    fn star_center_is_on_all_paths() {
        // Star with center 0 and leaves 1..=4; sources = all vertices.
        let mut coo = sparse::CooMatrix::new(5, 5);
        for l in 1..5u32 {
            coo.push(0, l, 1.0);
            coo.push(l, 0, 1.0);
        }
        let adj = coo.to_csr();
        let sources: Vec<Idx> = (0..5).collect();
        let r = betweenness_centrality(Scheme::SsSaxpy, &adj, &sources).unwrap();
        let expect = brandes_reference(&adj, &sources);
        assert_close(&r.centrality, &expect, "star");
        // Center lies on paths between each ordered leaf pair: 4*3 = 12.
        assert!((r.centrality[0] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn schemes_agree_with_brandes_on_random_graphs() {
        for seed in 0..2 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(30, 4.0, seed));
            let sources: Vec<Idx> = vec![0, 3, 7, 11];
            let expect = brandes_reference(&adj, &sources);
            for s in [
                Scheme::Ours(Algorithm::Msa, Phases::One),
                Scheme::Ours(Algorithm::Msa, Phases::Two),
                Scheme::Ours(Algorithm::Hash, Phases::One),
                Scheme::Ours(Algorithm::Heap, Phases::One),
                Scheme::Ours(Algorithm::HeapDot, Phases::Two),
                Scheme::Ours(Algorithm::Inner, Phases::One),
                Scheme::SsDot,
                Scheme::SsSaxpy,
            ] {
                let r = betweenness_centrality(s, &adj, &sources).unwrap();
                assert_close(
                    &r.centrality,
                    &expect,
                    &format!("{} seed={seed}", s.label()),
                );
            }
        }
    }

    #[test]
    fn mca_is_rejected() {
        let adj = path_graph(3);
        let r = betweenness_centrality(Scheme::Ours(Algorithm::Mca, Phases::One), &adj, &[0]);
        assert!(r.is_err());
    }

    #[test]
    fn disconnected_vertices_unreached() {
        // Two components: 0-1 and 2-3; source 0 never reaches 2,3.
        let mut coo = sparse::CooMatrix::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let r = betweenness_centrality(
            Scheme::Ours(Algorithm::Hash, Phases::One),
            &coo.to_csr(),
            &[0],
        )
        .unwrap();
        assert_eq!(r.centrality, vec![0.0; 4]);
        assert_eq!(r.depth, 1);
    }
}
