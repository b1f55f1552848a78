//! Tests of the engine adapters (`*_auto`): each against the serial
//! references and its direct adapter, plan and aux-cache reuse across
//! calls, and the registry hygiene every adapter promises.

use engine::{Context, ValueKind};
use sparse::{Idx, SparseError};

use crate::{
    betweenness_centrality_auto, bfs_auto, bfs_auto_with_value, ktruss_auto,
    masked_cosine_similarity_auto, sssp_auto, triangle_count_auto, Direction,
};

mod tests {
    use super::*;
    use crate::reference::{brandes_reference, ktruss_reference, triangle_count_reference};
    use crate::{
        betweenness_centrality, ktruss, masked_cosine_similarity, prepare_triangle_input, Scheme,
    };
    use graphs::to_undirected_simple;
    use masked_spgemm::{Algorithm, Phases};
    use sparse::CscMatrix;

    #[test]
    fn triangle_auto_matches_reference_and_direct() {
        let ctx = Context::with_threads(2);
        for seed in 0..3 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(80, 8.0, seed));
            let l = prepare_triangle_input(&adj);
            let lc = CscMatrix::from_csr(&l);
            let h = ctx.insert(l.clone());
            let expect = triangle_count_reference(&adj);
            assert_eq!(triangle_count_auto(&ctx, h).unwrap(), expect, "seed {seed}");
            assert_eq!(
                crate::triangle_count(Scheme::Ours(Algorithm::Msa, Phases::One), &l, &lc).unwrap(),
                expect
            );
            ctx.remove(h);
        }
    }

    #[test]
    fn ktruss_auto_matches_reference_and_scheme_path() {
        let ctx = Context::with_threads(2);
        for seed in 0..2 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(50, 9.0, seed));
            let h = ctx.insert(adj.clone());
            for k in [3usize, 4] {
                let auto = ktruss_auto(&ctx, h, k).unwrap();
                let expect = ktruss_reference(&adj, k);
                assert_eq!(auto.truss.pattern(), expect.pattern(), "seed {seed} k={k}");
                let direct = ktruss(Scheme::Ours(Algorithm::Msa, Phases::One), &adj, k).unwrap();
                assert_eq!(auto.truss, direct.truss);
                assert_eq!(auto.iterations, direct.iterations);
                assert_eq!(auto.total_flops, direct.total_flops);
            }
            ctx.remove(h);
        }
    }

    #[test]
    fn ktruss_auto_reuses_plans_across_peels() {
        // The fingerprint-keyed plan cache must serve at least one peel
        // iteration from cache when the edge set shrinks gradually.
        let ctx = Context::with_threads(2);
        let adj = to_undirected_simple(&graphs::erdos_renyi(96, 10.0, 5));
        let h = ctx.insert(adj);
        let before = ctx.plan_cache_stats();
        let r = ktruss_auto(&ctx, h, 4).unwrap();
        let after = ctx.plan_cache_stats();
        assert!(r.iterations >= 2, "want a multi-iteration peel");
        assert!(
            after.hits > before.hits,
            "no plan reuse across {} peels: {before:?} -> {after:?}",
            r.iterations
        );
    }

    #[test]
    fn bc_auto_matches_brandes_and_direct() {
        let ctx = Context::with_threads(2);
        for seed in 0..2 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(40, 4.0, seed));
            let sources: Vec<Idx> = vec![0, 5, 9];
            let h = ctx.insert(adj.clone());
            let auto = betweenness_centrality_auto(&ctx, h, &sources).unwrap();
            let expect = brandes_reference(&adj, &sources);
            for (v, (x, y)) in auto.centrality.iter().zip(&expect).enumerate() {
                assert!((x - y).abs() < 1e-9, "seed {seed} vertex {v}: {x} vs {y}");
            }
            let direct =
                betweenness_centrality(Scheme::Ours(Algorithm::Msa, Phases::One), &adj, &sources)
                    .unwrap();
            assert_eq!(auto.depth, direct.depth);
            ctx.remove(h);
        }
    }

    #[test]
    fn similarity_auto_matches_direct() {
        let ctx = Context::with_threads(2);
        let a = graphs::erdos_renyi(40, 6.0, 3);
        let m = graphs::erdos_renyi(40, 10.0, 4);
        let direct =
            masked_cosine_similarity(Scheme::Ours(Algorithm::Msa, Phases::One), &m.pattern(), &a)
                .unwrap();
        let (ha, hm) = (ctx.insert(a), ctx.insert(m));
        let auto = masked_cosine_similarity_auto(&ctx, hm, ha).unwrap();
        assert_eq!(auto, direct);
    }

    #[test]
    fn bfs_auto_matches_reference_on_all_policies_and_lanes() {
        use crate::bfs::bfs_reference;
        let ctx = Context::with_threads(2);
        for seed in 0..2 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(150, 4.0, seed));
            let expect = bfs_reference(&adj, 0);
            let h = ctx.insert(adj);
            for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
                for value in ValueKind::ALL {
                    let got = bfs_auto_with_value(&ctx, h, 0, policy, value).unwrap();
                    assert_eq!(got.levels, expect, "seed={seed} {policy:?} {value:?}");
                }
            }
            let bool_lane = bfs_auto(&ctx, h, 0, Direction::Auto).unwrap();
            assert_eq!(bool_lane.levels, expect);
            ctx.remove(h);
        }
    }

    /// The traverse workload's shape: a grid is deep, so a traversal runs
    /// dozens of levels (or relaxation rounds) with a thin frontier against
    /// a growing visited set, the case the shallow random graphs above
    /// never reach.
    #[test]
    fn long_diameter_grid_traversals_match_references() {
        use crate::bfs::bfs_reference;
        use crate::reference::sssp_reference;
        let (side, corner, middle) = (48usize, 0, (24 * 48 + 24) as Idx);
        let grid = graphs::grid2d(side, side);
        let ctx = Context::with_threads(2);
        let h = ctx.insert(grid.clone());
        for (source, depth) in [(corner, 94), (middle, 48)] {
            let expect = bfs_reference(&grid, source);
            for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
                for value in ValueKind::ALL {
                    let before = ctx.registry_bytes();
                    let got = bfs_auto_with_value(&ctx, h, source, policy, value).unwrap();
                    let at = format!("source {source} {policy:?} {value:?}");
                    assert_eq!(got.levels, expect, "{at}");
                    assert_eq!(got.depth, depth, "{at}");
                    assert_eq!(ctx.registry_bytes(), before, "{at} leaked a handle");
                }
            }
        }

        // Seeded non-negative integer weights (zero included), symmetric.
        let weight = |i: usize, j: Idx| {
            let (lo, hi) = ((i as u64).min(j as u64), (i as u64).max(j as u64));
            let z = lo.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ hi.wrapping_add(0xbf58_476d_1ce4_e5b9);
            (z.wrapping_mul(0x94d0_49bb_1331_11eb) >> 60) as f64 % 10.0
        };
        let mut coo = sparse::CooMatrix::new(grid.nrows(), grid.ncols());
        for (i, j, _) in grid.iter() {
            coo.push(i as Idx, j, weight(i, j));
        }
        let weighted = coo.to_csr();
        let hw = ctx.insert(weighted.clone());
        for source in [corner, middle] {
            let before = (ctx.registry_bytes(), ctx.plan_cache_stats());
            let got = sssp_auto(&ctx, hw, source).unwrap();
            let after = ctx.plan_cache_stats();
            assert_eq!(got, sssp_reference(&weighted, source), "sssp from {source}");
            assert_eq!(ctx.registry_bytes(), before.0, "sssp leaked a handle");
            // Each round plans its product once, through the plan cache.
            let rounds = (after.hits + after.misses) - (before.1.hits + before.1.misses);
            if source == corner {
                assert!(rounds >= 90, "only {rounds} rounds from the corner");
            }
        }
    }

    #[test]
    fn bfs_auto_forced_directions_report_correctly() {
        let ctx = Context::with_threads(1);
        let adj = to_undirected_simple(&graphs::erdos_renyi(80, 6.0, 9));
        let h = ctx.insert(adj);
        let pushed = bfs_auto(&ctx, h, 0, Direction::Push).unwrap();
        assert!(pushed.directions.iter().all(|&d| d == Direction::Push));
        let pulled = bfs_auto(&ctx, h, 0, Direction::Pull).unwrap();
        assert!(pulled.directions.iter().all(|&d| d == Direction::Pull));
        assert_eq!(pushed.levels, pulled.levels);
    }

    #[test]
    fn sssp_auto_matches_reference() {
        use crate::reference::sssp_reference;
        let ctx = Context::with_threads(2);
        for seed in 0..3 {
            let adj = to_undirected_simple(&graphs::erdos_renyi(90, 3.0, 40 + seed));
            let expect = sssp_reference(&adj, 1);
            let h = ctx.insert(adj);
            let got = sssp_auto(&ctx, h, 1).unwrap();
            assert_eq!(got, expect, "seed={seed}");
            ctx.remove(h);
        }
    }

    #[test]
    fn sssp_auto_weighted_paths() {
        // 0 -10-> 1 -1-> 2, 0 -2-> 2 and 2 -1-> 3: the direct edge
        // 0->2 (weight 2) beats the two-hop path through 1 (weight 11),
        // vertex 1 keeps its only path (10), and 3 is reached via 2 (3).
        let mut coo = sparse::CooMatrix::new(4, 4);
        coo.push(0, 1, 10.0);
        coo.push(1, 2, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 3, 1.0);
        let ctx = Context::with_threads(1);
        let h = ctx.insert(coo.to_csr());
        let got = sssp_auto(&ctx, h, 0).unwrap();
        assert_eq!(got, vec![0, 10, 2, 3]);
    }

    #[test]
    fn sssp_auto_rejects_negative_cycles_instead_of_hanging() {
        // Truncated float weights can go negative; a negative-total cycle
        // must be a bounded error, not an endless relaxation loop.
        let mut coo = sparse::CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        let ctx = Context::with_threads(1);
        let h = ctx.insert(coo.to_csr());
        assert!(matches!(
            sssp_auto(&ctx, h, 0),
            Err(SparseError::Unsupported(_))
        ));
    }

    #[test]
    fn bfs_auto_reuses_cached_bool_views_across_runs() {
        let ctx = Context::with_threads(1);
        let adj = to_undirected_simple(&graphs::erdos_renyi(120, 5.0, 17));
        let h = ctx.insert(adj);
        assert!(!ctx.aux_status(h).has_bool_view);
        let r1 = bfs_auto(&ctx, h, 0, Direction::Auto).unwrap();
        // The boolean adjacency view was built by the first traversal…
        assert!(ctx.aux_status(h).has_bool_view);
        let hits_before = ctx.plan_cache_stats().hits;
        // …and the second traversal reuses it plus the cached vec plans.
        let r2 = bfs_auto(&ctx, h, 0, Direction::Auto).unwrap();
        assert_eq!(r1.levels, r2.levels);
        assert!(
            ctx.plan_cache_stats().hits > hits_before,
            "second BFS re-planned every level"
        );
    }

    #[test]
    fn bc_auto_reuses_cached_transpose_across_calls() {
        let ctx = Context::with_threads(2);
        let adj = to_undirected_simple(&graphs::erdos_renyi(30, 4.0, 7));
        let h = ctx.insert(adj);
        assert!(!ctx.aux_status(h).has_transpose);
        let r1 = betweenness_centrality_auto(&ctx, h, &[0, 3]).unwrap();
        // The transpose was materialized by the first call…
        assert!(ctx.aux_status(h).has_transpose);
        let v1 = ctx.aux_status(h).version;
        // …and the second call reuses it (same version, same result).
        let r2 = betweenness_centrality_auto(&ctx, h, &[0, 3]).unwrap();
        assert_eq!(ctx.aux_status(h).version, v1);
        assert_eq!(r1.centrality, r2.centrality);
    }

    #[test]
    fn engine_adapters_remove_their_scratch_handles() {
        let ctx = Context::with_threads(2);
        let adj = to_undirected_simple(&graphs::erdos_renyi(60, 6.0, 11));
        let h = ctx.insert(adj.clone());
        let hb = ctx.insert_typed(adj.map_values(|v| v != 0.0));
        let l = ctx.insert(prepare_triangle_input(&adj));
        type Run<'a> = Box<dyn Fn() -> Result<(), SparseError> + 'a>;
        let cases: Vec<(&str, Run)> = vec![
            (
                "triangle_count_auto",
                Box::new(|| triangle_count_auto(&ctx, l).map(drop)),
            ),
            (
                "ktruss_auto f64",
                Box::new(|| ktruss_auto(&ctx, h, 4).map(drop)),
            ),
            (
                "ktruss_auto bool",
                Box::new(|| ktruss_auto(&ctx, hb, 4).map(drop)),
            ),
            (
                "betweenness_centrality_auto",
                Box::new(|| betweenness_centrality_auto(&ctx, h, &[0, 7]).map(drop)),
            ),
            (
                "bfs_auto",
                Box::new(|| bfs_auto(&ctx, h, 0, Direction::Auto).map(drop)),
            ),
            (
                "bfs_auto_with_value i64",
                Box::new(|| {
                    bfs_auto_with_value(&ctx, h, 0, Direction::Pull, ValueKind::I64).map(drop)
                }),
            ),
            ("sssp_auto", Box::new(|| sssp_auto(&ctx, h, 0).map(drop))),
            (
                "masked_cosine_similarity_auto",
                Box::new(|| masked_cosine_similarity_auto(&ctx, h, h).map(drop)),
            ),
        ];
        for (name, run) in &cases {
            // The first call builds what the adjacency owns for good (its
            // transpose handle); the second must leave the registry as is.
            run().unwrap();
            let before = ctx.registry_bytes();
            run().unwrap();
            assert_eq!(
                ctx.registry_bytes(),
                before,
                "{name} leaked a scratch handle"
            );
        }
        // Caller errors come back as `SparseError`s from each application's
        // one check, and leave the registry as they found it.
        let wide = ctx.insert(sparse::CsrMatrix::<f64>::empty(60, 61));
        let before = ctx.registry_bytes();
        let range = |e: &SparseError| matches!(e, SparseError::IndexOutOfRange { .. });
        let shape = |e: &SparseError| matches!(e, SparseError::DimMismatch { .. });
        let unsupported = |e: &SparseError| matches!(e, SparseError::Unsupported(_));
        let msa = Scheme::Ours(Algorithm::Msa, Phases::One);
        type Check<'a> = &'a dyn Fn(&SparseError) -> bool;
        let errors: [(&str, Result<(), SparseError>, Check); 9] = [
            (
                "bc source out of range",
                betweenness_centrality_auto(&ctx, h, &[0, 60]).map(drop),
                &range,
            ),
            (
                "bc empty batch",
                betweenness_centrality_auto(&ctx, h, &[]).map(drop),
                &unsupported,
            ),
            (
                "bc non-square",
                betweenness_centrality_auto(&ctx, wide, &[0]).map(drop),
                &shape,
            ),
            (
                "direct bc non-square",
                betweenness_centrality(msa, &ctx.matrix(wide), &[0]).map(drop),
                &shape,
            ),
            (
                "bfs source out of range",
                bfs_auto(&ctx, h, 60, Direction::Auto).map(drop),
                &range,
            ),
            (
                "bfs non-square",
                bfs_auto(&ctx, wide, 0, Direction::Auto).map(drop),
                &shape,
            ),
            (
                "sssp source out of range",
                sssp_auto(&ctx, h, 60).map(drop),
                &range,
            ),
            (
                "sssp non-square",
                sssp_auto(&ctx, wide, 0).map(drop),
                &shape,
            ),
            (
                "ktruss k = 2",
                ktruss_auto(&ctx, h, 2).map(drop),
                &unsupported,
            ),
        ];
        for (name, result, expected) in errors {
            assert!(result.as_ref().is_err_and(expected), "{name}: {result:?}");
        }
        assert_eq!(
            ctx.registry_bytes(),
            before,
            "an error path leaked a handle"
        );
    }
}
