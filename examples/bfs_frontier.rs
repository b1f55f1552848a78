//! Direction-optimized BFS — the computation that brought masks into
//! sparse linear algebra (paper Section 4).
//!
//! Each level is one masked SpGEVM `next = ¬visited ⊙ (frontier·A)`:
//! "push" evaluates it by scattering the frontier's rows, "pull" by one
//! dot product per unvisited vertex, and the direct loop's auto policy
//! switches when the frontier's outgoing work exceeds the unvisited
//! population. The engine-planned `bfs_auto` runs the same per-level
//! products as vector descriptors on the `bool` lane: the boolean
//! adjacency views are cached on the context, and with `Auto` each level
//! runs the family the planner prices cheapest on its one row — MSA, the
//! heap (a push that merges a tiny frontier without scanning the
//! vertices), or the pull. Only the pull prints as `Pull`.
//!
//! Run with `cargo run --release --example bfs_frontier -p integration`.

use engine::Context;
use graph_algos::{bfs, bfs::bfs_reference, bfs_auto, sssp_auto, Direction};
use graphs::{rmat, to_undirected_simple, RmatParams};
use std::time::Instant;

fn main() {
    let adj = to_undirected_simple(&rmat(13, RmatParams::default(), 3));
    println!(
        "R-MAT scale 13: {} vertices, {} edges",
        adj.nrows(),
        adj.nnz() / 2
    );

    println!("-- direct masked_spgevm loop --");
    for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
        let t0 = Instant::now();
        let r = bfs(&adj, 0, policy);
        let dt = t0.elapsed();
        let reached = r.levels.iter().filter(|&&l| l >= 0).count();
        println!(
            "{policy:?}: depth {}, reached {reached}, {dt:.2?}, per-level directions {:?}",
            r.depth, r.directions
        );
    }

    println!("-- engine-planned vector descriptors --");
    let ctx = Context::new();
    ctx.calibrate();
    let h = ctx.insert(adj.clone());
    for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
        let t0 = Instant::now();
        let r = bfs_auto(&ctx, h, 0, policy).expect("well-shaped traversal");
        let dt = t0.elapsed();
        println!(
            "{policy:?}: depth {}, {dt:.2?}, planner directions {:?}",
            r.depth, r.directions
        );
    }
    // A second Auto traversal replans nothing: every level's vector plan
    // is served from the fingerprint cache.
    let before = ctx.plan_cache_stats();
    bfs_auto(&ctx, h, 0, Direction::Auto).expect("well-shaped traversal");
    let after = ctx.plan_cache_stats();
    println!(
        "repeat Auto traversal: {} plan-cache hits, {} new misses",
        after.hits - before.hits,
        after.misses - before.misses
    );

    // Integer shortest paths on the same handle: min_plus on the i64 lane
    // with engine-side MinInto accumulation (unit weights → hop counts).
    let dist = sssp_auto(&ctx, h, 0).expect("well-shaped traversal");
    let reached = dist.iter().filter(|&&d| d >= 0).count();
    println!("sssp (i64 min_plus): reached {reached}");

    // Correctness cross-checks against a serial queue BFS.
    let expect = bfs_reference(&adj, 0);
    assert_eq!(bfs(&adj, 0, Direction::Auto).levels, expect);
    assert_eq!(
        bfs_auto(&ctx, h, 0, Direction::Auto).unwrap().levels,
        expect
    );
    assert_eq!(
        dist, expect,
        "unit weights: tropical distances are BFS levels"
    );
    println!("direct, engine-planned, and sssp paths match the serial reference ✓");
}
