//! k-truss peeling: how a graph's dense cores survive increasing k.
//!
//! Each k-truss run is a loop of `A ⊙ (A·A)` Masked SpGEMMs (support
//! computation) and prunes; the mask shrinks every iteration, which is the
//! regime where pull-based algorithms start to pay off (paper Section 8.3).
//!
//! The peeling loop runs through `engine::Context`: every iteration is
//! planned from cached degree statistics, and auxiliaries (CSC copies,
//! flop counts) are built only when the chosen algorithm needs them —
//! the scheme-based path converted to CSC every iteration regardless.
//!
//! Run with `cargo run --release --example ktruss_peeling -p integration`.

use engine::{Context, SemiringKind};
use graph_algos::{ktruss, ktruss_auto, Scheme};
use graphs::{rmat, to_undirected_simple, RmatParams};
use masked_spgemm::{Algorithm, Phases};
use std::time::Instant;

fn main() {
    let adj = to_undirected_simple(&rmat(10, RmatParams::default(), 21));
    println!(
        "R-MAT scale 10: {} vertices, {} edges",
        adj.nrows(),
        adj.nnz() / 2
    );

    let ctx = Context::new();
    ctx.calibrate(); // measure this machine's serial cutoff
    let h = ctx.insert(adj.clone());
    // Describe the support computation as an operation descriptor and ask
    // what the planner would do with it.
    let plan = ctx
        .op(h, h, h)
        .semiring(SemiringKind::PlusPair)
        .plan()
        .expect("square operands");
    println!(
        "engine plan for the first support computation: {} (flops {})",
        plan.label(),
        plan.costs.flops
    );

    println!("k-truss peeling through engine::Context:");
    println!(
        "{:>3} {:>10} {:>6} {:>14} {:>10}",
        "k", "edges", "iters", "flops", "time"
    );
    for k in 3..=8 {
        let t0 = Instant::now();
        let r = ktruss_auto(&ctx, h, k).expect("plain mask");
        println!(
            "{:>3} {:>10} {:>6} {:>14} {:>10.2?}",
            k,
            r.truss.nnz() / 2,
            r.iterations,
            r.total_flops,
            t0.elapsed()
        );
        if r.truss.nnz() == 0 {
            println!("graph fully peeled at k = {k}");
            break;
        }
    }
    let stats = ctx.plan_cache_stats();
    println!(
        "fingerprint plan cache: {} hits / {} misses across all peels \
         (hits after updates are plans reused across versions)",
        stats.hits, stats.misses
    );

    // The engine-planned decomposition must agree with fixed schemes.
    let auto = ktruss_auto(&ctx, h, 4).expect("plain mask");
    let a = ktruss(Scheme::Ours(Algorithm::Msa, Phases::One), &adj, 4).expect("plain mask");
    let b = ktruss(Scheme::Ours(Algorithm::Inner, Phases::One), &adj, 4).expect("plain mask");
    assert_eq!(a.truss.pattern(), b.truss.pattern());
    assert_eq!(auto.truss.pattern(), a.truss.pattern());
    println!("engine-auto, MSA-1P and Inner-1P agree on the 4-truss ✓");
}
