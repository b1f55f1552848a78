//! Engine acceptance harness: repeated-multiply loops, k-truss peeling,
//! heterogeneous streamed batches, BFS levels, and the pool scheduler's
//! skew guard — engine path vs. direct calls.
//!
//! The engine-vs-direct rows: each times the two sides in
//! interleaved pairs — at least 7, more with `--reps` — and is gated on
//! the median of the per-pair engine/direct ratios, so drift during a row
//! (frequency scaling, a noisy neighbour) cancels inside each pair instead
//! of landing on whichever side was timed second:
//!
//! 1. **repeat** — the same masked multiply issued `iters` times the way
//!    the scheme-based callers do it (CSC copy + selection per call)
//!    vs. through the engine's `OpBuilder` (auxiliaries cached on handles);
//! 2. **ktruss** — the full peeling loop, `Scheme` path vs. `ktruss_auto`;
//!    the harness also checks that peel planning hits the
//!    fingerprint-keyed plan cache (≥ 1 plan reused across versions);
//! 3. **batch** — `batch` independent multiplies, sequential direct calls
//!    vs. `Context::run_batch_collect` (inter-op parallel, per-worker
//!    scratch);
//! 4. **mixed stream** — one heterogeneous batch mixing `plus_times` and
//!    `plus_pair` ops, streamed through a `for_each_result` sink that
//!    consumes and drops each output, vs. sequential direct calls;
//! 5. **bfs levels** (ISSUE 4) — the engine-planned `bfs_auto` (per-level
//!    vector descriptors, complemented visited mask, planner-chosen
//!    direction, cached boolean adjacency views) vs. the direct
//!    `masked_spgevm` loop; the engine must be no slower and its per-level
//!    vector planning must hit the fingerprint cache.
//!
//! Then the scheduler check:
//!
//! 6. **skew regression guard** — the parallel kernel on the skewed graph
//!    must land within 1.5× of what ideal static splitting predicts from
//!    a balanced same-work input (balanced time scaled by the flop
//!    ratio); a scheduler that let the hub chunk strand a worker would
//!    blow through this.
//!
//! The acceptance bar (ISSUE 1, carried forward): the engine path must be
//! no slower than direct calls on the repeated-multiply loops. The harness
//! prints a table of median times and median pair ratios and exits
//! nonzero if a row's ratio exceeds 1.10, if peel planning shows no
//! fingerprint-cache reuse, if the skew guard fails, or if the start-up
//! `calibrate()` takes over 0.1 s. (The
//! pool-vs-spawn comparison is recorded in the committed
//! `BENCH_scheduler.json`.)
//!
//! Run with `cargo run --release -p bench --bin engine_repeat [--quick]`.

use bench::{banner, scheduler_workloads, HarnessArgs};
use engine::{Context, SemiringKind};
use graph_algos::{bfs, bfs_auto, ktruss, ktruss_auto, Direction, Scheme};
use masked_spgemm::{masked_spgemm, Algorithm, Phases};
use profile::table::{write_text, Table};
use sparse::{CscMatrix, CsrMatrix, PlusPair, PlusTimes};

/// Wall-time bound on the context's start-up `calibrate()`, which sits on
/// every set-up path.
const MAX_CALIBRATE_S: f64 = 0.1;

/// One row's interleaved timing: the median time of each side and the
/// median of the per-pair engine/direct ratios.
struct Paired {
    direct_s: f64,
    engine_s: f64,
    ratio: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Time `direct` and `engine` in `pairs` back-to-back pairs after one
/// warm-up call each, alternating which side runs first. Returns both
/// sides' last outputs and the row's [`Paired`] summary.
fn paired<A, B>(
    pairs: usize,
    mut direct: impl FnMut() -> A,
    mut engine: impl FnMut() -> B,
) -> (A, B, Paired) {
    let (mut a, mut b) = (direct(), engine());
    let (mut ds, mut es, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (d, e);
        if i % 2 == 0 {
            (a, d) = profile::time_once(&mut direct);
            (b, e) = profile::time_once(&mut engine);
        } else {
            (b, e) = profile::time_once(&mut engine);
            (a, d) = profile::time_once(&mut direct);
        }
        let (d, e) = (d.as_secs_f64(), e.as_secs_f64());
        ds.push(d);
        es.push(e);
        ratios.push(e / d);
    }
    let summary = Paired {
        direct_s: median(ds),
        engine_s: median(es),
        ratio: median(ratios),
    };
    (a, b, summary)
}

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "engine_repeat",
        "engine vs direct on repeated workloads",
        &args,
    );
    let n = args.pick(1 << 10, 1 << 12, 1 << 14);
    let iters = args.pick(10usize, 30, 100);
    let batch = args.pick(8usize, 32, 128);

    let ctx = Context::new();
    let (cal, calibrate_t) = profile::time_once(|| ctx.calibrate());
    let calibrate_s = calibrate_t.as_secs_f64();
    println!(
        "calibrate(): dispatch overhead {:.3e}s, serial cutoff {:.1} flops, took {calibrate_s:.4}s",
        cal.dispatch_overhead_secs, cal.serial_cutoff_flops
    );

    let adj = graphs::to_undirected_simple(&graphs::rmat(
        (n as f64).log2() as u32,
        graphs::RmatParams::default(),
        7,
    ));
    let l = graph_algos::prepare_triangle_input(&adj);
    let sr = PlusPair::<f64, f64, u64>::new();

    // Gated rows time at least 7 pairs whatever `--reps` asks for: the
    // rows take milliseconds, and fewer pairs leave the median at the
    // mercy of one noisy pair.
    let pairs = args.reps.max(7);
    let mut table = Table::new(&["workload", "direct_s", "engine_s", "engine/direct"]);
    let mut worst_ratio = 0.0f64;
    let mut record = |table: &mut Table, name: &str, p: Paired| {
        worst_ratio = worst_ratio.max(p.ratio);
        table.push(vec![
            name.to_string(),
            format!("{:.6}", p.direct_s),
            format!("{:.6}", p.engine_s),
            format!("{:.3}", p.ratio),
        ]);
    };

    // 1. Repeated identical multiply: the scheme caller's obligatory
    //    per-call CSC copy vs. handle-cached auxiliaries.
    let scheme = Scheme::Ours(Algorithm::Msa, Phases::One);
    let h = ctx.insert(l.clone());
    let (_, _, p) = paired(
        pairs,
        || {
            let mut nnz = 0usize;
            for _ in 0..iters {
                let lc = CscMatrix::from_csr(&l); // what scheme.run callers build
                let c = scheme.run(sr, &l, false, &l, &l, &lc).expect("plain");
                nnz = c.nnz();
            }
            nnz
        },
        || {
            let mut nnz = 0usize;
            for _ in 0..iters {
                let c = ctx
                    .op(h, h, h)
                    .semiring(SemiringKind::PlusPair)
                    .run()
                    .expect("plain");
                nnz = c.nnz();
            }
            nnz
        },
    );
    record(&mut table, "repeat_tc_multiply", p);

    // 2. Full k-truss peeling loop. The engine side must show plan reuse
    //    across peeled versions (fingerprint-cache hits).
    let ha = ctx.insert(adj.clone());
    let hits_before = ctx.plan_cache_stats().hits;
    let (_, peel_iters, p) = paired(
        pairs,
        || ktruss(scheme, &adj, 5).expect("plain").iterations,
        || ktruss_auto(&ctx, ha, 5).expect("plain").iterations,
    );
    let peel_plan_hits = ctx.plan_cache_stats().hits - hits_before;
    record(&mut table, "ktruss_k5_loop", p);
    println!(
        "ktruss peel planning: {peel_iters} iterations/run, \
         {peel_plan_hits} fingerprint-cache hits across all reps"
    );

    // 3. Independent homogeneous batch: one multiply per distinct mask.
    let srt = PlusTimes::<f64>::new();
    let masks: Vec<_> = (0..batch)
        .map(|i| graphs::erdos_renyi(l.nrows(), 8.0, 100 + i as u64))
        .collect();
    let mask_handles: Vec<_> = masks.iter().map(|m| ctx.insert(m.clone())).collect();
    let ops: Vec<engine::MaskedOp> = mask_handles
        .iter()
        .map(|&m| ctx.op(m, h, h).build())
        .collect();
    let (_, _, p) = paired(
        pairs,
        || {
            let lc = CscMatrix::from_csr(&l);
            let mut total = 0usize;
            for m in &masks {
                total += scheme.run(srt, m, false, &l, &l, &lc).expect("plain").nnz();
            }
            total
        },
        || {
            ctx.run_batch_collect(&ops)
                .into_iter()
                .map(|r| r.expect("plain").nnz())
                .sum::<usize>()
        },
    );
    record(&mut table, "independent_batch", p);

    // 4. Heterogeneous streamed batch: the same masks, but alternating
    //    plus_times and plus_pair ops in ONE batch, consumed by a sink
    //    that keeps only a running nnz total (outputs are dropped as
    //    workers finish — never all resident). The direct side runs the
    //    same mixed workload sequentially with typed semirings.
    let mixed_ops: Vec<engine::MaskedOp> = mask_handles
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let kind = if i % 2 == 0 {
                SemiringKind::PlusTimes
            } else {
                SemiringKind::PlusPair
            };
            ctx.op(m, h, h).semiring(kind).build()
        })
        .collect();
    let (_, _, p) = paired(
        pairs,
        || {
            let lc = CscMatrix::from_csr(&l);
            let mut total = 0usize;
            for (i, m) in masks.iter().enumerate() {
                total += if i % 2 == 0 {
                    scheme.run(srt, m, false, &l, &l, &lc).expect("plain").nnz()
                } else {
                    scheme.run(sr, m, false, &l, &l, &lc).expect("plain").nnz()
                };
            }
            total
        },
        || {
            let mut total = 0usize;
            ctx.for_each_result(&mixed_ops, |_i, r: Result<sparse::CsrMatrix<f64>, _>| {
                total += r.expect("plain").nnz();
            });
            total
        },
    );
    record(&mut table, "mixed_semiring_stream", p);

    // Sanity: the dyn-semiring stream computes the same nnz totals as the
    // typed direct path.
    {
        let lc = CscMatrix::from_csr(&l);
        let mut direct_nnz = vec![0usize; masks.len()];
        for (i, m) in masks.iter().enumerate() {
            direct_nnz[i] = if i % 2 == 0 {
                scheme.run(srt, m, false, &l, &l, &lc).expect("plain").nnz()
            } else {
                scheme.run(sr, m, false, &l, &l, &lc).expect("plain").nnz()
            };
        }
        let mut mismatches = 0usize;
        ctx.for_each_result(
            &mixed_ops,
            |i: usize, r: Result<sparse::CsrMatrix<f64>, _>| {
                if r.expect("plain").nnz() != direct_nnz[i] {
                    mismatches += 1;
                }
            },
        );
        assert_eq!(mismatches, 0, "mixed stream disagrees with direct calls");
    }

    // 5. BFS-level workload (ISSUE 4): the engine-planned traversal —
    //    per-level VecMat descriptors with a complemented visited mask,
    //    family chosen by the planner on the level's one row — vs. the
    //    direct masked_spgevm loop, which re-derives the boolean adjacency
    //    and its CSC copy on every call. The engine side must show
    //    fingerprint-cache reuse across levels/repetitions.
    let bfs_scale = args.pick(9u32, 11, 13);
    let bfs_adj =
        graphs::to_undirected_simple(&graphs::rmat(bfs_scale, graphs::RmatParams::default(), 21));
    let hb = ctx.insert(bfs_adj.clone());
    let bfs_hits_before = ctx.plan_cache_stats().hits;
    let (direct_levels, engine_levels, p) = paired(
        pairs,
        || bfs(&bfs_adj, 0, Direction::Auto).levels,
        || {
            bfs_auto(&ctx, hb, 0, Direction::Auto)
                .expect("well-shaped traversal")
                .levels
        },
    );
    let bfs_plan_hits = ctx.plan_cache_stats().hits - bfs_hits_before;
    assert_eq!(
        engine_levels, direct_levels,
        "engine-planned BFS diverged from the direct loop"
    );
    assert_eq!(
        engine_levels,
        graph_algos::bfs::bfs_reference(&bfs_adj, 0),
        "BFS levels diverged from the serial reference"
    );
    record(&mut table, "bfs_levels", p);
    let bfs_depth = engine_levels.iter().max().copied().unwrap_or(0);
    println!(
        "bfs planning: {bfs_plan_hits} fingerprint-cache hits across \
         {bfs_depth} levels x {pairs} pairs"
    );

    // 5b. Repeat-BFS (ISSUE 5 satellite): back-to-back traversals of the
    //     same graph, where the engine's per-lane SpGEVM kernel scratch is
    //     reused across every level of every traversal (the direct loop
    //     rebuilds its accumulator per level). Gated like every repeated
    //     workload: engine must be no slower than direct.
    let bfs_loops = 5usize;
    let (_, _, p) = paired(
        pairs,
        || {
            let mut depth = 0usize;
            for _ in 0..bfs_loops {
                depth = bfs(&bfs_adj, 0, Direction::Auto).depth;
            }
            depth
        },
        || {
            let mut depth = 0usize;
            for _ in 0..bfs_loops {
                depth = bfs_auto(&ctx, hb, 0, Direction::Auto)
                    .expect("well-shaped traversal")
                    .depth;
            }
            depth
        },
    );
    record(&mut table, "bfs_repeat_loop", p);

    println!("{}", table.to_console());
    table
        .write_csv(args.out_dir.join("engine_repeat.csv"))
        .expect("write csv");
    write_text(args.out_dir.join("engine_repeat.txt"), &table.to_console()).expect("write txt");

    println!("worst median engine/direct pair ratio: {worst_ratio:.3}");
    let mut failed = false;
    if calibrate_s > MAX_CALIBRATE_S {
        eprintln!("FAIL: calibrate() took {calibrate_s:.4}s (bound {MAX_CALIBRATE_S}s)");
        failed = true;
    }
    if worst_ratio > 1.10 {
        eprintln!("FAIL: engine repeated-multiply path regressed beyond 10%");
        failed = true;
    }
    if peel_iters >= 2 && peel_plan_hits == 0 {
        eprintln!("FAIL: k-truss peeling never hit the fingerprint plan cache");
        failed = true;
    }
    if bfs_depth >= 2 && bfs_plan_hits == 0 {
        eprintln!("FAIL: BFS level planning never hit the fingerprint plan cache");
        failed = true;
    }

    // 6. Skew regression guard at a forced width of 4 (the serial path is
    //    shared, so width 1 would not exercise claim balancing).
    let sr_t = PlusTimes::<f64>::new();
    let sched_reps = args.reps.max(5);
    let pool4 = masked_spgemm::thread_pool(4);
    //    Scale a balanced input's parallel time by the flop ratio to get
    //    what ideal static splitting would predict, and require the skewed
    //    kernel to land within 1.5× of it.
    let guard_scale = args.pick(9u32, 10, 12);
    let skew = scheduler_workloads::skew_graph(guard_scale);
    let balanced = scheduler_workloads::balanced_counterpart(&skew);
    let time_one = |m: &CsrMatrix<f64>| {
        let (_, t) = profile::best_of(sched_reps, || {
            pool4.install(|| {
                masked_spgemm(Algorithm::Msa, Phases::One, false, sr_t, m, m, m)
                    .expect("dims agree")
                    .nnz()
            })
        });
        t.secs()
    };
    let t_bal = time_one(&balanced);
    let t_skew = time_one(&skew);
    let flops_bal = masked_spgemm::flops(&balanced, &balanced).max(1) as f64;
    let flops_skew = masked_spgemm::flops(&skew, &skew).max(1) as f64;
    let predicted = t_bal * flops_skew / flops_bal;
    let skew_factor = t_skew / predicted;
    println!(
        "skew guard: skewed {t_skew:.6}s vs ideal-static prediction {predicted:.6}s \
         (flops {flops_skew:.0} vs {flops_bal:.0} balanced) — factor {skew_factor:.3}"
    );
    if skew_factor > 1.5 {
        eprintln!(
            "FAIL: skewed kernel is {skew_factor:.3}x the ideal static-splitting \
             prediction (> 1.5x) — load balancing regressed"
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("engine repeated-multiply loops are no slower than direct calls ✓");
    println!("engine-planned BFS is no slower than the direct masked_spgevm loop ✓");
    println!("k-truss peel planning reuses fingerprint-cached plans ✓");
    println!("BFS level planning reuses fingerprint-cached vector plans ✓");
    println!("skewed kernel stays within 1.5x of ideal static splitting ✓");
}
