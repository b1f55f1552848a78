//! Engine subsystem tests: planned, forced, and batched execution must be
//! bit-identical to direct `masked_spgemm` calls; the auxiliary cache must
//! never serve stale data after a matrix is updated.

use engine::{Choice, Context, HybridConfig, Plan, SemiringKind};
use graph_algos::prepare_triangle_input;
use masked_spgemm::hybrid::{hybrid_choices, RowChoice};
use masked_spgemm::{masked_spgemm, Algorithm, Phases};
use proptest::prelude::*;
use sparse::{CsrMatrix, Idx, PlusTimes, SparseVec};

/// CSR matrix of a fixed shape with ~`density` fill and small integer
/// values (exact in f64).
fn csr_strategy(nrows: usize, ncols: usize, density: f64) -> impl Strategy<Value = CsrMatrix<f64>> {
    let cells = nrows * ncols;
    proptest::collection::vec((0.0f64..1.0, 1i32..50), cells..=cells).prop_map(move |draws| {
        let mut rowptr = vec![0usize];
        let mut cols: Vec<Idx> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        for i in 0..nrows {
            for j in 0..ncols {
                let (p, v) = draws[i * ncols + j];
                if p < density {
                    cols.push(j as Idx);
                    vals.push(v as f64);
                }
            }
            rowptr.push(cols.len());
        }
        CsrMatrix::try_new(nrows, ncols, rowptr, cols, vals).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Forced execution through the context (cached CSC and all) matches
    /// direct calls for every algorithm × phase × polarity combination.
    #[test]
    fn forced_plans_match_direct_for_every_combo(
        a in csr_strategy(13, 11, 0.3),
        b in csr_strategy(11, 14, 0.3),
        mask in csr_strategy(13, 14, 0.4),
    ) {
        let ctx = Context::with_threads(2);
        let sr = PlusTimes::<f64>::new();
        let (hm, ha, hb) = (
            ctx.insert(mask.clone()),
            ctx.insert(a.clone()),
            ctx.insert(b.clone()),
        );
        for compl in [false, true] {
            for alg in Algorithm::ALL {
                for ph in Phases::ALL {
                    let direct = masked_spgemm(alg, ph, compl, sr, &mask, &a, &b);
                    let engine = ctx
                        .op(hm, ha, hb)
                        .semiring(SemiringKind::PlusTimes)
                        .complemented(compl)
                        .algorithm(alg)
                        .phases(ph)
                        .run();
                    match (direct, engine) {
                        (Ok(d), Ok(e)) => {
                            prop_assert_eq!(&d, &e, "{:?}-{:?} compl={}", alg, ph, compl);
                        }
                        (Err(_), Err(_)) => {} // both reject (MCA complement)
                        (d, e) => {
                            return Err(TestCaseError::fail(format!(
                                "support mismatch {alg:?}-{ph:?} compl={compl}: \
                                 direct ok={} engine ok={}",
                                d.is_ok(), e.is_ok()
                            )));
                        }
                    }
                }
            }
        }
    }

    /// The planner's own choice (through the descriptor path) also matches
    /// the direct reference result.
    #[test]
    fn planned_execution_matches_reference(
        a in csr_strategy(12, 12, 0.3),
        b in csr_strategy(12, 12, 0.3),
        mask in csr_strategy(12, 12, 0.4),
    ) {
        let ctx = Context::with_threads(2);
        let sr = PlusTimes::<f64>::new();
        let (hm, ha, hb) = (
            ctx.insert(mask.clone()),
            ctx.insert(a.clone()),
            ctx.insert(b.clone()),
        );
        for compl in [false, true] {
            let expect =
                masked_spgemm(Algorithm::Msa, Phases::One, compl, sr, &mask, &a, &b).unwrap();
            let plan = ctx.plan(hm, compl, ha, hb).unwrap();
            let got = ctx.op(hm, ha, hb).complemented(compl).run().unwrap();
            prop_assert_eq!(&got, &expect, "plan {} compl={}", plan.label(), compl);
        }
    }

    /// Batched execution (serial per-op kernels with reused scratch)
    /// produces the same bits as direct calls, op for op.
    #[test]
    fn batched_execution_matches_direct(
        a in csr_strategy(10, 10, 0.3),
        b in csr_strategy(10, 10, 0.3),
        m1 in csr_strategy(10, 10, 0.4),
        m2 in csr_strategy(10, 10, 0.1),
    ) {
        let ctx = Context::with_threads(3);
        let sr = PlusTimes::<f64>::new();
        let (ha, hb) = (ctx.insert(a.clone()), ctx.insert(b.clone()));
        let (h1, h2) = (ctx.insert(m1.clone()), ctx.insert(m2.clone()));
        let ops = vec![
            ctx.op(h1, ha, hb).build(),
            ctx.op(h2, ha, hb).build(),
            ctx.op(h1, ha, hb).complemented(true).build(),
            ctx.op(h2, hb, ha).build(),
        ];
        let results = ctx.run_batch_collect(&ops);
        prop_assert_eq!(results.len(), ops.len());
        for (op, result) in ops.iter().zip(&results) {
            let (mask, a, b) = op.mat_operands().expect("matrix operands");
            let mask_m = ctx.matrix(mask);
            let am = ctx.matrix(a);
            let bm = ctx.matrix(b);
            let expect = masked_spgemm(
                Algorithm::Msa, Phases::One, op.complemented, sr, &mask_m, &am, &bm,
            ).unwrap();
            let got = result.as_ref().expect("batch op supported");
            prop_assert_eq!(got, &expect);
        }
    }
}

#[test]
fn update_invalidates_stale_auxiliaries() {
    let ctx = Context::with_threads(1);
    let m1 = graphs::erdos_renyi(32, 4.0, 1);
    let h = ctx.insert(m1.clone());

    // Materialize every auxiliary for the first version.
    let csc1 = ctx.csc(h);
    let t1 = ctx.transposed(h);
    let deg1 = ctx.row_degrees(h);
    let status1 = ctx.aux_status(h);
    assert!(status1.has_csc && status1.has_transpose && status1.has_row_degrees);
    assert_eq!(csc1.to_csr(), m1);

    // Mutate the matrix: every cached auxiliary must be rebuilt, not reused.
    let m2 = graphs::erdos_renyi(32, 9.0, 2);
    assert_ne!(m1, m2);
    ctx.update(h, m2.clone());
    let status2 = ctx.aux_status(h);
    assert!(status2.version > status1.version, "version must advance");
    assert!(
        !status2.has_csc && !status2.has_transpose && !status2.has_row_degrees,
        "stale auxiliaries survived the update: {status2:?}"
    );
    let csc2 = ctx.csc(h);
    assert_eq!(csc2.to_csr(), m2, "CSC reflects the new matrix");
    assert_ne!(csc1.to_csr(), csc2.to_csr());
    let deg2 = ctx.row_degrees(h);
    assert_eq!(deg2.len(), 32);
    assert_ne!(&*deg1, &*deg2, "degree vector rebuilt");
    assert_eq!(t1.to_owned().nnz(), m1.nnz(), "old Arc still the old data");

    // A no-op update (identical matrix) keeps the cache warm.
    let v_before = ctx.aux_status(h).version;
    assert!(ctx.aux_status(h).has_csc);
    ctx.update(h, m2.clone());
    assert_eq!(ctx.aux_status(h).version, v_before);
    assert!(
        ctx.aux_status(h).has_csc,
        "no-op update must keep auxiliaries"
    );
}

/// The one-entry matrix `[[x]]`.
fn scalar(x: f64) -> CsrMatrix<f64> {
    CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![x]).unwrap()
}

/// An update that only flips a zero's sign changes the stored bits, so it
/// is stored (`0.0 == -0.0` must not read as "no change").
#[test]
fn update_that_only_flips_a_zero_sign_is_stored() {
    let ctx = Context::with_threads(1);
    let h = ctx.insert(scalar(0.0));
    ctx.csc(h);
    let before = ctx.aux_status(h).version;
    ctx.update(h, scalar(-0.0));
    let stored = ctx.matrix(h).values()[0];
    assert_eq!(
        stored.to_bits(),
        (-0.0f64).to_bits(),
        "the update was dropped"
    );
    assert!(ctx.aux_status(h).version > before);
    assert!(!ctx.aux_status(h).has_csc, "a stale CSC survived");
}

/// Storing an identical matrix that holds a NaN is no change, so the
/// cached auxiliaries stay (`NaN != NaN` must not read as a change).
#[test]
fn restoring_an_identical_matrix_with_a_nan_keeps_the_caches() {
    let ctx = Context::with_threads(1);
    let h = ctx.insert(scalar(f64::NAN));
    ctx.csc(h);
    let before = ctx.aux_status(h);
    ctx.update(h, scalar(f64::NAN));
    assert_eq!(
        ctx.aux_status(h),
        before,
        "an identical update purged the caches"
    );
    // A NaN with other bits is a change.
    let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
    ctx.update(h, scalar(other_nan));
    assert!(ctx.aux_status(h).version > before.version);
}

#[test]
fn flops_cache_invalidates_with_versions() {
    let ctx = Context::with_threads(1);
    let a1 = graphs::erdos_renyi(24, 3.0, 3);
    let b1 = graphs::erdos_renyi(24, 3.0, 4);
    let (ha, hb) = (ctx.insert(a1.clone()), ctx.insert(b1.clone()));
    let f1 = ctx.flops(ha, hb);
    assert_eq!(f1, masked_spgemm::flops(&a1, &b1));
    // Updating B must change the answer (it counts from B's cached row
    // degrees, which the update invalidates).
    let b2 = graphs::erdos_renyi(24, 8.0, 5);
    ctx.update(hb, b2.clone());
    let f2 = ctx.flops(ha, hb);
    assert_eq!(f2, masked_spgemm::flops(&a1, &b2));
    assert_ne!(f1, f2);
}

#[test]
fn plans_are_cached_per_fingerprint_and_refreshed_by_regime_changes() {
    let ctx = Context::with_threads(1);
    let a = graphs::erdos_renyi(64, 6.0, 6);
    let m = graphs::erdos_renyi(64, 6.0, 7);
    let (ha, hm) = (ctx.insert(a), ctx.insert(m));
    let p1 = ctx.plan(hm, false, ha, ha).unwrap();
    let hits_before = ctx.plan_cache_stats().hits;
    let p2 = ctx.plan(hm, false, ha, ha).unwrap();
    assert_eq!(p1.label(), p2.label());
    assert_eq!(p1.costs.flops, p2.costs.flops);
    assert_eq!(
        ctx.plan_cache_stats().hits,
        hits_before + 1,
        "identical replan must be a cache hit"
    );
    // A 4× denser A is a different structural class: the cached cost
    // estimates must be recomputed, not served.
    ctx.update(ha, graphs::erdos_renyi(64, 24.0, 8));
    let p3 = ctx.plan(hm, false, ha, ha).unwrap();
    assert_ne!(p1.costs.flops, p3.costs.flops);
}

#[test]
fn batch_handles_mixed_shapes_and_errors() {
    let ctx = Context::with_threads(2);
    let sr = PlusTimes::<f64>::new();
    // Different shapes in one batch exercise scratch regrowth per worker.
    let small = ctx.insert(graphs::erdos_renyi(16, 3.0, 10));
    let big = ctx.insert(graphs::erdos_renyi(128, 6.0, 11));
    let mask_small = ctx.insert(graphs::erdos_renyi(16, 4.0, 12));
    let mask_big = ctx.insert(graphs::erdos_renyi(128, 8.0, 13));
    let ops = vec![
        ctx.op(mask_small, small, small).build(),
        ctx.op(mask_big, big, big).build(),
        // Shape mismatch: must fail in its slot only.
        ctx.op(mask_small, big, big).build(),
        ctx.op(mask_small, small, small).complemented(true).build(),
    ];
    let results = ctx.run_batch_collect(&ops);
    assert!(results[0].is_ok());
    assert!(results[1].is_ok());
    assert!(results[2].is_err(), "mismatched op must error in isolation");
    assert!(results[3].is_ok());
    for (op, result) in ops.iter().zip(&results).filter(|(_, r)| r.is_ok()) {
        let (mask, a, b) = op.mat_operands().expect("matrix operands");
        let expect = masked_spgemm(
            Algorithm::Msa,
            Phases::One,
            op.complemented,
            sr,
            &ctx.matrix(mask),
            &ctx.matrix(a),
            &ctx.matrix(b),
        )
        .unwrap();
        assert_eq!(result.as_ref().unwrap(), &expect);
    }
}

#[test]
fn complemented_plans_never_pick_pull_for_sparse_masks() {
    // Under a complemented mask the pull algorithm visits every *unmasked*
    // output column — a near-empty mask row is its worst case, not its
    // best. The BC forward sweep (wide matrices, tiny complemented masks)
    // must therefore plan a push family.
    let ctx = Context::with_threads(1);
    let adj = ctx.insert(graphs::erdos_renyi(512, 8.0, 30));
    let frontier = ctx.insert(graphs::erdos_renyi(512, 1.0, 31));
    let paths = ctx.insert(graphs::erdos_renyi(512, 1.0, 32));
    let plan = ctx.plan(paths, true, frontier, adj).unwrap();
    assert!(
        !matches!(plan.choice, Choice::Fixed(Algorithm::Inner)),
        "complemented sparse-mask multiply planned pure Inner: {}",
        plan.label()
    );
    // The estimate itself must reflect the ncols-wide dot sweep.
    assert!(
        plan.costs.inner > plan.costs.msa,
        "inner ({:.0}) should dominate msa ({:.0}) here",
        plan.costs.inner,
        plan.costs.msa
    );
    // An *empty* mask is maximal work under complement, not free: the
    // planner must still produce a push plan, never a pull one.
    let empty = ctx.insert(sparse::CsrMatrix::<f64>::empty(512, 512));
    let plan = ctx.plan(empty, true, frontier, adj).unwrap();
    assert!(!matches!(plan.choice, Choice::Fixed(Algorithm::Inner)));
    assert!(
        plan.costs.inner > 0.0,
        "empty complemented mask costed as free"
    );
}

#[test]
fn update_loops_do_not_grow_derived_caches() {
    // Every update bumps the version. Plan entries are keyed by structural
    // class, not version, so same-regime updates land on a handful of keys
    // (and the byte-budgeted LRU bounds them regardless), and the aux
    // ledger drops a superseded version's records.
    let ctx = Context::with_threads(1);
    let h = ctx.insert(graphs::erdos_renyi(48, 6.0, 40));
    for round in 0..20u64 {
        let _ = ctx.flops(h, h);
        let _ = ctx.plan(h, false, h, h).unwrap();
        ctx.update(h, graphs::erdos_renyi(48, 6.0, 41 + round));
    }
    assert_eq!(ctx.aux_cache_stats().bytes, 0);
    let plan_len = ctx.plan_cache_stats().entries;
    assert!(
        plan_len <= 8,
        "plan cache grew to {plan_len} for one structural regime"
    );
}

#[test]
fn transpose_handle_is_cached_and_follows_updates() {
    let ctx = Context::with_threads(1);
    let m1 = graphs::erdos_renyi(32, 4.0, 50);
    let h = ctx.insert(m1.clone());
    let t1 = ctx.transpose_handle(h);
    // Second call returns the same handle (no per-call registration).
    assert_eq!(ctx.transpose_handle(h), t1);
    assert_eq!(ctx.matrix(t1).as_ref(), &sparse::transpose::transpose(&m1));
    // Updating the parent invalidates the derived handle and yields a new
    // one reflecting the new matrix.
    let m2 = graphs::erdos_renyi(32, 7.0, 51);
    ctx.update(h, m2.clone());
    let t2 = ctx.transpose_handle(h);
    assert_ne!(t2, t1);
    assert_eq!(ctx.matrix(t2).as_ref(), &sparse::transpose::transpose(&m2));
}

#[test]
fn planner_prefers_pull_for_tiny_masks_and_push_for_dense_masks() {
    let ctx = Context::with_threads(1);
    // Dense inputs, near-empty mask: the pull/dot regime.
    let a = ctx.insert(graphs::erdos_renyi(256, 48.0, 20));
    let tiny = ctx.insert(graphs::erdos_renyi(256, 0.5, 21));
    let plan = ctx.plan(tiny, false, a, a).unwrap();
    assert!(
        matches!(
            plan.choice,
            Choice::Fixed(Algorithm::Inner) | Choice::Hybrid
        ),
        "expected a pull-leaning plan, got {}",
        plan.label()
    );
    // Dense mask over the same inputs: push regime (never pure Inner).
    let dense = ctx.insert(graphs::erdos_renyi(256, 64.0, 22));
    let plan = ctx.plan(dense, false, a, a).unwrap();
    assert!(
        !matches!(plan.choice, Choice::Fixed(Algorithm::Inner)),
        "dense mask must not plan pure Inner, got {}",
        plan.label()
    );
}

/// The hub-plus-fringe graph of the core hybrid tests: vertex 0 links to
/// every other vertex and the rest form a chain, so hub and fringe rows
/// disagree about their cheapest family.
fn hub_and_fringe() -> CsrMatrix<f64> {
    let mut coo = sparse::CooMatrix::new(64, 64);
    for j in 1..64u32 {
        coo.push(0, j, 1.0);
        coo.push(j, 0, 1.0);
    }
    for j in 1..63u32 {
        coo.push(j, j + 1, 1.0);
        coo.push(j + 1, j, 1.0);
    }
    coo.to_csr()
}

/// A `bool` vector of dimension `dim` holding `indices`.
fn bool_vec(dim: usize, indices: Vec<Idx>) -> SparseVec<bool> {
    let n = indices.len();
    SparseVec::try_new(dim, indices, vec![true; n]).unwrap()
}

/// One plan of each kind the planner makes, on a fresh default-config
/// context: a fixed `MSA-1P`, a per-row `Hybrid-1P`, a complemented
/// two-phase product, two complemented vector products — a lone source,
/// which the heap merges without the `O(ncols)` scan that MSA and the pull
/// pay, and a wide frontier with six unvisited vertices, an MSA push (the
/// pull would scan all 256 positions) — and a plain vector pull. Every
/// vector plan prices all four families.
fn pinned_plans(ctx: &Context) -> Vec<(&'static str, Plan)> {
    let rmat = ctx.insert(graphs::rmat(8, graphs::RmatParams::default(), 1));
    let dense_mask = ctx.insert(graphs::erdos_renyi(256, 64.0, 5));
    let hub = ctx.insert(hub_and_fringe());
    let heavy = ctx.insert(graphs::erdos_renyi(2048, 64.0, 3));
    let sparse_mask = ctx.insert(graphs::erdos_renyi(2048, 2.0, 4));
    let grid = ctx.insert(graphs::grid2d(16, 16));
    let source = ctx.insert_vec(bool_vec(256, vec![17]));
    let wide_frontier = ctx.insert_vec(bool_vec(256, (0..256).step_by(2).collect()));
    let nearly_all = ctx.insert_vec(bool_vec(256, (0..250).collect()));
    vec![
        ("rmat", ctx.plan(dense_mask, false, rmat, rmat).unwrap()),
        ("hybrid", ctx.plan(hub, false, hub, hub).unwrap()),
        (
            "complemented",
            ctx.plan(sparse_mask, true, heavy, heavy).unwrap(),
        ),
        (
            "push",
            ctx.vec_op(source, source, grid)
                .complemented(true)
                .plan()
                .unwrap(),
        ),
        (
            "pull",
            ctx.vec_op(nearly_all, wide_frontier, grid)
                .complemented(true)
                .plan()
                .unwrap(),
        ),
        (
            "plain pull",
            ctx.vec_op(source, wide_frontier, grid).plan().unwrap(),
        ),
    ]
}

/// The planner's numbers for [`pinned_plans`], bit for bit: the label and
/// the `to_bits()` of every estimate (`msa`, `mca`, `heap`, `inner`,
/// `hybrid`) plus the flop count. A change to the cost model that moves
/// any plan or any estimate fails here.
#[test]
fn planner_numbers_are_pinned() {
    #[rustfmt::skip]
    const PINNED: [(&str, &str, [u64; 5], u64); 6] = [
        ("rmat", "MSA-1P", [0x40fde9b000000000, 0x410f4e2000000000, 0x411d1857e61f71e3, 0x411367f000000000, 0x40fe13edbd150474], 88111),
        ("hybrid", "Hybrid-1P", [0x40c5540000000000, 0x40c1ae0000000000, 0x40cc5c9b86c2f2ed, 0x40c22b0000000000, 0x40b7740000000000], 4526),
        ("complemented", "MSA-2P", [0x416082e520000000, 0x4160a16680000000, 0x418c62a5d428172a, 0x41c02d63ca800000, 0x4160b47ca0000000], 8455985),
        ("push", "Heap-1P", [0x4059400000000000, 0x4014000000000000, 0x4022000000000000, 0x4096ec0000000000, 0x408e680000000000], 4),
        ("pull", "MSA-1P", [0x4089d00000000000, 0x40dfb80000000000, 0x40affec735d5c00c, 0x4090440000000000, 0x409c080000000000], 480),
        ("plain pull", "Inner-1P", [0x4082080000000000, 0x4083000000000000, 0x40ae0cc735d5c00c, 0x4060a00000000000, 0x4061a00000000000], 480),
    ];
    let ctx = Context::with_threads(1);
    let plans = pinned_plans(&ctx);
    assert_eq!(plans.len(), PINNED.len());
    for ((name, plan), (pinned_name, label, bits, flops)) in plans.into_iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let c = plan.costs;
        assert_eq!(plan.label(), label, "{name}");
        assert_eq!(
            [c.msa, c.mca, c.heap, c.inner, c.hybrid].map(f64::to_bits),
            bits,
            "{name}: {c:?}"
        );
        assert_eq!(c.flops, flops, "{name}");
    }
}

/// `calibrate()` measures only the serial cutoff: a calibrated context
/// plans [`pinned_plans`] exactly like an uncalibrated one given the same
/// cutoff — the same labels, serial flags and cost bits.
#[test]
fn calibration_changes_no_plan_but_the_serial_cutoff() {
    let calibrated = Context::with_threads(1);
    let cal = calibrated.calibrate();
    let uncalibrated = Context::with_threads(1);
    uncalibrated.set_serial_cutoff_flops(cal.serial_cutoff_flops);
    let costs = |p: &Plan| {
        let c = p.costs;
        (
            [c.msa, c.mca, c.heap, c.inner, c.hybrid].map(f64::to_bits),
            c.flops,
        )
    };
    for ((name, got), (_, want)) in pinned_plans(&calibrated)
        .into_iter()
        .zip(pinned_plans(&uncalibrated))
    {
        assert_eq!(got.label(), want.label(), "{name}");
        assert_eq!(got.serial, want.serial, "{name}");
        assert_eq!(costs(&got), costs(&want), "{name}: {:?}", got.costs);
    }
}

/// The headline triangle-counting product `L ⊙ (L·L)` on a
/// degree-ordered R-MAT graph. Its mask rows point at hub columns, so a
/// pull priced by `B`'s average column degree looks about 10× cheaper than
/// it is and sends most rows to dots (`Hybrid-1P`, about 3× slower than
/// MSA). Priced by the columns it visits, the product plans `MSA-1P` at the
/// default constants and at the 8 corners of a box of other constants
/// (`msa_overhead` 8–22, `heap_factor` 1.4–2.6, `inner_factor` 1.7–2.6):
/// the plan does not rest on one constant's exact value.
#[test]
fn headline_triangle_product_plans_msa() {
    let adj = graphs::to_undirected_simple(&graphs::rmat(10, graphs::RmatParams::default(), 7));
    let l = prepare_triangle_input(&adj);
    let mut configs = vec![HybridConfig::default()];
    for msa_overhead in [8.0, 22.0] {
        for heap_factor in [1.4, 2.6] {
            for inner_factor in [1.7, 2.6] {
                configs.push(HybridConfig {
                    msa_overhead,
                    heap_factor,
                    inner_factor,
                });
            }
        }
    }
    for cfg in configs {
        let ctx = Context::with_threads(1);
        ctx.set_config(cfg);
        let l = ctx.insert(l.clone());
        let plan = ctx
            .op(l, l, l)
            .semiring(SemiringKind::PlusPair)
            .plan()
            .unwrap();
        assert_eq!(plan.label(), "MSA-1P", "{cfg:?}: {:?}", plan.costs);
    }
}

/// The planner accepts the per-row hybrid only when rows disagree about
/// their cheapest family; the executor's own row choices for the pinned
/// hybrid case must show that disagreement.
#[test]
fn hybrid_plan_rests_on_executor_row_choices() {
    let ctx = Context::with_threads(1);
    let plans = pinned_plans(&ctx);
    let (_, plan) = plans.iter().find(|(name, _)| *name == "hybrid").unwrap();
    assert_eq!(plan.choice, Choice::Hybrid);
    let hub = hub_and_fringe();
    let families: std::collections::HashSet<_> = hybrid_choices(ctx.config(), &hub, &hub, &hub)
        .into_iter()
        .filter(|c| *c != RowChoice::Empty)
        .collect();
    assert!(families.len() >= 2, "row choices {families:?}");
}
