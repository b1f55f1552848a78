//! Typed value lanes and vector operands: engine-planned BFS equivalence
//! (push/pull/auto × every lane) against the reference BFS on random and
//! R-MAT graphs, mixed-lane heterogeneous batches through one streamed
//! sink, accumulation (merged values and the changed entries an op
//! delivers) against serial oracles, the calibratable
//! serial cutoff, and the uniform lane/polarity error surface.

use engine::{
    AccumMonoid, AccumTarget, Algorithm, Choice, Context, OpOutput, SemiringKind, ValueKind,
    ValueVec,
};
use graph_algos::bfs::bfs_reference;
use graph_algos::reference::sssp_reference;
use graph_algos::{bfs_auto_with_value, sssp_auto, Direction};
use masked_spgemm::hybrid::{cheapest, RowChoice};
use masked_spgemm::{masked_spgemm, masked_spgevm, masked_spgevm_csc, LaneValue, Phases};
use proptest::prelude::*;
use sparse::ewise::ewise_union;
use sparse::{BoolAndOr, CscMatrix, CsrMatrix, Idx, MinPlus, PlusTimes, SparseError, SparseVec};

/// Small undirected test graphs: Erdős–Rényi and R-MAT, parameterized by
/// seed and density so proptest explores both regular and hub-skewed
/// structure.
fn graph_strategy() -> impl Strategy<Value = CsrMatrix<f64>> {
    (0u64..1000, 1u32..5, 0u8..2).prop_map(|(seed, deg, kind)| {
        if kind == 1 {
            graphs::to_undirected_simple(&graphs::rmat(6, graphs::RmatParams::default(), seed))
        } else {
            graphs::to_undirected_simple(&graphs::erdos_renyi(100, deg as f64, seed))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine-planned BFS levels equal the serial reference for every
    /// direction policy on every value lane.
    #[test]
    fn bfs_auto_matches_reference_everywhere(adj in graph_strategy()) {
        let expect = bfs_reference(&adj, 0);
        let ctx = Context::with_threads(2);
        let h = ctx.insert(adj);
        for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
            for value in ValueKind::ALL {
                let got = bfs_auto_with_value(&ctx, h, 0, policy, value).unwrap();
                prop_assert_eq!(&got.levels, &expect, "{:?} {:?}", policy, value);
            }
        }
    }

    /// Engine-planned integer SSSP equals the serial Bellman-Ford oracle.
    #[test]
    fn sssp_auto_matches_reference(adj in graph_strategy()) {
        let expect = sssp_reference(&adj, 0);
        let ctx = Context::with_threads(2);
        let h = ctx.insert(adj);
        prop_assert_eq!(sssp_auto(&ctx, h, 0).unwrap(), expect);
    }

    /// A mixed-lane batch — a `bool` BFS frontier step, an `f64`
    /// `plus_times` product, and an `i64` `min_plus` product — streams
    /// bit-correct typed results through ONE `for_each_result` call.
    #[test]
    fn mixed_lane_batch_streams_through_one_sink(adj in graph_strategy()) {
        let n = adj.nrows();
        if n < 4 || adj.nnz() == 0 {
            return Ok(()); // degenerate draw — nothing to exercise
        }
        let ctx = Context::with_threads(3);
        let ha = ctx.insert(adj.clone());
        let hm = ctx.insert(graphs::erdos_renyi(n, 6.0, 77));

        // Lane views for the direct (engine-free) expectations.
        let adj_bool = adj.map(|&v| v != 0.0);
        let adj_i64 = adj.map(|&v| v as i64);
        let mask = ctx.matrix(hm);

        // Vector operands of the BFS step: frontier = {0}, visited = {0}.
        let frontier = ctx.insert_vec(SparseVec::try_new(n, vec![0], vec![true]).unwrap());
        let visited = ctx.insert_vec(SparseVec::try_new(n, vec![0], vec![true]).unwrap());

        let ops = vec![
            // BoolAndOr BFS step: next = ¬visited ⊙ (frontier · A).
            ctx.vec_op(visited, frontier, ha).complemented(true).build(),
            // PlusTimes f64 op.
            ctx.op(hm, ha, ha).build(),
            // MinPlus i64 op.
            ctx.op(hm, ha, ha)
                .semiring(SemiringKind::MinPlus)
                .value(ValueKind::I64)
                .build(),
        ];

        let vis_pat = SparseVec::try_new(n, vec![0u32], vec![()]).unwrap();
        let front_bool = SparseVec::try_new(n, vec![0u32], vec![true]).unwrap();
        let expect_bfs = masked_spgevm(
            Algorithm::Msa, true, BoolAndOr, &vis_pat, &front_bool, &adj_bool,
        ).unwrap();
        let expect_f64 = masked_spgemm(
            Algorithm::Msa, Phases::One, false, PlusTimes::<f64>::new(), &mask, &adj, &adj,
        ).unwrap();
        let expect_i64 = masked_spgemm(
            Algorithm::Msa, Phases::One, false, MinPlus::<i64>::new(), &mask, &adj_i64, &adj_i64,
        ).unwrap();

        let mut seen = vec![0usize; ops.len()];
        let mut failure: Option<String> = None;
        ctx.for_each_result(&ops, |i: usize, r: Result<OpOutput, SparseError>| {
            seen[i] += 1;
            let ok = match (i, r.expect("well-shaped op")) {
                (0, OpOutput::VecBool(v)) => v == expect_bfs,
                (1, OpOutput::MatF64(m)) => m == expect_f64,
                (2, OpOutput::MatI64(m)) => m == expect_i64,
                (idx, other) => {
                    failure.get_or_insert(format!(
                        "op {idx} delivered wrong kind {:?}", other.value_kind()
                    ));
                    return;
                }
            };
            if !ok && failure.is_none() {
                failure = Some(format!("op {i} diverged from direct result"));
            }
        });
        prop_assert_eq!(failure, None);
        prop_assert!(seen.iter().all(|&c| c == 1), "delivery counts {:?}", seen);
    }
}

#[test]
fn min_into_matrix_accumulation_matches_serial_oracle() {
    let ctx = Context::with_threads(2);
    let a = graphs::erdos_renyi(30, 5.0, 201);
    let m = graphs::erdos_renyi(30, 8.0, 202);
    let (ha, hm) = (ctx.insert(a), ctx.insert(m));

    // Seed the target with a shifted copy of the plain product.
    let product = ctx.op(hm, ha, ha).run().unwrap();
    let shifted = product.map(|v| v + 5.0);
    let target = ctx.insert(shifted.clone());

    // MinInto: the monoid is `min` even though the multiply is plus_times.
    let changed = ctx.op(hm, ha, ha).min_into(target).run().unwrap();
    let merged = ctx.matrix(target);

    // Serial oracle: union of patterns, min where both present.
    for i in 0..merged.nrows() {
        let (cols, vals) = merged.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let want = match (shifted.get(i, j), product.get(i, j)) {
                (Some(&x), Some(&y)) => x.min(y),
                (Some(&x), None) => x,
                (None, Some(&y)) => y,
                (None, None) => unreachable!("entry came from somewhere"),
            };
            assert_eq!(v, want, "row {i} col {j}");
        }
        // No union entry lost.
        let expected_count = (0..merged.ncols() as Idx)
            .filter(|&j| shifted.get(i, j).is_some() || product.get(i, j).is_some())
            .count();
        assert_eq!(cols.len(), expected_count, "row {i} pattern");
    }
    // The min lowered every shifted entry, so the op delivers them all.
    assert_eq!(changed, *merged);
}

#[test]
fn min_into_vec_accumulation_matches_serial_oracle() {
    let ctx = Context::with_threads(1);
    let adj = graphs::to_undirected_simple(&graphs::erdos_renyi(40, 4.0, 210));
    let adj_i64 = adj.map(|&v| v as i64);
    let h = ctx.insert(adj);
    let n = adj_i64.nrows();

    let dist0 = SparseVec::try_new(n, vec![0, 3], vec![0i64, 7]).unwrap();
    let dist = ctx.insert_vec(dist0.clone());
    let frontier = ctx.insert_vec(dist0.clone());
    let mask = ctx.insert_vec(SparseVec::<i64>::empty(n));

    let changed: SparseVec<i64> = ctx
        .vec_op(mask, frontier, h)
        .complemented(true)
        .semiring(SemiringKind::MinPlus)
        .min_into_vec(dist)
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();

    // Oracle: direct SpGEVM candidates min-merged with the old vector.
    let empty_mask = SparseVec::<()>::empty(n);
    let candidates = masked_spgevm(
        Algorithm::Msa,
        true,
        MinPlus::<i64>::new(),
        &empty_mask,
        &dist0,
        &adj_i64,
    )
    .unwrap();
    let expect = dist0.union_with(&candidates, |x, y| x.min(y));
    // The registered vector was updated to the merged value.
    assert_eq!(ctx.vector(dist), ValueVec::from(expect.clone()));
    // The op delivers only the strictly improved entries.
    assert_eq!(changed, changed_entries(&dist0, &expect));
    assert!(changed.nnz() > 0 && changed.nnz() < expect.nnz());
}

#[test]
fn custom_monoid_accumulates_with_caller_function() {
    let ctx = Context::with_threads(1);
    let a = graphs::erdos_renyi(20, 4.0, 220);
    let m = graphs::erdos_renyi(20, 6.0, 221);
    let (ha, hm) = (ctx.insert(a), ctx.insert(m));
    let product = ctx.op(hm, ha, ha).run().unwrap();
    let target = ctx.insert(product.clone());

    // max-merge: a monoid none of the built-ins provide.
    let v0 = ctx.aux_status(target).version;
    let changed = ctx
        .op(hm, ha, ha)
        .merge_into(
            AccumTarget::Mat(target),
            AccumMonoid::CustomF64(|x, y| if y > x { y } else { x }),
        )
        .run()
        .unwrap();
    assert_eq!(*ctx.matrix(target), product, "max(x, x) == x everywhere");
    // Nothing changed: the op delivers nothing and the target stays put.
    assert_eq!((changed.shape(), changed.nnz()), (product.shape(), 0));
    assert_eq!(ctx.aux_status(target).version, v0);

    // A custom monoid on the wrong lane is a uniform error.
    let err = ctx
        .op(hm, ha, ha)
        .merge_into(AccumTarget::Mat(target), AccumMonoid::CustomI64(|x, _| x))
        .run()
        .unwrap_err();
    assert_eq!(
        err,
        SparseError::Unsupported(engine::op_errors::ACCUM_MONOID_LANE_MISMATCH)
    );
}

/// The oracle for what an accumulating op delivers: the entries of
/// `merged` (the `union_with` of the old target and the product) that
/// `old` lacks, or holds with other bits.
fn changed_entries<T: LaneValue>(old: &SparseVec<T>, merged: &SparseVec<T>) -> SparseVec<T> {
    let (idx, vals) = merged
        .iter()
        .filter(|&(j, &v)| !old.get(j).is_some_and(|&o| T::same_bits(o, v)))
        .map(|(j, &v)| (j, v))
        .unzip();
    SparseVec::try_new(merged.dim(), idx, vals).unwrap()
}

#[test]
fn accumulation_returns_exactly_the_changed_entries() {
    let ctx = Context::with_threads(2);
    let adj = graphs::to_undirected_simple(&graphs::erdos_renyi(60, 4.0, 250));
    let n = adj.nrows();
    let h = ctx.insert(adj.clone());

    // SSSP shape: a `Min` merge delivers the strictly improved distances,
    // and the same merge repeated (here as a batch entry) changes nothing.
    let dist0 = SparseVec::try_new(n, vec![0, 1, 2, 5], vec![0i64, 1, 90, 90]).unwrap();
    let dist = ctx.insert_vec(dist0.clone());
    let frontier = ctx.insert_vec(dist0.clone());
    let all = ctx.insert_vec(SparseVec::<i64>::empty(n));
    let relax = ctx
        .vec_op(all, frontier, h)
        .complemented(true)
        .semiring(SemiringKind::MinPlus)
        .min_into_vec(dist);
    let candidates: SparseVec<i64> = ctx
        .vec_op(all, frontier, h)
        .complemented(true)
        .semiring(SemiringKind::MinPlus)
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    let changed: SparseVec<i64> = relax.run_out().unwrap().into_typed().unwrap();
    let merged = dist0.union_with(&candidates, |x, y| x.min(y));
    assert_eq!(ctx.vector(dist), ValueVec::from(merged.clone()));
    assert_eq!(changed, changed_entries(&dist0, &merged));
    assert!(changed.nnz() > 0 && changed.indices().iter().all(|&j| j != 0));
    let again = ctx.run_batch_outputs(&[relax.build()]);
    let again: SparseVec<i64> = again[0].clone().unwrap().into_typed().unwrap();
    assert_eq!((again.dim(), again.nnz()), (n, 0));
    assert_eq!(ctx.vector(dist), ValueVec::from(merged));

    // BFS shape: accumulating into the op's own complemented mask delivers
    // `next` itself, and the target becomes the union.
    let visited0 = SparseVec::try_new(n, vec![0, 3, 7], vec![true; 3]).unwrap();
    let visited = ctx.insert_vec(visited0.clone());
    let front = ctx.insert_vec(SparseVec::try_new(n, vec![0], vec![true]).unwrap());
    let got: SparseVec<bool> = ctx
        .vec_op(visited, front, h)
        .complemented(true)
        .accumulate_into_vec(visited)
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    let adj_bool = adj.map(|_| true);
    let next = masked_spgevm(
        Algorithm::Msa,
        true,
        BoolAndOr,
        &visited0.pattern(),
        &SparseVec::try_new(n, vec![0], vec![true]).unwrap(),
        &adj_bool,
    )
    .unwrap();
    assert!(next.nnz() > 0);
    assert_eq!(got, next);
    let union = visited0.union_with(&next, |x, y| x || y);
    assert_eq!(got, changed_entries(&visited0, &union));
    assert_eq!(ctx.vector(visited), ValueVec::from(union));

    // Matrix target with overlapping entries: the overlap sums, and every
    // entry of the union that differs from the old target is delivered.
    let m = graphs::erdos_renyi(30, 8.0, 251);
    let a = graphs::erdos_renyi(30, 4.0, 252);
    let old = graphs::erdos_renyi(30, 6.0, 253);
    let (hm, ha) = (ctx.insert(m), ctx.insert(a));
    let target = ctx.insert(old.clone());
    let product = ctx.op(hm, ha, ha).run().unwrap();
    let changed = ctx.op(hm, ha, ha).accumulate_into(target).run().unwrap();
    let merged = ewise_union(&old, &product, |x, y| x + y, |x| *x, |y| *y);
    assert_eq!(*ctx.matrix(target), merged);
    let expect = merged.filter(|i, j, &v| old.get(i, j).is_none_or(|o| o.to_bits() != v.to_bits()));
    assert_eq!(changed, expect);
    let overlap = product.iter().filter(|&(i, j, _)| old.get(i, j).is_some());
    assert!(overlap.count() > 0, "the case must overlap");

    // A custom monoid that keeps the stored value, into a target holding
    // every index: nothing changes, nothing is delivered, and the target's
    // values (and version) stay exactly as they were.
    let full = SparseVec::try_new(n, (0..n as Idx).collect(), (0..n as i64).collect()).unwrap();
    let keep = ctx.insert_vec(full.clone());
    let v0 = ctx.vec_version(keep);
    let got: SparseVec<i64> = ctx
        .vec_op(all, frontier, h)
        .complemented(true)
        .semiring(SemiringKind::MinPlus)
        .merge_into(AccumTarget::Vec(keep), AccumMonoid::CustomI64(|x, _| x))
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    assert_eq!((got.dim(), got.nnz()), (n, 0));
    let ValueVec::I64(after) = ctx.vector(keep) else {
        unreachable!("target stays on the i64 lane")
    };
    assert_eq!((*after).clone(), full);
    assert_eq!(ctx.vec_version(keep), v0);

    // f64 rule: entries are compared bit for bit. A `-0.0` replacing `0.0`
    // (and `0.0` replacing `-0.0`) is a change; a NaN merging to the same
    // NaN bits is not.
    let row = CsrMatrix::try_new(
        1,
        5,
        vec![0, 5],
        vec![0, 1, 2, 3, 4],
        vec![-0.0, f64::NAN, 1.0, 0.0, 5.0],
    )
    .unwrap();
    let hb = ctx.insert(row);
    let u = ctx.insert_vec(SparseVec::try_new(1, vec![0], vec![1.0f64]).unwrap());
    let none = ctx.insert_vec(SparseVec::<f64>::empty(5));
    let stored = SparseVec::try_new(5, vec![0, 1, 2, 3], vec![0.0, f64::NAN, 1.0, -0.0]).unwrap();
    let tf = ctx.insert_vec(stored.clone());
    let product: SparseVec<f64> = ctx
        .vec_op(none, u, hb)
        .complemented(true)
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    let bits = |v: &SparseVec<f64>| v.iter().map(|(j, x)| (j, x.to_bits())).collect::<Vec<_>>();
    let want = [-0.0, f64::NAN, 1.0, 0.0, 5.0].map(f64::to_bits);
    assert_eq!(bits(&product), (0..5).zip(want).collect::<Vec<_>>());
    let got: SparseVec<f64> = ctx
        .vec_op(none, u, hb)
        .complemented(true)
        .merge_into(AccumTarget::Vec(tf), AccumMonoid::CustomF64(|_, y| y))
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    let merged = stored.union_with(&product, |_, y| y);
    assert_eq!(bits(&got), bits(&changed_entries(&stored, &merged)));
    assert_eq!(got.indices(), &[0, 3, 4]);
    let ValueVec::F64(now) = ctx.vector(tf) else {
        unreachable!("target stays on the f64 lane")
    };
    assert_eq!(bits(&now), bits(&merged));
}

#[test]
fn lane_mismatches_are_uniform_errors_everywhere() {
    let ctx = Context::with_threads(2);
    let adj = graphs::erdos_renyi(16, 3.0, 230);
    let h = ctx.insert(adj);
    let vb = ctx.insert_vec(SparseVec::try_new(16, vec![1], vec![true]).unwrap());
    let vi = ctx.insert_vec(SparseVec::try_new(16, vec![1], vec![1i64]).unwrap());

    // BoolAndOr is not defined on the f64 lane.
    let expected = SparseError::Unsupported(engine::op_errors::SEMIRING_LANE_UNSUPPORTED);
    let op = ctx
        .op(h, h, h)
        .semiring(SemiringKind::BoolAndOr)
        .value(ValueKind::F64)
        .build();
    assert_eq!(ctx.run_op_out(&op).unwrap_err(), expected);
    // Same error from the batch path, in its slot only.
    let good = ctx.op(h, h, h).build();
    let results = ctx.run_batch_outputs(&[good, op]);
    assert!(results[0].is_ok());
    assert_eq!(results[1].as_ref().unwrap_err(), &expected);

    // A vector operand on a different lane than the op (the semiring is
    // valid for the op's lane, so the operand check is what fires).
    let expected = SparseError::Unsupported(engine::op_errors::OPERAND_LANE_MISMATCH);
    let op = ctx
        .vec_op(vb, vi, h)
        .semiring(SemiringKind::BoolAndOr)
        .value(ValueKind::Bool)
        .build();
    assert_eq!(ctx.run_op_out(&op).unwrap_err(), expected);

    // A non-f64 matrix product cannot merge into the f64 matrix registry.
    let expected = SparseError::Unsupported(engine::op_errors::ACCUM_TARGET_MISMATCH);
    let op = ctx
        .op(h, h, h)
        .value(ValueKind::I64)
        .accumulate_into(h)
        .build();
    assert_eq!(ctx.run_op_out(&op).unwrap_err(), expected);

    // Consuming a typed batch through the wrong concrete sink type is a
    // uniform per-index error, not a panic.
    let expected = SparseError::Unsupported(engine::op_errors::OUTPUT_KIND_MISMATCH);
    let i64_op = ctx.op(h, h, h).value(ValueKind::I64).build();
    let mut got = None;
    ctx.for_each_result(&[i64_op], |_i, r: Result<CsrMatrix<f64>, SparseError>| {
        got = Some(r)
    });
    assert_eq!(got.expect("delivered").unwrap_err(), expected);
}

#[test]
fn complemented_mca_is_uniform_on_vector_paths() {
    let expected = SparseError::Unsupported(masked_spgemm::api::COMPLEMENT_UNSUPPORTED);
    let adj = graphs::erdos_renyi(12, 3.0, 240);
    let adj_bool = adj.map(|&v| v != 0.0);
    let u = SparseVec::try_new(12, vec![0], vec![true]).unwrap();
    let m = SparseVec::<()>::empty(12);

    // Direct SpGEVM path.
    let direct = masked_spgevm(Algorithm::Mca, true, BoolAndOr, &m, &u, &adj_bool);
    assert_eq!(direct.unwrap_err(), expected);
    // The CSC path funnels through the same gate (Inner supports
    // complement, so it succeeds — the gate is present, not bypassed).
    let csc = CscMatrix::from_csr(&adj_bool);
    assert!(masked_spgevm_csc(true, BoolAndOr, &m, &u, &csc).is_ok());

    // Engine vector descriptor with the same forced combination.
    let ctx = Context::with_threads(1);
    let h = ctx.insert(adj);
    let hu = ctx.insert_vec(u);
    let hm = ctx.insert_vec(SparseVec::<bool>::empty(12));
    let err = ctx
        .vec_op(hm, hu, h)
        .complemented(true)
        .algorithm(Algorithm::Mca)
        .run_out()
        .unwrap_err();
    assert_eq!(err, expected);
}

#[test]
fn serial_cutoff_routes_small_products_without_changing_results() {
    let ctx = Context::with_threads(4);
    let a = graphs::erdos_renyi(48, 4.0, 250);
    let m = graphs::erdos_renyi(48, 6.0, 251);
    let (ha, hm) = (ctx.insert(a), ctx.insert(m));

    // No cutoff (the default): plans dispatch the pool.
    assert_eq!(ctx.serial_cutoff_flops(), 0.0);
    let parallel_plan = ctx.op(hm, ha, ha).plan().unwrap();
    assert!(!parallel_plan.serial);
    let parallel = ctx.op(hm, ha, ha).run().unwrap();

    // A huge cutoff classifies this product as below dispatch cost.
    ctx.set_serial_cutoff_flops(1e18);
    let serial_plan = ctx.op(hm, ha, ha).plan().unwrap();
    assert!(serial_plan.serial, "tiny product must be routed serial");
    let serial = ctx.op(hm, ha, ha).run().unwrap();
    assert_eq!(serial, parallel, "serial routing changed the bits");

    // Forced-algorithm ops honor the routing too (plan carries it) —
    // including fully-overridden ops where both algorithm and phases skip
    // the cost model.
    for alg in [Algorithm::Msa, Algorithm::Hash, Algorithm::Inner] {
        let direct = ctx.op(hm, ha, ha).algorithm(alg).run().unwrap();
        assert_eq!(direct, parallel, "{alg:?} serial result diverged");
        let full = ctx.op(hm, ha, ha).algorithm(alg).phases(Phases::One);
        assert!(
            full.plan().unwrap().serial,
            "{alg:?}: fully-overridden op ignored the serial cutoff"
        );
        assert_eq!(full.run().unwrap(), parallel);
    }

    // A forced two-phase op runs the two-phase driver serially.
    let two = ctx.op(hm, ha, ha).phases(Phases::Two);
    let two_plan = two.plan().unwrap();
    assert!(two_plan.serial && two_plan.phases == Phases::Two);
    assert_eq!(two.run().unwrap(), parallel, "serial 2P changed the bits");

    // The hub-plus-fringe graph plans the per-row hybrid on the pool. Its
    // serial plan names the fixed family that runs instead: the cheapest
    // of the plan's own costs.
    let hub = ctx.insert(hub_and_fringe());
    let serial_hub = ctx.op(hub, hub, hub).plan().unwrap();
    assert!(serial_hub.serial);
    let c = serial_hub.costs;
    let family = match cheapest([c.msa, c.mca, c.heap, c.inner], false).0 {
        RowChoice::Msa => Algorithm::Msa,
        RowChoice::Mca => Algorithm::Mca,
        RowChoice::Heap => Algorithm::Heap,
        RowChoice::Inner => Algorithm::Inner,
        RowChoice::Empty => unreachable!("the cheapest family is never Empty"),
    };
    assert_eq!(serial_hub.choice, Choice::Fixed(family), "{c:?}");
    let serial_hub_result = ctx.op(hub, hub, hub).run().unwrap();

    // Dropping the cutoff restores pool dispatch (plan cache invalidated).
    ctx.set_serial_cutoff_flops(0.0);
    assert!(!ctx.op(hm, ha, ha).plan().unwrap().serial);
    let hybrid_plan = ctx.op(hub, hub, hub).plan().unwrap();
    assert_eq!(
        (hybrid_plan.choice, hybrid_plan.serial),
        (Choice::Hybrid, false)
    );
    let hybrid = ctx.op(hub, hub, hub).run().unwrap();
    assert_eq!(
        serial_hub_result, hybrid,
        "serial hub plan changed the bits"
    );

    // Vector plans are always serial, cutoff or not.
    let u = ctx.insert_vec(SparseVec::try_new(48, vec![0], vec![true]).unwrap());
    let vm = ctx.insert_vec(SparseVec::<bool>::empty(48));
    assert!(ctx.vec_op(vm, u, ha).plan().unwrap().serial);
}

/// A vector plan names what runs: one row runs the one-phase driver, so a
/// vector op forced to two phases, planned or with a forced algorithm,
/// plans and labels as 1P and returns what the unforced op returns.
#[test]
fn vector_plans_run_one_phase_whatever_the_op_asks() {
    let ctx = Context::with_threads(1);
    let g = ctx.insert(graphs::grid2d(8, 8));
    let u = ctx.insert_vec(SparseVec::try_new(64, vec![0, 9, 27], vec![1.0; 3]).unwrap());
    let m = ctx.insert_vec(SparseVec::try_new(64, vec![1, 8, 10, 26], vec![1.0; 4]).unwrap());
    for alg in [None, Some(Algorithm::Msa), Some(Algorithm::Inner)] {
        for compl in [false, true] {
            let op = || {
                let op = ctx.vec_op(m, u, g).complemented(compl);
                match alg {
                    Some(alg) => op.algorithm(alg),
                    None => op,
                }
            };
            let forced = op().phases(Phases::Two);
            let plan = forced.plan().unwrap();
            let case = format!("{alg:?} compl={compl}: {}", plan.label());
            assert_eq!(plan.phases, Phases::One, "{case}");
            assert!(plan.label().ends_with("-1P"), "{case}");
            assert!(plan.serial, "{case}");
            let got: SparseVec<f64> = forced.run_out().unwrap().into_typed().unwrap();
            let expect: SparseVec<f64> = op().run_out().unwrap().into_typed().unwrap();
            assert_eq!(got, expect, "{case}");
        }
    }
}

/// The `1 × dim` matrix of a vector's pattern.
fn row_matrix(dim: usize, indices: &[Idx]) -> CsrMatrix<f64> {
    let mut coo = sparse::CooMatrix::new(1, dim);
    for &j in indices {
        coo.push(0, j, 1.0);
    }
    coo.to_csr()
}

/// A vector plan is the one-row matrix plan: the same choice, phases,
/// serial flag and cost bits for `m ⊙ (u·B)` and for `M1 ⊙ (U1·B)` on the
/// `1 × n` matrices of `m` and `u`, and on the `f64` lane the same product
/// bits, and under `accumulate_into_vec` and `accumulate_into` the same
/// changed entries and merged targets. The last BFS levels on a grid (a
/// complemented visited mask holding at least 98% of the vertices and a
/// frontier of a few) return what the forced MSA and pull return on the
/// `bool` and `i64` lanes, as do the forced heap and hash. Three levels
/// from the end, with six vertices left to reach, the plan is the MSA,
/// which probes the visited mask once per vertex the frontier touches
/// instead of stamping all of it; no level of the second half plans the
/// pull, which scans all `n` vertices. A hub's row under a plain mask
/// plans MCA.
#[test]
fn vector_plan_is_the_one_row_matrix_plan() {
    let grid = graphs::grid2d(32, 32);
    let n = grid.nrows();
    let levels = bfs_reference(&grid, 0);
    let depth = *levels.iter().max().unwrap();
    let pick = |keep: &dyn Fn(i64) -> bool| -> Vec<Idx> {
        (0..n as Idx)
            .filter(|&v| keep(levels[v as usize]))
            .collect()
    };
    // The BFS step that expands level `l`: (visited mask, frontier).
    let step = |l: i64| (pick(&|x| x <= l), pick(&|x| x == l));
    let rmat = graphs::to_undirected_simple(&graphs::rmat(10, graphs::RmatParams::default(), 7));
    let thirds: Vec<Idx> = (0..n as Idx).step_by(3).collect();
    let mid = step(depth / 2);
    // (name, B, mask, u, complemented, pinned label)
    let mut cases = vec![
        ("source", &grid, vec![0], vec![0], true, None),
        ("mid level", &grid, mid.0, mid.1.clone(), true, None),
        ("plain", &grid, thirds.clone(), mid.1, false, None),
        ("rmat hub", &rmat, vec![0], vec![0], true, None),
        (
            "rmat plain",
            &rmat,
            thirds.clone(),
            thirds.clone(),
            false,
            None,
        ),
        ("rmat mca", &rmat, thirds, vec![0], false, Some("MCA-1P")),
    ];
    for (from_end, label) in [(3, Some("MSA-1P")), (2, None), (1, None)] {
        let (visited, frontier) = step(depth - from_end);
        cases.push(("last levels", &grid, visited, frontier, true, label));
    }
    let bits = |p: &engine::Plan| {
        let c = p.costs;
        (
            [c.msa, c.mca, c.heap, c.inner, c.hybrid].map(f64::to_bits),
            c.flops,
        )
    };
    for (name, b, mask, u, compl, label) in cases {
        // A fresh context per case: no plan is served from another case's
        // cache entry.
        let ctx = Context::with_threads(1);
        let hb = ctx.insert(b.clone());
        let vec = |idx: &[Idx]| {
            ctx.insert_vec(SparseVec::try_new(n, idx.to_vec(), vec![true; idx.len()]).unwrap())
        };
        let (m, uv) = (vec(&mask), vec(&u));
        let (m1, u1) = (
            ctx.insert(row_matrix(n, &mask)),
            ctx.insert(row_matrix(n, &u)),
        );
        let op = ctx.vec_op(m, uv, hb).complemented(compl);
        let got = op.plan().unwrap();
        let want = ctx.op(m1, u1, hb).complemented(compl).plan().unwrap();
        let case = format!(
            "{name} ({} of {n}, u {}): {}",
            mask.len(),
            u.len(),
            got.label()
        );
        assert_eq!(got.choice, want.choice, "{case} vs {}", want.label());
        assert_eq!(got.phases, want.phases, "{case}");
        assert_eq!(got.serial, want.serial, "{case}");
        assert!(got.serial && got.phases == Phases::One, "{case}");
        assert_eq!(bits(&got), bits(&want), "{case}: {:?}", got.costs);
        if let Some(label) = label {
            assert_eq!(got.label(), label, "{case}: {:?}", got.costs);
        }

        // The products, and the accumulations, on the f64 lane.
        let vbits = |v: SparseVec<f64>| {
            let vals: Vec<u64> = v.values().iter().map(|x| x.to_bits()).collect();
            (v.indices().to_vec(), vals)
        };
        let row_bits = |m: &CsrMatrix<f64>| vbits(SparseVec::from_row(m.clone()).unwrap());
        let vals = u.iter().map(|&j| 0.5 + f64::from(j % 7)).collect();
        let uf = SparseVec::try_new(n, u.clone(), vals).unwrap();
        let (hu, hu1) = (ctx.insert_vec(uf.clone()), ctx.insert(uf.into_row()));
        let vop = ctx.vec_op(m, hu, hb).complemented(compl);
        let mop = ctx.op(m1, hu1, hb).complemented(compl);
        let product: SparseVec<f64> = vop.run_out().unwrap().into_typed().unwrap();
        assert_eq!(vbits(product), row_bits(&mop.run().unwrap()), "{case}");
        let evens: Vec<Idx> = (0..n as Idx).step_by(2).collect();
        let target = SparseVec::try_new(n, evens.clone(), vec![1.25; evens.len()]).unwrap();
        let (tv, tm) = (
            ctx.insert_vec(target.clone()),
            ctx.insert(target.into_row()),
        );
        let changed: SparseVec<f64> = vop
            .accumulate_into_vec(tv)
            .run_out()
            .unwrap()
            .into_typed()
            .unwrap();
        let changed_row = mop.accumulate_into(tm).run().unwrap();
        assert_eq!(vbits(changed), row_bits(&changed_row), "{case}");
        let ValueVec::F64(merged) = ctx.vector(tv) else {
            unreachable!("the target stays on the f64 lane")
        };
        assert_eq!(
            vbits((*merged).clone()),
            row_bits(&ctx.matrix(tm)),
            "{case}"
        );

        if name != "last levels" {
            continue;
        }
        assert!(
            mask.len() * 100 >= 98 * n && (1..=7).contains(&u.len()),
            "{case}"
        );
        let ui64 = ctx.insert_vec(SparseVec::try_new(n, u.clone(), vec![1i64; u.len()]).unwrap());
        for lane_op in [op, ctx.vec_op(m, ui64, hb).complemented(compl)] {
            let planned = lane_op.run_out().unwrap();
            assert!(planned.nnz() > 0, "{case}");
            for alg in [
                Algorithm::Msa,
                Algorithm::Heap,
                Algorithm::Hash,
                Algorithm::Inner,
            ] {
                let forced = lane_op.algorithm(alg).run_out().unwrap();
                assert_eq!(
                    planned,
                    forced,
                    "{case} {:?} vs {alg:?}",
                    planned.value_kind()
                );
            }
        }
    }

    // The second half of the traversal: a visited mask of at least half
    // the vertices, and a frontier that thins out. No level pulls (each
    // planned on a fresh context, so no plan is served from the cache).
    for l in depth / 2..depth {
        let ctx = Context::with_threads(1);
        let hb = ctx.insert(grid.clone());
        let (visited, frontier) = step(l);
        let vec = |idx: Vec<Idx>| {
            let len = idx.len();
            ctx.insert_vec(SparseVec::try_new(n, idx, vec![true; len]).unwrap())
        };
        let (m, u) = (vec(visited), vec(frontier));
        let plan = ctx.vec_op(m, u, hb).complemented(true).plan().unwrap();
        assert_ne!(plan.label(), "Inner-1P", "level {l}: {:?}", plan.costs);
    }
}

/// A hub joined to every vertex of a path: hub rows and tiny rows want
/// different families, so the planner picks the per-row hybrid.
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

/// `i64` sums and products that overflow wrap (two's complement) on every
/// path — planned, forced, serial and batched — in debug and release
/// builds alike, instead of panicking inside the engine in debug.
#[test]
fn i64_lane_wraps_on_overflow_in_every_profile() {
    const MAX: i64 = i64::MAX;
    let ctx = Context::with_threads(2);
    let a = CsrMatrix::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![MAX, MAX, MAX]).unwrap();
    let b = CsrMatrix::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![1i64, 2, 1]).unwrap();
    let full = CsrMatrix::try_new(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![1i64; 4]).unwrap();
    // C(0,0) = MAX·1 + MAX·1 wraps in the sum; every `MAX·2` wraps in the
    // product.
    let expect = CsrMatrix::try_new(
        2,
        2,
        vec![0, 2, 4],
        vec![0, 1, 0, 1],
        vec![
            MAX.wrapping_add(MAX),
            MAX.wrapping_mul(2),
            MAX,
            MAX.wrapping_mul(2),
        ],
    )
    .unwrap();
    let (ha, hb, hm) = (
        ctx.insert_typed(a),
        ctx.insert_typed(b),
        ctx.insert_typed(full),
    );
    let op = ctx.op(hm, ha, hb).value(ValueKind::I64);
    let expect = OpOutput::MatI64(expect);
    assert_eq!(op.run_out().unwrap(), expect, "planned");
    for alg in Algorithm::ALL {
        for ph in Phases::ALL {
            let forced = op.algorithm(alg).phases(ph);
            assert_eq!(forced.run_out().unwrap(), expect, "{alg:?}-{}", ph.suffix());
        }
    }
    let batch = ctx.run_batch_outputs(&[op.build(), op.algorithm(Algorithm::Inner).build()]);
    for got in batch {
        assert_eq!(got.unwrap(), expect, "batched");
    }
    ctx.set_serial_cutoff_flops(1e18);
    assert!(op.plan().unwrap().serial);
    assert_eq!(op.run_out().unwrap(), expect, "serial");
}

#[test]
fn vector_plans_cache_under_fingerprint_classes() {
    let ctx = Context::with_threads(1);
    let adj = graphs::to_undirected_simple(&graphs::erdos_renyi(200, 6.0, 260));
    let h = ctx.insert(adj);
    let frontier = ctx.insert_vec(SparseVec::try_new(200, vec![0], vec![true]).unwrap());
    let visited = ctx.insert_vec(SparseVec::try_new(200, vec![0], vec![true]).unwrap());

    let misses0 = ctx.plan_cache_stats().misses;
    let plan = || {
        ctx.vec_op(visited, frontier, h)
            .complemented(true)
            .plan()
            .unwrap()
    };
    let p1 = plan();
    assert!(matches!(p1.choice, Choice::Fixed(_)));
    assert_eq!(ctx.plan_cache_stats().misses, misses0 + 1);

    // Same shapes → a hit, even after an update in the same nnz regime.
    let hits0 = ctx.plan_cache_stats().hits;
    ctx.update_vec(
        frontier,
        SparseVec::try_new(200, vec![5], vec![true]).unwrap(),
    );
    plan();
    assert_eq!(ctx.plan_cache_stats().hits, hits0 + 1);

    // A frontier in a different population regime is a different class.
    let wide: Vec<Idx> = (0..150).collect();
    ctx.update_vec(
        frontier,
        SparseVec::try_new(200, wide.clone(), vec![true; wide.len()]).unwrap(),
    );
    let misses1 = ctx.plan_cache_stats().misses;
    plan();
    assert_eq!(ctx.plan_cache_stats().misses, misses1 + 1);

    // Lane changes the class too (bool vs i64 frontier of equal nnz).
    let misses2 = ctx.plan_cache_stats().misses;
    ctx.update_vec(
        frontier,
        SparseVec::try_new(200, wide.clone(), vec![1i64; wide.len()]).unwrap(),
    );
    plan();
    assert_eq!(ctx.plan_cache_stats().misses, misses2 + 1);
}

#[test]
fn vector_registry_updates_and_versions() {
    let ctx = Context::with_threads(1);
    let h = ctx.insert_vec(SparseVec::try_new(10, vec![2], vec![true]).unwrap());
    assert_eq!(ctx.vector(h).value_kind(), ValueKind::Bool);
    assert_eq!(ctx.vector(h).nnz(), 1);
    let v0 = ctx.vec_version(h);

    // Updates may change the lane; the version advances.
    ctx.update_vec(
        h,
        SparseVec::try_new(10, vec![2, 5], vec![1i64, 9]).unwrap(),
    );
    assert_eq!(ctx.vector(h).value_kind(), ValueKind::I64);
    assert_eq!(ctx.vector(h).nnz(), 2);
    assert!(ctx.vec_version(h) > v0);
    assert_eq!(ctx.vector(h).indices(), &[2, 5]);
    assert_eq!(ctx.vector(h).pattern().indices(), &[2, 5]);
    ctx.remove_vec(h);
}
