//! Native lane-typed matrix storage: typed registration must be
//! operationally indistinguishable from the old `f64`-canonical scheme
//! (bit-identical `OpOutput`s for every `Algorithm × ValueKind`), cast
//! auxiliaries must invalidate per lane on `update_typed`, and a natively
//! registered `bool` graph must run BFS end-to-end without ever
//! materializing an `f64` canonical copy (the ISSUE 5 acceptance bar).

use engine::{Context, OpOutput, SemiringKind, ValueKind, ValueMat};
use graph_algos::bfs::bfs_reference;
use graph_algos::{bfs_auto, ktruss_auto, sssp_auto, Direction};
use masked_spgemm::{Algorithm, LaneValue};
use proptest::prelude::*;
use sparse::CsrMatrix;
use std::sync::Arc;

/// Small undirected test graphs (Erdős–Rényi and hub-skewed R-MAT).
fn graph_strategy() -> impl Strategy<Value = CsrMatrix<f64>> {
    (0u64..1000, 1u32..5, 0u8..2).prop_map(|(seed, deg, kind)| {
        if kind == 1 {
            graphs::to_undirected_simple(&graphs::rmat(6, graphs::RmatParams::default(), seed))
        } else {
            graphs::to_undirected_simple(&graphs::erdos_renyi(80, deg as f64, seed))
        }
    })
}

/// The semiring each lane's round-trip runs on (the `bool` lane has
/// exactly one semiring).
fn lane_semiring(value: ValueKind) -> SemiringKind {
    match value {
        ValueKind::Bool => SemiringKind::BoolAndOr,
        _ => SemiringKind::PlusPair,
    }
}

/// Register `m` natively on `value`'s lane (casting with the canonical
/// lane rules, exactly what the f64-registered side's cached views do).
fn insert_native(ctx: &Context, m: &CsrMatrix<f64>, value: ValueKind) -> engine::MatrixHandle {
    match value {
        ValueKind::Bool => ctx.insert_typed(m.map_values(bool::from_f64)),
        ValueKind::I64 => ctx.insert_typed(m.map_values(i64::from_f64)),
        ValueKind::F64 => ctx.insert(m.clone()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Typed insert → op → `OpOutput` round-trips bit-identically with
    /// `f64`-canonical registration for every `Algorithm × ValueKind`
    /// (mask, A, and B all natively typed on one side, all `f64` on the
    /// other).
    #[test]
    fn native_registration_matches_canonical_everywhere(
        adj in graph_strategy(),
        mask_seed in 0u64..100,
    ) {
        let n = adj.nrows();
        let mask = graphs::erdos_renyi(n, 5.0, mask_seed);
        for value in ValueKind::ALL {
            let semiring = lane_semiring(value);
            // f64-canonical side: the historical registration; non-f64
            // lanes read the operands through cached cast views.
            let canon = Context::with_threads(2);
            let (cm, ca) = (canon.insert(mask.clone()), canon.insert(adj.clone()));
            // Native side: operands stored on the op's lane — zero-copy.
            let native = Context::with_threads(2);
            let (nm, na) = (
                insert_native(&native, &mask, value),
                insert_native(&native, &adj, value),
            );
            for algorithm in Algorithm::ALL {
                for complemented in [false, true] {
                    let run = |ctx: &Context, m, a| {
                        ctx.op(m, a, a)
                            .semiring(semiring)
                            .value(value)
                            .complemented(complemented)
                            .algorithm(algorithm)
                            .run_out()
                    };
                    let expect = run(&canon, cm, ca);
                    let got = run(&native, nm, na);
                    match (expect, got) {
                        (Ok(e), Ok(g)) => prop_assert_eq!(
                            e, g, "{:?} {:?} compl={}", algorithm, value, complemented
                        ),
                        // MCA × complemented: both sides must report the
                        // same uniform unsupported error.
                        (Err(e), Err(g)) => prop_assert_eq!(e, g),
                        (e, g) => prop_assert!(
                            false,
                            "divergent outcome for {:?} {:?} compl={}: {:?} vs {:?}",
                            algorithm, value, complemented, e.is_ok(), g.is_ok()
                        ),
                    }
                }
            }
        }
    }

    /// Planned (unforced) ops agree between native and canonical
    /// registration too — the planner reads structure only, so the stored
    /// lane must never change a result.
    #[test]
    fn planned_ops_agree_across_storage_lanes(adj in graph_strategy()) {
        let canon = Context::with_threads(2);
        let ca = canon.insert(adj.clone());
        for value in ValueKind::ALL {
            let native = Context::with_threads(2);
            let na = insert_native(&native, &adj, value);
            let semiring = lane_semiring(value);
            let expect = canon.op(ca, ca, ca).semiring(semiring).value(value).run_out().unwrap();
            let got = native.op(na, na, na).semiring(semiring).value(value).run_out().unwrap();
            prop_assert_eq!(expect, got, "{:?}", value);
        }
    }
}

/// `update_typed` must drop exactly the updated entry's aux slots — every
/// stale lane's cast/CSC record — while other entries' auxiliaries (and
/// their ledger bytes) survive untouched.
#[test]
fn update_typed_invalidates_exactly_the_stale_lanes() {
    let ctx = Context::with_threads(1);
    let m1 = graphs::erdos_renyi(64, 6.0, 1).map_values(i64::from_f64);
    let m2 = graphs::erdos_renyi(64, 6.0, 2);
    let h1 = ctx.insert_typed(m1);
    let h2 = ctx.insert(m2);

    // Materialize cross-lane casts and CSC forms on both entries.
    let _ = ctx.bool_view(h1); // cast: i64-stored → bool
    let _ = ctx.f64_view(h1); // cast: i64-stored → f64
    let _ = ctx.i64_csc(h1); // CSC of the native lane
    let _ = ctx.csc(h2); // CSC of h2's native f64 lane
    let _ = ctx.bool_view(h2); // cast on the other entry
    let s1 = ctx.aux_status(h1);
    assert!(s1.has_bool_view && s1.has_f64_view && s1.has_csc);
    assert!(!s1.has_i64_view, "native lane never has a cast slot");
    let bytes_with_both = ctx.aux_cache_stats().bytes;
    let s2_before = ctx.aux_status(h2);

    // Update h1 (same lane, new values): every one of ITS lanes' slots is
    // stale and must be dropped; h2's records must not move.
    let m1b = graphs::erdos_renyi(64, 6.0, 3).map_values(i64::from_f64);
    ctx.update_typed(h1, m1b.clone());
    let s1_after = ctx.aux_status(h1);
    assert!(
        !s1_after.has_bool_view && !s1_after.has_f64_view && !s1_after.has_csc,
        "stale lane slots survived update_typed: {s1_after:?}"
    );
    assert!(s1_after.version > s1.version);
    assert_eq!(ctx.aux_status(h2), s2_before, "unrelated entry was touched");
    assert!(
        ctx.aux_cache_stats().bytes < bytes_with_both,
        "ledger kept bytes for dropped slots"
    );

    // Rebuilt casts reflect the new matrix.
    assert_eq!(*ctx.bool_view(h1), m1b.map_values(bool::cast_from));
    assert_eq!(*ctx.f64_view(h1), m1b.map_values(f64::cast_from));

    // A lane *change* through update_typed is also a full invalidation and
    // the stats lane follows the store.
    ctx.update_typed(h1, graphs::erdos_renyi(64, 6.0, 4));
    assert_eq!(ctx.stats(h1).value, ValueKind::F64);
    assert!(!ctx.aux_status(h1).has_bool_view);
}

/// Native-lane requests are zero-copy: the view getter returns the stored
/// `Arc` itself, never a cast.
#[test]
fn native_lane_views_are_zero_copy() {
    let ctx = Context::with_threads(1);
    let adj = graphs::erdos_renyi(32, 4.0, 9);
    let hb = ctx.insert_typed(adj.map_values(bool::from_f64));
    let hi = ctx.insert_typed(adj.map_values(i64::from_f64));
    let hf = ctx.insert(adj);

    let ValueMat::Bool(native_b) = ctx.value_mat(hb) else {
        panic!("stored lane must be bool")
    };
    assert!(Arc::ptr_eq(&native_b, &ctx.bool_view(hb)));
    let ValueMat::I64(native_i) = ctx.value_mat(hi) else {
        panic!("stored lane must be i64")
    };
    assert!(Arc::ptr_eq(&native_i, &ctx.i64_view(hi)));
    let ValueMat::F64(native_f) = ctx.value_mat(hf) else {
        panic!("stored lane must be f64")
    };
    assert!(Arc::ptr_eq(&native_f, &ctx.f64_view(hf)));
    assert!(Arc::ptr_eq(&native_f, &ctx.matrix(hf)));
}

/// A bool graph registered natively (`insert_typed`) runs
/// `bfs_auto` end-to-end with zero `f64` canonical allocation — no cast
/// slot on any lane is ever populated (the native `bool` lane serves every
/// operand), and the entry's resident bytes are structure-only plus
/// 1 byte/nnz.
#[test]
fn insert_bool_bfs_never_materializes_an_f64_canonical() {
    let adjf = graphs::to_undirected_simple(&graphs::rmat(8, graphs::RmatParams::default(), 21));
    let expect = bfs_reference(&adjf, 0);
    let adj_bool = adjf.map_values(bool::from_f64);

    let ctx = Context::with_threads(2);
    let h = ctx.insert_typed(adj_bool.clone());
    for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
        let got = bfs_auto(&ctx, h, 0, policy).unwrap();
        assert_eq!(got.levels, expect, "{policy:?}");
    }

    // Cache-stats assertions: the traversal consumed the native bool
    // storage (plus its CSC for pull levels) and never built a cast view
    // OR a cross-lane CSC on ANY lane — in particular no f64 canonical in
    // either format.
    let status = ctx.aux_status(h);
    assert!(!status.has_f64_view, "an f64 canonical was materialized");
    assert!(!status.has_i64_view);
    assert!(
        !status.has_bool_view,
        "the native lane must be served zero-copy, not as a cast"
    );
    assert!(!status.has_f64_csc, "an f64-valued CSC was materialized");
    assert!(!status.has_i64_csc);

    // Entry bytes ≈ structure-only: values cost 1 byte/nnz on this lane
    // (an f64-canonical entry would add 8 bytes/nnz).
    let stats = ctx.stats(h);
    assert_eq!(stats.value, ValueKind::Bool);
    assert_eq!(stats.bytes, adj_bool.structure_bytes() + adj_bool.nnz());
    assert_eq!(ctx.registry_bytes(), stats.bytes);

    // The same registration through the f64-canonical path pays ~8x more
    // resident value bytes for identical BFS levels.
    let canon = Context::with_threads(2);
    let hc = canon.insert(adjf.clone());
    assert_eq!(
        bfs_auto(&canon, hc, 0, Direction::Auto).unwrap().levels,
        expect
    );
    assert_eq!(
        canon.stats(hc).bytes,
        adjf.structure_bytes() + 8 * adjf.nnz()
    );
}

/// A registered vector is billed in `registry_bytes()` as its `1 × dim`
/// matrix: `insert_vec` raises the total by those bytes, `update_vec`
/// moves it to the new value's, and `remove_vec` restores it.
#[test]
fn registered_vectors_count_in_registry_bytes() {
    let ctx = Context::with_threads(1);
    ctx.insert(graphs::erdos_renyi(16, 3.0, 7));
    let base = ctx.registry_bytes();
    let v = sparse::SparseVec::try_new(100, vec![3, 9, 40], vec![1.5f64, 2.0, -4.0]).unwrap();
    let row = ValueMat::from(v.clone().into_row());
    let h = ctx.insert_vec(v);
    assert!(row.bytes() > 0);
    assert_eq!(ctx.registry_bytes(), base + row.bytes());
    let w = sparse::SparseVec::try_new(100, vec![0], vec![true]).unwrap();
    let w_row = ValueMat::from(w.clone().into_row());
    ctx.update_vec(h, w);
    assert_eq!(ctx.registry_bytes(), base + w_row.bytes());
    ctx.remove_vec(h);
    assert_eq!(ctx.registry_bytes(), base);
}

/// `registry_bytes() + aux_cache_stats().bytes` (the pair `bench_bfs`
/// sums) must count the transpose storage exactly once when
/// `transpose_handle` promotes the cached transpose to a registry entry.
#[test]
fn transpose_handle_does_not_double_bill_resident_bytes() {
    let ctx = Context::with_threads(1);
    let adj = graphs::erdos_renyi(64, 5.0, 13);
    let h = ctx.insert(adj);
    let entry_bytes = ctx.stats(h).bytes;

    let ht = ctx.transpose_handle(h);
    let t_bytes = ctx.stats(ht).bytes;
    // The transpose is a registry entry now; the parent's Transpose aux
    // record must have been released (evicting the slot would free
    // nothing while the derived entry pins the Arc).
    assert_eq!(ctx.registry_bytes(), entry_bytes + t_bytes);
    assert_eq!(
        ctx.aux_cache_stats().bytes,
        0,
        "transpose billed to the aux ledger AND the registry"
    );
    // The slot itself stays resident for transposed_mat callers.
    assert!(ctx.aux_status(h).has_transpose);
}

/// Lane-typed registration flows through the other engine-planned
/// applications: k-truss on a native bool pattern peels on the exact i64
/// lane (no f64 canonical), and SSSP consumes a natively-i64 adjacency
/// zero-copy.
#[test]
fn native_graphs_run_ktruss_and_sssp() {
    let adj = graphs::to_undirected_simple(&graphs::erdos_renyi(60, 9.0, 5));
    let canon = Context::with_threads(2);
    let hf = canon.insert(adj.clone());

    let native = Context::with_threads(2);
    let hb = native.insert_typed(adj.map_values(bool::from_f64));
    for k in [3usize, 4] {
        let expect = ktruss_auto(&canon, hf, k).unwrap();
        let got = ktruss_auto(&native, hb, k).unwrap();
        assert_eq!(got.truss.pattern(), expect.truss.pattern(), "k={k}");
        assert_eq!(got.iterations, expect.iterations);
    }
    // The peel lifted the pattern to i64 transiently (owned by the work
    // entry, not billed to the adjacency's aux cache) and stayed off the
    // f64 lane entirely.
    let status = native.aux_status(hb);
    assert!(!status.has_f64_view && !status.has_f64_csc);
    assert!(!status.has_i64_view, "lift must not pin an aux cast");

    let hi = native.insert_typed(adj.map_values(i64::from_f64));
    assert_eq!(
        sssp_auto(&native, hi, 0).unwrap(),
        sssp_auto(&canon, hf, 0).unwrap()
    );
    assert!(!native.aux_status(hi).has_f64_view);
}

/// Matrix accumulation now merges on the target's native lane: an i64
/// product `MergeInto` an i64-stored target, end to end off the f64 lane.
#[test]
fn typed_matrix_accumulation_merges_natively() {
    let ctx = Context::with_threads(1);
    let a = graphs::erdos_renyi(40, 5.0, 11);
    let mask = graphs::erdos_renyi(40, 8.0, 12);
    let (ha, hm) = (
        ctx.insert_typed(a.map_values(i64::from_f64)),
        ctx.insert_typed(mask.map_values(i64::from_f64)),
    );
    let product: CsrMatrix<i64> = ctx
        .op(hm, ha, ha)
        .semiring(SemiringKind::PlusPair)
        .value(ValueKind::I64)
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    let target = ctx.insert_typed(product.clone());
    let changed: CsrMatrix<i64> = ctx
        .op(hm, ha, ha)
        .semiring(SemiringKind::PlusPair)
        .value(ValueKind::I64)
        .accumulate_into(target)
        .run_out()
        .unwrap()
        .into_typed()
        .unwrap();
    // Merging the product into itself doubles every count, natively.
    assert_eq!(ctx.stats(target).value, ValueKind::I64);
    let ValueMat::I64(stored) = ctx.value_mat(target) else {
        panic!("target must stay on the i64 lane")
    };
    assert_eq!(*stored, product.map_values(|v| 2 * v));
    // Every count is at least 1, so every entry changed and the op
    // delivers the whole merged matrix.
    assert_eq!(changed, *stored);
}

/// The single-op vector path reuses the context's per-lane kernel scratch:
/// results stay bit-identical across repeated calls and across operand
/// sizes (the scratch regrows monotonically and larger-than-needed
/// accumulators must not leak state between products).
#[test]
fn vec_scratch_reuse_is_bit_stable_across_calls_and_sizes() {
    let ctx = Context::with_threads(1);
    let big = graphs::to_undirected_simple(&graphs::erdos_renyi(200, 6.0, 31));
    let small = graphs::to_undirected_simple(&graphs::erdos_renyi(40, 4.0, 32));
    let expectations: Vec<(engine::MatrixHandle, Vec<i64>)> = [big, small]
        .into_iter()
        .map(|g| {
            let expect = bfs_reference(&g, 0);
            (ctx.insert_typed(g.map_values(bool::from_f64)), expect)
        })
        .collect();
    // Interleave graphs so every call re-acquires scratch sized for the
    // other product; repeat to cover the warm path.
    for round in 0..3 {
        for (h, expect) in &expectations {
            for policy in [Direction::Push, Direction::Pull, Direction::Auto] {
                let got = bfs_auto(&ctx, *h, 0, policy).unwrap();
                assert_eq!(&got.levels, expect, "round {round} {policy:?}");
            }
        }
    }
}

/// Mixed-storage batches: one `for_each_result` call over operands stored
/// on three different native lanes delivers the same outputs as
/// per-op single execution.
#[test]
fn mixed_native_storage_batch_matches_single_ops() {
    let adj = graphs::to_undirected_simple(&graphs::erdos_renyi(64, 5.0, 41));
    let mask = graphs::erdos_renyi(64, 7.0, 42);
    let ctx = Context::with_threads(3);
    let hm_bool = ctx.insert_typed(mask.map_values(bool::from_f64));
    let ha_bool = ctx.insert_typed(adj.map_values(bool::from_f64));
    let ha_i64 = ctx.insert_typed(adj.map_values(i64::from_f64));
    let ha_f64 = ctx.insert(adj);

    // The bool-stored mask fronts ops on every lane — masks are consumed
    // natively, so no cast is built for it.
    let ops = vec![
        ctx.op(hm_bool, ha_bool, ha_bool)
            .semiring(SemiringKind::BoolAndOr)
            .value(ValueKind::Bool)
            .build(),
        ctx.op(hm_bool, ha_i64, ha_i64)
            .semiring(SemiringKind::PlusPair)
            .value(ValueKind::I64)
            .build(),
        ctx.op(hm_bool, ha_f64, ha_f64).build(),
    ];
    let singles: Vec<OpOutput> = ops.iter().map(|op| ctx.run_op_out(op).unwrap()).collect();
    let batched = ctx.run_batch_outputs(&ops);
    for (i, (single, batch)) in singles.iter().zip(&batched).enumerate() {
        assert_eq!(single, batch.as_ref().unwrap(), "op {i}");
    }
    assert!(
        !ctx.aux_status(hm_bool).has_f64_view && !ctx.aux_status(hm_bool).has_i64_view,
        "mask operands must never be cast"
    );
}
