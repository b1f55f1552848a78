//! Operation-descriptor API tests: heterogeneous-semiring batches and
//! streamed sinks must match per-op direct results for every
//! `Algorithm × Phases`, the byte-budgeted caches must evict (and rebuild)
//! correctly, and the fingerprint-keyed plan cache must hit across
//! structurally-similar versions.

use engine::{AuxStatus, Context, DynLane, MaskedOp, MatrixHandle, SemiringKind, ValueKind};
use masked_spgemm::{masked_spgemm, Algorithm, Phases};
use proptest::prelude::*;
use sparse::{CsrMatrix, Idx, SparseError};

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

/// The direct (engine-free) result of one descriptor, on the erased
/// semiring so the bits are comparable.
fn direct_result(
    ctx: &Context,
    op: &MaskedOp,
    alg: Algorithm,
    ph: Phases,
) -> Result<CsrMatrix<f64>, SparseError> {
    let (mask, a, b) = op.mat_operands().expect("matrix operands");
    masked_spgemm(
        alg,
        ph,
        op.complemented,
        DynLane::<f64>::new(op.semiring),
        &ctx.matrix(mask),
        &ctx.matrix(a),
        &ctx.matrix(b),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One heterogeneous batch covering every `Algorithm × Phases` as
    /// per-op overrides, with alternating semirings and polarities:
    /// collected results must equal per-op direct calls bit for bit, and
    /// the streamed sink must see every index exactly once with the same
    /// bits.
    #[test]
    fn heterogeneous_batch_matches_per_op_direct(
        a in csr_strategy(12, 12, 0.3),
        b in csr_strategy(12, 12, 0.3),
        mask in csr_strategy(12, 12, 0.4),
    ) {
        let ctx = Context::with_threads(3);
        let (hm, ha, hb) = (
            ctx.insert(mask),
            ctx.insert(a),
            ctx.insert(b),
        );
        let kinds = [
            SemiringKind::PlusTimes,
            SemiringKind::PlusPair,
            SemiringKind::PlusFirst,
            SemiringKind::PlusSecond,
            SemiringKind::MinPlus,
        ];
        let mut ops = Vec::new();
        let mut shape = Vec::new(); // (algorithm, phases) per op
        for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
            for (j, ph) in Phases::ALL.into_iter().enumerate() {
                let kind = kinds[(i * Phases::ALL.len() + j) % kinds.len()];
                let compl = (i + j) % 3 == 0 && alg.supports_complement();
                ops.push(
                    ctx.op(hm, ha, hb)
                        .semiring(kind)
                        .complemented(compl)
                        .algorithm(alg)
                        .phases(ph)
                        .build(),
                );
                shape.push((alg, ph));
            }
        }
        let expected: Vec<CsrMatrix<f64>> = ops
            .iter()
            .zip(&shape)
            .map(|(op, &(alg, ph))| direct_result(&ctx, op, alg, ph).unwrap())
            .collect();

        // Collected (input order).
        let collected = ctx.run_batch_collect(&ops);
        for (i, (got, want)) in collected.iter().zip(&expected).enumerate() {
            let (alg, ph) = shape[i];
            prop_assert_eq!(
                got.as_ref().unwrap(), want,
                "op {} {:?}-{:?} {:?}", i, alg, ph, ops[i].semiring
            );
        }

        // Streamed (completion order): every index delivered exactly once.
        let mut seen = vec![0usize; ops.len()];
        let mut mismatch = None;
        ctx.for_each_result(&ops, |i: usize, r: Result<CsrMatrix<f64>, SparseError>| {
            seen[i] += 1;
            if r.as_ref().ok() != Some(&expected[i]) && mismatch.is_none() {
                mismatch = Some(i);
            }
            // result dropped here — the sink retains nothing
        });
        prop_assert_eq!(mismatch, None, "streamed result diverged");
        prop_assert!(seen.iter().all(|&c| c == 1), "delivery counts {:?}", seen);
    }

    /// Planner-chosen heterogeneous ops (no overrides) match the MSA-1P
    /// reference on their own semirings.
    #[test]
    fn planned_heterogeneous_ops_match_reference(
        a in csr_strategy(11, 11, 0.35),
        m1 in csr_strategy(11, 11, 0.4),
        m2 in csr_strategy(11, 11, 0.15),
    ) {
        let ctx = Context::with_threads(2);
        let (ha, h1, h2) = (ctx.insert(a), ctx.insert(m1), ctx.insert(m2));
        let ops = vec![
            ctx.op(h1, ha, ha).build(),
            ctx.op(h2, ha, ha).semiring(SemiringKind::PlusPair).build(),
            ctx.op(h1, ha, ha).semiring(SemiringKind::MinPlus).build(),
            ctx.op(h2, ha, ha).semiring(SemiringKind::PlusSecond).complemented(true).build(),
        ];
        let results = ctx.run_batch_collect(&ops);
        for (op, got) in ops.iter().zip(&results) {
            let want = direct_result(&ctx, op, Algorithm::Msa, Phases::One).unwrap();
            prop_assert_eq!(got.as_ref().unwrap(), &want, "{:?}", op.semiring);
        }
    }
}

#[test]
fn mca_complement_is_a_uniform_error_everywhere() {
    let expected = SparseError::Unsupported(masked_spgemm::api::COMPLEMENT_UNSUPPORTED);
    let ctx = Context::with_threads(2);
    let m = graphs::erdos_renyi(20, 4.0, 1);
    let h = ctx.insert(m.clone());

    // Direct call.
    let direct = masked_spgemm(
        Algorithm::Mca,
        Phases::One,
        true,
        DynLane::<f64>::new(SemiringKind::PlusTimes),
        &m,
        &m,
        &m,
    );
    assert_eq!(direct.unwrap_err(), expected);

    // Forced engine execution.
    let forced = ctx
        .op(h, h, h)
        .semiring(SemiringKind::PlusTimes)
        .complemented(true)
        .algorithm(Algorithm::Mca)
        .phases(Phases::One)
        .run();
    assert_eq!(forced.unwrap_err(), expected);

    // Descriptor with an override.
    let op = ctx
        .op(h, h, h)
        .complemented(true)
        .algorithm(Algorithm::Mca)
        .build();
    assert_eq!(ctx.run_op(&op).unwrap_err(), expected);

    // Batched descriptor: error lands in its slot, others run.
    let ops = vec![ctx.op(h, h, h).build(), op];
    let results = ctx.run_batch_collect(&ops);
    assert!(results[0].is_ok());
    assert_eq!(results[1].as_ref().unwrap_err(), &expected);

    // Serial scratch driver (used by batch workers).
    let mut set = masked_spgemm::ScratchSet::<DynLane<f64>>::new();
    let serial = set.run(
        masked_spgemm::Choice::Fixed(Algorithm::Mca),
        Phases::One,
        true,
        true,
        DynLane::<f64>::new(SemiringKind::PlusTimes),
        masked_spgemm::HybridConfig::default(),
        &m,
        &m,
        &m,
        None,
    );
    assert_eq!(serial.unwrap_err(), expected);
}

#[test]
fn aux_cache_evicts_lru_and_rebuilds_on_demand() {
    let ctx = Context::with_threads(1);
    let h1 = ctx.insert(graphs::erdos_renyi(64, 6.0, 2));
    let h2 = ctx.insert(graphs::erdos_renyi(64, 6.0, 3));

    // Unbounded: both CSC copies stay resident.
    let _ = ctx.csc(h1);
    let _ = ctx.csc(h2);
    assert!(ctx.aux_status(h1).has_csc && ctx.aux_status(h2).has_csc);
    let both = ctx.aux_cache_stats().bytes;
    assert!(both > 0);

    // Budget for roughly one CSC: the least-recently-used (h1) is evicted.
    ctx.set_aux_budget(both / 2 + both / 8);
    let stats = ctx.aux_cache_stats();
    assert!(stats.evictions >= 1, "no eviction under budget: {stats:?}");
    assert!(
        !ctx.aux_status(h1).has_csc,
        "LRU victim should be the older CSC"
    );
    assert!(ctx.aux_status(h2).has_csc, "recent CSC survives");

    // The evicted auxiliary is rebuilt transparently — and evicts the
    // other one in turn.
    let rebuilt = ctx.csc(h1);
    assert_eq!(rebuilt.to_csr(), *ctx.matrix(h1));
    assert!(ctx.aux_status(h1).has_csc);
    assert!(
        !ctx.aux_status(h2).has_csc,
        "budget only fits one CSC at a time"
    );
    assert!(ctx.aux_cache_stats().bytes <= ctx.aux_cache_stats().budget_bytes);

    // Touching an auxiliary protects it from the next eviction round:
    // degrees for h2, then h1's CSC again — h2's degrees are newer than
    // h1's CSC only until h1 is touched.
    ctx.set_aux_budget(usize::MAX);
    let _ = ctx.csc(h2);
    let _ = ctx.csc(h1); // h1 now most recent
    ctx.set_aux_budget(both / 2 + both / 8);
    assert!(ctx.aux_status(h1).has_csc, "most-recently-used survives");
    assert!(!ctx.aux_status(h2).has_csc);
}

/// One evictable auxiliary: which handle and slot, the bytes the ledger
/// charged for it, and a fetch that (re)builds or touches it and compares
/// the result with the value first built.
struct AuxRecord {
    handle: MatrixHandle,
    slot: AuxSlot,
    bytes: usize,
    fetch_equal: Box<dyn Fn(&Context) -> bool>,
}

#[derive(Copy, Clone, Debug, PartialEq)]
enum AuxSlot {
    Cast(ValueKind),
    Csc(ValueKind),
    Transpose,
    RowDegrees,
}

/// Materialize `slot` on `handle`, checking that the ledger charged
/// exactly the built value's bytes.
fn materialize(ctx: &Context, handle: MatrixHandle, slot: AuxSlot) -> AuxRecord {
    fn record<T: PartialEq + 'static>(
        ctx: &Context,
        handle: MatrixHandle,
        slot: AuxSlot,
        get: impl Fn(&Context) -> T + 'static,
        bytes: impl Fn(&T) -> usize,
    ) -> AuxRecord {
        let before = ctx.aux_cache_stats().bytes;
        let original = get(ctx);
        let bytes = bytes(&original);
        assert_eq!(
            ctx.aux_cache_stats().bytes - before,
            bytes,
            "{slot:?} on {handle:?} charged its own bytes"
        );
        AuxRecord {
            handle,
            slot,
            bytes,
            fetch_equal: Box::new(move |c| get(c) == original),
        }
    }
    let h = handle;
    match slot {
        AuxSlot::Cast(ValueKind::Bool) => {
            record(ctx, h, slot, move |c| c.bool_view(h), |m| m.heap_bytes())
        }
        AuxSlot::Cast(ValueKind::I64) => {
            record(ctx, h, slot, move |c| c.i64_view(h), |m| m.heap_bytes())
        }
        AuxSlot::Cast(ValueKind::F64) => {
            record(ctx, h, slot, move |c| c.f64_view(h), |m| m.heap_bytes())
        }
        AuxSlot::Csc(ValueKind::Bool) => {
            record(ctx, h, slot, move |c| c.bool_csc(h), |m| m.heap_bytes())
        }
        AuxSlot::Csc(ValueKind::I64) => {
            record(ctx, h, slot, move |c| c.i64_csc(h), |m| m.heap_bytes())
        }
        AuxSlot::Csc(ValueKind::F64) => record(ctx, h, slot, move |c| c.csc(h), |m| m.heap_bytes()),
        AuxSlot::Transpose => record(ctx, h, slot, move |c| c.transposed_mat(h), |t| t.bytes()),
        AuxSlot::RowDegrees => record(ctx, h, slot, move |c| c.row_degrees(h), |d| 4 * d.len()),
    }
}

/// The `AuxStatus` a handle must report when exactly `resident` records
/// are materialized.
fn expected_status(ctx: &Context, handle: MatrixHandle, resident: &[AuxRecord]) -> AuxStatus {
    let stored = ctx.stats(handle).value;
    let mut s = AuxStatus {
        version: ctx.aux_status(handle).version,
        ..AuxStatus::default()
    };
    for r in resident.iter().filter(|r| r.handle == handle) {
        match r.slot {
            AuxSlot::Cast(ValueKind::Bool) => s.has_bool_view = true,
            AuxSlot::Cast(ValueKind::I64) => s.has_i64_view = true,
            AuxSlot::Cast(ValueKind::F64) => s.has_f64_view = true,
            AuxSlot::Csc(lane) => {
                s.has_csc |= lane == stored;
                match lane {
                    ValueKind::Bool => s.has_bool_csc = true,
                    ValueKind::I64 => s.has_i64_csc = true,
                    ValueKind::F64 => s.has_f64_csc = true,
                }
            }
            AuxSlot::Transpose => s.has_transpose = true,
            AuxSlot::RowDegrees => s.has_row_degrees = true,
        }
    }
    s
}

/// Every evictable slot — each lane's cast and CSC, the transpose, the row
/// degrees — on `bool`-, `i64`- and `f64`-stored entries. Squeezing the
/// budget one record at a time evicts the least-recently-used record
/// alone: exactly its status flag clears, the ledger's bytes equal the
/// records still resident, and every rebuilt value equals the original.
#[test]
fn every_aux_slot_evicts_alone_and_rebuilds_equal() {
    let ctx = Context::with_threads(1);
    let base = graphs::erdos_renyi(48, 5.0, 9);
    let handles = [
        ctx.insert_typed(base.map_values(|v| v != 0.0)),
        ctx.insert_typed(base.map_values(|v| v as i64)),
        ctx.insert(base),
    ];
    let mut records = Vec::new();
    for &h in &handles {
        let stored = ctx.stats(h).value;
        // Casts first, so a cross-lane CSC finds its cast resident and is
        // charged for its own bytes only. The stored lane has no cast slot.
        for lane in ValueKind::ALL.into_iter().filter(|&l| l != stored) {
            records.push(materialize(&ctx, h, AuxSlot::Cast(lane)));
        }
        for lane in ValueKind::ALL {
            records.push(materialize(&ctx, h, AuxSlot::Csc(lane)));
        }
        records.push(materialize(&ctx, h, AuxSlot::Transpose));
        records.push(materialize(&ctx, h, AuxSlot::RowDegrees));
    }
    assert_eq!(records.len(), 3 * 7);
    // Touch every record in list order, so list order is LRU order.
    for r in &records {
        assert!((r.fetch_equal)(&ctx), "{:?} changed on a cache hit", r.slot);
    }
    let total: usize = records.iter().map(|r| r.bytes).sum();
    assert_eq!(ctx.aux_cache_stats().bytes, total);
    for &h in &handles {
        assert_eq!(ctx.aux_status(h), expected_status(&ctx, h, &records));
    }

    let evictions_before = ctx.aux_cache_stats().evictions;
    let mut evicted_bytes = 0;
    for k in 1..=records.len() {
        evicted_bytes += records[k - 1].bytes;
        ctx.set_aux_budget(total - evicted_bytes);
        let stats = ctx.aux_cache_stats();
        assert_eq!(stats.evictions - evictions_before, k as u64);
        assert_eq!(stats.bytes, total - evicted_bytes, "after evicting {k}");
        for &h in &handles {
            assert_eq!(
                ctx.aux_status(h),
                expected_status(&ctx, h, &records[k..]),
                "after evicting {:?} on {:?}",
                records[k - 1].slot,
                records[k - 1].handle
            );
        }
    }

    ctx.set_aux_budget(usize::MAX);
    for r in &records {
        assert!((r.fetch_equal)(&ctx), "rebuilt {:?} differs", r.slot);
    }
    assert_eq!(ctx.aux_cache_stats().bytes, total);
}

#[test]
fn plan_cache_lru_evicts_under_byte_budget() {
    let ctx = Context::with_threads(1);
    // Generate many distinct structural classes (different shapes).
    let handles: Vec<_> = (0..24)
        .map(|i| ctx.insert(graphs::erdos_renyi(16 + 8 * i, 4.0, 70 + i as u64)))
        .collect();
    for &h in &handles {
        ctx.plan(h, false, h, h).unwrap();
    }
    let full = ctx.plan_cache_stats();
    assert_eq!(full.entries, 24, "each shape is its own class");

    // Budget for ~4 entries: LRU eviction must kick in.
    let per_entry = full.bytes / full.entries;
    ctx.set_plan_budget(per_entry * 4);
    let squeezed = ctx.plan_cache_stats();
    assert!(squeezed.entries <= 4, "still {} entries", squeezed.entries);
    assert!(squeezed.evictions >= 20, "evictions {}", squeezed.evictions);

    // The surviving entries are the most recently planned ones.
    let misses_before = ctx.plan_cache_stats().misses;
    ctx.plan(handles[23], false, handles[23], handles[23])
        .unwrap();
    assert_eq!(
        ctx.plan_cache_stats().misses,
        misses_before,
        "most recent plan should still be cached"
    );
    let hits_before = ctx.plan_cache_stats().hits;
    ctx.plan(handles[0], false, handles[0], handles[0]).unwrap();
    assert_eq!(
        ctx.plan_cache_stats().hits,
        hits_before,
        "evicted plan must be recomputed, not served"
    );
}

#[test]
fn fingerprint_cache_hits_across_structurally_similar_versions() {
    let ctx = Context::with_threads(1);
    // Average degree 10 puts nnz (~1280) mid-bucket: the ~4% peel below
    // stays inside the same ~1.5× fingerprint class.
    let base = graphs::erdos_renyi(128, 10.0, 80);
    let h = ctx.insert(base.clone());
    ctx.plan(h, false, h, h).unwrap();
    let before = ctx.plan_cache_stats();

    // Re-weight every edge (same pattern, new values): a new version in
    // the same structural class — the plan must be served from cache.
    let reweighted = base.map(|v| v * 3.0);
    ctx.update(h, reweighted);
    assert_eq!(ctx.plan_fingerprint(h), {
        let tmp = ctx.insert(base.clone());
        let f = ctx.plan_fingerprint(tmp);
        ctx.remove(tmp);
        f
    });
    ctx.plan(h, false, h, h).unwrap();
    let after_reweight = ctx.plan_cache_stats();
    assert_eq!(
        after_reweight.hits,
        before.hits + 1,
        "re-weighted version missed the plan cache"
    );
    assert_eq!(after_reweight.misses, before.misses);

    // Peel a small fraction of edges (same nnz regime): still a hit.
    let mut kept = 0usize;
    let peeled = base.filter(|_, _, _| {
        kept += 1;
        !kept.is_multiple_of(23) // drop ~4%
    });
    assert!(peeled.nnz() < base.nnz());
    ctx.update(h, peeled);
    ctx.plan(h, false, h, h).unwrap();
    let after_peel = ctx.plan_cache_stats();
    assert_eq!(
        after_peel.hits,
        after_reweight.hits + 1,
        "same-regime peel missed the plan cache"
    );

    // Collapse to a far sparser matrix (different class): must re-plan.
    ctx.update(h, graphs::erdos_renyi(128, 1.0, 81));
    ctx.plan(h, false, h, h).unwrap();
    let after_collapse = ctx.plan_cache_stats();
    assert_eq!(
        after_collapse.misses,
        after_peel.misses + 1,
        "regime change must recompute the plan"
    );
}

#[test]
fn accumulate_into_merges_and_updates_target() {
    let ctx = Context::with_threads(2);
    let a = graphs::erdos_renyi(24, 5.0, 90);
    let m = graphs::erdos_renyi(24, 8.0, 91);
    let (ha, hm) = (ctx.insert(a.clone()), ctx.insert(m.clone()));

    // Accumulator starts from the plain product.
    let product = ctx.op(hm, ha, ha).run().unwrap();
    let target = ctx.insert(product.clone());
    let v0 = ctx.aux_status(target).version;

    // Accumulate the same product into it: every shared entry doubles.
    let changed = ctx.op(hm, ha, ha).accumulate_into(target).run().unwrap();
    // The handle now holds the merged matrix (version advanced).
    let merged = ctx.matrix(target);
    assert_eq!(merged.pattern(), product.pattern());
    for (got, want) in merged.values().iter().zip(product.values()) {
        assert_eq!(*got, want * 2.0);
    }
    assert!(ctx.aux_status(target).version > v0);
    // Every entry changed, so the op delivers all of the merged matrix.
    assert_eq!(changed, *merged);

    // Accumulation with a mismatched target shape is a proper error.
    let wrong = ctx.insert(CsrMatrix::<f64>::empty(5, 5));
    let err = ctx.op(hm, ha, ha).accumulate_into(wrong).run().unwrap_err();
    assert!(matches!(err, SparseError::DimMismatch { .. }));

    // In a batch, accumulating ops merge on the calling thread; a
    // min_plus accumulation uses the op's own `add`.
    let dist_target = ctx.insert(product.map(|v| v + 100.0));
    let ops = vec![ctx
        .op(hm, ha, ha)
        .semiring(SemiringKind::MinPlus)
        .accumulate_into(dist_target)
        .build()];
    let results = ctx.run_batch_collect(&ops);
    let changed = results[0].as_ref().unwrap();
    let got = ctx.matrix(dist_target);
    let min_plus_product = ctx
        .op(hm, ha, ha)
        .semiring(SemiringKind::MinPlus)
        .run()
        .unwrap();
    // Every merged entry is the min of the shifted value and the fresh
    // min-plus product (for shared positions).
    for i in 0..got.nrows() {
        let (cols, vals) = got.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let shifted = product.get(i, j).map(|x| x + 100.0);
            let fresh = min_plus_product.get(i, j).copied();
            let want = match (shifted, fresh) {
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (None, None) => unreachable!("entry came from somewhere"),
            };
            assert_eq!(v, want, "row {i} col {j}");
        }
    }
    // The batch entry delivers the merged entries that differ from the
    // shifted start: those the fresh min-plus product lowered or added.
    let expect = got.filter(|i, j, &v| product.get(i, j).map(|x| x + 100.0) != Some(v));
    assert!(expect.nnz() > 0);
    assert_eq!(*changed, expect);
}

#[test]
fn streamed_sink_consumes_without_materializing_all() {
    // A "peak residency" sink: counts how many results it has seen and
    // drops each immediately; with more ops than workers, delivery
    // interleaves with execution (the channel never holds the whole
    // batch because the receive loop drains it concurrently).
    let ctx = Context::with_threads(2);
    let a = ctx.insert(graphs::erdos_renyi(64, 6.0, 95));
    let masks: Vec<_> = (0..16)
        .map(|i| ctx.insert(graphs::erdos_renyi(64, 5.0, 96 + i)))
        .collect();
    let ops: Vec<MaskedOp> = masks
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let kind = if i % 2 == 0 {
                SemiringKind::PlusPair
            } else {
                SemiringKind::PlusTimes
            };
            ctx.op(m, a, a).semiring(kind).build()
        })
        .collect();
    let mut total_nnz = 0usize;
    let mut delivered = 0usize;
    ctx.for_each_result(&ops, |_i, r: Result<CsrMatrix<f64>, SparseError>| {
        total_nnz += r.expect("well-shaped").nnz();
        delivered += 1;
    });
    assert_eq!(delivered, ops.len());
    // Cross-check the running total against collected results.
    let collected: usize = ctx
        .run_batch_collect(&ops)
        .into_iter()
        .map(|r| r.unwrap().nnz())
        .sum();
    assert_eq!(total_nnz, collected);
}

#[test]
fn pooled_batch_and_intra_op_parallelism_match_serial() {
    // The batch queue and single-op row parallelism now share one
    // persistent pool. Whatever the composition — serial context, wide
    // batch, wide per-op execution, or a batch issued right after wide
    // per-op calls warmed the same workers — the results must be
    // bit-identical.
    let adj = graphs::to_undirected_simple(&graphs::rmat(7, graphs::RmatParams::default(), 42));
    let build_ops = |ctx: &Context| -> (Vec<MaskedOp>, engine::MatrixHandle) {
        let h = ctx.insert(adj.clone());
        let masks: Vec<_> = (0..12)
            .map(|i| ctx.insert(graphs::erdos_renyi(adj.nrows(), 6.0, 900 + i)))
            .collect();
        let ops = masks
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
        (ops, h)
    };

    let serial_ctx = Context::with_threads(1);
    let (serial_ops, _) = build_ops(&serial_ctx);
    let expect: Vec<CsrMatrix<f64>> = serial_ctx
        .run_batch_collect(&serial_ops)
        .into_iter()
        .map(|r| r.expect("well-shaped"))
        .collect();

    let wide_ctx = Context::with_threads(4);
    let (wide_ops, _) = build_ops(&wide_ctx);
    // Intra-op parallel execution, one op at a time on the pool.
    let per_op: Vec<CsrMatrix<f64>> = wide_ops
        .iter()
        .map(|op| wide_ctx.run_op(op).expect("well-shaped"))
        .collect();
    assert_eq!(per_op, expect, "intra-op parallel path diverged");
    // Inter-op batch on the same (now warm) workers.
    let batched: Vec<CsrMatrix<f64>> = wide_ctx
        .run_batch_collect(&wide_ops)
        .into_iter()
        .map(|r| r.expect("well-shaped"))
        .collect();
    assert_eq!(batched, expect, "pooled batch path diverged");
}

/// Handles that name nothing (removed, or never registered) are a uniform
/// `UnknownHandle` error on every op path — single ops, plans, vector ops,
/// accumulation targets and batch entries — and a failed op registers
/// nothing.
#[test]
fn unknown_handles_are_errors_on_the_op_path() {
    let ctx = Context::with_threads(2);
    let g = ctx.insert(graphs::erdos_renyi(32, 4.0, 60));
    let gone = ctx.insert(graphs::erdos_renyi(32, 4.0, 61));
    ctx.remove(gone);
    let frontier = ctx.insert_vec(sparse::SparseVec::try_new(32, vec![3], vec![true]).unwrap());
    let gone_vec = ctx.insert_vec(sparse::SparseVec::try_new(32, vec![4], vec![true]).unwrap());
    ctx.remove_vec(gone_vec);
    let bytes = ctx.registry_bytes();
    let unknown = |r: Result<(), SparseError>| assert_eq!(r, Err(SparseError::UnknownHandle));

    unknown(ctx.op(g, gone, g).run().map(drop));
    unknown(ctx.op(gone, g, g).plan().map(drop));
    unknown(ctx.op(g, g, g).accumulate_into(gone).run().map(drop));
    unknown(ctx.plan(g, false, g, gone).map(drop));
    unknown(ctx.vec_op(frontier, gone_vec, g).run_out().map(drop));
    unknown(ctx.vec_op(gone_vec, frontier, g).run_out().map(drop));
    unknown(ctx.vec_op(frontier, frontier, gone).run_out().map(drop));
    unknown(ctx.vec_op(frontier, gone_vec, g).plan().map(drop));
    let ops = [ctx.op(g, g, g).build(), ctx.op(g, g, gone).build()];
    let results = ctx.run_batch_collect(&ops);
    assert!(results[0].is_ok());
    unknown(results[1].clone().map(drop));
    assert_eq!(ctx.registry_bytes(), bytes, "a failed op registered data");
}
