//! BFS harness: engine-planned direction-optimized traversal measured
//! push vs. pull vs. auto at widths 1/2/4, emitted machine-readable.
//!
//! The workload is the paper's motivating masked computation — per-level
//! frontier expansion `next = ¬visited ⊙ (frontier · A)` — run three ways
//! through the engine's vector descriptors ([`graph_algos::bfs_auto`]):
//! **push** forces the scatter kernel (`MSA`), **pull** forces the
//! per-unvisited-vertex dot products (`Inner`), and **auto** leaves each
//! level to the planner, which prices every family on the level's one row
//! (Beamer's direction choice as a plan decision). The direct `masked_spgevm` loop
//! ([`fn@graph_algos::bfs`]) is measured alongside as the engine-free
//! baseline.
//!
//! Vector products are single-row and always run serially, so width mostly
//! exercises context plumbing (the pool exists but is not dispatched);
//! the committed record keeps that flat profile honest over time.
//!
//! Samples go through the criterion shim (min/median/mean); all
//! measurements are written to `BENCH_bfs.json` at the repo root so the
//! perf trajectory is tracked in-tree, plus a console ratio table. Run
//! with `cargo run --release -p bench --bin bench_bfs [--quick]`.

use std::time::Duration;

use bench::{banner, HarnessArgs};
use criterion::{reports_to_json, take_reports, BenchmarkId, Criterion};
use engine::Context;
use graph_algos::{bfs, bfs_auto, Direction};
use profile::table::{write_text, Table};

const WIDTHS: [usize; 3] = [1, 2, 4];

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "bench_bfs",
        "engine-planned BFS push vs pull vs auto",
        &args,
    );

    let scale = args.pick(9u32, 11, 13);
    let adj = graphs::to_undirected_simple(&graphs::rmat(scale, graphs::RmatParams::default(), 21));
    println!(
        "R-MAT scale {scale}: {} vertices, {} edges",
        adj.nrows(),
        adj.nnz() / 2
    );
    let expect = graph_algos::bfs::bfs_reference(&adj, 0);

    let mut criterion = Criterion::default().configure_from_args();
    let mut group = criterion.benchmark_group("bfs");
    group
        .sample_size(args.reps.max(10))
        .warm_up_time(Duration::from_millis(50))
        .measurement_time(Duration::from_secs(2));

    for &width in &WIDTHS {
        let ctx = Context::with_threads(width);
        ctx.calibrate();
        let h = ctx.insert(adj.clone());
        for (name, policy) in [
            ("push", Direction::Push),
            ("pull", Direction::Pull),
            ("auto", Direction::Auto),
        ] {
            // Correctness before timing: every policy must agree with the
            // serial reference.
            let levels = bfs_auto(&ctx, h, 0, policy).expect("well-shaped").levels;
            assert_eq!(levels, expect, "{name} diverged at width {width}");
            group.bench_with_input(
                BenchmarkId::new("engine", format!("{name}/w{width}")),
                &(),
                |b, _| b.iter(|| bfs_auto(&ctx, h, 0, policy).expect("well-shaped").depth),
            );
        }
        group.bench_with_input(
            BenchmarkId::new("direct", format!("auto/w{width}")),
            &(),
            |b, _| b.iter(|| bfs(&adj, 0, Direction::Auto).depth),
        );
    }
    group.finish();

    // Resident registry bytes after one full traversal: the f64-canonical
    // registration (historical `insert`; the bool lane is a cached cast
    // aux) vs. native-bool registration (`insert_typed`; the bool lane IS
    // the storage — ISSUE 5's inversion). Entry bytes come from the typed
    // registry, aux bytes from the byte-budgeted cache ledger.
    let measure_registry = |native: bool| -> (usize, usize) {
        let ctx = Context::with_threads(1);
        let h = if native {
            ctx.insert_typed(adj.map_values(|v| v != 0.0))
        } else {
            ctx.insert(adj.clone())
        };
        let r = bfs_auto(&ctx, h, 0, Direction::Auto).expect("well-shaped");
        assert_eq!(r.levels, expect, "registry probe diverged");
        (ctx.stats(h).bytes, ctx.aux_cache_stats().bytes)
    };
    let (canon_entry, canon_aux) = measure_registry(false);
    let (native_entry, native_aux) = measure_registry(true);
    println!(
        "registry bytes after BFS: f64-canonical entry {canon_entry} + aux {canon_aux} = {} \
         | native-bool entry {native_entry} + aux {native_aux} = {} (resident ratio {:.2})",
        canon_entry + canon_aux,
        native_entry + native_aux,
        (canon_entry + canon_aux) as f64 / (native_entry + native_aux).max(1) as f64,
    );

    let reports = take_reports();
    let json = reports_to_json(&reports);
    // Anchored to the repo root (two levels above this crate's manifest),
    // not the process CWD — the committed record must update no matter
    // where the binary is launched from.
    let record = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_bfs.json");
    let payload = format!(
        "{{\n\"reports\": {json},\n\"registry_bytes\": {{\n  \
         \"f64_canonical\": {{\"entry\": {canon_entry}, \"aux\": {canon_aux}}},\n  \
         \"native_bool\": {{\"entry\": {native_entry}, \"aux\": {native_aux}}}\n}}\n}}\n"
    );
    std::fs::write(&record, payload).expect("write BENCH_bfs.json");
    println!(
        "wrote {} ({} measurements + registry bytes)",
        record.display(),
        reports.len()
    );

    // Console table: per-policy engine times and the engine/direct ratio.
    let find = |name: &str| -> Option<f64> {
        reports
            .iter()
            .find(|r| r.label == name)
            .map(|r| r.sample.min.as_secs_f64())
    };
    let mut table = Table::new(&[
        "width",
        "push_s",
        "pull_s",
        "auto_s",
        "direct_s",
        "auto/direct",
    ]);
    for &width in &WIDTHS {
        let (Some(push), Some(pull), Some(auto), Some(direct)) = (
            find(&format!("engine/push/w{width}")),
            find(&format!("engine/pull/w{width}")),
            find(&format!("engine/auto/w{width}")),
            find(&format!("direct/auto/w{width}")),
        ) else {
            continue;
        };
        table.push(vec![
            width.to_string(),
            format!("{push:.6}"),
            format!("{pull:.6}"),
            format!("{auto:.6}"),
            format!("{direct:.6}"),
            format!("{:.3}", auto / direct),
        ]);
    }
    println!("{}", table.to_console());
    table
        .write_csv(args.out_dir.join("bench_bfs.csv"))
        .expect("write csv");
    write_text(args.out_dir.join("bench_bfs.txt"), &table.to_console()).expect("write txt");
}
