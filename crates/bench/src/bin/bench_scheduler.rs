//! Scheduler harness: the persistent work-claiming pool, measured on the
//! three workloads it was built for and emitted machine-readable.
//!
//! Workloads (each at widths 1, 2, 4):
//!
//! * **repeat_loop** — the same small masked multiply issued repeatedly;
//!   per-call dispatch latency dominates, which is what persistent parked
//!   workers keep low;
//! * **skewed_kernel** — one masked multiply over an R-MAT graph
//!   (`a = 0.57` hub rows); chunk claiming keeps workers busy where static
//!   splitting strands them behind the hub chunk;
//! * **batch** — an engine op batch drained by pool workers
//!   ([`engine::Context::run_batch_collect`]).
//!
//! The committed `BENCH_scheduler.json` also holds `spawn/*` rows: the
//! per-call `std::thread::scope` scheduler the pool replaced, measured
//! before that scheduler was deleted. They are the record of the
//! pool-vs-spawn verdict; this harness no longer produces them, and its
//! rewrite keeps every row it did not measure.
//!
//! Samples are taken through the criterion shim (min/median/mean); all
//! measurements are written to `BENCH_scheduler.json` (repo root when run
//! from there) plus a console table. Run with
//! `cargo run --release -p bench --bin bench_scheduler [--quick]`.

use std::time::Duration;

use bench::{banner, merge_record_rows, scheduler_workloads, HarnessArgs};
use criterion::{reports_to_json, take_reports, BenchmarkId, Criterion};
use engine::Context;
use masked_spgemm::{masked_spgemm, thread_pool, Algorithm, Phases};
use profile::table::{write_text, Table};
use sparse::{CsrMatrix, PlusTimes};

const WIDTHS: [usize; 3] = [1, 2, 4];

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "bench_scheduler",
        "persistent work-claiming pool scheduling",
        &args,
    );
    let sr = PlusTimes::<f64>::new();

    // Small repeated multiply: fixed size regardless of preset — the
    // point is the per-call overhead, not the kernel throughput.
    let (rep_a, rep_m) = scheduler_workloads::repeat_pair();
    let rep_iters = args.pick(6usize, 10, 20);

    // Skewed kernel: R-MAT with the Graph500 a=0.57 hub distribution.
    let skew_scale = args.pick(9u32, 10, 12);
    let skew = scheduler_workloads::skew_graph(skew_scale);

    // Batch: independent multiplies, one per mask.
    let batch_n = args.pick(8usize, 16, 32);
    let batch_a = rep_a.clone();
    let batch_masks: Vec<CsrMatrix<f64>> =
        scheduler_workloads::batch_masks(batch_a.nrows(), batch_n);

    let mut criterion = Criterion::default().configure_from_args();
    let mut group = criterion.benchmark_group("scheduler");
    group
        .sample_size(args.reps.max(15))
        .warm_up_time(Duration::from_millis(50))
        .measurement_time(Duration::from_secs(2));

    for &width in &WIDTHS {
        let pool = thread_pool(width);
        group.bench_with_input(
            BenchmarkId::new("repeat_loop", format!("pool/w{width}")),
            &rep_iters,
            |b, &iters| {
                b.iter(|| {
                    pool.install(|| {
                        let mut nnz = 0usize;
                        for _ in 0..iters {
                            let c = masked_spgemm(
                                Algorithm::Msa,
                                Phases::One,
                                false,
                                sr,
                                &rep_m,
                                &rep_a,
                                &rep_a,
                            )
                            .expect("dims agree");
                            nnz = c.nnz();
                        }
                        nnz
                    })
                })
            },
        );

        group.bench_with_input(
            BenchmarkId::new("skewed_kernel", format!("pool/w{width}")),
            &(),
            |b, _| {
                b.iter(|| {
                    pool.install(|| {
                        masked_spgemm(Algorithm::Msa, Phases::One, false, sr, &skew, &skew, &skew)
                            .expect("dims agree")
                            .nnz()
                    })
                })
            },
        );

        // Batch: ops drained by the context's pool workers, forced to
        // serial MSA per product with per-worker reused scratch.
        let ctx = Context::with_threads(width);
        let ha = ctx.insert(batch_a.clone());
        let ops: Vec<engine::MaskedOp> = batch_masks
            .iter()
            .map(|m| {
                ctx.op(ctx.insert(m.clone()), ha, ha)
                    .algorithm(Algorithm::Msa)
                    .build()
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("batch", format!("pool/w{width}")),
            &(),
            |b, _| {
                b.iter(|| {
                    ctx.run_batch_collect(&ops)
                        .into_iter()
                        .map(|r| r.expect("well-shaped").nnz())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();

    let reports = take_reports();
    // Anchored to the repo root (two levels above this crate's manifest),
    // not the process CWD — the committed record must update no matter
    // where the binary is launched from.
    let record = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scheduler.json");
    let committed = match std::fs::read_to_string(&record) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => panic!("read {}: {e}", record.display()),
    };
    let json = merge_record_rows(&committed, &reports_to_json(&reports));
    std::fs::write(&record, format!("{json}\n")).expect("write BENCH_scheduler.json");
    println!(
        "wrote {} ({} measurements)",
        record.display(),
        reports.len()
    );

    // Console table: best time per workload × width.
    let mut table = Table::new(&["measurement", "min_s", "median_s"]);
    for r in &reports {
        table.push(vec![
            r.label.clone(),
            format!("{:.6}", r.sample.min.as_secs_f64()),
            format!("{:.6}", r.sample.median.as_secs_f64()),
        ]);
    }
    println!("{}", table.to_console());
    table
        .write_csv(args.out_dir.join("bench_scheduler.csv"))
        .expect("write csv");
    write_text(
        args.out_dir.join("bench_scheduler.txt"),
        &table.to_console(),
    )
    .expect("write txt");
}
