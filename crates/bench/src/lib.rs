#![warn(missing_docs)]

//! Shared plumbing for the figure harnesses in `src/bin/`.
//!
//! Every evaluation figure of the paper has one binary
//! (`cargo run --release -p bench --bin fig08_tc_profiles`, etc.) that
//! prints the series the paper plots and writes CSV + ASCII renditions to
//! `results/`. Binaries accept:
//!
//! * `--quick` — shrunken sizes for smoke tests / CI;
//! * `--full`  — paper-scale sizes (hours on a laptop, like the original);
//! * `--reps N` — timed repetitions per measurement (default 3);
//! * `--out DIR` — output directory (default `results/`).
//!
//! Default (no flag) sizes are chosen to finish in minutes on one core
//! while preserving the figures' comparative shape.

use std::path::PathBuf;

use sparse::{CscMatrix, CsrMatrix};

pub use graph_algos::Scheme;
pub use masked_spgemm::{Algorithm, Phases};

/// Problem-size preset selected on the command line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Smoke-test sizes (seconds).
    Quick,
    /// Default sizes (minutes on one core).
    Default,
    /// Paper-scale sizes.
    Full,
}

/// Parsed harness command line.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Which size preset to run.
    pub preset: Preset,
    /// Timed repetitions per measurement.
    pub reps: usize,
    /// Output directory for CSV/ASCII artifacts.
    pub out_dir: PathBuf,
}

impl HarnessArgs {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut preset = Preset::Default;
        let mut reps = 3usize;
        let mut out_dir = PathBuf::from("results");
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => preset = Preset::Quick,
                "--full" => preset = Preset::Full,
                "--reps" => {
                    reps = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--reps needs a number"));
                }
                "--out" => {
                    out_dir = args.next().map(PathBuf::from).unwrap_or_else(|| {
                        usage("--out needs a directory");
                    });
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        HarnessArgs {
            preset,
            reps,
            out_dir,
        }
    }

    /// Pick one of three values by preset.
    pub fn pick<T: Copy>(&self, quick: T, default: T, full: T) -> T {
        match self.preset {
            Preset::Quick => quick,
            Preset::Default => default,
            Preset::Full => full,
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <harness> [--quick|--full] [--reps N] [--out DIR]");
    std::process::exit(2);
}

/// The scheme lists the paper's figures use.
pub mod schemes {
    use super::{Algorithm, Phases, Scheme};

    /// All 12 of our schemes (Figures 8, 12).
    pub fn ours_all() -> Vec<Scheme> {
        Scheme::all_ours()
    }

    /// The 1P variants of all six algorithms (Figure 7 sweeps algorithms).
    pub fn ours_1p() -> Vec<Scheme> {
        Algorithm::ALL
            .into_iter()
            .map(|a| Scheme::Ours(a, Phases::One))
            .collect()
    }

    /// Figure 9's comparison set: our best three vs. SS:GB.
    pub fn tc_vs_ssgb() -> Vec<Scheme> {
        vec![
            Scheme::Ours(Algorithm::Msa, Phases::One),
            Scheme::Ours(Algorithm::Hash, Phases::One),
            Scheme::Ours(Algorithm::Mca, Phases::One),
            Scheme::SsSaxpy,
            Scheme::SsDot,
        ]
    }

    /// Figure 13's comparison set: our best four vs. SS:GB.
    pub fn ktruss_vs_ssgb() -> Vec<Scheme> {
        vec![
            Scheme::Ours(Algorithm::Msa, Phases::One),
            Scheme::Ours(Algorithm::Inner, Phases::One),
            Scheme::Ours(Algorithm::Hash, Phases::One),
            Scheme::Ours(Algorithm::Mca, Phases::One),
            Scheme::SsSaxpy,
            Scheme::SsDot,
        ]
    }

    /// Figure 16's comparison set (complement-capable, heap/pull excluded
    /// as prohibitively slow in the paper; we still measure Inner/SS:DOT in
    /// fig15 at small scale).
    pub fn bc_profiles() -> Vec<Scheme> {
        vec![
            Scheme::Ours(Algorithm::Msa, Phases::One),
            Scheme::Ours(Algorithm::Hash, Phases::One),
            Scheme::Ours(Algorithm::Msa, Phases::Two),
            Scheme::Ours(Algorithm::Hash, Phases::Two),
            Scheme::SsSaxpy,
        ]
    }
}

/// One-character code for heat-map cells (Figure 7):
/// `M`SA, `H`ash, m`C`a, hea`P`, heapDot=`D`, `I`nner, `S`axpy, `.`=ss:dot.
pub fn scheme_char(s: Scheme) -> char {
    match s {
        Scheme::Ours(Algorithm::Msa, _) => 'M',
        Scheme::Ours(Algorithm::Hash, _) => 'H',
        Scheme::Ours(Algorithm::Mca, _) => 'C',
        Scheme::Ours(Algorithm::Heap, _) => 'P',
        Scheme::Ours(Algorithm::HeapDot, _) => 'D',
        Scheme::Ours(Algorithm::Inner, _) => 'I',
        Scheme::SsSaxpy => 'S',
        Scheme::SsDot => '.',
        Scheme::Hybrid => 'Y',
    }
}

/// Time one Masked SpGEMM `M ⊙ (A·B)` under `scheme`: best-of-`reps`
/// seconds, or `None` if the scheme cannot run this configuration.
pub fn time_masked_spgemm(
    scheme: Scheme,
    reps: usize,
    mask: &CsrMatrix<f64>,
    complemented: bool,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    b_csc: &CscMatrix<f64>,
) -> Option<f64> {
    let sr = sparse::PlusTimes::<f64>::new();
    if complemented && !scheme.supports_complement() {
        return None;
    }
    let (first, m) = profile::best_of(reps, || {
        scheme
            .run(sr, mask, complemented, a, b, b_csc)
            .expect("scheme accepted configuration")
    });
    std::hint::black_box(first.nnz());
    Some(m.secs())
}

/// Convenience: ER matrix + its CSC copy.
pub fn er_with_csc(n: usize, deg: f64, seed: u64) -> (CsrMatrix<f64>, CscMatrix<f64>) {
    let a = graphs::erdos_renyi(n, deg, seed);
    let c = CscMatrix::from_csr(&a);
    (a, c)
}

/// Scheduler-harness workloads shared by `bench_scheduler` (the committed
/// benchmark record) and the gating section of `engine_repeat` (the CI
/// acceptance bar), so the recorded numbers and the enforced numbers are
/// always measurements of the same graphs — sizes, seeds, and degree
/// parameters cannot drift between the two.
pub mod scheduler_workloads {
    use sparse::CsrMatrix;

    /// Small repeated-multiply pair `(A, mask)`. Deliberately fixed-size:
    /// the quantity under test is per-call dispatch overhead, not kernel
    /// throughput.
    pub fn repeat_pair() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        (
            graphs::erdos_renyi(512, 8.0, 11),
            graphs::erdos_renyi(512, 12.0, 12),
        )
    }

    /// Undirected R-MAT hub graph (Graph500 `a = 0.57` skew) at `scale`.
    pub fn skew_graph(scale: u32) -> CsrMatrix<f64> {
        graphs::to_undirected_simple(&graphs::rmat(scale, graphs::RmatParams::default(), 13))
    }

    /// Independent batch masks over an `nrows`-vertex operand.
    pub fn batch_masks(nrows: usize, count: usize) -> Vec<CsrMatrix<f64>> {
        (0..count)
            .map(|i| graphs::erdos_renyi(nrows, 8.0, 100 + i as u64))
            .collect()
    }

    /// Balanced (Erdős–Rényi) counterpart of a skew graph with the same
    /// shape and average degree — the reference input for the skew
    /// regression guard's ideal-static-splitting prediction.
    pub fn balanced_counterpart(skew: &CsrMatrix<f64>) -> CsrMatrix<f64> {
        let avg_deg = skew.nnz() as f64 / skew.nrows() as f64;
        graphs::erdos_renyi(skew.nrows(), avg_deg, 34)
    }
}

/// Run a performance-profile experiment over the evaluation suite:
/// materialize every suite graph up to `max_n` vertices, call `measure`
/// (which returns one best-of-reps time per scheme, `None` = excluded),
/// then print win rates + profile curves and write
/// `results/<fig>_times.csv` and `results/<fig>_profile.csv`.
pub fn run_suite_profile(
    args: &HarnessArgs,
    fig: &str,
    scheme_labels: &[String],
    max_n: usize,
    mut measure: impl FnMut(&str, &CsrMatrix<f64>) -> Vec<Option<f64>>,
) {
    let mut matrix = profile::ProfileMatrix::new(scheme_labels.to_vec());
    for g in graphs::suite() {
        if g.nvertices() > max_n {
            println!(
                "  [skip {} — {} vertices > cap {max_n}]",
                g.name,
                g.nvertices()
            );
            continue;
        }
        let adj = g.build();
        println!("  case {}: n={} nnz={}", g.name, adj.nrows(), adj.nnz());
        let times = measure(g.name, &adj);
        matrix.push_case(g.name, times);
    }
    let prof = matrix.profile();
    let mut table = profile::table::Table::new(&["scheme", "win_rate", "within_1.2x", "within_2x"]);
    for (s, label) in prof.schemes.iter().enumerate() {
        table.push(vec![
            label.clone(),
            format!("{:.3}", prof.win_rate(s)),
            format!("{:.3}", prof.fraction_within(s, 1.2)),
            format!("{:.3}", prof.fraction_within(s, 2.0)),
        ]);
    }
    println!("{}", table.to_console());
    println!("best scheme: {}", prof.schemes[prof.best_scheme()]);
    let taus: Vec<f64> = (0..=28).map(|i| 1.0 + i as f64 * 0.05).collect();
    let curves = prof.curves(&taus);
    let series: Vec<(String, Vec<(f64, f64)>)> = prof.schemes.iter().cloned().zip(curves).collect();
    let chart = profile::ascii::line_chart(
        &format!(
            "{fig}: performance profile (x = runtime relative to best, y = fraction of cases)"
        ),
        &series,
        60,
        16,
    );
    println!("{chart}");
    profile::table::write_text(
        args.out_dir.join(format!("{fig}_times.csv")),
        &matrix.to_csv(),
    )
    .expect("write times csv");
    profile::table::write_text(
        args.out_dir.join(format!("{fig}_profile.csv")),
        &prof.to_csv(),
    )
    .expect("write profile csv");
    profile::table::write_text(args.out_dir.join(format!("{fig}_profile.txt")), &chart)
        .expect("write profile txt");
}

/// Merge freshly measured rows into a committed record. Both are JSON
/// arrays with one row object per line, as `criterion::reports_to_json`
/// writes them. A committed row whose `label` was measured again is
/// replaced in place, every other committed row is kept where it was, and
/// rows with new labels are appended.
pub fn merge_record_rows(committed: &str, fresh: &str) -> String {
    fn rows(json: &str) -> Vec<&str> {
        json.lines()
            .map(str::trim)
            .filter(|line| line.starts_with('{'))
            .map(|line| line.trim_end_matches(','))
            .collect()
    }
    fn label(row: &str) -> Option<&str> {
        let rest = row.split_once("\"label\": \"")?.1;
        rest.split_once('"').map(|(label, _)| label)
    }
    let fresh = rows(fresh);
    let mut merged: Vec<&str> = rows(committed)
        .into_iter()
        .map(|old| {
            let remeasured = fresh.iter().find(|new| label(new) == label(old));
            remeasured.copied().unwrap_or(old)
        })
        .collect();
    for &new in &fresh {
        if !merged.iter().any(|row| label(row) == label(new)) {
            merged.push(new);
        }
    }
    let body: Vec<String> = merged.iter().map(|row| format!("  {row}")).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

/// Standard banner each harness prints first.
pub fn banner(fig: &str, what: &str, args: &HarnessArgs) {
    println!("=== {fig}: {what} ===");
    println!(
        "preset={:?} reps={} threads={} out={}",
        args.preset,
        args.reps,
        rayon::current_num_threads(),
        args.out_dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_pick() {
        let a = HarnessArgs {
            preset: Preset::Quick,
            reps: 1,
            out_dir: PathBuf::from("x"),
        };
        assert_eq!(a.pick(1, 2, 3), 1);
        let a = HarnessArgs {
            preset: Preset::Full,
            ..a
        };
        assert_eq!(a.pick(1, 2, 3), 3);
    }

    #[test]
    fn scheme_lists_sizes() {
        assert_eq!(schemes::ours_all().len(), 12);
        assert_eq!(schemes::ours_1p().len(), 6);
        assert_eq!(schemes::tc_vs_ssgb().len(), 5);
    }

    #[test]
    fn record_merge_keeps_rows_not_measured_again() {
        let row = |label: &str, min: f64| {
            format!("{{\"group\": \"scheduler\", \"label\": \"{label}\", \"min_s\": {min}}}")
        };
        let committed = format!(
            "[\n  {},\n  {},\n  {}\n]\n",
            row("repeat_loop/pool/w1", 1.0),
            row("repeat_loop/spawn/w1", 2.0),
            row("batch/spawn/w4", 3.0),
        );
        let fresh = format!(
            "[\n  {},\n  {}\n]",
            row("repeat_loop/pool/w1", 0.5),
            row("batch/pool/w4", 0.25),
        );
        let expect = format!(
            "[\n  {},\n  {},\n  {},\n  {}\n]",
            row("repeat_loop/pool/w1", 0.5),
            row("repeat_loop/spawn/w1", 2.0),
            row("batch/spawn/w4", 3.0),
            row("batch/pool/w4", 0.25),
        );
        assert_eq!(merge_record_rows(&committed, &fresh), expect);
        assert_eq!(merge_record_rows("", &fresh), fresh);
    }

    #[test]
    fn timing_returns_none_for_unsupported() {
        let (a, ac) = er_with_csc(16, 2.0, 1);
        let m = graphs::erdos_renyi(16, 2.0, 2);
        let s = Scheme::Ours(Algorithm::Mca, Phases::One);
        assert!(time_masked_spgemm(s, 1, &m, true, &a, &a, &ac).is_none());
        assert!(time_masked_spgemm(s, 1, &m, false, &a, &a, &ac).is_some());
    }
}
