//! Micro-calibration of the cost-model constants.
//!
//! [`HybridConfig`]'s defaults (`msa_overhead`, `heap_factor`,
//! `inner_factor`) were tuned on one development machine, but the relative
//! cost of MSA's dense-array traffic, the heap's branchy merges and the
//! pull's sorted dot products varies with cache sizes and memory latency.
//! [`Context::calibrate`] measures them on the actual machine with one
//! dispatch probe and four kernel probes, and rescales the constants:
//!
//! * **dispatch** — near-empty parallel regions: the cost of waking the
//!   pool, which sets the planner's serial cutoff;
//! * **flop unit** — MSA on a dense-ish product (full mask rows, so the
//!   accumulator stays hot): time per flop;
//! * **heap unit** and **dot unit** — the heap and pull kernels on the same
//!   product, per unit of the model's heap and pull cost with unit
//!   factors: `heap_factor` and `inner_factor`;
//! * **row unit** — MSA on a minimal-work product (one mask entry and one
//!   short `A` row per output row, wide `B`), dominated by touching the
//!   `O(ncols)` accumulator: `msa_overhead`.
//!
//! Probes are deterministic, take a few milliseconds, and the result is
//! clamped to a sane range so a noisy measurement cannot produce a
//! pathological planner.

use std::time::Instant;

use masked_spgemm::hybrid::{col_counts, col_sum, row_costs};
use masked_spgemm::{masked_spgemm, Algorithm, HybridConfig, Phases};
use sparse::{CsrMatrix, Idx, PlusTimes};

use crate::context::Context;

/// Outcome of a calibration pass.
#[derive(Copy, Clone, Debug)]
pub struct Calibration {
    /// The measured configuration (already applied to the context).
    pub config: HybridConfig,
    /// Seconds per flop of the hot-accumulator MSA probe.
    pub msa_secs_per_flop: f64,
    /// Seconds per output row of the sparse MSA probe.
    pub msa_secs_per_row: f64,
    /// Seconds per flop of the heap probe.
    pub heap_secs_per_flop: f64,
    /// Seconds per modeled dot unit of the pull-based probe.
    pub inner_secs_per_unit: f64,
    /// Seconds to dispatch one parallel region on the context's pool
    /// (publish chunks, wake parked workers, join) — the fixed cost a
    /// kernel invocation pays before any row work happens.
    pub dispatch_overhead_secs: f64,
    /// The planner serial cutoff installed on the context
    /// ([`Context::set_serial_cutoff_flops`]): the flop count whose MSA
    /// kernel time equals the measured dispatch overhead. Products whose
    /// estimated work lands below this run serially on the calling thread
    /// — waking the pool would cost more than the product itself.
    pub serial_cutoff_flops: f64,
}

/// Deterministic pseudo-random CSR matrix (xorshift; no `rand` dependency
/// so the engine stays lean).
fn probe_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> CsrMatrix<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut rowptr = Vec::with_capacity(nrows + 1);
    rowptr.push(0usize);
    let mut cols: Vec<Idx> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut scratch: Vec<Idx> = Vec::new();
    for _ in 0..nrows {
        scratch.clear();
        for _ in 0..per_row {
            scratch.push((next() % ncols as u64) as Idx);
        }
        scratch.sort_unstable();
        scratch.dedup();
        for &j in &scratch {
            cols.push(j);
            vals.push(1.0);
        }
        rowptr.push(cols.len());
    }
    CsrMatrix::from_parts_unchecked(nrows, ncols, rowptr, cols, vals)
}

/// Best of three timed runs, after one warm-up, of `alg` on the probe
/// product `mask ⊙ (a·b)` on `pool`.
fn time_kernel(
    pool: &rayon::ThreadPool,
    alg: Algorithm,
    mask: &CsrMatrix<()>,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
) -> f64 {
    let run = || {
        let c = masked_spgemm(alg, Phases::One, false, PlusTimes::new(), mask, a, b)
            .expect("probe dims agree");
        std::hint::black_box(c.nnz());
    };
    pool.install(|| {
        run();
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    })
}

impl Context {
    /// Measure the cost-model constants on this machine, install them, and
    /// return the measurement.
    pub fn calibrate(&self) -> Calibration {
        // Pool dispatch overhead: time near-empty parallel regions (the
        // workers are woken, claim trivial chunks, and the caller joins).
        // The first region also absorbs any cold-start so the kernel
        // probes below measure steady-state scheduling.
        let dispatch_overhead_secs = self.pool.install(|| {
            use rayon::prelude::*;
            let probe = || {
                (0..rayon::current_num_threads() * 16)
                    .into_par_iter()
                    .for_each(|i| {
                        std::hint::black_box(i);
                    })
            };
            probe(); // warm the pool
            let reps = 64;
            let t0 = Instant::now();
            for _ in 0..reps {
                probe();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        });

        // Dense-ish probe: 512 rows, 64 nnz per row of A and B, full mask
        // rows — accumulator initialization amortizes away.
        let n = 512;
        let a = probe_matrix(n, n, 64, 0xA5A5);
        let b = probe_matrix(n, n, 64, 0x5A5A);
        let mask = probe_matrix(n, n, 64, 0x1234).pattern();
        let flops = masked_spgemm::flops(&a, &b).max(1);
        let msa_dense = time_kernel(&self.pool, Algorithm::Msa, &mask, &a, &b);
        let heap_dense = time_kernel(&self.pool, Algorithm::Heap, &mask, &a, &b);
        let inner_dense = time_kernel(&self.pool, Algorithm::Inner, &mask, &a, &b);
        // Modeled dot units of the dense probe: the model's pull cost with
        // unit factors, Σ_i (mm_i + Σ_{j ∈ M(i,:)} (u_i + nnz(B(:,j)))).
        let unit = HybridConfig {
            msa_overhead: 0.0,
            heap_factor: 1.0,
            inner_factor: 1.0,
        };
        let b_col_nnz = col_counts(b.colidx(), b.ncols());
        let inner_units: f64 = (0..n)
            .map(|i| {
                let mcols = mask.row(i).0;
                let mask_col_nnz = col_sum(mcols, &b_col_nnz);
                let [.., dot_units] =
                    row_costs(&unit, mcols.len(), a.row_nnz(i), 0, mask_col_nnz, None);
                dot_units
            })
            .sum();

        // Sparse probe: wide output, one mask entry and two A entries per
        // row — per-row accumulator touch dominates.
        let wide = 1 << 15;
        let rows = 4096;
        let sa = probe_matrix(rows, rows, 2, 0xBEEF);
        let sb = probe_matrix(rows, wide, 2, 0xFACE);
        let smask = probe_matrix(rows, wide, 1, 0xD00D).pattern();
        let msa_sparse = time_kernel(&self.pool, Algorithm::Msa, &smask, &sa, &sb);

        let msa_secs_per_flop = msa_dense / flops as f64;
        let heap_secs_per_flop = heap_dense / flops as f64;
        let msa_secs_per_row = msa_sparse / rows as f64;
        let inner_secs_per_unit = inner_dense / inner_units.max(1.0);

        // Model units are "one flop of MSA work" = 1.0. The heap's modeled
        // cost of one flop on the probe's 64-entry rows, with unit factors.
        let [_, _, log_term, _] = row_costs(&unit, 0, 64, 1, 0, None);
        let heap_factor = (heap_secs_per_flop / msa_secs_per_flop / log_term).clamp(0.25, 8.0);
        let msa_overhead = (msa_secs_per_row / msa_secs_per_flop).clamp(8.0, 4096.0);
        let inner_factor = (inner_secs_per_unit / msa_secs_per_flop).clamp(0.25, 8.0);

        let config = HybridConfig {
            msa_overhead,
            heap_factor,
            inner_factor,
        };
        self.set_config(config);
        // Serial cutoff: the work level at which one pool dispatch costs as
        // much as the whole product. Clamped so a noisy overhead sample
        // cannot capture genuinely parallel products (the dense probe above
        // is ~2M flops; one dispatch should never be worth more than a
        // small fraction of it).
        let serial_cutoff_flops =
            (dispatch_overhead_secs / msa_secs_per_flop.max(1e-12)).clamp(0.0, 262_144.0);
        self.set_serial_cutoff_flops(serial_cutoff_flops);
        Calibration {
            config,
            msa_secs_per_flop,
            msa_secs_per_row,
            heap_secs_per_flop,
            inner_secs_per_unit,
            dispatch_overhead_secs,
            serial_cutoff_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_matrix_is_valid_and_deterministic() {
        let a = probe_matrix(64, 128, 8, 42);
        assert_eq!(a.shape(), (64, 128));
        assert!(a.nnz() > 0);
        for i in 0..64 {
            let (cols, _) = a.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
            assert!(cols.iter().all(|&j| (j as usize) < 128));
        }
        assert_eq!(a, probe_matrix(64, 128, 8, 42));
    }

    #[test]
    fn calibration_produces_sane_constants() {
        let ctx = Context::with_threads(2);
        let cal = ctx.calibrate();
        assert!(cal.config.msa_overhead >= 8.0 && cal.config.msa_overhead <= 4096.0);
        assert!(cal.config.heap_factor >= 0.25 && cal.config.heap_factor <= 8.0);
        assert!(cal.msa_secs_per_flop > 0.0);
        assert!(cal.dispatch_overhead_secs >= 0.0);
        assert!(
            cal.dispatch_overhead_secs < 0.05,
            "pool dispatch took {:.6}s — workers are not parked/woken correctly",
            cal.dispatch_overhead_secs
        );
        // The serial cutoff was derived from the measurements and installed.
        assert!(cal.serial_cutoff_flops >= 0.0 && cal.serial_cutoff_flops <= 262_144.0);
        assert_eq!(
            ctx.serial_cutoff_flops().to_bits(),
            cal.serial_cutoff_flops.to_bits()
        );
        // The installed config is what the context now plans with.
        assert_eq!(
            ctx.config().msa_overhead.to_bits(),
            cal.config.msa_overhead.to_bits()
        );
    }
}
