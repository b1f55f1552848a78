//! Per-machine measurement of the planner's serial cutoff.
//!
//! The cost model's constants ([`HybridConfig`]) are committed defaults
//! and are not measured here: every context plans with
//! `HybridConfig::default()`, or with what a caller installed through
//! [`Context::set_config`]. What does vary from machine to machine is the
//! price of waking the worker pool against the price of a flop, and that
//! sets the serial cutoff. [`Context::calibrate`] measures it with two
//! probes:
//!
//! * **dispatch** — near-empty parallel regions: the cost of waking the
//!   pool;
//! * **flop unit** — MSA on a dense-ish product (full mask rows, so the
//!   accumulator stays hot): time per flop.
//!
//! Probes are deterministic and take about 20 ms in release on a 2-vCPU
//! Xeon host. The cutoff is clamped so a noisy dispatch sample cannot send
//! genuinely parallel products to the serial path.

use std::time::Instant;

use masked_spgemm::{masked_spgemm, Algorithm, HybridConfig, Phases};
use sparse::{CsrMatrix, Idx, PlusTimes};

use crate::context::Context;

/// Outcome of a calibration pass.
#[derive(Copy, Clone, Debug)]
pub struct Calibration {
    /// The cost-model constants the context plans with. Calibration does
    /// not measure or change them; this reports [`Context::config`].
    pub config: HybridConfig,
    /// Seconds per flop of the hot-accumulator MSA probe.
    pub msa_secs_per_flop: f64,
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

impl Context {
    /// Measure this machine's serial cutoff, install it, and return the
    /// measurement. The cost-model constants are left as they are.
    pub fn calibrate(&self) -> Calibration {
        // Pool dispatch overhead: time near-empty parallel regions (the
        // workers are woken, claim trivial chunks, and the caller joins).
        // The first region also absorbs any cold-start so the kernel
        // probe below measures steady-state scheduling. The estimate is the
        // fastest of several batch means: host noise (a preempted region, a
        // slow wake) only adds time, and one process's batches spread 1.3–7
        // µs on a shared 2-vCPU host, so a mean or a median still moves
        // with it. The MSA probe below takes its best run for the same
        // reason.
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
            let regions = 8;
            (0..9)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..regions {
                        probe();
                    }
                    t0.elapsed().as_secs_f64() / regions as f64
                })
                .fold(f64::INFINITY, f64::min)
        });

        // Dense-ish probe: 512 rows, 64 nnz per row of A and B, full mask
        // rows — accumulator initialization amortizes away. MSA's best of
        // three timed runs after one warm-up.
        let n = 512;
        let a = probe_matrix(n, n, 64, 0xA5A5);
        let b = probe_matrix(n, n, 64, 0x5A5A);
        let mask = probe_matrix(n, n, 64, 0x1234).pattern();
        let run = || {
            let c = masked_spgemm(
                Algorithm::Msa,
                Phases::One,
                false,
                PlusTimes::new(),
                &mask,
                &a,
                &b,
            );
            std::hint::black_box(c.expect("probe dims agree").nnz());
        };
        let msa_secs = self.pool.install(|| {
            run();
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    run();
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        });
        let msa_secs_per_flop = msa_secs / masked_spgemm::flops(&a, &b).max(1) as f64;

        // Serial cutoff: the work level at which one pool dispatch costs as
        // much as the whole product. Clamped so a noisy overhead sample
        // cannot capture genuinely parallel products (the dense probe above
        // is ~2M flops; one dispatch should never be worth more than a
        // small fraction of it).
        let serial_cutoff_flops =
            (dispatch_overhead_secs / msa_secs_per_flop.max(1e-12)).clamp(0.0, 262_144.0);
        self.set_serial_cutoff_flops(serial_cutoff_flops);
        Calibration {
            config: self.config(),
            msa_secs_per_flop,
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

    fn bits(c: HybridConfig) -> [u64; 3] {
        [c.msa_overhead, c.heap_factor, c.inner_factor].map(f64::to_bits)
    }

    #[test]
    fn calibration_produces_sane_constants() {
        let custom = HybridConfig {
            msa_overhead: 5000.0,
            heap_factor: 0.125,
            inner_factor: 9.5,
        };
        for installed in [None, Some(custom)] {
            let ctx = Context::with_threads(2);
            if let Some(cfg) = installed {
                ctx.set_config(cfg);
            }
            let expected = bits(installed.unwrap_or_default());
            let cal = ctx.calibrate();
            // Calibration leaves the cost-model constants as they were and
            // reports them.
            assert_eq!(bits(ctx.config()), expected);
            assert_eq!(bits(cal.config), expected);
            assert!(cal.msa_secs_per_flop > 0.0);
            assert!(cal.dispatch_overhead_secs >= 0.0);
            assert!(
                cal.dispatch_overhead_secs < 0.05,
                "pool dispatch took {:.6}s — workers are not parked/woken correctly",
                cal.dispatch_overhead_secs
            );
            // The serial cutoff was derived from the measurements and
            // installed.
            assert!(cal.serial_cutoff_flops >= 0.0 && cal.serial_cutoff_flops <= 262_144.0);
            assert_eq!(
                ctx.serial_cutoff_flops().to_bits(),
                cal.serial_cutoff_flops.to_bits()
            );
        }
    }
}
