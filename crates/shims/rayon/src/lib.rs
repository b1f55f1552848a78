#![warn(missing_docs)]

//! Workspace-local subset of the [rayon](https://docs.rs/rayon) API.
//!
//! The build environment for this repository has no access to crates.io, so
//! this crate re-implements exactly the surface the workspace uses — indexed
//! parallel iterators over slices, vectors, ranges and chunks, with `map` /
//! `zip` / `copied` adapters and `collect` / `for_each` / `sum` / `reduce`
//! consumers — on top of a **persistent work-claiming thread pool**
//! (`pool.rs`, `job.rs`).
//!
//! Semantics match rayon where the workspace relies on them:
//!
//! * iterators are *indexed*: order is preserved by every consumer, so
//!   results are bitwise independent of the worker count and of which
//!   worker claims which chunk;
//! * workers are persistent: they are spawned once per pool (the global
//!   pool lazily, [`ThreadPool`]s at `build`), park when idle, and are
//!   woken per job — parallel calls never pay thread spawn/join latency;
//! * work is *claimed*, not assigned: the scheduler publishes
//!   ~16×-oversplit chunk ranges and every participating thread pulls the
//!   next chunk from a shared atomic cursor, so skewed per-chunk costs
//!   (power-law row distributions) rebalance dynamically; a thread waiting
//!   on its own job steals other queued jobs meanwhile;
//! * [`ThreadPool::install`] scopes both the registry and the worker count
//!   for everything executed inside it, including closures that run *on*
//!   pool workers; nested installs restore the outer context on exit, and
//!   panics inside worker closures propagate to the initiating caller;
//! * the `THREADS` environment variable (then `RAYON_NUM_THREADS`)
//!   overrides the global pool's worker count — the CI knob for running the
//!   test suite at fixed widths.

pub mod iter;
mod job;
mod pool;

pub use iter::{
    FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    ParallelSlice,
};
pub use pool::current_thread_index;

use std::sync::Arc;

/// Everything the workspace imports via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSlice,
    };
}

/// Number of worker threads parallel operations on this thread will use.
///
/// Defaults to the `THREADS` env override or
/// [`std::thread::available_parallelism`]; scoped by
/// [`ThreadPool::install`], including inside closures running on pool
/// workers.
pub fn current_num_threads() -> usize {
    pool::current_width()
}

/// The number of claimable parts the scheduler would publish for a
/// parallel region over `len` items at the current width.
///
/// Drivers that pre-chunk work (to build per-chunk output buffers) use
/// this so their chunk granularity matches the scheduler's claim
/// granularity exactly — the balancing policy lives here, not in each
/// driver.
pub fn recommended_parts(len: usize) -> usize {
    len.min(current_num_threads().max(1) * pool::PARTS_PER_WORKER)
        .max(1)
}

/// Error building a [`ThreadPool`] (never produced by this shim; kept for
/// API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A handle to a dedicated registry of persistent workers. Operations run
/// under [`ThreadPool::install`] schedule on this pool's workers with this
/// pool's width; dropping the pool parks-then-joins its workers.
pub struct ThreadPool {
    registry: Arc<pool::Registry>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads())
            .finish()
    }
}

impl ThreadPool {
    /// Run `op` with this pool's registry and worker count in effect; the
    /// previous scheduling context is restored on exit (nested installs
    /// therefore unwind correctly, panics included).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let _guard =
            pool::ContextGuard::enter(Arc::clone(&self.registry), self.registry.num_threads());
        op()
    }

    /// The configured worker count.
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// Shim extension (no rayon equivalent): run `work(i)` for every
    /// `i in 0..k` on this pool's workers while the calling thread runs
    /// `foreground`, returning `foreground`'s value when both are done.
    ///
    /// This is the streaming-batch primitive: workers produce into a
    /// channel that the foreground drains, so results flow while work is
    /// in flight and batch execution shares the pool with intra-op
    /// parallelism instead of spawning a second set of threads. Indices no
    /// worker has started by the time `foreground` returns run on the
    /// calling thread. Worker panics propagate to the caller after
    /// `foreground` returns.
    pub fn with_workers<R>(
        &self,
        k: usize,
        work: impl Fn(usize) + Sync,
        foreground: impl FnOnce() -> R,
    ) -> R {
        job::run_with_foreground(&self.registry, k, &work, foreground)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate_and_join();
    }
}

/// Builder for [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count (0 or unset = `THREADS` env override or
    /// available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Finish the build, spawning the pool's parked workers. Infallible in
    /// this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.num_threads {
            Some(0) | None => pool::default_width(),
            Some(n) => n,
        };
        Ok(ThreadPool {
            registry: pool::Registry::new(n),
        })
    }
}

/// Range-based `into_par_iter` source re-exported at the crate root so
/// `rayon::iter` look-alikes resolve.
pub use iter::RangeParIter;

#[doc(hidden)]
pub fn _shim_marker() {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn slice_sum_and_reduce() {
        let data: Vec<u64> = (1..=100).collect();
        let s: u64 = data.par_iter().map(|&x| x).sum();
        assert_eq!(s, 5050);
        let m = data.par_iter().copied().reduce(|| 0u64, |a, b| a.max(b));
        assert_eq!(m, 100);
    }

    #[test]
    fn zip_for_each_mutates_disjoint_slices() {
        let mut a = vec![0u32; 64];
        let parts: Vec<&mut [u32]> = a.chunks_mut(8).collect();
        let idx: Vec<u32> = (0..8).collect();
        idx.par_iter().zip(parts).for_each(|(&i, p)| {
            for (k, slot) in p.iter_mut().enumerate() {
                *slot = i * 100 + k as u32;
            }
        });
        assert_eq!(a[0], 0);
        assert_eq!(a[9], 101);
        assert_eq!(a[63], 707);
    }

    #[test]
    fn par_chunks_counts() {
        let data = [1u8; 103];
        let lens: Vec<usize> = data.par_chunks(10).map(|c| c.len()).collect();
        assert_eq!(lens.len(), 11);
        assert_eq!(lens.iter().sum::<usize>(), 103);
        assert_eq!(*lens.last().unwrap(), 3);
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let data: Vec<u64> = (0..10_000).collect();
        let base: Vec<u64> = data
            .par_iter()
            .map(|&x| x.wrapping_mul(2654435761))
            .collect();
        for n in [1usize, 2, 5, 16] {
            let pool = ThreadPoolBuilder::new().num_threads(n).build().unwrap();
            let got: Vec<u64> = pool.install(|| {
                data.par_iter()
                    .map(|&x| x.wrapping_mul(2654435761))
                    .collect()
            });
            assert_eq!(got, base, "pool n={n}");
        }
    }

    #[test]
    fn recommended_parts_bounds() {
        assert_eq!(recommended_parts(0), 1);
        assert_eq!(recommended_parts(1), 1);
        let parts = recommended_parts(1_000_000);
        assert!(parts <= current_num_threads() * 16);
        assert!(parts >= current_num_threads());
    }
}
