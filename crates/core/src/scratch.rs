//! Reusable kernel scratch for serial runs.
//!
//! A row-parallel run of the drivers in [`crate::exec`] builds fresh
//! accumulator scratch, one per pool worker ([`WorkerLocal`]). That is the
//! right call for one large product, but an engine executing *many small or
//! independent* masked multiplies (a batch worker per product, or a product
//! below the dispatch cutoff) wants the opposite: it runs each product
//! serially and keeps one set of accumulators alive across all of them, so
//! repeated multiplies stop paying the `O(ncols)` (MSA) or
//! `O(max mask row)` (hash/MCA) allocation and page-touch cost per call.
//!
//! A serial run is the same one- or two-phase driver on the one row range
//! `0..nrows`. [`KernelScratch`] owns one [`RowKernel`] and regrows it only
//! when a product needs more capacity than any earlier one (accumulators
//! are generation-stamped, so a larger-than-necessary accumulator is valid
//! for any smaller product). [`ScratchSet`] bundles one scratch per push
//! algorithm, and its [`ScratchSet::run`] is the one executor: every
//! product in this crate, matrix or vector, pooled or serial, fixed family
//! or per-row hybrid, reaches its row producer through the one dispatch
//! behind it. A serial run computes with the set's kernels (the hybrid
//! borrows the MSA, MCA and heap ones); a pooled run builds one kernel per
//! worker and leaves the set untouched. A vector is one row:
//! [`ScratchSet::run_vec`] is the executor at [`Phases::One`] on a one-row
//! mask and a one-row `A`, both viewing the vectors in place. The `engine`
//! crate holds one set per semiring for its serial paths.

use std::marker::PhantomData;
use std::sync::Mutex;

use sparse::{CscMatrix, CsrMatrix, Semiring, SparseError, SparseVec};

use crate::algos::{ninspect, HashKernel, HeapKernel, McaKernel, MsaKernel};
use crate::api::{check_csc, check_shapes, Algorithm, Choice, Phases};
use crate::exec::{drive, one_row, InnerProducer, Product, PushProducer};
use crate::hybrid::{HybridConfig, HybridProducer};
use crate::kernel::RowKernel;

/// Per-worker state for one parallel region, keyed by the pool's stable
/// worker indices ([`rayon::current_thread_index`]).
///
/// The pool's chunk-claiming scheduler hands a worker many chunks per
/// call; state that is expensive to build (a [`RowKernel`]'s `O(ncols)`
/// accumulator) should be built once per *worker*, not once per chunk.
/// `WorkerLocal` holds one lazily-initialized slot per worker plus one for
/// the initiating thread (which participates in claiming but has no worker
/// index). Slots are `Mutex`ed only to satisfy the borrow checker: a slot
/// is touched by exactly one thread, so the lock is uncontended; should a
/// stolen nested job ever re-enter a held slot, `with` falls back to a
/// transient value rather than deadlocking.
pub struct WorkerLocal<T> {
    slots: Vec<Mutex<Option<T>>>,
}

impl<T> Default for WorkerLocal<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WorkerLocal<T> {
    /// One slot per worker at the current pool width, plus the caller's.
    pub fn new() -> Self {
        let slots = rayon::current_num_threads().max(1) + 1;
        WorkerLocal {
            slots: (0..slots).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Run `body` on this thread's slot, building it with `make` on first
    /// use. Falls back to a transient `make()` value if the slot is
    /// somehow re-entered (see type docs).
    pub fn with<R>(&self, make: impl FnOnce() -> T, body: impl FnOnce(&mut T) -> R) -> R {
        let last = self.slots.len() - 1;
        let idx = match rayon::current_thread_index() {
            Some(i) if i < last => i,
            Some(i) => i % last.max(1),
            None => last,
        };
        match self.slots[idx].try_lock() {
            Ok(mut slot) => body(slot.get_or_insert_with(make)),
            Err(_) => body(&mut make()),
        }
    }

    /// How many slots were actually initialized (diagnostics/tests).
    pub fn initialized(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.try_lock().map(|g| g.is_some()).unwrap_or(true))
            .count()
    }
}

/// One reusable row kernel, regrown monotonically.
pub struct KernelScratch<S: Semiring, K: RowKernel<S>> {
    kernel: Option<K>,
    ncols_cap: usize,
    max_mask_cap: usize,
    /// How many times the kernel was built.
    builds: usize,
    _semiring: PhantomData<S>,
}

impl<S: Semiring, K: RowKernel<S>> Default for KernelScratch<S, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Semiring, K: RowKernel<S>> KernelScratch<S, K> {
    /// Empty scratch; the kernel is built on first use.
    pub fn new() -> Self {
        KernelScratch {
            kernel: None,
            ncols_cap: 0,
            max_mask_cap: 0,
            builds: 0,
            _semiring: PhantomData,
        }
    }

    /// Borrow a kernel valid for `ncols` output columns and mask rows of up
    /// to `max_mask_row_nnz` entries, rebuilding (at the running maximum of
    /// all requested sizes) only when the current kernel is too small: a
    /// longer mask row outgrows only a kernel [`RowKernel::SIZED_BY_MASK`].
    pub fn acquire(&mut self, ncols: usize, max_mask_row_nnz: usize) -> &mut K {
        let outgrown =
            ncols > self.ncols_cap || (K::SIZED_BY_MASK && max_mask_row_nnz > self.max_mask_cap);
        self.ncols_cap = self.ncols_cap.max(ncols);
        self.max_mask_cap = self.max_mask_cap.max(max_mask_row_nnz);
        if self.kernel.is_none() || outgrown {
            self.kernel = Some(K::new(self.ncols_cap, self.max_mask_cap));
            self.builds += 1;
        }
        self.kernel.as_mut().expect("kernel built above")
    }

    /// [`KernelScratch::acquire`], moving the kernel out until
    /// [`KernelScratch::put`] hands it back.
    fn take(&mut self, (ncols, max_mask_row_nnz): (usize, usize)) -> K {
        self.acquire(ncols, max_mask_row_nnz);
        self.kernel.take().expect("kernel built above")
    }

    fn put(&mut self, kernel: K) {
        self.kernel = Some(kernel);
    }
}

/// One reusable scratch per algorithm family, dispatched at runtime.
pub struct ScratchSet<S: Semiring>
where
    S::C: Default,
{
    msa: KernelScratch<S, MsaKernel<S>>,
    hash: KernelScratch<S, HashKernel<S>>,
    mca: KernelScratch<S, McaKernel<S>>,
    heap: KernelScratch<S, HeapKernel<S, { ninspect::ONE }>>,
    heap_dot: KernelScratch<S, HeapKernel<S, { ninspect::INF }>>,
}

impl<S: Semiring> Default for ScratchSet<S>
where
    S::C: Default,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Semiring> ScratchSet<S>
where
    S::C: Default,
{
    /// Empty scratch set; kernels are built on first use per family.
    pub fn new() -> Self {
        ScratchSet {
            msa: KernelScratch::new(),
            hash: KernelScratch::new(),
            mca: KernelScratch::new(),
            heap: KernelScratch::new(),
            heap_dot: KernelScratch::new(),
        }
    }

    /// Run one masked SpGEMM `M ⊙ (A·B)` (or `¬M ⊙` with `complemented`)
    /// with `choice`: one algorithm family for every row, or the per-row
    /// hybrid under the cost model `cfg` (`cfg` is read by the hybrid only).
    ///
    /// A `serial` run is the `phases` driver on the one row range
    /// `0..nrows`, on the calling thread, computing with this set's reused
    /// kernels. Otherwise the rows run in parallel on the current pool with
    /// one fresh kernel per worker, and the set is left as it was.
    ///
    /// `b_csc` is read by [`Algorithm::Inner`] and the hybrid; passing
    /// `None` converts on the fly (callers with a cached CSC should pass
    /// it). A complemented mask on [`Algorithm::Mca`] or the hybrid is a
    /// uniform [`SparseError::Unsupported`], and operands (or a `b_csc`)
    /// whose shapes disagree are a [`SparseError::DimMismatch`], never a
    /// panic.
    #[allow(clippy::too_many_arguments)]
    pub fn run<MT>(
        &mut self,
        choice: Choice,
        phases: Phases,
        serial: bool,
        complemented: bool,
        sr: S,
        cfg: HybridConfig,
        mask: &CsrMatrix<MT>,
        a: &CsrMatrix<S::A>,
        b: &CsrMatrix<S::B>,
        b_csc: Option<&CscMatrix<S::B>>,
    ) -> Result<CsrMatrix<S::C>, SparseError> {
        check_shapes(mask.shape(), a.shape(), b.shape())?;
        let p = Product::of(sr, mask, complemented, a);
        self.execute(choice, phases, serial, cfg, p, Some(b), b_csc)
    }

    /// Run one masked SpGEVM `v = m ⊙ (u·B)` serially with this set's
    /// reused accumulators: [`ScratchSet::run`] at [`Phases::One`] on the
    /// one row `u`, under the one-row mask `m`.
    ///
    /// Where [`crate::masked_spgevm`] builds a fresh `O(ncols)` accumulator
    /// per call, this borrows the family's [`KernelScratch`] (regrown
    /// monotonically), so frontier loops that issue one product per BFS
    /// level stop paying the allocation and page-touch cost per level.
    /// Errors are those of [`ScratchSet::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_vec<MT>(
        &mut self,
        algorithm: Algorithm,
        complemented: bool,
        sr: S,
        mask: &SparseVec<MT>,
        u: &SparseVec<S::A>,
        b: &CsrMatrix<S::B>,
        b_csc: Option<&CscMatrix<S::B>>,
    ) -> Result<SparseVec<S::C>, SparseError> {
        check_shapes((1, mask.dim()), (1, u.dim()), b.shape())?;
        one_row(sr, mask, complemented, u, |p| {
            let (choice, cfg) = (Choice::Fixed(algorithm), HybridConfig::default());
            self.execute(choice, Phases::One, true, cfg, p, Some(b), b_csc)
        })
    }

    /// The executor behind every entry point, on shape-checked operands and
    /// `B` in CSR, CSC or both (at least one): the one dispatch from a
    /// family to its row producer.
    ///
    /// Inlined into each entry point, so the optimizer drops the arms a
    /// caller cannot reach: the hybrid's behind an [`Algorithm`], every
    /// other family's behind a constant one. Each arm is tens of KB of
    /// driver code per semiring.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn execute(
        &mut self,
        choice: Choice,
        phases: Phases,
        serial: bool,
        cfg: HybridConfig,
        p: Product<'_, S>,
        b: Option<&CsrMatrix<S::B>>,
        b_csc: Option<&CscMatrix<S::B>>,
    ) -> Result<CsrMatrix<S::C>, SparseError> {
        if let (Some(b), Some(csc)) = (b, b_csc) {
            check_csc(csc.shape(), b.shape())?;
        }
        if let Choice::Fixed(algorithm) = choice {
            algorithm.check_complement_support(p.complemented)?;
        }
        let ncols = b.map(CsrMatrix::ncols).or(b_csc.map(CscMatrix::ncols));
        let (nrows, ncols) = (p.a.nrows(), ncols.expect("B in CSR or CSC"));
        let max_m = p.mask.max_row_nnz();
        let csr = || b.ok_or(SparseError::Unsupported(CSR_REQUIRED));
        let push = csr().map(|b| PushProducer { p, b, max_m });
        let mut converted = None;
        Ok(match choice {
            Choice::Fixed(Algorithm::Msa) => run_push(phases, push?, serial, &mut self.msa),
            Choice::Fixed(Algorithm::Hash) => run_push(phases, push?, serial, &mut self.hash),
            Choice::Fixed(Algorithm::Mca) => run_push(phases, push?, serial, &mut self.mca),
            Choice::Fixed(Algorithm::Heap) => run_push(phases, push?, serial, &mut self.heap),
            Choice::Fixed(Algorithm::HeapDot) => {
                run_push(phases, push?, serial, &mut self.heap_dot)
            }
            Choice::Fixed(Algorithm::Inner) => {
                let producer = InnerProducer {
                    p,
                    b: csc_of(b, b_csc, &mut converted),
                };
                drive(phases, nrows, ncols, &producer, serial.then_some(&mut ()))
            }
            Choice::Hybrid if p.complemented => {
                return Err(SparseError::Unsupported(HYBRID_COMPLEMENT_UNSUPPORTED))
            }
            Choice::Hybrid => {
                let b_csc = csc_of(b, b_csc, &mut converted);
                let producer = HybridProducer {
                    p,
                    cfg,
                    b: csr()?,
                    b_csc,
                    max_m,
                };
                // A serial hybrid borrows the set's MSA, MCA and heap kernels.
                let size = (ncols, max_m);
                let (msa, mca, heap) = (&mut self.msa, &mut self.mca, &mut self.heap);
                let mut kernels = serial.then(|| (msa.take(size), mca.take(size), heap.take(size)));
                let c = drive(phases, nrows, ncols, &producer, kernels.as_mut());
                if let Some((msa_kernel, mca_kernel, heap_kernel)) = kernels {
                    msa.put(msa_kernel);
                    mca.put(mca_kernel);
                    heap.put(heap_kernel);
                }
                c
            }
        })
    }
}

/// Run a push producer: serially on `scratch`'s kernel, or with one fresh
/// kernel per pool worker.
fn run_push<S, K>(
    phases: Phases,
    producer: PushProducer<'_, S>,
    serial: bool,
    scratch: &mut KernelScratch<S, K>,
) -> CsrMatrix<S::C>
where
    S: Semiring,
    S::C: Default,
    K: RowKernel<S>,
{
    let (nrows, ncols) = (producer.p.a.nrows(), producer.b.ncols());
    let kernel = serial.then(|| scratch.acquire(ncols, producer.max_m));
    drive(phases, nrows, ncols, &producer, kernel)
}

/// `B` in CSC form: the caller's copy, else `b` converted into `converted`.
fn csc_of<'c, T: Copy>(
    b: Option<&CsrMatrix<T>>,
    b_csc: Option<&'c CscMatrix<T>>,
    converted: &'c mut Option<CscMatrix<T>>,
) -> &'c CscMatrix<T> {
    match b_csc {
        Some(csc) => csc,
        None => converted.insert(CscMatrix::from_csr(b.expect("B in CSR or CSC"))),
    }
}

/// A complemented mask under the per-row hybrid, which runs plain masks only.
const HYBRID_COMPLEMENT_UNSUPPORTED: &str = "the hybrid runs plain masks only";

/// A family that scatters the rows of `B`, given `B` in CSC form only.
const CSR_REQUIRED: &str = "this algorithm reads B in CSR form; only its CSC form was given";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::masked_spgemm;
    use crate::kernel::testutil::random_csr;
    use sparse::PlusTimes;

    #[test]
    fn serial_matches_parallel_drivers_with_reused_scratch() {
        let (sr, cfg) = (PlusTimes::<f64>::new(), HybridConfig::default());
        let mut set = ScratchSet::new();
        // Deliberately vary dimensions so the scratch is reused both after
        // growing and after shrinking requests; the last mask's rows are
        // longer than any before on no more columns.
        for (n, k, m, seed, density) in [
            (30usize, 25usize, 35usize, 1u64, 35),
            (50, 40, 60, 2, 35),
            (10, 10, 10, 3, 35),
            (45, 45, 45, 4, 35),
            (45, 45, 60, 5, 95),
        ] {
            let a = random_csr(n, k, seed * 13 + 1, 25);
            let b = random_csr(k, m, seed * 13 + 2, 25);
            let mask = random_csr(n, m, seed * 13 + 3, density).pattern();
            let bc = CscMatrix::from_csr(&b);
            for (compl, alg, ph) in [false, true]
                .into_iter()
                .flat_map(|c| Algorithm::ALL.map(|alg| (c, alg)))
                .flat_map(|(c, alg)| Phases::ALL.map(|ph| (c, alg, ph)))
            {
                let choice = Choice::Fixed(alg);
                let got = set.run(choice, ph, true, compl, sr, cfg, &mask, &a, &b, Some(&bc));
                if compl && !alg.supports_complement() {
                    assert!(got.is_err());
                    continue;
                }
                let expect = masked_spgemm(alg, ph, compl, sr, &mask, &a, &b).unwrap();
                let got = got.unwrap();
                assert_eq!(
                    got,
                    expect,
                    "{alg:?}-{} compl={compl} seed={seed}",
                    ph.suffix()
                );
            }
        }
        // The kernels not sized by the mask computed the last, longer mask
        // rows without a rebuild: one build each for 35 and 60 columns.
        assert_eq!(
            (set.msa.builds, set.heap.builds, set.hash.builds),
            (2, 2, 3)
        );
    }

    /// Caps only grow. A longer mask row (each level of a BFS on a fresh
    /// context) rebuilds only the kernels sized by the mask; more columns
    /// rebuild every kernel.
    #[test]
    fn scratch_regrows_monotonically() {
        type Sr = PlusTimes<f64>;
        fn check<K: RowKernel<Sr>>(name: &str, sized: bool) {
            let mut s: KernelScratch<Sr, K> = KernelScratch::new();
            let grown = usize::from(sized);
            for (ncols, mask, caps, builds) in [
                (100, 10, (100, 10), 1),
                (50, 5, (100, 10), 1), // smaller: reuse, caps unchanged
                (100, 50, (100, 50), 1 + grown), // a longer mask row
                (200, 3, (200, 50), 2 + grown), // more columns
            ] {
                s.acquire(ncols, mask);
                let got = ((s.ncols_cap, s.max_mask_cap), s.builds);
                assert_eq!(got, (caps, builds), "{name}");
            }
        }
        check::<MsaKernel<Sr>>("MSA", false);
        check::<HeapKernel<Sr, { ninspect::ONE }>>("Heap", false);
        check::<HeapKernel<Sr, { ninspect::INF }>>("HeapDot", false);
        check::<HashKernel<Sr>>("Hash", true);
        check::<McaKernel<Sr>>("MCA", true);
    }

    #[test]
    fn worker_local_builds_at_most_one_slot_per_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        let pool = crate::exec::thread_pool(3);
        pool.install(|| {
            let local: WorkerLocal<u64> = WorkerLocal::new();
            let seen = Mutex::new(HashSet::new());
            let counter = std::sync::atomic::AtomicU64::new(0);
            use rayon::prelude::*;
            (0..64usize).into_par_iter().for_each(|_| {
                local.with(
                    || counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                    |v| {
                        seen.lock().unwrap().insert(*v);
                    },
                );
            });
            // At most one distinct value per participant (3 workers +
            // the initiating thread), each reused across many chunks.
            let distinct = seen.lock().unwrap().len();
            assert!(distinct <= 4, "built {distinct} producers for 4 slots");
            assert!(local.initialized() <= 4);
        });
    }

    #[test]
    fn worker_local_serial_uses_single_slot() {
        let local: WorkerLocal<usize> = WorkerLocal::new();
        for _ in 0..10 {
            local.with(|| 7, |v| *v += 1);
        }
        assert_eq!(local.initialized(), 1);
    }

    #[test]
    fn inner_without_cached_csc_converts() {
        let sr = PlusTimes::<f64>::new();
        let a = random_csr(12, 12, 5, 30);
        let b = random_csr(12, 12, 6, 30);
        let mask = random_csr(12, 12, 7, 40).pattern();
        let mut set = ScratchSet::new();
        let with = set
            .run(
                Choice::Fixed(Algorithm::Inner),
                Phases::One,
                true,
                false,
                sr,
                HybridConfig::default(),
                &mask,
                &a,
                &b,
                None,
            )
            .unwrap();
        let expect =
            masked_spgemm(Algorithm::Inner, Phases::One, false, sr, &mask, &a, &b).unwrap();
        assert_eq!(with, expect);
    }

    #[test]
    fn run_rejects_mismatched_shapes_with_an_error() {
        let sr = PlusTimes::<f64>::new();
        let a = random_csr(12, 10, 5, 30);
        let b = random_csr(10, 14, 6, 30);
        let mask = random_csr(12, 14, 7, 40).pattern();
        let wrong_mask = random_csr(12, 13, 7, 40).pattern();
        let wrong_b = random_csr(11, 14, 6, 30);
        let wrong_csc = CscMatrix::from_csr(&random_csr(10, 13, 6, 30));
        let mut set = ScratchSet::new();
        for alg in Algorithm::ALL {
            let mut run = |mask: &CsrMatrix<()>, b: &CsrMatrix<f64>, csc| {
                let (choice, cfg) = (Choice::Fixed(alg), HybridConfig::default());
                set.run(choice, Phases::One, true, false, sr, cfg, mask, &a, b, csc)
            };
            for (case, got) in [
                ("mask", run(&wrong_mask, &b, None)),
                ("A/B", run(&mask, &wrong_b, None)),
                ("CSC", run(&mask, &b, Some(&wrong_csc))),
            ] {
                assert!(
                    matches!(got, Err(SparseError::DimMismatch { .. })),
                    "{alg:?} {case}: {got:?}"
                );
            }
            assert!(run(&mask, &b, None).is_ok(), "{alg:?}");
        }
    }
}
