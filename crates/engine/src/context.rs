//! The [`Context`]: matrix registry, budgeted auxiliary cache, and
//! execution entry points.

use std::any::Any;
use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use masked_spgemm::hybrid::row_flops;
use masked_spgemm::{HybridConfig, LaneValue, ValueKind};
use sparse::transpose::transpose;
use sparse::{CscMatrix, CsrMatrix, Idx, SparseError, SparseVec};

use crate::lane::{on_variant, Lane, ScratchSets};
use crate::plan::{self, Plan};

/// Handle to a matrix registered in a [`Context`].
///
/// Handles are cheap copies; the matrix and its cached auxiliaries live in
/// the context. A handle stays valid across [`Context::update`] calls (the
/// auxiliaries are invalidated, the identity persists) and dangles only
/// after [`Context::remove`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct MatrixHandle(pub(crate) u64);

/// Handle to a sparse vector registered in a [`Context`] (BFS frontiers,
/// visited sets, distance vectors). Like [`MatrixHandle`], handles are
/// cheap copies; the vector lives in the context and stays addressable
/// across [`Context::update_vec`] calls. The context stores it as its
/// `1 × dim` matrix, in the one registry every matrix lives in.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct VectorHandle(pub(crate) u64);

impl VectorHandle {
    /// The registry entry of the vector: its `1 × dim` matrix.
    pub(crate) fn row(self) -> MatrixHandle {
        MatrixHandle(self.0)
    }
}

/// A sparse vector with its value lane: what [`Context::insert_vec`] takes
/// and [`Context::vector`] returns.
///
/// The variants hold `Arc`s, so a `ValueVec` is a cheap clone. The context
/// stores a registered vector as the one row of a [`ValueMat`], so
/// [`Context::vector`] copies the entries out of that row.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueVec {
    /// Boolean lane (frontiers, reachability).
    Bool(Arc<SparseVec<bool>>),
    /// Integer lane (exact counts, tropical distances).
    I64(Arc<SparseVec<i64>>),
    /// Float lane.
    F64(Arc<SparseVec<f64>>),
}

impl ValueVec {
    /// Dimension (number of addressable positions).
    pub fn dim(&self) -> usize {
        on_variant!(self, ValueVec, v => v.dim())
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        on_variant!(self, ValueVec, v => v.nnz())
    }

    /// Which value lane the entries live on.
    pub fn value_kind(&self) -> ValueKind {
        match self {
            ValueVec::Bool(_) => ValueKind::Bool,
            ValueVec::I64(_) => ValueKind::I64,
            ValueVec::F64(_) => ValueKind::F64,
        }
    }

    /// Sorted indices of stored entries (the pattern — what a mask operand
    /// contributes regardless of lane).
    pub fn indices(&self) -> &[sparse::Idx] {
        on_variant!(self, ValueVec, v => v.indices())
    }

    /// Pattern-only copy (the engine reads a vector mask's pattern in
    /// place; this is for callers that want it detached).
    pub fn pattern(&self) -> SparseVec<()> {
        on_variant!(self, ValueVec, v => v.pattern())
    }
}

/// A registered matrix, stored **natively** on one value lane — the matrix
/// counterpart of [`ValueVec`] and the storage unit of the registry, for
/// vectors too (a registered vector is its `1 × dim` `ValueMat`).
///
/// This is the inversion of the old `f64`-canonical scheme: a boolean
/// adjacency matrix registered with [`Context::insert_typed`] keeps its
/// entries at 1 byte/nnz and is multiplied directly by `bool`-lane kernels
/// (zero-copy), while *cross-lane casts* — not the native storage — are the
/// on-demand, byte-budgeted auxiliaries ([`Context::bool_view`] /
/// [`Context::i64_view`] / [`Context::f64_view`] when the requested lane
/// differs from the stored one).
///
/// The variants hold `Arc`s, so a `ValueMat` is a cheap clone — reading a
/// matrix out of the context never copies its entries.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueMat {
    /// Boolean lane (adjacency patterns, reachability).
    Bool(Arc<CsrMatrix<bool>>),
    /// Integer lane (exact counts, tropical distances).
    I64(Arc<CsrMatrix<i64>>),
    /// Float lane (the historical canonical storage).
    F64(Arc<CsrMatrix<f64>>),
}

impl ValueMat {
    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        on_variant!(self, ValueMat, m => m.shape())
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.shape().0
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.shape().1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        on_variant!(self, ValueMat, m => m.nnz())
    }

    /// Which value lane the entries live on.
    pub fn value_kind(&self) -> ValueKind {
        match self {
            ValueMat::Bool(_) => ValueKind::Bool,
            ValueMat::I64(_) => ValueKind::I64,
            ValueMat::F64(_) => ValueKind::F64,
        }
    }

    /// Heap bytes of the native storage, with values billed at the stored
    /// lane's actual width ([`ValueKind::value_bytes`] — 1 byte/nnz for
    /// `bool`, not `f64` width).
    pub fn bytes(&self) -> usize {
        let structure = on_variant!(self, ValueMat, m => m.structure_bytes());
        structure + self.nnz() * self.value_kind().value_bytes()
    }

    /// Row pointers — the structure is lane-independent, so structural
    /// consumers (planner, flop counting) read it without dispatching.
    pub(crate) fn rowptr(&self) -> &[usize] {
        on_variant!(self, ValueMat, m => m.rowptr())
    }

    /// Column indices of all stored entries, row-major (lane-independent).
    pub(crate) fn colidx(&self) -> &[Idx] {
        on_variant!(self, ValueMat, m => m.colidx())
    }

    /// Column indices of row `i`.
    pub(crate) fn row_cols(&self, i: usize) -> &[Idx] {
        let (s, e) = (self.rowptr()[i], self.rowptr()[i + 1]);
        &self.colidx()[s..e]
    }

    /// Stored entries in row `i`.
    pub(crate) fn row_nnz(&self, i: usize) -> usize {
        self.rowptr()[i + 1] - self.rowptr()[i]
    }

    fn max_row_nnz(&self) -> usize {
        on_variant!(self, ValueMat, m => m.max_row_nnz())
    }

    fn nonempty_rows(&self) -> usize {
        on_variant!(self, ValueMat, m => m.nonempty_rows())
    }

    /// Whether `other` holds the same lane, structure and value bits
    /// ([`LaneValue::same_bits`]: on `f64`, `-0.0` differs from `0.0` and
    /// a NaN equals its own bits).
    fn same_bits(&self, other: &ValueMat) -> bool {
        fn same<T: Lane>(m: &CsrMatrix<T>, other: &ValueMat) -> bool {
            T::native_mat(other).is_some_and(|o| {
                m.shape() == o.shape()
                    && m.rowptr() == o.rowptr()
                    && m.colidx() == o.colidx()
                    && m.values()
                        .iter()
                        .zip(o.values())
                        .all(|(&x, &y)| T::same_bits(x, y))
            })
        }
        on_variant!(self, ValueMat, m => same(m, other))
    }

    /// Native-lane transpose (the lane travels with the structure).
    fn transposed(&self) -> ValueMat {
        on_variant!(self, ValueMat, m => ValueMat::from(transpose(m.as_ref())))
    }

    /// Cast to lane `T` (see [`LaneValue`]'s cast rules). Callers are
    /// expected to have taken the zero-copy native path already when
    /// `T::KIND == self.value_kind()`.
    fn cast<T: LaneValue>(&self) -> CsrMatrix<T> {
        on_variant!(self, ValueMat, m => m.map_values(T::cast_from))
    }
}

/// An evictable auxiliary slot: built on demand, dropped under memory
/// pressure, rebuilt on the next request. The value is type-erased so one
/// array holds every [`AuxKind`]; the kind fixes the stored type (see
/// [`AuxKind`]), and [`Entry::aux`] downcasts back to it.
type Slot = RwLock<Option<Arc<dyn Any + Send + Sync>>>;

/// One registered matrix (or vector, as its `1 × dim` matrix) plus
/// lazily-computed auxiliaries.
///
/// The matrix itself is stored **natively typed** ([`ValueMat`]); the
/// heavyweight auxiliaries — per-lane cast views and CSC forms, the
/// native-lane transpose, the degree vector — live in evictable [`Slot`]s
/// (one per [`AuxKind`]) accounted against the context's byte budget, and
/// cheap scalar statistics stay in `OnceLock`s. A cast slot exists per
/// lane, but the slot of the *stored* lane is never populated: requests
/// for the native lane are served zero-copy from `matrix` itself.
/// [`Context::update_typed`] replaces the whole entry, which is what makes
/// invalidation correct by construction: stale auxiliaries (every lane's)
/// are unreachable, not flagged.
pub(crate) struct Entry {
    pub(crate) matrix: ValueMat,
    pub(crate) version: u64,
    /// Evictable auxiliaries, indexed by [`AuxKind::index`].
    aux: [Slot; AuxKind::COUNT],
    /// Registered handle for the transpose, so engine operations can use
    /// `Aᵀ` as an operand with its own cached auxiliaries. Owned by this
    /// entry: removed alongside it on update/remove.
    transpose_handle: OnceLock<MatrixHandle>,
    max_row_nnz: OnceLock<usize>,
    nonempty_rows: OnceLock<usize>,
    plan_class: OnceLock<u64>,
}

impl Entry {
    fn new(matrix: ValueMat, version: u64) -> Self {
        Entry {
            matrix,
            version,
            aux: Default::default(),
            transpose_handle: OnceLock::new(),
            max_row_nnz: OnceLock::new(),
            nonempty_rows: OnceLock::new(),
            plan_class: OnceLock::new(),
        }
    }

    pub(crate) fn max_row_nnz(&self) -> usize {
        *self.max_row_nnz.get_or_init(|| self.matrix.max_row_nnz())
    }

    pub(crate) fn nonempty_rows(&self) -> usize {
        *self
            .nonempty_rows
            .get_or_init(|| self.matrix.nonempty_rows())
    }

    fn slot(&self, kind: AuxKind) -> &Slot {
        &self.aux[kind.index()]
    }

    /// The resident value of `kind`'s slot, if built.
    fn aux<T: Any + Send + Sync>(&self, kind: AuxKind) -> Option<Arc<T>> {
        let value = self.slot(kind).read().expect("aux slot lock").clone()?;
        Some(value.downcast().expect("aux slot holds its kind's type"))
    }

    /// Publish `built` into `kind`'s slot unless a racing builder got there
    /// first. Returns the resident value and whether `built` is it.
    fn publish<T: Any + Send + Sync>(&self, kind: AuxKind, built: Arc<T>) -> (Arc<T>, bool) {
        let mut slot = self.slot(kind).write().expect("aux slot lock");
        match &*slot {
            Some(existing) => {
                let existing = existing.clone().downcast();
                (existing.expect("aux slot holds its kind's type"), false)
            }
            None => {
                *slot = Some(built.clone());
                (built, true)
            }
        }
    }

    fn has_aux(&self, kind: AuxKind) -> bool {
        self.slot(kind).read().expect("aux slot lock").is_some()
    }

    fn clear_aux(&self, kind: AuxKind) {
        *self.slot(kind).write().expect("aux slot lock") = None;
    }
}

/// Which evictable auxiliary a ledger record tracks, and so which type its
/// slot holds. Cast views and CSC forms are tracked *per lane*, which is
/// what lets eviction, status reporting, and invalidation reason about
/// exactly one lane's slot.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
enum AuxKind {
    /// Cross-lane CSR cast view on the given lane (`CsrMatrix<T>`).
    Cast(ValueKind),
    /// CSC form on the given lane (`CscMatrix<T>`).
    Csc(ValueKind),
    /// Native-lane transpose (`ValueMat`).
    Transpose,
    /// Row populations (`Vec<u32>`).
    RowDegrees,
}

impl AuxKind {
    const COUNT: usize = 2 * ValueKind::ALL.len() + 2;

    fn index(self) -> usize {
        let lanes = ValueKind::ALL.len();
        match self {
            AuxKind::Cast(k) => k as usize,
            AuxKind::Csc(k) => lanes + k as usize,
            AuxKind::Transpose => 2 * lanes,
            AuxKind::RowDegrees => 2 * lanes + 1,
        }
    }
}

/// Byte accounting for the evictable auxiliaries, LRU-stamped.
struct AuxLedger {
    total_bytes: usize,
    budget_bytes: usize,
    stamp: u64,
    /// `(matrix id, kind)` → `(bytes, entry version, recency stamp)`.
    records: HashMap<(u64, AuxKind), (usize, u64, u64)>,
    evictions: u64,
}

impl AuxLedger {
    fn new() -> Self {
        AuxLedger {
            total_bytes: 0,
            budget_bytes: usize::MAX,
            stamp: 0,
            records: HashMap::new(),
            evictions: 0,
        }
    }
}

/// Observable state of the auxiliary cache (diagnostics and eviction
/// tests); obtained from [`Context::aux_cache_stats`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AuxCacheStats {
    /// Bytes currently charged for materialized CSC copies, transposes, and
    /// degree vectors.
    pub bytes: usize,
    /// Budget the cache is held under (`usize::MAX` = unbounded, the
    /// default).
    pub budget_bytes: usize,
    /// Auxiliaries dropped to stay under budget since the context was
    /// created.
    pub evictions: u64,
}

/// Which auxiliaries a handle currently has materialized (diagnostics and
/// cache-invalidation tests).
///
/// The `has_*_view` flags report **cross-lane cast slots** only: the
/// stored lane is served zero-copy from the native matrix, so its flag is
/// always `false` — which is exactly how a test asserts that a natively
/// registered matrix never materialized a canonical copy on another lane.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AuxStatus {
    /// Entry version (bumped by every [`Context::update`] /
    /// [`Context::update_typed`] that changes the matrix).
    pub version: u64,
    /// CSC form of the **stored** lane built.
    pub has_csc: bool,
    /// Native-lane transpose built.
    pub has_transpose: bool,
    /// Row-degree vector built.
    pub has_row_degrees: bool,
    /// `bool`-lane CSR cast built (always `false` when stored `bool`).
    pub has_bool_view: bool,
    /// `i64`-lane CSR cast built (always `false` when stored `i64`).
    pub has_i64_view: bool,
    /// `f64`-lane CSR cast built (always `false` when stored `f64` — one
    /// half of the "no f64 canonical was ever manufactured" witness for
    /// natively `bool`/`i64` matrices; [`AuxStatus::has_f64_csc`] is the
    /// other).
    pub has_f64_view: bool,
    /// `bool`-lane CSC built (for the stored lane this duplicates
    /// [`AuxStatus::has_csc`]).
    pub has_bool_csc: bool,
    /// `i64`-lane CSC built.
    pub has_i64_csc: bool,
    /// `f64`-lane CSC built — an `f64`-valued CSC on a `bool`/`i64`-stored
    /// entry is as much an f64 detour as a cast view, so the witness must
    /// see it.
    pub has_f64_csc: bool,
}

/// Cheap per-matrix statistics read from the cache.
#[derive(Copy, Clone, Debug)]
pub struct MatrixStats {
    /// `(nrows, ncols)`.
    pub shape: (usize, usize),
    /// Stored entries.
    pub nnz: usize,
    /// Largest row population.
    pub max_row_nnz: usize,
    /// Rows with at least one entry.
    pub nonempty_rows: usize,
    /// The lane the matrix is natively stored on.
    pub value: ValueKind,
    /// Heap bytes of the native storage (values billed at the stored
    /// lane's width — see [`ValueMat::bytes`]).
    pub bytes: usize,
}

/// Plan-cache key: the structural fingerprint classes of the three operands
/// plus mask polarity. Versions and handle identities are deliberately
/// *absent* — structurally-similar matrices (same shape, same nnz regime)
/// share plans, which is what lets k-truss peels reuse a plan across
/// versions without even one re-planning pass.
type PlanKey = (u64, u64, u64, bool);

/// Approximate heap footprint of one plan-cache entry (key + plan + LRU
/// stamp + hash-map overhead), used for the byte budget.
const PLAN_ENTRY_BYTES: usize = mem::size_of::<(PlanKey, (Plan, u64))>() + 48;

struct PlanCacheState {
    map: HashMap<PlanKey, (Plan, u64)>,
    stamp: u64,
    budget_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCacheState {
    fn new() -> Self {
        PlanCacheState {
            map: HashMap::new(),
            stamp: 0,
            // ~1500 plans — far more operation classes than any workload
            // here produces, small enough to stay cache-resident.
            budget_bytes: 256 * 1024,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

/// Hit/miss/eviction counters of the fingerprint-keyed plan cache
/// ([`Context::plan_cache_stats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans served from cache. A hit after [`Context::update`] is a plan
    /// reused *across versions* — the k-truss peeling payoff.
    pub hits: u64,
    /// Plans computed by the cost model.
    pub misses: u64,
    /// Entries dropped by the byte-budgeted LRU.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Approximate bytes currently cached.
    pub bytes: usize,
}

/// Orchestration context for masked SpGEMM workloads.
///
/// Owns the worker pool, one registry of matrices and vectors (a vector is
/// stored as its `1 × dim` matrix) with lazily-cached auxiliaries (CSC
/// form, transpose, degree vectors, row statistics), and the cost-model
/// configuration used by [`Context::plan`].
/// Operations are described by [`crate::MaskedOp`] descriptors built with
/// [`Context::op`] and executed one at a time ([`crate::OpBuilder::run`]) or
/// as heterogeneous streaming batches ([`Context::for_each_result`]).
///
/// ```
/// use engine::{Context, SemiringKind};
/// use sparse::CsrMatrix;
///
/// let ctx = Context::new();
/// let tri = CsrMatrix::try_new(
///     3, 3,
///     vec![0, 2, 4, 6],
///     vec![1, 2, 0, 2, 0, 1],
///     vec![1.0f64; 6],
/// ).unwrap();
/// let h = ctx.insert(tri);
/// // Count wedges closing each edge: M ⊙ (A·A) planned automatically.
/// let c = ctx.op(h, h, h).semiring(SemiringKind::PlusPair).run().unwrap();
/// assert_eq!(c.nnz(), 6);
/// ```
pub struct Context {
    pub(crate) pool: rayon::ThreadPool,
    pub(crate) threads: usize,
    pub(crate) cfg: RwLock<HybridConfig>,
    /// Every registered matrix and vector, by handle id.
    store: RwLock<HashMap<u64, Arc<Entry>>>,
    next_id: AtomicU64,
    next_version: AtomicU64,
    plan_cache: Mutex<PlanCacheState>,
    aux_ledger: Mutex<AuxLedger>,
    /// Flop count below which planned products skip the worker pool and run
    /// serially on the calling thread (0 = never; installed by
    /// [`Context::calibrate`] from the measured dispatch overhead).
    serial_cutoff: RwLock<f64>,
    /// Reusable kernel scratch for serial single ops, matrix and vector
    /// alike (batch workers hold their own sets). Guarded by `try_lock`
    /// with a transient-scratch fallback, so concurrent single ops never
    /// block each other — they just skip the reuse. It lives as long as
    /// the context and is not billed to the aux ledger: each (lane,
    /// semiring, family) keeps accumulators sized for the widest product
    /// it ran (an MSA holds `O(ncols)` per lane and semiring).
    pub(crate) scratch: Mutex<ScratchSets>,
}

impl Default for Context {
    fn default() -> Self {
        Self::new()
    }
}

/// Quantize a count to ~1.5× steps (most-significant bit plus the bit
/// below): counts within one step land in the same structural class.
fn log_bucket(n: usize) -> u64 {
    if n == 0 {
        return 0;
    }
    let b = 63 - (n as u64).leading_zeros() as u64;
    let half = if b >= 1 { (n as u64 >> (b - 1)) & 1 } else { 0 };
    1 + ((b << 1) | half)
}

/// The plan-cache class of a `shape` pattern with `nnz` entries stored on
/// lane `kind` ([`Context::plan_fingerprint`]).
fn plan_class((nrows, ncols): (usize, usize), nnz: usize, kind: ValueKind) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(nrows as u64);
    mix(ncols as u64);
    mix(log_bucket(nnz));
    // The stored kind tags the class: a natively-bool operand and its f64
    // twin resolve operands differently (zero-copy vs cast), so their plans
    // must not alias.
    mix(1 + kind as u64);
    h
}

impl Context {
    /// Context using the ambient parallelism (the `THREADS` env override,
    /// an enclosing `ThreadPool::install`, or available cores) and the
    /// default cost model.
    pub fn new() -> Self {
        Self::with_threads(rayon::current_num_threads())
    }

    /// Context with a fixed worker count (intra-op parallelism and batch
    /// width). The workers are persistent: spawned here, parked between
    /// operations, and shared by single-op row parallelism and batch
    /// execution alike.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        Context {
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build worker pool"),
            threads,
            cfg: RwLock::new(HybridConfig::default()),
            store: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            next_version: AtomicU64::new(1),
            plan_cache: Mutex::new(PlanCacheState::new()),
            aux_ledger: Mutex::new(AuxLedger::new()),
            serial_cutoff: RwLock::new(0.0),
            scratch: Mutex::default(),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current cost-model constants.
    pub fn config(&self) -> HybridConfig {
        *self.cfg.read().expect("config lock")
    }

    /// Replace the cost-model constants ([`HybridConfig::default`] until
    /// then; [`Context::calibrate`] leaves them as they are).
    pub fn set_config(&self, cfg: HybridConfig) {
        *self.cfg.write().expect("config lock") = cfg;
        // Plans embed cost estimates; a new model invalidates them.
        self.plan_cache.lock().expect("plan lock").map.clear();
    }

    // ------------------------------------------------------------- budgets

    /// Cap the bytes held by evictable auxiliaries (CSC copies, transposes,
    /// degree vectors). When a newly built auxiliary pushes the total over
    /// the budget, the least-recently-used auxiliaries are dropped (and
    /// transparently rebuilt if requested again). Default: unbounded.
    pub fn set_aux_budget(&self, bytes: usize) {
        {
            let mut ledger = self.aux_ledger.lock().expect("aux ledger lock");
            ledger.budget_bytes = bytes;
        }
        self.enforce_aux_budget(None);
    }

    /// Current auxiliary-cache accounting.
    pub fn aux_cache_stats(&self) -> AuxCacheStats {
        let ledger = self.aux_ledger.lock().expect("aux ledger lock");
        AuxCacheStats {
            bytes: ledger.total_bytes,
            budget_bytes: ledger.budget_bytes,
            evictions: ledger.evictions,
        }
    }

    /// Cap the bytes held by the fingerprint-keyed plan cache (LRU
    /// eviction). Default: 256 KiB.
    pub fn set_plan_budget(&self, bytes: usize) {
        let mut pc = self.plan_cache.lock().expect("plan lock");
        pc.budget_bytes = bytes;
        Self::enforce_plan_budget(&mut pc);
    }

    /// Hit/miss/eviction counters of the plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let pc = self.plan_cache.lock().expect("plan lock");
        PlanCacheStats {
            hits: pc.hits,
            misses: pc.misses,
            evictions: pc.evictions,
            entries: pc.map.len(),
            bytes: pc.map.len() * PLAN_ENTRY_BYTES,
        }
    }

    // ------------------------------------------------------------ registry

    /// Register a matrix on the `f64` lane and return its handle —
    /// equivalent to [`Context::insert_typed`] with an `f64` matrix; the
    /// historical entry point, kept so existing call sites compile
    /// unchanged.
    pub fn insert(&self, matrix: CsrMatrix<f64>) -> MatrixHandle {
        self.insert_typed(matrix)
    }

    /// Register an already-shared `f64` matrix without copying it (e.g. a
    /// cached transpose obtained from [`Context::transposed`]).
    pub fn insert_shared(&self, matrix: Arc<CsrMatrix<f64>>) -> MatrixHandle {
        self.insert_typed(ValueMat::F64(matrix))
    }

    /// Register a matrix with **native** storage on its own value lane.
    ///
    /// Accepts a typed `CsrMatrix<bool|i64|f64>`, a shared
    /// `Arc<CsrMatrix<_>>`, or a [`ValueMat`]; the entries are stored as-is
    /// (a boolean adjacency costs 1 byte/nnz, with *no* `f64` canonical
    /// copy anywhere), operations whose lane matches the stored lane read
    /// it zero-copy, and cross-lane casts are built on demand as evictable
    /// auxiliaries.
    ///
    /// ```
    /// use engine::{Context, ValueKind};
    /// use sparse::CsrMatrix;
    ///
    /// let ctx = Context::with_threads(1);
    /// let adj = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 0], vec![true, true]).unwrap();
    /// let h = ctx.insert_typed(adj);
    /// assert_eq!(ctx.stats(h).value, ValueKind::Bool);
    /// ```
    pub fn insert_typed(&self, matrix: impl Into<ValueMat>) -> MatrixHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(Entry::new(matrix.into(), version));
        self.store.write().expect("store lock").insert(id, entry);
        MatrixHandle(id)
    }

    /// Replace the matrix behind `handle` on the `f64` lane — equivalent
    /// to [`Context::update_typed`] with an `f64` matrix.
    pub fn update(&self, handle: MatrixHandle, matrix: CsrMatrix<f64>) {
        self.update_typed(handle, matrix)
    }

    /// Replace the matrix behind `handle` (the stored lane may change),
    /// invalidating all cached auxiliaries — every lane's cast and CSC
    /// slots, the transpose, degrees, and any derived transpose handle. An
    /// update with an identical matrix (same lane, structure, and value
    /// bits: a `0.0` that becomes `-0.0` is a change, a NaN stored again
    /// is not) keeps the cache warm instead.
    pub fn update_typed(&self, handle: MatrixHandle, matrix: impl Into<ValueMat>) {
        self.store_matrix(handle, matrix.into(), true);
    }

    /// [`Context::update_typed`]; `keep_if_same: false` skips its bitwise
    /// comparison, for a caller that already knows the bits changed.
    pub(crate) fn store_matrix(&self, handle: MatrixHandle, matrix: ValueMat, keep_if_same: bool) {
        let derived;
        {
            let mut store = self.store.write().expect("store lock");
            let entry = store.get_mut(&handle.0).expect("handle not registered");
            if keep_if_same && entry.matrix.same_bits(&matrix) {
                return; // no change — cached auxiliaries stay valid
            }
            derived = entry.transpose_handle.get().copied();
            let version = self.next_version.fetch_add(1, Ordering::Relaxed);
            *entry = Arc::new(Entry::new(matrix, version));
            if let Some(d) = derived {
                store.remove(&d.0);
            }
        }
        // Superseded versions can never be queried again; drop their
        // ledger records so update-in-a-loop workloads stay bounded.
        self.purge_caches(handle.0);
        if let Some(d) = derived {
            self.purge_caches(d.0);
        }
    }

    /// Drop a matrix, its auxiliaries, and any derived transpose handle.
    pub fn remove(&self, handle: MatrixHandle) {
        let derived = {
            let mut store = self.store.write().expect("store lock");
            let derived = store
                .remove(&handle.0)
                .and_then(|e| e.transpose_handle.get().copied());
            if let Some(d) = derived {
                store.remove(&d.0);
            }
            derived
        };
        self.purge_caches(handle.0);
        if let Some(d) = derived {
            self.purge_caches(d.0);
        }
    }

    /// Drop every ledger record of matrix id `id`. (Plan-cache entries are
    /// keyed by structural class, not identity, so they stay — they remain
    /// valid for any future operand of the same class and are bounded by
    /// the LRU budget.)
    fn purge_caches(&self, id: u64) {
        let mut ledger = self.aux_ledger.lock().expect("aux ledger lock");
        let AuxLedger {
            records,
            total_bytes,
            ..
        } = &mut *ledger;
        records.retain(|&(rid, _), &mut (bytes, _, _)| {
            if rid == id {
                *total_bytes -= bytes;
                false
            } else {
                true
            }
        });
    }

    pub(crate) fn entry(&self, handle: MatrixHandle) -> Arc<Entry> {
        self.try_entry(handle).expect("handle not registered")
    }

    /// The entry behind `handle`, or [`SparseError::UnknownHandle`].
    pub(crate) fn try_entry(&self, handle: MatrixHandle) -> Result<Arc<Entry>, SparseError> {
        let store = self.store.read().expect("store lock");
        store
            .get(&handle.0)
            .cloned()
            .ok_or(SparseError::UnknownHandle)
    }

    /// The natively-stored matrix behind a handle (cheap clone — the
    /// entries are shared, whatever lane they live on).
    pub fn value_mat(&self, handle: MatrixHandle) -> ValueMat {
        self.entry(handle).matrix.clone()
    }

    /// The value lane the matrix behind `handle` is natively stored on.
    pub fn matrix_kind(&self, handle: MatrixHandle) -> ValueKind {
        self.entry(handle).matrix.value_kind()
    }

    /// The `f64`-lane view of the matrix behind a handle: the native
    /// storage itself (zero-copy) when the entry is stored `f64`, else the
    /// cached cast ([`Context::f64_view`]). The historical accessor — for
    /// `f64`-registered matrices it behaves exactly as before; callers
    /// that want the native lane use [`Context::value_mat`].
    pub fn matrix(&self, handle: MatrixHandle) -> Arc<CsrMatrix<f64>> {
        self.f64_view(handle)
    }

    /// Total heap bytes of all natively-stored registry entries, registered
    /// vectors included (each as its `1 × dim` matrix, [`ValueMat::bytes`]).
    /// Cast/CSC auxiliaries are accounted separately
    /// ([`Context::aux_cache_stats`]).
    pub fn registry_bytes(&self) -> usize {
        self.store
            .read()
            .expect("store lock")
            .values()
            .map(|e| e.matrix.bytes())
            .sum()
    }

    // ------------------------------------------------------ vector registry

    /// Register a sparse vector (any value lane) and return its handle. It
    /// is stored as its `1 × dim` matrix, in the registry every matrix
    /// lives in.
    ///
    /// ```
    /// use engine::Context;
    /// use sparse::SparseVec;
    ///
    /// let ctx = Context::with_threads(1);
    /// let h = ctx.insert_vec(SparseVec::try_new(8, vec![2], vec![true]).unwrap());
    /// assert_eq!(ctx.vector(h).nnz(), 1);
    /// ```
    pub fn insert_vec(&self, vec: impl Into<ValueVec>) -> VectorHandle {
        VectorHandle(self.insert_typed(one_row(vec.into())).0)
    }

    /// Replace the vector behind `handle` (the lane may change). Frontier
    /// and visited sets evolve every BFS level; the handle identity — and
    /// therefore the descriptor referencing it — stays stable. Every call
    /// bumps the version.
    pub fn update_vec(&self, handle: VectorHandle, vec: impl Into<ValueVec>) {
        self.store_matrix(handle.row(), one_row(vec.into()), false);
    }

    /// Drop a registered vector.
    pub fn remove_vec(&self, handle: VectorHandle) {
        self.remove(handle.row());
    }

    /// The vector behind a handle, copied out of its stored row.
    pub fn vector(&self, handle: VectorHandle) -> ValueVec {
        on_variant!(&self.entry(handle.row()).matrix, ValueMat, m => {
            let row = SparseVec::from_row(CsrMatrix::clone(m));
            ValueVec::from(row.expect("a registered vector is one row"))
        })
    }

    /// Version stamp of the vector behind `handle` (bumped by every
    /// [`Context::update_vec`]) — diagnostics and cache-coherence tests.
    pub fn vec_version(&self, handle: VectorHandle) -> u64 {
        self.entry(handle.row()).version
    }

    // ------------------------------------------------------- serial cutoff

    /// Route planned products whose estimated flop count falls below
    /// `flops` to the serial in-thread path instead of dispatching the
    /// worker pool ([`Plan::serial`](crate::Plan)). [`Context::calibrate`]
    /// installs `dispatch_overhead / msa_secs_per_flop` here — the work
    /// level at which waking the pool costs as much as the product itself;
    /// it is the one planner input calibration measures. `0.0` (the
    /// default before calibration) disables the cutoff.
    pub fn set_serial_cutoff_flops(&self, flops: f64) {
        *self.serial_cutoff.write().expect("cutoff lock") = flops;
        // Cached plans embed the serial decision; recompute them.
        self.plan_cache.lock().expect("plan lock").map.clear();
    }

    /// The current planner serial cutoff, in estimated flops.
    pub fn serial_cutoff_flops(&self) -> f64 {
        *self.serial_cutoff.read().expect("cutoff lock")
    }

    // --------------------------------------------------- evictable caches

    /// Record use of `(id, kind)` in the ledger (insert or touch), then
    /// evict least-recently-used auxiliaries if over budget.
    fn charge_aux(&self, handle: MatrixHandle, version: u64, kind: AuxKind, bytes: usize) {
        // An update/remove may have superseded `version` while the builder
        // ran (it held the old entry Arc, not the store lock). Charging
        // then would leave a phantom record: the purge already happened,
        // and the built auxiliary is reachable only through the caller's
        // transient Arc. Holding the store read lock across the check and
        // the insert excludes a concurrent update's replace-then-purge
        // (update purges only after releasing its store write lock, so it
        // will see and remove any record inserted here first).
        {
            let store = self.store.read().expect("store lock");
            if store.get(&handle.0).is_none_or(|e| e.version != version) {
                return;
            }
            let mut ledger = self.aux_ledger.lock().expect("aux ledger lock");
            ledger.stamp += 1;
            let stamp = ledger.stamp;
            if let Some(old) = ledger
                .records
                .insert((handle.0, kind), (bytes, version, stamp))
            {
                ledger.total_bytes -= old.0;
            }
            ledger.total_bytes += bytes;
        }
        self.enforce_aux_budget(Some((handle.0, kind)));
    }

    /// Bump the recency stamp of `(id, kind)` on a cache hit.
    fn touch_aux(&self, handle: MatrixHandle, kind: AuxKind) {
        let mut ledger = self.aux_ledger.lock().expect("aux ledger lock");
        ledger.stamp += 1;
        let stamp = ledger.stamp;
        if let Some(rec) = ledger.records.get_mut(&(handle.0, kind)) {
            rec.2 = stamp;
        }
    }

    /// Drop the ledger record of `(id, kind)` without clearing the slot —
    /// for auxiliaries whose ownership moved elsewhere (a transpose
    /// promoted to a registry entry), where eviction would free nothing.
    fn uncharge_aux(&self, handle: MatrixHandle, kind: AuxKind) {
        let mut ledger = self.aux_ledger.lock().expect("aux ledger lock");
        if let Some((bytes, _, _)) = ledger.records.remove(&(handle.0, kind)) {
            ledger.total_bytes -= bytes;
        }
    }

    /// Evict LRU auxiliaries until the ledger is back under budget.
    /// `protect` (the auxiliary just built) is evicted only last, so one
    /// oversized auxiliary cannot thrash itself out while still in use.
    fn enforce_aux_budget(&self, protect: Option<(u64, AuxKind)>) {
        loop {
            let victim = {
                let mut ledger = self.aux_ledger.lock().expect("aux ledger lock");
                if ledger.total_bytes <= ledger.budget_bytes {
                    return;
                }
                let victim_key = ledger
                    .records
                    .iter()
                    .filter(|(k, _)| Some(**k) != protect)
                    .min_by_key(|(_, (_, _, stamp))| *stamp)
                    .map(|(k, _)| *k);
                match victim_key {
                    None => return, // only the protected record remains
                    Some(key) => {
                        let (bytes, version, _) =
                            ledger.records.remove(&key).expect("victim present");
                        ledger.total_bytes -= bytes;
                        ledger.evictions += 1;
                        (key, version)
                    }
                }
            };
            let ((id, kind), version) = victim;
            // Drop the Arc from the slot (borrowers keep theirs alive).
            // Skip if the entry was replaced since the record was written.
            if let Ok(entry) = self.try_entry(MatrixHandle(id)) {
                if entry.version == version {
                    entry.clear_aux(kind);
                }
            }
        }
    }

    /// The shared slot discipline of every evictable auxiliary: serve and
    /// LRU-touch a resident value, otherwise build it, publish it (first
    /// writer wins a build race), and charge the ledger. Only the
    /// **publishing** thread charges — a build-race loser must not insert
    /// a record for a value it did not publish, because the winner may
    /// have been [`Context::transposed_for_promote`], whose value is
    /// deliberately uncharged (owned by a registry entry); a loser's
    /// late charge would double-bill those bytes.
    fn cached_aux<T: Any + Send + Sync>(
        &self,
        handle: MatrixHandle,
        kind: AuxKind,
        build: impl FnOnce(&Entry) -> T,
        bytes: impl FnOnce(&T) -> usize,
    ) -> Arc<T> {
        let e = self.entry(handle);
        if let Some(v) = e.aux(kind) {
            self.touch_aux(handle, kind);
            return v;
        }
        let built = Arc::new(build(&e));
        let nbytes = bytes(&built);
        let (out, published) = e.publish(kind, built);
        if published {
            self.charge_aux(handle, e.version, kind, nbytes);
        } else {
            self.touch_aux(handle, kind);
        }
        out
    }

    /// The lane-`T` CSR form of the matrix: the native storage itself
    /// (zero-copy) when the entry is stored on lane `T`, otherwise the
    /// cached cast view built on first call, dropped under budget
    /// pressure, and rebuilt on demand.
    pub(crate) fn view<T: Lane>(&self, handle: MatrixHandle) -> Arc<CsrMatrix<T>> {
        if let Some(m) = T::native_mat(&self.entry(handle).matrix) {
            return m.clone();
        }
        self.cached_aux(
            handle,
            AuxKind::Cast(T::KIND),
            |e| e.matrix.cast(),
            CsrMatrix::heap_bytes,
        )
    }

    /// Cached CSC form on lane `T`. The CSR form is fetched inside the
    /// build closure, so a resident CSC is served without touching (or
    /// rebuilding) the cast slot; on the stored lane this is the CSC of
    /// the native storage.
    pub(crate) fn lane_csc<T: Lane>(&self, handle: MatrixHandle) -> Arc<CscMatrix<T>> {
        self.cached_aux(
            handle,
            AuxKind::Csc(T::KIND),
            |_| CscMatrix::from_csr(&self.view::<T>(handle)),
            CscMatrix::heap_bytes,
        )
    }

    /// The `bool`-lane CSR form (native zero-copy or cached cast, `v != 0`
    /// per entry) — what boolean-semiring operations (BFS frontier
    /// expansion) multiply against.
    pub fn bool_view(&self, handle: MatrixHandle) -> Arc<CsrMatrix<bool>> {
        self.view(handle)
    }

    /// The `i64`-lane CSR form (native zero-copy or cached cast; `f64`
    /// values truncate) — the operand of exact integer-semiring operations.
    pub fn i64_view(&self, handle: MatrixHandle) -> Arc<CsrMatrix<i64>> {
        self.view(handle)
    }

    /// The `f64`-lane CSR form (native zero-copy or cached cast) — the
    /// compatibility view behind [`Context::matrix`]. Natively `bool`/`i64`
    /// matrices only ever pay for this when an `f64`-lane operation
    /// actually asks for them.
    pub fn f64_view(&self, handle: MatrixHandle) -> Arc<CsrMatrix<f64>> {
        self.view(handle)
    }

    /// Cached CSC form on the `f64` lane (built from the `f64` view on
    /// first call, dropped under budget pressure, rebuilt on demand).
    pub fn csc(&self, handle: MatrixHandle) -> Arc<CscMatrix<f64>> {
        self.lane_csc(handle)
    }

    /// Cached CSC form on the `bool` lane (pull-based boolean ops).
    pub fn bool_csc(&self, handle: MatrixHandle) -> Arc<CscMatrix<bool>> {
        self.lane_csc(handle)
    }

    /// Cached CSC form on the `i64` lane (pull-based integer ops).
    pub fn i64_csc(&self, handle: MatrixHandle) -> Arc<CscMatrix<i64>> {
        self.lane_csc(handle)
    }

    /// Cached native-lane transpose (built on first call, dropped under
    /// budget pressure, rebuilt on demand). The lane travels with the
    /// structure: a `bool`-stored matrix has a `bool` transpose.
    pub fn transposed_mat(&self, handle: MatrixHandle) -> ValueMat {
        (*self.cached_aux(
            handle,
            AuxKind::Transpose,
            |e| e.matrix.transposed(),
            ValueMat::bytes,
        ))
        .clone()
    }

    /// Cached transpose on the `f64` lane — the historical accessor,
    /// unchanged for `f64`-stored matrices (an evictable aux slot). For
    /// natively `bool`/`i64` matrices the native transpose is computed
    /// first and its `f64` cast is cached on the derived transpose
    /// handle, which this call registers ([`Context::transpose_handle`] —
    /// owned by the parent entry, freed with it).
    pub fn transposed(&self, handle: MatrixHandle) -> Arc<CsrMatrix<f64>> {
        match self.transposed_mat(handle) {
            ValueMat::F64(m) => m,
            _ => self.f64_view(self.transpose_handle(handle)),
        }
    }

    /// The transpose for promotion to a registry entry: serve or build the
    /// slot like [`Context::transposed_mat`], but **without** charging the
    /// ledger — the bytes are about to be owned by a registry entry
    /// (counted by `registry_bytes`), and charging first would evict
    /// unrelated hot auxiliaries to make room for a record that is
    /// immediately released again. Any record a concurrent
    /// [`Context::transposed_mat`] managed to charge is dropped (evicting
    /// the slot would free nothing once the entry pins the Arc).
    fn transposed_for_promote(&self, e: &Entry, handle: MatrixHandle) -> ValueMat {
        let t = match e.aux::<ValueMat>(AuxKind::Transpose) {
            Some(t) => t,
            None => {
                e.publish(AuxKind::Transpose, Arc::new(e.matrix.transposed()))
                    .0
            }
        };
        self.uncharge_aux(handle, AuxKind::Transpose);
        (*t).clone()
    }

    /// Handle for the cached transpose, registered on first call and owned
    /// by the parent entry: it shares the cached `Aᵀ` storage (on the
    /// parent's native lane), carries its own auxiliaries (degrees, CSC,
    /// plans), and is removed or invalidated together with the parent.
    /// Lets repeated calls (BC sweeps, similarity joins) use `Aᵀ` as an
    /// operand without re-registering it per call.
    pub fn transpose_handle(&self, handle: MatrixHandle) -> MatrixHandle {
        loop {
            let e = self.entry(handle);
            let derived = *e
                .transpose_handle
                .get_or_init(|| self.insert_typed(self.transposed_for_promote(&e, handle)));
            // A concurrent update/remove may have superseded `e` while the
            // init ran; its OnceLock (and the derived entry registered
            // into it) are then unreachable from the store, so the
            // update's derived-handle cleanup never saw them. Detect the
            // supersede, drop the orphan, and retry against the current
            // entry (same discipline as `charge_aux`'s version guard).
            match self.try_entry(handle).ok() {
                Some(cur)
                    if cur.version == e.version || cur.transpose_handle.get() == Some(&derived) =>
                {
                    return derived;
                }
                Some(_) => self.remove(derived), // orphaned by an update — retry
                None => {
                    // Parent removed mid-init: the derived entry must not
                    // outlive it.
                    self.remove(derived);
                    panic!("handle not registered");
                }
            }
        }
    }

    /// Cached row-degree vector (structure-only; built on first call,
    /// dropped under budget pressure, rebuilt on demand).
    pub fn row_degrees(&self, handle: MatrixHandle) -> Arc<Vec<u32>> {
        self.cached_aux(
            handle,
            AuxKind::RowDegrees,
            |e| {
                (0..e.matrix.nrows())
                    .map(|i| e.matrix.row_nnz(i) as u32)
                    .collect()
            },
            |d: &Vec<u32>| d.len() * mem::size_of::<u32>(),
        )
    }

    /// Cheap cached statistics.
    pub fn stats(&self, handle: MatrixHandle) -> MatrixStats {
        let e = self.entry(handle);
        MatrixStats {
            shape: e.matrix.shape(),
            nnz: e.matrix.nnz(),
            max_row_nnz: e.max_row_nnz(),
            nonempty_rows: e.nonempty_rows(),
            value: e.matrix.value_kind(),
            bytes: e.matrix.bytes(),
        }
    }

    /// Which auxiliaries are currently materialized for `handle` (see
    /// [`AuxStatus`] for the per-lane cast semantics).
    pub fn aux_status(&self, handle: MatrixHandle) -> AuxStatus {
        let e = self.entry(handle);
        AuxStatus {
            version: e.version,
            has_csc: e.has_aux(AuxKind::Csc(e.matrix.value_kind())),
            has_transpose: e.has_aux(AuxKind::Transpose),
            has_row_degrees: e.has_aux(AuxKind::RowDegrees),
            has_bool_view: e.has_aux(AuxKind::Cast(ValueKind::Bool)),
            has_i64_view: e.has_aux(AuxKind::Cast(ValueKind::I64)),
            has_f64_view: e.has_aux(AuxKind::Cast(ValueKind::F64)),
            has_bool_csc: e.has_aux(AuxKind::Csc(ValueKind::Bool)),
            has_i64_csc: e.has_aux(AuxKind::Csc(ValueKind::I64)),
            has_f64_csc: e.has_aux(AuxKind::Csc(ValueKind::F64)),
        }
    }

    /// The structural fingerprint class of the matrix behind `handle` —
    /// the quantity that keys the plan cache.
    ///
    /// Where [`CsrMatrix::structural_fingerprint`] hashes the exact
    /// structure (equal only for identical patterns), this class hashes the
    /// *regime* the planner's cost model actually discriminates on: the
    /// shape plus the nonzero count quantized to ~1.5× steps. Two versions
    /// of a peeled edge set whose nnz stays within one step share a class,
    /// so a plan computed for one is served for the other.
    pub fn plan_fingerprint(&self, handle: MatrixHandle) -> u64 {
        let e = self.entry(handle);
        let m = &e.matrix;
        *e.plan_class
            .get_or_init(|| plan_class(m.shape(), m.nnz(), m.value_kind()))
    }

    /// `flops(A·B)`, counted over `A`'s entries from `B`'s cached row
    /// degrees.
    pub fn flops(&self, a: MatrixHandle, b: MatrixHandle) -> u64 {
        let bdeg = self.row_degrees(b);
        // Structure-only: the flop count never touches a value lane.
        row_flops(self.entry(a).matrix.colidx(), |k| bdeg[k] as usize)
    }

    // ----------------------------------------------------------- planning

    fn enforce_plan_budget(pc: &mut PlanCacheState) {
        while pc.map.len() * PLAN_ENTRY_BYTES > pc.budget_bytes {
            let victim = pc
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    pc.map.remove(&k);
                    pc.evictions += 1;
                }
                None => return,
            }
        }
    }

    /// Choose an algorithm and phase discipline for `M ⊙ (A·B)`
    /// (or `¬M ⊙` with `complemented`) from cached statistics.
    ///
    /// Plans are cached under the operands' structural fingerprint classes
    /// ([`Context::plan_fingerprint`]): re-planning the same multiply is a
    /// map lookup, and so is planning a *structurally similar* one — after
    /// a [`Context::update`] that stays in the same nnz regime (a k-truss
    /// peel, a re-weighted graph), the cached plan is served without even
    /// one cost-model pass. The cache is a byte-budgeted LRU
    /// ([`Context::set_plan_budget`], [`Context::plan_cache_stats`]).
    ///
    /// A vector product is planned here too, its vectors being their
    /// `1 × dim` registry entries: consecutive BFS levels whose frontiers
    /// stay in one population regime, and repeated traversals of the same
    /// graph, are served from cache.
    pub fn plan(
        &self,
        mask: MatrixHandle,
        complemented: bool,
        a: MatrixHandle,
        b: MatrixHandle,
    ) -> Result<Plan, SparseError> {
        plan::validate(self, mask, a, b)?;
        let key: PlanKey = (
            self.plan_fingerprint(mask),
            self.plan_fingerprint(a),
            self.plan_fingerprint(b),
            complemented,
        );
        Ok(self.cached_plan(key, || plan::plan(self, mask, a, b, complemented)))
    }
    /// The plan cached under `key` (a hit refreshes its LRU stamp), or the
    /// one `compute` makes, cached before it is returned.
    fn cached_plan(&self, key: PlanKey, compute: impl FnOnce() -> Plan) -> Plan {
        {
            let mut pc = self.plan_cache.lock().expect("plan lock");
            pc.stamp += 1;
            let stamp = pc.stamp;
            if let Some(entry) = pc.map.get_mut(&key) {
                entry.1 = stamp;
                let plan = entry.0;
                pc.hits += 1;
                return plan;
            }
        }
        let plan = compute();
        let mut pc = self.plan_cache.lock().expect("plan lock");
        pc.misses += 1;
        pc.stamp += 1;
        let stamp = pc.stamp;
        pc.map.insert(key, (plan, stamp));
        Self::enforce_plan_budget(&mut pc);
        plan
    }
}

/// A vector as the one-row matrix the registry stores it as (the entries
/// move, uncopied, unless another `Arc` shares them).
fn one_row(vec: ValueVec) -> ValueMat {
    on_variant!(vec, ValueVec, v => ValueMat::from(Arc::unwrap_or_clone(v).into_row()))
}
