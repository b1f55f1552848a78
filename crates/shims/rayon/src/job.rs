//! Jobs: stack-allocated chunk sets claimed by pool workers through a
//! shared atomic cursor.
//!
//! [`schedule`] is the bridge every parallel-iterator consumer runs
//! through. It splits the iterator into [`PARTS_PER_WORKER`]× more parts
//! than effective workers, publishes claim tickets on the registry queue,
//! and then participates itself: the initiating thread and every woken
//! worker pull part indices from one shared [`AtomicUsize`] cursor until it
//! is exhausted. A worker stuck with an expensive part simply stops
//! claiming while the others drain the rest — dynamic load balancing
//! without spawning a single thread — and an initiator whose last parts
//! are still running on other workers steals *other* queued jobs while it
//! waits, so nested jobs cannot idle a thread.
//!
//! Safety protocol: the [`ChunkSet`] lives on the initiator's stack and is
//! reached by workers through a type-erased [`JobRef`]. The initiator may
//! not return until no other thread can touch the set. That is enforced by
//! exact attachment counting: `refs` starts at 1 (the initiator) plus one
//! per injected ticket; every finished attachment decrements it, tickets
//! the initiator purges from the queue are decremented by the purge (pop
//! and purge are mutually exclusive under the queue lock), and the thread
//! that brings `refs` to zero sets the completion latch.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::iter::ParallelIterator;
use crate::pool::{self, Registry, WidthGuard, PARTS_PER_WORKER};

/// Completion latch: set exactly once when a job's last attachment ends.
pub(crate) struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn set(&self) {
        // Notify while still holding the lock: the latch lives on the
        // initiator's stack, and the moment the lock is released a waiter
        // (or a `probe` poller) may observe `done`, return, and free it.
        // Notifying after unlock would touch a freed condvar.
        let mut done = self.done.lock().expect("latch lock");
        *done = true;
        self.cv.notify_all();
    }

    fn probe(&self) -> bool {
        *self.done.lock().expect("latch lock")
    }

    /// Wait until set or `timeout`, whichever first (the waiter re-checks
    /// and steals between waits).
    fn wait_timeout(&self, timeout: Duration) {
        let guard = self.done.lock().expect("latch lock");
        if !*guard {
            let _ = self.cv.wait_timeout(guard, timeout).expect("latch lock");
        }
    }
}

/// Type-erased pointer to a stack-allocated job, safe to move across
/// threads under the counting protocol above.
#[derive(Copy, Clone)]
pub(crate) struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

unsafe impl Send for JobRef {}

impl JobRef {
    /// Attach to the job: claim and run chunks until the cursor is
    /// exhausted, then release the attachment.
    ///
    /// # Safety
    /// `data` must point to a live job whose initiator is blocked until
    /// every attachment releases.
    pub(crate) unsafe fn execute(self) {
        (self.execute)(self.data)
    }

    pub(crate) fn refers_to(&self, data: *const ()) -> bool {
        self.data == data
    }
}

/// A parallel-iterator job: the split parts, their result slots, the claim
/// cursor, and the completion protocol state.
struct ChunkSet<P: ParallelIterator, T, F> {
    parts: Vec<UnsafeCell<Option<P>>>,
    results: Vec<UnsafeCell<Option<T>>>,
    cursor: AtomicUsize,
    /// Live attachments + unclaimed tickets + the initiator; see module
    /// docs.
    refs: AtomicUsize,
    latch: Latch,
    /// First panic payload from any chunk; re-raised by the initiator.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Effective width nested parallel calls inside chunks observe.
    width: usize,
    f: *const F,
}

unsafe impl<P, T, F> Sync for ChunkSet<P, T, F>
where
    P: ParallelIterator,
    T: Send,
    F: Sync,
{
}

impl<P, T, F> ChunkSet<P, T, F>
where
    P: ParallelIterator,
    T: Send,
    F: Fn(P) -> T + Sync,
{
    /// Claim and run parts until the cursor passes the end. Every part
    /// runs even after another part has panicked — as under the scoped
    /// scheduler this replaced, where sibling threads ran to completion
    /// before the join re-raised. That matters beyond fidelity: a part's
    /// closure may own resources whose disposal others block on (the
    /// batch executor's channel senders), so skipping parts could leave
    /// a foreground consumer waiting forever.
    fn attach(&self) {
        let _width = WidthGuard::enter(self.width);
        let f = unsafe { &*self.f };
        let n = self.parts.len();
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let part = unsafe { (*self.parts[i].get()).take() }.expect("part claimed once");
            match panic::catch_unwind(AssertUnwindSafe(|| f(part))) {
                Ok(value) => unsafe { *self.results[i].get() = Some(value) },
                Err(payload) => {
                    let mut slot = self.panic.lock().expect("panic slot lock");
                    slot.get_or_insert(payload);
                }
            }
        }
    }

    /// Type-erased handle for the registry queue; ties the `execute` fn to
    /// this set's concrete type.
    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: self as *const Self as *const (),
            execute: execute_chunks::<P, T, F>,
        }
    }

    /// Drop one attachment; the last one out sets the latch.
    fn release(&self, count: usize) -> bool {
        if self.refs.fetch_sub(count, Ordering::AcqRel) == count {
            self.latch.set();
            true
        } else {
            false
        }
    }
}

unsafe fn execute_chunks<P, T, F>(data: *const ())
where
    P: ParallelIterator,
    T: Send,
    F: Fn(P) -> T + Sync,
{
    let set = unsafe { &*(data as *const ChunkSet<P, T, F>) };
    set.attach();
    set.release(1);
}

/// Split `p` into parts at the scheduler's granularity, run `f` over every
/// part across the current pool, and return the per-part results in order.
pub(crate) fn schedule<P, T>(p: P, f: &(impl Fn(P) -> T + Sync)) -> Vec<T>
where
    P: ParallelIterator,
    T: Send,
{
    let len = p.par_len();
    // `width` is the installed worker count — it is what nested calls
    // inside chunks must observe (`current_num_threads` contract) and what
    // sizes per-worker state, so it is NOT clamped by `len`; only the
    // participant count is.
    let width = pool::current_width().max(1);
    let participants = width.min(len.max(1));
    if participants <= 1 {
        return vec![f(p)];
    }
    let nparts = len.min(width * PARTS_PER_WORKER).max(1);
    let parts = split_into(p, len, nparts);

    let registry = pool::current_registry();
    // One attachment per participating worker beyond the initiator; extra
    // tickets beyond the part count would be claimed into an empty cursor.
    let tickets = (participants - 1).min(nparts).min(registry.num_threads());
    let set: ChunkSet<P, T, _> = ChunkSet {
        results: (0..parts.len()).map(|_| UnsafeCell::new(None)).collect(),
        parts: parts
            .into_iter()
            .map(|p| UnsafeCell::new(Some(p)))
            .collect(),
        cursor: AtomicUsize::new(0),
        refs: AtomicUsize::new(1 + tickets),
        latch: Latch::new(),
        panic: Mutex::new(None),
        width,
        f,
    };
    let job = set.as_job_ref();
    registry.inject(job, tickets);
    set.attach();
    // Tickets never popped can no longer be: the cursor is exhausted, so
    // remove them and account for them plus our own attachment.
    let purged = registry.purge(job.data);
    if !set.release(purged + 1) {
        wait_stealing(&registry, &set.latch);
    }
    if let Some(payload) = set.panic.lock().expect("panic slot lock").take() {
        panic::resume_unwind(payload);
    }
    set.results
        .into_iter()
        .map(|slot| slot.into_inner().expect("chunk completed"))
        .collect()
}

/// Block until `latch` is set, executing other queued jobs in the
/// meantime — this is what keeps a worker that initiated a nested job from
/// idling while its last chunks run elsewhere.
fn wait_stealing(registry: &Registry, latch: &Latch) {
    loop {
        if latch.probe() {
            return;
        }
        if let Some(job) = registry.try_pop() {
            unsafe { job.execute() };
            continue;
        }
        latch.wait_timeout(Duration::from_micros(200));
    }
}

/// Split `p` (of known `len`) into `nparts` near-equal contiguous parts.
fn split_into<P: ParallelIterator>(p: P, len: usize, nparts: usize) -> Vec<P> {
    let mut parts = Vec::with_capacity(nparts);
    let mut rest = p;
    let mut remaining = len;
    let mut slots = nparts;
    while slots > 1 {
        let take = remaining.div_ceil(slots);
        let (head, tail) = rest.split_at(take);
        parts.push(head);
        rest = tail;
        remaining -= take;
        slots -= 1;
    }
    parts.push(rest);
    parts
}

/// Run `work(0..k)` on pool workers while the initiating thread runs
/// `foreground`, returning `foreground`'s value once both are done. Worker
/// panics are re-raised here after `foreground` completes.
///
/// The initiator claims no work index while `foreground` runs — that is
/// the point: it stays free to pump a channel the workers feed (the
/// engine's streaming batch executor). Once `foreground` returns, it
/// claims every index no worker has started, so `work(i)` runs for every
/// `i` even when all workers are busy elsewhere. It must not itself be a
/// pool worker of `registry` while every other worker is blocked the same
/// way; the workspace only calls this from application threads.
pub(crate) fn run_with_foreground<R>(
    registry: &Arc<Registry>,
    k: usize,
    work: &(impl Fn(usize) + Sync),
    foreground: impl FnOnce() -> R,
) -> R {
    let k = k.max(1);
    let width = registry.num_threads();
    let indices: crate::iter::RangeParIter = (0..k).into_par_iter_range();
    let f = |part: crate::iter::RangeParIter| {
        for i in part.into_seq() {
            work(i);
        }
    };
    let set: ChunkSet<crate::iter::RangeParIter, (), _> = ChunkSet {
        results: (0..k).map(|_| UnsafeCell::new(None)).collect(),
        parts: split_into(indices, k, k)
            .into_iter()
            .map(|p| UnsafeCell::new(Some(p)))
            .collect(),
        cursor: AtomicUsize::new(0),
        refs: AtomicUsize::new(1 + k),
        latch: Latch::new(),
        panic: Mutex::new(None),
        width,
        f: &f,
    };
    let job = set.as_job_ref();
    registry.inject(job, k);
    // If `foreground` unwinds, the completion protocol must still run —
    // workers may hold references into this stack frame.
    let result = panic::catch_unwind(AssertUnwindSafe(foreground));
    // Run the indices no worker claimed yet — on this pool's registry, so
    // nested parallel calls inside `work` stay on the pool — before the
    // unpopped tickets are purged.
    {
        let _context = pool::ContextGuard::enter(Arc::clone(registry), width);
        set.attach();
    }
    let purged = registry.purge(job.data);
    if !set.release(purged + 1) {
        wait_stealing(registry, &set.latch);
    }
    if let Some(payload) = set.panic.lock().expect("panic slot lock").take() {
        panic::resume_unwind(payload);
    }
    match result {
        Ok(value) => value,
        Err(payload) => panic::resume_unwind(payload),
    }
}

// Small helper so `run_with_foreground` can build a range iterator without
// importing the public trait into this module's namespace.
trait IntoRange {
    fn into_par_iter_range(self) -> crate::iter::RangeParIter;
}

impl IntoRange for std::ops::Range<usize> {
    fn into_par_iter_range(self) -> crate::iter::RangeParIter {
        use crate::iter::IntoParallelIterator;
        self.into_par_iter()
    }
}
