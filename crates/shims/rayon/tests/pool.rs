//! Behavioral tests for the persistent worker pool: chunk claiming under
//! skewed costs, worker reuse across calls, install nesting, panic
//! propagation, and worker-index exposure.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;
use std::time::Duration;

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// With one deliberately expensive chunk, claiming must let the other
/// participants drain the cheap chunks instead of a static split handing
/// a fixed share to the stalled worker.
#[test]
fn stealing_balances_skewed_chunk_costs() {
    let pool = pool(3);
    let owners: Vec<(usize, ThreadId)> = pool.install(|| {
        (0..12)
            .into_par_iter()
            .map(|i| {
                let ms = if i == 0 { 60 } else { 2 };
                std::thread::sleep(Duration::from_millis(ms));
                (i, std::thread::current().id())
            })
            .collect()
    });
    assert_eq!(owners.len(), 12);
    let heavy_owner = owners[0].1;
    let heavy_owner_small_chunks = owners[1..]
        .iter()
        .filter(|(_, id)| *id == heavy_owner)
        .count();
    let distinct: HashSet<ThreadId> = owners.iter().map(|&(_, id)| id).collect();
    // More than one thread participated, and the thread stuck on the heavy
    // chunk did not also process the bulk of the cheap ones.
    assert!(distinct.len() >= 2, "only one thread ever claimed work");
    assert!(
        heavy_owner_small_chunks <= 6,
        "heavy-chunk owner also ran {heavy_owner_small_chunks}/11 cheap chunks — no stealing"
    );
}

/// Workers are persistent: repeated parallel calls reuse the same OS
/// threads instead of spawning fresh ones per call.
#[test]
fn workers_are_reused_across_calls() {
    let pool = pool(2);
    let caller = std::thread::current().id();
    let mut all_ids: Vec<HashSet<ThreadId>> = Vec::new();
    for _ in 0..5 {
        let ids: Vec<ThreadId> = pool.install(|| {
            (0..64)
                .into_par_iter()
                .map(|_| {
                    std::thread::sleep(Duration::from_micros(200));
                    std::thread::current().id()
                })
                .collect()
        });
        all_ids.push(ids.into_iter().filter(|&id| id != caller).collect());
    }
    let union: HashSet<ThreadId> = all_ids.iter().flatten().copied().collect();
    assert!(
        union.len() <= 2,
        "expected at most 2 persistent workers, saw {} distinct thread ids",
        union.len()
    );
}

/// `install` scopes the width, nested installs restore the outer width,
/// and — the part the old shim got wrong — closures running *on pool
/// workers* observe the installed width, not the machine default.
#[test]
fn install_nesting_restores_and_propagates_width() {
    let outer = pool(4);
    let inner = pool(2);
    let baseline = rayon::current_num_threads();
    outer.install(|| {
        assert_eq!(rayon::current_num_threads(), 4);
        inner.install(|| {
            assert_eq!(rayon::current_num_threads(), 2);
        });
        assert_eq!(rayon::current_num_threads(), 4, "inner install leaked");
        // Width seen from inside worker closures matches the install.
        let widths: Vec<usize> = (0..32)
            .into_par_iter()
            .map(|_| rayon::current_num_threads())
            .collect();
        assert!(
            widths.iter().all(|&w| w == 4),
            "worker closures saw widths {widths:?}, expected all 4"
        );
        // …including when the region is shorter than the pool: the job
        // width is the installed width, not min(len, width).
        let short: Vec<usize> = (0..2)
            .into_par_iter()
            .map(|_| rayon::current_num_threads())
            .collect();
        assert!(
            short.iter().all(|&w| w == 4),
            "short-region closures saw widths {short:?}, expected all 4"
        );
    });
    assert_eq!(rayon::current_num_threads(), baseline, "install leaked");
}

/// A panic in a worker closure propagates to the initiating caller, and
/// the pool stays usable afterwards.
#[test]
fn worker_panics_propagate_and_pool_survives() {
    let pool = pool(3);
    let attempted = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            (0..64).into_par_iter().for_each(|i| {
                attempted.fetch_add(1, Ordering::Relaxed);
                if i == 13 {
                    panic!("deliberate chunk panic");
                }
            });
        })
    }));
    assert!(result.is_err(), "panic did not propagate to the caller");
    // The pool is intact: a follow-up computation produces correct results.
    let sum: u64 = pool.install(|| {
        (0..1000u64)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&x| x)
            .sum()
    });
    assert_eq!(sum, 499_500);
}

/// `current_thread_index` identifies pool workers stably (the scratch key
/// used by the kernel drivers): indices stay within `0..n` and the caller
/// reports `None`.
#[test]
fn worker_indices_are_stable_and_bounded() {
    let pool = pool(3);
    assert_eq!(rayon::current_thread_index(), None);
    for _ in 0..3 {
        let indices: Vec<Option<usize>> = pool.install(|| {
            (0..48)
                .into_par_iter()
                .map(|_| {
                    std::thread::sleep(Duration::from_micros(100));
                    rayon::current_thread_index()
                })
                .collect()
        });
        for idx in indices {
            match idx {
                None => {} // initiating thread helping
                Some(i) => assert!(i < 3, "worker index {i} out of range"),
            }
        }
    }
}

/// The streaming-batch primitive: workers run while the foreground drains
/// a channel; every index is delivered exactly once and worker panics
/// reach the caller.
#[test]
fn with_workers_streams_and_propagates_panics() {
    let pool = pool(2);
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let senders: Vec<std::sync::Mutex<Option<std::sync::mpsc::Sender<usize>>>> = (0..4)
        .map(|_| std::sync::Mutex::new(Some(tx.clone())))
        .collect();
    drop(tx);
    let seen = pool.with_workers(
        4,
        |wid| {
            let tx = senders[wid]
                .lock()
                .unwrap()
                .take()
                .expect("index delivered once");
            tx.send(wid).unwrap();
        },
        || {
            let mut got: Vec<usize> = rx.iter().collect();
            got.sort_unstable();
            got
        },
    );
    assert_eq!(seen, vec![0, 1, 2, 3]);

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.with_workers(3, |wid| assert!(wid != 1, "deliberate worker panic"), || ())
    }));
    assert!(result.is_err(), "with_workers swallowed a worker panic");
}

/// Regression: a panicking work index must not starve a foreground that
/// blocks until every index has resolved its channel sender — the other
/// indices still run (and drop their senders) after the panic, the
/// channel closes, and the panic then reaches the caller.
#[test]
fn with_workers_panic_does_not_deadlock_channel_foreground() {
    let pool = pool(1); // one worker: indices run strictly after the panic
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let senders: Vec<std::sync::Mutex<Option<std::sync::mpsc::Sender<usize>>>> = (0..4)
        .map(|_| std::sync::Mutex::new(Some(tx.clone())))
        .collect();
    drop(tx);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.with_workers(
            4,
            |wid| {
                let tx = senders[wid].lock().unwrap().take().expect("taken once");
                if wid == 0 {
                    panic!("deliberate first-index panic");
                }
                tx.send(wid).unwrap();
            },
            // Blocks until all senders are gone — hangs forever if the
            // panic made the scheduler skip the remaining indices.
            || rx.iter().count(),
        )
    }));
    assert!(result.is_err(), "worker panic did not propagate");
}

/// Regression: `with_workers` runs `work(i)` for every index even when the
/// foreground returns before any worker is free. Both workers are held by
/// concurrent installs, so no ticket can be popped; the calling thread
/// must claim all indices itself instead of purging them unrun.
#[test]
fn with_workers_runs_every_index_when_workers_are_busy() {
    let pool = pool(2);
    // Held for writing until the end: every install part blocks on it.
    let gate = std::sync::RwLock::new(());
    let hold = gate.write().unwrap();
    // The two worker-run parts and this thread meet here once both
    // workers are held.
    let workers_held = std::sync::Barrier::new(3);
    let ran: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|s| {
        // Each install splits two parts: the installing thread blocks in
        // one, and one pool worker blocks in the other.
        for _ in 0..2 {
            s.spawn(|| {
                pool.install(|| {
                    (0..2).into_par_iter().for_each(|_| {
                        if rayon::current_thread_index().is_some() {
                            workers_held.wait();
                        }
                        drop(gate.read().unwrap());
                    })
                })
            });
        }
        workers_held.wait();
        pool.with_workers(
            ran.len(),
            |i| {
                ran[i].fetch_add(1, Ordering::SeqCst);
            },
            || (),
        );
        drop(hold);
    });
    let counts: Vec<usize> = ran.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    assert_eq!(counts, vec![1, 1, 1], "work(i) must run once for every i");
}
