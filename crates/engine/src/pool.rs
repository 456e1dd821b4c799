//! Zero-dependency thread pool for the parallel print path.
//!
//! The paper's ASYNC optimization only *orders* actions by estimated cost;
//! every pass still executes on one thread. This pool parallelizes the three
//! stages that dominate the trace bench — per-column metadata scans, per-vis
//! scoring/processing, and per-action execution — without adding a
//! dependency (crossbeam was dropped in PR 1).
//!
//! Design (DESIGN.md §9):
//!
//! - one process-wide pool, lazily started, sized from
//!   [`std::thread::available_parallelism`];
//! - one mutex+condvar **injector** queue the workers pop FIFO — no pool
//!   task forks further work (metadata, score and process all fan out from
//!   callers or lane threads), so there is nothing for per-worker deques to
//!   hold;
//! - fork-join entry points ([`parallel_for`] / [`parallel_map`]) that keep
//!   borrowed data on the caller's stack: indices are claimed from a shared
//!   cursor, the caller itself drains the cursor (so every join completes
//!   even if no worker ever picks up its forks — nested fork-joins cannot
//!   deadlock), and forked tasks that start after the cursor is exhausted
//!   exit without touching the borrows. A waiting caller never executes
//!   unrelated pool tasks, so one join's latency can never be inflated by
//!   another caller's long or hung task;
//! - degree is a per-call argument (`par`), resolved by
//!   [`crate::LuxConfig::effective_threads`]; `par <= 1` executes inline on
//!   the caller with no pool interaction at all, guaranteeing the
//!   single-thread path is byte-identical to the old sequential code.
//!
//! Worker panics are caught per-task so a panicking task can never take a
//! worker down; fork-join re-raises the panic on the calling thread.
//!
//! Supervision (DESIGN.md §10): each worker thread runs its loop under a
//! supervisor that restarts it if a panic ever escapes the per-task guard
//! (counted as `lux.pool.respawns`), and a watchdog thread watches how long
//! every worker has been on its current task — a worker stuck past the
//! threshold (30s unless [`set_watchdog_ms`] lowers it) is flagged
//! (`lux.pool.hung_workers`) and a replacement worker is started on its
//! queue so queued work keeps flowing while the hung task is left to the
//! ASYNC collector's existing hard-cutoff/abandonment semantics.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::clock;
use crate::sync::lock_recover;
use crate::trace::{names, MetricsRegistry};

type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Index of the pool worker running on this thread, if any, for the
    /// `sched.worker` trace tags.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The pool worker index of the current thread (`None` off-pool). Parallel
/// spans tag themselves with this so the trace shows where work actually ran.
pub fn worker_index() -> Option<usize> {
    WORKER_INDEX.with(|c| c.get())
}

struct Shared {
    /// The one task queue: pushed by [`WorkPool::spawn`], popped FIFO.
    injector: Mutex<VecDeque<Task>>,
    /// Signalled whenever a task is pushed.
    available: Condvar,
    /// Pool epoch origin for the watchdog's coarse clocks.
    started: Instant,
    /// Per-worker-index: millis-since-start when the current task began
    /// (0 = idle). Written by workers, read by the watchdog.
    busy_since_ms: Vec<AtomicU64>,
    /// Per-worker-index: the `busy_since_ms` value already flagged as hung,
    /// so one stuck task is counted once.
    flagged_at_ms: Vec<AtomicU64>,
    /// Replacement workers started (by the watchdog); bounded so a storm of
    /// hung tasks can at most double the pool.
    replacements: AtomicUsize,
}

impl Shared {
    /// Coarse monotonic clock for the watchdog: non-zero millis since pool
    /// start (0 is reserved for "idle").
    fn epoch_ms(&self) -> u64 {
        (self.started.elapsed().as_millis() as u64).max(1)
    }
}

/// Elastic lane for detached tasks that may block or hang (streaming action
/// workers abandoned at the hard cutoff). These must never occupy the fixed
/// workers — on a small machine one hung action would starve every queued
/// task behind it — so the lane grows a thread whenever queued tasks
/// outnumber idle threads, reuses warm threads otherwise, and lets idle
/// threads expire.
#[derive(Default)]
struct Detached {
    inner: Mutex<DetachedInner>,
    available: Condvar,
}

impl Detached {
    /// Queue `task` and make sure a thread will take it. A thread woken by
    /// an earlier push still counts as idle until it re-takes the lock, so
    /// "no idle thread" is the wrong test: back-to-back pushes would queue
    /// the second task behind the first instead of starting it.
    fn spawn(self: &Arc<Self>, task: Task) {
        let mut inner = lock_recover(&self.inner);
        inner.queue.push_back(task);
        let starved = inner.queue.len() > inner.idle;
        drop(inner);
        self.available.notify_one();
        if starved {
            let lane = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name("lux-pool-detached".to_string())
                .spawn(move || detached_loop(lane))
                .is_ok();
            if !spawned {
                // Out of threads: run inline rather than strand the task.
                if let Some(t) = lock_recover(&self.inner).queue.pop_back() {
                    run_task(t);
                }
            }
        }
    }
}

#[derive(Default)]
struct DetachedInner {
    queue: VecDeque<Task>,
    idle: usize,
}

/// How long an idle detached-lane thread lingers before exiting.
const DETACHED_IDLE_TTL: Duration = Duration::from_secs(2);

fn detached_loop(lane: Arc<Detached>) {
    loop {
        let task = {
            let mut inner = lock_recover(&lane.inner);
            loop {
                if let Some(t) = inner.queue.pop_front() {
                    break Some(t);
                }
                inner.idle += 1;
                let (guard, timeout) = match lane.available.wait_timeout(inner, DETACHED_IDLE_TTL) {
                    Ok(r) => r,
                    Err(poisoned) => poisoned.into_inner(),
                };
                inner = guard;
                inner.idle -= 1;
                if let Some(t) = inner.queue.pop_front() {
                    break Some(t);
                }
                if timeout.timed_out() {
                    break None;
                }
            }
        };
        match task {
            Some(t) => run_task(t),
            None => return,
        }
    }
}

/// The pool. One global instance serves the whole process;
/// per-call parallelism is bounded by the `par` argument of the fork-join
/// entry points, not by reconfiguring the pool.
pub struct WorkPool {
    shared: Arc<Shared>,
    detached: Arc<Detached>,
    workers: usize,
}

impl WorkPool {
    fn start(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            started: clock::now(),
            busy_since_ms: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            flagged_at_ms: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            replacements: AtomicUsize::new(0),
        });
        for index in 0..workers {
            spawn_worker(Arc::clone(&shared), index);
        }
        {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lux-pool-watchdog".to_string())
                .spawn(move || watchdog_loop(shared))
                .ok();
        }
        WorkPool {
            shared,
            detached: Arc::default(),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submit a task for the fixed workers. Tasks on this path are expected
    /// to be compute-bound and finite — anything that may block indefinitely
    /// belongs on [`WorkPool::spawn_detached`].
    pub fn spawn(&self, task: Task) {
        lock_recover(&self.shared.injector).push_back(task);
        self.shared.available.notify_one();
    }

    /// Submit a detached task that may block for a long time (or hang and
    /// be abandoned at a hard cutoff). Runs on the elastic detached lane —
    /// a warm thread when one is idle, a fresh one otherwise — never on the
    /// fixed workers, so it cannot starve fork-join work.
    pub fn spawn_detached(&self, task: Task) {
        self.detached.spawn(task);
    }
}

fn run_task(task: Task) {
    // A panicking task must not unwind into the worker loop; fork-join
    // callers re-raise via their own flag, detached tasks are expected to
    // catch panics themselves (`isolate`) before they get here. The
    // failpoint sits inside the guard: a `panic` action exercises exactly
    // the task-panic path, a `return` action drops the task (fork-join
    // recovers through the caller-drained cursor, streaming through the
    // hard cutoff).
    let _ = catch_unwind(AssertUnwindSafe(move || {
        if crate::failpoint::hit(crate::failpoint::names::POOL_TASK_RUN).is_some() {
            return;
        }
        task()
    }));
}

/// Start a (or another) worker on `index` under a supervisor: if a panic
/// ever escapes the per-task guard — a failpoint in the loop itself, or a
/// bug in queue handling — the loop is restarted on the same thread and the
/// respawn is counted, instead of the pool silently losing a worker.
fn spawn_worker(shared: Arc<Shared>, index: usize) {
    std::thread::Builder::new()
        .name(format!("lux-pool-{index}"))
        .spawn(move || loop {
            let shared = Arc::clone(&shared);
            if catch_unwind(AssertUnwindSafe(|| worker_loop(shared, index))).is_ok() {
                return; // normal exit (the loop runs for the process lifetime)
            }
            MetricsRegistry::global().incr(names::POOL_RESPAWNS);
        })
        .ok();
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER_INDEX.with(|c| c.set(Some(index)));
    loop {
        // Outside the task guard on purpose: a `panic` action here escapes
        // the loop and exercises the supervisor respawn path.
        let _ = crate::failpoint::hit(crate::failpoint::names::POOL_WORKER_LOOP);
        let mut queue = lock_recover(&shared.injector);
        let Some(task) = queue.pop_front() else {
            // Timed, so an idle worker still passes the failpoint above.
            let _ = shared
                .available
                .wait_timeout(queue, Duration::from_millis(50));
            continue;
        };
        drop(queue);
        shared.busy_since_ms[index].store(shared.epoch_ms(), Ordering::Relaxed);
        run_task(task);
        shared.busy_since_ms[index].store(0, Ordering::Relaxed);
    }
}

/// Hung-task threshold in milliseconds, adjustable at runtime (tests).
static WATCHDOG_MS: AtomicU64 = AtomicU64::new(30_000);

/// Adjust the watchdog's hung-task threshold.
pub fn set_watchdog_ms(ms: u64) {
    WATCHDOG_MS.store(ms.max(1), Ordering::Relaxed);
}

fn watchdog_loop(shared: Arc<Shared>) {
    let workers = shared.busy_since_ms.len();
    loop {
        let threshold = WATCHDOG_MS.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(
            threshold.div_ceil(4).clamp(10, 1_000),
        ));
        let now = shared.epoch_ms();
        for i in 0..workers {
            let since = shared.busy_since_ms[i].load(Ordering::Relaxed);
            if since == 0 || now.saturating_sub(since) < threshold {
                continue;
            }
            // Flag each stuck task occupancy once (the swap only differs
            // when a *new* task got stuck since the last flag).
            if shared.flagged_at_ms[i].swap(since, Ordering::Relaxed) == since {
                continue;
            }
            MetricsRegistry::global().incr(names::POOL_HUNG_WORKERS);
            // Keep queued work flowing: start a replacement worker on the
            // same queue, bounded so hung storms can at most double the
            // pool. The hung task itself is abandoned to the streaming
            // path's hard cutoff.
            let seat = shared.replacements.fetch_add(1, Ordering::Relaxed);
            if seat < workers {
                MetricsRegistry::global().incr(names::POOL_RESPAWNS);
                spawn_worker(Arc::clone(&shared), i);
            } else {
                shared.replacements.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide pool, started on first use and sized from
/// [`std::thread::available_parallelism`] (raised to `LUX_THREADS`, at most
/// 64, when that asks for more, so an explicit thread count exercises real
/// cross-thread interleavings even on small machines).
pub fn global() -> &'static WorkPool {
    static POOL: OnceLock<WorkPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let asked = crate::knobs::knobs().threads.unwrap_or(0);
        WorkPool::start(cores.max(asked.min(64)))
    })
}

/// Shared state for one fork-join call: the index cursor plus an
/// item-counted completion latch. Held behind an `Arc` so a forked task
/// that starts *after* the join completed (e.g. it sat queued behind other
/// work) still has somewhere safe to look before exiting.
struct JoinState {
    cursor: AtomicUsize,
    /// Count of *completed* indices; the join is done at `finished == n`.
    finished: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// `*const dyn Fn` with the borrow lifetime erased and made sendable so
/// forked tasks can carry the body pointer. Dereferenced only after
/// claiming an index (see SAFETY in `parallel_for`).
struct BodyPtr(*const (dyn Fn(usize) + Sync + 'static));
unsafe impl Send for BodyPtr {}

impl BodyPtr {
    /// # Safety
    /// The pointee must still be live (see the claim argument at the call
    /// site in `parallel_for`).
    unsafe fn get(&self) -> &(dyn Fn(usize) + Sync) {
        &*self.0
    }
}

/// Run `body(i)` for every `i in 0..n` using up to `par` concurrent
/// executors (the caller counts as one). Completes only after every index
/// ran. `par <= 1` executes inline with zero pool interaction.
///
/// Indices are claimed from a shared cursor, so the assignment of index to
/// thread is dynamic — callers needing deterministic output must write
/// results into per-index slots (see [`parallel_map`]). The caller drains
/// the cursor itself, so the join completes even when every pool worker is
/// busy elsewhere; forked tasks only accelerate it, and a waiting caller
/// never executes unrelated pool work.
pub fn parallel_for(par: usize, n: usize, body: &(dyn Fn(usize) + Sync)) {
    let par = par.min(n);
    if par <= 1 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    let pool = global();
    let forked = (par - 1).min(pool.workers());
    if forked == 0 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    let state = Arc::new(JoinState {
        cursor: AtomicUsize::new(0),
        finished: Mutex::new(0),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    for _ in 0..forked {
        let state = Arc::clone(&state);
        // Lifetime erasure only — the pointer value is unchanged.
        let body_ptr = BodyPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(body as *const _)
        });
        // Forked tasks own only the Arc'd state and a raw body pointer, so
        // they are 'static; one that runs after the join returned claims no
        // index (the cursor is exhausted) and exits without dereferencing.
        pool.spawn(Box::new(move || loop {
            let i = state.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: claiming `i < n` means index `i` is not yet finished,
            // so `finished < n` and `parallel_for` — which returns only at
            // `finished == n` — is still blocked: the pointee is live. The
            // panic guard counts the index even when `body` unwinds.
            let body = unsafe { body_ptr.get() };
            let r = catch_unwind(AssertUnwindSafe(|| body(i)));
            if r.is_err() {
                state.panicked.store(true, Ordering::Relaxed);
            }
            let mut finished = lock_recover(&state.finished);
            *finished += 1;
            if *finished == n {
                state.done.notify_all();
            }
        }));
    }
    // The caller is one of the executors: it claims indices until the
    // cursor is exhausted, which guarantees the join completes even if no
    // worker ever picks up a fork.
    let mut caller_panic: Option<Box<dyn std::any::Any + Send>> = None;
    loop {
        let i = state.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| body(i))) {
            Ok(()) => {}
            Err(payload) => {
                state.panicked.store(true, Ordering::Relaxed);
                if caller_panic.is_none() {
                    caller_panic = Some(payload);
                }
            }
        }
        let mut finished = lock_recover(&state.finished);
        *finished += 1;
        if *finished == n {
            state.done.notify_all();
        }
    }
    // Wait for indices claimed by forked workers. Timed wait so a missed
    // notification can only cost milliseconds, never a hang.
    let mut finished = lock_recover(&state.finished);
    while *finished < n {
        finished = match state.done.wait_timeout(finished, Duration::from_millis(50)) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
    drop(finished);
    if let Some(payload) = caller_panic {
        std::panic::resume_unwind(payload);
    }
    if state.panicked.load(Ordering::Relaxed) {
        panic!("parallel_for: forked task panicked");
    }
}

/// Map `items` through `f` with up to `par` concurrent executors, preserving
/// input order in the output regardless of which thread ran which item.
/// `f` receives `(index, item)`. `par <= 1` is a plain sequential map.
pub fn parallel_map<T, R, F>(par: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if par.min(n) <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    parallel_for(par, n, &|i| {
        let item = lock_recover(&inputs[i]).take();
        if let Some(item) = item {
            let out = f(i, item);
            *lock_recover(&outputs[i]) = Some(out);
        }
    });
    outputs
        .into_iter()
        .map(|slot| {
            lock_recover(&slot)
                .take()
                .expect("parallel_map: slot not filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(4, 100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_for_inline_when_par_is_one() {
        // Must not touch the pool at all: order is strictly sequential.
        let order = Mutex::new(Vec::new());
        parallel_for(1, 10, &|i| order.lock().expect("order lock").push(i));
        assert_eq!(
            *order.lock().expect("order lock"),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..200).collect();
        let out = parallel_map(8, items, |i, x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_matches_sequential() {
        let seq = parallel_map(1, (0..64).collect(), |_, x: usize| x * x);
        let par = parallel_map(8, (0..64).collect(), |_, x: usize| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn nested_fork_join_completes() {
        let total = AtomicUsize::new(0);
        parallel_for(4, 8, &|_| {
            parallel_for(4, 8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panicking_body_propagates_and_pool_survives() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(4, 16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // Pool still works afterwards.
        let n = AtomicUsize::new(0);
        parallel_for(4, 32, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn spawn_runs_detached_tasks() {
        let state = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..16 {
            let state = Arc::clone(&state);
            global().spawn(Box::new(move || {
                *state.0.lock().expect("counter lock") += 1;
                state.1.notify_all();
            }));
        }
        let (lock, cv) = &*state;
        let mut guard = lock.lock().expect("counter lock");
        let deadline = clock::now() + Duration::from_secs(5);
        while *guard < 16 {
            let left = deadline.saturating_duration_since(clock::now());
            assert!(!left.is_zero(), "detached tasks did not finish: {}", *guard);
            let (g, _) = cv.wait_timeout(guard, left).expect("counter lock");
            guard = g;
        }
    }

    /// `run_pass` dispatches ASYNC actions back to back. On a lane with one
    /// warm idle thread, A (which waits for B to start) and B pushed in a
    /// row must both start: queued behind A, B never would.
    #[test]
    fn detached_lane_starts_back_to_back_tasks() {
        let lane = Arc::new(Detached::default());
        let (warm_tx, warm_rx) = std::sync::mpsc::channel();
        lane.spawn(Box::new(move || warm_tx.send(()).expect("warm-up report")));
        warm_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("warm-up task ran");
        let deadline = clock::now() + Duration::from_secs(5);
        while lock_recover(&lane.inner).idle != 1 {
            assert!(clock::now() < deadline, "warm thread never went idle");
            std::thread::yield_now();
        }
        let b_started = Arc::new((Mutex::new(false), Condvar::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        let (a_started, a_tx) = (Arc::clone(&b_started), tx.clone());
        lane.spawn(Box::new(move || {
            let (lock, cv) = &*a_started;
            let guard = lock.lock().expect("b_started lock");
            let (guard, _) = cv
                .wait_timeout_while(guard, Duration::from_secs(2), |started| !*started)
                .expect("b_started lock");
            a_tx.send(("A", *guard)).expect("A report");
        }));
        lane.spawn(Box::new(move || {
            *b_started.0.lock().expect("b_started lock") = true;
            b_started.1.notify_all();
            tx.send(("B", true)).expect("B report");
        }));
        let mut reports: Vec<_> = (0..2)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("task report")
            })
            .collect();
        reports.sort();
        assert_eq!(reports, [("A", true), ("B", true)], "B queued behind A");
    }

    #[test]
    fn worker_index_visible_inside_tasks() {
        let seen = Mutex::new(false);
        parallel_for(4, 64, &|_| {
            if worker_index().is_some() {
                *seen.lock().expect("seen lock") = true;
            }
            // Busy-wait a touch so forks actually land on workers.
            std::hint::spin_loop();
        });
        // The caller thread has no index; at 64 indices and par=4 at least
        // one fork should have executed on a pool worker. This is
        // best-effort (a loaded machine could run everything on the
        // caller), so only assert the accessor does not panic.
        let _ = *seen.lock().expect("seen lock");
    }
}
