//! The [`WorkerPool`] implementation: parked workers, a shared round queue,
//! and the completion barrier.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One unit of round work: a closure run exactly once, on whichever lane
/// (worker or caller) claims it first.
pub type Task<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Point-in-time counters describing a pool's lifetime so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads spawned at pool startup (`width - 1`). Constant for
    /// the pool's whole life — the zero-spawn guarantee is that this never
    /// grows, however many rounds run.
    pub workers: u64,
    /// Rounds fanned out over the workers (two or more tasks on a pool of
    /// width ≥ 2).
    pub rounds_dispatched: u64,
    /// Rounds executed entirely inline on the calling thread — single-task
    /// rounds (1-walker jobs, jobs wound down to their last live walker)
    /// and every round of a width-1 pool. These pay no synchronization at
    /// all.
    pub spawnless_rounds: u64,
    /// Times a parked worker woke up and found round work (at most
    /// `workers` per dispatched round; fewer when the caller drains the
    /// queue before a worker gets scheduled).
    pub worker_wakeups: u64,
}

/// The queue one round's tasks are claimed from, plus the barrier state.
struct RoundQueue {
    /// Bumped once per dispatched round; lets a worker count its wakeup
    /// once per round even when it claims several tasks.
    epoch: u64,
    /// This round's tasks; a claimed slot is `None`.
    tasks: Vec<Option<Task<'static>>>,
    /// Next unclaimed index.
    next: usize,
    /// Tasks not yet *finished* (claimed-but-running or unclaimed).
    pending: usize,
    /// Payload of the lowest-indexed panicking task of the round.
    panic: Option<(usize, Box<dyn Any + Send>)>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<RoundQueue>,
    /// Workers park here between rounds.
    work_ready: Condvar,
    /// The submitting caller parks here until `pending == 0`.
    round_done: Condvar,
    rounds_dispatched: AtomicU64,
    spawnless_rounds: AtomicU64,
    worker_wakeups: AtomicU64,
}

/// Ignore lock poisoning: the queue's invariants are maintained under the
/// lock only by panic-free bookkeeping (tasks themselves run *outside* the
/// lock, under `catch_unwind`), so a poisoned mutex still holds consistent
/// state. This matches the poison-robust locking style used across the
/// workspace.
fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of parked worker threads executing batches of
/// independent tasks with a **round barrier**: [`run_round`] /
/// [`round`](WorkerPool::round) return only after every task of the batch
/// has finished. See the [crate docs](crate) for the full model.
///
/// A pool of `width` executes up to `width` tasks concurrently: `width - 1`
/// parked workers plus the calling thread, which participates in its own
/// rounds instead of sleeping. Concurrent *dispatched* rounds from
/// different threads are serialized behind a gate — the shared task queue
/// only ever holds one round. Inline fast-path rounds (single task, or a
/// width-1 pool) run entirely on their caller and skip the gate, so they
/// may overlap a dispatched round in wall-clock time; since every task
/// only touches the data it is handed, this is invisible to results.
/// Tasks must not submit rounds to the pool they run on (a nested
/// dispatched round would deadlock behind its own caller); run nested work
/// on a separate (typically width-1) pool, as the experiment harness does
/// for pooled repetitions.
///
/// [`run_round`]: WorkerPool::run_round
pub struct WorkerPool {
    shared: Arc<Shared>,
    width: usize,
    workers: Vec<JoinHandle<()>>,
    /// Serializes whole dispatched rounds across concurrent callers.
    round_gate: Mutex<()>,
}

impl WorkerPool {
    /// Builds a pool of `width` lanes (clamped to at least 1), spawning
    /// `width - 1` worker threads **now** — the only spawns the pool ever
    /// performs. A width-1 pool spawns nothing and runs every round inline.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(RoundQueue {
                epoch: 0,
                tasks: Vec::new(),
                next: 0,
                pending: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            round_done: Condvar::new(),
            rounds_dispatched: AtomicU64::new(0),
            spawnless_rounds: AtomicU64::new(0),
            worker_wakeups: AtomicU64::new(0),
        });
        let workers = (1..width)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wnw-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            width,
            workers,
            round_gate: Mutex::new(()),
        }
    }

    /// A pool as wide as the available hardware parallelism.
    pub fn with_available_parallelism() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The pool's lane count (worker threads + the participating caller).
    pub fn width(&self) -> usize {
        self.width
    }

    /// A snapshot of the pool's counters (lock-free reads).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len() as u64,
            rounds_dispatched: self.shared.rounds_dispatched.load(Ordering::Relaxed),
            spawnless_rounds: self.shared.spawnless_rounds.load(Ordering::Relaxed),
            worker_wakeups: self.shared.worker_wakeups.load(Ordering::Relaxed),
        }
    }

    /// Runs one round: applies `f` to every item, one task per item, and
    /// returns only when all items are done (the round barrier). Lanes claim
    /// items one at a time from the shared queue, so a lane that finishes a
    /// cheap item takes the next one while a slow item is still running —
    /// no lane idles on a fixed chunk. Which lane processes which item is
    /// invisible to the result — `f` only ever touches the item it is
    /// handed.
    ///
    /// Single-item batches and width-1 pools run inline on the caller with
    /// no synchronization (the spawnless fast path). If `f` panics, the
    /// panic of the lowest-indexed item propagates to the caller: on the
    /// dispatched path after the barrier, every other item having run; on
    /// the inline path immediately, skipping later items.
    pub fn round<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        if items.is_empty() {
            return;
        }
        if self.width == 1 || items.len() == 1 {
            self.shared.spawnless_rounds.fetch_add(1, Ordering::Relaxed);
            for item in items {
                f(item);
            }
            return;
        }
        let f = &f;
        let tasks: Vec<Task<'_>> = items
            .iter_mut()
            .map(|item| Box::new(move || f(item)) as Task<'_>)
            .collect();
        self.dispatch(tasks);
    }

    /// Runs one round of heterogeneous tasks. Same barrier, fast path, and
    /// panic semantics as [`round`](Self::round), but each task is its own
    /// closure — used when the batch is not a uniform map over a slice.
    pub fn run_round<'env>(&self, tasks: Vec<Task<'env>>) {
        if tasks.is_empty() {
            return;
        }
        if self.width == 1 || tasks.len() == 1 {
            self.shared.spawnless_rounds.fetch_add(1, Ordering::Relaxed);
            for task in tasks {
                task();
            }
            return;
        }
        self.dispatch(tasks);
    }

    /// Fans `tasks` over the workers and the calling thread, blocking until
    /// every task has run (and resuming the lowest-indexed panic, if any).
    fn dispatch<'env>(&self, tasks: Vec<Task<'env>>) {
        debug_assert!(self.width > 1 && tasks.len() > 1);
        // One dispatched round at a time: the queue below is single-round
        // state, and the barrier must see only its own tasks.
        let _gate = lock(&self.round_gate);
        // SAFETY-critical invariant: the erased tasks must not outlive this
        // call. `dispatch` returns only after `pending == 0`, i.e. every
        // task has been executed and dropped — there is no early return
        // between enqueue and the barrier wait, and the waits themselves
        // cannot fail (lock poisoning is absorbed by `lock`/`wait`).
        let erased: Vec<Option<Task<'static>>> =
            tasks.into_iter().map(|t| Some(erase(t))).collect();
        let total = erased.len();
        {
            let mut queue = lock(&self.shared.queue);
            queue.epoch = queue.epoch.wrapping_add(1);
            queue.tasks = erased;
            queue.next = 0;
            queue.pending = total;
            queue.panic = None;
        }
        self.shared
            .rounds_dispatched
            .fetch_add(1, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        // The caller is a lane too: claim tasks until the queue is empty,
        // so a round never waits on a worker the OS has not scheduled yet.
        loop {
            let (index, task) = {
                let mut queue = lock(&self.shared.queue);
                if queue.next >= queue.tasks.len() {
                    break;
                }
                let index = queue.next;
                queue.next += 1;
                let task = queue.tasks[index].take().expect("unclaimed task present");
                (index, task)
            };
            run_task(&self.shared, index, task);
        }
        // The barrier: tasks the workers claimed may still be running.
        let panic = {
            let mut queue = lock(&self.shared.queue);
            while queue.pending > 0 {
                queue = wait(&self.shared.round_done, queue);
            }
            queue.tasks.clear();
            queue.panic.take()
        };
        drop(_gate);
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for WorkerPool {
    /// Parks no ghost threads: signals shutdown and joins every worker.
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Erases a round task's borrow lifetime so it can sit in the pool's
/// `'static` queue.
///
/// # Safety
///
/// Sound only because [`WorkerPool::dispatch`] does not return until every
/// enqueued task has been executed and dropped (the round barrier), so the
/// erased closure — and everything it borrows from the caller's stack — is
/// gone before the borrows it captures can expire. This is the same
/// contract scoped-thread APIs enforce with a join; the barrier is our
/// join. Panic payloads cannot smuggle borrows out: `panic_any` requires a
/// `'static` payload.
#[allow(unsafe_code)]
fn erase<'env>(task: Task<'env>) -> Task<'static> {
    // SAFETY: see the function docs — the barrier in `dispatch` outlives
    // every use of the erased closure. `Box<dyn FnOnce() + Send>` has the
    // same layout for any trait-object lifetime bound.
    unsafe { std::mem::transmute::<Task<'env>, Task<'static>>(task) }
}

/// Runs one claimed task outside the lock, then updates the barrier.
fn run_task(shared: &Shared, index: usize, task: Task<'static>) {
    let outcome = catch_unwind(AssertUnwindSafe(task));
    let mut queue = lock(&shared.queue);
    if let Err(payload) = outcome {
        let keep = match &queue.panic {
            None => true,
            Some((lowest, _)) => index < *lowest,
        };
        if keep {
            queue.panic = Some((index, payload));
        }
    }
    queue.pending -= 1;
    if queue.pending == 0 {
        shared.round_done.notify_all();
    }
}

/// A worker: park until a round arrives, claim tasks until the queue
/// drains, park again. Exits when the pool shuts down.
fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let (index, task) = {
            let mut queue = lock(&shared.queue);
            loop {
                if queue.next < queue.tasks.len() {
                    break;
                }
                if queue.shutdown {
                    return;
                }
                queue = wait(&shared.work_ready, queue);
            }
            if queue.epoch != seen_epoch {
                seen_epoch = queue.epoch;
                shared.worker_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            let index = queue.next;
            queue.next += 1;
            let task = queue.tasks[index].take().expect("unclaimed task present");
            (index, task)
        };
        run_task(shared, index, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn width_one_pool_runs_inline_and_spawns_nothing() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 5];
        pool.round(&mut items, |x| {
            assert_eq!(std::thread::current().id(), caller);
            *x += 1;
        });
        assert_eq!(items, vec![1; 5]);
        let stats = pool.stats();
        assert_eq!(stats.workers, 0);
        assert_eq!(stats.rounds_dispatched, 0);
        assert_eq!(stats.spawnless_rounds, 1);
        assert_eq!(stats.worker_wakeups, 0);
    }

    #[test]
    fn single_task_rounds_stay_on_the_caller_even_on_wide_pools() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let mut items = vec![0u64];
        pool.round(&mut items, |x| {
            assert_eq!(std::thread::current().id(), caller);
            *x = 7;
        });
        assert_eq!(items, vec![7]);
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.rounds_dispatched, 0);
        assert_eq!(stats.spawnless_rounds, 1);
        assert_eq!(stats.worker_wakeups, 0);
    }

    #[test]
    fn dispatched_round_runs_every_task_exactly_once_before_returning() {
        let pool = WorkerPool::new(4);
        let hits = AtomicUsize::new(0);
        let mut items: Vec<u64> = (0..64).collect();
        pool.round(&mut items, |x| {
            hits.fetch_add(1, Ordering::Relaxed);
            *x *= 2;
        });
        // The barrier: by the time `round` returns, all effects are visible.
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(items, (0..64).map(|x| x * 2).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!(stats.rounds_dispatched, 1);
        assert_eq!(stats.spawnless_rounds, 0);
        assert!(
            stats.worker_wakeups <= stats.workers,
            "at most one wakeup per worker per round: {stats:?}"
        );
    }

    #[test]
    fn many_rounds_reuse_the_same_workers() {
        let pool = WorkerPool::new(3);
        let before = pool.stats().workers;
        for round in 0..50 {
            let mut items = vec![round as u64; 6];
            pool.round(&mut items, |x| {
                *x += 1;
            });
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, before, "worker count never grows");
        assert_eq!(stats.rounds_dispatched, 50);
        assert!(stats.worker_wakeups <= 50 * stats.workers);
    }

    #[test]
    fn run_round_executes_heterogeneous_tasks() {
        let pool = WorkerPool::new(2);
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        pool.run_round(vec![
            Box::new(|| {
                a.store(1, Ordering::Relaxed);
            }),
            Box::new(|| {
                b.store(2, Ordering::Relaxed);
            }),
        ]);
        assert_eq!(a.load(Ordering::Relaxed), 1);
        assert_eq!(b.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats().rounds_dispatched, 1);
    }

    #[test]
    fn empty_rounds_are_free() {
        let pool = WorkerPool::new(4);
        pool.round(&mut Vec::<u8>::new(), |_| {});
        pool.run_round(Vec::new());
        assert_eq!(
            pool.stats(),
            PoolStats {
                workers: 3,
                ..PoolStats::default()
            }
        );
    }

    #[test]
    fn panicking_task_does_not_break_the_barrier() {
        let pool = WorkerPool::new(4);
        let survivors = AtomicUsize::new(0);
        let mut items: Vec<usize> = (0..8).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.round(&mut items, |i| {
                if *i == 3 {
                    panic!("task 3 exploded");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = outcome.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(message, "task 3 exploded");
        // Every other task still ran: the barrier completed the round.
        assert_eq!(survivors.load(Ordering::Relaxed), 7);
        // The pool is healthy afterwards.
        let mut again = vec![0u64; 4];
        pool.round(&mut again, |x| {
            *x = 9;
        });
        assert_eq!(again, vec![9; 4]);
    }

    #[test]
    fn a_panicking_item_skips_no_other_item() {
        // Each item is its own task, so item 0's panic cannot skip the
        // items a lane would otherwise have run after it.
        let pool = WorkerPool::new(2);
        let ran = [(); 4].map(|_| AtomicUsize::new(0));
        let mut items: Vec<usize> = (0..4).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.round(&mut items, |i| {
                if *i == 0 {
                    panic!("item 0 exploded");
                }
                ran[*i].fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = outcome.expect_err("item 0's panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("item 0 exploded")
        );
        let ran: Vec<usize> = ran.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        assert_eq!(ran, vec![0, 1, 1, 1], "items 1-3 each ran exactly once");
    }

    #[test]
    fn lowest_index_panic_wins() {
        let pool = WorkerPool::new(4);
        for _ in 0..8 {
            let mut items: Vec<usize> = (0..4).collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.round(&mut items, |i| {
                    if *i == 1 {
                        panic!("one");
                    }
                    if *i == 2 {
                        panic!("two");
                    }
                });
            }));
            let payload = outcome.expect_err("panic must propagate");
            let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "one", "deterministically the lowest task index");
        }
    }

    #[test]
    fn concurrent_callers_serialize_rounds() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let mut items = vec![1usize; 5];
                        pool.round(&mut items, |x| {
                            total.fetch_add(*x, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 3 * 20 * 5);
        assert_eq!(pool.stats().rounds_dispatched, 60);
    }

    #[test]
    fn borrowed_state_survives_the_round() {
        // The lifetime-erasure contract exercised directly: tasks borrow the
        // caller's stack, and the barrier returns them before `round` does.
        let pool = WorkerPool::new(3);
        let local = [1u64, 2, 3, 4, 5, 6];
        let sum = AtomicU64::new(0);
        let mut indices: Vec<usize> = (0..local.len()).collect();
        pool.round(&mut indices, |i| {
            sum.fetch_add(local[*i], Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn width_is_clamped_and_reported() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.width(), 1);
        assert_eq!(pool.stats().workers, 0);
        assert_eq!(WorkerPool::new(5).width(), 5);
        assert!(WorkerPool::with_available_parallelism().width() >= 1);
    }
}
