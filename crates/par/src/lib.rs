//! Dependency-free data parallelism on scoped OS threads.
//!
//! This crate is the workspace's stand-in for `rayon` (the build runs without
//! network access, so crates.io dependencies are unavailable): a scoped
//! work-stealing pool ([`scope`]) whose [`Scheduler::map`] returns results
//! **in input order**, so callers that were deterministic serially stay
//! deterministic in parallel. Idle workers steal queued jobs, which keeps
//! cores busy even when per-item cost is highly skewed — exactly the shape of
//! the placement × synthesis sweep, where one placement can synthesize orders
//! of magnitude more programs than another. [`nested_for_each`] adds
//! parallelism *inside* a job by recruiting the same pool's idle workers.
//!
//! # Example
//!
//! ```
//! let squares = p2_par::scope(0, |s| s.map([1usize, 2, 3, 4], |_, x| x * x));
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of worker threads a thread count of `0` resolves to: the machine's
/// available parallelism, or 1 when it cannot be queried.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Work-stealing scheduler
// ---------------------------------------------------------------------------

std::thread_local! {
    /// The scheduler whose worker loop is running on this thread, if any,
    /// lifetime-erased to a thin pointer. Set for exactly the duration of
    /// [`SchedulerState::worker`], which is strictly inside the scope that
    /// owns the state, so the pointer never dangles while non-null.
    static CURRENT_POOL: std::cell::Cell<*const ()> = const { std::cell::Cell::new(std::ptr::null()) };
}

/// Clears the thread-local pool registration on drop, so a worker that dies
/// of a job panic does not leave a dangling registration behind.
struct PoolRegistration;

impl PoolRegistration {
    fn new(state: *const ()) -> Self {
        CURRENT_POOL.with(|c| c.set(state));
        PoolRegistration
    }
}

impl Drop for PoolRegistration {
    fn drop(&mut self) {
        CURRENT_POOL.with(|c| c.set(std::ptr::null()));
    }
}

/// Whether the current thread is a worker of an active [`scope`] pool.
///
/// When this returns `true`, [`nested_for_each`] will recruit the pool's idle
/// workers; otherwise it runs its items serially on the calling thread.
pub fn on_pool_worker() -> bool {
    CURRENT_POOL.with(|c| !c.get().is_null())
}

/// Shared control block for one [`nested_for_each`] region: an atomic cursor
/// over the item range, a finished counter the caller waits on, and the
/// lifetime-erased task.
///
/// # Safety of the erased task reference
///
/// `task` is transmuted to `'static` but really borrows the caller's stack.
/// The caller does not return until `finished == n`, and `finished` only
/// counts items whose `task(i)` call has completed, so any thread that
/// successfully claims an index `i < n` runs the task while the caller's
/// frame is provably alive. Threads that claim `i >= n` never touch `task` —
/// they drop their `Arc<NestedBag>` (plain counters, safe to drop late) and
/// exit.
struct NestedBag {
    cursor: AtomicUsize,
    n: usize,
    finished: Mutex<usize>,
    done: std::sync::Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    task: &'static (dyn Fn(usize) + Sync),
}

impl NestedBag {
    /// Claims and runs items until the bag is empty, then returns. Never
    /// blocks — helpers that find the bag already drained exit immediately,
    /// which is what makes recruiting extra helpers always safe.
    fn run_items(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                (self.task)(i);
            }));
            if let Err(payload) = outcome {
                let mut slot = self.panic.lock().expect("nested panic slot poisoned");
                slot.get_or_insert(payload);
            }
            let mut finished = self.finished.lock().expect("nested bag poisoned");
            *finished += 1;
            if *finished == self.n {
                self.done.notify_all();
            }
        }
    }
}

/// Runs `task(0..n)` with the items distributed over the current pool's
/// workers, blocking until all `n` calls have completed.
///
/// On a pool worker thread (see [`on_pool_worker`]) this recruits up to
/// `threads - 1` idle workers as helpers: each helper claims items from a
/// shared atomic cursor until the bag is empty and then *exits* rather than
/// blocking, so — unlike a nested join — recruitment can never deadlock the
/// pool, and a pool whose workers are all busy simply leaves the caller to
/// drain the bag itself. Off-pool (or with `n <= 1`) the items run serially
/// on the calling thread.
///
/// Item execution order is unspecified; callers needing determinism should
/// write results into per-index slots and combine them in index order after
/// this returns. If any `task(i)` panics, the first panic is resumed on the
/// calling thread after all claimed items finish.
pub fn nested_for_each(n: usize, task: &(dyn Fn(usize) + Sync)) {
    let pool = CURRENT_POOL.with(|c| c.get());
    if n == 0 {
        return;
    }
    if pool.is_null() || n == 1 {
        for i in 0..n {
            task(i);
        }
        return;
    }
    // Safety: non-null only while the owning scope (and thus the state) is
    // alive, and this worker thread's lifetime is contained in that scope.
    let state: &SchedulerState<'static> = unsafe { &*(pool as *const SchedulerState<'static>) };
    let helpers = (state.threads - 1).min(n - 1);
    if helpers == 0 {
        for i in 0..n {
            task(i);
        }
        return;
    }
    // Safety: see `NestedBag` — the caller outlives every dereference.
    let task: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
    let bag = Arc::new(NestedBag {
        cursor: AtomicUsize::new(0),
        n,
        finished: Mutex::new(0),
        done: std::sync::Condvar::new(),
        panic: Mutex::new(None),
        task,
    });
    for _ in 0..helpers {
        let bag = Arc::clone(&bag);
        // A fully `'static` job (the bag is Arc-owned), so it outlives any
        // `'env` and can sit in a deque past this call without dangling.
        let job: Job<'static> = Box::new(move || bag.run_items());
        state.push_job(job);
    }
    // The caller drains the bag too; once it runs dry, every remaining
    // unfinished item is actively executing on another worker, so the wait
    // below is on running code, not queued code — progress is guaranteed.
    bag.run_items();
    let mut finished = bag.finished.lock().expect("nested bag poisoned");
    while *finished < n {
        finished = bag.done.wait(finished).expect("nested bag poisoned");
    }
    drop(finished);
    let payload = bag.panic.lock().expect("nested panic slot poisoned").take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Runs `f` as a job on a fresh `threads`-worker pool and returns its result.
///
/// This is the entry point for *intra*-task parallelism when the caller is
/// not already on a pool: `f` executes on a worker thread, so
/// [`nested_for_each`] calls inside it can recruit the remaining
/// `threads - 1` workers. `threads` follows the usual convention (`0` = all
/// cores); `<= 1` just calls `f` inline.
pub fn with_pool<T, F>(threads: usize, f: F) -> T
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    if threads <= 1 {
        return f();
    }
    scope(threads, |sched| sched.spawn(f).join())
}

/// Options for [`scope_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerOptions {
    /// Worker-thread count. `0` resolves to [`default_threads()`].
    pub threads: usize,
    /// Seed for the deque-assignment permutation. `0` assigns jobs to worker
    /// deques round-robin in spawn order; any other value scatters them
    /// pseudo-randomly (SplitMix64 of `seed ^ spawn_index`). Results of
    /// deterministic jobs are identical for every seed — the knob exists so
    /// tests can exercise arbitrary steal schedules.
    pub seed: u64,
}

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Per-worker FIFO deques plus the shutdown flag, all behind one mutex. Jobs
/// here are coarse (a whole placement evaluation), so a single global lock is
/// cheaper than per-deque locks and makes the scheduling invariants below easy
/// to state exactly.
struct Queues<'env> {
    deques: Vec<std::collections::VecDeque<Job<'env>>>,
    shutdown: bool,
}

struct SchedulerState<'env> {
    queues: Mutex<Queues<'env>>,
    work: std::sync::Condvar,
    threads: usize,
    seed: u64,
    spawned: AtomicUsize,
    steals: AtomicUsize,
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

impl<'env> SchedulerState<'env> {
    fn new(threads: usize, seed: u64) -> Self {
        SchedulerState {
            queues: Mutex::new(Queues {
                deques: (0..threads)
                    .map(|_| std::collections::VecDeque::new())
                    .collect(),
                shutdown: false,
            }),
            work: std::sync::Condvar::new(),
            threads,
            seed,
            spawned: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
        }
    }

    /// Takes the next job for worker `id`: front of its own deque first, then
    /// — only when its own deque is empty — the front of another worker's.
    ///
    /// Both ends are FIFO on purpose. Jobs land in each deque in ascending
    /// global spawn order, so the pool runs the oldest queued jobs first:
    /// work finishes roughly in the order the scope body joins it (a sweep
    /// joins its placements in production order). Jobs never block on other
    /// queued jobs (see [`Scheduler`]), so any deque assignment is
    /// deadlock-free, which is what makes [`SchedulerOptions::seed`] safe to
    /// randomize.
    fn take(&self, queues: &mut Queues<'env>, id: usize) -> Option<Job<'env>> {
        if let Some(job) = queues.deques[id].pop_front() {
            return Some(job);
        }
        for offset in 1..self.threads {
            let victim = (id + offset) % self.threads;
            if let Some(job) = queues.deques[victim].pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Queues `job` on the deque picked from the next spawn index and wakes a
    /// worker. Shared by [`Scheduler::spawn`] and [`nested_for_each`]'s
    /// helper recruitment.
    fn push_job(&self, job: Job<'env>) {
        let index = self.spawned.fetch_add(1, Ordering::Relaxed);
        let target = self.pick_deque(index);
        {
            let mut queues = self.queues.lock().expect("scheduler queues poisoned");
            queues.deques[target].push_back(job);
        }
        self.work.notify_one();
    }

    fn pick_deque(&self, index: usize) -> usize {
        if self.seed == 0 {
            return index % self.threads;
        }
        // SplitMix64 of seed ^ index: a deterministic pseudo-random
        // assignment, still ascending-in-spawn-order within each deque.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % self.threads as u64) as usize
    }

    fn worker(&self, id: usize) {
        // Register this thread so jobs can recruit the pool via
        // `nested_for_each`; the guard clears the slot even on panic.
        let _registration = PoolRegistration::new(self as *const SchedulerState<'env> as *const ());
        let mut queues = self.queues.lock().expect("scheduler queues poisoned");
        loop {
            if let Some(job) = self.take(&mut queues, id) {
                drop(queues);
                let running = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                self.peak_in_flight.fetch_max(running, Ordering::Relaxed);
                job();
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
                queues = self.queues.lock().expect("scheduler queues poisoned");
                continue;
            }
            // Drain-before-exit: shutdown is only honoured once every deque is
            // empty, so jobs queued before the scope body returned (or
            // panicked) still run and release anyone joined on them.
            if queues.shutdown {
                return;
            }
            queues = self.work.wait(queues).expect("scheduler queues poisoned");
        }
    }
}

/// Flips the shutdown flag (and wakes every worker) when dropped, so workers
/// exit even when the scope body panics.
struct ShutdownGuard<'a, 'env>(&'a SchedulerState<'env>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        self.0
            .queues
            .lock()
            .expect("scheduler queues poisoned")
            .shutdown = true;
        self.0.work.notify_all();
    }
}

struct JobSlot<R> {
    result: Mutex<Option<std::thread::Result<R>>>,
    done: std::sync::Condvar,
}

/// A handle to a job spawned on a [`Scheduler`], redeemable exactly once for
/// the job's result via [`JobHandle::join`].
pub struct JobHandle<R> {
    slot: Arc<JobSlot<R>>,
}

impl<R> JobHandle<R> {
    /// Blocks until the job completes and returns its result.
    ///
    /// If the job panicked, the panic is resumed on the joining thread, so a
    /// failure inside the pool surfaces exactly like a failure inline.
    pub fn join(self) -> R {
        let mut slot = self.slot.result.lock().expect("job slot poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                match outcome {
                    Ok(value) => return value,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            slot = self.slot.done.wait(slot).expect("job slot poisoned");
        }
    }
}

/// A scoped work-stealing thread pool: jobs may borrow from the environment
/// (`'env`) of the [`scope`] call that created the pool.
///
/// Workers keep per-worker FIFO deques and steal from each other's fronts
/// when idle, so a batch of jobs with wildly skewed costs (one placement can
/// synthesize orders of magnitude more programs than another) keeps every
/// core busy without any static partitioning. Jobs must not [`join`] other
/// jobs from *inside* a job body — a worker blocked in a nested join would
/// shrink the pool; join from the scope body instead. For parallelism *inside*
/// a job, use [`nested_for_each`], whose helpers never block and therefore
/// cannot deadlock the pool.
///
/// [`join`]: JobHandle::join
pub struct Scheduler<'scope, 'env> {
    state: &'scope SchedulerState<'env>,
}

impl<'scope, 'env> Scheduler<'scope, 'env> {
    /// Spawns `f` onto the pool and returns a handle to its result.
    ///
    /// The target deque is chosen from the spawn index (round-robin, or
    /// seed-scattered — see [`SchedulerOptions::seed`]); each deque therefore
    /// holds jobs in ascending spawn order, and the oldest job runs first.
    pub fn spawn<R, F>(&self, f: F) -> JobHandle<R>
    where
        R: Send + 'env,
        F: FnOnce() -> R + Send + 'env,
    {
        let slot = Arc::new(JobSlot {
            result: Mutex::new(None),
            done: std::sync::Condvar::new(),
        });
        let publish = Arc::clone(&slot);
        let job: Job<'env> = Box::new(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            *publish.result.lock().expect("job slot poisoned") = Some(outcome);
            publish.done.notify_all();
        });
        self.state.push_job(job);
        JobHandle { slot }
    }

    /// Spawns one job per item and joins them in order: a work-stolen map
    /// over owned items whose results come back in input order. `f`
    /// receives each item's index alongside the item.
    pub fn map<T, R, F>(&self, items: impl IntoIterator<Item = T>, f: F) -> Vec<R>
    where
        T: Send + 'env,
        R: Send + 'env,
        F: Fn(usize, T) -> R + Send + Sync + 'env,
    {
        let f = Arc::new(f);
        let handles: Vec<JobHandle<R>> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                let f = Arc::clone(&f);
                self.spawn(move || f(index, item))
            })
            .collect();
        handles.into_iter().map(JobHandle::join).collect()
    }

    /// The pool's worker-thread count (after resolving `threads == 0`).
    pub fn threads(&self) -> usize {
        self.state.threads
    }

    /// Number of jobs executed by a worker other than the one they were
    /// queued on, so far.
    pub fn steals(&self) -> usize {
        self.state.steals.load(Ordering::Relaxed)
    }

    /// Highest number of jobs observed executing simultaneously, so far.
    /// Never exceeds [`Scheduler::threads`] — the oversubscription guard.
    pub fn peak_in_flight(&self) -> usize {
        self.state.peak_in_flight.load(Ordering::Relaxed)
    }
}

/// Runs `f` with a work-stealing pool of `threads` workers (`0` resolves to
/// [`default_threads()`]); equivalent to [`scope_with`] with a round-robin
/// deque assignment. The pool is torn down — after draining every queued job —
/// when `f` returns, and `f`'s value is returned.
pub fn scope<'env, T>(threads: usize, f: impl FnOnce(&Scheduler<'_, 'env>) -> T) -> T {
    scope_with(SchedulerOptions { threads, seed: 0 }, f)
}

/// Runs `f` with a work-stealing pool configured by `options`.
///
/// The calling thread never executes jobs itself, so the worker budget is
/// exactly `options.threads`: submitting N nested batches to one scope cannot
/// oversubscribe the machine the way N independent pools would.
pub fn scope_with<'env, T>(
    options: SchedulerOptions,
    f: impl FnOnce(&Scheduler<'_, 'env>) -> T,
) -> T {
    let threads = if options.threads == 0 {
        default_threads()
    } else {
        options.threads
    };
    // Declared before `thread::scope` so workers may borrow it: locals inside
    // the scope closure are dropped before the scope joins its threads.
    let state: SchedulerState<'env> = SchedulerState::new(threads, options.seed);
    std::thread::scope(|ts| {
        let workers: Vec<_> = (0..threads)
            .map(|id| {
                let state = &state;
                ts.spawn(move || state.worker(id))
            })
            .collect();
        let value = {
            let _shutdown = ShutdownGuard(&state);
            f(&Scheduler { state: &state })
        };
        // Join the workers instead of leaving it to the scope, which only
        // waits for their closures to return: glibc's malloc frees a
        // thread's arena for reuse only once the thread has exited, so pools
        // spawned one after another would otherwise keep creating arenas,
        // and resident memory would grow with the number of pools.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        value
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_spawn_join_returns_results() {
        for threads in [1usize, 2, 4] {
            let values: Vec<u64> = scope(threads, |sched| {
                let handles: Vec<JobHandle<u64>> =
                    (0..37u64).map(|i| sched.spawn(move || i * i)).collect();
                handles.into_iter().map(JobHandle::join).collect()
            });
            assert_eq!(values, (0..37u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scheduler_jobs_can_borrow_the_environment() {
        let input: Vec<u64> = (0..64).collect();
        let total = AtomicUsize::new(0);
        scope(4, |sched| {
            let handles: Vec<JobHandle<()>> = input
                .iter()
                .map(|&x| {
                    let total = &total;
                    sched.spawn(move || {
                        total.fetch_add(x as usize, Ordering::Relaxed);
                    })
                })
                .collect();
            handles.into_iter().for_each(JobHandle::join);
        });
        assert_eq!(total.into_inner(), (0..64).sum::<u64>() as usize);
    }

    #[test]
    fn scheduler_map_preserves_order_for_any_seed() {
        let expected: Vec<u64> = (0..100u64).map(|x| x.wrapping_mul(7)).collect();
        for seed in [0u64, 1, 0xdead_beef] {
            for threads in [1usize, 3, 8] {
                let out = scope_with(SchedulerOptions { threads, seed }, |sched| {
                    sched.map(0..100u64, |i, x| {
                        assert_eq!(i as u64, x);
                        x.wrapping_mul(7)
                    })
                });
                assert_eq!(out, expected);
            }
        }
    }

    #[test]
    fn scheduler_propagates_job_panics_on_join() {
        let outcome = std::panic::catch_unwind(|| {
            scope(2, |sched| {
                let ok = sched.spawn(|| 1u32);
                let bad = sched.spawn(|| panic!("boom in job"));
                assert_eq!(ok.join(), 1);
                bad.join();
            })
        });
        assert!(outcome.is_err(), "job panic must surface at join()");
    }

    #[test]
    fn scheduler_never_exceeds_its_thread_budget() {
        for budget in [1usize, 2, 3] {
            let peak = scope(budget, |sched| {
                let handles: Vec<JobHandle<()>> = (0..24)
                    .map(|_| {
                        sched.spawn(|| {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        })
                    })
                    .collect();
                handles.into_iter().for_each(JobHandle::join);
                sched.peak_in_flight()
            });
            assert!(
                peak >= 1 && peak <= budget,
                "peak {peak} vs budget {budget}"
            );
        }
    }

    #[test]
    fn scheduler_steals_across_deques() {
        // One deque gets every job (seed 0 round-robin over 1... use an
        // uneven load instead): worker 0's deque receives jobs 0 and 2 with
        // job 0 long-running, so an idle worker must steal job 2.
        let steals = scope(2, |sched| {
            let slow = sched.spawn(|| std::thread::sleep(std::time::Duration::from_millis(50)));
            let handles: Vec<JobHandle<()>> = (0..8).map(|_| sched.spawn(|| ())).collect();
            handles.into_iter().for_each(JobHandle::join);
            slow.join();
            sched.steals()
        });
        assert!(steals > 0, "idle worker should have stolen queued jobs");
    }

    #[test]
    fn nested_for_each_off_pool_runs_serially_in_order() {
        let order = Mutex::new(Vec::new());
        nested_for_each(10, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn with_pool_runs_the_closure_and_recruits_workers() {
        let input: Vec<u64> = (0..500).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for threads in [1usize, 2, 8] {
            let out = with_pool(threads, || {
                let slots: Vec<Mutex<u64>> = input.iter().map(|_| Mutex::new(0)).collect();
                nested_for_each(input.len(), &|i| {
                    *slots[i].lock().unwrap() = input[i] * 3 + 1;
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().unwrap())
                    .collect::<Vec<_>>()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn nested_for_each_inside_concurrent_jobs_does_not_deadlock() {
        // Several pool jobs each recruit helpers at once: the bag drain must
        // make progress even when every worker is itself inside a region.
        for seed in [0u64, 0x5eed] {
            let totals = scope_with(SchedulerOptions { threads: 4, seed }, |sched| {
                let handles: Vec<JobHandle<usize>> = (0..8)
                    .map(|job| {
                        sched.spawn(move || {
                            let total = AtomicUsize::new(0);
                            nested_for_each(100, &|i| {
                                total.fetch_add(i + job, Ordering::Relaxed);
                            });
                            total.into_inner()
                        })
                    })
                    .collect();
                handles.into_iter().map(JobHandle::join).collect::<Vec<_>>()
            });
            let expected: Vec<usize> = (0..8)
                .map(|job| (0..100).sum::<usize>() + 100 * job)
                .collect();
            assert_eq!(totals, expected);
        }
    }

    #[test]
    fn nested_for_each_propagates_task_panics() {
        let outcome = std::panic::catch_unwind(|| {
            with_pool(4, || {
                nested_for_each(64, &|i| {
                    if i == 33 {
                        panic!("boom in nested task");
                    }
                });
            })
        });
        assert!(outcome.is_err(), "nested task panic must surface");
        // The pool must still be usable afterwards from a fresh scope.
        assert_eq!(with_pool(2, || 7u32), 7);
    }

    #[test]
    fn nested_for_each_with_empty_and_tiny_bags() {
        with_pool(4, || {
            nested_for_each(0, &|_| panic!("no items, no calls"));
            let hits = AtomicUsize::new(0);
            nested_for_each(1, &|i| {
                assert_eq!(i, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), 1);
        });
    }

    #[test]
    fn on_pool_worker_reflects_registration() {
        assert!(!on_pool_worker());
        let inside = with_pool(2, on_pool_worker);
        assert!(inside, "with_pool body runs on a registered worker");
        assert!(!on_pool_worker());
    }

    #[test]
    fn scheduler_drains_queued_jobs_after_the_scope_body_returns() {
        let ran = Arc::new(AtomicUsize::new(0));
        let ran_in_scope = Arc::clone(&ran);
        scope(1, move |sched| {
            for _ in 0..16 {
                let ran = Arc::clone(&ran_in_scope);
                sched.spawn(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Handles dropped without joining: the jobs must still run
            // before the scope tears the pool down.
        });
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }
}
