//! The planner front end: admission, single-flight dedup, fair batching
//! onto one `p2_par` pool, and the plan-store read/write path.
//!
//! One background worker thread drains the admission queue in fair
//! round-robin order across tenants, builds the queued requests into `P2`
//! sessions, and runs each batch through [`p2_core::run_batch`] on a single
//! work-stealing pool. Everything else — cache probes, coalescing, refusal
//! — happens synchronously on the caller's thread, so warm hits never touch
//! the worker at all.
//!
//! **Lock order** (outermost first): `pending` → `store` → `queue`. Each
//! [`PendingPlan`]'s own slot mutex is a leaf acquired with none of the
//! above held. Violating this order is the only way this module can
//! deadlock; every multi-lock section below follows it.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use p2_collectives::SharedTables;
use p2_core::{run_batch, BatchOptions, RunObserver, TableStore, TableStoreStats, P2};
use p2_hash::{Fingerprint, FxHashMap};

use crate::error::ServiceError;
use crate::plan::Plan;
use crate::request::PlanRequest;
use crate::store::{PlanSource, PlanStore};

/// The largest `max_program_size` the planner admits — the largest size the
/// workspace pins. Each search's suffix memo holds `states × (size + 1)`
/// counts, so an unbounded size from the wire could exhaust memory, and an
/// allocation failure aborts the process instead of failing one request.
/// [`Planner::plan`] refuses a larger size with [`ServiceError::Limit`]
/// before fingerprinting it.
pub const MAX_PROGRAM_SIZE: usize = 8;

/// Planner tuning knobs. `Default` gives a service-ready middle ground;
/// tests tighten `queue_capacity`/`lru_capacity` to force the edges.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Worker threads of the shared synthesis pool (`0` = all cores).
    pub threads: usize,
    /// Steal-schedule seed of the pool (results are bit-identical for any
    /// value; exposed so tests can vary it).
    pub steal_seed: u64,
    /// Maximum queued (admitted, not yet planned) requests before new
    /// misses are refused with [`ServiceError::Overloaded`]. Coalescing
    /// onto an in-flight request never counts against this.
    pub queue_capacity: usize,
    /// Maximum requests drained into one `run_batch` call.
    pub max_batch: usize,
    /// In-memory LRU capacity of the plan store.
    pub lru_capacity: usize,
    /// Persistent store directory; `None` keeps plans in memory only.
    pub store_dir: Option<std::path::PathBuf>,
    /// Byte budget for resident plans; `None` means unlimited. Forwarded to
    /// [`PlanStore::with_max_bytes`] — exceeding it evicts from the LRU end
    /// until the store fits.
    pub store_max_bytes: Option<u64>,
    /// Maximum resident age of a cached plan; `None` means plans never
    /// expire. Forwarded to [`PlanStore::with_ttl`].
    pub store_ttl: Option<Duration>,
    /// Cross-run table-store directory. The planner always keeps one
    /// [`SharedTables`] *per table key*, so later syntheses of a family
    /// reuse the interned states and memoized collective applications of
    /// earlier ones. When set, the planner also loads the key's snapshot the
    /// first time a batch needs it and saves the key's tables after every
    /// batch that touched it — so a restarted planner warm-starts from disk.
    /// The planner is the only persister of search tables. Result-invisible
    /// either way (pinned by the determinism suite).
    pub tables_dir: Option<std::path::PathBuf>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            threads: 0,
            steal_seed: 0,
            queue_capacity: 64,
            max_batch: 8,
            lru_capacity: 256,
            store_dir: None,
            store_max_bytes: None,
            store_ttl: None,
            tables_dir: None,
        }
    }
}

/// A snapshot of the planner's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Requests received (including refused ones).
    pub requests: u64,
    /// Served from the in-memory LRU.
    pub warm_hits: u64,
    /// Served from the on-disk store.
    pub disk_hits: u64,
    /// Attached to another request's in-flight synthesis.
    pub coalesced: u64,
    /// Sessions actually synthesized.
    pub syntheses: u64,
    /// `run_batch` calls issued.
    pub batches: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Plans that synthesized fine but failed to persist.
    pub store_errors: u64,
    /// Current admission-queue depth.
    pub queue_depth: usize,
    /// Highest queue depth observed at any admission.
    pub peak_queue_depth: u64,
    /// Plans currently in the LRU.
    pub lru_len: usize,
    /// LRU evictions so far.
    pub evictions: u64,
    /// Evictions forced by [`PlannerConfig::store_max_bytes`].
    pub size_evictions: u64,
    /// Expiries forced by [`PlannerConfig::store_ttl`].
    pub ttl_evictions: u64,
    /// Estimated bytes of the plans currently resident in the LRU.
    pub resident_bytes: u64,
    /// Disk records that existed but failed to decode.
    pub disk_misreads: u64,
    /// Table-store snapshots loaded from [`PlannerConfig::tables_dir`].
    pub snapshot_loads: u64,
    /// Table-store snapshots saved to [`PlannerConfig::tables_dir`].
    pub snapshot_saves: u64,
    /// Cumulative microseconds spent loading table-store snapshots.
    pub snapshot_load_micros: u64,
    /// Cumulative microseconds spent saving table-store snapshots.
    pub snapshot_save_micros: u64,
    /// Interned states adopted from loaded snapshots (warm-reused states).
    pub warm_states: u64,
}

/// Per-request response telemetry around the served plan.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// The plan.
    pub plan: Arc<Plan>,
    /// Where it came from.
    pub source: PlanSource,
    /// The request's content address.
    pub fingerprint: Fingerprint,
    /// Admission-queue depth observed while handling this request.
    pub queue_depth: usize,
    /// End-to-end latency of [`Planner::plan`] for this request.
    pub latency: Duration,
}

/// The single-flight rendezvous: every request for one in-flight
/// fingerprint waits on the same slot.
struct PendingPlan {
    slot: Mutex<Option<Result<Arc<Plan>, ServiceError>>>,
    done: Condvar,
}

impl PendingPlan {
    fn new() -> Self {
        PendingPlan {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn wait(&self) -> Result<Arc<Plan>, ServiceError> {
        let mut slot = self.slot.lock().expect("pending slot poisoned");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("pending slot poisoned");
        }
        slot.clone().expect("checked above")
    }

    fn complete(&self, result: Result<Arc<Plan>, ServiceError>) {
        *self.slot.lock().expect("pending slot poisoned") = Some(result);
        self.done.notify_all();
    }
}

/// One admitted, not-yet-planned request.
struct Queued {
    fingerprint: Fingerprint,
    request: PlanRequest,
    pending: Arc<PendingPlan>,
}

/// Per-tenant FIFOs drained round-robin: within a tenant, strict arrival
/// order; across tenants, one request per turn, so a tenant flooding the
/// queue cannot starve anyone. Deterministic given the arrival order.
struct AdmissionQueue {
    tenants: Vec<(String, VecDeque<Queued>)>,
    /// Index of the tenant whose turn is next.
    cursor: usize,
    len: usize,
}

impl AdmissionQueue {
    fn new() -> Self {
        AdmissionQueue {
            tenants: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, tenant: &str, item: Queued) {
        match self.tenants.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, fifo)) => fifo.push_back(item),
            None => {
                let mut fifo = VecDeque::new();
                fifo.push_back(item);
                self.tenants.push((tenant.to_string(), fifo));
            }
        }
        self.len += 1;
    }

    /// Pops up to `max` requests in fair order and drops tenants that went
    /// empty (rotating the cursor so the round-robin resumes after the last
    /// tenant served).
    fn drain(&mut self, max: usize) -> Vec<Queued> {
        let mut out = Vec::new();
        while out.len() < max && self.len > 0 {
            let index = self.cursor % self.tenants.len();
            if let Some(item) = self.tenants[index].1.pop_front() {
                out.push(item);
                self.len -= 1;
            }
            self.cursor = (index + 1) % self.tenants.len();
        }
        // Compact away empty tenants while preserving the cursor's position
        // in the rotation.
        let next_tenant = self
            .tenants
            .get(self.cursor % self.tenants.len().max(1))
            .map(|(name, _)| name.clone());
        self.tenants.retain(|(_, fifo)| !fifo.is_empty());
        self.cursor = next_tenant
            .and_then(|name| self.tenants.iter().position(|(n, _)| *n == name))
            .unwrap_or(0);
        out
    }

    /// Drains everything in fair order (shutdown path).
    fn drain_all(&mut self) -> Vec<Queued> {
        self.drain(usize::MAX)
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    warm_hits: AtomicU64,
    disk_hits: AtomicU64,
    coalesced: AtomicU64,
    syntheses: AtomicU64,
    batches: AtomicU64,
    rejected: AtomicU64,
    store_errors: AtomicU64,
    peak_queue_depth: AtomicU64,
    snapshot_loads: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_load_micros: AtomicU64,
    snapshot_save_micros: AtomicU64,
    warm_states: AtomicU64,
}

struct PlannerInner {
    config: PlannerConfig,
    store: Mutex<PlanStore>,
    pending: Mutex<FxHashMap<u128, Arc<PendingPlan>>>,
    queue: Mutex<AdmissionQueue>,
    queue_wake: Condvar,
    stats: Counters,
    shutdown: AtomicBool,
    /// One set of search tables per table key. Keying by table key keeps
    /// each snapshot pure (only that key's states), which is what the
    /// all-or-nothing preload contract requires.
    tables: Mutex<FxHashMap<u128, Arc<SharedTables>>>,
    /// Present only with [`PlannerConfig::tables_dir`].
    table_store: Option<TableStore>,
    observer: Option<Arc<dyn RunObserver + Send + Sync>>,
}

/// The planner service: content-addressed caching, single-flight dedup,
/// and fair batched synthesis behind one synchronous [`plan`](Planner::plan)
/// call.
///
/// # Examples
///
/// ```
/// use p2_service::{Planner, PlannerConfig, PlanRequest};
/// use p2_topology::presets;
///
/// let planner = Planner::new(PlannerConfig::default()).unwrap();
/// let request = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
///     .with_bytes_per_device(1.0e9)
///     .with_repeats(2);
/// let miss = planner.plan("docs", request.clone()).unwrap();
/// let hit = planner.plan("docs", request).unwrap();
/// assert_eq!(hit.plan, miss.plan);
/// assert_eq!(planner.stats().warm_hits, 1);
/// ```
pub struct Planner {
    inner: Arc<PlannerInner>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Planner {
    /// Starts a planner (and its worker thread) with `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Store`] if the persistent store directory
    /// cannot be created.
    pub fn new(config: PlannerConfig) -> Result<Planner, ServiceError> {
        Planner::start(config, None)
    }

    /// [`Planner::new`] with a [`RunObserver`] attached to every synthesis
    /// the planner runs — the hook the cache-bypass tests count
    /// placements through. Observers only observe, so the observer cannot
    /// change a plan the planner caches.
    pub fn with_observer(
        config: PlannerConfig,
        observer: Arc<dyn RunObserver + Send + Sync>,
    ) -> Result<Planner, ServiceError> {
        Planner::start(config, Some(observer))
    }

    fn start(
        config: PlannerConfig,
        observer: Option<Arc<dyn RunObserver + Send + Sync>>,
    ) -> Result<Planner, ServiceError> {
        let store = match &config.store_dir {
            Some(dir) => PlanStore::persistent(config.lru_capacity, dir)?,
            None => PlanStore::in_memory(config.lru_capacity),
        }
        .with_max_bytes(config.store_max_bytes)
        .with_ttl(config.store_ttl);
        let table_store = config.tables_dir.as_ref().map(TableStore::new);
        let inner = Arc::new(PlannerInner {
            config,
            store: Mutex::new(store),
            pending: Mutex::new(FxHashMap::default()),
            queue: Mutex::new(AdmissionQueue::new()),
            queue_wake: Condvar::new(),
            stats: Counters::default(),
            shutdown: AtomicBool::new(false),
            tables: Mutex::new(FxHashMap::default()),
            table_store,
            observer,
        });
        let worker_inner = Arc::clone(&inner);
        let worker = std::thread::Builder::new()
            .name("p2-planner".to_string())
            .spawn(move || worker_loop(&worker_inner))
            .map_err(|e| ServiceError::Store(format!("spawn worker: {e}")))?;
        Ok(Planner {
            inner,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// Plans one request for `tenant`, blocking until the plan is available
    /// (immediately on cache hits).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Limit`] if the request's program size exceeds
    /// [`MAX_PROGRAM_SIZE`], [`ServiceError::Overloaded`] if the admission
    /// queue is full, [`ServiceError::ShuttingDown`] during shutdown,
    /// [`ServiceError::Internal`] if the synthesis batch panicked, or the
    /// pipeline / store error of a failed synthesis (shared verbatim by
    /// every coalesced waiter).
    pub fn plan(&self, tenant: &str, request: PlanRequest) -> Result<PlanResponse, ServiceError> {
        let start = Instant::now();
        let inner = &*self.inner;
        inner.stats.requests.fetch_add(1, Ordering::Relaxed);
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let size = request.session.config().max_program_size;
        if size > MAX_PROGRAM_SIZE {
            inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Limit(format!(
                "`max_program_size` {size} exceeds the planner's cap of {MAX_PROGRAM_SIZE}"
            )));
        }
        let fingerprint = request.fingerprint();

        let hit = |plan: Arc<Plan>, source: PlanSource| {
            match source {
                PlanSource::Warm => inner.stats.warm_hits.fetch_add(1, Ordering::Relaxed),
                _ => inner.stats.disk_hits.fetch_add(1, Ordering::Relaxed),
            };
            PlanResponse {
                plan,
                source,
                fingerprint,
                queue_depth: self.queue_depth(),
                latency: start.elapsed(),
            }
        };

        // Fast path: cache probe, no pending/queue locks touched.
        {
            let mut store = inner.store.lock().expect("store poisoned");
            if let Some((plan, source)) = store.get(fingerprint) {
                drop(store);
                return Ok(hit(plan, source));
            }
        }

        // Slow path: coalesce onto an in-flight synthesis or admit a new
        // one. Lock order: pending → store → queue.
        let pending = {
            let mut pending_map = inner.pending.lock().expect("pending poisoned");
            if let Some(pending) = pending_map.get(&fingerprint.0) {
                inner.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                Arc::clone(pending)
            } else {
                // Re-probe under the pending lock: the synthesis may have
                // completed (and left the pending map) between the two
                // critical sections above.
                let mut store = inner.store.lock().expect("store poisoned");
                if let Some((plan, source)) = store.get(fingerprint) {
                    drop(store);
                    drop(pending_map);
                    return Ok(hit(plan, source));
                }
                drop(store);
                let mut queue = inner.queue.lock().expect("queue poisoned");
                // Check again under the queue lock, which `shutdown` sets the
                // flag under: a request queued after the worker's final drain
                // would wait forever.
                if inner.shutdown.load(Ordering::Acquire) {
                    return Err(ServiceError::ShuttingDown);
                }
                if queue.len() >= inner.config.queue_capacity {
                    inner.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::Overloaded {
                        queue_depth: queue.len(),
                        capacity: inner.config.queue_capacity,
                    });
                }
                let pending = Arc::new(PendingPlan::new());
                pending_map.insert(fingerprint.0, Arc::clone(&pending));
                queue.push(
                    tenant,
                    Queued {
                        fingerprint,
                        request,
                        pending: Arc::clone(&pending),
                    },
                );
                inner
                    .stats
                    .peak_queue_depth
                    .fetch_max(queue.len() as u64, Ordering::Relaxed);
                inner.queue_wake.notify_one();
                drop(queue);
                drop(pending_map);
                let plan = pending.wait()?;
                return Ok(PlanResponse {
                    plan,
                    source: PlanSource::Synthesized,
                    fingerprint,
                    queue_depth: self.queue_depth(),
                    latency: start.elapsed(),
                });
            }
        };
        let plan = pending.wait()?;
        Ok(PlanResponse {
            plan,
            source: PlanSource::Coalesced,
            fingerprint,
            queue_depth: self.queue_depth(),
            latency: start.elapsed(),
        })
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().expect("queue poisoned").len()
    }

    /// A snapshot of the telemetry counters.
    pub fn stats(&self) -> PlannerStats {
        let inner = &*self.inner;
        let store = inner.store.lock().expect("store poisoned");
        PlannerStats {
            requests: inner.stats.requests.load(Ordering::Relaxed),
            warm_hits: inner.stats.warm_hits.load(Ordering::Relaxed),
            disk_hits: inner.stats.disk_hits.load(Ordering::Relaxed),
            coalesced: inner.stats.coalesced.load(Ordering::Relaxed),
            syntheses: inner.stats.syntheses.load(Ordering::Relaxed),
            batches: inner.stats.batches.load(Ordering::Relaxed),
            rejected: inner.stats.rejected.load(Ordering::Relaxed),
            store_errors: inner.stats.store_errors.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            peak_queue_depth: inner.stats.peak_queue_depth.load(Ordering::Relaxed),
            lru_len: store.len(),
            evictions: store.evictions(),
            size_evictions: store.size_evictions(),
            ttl_evictions: store.ttl_evictions(),
            resident_bytes: store.resident_bytes(),
            disk_misreads: store.disk_misreads(),
            snapshot_loads: inner.stats.snapshot_loads.load(Ordering::Relaxed),
            snapshot_saves: inner.stats.snapshot_saves.load(Ordering::Relaxed),
            snapshot_load_micros: inner.stats.snapshot_load_micros.load(Ordering::Relaxed),
            snapshot_save_micros: inner.stats.snapshot_save_micros.load(Ordering::Relaxed),
            warm_states: inner.stats.warm_states.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting requests, fails everything still queued with
    /// [`ServiceError::ShuttingDown`], and joins the worker after any
    /// in-flight batch finishes (its waiters still get their plans).
    /// Idempotent.
    pub fn shutdown(&self) {
        // Set the flag under the queue lock: the worker checks it under that
        // lock right before it waits, so the wake-up cannot fall in between.
        // The guard orders the store only, so a poisoned lock serves as well.
        let queue = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.inner.shutdown.store(true, Ordering::Release);
        drop(queue);
        self.inner.queue_wake.notify_all();
        if let Some(handle) = self.worker.lock().expect("worker poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Planner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Arc<PlannerInner>) {
    loop {
        let batch = {
            let mut queue = inner.queue.lock().expect("queue poisoned");
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    let abandoned = queue.drain_all();
                    drop(queue);
                    for queued in &abandoned {
                        finish(inner, queued, Err(ServiceError::ShuttingDown));
                    }
                    return;
                }
                if queue.len() > 0 {
                    break queue.drain(inner.config.max_batch);
                }
                queue = inner.queue_wake.wait(queue).expect("queue poisoned");
            }
        };

        // Build sessions; a request that fails validation fails alone.
        let mut jobs: Vec<(Queued, P2)> = Vec::with_capacity(batch.len());
        for queued in batch {
            match queued.request.session() {
                Ok(session) => jobs.push((queued, warm_session(inner, session))),
                Err(error) => finish(inner, &queued, Err(error.into())),
            }
        }
        if jobs.is_empty() {
            continue;
        }

        inner.stats.batches.fetch_add(1, Ordering::Relaxed);
        let sessions: Vec<P2> = jobs.iter().map(|(_, session)| session.clone()).collect();
        let options = BatchOptions {
            steal_seed: inner.config.steal_seed,
            ..BatchOptions::with_threads(inner.config.threads)
        };
        let observer: &dyn RunObserver = match &inner.observer {
            Some(observer) => &**observer,
            None => &(),
        };
        // A panic anywhere in the batch fails the batch's requests, not the
        // worker: it answers them with a typed error and keeps serving.
        let batch_run = panic::catch_unwind(AssertUnwindSafe(|| {
            run_batch(&sessions, &options, observer)
        }));
        match batch_run {
            Ok(Ok(outcome)) => {
                inner
                    .stats
                    .syntheses
                    .fetch_add(jobs.len() as u64, Ordering::Relaxed);
                for ((queued, _), result) in jobs.iter().zip(outcome.results) {
                    let plan = Arc::new(Plan::from_result(
                        queued.fingerprint,
                        &result,
                        queued.request.top_k,
                    ));
                    finish(inner, queued, Ok(plan));
                }
                save_touched_snapshots(inner, &jobs);
            }
            Ok(Err(error)) => {
                for (queued, _) in &jobs {
                    finish(inner, queued, Err(error.clone().into()));
                }
            }
            Err(_) => {
                // The panic message already went to stderr via the hook.
                drop_batch_tables(inner, &jobs);
                let error = ServiceError::Internal(
                    "a synthesis job panicked; the request can be sent again".to_string(),
                );
                for (queued, _) in &jobs {
                    finish(inner, queued, Err(error.clone()));
                }
            }
        }
    }
}

/// Forgets the per-key tables a panicked batch used: the panic may have
/// poisoned a shard lock or cut an update short, so the next request of each
/// key starts from fresh tables (warmed from the table store, if any).
fn drop_batch_tables(inner: &PlannerInner, jobs: &[(Queued, P2)]) {
    let mut tables = inner.tables.lock().expect("tables poisoned");
    for (_, session) in jobs {
        tables.remove(&session.config().table_key().0);
    }
}

/// Lends the session the planner's tables for its table key, created the
/// first time the key is seen and then warmed from the table store, if any.
/// Sessions never persist tables, so the planner is the sole persister.
fn warm_session(inner: &PlannerInner, session: P2) -> P2 {
    let key = session.config().table_key();
    let mut tables = inner.tables.lock().expect("tables poisoned");
    let tables = tables.entry(key.0).or_insert_with(|| {
        let tables = Arc::new(SharedTables::new());
        if let Some(store) = &inner.table_store {
            let stats = store.warm(key, &tables);
            let counters = &inner.stats;
            counters
                .snapshot_loads
                .fetch_add(u64::from(stats.loaded), Ordering::Relaxed);
            counters
                .warm_states
                .fetch_add(stats.warm_states as u64, Ordering::Relaxed);
            counters
                .snapshot_load_micros
                .fetch_add(stats.load_micros, Ordering::Relaxed);
        }
        tables
    });
    session.with_shared_tables(Arc::clone(tables))
}

/// Saves one snapshot per table key the finished batch touched. Failed or
/// empty saves are skipped silently (the tables stay warm in memory); the
/// batch's plans are already published either way.
fn save_touched_snapshots(inner: &PlannerInner, jobs: &[(Queued, P2)]) {
    let Some(store) = &inner.table_store else {
        return;
    };
    let mut keys: Vec<Fingerprint> = jobs
        .iter()
        .map(|(_, session)| session.config().table_key())
        .collect();
    keys.sort_by_key(|key| key.0);
    keys.dedup();
    let tables = inner.tables.lock().expect("tables poisoned");
    for key in keys {
        let Some(key_tables) = tables.get(&key.0) else {
            continue;
        };
        let mut stats = TableStoreStats::default();
        store.persist(key, key_tables, &mut stats);
        let counters = &inner.stats;
        counters
            .snapshot_saves
            .fetch_add(u64::from(stats.saved), Ordering::Relaxed);
        counters
            .snapshot_save_micros
            .fetch_add(stats.save_micros, Ordering::Relaxed);
    }
}

/// Publishes a finished request: successful plans go into the store, the
/// fingerprint leaves the single-flight map, and every waiter wakes with
/// the (cloned) outcome. A store write failure is counted but does not fail
/// the request — the plan itself is valid.
fn finish(inner: &PlannerInner, queued: &Queued, result: Result<Arc<Plan>, ServiceError>) {
    {
        // Lock order: pending → store.
        let mut pending_map = inner.pending.lock().expect("pending poisoned");
        if let Ok(plan) = &result {
            let mut store = inner.store.lock().expect("store poisoned");
            if store.insert(Arc::clone(plan)).is_err() {
                inner.stats.store_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        pending_map.remove(&queued.fingerprint.0);
    }
    queued.pending.complete(result);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(tag: &str) -> Queued {
        Queued {
            fingerprint: Fingerprint::of_bytes(tag.as_bytes()),
            request: PlanRequest::new(p2_topology::presets::a100_system(2), vec![8, 4], vec![0]),
            pending: Arc::new(PendingPlan::new()),
        }
    }

    fn drain_tags(queue: &mut AdmissionQueue, max: usize) -> Vec<String> {
        queue
            .drain(max)
            .iter()
            .map(|q| q.fingerprint.to_string())
            .collect()
    }

    #[test]
    fn table_store_snapshots_survive_planner_restarts() {
        let dir = std::env::temp_dir().join(format!(
            "p2-planner-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PlannerConfig {
            threads: 2,
            tables_dir: Some(dir.clone()),
            ..PlannerConfig::default()
        };
        let request = || {
            PlanRequest::new(p2_topology::presets::a100_system(2), vec![8, 4], vec![0])
                .with_bytes_per_device(1.0e9)
                .with_repeats(2)
        };
        let cold_planner = Planner::new(config.clone()).unwrap();
        let cold = cold_planner.plan("restart", request()).unwrap();
        // Joins the worker: the post-batch snapshot save has finished and
        // the counters are quiescent.
        cold_planner.shutdown();
        let cold_stats = cold_planner.stats();
        assert_eq!(cold_stats.snapshot_loads, 0);
        assert_eq!(cold_stats.snapshot_saves, 1);
        assert_eq!(cold_stats.warm_states, 0);
        drop(cold_planner);
        // A fresh planner over the same directory warm-starts from disk and
        // serves a bit-identical plan.
        let warm_planner = Planner::new(config).unwrap();
        let warm = warm_planner.plan("restart", request()).unwrap();
        warm_planner.shutdown();
        let warm_stats = warm_planner.stats();
        assert_eq!(warm_stats.snapshot_loads, 1);
        assert!(warm_stats.warm_states > 0);
        // Bit-identical modulo wall-clock (`synthesis_micros`).
        assert_eq!(warm.plan.fingerprint, cold.plan.fingerprint);
        assert_eq!(warm.plan.entries, cold.plan.entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_with_a_flipped_bit_is_a_miss_and_the_plan_stays_cold() {
        use p2_core::TableSnapshot;
        let dir = std::env::temp_dir().join(format!(
            "p2-planner-flip-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PlannerConfig {
            threads: 2,
            tables_dir: Some(dir.clone()),
            ..PlannerConfig::default()
        };
        // The plan carries every program, so a flip that changes any of
        // them shows in its entries.
        let request = || {
            PlanRequest::new(p2_topology::presets::a100_system(2), vec![8, 4], vec![0])
                .with_bytes_per_device(1.0e9)
                .with_repeats(2)
                .with_top_k(usize::MAX)
        };
        let cold_planner = Planner::new(config.clone()).unwrap();
        let cold = cold_planner.plan("flip", request()).unwrap();
        cold_planner.shutdown();
        assert_eq!(cold_planner.stats().snapshot_saves, 1);
        drop(cold_planner);
        // Flip the low bit of one apply outcome's first output id, keeping
        // the digest line: the document still parses, and its ids stay in
        // range, so only the digest can tell.
        let key = request().session().unwrap().config().table_key();
        let path = TableStore::new(&dir).path_for(key);
        let text = std::fs::read_to_string(&path).unwrap();
        let (digest, _) = text.split_once('\n').unwrap();
        let mut snapshot = TableSnapshot::from_json_str(&text, key).expect("saved snapshot");
        let num_states = snapshot.states.len();
        let outcome = snapshot
            .apply
            .iter_mut()
            .filter_map(|(_, value)| value.as_mut().ok())
            .find(|ids| ((ids[0] ^ 1) as usize) < num_states)
            .expect("an outcome whose flipped id stays in range");
        let mut ids = outcome.to_vec();
        ids[0] ^= 1;
        *outcome = ids.into();
        let tampered = snapshot.to_json_string(key);
        let (_, document) = tampered.split_once('\n').unwrap();
        std::fs::write(&path, format!("{digest}\n{document}")).unwrap();
        // A restarted planner refuses the snapshot and plans cold.
        let restarted = Planner::new(config).unwrap();
        let replanned = restarted.plan("flip", request()).unwrap();
        restarted.shutdown();
        assert_eq!(replanned.source, PlanSource::Synthesized);
        let stats = restarted.stats();
        assert_eq!(stats.snapshot_loads, 0);
        assert_eq!(stats.warm_states, 0);
        assert_eq!(replanned.plan.fingerprint, cold.plan.fingerprint);
        assert_eq!(replanned.plan.stats.programs, cold.plan.stats.programs);
        assert_eq!(replanned.plan.entries, cold.plan.entries);
        for (a, b) in replanned.plan.entries.iter().zip(&cold.plan.entries) {
            assert_eq!(a.predicted_seconds.to_bits(), b.predicted_seconds.to_bits());
            assert_eq!(a.measured_seconds.to_bits(), b.measured_seconds.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records `(shared_states_reused, unique_device_states)` of every
    /// synthesized placement, in completion order.
    #[derive(Default)]
    struct ReuseLog(Mutex<Vec<(usize, usize)>>);

    impl RunObserver for ReuseLog {
        fn on_placement_done(&self, _index: usize, evaluation: &p2_core::PlacementEvaluation) {
            self.0.lock().unwrap().push((
                evaluation.shared_states_reused,
                evaluation.unique_device_states,
            ));
        }
    }

    #[test]
    fn later_requests_of_a_family_start_from_warm_tables_without_a_tables_dir() {
        let log = Arc::new(ReuseLog::default());
        let config = PlannerConfig {
            threads: 2,
            ..PlannerConfig::default()
        };
        let planner = Planner::with_observer(config, log.clone()).unwrap();
        let request = |bytes: f64| {
            PlanRequest::new(p2_topology::presets::a100_system(2), vec![8, 4], vec![0])
                .with_bytes_per_device(bytes)
                .with_repeats(2)
        };
        let first = planner.plan("family", request(1.0e9)).unwrap();
        assert_eq!(first.source, PlanSource::Synthesized);
        let first_placements = log.0.lock().unwrap().len();
        assert!(first_placements > 0);
        // Same table key, different plan fingerprint: a second synthesis.
        let resized = request(2.0e9);
        let second = planner.plan("family", resized.clone()).unwrap();
        assert_eq!(second.source, PlanSource::Synthesized);
        planner.shutdown();
        let placements = log.0.lock().unwrap().clone();
        let later = &placements[first_placements..];
        assert_eq!(later.len(), first_placements);
        for &(reused, unique) in later {
            assert!(unique > 0);
            assert_eq!(
                reused, unique,
                "the second request must find every state the first one interned"
            );
        }
        // Warm tables change no bit: the plan equals a fresh one-thread run.
        let fresh = resized.session.clone().threads(1).run().unwrap();
        let reference = Plan::from_result(resized.fingerprint(), &fresh, resized.top_k);
        assert_eq!(second.plan.fingerprint, reference.fingerprint);
        assert_eq!(second.plan.label, reference.label);
        assert_eq!(second.plan.entries, reference.entries);
        for (a, b) in second.plan.entries.iter().zip(&reference.entries) {
            assert_eq!(a.predicted_seconds.to_bits(), b.predicted_seconds.to_bits());
            assert_eq!(a.measured_seconds.to_bits(), b.measured_seconds.to_bits());
        }
    }

    /// Clients keep issuing cache-missing requests while `shutdown` runs.
    /// Each must end in `ShuttingDown`; none may wait forever, as a request
    /// queued after the worker's final drain would.
    #[test]
    fn requests_racing_shutdown_end_in_shutting_down_instead_of_hanging() {
        use std::sync::{mpsc, Barrier};
        for iteration in 0..600usize {
            let config = PlannerConfig {
                threads: 1,
                ..PlannerConfig::default()
            };
            let planner = Arc::new(Planner::new(config).unwrap());
            let clients = 1 + iteration % 4;
            let start = Arc::new(Barrier::new(clients + 1));
            let (answered_tx, answered) = mpsc::channel();
            let (done_tx, done) = mpsc::channel();
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let (planner, start) = (Arc::clone(&planner), Arc::clone(&start));
                    let (answered_tx, done_tx) = (answered_tx.clone(), done_tx.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        let mut count = 0usize;
                        let outcome = loop {
                            // A distinct buffer size per request: every one
                            // misses the cache and is queued.
                            let bytes = 1.0e6 * (1 + client + 4 * count) as f64;
                            let mut request = PlanRequest::new(
                                p2_topology::presets::a100_system(1),
                                vec![16],
                                vec![0],
                            )
                            .with_repeats(1)
                            .with_bytes_per_device(bytes);
                            request.session = request.session.max_program_size(1);
                            match planner.plan("race", request) {
                                Ok(_) => {
                                    count += 1;
                                    let _ = answered_tx.send(());
                                }
                                Err(ServiceError::ShuttingDown) => break Ok(count),
                                Err(other) => break Err(other),
                            }
                        };
                        let _ = done_tx.send(outcome);
                    })
                })
                .collect();
            // Shut down as the clients start, or once they have been answered
            // a few times and are mid-stream.
            start.wait();
            for _ in 0..iteration % 3 {
                answered
                    .recv_timeout(Duration::from_secs(20))
                    .expect("a request is answered before shutdown");
            }
            planner.shutdown();
            for _ in 0..clients {
                let outcome = done
                    .recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| panic!("iteration {iteration}: a client never returned"));
                assert!(outcome.is_ok(), "iteration {iteration}: {outcome:?}");
            }
            for handle in handles {
                handle.join().expect("client thread");
            }
        }
    }

    #[test]
    fn oversized_program_sizes_are_refused_at_admission() {
        let planner = Planner::new(PlannerConfig {
            threads: 1,
            ..PlannerConfig::default()
        })
        .unwrap();
        let sized = |size: usize| {
            let mut request =
                PlanRequest::new(p2_topology::presets::a100_system(1), vec![16], vec![0])
                    .with_repeats(1);
            request.session = request.session.max_program_size(size);
            request
        };
        for size in [MAX_PROGRAM_SIZE + 1, 1 << 40, usize::MAX] {
            match planner.plan("limit", sized(size)) {
                Err(ServiceError::Limit(message)) => {
                    assert!(message.contains("`max_program_size`"), "{message}")
                }
                other => panic!("size {size} must be refused, got {other:?}"),
            }
        }
        let stats = planner.stats();
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.peak_queue_depth, 0);
        assert_eq!(stats.syntheses, 0);
        // The cap itself is admitted and planned.
        let admitted = planner.plan("limit", sized(MAX_PROGRAM_SIZE)).unwrap();
        assert_eq!(admitted.source, PlanSource::Synthesized);
        planner.shutdown();
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let mut queue = AdmissionQueue::new();
        for tag in ["a1", "a2", "a3", "a4"] {
            queue.push("alice", queued(tag));
        }
        queue.push("bob", queued("b1"));
        queue.push("carol", queued("c1"));
        let a1 = Fingerprint::of_bytes(b"a1").to_string();
        let a2 = Fingerprint::of_bytes(b"a2").to_string();
        let b1 = Fingerprint::of_bytes(b"b1").to_string();
        let c1 = Fingerprint::of_bytes(b"c1").to_string();
        // One per tenant per turn: alice cannot monopolize the batch.
        assert_eq!(drain_tags(&mut queue, 4), vec![a1, b1, c1, a2]);
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn rotation_resumes_across_drains() {
        let mut queue = AdmissionQueue::new();
        queue.push("alice", queued("a1"));
        queue.push("alice", queued("a2"));
        queue.push("bob", queued("b1"));
        let a1 = Fingerprint::of_bytes(b"a1").to_string();
        let a2 = Fingerprint::of_bytes(b"a2").to_string();
        let b1 = Fingerprint::of_bytes(b"b1").to_string();
        assert_eq!(drain_tags(&mut queue, 1), vec![a1]);
        // Bob's turn persists across the drain boundary.
        assert_eq!(drain_tags(&mut queue, 2), vec![b1, a2]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn within_a_tenant_order_is_fifo() {
        let mut queue = AdmissionQueue::new();
        for tag in ["x1", "x2", "x3"] {
            queue.push("solo", queued(tag));
        }
        let expected: Vec<String> = ["x1", "x2", "x3"]
            .iter()
            .map(|t| Fingerprint::of_bytes(t.as_bytes()).to_string())
            .collect();
        assert_eq!(drain_tags(&mut queue, 8), expected);
    }
}
