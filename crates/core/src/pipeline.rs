use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use p2_collectives::SharedTables;
use p2_cost::{AlphaBetaModel, CostModel, StepTimes};
use p2_exec::{ExecConfig, Executor};
use p2_par::{JobHandle, Scheduler};
use p2_placement::{
    enumerate_matrices, for_each_matrix, MatrixControl, MatrixSink, ParallelismMatrix,
};
use p2_synthesis::{
    baseline_allreduce, EmittedProgram, LoweredProgram, MemoBank, Program, SinkControl, Synthesizer,
};

use crate::builder::P2Builder;
use crate::config::P2Config;
use crate::error::P2Error;
use crate::observer::RunObserver;
use crate::result::{ExperimentResult, PlacementEvaluation, ProgramEvaluation};
use crate::table_store::{TableSnapshot, TableStore, TableStoreStats};

/// How [`P2::run`] drives the synthesized programs through prediction and
/// measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Measure every synthesized program on the execution substrate (the
    /// exhaustive evaluation behind the paper's tables). The default.
    #[default]
    Measure,
    /// Predict every program with the analytic simulator, then measure only
    /// the globally best `n` predictions — the paper's intended deployment
    /// mode (§5). Unmeasured programs report their prediction as their
    /// measured time.
    Shortlist(usize),
    /// Predict every program and measure nothing; every program's measured
    /// time is its prediction. (The AllReduce baseline is still measured to
    /// anchor the tables.) This is the seeding pass of
    /// [`TwoPassSharedBound`](crate::TwoPassSharedBound).
    PredictOnly,
}

/// One retained candidate in the bounded top-K retention heap, ordered so the
/// heap's maximum is the *worst* retained program: highest measured time, ties
/// broken toward the latest arrival (so on equal times the earlier program
/// survives — a deterministic, stream-order-local policy). Ranking by the
/// measured time is ranking by the same key the final result rankings use; in
/// shortlist mode, where nothing is measured on the stream, `measured` holds
/// the prediction, exactly as the reported evaluations do.
struct HeapEntry {
    predicted: f64,
    measured: f64,
    seq: usize,
    program: Program,
    lowered: LoweredProgram,
}

impl HeapEntry {
    fn rank(&self) -> (f64, usize) {
        (self.measured, self.seq)
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.measured
            .total_cmp(&other.measured)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The P² tool: parallelism placement synthesis, placement-aware reduction
/// strategy synthesis, prediction, and evaluation.
///
/// A `P2` is an experiment *session*: a validated [`P2Config`] plus the
/// [`RunMode`] that [`P2::run`] executes. Sessions are assembled with
/// [`P2::builder`] (or [`P2::new`] from an existing config, which defaults to
/// [`RunMode::Measure`]).
#[derive(Debug, Clone)]
pub struct P2 {
    config: P2Config,
    mode: RunMode,
}

impl P2 {
    /// Creates the tool from a validated configuration, with the default
    /// [`RunMode::Measure`].
    ///
    /// # Errors
    ///
    /// Returns [`P2Error::InvalidConfig`] for inconsistent configurations.
    pub fn new(config: P2Config) -> Result<Self, P2Error> {
        config.validate()?;
        Ok(P2 {
            config,
            mode: RunMode::Measure,
        })
    }

    /// Starts a typed builder for an experiment session on `system`.
    /// Validation happens at [`P2Builder::build`].
    ///
    /// # Examples
    ///
    /// ```
    /// use p2_core::{RunMode, P2};
    /// use p2_topology::presets;
    ///
    /// // The paper's deployment mode: predict everything, measure the best
    /// // ten predictions across all placements.
    /// let result = P2::builder(presets::a100_system(2))
    ///     .parallelism_axes([8, 4])
    ///     .reduction_axes([0])
    ///     .bytes_per_device(1.0e9)
    ///     .repeats(2)
    ///     .mode(RunMode::Shortlist(10))
    ///     .build()?
    ///     .run()?;
    /// assert!(result.best_overall().is_some());
    /// # Ok::<(), p2_core::P2Error>(())
    /// ```
    pub fn builder(system: p2_topology::SystemTopology) -> P2Builder {
        P2Builder::new(system)
    }

    /// The configuration in use.
    pub fn config(&self) -> &P2Config {
        &self.config
    }

    /// The run mode [`P2::run`] executes.
    pub fn mode(&self) -> RunMode {
        self.mode
    }

    /// Returns the session with a different run mode, leaving the
    /// configuration untouched.
    pub fn with_mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enumerates every parallelism matrix for the configured system and axes.
    ///
    /// This materializes the full list; the sweep itself streams matrices via
    /// [`P2::for_each_placement`] and never holds them all.
    ///
    /// # Errors
    ///
    /// Propagates placement errors.
    pub fn placements(&self) -> Result<Vec<ParallelismMatrix>, P2Error> {
        Ok(enumerate_matrices(
            &self.config.system.hierarchy().arities(),
            &self.config.parallelism_axes,
        )?)
    }

    /// Streams every parallelism matrix for the configured system and axes
    /// into `sink`, in enumeration order, without materializing the list.
    /// Returns the number of matrices delivered.
    ///
    /// # Errors
    ///
    /// Propagates placement errors (all raised before the first matrix).
    pub fn for_each_placement<S>(&self, sink: &mut S) -> Result<usize, P2Error>
    where
        S: MatrixSink + ?Sized,
    {
        Ok(for_each_matrix(
            &self.config.system.hierarchy().arities(),
            &self.config.parallelism_axes,
            sink,
        )?)
    }

    /// Runs the pipeline in the session's [`RunMode`]: enumerate placements
    /// (streaming), synthesize reduction programs for each, predict every
    /// program with the analytic cost model, and measure on the execution
    /// substrate whatever the mode calls for — everything under
    /// [`RunMode::Measure`], the best `n` predictions under
    /// [`RunMode::Shortlist`], nothing under [`RunMode::PredictOnly`].
    ///
    /// # Errors
    ///
    /// Propagates errors from any stage; synthesis itself cannot fail, so an
    /// error indicates an inconsistent configuration.
    pub fn run(&self) -> Result<ExperimentResult, P2Error> {
        self.run_observed(&())
    }

    /// [`P2::run`] with a [`RunObserver`] receiving progress events from the
    /// parallel sweep: per placement, `on_placement_start`, then
    /// `on_program_retained` in stream order, then `on_placement_done`.
    /// Events from different placements interleave when the sweep runs on
    /// more than one thread; the per-placement sequences are deterministic.
    ///
    /// The session owns its pool here: a work-stealing scope of
    /// [`P2Config::threads`](crate::P2Config) workers is spun up for this run
    /// alone. To schedule several sessions onto *one* pool — the batch path —
    /// use [`P2::run_on`] (or [`P2::spawn_sweep`]) with a caller-supplied
    /// [`Scheduler`].
    ///
    /// # Errors
    ///
    /// Same as [`P2::run`].
    pub fn run_observed(&self, observer: &dyn RunObserver) -> Result<ExperimentResult, P2Error> {
        p2_par::scope(self.config.threads, |scheduler| {
            self.run_on(scheduler, observer)
        })
    }

    /// Runs the session's full pipeline on a caller-supplied work-stealing
    /// scheduler: [`P2::spawn_sweep`] immediately followed by
    /// [`PendingSweep::collect`].
    ///
    /// This is the building block batch drivers use to run many sessions on
    /// one thread pool without oversubscription; results are bit-identical to
    /// [`P2::run_observed`] for any pool size or steal schedule.
    ///
    /// # Errors
    ///
    /// Same as [`P2::run`].
    pub fn run_on<'env>(
        &'env self,
        scheduler: &Scheduler<'_, 'env>,
        observer: &'env dyn RunObserver,
    ) -> Result<ExperimentResult, P2Error> {
        self.spawn_sweep(scheduler, observer)?.collect(scheduler)
    }

    /// Submits one placement-evaluation job per placement to `scheduler` and
    /// returns without waiting: the session no longer owns its fan-out, so a
    /// batch driver can spawn *several* sessions' sweeps onto one pool and the
    /// scheduler steals across their boundaries. Redeem the returned
    /// [`PendingSweep`] with [`PendingSweep::collect`].
    ///
    /// Jobs are spawned in placement production order. Observers that block on
    /// other placements' slots (the shared-bound reduction tree) rely on that:
    /// a placement only ever waits on strictly earlier spawns, which is what
    /// keeps the pool deadlock-free under any steal schedule.
    ///
    /// # Errors
    ///
    /// Returns [`P2Error::InvalidConfig`] for [`RunMode::Shortlist`]`(0)` and
    /// propagates placement-enumeration and cost-model errors — all before
    /// any job is spawned.
    pub fn spawn_sweep<'env>(
        &'env self,
        scheduler: &Scheduler<'_, 'env>,
        observer: &'env dyn RunObserver,
    ) -> Result<PendingSweep<'env>, P2Error> {
        // Rejected here as well as in the builder so sessions assembled via
        // `with_mode` get the same error instead of silently degrading to a
        // predict-only run.
        if let RunMode::Shortlist(0) = self.mode {
            return Err(P2Error::InvalidConfig {
                reason: "shortlist length must be positive (use RunMode::PredictOnly to \
                         measure nothing)"
                    .into(),
            });
        }
        let measure_programs = matches!(self.mode, RunMode::Measure);
        let model = self.resolve_model()?;
        // One set of hash-consing tables for the whole sweep: every placement
        // reduces over the same device-state universe, so workers reuse each
        // other's interned states and memoized collective applications. A
        // batch driver may supply the tables instead, extending the sharing
        // across every spec of a group.
        let (shared, external_tables) = match &self.config.shared_tables {
            Some(tables) => (Some(Arc::clone(tables)), true),
            None => (
                self.config
                    .shared_intern
                    .then(|| Arc::new(SharedTables::new())),
                false,
            ),
        };
        // The suffix-memo bank: externally supplied (batch sharing), or
        // created fresh when this session owns a table store that will
        // persist it. Plain sweeps skip the bank — every placement of one
        // sweep solves a distinct context, so within a run there is nothing
        // to share and, without a store, nothing to keep.
        let external_memo = self.config.shared_memo.is_some();
        let store_active =
            self.config.table_store_dir.is_some() && !external_tables && !external_memo;
        let memo: Option<Arc<MemoBank>> = match &self.config.shared_memo {
            Some(bank) => Some(Arc::clone(bank)),
            None => store_active.then(|| Arc::new(MemoBank::new())),
        };
        // Load-or-empty: a snapshot under this session's table key warms the
        // fresh tables and bank before any job is spawned; a missing or
        // corrupt snapshot is a counted miss and the sweep starts cold.
        let store = if store_active {
            let dir = self.config.table_store_dir.clone().expect("store active");
            let store = TableStore::new(dir);
            let key = self.config.table_key();
            let mut stats = TableStoreStats {
                table_key: format!("{key}"),
                ..TableStoreStats::default()
            };
            let started = Instant::now();
            if let Some(snapshot) = store.load(key) {
                stats.loaded = true;
                let bank = memo.as_ref().expect("store implies a bank");
                snapshot.install(shared.as_deref(), bank, &mut stats);
            }
            stats.load_micros = started.elapsed().as_micros() as u64;
            Some((store, key, stats))
        } else {
            None
        };
        let mut handles = Vec::new();
        self.for_each_placement(&mut |matrix: &ParallelismMatrix| {
            let index = handles.len();
            let matrix = matrix.clone();
            let model = Arc::clone(&model);
            let shared = shared.clone();
            let memo = memo.clone();
            handles.push(scheduler.spawn(move || {
                self.evaluate_placement(
                    index,
                    &matrix,
                    &model,
                    shared.as_ref(),
                    memo.as_ref(),
                    measure_programs,
                    observer,
                )
            }));
            MatrixControl::Continue
        })?;
        Ok(PendingSweep {
            session: self,
            handles,
            shared,
            external_tables,
            memo,
            store,
        })
    }

    /// Ranks all programs of a predict-only sweep by predicted time and
    /// measures only the best `shortlist` of them — the post-pass of
    /// [`RunMode::Shortlist`]. With the simulator's top-10 accuracy, a
    /// shortlist of 10 almost always contains the true optimum at a fraction
    /// of the evaluation cost; this is how P² avoids "massive evaluations of
    /// synthesis results".
    ///
    /// Combined with [`P2Config::keep_top`] the prediction pass itself is
    /// bounded. With K ≥ `shortlist`, top-K displacement alone cannot change
    /// the measured shortlist (every globally top-`shortlist` prediction is
    /// by definition within its own placement's top-K); cost-bound pruning
    /// can still drop a candidate predicting worse than `1 + prune_slack`
    /// times its placement's best, so the shortlist is only guaranteed
    /// identical to the exhaustive one up to such far-from-optimal entries.
    fn measure_shortlist_on<'env>(
        &'env self,
        scheduler: &Scheduler<'_, 'env>,
        result: &mut ExperimentResult,
        shortlist: usize,
    ) -> Result<(), P2Error> {
        // Rank all programs by predicted time and measure only the shortlist.
        let mut order: Vec<(usize, usize, f64)> = result
            .placements
            .iter()
            .enumerate()
            .flat_map(|(pi, pl)| {
                pl.programs
                    .iter()
                    .enumerate()
                    .map(move |(qi, p)| (pi, qi, p.predicted_seconds))
            })
            .collect();
        order.sort_by(|a, b| a.2.total_cmp(&b.2));
        let chosen: Vec<(usize, usize)> = order[..shortlist.min(order.len())]
            .iter()
            .map(|&(pi, qi, _)| (pi, qi))
            .collect();
        // Measurements fan out as scheduler jobs (each clones its lowered
        // program, so nothing borrows the result being patched); noise depends
        // only on the seed and program content and the per-job executor is
        // stateless, so the values match a serial run exactly.
        let handles: Vec<JobHandle<Result<f64, P2Error>>> = chosen
            .iter()
            .map(|&(pi, qi)| {
                let lowered = result.placements[pi].programs[qi].lowered.clone();
                scheduler.spawn(move || {
                    let executor = Executor::new(&self.config.system, self.exec_config())?;
                    Ok(executor.measure(&lowered))
                })
            })
            .collect();
        for (&(pi, qi), handle) in chosen.iter().zip(handles) {
            result.placements[pi].programs[qi].measured_seconds = handle.join()?;
        }
        for placement in &mut result.placements {
            placement
                .programs
                .sort_by(|a, b| a.measured_seconds.total_cmp(&b.measured_seconds));
        }
        Ok(())
    }

    /// The execution-substrate configuration every measurement in this session
    /// uses: measurements are a pure function of (this config, program), which
    /// is what lets each job build its own [`Executor`] without changing a
    /// single measured bit.
    fn exec_config(&self) -> ExecConfig {
        ExecConfig::new(self.config.algo, self.config.bytes_per_device)
            .with_noise(self.config.noise_fraction)
            .with_seed(self.config.seed)
            .with_repeats(self.config.repeats)
    }

    /// The session's cost model: the configured one, or the paper's α–β model
    /// over the configured system — bit-identical to the pre-trait pipeline.
    fn resolve_model(&self) -> Result<Arc<dyn CostModel>, P2Error> {
        Ok(match &self.config.cost_model {
            Some(model) => Arc::clone(model),
            None => Arc::new(AlphaBetaModel::new(
                self.config.system.clone(),
                self.config.algo,
                self.config.bytes_per_device,
            )?),
        })
    }

    /// Synthesizes, predicts and optionally measures every program of one
    /// placement — the per-item body of the parallel sweep.
    ///
    /// Programs are consumed *streaming*: the synthesizer's lowered stream
    /// ([`Synthesizer::for_each_lowered`]) emits one program at a time with
    /// its steps as ids into the search's step table, and the program is
    /// costed incrementally and either retained or dropped on the spot.
    /// Each distinct step is lowered once per placement and predicted the
    /// first time a program prefix reaches it ([`StepTimes`]), and the
    /// placement's executor simulates each distinct step once; a program's
    /// steps are cloned into a [`LoweredProgram`] only when it is measured
    /// or retained. With the default configuration
    /// (`keep_top = None`, no observer bound) every program is retained and
    /// the results are bit-compatible with the old materializing pipeline;
    /// with [`P2Config::keep_top`] only a bounded top-K heap survives, ranked
    /// by the same key the final result ranking uses (measured time when
    /// measuring eagerly, predicted time otherwise), and candidates whose
    /// accumulated predicted prefix already exceeds the placement's best
    /// prediction so far times `1 + prune_slack` (or the heap's worst
    /// retained prediction once it is full, in predict-first modes) are
    /// pruned before they are fully costed or measured. An observer-supplied
    /// bound ([`RunObserver::on_placement_start`]) tightens the best
    /// prediction's seed — normally the placement's own AllReduce baseline —
    /// and activates prefix pruning even without `keep_top`.
    ///
    /// All predictions come from the configured [`CostModel`]: a program's
    /// prediction folds its step times from `+0.0` in program order, the
    /// model's additivity contract, so it is bit-identical to
    /// [`CostModel::program_time`] of the lowered program.
    ///
    /// Errors — and panics unwinding through this frame — fire
    /// [`RunObserver::on_placement_aborted`] before propagating, so observers
    /// blocking on this placement's completion (the shared-bound reduction
    /// tree) are released instead of waiting forever; a panic is re-raised on
    /// the thread joining the sweep, failing the run exactly as it did before
    /// observers could block.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_placement(
        &self,
        index: usize,
        matrix: &ParallelismMatrix,
        model: &Arc<dyn CostModel>,
        shared: Option<&Arc<SharedTables>>,
        memo: Option<&Arc<MemoBank>>,
        measure_programs: bool,
        observer: &dyn RunObserver,
    ) -> Result<PlacementEvaluation, P2Error> {
        struct AbortGuard<'a> {
            observer: &'a dyn RunObserver,
            index: usize,
            armed: bool,
        }
        impl Drop for AbortGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    self.observer.on_placement_aborted(self.index);
                }
            }
        }
        let mut guard = AbortGuard {
            observer,
            index,
            armed: true,
        };
        let result = self.evaluate_placement_inner(
            index,
            matrix,
            model,
            shared,
            memo,
            measure_programs,
            observer,
        );
        guard.armed = result.is_err();
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn evaluate_placement_inner(
        &self,
        index: usize,
        matrix: &ParallelismMatrix,
        model: &Arc<dyn CostModel>,
        shared: Option<&Arc<SharedTables>>,
        memo: Option<&Arc<MemoBank>>,
        measure_programs: bool,
        observer: &dyn RunObserver,
    ) -> Result<PlacementEvaluation, P2Error> {
        // Each placement job builds its own executor, so jobs spawned onto a
        // shared batch scheduler borrow nothing but the session itself; its
        // step memo lives exactly as long as this placement's evaluation.
        let executor = Executor::new(&self.config.system, self.exec_config())?;
        let bound_seed = observer.on_placement_start(index, matrix);
        let mut synthesizer = Synthesizer::new(
            matrix.clone(),
            self.config.reduction_axes.clone(),
            self.config.hierarchy_kind,
        )?;
        if let Some(tables) = shared {
            synthesizer = synthesizer.with_shared_tables(Arc::clone(tables));
        }
        if let Some(bank) = memo {
            synthesizer = synthesizer.with_memo_bank(Arc::clone(bank));
        }
        if self.config.parallel_build {
            // Placement jobs already run on the sweep pool, so the build
            // recruits the pool's idle workers rather than spawning its own.
            synthesizer = synthesizer.with_build_threads(self.config.threads);
        }
        let baseline = baseline_allreduce(matrix, &self.config.reduction_axes)?;
        let allreduce_predicted = model.program_time(&baseline);
        let allreduce_measured = executor.measure(&baseline);

        let keep_top = self.config.keep_top;
        let prune_slack = self.config.prune_slack;
        let prune = keep_top.is_some() || bound_seed.is_some();
        let mut step_times = StepTimes::new(model.as_ref());
        let mut programs: Vec<ProgramEvaluation> = Vec::new();
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut num_programs = 0usize;
        let mut seq = 0usize;
        // The pruning bound tracks the best prediction seen in this placement,
        // seeded by the AllReduce baseline the sweep always evaluates anyway —
        // tightened up front by the observer's cross-placement bound when one
        // is supplied. Either way the bound is fixed before the stream starts
        // and then only shrinks with this placement's own predictions, so the
        // sweep stays bit-identical across worker-thread counts.
        let mut best_predicted = allreduce_predicted;
        if let Some(seed) = bound_seed {
            best_predicted = best_predicted.min(seed);
        }
        // Evaluation work (costing, measuring) is interleaved with the search
        // on the stream, and so is lowering each distinct step; subtracting
        // both from the pass's wall-clock keeps `synthesis_time` meaning what
        // the paper's tables report.
        let mut evaluation_time = std::time::Duration::ZERO;

        let start = Instant::now();
        let stats = synthesizer.for_each_lowered(
            self.config.max_program_size,
            |emitted: &EmittedProgram<'_>| {
                let eval_start = Instant::now();
                num_programs += 1;
                let program = emitted.program;
                // Exhaustive mode (the default) evaluates and retains every
                // program. Pruned mode costs the prefix against the bound; the
                // bound lives in the *predicted* domain, so the heap's worst
                // retained time may only tighten it in predict-first modes,
                // where ranking time and prediction coincide.
                let mut bound = f64::INFINITY;
                if prune {
                    bound = best_predicted * (1.0 + prune_slack);
                    if let Some(k) = keep_top {
                        if !measure_programs && heap.len() == k {
                            if let Some(worst) = heap.peek() {
                                bound = bound.min(worst.measured);
                            }
                        }
                    }
                }
                if let Some(predicted) = step_times.program_time(emitted, bound) {
                    if prune {
                        best_predicted = best_predicted.min(predicted);
                    }
                    // Steps are cloned out of the table only for programs
                    // that are measured or kept.
                    let measured_lowered = measure_programs.then(|| emitted.to_lowered());
                    let measured = measured_lowered
                        .as_ref()
                        .map_or(predicted, |lowered| executor.measure(lowered));
                    let lowered = || measured_lowered.unwrap_or_else(|| emitted.to_lowered());
                    match keep_top {
                        // No retention limit: keep every survivor.
                        None => {
                            observer.on_program_retained(index, program, predicted, measured);
                            programs.push(ProgramEvaluation {
                                program: program.clone(),
                                lowered: lowered(),
                                predicted_seconds: predicted,
                                measured_seconds: measured,
                            });
                        }
                        Some(k) => {
                            let rank = (measured, seq);
                            seq += 1;
                            let admitted = heap.len() < k
                                || heap.peek().is_some_and(|worst| rank < worst.rank());
                            if admitted {
                                observer.on_program_retained(index, program, predicted, measured);
                                if heap.len() == k {
                                    heap.pop();
                                }
                                heap.push(HeapEntry {
                                    predicted,
                                    measured,
                                    seq: rank.1,
                                    program: program.clone(),
                                    lowered: lowered(),
                                });
                            }
                        }
                    }
                }
                evaluation_time += eval_start.elapsed();
                SinkControl::Continue
            },
        )?;
        let synthesis_time = start
            .elapsed()
            .saturating_sub(evaluation_time)
            .saturating_sub(stats.lower_duration);
        debug_assert_eq!(stats.programs_emitted, num_programs);

        if keep_top.is_some() {
            let mut entries = heap.into_vec();
            entries.sort();
            programs = entries
                .into_iter()
                .map(|entry| ProgramEvaluation {
                    program: entry.program,
                    lowered: entry.lowered,
                    predicted_seconds: entry.predicted,
                    measured_seconds: entry.measured,
                })
                .collect();
        }
        programs.sort_by(|a, b| a.measured_seconds.total_cmp(&b.measured_seconds));

        let evaluation = PlacementEvaluation {
            matrix: matrix.clone(),
            synthesis_time,
            num_programs,
            programs_pruned: num_programs - programs.len(),
            programs_retained: programs.len(),
            states_explored: stats.states_explored,
            unique_device_states: stats.unique_device_states,
            suffix_memo_hits: stats.suffix_memo_hits,
            suffix_memo_misses: stats.suffix_memo_misses,
            suffix_memo_preloaded: stats.suffix_memo_preloaded,
            shared_states_reused: stats.shared_states_reused,
            allreduce_predicted,
            allreduce_measured,
            programs,
        };
        observer.on_placement_done(index, &evaluation);
        Ok(evaluation)
    }

    /// Returns the session with its synthesis hash-consing tables replaced by
    /// caller-supplied ones, extending state interning and collective-apply
    /// memoization across every session sharing the `tables`.
    ///
    /// Sharing is result-invisible — programs, predictions, measurements and
    /// the deterministic per-placement statistics are bit-identical — with one
    /// reporting exception: a session running on external tables reports
    /// [`ExperimentResult::shared_unique_device_states`] as `None`, because
    /// the tables' *final* size is only known once every sharing session has
    /// finished (mid-batch it would depend on the steal schedule). Batch
    /// drivers fill the field in afterwards.
    pub fn with_shared_tables(mut self, tables: Arc<SharedTables>) -> Self {
        self.config.shared_tables = Some(tables);
        self
    }

    /// Returns the session with its suffix-memo bank replaced by a
    /// caller-supplied one, extending completion-count memoization across
    /// every session sharing the bank (see [`P2Config::shared_memo`]).
    /// Result-invisible, like [`P2::with_shared_tables`]; a session holding
    /// an external bank leaves snapshot persistence to whoever owns it.
    pub fn with_shared_memo(mut self, bank: Arc<MemoBank>) -> Self {
        self.config.shared_memo = Some(bank);
        self
    }
}

/// A sweep whose placement-evaluation jobs have been submitted to a
/// [`Scheduler`] by [`P2::spawn_sweep`] but not yet joined.
///
/// Dropping a `PendingSweep` does not cancel its jobs — they drain on the
/// pool (their observer events still fire, releasing any shared-bound
/// waiters); only their results are discarded.
pub struct PendingSweep<'env> {
    session: &'env P2,
    handles: Vec<JobHandle<Result<PlacementEvaluation, P2Error>>>,
    shared: Option<Arc<SharedTables>>,
    external_tables: bool,
    memo: Option<Arc<MemoBank>>,
    store: Option<(TableStore, p2_hash::Fingerprint, TableStoreStats)>,
}

impl<'env> PendingSweep<'env> {
    /// Number of placement jobs in flight.
    pub fn placements(&self) -> usize {
        self.handles.len()
    }

    /// Joins every placement job in production order, assembles the
    /// [`ExperimentResult`], and — for [`RunMode::Shortlist`] sessions — runs
    /// the shortlist measurements as jobs on the same `scheduler`.
    ///
    /// Joining in production order is what keeps batch results bit-identical:
    /// placements land in the result exactly where the serial pipeline puts
    /// them, whatever order the pool actually finished them in.
    ///
    /// # Errors
    ///
    /// Returns the first (in production order) placement error; remaining
    /// jobs drain in the background. Panics inside jobs are re-raised here.
    pub fn collect(self, scheduler: &Scheduler<'_, 'env>) -> Result<ExperimentResult, P2Error> {
        let PendingSweep {
            session,
            handles,
            shared,
            external_tables,
            memo,
            store,
        } = self;
        let mut placements = Vec::with_capacity(handles.len());
        let mut total_synthesis = std::time::Duration::ZERO;
        for handle in handles {
            let placement = handle.join()?;
            total_synthesis += placement.synthesis_time;
            placements.push(placement);
        }
        let mut result = ExperimentResult {
            label: session.config.label(),
            parallelism_axes: session.config.parallelism_axes.clone(),
            reduction_axes: session.config.reduction_axes.clone(),
            placements,
            synthesis_time: total_synthesis,
            // External tables are still growing while other sessions of the
            // batch run; their final (deterministic, set-union) size is only
            // known to the batch driver, which stamps it afterwards.
            shared_unique_device_states: if external_tables {
                None
            } else {
                shared.as_ref().map(|tables| tables.num_states())
            },
            table_store: None,
        };
        // Snapshot-after-run: the sweep has drained, so the tables and bank
        // hold their final (deterministic) content. A failed save is
        // telemetry, not an error — the results are already in hand.
        if let Some((store, key, mut stats)) = store {
            let bank = memo.as_ref().expect("store implies a bank");
            let started = Instant::now();
            let snapshot = TableSnapshot::capture(shared.as_deref(), bank);
            stats.saved_states = snapshot.states.len();
            stats.saved_apply_entries = snapshot.apply.len();
            stats.saved_memo_slabs = snapshot.memo.len();
            stats.saved = !snapshot.is_empty() && store.save(key, &snapshot).is_ok();
            stats.save_micros = started.elapsed().as_micros() as u64;
            stats.seeded_searches = bank.seeded_searches();
            stats.seeded_entries = bank.seeded_entries();
            result.table_store = Some(stats);
        }
        if let RunMode::Shortlist(n) = session.mode {
            session.measure_shortlist_on(scheduler, &mut result, n)?;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_cost::NcclAlgo;
    use p2_topology::presets;

    /// A small configuration that exercises the whole pipeline quickly.
    fn small_config() -> P2Config {
        P2Config::new(presets::a100_system(2), vec![8, 4], vec![0])
            .with_bytes_per_device(1.0e9)
            .with_repeats(2)
    }

    /// The same experiment through the new builder API.
    fn small_builder() -> P2Builder {
        P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
            .bytes_per_device(1.0e9)
            .repeats(2)
    }

    #[test]
    fn pipeline_produces_consistent_results() {
        let result = small_builder().run().unwrap();
        assert!(!result.placements.is_empty());
        for pl in &result.placements {
            assert!(pl.num_programs >= 1);
            assert_eq!(pl.num_programs, pl.programs.len());
            assert!(pl.allreduce_measured > 0.0 && pl.allreduce_predicted > 0.0);
            // Programs are sorted by measured time.
            assert!(pl
                .programs
                .windows(2)
                .all(|w| w[0].measured_seconds <= w[1].measured_seconds));
            // Every synthesized set contains the plain AllReduce.
            assert!(pl.programs.iter().any(|p| p.signature() == "AllReduce"));
            for p in &pl.programs {
                assert!(p.predicted_seconds > 0.0 && p.measured_seconds > 0.0);
                assert!(p.lowered.groups_are_disjoint());
            }
        }
        assert!(result.total_programs() > 0);
        assert!(result.best_overall().is_some());
    }

    #[test]
    fn builder_session_matches_config_session() {
        let from_config = P2::new(small_config()).unwrap().run().unwrap();
        let from_builder = small_builder().run().unwrap();
        assert_eq!(from_config.label, from_builder.label);
        assert_eq!(from_config.placements.len(), from_builder.placements.len());
        for (a, b) in from_config.placements.iter().zip(&from_builder.placements) {
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.allreduce_measured, b.allreduce_measured);
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.signature(), pb.signature());
                assert_eq!(pa.measured_seconds, pb.measured_seconds);
            }
        }
    }

    #[test]
    fn cross_node_placements_benefit_from_synthesis() {
        // Result 5 of the paper, end to end: for the placement that forces
        // cross-node reduction, some synthesized program beats AllReduce.
        let result = small_builder().run().unwrap();
        let cross_node = result
            .placements
            .iter()
            .max_by(|a, b| a.allreduce_measured.total_cmp(&b.allreduce_measured))
            .unwrap();
        assert!(
            cross_node.programs_beating_allreduce() > 0,
            "expected a synthesized program to beat AllReduce for {}",
            cross_node.matrix
        );
        assert!(cross_node.speedup() > 1.05);
    }

    #[test]
    fn shortlist_run_measures_only_the_best_predictions() {
        let full = small_builder().run().unwrap();
        let shortlisted = small_builder().mode(RunMode::Shortlist(10)).run().unwrap();
        assert_eq!(full.total_programs(), shortlisted.total_programs());
        // Exactly `shortlist` programs carry a real measurement (measured !=
        // predicted is not guaranteed under zero noise, so count programs whose
        // measurement differs from the prediction plus those that happen to
        // coincide is fragile; instead check the chosen optimum agrees with the
        // full run within the noise envelope).
        let full_best = full.best_overall().unwrap().measured_seconds;
        let short_best = shortlisted.best_overall().unwrap().measured_seconds;
        assert!(
            (full_best - short_best).abs() / full_best < 0.2,
            "shortlist optimum {short_best} too far from full optimum {full_best}"
        );
        // Unmeasured programs report their prediction.
        let some_unmeasured = shortlisted
            .placements
            .iter()
            .flat_map(|p| &p.programs)
            .filter(|p| (p.measured_seconds - p.predicted_seconds).abs() < f64::EPSILON)
            .count();
        assert!(some_unmeasured >= shortlisted.total_programs().saturating_sub(10));
    }

    #[test]
    fn predict_only_reports_predictions_as_measurements() {
        let predicted = small_builder().mode(RunMode::PredictOnly).run().unwrap();
        assert!(predicted.total_programs() > 0);
        for pl in &predicted.placements {
            // The AllReduce baseline is still measured.
            assert!(pl.allreduce_measured > 0.0);
            for p in &pl.programs {
                assert_eq!(p.measured_seconds, p.predicted_seconds);
            }
        }
    }

    #[test]
    fn keep_top_bounds_retention_and_preserves_the_best_program() {
        let unbounded = small_builder().run().unwrap();
        let best = unbounded.best_overall().unwrap();
        for k in [1usize, 2, 5] {
            let bounded = small_builder().keep_top(k).run().unwrap();
            // Same synthesis space, strictly bounded retention.
            assert_eq!(bounded.total_programs(), unbounded.total_programs());
            assert!(bounded.total_programs_retained() < unbounded.total_programs_retained());
            assert!(bounded.total_programs_pruned() > 0);
            for pl in &bounded.placements {
                assert!(pl.programs.len() <= k);
                assert_eq!(pl.programs_retained, pl.programs.len());
                assert_eq!(pl.programs_pruned + pl.programs_retained, pl.num_programs);
                // Retained predictions are the placement's best k.
                for p in &pl.programs {
                    assert!(p.predicted_seconds.is_finite());
                }
            }
            // The overall winner survives any retention bound (with the
            // default slack) and its measurement is bit-identical.
            let bounded_best = bounded.best_overall().unwrap();
            assert_eq!(bounded_best.signature(), best.signature());
            assert_eq!(bounded_best.measured_seconds, best.measured_seconds);
        }
    }

    #[test]
    fn with_mode_matches_the_builder_mode() {
        // The two ways to select a run mode — builder `.mode(...)` and
        // `P2::new(config).with_mode(...)` — are one code path. (These pins
        // belonged to the `run_with_shortlist` shim until its removal.)
        let via_mode = small_builder().mode(RunMode::Shortlist(5)).run().unwrap();
        let via_with_mode = P2::new(small_config())
            .unwrap()
            .with_mode(RunMode::Shortlist(5))
            .run()
            .unwrap();
        assert_eq!(via_mode.placements.len(), via_with_mode.placements.len());
        for (a, b) in via_mode.placements.iter().zip(&via_with_mode.placements) {
            assert_eq!(a.matrix, b.matrix);
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.signature(), pb.signature());
                assert_eq!(pa.predicted_seconds, pb.predicted_seconds);
                assert_eq!(pa.measured_seconds, pb.measured_seconds);
            }
        }
    }

    #[test]
    fn zero_length_shortlist_is_rejected_consistently() {
        // Both session entry points refuse Shortlist(0) instead of silently
        // degrading to a predict-only run — callers who want that spell it
        // RunMode::PredictOnly.
        assert!(small_builder().mode(RunMode::Shortlist(0)).run().is_err());
        assert!(P2::new(small_config())
            .unwrap()
            .with_mode(RunMode::Shortlist(0))
            .run()
            .is_err());
        let old = P2::new(small_config())
            .unwrap()
            .with_mode(RunMode::PredictOnly)
            .run()
            .unwrap();
        let predict_only = small_builder().mode(RunMode::PredictOnly).run().unwrap();
        assert_eq!(old.total_programs(), predict_only.total_programs());
        for (a, b) in old.placements.iter().zip(&predict_only.placements) {
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.measured_seconds, pb.measured_seconds);
                assert_eq!(pa.measured_seconds, pa.predicted_seconds);
            }
        }
    }

    #[test]
    fn streaming_placements_match_the_materialized_list() {
        let session = small_builder().build().unwrap();
        let materialized = session.placements().unwrap();
        let mut streamed = Vec::new();
        let emitted = session
            .for_each_placement(&mut |m: &ParallelismMatrix| {
                streamed.push(m.clone());
                MatrixControl::Continue
            })
            .unwrap();
        assert_eq!(emitted, materialized.len());
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let bad = P2Config::new(presets::a100_system(2), vec![7], vec![0]);
        assert!(P2::new(bad).is_err());
    }

    #[test]
    fn tree_and_ring_runs_both_work() {
        for algo in NcclAlgo::ALL {
            let result = small_builder().algo(algo).run().unwrap();
            assert!(result.total_programs() > 0);
        }
    }

    fn assert_same_numbers(a: &ExperimentResult, b: &ExperimentResult) {
        assert_eq!(a.placements.len(), b.placements.len());
        for (pa, pb) in a.placements.iter().zip(&b.placements) {
            assert_eq!(pa.matrix, pb.matrix);
            assert_eq!(pa.allreduce_predicted, pb.allreduce_predicted);
            assert_eq!(pa.allreduce_measured, pb.allreduce_measured);
            assert_eq!(pa.programs_retained, pb.programs_retained);
            for (qa, qb) in pa.programs.iter().zip(&pb.programs) {
                assert_eq!(qa.signature(), qb.signature());
                assert_eq!(qa.predicted_seconds, qb.predicted_seconds);
                assert_eq!(qa.measured_seconds, qb.measured_seconds);
            }
        }
    }

    #[test]
    fn cost_cache_never_changes_results() {
        let cached = small_builder().cost_cache(true).run().unwrap();
        let uncached = small_builder().cost_cache(false).run().unwrap();
        assert_same_numbers(&cached, &uncached);
        // Also under bounded retention, where predictions steer pruning.
        let cached = small_builder().keep_top(3).cost_cache(true).run().unwrap();
        let uncached = small_builder().keep_top(3).cost_cache(false).run().unwrap();
        assert_same_numbers(&cached, &uncached);
    }

    #[test]
    fn table_store_warm_start_is_result_invisible() {
        let dir = std::env::temp_dir().join(format!(
            "p2-pipeline-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = small_builder().run().unwrap();
        assert!(plain.table_store.is_none());
        // Cold run: nothing to load, snapshot written.
        let cold = small_builder().table_store_dir(&dir).run().unwrap();
        let cold_stats = cold.table_store.as_ref().unwrap();
        assert!(!cold_stats.loaded);
        assert!(cold_stats.saved);
        assert!(cold_stats.saved_states > 0);
        assert!(cold_stats.saved_memo_slabs > 0);
        assert_eq!(cold_stats.seeded_searches, 0);
        // Warm run: snapshot adopted, every placement's search seeded.
        let warm = small_builder().table_store_dir(&dir).run().unwrap();
        let warm_stats = warm.table_store.as_ref().unwrap();
        assert!(warm_stats.loaded);
        assert_eq!(warm_stats.table_key, cold_stats.table_key);
        assert_eq!(warm_stats.warm_states, cold_stats.saved_states);
        assert!(warm_stats.seeded_searches > 0);
        assert!(warm.placements.iter().any(|p| p.suffix_memo_preloaded > 0));
        // Warm-starting changes no result bit.
        assert_same_numbers(&plain, &cold);
        assert_same_numbers(&cold, &warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_alpha_beta_kind_matches_the_default_model_bit_for_bit() {
        use p2_cost::CostModelKind;
        let implicit = small_builder().run().unwrap();
        let explicit = small_builder()
            .cost_model_kind(CostModelKind::AlphaBeta)
            .run()
            .unwrap();
        assert_same_numbers(&implicit, &explicit);
    }

    #[test]
    fn every_cost_model_kind_runs_end_to_end() {
        use p2_cost::CostModelKind;
        for kind in CostModelKind::ALL {
            let result = small_builder()
                .cost_model_kind(kind)
                .mode(RunMode::Shortlist(5))
                .run()
                .unwrap();
            assert!(result.total_programs() > 0, "{kind}: no programs");
            assert!(result.best_overall().is_some(), "{kind}: no best program");
            for pl in &result.placements {
                for p in &pl.programs {
                    assert!(
                        p.predicted_seconds.is_finite() && p.predicted_seconds >= 0.0,
                        "{kind}: bad prediction {}",
                        p.predicted_seconds
                    );
                }
            }
        }
    }
}
