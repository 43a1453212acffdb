//! The layer-by-layer replay of one session: serially re-runs, through the
//! layers' public functions, what the pipeline does per placement — the
//! AllReduce baseline, then search, lowering, prediction and measurement
//! (every program or the shortlist, by run mode) — with a span around each
//! call. Its rows must equal the pipeline's; that equality is what lets this
//! outside replay stand for the layers inside the pipeline.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use p2_collectives::SharedTables;
use p2_core::{RunMode, P2};
use p2_cost::{AlphaBetaModel, CachedCostModel, CostAccumulator, CostModel};
use p2_exec::{ExecConfig, Executor};
use p2_placement::enumerate_matrices;
use p2_synthesis::{baseline_allreduce, LoweredProgram, Program, SinkControl, Synthesizer};

use crate::rows::{PlacementRow, ProgramRow};
use crate::trace::Tracer;

/// Deterministic work counts and phase durations gathered by the replay.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    /// Placements enumerated.
    pub placements: u64,
    /// Synthesis states expanded.
    pub states_explored: u64,
    /// Programs the searches emitted.
    pub programs_emitted: u64,
    /// DAG-build wall-clock, summed over searches.
    pub build_s: f64,
    /// Emission-phase wall-clock (sink work included), summed over searches.
    pub emit_s: f64,
    /// Suffix-memo lookups answered from the memo.
    pub memo_hits: u64,
    /// Suffix-memo entries computed.
    pub memo_misses: u64,
    /// Collective applications answered from the apply cache.
    pub apply_hits: u64,
    /// Collective applications that ran the semantics.
    pub apply_misses: u64,
    /// Distinct device states, summed over placements.
    pub unique_device_states: u64,
    /// Step times answered by the per-placement cost cache.
    pub cost_hits: u64,
    /// Step times the cost cache computed.
    pub cost_misses: u64,
    /// Programs kept as evaluations.
    pub retained: u64,
    /// Programs pruned or displaced.
    pub pruned: u64,
}

struct Evaluation {
    program: Program,
    lowered: LoweredProgram,
    predicted: f64,
    measured: f64,
}

/// A top-K heap entry, ordered exactly as the pipeline orders its own: the
/// heap's maximum is the worst retained program (highest measured time,
/// then latest arrival).
struct HeapEntry {
    eval: Evaluation,
    seq: usize,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.eval
            .measured
            .total_cmp(&other.eval.measured)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

struct PlacementOut {
    row: PlacementRow,
    evaluations: Vec<Evaluation>,
}

/// Replays `session` serially, recording spans tagged with `request`, and
/// returns its rows in the pipeline's shape.
pub fn replay_session(
    session: &P2,
    tracer: &mut Tracer,
    request: u64,
    counters: &mut LayerCounters,
) -> Result<Vec<PlacementRow>, String> {
    let config = session.config();
    let model: Arc<dyn CostModel> = match &config.cost_model {
        Some(model) => Arc::clone(model),
        None => Arc::new(
            AlphaBetaModel::new(config.system.clone(), config.algo, config.bytes_per_device)
                .map_err(|e| e.to_string())?,
        ),
    };
    let exec = ExecConfig::new(config.algo, config.bytes_per_device)
        .with_noise(config.noise_fraction)
        .with_seed(config.seed)
        .with_repeats(config.repeats);
    let executor = Executor::new(&config.system, exec).map_err(|e| e.to_string())?;
    let tables = config.shared_intern.then(|| Arc::new(SharedTables::new()));
    let arities = config.system.hierarchy().arities();
    let matrices = tracer
        .span("placement.enumerate", request, || {
            enumerate_matrices(&arities, &config.parallelism_axes)
        })
        .map_err(|e| e.to_string())?;
    counters.placements += matrices.len() as u64;

    let measure_programs = matches!(session.mode(), RunMode::Measure);
    let mut placements = Vec::with_capacity(matrices.len());
    for matrix in &matrices {
        let mut synthesizer = Synthesizer::new(
            matrix.clone(),
            config.reduction_axes.clone(),
            config.hierarchy_kind,
        )
        .map_err(|e| e.to_string())?;
        if let Some(tables) = &tables {
            synthesizer = synthesizer.with_shared_tables(Arc::clone(tables));
        }
        let cache = CachedCostModel::new(Arc::clone(&model));
        let cost: &dyn CostModel = if config.cost_cache {
            &cache
        } else {
            model.as_ref()
        };
        let baseline =
            baseline_allreduce(matrix, &config.reduction_axes).map_err(|e| e.to_string())?;
        let allreduce_predicted =
            tracer.span("cost.predict", request, || cost.program_time(&baseline));
        let allreduce_measured =
            tracer.span("exec.measure", request, || executor.measure(&baseline));

        let keep_top = config.keep_top;
        let prune_slack = config.prune_slack;
        let mut best_predicted = allreduce_predicted;
        let mut evaluations: Vec<Evaluation> = Vec::new();
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        let mut seq = 0usize;
        let mut emitted = 0usize;
        let mut lower_error: Option<String> = None;

        tracer.begin("synthesis.search", request);
        let stats =
            synthesizer.for_each_program(config.max_program_size, &mut |program: &Program| {
                emitted += 1;
                let lowered =
                    match tracer.span("synthesis.lower", request, || synthesizer.lower(program)) {
                        Ok(lowered) => lowered,
                        Err(e) => {
                            lower_error = Some(e.to_string());
                            return SinkControl::Stop;
                        }
                    };
                let Some(k) = keep_top else {
                    let predicted =
                        tracer.span("cost.predict", request, || cost.program_time(&lowered));
                    let measured = if measure_programs {
                        tracer.span("exec.measure", request, || executor.measure(&lowered))
                    } else {
                        predicted
                    };
                    evaluations.push(Evaluation {
                        program: program.clone(),
                        lowered,
                        predicted,
                        measured,
                    });
                    return SinkControl::Continue;
                };
                // Bounded retention: prefix-cost against the bound, as the
                // pipeline does, and keep a top-K heap by measured time.
                let mut bound = best_predicted * (1.0 + prune_slack);
                if !measure_programs && heap.len() == k {
                    if let Some(worst) = heap.peek() {
                        bound = bound.min(worst.eval.measured);
                    }
                }
                let predicted = tracer.span("cost.predict", request, || {
                    let mut acc = CostAccumulator::new(cost);
                    for step in &lowered.steps {
                        acc.push(step);
                        if acc.exceeds(bound) {
                            return None;
                        }
                    }
                    Some(acc.seconds())
                });
                let Some(predicted) = predicted else {
                    return SinkControl::Continue;
                };
                best_predicted = best_predicted.min(predicted);
                let measured = if measure_programs {
                    tracer.span("exec.measure", request, || executor.measure(&lowered))
                } else {
                    predicted
                };
                let entry = HeapEntry {
                    eval: Evaluation {
                        program: program.clone(),
                        lowered,
                        predicted,
                        measured,
                    },
                    seq,
                };
                seq += 1;
                if heap.len() < k {
                    heap.push(entry);
                } else if heap
                    .peek()
                    .is_some_and(|worst| entry.cmp(worst) == Ordering::Less)
                {
                    heap.pop();
                    heap.push(entry);
                }
                SinkControl::Continue
            });
        tracer.end();
        if let Some(e) = lower_error {
            return Err(e);
        }
        if keep_top.is_some() {
            let mut entries = heap.into_vec();
            entries.sort();
            evaluations = entries.into_iter().map(|entry| entry.eval).collect();
        }
        evaluations.sort_by(|a, b| a.measured.total_cmp(&b.measured));

        let cache_stats = cache.stats();
        counters.cost_hits += cache_stats.hits;
        counters.cost_misses += cache_stats.misses;
        counters.states_explored += stats.states_explored as u64;
        counters.programs_emitted += stats.programs_emitted as u64;
        counters.build_s += stats.build_duration.as_secs_f64();
        counters.emit_s += stats.emit_duration.as_secs_f64();
        counters.memo_hits += stats.suffix_memo_hits as u64;
        counters.memo_misses += stats.suffix_memo_misses as u64;
        counters.apply_hits += stats.apply_cache_hits as u64;
        counters.apply_misses += stats.apply_cache_misses as u64;
        counters.unique_device_states += stats.unique_device_states as u64;
        counters.retained += evaluations.len() as u64;
        counters.pruned += (emitted - evaluations.len()) as u64;

        placements.push(PlacementOut {
            row: PlacementRow {
                matrix: matrix.to_string(),
                programs_emitted: emitted,
                retained: evaluations.len(),
                pruned: emitted - evaluations.len(),
                states_explored: stats.states_explored,
                unique_device_states: stats.unique_device_states,
                allreduce_predicted: allreduce_predicted.to_bits(),
                allreduce_measured: allreduce_measured.to_bits(),
                programs: Vec::new(),
            },
            evaluations,
        });
    }

    if let RunMode::Shortlist(n) = session.mode() {
        // Measure the globally best `n` predictions, then re-rank every
        // placement by measured time.
        let mut order: Vec<(usize, usize, f64)> = placements
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| {
                p.evaluations
                    .iter()
                    .enumerate()
                    .map(move |(qi, e)| (pi, qi, e.predicted))
            })
            .collect();
        order.sort_by(|a, b| a.2.total_cmp(&b.2));
        for &(pi, qi, _) in order.iter().take(n) {
            let lowered = &placements[pi].evaluations[qi].lowered;
            let measured = tracer.span("exec.measure", request, || executor.measure(lowered));
            placements[pi].evaluations[qi].measured = measured;
        }
        for placement in &mut placements {
            placement
                .evaluations
                .sort_by(|a, b| a.measured.total_cmp(&b.measured));
        }
    }

    Ok(placements
        .into_iter()
        .map(|mut p| {
            p.row.programs = p
                .evaluations
                .iter()
                .map(|e| ProgramRow {
                    signature: e.lowered.signature(),
                    program: e.program.to_string(),
                    predicted: e.predicted.to_bits(),
                    measured: e.measured.to_bits(),
                })
                .collect();
            p.row
        })
        .collect())
}
