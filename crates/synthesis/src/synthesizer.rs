//! Syntax-guided enumerative synthesis of reduction programs (paper §3.5).
//!
//! The search engine is *streaming*: [`Synthesizer::for_each_program`] walks a
//! memoized search DAG over interned synthesis states and emits each valid
//! program exactly once, shortest first, without ever materializing the full
//! program set. [`Synthesizer::for_each_lowered`] is the same walk with each
//! program's steps lowered once per distinct DAG edge step.
//! [`Synthesizer::synthesize`] is a thin collecting wrapper for callers that
//! do want the whole set.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2_collectives::{apply_to_groups, Collective, FxHashMap, SharedTables, State};
use p2_placement::ParallelismMatrix;

use crate::context::SynthesisContext;
use crate::dsl::{Form, Instruction, Program};
use crate::error::SynthesisError;
use crate::hierarchy::HierarchyKind;
use crate::lowered::{LoweredProgram, LoweredStep};
use crate::steps::{Candidate, EmittedProgram, StepTable};

/// A `HashSet` through the same hasher as [`FxHashMap`].
type FxHashSet<T> = HashSet<T, std::hash::BuildHasherDefault<p2_collectives::FxHasher>>;

/// Statistics about one synthesis run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthesisStats {
    /// Distinct synthesis-space states expanded during the search, counted
    /// incrementally as each state is first reached (never by a post-hoc scan).
    pub states_explored: usize,
    /// Candidate instructions whose semantics was evaluated; every distinct
    /// state expands each candidate exactly once.
    pub instructions_tried: usize,
    /// Distinct candidate instructions available per state (after group
    /// deduplication).
    pub candidate_instructions: usize,
    /// Programs handed to the sink (equals the program count unless the sink
    /// stopped the enumeration early).
    pub programs_emitted: usize,
    /// Distinct device states this search interned: initial, goal and every
    /// successful application output, however many other states its
    /// [`SharedTables`] hold. Zero on the reference (no-interning) path.
    pub unique_device_states: usize,
    /// Collective applications answered from the transposition cache without
    /// running the semantics. Zero on the reference path.
    pub apply_cache_hits: usize,
    /// Collective applications that ran the semantics and were then memoized.
    /// Zero on the reference path.
    pub apply_cache_misses: usize,
    /// Suffix-memo entries answered without recomputation during emission:
    /// `(state, remaining budget)` pairs whose completion count was already
    /// known. Zero on the reference path, which walks every suffix.
    pub suffix_memo_hits: usize,
    /// Suffix-memo entries computed for the first time (the number of
    /// distinct `(state, budget)` pairs the emission actually touched).
    pub suffix_memo_misses: usize,
    /// Device states this search observed that were already present in a
    /// sweep-shared [`SharedTables`] (interned by another placement, or by an
    /// earlier search over the same tables). Zero without shared tables; under
    /// a parallel sweep the split between "reused" and "added" depends on
    /// worker interleaving, though their sum (`unique_device_states`) does not.
    pub shared_states_reused: usize,
    /// Distinct device states whose goal-compatibility row was computed by
    /// the build's lazy `respects` table. Deterministic for any thread count,
    /// and bounded by the states *this* search touches — never by the size of
    /// a shared or warm-started interner.
    pub goal_respects_entries: usize,
    /// Wall-clock time of candidate-instruction generation (derivation,
    /// deduplication and the display-order sort).
    pub candidate_duration: Duration,
    /// Wall-clock time of the state-graph construction (exploration) phase.
    pub build_duration: Duration,
    /// Wall-clock time of the emission (or counting) phase.
    pub emit_duration: Duration,
    /// Distinct step layouts in the search's step table. Each distinct
    /// `(candidate, participant device states)` edge key the lowered
    /// emission or the best-cost DP reached is lowered once, and keys that
    /// lower to the same layout share one entry. Zero when nothing is
    /// lowered.
    pub lowered_steps: usize,
    /// Wall-clock time spent lowering the edge keys (part of
    /// `emit_duration`). Callers that report search time alone subtract it.
    pub lower_duration: Duration,
    /// Wall-clock time of the search.
    pub duration: Duration,
}

/// The outcome of a synthesis run: every semantically valid program that
/// implements the requested reduction within the size limit, sorted by size.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// All synthesized programs, shortest first.
    pub programs: Vec<Program>,
    /// Search statistics.
    pub stats: SynthesisStats,
}

impl SynthesisResult {
    /// The number of synthesized programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether no program was found.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

/// Whether the synthesizer should keep streaming programs into a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkControl {
    /// Keep enumerating.
    Continue,
    /// Stop the enumeration; [`Synthesizer::for_each_program`] returns with
    /// the statistics gathered so far.
    Stop,
}

/// A visitor receiving synthesized programs one at a time (the worklist idiom
/// of enumerative synthesis engines): the streaming counterpart of collecting
/// a [`SynthesisResult`].
///
/// Any `FnMut(&Program) -> SinkControl` closure is a sink.
pub trait ProgramSink {
    /// Called once per valid program, in the same order `synthesize` sorts:
    /// shorter programs first, ties in display order. The reference is only
    /// valid for the duration of the call — clone the program to keep it.
    fn accept(&mut self, program: &Program) -> SinkControl;
}

impl<F: FnMut(&Program) -> SinkControl> ProgramSink for F {
    fn accept(&mut self, program: &Program) -> SinkControl {
        self(program)
    }
}

/// The memoized search DAG: every reachable synthesis state interned to a
/// dense id, each expanded once. Memory is `O(states × candidates)` — the
/// program *set* (worst-case exponential in the state count) is never stored.
struct SearchGraph {
    /// Per state: valid `(candidate index, successor id)` edges in candidate
    /// order, or `None` for frontier states that were never expanded (reached
    /// only at the maximum depth).
    edges: Vec<Option<Vec<(usize, usize)>>>,
    /// Whether each state is the goal (the goal is absorbing: programs end
    /// there and never extend past it).
    is_goal: Vec<bool>,
}

impl SearchGraph {
    /// Number of synthesis states in the graph.
    fn len(&self) -> usize {
        self.is_goal.len()
    }
}

/// The suffix memo at the heart of the memoized emission: for every
/// `(synthesis state, remaining budget)` pair, the number of goal-reaching
/// paths of *exactly* that many further instructions. Shared DAG suffixes are
/// thereby counted once, no matter how many prefixes reach them, and
/// `completions(next, remaining) == 0` is an exact (not merely admissible)
/// emission prune: every edge the DFS descends leads to at least one emitted
/// program.
struct SuffixMemo {
    /// Row-major `[state][budget]` table; [`SuffixMemo::UNKNOWN`] marks
    /// entries not yet computed. Counts saturate just below the sentinel.
    counts: Vec<u64>,
    width: usize,
    hits: usize,
    misses: usize,
}

impl SuffixMemo {
    /// The sentinel of an entry not yet computed.
    const UNKNOWN: u64 = u64::MAX;

    fn new(num_states: usize, max_size: usize) -> Self {
        let width = max_size + 1;
        SuffixMemo {
            counts: vec![Self::UNKNOWN; num_states * width],
            width,
            hits: 0,
            misses: 0,
        }
    }

    /// The number of goal-reaching paths of exactly `budget` instructions
    /// from `id`, memoized. Recursion is bounded by `budget` (≤ the synthesis
    /// size limit): budgets strictly decrease along edges, so cycles in the
    /// search graph (e.g. a ReduceScatter later undone by an AllGather)
    /// terminate like any other path.
    fn completions(&mut self, graph: &SearchGraph, id: usize, budget: usize) -> u64 {
        let slot = id * self.width + budget;
        if self.counts[slot] != Self::UNKNOWN {
            self.hits += 1;
            return self.counts[slot];
        }
        self.misses += 1;
        let count = if graph.is_goal[id] {
            // The goal is absorbing: it completes only a zero-length suffix.
            u64::from(budget == 0)
        } else if budget == 0 {
            0
        } else {
            match &graph.edges[id] {
                // Frontier states (never expanded) have no outgoing paths.
                None => 0,
                Some(edges) => edges.iter().fold(0u64, |acc, &(_, next)| {
                    acc.saturating_add(self.completions(graph, next, budget - 1))
                }),
            }
        }
        .min(Self::UNKNOWN - 1);
        self.counts[slot] = count;
        count
    }
}

/// The outcome of [`Synthesizer::count_programs`]: program counts aggregated
/// from the suffix memo without materializing a single path.
#[derive(Debug, Clone)]
pub struct ProgramCount {
    /// Total number of valid programs within the size limit (saturating).
    pub total: u64,
    /// Counts by exact program length; `by_length[n]` is the number of valid
    /// `n`-instruction programs, so `by_length.len() == max_size + 1`.
    pub by_length: Vec<u64>,
    /// Search statistics (`programs_emitted` stays 0: nothing is emitted).
    pub stats: SynthesisStats,
}

/// The outcome of [`Synthesizer::best_cost_program`]: a provably minimum-cost
/// program extracted from the search DAG by dynamic programming.
#[derive(Debug, Clone)]
pub struct BestCostProgram {
    /// A minimum-cost program (the shortest such program, ties broken by the
    /// emission order of the enumeration).
    pub program: Program,
    /// Its cost: the sum of per-step costs, folded from the last step to the
    /// first (the DP recurrence's association).
    pub cost: f64,
    /// Search statistics.
    pub stats: SynthesisStats,
}

/// Interns `states`, returning `(id, was_new)` — the `Vec<State>`-keyed
/// memoization of the reference (no-interning) search path.
fn intern_state_reference(
    states: &[State],
    goals: &[State],
    ids: &mut HashMap<Vec<State>, usize>,
    is_goal: &mut Vec<bool>,
    edges: &mut Vec<Option<Vec<(usize, usize)>>>,
) -> (usize, bool) {
    if let Some(&id) = ids.get(states) {
        return (id, false);
    }
    let id = is_goal.len();
    ids.insert(states.to_vec(), id);
    is_goal.push(states == goals);
    edges.push(None);
    (id, true)
}

/// The completed product of a graph build: the search DAG plus (optionally)
/// the per-state interned id tuples and per-id data fractions the best-cost
/// DP needs to cost individual edges.
struct BuiltGraph {
    graph: SearchGraph,
    init_id: usize,
    /// Per synthesis state: the interned device-state id tuple (only kept
    /// when requested — the enumeration paths never need it).
    tuples: Option<Vec<Box<[u32]>>>,
    /// Data fraction of every device-state id appearing in `tuples`.
    fractions: Option<FxHashMap<u32, f64>>,
}

/// The P² reduction-program synthesizer for one parallelism matrix and one
/// set of reduction axes.
///
/// Programs are enumerated in increasing size over the DSL of §3.3; every
/// instruction's device groups are checked against the collective semantics
/// and states that can no longer reach the goal are pruned, so the output
/// contains exactly the semantically valid programs (up to instruction
/// deduplication: two instructions that derive identical device groups are
/// considered the same).
#[derive(Debug, Clone)]
pub struct Synthesizer {
    ctx: SynthesisContext,
    /// Sweep-shared hash-consing tables, when the owning sweep provides them;
    /// otherwise every search builds over a fresh private instance.
    shared: Option<Arc<SharedTables>>,
    /// Worker budget for the level-synchronous DAG build: `1` (default)
    /// expands every level inline, `0` means all cores, `n > 1` a pool of
    /// `n`. See [`Synthesizer::with_build_threads`].
    build_threads: usize,
}

impl Synthesizer {
    /// Creates a synthesizer for a matrix, reduction axes and hierarchy kind.
    ///
    /// # Errors
    ///
    /// Propagates context-construction errors (invalid axes).
    pub fn new(
        matrix: ParallelismMatrix,
        reduction_axes: Vec<usize>,
        kind: HierarchyKind,
    ) -> Result<Self, SynthesisError> {
        Ok(Synthesizer {
            ctx: SynthesisContext::new(matrix, reduction_axes, kind)?,
            shared: None,
            build_threads: 1,
        })
    }

    /// Creates a synthesizer from an existing context.
    pub fn from_context(ctx: SynthesisContext) -> Self {
        Synthesizer {
            ctx,
            shared: None,
            build_threads: 1,
        }
    }

    /// Sets the worker budget for the level-synchronous DAG build.
    ///
    /// `1` (the default) expands each level's states in order on the calling
    /// thread; `0` resolves to all cores; `n > 1` expands each level's states
    /// concurrently on `n` workers. When the calling thread is already a
    /// [`p2_par::scope`] pool worker (a placement job inside a sweep), any
    /// value other than `1` recruits the *ambient* pool's idle workers
    /// instead of creating a nested pool, so inter- and intra-placement work
    /// share one thread budget.
    ///
    /// Results are **bit-identical** for any value: each level's expansions
    /// are merged in (parent index, candidate index) order, so state
    /// numbering, edges, counts and programs never depend on the workers.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }

    /// The configured DAG-build worker budget (see
    /// [`Synthesizer::with_build_threads`]).
    pub fn build_threads(&self) -> usize {
        self.build_threads
    }

    /// Runs this synthesizer's searches against sweep-shared hash-consing
    /// tables instead of private ones: device states and collective
    /// applications discovered by any search over the same tables are reused
    /// by all of them. The search's observable results (programs, order,
    /// `states_explored`, `unique_device_states`) are identical either way —
    /// only `apply_cache_*` and `shared_states_reused` reflect the sharing.
    pub fn with_shared_tables(mut self, tables: Arc<SharedTables>) -> Self {
        self.shared = Some(tables);
        self
    }

    /// The sweep-shared tables, if any were attached.
    pub fn shared_tables(&self) -> Option<&Arc<SharedTables>> {
        self.shared.as_ref()
    }

    /// The underlying synthesis context.
    pub fn context(&self) -> &SynthesisContext {
        &self.ctx
    }

    /// The candidate instructions considered at every search step: all
    /// `(slice, form, collective)` triples whose derived groups are
    /// non-trivial, deduplicated by the groups they derive.
    pub fn candidate_instructions(&self) -> Vec<(Instruction, Vec<Vec<usize>>)> {
        /// Device groups (synthesis-space indices) derived by one shape.
        type Grouping = Vec<Vec<usize>>;
        let depth = self.ctx.hierarchy().depth();
        let mut seen_groupings: HashSet<Grouping> = HashSet::new();
        let mut shapes: Vec<((usize, Form), Grouping)> = Vec::new();
        for slice in 0..depth {
            let mut forms = vec![Form::InsideGroup];
            for ancestor in 0..slice {
                forms.push(Form::Parallel(ancestor));
                forms.push(Form::Master(ancestor));
            }
            for form in forms {
                let groups = self
                    .ctx
                    .derive_groups(slice, form)
                    .expect("slice and ancestor indices are generated in range");
                let groups: Vec<Vec<usize>> = groups.into_iter().filter(|g| g.len() >= 2).collect();
                if groups.is_empty() {
                    continue;
                }
                // Keep only the first (canonical) instruction shape per grouping:
                // two instructions that derive the same device groups are the
                // same program step.
                if !seen_groupings.insert(groups.clone()) {
                    continue;
                }
                shapes.push(((slice, form), groups));
            }
        }
        let mut out = Vec::new();
        for ((slice, form), groups) in shapes {
            for collective in Collective::ALL {
                out.push((Instruction::new(slice, form, collective), groups.clone()));
            }
        }
        out
    }

    /// The candidates in display order plus fresh stats noting their
    /// generation time, measured from `start`.
    fn sorted_candidates(&self, start: Instant) -> (Vec<Candidate>, SynthesisStats) {
        let mut candidates = self.candidate_instructions();
        // Sorting candidates by their rendered form makes the depth-first
        // emission produce programs in display order within each length
        // (instruction strings are prefix-free, so per-position instruction
        // order and whole-program string order coincide).
        candidates.sort_by_cached_key(|(instr, _)| instr.to_string());
        let stats = SynthesisStats {
            candidate_instructions: candidates.len(),
            candidate_duration: start.elapsed(),
            ..SynthesisStats::default()
        };
        (candidates, stats)
    }

    /// Streams every valid program of at most `max_size` instructions into
    /// `sink`, shortest first and ties in display order — exactly the order
    /// (and set) [`Synthesizer::synthesize`] returns — without materializing
    /// the program set. Returns the search statistics.
    ///
    /// The sink can abort the enumeration by returning [`SinkControl::Stop`].
    /// Only `programs_emitted` and `duration` then reflect the early stop:
    /// the state-graph exploration behind `states_explored` and
    /// `instructions_tried` always runs to completion before emission starts.
    pub fn for_each_program<S>(&self, max_size: usize, sink: &mut S) -> SynthesisStats
    where
        S: ProgramSink + ?Sized,
    {
        self.emit(
            max_size,
            false,
            &mut |program: &Program, _: &[usize], _: &[LoweredStep]| sink.accept(program),
        )
        .expect("emission without lowering cannot fail")
        .0
    }

    /// [`Synthesizer::for_each_program`] with every program's steps lowered:
    /// the sink receives each program together with the ids of its lowered
    /// steps in the search's step table, and the call returns the finished
    /// table with the statistics.
    ///
    /// The emission resolves each DAG edge it descends to a step, keyed by
    /// the candidate and the pre-state's participating device states — the
    /// key [`Synthesizer::best_cost_program`] costs edges by — and lowers
    /// each distinct key once, so lowering scales with the search DAG rather
    /// than with the program count. Keys that lower to the same layout share
    /// one id, so the table holds each distinct layout once. Programs, order
    /// and statistics equal [`Synthesizer::for_each_program`]'s, and every
    /// program's steps equal [`Synthesizer::lower`]'s bit for bit. The ids a
    /// sink keeps stay valid in the returned table, which is frozen for
    /// sharing; `lowered_steps` and `lower_duration` report its size and
    /// cost.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors (none occur for a context that built).
    pub fn for_each_lowered<F>(
        &self,
        max_size: usize,
        mut sink: F,
    ) -> Result<(SynthesisStats, Arc<[LoweredStep]>), SynthesisError>
    where
        F: FnMut(&EmittedProgram<'_>) -> SinkControl,
    {
        let num_devices = self.ctx.matrix().num_devices();
        let (stats, table) = self.emit(
            max_size,
            true,
            &mut |program: &Program, step_ids: &[usize], table: &[LoweredStep]| {
                sink(&EmittedProgram {
                    program,
                    step_ids,
                    table,
                    num_devices,
                })
            },
        )?;
        Ok((stats, table.into()))
    }

    /// The memoized emission behind [`Synthesizer::for_each_program`]
    /// (`lower = false`) and [`Synthesizer::for_each_lowered`]: one
    /// depth-first walk that, when lowering, resolves each edge's step as it
    /// descends. Returns the statistics and the step table (empty unless
    /// lowering).
    fn emit<F>(
        &self,
        max_size: usize,
        lower: bool,
        sink: &mut F,
    ) -> Result<(SynthesisStats, Vec<LoweredStep>), SynthesisError>
    where
        F: FnMut(&Program, &[usize], &[LoweredStep]) -> SinkControl,
    {
        let start = Instant::now();
        let (candidates, mut stats) = self.sorted_candidates(start);
        let build_start = Instant::now();
        let built = self.build_graph(&candidates, max_size, &mut stats, lower);
        stats.build_duration = build_start.elapsed();
        let emit_start = Instant::now();
        let table = match (&built.tuples, &built.fractions) {
            (Some(tuples), Some(fractions)) => {
                Some(StepTable::new(&self.ctx, &candidates, tuples, fractions))
            }
            _ => None,
        };
        // Iterative deepening over exact program lengths: paths of length
        // `target` from the initial state to the (absorbing) goal state are
        // exactly the valid programs of that length. The suffix memo makes
        // the descent visit only suffixes that complete a program.
        let mut emission = Emission {
            graph: &built.graph,
            candidates: &candidates,
            memo: SuffixMemo::new(built.graph.len(), max_size),
            table,
            stack: Vec::with_capacity(max_size),
            step_ids: Vec::with_capacity(max_size),
            scratch: Program::empty(),
            emitted: 0,
            sink,
        };
        let mut outcome = Ok(());
        for target in 0..=max_size {
            if emission
                .memo
                .completions(&built.graph, built.init_id, target)
                == 0
            {
                continue;
            }
            match emission.emit_memoized(built.init_id, target) {
                Ok(SinkControl::Continue) => {}
                Ok(SinkControl::Stop) => break,
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        let Emission {
            memo,
            table,
            emitted,
            ..
        } = emission;
        stats.programs_emitted = emitted;
        stats.suffix_memo_hits = memo.hits;
        stats.suffix_memo_misses = memo.misses;
        let steps = table.map_or_else(Vec::new, |table| table.finish(&mut stats));
        stats.emit_duration = emit_start.elapsed();
        stats.duration = start.elapsed();
        outcome.map(|()| (stats, steps))
    }

    /// The pre-interning reference search behind
    /// [`Synthesizer::synthesize_reference`]: the `Vec<State>`-keyed graph
    /// build and the `min_steps`-pruned emission.
    fn for_each_program_reference<S>(&self, max_size: usize, sink: &mut S) -> SynthesisStats
    where
        S: ProgramSink + ?Sized,
    {
        let start = Instant::now();
        let (candidates, mut stats) = self.sorted_candidates(start);
        let build_start = Instant::now();
        let (graph, init_id) = self.build_graph_reference(&candidates, max_size, &mut stats);
        stats.build_duration = build_start.elapsed();
        let emit_start = Instant::now();
        let min_steps = min_steps(&graph);
        let mut stack: Vec<Instruction> = Vec::with_capacity(max_size);
        let mut scratch = Program::empty();
        for target in 0..=max_size {
            if min_steps[init_id] > target {
                continue;
            }
            let ctrl = emit_exact(
                &graph,
                &min_steps,
                &candidates,
                init_id,
                0,
                target,
                &mut stack,
                &mut scratch,
                sink,
                &mut stats,
            );
            if ctrl == SinkControl::Stop {
                break;
            }
        }
        stats.emit_duration = emit_start.elapsed();
        stats.duration = start.elapsed();
        stats
    }

    /// Counts the valid programs of at most `max_size` instructions by
    /// aggregating the suffix memo — no path is ever walked, so counting
    /// stays cheap even at sizes where the program set itself is beyond
    /// enumeration (the count-only fast path of the streaming engine: the
    /// answer a sink that always returns [`SinkControl::Continue`] and merely
    /// increments a counter would compute, at graph-size cost).
    ///
    /// Every count builds the search graph and a fresh suffix memo. Warm
    /// [`SharedTables`] (see [`Synthesizer::with_shared_tables`]) make the
    /// build cheaper, since its states are already interned and its
    /// collective applications already cached, but never skip it.
    pub fn count_programs(&self, max_size: usize) -> ProgramCount {
        let start = Instant::now();
        let (candidates, mut stats) = self.sorted_candidates(start);
        let build_start = Instant::now();
        let built = self.build_graph(&candidates, max_size, &mut stats, false);
        stats.build_duration = build_start.elapsed();
        let emit_start = Instant::now();
        let mut memo = SuffixMemo::new(built.graph.len(), max_size);
        let by_length: Vec<u64> = (0..=max_size)
            .map(|b| memo.completions(&built.graph, built.init_id, b))
            .collect();
        let total = by_length
            .iter()
            .fold(0u64, |acc, &count| acc.saturating_add(count));
        stats.suffix_memo_hits = memo.hits;
        stats.suffix_memo_misses = memo.misses;
        stats.emit_duration = emit_start.elapsed();
        stats.duration = start.elapsed();
        ProgramCount {
            total,
            by_length,
            stats,
        }
    }

    /// Finds a minimum-cost program of at most `max_size` instructions by
    /// dynamic programming over the search DAG, costing each distinct edge
    /// step once via `step_cost` — the best-cost fast path of the streaming
    /// engine. Edges resolve to steps through the same per-search step table
    /// as [`Synthesizer::for_each_lowered`]. The returned cost folds
    /// per-step costs from the last instruction to the first; among
    /// minimum-cost programs the shortest is returned, ties broken by
    /// emission order.
    ///
    /// An edge's lowered step is fully determined by its pre-state and
    /// instruction (a group's input fraction is the maximum of its members'
    /// data fractions in the pre-state), so per-edge costing is exact: the
    /// result matches costing every enumerated program, up to floating-point
    /// association of the per-step sum.
    ///
    /// Returns `None` when no valid program exists within the size limit.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn best_cost_program(
        &self,
        max_size: usize,
        step_cost: &mut dyn FnMut(&LoweredStep) -> f64,
    ) -> Result<Option<BestCostProgram>, SynthesisError> {
        let start = Instant::now();
        let (candidates, mut stats) = self.sorted_candidates(start);
        let build_start = Instant::now();
        let built = self.build_graph(&candidates, max_size, &mut stats, true);
        stats.build_duration = build_start.elapsed();
        let emit_start = Instant::now();
        let graph = &built.graph;
        let tuples = built.tuples.as_deref().expect("tuples kept for best-cost");
        let fractions = built
            .fractions
            .as_ref()
            .expect("fractions kept for best-cost");

        // Edge costs, one `step_cost` call per distinct step: two states
        // agreeing on a candidate's participants share its step and cost.
        let mut table = StepTable::new(&self.ctx, &candidates, tuples, fractions);
        let mut step_costs: Vec<f64> = Vec::new();
        let mut edge_costs: Vec<Vec<f64>> = Vec::with_capacity(graph.len());
        for (id, edges) in graph.edges.iter().enumerate() {
            let Some(edges) = edges else {
                edge_costs.push(Vec::new());
                continue;
            };
            let mut costs = Vec::with_capacity(edges.len());
            for &(ci, _) in edges {
                let step = table.resolve(id, ci)?;
                if step == step_costs.len() {
                    step_costs.push(step_cost(&table.steps()[step]));
                }
                costs.push(step_costs[step]);
            }
            edge_costs.push(costs);
        }
        table.finish(&mut stats);

        // best[id][b]: minimum cost of a goal-reaching path of exactly `b`
        // steps from `id` (∞ when none exists). Budgets strictly decrease
        // along edges, so the bottom-up sweep is safe on cyclic graphs.
        let width = max_size + 1;
        let mut best = vec![f64::INFINITY; graph.len() * width];
        for (id, &goal) in graph.is_goal.iter().enumerate() {
            if goal {
                best[id * width] = 0.0;
            }
        }
        for b in 1..=max_size {
            for id in 0..graph.len() {
                // The goal is absorbing; frontier states have no edges.
                if graph.is_goal[id] {
                    continue;
                }
                let Some(edges) = &graph.edges[id] else {
                    continue;
                };
                let mut min = f64::INFINITY;
                for (&(_, next), &cost) in edges.iter().zip(&edge_costs[id]) {
                    let suffix = best[next * width + b - 1];
                    if suffix.is_finite() {
                        min = min.min(cost + suffix);
                    }
                }
                best[id * width + b] = min;
            }
        }

        // Shortest length first makes the < comparison pick the shortest
        // among equal-cost programs.
        let mut best_cost = f64::INFINITY;
        let mut best_len = None;
        for b in 0..=max_size {
            let cost = best[built.init_id * width + b];
            if cost < best_cost {
                best_cost = cost;
                best_len = Some(b);
            }
        }
        let Some(len) = best_len else {
            return Ok(None);
        };

        // Reconstruct by following, at every state, the first edge achieving
        // the memoized optimum (the same f64 sums recomputed, so the equality
        // test is exact) — the emission-order tie-break.
        let mut instructions = Vec::with_capacity(len);
        let mut id = built.init_id;
        for remaining in (1..=len).rev() {
            let target = best[id * width + remaining];
            let edges = graph.edges[id].as_ref().expect("optimal state expanded");
            let (ci, next) = edges
                .iter()
                .zip(&edge_costs[id])
                .find_map(|(&(ci, next), &cost)| {
                    let suffix = best[next * width + remaining - 1];
                    (suffix.is_finite() && cost + suffix == target).then_some((ci, next))
                })
                .expect("an edge achieves the memoized optimum");
            instructions.push(candidates[ci].0);
            id = next;
        }
        stats.emit_duration = emit_start.elapsed();
        stats.duration = start.elapsed();
        Ok(Some(BestCostProgram {
            program: Program { instructions },
            cost: best_cost,
            stats,
        }))
    }

    /// Explores the state space once, level by level (each state expanded a
    /// single time), and computes per-state distances to the goal.
    ///
    /// `build_threads == 1` expands every level inline on the calling
    /// thread. Any other value fans each level out: over the ambient pool
    /// when the caller is already a pool worker (a placement job inside a
    /// sweep, so inter- and intra-placement work share one thread budget),
    /// else over a fresh pool of the resolved size. Every mode runs the same
    /// builder and yields bit-identical graphs and deterministic stats.
    fn build_graph(
        &self,
        candidates: &[Candidate],
        max_size: usize,
        stats: &mut SynthesisStats,
        keep_tuples: bool,
    ) -> BuiltGraph {
        let inline = self.build_threads == 1;
        if inline || p2_par::on_pool_worker() {
            return self.build_levels(candidates, max_size, stats, keep_tuples, inline);
        }
        p2_par::with_pool(self.build_threads, || {
            self.build_levels(candidates, max_size, stats, keep_tuples, false)
        })
    }

    /// The level-synchronous build: all states of one BFS level are expanded
    /// (each expansion produces its candidate-ordered list of surviving
    /// successor tuples), then merged *serially* in (parent index, candidate
    /// index) order — breadth-first discovery order — so state numbering,
    /// edges, `is_goal` and every downstream artifact are identical whether
    /// the expansions ran `inline` in order or concurrently through
    /// [`p2_par::nested_for_each`], for any worker count and steal seed.
    ///
    /// Device states are hash-consed to dense `u32` ids, so a synthesis
    /// state is a flat id slice, and collective applications go through the
    /// `(collective, participant ids)` transposition table, so symmetric
    /// groupings and convergent paths skip the semantics. Both live in
    /// [`SharedTables`] (the sweep's, or a fresh private instance): its
    /// sharded maps and lock-free id → state arena are what let concurrent
    /// expanders interleave without serializing on one lock. Device-state
    /// ids are assigned in thread-arrival order — observable results never
    /// depend on them (they are used for equality and memoization only), but
    /// the `apply_cache_hits`/`misses` *split* becomes interleaving-dependent
    /// (two workers can race to the same miss); the sum stays deterministic,
    /// as do all other stats.
    fn build_levels(
        &self,
        candidates: &[Candidate],
        max_size: usize,
        stats: &mut SynthesisStats,
        keep_tuples: bool,
        inline: bool,
    ) -> BuiltGraph {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::{Mutex, RwLock};

        /// Shard count for the per-build tracking maps (`seen`, `respects`):
        /// small enough to sum cheaply, large enough that expanders rarely
        /// collide on a shard lock.
        const TRACK_SHARDS: usize = 64;

        let private;
        let (tables, sweep_shared): (&SharedTables, bool) = match &self.shared {
            Some(shared) => (shared.as_ref(), true),
            None => {
                private = SharedTables::new();
                (&private, false)
            }
        };
        let (distinct_goals, goal_index) = self.ctx.distinct_goal_states();

        // Ids observed by *this* search, tracked only in sweep-shared mode —
        // private tables start empty, so there `num_states()` is the same
        // universe. The set's *size* is deterministic (it is the search's
        // device-state universe); the reused/hit split is not.
        let seen: Option<Vec<Mutex<FxHashSet<u32>>>> = sweep_shared.then(|| {
            (0..TRACK_SHARDS)
                .map(|_| Mutex::new(FxHashSet::default()))
                .collect()
        });
        let reused = AtomicUsize::new(0);
        let apply_hits = AtomicUsize::new(0);
        let apply_misses = AtomicUsize::new(0);
        let note_seen = |id: u32, already_present: bool| {
            if let Some(seen) = &seen {
                let mut shard = seen[id as usize % TRACK_SHARDS]
                    .lock()
                    .expect("seen shard poisoned");
                if shard.insert(id) && already_present {
                    reused.fetch_add(1, Ordering::Relaxed);
                }
            }
        };

        // Lazy goal-compatibility rows (Lemma B.3), keyed and sharded by id —
        // never indexed densely, since shared or warm-started tables also hold
        // other searches' states, which this search must neither scan nor
        // allocate for. Racing workers may compute the same row twice — the
        // row is a pure function of the state, so whichever insert wins is
        // identical and the table stays deterministic in content and size.
        let respects: Vec<RwLock<FxHashMap<u32, Box<[bool]>>>> = (0..TRACK_SHARDS)
            .map(|_| RwLock::new(FxHashMap::default()))
            .collect();
        let respects_row = |sid: u32, g: usize| -> bool {
            let shard = &respects[sid as usize % TRACK_SHARDS];
            if let Some(row) = shard.read().expect("respects shard poisoned").get(&sid) {
                return row[g];
            }
            let state = tables.get(sid);
            let row: Box<[bool]> = distinct_goals.iter().map(|goal| state.le(goal)).collect();
            let mut shard = shard.write().expect("respects shard poisoned");
            shard.entry(sid).or_insert(row)[g]
        };

        let init_ids: Box<[u32]> = self
            .ctx
            .initial_states()
            .into_iter()
            .map(|s| {
                let (id, present) = tables.intern(s);
                note_seen(id, present);
                id
            })
            .collect();
        let goal_ids: Box<[u32]> = self
            .ctx
            .goal_states()
            .into_iter()
            .map(|s| {
                let (id, present) = tables.intern(s);
                note_seen(id, present);
                id
            })
            .collect();

        let mut ids: FxHashMap<Box<[u32]>, usize> = FxHashMap::default();
        let mut is_goal: Vec<bool> = vec![init_ids == goal_ids];
        let mut edges: Vec<Option<Vec<(usize, usize)>>> = vec![None];
        let mut tuples: Vec<Box<[u32]>> = Vec::new();
        if keep_tuples {
            tuples.push(init_ids.clone());
        }
        ids.insert(init_ids.clone(), 0);

        // The current BFS level's unexpanded states, in discovery order.
        let mut frontier: Vec<(usize, Box<[u32]>)> = Vec::new();
        if !is_goal[0] && max_size > 0 {
            frontier.push((0, init_ids));
        }
        let mut depth = 0usize;
        while !frontier.is_empty() {
            // Expand every frontier state; each expansion writes its
            // surviving `(candidate index, successor tuple)` list — already
            // in candidate order — into its own slot.
            type Successors = Vec<(usize, Box<[u32]>)>;
            let slots: Vec<Mutex<Option<Successors>>> =
                frontier.iter().map(|_| Mutex::new(None)).collect();
            {
                let frontier = &frontier;
                let slots = &slots;
                let expand = |fi: usize| {
                    let (_, state_ids) = &frontier[fi];
                    let mut out: Vec<(usize, Box<[u32]>)> = Vec::new();
                    let mut next_ids: Vec<u32> = Vec::new();
                    let mut member_ids: Vec<u32> = Vec::new();
                    'candidate: for (ci, (instr, groups)) in candidates.iter().enumerate() {
                        next_ids.clear();
                        next_ids.extend_from_slice(state_ids);
                        for group in groups {
                            member_ids.clear();
                            member_ids.extend(group.iter().map(|&d| state_ids[d]));
                            let base = next_ids.len();
                            let (result, hit) = tables.apply(instr.collective, &member_ids);
                            if hit {
                                apply_hits.fetch_add(1, Ordering::Relaxed);
                            } else {
                                apply_misses.fetch_add(1, Ordering::Relaxed);
                            }
                            match result {
                                Ok(after) => {
                                    for &id in after.iter() {
                                        // A cache hit's outputs were already
                                        // interned by whoever filled the entry.
                                        note_seen(id, hit);
                                    }
                                    next_ids.extend_from_slice(&after);
                                }
                                Err(_) => continue 'candidate,
                            }
                            for (i, &d) in group.iter().enumerate() {
                                next_ids[d] = next_ids[base + i];
                            }
                            next_ids.truncate(base);
                        }
                        let respects_all =
                            (0..next_ids.len()).all(|d| respects_row(next_ids[d], goal_index[d]));
                        if !respects_all {
                            continue;
                        }
                        if next_ids[..] == state_ids[..] {
                            continue;
                        }
                        out.push((ci, next_ids.as_slice().into()));
                    }
                    *slots[fi].lock().expect("expansion slot poisoned") = Some(out);
                };
                if inline {
                    (0..frontier.len()).for_each(expand);
                } else {
                    p2_par::nested_for_each(frontier.len(), &expand);
                }
            }

            // Serial merge in (parent index, candidate index) order —
            // breadth-first discovery order, so new ids never depend on which
            // worker expanded which state.
            let mut next_frontier: Vec<(usize, Box<[u32]>)> = Vec::new();
            for (fi, (id, _)) in frontier.iter().enumerate() {
                let surviving = slots[fi]
                    .lock()
                    .expect("expansion slot poisoned")
                    .take()
                    .expect("every expansion slot is filled");
                stats.states_explored += 1;
                stats.instructions_tried += candidates.len();
                let mut out = Vec::with_capacity(surviving.len());
                for (ci, key) in surviving {
                    let next_id = match ids.get(&key) {
                        Some(&existing) => existing,
                        None => {
                            let new_id = is_goal.len();
                            let goal = key == goal_ids;
                            is_goal.push(goal);
                            edges.push(None);
                            if keep_tuples {
                                tuples.push(key.clone());
                            }
                            ids.insert(key.clone(), new_id);
                            // The goal is absorbing, and states first reached
                            // at the size limit can never be extended —
                            // neither joins the next frontier.
                            if !goal && depth + 1 < max_size {
                                next_frontier.push((new_id, key));
                            }
                            new_id
                        }
                    };
                    out.push((ci, next_id));
                }
                edges[*id] = Some(out);
            }
            frontier = next_frontier;
            depth += 1;
        }

        let fractions = keep_tuples.then(|| {
            let mut fractions: FxHashMap<u32, f64> = FxHashMap::default();
            for tuple in &tuples {
                for &sid in tuple.iter() {
                    fractions
                        .entry(sid)
                        .or_insert_with(|| tables.get(sid).data_fraction());
                }
            }
            fractions
        });
        stats.goal_respects_entries = respects
            .iter()
            .map(|shard| shard.read().expect("respects shard poisoned").len())
            .sum();
        stats.apply_cache_hits = apply_hits.load(Ordering::Relaxed);
        stats.apply_cache_misses = apply_misses.load(Ordering::Relaxed);
        match &seen {
            Some(shards) => {
                stats.unique_device_states = shards
                    .iter()
                    .map(|shard| shard.lock().expect("seen shard poisoned").len())
                    .sum();
                stats.shared_states_reused = reused.load(Ordering::Relaxed);
            }
            None => stats.unique_device_states = tables.num_states(),
        }
        BuiltGraph {
            graph: SearchGraph { edges, is_goal },
            init_id: 0,
            tuples: keep_tuples.then_some(tuples),
            fractions,
        }
    }

    /// The pre-interning search: synthesis states memoized by their full
    /// `Vec<State>`, every collective application re-run through the
    /// semantics. Kept as the oracle [`Synthesizer::synthesize_reference`]
    /// compares the interned engine against.
    fn build_graph_reference(
        &self,
        candidates: &[Candidate],
        max_size: usize,
        stats: &mut SynthesisStats,
    ) -> (SearchGraph, usize) {
        let initial = self.ctx.initial_states();
        let goals = self.ctx.goal_states();
        let mut ids: HashMap<Vec<State>, usize> = HashMap::new();
        let mut is_goal: Vec<bool> = Vec::new();
        let mut edges: Vec<Option<Vec<(usize, usize)>>> = Vec::new();
        let mut queue: VecDeque<(usize, usize, Vec<State>)> = VecDeque::new();

        let (init_id, _) =
            intern_state_reference(&initial, &goals, &mut ids, &mut is_goal, &mut edges);
        queue.push_back((init_id, 0, initial));
        while let Some((id, depth, states)) = queue.pop_front() {
            // The goal is absorbing, and states first reached at the size
            // limit can never be extended — neither is expanded.
            if is_goal[id] || depth >= max_size {
                continue;
            }
            stats.states_explored += 1;
            let mut out = Vec::new();
            for (ci, (instr, groups)) in candidates.iter().enumerate() {
                stats.instructions_tried += 1;
                let Ok(next) = apply_to_groups(instr.collective, &states, groups) else {
                    continue;
                };
                // Prune states that can no longer reach the goal (Lemma B.3).
                if !self.ctx.respects_goal(&next, &goals) {
                    continue;
                }
                if next == states {
                    continue;
                }
                let (next_id, new) =
                    intern_state_reference(&next, &goals, &mut ids, &mut is_goal, &mut edges);
                if new {
                    queue.push_back((next_id, depth + 1, next));
                }
                out.push((ci, next_id));
            }
            edges[id] = Some(out);
        }

        (SearchGraph { edges, is_goal }, init_id)
    }

    /// Synthesizes every valid program of at most `max_size` instructions
    /// (the paper uses a limit of 5).
    ///
    /// This is a thin collecting wrapper over
    /// [`Synthesizer::for_each_program`]; the final sort documents (and
    /// defends) the emission-order contract at negligible cost, since the
    /// stream already arrives sorted.
    pub fn synthesize(&self, max_size: usize) -> SynthesisResult {
        let mut programs: Vec<Program> = Vec::new();
        let stats = self.for_each_program(max_size, &mut |p: &Program| {
            programs.push(p.clone());
            SinkControl::Continue
        });
        programs.sort_by_cached_key(|p| (p.len(), p.to_string()));
        SynthesisResult { programs, stats }
    }

    /// [`Synthesizer::synthesize`] through the pre-interning reference
    /// search: synthesis states memoized by their full `Vec<State>`, no
    /// device-state hash-consing, no transposition cache. Slower by design —
    /// it exists as the oracle the interned engine is pinned against (same
    /// program set, same order, same `states_explored`) in the test suite
    /// and the `reference_full` side of the `synthesis` bench.
    pub fn synthesize_reference(&self, max_size: usize) -> SynthesisResult {
        let mut programs: Vec<Program> = Vec::new();
        let stats = self.for_each_program_reference(max_size, &mut |p: &Program| {
            programs.push(p.clone());
            SinkControl::Continue
        });
        programs.sort_by_cached_key(|p| (p.len(), p.to_string()));
        SynthesisResult { programs, stats }
    }

    /// Lowers a program to physical device groups.
    ///
    /// # Errors
    ///
    /// Same as [`SynthesisContext::lower`].
    pub fn lower(&self, program: &Program) -> Result<LoweredProgram, SynthesisError> {
        self.ctx.lower(program)
    }

    /// Re-validates a program (semantics plus goal).
    ///
    /// # Errors
    ///
    /// Returns the violation, if any.
    pub fn validate(&self, program: &Program) -> Result<(), SynthesisError> {
        self.ctx.trace(program).map(|_| ())
    }
}

/// The state of one memoized emission: the depth-first walk over the search
/// DAG, optionally resolving each descended edge to its lowered step.
struct Emission<'a, F: ?Sized> {
    graph: &'a SearchGraph,
    candidates: &'a [Candidate],
    memo: SuffixMemo,
    /// The step table, when the emission lowers.
    table: Option<StepTable<'a>>,
    /// The instructions of the current prefix.
    stack: Vec<Instruction>,
    /// The step ids of the current prefix (empty unless lowering).
    step_ids: Vec<usize>,
    scratch: Program,
    emitted: usize,
    sink: &'a mut F,
}

impl<F> Emission<'_, F>
where
    F: FnMut(&Program, &[usize], &[LoweredStep]) -> SinkControl + ?Sized,
{
    /// Emits every goal-reaching path of exactly `remaining` further
    /// instructions from `id`, pruned by the suffix memo: an edge is descended
    /// only when its successor completes a nonzero number of programs in the
    /// exact remaining budget, so (unlike the `min_steps` bound of the
    /// reference emission) every recursive call ends in at least one
    /// emission. Callers guarantee `memo.completions(graph, id, remaining) >
    /// 0`.
    fn emit_memoized(
        &mut self,
        id: usize,
        remaining: usize,
    ) -> Result<SinkControl, SynthesisError> {
        if remaining == 0 {
            // Positive completions with no budget left means this is the goal.
            debug_assert!(self.graph.is_goal[id]);
            self.scratch.instructions.clear();
            self.scratch.instructions.extend_from_slice(&self.stack);
            self.emitted += 1;
            let table = self.table.as_ref().map_or(&[][..], StepTable::steps);
            return Ok((self.sink)(&self.scratch, &self.step_ids, table));
        }
        let graph = self.graph;
        let Some(edges) = &graph.edges[id] else {
            debug_assert!(false, "a state with completions left was never expanded");
            return Ok(SinkControl::Continue);
        };
        for &(ci, next) in edges {
            if self.memo.completions(graph, next, remaining - 1) == 0 {
                continue;
            }
            if let Some(table) = &mut self.table {
                self.step_ids.push(table.resolve(id, ci)?);
            }
            self.stack.push(self.candidates[ci].0);
            let ctrl = self.emit_memoized(next, remaining - 1);
            self.stack.pop();
            if self.table.is_some() {
                self.step_ids.pop();
            }
            if ctrl? == SinkControl::Stop {
                return Ok(SinkControl::Stop);
            }
        }
        Ok(SinkControl::Continue)
    }
}

/// Minimal number of instructions from each state of `graph` to the goal
/// (`usize::MAX` when the goal is unreachable from it), by a reverse
/// breadth-first search from the goal: the admissible pruning bound of the
/// reference emission.
fn min_steps(graph: &SearchGraph) -> Vec<usize> {
    let n = graph.len();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, out) in graph.edges.iter().enumerate() {
        if let Some(out) = out {
            for &(_, next) in out {
                rev[next].push(id);
            }
        }
    }
    let mut min_steps = vec![usize::MAX; n];
    let mut q: VecDeque<usize> = VecDeque::new();
    for (id, &g) in graph.is_goal.iter().enumerate() {
        if g {
            min_steps[id] = 0;
            q.push_back(id);
        }
    }
    while let Some(id) = q.pop_front() {
        for &p in &rev[id] {
            if min_steps[p] == usize::MAX {
                min_steps[p] = min_steps[id] + 1;
                q.push_back(p);
            }
        }
    }
    min_steps
}

/// Depth-first emission of every goal-reaching path of exactly `target`
/// instructions, reusing one instruction stack and one scratch program —
/// pruned only by the admissible `min_steps` bound. Kept as the reference
/// path's emission, the oracle the memoized engine is pinned against.
#[allow(clippy::too_many_arguments)]
fn emit_exact<S>(
    graph: &SearchGraph,
    min_steps: &[usize],
    candidates: &[Candidate],
    id: usize,
    depth: usize,
    target: usize,
    stack: &mut Vec<Instruction>,
    scratch: &mut Program,
    sink: &mut S,
    stats: &mut SynthesisStats,
) -> SinkControl
where
    S: ProgramSink + ?Sized,
{
    if graph.is_goal[id] {
        if depth == target {
            scratch.instructions.clear();
            scratch.instructions.extend_from_slice(stack);
            stats.programs_emitted += 1;
            return sink.accept(scratch);
        }
        return SinkControl::Continue;
    }
    if depth == target {
        return SinkControl::Continue;
    }
    let Some(edges) = &graph.edges[id] else {
        return SinkControl::Continue;
    };
    let remaining = target - depth - 1;
    for &(ci, next) in edges {
        if min_steps[next] > remaining {
            continue;
        }
        stack.push(candidates[ci].0);
        let ctrl = emit_exact(
            graph,
            min_steps,
            candidates,
            next,
            depth + 1,
            target,
            stack,
            scratch,
            sink,
            stats,
        );
        stack.pop();
        if ctrl == SinkControl::Stop {
            return SinkControl::Stop;
        }
    }
    SinkControl::Continue
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2d() -> ParallelismMatrix {
        ParallelismMatrix::new(
            vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
            vec![1, 2, 2, 4],
            vec![4, 4],
        )
        .unwrap()
    }

    fn synth_d() -> Synthesizer {
        Synthesizer::new(figure2d(), vec![1], HierarchyKind::ReductionAxes).unwrap()
    }

    #[test]
    fn finds_the_paper_figure3_programs() {
        let result = synth_d().synthesize(5);
        let signatures: Vec<String> = result.programs.iter().map(|p| p.signature()).collect();
        // Figure 3a: a single AllReduce.
        assert!(signatures.contains(&"AllReduce".to_string()));
        // Figure 3b: AllReduce-AllReduce (local, then across).
        assert!(signatures.contains(&"AllReduce-AllReduce".to_string()));
        // Figure 3c / 10i: Reduce-AllReduce-Broadcast.
        assert!(signatures.contains(&"Reduce-AllReduce-Broadcast".to_string()));
        // Figure 10ii: ReduceScatter-AllReduce-AllGather.
        assert!(signatures.contains(&"ReduceScatter-AllReduce-AllGather".to_string()));
    }

    #[test]
    fn all_programs_validate_and_lower() {
        let s = synth_d();
        let result = s.synthesize(5);
        assert!(!result.is_empty());
        for p in &result.programs {
            s.validate(p)
                .unwrap_or_else(|e| panic!("program {p} failed validation: {e}"));
            let lowered = s.lower(p).unwrap();
            assert!(lowered.groups_are_disjoint());
        }
    }

    #[test]
    fn programs_are_unique() {
        let result = synth_d().synthesize(5);
        let mut seen = std::collections::HashSet::new();
        for p in &result.programs {
            assert!(seen.insert(p.clone()), "duplicate program {p}");
        }
    }

    #[test]
    fn larger_size_limit_finds_at_least_as_many_programs() {
        let s = synth_d();
        let small = s.synthesize(2).len();
        let medium = s.synthesize(3).len();
        let large = s.synthesize(5).len();
        assert!(small <= medium && medium <= large);
        assert!(small >= 1, "a single AllReduce must always be found");
    }

    #[test]
    fn size_one_synthesis_finds_exactly_the_single_allreduce() {
        let result = synth_d().synthesize(1);
        assert_eq!(result.len(), 1);
        assert_eq!(result.programs[0].signature(), "AllReduce");
    }

    #[test]
    fn streaming_emits_the_synthesize_order_exactly() {
        // The visitor must produce the same programs, in the same order, as
        // the collecting wrapper's documented (length, display) sort.
        let s = synth_d();
        for max_size in 1..=5 {
            let mut streamed: Vec<Program> = Vec::new();
            let stats = s.for_each_program(max_size, &mut |p: &Program| {
                streamed.push(p.clone());
                SinkControl::Continue
            });
            let collected = s.synthesize(max_size);
            assert_eq!(streamed, collected.programs, "order diverged at {max_size}");
            assert_eq!(stats.programs_emitted, streamed.len());
            assert_eq!(stats.states_explored, collected.stats.states_explored);
        }
    }

    #[test]
    fn sink_stop_aborts_the_enumeration() {
        let s = synth_d();
        let total = s.synthesize(5).len();
        assert!(total > 3);
        let mut taken: Vec<Program> = Vec::new();
        let stats = s.for_each_program(5, &mut |p: &Program| {
            taken.push(p.clone());
            if taken.len() == 3 {
                SinkControl::Stop
            } else {
                SinkControl::Continue
            }
        });
        assert_eq!(taken.len(), 3);
        assert_eq!(stats.programs_emitted, 3);
        // The prefix matches the full enumeration.
        assert_eq!(taken, s.synthesize(5).programs[..3].to_vec());
    }

    #[test]
    fn reduction_hierarchy_finds_every_system_hierarchy_program() {
        // Theorem 3.2: hierarchy (d) is at least as expressive as (a). We check
        // it empirically: every *lowered* program synthesized under (a) also
        // appears among the lowered programs of (d).
        let matrix = figure2d();
        let synth_a = Synthesizer::new(matrix.clone(), vec![1], HierarchyKind::System).unwrap();
        let synth_d = Synthesizer::new(matrix, vec![1], HierarchyKind::ReductionAxes).unwrap();
        let lowered_a: Vec<_> = synth_a
            .synthesize(3)
            .programs
            .iter()
            .map(|p| synth_a.lower(p).unwrap())
            .collect();
        let lowered_d: Vec<_> = synth_d
            .synthesize(3)
            .programs
            .iter()
            .map(|p| synth_d.lower(p).unwrap())
            .collect();
        for la in &lowered_a {
            assert!(
                lowered_d.iter().any(|ld| lowered_equivalent(la, ld)),
                "program {} from hierarchy (a) not found under (d)",
                la.signature()
            );
        }
        // And (d) finds strictly more in this example.
        assert!(lowered_d.len() >= lowered_a.len());
    }

    fn lowered_equivalent(
        a: &crate::lowered::LoweredProgram,
        b: &crate::lowered::LoweredProgram,
    ) -> bool {
        if a.steps.len() != b.steps.len() {
            return false;
        }
        a.steps.iter().zip(&b.steps).all(|(sa, sb)| {
            if sa.collective != sb.collective {
                return false;
            }
            let norm = |s: &crate::lowered::LoweredStep| {
                let mut gs: Vec<Vec<usize>> = s
                    .groups
                    .iter()
                    .map(|g| {
                        let mut d = g.devices.clone();
                        d.sort_unstable();
                        d
                    })
                    .collect();
                gs.sort();
                gs
            };
            norm(sa) == norm(sb)
        })
    }

    #[test]
    fn count_only_agrees_with_full_enumeration() {
        let s = synth_d();
        for max_size in 0..=6 {
            let full = s.synthesize(max_size);
            let count = s.count_programs(max_size);
            assert_eq!(count.total, full.len() as u64, "size {max_size}");
            assert_eq!(count.by_length.len(), max_size + 1);
            assert_eq!(
                count.total,
                count.by_length.iter().sum::<u64>(),
                "by_length must partition the total"
            );
            for (n, &c) in count.by_length.iter().enumerate() {
                let at_n = full.programs.iter().filter(|p| p.len() == n).count() as u64;
                assert_eq!(c, at_n, "length {n} at size {max_size}");
            }
            assert_eq!(count.stats.programs_emitted, 0);
            assert_eq!(count.stats.states_explored, full.stats.states_explored);
        }
    }

    #[test]
    fn suffix_memo_counters_are_populated() {
        let s = synth_d();
        let mut emitted = 0usize;
        let stats = s.for_each_program(5, &mut |_: &Program| {
            emitted += 1;
            SinkControl::Continue
        });
        assert!(emitted > 0);
        assert!(stats.suffix_memo_misses > 0);
        assert!(stats.suffix_memo_hits > 0, "shared suffixes must be reused");
        assert!(stats.build_duration <= stats.duration);
    }

    #[test]
    fn best_cost_program_matches_exhaustive_minimum() {
        // Cost each step by (groups × max group size): an arbitrary but
        // prefix-sensitive stand-in for a real cost model (fractions shrink
        // after a ReduceScatter, so identical instructions cost differently
        // at different states).
        let mut cost = |step: &LoweredStep| {
            step.groups
                .iter()
                .map(|g| g.input_fraction * g.devices.len() as f64)
                .sum::<f64>()
        };
        let s = synth_d();
        for max_size in 1..=5 {
            let best = s
                .best_cost_program(max_size, &mut cost)
                .unwrap()
                .expect("programs exist");
            // Exhaustive check: fold each enumerated program's step costs in
            // the DP's (suffix-first) association and take the minimum.
            let mut min = f64::INFINITY;
            let mut min_lens: Vec<usize> = Vec::new();
            for p in &s.synthesize(max_size).programs {
                let lowered = s.lower(p).unwrap();
                let total = lowered
                    .steps
                    .iter()
                    .rev()
                    .fold(0.0_f64, |acc, step| cost(step) + acc);
                if total < min {
                    min = total;
                    min_lens.clear();
                }
                if total == min {
                    min_lens.push(p.len());
                }
            }
            assert_eq!(best.cost, min, "cost diverged at size {max_size}");
            assert_eq!(
                best.program.len(),
                min_lens.iter().copied().min().unwrap(),
                "tie-break must pick the shortest minimum at size {max_size}"
            );
            s.validate(&best.program).unwrap();
        }
    }

    #[test]
    fn lowered_stream_matches_per_program_lowering() {
        let kinds = [
            (HierarchyKind::ReductionAxes, 5),
            (HierarchyKind::System, 3),
            (HierarchyKind::RowMajor, 3),
            (HierarchyKind::ColumnMajor, 3),
        ];
        for (kind, max_size) in kinds {
            let s = Synthesizer::new(figure2d(), vec![1], kind).unwrap();
            let plain = s.synthesize(max_size);
            let mut programs: Vec<Program> = Vec::new();
            let mut step_ids: Vec<Vec<usize>> = Vec::new();
            let mut table_len = 0;
            let (stats, table) = s
                .for_each_lowered(max_size, |emitted: &EmittedProgram<'_>| {
                    let expected = s.lower(emitted.program).unwrap();
                    let lowered = emitted.to_lowered();
                    assert_eq!(lowered.num_devices, expected.num_devices);
                    assert_eq!(lowered.steps.len(), expected.steps.len());
                    for (got, want) in lowered.steps.iter().zip(&expected.steps) {
                        assert!(got.same_layout(want), "{kind:?}: {}", emitted.program);
                    }
                    table_len = emitted.table.len();
                    programs.push(emitted.program.clone());
                    step_ids.push(emitted.step_ids.to_vec());
                    SinkControl::Continue
                })
                .unwrap();
            assert_eq!(programs, plain.programs, "{kind:?}");
            assert_eq!(stats.programs_emitted, plain.stats.programs_emitted);
            assert_eq!(stats.states_explored, plain.stats.states_explored);
            assert_eq!(stats.lowered_steps, table_len);
            assert_eq!(table.len(), table_len);
            assert!(stats.lower_duration <= stats.emit_duration);
            // The ids a sink kept still name the program's steps in the
            // returned table.
            for (program, ids) in programs.iter().zip(&step_ids) {
                let expected = s.lower(program).unwrap();
                assert_eq!(ids.len(), expected.steps.len());
                for (&id, want) in ids.iter().zip(&expected.steps) {
                    assert!(table[id].same_layout(want), "{kind:?}: {program}");
                }
            }
            // The table holds each layout once.
            for (i, a) in table.iter().enumerate() {
                for b in &table[i + 1..] {
                    assert!(!a.same_layout(b), "{kind:?}: duplicate layout {a:?}");
                }
            }
            // One lowering per distinct edge step, not per program step.
            let program_steps: usize = programs.iter().map(Program::len).sum();
            assert!(stats.lowered_steps <= program_steps, "{kind:?}");
            if kind == HierarchyKind::ReductionAxes {
                assert!(
                    stats.lowered_steps * 4 < program_steps,
                    "{} steps lowered for {program_steps} program steps",
                    stats.lowered_steps
                );
            }
        }
        // Without lowering, the same walk lowers nothing.
        assert_eq!(synth_d().synthesize(5).stats.lowered_steps, 0);
    }

    #[test]
    fn lowered_stream_stops_when_the_sink_stops() {
        let s = synth_d();
        let mut taken: Vec<Program> = Vec::new();
        let (stats, _) = s
            .for_each_lowered(5, |emitted: &EmittedProgram<'_>| {
                taken.push(emitted.program.clone());
                if taken.len() == 3 {
                    SinkControl::Stop
                } else {
                    SinkControl::Continue
                }
            })
            .unwrap();
        assert_eq!(stats.programs_emitted, 3);
        assert_eq!(taken, s.synthesize(5).programs[..3].to_vec());
    }

    #[test]
    fn best_cost_program_handles_unreachable_goals() {
        // Size 0 with a non-trivial reduction: no program reaches the goal.
        let s = synth_d();
        let best = s.best_cost_program(0, &mut |_| 1.0).unwrap();
        assert!(best.is_none());
    }

    #[test]
    fn shared_tables_do_not_change_results() {
        use p2_collectives::SharedTables;
        let local = synth_d();
        let shared_tables = Arc::new(SharedTables::new());
        let shared = synth_d().with_shared_tables(Arc::clone(&shared_tables));
        assert!(shared.shared_tables().is_some());
        for max_size in 1..=5 {
            let a = local.synthesize(max_size);
            let b = shared.synthesize(max_size);
            assert_eq!(a.programs, b.programs, "programs diverged at {max_size}");
            assert_eq!(a.stats.states_explored, b.stats.states_explored);
            assert_eq!(a.stats.unique_device_states, b.stats.unique_device_states);
            assert_eq!(a.stats.programs_emitted, b.stats.programs_emitted);
        }
        assert!(shared_tables.num_states() > 0);
        // A second synthesizer over the same tables reuses every state.
        let again = synth_d().with_shared_tables(Arc::clone(&shared_tables));
        let rerun = again.synthesize(5);
        assert_eq!(
            rerun.stats.shared_states_reused, rerun.stats.unique_device_states,
            "an identical search must find its whole universe already interned"
        );
        assert_eq!(rerun.stats.apply_cache_misses, 0);
    }

    /// The deterministic subset of build stats: everything except timings,
    /// the interleaving-dependent `apply_cache_*` split and
    /// `shared_states_reused`.
    fn deterministic_stats(
        s: &SynthesisStats,
    ) -> (usize, usize, usize, usize, usize, usize, usize) {
        (
            s.states_explored,
            s.instructions_tried,
            s.candidate_instructions,
            s.programs_emitted,
            s.unique_device_states,
            s.goal_respects_entries,
            s.apply_cache_hits + s.apply_cache_misses,
        )
    }

    #[test]
    fn build_threads_match_one_thread_bit_for_bit() {
        let one = synth_d();
        assert_eq!(one.build_threads(), 1);
        for threads in [0usize, 2, 8] {
            let many = synth_d().with_build_threads(threads);
            for max_size in 1..=5 {
                let a = one.synthesize(max_size);
                let b = many.synthesize(max_size);
                assert_eq!(
                    a.programs, b.programs,
                    "programs diverged at threads={threads} size={max_size}"
                );
                assert_eq!(
                    deterministic_stats(&a.stats),
                    deterministic_stats(&b.stats),
                    "stats diverged at threads={threads} size={max_size}"
                );
            }
        }
    }

    #[test]
    fn build_threads_agree_with_one_thread_on_counts_and_best_cost() {
        let one = synth_d().with_build_threads(1);
        let many = synth_d().with_build_threads(8);
        let mut cost = |step: &LoweredStep| {
            step.groups
                .iter()
                .map(|g| g.input_fraction * g.devices.len() as f64)
                .sum::<f64>()
        };
        for max_size in 0..=6 {
            let a = one.count_programs(max_size);
            let b = many.count_programs(max_size);
            assert_eq!(a.total, b.total, "count diverged at size {max_size}");
            assert_eq!(a.by_length, b.by_length);
            assert_eq!(a.stats.states_explored, b.stats.states_explored);
        }
        for max_size in 1..=5 {
            let a = one.best_cost_program(max_size, &mut cost).unwrap();
            let b = many.best_cost_program(max_size, &mut cost).unwrap();
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.program, b.program, "best program diverged at {max_size}");
                    assert_eq!(a.cost, b.cost);
                }
                (None, None) => {}
                (a, b) => panic!("best-cost presence diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn multithreaded_build_over_shared_tables_matches_one_thread() {
        use p2_collectives::SharedTables;
        let one = synth_d().with_build_threads(1);
        let tables = Arc::new(SharedTables::new());
        let many = synth_d()
            .with_shared_tables(Arc::clone(&tables))
            .with_build_threads(4);
        for max_size in 1..=5 {
            let a = one.synthesize(max_size);
            let b = many.synthesize(max_size);
            assert_eq!(a.programs, b.programs, "size {max_size}");
            assert_eq!(
                deterministic_stats(&a.stats),
                deterministic_stats(&b.stats),
                "size {max_size}"
            );
        }
        // A rerun over the now-warm tables still matches and reuses the
        // whole universe (sum of reused + fresh is deterministic even though
        // the split per state is not: everything is present, so every seen
        // insert is a reuse).
        let rerun = synth_d()
            .with_shared_tables(Arc::clone(&tables))
            .with_build_threads(4)
            .synthesize(5);
        assert_eq!(rerun.programs, one.synthesize(5).programs);
        assert_eq!(
            rerun.stats.shared_states_reused,
            rerun.stats.unique_device_states
        );
    }

    #[test]
    fn respects_table_stays_small_under_a_bloated_shared_interner() {
        use p2_collectives::SharedTables;
        // Pre-intern a large population of foreign device states, then run a
        // small search over the same tables: the lazy respects table (and the
        // search results) must be invariant to the foreign states.
        let baseline = synth_d().synthesize(4);
        assert!(baseline.stats.goal_respects_entries > 0);
        assert!(
            baseline.stats.goal_respects_entries <= baseline.stats.unique_device_states,
            "respects rows are only computed for states this search touches"
        );
        let tables = Arc::new(SharedTables::new());
        for devices in 2..=40usize {
            for device in 0..devices {
                tables.intern(State::initial(devices, device));
            }
        }
        let foreign = tables.num_states();
        assert!(foreign > 500);
        let bloated = synth_d()
            .with_shared_tables(Arc::clone(&tables))
            .synthesize(4);
        assert_eq!(baseline.programs, bloated.programs);
        assert_eq!(
            baseline.stats.goal_respects_entries, bloated.stats.goal_respects_entries,
            "foreign interner states must not grow the respects table"
        );
        assert_eq!(
            baseline.stats.unique_device_states,
            bloated.stats.unique_device_states
        );
    }

    #[test]
    fn stats_are_populated() {
        let result = synth_d().synthesize(4);
        assert!(result.stats.instructions_tried > 0);
        assert!(result.stats.states_explored > 0);
        assert!(result.stats.candidate_instructions > 0);
        assert_eq!(result.stats.programs_emitted, result.len());
    }

    #[test]
    fn single_axis_whole_machine_reduction() {
        // One parallelism axis covering a [2, 8] system: reduction over everything.
        let matrix = ParallelismMatrix::new(vec![vec![2, 8]], vec![2, 8], vec![16]).unwrap();
        let s = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let result = s.synthesize(5);
        let signatures: Vec<String> = result.programs.iter().map(|p| p.signature()).collect();
        assert!(signatures.contains(&"AllReduce".to_string()));
        assert!(signatures.contains(&"ReduceScatter-AllReduce-AllGather".to_string()));
        for p in &result.programs {
            let lowered = s.lower(p).unwrap();
            assert!(lowered.groups_are_disjoint());
        }
    }
}
