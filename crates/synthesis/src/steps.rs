//! Per-edge lowering: the table of distinct lowered steps one search
//! resolves its DAG edges to, and the program view the lowered stream hands
//! to its sink.

use std::time::{Duration, Instant};

use p2_collectives::FxHashMap;

use crate::context::SynthesisContext;
use crate::dsl::{Instruction, Program};
use crate::error::SynthesisError;
use crate::lowered::{LoweredProgram, LoweredStep};
use crate::synthesizer::SynthesisStats;

/// A candidate instruction with the synthesis-space groups it derives.
pub(crate) type Candidate = (Instruction, Vec<Vec<usize>>);

/// The distinct lowered steps of one search, indexed by dense step ids in
/// first-resolution order.
///
/// An edge's lowered step is fully determined by its candidate instruction
/// and the pre-state's participating device states (a group's input fraction
/// is the maximum of its members' data fractions), so a step is lowered once
/// per distinct `(candidate, participant state ids)` key, however many edges
/// and programs run through it. Interned ids are canonical, so the partition
/// of edges into steps — and the id order, which follows the serial
/// emission — is the same for any thread count or shared-table state.
pub(crate) struct StepTable<'a> {
    ctx: &'a SynthesisContext,
    candidates: &'a [Candidate],
    /// Per synthesis state: its interned device-state id tuple.
    tuples: &'a [Box<[u32]>],
    /// Data fraction of every device-state id appearing in `tuples`.
    fractions: &'a FxHashMap<u32, f64>,
    /// `(candidate, participant ids)` key → step id.
    index: FxHashMap<Box<[u32]>, usize>,
    steps: Vec<LoweredStep>,
    /// Scratch key, reused by every lookup.
    key: Vec<u32>,
    lower_duration: Duration,
}

impl<'a> StepTable<'a> {
    pub(crate) fn new(
        ctx: &'a SynthesisContext,
        candidates: &'a [Candidate],
        tuples: &'a [Box<[u32]>],
        fractions: &'a FxHashMap<u32, f64>,
    ) -> Self {
        StepTable {
            ctx,
            candidates,
            tuples,
            fractions,
            index: FxHashMap::default(),
            steps: Vec::new(),
            key: Vec::new(),
            lower_duration: Duration::ZERO,
        }
    }

    /// The id of the step the edge `candidate` out of synthesis state
    /// `state` lowers to, lowering it the first time its key is seen.
    pub(crate) fn resolve(
        &mut self,
        state: usize,
        candidate: usize,
    ) -> Result<usize, SynthesisError> {
        let tuple = &self.tuples[state];
        let (instr, groups) = &self.candidates[candidate];
        self.key.clear();
        self.key
            .push(u32::try_from(candidate).expect("candidate index fits u32"));
        self.key.extend(groups.iter().flatten().map(|&d| tuple[d]));
        if let Some(&id) = self.index.get(self.key.as_slice()) {
            return Ok(id);
        }
        let started = Instant::now();
        let fractions = self.fractions;
        let step = self
            .ctx
            .lower_step(instr, &mut |idx| fractions[&tuple[idx]])?;
        self.lower_duration += started.elapsed();
        let id = self.steps.len();
        self.steps.push(step);
        self.index.insert(self.key.as_slice().into(), id);
        Ok(id)
    }

    /// The steps lowered so far, by id.
    pub(crate) fn steps(&self) -> &[LoweredStep] {
        &self.steps
    }

    /// Records the table's size and lowering time in `stats`.
    pub(crate) fn finish(self, stats: &mut SynthesisStats) {
        stats.lowered_steps = self.steps.len();
        stats.lower_duration = self.lower_duration;
    }
}

/// One program of [`Synthesizer::for_each_lowered`](crate::Synthesizer::for_each_lowered)'s
/// stream, together with its lowered steps as ids into the search's step
/// table. Valid for the duration of the sink call.
#[derive(Debug, Clone, Copy)]
pub struct EmittedProgram<'a> {
    /// The DSL program.
    pub program: &'a Program,
    /// Per instruction, in order: the id of its lowered step in `table`.
    pub step_ids: &'a [usize],
    /// Every distinct step the search has lowered so far, indexed by step
    /// id. Ids are dense and assigned in first-use order, so a sink can keep
    /// per-step data (a predicted time, say) in a vector indexed by id.
    pub table: &'a [LoweredStep],
    /// Number of physical devices of the system the steps target.
    pub num_devices: usize,
}

impl<'a> EmittedProgram<'a> {
    /// The program's lowered steps, in program order.
    pub fn steps(&self) -> impl Iterator<Item = &'a LoweredStep> + 'a {
        let table = self.table;
        self.step_ids.iter().map(move |&id| &table[id])
    }

    /// Clones the steps into a [`LoweredProgram`], equal to what
    /// [`Synthesizer::lower`](crate::Synthesizer::lower) returns for the
    /// program.
    pub fn to_lowered(&self) -> LoweredProgram {
        LoweredProgram {
            steps: self.steps().cloned().collect(),
            num_devices: self.num_devices,
        }
    }
}
