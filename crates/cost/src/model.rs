//! The `CostModel` trait: pluggable prediction of lowered-program time, plus
//! the incremental [`CostAccumulator`] and the per-search [`StepTimes`] memo
//! used for admissible prefix pruning.

use std::fmt;
use std::str::FromStr;

use p2_collectives::Collective;
use p2_synthesis::{EmittedProgram, LoweredProgram, LoweredStep};
use p2_topology::SystemTopology;

use crate::error::CostError;

/// Predicted cost of one step of a lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCost {
    /// The collective performed by the step.
    pub collective: Collective,
    /// Predicted time of the step: the maximum over its concurrent groups.
    pub seconds: f64,
    /// Predicted time of every group of the step.
    pub group_seconds: Vec<f64>,
}

/// Predicted cost of a whole program, step by step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostBreakdown {
    /// Per-step costs, in program order.
    pub steps: Vec<StepCost>,
}

impl CostBreakdown {
    /// Total predicted time: the step times folded with `+` from `+0.0` in
    /// program order (so an empty breakdown totals `+0.0`).
    pub fn total(&self) -> f64 {
        self.steps.iter().fold(0.0, |acc, s| acc + s.seconds)
    }
}

/// A performance model predicting the time of lowered reduction programs on a
/// hierarchical system — the pluggable face of the paper's analytic simulator.
///
/// Implementations provide [`step_cost`](CostModel::step_cost); everything
/// else has a default in terms of it. The built-in implementations are
/// [`AlphaBetaModel`](crate::AlphaBetaModel) (the paper's α–β model, the
/// default), [`LogGpModel`](crate::LogGpModel),
/// [`CalibratedModel`](crate::CalibratedModel) and the
/// [`CachedCostModel`](crate::CachedCostModel) decorator; they are selected
/// by name through [`CostModelKind`].
///
/// # Admissibility requirement
///
/// The streaming pipeline prunes candidates by comparing the *prefix* sums a
/// [`StepTimes`] fold (or a [`CostAccumulator`]) produces against an upper
/// bound, and drops a candidate as soon as a prefix exceeds the bound. For that to be sound, every
/// implementation **must** guarantee:
///
/// 1. **Non-negative step times** — `step_time` never returns a negative or
///    NaN value, so the running sum never decreases; and
/// 2. **Additivity** — `program_time` equals folding the per-step times with
///    `+` from `+0.0` in program order (the default implementation does
///    exactly this; overrides must preserve it bit for bit, since the
///    determinism suite compares accumulated prefixes against totals with
///    `==`).
///
/// Together these make every prefix sum an *admissible lower bound* on the
/// whole program's predicted time: a candidate whose prefix already exceeds
/// the bound cannot come back under it.
///
/// Models are shared across the worker threads of the placement sweep
/// (`Send + Sync`) and must be deterministic: the same step must always
/// predict the same bits, regardless of call order or thread count.
pub trait CostModel: fmt::Debug + Send + Sync {
    /// A short machine-readable name (e.g. `"alpha-beta"`), used by CLIs and
    /// progress output.
    fn name(&self) -> &str;

    /// The system this model predicts for.
    fn system(&self) -> &SystemTopology;

    /// The per-device buffer size in bytes the predictions assume.
    fn bytes_per_device(&self) -> f64;

    /// Per-group prediction for one step (the primitive operation).
    fn step_cost(&self, step: &LoweredStep) -> StepCost;

    /// Predicted time of one step (the maximum over its concurrent groups).
    fn step_time(&self, step: &LoweredStep) -> f64 {
        self.step_cost(step).seconds
    }

    /// Predicted time of a whole lowered program, in seconds: the per-step
    /// times folded with `+` from `+0.0` in program order (see the trait-level
    /// admissibility requirement before overriding).
    fn program_time(&self, program: &LoweredProgram) -> f64 {
        program
            .steps
            .iter()
            .fold(0.0, |acc, s| acc + self.step_time(s))
    }

    /// Per-step prediction for a lowered program.
    fn program_breakdown(&self, program: &LoweredProgram) -> CostBreakdown {
        CostBreakdown {
            steps: program.steps.iter().map(|s| self.step_cost(s)).collect(),
        }
    }

    /// Validates that a program only references devices of this model's
    /// system.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::DeviceOutOfRange`] for the first offending rank.
    fn validate_program(&self, program: &LoweredProgram) -> Result<(), CostError> {
        let num_devices = self.system().num_devices();
        for step in &program.steps {
            for group in &step.groups {
                for &d in &group.devices {
                    if d >= num_devices {
                        return Err(CostError::DeviceOutOfRange {
                            rank: d,
                            num_devices,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Starts an incremental [`CostAccumulator`] over this model.
    fn accumulator(&self) -> CostAccumulator<'_>
    where
        Self: Sized,
    {
        CostAccumulator::new(self)
    }
}

/// Incremental prefix costing for a lowered program: the running sum of the
/// step times pushed so far.
///
/// Step times are non-negative (a [`CostModel`] invariant), so after any
/// prefix the accumulated value is an *admissible lower bound* on the whole
/// program's predicted time — the streaming pipeline uses it to prune
/// candidates before measuring them. Pushing every step of a program
/// accumulates, bit for bit, the same value as [`CostModel::program_time`]:
/// both fold the identical per-step times with `+` from `0.0` in program
/// order.
#[derive(Debug, Clone)]
pub struct CostAccumulator<'m> {
    model: &'m dyn CostModel,
    seconds: f64,
    steps: usize,
}

impl<'m> CostAccumulator<'m> {
    /// Creates an empty accumulator over `model`.
    pub fn new(model: &'m dyn CostModel) -> Self {
        CostAccumulator {
            model,
            seconds: 0.0,
            steps: 0,
        }
    }

    /// Adds one step's predicted time and returns the running total.
    pub fn push(&mut self, step: &LoweredStep) -> f64 {
        self.seconds += self.model.step_time(step);
        self.steps += 1;
        self.seconds
    }

    /// The accumulated predicted time of the steps pushed so far, in seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// How many steps have been pushed.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether the accumulated prefix already exceeds `bound` — once true, the
    /// whole program's predicted time is guaranteed to exceed it too.
    pub fn exceeds(&self, bound: f64) -> bool {
        self.seconds > bound
    }
}

/// Predicted times of one search's distinct lowered steps, indexed by the
/// step ids of [`Synthesizer::for_each_lowered`](p2_synthesis::Synthesizer::for_each_lowered).
///
/// A step is predicted the first time a program prefix reaches it and then
/// reused by every program through it, so prediction scales with the search
/// DAG rather than the program count; steps reached only past a pruned
/// prefix are never predicted. [`StepTimes::program_time`] folds exactly the
/// values [`CostModel::program_time`] would, in the same order, so the totals
/// are bit-identical.
#[derive(Debug)]
pub struct StepTimes<'m> {
    model: &'m dyn CostModel,
    times: Vec<Option<f64>>,
}

impl<'m> StepTimes<'m> {
    /// An empty memo over `model`.
    pub fn new(model: &'m dyn CostModel) -> Self {
        StepTimes {
            model,
            times: Vec::new(),
        }
    }

    /// The predicted time of `program`: its step times folded with `+` from
    /// `+0.0` in program order. Returns `None` as soon as a prefix exceeds
    /// `bound` (pass `f64::INFINITY` for no bound); steps past that prefix
    /// are not predicted.
    pub fn program_time(&mut self, program: &EmittedProgram<'_>, bound: f64) -> Option<f64> {
        let mut seconds = 0.0;
        for &id in program.step_ids {
            if id >= self.times.len() {
                self.times.resize(id + 1, None);
            }
            let model = self.model;
            seconds += *self.times[id].get_or_insert_with(|| model.step_time(&program.table[id]));
            if seconds > bound {
                return None;
            }
        }
        Some(seconds)
    }
}

/// The built-in cost models, selectable by name (e.g. from a `--cost-model`
/// CLI flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModelKind {
    /// The paper's α–β model with per-uplink contention
    /// ([`AlphaBetaModel`](crate::AlphaBetaModel)) — the default.
    AlphaBeta,
    /// The LogGP-style model with per-message overhead and gap terms
    /// ([`LogGpModel`](crate::LogGpModel)).
    LogGp,
    /// The α–β model with per-level terms rescaled from execution-substrate
    /// measurements ([`CalibratedModel`](crate::CalibratedModel)).
    Calibrated,
}

impl CostModelKind {
    /// Every built-in kind, in display order.
    pub const ALL: [CostModelKind; 3] = [
        CostModelKind::AlphaBeta,
        CostModelKind::LogGp,
        CostModelKind::Calibrated,
    ];

    /// The CLI name of the kind (`"alpha-beta"`, `"loggp"`, `"calibrated"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CostModelKind::AlphaBeta => "alpha-beta",
            CostModelKind::LogGp => "loggp",
            CostModelKind::Calibrated => "calibrated",
        }
    }

    /// Reads a `--cost-model <name>` (or `--cost-model=<name>`) flag from an
    /// argument iterator, defaulting to the α–β model when the flag is
    /// absent. The fallible core of [`CostModelKind::from_args`], for hosts
    /// that must not have their process exited for them.
    ///
    /// # Errors
    ///
    /// [`CostError::UnknownModel`] for unknown names or a missing value.
    pub fn try_from_args<I>(args: I) -> Result<CostModelKind, CostError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            if let Some(name) = arg.strip_prefix("--cost-model=") {
                return name.parse();
            }
            if arg == "--cost-model" {
                let Some(name) = args.next() else {
                    return Err(CostError::UnknownModel {
                        name: "<missing value>".into(),
                    });
                };
                return name.as_ref().parse();
            }
        }
        Ok(CostModelKind::AlphaBeta)
    }

    /// [`CostModelKind::try_from_args`] over the process arguments, exiting
    /// with a usage message on bad input — the uniform CLI front door every
    /// paper-artifact binary and example shares. Library embedders should
    /// call [`CostModelKind::try_from_args`] instead.
    pub fn from_args() -> CostModelKind {
        CostModelKind::try_from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e} (expected --cost-model alpha-beta|loggp|calibrated)");
            std::process::exit(2);
        })
    }
}

/// [`CostModelKind::from_args`] as a free function, for call sites that read
/// better without the type name.
pub fn cost_model_from_args() -> CostModelKind {
    CostModelKind::from_args()
}

impl fmt::Display for CostModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CostModelKind {
    type Err = CostError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "alpha-beta" | "alphabeta" | "ab" => Ok(CostModelKind::AlphaBeta),
            "loggp" | "log-gp" => Ok(CostModelKind::LogGp),
            "calibrated" | "cal" => Ok(CostModelKind::Calibrated),
            _ => Err(CostError::UnknownModel { name: s.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use p2_placement::ParallelismMatrix;
    use p2_synthesis::{HierarchyKind, Program, SinkControl, Synthesizer};
    use p2_topology::presets;

    use crate::{AlphaBetaModel, NcclAlgo};

    fn alpha_beta() -> AlphaBetaModel {
        AlphaBetaModel::new(presets::a100_system(2), NcclAlgo::Ring, 1.0e9).unwrap()
    }

    /// Counts the step predictions it serves.
    #[derive(Debug)]
    struct Counting {
        inner: AlphaBetaModel,
        calls: AtomicUsize,
    }

    impl CostModel for Counting {
        fn name(&self) -> &str {
            "counting"
        }

        fn system(&self) -> &SystemTopology {
            self.inner.system()
        }

        fn bytes_per_device(&self) -> f64 {
            self.inner.bytes_per_device()
        }

        fn step_cost(&self, step: &LoweredStep) -> StepCost {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.step_cost(step)
        }
    }

    #[test]
    fn zero_step_programs_predict_positive_zero() {
        let model = alpha_beta();
        let empty = LoweredProgram {
            steps: vec![],
            num_devices: 32,
        };
        let zero = 0.0f64.to_bits();
        assert_eq!(model.program_time(&empty).to_bits(), zero);
        assert_eq!(model.program_breakdown(&empty).total().to_bits(), zero);
        assert_eq!(CostAccumulator::new(&model).seconds().to_bits(), zero);
        let program = Program::empty();
        let emitted = EmittedProgram {
            program: &program,
            step_ids: &[],
            table: &[],
            num_devices: 32,
        };
        let folded = StepTimes::new(&model).program_time(&emitted, f64::INFINITY);
        assert_eq!(folded.map(f64::to_bits), Some(zero));
    }

    #[test]
    fn step_times_fold_like_program_time_predicting_each_step_once() {
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 4], vec![1, 4]], vec![2, 16], vec![8, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let counting = Counting {
            inner: alpha_beta(),
            calls: AtomicUsize::new(0),
        };
        let reference = alpha_beta();
        let mut times = StepTimes::new(&counting);
        let mut table_len = 0;
        synth
            .for_each_lowered(4, |emitted: &EmittedProgram<'_>| {
                let lowered = emitted.to_lowered();
                let folded = times.program_time(emitted, f64::INFINITY).unwrap();
                assert_eq!(folded.to_bits(), reference.program_time(&lowered).to_bits());
                // A bound below the first step's time cuts the fold there.
                let first = reference.step_time(&lowered.steps[0]);
                assert_eq!(times.program_time(emitted, first * 0.5), None);
                table_len = emitted.table.len();
                SinkControl::Continue
            })
            .unwrap();
        assert_eq!(counting.calls.load(Ordering::Relaxed), table_len);
    }

    #[test]
    fn try_from_args_parses_both_flag_forms() {
        let parse = |args: &[&str]| CostModelKind::try_from_args(args.iter().copied());
        assert_eq!(parse(&[]).unwrap(), CostModelKind::AlphaBeta);
        assert_eq!(
            parse(&["--cost-model", "loggp"]).unwrap(),
            CostModelKind::LogGp
        );
        assert_eq!(
            parse(&["x", "--cost-model=calibrated"]).unwrap(),
            CostModelKind::Calibrated
        );
        assert!(parse(&["--cost-model", "bogus"]).is_err());
        assert!(parse(&["--cost-model"]).is_err());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in CostModelKind::ALL {
            assert_eq!(kind.as_str().parse::<CostModelKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!(matches!(
            "no-such-model".parse::<CostModelKind>(),
            Err(CostError::UnknownModel { .. })
        ));
    }
}
