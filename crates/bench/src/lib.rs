//! Shared plumbing for the benchmark harness: experiment definitions matching
//! the paper's evaluation (§4, §5, appendix) and small formatting helpers.
//!
//! Every table and figure of the paper has a corresponding binary in
//! `src/bin/` (see DESIGN.md §5 for the index); the criterion benches in
//! `benches/` measure the synthesis and simulation throughput reported in the
//! paper's "Synthesis time" / "Simulation time" columns.

#![deny(missing_docs)]

use std::sync::Arc;

use p2_core::{ExperimentResult, P2Builder, P2Config, P2Error, RunObserver, P2};

pub use p2_core::{run_batch, BatchOptions, BatchOutcome};
use p2_cost::{CostModel, CostModelKind, NcclAlgo, StepTimes};
use p2_placement::{for_each_matrix, MatrixControl, ParallelismMatrix};
use p2_synthesis::{EmittedProgram, HierarchyKind, Program, SinkControl, Synthesizer};
use p2_topology::{presets, SystemTopology};

/// Which GPU system a configuration runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Nodes of 16 A100 GPUs behind one NVSwitch and one NIC (Figure 9a).
    A100,
    /// Nodes of 8 V100 GPUs on an NVLink ring (Figure 9b, flattened as in §4).
    V100,
}

impl SystemKind {
    /// Builds the system topology for a node count.
    pub fn system(self, nodes: usize) -> SystemTopology {
        match self {
            SystemKind::A100 => presets::a100_system(nodes),
            SystemKind::V100 => presets::v100_system(nodes),
        }
    }

    /// GPUs per node for this system kind.
    pub fn gpus_per_node(self) -> usize {
        match self {
            SystemKind::A100 => 16,
            SystemKind::V100 => 8,
        }
    }
}

/// One experiment of the paper's evaluation: a system, a node count,
/// parallelism axes, reduction axes and the NCCL algorithm.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Short identifier used in the paper's tables (e.g. `"B"`, `"F"`, `"K1"`).
    pub id: &'static str,
    /// Which GPU system.
    pub system: SystemKind,
    /// Number of nodes.
    pub nodes: usize,
    /// Parallelism axis sizes.
    pub axes: Vec<usize>,
    /// Reduction axis indices.
    pub reduction: Vec<usize>,
    /// NCCL algorithm.
    pub algo: NcclAlgo,
}

impl ExperimentSpec {
    /// Creates a specification.
    pub fn new(
        id: &'static str,
        system: SystemKind,
        nodes: usize,
        axes: Vec<usize>,
        reduction: Vec<usize>,
        algo: NcclAlgo,
    ) -> Self {
        ExperimentSpec {
            id,
            system,
            nodes,
            axes,
            reduction,
            algo,
        }
    }

    /// The per-device buffer the paper uses: `2^29 × nodes` float32 elements.
    pub fn bytes_per_device(&self) -> f64 {
        (1u64 << 29) as f64 * self.nodes as f64 * 4.0
    }

    /// Builds the [`P2Config`] for this experiment.
    pub fn config(&self) -> P2Config {
        P2Config::new(
            self.system.system(self.nodes),
            self.axes.clone(),
            self.reduction.clone(),
        )
        .with_algo(self.algo)
        .with_bytes_per_device(self.bytes_per_device())
        .with_repeats(3)
        .with_seed(0xb2b2)
    }

    /// Starts a session builder preloaded with this experiment's settings
    /// (derived from [`ExperimentSpec::config`], so the two cannot drift),
    /// for callers that want to adjust the mode, retention or thread count
    /// before running.
    pub fn session(&self) -> P2Builder {
        P2Builder::from_config(self.config())
    }

    /// Runs the full pipeline for this experiment.
    ///
    /// # Panics
    ///
    /// Panics if the specification is internally inconsistent (axis product
    /// not matching the device count) — specifications in this crate are
    /// static and known-good.
    pub fn run(&self) -> ExperimentResult {
        self.session().run().expect("pipeline runs")
    }

    /// [`ExperimentSpec::run`] with a [`RunObserver`] receiving the sweep's
    /// progress events (e.g. a [`p2_core::ProgressObserver`] for the long
    /// table sweeps).
    ///
    /// # Panics
    ///
    /// Same as [`ExperimentSpec::run`].
    pub fn run_observed(&self, observer: &dyn RunObserver) -> ExperimentResult {
        self.session()
            .build()
            .expect("spec builds")
            .run_observed(observer)
            .expect("pipeline runs")
    }

    /// A human-readable description, e.g. `"4 nodes each with 16 A100, axes [16, 2, 2]"`.
    pub fn describe(&self) -> String {
        format!(
            "{} nodes each with {} {:?}, axes {:?}, reduce {:?}, {}",
            self.nodes,
            self.system.gpus_per_node(),
            self.system,
            self.axes,
            self.reduction,
            self.algo
        )
    }
}

/// Runs a batch of experiment specifications on **one** work-stealing pool:
/// every spec's placement-evaluation jobs are queued spec-major onto the same
/// scheduler and workers steal across spec boundaries, so the whole batch
/// respects a single global thread budget instead of oversubscribing with
/// nested per-spec pools. Results come back in spec order and are
/// bit-identical to serial per-spec runs, for any thread count.
///
/// `keep_top` bounds the per-placement retention of every spec (`None` runs
/// the exhaustive, keep-everything pipeline). Predictions use the default
/// α–β cost model; use [`run_specs_observed`] to select another model or to
/// watch progress, and [`run_specs_batch`] for the full scheduling knobs
/// (thread budget, steal seed, cross-spec bound/table sharing).
pub fn run_specs(specs: &[ExperimentSpec], keep_top: Option<usize>) -> Vec<ExperimentResult> {
    run_specs_observed(specs, keep_top, CostModelKind::AlphaBeta, &())
}

/// [`run_specs`] with an explicit [`CostModelKind`] (each spec builds the
/// model for its own system) and a [`RunObserver`] shared across every spec's
/// sweep — pair it with a [`p2_core::ProgressObserver`] totalled via
/// [`total_placements`] for aggregate progress/ETA reporting.
pub fn run_specs_observed(
    specs: &[ExperimentSpec],
    keep_top: Option<usize>,
    cost_model: CostModelKind,
    observer: &dyn RunObserver,
) -> Vec<ExperimentResult> {
    run_specs_batch(
        specs,
        keep_top,
        cost_model,
        &BatchOptions::default(),
        observer,
    )
    .expect("specs build and run")
    .results
}

/// The full batch entry point behind [`run_specs`]: builds one session per
/// spec ([`spec_sessions`]) and schedules them with [`p2_core::run_batch`],
/// exposing every [`BatchOptions`] knob and the scheduler telemetry in the
/// returned [`BatchOutcome`].
///
/// # Errors
///
/// Propagates builder validation failures and the first (in spec order)
/// pipeline error.
pub fn run_specs_batch(
    specs: &[ExperimentSpec],
    keep_top: Option<usize>,
    cost_model: CostModelKind,
    options: &BatchOptions,
    observer: &dyn RunObserver,
) -> Result<BatchOutcome, P2Error> {
    let sessions = spec_sessions(specs, keep_top, cost_model)?;
    run_batch(&sessions, options, observer)
}

/// Builds one ready-to-run [`P2`] session per spec, applying the retention
/// bound and cost model the batch entry points take.
///
/// # Errors
///
/// Propagates builder validation failures.
pub fn spec_sessions(
    specs: &[ExperimentSpec],
    keep_top: Option<usize>,
    cost_model: CostModelKind,
) -> Result<Vec<P2>, P2Error> {
    specs
        .iter()
        .map(|spec| {
            let mut session = spec.session().cost_model_kind(cost_model);
            if let Some(k) = keep_top {
                session = session.keep_top(k);
            }
            session.build()
        })
        .collect()
}

/// Parses `--threads N` from command-line arguments, defaulting to `0`
/// (= every available core) when absent — the shared CLI convention of the
/// rack-table and batch binaries.
///
/// # Panics
///
/// Panics with a usage message when `--threads` is present without a valid
/// count.
pub fn threads_from_args(args: &[String]) -> usize {
    match args.iter().position(|a| a == "--threads") {
        None => 0,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("--threads needs a worker count, e.g. --threads 8")),
    }
}

/// The number of placements the specs will sweep in total, without
/// materializing any matrix — the `total` a
/// [`p2_core::ProgressObserver`] needs for its ETA column.
pub fn total_placements(specs: &[ExperimentSpec]) -> usize {
    specs
        .iter()
        .map(|spec| {
            let arities = spec.system.system(spec.nodes).hierarchy().arities();
            for_each_matrix(&arities, &spec.axes, &mut |_: &ParallelismMatrix| {
                MatrixControl::Continue
            })
            .expect("specs are valid")
        })
        .sum()
}

pub use p2_cost::cost_model_from_args;

/// Synthesizes reduction programs for every matrix on `threads` workers
/// (`0` = all cores, `1` = serial) and returns the total program count — the
/// placement × synthesis sweep the criterion `synthesis` bench times serially
/// and in parallel.
///
/// With `keep_top = None` every program set is materialized through
/// [`Synthesizer::synthesize`]; with `Some(k)` the sweep streams through
/// [`Synthesizer::for_each_program`], cloning at most the `k` shortest
/// programs per matrix while still counting every emitted program — the two
/// modes the `streaming_vs_materialized` bench compares. When a [`CostModel`]
/// is supplied, the sweep streams through [`Synthesizer::for_each_lowered`]
/// instead and predicts every program by folding per-step times from a fresh
/// per-matrix [`StepTimes`] — the pipeline's costing path (the `cost_model`
/// bench times exactly this). The returned count is identical in every mode
/// and for any thread count.
pub fn sweep_synthesis(
    matrices: &[ParallelismMatrix],
    reduction: &[usize],
    max_program_size: usize,
    threads: usize,
    keep_top: Option<usize>,
    cost: Option<&Arc<dyn CostModel>>,
) -> usize {
    p2_par::par_map_threads(threads, matrices, |_, m| {
        let synth = Synthesizer::new(m.clone(), reduction.to_vec(), HierarchyKind::ReductionAxes)
            .expect("valid synthesizer");
        // The stream arrives shortest-first, so bounded retention of the k
        // shortest programs is simply "clone the first k".
        let limit = keep_top.unwrap_or(usize::MAX);
        let mut retained: Vec<Program> = Vec::new();
        let mut retain = |program: &Program| {
            if retained.len() < limit {
                retained.push(program.clone());
            }
        };
        match (cost, keep_top) {
            (Some(model), _) => {
                let mut times = StepTimes::new(model.as_ref());
                synth
                    .for_each_lowered(max_program_size, |emitted: &EmittedProgram<'_>| {
                        let predicted = times
                            .program_time(emitted, f64::INFINITY)
                            .expect("no bound prunes");
                        assert!(predicted >= 0.0, "admissibility violated");
                        retain(emitted.program);
                        SinkControl::Continue
                    })
                    .expect("synthesized programs lower")
                    .programs_emitted
            }
            (None, None) => synth.synthesize(max_program_size).programs.len(),
            (None, Some(_)) => {
                synth
                    .for_each_program(max_program_size, &mut |p: &Program| {
                        retain(p);
                        SinkControl::Continue
                    })
                    .programs_emitted
            }
        }
    })
    .into_iter()
    .sum()
}

/// The Table 4 experiment specifications (rows F–L of the paper).
pub fn table4_specs() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::new(
            "F",
            SystemKind::A100,
            2,
            vec![8, 4],
            vec![0],
            NcclAlgo::Ring,
        ),
        ExperimentSpec::new(
            "G",
            SystemKind::A100,
            4,
            vec![4, 16],
            vec![0],
            NcclAlgo::Tree,
        ),
        ExperimentSpec::new(
            "H",
            SystemKind::A100,
            4,
            vec![16, 2, 2],
            vec![0, 2],
            NcclAlgo::Ring,
        ),
        ExperimentSpec::new(
            "I",
            SystemKind::A100,
            4,
            vec![2, 2, 16],
            vec![0, 2],
            NcclAlgo::Ring,
        ),
        ExperimentSpec::new("J", SystemKind::A100, 4, vec![64], vec![0], NcclAlgo::Tree),
        ExperimentSpec::new(
            "K",
            SystemKind::V100,
            4,
            vec![8, 2, 2],
            vec![0, 2],
            NcclAlgo::Ring,
        ),
        ExperimentSpec::new("L", SystemKind::V100, 4, vec![32], vec![0], NcclAlgo::Ring),
    ]
}

/// The Table 3 parallelism-axes groups (A–C on A100, E on V100), evaluated for
/// both reduction axes and both NCCL algorithms.
pub fn table3_specs() -> Vec<(&'static str, SystemKind, usize, Vec<usize>)> {
    vec![
        ("A", SystemKind::A100, 4, vec![2, 32]),
        ("B", SystemKind::A100, 4, vec![4, 16]),
        ("C", SystemKind::A100, 4, vec![8, 8]),
        ("E", SystemKind::V100, 4, vec![8, 4]),
    ]
}

/// The full appendix-table sweep: every parallelism-axes / reduction-axes
/// combination the paper reports, for a given system and node count.
pub fn appendix_axes(system: SystemKind, nodes: usize) -> Vec<(Vec<usize>, Vec<Vec<usize>>)> {
    let devices = nodes * system.gpus_per_node();
    let mut out: Vec<(Vec<usize>, Vec<Vec<usize>>)> = Vec::new();
    // Single axis covering the whole machine.
    out.push((vec![devices], vec![vec![0]]));
    // Two axes [k, devices / k] for every power-of-two split, reducing on each axis.
    let mut k = 2usize;
    while k < devices {
        out.push((vec![k, devices / k], vec![vec![0], vec![1]]));
        k *= 2;
    }
    // Three-axis combinations reducing on the 0th and 2nd axes, as in the paper.
    let three_axis: &[Vec<usize>] = match (system, nodes) {
        (SystemKind::A100, 4) => &[vec![16, 2, 2], vec![8, 2, 4], vec![4, 2, 8], vec![2, 2, 16]],
        (SystemKind::V100, 4) => &[vec![2, 2, 8], vec![8, 2, 2]],
        _ => &[],
    };
    for axes in three_axis {
        out.push((axes.clone(), vec![vec![0, 2]]));
    }
    out
}

/// Formats seconds with three decimals, using a dash for non-finite values.
pub fn fmt_s(seconds: f64) -> String {
    if seconds.is_finite() {
        format!("{seconds:.3}")
    } else {
        "-".to_string()
    }
}

/// Formats a speedup as `1.23x`.
pub fn fmt_speedup(speedup: f64) -> String {
    format!("{speedup:.2}x")
}

/// Aggregate statistics across experiments for the paper's Result 5 headline:
/// the fraction of mappings whose best synthesized program beats AllReduce,
/// plus the average and maximum speedup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpeedupSummary {
    /// Number of (mapping, reduction) combinations considered.
    pub mappings: usize,
    /// Mappings where some synthesized program strictly beats AllReduce.
    pub improved: usize,
    /// Average speedup over all mappings (1.0 counted when nothing improved).
    pub average_speedup: f64,
    /// Maximum speedup observed.
    pub max_speedup: f64,
}

impl SpeedupSummary {
    /// Accumulates the placements of an experiment result.
    pub fn add(&mut self, result: &ExperimentResult) {
        for placement in &result.placements {
            self.mappings += 1;
            if placement.programs_beating_allreduce() > 0 {
                self.improved += 1;
            }
            let speedup = placement.speedup();
            self.max_speedup = self.max_speedup.max(speedup);
            // Incremental mean.
            self.average_speedup += (speedup - self.average_speedup) / self.mappings as f64;
        }
    }

    /// The fraction of mappings improved by synthesis.
    pub fn improved_fraction(&self) -> f64 {
        if self.mappings == 0 {
            0.0
        } else {
            self.improved as f64 / self.mappings as f64
        }
    }
}

impl std::fmt::Display for SpeedupSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} mappings improved ({:.0}%), average speedup {:.2}x, max {:.2}x",
            self.improved,
            self.mappings,
            self.improved_fraction() * 100.0,
            self.average_speedup,
            self.max_speedup
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_core::P2;

    #[test]
    fn specs_are_consistent_with_their_systems() {
        for spec in table4_specs() {
            let devices = spec.system.system(spec.nodes).num_devices();
            let product: usize = spec.axes.iter().product();
            assert_eq!(
                devices, product,
                "spec {} axes do not cover the system",
                spec.id
            );
            assert!(spec.config().validate().is_ok());
            assert!(spec.describe().contains("nodes"));
        }
    }

    #[test]
    fn appendix_sweep_axes_cover_their_machines() {
        for (system, nodes) in [
            (SystemKind::A100, 2),
            (SystemKind::A100, 4),
            (SystemKind::V100, 2),
            (SystemKind::V100, 4),
        ] {
            let devices = nodes * system.gpus_per_node();
            for (axes, reductions) in appendix_axes(system, nodes) {
                assert_eq!(axes.iter().product::<usize>(), devices);
                assert!(!reductions.is_empty());
                for r in reductions {
                    assert!(r.iter().all(|&a| a < axes.len()));
                }
            }
        }
    }

    #[test]
    fn speedup_summary_aggregates() {
        let spec = ExperimentSpec::new(
            "tiny",
            SystemKind::A100,
            2,
            vec![8, 4],
            vec![0],
            NcclAlgo::Ring,
        );
        // Use a small buffer to keep the test fast.
        let config = spec.config().with_bytes_per_device(1.0e8).with_repeats(1);
        let result = P2::new(config).unwrap().run().unwrap();
        let mut summary = SpeedupSummary::default();
        summary.add(&result);
        assert_eq!(summary.mappings, result.placements.len());
        assert!(summary.max_speedup >= 1.0);
        assert!(summary.average_speedup >= 1.0);
        assert!(!summary.to_string().is_empty());
    }

    #[test]
    fn parallel_spec_runs_match_serial_runs() {
        let spec = ExperimentSpec::new(
            "tiny",
            SystemKind::A100,
            2,
            vec![8, 4],
            vec![0],
            NcclAlgo::Ring,
        );
        let serial = P2::new(spec.config().with_threads(1))
            .unwrap()
            .run()
            .unwrap();
        let parallel = &run_specs(std::slice::from_ref(&spec), None)[0];
        assert_eq!(serial.placements.len(), parallel.placements.len());
        for (a, b) in serial.placements.iter().zip(&parallel.placements) {
            assert_eq!(a.matrix.to_string(), b.matrix.to_string());
            assert_eq!(a.allreduce_measured, b.allreduce_measured);
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.signature(), pb.signature());
                assert_eq!(pa.measured_seconds, pb.measured_seconds);
                assert_eq!(pa.predicted_seconds, pb.predicted_seconds);
            }
        }
    }

    #[test]
    fn sweep_synthesis_thread_count_and_retention_do_not_change_the_count() {
        let matrices = p2_placement::enumerate_matrices(&[2, 16], &[8, 4]).expect("valid config");
        let serial = sweep_synthesis(&matrices, &[0], 4, 1, None, None);
        assert!(serial > 0);
        for threads in [0, 2, 4] {
            assert_eq!(
                serial,
                sweep_synthesis(&matrices, &[0], 4, threads, None, None)
            );
        }
        // Streaming with bounded retention counts exactly the same programs.
        for keep_top in [1, 10, usize::MAX] {
            assert_eq!(
                serial,
                sweep_synthesis(&matrices, &[0], 4, 1, Some(keep_top), None)
            );
        }
        // Costing the stream through a cached model changes nothing either.
        let config = P2Config::new(SystemKind::A100.system(2), vec![8, 4], vec![0]);
        let model = config.make_cost_model(CostModelKind::AlphaBeta).unwrap();
        assert_eq!(
            serial,
            sweep_synthesis(&matrices, &[0], 4, 2, Some(10), Some(&model))
        );
    }

    #[test]
    fn total_placements_matches_the_materialized_enumeration() {
        let specs = table4_specs();
        let expected: usize = specs
            .iter()
            .map(|spec| {
                let arities = spec.system.system(spec.nodes).hierarchy().arities();
                p2_placement::enumerate_matrices(&arities, &spec.axes)
                    .expect("valid spec")
                    .len()
            })
            .sum();
        assert_eq!(total_placements(&specs), expected);
    }

    #[test]
    fn bounded_run_specs_retain_fewer_but_agree_on_the_best_program() {
        let spec = ExperimentSpec::new(
            "tiny",
            SystemKind::A100,
            2,
            vec![8, 4],
            vec![0],
            NcclAlgo::Ring,
        );
        let exhaustive = &run_specs(std::slice::from_ref(&spec), None)[0];
        let bounded = &run_specs(std::slice::from_ref(&spec), Some(3))[0];
        assert_eq!(exhaustive.total_programs(), bounded.total_programs());
        assert!(bounded.total_programs_retained() < exhaustive.total_programs_retained());
        assert!(bounded.total_programs_pruned() > 0);
        let a = exhaustive.best_overall().unwrap();
        let b = bounded.best_overall().unwrap();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.measured_seconds, b.measured_seconds);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_s(1.23456), "1.235");
        assert_eq!(fmt_s(f64::INFINITY), "-");
        assert_eq!(fmt_speedup(1.5), "1.50x");
    }
}
