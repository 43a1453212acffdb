use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use p2_placement::ParallelismMatrix;
use p2_synthesis::{LoweredProgram, LoweredStep, Program};

/// One synthesized program together with its predicted and measured times.
///
/// The program's lowering is not copied out of the search: it is a list of
/// step ids into its placement's frozen step table, an `Arc` every retained
/// program of the placement shares. [`ProgramEvaluation::steps`] walks the
/// lowered steps in place and [`ProgramEvaluation::lowered`] assembles a
/// [`LoweredProgram`] on demand.
#[derive(Clone)]
pub struct ProgramEvaluation {
    /// The DSL program.
    pub program: Program,
    /// Per instruction, in order: the id of its lowered step in `table`.
    step_ids: Box<[usize]>,
    /// The placement's distinct lowered steps, shared by its programs.
    table: Arc<[LoweredStep]>,
    /// Number of physical devices of the system the steps target.
    num_devices: usize,
    /// Time predicted by the analytic cost model (the paper's simulator), in seconds.
    pub predicted_seconds: f64,
    /// Time reported by the execution substrate (the paper's measurement), in seconds.
    pub measured_seconds: f64,
}

impl ProgramEvaluation {
    /// An evaluation of `program`, whose lowered steps are `table[id]` for
    /// each of `step_ids` in order, on a system of `num_devices` devices.
    pub(crate) fn new(
        program: Program,
        step_ids: Box<[usize]>,
        table: Arc<[LoweredStep]>,
        num_devices: usize,
        predicted_seconds: f64,
        measured_seconds: f64,
    ) -> Self {
        debug_assert!(step_ids.iter().all(|&id| id < table.len()));
        ProgramEvaluation {
            program,
            step_ids,
            table,
            num_devices,
            predicted_seconds,
            measured_seconds,
        }
    }

    /// The program's lowered steps, in program order, read in place from its
    /// placement's step table.
    pub fn steps(&self) -> impl Iterator<Item = &LoweredStep> + Clone + '_ {
        self.step_ids.iter().map(|&id| &self.table[id])
    }

    /// Per instruction, in order: the id of its lowered step in
    /// [`ProgramEvaluation::table`].
    pub fn step_ids(&self) -> &[usize] {
        &self.step_ids
    }

    /// The step table of the program's placement, shared by every program
    /// the placement retained.
    pub fn table(&self) -> &Arc<[LoweredStep]> {
        &self.table
    }

    /// The program's lowering to physical device groups, copied out of the
    /// step table.
    pub fn lowered(&self) -> LoweredProgram {
        LoweredProgram {
            steps: self.steps().cloned().collect(),
            num_devices: self.num_devices,
        }
    }

    /// The `Collective-Collective-…` signature of the program.
    pub fn signature(&self) -> String {
        self.steps()
            .map(|step| step.collective.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }
}

impl fmt::Debug for ProgramEvaluation {
    /// Prints the program's own steps, not its placement's whole table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramEvaluation")
            .field("program", &self.program)
            .field("steps", &self.steps().collect::<Vec<_>>())
            .field("num_devices", &self.num_devices)
            .field("predicted_seconds", &self.predicted_seconds)
            .field("measured_seconds", &self.measured_seconds)
            .finish()
    }
}

/// Everything P² produced for one parallelism matrix: the synthesized
/// programs, the AllReduce baseline, and the synthesis statistics.
#[derive(Debug, Clone)]
pub struct PlacementEvaluation {
    /// The parallelism matrix (placement).
    pub matrix: ParallelismMatrix,
    /// Wall-clock time spent synthesizing programs for this placement.
    /// Synthesis and evaluation are interleaved on the program stream, so
    /// this is the stream's wall-clock minus the time spent lowering each
    /// distinct step, costing and measuring — the quantity the paper's
    /// "Synthesis time" columns report.
    pub synthesis_time: Duration,
    /// Number of synthesized programs (every program the stream emitted,
    /// including ones later pruned or displaced from the top-K retention).
    pub num_programs: usize,
    /// Programs not retained as evaluations: cut early by the cost bound
    /// (never costed in full, never measured) or displaced from the top-K
    /// heap (in eagerly-measuring runs these were measured before eviction).
    /// Zero when `keep_top = None`: only a retention bound prunes (see
    /// [`P2Config::prune_slack`](crate::P2Config::prune_slack)).
    pub programs_pruned: usize,
    /// Programs retained as full [`ProgramEvaluation`]s (`programs.len()`).
    pub programs_retained: usize,
    /// Distinct synthesis-space states the search expanded for this
    /// placement — the size of the memoized search DAG.
    pub states_explored: usize,
    /// Distinct device states in this placement's search universe: distinct
    /// `k × k` state matrices hash-consed across the whole DAG build (the
    /// peak size a private interner would reach — identical whether the sweep
    /// shares its interner or not).
    pub unique_device_states: usize,
    /// Suffix-memo entries answered without recomputation during emission.
    pub suffix_memo_hits: usize,
    /// Suffix-memo entries computed for the first time during emission.
    pub suffix_memo_misses: usize,
    /// Device states this placement found already interned in the sweep's
    /// shared tables (0 when the sweep runs with private tables; under a
    /// parallel sweep the value depends on worker interleaving).
    pub shared_states_reused: usize,
    /// Predicted time of the single-step AllReduce baseline.
    pub allreduce_predicted: f64,
    /// Measured time of the single-step AllReduce baseline.
    pub allreduce_measured: f64,
    /// Every synthesized program, sorted by measured time (fastest first).
    pub programs: Vec<ProgramEvaluation>,
}

impl PlacementEvaluation {
    /// The program with the lowest measured time, if any.
    pub fn best_measured(&self) -> Option<&ProgramEvaluation> {
        self.programs
            .iter()
            .min_by(|a, b| a.measured_seconds.total_cmp(&b.measured_seconds))
    }

    /// The program the simulator would pick (lowest predicted time), if any.
    pub fn best_predicted(&self) -> Option<&ProgramEvaluation> {
        self.programs
            .iter()
            .min_by(|a, b| a.predicted_seconds.total_cmp(&b.predicted_seconds))
    }

    /// Measured speedup of the best program over the AllReduce baseline
    /// (1.0 when nothing beats AllReduce, as in the paper's tables).
    pub fn speedup(&self) -> f64 {
        match self.best_measured() {
            Some(best) if best.measured_seconds > 0.0 => {
                (self.allreduce_measured / best.measured_seconds).max(1.0)
            }
            _ => 1.0,
        }
    }

    /// How many synthesized programs strictly outperform the AllReduce
    /// baseline in measured time.
    pub fn programs_beating_allreduce(&self) -> usize {
        self.programs
            .iter()
            .filter(|p| p.measured_seconds < self.allreduce_measured)
            .count()
    }

    /// Measured time of the best program (the "Optimal" column of Table 4),
    /// falling back to the AllReduce baseline when no program was synthesized.
    pub fn optimal_measured(&self) -> f64 {
        self.best_measured()
            .map(|p| p.measured_seconds.min(self.allreduce_measured))
            .unwrap_or(self.allreduce_measured)
    }
}

/// The outcome of one end-to-end experiment (one system, parallelism axes,
/// reduction axes and NCCL algorithm): every placement with every synthesized
/// program, predicted and measured.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Human-readable experiment label.
    pub label: String,
    /// Parallelism axis sizes.
    pub parallelism_axes: Vec<usize>,
    /// Reduction axis indices.
    pub reduction_axes: Vec<usize>,
    /// Per-placement results, in enumeration order.
    pub placements: Vec<PlacementEvaluation>,
    /// Total wall-clock synthesis time across placements.
    pub synthesis_time: Duration,
    /// Final size of the sweep-shared device-state interner, when the sweep
    /// owned shared tables (`None` with private per-placement interners or
    /// borrowed [`P2Config::shared_tables`](crate::P2Config::shared_tables)).
    /// Deterministic for any worker count: it is the size of the set union of
    /// the per-placement universes.
    pub shared_unique_device_states: Option<usize>,
}

impl ExperimentResult {
    /// Total number of synthesized programs across all placements.
    pub fn total_programs(&self) -> usize {
        self.placements.iter().map(|p| p.num_programs).sum()
    }

    /// Total number of programs dropped by cost-bound pruning or top-K
    /// displacement across all placements.
    pub fn total_programs_pruned(&self) -> usize {
        self.placements.iter().map(|p| p.programs_pruned).sum()
    }

    /// Total number of retained [`ProgramEvaluation`]s across all placements.
    pub fn total_programs_retained(&self) -> usize {
        self.placements.iter().map(|p| p.programs_retained).sum()
    }

    /// Total number of distinct synthesis-space states explored across all
    /// placements (the combined size of the memoized search DAGs).
    pub fn total_states_explored(&self) -> usize {
        self.placements.iter().map(|p| p.states_explored).sum()
    }

    /// The peak interner size a regression watcher should track: the final
    /// size of the sweep-shared interner when the sweep shared one (counting
    /// each device state once across all placements), otherwise the largest
    /// per-placement interner the sweep built.
    pub fn peak_unique_device_states(&self) -> usize {
        self.shared_unique_device_states.unwrap_or_else(|| {
            self.placements
                .iter()
                .map(|p| p.unique_device_states)
                .max()
                .unwrap_or(0)
        })
    }

    /// Total suffix-memo hits across placements (suffixes whose completion
    /// counts were reused during emission).
    pub fn total_suffix_memo_hits(&self) -> usize {
        self.placements.iter().map(|p| p.suffix_memo_hits).sum()
    }

    /// Total suffix-memo entries computed across placements.
    pub fn total_suffix_memo_misses(&self) -> usize {
        self.placements.iter().map(|p| p.suffix_memo_misses).sum()
    }

    /// Total device states placements found already present in the sweep's
    /// shared tables (0 when the sweep ran with private interners).
    pub fn total_shared_states_reused(&self) -> usize {
        self.placements.iter().map(|p| p.shared_states_reused).sum()
    }

    /// Total number of programs that beat their placement's AllReduce baseline.
    pub fn total_programs_beating_allreduce(&self) -> usize {
        self.placements
            .iter()
            .map(PlacementEvaluation::programs_beating_allreduce)
            .sum()
    }

    /// The placement whose AllReduce baseline is fastest (the bold "AllReduce"
    /// column of Table 4).
    pub fn best_allreduce_placement(&self) -> Option<&PlacementEvaluation> {
        self.placements
            .iter()
            .min_by(|a, b| a.allreduce_measured.total_cmp(&b.allreduce_measured))
    }

    /// The overall best (placement, program) pair by measured time.
    pub fn best_overall(&self) -> Option<&ProgramEvaluation> {
        self.placements
            .iter()
            .filter_map(PlacementEvaluation::best_measured)
            .min_by(|a, b| a.measured_seconds.total_cmp(&b.measured_seconds))
    }

    /// The (placement, program) pair the simulator would pick: lowest
    /// *predicted* time across every placement.
    pub fn best_predicted_overall(&self) -> Option<&ProgramEvaluation> {
        self.placements
            .iter()
            .filter_map(PlacementEvaluation::best_predicted)
            .min_by(|a, b| a.predicted_seconds.total_cmp(&b.predicted_seconds))
    }

    /// All (matrix, program) pairs of the experiment flattened and sorted by
    /// measured time — the series plotted in Figure 11 of the paper. Each
    /// entry is `(matrix display string, program signature, measured, predicted)`.
    pub fn series(&self) -> Vec<(String, String, f64, f64)> {
        let mut out: Vec<(String, String, f64, f64)> = self
            .placements
            .iter()
            .flat_map(|pl| {
                pl.programs.iter().map(move |p| {
                    (
                        pl.matrix.to_string(),
                        p.signature(),
                        p.measured_seconds,
                        p.predicted_seconds,
                    )
                })
            })
            .collect();
        out.sort_by(|a, b| a.2.total_cmp(&b.2));
        out
    }

    /// Whether the simulator's top choice (lowest predicted time over the
    /// whole experiment) falls within the measured top-`k` programs — the
    /// per-experiment quantity behind Table 5.
    pub fn predicted_best_in_measured_top_k(&self, k: usize) -> bool {
        let Some(best_pred) = self.best_predicted_overall() else {
            return false;
        };
        let mut measured: Vec<f64> = self
            .placements
            .iter()
            .flat_map(|pl| pl.programs.iter().map(|p| p.measured_seconds))
            .collect();
        if measured.is_empty() || k == 0 {
            return false;
        }
        measured.sort_by(f64::total_cmp);
        let cutoff = measured[(k - 1).min(measured.len() - 1)];
        best_pred.measured_seconds <= cutoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_collectives::Collective;
    use p2_synthesis::{GroupExec, LoweredStep};

    fn step(collective: Collective) -> LoweredStep {
        LoweredStep {
            collective,
            groups: vec![GroupExec {
                devices: vec![0, 1],
                input_fraction: 1.0,
            }],
        }
    }

    fn eval(pred: f64, meas: f64) -> ProgramEvaluation {
        ProgramEvaluation::new(
            Program::empty(),
            Box::new([0]),
            Arc::from(vec![step(Collective::AllReduce)]),
            4,
            pred,
            meas,
        )
    }

    fn placement(allreduce: f64, programs: Vec<ProgramEvaluation>) -> PlacementEvaluation {
        PlacementEvaluation {
            matrix: ParallelismMatrix::new(vec![vec![2, 2]], vec![2, 2], vec![4]).unwrap(),
            synthesis_time: Duration::from_millis(1),
            num_programs: programs.len(),
            programs_pruned: 0,
            programs_retained: programs.len(),
            states_explored: 5,
            unique_device_states: 4,
            suffix_memo_hits: 0,
            suffix_memo_misses: 0,
            shared_states_reused: 0,
            allreduce_predicted: allreduce,
            allreduce_measured: allreduce,
            programs,
        }
    }

    #[test]
    fn placement_statistics() {
        let pl = placement(10.0, vec![eval(9.0, 8.0), eval(12.0, 11.0), eval(7.0, 9.5)]);
        assert_eq!(pl.best_measured().unwrap().measured_seconds, 8.0);
        assert_eq!(pl.best_predicted().unwrap().predicted_seconds, 7.0);
        assert_eq!(pl.programs_beating_allreduce(), 2);
        assert!((pl.speedup() - 1.25).abs() < 1e-12);
        assert_eq!(pl.optimal_measured(), 8.0);
    }

    #[test]
    fn steps_read_through_the_ids_of_a_shared_table() {
        let table: Arc<[LoweredStep]> = Arc::from(vec![
            step(Collective::ReduceScatter),
            step(Collective::AllReduce),
            step(Collective::AllGather),
        ]);
        let p = ProgramEvaluation::new(
            Program::empty(),
            Box::new([0, 2]),
            Arc::clone(&table),
            4,
            1.0,
            1.0,
        );
        assert!(Arc::ptr_eq(p.table(), &table));
        assert_eq!(p.step_ids(), &[0, 2]);
        assert_eq!(p.signature(), "ReduceScatter-AllGather");
        assert_eq!(p.signature(), p.lowered().signature());
        assert_eq!(p.lowered().num_devices, 4);
        assert_eq!(p.steps().count(), 2);
        // Debug shows the program's own steps, not the whole table.
        let debug = format!("{p:?}");
        assert!(debug.contains("ReduceScatter") && debug.contains("AllGather"));
        assert!(!debug.contains("AllReduce"), "{debug}");
    }

    #[test]
    fn speedup_never_below_one() {
        let pl = placement(5.0, vec![eval(9.0, 8.0)]);
        assert_eq!(pl.speedup(), 1.0);
        assert_eq!(pl.optimal_measured(), 5.0);
    }

    #[test]
    fn peak_unique_device_states_prefers_the_shared_interner_size() {
        let mut exp = ExperimentResult {
            label: "test".into(),
            parallelism_axes: vec![4],
            reduction_axes: vec![0],
            placements: vec![placement(10.0, vec![eval(3.0, 5.0)])],
            synthesis_time: Duration::from_millis(2),
            shared_unique_device_states: None,
        };
        // Private interners: the per-placement maximum.
        assert_eq!(exp.peak_unique_device_states(), 4);
        // Shared interner: its final size, counted once for the whole sweep
        // (it can be smaller than the per-placement sum ever was).
        exp.shared_unique_device_states = Some(7);
        assert_eq!(exp.peak_unique_device_states(), 7);
        assert_eq!(exp.total_shared_states_reused(), 0);
    }

    #[test]
    fn experiment_top_k() {
        let exp = ExperimentResult {
            label: "test".into(),
            parallelism_axes: vec![4],
            reduction_axes: vec![0],
            placements: vec![
                placement(10.0, vec![eval(3.0, 5.0), eval(4.0, 2.0)]),
                placement(10.0, vec![eval(5.0, 1.0)]),
            ],
            synthesis_time: Duration::from_millis(2),
            shared_unique_device_states: None,
        };
        assert_eq!(exp.total_programs(), 3);
        assert_eq!(exp.total_programs_retained(), 3);
        assert_eq!(exp.total_programs_pruned(), 0);
        assert_eq!(exp.total_programs_beating_allreduce(), 3);
        // Predicted best is (3.0 pred, 5.0 meas); measured ranking is 1.0, 2.0, 5.0.
        assert!(!exp.predicted_best_in_measured_top_k(1));
        assert!(!exp.predicted_best_in_measured_top_k(2));
        assert!(exp.predicted_best_in_measured_top_k(3));
        assert_eq!(exp.best_overall().unwrap().measured_seconds, 1.0);
        assert_eq!(exp.best_predicted_overall().unwrap().predicted_seconds, 3.0);
        let series = exp.series();
        assert_eq!(series.len(), 3);
        assert!(series.windows(2).all(|w| w[0].2 <= w[1].2));
    }
}
