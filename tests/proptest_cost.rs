//! Property-based pins for the pluggable cost layer: the default `CostModel`
//! impl is bit-identical to the pre-refactor `program_time`/`CostAccumulator`
//! path, every model upholds the prefix-admissibility contract, and the
//! interned cost cache never changes a prediction — standalone or through
//! the whole pipeline.

use std::sync::Arc;

use proptest::prelude::*;

use p2::cost::{
    AlphaBetaModel, CachedCostModel, CalibratedModel, CostAccumulator, CostModel, LogGpModel,
    NcclAlgo,
};
use p2::placement::{enumerate_matrices, ordered_factorizations};
use p2::synthesis::{HierarchyKind, LoweredProgram, Synthesizer};
use p2::topology::{Hierarchy, Interconnect, SystemTopology};
use p2::{P2Config, P2};

/// Strategy: a 2-level system with a fast local link and a slow global link,
/// a factorization of its device count into 1–2 axes, and a reduction axis.
fn small_scenario() -> impl Strategy<Value = (SystemTopology, Vec<usize>, usize)> {
    (2usize..=4, 2usize..=8, 1usize..=2).prop_flat_map(|(nodes, gpus, num_axes)| {
        let devices = nodes * gpus;
        let factorizations = ordered_factorizations(devices, num_axes);
        (0..factorizations.len(), 0..num_axes).prop_map(move |(fi, reduction_axis)| {
            let hierarchy = Hierarchy::from_pairs([("node", nodes), ("gpu", gpus)]).unwrap();
            let links = vec![
                Interconnect::new("nic", 8.0e9, 20.0e-6).unwrap(),
                Interconnect::new("nvlink", 150.0e9, 2.0e-6).unwrap(),
            ];
            let system = SystemTopology::new(hierarchy, links).unwrap();
            (system, factorizations[fi].clone(), reduction_axis)
        })
    })
}

/// A sample of lowered programs for a scenario: up to `per_matrix` programs
/// from each of the first three matrices with a non-trivial reduction.
fn lowered_sample(
    system: &SystemTopology,
    axes: &[usize],
    reduction_axis: usize,
    per_matrix: usize,
) -> Vec<LoweredProgram> {
    let arities = system.hierarchy().arities();
    let mut out = Vec::new();
    for matrix in enumerate_matrices(&arities, axes).unwrap() {
        if matrix.axis_sizes()[reduction_axis] < 2 {
            continue;
        }
        let synth =
            Synthesizer::new(matrix, vec![reduction_axis], HierarchyKind::ReductionAxes).unwrap();
        for program in synth.synthesize(3).programs.iter().take(per_matrix) {
            out.push(synth.lower(program).unwrap());
        }
        if out.len() >= 3 * per_matrix {
            break;
        }
    }
    out
}

/// Every built-in model over a system, including a decorated stack.
fn all_models(system: &SystemTopology, bytes: f64, algo: NcclAlgo) -> Vec<Arc<dyn CostModel>> {
    let alpha: Arc<dyn CostModel> =
        Arc::new(AlphaBetaModel::new(system.clone(), algo, bytes).unwrap());
    let depth = system.hierarchy().depth();
    let scales: Vec<f64> = (0..depth).map(|l| 1.3 - 0.3 * l as f64).collect();
    vec![
        Arc::clone(&alpha),
        Arc::new(LogGpModel::new(system.clone(), algo, bytes).unwrap()),
        Arc::new(CalibratedModel::new(Arc::clone(&alpha), scales).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pre-refactor contract, now stated for the trait: `program_time`
    /// equals the in-order `+`-fold of the step times — whether folded by the
    /// default method, by an explicit loop, or by a `CostAccumulator`, and
    /// whether dispatched concretely or through `dyn CostModel` — bit for
    /// bit, with every prefix an admissible lower bound.
    #[test]
    fn program_time_is_the_fold_of_step_times((system, axes, reduction_axis) in small_scenario()) {
        let bytes = 1.0e8;
        for algo in NcclAlgo::ALL {
            let model = AlphaBetaModel::new(system.clone(), algo, bytes).unwrap();
            let dyn_model: &dyn CostModel = &model;
            for lowered in lowered_sample(&system, &axes, reduction_axis, 4) {
                let total = model.program_time(&lowered);
                prop_assert_eq!(dyn_model.program_time(&lowered), total);
                prop_assert_eq!(model.program_breakdown(&lowered).total(), total);
                let mut fold = 0.0;
                let mut acc = CostAccumulator::new(dyn_model);
                for step in &lowered.steps {
                    fold += model.step_time(step);
                    let running = acc.push(step);
                    prop_assert_eq!(running, fold);
                    prop_assert!(running <= total + 1e-15, "prefix above total");
                }
                prop_assert_eq!(fold, total);
                prop_assert_eq!(acc.seconds(), total);
            }
        }
    }

    /// Admissibility holds for every built-in model: step times are
    /// non-negative and finite, so prefixes never overshoot.
    #[test]
    fn all_models_produce_admissible_non_negative_times(
        (system, axes, reduction_axis) in small_scenario()
    ) {
        for model in all_models(&system, 1.0e8, NcclAlgo::Ring) {
            for lowered in lowered_sample(&system, &axes, reduction_axis, 3) {
                let total = model.program_time(&lowered);
                prop_assert!(total.is_finite() && total >= 0.0, "bad total {total}");
                let mut acc = CostAccumulator::new(model.as_ref());
                for step in &lowered.steps {
                    let t = model.step_time(step);
                    prop_assert!(t.is_finite() && t >= 0.0, "bad step time {t}");
                    acc.push(step);
                }
                prop_assert_eq!(acc.seconds(), total);
            }
        }
    }

    /// The interned cache is invisible: every step time and program time it
    /// serves — cold or hot — equals the wrapped model's, bit for bit.
    #[test]
    fn cost_cache_never_changes_predictions((system, axes, reduction_axis) in small_scenario()) {
        for model in all_models(&system, 1.0e8, NcclAlgo::Ring) {
            let cached = CachedCostModel::new(Arc::clone(&model));
            for lowered in lowered_sample(&system, &axes, reduction_axis, 4) {
                for step in &lowered.steps {
                    let expected = model.step_time(step);
                    prop_assert_eq!(cached.step_time(step), expected); // cold or warm
                    prop_assert_eq!(cached.step_time(step), expected); // guaranteed warm
                }
                prop_assert_eq!(cached.program_time(&lowered), model.program_time(&lowered));
            }
            let stats = cached.stats();
            prop_assert!(stats.hits > 0, "the sample never hit the cache");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end: a pipeline run with the per-placement cost cache is
    /// bit-identical to one without, predictions and measurements alike.
    #[test]
    fn pipeline_results_are_cache_invariant((system, axes, reduction_axis) in small_scenario()) {
        let mut config = P2Config::new(system, axes, vec![reduction_axis]);
        config.bytes_per_device = 1.0e8;
        config.repeats = 1;
        config.max_program_size = 3;
        config.threads = 2;
        config.cost_cache = true;
        let cached = P2::new(config.clone()).unwrap().run().unwrap();
        config.cost_cache = false;
        let uncached = P2::new(config).unwrap().run().unwrap();
        prop_assert_eq!(cached.placements.len(), uncached.placements.len());
        for (pa, pb) in cached.placements.iter().zip(&uncached.placements) {
            prop_assert_eq!(&pa.matrix, &pb.matrix);
            prop_assert_eq!(pa.allreduce_predicted, pb.allreduce_predicted);
            prop_assert_eq!(pa.allreduce_measured, pb.allreduce_measured);
            prop_assert_eq!(pa.programs.len(), pb.programs.len());
            for (qa, qb) in pa.programs.iter().zip(&pb.programs) {
                prop_assert_eq!(qa.signature(), qb.signature());
                prop_assert_eq!(qa.predicted_seconds, qb.predicted_seconds);
                prop_assert_eq!(qa.measured_seconds, qb.measured_seconds);
            }
        }
    }
}
