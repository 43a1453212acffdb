//! Per-edge evaluation is invisible in results. The pipeline lowers each
//! distinct search-DAG step once per placement, predicts it the first time a
//! program prefix reaches it, and simulates it once per placement executor;
//! on random scenarios, in every run mode, with and without bounded
//! retention, under every synthesis hierarchy and for one and four threads,
//! its `ExperimentResult` equals bit for bit that of a per-program oracle
//! that lowers every program with `Synthesizer::lower`, predicts it with
//! `CostModel::program_time` and measures it on a fresh `Executor`.

use std::cmp::Ordering;

use proptest::prelude::*;
use proptest::TestCaseError;

use p2::cost::{AlphaBetaModel, CostModel};
use p2::exec::{ExecConfig, Executor};
use p2::placement::ordered_factorizations;
use p2::synthesis::{baseline_allreduce, HierarchyKind, LoweredProgram, Program, Synthesizer};
use p2::topology::{Hierarchy, Interconnect, SystemTopology};
use p2::{ExperimentResult, P2Config, RunMode, P2};

const KINDS: [HierarchyKind; 4] = [
    HierarchyKind::ReductionAxes,
    HierarchyKind::System,
    HierarchyKind::RowMajor,
    HierarchyKind::ColumnMajor,
];

/// Strategy: a small 2-level system, a factorization of its devices into 1–2
/// axes with one reduction axis, a hierarchy kind, a run mode and an optional
/// retention bound.
fn scenario() -> impl Strategy<Value = (P2Config, RunMode)> {
    (2usize..=3, 2usize..=4, 1usize..=2).prop_flat_map(|(nodes, gpus, num_axes)| {
        let factorizations = ordered_factorizations(nodes * gpus, num_axes);
        (
            (0..factorizations.len(), 0..num_axes, 0..KINDS.len()),
            (0usize..3, 0usize..=3, 1usize..=3, 0u64..1000),
        )
            .prop_map(
                move |((fi, reduction_axis, kind), (mode, keep_top, repeats, seed))| {
                    let hierarchy =
                        Hierarchy::from_pairs([("node", nodes), ("gpu", gpus)]).unwrap();
                    let links = vec![
                        Interconnect::new("nic", 8.0e9, 20.0e-6).unwrap(),
                        Interconnect::new("nvlink", 150.0e9, 2.0e-6).unwrap(),
                    ];
                    let system = SystemTopology::new(hierarchy, links).unwrap();
                    let kind = KINDS[kind];
                    let size = if kind == HierarchyKind::ReductionAxes {
                        3
                    } else {
                        2
                    };
                    let mut config =
                        P2Config::new(system, factorizations[fi].clone(), vec![reduction_axis])
                            .with_bytes_per_device(1.0e8)
                            .with_repeats(repeats)
                            .with_seed(seed)
                            .with_max_program_size(size)
                            .with_hierarchy_kind(kind);
                    if keep_top > 0 {
                        config = config.with_keep_top(keep_top);
                    }
                    let mode = match mode {
                        0 => RunMode::Measure,
                        1 => RunMode::Shortlist(1 + seed as usize % 4),
                        _ => RunMode::PredictOnly,
                    };
                    (config, mode)
                },
            )
    })
}

/// One retained program of the oracle.
struct Evaluated {
    program: Program,
    lowered: LoweredProgram,
    predicted: f64,
    measured: f64,
    seq: usize,
}

/// One placement of the oracle.
struct OraclePlacement {
    num_programs: usize,
    allreduce_predicted: f64,
    allreduce_measured: f64,
    programs: Vec<Evaluated>,
}

/// The heap order of the pipeline's bounded retention: measured time, then
/// arrival.
fn heap_order(a: &Evaluated, b: &Evaluated) -> Ordering {
    a.measured.total_cmp(&b.measured).then(a.seq.cmp(&b.seq))
}

/// The pipeline's evaluation, one program at a time: lower, predict with
/// `program_time` (pruning on the prefix folds when retention is bounded)
/// and measure every program on an executor of its own.
fn oracle(config: &P2Config, mode: RunMode) -> Vec<OraclePlacement> {
    let model =
        AlphaBetaModel::new(config.system.clone(), config.algo, config.bytes_per_device).unwrap();
    let exec = ExecConfig::new(config.algo, config.bytes_per_device)
        .with_noise(config.noise_fraction)
        .with_seed(config.seed)
        .with_repeats(config.repeats);
    let measure = |lowered: &LoweredProgram| {
        Executor::new(&config.system, exec.clone())
            .unwrap()
            .measure(lowered)
    };
    let measure_programs = mode == RunMode::Measure;
    let session = P2::new(config.clone()).unwrap();
    let mut placements = Vec::new();
    for matrix in session.placements().unwrap() {
        let synth = Synthesizer::new(
            matrix.clone(),
            config.reduction_axes.clone(),
            config.hierarchy_kind,
        )
        .unwrap();
        let baseline = baseline_allreduce(&matrix, &config.reduction_axes).unwrap();
        let allreduce_predicted = model.program_time(&baseline);
        let mut best = allreduce_predicted;
        let mut kept: Vec<Evaluated> = Vec::new();
        let programs = synth.synthesize(config.max_program_size).programs;
        for (seq, program) in programs.iter().enumerate() {
            let lowered = synth.lower(program).unwrap();
            if let Some(k) = config.keep_top {
                let mut bound = best * (1.0 + config.prune_slack);
                if !measure_programs && kept.len() == k {
                    let worst = kept.iter().max_by(|a, b| heap_order(a, b)).unwrap();
                    bound = bound.min(worst.measured);
                }
                let mut prefix = 0.0;
                let pruned = lowered.steps.iter().any(|step| {
                    prefix += model.step_time(step);
                    prefix > bound
                });
                if pruned {
                    continue;
                }
            }
            let predicted = model.program_time(&lowered);
            best = best.min(predicted);
            let measured = if measure_programs {
                measure(&lowered)
            } else {
                predicted
            };
            kept.push(Evaluated {
                program: program.clone(),
                lowered,
                predicted,
                measured,
                seq,
            });
            if let Some(k) = config.keep_top {
                if kept.len() > k {
                    let worst = (0..kept.len())
                        .max_by(|&a, &b| heap_order(&kept[a], &kept[b]))
                        .unwrap();
                    kept.remove(worst);
                }
            }
        }
        if config.keep_top.is_some() {
            kept.sort_by(heap_order);
        }
        kept.sort_by(|a, b| a.measured.total_cmp(&b.measured));
        placements.push(OraclePlacement {
            num_programs: programs.len(),
            allreduce_predicted,
            allreduce_measured: measure(&baseline),
            programs: kept,
        });
    }
    if let RunMode::Shortlist(n) = mode {
        let mut order: Vec<(usize, usize, f64)> = placements
            .iter()
            .enumerate()
            .flat_map(|(pi, pl)| {
                pl.programs
                    .iter()
                    .enumerate()
                    .map(move |(qi, p)| (pi, qi, p.predicted))
            })
            .collect();
        order.sort_by(|a, b| a.2.total_cmp(&b.2));
        for &(pi, qi, _) in order.iter().take(n) {
            let evaluated = &mut placements[pi].programs[qi];
            evaluated.measured = measure(&evaluated.lowered);
        }
        for placement in &mut placements {
            placement
                .programs
                .sort_by(|a, b| a.measured.total_cmp(&b.measured));
        }
    }
    placements
}

fn same_lowered(a: &LoweredProgram, b: &LoweredProgram) -> bool {
    a.num_devices == b.num_devices
        && a.steps.len() == b.steps.len()
        && a.steps.iter().zip(&b.steps).all(|(x, y)| x.same_layout(y))
}

fn assert_matches_oracle(
    result: &ExperimentResult,
    expected: &[OraclePlacement],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(result.placements.len(), expected.len());
    for (got, want) in result.placements.iter().zip(expected) {
        prop_assert_eq!(got.num_programs, want.num_programs);
        prop_assert_eq!(got.programs_retained, want.programs.len());
        prop_assert_eq!(got.programs_pruned, want.num_programs - want.programs.len());
        prop_assert_eq!(
            got.allreduce_predicted.to_bits(),
            want.allreduce_predicted.to_bits()
        );
        prop_assert_eq!(
            got.allreduce_measured.to_bits(),
            want.allreduce_measured.to_bits()
        );
        prop_assert_eq!(got.programs.len(), want.programs.len());
        for (g, w) in got.programs.iter().zip(&want.programs) {
            prop_assert_eq!(&g.program, &w.program);
            prop_assert!(same_lowered(&g.lowered, &w.lowered), "lowering differs");
            prop_assert_eq!(g.predicted_seconds.to_bits(), w.predicted.to_bits());
            prop_assert_eq!(g.measured_seconds.to_bits(), w.measured.to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pipeline_matches_the_per_program_oracle((config, mode) in scenario()) {
        let expected = oracle(&config, mode);
        for threads in [1usize, 4] {
            let session = P2::new(config.clone().with_threads(threads))
                .unwrap()
                .with_mode(mode);
            let result = session.run().unwrap();
            assert_matches_oracle(&result, &expected)?;
        }
    }
}
