//! Results point into their placement's step table. A retained
//! `ProgramEvaluation` keeps its step ids and a clone of the one `Arc` table
//! its placement froze when the search ended; `lowered()` assembles the
//! program's lowering on demand. In every run mode, with and without bounded
//! retention and for one and four threads, the assembled lowering equals
//! `Synthesizer::lower` step for step, the signature reads the same through
//! the ids, every program of a placement shares one table, and a bounded
//! placement's table holds only steps its retained programs use. The table
//! holds each distinct layout once, so a sweep predicts each layout once per
//! placement.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use p2::synthesis::LoweredStep;
use p2::{
    presets, AlphaBetaModel, CostModel, ExperimentResult, NcclAlgo, P2Builder, RunMode, StepCost,
    Synthesizer, SystemTopology, P2,
};

/// a100 `[8, 4]`, reducing axis 0.
fn a100_8x4() -> P2Builder {
    P2::builder(presets::a100_system(2))
        .parallelism_axes([8, 4])
        .reduction_axes([0])
        .algo(NcclAlgo::Ring)
        .bytes_per_device(1.0e9)
        .repeats(2)
        .seed(0x5eed)
}

/// Table 4 spec H: a100 with 4 nodes, axes `[16, 2, 2]`, reducing axes 0
/// and 2 with Ring, at the paper's buffer size.
fn table4_h() -> P2Builder {
    P2::builder(presets::a100_system(4))
        .parallelism_axes([16, 2, 2])
        .reduction_axes([0, 2])
        .algo(NcclAlgo::Ring)
        .bytes_per_device((1u64 << 29) as f64 * 4.0 * 4.0)
        .repeats(3)
        .seed(0xb2b2)
}

fn assert_results_point_into_one_table(result: &ExperimentResult, session: &P2, bounded: bool) {
    let config = session.config();
    for placement in &result.placements {
        let synth = Synthesizer::new(
            placement.matrix.clone(),
            config.reduction_axes.clone(),
            config.hierarchy_kind,
        )
        .unwrap();
        let Some(first) = placement.programs.first() else {
            continue;
        };
        let table = first.table();
        let mut used = vec![false; table.len()];
        for p in &placement.programs {
            assert!(
                Arc::ptr_eq(p.table(), table),
                "{}: programs of one placement must share one table",
                placement.matrix
            );
            let lowered = p.lowered();
            let expected = synth.lower(&p.program).unwrap();
            assert_eq!(lowered.num_devices, expected.num_devices);
            assert_eq!(lowered.steps.len(), expected.steps.len(), "{}", p.program);
            for (got, want) in lowered.steps.iter().zip(&expected.steps) {
                assert!(got.same_layout(want), "{}: {}", placement.matrix, p.program);
            }
            assert_eq!(p.signature(), lowered.signature());
            assert_eq!(p.steps().count(), p.step_ids().len());
            for &id in p.step_ids() {
                used[id] = true;
            }
        }
        if bounded {
            assert!(
                used.iter().all(|&u| u),
                "{}: a bounded placement's table holds a step no retained program uses",
                placement.matrix
            );
        }
    }
}

#[test]
fn retained_programs_read_their_steps_through_one_shared_table() {
    let modes = [
        RunMode::Measure,
        RunMode::Shortlist(3),
        RunMode::PredictOnly,
    ];
    for (name, builder) in [
        ("a100 [8, 4]", a100_8x4 as fn() -> P2Builder),
        ("H", table4_h),
    ] {
        for mode in modes {
            for keep_top in [None, Some(2)] {
                for threads in [1, 4] {
                    let mut b = builder().mode(mode).threads(threads);
                    if let Some(k) = keep_top {
                        b = b.keep_top(k);
                    }
                    let session = b.build().unwrap();
                    let result = session.run().unwrap();
                    assert!(result.total_programs_retained() > 0, "{name} {mode:?}");
                    assert_results_point_into_one_table(&result, &session, keep_top.is_some());
                }
            }
        }
    }
}

/// An α–β model that counts every step prediction it serves.
#[derive(Debug)]
struct CountingModel {
    inner: AlphaBetaModel,
    step_predictions: AtomicUsize,
}

impl CostModel for CountingModel {
    fn name(&self) -> &str {
        "counting(alpha-beta)"
    }

    fn system(&self) -> &SystemTopology {
        self.inner.system()
    }

    fn bytes_per_device(&self) -> f64 {
        self.inner.bytes_per_device()
    }

    fn step_cost(&self, step: &LoweredStep) -> StepCost {
        self.step_predictions.fetch_add(1, Ordering::Relaxed);
        self.inner.step_cost(step)
    }
}

/// Distinct layouts among `steps`, compared bit for bit.
fn distinct_layouts<'a>(steps: impl Iterator<Item = &'a LoweredStep>) -> usize {
    let mut seen: Vec<&LoweredStep> = Vec::new();
    for step in steps {
        if !seen.iter().any(|s| s.same_layout(step)) {
            seen.push(step);
        }
    }
    seen.len()
}

/// Without a retention bound nothing is pruned, so the sweep predicts every
/// step its retained programs use: once per distinct layout in each
/// placement, plus each placement's AllReduce baseline.
#[test]
fn a_sweep_predicts_each_distinct_layout_once_per_placement() {
    for threads in [1, 4] {
        let model = Arc::new(CountingModel {
            inner: AlphaBetaModel::new(presets::a100_system(2), NcclAlgo::Ring, 1.0e9).unwrap(),
            step_predictions: AtomicUsize::new(0),
        });
        let result = a100_8x4()
            .cost_model(Arc::clone(&model) as Arc<dyn CostModel>)
            .mode(RunMode::PredictOnly)
            .threads(threads)
            .run()
            .unwrap();
        let expected: usize = result
            .placements
            .iter()
            .map(|placement| {
                let lowered: Vec<_> = placement.programs.iter().map(|p| p.lowered()).collect();
                distinct_layouts(lowered.iter().flat_map(|l| &l.steps)) + 1
            })
            .sum();
        assert_eq!(
            model.step_predictions.load(Ordering::Relaxed),
            expected,
            "threads {threads}"
        );
    }
}
