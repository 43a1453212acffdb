//! The batch-scheduling contract of [`p2::run_batch`]: one global thread
//! budget for a whole batch of sessions (the nested-parallelism
//! oversubscription regression), retained-program sets that are invariant
//! under randomized steal schedules, and a batch that does exactly the work
//! of its sessions run one by one.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use p2::synthesis::LoweredStep;
use p2::{
    presets, run_batch, AlphaBetaModel, BatchOptions, CostModel, ExperimentResult, NcclAlgo,
    ParallelismMatrix, PlacementEvaluation, RunObserver, StepCost, SystemTopology, P2,
};

fn session(axes: Vec<usize>, reduction: Vec<usize>, bytes: f64) -> P2 {
    P2::builder(presets::a100_system(2))
        .parallelism_axes(axes)
        .reduction_axes(reduction)
        .algo(NcclAlgo::Ring)
        .bytes_per_device(bytes)
        .repeats(2)
        .seed(0x5eed)
        .build()
        .unwrap()
}

/// Counts placement evaluations in flight across ALL sessions of a batch —
/// the independent witness (next to the scheduler's own telemetry) that a
/// batch never runs more evaluations at once than its thread budget.
#[derive(Default)]
struct ConcurrencyObserver {
    current: AtomicUsize,
    peak: AtomicUsize,
    done: AtomicUsize,
}

impl RunObserver for ConcurrencyObserver {
    fn on_placement_start(&self, _index: usize, _matrix: &ParallelismMatrix) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn on_placement_done(&self, _index: usize, _evaluation: &PlacementEvaluation) {
        self.current.fetch_sub(1, Ordering::SeqCst);
        self.done.fetch_add(1, Ordering::SeqCst);
    }
}

/// The oversubscription regression: four sessions batched onto two workers
/// must never evaluate more than two placements simultaneously — the old
/// per-spec nested pools would have run up to `4 × threads` at once.
#[test]
fn batch_never_exceeds_its_global_thread_budget() {
    let sessions: Vec<P2> = [
        (vec![8, 4], vec![0]),
        (vec![16, 2], vec![0]),
        (vec![4, 8], vec![1]),
        (vec![2, 16], vec![0]),
    ]
    .into_iter()
    .map(|(axes, reduction)| session(axes, reduction, 1.0e8))
    .collect();
    let observer = ConcurrencyObserver::default();
    let outcome = run_batch(&sessions, &BatchOptions::with_threads(2), &observer).unwrap();
    assert_eq!(outcome.threads, 2);
    assert!(
        observer.peak.load(Ordering::SeqCst) <= 2,
        "batch ran {} placement evaluations at once on a 2-thread budget",
        observer.peak.load(Ordering::SeqCst)
    );
    assert!(outcome.peak_in_flight <= 2);
    let placements: usize = outcome.results.iter().map(|r| r.placements.len()).sum();
    assert_eq!(observer.done.load(Ordering::SeqCst), placements);
}

/// Per-placement retained-program signature sets, in placement order.
fn retained_sets(result: &ExperimentResult) -> Vec<BTreeSet<String>> {
    result
        .placements
        .iter()
        .map(|p| p.programs.iter().map(|q| q.signature()).collect())
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

    /// Randomized steal schedules (deque-scatter seed × thread count) never
    /// change what a batch retains: every placement's retained-program set —
    /// and every ranking field — matches the single-threaded reference.
    #[test]
    fn steal_schedules_preserve_retained_program_sets(
        threads in 1usize..5,
        steal_seed in 0u64..u64::MAX,
    ) {
        let sessions = vec![
            session(vec![8, 4], vec![0], 1.0e8),
            session(vec![16, 2], vec![1], 1.0e8),
        ];
        let reference = run_batch(&sessions, &BatchOptions::with_threads(1), &()).unwrap();
        let options = BatchOptions { threads, steal_seed };
        let outcome = run_batch(&sessions, &options, &()).unwrap();
        for (a, b) in reference.results.iter().zip(&outcome.results) {
            proptest::prop_assert_eq!(retained_sets(a), retained_sets(b));
            for (pa, pb) in a.placements.iter().zip(&b.placements) {
                proptest::prop_assert_eq!(pa.programs_pruned, pb.programs_pruned);
                for (qa, qb) in pa.programs.iter().zip(&pb.programs) {
                    proptest::prop_assert_eq!(qa.signature(), qb.signature());
                    proptest::prop_assert_eq!(qa.predicted_seconds, qb.predicted_seconds);
                    proptest::prop_assert_eq!(qa.measured_seconds, qb.measured_seconds);
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

impl CountingModel {
    fn new() -> Arc<Self> {
        Arc::new(CountingModel {
            inner: AlphaBetaModel::new(presets::a100_system(2), NcclAlgo::Ring, 1.0e9).unwrap(),
            step_predictions: AtomicUsize::new(0),
        })
    }

    fn count(&self) -> usize {
        self.step_predictions.load(Ordering::Relaxed)
    }
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

fn counting_sessions(model: &Arc<CountingModel>) -> Vec<P2> {
    // Same axes, both reduction choices, bounded retention so per-placement
    // pruning decides which steps get predicted.
    [(vec![8, 4], vec![0]), (vec![8, 4], vec![1])]
        .into_iter()
        .map(|(axes, reduction)| {
            P2::builder(presets::a100_system(2))
                .parallelism_axes(axes)
                .reduction_axes(reduction)
                .algo(NcclAlgo::Ring)
                .bytes_per_device(1.0e9)
                .repeats(2)
                .seed(0x5eed)
                .cost_model(Arc::clone(model) as Arc<dyn CostModel>)
                .keep_top(4)
                .build()
                .unwrap()
        })
        .collect()
}

/// A batch shares the pool and nothing that steers a search: batching the two
/// counting sessions issues exactly the step predictions of running them one
/// by one, with bit-identical results.
#[test]
fn cross_spec_bound_sharing_issues_strictly_fewer_predictions() {
    let serial_model = CountingModel::new();
    let serial: Vec<ExperimentResult> = counting_sessions(&serial_model)
        .iter()
        .map(|s| s.run().unwrap())
        .collect();
    let serial_count = serial_model.count();

    let batch_model = CountingModel::new();
    let outcome = run_batch(
        &counting_sessions(&batch_model),
        &BatchOptions::with_threads(2),
        &(),
    )
    .unwrap();
    assert_eq!(batch_model.count(), serial_count);

    assert_eq!(outcome.results.len(), serial.len());
    for (a, b) in serial.iter().zip(&outcome.results) {
        assert_eq!(a.placements.len(), b.placements.len());
        for (pa, pb) in a.placements.iter().zip(&b.placements) {
            assert_eq!(pa.matrix, pb.matrix);
            assert_eq!(pa.programs_pruned, pb.programs_pruned);
            assert_eq!(pa.programs_retained, pb.programs_retained);
            for (qa, qb) in pa.programs.iter().zip(&pb.programs) {
                assert_eq!(qa.signature(), qb.signature());
                assert_eq!(
                    qa.predicted_seconds.to_bits(),
                    qb.predicted_seconds.to_bits()
                );
                assert_eq!(qa.measured_seconds.to_bits(), qb.measured_seconds.to_bits());
            }
        }
    }
}
