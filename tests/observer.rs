//! The run-observer contract: per-placement event sequences are complete and
//! deterministic, the single-pass `SharedBoundObserver` implements
//! cross-placement pruning deterministically inside one sweep — landing on
//! the same retained best as the reference `TwoPassSharedBound` while issuing
//! strictly fewer predictions — and the two-pass reference itself still lands
//! on the exhaustive sweep's best program.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use p2::synthesis::LoweredStep;
use p2::{
    presets, AlphaBetaModel, CostModel, ExperimentResult, NcclAlgo, ParallelismMatrix,
    PlacementEvaluation, Program, RunObserver, SharedBoundObserver, StepCost, SystemTopology,
    TwoPassSharedBound, P2,
};

fn builder(threads: usize) -> p2::P2Builder {
    P2::builder(presets::a100_system(2))
        .parallelism_axes([8, 4])
        .reduction_axes([0])
        .algo(NcclAlgo::Ring)
        .bytes_per_device(1.0e9)
        .repeats(2)
        .seed(0x5eed)
        .threads(threads)
}

fn session(threads: usize) -> P2 {
    builder(threads).build().unwrap()
}

/// Records every event, bucketed per placement index so the parallel sweep's
/// cross-placement interleaving cannot blur the per-placement sequences.
#[derive(Default)]
struct Recorder {
    /// Per placement index: (started, retained count, done count, retained
    /// events seen after done).
    events: Mutex<Vec<(usize, usize, usize, usize)>>,
}

impl Recorder {
    fn slot(
        events: &mut Vec<(usize, usize, usize, usize)>,
        index: usize,
    ) -> &mut (usize, usize, usize, usize) {
        if events.len() <= index {
            events.resize(index + 1, (0, 0, 0, 0));
        }
        &mut events[index]
    }
}

impl RunObserver for Recorder {
    fn on_placement_start(&self, index: usize, _matrix: &ParallelismMatrix) -> Option<f64> {
        let mut events = self.events.lock().unwrap();
        Self::slot(&mut events, index).0 += 1;
        None
    }

    fn on_program_retained(
        &self,
        index: usize,
        _program: &Program,
        predicted_seconds: f64,
        measured_seconds: f64,
    ) {
        assert!(predicted_seconds > 0.0 && measured_seconds > 0.0);
        let mut events = self.events.lock().unwrap();
        let slot = Self::slot(&mut events, index);
        slot.1 += 1;
        if slot.2 > 0 {
            slot.3 += 1;
        }
    }

    fn on_placement_done(&self, index: usize, evaluation: &PlacementEvaluation) {
        let mut events = self.events.lock().unwrap();
        let slot = Self::slot(&mut events, index);
        assert_eq!(
            slot.0, 1,
            "placement {index} finished without exactly one start event"
        );
        assert!(
            evaluation.programs_retained <= slot.1,
            "placement {index} reports more retained programs than events"
        );
        slot.2 += 1;
    }
}

#[test]
fn observer_sees_a_complete_deterministic_sequence_per_placement() {
    for threads in [1usize, 4] {
        let recorder = Recorder::default();
        let result = session(threads).run_observed(&recorder).unwrap();
        let events = recorder.events.into_inner().unwrap();
        assert_eq!(events.len(), result.placements.len());
        for (index, &(started, retained, done, after_done)) in events.iter().enumerate() {
            assert_eq!(started, 1, "placement {index} started {started} times");
            assert_eq!(done, 1, "placement {index} finished {done} times");
            assert_eq!(after_done, 0, "placement {index} retained after done");
            // The exhaustive default retains everything, so events and final
            // retention agree exactly.
            assert_eq!(retained, result.placements[index].programs_retained);
        }
    }
}

fn assert_identical(a: &ExperimentResult, b: &ExperimentResult) {
    assert_eq!(a.placements.len(), b.placements.len());
    for (pa, pb) in a.placements.iter().zip(&b.placements) {
        assert_eq!(pa.matrix, pb.matrix);
        assert_eq!(pa.num_programs, pb.num_programs);
        assert_eq!(pa.programs_pruned, pb.programs_pruned);
        assert_eq!(pa.programs_retained, pb.programs_retained);
        for (qa, qb) in pa.programs.iter().zip(&pb.programs) {
            assert_eq!(qa.signature(), qb.signature());
            assert_eq!(qa.predicted_seconds, qb.predicted_seconds);
            assert_eq!(qa.measured_seconds, qb.measured_seconds);
        }
    }
}

#[test]
fn single_pass_shared_bound_is_bit_identical_across_thread_counts() {
    let mut serial_observer = SharedBoundObserver::new();
    let serial = serial_observer.run(&session(1)).unwrap();
    let serial_bound = serial_observer.bound().unwrap();
    for threads in [0usize, 2, 4] {
        let mut observer = SharedBoundObserver::new();
        let parallel = observer.run(&session(threads)).unwrap();
        assert_eq!(observer.bound().unwrap(), serial_bound);
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn single_pass_prunes_and_keeps_the_best_program() {
    let exhaustive = session(1).run().unwrap();
    let mut observer = SharedBoundObserver::new();
    let pruned = observer.run(&session(1)).unwrap();

    // Same search space, fewer retained evaluations: later placements prune
    // against the published minima of their dyadic prefix.
    assert_eq!(pruned.total_programs(), exhaustive.total_programs());
    assert!(pruned.total_programs_retained() < exhaustive.total_programs_retained());
    assert!(pruned.total_programs_pruned() > 0);

    // The globally best program survives — its own prediction is below every
    // published bound — and its measurement is bit-identical.
    let a = exhaustive.best_overall().unwrap();
    let b = pruned.best_overall().unwrap();
    assert_eq!(a.signature(), b.signature());
    assert_eq!(a.measured_seconds, b.measured_seconds);
}

#[test]
fn two_pass_shared_bound_is_deterministic_and_prunes_whole_placements() {
    let exhaustive = session(1).run().unwrap();
    let mut serial_observer = TwoPassSharedBound::new();
    let serial = serial_observer.run(&session(1)).unwrap();
    let serial_bound = serial_observer.bound().unwrap();
    for threads in [0usize, 4] {
        let mut observer = TwoPassSharedBound::new();
        let parallel = observer.run(&session(threads)).unwrap();
        assert_eq!(observer.bound().unwrap(), serial_bound);
        assert_identical(&serial, &parallel);
    }

    // The frozen global bound prunes placements whose programs all predict
    // worse than it — the cross-placement pruning a per-placement bound
    // cannot do.
    assert_eq!(serial.total_programs(), exhaustive.total_programs());
    assert!(serial.total_programs_retained() < exhaustive.total_programs_retained());
    assert!(
        serial.placements.iter().any(|pl| pl.programs_retained == 0),
        "expected at least one placement to be pruned away entirely"
    );
    let a = exhaustive.best_overall().unwrap();
    let b = serial.best_overall().unwrap();
    assert_eq!(a.signature(), b.signature());
    assert_eq!(a.measured_seconds, b.measured_seconds);
}

#[test]
fn observer_bound_alone_activates_pruning_without_keep_top() {
    // An observer returning a tight bound prunes even in the default
    // keep-everything configuration.
    struct TightBound(f64);
    impl RunObserver for TightBound {
        fn on_placement_start(&self, _index: usize, _matrix: &ParallelismMatrix) -> Option<f64> {
            Some(self.0)
        }
    }
    let exhaustive = session(1).run().unwrap();
    let global_best_predicted = exhaustive
        .placements
        .iter()
        .flat_map(|pl| pl.programs.iter().map(|p| p.predicted_seconds))
        .fold(f64::INFINITY, f64::min);
    let pruned = session(1)
        .run_observed(&TightBound(global_best_predicted))
        .unwrap();
    assert_eq!(pruned.total_programs(), exhaustive.total_programs());
    assert!(pruned.total_programs_retained() < exhaustive.total_programs_retained());
    // Survivors are exactly the programs within the slack envelope.
    let slack = session(1).config().prune_slack;
    for pl in &pruned.placements {
        for p in &pl.programs {
            assert!(p.predicted_seconds <= global_best_predicted * (1.0 + slack) * (1.0 + 1e-12));
        }
    }
}

/// An α–β model that counts every step prediction it serves — the counter
/// behind the "single pass issues strictly fewer predictions" pin.
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

/// A model whose predictions blow up mid-sweep: the sweep must fail fast —
/// the abort guard publishes the panicking placement's slot so workers
/// blocked on the shared-bound reduction tree drain instead of hanging.
#[derive(Debug)]
struct ExplodingModel {
    inner: AlphaBetaModel,
    calls_left: AtomicUsize,
}

impl CostModel for ExplodingModel {
    fn name(&self) -> &str {
        "exploding(alpha-beta)"
    }

    fn system(&self) -> &SystemTopology {
        self.inner.system()
    }

    fn bytes_per_device(&self) -> f64 {
        self.inner.bytes_per_device()
    }

    fn step_cost(&self, step: &LoweredStep) -> StepCost {
        assert!(
            self.calls_left.fetch_sub(1, Ordering::Relaxed) > 1,
            "injected mid-sweep prediction failure"
        );
        self.inner.step_cost(step)
    }
}

#[test]
fn panicking_worker_fails_the_shared_bound_run_instead_of_hanging() {
    // Count the predictions a clean run of the same session makes, and blow
    // up halfway through them: enough predictions to complete some
    // placements, then a panic while later placements wait on the reduction
    // tree.
    let counting = CountingModel::new();
    let clean = builder(4)
        .cost_model(Arc::clone(&counting) as Arc<dyn CostModel>)
        .cost_cache(false)
        .build()
        .unwrap();
    SharedBoundObserver::new().run(&clean).unwrap();
    let clean_count = counting.count();
    let inject_at = clean_count / 2;
    assert!(
        inject_at >= 1 && clean_count > inject_at,
        "a clean run makes {clean_count} predictions, so a panic injected at \
         prediction {inject_at} would never fire"
    );
    let model = Arc::new(ExplodingModel {
        inner: AlphaBetaModel::new(presets::a100_system(2), NcclAlgo::Ring, 1.0e9).unwrap(),
        calls_left: AtomicUsize::new(inject_at),
    });
    let session = builder(4)
        .cost_model(model as Arc<dyn CostModel>)
        .cost_cache(false)
        .build()
        .unwrap();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        SharedBoundObserver::new().run(&session)
    }));
    // A hang would time this test out; the pin is that the panic surfaces.
    assert!(outcome.is_err(), "injected panic must propagate");
}

/// For any thread count, the single-pass bound lands on the same retained
/// best as the two-pass reference while issuing strictly fewer step
/// predictions (the cost cache is disabled so the counter sees every
/// prediction the engine asks for).
#[test]
fn single_pass_matches_two_pass_best_with_strictly_fewer_predictions() {
    let mut single_counts = Vec::new();
    let mut two_pass_counts = Vec::new();
    for threads in [1usize, 4] {
        let single_model = CountingModel::new();
        let single_session = builder(threads)
            .cost_model(Arc::clone(&single_model) as Arc<dyn CostModel>)
            .cost_cache(false)
            .build()
            .unwrap();
        let single = SharedBoundObserver::new().run(&single_session).unwrap();

        let two_pass_model = CountingModel::new();
        let two_pass_session = builder(threads)
            .cost_model(Arc::clone(&two_pass_model) as Arc<dyn CostModel>)
            .cost_cache(false)
            .build()
            .unwrap();
        let two_pass = TwoPassSharedBound::new().run(&two_pass_session).unwrap();

        // Same retained best, bit-identical measurement.
        let a = single.best_overall().unwrap();
        let b = two_pass.best_overall().unwrap();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.measured_seconds, b.measured_seconds);
        assert_eq!(a.predicted_seconds, b.predicted_seconds);

        // Strictly fewer predictions: nothing is predicted twice.
        let single_count = single_model.count();
        let two_pass_count = two_pass_model.count();
        assert!(
            single_count < two_pass_count,
            "single pass issued {single_count} step predictions, \
             two-pass {two_pass_count}"
        );
        single_counts.push(single_count);
        two_pass_counts.push(two_pass_count);
    }
    // The prediction workload itself is thread-count-deterministic.
    assert!(single_counts.windows(2).all(|w| w[0] == w[1]));
    assert!(two_pass_counts.windows(2).all(|w| w[0] == w[1]));
}
