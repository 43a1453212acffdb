//! The run-observer contract: per-placement event sequences are complete and
//! deterministic, an observed run equals an unobserved one bit for bit, and
//! the per-placement pruning behind `keep_top` keeps the best program, cuts
//! predictions, and fails fast on a panicking worker.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use p2::synthesis::LoweredStep;
use p2::{
    presets, run_batch, AlphaBetaModel, BatchOptions, CostModel, ExperimentResult, NcclAlgo,
    ParallelismMatrix, PlacementEvaluation, Program, RunMode, RunObserver, StepCost,
    SystemTopology, P2,
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
    fn on_placement_start(&self, index: usize, _matrix: &ParallelismMatrix) {
        let mut events = self.events.lock().unwrap();
        Self::slot(&mut events, index).0 += 1;
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

/// Observers only observe: a run watched by `Recorder` equals the plain
/// single-thread run, bit for bit, at every thread count.
#[test]
fn single_pass_shared_bound_is_bit_identical_across_thread_counts() {
    let reference = session(1).run().unwrap();
    for threads in [0usize, 1, 2, 4] {
        let observed = session(threads).run_observed(&Recorder::default()).unwrap();
        assert_identical(&reference, &observed);
    }
}

/// `keep_top` prunes each placement against its own best prediction, keeps
/// the exhaustive run's best program bit for bit, and reports every program
/// it keeps to the observer.
#[test]
fn single_pass_prunes_and_keeps_the_best_program() {
    let exhaustive = session(1).run().unwrap();
    let recorder = Recorder::default();
    let pruned = builder(1)
        .keep_top(4)
        .build()
        .unwrap()
        .run_observed(&recorder)
        .unwrap();

    assert_eq!(pruned.total_programs(), exhaustive.total_programs());
    assert!(pruned.total_programs_retained() < exhaustive.total_programs_retained());
    assert!(pruned.total_programs_pruned() > 0);

    let a = exhaustive.best_overall().unwrap();
    let b = pruned.best_overall().unwrap();
    assert_eq!(a.signature(), b.signature());
    assert_eq!(a.measured_seconds, b.measured_seconds);

    // A displaced program fires no second event, so the events per placement
    // are at least what it finally retains.
    let events = recorder.events.into_inner().unwrap();
    assert_eq!(events.len(), pruned.placements.len());
    for (placement, &(_, retained, _, _)) in pruned.placements.iter().zip(&events) {
        assert!(retained >= placement.programs_retained);
    }
}

/// `(placement index, signature)` of every program whose measured time is not
/// its prediction — the programs a shortlist run actually measured.
fn measured_programs(result: &ExperimentResult) -> BTreeSet<(usize, String)> {
    result
        .placements
        .iter()
        .enumerate()
        .flat_map(|(i, pl)| {
            pl.programs
                .iter()
                .filter(|p| p.measured_seconds.to_bits() != p.predicted_seconds.to_bits())
                .map(move |p| (i, p.signature()))
        })
        .collect()
}

/// `Shortlist(5)` measures exactly the 5 best predictions of a `PredictOnly`
/// run, and does so identically at every thread count.
#[test]
fn two_pass_shared_bound_is_deterministic_and_prunes_whole_placements() {
    let shortlist = |threads| {
        session(threads)
            .with_mode(RunMode::Shortlist(5))
            .run()
            .unwrap()
    };
    let serial = shortlist(1);
    let measured = measured_programs(&serial);
    assert_eq!(measured.len(), 5, "measured: {measured:?}");

    let predicted = session(1).with_mode(RunMode::PredictOnly).run().unwrap();
    let mut ranked: Vec<(f64, usize, String)> = predicted
        .placements
        .iter()
        .enumerate()
        .flat_map(|(i, pl)| {
            pl.programs
                .iter()
                .map(move |p| (p.predicted_seconds, i, p.signature()))
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let best_five: BTreeSet<(usize, String)> = ranked
        .into_iter()
        .take(5)
        .map(|(_, i, signature)| (i, signature))
        .collect();
    assert!(
        measured.is_subset(&best_five),
        "measured {measured:?}, best predictions {best_five:?}"
    );

    for threads in [0usize, 4] {
        assert_identical(&serial, &shortlist(threads));
    }
}

/// Without `keep_top` nothing is pruned, whatever observer watches the run.
#[test]
fn observer_bound_alone_activates_pruning_without_keep_top() {
    let observed = session(1).run_observed(&Recorder::default()).unwrap();
    assert!(observed.total_programs() > 0);
    for placement in &observed.placements {
        assert_eq!(placement.programs_pruned, 0);
        assert_eq!(placement.programs_retained, placement.num_programs);
    }
}

/// An α–β model that counts every step prediction it serves — the counter
/// behind the "pruning issues strictly fewer predictions" pin.
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

/// A model whose predictions blow up mid-sweep: the sweep must fail with the
/// panic instead of hanging or returning a partial result.
#[derive(Debug)]
struct ExplodingModel {
    inner: AlphaBetaModel,
    calls_left: AtomicUsize,
}

impl ExplodingModel {
    fn new(calls: usize) -> Arc<Self> {
        Arc::new(ExplodingModel {
            inner: AlphaBetaModel::new(presets::a100_system(2), NcclAlgo::Ring, 1.0e9).unwrap(),
            calls_left: AtomicUsize::new(calls),
        })
    }
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
    // up halfway through them, while other placements are still in flight.
    let counting = CountingModel::new();
    builder(4)
        .cost_model(Arc::clone(&counting) as Arc<dyn CostModel>)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let clean_count = counting.count();
    let inject_at = clean_count / 2;
    assert!(
        inject_at >= 1 && clean_count > inject_at,
        "a clean run makes {clean_count} predictions, so a panic injected at \
         prediction {inject_at} would never fire"
    );
    let exploding = |threads: usize| {
        builder(threads)
            .cost_model(ExplodingModel::new(inject_at) as Arc<dyn CostModel>)
            .build()
            .unwrap()
    };
    // A hang would time these out; the pin is that the panic surfaces.
    let session = exploding(4);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run()));
    assert!(
        outcome.is_err(),
        "injected panic must propagate out of run()"
    );
    let sessions = [exploding(2)];
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_batch(&sessions, &BatchOptions::with_threads(2), &())
    }));
    assert!(
        outcome.is_err(),
        "injected panic must propagate out of run_batch"
    );
}

/// Per-placement pruning saves predictions: with `keep_top(4)` a
/// `Shortlist(4)` run issues strictly fewer step predictions than the
/// unbounded one, lands on the same best program bit for bit, and issues the
/// same number at every thread count (the cost cache is disabled so the
/// counter sees every prediction the engine asks for).
#[test]
fn single_pass_matches_two_pass_best_with_strictly_fewer_predictions() {
    let mut bounded_counts = Vec::new();
    let mut unbounded_counts = Vec::new();
    for threads in [1usize, 4] {
        let run = |keep_top: Option<usize>| {
            let model = CountingModel::new();
            let mut builder = builder(threads)
                .cost_model(Arc::clone(&model) as Arc<dyn CostModel>)
                .mode(RunMode::Shortlist(4));
            if let Some(k) = keep_top {
                builder = builder.keep_top(k);
            }
            let result = builder.build().unwrap().run().unwrap();
            (result, model.count())
        };
        let (bounded, bounded_count) = run(Some(4));
        let (unbounded, unbounded_count) = run(None);

        let a = bounded.best_overall().unwrap();
        let b = unbounded.best_overall().unwrap();
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.measured_seconds, b.measured_seconds);
        assert_eq!(a.predicted_seconds, b.predicted_seconds);

        assert!(
            bounded_count < unbounded_count,
            "keep_top issued {bounded_count} step predictions, \
             the unbounded run {unbounded_count}"
        );
        bounded_counts.push(bounded_count);
        unbounded_counts.push(unbounded_count);
    }
    assert!(bounded_counts.windows(2).all(|w| w[0] == w[1]));
    assert!(unbounded_counts.windows(2).all(|w| w[0] == w[1]));
}
