//! Run observers: streaming visibility into the placement × synthesis sweep,
//! and the [`ProgressObserver`] progress/ETA reporter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use p2_placement::ParallelismMatrix;
use p2_synthesis::Program;

use crate::result::PlacementEvaluation;

/// Observes the progress of one experiment run
/// ([`P2::run_observed`](crate::P2::run_observed)).
///
/// Observers only observe: every hook returns `()`, so a run's results are
/// the same, bit for bit, with any observer or none. Every method has a
/// no-op default, so implementations override only what they need. The sweep
/// fans placements out across worker threads, so the observer is shared
/// (`&self`, `Sync` supertrait) and events from *different* placements
/// interleave nondeterministically; events *within* one placement are
/// strictly ordered and deterministic:
/// [`on_placement_start`](RunObserver::on_placement_start), then
/// [`on_program_retained`](RunObserver::on_program_retained) in program-stream
/// order, then [`on_placement_done`](RunObserver::on_placement_done). The
/// `index` passed to each hook is the placement's position in enumeration
/// order — the same index its [`PlacementEvaluation`] ends up at in
/// [`ExperimentResult::placements`](crate::ExperimentResult::placements). A
/// placement whose evaluation fails gets no `on_placement_done`; the run
/// returns the error.
pub trait RunObserver: Sync {
    /// Called once per placement, before its synthesis stream starts.
    fn on_placement_start(&self, index: usize, matrix: &ParallelismMatrix) {
        let _ = (index, matrix);
    }

    /// Called for each program entering the placement's retention set, in
    /// stream order. Under bounded retention (`keep_top`) a retained program
    /// may later be displaced by a better one; displaced programs do not
    /// produce another event. In predict-only and shortlist sweeps
    /// `measured_seconds` equals `predicted_seconds`.
    fn on_program_retained(
        &self,
        index: usize,
        program: &Program,
        predicted_seconds: f64,
        measured_seconds: f64,
    ) {
        let _ = (index, program, predicted_seconds, measured_seconds);
    }

    /// Called once per placement, after its evaluation is complete (programs
    /// sorted, counters final).
    fn on_placement_done(&self, index: usize, evaluation: &PlacementEvaluation) {
        let _ = (index, evaluation);
    }
}

/// The no-op observer: every hook keeps its default.
impl RunObserver for () {}

/// A progress/ETA reporter for long sweeps: prints one line to stderr per
/// completed placement (or per [`every`](ProgressObserver::with_every)
/// placements), with the retained-program count, the elapsed wall-clock time
/// and — when a total is known — an ETA extrapolated from the mean
/// per-placement time.
///
/// The observer only accumulates counters, so it can be shared across several
/// consecutive runs (e.g. every spec of a table sweep) to report aggregate
/// progress; pass the expected grand total of placements to
/// [`with_total`](ProgressObserver::with_total) for the ETA column.
#[derive(Debug)]
pub struct ProgressObserver {
    label: String,
    total: Option<usize>,
    every: usize,
    started: Instant,
    placements_done: AtomicUsize,
    programs_seen: AtomicUsize,
    programs_retained: AtomicUsize,
}

impl ProgressObserver {
    /// Creates a reporter printing `label` on every line.
    pub fn new(label: impl Into<String>) -> Self {
        ProgressObserver {
            label: label.into(),
            total: None,
            every: 1,
            started: Instant::now(),
            placements_done: AtomicUsize::new(0),
            programs_seen: AtomicUsize::new(0),
            programs_retained: AtomicUsize::new(0),
        }
    }

    /// Sets the expected total number of placements (across every run this
    /// observer will see), enabling the percentage and ETA columns.
    pub fn with_total(mut self, total: usize) -> Self {
        self.total = Some(total);
        self
    }

    /// Prints only every `every`-th completed placement (and always the
    /// last one when a total is set). `every` is clamped to at least 1.
    pub fn with_every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Placements completed so far.
    pub fn placements_done(&self) -> usize {
        self.placements_done.load(Ordering::Relaxed)
    }

    /// Programs synthesized so far (including pruned ones).
    pub fn programs_seen(&self) -> usize {
        self.programs_seen.load(Ordering::Relaxed)
    }

    /// Program evaluations retained so far.
    pub fn programs_retained(&self) -> usize {
        self.programs_retained.load(Ordering::Relaxed)
    }
}

impl RunObserver for ProgressObserver {
    fn on_placement_done(&self, _index: usize, evaluation: &PlacementEvaluation) {
        self.programs_seen
            .fetch_add(evaluation.num_programs, Ordering::Relaxed);
        self.programs_retained
            .fetch_add(evaluation.programs_retained, Ordering::Relaxed);
        let done = self.placements_done.fetch_add(1, Ordering::Relaxed) + 1;
        let last = self.total == Some(done);
        if !done.is_multiple_of(self.every) && !last {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let programs = self.programs_seen.load(Ordering::Relaxed);
        let retained = self.programs_retained.load(Ordering::Relaxed);
        match self.total {
            Some(total) if total >= done => {
                let eta = elapsed / done as f64 * (total - done) as f64;
                eprintln!(
                    "[{}] {done}/{total} placements ({:.0}%) · {programs} programs \
                     ({retained} retained) · {elapsed:.1}s elapsed · ETA {eta:.1}s",
                    self.label,
                    done as f64 / total as f64 * 100.0,
                );
            }
            _ => {
                eprintln!(
                    "[{}] {done} placements · {programs} programs ({retained} retained) · \
                     {elapsed:.1}s elapsed",
                    self.label,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_observer_counts_and_reports() {
        let matrix = ParallelismMatrix::new(vec![vec![2, 2]], vec![2, 2], vec![4]).unwrap();
        let evaluation = PlacementEvaluation {
            matrix,
            synthesis_time: std::time::Duration::from_millis(1),
            num_programs: 7,
            programs_pruned: 7,
            programs_retained: 0,
            states_explored: 0,
            unique_device_states: 0,
            suffix_memo_hits: 0,
            suffix_memo_misses: 0,
            shared_states_reused: 0,
            allreduce_predicted: 1.0,
            allreduce_measured: 1.0,
            programs: Vec::new(),
        };
        let progress = ProgressObserver::new("test").with_total(2).with_every(1);
        progress.on_placement_done(0, &evaluation);
        progress.on_placement_done(1, &evaluation);
        assert_eq!(progress.placements_done(), 2);
        assert_eq!(progress.programs_seen(), 14);
        assert_eq!(progress.programs_retained(), 0);
    }
}
