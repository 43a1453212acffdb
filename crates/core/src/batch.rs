//! Deterministic batch scheduling: many experiment sessions on **one**
//! work-stealing thread pool.
//!
//! [`run_batch`] is the engine behind `p2_bench::run_specs_batch`. It is a
//! scheduler only: each session owns or borrows its search tables exactly
//! as it would running alone. Every session's placement-evaluation jobs are
//! spawned onto a single [`p2_par::Scheduler`]
//! (spec-major, in placement production order) and workers steal across spec
//! boundaries, so a batch of N sessions respects one global thread budget
//! instead of oversubscribing with N nested pools. Results are assembled in
//! production order and are bit-identical to running each session alone, for
//! any thread count and any steal schedule.

use p2_par::SchedulerOptions;

use crate::error::P2Error;
use crate::observer::RunObserver;
use crate::pipeline::P2;
use crate::result::ExperimentResult;

/// Options for [`run_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads for the whole batch; `0` resolves to every available
    /// core. This is the batch's *global* budget: no matter how many sessions
    /// are batched, at most this many placement evaluations run at once.
    pub threads: usize,
    /// Steal-schedule seed forwarded to [`SchedulerOptions::seed`]: `0` is
    /// round-robin deque assignment, anything else a pseudo-random one.
    /// Results are identical for every value — the knob exists so tests can
    /// exercise arbitrary steal orderings.
    pub steal_seed: u64,
}

impl BatchOptions {
    /// Options with `threads` workers and everything else at its default.
    pub fn with_threads(threads: usize) -> Self {
        BatchOptions {
            threads,
            ..Self::default()
        }
    }
}

/// What [`run_batch`] produced, plus scheduler telemetry.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per session, in input order — bit-identical to running the
    /// sessions one by one.
    pub results: Vec<ExperimentResult>,
    /// Resolved worker-thread count of the pool.
    pub threads: usize,
    /// Jobs executed by a worker other than the one they were queued on.
    pub steals: usize,
    /// Highest number of jobs observed running simultaneously — never more
    /// than `threads`, whatever the batch size (the oversubscription guard).
    pub peak_in_flight: usize,
}

/// Runs every session on one work-stealing pool and returns their results in
/// input order, bit-identical — for any [`BatchOptions::threads`] and any
/// [`BatchOptions::steal_seed`] — to running the sessions one after another.
/// The sessions are spawned as given: the batch shares the pool, never
/// search tables.
///
/// `observer` receives every session's events; the `index` passed to its
/// hooks is the placement index *within* that session, exactly as in
/// [`P2::run_observed`], and events from different sessions interleave.
///
/// # Errors
///
/// Propagates the first (in input order) session error. Jobs already queued
/// for later sessions drain in the background before the pool shuts down.
pub fn run_batch(
    sessions: &[P2],
    options: &BatchOptions,
    observer: &dyn RunObserver,
) -> Result<BatchOutcome, P2Error> {
    let scheduler_options = SchedulerOptions {
        threads: options.threads,
        seed: options.steal_seed,
    };
    p2_par::scope_with(scheduler_options, |scheduler| {
        // Spawn every session's sweep before joining any of them: jobs of all
        // specs coexist in the deques and workers steal across spec
        // boundaries.
        let mut pending = Vec::with_capacity(sessions.len());
        for session in sessions {
            pending.push(session.spawn_sweep(scheduler, observer)?);
        }
        let mut results = Vec::with_capacity(pending.len());
        for sweep in pending {
            results.push(sweep.collect(scheduler)?);
        }
        Ok(BatchOutcome {
            results,
            threads: scheduler.threads(),
            steals: scheduler.steals(),
            peak_in_flight: scheduler.peak_in_flight(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_topology::presets;

    fn session(axes: Vec<usize>, reduction: Vec<usize>) -> P2 {
        P2::builder(presets::a100_system(2))
            .parallelism_axes(axes)
            .reduction_axes(reduction)
            .bytes_per_device(1.0e9)
            .repeats(2)
            .build()
            .unwrap()
    }

    #[test]
    fn batch_of_one_matches_a_lone_run() {
        let solo = session(vec![8, 4], vec![0]).run().unwrap();
        let outcome = run_batch(
            &[session(vec![8, 4], vec![0])],
            &BatchOptions::with_threads(2),
            &(),
        )
        .unwrap();
        assert_eq!(outcome.results.len(), 1);
        assert!(outcome.peak_in_flight <= outcome.threads);
        let batched = &outcome.results[0];
        assert_eq!(batched.placements.len(), solo.placements.len());
        for (a, b) in batched.placements.iter().zip(&solo.placements) {
            assert_eq!(a.matrix, b.matrix);
            assert_eq!(a.programs_retained, b.programs_retained);
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.signature(), pb.signature());
                assert_eq!(pa.predicted_seconds, pb.predicted_seconds);
                assert_eq!(pa.measured_seconds, pb.measured_seconds);
            }
        }
    }

    #[test]
    fn invalid_sessions_fail_the_batch_up_front() {
        // Shortlist(0) is caught by spawn_sweep before any join.
        let bad = session(vec![8, 4], vec![0]).with_mode(crate::RunMode::Shortlist(0));
        let ok = session(vec![16, 2], vec![0]);
        assert!(run_batch(&[ok, bad], &BatchOptions::default(), &()).is_err());
    }
}
