//! Deterministic batch scheduling: many experiment sessions on **one**
//! work-stealing thread pool, with opt-in cross-spec sharing of the dyadic
//! pruning bound.
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
//!
//! With [`BatchOptions::share_bounds`], sessions over the same system, buffer
//! size, algorithm and cost model form *sharing groups*: each group reduces
//! its predicted minima through one [`SharedBoundTree`] whose slots number
//! the group's placements spec-major in production order — placement `j` of
//! the group's `i`-th spec occupies slot `offset_i + j`. That is exactly the
//! single-sweep [`SharedBoundObserver`](crate::SharedBoundObserver) contract
//! stretched across specs, so the whole group behaves like one big sweep:
//! deterministic, and strictly fewer predictions than per-spec bounds.
//! Because the group *is* one search, per-spec retained sets may shrink
//! compared to unshared runs — only the group's overall best program is
//! guaranteed to survive (within `prune_slack`), which is why sharing is
//! opt-in.

use std::sync::Arc;

use p2_par::SchedulerOptions;
use p2_placement::{MatrixControl, ParallelismMatrix};
use p2_synthesis::Program;

use crate::config::P2Config;
use crate::error::P2Error;
use crate::observer::{RunObserver, SharedBoundTree, SlotBoundObserver};
use crate::pipeline::P2;
use crate::result::{ExperimentResult, PlacementEvaluation};

/// Options for [`run_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads for the whole batch; `0` resolves to every available
    /// core. This is the batch's *global* budget: no matter how many sessions
    /// are batched, at most this many placement evaluations run at once.
    pub threads: usize,
    /// Share the dyadic pruning bound across the specs of each sharing group
    /// (see the module docs for the grouping key and the retention caveat).
    /// Off by default: the default batch is bit-identical to running every
    /// session on its own.
    pub share_bounds: bool,
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
    /// sessions one by one (unless bound sharing was requested).
    pub results: Vec<ExperimentResult>,
    /// Number of sharing groups the sessions were partitioned into (computed
    /// even when sharing is off).
    pub groups: usize,
    /// `group_of[i]` is the sharing group of session `i`.
    pub group_of: Vec<usize>,
    /// Per group: the final shared pruning bound (`None` when
    /// [`BatchOptions::share_bounds`] was off or nothing finite was
    /// published).
    pub bounds: Vec<Option<f64>>,
    /// Resolved worker-thread count of the pool.
    pub threads: usize,
    /// Jobs executed by a worker other than the one they were queued on.
    pub steals: usize,
    /// Highest number of jobs observed running simultaneously — never more
    /// than `threads`, whatever the batch size (the oversubscription guard).
    pub peak_in_flight: usize,
}

/// Two sessions share bounds only if their predicted-time domains are
/// interchangeable: same topology (hierarchy + interconnects), same
/// collective algorithm and buffer size, the same cost model, and the same
/// pruning slack. The measurement knobs (noise, seed, repeats) are included
/// because [`p2_cost::CostModelKind::Calibrated`] models fit against them.
fn same_group(a: &P2Config, b: &P2Config) -> bool {
    let same_model = match (&a.cost_model, &b.cost_model) {
        (None, None) => true,
        // One Arc is trivially the same model; distinct instances of the
        // same built-in kind over an equal system predict identically, and
        // the kind is recoverable from the name.
        (Some(x), Some(y)) => Arc::ptr_eq(x, y) || x.name() == y.name(),
        _ => false,
    };
    same_model
        && a.system.hierarchy() == b.system.hierarchy()
        && a.system.links() == b.system.links()
        && a.algo == b.algo
        && a.bytes_per_device == b.bytes_per_device
        && a.prune_slack == b.prune_slack
        && a.noise_fraction == b.noise_fraction
        && a.seed == b.seed
        && a.repeats == b.repeats
}

/// The per-session observer of a batch run: forwards every event to the
/// caller's observer and, when bound sharing is on, mirrors it into the
/// session's window of the group's [`SharedBoundTree`].
struct BatchMemberObserver<'a> {
    user: &'a dyn RunObserver,
    bound: Option<SlotBoundObserver>,
}

impl RunObserver for BatchMemberObserver<'_> {
    fn on_placement_start(&self, index: usize, matrix: &ParallelismMatrix) -> Option<f64> {
        // The user's seed first (it must not block), then the shared bound's
        // (it may wait on the group's dyadic prefix); prune against the
        // tighter of the two.
        let user = self.user.on_placement_start(index, matrix);
        let shared = self
            .bound
            .as_ref()
            .and_then(|b| b.on_placement_start(index, matrix));
        match (user, shared) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (seed, None) => seed,
            (None, seed) => seed,
        }
    }

    fn on_program_retained(
        &self,
        index: usize,
        program: &Program,
        predicted_seconds: f64,
        measured_seconds: f64,
    ) {
        self.user
            .on_program_retained(index, program, predicted_seconds, measured_seconds);
    }

    fn on_placement_done(&self, index: usize, evaluation: &PlacementEvaluation) {
        self.user.on_placement_done(index, evaluation);
        if let Some(bound) = &self.bound {
            bound.on_placement_done(index, evaluation);
        }
    }

    fn on_placement_aborted(&self, index: usize) {
        self.user.on_placement_aborted(index);
        if let Some(bound) = &self.bound {
            bound.on_placement_aborted(index);
        }
    }
}

/// Runs every session on one work-stealing pool and returns their results in
/// input order, bit-identical — for any [`BatchOptions::threads`] and any
/// [`BatchOptions::steal_seed`] — to running the sessions one after another
/// (with [`BatchOptions::share_bounds`] off; see the module docs for what
/// bound sharing changes). The sessions are spawned as given: the batch
/// shares the pool, never search tables.
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
    // Partition the sessions into sharing groups (a linear scan over
    // representatives — deterministic in input order).
    let mut group_of: Vec<usize> = Vec::with_capacity(sessions.len());
    let mut representatives: Vec<usize> = Vec::new();
    for session in sessions {
        let group = representatives
            .iter()
            .position(|&r| same_group(sessions[r].config(), session.config()));
        group_of.push(group.unwrap_or_else(|| {
            representatives.push(group_of.len());
            representatives.len() - 1
        }));
    }
    let groups = representatives.len();

    // Slot layout for bound sharing: spec-major, placement production order —
    // the spawn order below — so each group's slots are one big sweep's.
    let mut slot_base: Vec<usize> = vec![0; sessions.len()];
    let trees: Vec<Arc<SharedBoundTree>> = if options.share_bounds {
        let mut next_slot = vec![0usize; groups];
        for (i, session) in sessions.iter().enumerate() {
            slot_base[i] = next_slot[group_of[i]];
            let placements =
                session.for_each_placement(&mut |_: &ParallelismMatrix| MatrixControl::Continue)?;
            next_slot[group_of[i]] += placements;
        }
        (0..groups)
            .map(|_| Arc::new(SharedBoundTree::new()))
            .collect()
    } else {
        Vec::new()
    };

    let observers: Vec<BatchMemberObserver<'_>> = (0..sessions.len())
        .map(|i| BatchMemberObserver {
            user: observer,
            bound: options
                .share_bounds
                .then(|| SlotBoundObserver::new(Arc::clone(&trees[group_of[i]]), slot_base[i])),
        })
        .collect();

    let scheduler_options = SchedulerOptions {
        threads: options.threads,
        seed: options.steal_seed,
    };
    let (results, threads, steals, peak_in_flight) =
        p2_par::scope_with(scheduler_options, |scheduler| {
            // Spawn every session's sweep before joining any of them: jobs of
            // all specs coexist in the deques and workers steal across spec
            // boundaries, while each shared-bound slot only ever waits on
            // strictly earlier spawns.
            let mut pending = Vec::with_capacity(sessions.len());
            for (session, member) in sessions.iter().zip(&observers) {
                pending.push(session.spawn_sweep(scheduler, member)?);
            }
            let mut results = Vec::with_capacity(pending.len());
            for sweep in pending {
                results.push(sweep.collect(scheduler)?);
            }
            Ok::<_, P2Error>((
                results,
                scheduler.threads(),
                scheduler.steals(),
                scheduler.peak_in_flight(),
            ))
        })?;

    let bounds: Vec<Option<f64>> = if options.share_bounds {
        trees.iter().map(|tree| tree.bound()).collect()
    } else {
        vec![None; groups]
    };

    Ok(BatchOutcome {
        results,
        groups,
        group_of,
        bounds,
        threads,
        steals,
        peak_in_flight,
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
    fn grouping_ignores_axes_but_splits_on_bytes() {
        let a = session(vec![8, 4], vec![0]);
        let b = session(vec![16, 2], vec![1]);
        assert!(same_group(a.config(), b.config()));
        let c = P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
            .bytes_per_device(2.0e9)
            .repeats(2)
            .build()
            .unwrap();
        assert!(!same_group(a.config(), c.config()));
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
        assert_eq!(outcome.groups, 1);
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
