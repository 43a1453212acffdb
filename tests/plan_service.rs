//! End-to-end pins of the planner service's cache contract:
//!
//! * a repeat request is answered from the plan store **without invoking
//!   synthesis** (counted by an observer, not inferred from timings),
//! * the on-disk store survives a planner restart,
//! * concurrent identical requests coalesce to exactly one synthesis,
//! * a cached plan is bit-identical to a fresh `P2` run of the same request,
//!   for any worker-thread count and steal seed, including after a disk
//!   round trip.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use p2::placement::ParallelismMatrix;
use p2::topology::presets;
use p2::{Plan, PlanRequest, PlanSource, Planner, PlannerConfig, RunObserver};

/// Counts placement-sweep starts — any synthesis work at all shows up here.
#[derive(Default)]
struct SweepCounter(AtomicUsize);

impl RunObserver for SweepCounter {
    fn on_placement_start(&self, _index: usize, _matrix: &ParallelismMatrix) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The test request: the 2×2×4 rack preset — 3 hierarchy levels, 16 devices,
/// bounded retention so each cold synthesis stays fast.
fn rack_request() -> PlanRequest {
    PlanRequest::new(presets::rack_node_gpu_system(2, 2, 4), vec![4, 4], vec![0])
        .with_bytes_per_device(1.0e9)
        .with_repeats(2)
        .with_keep_top(8)
}

fn temp_store(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("p2-plan-test-{}-{name}", std::process::id()))
}

fn config(threads: usize, steal_seed: u64, dir: &std::path::Path) -> PlannerConfig {
    PlannerConfig {
        threads,
        steal_seed,
        store_dir: Some(dir.to_path_buf()),
        ..PlannerConfig::default()
    }
}

#[test]
fn repeat_requests_never_reinvoke_synthesis() {
    let dir = temp_store("repeat");
    let _ = std::fs::remove_dir_all(&dir);

    let counter = Arc::new(SweepCounter::default());
    let planner =
        Planner::with_observer(config(2, 0, &dir), counter.clone()).expect("planner starts");
    let cold = planner
        .plan("tenant-a", rack_request())
        .expect("cold plan succeeds");
    assert_eq!(cold.source, PlanSource::Synthesized);
    let sweeps_after_cold = counter.0.load(Ordering::SeqCst);
    assert!(sweeps_after_cold > 0, "cold miss must sweep placements");

    for _ in 0..3 {
        let warm = planner
            .plan("tenant-a", rack_request())
            .expect("warm plan succeeds");
        assert_eq!(warm.source, PlanSource::Warm);
        assert_eq!(warm.plan, cold.plan);
    }
    assert_eq!(
        counter.0.load(Ordering::SeqCst),
        sweeps_after_cold,
        "warm hits must not invoke synthesis"
    );
    planner.shutdown();

    // Restart on the same directory: the plan comes back from disk, still
    // without a single placement sweep on the fresh planner's observer.
    let restarted = Arc::new(SweepCounter::default());
    let planner =
        Planner::with_observer(config(2, 0, &dir), restarted.clone()).expect("planner restarts");
    let disk = planner
        .plan("tenant-b", rack_request())
        .expect("disk plan succeeds");
    assert_eq!(disk.source, PlanSource::Disk);
    assert_eq!(disk.plan.entries, cold.plan.entries);
    assert_eq!(
        restarted.0.load(Ordering::SeqCst),
        0,
        "a restart must serve the persisted plan without synthesizing"
    );
    planner.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_synthesis() {
    let dir = temp_store("coalesce");
    let _ = std::fs::remove_dir_all(&dir);

    let planner = Arc::new(Planner::new(config(2, 0, &dir)).expect("planner starts"));
    let clients = 4;
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let planner = Arc::clone(&planner);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                planner
                    .plan(&format!("tenant-{i}"), rack_request())
                    .expect("plan succeeds")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let first = &responses[0];
    for response in &responses {
        assert_eq!(response.plan, first.plan, "all clients get the same plan");
    }
    let stats = planner.stats();
    assert_eq!(
        stats.syntheses, 1,
        "identical in-flight requests must share one synthesis \
         ({} coalesced, {} warm)",
        stats.coalesced, stats.warm_hits
    );
    planner.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_plans_are_bit_identical_to_fresh_runs_for_any_schedule() {
    let request = rack_request();
    // The reference: a fresh, planner-free pipeline run of the same request.
    let result = request
        .session()
        .expect("request builds")
        .run()
        .expect("pipeline runs");
    let reference = Plan::from_result(request.fingerprint(), &result, request.top_k);

    for (threads, steal_seed) in [(1usize, 0u64), (2, 0xdead_beef), (4, 1)] {
        let dir = temp_store(&format!("sched-{threads}-{steal_seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let planner = Planner::new(config(threads, steal_seed, &dir)).expect("planner starts");
        let cold = planner
            .plan("tenant", request.clone())
            .expect("cold plan succeeds");
        assert_eq!(cold.source, PlanSource::Synthesized);
        assert_eq!(
            cold.plan.entries, reference.entries,
            "threads={threads} steal_seed={steal_seed:#x}: planner result \
             must match the fresh run bit for bit"
        );
        assert_eq!(cold.plan.label, reference.label);
        planner.shutdown();

        // And the disk round trip preserves the bits exactly.
        let planner = Planner::new(config(threads, steal_seed, &dir)).expect("planner restarts");
        let disk = planner
            .plan("tenant", request.clone())
            .expect("disk plan succeeds");
        assert_eq!(disk.source, PlanSource::Disk);
        assert_eq!(disk.plan.entries, reference.entries);
        planner.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
