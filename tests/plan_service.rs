//! End-to-end pins of the planner service's cache contract:
//!
//! * a repeat request is answered from the plan store **without invoking
//!   synthesis** (counted by an observer, not inferred from timings),
//! * the on-disk store survives a planner restart,
//! * concurrent identical requests coalesce to exactly one synthesis,
//! * a cached plan is bit-identical to a fresh `P2` run of the same request,
//!   for any worker-thread count and steal seed, including after a disk
//!   round trip,
//! * a damaged plan record is a miss, and a panicking batch fails its
//!   requests with a typed error while the planner keeps serving,
//! * any session description plans, synthesis hierarchy included.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use p2::placement::ParallelismMatrix;
use p2::topology::presets;
use p2::{
    HierarchyKind, Plan, PlanRequest, PlanSource, Planner, PlannerConfig, RunObserver, ServiceError,
};

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

/// Asserts two plans agree bit for bit, measurement and prediction bits
/// included.
fn assert_bit_identical(a: &Plan, b: &Plan) {
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.label, b.label);
    assert_eq!(a.entries, b.entries);
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.predicted_seconds.to_bits(), y.predicted_seconds.to_bits());
        assert_eq!(x.measured_seconds.to_bits(), y.measured_seconds.to_bits());
    }
}

/// The plan a fresh, planner-free pipeline run of `request` yields.
fn fresh_plan(request: &PlanRequest) -> Plan {
    let result = request
        .session()
        .expect("request builds")
        .run()
        .expect("pipeline runs");
    Plan::from_result(request.fingerprint(), &result, request.top_k)
}

#[test]
fn a_plan_record_with_a_flipped_digit_is_a_miss_and_replans_bit_identically() {
    let dir = temp_store("flipped-record");
    let _ = std::fs::remove_dir_all(&dir);
    let planner = Planner::new(config(2, 0, &dir)).expect("planner starts");
    let cold = planner.plan("flip", rack_request()).expect("cold plan");
    planner.shutdown();
    // Flip the low bit of one decimal digit in the first entry's
    // `measured_bits`: the record still parses, to a different time.
    let path = dir.join(format!("{}.json", cold.fingerprint));
    let mut record = std::fs::read(&path).expect("record written");
    let field = b"\"measured_bits\":\"0x";
    let start = record
        .windows(field.len())
        .position(|window| window == field)
        .expect("measured bits in the record")
        + field.len();
    let digit = (start..start + 16)
        .rev()
        .find(|&i| record[i].is_ascii_digit())
        .expect("a decimal digit among the hex digits");
    record[digit] ^= 1;
    std::fs::write(&path, &record).unwrap();

    let restarted = Planner::new(config(2, 0, &dir)).expect("planner restarts");
    let replanned = restarted.plan("flip", rack_request()).expect("replan");
    restarted.shutdown();
    assert_eq!(replanned.source, PlanSource::Synthesized);
    // A miss probes the store twice (before and under the pending lock),
    // and each probe counts the damaged record.
    assert!(restarted.stats().disk_misreads >= 1);
    assert_eq!(restarted.stats().disk_hits, 0);
    assert_bit_identical(&replanned.plan, &cold.plan);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Panics the first time any placement starts, then observes nothing.
#[derive(Default)]
struct PanicsOnce(AtomicBool);

impl RunObserver for PanicsOnce {
    fn on_placement_start(&self, _index: usize, _matrix: &ParallelismMatrix) {
        if !self.0.swap(true, Ordering::SeqCst) {
            panic!("observer panics once");
        }
    }
}

#[test]
fn a_panicking_batch_fails_its_requests_and_the_planner_keeps_serving() {
    let config = PlannerConfig {
        threads: 2,
        ..PlannerConfig::default()
    };
    let planner = Arc::new(
        Planner::with_observer(config, Arc::new(PanicsOnce::default())).expect("planner starts"),
    );
    let request = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
        .with_bytes_per_device(1.0e9)
        .with_repeats(2);
    let (answered, answer) = mpsc::channel();
    let client = {
        let (planner, request) = (Arc::clone(&planner), request.clone());
        thread::spawn(move || {
            let _ = answered.send(planner.plan("panic", request));
        })
    };
    let first = answer
        .recv_timeout(Duration::from_secs(60))
        .expect("the panicking batch is answered instead of hanging");
    client.join().expect("client thread");
    assert!(
        matches!(first, Err(ServiceError::Internal(_))),
        "expected an internal error, got {first:?}"
    );
    // The worker survived and serves the same request from fresh tables.
    let second = planner.plan("panic", request.clone()).expect("replan");
    assert_eq!(second.source, PlanSource::Synthesized);
    assert_bit_identical(&second.plan, &fresh_plan(&request));
    planner.shutdown();
}

#[test]
fn a_session_with_the_system_hierarchy_plans_like_a_direct_run() {
    let default = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
        .with_bytes_per_device(1.0e9)
        .with_repeats(2);
    let mut system = default.clone();
    system.session = system.session.hierarchy_kind(HierarchyKind::System);
    assert_ne!(system.fingerprint(), default.fingerprint());
    let planner = Planner::new(PlannerConfig {
        threads: 2,
        ..PlannerConfig::default()
    })
    .expect("planner starts");
    let planned = planner.plan("hierarchy", system.clone()).expect("plan");
    planner.shutdown();
    assert_eq!(planned.source, PlanSource::Synthesized);
    assert_eq!(planned.fingerprint, system.fingerprint());
    let direct = system
        .session
        .clone()
        .run()
        .expect("direct run of the same session");
    let reference = Plan::from_result(system.fingerprint(), &direct, system.top_k);
    assert_bit_identical(&planned.plan, &reference);
}
