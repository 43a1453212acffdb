//! Determinism of the parallel placement × synthesis sweep: for a fixed seed,
//! [`p2::P2::run`] must produce bit-identical results serially and under any
//! worker-thread count, and every session entry point (builder,
//! `P2::new(config).with_mode(...)`) must agree with the others the same way.
//! This pins down the `--seed` reproducibility contract: noise is a pure
//! function of (seed, program content), never of evaluation order.

use std::sync::Arc;

use p2::collectives::SharedTables;
use p2::{
    presets, run_batch, BatchOptions, ExperimentResult, NcclAlgo, P2Builder, P2Config, RunMode,
    SystemTopology, TableStore, TableStoreStats, P2,
};

fn session(seed: u64) -> P2Builder {
    P2::builder(presets::a100_system(2))
        .parallelism_axes([8, 4])
        .reduction_axes([0])
        .algo(NcclAlgo::Ring)
        .bytes_per_device(1.0e9)
        .repeats(2)
        .seed(seed)
}

/// Strict equality of everything rankings are built from (synthesis wall-clock
/// time is excluded: it is the one genuinely nondeterministic field).
fn assert_identical(a: &ExperimentResult, b: &ExperimentResult) {
    assert_eq!(a.label, b.label);
    assert_eq!(a.parallelism_axes, b.parallelism_axes);
    assert_eq!(a.reduction_axes, b.reduction_axes);
    assert_eq!(a.placements.len(), b.placements.len());
    for (pa, pb) in a.placements.iter().zip(&b.placements) {
        assert_eq!(pa.matrix.to_string(), pb.matrix.to_string());
        assert_eq!(pa.num_programs, pb.num_programs);
        assert_eq!(pa.programs_pruned, pb.programs_pruned);
        assert_eq!(pa.programs_retained, pb.programs_retained);
        assert_eq!(pa.allreduce_predicted, pb.allreduce_predicted);
        assert_eq!(pa.allreduce_measured, pb.allreduce_measured);
        for (qa, qb) in pa.programs.iter().zip(&pb.programs) {
            assert_eq!(qa.signature(), qb.signature());
            assert_eq!(qa.predicted_seconds, qb.predicted_seconds);
            assert_eq!(qa.measured_seconds, qb.measured_seconds);
        }
    }
}

#[test]
fn full_run_is_identical_across_thread_counts() {
    let serial = session(0x5eed).threads(1).run().unwrap();
    for threads in [0, 2, 4, 8] {
        let parallel = session(0x5eed).threads(threads).run().unwrap();
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn shortlist_run_is_identical_across_thread_counts() {
    let p2_serial = session(0xabcd)
        .threads(1)
        .mode(RunMode::Shortlist(10))
        .build()
        .unwrap();
    let serial = p2_serial.run().unwrap();
    for threads in [2, 4] {
        let p2_parallel = session(0xabcd)
            .threads(threads)
            .mode(RunMode::Shortlist(10))
            .build()
            .unwrap();
        assert_identical(&serial, &p2_parallel.run().unwrap());
    }
}

/// The api_redesign acceptance criterion, migrated from the removed
/// `run_with_shortlist` shim: the builder + `RunMode::Shortlist` session is
/// bit-identical to assembling a `P2Config` by hand and selecting the mode
/// with `with_mode`, pinned on the paper's presets (an A100 and a V100
/// system) with the shim's historical cases and seed.
#[test]
fn builder_shortlist_is_bit_identical_to_config_with_mode() {
    let cases: [(SystemTopology, Vec<usize>, Vec<usize>); 3] = [
        (presets::a100_system(2), vec![8, 4], vec![0]),
        (presets::v100_system(2), vec![4, 4], vec![1]),
        (presets::a100_system(2), vec![16, 2], vec![0, 1]),
    ];
    for (system, axes, reduction) in cases {
        let new_api = P2::builder(system.clone())
            .parallelism_axes(axes.clone())
            .reduction_axes(reduction.clone())
            .algo(NcclAlgo::Ring)
            .bytes_per_device(1.0e9)
            .repeats(2)
            .seed(0x5eed)
            .mode(RunMode::Shortlist(10))
            .run()
            .unwrap();
        let mut config = P2Config::new(system, axes, reduction);
        config.algo = NcclAlgo::Ring;
        config.bytes_per_device = 1.0e9;
        config.repeats = 2;
        config.seed = 0x5eed;
        let via_config = P2::new(config)
            .unwrap()
            .with_mode(RunMode::Shortlist(10))
            .run()
            .unwrap();
        assert_identical(&new_api, &via_config);
    }
}

#[test]
fn bounded_retention_is_identical_across_thread_counts() {
    // The streaming top-K retention and its pruning bounds are pure
    // per-placement state, so bounded runs must stay bit-identical too.
    let serial = session(0x5eed).keep_top(5).threads(1).run().unwrap();
    for threads in [0, 2, 4] {
        let parallel = session(0x5eed).keep_top(5).threads(threads).run().unwrap();
        assert_identical(&serial, &parallel);
    }
    let shortlisted = session(0x5eed)
        .keep_top(5)
        .threads(1)
        .mode(RunMode::Shortlist(5))
        .run()
        .unwrap();
    for threads in [2, 4] {
        let parallel = session(0x5eed)
            .keep_top(5)
            .threads(threads)
            .mode(RunMode::Shortlist(5))
            .run()
            .unwrap();
        assert_identical(&shortlisted, &parallel);
    }
}

/// The sweep-wide shared interner must be invisible in the results: the same
/// experiment with shared tables on (the default) and off, serial and
/// parallel, is bit-identical everywhere rankings are built from, and the
/// deterministic statistics (states explored, per-placement device-state
/// universes, final shared-interner size) agree for any thread count.
#[test]
fn shared_interning_is_invisible_in_results() {
    let shared_serial = session(0x5eed).threads(1).run().unwrap();
    let private_serial = session(0x5eed)
        .shared_intern(false)
        .threads(1)
        .run()
        .unwrap();
    assert_identical(&shared_serial, &private_serial);
    assert!(shared_serial.shared_unique_device_states.is_some());
    assert!(private_serial.shared_unique_device_states.is_none());
    for (a, b) in shared_serial
        .placements
        .iter()
        .zip(&private_serial.placements)
    {
        assert_eq!(a.states_explored, b.states_explored);
        assert_eq!(
            a.unique_device_states, b.unique_device_states,
            "a placement's device-state universe must not depend on sharing"
        );
    }
    // The shared interner holds each device state once for the whole sweep,
    // so its final size never exceeds the sum of per-placement universes.
    let per_placement_sum: usize = shared_serial
        .placements
        .iter()
        .map(|p| p.unique_device_states)
        .sum();
    let shared_size = shared_serial.shared_unique_device_states.unwrap();
    assert!(shared_size > 0 && shared_size <= per_placement_sum);
    assert_eq!(shared_serial.peak_unique_device_states(), shared_size);
    for threads in [0, 2, 4] {
        let parallel = session(0x5eed).threads(threads).run().unwrap();
        assert_identical(&shared_serial, &parallel);
        assert_eq!(
            parallel.shared_unique_device_states, shared_serial.shared_unique_device_states,
            "the final shared-interner size is a set union: thread-count independent"
        );
        for (a, b) in shared_serial.placements.iter().zip(&parallel.placements) {
            assert_eq!(a.unique_device_states, b.unique_device_states);
            assert_eq!(a.suffix_memo_hits, b.suffix_memo_hits);
            assert_eq!(a.suffix_memo_misses, b.suffix_memo_misses);
        }
    }
}

/// The cross-run table store must be result-invisible: a warm-started run
/// (snapshot loaded from disk) is bit-identical to the cold run that wrote
/// the snapshot and to a store-less baseline — for 1, 2 and 8 worker
/// threads, so warm seeding cannot interact with the steal schedule.
#[test]
fn warm_started_runs_are_identical_to_cold_runs_for_any_thread_count() {
    let dir = std::env::temp_dir().join(format!(
        "p2-determinism-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TableStore::new(&dir);
    let key = session(0x5eed).config().table_key();
    let baseline = session(0x5eed).threads(1).run().unwrap();
    // A cold run on tables the caller owns, persisted by their owner.
    let cold_tables = Arc::new(SharedTables::new());
    let cold = session(0x5eed)
        .threads(1)
        .build()
        .unwrap()
        .with_shared_tables(Arc::clone(&cold_tables))
        .run()
        .unwrap();
    let mut cold_stats = TableStoreStats::default();
    store.persist(key, &cold_tables, &mut cold_stats);
    assert!(cold_stats.saved);
    assert!(cold_stats.saved_states > 0);
    assert_identical(&baseline, &cold);
    for threads in [1usize, 2, 8] {
        let tables = Arc::new(SharedTables::new());
        let stats = store.warm(key, &tables);
        assert!(stats.loaded, "threads={threads}: snapshot must load");
        assert_eq!(stats.warm_states, cold_stats.saved_states);
        assert_eq!(stats.warm_apply_entries, cold_stats.saved_apply_entries);
        let warm = session(0x5eed)
            .threads(threads)
            .build()
            .unwrap()
            .with_shared_tables(Arc::clone(&tables))
            .run()
            .unwrap();
        assert_identical(&baseline, &warm);
        // Every placement finds its whole universe in the snapshot, and the
        // warm tables end exactly where the cold ones did.
        for placement in &warm.placements {
            assert_eq!(
                placement.shared_states_reused, placement.unique_device_states,
                "threads={threads}"
            );
        }
        assert_eq!(tables.num_states(), cold_tables.num_states());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_seeds_produce_different_measurements() {
    let a = session(1).run().unwrap();
    let b = session(2).run().unwrap();
    let measured = |r: &ExperimentResult| -> Vec<f64> {
        r.placements
            .iter()
            .flat_map(|p| p.programs.iter().map(|q| q.measured_seconds))
            .collect()
    };
    assert_ne!(measured(&a), measured(&b), "noise must depend on the seed");
    // Predictions are noise-free and must agree regardless of seed. Programs
    // are ranked by seed-dependent measured time, so compare order-free.
    let predicted = |r: &ExperimentResult| -> Vec<f64> {
        let mut p: Vec<f64> = r
            .placements
            .iter()
            .flat_map(|p| p.programs.iter().map(|q| q.predicted_seconds))
            .collect();
        p.sort_by(f64::total_cmp);
        p
    };
    assert_eq!(predicted(&a), predicted(&b));
}

#[test]
fn repeated_runs_of_the_same_tool_are_identical() {
    let tool = session(0x7777).build().unwrap();
    assert_identical(&tool.run().unwrap(), &tool.run().unwrap());
}

/// The batch-scheduling contract: a [`run_batch`] of several sessions on one
/// work-stealing pool is bit-identical to running each session alone with a
/// single thread — for 1, 2 and 8 workers and across steal-schedule seeds.
/// One session runs in `Shortlist` mode so the measurement stage is scheduled
/// through the shared pool too.
#[test]
fn batched_sessions_are_identical_to_serial_runs_for_any_thread_count() {
    let cases: [(Vec<usize>, Vec<usize>); 3] = [
        (vec![8, 4], vec![0]),
        (vec![16, 2], vec![1]),
        (vec![4, 8], vec![0]),
    ];
    let build = |axes: &Vec<usize>, reduction: &Vec<usize>, threads: usize| {
        let mode = if *axes == vec![16, 2] {
            RunMode::Shortlist(5)
        } else {
            RunMode::Measure
        };
        session(0x5eed)
            .parallelism_axes(axes.clone())
            .reduction_axes(reduction.clone())
            .threads(threads)
            .mode(mode)
            .build()
            .unwrap()
    };
    let serial: Vec<ExperimentResult> = cases
        .iter()
        .map(|(axes, reduction)| build(axes, reduction, 1).run().unwrap())
        .collect();
    let sessions: Vec<P2> = cases
        .iter()
        .map(|(axes, reduction)| build(axes, reduction, 1))
        .collect();
    for threads in [1usize, 2, 8] {
        for steal_seed in [0u64, 0xdead_beef] {
            let options = BatchOptions {
                threads,
                steal_seed,
            };
            let outcome = run_batch(&sessions, &options, &()).unwrap();
            assert_eq!(outcome.results.len(), serial.len());
            for (a, b) in serial.iter().zip(&outcome.results) {
                assert_identical(a, b);
            }
        }
    }
}
