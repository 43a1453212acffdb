//! Cross-crate tests of the level-synchronous DAG build: its result must be
//! bit-identical for any thread count and any steal schedule, agree with the
//! reference oracle, and reproduce statistics pinned as absolute numbers;
//! the shared tables it runs on must stay consistent under arbitrary
//! concurrent hammering.

use std::sync::Arc;

use proptest::prelude::*;

use p2::collectives::{Collective, SharedTables, State};
use p2::placement::{enumerate_matrices, ordered_factorizations, ParallelismMatrix};
use p2::presets;
use p2::synthesis::{HierarchyKind, SynthesisStats, Synthesizer};
use p2::topology::{Hierarchy, Interconnect, SystemTopology};
use p2_par::{scope_with, SchedulerOptions};

/// The statistics of a search that are deterministic for every thread count
/// and steal schedule (the apply hit/miss *split* and the shared-reuse count
/// legitimately depend on interleaving; their sums below do not).
fn deterministic_stats(
    stats: &SynthesisStats,
) -> (usize, usize, usize, usize, usize, usize, usize) {
    (
        stats.states_explored,
        stats.instructions_tried,
        stats.candidate_instructions,
        stats.programs_emitted,
        stats.unique_device_states,
        stats.goal_respects_entries,
        stats.apply_cache_hits + stats.apply_cache_misses,
    )
}

/// Strategy: a 2-level system, a factorization of its device count into 1–2
/// axes, and a reduction axis (same shape as the synthesis proptests).
fn small_scenario() -> impl Strategy<Value = (SystemTopology, Vec<usize>, usize)> {
    (2usize..=4, 2usize..=8, 1usize..=2).prop_flat_map(|(nodes, gpus, num_axes)| {
        let devices = nodes * gpus;
        let factorizations = ordered_factorizations(devices, num_axes);
        (0..factorizations.len(), 0..num_axes).prop_map(move |(fi, reduction_axis)| {
            let hierarchy = Hierarchy::from_pairs([("node", nodes), ("gpu", gpus)]).unwrap();
            let links = vec![
                Interconnect::new("nic", 8.0e9, 20.0e-6).unwrap(),
                Interconnect::new("nvlink", 150.0e9, 2.0e-6).unwrap(),
            ];
            let system = SystemTopology::new(hierarchy, links).unwrap();
            (system, factorizations[fi].clone(), reduction_axis)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For random small matrices under every hierarchy kind, every thread
    /// count (1, 2, 8 and 0 = all cores) reproduces the one-thread build bit
    /// for bit — same programs in the same order, same deterministic
    /// statistics — and the reference oracle's programs, order and
    /// `states_explored`, across sizes 1..=3. The kinds other than
    /// `ReductionAxes` are where the goal-reachability prune fires.
    #[test]
    fn parallel_build_matches_serial_for_random_scenarios(
        (system, axes, reduction_axis) in small_scenario()
    ) {
        let arities = system.hierarchy().arities();
        for matrix in enumerate_matrices(&arities, &axes).unwrap().into_iter().take(2) {
            prop_assume!(matrix.axis_sizes()[reduction_axis] > 1);
            for kind in HierarchyKind::ALL {
                let synth = Synthesizer::new(matrix.clone(), vec![reduction_axis], kind).unwrap();
                for max_size in 1..=3 {
                    let reference = synth.synthesize_reference(max_size);
                    let serial = synth.clone().with_build_threads(1).synthesize(max_size);
                    for threads in [1usize, 0, 2, 8] {
                        let parallel =
                            synth.clone().with_build_threads(threads).synthesize(max_size);
                        prop_assert_eq!(&parallel.programs, &serial.programs);
                        prop_assert_eq!(
                            deterministic_stats(&parallel.stats),
                            deterministic_stats(&serial.stats)
                        );
                        prop_assert_eq!(&parallel.programs, &reference.programs);
                        prop_assert_eq!(
                            parallel.stats.states_explored,
                            reference.stats.states_explored
                        );
                    }
                }
            }
        }
    }
}

/// The two pinned acceptance matrices: the figure-2d running example and the
/// heaviest rack/node/GPU placement.
fn pinned_cases() -> Vec<(ParallelismMatrix, Vec<usize>)> {
    let figure2d = ParallelismMatrix::new(
        vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
        vec![1, 2, 2, 4],
        vec![4, 4],
    )
    .unwrap();
    let rack = presets::rack_node_gpu_system(2, 2, 4);
    let rack_matrix = enumerate_matrices(&rack.hierarchy().arities(), &[16])
        .unwrap()
        .remove(0);
    vec![(figure2d, vec![1]), (rack_matrix, vec![0])]
}

/// A multithreaded build is bit-identical to the one-thread build for every
/// steal schedule: running inside pools seeded with arbitrary deque-assignment
/// permutations (so jobs land on different workers and steals happen in
/// different orders) never changes a program, its position, or a
/// deterministic statistic.
#[test]
fn parallel_build_is_bit_identical_across_steal_seeds() {
    for (matrix, reduction) in pinned_cases() {
        let serial = Synthesizer::new(
            matrix.clone(),
            reduction.clone(),
            HierarchyKind::ReductionAxes,
        )
        .unwrap()
        .synthesize(5);
        for seed in [0u64, 1, 0x5eed_5eed_5eed_5eed] {
            let (programs, stats) =
                scope_with(SchedulerOptions { threads: 4, seed }, |scheduler| {
                    let matrix = matrix.clone();
                    let reduction = reduction.clone();
                    scheduler
                        .spawn(move || {
                            // Running on a pool worker: the build recruits
                            // this pool's idle workers via nested batches.
                            let result =
                                Synthesizer::new(matrix, reduction, HierarchyKind::ReductionAxes)
                                    .unwrap()
                                    .with_build_threads(4)
                                    .synthesize(5);
                            (result.programs, result.stats)
                        })
                        .join()
                });
            assert_eq!(
                programs, serial.programs,
                "programs diverged at seed {seed:#x}"
            );
            assert_eq!(
                deterministic_stats(&stats),
                deterministic_stats(&serial.stats),
                "stats diverged at seed {seed:#x}"
            );
        }
    }
}

/// Several multithreaded builds over one shared table set, racing each
/// other, still each reproduce their one-thread result exactly.
#[test]
fn concurrent_parallel_builds_share_tables_without_divergence() {
    let tables = Arc::new(SharedTables::new());
    let cases = pinned_cases();
    let serial: Vec<_> = cases
        .iter()
        .map(|(matrix, reduction)| {
            Synthesizer::new(
                matrix.clone(),
                reduction.clone(),
                HierarchyKind::ReductionAxes,
            )
            .unwrap()
            .synthesize(4)
        })
        .collect();
    let tables_ref = &tables;
    scope_with(
        SchedulerOptions {
            threads: 4,
            seed: 7,
        },
        |scheduler| {
            let handles: Vec<_> = cases
                .iter()
                .enumerate()
                .flat_map(|(ci, (matrix, reduction))| {
                    (0..3).map(move |_| {
                        let matrix = matrix.clone();
                        let reduction = reduction.clone();
                        let tables = Arc::clone(tables_ref);
                        scheduler.spawn(move || {
                            let result =
                                Synthesizer::new(matrix, reduction, HierarchyKind::ReductionAxes)
                                    .unwrap()
                                    .with_shared_tables(tables)
                                    .with_build_threads(2)
                                    .synthesize(4);
                            (ci, result)
                        })
                    })
                })
                .collect();
            for handle in handles {
                let (ci, result) = handle.join();
                assert_eq!(result.programs, serial[ci].programs);
                assert_eq!(
                    result.stats.states_explored,
                    serial[ci].stats.states_explored
                );
                assert_eq!(
                    result.stats.goal_respects_entries,
                    serial[ci].stats.goal_respects_entries
                );
            }
        },
    );
}

/// Stress: eight threads hammer one [`SharedTables`] with interleaved
/// interning, lock-free gets and apply-cache lookups over overlapping state
/// sets. Every thread must observe the same id for the same state, every
/// apply must produce the same outputs no matter who computed it first, and
/// the final table must round-trip every id it handed out.
#[test]
fn shared_tables_survive_multithreaded_hammering() {
    const DEVICES: usize = 8;
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;

    let tables = Arc::new(SharedTables::new());
    let results: Vec<Vec<(u32, Vec<u32>)>> = std::thread::scope(|ts| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tables = Arc::clone(&tables);
                ts.spawn(move || {
                    let mut log = Vec::new();
                    for round in 0..ROUNDS {
                        // Every thread walks the same states in a different
                        // order, so first-interner races are constant.
                        for i in 0..DEVICES {
                            let device = (i + t + round) % DEVICES;
                            let (id, _) = tables.intern(State::initial(DEVICES, device));
                            // The id must immediately resolve, lock-free,
                            // to the state that was interned.
                            assert_eq!(tables.get(id).as_ref(), &State::initial(DEVICES, device));
                            let members: Vec<u32> = (0..DEVICES)
                                .map(|d| tables.intern(State::initial(DEVICES, d)).0)
                                .collect();
                            let (out, _) = tables.apply(Collective::AllReduce, &members);
                            let out = out.expect("all-reduce over initial states is valid");
                            log.push((id, out.to_vec()));
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Same state ⇒ same id, on every thread: re-intern serially and compare.
    let canonical: Vec<u32> = (0..DEVICES)
        .map(|d| tables.intern(State::initial(DEVICES, d)).0)
        .collect();
    for log in &results {
        for (round_offset, (id, out)) in log.iter().enumerate() {
            let device = {
                // Reconstruct which device this entry interned.
                let t = results.iter().position(|l| std::ptr::eq(l, log)).unwrap();
                let round = round_offset / DEVICES;
                let i = round_offset % DEVICES;
                (i + t + round) % DEVICES
            };
            assert_eq!(*id, canonical[device], "intern id diverged across threads");
            // All-reduce over all initial states yields one fully-reduced
            // replicated state per member — identical for every caller.
            assert_eq!(out, &log[0].1, "apply outputs diverged across threads");
        }
    }
    // Exactly the states we interned exist (DEVICES initial states plus the
    // all-reduce outputs), and every id round-trips.
    let n = tables.num_states();
    assert!(n >= DEVICES, "at least the initial states must be present");
    for id in 0..n as u32 {
        let state = tables.get(id);
        assert_eq!(tables.intern(state.as_ref().clone()).0, id);
    }
}

/// Absolute pins of the deterministic search statistics, so the builder is
/// checked against fixed numbers and not only against itself at another
/// thread count: every thread count, with private tables or a freshly
/// attached [`SharedTables`], must reproduce them, and the count-only path
/// the same program totals.
#[test]
fn deterministic_stats_are_pinned_for_every_thread_count_and_table_mode() {
    // (size, (states explored, instructions tried, candidates, programs
    // emitted, unique device states, goal-respects entries, apply lookups),
    // program count)
    let pins = [
        (6, (39, 780, 20, 93, 34, 32, 848), 93),
        (7, (743, 33_435, 45, 8_749, 561, 558, 38_694), 8_749),
    ];
    for ((matrix, reduction), (size, stats, count)) in pinned_cases().into_iter().zip(pins) {
        for threads in [1usize, 2, 0] {
            for attach_tables in [false, true] {
                let mut synth = Synthesizer::new(
                    matrix.clone(),
                    reduction.clone(),
                    HierarchyKind::ReductionAxes,
                )
                .unwrap()
                .with_build_threads(threads);
                if attach_tables {
                    synth = synth.with_shared_tables(Arc::new(SharedTables::new()));
                }
                let result = synth.synthesize(size);
                assert_eq!(
                    deterministic_stats(&result.stats),
                    stats,
                    "threads={threads} attached={attach_tables} size={size}"
                );
                assert_eq!(synth.count_programs(size).total, count);
            }
        }
    }
}
