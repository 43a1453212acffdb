//! Cross-run table-store warm-start benchmark: counts the heaviest
//! rack/node/GPU placement's programs cold, snapshots the search tables
//! through [`p2_core::TableStore::persist`], warms fresh tables from the
//! snapshot through [`p2_core::TableStore::warm`] — the protocol the planner
//! uses — and counts again on them.
//!
//! What a snapshot provides is asserted exactly, on the default single
//! build thread where the counters are deterministic:
//!
//! - the warm count runs no collective application (`apply_cache_misses`
//!   is 0) and finds every device state it touches already interned
//!   (`shared_states_reused == unique_device_states`);
//! - both counts agree, and at the default size 7 they equal the pinned
//!   8 749 programs (see `synthesis_smoke`), with 12 791 collective
//!   applications run cold and 561 states interned.
//!
//! Timings (cold, warm, snapshot load and save) are printed and written
//! to `--json` as measurements, not gated: the warm count still builds the
//! search graph, so its speedup over the cold count is modest and
//! host-dependent.
//!
//! Usage: `cargo run --release -p p2_bench --bin table_store_bench --`
//! `[--size N] [--repeats N] [--json PATH]`

use std::sync::Arc;
use std::time::Instant;

use p2_collectives::SharedTables;
use p2_core::{TableStore, TableStoreStats, P2};
use p2_placement::enumerate_matrices;
use p2_synthesis::{HierarchyKind, ProgramCount, Synthesizer};
use p2_topology::presets;

/// Pinned size-7 count of the rack case (see `synthesis_smoke`).
const PIN_RACK_7: u64 = 8749;
/// Collective applications the cold size-7 count runs on one build thread.
const PIN_COLD_APPLIES_7: usize = 12_791;
/// Distinct device states the size-7 search interns.
const PIN_STATES_7: usize = 561;

fn parse_args() -> (usize, usize, Option<String>) {
    let mut size = 7usize;
    let mut repeats = 3usize;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let value = args.next().expect("--size takes a value");
                size = value.parse().expect("--size takes an integer");
            }
            "--repeats" => {
                let value = args.next().expect("--repeats takes a value");
                repeats = value.parse().expect("--repeats takes an integer");
            }
            "--json" => json_path = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument: {other} (see the doc comment for usage)"),
        }
    }
    (size, repeats, json_path)
}

fn main() {
    let (size, repeats, json_path) = parse_args();
    let repeats = repeats.max(1);
    let rack = presets::rack_node_gpu_system(2, 2, 4);
    let matrix = enumerate_matrices(&rack.hierarchy().arities(), &[16])
        .expect("rack axes fit the system")
        .into_iter()
        .next()
        .expect("at least one rack placement");
    // The real table key of this configuration — what the pipeline would
    // use, so the snapshot on disk is interchangeable with a sweep's.
    let key = P2::builder(rack)
        .parallelism_axes([16])
        .reduction_axes([0])
        .max_program_size(size)
        .build()
        .expect("valid rack session")
        .config()
        .table_key();

    let dir = std::env::temp_dir().join(format!("p2-table-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TableStore::new(&dir);
    let count_on = |tables: &Arc<SharedTables>| -> (ProgramCount, f64) {
        let synth = Synthesizer::new(matrix.clone(), vec![0], HierarchyKind::ReductionAxes)
            .expect("valid rack synthesizer")
            .with_shared_tables(Arc::clone(tables));
        let start = Instant::now();
        let count = synth.count_programs(size);
        (count, start.elapsed().as_secs_f64() * 1e3)
    };

    println!("Table-store warm-start bench: rack size {size} count-only, best of {repeats}\n");

    // Cold runs: fresh tables every repeat, snapshot saved once.
    let mut cold_ms = f64::INFINITY;
    let mut save_ms = 0.0;
    let mut cold = None;
    for repeat in 0..repeats {
        let tables = Arc::new(SharedTables::new());
        let (count, ms) = count_on(&tables);
        cold_ms = cold_ms.min(ms);
        if repeat == 0 {
            let mut stats = TableStoreStats::default();
            store.persist(key, &tables, &mut stats);
            assert!(stats.saved, "the cold run's snapshot was not saved");
            save_ms = stats.save_micros as f64 / 1e3;
        }
        cold = Some(count);
    }
    let cold = cold.expect("at least one cold repeat");

    // Warm runs: fresh tables every repeat, loaded from the snapshot before
    // the clock starts on the count itself.
    let mut warm_ms = f64::INFINITY;
    let mut load_ms = 0.0;
    let mut warm = None;
    let mut warm_stats = TableStoreStats::default();
    for _ in 0..repeats {
        let tables = Arc::new(SharedTables::new());
        let stats = store.warm(key, &tables);
        load_ms = stats.load_micros as f64 / 1e3;
        assert!(stats.loaded, "snapshot did not load back");
        warm_stats = stats;
        let (count, ms) = count_on(&tables);
        warm_ms = warm_ms.min(ms);
        warm = Some(count);
    }
    let warm = warm.expect("at least one warm repeat");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        warm.total, cold.total,
        "warm-started count diverged from the cold count"
    );
    assert_eq!(warm.by_length, cold.by_length);
    assert_eq!(
        warm.stats.apply_cache_misses, 0,
        "the warm count ran collective applications the snapshot holds"
    );
    assert_eq!(
        warm.stats.shared_states_reused, warm.stats.unique_device_states,
        "the warm count interned states the snapshot holds"
    );
    assert_eq!(warm_stats.warm_states, cold.stats.unique_device_states);
    if size == 7 {
        assert_eq!(
            cold.total, PIN_RACK_7,
            "cold count diverged from the pinned constant"
        );
        assert_eq!(cold.stats.apply_cache_misses, PIN_COLD_APPLIES_7);
        assert_eq!(cold.stats.unique_device_states, PIN_STATES_7);
    }

    let ratio = cold_ms / warm_ms.max(1e-6);
    println!(
        "cold  {cold_ms:.3} ms ({} programs, {} collective applications; snapshot save {save_ms:.3} ms)\n\
         warm  {warm_ms:.3} ms ({} programs, {} collective applications; snapshot load {load_ms:.3} ms,\n\
         \x20      {} states / {} apply entries warmed, {} of {} states reused)\n\
         cold/warm {ratio:.2}x (measured, not gated)",
        cold.total,
        cold.stats.apply_cache_misses,
        warm.total,
        warm.stats.apply_cache_misses,
        warm_stats.warm_states,
        warm_stats.warm_apply_entries,
        warm.stats.shared_states_reused,
        warm.stats.unique_device_states,
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"table_store_bench\",\n  \"max_program_size\": {size},\n  \
             \"repeats\": {repeats},\n  \"programs\": {},\n  \
             \"cold_ms\": {cold_ms:.3},\n  \"warm_ms\": {warm_ms:.3},\n  \
             \"save_ms\": {save_ms:.3},\n  \"load_ms\": {load_ms:.3},\n  \
             \"cold_apply_misses\": {},\n  \"warm_apply_misses\": {},\n  \
             \"warm_states\": {},\n  \"warm_apply_entries\": {}\n}}\n",
            cold.total,
            cold.stats.apply_cache_misses,
            warm.stats.apply_cache_misses,
            warm_stats.warm_states,
            warm_stats.warm_apply_entries,
        );
        std::fs::write(&path, json).expect("writing the JSON report");
        println!("\nwrote {path}");
    }

    println!("\nok: the snapshot answers every collective application and state of the warm count");
}
