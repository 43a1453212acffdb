//! Cross-run table-store warm-start benchmark: synthesizes the heaviest
//! rack/node/GPU placement cold, snapshots the search tables through
//! [`p2_core::TableStore::persist`], warm-starts a fresh synthesizer from the
//! snapshot through [`p2_core::TableStore::warm`] — the protocol sessions and
//! the planner use — and gates on the warm/cold speedup.
//!
//! The program counts of both runs are asserted bit-identical (and, at the
//! default size 7 count-only, against the pinned constant the synthesis
//! smoke run uses), so the gate can never pass on a snapshot that changes
//! results.
//!
//! Usage: `cargo run --release -p p2_bench --bin table_store_bench --`
//! `[--size N] [--repeats N] [--min-speedup X] [--json PATH]`
//!
//! `--min-speedup X` exits nonzero if the best-of-`--repeats` warm run is
//! not at least `X` times faster than the best cold run — the CI `tables`
//! job runs with `--min-speedup 2`.

use std::sync::Arc;
use std::time::Instant;

use p2_collectives::SharedTables;
use p2_core::{TableStore, TableStoreStats, P2};
use p2_placement::enumerate_matrices;
use p2_synthesis::{HierarchyKind, MemoBank, Synthesizer};
use p2_topology::presets;

/// Pinned size-7 count of the rack case (see `synthesis_smoke`).
const PIN_RACK_7: u64 = 8749;

fn parse_args() -> (usize, usize, Option<f64>, Option<String>) {
    let mut size = 7usize;
    let mut repeats = 3usize;
    let mut min_speedup = None;
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
            "--min-speedup" => {
                let value = args.next().expect("--min-speedup takes a value");
                min_speedup = Some(value.parse().expect("--min-speedup takes a number"));
            }
            "--json" => json_path = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument: {other} (see the doc comment for usage)"),
        }
    }
    (
        size,
        repeats,
        min_speedup.filter(|s: &f64| *s > 0.0),
        json_path,
    )
}

fn main() {
    let (size, repeats, min_speedup, json_path) = parse_args();
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
    let synthesizer = |tables: &Arc<SharedTables>, bank: &Arc<MemoBank>| {
        Synthesizer::new(matrix.clone(), vec![0], HierarchyKind::ReductionAxes)
            .expect("valid rack synthesizer")
            .with_shared_tables(Arc::clone(tables))
            .with_memo_bank(Arc::clone(bank))
    };

    println!("Table-store warm-start bench: rack size {size} count-only, best of {repeats}\n");

    // Cold runs: fresh tables and bank every repeat, snapshot saved once.
    let mut cold_ms = f64::INFINITY;
    let mut cold_total = 0u64;
    let mut save_ms = 0.0;
    for repeat in 0..repeats {
        let tables = Arc::new(SharedTables::new());
        let bank = Arc::new(MemoBank::new());
        let synth = synthesizer(&tables, &bank);
        let start = Instant::now();
        let count = synth.count_programs(size);
        cold_ms = cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
        cold_total = count.total;
        if repeat == 0 {
            let mut stats = TableStoreStats::default();
            store.persist(key, Some(&tables), &bank, &mut stats);
            assert!(stats.saved, "the cold run's snapshot was not saved");
            save_ms = stats.save_micros as f64 / 1e3;
        }
    }
    if size == 7 {
        assert_eq!(
            cold_total, PIN_RACK_7,
            "cold count diverged from the pinned constant"
        );
    }

    // Warm runs: fresh tables and bank every repeat, both loaded from the
    // snapshot before the clock starts on the count itself.
    let mut warm_ms = f64::INFINITY;
    let mut load_ms = 0.0;
    let mut warm_total = 0u64;
    let mut warm_stats = TableStoreStats::default();
    for _ in 0..repeats {
        let tables = Arc::new(SharedTables::new());
        let bank = Arc::new(MemoBank::new());
        let stats = store.warm(key, Some(&tables), &bank);
        load_ms = stats.load_micros as f64 / 1e3;
        assert!(stats.loaded, "snapshot did not load back");
        assert!(stats.warm_states > 0, "snapshot warmed no states");
        warm_stats = stats;
        let synth = synthesizer(&tables, &bank);
        let start = Instant::now();
        let count = synth.count_programs(size);
        warm_ms = warm_ms.min(start.elapsed().as_secs_f64() * 1e3);
        warm_total = count.total;
    }
    assert_eq!(
        warm_total, cold_total,
        "warm-started count diverged from the cold count"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let speedup = cold_ms / warm_ms.max(1e-6);
    println!(
        "cold  {cold_ms:.3} ms ({cold_total} programs; snapshot save {save_ms:.3} ms)\n\
         warm  {warm_ms:.3} ms ({warm_total} programs; snapshot load {load_ms:.3} ms,\n\
         \x20      {} states / {} apply entries / {} memo entries warmed)\n\
         speedup {speedup:.1}x",
        warm_stats.warm_states, warm_stats.warm_apply_entries, warm_stats.warm_memo_entries,
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"table_store_bench\",\n  \"max_program_size\": {size},\n  \
             \"repeats\": {repeats},\n  \"programs\": {cold_total},\n  \
             \"cold_ms\": {cold_ms:.3},\n  \"warm_ms\": {warm_ms:.3},\n  \
             \"save_ms\": {save_ms:.3},\n  \"load_ms\": {load_ms:.3},\n  \
             \"speedup\": {speedup:.3},\n  \"warm_states\": {},\n  \
             \"warm_apply_entries\": {},\n  \"warm_memo_entries\": {}\n}}\n",
            warm_stats.warm_states, warm_stats.warm_apply_entries, warm_stats.warm_memo_entries,
        );
        std::fs::write(&path, json).expect("writing the JSON report");
        println!("\nwrote {path}");
    }

    if let Some(gate) = min_speedup {
        assert!(
            speedup >= gate,
            "warm-start speedup {speedup:.2}x is below the {gate:.2}x gate"
        );
        println!("\nok: warm start is {speedup:.1}x faster (gate {gate:.1}x)");
    }
}
