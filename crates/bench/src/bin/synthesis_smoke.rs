//! Release-mode synthesis smoke run: synthesizes the figure-2d running
//! example and the heaviest placement of the rack/node/GPU preset, asserts
//! the program counts match pinned constants, and prints the search
//! statistics (states explored, device-state interner size, apply-cache and
//! suffix-memo hit rates) so CI catches both correctness and search-space
//! regressions.
//!
//! Beyond the default full enumeration at `max_program_size = 6` (the paper
//! stops at 5), the suffix-memoized counting fast path makes size 7
//! tractable: `--size 7 --count-only` aggregates program counts straight
//! from the memo without materializing a single path, and CI pins that
//! count too. With the level-synchronous DAG build spread over every core
//! (`--threads 0`) size 8 joins the pinned set: the rack case's size-8 graph
//! is built across cores and counted from the memo.
//!
//! Usage: `cargo run --release -p p2_bench --bin synthesis_smoke --`
//! `[--size N] [--count-only] [--threads N] [--profile] [--case LABEL]`
//! `[--json PATH]`
//!
//! `--threads N` runs the DAG build on an `N`-thread pool (`0` = all cores;
//! the default `1` expands each level on the calling thread); every printed
//! statistic and pinned count is bit-identical for any value. `--profile` prints a per-phase wall-time
//! breakdown (candidate generation / DAG build / emission or counting).
//! `--json PATH` writes one machine-readable record per case (timings, hit
//! rates, peak interner size) for archiving as a CI artifact.

use std::time::Instant;

use p2_placement::{enumerate_matrices, ParallelismMatrix};
use p2_synthesis::{HierarchyKind, SynthesisStats, Synthesizer};
use p2_topology::presets;

struct Case {
    label: &'static str,
    matrix: ParallelismMatrix,
    reduction: Vec<usize>,
}

fn cases() -> Vec<Case> {
    let figure2d = ParallelismMatrix::new(
        vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
        vec![1, 2, 2, 4],
        vec![4, 4],
    )
    .expect("figure 2d matrix is valid");
    let rack = presets::rack_node_gpu_system(2, 2, 4);
    let rack_matrix = enumerate_matrices(&rack.hierarchy().arities(), &[16])
        .expect("rack axes fit the system")
        .into_iter()
        .next()
        .expect("at least one rack placement");
    vec![
        Case {
            label: "figure2d_reduce1",
            matrix: figure2d,
            reduction: vec![1],
        },
        Case {
            label: "rack_node_gpu_reduce0",
            matrix: rack_matrix,
            reduction: vec![0],
        },
    ]
}

/// The figure-2d search space saturates below size 7: no valid program needs
/// more than 6 steps, so the size-7 and size-8 counts equal the size-6 count.
const PIN_FIGURE2D_7: u64 = 93;
const PIN_RACK_7: u64 = 8749;
const PIN_FIGURE2D_8: u64 = 93;
const PIN_RACK_8: u64 = 12014;

/// Pinned program counts per `(case label, max_program_size)`. Full
/// enumeration and count-only must agree, so one table serves both modes;
/// sizes 7 and 8 are only ever exercised count-only in CI (full emission
/// would walk every path).
fn pinned_count(label: &str, size: usize) -> Option<u64> {
    match (label, size) {
        ("figure2d_reduce1", 6) => Some(93),
        ("rack_node_gpu_reduce0", 6) => Some(4576),
        ("figure2d_reduce1", 7) => Some(PIN_FIGURE2D_7),
        ("rack_node_gpu_reduce0", 7) => Some(PIN_RACK_7),
        ("figure2d_reduce1", 8) => Some(PIN_FIGURE2D_8),
        ("rack_node_gpu_reduce0", 8) => Some(PIN_RACK_8),
        _ => None,
    }
}

struct Record {
    label: &'static str,
    programs: u64,
    elapsed_ms: f64,
    stats: SynthesisStats,
}

impl Record {
    fn json(&self, size: usize, count_only: bool, threads: usize) -> String {
        let s = &self.stats;
        let apply_lookups = s.apply_cache_hits + s.apply_cache_misses;
        let memo_lookups = s.suffix_memo_hits + s.suffix_memo_misses;
        format!(
            concat!(
                "    {{\n",
                "      \"case\": \"{}\",\n",
                "      \"max_program_size\": {},\n",
                "      \"count_only\": {},\n",
                "      \"build_threads\": {},\n",
                "      \"programs\": {},\n",
                "      \"total_ms\": {:.3},\n",
                "      \"candidate_ms\": {:.3},\n",
                "      \"build_ms\": {:.3},\n",
                "      \"emit_ms\": {:.3},\n",
                "      \"states_explored\": {},\n",
                "      \"instructions_tried\": {},\n",
                "      \"peak_interner_states\": {},\n",
                "      \"apply_cache_hit_rate\": {:.4},\n",
                "      \"suffix_memo_hit_rate\": {:.4},\n",
                "      \"suffix_memo_hits\": {},\n",
                "      \"suffix_memo_misses\": {}\n",
                "    }}"
            ),
            self.label,
            size,
            count_only,
            threads,
            self.programs,
            self.elapsed_ms,
            s.candidate_duration.as_secs_f64() * 1e3,
            s.build_duration.as_secs_f64() * 1e3,
            s.emit_duration.as_secs_f64() * 1e3,
            s.states_explored,
            s.instructions_tried,
            s.unique_device_states,
            s.apply_cache_hits as f64 / apply_lookups.max(1) as f64,
            s.suffix_memo_hits as f64 / memo_lookups.max(1) as f64,
            s.suffix_memo_hits,
            s.suffix_memo_misses,
        )
    }
}

struct Args {
    size: usize,
    count_only: bool,
    threads: usize,
    profile: bool,
    case_filter: Option<String>,
    json_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        size: 6,
        count_only: false,
        threads: 1,
        profile: false,
        case_filter: None,
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let value = args.next().expect("--size takes a value");
                parsed.size = value.parse().expect("--size takes an integer");
            }
            "--count-only" => parsed.count_only = true,
            "--threads" => {
                let value = args.next().expect("--threads takes a value");
                parsed.threads = value.parse().expect("--threads takes an integer");
            }
            "--profile" => parsed.profile = true,
            "--case" => parsed.case_filter = Some(args.next().expect("--case takes a label")),
            "--json" => parsed.json_path = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument: {other} (see the doc comment for usage)"),
        }
    }
    parsed
}

fn main() {
    let Args {
        size,
        count_only,
        threads,
        profile,
        case_filter,
        json_path,
    } = parse_args();
    let mode = if count_only {
        "count-only"
    } else {
        "full enumeration"
    };
    let build = if threads == 1 {
        "1 thread".to_string()
    } else if threads == 0 {
        "parallel build, all cores".to_string()
    } else {
        format!("parallel build, {threads} threads")
    };
    println!("Synthesis smoke run at max_program_size = {size} ({mode}, {build})\n");

    let mut records = Vec::new();
    for case in cases() {
        if case_filter.as_deref().is_some_and(|f| f != case.label) {
            continue;
        }
        let synth = Synthesizer::new(case.matrix, case.reduction, HierarchyKind::ReductionAxes)
            .expect("valid synthesizer")
            .with_build_threads(threads);
        let start = Instant::now();
        let (programs, stats) = if count_only {
            let count = synth.count_programs(size);
            (count.total, count.stats)
        } else {
            let result = synth.synthesize(size);
            (result.len() as u64, result.stats)
        };
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let label = case.label;
        let apply_lookups = stats.apply_cache_hits + stats.apply_cache_misses;
        let memo_lookups = stats.suffix_memo_hits + stats.suffix_memo_misses;
        println!(
            "{label}: {programs} programs in {elapsed_ms:.1} ms \
             (build {:.1} ms, emit {:.1} ms)\n  {} states explored, {} instructions tried, \
             {} unique device states,\n  apply-cache hit rate {:.1}%, \
             suffix-memo hit rate {:.1}% ({} hits / {} misses)",
            stats.build_duration.as_secs_f64() * 1e3,
            stats.emit_duration.as_secs_f64() * 1e3,
            stats.states_explored,
            stats.instructions_tried,
            stats.unique_device_states,
            stats.apply_cache_hits as f64 / apply_lookups.max(1) as f64 * 100.0,
            stats.suffix_memo_hits as f64 / memo_lookups.max(1) as f64 * 100.0,
            stats.suffix_memo_hits,
            stats.suffix_memo_misses,
        );
        if profile {
            let candidate_ms = stats.candidate_duration.as_secs_f64() * 1e3;
            let build_ms = stats.build_duration.as_secs_f64() * 1e3;
            let emit_ms = stats.emit_duration.as_secs_f64() * 1e3;
            let emit_phase = if count_only { "count" } else { "emit" };
            println!(
                "  profile: candidates {candidate_ms:.1} ms ({:.1}%), \
                 DAG build {build_ms:.1} ms ({:.1}%), \
                 {emit_phase} {emit_ms:.1} ms ({:.1}%)",
                candidate_ms / elapsed_ms.max(1e-9) * 100.0,
                build_ms / elapsed_ms.max(1e-9) * 100.0,
                emit_ms / elapsed_ms.max(1e-9) * 100.0,
            );
        }
        match pinned_count(label, size) {
            Some(expected) => assert_eq!(
                programs, expected,
                "{label}: program count diverged from the pinned constant at size {size}"
            ),
            None => println!("  (no pinned count for size {size}; informational run)"),
        }
        records.push(Record {
            label,
            programs,
            elapsed_ms,
            stats,
        });
    }
    assert!(!records.is_empty(), "case filter matched no case");

    if let Some(path) = json_path {
        let body = records
            .iter()
            .map(|r| r.json(size, count_only, threads))
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!(
            "{{\n  \"bench\": \"synthesis_smoke\",\n  \"max_program_size\": {size},\n  \
             \"count_only\": {count_only},\n  \"cases\": [\n{body}\n  ]\n}}\n"
        );
        std::fs::write(&path, json).expect("writing the JSON report");
        println!("\nwrote {path}");
    }
    println!("\nok: all pinned program counts matched");
}
