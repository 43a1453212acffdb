//! Benchmarks the level-synchronous DAG build at `--threads` workers against
//! the same build on one thread, on the heaviest rack/node/GPU placement,
//! asserts the two are bit-identical (same programs, same order, same
//! deterministic statistics) and reports the build-phase speedup.
//!
//! Usage: `cargo run --release -p p2_bench --bin parallel_build_bench --`
//! `[--size N] [--threads N] [--repeats N] [--assert-speedup X]`
//! `[--json PATH]`
//!
//! Both thread counts run `--repeats` times (default 3) and the best
//! build-phase time of each is compared. `--assert-speedup X` exits non-zero
//! unless `--threads` is at least `X`× faster than one thread — the CI gate;
//! it is opt-in because the speedup depends on the runner's core count.
//! `--json PATH` writes a machine-readable record for the bench trajectory.

use std::time::Duration;

use p2_placement::enumerate_matrices;
use p2_synthesis::{HierarchyKind, SynthesisResult, Synthesizer};
use p2_topology::presets;

struct Args {
    size: usize,
    threads: usize,
    repeats: usize,
    assert_speedup: Option<f64>,
    json_path: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        size: 6,
        threads: 8,
        repeats: 3,
        assert_speedup: None,
        json_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let value = args.next().expect("--size takes a value");
                parsed.size = value.parse().expect("--size takes an integer");
            }
            "--threads" => {
                let value = args.next().expect("--threads takes a value");
                parsed.threads = value.parse().expect("--threads takes an integer");
            }
            "--repeats" => {
                let value = args.next().expect("--repeats takes a value");
                parsed.repeats = value.parse().expect("--repeats takes an integer");
            }
            "--assert-speedup" => {
                let value = args.next().expect("--assert-speedup takes a value");
                parsed.assert_speedup =
                    Some(value.parse().expect("--assert-speedup takes a float"));
            }
            "--json" => parsed.json_path = Some(args.next().expect("--json takes a path")),
            other => panic!("unknown argument: {other} (see the doc comment for usage)"),
        }
    }
    assert!(parsed.repeats > 0, "--repeats must be positive");
    parsed
}

/// Runs the synthesis `repeats` times at the given thread count and returns
/// the last result together with the best build-phase duration.
fn best_of(
    repeats: usize,
    threads: usize,
    size: usize,
    make: &dyn Fn() -> Synthesizer,
) -> (SynthesisResult, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let result = make().with_build_threads(threads).synthesize(size);
        best = best.min(result.stats.build_duration);
        last = Some(result);
    }
    (last.expect("repeats > 0"), best)
}

fn main() {
    let Args {
        size,
        threads,
        repeats,
        assert_speedup,
        json_path,
    } = parse_args();

    let rack = presets::rack_node_gpu_system(2, 2, 4);
    let matrix = enumerate_matrices(&rack.hierarchy().arities(), &[16])
        .expect("rack axes fit the system")
        .into_iter()
        .next()
        .expect("at least one rack placement");
    let make = move || {
        Synthesizer::new(matrix.clone(), vec![0], HierarchyKind::ReductionAxes)
            .expect("valid synthesizer")
    };

    println!(
        "Parallel DAG build bench: heaviest rack/node/GPU placement, \
         max_program_size = {size}, best of {repeats}\n"
    );
    let (one, one_build) = best_of(repeats, 1, size, &make);
    let (many, many_build) = best_of(repeats, threads, size, &make);

    // The tentpole contract: bit-identical artifacts for any thread count.
    assert_eq!(
        one.programs, many.programs,
        "{threads} threads changed the program set or order"
    );
    let deterministic = |r: &SynthesisResult| {
        (
            r.stats.states_explored,
            r.stats.instructions_tried,
            r.stats.candidate_instructions,
            r.stats.programs_emitted,
            r.stats.unique_device_states,
            r.stats.goal_respects_entries,
            r.stats.apply_cache_hits + r.stats.apply_cache_misses,
        )
    };
    assert_eq!(
        deterministic(&one),
        deterministic(&many),
        "{threads} threads changed a deterministic statistic"
    );

    let one_ms = one_build.as_secs_f64() * 1e3;
    let many_ms = many_build.as_secs_f64() * 1e3;
    let speedup = one_ms / many_ms.max(1e-9);
    println!(
        "{:<13}{one_ms:.2} ms\n{:<13}{many_ms:.2} ms\n{:<13}{speedup:.2}x\n\
         {:<13}{} (bit-identical across thread counts)",
        "1 thread:",
        format!("{threads} threads:"),
        "speedup:",
        "programs:",
        one.programs.len()
    );

    if let Some(path) = json_path {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"parallel_build_bench\",\n",
                "  \"case\": \"rack_node_gpu_reduce0\",\n",
                "  \"max_program_size\": {},\n",
                "  \"threads\": {},\n",
                "  \"repeats\": {},\n",
                "  \"serial_build_ms\": {:.3},\n",
                "  \"parallel_build_ms\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"programs\": {},\n",
                "  \"bit_identical\": true\n",
                "}}\n"
            ),
            size,
            threads,
            repeats,
            one_ms,
            many_ms,
            speedup,
            one.programs.len(),
        );
        std::fs::write(&path, json).expect("writing the JSON report");
        println!("\nwrote {path}");
    }

    if let Some(min) = assert_speedup {
        assert!(
            speedup >= min,
            "{threads}-thread build speedup {speedup:.2}x below the required {min:.2}x"
        );
        println!("\nok: speedup {speedup:.2}x >= required {min:.2}x");
    } else {
        println!("\nok: 1-thread and {threads}-thread builds are bit-identical");
    }
}
