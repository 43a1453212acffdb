//! Batch-scheduling smoke run: executes the Table 3 + Table 4 specification
//! batch twice — once as sequential per-spec `run()` calls and once as ONE
//! work-stolen batch ([`p2_bench::run_specs_batch`]) — asserts the two are
//! bit-identical, and reports the wall-clock ratio plus the scheduler
//! telemetry (steals, peak in-flight jobs). CI archives the JSON record next
//! to `BENCH_synthesis.json` so batch-scheduling regressions show up as
//! artifact diffs.
//!
//! Usage: `cargo run --release -p p2_bench --bin sweep_batch --`
//! `[--threads N] [--json PATH] [--assert-speedup X]`
//!
//! The speedup assertion is opt-in because it only holds on a genuinely
//! multi-core machine (CI passes `--threads 8 --assert-speedup 1.5`);
//! bit-identity between the serial and batched runs is asserted always, on
//! any machine.

use std::time::Instant;

use p2_bench::{
    fmt_s, run_specs_batch, table3_specs, table4_specs, threads_from_args, BatchOptions,
    ExperimentSpec,
};
use p2_core::ExperimentResult;
use p2_cost::{CostModelKind, NcclAlgo};

/// The batch: every Table 3 axes group swept for both reduction axes, plus
/// the seven Table 4 configurations — 15 specs over four distinct machines.
fn batch_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for (id, system, nodes, axes) in table3_specs() {
        for reduction in [vec![0], vec![1]] {
            specs.push(ExperimentSpec::new(
                id,
                system,
                nodes,
                axes.clone(),
                reduction,
                NcclAlgo::Ring,
            ));
        }
    }
    specs.extend(table4_specs());
    specs
}

/// Panics unless the two results agree bit for bit on everything the paper's
/// tables are derived from.
fn assert_identical(id: &str, serial: &ExperimentResult, batched: &ExperimentResult) {
    assert_eq!(serial.label, batched.label, "{id}: label");
    assert_eq!(
        serial.placements.len(),
        batched.placements.len(),
        "{id}: placement count"
    );
    for (a, b) in serial.placements.iter().zip(&batched.placements) {
        let matrix = a.matrix.to_string();
        assert_eq!(matrix, b.matrix.to_string(), "{id}: matrix order");
        assert_eq!(a.num_programs, b.num_programs, "{id} {matrix}: programs");
        assert_eq!(
            a.programs_retained, b.programs_retained,
            "{id} {matrix}: retained"
        );
        assert_eq!(
            a.programs_pruned, b.programs_pruned,
            "{id} {matrix}: pruned"
        );
        assert_eq!(
            a.allreduce_predicted, b.allreduce_predicted,
            "{id} {matrix}: AllReduce predicted"
        );
        assert_eq!(
            a.allreduce_measured, b.allreduce_measured,
            "{id} {matrix}: AllReduce measured"
        );
        for (pa, pb) in a.programs.iter().zip(&b.programs) {
            assert_eq!(pa.signature(), pb.signature(), "{id} {matrix}: signature");
            assert_eq!(
                pa.predicted_seconds, pb.predicted_seconds,
                "{id} {matrix}: predicted"
            );
            assert_eq!(
                pa.measured_seconds, pb.measured_seconds,
                "{id} {matrix}: measured"
            );
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = threads_from_args(&args);
    let json_path = flag_value(&args, "--json");
    let assert_speedup: Option<f64> = flag_value(&args, "--assert-speedup")
        .map(|v| v.parse().expect("--assert-speedup needs a ratio, e.g. 1.5"));

    let specs = batch_specs();
    println!(
        "Batch scheduling smoke: {} specs (Table 3 axes groups x both reductions + Table 4)",
        specs.len()
    );

    // Baseline: one spec after another, each a fully serial pipeline.
    let serial_start = Instant::now();
    let serial: Vec<ExperimentResult> = specs
        .iter()
        .map(|spec| {
            spec.session()
                .threads(1)
                .cost_model_kind(CostModelKind::AlphaBeta)
                .build()
                .expect("spec builds")
                .run()
                .expect("pipeline runs")
        })
        .collect();
    let serial_s = serial_start.elapsed().as_secs_f64();

    // The same batch on one work-stealing pool.
    let options = BatchOptions::with_threads(threads);
    let batch_start = Instant::now();
    let outcome = run_specs_batch(&specs, None, CostModelKind::AlphaBeta, &options, &())
        .expect("pipeline runs");
    let batch_s = batch_start.elapsed().as_secs_f64();

    for ((spec, a), b) in specs.iter().zip(&serial).zip(&outcome.results) {
        assert_identical(spec.id, a, b);
    }
    let placements: usize = serial.iter().map(|r| r.placements.len()).sum();
    let predictions: usize = serial.iter().map(|r| r.total_programs()).sum();
    let speedup = serial_s / batch_s;
    println!("  {placements} placements, {predictions} programs predicted per pass");
    println!("  sequential per-spec runs: {} s", fmt_s(serial_s));
    println!(
        "  work-stolen batch:        {} s on {} threads ({} steals, peak {} in flight)",
        fmt_s(batch_s),
        outcome.threads,
        outcome.steals,
        outcome.peak_in_flight
    );
    println!("  speedup: {speedup:.2}x — results bit-identical");

    if let Some(path) = json_path {
        let json = format!(
            concat!(
                "{{\n",
                "  \"specs\": {},\n",
                "  \"placements\": {},\n",
                "  \"predictions\": {},\n",
                "  \"threads\": {},\n",
                "  \"serial_s\": {:.3},\n",
                "  \"batch_s\": {:.3},\n",
                "  \"speedup\": {:.3},\n",
                "  \"steals\": {},\n",
                "  \"peak_in_flight\": {}\n",
                "}}\n"
            ),
            specs.len(),
            placements,
            predictions,
            outcome.threads,
            serial_s,
            batch_s,
            speedup,
            outcome.steals,
            outcome.peak_in_flight,
        );
        std::fs::write(&path, json).expect("write JSON report");
        println!("  wrote {path}");
    }

    if let Some(min) = assert_speedup {
        assert!(
            speedup >= min,
            "batch speedup {speedup:.2}x below the required {min:.2}x \
             (serial {serial_s:.3}s vs batch {batch_s:.3}s on {} threads)",
            outcome.threads
        );
        println!("  speedup assertion passed (>= {min:.2}x)");
    }
}
