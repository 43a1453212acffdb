//! **Table 4 at rack scale**: AllReduce vs. the synthesized optimal reduction
//! strategy on the 3-level `rack_node_gpu` preset, sweeping rack counts and
//! core-switch oversubscription ratios (ROADMAP: "paper-style tables for
//! 3-level topologies").
//!
//! All six (racks × oversubscription) bins run as ONE batch on one
//! work-stealing pool ([`p2_bench::run_batch`]): placement jobs of every bin
//! coexist in the deques, so a `--threads` budget is a global cap instead of
//! a per-bin one. Each placement keeps its 8 best predictions (`keep_top`)
//! and each bin measures its 10 best (`Shortlist(10)`). Every line but the
//! footer is identical for any thread count; the footer's steal and
//! shared-state reuse counts depend on the schedule.
//!
//! Run with `cargo run --release -p p2_bench --bin rack_table4`
//! `[-- --cost-model alpha-beta|loggp|calibrated] [--threads N]`.

use p2_bench::{cost_model_from_args, fmt_s, fmt_speedup, threads_from_args, BatchOptions};
use p2_core::{run_batch, RunMode, P2};
use p2_topology::presets;

const NODES_PER_RACK: usize = 2;
const GPUS_PER_NODE: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = cost_model_from_args();
    let threads = threads_from_args(&args);
    println!("Rack-scale Table 4: AllReduce vs. synthesized optimum on the rack/node/GPU preset");
    println!("(cost model: {kind})\n");

    let mut bins = Vec::new();
    let mut sessions = Vec::new();
    for racks in [2usize, 4] {
        for oversubscription in [1.0f64, 2.0, 4.0] {
            let system = presets::rack_node_gpu_system_oversubscribed(
                racks,
                NODES_PER_RACK,
                GPUS_PER_NODE,
                oversubscription,
            );
            let devices = system.num_devices();
            bins.push(oversubscription);
            sessions.push(
                P2::builder(system)
                    .parallelism_axes([4, devices / 4])
                    .reduction_axes([1])
                    .bytes_per_device((1u64 << 26) as f64 * racks as f64 * 4.0)
                    .repeats(2)
                    .seed(0xb2b2)
                    .keep_top(8)
                    .cost_model_kind(kind)
                    .mode(RunMode::Shortlist(10))
                    .build()
                    .expect("session builds"),
            );
        }
    }

    let outcome =
        run_batch(&sessions, &BatchOptions::with_threads(threads), &()).expect("pipeline runs");

    for (result, oversubscription) in outcome.results.iter().zip(&bins) {
        println!(
            "{} — core switch {oversubscription}:1: {} placements, {} programs \
             ({} retained, {} pruned)",
            result.label,
            result.placements.len(),
            result.total_programs(),
            result.total_programs_retained(),
            result.total_programs_pruned(),
        );
        let memo_hits = result.total_suffix_memo_hits();
        let memo_misses = result.total_suffix_memo_misses();
        println!(
            "  search: {} synthesis states explored, peak device-state interner {} \
             (shared across the sweep: {}), suffix-memo hit rate {:.1}%",
            result.total_states_explored(),
            result.peak_unique_device_states(),
            result
                .shared_unique_device_states
                .map_or_else(|| "off".to_string(), |n| n.to_string()),
            memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64 * 100.0,
        );
        println!(
            "  {:<26} {:>11} {:>11} {:>9}",
            "parallelism matrix", "AllReduce", "Optimal", "Speedup"
        );
        let best_overall = result
            .best_overall()
            .map(|p| p.measured_seconds)
            .unwrap_or(f64::INFINITY);
        for placement in &result.placements {
            let optimal = placement.optimal_measured();
            let marker = if (optimal - best_overall).abs() < 1e-12 {
                "*"
            } else {
                " "
            };
            println!(
                "  {:<26} {:>11} {:>10}{} {:>9}",
                placement.matrix.to_string(),
                fmt_s(placement.allreduce_measured),
                fmt_s(optimal),
                marker,
                fmt_speedup(placement.speedup()),
            );
        }
        if let Some(best) = result.best_overall() {
            println!(
                "  best strategy: {} in {}s\n",
                best.signature(),
                fmt_s(best.measured_seconds)
            );
        }
    }
    // Which placement interns a shared state first depends on the schedule,
    // so the reuse count sits in the footer with the steal count, and every
    // line above it is the same for any thread count.
    let shared_reuses: usize = outcome
        .results
        .iter()
        .map(|result| result.total_shared_states_reused())
        .sum();
    println!(
        "(batch on {} threads, {} steals, {} shared-state reuses; '*' marks the overall \
         optimum; speedups are vs. each placement's own AllReduce)",
        outcome.threads, outcome.steals, shared_reuses
    );
}
