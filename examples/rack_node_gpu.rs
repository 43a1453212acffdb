//! Placement selection on a 3-level rack / node / GPU hierarchy with
//! heterogeneous uplinks — the multi-node shape beyond the paper's two-level
//! presets (ROADMAP: "multi-node topologies beyond the presets").
//!
//! Two racks of two 8-GPU A100-style nodes sit behind an oversubscribed core
//! switch, so the bandwidth degrades level by level (NVSwitch ≫ NIC > core
//! switch). The example drives the experiment-session API end to end:
//!
//! * `P2::builder` with `RunMode::Shortlist` — the paper's deployment mode —
//!   plus bounded per-placement retention;
//! * a `RunObserver` counting streamed events from the parallel sweep.
//!
//! Run with `cargo run --release --example rack_node_gpu`
//! `[-- --cost-model alpha-beta|loggp|calibrated]`.

use std::sync::atomic::{AtomicUsize, Ordering};

use p2::{cost_model_from_args, presets, NcclAlgo, ParallelismMatrix, RunMode, RunObserver, P2};

/// Counts sweep events to show the observer contract in action.
#[derive(Default)]
struct EventCounter {
    placements: AtomicUsize,
    retained: AtomicUsize,
}

impl RunObserver for EventCounter {
    fn on_placement_start(&self, _index: usize, _matrix: &ParallelismMatrix) {
        self.placements.fetch_add(1, Ordering::Relaxed);
    }

    fn on_program_retained(
        &self,
        _index: usize,
        _program: &p2::Program,
        _predicted_seconds: f64,
        _measured_seconds: f64,
    ) {
        self.retained.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() -> Result<(), p2::P2Error> {
    let kind = cost_model_from_args();
    let system = presets::rack_node_gpu_system(2, 2, 8);
    println!(
        "System: {} ({} GPUs), hierarchy {:?}",
        system.name(),
        system.num_devices(),
        system.hierarchy().arities()
    );
    println!("Uplinks: core-switch 4 GB/s < NIC 8 GB/s << NVSwitch 270 GB/s per level\n");

    // Data parallelism of 4 and 8 parameter shards; the frequent reduction
    // runs along the sharding axis, so placements that spill it across racks
    // pay the oversubscribed core switch.
    let session = P2::builder(system)
        .parallelism_axes([4, 8])
        .reduction_axes([1])
        .algo(NcclAlgo::Ring)
        .bytes_per_device(64.0e6)
        .repeats(3)
        .keep_top(8)
        .cost_model_kind(kind)
        .mode(RunMode::Shortlist(10))
        .build()?;

    let counter = EventCounter::default();
    let result = session.run_observed(&counter)?;
    println!(
        "Shortlist run: {} placements, {} programs synthesized, {} retained ({} pruned)",
        counter.placements.load(Ordering::Relaxed),
        result.total_programs(),
        result.total_programs_retained(),
        result.total_programs_pruned(),
    );
    println!(
        "{:<24} {:>12} {:>12} {:>9}",
        "placement", "AllReduce", "best", "speedup"
    );
    for placement in &result.placements {
        println!(
            "{:<24} {:>12.4} {:>12.4} {:>8.2}x",
            placement.matrix.to_string(),
            placement.allreduce_measured,
            placement.optimal_measured(),
            placement.speedup(),
        );
    }
    let best = result.best_overall().expect("at least one program");
    println!(
        "\nBest placement + strategy: {} in {:.4}s",
        best.signature(),
        best.measured_seconds
    );
    Ok(())
}
