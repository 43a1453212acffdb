//! **Table 3 at rack scale**: AllReduce time across parallelism matrices of
//! the 3-level `rack_node_gpu` preset, sweeping rack counts and core-switch
//! oversubscription ratios — the multi-node shape the paper's two-level
//! systems cannot express (ROADMAP: "paper-style tables for 3-level
//! topologies").
//!
//! Every row shows the measured (execution substrate) and predicted time of
//! the selected cost model side by side, so the model can be sanity-checked
//! per placement. The six (racks × oversubscription) bins are mapped onto the
//! work-stealing scheduler ([`p2_par::scope`]); each bin's rows are pure
//! functions of its configuration, so the printed table is identical for any
//! `--threads` count.
//!
//! Run with `cargo run --release -p p2_bench --bin rack_table3`
//! `[-- --cost-model alpha-beta|loggp|calibrated] [--threads N]`.

use p2_bench::{cost_model_from_args, fmt_s, threads_from_args};
use p2_core::P2Config;
use p2_cost::NcclAlgo;
use p2_exec::{ExecConfig, Executor};
use p2_placement::enumerate_matrices;
use p2_synthesis::baseline_allreduce;
use p2_topology::presets;

const NODES_PER_RACK: usize = 2;
const GPUS_PER_NODE: usize = 4;

/// One fully evaluated (racks, oversubscription) bin, ready to print.
struct Bin {
    header: String,
    /// Per matrix: the label and the (measured, predicted) pair per axis.
    rows: Vec<(String, Vec<(f64, f64)>)>,
    /// Per axis: max/min measured-AllReduce ratio across matrices.
    ratios: Vec<f64>,
}

fn evaluate_bin(kind: p2_cost::CostModelKind, racks: usize, oversubscription: f64) -> Bin {
    let system = presets::rack_node_gpu_system_oversubscribed(
        racks,
        NODES_PER_RACK,
        GPUS_PER_NODE,
        oversubscription,
    );
    let devices = system.num_devices();
    let axes = vec![4, devices / 4];
    let bytes = (1u64 << 26) as f64 * racks as f64 * 4.0;
    let mut config = P2Config::new(system.clone(), axes.clone(), vec![0]);
    config.bytes_per_device = bytes;
    config.repeats = 2;
    config.seed = 0xb2b2;
    let model = config.make_cost_model(kind).expect("cost model builds");
    let exec = Executor::new(
        &system,
        ExecConfig::new(NcclAlgo::Ring, bytes)
            .with_repeats(2)
            .with_seed(0xb2b2),
    )
    .expect("valid exec config");
    let header = format!(
        "{} — {racks} racks x {NODES_PER_RACK} nodes x {GPUS_PER_NODE} GPUs, \
         core switch {oversubscription}:1, axes {axes:?}",
        system.name()
    );
    let matrices =
        enumerate_matrices(&system.hierarchy().arities(), &axes).expect("axes match the system");
    let mut rows = Vec::with_capacity(matrices.len());
    let mut per_axis_times: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
    for matrix in &matrices {
        let mut row = Vec::new();
        for (axis, axis_times) in per_axis_times.iter_mut().enumerate() {
            let baseline = baseline_allreduce(matrix, &[axis]).expect("valid reduction axis");
            let measured = exec.measure(&baseline);
            let predicted = model.program_time(&baseline);
            axis_times.push(measured);
            row.push((measured, predicted));
        }
        rows.push((matrix.to_string(), row));
    }
    let ratios = per_axis_times
        .iter()
        .map(|times| {
            let max = times.iter().copied().fold(f64::MIN, f64::max);
            let min = times.iter().copied().fold(f64::MAX, f64::min);
            if min > 0.0 {
                max / min
            } else {
                1.0
            }
        })
        .collect();
    Bin {
        header,
        rows,
        ratios,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = cost_model_from_args();
    let threads = threads_from_args(&args);
    println!("Rack-scale Table 3: AllReduce seconds across placements of the rack/node/GPU preset");
    println!("(cost model: {kind}; select with --cost-model alpha-beta|loggp|calibrated)\n");

    let mut shapes = Vec::new();
    for racks in [2usize, 4] {
        for oversubscription in [1.0f64, 2.0, 4.0] {
            shapes.push((racks, oversubscription));
        }
    }
    let bins = p2_par::scope(threads, |scheduler| {
        scheduler.map(&shapes, move |_, &(racks, oversubscription)| {
            evaluate_bin(kind, racks, oversubscription)
        })
    });

    let mut global_max_ratio: f64 = 1.0;
    for bin in &bins {
        println!("{}", bin.header);
        println!(
            "  {:<26} {:>11} {:>11} {:>11} {:>11}",
            "parallelism matrix", "ax0 meas", "ax0 pred", "ax1 meas", "ax1 pred"
        );
        for (matrix, row) in &bin.rows {
            println!(
                "  {:<26} {:>11} {:>11} {:>11} {:>11}",
                matrix,
                fmt_s(row[0].0),
                fmt_s(row[0].1),
                fmt_s(row[1].0),
                fmt_s(row[1].1),
            );
        }
        for (axis, ratio) in bin.ratios.iter().enumerate() {
            global_max_ratio = global_max_ratio.max(*ratio);
            println!("  axis {axis}: max/min AllReduce ratio across matrices = {ratio:.1}x");
        }
        println!();
    }
    println!(
        "Result 1 at rack scale: AllReduce differs across parallelism matrices by up to \
         {global_max_ratio:.1}x"
    );
    println!(
        "(the deeper the hierarchy and the higher the oversubscription, the wider the spread)"
    );
}
