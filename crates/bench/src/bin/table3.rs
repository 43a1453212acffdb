//! Reproduces **Table 3** of the paper: AllReduce time across parallelism
//! matrices, for reduction on the 0th and 1st axis, with NCCL ring and tree,
//! with the selected cost model's prediction beside every measurement.
//!
//! The four system blocks are mapped onto the work-stealing scheduler
//! ([`p2_par::scope`]); each block's rows are pure functions of its
//! configuration, so the printed table is identical for any `--threads`
//! count.
//!
//! Run with `cargo run --release -p p2-bench --bin table3`
//! `[-- --cost-model alpha-beta|loggp|calibrated] [--threads N]`.

use p2_bench::{cost_model_from_args, fmt_s, table3_specs, threads_from_args};
use p2_core::P2Config;
use p2_cost::NcclAlgo;
use p2_exec::{ExecConfig, Executor};
use p2_placement::enumerate_matrices;
use p2_synthesis::baseline_allreduce;

/// One table row: row id, matrix label, and the (measured, predicted) pair
/// per (reduction axis × algorithm) column.
type Row = (String, String, Vec<(f64, f64)>);

/// One fully evaluated system block, ready to print.
struct Block {
    header: String,
    rows: Vec<Row>,
    /// Per axis: max/min measured-AllReduce ratio across matrices.
    ratios: Vec<(usize, f64)>,
}

fn evaluate_block(
    kind: p2_cost::CostModelKind,
    id: &str,
    system_kind: p2_bench::SystemKind,
    nodes: usize,
    axes: &[usize],
) -> Block {
    let system = system_kind.system(nodes);
    let bytes = (1u64 << 29) as f64 * nodes as f64 * 4.0;
    let header = format!(
        "{} nodes, each with {} {:?} — parallelism axes {:?}",
        nodes,
        system_kind.gpus_per_node(),
        system_kind,
        axes
    );
    // One model per NCCL algorithm: the calibrated kind fits against the
    // algorithm's own substrate.
    let models: Vec<_> = NcclAlgo::ALL
        .iter()
        .map(|&algo| {
            let mut config = P2Config::new(system.clone(), axes.to_vec(), vec![0]);
            config.algo = algo;
            config.bytes_per_device = bytes;
            config.make_cost_model(kind).expect("cost model builds")
        })
        .collect();
    let matrices = enumerate_matrices(&system.hierarchy().arities(), axes)
        .expect("table 3 axes match their systems");
    let mut rows = Vec::with_capacity(matrices.len());
    let mut per_axis_times: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
    for (idx, matrix) in matrices.iter().enumerate() {
        let mut row = Vec::new();
        for (reduction_axis, axis_times) in per_axis_times.iter_mut().enumerate() {
            for (algo, model) in NcclAlgo::ALL.into_iter().zip(&models) {
                let exec = Executor::new(&system, ExecConfig::new(algo, bytes).with_repeats(3))
                    .expect("valid exec config");
                let baseline =
                    baseline_allreduce(matrix, &[reduction_axis]).expect("valid reduction axis");
                let seconds = exec.measure(&baseline);
                row.push((seconds, model.program_time(&baseline)));
                axis_times.push(seconds);
            }
        }
        rows.push((format!("{id}{}", idx + 1), matrix.to_string(), row));
    }
    let ratios = per_axis_times
        .iter()
        .enumerate()
        .filter_map(|(axis, times)| {
            let max = times.iter().copied().fold(f64::MIN, f64::max);
            let min = times.iter().copied().fold(f64::MAX, f64::min);
            (min > 0.0).then(|| (axis, max / min))
        })
        .collect();
    Block {
        header,
        rows,
        ratios,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = cost_model_from_args();
    let threads = threads_from_args(&args);
    println!("Table 3: reduction time in seconds of running AllReduce");
    println!("(measured on the simulated substrate; the paper's absolute numbers differ,");
    println!(" the placement-induced spread is the result being reproduced;");
    println!(" pred columns: the {kind} cost model, select with --cost-model)\n");

    let specs = table3_specs();
    let blocks = p2_par::scope(threads, |scheduler| {
        scheduler.map(&specs, move |_, (id, system_kind, nodes, axes)| {
            evaluate_block(kind, id, *system_kind, *nodes, axes)
        })
    });

    let mut global_max_ratio: f64 = 1.0;
    for block in &blocks {
        println!("{}", block.header);
        println!(
            "  {:<6} {:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "id",
            "parallelism matrix",
            "a0 Ring",
            "pred",
            "a0 Tree",
            "pred",
            "a1 Ring",
            "pred",
            "a1 Tree",
            "pred"
        );
        for (row_id, matrix, row) in &block.rows {
            println!(
                "  {:<6} {:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                row_id,
                matrix,
                fmt_s(row[0].0),
                fmt_s(row[0].1),
                fmt_s(row[1].0),
                fmt_s(row[1].1),
                fmt_s(row[2].0),
                fmt_s(row[2].1),
                fmt_s(row[3].0),
                fmt_s(row[3].1),
            );
        }
        for (axis, ratio) in &block.ratios {
            global_max_ratio = global_max_ratio.max(*ratio);
            println!("  axis {axis}: max/min AllReduce ratio across matrices = {ratio:.1}x");
        }
        println!();
    }
    println!(
        "Result 1 headline: the performance of AllReduce differs across parallelism matrices by up to {global_max_ratio:.1}x"
    );
    println!("(the paper reports up to 448.5x on its hardware)");
}
