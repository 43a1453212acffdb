//! Criterion bench: analytic cost-model throughput (the "Simulation time"
//! column of the appendix table — predicting every synthesized program), for
//! every built-in [`CostModel`] implementation, plus the interned step-cost
//! cache against the uncached path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use p2_cost::{AlphaBetaModel, CachedCostModel, CostModel, LogGpModel, NcclAlgo};
use p2_placement::enumerate_matrices;
use p2_synthesis::{HierarchyKind, LoweredProgram, Synthesizer};
use p2_topology::presets;

fn lowered_programs(arities: &[usize], axes: &[usize], reduction: &[usize]) -> Vec<LoweredProgram> {
    enumerate_matrices(arities, axes)
        .expect("valid config")
        .into_iter()
        .flat_map(|m| {
            let synth = Synthesizer::new(m, reduction.to_vec(), HierarchyKind::ReductionAxes)
                .expect("valid synthesizer");
            synth
                .synthesize(5)
                .programs
                .iter()
                .map(|p| synth.lower(p).expect("lowers"))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_model");
    let bytes = (1u64 << 29) as f64 * 4.0 * 4.0;
    let programs = lowered_programs(&[4, 16], &[8, 8], &[0]);
    for algo in NcclAlgo::ALL {
        let models: Vec<Arc<dyn CostModel>> = vec![
            Arc::new(
                AlphaBetaModel::new(presets::a100_system(4), algo, bytes).expect("valid model"),
            ),
            Arc::new(LogGpModel::new(presets::a100_system(4), algo, bytes).expect("valid model")),
        ];
        for model in models {
            group.bench_with_input(
                BenchmarkId::new("predict_all_programs", format!("{}/{algo}", model.name())),
                &programs,
                |b, ps| {
                    b.iter(|| ps.iter().map(|p| model.program_time(p)).sum::<f64>());
                },
            );
        }
    }
    group.finish();
}

/// The interned step-cost cache against the raw model on the same program
/// set: synthesized programs of one placement reuse a handful of lowered
/// steps, so the cached pass should degrade into hash lookups.
fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_cache");
    let bytes = (1u64 << 29) as f64 * 4.0 * 4.0;
    let programs = lowered_programs(&[4, 16], &[8, 8], &[0]);
    let model: Arc<dyn CostModel> = Arc::new(
        AlphaBetaModel::new(presets::a100_system(4), NcclAlgo::Ring, bytes).expect("valid model"),
    );
    group.bench_with_input(BenchmarkId::new("sweep", "uncached"), &programs, |b, ps| {
        b.iter(|| ps.iter().map(|p| model.program_time(p)).sum::<f64>());
    });
    group.bench_with_input(BenchmarkId::new("sweep", "cached"), &programs, |b, ps| {
        b.iter(|| {
            // A fresh cache per iteration, as a per-placement caller uses it.
            let cached = CachedCostModel::new(Arc::clone(&model));
            ps.iter().map(|p| cached.program_time(p)).sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_cost, bench_cache);
criterion_main!(benches);
