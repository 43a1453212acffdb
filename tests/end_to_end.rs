//! Cross-crate integration tests: the full P² pipeline on the paper's
//! running example and on scaled-down versions of the evaluated systems.

use p2::{presets, top_k_accuracy, HierarchyKind, NcclAlgo, P2};

/// The Figure 2 / Figure 3 running example end to end.
#[test]
fn figure2_running_example() {
    let result = P2::builder(presets::figure2a_system())
        .parallelism_axes(vec![4, 4])
        .reduction_axes(vec![1])
        .bytes_per_device(50.0e6)
        .repeats(2)
        .run()
        .unwrap();

    // Figure 2 shows three placements; the enumeration finds them (plus one more).
    let matrices: Vec<String> = result
        .placements
        .iter()
        .map(|p| p.matrix.to_string())
        .collect();
    assert!(matrices.contains(&"[[1 2 2 1][1 1 1 4]]".to_string()));
    assert!(matrices.contains(&"[[1 2 1 2][1 1 2 2]]".to_string()));
    assert!(matrices.contains(&"[[1 1 2 2][1 2 1 2]]".to_string()));

    // Figure 3's reduction strategies are synthesized for the Figure 2d placement.
    let fig2d = result
        .placements
        .iter()
        .find(|p| p.matrix.to_string() == "[[1 1 2 2][1 2 1 2]]")
        .expect("figure 2d placement present");
    let signatures: Vec<String> = fig2d.programs.iter().map(|p| p.signature()).collect();
    assert!(signatures.contains(&"AllReduce".to_string()));
    assert!(signatures.contains(&"AllReduce-AllReduce".to_string()));
    assert!(signatures.contains(&"Reduce-AllReduce-Broadcast".to_string()));
    assert!(signatures.contains(&"ReduceScatter-AllReduce-AllGather".to_string()));

    // The placement that keeps shards inside a CPU (Figure 2b) has the fastest
    // AllReduce: its reduction never leaves the NVLink domain.
    let fig2b = result
        .placements
        .iter()
        .find(|p| p.matrix.to_string() == "[[1 2 2 1][1 1 1 4]]")
        .unwrap();
    for other in &result.placements {
        assert!(fig2b.allreduce_measured <= other.allreduce_measured * 1.01);
    }
}

/// Result 1 of the paper: the parallelism matrix changes AllReduce time by
/// orders of magnitude, and the best matrix depends on the reduction axis.
#[test]
fn placement_impact_spans_orders_of_magnitude() {
    let system = presets::a100_system(2);
    let mut spreads = Vec::new();
    for reduction in [vec![0], vec![1]] {
        let result = P2::builder(system.clone())
            .parallelism_axes(vec![4, 8])
            .reduction_axes(reduction)
            .bytes_per_device(2.0e9)
            .repeats(2)
            .run()
            .unwrap();
        let times: Vec<f64> = result
            .placements
            .iter()
            .map(|p| p.allreduce_measured)
            .collect();
        let max = times.iter().copied().fold(f64::MIN, f64::max);
        let min = times.iter().copied().fold(f64::MAX, f64::min);
        spreads.push(max / min);
    }
    assert!(
        spreads.iter().any(|&s| s > 20.0),
        "expected a large placement impact, got spreads {spreads:?}"
    );
}

/// Result 5 of the paper: cross-node reductions are improved by synthesized
/// hierarchical programs; Result 3: intra-node reductions are not.
#[test]
fn synthesis_helps_exactly_where_the_paper_says() {
    let result = P2::builder(presets::v100_system(2))
        .parallelism_axes(vec![16])
        .reduction_axes(vec![0])
        .bytes_per_device(2.0e9)
        .repeats(3)
        .run()
        .unwrap();
    let placement = &result.placements[0];
    // The single axis spans both nodes, so a hierarchical program must win.
    assert!(placement.programs_beating_allreduce() > 0);
    let speedup = placement.speedup();
    assert!(
        speedup > 1.1 && speedup < 5.0,
        "speedup {speedup} outside the paper's ballpark"
    );

    // Intra-node reduction: the placement [[1 8][2 1]] keeps the reduction
    // axis inside one node; AllReduce is already optimal there.
    let result = P2::builder(presets::v100_system(2))
        .parallelism_axes(vec![8, 2])
        .reduction_axes(vec![0])
        .bytes_per_device(2.0e9)
        .repeats(3)
        .run()
        .unwrap();
    let local = result
        .placements
        .iter()
        .find(|p| p.matrix.to_string() == "[[1 8][2 1]]")
        .expect("local placement enumerated");
    assert!(
        local.speedup() < 1.1,
        "local reduction should not benefit: {}",
        local.speedup()
    );
}

/// Table 5's headline: the analytic simulator identifies near-optimal programs
/// (high top-10 accuracy) even though its top-1 choice is sometimes wrong.
#[test]
fn simulator_top_k_accuracy_is_high() {
    let mut results = Vec::new();
    for (axes, reduction) in [
        (vec![8, 4], vec![0]),
        (vec![8, 4], vec![1]),
        (vec![4, 8], vec![0]),
        (vec![2, 16], vec![1]),
    ] {
        results.push(
            P2::builder(presets::a100_system(2))
                .parallelism_axes(axes)
                .reduction_axes(reduction)
                .bytes_per_device(1.0e9)
                .repeats(2)
                .run()
                .unwrap(),
        );
    }
    let report = top_k_accuracy(&results, &[1, 5, 10]);
    let top10 = report.accuracy_for(10).unwrap();
    assert!(top10 >= 0.75, "top-10 accuracy {top10} too low: {report}");
    // Accuracy is monotone in k by construction.
    assert!(report.accuracy_for(1).unwrap() <= top10);
}

/// The synthesis hierarchy ablation of §3.4 holds on the running example:
/// hierarchy (d) searches a smaller space but finds every lowered program of
/// the other hierarchies.
#[test]
fn reduction_hierarchy_is_smallest_and_most_expressive() {
    use p2::{ParallelismMatrix, Synthesizer};
    let matrix = ParallelismMatrix::new(
        vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
        vec![1, 2, 2, 4],
        vec![4, 4],
    )
    .unwrap();
    let canonical = |s: &p2::synthesis::LoweredProgram| -> String {
        s.steps
            .iter()
            .map(|st| {
                let mut gs: Vec<Vec<usize>> = st
                    .groups
                    .iter()
                    .map(|g| {
                        let mut d = g.devices.clone();
                        d.sort_unstable();
                        d
                    })
                    .collect();
                gs.sort();
                format!("{}{:?}", st.collective, gs)
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut sets = std::collections::HashMap::new();
    let mut space_sizes = std::collections::HashMap::new();
    for kind in HierarchyKind::ALL {
        let synth = Synthesizer::new(matrix.clone(), vec![1], kind).unwrap();
        let set: std::collections::HashSet<String> = synth
            .synthesize(3)
            .programs
            .iter()
            .map(|p| canonical(&synth.lower(p).unwrap()))
            .collect();
        space_sizes.insert(kind, synth.context().space_size());
        sets.insert(kind, set);
    }
    let d = &sets[&HierarchyKind::ReductionAxes];
    for kind in [
        HierarchyKind::System,
        HierarchyKind::ColumnMajor,
        HierarchyKind::RowMajor,
    ] {
        assert!(
            sets[&kind].is_subset(d),
            "hierarchy (d) must cover {kind:?}"
        );
        assert!(space_sizes[&HierarchyKind::ReductionAxes] <= space_sizes[&kind]);
    }
}

/// Both NCCL algorithms run end to end and produce different but plausible numbers.
#[test]
fn ring_and_tree_both_supported() {
    let mut totals = Vec::new();
    for algo in NcclAlgo::ALL {
        let result = P2::builder(presets::v100_system(2))
            .parallelism_axes(vec![4, 4])
            .reduction_axes(vec![0])
            .algo(algo)
            .bytes_per_device(1.0e9)
            .repeats(2)
            .run()
            .unwrap();
        totals.push(result.best_overall().unwrap().measured_seconds);
    }
    assert!(totals.iter().all(|&t| t > 0.0));
}
