//! The α–β cost model with per-uplink contention — the paper's analytic
//! simulator and the default [`CostModel`] implementation.

use p2_synthesis::LoweredStep;
use p2_topology::SystemTopology;

use crate::algo::NcclAlgo;
use crate::error::CostError;
use crate::model::{CostModel, StepCost};
use crate::patterns::{step_cost_with, GroupTerms};

/// The paper's analytic simulator: predicts the end-to-end time of a lowered
/// reduction program on a hierarchical system.
///
/// For every step, each concurrently-communicating device group is assigned
/// an *effective bandwidth*: the minimum, over the uplinks its traffic
/// crosses, of the uplink bandwidth divided by the number of groups of the
/// same step using that uplink. The group's time follows the standard α–β
/// formulas for its collective and algorithm; a step takes as long as its
/// slowest group and a program is the sum of its steps.
#[derive(Debug, Clone)]
pub struct AlphaBetaModel {
    system: SystemTopology,
    algo: NcclAlgo,
    bytes_per_device: f64,
}

impl AlphaBetaModel {
    /// Creates a cost model for a system, an NCCL algorithm and a per-device
    /// buffer size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidBytes`] when the byte count is not a
    /// positive finite number.
    pub fn new(
        system: SystemTopology,
        algo: NcclAlgo,
        bytes_per_device: f64,
    ) -> Result<Self, CostError> {
        if !(bytes_per_device.is_finite() && bytes_per_device > 0.0) {
            return Err(CostError::InvalidBytes {
                bytes: bytes_per_device,
            });
        }
        Ok(AlphaBetaModel {
            system,
            algo,
            bytes_per_device,
        })
    }

    /// The NCCL algorithm assumed for every collective call.
    pub fn algo(&self) -> NcclAlgo {
        self.algo
    }

    /// α–β: the contention-inflated bandwidth term plus `rounds × latency`.
    pub(crate) fn group_seconds(&self, t: &GroupTerms) -> f64 {
        t.bandwidth_seconds + t.rounds * t.wire_latency
    }
}

impl CostModel for AlphaBetaModel {
    fn name(&self) -> &str {
        "alpha-beta"
    }

    fn system(&self) -> &SystemTopology {
        &self.system
    }

    fn bytes_per_device(&self) -> f64 {
        self.bytes_per_device
    }

    fn step_cost(&self, step: &LoweredStep) -> StepCost {
        step_cost_with(&self.system, step, self.algo, self.bytes_per_device, |t| {
            self.group_seconds(t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_collectives::Collective;
    use p2_placement::ParallelismMatrix;
    use p2_synthesis::{baseline_allreduce, GroupExec, HierarchyKind, LoweredProgram, Synthesizer};
    use p2_topology::presets;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    fn a100_4() -> p2_topology::SystemTopology {
        presets::a100_system(4)
    }

    #[test]
    fn invalid_bytes_rejected() {
        assert!(AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, 0.0).is_err());
        assert!(AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, f64::NAN).is_err());
        assert!(AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, -1.0).is_err());
    }

    #[test]
    fn local_reduction_is_orders_of_magnitude_faster_than_cross_node() {
        // Table 3 rows B1 vs B3 (Result 1): the placement changes AllReduce
        // time by more than two orders of magnitude.
        let bytes = 4.0 * (1u64 << 29) as f64 * 4.0;
        let b1 =
            ParallelismMatrix::new(vec![vec![1, 4], vec![4, 4]], vec![4, 16], vec![4, 16]).unwrap();
        let b3 = ParallelismMatrix::new(vec![vec![4, 1], vec![1, 16]], vec![4, 16], vec![4, 16])
            .unwrap();
        for algo in NcclAlgo::ALL {
            let model = AlphaBetaModel::new(a100_4(), algo, bytes).unwrap();
            let t1 = model.program_time(&baseline_allreduce(&b1, &[0]).unwrap());
            let t3 = model.program_time(&baseline_allreduce(&b3, &[0]).unwrap());
            assert!(
                t3 / t1 > 100.0,
                "{algo}: expected a large gap, got {t1} vs {t3}"
            );
            // And the same placement is much better for the *other* reduction axis.
            let t1_axis1 = model.program_time(&baseline_allreduce(&b1, &[1]).unwrap());
            let t3_axis1 = model.program_time(&baseline_allreduce(&b3, &[1]).unwrap());
            assert!(t1_axis1 / t3_axis1 > 10.0);
        }
    }

    #[test]
    fn hierarchical_program_beats_flat_allreduce_across_nodes() {
        // Result 5: when the reduction crosses nodes, a topology-aware program
        // (ReduceScatter-AllReduce-AllGather) outperforms the single AllReduce.
        let sys = presets::v100_system(4);
        let bytes = 4.0 * (1u64 << 29) as f64 * 4.0;
        let matrix = ParallelismMatrix::new(vec![vec![4, 8]], vec![4, 8], vec![32]).unwrap();
        let synth =
            Synthesizer::new(matrix.clone(), vec![0], HierarchyKind::ReductionAxes).unwrap();
        let result = synth.synthesize(5);
        let model = AlphaBetaModel::new(sys, NcclAlgo::Ring, bytes).unwrap();
        let baseline = model.program_time(&baseline_allreduce(&matrix, &[0]).unwrap());
        let best = result
            .programs
            .iter()
            .map(|p| model.program_time(&synth.lower(p).unwrap()))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best < baseline,
            "best synthesized {best} should beat AllReduce {baseline}"
        );
        let speedup = baseline / best;
        assert!(
            speedup > 1.05 && speedup < 10.0,
            "speedup {speedup} outside plausible range"
        );
    }

    #[test]
    fn local_reduction_is_not_improved_by_synthesis() {
        // Result 3: if the reduction fits in one node, the single AllReduce is
        // already (near-)optimal.
        let bytes = 4.0 * (1u64 << 29) as f64 * 4.0;
        // F1-style placement: reduction axis inside the node.
        let matrix =
            ParallelismMatrix::new(vec![vec![1, 8], vec![4, 2]], vec![4, 16], vec![8, 8]).unwrap();
        let synth =
            Synthesizer::new(matrix.clone(), vec![0], HierarchyKind::ReductionAxes).unwrap();
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, bytes).unwrap();
        let baseline = model.program_time(&baseline_allreduce(&matrix, &[0]).unwrap());
        let best = synth
            .synthesize(5)
            .programs
            .iter()
            .map(|p| model.program_time(&synth.lower(p).unwrap()))
            .fold(f64::INFINITY, f64::min);
        assert!(
            baseline <= best * 1.01,
            "AllReduce {baseline} should be optimal, best {best}"
        );
    }

    #[test]
    fn cost_scales_linearly_with_bytes() {
        let matrix =
            ParallelismMatrix::new(vec![vec![4, 1], vec![1, 16]], vec![4, 16], vec![4, 16])
                .unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        let small = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, GIB)
            .unwrap()
            .program_time(&program);
        let large = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, 4.0 * GIB)
            .unwrap()
            .program_time(&program);
        let ratio = large / small;
        assert!(
            (ratio - 4.0).abs() < 0.05,
            "bandwidth-bound cost should scale ~linearly, ratio {ratio}"
        );
    }

    #[test]
    fn contention_slows_groups_down() {
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, GIB).unwrap();
        // One cross-node pair alone...
        let lone = LoweredStep {
            collective: Collective::AllReduce,
            groups: vec![GroupExec {
                devices: vec![0, 16],
                input_fraction: 1.0,
            }],
        };
        // ...versus sixteen cross-node pairs sharing the two NICs.
        let crowded = LoweredStep {
            collective: Collective::AllReduce,
            groups: (0..16)
                .map(|i| GroupExec {
                    devices: vec![i, 16 + i],
                    input_fraction: 1.0,
                })
                .collect(),
        };
        let t_lone = model.step_time(&lone);
        let t_crowded = model.step_time(&crowded);
        let ratio = t_crowded / t_lone;
        assert!(
            (ratio - 16.0).abs() < 0.5,
            "expected ~16x contention slowdown, got {ratio}"
        );
    }

    #[test]
    fn empty_and_trivial_steps_cost_nothing() {
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Tree, GIB).unwrap();
        let step = LoweredStep {
            collective: Collective::Broadcast,
            groups: vec![GroupExec {
                devices: vec![3],
                input_fraction: 1.0,
            }],
        };
        assert_eq!(model.step_time(&step), 0.0);
        let empty = LoweredProgram {
            steps: vec![],
            num_devices: 64,
        };
        assert_eq!(model.program_time(&empty), 0.0);
    }

    #[test]
    fn validate_program_catches_bad_ranks() {
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, GIB).unwrap();
        let bad = LoweredProgram {
            steps: vec![LoweredStep {
                collective: Collective::AllReduce,
                groups: vec![GroupExec {
                    devices: vec![0, 99],
                    input_fraction: 1.0,
                }],
            }],
            num_devices: 64,
        };
        assert!(matches!(
            model.validate_program(&bad),
            Err(CostError::DeviceOutOfRange { rank: 99, .. })
        ));
    }

    #[test]
    fn accumulator_prefixes_lower_bound_and_total_matches_bit_for_bit() {
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 8], vec![2, 2]], vec![4, 16], vec![16, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let programs = synth.synthesize(4).programs;
        for algo in NcclAlgo::ALL {
            let model = AlphaBetaModel::new(a100_4(), algo, GIB).unwrap();
            for p in programs.iter().take(10) {
                let lowered = synth.lower(p).unwrap();
                let total = model.program_time(&lowered);
                let mut acc = model.accumulator();
                for (i, step) in lowered.steps.iter().enumerate() {
                    let running = acc.push(step);
                    assert_eq!(acc.steps(), i + 1);
                    assert_eq!(running, acc.seconds());
                    // Every prefix is an admissible lower bound on the total.
                    assert!(running <= total + 1e-15, "prefix {running} above {total}");
                }
                // The full accumulation is bit-identical to program_time.
                assert_eq!(acc.seconds(), total);
            }
        }
    }

    #[test]
    fn accumulator_exceeds_tracks_the_bound() {
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, GIB).unwrap();
        let step = LoweredStep {
            collective: Collective::AllReduce,
            groups: vec![GroupExec {
                devices: vec![0, 16],
                input_fraction: 1.0,
            }],
        };
        let mut acc = model.accumulator();
        assert!(!acc.exceeds(0.0), "an empty prefix exceeds nothing");
        let t = acc.push(&step);
        assert!(t > 0.0);
        assert!(acc.exceeds(t / 2.0));
        assert!(!acc.exceeds(t));
        assert!(!acc.exceeds(2.0 * t));
    }

    #[test]
    fn breakdown_total_matches_program_time() {
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 8], vec![2, 2]], vec![4, 16], vec![16, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let programs = synth.synthesize(4).programs;
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Tree, GIB).unwrap();
        for p in programs.iter().take(10) {
            let lowered = synth.lower(p).unwrap();
            let breakdown = model.program_breakdown(&lowered);
            assert_eq!(breakdown.steps.len(), lowered.steps.len());
            assert!((breakdown.total() - model.program_time(&lowered)).abs() < 1e-12);
            assert!(breakdown.total() > 0.0);
        }
    }

    #[test]
    fn trait_object_dispatch_matches_concrete_calls() {
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 8], vec![2, 2]], vec![4, 16], vec![16, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let programs = synth.synthesize(3).programs;
        let model = AlphaBetaModel::new(a100_4(), NcclAlgo::Ring, GIB).unwrap();
        let dyn_model: &dyn CostModel = &model;
        for p in programs.iter().take(10) {
            let lowered = synth.lower(p).unwrap();
            assert_eq!(
                model.program_time(&lowered),
                dyn_model.program_time(&lowered)
            );
            let mut acc = crate::CostAccumulator::new(dyn_model);
            for step in &lowered.steps {
                acc.push(step);
            }
            assert_eq!(acc.seconds(), model.program_time(&lowered));
        }
    }
}
