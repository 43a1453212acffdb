//! Lowered reduction programs: explicit per-step physical device groups.

use std::hash::{Hash, Hasher};

use p2_collectives::{Collective, FxHasher};
use p2_placement::ParallelismMatrix;

use crate::error::SynthesisError;

/// One device group executing a collective in one step of a lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupExec {
    /// Physical device ranks, in root-first order (`devices[0]` is the root
    /// for `Reduce`/`Broadcast`).
    pub devices: Vec<usize>,
    /// Fraction of the full per-device buffer each participant contributes to
    /// this step (1.0 for a full-buffer AllReduce, 0.5 after a ReduceScatter
    /// over two devices, …).
    pub input_fraction: f64,
}

/// One step of a lowered program: every group runs the same collective
/// concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredStep {
    /// The collective performed in this step.
    pub collective: Collective,
    /// The concurrently-communicating device groups.
    pub groups: Vec<GroupExec>,
}

impl LoweredStep {
    /// The largest group size in this step.
    pub fn max_group_size(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.devices.len())
            .max()
            .unwrap_or(0)
    }

    /// A hash of the step's exact layout: the collective and, per group in
    /// order, the device ranks and the input-fraction bits. Steps with the
    /// [`same_layout`](LoweredStep::same_layout) hash equally, so a memo
    /// keyed by this hash and confirmed by `same_layout` is exact.
    pub fn layout_hash(&self) -> u64 {
        let mut hasher = FxHasher::default();
        self.collective.hash(&mut hasher);
        for group in &self.groups {
            group.devices.hash(&mut hasher);
            group.input_fraction.to_bits().hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Whether two steps are the same step bit for bit: equal collectives
    /// and, group by group, equal device lists and input-fraction bits.
    /// Compares in place, allocating nothing.
    pub fn same_layout(&self, other: &LoweredStep) -> bool {
        self.collective == other.collective
            && self.groups.len() == other.groups.len()
            && self.groups.iter().zip(&other.groups).all(|(a, b)| {
                a.input_fraction.to_bits() == b.input_fraction.to_bits() && a.devices == b.devices
            })
    }
}

/// A reduction program lowered to sequences of collectives over physical
/// device groups — the representation consumed by the cost model and the
/// execution simulator, and ultimately what would be handed to NCCL.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredProgram {
    /// The steps, executed in order; groups within one step run concurrently.
    pub steps: Vec<LoweredStep>,
    /// Total number of physical devices in the system the program targets.
    pub num_devices: usize,
}

impl LoweredProgram {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the program has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The `Collective-Collective-…` signature (Figure 10 notation).
    pub fn signature(&self) -> String {
        self.steps
            .iter()
            .map(|s| s.collective.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Whether every step's groups are pairwise disjoint (a well-formedness
    /// invariant of lowering; exposed for tests and debugging).
    pub fn groups_are_disjoint(&self) -> bool {
        self.steps.iter().all(|step| {
            let mut seen = std::collections::HashSet::new();
            step.groups
                .iter()
                .flat_map(|g| &g.devices)
                .all(|&d| seen.insert(d))
        })
    }
}

/// The default reduction the paper compares against: a single `AllReduce`
/// within every reduction group of the placement (paper §2.2, Figure 3a).
///
/// # Errors
///
/// Propagates placement errors for invalid reduction axes.
pub fn baseline_allreduce(
    matrix: &ParallelismMatrix,
    reduction_axes: &[usize],
) -> Result<LoweredProgram, SynthesisError> {
    let groups = matrix
        .reduction_groups(reduction_axes)?
        .into_iter()
        .filter(|g| g.len() >= 2)
        .map(|devices| GroupExec {
            devices,
            input_fraction: 1.0,
        })
        .collect();
    Ok(LoweredProgram {
        steps: vec![LoweredStep {
            collective: Collective::AllReduce,
            groups,
        }],
        num_devices: matrix.num_devices(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2d() -> ParallelismMatrix {
        ParallelismMatrix::new(
            vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
            vec![1, 2, 2, 4],
            vec![4, 4],
        )
        .unwrap()
    }

    #[test]
    fn baseline_is_one_allreduce_over_reduction_groups() {
        let p = baseline_allreduce(&figure2d(), &[1]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.signature(), "AllReduce");
        assert_eq!(p.steps[0].groups.len(), 4);
        assert_eq!(p.steps[0].max_group_size(), 4);
        assert!(p.groups_are_disjoint());
        assert!(!p.is_empty());
    }

    #[test]
    fn disjointness_check_detects_overlap() {
        let p = LoweredProgram {
            steps: vec![LoweredStep {
                collective: Collective::AllReduce,
                groups: vec![
                    GroupExec {
                        devices: vec![0, 1],
                        input_fraction: 1.0,
                    },
                    GroupExec {
                        devices: vec![1, 2],
                        input_fraction: 1.0,
                    },
                ],
            }],
            num_devices: 4,
        };
        assert!(!p.groups_are_disjoint());
    }
}
