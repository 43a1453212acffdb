//! The synthesis context: synthesis-space states, goal, and lowering to
//! physical device groups (paper §3.5).

use std::sync::OnceLock;

use p2_collectives::{apply_to_groups, State};
use p2_placement::ParallelismMatrix;

use crate::dsl::{Form, Instruction, Program};
use crate::error::SynthesisError;
use crate::hierarchy::{HierarchyKind, SynthesisHierarchy};
use crate::lowered::{GroupExec, LoweredProgram, LoweredStep};

/// Everything the synthesizer and the lowering need to know about one
/// (parallelism matrix, reduction axes, synthesis hierarchy) combination.
///
/// The *synthesis space* is the set of abstract devices the hierarchy
/// enumerates: for hierarchy (d) these are the members of one reduction group
/// (the pattern is later repeated over every replica, Figure 6 of the paper);
/// for hierarchies (a)–(c) they are all physical devices.
#[derive(Debug, Clone)]
pub struct SynthesisContext {
    matrix: ParallelismMatrix,
    reduction_axes: Vec<usize>,
    hierarchy: SynthesisHierarchy,
    /// Goal groups over synthesis-space indices.
    goal_groups: Vec<Vec<usize>>,
    /// The goal state of every abstract device, built on first use.
    goals: OnceLock<Vec<State>>,
    /// The cosets of [`SynthesisContext::cosets`], built on first use.
    cosets: OnceLock<Vec<Vec<usize>>>,
    /// `physical[c][i]`: the device rank of space index `i` in coset `c`,
    /// built on first use — every lowered step reads it.
    physical: OnceLock<Vec<Vec<usize>>>,
}

impl SynthesisContext {
    /// Builds the context for a matrix, reduction axes and hierarchy kind.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::InvalidReductionAxes`] for bad axes and
    /// propagates placement errors.
    pub fn new(
        matrix: ParallelismMatrix,
        reduction_axes: Vec<usize>,
        kind: HierarchyKind,
    ) -> Result<Self, SynthesisError> {
        let hierarchy = SynthesisHierarchy::build(&matrix, &reduction_axes, kind)?;
        let goal_groups = match kind {
            HierarchyKind::ReductionAxes => vec![(0..hierarchy.space_size()).collect()],
            HierarchyKind::System | HierarchyKind::ColumnMajor => {
                matrix.reduction_groups(&reduction_axes)?
            }
            HierarchyKind::RowMajor => {
                // Space indices are the axis-coordinate linearization; group
                // them by their non-reduction coordinates.
                let mut groups: std::collections::BTreeMap<Vec<usize>, Vec<usize>> =
                    std::collections::BTreeMap::new();
                for idx in 0..hierarchy.space_size() {
                    let coords = axis_coords_from_linear(&matrix, idx);
                    let key: Vec<usize> = (0..matrix.num_axes())
                        .filter(|i| !reduction_axes.contains(i))
                        .map(|i| coords[i])
                        .collect();
                    groups.entry(key).or_default().push(idx);
                }
                groups.into_values().collect()
            }
        };
        Ok(SynthesisContext {
            matrix,
            reduction_axes,
            hierarchy,
            goal_groups,
            goals: OnceLock::new(),
            cosets: OnceLock::new(),
            physical: OnceLock::new(),
        })
    }

    /// The parallelism matrix this context was built for.
    pub fn matrix(&self) -> &ParallelismMatrix {
        &self.matrix
    }

    /// The reduction axes this context was built for.
    pub fn reduction_axes(&self) -> &[usize] {
        &self.reduction_axes
    }

    /// The synthesis hierarchy in use.
    pub fn hierarchy(&self) -> &SynthesisHierarchy {
        &self.hierarchy
    }

    /// Number of abstract devices in the synthesis space.
    pub fn space_size(&self) -> usize {
        self.hierarchy.space_size()
    }

    /// The goal groups over synthesis-space indices: each abstract device must
    /// end up reduced with exactly the other members of its group.
    pub fn goal_groups(&self) -> &[Vec<usize>] {
        &self.goal_groups
    }

    /// The initial state of every abstract device: it holds only its own data
    /// (paper §3.5).
    pub fn initial_states(&self) -> Vec<State> {
        let k = self.space_size();
        (0..k).map(|i| State::initial(k, i)).collect()
    }

    /// The desired final state of every abstract device: every chunk reduced
    /// over exactly its goal group (paper §3.5).
    pub fn goal_states(&self) -> Vec<State> {
        self.goals().to_vec()
    }

    /// The goal states, built once per context.
    fn goals(&self) -> &[State] {
        self.goals.get_or_init(|| {
            let k = self.space_size();
            let mut goals = vec![State::empty(k); k];
            for group in &self.goal_groups {
                for &d in group {
                    for r in 0..k {
                        for &other in group {
                            goals[d].set(r, other, true);
                        }
                    }
                }
            }
            goals
        })
    }

    /// Derives the synthesis-space device groups of one `slice`/`form` pair.
    ///
    /// # Errors
    ///
    /// Same as [`SynthesisHierarchy::derive_groups`].
    pub fn derive_groups(
        &self,
        slice: usize,
        form: Form,
    ) -> Result<Vec<Vec<usize>>, SynthesisError> {
        self.hierarchy.derive_groups(slice, form)
    }

    /// Maps a synthesis-space index to the physical device rank it denotes
    /// when the non-reduction axes take the coordinates given by `coset`
    /// (one coordinate per non-reduction axis, in increasing axis order).
    ///
    /// For hierarchies (a)–(c) the mapping ignores `coset` because the space
    /// already covers every physical device.
    ///
    /// # Errors
    ///
    /// Propagates placement errors for out-of-range coordinates.
    pub fn space_to_physical(
        &self,
        index: usize,
        coset: &[usize],
    ) -> Result<usize, SynthesisError> {
        match self.hierarchy.kind() {
            HierarchyKind::System | HierarchyKind::ColumnMajor => Ok(index),
            HierarchyKind::RowMajor => {
                let coords = axis_coords_from_linear(&self.matrix, index);
                Ok(self.matrix.device_for_axis_coords(&coords)?)
            }
            HierarchyKind::ReductionAxes => {
                let coords = self.reduction_space_coords(index, coset);
                Ok(self.matrix.device_for_axis_coords(&coords)?)
            }
        }
    }

    /// The list of cosets the synthesis-space pattern must be instantiated
    /// over: every combination of non-reduction axis coordinates for
    /// hierarchy (d), and the single empty coset for (a)–(c).
    pub fn cosets(&self) -> Vec<Vec<usize>> {
        self.coset_list().to_vec()
    }

    /// The cosets, built once per context.
    fn coset_list(&self) -> &[Vec<usize>] {
        self.cosets.get_or_init(|| {
            if self.hierarchy.kind() != HierarchyKind::ReductionAxes {
                return vec![vec![]];
            }
            let free_axes: Vec<usize> = (0..self.matrix.num_axes())
                .filter(|i| !self.reduction_axes.contains(i))
                .collect();
            let mut cosets = vec![vec![]];
            for &axis in &free_axes {
                let size = self.matrix.axis_sizes()[axis];
                cosets = cosets
                    .into_iter()
                    .flat_map(|prefix| {
                        (0..size).map(move |c| {
                            let mut v = prefix.clone();
                            v.push(c);
                            v
                        })
                    })
                    .collect();
            }
            cosets
        })
    }

    /// The space-to-physical table of every coset, built once per context
    /// (a failed mapping is returned and not cached).
    fn physical(&self) -> Result<&[Vec<usize>], SynthesisError> {
        if let Some(table) = self.physical.get() {
            return Ok(table);
        }
        let table = self
            .coset_list()
            .iter()
            .map(|coset| {
                (0..self.space_size())
                    .map(|index| self.space_to_physical(index, coset))
                    .collect::<Result<Vec<usize>, SynthesisError>>()
            })
            .collect::<Result<Vec<_>, SynthesisError>>()?;
        Ok(self.physical.get_or_init(|| table))
    }

    /// Full per-axis coordinates for a synthesis-space index of hierarchy (d)
    /// combined with a coset of non-reduction coordinates.
    fn reduction_space_coords(&self, index: usize, coset: &[usize]) -> Vec<usize> {
        let levels = self.hierarchy.levels();
        // Decompose the space index into per-level digits (level 0 most significant).
        let mut digits = vec![0usize; levels.len()];
        let mut rest = index;
        for (l, level) in levels.iter().enumerate().rev() {
            digits[l] = rest % level.factor;
            rest /= level.factor;
        }
        // Per reduction axis, per hardware level digit.
        let mut axis_level_digit =
            vec![vec![0usize; self.matrix.num_levels()]; self.matrix.num_axes()];
        for (l, level) in levels.iter().enumerate() {
            let Some(hw) = level.hw_level else { continue };
            // The collapsed digit decomposes over the collapsed axes in order.
            let mut rem = digits[l];
            for &(axis, factor) in level.axis_factors.iter().rev() {
                axis_level_digit[axis][hw] = rem % factor;
                rem /= factor;
            }
        }
        // Combine per-level digits into each reduction axis's coordinate.
        let mut coords = vec![0usize; self.matrix.num_axes()];
        for &axis in &self.reduction_axes {
            let mut a = 0usize;
            for (j, &digit) in axis_level_digit[axis].iter().enumerate() {
                a = a * self.matrix.factor(axis, j) + digit;
            }
            coords[axis] = a;
        }
        // Fill in the non-reduction coordinates from the coset.
        let mut it = coset.iter();
        for (axis, coord) in coords.iter_mut().enumerate() {
            if !self.reduction_axes.contains(&axis) {
                *coord = *it.next().expect("coset has one coordinate per free axis");
            }
        }
        coords
    }

    /// The deduplicated goal states plus, per abstract device, the index of
    /// its goal in the deduplicated list. Devices of one goal group share a
    /// goal state, so reachability pruning (Lemma B.3) only ever compares
    /// against `#goal groups` distinct matrices instead of `k`.
    pub fn distinct_goal_states(&self) -> (Vec<State>, Vec<usize>) {
        let goals = self.goals();
        let mut distinct: Vec<State> = Vec::new();
        let mut index = Vec::with_capacity(goals.len());
        for goal in goals {
            match distinct.iter().position(|d| d == goal) {
                Some(i) => index.push(i),
                None => {
                    index.push(distinct.len());
                    distinct.push(goal.clone());
                }
            }
        }
        (distinct, index)
    }

    /// Checks whether `states` equals the goal.
    pub fn is_goal(&self, states: &[State]) -> bool {
        states == self.goals()
    }

    /// A necessary condition for the goal to still be reachable: no device may
    /// hold a contribution from outside its goal group (Lemma B.3 of the
    /// paper). Used by the synthesizer to prune.
    pub fn respects_goal(&self, states: &[State], goals: &[State]) -> bool {
        states.iter().zip(goals).all(|(s, g)| s.le(g))
    }

    /// Re-validates a program against the collective semantics and the goal,
    /// returning the per-step states of the synthesis space (the state after
    /// step `i` is at position `i + 1`; position 0 is the initial state).
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] if any instruction is invalid or the final
    /// state is not the goal.
    pub fn trace(&self, program: &Program) -> Result<Vec<Vec<State>>, SynthesisError> {
        let mut states = self.initial_states();
        let mut trace = vec![states.clone()];
        for instr in &program.instructions {
            let groups = self.derive_groups(instr.slice, instr.form)?;
            let groups: Vec<Vec<usize>> = groups.into_iter().filter(|g| g.len() >= 2).collect();
            states = apply_to_groups(instr.collective, &states, &groups)?;
            trace.push(states.clone());
        }
        if !self.is_goal(&states) {
            return Err(SynthesisError::GoalNotReached);
        }
        Ok(trace)
    }

    /// Lowers a synthesized program to physical device groups with per-group
    /// data fractions (paper §3.4: "lowers synthesized programs to the full
    /// system hierarchy").
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] if the program does not validate or a
    /// mapping to physical devices fails.
    pub fn lower(&self, program: &Program) -> Result<LoweredProgram, SynthesisError> {
        let trace = self.trace(program)?;
        let mut steps = Vec::with_capacity(program.len());
        for (step_idx, instr) in program.instructions.iter().enumerate() {
            let before = &trace[step_idx];
            steps.push(self.lower_step(instr, &mut |idx| before[idx].data_fraction())?);
        }
        Ok(LoweredProgram {
            steps,
            num_devices: self.matrix.num_devices(),
        })
    }

    /// Lowers one instruction to a [`LoweredStep`], with each group member's
    /// data fraction supplied by `data_fraction` (called with the member's
    /// synthesis-space index). This is the per-step core of
    /// [`SynthesisContext::lower`], and what the synthesizer's step table
    /// calls once per distinct DAG edge step: an edge's lowered step depends
    /// only on the instruction and the pre-state's per-device fractions,
    /// never on how the search reached that state.
    ///
    /// # Errors
    ///
    /// Same as [`SynthesisContext::lower`] for one step.
    pub fn lower_step(
        &self,
        instr: &Instruction,
        data_fraction: &mut dyn FnMut(usize) -> f64,
    ) -> Result<LoweredStep, SynthesisError> {
        let physical = self.physical()?;
        let space_groups: Vec<Vec<usize>> = self
            .derive_groups(instr.slice, instr.form)?
            .into_iter()
            .filter(|g| g.len() >= 2)
            .collect();
        // A group's input fraction depends on its space indices only, so it
        // is the same in every coset.
        let fractions: Vec<f64> = space_groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&idx| data_fraction(idx))
                    .fold(0.0_f64, f64::max)
            })
            .collect();
        let mut groups = Vec::with_capacity(physical.len() * space_groups.len());
        for row in physical {
            for (space_group, &input_fraction) in space_groups.iter().zip(&fractions) {
                groups.push(GroupExec {
                    devices: space_group.iter().map(|&idx| row[idx]).collect(),
                    input_fraction,
                });
            }
        }
        Ok(LoweredStep {
            collective: instr.collective,
            groups,
        })
    }
}

/// Decomposes a row-major (hierarchy (c)) space index into per-axis coordinates.
fn axis_coords_from_linear(matrix: &ParallelismMatrix, index: usize) -> Vec<usize> {
    let sizes = matrix.axis_sizes();
    let mut coords = vec![0usize; sizes.len()];
    let mut rest = index;
    for i in (0..sizes.len()).rev() {
        coords[i] = rest % sizes[i];
        rest /= sizes[i];
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_collectives::Collective;

    use crate::dsl::Instruction;

    fn figure2d() -> ParallelismMatrix {
        ParallelismMatrix::new(
            vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
            vec![1, 2, 2, 4],
            vec![4, 4],
        )
        .unwrap()
    }

    fn ctx_d() -> SynthesisContext {
        SynthesisContext::new(figure2d(), vec![1], HierarchyKind::ReductionAxes).unwrap()
    }

    #[test]
    fn space_and_goal_for_reduction_hierarchy() {
        let ctx = ctx_d();
        assert_eq!(ctx.space_size(), 4);
        assert_eq!(ctx.goal_groups(), &[vec![0, 1, 2, 3]]);
        assert_eq!(ctx.goal_states()[0], State::goal(4));
        assert_eq!(ctx.cosets().len(), 4);
    }

    #[test]
    fn space_to_physical_matches_reduction_groups() {
        // Lowering the whole synthesis space over every coset must reproduce
        // exactly the reduction groups of the matrix.
        let ctx = ctx_d();
        let groups = ctx.matrix().reduction_groups(&[1]).unwrap();
        let lowered: Vec<Vec<usize>> = ctx
            .cosets()
            .iter()
            .map(|coset| {
                (0..ctx.space_size())
                    .map(|i| ctx.space_to_physical(i, coset).unwrap())
                    .collect()
            })
            .collect();
        for g in &lowered {
            let mut sorted = g.clone();
            sorted.sort_unstable();
            assert!(
                groups.contains(&sorted),
                "lowered group {g:?} not a reduction group"
            );
        }
        assert_eq!(lowered.len(), groups.len());
    }

    #[test]
    fn single_allreduce_program_lowers_to_reduction_groups() {
        let ctx = ctx_d();
        let program = Program::new(vec![Instruction::new(
            0,
            Form::InsideGroup,
            Collective::AllReduce,
        )]);
        let lowered = ctx.lower(&program).unwrap();
        assert_eq!(lowered.steps.len(), 1);
        assert_eq!(lowered.steps[0].groups.len(), 4);
        assert!(lowered.steps[0].groups.iter().all(|g| g.devices.len() == 4));
        assert!(lowered.steps[0]
            .groups
            .iter()
            .all(|g| (g.input_fraction - 1.0).abs() < 1e-12));
    }

    #[test]
    fn reduce_scatter_then_gather_has_partial_fractions() {
        // ReduceScatter over half the hierarchy, AllReduce across, AllGather back:
        // the Figure 10ii pattern on the Figure 2d placement.
        let ctx = ctx_d();
        let program = Program::new(vec![
            Instruction::new(1, Form::InsideGroup, Collective::ReduceScatter),
            Instruction::new(1, Form::Parallel(0), Collective::AllReduce),
            Instruction::new(1, Form::InsideGroup, Collective::AllGather),
        ]);
        let lowered = ctx.lower(&program).unwrap();
        assert_eq!(lowered.steps.len(), 3);
        // After the ReduceScatter each device holds half the chunks, so the
        // middle AllReduce moves half the data.
        assert!((lowered.steps[0].groups[0].input_fraction - 1.0).abs() < 1e-12);
        assert!((lowered.steps[1].groups[0].input_fraction - 0.5).abs() < 1e-12);
        assert!((lowered.steps[2].groups[0].input_fraction - 0.5).abs() < 1e-12);
        // Every step's groups are disjoint and lie inside the reduction scope.
        for step in &lowered.steps {
            let mut seen = std::collections::HashSet::new();
            for g in &step.groups {
                for &d in &g.devices {
                    assert!(seen.insert(d), "device {d} in two groups of one step");
                    assert!(d < 16);
                }
            }
        }
    }

    #[test]
    fn invalid_program_fails_to_lower() {
        let ctx = ctx_d();
        // AllReduce twice over the same groups double-counts.
        let program = Program::new(vec![
            Instruction::new(0, Form::InsideGroup, Collective::AllReduce),
            Instruction::new(0, Form::InsideGroup, Collective::AllReduce),
        ]);
        assert!(ctx.lower(&program).is_err());
        // An incomplete program does not reach the goal.
        let partial = Program::new(vec![Instruction::new(
            1,
            Form::InsideGroup,
            Collective::Reduce,
        )]);
        assert!(ctx.lower(&partial).is_err());
    }

    #[test]
    fn row_major_context_covers_all_devices() {
        let ctx = SynthesisContext::new(figure2d(), vec![1], HierarchyKind::RowMajor).unwrap();
        assert_eq!(ctx.space_size(), 16);
        assert_eq!(ctx.goal_groups().len(), 4);
        // The physical mapping is a bijection.
        let mut seen = std::collections::HashSet::new();
        for i in 0..16 {
            assert!(seen.insert(ctx.space_to_physical(i, &[]).unwrap()));
        }
    }

    #[test]
    fn system_context_uses_identity_mapping() {
        let ctx = SynthesisContext::new(figure2d(), vec![1], HierarchyKind::System).unwrap();
        assert_eq!(ctx.space_to_physical(7, &[]).unwrap(), 7);
        assert_eq!(ctx.cosets(), vec![Vec::<usize>::new()]);
    }
}
