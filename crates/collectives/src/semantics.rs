//! The Hoare-triple semantics of the five collectives (paper Figure 8).

use std::fmt;

use crate::collective::Collective;
use crate::state::State;

/// Why a collective cannot be applied to a group of device states — i.e.
/// which pre-condition of Figure 8 failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SemanticsError {
    /// A group must contain at least two devices for a collective to do work.
    TrivialGroup,
    /// The device states in the group do not all have the same dimension.
    DimensionMismatch,
    /// Reduction-style collectives require every participant to hold data for
    /// exactly the same set of chunks.
    RowsMismatch,
    /// Two participants hold overlapping contributions for the same chunk, so
    /// reducing them would count some data twice (Figure 4b).
    OverlappingContributions,
    /// `AllGather` requires the participants' chunk sets to be disjoint.
    RowsNotDisjoint,
    /// `AllGather` requires every participant to hold the same number of chunks.
    RowCountMismatch,
    /// `ReduceScatter` requires the number of chunks to be divisible by the
    /// group size.
    ScatterIndivisible,
    /// `Broadcast` requires the root to be at least as informed as everyone
    /// else and strictly more informed than someone (information increase).
    NotInformative,
    /// The operation would be a no-op because no participant holds any data.
    EmptyStates,
}

impl SemanticsError {
    /// A short stable token naming the variant, part of the table-store
    /// snapshot format: memoized semantic errors persist as these strings,
    /// so the spelling must never change for an existing variant.
    pub fn stable_token(&self) -> &'static str {
        match self {
            SemanticsError::TrivialGroup => "trivial-group",
            SemanticsError::DimensionMismatch => "dimension-mismatch",
            SemanticsError::RowsMismatch => "rows-mismatch",
            SemanticsError::OverlappingContributions => "overlapping-contributions",
            SemanticsError::RowsNotDisjoint => "rows-not-disjoint",
            SemanticsError::RowCountMismatch => "row-count-mismatch",
            SemanticsError::ScatterIndivisible => "scatter-indivisible",
            SemanticsError::NotInformative => "not-informative",
            SemanticsError::EmptyStates => "empty-states",
        }
    }

    /// The inverse of [`stable_token`](SemanticsError::stable_token):
    /// `None` for unknown tokens (e.g. a snapshot written by a newer build).
    pub fn from_stable_token(token: &str) -> Option<SemanticsError> {
        Some(match token {
            "trivial-group" => SemanticsError::TrivialGroup,
            "dimension-mismatch" => SemanticsError::DimensionMismatch,
            "rows-mismatch" => SemanticsError::RowsMismatch,
            "overlapping-contributions" => SemanticsError::OverlappingContributions,
            "rows-not-disjoint" => SemanticsError::RowsNotDisjoint,
            "row-count-mismatch" => SemanticsError::RowCountMismatch,
            "scatter-indivisible" => SemanticsError::ScatterIndivisible,
            "not-informative" => SemanticsError::NotInformative,
            "empty-states" => SemanticsError::EmptyStates,
            _ => return None,
        })
    }
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            SemanticsError::TrivialGroup => "group has fewer than two devices",
            SemanticsError::DimensionMismatch => "device states have different dimensions",
            SemanticsError::RowsMismatch => "participants hold different chunk sets",
            SemanticsError::OverlappingContributions => {
                "participants hold overlapping contributions for the same chunk"
            }
            SemanticsError::RowsNotDisjoint => "participants' chunk sets overlap",
            SemanticsError::RowCountMismatch => "participants hold different numbers of chunks",
            SemanticsError::ScatterIndivisible => {
                "number of chunks is not divisible by the group size"
            }
            SemanticsError::NotInformative => "broadcast root is not strictly more informed",
            SemanticsError::EmptyStates => "no participant holds any data",
        };
        write!(f, "{msg}")
    }
}

impl std::error::Error for SemanticsError {}

fn check_common(states: &[&State]) -> Result<usize, SemanticsError> {
    if states.len() < 2 {
        return Err(SemanticsError::TrivialGroup);
    }
    let k = states[0].dim();
    if states.iter().any(|s| s.dim() != k) {
        return Err(SemanticsError::DimensionMismatch);
    }
    Ok(k)
}

/// Pre-conditions shared by `AllReduce`, `ReduceScatter` and `Reduce`:
/// identical chunk sets and pairwise-disjoint contributions per chunk.
///
/// A single pass per row replaces the former O(n²) pairwise disjointness
/// test: n sets of one row are pairwise disjoint exactly when the popcount of
/// their union equals the sum of their popcounts, and the union is the
/// reduction result we have to build anyway.
fn check_reduction_preconditions(states: &[&State]) -> Result<State, SemanticsError> {
    check_common(states)?;
    let first = states[0];
    if states[1..]
        .iter()
        .any(|s| s.mask_words() != first.mask_words())
    {
        return Err(SemanticsError::RowsMismatch);
    }
    if first.is_empty() {
        return Err(SemanticsError::EmptyStates);
    }
    let mut sum = first.clone();
    for r in crate::bitset::iter_word_ones(first.mask_words()) {
        let mut ones: usize = first.row(r).count_ones();
        for s in &states[1..] {
            for (acc, &w) in sum.row_words_mut(r).iter_mut().zip(s.row_words(r)) {
                ones += w.count_ones() as usize;
                *acc |= w;
            }
        }
        if sum.row(r).count_ones() != ones {
            return Err(SemanticsError::OverlappingContributions);
        }
    }
    Ok(sum)
}

/// Applies one collective to the states of a device group, returning the
/// post-condition states in the same order.
///
/// The group's first element is the root for [`Collective::Reduce`] and
/// [`Collective::Broadcast`], as in the paper.
///
/// # Errors
///
/// Returns a [`SemanticsError`] describing the violated pre-condition of
/// Figure 8; in that case the input states are unchanged and the instruction
/// is semantically invalid for this group.
///
/// # Examples
///
/// ```
/// use p2_collectives::{apply_collective, Collective, State};
/// let states = vec![State::initial(4, 0), State::initial(4, 1)];
/// let after = apply_collective(Collective::ReduceScatter, &states).unwrap();
/// // Each device now owns half of the partially-reduced chunks.
/// assert_eq!(after[0].nonempty_rows(), vec![0, 1]);
/// assert_eq!(after[1].nonempty_rows(), vec![2, 3]);
/// ```
pub fn apply_collective(
    collective: Collective,
    states: &[State],
) -> Result<Vec<State>, SemanticsError> {
    let refs: Vec<&State> = states.iter().collect();
    apply_collective_refs(collective, &refs)
}

/// [`apply_collective`] over borrowed device states, so callers assembling a
/// group from a larger context (or from a [`crate::SharedTables`]) never
/// clone the inputs.
///
/// # Errors
///
/// Same as [`apply_collective`].
pub fn apply_collective_refs(
    collective: Collective,
    states: &[&State],
) -> Result<Vec<State>, SemanticsError> {
    match collective {
        Collective::AllReduce => {
            let sum = check_reduction_preconditions(states)?;
            Ok(vec![sum; states.len()])
        }
        Collective::Reduce => {
            let sum = check_reduction_preconditions(states)?;
            let k = sum.dim();
            let mut out = vec![State::empty(k); states.len()];
            out[0] = sum;
            Ok(out)
        }
        Collective::ReduceScatter => {
            let sum = check_reduction_preconditions(states)?;
            let rows = sum.nonempty_rows();
            let n = states.len();
            if rows.len() % n != 0 {
                return Err(SemanticsError::ScatterIndivisible);
            }
            let per = rows.len() / n;
            let out = (0..n)
                .map(|i| sum.retain_rows(&rows[i * per..(i + 1) * per]))
                .collect();
            Ok(out)
        }
        Collective::AllGather => {
            check_common(states)?;
            let first = states[0];
            let count = first.num_nonempty_rows();
            if states.iter().any(|s| s.num_nonempty_rows() != count) {
                return Err(SemanticsError::RowCountMismatch);
            }
            if count == 0 {
                return Err(SemanticsError::EmptyStates);
            }
            // Single pass over the cached masks: the chunk sets are pairwise
            // disjoint exactly when their union has `n * count` rows.
            let mut sum = first.clone();
            for s in &states[1..] {
                sum.union_with(s);
            }
            if sum.num_nonempty_rows() != count * states.len() {
                return Err(SemanticsError::RowsNotDisjoint);
            }
            Ok(vec![sum; states.len()])
        }
        Collective::Broadcast => {
            check_common(states)?;
            let root = states[0];
            if !states.iter().all(|s| s.le(root)) {
                return Err(SemanticsError::NotInformative);
            }
            if !states.iter().any(|s| s.lt(root)) {
                return Err(SemanticsError::NotInformative);
            }
            Ok(vec![root.clone(); states.len()])
        }
    }
}

/// Applies one collective simultaneously to several disjoint device groups of
/// a state context (the semantics of a DSL reduction instruction, §3.3):
/// devices not named by any group keep their state unchanged.
///
/// # Errors
///
/// Returns the first [`SemanticsError`] raised by any group, leaving
/// `states` unchanged in that case.
///
/// # Panics
///
/// Panics if any group mentions a device index outside `states`.
pub fn apply_to_groups(
    collective: Collective,
    states: &[State],
    groups: &[Vec<usize>],
) -> Result<Vec<State>, SemanticsError> {
    // Members are always read from the *input* context and errors abandon
    // `out` before the caller sees it, so the update stays atomic without
    // cloning any member state up front.
    let mut out = states.to_vec();
    for group in groups {
        let members: Vec<&State> = group.iter().map(|&d| &states[d]).collect();
        let after = apply_collective_refs(collective, &members)?;
        for (&device, state) in group.iter().zip(after) {
            out[device] = state;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn initial(k: usize) -> Vec<State> {
        (0..k).map(|i| State::initial(k, i)).collect()
    }

    #[test]
    fn allreduce_reaches_goal() {
        let after = apply_collective(Collective::AllReduce, &initial(4)).unwrap();
        assert!(after.iter().all(|s| *s == State::goal(4)));
    }

    #[test]
    fn allreduce_twice_is_invalid() {
        // Figure 4b: reducing the same data twice is rejected.
        let once = apply_collective(Collective::AllReduce, &initial(2)).unwrap();
        assert_eq!(
            apply_collective(Collective::AllReduce, &once),
            Err(SemanticsError::OverlappingContributions)
        );
    }

    #[test]
    fn reduce_clears_non_roots() {
        let after = apply_collective(Collective::Reduce, &initial(3)).unwrap();
        assert_eq!(after[0], State::goal(3));
        assert!(after[1].is_empty() && after[2].is_empty());
    }

    #[test]
    fn reduce_scatter_splits_rows_in_order() {
        let after = apply_collective(Collective::ReduceScatter, &initial(4)).unwrap();
        assert_eq!(after[0].nonempty_rows(), vec![0]);
        assert_eq!(after[3].nonempty_rows(), vec![3]);
        for (i, s) in after.iter().enumerate() {
            // The retained row is fully reduced over the group.
            assert_eq!(s.row(i).count_ones(), 4);
        }
    }

    #[test]
    fn reduce_scatter_indivisible_is_error() {
        // 3 devices, 4 chunks each... build a 4-dim scope with only 3 participants.
        let states: Vec<State> = (0..3).map(|i| State::initial(4, i)).collect();
        assert_eq!(
            apply_collective(Collective::ReduceScatter, &states),
            Err(SemanticsError::ScatterIndivisible)
        );
    }

    #[test]
    fn allgather_requires_disjoint_rows() {
        let scattered = apply_collective(Collective::ReduceScatter, &initial(4)).unwrap();
        let gathered = apply_collective(Collective::AllGather, &scattered).unwrap();
        assert!(gathered.iter().all(|s| *s == State::goal(4)));
        // Gathering identical states is invalid.
        assert_eq!(
            apply_collective(Collective::AllGather, &gathered),
            Err(SemanticsError::RowsNotDisjoint)
        );
    }

    #[test]
    fn allgather_requires_equal_row_counts() {
        let k = 4;
        let a = State::goal(k).retain_rows(&[0]);
        let b = State::goal(k).retain_rows(&[1, 2]);
        assert_eq!(
            apply_collective(Collective::AllGather, &[a, b]),
            Err(SemanticsError::RowCountMismatch)
        );
    }

    #[test]
    fn broadcast_requires_information_increase() {
        let k = 3;
        // Root has everything, others are empty (post-Reduce situation).
        let reduced = apply_collective(Collective::Reduce, &initial(k)).unwrap();
        let broadcast = apply_collective(Collective::Broadcast, &reduced).unwrap();
        assert!(broadcast.iter().all(|s| *s == State::goal(k)));
        // Broadcasting again gains nothing and is rejected.
        assert_eq!(
            apply_collective(Collective::Broadcast, &broadcast),
            Err(SemanticsError::NotInformative)
        );
        // Broadcasting when the root knows *less* than a peer is rejected.
        let mut states = initial(k);
        states[1] = State::goal(k);
        assert_eq!(
            apply_collective(Collective::Broadcast, &states),
            Err(SemanticsError::NotInformative)
        );
    }

    #[test]
    fn mixing_chunks_is_invalid() {
        // Figure 4a: ReduceScatter then AllReduce over the same pair mixes
        // different chunks and must be rejected.
        let scattered = apply_collective(Collective::ReduceScatter, &initial(2)).unwrap();
        assert_eq!(
            apply_collective(Collective::AllReduce, &scattered),
            Err(SemanticsError::RowsMismatch)
        );
    }

    #[test]
    fn trivial_and_mismatched_groups_rejected() {
        assert_eq!(
            apply_collective(Collective::AllReduce, &[State::initial(2, 0)]),
            Err(SemanticsError::TrivialGroup)
        );
        assert_eq!(
            apply_collective(
                Collective::AllReduce,
                &[State::initial(2, 0), State::initial(3, 1)]
            ),
            Err(SemanticsError::DimensionMismatch)
        );
    }

    #[test]
    fn empty_states_rejected() {
        let empties = vec![State::empty(2), State::empty(2)];
        assert_eq!(
            apply_collective(Collective::AllReduce, &empties),
            Err(SemanticsError::EmptyStates)
        );
        assert_eq!(
            apply_collective(Collective::AllGather, &empties),
            Err(SemanticsError::EmptyStates)
        );
    }

    #[test]
    fn apply_to_groups_updates_only_members() {
        let k = 4;
        let states = initial(k);
        let after = apply_to_groups(Collective::AllReduce, &states, &[vec![0, 1]]).unwrap();
        assert_eq!(after[0], after[1]);
        assert_eq!(after[2], State::initial(k, 2));
        assert_eq!(after[3], State::initial(k, 3));
        // Two disjoint groups at once.
        let after2 =
            apply_to_groups(Collective::AllReduce, &states, &[vec![0, 1], vec![2, 3]]).unwrap();
        assert_eq!(after2[0], after2[1]);
        assert_eq!(after2[2], after2[3]);
        assert_ne!(after2[0], after2[2]);
    }

    #[test]
    fn apply_to_groups_is_atomic_on_error() {
        let k = 4;
        let states = initial(k);
        // Second group is trivial, so the whole instruction fails and nothing changes.
        let result = apply_to_groups(Collective::AllReduce, &states, &[vec![0, 1], vec![2]]);
        assert_eq!(result, Err(SemanticsError::TrivialGroup));
    }

    #[test]
    fn reduce_allreduce_broadcast_program_reaches_goal() {
        // The Figure 3c / Figure 10i pattern on 4 devices arranged as 2x2:
        // local Reduce, AllReduce between roots, local Broadcast.
        let states = initial(4);
        let s1 = apply_to_groups(Collective::Reduce, &states, &[vec![0, 1], vec![2, 3]]).unwrap();
        let s2 = apply_to_groups(Collective::AllReduce, &s1, &[vec![0, 2]]).unwrap();
        let s3 = apply_to_groups(Collective::Broadcast, &s2, &[vec![0, 1], vec![2, 3]]).unwrap();
        assert!(s3.iter().all(|s| *s == State::goal(4)));
    }

    #[test]
    fn reducescatter_allreduce_allgather_program_reaches_goal() {
        // The Figure 10ii / BlueConnect pattern on 4 devices arranged as 2x2.
        let states = initial(4);
        let s1 = apply_to_groups(
            Collective::ReduceScatter,
            &states,
            &[vec![0, 1], vec![2, 3]],
        )
        .unwrap();
        let s2 = apply_to_groups(Collective::AllReduce, &s1, &[vec![0, 2], vec![1, 3]]).unwrap();
        let s3 = apply_to_groups(Collective::AllGather, &s2, &[vec![0, 1], vec![2, 3]]).unwrap();
        assert!(s3.iter().all(|s| *s == State::goal(4)));
    }
}
