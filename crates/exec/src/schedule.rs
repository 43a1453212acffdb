//! Expansion of collective calls into runs of identical rounds of
//! point-to-point transfers, built on the NCCL shapes of
//! [`p2_cost::patterns`].

use p2_collectives::Collective;
use p2_cost::patterns::{chain_edges, nccl_order, ring_edges, tree_levels};
use p2_cost::NcclAlgo;
use p2_synthesis::GroupExec;

/// One communication round of one group: `(src, dst)` transfers that happen
/// concurrently, each moving `bytes`.
#[derive(Clone)]
pub(crate) struct Round {
    pub(crate) transfers: Vec<(usize, usize)>,
    pub(crate) bytes: f64,
}

/// Expands one collective over one device group into its rounds of
/// point-to-point transfers, following the structure of NCCL's ring and tree
/// algorithms. Consecutive identical rounds come as one run, `(round,
/// count)` with `count >= 1`: a ring or chain schedule is a single run, a
/// tree schedule one run per level.
///
/// `bytes` is the per-participant payload of the call (the full buffer for an
/// AllReduce, the per-rank block for an AllGather, …). Groups with fewer than
/// two devices produce no rounds.
pub(crate) fn collective_rounds(
    collective: Collective,
    algo: NcclAlgo,
    group: &GroupExec,
    bytes: f64,
) -> Vec<(Round, usize)> {
    let n = group.devices.len();
    if n < 2 || bytes <= 0.0 {
        return Vec::new();
    }
    let order = nccl_order(collective, &group.devices);
    // `count` rounds over the same transfers, each moving `bytes`.
    let repeat = |transfers, count, bytes| vec![(Round { transfers, bytes }, count)];
    // One full-payload round per binomial-tree level.
    let tree = |toward_root| {
        tree_levels(&order, toward_root)
            .into_iter()
            .map(|transfers| (Round { transfers, bytes }, 1))
    };
    match (collective, algo) {
        (Collective::AllReduce, NcclAlgo::Ring) => {
            // Reduce-scatter phase then all-gather phase: 2(n-1) rounds of S/n.
            repeat(ring_edges(&order), 2 * (n - 1), bytes / n as f64)
        }
        (Collective::ReduceScatter, _) => repeat(ring_edges(&order), n - 1, bytes / n as f64),
        (Collective::AllGather, _) => repeat(ring_edges(&order), n - 1, bytes),
        (Collective::AllReduce, NcclAlgo::Tree) => tree(true).chain(tree(false)).collect(),
        (Collective::Reduce, NcclAlgo::Tree) => tree(true).collect(),
        (Collective::Broadcast, NcclAlgo::Tree) => tree(false).collect(),
        // A pipelined chain: `n - 1` rounds in which every chain link carries
        // an equal share of the payload, so each link moves `bytes` in total.
        (Collective::Reduce, NcclAlgo::Ring) => {
            repeat(chain_edges(&order, true), n - 1, bytes / (n - 1) as f64)
        }
        (Collective::Broadcast, NcclAlgo::Ring) => {
            repeat(chain_edges(&order, false), n - 1, bytes / (n - 1) as f64)
        }
    }
}

/// Every round of a collective's runs, in order: the per-round schedule the
/// runs stand for.
#[cfg(test)]
pub(crate) fn expanded_rounds(
    collective: Collective,
    algo: NcclAlgo,
    group: &GroupExec,
    bytes: f64,
) -> Vec<Round> {
    collective_rounds(collective, algo, group, bytes)
        .into_iter()
        .flat_map(|(round, count)| vec![round; count])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(devices: Vec<usize>) -> GroupExec {
        GroupExec {
            devices,
            input_fraction: 1.0,
        }
    }

    /// Bytes a schedule moves over the transfers matching `pick`.
    fn bytes_over(rounds: &[Round], pick: impl Fn(usize, usize) -> bool) -> f64 {
        rounds
            .iter()
            .map(|r| r.bytes * r.transfers.iter().filter(|&&(s, d)| pick(s, d)).count() as f64)
            .sum()
    }

    #[test]
    fn ring_allreduce_round_structure() {
        let g = group(vec![0, 1, 2, 3]);
        let rounds = expanded_rounds(Collective::AllReduce, NcclAlgo::Ring, &g, 4.0);
        assert_eq!(rounds.len(), 6); // 2 * (4 - 1)
        for round in &rounds {
            assert_eq!(round.transfers.len(), 4);
            assert!((round.bytes - 1.0).abs() < 1e-12);
        }
        // Total bytes leaving device 0: 6 rounds * 1 byte = 2 * (n-1)/n * total.
        let sent = bytes_over(&rounds, |src, _| src == 0);
        assert!((sent - 6.0).abs() < 1e-12);
    }

    #[test]
    fn tree_allreduce_is_reduce_then_broadcast() {
        let g = group(vec![0, 1, 2, 3, 4]);
        let rounds = expanded_rounds(Collective::AllReduce, NcclAlgo::Tree, &g, 8.0);
        assert_eq!(rounds.len(), 6); // ceil(log2 5) = 3 up + 3 down
        assert!(rounds.iter().all(|r| r.bytes == 8.0));
        // The first reduce round pairs neighbours; the final broadcast round
        // mirrors it.
        assert!(rounds[0].transfers.iter().all(|&(src, dst)| dst < src));
        let mirrored: Vec<(usize, usize)> =
            rounds[0].transfers.iter().map(|&(s, d)| (d, s)).collect();
        assert_eq!(rounds[5].transfers, mirrored);
        let total_up = bytes_over(&rounds[..3], |_, _| true);
        let total_down = bytes_over(&rounds[3..], |_, _| true);
        assert!((total_up - total_down).abs() < 1e-12);
    }

    #[test]
    fn reduce_tree_converges_on_root() {
        let g = group(vec![10, 11, 12, 13]);
        let rounds = expanded_rounds(Collective::Reduce, NcclAlgo::Tree, &g, 1.0);
        assert_eq!(rounds.len(), 2);
        // Last round must deliver into the root (device 10).
        assert!(rounds
            .last()
            .unwrap()
            .transfers
            .iter()
            .any(|&(_, d)| d == 10));
        // No transfer ever sends *from* the root in a reduce.
        assert_eq!(bytes_over(&rounds, |src, _| src == 10), 0.0);
    }

    #[test]
    fn broadcast_chain_moves_full_payload_over_each_link() {
        let g = group(vec![0, 1, 2]);
        let rounds = expanded_rounds(Collective::Broadcast, NcclAlgo::Ring, &g, 6.0);
        assert_eq!(rounds.len(), 2);
        let over_first_link = bytes_over(&rounds, |src, dst| src == 0 && dst == 1);
        assert!((over_first_link - 6.0).abs() < 1e-12);
    }

    #[test]
    fn allgather_rounds_carry_per_rank_blocks() {
        let g = group(vec![0, 1, 2, 3]);
        let rounds = expanded_rounds(Collective::AllGather, NcclAlgo::Ring, &g, 2.0);
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().all(|r| (r.bytes - 2.0).abs() < 1e-12));
    }

    #[test]
    fn rings_and_chains_are_one_run_and_trees_one_run_per_level() {
        let g = group(vec![3, 0, 2, 1, 4]);
        for collective in Collective::ALL {
            for algo in NcclAlgo::ALL {
                let counts: Vec<usize> = collective_rounds(collective, algo, &g, 5.0)
                    .iter()
                    .map(|&(_, count)| count)
                    .collect();
                // ceil(log2 5) = 3 tree levels per direction; a ring or a
                // chain repeats one round n - 1 = 4 times per phase.
                let expected = match (collective, algo) {
                    (Collective::AllReduce, NcclAlgo::Tree) => vec![1; 6],
                    (Collective::Reduce | Collective::Broadcast, NcclAlgo::Tree) => vec![1; 3],
                    (Collective::AllReduce, NcclAlgo::Ring) => vec![8],
                    _ => vec![4],
                };
                assert_eq!(counts, expected, "{collective:?} {algo:?}");
            }
        }
    }

    #[test]
    fn trivial_groups_produce_no_rounds() {
        let g = group(vec![5]);
        assert!(expanded_rounds(Collective::AllReduce, NcclAlgo::Ring, &g, 1.0).is_empty());
        let g2 = group(vec![0, 1]);
        assert!(expanded_rounds(Collective::AllReduce, NcclAlgo::Ring, &g2, 0.0).is_empty());
    }
}
