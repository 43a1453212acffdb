//! NCCL's communication shapes, and the traffic machinery shared by the
//! analytic cost models.
//!
//! The shapes — the order a group is laid out in, its ring and chain edges
//! and its binomial-tree levels — are defined here once. The cost models
//! build per-edge totals and round counts from them; the `p2_exec` substrate
//! builds per-round transfers from the same shapes. The rest of the module
//! is the contention-aware per-uplink aggregation every model's bandwidth
//! term is built from.

use std::collections::HashMap;

use p2_collectives::Collective;
use p2_synthesis::{GroupExec, LoweredStep};
use p2_topology::{SystemTopology, Uplink};

use crate::algo::NcclAlgo;
use crate::model::StepCost;

/// The order NCCL lays `devices` out in for `collective`.
///
/// NCCL builds topology-aware rings, chains and trees that enter and leave
/// every locality domain once; ordering the group by physical rank
/// reproduces that, because ranks enumerate the hierarchy depth-first. The
/// rooted collectives (Reduce and Broadcast) keep their designated root, the
/// group's first device, in front and order the rest by rank. Every other
/// collective, AllReduce included, has no root and uses plain rank order.
pub fn nccl_order(collective: Collective, devices: &[usize]) -> Vec<usize> {
    let mut order = devices.to_vec();
    match collective {
        Collective::Reduce | Collective::Broadcast if !order.is_empty() => {
            order[1..].sort_unstable();
        }
        _ => order.sort_unstable(),
    }
    order
}

/// Ring edges over `order`: every device sends to its successor, the last
/// one to the first.
pub fn ring_edges(order: &[usize]) -> Vec<(usize, usize)> {
    let n = order.len();
    (0..n).map(|i| (order[i], order[(i + 1) % n])).collect()
}

/// Chain edges over `order`, toward (`toward_root`) or away from `order[0]`.
pub fn chain_edges(order: &[usize], toward_root: bool) -> Vec<(usize, usize)> {
    (1..order.len())
        .map(|i| {
            if toward_root {
                (order[i], order[i - 1])
            } else {
                (order[i - 1], order[i])
            }
        })
        .collect()
}

/// The levels of a binomial tree rooted at `order[0]`, one level per
/// communication round: `ceil(log2 n)` levels in all.
///
/// Toward the root (a reduction), level `k` joins the devices `2^k` apart,
/// child → parent, nearest pairs first. Away from the root (a broadcast),
/// the same levels run in reverse order with every edge reversed.
pub fn tree_levels(order: &[usize], toward_root: bool) -> Vec<Vec<(usize, usize)>> {
    let n = order.len();
    let mut levels = Vec::new();
    let mut step = 1usize;
    while step < n {
        let level = (0..n - step)
            .step_by(2 * step)
            .map(|i| {
                if toward_root {
                    (order[i + step], order[i])
                } else {
                    (order[i], order[i + step])
                }
            })
            .collect();
        levels.push(level);
        step *= 2;
    }
    if !toward_root {
        levels.reverse();
    }
    levels
}

/// Edges of the communication pattern of one collective over `devices`, the
/// bytes each edge carries over the whole collective (for a per-participant
/// contribution of `bytes`), and the number of communication rounds.
pub(crate) fn collective_pattern(
    collective: Collective,
    algo: NcclAlgo,
    devices: &[usize],
    bytes: f64,
) -> (Vec<(usize, usize)>, f64, f64) {
    let order = nccl_order(collective, devices);
    let tree = |toward_root| tree_levels(&order, toward_root).concat();
    let n_f = devices.len() as f64;
    match (collective, algo) {
        (Collective::AllReduce, NcclAlgo::Ring) => (
            ring_edges(&order),
            2.0 * (n_f - 1.0) / n_f * bytes,
            2.0 * (n_f - 1.0),
        ),
        (Collective::ReduceScatter, _) => {
            (ring_edges(&order), (n_f - 1.0) / n_f * bytes, n_f - 1.0)
        }
        (Collective::AllGather, _) => (ring_edges(&order), (n_f - 1.0) * bytes, n_f - 1.0),
        (Collective::AllReduce, NcclAlgo::Tree) => (
            [tree(true), tree(false)].concat(),
            bytes,
            2.0 * n_f.log2().ceil(),
        ),
        (Collective::Reduce, NcclAlgo::Tree) => (tree(true), bytes, n_f.log2().ceil()),
        (Collective::Broadcast, NcclAlgo::Tree) => (tree(false), bytes, n_f.log2().ceil()),
        (Collective::Reduce, NcclAlgo::Ring) => (chain_edges(&order, true), bytes, n_f - 1.0),
        (Collective::Broadcast, NcclAlgo::Ring) => (chain_edges(&order, false), bytes, n_f - 1.0),
    }
}

/// The physically-derived terms of one group's collective, before a model
/// turns them into seconds: the contention-inflated bandwidth time, the wire
/// latency of the slowest crossed link, and the algorithm's round count.
pub(crate) struct GroupTerms {
    /// Max over uplinks of `bytes_through × contention / bandwidth`.
    pub bandwidth_seconds: f64,
    /// The largest per-message latency among the crossed links.
    pub wire_latency: f64,
    /// Number of communication rounds of the collective's algorithm.
    pub rounds: f64,
}

/// Aggregates one group's traffic through the system's uplinks, inflated by
/// the step-wide `usage` contention counts — the machinery every analytic
/// model shares; each model only decides how to combine the returned terms.
/// Returns `None` for trivial groups (fewer than two devices, or crossing no
/// uplink), which cost nothing.
pub(crate) fn group_traffic_terms(
    system: &SystemTopology,
    collective: Collective,
    algo: NcclAlgo,
    group: &GroupExec,
    uplinks: &[Uplink],
    usage: &HashMap<Uplink, usize>,
    bytes: f64,
) -> Option<GroupTerms> {
    if group.devices.len() < 2 || uplinks.is_empty() {
        return None;
    }
    let (edges, bytes_per_edge, rounds) =
        collective_pattern(collective, algo, &group.devices, bytes);
    // Directional traffic through every uplink (uplinks are full-duplex:
    // inbound and outbound bytes do not compete with each other).
    let mut traffic: HashMap<(Uplink, bool), f64> = HashMap::new();
    let mut wire_latency = 0.0_f64;
    for &(src, dst) in &edges {
        for (uplink, outbound) in system.route(src, dst) {
            *traffic.entry((uplink, outbound)).or_insert(0.0) += bytes_per_edge;
            wire_latency = wire_latency.max(system.link(uplink.level).latency());
        }
    }
    let bandwidth_seconds = traffic
        .iter()
        .map(|(&(uplink, _), &bytes_through)| {
            let contention = *usage.get(&uplink).unwrap_or(&1) as f64;
            bytes_through * contention / system.link(uplink.level).bandwidth()
        })
        .fold(0.0, f64::max);
    Some(GroupTerms {
        bandwidth_seconds,
        wire_latency,
        rounds,
    })
}

/// The per-step scaffold shared by the analytic models: count each uplink's
/// concurrent users across the step's groups, hand every group (with its
/// uplinks and the usage map) to `group_time`, and take the slowest group as
/// the step time.
pub(crate) fn step_cost_with<F>(
    system: &SystemTopology,
    step: &LoweredStep,
    group_time: F,
) -> StepCost
where
    F: Fn(&GroupExec, &[Uplink], &HashMap<Uplink, usize>) -> f64,
{
    let mut usage: HashMap<Uplink, usize> = HashMap::new();
    let group_uplinks: Vec<Vec<Uplink>> = step
        .groups
        .iter()
        .map(|g| system.used_uplinks(&g.devices))
        .collect();
    for uplinks in &group_uplinks {
        for &u in uplinks {
            *usage.entry(u).or_insert(0) += 1;
        }
    }
    let group_seconds: Vec<f64> = step
        .groups
        .iter()
        .zip(&group_uplinks)
        .map(|(group, uplinks)| group_time(group, uplinks, &usage))
        .collect();
    let seconds = group_seconds.iter().copied().fold(0.0, f64::max);
    StepCost {
        collective: step.collective,
        seconds,
        group_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_covers_every_device_once() {
        let order = nccl_order(Collective::AllGather, &[5, 1, 3]);
        assert_eq!(ring_edges(&order), vec![(1, 3), (3, 5), (5, 1)]);
    }

    #[test]
    fn rooted_orders_keep_the_root_first() {
        let order = nccl_order(Collective::Reduce, &[4, 9, 2]);
        assert_eq!(order, vec![4, 2, 9]);
        assert_eq!(chain_edges(&order, true), vec![(2, 4), (9, 2)]);
        assert_eq!(chain_edges(&order, false), vec![(4, 2), (2, 9)]);
        assert_eq!(tree_levels(&order, true), vec![vec![(2, 4)], vec![(9, 4)]]);
        assert_eq!(tree_levels(&order, false), vec![vec![(4, 9)], vec![(4, 2)]]);
        assert_eq!(nccl_order(Collective::AllReduce, &[4, 9, 2]), vec![2, 4, 9]);
    }

    #[test]
    fn tree_allreduce_edges_are_bidirectional() {
        let (edges, _, rounds) =
            collective_pattern(Collective::AllReduce, NcclAlgo::Tree, &[0, 1, 2, 3], 1.0);
        assert_eq!(edges.len(), 6); // 3 tree edges, both directions.
        assert_eq!(rounds, 4.0); // 2 * ceil(log2 4).
    }
}
