//! NCCL's communication shapes, and the traffic machinery shared by the
//! analytic cost models.
//!
//! The shapes — the order a group is laid out in, its ring and chain edges
//! and its binomial-tree levels — are defined here once. The cost models
//! build per-edge totals and round counts from them; the `p2_exec` substrate
//! builds per-round transfers from the same shapes. The rest of the module
//! is the contention-aware per-uplink aggregation every model's bandwidth
//! term is built from. It is dense: a step counts each uplink's concurrent
//! groups in an array indexed by [`SystemTopology::uplink_index`], and sums
//! each group's directional traffic in one reused [`UplinkLoads`], so a
//! group costs in proportion to the uplinks it crosses.

use p2_collectives::Collective;
use p2_synthesis::LoweredStep;
use p2_topology::{SystemTopology, Uplink, UplinkLoads};

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
/// the step-wide contention counts `usage` (indexed by
/// [`SystemTopology::uplink_index`]) — the machinery every analytic model
/// shares. `loads` is the step's empty scratch and is left empty.
pub(crate) fn group_traffic_terms(
    system: &SystemTopology,
    collective: Collective,
    algo: NcclAlgo,
    devices: &[usize],
    usage: &[usize],
    loads: &mut UplinkLoads,
    bytes: f64,
) -> GroupTerms {
    let (edges, bytes_per_edge, rounds) = collective_pattern(collective, algo, devices, bytes);
    // One addition of `bytes_per_edge` per crossing, in edge order.
    loads.add(&edges, bytes_per_edge);
    let (bandwidth_seconds, wire_latency) = loads.drain_max(|uplink, bytes_through| {
        // A crossed uplink is one of the group's own, so its count
        // includes this group.
        let contention = usage[system.uplink_index(uplink)] as f64;
        bytes_through * contention / system.link(uplink.level).bandwidth()
    });
    GroupTerms {
        bandwidth_seconds,
        wire_latency,
        rounds,
    }
}

/// The per-step scaffold shared by the analytic models: count each uplink's
/// concurrent users across the step's groups, turn every group's traffic
/// ([`group_traffic_terms`], for its share `bytes_per_device ×
/// input_fraction`) into seconds with `group_time`, and take the slowest
/// group as the step time. Groups crossing no uplink (fewer than two
/// distinct devices) take `0.0`.
pub(crate) fn step_cost_with(
    system: &SystemTopology,
    step: &LoweredStep,
    algo: NcclAlgo,
    bytes_per_device: f64,
    group_time: impl Fn(&GroupTerms) -> f64,
) -> StepCost {
    let mut usage = vec![0usize; system.num_uplinks()];
    let group_uplinks: Vec<Vec<Uplink>> = step
        .groups
        .iter()
        .map(|g| system.used_uplinks(&g.devices))
        .collect();
    for &uplink in group_uplinks.iter().flatten() {
        usage[system.uplink_index(uplink)] += 1;
    }
    let mut loads = UplinkLoads::new(system);
    let group_seconds: Vec<f64> = step
        .groups
        .iter()
        .zip(&group_uplinks)
        .map(|(group, uplinks)| {
            if uplinks.is_empty() {
                return 0.0;
            }
            let bytes = bytes_per_device * group.input_fraction;
            let terms = group_traffic_terms(
                system,
                step.collective,
                algo,
                &group.devices,
                &usage,
                &mut loads,
                bytes,
            );
            group_time(&terms)
        })
        .collect();
    let seconds = group_seconds.iter().copied().fold(0.0, f64::max);
    StepCost {
        collective: step.collective,
        seconds,
        group_seconds,
    }
}

/// The traffic machinery before dense uplink ids, kept as the oracle the
/// dense one is pinned against: per-group traffic and per-step usage counts
/// in `HashMap`s.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::HashMap;

    use p2_synthesis::GroupExec;

    use super::*;

    fn group_traffic_terms(
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

    /// [`super::step_cost_with`] over the map-based traffic machinery.
    pub(crate) fn step_cost_with(
        system: &SystemTopology,
        step: &LoweredStep,
        algo: NcclAlgo,
        bytes_per_device: f64,
        group_time: impl Fn(&GroupTerms) -> f64,
    ) -> StepCost {
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
            .map(|(group, uplinks)| {
                let bytes = bytes_per_device * group.input_fraction;
                group_traffic_terms(system, step.collective, algo, group, uplinks, &usage, bytes)
                    .map_or(0.0, |terms| group_time(&terms))
            })
            .collect();
        let seconds = group_seconds.iter().copied().fold(0.0, f64::max);
        StepCost {
            collective: step.collective,
            seconds,
            group_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use p2_synthesis::GroupExec;

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
    fn dense_traffic_matches_the_map_oracle_bit_for_bit() {
        use std::sync::Arc;

        use p2_topology::presets::*;

        use crate::{AlphaBetaModel, CalibratedModel, CostModel, LogGpModel};

        // SplitMix64: a fixed stream of random steps.
        let mut state = 0x0dd5_u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let systems = [
            a100_system(2),
            a100_system(4),
            v100_system(2),
            rack_node_gpu_system(2, 2, 4),
            rack_node_gpu_system_oversubscribed(2, 2, 4, 4.0),
            figure2a_system(),
        ];
        let bytes = 1.0e9;
        let same = |got: &StepCost, want: &StepCost, what: &str| {
            assert_eq!(got.seconds.to_bits(), want.seconds.to_bits(), "{what}");
            let bits = |c: &StepCost| c.group_seconds.iter().map(|s| s.to_bits()).collect();
            let (got_bits, want_bits): (Vec<u64>, Vec<u64>) = (bits(got), bits(want));
            assert_eq!(got_bits, want_bits, "{what}");
        };
        for sys in &systems {
            let n = sys.num_devices();
            let depth = sys.hierarchy().depth();
            let scales: Vec<f64> = (0..depth).map(|l| 0.5 + 0.75 * l as f64).collect();
            for algo in NcclAlgo::ALL {
                let alpha_beta = AlphaBetaModel::new(sys.clone(), algo, bytes).unwrap();
                let loggp = LogGpModel::new(sys.clone(), algo, bytes).unwrap();
                let calibrated =
                    CalibratedModel::new(Arc::new(alpha_beta.clone()), scales.clone()).unwrap();
                for _ in 0..60 {
                    // Up to five concurrent groups of unequal sizes, unsorted,
                    // possibly overlapping or a lone device, some carrying
                    // nothing.
                    let groups = (0..1 + next(5))
                        .map(|_| {
                            let max_len = if next(3) == 0 { n } else { 5 };
                            GroupExec {
                                devices: (0..1 + next(max_len)).map(|_| next(n)).collect(),
                                input_fraction: [0.0, 0.125, 0.5, 1.0][next(4)],
                            }
                        })
                        .collect();
                    let step = LoweredStep {
                        collective: Collective::ALL[next(5)],
                        groups,
                    };
                    let what = format!("{} {algo:?} {step:?}", sys.name());
                    let oracle = |time: &dyn Fn(&GroupTerms) -> f64| {
                        oracle::step_cost_with(sys, &step, algo, bytes, time)
                    };
                    let expected = oracle(&|t| alpha_beta.group_seconds(t));
                    same(&alpha_beta.step_cost(&step), &expected, &what);
                    same(
                        &loggp.step_cost(&step),
                        &oracle(&|t| loggp.group_seconds(t)),
                        &what,
                    );
                    // The calibrated model scales each group by the level of
                    // its outermost crossed uplink.
                    let group_seconds: Vec<f64> = step
                        .groups
                        .iter()
                        .zip(&expected.group_seconds)
                        .map(|(g, &seconds)| {
                            let outermost = sys.used_uplinks(&g.devices).first().map(|u| u.level);
                            seconds * outermost.map_or(1.0, |level| scales[level])
                        })
                        .collect();
                    let scaled = StepCost {
                        collective: step.collective,
                        seconds: group_seconds.iter().copied().fold(0.0, f64::max),
                        group_seconds,
                    };
                    same(&calibrated.step_cost(&step), &scaled, &what);
                }
            }
        }
    }

    #[test]
    fn tree_allreduce_edges_are_bidirectional() {
        let (edges, _, rounds) =
            collective_pattern(Collective::AllReduce, NcclAlgo::Tree, &[0, 1, 2, 3], 1.0);
        assert_eq!(edges.len(), 6); // 3 tree edges, both directions.
        assert_eq!(rounds, 4.0); // 2 * ceil(log2 4).
    }
}
