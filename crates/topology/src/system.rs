use crate::error::TopologyError;
use crate::hierarchy::Hierarchy;
use crate::interconnect::Interconnect;

/// An uplink: the port connecting one instance of a hierarchy level to the
/// switch of its parent.
///
/// `level` indexes the hierarchy (0 = outermost) and `instance` is the rank of
/// the level-`level` instance among all instances of that level (row-major,
/// outermost level most significant). All traffic that leaves or enters the
/// subtree rooted at that instance flows through its uplink, which has the
/// bandwidth of the interconnect at `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uplink {
    /// Hierarchy level of the instance that owns this uplink.
    pub level: usize,
    /// Rank of the instance among all instances of its level.
    pub instance: usize,
}

/// A complete system: a hardware hierarchy plus one interconnect per level.
///
/// `links[l]` is the interconnect whose switch connects the level-`l`
/// instances that share a parent; its bandwidth is the per-uplink bandwidth of
/// every level-`l` instance.
///
/// # Examples
///
/// ```
/// use p2_topology::{Hierarchy, Interconnect, SystemTopology};
/// let hierarchy = Hierarchy::from_pairs([("node", 2), ("gpu", 16)])?;
/// let links = vec![
///     Interconnect::new("NIC", 8.0e9, 10.0e-6)?,
///     Interconnect::new("NVSwitch", 270.0e9, 2.0e-6)?,
/// ];
/// let system = SystemTopology::new(hierarchy, links)?;
/// assert_eq!(system.num_devices(), 32);
/// # Ok::<(), p2_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemTopology {
    hierarchy: Hierarchy,
    links: Vec<Interconnect>,
    name: String,
    /// `uplink_offsets[l]` is the dense id of the first level-`l` uplink: the
    /// prefix sums of [`SystemTopology::instances_at_level`], with the total
    /// uplink count last. Derived from `hierarchy` once, in `new`.
    uplink_offsets: Vec<usize>,
}

impl SystemTopology {
    /// Creates a system from a hierarchy and one interconnect per level.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::LinkCountMismatch`] when the number of
    /// interconnects differs from the number of levels.
    pub fn new(hierarchy: Hierarchy, links: Vec<Interconnect>) -> Result<Self, TopologyError> {
        if hierarchy.depth() != links.len() {
            return Err(TopologyError::LinkCountMismatch {
                levels: hierarchy.depth(),
                links: links.len(),
            });
        }
        let mut uplink_offsets = vec![0];
        let (mut instances, mut uplinks) = (1, 0);
        for level in hierarchy.levels() {
            instances *= level.arity();
            uplinks += instances;
            uplink_offsets.push(uplinks);
        }
        Ok(SystemTopology {
            hierarchy,
            links,
            name: "custom".to_string(),
            uplink_offsets,
        })
    }

    /// Creates a named system (used by the presets).
    ///
    /// # Errors
    ///
    /// Same as [`SystemTopology::new`].
    pub fn with_name(
        name: impl Into<String>,
        hierarchy: Hierarchy,
        links: Vec<Interconnect>,
    ) -> Result<Self, TopologyError> {
        let mut sys = SystemTopology::new(hierarchy, links)?;
        sys.name = name.into();
        Ok(sys)
    }

    /// A short descriptive name of the system (e.g. `"a100-4node"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hardware hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The per-level interconnects, outermost first.
    pub fn links(&self) -> &[Interconnect] {
        &self.links
    }

    /// The interconnect at a specific level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn link(&self, level: usize) -> &Interconnect {
        &self.links[level]
    }

    /// Total number of devices in the system.
    pub fn num_devices(&self) -> usize {
        self.hierarchy.num_devices()
    }

    /// Number of instances of a given level across the whole system
    /// (the product of the cardinalities of levels `0..=level`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn instances_at_level(&self, level: usize) -> usize {
        self.uplink_offsets[level + 1] - self.uplink_offsets[level]
    }

    /// Total number of uplinks: one per instance of every level, the sum of
    /// [`SystemTopology::instances_at_level`] over all levels.
    pub fn num_uplinks(&self) -> usize {
        self.uplink_offsets[self.hierarchy.depth()]
    }

    /// The dense id of an uplink of this system, in `0..num_uplinks()`: the
    /// number of uplinks at the levels above `uplink.level`, plus its
    /// instance. Ids follow the `(level, instance)` order, so per-uplink
    /// values can live in a plain array instead of a map.
    ///
    /// `uplink.instance` must be below
    /// [`SystemTopology::instances_at_level`]`(uplink.level)` (checked in
    /// debug builds only).
    ///
    /// # Panics
    ///
    /// Panics if `uplink.level` is out of range.
    pub fn uplink_index(&self, uplink: Uplink) -> usize {
        let first = self.uplink_offsets[uplink.level];
        debug_assert!(first + uplink.instance < self.uplink_offsets[uplink.level + 1]);
        first + uplink.instance
    }

    /// Rank (among all instances of its level) of the ancestor of `device` at
    /// `level`: `device` divided by the number of devices in one instance of
    /// `level`, because ranks are row-major with level 0 most significant.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DeviceOutOfRange`] if `device` is out of
    /// range.
    pub fn ancestor_instance(&self, device: usize, level: usize) -> Result<usize, TopologyError> {
        let num_devices = self.num_devices();
        if device >= num_devices {
            return Err(TopologyError::DeviceOutOfRange {
                rank: device,
                num_devices,
            });
        }
        let below: usize = self
            .hierarchy
            .levels()
            .iter()
            .skip(level + 1)
            .map(|l| l.arity())
            .product();
        Ok(device / below)
    }

    /// The uplinks a point-to-point transfer from `src` to `dst` crosses, each
    /// paired with its direction: `true` for the sender's side (the traffic
    /// leaves the uplink's subtree), `false` for the receiver's.
    ///
    /// From the outermost level at which the two devices' ancestors differ
    /// down to the devices themselves, the transfer leaves through the
    /// sender's ancestor uplink and enters through the receiver's. As a set
    /// this is [`SystemTopology::used_uplinks`]`(&[src, dst])`. Nothing is
    /// crossed when `src == dst` or either device is out of range. The
    /// iterator allocates nothing.
    pub fn route(&self, src: usize, dst: usize) -> impl Iterator<Item = (Uplink, bool)> + '_ {
        let num_devices = self.num_devices();
        // Equal or out-of-range devices cross no level.
        let levels = if src != dst && src < num_devices && dst < num_devices {
            self.hierarchy.depth()
        } else {
            0
        };
        // Devices per instance of the current level.
        let mut span = num_devices;
        self.hierarchy
            .levels()
            .iter()
            .take(levels)
            .enumerate()
            .flat_map(move |(level, l)| {
                span /= l.arity();
                let (from, to) = (src / span, dst / span);
                let uplink = |instance| Uplink { level, instance };
                let hops = [(uplink(from), true), (uplink(to), false)];
                (from != to).then_some(hops).into_iter().flatten()
            })
    }

    /// The set of uplinks used when the devices of `group` communicate with
    /// each other through the switched hierarchy.
    ///
    /// An uplink `(level, instance)` is used exactly when the group contains a
    /// device inside the instance's subtree and a device outside it, because
    /// any such traffic must cross that port. The result is sorted and free of
    /// duplicates.
    ///
    /// Groups with fewer than two devices use no uplinks. Device ranks outside
    /// the system are ignored by this method (callers validate ranks when the
    /// groups are built).
    pub fn used_uplinks(&self, group: &[usize]) -> Vec<Uplink> {
        let num_devices = self.num_devices();
        let mut used = Vec::new();
        if group.len() < 2 {
            return used;
        }
        // A device's ancestor is its rank divided by the devices per
        // instance, which is monotone in the rank: with the members sorted,
        // every level's ancestors come out sorted, and deduplicating them
        // leaves the occupied instances in order.
        let mut members: Vec<usize> = group.iter().copied().filter(|&d| d < num_devices).collect();
        members.sort_unstable();
        let mut instances = Vec::with_capacity(members.len());
        // Devices per instance of the current level.
        let mut span = num_devices;
        for (level, l) in self.hierarchy.levels().iter().enumerate() {
            span /= l.arity();
            instances.clear();
            instances.extend(members.iter().map(|&d| d / span));
            instances.dedup();
            // Members in more than one instance at this level must talk
            // across it, so every occupied instance's uplink carries traffic.
            if instances.len() > 1 {
                used.extend(instances.iter().map(|&instance| Uplink { level, instance }));
            }
        }
        used
    }

    /// The outermost level at which the members of `group` differ, or `None`
    /// when the group has fewer than two distinct devices. Devices outside
    /// the system are ignored, as in [`SystemTopology::used_uplinks`], whose
    /// first uplink is at this level. Allocates nothing.
    ///
    /// This is the level of the slowest interconnect the group must cross.
    pub fn span_level(&self, group: &[usize]) -> Option<usize> {
        let num_devices = self.num_devices();
        let mut members = group.iter().copied().filter(|&d| d < num_devices);
        let first = members.next()?;
        // Ancestors are monotone in the rank, so the members differ at a
        // level exactly when the lowest and the highest do.
        let (low, high) = members.fold((first, first), |(lo, hi), d| (lo.min(d), hi.max(d)));
        let mut span = num_devices;
        self.hierarchy.levels().iter().position(|l| {
            span /= l.arity();
            low / span != high / span
        })
    }

    /// The bandwidth (bytes/s) of the slowest interconnect spanned by `group`,
    /// ignoring contention, or `None` for trivial groups.
    pub fn bottleneck_bandwidth(&self, group: &[usize]) -> Option<f64> {
        self.span_level(group).map(|l| self.links[l].bandwidth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hierarchy;

    fn two_by_four() -> SystemTopology {
        let h = Hierarchy::from_pairs([("node", 2), ("gpu", 4)]).unwrap();
        let links = vec![
            Interconnect::new("NIC", 8.0e9, 10.0e-6).unwrap(),
            Interconnect::new("NVLink", 135.0e9, 2.0e-6).unwrap(),
        ];
        SystemTopology::new(h, links).unwrap()
    }

    #[test]
    fn link_count_mismatch_rejected() {
        let h = Hierarchy::from_pairs([("node", 2), ("gpu", 4)]).unwrap();
        let links = vec![Interconnect::new("NIC", 8.0e9, 1e-6).unwrap()];
        assert!(matches!(
            SystemTopology::new(h, links),
            Err(TopologyError::LinkCountMismatch {
                levels: 2,
                links: 1
            })
        ));
    }

    #[test]
    fn ancestor_instances() {
        let sys = two_by_four();
        assert_eq!(sys.ancestor_instance(0, 0).unwrap(), 0);
        assert_eq!(sys.ancestor_instance(5, 0).unwrap(), 1);
        assert_eq!(sys.ancestor_instance(5, 1).unwrap(), 5);
        assert_eq!(
            sys.ancestor_instance(8, 0),
            Err(TopologyError::DeviceOutOfRange {
                rank: 8,
                num_devices: 8
            })
        );
        assert_eq!(sys.instances_at_level(0), 2);
        assert_eq!(sys.instances_at_level(1), 8);
    }

    #[test]
    fn route_is_used_uplinks_directed_by_the_sender_on_every_preset() {
        use crate::presets::*;
        let systems = [
            a100_system(1),
            a100_system(4),
            v100_system(2),
            v100_pcie_system(2),
            rack_node_gpu_system(2, 2, 4),
            rack_node_gpu_system_oversubscribed(2, 2, 4, 4.0),
            figure2a_system(),
        ];
        for sys in &systems {
            let n = sys.num_devices();
            let arities = sys.hierarchy().arities();
            // Ranks are row-major with level 0 most significant.
            for level in 0..arities.len() {
                let below: usize = arities[level + 1..].iter().product();
                for device in 0..n {
                    assert_eq!(sys.ancestor_instance(device, level), Ok(device / below));
                }
            }
            for src in 0..=n {
                for dst in 0..=n {
                    let route: Vec<(Uplink, bool)> = sys.route(src, dst).collect();
                    if src == dst || src == n || dst == n {
                        assert!(route.is_empty(), "{}: {src} -> {dst}", sys.name());
                    }
                    let mut uplinks: Vec<Uplink> = route.iter().map(|&(u, _)| u).collect();
                    uplinks.sort_unstable();
                    assert_eq!(
                        uplinks,
                        sys.used_uplinks(&[src, dst]),
                        "{}: {src} -> {dst}",
                        sys.name()
                    );
                    for (uplink, outbound) in route {
                        let sender = sys.ancestor_instance(src, uplink.level);
                        assert_eq!(outbound, sender == Ok(uplink.instance));
                    }
                }
            }
        }
    }

    /// Every preset, including ones with a single-instance level.
    fn all_presets() -> Vec<SystemTopology> {
        use crate::presets::*;
        vec![
            a100_system(1),
            a100_system(2),
            a100_system(4),
            v100_system(2),
            v100_pcie_system(2),
            rack_node_gpu_system(2, 2, 4),
            rack_node_gpu_system_oversubscribed(2, 2, 4, 4.0),
            figure2a_system(),
        ]
    }

    /// `used_uplinks` as it was written before dense ids: one `BTreeSet` of
    /// occupied instances per level.
    fn used_uplinks_oracle(sys: &SystemTopology, group: &[usize]) -> Vec<Uplink> {
        use std::collections::BTreeSet;
        if group.len() < 2 {
            return Vec::new();
        }
        let mut used = BTreeSet::new();
        for level in 0..sys.hierarchy().depth() {
            let instances: BTreeSet<usize> = group
                .iter()
                .filter_map(|&d| sys.ancestor_instance(d, level).ok())
                .collect();
            if instances.len() > 1 {
                used.extend(
                    instances
                        .into_iter()
                        .map(|instance| Uplink { level, instance }),
                );
            }
        }
        used.into_iter().collect()
    }

    #[test]
    fn used_uplinks_and_span_level_match_a_btreeset_oracle_on_every_preset() {
        // SplitMix64: a fixed stream of random groups.
        let mut state = 0x5eed_u64;
        let mut next = move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for sys in &all_presets() {
            let n = sys.num_devices();
            let mut groups: Vec<Vec<usize>> = vec![(0..n).collect(), (0..n).rev().collect()];
            for _ in 0..400 {
                // Small and large groups, unsorted, with duplicates and a
                // few devices beyond the system.
                let max_len = if next(4) == 0 { n + 4 } else { 6 };
                let len = next(max_len);
                groups.push((0..len).map(|_| next(n + 3)).collect());
            }
            for group in &groups {
                let expected = used_uplinks_oracle(sys, group);
                assert_eq!(
                    sys.used_uplinks(group),
                    expected,
                    "{}: {group:?}",
                    sys.name()
                );
                assert_eq!(
                    sys.span_level(group),
                    expected.first().map(|u| u.level),
                    "{}: {group:?}",
                    sys.name()
                );
            }
        }
    }

    #[test]
    fn uplink_index_is_a_bijection_onto_its_range() {
        for sys in &all_presets() {
            let mut seen = vec![false; sys.num_uplinks()];
            for level in 0..sys.hierarchy().depth() {
                for instance in 0..sys.instances_at_level(level) {
                    let index = sys.uplink_index(Uplink { level, instance });
                    assert!(!std::mem::replace(&mut seen[index], true), "{}", sys.name());
                }
            }
            assert!(seen.iter().all(|&hit| hit), "{}", sys.name());
        }
    }

    #[test]
    fn intra_node_group_uses_only_gpu_uplinks() {
        let sys = two_by_four();
        let uplinks = sys.used_uplinks(&[0, 1, 2]);
        assert!(uplinks.iter().all(|u| u.level == 1));
        assert_eq!(uplinks.len(), 3);
        assert_eq!(sys.span_level(&[0, 1, 2]), Some(1));
        assert_eq!(sys.bottleneck_bandwidth(&[0, 1]), Some(135.0e9));
    }

    #[test]
    fn cross_node_group_uses_nics_and_gpu_uplinks() {
        let sys = two_by_four();
        let uplinks = sys.used_uplinks(&[0, 4]);
        assert!(uplinks.contains(&Uplink {
            level: 0,
            instance: 0
        }));
        assert!(uplinks.contains(&Uplink {
            level: 0,
            instance: 1
        }));
        assert!(uplinks.contains(&Uplink {
            level: 1,
            instance: 0
        }));
        assert!(uplinks.contains(&Uplink {
            level: 1,
            instance: 4
        }));
        assert_eq!(sys.span_level(&[0, 4]), Some(0));
        assert_eq!(sys.bottleneck_bandwidth(&[0, 4]), Some(8.0e9));
    }

    #[test]
    fn trivial_groups_use_nothing() {
        let sys = two_by_four();
        assert!(sys.used_uplinks(&[3]).is_empty());
        assert!(sys.used_uplinks(&[]).is_empty());
        assert_eq!(sys.span_level(&[3]), None);
    }

    #[test]
    fn same_device_twice_uses_nothing() {
        let sys = two_by_four();
        assert!(sys.used_uplinks(&[3, 3]).is_empty());
    }
}
