use std::collections::BTreeSet;

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
        Ok(SystemTopology {
            hierarchy,
            links,
            name: "custom".to_string(),
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
        self.hierarchy.arities()[..=level].iter().product()
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
        if group.len() < 2 {
            return Vec::new();
        }
        let depth = self.hierarchy.depth();
        let mut used = BTreeSet::new();
        // For every level, bucket the group's members by ancestor instance.
        for level in 0..depth {
            let mut instances = BTreeSet::new();
            for &d in group {
                if d >= self.num_devices() {
                    continue;
                }
                if let Ok(inst) = self.ancestor_instance(d, level) {
                    instances.insert(inst);
                }
            }
            // If the group occupies more than one instance at this level, then
            // each occupied instance's uplink carries traffic (members inside
            // it must talk to members outside it). We additionally require
            // that the instances share a parent *or not*: either way the
            // traffic leaves the subtree through the uplink, so the rule is
            // simply "more than one occupied instance at this level".
            if instances.len() > 1 {
                for inst in instances {
                    used.insert(Uplink {
                        level,
                        instance: inst,
                    });
                }
            }
        }
        used.into_iter().collect()
    }

    /// The outermost level at which the members of `group` differ, or `None`
    /// when the group has fewer than two distinct devices.
    ///
    /// This is the level of the slowest interconnect the group must cross.
    pub fn span_level(&self, group: &[usize]) -> Option<usize> {
        let uplinks = self.used_uplinks(group);
        uplinks.first().map(|u| u.level)
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
