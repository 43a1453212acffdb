use crate::system::{SystemTopology, Uplink};

/// Directional byte loads on the uplinks of one system, summed in a dense
/// array indexed `2 × uplink_index + outbound`.
///
/// Uplinks are full-duplex: the bytes leaving an uplink's subtree and the
/// bytes entering it do not compete, so each direction has its own slot.
/// [`UplinkLoads::add`] routes transfers and adds their bytes;
/// [`UplinkLoads::drain_max`] folds the loaded slots and resets only those,
/// so a round or a group costs in proportion to the uplinks it crosses, not
/// to the size of the system. The cost models and the execution simulator
/// both sum their traffic here.
///
/// # Examples
///
/// ```
/// use p2_topology::{presets, UplinkLoads};
///
/// let system = presets::a100_system(2);
/// let mut loads = UplinkLoads::new(&system);
/// // Two GPUs of different nodes exchange 1 GB each way.
/// loads.add(&[(0, 16), (16, 0)], 1.0e9);
/// let (seconds, latency) =
///     loads.drain_max(|uplink, bytes| bytes / system.link(uplink.level).bandwidth());
/// assert_eq!(seconds, 1.0e9 / system.link(0).bandwidth());
/// assert_eq!(latency, system.link(0).latency());
/// // Draining left nothing behind.
/// assert_eq!(loads.drain_max(|_, bytes| bytes), (0.0, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct UplinkLoads<'a> {
    system: &'a SystemTopology,
    /// Bytes per `(uplink, direction)` slot; zero outside `touched`.
    bytes: Vec<f64>,
    /// Every slot that received bytes since the last drain, with its uplink.
    /// A slot appears more than once only if it received zero bytes first,
    /// which changes neither fold.
    touched: Vec<(usize, Uplink)>,
    /// The largest latency among the links crossed since the last drain.
    latency: f64,
}

impl<'a> UplinkLoads<'a> {
    /// Empty loads on every uplink of `system`.
    pub fn new(system: &'a SystemTopology) -> Self {
        UplinkLoads {
            system,
            bytes: vec![0.0; 2 * system.num_uplinks()],
            touched: Vec::new(),
            latency: 0.0,
        }
    }

    /// Routes every `(src, dst)` transfer through
    /// [`SystemTopology::route`] and adds `bytes` to each crossed uplink in
    /// its direction. Additions land in transfer order, then route order,
    /// so every slot sums its bytes in that order.
    pub fn add(&mut self, transfers: &[(usize, usize)], bytes: f64) {
        let system = self.system;
        for &(src, dst) in transfers {
            for (uplink, outbound) in system.route(src, dst) {
                let slot = 2 * system.uplink_index(uplink) + usize::from(outbound);
                if self.bytes[slot] == 0.0 {
                    self.touched.push((slot, uplink));
                }
                self.bytes[slot] += bytes;
                self.latency = self.latency.max(system.link(uplink.level).latency());
            }
        }
    }

    /// The largest `time(uplink, bytes)` over the loaded `(uplink,
    /// direction)` slots, and the largest latency among the crossed links,
    /// both folded from `0.0` (so `(0.0, 0.0)` when nothing was crossed).
    /// Then empties the loads, resetting only the slots that were touched.
    pub fn drain_max(&mut self, time: impl Fn(Uplink, f64) -> f64) -> (f64, f64) {
        let mut slowest = 0.0_f64;
        for &(slot, uplink) in &self.touched {
            slowest = slowest.max(time(uplink, self.bytes[slot]));
            self.bytes[slot] = 0.0;
        }
        self.touched.clear();
        (slowest, std::mem::take(&mut self.latency))
    }
}
