//! Hierarchical system and interconnect models for the P² reproduction.
//!
//! A *system* (paper §2) consists of a hardware [`Hierarchy`] — an ordered
//! list of named levels with cardinalities, e.g. `[(rack, 1), (server, 2),
//! (CPU, 2), (GPU, 4)]` — and a set of switched interconnects. This crate
//! models one interconnect per hierarchy level (the switch that connects the
//! children of every instance of the level above), which matches all the
//! systems evaluated in the paper, and exposes the *uplink* abstraction: the
//! port that connects an instance of a level to the switch above it.
//!
//! Devices are ranked row-major with level 0 most significant, so a device's
//! ancestor at any level is plain division
//! ([`SystemTopology::ancestor_instance`]). [`SystemTopology::route`] is the
//! one routing rule: the uplinks a point-to-point transfer crosses, and in
//! which direction. Uplinks have dense ids
//! ([`SystemTopology::uplink_index`]), and [`UplinkLoads`] sums routed
//! bytes per uplink and direction in a plain array indexed by them. The cost
//! models and the execution simulator both route and sum every transfer
//! through these.
//!
//! # Example
//!
//! ```
//! use p2_topology::{presets, Uplink};
//!
//! let system = presets::a100_system(4);
//! assert_eq!(system.hierarchy().num_devices(), 64);
//! // Two GPUs in different nodes communicate through the node NICs: the
//! // transfer leaves node 0 and enters node 1.
//! let nic = |instance| Uplink { level: 0, instance };
//! let hops: Vec<_> = system.route(0, 16).filter(|(u, _)| u.level == 0).collect();
//! assert_eq!(hops, [(nic(0), true), (nic(1), false)]);
//! ```

#![deny(missing_docs)]

mod error;
mod hierarchy;
mod interconnect;
mod loads;
pub mod presets;
mod system;

pub use error::TopologyError;
pub use hierarchy::{Hierarchy, Level};
pub use interconnect::Interconnect;
pub use loads::UplinkLoads;
pub use system::{SystemTopology, Uplink};

/// Convenience constant: one gigabyte per second, in bytes per second.
pub const GB_PER_S: f64 = 1.0e9;

/// Convenience constant: one microsecond, in seconds.
pub const MICROSECOND: f64 = 1.0e-6;
