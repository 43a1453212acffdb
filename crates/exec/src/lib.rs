//! Discrete-event execution simulator — the measurement substrate of this
//! reproduction.
//!
//! The paper evaluates synthesized reduction programs by compiling them to
//! NCCL calls and running them on GCP A100/V100 clusters. This crate replaces
//! that testbed with a chunk-level network simulator: every collective call is
//! expanded into the rounds of point-to-point transfers its NCCL algorithm
//! (ring or tree) would perform, rounds of concurrently-communicating groups
//! share uplink bandwidth fairly, and a small seeded noise plus per-step launch
//! overhead model the measurement variation of a real cluster. Because the
//! mechanism that drives the paper's results — which interconnects a device
//! group spans and how many groups contend for the same NIC — is modelled
//! explicitly, the *relative* behaviour of placements and programs matches the
//! paper even though absolute seconds differ (see DESIGN.md, substitution
//! table).
//!
//! The analytic model in [`p2_cost`] plays the role of the paper's simulator;
//! this crate plays the role of the paper's measurements. The two share one
//! traffic model: the rounds are built from NCCL's ring, chain and tree shapes
//! in [`p2_cost::patterns`], every transfer crosses the uplinks
//! [`p2_topology::SystemTopology::route`] names, and the loads are summed per
//! uplink and direction in a dense [`p2_topology::UplinkLoads`]. Only the byte
//! and time formulas are the substrate's own.
//!
//! A collective's rounds come as runs of identical rounds (a ring's 2(n−1)
//! rounds are one run), and the simulator times each run of rounds that the
//! concurrent groups share once, then adds that time once per round. A step
//! therefore costs in proportion to its distinct rounds and the uplinks they
//! cross, and its time has the same bits as a round-by-round simulation.
//!
//! # Example
//!
//! ```
//! use p2_exec::{ExecConfig, Executor};
//! use p2_cost::NcclAlgo;
//! use p2_placement::ParallelismMatrix;
//! use p2_synthesis::baseline_allreduce;
//! use p2_topology::presets;
//!
//! let system = presets::a100_system(2);
//! let matrix = ParallelismMatrix::new(vec![vec![2, 16]], vec![2, 16], vec![32]).unwrap();
//! let program = baseline_allreduce(&matrix, &[0]).unwrap();
//! let exec = Executor::new(&system, ExecConfig::new(NcclAlgo::Ring, 1.0e9)).unwrap();
//! let seconds = exec.measure(&program);
//! assert!(seconds > 0.0);
//! ```

#![deny(missing_docs)]

mod config;
mod error;
mod executor;
mod rng;
mod schedule;

pub use config::ExecConfig;
pub use error::ExecError;
pub use executor::Executor;
