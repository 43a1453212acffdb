//! The analytic, interconnect-aware cost layer — the paper's simulator (§5),
//! behind a pluggable [`CostModel`] trait.
//!
//! Given a [`p2_topology::SystemTopology`] and a lowered reduction program, a
//! cost model predicts the program's end-to-end communication time. Every
//! model is aware of the different bandwidths of the interconnects a device
//! group spans (NVLink/NVSwitch vs. NIC and data-centre network) and of the
//! *contention* between device groups that communicate concurrently through
//! the same uplink, which is what makes parallelism placement matter so much
//! (paper Result 1: up to 448× between placements).
//!
//! The built-in implementations, selectable by name through
//! [`CostModelKind`]:
//!
//! * [`AlphaBetaModel`] — the paper's α–β model with per-uplink contention
//!   (the default);
//! * [`LogGpModel`] — a LogGP-style variant adding per-message overhead and
//!   gap terms, stricter on latency-bound programs;
//! * [`CalibratedModel`] — any inner model with per-hierarchy-level scale
//!   factors fitted against measurements (e.g. the `p2_exec` substrate);
//! * [`CachedCostModel`] — a decorator interning step times by exact step
//!   layout, so repeated costing of the same step is O(1) after the first
//!   touch.
//!
//! All models uphold the admissibility requirement documented on
//! [`CostModel`]: non-negative step times whose in-order sum is the program
//! time, so the prefix sums of a [`StepTimes`] fold (or a
//! [`CostAccumulator`]) are lower bounds the streaming pipeline can prune
//! against.
//!
//! # Example
//!
//! ```
//! use p2_cost::{AlphaBetaModel, CostModel, NcclAlgo};
//! use p2_placement::ParallelismMatrix;
//! use p2_synthesis::baseline_allreduce;
//! use p2_topology::presets;
//!
//! // B1 and B3 of Table 3: same axes, very different placements.
//! let b1 = ParallelismMatrix::new(vec![vec![1, 4], vec![4, 4]], vec![4, 16], vec![4, 16]).unwrap();
//! let b3 = ParallelismMatrix::new(vec![vec![4, 1], vec![1, 16]], vec![4, 16], vec![4, 16]).unwrap();
//! let bytes = 4.0 * f64::powi(2.0, 29) * 4.0; // 2^29 * nodes float32 elements
//! let model = AlphaBetaModel::new(presets::a100_system(4), NcclAlgo::Ring, bytes).unwrap();
//! let t1 = model.program_time(&baseline_allreduce(&b1, &[0]).unwrap());
//! let t3 = model.program_time(&baseline_allreduce(&b3, &[0]).unwrap());
//! // Reducing inside a node is orders of magnitude faster than across the DCN.
//! assert!(t3 / t1 > 50.0);
//! ```

#![deny(missing_docs)]

mod algo;
mod alpha_beta;
mod cache;
mod calibrated;
mod error;
mod loggp;
mod model;
pub mod patterns;

pub use algo::NcclAlgo;
pub use alpha_beta::AlphaBetaModel;
pub use cache::{CacheStats, CachedCostModel, StepClass};
pub use calibrated::CalibratedModel;
pub use error::CostError;
pub use loggp::{LogGpModel, DEFAULT_GAP, DEFAULT_OVERHEAD};
pub use model::{
    cost_model_from_args, CostAccumulator, CostBreakdown, CostModel, CostModelKind, StepCost,
    StepTimes,
};
