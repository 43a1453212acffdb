//! `p2` — a reproduction of *"Synthesizing Optimal Parallelism Placement and
//! Reduction Strategies on Hierarchical Systems for Deep Learning"*
//! (MLSys 2022).
//!
//! This crate re-exports the whole public API of the workspace so downstream
//! users can depend on a single crate:
//!
//! * [`topology`] — hierarchical systems and interconnects,
//! * [`placement`] — parallelism matrices and placement enumeration,
//! * [`collectives`] — state matrices and the semantics of collectives,
//! * [`synthesis`] — the reduction DSL, synthesis hierarchies and the
//!   syntax-guided synthesizer,
//! * [`cost`] — the analytic cost model (the paper's simulator),
//! * [`exec`] — the discrete-event execution substrate (the measurement
//!   stand-in for the paper's GPU clusters),
//! * [`core`] — the end-to-end [`P2`] pipeline,
//! * [`hash`] — stable hashing and content-address digests,
//! * [`service`] — the planner service: content-addressed plan cache,
//!   single-flight dedup, fair admission, and the `plan_service` TCP front
//!   end.
//!
//! # Quickstart
//!
//! ```
//! use p2::{P2, presets, NcclAlgo};
//!
//! // The 16-GPU system of Figure 2a with data parallelism 4 and 4 parameter
//! // shards, reducing along the parameter-sharding axis.
//! let result = P2::builder(presets::figure2a_system())
//!     .parallelism_axes([4, 4])
//!     .reduction_axes([1])
//!     .algo(NcclAlgo::Ring)
//!     .bytes_per_device(1.0e8)
//!     .run()?;
//! let best = result.best_overall().expect("at least one program");
//! println!("best placement/program: {} in {:.3}s", best.signature(), best.measured_seconds);
//! # Ok::<(), p2::P2Error>(())
//! ```

#![deny(missing_docs)]

pub use p2_collectives as collectives;
pub use p2_core as core;
pub use p2_cost as cost;
pub use p2_exec as exec;
pub use p2_hash as hash;
pub use p2_placement as placement;
pub use p2_service as service;
pub use p2_synthesis as synthesis;
pub use p2_topology as topology;

pub use p2_collectives::{Collective, State};
pub use p2_core::{
    run_batch, top_k_accuracy, BatchOptions, BatchOutcome, ExperimentResult, P2Builder, P2Config,
    P2Error, PendingSweep, PlacementEvaluation, ProgramEvaluation, ProgressObserver, RunMode,
    RunObserver, SharedBoundObserver, SharedBoundTree, SlotBoundObserver, TableSnapshot,
    TableStore, TableStoreStats, TopKReport, TwoPassSharedBound, P2,
};
pub use p2_cost::{
    cost_model_from_args, AlphaBetaModel, CacheStats, CachedCostModel, CalibratedModel,
    CostAccumulator, CostBreakdown, CostModel, CostModelKind, LogGpModel, NcclAlgo, StepClass,
    StepCost, StepTimes,
};
pub use p2_exec::{ExecConfig, Executor};
pub use p2_hash::{stable_digest128, stable_hash64, Fingerprint, FxHashMap, FxHasher};
pub use p2_placement::{
    enumerate_matrices, for_each_matrix, MatrixControl, MatrixSink, ParallelismMatrix,
};
pub use p2_service::{
    Plan, PlanEntry, PlanRequest, PlanResponse, PlanSource, PlanStats, PlanStore, Planner,
    PlannerConfig, PlannerStats, ServiceError,
};
pub use p2_synthesis::{
    baseline_allreduce, EmittedProgram, Form, HierarchyKind, Instruction, LoweredProgram, MemoBank,
    MemoSlab, Program, ProgramSink, SinkControl, SynthesisStats, Synthesizer,
};
pub use p2_topology::presets;
pub use p2_topology::{Hierarchy, Interconnect, Level, SystemTopology};
