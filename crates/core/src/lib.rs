//! End-to-end pipeline and public facade for the P² reproduction.
//!
//! [`P2`] ties the substrates together: it enumerates parallelism placements
//! ([`p2_placement`]), synthesizes reduction programs for each placement
//! ([`p2_synthesis`]), predicts their cost with the analytic simulator
//! ([`p2_cost`]) and "measures" them on the execution substrate
//! ([`p2_exec`]), returning an [`ExperimentResult`] with everything the
//! paper's tables and figures are derived from.
//!
//! # Example
//!
//! Experiments are assembled with [`P2::builder`]: axes and overrides are set
//! field by field, validation happens once at `build()`, and the session's
//! [`RunMode`] decides what gets measured.
//!
//! ```
//! use p2_core::{RunMode, P2};
//! use p2_cost::NcclAlgo;
//! use p2_topology::presets;
//!
//! let result = P2::builder(presets::a100_system(2))
//!     .parallelism_axes([8, 4])
//!     .reduction_axes([0])
//!     .algo(NcclAlgo::Ring)
//!     .bytes_per_device(1.0e9)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! // Every placement has an AllReduce baseline and at least one synthesized program.
//! assert!(!result.placements.is_empty());
//! let best = result.best_overall().unwrap();
//! assert!(best.measured_seconds > 0.0);
//! ```

#![deny(missing_docs)]

mod accuracy;
mod batch;
mod builder;
pub mod canonical;
mod config;
mod error;
mod observer;
mod pipeline;
mod result;
mod table_store;

pub use accuracy::{top_k_accuracy, TopKReport};
pub use batch::{run_batch, BatchOptions, BatchOutcome};
pub use builder::P2Builder;
pub use canonical::{
    canonical_mode, canonical_session, canonical_system, canonical_tables_form,
    CANONICAL_TABLES_VERSION, CANONICAL_VERSION,
};
pub use config::P2Config;
pub use error::P2Error;
pub use observer::{ProgressObserver, RunObserver};
pub use pipeline::{RunMode, P2};
pub use result::{ExperimentResult, PlacementEvaluation, ProgramEvaluation};
pub use table_store::{TableSnapshot, TableStore, TableStoreStats};
