//! Planner-as-a-service for the P² reproduction.
//!
//! The pipeline crates synthesize and cost collective programs per
//! topology; a real fleet has millions of users hitting a handful of
//! topologies. This crate is the layer that exploits that skew:
//!
//! * [`PlanRequest`] + [`p2_core::canonical`] **fingerprint** each request
//!   into a stable 128-bit content address ([`p2_hash::Fingerprint`]) —
//!   order- and representation-insensitive, sensitive to every
//!   result-relevant knob.
//! * [`PlanStore`] keeps fingerprint → [`Plan`] (top-K programs +
//!   predictions + stats) in an in-memory LRU over a persistent on-disk
//!   store of versioned JSON records, so warm answers survive restarts.
//! * [`Planner`] is the front end: cache probe, **single-flight dedup**
//!   (concurrent identical requests coalesce into one synthesis), a
//!   bounded admission queue with **per-tenant fair scheduling**, and one
//!   shared work-stealing pool running misses in batches through
//!   [`p2_core::run_batch`] — with structured telemetry
//!   ([`PlannerStats`], [`PlanResponse`]) throughout.
//! * The `plan_service` binary serves the whole thing as line-delimited
//!   JSON over TCP ([`wire`]), with a built-in client and an end-to-end
//!   smoke mode.
//!
//! Everything is `std`-only, like the rest of the workspace.
//!
//! # Example
//!
//! ```
//! use p2_service::{Planner, PlannerConfig, PlanRequest};
//! use p2_topology::presets;
//!
//! let planner = Planner::new(PlannerConfig::default()).unwrap();
//! let request = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
//!     .with_bytes_per_device(1.0e9)
//!     .with_repeats(2);
//! let cold = planner.plan("example", request.clone()).unwrap();
//! let warm = planner.plan("example", request).unwrap();
//! // The repeat is served from the plan store, bit-identically.
//! assert_eq!(warm.plan, cold.plan);
//! ```

#![deny(missing_docs)]

mod error;
/// The JSON value type this crate serializes through — now hosted by
/// [`p2_json`] so the core table store shares it; re-exported here to keep
/// the long-standing `p2_service::json` paths working.
pub mod json {
    pub use p2_json::{Json, JsonObject};
}
mod plan;
mod planner;
mod request;
mod store;
pub mod wire;

pub use error::ServiceError;
pub use p2_hash::Fingerprint;
pub use plan::{Plan, PlanEntry, PlanStats, PLAN_SCHEMA_VERSION};
pub use planner::{PlanResponse, Planner, PlannerConfig, PlannerStats, MAX_PROGRAM_SIZE};
pub use request::{PlanRequest, DEFAULT_TOP_K};
pub use store::{PlanSource, PlanStore};
