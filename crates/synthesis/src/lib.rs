//! Reduction DSL, synthesis hierarchies and syntax-guided program synthesis
//! for the P² reproduction (paper §2.4, §2.5, §3.3, §3.4, §3.5).
//!
//! Given a [`p2_placement::ParallelismMatrix`] and the axes to reduce over,
//! this crate:
//!
//! 1. builds a *synthesis hierarchy* — by default hierarchy (d) of the paper,
//!    the parallelism factors of the reduction axes collapsed per hardware
//!    level (the other hierarchies (a)–(c) are available for ablations);
//! 2. enumerates reduction [`Program`]s in the `slice × form × collective`
//!    DSL, in increasing program size, pruning every instruction whose device
//!    groups violate the collective semantics of
//!    [`p2_collectives`];
//! 3. lowers each program to a [`LoweredProgram`]: explicit per-step groups of
//!    physical device ranks plus the per-device data fraction each step moves,
//!    which is what the cost model and the execution simulator consume.
//!    [`Synthesizer::for_each_lowered`] streams programs with their steps
//!    as ids into a table of distinct step layouts, lowering each distinct
//!    search-DAG edge step exactly once, and returns the table when the
//!    stream ends.
//!
//! # Example
//!
//! ```
//! use p2_placement::ParallelismMatrix;
//! use p2_synthesis::{HierarchyKind, Synthesizer};
//!
//! // Figure 2d placement on the Figure 2a system, reducing along axis 1.
//! let matrix = ParallelismMatrix::new(
//!     vec![vec![1, 1, 2, 2], vec![1, 2, 1, 2]],
//!     vec![1, 2, 2, 4],
//!     vec![4, 4],
//! ).unwrap();
//! let synthesizer = Synthesizer::new(matrix, vec![1], HierarchyKind::ReductionAxes).unwrap();
//! let result = synthesizer.synthesize(5);
//! assert!(!result.programs.is_empty());
//! // Every synthesized program lowers to concrete device groups.
//! let lowered = synthesizer.lower(&result.programs[0]).unwrap();
//! assert!(!lowered.steps.is_empty());
//! ```

#![deny(missing_docs)]

mod context;
mod dsl;
mod error;
mod hierarchy;
mod lowered;
mod steps;
mod synthesizer;

pub use context::SynthesisContext;
pub use dsl::{Form, Instruction, Program};
pub use error::SynthesisError;
pub use hierarchy::{HierarchyKind, SynthLevel, SynthesisHierarchy};
pub use lowered::{baseline_allreduce, GroupExec, LoweredProgram, LoweredStep};
pub use steps::EmittedProgram;
pub use synthesizer::{
    BestCostProgram, ProgramCount, ProgramSink, SinkControl, SynthesisResult, SynthesisStats,
    Synthesizer,
};
