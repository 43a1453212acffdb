//! Collective-operation state matrices and Hoare-triple semantics
//! (paper §2.3 and §3.2, Figure 8).
//!
//! Each device's state is a `k × k` boolean [`State`] matrix, `k` being the
//! number of devices in the reduction scope. Data is treated as `k` chunks:
//! row `r` of the matrix describes chunk `r`, and bit `s[r][j] = 1` means
//! device `j` has contributed its original chunk `r` to the data this device
//! currently holds. The five common collectives — [`Collective::AllReduce`],
//! [`Collective::ReduceScatter`], [`Collective::AllGather`],
//! [`Collective::Reduce`] and [`Collective::Broadcast`] — are given a checked
//! small-step semantics: applying one to a group of device states either
//! yields the post-condition states or a [`SemanticsError`] explaining which
//! pre-condition failed. Sequences of operationally valid collectives that can
//! never reach the requested reduction result (Figure 4 of the paper) are
//! rejected by exactly these checks.
//!
//! # Example
//!
//! ```
//! use p2_collectives::{Collective, State, apply_collective};
//!
//! // Two devices, each holding its own data.
//! let states = vec![State::initial(2, 0), State::initial(2, 1)];
//! let after = apply_collective(Collective::AllReduce, &states).unwrap();
//! assert!(after.iter().all(|s| *s == State::goal(2)));
//! // Reducing again would double-count: the semantics rejects it.
//! assert!(apply_collective(Collective::AllReduce, &after).is_err());
//! ```

#![deny(missing_docs)]

mod bitset;
mod collective;
mod intern;
mod semantics;
mod state;

pub use bitset::Bitset;
pub use collective::Collective;
pub use intern::{FxHashMap, FxHasher, SharedTables};
pub use semantics::{apply_collective, apply_collective_refs, apply_to_groups, SemanticsError};
pub use state::{Row, State};
