use std::fmt;

/// Errors produced when constructing or querying a system topology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A hierarchy must contain at least one level.
    EmptyHierarchy,
    /// Every level must have a cardinality of at least one.
    ZeroArity {
        /// Name of the offending level.
        level: String,
    },
    /// The number of interconnects must equal the number of hierarchy levels.
    LinkCountMismatch {
        /// Number of hierarchy levels.
        levels: usize,
        /// Number of interconnects supplied.
        links: usize,
    },
    /// Interconnect bandwidth must be strictly positive and finite.
    InvalidBandwidth {
        /// Name of the offending interconnect.
        link: String,
    },
    /// Interconnect latency must be non-negative and finite.
    InvalidLatency {
        /// Name of the offending interconnect.
        link: String,
    },
    /// A device rank was outside the valid range for the hierarchy.
    DeviceOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Number of devices in the hierarchy.
        num_devices: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyHierarchy => write!(f, "hierarchy has no levels"),
            TopologyError::ZeroArity { level } => {
                write!(f, "level `{level}` has zero cardinality")
            }
            TopologyError::LinkCountMismatch { levels, links } => write!(
                f,
                "expected one interconnect per level ({levels} levels) but got {links}"
            ),
            TopologyError::InvalidBandwidth { link } => {
                write!(
                    f,
                    "interconnect `{link}` has a non-positive or non-finite bandwidth"
                )
            }
            TopologyError::InvalidLatency { link } => {
                write!(
                    f,
                    "interconnect `{link}` has a negative or non-finite latency"
                )
            }
            TopologyError::DeviceOutOfRange { rank, num_devices } => {
                write!(
                    f,
                    "device rank {rank} out of range for {num_devices} devices"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}
