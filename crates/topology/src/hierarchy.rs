use crate::error::TopologyError;

/// One level of the hardware hierarchy: a name and a cardinality.
///
/// The cardinality (`arity`) is the number of instances of this level *per
/// instance of the level above*; for the topmost level it is the absolute
/// count. For example, the Figure 2a system of the paper is
/// `[(rack, 1), (server, 2), (CPU, 2), (GPU, 4)]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Level {
    name: String,
    arity: usize,
}

impl Level {
    /// Creates a new level with the given name and cardinality.
    ///
    /// # Examples
    ///
    /// ```
    /// use p2_topology::Level;
    /// let gpu = Level::new("GPU", 4);
    /// assert_eq!(gpu.arity(), 4);
    /// ```
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Level {
            name: name.into(),
            arity,
        }
    }

    /// The level's name (e.g. `"GPU"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The level's cardinality per parent instance.
    pub fn arity(&self) -> usize {
        self.arity
    }
}

/// An ordered hardware hierarchy, from the outermost level to the devices.
///
/// Devices are the leaves: there is one device per combination of level
/// indices. Device *ranks* enumerate the leaves in row-major order with level
/// 0 most significant.
///
/// # Examples
///
/// ```
/// use p2_topology::{Hierarchy, Level};
/// let h = Hierarchy::new(vec![Level::new("node", 2), Level::new("gpu", 4)]).unwrap();
/// assert_eq!(h.num_devices(), 8);
/// assert_eq!(h.arities(), vec![2, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hierarchy {
    levels: Vec<Level>,
}

impl Hierarchy {
    /// Creates a hierarchy from a non-empty list of levels.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyHierarchy`] if `levels` is empty and
    /// [`TopologyError::ZeroArity`] if any level has cardinality zero.
    pub fn new(levels: Vec<Level>) -> Result<Self, TopologyError> {
        if levels.is_empty() {
            return Err(TopologyError::EmptyHierarchy);
        }
        for level in &levels {
            if level.arity == 0 {
                return Err(TopologyError::ZeroArity {
                    level: level.name.clone(),
                });
            }
        }
        Ok(Hierarchy { levels })
    }

    /// Creates a hierarchy from `(name, arity)` pairs.
    ///
    /// # Errors
    ///
    /// Same as [`Hierarchy::new`].
    pub fn from_pairs<I, S>(pairs: I) -> Result<Self, TopologyError>
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        Hierarchy::new(pairs.into_iter().map(|(n, a)| Level::new(n, a)).collect())
    }

    /// Creates a hierarchy with auto-generated level names (`level0`, `level1`, …).
    ///
    /// # Errors
    ///
    /// Same as [`Hierarchy::new`].
    pub fn from_arities(arities: &[usize]) -> Result<Self, TopologyError> {
        Hierarchy::new(
            arities
                .iter()
                .enumerate()
                .map(|(i, &a)| Level::new(format!("level{i}"), a))
                .collect(),
        )
    }

    /// The ordered levels, outermost first.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The per-level cardinalities, outermost first.
    pub fn arities(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.arity).collect()
    }

    /// Total number of devices (leaves): the product of all cardinalities.
    pub fn num_devices(&self) -> usize {
        self.levels.iter().map(|l| l.arity).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2a() -> Hierarchy {
        Hierarchy::from_pairs([("rack", 1), ("server", 2), ("CPU", 2), ("GPU", 4)]).unwrap()
    }

    #[test]
    fn figure2a_has_sixteen_gpus() {
        assert_eq!(figure2a().num_devices(), 16);
        assert_eq!(figure2a().arities(), vec![1, 2, 2, 4]);
    }

    #[test]
    fn empty_hierarchy_rejected() {
        assert_eq!(Hierarchy::new(vec![]), Err(TopologyError::EmptyHierarchy));
    }

    #[test]
    fn zero_arity_rejected() {
        let err = Hierarchy::from_pairs([("node", 2), ("gpu", 0)]).unwrap_err();
        assert!(matches!(err, TopologyError::ZeroArity { .. }));
    }
}
