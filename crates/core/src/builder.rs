//! The experiment-session builder: typed construction of a [`P2`] session
//! with validation at [`P2Builder::build`].

use std::sync::Arc;

use p2_collectives::SharedTables;
use p2_cost::{CostModel, CostModelKind, NcclAlgo};
use p2_synthesis::HierarchyKind;
use p2_topology::SystemTopology;

use crate::config::P2Config;
use crate::error::P2Error;
use crate::pipeline::{RunMode, P2};
use crate::result::ExperimentResult;

/// Builds a [`P2`] experiment session field by field.
///
/// Created by [`P2::builder`]. Every setting has the paper's default (see
/// [`P2Config::new`]); only the parallelism and reduction axes must be
/// supplied. Validation happens once, at [`build`](P2Builder::build) — an
/// inconsistent combination (axes not covering the device count, zero
/// repeats, …) is reported as [`P2Error::InvalidConfig`] there, and a built
/// session is always runnable.
///
/// # Examples
///
/// ```
/// use p2_core::{RunMode, P2};
/// use p2_topology::presets;
///
/// let result = P2::builder(presets::a100_system(2))
///     .parallelism_axes([8, 4])
///     .reduction_axes([0])
///     .bytes_per_device(1.0e9)
///     .repeats(2)
///     .mode(RunMode::Shortlist(10))
///     .run()?;
/// assert!(result.best_overall().is_some());
/// # Ok::<(), p2_core::P2Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct P2Builder {
    system: SystemTopology,
    parallelism_axes: Vec<usize>,
    reduction_axes: Vec<usize>,
    algo: Option<NcclAlgo>,
    bytes_per_device: Option<f64>,
    max_program_size: Option<usize>,
    hierarchy_kind: Option<HierarchyKind>,
    noise_fraction: Option<f64>,
    seed: Option<u64>,
    repeats: Option<usize>,
    threads: Option<usize>,
    keep_top: Option<usize>,
    prune_slack: Option<f64>,
    cost_model: Option<Arc<dyn CostModel>>,
    cost_model_kind: Option<CostModelKind>,
    cost_cache: Option<bool>,
    shared_intern: Option<bool>,
    parallel_build: Option<bool>,
    shared_tables: Option<Arc<SharedTables>>,
    table_store_dir: Option<std::path::PathBuf>,
    mode: RunMode,
}

impl P2Builder {
    /// Starts a builder for `system` with every setting at the paper default.
    pub(crate) fn new(system: SystemTopology) -> Self {
        P2Builder {
            system,
            parallelism_axes: Vec::new(),
            reduction_axes: Vec::new(),
            algo: None,
            bytes_per_device: None,
            max_program_size: None,
            hierarchy_kind: None,
            noise_fraction: None,
            seed: None,
            repeats: None,
            threads: None,
            keep_top: None,
            prune_slack: None,
            cost_model: None,
            cost_model_kind: None,
            cost_cache: None,
            shared_intern: None,
            parallel_build: None,
            shared_tables: None,
            table_store_dir: None,
            mode: RunMode::Measure,
        }
    }

    /// Starts a builder preloaded from an existing configuration — the
    /// migration path for code that still assembles a [`P2Config`] by hand.
    /// Every field of `config` becomes an explicit override, so
    /// `P2Builder::from_config(c).build()` validates exactly `c`.
    pub fn from_config(config: P2Config) -> Self {
        P2Builder {
            parallelism_axes: config.parallelism_axes,
            reduction_axes: config.reduction_axes,
            algo: Some(config.algo),
            bytes_per_device: Some(config.bytes_per_device),
            max_program_size: Some(config.max_program_size),
            hierarchy_kind: Some(config.hierarchy_kind),
            noise_fraction: Some(config.noise_fraction),
            seed: Some(config.seed),
            repeats: Some(config.repeats),
            threads: Some(config.threads),
            keep_top: config.keep_top,
            prune_slack: Some(config.prune_slack),
            cost_model: config.cost_model,
            cost_model_kind: None,
            cost_cache: Some(config.cost_cache),
            shared_intern: Some(config.shared_intern),
            parallel_build: Some(config.parallel_build),
            shared_tables: config.shared_tables,
            table_store_dir: config.table_store_dir,
            mode: RunMode::Measure,
            system: config.system,
        }
    }

    /// Sets the parallelism axis sizes (e.g. `[8, 4]` for data parallelism 8
    /// and 4 parameter shards). Their product must equal the system's device
    /// count; checked at [`build`](P2Builder::build).
    pub fn parallelism_axes(mut self, axes: impl IntoIterator<Item = usize>) -> Self {
        self.parallelism_axes = axes.into_iter().collect();
        self
    }

    /// Sets the axes to reduce over, as indices into the parallelism axes.
    pub fn reduction_axes(mut self, axes: impl IntoIterator<Item = usize>) -> Self {
        self.reduction_axes = axes.into_iter().collect();
        self
    }

    /// Sets the NCCL algorithm used for every collective call.
    pub fn algo(mut self, algo: NcclAlgo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Sets the per-device buffer size in bytes. Defaults to the paper's
    /// `2^29 × nodes` float32 elements, where "nodes" is the cardinality of
    /// the system's outermost hierarchy level.
    pub fn bytes_per_device(mut self, bytes: f64) -> Self {
        self.bytes_per_device = Some(bytes);
        self
    }

    /// Sets the program-size limit of the synthesis search.
    pub fn max_program_size(mut self, size: usize) -> Self {
        self.max_program_size = Some(size);
        self
    }

    /// Sets the synthesis hierarchy kind (the paper uses
    /// [`HierarchyKind::ReductionAxes`]).
    pub fn hierarchy_kind(mut self, kind: HierarchyKind) -> Self {
        self.hierarchy_kind = Some(kind);
        self
    }

    /// Sets the measurement noise fraction of the execution substrate.
    pub fn noise(mut self, noise_fraction: f64) -> Self {
        self.noise_fraction = Some(noise_fraction);
        self
    }

    /// Sets the seed of the execution substrate's noise generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the number of simulated runs averaged per measurement.
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = Some(repeats);
        self
    }

    /// Sets the worker-thread count for the placement sweep (`0` = all cores,
    /// `1` = serial). Results are bit-identical for any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Bounds the per-placement retention to the `keep_top` best programs and
    /// enables cost-bound pruning of the program stream (see
    /// [`P2Config::keep_top`]).
    pub fn keep_top(mut self, keep_top: usize) -> Self {
        self.keep_top = Some(keep_top);
        self
    }

    /// Sets the cost-bound pruning slack (see [`P2Config::prune_slack`]).
    pub fn prune_slack(mut self, prune_slack: f64) -> Self {
        self.prune_slack = Some(prune_slack);
        self
    }

    /// Substitutes the cost model predicting every synthesized program (see
    /// [`P2Config::cost_model`]). Takes precedence over
    /// [`cost_model_kind`](P2Builder::cost_model_kind).
    pub fn cost_model(mut self, model: Arc<dyn CostModel>) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Selects one of the built-in cost models by kind — the CLI-friendly
    /// form of [`cost_model`](P2Builder::cost_model). The model is built at
    /// [`build`](P2Builder::build), from the final system, algorithm and
    /// buffer size (and, for [`CostModelKind::Calibrated`], the final noise,
    /// seed and repeats).
    pub fn cost_model_kind(mut self, kind: CostModelKind) -> Self {
        self.cost_model_kind = Some(kind);
        self
    }

    /// Sets [`P2Config::cost_cache`].
    pub fn cost_cache(mut self, cost_cache: bool) -> Self {
        self.cost_cache = Some(cost_cache);
        self
    }

    /// Enables or disables the sweep-wide shared interning tables (see
    /// [`P2Config::shared_intern`]).
    pub fn shared_intern(mut self, shared_intern: bool) -> Self {
        self.shared_intern = Some(shared_intern);
        self
    }

    /// Enables or disables the parallel level-synchronous DAG build inside
    /// each placement (see [`P2Config::parallel_build`]).
    pub fn parallel_build(mut self, parallel_build: bool) -> Self {
        self.parallel_build = Some(parallel_build);
        self
    }

    /// Supplies externally-owned interning tables, extending sharing across
    /// every session holding the same tables (see
    /// [`P2Config::shared_tables`]).
    pub fn shared_tables(mut self, tables: Arc<SharedTables>) -> Self {
        self.shared_tables = Some(tables);
        self
    }

    /// Points the session at a cross-run table-snapshot directory: the sweep
    /// warm-starts from the snapshot addressed by
    /// [`P2Config::table_key`](crate::P2Config::table_key) and writes its
    /// final tables back (see [`P2Config::table_store_dir`]).
    pub fn table_store_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.table_store_dir = Some(dir.into());
        self
    }

    /// Sets how [`P2::run`] drives the pipeline: [`RunMode::Measure`] (the
    /// default), [`RunMode::Shortlist`] or [`RunMode::PredictOnly`].
    pub fn mode(mut self, mode: RunMode) -> Self {
        self.mode = mode;
        self
    }

    /// Validates the assembled settings and returns the session.
    ///
    /// # Errors
    ///
    /// Returns [`P2Error::InvalidConfig`] describing the first inconsistency
    /// (missing axes, axis product not matching the device count,
    /// non-positive sizes, a zero-length shortlist, …).
    pub fn build(self) -> Result<P2, P2Error> {
        if let RunMode::Shortlist(0) = self.mode {
            return Err(P2Error::InvalidConfig {
                reason: "shortlist length must be positive (use RunMode::PredictOnly to \
                         measure nothing)"
                    .into(),
            });
        }
        let mut config = P2Config::new(self.system, self.parallelism_axes, self.reduction_axes);
        if let Some(algo) = self.algo {
            config.algo = algo;
        }
        if let Some(bytes) = self.bytes_per_device {
            config.bytes_per_device = bytes;
        }
        if let Some(size) = self.max_program_size {
            config.max_program_size = size;
        }
        if let Some(kind) = self.hierarchy_kind {
            config.hierarchy_kind = kind;
        }
        if let Some(noise) = self.noise_fraction {
            config.noise_fraction = noise;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(repeats) = self.repeats {
            config.repeats = repeats;
        }
        if let Some(threads) = self.threads {
            config.threads = threads;
        }
        if self.keep_top.is_some() {
            config.keep_top = self.keep_top;
        }
        if let Some(slack) = self.prune_slack {
            config.prune_slack = slack;
        }
        if let Some(cache) = self.cost_cache {
            config.cost_cache = cache;
        }
        if let Some(shared) = self.shared_intern {
            config.shared_intern = shared;
        }
        if let Some(parallel) = self.parallel_build {
            config.parallel_build = parallel;
        }
        if let Some(tables) = self.shared_tables {
            config.shared_tables = Some(tables);
        }
        if let Some(dir) = self.table_store_dir {
            config.table_store_dir = Some(dir);
        }
        if let Some(model) = self.cost_model {
            config.cost_model = Some(model);
        } else if let Some(kind) = self.cost_model_kind {
            let model = config.make_cost_model(kind)?;
            config.cost_model = Some(model);
        }
        Ok(P2::new(config)?.with_mode(self.mode))
    }

    /// Builds the session and runs it in the configured mode —
    /// `builder.run()` is shorthand for `builder.build()?.run()`.
    ///
    /// # Errors
    ///
    /// Returns validation errors from [`build`](P2Builder::build) and
    /// pipeline errors from [`P2::run`].
    pub fn run(self) -> Result<ExperimentResult, P2Error> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_topology::presets;

    #[test]
    fn builder_defaults_match_config_defaults() {
        let built = P2::builder(presets::a100_system(4))
            .parallelism_axes([64])
            .reduction_axes([0])
            .build()
            .unwrap();
        let config = P2Config::new(presets::a100_system(4), vec![64], vec![0]);
        let b = built.config();
        assert_eq!(b.algo, config.algo);
        assert_eq!(b.bytes_per_device, config.bytes_per_device);
        assert_eq!(b.max_program_size, config.max_program_size);
        assert_eq!(b.hierarchy_kind, config.hierarchy_kind);
        assert_eq!(b.noise_fraction, config.noise_fraction);
        assert_eq!(b.seed, config.seed);
        assert_eq!(b.repeats, config.repeats);
        assert_eq!(b.threads, config.threads);
        assert_eq!(b.keep_top, config.keep_top);
        assert_eq!(b.prune_slack, config.prune_slack);
        assert_eq!(b.shared_intern, config.shared_intern);
        assert!(b.shared_intern, "sweep-wide interning defaults on");
        assert_eq!(b.parallel_build, config.parallel_build);
        assert!(b.parallel_build, "parallel DAG build defaults on");
        assert_eq!(built.mode(), RunMode::Measure);
    }

    #[test]
    fn builder_overrides_are_applied() {
        let session = P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
            .algo(NcclAlgo::Tree)
            .bytes_per_device(1.0e8)
            .max_program_size(4)
            .hierarchy_kind(HierarchyKind::System)
            .noise(0.01)
            .seed(42)
            .repeats(7)
            .threads(2)
            .keep_top(3)
            .prune_slack(1.5)
            .shared_intern(false)
            .mode(RunMode::Shortlist(5))
            .build()
            .unwrap();
        let c = session.config();
        assert!(!c.shared_intern);
        assert_eq!(c.algo, NcclAlgo::Tree);
        assert_eq!(c.bytes_per_device, 1.0e8);
        assert_eq!(c.max_program_size, 4);
        assert_eq!(c.hierarchy_kind, HierarchyKind::System);
        assert_eq!(c.noise_fraction, 0.01);
        assert_eq!(c.seed, 42);
        assert_eq!(c.repeats, 7);
        assert_eq!(c.threads, 2);
        assert_eq!(c.keep_top, Some(3));
        assert_eq!(c.prune_slack, 1.5);
        assert_eq!(session.mode(), RunMode::Shortlist(5));
    }

    #[test]
    fn from_config_round_trips_every_field() {
        let config = P2Config::new(presets::v100_system(2), vec![4, 4], vec![1])
            .with_algo(NcclAlgo::Tree)
            .with_bytes_per_device(2.0e8)
            .with_max_program_size(4)
            .with_hierarchy_kind(HierarchyKind::RowMajor)
            .with_noise(0.07)
            .with_seed(99)
            .with_repeats(4)
            .with_threads(3)
            .with_keep_top(6)
            .with_prune_slack(0.25)
            .with_shared_intern(false)
            .with_parallel_build(false);
        let rebuilt = P2Builder::from_config(config.clone()).build().unwrap();
        let r = rebuilt.config();
        assert_eq!(r.system.name(), config.system.name());
        assert_eq!(r.parallelism_axes, config.parallelism_axes);
        assert_eq!(r.reduction_axes, config.reduction_axes);
        assert_eq!(r.algo, config.algo);
        assert_eq!(r.bytes_per_device, config.bytes_per_device);
        assert_eq!(r.max_program_size, config.max_program_size);
        assert_eq!(r.hierarchy_kind, config.hierarchy_kind);
        assert_eq!(r.noise_fraction, config.noise_fraction);
        assert_eq!(r.seed, config.seed);
        assert_eq!(r.repeats, config.repeats);
        assert_eq!(r.threads, config.threads);
        assert_eq!(r.keep_top, config.keep_top);
        assert_eq!(r.prune_slack, config.prune_slack);
        assert_eq!(r.shared_intern, config.shared_intern);
        assert_eq!(r.parallel_build, config.parallel_build);
        assert!(!r.parallel_build, "override must survive the round-trip");
        assert_eq!(rebuilt.mode(), RunMode::Measure);
    }

    #[test]
    fn cost_model_selection_is_resolved_at_build() {
        let session = P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
            .bytes_per_device(1.0e8)
            .cost_model_kind(CostModelKind::LogGp)
            .cost_cache(false)
            .build()
            .unwrap();
        let c = session.config();
        assert_eq!(c.cost_model.as_ref().unwrap().name(), "loggp");
        assert!(!c.cost_cache);
        // An explicit model instance wins over a kind.
        let config = P2Config::new(presets::a100_system(2), vec![32], vec![0]);
        let explicit = config.make_cost_model(CostModelKind::AlphaBeta).unwrap();
        let session = P2::builder(presets::a100_system(2))
            .parallelism_axes([32])
            .reduction_axes([0])
            .cost_model(Arc::clone(&explicit))
            .cost_model_kind(CostModelKind::LogGp)
            .build()
            .unwrap();
        assert_eq!(
            session.config().cost_model.as_ref().unwrap().name(),
            "alpha-beta"
        );
    }

    #[test]
    fn build_validates() {
        // Missing axes.
        assert!(P2::builder(presets::a100_system(2)).build().is_err());
        // Axis product not covering the device count.
        assert!(P2::builder(presets::a100_system(2))
            .parallelism_axes([7])
            .reduction_axes([0])
            .build()
            .is_err());
        // Zero-length shortlist.
        assert!(P2::builder(presets::a100_system(2))
            .parallelism_axes([32])
            .reduction_axes([0])
            .mode(RunMode::Shortlist(0))
            .build()
            .is_err());
        // Invalid overrides are caught by the same validation.
        assert!(P2::builder(presets::a100_system(2))
            .parallelism_axes([32])
            .reduction_axes([0])
            .repeats(0)
            .build()
            .is_err());
    }
}
