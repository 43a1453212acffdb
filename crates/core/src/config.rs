use std::sync::Arc;

use p2_collectives::SharedTables;
use p2_cost::{AlphaBetaModel, CalibratedModel, CostModel, CostModelKind, LogGpModel, NcclAlgo};
use p2_exec::{ExecConfig, Executor};
use p2_synthesis::HierarchyKind;
use p2_topology::SystemTopology;

use crate::error::P2Error;

/// Configuration of one P² experiment: a system, the parallelism axes, the
/// reduction axes, and how programs are costed and measured.
///
/// The defaults follow the paper's setup (§4): NCCL ring, a program-size limit
/// of 5, the reduction-axis synthesis hierarchy, and a per-device buffer of
/// `2^29 × nodes` float32 elements where "nodes" is the cardinality of the
/// system's outermost level.
///
/// Sessions are described through [`P2::builder`], which sets every knob,
/// validates on `build()` and also carries the run mode; this struct is the
/// validated plain data a session holds ([`P2::config`]). It is
/// `#[non_exhaustive]`: construct it via [`P2Config::new`] and assign fields
/// directly (fields may be added in later revisions).
///
/// [`P2::builder`]: crate::P2::builder
/// [`P2::config`]: crate::P2::config
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct P2Config {
    /// The hierarchical system to place and reduce on.
    pub system: SystemTopology,
    /// The parallelism axis sizes (e.g. `[8, 4]` for data parallelism 8 and 4
    /// parameter shards). Their product must equal the device count.
    pub parallelism_axes: Vec<usize>,
    /// The axes to reduce over (indices into `parallelism_axes`).
    pub reduction_axes: Vec<usize>,
    /// NCCL algorithm used for every collective call.
    pub algo: NcclAlgo,
    /// Per-device buffer size in bytes.
    pub bytes_per_device: f64,
    /// Maximum number of instructions per synthesized program.
    pub max_program_size: usize,
    /// Which synthesis hierarchy to use (the paper uses
    /// [`HierarchyKind::ReductionAxes`]).
    pub hierarchy_kind: HierarchyKind,
    /// Measurement noise fraction of the execution substrate.
    pub noise_fraction: f64,
    /// Seed of the execution substrate's noise generator.
    pub seed: u64,
    /// Simulated runs averaged per measurement.
    pub repeats: usize,
    /// Worker threads for the placement × synthesis sweep: `0` uses every
    /// available core, `1` runs serially. It is also each placement's DAG
    /// build budget
    /// ([`Synthesizer::with_build_threads`](p2_synthesis::Synthesizer::with_build_threads)):
    /// any value but `1` lets a heavy placement's build recruit the sweep
    /// pool's idle workers. Results are identical for any value — the sweep
    /// is order-independent and noise is derived from `seed` and program
    /// content alone.
    pub threads: usize,
    /// Retain at most this many program evaluations per placement in a
    /// bounded top-K heap over the program stream, ranked by the same key the
    /// final result ranking uses: measured time in eagerly-measuring runs
    /// ([`P2::run`]), predicted time in shortlist mode where unmeasured
    /// programs report their prediction. `None` — the default — retains every
    /// synthesized program, which is bit-compatible with the materializing
    /// pipeline.
    ///
    /// [`P2::run`]: crate::P2::run
    pub keep_top: Option<usize>,
    /// Cost-bound pruning slack: a candidate whose accumulated predicted
    /// prefix time exceeds the placement's best predicted time so far (seeded
    /// by the AllReduce baseline prediction) times `1 + prune_slack` is
    /// dropped before it is fully costed or measured. Larger values prune
    /// less aggressively. Pruning is active only when [`P2Config::keep_top`]
    /// is set.
    pub prune_slack: f64,
    /// The cost model predicting every synthesized program. `None` — the
    /// default — uses the paper's α–β model
    /// ([`AlphaBetaModel`]) built from this configuration's system, algorithm
    /// and buffer size, which is bit-identical to the pre-trait pipeline.
    /// `Some(model)` substitutes any [`CostModel`] implementation; build one
    /// from a CLI name with [`P2Config::make_cost_model`].
    pub cost_model: Option<Arc<dyn CostModel>>,
    /// Whether callers that cost whole lowered programs one at a time (the
    /// benchmark's traced replay) wrap the cost model in a per-placement
    /// [`p2_cost::CachedCostModel`]. The pipeline itself predicts each
    /// distinct search-DAG step once per placement
    /// ([`p2_cost::StepTimes`]) either way, so the flag never changes a
    /// result or a prediction count of [`P2::run`](crate::P2::run); defaults
    /// to `true`, and the builder has no setter for it.
    pub cost_cache: bool,
    /// Whether the sweep shares one device-state interner and collective
    /// transposition table ([`p2_collectives::SharedTables`]) across all of
    /// its placements. Every placement reduces over the same k×k device-state
    /// universe, so sharing lets later placements reuse states and collective
    /// applications discovered by earlier ones instead of rebuilding them.
    /// Sharing never changes results: programs, their order, and every
    /// deterministic statistic are bit-identical for any worker-thread count,
    /// with shared or private tables; defaults to `true`.
    pub shared_intern: bool,
    /// Externally owned search tables of one table key, shared by every
    /// session holding them (the planner keeps one per
    /// [`P2Config::table_key`] and alone persists them). `None` — the
    /// default — lets the sweep build its own tables when `shared_intern` is
    /// set. When `Some`, the session uses these tables regardless of
    /// `shared_intern` and reports `shared_unique_device_states` as `None`
    /// (the final size belongs to the owner). Result-invisible. Set via
    /// [`P2::with_shared_tables`](crate::P2::with_shared_tables).
    pub shared_tables: Option<Arc<SharedTables>>,
}

impl P2Config {
    /// Creates a configuration with the paper's default settings.
    ///
    /// The default `bytes_per_device` is `2^29 × nodes` float32 elements,
    /// where "nodes" is the cardinality of the system's *outermost* hierarchy
    /// level — the paper's §4 setup scales the buffer with the node count.
    ///
    /// # Panics
    ///
    /// Panics if the system's hierarchy has no levels. [`p2_topology::Hierarchy`]
    /// rejects empty level lists at construction, so this assertion documents
    /// an invariant rather than a reachable failure.
    pub fn new(
        system: SystemTopology,
        parallelism_axes: Vec<usize>,
        reduction_axes: Vec<usize>,
    ) -> Self {
        let arities = system.hierarchy().arities();
        assert!(
            !arities.is_empty(),
            "the bytes_per_device default scales with the outermost-level \
             cardinality, which requires a non-empty hierarchy"
        );
        let nodes = arities[0];
        let bytes_per_device = (1u64 << 29) as f64 * nodes as f64 * 4.0;
        P2Config {
            system,
            parallelism_axes,
            reduction_axes,
            algo: NcclAlgo::Ring,
            bytes_per_device,
            max_program_size: 5,
            hierarchy_kind: HierarchyKind::ReductionAxes,
            noise_fraction: 0.03,
            seed: 0x5eed,
            repeats: 5,
            threads: 0,
            keep_top: None,
            prune_slack: 0.5,
            cost_model: None,
            cost_cache: true,
            shared_intern: true,
            shared_tables: None,
        }
    }

    /// Builds one of the built-in cost models for this configuration's
    /// system, algorithm and buffer size — the bridge from a CLI
    /// `--cost-model` name to a runnable model.
    ///
    /// [`CostModelKind::Calibrated`] wraps the α–β model with per-level
    /// scales fitted against this configuration's execution substrate (same
    /// noise, seed and repeats as the sweep's measurements), so it is as
    /// deterministic as the measurements themselves.
    ///
    /// # Errors
    ///
    /// Propagates cost-model and executor construction errors (e.g. a
    /// non-positive buffer size).
    pub fn make_cost_model(&self, kind: CostModelKind) -> Result<Arc<dyn CostModel>, P2Error> {
        let alpha_beta = Arc::new(AlphaBetaModel::new(
            self.system.clone(),
            self.algo,
            self.bytes_per_device,
        )?);
        Ok(match kind {
            CostModelKind::AlphaBeta => alpha_beta,
            CostModelKind::LogGp => Arc::new(LogGpModel::new(
                self.system.clone(),
                self.algo,
                self.bytes_per_device,
            )?),
            CostModelKind::Calibrated => {
                let exec_config = ExecConfig::new(self.algo, self.bytes_per_device)
                    .with_noise(self.noise_fraction)
                    .with_seed(self.seed)
                    .with_repeats(self.repeats);
                let executor = Executor::new(&self.system, exec_config)?;
                Arc::new(CalibratedModel::calibrate(alpha_beta, |program| {
                    executor.measure(program)
                })?)
            }
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`P2Error::InvalidConfig`] with a description of the problem.
    pub fn validate(&self) -> Result<(), P2Error> {
        if self.parallelism_axes.is_empty() {
            return Err(P2Error::InvalidConfig {
                reason: "no parallelism axes".into(),
            });
        }
        if self.reduction_axes.is_empty() {
            return Err(P2Error::InvalidConfig {
                reason: "no reduction axes".into(),
            });
        }
        if self
            .reduction_axes
            .iter()
            .any(|&a| a >= self.parallelism_axes.len())
        {
            return Err(P2Error::InvalidConfig {
                reason: "reduction axis out of range".into(),
            });
        }
        let devices = self.system.num_devices();
        let parallelism: usize = self.parallelism_axes.iter().product();
        if devices != parallelism {
            return Err(P2Error::InvalidConfig {
                reason: format!(
                    "parallelism axes multiply to {parallelism} but the system has {devices} devices"
                ),
            });
        }
        if !(self.bytes_per_device.is_finite() && self.bytes_per_device > 0.0) {
            return Err(P2Error::InvalidConfig {
                reason: "bytes_per_device must be positive".into(),
            });
        }
        if self.max_program_size == 0 {
            return Err(P2Error::InvalidConfig {
                reason: "max_program_size must be positive".into(),
            });
        }
        if self.repeats == 0 {
            return Err(P2Error::InvalidConfig {
                reason: "repeats must be positive".into(),
            });
        }
        if self.keep_top == Some(0) {
            return Err(P2Error::InvalidConfig {
                reason: "keep_top must be positive (use None to keep all)".into(),
            });
        }
        if !(self.prune_slack.is_finite() && self.prune_slack >= 0.0) {
            return Err(P2Error::InvalidConfig {
                reason: "prune_slack must be a non-negative finite number".into(),
            });
        }
        if let Some(model) = &self.cost_model {
            // The name may differ (clones, decorators); the hierarchy and
            // links must not — a model over a structurally different
            // topology would silently predict garbage.
            let model_system = model.system();
            if model_system.hierarchy() != self.system.hierarchy()
                || model_system.links() != self.system.links()
            {
                return Err(P2Error::InvalidConfig {
                    reason: format!(
                        "cost model {:?} predicts for system {:?} but the session sweeps {:?} \
                         (hierarchy and interconnects must match)",
                        model.name(),
                        model_system.name(),
                        self.system.name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// A short human-readable label for the experiment, e.g.
    /// `"a100-4node axes=[16, 2, 2] reduce=[0, 2] Ring"`.
    pub fn label(&self) -> String {
        format!(
            "{} axes={:?} reduce={:?} {}",
            self.system.name(),
            self.parallelism_axes,
            self.reduction_axes,
            self.algo
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_topology::presets;

    #[test]
    fn default_bytes_follow_the_paper() {
        let c = P2Config::new(presets::a100_system(4), vec![64], vec![0]);
        assert_eq!(c.bytes_per_device, (1u64 << 29) as f64 * 4.0 * 4.0);
        assert!(c.validate().is_ok());
        assert!(c.label().contains("a100-4node"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let sys = presets::a100_system(2);
        let valid = || P2Config::new(sys.clone(), vec![32], vec![0]);
        let with = |edit: fn(&mut P2Config)| {
            let mut config = valid();
            edit(&mut config);
            config.validate()
        };
        assert!(P2Config::new(sys.clone(), vec![], vec![0])
            .validate()
            .is_err());
        assert!(P2Config::new(sys.clone(), vec![32], vec![])
            .validate()
            .is_err());
        assert!(P2Config::new(sys.clone(), vec![32], vec![1])
            .validate()
            .is_err());
        assert!(P2Config::new(sys.clone(), vec![30], vec![0])
            .validate()
            .is_err());
        assert!(with(|c| c.bytes_per_device = -1.0).is_err());
        assert!(with(|c| c.max_program_size = 0).is_err());
        assert!(with(|c| c.repeats = 0).is_err());
        assert!(with(|c| c.keep_top = Some(0)).is_err());
        assert!(with(|c| c.prune_slack = -0.1).is_err());
        assert!(with(|c| c.prune_slack = f64::NAN).is_err());
        assert!(with(|c| {
            c.keep_top = Some(5);
            c.prune_slack = 1.0;
        })
        .is_ok());
    }

    #[test]
    fn every_cost_model_kind_builds_for_a_config() {
        let mut c = P2Config::new(presets::a100_system(2), vec![32], vec![0]);
        c.bytes_per_device = 1.0e8;
        for kind in CostModelKind::ALL {
            let model = c.make_cost_model(kind).expect("kind builds");
            assert_eq!(model.system().num_devices(), 32);
            assert_eq!(model.bytes_per_device(), 1.0e8);
            assert!(model.name().contains(match kind {
                CostModelKind::AlphaBeta => "alpha-beta",
                CostModelKind::LogGp => "loggp",
                CostModelKind::Calibrated => "calibrated",
            }));
        }
    }

    #[test]
    fn cost_model_for_another_system_is_rejected() {
        let with_model = |system, axes, model| {
            let mut config = P2Config::new(system, axes, vec![0]);
            config.cost_model = Some(model);
            config
        };
        let other = P2Config::new(presets::a100_system(4), vec![64], vec![0]);
        let model = other.make_cost_model(CostModelKind::AlphaBeta).unwrap();
        let config = with_model(presets::a100_system(2), vec![32], model);
        assert!(config.validate().is_err());
        // Same device count is not enough: a structurally different topology
        // (2-level 64-GPU A100 vs. 3-level 4x2x8 rack system) is rejected too.
        let other = P2Config::new(presets::a100_system(4), vec![64], vec![0]);
        let model = other.make_cost_model(CostModelKind::AlphaBeta).unwrap();
        let config = with_model(presets::rack_node_gpu_system(4, 2, 8), vec![64], model);
        assert!(config.validate().is_err());
        // A model over an identical topology passes regardless of its name.
        let same = P2Config::new(presets::a100_system(2), vec![32], vec![0]);
        let model = same.make_cost_model(CostModelKind::LogGp).unwrap();
        let config = with_model(presets::a100_system(2), vec![32], model);
        assert!(config.validate().is_ok());
    }
}
