//! A LogGP-style cost model: per-message overhead and gap terms on top of the
//! bandwidth/contention machinery the α–β model uses.

use p2_synthesis::LoweredStep;
use p2_topology::SystemTopology;

use crate::algo::NcclAlgo;
use crate::error::CostError;
use crate::model::{CostModel, StepCost};
use crate::patterns::{step_cost_with, GroupTerms};

/// Default per-message CPU/NIC injection overhead `o`, in seconds.
pub const DEFAULT_OVERHEAD: f64 = 1.0e-6;
/// Default inter-message gap `g`, in seconds.
pub const DEFAULT_GAP: f64 = 0.5e-6;

/// A LogGP-style interconnect model ([Alexandrov et al.]): each communication
/// round pays the wire latency `L` of the slowest link crossed *plus* a fixed
/// send/receive overhead `2o` and an inter-message gap `g`, while the
/// long-message term `G` (gap per byte) is the reciprocal uplink bandwidth,
/// inflated by contention exactly as in the α–β model.
///
/// Compared to [`AlphaBetaModel`](crate::AlphaBetaModel), this model charges
/// more for latency-bound programs (many small rounds) and identically for
/// bandwidth-bound ones, which shifts the trade-off between deep hierarchical
/// programs and flat collectives on small buffers.
///
/// [Alexandrov et al.]: https://doi.org/10.1006/jpdc.1997.1346
#[derive(Debug, Clone)]
pub struct LogGpModel {
    system: SystemTopology,
    algo: NcclAlgo,
    bytes_per_device: f64,
    overhead: f64,
    gap: f64,
}

impl LogGpModel {
    /// Creates a LogGP-style model with the default `o` and `g` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidBytes`] when the byte count is not a
    /// positive finite number.
    pub fn new(
        system: SystemTopology,
        algo: NcclAlgo,
        bytes_per_device: f64,
    ) -> Result<Self, CostError> {
        if !(bytes_per_device.is_finite() && bytes_per_device > 0.0) {
            return Err(CostError::InvalidBytes {
                bytes: bytes_per_device,
            });
        }
        Ok(LogGpModel {
            system,
            algo,
            bytes_per_device,
            overhead: DEFAULT_OVERHEAD,
            gap: DEFAULT_GAP,
        })
    }

    /// Overrides the per-message overhead `o` (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidParameter`] for negative or non-finite
    /// values (a negative overhead would break prefix admissibility).
    pub fn with_overhead(mut self, overhead: f64) -> Result<Self, CostError> {
        if !(overhead.is_finite() && overhead >= 0.0) {
            return Err(CostError::InvalidParameter {
                parameter: "overhead",
                value: overhead,
            });
        }
        self.overhead = overhead;
        Ok(self)
    }

    /// Overrides the inter-message gap `g` (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidParameter`] for negative or non-finite
    /// values.
    pub fn with_gap(mut self, gap: f64) -> Result<Self, CostError> {
        if !(gap.is_finite() && gap >= 0.0) {
            return Err(CostError::InvalidParameter {
                parameter: "gap",
                value: gap,
            });
        }
        self.gap = gap;
        Ok(self)
    }

    /// The NCCL algorithm assumed for every collective call.
    pub fn algo(&self) -> NcclAlgo {
        self.algo
    }

    /// LogGP: the shared G term (contention-inflated gap-per-byte through
    /// the slowest uplink) plus `rounds × (L + 2o + g)` — every round pays
    /// the wire latency, the send+receive overhead, and the gap before the
    /// next message can be injected.
    pub(crate) fn group_seconds(&self, t: &GroupTerms) -> f64 {
        t.bandwidth_seconds + t.rounds * (t.wire_latency + 2.0 * self.overhead + self.gap)
    }
}

impl CostModel for LogGpModel {
    fn name(&self) -> &str {
        "loggp"
    }

    fn system(&self) -> &SystemTopology {
        &self.system
    }

    fn bytes_per_device(&self) -> f64 {
        self.bytes_per_device
    }

    fn step_cost(&self, step: &LoweredStep) -> StepCost {
        step_cost_with(&self.system, step, self.algo, self.bytes_per_device, |t| {
            self.group_seconds(t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlphaBetaModel;
    use p2_placement::ParallelismMatrix;
    use p2_synthesis::baseline_allreduce;
    use p2_topology::presets;

    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn loggp_charges_at_least_the_alpha_beta_time() {
        // Same bandwidth machinery plus non-negative per-round terms.
        let matrix =
            ParallelismMatrix::new(vec![vec![4, 1], vec![1, 16]], vec![4, 16], vec![4, 16])
                .unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        for algo in NcclAlgo::ALL {
            let ab = AlphaBetaModel::new(presets::a100_system(4), algo, GIB).unwrap();
            let lg = LogGpModel::new(presets::a100_system(4), algo, GIB).unwrap();
            assert!(lg.program_time(&program) >= ab.program_time(&program));
        }
    }

    #[test]
    fn overhead_dominates_small_messages() {
        let matrix = ParallelismMatrix::new(vec![vec![4, 16]], vec![4, 16], vec![64]).unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        // 64 bytes: the transfer itself is negligible, the o/g terms are not.
        let tiny = LogGpModel::new(presets::a100_system(4), NcclAlgo::Ring, 64.0).unwrap();
        let silent = LogGpModel::new(presets::a100_system(4), NcclAlgo::Ring, 64.0)
            .unwrap()
            .with_overhead(0.0)
            .unwrap()
            .with_gap(0.0)
            .unwrap();
        assert!(tiny.program_time(&program) > silent.program_time(&program));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let model = || LogGpModel::new(presets::a100_system(2), NcclAlgo::Ring, GIB).unwrap();
        assert!(model().with_overhead(-1.0e-6).is_err());
        assert!(model().with_gap(f64::NAN).is_err());
        assert!(LogGpModel::new(presets::a100_system(2), NcclAlgo::Ring, -1.0).is_err());
    }
}
