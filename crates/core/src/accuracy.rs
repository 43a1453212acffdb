//! Top-k prediction accuracy of the analytic simulator against the execution
//! substrate (paper §5, Table 5).

use crate::result::ExperimentResult;

/// Top-k accuracy of the simulator over a collection of experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKReport {
    /// The `k` values, in the order they were requested.
    pub ks: Vec<usize>,
    /// For each `k`, the fraction of experiments whose predicted-best program
    /// lands within the measured top-`k`.
    pub accuracy: Vec<f64>,
    /// Number of experiments the report was computed over.
    pub experiments: usize,
}

impl TopKReport {
    /// The accuracy for a specific `k`, if it was requested.
    pub fn accuracy_for(&self, k: usize) -> Option<f64> {
        self.ks
            .iter()
            .position(|&x| x == k)
            .map(|i| self.accuracy[i])
    }
}

impl std::fmt::Display for TopKReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, acc) in self.ks.iter().zip(&self.accuracy) {
            write!(f, "top-{k}: {:.1}%  ", acc * 100.0)?;
        }
        write!(f, "({} experiments)", self.experiments)
    }
}

/// Computes the top-k accuracy of the simulator: for each experiment, the
/// program with the lowest *predicted* time is checked against the measured
/// ranking; accuracy is the fraction of experiments where it falls within the
/// measured top-k (the quantity reported in Table 5 of the paper).
pub fn top_k_accuracy(results: &[ExperimentResult], ks: &[usize]) -> TopKReport {
    let experiments = results.len();
    let accuracy = ks
        .iter()
        .map(|&k| {
            if experiments == 0 {
                return 0.0;
            }
            let hits = results
                .iter()
                .filter(|r| r.predicted_best_in_measured_top_k(k))
                .count();
            hits as f64 / experiments as f64
        })
        .collect();
    TopKReport {
        ks: ks.to_vec(),
        accuracy,
        experiments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::P2;
    use p2_topology::presets;

    #[test]
    fn accuracy_is_monotone_in_k() {
        // Two small experiments on the 2-node A100 system.
        let mut results = Vec::new();
        for reduction in [vec![0], vec![1]] {
            let session = P2::builder(presets::a100_system(2))
                .parallelism_axes([8, 4])
                .reduction_axes(reduction)
                .bytes_per_device(1.0e9)
                .repeats(2);
            results.push(session.run().unwrap());
        }
        let report = top_k_accuracy(&results, &[1, 2, 3, 5, 10]);
        assert_eq!(report.experiments, 2);
        assert!(report.accuracy.windows(2).all(|w| w[0] <= w[1]), "{report}");
        // With a generous k the prediction must land in the top set.
        assert!(report.accuracy_for(10).unwrap() > 0.49);
        assert!(report.accuracy_for(7).is_none());
    }

    #[test]
    fn empty_input_gives_zero_accuracy() {
        let report = top_k_accuracy(&[], &[1, 5]);
        assert_eq!(report.accuracy, vec![0.0, 0.0]);
        assert_eq!(report.experiments, 0);
    }
}
