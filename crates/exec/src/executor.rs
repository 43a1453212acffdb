//! The round-based execution engine.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use p2_collectives::FxHashMap;
use p2_synthesis::{LoweredProgram, LoweredStep};
use p2_topology::{SystemTopology, UplinkLoads};

use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::rng::NoiseRng;
use crate::schedule::{collective_rounds, Round};

/// Noise-free step times by exact step layout: [`LoweredStep::layout_hash`]
/// buckets, confirmed in place by [`LoweredStep::same_layout`]. `None` marks
/// a step without rounds (it takes no time and draws no noise).
type StepMemo = FxHashMap<u64, Vec<(LoweredStep, Option<f64>)>>;

/// The execution simulator: "runs" lowered reduction programs on a modelled
/// system and reports wall-clock seconds, playing the role of the paper's GCP
/// measurements.
///
/// A step's simulated time is its noise-free time — the round expansion with
/// uplink contention, plus the launch overhead — scaled by one noise draw per
/// run. The noise-free time depends on the step alone, so the executor
/// simulates each distinct step once for its lifetime and every measurement
/// of a program through it reuses the result; the noise stream is unchanged.
#[derive(Debug)]
pub struct Executor<'a> {
    system: &'a SystemTopology,
    config: ExecConfig,
    memo: Mutex<StepMemo>,
}

impl Clone for Executor<'_> {
    /// A clone with the same system and configuration and an empty step
    /// memo (memoized values never change a measurement).
    fn clone(&self) -> Self {
        Executor {
            system: self.system,
            config: self.config.clone(),
            memo: Mutex::default(),
        }
    }
}

impl<'a> Executor<'a> {
    /// Creates an executor for a system and a configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] if the configuration is invalid.
    pub fn new(system: &'a SystemTopology, config: ExecConfig) -> Result<Self, ExecError> {
        config.validate()?;
        Ok(Executor {
            system,
            config,
            memo: Mutex::default(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The system programs are executed on.
    pub fn system(&self) -> &SystemTopology {
        self.system
    }

    /// Measures a program: simulates `repeats` runs and returns their mean, in
    /// seconds (the paper averages 10 real runs per program). The runs are
    /// summed from `+0.0`, so a program without steps measures `+0.0`.
    pub fn measure(&self, program: &LoweredProgram) -> f64 {
        self.measure_steps(program.steps.iter())
    }

    /// [`Executor::measure`] over a program given as its sequence of steps,
    /// for callers that keep steps in a shared table rather than in a
    /// [`LoweredProgram`]. The sequence is walked once for the noise-free
    /// step times and once per run for the noise seed.
    pub fn measure_steps<'s>(&self, steps: impl Iterator<Item = &'s LoweredStep> + Clone) -> f64 {
        let base = self.noise_free_times(steps.clone());
        let total = (0..self.config.repeats).fold(0.0, |acc, run| {
            acc + self.run_time(steps.clone(), &base, run as u64)
        });
        total / self.config.repeats as f64
    }

    /// Measures a program and returns every simulated run.
    pub fn measure_runs(&self, program: &LoweredProgram) -> Vec<f64> {
        let base = self.noise_free_times(program.steps.iter());
        (0..self.config.repeats)
            .map(|run| self.run_time(program.steps.iter(), &base, run as u64))
            .collect()
    }

    /// Simulates a single run of a program.
    pub fn measure_once(&self, program: &LoweredProgram, run: u64) -> f64 {
        let base = self.noise_free_times(program.steps.iter());
        self.run_time(program.steps.iter(), &base, run)
    }

    /// Checks that a program only references devices of this system.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::DeviceOutOfRange`] for the first offending rank.
    pub fn validate_program(&self, program: &LoweredProgram) -> Result<(), ExecError> {
        let num_devices = self.system.num_devices();
        for step in &program.steps {
            for group in &step.groups {
                for &d in &group.devices {
                    if d >= num_devices {
                        return Err(ExecError::DeviceOutOfRange {
                            rank: d,
                            num_devices,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The noise stream of one run of the program made of `steps`: seeded by
    /// the seed, the run, then per step its collective and each group's
    /// device list.
    fn rng_for<'s>(&self, steps: impl Iterator<Item = &'s LoweredStep>, run: u64) -> NoiseRng {
        let mut hasher = DefaultHasher::new();
        self.config.seed.hash(&mut hasher);
        run.hash(&mut hasher);
        for step in steps {
            step.collective.hash(&mut hasher);
            for group in &step.groups {
                group.devices.hash(&mut hasher);
            }
        }
        NoiseRng::seed_from_u64(hasher.finish())
    }

    /// The noise-free time of every step in `steps`, each simulated only the
    /// first time this executor sees it.
    fn noise_free_times<'s>(
        &self,
        steps: impl Iterator<Item = &'s LoweredStep>,
    ) -> Vec<Option<f64>> {
        let mut memo = self.memo.lock().expect("executor step memo poisoned");
        steps
            .map(|step| {
                let hash = step.layout_hash();
                if let Some(&(_, time)) = memo
                    .get(&hash)
                    .and_then(|bucket| bucket.iter().find(|(stored, _)| stored.same_layout(step)))
                {
                    return time;
                }
                let time = self.simulate(step);
                memo.entry(hash).or_default().push((step.clone(), time));
                time
            })
            .collect()
    }

    /// One run of the program made of `steps`, which take `base` noise-free:
    /// every step with rounds draws its noise in step order from the run's
    /// seed, and the step times are summed from `+0.0`.
    fn run_time<'s>(
        &self,
        steps: impl Iterator<Item = &'s LoweredStep>,
        base: &[Option<f64>],
        run: u64,
    ) -> f64 {
        let mut rng = self.rng_for(steps, run);
        base.iter().fold(0.0, |acc, &time| {
            acc + time.map_or(0.0, |time| time * self.noise(&mut rng))
        })
    }

    /// The multiplicative measurement noise of one step (1 without noise).
    fn noise(&self, rng: &mut NoiseRng) -> f64 {
        let noise: f64 = if self.config.noise_fraction > 0.0 {
            // `next_f64` yields a uniform in [0, 1); centre it and scale.
            let z = rng.next_f64();
            1.0 + self.config.noise_fraction * (2.0 * z - 1.0)
        } else {
            1.0
        };
        noise.max(0.5)
    }

    /// Noise-free simulated time of one step, launch overhead included: the
    /// groups' round schedules are advanced in lockstep, and within each
    /// global round every uplink's bandwidth is shared by the bytes crossing
    /// it. `None` when no group has a round.
    ///
    /// Each group's schedule is a list of runs of identical rounds, so the
    /// lockstep advances a segment at a time: a segment lasts until the first
    /// active group's run ends, and a group whose runs are exhausted drops
    /// out. Every round of a segment moves the same transfers, so its time is
    /// computed once and then added once per round, in order.
    fn simulate(&self, step: &LoweredStep) -> Option<f64> {
        // Expand every group into its runs of rounds.
        let mut group_runs: Vec<_> = step
            .groups
            .iter()
            .map(|g| {
                let bytes = self.config.bytes_per_device * g.input_fraction;
                collective_rounds(step.collective, self.config.algo, g, bytes).into_iter()
            })
            .collect();
        // Every group's current run with the rounds left in it, `None` once
        // the group's runs are exhausted.
        let mut current: Vec<Option<(Round, usize)>> =
            group_runs.iter_mut().map(Iterator::next).collect();
        if current.iter().all(Option::is_none) {
            return None;
        }
        let mut loads = UplinkLoads::new(self.system);
        let mut total = 0.0;
        while let Some(segment) = current.iter().flatten().map(|&(_, left)| left).min() {
            // Aggregate the directional load on every uplink across the
            // active groups, in group order.
            for (round, _) in current.iter().flatten() {
                loads.add(&round.transfers, round.bytes);
            }
            let (round_time, latency) =
                loads.drain_max(|uplink, bytes| bytes / self.system.link(uplink.level).bandwidth());
            // Repeated additions, never a product, reproduce the per-round sum.
            let time = round_time + latency;
            for _ in 0..segment {
                total += time;
            }
            for (run, runs) in current.iter_mut().zip(&mut group_runs) {
                if let Some((_, left)) = run {
                    *left -= segment;
                    if *left == 0 {
                        *run = runs.next();
                    }
                }
            }
        }
        Some(total + self.config.launch_overhead)
    }
}

/// The measurement path before the step memo and before runs of rounds,
/// kept as the oracle the production one is pinned against: every run
/// re-simulates every step before drawing its noise, and a step is
/// simulated one round at a time with its loads in a `HashMap`.
#[cfg(test)]
impl Executor<'_> {
    fn measure_once_unmemoized(&self, program: &LoweredProgram, run: u64) -> f64 {
        let mut rng = self.rng_for(program.steps.iter(), run);
        program.steps.iter().fold(0.0, |acc, step| {
            acc + self
                .simulate_per_round(step)
                .map_or(0.0, |time| time * self.noise(&mut rng))
        })
    }

    fn measure_runs_unmemoized(&self, program: &LoweredProgram) -> Vec<f64> {
        (0..self.config.repeats)
            .map(|run| self.measure_once_unmemoized(program, run as u64))
            .collect()
    }

    fn simulate_per_round(&self, step: &LoweredStep) -> Option<f64> {
        use std::collections::HashMap;

        use crate::schedule::expanded_rounds;

        let group_rounds: Vec<Vec<Round>> = step
            .groups
            .iter()
            .map(|g| {
                let bytes = self.config.bytes_per_device * g.input_fraction;
                expanded_rounds(step.collective, self.config.algo, g, bytes)
            })
            .collect();
        let max_rounds = group_rounds.iter().map(Vec::len).max().unwrap_or(0);
        let mut total = 0.0;
        for round_idx in 0..max_rounds {
            let mut load: HashMap<(p2_topology::Uplink, bool), f64> = HashMap::new();
            let mut latency = 0.0_f64;
            for rounds in &group_rounds {
                let Some(round) = rounds.get(round_idx) else {
                    continue;
                };
                for &(src, dst) in &round.transfers {
                    for (uplink, outbound) in self.system.route(src, dst) {
                        *load.entry((uplink, outbound)).or_insert(0.0) += round.bytes;
                        latency = latency.max(self.system.link(uplink.level).latency());
                    }
                }
            }
            let round_time = load
                .iter()
                .map(|((uplink, _), bytes)| bytes / self.system.link(uplink.level).bandwidth())
                .fold(0.0, f64::max);
            total += round_time + latency;
        }
        if max_rounds == 0 {
            return None;
        }
        Some(total + self.config.launch_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_cost::{AlphaBetaModel, CostModel, NcclAlgo};
    use p2_placement::ParallelismMatrix;
    use p2_synthesis::{baseline_allreduce, GroupExec, HierarchyKind, Synthesizer};
    use p2_topology::presets;

    const GB: f64 = 1.0e9;

    #[test]
    fn measurement_is_deterministic_for_a_seed() {
        let sys = presets::a100_system(2);
        let matrix = ParallelismMatrix::new(vec![vec![2, 16]], vec![2, 16], vec![32]).unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        let exec = Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, GB).with_seed(42)).unwrap();
        assert_eq!(exec.measure(&program), exec.measure(&program));
        let other = Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, GB).with_seed(43)).unwrap();
        assert_ne!(exec.measure(&program), other.measure(&program));
    }

    #[test]
    fn measured_times_correlate_with_the_cost_model() {
        // The execution substrate and the analytic model must agree on the
        // broad ordering (that is what gives Table 5 its high top-10 accuracy).
        let sys = presets::a100_system(2);
        let bytes = 4.0 * GB;
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 4], vec![1, 4]], vec![2, 16], vec![8, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let programs = synth.synthesize(4).programs;
        let model = AlphaBetaModel::new(sys.clone(), NcclAlgo::Ring, bytes).unwrap();
        let exec = Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, bytes)).unwrap();
        let mut pairs: Vec<(f64, f64)> = programs
            .iter()
            .map(|p| {
                let lowered = synth.lower(p).unwrap();
                (model.program_time(&lowered), exec.measure(&lowered))
            })
            .collect();
        assert!(pairs.len() >= 5);
        // Spearman-style check: sort by prediction, require measured values to
        // be broadly increasing (average of the second half larger than the
        // first half).
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let half = pairs.len() / 2;
        let first: f64 = pairs[..half].iter().map(|p| p.1).sum::<f64>() / half as f64;
        let second: f64 =
            pairs[half..].iter().map(|p| p.1).sum::<f64>() / (pairs.len() - half) as f64;
        assert!(
            second > first,
            "measured times do not follow predicted ordering"
        );
    }

    #[test]
    fn cross_node_contention_shows_up_in_measurements() {
        let sys = presets::a100_system(4);
        let bytes = 4.0 * GB;
        let exec = Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, bytes)).unwrap();
        let local =
            ParallelismMatrix::new(vec![vec![1, 4], vec![4, 4]], vec![4, 16], vec![4, 16]).unwrap();
        let spread =
            ParallelismMatrix::new(vec![vec![4, 1], vec![1, 16]], vec![4, 16], vec![4, 16])
                .unwrap();
        let t_local = exec.measure(&baseline_allreduce(&local, &[0]).unwrap());
        let t_spread = exec.measure(&baseline_allreduce(&spread, &[0]).unwrap());
        assert!(
            t_spread / t_local > 50.0,
            "placement impact should be large: {t_local} vs {t_spread}"
        );
    }

    #[test]
    fn empty_programs_take_no_time() {
        let sys = presets::v100_system(2);
        let exec = Executor::new(&sys, ExecConfig::new(NcclAlgo::Tree, GB)).unwrap();
        let empty = LoweredProgram {
            steps: vec![],
            num_devices: 16,
        };
        assert_eq!(exec.measure(&empty), 0.0);
    }

    #[test]
    fn validate_program_catches_bad_ranks() {
        let sys = presets::v100_system(2);
        let exec = Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, GB)).unwrap();
        let bad = LoweredProgram {
            steps: vec![LoweredStep {
                collective: p2_collectives::Collective::AllReduce,
                groups: vec![GroupExec {
                    devices: vec![0, 31],
                    input_fraction: 1.0,
                }],
            }],
            num_devices: 16,
        };
        assert!(matches!(
            exec.validate_program(&bad),
            Err(ExecError::DeviceOutOfRange { rank: 31, .. })
        ));
    }

    #[test]
    fn noise_free_measurements_have_zero_variance() {
        let sys = presets::v100_system(2);
        let matrix = ParallelismMatrix::new(vec![vec![2, 8]], vec![2, 8], vec![16]).unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        let exec = Executor::new(
            &sys,
            ExecConfig::new(NcclAlgo::Ring, GB)
                .with_noise(0.0)
                .with_repeats(3),
        )
        .unwrap();
        let runs = exec.measure_runs(&program);
        assert!(runs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15));
    }

    /// Synthesized programs of one placement, a program whose steps differ
    /// only in their input fractions, steps without rounds (a lone device,
    /// an empty buffer) and a program made only of those.
    fn oracle_programs() -> Vec<LoweredProgram> {
        let matrix =
            ParallelismMatrix::new(vec![vec![2, 4], vec![1, 4]], vec![2, 16], vec![8, 4]).unwrap();
        let synth = Synthesizer::new(matrix, vec![0], HierarchyKind::ReductionAxes).unwrap();
        let mut programs: Vec<LoweredProgram> = synth
            .synthesize(3)
            .programs
            .iter()
            .take(6)
            .map(|p| synth.lower(p).unwrap())
            .collect();
        let mut halved = programs[0].steps[0].clone();
        for group in &mut halved.groups {
            group.input_fraction *= 0.5;
        }
        programs.push(LoweredProgram {
            steps: vec![programs[0].steps[0].clone(), halved],
            num_devices: 32,
        });
        let idle = LoweredStep {
            collective: p2_collectives::Collective::AllReduce,
            groups: vec![
                GroupExec {
                    devices: vec![3],
                    input_fraction: 1.0,
                },
                GroupExec {
                    devices: vec![4, 5],
                    input_fraction: 0.0,
                },
            ],
        };
        programs.push(LoweredProgram {
            steps: vec![idle.clone(), idle.clone()],
            num_devices: 32,
        });
        let mut mixed = programs[1].clone();
        mixed.steps.insert(1, idle);
        programs.push(mixed);
        programs
    }

    #[test]
    fn memoized_measurements_match_the_unmemoized_oracle() {
        let sys = presets::a100_system(2);
        let programs = oracle_programs();
        for algo in NcclAlgo::ALL {
            for noise in [0.0, 0.05] {
                for repeats in 1..=5 {
                    let config = ExecConfig::new(algo, GB)
                        .with_noise(noise)
                        .with_repeats(repeats)
                        .with_seed(7);
                    // One executor for the whole sweep, so later programs hit
                    // steps memoized by earlier ones.
                    let exec = Executor::new(&sys, config).unwrap();
                    for program in &programs {
                        let expected = exec.measure_runs_unmemoized(program);
                        let runs = exec.measure_runs(program);
                        assert_eq!(runs.len(), repeats);
                        for (run, (got, want)) in runs.iter().zip(&expected).enumerate() {
                            assert_eq!(got.to_bits(), want.to_bits());
                            let once = exec.measure_once(program, run as u64);
                            assert_eq!(once.to_bits(), want.to_bits());
                        }
                        let mean = expected.iter().fold(0.0, |acc, run| acc + run) / repeats as f64;
                        assert_eq!(
                            exec.measure(program).to_bits(),
                            mean.to_bits(),
                            "{algo:?} noise {noise} repeats {repeats}: {}",
                            program.signature()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_based_simulation_matches_the_per_round_oracle_bit_for_bit() {
        use p2_collectives::Collective;

        let systems = [
            presets::a100_system(2),
            presets::a100_system(4),
            presets::v100_system(2),
            presets::rack_node_gpu_system(2, 2, 4),
            presets::figure2a_system(),
        ];
        let mut rng = NoiseRng::seed_from_u64(0x5eed);
        let mut next = move |bound: usize| (rng.next_f64() * bound as f64) as usize;
        for sys in &systems {
            let n = sys.num_devices();
            for algo in NcclAlgo::ALL {
                let exec = Executor::new(sys, ExecConfig::new(algo, GB)).unwrap();
                for collective in Collective::ALL {
                    let mut steps = vec![LoweredStep {
                        collective,
                        groups: vec![GroupExec {
                            devices: (0..n).collect(),
                            input_fraction: 1.0,
                        }],
                    }];
                    for _ in 0..40 {
                        // Up to six concurrent groups of unequal sizes (so they
                        // leave the lockstep at different rounds), unsorted,
                        // possibly overlapping or a lone device, some
                        // carrying nothing; a rooted collective's root is
                        // whichever device comes first.
                        let groups = (0..1 + next(6))
                            .map(|_| {
                                let max_len = if next(3) == 0 { n } else { 9 };
                                GroupExec {
                                    devices: (0..1 + next(max_len)).map(|_| next(n)).collect(),
                                    input_fraction: [0.0, 0.25, 0.5, 1.0][next(4)],
                                }
                            })
                            .collect();
                        steps.push(LoweredStep { collective, groups });
                    }
                    for step in &steps {
                        assert_eq!(
                            exec.simulate(step).map(f64::to_bits),
                            exec.simulate_per_round(step).map(f64::to_bits),
                            "{} {algo:?} {step:?}",
                            sys.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_step_programs_measure_positive_zero() {
        let sys = presets::v100_system(2);
        let exec =
            Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, GB).with_repeats(3)).unwrap();
        let empty = LoweredProgram {
            steps: vec![],
            num_devices: 16,
        };
        assert_eq!(exec.measure(&empty).to_bits(), 0.0f64.to_bits());
        assert_eq!(exec.measure_once(&empty, 0).to_bits(), 0.0f64.to_bits());
        for run in exec.measure_runs(&empty) {
            assert_eq!(run.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn an_allreduce_tree_has_no_root_in_either_model() {
        // One group in two orders. A group's first device is the root of a
        // rooted collective, so Reduce depends on the order; AllReduce has
        // no root and must not.
        let sys = presets::a100_system(2);
        let model = AlphaBetaModel::new(sys.clone(), NcclAlgo::Tree, GB).unwrap();
        let exec =
            Executor::new(&sys, ExecConfig::new(NcclAlgo::Tree, GB).with_noise(0.0)).unwrap();
        let program = |collective, devices: [usize; 4]| LoweredProgram {
            steps: vec![LoweredStep {
                collective,
                groups: vec![GroupExec {
                    devices: devices.to_vec(),
                    input_fraction: 1.0,
                }],
            }],
            num_devices: 32,
        };
        let times = |collective| {
            [[16, 0, 1, 17], [0, 1, 16, 17]].map(|devices| {
                let p = program(collective, devices);
                (model.program_time(&p).to_bits(), exec.measure(&p).to_bits())
            })
        };
        let [(predicted, measured), (predicted_sorted, measured_sorted)] =
            times(p2_collectives::Collective::AllReduce);
        assert_eq!(predicted, predicted_sorted);
        assert_eq!(measured, measured_sorted);
        let [(predicted, measured), (predicted_sorted, measured_sorted)] =
            times(p2_collectives::Collective::Reduce);
        assert_ne!(predicted, predicted_sorted);
        assert_ne!(measured, measured_sorted);
    }

    #[test]
    fn tree_and_ring_differ() {
        let sys = presets::a100_system(4);
        let matrix = ParallelismMatrix::new(vec![vec![4, 16]], vec![4, 16], vec![64]).unwrap();
        let program = baseline_allreduce(&matrix, &[0]).unwrap();
        let ring = Executor::new(&sys, ExecConfig::new(NcclAlgo::Ring, GB)).unwrap();
        let tree = Executor::new(&sys, ExecConfig::new(NcclAlgo::Tree, GB)).unwrap();
        let (t_ring, t_tree) = (ring.measure(&program), tree.measure(&program));
        assert!(t_ring > 0.0 && t_tree > 0.0);
        assert!(
            (t_ring - t_tree).abs() / t_ring > 0.01,
            "algorithms should not be identical"
        );
    }
}
