//! The comparable form of a sweep's output: every placement's deterministic
//! counts and every program's signature with the exact bits of its predicted
//! and measured times. Output checks compare these rows and their digest.

use p2_core::ExperimentResult;

/// One evaluated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramRow {
    /// `Collective-Collective-…` signature of the lowered program.
    pub signature: String,
    /// The program in the paper's DSL.
    pub program: String,
    /// Bits of the predicted time.
    pub predicted: u64,
    /// Bits of the measured time.
    pub measured: u64,
}

/// One placement of one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementRow {
    /// The parallelism matrix.
    pub matrix: String,
    /// Programs the search emitted.
    pub programs_emitted: usize,
    /// Programs kept as evaluations.
    pub retained: usize,
    /// Programs cut by the cost bound or displaced from the top-K heap.
    pub pruned: usize,
    /// Distinct synthesis states expanded.
    pub states_explored: usize,
    /// Distinct device states of the placement's search universe.
    pub unique_device_states: usize,
    /// Bits of the AllReduce baseline's predicted time.
    pub allreduce_predicted: u64,
    /// Bits of the AllReduce baseline's measured time.
    pub allreduce_measured: u64,
    /// Retained programs, in the result's order (fastest measured first).
    pub programs: Vec<ProgramRow>,
}

/// The rows of one session's result.
pub fn rows_of(result: &ExperimentResult) -> Vec<PlacementRow> {
    result
        .placements
        .iter()
        .map(|placement| PlacementRow {
            matrix: placement.matrix.to_string(),
            programs_emitted: placement.num_programs,
            retained: placement.programs_retained,
            pruned: placement.programs_pruned,
            states_explored: placement.states_explored,
            unique_device_states: placement.unique_device_states,
            allreduce_predicted: placement.allreduce_predicted.to_bits(),
            allreduce_measured: placement.allreduce_measured.to_bits(),
            programs: placement
                .programs
                .iter()
                .map(|p| ProgramRow {
                    signature: p.signature(),
                    program: p.program.to_string(),
                    predicted: p.predicted_seconds.to_bits(),
                    measured: p.measured_seconds.to_bits(),
                })
                .collect(),
        })
        .collect()
}

/// Programs emitted across the sessions.
pub fn programs_emitted(sessions: &[Vec<PlacementRow>]) -> usize {
    sessions
        .iter()
        .flatten()
        .map(|placement| placement.programs_emitted)
        .sum()
}

/// A 64-bit FNV-1a digest of every field of one session's rows, in order.
pub fn session_digest(session: &[PlacementRow]) -> u64 {
    let mut d = Fnv::new();
    d.u64(session.len() as u64);
    for p in session {
        d.str(&p.matrix);
        for n in [
            p.programs_emitted,
            p.retained,
            p.pruned,
            p.states_explored,
            p.unique_device_states,
        ] {
            d.u64(n as u64);
        }
        d.u64(p.allreduce_predicted);
        d.u64(p.allreduce_measured);
        d.u64(p.programs.len() as u64);
        for q in &p.programs {
            d.str(&q.signature);
            d.str(&q.program);
            d.u64(q.predicted);
            d.u64(q.measured);
        }
    }
    d.0
}

/// The digest of a pass: its sessions' digests, in order.
pub fn combine(session_digests: &[u64]) -> u64 {
    let mut d = Fnv::new();
    for &s in session_digests {
        d.u64(s);
    }
    d.0
}

/// The digest of a pass's rows.
pub fn digest(sessions: &[Vec<PlacementRow>]) -> u64 {
    let digests: Vec<u64> = sessions.iter().map(|s| session_digest(s)).collect();
    combine(&digests)
}

/// FNV-1a over length-prefixed fields.
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in a word.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Mixes in a length-prefixed string.
    pub fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }
}
