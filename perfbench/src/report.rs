//! What a run reports: end-to-end and per-layer metrics, human-readable
//! notes, output-check problems, and the operation counts.

/// Full-size workloads, or tiny ones that run in seconds (for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Small sizes with the same code paths.
    Tiny,
}

impl Scale {
    /// `full` or `tiny` by scale.
    pub fn pick(self, full: usize, tiny: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// SplitMix64: the seeded generator behind every generated input.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The execution substrate's noise seed for a benchmark seed.
pub fn noise_seed(seed: u64) -> u64 {
    SplitMix64(seed).next_u64()
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (printed as the result with tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed as the result with tracing on).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines.
    pub lines: Vec<String>,
    /// Output-check failures.
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or mismatched.
    pub failed: u64,
    /// The traced run's spans, as JSON.
    pub trace_json: Option<String>,
}

impl Report {
    /// Records an end-to-end metric with a note on how it was taken.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, detail: String) {
        self.lines
            .push(format!("{name} = {value} {unit} ({detail})"));
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Prints an end-to-end number that `BENCHMARK.json` does not list.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, detail: String) {
        self.lines
            .push(format!("{name} = {value} {unit} ({detail})"));
    }

    /// Prints that a metric does not apply to this workload.
    pub fn absent(&mut self, name: &str, unit: &'static str, why: &str) {
        self.lines.push(format!("{name} = n/a {unit} ({why})"));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push(format!("{name} = {value} {unit}"));
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records an output-check failure.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }
}
