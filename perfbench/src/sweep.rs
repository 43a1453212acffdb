//! The two sweep workloads: `paper_measure` (the Table 4 specs measured
//! exhaustively) and `shortlist_deep` (the paper's deployment mode on a deep
//! rack search plus the Table 4 specs). Both run every session of a pass on
//! one `run_batch` pool.

use std::time::Instant;

use p2_core::{run_batch, BatchOptions, BatchOutcome, ExperimentResult, RunMode, P2};
use p2_topology::presets;

use crate::layers::{layer_metrics, LayerInputs};
use crate::replay::{replay_session, LayerCounters};
use crate::report::{noise_seed, Report, Scale};
use crate::rows::{combine, digest, programs_emitted, rows_of, session_digest, PlacementRow};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;

/// Shortlist length of `shortlist_deep`.
const SHORTLIST: usize = 10;

/// Which sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Table 4 specs F–L, every program measured.
    PaperMeasure,
    /// Rack `[16]` at size 7 plus Table 4 at size 5, shortlist of 10.
    ShortlistDeep,
}

impl Sweep {
    /// The sessions of one pass, with the substrate noise seed from `seed`.
    pub fn sessions(self, seed: u64, scale: Scale) -> Result<Vec<P2>, String> {
        let noise = noise_seed(seed);
        let (mode, table4_size) = match self {
            Sweep::PaperMeasure => (RunMode::Measure, 5),
            Sweep::ShortlistDeep => (RunMode::Shortlist(SHORTLIST), 5),
        };
        let specs = p2_bench::table4_specs();
        let specs = match scale {
            Scale::Full => &specs[..],
            Scale::Tiny => &specs[..1],
        };
        let mut sessions = Vec::new();
        if self == Sweep::ShortlistDeep {
            sessions.push(
                P2::builder(presets::rack_node_gpu_system(2, 2, 4))
                    .parallelism_axes([16])
                    .reduction_axes([0])
                    .max_program_size(scale.pick(7, 4))
                    .seed(noise)
                    .mode(mode)
                    .build()
                    .map_err(|e| e.to_string())?,
            );
        }
        for spec in specs {
            sessions.push(
                spec.session()
                    .max_program_size(scale.pick(table4_size, 3))
                    .seed(noise)
                    .mode(mode)
                    .build()
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(sessions)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Sweep::PaperMeasure => "paper_measure",
            Sweep::ShortlistDeep => "shortlist_deep",
        }
    }

    /// The pinned number of programs a pass emits across its sessions.
    pub fn expected_programs(self, scale: Scale) -> usize {
        match (self, scale) {
            // Table 4 at size 5.
            (Sweep::PaperMeasure, Scale::Full) => 1497,
            // Rack `[16]` at size 7 plus Table 4 at size 5.
            (Sweep::ShortlistDeep, Scale::Full) => 8749 + 1497,
            (Sweep::PaperMeasure, Scale::Tiny) => TINY_SPEC_F,
            (Sweep::ShortlistDeep, Scale::Tiny) => TINY_RACK + TINY_SPEC_F,
        }
    }
}

/// Single-thread session digests recorded with `--record`, one line per
/// workload and seed: `<workload> <seed> <session digest (hex)>...`.
const RECORDED: &str = include_str!("../digests.txt");

/// The digests of a `--record` line for `sweep` and `seed`.
fn parse_record(line: &str, sweep: Sweep, seed: u64) -> Option<Vec<u64>> {
    let mut fields = line.split_whitespace();
    if fields.next()? != sweep.name() || fields.next()?.parse::<u64>().ok()? != seed {
        return None;
    }
    fields
        .map(|hex| u64::from_str_radix(hex, 16).ok())
        .collect()
}

fn recorded_digests(sweep: Sweep, seed: u64) -> Option<Vec<u64>> {
    RECORDED
        .lines()
        .find_map(|line| parse_record(line, sweep, seed))
}

/// Runs this benchmark's `--record` for `seed` in a child process.
fn digests_from_child(sweep: Sweep, seed: u64) -> Result<Vec<u64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", sweep.name(), "--seconds", "1", "--record"])
        .args(["--seed", &seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the single-thread run: {e}"))?;
    if !out.status.success() {
        return Err(format!("single-thread run exited with {}", out.status));
    }
    let line = String::from_utf8_lossy(&out.stdout);
    parse_record(line.trim(), sweep, seed)
        .ok_or_else(|| format!("malformed single-thread record: {line}"))
}

/// Runs the full-size sessions of `seed` on one thread and returns the
/// line `--record` appends to `digests.txt`.
pub fn record(sweep: Sweep, seed: u64) -> Result<String, String> {
    let sessions = sweep.sessions(seed, Scale::Full)?;
    let (_, outcome) = run_pass(&sessions, 1)?;
    let rows = rows_of_all(&outcome.results);
    let programs = programs_emitted(&rows);
    if programs != sweep.expected_programs(Scale::Full) {
        return Err(format!(
            "{programs} programs, pinned {}",
            sweep.expected_programs(Scale::Full)
        ));
    }
    let digests: Vec<String> = rows
        .iter()
        .map(|s| format!("{:016x}", session_digest(s)))
        .collect();
    Ok(format!("{} {seed} {}", sweep.name(), digests.join(" ")))
}

/// Programs of spec F at size 3.
const TINY_SPEC_F: usize = 32;
/// Programs of rack `[16]` at size 4.
const TINY_RACK: usize = 385;

/// What a pass's output must be: the pinned program count and the digest
/// of the single-threaded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Programs emitted across the pass's sessions.
    pub programs: usize,
    /// Digest of every session's rows.
    pub digest: u64,
}

/// The problems with one pass's rows, if any.
pub fn check_rows(rows: &[Vec<PlacementRow>], expected: &Expected) -> Vec<String> {
    let mut problems = Vec::new();
    let programs = programs_emitted(rows);
    if programs != expected.programs {
        problems.push(format!(
            "program count {programs} != pinned {}",
            expected.programs
        ));
    }
    let got = digest(rows);
    if got != expected.digest {
        problems.push(format!(
            "digest {got:016x} != single-thread digest {:016x}",
            expected.digest
        ));
    }
    problems
}

fn rows_of_all(results: &[ExperimentResult]) -> Vec<Vec<PlacementRow>> {
    results.iter().map(rows_of).collect()
}

fn run_pass(sessions: &[P2], threads: usize) -> Result<(f64, BatchOutcome), String> {
    let started = Instant::now();
    let outcome = run_batch(sessions, &BatchOptions::with_threads(threads), &())
        .map_err(|e| e.to_string())?;
    Ok((started.elapsed().as_secs_f64(), outcome))
}

/// Best-AllReduce-placement time over best-program time, per session.
fn speedups(results: &[ExperimentResult]) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| {
            let allreduce = r.best_allreduce_placement()?.allreduce_measured;
            let best = r.best_overall()?.measured_seconds;
            Some(allreduce / best)
        })
        .collect()
}

/// Runs one sweep workload and reports its metrics.
pub fn run(
    sweep: Sweep,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    scale: Scale,
) -> Result<Report, String> {
    let mut report = Report::default();
    let sessions = sweep.sessions(seed, scale)?;
    if trace {
        return traced(report, sweep, seed, scale, &sessions, threads);
    }

    // The single-threaded digests every pass must reproduce bit for bit:
    // recorded for this seed, or computed on one thread. At full size a
    // child process computes them, so this process's peak memory is that of
    // the timed passes whether or not the seed was recorded.
    let session_digests = match (scale, recorded_digests(sweep, seed)) {
        (Scale::Full, Some(digests)) => {
            report.note("single-thread digests recorded for this seed".to_string());
            digests
        }
        (Scale::Full, None) => {
            let started = Instant::now();
            let digests = digests_from_child(sweep, seed)?;
            report.note(format!(
                "single-thread digests computed by a child process in {:.3} s",
                started.elapsed().as_secs_f64()
            ));
            digests
        }
        (Scale::Tiny, _) => {
            let (serial_wall, reference) = run_pass(&sessions, 1)?;
            let rows = rows_of_all(&reference.results);
            check_reference(&mut report, sweep, scale, &rows, serial_wall);
            rows.iter().map(|s| session_digest(s)).collect()
        }
    };
    if session_digests.len() != sessions.len() {
        return Err(format!(
            "{} recorded digests for {} sessions",
            session_digests.len(),
            sessions.len()
        ));
    }
    let expected = Expected {
        programs: sweep.expected_programs(scale),
        digest: combine(&session_digests),
    };

    let mut walls = Vec::new();
    let mut speedup = Vec::new();
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        report.attempted += sessions.len() as u64;
        let (wall, outcome) = match run_pass(&sessions, threads) {
            Ok(pass) => pass,
            Err(e) => {
                report.failed += sessions.len() as u64;
                report.problem(e);
                break;
            }
        };
        walls.push(wall);
        let rows = rows_of_all(&outcome.results);
        for (i, session) in rows.iter().enumerate() {
            if session_digest(session) != session_digests[i] {
                report.failed += 1;
                report.problem(format!(
                    "pass {}: session {i} differs from the single-thread run",
                    walls.len()
                ));
            }
        }
        for p in check_rows(&rows, &expected) {
            report.problem(format!("pass {}: {p}", walls.len()));
        }
        if speedup.is_empty() {
            speedup = speedups(&outcome.results);
            if speedup.len() != sessions.len() {
                report.problem("a session produced no program".to_string());
            }
        }
    }
    if walls.is_empty() || speedup.is_empty() {
        return Ok(report);
    }
    // Every session's plan arrives when its batch returns, so each session
    // of a pass is one plan sample with the pass's latency.
    let plan_ms: Vec<f64> = walls
        .iter()
        .flat_map(|w| std::iter::repeat_n(w * 1e3, sessions.len()))
        .collect();
    let total: f64 = walls.iter().sum();
    report.note(format!("pass walls (s): {walls:?}"));
    report.metric(
        "sweep_s",
        median(&walls),
        "s",
        format!("median of {} passes", walls.len()),
    );
    report.metric(
        "speedup_geomean",
        geomean(&speedup),
        "x",
        format!("over {} specs", speedup.len()),
    );
    report.metric(
        "plan_p50_ms",
        median(&plan_ms),
        "ms",
        format!("n={}", plan_ms.len()),
    );
    report.metric(
        "plan_p99_ms",
        percentile(&plan_ms, 99.0),
        "ms",
        format!("n={}", plan_ms.len()),
    );
    report.metric(
        "miss_p50_ms",
        median(&plan_ms),
        "ms",
        format!("n={}, every plan is synthesized", plan_ms.len()),
    );
    report.metric(
        "plan_rps",
        plan_ms.len() as f64 / total,
        "1/s",
        format!("{} plans in {total:.3} s", plan_ms.len()),
    );
    report.absent("hit_p50_us", "us", "no cache in a sweep");
    Ok(report)
}

/// Pins the single-threaded run's program count and returns what every
/// other run of the same sessions must reproduce.
fn check_reference(
    report: &mut Report,
    sweep: Sweep,
    scale: Scale,
    rows: &[Vec<PlacementRow>],
    serial_wall: f64,
) -> Expected {
    let expected = Expected {
        programs: sweep.expected_programs(scale),
        digest: digest(rows),
    };
    let programs = programs_emitted(rows);
    if programs != expected.programs {
        report.problem(format!(
            "single-thread run emitted {programs} programs, pinned {}",
            expected.programs
        ));
    }
    report.note(format!(
        "single-thread digest {:016x}, {programs} programs, {serial_wall:.3} s",
        expected.digest
    ));
    expected
}

/// The traced run: per session, the single-threaded pipeline, then the
/// replay untraced and traced, back to back so that drift in machine speed
/// hits all three alike. The replay must reproduce the pipeline's rows.
fn traced(
    mut report: Report,
    sweep: Sweep,
    seed: u64,
    scale: Scale,
    sessions: &[P2],
    threads: usize,
) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut untraced = Tracer::new(false, epoch);
    let mut tracer = Tracer::new(true, epoch);
    let mut scratch = LayerCounters::default();
    let mut counters = LayerCounters::default();
    let (mut serial_wall, mut untraced_wall, mut traced_wall) = (0.0, 0.0, 0.0);
    let mut reference_rows = Vec::new();
    let mut replay_rows = Vec::new();
    for (i, session) in sessions.iter().enumerate() {
        let (wall, outcome) = run_pass(std::slice::from_ref(session), 1)?;
        serial_wall += wall;
        reference_rows.push(rows_of(&outcome.results[0]));
        let started = Instant::now();
        replay_session(session, &mut untraced, i as u64, &mut scratch)?;
        untraced_wall += started.elapsed().as_secs_f64();
        let started = Instant::now();
        replay_rows.push(replay_session(
            session,
            &mut tracer,
            i as u64,
            &mut counters,
        )?);
        traced_wall += started.elapsed().as_secs_f64();
    }
    let expected = check_reference(&mut report, sweep, scale, &reference_rows, serial_wall);
    if let (Scale::Full, Some(recorded)) = (scale, recorded_digests(sweep, seed)) {
        let fresh: Vec<u64> = reference_rows.iter().map(|s| session_digest(s)).collect();
        if fresh != recorded {
            report.problem(
                "single-thread run differs from the digests recorded for this seed".to_string(),
            );
        }
    }
    if replay_rows != reference_rows {
        report.failed += 1;
        report.problem("traced replay differs from the pipeline's result".to_string());
    } else {
        report.note(format!(
            "replay == pipeline: {} programs, digest {:016x}",
            programs_emitted(&replay_rows),
            digest(&replay_rows)
        ));
    }

    report.attempted += sessions.len() as u64;
    let (pass_wall, outcome) = run_pass(sessions, threads)?;
    for p in check_rows(&rows_of_all(&outcome.results), &expected) {
        report.failed += 1;
        report.problem(format!("pipeline pass: {p}"));
    }
    report.note(format!(
        "pipeline pass {pass_wall:.3} s on {threads} threads; serial pipeline {serial_wall:.3} s; replay untraced {untraced_wall:.3} s, traced {traced_wall:.3} s"
    ));
    report.trace_json = Some(tracer.to_json());
    let inputs = LayerInputs {
        tracer: &tracer,
        counters: &counters,
        serial_wall_s: serial_wall,
        tracing_overhead_s: traced_wall - untraced_wall,
        par: Some((outcome.steals as f64, outcome.peak_in_flight as f64)),
        service: None,
        cores: threads,
    };
    layer_metrics(&mut report, &inputs);
    Ok(report)
}
