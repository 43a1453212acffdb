//! The `planner_mix` workload: a closed loop of two clients calling
//! `Planner::plan` on one in-process planner with a plan store and a table
//! store, over a seeded stream with skewed popularity. Half-way through the
//! stream the planner is shut down and restarted on the same directories,
//! so later requests hit the disk store and misses warm-start from saved
//! table snapshots.

use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use p2_core::{run_batch, BatchOptions, ExperimentResult, RunMode};
use p2_service::{Plan, PlanRequest, PlanSource, Planner, PlannerConfig, PlannerStats};
use p2_topology::{presets, SystemTopology};

use crate::layers::{layer_metrics, LayerInputs, ServiceLayer};
use crate::replay::{replay_session, LayerCounters};
use crate::report::{noise_seed, Report, Scale, SplitMix64};
use crate::rows::{rows_of, Fnv};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;

/// Client threads of the closed loop.
const CLIENTS: usize = 2;
/// Buffer sizes each request family is asked for: new fingerprints under
/// one table key.
const BYTES: [f64; 3] = [2.5e8, 1.0e9, 4.0e9];

/// The seeded inputs: a pool of distinct requests and the stream of pool
/// indices the clients send, restarting the planner at `restart_at`.
pub struct Inputs {
    /// Distinct requests.
    pub pool: Vec<PlanRequest>,
    /// Pool index of each request in send order.
    pub stream: Vec<usize>,
    /// Stream position at which the planner restarts.
    pub restart_at: usize,
}

/// The request families: rack, A100 and V100 presets at several axes,
/// chosen so that every miss costs about the same (about 20 ms on two
/// cores), which keeps miss percentiles from hinging on which heavy request
/// a light one queued behind.
fn families(scale: Scale) -> Vec<(SystemTopology, Vec<usize>, Vec<usize>)> {
    let all = vec![
        (presets::rack_node_gpu_system(2, 2, 4), vec![4, 4], vec![0]),
        (presets::a100_system(2), vec![8, 4], vec![0]),
        (presets::a100_system(2), vec![4, 8], vec![1]),
        (presets::a100_system(4), vec![4, 16], vec![0]),
        (presets::a100_system(4), vec![16, 4], vec![1]),
        (presets::v100_system(4), vec![8, 4], vec![0]),
        (presets::v100_system(4), vec![4, 8], vec![1]),
    ];
    match scale {
        Scale::Full => all,
        Scale::Tiny => all.into_iter().skip(1).take(1).collect(),
    }
}

/// Draws `n` items from `order` with Zipf(1) popularity by rank.
fn zipf(rng: &mut SplitMix64, order: &[usize], n: usize) -> Vec<usize> {
    let cumulative: Vec<f64> = order
        .iter()
        .enumerate()
        .scan(0.0, |sum, (rank, _)| {
            *sum += 1.0 / (rank + 1) as f64;
            Some(*sum)
        })
        .collect();
    let total = cumulative.last().copied().unwrap_or(0.0);
    (0..n)
        .map(|_| {
            let x = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c <= x);
            order[rank.min(order.len() - 1)]
        })
        .collect()
}

impl Inputs {
    /// Generates the pool and stream from `seed`. Every seed requests the
    /// same pool (so the set of misses is the same); the seed decides the
    /// noise seed, the popularity ranking, the send order and which buffer
    /// size of each family first appears after the restart.
    pub fn generate(seed: u64, scale: Scale) -> Inputs {
        let noise = noise_seed(seed);
        let mut rng = SplitMix64(noise);
        let mut pool = Vec::new();
        let mut late = Vec::new();
        for (family, (system, axes, reduce)) in families(scale).into_iter().enumerate() {
            let late_variant = rng.below(BYTES.len());
            for (variant, bytes) in BYTES.iter().enumerate() {
                if variant == late_variant {
                    late.push(family * BYTES.len() + variant);
                }
                pool.push(
                    PlanRequest::new(system.clone(), axes.clone(), reduce.clone())
                        .with_bytes_per_device(*bytes)
                        .with_repeats(2)
                        .with_keep_top(8)
                        .with_mode(RunMode::Shortlist(5))
                        .with_seed(noise),
                );
            }
        }
        let n = scale.pick(1200, 40);
        let restart_at = n / 2;
        let mut early: Vec<usize> = (0..pool.len()).filter(|i| !late.contains(i)).collect();
        rng.shuffle(&mut early);
        let mut everything: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut everything);
        let mut stream = zipf(&mut rng, &early, restart_at);
        let mut second = zipf(&mut rng, &everything, n - restart_at);
        // Every late request appears after the restart, whatever the draw.
        for &l in &late {
            if !second.contains(&l) {
                loop {
                    let at = rng.below(second.len());
                    if !late.contains(&second[at]) {
                        second[at] = l;
                        break;
                    }
                }
            }
        }
        stream.extend(second);
        Inputs {
            pool,
            stream,
            restart_at,
        }
    }
}

/// One answered (or refused) request.
struct Served {
    latency_s: f64,
    outcome: Result<(PlanSource, Arc<Plan>), String>,
}

struct PassOut {
    wall_s: f64,
    served: Vec<Served>,
    stats: Vec<PlannerStats>,
    tracer: Tracer,
}

fn planner_config(dir: &Path, threads: usize) -> PlannerConfig {
    PlannerConfig {
        threads,
        store_dir: Some(dir.join("plans")),
        tables_dir: Some(dir.join("tables")),
        ..PlannerConfig::default()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn client(
    planner: &Planner,
    inputs: &Inputs,
    range: &Range<usize>,
    cursor: &AtomicUsize,
    tenant: &str,
    tracer: &mut Tracer,
) -> Vec<Served> {
    let mut served = Vec::new();
    loop {
        let i = range.start + cursor.fetch_add(1, Ordering::Relaxed);
        if i >= range.end {
            return served;
        }
        let request = inputs.pool[inputs.stream[i]].clone();
        tracer.span("service.fingerprint", i as u64, || request.fingerprint());
        let started = Instant::now();
        tracer.begin("service.plan", i as u64);
        let outcome = planner.plan(tenant, request);
        tracer.end();
        served.push(Served {
            latency_s: started.elapsed().as_secs_f64(),
            outcome: outcome
                .map(|response| (response.source, response.plan))
                .map_err(|e| e.to_string()),
        });
    }
}

/// One full pass over the stream from empty stores, restart included.
fn run_pass(
    inputs: &Inputs,
    dir: &Path,
    threads: usize,
    trace: bool,
    epoch: Instant,
) -> Result<PassOut, String> {
    fresh_dir(dir)?;
    let config = planner_config(dir, threads);
    let mut out = PassOut {
        wall_s: 0.0,
        served: Vec::new(),
        stats: Vec::new(),
        tracer: Tracer::new(trace, epoch),
    };
    let started = Instant::now();
    for range in [0..inputs.restart_at, inputs.restart_at..inputs.stream.len()] {
        let planner = Planner::new(config.clone()).map_err(|e| e.to_string())?;
        let cursor = AtomicUsize::new(0);
        let per_client: Vec<(Tracer, Vec<Served>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (planner, cursor, range) = (&planner, &cursor, &range);
                    s.spawn(move || {
                        let mut tracer = Tracer::new(trace, epoch);
                        let tenant = format!("client-{c}");
                        let served = client(planner, inputs, range, cursor, &tenant, &mut tracer);
                        (tracer, served)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        planner.shutdown();
        out.stats.push(planner.stats());
        for (tracer, served) in per_client {
            out.tracer.merge(tracer);
            out.served.extend(served);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    Ok(out)
}

/// A plan's versioned record (every entry's exact time bits included)
/// without the wall-clock synthesis time, the one field that never
/// reproduces.
fn plan_record(plan: &Plan) -> String {
    let mut plan = plan.clone();
    plan.stats.synthesis_micros = 0;
    plan.to_json().to_string()
}

/// Digest of the plans' records, in order.
pub fn plans_digest<'a>(plans: impl Iterator<Item = &'a Plan>) -> u64 {
    let mut d = Fnv::new();
    for plan in plans {
        d.str(&plan_record(plan));
    }
    d.0
}

/// The single-threaded run of every pool request, outside the planner.
struct Reference {
    results: Vec<ExperimentResult>,
    plans: Vec<Plan>,
    wall_s: f64,
    digest: u64,
}

fn reference(inputs: &Inputs) -> Result<Reference, String> {
    let mut results = Vec::new();
    let mut plans = Vec::new();
    let started = Instant::now();
    for request in &inputs.pool {
        let session = request.session().map_err(|e| e.to_string())?;
        let mut outcome = run_batch(&[session], &BatchOptions::with_threads(1), &())
            .map_err(|e| e.to_string())?;
        let result = outcome.results.remove(0);
        plans.push(Plan::from_result(
            request.fingerprint(),
            &result,
            request.top_k,
        ));
        results.push(result);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let digest = plans_digest(plans.iter());
    Ok(Reference {
        results,
        plans,
        wall_s,
        digest,
    })
}

/// Checks every response against the first serve of its fingerprint and
/// against the single-threaded reference; returns the number of failed or
/// mismatched requests.
fn check_pass(
    pass: &PassOut,
    reference: &Reference,
    by_fingerprint: &HashMap<String, usize>,
    first: &mut HashMap<String, Arc<Plan>>,
    report: &mut Report,
) -> u64 {
    let mut failed = 0;
    for served in &pass.served {
        match &served.outcome {
            Err(e) => {
                failed += 1;
                report.problem(format!("request failed: {e}"));
            }
            Ok((_, plan)) => {
                let fingerprint = plan.fingerprint.to_string();
                let record = plan_record(plan);
                let first_record = plan_record(
                    first
                        .entry(fingerprint.clone())
                        .or_insert_with(|| Arc::clone(plan)),
                );
                let matches_reference = by_fingerprint
                    .get(&fingerprint)
                    .is_some_and(|&i| plan_record(&reference.plans[i]) == record);
                if record != first_record || !matches_reference {
                    failed += 1;
                    report.problem(format!(
                        "plan {fingerprint} differs from its first serve or the single-thread run"
                    ));
                }
            }
        }
    }
    let served_digest = plans_digest(
        reference
            .plans
            .iter()
            .filter_map(|p| first.get(&p.fingerprint.to_string()).map(|a| a.as_ref())),
    );
    if first.len() == reference.plans.len() && served_digest != reference.digest {
        report.problem(format!(
            "served digest {served_digest:016x} != single-thread digest {:016x}",
            reference.digest
        ));
    }
    failed
}

/// The scratch directory of this process's planner stores.
fn work_dir(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("planner-{}", std::process::id()))
}

/// The set-up before the first timed request: generate the inputs and
/// start a planner on empty stores.
pub fn setup(seed: u64, threads: usize, scale: Scale, out_dir: &Path) -> Result<(), String> {
    let dir = work_dir(out_dir);
    let _inputs = Inputs::generate(seed, scale);
    fresh_dir(&dir)?;
    let planner = Planner::new(planner_config(&dir, threads)).map_err(|e| e.to_string())?;
    planner.shutdown();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))
}

/// Runs the workload and reports its metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    scale: Scale,
    out_dir: &Path,
) -> Result<Report, String> {
    let dir = work_dir(out_dir);
    let result = run_in(seed, seconds, trace, threads, scale, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    scale: Scale,
    dir: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let inputs = Inputs::generate(seed, scale);
    let reference = reference(&inputs)?;
    report.note(format!(
        "{} requests over {} fingerprints, restart after {}; single-thread digest {:016x}, {:.3} s",
        inputs.stream.len(),
        inputs.pool.len(),
        inputs.restart_at,
        reference.digest,
        reference.wall_s
    ));
    let by_fingerprint: HashMap<String, usize> = reference
        .plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.fingerprint.to_string(), i))
        .collect();
    let speedup: Vec<f64> = reference
        .results
        .iter()
        .zip(&reference.plans)
        .filter_map(|(result, plan)| {
            Some(
                result.best_allreduce_placement()?.allreduce_measured
                    / plan.entries.first()?.measured_seconds,
            )
        })
        .collect();
    if speedup.len() != inputs.pool.len() {
        report.problem("a request planned no program".to_string());
    }
    let mut first: HashMap<String, Arc<Plan>> = HashMap::new();
    let epoch = Instant::now();

    if trace {
        report.attempted += 2 * inputs.stream.len() as u64;
        let untraced = run_pass(&inputs, dir, threads, false, epoch)?;
        report.failed += check_pass(
            &untraced,
            &reference,
            &by_fingerprint,
            &mut first,
            &mut report,
        );
        let mut pass = run_pass(&inputs, dir, threads, true, epoch)?;
        report.failed += check_pass(&pass, &reference, &by_fingerprint, &mut first, &mut report);
        let fingerprint = pass
            .tracer
            .layer_times()
            .get("service.fingerprint")
            .copied()
            .unwrap_or_default();
        let service = ServiceLayer::sum(
            &pass.stats,
            fingerprint.self_s * 1e6 / fingerprint.calls.max(1) as f64,
        );

        // The syntheses behind the misses: each request's single-threaded
        // pipeline run, then its replay layer by layer, back to back.
        let mut counters = LayerCounters::default();
        let mut replay_ok = true;
        let mut serial_wall = 0.0;
        for (k, request) in inputs.pool.iter().enumerate() {
            let session = request.session().map_err(|e| e.to_string())?;
            let started = Instant::now();
            let outcome = run_batch(
                std::slice::from_ref(&session),
                &BatchOptions::with_threads(1),
                &(),
            )
            .map_err(|e| e.to_string())?;
            serial_wall += started.elapsed().as_secs_f64();
            let rows = replay_session(
                &session,
                &mut pass.tracer,
                (inputs.stream.len() + k) as u64,
                &mut counters,
            )?;
            replay_ok &=
                rows == rows_of(&outcome.results[0]) && rows == rows_of(&reference.results[k]);
        }
        if replay_ok {
            report.note(format!(
                "replay == pipeline for all {} requests",
                inputs.pool.len()
            ));
        } else {
            report.failed += 1;
            report.problem("traced replay differs from the pipeline's result".to_string());
        }
        report.note(format!(
            "pass untraced {:.3} s, traced {:.3} s",
            untraced.wall_s, pass.wall_s
        ));
        let layer_inputs = LayerInputs {
            tracer: &pass.tracer,
            counters: &counters,
            serial_wall_s: serial_wall,
            tracing_overhead_s: pass.wall_s - untraced.wall_s,
            par: None,
            service: Some(service),
            cores: threads,
        };
        layer_metrics(&mut report, &layer_inputs);
        report.trace_json = Some(pass.tracer.to_json());
        return Ok(report);
    }

    let mut walls = Vec::new();
    let mut all_ms = Vec::new();
    let mut warm_us = Vec::new();
    let mut miss_ms = Vec::new();
    let started = Instant::now();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        report.attempted += inputs.stream.len() as u64;
        let pass = run_pass(&inputs, dir, threads, false, epoch)?;
        report.failed += check_pass(&pass, &reference, &by_fingerprint, &mut first, &mut report);
        walls.push(pass.wall_s);
        for served in &pass.served {
            all_ms.push(served.latency_s * 1e3);
            match served.outcome {
                Ok((PlanSource::Warm, _)) => warm_us.push(served.latency_s * 1e6),
                Ok((PlanSource::Synthesized, _)) => miss_ms.push(served.latency_s * 1e3),
                _ => {}
            }
        }
    }
    let total: f64 = walls.iter().sum();
    report.note(format!("pass walls (s): {walls:?}"));
    report.metric(
        "sweep_s",
        median(&walls),
        "s",
        format!("median of {} passes over the stream", walls.len()),
    );
    report.metric(
        "speedup_geomean",
        geomean(&speedup),
        "x",
        format!("over {} requests", speedup.len()),
    );
    report.metric(
        "plan_p50_ms",
        percentile(&all_ms, 50.0),
        "ms",
        format!("n={}", all_ms.len()),
    );
    report.metric(
        "plan_p99_ms",
        percentile(&all_ms, 99.0),
        "ms",
        format!("n={}", all_ms.len()),
    );
    if miss_ms.is_empty() {
        report.problem("no synthesized response".to_string());
    } else {
        report.metric(
            "miss_p50_ms",
            percentile(&miss_ms, 50.0),
            "ms",
            format!("n={}", miss_ms.len()),
        );
    }
    report.metric(
        "plan_rps",
        all_ms.len() as f64 / total,
        "1/s",
        format!(
            "{} responses in {total:.3} s at {CLIENTS} clients",
            all_ms.len()
        ),
    );
    if warm_us.is_empty() {
        report.problem("no warm response".to_string());
    } else {
        report.extra(
            "hit_p50_us",
            percentile(&warm_us, 50.0),
            "us",
            format!("n={}", warm_us.len()),
        );
    }
    Ok(report)
}

/// Whether the response checks accept the single-threaded plans as served
/// and reject them once one entry's measured time is off by one bit.
#[cfg(test)]
pub fn corrupted_plan_is_caught(seed: u64) -> bool {
    let inputs = Inputs::generate(seed, Scale::Tiny);
    let reference = reference(&inputs).expect("reference runs");
    let by_fingerprint: HashMap<String, usize> = reference
        .plans
        .iter()
        .enumerate()
        .map(|(i, p)| (p.fingerprint.to_string(), i))
        .collect();
    let pass = |plans: Vec<Plan>| PassOut {
        wall_s: 0.0,
        served: plans
            .into_iter()
            .map(|plan| Served {
                latency_s: 0.0,
                outcome: Ok((PlanSource::Synthesized, Arc::new(plan))),
            })
            .collect(),
        stats: Vec::new(),
        tracer: Tracer::new(false, Instant::now()),
    };
    let mut report = Report::default();
    let clean = check_pass(
        &pass(reference.plans.clone()),
        &reference,
        &by_fingerprint,
        &mut HashMap::new(),
        &mut report,
    ) == 0
        && report.problems.is_empty();
    let mut corrupted = reference.plans.clone();
    let entry = &mut corrupted[0].entries[0];
    entry.measured_seconds = f64::from_bits(entry.measured_seconds.to_bits() ^ 1);
    let caught = check_pass(
        &pass(corrupted),
        &reference,
        &by_fingerprint,
        &mut HashMap::new(),
        &mut Report::default(),
    ) == 1;
    clean && caught
}
