//! The repository benchmark: one seeded workload per run, measured for a
//! fixed time, with output checks, printing every metric by name and unit
//! and, as its last line, one JSON result object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_measure --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! workload layer by layer and reports the per-layer metrics, writing the
//! spans under `.perfbench_out/`. `--tiny` runs small sizes of the same
//! workload. See `perfbench/METRICS.md` for what each metric means.

mod layers;
mod planner_mix;
mod replay;
mod report;
mod rows;
mod stats;
mod sweep;
#[cfg(test)]
mod tests;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Report, Scale};
use sweep::Sweep;

/// Where traces and the planner's stores go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench_out";

/// Set-up probes per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper_measure", "shortlist_deep", "planner_mix"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    setup_probe: bool,
    record: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut setup_probe = false;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => scale = Scale::Tiny,
            "--setup-probe" => setup_probe = true,
            "--record" => record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale,
        setup_probe,
        record,
    })
}

/// The workload's set-up alone: what a process does before its first
/// timed operation.
fn setup(args: &Args, threads: usize) -> Result<(), String> {
    match args.workload.as_str() {
        "paper_measure" => Sweep::PaperMeasure
            .sessions(args.seed, args.scale)
            .map(drop),
        "shortlist_deep" => Sweep::ShortlistDeep
            .sessions(args.seed, args.scale)
            .map(drop),
        "planner_mix" => planner_mix::setup(args.seed, threads, args.scale, Path::new(OUT_DIR)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Times `SETUP_REPS` fresh processes that start, set the workload up and
/// exit: the process start to first-operation cost, median of the reps.
fn time_setup(argv: &[String]) -> Result<(f64, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(argv)
            .arg("--setup-probe")
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("starting a set-up probe: {e}"))?;
        times.push(started.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up probe exited with {status}"));
        }
    }
    Ok((stats::median(&times), times.len()))
}

fn run(args: &Args, threads: usize) -> Result<Report, String> {
    let out_dir = Path::new(OUT_DIR);
    let (seed, seconds, trace, scale) = (args.seed, args.seconds, args.trace, args.scale);
    match args.workload.as_str() {
        "paper_measure" => sweep::run(Sweep::PaperMeasure, seed, seconds, trace, threads, scale),
        "shortlist_deep" => sweep::run(Sweep::ShortlistDeep, seed, seconds, trace, threads, scale),
        "planner_mix" => planner_mix::run(seed, seconds, trace, threads, scale, out_dir),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Peak resident set size of this process, in MiB.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, which `getrusage` fills in.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss_kib as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mb() -> f64 {
    panic!("peak_rss_mb is only implemented for Linux")
}

/// The commit of the working directory's git checkout, if it is one.
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn result_json(correct: bool, report: &Report, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> [--trace 0|1] [--tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.record {
        let recorded = match args.workload.as_str() {
            "paper_measure" => sweep::record(Sweep::PaperMeasure, args.seed),
            "shortlist_deep" => sweep::record(Sweep::ShortlistDeep, args.seed),
            _ => Err("only the sweeps have recorded digests".to_string()),
        };
        return match recorded {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: record: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.setup_probe {
        return match setup(&args, threads) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let setup_s = if args.trace {
        None
    } else {
        match time_setup(&argv) {
            Ok(setup) => Some(setup),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    };
    let mut report = match run(&args, threads) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some((setup_s, reps)) = setup_s {
        report.metric(
            "setup_s",
            setup_s,
            "s",
            format!("median of {reps} processes from start to first operation"),
        );
        report.metric(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "peak resident set, MiB".to_string(),
        );
    }
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.extra(
        "fail_frac",
        fail_frac,
        "ratio",
        format!("{} of {} operations", report.failed, report.attempted),
    );

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} scale={:?}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.scale
    );
    let stamp = format!(
        "cores={threads} threads={threads} git_sha={} rustc=\"{}\"",
        git_sha(),
        env!("PERFBENCH_RUSTC_VERSION")
    );
    println!("# stamp {stamp}");
    for line in &report.lines {
        println!("# {line}");
    }
    if let Some(spans) = &report.trace_json {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let body = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"stamp\": {:?},\n\"trace\": {spans}}}\n",
            args.workload, args.seed, stamp
        );
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => report.problem(format!("writing {}: {e}", path.display())),
        }
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is not finite", m.name));
        }
    }
    for problem in &report.problems {
        println!("# FAIL {problem}");
        eprintln!("perfbench: FAIL {problem}");
    }
    let correct = report.problems.is_empty();
    let metrics: Vec<Metric> = metrics
        .iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m.clone()
        })
        .collect();
    println!("{}", result_json(correct, &report, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
