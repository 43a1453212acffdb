//! Tiny-size runs of every workload, and the output checks tripping on
//! corrupted counts, digests and plans.

use std::path::PathBuf;

use crate::planner_mix;
use crate::report::{Report, Scale};
use crate::rows::{digest, rows_of};
use crate::sweep::{self, check_rows, Expected, Sweep};

/// The end-to-end metrics a workload reports; `main` adds `setup_s` and
/// `peak_rss_mb`.
const END_TO_END: [&str; 6] = [
    "sweep_s",
    "speedup_geomean",
    "plan_p50_ms",
    "plan_p99_ms",
    "miss_p50_ms",
    "plan_rps",
];

fn names(metrics: &[crate::report::Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

fn assert_clean(report: &Report) {
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
}

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(".perfbench_out").join(format!("test-{test}-{}", std::process::id()))
}

/// Every name `BENCHMARK.json` lists for the given section.
fn listed(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
    let json = p2_service::json::Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(|v| v.as_arr())
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn tiny_sweeps_pass_their_checks_and_report_every_metric() {
    for sweep in [Sweep::PaperMeasure, Sweep::ShortlistDeep] {
        let report = sweep::run(sweep, 5, 0.01, false, 2, Scale::Tiny).expect("runs");
        assert_clean(&report);
        for name in END_TO_END {
            assert!(
                names(&report.end_to_end).contains(&name),
                "{sweep:?} lacks {name}"
            );
        }
    }
}

#[test]
fn tiny_traced_sweeps_replay_the_pipeline_and_report_every_layer() {
    let listed = listed("per_layer");
    for sweep in [Sweep::PaperMeasure, Sweep::ShortlistDeep] {
        let report = sweep::run(sweep, 6, 0.01, true, 2, Scale::Tiny).expect("runs");
        assert_clean(&report);
        assert_eq!(names(&report.per_layer), listed, "{sweep:?}");
        let layer = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(
            layer("synthesis.programs") as usize,
            sweep.expected_programs(Scale::Tiny)
        );
        assert!(layer("synthesis.lower_calls") >= layer("synthesis.programs"));
        assert!(report
            .trace_json
            .as_deref()
            .is_some_and(|t| t.contains("exec.measure")));
    }
}

#[test]
fn sweep_checks_trip_on_a_corrupted_count_or_digest() {
    let sessions = Sweep::PaperMeasure
        .sessions(7, Scale::Tiny)
        .expect("builds");
    let results: Vec<_> = sessions.iter().map(|s| s.run().expect("runs")).collect();
    let rows: Vec<_> = results.iter().map(rows_of).collect();
    let expected = Expected {
        programs: Sweep::PaperMeasure.expected_programs(Scale::Tiny),
        digest: digest(&rows),
    };
    assert!(check_rows(&rows, &expected).is_empty());

    let wrong_count = Expected {
        programs: expected.programs + 1,
        ..expected
    };
    assert_eq!(check_rows(&rows, &wrong_count).len(), 1);
    let wrong_digest = Expected {
        digest: expected.digest ^ 1,
        ..expected
    };
    assert_eq!(check_rows(&rows, &wrong_digest).len(), 1);

    let mut corrupted = rows.clone();
    corrupted[0][0].programs[0].measured ^= 1;
    assert_eq!(check_rows(&corrupted, &expected).len(), 1);
}

#[test]
fn recorded_digests_match_a_fresh_single_thread_run() {
    let line = sweep::record(Sweep::ShortlistDeep, 0).expect("records");
    let recorded = include_str!("../digests.txt")
        .lines()
        .find(|l| l.starts_with("shortlist_deep 0 "))
        .expect("seed 0 is recorded");
    assert_eq!(line, recorded);
}

#[test]
fn tiny_planner_mix_passes_its_checks_traced_and_untraced() {
    let dir = out_dir("planner");
    let report = planner_mix::run(8, 0.01, false, 2, Scale::Tiny, &dir).expect("runs");
    assert_clean(&report);
    for name in END_TO_END {
        assert!(names(&report.end_to_end).contains(&name), "lacks {name}");
    }
    let traced = planner_mix::run(8, 0.01, true, 2, Scale::Tiny, &dir).expect("runs");
    assert_clean(&traced);
    assert_eq!(names(&traced.per_layer), listed("per_layer"));
    let layer = |name: &str| {
        traced
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert!(layer("service.warm_hits") > 0.0);
    assert!(layer("service.disk_hits") > 0.0);
    assert!(layer("service.syntheses") > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planner_checks_trip_on_a_corrupted_plan() {
    assert!(planner_mix::corrupted_plan_is_caught(9));
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let a = planner_mix::Inputs::generate(3, Scale::Full);
    let b = planner_mix::Inputs::generate(3, Scale::Full);
    let c = planner_mix::Inputs::generate(4, Scale::Full);
    assert_eq!(a.stream, b.stream);
    assert_ne!(a.stream, c.stream);
    assert!(a.stream.len() >= 1000);
    let fingerprints = |i: &planner_mix::Inputs| -> Vec<String> {
        i.pool.iter().map(|r| r.fingerprint().to_string()).collect()
    };
    assert_eq!(fingerprints(&a), fingerprints(&b));
    // Every pool request is asked for, before or after the restart.
    for k in 0..a.pool.len() {
        assert!(a.stream.contains(&k));
    }
}

#[test]
fn benchmark_json_lists_what_the_runs_print() {
    let mut expected: Vec<String> = END_TO_END.iter().map(|s| s.to_string()).collect();
    expected.push("setup_s".to_string());
    expected.push("peak_rss_mb".to_string());
    let mut listed = listed("end_to_end");
    listed.sort();
    expected.sort();
    assert_eq!(listed, expected);
}
