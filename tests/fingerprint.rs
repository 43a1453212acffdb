//! Property pins of the plan-request fingerprint — the content address the
//! planner service keys its cache with:
//!
//! * **Representation insensitivity**: semantically equal requests built
//!   through different setter orders or different constructors hash equal.
//! * **Knob sensitivity**: changing any single result-relevant knob changes
//!   the fingerprint.

use proptest::prelude::*;

use p2::service::PlanRequest;
use p2::topology::presets;
use p2::{CostModelKind, NcclAlgo, RunMode, SystemTopology, P2};

/// The index-encoded knob set a test case explores. Every index resolves to
/// an explicit value distinct from the paper defaults, so "cycle the index"
/// always means "change the request".
#[derive(Debug, Clone, Copy, PartialEq)]
struct Knobs {
    system: usize,
    algo: usize,
    bytes: usize,
    seed: usize,
    repeats: usize,
    keep_top: usize,
    mode: usize,
    cost_model: usize,
    top_k: usize,
}

/// Domain size per knob, in `Knobs` field order.
const DOMAIN: [usize; 9] = [3, 2, 3, 4, 3, 3, 3, 2, 4];

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        (0usize..3, 0usize..2, 0usize..3, 0usize..4),
        (0usize..3, 0usize..3, 0usize..3, 0usize..2),
        0usize..4,
    )
        .prop_map(
            |((system, algo, bytes, seed), (repeats, keep_top, mode, cost_model), top_k)| Knobs {
                system,
                algo,
                bytes,
                seed,
                repeats,
                keep_top,
                mode,
                cost_model,
                top_k,
            },
        )
}

/// Cycles one knob to the next value of its domain — the minimal semantic
/// change the sensitivity property asserts on.
fn cycle(mut k: Knobs, which: usize) -> Knobs {
    let fields: [&mut usize; 9] = [
        &mut k.system,
        &mut k.algo,
        &mut k.bytes,
        &mut k.seed,
        &mut k.repeats,
        &mut k.keep_top,
        &mut k.mode,
        &mut k.cost_model,
        &mut k.top_k,
    ];
    *fields[which] = (*fields[which] + 1) % DOMAIN[which];
    k
}

fn system_and_axes(k: &Knobs) -> (SystemTopology, Vec<usize>) {
    // Each system comes with axes matching its device count; two of the
    // three have identical axes so only the topology distinguishes them.
    match k.system {
        0 => (presets::a100_system(2), vec![8, 4]),
        1 => (presets::v100_system(2), vec![4, 4]),
        _ => (presets::rack_node_gpu_system(2, 2, 4), vec![4, 4]),
    }
}

fn base(k: &Knobs) -> PlanRequest {
    let (system, axes) = system_and_axes(k);
    PlanRequest::new(system, axes, vec![0])
}

/// Knob values, all distinct from the implicit `P2Config` defaults (index 0
/// of the optional knobs means "leave the default in place").
fn algo(k: &Knobs) -> NcclAlgo {
    [NcclAlgo::Ring, NcclAlgo::Tree][k.algo]
}
const BYTES: [Option<f64>; 3] = [None, Some(1.0e9), Some(2.5e8)];
const SEEDS: [Option<u64>; 4] = [None, Some(1), Some(42), Some(0xffff)];
const REPEATS: [Option<usize>; 3] = [None, Some(2), Some(3)];
const KEEP_TOP: [Option<usize>; 3] = [None, Some(4), Some(12)];
fn mode(k: &Knobs) -> RunMode {
    [
        RunMode::Measure,
        RunMode::Shortlist(5),
        RunMode::PredictOnly,
    ][k.mode]
}
fn cost_model(k: &Knobs) -> CostModelKind {
    [CostModelKind::AlphaBeta, CostModelKind::LogGp][k.cost_model]
}
fn top_k(k: &Knobs) -> usize {
    [3, 1, 2, 5][k.top_k]
}

/// Builds the request through the `with_*` forwarders and the session's own
/// setters, front to back.
fn build_forward(k: &Knobs) -> PlanRequest {
    let mut request = base(k).with_mode(mode(k)).with_top_k(top_k(k));
    request.session = request.session.algo(algo(k)).cost_model_kind(cost_model(k));
    if let Some(bytes) = BYTES[k.bytes] {
        request = request.with_bytes_per_device(bytes);
    }
    if let Some(seed) = SEEDS[k.seed] {
        request = request.with_seed(seed);
    }
    if let Some(repeats) = REPEATS[k.repeats] {
        request = request.with_repeats(repeats);
    }
    if let Some(keep_top) = KEEP_TOP[k.keep_top] {
        request = request.with_keep_top(keep_top);
    }
    request
}

/// The same request through the setters in the opposite order.
fn build_reverse(k: &Knobs) -> PlanRequest {
    let mut request = base(k);
    if let Some(keep_top) = KEEP_TOP[k.keep_top] {
        request = request.with_keep_top(keep_top);
    }
    if let Some(repeats) = REPEATS[k.repeats] {
        request = request.with_repeats(repeats);
    }
    if let Some(seed) = SEEDS[k.seed] {
        request = request.with_seed(seed);
    }
    if let Some(bytes) = BYTES[k.bytes] {
        request = request.with_bytes_per_device(bytes);
    }
    request.session = request.session.cost_model_kind(cost_model(k)).algo(algo(k));
    request.with_top_k(top_k(k)).with_mode(mode(k))
}

/// The same request as a struct literal over a session builder assembled
/// directly, axes last — a different constructor path entirely.
fn build_fields(k: &Knobs) -> PlanRequest {
    let (system, axes) = system_and_axes(k);
    let mut session = P2::builder(system)
        .mode(mode(k))
        .cost_model_kind(cost_model(k))
        .algo(algo(k));
    if let Some(bytes) = BYTES[k.bytes] {
        session = session.bytes_per_device(bytes);
    }
    if let Some(seed) = SEEDS[k.seed] {
        session = session.seed(seed);
    }
    if let Some(repeats) = REPEATS[k.repeats] {
        session = session.repeats(repeats);
    }
    if let Some(keep_top) = KEEP_TOP[k.keep_top] {
        session = session.keep_top(keep_top);
    }
    PlanRequest {
        session: session.reduction_axes([0]).parallelism_axes(axes),
        top_k: top_k(k),
    }
}

/// Literal fingerprints of three requests — the default one, `planner_mix`'s
/// request shape and one that sets every knob. Plans persisted under these
/// addresses stay reachable only while the canonical bytes stay put.
#[test]
fn literal_fingerprints_are_pinned() {
    let default = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0]);
    assert_eq!(
        default.fingerprint().to_string(),
        "8a460d66733100fcf593ff9287ba372f"
    );
    let planner_mix = PlanRequest::new(presets::rack_node_gpu_system(2, 2, 4), vec![4, 4], vec![0])
        .with_bytes_per_device(1.0e9)
        .with_repeats(2)
        .with_keep_top(8)
        .with_mode(RunMode::Shortlist(5))
        .with_seed(7);
    assert_eq!(
        planner_mix.fingerprint().to_string(),
        "d7dbe4b951db8d2f18f56aee4c915c40"
    );
    let mut every_knob = PlanRequest::new(presets::v100_system(4), vec![8, 2, 2], vec![0, 2])
        .with_bytes_per_device(2.5e8)
        .with_seed(42)
        .with_repeats(3)
        .with_keep_top(12)
        .with_mode(RunMode::PredictOnly)
        .with_top_k(5);
    every_knob.session = every_knob
        .session
        .algo(NcclAlgo::Tree)
        .max_program_size(4)
        .noise(0.0)
        .prune_slack(0.25)
        .cost_model_kind(CostModelKind::LogGp);
    assert_eq!(
        every_knob.fingerprint().to_string(),
        "1a82494774603976edc753ad4af3432f"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder-call order and constructor choice are invisible to the
    /// content address.
    #[test]
    fn construction_path_is_fingerprint_invisible(k in knobs()) {
        let forward = build_forward(&k).fingerprint();
        prop_assert_eq!(build_reverse(&k).fingerprint(), forward);
        prop_assert_eq!(build_fields(&k).fingerprint(), forward);
    }

    /// Changing any single knob — and nothing else — changes the
    /// fingerprint.
    #[test]
    fn any_single_knob_change_changes_the_fingerprint(
        (k, which) in (knobs(), 0usize..9)
    ) {
        let changed = cycle(k, which);
        prop_assert!(changed != k, "cycle must change knob {}", which);
        prop_assert_ne!(
            build_forward(&changed).fingerprint(),
            build_forward(&k).fingerprint(),
            "knob {} changed but the fingerprint did not", which
        );
    }
}
