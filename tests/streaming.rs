//! The streaming synthesis → evaluation pipeline: bounded top-K retention
//! (`P2Builder::keep_top`) plus cost-bounded pruning must land on the
//! same best program as the exhaustive keep-everything pipeline while
//! retaining strictly fewer `ProgramEvaluation`s — the deployment contract
//! of P²'s "synthesize everything, measure a shortlist" story.

use p2::{presets, NcclAlgo, P2Builder, RunMode, P2};

/// The tier-1 small configuration (same shape as the determinism suite).
fn session() -> P2Builder {
    P2::builder(presets::a100_system(2))
        .parallelism_axes([8, 4])
        .reduction_axes([0])
        .algo(NcclAlgo::Ring)
        .bytes_per_device(1.0e9)
        .repeats(2)
        .seed(0x5eed)
}

#[test]
fn bounded_full_run_preserves_best_overall_for_any_keep_top() {
    let exhaustive = session().run().unwrap();
    let best = exhaustive.best_overall().unwrap();
    for k in [1usize, 2, 4, 16] {
        let bounded = session().keep_top(k).run().unwrap();
        // The search space is identical; only retention is bounded.
        assert_eq!(bounded.total_programs(), exhaustive.total_programs());
        assert!(
            bounded.total_programs_retained() < exhaustive.total_programs_retained(),
            "keep_top={k} must retain strictly fewer evaluations"
        );
        assert_eq!(
            bounded.total_programs_retained() + bounded.total_programs_pruned(),
            bounded.total_programs()
        );
        for pl in &bounded.placements {
            assert!(pl.programs.len() <= k);
            assert_eq!(pl.programs_retained, pl.programs.len());
        }
        // With the default slack, the overall winner always survives and its
        // measurement is bit-identical (noise is a pure function of seed and
        // program content).
        let bounded_best = bounded.best_overall().unwrap();
        assert_eq!(bounded_best.signature(), best.signature());
        assert_eq!(bounded_best.measured_seconds, best.measured_seconds);
    }
}

#[test]
fn bounded_shortlist_reaches_the_exhaustive_best_with_fewer_retained() {
    // The acceptance setting: prediction-ranked shortlist of 10, per-placement
    // retention bounded to the same 10. Every globally top-10 prediction is
    // within its own placement's top-10, so top-K displacement cannot change
    // the measured shortlist; on this configuration the slack bound prunes no
    // shortlist member either, so the chosen optimum matches the exhaustive
    // run exactly (this test pins that empirical contract).
    let exhaustive = session().mode(RunMode::Shortlist(10)).run().unwrap();
    let bounded = session()
        .keep_top(10)
        .mode(RunMode::Shortlist(10))
        .run()
        .unwrap();

    let a = exhaustive.best_overall().unwrap();
    let b = bounded.best_overall().unwrap();
    assert_eq!(a.signature(), b.signature());
    assert_eq!(a.measured_seconds, b.measured_seconds);
    assert_eq!(a.predicted_seconds, b.predicted_seconds);

    // Strictly fewer evaluations survive, and the drop is accounted for by
    // the new pruning counters.
    assert!(bounded.total_programs_retained() < exhaustive.total_programs_retained());
    assert!(bounded.total_programs_pruned() > 0);
    assert_eq!(exhaustive.total_programs_pruned(), 0);
    assert_eq!(
        bounded.total_programs_retained() + bounded.total_programs_pruned(),
        bounded.total_programs()
    );
    // The bounded run still reports the full synthesis space.
    assert_eq!(bounded.total_programs(), exhaustive.total_programs());
}

#[test]
fn wider_slack_prunes_less() {
    let tight = session().keep_top(8).prune_slack(0.0).run().unwrap();
    let wide = session().keep_top(8).prune_slack(10.0).run().unwrap();
    // The slack bound is the only difference; a looser bound can only let
    // more candidates through to the retention heap.
    assert!(tight.total_programs_pruned() >= wide.total_programs_pruned());
    assert!(tight.total_programs_retained() <= wide.total_programs_retained());
    // Even the zero-slack run keeps at least the AllReduce program per
    // placement: its prediction ties the baseline bound instead of exceeding it.
    for pl in &tight.placements {
        assert!(pl.programs_retained >= 1, "placement lost all programs");
    }
}
