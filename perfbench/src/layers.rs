//! The per-layer metrics of a traced run. Every workload reports every
//! name; a layer the workload never enters reports zero.

use p2_service::PlannerStats;

use crate::replay::LayerCounters;
use crate::report::Report;
use crate::trace::Tracer;

/// The service layer's numbers from a traced planner pass.
#[derive(Debug, Clone, Default)]
pub struct ServiceLayer {
    stats: PlannerStats,
    fingerprint_us: f64,
}

impl ServiceLayer {
    /// Sums the counters of every planner lifetime in the pass (peak queue
    /// depth is the maximum) with the mean fingerprint time per request.
    pub fn sum(lifetimes: &[PlannerStats], fingerprint_us: f64) -> Self {
        let mut stats = PlannerStats::default();
        for s in lifetimes {
            stats.warm_hits += s.warm_hits;
            stats.disk_hits += s.disk_hits;
            stats.coalesced += s.coalesced;
            stats.syntheses += s.syntheses;
            stats.batches += s.batches;
            stats.rejected += s.rejected;
            stats.peak_queue_depth = stats.peak_queue_depth.max(s.peak_queue_depth);
            stats.disk_misreads += s.disk_misreads;
            stats.snapshot_load_micros += s.snapshot_load_micros;
            stats.snapshot_save_micros += s.snapshot_save_micros;
            stats.warm_states += s.warm_states;
        }
        ServiceLayer {
            stats,
            fingerprint_us,
        }
    }
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The traced replay's spans.
    pub tracer: &'a Tracer,
    /// The traced replay's counters.
    pub counters: &'a LayerCounters,
    /// Wall-clock of the same work through the pipeline on one thread.
    pub serial_wall_s: f64,
    /// Traced minus untraced wall-clock of the same work.
    pub tracing_overhead_s: f64,
    /// Steals and peak in-flight jobs of the pipeline pass, when observable.
    pub par: Option<(f64, f64)>,
    /// The planner's numbers, for the planner workload.
    pub service: Option<ServiceLayer>,
    /// Worker threads available.
    pub cores: usize,
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Records every per-layer metric.
pub fn layer_metrics(report: &mut Report, inputs: &LayerInputs<'_>) {
    let times = inputs.tracer.layer_times();
    let time = |name: &str| times.get(name).copied().unwrap_or_default();
    let (enumerate, search, lower, predict, measure) = (
        time("placement.enumerate"),
        time("synthesis.search"),
        time("synthesis.lower"),
        time("cost.predict"),
        time("exec.measure"),
    );
    let c = inputs.counters;
    // Emission wall-clock includes the sink's lowering, prediction and
    // measurement, which are spans of their own.
    let sink = inputs.tracer.time_under("synthesis.search");
    let named = enumerate.self_s + search.self_s + lower.self_s + predict.self_s + measure.self_s;

    report.layer("placement.enumerate_s", enumerate.self_s, "s");
    report.layer("placement.count", c.placements as f64, "count");
    report.layer("synthesis.search_s", search.self_s, "s");
    report.layer("synthesis.build_s", c.build_s, "s");
    report.layer("synthesis.emit_s", (c.emit_s - sink).max(0.0), "s");
    report.layer(
        "synthesis.states_explored",
        c.states_explored as f64,
        "count",
    );
    report.layer("synthesis.programs", c.programs_emitted as f64, "count");
    report.layer(
        "synthesis.memo_hit_ratio",
        ratio(c.memo_hits, c.memo_misses),
        "ratio",
    );
    report.layer(
        "collectives.apply_hit_ratio",
        ratio(c.apply_hits, c.apply_misses),
        "ratio",
    );
    report.layer(
        "collectives.unique_device_states",
        c.unique_device_states as f64,
        "count",
    );
    report.layer("synthesis.lower_s", lower.self_s, "s");
    report.layer("synthesis.lower_calls", lower.calls as f64, "count");
    report.layer("cost.predict_s", predict.self_s, "s");
    report.layer("cost.predict_calls", predict.calls as f64, "count");
    report.layer(
        "cost.cache_hit_ratio",
        ratio(c.cost_hits, c.cost_misses),
        "ratio",
    );
    report.layer("exec.measure_s", measure.self_s, "s");
    report.layer("exec.measure_calls", measure.calls as f64, "count");
    report.layer("core.programs_retained", c.retained as f64, "count");
    report.layer("core.programs_pruned", c.pruned as f64, "count");
    report.layer("core.unattributed_s", inputs.serial_wall_s - named, "s");
    let (steals, peak) = inputs.par.unwrap_or_default();
    report.layer("par.steals", steals, "count");
    report.layer("par.peak_in_flight", peak, "count");
    if inputs.par.is_none() {
        report.note("par.* not observable from outside this workload; reported as 0".to_string());
    } else if inputs.cores <= 1 {
        report.note("par.* unresolved: one core, so thread scaling is not measured".to_string());
    }
    let service = inputs.service.clone().unwrap_or_default();
    let s = &service.stats;
    report.layer("service.fingerprint_us", service.fingerprint_us, "us");
    report.layer("service.warm_hits", s.warm_hits as f64, "count");
    report.layer("service.disk_hits", s.disk_hits as f64, "count");
    report.layer("service.coalesced", s.coalesced as f64, "count");
    report.layer("service.syntheses", s.syntheses as f64, "count");
    report.layer("service.batches", s.batches as f64, "count");
    report.layer("service.rejected", s.rejected as f64, "count");
    report.layer(
        "service.peak_queue_depth",
        s.peak_queue_depth as f64,
        "count",
    );
    report.layer("store.disk_misreads", s.disk_misreads as f64, "count");
    report.layer(
        "tables.snapshot_load_ms",
        s.snapshot_load_micros as f64 / 1e3,
        "ms",
    );
    report.layer(
        "tables.snapshot_save_ms",
        s.snapshot_save_micros as f64 / 1e3,
        "ms",
    );
    report.layer("tables.warm_states", s.warm_states as f64, "count");
    report.layer("trace.overhead_s", inputs.tracing_overhead_s, "s");
}
