//! Canonical serialized form of a P² experiment — the hashing substrate of
//! the plan service's content addresses.
//!
//! [`canonical_system`] and [`P2Config::canonical_form`] render everything
//! that can change *results* into one stable, line-oriented string;
//! `p2_service` digests that string into a plan fingerprint. Two requests
//! with equal canonical forms are guaranteed (by the workspace's determinism
//! pins) to produce bit-identical plans, so a cache keyed on the digest can
//! serve either from the other's result.
//!
//! What is **included**: the system's level arities and per-level link
//! bandwidth/latency (as exact `f64` bit patterns), the parallelism and
//! reduction axes, the NCCL algorithm, buffer size, program-size limit,
//! synthesis hierarchy kind, noise fraction, seed, repeats, retention
//! (`keep_top`/`prune_slack`), and the cost model's identity (its
//! [`name()`](p2_cost::CostModel::name), or `default` for the implicit α–β
//! model). [`canonical_session`] renders a whole session description, a
//! [`P2Builder`]: its configuration, then the [`RunMode`] and the cost-model
//! kind.
//!
//! What is deliberately **excluded** — the representation-insensitivity half
//! of the contract:
//!
//! * **Names.** System, level and interconnect names are labels; two
//!   topologies that differ only in naming plan identically.
//! * **`threads`** — results are bit-identical for any worker count (pinned
//!   in `tests/determinism.rs`).
//! * **`cost_cache`** — the pipeline predicts each distinct step once
//!   whatever its value, and the step-cost cache keys on the exact step, so
//!   neither path changes a prediction.
//! * **`shared_intern` / `shared_tables`** — the search tables are a
//!   cache: sharing, borrowing or warm-starting them is result-invisible by
//!   the determinism pins.
//!
//! Axis *order* is *not* normalized away: `parallelism_axes = [8, 4]` and
//! `[4, 8]` are different experiments, and `reduction_axes` order feeds the
//! synthesis hierarchy's per-level axis factors in sequence, so `[0, 1]` and
//! `[1, 0]` may synthesize different programs. Order-insensitivity here
//! means *construction* order (builder-call order, constructor choice), not
//! semantic field order.
//!
//! Floats are rendered as `0x`-prefixed IEEE-754 bit patterns: the digest
//! must distinguish every value the pipeline can distinguish (including
//! `-0.0` vs `0.0`) and must not depend on decimal formatting.

use std::fmt::Write as _;

use p2_cost::{CostModelKind, NcclAlgo};
use p2_synthesis::HierarchyKind;
use p2_topology::SystemTopology;

use crate::builder::P2Builder;
use crate::config::P2Config;
use crate::pipeline::RunMode;

/// Version tag leading every canonical form. Bump it whenever the rendering
/// below changes in any way — the tag flows into the fingerprint, so a bump
/// cleanly invalidates every previously persisted content address instead of
/// colliding with it.
pub const CANONICAL_VERSION: &str = "p2-canonical-v1";

/// Version tag leading every canonical *tables* form (and stored inside
/// every table-store snapshot). Bump it whenever
/// [`canonical_tables_form`] changes, whenever the snapshot record layout
/// changes, or whenever anything the persisted tables encode changes
/// meaning (the `Collective` tag order in apply keys, the `State` word
/// layout) — a bump re-addresses every snapshot, so stale tables are simply
/// never loaded instead of being misread.
pub const CANONICAL_TABLES_VERSION: &str = "p2-tables-v2";

fn push_f64(out: &mut String, key: &str, value: f64) {
    let _ = writeln!(out, "{key}=0x{:016x}", value.to_bits());
}

fn push_list(out: &mut String, key: &str, values: &[usize]) {
    let _ = write!(out, "{key}=");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

/// Renders the result-relevant content of a system: depth, then one line per
/// level (outermost first) with the level's arity and its uplink's bandwidth
/// and latency bit patterns. Names are omitted — see the module docs.
pub fn canonical_system(system: &SystemTopology) -> String {
    let mut out = String::new();
    let levels = system.hierarchy().levels();
    let _ = writeln!(out, "system.depth={}", levels.len());
    for (index, level) in levels.iter().enumerate() {
        let link = system.link(index);
        let _ = writeln!(
            out,
            "system.level={index},arity:{},bw:0x{:016x},lat:0x{:016x}",
            level.arity(),
            link.bandwidth().to_bits(),
            link.latency().to_bits(),
        );
    }
    out
}

fn algo_token(algo: NcclAlgo) -> &'static str {
    match algo {
        NcclAlgo::Ring => "ring",
        NcclAlgo::Tree => "tree",
    }
}

fn hierarchy_token(kind: HierarchyKind) -> &'static str {
    match kind {
        HierarchyKind::System => "system",
        HierarchyKind::ColumnMajor => "column-major",
        HierarchyKind::RowMajor => "row-major",
        HierarchyKind::ReductionAxes => "reduction-axes",
    }
}

/// Renders the *tables*-relevant subset of an experiment: everything the
/// persisted search tables (interned device states and the collective apply
/// cache) are a function of, and nothing more. Compared to
/// [`P2Config::canonical_form`] this drops link bandwidth/latency, buffer
/// size, noise, seed, repeats, retention, the cost model, the parallelism
/// axes and the run mode — none of them reach the tables — so one snapshot
/// warms every plan fingerprint that shares a machine shape, algorithm,
/// hierarchy kind and program-size limit.
pub fn canonical_tables_form(
    system: &SystemTopology,
    algo: NcclAlgo,
    hierarchy_kind: HierarchyKind,
    max_program_size: usize,
) -> String {
    let mut out = String::with_capacity(128);
    out.push_str(CANONICAL_TABLES_VERSION);
    out.push('\n');
    let levels = system.hierarchy().levels();
    let _ = writeln!(out, "system.depth={}", levels.len());
    for (index, level) in levels.iter().enumerate() {
        let _ = writeln!(out, "system.level={index},arity:{}", level.arity());
    }
    let _ = writeln!(out, "algo={}", algo_token(algo));
    let _ = writeln!(out, "hierarchy={}", hierarchy_token(hierarchy_kind));
    let _ = writeln!(out, "max_program_size={max_program_size}");
    out
}

/// Renders a [`RunMode`] as its canonical token.
pub fn canonical_mode(mode: RunMode) -> String {
    match mode {
        RunMode::Measure => "measure".to_string(),
        RunMode::Shortlist(n) => format!("shortlist:{n}"),
        RunMode::PredictOnly => "predict-only".to_string(),
    }
}

impl P2Config {
    /// The canonical serialized form of this configuration — see the module
    /// docs for the inclusion/exclusion contract. Equal canonical forms ⇒
    /// bit-identical results; hash this (e.g. with
    /// `p2_hash::stable_digest128`) to content-address an experiment.
    ///
    /// A custom [`cost_model`](P2Config::cost_model) contributes only its
    /// [`name()`](p2_cost::CostModel::name); models whose behavior is not
    /// determined by (name, configuration) must encode their extra identity
    /// in the name to be safely cacheable.
    pub fn canonical_form(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(CANONICAL_VERSION);
        out.push('\n');
        out.push_str(&canonical_system(&self.system));
        push_list(&mut out, "axes", &self.parallelism_axes);
        push_list(&mut out, "reduce", &self.reduction_axes);
        let _ = writeln!(out, "algo={}", algo_token(self.algo));
        push_f64(&mut out, "bytes", self.bytes_per_device);
        let _ = writeln!(out, "max_program_size={}", self.max_program_size);
        let _ = writeln!(out, "hierarchy={}", hierarchy_token(self.hierarchy_kind));
        push_f64(&mut out, "noise", self.noise_fraction);
        let _ = writeln!(out, "seed=0x{:016x}", self.seed);
        let _ = writeln!(out, "repeats={}", self.repeats);
        match self.keep_top {
            None => out.push_str("keep_top=all\n"),
            Some(k) => {
                let _ = writeln!(out, "keep_top={k}");
            }
        }
        push_f64(&mut out, "prune_slack", self.prune_slack);
        match &self.cost_model {
            None => out.push_str("cost_model=default\n"),
            Some(model) => {
                let _ = writeln!(out, "cost_model={}", model.name());
            }
        }
        out
    }

    /// The tables-subset canonical form of this configuration — see
    /// [`canonical_tables_form`].
    pub fn canonical_tables_form(&self) -> String {
        canonical_tables_form(
            &self.system,
            self.algo,
            self.hierarchy_kind,
            self.max_program_size,
        )
    }

    /// The content address of this configuration's search-table snapshot:
    /// `stable_digest128` over [`P2Config::canonical_tables_form`]. Coarser
    /// than the plan fingerprint by design — many distinct plan fingerprints
    /// (different buffer sizes, noise, cost models, modes, axes) map to one
    /// table key and warm-start from the same snapshot.
    pub fn table_key(&self) -> p2_hash::Fingerprint {
        p2_hash::Fingerprint::of_bytes(self.canonical_tables_form().as_bytes())
    }
}

/// The canonical form of a session description: [`P2Config::canonical_form`]
/// of its settings, then its [`RunMode`] and its cost-model kind — what a
/// plan-request fingerprint digests, ahead of the plan's `top_k`.
///
/// The kind is rendered even when none was selected: the implicit model is
/// the α–β one, bit for bit, so both spell `alpha-beta`. A kind is only a
/// recipe, so the model it builds is not rendered; an explicit
/// [`P2Builder::cost_model`] instance contributes its name to the
/// configuration's form.
pub fn canonical_session(session: &P2Builder) -> String {
    let mut out = session.config.canonical_form();
    let _ = writeln!(out, "mode={}", canonical_mode(session.mode));
    let kind = session.cost_model_kind.unwrap_or(CostModelKind::AlphaBeta);
    let _ = writeln!(out, "cost_model_kind={}", kind.as_str());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_topology::presets;

    fn base_config() -> P2Config {
        P2Config::new(presets::a100_system(2), vec![8, 4], vec![0])
    }

    #[test]
    fn result_invisible_knobs_do_not_change_the_form() {
        let reference = base_config().canonical_form();
        let mut threads = base_config();
        threads.threads = 7;
        let mut cache = base_config();
        cache.cost_cache = false;
        let mut intern = base_config();
        intern.shared_intern = false;
        for variant in [threads, cache, intern] {
            assert_eq!(variant.canonical_form(), reference);
        }
    }

    #[test]
    fn renaming_the_system_does_not_change_the_form() {
        let renamed = SystemTopology::with_name(
            "totally-different-label",
            presets::a100_system(2).hierarchy().clone(),
            presets::a100_system(2).links().to_vec(),
        )
        .expect("valid system");
        let config = P2Config::new(renamed, vec![8, 4], vec![0]);
        assert_eq!(config.canonical_form(), base_config().canonical_form());
    }

    #[test]
    fn every_result_relevant_knob_changes_the_form() {
        let reference = base_config().canonical_form();
        let variants: Vec<P2Config> = vec![
            P2Config::new(presets::a100_system(4), vec![16, 2], vec![0]),
            P2Config::new(presets::v100_system(2), vec![8, 4], vec![0]),
            P2Config::new(presets::a100_system(2), vec![4, 8], vec![0]),
            P2Config::new(presets::a100_system(2), vec![8, 4], vec![1]),
            {
                let mut c = base_config();
                c.algo = NcclAlgo::Tree;
                c
            },
            {
                let mut c = base_config();
                c.bytes_per_device = 1.0e9;
                c
            },
            {
                let mut c = base_config();
                c.max_program_size = 6;
                c
            },
            {
                let mut c = base_config();
                c.hierarchy_kind = HierarchyKind::System;
                c
            },
            {
                let mut c = base_config();
                c.noise_fraction = 0.0;
                c
            },
            {
                let mut c = base_config();
                c.seed = 1;
                c
            },
            {
                let mut c = base_config();
                c.repeats = 2;
                c
            },
            {
                let mut c = base_config();
                c.keep_top = Some(8);
                c
            },
            {
                let mut c = base_config();
                c.prune_slack = 0.25;
                c
            },
            {
                let mut c = base_config();
                c.cost_model = Some(c.make_cost_model(CostModelKind::LogGp).expect("model"));
                c
            },
        ];
        for (index, variant) in variants.iter().enumerate() {
            assert_ne!(
                variant.canonical_form(),
                reference,
                "variant {index} should differ from the reference form"
            );
        }
        // And all variants differ pairwise from each other.
        for i in 0..variants.len() {
            for j in i + 1..variants.len() {
                assert_ne!(
                    variants[i].canonical_form(),
                    variants[j].canonical_form(),
                    "variants {i} and {j} should differ"
                );
            }
        }
    }

    #[test]
    fn table_key_ignores_cost_only_knobs() {
        let reference = base_config().table_key();
        // Everything the tables never see: bytes, noise, seed, repeats,
        // retention, cost model, cost/intern toggles, the parallelism and
        // reduction axes, even the link speeds.
        let mut variants: Vec<P2Config> = vec![
            P2Config::new(presets::a100_system(2), vec![4, 8], vec![1]),
            {
                let mut c = base_config();
                c.bytes_per_device = 1.0e9;
                c
            },
            {
                let mut c = base_config();
                c.noise_fraction = 0.0;
                c.seed = 1;
                c.repeats = 2;
                c
            },
            {
                let mut c = base_config();
                c.keep_top = Some(4);
                c.prune_slack = 0.1;
                c
            },
            {
                let mut c = base_config();
                c.cost_model = Some(c.make_cost_model(CostModelKind::LogGp).expect("model"));
                c.cost_cache = false;
                c.shared_intern = false;
                c
            },
        ];
        // A system with the same level arities but different link speeds.
        let base_system = presets::a100_system(2);
        let slow_links: Vec<_> = base_system
            .links()
            .iter()
            .map(|l| {
                p2_topology::Interconnect::new(l.name(), l.bandwidth() / 2.0, l.latency() * 3.0)
                    .unwrap()
            })
            .collect();
        let slow =
            SystemTopology::with_name("slow-links", base_system.hierarchy().clone(), slow_links)
                .expect("valid system");
        variants.push(P2Config::new(slow, vec![8, 4], vec![0]));
        for (index, variant) in variants.iter().enumerate() {
            assert_eq!(
                variant.table_key(),
                reference,
                "cost-only variant {index} should share the table key"
            );
        }
    }

    #[test]
    fn table_key_tracks_every_tables_relevant_knob() {
        let reference = base_config().table_key();
        let variants: Vec<P2Config> = vec![
            // Different arities (4 nodes instead of 2).
            P2Config::new(presets::a100_system(4), vec![16, 4], vec![0]),
            {
                let mut c = base_config();
                c.algo = NcclAlgo::Tree;
                c
            },
            {
                let mut c = base_config();
                c.hierarchy_kind = HierarchyKind::System;
                c
            },
            {
                let mut c = base_config();
                c.max_program_size = 6;
                c
            },
        ];
        for (index, variant) in variants.iter().enumerate() {
            assert_ne!(
                variant.table_key(),
                reference,
                "tables-relevant variant {index} should change the table key"
            );
        }
        assert!(base_config()
            .canonical_tables_form()
            .starts_with(CANONICAL_TABLES_VERSION));
    }

    fn base_session() -> P2Builder {
        crate::P2::builder(presets::a100_system(2))
            .parallelism_axes([8, 4])
            .reduction_axes([0])
    }

    #[test]
    fn mode_tokens_are_distinct() {
        let session = |mode| canonical_session(&base_session().mode(mode));
        let measure = session(RunMode::Measure);
        let short = session(RunMode::Shortlist(10));
        let short5 = session(RunMode::Shortlist(5));
        let predict = session(RunMode::PredictOnly);
        assert_ne!(measure, short);
        assert_ne!(short, short5);
        assert_ne!(measure, predict);
        assert!(measure.starts_with(CANONICAL_VERSION));
    }

    #[test]
    fn a_session_renders_its_config_mode_and_cost_model_kind() {
        let form = canonical_session(&base_session());
        assert_eq!(
            form,
            format!(
                "{}mode=measure\ncost_model_kind=alpha-beta\n",
                base_config().canonical_form()
            )
        );
        // Selecting the implicit kind explicitly is the same session.
        let explicit = base_session().cost_model_kind(CostModelKind::AlphaBeta);
        assert_eq!(canonical_session(&explicit), form);
        let loggp = base_session().cost_model_kind(CostModelKind::LogGp);
        assert_ne!(canonical_session(&loggp), form);
        // Result-invisible knobs stay out of the form.
        let tuned = base_session().threads(3).shared_intern(false);
        assert_eq!(canonical_session(&tuned), form);
    }
}
