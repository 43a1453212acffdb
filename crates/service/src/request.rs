//! Plan requests and their content addresses.
//!
//! A [`PlanRequest`] is the unit the service plans: a session description
//! ([`P2Builder`], the one place every experiment knob is set) plus how
//! many programs the plan carries. Its
//! [`fingerprint`](PlanRequest::fingerprint) digests the canonical form from
//! [`p2_core::canonical`] — two requests with the same fingerprint are
//! guaranteed bit-identical plans by the workspace's determinism pins, which
//! is what makes the fingerprint safe to use as a cache address that
//! outlives the process.

use p2_core::{canonical_session, P2Builder, P2Error, RunMode, P2};
use p2_hash::Fingerprint;
use p2_topology::SystemTopology;

/// How many programs a plan carries by default.
pub const DEFAULT_TOP_K: usize = 3;

/// One plan request: a session description and the plan's size. Set any
/// knob on [`session`](PlanRequest::session) (unset knobs keep the paper
/// defaults of [`p2_core::P2Config::new`]); the `with_*` methods forward the
/// common ones.
///
/// # Examples
///
/// ```
/// use p2_service::PlanRequest;
/// use p2_synthesis::HierarchyKind;
/// use p2_topology::presets;
///
/// let mut request = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
///     .with_bytes_per_device(1.0e9);
/// request.session = request.session.hierarchy_kind(HierarchyKind::System);
/// let default = PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
///     .with_bytes_per_device(1.0e9);
/// assert_ne!(request.fingerprint(), default.fingerprint());
/// ```
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The session to plan: system, axes and every result-relevant knob.
    pub session: P2Builder,
    /// How many top programs the plan carries.
    pub top_k: usize,
}

impl PlanRequest {
    /// A request with the paper-default knobs.
    pub fn new(
        system: SystemTopology,
        parallelism_axes: Vec<usize>,
        reduction_axes: Vec<usize>,
    ) -> Self {
        PlanRequest {
            session: P2::builder(system)
                .parallelism_axes(parallelism_axes)
                .reduction_axes(reduction_axes),
            top_k: DEFAULT_TOP_K,
        }
    }

    /// Sets the per-device buffer size.
    pub fn with_bytes_per_device(self, bytes: f64) -> Self {
        self.map_session(|session| session.bytes_per_device(bytes))
    }

    /// Sets the noise seed.
    pub fn with_seed(self, seed: u64) -> Self {
        self.map_session(|session| session.seed(seed))
    }

    /// Sets the repeats.
    pub fn with_repeats(self, repeats: usize) -> Self {
        self.map_session(|session| session.repeats(repeats))
    }

    /// Sets bounded retention.
    pub fn with_keep_top(self, keep_top: usize) -> Self {
        self.map_session(|session| session.keep_top(keep_top))
    }

    /// Sets the run mode.
    pub fn with_mode(self, mode: RunMode) -> Self {
        self.map_session(|session| session.mode(mode))
    }

    /// Sets how many top programs the plan carries.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = top_k;
        self
    }

    fn map_session(mut self, set: impl FnOnce(P2Builder) -> P2Builder) -> Self {
        self.session = set(self.session);
        self
    }

    /// The canonical serialized form this request's fingerprint digests:
    /// [`p2_core::canonical_session`] of the session description, plus the
    /// plan's `top_k`.
    pub fn canonical_form(&self) -> String {
        let mut out = canonical_session(&self.session);
        out.push_str(&format!("plan.top_k={}\n", self.top_k));
        out
    }

    /// The content address of this request.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_bytes(self.canonical_form().as_bytes())
    }

    /// Builds the runnable session (validating the request). This is the
    /// miss path; hits never get here.
    pub fn session(&self) -> Result<P2, P2Error> {
        self.session.clone().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_cost::{CostModelKind, NcclAlgo};
    use p2_synthesis::HierarchyKind;
    use p2_topology::presets;

    fn base() -> PlanRequest {
        PlanRequest::new(presets::a100_system(2), vec![8, 4], vec![0])
    }

    fn with_session(set: impl FnOnce(P2Builder) -> P2Builder) -> PlanRequest {
        base().map_session(set)
    }

    #[test]
    fn construction_order_does_not_change_the_fingerprint() {
        let a = base().with_seed(7).with_bytes_per_device(1.0e9);
        let b = base().with_bytes_per_device(1.0e9).with_seed(7);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn explicit_defaults_match_implicit_defaults() {
        // Spelling out the default value of a knob is the same request.
        let implicit = base();
        let explicit = with_session(|s| {
            s.algo(NcclAlgo::Ring)
                .mode(RunMode::Measure)
                .cost_model_kind(CostModelKind::AlphaBeta)
        });
        assert_eq!(implicit.fingerprint(), explicit.fingerprint());
    }

    #[test]
    fn each_knob_changes_the_fingerprint() {
        let reference = base().fingerprint();
        let variants = [
            with_session(|s| s.algo(NcclAlgo::Tree)),
            base().with_bytes_per_device(1.0e9),
            with_session(|s| s.max_program_size(4)),
            with_session(|s| s.hierarchy_kind(HierarchyKind::System)),
            with_session(|s| s.noise(0.0)),
            base().with_seed(1),
            base().with_repeats(2),
            base().with_keep_top(8),
            with_session(|s| s.prune_slack(0.25)),
            base().with_mode(RunMode::Shortlist(10)),
            with_session(|s| s.cost_model_kind(CostModelKind::LogGp)),
            base().with_top_k(5),
        ];
        for (index, variant) in variants.iter().enumerate() {
            assert_ne!(
                variant.fingerprint(),
                reference,
                "variant {index} should change the fingerprint"
            );
        }
    }

    #[test]
    fn system_renaming_is_representation_invisible() {
        let renamed = SystemTopology::with_name(
            "other-label",
            presets::a100_system(2).hierarchy().clone(),
            presets::a100_system(2).links().to_vec(),
        )
        .expect("valid system");
        let request = PlanRequest::new(renamed, vec![8, 4], vec![0]);
        assert_eq!(request.fingerprint(), base().fingerprint());
    }
}
