//! Cross-job walk-history reuse: the engine-side integration of the
//! service-scoped [`HistoryStore`](wnw_core::HistoryStore).
//!
//! Within a job, walkers already cooperate through a job-private
//! [`SharedWalkHistory`](wnw_core::SharedWalkHistory) (see
//! [`SamplerSpec::uses_shared_history`](crate::SamplerSpec::uses_shared_history)).
//! This module extends the lever *across* jobs, in the spirit of
//! *Leveraging History for Faster Sampling of Online Social Networks* (Zhou
//! et al.): a [`HistoryPolicy`] chosen per request decides whether a job
//! reads the walks completed prior jobs published, and whether it publishes
//! its own at reap.
//!
//! The determinism contract is layered:
//!
//! * [`HistoryPolicy::Isolated`] (the default) touches nothing — a
//!   request's sample multiset stays thread-count- and co-load-invariant
//!   exactly as before;
//! * under the shared policies, a job snapshots the store **once, at
//!   admission** ([`FrozenHistory`](wnw_core::FrozenHistory) — the
//!   snapshot-on-admit epoch rule), so its results are a pure function of
//!   (job, snapshot): deterministic given an admission order, still
//!   independent of thread count and co-load *between* publications.
//!
//! Reused counts enter at half weight
//! ([`reused_weight`](wnw_core::history::reused_weight)); the
//! importance-weighted backward estimator stays unbiased under any such
//! weighting because the selection distribution keeps full support (its
//! ε floor).

use wnw_core::history::HistoryKey;
use wnw_graph::NodeId;

use crate::job::SampleJob;

/// How a request's walk history relates to other jobs', decided at
/// admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HistoryPolicy {
    /// No cross-job coupling (the default): history is cooperative only
    /// *within* the job, never read from or published to the store. Keeps
    /// the per-request multiset invariant under thread count and co-load.
    #[default]
    Isolated,
    /// Read the store's snapshot at admission, publish nothing: the job
    /// profits from prior jobs' walks without extending the store.
    SharedReadOnly,
    /// Read the store's snapshot at admission *and* publish the job's own
    /// merged walks when it is reaped (terminal for any reason — a
    /// cancelled job's partial history is still evidence).
    SharedPublish,
}

impl HistoryPolicy {
    /// Whether jobs under this policy read a store snapshot at admission.
    pub fn reads(&self) -> bool {
        !matches!(self, HistoryPolicy::Isolated)
    }

    /// Whether jobs under this policy publish their walks at reap.
    pub fn publishes(&self) -> bool {
        matches!(self, HistoryPolicy::SharedPublish)
    }

    /// The wire/display label.
    pub fn label(&self) -> &'static str {
        match self {
            HistoryPolicy::Isolated => "isolated",
            HistoryPolicy::SharedReadOnly => "shared_read",
            HistoryPolicy::SharedPublish => "shared_publish",
        }
    }
}

/// The store key a job's walk history lives under, or `None` when the job
/// cannot exchange history at all: only jobs whose spec
/// [`uses_shared_history`](crate::SamplerSpec::uses_shared_history) record into a
/// job-shared accumulator the driver can export, and histories are only
/// exchangeable between walks of the same design from the same starting
/// node.
pub fn history_key_of(start: NodeId, job: &SampleJob) -> Option<HistoryKey> {
    job.spec.uses_shared_history().then(|| HistoryKey {
        start,
        kind: job.spec.input_kind(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_mcmc::RandomWalkKind;

    #[test]
    fn policy_flags_and_labels() {
        assert_eq!(HistoryPolicy::default(), HistoryPolicy::Isolated);
        assert!(!HistoryPolicy::Isolated.reads());
        assert!(!HistoryPolicy::Isolated.publishes());
        assert!(HistoryPolicy::SharedReadOnly.reads());
        assert!(!HistoryPolicy::SharedReadOnly.publishes());
        assert!(HistoryPolicy::SharedPublish.reads());
        assert!(HistoryPolicy::SharedPublish.publishes());
        assert_eq!(HistoryPolicy::Isolated.label(), "isolated");
        assert_eq!(HistoryPolicy::SharedReadOnly.label(), "shared_read");
        assert_eq!(HistoryPolicy::SharedPublish.label(), "shared_publish");
    }

    #[test]
    fn only_cooperative_walk_estimate_jobs_have_a_key() {
        let start = NodeId(3);
        let we = SampleJob::walk_estimate(RandomWalkKind::MetropolisHastings, 5, 1);
        let key = history_key_of(start, &we).expect("weighted WE job");
        assert_eq!(key.start, start);
        assert_eq!(key.kind, RandomWalkKind::MetropolisHastings);
        let baseline = SampleJob::baseline(RandomWalkKind::Simple, 5, 1);
        assert!(history_key_of(start, &baseline).is_none());
    }
}
