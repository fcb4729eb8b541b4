//! Client-facing request types and admission errors.

use std::fmt;
use std::time::Duration;
use wnw_engine::{HistoryPolicy, SampleJob};

/// Identifier assigned by the service to an admitted request, echoed in
/// every event of the request's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority of a request.
///
/// Priorities are *weights*, not preemption levels: each scheduling cycle
/// hands every active job up to [`weight`](Priority::weight) rounds (fewer
/// when its rounds cost more than the cheapest job's, or when it joins a
/// cycle already under way), so among
/// active jobs a high-priority one advances four times as fast as a
/// low-priority one but can never starve it. The *queue* (jobs admitted
/// beyond the scheduler's active slots) is drained highest-priority first
/// with periodic aging — every few promotions the oldest submission is
/// taken regardless of priority — so a low-priority job's wait is bounded
/// even under a sustained stream of higher-priority arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work: 1 round per scheduling cycle.
    Low,
    /// The default: 2 rounds per cycle.
    #[default]
    Normal,
    /// Latency-sensitive work: 4 rounds per cycle.
    High,
}

impl Priority {
    /// Number of priority levels (the scheduler's pending queue keeps one
    /// FIFO bucket per level).
    pub const COUNT: usize = 3;

    /// Rounds this priority receives per scheduling cycle.
    pub fn weight(&self) -> usize {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }
}

/// A sampling request: *what* to sample (the embedded engine
/// [`SampleJob`] — sampler kind, sample count, virtual walkers, seed, query
/// budget) plus *how* the service should treat it (priority, deadline).
///
/// Reproducibility contract: for a fixed job (spec, seed, walkers, budget),
/// the accepted-sample multiset the service delivers under the default
/// [`HistoryPolicy::Isolated`] is identical at any pool thread count and
/// regardless of which other requests are running — the scheduler only
/// decides *when* walkers run, never what they compute. Under the shared
/// history policies the multiset additionally depends on the history-store
/// snapshot frozen at admission (and on nothing else): deterministic given
/// an admission order.
#[derive(Debug, Clone)]
pub struct SampleRequest {
    /// The sampling work itself.
    pub job: SampleJob,
    /// Scheduling weight.
    pub priority: Priority,
    /// Relative deadline; the job is stopped (status
    /// [`DeadlineExpired`](crate::JobStatus::DeadlineExpired)) at the first
    /// round boundary after `submit + deadline`. Samples already accepted
    /// are delivered.
    pub deadline: Option<Duration>,
    /// Cross-job history coupling: whether this job reads the walk history
    /// completed prior jobs published, and whether it publishes its own at
    /// reap. Defaults to [`HistoryPolicy::Isolated`].
    pub history_policy: HistoryPolicy,
}

impl SampleRequest {
    /// A request with default priority, no deadline, and isolated history.
    pub fn new(job: SampleJob) -> Self {
        SampleRequest {
            job,
            priority: Priority::default(),
            deadline: None,
            history_policy: HistoryPolicy::default(),
        }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the cross-job history policy.
    pub fn with_history_policy(mut self, policy: HistoryPolicy) -> Self {
        self.history_policy = policy;
        self
    }
}

/// Why the service refused a request at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The job failed [`SampleJob::validate`](wnw_engine::SampleJob::validate):
    /// it can never produce work, or its sizes are out of bounds.
    Invalid(&'static str),
    /// The service is at its in-flight capacity; retry later.
    Saturated {
        /// Jobs currently queued or running.
        in_flight: usize,
        /// The configured admission limit.
        limit: usize,
    },
    /// The service has been shut down.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Invalid(reason) => write!(f, "invalid request: {reason}"),
            AdmissionError::Saturated { in_flight, limit } => {
                write!(
                    f,
                    "service saturated ({in_flight} jobs in flight, limit {limit})"
                )
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_mcmc::RandomWalkKind;

    #[test]
    fn priority_weights_are_ordered() {
        assert!(Priority::Low.weight() < Priority::Normal.weight());
        assert!(Priority::Normal.weight() < Priority::High.weight());
        assert!(Priority::Low < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn request_builder_sets_fields() {
        let job = SampleJob::walk_estimate(RandomWalkKind::Simple, 5, 1);
        let request = SampleRequest::new(job)
            .with_priority(Priority::High)
            .with_deadline(Duration::from_secs(3))
            .with_history_policy(HistoryPolicy::SharedPublish);
        assert_eq!(request.priority, Priority::High);
        assert_eq!(request.deadline, Some(Duration::from_secs(3)));
        assert_eq!(request.history_policy, HistoryPolicy::SharedPublish);
    }

    #[test]
    fn requests_default_to_isolated_history() {
        let request = SampleRequest::new(SampleJob::walk_estimate(RandomWalkKind::Simple, 5, 1));
        assert_eq!(request.history_policy, HistoryPolicy::Isolated);
    }

    #[test]
    fn errors_display() {
        assert!(AdmissionError::Invalid("no samples")
            .to_string()
            .contains("no samples"));
        assert!(AdmissionError::Saturated {
            in_flight: 9,
            limit: 8
        }
        .to_string()
        .contains("9"));
        assert!(AdmissionError::ShuttingDown.to_string().contains("shut"));
        assert_eq!(JobId(3).to_string(), "job-3");
    }
}
