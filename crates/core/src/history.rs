//! History of forward walks, feeding the weighted-sampling heuristic.
//!
//! WALK-ESTIMATE repeatedly starts forward walks from the same node. The
//! weighted backward sampling of Algorithm 2 uses how often each node was
//! reached at each step of those past walks (`n_{u', t-1}` out of `n_hw`
//! walks) to focus backward steps on the neighbors that actually carry
//! probability mass.
//!
//! Four shapes of history live here:
//!
//! * [`WalkHistory`] — the plain single-walker structure;
//! * [`SharedWalkHistory`] — a lock-striped accumulator a pool of walkers
//!   merges into, so every walker's backward sampling benefits from *all*
//!   forward walks (every walker of a weighted WALK-ESTIMATE job);
//! * [`OverlayHistory`] — a shared snapshot plus a walker's not-yet-merged
//!   local walks, which is what a walker actually reads mid-round, optionally
//!   over a frozen cross-job base;
//! * [`FrozenHistory`] — an immutable snapshot of walks published by
//!   *completed prior jobs*, handed out by the service-scoped
//!   [`HistoryStore`] so a new job can start from the evidence its
//!   predecessors already paid for (cross-job reuse).
//!
//! The consumers ([`selection_distribution`](crate::estimate::weighted) and
//! the backward estimator) only need per-(node, step) counts, captured by the
//! [`HistoryView`] trait (see [Reading counts](#reading-counts)).
//! Correctness never depends on *which* history a walker sees: the
//! importance-weighted backward estimator is unbiased for any selection
//! distribution with full support, so richer history only reduces
//! variance. That is also what makes cross-job reuse safe: reused counts
//! enter at half weight ([`reused_weight`]) against the job's own fresh
//! walks, and the ε floor of the selection distribution keeps full support
//! whatever the weight, so the estimator contract is never violated.
//!
//! # Epoch rule (snapshot-on-admit)
//!
//! The [`HistoryStore`] is versioned by a monotone **epoch**, bumped on
//! every publication. A job takes its [`FrozenHistory`] snapshot exactly
//! once, at admission, and reads that immutable snapshot for its whole
//! life: publications that land mid-job are *never* observed. Results under
//! shared policies are therefore a pure function of the store's contents at
//! admission — deterministic given an admission order — and the default
//! isolated policy (no snapshot, no publication) keeps today's
//! thread-count- and co-load-invariance exactly.
//!
//! # Reading counts
//!
//! A weighted backward step needs the count of every predecessor candidate
//! at one step, so the one read path is the bulk
//! [`HistoryView::add_counts_at`]: it adds the counts of a whole candidate
//! slice at one step into an output slice. Each layer resolves its step
//! once per call and then probes one [`NodeMap`] per candidate:
//!
//! * [`WalkHistory`] and [`FrozenHistory`] index their per-step vector;
//! * [`SharedWalkHistory`] takes the step's stripe read-lock **once per
//!   call** and holds it across the candidate probes (never once per
//!   candidate); merges take the write lock, at the engine's barriers only;
//! * [`OverlayHistory`] adds the [`reused_weight`] of each candidate's
//!   frozen count (when it has a cross-job base), then its shared
//!   accumulator, then its pending walks.
//!
//! [`HistoryView::count_at`] is the same read for one node. Every map is a
//! [`NodeMap`], whose multiplicative hasher replaces SipHash on these
//! lookups; counts, and so every selection probability, are unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use wnw_access::sync::{read, write};
use wnw_graph::{NodeId, NodeMap};
use wnw_mcmc::RandomWalkKind;

/// Read access to per-(node, step) visit counts of past forward walks.
pub trait HistoryView: std::fmt::Debug {
    /// Adds to `out[i]` the number of recorded walks that were at
    /// `nodes[i]` at step `step`, for every `i`. Absent nodes and steps past
    /// the recorded length add nothing. Adding (rather than overwriting)
    /// lets a layered view sum its layers into one buffer.
    ///
    /// # Panics
    /// Panics if `nodes` and `out` differ in length.
    fn add_counts_at(&self, step: usize, nodes: &[NodeId], out: &mut [u64]);

    /// Number of recorded walks that were at `node` at step `step`: the
    /// bulk read for a single node.
    fn count_at(&self, node: NodeId, step: usize) -> u64 {
        let mut count = [0];
        self.add_counts_at(step, &[node], &mut count);
        count[0]
    }

    /// Number of walks recorded (`n_hw`).
    fn walk_count(&self) -> u64;
}

/// Adds `weight(counts[node])` to `out[i]` for every `nodes[i]` present in
/// one step's `counts` (`None`: the step was never recorded). Every layer
/// reads through here; `weight(0)` must be 0, as absent nodes are skipped.
fn add_step_counts(
    counts: Option<&NodeMap<u64>>,
    nodes: &[NodeId],
    out: &mut [u64],
    weight: impl Fn(u64) -> u64,
) {
    assert_eq!(nodes.len(), out.len(), "one output slot per node");
    let Some(counts) = counts else {
        return;
    };
    for (node, slot) in nodes.iter().zip(out) {
        if let Some(&count) = counts.get(node) {
            *slot += weight(count);
        }
    }
}

/// Per-step visit counts across all recorded forward walks.
#[derive(Debug, Clone, Default)]
pub struct WalkHistory {
    /// `counts[t][v]` = number of recorded walks that were at node `v` at
    /// step `t`.
    counts: Vec<NodeMap<u64>>,
    /// Number of walks recorded.
    walks: u64,
}

impl WalkHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a forward walk given its full path (`path[0]` is the start).
    pub fn record_walk(&mut self, path: &[NodeId]) {
        if path.is_empty() {
            return;
        }
        if self.counts.len() < path.len() {
            self.counts.resize_with(path.len(), NodeMap::default);
        }
        for (step, &node) in path.iter().enumerate() {
            *self.counts[step].entry(node).or_insert(0) += 1;
        }
        self.walks += 1;
    }

    /// Number of walks recorded so far (`n_hw`).
    pub fn walk_count(&self) -> u64 {
        self.walks
    }

    /// All nodes seen at `step`, with their counts.
    pub fn nodes_at(&self, step: usize) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.counts
            .get(step)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&n, &c)| (n, c)))
    }

    /// Longest recorded path length (steps + 1), 0 when empty.
    pub fn max_recorded_length(&self) -> usize {
        self.counts.len()
    }

    /// Clears all recorded walks.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.walks = 0;
    }

    /// Whether no walks are recorded.
    pub fn is_empty(&self) -> bool {
        self.walks == 0
    }
}

impl HistoryView for WalkHistory {
    fn add_counts_at(&self, step: usize, nodes: &[NodeId], out: &mut [u64]) {
        add_step_counts(self.counts.get(step), nodes, out, |count| count);
    }

    fn walk_count(&self) -> u64 {
        WalkHistory::walk_count(self)
    }
}

/// Number of independent stripes of a [`SharedWalkHistory`]. Counts for step
/// `t` live in slot `t / STRIPE_COUNT` of stripe `t % STRIPE_COUNT`, so
/// walkers reading different steps of the backward recursion rarely contend.
pub const STRIPE_COUNT: usize = 16;

/// A walk history shared by a pool of concurrent walkers.
///
/// Writers batch: a walker records its forward walks into a private
/// [`WalkHistory`] and [`merge`](Self::merge)s it in at synchronisation
/// points chosen by the engine (merging per walk would serialise the pool on
/// these locks). Counts are additive, so the merged result is identical
/// for every arrival order — this is what keeps the engine's cooperative
/// mode deterministic at any thread count.
///
/// Stripes are `RwLock`s because the engine's schedule makes the history
/// read-only between barriers: the backward-sampling hot loop takes cheap
/// shared read locks (all walkers probing the same step would otherwise
/// serialise on one stripe), while merges — confined to the barrier window —
/// take the write lock.
#[derive(Debug, Default)]
pub struct SharedWalkHistory {
    /// `stripes[t % STRIPE_COUNT][t / STRIPE_COUNT]` holds step `t`'s
    /// `node → count` map.
    stripes: [RwLock<Vec<NodeMap<u64>>>; STRIPE_COUNT],
    walks: AtomicU64,
}

impl SharedWalkHistory {
    /// Creates an empty shared history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty shared history behind an [`Arc`], ready to hand to
    /// walkers.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Merges all counts of `local` in (additively).
    pub fn merge(&self, local: &WalkHistory) {
        if local.is_empty() {
            return;
        }
        for step in 0..local.max_recorded_length() {
            let mut stripe = write(&self.stripes[step % STRIPE_COUNT]);
            let counts = Self::slot_mut(&mut stripe, step);
            for (node, count) in local.nodes_at(step) {
                *counts.entry(node).or_insert(0) += count;
            }
        }
        self.walks.fetch_add(local.walk_count(), Ordering::Relaxed);
    }

    /// Step `step`'s map within its (write-locked) stripe, grown on demand.
    fn slot_mut(stripe: &mut Vec<NodeMap<u64>>, step: usize) -> &mut NodeMap<u64> {
        let slot = step / STRIPE_COUNT;
        if stripe.len() <= slot {
            stripe.resize_with(slot + 1, NodeMap::default);
        }
        &mut stripe[slot]
    }

    /// Records one walk directly (convenience for tests and single callers;
    /// pools should batch through [`merge`](Self::merge)).
    pub fn record_walk(&self, path: &[NodeId]) {
        if path.is_empty() {
            return;
        }
        for (step, &node) in path.iter().enumerate() {
            let mut stripe = write(&self.stripes[step % STRIPE_COUNT]);
            *Self::slot_mut(&mut stripe, step).entry(node).or_insert(0) += 1;
        }
        self.walks.fetch_add(1, Ordering::Relaxed);
    }

    /// Exports the accumulated counts as a plain [`WalkHistory`] — the shape
    /// the [`HistoryStore`] ingests when a job publishes its walks at reap.
    /// Counts are additive, so the export is identical whatever order the
    /// walkers merged in.
    pub fn export(&self) -> WalkHistory {
        let mut counts: Vec<NodeMap<u64>> = Vec::new();
        for (offset, stripe) in self.stripes.iter().enumerate() {
            for (slot, nodes) in read(stripe).iter().enumerate() {
                if nodes.is_empty() {
                    continue;
                }
                let step = slot * STRIPE_COUNT + offset;
                if counts.len() <= step {
                    counts.resize_with(step + 1, NodeMap::default);
                }
                counts[step] = nodes.clone();
            }
        }
        WalkHistory {
            counts,
            walks: self.walks.load(Ordering::Relaxed),
        }
    }
}

impl HistoryView for SharedWalkHistory {
    /// One stripe read-lock for the whole slice.
    fn add_counts_at(&self, step: usize, nodes: &[NodeId], out: &mut [u64]) {
        let stripe = read(&self.stripes[step % STRIPE_COUNT]);
        add_step_counts(stripe.get(step / STRIPE_COUNT), nodes, out, |count| count);
    }

    fn walk_count(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }
}

/// The weight a reused (prior-job) count enters a job's reads at: half,
/// rounded up, so a single historic visit is never erased and the job's own
/// walks count 2:1 against inherited ones. Evidence from earlier epochs can
/// steer backward walks away from where the job's own walks went, costing
/// variance (never bias); the discount keeps prior epochs from drowning a
/// job's own observations. Whether it beats face value is not yet measured.
pub fn reused_weight(count: u64) -> u64 {
    count.div_ceil(2)
}

/// A shared history snapshot overlaid with a walker's not-yet-merged local
/// walks, over an optional frozen cross-job base: counts are the
/// [`reused_weight`] of the base's plus the sum of the live layers.
#[derive(Debug, Clone, Copy)]
pub struct OverlayHistory<'a> {
    base: Option<&'a FrozenHistory>,
    shared: &'a SharedWalkHistory,
    pending: &'a WalkHistory,
}

impl<'a> OverlayHistory<'a> {
    /// Combines a shared accumulator with a walker's pending local walks.
    pub fn new(shared: &'a SharedWalkHistory, pending: &'a WalkHistory) -> Self {
        OverlayHistory {
            base: None,
            shared,
            pending,
        }
    }
}

impl HistoryView for OverlayHistory<'_> {
    fn add_counts_at(&self, step: usize, nodes: &[NodeId], out: &mut [u64]) {
        if let Some(base) = self.base {
            let reused = base.counts.get(step).map(Arc::as_ref);
            add_step_counts(reused, nodes, out, reused_weight);
        }
        self.shared.add_counts_at(step, nodes, out);
        self.pending.add_counts_at(step, nodes, out);
    }

    fn walk_count(&self) -> u64 {
        let reused = self.base.map_or(0, |base| reused_weight(base.walks));
        reused + self.shared.walk_count() + self.pending.walk_count()
    }
}

/// What makes two jobs' walk histories compatible for reuse: forward walks
/// from the same starting node under the same walk design sample the same
/// Markov chain, so their per-(node, step) visit counts are exchangeable —
/// at *any* walk length, since step `t`'s distribution does not depend on
/// how much further a walk continued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryKey {
    /// The starting node of the forward walks.
    pub start: NodeId,
    /// The input walk design.
    pub kind: RandomWalkKind,
}

/// An immutable snapshot of the walk history published by completed prior
/// jobs, taken from the [`HistoryStore`] at job admission.
///
/// The snapshot never changes after it is handed out (snapshot-on-admit):
/// publications that land while a job runs are only visible to jobs
/// admitted later.
#[derive(Debug, Clone, Default)]
pub struct FrozenHistory {
    /// `counts[t][v]` across every published walk. Per-step maps are
    /// `Arc`-shared with the store's live aggregate (and with earlier
    /// snapshots): a publication clones only the steps its delta touches,
    /// so snapshot cost does not grow with the steps left untouched.
    counts: Vec<Arc<NodeMap<u64>>>,
    /// Number of published walks aggregated.
    walks: u64,
    /// Store epoch this snapshot was frozen at.
    epoch: u64,
    /// Unique-node query cost the publishing jobs spent building these
    /// walks — what a reusing job inherits without paying.
    acquisition_cost: u64,
}

impl FrozenHistory {
    /// Store epoch the snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Unique-node queries the publishers spent on the reused walks.
    pub fn acquisition_cost(&self) -> u64 {
        self.acquisition_cost
    }

    /// Number of published walks aggregated in this snapshot.
    pub fn walks(&self) -> u64 {
        self.walks
    }
}

impl HistoryView for FrozenHistory {
    fn add_counts_at(&self, step: usize, nodes: &[NodeId], out: &mut [u64]) {
        let counts = self.counts.get(step).map(Arc::as_ref);
        add_step_counts(counts, nodes, out, |count| count);
    }

    fn walk_count(&self) -> u64 {
        self.walks
    }
}

/// Point-in-time counters of a [`HistoryStore`] (plain integers, shaped for
/// a metrics endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistoryStoreStats {
    /// Snapshot requests answered with a non-empty [`FrozenHistory`].
    pub hits: u64,
    /// Snapshot requests that found nothing published for their key.
    pub misses: u64,
    /// Publications accepted. By construction always equal to
    /// [`epoch`](Self::epoch) (each accepted publication is one epoch
    /// bump); both names are kept because frontends surface both.
    pub publications: u64,
    /// Walks accepted across all publications.
    pub published_walks: u64,
    /// Walks handed out for reuse, summed over snapshot hits.
    pub reused_walks: u64,
    /// Unique-node query cost of the reused walk histories, summed over
    /// snapshot hits — the queries reusing jobs inherited instead of
    /// re-spending to build an equally rich history.
    pub reuse_savings: u64,
    /// Current store epoch (0 until the first publication).
    pub epoch: u64,
}

/// Per-key aggregate the store grows publication by publication.
///
/// Per-step maps are shared (`Arc`) with the frozen snapshots handed out:
/// a publication copy-on-writes only the steps its delta touches
/// (`Arc::make_mut`), so publishing stays proportional to the delta's
/// footprint instead of re-cloning the whole accumulated history.
#[derive(Debug, Default)]
struct KeyAggregate {
    counts: Vec<Arc<NodeMap<u64>>>,
    walks: u64,
    acquisition_cost: u64,
    /// Copy-on-publish snapshot handed to admitted jobs.
    frozen: Arc<FrozenHistory>,
}

/// A service-scoped, concurrent, epoch-versioned store of published walk
/// histories, keyed by [`HistoryKey`].
///
/// Jobs admitted under a shared policy [`snapshot`](Self::snapshot) the
/// store once, at admission, and read that frozen state for their whole
/// life; jobs under a publishing policy [`publish`](Self::publish) their
/// merged walks when they are reaped (terminal for any reason — a cancelled
/// job's partial history is still evidence). Each publication bumps the
/// store [`epoch`](Self::epoch), so "which publications had completed when
/// this job was admitted" fully determines what the job sees.
#[derive(Debug)]
pub struct HistoryStore {
    inner: RwLock<HashMap<HistoryKey, KeyAggregate>>,
    epoch: AtomicU64,
    /// Publications are refused for a key holding at least this many walks
    /// (0 = unlimited). Bounds the store's memory under sustained traffic.
    max_walks_per_key: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    published_walks: AtomicU64,
    reused_walks: AtomicU64,
    reuse_savings: AtomicU64,
}

/// Default per-key walk cap of a [`HistoryStore`].
pub const DEFAULT_MAX_WALKS_PER_KEY: u64 = 1 << 18;

impl Default for HistoryStore {
    /// Same as [`HistoryStore::new`]: the default per-key walk cap applies.
    fn default() -> Self {
        Self::new()
    }
}

impl HistoryStore {
    /// An empty store with the default per-key walk cap.
    pub fn new() -> Self {
        Self::with_max_walks(DEFAULT_MAX_WALKS_PER_KEY)
    }

    /// An empty store refusing publications once a key holds `max_walks`
    /// walks (0 = unlimited).
    pub fn with_max_walks(max_walks: u64) -> Self {
        HistoryStore {
            inner: RwLock::default(),
            epoch: AtomicU64::new(0),
            max_walks_per_key: max_walks,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            published_walks: AtomicU64::new(0),
            reused_walks: AtomicU64::new(0),
            reuse_savings: AtomicU64::new(0),
        }
    }

    /// Current epoch: the number of accepted publications so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The frozen snapshot an admitted job should read, or `None` when
    /// nothing has been published for `key` yet. Records a hit or miss and,
    /// on a hit, credits the snapshot's walks and acquisition cost to the
    /// reuse counters.
    pub fn snapshot(&self, key: &HistoryKey) -> Option<Arc<FrozenHistory>> {
        let frozen = read(&self.inner)
            .get(key)
            .filter(|aggregate| aggregate.walks > 0)
            .map(|aggregate| Arc::clone(&aggregate.frozen));
        match &frozen {
            Some(snapshot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.reused_walks
                    .fetch_add(snapshot.walks, Ordering::Relaxed);
                self.reuse_savings
                    .fetch_add(snapshot.acquisition_cost, Ordering::Relaxed);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        frozen
    }

    /// Publishes a reaped job's merged walk history under `key`, charging
    /// `acquisition_cost` (the job's own unique-node query cost) to the
    /// snapshot future reusers inherit. Returns whether the publication was
    /// accepted: empty histories and keys already at the walk cap are
    /// refused without bumping the epoch.
    pub fn publish(&self, key: HistoryKey, history: &WalkHistory, acquisition_cost: u64) -> bool {
        if history.is_empty() {
            return false;
        }
        let mut inner = write(&self.inner);
        let aggregate = inner.entry(key).or_default();
        if self.max_walks_per_key > 0 && aggregate.walks >= self.max_walks_per_key {
            return false;
        }
        if aggregate.counts.len() < history.max_recorded_length() {
            aggregate
                .counts
                .resize_with(history.max_recorded_length(), Arc::default);
        }
        for (step, step_counts) in aggregate.counts.iter_mut().enumerate() {
            let mut nodes = history.nodes_at(step).peekable();
            if nodes.peek().is_none() {
                // Untouched step: stays Arc-shared with prior snapshots.
                continue;
            }
            // Copy-on-write: clones the step's map only when it is still
            // shared with an earlier snapshot, and only for touched steps.
            let step_counts = Arc::make_mut(step_counts);
            for (node, count) in nodes {
                *step_counts.entry(node).or_insert(0) += count;
            }
        }
        aggregate.walks += history.walk_count();
        aggregate.acquisition_cost += acquisition_cost;
        // The epoch *is* the count of accepted publications (stats() reports
        // it under both names).
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        aggregate.frozen = Arc::new(FrozenHistory {
            counts: aggregate.counts.clone(),
            walks: aggregate.walks,
            epoch,
            acquisition_cost: aggregate.acquisition_cost,
        });
        self.published_walks
            .fetch_add(history.walk_count(), Ordering::Relaxed);
        true
    }

    /// A copy of every counter.
    pub fn stats(&self) -> HistoryStoreStats {
        let epoch = self.epoch();
        HistoryStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            publications: epoch,
            published_walks: self.published_walks.load(Ordering::Relaxed),
            reused_walks: self.reused_walks.load(Ordering::Relaxed),
            reuse_savings: self.reuse_savings.load(Ordering::Relaxed),
            epoch,
        }
    }
}

/// The history a sampler records into: its own, or a pool's shared one.
#[derive(Debug, Clone)]
pub enum HistoryHandle {
    /// A private history, as the single-threaded samplers use.
    Local(WalkHistory),
    /// A pool-shared history plus this walker's pending (unmerged) walks,
    /// optionally read over a frozen cross-job base. The base is read-only
    /// and never republished, so publication at reap exports only the job's
    /// own walks.
    Shared {
        /// The frozen prior-jobs snapshot (taken at admission), if any.
        base: Option<Arc<FrozenHistory>>,
        /// The accumulator shared by the pool.
        shared: Arc<SharedWalkHistory>,
        /// Walks recorded since the last [`flush`](HistoryHandle::flush).
        pending: WalkHistory,
    },
}

impl Default for HistoryHandle {
    fn default() -> Self {
        HistoryHandle::Local(WalkHistory::new())
    }
}

impl HistoryHandle {
    /// A handle merging into `shared` whose reads also see the
    /// [`reused_weight`] of a frozen cross-job `base`, if one is given.
    pub fn shared(shared: Arc<SharedWalkHistory>, base: Option<Arc<FrozenHistory>>) -> Self {
        HistoryHandle::Shared {
            base,
            shared,
            pending: WalkHistory::new(),
        }
    }

    /// Records one forward walk.
    pub fn record_walk(&mut self, path: &[NodeId]) {
        match self {
            HistoryHandle::Local(h) => h.record_walk(path),
            HistoryHandle::Shared { pending, .. } => pending.record_walk(path),
        }
    }

    /// Publishes pending walks to the shared accumulator (no-op for local
    /// handles). The engine calls this at its round barriers.
    pub fn flush(&mut self) {
        if let HistoryHandle::Shared {
            shared, pending, ..
        } = self
        {
            shared.merge(pending);
            pending.clear();
        }
    }

    /// The view a backward estimator should read: local counts, or the
    /// shared counts overlaid with this walker's pending walks (plus the
    /// weighted frozen base, when there is one).
    pub fn view(&self) -> HistoryViewRef<'_> {
        match self {
            HistoryHandle::Local(h) => HistoryViewRef::Local(h),
            HistoryHandle::Shared {
                base,
                shared,
                pending,
            } => HistoryViewRef::Overlay(OverlayHistory {
                base: base.as_deref(),
                shared,
                pending,
            }),
        }
    }
}

/// A borrowed [`HistoryView`] produced by [`HistoryHandle::view`].
#[derive(Debug, Clone, Copy)]
pub enum HistoryViewRef<'a> {
    /// View of a private history.
    Local(&'a WalkHistory),
    /// View of a shared history plus pending local walks, over an optional
    /// frozen base.
    Overlay(OverlayHistory<'a>),
}

impl HistoryView for HistoryViewRef<'_> {
    fn add_counts_at(&self, step: usize, nodes: &[NodeId], out: &mut [u64]) {
        match self {
            HistoryViewRef::Local(h) => h.add_counts_at(step, nodes, out),
            HistoryViewRef::Overlay(o) => o.add_counts_at(step, nodes, out),
        }
    }

    fn walk_count(&self) -> u64 {
        match self {
            HistoryViewRef::Local(h) => h.walk_count(),
            HistoryViewRef::Overlay(o) => o.walk_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = WalkHistory::new();
        h.record_walk(&[NodeId(0), NodeId(1), NodeId(2)]);
        h.record_walk(&[NodeId(0), NodeId(1), NodeId(1)]);
        assert_eq!(h.walk_count(), 2);
        assert_eq!(h.count_at(NodeId(0), 0), 2);
        assert_eq!(h.count_at(NodeId(1), 1), 2);
        assert_eq!(h.count_at(NodeId(2), 2), 1);
        assert_eq!(h.count_at(NodeId(1), 2), 1);
        assert_eq!(h.count_at(NodeId(9), 1), 0);
        assert_eq!(h.max_recorded_length(), 3);
    }

    #[test]
    fn nodes_at_enumerates_step_visits() {
        let mut h = WalkHistory::new();
        h.record_walk(&[NodeId(0), NodeId(1)]);
        h.record_walk(&[NodeId(0), NodeId(2)]);
        let mut at1: Vec<(NodeId, u64)> = h.nodes_at(1).collect();
        at1.sort();
        assert_eq!(at1, vec![(NodeId(1), 1), (NodeId(2), 1)]);
        assert_eq!(h.nodes_at(5).count(), 0);
    }

    #[test]
    fn empty_walk_is_ignored_and_clear_resets() {
        let mut h = WalkHistory::new();
        h.record_walk(&[]);
        assert_eq!(h.walk_count(), 0);
        h.record_walk(&[NodeId(3)]);
        assert_eq!(h.walk_count(), 1);
        h.clear();
        assert_eq!(h.walk_count(), 0);
        assert_eq!(h.max_recorded_length(), 0);
    }

    #[test]
    fn variable_length_walks_extend_history() {
        let mut h = WalkHistory::new();
        h.record_walk(&[NodeId(0), NodeId(1)]);
        h.record_walk(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(h.max_recorded_length(), 4);
        assert_eq!(h.count_at(NodeId(3), 3), 1);
    }

    #[test]
    fn shared_history_merge_matches_direct_recording() {
        let shared = SharedWalkHistory::new();
        let mut a = WalkHistory::new();
        a.record_walk(&[NodeId(0), NodeId(1), NodeId(2)]);
        a.record_walk(&[NodeId(0), NodeId(2), NodeId(2)]);
        let mut b = WalkHistory::new();
        b.record_walk(&[NodeId(0), NodeId(1), NodeId(1)]);
        shared.merge(&a);
        shared.merge(&b);
        shared.record_walk(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(HistoryView::walk_count(&shared), 4);
        assert_eq!(HistoryView::count_at(&shared, NodeId(0), 0), 4);
        assert_eq!(HistoryView::count_at(&shared, NodeId(1), 1), 3);
        assert_eq!(HistoryView::count_at(&shared, NodeId(2), 2), 3);
        assert_eq!(HistoryView::count_at(&shared, NodeId(9), 1), 0);
        // Merging an empty history is a no-op.
        shared.merge(&WalkHistory::new());
        assert_eq!(HistoryView::walk_count(&shared), 4);
    }

    #[test]
    fn shared_history_concurrent_merges_lose_nothing() {
        let shared = SharedWalkHistory::shared();
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let shared = shared.clone();
                scope.spawn(move || {
                    for i in 0..100u32 {
                        let mut local = WalkHistory::new();
                        local.record_walk(&[NodeId(0), NodeId(t), NodeId(i % 5)]);
                        shared.merge(&local);
                    }
                });
            }
        });
        assert_eq!(HistoryView::walk_count(&*shared), 800);
        assert_eq!(HistoryView::count_at(&*shared, NodeId(0), 0), 800);
        let step2: u64 = (0..5)
            .map(|i| HistoryView::count_at(&*shared, NodeId(i), 2))
            .sum();
        assert_eq!(step2, 800);
    }

    #[test]
    fn overlay_sums_base_and_pending() {
        let shared = SharedWalkHistory::new();
        shared.record_walk(&[NodeId(0), NodeId(1)]);
        let mut pending = WalkHistory::new();
        pending.record_walk(&[NodeId(0), NodeId(1)]);
        pending.record_walk(&[NodeId(0), NodeId(2)]);
        let overlay = OverlayHistory::new(&shared, &pending);
        assert_eq!(overlay.walk_count(), 3);
        assert_eq!(overlay.count_at(NodeId(1), 1), 2);
        assert_eq!(overlay.count_at(NodeId(2), 1), 1);
        assert_eq!(overlay.count_at(NodeId(0), 0), 3);
    }

    #[test]
    fn handle_flush_publishes_and_clears_pending() {
        let shared = SharedWalkHistory::shared();
        let mut handle = HistoryHandle::shared(shared.clone(), None);
        handle.record_walk(&[NodeId(0), NodeId(3)]);
        // Before the flush the walk is visible to this handle only.
        assert_eq!(handle.view().count_at(NodeId(3), 1), 1);
        assert_eq!(HistoryView::count_at(&*shared, NodeId(3), 1), 0);
        handle.flush();
        assert_eq!(HistoryView::count_at(&*shared, NodeId(3), 1), 1);
        assert_eq!(
            handle.view().count_at(NodeId(3), 1),
            1,
            "no double counting after flush"
        );
        assert_eq!(handle.view().walk_count(), 1);
        // Local handles flush to nowhere.
        let mut local = HistoryHandle::default();
        local.record_walk(&[NodeId(7)]);
        local.flush();
        assert_eq!(local.view().count_at(NodeId(7), 0), 1);
    }

    fn key() -> HistoryKey {
        HistoryKey {
            start: NodeId(0),
            kind: RandomWalkKind::Simple,
        }
    }

    fn walks(paths: &[&[NodeId]]) -> WalkHistory {
        let mut h = WalkHistory::new();
        for path in paths {
            h.record_walk(path);
        }
        h
    }

    #[test]
    fn shared_history_export_round_trips_counts() {
        let shared = SharedWalkHistory::new();
        shared.record_walk(&[NodeId(0), NodeId(1), NodeId(2)]);
        shared.record_walk(&[NodeId(0), NodeId(1)]);
        let export = shared.export();
        assert_eq!(export.walk_count(), 2);
        assert_eq!(export.max_recorded_length(), 3);
        assert_eq!(export.count_at(NodeId(0), 0), 2);
        assert_eq!(export.count_at(NodeId(1), 1), 2);
        assert_eq!(export.count_at(NodeId(2), 2), 1);
        // An empty accumulator exports an empty history.
        assert!(SharedWalkHistory::new().export().is_empty());
    }

    #[test]
    fn store_snapshot_misses_until_published_then_hits() {
        let store = HistoryStore::new();
        assert_eq!(store.epoch(), 0);
        assert!(store.snapshot(&key()).is_none());
        assert!(store.publish(key(), &walks(&[&[NodeId(0), NodeId(1)]]), 40));
        assert_eq!(store.epoch(), 1);
        let snap = store.snapshot(&key()).expect("published key hits");
        assert_eq!(snap.walks(), 1);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.acquisition_cost(), 40);
        assert_eq!(HistoryView::count_at(&*snap, NodeId(1), 1), 1);
        // A different key still misses.
        let other = HistoryKey {
            start: NodeId(9),
            kind: RandomWalkKind::MetropolisHastings,
        };
        assert!(store.snapshot(&other).is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.publications, 1);
        assert_eq!(stats.published_walks, 1);
        assert_eq!(stats.reused_walks, 1);
        assert_eq!(stats.reuse_savings, 40);
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn snapshot_on_admit_is_frozen_against_later_publications() {
        let store = HistoryStore::new();
        store.publish(key(), &walks(&[&[NodeId(0), NodeId(1)]]), 10);
        let admitted = store.snapshot(&key()).unwrap();
        // A mid-job publication must not leak into the held snapshot.
        store.publish(key(), &walks(&[&[NodeId(0), NodeId(1)]]), 5);
        assert_eq!(admitted.walks(), 1);
        assert_eq!(HistoryView::count_at(&*admitted, NodeId(1), 1), 1);
        assert_eq!(admitted.epoch(), 1);
        // A job admitted after the second publication sees both.
        let later = store.snapshot(&key()).unwrap();
        assert_eq!(later.walks(), 2);
        assert_eq!(HistoryView::count_at(&*later, NodeId(1), 1), 2);
        assert_eq!(later.epoch(), 2);
        assert_eq!(later.acquisition_cost(), 15);
    }

    #[test]
    fn empty_and_over_cap_publications_are_refused() {
        let store = HistoryStore::with_max_walks(2);
        assert!(!store.publish(key(), &WalkHistory::new(), 99));
        assert_eq!(store.epoch(), 0);
        assert!(store.publish(key(), &walks(&[&[NodeId(0)], &[NodeId(0)]]), 7));
        // The key now holds 2 walks — at the cap, further publications are
        // refused and the epoch stays put.
        assert!(!store.publish(key(), &walks(&[&[NodeId(0)]]), 7));
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.stats().published_walks, 2);
    }

    #[test]
    fn reuse_correction_weights_counts() {
        assert_eq!(reused_weight(5), 3);
        assert_eq!(reused_weight(4), 2);
        // A single historic visit survives the discount.
        assert_eq!(reused_weight(1), 1);
        assert_eq!(reused_weight(0), 0);
    }

    #[test]
    fn seeded_handle_sums_corrected_base_and_live_layers() {
        let store = HistoryStore::new();
        store.publish(
            key(),
            &walks(&[
                &[NodeId(0), NodeId(1)],
                &[NodeId(0), NodeId(1)],
                &[NodeId(0), NodeId(1)],
            ]),
            12,
        );
        let base = store.snapshot(&key()).unwrap();
        let shared = SharedWalkHistory::shared();
        shared.record_walk(&[NodeId(0), NodeId(2)]);
        let mut handle = HistoryHandle::shared(shared, Some(base));
        handle.record_walk(&[NodeId(0), NodeId(1)]);
        let view = handle.view();
        // Base 3 visits at (1,1) discounted to 2, plus the pending walk.
        assert_eq!(view.count_at(NodeId(1), 1), 3);
        assert_eq!(view.count_at(NodeId(2), 1), 1);
        // walk_count: ceil(3/2)=2 base + 1 shared + 1 pending.
        assert_eq!(view.walk_count(), 4);
        // Flushing a seeded handle publishes only its own pending walks.
        handle.flush();
        if let HistoryHandle::Shared { shared, .. } = &handle {
            assert_eq!(HistoryView::walk_count(&**shared), 2);
        } else {
            unreachable!();
        }
    }
}
