//! # wnw-runtime — persistent round-barrier worker pool
//!
//! The engine's schedule is a sequence of **rounds**: a batch of independent
//! tasks (one per live walker, or one per repetition) that must *all*
//! complete before the next phase may start. Before this crate, every such
//! round spawned and joined fresh OS threads through [`std::thread::scope`]
//! — a service interleaving many jobs paid thread-creation cost on every
//! round of every job. [`WorkerPool`] replaces that with threads spawned
//! **once**: `width - 1` parked workers plus the calling thread execute each
//! round's batch, and a condition-variable barrier makes `run_round` return
//! only after every task of the round has finished. After pool startup, the
//! hot path never calls `thread::spawn` again.
//!
//! Design points, in the order they matter:
//!
//! * **Barrier-precise.** A round's tasks are claimed one at a time from
//!   one shared queue (no work stealing, no fixed per-lane chunks, so a
//!   lane that finishes early takes the next task); the submitting call
//!   blocks until the last task completes. Phase semantics are exactly those of the scoped-spawn code
//!   it replaces, so the engine's determinism argument — per-request sample
//!   multisets invariant to pool width and co-load — carries over verbatim:
//!   the pool decides only *where* a task runs, never what it computes.
//! * **Inline fast path.** A width-1 pool spawns no threads at all, and any
//!   round with a single task runs on the caller — a 1-walker job, or a job
//!   winding down to its last live walker, never touches the workers. These
//!   rounds are counted in [`PoolStats::spawnless_rounds`].
//! * **Panic containment.** Every task runs under `catch_unwind`; a
//!   panicking task never breaks the barrier. After the round completes, the
//!   payload of the lowest-indexed panicking task is resumed on the caller
//!   (lowest for determinism, mirroring the engine's per-walker rule).
//! * **Instrumented.** [`PoolStats`] counts dispatched vs spawnless rounds
//!   and worker wakeups, surfaced by `wnw-service` through
//!   `ServiceMetricsSnapshot` and the gateway's `GET /v1/metrics`.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use wnw_runtime::WorkerPool;
//!
//! let pool = WorkerPool::new(4); // 3 parked workers + the caller
//! let hits = AtomicUsize::new(0);
//! let mut items = vec![0u64; 8];
//! pool.round(&mut items, |x| {
//!     *x += 1;
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! // The barrier guarantees every task ran before `round` returned.
//! assert_eq!(hits.load(Ordering::Relaxed), 8);
//! assert_eq!(pool.stats().rounds_dispatched, 1);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod pool;

pub use pool::{PoolStats, Task, WorkerPool};
