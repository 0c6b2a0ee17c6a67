//! # wavedens-engine
//!
//! A concurrent, multi-attribute **synopsis engine** on top of the
//! mergeable sketches of `wavedens-core`: the piece that turns the
//! single-attribute, single-threaded estimator into something a query
//! optimiser can run under heavy traffic.
//!
//! The design splits the estimator state along the line the paper's
//! mathematics draws anyway: the empirical coefficients are *sample
//! means* (plus sums of squares and a count), so **accumulation** is a
//! mergeable sketch that shards across threads and nodes, while **model
//! selection** (cross-validated thresholds, data-driven `ĵ1`, CDF table)
//! runs downstream on the merged state. Concretely:
//!
//! * [`ShardedIngest`] — N per-shard sketches behind mutexes, generic
//!   over the [`MergeableSketch`] kind. Bulk loads
//!   ([`ShardedIngest::ingest_parallel`]) split the rows into chunks that
//!   run as tasks on the global `workpool` work-stealing pool; streaming
//!   inserts round-robin one shard per batch, so writers on different
//!   shards never contend. At estimate time the shards merge (weighted
//!   sketch addition) into exactly the single-stream state.
//! * [`WindowedIngest`] — the streaming sibling of [`ShardedIngest`]:
//!   per-shard *rings* of time-sliced 1-D sketches.
//!   [`WindowedIngest::advance_all`] retires the oldest slice in O(1) per
//!   shard, so sliding-window and exponentially-decayed estimates
//!   subtract old data by dropping a slice instead of un-merging it.
//!   Selected per attribute via [`SynopsisConfig::with_window`] and a
//!   [`WindowPolicy`].
//! * [`Synopsis<S>`](Synopsis) — one sharded sketch of kind `S` plus a
//!   cached refreshed snapshot behind an atomically swapped
//!   [`std::sync::Arc`]. The sketch kind ([`SynopsisSketch`]) picks the
//!   ingest structure, the snapshot and its CDF resolution; the epoch,
//!   cache, rebuild guard and poison recovery are shared. Two kinds exist:
//!   - [`AttributeSynopsis`] = `Synopsis<CoefficientSketch>`: one
//!     column, landmark or windowed, whose [`RefreshedSynopsis`]
//!     (thresholded density + CDF table) answers `selectivity(lo, hi)`.
//!   - [`JointSynopsis`] = `Synopsis<TensorSketch>`: a column pair of
//!     `(x, y)` rows, whose [`RefreshedJoint`] answers
//!     `joint_selectivity((a₁, b₁), (a₂, b₂))` — rectangle mass by
//!     inclusion–exclusion over a joint CDF grid — capturing the
//!     cross-attribute correlation the product of two marginals misses.
//!
//!   Latency-sensitive readers take [`Synopsis::cached`] (never rebuilds,
//!   possibly stale) while the write side calls [`Synopsis::refresh`];
//!   the lazy [`Synopsis::refreshed`] path rebuilds on demand with
//!   exactly one rebuilder per stale burst, and concurrent readers keep
//!   answering from the previous snapshot.
//! * [`SynopsisCatalog`] — a named registry of attribute synopses (and
//!   attribute-*pair* synopses, keyed `(a, b)`), so one process serves
//!   selectivity estimates for many table columns at once.
//!
//! ```
//! use wavedens_engine::{SynopsisCatalog, SynopsisConfig};
//!
//! let catalog = SynopsisCatalog::new();
//! let config = SynopsisConfig::default().with_expected_rows(2000);
//! catalog.register("orders.amount", config).unwrap();
//! let values: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.37) % 1.0).collect();
//! catalog.ingest("orders.amount", &values).unwrap();
//! let s = catalog.selectivity("orders.amount", 0.2, 0.5).unwrap();
//! assert!((s - 0.3).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod joint;
pub mod sharded;
pub mod synopsis;
pub mod windowed;

pub use catalog::{EngineError, SynopsisCatalog};
pub use joint::{JointSynopsis, RefreshedJoint};
pub use sharded::{MergeableSketch, ShardedIngest, SketchIngest};
pub use synopsis::{
    AttributeSynopsis, IngestBackend, RefreshedSynopsis, Synopsis, SynopsisConfig, SynopsisSketch,
};
pub use windowed::WindowedIngest;

// Re-exported so engine users can pick a shipping policy or window policy
// without a direct `wavedens_core` dependency.
pub use wavedens_core::{CompactionPolicy, WindowPolicy};
