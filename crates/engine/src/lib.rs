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
//! * [`ShardedIngest`] — N per-shard rings of time slices behind
//!   mutexes, the slices of one [`MergeableSketch`] kind (1-D or 2-D);
//!   a landmark ingest keeps one-slice rings that never advance. Bulk loads
//!   ([`ShardedIngest::ingest_parallel`]) split the rows into one
//!   contiguous share per shard and run one task per share on the global
//!   `workpool` pool, each pushing straight into its shard, so for a
//!   given shard count the merged state is bitwise identical whatever
//!   the pool's thread count or timing; a load uses at most
//!   `min(shards, pool threads)` cores. Streaming inserts round-robin one
//!   shard per batch and scatter into it under its lock, so writers on
//!   different shards never contend, and a one-shard ingest is bitwise
//!   the single-stream sketch. At estimate time the shards merge
//!   (weighted sketch addition) into exactly the single-stream state.
//! * [`WindowedIngest`] — a [`ShardedIngest`] built from a windowed
//!   [`WindowPolicy`], for 1-D and 2-D sketches alike.
//!   [`ShardedIngest::advance_all`] retires the oldest slice of every
//!   shard by clearing it in place (no allocation), so sliding-window and
//!   exponentially-decayed estimates subtract old data by dropping a
//!   slice instead of un-merging it.
//!   Selected per attribute or attribute pair via
//!   [`SynopsisConfig::with_window`].
//! * [`Synopsis<S>`](Synopsis) — one sharded sketch of kind `S` plus a
//!   cached refreshed snapshot behind an atomically swapped
//!   [`std::sync::Arc`]. The sketch kind ([`SynopsisSketch`]) picks the
//!   sized template, the snapshot and its CDF resolution; the ingest,
//!   windows, epoch, cache, rebuild guard and poison recovery are shared.
//!   Two kinds exist, each landmark or windowed:
//!   - [`AttributeSynopsis`] = `Synopsis<CoefficientSketch>`: one
//!     column, whose [`RefreshedSynopsis`] (thresholded density + CDF
//!     table) answers `selectivity(lo, hi)`.
//!   - [`JointSynopsis`] = `Synopsis<TensorSketch>`: a column pair of
//!     `(x, y)` rows, whose [`RefreshedJoint`] answers
//!     `selectivity((a₁, b₁), (a₂, b₂))` — rectangle mass by
//!     inclusion–exclusion over a joint CDF grid — capturing the
//!     cross-attribute correlation the product of two marginals misses.
//!
//!   Readers read, writers refresh: [`Synopsis::refresh`] is the only
//!   way a snapshot gets built (one rebuild per stale burst, a fresh
//!   cache served without locking), and latency-sensitive readers take
//!   [`Synopsis::cached`], which never rebuilds or waits and may be
//!   stale. The catalog's fallible queries answer from `refresh`, so they
//!   wait for a stale snapshot's rebuild.
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
pub use sharded::{MergeableSketch, ShardedIngest};
pub use synopsis::{
    AttributeSynopsis, RefreshedSynopsis, Synopsis, SynopsisConfig, SynopsisSketch,
};
pub use windowed::WindowedIngest;

// Re-exported so engine users can pick a shipping policy or window policy
// without a direct `wavedens_core` dependency.
pub use wavedens_core::{CompactionPolicy, WindowPolicy};
