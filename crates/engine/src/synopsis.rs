//! Synopses: a sharded sketch filled by writers plus an atomically
//! swapped cache of the refreshed estimate, as one [`Synopsis`] generic
//! over the sketch kind ([`SynopsisSketch`]): [`AttributeSynopsis`] is the
//! 1-D kind, [`JointSynopsis`](crate::JointSynopsis) the 2-D one.

use crate::sharded::{MergeableSketch, ShardedIngest};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, TryLockError};
use wavedens_core::{
    CoefficientSketch, CompactionPolicy, CumulativeEstimate, CvCache, DenseEvalCache,
    EstimatorError, ThresholdRule, WaveletDensityEstimate, WindowPolicy, DEFAULT_CDF_POINTS,
};

/// Configuration of a [`Synopsis`], marginal or joint.
///
/// Compared with `PartialEq` when an attribute participates in both a
/// standalone synopsis and a registered pair: the catalog refuses an
/// attribute or pair registration that would give one attribute two
/// *different* configurations (see
/// [`crate::SynopsisCatalog::register_pair`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisConfig {
    /// Thresholding nonlinearity applied at refresh time (default soft,
    /// the paper's STCV).
    pub rule: ThresholdRule,
    /// Rough number of rows the sketch levels are sized for (the paper's
    /// level rules need an anticipated sample size; default 4096). An
    /// attribute synopsis fails to build from `2^22` rows on, where its
    /// levels outgrow [`wavedens_core::MAX_COEFFICIENT_SLOTS`].
    pub expected_rows: usize,
    /// Number of ingest shards (default: the machine's available
    /// parallelism).
    pub shards: usize,
    /// Resolution of the precomputed CDF table (default
    /// [`DEFAULT_CDF_POINTS`]; per axis, capped at 257, for joints).
    pub cdf_points: usize,
    /// How the synopsis weights history (default
    /// [`WindowPolicy::Landmark`]: one lifetime sketch per shard).
    /// Every shard of the [`ShardedIngest`] is a ring of time slices: a
    /// one-slice ring that never advances under the landmark policy, the
    /// ring the policy calls for otherwise. Marginal and joint synopses
    /// take the same policies. See [`Synopsis::advance`].
    pub window: WindowPolicy,
}

impl Default for SynopsisConfig {
    fn default() -> Self {
        Self {
            rule: ThresholdRule::Soft,
            expected_rows: 4096,
            shards: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            cdf_points: DEFAULT_CDF_POINTS,
            window: WindowPolicy::Landmark,
        }
    }
}

impl SynopsisConfig {
    /// Sets the expected row count.
    pub fn with_expected_rows(mut self, rows: usize) -> Self {
        self.expected_rows = rows;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the thresholding rule.
    pub fn with_rule(mut self, rule: ThresholdRule) -> Self {
        self.rule = rule;
        self
    }

    /// Sets the window policy (validated when the synopsis is built).
    pub fn with_window(mut self, window: WindowPolicy) -> Self {
        self.window = window;
        self
    }
}

/// The refreshed state of a synopsis: the thresholded density estimate
/// plus its precomputed cumulative (CDF) table. Immutable once built;
/// shared with readers via [`Arc`].
#[derive(Debug, Clone)]
pub struct RefreshedSynopsis {
    density: WaveletDensityEstimate,
    cumulative: CumulativeEstimate,
}

impl RefreshedSynopsis {
    /// Runs the model-selection pipeline (cross-validated thresholds +
    /// dense CDF construction) on an accumulation state.
    pub fn build(
        sketch: &CoefficientSketch,
        rule: ThresholdRule,
        cdf_points: usize,
    ) -> Result<Self, EstimatorError> {
        let density = sketch.estimate(rule)?;
        let cumulative = density.cumulative(cdf_points);
        Ok(Self {
            density,
            cumulative,
        })
    }

    /// The delta-aware variant of [`build`](Self::build): runs the
    /// cross-validation through a [`CvCache`] (unchanged levels skip the
    /// candidate scan, dirty levels repair the previous order instead of
    /// re-sorting) and the CDF construction through a [`DenseEvalCache`]
    /// (basis-function values on the fixed grid are interpolated once and
    /// replayed). Bitwise identical to `build` for any cache state; this
    /// is what the engine's incremental refresh calls with the caches it
    /// keeps across rebuilds.
    pub fn build_cached(
        sketch: &CoefficientSketch,
        rule: ThresholdRule,
        cdf_points: usize,
        cv: &mut CvCache,
        dense: &mut DenseEvalCache,
    ) -> Result<Self, EstimatorError> {
        let density = sketch.estimate_with_cache(rule, cv)?;
        let cumulative = density.cumulative_cached(cdf_points, dense);
        Ok(Self {
            density,
            cumulative,
        })
    }

    /// The thresholded density estimate.
    pub fn density(&self) -> &WaveletDensityEstimate {
        &self.density
    }

    /// The precomputed cumulative (CDF) table.
    pub fn cumulative(&self) -> &CumulativeEstimate {
        &self.cumulative
    }

    /// Estimated selectivity `P(lo ≤ X ≤ hi)`; O(1) from the CDF table.
    ///
    /// The range mass is normalized by the table's total mass
    /// ([`CumulativeEstimate::selectivity`]): an oscillating wavelet
    /// estimate (or a truncated support) makes the tabulated mass drift
    /// from 1, and the raw range mass would then be biased by exactly that
    /// drift — and could even exceed 1.
    pub fn selectivity(&self, lo: f64, hi: f64) -> f64 {
        self.cumulative.selectivity(lo, hi)
    }
}

/// A sketch kind a [`Synopsis`] can serve: a [`MergeableSketch`] plus the
/// four things that differ between the 1-D and 2-D synopses.
pub trait SynopsisSketch: MergeableSketch {
    /// The immutable refreshed estimate readers share.
    type Snapshot: Debug + Send + Sync;
    /// Incremental state a rebuild keeps for the next one (reset after a
    /// panicked rebuild).
    type RebuildCache: Debug + Default + Send;

    /// The empty sketch every shard slice starts from, sized for
    /// `config.expected_rows`.
    fn template(config: &SynopsisConfig) -> Result<Self, EstimatorError>;

    /// Runs model selection and CDF construction on a merged sketch, with
    /// `config`'s rule and its `cdf_points` clamped to what this kind
    /// tabulates.
    fn snapshot(
        &self,
        config: &SynopsisConfig,
        cache: &mut Self::RebuildCache,
    ) -> Result<Self::Snapshot, EstimatorError>;

    /// Truncates the sketch under `policy` (see
    /// [`CoefficientSketch::compact`]).
    fn compact(
        &self,
        policy: CompactionPolicy,
        rule: ThresholdRule,
    ) -> Result<Self, EstimatorError>;

    /// Serializes the sketch to its wire frame.
    fn to_bytes(&self) -> Vec<u8>;
}

/// The 1-D kind: scalar rows and an incremental rebuild through a
/// [`CvCache`] and a [`DenseEvalCache`].
impl SynopsisSketch for CoefficientSketch {
    type Snapshot = RefreshedSynopsis;
    type RebuildCache = (CvCache, DenseEvalCache);

    fn template(config: &SynopsisConfig) -> Result<Self, EstimatorError> {
        Self::sized_for(config.expected_rows.max(16))
    }

    fn snapshot(
        &self,
        config: &SynopsisConfig,
        (cv, dense): &mut Self::RebuildCache,
    ) -> Result<RefreshedSynopsis, EstimatorError> {
        RefreshedSynopsis::build_cached(self, config.rule, config.cdf_points.max(2), cv, dense)
    }

    fn compact(
        &self,
        policy: CompactionPolicy,
        rule: ThresholdRule,
    ) -> Result<Self, EstimatorError> {
        CoefficientSketch::compact(self, policy, rule)
    }

    fn to_bytes(&self) -> Vec<u8> {
        CoefficientSketch::to_bytes(self)
    }
}

/// State owned by whichever thread holds the rebuild guard: the scratch
/// sketch the shards are merged into (allocated once, reused every
/// refresh) and the kind's incremental [`SynopsisSketch::RebuildCache`].
type RefreshState<S> = (Option<S>, <S as SynopsisSketch>::RebuildCache);

/// A synopsis: a sharded sketch of kind `S` filled by writers plus an
/// atomically swapped `Arc` of the latest refreshed snapshot.
///
/// # Concurrency model
///
/// * **Writers** ([`ingest`](Self::ingest) /
///   [`ingest_parallel`](Self::ingest_parallel)) touch only their shard's
///   mutex and bump the ingest epoch; they never build estimates.
/// * **Readers on the cached path** ([`cached`](Self::cached), and the
///   1-D [`AttributeSynopsis::selectivity_cached`]) clone the latest
///   snapshot `Arc` under a briefly held read lock and never rebuild:
///   they may answer from a snapshot stale by the batches ingested since
///   the last refresh, and get `None` before the first one. The write
///   side owns the rebuilds and calls [`refresh`](Self::refresh), which
///   blocks on the rebuild guard and rebuilds if the epoch moved. The
///   catalog's `selectivity_cached`/`refresh` pair and the benchmark's
///   reader/writer loops use this split, so a rebuild's cost never shows
///   up as query latency.
/// * **Readers on the lazy path** ([`refreshed`](Self::refreshed) and the
///   `try_*`/infallible selectivity methods) rebuild on demand: when the
///   cache is stale, the **first** reader to notice becomes the
///   rebuilder. It merges the shards into a scratch sketch, builds the
///   snapshot *outside* any reader-visible lock, and swaps the cache
///   `Arc`. Readers arriving during the rebuild keep answering from the
///   previous snapshot (the only blocking case is the very first build,
///   when no snapshot exists yet), so a burst of stale-cache queries
///   triggers exactly one rebuild ([`rebuild_count`](Self::rebuild_count)
///   exposes the counter).
/// * A thread that panics mid-rebuild poisons neither path: the cache
///   keeps its previous snapshot and the next rebuild starts from fresh
///   incremental state.
#[derive(Debug)]
pub struct Synopsis<S: SynopsisSketch> {
    backend: ShardedIngest<S>,
    /// The configuration this synopsis was built from (kept verbatim so
    /// the catalog can detect config conflicts between attributes and
    /// pairs).
    config: SynopsisConfig,
    /// Bumped after every completed ingest batch; the cache is fresh when
    /// its recorded epoch matches.
    epoch: AtomicU64,
    /// The latest snapshot and the epoch it covers.
    cache: RwLock<Option<(u64, Arc<S::Snapshot>)>>,
    /// Serialises rebuilds; lazy readers `try_lock` it so at most one
    /// becomes the rebuilder while the rest serve the previous snapshot.
    rebuild_guard: Mutex<RefreshState<S>>,
    rebuilds: AtomicUsize,
}

/// One attribute's synopsis: the 1-D [`Synopsis`] over a
/// [`CoefficientSketch`], landmark or windowed.
pub type AttributeSynopsis = Synopsis<CoefficientSketch>;

impl<S: SynopsisSketch> Synopsis<S> {
    /// Creates an empty synopsis from a configuration: `config.shards`
    /// rings of the size `config.window` calls for (one slice under
    /// [`WindowPolicy::Landmark`]), every slice an empty
    /// [`template`](SynopsisSketch::template). Fails on invalid
    /// window-policy parameters (zero-slice sliding window, decay factor
    /// outside `(0, 1]`) and on a template the sketch kind cannot build.
    pub fn new(config: &SynopsisConfig) -> Result<Self, EstimatorError> {
        Ok(Self {
            backend: ShardedIngest::with_window(
                &S::template(config)?,
                config.shards,
                config.window,
            )?,
            config: config.clone(),
            epoch: AtomicU64::new(0),
            cache: RwLock::new(None),
            rebuild_guard: Mutex::new(RefreshState::default()),
            rebuilds: AtomicUsize::new(0),
        })
    }

    /// The configuration this synopsis was built from, verbatim.
    pub fn config(&self) -> &SynopsisConfig {
        &self.config
    }

    /// The thresholding rule applied at refresh time.
    pub fn rule(&self) -> ThresholdRule {
        self.config.rule
    }

    /// Number of ingest shards.
    pub fn shard_count(&self) -> usize {
        self.backend.shard_count()
    }

    /// Total rows currently contributing to the synopsis — all rows ever
    /// ingested for a landmark synopsis, the rows live in the window for
    /// a windowed one. O(1) from an atomic running counter, so
    /// observability probes and staleness checks never take the per-shard
    /// locks.
    pub fn rows(&self) -> usize {
        self.backend.total_count()
    }

    /// Number of rebuilds performed so far: increments once per
    /// stale-cache refresh, regardless of how many queries hit the stale
    /// cache.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// The number of completed ingest batches (the staleness clock the
    /// refresh cache is keyed to). Exposed for observability and for
    /// race-regression tests: a consistent synopsis never reports an epoch
    /// ahead of the batches its shards actually contain.
    pub fn ingest_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Ingests one batch of rows into a single shard (round-robin),
    /// marking the cache stale.
    pub fn ingest(&self, rows: &[S::Row]) {
        if rows.is_empty() {
            return;
        }
        self.backend.ingest(rows);
        // Bump *after* the push so a concurrent rebuild can never tag a
        // cache that misses this batch with the post-batch epoch.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Ingests a bulk load with one global-pool task per shard, each
    /// pushing its contiguous share straight into its shard
    /// ([`ShardedIngest::ingest_parallel`]). For a given shard count the
    /// merged state afterwards is bitwise identical whatever the pool's
    /// thread count or timing.
    pub fn ingest_parallel(&self, rows: &[S::Row]) {
        if rows.is_empty() {
            return;
        }
        self.backend.ingest_parallel(rows);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The merged accumulation state across all shards (for example to
    /// serialize and ship to another node). For a windowed synopsis this
    /// is the policy-weighted merged window — exactly what queries see.
    pub fn merged_sketch(&self) -> Result<S, EstimatorError> {
        self.backend.merged()
    }

    /// The merged accumulation state compacted under `policy` with this
    /// synopsis' thresholding rule — the sketch to serialize when shipping
    /// to another node (the default [`CompactionPolicy::InactiveTail`] is
    /// lossless).
    pub fn compacted_sketch(&self, policy: CompactionPolicy) -> Result<S, EstimatorError> {
        self.merged_sketch()?.compact(policy, self.config.rule)
    }

    /// Serializes the merged, `policy`-compacted accumulation state to the
    /// binary wire frame (one format for 1-D and tensor sketches, see
    /// `wavedens_core::codec`) — what one node sends another so the sketch can be restored with
    /// `from_bytes` and merged (or estimated) where it lands.
    pub fn ship(&self, policy: CompactionPolicy) -> Result<Vec<u8>, EstimatorError> {
        Ok(self.compacted_sketch(policy)?.to_bytes())
    }

    /// The window policy this synopsis weights history with
    /// ([`WindowPolicy::Landmark`] unless configured otherwise).
    pub fn window_policy(&self) -> WindowPolicy {
        self.config.window
    }

    /// Closes the current time slice of a windowed synopsis: every shard
    /// ring rotates, the oldest slice retires when the rings are full,
    /// and the cache is marked stale so the next query refreshes over the
    /// new window. Returns `true` when an advance happened; `false` (and
    /// does nothing) on a landmark synopsis, whose one-slice rings never
    /// advance.
    pub fn advance(&self) -> bool {
        if !self.config.window.is_windowed() {
            return false;
        }
        self.backend.advance_all();
        self.epoch.fetch_add(1, Ordering::Release);
        true
    }

    /// Ships the current (age-0) time slice of a windowed synopsis as a
    /// windowed wire frame (the compact frame with its window block set);
    /// receivers that have no use for the window restore it as a plain
    /// sketch. Fails with [`EstimatorError::InvalidParameter`] on a
    /// landmark synopsis.
    pub fn ship_window_slice(&self) -> Result<Vec<u8>, EstimatorError> {
        self.backend.ship_current_slice()
    }

    /// The latest built snapshot without any rebuild work — the
    /// never-blocking read path. `None` until the first
    /// [`refreshed`](Self::refreshed) / [`refresh`](Self::refresh) builds
    /// one; possibly stale by the batches ingested since the last
    /// refresh. Use this from latency-sensitive readers and leave the
    /// rebuilds to whoever ingests (or to a maintenance task calling
    /// [`refresh`](Self::refresh)): a reader on this path never pays a
    /// merge or cross-validation, so rebuild cost cannot masquerade as
    /// query latency.
    pub fn cached(&self) -> Option<Arc<S::Snapshot>> {
        self.read_cache()
            .as_ref()
            .map(|(_, snapshot)| Arc::clone(snapshot))
    }

    /// Rebuilds the snapshot now if the cache is stale, blocking on the
    /// rebuild guard — the explicit maintenance entry point for whoever
    /// owns the write side (the benchmark's writers call and time this, so
    /// rebuild latency is reported as its own series). Returns the fresh
    /// snapshot, `None` when no rows are ingested.
    pub fn refresh(&self) -> Result<Option<Arc<S::Snapshot>>, EstimatorError> {
        self.rebuild_locked(&mut self.lock_rebuild_guard())
    }

    /// The current refreshed snapshot, rebuilding at most once if the
    /// cache is stale; `None` when no rows have been ingested yet.
    ///
    /// Readers arriving while another thread rebuilds are served the
    /// previous snapshot (stale by exactly the in-flight batch), so the
    /// read path never waits on a rebuild once a first snapshot exists.
    /// Readers that must never pay (or wait on the first build of) a
    /// rebuild use [`cached`](Self::cached) instead.
    pub fn refreshed(&self) -> Result<Option<Arc<S::Snapshot>>, EstimatorError> {
        if let Some(fresh) = self.cached_at(self.ingest_epoch()) {
            return Ok(Some(fresh));
        }
        let mut state = match self.rebuild_guard.try_lock() {
            Ok(state) => state,
            // A rebuilder panicked mid-refresh: restart its state rather
            // than propagate the panic to every later query.
            Err(TryLockError::Poisoned(poisoned)) => self.reset_rebuild_state(poisoned),
            // Another thread is rebuilding: serve the previous snapshot if
            // one exists, otherwise this is the very first build — wait
            // for it.
            Err(TryLockError::WouldBlock) => match self.cached() {
                Some(previous) => return Ok(Some(previous)),
                None => self.lock_rebuild_guard(),
            },
        };
        self.rebuild_locked(&mut state)
    }

    /// The cached snapshot if it covers ingest epoch `epoch`.
    fn cached_at(&self, epoch: u64) -> Option<Arc<S::Snapshot>> {
        let cache = self.read_cache();
        let (built_at, snapshot) = cache.as_ref()?;
        (*built_at == epoch).then(|| Arc::clone(snapshot))
    }

    /// Reads the cache `RwLock`, recovering from poisoning: the cached
    /// value is an `Option` swapped wholesale under the write lock, so a
    /// panicked writer cannot have left it torn — the previous snapshot
    /// stays servable. Clears the poison flag.
    fn read_cache(&self) -> RwLockReadGuard<'_, Option<(u64, Arc<S::Snapshot>)>> {
        self.cache.read().unwrap_or_else(|poisoned| {
            self.cache.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Locks the rebuild guard, recovering from poisoning with
    /// [`reset_rebuild_state`](Self::reset_rebuild_state).
    fn lock_rebuild_guard(&self) -> MutexGuard<'_, RefreshState<S>> {
        self.rebuild_guard
            .lock()
            .unwrap_or_else(|poisoned| self.reset_rebuild_state(poisoned))
    }

    /// Recovers a poisoned rebuild guard: the panicked rebuilder may have
    /// torn its scratch sketch or caches mid-update, so they restart
    /// empty and the next rebuild merges from the shards — the source of
    /// truth. Clears the poison flag so the reset happens once per crash.
    fn reset_rebuild_state<'a>(
        &'a self,
        poisoned: PoisonError<MutexGuard<'a, RefreshState<S>>>,
    ) -> MutexGuard<'a, RefreshState<S>> {
        let mut state = poisoned.into_inner();
        self.rebuild_guard.clear_poison();
        *state = RefreshState::default();
        state
    }

    /// Rebuilds the cache if still stale, incrementally: the shards merge
    /// into the guard-owned scratch sketch (no allocation after the first
    /// refresh) and the snapshot builds through the guard-owned rebuild
    /// cache. Caller must hold `rebuild_guard`.
    fn rebuild_locked(
        &self,
        state: &mut RefreshState<S>,
    ) -> Result<Option<Arc<S::Snapshot>>, EstimatorError> {
        let epoch = self.ingest_epoch();
        if let Some(fresh) = self.cached_at(epoch) {
            return Ok(Some(fresh));
        }
        let (scratch, rebuild_cache) = state;
        let sketch = match scratch.as_mut() {
            Some(scratch) => {
                self.backend.merge_into(scratch)?;
                &*scratch
            }
            None => scratch.insert(self.backend.merged()?),
        };
        if sketch.is_empty() {
            return Ok(None);
        }
        let built = Arc::new(sketch.snapshot(&self.config, rebuild_cache)?);
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.cache.write().unwrap_or_else(|poisoned| {
            // Same repair-safety argument as `read_cache`: the value is
            // swapped wholesale, never torn.
            self.cache.clear_poison();
            poisoned.into_inner()
        });
        *cache = Some((epoch, Arc::clone(&built)));
        Ok(Some(built))
    }

    /// Answers `query` from the lazily refreshed snapshot: 0 while no rows
    /// have been ingested, [`EstimatorError::InvalidQueryBounds`] for NaN
    /// bounds — they compare false with everything, so they would
    /// otherwise slip past the reversed-range normalization.
    pub(crate) fn try_query(
        &self,
        bounds: &[(f64, f64)],
        query: impl FnOnce(&S::Snapshot) -> f64,
    ) -> Result<f64, EstimatorError> {
        if let Some(&(lo, hi)) = bounds.iter().find(|(lo, hi)| lo.is_nan() || hi.is_nan()) {
            return Err(EstimatorError::InvalidQueryBounds { lo, hi });
        }
        Ok(self.refreshed()?.map_or(0.0, |snapshot| query(&snapshot)))
    }
}

/// The infallible answer policy: NaN query bounds are a caller error, not
/// an internal inconsistency, so they answer 0 (the mass of an empty
/// range, the same normalization [`CumulativeEstimate::range_mass`]
/// applies). Any other failure indicates an internal inconsistency: it
/// trips a debug assertion and answers 0 in release builds, mirroring the
/// core estimator's fallback policy.
pub(crate) fn or_zero(answer: Result<f64, EstimatorError>) -> f64 {
    match answer {
        Ok(selectivity) => selectivity,
        Err(EstimatorError::InvalidQueryBounds { .. }) => 0.0,
        Err(err) => {
            debug_assert!(false, "synopsis refresh failed unexpectedly: {err}");
            0.0
        }
    }
}

/// The 1-D-only surface: scalar range queries.
impl Synopsis<CoefficientSketch> {
    /// Ingests from an iterator in fixed-size batches (bounded memory for
    /// lazy or unbounded sources), using the same chunk policy as
    /// [`CoefficientSketch::extend`].
    pub fn ingest_stream<I: IntoIterator<Item = f64>>(&self, values: I) {
        wavedens_core::sketch::for_each_batch(values, |chunk| self.ingest(chunk));
    }

    /// Estimated selectivity from the latest built snapshot, with zero
    /// rebuild work on this thread ([`cached`](Self::cached)): `None`
    /// until a first snapshot exists, whatever the bounds; after that
    /// `Some(0.0)` for NaN or reversed bounds (mirroring
    /// [`selectivity`](Self::selectivity)).
    pub fn selectivity_cached(&self, lo: f64, hi: f64) -> Option<f64> {
        self.cached().map(|synopsis| synopsis.selectivity(lo, hi))
    }

    /// Estimated selectivity `P(lo ≤ X ≤ hi)` from the (lazily refreshed)
    /// CDF table; 0 while no rows have been ingested, and 0 for an empty
    /// or reversed range (`hi ≤ lo`). NaN bounds are rejected with
    /// [`EstimatorError::InvalidQueryBounds`]. Infinite bounds are fine
    /// (the CDF table clamps). Rebuild failures surface as the error
    /// (this is what [`crate::SynopsisCatalog`] calls, so estimator errors
    /// propagate to the query instead of being silently mapped to 0).
    pub fn try_selectivity(&self, lo: f64, hi: f64) -> Result<f64, EstimatorError> {
        self.try_query(&[(lo, hi)], |synopsis| synopsis.selectivity(lo, hi))
    }

    /// Infallible wrapper over [`try_selectivity`](Self::try_selectivity):
    /// NaN bounds answer 0 (the mass of an empty range); any other failure
    /// trips a debug assertion and answers 0 in release builds.
    pub fn selectivity(&self, lo: f64, hi: f64) -> f64 {
        or_zero(self.try_selectivity(lo, hi))
    }
}

impl<S: SynopsisSketch> Clone for Synopsis<S> {
    fn clone(&self) -> Self {
        // Load the epoch *before* cloning the shards: an ingest landing in
        // between then leaves the clone's epoch behind its shard data,
        // which merely costs one conservative rebuild. The opposite order
        // produced a clone whose epoch claimed coverage of a batch its
        // shards never saw — its cache, once rebuilt at that epoch, served
        // a stale estimate forever.
        let epoch = self.ingest_epoch();
        Self {
            backend: self.backend.clone(),
            config: self.config.clone(),
            epoch: AtomicU64::new(epoch),
            cache: RwLock::new(self.read_cache().clone()),
            rebuild_guard: Mutex::new(RefreshState::default()),
            rebuilds: AtomicUsize::new(self.rebuild_count()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_processes::seeded_rng;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn config(shards: usize) -> SynopsisConfig {
        SynopsisConfig::default()
            .with_expected_rows(2048)
            .with_shards(shards)
    }

    /// What the kind-generic checks below need from a sketch kind: a
    /// small test configuration, seeded rows and one range query (a
    /// square `[lo, hi]²` for joints) on the lazy and the cached path.
    pub(crate) trait Kind: SynopsisSketch {
        fn config(shards: usize) -> SynopsisConfig;
        fn rows(n: usize, seed: u64) -> Vec<Self::Row>;
        fn try_query(synopsis: &Synopsis<Self>, lo: f64, hi: f64) -> Result<f64, EstimatorError>;
        fn query_cached(synopsis: &Synopsis<Self>, lo: f64, hi: f64) -> Option<f64>;
    }

    impl Kind for CoefficientSketch {
        fn config(shards: usize) -> SynopsisConfig {
            config(shards)
        }

        fn rows(n: usize, seed: u64) -> Vec<f64> {
            sample(n, seed)
        }

        fn try_query(
            synopsis: &AttributeSynopsis,
            lo: f64,
            hi: f64,
        ) -> Result<f64, EstimatorError> {
            synopsis.try_selectivity(lo, hi)
        }

        fn query_cached(synopsis: &AttributeSynopsis, lo: f64, hi: f64) -> Option<f64> {
            synopsis.selectivity_cached(lo, hi)
        }
    }

    /// A synopsis too large for its frames to decode fails when it is
    /// configured: the sketch's slot cap is the decoder's, so a synopsis
    /// that builds never ships a frame its receivers refuse.
    #[test]
    fn synopses_too_large_to_ship_fail_at_configuration() {
        assert!(AttributeSynopsis::new(&config(1).with_expected_rows((1 << 22) - 1)).is_ok());
        assert!(matches!(
            AttributeSynopsis::new(&config(1).with_expected_rows(1 << 22)),
            Err(EstimatorError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_synopsis_answers_zero_without_rebuilding() {
        let synopsis = AttributeSynopsis::new(&config(2)).unwrap();
        assert_eq!(synopsis.selectivity(0.2, 0.8), 0.0);
        assert_eq!(synopsis.rows(), 0);
        assert_eq!(synopsis.rebuild_count(), 0);
        assert!(synopsis.refreshed().unwrap().is_none());
    }

    /// The cached read path must cost readers zero rebuild work: no
    /// first build, no staleness-triggered rebuild — those belong to
    /// [`Synopsis::refresh`] on the write side. `stale` runs kind-specific
    /// checks while the cached snapshot is stale.
    pub(crate) fn check_cached_read_path_never_rebuilds<S: Kind>(stale: impl FnOnce(&Synopsis<S>)) {
        let synopsis = Synopsis::<S>::new(&S::config(2)).unwrap();
        assert!(synopsis.cached().is_none());
        assert_eq!(S::query_cached(&synopsis, 0.2, 0.8), None);
        synopsis.ingest(&S::rows(2048, 31));
        // Still no snapshot: the cached path does not trigger the first
        // build either.
        assert!(synopsis.cached().is_none());
        assert_eq!(synopsis.rebuild_count(), 0);
        let built = synopsis.refresh().unwrap().unwrap();
        assert_eq!(synopsis.rebuild_count(), 1);
        // New rows make the snapshot stale; the cached path serves the
        // previous snapshot without rebuilding.
        synopsis.ingest(&S::rows(512, 32));
        let cached = synopsis.cached().unwrap();
        assert!(Arc::ptr_eq(&cached, &built));
        let sel = S::query_cached(&synopsis, 0.25, 0.75).unwrap();
        assert!((0.0..=1.0).contains(&sel));
        assert_eq!(synopsis.rebuild_count(), 1);
        stale(&synopsis);
        // An explicit refresh catches the snapshot up.
        let fresh = synopsis.refresh().unwrap().unwrap();
        assert!(!Arc::ptr_eq(&fresh, &built));
        assert_eq!(synopsis.rebuild_count(), 2);
    }

    #[test]
    fn cached_read_path_never_rebuilds() {
        // Before the first snapshot there is no answer, NaN bounds or not.
        let fresh = AttributeSynopsis::new(&config(2)).unwrap();
        assert_eq!(fresh.selectivity_cached(f64::NAN, 0.5), None);
        check_cached_read_path_never_rebuilds::<CoefficientSketch>(|synopsis| {
            // NaN bounds answer the empty-range mass, not a panic or a miss.
            assert_eq!(synopsis.selectivity_cached(f64::NAN, 0.5), Some(0.0));
        });
    }

    /// A one-shard synopsis fed batches of at least 256 rows holds, bit
    /// for bit, the sketch one `push_batch` over all rows gives.
    #[test]
    fn one_shard_ingest_is_bitwise_the_single_stream_sketch() {
        let rows = sample(4096, 41);
        let synopsis = AttributeSynopsis::new(&config(1)).unwrap();
        for batch in rows.chunks(1024) {
            synopsis.ingest(batch);
        }
        let mut single = CoefficientSketch::template(&config(1)).unwrap();
        single.push_batch(&rows);
        assert_eq!(
            synopsis.merged_sketch().unwrap().to_bytes(),
            single.to_bytes()
        );
    }

    #[test]
    fn stale_cache_burst_rebuilds_exactly_once() {
        let synopsis = AttributeSynopsis::new(&config(2)).unwrap();
        synopsis.ingest_parallel(&sample(2048, 1));
        assert_eq!(synopsis.rebuild_count(), 0, "ingest must stay lazy");
        for i in 0..50 {
            let lo = i as f64 / 100.0;
            let s = synopsis.selectivity(lo, lo + 0.3);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(synopsis.rebuild_count(), 1);
        synopsis.ingest(&[0.5]);
        for _ in 0..50 {
            synopsis.selectivity(0.1, 0.9);
        }
        assert_eq!(synopsis.rebuild_count(), 2);
    }

    #[test]
    fn sharded_estimate_matches_uniform_mass() {
        let synopsis = AttributeSynopsis::new(&config(4)).unwrap();
        synopsis.ingest_parallel(&sample(4096, 2));
        // Uniform data: selectivity of a range is its width.
        for (lo, hi) in [(0.1, 0.4), (0.25, 0.75), (0.0, 1.0)] {
            let s = synopsis.selectivity(lo, hi);
            assert!((s - (hi - lo)).abs() < 0.05, "[{lo}, {hi}] -> {s}");
        }
    }

    #[test]
    fn readers_see_the_old_snapshot_until_refresh() {
        let synopsis = AttributeSynopsis::new(&config(2)).unwrap();
        synopsis.ingest(&sample(1024, 3));
        let first = synopsis.refreshed().unwrap().unwrap();
        // Ingest marks the cache stale but the cached Arc stays valid.
        synopsis.ingest(&[0.5; 64]);
        let again = synopsis.refreshed().unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "stale cache must rebuild");
        assert_eq!(synopsis.rebuild_count(), 2);
        // Without ingests, the Arc is reused as-is.
        let third = synopsis.refreshed().unwrap().unwrap();
        assert!(Arc::ptr_eq(&again, &third));
        assert_eq!(synopsis.rebuild_count(), 2);
    }

    #[test]
    fn clone_preserves_cache_and_counters() {
        let synopsis = AttributeSynopsis::new(&config(2)).unwrap();
        synopsis.ingest(&sample(512, 4));
        let s = synopsis.selectivity(0.2, 0.7);
        let clone = synopsis.clone();
        assert_eq!(clone.rebuild_count(), 1);
        assert_eq!(clone.rows(), 512);
        assert_eq!(clone.selectivity(0.2, 0.7), s);
        assert_eq!(clone.rebuild_count(), 1, "clone reuses the cached CDF");
    }

    /// Regression for the clone/ingest epoch race: the old `Clone` cloned
    /// the shards *before* loading the epoch, so an ingest landing in
    /// between produced a clone whose epoch claimed coverage of a batch
    /// its shards never saw — and whose cache, once rebuilt at that epoch,
    /// served a stale estimate forever. With the epoch loaded first the
    /// invariant below holds across every interleaving: each single-row
    /// ingest bumps the epoch *after* the row lands, so a consistent
    /// clone's epoch never exceeds the rows its shards contain.
    pub(crate) fn check_clone_epoch_never_claims_unseen_batches<S: Kind>() {
        let synopsis = Arc::new(Synopsis::<S>::new(&S::config(2)).unwrap());
        synopsis.ingest(&S::rows(256, 6));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = {
                let synopsis = Arc::clone(&synopsis);
                let stop = &stop;
                scope.spawn(move || {
                    let rows = S::rows(4096, 7);
                    for row in rows {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        synopsis.ingest(std::slice::from_ref(&row));
                    }
                })
            };
            for _ in 0..200 {
                let clone = synopsis.clone();
                // Batches are single rows and the epoch is bumped after
                // the push, so epoch ≤ rows at every consistent snapshot.
                let epoch = clone.ingest_epoch();
                let rows = clone.rows() as u64;
                assert!(
                    epoch <= rows,
                    "clone epoch {epoch} claims more single-row batches than \
                     its shards contain ({rows})"
                );
            }
            stop.store(true, Ordering::Release);
            writer.join().expect("writer");
        });
    }

    #[test]
    fn clone_epoch_never_claims_unseen_batches() {
        check_clone_epoch_never_claims_unseen_batches::<CoefficientSketch>();
    }

    #[test]
    fn try_selectivity_exposes_the_fallible_path() {
        let synopsis = AttributeSynopsis::new(&config(2)).unwrap();
        assert_eq!(synopsis.try_selectivity(0.1, 0.9).unwrap(), 0.0);
        synopsis.ingest(&sample(1024, 8));
        let fallible = synopsis.try_selectivity(0.2, 0.8).unwrap();
        let infallible = synopsis.selectivity(0.2, 0.8);
        assert_eq!(fallible, infallible);
        assert!((0.0..=1.0).contains(&fallible));
    }

    #[test]
    fn incremental_refresh_matches_a_cold_rebuild() {
        // The same ingest history replayed into two synopses; one is
        // refreshed after every batch (exercising the scratch + CV cache
        // reuse), the other built cold at the end. Identical machinery ⇒
        // identical answers, bit for bit.
        let incremental = AttributeSynopsis::new(&config(1)).unwrap();
        let cold = AttributeSynopsis::new(&config(1)).unwrap();
        let data = sample(2048, 9);
        for chunk in data.chunks(128) {
            incremental.ingest(chunk);
            incremental.refreshed().unwrap().unwrap();
            cold.ingest(chunk);
        }
        assert!(incremental.rebuild_count() >= 10);
        for (lo, hi) in [(0.0, 0.3), (0.25, 0.5), (0.1, 0.95), (0.0, 1.0)] {
            assert_eq!(
                incremental.selectivity(lo, hi),
                cold.selectivity(lo, hi),
                "[{lo}, {hi}]"
            );
        }
        assert_eq!(cold.rebuild_count(), 1);
    }

    #[test]
    fn shipped_frames_are_compacted_and_lossless() {
        let synopsis = AttributeSynopsis::new(
            &SynopsisConfig::default()
                .with_expected_rows(4096)
                .with_shards(2),
        )
        .unwrap();
        synopsis.ingest_parallel(&sample(4096, 10));
        let dense = synopsis.merged_sketch().unwrap();
        let shipped = synopsis.ship(CompactionPolicy::InactiveTail).unwrap();
        assert!(
            shipped.len() * 5 <= dense.to_bytes_dense().len(),
            "shipped {} bytes vs dense {}",
            shipped.len(),
            dense.to_bytes_dense().len()
        );
        let restored = CoefficientSketch::from_bytes(&shipped).unwrap();
        let a = restored.estimate(synopsis.rule()).unwrap();
        let b = dense.estimate(synopsis.rule()).unwrap();
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            assert_eq!(a.evaluate(x), b.evaluate(x), "x = {x}");
        }
        // The compacted sketch is also directly inspectable.
        let compacted = synopsis
            .compacted_sketch(CompactionPolicy::InactiveTail)
            .unwrap();
        assert!(compacted.max_level() < dense.max_level());
    }

    #[test]
    fn merged_sketch_round_trips_through_serialization() {
        let synopsis = AttributeSynopsis::new(&config(3)).unwrap();
        synopsis.ingest_parallel(&sample(900, 5));
        let sketch = synopsis.merged_sketch().unwrap();
        let restored = CoefficientSketch::from_bytes(&sketch.to_bytes()).unwrap();
        assert_eq!(restored.count(), 900);
        let a = sketch.estimate(ThresholdRule::Soft).unwrap();
        let b = restored.estimate(ThresholdRule::Soft).unwrap();
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            assert_eq!(a.evaluate(x), b.evaluate(x));
        }
    }

    #[test]
    fn windowed_synopsis_forgets_retired_slices() {
        let windowed =
            AttributeSynopsis::new(&config(2).with_window(WindowPolicy::SlidingSlices(2))).unwrap();
        assert_eq!(windowed.window_policy(), WindowPolicy::SlidingSlices(2));
        // Old regime: values clustered low.
        let low: Vec<f64> = sample(1024, 11).iter().map(|u| 0.1 + 0.2 * u).collect();
        windowed.ingest_parallel(&low);
        assert!(windowed.selectivity(0.0, 0.4) > 0.8);
        assert!(windowed.advance());
        // New regime: values clustered high. After the ring retires the
        // low slice, the synopsis tracks only the recent distribution.
        let high: Vec<f64> = sample(1024, 12).iter().map(|u| 0.7 + 0.2 * u).collect();
        windowed.ingest_parallel(&high);
        windowed.advance();
        assert_eq!(windowed.rows(), 1024, "retired rows leave the count");
        assert!(windowed.selectivity(0.6, 1.0) > 0.8);
        assert!(windowed.selectivity(0.0, 0.4) < 0.1);
        // A landmark synopsis reports advance() as a no-op and refuses
        // slice shipping.
        let landmark = AttributeSynopsis::new(&config(1)).unwrap();
        assert!(!landmark.advance());
        assert!(landmark.ship_window_slice().is_err());
    }

    #[test]
    fn windowed_clone_is_independent() {
        let synopsis =
            AttributeSynopsis::new(&config(2).with_window(WindowPolicy::ExponentialDecay(0.5)))
                .unwrap();
        synopsis.ingest(&sample(512, 13));
        let clone = synopsis.clone();
        clone.advance();
        clone.ingest(&sample(128, 14));
        // λ = 0.5: the clone's merged mass is 128·1 + 512·0.5.
        assert_eq!(clone.merged_sketch().unwrap().count(), 128 + 256);
        // The original never advanced, so its slice is still whole.
        assert_eq!(synopsis.merged_sketch().unwrap().count(), 512);
    }

    #[test]
    fn nan_query_bounds_error_instead_of_lying() {
        let synopsis = AttributeSynopsis::new(&config(2)).unwrap();
        synopsis.ingest(&sample(512, 15));
        assert!(matches!(
            synopsis.try_selectivity(f64::NAN, 0.5).unwrap_err(),
            EstimatorError::InvalidQueryBounds { .. }
        ));
        assert!(matches!(
            synopsis.try_selectivity(0.5, f64::NAN).unwrap_err(),
            EstimatorError::InvalidQueryBounds { .. }
        ));
        // The infallible path answers 0 instead of panicking in debug.
        assert_eq!(synopsis.selectivity(f64::NAN, 0.5), 0.0);
        // Reversed bounds are not an error: they normalize to zero mass.
        assert_eq!(synopsis.try_selectivity(0.9, 0.1).unwrap(), 0.0);
    }

    /// Regression for the hardening sweep: a thread that panics while
    /// holding the rebuild guard and the cache write lock used to poison
    /// every later query (`panic!("synopsis cache poisoned")`). Both locks
    /// now repair themselves — the guard restarts with fresh scratch
    /// state, the cache rebuilds — so queries keep answering.
    pub(crate) fn check_panicked_rebuild_thread_does_not_poison_queries<S: Kind>() {
        let synopsis = Arc::new(Synopsis::<S>::new(&S::config(2)).unwrap());
        synopsis.ingest(&S::rows(1024, 16));
        let before = S::try_query(&synopsis, 0.2, 0.8).unwrap();
        assert!(before > 0.0);
        synopsis.ingest(&S::rows(64, 17));
        std::thread::scope(|scope| {
            let crashed = scope.spawn({
                let synopsis = Arc::clone(&synopsis);
                move || {
                    let _guard = synopsis.rebuild_guard.lock().unwrap();
                    let _cache = synopsis.cache.write().unwrap();
                    panic!("simulated rebuild crash");
                }
            });
            assert!(crashed.join().is_err(), "the rebuild thread must panic");
        });
        let after = S::try_query(&synopsis, 0.2, 0.8).unwrap();
        assert!(
            (after - before).abs() < 0.05,
            "queries must keep answering after a crashed rebuild: {after} vs {before}"
        );
        assert!(synopsis.refreshed().unwrap().is_some());
    }

    #[test]
    fn panicked_rebuild_thread_does_not_poison_queries() {
        check_panicked_rebuild_thread_does_not_poison_queries::<CoefficientSketch>();
    }
}
