//! Sharded sketch ingestion: N per-shard [`CoefficientSketch`]es filled
//! concurrently and merged at estimate time.
//!
//! Because sketches merge by plain addition of their running sums, any
//! partition of the rows across shards reproduces — after one merge pass —
//! exactly the accumulation state a single stream over all rows would
//! have produced (up to floating-point summation order). Ingestion
//! therefore parallelises embarrassingly: each shard owns its sketch
//! behind a [`Mutex`], writers touch exactly one shard per batch, and the
//! merge at estimate time costs one element-wise vector addition per
//! shard, independent of the number of rows ingested.
//!
//! # Short critical sections
//!
//! For batches worth the detour (`SCATTER_OUTSIDE_LOCK_MIN` rows or
//! more), a writer does **not** evaluate basis functions while holding the
//! shard lock. It first scatters the whole batch into a pooled scratch
//! sketch — the expensive per-row, per-level, per-translation gather —
//! and then locks the shard only for the element-wise add of the scratch
//! sums ([`CoefficientSketch::merge`]), whose cost is proportional to the
//! level table sizes, not to the batch length. Concurrent writers that
//! land on the same shard therefore no longer serialize the basis
//! evaluation, only the cheap vector addition. Small batches skip the
//! detour: their in-lock scatter is already shorter than a full
//! element-wise merge.
//!
//! # Poisoned shards
//!
//! A writer that panics while holding a shard lock poisons the mutex.
//! Propagating that panic to every later ingest and query — what a bare
//! `lock().expect(…)` does — turns one crashed writer into a permanently
//! dead attribute. All the state behind these locks is repair-safe, so
//! the locks recover instead: a poisoned shard is cleared (dropping the
//! possibly-torn sums of the crashed batch and the shard's earlier rows,
//! which the running row counter gives back), a poisoned scratch pool is
//! emptied, and the poison flag is reset so the repair runs once, not on
//! every subsequent access.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use wavedens_core::{CoefficientSketch, EstimatorError, TensorSketch};

/// The accumulation-state contract sharded ingestion relies on: a sketch
/// whose state is a plain sum of per-row contributions, so that any
/// partition of the rows across shard instances merges back into exactly
/// the single-stream state. Implemented by the 1-D
/// [`CoefficientSketch`] (rows are scalars) and the 2-D
/// [`TensorSketch`] (rows are `(x, y)` pairs), which is what lets one
/// ingest structure serve both marginal and joint synopses.
pub trait MergeableSketch: Clone + Send + Sync + std::fmt::Debug {
    /// One observation: `f64` for marginal sketches, `(f64, f64)` for
    /// joint ones.
    type Row: Copy + Send + Sync;

    /// Observations accumulated so far.
    fn count(&self) -> usize;

    /// Whether no observation has been accumulated.
    fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Resets to the empty state in place, keeping allocations.
    fn clear(&mut self);

    /// Accumulates a batch of rows.
    fn push_rows(&mut self, rows: &[Self::Row]);

    /// Merges a compatible sketch (addition of accumulation state).
    fn merge(&mut self, other: &Self) -> Result<(), EstimatorError>;

    /// Overwrites this sketch with a compatible source, reusing
    /// allocations.
    fn copy_from(&mut self, source: &Self) -> Result<(), EstimatorError>;
}

impl MergeableSketch for CoefficientSketch {
    type Row = f64;

    fn count(&self) -> usize {
        CoefficientSketch::count(self)
    }

    fn clear(&mut self) {
        CoefficientSketch::clear(self);
    }

    fn push_rows(&mut self, rows: &[f64]) {
        self.push_batch(rows);
    }

    fn merge(&mut self, other: &Self) -> Result<(), EstimatorError> {
        CoefficientSketch::merge(self, other)
    }

    fn copy_from(&mut self, source: &Self) -> Result<(), EstimatorError> {
        CoefficientSketch::copy_from(self, source)
    }
}

/// Joint (2-D) sketches shard exactly like marginal ones; the template
/// handed to [`ShardedIngest::new`] must be 2-dimensional, since rows
/// are `(x, y)` pairs ([`TensorSketch::push_pairs`] checks).
impl MergeableSketch for TensorSketch {
    type Row = (f64, f64);

    fn count(&self) -> usize {
        TensorSketch::count(self)
    }

    fn clear(&mut self) {
        TensorSketch::clear(self);
    }

    fn push_rows(&mut self, rows: &[(f64, f64)]) {
        self.push_pairs(rows);
    }

    fn merge(&mut self, other: &Self) -> Result<(), EstimatorError> {
        TensorSketch::merge(self, other)
    }

    fn copy_from(&mut self, source: &Self) -> Result<(), EstimatorError> {
        TensorSketch::copy_from(self, source)
    }
}

/// Batch length from which [`ShardedIngest::ingest`] scatters outside the
/// shard lock (into a pooled scratch sketch) and locks only for the
/// element-wise add. Below it the whole batch is pushed under the lock:
/// the scatter of a few dozen rows is cheaper than merging the full level
/// tables, so the detour would lengthen the critical section instead of
/// shrinking it.
pub(crate) const SCATTER_OUTSIDE_LOCK_MIN: usize = 256;

/// Minimum rows per pool task of [`ShardedIngest::ingest_parallel`]:
/// queueing a task for a handful of rows costs more than scattering
/// them, so tiny bulk loads run inline (or on fewer tasks than shards).
pub(crate) const MIN_PARALLEL_CHUNK: usize = 256;

/// Target pool tasks per shard in
/// [`ShardedIngest::ingest_parallel`]: splitting each shard's share into
/// a few chunks (instead of one monolithic chunk per shard) leaves
/// surplus tasks in the work-stealing deques, so a worker that finishes
/// early takes over a queued chunk rather than idling at the join.
pub(crate) const PARALLEL_CHUNKS_PER_SHARD: usize = 4;

/// Upper bound on pooled scratch sketches kept alive for the
/// out-of-lock scatter path; more concurrent writers than this simply
/// allocate (and drop) a scratch for the duration of their batch.
pub(crate) const MAX_POOLED_SCRATCH: usize = 8;

/// Locks a scratch pool, recovering from poisoning by emptying it: pooled
/// scratches are cheap to re-clone from the template, so dropping them is
/// always a safe repair. Clears the poison flag — the repair runs once.
pub(crate) fn lock_scratch_pool<T>(pool: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    match pool.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            pool.clear_poison();
            guard.clear();
            guard
        }
    }
}

/// N per-shard sketches with round-robin batch placement and
/// work-stealing parallel bulk loads.
///
/// Generic over the sketch type: the default `S = CoefficientSketch`
/// ingests scalar rows for marginal synopses, `S = TensorSketch` ingests
/// `(x, y)` pairs for joint ones — same sharding, same short critical
/// sections, same poison recovery.
#[derive(Debug)]
pub struct ShardedIngest<S: MergeableSketch = CoefficientSketch> {
    shards: Vec<Mutex<S>>,
    /// Empty sketch the shards (and pooled scratches) are cloned from.
    template: S,
    /// Cleared scratch sketches for the out-of-lock scatter path.
    scratch: Mutex<Vec<S>>,
    /// Running total of ingested rows, bumped after each batch lands, so
    /// [`total_count`](Self::total_count) (and the staleness checks built
    /// on it) never has to take the N shard locks.
    rows: AtomicUsize,
    next: AtomicUsize,
}

impl<S: MergeableSketch> ShardedIngest<S> {
    /// Creates `shards ≥ 1` shards, each an empty clone of `template`.
    ///
    /// The template carries the basis, interval and resolution levels; it
    /// must be empty so that every shard starts from the same zero state.
    pub fn new(template: &S, shards: usize) -> Result<Self, EstimatorError> {
        if !template.is_empty() {
            return Err(EstimatorError::InvalidParameter {
                message: format!(
                    "shard template must be an empty sketch, it has {} observations",
                    template.count()
                ),
            });
        }
        let shards = shards.max(1);
        Ok(Self {
            shards: (0..shards).map(|_| Mutex::new(template.clone())).collect(),
            template: template.clone(),
            scratch: Mutex::new(Vec::new()),
            rows: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of observations across all shards, read from the
    /// atomic running counter — O(1) and lock-free, where it used to lock
    /// every shard in turn. The counter is bumped after a batch's rows
    /// have landed, so it never reports rows the shards do not contain.
    pub fn total_count(&self) -> usize {
        self.rows.load(Ordering::Acquire)
    }

    /// Whether no shard has seen any observation (lock-free).
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0
    }

    /// Locks shard `index`, recovering from a poisoned mutex. The panicked
    /// writer may have left the sketch mid-scatter with torn sums, so the
    /// repair drops the shard's accumulation wholesale: `clear()` the
    /// sketch, give its rows back to the running counter, and reset the
    /// poison flag so the repair runs exactly once per crash. Later
    /// ingests and merges then see a structurally sound (merely smaller)
    /// shard instead of a propagated panic.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, S> {
        match self.shards[index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                self.shards[index].clear_poison();
                let lost = guard.count();
                guard.clear();
                // The crashed batch was never added to `rows` (the counter
                // is bumped after a batch lands), so only previously
                // landed rows are subtracted; saturate rather than assume
                // the interleaving.
                let _ = self
                    .rows
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |rows| {
                        Some(rows.saturating_sub(lost))
                    });
                guard
            }
        }
    }

    /// Ingests one batch into a single shard, chosen round-robin so that
    /// concurrent writers spread across shards and rarely contend on the
    /// same mutex.
    ///
    /// Batches of `SCATTER_OUTSIDE_LOCK_MIN` rows or more scatter into a
    /// pooled scratch sketch *before* taking the shard lock, which is then
    /// held only for the element-wise add — see the module docs.
    pub fn ingest(&self, values: &[S::Row]) {
        if values.is_empty() {
            return;
        }
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.scatter_into_shard(shard, values);
        self.rows.fetch_add(values.len(), Ordering::Release);
    }

    /// Lands one batch in `shard`: long batches scatter into a pooled
    /// scratch sketch first and lock only for the element-wise merge,
    /// short ones push directly under the lock (see the module docs).
    fn scatter_into_shard(&self, shard: usize, values: &[S::Row]) {
        if values.len() >= SCATTER_OUTSIDE_LOCK_MIN {
            let mut local = self.take_scratch();
            local.push_rows(values);
            self.lock_shard(shard)
                .merge(&local)
                .expect("scratch is cloned from the shard template");
            self.return_scratch(local);
        } else {
            self.lock_shard(shard).push_rows(values);
        }
    }

    /// Bulk-loads `values` by splitting them into contiguous chunks —
    /// about `PARALLEL_CHUNKS_PER_SHARD` (4) per shard — assigned to shards
    /// round-robin and scattered on the global work-stealing pool
    /// ([`workpool::WorkPool`]), so a worker that finishes its chunk
    /// early steals a queued one instead of idling while the slowest
    /// shard finishes.
    ///
    /// Chunks hold at least `MIN_PARALLEL_CHUNK` rows so tiny bulk loads
    /// do not pay task-queue overhead per handful of rows; with a single
    /// shard — or when the whole load fits one chunk — the batch is
    /// scattered inline on the calling thread, no pool involved at all.
    /// Chunks long enough for the out-of-lock path scatter into pooled
    /// scratch sketches (one in hand per running worker task) and hold
    /// their shard lock only for the element-wise merge.
    ///
    /// Wall-clock ingest time scales with the number of cores; the
    /// estimate remains equivalent to a single-stream fit because the
    /// shards merge at estimate time.
    pub fn ingest_parallel(&self, values: &[S::Row]) {
        if values.is_empty() {
            return;
        }
        let shards = self.shards.len();
        let chunk = values
            .len()
            .div_ceil(shards * PARALLEL_CHUNKS_PER_SHARD)
            .max(MIN_PARALLEL_CHUNK);
        if shards == 1 || values.len() <= chunk {
            // Inline, but still round-robin and still short-critical-
            // section: a large single-shard load scatters outside the
            // lock exactly like an `ingest` batch would.
            let shard = self.next.fetch_add(1, Ordering::Relaxed) % shards;
            self.scatter_into_shard(shard, values);
        } else {
            workpool::WorkPool::global().scope(|scope| {
                scope.spawn_batch(
                    values
                        .chunks(chunk)
                        .enumerate()
                        .map(|(i, slice)| move || self.scatter_into_shard(i % shards, slice)),
                );
            });
        }
        self.rows.fetch_add(values.len(), Ordering::Release);
    }

    /// Merges all shards into one sketch — the accumulation state a single
    /// stream over every ingested row would have produced. Shards are
    /// locked one at a time, so concurrent writers are stalled for at most
    /// one shard-clone each.
    pub fn merged(&self) -> Result<S, EstimatorError> {
        let mut merged = self.lock_shard(0).clone();
        for shard in 1..self.shards.len() {
            let snapshot = self.lock_shard(shard).clone();
            merged.merge(&snapshot)?;
        }
        Ok(merged)
    }

    /// [`merged`](Self::merged) into a caller-provided scratch sketch,
    /// reusing its allocations instead of cloning every shard — the
    /// allocation-free merge path of the engine's incremental refresh.
    /// `target` must be compatible with the shard template (any previous
    /// merge result is); its prior contents are overwritten.
    pub fn merge_into(&self, target: &mut S) -> Result<(), EstimatorError> {
        {
            let first = self.lock_shard(0);
            target.copy_from(&first)?;
        }
        for shard in 1..self.shards.len() {
            let snapshot = self.lock_shard(shard);
            target.merge(&snapshot)?;
        }
        Ok(())
    }

    /// Pops a cleared scratch sketch from the pool, cloning the template
    /// when the pool is dry (first use, or more concurrent writers than
    /// pooled scratches).
    fn take_scratch(&self) -> S {
        lock_scratch_pool(&self.scratch)
            .pop()
            .unwrap_or_else(|| self.template.clone())
    }

    /// Clears a scratch sketch (keeping its allocations) and returns it to
    /// the pool, unless the pool is already full.
    fn return_scratch(&self, mut sketch: S) {
        sketch.clear();
        let mut pool = lock_scratch_pool(&self.scratch);
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(sketch);
        }
    }
}

impl<S: MergeableSketch> Clone for ShardedIngest<S> {
    fn clone(&self) -> Self {
        // Clone the shard contents first so the row counter can be
        // recomputed from exactly the cloned state: the clone is then
        // self-consistent even if writers raced the per-shard locks.
        let sketches: Vec<S> = (0..self.shards.len())
            .map(|shard| self.lock_shard(shard).clone())
            .collect();
        let rows = sketches.iter().map(|sketch| sketch.count()).sum();
        Self {
            shards: sketches.into_iter().map(Mutex::new).collect(),
            template: self.template.clone(),
            scratch: Mutex::new(Vec::new()),
            rows: AtomicUsize::new(rows),
            next: AtomicUsize::new(self.next.load(Ordering::Relaxed)),
        }
    }
}

/// The write-and-merge surface of an ingest structure filling sketches of
/// kind `S` — what a [`Synopsis`](crate::Synopsis) needs from its
/// backend. Implemented by [`ShardedIngest`] for every sketch kind and by
/// the 1-D landmark/windowed [`IngestBackend`](crate::synopsis::IngestBackend).
pub trait SketchIngest<S: MergeableSketch>: Clone + std::fmt::Debug + Send + Sync {
    /// Pushes one batch into a single shard (round-robin).
    fn ingest(&self, rows: &[S::Row]);
    /// Fans a bulk load out across the shards on the work-stealing pool.
    fn ingest_parallel(&self, rows: &[S::Row]);
    /// Rows currently contributing, from an atomic running counter.
    fn total_count(&self) -> usize;
    /// Number of shards.
    fn shard_count(&self) -> usize;
    /// The merged accumulation state across all shards.
    fn merged(&self) -> Result<S, EstimatorError>;
    /// Merges all shards into `target`, reusing its allocations.
    fn merge_into(&self, target: &mut S) -> Result<(), EstimatorError>;
}

impl<S: MergeableSketch> SketchIngest<S> for ShardedIngest<S> {
    fn ingest(&self, rows: &[S::Row]) {
        ShardedIngest::ingest(self, rows);
    }

    fn ingest_parallel(&self, rows: &[S::Row]) {
        ShardedIngest::ingest_parallel(self, rows);
    }

    fn total_count(&self) -> usize {
        ShardedIngest::total_count(self)
    }

    fn shard_count(&self) -> usize {
        ShardedIngest::shard_count(self)
    }

    fn merged(&self) -> Result<S, EstimatorError> {
        ShardedIngest::merged(self)
    }

    fn merge_into(&self, target: &mut S) -> Result<(), EstimatorError> {
        ShardedIngest::merge_into(self, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_processes::seeded_rng;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn template(n: usize) -> CoefficientSketch {
        CoefficientSketch::sized_for(n).unwrap()
    }

    #[test]
    fn parallel_ingest_matches_single_stream() {
        let data = sample(2000, 1);
        let sharded = ShardedIngest::new(&template(2000), 4).unwrap();
        sharded.ingest_parallel(&data);
        assert_eq!(sharded.total_count(), 2000);
        assert_eq!(sharded.shard_count(), 4);
        let mut single = template(2000);
        single.push_batch(&data);
        let merged = sharded.merged().unwrap();
        let a = merged.snapshot().unwrap();
        let b = single.snapshot().unwrap();
        for (la, lb) in a.details().iter().zip(b.details()) {
            for (va, vb) in la.values.iter().zip(&lb.values) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()));
            }
        }
    }

    #[test]
    fn round_robin_ingest_spreads_batches() {
        let sharded = ShardedIngest::new(&template(100), 3).unwrap();
        for chunk in sample(90, 2).chunks(10) {
            sharded.ingest(chunk);
        }
        // 9 batches of 10 over 3 shards: every shard saw 3 batches.
        for shard in &sharded.shards {
            assert_eq!(shard.lock().unwrap().count(), 30);
        }
        assert_eq!(sharded.total_count(), 90);
    }

    /// Batches long enough for the out-of-lock scatter path must land in
    /// the shard sketches (via the element-wise merge) exactly like the
    /// in-lock path lands short ones: merged state and running counter
    /// both match a single-stream fit.
    #[test]
    fn scratch_merge_ingest_matches_single_stream() {
        let data = sample(3 * SCATTER_OUTSIDE_LOCK_MIN + 57, 7);
        let sharded = ShardedIngest::new(&template(1000), 2).unwrap();
        // Mix of long batches (scratch path) and short ones (direct path).
        let (long, rest) = data.split_at(2 * SCATTER_OUTSIDE_LOCK_MIN);
        sharded.ingest(long);
        for chunk in rest.chunks(40) {
            sharded.ingest(chunk);
        }
        assert_eq!(sharded.total_count(), data.len());
        let mut single = template(1000);
        single.push_batch(&data);
        let merged = sharded.merged().unwrap();
        assert_eq!(merged.count(), single.count());
        let a = merged.snapshot().unwrap();
        let b = single.snapshot().unwrap();
        for (la, lb) in
            std::iter::once((a.scaling(), b.scaling())).chain(a.details().iter().zip(b.details()))
        {
            for (va, vb) in la.values.iter().zip(&lb.values) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()), "{va} vs {vb}");
            }
        }
        // The scratch was cleared and pooled for reuse.
        assert_eq!(sharded.scratch.lock().unwrap().len(), 1);
        assert!(sharded.scratch.lock().unwrap()[0].is_empty());
    }

    /// The atomic counter stays exact under concurrent writers on both
    /// ingest paths.
    #[test]
    fn total_count_is_exact_under_concurrent_ingest() {
        let sharded = ShardedIngest::new(&template(2000), 3).unwrap();
        let rows = sample(4000, 8);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let sharded = &sharded;
                let rows = &rows;
                scope.spawn(move || {
                    for chunk in rows[worker * 1000..(worker + 1) * 1000].chunks(300) {
                        sharded.ingest(chunk);
                    }
                });
            }
        });
        assert_eq!(sharded.total_count(), 4000);
        assert_eq!(sharded.merged().unwrap().count(), 4000);
    }

    #[test]
    fn small_parallel_loads_run_inline() {
        // A load below the minimum chunk size lands on shard 0 without
        // spawning; the other shards stay untouched.
        let sharded = ShardedIngest::new(&template(100), 4).unwrap();
        sharded.ingest_parallel(&sample(MIN_PARALLEL_CHUNK / 2, 9));
        assert_eq!(
            sharded.shards[0].lock().unwrap().count(),
            MIN_PARALLEL_CHUNK / 2
        );
        for shard in &sharded.shards[1..] {
            assert_eq!(shard.lock().unwrap().count(), 0);
        }
        // A larger load still spreads, with every chunk at least the
        // minimum size (the last one possibly shorter).
        let sharded = ShardedIngest::new(&template(1000), 4).unwrap();
        sharded.ingest_parallel(&sample(2 * MIN_PARALLEL_CHUNK + 10, 10));
        let counts: Vec<usize> = sharded
            .shards
            .iter()
            .map(|shard| shard.lock().unwrap().count())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 2 * MIN_PARALLEL_CHUNK + 10);
        assert!(counts.iter().filter(|&&c| c > 0).count() <= 3);
        assert!(counts[0] >= MIN_PARALLEL_CHUNK);
    }

    #[test]
    fn empty_batches_do_not_advance_the_cursor() {
        let sharded = ShardedIngest::new(&template(10), 2).unwrap();
        sharded.ingest(&[]);
        sharded.ingest_parallel(&[]);
        assert!(sharded.is_empty());
        assert_eq!(sharded.next.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nonempty_template_is_rejected() {
        let mut t = template(10);
        t.push(0.5);
        assert!(matches!(
            ShardedIngest::new(&t, 2).unwrap_err(),
            EstimatorError::InvalidParameter { .. }
        ));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let sharded = ShardedIngest::new(&template(10), 0).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        sharded.ingest(&[0.25, 0.75]);
        assert_eq!(sharded.merged().unwrap().count(), 2);
    }

    /// A writer panicking while holding a shard lock must not take the
    /// whole ingest structure down with it: the next access repairs the
    /// shard (dropping its possibly-torn rows) and everything keeps
    /// answering.
    #[test]
    fn poisoned_shard_recovers_instead_of_propagating() {
        let sharded = ShardedIngest::new(&template(1000), 2).unwrap();
        // 500 rows land on shard 0 (first round-robin pick).
        sharded.ingest(&sample(500, 11));
        assert_eq!(sharded.total_count(), 500);
        // Simulate a writer crash while holding shard 0's lock.
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sharded.shards[0].lock().unwrap();
            panic!("simulated writer crash");
        }));
        assert!(crash.is_err());
        assert!(sharded.shards[0].is_poisoned());
        // Ingest keeps working (round-robin sends this batch to shard 1).
        sharded.ingest(&sample(100, 12));
        // The merge touches the poisoned shard, repairs it once (shard 0's
        // torn state is dropped and its rows given back) and answers.
        let merged = sharded.merged().unwrap();
        assert_eq!(merged.count(), 100);
        assert_eq!(sharded.total_count(), 100);
        assert!(!sharded.shards[0].is_poisoned());
        // The repair is not repeated: rows ingested after it survive the
        // next merge.
        sharded.ingest(&sample(200, 13));
        assert_eq!(sharded.merged().unwrap().count(), 300);
    }

    /// A poisoned scratch pool is emptied and keeps serving: the long-
    /// batch scatter path still lands its rows.
    #[test]
    fn poisoned_scratch_pool_recovers() {
        let sharded = ShardedIngest::new(&template(1000), 1).unwrap();
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sharded.scratch.lock().unwrap();
            panic!("simulated crash while holding the pool");
        }));
        assert!(crash.is_err());
        let data = sample(2 * SCATTER_OUTSIDE_LOCK_MIN, 14);
        sharded.ingest(&data);
        assert_eq!(sharded.merged().unwrap().count(), data.len());
    }

    /// The generic ingest path serves 2-D tensor sketches identically:
    /// sharded pair ingestion merges back into the single-stream state.
    #[test]
    fn tensor_shards_match_single_stream() {
        let mut rng = seeded_rng(21);
        let rows: Vec<(f64, f64)> = (0..1200).map(|_| (rng.gen(), rng.gen())).collect();
        let template = TensorSketch::sized_for_pairs(1200).unwrap();
        let sharded: ShardedIngest<TensorSketch> = ShardedIngest::new(&template, 3).unwrap();
        for chunk in rows.chunks(90) {
            sharded.ingest(chunk);
        }
        sharded.ingest_parallel(&rows[..600]);
        assert_eq!(sharded.total_count(), 1800);
        let mut single = template.clone();
        single.push_pairs(&rows);
        single.push_pairs(&rows[..600]);
        let merged = sharded.merged().unwrap();
        assert_eq!(MergeableSketch::count(&merged), 1800);
        let a = merged.snapshot_levels().unwrap();
        let b = single.snapshot_levels().unwrap();
        for (la, lb) in a.iter().zip(&b) {
            for (va, vb) in la.values.iter().zip(&lb.values) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()), "{va} vs {vb}");
            }
        }
    }

    #[test]
    fn clone_copies_the_shard_state() {
        let sharded = ShardedIngest::new(&template(100), 2).unwrap();
        sharded.ingest(&sample(50, 3));
        let cloned = sharded.clone();
        assert_eq!(cloned.total_count(), 50);
        // The clone is independent.
        sharded.ingest(&sample(50, 4));
        assert_eq!(cloned.total_count(), 50);
        assert_eq!(sharded.total_count(), 100);
    }
}
