//! Sharded sketch ingestion: N per-shard slice rings filled concurrently
//! and folded at estimate time. Every shard is a
//! [`WindowedSketch`] ring of time slices of one [`MergeableSketch`] kind,
//! 1-D [`CoefficientSketch`] or 2-D
//! [`TensorSketch`](wavedens_core::TensorSketch); a landmark ingest
//! is a one-slice ring that never advances, so one structure serves
//! landmark and windowed synopses of both dimensions.
//!
//! Because sketches merge by plain addition of their running sums, any
//! partition of the rows across shards reproduces — after one merge pass —
//! exactly the accumulation state a single stream over all rows would
//! have produced (up to floating-point summation order). Ingestion
//! therefore parallelises embarrassingly: each shard owns its ring
//! behind a [`Mutex`], writers touch exactly one shard per batch, and the
//! merge at estimate time costs one element-wise vector addition per
//! live slice per shard, independent of the number of rows ingested. The
//! rings fold their live slices through the window policy the ingest was
//! built with; all rings advance together
//! ([`ShardedIngest::advance_all`]), so they stay aligned slice for slice
//! and the merged window is the sketch state over exactly the rows of the
//! live slices. Under [`WindowPolicy::Landmark`] the fold weight is 1, so
//! the fold is bitwise the plain copy-and-merge of the shards.
//!
//! # Critical sections
//!
//! A streaming batch ([`ShardedIngest::ingest`]) scatters straight into
//! the current slice of one shard, under that shard's lock, so the lock is
//! held for the batch's whole basis evaluation. An advance
//! ([`ShardedIngest::advance_all`]) rotates each ring under its lock and
//! clears the retired slice there, which zeroes its level tables (≈70 KiB
//! per slice for a synopsis sized for 2^11 rows). Both are fine because
//! contention is rare: batches go to the shards round-robin, so
//! concurrent writers land on different shards, and a writer meets
//! another only when there are more writers than shards. With one shard,
//! the scatter lands exactly as a single-stream push would, so a
//! one-shard ingest is bitwise the single-stream sketch.
//!
//! # Bulk loads
//!
//! [`ShardedIngest::ingest_parallel`] splits the rows into one contiguous
//! share per shard and runs one pool task per share; task `i` locks shard
//! `i` and pushes its share straight into the current slice. Which rows
//! reach which shard, and in what order each shard adds them, depend only
//! on the rows and the shard count. So for a given shard count the merged
//! state after `ingest_parallel` is bitwise identical whatever the pool's
//! thread count or timing. A load uses at most `min(shards, pool threads)`
//! cores; the default shard count is `available_parallelism`, which is
//! also the global pool's size, so default configurations lose no
//! parallelism.
//!
//! # Row counter
//!
//! [`ShardedIngest::total_count`] reads an atomic running counter. Every
//! change to it — a batch or share landing, an advance retiring a slice,
//! a poison repair dropping a shard — is made while the shard's lock is
//! still held, so the counter moves in step with the shards: an advance
//! can never retire a batch whose rows have not been counted yet.
//!
//! # Poisoned shards
//!
//! A writer that panics while holding a shard lock poisons the mutex.
//! Propagating that panic to every later ingest and query — what a bare
//! `lock().expect(…)` does — turns one crashed writer into a permanently
//! dead attribute. All the state behind these locks is repair-safe, so
//! the locks recover instead: a poisoned ring empties every slice
//! (dropping the possibly-torn sums of the crashed batch and the shard's
//! earlier rows, which the running row counter gives back; a ring whose
//! slices disagree about time is worse than an empty one) but keeps its
//! advance clock, and the poison flag is reset so the repair runs once,
//! not on every subsequent access.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
pub use wavedens_core::MergeableSketch;
use wavedens_core::{
    CoefficientSketch, EstimatorError, WindowPolicy, WindowSliceMeta, WindowedSketch,
};

/// Minimum rows per share of [`ShardedIngest::ingest_parallel`]:
/// queueing a task for a handful of rows costs more than scattering
/// them, so tiny bulk loads run inline (or on fewer tasks than shards).
const MIN_PARALLEL_CHUNK: usize = 256;

/// N per-shard slice rings with round-robin batch placement,
/// reproducible one-task-per-shard bulk loads, collective advance and
/// policy-weighted window merges.
///
/// Generic over the sketch kind the rings slice: the default
/// `S = CoefficientSketch` ingests scalar rows for marginal synopses,
/// `S = TensorSketch` ingests `(x, y)` pairs for joint ones — same
/// sharding, same bulk-load shares, same windows, same poison recovery.
/// [`new`](Self::new) builds the landmark form (one-slice rings that
/// never advance); [`WindowedIngest`](crate::WindowedIngest) the windowed
/// one.
#[derive(Debug)]
pub struct ShardedIngest<S: MergeableSketch = CoefficientSketch> {
    shards: Vec<Mutex<WindowedSketch<S>>>,
    /// How every fold weights the live slices.
    policy: WindowPolicy,
    /// Running total of the rows the shards hold, changed only under the
    /// lock of the shard whose rows it counts (see the module docs), so
    /// [`total_count`](Self::total_count) (and the staleness checks built
    /// on it) never has to take the N shard locks.
    rows: AtomicUsize,
    next: AtomicUsize,
}

impl<S: MergeableSketch> ShardedIngest<S> {
    /// Creates `shards ≥ 1` landmark shards, each a one-slice ring over an
    /// empty clone of `template`.
    ///
    /// The template carries the basis, interval and resolution levels; it
    /// must be empty so that every shard starts from the same zero state.
    pub fn new(template: &S, shards: usize) -> Result<Self, EstimatorError> {
        Self::with_window(template, shards, WindowPolicy::Landmark)
    }

    /// Creates `shards ≥ 1` shards, each a ring of the size `policy` calls
    /// for (one slice under [`WindowPolicy::Landmark`]), every slice an
    /// empty clone of `template`. Fails on invalid policy parameters and
    /// on a nonempty template.
    pub(crate) fn with_window(
        template: &S,
        shards: usize,
        policy: WindowPolicy,
    ) -> Result<Self, EstimatorError> {
        policy.validate()?;
        let ring = WindowedSketch::new(template, policy.ring_slices().unwrap_or(1))?;
        Ok(Self {
            // `vec!` clones the ring for all but the last shard.
            shards: vec![ring; shards.max(1)]
                .into_iter()
                .map(Mutex::new)
                .collect(),
            policy,
            rows: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows the shards currently hold — every ingested row, or the rows
    /// live in the window for a windowed ingest — read from the atomic
    /// running counter: O(1) and lock-free. The counter moves under the
    /// shard locks, so it never reports rows the shards do not contain.
    pub fn total_count(&self) -> usize {
        self.rows.load(Ordering::Acquire)
    }

    /// Whether the shards hold no rows (lock-free).
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0
    }

    /// Locks shard `index`, recovering from a poisoned mutex. The panicked
    /// writer may have left the ring mid-scatter with torn sums, so the
    /// repair drops the ring's accumulation wholesale: empty every slice
    /// (keeping the advance clock), give its rows back to the running
    /// counter, and reset the poison flag so the repair runs exactly once
    /// per crash. Later ingests and merges then see a structurally sound
    /// (merely smaller) shard instead of a propagated panic.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, WindowedSketch<S>> {
        self.shards[index].lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            self.shards[index].clear_poison();
            // The crashed batch was never counted (the counter moves after
            // a batch lands), so only previously landed rows are
            // subtracted; `forget` saturates rather than assume the
            // interleaving.
            self.forget(guard.count());
            guard.clear_slices();
            guard
        })
    }

    /// Removes `rows` from the running counter, saturating at zero.
    fn forget(&self, rows: usize) {
        let _ = self
            .rows
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
                Some(live.saturating_sub(rows))
            });
    }

    /// Pushes `rows` into the current slice of shard `index` under its
    /// lock and counts the rows the slice accepted before the lock is
    /// released.
    fn push_to_shard(&self, index: usize, rows: &[S::Row]) {
        let mut ring = self.lock_shard(index);
        let accepted = ring.push_batch(rows);
        self.rows.fetch_add(accepted, Ordering::Release);
    }

    /// Ingests one batch into the current slice of a single shard, chosen
    /// round-robin so that concurrent writers spread across shards and
    /// rarely contend on the same mutex. The batch scatters under that
    /// shard's lock (see the module docs).
    pub fn ingest(&self, values: &[S::Row]) {
        if values.is_empty() {
            return;
        }
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.push_to_shard(shard, values);
    }

    /// Bulk-loads `values` with one task per shard on the global
    /// work-stealing pool ([`workpool::WorkPool`]): the rows split into
    /// one contiguous share per shard, and task `i` locks shard `i` and
    /// pushes its share straight into the current slice. Shares hold at
    /// least `MIN_PARALLEL_CHUNK` rows, so a small load uses fewer tasks
    /// than shards; with a single shard, or a load that fits one share,
    /// the load is one [`ingest`](Self::ingest) batch, no pool involved.
    /// An empty load does nothing.
    ///
    /// For a given shard count, the merged state after `ingest_parallel`
    /// is bitwise identical whatever the pool's thread count or timing:
    /// the share of each shard and its order of addition depend only on
    /// the rows and the shard count.
    ///
    /// The trade: a load uses at most `min(shards, pool threads)` cores,
    /// and holds each shard's lock while its share scatters, so a
    /// concurrent [`ingest`](Self::ingest) to that shard waits for it.
    pub fn ingest_parallel(&self, values: &[S::Row]) {
        let shards = self.shards.len();
        let share = values.len().div_ceil(shards).max(MIN_PARALLEL_CHUNK);
        if shards == 1 || values.len() <= share {
            self.ingest(values);
        } else {
            let shares = values.chunks(share).enumerate();
            workpool::WorkPool::global().scope(|scope| {
                scope.spawn_batch(
                    shares.map(|(shard, rows)| move || self.push_to_shard(shard, rows)),
                );
            });
        }
    }

    /// A clone of shard 0's current slice: a sketch of the shards' kind
    /// and geometry for [`merge_into`](Self::merge_into) to overwrite.
    fn current_slice_copy(&self) -> S {
        self.lock_shard(0)
            .slice(0)
            .expect("the current slice is always live")
            .clone()
    }

    /// Merges all shards into one sketch — the accumulation state a single
    /// stream over every ingested row would have produced (for a windowed
    /// ingest: the policy-weighted window over the live slices). A clone
    /// of shard 0's current slice, overwritten by
    /// [`merge_into`](Self::merge_into).
    pub fn merged(&self) -> Result<S, EstimatorError> {
        let mut merged = self.current_slice_copy();
        self.merge_into(&mut merged)?;
        Ok(merged)
    }

    /// [`merged`](Self::merged) into a caller-provided scratch sketch,
    /// reusing its allocations — the allocation-free merge path of the
    /// engine's incremental refresh. `target` must be compatible with the
    /// shard template (any previous merge result is); its prior contents
    /// are overwritten, and its level stamps advance strictly, so
    /// `CvCache`/`DenseEvalCache` consumers stay sound across advances.
    /// Each shard is locked in turn, so concurrent writers are stalled
    /// for at most one ring's fold each.
    pub fn merge_into(&self, target: &mut S) -> Result<(), EstimatorError> {
        (0..self.shards.len()).try_for_each(|index| {
            self.lock_shard(index)
                .merge_window_into(target, self.policy, index == 0)
        })
    }

    /// Advances performed so far: the rings' shared advance clock (a
    /// poison repair empties a ring but keeps its clock).
    pub fn advances(&self) -> u64 {
        (0..self.shards.len())
            .map(|index| self.lock_shard(index).advances())
            .max()
            .unwrap_or(0)
    }

    /// Closes the current time slice on every shard and retires the
    /// oldest when the rings are full. Returns the number of rows that
    /// left the window. Does nothing and returns 0 under
    /// [`WindowPolicy::Landmark`], whose one-slice rings never advance.
    ///
    /// Each shard's ring [`advance`](WindowedSketch::advance)s under its
    /// lock, and the retired slice's rows leave the running counter before
    /// the lock is released. Concurrent writers racing an advance land
    /// their batch atomically in either the old or the new slice, never
    /// torn across both, and the row counter follows them exactly.
    pub fn advance_all(&self) -> usize {
        if !self.policy.is_windowed() {
            return 0;
        }
        (0..self.shards.len())
            .map(|index| {
                let mut ring = self.lock_shard(index);
                let retired = ring.advance();
                self.forget(retired);
                retired
            })
            .sum()
    }

    /// Ships the current (age-0) time slice merged across all shards as a
    /// windowed frame. Receivers with window support place it in their
    /// own ring via `from_bytes_with_window`; plain `from_bytes`
    /// consumers read it as an ordinary sketch. Fails with
    /// [`EstimatorError::InvalidParameter`] under
    /// [`WindowPolicy::Landmark`], which keeps no window slices.
    pub fn ship_current_slice(&self) -> Result<Vec<u8>, EstimatorError> {
        if !self.policy.is_windowed() {
            return Err(EstimatorError::InvalidParameter {
                message: "a landmark synopsis keeps no window slices to ship".to_string(),
            });
        }
        let mut current = self.current_slice_copy();
        current.clear();
        let mut meta = WindowSliceMeta {
            slice_age: 0,
            ring_slices: 1,
            advances: 0,
            decay_lambda: self.policy.decay_lambda(),
        };
        for index in 0..self.shards.len() {
            let ring = self.lock_shard(index);
            meta.ring_slices = ring.ring_slices() as u32;
            meta.advances = meta.advances.max(ring.advances());
            current.merge(ring.slice(0).expect("the current slice is always live"))?;
        }
        Ok(current.to_bytes_with_window(&meta))
    }
}

impl<S: MergeableSketch> Clone for ShardedIngest<S> {
    fn clone(&self) -> Self {
        // Clone the shard contents first so the row counter can be
        // recomputed from exactly the cloned state: the clone is then
        // self-consistent even if writers raced the per-shard locks.
        let shards: Vec<WindowedSketch<S>> = (0..self.shards.len())
            .map(|shard| self.lock_shard(shard).clone())
            .collect();
        let rows = shards.iter().map(WindowedSketch::count).sum();
        Self {
            shards: shards.into_iter().map(Mutex::new).collect(),
            policy: self.policy,
            rows: AtomicUsize::new(rows),
            next: AtomicUsize::new(self.next.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WindowedIngest;
    use rand::Rng;
    use wavedens_core::TensorSketch;
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

    /// Long and short batches alike land in the shard sketches: merged
    /// state and running counter both match a single-stream fit.
    #[test]
    fn mixed_batch_ingest_matches_single_stream() {
        let data = sample(3 * 256 + 57, 7);
        let sharded = ShardedIngest::new(&template(1000), 2).unwrap();
        // Two long batches' worth in one, the rest in short ones.
        let (long, rest) = data.split_at(2 * 256);
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
    }

    /// The atomic counter stays exact under concurrent writers.
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
        // A larger load still spreads, in contiguous shares of at least
        // the minimum size: shard `i` holds share `i`, the last share is
        // the remainder, and shards past it stay empty.
        let counts = |sharded: &ShardedIngest| -> Vec<usize> {
            sharded
                .shards
                .iter()
                .map(|shard| shard.lock().unwrap().count())
                .collect()
        };
        let sharded = ShardedIngest::new(&template(1000), 4).unwrap();
        sharded.ingest_parallel(&sample(2 * MIN_PARALLEL_CHUNK + 10, 10));
        let small = counts(&sharded);
        assert_eq!(small.iter().sum::<usize>(), 2 * MIN_PARALLEL_CHUNK + 10);
        assert_eq!(small, [MIN_PARALLEL_CHUNK, MIN_PARALLEL_CHUNK, 10, 0]);
        // Above four minimum shares, every shard gets `len.div_ceil(4)`
        // rows but the last, which gets the rest.
        let sharded = ShardedIngest::new(&template(1000), 4).unwrap();
        let len = 4 * MIN_PARALLEL_CHUNK + 6;
        sharded.ingest_parallel(&sample(len, 15));
        let share = len.div_ceil(4);
        assert_eq!(counts(&sharded), [share, share, share, len - 3 * share]);
        assert_eq!(sharded.total_count(), len);
    }

    /// Bulk loads push straight into the shards: each shard holds bit for
    /// bit what pushing its contiguous share into a fresh template gives.
    #[test]
    fn parallel_loads_push_each_share_into_its_shard() {
        let data = sample(8 * 256, 16);
        let sharded = ShardedIngest::new(&template(4000), 3).unwrap();
        sharded.ingest_parallel(&data);
        for (shard, share) in sharded
            .shards
            .iter()
            .zip(data.chunks(data.len().div_ceil(3)))
        {
            let mut expected = template(4000);
            expected.push_batch(share);
            let ring = shard.lock().unwrap();
            assert_eq!(ring.slice(0).unwrap().to_bytes(), expected.to_bytes());
        }
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

    /// Bulk loads push each contiguous share straight into its shard's
    /// current slice: each slice holds bit for bit what pushing its share
    /// into a fresh template gives.
    #[test]
    fn ring_parallel_loads_push_each_share_into_its_current_slice() {
        let data = sample(8 * 256, 31);
        let windowed =
            WindowedIngest::new(&template(4000), 2, WindowPolicy::SlidingSlices(3)).unwrap();
        windowed.ingest_parallel(&data);
        assert_eq!(windowed.total_count(), data.len());
        for (shard, share) in windowed.shards.iter().zip(data.chunks(data.len() / 2)) {
            let mut expected = template(4000);
            expected.push_batch(share);
            let ring = shard.lock().unwrap();
            assert_eq!(ring.slice(0).unwrap().to_bytes(), expected.to_bytes());
        }
        // After an advance the next load lands in the fresh slices.
        windowed.advance_all();
        windowed.ingest_parallel(&data[..600]);
        assert_eq!(windowed.total_count(), data.len() + 600);
        for shard in &windowed.shards {
            assert_eq!(shard.lock().unwrap().slice(0).unwrap().count(), 300);
        }
    }

    /// A panicked writer poisons one ring; the next access repairs it and
    /// the window keeps answering.
    #[test]
    fn poisoned_ring_recovers() {
        let windowed =
            WindowedIngest::new(&template(1000), 2, WindowPolicy::SlidingSlices(2)).unwrap();
        windowed.ingest(&sample(300, 29));
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = windowed.shards[0].lock().unwrap();
            panic!("simulated writer crash");
        }));
        assert!(crash.is_err());
        assert!(windowed.shards[0].is_poisoned());
        windowed.ingest(&sample(100, 30));
        let merged = windowed.merged().unwrap();
        assert_eq!(merged.count(), 100);
        assert!(!windowed.shards[0].is_poisoned());
    }

    /// A poison repair empties a ring but keeps its advance clock, so the
    /// clock that shipped slices carry never runs backwards.
    #[test]
    fn poison_repair_keeps_the_ring_clock() {
        let windowed =
            WindowedIngest::new(&template(1000), 1, WindowPolicy::SlidingSlices(2)).unwrap();
        windowed.ingest(&sample(300, 32));
        windowed.advance_all();
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = windowed.shards[0].lock().unwrap();
            panic!("simulated writer crash");
        }));
        assert!(crash.is_err());
        assert_eq!(windowed.total_count(), 300);
        assert_eq!(windowed.advances(), 1);
        assert_eq!(windowed.total_count(), 0);
        let (_, meta) =
            CoefficientSketch::from_bytes_with_window(&windowed.ship_current_slice().unwrap())
                .unwrap();
        assert_eq!(meta.expect("windowed frame carries metadata").advances, 1);
    }
}
