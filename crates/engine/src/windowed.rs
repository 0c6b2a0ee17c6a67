//! Windowed sketch ingestion: the streaming sibling of
//! [`ShardedIngest`](crate::sharded::ShardedIngest).
//!
//! Each shard owns a full [`WindowedSketch`] ring behind a [`Mutex`];
//! batches land in the shard's *current* slice exactly like sharded
//! ingest (round-robin placement, scatter-outside-the-lock for long
//! streaming batches, one task per shard for bulk loads), and
//! [`advance_all`](WindowedIngest::advance_all) closes the current time
//! slice on every shard. Because all shards advance together, the shard
//! rings stay aligned slice-for-slice and the merged window over all
//! shards is the mergeable-sketch state over exactly the rows of the live
//! slices.
//!
//! # Short critical sections
//!
//! The streaming ingest path and the advance path keep the per-shard lock
//! hold times independent of the batch length and the slice size. Long
//! [`ingest`](WindowedIngest::ingest) batches scatter into a pooled
//! scratch sketch first (the pattern shared with `ShardedIngest`) and
//! lock only for the element-wise merge; `advance_all` rotates each ring
//! by *swapping* a cleared scratch sketch in as the fresh slice
//! ([`WindowedSketch::advance_swap`] is O(1)) and clears the retired
//! slice outside the lock, where the O(level tables) zeroing cannot stall
//! writers.
//!
//! # Bulk loads
//!
//! [`ingest_parallel`](WindowedIngest::ingest_parallel) has the shape
//! and the contract of
//! [`ShardedIngest::ingest_parallel`](crate::sharded::ShardedIngest::ingest_parallel):
//! one contiguous share per shard, one pool task per share, pushed
//! straight into the shard's current slice under its lock. For a given
//! shard count the merged window afterwards is bitwise identical whatever
//! the pool's thread count or timing; a load uses at most
//! `min(shards, pool threads)` cores and holds each shard's lock while
//! its share scatters.
//!
//! Shard mutexes recover from poisoning the same way sharded ingest
//! does: a crashed writer's ring is reset wholesale (its rows leave the
//! running counter) and the poison flag is cleared, so one panic cannot
//! kill the attribute.

use crate::sharded::{
    lock_scratch_pool, push_shares, MAX_POOLED_SCRATCH, SCATTER_OUTSIDE_LOCK_MIN,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use wavedens_core::{CoefficientSketch, EstimatorError, WindowPolicy, WindowedSketch};

/// N per-shard windowed sketch rings with round-robin batch placement,
/// collective advance, and policy-weighted window merges.
#[derive(Debug)]
pub struct WindowedIngest {
    shards: Vec<Mutex<WindowedSketch>>,
    /// Empty sketch the slices (and pooled scratches) are cloned from.
    template: CoefficientSketch,
    /// The window policy every read folds the rings through.
    policy: WindowPolicy,
    /// Cleared scratch sketches shared by the out-of-lock scatter path
    /// and the advance swap.
    scratch: Mutex<Vec<CoefficientSketch>>,
    /// Rows currently *live* across all shards: grows with every batch,
    /// shrinks when an advance retires a slice.
    rows: AtomicUsize,
    next: AtomicUsize,
    /// Advances performed — the logical clock all shard rings share.
    advances: AtomicU64,
}

impl WindowedIngest {
    /// Creates `shards ≥ 1` shards, each a ring of the size `policy`
    /// calls for, every slice an empty clone of `template`. Fails on
    /// [`WindowPolicy::Landmark`] (no ring to keep — use
    /// [`ShardedIngest`](crate::sharded::ShardedIngest)) and on invalid
    /// policy parameters or a nonempty template.
    pub fn new(
        template: &CoefficientSketch,
        shards: usize,
        policy: WindowPolicy,
    ) -> Result<Self, EstimatorError> {
        let shards = shards.max(1);
        let rings: Result<Vec<_>, _> = (0..shards)
            .map(|_| WindowedSketch::from_policy(template, policy).map(Mutex::new))
            .collect();
        Ok(Self {
            shards: rings?,
            template: template.clone(),
            policy,
            scratch: Mutex::new(Vec::new()),
            rows: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            advances: AtomicU64::new(0),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The window policy reads fold the rings through.
    pub fn policy(&self) -> WindowPolicy {
        self.policy
    }

    /// Advances performed so far.
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::Acquire)
    }

    /// Rows currently live in the window across all shards (lock-free).
    pub fn total_count(&self) -> usize {
        self.rows.load(Ordering::Acquire)
    }

    /// Whether the window currently holds no rows (lock-free).
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0
    }

    /// Locks shard `index`, recovering from a poisoned mutex by resetting
    /// the whole ring — the crashed writer may have torn the current
    /// slice's sums, and a ring whose slices disagree about time is worse
    /// than an empty one. The ring's live rows leave the running counter
    /// and the poison flag is cleared so the repair runs exactly once.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, WindowedSketch> {
        match self.shards[index].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                self.shards[index].clear_poison();
                let lost = guard.count();
                guard.clear();
                let _ = self
                    .rows
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |rows| {
                        Some(rows.saturating_sub(lost))
                    });
                guard
            }
        }
    }

    /// Ingests one batch into the current slice of a round-robin-chosen
    /// shard. Long batches scatter into a pooled scratch outside the
    /// lock, exactly like sharded ingest.
    pub fn ingest(&self, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        if values.len() >= SCATTER_OUTSIDE_LOCK_MIN {
            let mut local = self.take_scratch();
            local.push_batch(values);
            self.lock_shard(shard)
                .merge_into_current(&local)
                .expect("scratch is cloned from the slice template");
            self.return_scratch(local);
        } else {
            self.lock_shard(shard).push_batch(values);
        }
        self.rows.fetch_add(values.len(), Ordering::Release);
    }

    /// Bulk-loads `values` into the current time slice, one contiguous
    /// share per shard and one global-pool task per share: task `i` locks
    /// shard `i` and pushes its share straight into the current slice,
    /// with no scratch sketch. Small loads, and loads into one shard, run
    /// inline on the next round-robin shard. Same shares, contract and
    /// trade as
    /// [`ShardedIngest::ingest_parallel`](crate::sharded::ShardedIngest::ingest_parallel):
    /// for a given shard count the merged window afterwards is bitwise
    /// identical whatever the pool's thread count or timing, and a load
    /// uses at most `min(shards, pool threads)` cores while holding each
    /// shard's lock for its share's scatter.
    pub fn ingest_parallel(&self, values: &[f64]) {
        push_shares(values, self.shards.len(), &self.next, &|shard, share| {
            self.lock_shard(shard).push_batch(share)
        });
        self.rows.fetch_add(values.len(), Ordering::Release);
    }

    /// Closes the current time slice on every shard and retires the
    /// oldest when the rings are full. Returns the number of rows that
    /// left the window.
    ///
    /// Each shard's lock is held only for the O(1)
    /// [`advance_swap`](WindowedSketch::advance_swap) — a cleared scratch
    /// sketch swaps in as the fresh slice, and the retired slice is
    /// cleared (the O(level tables) part) outside the lock, then returned
    /// to the pool. Concurrent writers racing an advance land their batch
    /// atomically in either the old or the new slice, never torn across
    /// both.
    pub fn advance_all(&self) -> usize {
        let mut retired_rows = 0;
        for shard in 0..self.shards.len() {
            let replacement = self.take_scratch();
            let retired = {
                let mut ring = self.lock_shard(shard);
                ring.advance_swap(replacement)
                    .expect("scratch is cloned from the slice template")
            };
            retired_rows += retired.count();
            // Zero the retired slice outside the critical section.
            self.return_scratch(retired);
        }
        let _ = self
            .rows
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |rows| {
                Some(rows.saturating_sub(retired_rows))
            });
        self.advances.fetch_add(1, Ordering::Release);
        retired_rows
    }

    /// The policy-weighted merged window over all shards — the mergeable
    /// sketch state over exactly the live rows (sliding) or the
    /// λ-decayed fold of the live slices (decay).
    pub fn merged(&self) -> Result<CoefficientSketch, EstimatorError> {
        let mut merged = {
            let ring = self.lock_shard(0);
            ring.merged_window(self.policy)?
        };
        for shard in 1..self.shards.len() {
            let ring = self.lock_shard(shard);
            ring.merge_window_append(&mut merged, self.policy)?;
        }
        Ok(merged)
    }

    /// [`merged`](Self::merged) into a caller-provided scratch sketch,
    /// reusing its allocations — the allocation-free merge path of the
    /// engine's incremental refresh. `target`'s level stamps advance
    /// strictly (per-slice stamps fold into it through the scaled
    /// copy/merge), so `CvCache`/`DenseEvalCache` consumers stay sound
    /// across advances.
    pub fn merge_into(&self, target: &mut CoefficientSketch) -> Result<(), EstimatorError> {
        {
            let first = self.lock_shard(0);
            first.merge_window_into(target, self.policy)?;
        }
        for shard in 1..self.shards.len() {
            let ring = self.lock_shard(shard);
            ring.merge_window_append(target, self.policy)?;
        }
        Ok(())
    }

    /// Ships the current (age-0) time slice merged across all shards as a
    /// windowed v3 frame. Receivers with window support place it in their
    /// own ring via `CoefficientSketch::from_bytes_with_window`; plain
    /// `from_bytes` consumers read it as an ordinary sketch.
    pub fn ship_current_slice(&self) -> Result<Vec<u8>, EstimatorError> {
        let mut merged: Option<CoefficientSketch> = None;
        let mut ring_slices = 1;
        for shard in 0..self.shards.len() {
            let ring = self.lock_shard(shard);
            ring_slices = ring.ring_slices();
            let slice = ring.slice(0).expect("the current slice is always live");
            match &mut merged {
                None => merged = Some(slice.clone()),
                Some(target) => target.merge(slice)?,
            }
        }
        let merged = merged.expect("at least one shard");
        let meta = wavedens_core::WindowSliceMeta {
            slice_age: 0,
            ring_slices: ring_slices as u32,
            advances: self.advances(),
            decay_lambda: self.policy.decay_lambda(),
        };
        Ok(merged.to_bytes_with_window(&meta))
    }

    fn take_scratch(&self) -> CoefficientSketch {
        lock_scratch_pool(&self.scratch)
            .pop()
            .unwrap_or_else(|| self.template.clone())
    }

    fn return_scratch(&self, mut sketch: CoefficientSketch) {
        sketch.clear();
        let mut pool = lock_scratch_pool(&self.scratch);
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(sketch);
        }
    }
}

impl Clone for WindowedIngest {
    fn clone(&self) -> Self {
        let rings: Vec<WindowedSketch> = (0..self.shards.len())
            .map(|shard| self.lock_shard(shard).clone())
            .collect();
        let rows = rings.iter().map(|ring| ring.count()).sum();
        Self {
            shards: rings.into_iter().map(Mutex::new).collect(),
            template: self.template.clone(),
            policy: self.policy,
            scratch: Mutex::new(Vec::new()),
            rows: AtomicUsize::new(rows),
            next: AtomicUsize::new(self.next.load(Ordering::Relaxed)),
            advances: AtomicU64::new(self.advances.load(Ordering::Acquire)),
        }
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
    fn landmark_policy_is_rejected() {
        assert!(WindowedIngest::new(&template(100), 2, WindowPolicy::Landmark).is_err());
        assert!(WindowedIngest::new(&template(100), 2, WindowPolicy::SlidingSlices(0)).is_err());
        assert!(
            WindowedIngest::new(&template(100), 2, WindowPolicy::ExponentialDecay(1.5)).is_err()
        );
    }

    /// Sliding window over all live slices, before any retirement, equals
    /// the plain sharded fit on the same rows.
    #[test]
    fn sliding_window_matches_lifetime_before_retirement() {
        let data = sample(1200, 21);
        let windowed =
            WindowedIngest::new(&template(1200), 2, WindowPolicy::SlidingSlices(4)).unwrap();
        for (i, chunk) in data.chunks(400).enumerate() {
            if i > 0 {
                windowed.advance_all();
            }
            windowed.ingest(chunk);
        }
        assert_eq!(windowed.total_count(), data.len());
        assert_eq!(windowed.advances(), 2);
        let mut single = template(1200);
        single.push_batch(&data);
        let merged = windowed.merged().unwrap();
        assert_eq!(merged.count(), single.count());
        let a = merged.snapshot().unwrap();
        let b = single.snapshot().unwrap();
        for (la, lb) in a.details().iter().zip(b.details()) {
            for (va, vb) in la.values.iter().zip(&lb.values) {
                assert!((va - vb).abs() < 1e-12 * (1.0 + vb.abs()));
            }
        }
    }

    /// Advancing past the ring size retires the oldest rows: the live
    /// count drops and the merged window covers only the survivors.
    #[test]
    fn advance_retires_the_oldest_slice() {
        let windowed =
            WindowedIngest::new(&template(1000), 1, WindowPolicy::SlidingSlices(2)).unwrap();
        windowed.ingest(&sample(100, 22));
        windowed.advance_all();
        windowed.ingest(&sample(60, 23));
        assert_eq!(windowed.total_count(), 160);
        // The 2-slice ring is full: this advance retires the 100-row
        // slice.
        let retired = windowed.advance_all();
        assert_eq!(retired, 100);
        assert_eq!(windowed.total_count(), 60);
        windowed.ingest(&sample(40, 24));
        assert_eq!(windowed.total_count(), 100);
        assert_eq!(windowed.merged().unwrap().count(), 100);
    }

    /// Decay-weighted windows scale retired history instead of dropping
    /// it: the merged count is the λ-weighted sum of slice counts.
    #[test]
    fn decay_window_weights_slices_geometrically() {
        let lambda = 0.5;
        let windowed =
            WindowedIngest::new(&template(1000), 1, WindowPolicy::ExponentialDecay(lambda))
                .unwrap();
        windowed.ingest(&sample(400, 25));
        windowed.advance_all();
        windowed.ingest(&sample(200, 26));
        // Weighted count: 200·λ⁰ + 400·λ¹ = 400.
        assert_eq!(windowed.merged().unwrap().count(), 400);
    }

    /// The current slice ships as a v3 frame that plain consumers read as
    /// an ordinary sketch and windowed consumers read with metadata.
    #[test]
    fn current_slice_ships_and_restores() {
        let windowed =
            WindowedIngest::new(&template(1000), 2, WindowPolicy::SlidingSlices(3)).unwrap();
        windowed.ingest(&sample(300, 27));
        windowed.advance_all();
        windowed.ingest(&sample(120, 28));
        let frame = windowed.ship_current_slice().unwrap();
        let plain = CoefficientSketch::from_bytes(&frame).unwrap();
        assert_eq!(plain.count(), 120);
        let (slice, meta) = CoefficientSketch::from_bytes_with_window(&frame).unwrap();
        let meta = meta.expect("windowed frame carries metadata");
        assert_eq!(slice.count(), 120);
        assert_eq!(meta.slice_age, 0);
        assert_eq!(meta.ring_slices, 3);
        assert_eq!(meta.advances, 1);
        assert_eq!(meta.decay_lambda, 1.0);
    }

    /// Bulk loads push each contiguous share straight into its shard's
    /// current slice: the scratch pool (streaming batches and the advance
    /// swap) stays empty, and each slice holds bit for bit what pushing
    /// its share into a fresh template gives.
    #[test]
    fn parallel_loads_bypass_the_scratch_pool() {
        let data = sample(8 * SCATTER_OUTSIDE_LOCK_MIN, 31);
        let windowed =
            WindowedIngest::new(&template(4000), 2, WindowPolicy::SlidingSlices(3)).unwrap();
        windowed.ingest_parallel(&data);
        assert!(windowed.scratch.lock().unwrap().is_empty());
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
}
