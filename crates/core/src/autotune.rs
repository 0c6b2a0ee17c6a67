//! First-use autotuning of the internal ingest chunk size.
//!
//! The ideal number of observations per scatter chunk depends on the
//! basis (the support width sets the per-row work, the level count sets
//! how many passes sweep each chunk) and on the host cache hierarchy —
//! neither is knowable at compile time, and a constant tuned on one
//! machine mispredicts on another. Instead, the first sufficiently large
//! batch ingested per basis shape races one slice of real data at each
//! candidate size and caches the winner for the process lifetime.
//!
//! Probing is *online*: the timed slices are genuine ingests (no work is
//! discarded or replayed), and chunk boundaries cannot affect results —
//! every level accumulates observations in batch order no matter how the
//! batch is sliced — so the tuner only changes how fast the sums are
//! produced, never what they are.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Chunk sizes the first large batch races against each other. Ordered
/// smallest-first so the cold-cache first slice handicaps the smallest
/// candidate, not the largest.
const CHUNK_CANDIDATES: [usize; 5] = [128, 256, 512, 1024, 2048];

/// Rows a batch must contain before probing is worthwhile: one slice per
/// candidate. Smaller first batches use the caller's default and leave
/// the cache untouched, so a later large batch can still tune.
pub(crate) fn probe_rows() -> usize {
    CHUNK_CANDIDATES.iter().sum()
}

/// What a tuned winner is keyed by: the scatter cost model changes with
/// the dimension count (2-D levels sweep one outer row per `x`
/// translation), the support width (slots per window) and the number of
/// level passes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ChunkKey {
    pub dims: u32,
    /// Scatter slots per observation window (the wavelet support width).
    pub support: u32,
    /// Level passes that sweep each chunk.
    pub levels: u32,
}

fn cache() -> &'static Mutex<HashMap<ChunkKey, usize>> {
    static CACHE: OnceLock<Mutex<HashMap<ChunkKey, usize>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cached winner for `key`; `None` means it has not been tuned yet.
fn fixed_chunk(key: &ChunkKey) -> Option<usize> {
    cache().lock().ok()?.get(key).copied()
}

/// Caches `chunk` as the winner for `key`. First writer wins so a
/// concurrent probe cannot flip an already-tuned key mid-run.
fn record_winner(key: ChunkKey, chunk: usize) {
    if let Ok(mut map) = cache().lock() {
        map.entry(key).or_insert(chunk);
    }
}

/// Races the candidates over successive leading slices of `items` — each
/// timed slice is a real ingest through `scatter` — and returns
/// `(winner, items_consumed)`.
///
/// # Panics
/// If `items.len() < probe_rows()`.
pub(crate) fn probe_chunks<T>(items: &[T], mut scatter: impl FnMut(&[T])) -> (usize, usize) {
    let mut consumed = 0;
    let mut best = (CHUNK_CANDIDATES[0], f64::INFINITY);
    for &candidate in &CHUNK_CANDIDATES {
        let slice = &items[consumed..consumed + candidate];
        let start = Instant::now();
        scatter(slice);
        let per_item = start.elapsed().as_secs_f64() / candidate as f64;
        consumed += candidate;
        if per_item < best.1 {
            best = (candidate, per_item);
        }
    }
    (best.0, consumed)
}

/// Resolves the chunk size for one batch: the cached winner when
/// present; otherwise, when the batch is large enough,
/// probes the candidates on its leading slices (ingesting them for
/// real), caches the winner, and hands back the not-yet-ingested
/// remainder. Batches too small to probe use `default` untuned.
pub(crate) fn tuned_chunk<'a, T>(
    key: ChunkKey,
    default: usize,
    items: &'a [T],
    scatter: &mut impl FnMut(&[T]),
) -> (usize, &'a [T]) {
    if let Some(chunk) = fixed_chunk(&key) {
        return (chunk, items);
    }
    if items.len() < probe_rows() {
        return (default, items);
    }
    let (winner, consumed) = probe_chunks(items, &mut *scatter);
    record_winner(key, winner);
    (winner, &items[consumed..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(levels: u32) -> ChunkKey {
        ChunkKey {
            dims: 1,
            support: 15,
            levels,
        }
    }

    #[test]
    fn probe_consumes_one_slice_per_candidate_and_picks_a_candidate() {
        let items = vec![1.0_f64; probe_rows() + 17];
        let mut seen = Vec::new();
        let (winner, consumed) = probe_chunks(&items, |slice| seen.push(slice.len()));
        assert_eq!(seen, CHUNK_CANDIDATES.to_vec());
        assert_eq!(consumed, probe_rows());
        assert!(CHUNK_CANDIDATES.contains(&winner));
    }

    #[test]
    fn small_batches_fall_back_to_default_without_caching() {
        let key = key(97);
        let items = vec![0.0_f64; probe_rows() - 1];
        let mut calls = 0;
        let (chunk, rest) = tuned_chunk(key, 512, &items, &mut |_| calls += 1);
        assert_eq!(chunk, 512);
        assert_eq!(rest.len(), items.len());
        assert_eq!(calls, 0);
        assert_eq!(fixed_chunk(&key), None);
    }

    #[test]
    fn large_batches_probe_once_then_reuse_the_cached_winner() {
        let key = key(98);
        let items = vec![0.0_f64; probe_rows() + 100];
        let mut probed = 0;
        let (chunk, rest) = tuned_chunk(key, 512, &items, &mut |_| probed += 1);
        assert_eq!(probed, CHUNK_CANDIDATES.len());
        assert!(CHUNK_CANDIDATES.contains(&chunk));
        assert_eq!(rest.len(), 100);
        assert_eq!(fixed_chunk(&key), Some(chunk));

        // Second batch: no probing, same winner, nothing pre-consumed.
        let (again, rest) = tuned_chunk(key, 512, &items, &mut |_| probed += 1);
        assert_eq!(probed, CHUNK_CANDIDATES.len());
        assert_eq!(again, chunk);
        assert_eq!(rest.len(), items.len());
    }

    #[test]
    fn first_recorded_winner_sticks() {
        let key = key(99);
        record_winner(key, 256);
        record_winner(key, 2048);
        assert_eq!(fixed_chunk(&key), Some(256));
    }
}
