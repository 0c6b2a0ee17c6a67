//! The cross-validation procedures of Section 5.1 (HTCV and STCV).
//!
//! Because the constant `K` in the theoretical threshold `λ_j = K √(j/n)`
//! depends on the unknown dependence constants of assumption (D), the paper
//! chooses per-level thresholds by minimising the criteria
//!
//! ```text
//! HTCV:  CV_j(λ) = Σ_k 1{|β̂_{j,k}| ≥ λ} [ β̂²_{j,k} − 2/(n(n−1)) Σ_{i≠h} ψ_{j,k}(X_i)ψ_{j,k}(X_h) ],
//! STCV:  CV_j(λ) = Σ_k 1{|β̂_{j,k}| ≥ λ} [ …same…  + λ² ],
//! ```
//!
//! over `λ ≥ 0`, independently for every level `j0 ≤ j ≤ j* = log₂ n`. The
//! data-driven highest resolution `ĵ1` is the smallest level from which the
//! optimal criterion is identically zero (i.e. the empty active set is
//! optimal) up to `j*`.
//!
//! Both criteria are piecewise functions of `λ` whose active set only
//! changes at the observed magnitudes `|β̂_{j,k}|`, so it suffices to scan
//! the observed magnitudes (plus the empty set), which this module does in
//! `O(K log K)` per level.
//!
//! ## Levels on the pool
//!
//! Levels are selected independently, so a cold sweep is one independent
//! candidate sort and scan per level. [`cross_validate_with`] (hence
//! [`cross_validate`]), the dirty levels of [`cross_validate_cached`] and
//! the per-level loop of [`crate::TensorSketch::thresholded`] all hand
//! their levels to one private helper. When the levels to recompute hold
//! at least `POOL_MIN_SLOTS` (2^14) coefficients in total, it runs them
//! on `workpool::WorkPool::global()`: every worker claims the next level
//! off one queue sorted largest first, so the finest level (about half of
//! a dyadic level set's work) starts at once and the other workers share
//! the rest. Smaller sets, such as a streaming synopsis's whole level set
//! (≈4 k slots when sized for 2^11 rows), run on the calling thread and
//! never pay for a pool scope. Each level's order buffer is allocated on
//! the calling thread before the fan-out.
//!
//! The result is bitwise the serial one whatever the thread count or
//! schedule: a level's sort, scan and [`LevelCrossValidation`] read only
//! that level, the sort key (decreasing magnitude, then ascending index)
//! is a strict total order so every correct sort yields the same
//! permutation, and the per-level results are assembled in level order
//! before `ĵ1` is located.
//!
//! ## Reproduction note (documented in DESIGN.md / EXPERIMENTS.md)
//!
//! Taken literally, the HTCV criterion (no `λ²` term) systematically
//! under-thresholds: for a pure-noise level the realised contribution of a
//! coefficient is `≈ (2Σψ² − (Σψ)²)/n²`, which is negative for roughly the
//! 16 % largest-magnitude coefficients, so the per-level argmin keeps a
//! sizeable fraction of pure noise at every level, the data-driven `ĵ1`
//! equals `j* + 1` and the MISE blows up by an order of magnitude — in
//! clear contradiction with the paper's Table 1/2 and Figures 3/4 (hard
//! thresholds ≈ soft thresholds at fine levels, almost everything killed,
//! `ĵ1 ≈ 5`). The paper's *reported* behaviour is exactly what the
//! `λ²`-penalised criterion produces, so by default this crate uses the
//! penalised selection for **both** nonlinearities
//! ([`CvCriterion::Penalized`]) and keeps the literal unpenalised HT
//! criterion available as [`CvCriterion::Unpenalized`] for the ablation
//! benchmark.

use crate::coefficients::{EmpiricalCoefficients, LevelCoefficients};
use crate::threshold::{ThresholdProfile, ThresholdRule};
use std::cmp::Reverse;
use std::sync::{Mutex, PoisonError};
use workpool::WorkPool;

/// Tolerance used to decide that a criterion value "is zero" when locating
/// `ĵ1` and to break ties towards sparser solutions.
const CRITERION_TOLERANCE: f64 = 1e-12;

/// Fewest coefficient slots, summed over the levels to recompute, that
/// [`run_levels`] hands to the pool; smaller level sets cross-validate on
/// the calling thread, where they finish before a pool scope (one OS
/// thread per extra worker) would have started.
const POOL_MIN_SLOTS: usize = 1 << 14;

/// Which penalisation the per-level selection criterion uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvCriterion {
    /// The literal HTCV criterion of the paper (no `λ²` term). Kept for the
    /// ablation study; it under-thresholds at fine resolution levels (see
    /// the module documentation).
    Unpenalized,
    /// The STCV criterion (adds `#kept · λ²`). The default for both
    /// thresholding rules because it reproduces the behaviour the paper
    /// reports.
    Penalized,
}

impl CvCriterion {
    /// The criterion used by default for a given thresholding rule
    /// (currently [`CvCriterion::Penalized`] for both; see the module
    /// documentation).
    pub fn recommended_for(_rule: ThresholdRule) -> Self {
        CvCriterion::Penalized
    }
}

/// Outcome of cross-validation at a single resolution level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCrossValidation {
    /// The resolution level `j`.
    pub level: i32,
    /// The selected threshold `λ̂_j`.
    pub lambda: f64,
    /// The minimised criterion value `CV_j(λ̂_j)`.
    pub criterion: f64,
    /// Number of coefficients surviving the threshold (`|β̂| ≥ λ̂_j`).
    pub kept: usize,
    /// Total number of coefficients at the level.
    pub total: usize,
}

impl LevelCrossValidation {
    /// Fraction of coefficients killed by the selected threshold (what
    /// Figure 4 of the paper plots).
    pub fn thresholded_fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.kept as f64 / self.total as f64
    }
}

/// Result of the full cross-validation sweep over levels `j0..=j*`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidationResult {
    /// Which thresholding nonlinearity the criterion corresponds to.
    pub rule: ThresholdRule,
    /// Per-level selections, ordered from `j0` upwards.
    pub levels: Vec<LevelCrossValidation>,
    /// The data-driven highest resolution level `ĵ1`: the smallest level
    /// such that the optimal criterion is (numerically) zero at every level
    /// from `ĵ1` up to `j*`. Always at least `j0`.
    pub j1: i32,
}

impl CrossValidationResult {
    /// The per-level thresholds as a [`ThresholdProfile`].
    pub fn thresholds(&self) -> ThresholdProfile {
        ThresholdProfile {
            j0: self.levels.first().map(|l| l.level).unwrap_or(0),
            levels: self.levels.iter().map(|l| l.lambda).collect(),
        }
    }

    /// Selection for a specific level, if it was cross-validated.
    pub fn level(&self, j: i32) -> Option<&LevelCrossValidation> {
        self.levels.iter().find(|l| l.level == j)
    }
}

/// Runs the cross-validation of Section 5.1 on precomputed empirical
/// coefficients with the recommended criterion for `rule`.
pub fn cross_validate(
    coefficients: &EmpiricalCoefficients,
    rule: ThresholdRule,
) -> CrossValidationResult {
    cross_validate_with(coefficients, rule, CvCriterion::recommended_for(rule))
}

/// Runs cross-validation with an explicit criterion choice.
pub fn cross_validate_with(
    coefficients: &EmpiricalCoefficients,
    rule: ThresholdRule,
    criterion: CvCriterion,
) -> CrossValidationResult {
    let n = coefficients.sample_size();
    let details = coefficients.details();
    let levels = run_levels(
        details
            .iter()
            .map(|level| (level, Vec::with_capacity(level.len()))),
        details.iter().map(LevelCoefficients::len).sum(),
        |(level, _)| level.len(),
        &mut (),
        |(level, order), _| cross_validate_into(level, n, criterion, order),
    );
    assemble_result(coefficients.coarse_level(), rule, levels)
}

/// Runs `run` on every level job and returns the results in job order.
///
/// When the jobs hold at least [`POOL_MIN_SLOTS`] coefficient slots in
/// total (`slots`, the sum of `size` over the jobs), they are collected on
/// the calling thread (so whatever building a job allocates lands there),
/// sorted largest `size` first into one queue, and [`WorkPool::global()`]
/// runs one claimer per worker (dealt by `spawn_batch`), each taking the
/// next job off the queue until it is empty, with a default `S` of its
/// own as scratch. The largest level thus starts at once and the other
/// workers share the rest: the greedy largest-first schedule, whose
/// makespan on a dyadic level set is about the finest level's time.
/// Below the gate the jobs run in order on the calling thread with the
/// caller's `scratch`, allocating nothing beyond the result vector (none
/// at all for a zero-sized `R`).
pub(crate) fn run_levels<J, R, S>(
    jobs: impl Iterator<Item = J>,
    slots: usize,
    size: impl Fn(&J) -> usize,
    scratch: &mut S,
    run: impl Fn(J, &mut S) -> R + Sync,
) -> Vec<R>
where
    J: Send,
    R: Send,
    S: Default,
{
    if slots < POOL_MIN_SLOTS {
        return jobs.map(|job| run(job, scratch)).collect();
    }
    let jobs: Vec<J> = jobs.collect();
    let mut results: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    let mut queue: Vec<(J, &mut Option<R>)> = jobs.into_iter().zip(&mut results).collect();
    queue.sort_by_key(|(job, _)| Reverse(size(job)));
    let queue = Mutex::new(queue.into_iter());
    let (queue, run) = (&queue, &run);
    let pool = WorkPool::global();
    pool.scope(|scope| {
        scope.spawn_batch((0..pool.threads()).map(|_| {
            move || {
                let mut scratch = S::default();
                loop {
                    // Jobs cannot panic while the lock is held (`next` on
                    // a vector iterator), so a poisoned queue is intact.
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((job, result)) = next else { break };
                    *result = Some(run(job, &mut scratch));
                }
            }
        }));
    });
    results
        .into_iter()
        .map(|result| result.expect("the pool scope joins every level job"))
        .collect()
}

/// ĵ1 (the smallest level from which every criterion is ≈ 0 up to `j*`)
/// plus the packaged per-level selections.
fn assemble_result(
    j0: i32,
    rule: ThresholdRule,
    levels: Vec<LevelCrossValidation>,
) -> CrossValidationResult {
    let mut j1 = j0;
    for lvl in &levels {
        if lvl.criterion < -CRITERION_TOLERANCE {
            j1 = lvl.level + 1;
        }
    }
    CrossValidationResult { rule, levels, j1 }
}

/// Reusable per-level state for the delta-aware cross-validation entry
/// point [`cross_validate_cached`].
///
/// The cache keeps, per detail level, the mutation stamp it reflects, the
/// magnitude-sorted candidate order and the selected
/// [`LevelCrossValidation`]. On the next refresh:
///
/// * a level whose stamp **and** sample size are unchanged returns its
///   cached selection without rescanning;
/// * a dirty level re-sorts *starting from the previous order* — a small
///   ingest batch perturbs at most `batch × (2N−1)` magnitudes per level,
///   so the stable adaptive sort runs in near-linear time instead of the
///   full `O(K log K)`, and the order/result buffers are recycled instead
///   of reallocated.
///
/// The dirty levels go through the same fan-out as [`cross_validate`]
/// (see the module docs): when they hold at least 2^14 slots in total —
/// a cold cache on a large synopsis — they run on
/// `workpool::WorkPool::global()`, each pool worker with repair scratch
/// of its own; below that they run on the calling thread with the
/// cache's recycled scratch, so a small-batch refresh allocates nothing
/// here beyond the result vector.
///
/// The cached path is bitwise identical to [`cross_validate`]: both rank
/// candidates by descending magnitude with ascending index as the tie
/// break (a strict total order, so the repaired and the freshly sorted
/// order are the same permutation), accumulate the criterion prefix in
/// that exact order and assemble the levels in level order, on the pool
/// or not.
#[derive(Debug, Clone, Default)]
pub struct CvCache {
    rule: Option<(ThresholdRule, CvCriterion)>,
    /// The sketch lineage the per-level results belong to; results cached
    /// under a different lineage are discarded, so one cache can never
    /// alias two sketches that happen to share version numbers.
    lineage: u64,
    sample_size: usize,
    levels: Vec<LevelCvCache>,
    /// [`repair_order`]'s scratch on the calling thread, recycled across
    /// levels and refreshes.
    repair: RepairScratch,
}

/// One detail level's cached cross-validation state.
#[derive(Debug, Clone)]
struct LevelCvCache {
    version: u64,
    order: Vec<u32>,
    result: LevelCrossValidation,
}

impl LevelCvCache {
    /// A never-computed entry for `level`: its version 0 matches no
    /// stamp a hit accepts, so the first refresh computes it, and its
    /// order buffer is already sized for the first sort.
    fn unfilled(level: &LevelCoefficients) -> Self {
        Self {
            version: 0,
            order: Vec::with_capacity(level.len()),
            result: LevelCrossValidation {
                level: level.level,
                lambda: 0.0,
                criterion: 0.0,
                kept: 0,
                total: level.len(),
            },
        }
    }
}

/// [`repair_order`]'s still-sorted chain and displaced minority.
#[derive(Debug, Clone, Default)]
struct RepairScratch {
    chain: Vec<u32>,
    displaced: Vec<u32>,
}

impl CvCache {
    /// Creates an empty cache (every level recomputed on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all cached per-level state (the next refresh recomputes
    /// everything from scratch).
    pub fn clear(&mut self) {
        self.rule = None;
        self.lineage = 0;
        self.sample_size = 0;
        self.levels.clear();
    }

    /// Number of levels currently cached.
    pub fn cached_levels(&self) -> usize {
        self.levels.len()
    }
}

/// The delta-aware variant of [`cross_validate`]: reuses the per-level
/// statistics in `cache` for levels whose mutation stamp is unchanged and
/// re-sorts dirty levels starting from their previous candidate order.
///
/// `lineage` identifies the sketch *instance* the stamps belong to (see
/// [`crate::sketch::CoefficientSketch`]; `0` means "unknown" and disables
/// result reuse while still recycling the order buffers). `versions[i]`
/// is the caller's dirty stamp for `coefficients.details()[i]` (see
/// [`crate::sketch::CoefficientSketch::detail_versions`]); a stamp of `0`
/// means "unversioned" and always recomputes. The result is bitwise
/// identical to `cross_validate(coefficients, rule)` for any cache state
/// — cached per-level selections are only replayed when lineage, stamp
/// and sample size all match, and a lineage never repeats a stamp with
/// different contents.
pub fn cross_validate_cached(
    coefficients: &EmpiricalCoefficients,
    rule: ThresholdRule,
    lineage: u64,
    versions: &[u64],
    cache: &mut CvCache,
) -> CrossValidationResult {
    let criterion = CvCriterion::recommended_for(rule);
    let n = coefficients.sample_size();
    let details = coefficients.details();
    if cache.rule != Some((rule, criterion))
        || cache.lineage != lineage
        || cache.levels.len() != details.len()
    {
        cache.levels.clear();
        cache
            .levels
            .extend(details.iter().map(LevelCvCache::unfilled));
        cache.rule = Some((rule, criterion));
        cache.lineage = lineage;
    }
    let same_n = cache.sample_size == n;
    let version = |i: usize| versions.get(i).copied().unwrap_or(0);
    let dirty = |i: usize, level: &LevelCoefficients, entry: &LevelCvCache| {
        !(lineage != 0
            && version(i) != 0
            && entry.version == version(i)
            && same_n
            && entry.result.level == level.level
            && entry.result.total == level.len())
    };
    let dirty_slots = details
        .iter()
        .zip(&cache.levels)
        .enumerate()
        .filter(|&(i, (level, entry))| dirty(i, level, entry))
        .map(|(_, (level, _))| level.len())
        .sum();
    let jobs = details
        .iter()
        .zip(&mut cache.levels)
        .enumerate()
        .filter(|(i, (level, entry))| dirty(*i, level, entry))
        .map(|(i, (level, entry))| (level, entry, version(i)));
    run_levels(
        jobs,
        dirty_slots,
        |(level, _, _)| level.len(),
        &mut cache.repair,
        |(level, entry, version), scratch| {
            repair_order(level, &mut entry.order, scratch);
            entry.version = version;
            entry.result = scan_level(level, n, criterion, &entry.order);
        },
    );
    cache.sample_size = n;
    let levels = cache
        .levels
        .iter()
        .map(|entry| entry.result.clone())
        .collect();
    assemble_result(coefficients.coarse_level(), rule, levels)
}

/// Cross-validates one level.
pub fn cross_validate_level(
    level: &LevelCoefficients,
    n: usize,
    criterion: CvCriterion,
) -> LevelCrossValidation {
    cross_validate_into(level, n, criterion, Vec::new())
}

/// [`cross_validate_level`] sorting into `order`'s allocation.
pub(crate) fn cross_validate_into(
    level: &LevelCoefficients,
    n: usize,
    criterion: CvCriterion,
    order: Vec<u32>,
) -> LevelCrossValidation {
    let order = sorted_order(level, order);
    scan_level(level, n, criterion, &order)
}

/// Sorts (or re-sorts) `order` by decreasing coefficient magnitude with
/// ascending index as the tie break, recycling the vector's allocation.
fn sorted_order(level: &LevelCoefficients, mut order: Vec<u32>) -> Vec<u32> {
    if order.len() != level.len() {
        order.clear();
        order.extend(0..level.len() as u32);
    }
    order.sort_by(|&a, &b| compare_rank(level, a, b));
    order
}

/// The total order the candidate scan requires: decreasing magnitude,
/// ties broken by ascending index (indices are unique, so the order is
/// strict — both the full sort and the incremental repair produce the
/// exact same permutation).
fn compare_rank(level: &LevelCoefficients, a: u32, b: u32) -> std::cmp::Ordering {
    level.values[b as usize]
        .abs()
        .total_cmp(&level.values[a as usize].abs())
        .then_with(|| a.cmp(&b))
}

/// Repairs a previously sorted `order` after a sparse magnitude update in
/// `O(K + d log d)` (`d` displaced entries) instead of a full
/// `O(K log K)` sort: one greedy pass splits the stale order into a
/// still-sorted chain and the displaced rest, the displaced minority is
/// sorted, and the two sequences merge. A small ingest batch moves at most
/// `batch × (2N−1)` magnitudes per level, so `d ≪ K` on the refresh path.
/// Falls back to a plain sort when the perturbation is too large for the
/// repair to win (or the length changed).
fn repair_order(level: &LevelCoefficients, order: &mut Vec<u32>, scratch: &mut RepairScratch) {
    if order.len() != level.len() {
        *order = sorted_order(level, std::mem::take(order));
        return;
    }
    let RepairScratch { chain, displaced } = scratch;
    chain.clear();
    displaced.clear();
    for &index in order.iter() {
        match chain.last() {
            Some(&last) if compare_rank(level, last, index) == std::cmp::Ordering::Greater => {
                displaced.push(index)
            }
            _ => chain.push(index),
        }
    }
    if displaced.is_empty() {
        return;
    }
    // A pathological perturbation (e.g. the chain's head shrinking below
    // everything) degrades the greedy split; the plain sort is cheaper
    // then.
    if displaced.len() * 4 > order.len() {
        *order = sorted_order(level, std::mem::take(order));
        return;
    }
    displaced.sort_by(|&a, &b| compare_rank(level, a, b));
    // Merge the two rank-sorted sequences back into `order`.
    order.clear();
    let (mut i, mut j) = (0, 0);
    while i < chain.len() && j < displaced.len() {
        if compare_rank(level, chain[i], displaced[j]) != std::cmp::Ordering::Greater {
            order.push(chain[i]);
            i += 1;
        } else {
            order.push(displaced[j]);
            j += 1;
        }
    }
    order.extend_from_slice(&chain[i..]);
    order.extend_from_slice(&displaced[j..]);
}

/// Scans the candidate thresholds of one level in the (descending
/// magnitude) `order` and returns the minimising selection.
///
/// The per-coefficient contribution is
/// `c_k = β̂² − 2/(n(n−1)) [ (n β̂)² − Σ_i ψ(X_i)² ]`, accumulated in scan
/// order, so the full and cached cross-validation paths produce bitwise
/// identical results as long as they agree on `order`.
fn scan_level(
    level: &LevelCoefficients,
    n: usize,
    criterion: CvCriterion,
    order: &[u32],
) -> LevelCrossValidation {
    let total = level.len();
    debug_assert_eq!(order.len(), total);
    let n_f = n as f64;
    let cross_scale = 2.0 / (n_f * (n_f - 1.0));
    let contribution = |idx: usize| {
        let beta = level.values[idx];
        let sum_sq = level.sum_squares[idx];
        let total_sum = n_f * beta;
        beta * beta - cross_scale * (total_sum * total_sum - sum_sq)
    };

    // The empty active set (λ above every |β̂|) always attains criterion 0.
    let max_abs = level.max_abs();
    let empty_lambda = if max_abs > 0.0 {
        max_abs * (1.0 + 1e-12) + f64::MIN_POSITIVE
    } else {
        0.0
    };
    let mut best_lambda = empty_lambda;
    let mut best_criterion = 0.0_f64;
    let mut best_kept = 0usize;

    let mut prefix = 0.0_f64;
    let mut m = 0usize;
    while m < total {
        let lambda = level.values[order[m] as usize].abs();
        // Absorb the whole tie group so the active set is well defined.
        // Ties are bitwise (consistent with the `total_cmp` sort order):
        // `==` would never match a NaN magnitude against itself, leaving
        // `end == m` and this scan spinning forever on a poisoned
        // coefficient.
        let mut end = m;
        while end < total && level.values[order[end] as usize].abs().to_bits() == lambda.to_bits() {
            prefix += contribution(order[end] as usize);
            end += 1;
        }
        let kept = end;
        let criterion = match criterion {
            CvCriterion::Unpenalized => prefix,
            CvCriterion::Penalized => prefix + kept as f64 * lambda * lambda,
        };
        // Strict improvement required: ties resolve towards the larger λ
        // (sparser estimate), which is the first one encountered since we
        // scan magnitudes in decreasing order... larger λ comes first, so
        // require strict improvement to keep it.
        if criterion < best_criterion - CRITERION_TOLERANCE {
            best_criterion = criterion;
            best_lambda = lambda;
            best_kept = kept;
        }
        m = end;
    }

    LevelCrossValidation {
        level: level.level,
        lambda: best_lambda,
        criterion: best_criterion,
        kept: best_kept,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coefficients::{EmpiricalCoefficients, Generator};
    use rand::Rng;
    use std::sync::Arc;
    use wavedens_processes::seeded_rng;
    use wavedens_wavelets::{WaveletBasis, WaveletFamily};

    fn synthetic_level(values: Vec<f64>, sum_squares: Vec<f64>, level: i32) -> LevelCoefficients {
        LevelCoefficients {
            level,
            generator: Generator::Wavelet,
            k_start: 0,
            values,
            sum_squares: Arc::new(sum_squares),
        }
    }

    /// Brute-force evaluation of the CV criterion for a given λ.
    fn criterion_at(
        level: &LevelCoefficients,
        n: usize,
        criterion: CvCriterion,
        lambda: f64,
    ) -> f64 {
        let n_f = n as f64;
        level
            .values
            .iter()
            .zip(level.sum_squares.iter())
            .filter(|(b, _)| b.abs() >= lambda)
            .map(|(&b, &s2)| {
                let c = b * b - 2.0 / (n_f * (n_f - 1.0)) * ((n_f * b).powi(2) - s2);
                match criterion {
                    CvCriterion::Unpenalized => c,
                    CvCriterion::Penalized => c + lambda * lambda,
                }
            })
            .sum()
    }

    #[test]
    fn selected_lambda_minimises_the_criterion_over_the_candidate_set() {
        let mut rng = seeded_rng(3);
        let n = 200;
        // Random synthetic coefficients with plausible sums of squares.
        let values: Vec<f64> = (0..40).map(|_| rng.gen_range(-0.2..0.2)).collect();
        let sum_squares: Vec<f64> = values
            .iter()
            .map(|v| (n as f64) * (v * v) + rng.gen_range(0.0..5.0))
            .collect();
        let level = synthetic_level(values.clone(), sum_squares, 4);
        for criterion in [CvCriterion::Unpenalized, CvCriterion::Penalized] {
            let selected = cross_validate_level(&level, n, criterion);
            // The candidate set is the observed magnitudes plus "above the
            // maximum" (empty active set, criterion 0).
            let best_candidate = values
                .iter()
                .map(|v| criterion_at(&level, n, criterion, v.abs()))
                .fold(0.0_f64, f64::min);
            assert!(
                selected.criterion <= best_candidate + 1e-12,
                "{criterion:?}: selected {} vs candidate best {best_candidate}",
                selected.criterion
            );
            // And the reported criterion matches a direct evaluation at λ̂.
            let direct = criterion_at(&level, n, criterion, selected.lambda);
            assert!((selected.criterion - direct).abs() < 1e-9);
            // For the unpenalised criterion (piecewise constant in λ) the
            // candidate scan is a true global minimum over all λ ≥ 0.
            if criterion == CvCriterion::Unpenalized {
                let best_grid = (0..=400)
                    .map(|i| criterion_at(&level, n, criterion, 0.25 * i as f64 / 400.0))
                    .fold(f64::INFINITY, f64::min)
                    .min(0.0);
                assert!(selected.criterion <= best_grid + 1e-12);
            }
        }
    }

    #[test]
    fn threshold_order_is_total_and_pinned_under_nan() {
        // `compare_rank` must be a total order even when coefficients are
        // NaN (a single poisoned update must not panic the sort or make
        // it nondeterministic). Under IEEE 754 totalOrder, |NaN| ranks
        // above +∞, so the pinned decreasing-magnitude permutation is:
        // NaN(1), ∞(5), -1.0(2), then the 0.5 tie broken by index (0, 3),
        // then 0.0(4).
        let values = vec![0.5, f64::NAN, -1.0, 0.5, 0.0, f64::INFINITY];
        let sum_squares = vec![1.0; 6];
        let level = synthetic_level(values, sum_squares, 4);
        assert_eq!(sorted_order(&level, Vec::new()), vec![1, 5, 2, 0, 3, 4]);

        // The candidate scan survives the NaN and stays deterministic.
        let first = cross_validate_level(&level, 100, CvCriterion::Unpenalized);
        let second = cross_validate_level(&level, 100, CvCriterion::Unpenalized);
        assert_eq!(first.kept, second.kept);
        assert_eq!(first.lambda.to_bits(), second.lambda.to_bits());

        // Dropping the NaN must not reshuffle the finite coefficients'
        // relative order.
        let finite = synthetic_level(vec![0.5, -1.0, 0.5, 0.0, f64::INFINITY], vec![1.0; 5], 4);
        assert_eq!(sorted_order(&finite, Vec::new()), vec![4, 1, 0, 2, 3]);
    }

    #[test]
    fn positive_contributions_lead_to_empty_selection() {
        // c_k = β̂² − 2((nβ̂)² − S2)/(n(n−1)). A large Σψ² (S2) makes c_k
        // positive, so the optimal active set is empty: criterion 0,
        // everything thresholded.
        let values = vec![0.01, -0.02, 0.005, 0.015];
        let n = 100;
        let level = synthetic_level(values, vec![1000.0; 4], 5);
        let sel = cross_validate_level(&level, n, CvCriterion::Unpenalized);
        assert_eq!(sel.kept, 0);
        assert_eq!(sel.criterion, 0.0);
        assert!(sel.lambda > 0.02, "λ̂ must exceed the largest |β̂|");
        assert!((sel.thresholded_fraction() - 1.0).abs() < 1e-15);
        // The opposite extreme: S2 = 0 makes every contribution ≈ −β̂² < 0,
        // so keeping everything is optimal.
        let level = synthetic_level(vec![0.01, -0.02, 0.005, 0.015], vec![0.0; 4], 5);
        let sel = cross_validate_level(&level, 100, CvCriterion::Unpenalized);
        assert_eq!(sel.kept, 4, "negative contributions keep everything");
        assert!(sel.criterion < 0.0);
    }

    #[test]
    fn large_true_coefficients_survive_cross_validation() {
        // A coefficient with a genuinely large mean survives: its
        // contribution β² − 2(…)/… is dominated by −β² (since the cross term
        // ≈ 2β²), i.e. negative, so keeping it lowers the criterion.
        let n = 500;
        let beta = 0.5;
        let sum_sq = n as f64 * beta * beta; // consistent with ψ(X_i) ≈ β
        let level = synthetic_level(vec![beta, 0.001], vec![sum_sq, 0.3], 3);
        for criterion in [CvCriterion::Unpenalized, CvCriterion::Penalized] {
            let sel = cross_validate_level(&level, n, criterion);
            assert!(
                sel.kept >= 1,
                "{criterion:?}: the strong coefficient must be kept"
            );
            assert!(sel.lambda <= beta);
        }
    }

    #[test]
    fn penalized_criterion_is_never_below_unpenalized_criterion() {
        let mut rng = seeded_rng(11);
        let values: Vec<f64> = (0..30).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let sum_squares: Vec<f64> = (0..30).map(|_| rng.gen_range(0.0..20.0)).collect();
        let level = synthetic_level(values, sum_squares, 6);
        let unpenalized = cross_validate_level(&level, 300, CvCriterion::Unpenalized);
        let penalized = cross_validate_level(&level, 300, CvCriterion::Penalized);
        // The penalised criterion dominates pointwise in λ, so its optimum
        // dominates too. (No such pointwise claim holds for `kept`: the
        // penalty #kept·λ² is not monotone along the magnitude scan, so the
        // penalised optimum may sit on either side of the unpenalised one.)
        assert!(penalized.criterion >= unpenalized.criterion - 1e-12);
    }

    #[test]
    fn penalty_kills_marginal_coefficients() {
        // A constructed level where the penalty is decisive. One strong
        // coefficient (β = 0.5, Σψ² consistent with a real signal) and two
        // marginal ones whose unpenalised contributions are slightly
        // negative: the unpenalised criterion keeps all three, while the
        // λ²-penalty makes the sparser cut strictly better.
        let n = 300;
        let level = synthetic_level(vec![0.5, 0.05, 0.049], vec![75.0, 90.5, 63.56], 4);
        let unpenalized = cross_validate_level(&level, n, CvCriterion::Unpenalized);
        let penalized = cross_validate_level(&level, n, CvCriterion::Penalized);
        assert_eq!(unpenalized.kept, 3, "marginal gains keep everything");
        assert_eq!(penalized.kept, 2, "the λ² penalty prunes the weakest");
        assert!(penalized.lambda > unpenalized.lambda);
        assert!(penalized.criterion >= unpenalized.criterion);
    }

    #[test]
    fn full_cross_validation_on_real_data_produces_sane_j1() {
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let mut rng = seeded_rng(7);
        let n = 512;
        let data: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let j_star = (n as f64).log2() as i32;
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&basis), &data, (0.0, 1.0), 1, j_star)
                .unwrap();
        for rule in [ThresholdRule::Hard, ThresholdRule::Soft] {
            let cv = cross_validate(&coeffs, rule);
            assert_eq!(cv.levels.len(), (j_star - 1 + 1) as usize);
            assert!(cv.j1 >= 1 && cv.j1 <= j_star + 1, "ĵ1 = {}", cv.j1);
            // Threshold profile exposes one λ per level.
            assert_eq!(cv.thresholds().levels.len(), cv.levels.len());
            assert!(cv.level(2).is_some());
            assert!(cv.level(99).is_none());
            // At the very finest level the (penalised) criterion kills
            // essentially everything on pure-noise data.
            let finest = cv.levels.last().unwrap();
            assert!(
                finest.thresholded_fraction() > 0.95,
                "{rule:?}: finest level keeps {}/{}",
                finest.kept,
                finest.total
            );
        }
    }

    #[test]
    fn cached_cross_validation_is_bitwise_identical_to_full() {
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let mut rng = seeded_rng(29);
        let mut data: Vec<f64> = (0..400).map(|_| rng.gen::<f64>()).collect();
        let mut cache = CvCache::new();
        // A sequence of growing samples emulating small-batch refreshes:
        // every round re-runs the cached path against the full path.
        for round in 0..4_u64 {
            let coeffs =
                EmpiricalCoefficients::compute(Arc::clone(&basis), &data, (0.0, 1.0), 1, 7)
                    .unwrap();
            let versions = vec![round + 1; coeffs.details().len()];
            for rule in [ThresholdRule::Hard, ThresholdRule::Soft] {
                let full = cross_validate(&coeffs, rule);
                let cached = cross_validate_cached(&coeffs, rule, 1, &versions, &mut cache);
                assert_eq!(cached, full, "round {round}, {rule:?}");
                // Same stamps + same sample size: the cache answers from
                // its stored per-level results, still identically.
                let hit = cross_validate_cached(&coeffs, rule, 1, &versions, &mut cache);
                assert_eq!(hit, full, "cache hit diverged in round {round}");
            }
            assert_eq!(cache.cached_levels(), coeffs.details().len());
            data.extend((0..16).map(|_| rng.gen::<f64>()));
        }
        // Version 0 means "unversioned": always recomputed, never reused.
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&basis), &data, (0.0, 1.0), 1, 7).unwrap();
        let unversioned = vec![0_u64; coeffs.details().len()];
        let full = cross_validate(&coeffs, ThresholdRule::Soft);
        let cached =
            cross_validate_cached(&coeffs, ThresholdRule::Soft, 1, &unversioned, &mut cache);
        assert_eq!(cached, full);
        cache.clear();
        assert_eq!(cache.cached_levels(), 0);
    }

    #[test]
    fn run_levels_keeps_job_order_on_both_sides_of_the_gate() {
        // Below the gate: in order, on the caller's scratch.
        let mut seen = Vec::new();
        let out = run_levels(
            0..5_usize,
            5,
            |&j| j,
            &mut seen,
            |j, s: &mut Vec<usize>| {
                s.push(j);
                j * 10
            },
        );
        assert_eq!(out, [0, 10, 20, 30, 40]);
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        // At the gate: results still in job order, the pool's claimers on
        // scratch of their own, the caller's left untouched.
        let sizes = [1, POOL_MIN_SLOTS - 11, 7, 3];
        let mut untouched = Vec::new();
        let out = run_levels(
            sizes.into_iter(),
            sizes.iter().sum(),
            |&s| s,
            &mut untouched,
            |s, scratch: &mut Vec<usize>| {
                scratch.push(s);
                s + 1
            },
        );
        assert_eq!(out, [2, POOL_MIN_SLOTS - 10, 8, 4]);
        assert!(untouched.is_empty());
    }

    /// A synthetic level set above the pool gate, salted with exact
    /// magnitude ties and zeros: the pooled full and cached sweeps equal
    /// the serial per-level loop bit for bit, and so does a warm cached
    /// sweep after a sparse perturbation (each pooled task repairing on
    /// its own scratch).
    #[test]
    fn pooled_sweeps_are_bitwise_the_serial_loop() {
        let mut rng = seeded_rng(37);
        let n = 5000;
        let sizes = [1_usize << 13, 1 << 12, 1 << 12, 1 << 11, 300, 17];
        assert!(sizes.iter().sum::<usize>() >= POOL_MIN_SLOTS);
        let mut levels: Vec<LevelCoefficients> = sizes
            .iter()
            .enumerate()
            .map(|(j, &len)| {
                let values = (0..len)
                    .map(|k| match k % 7 {
                        0 => 0.0,
                        1 => 0.0125,
                        _ => rng.gen_range(-0.05..0.05),
                    })
                    .collect();
                let sum_squares = (0..len).map(|_| rng.gen_range(0.0..4.0)).collect();
                synthetic_level(values, sum_squares, j as i32 + 1)
            })
            .collect();
        let basis = WaveletBasis::shared(WaveletFamily::Haar).unwrap();
        let coefficients = |levels: &[LevelCoefficients]| {
            let scaling = synthetic_level(vec![1.0], vec![1.0], 1);
            EmpiricalCoefficients::from_parts(
                Arc::clone(&basis),
                n,
                (0.0, 1.0),
                scaling,
                levels.to_vec(),
            )
        };
        let serial = |coefficients: &EmpiricalCoefficients, rule, criterion| {
            let levels = coefficients
                .details()
                .iter()
                .map(|level| cross_validate_level(level, n, criterion))
                .collect();
            assemble_result(1, rule, levels)
        };
        let bits = |r: &CrossValidationResult| {
            let levels: Vec<_> = r
                .levels
                .iter()
                .map(|l| (l.level, l.lambda.to_bits(), l.criterion.to_bits(), l.kept))
                .collect();
            (r.j1, levels)
        };
        // One cache per rule: a rule change would drop the cached levels.
        let mut caches = [CvCache::new(), CvCache::new()];
        for round in 1..=2_u64 {
            let coefficients = coefficients(&levels);
            for criterion in [CvCriterion::Unpenalized, CvCriterion::Penalized] {
                let rule = ThresholdRule::Soft;
                let pooled = cross_validate_with(&coefficients, rule, criterion);
                assert_eq!(bits(&pooled), bits(&serial(&coefficients, rule, criterion)));
            }
            for (rule, cache) in [ThresholdRule::Hard, ThresholdRule::Soft]
                .into_iter()
                .zip(&mut caches)
            {
                let versions = vec![round; sizes.len()];
                let cached = cross_validate_cached(&coefficients, rule, 9, &versions, cache);
                let criterion = CvCriterion::recommended_for(rule);
                assert_eq!(bits(&cached), bits(&serial(&coefficients, rule, criterion)));
            }
            // A sparse perturbation for the warm round.
            for level in &mut levels {
                for k in (0..level.len()).step_by(97) {
                    level.values[k] = -level.values[k] * 1.5;
                }
            }
        }
    }

    #[test]
    fn cached_cross_validation_survives_rule_and_shape_changes() {
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let mut rng = seeded_rng(31);
        let data: Vec<f64> = (0..300).map(|_| rng.gen::<f64>()).collect();
        let mut cache = CvCache::new();
        // Fill the cache with one shape/rule…
        let wide =
            EmpiricalCoefficients::compute(Arc::clone(&basis), &data, (0.0, 1.0), 1, 8).unwrap();
        let versions = vec![1_u64; wide.details().len()];
        cross_validate_cached(&wide, ThresholdRule::Soft, 1, &versions, &mut cache);
        // …then hit it with another rule and a truncated level range: the
        // cache must invalidate itself and still match the full path.
        let narrow =
            EmpiricalCoefficients::compute(Arc::clone(&basis), &data, (0.0, 1.0), 1, 5).unwrap();
        let versions = vec![1_u64; narrow.details().len()];
        let full = cross_validate(&narrow, ThresholdRule::Hard);
        let cached = cross_validate_cached(&narrow, ThresholdRule::Hard, 1, &versions, &mut cache);
        assert_eq!(cached, full);
    }

    #[test]
    fn thresholds_increase_with_resolution_on_smooth_data() {
        // Figure 3 of the paper: cross-validated thresholds grow with the
        // resolution level. On smooth (uniform) data all detail coefficients
        // are noise of comparable standard deviation, so the selected λ̂_j —
        // roughly the maximum |β̂_{j,k}| over the 2^j coefficients of the
        // level — increases with j.
        let basis = Arc::new(WaveletBasis::new(WaveletFamily::Symmlet(8)).unwrap());
        let mut rng = seeded_rng(19);
        let n = 1024;
        let data: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let coeffs =
            EmpiricalCoefficients::compute(Arc::clone(&basis), &data, (0.0, 1.0), 1, 9).unwrap();
        let cv = cross_validate(&coeffs, ThresholdRule::Soft);
        let lambdas: Vec<f64> = cv.levels.iter().map(|l| l.lambda).collect();
        let low_mean = lambdas[..3].iter().sum::<f64>() / 3.0;
        let high_mean = lambdas[lambdas.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(
            high_mean > low_mean,
            "thresholds should grow with resolution: low {low_mean}, high {high_mean}"
        );
    }
}
