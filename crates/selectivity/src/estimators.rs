//! Selectivity estimators: the wavelet synopsis and its baselines.

use crate::workload::RangeQuery;
use std::sync::Arc;
use wavedens_core::{
    CumulativeEstimate, EstimatorError, Grid, KernelDensityEstimate, KernelDensityEstimator,
    ThresholdRule, WaveletDensityEstimate, WaveletDensityEstimator, DEFAULT_CDF_POINTS,
};
use wavedens_engine::{AttributeSynopsis, RefreshedSynopsis, SynopsisConfig};

/// Number of integration points per unit length used when turning a density
/// estimate into a range probability by quadrature.
const INTEGRATION_RESOLUTION: usize = 2048;

/// Anything that can answer range-selectivity queries on `[0, 1]`.
pub trait SelectivityEstimator {
    /// Short name used in evaluation reports.
    fn name(&self) -> String;

    /// Estimated selectivity `P(lo ≤ X ≤ hi)`, clamped to `[0, 1]`.
    fn estimate(&self, query: &RangeQuery) -> f64;
}

/// Integrates a density estimate over a query range by trapezoidal
/// quadrature, `INTEGRATION_RESOLUTION` points per unit length.
///
/// This is the slow reference path: every call re-evaluates the density
/// pointwise across the range. The wavelet synopses **and** the kernel
/// baseline answer queries from a precomputed [`CumulativeEstimate`]
/// instead and only use quadrature in tests and benchmarks (see the
/// `query_throughput` bench target).
pub fn integrate_density(query: &RangeQuery, density: impl Fn(f64) -> f64) -> f64 {
    let width = query.width();
    if width == 0.0 {
        return 0.0;
    }
    let points = ((INTEGRATION_RESOLUTION as f64 * width).ceil() as usize).max(8);
    let grid = Grid::new(query.lo(), query.hi(), points);
    grid.integrate(&grid.evaluate(density)).clamp(0.0, 1.0)
}

/// Ground truth: exact selectivity on the stored sample.
#[derive(Debug, Clone)]
pub struct EmpiricalSelectivity {
    sorted: Vec<f64>,
}

impl EmpiricalSelectivity {
    /// Stores (a sorted copy of) the sample. Non-finite values (NaN, ±∞)
    /// are rejected with [`EstimatorError::NonFiniteSample`]: they have no
    /// meaningful rank, so silently sorting them in (or panicking, as the
    /// previous `partial_cmp(..).expect(..)` did) would corrupt every
    /// subsequent count.
    pub fn new(data: &[f64]) -> Result<Self, EstimatorError> {
        if let Some((index, &value)) = data.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(EstimatorError::NonFiniteSample { index, value });
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Self { sorted })
    }
}

impl SelectivityEstimator for EmpiricalSelectivity {
    fn name(&self) -> String {
        "empirical".to_string()
    }

    fn estimate(&self, query: &RangeQuery) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let lo = self.sorted.partition_point(|&x| x < query.lo());
        let hi = self.sorted.partition_point(|&x| x <= query.hi());
        (hi - lo) as f64 / self.sorted.len() as f64
    }
}

/// The adaptive-wavelet selectivity synopsis.
///
/// A **one-attribute view** over the `wavedens-engine` machinery: the
/// synopsis owns an [`AttributeSynopsis`] (a sharded
/// [`wavedens_core::CoefficientSketch`] plus an atomically swapped cache
/// of the refreshed estimate), configured with a single shard so that
/// streaming inserts reproduce the single-stream fit bit for bit. The
/// multi-attribute face of the same machinery is
/// [`wavedens_engine::SynopsisCatalog`].
///
/// # Refresh / cache semantics
///
/// Queries are answered from a cached [`CumulativeEstimate`] in O(1) —
/// an index computation and a linear interpolation, no per-query
/// integration sweep. Ingesting rows marks the cache stale; the **first**
/// query (or an explicit [`refresh`](Self::refresh)) after that runs
/// exactly one cross-validation rebuild and one dense CDF construction,
/// and every further query reuses the result until the next insert. A
/// burst of queries against a stale cache therefore triggers **one**
/// rebuild, never one per query ([`rebuild_count`](Self::rebuild_count)
/// exposes the counter). Every query answers through
/// [`AttributeSynopsis::refresh`], so a query that finds the cache stale
/// waits for that rebuild; a reader that must never wait reads
/// [`AttributeSynopsis::selectivity_cached`] on
/// [`attribute_synopsis`](Self::attribute_synopsis) instead.
#[derive(Debug, Clone)]
pub struct WaveletSelectivity {
    synopsis: AttributeSynopsis,
    /// The snapshot pinned by the last explicit `refresh()` /
    /// `cumulative()` call, so those methods can hand out plain
    /// references.
    pinned: Option<Arc<RefreshedSynopsis>>,
}

impl WaveletSelectivity {
    /// Builds an empty synopsis sized for roughly `expected_rows` rows.
    pub fn with_expected_rows(expected_rows: usize) -> Result<Self, EstimatorError> {
        let config = SynopsisConfig::default()
            .with_rule(ThresholdRule::Soft)
            .with_expected_rows(expected_rows.max(16))
            .with_shards(1);
        Ok(Self {
            synopsis: AttributeSynopsis::new(&config)?,
            pinned: None,
        })
    }

    /// Builds the synopsis from a batch of values in `[0, 1]`.
    pub fn fit(data: &[f64]) -> Result<Self, EstimatorError> {
        let mut synopsis = Self::with_expected_rows(data.len().max(16))?;
        synopsis.observe_many(data.iter().copied());
        Ok(synopsis)
    }

    /// Ingests one attribute value, marking the cached estimate stale.
    pub fn observe(&mut self, value: f64) {
        self.synopsis.ingest(std::slice::from_ref(&value));
    }

    /// Ingests many attribute values in batched passes
    /// ([`AttributeSynopsis::ingest_stream`]), marking the cached
    /// estimate stale.
    pub fn observe_many<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        self.synopsis.ingest_stream(values);
    }

    /// Number of rows ingested.
    pub fn rows(&self) -> usize {
        self.synopsis.rows()
    }

    /// Number of cross-validation rebuilds performed so far: increments
    /// once per stale-cache refresh, regardless of how many queries hit
    /// the stale cache.
    pub fn rebuild_count(&self) -> usize {
        self.synopsis.rebuild_count()
    }

    /// The underlying engine synopsis (for example to share it with a
    /// catalog-driven component or inspect the merged sketch).
    pub fn attribute_synopsis(&self) -> &AttributeSynopsis {
        &self.synopsis
    }

    /// Refreshes (and returns) the thresholded density estimate backing the
    /// synopsis. A no-op when the cache is already fresh; called by the
    /// first [`estimate`](SelectivityEstimator::estimate) after an insert
    /// otherwise.
    pub fn refresh(&mut self) -> Result<&WaveletDensityEstimate, EstimatorError> {
        match self.synopsis.refresh()? {
            Some(refreshed) => {
                self.pinned = Some(refreshed);
                Ok(self.pinned.as_ref().expect("just pinned").density())
            }
            None => Err(EstimatorError::EmptySample),
        }
    }

    /// The cumulative (CDF) table answering the queries, refreshing it
    /// first if stale.
    pub fn cumulative(&mut self) -> Result<&CumulativeEstimate, EstimatorError> {
        self.refresh()?;
        Ok(self.pinned.as_ref().expect("refreshed above").cumulative())
    }
}

impl SelectivityEstimator for WaveletSelectivity {
    fn name(&self) -> String {
        "wavelet".to_string()
    }

    /// Answers from the refreshed snapshot: 0 before the first row, and 0
    /// if the rebuild fails — an internal inconsistency, which trips a
    /// debug assertion — since this trait method cannot return an error.
    fn estimate(&self, query: &RangeQuery) -> f64 {
        match self.synopsis.refresh() {
            Ok(snapshot) => snapshot.map_or(0.0, |s| s.selectivity(query.lo(), query.hi())),
            Err(err) => {
                debug_assert!(false, "synopsis refresh failed unexpectedly: {err}");
                0.0
            }
        }
    }
}

/// The classic equi-width histogram baseline.
#[derive(Debug, Clone)]
pub struct HistogramSelectivity {
    counts: Vec<f64>,
    total: f64,
}

impl HistogramSelectivity {
    /// Builds a histogram with `buckets ≥ 1` equal-width buckets over
    /// `[0, 1]`.
    pub fn fit(data: &[f64], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let mut counts = vec![0.0; buckets];
        for &x in data {
            let idx = ((x.clamp(0.0, 1.0)) * buckets as f64).floor() as usize;
            counts[idx.min(buckets - 1)] += 1.0;
        }
        Self {
            counts,
            total: data.len() as f64,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }
}

impl SelectivityEstimator for HistogramSelectivity {
    fn name(&self) -> String {
        format!("histogram({})", self.counts.len())
    }

    fn estimate(&self, query: &RangeQuery) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let buckets = self.counts.len() as f64;
        let mut mass = 0.0;
        for (i, &count) in self.counts.iter().enumerate() {
            let b_lo = i as f64 / buckets;
            let b_hi = (i + 1) as f64 / buckets;
            let overlap = (query.hi().min(b_hi) - query.lo().max(b_lo)).max(0.0);
            if overlap > 0.0 {
                // Uniform-spread assumption inside the bucket.
                mass += count * overlap / (b_hi - b_lo);
            }
        }
        (mass / self.total).clamp(0.0, 1.0)
    }
}

/// A kernel-density baseline.
///
/// Like the wavelet synopses, queries are answered from a
/// [`CumulativeEstimate`] precomputed at construction over the kernel
/// estimate's support (union `[0, 1]`), so each query costs O(1) instead
/// of a fresh trapezoid quadrature sweep over the range.
#[derive(Debug, Clone)]
pub struct KernelSelectivity {
    estimate: KernelDensityEstimate,
    cumulative: CumulativeEstimate,
    label: &'static str,
}

/// Grid resolution (points per unit length) of the kernel baseline's
/// precomputed CDF table: twice the quadrature resolution, so the O(step²)
/// interpolation error sits well below the reference path it replaces.
const KERNEL_CDF_RESOLUTION: usize = 2 * INTEGRATION_RESOLUTION;

impl KernelSelectivity {
    /// Epanechnikov kernel with the rule-of-thumb bandwidth.
    pub fn rule_of_thumb(data: &[f64]) -> Result<Self, EstimatorError> {
        Ok(Self::from_fit(
            KernelDensityEstimator::rule_of_thumb().fit(data)?,
            "kernel-rot",
        ))
    }

    /// Epanechnikov kernel with the least-squares CV bandwidth.
    pub fn cross_validated(data: &[f64]) -> Result<Self, EstimatorError> {
        Ok(Self::from_fit(
            KernelDensityEstimator::cross_validated().fit(data)?,
            "kernel-cv",
        ))
    }

    fn from_fit(estimate: KernelDensityEstimate, label: &'static str) -> Self {
        // Span the kernel's entire (truncated) support so the table's
        // total mass is the full integral even when data spill outside
        // [0, 1]; union with [0, 1] so every valid query lies on the grid.
        let (support_lo, support_hi) = estimate.support_interval();
        let lo = support_lo.min(0.0);
        let hi = support_hi.max(1.0);
        let points = ((hi - lo) * KERNEL_CDF_RESOLUTION as f64).ceil() as usize + 1;
        let grid = Grid::new(lo, hi, points.max(2));
        let cumulative = CumulativeEstimate::from_density(grid, &estimate.evaluate_on(&grid));
        Self {
            estimate,
            cumulative,
            label,
        }
    }

    /// The fitted kernel density estimate backing the synopsis.
    pub fn density(&self) -> &KernelDensityEstimate {
        &self.estimate
    }

    /// The precomputed cumulative (CDF) table answering the queries.
    pub fn cumulative(&self) -> &CumulativeEstimate {
        &self.cumulative
    }
}

impl SelectivityEstimator for KernelSelectivity {
    fn name(&self) -> String {
        self.label.to_string()
    }

    fn estimate(&self, query: &RangeQuery) -> f64 {
        // Normalized by the table's total mass: the truncated kernel
        // support makes the tabulated mass drift slightly from 1, and the
        // raw range mass would inherit that bias (and could exceed 1).
        self.cumulative.selectivity(query.lo(), query.hi())
    }
}

/// A batch-fitted wavelet selectivity estimator built from an existing
/// [`WaveletDensityEstimate`]; useful when the density estimate is already
/// available (e.g. shared with other components of a query optimiser).
/// The CDF table is precomputed at construction, so queries are O(1).
#[derive(Debug, Clone)]
pub struct FittedWaveletSelectivity {
    estimate: WaveletDensityEstimate,
    cumulative: CumulativeEstimate,
}

impl FittedWaveletSelectivity {
    /// Wraps an existing density estimate.
    pub fn new(estimate: WaveletDensityEstimate) -> Self {
        let cumulative = estimate.cumulative(DEFAULT_CDF_POINTS);
        Self {
            estimate,
            cumulative,
        }
    }

    /// Fits the STCV estimator to a batch of data.
    pub fn fit(data: &[f64]) -> Result<Self, EstimatorError> {
        Ok(Self::new(WaveletDensityEstimator::stcv().fit(data)?))
    }

    /// The wrapped density estimate.
    pub fn density(&self) -> &WaveletDensityEstimate {
        &self.estimate
    }
}

impl SelectivityEstimator for FittedWaveletSelectivity {
    fn name(&self) -> String {
        "wavelet-batch".to_string()
    }

    fn estimate(&self, query: &RangeQuery) -> f64 {
        // Normalized like every other CDF-backed path: an oscillating
        // wavelet estimate integrates to ≈ 1, not exactly 1.
        self.cumulative.selectivity(query.lo(), query.hi())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{evaluate_workload, WorkloadGenerator};
    use wavedens_core::CoefficientSketch;
    use wavedens_processes::{seeded_rng, DependenceCase, SineUniformMixture};

    fn dependent_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        DependenceCase::ExpandingMap.simulate(&SineUniformMixture::paper(), n, &mut rng)
    }

    /// Hardening sweep: reversed and NaN bounds must answer zero on every
    /// CDF-backed query path (wavelet and kernel), and the workload type
    /// refuses to construct such queries in the first place.
    #[test]
    fn kernel_and_wavelet_cdf_tables_reject_bad_bounds() {
        let data = dependent_sample(512, 40);
        let kernel = KernelSelectivity::rule_of_thumb(&data).unwrap();
        let mut wavelet = WaveletSelectivity::fit(&data).unwrap();
        for table in [kernel.cumulative(), wavelet.cumulative().unwrap()] {
            assert_eq!(table.range_mass(f64::NAN, 0.5), 0.0);
            assert_eq!(table.range_mass(0.2, f64::NAN), 0.0);
            assert_eq!(table.selectivity(f64::NAN, f64::NAN), 0.0);
            assert_eq!(table.range_mass(0.9, 0.1), 0.0);
            // Slightly below 1 on the kernel path: bandwidth tails put a
            // little of the table's mass outside [0, 1].
            assert!(table.selectivity(0.0, 1.0) > 0.9);
        }
        assert!(RangeQuery::new(f64::NAN, 0.5).is_err());
        assert!(RangeQuery::new(0.5, f64::NAN).is_err());
        assert!(RangeQuery::new(0.8, 0.2).is_err());
    }

    #[test]
    fn empirical_selectivity_counts_exactly() {
        let data = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let truth = EmpiricalSelectivity::new(&data).unwrap();
        let q = RangeQuery::new(0.15, 0.45).unwrap();
        assert!((truth.estimate(&q) - 0.6).abs() < 1e-12);
        let all = RangeQuery::new(0.0, 1.0).unwrap();
        assert_eq!(truth.estimate(&all), 1.0);
        let none = RangeQuery::new(0.6, 0.9).unwrap();
        assert_eq!(truth.estimate(&none), 0.0);
    }

    #[test]
    fn histogram_selectivity_interpolates_partial_buckets() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
        let hist = HistogramSelectivity::fit(&data, 20);
        assert_eq!(hist.buckets(), 20);
        // Uniform data: any range's selectivity is its width.
        for (lo, hi) in [(0.0, 0.5), (0.12, 0.37), (0.81, 0.99)] {
            let q = RangeQuery::new(lo, hi).unwrap();
            assert!(
                (hist.estimate(&q) - (hi - lo)).abs() < 0.01,
                "range [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn wavelet_synopsis_answers_range_queries_accurately() {
        let data = dependent_sample(2048, 1);
        let truth = EmpiricalSelectivity::new(&data).unwrap();
        let synopsis = WaveletSelectivity::fit(&data).unwrap();
        assert_eq!(synopsis.rows(), 2048);
        let mut rng = seeded_rng(9);
        let workload = WorkloadGenerator::analytical().draw_many(200, &mut rng);
        let summary = evaluate_workload(&synopsis, &truth, &workload);
        assert!(
            summary.mean_absolute_error < 0.03,
            "wavelet MAE {}",
            summary.mean_absolute_error
        );
        assert!(summary.max_absolute_error < 0.12);
    }

    #[test]
    fn wavelet_synopsis_beats_coarse_histogram_on_dependent_stream() {
        let data = dependent_sample(4096, 2);
        let truth = EmpiricalSelectivity::new(&data).unwrap();
        let wavelet = WaveletSelectivity::fit(&data).unwrap();
        let coarse_hist = HistogramSelectivity::fit(&data, 8);
        let mut rng = seeded_rng(11);
        let workload = WorkloadGenerator::new(0.02, 0.15)
            .unwrap()
            .draw_many(300, &mut rng);
        let w = evaluate_workload(&wavelet, &truth, &workload);
        let h = evaluate_workload(&coarse_hist, &truth, &workload);
        assert!(
            w.mean_absolute_error < h.mean_absolute_error,
            "wavelet {} vs 8-bucket histogram {}",
            w.mean_absolute_error,
            h.mean_absolute_error
        );
    }

    #[test]
    fn streaming_and_batch_synopses_agree() {
        let data = dependent_sample(1024, 3);
        let mut streaming = WaveletSelectivity::with_expected_rows(1024).unwrap();
        streaming.observe_many(data.iter().copied());
        streaming.refresh().unwrap();
        let q = RangeQuery::new(0.3, 0.6).unwrap();
        let batch = WaveletSelectivity::fit(&data).unwrap();
        assert!((streaming.estimate(&q) - batch.estimate(&q)).abs() < 1e-9);
    }

    /// The one-shard synopsis reproduces the single-stream fit bit for
    /// bit, also when `observe_many` ingests in several 1024-row batches.
    #[test]
    fn observe_many_is_bitwise_the_single_stream_sketch() {
        let data = dependent_sample(3000, 5);
        let mut synopsis = WaveletSelectivity::with_expected_rows(data.len()).unwrap();
        synopsis.observe_many(data.iter().copied());
        let mut single = CoefficientSketch::sized_for(data.len()).unwrap();
        single.push_batch(&data);
        let merged = synopsis.attribute_synopsis().merged_sketch().unwrap();
        assert_eq!(merged.to_bytes(), single.to_bytes());
    }

    #[test]
    fn stale_cache_query_burst_rebuilds_exactly_once() {
        let data = dependent_sample(1024, 7);
        let mut synopsis = WaveletSelectivity::fit(&data).unwrap();
        assert_eq!(synopsis.rebuild_count(), 0, "construction must stay lazy");
        let mut rng = seeded_rng(17);
        let workload = WorkloadGenerator::analytical().draw_many(100, &mut rng);
        for q in &workload {
            let s = synopsis.estimate(q);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(
            synopsis.rebuild_count(),
            1,
            "a burst of stale-cache queries must trigger exactly one rebuild"
        );
        // Fresh cache: more queries, still one rebuild.
        for q in &workload {
            synopsis.estimate(q);
        }
        assert_eq!(synopsis.rebuild_count(), 1);
        // An insert marks the cache stale; the next burst costs one more.
        synopsis.observe(0.5);
        for q in &workload {
            synopsis.estimate(q);
        }
        assert_eq!(synopsis.rebuild_count(), 2);
        // An explicit refresh also counts once and makes queries free.
        synopsis.observe(0.25);
        synopsis.refresh().unwrap();
        for q in &workload {
            synopsis.estimate(q);
        }
        assert_eq!(synopsis.rebuild_count(), 3);
    }

    #[test]
    fn cached_cdf_matches_direct_quadrature() {
        let data = dependent_sample(2048, 8);
        let mut synopsis = WaveletSelectivity::fit(&data).unwrap();
        let density = synopsis.refresh().unwrap().clone();
        // Selectivities are normalized by the table's total mass; divide
        // the quadrature reference by the same constant.
        let total_mass = synopsis.cumulative().unwrap().total_mass();
        let mut rng = seeded_rng(23);
        let workload = WorkloadGenerator::new(0.01, 0.4)
            .unwrap()
            .draw_many(100, &mut rng);
        for q in &workload {
            let fast = synopsis.estimate(q);
            let slow = integrate_density(q, |x| density.evaluate(x)) / total_mass;
            assert!(
                (fast - slow).abs() < 2e-3,
                "[{}, {}]: cdf {fast} vs quadrature {slow}",
                q.lo(),
                q.hi()
            );
        }
    }

    #[test]
    fn cloned_synopsis_preserves_cache_and_counter() {
        let data = dependent_sample(512, 9);
        let synopsis = WaveletSelectivity::fit(&data).unwrap();
        let q = RangeQuery::new(0.2, 0.7).unwrap();
        let answer = synopsis.estimate(&q);
        let clone = synopsis.clone();
        assert_eq!(clone.rebuild_count(), 1);
        assert_eq!(clone.estimate(&q), answer);
        assert_eq!(clone.rebuild_count(), 1, "clone reuses the cached CDF");
    }

    #[test]
    fn non_finite_samples_are_rejected_with_a_pinpointed_error() {
        // The old partial_cmp(..).expect(..) sort panicked on NaN; now the
        // constructor reports which observation is broken.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = EmpiricalSelectivity::new(&[0.1, 0.4, bad, 0.9]).unwrap_err();
            assert!(
                matches!(err, EstimatorError::NonFiniteSample { index: 2, .. }),
                "{bad}: {err:?}"
            );
        }
        assert!(EmpiricalSelectivity::new(&[]).unwrap().sorted.is_empty());
    }

    #[test]
    fn kernel_cdf_fast_path_matches_quadrature() {
        let data = dependent_sample(1024, 21);
        let synopsis = KernelSelectivity::rule_of_thumb(&data).unwrap();
        let mut rng = seeded_rng(31);
        let workload = WorkloadGenerator::new(0.01, 0.4)
            .unwrap()
            .draw_many(100, &mut rng);
        for q in &workload {
            let fast = synopsis.estimate(q);
            let slow = integrate_density(q, |x| synopsis.density().evaluate(x));
            assert!(
                (fast - slow).abs() < 2e-3,
                "[{}, {}]: cdf {fast} vs quadrature {slow}",
                q.lo(),
                q.hi()
            );
        }
        // The table spans the kernel support: full-domain mass ≈ 1 even
        // though some smoothed mass spills just outside [0, 1].
        assert!((synopsis.cumulative().total_mass() - 1.0).abs() < 0.01);
    }

    #[test]
    fn kernel_baselines_work() {
        let data = dependent_sample(1024, 4);
        let truth = EmpiricalSelectivity::new(&data).unwrap();
        let rot = KernelSelectivity::rule_of_thumb(&data).unwrap();
        let cv = KernelSelectivity::cross_validated(&data).unwrap();
        assert_eq!(rot.name(), "kernel-rot");
        assert_eq!(cv.name(), "kernel-cv");
        let mut rng = seeded_rng(13);
        let workload = WorkloadGenerator::analytical().draw_many(100, &mut rng);
        for estimator in [&rot as &dyn SelectivityEstimator, &cv] {
            let summary = evaluate_workload(estimator, &truth, &workload);
            assert!(
                summary.mean_absolute_error < 0.05,
                "{}: MAE {}",
                estimator.name(),
                summary.mean_absolute_error
            );
        }
    }

    #[test]
    fn batch_fitted_wrapper_matches_direct_fit() {
        let data = dependent_sample(512, 5);
        let direct = FittedWaveletSelectivity::fit(&data).unwrap();
        let q = RangeQuery::new(0.1, 0.9).unwrap();
        let est = direct.estimate(&q);
        assert!(est > 0.5 && est <= 1.0, "estimate {est}");
        assert_eq!(direct.name(), "wavelet-batch");
    }

    #[test]
    fn empty_synopsis_returns_zero() {
        let synopsis = WaveletSelectivity::with_expected_rows(128).unwrap();
        let q = RangeQuery::new(0.2, 0.8).unwrap();
        assert_eq!(synopsis.estimate(&q), 0.0);
        assert_eq!(synopsis.rows(), 0);
    }

    #[test]
    fn estimates_are_clamped_to_unit_interval() {
        let data = dependent_sample(256, 6);
        let synopsis = WaveletSelectivity::fit(&data).unwrap();
        let q = RangeQuery::new(0.0, 1.0).unwrap();
        let s = synopsis.estimate(&q);
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.9, "full-domain selectivity {s}");
    }
}
