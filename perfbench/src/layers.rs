//! Per-layer metrics of the traced run: medians of the spans recorded
//! around each layer's public calls, block-timed query layers, and
//! probes for the ingest layers a workload's own loop does not run.

use crate::report::Samples;
use crate::trace::Tracer;
use crate::workloads::time_block;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use wavedens_core::CoefficientSketch;
use wavedens_engine::{ShardedIngest, SynopsisCatalog, WindowPolicy, WindowedIngest};

/// Every per-layer metric, with its unit. Each traced run reports all
/// of them.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("wavelets.basis_build_ms", "ms"),
    ("wavelets.basis_builds", "count"),
    ("sketch.push_rows_per_s", "rows/s"),
    ("sharded.ingest_ms", "ms"),
    ("sharded.parallel_efficiency", "1"),
    ("sharded.merge_ms", "ms"),
    ("cv.estimate_ms", "ms"),
    ("cv.cached_levels", "count"),
    ("cv.surviving_coefficients", "count"),
    ("cv.highest_level", "count"),
    ("dense.cdf_build_ms", "ms"),
    ("dense.lookup_ns", "ns"),
    ("synopsis.snapshot_read_ns", "ns"),
    ("synopsis.rebuilds", "count"),
    ("catalog.lookup_ns", "ns"),
    ("windowed.advance_us", "us"),
    ("windowed.fold_ms", "ms"),
    ("sketch.compact_ms", "ms"),
    ("sketch.encode_ms", "ms"),
    ("sketch.decode_ms", "ms"),
    ("sketch.frame_bytes", "bytes"),
    ("tensor.push_pairs_per_s", "pairs/s"),
    ("tensor.decode_ms", "ms"),
    ("joint.build_ms", "ms"),
    ("joint.lookup_ns", "ns"),
    ("freshness_ms_p50", "ms"),
    ("query_ns_p50", "ns"),
    ("query_ns_tail", "ns"),
    ("trace.coverage", "1"),
    ("trace.overhead", "1"),
];

/// Span-derived metrics: `(metric, span name, scale from seconds)`.
const FROM_SPANS: [(&str, &str, f64); 11] = [
    ("sharded.ingest_ms", "sharded.ingest", 1e3),
    ("sharded.merge_ms", "sharded.merge", 1e3),
    ("windowed.fold_ms", "windowed.fold", 1e3),
    ("windowed.advance_us", "windowed.advance", 1e6),
    ("cv.estimate_ms", "cv.estimate", 1e3),
    ("dense.cdf_build_ms", "dense.cdf_build", 1e3),
    ("sketch.compact_ms", "sketch.compact", 1e3),
    ("sketch.encode_ms", "sketch.encode", 1e3),
    ("sketch.decode_ms", "sketch.decode", 1e3),
    ("tensor.decode_ms", "tensor.decode", 1e3),
    ("joint.build_ms", "joint.build", 1e3),
];

/// Repetitions of each probe measurement (the median is reported).
const PROBE_REPS: usize = 5;
/// Latency blocks per query-layer measurement.
pub const LAYER_BLOCKS: usize = 64;

/// Per-layer values and where each came from (`workload` or `probe`).
#[derive(Debug, Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl LayerMetrics {
    /// Sets a value measured on the workload's own path.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, "workload"));
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn probe(&mut self, name: &'static str, value: f64) {
        if !self.has(name) {
            self.values.insert(name, (value, "probe"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(value, _)| value)
    }

    /// `(name, value, source)` for every metric recorded.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values
            .iter()
            .map(|(&name, &(value, source))| (name, value, source))
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().collect::<Samples>().median()
}

/// Median over [`PROBE_REPS`] runs of `prepare` (untimed) then `timed`,
/// in seconds.
pub fn probe_seconds<T>(mut prepare: impl FnMut() -> T, mut timed: impl FnMut(&mut T)) -> f64 {
    median((0..PROBE_REPS).map(|_| {
        let mut state = prepare();
        let t0 = Instant::now();
        timed(&mut state);
        let seconds = t0.elapsed().as_secs_f64();
        black_box(&state);
        seconds
    }))
}

/// Fills every span-derived metric the workload's spans cover.
pub fn fill_from_spans(layers: &mut LayerMetrics, tracer: &Tracer) {
    for (metric, span, scale) in FROM_SPANS {
        let durations = tracer.durations(span);
        if !durations.is_empty() && !layers.has(metric) {
            layers.set(metric, median(durations) * scale);
        }
    }
}

/// Single-thread `push_batch` of `rows` into a sketch sized for
/// `expected` rows, in rows per second.
pub fn push_rows_per_s(rows: &[f64], expected: usize) -> f64 {
    let template = CoefficientSketch::sized_for(expected).expect("push template");
    let seconds = probe_seconds(|| template.clone(), |sketch| sketch.push_batch(rows));
    rows.len() as f64 / seconds
}

/// Median nanoseconds per call over `blocks` timed blocks.
pub fn block_median_ns(
    blocks: usize,
    ranges: &[(f64, f64)],
    mut answer: impl FnMut(usize, f64, f64) -> Option<f64>,
) -> f64 {
    median((0..blocks).map(|block| time_block(ranges, block, &mut answer).0))
}

/// Splits one quiet range query into its layers by block-timing three
/// nested entry points in turn: the catalog call, the synopsis call it
/// resolves to, and the CDF lookup the snapshot answers with.
pub fn query_layers(
    layers: &mut LayerMetrics,
    catalog: &SynopsisCatalog,
    name: &str,
    ranges: &[(f64, f64)],
) {
    let Some(attribute) = catalog.attribute(name) else {
        return;
    };
    let Some(snapshot) = attribute.cached() else {
        return;
    };
    let (mut via_catalog, mut via_synopsis, mut lookup) =
        (Samples::new(), Samples::new(), Samples::new());
    for block in 0..LAYER_BLOCKS {
        via_catalog.push(
            time_block(ranges, block, |_, lo, hi| {
                catalog.selectivity_cached(name, lo, hi).ok().flatten()
            })
            .0,
        );
        via_synopsis.push(
            time_block(ranges, block, |_, lo, hi| {
                attribute.selectivity_cached(lo, hi)
            })
            .0,
        );
        lookup.push(
            time_block(ranges, block, |_, lo, hi| {
                Some(snapshot.selectivity(lo, hi))
            })
            .0,
        );
    }
    let (c, s, d) = (via_catalog.median(), via_synopsis.median(), lookup.median());
    layers.set("dense.lookup_ns", d);
    layers.set("synopsis.snapshot_read_ns", s - d);
    layers.set("catalog.lookup_ns", c - s);
}

/// Measures, on the workload's own rows, the sharded and windowed
/// layers its loop did not run, so each traced run reports every
/// per-layer metric. (The codec, tensor and joint layers are timed by
/// the replica round trip every run makes, see [`crate::replica`].)
pub fn fill_missing(layers: &mut LayerMetrics, rows: &[f64], expected: usize) {
    let template = CoefficientSketch::sized_for(expected).expect("probe template");
    let shards = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    if [
        "sharded.ingest_ms",
        "sharded.merge_ms",
        "sharded.parallel_efficiency",
    ]
    .iter()
    .any(|name| !layers.has(name))
    {
        let ingest = probe_seconds(
            || ShardedIngest::new(&template, shards).expect("probe shards"),
            |sharded| sharded.ingest_parallel(rows),
        );
        let filled = ShardedIngest::new(&template, shards).expect("probe shards");
        filled.ingest_parallel(rows);
        let merge = probe_seconds(
            || template.clone(),
            |scratch| filled.merge_into(scratch).expect("probe merge"),
        );
        layers.probe("sharded.ingest_ms", ingest * 1e3);
        layers.probe("sharded.merge_ms", merge * 1e3);
        if let Some(push) = layers.get("sketch.push_rows_per_s") {
            layers.probe(
                "sharded.parallel_efficiency",
                (rows.len() as f64 / ingest) / (shards as f64 * push),
            );
        }
    }

    if !layers.has("windowed.advance_us") || !layers.has("windowed.fold_ms") {
        const SLICES: usize = 8;
        let policy = WindowPolicy::SlidingSlices(SLICES);
        let rings = WindowedIngest::new(&template, 1, policy).expect("probe window");
        let chunk = (rows.len() / (2 * SLICES)).max(1);
        let mut advance = Samples::new();
        for slice in rows.chunks(chunk) {
            rings.ingest(slice);
            let t0 = Instant::now();
            rings.advance_all();
            advance.push(t0.elapsed().as_secs_f64());
        }
        let fold = probe_seconds(
            || template.clone(),
            |scratch| rings.merge_into(scratch).expect("probe fold"),
        );
        layers.probe("windowed.advance_us", advance.median() * 1e6);
        layers.probe("windowed.fold_ms", fold * 1e3);
    }
}
