//! The workloads. Each one generates its inputs from the seed, sets up
//! several times (the median is `setup_s`), runs closed-loop cycles until
//! its budget is spent, then ships its state through the replica oracle
//! ([`crate::replica`]). When the tracer is on, every public call on the
//! end-to-end path runs inside a span, and calls that do several layers'
//! work are replayed from their public pieces (see [`crate::trace`]).

use crate::inputs::{case2, case3, exact_1d, latency_ranges, mean_abs_err, oracle_ranges};
use crate::layers::{self, LayerMetrics};
use crate::replica;
use crate::report::{Checks, Samples, Total};
use crate::trace::{SpanId, Tracer};
use crate::Budget;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use wavedens_core::{CoefficientSketch, CvCache, DenseEvalCache};
use wavedens_engine::{
    ShardedIngest, SynopsisCatalog, SynopsisConfig, WindowPolicy, WindowedIngest,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 21;

/// Times one set-up (`setup` returns the catalog it built and the
/// seconds it spent registering) and records it.
fn set_up(
    out: &mut Outcome,
    setup: &impl Fn(&mut Checks) -> (SynopsisCatalog, f64),
) -> SynopsisCatalog {
    let start = Instant::now();
    let (catalog, register_s) = setup(&mut out.checks);
    out.setup.push(secs(start));
    out.register.push(register_s);
    catalog
}

/// When the set-ups after the first one run: spread evenly over a timed
/// loop, so that `setup_s` meets the same stretches of host noise as the
/// loop's samples (set-ups run back to back would all land in one); all
/// at the start for a cycle budget.
struct SetupSchedule {
    budget: Budget,
    done: usize,
}

impl SetupSchedule {
    /// The first set-up has run (it built the loop's catalog).
    fn after_first(budget: Budget) -> Self {
        Self { budget, done: 1 }
    }

    /// Whether the next set-up is due `start.elapsed()` into the loop.
    fn due(&mut self, start: Instant) -> bool {
        let due = self.done < SETUPS
            && match self.budget {
                Budget::Seconds(seconds) => {
                    secs(start) >= seconds * self.done as f64 / SETUPS as f64
                }
                Budget::Cycles(_) => true,
            };
        self.done += usize::from(due);
        due
    }

    /// Whether a set-up is still owed once the loop has ended.
    fn owed(&mut self) -> bool {
        let owed = self.done < SETUPS;
        self.done += usize::from(owed);
        owed
    }
}
/// Consecutive calls timed as one latency sample: long enough that the
/// clock read is negligible and a single interrupt does not make a tail.
pub const QUERY_BLOCK: usize = 4096;

/// What one workload loop measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up.
    pub setup: Samples,
    /// Seconds spent registering synopses, per set-up.
    pub register: Samples,
    /// Seconds from rows handed to the engine until an answer from a
    /// snapshot covering them, for every batch or load.
    pub freshness_all: Total,
    /// The same, sampled for the tail.
    pub freshness: Samples,
    /// Rows accepted and seconds spent inside ingest calls.
    pub ingest: Total,
    /// Nanoseconds per answer, one sample per block of
    /// [`QUERY_BLOCK`] calls.
    pub query_ns: Samples,
    /// Mean absolute error of the snapshot against the exact answers,
    /// one sample per oracle checkpoint (`selectivity_abs_err` is their
    /// mean).
    pub abs_err: Samples,
    /// Seconds spent generating inputs and exact answers (untimed by
    /// every metric).
    pub inputs_s: f64,
    pub cycles: usize,
    pub counts: Counts,
    pub checks: Checks,
    /// Per-layer metrics (traced runs only).
    pub layers: LayerMetrics,
}

/// Counts that repeat exactly for one seed and cycle budget.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Bytes the replica round trip shipped: every column's frame and
    /// the joint frame.
    pub frame_bytes: usize,
    /// Surviving detail coefficients of the first cycle's snapshot.
    pub surviving_coefficients: usize,
    /// Highest level (`ĵ1`) of the first cycle's snapshot.
    pub highest_level: i32,
    /// Snapshot rebuilds the engine performed over the measured cycles.
    pub rebuilds: usize,
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The rows `[start, start + len)` of a pool, wrapping around its end.
fn wrapped(pool: &[f64], start: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| pool[(start + i) % pool.len()]).collect()
}

// ---------------------------------------------------------------------
// bulk_load
// ---------------------------------------------------------------------

const BULK_COLUMNS: [&str; 2] = ["orders.amount", "orders.discount"];
/// Rows loaded per column per cycle.
pub const BULK_ROWS: usize = 1 << 18;
/// Distinct column datasets the cycles rotate through. The error oracle
/// scores each one on its first load, so `selectivity_abs_err` is the
/// mean over this many independent samples of the process and the same
/// for every run of a seed.
const BULK_DATASETS: usize = 8;
/// Rows the synopses are sized for: detail levels 2..=18, about 8 MiB
/// per shard sketch, beyond the 2 MiB L2 of the reference host.
pub const BULK_EXPECTED: usize = 1 << 18;
const BULK_WARMUP_ROWS: usize = 1 << 14;
const BULK_QUERY_BLOCKS: usize = 8;

fn bulk_config() -> SynopsisConfig {
    SynopsisConfig::default()
        .with_expected_rows(BULK_EXPECTED)
        .with_shards(nproc())
}

/// Registers the bulk table's columns in a fresh catalog.
fn bulk_table(checks: &mut Checks) -> SynopsisCatalog {
    let catalog = SynopsisCatalog::new();
    for name in BULK_COLUMNS {
        checks.ok("register", catalog.register(name, bulk_config()));
    }
    catalog
}

pub fn bulk_load(seed: u64, budget: Budget, tracer: &mut Tracer) -> Outcome {
    let inputs = Instant::now();
    let datasets: Vec<Vec<f64>> = (0..BULK_DATASETS as u64)
        .map(|d| case2(BULK_ROWS, seed.wrapping_mul(1_000_003).wrapping_add(d)))
        .collect();
    // Column `c` of cycle `k` loads dataset `(k·columns + c) mod datasets`.
    let dataset_of = |cycle: usize, c: usize| (cycle * BULK_COLUMNS.len() + c) % BULK_DATASETS;
    let oracle = oracle_ranges();
    let exact: Vec<Vec<f64>> = datasets.iter().map(|d| exact_1d(d, &oracle)).collect();
    let latency = latency_ranges();
    let mut out = Outcome {
        inputs_s: secs(inputs),
        ..Outcome::default()
    };
    let config = bulk_config();

    let setup = |checks: &mut Checks| {
        let start = Instant::now();
        let catalog = bulk_table(checks);
        let register_s = secs(start);
        for (name, rows) in BULK_COLUMNS.iter().zip(&datasets) {
            checks.ok(
                "ingest",
                catalog.ingest_parallel(name, &rows[..BULK_WARMUP_ROWS]),
            );
            checks.ok("refresh", catalog.refresh(name));
        }
        (catalog, register_s)
    };
    set_up(&mut out, &setup);
    let mut setups = SetupSchedule::after_first(budget);

    // The replay's own template: building it once keeps basis builds out
    // of the replayed pieces.
    let template = CoefficientSketch::sized_for(config.expected_rows).expect("bulk template");
    let start = Instant::now();
    let mut last_catalog = None;
    while budget.running(start, out.cycles) {
        while setups.due(start) {
            set_up(&mut out, &setup);
        }
        let request = out.cycles as u64;
        let catalog = bulk_table(&mut out.checks);
        for (c, name) in BULK_COLUMNS.iter().enumerate() {
            let dataset = dataset_of(out.cycles, c);
            let rows = &datasets[dataset];
            let root = tracer.begin("cycle", request);
            let t0 = Instant::now();
            let ingest = tracer.begin("sharded.ingest", request);
            let ingested = catalog.ingest_parallel(name, rows);
            tracer.end(ingest);
            let ingest_s = secs(t0);
            let refresh = tracer.begin("synopsis.refresh", request);
            let snapshot = catalog.refresh(name);
            tracer.end(refresh);
            let (lo, hi) = latency[c];
            let first = tracer.span("catalog.query", request, || {
                catalog.selectivity_cached(name, lo, hi)
            });
            let elapsed = secs(t0);
            tracer.end(root);

            out.checks.ok("ingest", ingested);
            out.checks.answer("first answer", first.ok().flatten());
            out.freshness_all.add(1.0, elapsed);
            out.freshness.push(elapsed);
            out.ingest.add(rows.len() as f64, ingest_s);
            if let Some(Some(snapshot)) = out.checks.ok("refresh", snapshot) {
                if out.cycles * BULK_COLUMNS.len() + c < BULK_DATASETS {
                    let answers: Vec<f64> = oracle
                        .iter()
                        .map(|&(lo, hi)| snapshot.selectivity(lo, hi))
                        .collect();
                    out.abs_err.push(mean_abs_err(&answers, &exact[dataset]));
                }
                if out.cycles == 0 && c == 0 {
                    let density = snapshot.density();
                    out.counts.surviving_coefficients = density.surviving_detail_coefficients();
                    out.counts.highest_level = density.highest_level();
                }
            }
            if tracer.enabled() {
                // A fresh synopsis refreshes cold: fresh caches.
                let shadow = ShardedIngest::new(&template, config.shards).expect("shadow shards");
                shadow.ingest_parallel(rows);
                let mut scratch = template.clone();
                let mut cv = CvCache::new();
                let mut dense = DenseEvalCache::default();
                replay_merge(
                    tracer,
                    refresh,
                    "sharded.merge",
                    |s| shadow.merge_into(s),
                    &mut scratch,
                );
                replay_estimate(tracer, refresh, &scratch, &config, &mut cv, &mut dense);
                out.layers
                    .set("cv.cached_levels", cv.cached_levels() as f64);
            }
        }
        out.query_ns.extend(query_blocks(
            &mut out.checks,
            BULK_QUERY_BLOCKS,
            &latency,
            |call, lo, hi| {
                let name = BULK_COLUMNS[call % BULK_COLUMNS.len()];
                catalog.selectivity_cached(name, lo, hi).ok().flatten()
            },
        ));
        out.counts.rebuilds += BULK_COLUMNS
            .iter()
            .filter_map(|name| catalog.attribute(name))
            .map(|a| a.rebuild_count())
            .sum::<usize>();
        out.cycles += 1;
        last_catalog = Some(catalog);
    }
    while setups.owed() {
        set_up(&mut out, &setup);
    }

    let catalog = last_catalog.unwrap_or_else(|| bulk_table(&mut out.checks));
    let request = out.cycles as u64;
    for name in BULK_COLUMNS {
        out.counts.frame_bytes += replica::check_column(
            &mut out.checks,
            tracer,
            request,
            &catalog,
            name,
            &config,
            &oracle,
        );
    }
    out.counts.frame_bytes += replica::check_joint(
        &mut out.checks,
        tracer,
        &mut out.layers,
        request,
        &datasets[0],
        &config,
        &oracle,
    );

    if tracer.enabled() {
        let name = BULK_COLUMNS[0];
        let push = layers::push_rows_per_s(&datasets[0], config.expected_rows);
        let ingest_s = tracer
            .durations("sharded.ingest")
            .into_iter()
            .collect::<Samples>()
            .median();
        out.layers.set(
            "sharded.parallel_efficiency",
            (BULK_ROWS as f64 / ingest_s) / (config.shards as f64 * push),
        );
        out.layers.set("sketch.push_rows_per_s", push);
        layers::query_layers(&mut out.layers, &catalog, name, &latency);
        layers::fill_from_spans(&mut out.layers, tracer);
        layers::fill_missing(&mut out.layers, &datasets[0], config.expected_rows);
    }
    out
}

/// Replays the merge piece of a refresh (shard merge or window fold
/// into the scratch sketch) as a replay child of the real call's span.
fn replay_merge(
    tracer: &mut Tracer,
    of: SpanId,
    name: &'static str,
    merge: impl FnOnce(&mut CoefficientSketch) -> Result<(), wavedens_core::EstimatorError>,
    scratch: &mut CoefficientSketch,
) {
    tracer
        .replay(of, name, || merge(scratch))
        .expect("replayed merge");
}

/// Replays the model-selection pieces of a refresh or replica build —
/// cross-validated estimate, then the CDF table — as replay children of
/// the real call's span.
fn replay_estimate(
    tracer: &mut Tracer,
    of: SpanId,
    sketch: &CoefficientSketch,
    config: &SynopsisConfig,
    cv: &mut CvCache,
    dense: &mut DenseEvalCache,
) {
    let estimate = tracer
        .replay(of, "cv.estimate", || {
            sketch.estimate_with_cache(config.rule, cv)
        })
        .expect("replayed estimate");
    let cdf = tracer.replay(of, "dense.cdf_build", || {
        estimate.cumulative_cached(config.cdf_points, dense)
    });
    black_box(cdf.total_mass());
}

/// Times `blocks` blocks of [`QUERY_BLOCK`] consecutive calls of
/// `answer(call, lo, hi)`, after one untimed warm-up block, and returns
/// nanoseconds per answer, one sample per block. Invalid answers are
/// counted after each block's clock stops.
fn query_blocks(
    checks: &mut Checks,
    blocks: usize,
    ranges: &[(f64, f64)],
    mut answer: impl FnMut(usize, f64, f64) -> Option<f64>,
) -> Vec<f64> {
    let mut samples = Vec::with_capacity(blocks);
    // Block 0 is untimed: the samples measure answers from warm caches,
    // not the first touches after the writer's own work.
    for block in 0..=blocks {
        let (ns, bad) = time_block(ranges, block, &mut answer);
        if block > 0 {
            samples.push(ns);
        }
        checks.attempted += (QUERY_BLOCK - bad) as u64;
        for _ in 0..bad {
            checks.record(false, || {
                "query answer missing or outside [0, 1]".to_string()
            });
        }
    }
    samples
}

/// One timed block of [`QUERY_BLOCK`] calls `answer(call, lo, hi)`:
/// nanoseconds per call and the number of invalid answers.
pub fn time_block(
    ranges: &[(f64, f64)],
    block: usize,
    mut answer: impl FnMut(usize, f64, f64) -> Option<f64>,
) -> (f64, usize) {
    let offset = (block * 37) % ranges.len();
    let mut bad = 0usize;
    let t0 = Instant::now();
    for call in 0..QUERY_BLOCK {
        let (lo, hi) = ranges[(offset + call) % ranges.len()];
        match answer(call, black_box(lo), black_box(hi)) {
            Some(a) if (0.0..=1.0).contains(&a) => {}
            _ => bad += 1,
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / QUERY_BLOCK as f64;
    (ns, bad)
}

// ---------------------------------------------------------------------
// fresh_stream
// ---------------------------------------------------------------------

const STREAM: &str = "events.latency";
/// Rows per streamed batch: small enough that the refresh, not the
/// kernel ingest, dominates each batch's freshness.
pub const STREAM_BATCH: usize = 256;
/// Batches per window slice; the writer advances the window this often.
const SLICE_BATCHES: usize = 8;
const SLICES: usize = 8;
/// Rows the synopsis levels are sized for: detail levels 2..=11, about
/// 70 KiB per slice, so the whole ring stays inside the 2 MiB L2.
pub const STREAM_EXPECTED: usize = 1 << 11;
/// Rows in a full window.
const STREAM_WINDOW: usize = STREAM_BATCH * SLICE_BATCHES * SLICES;
/// The stream cycles through a pool of this many generated rows.
const STREAM_POOL: usize = 1 << 18;
/// The reader's think time between timed blocks, spent spinning: the
/// reader keeps its core busy (an idle vCPU is descheduled by the host,
/// and the next timed block then absorbs the wake-up), while the sample
/// count stays at a few hundred per run. A block spans about one writer
/// cycle, so every sample overlaps a refresh and a snapshot swap.
const READER_PAUSE: std::time::Duration = std::time::Duration::from_millis(100);
/// Freshness is sampled for its tail on every this-many batches. A
/// prime, so the samples visit every phase of the advance and oracle
/// cycles alike. About 120 samples per run put the freshness tail near
/// p91, as on `bulk_load`: on a shared host, slower stretches
/// of a few seconds decide any percentile that fewer than a tenth of the
/// samples lie beyond.
const STREAM_SAMPLE_EVERY: usize = 331;
/// The oracle scores every this-many batches.
const STREAM_ORACLE_EVERY: usize = 16;

fn stream_config() -> SynopsisConfig {
    SynopsisConfig::default()
        .with_expected_rows(STREAM_EXPECTED)
        .with_shards(1)
        .with_window(WindowPolicy::SlidingSlices(SLICES))
}

pub fn fresh_stream(seed: u64, budget: Budget, tracer: &mut Tracer) -> Outcome {
    let inputs = Instant::now();
    let pool = case3(STREAM_POOL, seed);
    let batch = |b: usize| wrapped(&pool, b * STREAM_BATCH, STREAM_BATCH);
    let oracle = oracle_ranges();
    let latency = latency_ranges();
    let config = stream_config();
    let mut out = Outcome {
        inputs_s: secs(inputs),
        ..Outcome::default()
    };

    let setup = |checks: &mut Checks| {
        let start = Instant::now();
        let catalog = SynopsisCatalog::new();
        checks.ok("register", catalog.register(STREAM, config.clone()));
        let register_s = secs(start);
        checks.ok("ingest", catalog.ingest(STREAM, &batch(0)));
        checks.ok("refresh", catalog.refresh(STREAM));
        (catalog, register_s)
    };
    let catalog = set_up(&mut out, &setup);
    let mut setups = SetupSchedule::after_first(budget);
    let rebuilds_before = catalog.attribute(STREAM).map_or(0, |a| a.rebuild_count());

    // Batches per live slice, oldest first (batch 0 is the warm-up).
    let mut window: VecDeque<Vec<usize>> = VecDeque::from([vec![0]]);
    let template = CoefficientSketch::sized_for(config.expected_rows).expect("stream template");
    let shadow = tracer.enabled().then(|| {
        let shadow =
            WindowedIngest::new(&template, config.shards, config.window).expect("shadow window");
        shadow.ingest(&batch(0));
        shadow
    });
    let mut scratch = template.clone();
    let mut cv = CvCache::new();
    let mut dense = DenseEvalCache::default();

    let done = AtomicBool::new(false);
    let (reader_samples, reader_checks) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut samples = Vec::new();
            let mut checks = Checks::default();
            while !done.load(Ordering::Acquire) {
                samples.extend(query_blocks(&mut checks, 1, &latency, |_, lo, hi| {
                    catalog.selectivity_cached(STREAM, lo, hi).ok().flatten()
                }));
                let paused = Instant::now();
                while paused.elapsed() < READER_PAUSE && !done.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            }
            (samples, checks)
        });

        let start = Instant::now();
        let mut b = 1usize;
        while budget.running(start, out.cycles) {
            while setups.due(start) {
                set_up(&mut out, &setup);
            }
            let request = b as u64;
            if b.is_multiple_of(SLICE_BATCHES) {
                let advanced = tracer.span("windowed.advance", request, || catalog.advance(STREAM));
                out.checks
                    .record(matches!(advanced, Ok(true)), || "advance".to_string());
                window.push_back(Vec::new());
                if window.len() > SLICES {
                    window.pop_front();
                }
                if let Some(shadow) = &shadow {
                    shadow.advance_all();
                }
            }
            let rows = batch(b);
            window.back_mut().expect("live slice").push(b);

            let root = tracer.begin("cycle", request);
            let t0 = Instant::now();
            let ingested =
                tracer.span("windowed.ingest", request, || catalog.ingest(STREAM, &rows));
            let ingest_s = secs(t0);
            let refresh = tracer.begin("synopsis.refresh", request);
            let snapshot = catalog.refresh(STREAM);
            tracer.end(refresh);
            let (lo, hi) = latency[b % latency.len()];
            let first = tracer.span("catalog.query", request, || {
                catalog.selectivity_cached(STREAM, lo, hi)
            });
            let elapsed = secs(t0);
            tracer.end(root);

            out.checks.ok("ingest", ingested);
            out.checks.answer("first answer", first.ok().flatten());
            out.freshness_all.add(1.0, elapsed);
            out.ingest.add(rows.len() as f64, ingest_s);
            if b.is_multiple_of(STREAM_SAMPLE_EVERY) {
                out.freshness.push(elapsed);
            }
            if let Some(shadow) = &shadow {
                shadow.ingest(&rows);
                replay_merge(
                    tracer,
                    refresh,
                    "windowed.fold",
                    |s| shadow.merge_into(s),
                    &mut scratch,
                );
                replay_estimate(tracer, refresh, &scratch, &config, &mut cv, &mut dense);
            }
            if let Some(Some(snapshot)) = out.checks.ok("refresh", snapshot) {
                if out.cycles == 0 {
                    let density = snapshot.density();
                    out.counts.surviving_coefficients = density.surviving_detail_coefficients();
                    out.counts.highest_level = density.highest_level();
                }
                if b.is_multiple_of(STREAM_ORACLE_EVERY) {
                    let live: Vec<f64> = window.iter().flatten().flat_map(|&k| batch(k)).collect();
                    let answers: Vec<f64> = oracle
                        .iter()
                        .map(|&(lo, hi)| snapshot.selectivity(lo, hi))
                        .collect();
                    out.abs_err
                        .push(mean_abs_err(&answers, &exact_1d(&live, &oracle)));
                    let rows_ok = snapshot.density().sample_size() == live.len();
                    out.checks.record(rows_ok, || {
                        format!(
                            "window covers {} rows, expected {}",
                            snapshot.density().sample_size(),
                            live.len()
                        )
                    });
                }
            }
            out.cycles += 1;
            b += 1;
        }
        done.store(true, Ordering::Release);
        reader.join().expect("reader thread")
    });
    while setups.owed() {
        set_up(&mut out, &setup);
    }
    out.query_ns.extend(reader_samples);
    out.checks.merge(reader_checks);
    out.counts.rebuilds = catalog
        .attribute(STREAM)
        .map_or(0, |a| a.rebuild_count() - rebuilds_before);
    // Batch `b` is cycle `b - 1`: the round trip takes the next batch id.
    let request = out.cycles as u64 + 1;
    out.counts.frame_bytes = replica::check_column(
        &mut out.checks,
        tracer,
        request,
        &catalog,
        STREAM,
        &config,
        &oracle,
    ) + replica::check_joint(
        &mut out.checks,
        tracer,
        &mut out.layers,
        request,
        &pool[..STREAM_WINDOW],
        &config,
        &oracle,
    );
    if tracer.enabled() {
        out.layers
            .set("cv.cached_levels", cv.cached_levels() as f64);
        out.layers.set(
            "sketch.push_rows_per_s",
            layers::push_rows_per_s(&pool[..STREAM_WINDOW], config.expected_rows),
        );
        layers::query_layers(&mut out.layers, &catalog, STREAM, &latency);
        layers::fill_from_spans(&mut out.layers, tracer);
        layers::fill_missing(
            &mut out.layers,
            &pool[..STREAM_WINDOW],
            config.expected_rows,
        );
    }
    out
}
