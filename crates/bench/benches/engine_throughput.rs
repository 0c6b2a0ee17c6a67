//! Throughput benchmark of the multi-attribute synopsis engine: the
//! single-thread strided-gather ingest fast path against the scalar
//! reference scatter (swept across the kernel backends), work-stealing
//! sharded ingest scaling over the 1-shard baseline, plus a mixed
//! workload where cached range queries are served concurrently with
//! ingest bursts while the writers pay (and time) the synopsis rebuilds.
//!
//! Besides the usual Criterion timings, the run writes the headline
//! numbers to `BENCH_engine_throughput.json` at the repository root so
//! the scaling trajectory of the engine is tracked across PRs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;
use wavedens_bench::paper_sample;
use wavedens_core::{CoefficientSketch, DEFAULT_CDF_POINTS};
use wavedens_engine::{
    AttributeSynopsis, CompactionPolicy, RefreshedSynopsis, ShardedIngest, SynopsisCatalog,
    SynopsisConfig, WindowPolicy, WindowedIngest,
};
use wavedens_wavelets::kernels::{self, Backend};

/// Rows ingested per attribute (and per ingest-scaling run).
const ROWS: usize = 50_000;
/// Attributes in the mixed-workload catalog phase.
const ATTRIBUTES: usize = 3;
/// Shard counts swept in the ingest-scaling phase.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Wall-clock repetitions per measured configuration; the minimum is
/// reported to suppress scheduler noise.
const REPEATS: usize = 5;

fn min_seconds(mut routine: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let start = Instant::now();
        routine();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in [0, 1]).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn engine_throughput(c: &mut Criterion) {
    let data = paper_sample(ROWS, 41);
    let template = CoefficientSketch::sized_for(ROWS).expect("template");

    // Warm-up: one untimed ingest settles backend detection, the chunk
    // autotuner probe and the cache hierarchy before anything is timed.
    {
        let mut sketch = template.clone();
        sketch.push_batch(&data);
        black_box(sketch.count());
    }

    // Phase 0 — single-thread ingest fast path: the strided-gather
    // `push_batch` against the scalar per-translation reference
    // (`push_batch_scalar`), identical sketch configuration and rows.
    // This isolates the basis-evaluation speedup from sharding and merge
    // effects, so it is comparable across runners of any core count.
    let scalar_seconds = min_seconds(|| {
        let mut sketch = template.clone();
        sketch.push_batch_scalar(&data);
        black_box(sketch.count());
    });
    let fast_seconds = min_seconds(|| {
        let mut sketch = template.clone();
        sketch.push_batch(&data);
        black_box(sketch.count());
    });
    let fast_path_speedup = scalar_seconds / fast_seconds;
    println!(
        "single-thread ingest of {ROWS} rows: scalar {scalar_seconds:.4} s \
         ({:.0} rows/s), gather fast path {fast_seconds:.4} s ({:.0} rows/s) \
         — {fast_path_speedup:.2}×",
        ROWS as f64 / scalar_seconds,
        ROWS as f64 / fast_seconds,
    );

    // Phase 0b — the same single-thread ingest pinned to each kernel
    // backend in turn. The spread between `scalar` and `intrinsics` is
    // exactly what the AVX2 kernels buy; `intrinsics` is reported only
    // where the CPU provides it.
    let mut simd_series: Vec<(&'static str, f64)> = Vec::new();
    for backend in [Backend::Scalar, Backend::Intrinsics] {
        if backend == Backend::Intrinsics && !kernels::intrinsics_available() {
            continue;
        }
        kernels::set_backend_override(Some(backend));
        let seconds = min_seconds(|| {
            let mut sketch = template.clone();
            sketch.push_batch(&data);
            black_box(sketch.count());
        });
        println!(
            "  backend {:<10} {seconds:.4} s ({:.0} rows/s)",
            backend.name(),
            ROWS as f64 / seconds
        );
        simd_series.push((backend.name(), seconds));
    }
    kernels::set_backend_override(None);

    // The shard threads can only spread over the cores the host grants;
    // on a 1-core runner the >1 shard points would measure scheduler
    // round-robin rather than scaling, so they are skipped (and the skip
    // is recorded in the JSON). The fast-path and backend series are
    // single-threaded and meaningful everywhere.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let shard_counts: &[usize] = if cores > 1 {
        &SHARD_COUNTS
    } else {
        &SHARD_COUNTS[..1]
    };
    if shard_counts.len() < SHARD_COUNTS.len() {
        println!("1 core available: skipping the multi-shard scaling points");
    }

    // Phase 1 — ingest scaling: the same bulk load through the swept
    // shard counts, one pool task per shard pushing its contiguous share
    // straight in (so a load uses at most `min(shards, cores)` cores),
    // merged at the end (the merge is part of the measured cost: it is
    // what estimate time pays).
    let mut ingest_seconds = Vec::new();
    for &shards in shard_counts {
        let seconds = min_seconds(|| {
            let sharded = ShardedIngest::new(&template, shards).expect("shards");
            sharded.ingest_parallel(&data);
            black_box(sharded.merged().expect("merge"));
        });
        println!(
            "ingest {ROWS} rows, {shards} shard(s): {seconds:.4} s \
             ({:.0} rows/s)",
            ROWS as f64 / seconds
        );
        ingest_seconds.push((shards, seconds));
    }
    let baseline = ingest_seconds[0].1;
    let best = ingest_seconds
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty");
    let speedup = baseline / best.1;
    println!(
        "best: {} shard(s), {speedup:.2}× over the 1-shard baseline",
        best.0
    );

    // Phase 2 — mixed workload: ATTRIBUTES writers ingesting bursts and
    // paying (and timing) the synopsis rebuilds, while two readers
    // answer range queries the whole time from the atomically swapped
    // snapshots via the cached read path. Readers never rebuild, so the
    // query-latency series measures the estimator alone; rebuild cost is
    // reported as its own latency series from the writer side.
    let catalog = SynopsisCatalog::new();
    let names: Vec<String> = (0..ATTRIBUTES).map(|i| format!("attr{i}")).collect();
    let config = SynopsisConfig::default()
        .with_expected_rows(ROWS)
        .with_shards(4);
    for name in &names {
        catalog.register(name, config.clone()).expect("register");
    }
    let streams: Vec<Vec<f64>> = (0..ATTRIBUTES)
        .map(|i| paper_sample(ROWS, 50 + i as u64))
        .collect();

    // Prime every attribute with its first burst and one untimed refresh
    // so the cached read path is live before any reader starts; the
    // timed rebuilds below are then all incremental (the steady state),
    // not the one-off first build.
    const BURSTS: usize = 8;
    for (name, stream) in names.iter().zip(&streams) {
        let first = &stream[..ROWS.div_ceil(BURSTS)];
        catalog.ingest_parallel(name, first).expect("registered");
        catalog.refresh(name).expect("registered");
    }

    let queries_answered = AtomicUsize::new(0);
    let writers_done = AtomicBool::new(false);
    let mut query_latencies: Vec<f64> = Vec::new();
    let mut rebuild_latencies: Vec<f64> = Vec::new();
    let concurrent_start = Instant::now();
    std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for (name, stream) in names.iter().zip(&streams) {
            let catalog = &catalog;
            writer_handles.push(scope.spawn(move || {
                let mut rebuilds = Vec::new();
                for chunk in stream.chunks(ROWS.div_ceil(BURSTS)).skip(1) {
                    catalog.ingest_parallel(name, chunk).expect("registered");
                    let start = Instant::now();
                    catalog.refresh(name).expect("registered");
                    rebuilds.push(start.elapsed().as_secs_f64());
                }
                rebuilds
            }));
        }
        let mut latency_handles = Vec::new();
        for reader in 0..2 {
            let catalog = &catalog;
            let names = &names;
            let queries_answered = &queries_answered;
            let writers_done = &writers_done;
            latency_handles.push(scope.spawn(move || {
                let mut latencies = Vec::new();
                let mut i = 0usize;
                while !writers_done.load(Ordering::Acquire) || i < 500 {
                    let name = &names[(reader + i) % names.len()];
                    let lo = (i % 60) as f64 / 100.0;
                    let start = Instant::now();
                    let s = catalog
                        .selectivity_cached(name, lo, lo + 0.25)
                        .expect("registered")
                        .expect("primed before readers started");
                    latencies.push(start.elapsed().as_secs_f64());
                    assert!((0.0..=1.0).contains(&s));
                    queries_answered.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                latencies
            }));
        }
        // Release the readers once every writer's rows have landed.
        while catalog.total_rows() < ATTRIBUTES * ROWS {
            std::thread::yield_now();
        }
        writers_done.store(true, Ordering::Release);
        for handle in writer_handles {
            rebuild_latencies.extend(handle.join().expect("writer"));
        }
        for handle in latency_handles {
            query_latencies.extend(handle.join().expect("reader"));
        }
    });
    let concurrent_seconds = concurrent_start.elapsed().as_secs_f64();
    let queries = queries_answered.load(Ordering::Relaxed);
    let rebuilds: usize = names
        .iter()
        .map(|name| catalog.attribute(name).expect("registered").rebuild_count())
        .sum();
    query_latencies.sort_by(f64::total_cmp);
    let latency_p50 = percentile(&query_latencies, 0.50);
    let latency_p99 = percentile(&query_latencies, 0.99);
    let latency_max = query_latencies.last().copied().unwrap_or(0.0);
    rebuild_latencies.sort_by(f64::total_cmp);
    let rebuild_p50 = percentile(&rebuild_latencies, 0.50);
    let rebuild_p99 = percentile(&rebuild_latencies, 0.99);
    let rebuild_max = rebuild_latencies.last().copied().unwrap_or(0.0);
    println!(
        "mixed load: {queries} queries answered in {concurrent_seconds:.3} s \
         ({:.0} queries/s) while {} rows were ingested and {rebuilds} \
         rebuilds ran; query latency p50 {:.6} ms, p99 {:.6} ms, max {:.3} ms; \
         rebuild latency p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        queries as f64 / concurrent_seconds,
        ATTRIBUTES * ROWS,
        latency_p50 * 1e3,
        latency_p99 * 1e3,
        latency_max * 1e3,
        rebuild_p50 * 1e3,
        rebuild_p99 * 1e3,
        rebuild_max * 1e3,
    );

    // Phase 3 — synopsis size: the paper's n = 8192 workload, the dense
    // wire frame (every level, dense payloads) vs the level-truncated
    // compacted frame the engine ships.
    const SIZE_ROWS: usize = 8192;
    let paper_rows = paper_sample(SIZE_ROWS, 77);
    let size_config = SynopsisConfig::default()
        .with_expected_rows(SIZE_ROWS)
        .with_shards(1);
    let size_synopsis = AttributeSynopsis::new(&size_config).expect("synopsis");
    size_synopsis.ingest(&paper_rows);
    let dense = size_synopsis.merged_sketch().expect("merged");
    let dense_bytes = dense.to_bytes_dense().len();
    let compacted_bytes = size_synopsis
        .ship(CompactionPolicy::InactiveTail)
        .expect("ship")
        .len();
    let compaction_ratio = dense_bytes as f64 / compacted_bytes as f64;
    println!(
        "synopsis size at n = {SIZE_ROWS}: dense {dense_bytes} B, compacted \
         {compacted_bytes} B ({compaction_ratio:.1}× smaller than dense)"
    );

    // Phase 4 — refresh latency under repeated small-batch ingest: the
    // incremental path (guard-owned scratch merge + CV cache) against a
    // full cross-validation rebuild from a freshly merged sketch per
    // batch. Both paths pay the same base load, ingest and CDF
    // construction; the delta is what the incremental machinery saves.
    const REFRESH_BATCHES: usize = 32;
    const BATCH_ROWS: usize = 64;
    let refresh_batches: Vec<Vec<f64>> = (0..REFRESH_BATCHES)
        .map(|i| paper_sample(BATCH_ROWS, 200 + i as u64))
        .collect();
    let full_refresh_seconds = min_seconds(|| {
        let synopsis = AttributeSynopsis::new(&size_config).expect("synopsis");
        synopsis.ingest(&paper_rows);
        for batch in &refresh_batches {
            synopsis.ingest(batch);
            let sketch = synopsis.merged_sketch().expect("merged");
            black_box(
                RefreshedSynopsis::build(&sketch, synopsis.rule(), DEFAULT_CDF_POINTS)
                    .expect("full rebuild"),
            );
        }
    });
    let incremental_refresh_seconds = min_seconds(|| {
        let synopsis = AttributeSynopsis::new(&size_config).expect("synopsis");
        synopsis.ingest(&paper_rows);
        for batch in &refresh_batches {
            synopsis.ingest(batch);
            black_box(synopsis.refreshed().expect("incremental rebuild"));
        }
    });
    let refresh_speedup = full_refresh_seconds / incremental_refresh_seconds;
    println!(
        "refresh after {REFRESH_BATCHES} batches of {BATCH_ROWS} rows on {SIZE_ROWS} base \
         rows: full CV {:.2} ms/refresh, incremental {:.2} ms/refresh \
         ({refresh_speedup:.2}× faster)",
        full_refresh_seconds * 1e3 / REFRESH_BATCHES as f64,
        incremental_refresh_seconds * 1e3 / REFRESH_BATCHES as f64,
    );

    // Phase 5 — sliding-window ingest: the same bulk load through a
    // 4-shard ring of 4 slices with an advance per epoch, folded at the
    // end. Steady-state windowed ingest should track the landmark sharded
    // path (the ring only redirects batches to the current slice); the
    // separately measured advance is the whole cost of "subtracting" a
    // retired slice — an O(1) swap per shard plus an out-of-lock clear,
    // paid once per time slice instead of a rebuild.
    const WINDOW_SLICES: usize = 4;
    const WINDOW_EPOCHS: usize = 4;
    let window_policy = WindowPolicy::SlidingSlices(WINDOW_SLICES);
    let windowed_seconds = min_seconds(|| {
        let ring = WindowedIngest::new(&template, 4, window_policy).expect("ring");
        for chunk in data.chunks(ROWS.div_ceil(WINDOW_EPOCHS)) {
            ring.ingest_parallel(chunk);
            ring.advance_all();
        }
        black_box(ring.merged().expect("fold"));
    });
    // Advance cost alone, every advance retiring a populated slice.
    const ADVANCES: usize = 64;
    let advance_ring = WindowedIngest::new(&template, 4, window_policy).expect("ring");
    let mut advance_seconds = 0.0;
    for i in 0..ADVANCES + WINDOW_SLICES {
        advance_ring.ingest_parallel(&data[..1024]);
        let start = Instant::now();
        advance_ring.advance_all();
        // Skip the warm-up advances that only grow the ring.
        if i >= WINDOW_SLICES {
            advance_seconds += start.elapsed().as_secs_f64();
        }
    }
    let advance_micros = advance_seconds * 1e6 / ADVANCES as f64;
    println!(
        "windowed ingest of {ROWS} rows ({WINDOW_SLICES}-slice ring, \
         {WINDOW_EPOCHS} advances, 4 shards): {windowed_seconds:.4} s \
         ({:.0} rows/s); advance retiring a 1024-row slice: {advance_micros:.1} µs",
        ROWS as f64 / windowed_seconds,
    );

    let ingest_json: Vec<String> = ingest_seconds
        .iter()
        .map(|(shards, seconds)| {
            format!(
                "    \"shards_{shards}\": {{ \"seconds\": {seconds:.6}, \"rows_per_second\": {:.0} }}",
                ROWS as f64 / seconds
            )
        })
        .collect();
    let simd_json: Vec<String> = simd_series
        .iter()
        .map(|(name, seconds)| {
            format!(
                "    \"{name}\": {{ \"seconds\": {seconds:.6}, \"rows_per_second\": {:.0} }}",
                ROWS as f64 / seconds
            )
        })
        .collect();
    // Record the core count and the kernel backend the default dispatch
    // chose — plus the wavelet family and table resolution the basis
    // evaluation ran at — so runs on different machines (multi-core or
    // non-AVX2 runners in particular) stay comparable.
    let scaling_note = if shard_counts.len() < SHARD_COUNTS.len() {
        ",\n  \"ingest_scaling_note\": \"multi-shard points skipped: 1 core available\""
    } else {
        ""
    };
    let family = template.basis().family().name();
    let table_levels = template.basis().table().levels();
    let kernel_backend = kernels::active_backend().name();
    let intrinsics_available = kernels::intrinsics_available();
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"rows_per_attribute\": {ROWS},\n  \
         \"attributes\": {ATTRIBUTES},\n  \"available_parallelism\": {cores},\n  \
         \"wavelet_family\": \"{family}\",\n  \"table_levels\": {table_levels},\n  \
         \"kernel_backend\": \"{kernel_backend}\",\n  \
         \"intrinsics_available\": {intrinsics_available},\n  \
         \"ingest_fast_path\": {{\n    \"rows\": {ROWS},\n    \
         \"scalar_seconds\": {scalar_seconds:.6},\n    \
         \"scalar_rows_per_second\": {:.0},\n    \
         \"fast_seconds\": {fast_seconds:.6},\n    \
         \"fast_rows_per_second\": {:.0},\n    \
         \"speedup\": {fast_path_speedup:.2}\n  }},\n  \
         \"simd\": {{\n{}\n  }},\n  \
         \"ingest_scaling\": {{\n{}\n  }}{scaling_note},\n  \
         \"best_shards\": {},\n  \"ingest_speedup_over_1_shard\": {speedup:.2},\n  \
         \"concurrent\": {{\n    \"queries\": {queries},\n    \"seconds\": {concurrent_seconds:.6},\n    \
         \"queries_per_second\": {:.0},\n    \"rebuilds\": {rebuilds},\n    \
         \"query_latency_p50_ms\": {:.6},\n    \
         \"query_latency_p99_ms\": {:.6},\n    \
         \"query_latency_max_ms\": {:.3},\n    \
         \"rebuild_latency_p50_ms\": {:.3},\n    \
         \"rebuild_latency_p99_ms\": {:.3},\n    \
         \"rebuild_latency_max_ms\": {:.3}\n  }},\n  \
         \"synopsis_size\": {{\n    \"rows\": {SIZE_ROWS},\n    \
         \"dense_bytes\": {dense_bytes},\n    \
         \"compacted_bytes\": {compacted_bytes},\n    \
         \"compaction_ratio_over_dense\": {compaction_ratio:.2}\n  }},\n  \
         \"incremental_refresh\": {{\n    \"base_rows\": {SIZE_ROWS},\n    \
         \"batches\": {REFRESH_BATCHES},\n    \"rows_per_batch\": {BATCH_ROWS},\n    \
         \"full_cv_seconds\": {full_refresh_seconds:.6},\n    \
         \"incremental_seconds\": {incremental_refresh_seconds:.6},\n    \
         \"refresh_speedup\": {refresh_speedup:.2}\n  }},\n  \
         \"windowed_ingest\": {{\n    \"rows\": {ROWS},\n    \
         \"ring_slices\": {WINDOW_SLICES},\n    \"advances\": {WINDOW_EPOCHS},\n    \
         \"seconds\": {windowed_seconds:.6},\n    \
         \"rows_per_second\": {:.0},\n    \
         \"advance_retire_1024_rows_micros\": {advance_micros:.1}\n  }}\n}}\n",
        ROWS as f64 / scalar_seconds,
        ROWS as f64 / fast_seconds,
        simd_json.join(",\n"),
        ingest_json.join(",\n"),
        best.0,
        queries as f64 / concurrent_seconds,
        latency_p50 * 1e3,
        latency_p99 * 1e3,
        latency_max * 1e3,
        rebuild_p50 * 1e3,
        rebuild_p99 * 1e3,
        rebuild_max * 1e3,
        ROWS as f64 / windowed_seconds,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine_throughput.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }

    // Criterion micro-benchmarks on the merge and query hot paths.
    let sharded = ShardedIngest::new(&template, 4).expect("shards");
    sharded.ingest_parallel(&data);
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.bench_function("merge_4_shards", |b| {
        b.iter(|| black_box(sharded.merged().expect("merge")))
    });
    group.bench_function("catalog_query", |b| {
        b.iter(|| black_box(catalog.selectivity("attr0", 0.2, 0.45).expect("registered")))
    });
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
