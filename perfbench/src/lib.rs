//! End-to-end and per-layer benchmark of the wavedens synopsis engine.
//!
//! Two closed-loop workloads drive only the public API of
//! `wavedens-engine`, `wavedens-core` and `wavedens-wavelets`, so each
//! layer is timed from the outside by the calls into it. An untraced run
//! reports the end-to-end metrics; a traced run reports the per-layer
//! metrics. See `README.md` for why each workload exists and which layer
//! should move which end-to-end metric.

pub mod inputs;
pub mod layers;
pub mod replica;
pub mod report;
pub mod trace;
pub mod workloads;

use report::{json_number, json_string, peak_rss_mib, Report};
use std::time::Instant;
use trace::Tracer;
use workloads::Outcome;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkLoad,
    FreshStream,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Self::BulkLoad, Self::FreshStream];

    pub fn name(self) -> &'static str {
        match self {
            Self::BulkLoad => "bulk_load",
            Self::FreshStream => "fresh_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload's inputs, set-ups and loop.
    pub fn run(self, seed: u64, budget: Budget, tracer: &mut Tracer) -> Outcome {
        match self {
            Self::BulkLoad => workloads::bulk_load(seed, budget, tracer),
            Self::FreshStream => workloads::fresh_stream(seed, budget, tracer),
        }
    }
}

/// How long a workload loop runs: measured seconds, or an exact number
/// of cycles (which makes every count repeat exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Seconds(f64),
    Cycles(usize),
}

impl Budget {
    /// Whether another cycle starts.
    pub fn running(self, start: Instant, cycles: usize) -> bool {
        match self {
            Self::Seconds(seconds) => start.elapsed().as_secs_f64() < seconds,
            Self::Cycles(limit) => cycles < limit,
        }
    }
}

/// The end-to-end metrics, with units, every untraced run reports.
/// (`freshness_ms_p50`, `query_ns_p50` and `query_ns_tail` are per-layer
/// metrics: across runs they moved too far to gate; see
/// `perfbench/STEADINESS.md`.)
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("freshness_ms_mean", "ms"),
    ("freshness_ms_tail", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("query_ns_mean", "ns"),
    ("selectivity_abs_err", "1"),
    ("peak_rss_mb", "MiB"),
];

/// A snapshot whose mean absolute error exceeds this is wrong, not
/// merely imprecise: the estimator's error on these sample sizes is
/// well below 0.01.
pub const ABS_ERR_LIMIT: f64 = 0.05;

/// One benchmark run: untraced (end-to-end metrics) or traced
/// (per-layer metrics).
pub fn run(workload: Workload, seed: u64, budget: Budget, trace: bool) -> Report {
    let mut report = Report::default();
    let outcome = if trace {
        run_traced(workload, seed, budget, &mut report)
    } else {
        let outcome = workload.run(seed, budget, &mut Tracer::new(false));
        end_to_end(&mut report, &outcome);
        outcome
    };
    metadata(&mut report, workload, seed, budget, trace, &outcome);
    let abs_err = outcome.abs_err.mean();
    report.checks.merge(outcome.checks);
    let all_finite = report.metrics.iter().all(|m| m.value.is_finite());
    report.correct = report.checks.failed == 0
        && report.checks.mismatches == 0
        && abs_err < ABS_ERR_LIMIT
        && all_finite;
    report
}

fn end_to_end(report: &mut Report, outcome: &Outcome) {
    report.median("setup_s", &outcome.setup, 1.0, "s");
    let freshness = &outcome.freshness_all;
    report.metric("freshness_ms_mean", freshness.mean_seconds() * 1e3, "ms");
    report.meta(
        "freshness_ms_mean.samples",
        freshness.operations.to_string(),
    );
    report.tail("freshness_ms_tail", &outcome.freshness, 1e3, "ms");
    report.metric("ingest_rows_per_s", outcome.ingest.rate(), "rows/s");
    report.meta(
        "ingest_rows_per_s.samples",
        outcome.ingest.operations.to_string(),
    );
    report.mean("query_ns_mean", &outcome.query_ns, "ns");
    report.mean("selectivity_abs_err", &outcome.abs_err, "1");
    report.metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB");
}

/// The traced run: the whole budget with every span recorded, then the
/// per-layer metrics from the spans, the replays and the probes.
fn run_traced(workload: Workload, seed: u64, budget: Budget, report: &mut Report) -> Outcome {
    let mut tracer = Tracer::new(true);
    let mut outcome = workload.run(seed, budget, &mut tracer);

    let basis_s = layers::probe_seconds(
        || (),
        |_| {
            std::hint::black_box(
                wavedens_core::WaveletBasis::new(wavedens_core::WaveletFamily::Symmlet(8))
                    .expect("Symmlet 8 basis"),
            );
        },
    );
    let layers = &mut outcome.layers;
    layers.set("wavelets.basis_build_ms", basis_s * 1e3);
    layers.set("wavelets.basis_builds", outcome.register.median() / basis_s);
    layers.set(
        "cv.surviving_coefficients",
        outcome.counts.surviving_coefficients as f64,
    );
    layers.set("cv.highest_level", f64::from(outcome.counts.highest_level));
    layers.set(
        "synopsis.rebuilds",
        outcome.counts.rebuilds as f64 / outcome.cycles.max(1) as f64,
    );
    layers.set("freshness_ms_p50", outcome.freshness.median() * 1e3);
    layers.set("query_ns_p50", outcome.query_ns.median());
    let query_tail = outcome.query_ns.tail();
    layers.set("query_ns_tail", query_tail.value);
    report.meta(
        "query_ns_tail.percentile",
        json_number(query_tail.percentile),
    );
    report.meta("query_ns_tail.samples", query_tail.samples.to_string());
    layers.set("sketch.frame_bytes", outcome.counts.frame_bytes as f64);
    layers.set("trace.coverage", tracer.coverage("cycle"));
    let span_ns = trace::span_cost_ns();
    layers.set("trace.overhead", tracer.overhead("cycle", span_ns));
    report.meta("trace.span_cost_ns", json_number(span_ns));
    let entries: Vec<_> = layers.entries().collect();
    for (name, unit) in layers::PER_LAYER {
        let found = entries.iter().find(|(n, _, _)| *n == name);
        report.metric(name, found.map_or(f64::NAN, |e| e.1), unit);
        if let Some((_, _, source)) = found {
            report.meta(&format!("{name}.source"), json_string(source));
        }
    }
    // Beside the package's sources, wherever the run starts from.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{seed}.jsonl", workload.name()));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.meta("trace_file", json_string(&path.display().to_string())),
        Err(err) => report.meta("trace_file_error", json_string(&err.to_string())),
    }
    report.meta("trace.spans", tracer.spans().len().to_string());
    outcome
}

/// Which build and host produced the numbers, and what stands behind
/// each of them.
fn metadata(
    report: &mut Report,
    workload: Workload,
    seed: u64,
    budget: Budget,
    trace: bool,
    outcome: &Outcome,
) {
    let nproc = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    report.meta("workload", json_string(workload.name()));
    report.meta("seed", seed.to_string());
    report.meta(
        "budget",
        json_string(&match budget {
            Budget::Seconds(s) => format!("{s} s"),
            Budget::Cycles(c) => format!("{c} cycles"),
        }),
    );
    report.meta("trace", trace.to_string());
    report.meta("nproc", nproc.to_string());
    report.meta(
        "pool_threads",
        workpool::WorkPool::global().threads().to_string(),
    );
    // The `simd-intrinsics` kernels are built in and the CPU runs them.
    report.meta(
        "simd_intrinsics_available",
        wavedens_wavelets::kernels::intrinsics_available().to_string(),
    );
    report.meta(
        "kernel_backend",
        json_string(wavedens_wavelets::kernels::active_backend().name()),
    );
    report.meta(
        "build_profile",
        json_string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    report.meta("inputs_s", json_number(outcome.inputs_s));
    report.meta("cycles", outcome.cycles.to_string());
    report.meta("setups", outcome.setup.len().to_string());
    report.meta("abs_err.samples", outcome.abs_err.len().to_string());
    report.meta("counts.frame_bytes", outcome.counts.frame_bytes.to_string());
    report.meta(
        "counts.surviving_coefficients",
        outcome.counts.surviving_coefficients.to_string(),
    );
    report.meta(
        "counts.highest_level",
        outcome.counts.highest_level.to_string(),
    );
    report.meta("counts.rebuilds", outcome.counts.rebuilds.to_string());
    report.meta("abs_err.mean", json_number(outcome.abs_err.mean()));
}
