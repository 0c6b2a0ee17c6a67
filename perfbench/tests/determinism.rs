//! The benchmark's own checks: one seed gives the same inputs, counts and
//! error on every run, another seed gives other inputs, and every run
//! prints exactly the metrics `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build makes the cross-validation runs slow).

use wavedens_perfbench::layers::PER_LAYER;
use wavedens_perfbench::trace::Tracer;
use wavedens_perfbench::workloads::Outcome;
use wavedens_perfbench::{inputs, run, Budget, Workload, END_TO_END};

/// Cycles that make a short run of each workload: enough for a first
/// cycle's counts, an oracle checkpoint and, on `fresh_stream`, sampled
/// batches and reader blocks. The replica round trip follows every run.
fn short(workload: Workload) -> Budget {
    Budget::Cycles(match workload {
        Workload::BulkLoad => 2,
        Workload::FreshStream => 700,
    })
}

fn outcome(workload: Workload, seed: u64) -> Outcome {
    workload.run(seed, short(workload), &mut Tracer::new(false))
}

#[test]
fn same_seed_repeats_counts_and_error() {
    for workload in Workload::ALL {
        let (a, b) = (outcome(workload, 7), outcome(workload, 7));
        let name = workload.name();
        assert_eq!(a.checks.failed, 0, "{name}: {:?}", a.checks.notes);
        assert_eq!(a.counts, b.counts, "{name}: counts differ between runs");
        assert!(a.counts.surviving_coefficients > 0, "{name}");
        assert!(a.counts.rebuilds > 0, "{name}");
        assert!(
            a.counts.frame_bytes > 0,
            "{name}: the replica shipped nothing"
        );
        assert_eq!(a.checks.mismatches, 0, "{name}: {:?}", a.checks.notes);
        let (ea, eb) = (a.abs_err.values(), b.abs_err.values());
        assert!(!ea.is_empty(), "{name}: no oracle checkpoint");
        assert_eq!(ea.len(), eb.len(), "{name}");
        for (x, y) in ea.iter().zip(eb) {
            assert!((x - y).abs() <= 1e-12, "{name}: error {x} vs {y}");
        }
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    assert_eq!(inputs::case2(512, 3), inputs::case2(512, 3));
    assert_ne!(inputs::case2(512, 3), inputs::case2(512, 4));
    assert_ne!(inputs::case3(512, 3), inputs::case3(512, 4));
    // The query sets do not depend on the seed.
    assert_eq!(inputs::oracle_ranges(), inputs::oracle_ranges());
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = run(workload, 11, short(workload), false);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{}", workload.name());
        for metric in &report.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        assert!(
            report.correct,
            "{}: {}",
            workload.name(),
            report.meta_line()
        );
        assert_eq!(report.checks.mismatches, 0);
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in Workload::ALL {
        let report = run(workload, 5, short(workload), true);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{}", workload.name());
        for metric in &report.metrics {
            assert!(
                metric.value.is_finite(),
                "{}: {} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        let coverage = report.metrics.iter().find(|m| m.name == "trace.coverage");
        assert!(
            coverage.is_some_and(|c| c.value > 0.0),
            "{}",
            workload.name()
        );
    }
}
