//! The replica oracle. After its loop every run, traced or not, ships
//! the workload's state the way a replica receives it — `InactiveTail`
//! compaction, wire frame, decode, rebuild — and checks that the rebuilt
//! snapshots answer exactly as the primary's. `InactiveTail` compaction
//! is documented as pointwise-identical, so an answer that differs by
//! more than [`REPLICA_TOLERANCE`](crate::report::REPLICA_TOLERANCE) is a
//! defect, and the command exits 3.
//!
//! The round trip is also where the codec, 2-D tensor and joint layers
//! are timed: in a traced run every step runs inside its layer's span.

use crate::inputs::{latency_ranges, rectangles};
use crate::layers::{block_median_ns, LayerMetrics, LAYER_BLOCKS};
use crate::report::{Checks, Samples};
use crate::trace::Tracer;
use wavedens_core::{CoefficientSketch, CompactionPolicy, TensorSketch};
use wavedens_engine::{RefreshedJoint, RefreshedSynopsis, SynopsisCatalog, SynopsisConfig};

/// The compaction a primary ships with.
const POLICY: CompactionPolicy = CompactionPolicy::InactiveTail;
/// Lag pairs the 2-D round trip ingests at most.
const JOINT_PAIRS: usize = 1 << 16;
/// CDF grid points per axis of a joint snapshot.
const JOINT_POINTS: usize = 257;

/// Ships column `name` of `catalog` and compares the replica's answers
/// over `ranges` with the primary's latest snapshot. Returns the frame's
/// bytes.
pub fn check_column(
    checks: &mut Checks,
    tracer: &mut Tracer,
    request: u64,
    catalog: &SynopsisCatalog,
    name: &str,
    config: &SynopsisConfig,
    ranges: &[(f64, f64)],
) -> usize {
    let mut round_trip = || {
        let attribute = catalog.attribute(name)?;
        let primary = attribute.cached()?;
        let merged = checks.ok("merge", attribute.merged_sketch())?;
        let compacted = tracer.span("sketch.compact", request, || {
            merged.compact(POLICY, config.rule)
        });
        let compacted = checks.ok("compact", compacted)?;
        let frame = tracer.span("sketch.encode", request, || compacted.to_bytes());
        let decoded = tracer.span("sketch.decode", request, || {
            CoefficientSketch::from_bytes(&frame)
        });
        let decoded = checks.ok("decode", decoded)?;
        let replica = tracer.span("synopsis.build", request, || {
            RefreshedSynopsis::build(&decoded, config.rule, config.cdf_points)
        });
        let replica = checks.ok("replica build", replica)?;
        for &(lo, hi) in ranges {
            checks.replica(
                name,
                replica.selectivity(lo, hi),
                primary.selectivity(lo, hi),
            );
        }
        Some(frame.len())
    };
    let bytes = round_trip();
    checks.record(bytes.is_some(), || {
        format!("{name}: no snapshot to ship, or the round trip failed")
    });
    bytes.unwrap_or(0)
}

/// Builds a joint primary from the lag pairs `(x_t, x_{t+1})` of `rows`
/// (in a tensor sized like the workload's synopses), ships it, and compares the
/// replica's answers over the rectangles of `ranges` with the primary's.
/// A traced run also records the tensor ingest rate and the joint lookup
/// latency. Returns the frame's bytes.
pub fn check_joint(
    checks: &mut Checks,
    tracer: &mut Tracer,
    layers: &mut LayerMetrics,
    request: u64,
    rows: &[f64],
    config: &SynopsisConfig,
    ranges: &[(f64, f64)],
) -> usize {
    let pairs: Vec<(f64, f64)> = rows
        .windows(2)
        .take(JOINT_PAIRS)
        .map(|w| (w[0], w[1]))
        .collect();
    let mut round_trip = || {
        let mut tensor = checks.ok(
            "tensor",
            TensorSketch::sized_for_pairs(config.expected_rows.min(JOINT_PAIRS)),
        )?;
        tracer.span("tensor.push", request, || tensor.push_pairs(&pairs));
        let primary = tracer.span("joint.build", request, || {
            RefreshedJoint::build(&tensor, config.rule, JOINT_POINTS)
        });
        let primary = checks.ok("joint build", primary)?;
        let compacted = tracer.span("tensor.compact", request, || {
            tensor.compact(POLICY, config.rule)
        });
        let compacted = checks.ok("tensor compact", compacted)?;
        let frame = tracer.span("tensor.encode", request, || compacted.to_bytes());
        let decoded = tracer.span("tensor.decode", request, || {
            TensorSketch::from_bytes(&frame)
        });
        let decoded = checks.ok("tensor decode", decoded)?;
        let replica = tracer.span("joint.build", request, || {
            RefreshedJoint::build(&decoded, config.rule, JOINT_POINTS)
        });
        let replica = checks.ok("replica joint build", replica)?;
        for &(xr, yr) in &rectangles(ranges) {
            checks.replica(
                "joint",
                replica.selectivity(xr, yr),
                primary.selectivity(xr, yr),
            );
        }
        Some((frame.len(), replica))
    };
    let shipped = round_trip();
    checks.record(shipped.is_some(), || "joint round trip failed".to_string());
    let Some((bytes, replica)) = shipped else {
        return 0;
    };
    if tracer.enabled() {
        let push_s: Samples = tracer.durations("tensor.push").into_iter().collect();
        layers.set(
            "tensor.push_pairs_per_s",
            pairs.len() as f64 / push_s.median(),
        );
        let latency = latency_ranges();
        let rects = rectangles(&latency);
        layers.set(
            "joint.lookup_ns",
            block_median_ns(LAYER_BLOCKS, &latency, |call, _, _| {
                let (xr, yr) = rects[call % rects.len()];
                Some(replica.selectivity(xr, yr))
            }),
        );
    }
    bytes
}
