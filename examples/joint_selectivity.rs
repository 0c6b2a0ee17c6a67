//! Joint (2-D) selectivity against the independence assumption: a
//! correlated attribute pair is ingested both as two marginal synopses
//! and as one tensor-product joint synopsis, and rectangle selectivities
//! are compared against the exact empirical answer.
//!
//! On correlated data the product of marginals collapses — it cannot see
//! that the mass sits on the diagonal — while the joint synopsis tracks
//! the truth. The example asserts the ≥ 3× error improvement the joint
//! estimator is expected to deliver. A second, sliding-window pair then
//! sees its stream flip from correlated to anti-correlated, and the
//! example asserts that the pair follows the new regime once the old
//! slice retires.
//!
//! Run with: `cargo run --release --example joint_selectivity`

use rand::Rng;
use wavedens::prelude::*;

fn main() {
    let rows = 8192;
    let noise = 0.05;

    // A strongly correlated pair: y is x plus a little uniform jitter,
    // wrapped back into the unit interval so both marginals stay uniform
    // (the hardest case for the independence assumption — each marginal
    // alone looks featureless).
    let mut rng = seeded_rng(11);
    let pairs: Vec<(f64, f64)> = (0..rows)
        .map(|_| {
            let x: f64 = rng.gen();
            let y = (x + noise * (2.0 * rng.gen::<f64>() - 1.0)).rem_euclid(1.0);
            (x, y)
        })
        .collect();
    let xs: Vec<f64> = pairs.iter().map(|&(x, _)| x).collect();
    let ys: Vec<f64> = pairs.iter().map(|&(_, y)| y).collect();

    // One catalog serves both views. The pair registration requires the
    // member attributes (when registered standalone) to carry the exact
    // same configuration — a mismatch is rejected up front.
    let catalog = SynopsisCatalog::new();
    let config = SynopsisConfig::default()
        .with_expected_rows(rows)
        .with_shards(4)
        .with_rule(ThresholdRule::Hard);
    catalog
        .register("pairs.x", config.clone())
        .expect("register x");
    catalog
        .register("pairs.y", config.clone())
        .expect("register y");
    catalog
        .register_pair("pairs.x", "pairs.y", config)
        .expect("register pair");

    catalog.ingest_parallel("pairs.x", &xs).expect("ingest x");
    catalog.ingest_parallel("pairs.y", &ys).expect("ingest y");
    catalog
        .ingest_pair_parallel("pairs.x", "pairs.y", &pairs)
        .expect("ingest pair");

    let exact = |xr: (f64, f64), yr: (f64, f64)| {
        pairs
            .iter()
            .filter(|(x, y)| xr.0 <= *x && *x < xr.1 && yr.0 <= *y && *y < yr.1)
            .count() as f64
            / rows as f64
    };

    // Diagonal rectangles (where the mass lives) and off-diagonal ones
    // (where there is almost none): the product of marginals is blind to
    // the difference, the joint synopsis is not.
    let queries = [
        ((0.20, 0.45), (0.20, 0.45)),
        ((0.55, 0.80), (0.55, 0.80)),
        ((0.05, 0.30), (0.05, 0.30)),
        ((0.10, 0.35), (0.60, 0.85)),
        ((0.60, 0.90), (0.10, 0.30)),
    ];

    println!(
        "{:26} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "rectangle", "exact", "joint", "product", "|j err|", "|p err|"
    );
    let mut joint_error = 0.0;
    let mut product_error = 0.0;
    for (xr, yr) in queries {
        let truth = exact(xr, yr);
        let joint = catalog
            .joint_selectivity("pairs.x", "pairs.y", xr, yr)
            .expect("registered pair");
        let product = catalog
            .selectivity("pairs.x", xr.0, xr.1)
            .expect("registered")
            * catalog
                .selectivity("pairs.y", yr.0, yr.1)
                .expect("registered");
        joint_error += (joint - truth).abs();
        product_error += (product - truth).abs();
        println!(
            "[{:4.2},{:4.2}]x[{:4.2},{:4.2}]      {truth:9.4} {joint:9.4} {product:9.4} {:9.4} {:9.4}",
            xr.0,
            xr.1,
            yr.0,
            yr.1,
            (joint - truth).abs(),
            (product - truth).abs()
        );
    }
    let improvement = product_error / joint_error;
    println!(
        "\ntotal |error|: joint {joint_error:.4}, independence product \
         {product_error:.4} — {improvement:.1}× lower with the joint synopsis"
    );
    assert!(
        improvement >= 3.0,
        "joint synopsis should beat the independence assumption by >= 3x, got {improvement:.2}x"
    );

    // The joint sketch ships between nodes like the 1-D ones, in the same
    // frame format: it stores hard-threshold survivors coefficient-sparse, so
    // the compacted frame is a fraction of the dense encoding and the
    // restored sketch estimates identically.
    let pair = catalog.pair("pairs.x", "pairs.y").expect("registered pair");
    let dense_bytes = pair.merged_sketch().expect("merge").to_bytes_dense().len();
    let shipped = catalog
        .ship_pair("pairs.x", "pairs.y", CompactionPolicy::InactiveTail)
        .expect("ship");
    let restored = TensorSketch::from_bytes(&shipped).expect("round-trip");
    println!(
        "shipped the joint sketch as {} bytes (dense frame: {} bytes, \
         {:.1}× larger); {} rows, {} dims restored",
        shipped.len(),
        dense_bytes,
        dense_bytes as f64 / shipped.len() as f64,
        restored.count(),
        restored.dims(),
    );
    assert!(
        shipped.len() * 5 <= dense_bytes,
        "compacted tensor frame should be at least 5x smaller than dense"
    );

    // A pair whose regime drifts, over a sliding window of two slices:
    // one slice of the correlated pairs, then one of the same pairs
    // mirrored to anti-correlated. Once the correlated slice retires, the
    // mass leaves the diagonal for the anti-diagonal, as a windowed
    // marginal forgets its old regime (see `windowed_stream.rs`).
    let windowed = SynopsisConfig::default()
        .with_expected_rows(rows)
        .with_shards(4)
        .with_rule(ThresholdRule::Hard)
        .with_window(WindowPolicy::SlidingSlices(2));
    catalog
        .register_pair("drift.x", "drift.y", windowed)
        .expect("register windowed pair");
    let drift = catalog.pair("drift.x", "drift.y").expect("registered pair");
    let diagonal = ((0.05, 0.30), (0.05, 0.30));
    let anti_diagonal = ((0.05, 0.30), (0.70, 0.95));
    let masses = || {
        let mass = |(xr, yr)| {
            catalog
                .joint_selectivity("drift.x", "drift.y", xr, yr)
                .expect("registered pair")
        };
        (mass(diagonal), mass(anti_diagonal))
    };
    catalog
        .ingest_pair_parallel("drift.x", "drift.y", &pairs)
        .expect("ingest correlated regime");
    let correlated = masses();
    assert!(drift.advance(), "a windowed pair advances");
    let mirrored: Vec<(f64, f64)> = pairs.iter().map(|&(x, y)| (x, 1.0 - y)).collect();
    catalog
        .ingest_pair_parallel("drift.x", "drift.y", &mirrored)
        .expect("ingest anti-correlated regime");
    assert!(drift.advance(), "a windowed pair advances");
    let anti = masses();
    println!(
        "windowed pair: diagonal / anti-diagonal mass {:.3} / {:.3} while correlated, \
         {:.3} / {:.3} after the correlated slice retired ({} live rows)",
        correlated.0,
        correlated.1,
        anti.0,
        anti.1,
        drift.rows()
    );
    assert!(
        correlated.0 > 0.15 && correlated.1 < 0.05,
        "the correlated regime puts its mass on the diagonal: {correlated:?}"
    );
    assert!(
        anti.0 < 0.05 && anti.1 > 0.15,
        "the window must follow the anti-correlated regime: {anti:?}"
    );
    assert_eq!(drift.rows(), rows, "only the anti-correlated slice is live");
}
