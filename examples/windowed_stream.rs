//! Windowed & decaying synopses on a drifting stream: a sliding-window
//! attribute tracks the current distribution while the lifetime attribute
//! averages over retired history, and the current window slice ships
//! between nodes as a self-describing frame.
//!
//! Run with: `cargo run --release --example windowed_stream`

use wavedens::engine::WindowPolicy;
use wavedens::prelude::*;

fn regime_stream(n: usize, seed: u64, offset: f64, scale: f64) -> Vec<f64> {
    let mut rng = seeded_rng(seed);
    DependenceCase::NonCausalMa
        .simulate(&SineUniformMixture::paper(), n, &mut rng)
        .iter()
        .map(|x| offset + scale * x)
        .collect()
}

fn main() {
    let rows_per_epoch = 4096;
    let catalog = SynopsisCatalog::new();
    let base = SynopsisConfig::default()
        .with_expected_rows(rows_per_epoch)
        .with_shards(4);
    // The same column, summarized under three history policies.
    catalog
        .register("clicks.latency", base.clone())
        .expect("register");
    catalog
        .register(
            "clicks.latency@window",
            base.clone().with_window(WindowPolicy::SlidingSlices(2)),
        )
        .expect("register");
    catalog
        .register(
            "clicks.latency@decay",
            base.with_window(WindowPolicy::ExponentialDecay(0.5)),
        )
        .expect("register");
    let names = [
        "clicks.latency",
        "clicks.latency@window",
        "clicks.latency@decay",
    ];

    // Three epochs of a drifting workload: the latency distribution
    // migrates from the low end of the domain to the high end. One
    // advance per epoch boundary closes the current time slice.
    let epochs = [
        regime_stream(rows_per_epoch, 50, 0.0, 0.3),
        regime_stream(rows_per_epoch, 51, 0.3, 0.4),
        regime_stream(rows_per_epoch, 52, 0.7, 0.3),
    ];
    for (epoch, stream) in epochs.iter().enumerate() {
        if epoch > 0 {
            for name in names {
                catalog.advance(name).expect("registered");
            }
        }
        for name in names {
            catalog.ingest_parallel(name, stream).expect("registered");
        }
    }

    // The last epoch lives in [0.7, 1.0]. The lifetime synopsis still
    // blends all three epochs; the windowed one (2 slices) holds only the
    // last two; the decayed one keeps everything but at weights 1, ½, ¼.
    println!(
        "{:24} {:>8} {:>8} {:>8}",
        "synopsis", "rows", "P(hot)", "P(cold)"
    );
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for name in names {
        let synopsis = catalog.attribute(name).expect("registered");
        let p_hot = catalog.selectivity(name, 0.7, 1.0).expect("registered");
        let p_cold = catalog.selectivity(name, 0.0, 0.3).expect("registered");
        println!(
            "{:24} {:>8} {:>8.4} {:>8.4}",
            name,
            synopsis.rows(),
            p_hot,
            p_cold
        );
        hot.push(p_hot);
        cold.push(p_cold);
    }
    // Both windowed policies lean toward the current regime where the
    // lifetime synopsis blends all three epochs evenly…
    assert!(
        hot[1] > hot[0] + 0.1 && hot[2] > hot[0] + 0.1,
        "windowed policies must favor the hot regime: {hot:?}"
    );
    assert!(
        (hot[0] - 1.0 / 3.0).abs() < 0.05,
        "lifetime blends the three epochs evenly, got {}",
        hot[0]
    );
    // …and they forget the retired cold regime in their characteristic
    // ways: the sliding window drops it outright, the decayed ring keeps
    // a down-weighted trace of it, the lifetime keeps it all.
    assert!(
        cold[1] < 0.02 && cold[1] < cold[2] && cold[2] < cold[0],
        "cold-regime mass must order window < decay < lifetime: {cold:?}"
    );

    // The current slice of a windowed attribute ships as a windowed frame.
    // A window-aware peer restores the slice *and* its ring coordinates; a
    // peer without a ring decodes the same bytes as a plain sketch.
    let frame = catalog
        .ship_window_slice("clicks.latency@window")
        .expect("windowed attribute");
    let (slice, meta) =
        CoefficientSketch::from_bytes_with_window(&frame).expect("window-aware decode");
    let meta = meta.expect("windowed frames carry window metadata");
    let plain = CoefficientSketch::from_bytes(&frame).expect("plain decode");
    println!(
        "\nshipped current slice: {} bytes, {} rows, age {}/{} at advance {} \
         (plain decode agrees: {})",
        frame.len(),
        slice.count(),
        meta.slice_age,
        meta.ring_slices,
        meta.advances,
        plain.count() == slice.count()
    );
    assert_eq!(slice.count(), rows_per_epoch);
    assert_eq!(meta.advances, 2);
}
