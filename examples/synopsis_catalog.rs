//! The concurrent multi-attribute synopsis engine: several table columns
//! ingested and queried at once, with sharded sketch ingestion and
//! atomically swapped synopsis caches.
//!
//! Run with: `cargo run --release --example synopsis_catalog`

use std::sync::atomic::{AtomicUsize, Ordering};
use wavedens::prelude::*;
use wavedens::selectivity::{EmpiricalSelectivity, SelectivityEstimator};

fn main() {
    let rows_per_attribute = 8192;
    let attributes = ["orders.amount", "orders.discount", "users.age_scaled"];

    // One weakly dependent stream per attribute, with shifted marginals so
    // the three columns genuinely differ.
    let streams: Vec<Vec<f64>> = attributes
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut rng = seeded_rng(40 + i as u64);
            DependenceCase::NonCausalMa
                .simulate(&SineUniformMixture::paper(), rows_per_attribute, &mut rng)
                .iter()
                .map(|x| (x + 0.21 * i as f64).fract())
                .collect()
        })
        .collect();

    // Register every attribute with a sharded sketch.
    let catalog = SynopsisCatalog::new();
    let config = SynopsisConfig::default()
        .with_expected_rows(rows_per_attribute)
        .with_shards(4);
    for name in attributes {
        catalog.register(name, config.clone()).expect("register");
    }

    // Writers and readers run concurrently on the shared worker pool:
    // each attribute gets a writer task that ingests in bursts and
    // refreshes the attribute's snapshot after each one, while reader
    // tasks answer range queries until every writer is done, from the
    // latest built snapshot (`selectivity_cached`) — the read path never
    // rebuilds and never blocks on cross-validation; it has no answer
    // only before an attribute's first refresh.
    let writers_done = AtomicUsize::new(0);
    workpool::WorkPool::new(attributes.len() + 2).scope(|scope| {
        for (name, stream) in attributes.iter().zip(&streams) {
            let (catalog, writers_done) = (&catalog, &writers_done);
            scope.spawn(move || {
                for chunk in stream.chunks(1024) {
                    catalog.ingest(name, chunk).expect("registered");
                    catalog.refresh(name).expect("refresh");
                }
                writers_done.fetch_add(1, Ordering::Release);
            });
        }
        for reader in 0..2 {
            let (catalog, writers_done) = (&catalog, &writers_done);
            scope.spawn(move || {
                let (mut asked, mut served) = (0usize, 0usize);
                while writers_done.load(Ordering::Acquire) < attributes.len() {
                    let name = attributes[(reader + asked) % attributes.len()];
                    let lo = (asked % 60) as f64 / 100.0;
                    let cached = catalog
                        .selectivity_cached(name, lo, lo + 0.25)
                        .expect("registered");
                    if let Some(s) = cached {
                        assert!((0.0..=1.0).contains(&s));
                        served += 1;
                    }
                    asked += 1;
                }
                println!("reader {reader}: answered {served} of {asked} queries during ingest");
            });
        }
    });

    println!(
        "\ncatalog: {} attributes, {} total rows\n",
        catalog.len(),
        catalog.total_rows()
    );

    // Quiesced accuracy check against the exact per-attribute answers.
    println!(
        "{:20} {:>10} {:>10} {:>10}",
        "query", "estimate", "exact", "|err|"
    );
    for (name, stream) in attributes.iter().zip(&streams) {
        let truth = EmpiricalSelectivity::new(stream).expect("finite stream");
        println!("-- {name}");
        for (lo, hi) in [(0.05, 0.3), (0.4, 0.6), (0.7, 0.95)] {
            let estimate = catalog.selectivity(name, lo, hi).expect("registered");
            let exact = truth.estimate(&RangeQuery::new(lo, hi).expect("valid"));
            println!(
                "[{lo:4.2}, {hi:4.2}]         {estimate:10.4} {exact:10.4} {:10.4}",
                (estimate - exact).abs()
            );
            assert!(
                (estimate - exact).abs() < 0.05,
                "{name} [{lo}, {hi}]: estimate {estimate} too far from exact {exact}"
            );
        }
        let synopsis = catalog.attribute(name).expect("registered");
        println!(
            "   rows {}, shards {}, rebuilds {}",
            synopsis.rows(),
            synopsis.shard_count(),
            synopsis.rebuild_count()
        );
    }

    // The merged sketch of an attribute ships between nodes as a compact
    // byte string and keeps working where it lands. Compaction truncates
    // the detail levels the cross-validation zeroed out wholesale, so the
    // shipped frame shrinks by an order of magnitude while the restored
    // estimate stays pointwise identical.
    let attribute = catalog.attribute(attributes[0]).expect("registered");
    let dense_bytes = attribute
        .merged_sketch()
        .expect("merge")
        .to_bytes_dense()
        .len();
    let shipped = catalog
        .ship(attributes[0], CompactionPolicy::InactiveTail)
        .expect("ship");
    let restored = CoefficientSketch::from_bytes(&shipped).expect("round-trip");
    let here = catalog
        .refresh(attributes[0])
        .expect("registered")
        .expect("nonempty");
    println!(
        "\nshipped {:?} as {} bytes (dense frame: {} bytes, {:.1}× larger); \
         {} rows; estimates identical: {}",
        attributes[0],
        shipped.len(),
        dense_bytes,
        dense_bytes as f64 / shipped.len() as f64,
        restored.count(),
        restored
            .estimate(ThresholdRule::Soft)
            .expect("estimate")
            .evaluate(0.5)
            == here.density().evaluate(0.5)
    );
    assert!(
        shipped.len() * 5 <= dense_bytes,
        "compacted frame should be at least 5x smaller"
    );
}
