//! Merge semantics of the coefficient sketch and concurrency of the
//! multi-attribute synopsis engine.
//!
//! The load-bearing property: splitting a sample into shards, sketching
//! each shard independently and merging reproduces the single-stream
//! fit — near-equal coefficients (floating-point summation order is the
//! only difference) and identical threshold selections. Everything the
//! `wavedens-engine` crate does (parallel sharded ingest, shipping
//! sketches between nodes, catalog rebuilds) leans on it.

use proptest::prelude::*;
use wavedens::estimation::{
    cross_validate, CoefficientSketch, EmpiricalCoefficients, ThresholdRule,
};
use wavedens::prelude::*;
use wavedens::selectivity::{EmpiricalSelectivity, SelectivityEstimator};

/// Splits `data` across `shards` sketches according to `assignment`,
/// merges them, and returns the merged sketch.
fn sharded_sketch(
    template: &CoefficientSketch,
    data: &[f64],
    assignment: &[usize],
    shards: usize,
) -> CoefficientSketch {
    let mut sketches: Vec<CoefficientSketch> = vec![template.clone(); shards];
    for (&x, &shard) in data.iter().zip(assignment) {
        sketches[shard % shards].push(x);
    }
    let mut merged = sketches.remove(0);
    for sketch in &sketches {
        merged.merge(sketch).expect("compatible by construction");
    }
    merged
}

fn assert_coefficients_close(a: &EmpiricalCoefficients, b: &EmpiricalCoefficients) {
    let level_pairs =
        std::iter::once((a.scaling(), b.scaling())).chain(a.details().iter().zip(b.details()));
    for (la, lb) in level_pairs {
        assert_eq!(la.level, lb.level);
        assert_eq!(la.k_start, lb.k_start);
        for (va, vb) in la.values.iter().zip(&lb.values) {
            assert!(
                (va - vb).abs() <= 1e-10 * (1.0 + vb.abs()),
                "level {}: coefficient {va} vs {vb}",
                la.level
            );
        }
        for (sa, sb) in la.sum_squares.iter().zip(lb.sum_squares.iter()) {
            assert!(
                (sa - sb).abs() <= 1e-10 * (1.0 + sb.abs()),
                "level {}: sum of squares {sa} vs {sb}",
                la.level
            );
        }
    }
}

proptest! {
    // Pinned case count and generator seed: tier-1 must be reproducible
    // run-to-run.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0x5EED_BA5E_2026_0003))]

    /// Sketching any k-way split of a sample and merging reproduces the
    /// single-stream estimate: coefficients near-equal, cross-validated
    /// threshold selections identical, density estimates pointwise equal
    /// to round-off.
    #[test]
    fn sharded_merge_reproduces_single_stream_estimate(
        data in prop::collection::vec(0.0_f64..1.0, 120..400),
        assignment in prop::collection::vec(0_usize..8, 400),
        shards in 1_usize..5,
        rule_index in 0_usize..2,
    ) {
        let rule = if rule_index == 0 { ThresholdRule::Soft } else { ThresholdRule::Hard };
        let template = CoefficientSketch::sized_for(data.len()).expect("template");
        let mut single = template.clone();
        single.push_batch(&data);
        let merged = sharded_sketch(&template, &data, &assignment, shards);
        prop_assert_eq!(merged.count(), single.count());

        // Accumulation state: near-equal (summation order differs).
        let merged_coefficients = merged.snapshot().expect("nonempty");
        let single_coefficients = single.snapshot().expect("nonempty");
        assert_coefficients_close(&merged_coefficients, &single_coefficients);

        // Model selection: the same thresholds are chosen.
        let cv_merged = cross_validate(&merged_coefficients, rule);
        let cv_single = cross_validate(&single_coefficients, rule);
        prop_assert_eq!(cv_merged.j1, cv_single.j1, "data-driven ĵ1 must agree");
        for (lm, ls) in cv_merged.levels.iter().zip(&cv_single.levels) {
            prop_assert_eq!(lm.level, ls.level);
            prop_assert_eq!(lm.kept, ls.kept, "level {}: active sets differ", lm.level);
            prop_assert!(
                (lm.lambda - ls.lambda).abs() <= 1e-9 * (1.0 + ls.lambda.abs()),
                "level {}: λ̂ {} vs {}", lm.level, lm.lambda, ls.lambda
            );
        }

        // End to end: the final density estimates agree everywhere.
        let est_merged = merged.estimate(rule).expect("estimate");
        let est_single = single.estimate(rule).expect("estimate");
        prop_assert_eq!(est_merged.highest_level(), est_single.highest_level());
        for i in 0..=40 {
            let x = i as f64 / 40.0;
            let (a, b) = (est_merged.evaluate(x), est_single.evaluate(x));
            prop_assert!((a - b).abs() <= 1e-8 * (1.0 + b.abs()), "f̂({x}): {a} vs {b}");
        }
    }

    /// A sketch serialized on one "node" and merged on another behaves
    /// exactly like the locally accumulated sketch.
    #[test]
    fn shipped_sketches_merge_like_local_ones(
        data in prop::collection::vec(0.0_f64..1.0, 64..200),
        at in 1_usize..63,
    ) {
        let split = at.min(data.len() - 1);
        let template = CoefficientSketch::sized_for(data.len()).expect("template");
        let mut local = template.clone();
        local.push_batch(&data);

        let mut here = template.clone();
        here.push_batch(&data[..split]);
        let mut there = template.clone();
        there.push_batch(&data[split..]);
        // Ship `there` across the wire and merge where it lands.
        let shipped = CoefficientSketch::from_bytes(&there.to_bytes()).expect("round-trip");
        here.merge(&shipped).expect("compatible");
        prop_assert_eq!(here.count(), local.count());
        let a = here.snapshot().expect("nonempty");
        let b = local.snapshot().expect("nonempty");
        assert_coefficients_close(&a, &b);
    }
}

/// Several attributes ingested and queried from many threads at once.
/// The fallible catalog query answers from `refresh()`, so a query that
/// finds a stale snapshot waits for its rebuild, and the readers share
/// one rebuild per stale snapshot; the final estimates match the
/// empirical ground truth per attribute.
#[test]
fn catalog_serves_concurrent_ingest_and_queries() {
    let catalog = SynopsisCatalog::new();
    let attributes = ["alpha", "beta", "gamma"];
    let config = SynopsisConfig::default()
        .with_expected_rows(4096)
        .with_shards(2);
    for name in attributes {
        catalog.register(name, config.clone()).expect("register");
    }

    // Per-attribute data with distinct marginals, generated up front so
    // the ground truth is known exactly.
    let streams: Vec<Vec<f64>> = attributes
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let target = SineUniformMixture::paper();
            let mut rng = seeded_rng(100 + i as u64);
            let raw = DependenceCase::NonCausalMa.simulate(&target, 4096, &mut rng);
            // Shift each attribute so their densities differ.
            raw.iter().map(|x| (x + 0.13 * i as f64).fract()).collect()
        })
        .collect();

    std::thread::scope(|scope| {
        // One writer per attribute, ingesting in bursts.
        for (name, stream) in attributes.iter().zip(&streams) {
            let catalog = &catalog;
            scope.spawn(move || {
                for chunk in stream.chunks(512) {
                    catalog.ingest(name, chunk).expect("registered");
                }
            });
        }
        // Readers hammer all attributes while the writers run; answers
        // must always be well-formed probabilities.
        for reader in 0..2 {
            let catalog = &catalog;
            scope.spawn(move || {
                for i in 0..150 {
                    let name = attributes[(reader + i) % attributes.len()];
                    let lo = (i % 50) as f64 / 100.0;
                    let s = catalog.selectivity(name, lo, lo + 0.3).expect("registered");
                    assert!((0.0..=1.0).contains(&s), "{name}: selectivity {s}");
                }
            });
        }
    });

    // Quiesced: every attribute has all its rows, and the refreshed
    // synopses agree with the exact per-attribute selectivities.
    assert_eq!(catalog.total_rows(), 3 * 4096);
    for (name, stream) in attributes.iter().zip(&streams) {
        let truth = EmpiricalSelectivity::new(stream).expect("finite");
        for (lo, hi) in [(0.1, 0.35), (0.4, 0.7), (0.05, 0.95)] {
            let estimated = catalog.selectivity(name, lo, hi).expect("registered");
            let exact = truth.estimate(&RangeQuery::new(lo, hi).expect("valid"));
            assert!(
                (estimated - exact).abs() < 0.05,
                "{name} [{lo}, {hi}]: {estimated} vs exact {exact}"
            );
        }
    }
    // Each attribute rebuilt at least once for the final queries, but far
    // fewer times than the number of queries issued.
    for name in attributes {
        let rebuilds = catalog.attribute(name).expect("registered").rebuild_count();
        assert!(
            (1..=30).contains(&rebuilds),
            "{name}: {rebuilds} rebuilds for ~160 queries"
        );
    }
}

/// The single-attribute `WaveletSelectivity` view and a one-shard catalog
/// attribute are the same machinery: identical answers, bit for bit.
#[test]
fn wavelet_selectivity_is_a_catalog_attribute_view() {
    let target = SineUniformMixture::paper();
    let mut rng = seeded_rng(7);
    let data = DependenceCase::ExpandingMap.simulate(&target, 2048, &mut rng);

    let synopsis = WaveletSelectivity::fit(&data).expect("fit");
    let catalog = SynopsisCatalog::new();
    let config = SynopsisConfig::default()
        .with_expected_rows(data.len())
        .with_shards(1);
    catalog.register("attr", config).expect("register");
    // Mirror the synopsis' chunked streaming ingestion exactly.
    let attribute = catalog.attribute("attr").expect("registered");
    attribute.ingest_stream(data.iter().copied());

    for (lo, hi) in [(0.0, 0.25), (0.2, 0.5), (0.33, 0.34), (0.0, 1.0)] {
        let q = RangeQuery::new(lo, hi).expect("valid");
        assert_eq!(
            synopsis.estimate(&q),
            catalog.selectivity("attr", lo, hi).expect("registered"),
            "[{lo}, {hi}]"
        );
    }
}
