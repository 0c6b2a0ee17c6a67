//! The process-wide wavelet table interner (`WaveletBasis::shared`):
//! every default-depth construction path — catalog registration of
//! marginal and joint synopses, frame decoding and basis-less fits —
//! ends on one `Arc` per family, concurrent first calls agree on it,
//! unsupported orders still fail, and explicit table depths stay
//! private to their caller.

use std::sync::{Arc, Mutex};
use wavedens::engine::{SynopsisCatalog, SynopsisConfig};
use wavedens::estimation::{
    CoefficientSketch, CompactionPolicy, EstimatorError, TensorSketch, WaveletDensityEstimator,
};
use wavedens::wavelets::{FilterError, WaveletBasis, WaveletFamily, DEFAULT_TABLE_LEVELS};
use workpool::WorkPool;

fn uniform(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect()
}

#[test]
fn every_default_depth_path_shares_one_table() {
    let shared = WaveletBasis::shared(WaveletFamily::Symmlet(8)).unwrap();
    assert_eq!(shared.table().levels(), DEFAULT_TABLE_LEVELS);

    let catalog = SynopsisCatalog::new();
    let config = SynopsisConfig::default().with_expected_rows(1024);
    let a = catalog.register("a", config.clone()).unwrap();
    let b = catalog.register("b", config.clone()).unwrap();
    let pair = catalog.register_pair("a", "b", config).unwrap();
    a.ingest(&uniform(512));
    pair.ingest(&[(0.25, 0.75), (0.5, 0.5)]);

    let marginal = a.merged_sketch().unwrap();
    let joint = pair.merged_sketch().unwrap();
    let decoded = CoefficientSketch::from_bytes(&a.ship(CompactionPolicy::Dense).unwrap()).unwrap();
    let decoded_joint = TensorSketch::from_bytes(&joint.to_bytes()).unwrap();
    let fit = WaveletDensityEstimator::stcv().fit(&uniform(256)).unwrap();

    for (what, basis) in [
        ("first registered synopsis", marginal.basis()),
        (
            "second registered synopsis",
            b.merged_sketch().unwrap().basis(),
        ),
        ("registered pair axis", joint.basis()),
        ("decoded 1-D frame", decoded.basis()),
        ("decoded 2-D frame", decoded_joint.basis()),
        ("basis-less fit", fit.basis()),
    ] {
        assert!(Arc::ptr_eq(basis, &shared), "{what} holds a private table");
    }
}

#[test]
fn concurrent_first_calls_get_one_arc() {
    // No other test in this binary touches Daubechies 6, so the calls
    // below race for its first build.
    let family = WaveletFamily::Daubechies(6);
    let bases = Mutex::new(Vec::new());
    WorkPool::global().scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let basis = WaveletBasis::shared(family).unwrap();
                bases.lock().unwrap().push(basis);
            });
        }
    });
    let bases = bases.into_inner().unwrap();
    assert_eq!(bases.len(), 8);
    let first = WaveletBasis::shared(family).unwrap();
    assert!(bases.iter().all(|basis| Arc::ptr_eq(basis, &first)));
    assert_eq!(first.family(), family);
}

#[test]
fn unsupported_orders_are_still_rejected() {
    for family in [WaveletFamily::Daubechies(11), WaveletFamily::Symmlet(3)] {
        assert_eq!(
            WaveletBasis::shared(family).unwrap_err(),
            FilterError::UnsupportedOrder(family)
        );
        // Every construction path that goes through the interner fails
        // the same way, on every call.
        assert!(matches!(
            CoefficientSketch::new(family, (0.0, 1.0), 2, 5),
            Err(EstimatorError::Filter(_))
        ));
        assert!(WaveletDensityEstimator::stcv()
            .with_family(family)
            .fit(&uniform(64))
            .is_err());
        assert!(WaveletBasis::shared(family).is_err());
    }
}

#[test]
fn explicit_table_depths_are_fresh_and_unshared() {
    let family = WaveletFamily::Symmlet(8);
    let shared = WaveletBasis::shared(family).unwrap();
    let first = Arc::new(WaveletBasis::with_table_levels(family, DEFAULT_TABLE_LEVELS).unwrap());
    let second = Arc::new(WaveletBasis::with_table_levels(family, DEFAULT_TABLE_LEVELS).unwrap());
    assert!(!Arc::ptr_eq(&first, &shared));
    assert!(!Arc::ptr_eq(&first, &second));
    let coarse = WaveletBasis::with_table_levels(family, 6).unwrap();
    assert_eq!(coarse.table().levels(), 6);
    // Building other depths leaves the interned table as it was.
    let again = WaveletBasis::shared(family).unwrap();
    assert!(Arc::ptr_eq(&again, &shared));
    assert_eq!(again.table().levels(), DEFAULT_TABLE_LEVELS);
}
