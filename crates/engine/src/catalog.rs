//! A named registry of attribute synopses — the multi-attribute face of
//! the engine.
//!
//! A query optimiser tracks selectivities for many table columns at once;
//! the catalog maps attribute names to [`AttributeSynopsis`] instances so
//! one process can ingest and answer for all of them concurrently. The
//! registry itself is read-mostly (attributes are registered once, then
//! ingested into and queried forever), so it sits behind an [`RwLock`]
//! whose write lock is only taken at registration time; every per-row and
//! per-query operation proceeds under the shared read lock against the
//! attribute's own `Arc`.

use crate::joint::JointSynopsis;
use crate::synopsis::{AttributeSynopsis, RefreshedSynopsis, SynopsisConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use wavedens_core::{CompactionPolicy, EstimatorError};

/// Errors raised by the catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The named attribute has not been registered.
    UnknownAttribute {
        /// The attribute name that failed to resolve.
        name: String,
    },
    /// The named attribute pair has not been registered.
    UnknownPair {
        /// The first member of the pair that failed to resolve.
        first: String,
        /// The second member of the pair that failed to resolve.
        second: String,
    },
    /// A registration would give one attribute two *different*
    /// configurations: a pair naming an attribute already registered
    /// standalone with another config, or a standalone attribute already
    /// a member of a pair with another config. Serving the same attribute
    /// under two silently diverging configs would let the marginal and
    /// joint estimates disagree about basics (thresholding rule, expected
    /// scale), so the conflict is refused instead.
    ConflictingConfig {
        /// The attribute whose registered config differs from the new one.
        attribute: String,
    },
    /// Building a synopsis (or its sketch) failed.
    Estimator(EstimatorError),
    /// A thread panicked while *mutating* shared engine state, and the
    /// state cannot be repaired automatically. Read paths never raise
    /// this — they recover and keep answering — but mutating paths
    /// (registration) refuse to build on top of a possibly
    /// half-completed mutation.
    Poisoned {
        /// Which structure the crashed thread was mutating.
        context: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownAttribute { name } => {
                write!(f, "attribute {name:?} is not registered in the catalog")
            }
            EngineError::UnknownPair { first, second } => {
                write!(
                    f,
                    "attribute pair ({first:?}, {second:?}) is not registered in the catalog"
                )
            }
            EngineError::ConflictingConfig { attribute } => {
                write!(
                    f,
                    "attribute {attribute:?} is already registered (standalone or in a \
                     pair) with a different configuration"
                )
            }
            EngineError::Estimator(err) => write!(f, "estimator error: {err}"),
            EngineError::Poisoned { context } => {
                write!(f, "{context} was poisoned by a panicked writer")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Estimator(err) => Some(err),
            _ => None,
        }
    }
}

impl From<EstimatorError> for EngineError {
    fn from(err: EstimatorError) -> Self {
        EngineError::Estimator(err)
    }
}

/// A registry map from keys to shared synopses.
type Registry<K, V> = RwLock<BTreeMap<K, Arc<V>>>;

/// Acquires a registry read lock, recovering from poisoning.
///
/// A registry map is only mutated by [`get_or_insert`], whose
/// `BTreeMap::insert` either completed or never ran when a writer
/// panicked — readers cannot observe a torn entry, so read paths keep
/// answering. The poison flag is deliberately *not* cleared: the mutating
/// path keeps refusing with [`EngineError::Poisoned`] until the catalog is
/// rebuilt.
fn read<K, V>(registry: &Registry<K, V>) -> RwLockReadGuard<'_, BTreeMap<K, Arc<V>>> {
    registry.read().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the entry under `key`, or builds one with `build` and inserts
/// it. Double-checked: the common already-registered case takes only the
/// read lock, and the write lock re-checks because another writer may
/// have registered the key in between. `build` runs under the write lock,
/// so a check inside it cannot race another registration of this map.
///
/// Fails with [`EngineError::Poisoned`] (naming `context`) if an earlier
/// registration panicked while holding the write lock: adding entries on
/// top of a possibly half-completed mutation is refused.
fn get_or_insert<K: Ord, V>(
    registry: &Registry<K, V>,
    key: K,
    context: &str,
    build: impl FnOnce() -> Result<V, EngineError>,
) -> Result<Arc<V>, EngineError> {
    if let Some(existing) = read(registry).get(&key) {
        return Ok(Arc::clone(existing));
    }
    let mut map = registry.write().map_err(|_| EngineError::Poisoned {
        context: context.to_string(),
    })?;
    if let Some(existing) = map.get(&key) {
        return Ok(Arc::clone(existing));
    }
    let value = Arc::new(build()?);
    map.insert(key, Arc::clone(&value));
    Ok(value)
}

/// A named multi-attribute registry of synopses.
///
/// All methods take `&self`: the catalog is designed to be shared across
/// threads behind a plain reference or an [`Arc`], with writers ingesting
/// into different attributes (or different shards of one attribute) and
/// readers querying concurrently. Readers on
/// [`selectivity_cached`](Self::selectivity_cached) keep answering while
/// an attribute's synopsis is being rebuilt; the fallible queries wait
/// for a stale snapshot's rebuild.
///
/// Registrations take the two registry locks in one fixed order —
/// attributes, then pairs — so a concurrent [`register`](Self::register)
/// and [`register_pair`](Self::register_pair) can neither deadlock nor
/// both pass the config-conflict check.
#[derive(Debug, Default)]
pub struct SynopsisCatalog {
    attributes: Registry<String, AttributeSynopsis>,
    /// Joint synopses keyed by attribute pair, registered via
    /// [`register_pair`](Self::register_pair). Separate lock from the
    /// marginal registry, so pair queries never contend with marginal
    /// registrations.
    pairs: Registry<(String, String), JointSynopsis>,
}

impl SynopsisCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an attribute with the given configuration, returning its
    /// synopsis. Registering an existing name is idempotent: the existing
    /// synopsis is returned untouched (and keeps its data).
    ///
    /// # Errors
    ///
    /// * [`EngineError::ConflictingConfig`] if the attribute is already a
    ///   member of a registered pair with a configuration different from
    ///   `config`.
    /// * [`EngineError::Estimator`] if building the synopsis fails.
    /// * [`EngineError::Poisoned`] if a previous registration panicked
    ///   mid-insert: unlike the read paths (which recover), adding
    ///   attributes on top of a possibly half-completed mutation is
    ///   refused.
    pub fn register(
        &self,
        name: &str,
        config: SynopsisConfig,
    ) -> Result<Arc<AttributeSynopsis>, EngineError> {
        get_or_insert(
            &self.attributes,
            name.to_string(),
            "catalog registry",
            || {
                // Pairs are read under the attribute write lock (lock order:
                // attributes, then pairs).
                let conflict = read(&self.pairs).iter().any(|((first, second), joint)| {
                    (first == name || second == name) && joint.config() != &config
                });
                if conflict {
                    return Err(EngineError::ConflictingConfig {
                        attribute: name.to_string(),
                    });
                }
                Ok(AttributeSynopsis::new(&config)?)
            },
        )
    }

    /// Registers a joint synopsis for the ordered attribute pair
    /// `(first, second)`, returning it. Registering an existing pair is
    /// idempotent: the existing synopsis is returned untouched.
    ///
    /// # Errors
    ///
    /// * [`EngineError::ConflictingConfig`] if either member attribute is
    ///   already registered standalone with a configuration different
    ///   from `config` — the marginal and joint estimates of one
    ///   attribute must agree on thresholding rule, expected scale and
    ///   the rest of the config, or their answers silently diverge.
    /// * [`EngineError::Estimator`] if the pair names the same attribute
    ///   twice, the config's window policy has invalid parameters
    ///   (a zero-slice sliding window, a decay factor outside `(0, 1]`),
    ///   or building the tensor sketch fails.
    /// * [`EngineError::Poisoned`] if a previous pair registration
    ///   panicked mid-insert.
    pub fn register_pair(
        &self,
        first: &str,
        second: &str,
        config: SynopsisConfig,
    ) -> Result<Arc<JointSynopsis>, EngineError> {
        if first == second {
            return Err(EstimatorError::InvalidParameter {
                message: format!(
                    "a joint synopsis needs two distinct attributes, got {first:?} twice"
                ),
            }
            .into());
        }
        // Held across the pair insert (lock order: attributes, then
        // pairs), so no conflicting standalone registration can land
        // between the check and the insert.
        let attributes = read(&self.attributes);
        let key = (first.to_string(), second.to_string());
        get_or_insert(&self.pairs, key, "catalog pair registry", || {
            for name in [first, second] {
                let standalone = attributes.get(name);
                if standalone.is_some_and(|standalone| standalone.config() != &config) {
                    return Err(EngineError::ConflictingConfig {
                        attribute: name.to_string(),
                    });
                }
            }
            Ok(JointSynopsis::new(&config)?)
        })
    }

    /// The joint synopsis of a registered attribute pair. A windowed pair
    /// advances through [`Synopsis::advance`](crate::Synopsis::advance) on
    /// the returned synopsis.
    pub fn pair(&self, first: &str, second: &str) -> Option<Arc<JointSynopsis>> {
        read(&self.pairs)
            .get(&(first.to_string(), second.to_string()))
            .map(Arc::clone)
    }

    /// Resolves a pair or errors with [`EngineError::UnknownPair`].
    fn resolve_pair(&self, first: &str, second: &str) -> Result<Arc<JointSynopsis>, EngineError> {
        self.pair(first, second)
            .ok_or_else(|| EngineError::UnknownPair {
                first: first.to_string(),
                second: second.to_string(),
            })
    }

    /// Ingests a batch of `(x, y)` row pairs into a registered pair.
    pub fn ingest_pair(
        &self,
        first: &str,
        second: &str,
        rows: &[(f64, f64)],
    ) -> Result<(), EngineError> {
        self.resolve_pair(first, second)?.ingest(rows);
        Ok(())
    }

    /// Bulk-loads row pairs into a registered pair with parallel sharded
    /// ingestion: one pool task per shard, bitwise reproducible for a
    /// given shard count
    /// ([`ShardedIngest::ingest_parallel`](crate::ShardedIngest::ingest_parallel)).
    pub fn ingest_pair_parallel(
        &self,
        first: &str,
        second: &str,
        rows: &[(f64, f64)],
    ) -> Result<(), EngineError> {
        self.resolve_pair(first, second)?.ingest_parallel(rows);
        Ok(())
    }

    /// Estimated joint selectivity
    /// `P(first ∈ x_range, second ∈ y_range)` for a registered pair (0
    /// while it has no rows), from the pair's
    /// [`refresh`](crate::Synopsis::refresh)ed snapshot. Like
    /// [`selectivity`](Self::selectivity) it waits for a rebuild when the
    /// snapshot is stale, rejects NaN bounds with
    /// [`EstimatorError::InvalidQueryBounds`], and surfaces rebuild
    /// failures as [`EngineError::Estimator`].
    pub fn joint_selectivity(
        &self,
        first: &str,
        second: &str,
        x_range: (f64, f64),
        y_range: (f64, f64),
    ) -> Result<f64, EngineError> {
        let joint = self.resolve_pair(first, second)?;
        Ok(joint.try_query(&[x_range, y_range], |j| j.selectivity(x_range, y_range))?)
    }

    /// Serializes a registered pair's merged, `policy`-compacted tensor
    /// sketch to the wire frame ([`JointSynopsis::ship`]).
    pub fn ship_pair(
        &self,
        first: &str,
        second: &str,
        policy: CompactionPolicy,
    ) -> Result<Vec<u8>, EngineError> {
        Ok(self.resolve_pair(first, second)?.ship(policy)?)
    }

    /// Names of all registered attribute pairs (sorted).
    pub fn pair_names(&self) -> Vec<(String, String)> {
        read(&self.pairs).keys().cloned().collect()
    }

    /// Number of registered attribute pairs.
    pub fn pair_count(&self) -> usize {
        read(&self.pairs).len()
    }

    /// The synopsis of a registered attribute.
    pub fn attribute(&self, name: &str) -> Option<Arc<AttributeSynopsis>> {
        read(&self.attributes).get(name).map(Arc::clone)
    }

    /// Resolves an attribute or errors with
    /// [`EngineError::UnknownAttribute`].
    fn resolve(&self, name: &str) -> Result<Arc<AttributeSynopsis>, EngineError> {
        self.attribute(name)
            .ok_or_else(|| EngineError::UnknownAttribute {
                name: name.to_string(),
            })
    }

    /// Ingests a batch of values into a registered attribute.
    pub fn ingest(&self, name: &str, values: &[f64]) -> Result<(), EngineError> {
        self.resolve(name)?.ingest(values);
        Ok(())
    }

    /// Bulk-loads values into a registered attribute with parallel
    /// sharded ingestion: one pool task per shard, bitwise reproducible
    /// for a given shard count
    /// ([`ShardedIngest::ingest_parallel`](crate::ShardedIngest::ingest_parallel)).
    pub fn ingest_parallel(&self, name: &str, values: &[f64]) -> Result<(), EngineError> {
        self.resolve(name)?.ingest_parallel(values);
        Ok(())
    }

    /// Advances a registered attribute's sketch window: retires its
    /// oldest slice and opens a fresh one. Returns `true` if the
    /// attribute runs a windowed policy, `false` for landmark attributes
    /// (for which this is a no-op). See [`AttributeSynopsis::advance`].
    pub fn advance(&self, name: &str) -> Result<bool, EngineError> {
        Ok(self.resolve(name)?.advance())
    }

    /// Serializes a registered windowed attribute's *current* window
    /// slice to the windowed wire frame. See
    /// [`AttributeSynopsis::ship_window_slice`].
    pub fn ship_window_slice(&self, name: &str) -> Result<Vec<u8>, EngineError> {
        Ok(self.resolve(name)?.ship_window_slice()?)
    }

    /// Estimated selectivity `P(lo ≤ X ≤ hi)` for a registered attribute
    /// (0 while the attribute has no rows, and for an empty or reversed
    /// range), from its [`refresh`](Self::refresh)ed snapshot: a stale
    /// snapshot is rebuilt first, so this call waits for the rebuild —
    /// readers that must never wait use
    /// [`selectivity_cached`](Self::selectivity_cached). NaN bounds are
    /// rejected with [`EstimatorError::InvalidQueryBounds`], and a failed
    /// rebuild surfaces as [`EngineError::Estimator`] instead of silently
    /// answering 0.
    pub fn selectivity(&self, name: &str, lo: f64, hi: f64) -> Result<f64, EngineError> {
        let attribute = self.resolve(name)?;
        Ok(attribute.try_query(&[(lo, hi)], |s| s.selectivity(lo, hi))?)
    }

    /// Estimated selectivity from the attribute's latest built snapshot,
    /// with zero rebuild work on this thread
    /// ([`AttributeSynopsis::selectivity_cached`]): `None` until a first
    /// snapshot exists — latency-sensitive readers use this and leave
    /// rebuilds to the ingesting side
    /// ([`refresh`](Self::refresh)).
    pub fn selectivity_cached(
        &self,
        name: &str,
        lo: f64,
        hi: f64,
    ) -> Result<Option<f64>, EngineError> {
        Ok(self.resolve(name)?.selectivity_cached(lo, hi))
    }

    /// A registered attribute's snapshot, rebuilt now if stale, blocking
    /// on its rebuild guard ([`AttributeSynopsis::refresh`]) — the
    /// maintenance entry point for the write side. `None` while the
    /// attribute has no rows.
    pub fn refresh(&self, name: &str) -> Result<Option<Arc<RefreshedSynopsis>>, EngineError> {
        Ok(self.resolve(name)?.refresh()?)
    }

    /// Serializes a registered attribute's merged, `policy`-compacted
    /// sketch to the binary wire frame ([`AttributeSynopsis::ship`]) for
    /// shipping to another node.
    pub fn ship(&self, name: &str, policy: CompactionPolicy) -> Result<Vec<u8>, EngineError> {
        Ok(self.resolve(name)?.ship(policy)?)
    }

    /// Names of all registered attributes (sorted).
    pub fn names(&self) -> Vec<String> {
        read(&self.attributes).keys().cloned().collect()
    }

    /// Number of registered attributes.
    pub fn len(&self) -> usize {
        read(&self.attributes).len()
    }

    /// Whether no attribute is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total rows ingested across all attributes and attribute pairs.
    pub fn total_rows(&self) -> usize {
        let marginal: usize = read(&self.attributes).values().map(|a| a.rows()).sum();
        let joint: usize = read(&self.pairs).values().map(|j| j.rows()).sum();
        marginal + joint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wavedens_processes::seeded_rng;

    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen::<f64>()).collect()
    }

    fn small_config() -> SynopsisConfig {
        SynopsisConfig::default()
            .with_expected_rows(1024)
            .with_shards(2)
    }

    #[test]
    fn register_is_idempotent_and_keeps_data() {
        let catalog = SynopsisCatalog::new();
        let first = catalog.register("a", small_config()).unwrap();
        first.ingest(&sample(100, 1));
        let second = catalog.register("a", small_config()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.rows(), 100);
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.is_empty());
    }

    #[test]
    fn unknown_attributes_error() {
        let catalog = SynopsisCatalog::new();
        assert!(matches!(
            catalog.ingest("missing", &[0.5]).unwrap_err(),
            EngineError::UnknownAttribute { .. }
        ));
        assert!(matches!(
            catalog.selectivity("missing", 0.0, 1.0).unwrap_err(),
            EngineError::UnknownAttribute { .. }
        ));
        assert!(catalog.attribute("missing").is_none());
        let err = catalog.refresh("missing").unwrap_err();
        assert!(format!("{err}").contains("missing"));
    }

    #[test]
    fn attributes_are_independent() {
        let catalog = SynopsisCatalog::new();
        catalog.register("uniform", small_config()).unwrap();
        catalog.register("peaked", small_config()).unwrap();
        catalog.ingest("uniform", &sample(2048, 2)).unwrap();
        // A point mass near 0.25 (jittered so the estimate stays sane).
        let peaked: Vec<f64> = sample(2048, 3).iter().map(|u| 0.2 + 0.1 * u).collect();
        catalog.ingest_parallel("peaked", &peaked).unwrap();
        let u = catalog.selectivity("uniform", 0.2, 0.3).unwrap();
        let p = catalog.selectivity("peaked", 0.2, 0.3).unwrap();
        assert!((u - 0.1).abs() < 0.05, "uniform selectivity {u}");
        assert!(p > 0.9, "peaked selectivity {p}");
        assert_eq!(catalog.total_rows(), 4096);
        assert_eq!(catalog.names(), vec!["peaked", "uniform"]);
    }

    #[test]
    fn shipping_an_attribute_round_trips_compactly() {
        let catalog = SynopsisCatalog::new();
        catalog.register("x", small_config()).unwrap();
        catalog.ingest("x", &sample(2048, 5)).unwrap();
        let frame = catalog.ship("x", CompactionPolicy::InactiveTail).unwrap();
        let restored = wavedens_core::CoefficientSketch::from_bytes(&frame).unwrap();
        assert_eq!(restored.count(), 2048);
        assert!(matches!(
            catalog
                .ship("missing", CompactionPolicy::Dense)
                .unwrap_err(),
            EngineError::UnknownAttribute { .. }
        ));
    }

    #[test]
    fn windowed_attributes_advance_through_the_catalog() {
        use wavedens_core::WindowPolicy;
        let catalog = SynopsisCatalog::new();
        catalog
            .register(
                "recent",
                small_config().with_window(WindowPolicy::SlidingSlices(2)),
            )
            .unwrap();
        catalog.register("lifetime", small_config()).unwrap();
        catalog.ingest("recent", &sample(512, 7)).unwrap();
        // Landmark attributes report the advance as a no-op.
        assert!(!catalog.advance("lifetime").unwrap());
        assert!(catalog.advance("recent").unwrap());
        catalog.ingest("recent", &sample(256, 8)).unwrap();
        // The second advance of a two-slice ring retires the 512-row slice.
        assert!(catalog.advance("recent").unwrap());
        assert_eq!(catalog.attribute("recent").unwrap().rows(), 256);
        // Current-slice shipping works for windowed attributes only.
        catalog.ingest("recent", &sample(64, 9)).unwrap();
        let frame = catalog.ship_window_slice("recent").unwrap();
        let restored = wavedens_core::CoefficientSketch::from_bytes(&frame).unwrap();
        assert_eq!(restored.count(), 64);
        assert!(matches!(
            catalog.ship_window_slice("lifetime").unwrap_err(),
            EngineError::Estimator(_)
        ));
        assert!(matches!(
            catalog.advance("missing").unwrap_err(),
            EngineError::UnknownAttribute { .. }
        ));
    }

    #[test]
    fn poisoned_registry_keeps_answering_reads_but_refuses_registration() {
        let catalog = SynopsisCatalog::new();
        catalog.register("x", small_config()).unwrap();
        catalog.ingest("x", &sample(1024, 6)).unwrap();
        // A writer panics while holding the registry write lock.
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = catalog.attributes.write().unwrap();
            panic!("simulated registration crash");
        }));
        assert!(crash.is_err());
        // Read paths recover and keep answering.
        assert_eq!(catalog.names(), vec!["x"]);
        assert_eq!(catalog.total_rows(), 1024);
        assert!(catalog.selectivity("x", 0.0, 1.0).unwrap() > 0.9);
        // Registering an *existing* name resolves under the read path.
        assert!(catalog.register("x", small_config()).is_ok());
        // Registering a new name needs the write lock and is refused.
        assert!(matches!(
            catalog.register("y", small_config()).unwrap_err(),
            EngineError::Poisoned { .. }
        ));
    }

    fn correlated(n: usize, seed: u64, noise: f64) -> Vec<(f64, f64)> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                let x: f64 = rng.gen();
                let y = (x + noise * (2.0 * rng.gen::<f64>() - 1.0)).rem_euclid(1.0);
                (x, y)
            })
            .collect()
    }

    #[test]
    fn pair_registration_is_idempotent_and_serves_joint_queries() {
        let catalog = SynopsisCatalog::new();
        let first = catalog.register_pair("x", "y", small_config()).unwrap();
        let second = catalog.register_pair("x", "y", small_config()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(catalog.pair_count(), 1);
        assert_eq!(
            catalog.pair_names(),
            vec![("x".to_string(), "y".to_string())]
        );
        catalog
            .ingest_pair_parallel("x", "y", &correlated(2048, 20, 0.05))
            .unwrap();
        assert_eq!(catalog.total_rows(), 2048);
        let diagonal = catalog
            .joint_selectivity("x", "y", (0.3, 0.55), (0.3, 0.55))
            .unwrap();
        assert!(diagonal > 0.15, "diagonal square: {diagonal}");
        // Unregistered pairs error.
        assert!(matches!(
            catalog.ingest_pair("a", "b", &[(0.5, 0.5)]).unwrap_err(),
            EngineError::UnknownPair { .. }
        ));
        assert!(matches!(
            catalog
                .joint_selectivity("y", "x", (0.0, 1.0), (0.0, 1.0))
                .unwrap_err(),
            EngineError::UnknownPair { .. }
        ));
        assert!(catalog.pair("y", "x").is_none());
    }

    /// Regression: a pair registration naming an attribute that already
    /// has a standalone synopsis with a *different* config must be
    /// refused with [`EngineError::ConflictingConfig`] — not silently
    /// accepted with two diverging configurations for one attribute.
    #[test]
    fn pair_with_conflicting_member_config_is_rejected() {
        let catalog = SynopsisCatalog::new();
        catalog.register("amount", small_config()).unwrap();
        let different = small_config().with_expected_rows(9999);
        let err = catalog
            .register_pair("amount", "quantity", different)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::ConflictingConfig {
                attribute: "amount".to_string()
            }
        );
        assert!(format!("{err}").contains("amount"));
        assert_eq!(
            catalog.pair_count(),
            0,
            "the conflicting pair must not register"
        );
        // The same config as the standalone member is accepted…
        catalog
            .register_pair("amount", "quantity", small_config())
            .unwrap();
        // …and the conflict check also covers the second member.
        catalog
            .register(
                "discount",
                small_config().with_rule(wavedens_core::ThresholdRule::Hard),
            )
            .unwrap();
        assert!(matches!(
            catalog
                .register_pair("quantity", "discount", small_config())
                .unwrap_err(),
            EngineError::ConflictingConfig { attribute } if attribute == "discount"
        ));
        // …and so is the reverse order: a pair member registered
        // standalone under a different config.
        catalog.register_pair("x", "y", small_config()).unwrap();
        let hard = small_config().with_rule(wavedens_core::ThresholdRule::Hard);
        assert!(matches!(
            catalog.register("x", hard).unwrap_err(),
            EngineError::ConflictingConfig { attribute } if attribute == "x"
        ));
        assert!(catalog.attribute("x").is_none(), "x must not register");
        catalog.register("x", small_config()).unwrap();
    }

    /// Pairs naming one attribute twice, and pairs with invalid window
    /// parameters, are rejected; valid windowed pairs register.
    #[test]
    fn degenerate_and_windowed_pairs_are_rejected() {
        use wavedens_core::WindowPolicy;
        let catalog = SynopsisCatalog::new();
        assert!(matches!(
            catalog.register_pair("x", "x", small_config()).unwrap_err(),
            EngineError::Estimator(EstimatorError::InvalidParameter { .. })
        ));
        for bad in [
            WindowPolicy::SlidingSlices(0),
            WindowPolicy::ExponentialDecay(1.5),
        ] {
            assert!(matches!(
                catalog
                    .register_pair("x", "y", small_config().with_window(bad))
                    .unwrap_err(),
                EngineError::Estimator(EstimatorError::InvalidParameter { .. })
            ));
        }
        assert_eq!(catalog.pair_count(), 0);
    }

    /// A windowed pair advances through the synopsis the catalog hands
    /// out.
    #[test]
    fn windowed_pairs_advance_through_the_catalog() {
        use wavedens_core::WindowPolicy;
        let catalog = SynopsisCatalog::new();
        let config = small_config().with_window(WindowPolicy::SlidingSlices(1));
        catalog.register_pair("x", "y", config).unwrap();
        catalog
            .ingest_pair("x", "y", &correlated(512, 22, 0.1))
            .unwrap();
        let pair = catalog.pair("x", "y").unwrap();
        assert_eq!(pair.rows(), 512);
        assert!(pair.advance());
        assert_eq!(pair.rows(), 0, "a one-slice window retires everything");
        assert_eq!(
            catalog
                .joint_selectivity("x", "y", (0.0, 1.0), (0.0, 1.0))
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn shipping_a_pair_round_trips_the_tensor_frame() {
        let catalog = SynopsisCatalog::new();
        catalog.register_pair("x", "y", small_config()).unwrap();
        catalog
            .ingest_pair("x", "y", &correlated(2048, 21, 0.08))
            .unwrap();
        let frame = catalog
            .ship_pair("x", "y", CompactionPolicy::InactiveTail)
            .unwrap();
        let restored = wavedens_core::TensorSketch::from_bytes(&frame).unwrap();
        assert_eq!(restored.count(), 2048);
        assert_eq!(restored.dims(), 2);
        assert!(matches!(
            catalog
                .ship_pair("a", "b", CompactionPolicy::Dense)
                .unwrap_err(),
            EngineError::UnknownPair { .. }
        ));
    }

    /// The fallible queries reject NaN bounds for attributes and pairs
    /// alike, before any rebuild.
    #[test]
    fn nan_bounds_error_through_the_catalog() {
        let catalog = SynopsisCatalog::new();
        catalog.register("x", small_config()).unwrap();
        catalog.register_pair("x", "y", small_config()).unwrap();
        catalog.ingest("x", &sample(512, 10)).unwrap();
        catalog
            .ingest_pair("x", "y", &correlated(512, 23, 0.1))
            .unwrap();
        assert!(matches!(
            catalog.selectivity("x", f64::NAN, 0.5).unwrap_err(),
            EngineError::Estimator(EstimatorError::InvalidQueryBounds { .. })
        ));
        assert!(matches!(
            catalog
                .joint_selectivity("x", "y", (0.0, 1.0), (0.5, f64::NAN))
                .unwrap_err(),
            EngineError::Estimator(EstimatorError::InvalidQueryBounds { .. })
        ));
        assert_eq!(catalog.selectivity("x", 0.9, 0.1).unwrap(), 0.0);
    }

    #[test]
    fn refresh_exposes_the_density_estimate() {
        let catalog = SynopsisCatalog::new();
        catalog.register("x", small_config()).unwrap();
        assert!(catalog.refresh("x").unwrap().is_none());
        catalog.ingest("x", &sample(1024, 4)).unwrap();
        let refreshed = catalog.refresh("x").unwrap().unwrap();
        assert_eq!(refreshed.density().sample_size(), 1024);
        assert!((refreshed.cumulative().total_mass() - 1.0).abs() < 0.1);
    }
}
