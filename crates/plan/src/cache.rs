//! The sharded LRU hull cache.
//!
//! Keys are fully structural — machine parameters by exact bits,
//! condition by quantized fingerprint — so equal keys mean "the model
//! would build the identical hull". Shards are independently locked
//! `HashMap`s with a per-shard LRU tick; a warm fetch is one hash, one
//! short critical section, one `Arc` clone — by owned key
//! ([`HullCache::get`]) or, without building one, by the borrowed parts
//! of a query ([`HullCache::probe`]).

use crate::hull::PlanHull;
use mce_model::{ConditionFingerprint, MachineParams};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Multiply-rotate hasher in the rustc-hash mold. The cache probes on
/// every warm query, keys are a handful of machine-word writes (the
/// condition contributes only its precomputed digest), and SipHash's
/// DoS resistance buys nothing against keys the process itself builds
/// — so a two-instruction mix per word is the right trade.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`MachineParams`] reduced to a hashable identity: every float by
/// its exact IEEE-754 bits plus the two discrete knobs. The
/// human-readable `name` is deliberately excluded — two differently
/// labelled but identically timed machines share hulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineKey {
    lambda: u64,
    lambda_zero: u64,
    tau: u64,
    delta: u64,
    rho: u64,
    barrier_per_dim: u64,
    pairwise_sync: bool,
    unforced_threshold: usize,
}

impl MachineKey {
    /// The identity of `p`.
    pub fn of(p: &MachineParams) -> MachineKey {
        MachineKey {
            lambda: p.lambda.to_bits(),
            lambda_zero: p.lambda_zero.to_bits(),
            tau: p.tau.to_bits(),
            delta: p.delta.to_bits(),
            rho: p.rho.to_bits(),
            barrier_per_dim: p.barrier_per_dim.to_bits(),
            pairwise_sync: p.pairwise_sync,
            unforced_threshold: p.unforced_threshold,
        }
    }
}

/// Full cache key: one hull per `(machine, d, switching, condition
/// fingerprint)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Machine identity.
    pub machine: MachineKey,
    /// Cube dimension.
    pub d: u32,
    /// Store-and-forward pricing (circuit otherwise).
    pub saf: bool,
    /// Quantized condition.
    pub fingerprint: ConditionFingerprint,
}

/// A [`CacheKey`] by reference: what [`HullCache::probe`] looks a hull
/// up by when the fingerprint is the one a [`ConditionSummary`] keeps
/// ([`ConditionSummary::fingerprint_ref`]) — nothing is cloned to ask.
/// Hashes and compares as the key it names (every word of the
/// fingerprint included, so colliding digests never share a hull).
///
/// [`ConditionSummary`]: mce_model::ConditionSummary
/// [`ConditionSummary::fingerprint_ref`]: mce_model::ConditionSummary::fingerprint_ref
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyRef<'a> {
    /// Machine identity.
    pub machine: &'a MachineKey,
    /// Cube dimension.
    pub d: u32,
    /// Store-and-forward pricing (circuit otherwise).
    pub saf: bool,
    /// Quantized condition.
    pub fingerprint: &'a ConditionFingerprint,
}

impl KeyRef<'_> {
    /// The owned key (an insert needs one): copies the machine
    /// identity and bumps the fingerprint's reference count.
    pub fn to_key(&self) -> CacheKey {
        CacheKey {
            machine: *self.machine,
            d: self.d,
            saf: self.saf,
            fingerprint: self.fingerprint.clone(),
        }
    }
}

impl CacheKey {
    /// This key, borrowed.
    pub fn as_key_ref(&self) -> KeyRef<'_> {
        KeyRef { machine: &self.machine, d: self.d, saf: self.saf, fingerprint: &self.fingerprint }
    }
}

/// Anything that names a cache key. The maps are keyed by
/// [`CacheKey`], and `HashMap` lookups go through `Borrow`, which must
/// hand out a *reference*; a `CacheKey` holds no `KeyRef` to point at,
/// but it can point at itself as a `dyn Keyed` — so both forms look a
/// hull up as `&dyn Keyed`, hashed and compared through
/// [`KeyRef`]'s derived impls.
trait Keyed {
    fn key_ref(&self) -> KeyRef<'_>;
}

impl Keyed for CacheKey {
    fn key_ref(&self) -> KeyRef<'_> {
        self.as_key_ref()
    }
}

impl Keyed for KeyRef<'_> {
    fn key_ref(&self) -> KeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn Keyed + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn Keyed + 'a) {
        self
    }
}

impl Hash for dyn Keyed + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_ref().hash(state)
    }
}

impl PartialEq for dyn Keyed + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_ref() == other.key_ref()
    }
}

impl Eq for dyn Keyed + '_ {}

/// As the borrowed form hashes, which `Borrow` requires.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_key_ref().hash(state)
    }
}

struct Entry {
    hull: Arc<PlanHull>,
    last_used: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry, FxBuildHasher>,
    tick: u64,
}

/// Sharded LRU map from [`CacheKey`] to precomputed [`PlanHull`]s.
pub struct HullCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    evictions: AtomicU64,
}

impl HullCache {
    /// `shards` independently locked shards of `per_shard_capacity`
    /// hulls each (both clamped to ≥ 1).
    pub fn new(shards: usize, per_shard_capacity: usize) -> HullCache {
        let shards = shards.max(1);
        HullCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::default(), tick: 0 }))
                .collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<Shard> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // Rotate so shard choice and in-map bucket use different bits.
        &self.shards[(h.finish().rotate_left(17) % self.shards.len() as u64) as usize]
    }

    fn fetch<Q>(&self, key: &Q) -> Option<Arc<PlanHull>>
    where
        CacheKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.hull)
        })
    }

    /// Fetch the hull for `key`, bumping its recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PlanHull>> {
        self.fetch(key)
    }

    /// [`HullCache::get`] by borrowed key: the same shard, the same
    /// full-key comparison, the same recency bump.
    pub fn probe(&self, key: KeyRef<'_>) -> Option<Arc<PlanHull>> {
        self.fetch(&key as &dyn Keyed)
    }

    /// Insert a hull, evicting the shard's least-recently-used entry
    /// when over capacity. Concurrent builders of the same key both
    /// insert; last write wins (the hulls are identical — keys are
    /// structural — so this only wastes the duplicate build).
    pub fn insert(&self, key: CacheKey, hull: Arc<PlanHull>) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(key, Entry { hull, last_used: tick });
        if shard.map.len() > self.per_shard_capacity {
            // O(shard) victim scan: capacities are tens of entries and
            // evictions only happen on (rare, expensive) builds.
            if let Some(victim) =
                shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total cached hulls across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Whether no hull is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mce_model::ConditionSummary;
    use mce_simnet::config::SwitchingMode;

    fn key(d: u32, level: u32) -> CacheKey {
        let mut cond = ConditionSummary::noop(d);
        for _ in 0..level {
            cond.add_stream((1 << d) - 1, 314.0, 600.0);
        }
        CacheKey {
            machine: MachineKey::of(&MachineParams::ipsc860()),
            d,
            saf: false,
            fingerprint: cond.fingerprint(),
        }
    }

    fn hull(d: u32) -> Arc<PlanHull> {
        Arc::new(PlanHull::build(
            &MachineParams::ipsc860(),
            SwitchingMode::Circuit,
            d,
            &ConditionSummary::noop(d),
        ))
    }

    #[test]
    fn machine_key_ignores_name_only() {
        let a = MachineParams::ipsc860();
        let mut renamed = a.clone();
        renamed.name = "same silicon, new sticker".into();
        assert_eq!(MachineKey::of(&a), MachineKey::of(&renamed));
        let mut slower = a.clone();
        slower.tau += 0.001;
        assert_ne!(MachineKey::of(&a), MachineKey::of(&slower));
    }

    #[test]
    fn lru_evicts_the_stalest_key() {
        let cache = HullCache::new(1, 2);
        let h = hull(4);
        cache.insert(key(4, 0), Arc::clone(&h));
        cache.insert(key(4, 1), Arc::clone(&h));
        // Touch the first key so the second is the LRU victim.
        assert!(cache.get(&key(4, 0)).is_some());
        cache.insert(key(4, 2), Arc::clone(&h));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(4, 0)).is_some(), "recently used survives");
        assert!(cache.get(&key(4, 1)).is_none(), "LRU evicted");
        assert!(cache.get(&key(4, 2)).is_some());
    }

    #[test]
    fn a_borrowed_key_is_the_key_it_names() {
        // Many shards, so a probe that hashed differently from the
        // owned key would look in the wrong one.
        let cache = HullCache::new(16, 4);
        let keys: Vec<CacheKey> = (0..12).map(|level| key(5, level)).collect();
        for k in &keys {
            cache.insert(k.clone(), hull(5));
        }
        for (level, k) in keys.iter().enumerate() {
            // Keyed afresh: equal words in another allocation, so the
            // comparison is by value.
            let again = key(5, level as u32);
            let rebuilt = again.as_key_ref();
            assert_eq!(rebuilt.to_key(), *k);
            let found = cache.probe(rebuilt).expect("stored key");
            assert!(Arc::ptr_eq(&found, &cache.get(k).expect("stored key")));
            // Every part is compared, not just the digest's shard.
            assert!(cache.probe(KeyRef { saf: true, ..rebuilt }).is_none());
            assert!(cache.probe(KeyRef { d: 4, ..rebuilt }).is_none());
        }
        // A probe bumps recency exactly as a get does.
        let lru = HullCache::new(1, 2);
        lru.insert(key(4, 0), hull(4));
        lru.insert(key(4, 1), hull(4));
        assert!(lru.probe(key(4, 0).as_key_ref()).is_some());
        lru.insert(key(4, 2), hull(4));
        assert!(lru.get(&key(4, 0)).is_some(), "probed key survives");
        assert!(lru.get(&key(4, 1)).is_none(), "LRU evicted");
    }
}
