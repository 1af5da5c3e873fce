//! The sharded LRU hull cache.
//!
//! Keys are fully structural — machine parameters by exact bits,
//! condition by quantized fingerprint — so equal keys mean "the model
//! would build the identical hull". Shards are independently locked
//! `HashMap`s with a per-shard LRU tick and hit count. A key hashes as
//! one word from digests taken when its parts were made (the machine's
//! in [`MachineKey::of`], the fingerprint's when it was quantized) and
//! `d` and the switching bit, so a lookup hashes nothing again; the
//! full-key comparison then reads every part. A warm answer is one
//! short critical section ([`HullCache::serve`]): the caller's closure
//! runs on the cached hull under the shard lock, so a hit clones no
//! `Arc` and counts itself where it already holds the lock.
//! [`HullCache::get`] hands out an `Arc` clone instead.

use crate::hull::PlanHull;
use mce_model::{ConditionFingerprint, MachineParams};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The maps' hasher. Every key hashes as the one word
/// [`KeyRef::hash_word`] writes, already mixed, so the word *is* the
/// hash; `write` folds anything else in for the `Hasher` contract.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(5) ^ word;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Odd multiplier of the rustc-hash mold: multiplying by it carries
/// every input bit into the high half of the hash.
const MIX: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A [`MachineParams`] reduced to a hashable identity: every float by
/// its exact IEEE-754 bits plus the two discrete knobs. The
/// human-readable `name` is deliberately excluded — two differently
/// labelled but identically timed machines share hulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineKey {
    /// A pure function of the fields below, taken once in
    /// [`MachineKey::of`] for the key's one-word hash. First, so
    /// comparing two machines' keys reads it first.
    digest: u64,
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
        let words = [
            p.lambda.to_bits(),
            p.lambda_zero.to_bits(),
            p.tau.to_bits(),
            p.delta.to_bits(),
            p.rho.to_bits(),
            p.barrier_per_dim.to_bits(),
            u64::from(p.pairwise_sync),
            p.unforced_threshold as u64,
        ];
        // Each word at its own rotation, then the high half folded onto
        // the low: every bit of every word reaches the bits below 58,
        // which the key hash's one multiply spreads over the shard pick.
        let folded = words.iter().zip(0..).fold(0, |h, (&w, i)| h ^ w.rotate_left(8 * i));
        MachineKey {
            digest: folded ^ folded >> 32,
            lambda: words[0],
            lambda_zero: words[1],
            tau: words[2],
            delta: words[3],
            rho: words[4],
            barrier_per_dim: words[5],
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

/// A [`CacheKey`] by reference: what [`HullCache::serve`] looks a hull
/// up by when the fingerprint is the one a [`ConditionSummary`] keeps
/// ([`ConditionSummary::fingerprint_ref`]) — nothing is cloned to ask.
/// Hashes and compares as the key it names (every word of the
/// fingerprint compared, so colliding digests never share a hull).
///
/// [`ConditionSummary`]: mce_model::ConditionSummary
/// [`ConditionSummary::fingerprint_ref`]: mce_model::ConditionSummary::fingerprint_ref
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// The key's hash: the machine's and the fingerprint's precomputed
    /// digests (each a function of every word of its part), `d` and
    /// the switching bit, multiplied through once. Keys that differ
    /// only in the machine — a sweep over τ or λ under one condition —
    /// spread over the shards like any others.
    fn hash_word(&self) -> u64 {
        let parts = u64::from(self.d) << 1 | u64::from(self.saf);
        (self.fingerprint.digest() ^ self.machine.digest ^ parts).wrapping_mul(MIX)
    }
}

/// As [`CacheKey`] and `dyn Keyed` hash: one word.
impl Hash for KeyRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash_word())
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
/// hull up as `&dyn Keyed`, hashed and compared through [`KeyRef`].
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
    map: HashMap<CacheKey, Entry, BuildHasherDefault<WordHasher>>,
    tick: u64,
    /// Lookups [`HullCache::serve`] found a hull for.
    hits: u64,
}

/// Lock a shard. A poisoned lock is taken as it is: a panic inside a
/// critical section (a caller's closure in [`HullCache::serve`], which
/// sees the hull only by shared reference) leaves the map, the tick
/// and the hit count each a valid value, so one failed query must not
/// fail every later one that lands on the shard.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
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
                .map(|_| Mutex::new(Shard { map: HashMap::default(), tick: 0, hits: 0 }))
                .collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard of a key hashing to `hash`, by a multiply-shift range
    /// reduction of bits 25..57 — no division. A map picks its bucket
    /// from a hash's low bits and its control tag from the top seven,
    /// so the shard choice leaves those to the map inside the shard.
    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[self.shard_index(hash)]
    }

    fn shard_index(&self, hash: u64) -> usize {
        let window = u64::from((hash >> 25) as u32);
        // `window < 2^32`, so the index is below `shards.len()`.
        ((window * self.shards.len() as u64) >> 32) as usize
    }

    /// Under `key`'s shard lock: bump the tick and, when a hull is
    /// cached for `key`, its recency, count a hit when `count_hit`,
    /// and run `f` on it.
    fn lookup<Q, R>(
        &self,
        key: &Q,
        hash: u64,
        count_hit: bool,
        f: impl FnOnce(&Arc<PlanHull>) -> R,
    ) -> Option<R>
    where
        CacheKey: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut guard = lock(self.shard(hash));
        let shard = &mut *guard;
        shard.tick += 1;
        let entry = shard.map.get_mut(key)?;
        entry.last_used = shard.tick;
        shard.hits += u64::from(count_hit);
        Some(f(&entry.hull))
    }

    /// Fetch the hull for `key`, bumping its recency. Not counted in
    /// [`HullCache::hits`]: a fetch hands the hull out, it serves no
    /// answer from it.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<PlanHull>> {
        self.lookup(key, key.as_key_ref().hash_word(), false, Arc::clone)
    }

    /// Run `f` on the hull cached for `key`, under its shard's lock,
    /// and return what `f` returns; `None`, without running `f`, when
    /// no hull is cached for `key`. Like [`HullCache::get`] it bumps
    /// the hull's recency (same shard, same full-key comparison); a
    /// hit also counts in [`HullCache::hits`], inside the same critical
    /// section. The hull is lent, not cloned: a hit takes the shard
    /// lock and no other synchronizing step. `f` holds the shard for
    /// as long as it runs, so it should be short — find a face, build
    /// an answer — and leave anything slow for after it returns.
    pub fn serve<R>(&self, key: KeyRef<'_>, f: impl FnOnce(&PlanHull) -> R) -> Option<R> {
        self.lookup(&key as &dyn Keyed, key.hash_word(), true, |hull| f(hull))
    }

    /// Insert a hull, evicting the shard's least-recently-used entry
    /// when over capacity. Concurrent builders of the same key both
    /// insert; last write wins (the hulls are identical — keys are
    /// structural — so this only wastes the duplicate build).
    pub fn insert(&self, key: CacheKey, hull: Arc<PlanHull>) {
        let mut shard = lock(self.shard(key.as_key_ref().hash_word()));
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
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether no hull is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups by [`HullCache::serve`] that found a hull, since
    /// construction.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).hits).sum()
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
    use std::collections::HashSet;

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
        // Many shards, so a lookup that hashed differently from the
        // owned key would look in the wrong one; room for each
        // condition under two machines.
        let cache = HullCache::new(16, 8);
        let keys: Vec<CacheKey> = (0..12).map(|level| key(5, level)).collect();
        for k in &keys {
            cache.insert(k.clone(), hull(5));
        }
        let mut slower = MachineParams::ipsc860();
        slower.tau += 0.001;
        let other = MachineKey::of(&slower);
        let at = |key: KeyRef| cache.serve(key, |h| h as *const PlanHull);
        for (level, k) in keys.iter().enumerate() {
            // Keyed afresh: equal words in another allocation, so the
            // comparison is by value.
            let again = key(5, level as u32);
            let rebuilt = again.as_key_ref();
            assert_eq!(rebuilt.to_key(), *k);
            let stored = cache.get(k).expect("stored key");
            assert_eq!(at(rebuilt), Some(Arc::as_ptr(&stored)));
            // Every part is compared, not just the hash's.
            assert_eq!(at(KeyRef { saf: true, ..rebuilt }), None);
            assert_eq!(at(KeyRef { d: 4, ..rebuilt }), None);
            // One float apart, the same condition under another
            // machine gets a hull of its own.
            let elsewhere = KeyRef { machine: &other, ..rebuilt };
            assert_eq!(at(elsewhere), None);
            cache.insert(elsewhere.to_key(), hull(5));
            let own = cache.get(&elsewhere.to_key()).expect("inserted key");
            assert!(!Arc::ptr_eq(&own, &stored));
            assert_eq!(at(elsewhere), Some(Arc::as_ptr(&own)));
            assert_eq!(at(rebuilt), Some(Arc::as_ptr(&stored)));
        }
        // A served lookup bumps recency exactly as a get does, and only
        // it counts a hit.
        let lru = HullCache::new(1, 2);
        lru.insert(key(4, 0), hull(4));
        lru.insert(key(4, 1), hull(4));
        assert_eq!(lru.serve(key(4, 0).as_key_ref(), |_| ()), Some(()));
        lru.insert(key(4, 2), hull(4));
        assert!(lru.get(&key(4, 0)).is_some(), "served key survives");
        assert!(lru.get(&key(4, 1)).is_none(), "LRU evicted");
        assert_eq!(lru.hits(), 1);
        // The machine is hashed too: 64 machines under one condition,
        // stepped by thousandths, by whole units or in a discrete knob,
        // spread over the shards, and none is evicted from room for
        // four times as many.
        let sweeps: [fn(&mut MachineParams, u32); 3] = [
            |p, i| p.tau += 0.001 * f64::from(i),
            |p, i| p.lambda = f64::from(i + 1),
            |p, i| p.unforced_threshold += i as usize,
        ];
        for sweep in sweeps {
            let spread = HullCache::new(16, 16);
            let condition = key(5, 0);
            let mut shards = HashSet::new();
            for i in 0..64 {
                let mut p = MachineParams::ipsc860();
                sweep(&mut p, i);
                let machine = MachineKey::of(&p);
                let k = CacheKey { machine, ..condition.clone() };
                shards.insert(spread.shard_index(k.as_key_ref().hash_word()));
                spread.insert(k, hull(5));
            }
            assert!(shards.len() >= 14, "64 machines in {} of 16 shards", shards.len());
            assert_eq!((spread.len(), spread.evictions()), (64, 0));
        }
    }
}
