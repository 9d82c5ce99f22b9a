//! Capacity-bounded single-flight memoization: the one cache type behind
//! every process-wide cache in the workspace (compression artifacts,
//! served workloads, `M`-invariant units, activation masks, compiled
//! layer plans, folded walk sums).
//!
//! [`SingleFlightCache`] has per-key single-flight semantics — the first
//! caller for a key runs the computation while holding that key's slot
//! lock, concurrent callers for the same key wait on the slot (not the
//! whole map) and read the finished value, errors are never cached, and a
//! panic poisons only its own slot — and an LRU capacity bound so a
//! long-running process (the `escalate serve` daemon) cannot grow the
//! cache without limit.
//!
//! Eviction never touches an *in-flight* entry: a caller computing or
//! waiting on a slot holds a clone of its `Arc`, so any entry with an
//! outstanding reference (strong count > 1) is skipped. That preserves
//! single-flight under pressure — a key being computed cannot be evicted
//! and silently recomputed by a concurrent caller — at the cost of
//! allowing the map to overflow its capacity temporarily while every
//! resident entry is in flight. The bound is re-enforced on the next
//! insertion once slots settle.
//!
//! The computation runs as a scope of the one rayon pool, and a waiter
//! runs that scope's queued jobs until none is left before it blocks on
//! the slot: a thread waiting on a value helps compute it instead of
//! idling beside its fan-out. It runs no other job, since it may hold
//! locks of its own that another job needs.
//!
//! Victims come from a recency index (`tick → key`, ordered) kept beside
//! the map: every lookup moves its key to a fresh tick, and eviction pops
//! from the oldest end, skipping only in-flight slots. Ticks are unique,
//! so the victims are exactly the ones a scan for the smallest tick would
//! pick, in the same order, at `O(log n)` per lookup and per victim
//! instead of `O(n)` per victim — a 16k-entry bound costs a miss no more
//! than a 512-entry one.

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Mutex, TryLockError};

use crate::par::lock_recover;

/// The result of one [`SingleFlightCache::get_or_compute`] lookup.
#[derive(Debug)]
pub struct Lookup<V> {
    /// The cached or freshly computed value.
    pub value: V,
    /// Whether the value was already cached (no compute ran).
    pub hit: bool,
    /// Entries evicted by this lookup to stay within capacity (only a
    /// miss inserts, so a hit never evicts).
    pub evicted: u64,
}

/// One key's value and, while a caller computes it, the pool scope that
/// computation's parallel work runs under.
struct Slot<V> {
    value: Mutex<Option<V>>,
    computing: Mutex<Option<rayon::ScopeHandle>>,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot {
            value: Mutex::new(None),
            computing: Mutex::new(None),
        }
    }
}

struct Entry<V> {
    slot: Arc<Slot<V>>,
    last_used: u64,
}

impl<V> Default for Entry<V> {
    fn default() -> Self {
        Entry {
            slot: Arc::default(),
            last_used: 0,
        }
    }
}

struct Inner<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Recency index: each resident entry's `last_used` tick → its key,
    /// oldest first. Holds exactly one tick per entry of `entries`.
    recency: BTreeMap<u64, K>,
    /// Monotone lookup counter stamping `last_used` (LRU order). Starts
    /// at 0 and is bumped before use, so no resident entry has tick 0.
    tick: u64,
    /// Maximum resident entries; `0` means unbounded.
    capacity: usize,
    /// Entries evicted since the cache was created.
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> Inner<K, V> {
    /// Stamps `key` (inserting an empty slot if absent) with a fresh tick,
    /// moves it to the newest end of the recency index, and returns its
    /// slot.
    fn touch(&mut self, key: &K) -> Arc<Slot<V>> {
        self.tick += 1;
        let entry = self.entries.entry(key.clone()).or_default();
        if entry.last_used != 0 {
            self.recency.remove(&entry.last_used);
        }
        entry.last_used = self.tick;
        self.recency.insert(self.tick, key.clone());
        Arc::clone(&entry.slot)
    }

    /// Drops `key` from the map and the recency index.
    fn remove(&mut self, key: &K) {
        if let Some(entry) = self.entries.remove(key) {
            self.recency.remove(&entry.last_used);
        }
    }

    /// Evicts least-recently-used settled entries until the map fits the
    /// capacity (or only in-flight entries remain). Returns the count.
    fn evict_over_capacity(&mut self) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let entries = &self.entries;
            let victim = self
                .recency
                .iter()
                .find(|(_, k)| Arc::strong_count(&entries[*k].slot) == 1)
                .map(|(&tick, _)| tick);
            match victim.and_then(|tick| self.recency.remove(&tick)) {
                Some(k) => {
                    self.entries.remove(&k);
                    evicted += 1;
                }
                // Every resident entry is in flight: overflow temporarily
                // rather than break single-flight.
                None => break,
            }
        }
        self.evictions += evicted;
        evicted
    }
}

/// A per-key single-flight memoization map with an LRU capacity bound.
pub struct SingleFlightCache<K, V> {
    inner: Mutex<Inner<K, V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlightCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (`0` =
    /// unbounded, the historical behaviour).
    pub fn new(capacity: usize) -> SingleFlightCache<K, V> {
        SingleFlightCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
                capacity,
                evictions: 0,
            }),
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        lock_recover(&self.inner).capacity
    }

    /// Entries evicted since the cache was created.
    pub fn evictions(&self) -> u64 {
        lock_recover(&self.inner).evictions
    }

    /// Whether `key` is resident (never touches LRU order).
    pub fn contains(&self, key: &K) -> bool {
        lock_recover(&self.inner).entries.contains_key(key)
    }

    /// Changes the capacity bound, evicting down to it immediately.
    /// Returns the number of entries evicted.
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        let mut inner = lock_recover(&self.inner);
        inner.capacity = capacity;
        inner.evict_over_capacity()
    }

    /// [`SingleFlightCache::get_or_compute`] for a computation that
    /// cannot fail.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Lookup<V> {
        let Ok(look) = self.get_or_compute(key, || Ok::<V, Infallible>(compute()));
        look
    }

    /// Returns the cached value for `key`, or runs `compute` exactly once
    /// across concurrent callers and caches the result. Errors are not
    /// cached: a caller already waiting on the slot retries the compute,
    /// and with no waiter the empty slot is dropped so it neither counts
    /// as resident nor displaces a settled entry. A panic inside `compute`
    /// poisons only that key's slot, which later callers recover from.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Lookup<V>, E> {
        let slot = lock_recover(&self.inner).touch(&key);
        let mut guard = loop {
            match slot.value.try_lock() {
                Ok(guard) => break guard,
                Err(TryLockError::Poisoned(p)) => break p.into_inner(),
                // Another caller is computing this key: run that
                // computation's queued pool jobs while it lasts, so a
                // waiter never idles beside work it is waiting for.
                Err(TryLockError::WouldBlock) => {
                    let computing = lock_recover(&slot.computing).clone();
                    if !computing.is_some_and(|c| c.try_help()) {
                        break lock_recover(&slot.value);
                    }
                }
            }
        };
        if let Some(hit) = guard.as_ref() {
            return Ok(Lookup {
                value: hit.clone(),
                hit: true,
                evicted: 0,
            });
        }
        let computed = rayon::scope(|s| {
            *lock_recover(&slot.computing) = Some(s.handle());
            compute()
        });
        *lock_recover(&slot.computing) = None;
        match computed {
            Ok(v) => {
                *guard = Some(v.clone());
                drop(guard);
                // Evict only once the value has settled, so a failed
                // compute never displaces anything. Our own `Arc` keeps
                // the new entry out of the victim set.
                let evicted = lock_recover(&self.inner).evict_over_capacity();
                Ok(Lookup {
                    value: v,
                    hit: false,
                    evicted,
                })
            }
            Err(e) => {
                drop(guard);
                let mut inner = lock_recover(&self.inner);
                // The map's reference plus ours: no caller is waiting to
                // retry through this slot, and new callers can only take
                // one under the map lock held here.
                if Arc::strong_count(&slot) == 2 {
                    inner.remove(&key);
                }
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn computes_once_across_threads() {
        let cache: SingleFlightCache<u32, u64> = SingleFlightCache::new(0);
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let look = cache
                        .get_or_compute(1u32, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<u64, ()>(42)
                        })
                        .unwrap();
                    assert_eq!(look.value, 42);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "compute must run once");
        let look = cache.get_or_compute(1u32, || Ok::<u64, ()>(0)).unwrap();
        assert!(look.hit, "later calls must be hits");
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: SingleFlightCache<u32, u64> = SingleFlightCache::new(0);
        let err = cache.get_or_compute(1u32, || Err::<u64, &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        // A failed compute leaves nothing resident behind it.
        assert!(!cache.contains(&1));
        assert_eq!(cache.len(), 0);
        let look = cache.get_or_compute(1u32, || Ok::<u64, &str>(7)).unwrap();
        assert_eq!(look.value, 7);
        assert!(
            !look.hit,
            "the retry must recompute, not read a cached error"
        );
        // Under a cap, a failed key must not displace a settled one.
        let capped: SingleFlightCache<u32, u64> = SingleFlightCache::new(1);
        capped.get_or_compute(1u32, || Ok::<u64, &str>(1)).unwrap();
        assert!(capped
            .get_or_compute(2u32, || Err::<u64, &str>("boom"))
            .is_err());
        assert!(capped.contains(&1) && !capped.contains(&2));
        assert_eq!(capped.evictions(), 0);
    }

    #[test]
    fn recovers_from_poisoned_slots() {
        let cache: SingleFlightCache<u32, u64> = SingleFlightCache::new(0);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute(1u32, || -> Result<u64, ()> {
                panic!("compression panicked mid-flight")
            });
        }));
        assert!(poison.is_err());
        // The panic poisoned key 1's slot; the next caller must recover
        // and compute rather than propagate the old panic.
        let look = cache.get_or_compute(1u32, || Ok::<u64, ()>(9)).unwrap();
        assert_eq!(look.value, 9);
        assert!(!look.hit);
        // Unrelated keys were never affected.
        let look = cache.get_or_compute(2u32, || Ok::<u64, ()>(11)).unwrap();
        assert_eq!(look.value, 11);
    }

    #[test]
    fn capped_cache_stays_capped_under_churn() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(4);
        let mut evicted = 0u64;
        for k in 0..100u32 {
            let look = cache.get_or_compute(k, || Ok::<u32, ()>(k * 2)).unwrap();
            assert!(!look.hit);
            evicted += look.evicted;
            assert!(cache.len() <= 4, "len {} exceeded the cap", cache.len());
        }
        assert_eq!(evicted, 96, "every insertion past the cap evicts one");
        // The residents are exactly the four most recent keys.
        for k in 96..100u32 {
            assert!(cache.contains(&k), "key {k} should still be resident");
        }
        assert!(!cache.contains(&95));
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let cache: SingleFlightCache<&str, u32> = SingleFlightCache::new(2);
        cache.get_or_compute("a", || Ok::<u32, ()>(1)).unwrap();
        cache.get_or_compute("b", || Ok::<u32, ()>(2)).unwrap();
        // Touch "a" so "b" becomes the LRU entry.
        let look = cache.get_or_compute("a", || Ok::<u32, ()>(0)).unwrap();
        assert!(look.hit);
        let look = cache.get_or_compute("c", || Ok::<u32, ()>(3)).unwrap();
        assert_eq!(look.evicted, 1);
        assert!(cache.contains(&"a") && cache.contains(&"c"));
        assert!(!cache.contains(&"b"), "the least recently used key goes");
    }

    #[test]
    fn set_capacity_evicts_down_immediately() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(0);
        for k in 0..10u32 {
            cache.get_or_compute(k, || Ok::<u32, ()>(k)).unwrap();
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.set_capacity(3), 7);
        assert_eq!(cache.len(), 3);
        for k in 7..10u32 {
            assert!(cache.contains(&k));
        }
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        let cache: SingleFlightCache<u32, u32> = SingleFlightCache::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let look = cache
                    .get_or_compute(1u32, || {
                        std::thread::sleep(std::time::Duration::from_millis(60));
                        Ok::<u32, ()>(10)
                    })
                    .unwrap();
                assert_eq!(look.value, 10);
            });
            std::thread::sleep(std::time::Duration::from_millis(15));
            // Key 1 is mid-compute (its slot Arc is held); inserting key 2
            // overflows the cap of 1 rather than evicting the in-flight
            // entry out from under its caller.
            let look = cache.get_or_compute(2u32, || Ok::<u32, ()>(20)).unwrap();
            assert_eq!(look.evicted, 0, "in-flight entries are protected");
        });
        // Key 1 settled and cached: a second caller hits without recompute.
        let look = cache
            .get_or_compute(1u32, || Err::<u32, &str>("must not recompute"))
            .unwrap();
        assert!(look.hit);
    }

    /// The linear-scan LRU the recency index replaced, kept as the
    /// single-threaded reference: each resident key's `last_used` tick,
    /// and a victim search over every entry for the smallest tick that
    /// skips the caller's own in-flight key.
    struct ScanLru {
        entries: HashMap<u8, u64>,
        tick: u64,
        capacity: usize,
        evictions: u64,
    }

    impl ScanLru {
        fn evict_over_capacity(&mut self, in_flight: Option<u8>) -> u64 {
            if self.capacity == 0 {
                return 0;
            }
            let mut evicted = 0;
            while self.entries.len() > self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(k, _)| Some(**k) != in_flight)
                    .min_by_key(|(_, last_used)| **last_used)
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        self.entries.remove(&k);
                        evicted += 1;
                    }
                    None => break,
                }
            }
            self.evictions += evicted;
            evicted
        }

        /// `Ok((hit, evicted))`, or `Err` for a failed compute on a miss.
        fn lookup(&mut self, key: u8, fail: bool) -> Result<(bool, u64), ()> {
            self.tick += 1;
            if let Some(last_used) = self.entries.get_mut(&key) {
                *last_used = self.tick;
                return Ok((true, 0));
            }
            if fail {
                return Err(());
            }
            self.entries.insert(key, self.tick);
            Ok((false, self.evict_over_capacity(Some(key))))
        }
    }

    /// Keys are drawn from `0..KEYS`, small enough that hits, evictions
    /// and re-insertions all happen often.
    const KEYS: u8 = 12;

    #[derive(Debug, Clone)]
    enum Op {
        Lookup { key: u8, fail: bool },
        SetCapacity(usize),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            12 => (0..KEYS, 0u8..8).prop_map(|(key, f)| Op::Lookup { key, fail: f == 0 }),
            1 => (0usize..7).prop_map(Op::SetCapacity),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The recency-indexed cache makes the same hit/miss, eviction
        /// and residency decisions as the linear scan, step for step.
        #[test]
        fn recency_index_matches_the_linear_scan(
            capacity in 0usize..7,
            ops in proptest::collection::vec(op(), 1..160),
        ) {
            let cache: SingleFlightCache<u8, u8> = SingleFlightCache::new(capacity);
            let mut reference = ScanLru {
                entries: HashMap::new(),
                tick: 0,
                capacity,
                evictions: 0,
            };
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Lookup { key, fail } => {
                        let got = cache
                            .get_or_compute(key, || if fail { Err(()) } else { Ok(key) })
                            .map(|look| {
                                assert_eq!(look.value, key);
                                (look.hit, look.evicted)
                            });
                        proptest::prop_assert_eq!(got, reference.lookup(key, fail), "step {}", step);
                    }
                    Op::SetCapacity(capacity) => {
                        reference.capacity = capacity;
                        proptest::prop_assert_eq!(
                            cache.set_capacity(capacity),
                            reference.evict_over_capacity(None),
                            "step {}", step
                        );
                    }
                }
                proptest::prop_assert_eq!(cache.len(), reference.entries.len(), "step {}", step);
                proptest::prop_assert_eq!(cache.evictions(), reference.evictions);
                for key in 0..KEYS {
                    proptest::prop_assert_eq!(
                        cache.contains(&key),
                        reference.entries.contains_key(&key),
                        "key {} at step {}", key, step
                    );
                }
            }
            let inner = lock_recover(&cache.inner);
            proptest::prop_assert_eq!(inner.recency.len(), inner.entries.len());
        }
    }
}
