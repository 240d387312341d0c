//! The plan cache: content-addressed, LRU-bounded storage of compiled
//! plans — planar ([`SpiderPlan`]) and volumetric ([`Spider3DPlan`]) alike.
//!
//! SPIDER's ahead-of-time compile is `O(1)` in the grid size, but a serving
//! deployment still pays it once per *request* unless plans are reused — and
//! the whole point of the paper's preparation-cost argument (§4.2) is that
//! the transform is paid once per kernel, then amortized over millions of
//! sweeps. The cache makes that amortization explicit: plans are keyed by
//! the request's content fingerprint (kernel coefficients + shape + exec
//! mode + dimensionality), shared via `Arc`, and evicted least-recently-used
//! when the capacity bound is hit.
//!
//! ## Lock scope
//!
//! Compilation runs **outside** the cache mutex. The lock guards only the
//! map lookups and the statistics, so a slow compile for one key never
//! blocks concurrent hits or distinct-key misses. Two threads missing the
//! *same* key may both compile; the double-checked re-insert makes the
//! first writer win — the loser drops its plan and returns the winner's
//! `Arc`, so exactly one insertion happens per key. An earlier revision
//! held the lock across the compile, which serialized the whole runtime
//! behind any one slow resolution;
//! `slow_resolves_do_not_block_unrelated_lookups` pins the fix.
//!
//! ## One LRU for every tenant
//!
//! The key holds no tenant, so tenants running one kernel share one plan,
//! and a full cache evicts its least-recently-used entry whoever inserted
//! it. Tenancy is the scheduler's concern (weights, admission quotas and
//! per-tenant rows). An evicted plan costs its next user one compile, tens
//! of microseconds; the tuner's memos, which hold the costlier dry-runs,
//! are not evicted with it.

use spider_core::sync::{LockRank, OrderedMutex};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use spider_core::exec3d::Spider3DPlan;
use spider_core::plan::{PlanError, SpiderPlan};
use spider_core::ExecMode;

use crate::request::RequestKernel;

/// A cached compiled artifact: one entry per plan key, planar or
/// volumetric. Cloning is cheap (`Arc` bumps).
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// A 1D/2D plan served through [`spider_core::exec::SpiderExecutor`].
    Planar(Arc<SpiderPlan>),
    /// A 3D plan served through [`spider_core::exec3d::Spider3DExecutor`].
    Volumetric(Arc<Spider3DPlan>),
}

impl CachedPlan {
    /// Compile the right plan kind for `kernel`.
    pub fn compile(kernel: &RequestKernel) -> Result<Self, PlanError> {
        Ok(match kernel {
            RequestKernel::Planar(k) => CachedPlan::Planar(Arc::new(SpiderPlan::compile(k)?)),
            RequestKernel::Volumetric(k) => {
                CachedPlan::Volumetric(Arc::new(Spider3DPlan::compile(k)?))
            }
        })
    }

    /// Tap-schedule steps per output of one sweep under `mode` (every
    /// slice's, for a volume): a sweep's step-points are its outputs times
    /// this.
    pub(crate) fn schedule_steps(&self, mode: ExecMode) -> usize {
        match self {
            CachedPlan::Planar(p) => p.tap_schedule(mode).steps().len(),
            CachedPlan::Volumetric(p) => p
                .slices()
                .iter()
                .map(|(_, s)| s.tap_schedule(mode).steps().len())
                .sum(),
        }
    }

    /// The planar plan, if this entry is one.
    pub fn planar(&self) -> Option<&Arc<SpiderPlan>> {
        match self {
            CachedPlan::Planar(p) => Some(p),
            CachedPlan::Volumetric(_) => None,
        }
    }

    /// The volumetric plan, if this entry is one.
    pub fn volumetric(&self) -> Option<&Arc<Spider3DPlan>> {
        match self {
            CachedPlan::Planar(_) => None,
            CachedPlan::Volumetric(p) => Some(p),
        }
    }
}

/// Monotonic counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: CachedPlan,
    /// Recency tick of the most recent touch; also the key into `recency`.
    tick: u64,
}

struct Inner {
    next_tick: u64,
    map: HashMap<u64, Entry>,
    /// tick → cache key, ordered oldest-first (the eviction order).
    recency: BTreeMap<u64, u64>,
    stats: CacheStats,
}

impl Inner {
    /// Touch an existing entry: move it to the back of the recency order.
    fn touch(&mut self, key: u64) {
        let old_tick = self.map.get(&key).expect("touched entry exists").tick; // guard: touch() callers hold the lock and just probed the key
        let tick = self.next_tick;
        self.next_tick += 1;
        self.recency.remove(&old_tick);
        self.recency.insert(tick, key);
        self.map.get_mut(&key).expect("entry vanished").tick = tick; // guard: map and recency mutate in lockstep under one lock
    }

    /// Evict the least-recently-used entry.
    fn evict_oldest(&mut self) {
        if let Some((_, key)) = self.recency.pop_first() {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

/// LRU-bounded, thread-safe cache of compiled plans. See the module docs
/// for the lock-scope contract.
pub struct PlanCache {
    capacity: usize,
    inner: OrderedMutex<Inner>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "plan cache capacity must be at least 1");
        Self {
            capacity,
            inner: OrderedMutex::new(
                LockRank::PlanCache,
                "plan.cache",
                Inner {
                    next_tick: 0,
                    map: HashMap::new(),
                    recency: BTreeMap::new(),
                    stats: CacheStats::default(),
                },
            ),
        }
    }

    /// Look up `key`, compiling `kernel` on a miss. Returns the shared plan
    /// and whether the lookup was a hit.
    ///
    /// The compile runs with the cache **unlocked**; concurrent same-key
    /// misses compile independently and the first writer's plan wins (one
    /// insertion, losers adopt it).
    pub fn get_or_compile(
        &self,
        key: u64,
        kernel: &RequestKernel,
    ) -> Result<(CachedPlan, bool), PlanError> {
        self.get_or_resolve(key, || CachedPlan::compile(kernel))
    }

    /// [`Self::get_or_compile`] with the miss path's resolver passed in,
    /// so a test can hold a resolve open.
    fn get_or_resolve(
        &self,
        key: u64,
        resolve: impl FnOnce() -> Result<CachedPlan, PlanError>,
    ) -> Result<(CachedPlan, bool), PlanError> {
        {
            let mut inner = self.inner.lock();
            if let Some(entry) = inner.map.get(&key) {
                let plan = entry.plan.clone();
                inner.touch(key);
                inner.stats.hits += 1;
                return Ok((plan, true));
            }
            inner.stats.misses += 1;
        }
        // Resolve outside the lock: a compile may not stall unrelated
        // lookups.
        let plan = resolve()?;
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            // Another thread resolved the same key while we were unlocked:
            // first writer wins. Adopt its plan (ours is dropped).
            let winner = inner.map.get(&key).expect("present").plan.clone(); // guard: losing the insert race means the winner is present
            inner.touch(key);
            return Ok((winner, false));
        }
        if inner.map.len() >= self.capacity {
            inner.evict_oldest();
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.map.insert(
            key,
            Entry {
                plan: plan.clone(),
                tick,
            },
        );
        inner.recency.insert(tick, key);
        inner.stats.insertions += 1;
        Ok((plan, false))
    }

    /// Peek without compiling or recording a hit/miss (test/introspection).
    pub fn peek(&self, key: u64) -> Option<CachedPlan> {
        let inner = self.inner.lock();
        inner.map.get(&key).map(|e| e.plan.clone())
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_stencil::dim3::Kernel3D;
    use spider_stencil::{StencilKernel, StencilShape};

    fn kernel(seed: u64) -> RequestKernel {
        RequestKernel::Planar(StencilKernel::random(StencilShape::box_2d(1), seed))
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PlanCache::new(4);
        let k = kernel(1);
        let (a, hit_a) = cache.get_or_compile(k.fingerprint(), &k).unwrap();
        let (b, hit_b) = cache.get_or_compile(k.fingerprint(), &k).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(
            Arc::ptr_eq(a.planar().unwrap(), b.planar().unwrap()),
            "hits must share the compiled plan"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hit_rate(), 0.5);
    }

    #[test]
    fn volumetric_plans_cache_alongside_planar() {
        let cache = PlanCache::new(4);
        let k3 = RequestKernel::Volumetric(Kernel3D::random_box(1, 7));
        let (a, hit) = cache.get_or_compile(k3.fingerprint(), &k3).unwrap();
        assert!(!hit);
        assert!(a.volumetric().is_some() && a.planar().is_none());
        let (b, hit) = cache.get_or_compile(k3.fingerprint(), &k3).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(
            a.volumetric().unwrap(),
            b.volumetric().unwrap()
        ));
        // A planar kernel under a distinct key coexists.
        let k2 = kernel(7);
        cache.get_or_compile(k2.fingerprint(), &k2).unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = PlanCache::new(2);
        let (k1, k2, k3) = (kernel(1), kernel(2), kernel(3));
        cache.get_or_compile(k1.fingerprint(), &k1).unwrap();
        cache.get_or_compile(k2.fingerprint(), &k2).unwrap();
        // Touch k1 so k2 becomes the LRU victim.
        cache.get_or_compile(k1.fingerprint(), &k1).unwrap();
        cache.get_or_compile(k3.fingerprint(), &k3).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(k1.fingerprint()).is_some());
        assert!(cache.peek(k2.fingerprint()).is_none(), "k2 was coldest");
        assert!(cache.peek(k3.fingerprint()).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let cache = PlanCache::new(3);
        for s in 0..20 {
            let k = kernel(s);
            cache.get_or_compile(k.fingerprint(), &k).unwrap();
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.stats().evictions, 17);
    }

    #[test]
    fn compile_errors_do_not_occupy_slots() {
        let cache = PlanCache::new(2);
        let empty = RequestKernel::Planar(StencilKernel::box_2d(1, &[0.0; 9]));
        assert!(cache.get_or_compile(empty.fingerprint(), &empty).is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().insertions, 0);
    }

    /// Regression for the lock-scope bug: with a resolve parked mid-flight
    /// for key A, hits and misses on *other* keys must
    /// proceed. Under the old hold-the-lock-across-compile behaviour this
    /// test deadlocks.
    #[test]
    fn slow_resolves_do_not_block_unrelated_lookups() {
        use std::sync::mpsc;
        let cache = Arc::new(PlanCache::new(4));
        let kb = kernel(1);
        cache.get_or_compile(kb.fingerprint(), &kb).unwrap();

        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let ka = kernel(2);
        let slow = {
            let cache = Arc::clone(&cache);
            let ka = ka.clone();
            std::thread::spawn(move || {
                let resolve = || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap(); // park inside the resolver
                    CachedPlan::compile(&ka)
                };
                cache.get_or_resolve(ka.fingerprint(), resolve).unwrap()
            })
        };
        entered_rx.recv().unwrap(); // the slow resolver is in flight...
                                    // ...and a hit on B plus a distinct-key miss both complete now.
        let (_, hit) = cache.get_or_compile(kb.fingerprint(), &kb).unwrap();
        assert!(hit, "unrelated hit must not wait for the slow resolve");
        let kc = kernel(3);
        let (_, hit) = cache.get_or_compile(kc.fingerprint(), &kc).unwrap();
        assert!(!hit, "unrelated miss must not wait either");
        release_tx.send(()).unwrap();
        let (_, hit) = slow.join().unwrap();
        assert!(!hit, "the slow resolve still lands its compile");
        assert_eq!(cache.stats().insertions, 3);
    }

    /// Concurrent same-key misses: every thread gets the same plan, exactly
    /// one insertion happens (first writer wins), and hits + misses still
    /// add up to the number of lookups.
    #[test]
    fn concurrent_same_key_misses_insert_once() {
        let cache = Arc::new(PlanCache::new(4));
        let k = kernel(9);
        const THREADS: usize = 4;
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let plans: Vec<CachedPlan> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let k = k.clone();
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        cache.get_or_compile(k.fingerprint(), &k).unwrap().0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let first = plans[0].planar().unwrap();
        for p in &plans {
            assert!(
                Arc::ptr_eq(first, p.planar().unwrap()),
                "losers must adopt the winner's plan"
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1, "first writer wins exactly once");
        assert_eq!(stats.hits + stats.misses, THREADS as u64);
        assert_eq!(cache.len(), 1);
    }
}
