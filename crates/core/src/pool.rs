//! Buffer pool: the allocation-free backbone of serving.
//!
//! Every grid-sized buffer a served request touches comes from here: its
//! materialized input, the ping-pong scratch of a 1D or 2D sweep, a 3D
//! run's `next` volume, and the 3D emulated path's partial plane. Without
//! the pool each request pays fresh grid-sized allocations (and their
//! page faults); at serving rates that is the "data-movement overhead"
//! Casper identifies as the stencil bottleneck, spent in the allocator
//! instead of the kernel, and a second serving thread doubles it. The pool
//! recycles those buffers across steps, runs and (via [`BufferPool::clone`],
//! which shares the underlying store) across executors and threads — the
//! runtime hands one pool to every executor it constructs, so a warm
//! serving process stops allocating.
//!
//! Buffers are handed out zeroed ([`BufferPool::take`]), holding whatever
//! they held before ([`BufferPool::take_any`], for a caller that writes
//! every element before reading it), or holding a source's values outside
//! the rows a sweep is about to write ([`BufferPool::take_halo_of`]); they
//! are returned explicitly ([`BufferPool::put`]). The take/put pairs are
//! structured, so a guard type would buy nothing. The hit/miss counters
//! are the observable the steady-state no-allocation tests pin: after
//! warmup, `misses` stops growing.
//!
//! ## The free-list bound
//!
//! The pool tracks its high-water length: the largest `len` any take (or
//! reserve) has asked for. A take that finds no free buffer large enough
//! drops the largest free one (too small, by definition) and allocates
//! room for the high-water length, and [`BufferPool::put`] drops any
//! buffer shorter than it. So a miss only adds to the buffers in existence
//! when none is free, the pool never holds more buffers than were ever
//! taken (or reserved) at once, and once the largest grid has been served
//! every buffer fits every take: a warm pool misses only when more buffers
//! are out at once than ever were. A served request holds at most two at a
//! time — its input and its scratch (a volume and its `next`), three on
//! the 3D emulated path — and a runtime's fanned-out wave reserves two per
//! job before its jobs start ([`BufferPool::reserve`]). So, the 3D
//! emulated path aside, a runtime's free list holds at most two buffers
//! per job of its widest wave, each no larger than the largest grid it
//! served, and a repeated wave allocates nothing however its jobs' sweeps
//! overlap. The bound is derived, not configured; there is no capacity
//! knob.
//!
//! Concurrency tradeoff: one global `Mutex` over a capacity-sorted free
//! list. Lookup is a binary search and the critical section is sub-µs,
//! while the work between a `take` and its `put` is a whole sweep (tens to
//! hundreds of µs), so the lock is not a practical serialization point at
//! the runtime's job counts. If profiles ever disagree, per-size-class
//! freelists are the next step — behind the same API.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::{LockRank, OrderedMutex};

/// Cumulative pool counters ([`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `take` calls served from a recycled buffer (no allocation).
    pub hits: u64,
    /// Buffers the pool had to allocate: `take` calls that found none free
    /// that fit, and [`BufferPool::reserve`]'s shortfalls.
    pub misses: u64,
}

#[derive(Debug)]
struct PoolInner {
    /// Free buffers, sorted ascending by capacity, so best-fit lookup is a
    /// binary search instead of a linear scan under the lock (`take` runs
    /// once per simulated block on the hot path).
    free: OrderedMutex<Vec<Vec<f32>>>,
    /// The largest `len` any take has asked for (see the module docs on
    /// the free-list bound).
    high_water: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PoolInner {
    fn default() -> Self {
        Self {
            free: OrderedMutex::new(LockRank::BufferPool, "pool.free", Vec::new()),
            high_water: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl PoolInner {
    /// Pop the smallest free buffer whose capacity is at least `len` (best
    /// fit); `None` when nothing fits, after dropping the largest free
    /// buffer, so the caller's [`Self::fresh`] buffer replaces it (see the
    /// module docs on the free-list bound). Raises the high-water length to
    /// `len` and counts the hit/miss.
    fn reuse(&self, len: usize) -> Option<Vec<f32>> {
        self.high_water.fetch_max(len, Ordering::Relaxed);
        let (reused, outgrown) = {
            let mut free = self.free.lock();
            let idx = free.partition_point(|b| b.capacity() < len);
            match idx < free.len() {
                true => (Some(free.remove(idx)), None),
                false => (None, free.pop()),
            }
        };
        drop(outgrown);
        match &reused {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        reused
    }

    /// A zero-filled buffer of `len` elements with room for the high-water
    /// length, so it fits every take the pool has seen.
    fn fresh(&self, len: usize) -> Vec<f32> {
        let mut buf = vec![0.0; self.high_water.load(Ordering::Relaxed).max(len)];
        buf.truncate(len);
        buf
    }
}

/// A shareable pool of `f32` scratch buffers. Cloning is shallow: clones
/// draw from (and return to) the same store, so one pool can serve every
/// executor a runtime constructs.
#[derive(Debug, Clone, Default)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a zero-filled buffer of exactly `len` elements. Reuses the
    /// best-fitting free buffer whose capacity suffices (a *hit*);
    /// allocates otherwise (a *miss*).
    pub fn take(&self, len: usize) -> Vec<f32> {
        match self.inner.reuse(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => self.inner.fresh(len),
        }
    }

    /// Take a buffer of exactly `len` elements whose values are unspecified
    /// (a recycled buffer keeps what it held; a fresh one is zero): for a
    /// caller that writes every element before it reads one, which then
    /// pays no zero-fill.
    pub fn take_any(&self, len: usize) -> Vec<f32> {
        match self.inner.reuse(len) {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => self.inner.fresh(len),
        }
    }

    /// Take a buffer shaped like `src` that holds `src`'s values everywhere
    /// but in the `width`-long spans starting at each of `rows` (ascending),
    /// whose values are unspecified: a sweep's destination. The sweep writes
    /// those spans, its output rows, before anything reads them, while the
    /// rest, the halo, must match the source (checksums cover padded
    /// storage). Copying the halo alone instead of the whole grid saves a
    /// pass over the interior.
    pub fn take_halo_of(
        &self,
        src: &[f32],
        rows: impl IntoIterator<Item = usize>,
        width: usize,
    ) -> Vec<f32> {
        let mut buf = self.take_any(src.len());
        let mut end = 0;
        for row in rows {
            buf[end..row].copy_from_slice(&src[end..row]);
            end = row + width;
        }
        buf[end..].copy_from_slice(&src[end..]);
        buf
    }

    /// Return a buffer to the pool for reuse. Buffers shorter than the
    /// high-water length are dropped (see the module docs on the free-list
    /// bound), and so are zero-capacity ones (nothing to recycle).
    pub fn put(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 || buf.capacity() < self.inner.high_water.load(Ordering::Relaxed) {
            return;
        }
        let mut free = self.inner.free.lock();
        let idx = free.partition_point(|b| b.capacity() < buf.capacity());
        free.insert(idx, buf);
    }

    /// Make sure at least `buffers` free buffers hold `len` elements each,
    /// allocating the shortfall (each a miss): for a caller about to take
    /// that many at once from several threads, whose first round would
    /// otherwise allocate only as many as happened to be out together.
    /// Raises the high-water length to `len`, as a take does, and drops the
    /// free buffers shorter than it, as a miss would. A reserved buffer is
    /// empty, so a reserve touches no memory: the take that first uses it
    /// zero-fills what it takes, as a fresh buffer comes zeroed.
    pub fn reserve(&self, buffers: usize, len: usize) {
        let high_water = self
            .inner
            .high_water
            .fetch_max(len, Ordering::Relaxed)
            .max(len);
        let (fit, outgrown) = {
            let mut free = self.inner.free.lock();
            let short = free.partition_point(|b| b.capacity() < high_water);
            let outgrown: Vec<Vec<f32>> = free.drain(..short).collect();
            (free.len(), outgrown)
        };
        drop(outgrown);
        for _ in fit..buffers {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            self.put(Vec::with_capacity(high_water));
        }
    }

    /// Buffers currently sitting in the free list.
    pub fn free_buffers(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Cumulative hit/miss counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_hits_after_first_round() {
        let pool = BufferPool::new();
        let a = pool.take(100);
        assert_eq!(a.len(), 100);
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 1 });
        pool.put(a);
        let b = pool.take(80); // smaller fits in the recycled buffer
        assert_eq!(b.len(), 80);
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffers are zeroed");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn oversized_request_misses() {
        let pool = BufferPool::new();
        pool.put(vec![1.0; 10]);
        let big = pool.take(1000);
        assert_eq!(big.len(), 1000);
        assert_eq!(pool.stats().misses, 1);
        // The outgrown buffer is dropped, not kept beside the new one: the
        // pool never holds more buffers than were taken at once.
        assert_eq!(pool.free_buffers(), 0, "the too-small buffer is gone");
        pool.put(big);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(1000));
        pool.put(Vec::with_capacity(100));
        let b = pool.take(50);
        assert!(b.capacity() < 1000, "must pick the 100-cap buffer");
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn take_halo_of_copies_everything_but_the_rows() {
        let pool = BufferPool::new();
        pool.put(vec![f32::NAN; 64]);
        // A 4×6 padded plane, halo 1: interior rows start at 7 and 13.
        let src: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let buf = pool.take_halo_of(&src, [7, 13], 4);
        assert_eq!(buf.len(), 24);
        assert!(buf.capacity() >= 64, "recycled the pooled buffer");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 0 });
        for (i, (&got, &want)) in buf.iter().zip(&src).enumerate() {
            let interior = (7..11).contains(&i) || (13..17).contains(&i);
            assert!(interior || got == want, "halo cell {i}: {got}");
            assert!(!interior || got.is_nan(), "row cell {i} was copied");
        }
        let fresh = pool.take_halo_of(&src, [7, 13], 4); // pool now empty → miss
        assert_eq!(fresh[..7], src[..7]);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn take_any_keeps_the_recycled_values() {
        let pool = BufferPool::new();
        pool.put(vec![3.0; 8]);
        assert_eq!(pool.take_any(5), vec![3.0; 5]);
        pool.put(vec![3.0; 8]);
        let grown = pool.take_any(8);
        assert_eq!(grown, vec![3.0; 8]);
    }

    #[test]
    fn the_pool_holds_no_more_buffers_than_were_taken_at_once() {
        let pool = BufferPool::new();
        // Two at a time, in growing sizes: every size misses, yet only two
        // buffers ever exist.
        for len in [10, 100, 1000, 10_000] {
            let (a, b) = (pool.take(len), pool.take(len));
            pool.put(a);
            pool.put(b);
            assert_eq!(pool.free_buffers(), 2, "len {len}");
        }
        assert_eq!(pool.stats().misses, 8);
        for len in [10, 10_000, 5] {
            let (a, b) = (pool.take(len), pool.take(len));
            pool.put(a);
            pool.put(b);
        }
        assert_eq!(pool.stats().misses, 8, "warm: every size hits");
        assert_eq!(pool.free_buffers(), 2);
    }

    /// Buffers sized for a smaller grid are replaced as soon as a larger
    /// one is served, not one at a time whenever a later wave first needs
    /// more large buffers at once than exist.
    #[test]
    fn a_pool_that_served_its_largest_grid_fits_every_take() {
        let pool = BufferPool::new();
        pool.put(pool.take(10));
        pool.put(pool.take(1000));
        let (a, b) = (pool.take(10), pool.take(10));
        pool.put(a);
        pool.put(b);
        let misses = pool.stats().misses;
        let (a, b) = (pool.take(1000), pool.take(1000));
        assert_eq!(pool.stats().misses, misses, "both large takes hit");
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.free_buffers(), 2);
    }

    /// A reserve allocates only what the free list lacks, keeps no buffer
    /// too small for it, and the takes it was made for then hit, however
    /// many are out at once.
    #[test]
    fn a_reserve_allocates_the_shortfall_once() {
        let pool = BufferPool::new();
        pool.put(vec![0.0; 10]);
        pool.reserve(2, 100);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.free_buffers(), 2, "the outgrown buffer is dropped");
        pool.reserve(3, 100);
        assert_eq!(pool.stats().misses, 3, "only the shortfall");
        let held: Vec<Vec<f32>> = (0..3).map(|_| pool.take_any(100)).collect();
        assert_eq!(pool.stats().misses, 3, "all three hit");
        held.into_iter().for_each(|b| pool.put(b));
        pool.reserve(3, 80);
        assert_eq!(pool.stats().misses, 3, "a warm reserve allocates nothing");
        assert_eq!(pool.free_buffers(), 3);
    }

    #[test]
    fn clones_share_the_store() {
        let pool = BufferPool::new();
        let clone = pool.clone();
        clone.put(vec![0.0; 64]);
        let b = pool.take(64);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(clone.stats(), pool.stats());
        pool.put(b);
        assert_eq!(clone.free_buffers(), 1);
    }

    #[test]
    fn concurrent_take_put_is_safe() {
        let pool = BufferPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let b = pool.take(256);
                        pool.put(b);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.misses <= 4, "at most one allocation per thread");
    }
}
