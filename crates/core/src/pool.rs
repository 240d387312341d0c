//! Scratch-buffer pool: the allocation-free backbone of the executor.
//!
//! A run needs grid-sized scratch: a destination grid for the ping-pong
//! stepping, and for the 3D executor's emulated path one slice-partial
//! plane.
//! Without the pool each run pays a fresh grid-sized allocation (and its
//! page faults); at serving rates that is the "data-movement overhead"
//! Casper identifies as the stencil bottleneck, spent in the allocator
//! instead of the kernel. The pool recycles those buffers across steps,
//! runs and (via [`BufferPool::clone`], which shares
//! the underlying store) across executors — the runtime hands one pool to
//! every executor it constructs so a warm serving process stops allocating
//! entirely.
//!
//! Buffers are handed out zeroed (`take`) and returned explicitly (`put`);
//! the executor's take/put pairs are structured, so a guard type would buy
//! nothing. The hit/miss counters are the observable the steady-state
//! no-allocation test pins: after warmup, `misses` stops growing.
//!
//! Concurrency tradeoff: one global `Mutex` over a capacity-sorted free
//! list. Lookup is a binary search and the critical section is sub-µs,
//! while the work between a `take` and its `put` is a whole run (tens to
//! hundreds of µs), so the lock is not a practical
//! serialization point at the executor's thread counts. If profiles ever
//! disagree, per-size-class freelists are the next step — behind the same
//! two-method API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{LockRank, OrderedMutex};

/// Cumulative pool counters ([`BufferPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `take` calls served from a recycled buffer (no allocation).
    pub hits: u64,
    /// `take` calls that had to allocate a fresh buffer.
    pub misses: u64,
}

#[derive(Debug)]
struct PoolInner {
    /// Free buffers, sorted ascending by capacity, so best-fit lookup is a
    /// binary search instead of a linear scan under the lock (`take` runs
    /// once per simulated block on the hot path).
    free: OrderedMutex<Vec<Vec<f32>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PoolInner {
    fn default() -> Self {
        Self {
            free: OrderedMutex::new(LockRank::BufferPool, "pool.free", Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl PoolInner {
    /// Pop the smallest free buffer whose capacity is at least `len`
    /// (best fit); `None` when nothing fits. Counts the hit/miss.
    fn reuse(&self, len: usize) -> Option<Vec<f32>> {
        let reused = {
            let mut free = self.free.lock();
            let idx = free.partition_point(|b| b.capacity() < len);
            (idx < free.len()).then(|| free.remove(idx))
        };
        match &reused {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        reused
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
            None => vec![0.0; len],
        }
    }

    /// Take a buffer holding a copy of `src` — the ping-pong-scratch
    /// variant of [`Self::take`]. Writes each element exactly once (no
    /// zero-fill before the copy), which matters when the buffer is a whole
    /// padded grid.
    pub fn take_copy_of(&self, src: &[f32]) -> Vec<f32> {
        match self.inner.reuse(src.len()) {
            Some(mut buf) => {
                buf.clear();
                buf.extend_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }

    /// Return a buffer to the pool for reuse. Zero-capacity buffers are
    /// dropped (nothing to recycle).
    pub fn put(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.inner.free.lock();
        let idx = free.partition_point(|b| b.capacity() < buf.capacity());
        free.insert(idx, buf);
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
        assert_eq!(pool.free_buffers(), 1, "small buffer stays available");
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
    fn take_copy_of_reuses_and_copies_exactly() {
        let pool = BufferPool::new();
        pool.put(vec![9.0; 64]);
        let src: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let copy = pool.take_copy_of(&src);
        assert_eq!(copy, src, "contents are the source, not stale data");
        assert!(copy.capacity() >= 64, "recycled the pooled buffer");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 0 });
        let fresh = pool.take_copy_of(&src); // pool now empty → miss
        assert_eq!(fresh, src);
        assert_eq!(pool.stats().misses, 1);
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
