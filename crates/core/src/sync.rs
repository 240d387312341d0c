//! Ranked locks: deadlock detection by construction.
//!
//! Every long-lived lock in the workspace is an [`OrderedMutex`] or
//! [`OrderedRwLock`] carrying a static [`LockRank`]. A thread may only
//! acquire locks in **strictly increasing rank order**; debug builds keep a
//! thread-local stack of held ranks and panic the moment any code path
//! acquires out of order — turning a potential deadlock (which needs an
//! unlucky interleaving to bite) into a deterministic test failure on *any*
//! interleaving. Release builds compile the bookkeeping out entirely: the
//! wrappers are `size_of`-identical to the raw `std::sync` locks (asserted
//! by a release-profile test below) and every method is a transparent
//! forward, a property the `telemetry_on_requests_per_sec` bench key gates:
//! its warm `run_batch` workload takes the runtime's ranked locks (plan
//! cache, tuner, buffer pool, telemetry), and every rank uses the
//! same generic wrapper, so the key covers the wrapper's cost for all ranks.
//!
//! ## The global lock order
//!
//! The ranks below document every legal nesting in the serving stack.
//! Evidence for each edge lives next to the acquiring code; the full test
//! suite runs with the checker active, so the order is enforced rather than
//! aspirational.
//!
//! | Rank | Lock | Held while taking… |
//! |-----:|------|--------------------|
//! | 100 | `ClusterMembership` (RwLock) | cluster state, health, scheduler state, telemetry |
//! | 200 | `ClusterState` | scheduler state (poll/cancel/rebalance) |
//! | 300 | `ClusterHealth` | scheduler state (progress beats) |
//! | 400 | `SchedulerState` | trace ring, profiler (dispatch accounting) |
//! | 500 | `PlanCache` | nothing — compiles run outside the lock (PR 5) |
//! | 520 | `TunerMemo` | nothing — dry runs run outside the lock |
//! | 600 | `PlanCharges` | nothing — counters are charged outside the lock |
//! | 650 | `BufferPool` | nothing (leaf) |
//! | 700 | `TraceRing` | nothing (leaf) |
//! | 740 | `RuntimeMeters` | nothing (leaf) |
//! | 760 | `Profiler` | nothing (leaf) |
//!
//! Worker threads spawned for execution (a sweep's fan-out through the
//! rayon shim) carry their own empty rank stacks, so cross-thread pipelines
//! are naturally in scope: each thread's *own* nesting is what the order
//! constrains.
//!
//! ## Condvar integration
//!
//! `Condvar::wait` atomically releases the mutex while blocked, so
//! [`OrderedMutexGuard::wait_on`] pops the held-rank entry for the duration
//! of the wait and re-validates on wake — a thread parked on the scheduler's
//! `work` condvar holds no `SchedulerState` rank while other threads run.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The global lock order. Discriminants are the rank; gaps are deliberate
/// room for future locks. See the module docs for the nesting evidence.
#[repr(u16)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockRank {
    /// `SpiderCluster::membership` — outermost: routing reads it, admin ops
    /// write it, and everything else nests inside.
    ClusterMembership = 100,
    /// `SpiderCluster::state` — routed-slot map, fault plan, steal counters.
    ClusterState = 200,
    /// `SpiderCluster::health` — heartbeat monitor; observes scheduler
    /// progress beats while held.
    ClusterHealth = 300,
    /// `SpiderScheduler` queue state; telemetry (trace/profiler) is recorded
    /// while it is held.
    SchedulerState = 400,
    /// `PlanCache` map. Compiles run *outside* this lock — holding it
    /// across one is the bug class the lint's lock-discipline rule patrols.
    PlanCache = 500,
    /// `AutoTuner` memo table. Dry runs run *outside* this lock, as
    /// compiles run outside the plan cache's.
    TunerMemo = 520,
    /// A `SpiderPlan`'s memo of swept counters. Counters are charged
    /// *outside* this lock, as compiles run outside the plan cache's.
    PlanCharges = 600,
    /// `BufferPool` free list.
    BufferPool = 650,
    /// Telemetry trace ring buffer.
    TraceRing = 700,
    /// `SpiderRuntime`'s request meters (failure and volumetric counts,
    /// service and simulated-time histograms).
    RuntimeMeters = 740,
    /// Phase profiler table.
    Profiler = 760,
}

impl LockRank {
    /// The numeric rank (the enum discriminant).
    pub const fn value(self) -> u16 {
        self as u16
    }
}

/// Debug-only thread-local stack of held (rank, name) pairs.
#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        static STACK: RefCell<Vec<(u16, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Validate `rank` against every currently held lock, then push.
    /// Called *before* the underlying acquire so an ordering violation
    /// panics instead of deadlocking.
    pub(super) fn acquire(rank: u16, name: &'static str) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(&(held_rank, held_name)) = stack.iter().max_by_key(|&&(r, _)| r) {
                assert!(
                    rank > held_rank,
                    "lock rank inversion: acquiring `{name}` (rank {rank}) while holding \
                     `{held_name}` (rank {held_rank}); locks must be taken in strictly \
                     increasing rank order — see the global order in spider_core::sync"
                );
            }
            stack.push((rank, name));
        });
    }

    /// Pop the entry pushed by [`acquire`]. Guards can drop out of push
    /// order (e.g. an early `drop(outer)`), so this removes the *last*
    /// matching entry rather than asserting LIFO.
    pub(super) fn release(rank: u16, name: &'static str) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(i) = stack.iter().rposition(|&(r, n)| r == rank && n == name) {
                stack.remove(i);
            }
        });
    }
}

/// Rank + name metadata; present only in debug builds so the release
/// wrapper layout is exactly the raw lock.
#[cfg(debug_assertions)]
#[derive(Debug, Clone, Copy)]
struct LockMeta {
    rank: u16,
    name: &'static str,
}

macro_rules! meta_of {
    ($self:ident) => {{
        #[cfg(debug_assertions)]
        {
            ($self.meta.rank, $self.meta.name)
        }
        #[cfg(not(debug_assertions))]
        {
            (0u16, "ordered lock")
        }
    }};
}

/// A [`Mutex`] carrying a static [`LockRank`]. Debug builds detect rank
/// inversions at acquire time; release builds are layout- and
/// cost-transparent over `std::sync::Mutex`.
///
/// Deliberately no `Default`: every lock must state its rank and name at
/// the construction site.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    #[cfg(debug_assertions)]
    meta: LockMeta,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` under `rank`. `name` appears in inversion and poison
    /// panics; use the field path (e.g. `"scheduler.state"`).
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, name);
        }
        Self {
            #[cfg(debug_assertions)]
            meta: LockMeta {
                rank: rank.value(),
                name,
            },
            inner: Mutex::new(value),
        }
    }

    /// Acquire, panicking on rank inversion (debug) or poisoning. Poisoning
    /// means another thread panicked mid-update; every wrapped structure
    /// would be left inconsistent, so propagating the panic is the only
    /// sound option — which also means call sites no longer each carry
    /// their own `.expect("… poisoned")`.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let (rank, name) = meta_of!(self);
        #[cfg(debug_assertions)]
        held::acquire(rank, name);
        match self.inner.lock() {
            Ok(raw) => OrderedMutexGuard {
                raw: Some(raw),
                rank,
                name,
            },
            Err(_) => {
                #[cfg(debug_assertions)]
                held::release(rank, name);
                panic!("ordered lock `{name}` poisoned")
            }
        }
    }

    /// Consume the mutex, returning the inner value (no locking needed —
    /// `self` is owned, so no rank bookkeeping either).
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

/// Guard for [`OrderedMutex`]; pops its rank entry on drop. The `raw`
/// option is vacant only transiently inside [`Self::wait_on`], while the
/// underlying guard is inside `Condvar::wait`.
pub struct OrderedMutexGuard<'a, T> {
    raw: Option<MutexGuard<'a, T>>,
    rank: u16,
    name: &'static str,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Block on `cv`, releasing the mutex (and this guard's rank entry) for
    /// the duration, re-validating the rank on wake. The usual loop shape:
    ///
    /// ```text
    /// let mut st = shared.state.lock();
    /// while !ready(&st) {
    ///     st = st.wait_on(&shared.work);
    /// }
    /// ```
    pub fn wait_on(mut self, cv: &Condvar) -> Self {
        #[cfg(debug_assertions)]
        held::release(self.rank, self.name);
        let raw = match self.raw.take() {
            Some(g) => g,
            None => unreachable!("guard raw is only vacant inside wait_on"),
        };
        match cv.wait(raw) {
            Ok(raw) => {
                #[cfg(debug_assertions)]
                held::acquire(self.rank, self.name);
                self.raw = Some(raw);
                self
            }
            Err(_) => panic!("ordered lock `{}` poisoned during wait", self.name),
        }
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.raw {
            Some(g) => g,
            None => unreachable!("guard raw is only vacant inside wait_on"),
        }
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.raw {
            Some(g) => g,
            None => unreachable!("guard raw is only vacant inside wait_on"),
        }
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.raw.is_some() {
            held::release(self.rank, self.name);
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (self.rank, self.name);
        }
    }
}

/// An [`RwLock`] carrying a static [`LockRank`]. Read and write acquisitions
/// both occupy the rank — a same-thread read-while-reading of one lock is a
/// reported inversion, which is exactly the pattern that deadlocks against a
/// queued writer under `std`'s (allowed) writer-priority implementations.
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    #[cfg(debug_assertions)]
    meta: LockMeta,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` under `rank`; `name` as for [`OrderedMutex::new`].
    pub const fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        {
            let _ = (rank, name);
        }
        Self {
            #[cfg(debug_assertions)]
            meta: LockMeta {
                rank: rank.value(),
                name,
            },
            inner: RwLock::new(value),
        }
    }

    /// Shared acquire; panics on rank inversion (debug) or poisoning.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let (rank, name) = meta_of!(self);
        #[cfg(debug_assertions)]
        held::acquire(rank, name);
        match self.inner.read() {
            Ok(raw) => OrderedReadGuard { raw, rank, name },
            Err(_) => {
                #[cfg(debug_assertions)]
                held::release(rank, name);
                panic!("ordered lock `{name}` poisoned")
            }
        }
    }

    /// Exclusive acquire; panics on rank inversion (debug) or poisoning.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let (rank, name) = meta_of!(self);
        #[cfg(debug_assertions)]
        held::acquire(rank, name);
        match self.inner.write() {
            Ok(raw) => OrderedWriteGuard { raw, rank, name },
            Err(_) => {
                #[cfg(debug_assertions)]
                held::release(rank, name);
                panic!("ordered lock `{name}` poisoned")
            }
        }
    }
}

/// Shared guard for [`OrderedRwLock`].
pub struct OrderedReadGuard<'a, T> {
    raw: RwLockReadGuard<'a, T>,
    rank: u16,
    name: &'static str,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.raw
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release(self.rank, self.name);
        #[cfg(not(debug_assertions))]
        {
            let _ = (self.rank, self.name);
        }
    }
}

/// Exclusive guard for [`OrderedRwLock`].
pub struct OrderedWriteGuard<'a, T> {
    raw: RwLockWriteGuard<'a, T>,
    rank: u16,
    name: &'static str,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.raw
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.raw
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release(self.rank, self.name);
        #[cfg(not(debug_assertions))]
        {
            let _ = (self.rank, self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn in_order_nesting_is_fine() {
        let outer = OrderedMutex::new(LockRank::ClusterState, "test.outer", 1u32);
        let inner = OrderedMutex::new(LockRank::SchedulerState, "test.inner", 2u32);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    fn out_of_order_release_keeps_stack_consistent() {
        let low = OrderedMutex::new(LockRank::PlanCache, "test.low", ());
        let mid = OrderedMutex::new(LockRank::TunerMemo, "test.mid", ());
        let high = OrderedMutex::new(LockRank::BufferPool, "test.high", ());
        let a = low.lock();
        let b = mid.lock();
        drop(a); // release the *outer* guard first
        let c = high.lock(); // still legal: mid (520) < high (650)
        drop(b);
        drop(c);
        // And the stack is empty again: re-acquiring from the bottom works.
        let _a = low.lock();
    }

    #[test]
    fn wait_on_releases_rank_while_parked() {
        // A thread parked on a condvar holds no rank: another *lower*-rank
        // acquisition on the same thread after wake must still be judged
        // against the post-wait stack, and other threads are unaffected.
        let pair = Arc::new((
            OrderedMutex::new(LockRank::SchedulerState, "test.state", false),
            Condvar::new(),
        ));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut ready = m.lock();
                while !*ready {
                    ready = ready.wait_on(cv);
                }
                *ready
            })
        };
        {
            let (m, cv) = &*pair;
            let mut ready = m.lock();
            *ready = true;
            drop(ready);
            cv.notify_all();
        }
        assert!(waiter.join().expect("waiter completes"));
    }

    /// The satellite-mandated two-thread inversion test: one thread nests
    /// correctly, the other inverts and must panic with *both* lock names.
    #[test]
    #[cfg(debug_assertions)]
    fn rank_inversion_panics_with_both_lock_names() {
        let membership = Arc::new(OrderedRwLock::new(
            LockRank::ClusterMembership,
            "cluster.membership",
            (),
        ));
        let state = Arc::new(OrderedMutex::new(
            LockRank::ClusterState,
            "cluster.state",
            (),
        ));

        let ok = {
            let (membership, state) = (Arc::clone(&membership), Arc::clone(&state));
            std::thread::spawn(move || {
                let _m = membership.read();
                let _st = state.lock(); // 100 then 200: legal
            })
        };
        ok.join().expect("in-order thread must not panic");

        let bad = {
            let (membership, state) = (Arc::clone(&membership), Arc::clone(&state));
            std::thread::spawn(move || {
                let _st = state.lock();
                let _m = membership.read(); // 200 then 100: inversion
            })
        };
        let panic = bad.join().expect_err("inverted thread must panic");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(
            msg.contains("cluster.membership") && msg.contains("cluster.state"),
            "inversion panic must name both locks, got: {msg}"
        );
        assert!(msg.contains("rank inversion"), "got: {msg}");
    }

    /// Release-profile smoke test (ISSUE 10 satellite): with the debug
    /// bookkeeping compiled out, the wrappers are layout-identical to the
    /// raw `std::sync` locks.
    #[test]
    #[cfg(not(debug_assertions))]
    fn release_wrappers_are_size_identical_to_raw_locks() {
        use std::mem::size_of;
        assert_eq!(size_of::<OrderedMutex<u64>>(), size_of::<Mutex<u64>>());
        assert_eq!(
            size_of::<OrderedMutex<Vec<f32>>>(),
            size_of::<Mutex<Vec<f32>>>()
        );
        assert_eq!(size_of::<OrderedRwLock<u64>>(), size_of::<RwLock<u64>>());
        assert_eq!(
            size_of::<OrderedRwLock<Vec<u8>>>(),
            size_of::<RwLock<Vec<u8>>>()
        );
    }
}
