//! # rayon (workspace shim)
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the *subset* of rayon's API the workspace actually uses —
//! `into_par_iter` on integer ranges and `Vec`, `par_chunks_mut` on slices,
//! the `map`/`for_each`/`enumerate`/`skip`/`take`/`collect` adapters and
//! `current_num_threads` — implemented with real data parallelism over
//! `std::thread::scope`.
//!
//! Semantics match rayon where it matters for this workspace:
//!
//! * `map` preserves input order in the produced vector;
//! * closures run concurrently, so they must be `Sync` and items `Send`;
//! * a panic in any worker propagates to the caller (with its payload).
//!
//! Unlike rayon proper there is no pool and no work stealing: items are
//! split into one contiguous chunk per available core, the calling thread
//! runs the first chunk itself, and one scoped thread is spawned for each
//! of the others (so a call on `n` cores spawns at most `n − 1` threads,
//! and none on one core). Call sites that want fewer, larger jobs pass
//! fewer items — `par_chunks_mut` with a chunk sized by the work, as the
//! executor's sweeps do — which real rayon runs unchanged.

use std::sync::OnceLock;
use std::thread;

/// The number of threads parallel calls fan out across: the machine's
/// available parallelism, read once per process. (Rayon reports its global
/// pool's size, which defaults to the same number.) Reading it on every
/// call is not free: on Linux `available_parallelism` re-reads the cgroup
/// CPU quota each time.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One contiguous chunk per core (see [`map_chunks`]).
fn parallel_map_vec<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    map_chunks(items, current_num_threads(), f)
}

/// Map `items` in order over at most `workers` contiguous chunks: the
/// calling thread maps the first chunk while one scoped thread per other
/// chunk maps the rest. A panic in any chunk propagates with its payload,
/// after every spawned chunk has finished.
fn map_chunks<I, R, F>(items: Vec<I>, workers: usize, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    if workers.min(n) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut it = items.into_iter();
    let first: Vec<I> = it.by_ref().take(chunk).collect();
    let mut rest: Vec<Vec<I>> = Vec::with_capacity(workers - 1);
    loop {
        let part: Vec<I> = it.by_ref().take(chunk).collect();
        if part.is_empty() {
            break;
        }
        rest.push(part);
    }
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = rest
            .into_iter()
            .map(|p| s.spawn(move || p.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = Vec::with_capacity(n);
        out.extend(first.into_iter().map(f));
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// An eagerly materialized "parallel iterator": adapters that can defer
/// cheaply (`enumerate`, `skip`, `take`) do so on the buffered items, while
/// `map` and `for_each` execute across threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: parallel_map_vec(self.items, f),
        }
    }

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        parallel_map_vec(self.items, f);
    }

    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    pub fn skip(self, n: usize) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().skip(n).collect(),
        }
    }

    pub fn take(self, n: usize) -> ParIter<T> {
        ParIter {
            items: self.items.into_iter().take(n).collect(),
        }
    }

    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// `into_par_iter()` — the entry point rayon puts on ranges and collections.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_range_par_iter!(usize, u64, u32, i64, i32);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0u64..10_000).into_par_iter().map(|x| x * 2).collect();
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, 2 * i as u64);
        }
    }

    #[test]
    fn chunks_mut_writes_all() {
        let mut v = vec![0u32; 1000];
        v.par_chunks_mut(7).enumerate().for_each(|(ci, chunk)| {
            for (o, slot) in chunk.iter_mut().enumerate() {
                *slot = (ci * 7 + o) as u32;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }

    #[test]
    fn skip_take_window() {
        let v: Vec<usize> = (0usize..100)
            .into_par_iter()
            .skip(10)
            .take(5)
            .map(|x| x + 1)
            .collect();
        assert_eq!(v, vec![11, 12, 13, 14, 15]);
    }

    #[test]
    fn first_chunk_runs_on_the_caller_and_the_rest_on_spawned_threads() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        let caller = thread::current().id();
        let check = |tagged: Vec<(usize, ThreadId)>, workers: usize| {
            let n = tagged.len();
            let chunk = n.div_ceil(workers.min(n));
            let order: Vec<usize> = tagged.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..n).collect::<Vec<_>>(), "order kept");
            assert!(tagged[..chunk].iter().all(|&(_, id)| id == caller));
            let spawned: HashSet<ThreadId> = tagged[chunk..].iter().map(|&(_, id)| id).collect();
            assert!(!spawned.contains(&caller));
            assert!(
                spawned.len() < workers.max(1),
                "{} threads spawned",
                spawned.len()
            );
        };
        let tag = |i: usize| (i, thread::current().id());
        for workers in [1, 2, 4] {
            check(super::map_chunks((0..37).collect(), workers, tag), workers);
        }
        let public: Vec<(usize, ThreadId)> = (0usize..64).into_par_iter().map(tag).collect();
        check(public, super::current_num_threads());
    }

    #[test]
    fn panics_in_caller_and_spawned_chunks_both_propagate() {
        for (at, whose) in [(0usize, "caller"), (63, "spawned")] {
            let payload = std::panic::catch_unwind(|| {
                super::map_chunks((0usize..64).collect(), 4, |i| {
                    if i == at {
                        panic!("boom in the {whose} chunk");
                    }
                    i
                })
            })
            .expect_err("the panic propagates");
            let msg = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(msg, &format!("boom in the {whose} chunk"));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        (0usize..64).into_par_iter().for_each(|i| {
            if i == 13 {
                panic!("boom");
            }
        });
    }
}
