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
//! Unlike rayon proper there is no work stealing: items are split into one
//! contiguous chunk per available core. For the block-shaped workloads here
//! (simulated thread blocks, grid rows) that is within noise of rayon.

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

/// One contiguous chunk per core, executed under `std::thread::scope`.
fn parallel_map_vec<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    let workers = current_num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut parts: Vec<Vec<I>> = Vec::with_capacity(workers);
    let mut it = items.into_iter();
    loop {
        let part: Vec<I> = it.by_ref().take(chunk).collect();
        if part.is_empty() {
            break;
        }
        parts.push(part);
    }
    let f = &f;
    let mut out: Vec<R> = Vec::with_capacity(n);
    thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|p| s.spawn(move || p.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(v) => out.extend(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
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
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        (0usize..64).into_par_iter().for_each(|i| {
            if i == 13 {
                panic!("boom");
            }
        });
    }
}
