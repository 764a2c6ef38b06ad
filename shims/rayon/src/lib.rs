//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate implements the subset of the rayon API the `mgk` workspace uses:
//!
//! * `slice.par_iter().map(f).collect::<Vec<_>>()`
//! * `vec.into_par_iter().map(f).collect::<Vec<_>>()`
//! * `slice.par_chunks(n).flat_map_iter(f).collect::<Vec<_>>()`
//! * [`current_num_threads`]
//!
//! Every parallel call executes on the persistent worker pool of
//! [`pool::Pool::global`] — workers are spawned once and parked between
//! calls, so a parallel region costs an enqueue + wake rather than a round
//! of thread spawns. Work is distributed dynamically: participating threads
//! pull item indices from a shared atomic cursor (the CPU analogue of
//! rayon's work stealing), so a skewed workload does not straggle on one
//! thread. Results are returned in input order regardless of completion
//! order.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::UnsafeCell;
use std::sync::Mutex;

pub mod pool;

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelSlice};
}

/// Number of threads parallel calls will use: the global pool's workers plus
/// the submitting thread.
pub fn current_num_threads() -> usize {
    pool::Pool::global().max_parallelism()
}

/// One output slot of a parallel map, written by exactly one index of the
/// region and read only after the region completes.
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: distinct indices write distinct slots, and the submitting thread
// only reads them after `run_indexed` returns (a happens-before edge through
// the job's completion latch).
unsafe impl<R: Send> Sync for Slot<R> {}

/// Run `f(item)` for every item of `items` on the global persistent pool,
/// handing out items dynamically, and return the results in input order.
fn dynamic_map<'a, T: Sync, R: Send>(items: &'a [T], f: impl Fn(&'a T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n <= 1 || current_num_threads() <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    pool::Pool::global().run_indexed(n, &|i| {
        let value = f(&items[i]);
        // SAFETY: index i is claimed exactly once, so this is the only
        // writer of slots[i], and no reader exists until the region ends.
        unsafe { *slots[i].0.get() = Some(value) };
    });
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every index produced exactly once"))
        .collect()
}

/// `.par_iter()` on slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    /// Item yielded by the parallel iterator.
    type Item: Sync + 'a;

    /// A parallel iterator over `&Self::Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowing parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every element through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap { items: self.items, f }
    }
}

/// Result of [`ParIter::map`]; evaluated by [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Execute the parallel map and collect the results in input order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        C::from(dynamic_map(self.items, &self.f))
    }
}

/// `.into_par_iter()` on `Vec`s: the items move into the parallel region.
pub trait IntoParallelIterator {
    /// Item yielded by the parallel iterator.
    type Item: Send;

    /// A parallel iterator over the owned items.
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

/// Owning parallel iterator over a `Vec`.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    /// Map every element through `f` in parallel; `f` receives it by value.
    pub fn map<R, F>(self, f: F) -> IntoParMap<T, F>
    where
        F: Fn(T) -> R + Sync,
        R: Send,
    {
        IntoParMap { items: self.items, f }
    }
}

/// Result of [`IntoParIter::map`]; evaluated by [`IntoParMap::collect`].
pub struct IntoParMap<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> IntoParMap<T, F> {
    /// Execute the parallel map and collect the results in input order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(T) -> R + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        if self.items.len() <= 1 || current_num_threads() <= 1 {
            return C::from(self.items.into_iter().map(self.f).collect());
        }
        // each item waits in its own cell for whichever thread claims its
        // index; the locks are never contended
        let cells: Vec<Mutex<Option<T>>> =
            self.items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        C::from(dynamic_map(&cells, |cell| {
            let item = cell.lock().ok().and_then(|mut held| held.take());
            (self.f)(item.expect("every index is claimed exactly once"))
        }))
    }
}

/// `.par_chunks(n)` on slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over contiguous chunks of `chunk_size` elements.
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunks { chunks: self.chunks(chunk_size).collect() }
    }
}

/// Borrowing parallel iterator over slice chunks.
pub struct ParChunks<'a, T> {
    chunks: Vec<&'a [T]>,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    /// Map every chunk to a serial iterator and flatten, in parallel over
    /// chunks.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParFlatMapIter<'a, T, F>
    where
        F: Fn(&'a [T]) -> I + Sync,
        I: IntoIterator,
        I::Item: Send,
    {
        ParFlatMapIter { chunks: self.chunks, f }
    }
}

/// Result of [`ParChunks::flat_map_iter`].
pub struct ParFlatMapIter<'a, T, F> {
    chunks: Vec<&'a [T]>,
    f: F,
}

impl<'a, T: Sync, F> ParFlatMapIter<'a, T, F> {
    /// Execute and collect the flattened results in input order.
    pub fn collect<C, I>(self) -> C
    where
        F: Fn(&'a [T]) -> I + Sync,
        I: IntoIterator,
        I::Item: Send,
        C: From<Vec<I::Item>>,
    {
        let per_chunk: Vec<Vec<I::Item>> =
            dynamic_map(&self.chunks, |chunk| (self.f)(chunk).into_iter().collect());
        C::from(per_chunk.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let v: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_moves_every_item_through_in_order() {
        // not `Clone`, not `Sync`-shared: each item is handed over by value
        let v: Vec<Box<u64>> = (0..257).map(Box::new).collect();
        let out: Vec<Box<u64>> = v
            .into_par_iter()
            .map(|mut x| {
                *x += 1;
                x
            })
            .collect();
        assert_eq!(out, (1..258).map(Box::new).collect::<Vec<_>>());
        // the degenerate sizes take the serial path; same contract
        let one: Vec<String> = vec!["a".to_string()].into_par_iter().map(|s| s + "b").collect();
        assert_eq!(one, vec!["ab".to_string()]);
        let none: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn par_chunks_flat_map_matches_serial() {
        let v: Vec<u32> = (0..257).collect();
        let out: Vec<u32> = v
            .par_chunks(16)
            .flat_map_iter(|c| c.iter().map(|&x| x + 1).collect::<Vec<_>>())
            .collect();
        assert_eq!(out, (1..258).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_actually_uses_multiple_threads() {
        if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) < 2 {
            return; // single-core runner: nothing to assert
        }
        let v: Vec<u32> = (0..64).collect();
        let ids: Vec<std::thread::ThreadId> = v
            .par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }

    #[test]
    fn par_iter_reuses_the_same_pool_threads_across_calls() {
        // the acceptance criterion of the persistent-pool rewiring: repeated
        // parallel regions execute on a stable set of worker threads instead
        // of spawning fresh ones per call
        let v: Vec<u32> = (0..128).collect();
        let ids_of_run = || -> std::collections::HashSet<std::thread::ThreadId> {
            let ids: Vec<std::thread::ThreadId> = v
                .par_iter()
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_micros(300));
                    std::thread::current().id()
                })
                .collect();
            ids.into_iter().collect()
        };
        let mut union = std::collections::HashSet::new();
        for _ in 0..5 {
            union.extend(ids_of_run());
        }
        // `ThreadId`s are never reused, so per-call spawning would grow the
        // union with every region; the persistent pool keeps it bounded by
        // workers + the submitting thread
        assert!(
            union.len() <= pool::Pool::global().max_parallelism(),
            "{} distinct thread ids across 5 regions exceeds the pool's {}",
            union.len(),
            pool::Pool::global().max_parallelism()
        );
    }
}
