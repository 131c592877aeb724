//! Bulk index-space primitives: parallel for, map-reduce, mutable
//! chunks.
//!
//! All primitives use *dynamic chunk scheduling*: tasks pull chunk indexes
//! from a shared atomic counter, so uneven per-chunk cost (e.g. the filter
//! kernel touching only some buckets) still balances well.

use crate::min_chunk;
use crate::pool::{SendPtr, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Compute how many parallel tasks to use for `n` items with a given
/// minimum chunk size, capped by the pool width.
fn task_count(pool: &ThreadPool, n: usize, min_chunk: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let max_useful = n.div_ceil(min_chunk.max(1));
    max_useful.min(pool.num_threads()).max(1)
}

/// Round `chunk` up to the next multiple of `align` (`align >= 1`).
///
/// Parallel chunk boundaries placed on SIMD-width multiples keep every
/// chunk's vector main loop identical regardless of how many threads
/// split the work, so lane-batched kernels produce thread-count- and
/// lane-width-independent results without per-chunk epilogue drift.
fn align_chunk(chunk: usize, align: usize) -> usize {
    let align = align.max(1);
    chunk.div_ceil(align) * align
}

/// Run `body` over `0..n` in parallel, invoking it once per chunk range.
///
/// `body` receives half-open index ranges that exactly tile `0..n`.
/// Chunks are distributed dynamically. Runs inline on the caller when a
/// single task suffices.
pub fn parallel_for_chunks<F>(pool: &ThreadPool, n: usize, min_chunk: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    parallel_for_chunks_aligned(pool, n, min_chunk, 1, body)
}

/// [`parallel_for_chunks`] with caller-supplied chunk alignment: every
/// chunk boundary except the final `n` lands on a multiple of `align`.
pub fn parallel_for_chunks_aligned<F>(
    pool: &ThreadPool,
    n: usize,
    min_chunk: usize,
    align: usize,
    body: F,
) where
    F: Fn(Range<usize>) + Sync,
{
    let tasks = task_count(pool, n, min_chunk);
    if tasks <= 1 {
        if n > 0 {
            body(0..n);
        }
        return;
    }
    // Aim for a few chunks per task so dynamic scheduling can balance.
    let target_chunks = tasks * 4;
    let chunk = align_chunk((n.div_ceil(target_chunks)).max(min_chunk.max(1)), align);
    let num_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let body = &body;
    let next = &next;
    pool.scope(|s| {
        for _ in 0..tasks {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_chunks {
                    break;
                }
                let start = i * chunk;
                let end = (start + chunk).min(n);
                body(start..end);
            });
        }
    });
}

/// Run `body(i)` for every `i in 0..n` in parallel.
pub fn parallel_for<F>(pool: &ThreadPool, n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_chunks(pool, n, min_chunk(), |range| {
        for i in range {
            body(i);
        }
    });
}

/// Chunked parallel map-reduce over `0..n`.
///
/// Each task folds the chunks it grabs with `map`, starting from
/// `identity`, and the per-task partials are combined with `combine` on
/// the caller. `combine` must be associative; `identity` must be its
/// neutral element.
pub fn parallel_map_reduce<T, M, C>(
    pool: &ThreadPool,
    n: usize,
    min_chunk: usize,
    identity: T,
    map: M,
    combine: C,
) -> T
where
    T: Send + Sync + Clone,
    M: Fn(Range<usize>, T) -> T + Sync,
    C: Fn(T, T) -> T,
{
    parallel_map_reduce_aligned(pool, n, min_chunk, 1, identity, map, combine)
}

/// [`parallel_map_reduce`] with caller-supplied chunk alignment (see
/// [`parallel_for_chunks_aligned`]).
pub fn parallel_map_reduce_aligned<T, M, C>(
    pool: &ThreadPool,
    n: usize,
    min_chunk: usize,
    align: usize,
    identity: T,
    map: M,
    combine: C,
) -> T
where
    T: Send + Sync + Clone,
    M: Fn(Range<usize>, T) -> T + Sync,
    C: Fn(T, T) -> T,
{
    let tasks = task_count(pool, n, min_chunk);
    if tasks <= 1 {
        if n == 0 {
            return identity;
        }
        return map(0..n, identity);
    }
    let target_chunks = tasks * 4;
    let chunk = align_chunk((n.div_ceil(target_chunks)).max(min_chunk.max(1)), align);
    let num_chunks = n.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let partials: Vec<parking_lot::Mutex<Option<T>>> =
        (0..tasks).map(|_| parking_lot::Mutex::new(None)).collect();
    {
        let next = &next;
        let map = &map;
        let identity_ref = &identity;
        let partials = &partials;
        pool.scope(|s| {
            for slot in partials.iter() {
                s.spawn(move || {
                    let mut acc = identity_ref.clone();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_chunks {
                            break;
                        }
                        let start = i * chunk;
                        let end = (start + chunk).min(n);
                        acc = map(start..end, acc);
                    }
                    *slot.lock() = Some(acc);
                });
            }
        });
    }
    partials
        .into_iter()
        .filter_map(|m| m.into_inner())
        .fold(identity, &combine)
}

/// Apply `body` to disjoint mutable chunks of `data` in parallel.
///
/// `body(chunk_index, chunk)` is invoked once per `chunk_size`-sized piece
/// (the last piece may be shorter).
pub fn parallel_chunks_mut<T, F>(pool: &ThreadPool, data: &mut [T], chunk_size: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let chunk_size = chunk_size.max(1);
    let num_chunks = n.div_ceil(chunk_size);
    let ptr = SendPtr::new(data.as_mut_ptr());
    parallel_for_chunks(pool, num_chunks, 1, |chunk_range| {
        for c in chunk_range {
            let start = c * chunk_size;
            let end = (start + chunk_size).min(n);
            // SAFETY: chunks [start, end) are pairwise disjoint and within
            // bounds; each is handed to exactly one invocation.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
            body(c, slice);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn parallel_for_chunks_tiles_range_exactly() {
        let p = pool();
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunks(&p, n, 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_chunks_empty_range() {
        let p = pool();
        parallel_for_chunks(&p, 0, 64, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let p = pool();
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(&p, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_reduce_sums_correctly() {
        let p = pool();
        let n = 1_000_000u64;
        let sum = parallel_map_reduce(
            &p,
            n as usize,
            1024,
            0u64,
            |range, acc| acc + range.map(|i| i as u64).sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(sum, n * (n - 1) / 2);
    }

    #[test]
    fn map_reduce_empty_returns_identity() {
        let p = pool();
        let v = parallel_map_reduce(&p, 0, 64, 7u32, |_, acc| acc, |a, _| a);
        assert_eq!(v, 7);
    }

    #[test]
    fn map_reduce_small_runs_inline() {
        let p = pool();
        let v = parallel_map_reduce(
            &p,
            10,
            1024,
            0usize,
            |range, acc| acc + range.len(),
            |a, b| a + b,
        );
        assert_eq!(v, 10);
    }

    #[test]
    fn aligned_chunks_start_on_multiples() {
        let p = pool();
        let n = 100_003;
        let align = 8;
        let starts = parking_lot::Mutex::new(Vec::new());
        parallel_for_chunks_aligned(&p, n, 64, align, |range| {
            starts.lock().push((range.start, range.end));
        });
        let mut ranges = starts.into_inner();
        ranges.sort_unstable();
        // exact tiling
        let mut expect_start = 0;
        for &(s, e) in &ranges {
            assert_eq!(s, expect_start);
            assert!(e > s);
            expect_start = e;
        }
        assert_eq!(expect_start, n);
        // every boundary except the final n is a multiple of align
        for &(s, e) in &ranges {
            assert_eq!(s % align, 0);
            assert!(e % align == 0 || e == n);
        }
    }

    #[test]
    fn aligned_map_reduce_matches_unaligned() {
        let p = pool();
        let n = 999_983usize; // prime, so boundaries would fall anywhere
        let sum_ref: u64 = (0..n as u64).sum();
        for align in [1usize, 8, 32] {
            let sum = parallel_map_reduce_aligned(
                &p,
                n,
                1024,
                align,
                0u64,
                |range, acc| acc + range.map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(sum, sum_ref, "align={align}");
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Lane-batched chunk processing must give bit-identical results
        // no matter how many threads split the range. Emulate a batched
        // kernel whose per-chunk result depends on where SIMD groups
        // start: with aligned chunking, group boundaries are global.
        let n = 65_537usize;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        let batched_sum = |range: Range<usize>, acc: u64| {
            let mut acc = acc;
            let mut i = range.start;
            // SIMD-ish main loop over aligned groups of 8
            while i + 8 <= range.end {
                let mut g = 0u64;
                for j in 0..8 {
                    g = g.rotate_left(3) ^ data[i + j];
                }
                acc = acc.wrapping_add(g);
                i += 8;
            }
            // scalar epilogue
            for &v in &data[i..range.end] {
                acc = acc.wrapping_add(v.rotate_left(1));
            }
            acc
        };
        let mut results = Vec::new();
        for threads in [1usize, 4, 16] {
            let p = ThreadPool::new(threads);
            let v = parallel_map_reduce_aligned(&p, n, 64, 8, 0u64, batched_sum, |a, b| {
                a.wrapping_add(b)
            });
            results.push((threads, v));
        }
        let first = results[0].1;
        for (threads, v) in results {
            assert_eq!(v, first, "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_writes_disjointly() {
        let p = pool();
        let mut data = vec![0usize; 100_000];
        parallel_chunks_mut(&p, &mut data, 777, |c, chunk| {
            for v in chunk.iter_mut() {
                *v = c + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 777 + 1);
        }
    }

    #[test]
    fn chunks_mut_chunk_larger_than_data() {
        let p = pool();
        let mut data = vec![1u8; 10];
        parallel_chunks_mut(&p, &mut data, 100, |c, chunk| {
            assert_eq!(c, 0);
            assert_eq!(chunk.len(), 10);
            chunk.fill(9);
        });
        assert!(data.iter().all(|&b| b == 9));
    }
}
