//! Prefix-sum (scan) primitives.
//!
//! The paper's two-pass counter scheme (§IV-G) hinges on an *exclusive
//! scan* over per-block bucket counts: the scanned values become the write
//! offsets each block uses in its second pass. These helpers provide the
//! sequential and parallel versions used throughout the workspace.

use crate::pool::SendPtr;
use crate::ThreadPool as Pool;

/// In-place exclusive prefix sum; returns the total.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and `8` is returned.
pub fn exclusive_scan(values: &mut [u64]) -> u64 {
    let mut running = 0u64;
    for v in values.iter_mut() {
        let cur = *v;
        *v = running;
        running += cur;
    }
    running
}

/// Parallel in-place exclusive prefix sum; returns the total.
///
/// Classic three-phase algorithm: per-chunk local sums, sequential scan of
/// the (short) chunk-sum array, then per-chunk local scan with the chunk
/// offset added. Falls back to the sequential scan for short inputs.
pub fn parallel_exclusive_scan(pool: &Pool, values: &mut [u64]) -> u64 {
    const MIN_PAR: usize = 1 << 15;
    let n = values.len();
    if n < MIN_PAR || pool.num_threads() == 1 {
        return exclusive_scan(values);
    }
    let chunk = n.div_ceil(pool.num_threads() * 4).max(1024);
    let num_chunks = n.div_ceil(chunk);

    // Phase 1: per-chunk sums.
    let mut chunk_sums = vec![0u64; num_chunks];
    {
        let ptr = SendPtr::new(chunk_sums.as_mut_ptr());
        let values_ref: &[u64] = values;
        crate::iter::parallel_for_chunks(pool, num_chunks, 1, |range| {
            for c in range {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                let sum: u64 = values_ref[start..end].iter().sum();
                // SAFETY: each chunk index written exactly once.
                unsafe { ptr.get().add(c).write(sum) };
            }
        });
    }

    // Phase 2: scan the chunk sums (short; sequential).
    let total = exclusive_scan(&mut chunk_sums);

    // Phase 3: local exclusive scan per chunk with chunk offset.
    {
        let ptr = SendPtr::new(values.as_mut_ptr());
        let chunk_sums_ref: &[u64] = &chunk_sums;
        crate::iter::parallel_for_chunks(pool, num_chunks, 1, |range| {
            for c in range {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                let mut running = chunk_sums_ref[c];
                // SAFETY: chunks are disjoint; only this task touches
                // indices [start, end).
                for i in start..end {
                    unsafe {
                        let slot = ptr.get().add(i);
                        let cur = *slot;
                        slot.write(running);
                        running += cur;
                    }
                }
            }
        });
    }
    total
}

/// Find the last index `i` such that `offsets[i] <= rank`, assuming
/// `offsets` is non-decreasing (the output of an exclusive scan).
///
/// This is the paper's `lower_bound(offsets, rank)` step that picks the
/// bucket containing the target rank (Fig. 1, line 13).
pub fn bucket_for_rank(offsets: &[u64], rank: u64) -> usize {
    debug_assert!(!offsets.is_empty());
    // partition_point returns the first index where the predicate fails;
    // subtracting one yields the last bucket whose start is <= rank.
    let idx = offsets.partition_point(|&o| o <= rank);
    idx.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn exclusive_scan_basic() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = exclusive_scan(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn exclusive_scan_empty() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(exclusive_scan(&mut v), 0);
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let pool = ThreadPool::new(4);
        let n = 200_000;
        let original: Vec<u64> = (0..n).map(|i| (i as u64 * 2654435761) % 100).collect();
        let mut seq = original.clone();
        let mut par = original.clone();
        let t_seq = exclusive_scan(&mut seq);
        let t_par = parallel_exclusive_scan(&pool, &mut par);
        assert_eq!(t_seq, t_par);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_scan_short_input() {
        let pool = ThreadPool::new(4);
        let mut v = vec![1, 2, 3];
        let total = parallel_exclusive_scan(&pool, &mut v);
        assert_eq!(v, vec![0, 1, 3]);
        assert_eq!(total, 6);
    }

    #[test]
    fn bucket_for_rank_selects_correct_bucket() {
        // counts [2, 3, 5] -> offsets [0, 2, 5]
        let offsets = vec![0u64, 2, 5];
        assert_eq!(bucket_for_rank(&offsets, 0), 0);
        assert_eq!(bucket_for_rank(&offsets, 1), 0);
        assert_eq!(bucket_for_rank(&offsets, 2), 1);
        assert_eq!(bucket_for_rank(&offsets, 4), 1);
        assert_eq!(bucket_for_rank(&offsets, 5), 2);
        assert_eq!(bucket_for_rank(&offsets, 9), 2);
    }

    #[test]
    fn bucket_for_rank_skips_empty_buckets() {
        // counts [0, 4, 0, 6] -> offsets [0, 0, 4, 4]
        let offsets = vec![0u64, 0, 4, 4];
        // rank 0 is in bucket 1 (bucket 0 is empty); ties resolve to the
        // last bucket with offset <= rank, which is the non-empty one.
        assert_eq!(bucket_for_rank(&offsets, 0), 1);
        assert_eq!(bucket_for_rank(&offsets, 3), 1);
        assert_eq!(bucket_for_rank(&offsets, 4), 3);
    }
}
