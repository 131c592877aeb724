//! The `filter` kernel (§IV-B.c): extract the elements of the target
//! bucket (or, fused top-k, of a whole bucket range; multi-rank, of a
//! set of buckets) into contiguous storage, using the oracles and the
//! reduce kernel's prefix sums.
//!
//! Following §IV-G, this is the *second pass* of the two-pass counter
//! scheme: each block already knows (from the scanned partials) the
//! exact output range it owns per bucket, so a block-local counter
//! suffices to hand out unique output indexes — no global collisions.
//! The implementation follows \[13\] (Bakunas-Milanowski et al.) "but
//! differs in the sense that instead of storing predicate bits as an
//! intermediate step, it stores the bucket indexes in the oracles".

use crate::count::CountResult;
use crate::element::{as_bits32, as_bits64, elems_from_bits32, elems_from_bits64, SelectElement};
use crate::params::{AtomicScope, SampleSelectConfig};
use crate::reduce::ReduceResult;
use crate::workspace::KernelScratch;
use gpu_sim::warp::WARP_SIZE;
use gpu_sim::{Device, KernelCost, LaunchOrigin};
use hpc_par::simd;
use std::ops::Range;

/// Every bucket index a level can have (validation caps the bucket count
/// at 1024), so that a range of buckets is a bucket set without an
/// allocation.
static BUCKETS: [u32; 1024] = {
    let mut all = [0; 1024];
    let mut i = 0;
    while i < all.len() {
        all[i] = i as u32;
        i += 1;
    }
    all
};

/// The buckets of `range` as a bucket set.
pub fn bucket_set(range: Range<u32>) -> &'static [u32] {
    &BUCKETS[range.start as usize..range.end as usize]
}

/// Extract all elements whose bucket lies in `bucket_range` into a
/// contiguous `Vec`, ordered by (bucket, block, within-block position).
///
/// For exact selection the range is a single bucket; for the fused
/// top-k of §IV-I it is the suffix `target..b` ("it copies not only
/// elements from the target bucket, but also from all buckets containing
/// larger elements").
///
/// Where corrupted oracles disagree with the counts, a single bucket is
/// gathered in input order and a wider range comes back empty, so the
/// output no longer has the length the counts promise.
pub fn filter_kernel<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    count: &CountResult,
    reduce: &ReduceResult,
    bucket_range: Range<u32>,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> Vec<T> {
    filter_kernel_scoped(
        device,
        data,
        count,
        reduce,
        bucket_range,
        cfg,
        origin,
        &KernelScratch::new(),
    )
}

/// [`filter_kernel`] with caller-provided closure scratch: per-worker
/// output cursors come from `scratch` and the output buffer from the
/// device [`gpu_sim::BufferPool`] when armed, making a warm launch
/// allocation-free (the returned `Vec` reuses a pooled allocation that
/// the driver recycles after consuming it).
#[allow(clippy::too_many_arguments)]
pub fn filter_kernel_scoped<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    count: &CountResult,
    reduce: &ReduceResult,
    bucket_range: Range<u32>,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
    scratch: &KernelScratch,
) -> Vec<T> {
    let buckets = bucket_set(bucket_range);
    filter_buckets(device, data, count, reduce, buckets, cfg, origin, scratch)
}

/// The filter over a set of buckets: `buckets` is ascending and not
/// empty, and the output holds each bucket's elements in that order, so
/// a target slices it at the bucket sizes. A range of buckets is
/// charged as [`filter_kernel`] charges it; a set with gaps also reads
/// its bucket indexes, one per selected bucket and block.
#[allow(clippy::too_many_arguments)]
pub fn filter_buckets<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    count: &CountResult,
    reduce: &ReduceResult,
    buckets: &[u32],
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
    scratch: &KernelScratch,
) -> Vec<T> {
    let n = data.len();
    let oracles = count
        .oracles
        .as_ref()
        .expect("filter kernel requires oracles from the count kernel");
    assert_eq!(oracles.len(), n, "oracle buffer must cover the input");
    let blocks = count.blocks;
    let launch = cfg.launch_config(n, T::BYTES);
    debug_assert_eq!(
        launch.blocks as usize, blocks,
        "filter reuses the count grid"
    );
    let chunk = launch.block_chunk(n);

    // `back[bucket - lo]` moves a scanned (bucket, block) offset back to
    // the bucket's place in the output (the selected buckets before it
    // are no larger than all buckets before it); buckets between `lo`
    // and `hi` that the set skips keep `SKIPPED`, which no offset is.
    const SKIPPED: u64 = u64::MAX;
    let (lo, hi) = (buckets[0], buckets[buckets.len() - 1] + 1);
    let mut back = scratch.lease_u64((hi - lo) as usize);
    back.fill(SKIPPED);
    let mut out_len = 0u64;
    for &bucket in buckets {
        let start = reduce.bucket_offsets[bucket as usize];
        back[(bucket - lo) as usize] = start - out_len;
        out_len += reduce.bucket_offsets[bucket as usize + 1] - start;
    }
    let (back_ref, out_len) = (&back, out_len as usize);
    let out = device.pooled_scatter::<T>(out_len, "filter-out");
    let out_ref = &out;

    // Single-bucket ranges with one-byte oracles (every exact-selection
    // level) take a lane-parallel fast path: one vector compare over 32
    // oracle bytes, then a stable left-pack of the matching elements
    // through a per-warp staging buffer, flushed to the scatter buffer
    // at its exact size. The staging hop is what keeps the write-once
    // contract: the AVX2 compress scribbles a full vector past the
    // packed prefix, and the block's output range may end mid-warp with
    // the next block's range being written concurrently.
    let simd_level = simd::simd_level();
    let simd_single = buckets.len() == 1 && oracles.as_u8_slice().is_some() && lo <= u8::MAX as u32;

    let (mut cost, oracle_mismatches) = hpc_par::parallel_map_reduce(
        device.pool(),
        blocks,
        1,
        (KernelCost::new(), 0u64),
        |range, acc| {
            let (mut cost, mut mismatches) = acc;
            let mut cursors = scratch.lease_u64((hi - lo) as usize);
            let oracle_bytes = oracles.as_u8_slice();
            let mut staging32 = [0u32; WARP_SIZE];
            let mut staging64 = [0u64; WARP_SIZE];
            for block in range {
                let start = block * chunk;
                let end = ((block + 1) * chunk).min(n);
                if start >= end {
                    continue;
                }
                cursors.iter_mut().for_each(|c| *c = 0);
                let mut matched_in_block = 0u64;
                let mut idx = start;
                while idx < end {
                    let wlen = WARP_SIZE.min(end - idx);
                    let mut matched_in_warp = 0u64;
                    let mut handled = false;
                    if simd_single && wlen == WARP_SIZE {
                        let bytes = &oracle_bytes.unwrap()[idx..idx + WARP_SIZE];
                        let mask = simd::eq_mask_u8(bytes, lo as u8, simd_level);
                        let matched = mask.count_ones() as u64;
                        if matched == 0 {
                            handled = true;
                        } else if cursors[0] + matched
                            <= count.partials[lo as usize * blocks + block]
                        {
                            // Healthy warp: compress the matches in
                            // element order and flush them contiguously
                            // after the block's previous matches.
                            let pos = (reduce.offsets[lo as usize * blocks + block] - back_ref[0]
                                + cursors[0]) as usize;
                            if T::BYTES == 4 {
                                let cnt = simd::compress_u32(
                                    as_bits32(&data[idx..idx + WARP_SIZE]),
                                    mask,
                                    &mut staging32,
                                    simd_level,
                                );
                                // SAFETY: the run [pos, pos+cnt) lies in
                                // this (bucket, block) output range (the
                                // cursor bound above), owned by this
                                // thread alone.
                                unsafe {
                                    out_ref
                                        .write_slice(pos, elems_from_bits32::<T>(&staging32[..cnt]))
                                };
                            } else {
                                let cnt = simd::compress_u64(
                                    as_bits64(&data[idx..idx + WARP_SIZE]),
                                    mask,
                                    &mut staging64,
                                    simd_level,
                                );
                                // SAFETY: as above.
                                unsafe {
                                    out_ref
                                        .write_slice(pos, elems_from_bits64::<T>(&staging64[..cnt]))
                                };
                            }
                            cursors[0] += matched;
                            matched_in_warp = matched;
                            handled = true;
                        }
                        // else: the cursor bound says a corrupted oracle
                        // routed extra elements into this block's range;
                        // fall through to the scalar loop, which drops
                        // and flags overflowing matches lane by lane.
                    }
                    if !handled {
                        for lane in 0..wlen {
                            let bucket = oracles.get(idx + lane);
                            let rel = bucket.wrapping_sub(lo) as usize;
                            if rel < back_ref.len() && back_ref[rel] != SKIPPED {
                                // A corrupted oracle can route extra elements
                                // into this (bucket, block) range; writing past
                                // the range allotted by the prefix sums would
                                // violate the scatter buffer's write-once
                                // contract, so overflowing matches are dropped
                                // and flagged instead.
                                if cursors[rel] >= count.partials[bucket as usize * blocks + block]
                                {
                                    mismatches += 1;
                                    matched_in_warp += 1;
                                    continue;
                                }
                                let pos = reduce.offsets[bucket as usize * blocks + block]
                                    - back_ref[rel]
                                    + cursors[rel];
                                cursors[rel] += 1;
                                // SAFETY: the two-pass scheme assigns each
                                // output slot to exactly one (block, bucket,
                                // local-rank) triple; the bound check above
                                // keeps that true even under corrupted
                                // oracles.
                                unsafe { out_ref.write(pos as usize, data[idx + lane]) };
                                matched_in_warp += 1;
                            }
                        }
                    }
                    // Index handout: one counter bump per matching lane;
                    // all matching lanes of a warp share the counter, so
                    // unaggregated replays equal the match count.
                    if matched_in_warp > 0 {
                        match cfg.atomic_scope {
                            AtomicScope::Shared => {
                                cost.shared_atomic_warp_ops += 1;
                                if !cfg.warp_aggregation {
                                    // all matching lanes bump one counter
                                    cost.shared_atomic_replays += matched_in_warp - 1;
                                }
                            }
                            AtomicScope::Global => {
                                let units = if cfg.warp_aggregation {
                                    1
                                } else {
                                    matched_in_warp
                                };
                                cost.global_atomic_ops += units;
                                cost.global_atomic_hot_ops += units;
                            }
                        }
                        if cfg.warp_aggregation {
                            cost.warp_intrinsics += 1; // one ballot to rank lanes
                        }
                    }
                    matched_in_block += matched_in_warp;
                    idx += wlen;
                }
                // A corrupted oracle can also *remove* elements from a
                // (bucket, block) range, leaving output slots unwritten;
                // detect the shortfall so the scatter buffer is never
                // finalized with uninitialized slots.
                for &bucket in buckets {
                    let cursor = cursors[(bucket - lo) as usize];
                    if cursor != count.partials[bucket as usize * blocks + block] {
                        mismatches += 1;
                    }
                }
                let len = (end - start) as u64;
                // Oracles are streamed coalesced; the matching elements
                // are gathered sparsely (uncoalesced) and written
                // contiguously (coalesced).
                cost.global_read_bytes += len * oracles.entry_bytes() as u64;
                cost.uncoalesced_bytes += matched_in_block * T::BYTES as u64;
                cost.global_write_bytes += matched_in_block * T::BYTES as u64;
                cost.int_ops += len;
                cost.blocks += 1;
            }
            scratch.give_u64(cursors);
            (cost, mismatches)
        },
        |mut a, b| {
            a.0.merge(&b.0);
            a.1 += b.1;
            a
        },
    );
    // Each block also reads its offset of every selected bucket, and of
    // a set with gaps the bucket indexes too.
    let per_bucket = if buckets.len() as u32 == hi - lo {
        4
    } else {
        8
    };
    cost.global_read_bytes += (blocks * buckets.len()) as u64 * per_bucket;
    scratch.give_u64(back);

    device.commit("filter", launch, origin, cost);

    if oracle_mismatches > 0 {
        // The scatter buffer may hold unwritten slots, so finalizing it
        // would be undefined behaviour. Rebuild one bucket with a safe
        // sequential gather over the (corrupted) oracles; its length
        // discrepancy is then caught by the drivers' size checks. An
        // input-order gather cannot group several buckets, so that
        // output stays empty, which fails the same checks.
        if buckets.len() > 1 {
            return Vec::new();
        }
        return data
            .iter()
            .enumerate()
            .filter(|&(i, _)| oracles.get(i) == lo)
            .map(|(_, &x)| x)
            .collect();
    }

    // SAFETY: cursor arithmetic wrote each of the out_len slots exactly
    // once (verified by the partition tests below), and
    // `oracle_mismatches == 0` certifies every (block, bucket) range was
    // filled to exactly its expected count.
    unsafe { out.into_vec(out_len) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::count_kernel;
    use crate::rng::SplitMix64;
    use crate::searchtree::SearchTree;
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;

    fn pipeline(
        data: &[f32],
        cfg: &SampleSelectConfig,
        bucket_range: Range<u32>,
    ) -> (Vec<f32>, CountResult, ReduceResult) {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let tree = SearchTree::build(&[10.0f32, 20.0, 30.0]);
        let count = count_kernel(&mut device, data, &tree, cfg, true, LaunchOrigin::Host);
        let red = crate::reduce::reduce_kernel(&mut device, &count, LaunchOrigin::Device);
        let out = filter_kernel(
            &mut device,
            data,
            &count,
            &red,
            bucket_range,
            cfg,
            LaunchOrigin::Device,
        );
        (out, count, red)
    }

    fn cfg4() -> SampleSelectConfig {
        SampleSelectConfig::default().with_buckets(4)
    }

    #[test]
    fn extracts_exactly_the_target_bucket() {
        let data = vec![5.0f32, 15.0, 25.0, 35.0, 12.0, 22.0, 19.0];
        let (out, count, _) = pipeline(&data, &cfg4(), 1..2);
        assert_eq!(out.len() as u64, count.counts[1]);
        let mut expected: Vec<f32> = data
            .iter()
            .copied()
            .filter(|&x| (10.0..20.0).contains(&x))
            .collect();
        let mut got = out.clone();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_block_extraction_is_a_permutation() {
        let mut rng = SplitMix64::new(8);
        let data: Vec<f32> = (0..200_000).map(|_| rng.next_f64() as f32 * 40.0).collect();
        let (out, count, _) = pipeline(&data, &cfg4(), 2..3);
        assert!(count.blocks > 1);
        let mut expected: Vec<u32> = data
            .iter()
            .filter(|&&x| (20.0..30.0).contains(&x))
            .map(|x| x.to_bits())
            .collect();
        let mut got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(
            got, expected,
            "filter output must be a permutation of the bucket"
        );
    }

    #[test]
    fn suffix_range_supports_fused_topk() {
        let data = vec![5.0f32, 15.0, 25.0, 35.0, 12.0, 38.0];
        let (out, _, _) = pipeline(&data, &cfg4(), 2..4);
        let mut got = out.clone();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, vec![25.0, 35.0, 38.0]);
    }

    #[test]
    fn empty_bucket_yields_empty_output() {
        let data = vec![5.0f32, 6.0, 7.0]; // everything in bucket 0
        let (out, _, _) = pipeline(&data, &cfg4(), 3..4);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_charges_oracle_stream_and_sparse_gathers() {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let tree = SearchTree::build(&[10.0f32, 20.0, 30.0]);
        let cfg = cfg4();
        let data: Vec<f32> = (0..10_000).map(|i| (i % 40) as f32).collect();
        let count = count_kernel(&mut device, &data, &tree, &cfg, true, LaunchOrigin::Host);
        let red = crate::reduce::reduce_kernel(&mut device, &count, LaunchOrigin::Device);
        let out = filter_kernel(
            &mut device,
            &data,
            &count,
            &red,
            1..2,
            &cfg,
            LaunchOrigin::Device,
        );
        let rec = device
            .records()
            .iter()
            .find(|r| r.name == "filter")
            .unwrap();
        assert!(rec.cost.global_read_bytes >= 10_000, "oracle stream");
        assert_eq!(rec.cost.uncoalesced_bytes, out.len() as u64 * 4);
        assert_eq!(rec.cost.global_write_bytes, out.len() as u64 * 4);
        assert!(rec.cost.shared_atomic_warp_ops > 0);
    }

    #[test]
    fn global_scope_filter_uses_global_atomics() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let tree = SearchTree::build(&[10.0f32, 20.0, 30.0]);
        let cfg = cfg4().with_atomic_scope(AtomicScope::Global);
        let data: Vec<f32> = (0..5_000).map(|i| (i % 40) as f32).collect();
        let count = count_kernel(&mut device, &data, &tree, &cfg, true, LaunchOrigin::Host);
        let red = crate::reduce::reduce_kernel(&mut device, &count, LaunchOrigin::Device);
        filter_kernel(
            &mut device,
            &data,
            &count,
            &red,
            0..1,
            &cfg,
            LaunchOrigin::Device,
        );
        let rec = device
            .records()
            .iter()
            .find(|r| r.name == "filter")
            .unwrap();
        assert!(rec.cost.global_atomic_ops > 0);
        assert_eq!(rec.cost.shared_atomic_warp_ops, 0);
    }

    #[test]
    #[should_panic(expected = "requires oracles")]
    fn filter_without_oracles_panics() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let tree = SearchTree::build(&[10.0f32, 20.0, 30.0]);
        let cfg = cfg4();
        let data = vec![1.0f32, 2.0];
        // count-only mode: no oracles
        let count = count_kernel(&mut device, &data, &tree, &cfg, false, LaunchOrigin::Host);
        let red = crate::reduce::reduce_kernel(&mut device, &count, LaunchOrigin::Device);
        filter_kernel(
            &mut device,
            &data,
            &count,
            &red,
            0..1,
            &cfg,
            LaunchOrigin::Device,
        );
    }
}
