//! The QuickSelect reference implementation (§IV-F).
//!
//! "While SampleSelect chooses a large number of splitters and
//! (conceptually) partitions the elements into the resulting buckets,
//! QuickSelect only chooses a single so-called pivot element based on
//! which the input data is bipartitioned. This difference leads to
//! simpler treatment of a single element, but in general requires more
//! recursion levels and more read and write operations."
//!
//! The same performance engineering is applied as for SampleSelect
//! (§IV-F): the branchless bipartition kernel of Fig. 5, the two-pass
//! shared-memory counter scheme or direct global counters (§IV-G), warp
//! aggregation of the two counters via ballots, bitonic pivot selection,
//! and dynamic-parallelism tail recursion.
//!
//! One robustness addition: the partition pass separates elements
//! *equal* to the pivot into a middle region, so inputs with heavy
//! duplication terminate in `O(log n)` levels (the analogue of
//! SampleSelect's equality buckets).

use crate::bitonic::bitonic_sort;
use crate::element::{
    as_bits32, as_bits64, elems_from_bits32, elems_from_bits64, fill_lt_keys32, fill_lt_keys64,
    SelectElement,
};
use crate::instrument::SelectReport;
use crate::obs::{self, Histogram, SpanKind};
use crate::params::{AtomicScope, SampleSelectConfig};
use crate::recursion::{base_case_select, validate_input};
use crate::rng::SplitMix64;
use crate::{SelectError, SelectResult};
use gpu_sim::arch::v100;
use gpu_sim::warp::WARP_SIZE;
use gpu_sim::{Device, KernelCost, LaunchConfig, LaunchOrigin};
use hpc_par::simd;

/// Pivot sample size: a small shared-memory bitonic sort picks the
/// median of this many random elements.
const PIVOT_SAMPLE: usize = 64;

/// Expected depth is ~`1.4 log2(n)`; this is a generous safety bound.
const MAX_LEVELS: u32 = 512;

/// Pivot-selection kernel: sample, bitonic-sort in shared memory, take
/// the median (the paper reuses the same bitonic kernel as SampleSelect's
/// splitter selection, §IV-D).
fn pivot_kernel<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    cfg: &SampleSelectConfig,
    rng: &mut SplitMix64,
    origin: LaunchOrigin,
) -> T {
    let s = PIVOT_SAMPLE.min(data.len());
    let mut sample: Vec<T> = (0..s).map(|_| data[rng.next_below(data.len())]).collect();
    let mut cost = KernelCost::new();
    cost.blocks = 1;
    cost.uncoalesced_bytes += (s * T::BYTES) as u64;
    let stats = bitonic_sort(&mut sample);
    stats.charge::<T>(&mut cost);
    cost.global_write_bytes += T::BYTES as u64;
    let launch = LaunchConfig {
        blocks: 1,
        threads_per_block: cfg.threads_per_block.min(64),
        shared_mem_bytes: (s * T::BYTES) as u32,
    };
    device.commit("pivot", launch, origin, cost);
    sample[s / 2]
}

/// Per-level partition counts.
struct PartitionCounts {
    smaller: u64,
    equal: u64,
    /// Per-block (smaller, equal) partials for the write pass.
    partials: Vec<(u64, u64)>,
    blocks: usize,
    chunk: usize,
}

/// The `count` pass: compare every element against the pivot and count
/// the smaller/equal elements ("it only compares the elements against a
/// single pivot element, and updates two atomic counters", §V-F).
fn quick_count_kernel<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    pivot: T,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> PartitionCounts {
    let n = data.len();
    let launch = cfg.launch_config(n, T::BYTES);
    let blocks = launch.blocks as usize;
    let chunk = launch.block_chunk(n);

    let partials_buf = device.pooled_scatter::<(u64, u64)>(blocks, "quick-count-partials");
    let partials_ref = &partials_buf;
    let level = simd::simd_level();
    let pivot_key = pivot.to_lt_key();
    let mut cost = hpc_par::parallel_map_reduce(
        device.pool(),
        blocks,
        1,
        KernelCost::new(),
        |range, mut cost| {
            let mut keys32 = [0u32; WARP_SIZE];
            let mut keys64 = [0u64; WARP_SIZE];
            for block in range {
                let start = (block * chunk).min(n);
                let end = ((block + 1) * chunk).min(n);
                let mut smaller = 0u64;
                let mut equal = 0u64;
                // Lane-parallel pivot compare: one (lt, eq) mask
                // pair per warp of keys, popcounts instead of
                // per-element branches. The lt-key transform makes
                // key equality coincide with "neither side lt".
                let mut i = start;
                while i < end {
                    let len = (end - i).min(WARP_SIZE);
                    let (lt, eq) = if T::BYTES == 4 {
                        fill_lt_keys32(&data[i..i + len], &mut keys32[..len], level);
                        simd::pivot_masks_u32(&keys32[..len], pivot_key as u32, level)
                    } else {
                        fill_lt_keys64(&data[i..i + len], &mut keys64[..len], level);
                        simd::pivot_masks_u64(&keys64[..len], pivot_key, level)
                    };
                    smaller += lt.count_ones() as u64;
                    equal += eq.count_ones() as u64;
                    i += len;
                }
                // SAFETY: one write per block index.
                unsafe { partials_ref.write(block, (smaller, equal)) };
                if start < end {
                    let len = (end - start) as u64;
                    let warps = len.div_ceil(WARP_SIZE as u64);
                    // Unlike SampleSelect's 256-counter histogram, the
                    // two pivot counters fit in registers: each thread
                    // accumulates its `items_per_thread` unrolled
                    // elements locally and issues one ballot-aggregated
                    // atomic per counter per batch. This privatization
                    // is why QuickSelect ends up memory-bound while
                    // SampleSelect is atomics-bound (SS V-D).
                    let batches = warps.div_ceil(cfg.items_per_thread as u64);
                    cost.global_read_bytes += len * T::BYTES as u64;
                    cost.int_ops += len * 2;
                    cost.warp_intrinsics += batches * 2;
                    match cfg.atomic_scope {
                        AtomicScope::Shared => {
                            cost.shared_atomic_warp_ops += batches * 2;
                            // block partials stored for the scan
                            cost.global_write_bytes += 2 * 4;
                        }
                        AtomicScope::Global => {
                            cost.global_atomic_ops += batches * 2;
                            cost.global_atomic_hot_ops += batches;
                        }
                    }
                    cost.blocks += 1;
                }
            }
            cost
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    );
    if cfg.atomic_scope == AtomicScope::Shared {
        // The scan over per-block partials (tiny; folded into this
        // kernel's record as extra traffic rather than a separate
        // launch, matching the fused treatment in §IV-G).
        cost.global_read_bytes += blocks as u64 * 2 * 4;
        cost.global_write_bytes += blocks as u64 * 2 * 4;
    }
    device.commit("quick_count", launch, origin, cost);

    // SAFETY: every block slot written exactly once.
    let partials = unsafe { partials_buf.into_vec(blocks) };
    let smaller = partials.iter().map(|p| p.0).sum();
    let equal = partials.iter().map(|p| p.1).sum();
    PartitionCounts {
        smaller,
        equal,
        partials,
        blocks,
        chunk,
    }
}

/// The branchless bipartition write pass (Fig. 5), extended with a
/// middle region for pivot-equal elements: smaller elements grow from
/// the left, larger from the right, equals in between.
fn bipartition_kernel<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    pivot: T,
    counts: &PartitionCounts,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> Vec<T> {
    let n = data.len();
    let blocks = counts.blocks;
    let chunk = counts.chunk;
    let launch = cfg.launch_config(n, T::BYTES);

    // Exclusive scans of the per-block partials give each block its
    // disjoint write ranges in all three regions.
    let mut smaller_off = Vec::with_capacity(blocks);
    let mut equal_off = Vec::with_capacity(blocks);
    let mut larger_off = Vec::with_capacity(blocks);
    let mut s_run = 0u64;
    let mut e_run = counts.smaller;
    let mut l_run = counts.smaller + counts.equal;
    for block in 0..blocks {
        smaller_off.push(s_run);
        equal_off.push(e_run);
        larger_off.push(l_run);
        let (s, e) = counts.partials[block];
        let start = block * chunk;
        let end = ((block + 1) * chunk).min(n);
        let total = (end.max(start) - start) as u64;
        s_run += s;
        e_run += e;
        l_run += total - s - e;
    }

    let out = device.pooled_scatter::<T>(n, "bipartition-out");
    let out_ref = &out;
    let smaller_off_ref = &smaller_off;
    let equal_off_ref = &equal_off;
    let larger_off_ref = &larger_off;
    let level = simd::simd_level();
    let pivot_key = pivot.to_lt_key();
    let cost = hpc_par::parallel_map_reduce(
        device.pool(),
        blocks,
        1,
        KernelCost::new(),
        |range, mut cost| {
            let mut keys32 = [0u32; WARP_SIZE];
            let mut keys64 = [0u64; WARP_SIZE];
            let mut staging32 = [0u32; WARP_SIZE];
            let mut staging64 = [0u64; WARP_SIZE];
            for block in range {
                let start = block * chunk;
                let end = ((block + 1) * chunk).min(n);
                if start >= end {
                    continue;
                }
                let mut s = smaller_off_ref[block];
                let mut e = equal_off_ref[block];
                let mut l = larger_off_ref[block];
                // Three-way masked classify + stable compress per
                // warp: the per-region staging buffers are flushed
                // at exact size into the block's disjoint region
                // ranges, so the in-region element order (and the
                // write-once contract) is the same as a per-element
                // cursor walk's.
                let mut i = start;
                while i < end {
                    let len = (end - i).min(WARP_SIZE);
                    let lanes = simd::mask_for_len(len);
                    let (lt, eq) = if T::BYTES == 4 {
                        fill_lt_keys32(&data[i..i + len], &mut keys32[..len], level);
                        simd::pivot_masks_u32(&keys32[..len], pivot_key as u32, level)
                    } else {
                        fill_lt_keys64(&data[i..i + len], &mut keys64[..len], level);
                        simd::pivot_masks_u64(&keys64[..len], pivot_key, level)
                    };
                    let gt = !(lt | eq) & lanes;
                    for (mask, cursor) in [(lt, &mut s), (eq, &mut e), (gt, &mut l)] {
                        if mask == 0 {
                            continue;
                        }
                        // SAFETY: region scans give each block
                        // disjoint ranges; the cursors hand out
                        // unique contiguous runs within them.
                        unsafe {
                            if T::BYTES == 4 {
                                let cnt = simd::compress_u32(
                                    as_bits32(&data[i..i + len]),
                                    mask,
                                    &mut staging32,
                                    level,
                                );
                                out_ref.write_slice(
                                    *cursor as usize,
                                    elems_from_bits32::<T>(&staging32[..cnt]),
                                );
                            } else {
                                let cnt = simd::compress_u64(
                                    as_bits64(&data[i..i + len]),
                                    mask,
                                    &mut staging64,
                                    level,
                                );
                                out_ref.write_slice(
                                    *cursor as usize,
                                    elems_from_bits64::<T>(&staging64[..cnt]),
                                );
                            }
                        }
                        *cursor += mask.count_ones() as u64;
                    }
                    i += len;
                }
                let len = (end - start) as u64;
                let warps = len.div_ceil(WARP_SIZE as u64);
                // Same privatization as the count pass: one aggregated
                // cursor reservation per region per unrolled batch.
                let batches = warps.div_ceil(cfg.items_per_thread as u64);
                cost.global_read_bytes += len * T::BYTES as u64;
                cost.global_write_bytes += len * T::BYTES as u64;
                cost.int_ops += len * 3;
                cost.warp_intrinsics += batches * 2;
                match cfg.atomic_scope {
                    AtomicScope::Shared => cost.shared_atomic_warp_ops += batches * 2,
                    AtomicScope::Global => {
                        cost.global_atomic_ops += batches * 2;
                        cost.global_atomic_hot_ops += batches;
                    }
                }
                cost.blocks += 1;
            }
            cost
        },
        |mut a, b| {
            a.merge(&b);
            a
        },
    );
    device.commit("bipartition", launch, origin, cost);

    // SAFETY: the three regions tile 0..n and every slot is written once.
    unsafe { out.into_vec(n) }
}

/// One QuickSelect bipartition level as a public entry point: count
/// against `pivot`, then scatter into `smaller ++ equal ++ larger`
/// order. Exposed for the differential conformance suite, which
/// cross-validates this vectorized pass (under the device sanitizer)
/// against a thread-level `BlockExec` reference.
///
/// Returns the partitioned data plus the `(smaller, equal)` totals.
pub fn bipartition_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    pivot: T,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> (Vec<T>, u64, u64) {
    let counts = quick_count_kernel(device, data, pivot, cfg, origin);
    let (smaller, equal) = (counts.smaller, counts.equal);
    let out = bipartition_kernel(device, data, pivot, &counts, cfg, origin);
    (out, smaller, equal)
}

/// Exact QuickSelect on a simulated device.
pub fn quick_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<SelectResult<T>, SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    validate_input(data, rank, cfg)?;

    let n = data.len();
    let records_before = device.records().len();
    obs::span_enter(SpanKind::Query, "quickselect", 0, device.now().as_ns());
    let mut rng = SplitMix64::new(cfg.seed);
    let max_levels = cfg.max_levels.unwrap_or(MAX_LEVELS).min(MAX_LEVELS);
    let work_budget: Option<f64> = cfg.work_budget_factor.map(|f| f * n as f64);
    let mut work_done: f64 = 0.0;

    let mut storage: Vec<T> = Vec::new();
    let mut use_storage = false;
    let mut k = rank;
    let mut levels = 0u32;
    let mut terminated_early = false;
    let value: T;

    loop {
        let cur: &[T] = if use_storage { &storage } else { data };
        let origin = if levels == 0 {
            LaunchOrigin::Host
        } else {
            LaunchOrigin::Device
        };
        if cur.len() <= cfg.base_case_size {
            value = base_case_select(device, cur, k, cfg, origin);
            break;
        }
        if levels >= max_levels {
            return Err(SelectError::RecursionLimit);
        }
        if let Some(budget) = work_budget {
            work_done += cur.len() as f64;
            if work_done > budget {
                return Err(SelectError::RecursionLimit);
            }
        }
        levels += 1;
        let level_ix = (levels - 1) as u64;
        obs::span_enter(SpanKind::Level, "level", level_ix, device.now().as_ns());

        let pivot = pivot_kernel(device, cur, cfg, &mut rng, origin);
        let counts = quick_count_kernel(device, cur, pivot, cfg, LaunchOrigin::Device);
        let smaller = counts.smaller as usize;
        let equal = counts.equal as usize;

        if (smaller..smaller + equal).contains(&k) {
            // The rank falls among the pivot-equal elements: done
            // without even writing the partition.
            value = pivot;
            terminated_early = true;
            obs::span_exit(device.now().as_ns());
            break;
        }

        let partitioned =
            bipartition_kernel(device, cur, pivot, &counts, cfg, LaunchOrigin::Device);
        if k < smaller {
            storage = partitioned[..smaller].to_vec();
        } else {
            storage = partitioned[smaller + equal..].to_vec();
            k -= smaller + equal;
        }
        obs::observe(Histogram::LevelKeptElements, storage.len() as u64);
        obs::span_exit(device.now().as_ns());
        use_storage = true;
    }

    obs::absorb_device(device);
    obs::span_exit(device.now().as_ns());
    let report = SelectReport::from_records(
        "quickselect",
        n,
        &device.records()[records_before..],
        levels,
        terminated_early,
    );
    Ok(SelectResult { value, report })
}

/// Exact QuickSelect on a default simulated device (Tesla V100).
pub fn quick_select<T: SelectElement>(
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<SelectResult<T>, SelectError> {
    let mut device = Device::on_global_pool(v100());
    quick_select_on_device(&mut device, data, rank, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use hpc_par::ThreadPool;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn select(data: &[f32], rank: usize, cfg: &SampleSelectConfig) -> SelectResult<f32> {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        quick_select_on_device(&mut device, data, rank, cfg).unwrap()
    }

    #[test]
    fn matches_reference_on_random_data() {
        let data = uniform(100_000, 1);
        let cfg = SampleSelectConfig::default();
        for rank in [0usize, 1, 49_999, 99_999] {
            let res = select(&data, rank, &cfg);
            assert_eq!(
                res.value,
                reference_select(&data, rank).unwrap(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn matches_reference_both_scopes() {
        let data = uniform(50_000, 2);
        let expected = reference_select(&data, 30_000).unwrap();
        for scope in [AtomicScope::Shared, AtomicScope::Global] {
            let cfg = SampleSelectConfig::default().with_atomic_scope(scope);
            assert_eq!(select(&data, 30_000, &cfg).value, expected);
        }
    }

    #[test]
    fn duplicate_heavy_input_terminates_quickly() {
        let mut rng = SplitMix64::new(3);
        let data: Vec<f32> = (0..100_000)
            .map(|_| (rng.next_below(4) as f32) * 2.0)
            .collect();
        let cfg = SampleSelectConfig::default();
        for rank in [0usize, 50_000, 99_999] {
            let res = select(&data, rank, &cfg);
            assert_eq!(res.value, reference_select(&data, rank).unwrap());
            assert!(res.report.levels < 20, "levels = {}", res.report.levels);
        }
    }

    #[test]
    fn all_equal_terminates_early() {
        let data = vec![3.5f32; 50_000];
        let res = select(&data, 12_345, &SampleSelectConfig::default());
        assert_eq!(res.value, 3.5);
        assert!(res.report.terminated_early);
        assert_eq!(res.report.levels, 1);
        // partition never ran
        assert_eq!(res.report.kernel_launches("bipartition"), 0);
    }

    #[test]
    fn needs_more_levels_than_sampleselect() {
        // §V-F: "the QuickSelect algorithm needs a much deeper recursion
        // hierarchy".
        let data = uniform(1 << 20, 4);
        let pool = ThreadPool::new(4);
        let cfg = SampleSelectConfig::default();
        let mut device = Device::new(v100(), &pool);
        let quick = quick_select_on_device(&mut device, &data, 1 << 19, &cfg).unwrap();
        device.reset();
        let sample =
            crate::recursion::sample_select_on_device(&mut device, &data, 1 << 19, &cfg).unwrap();
        assert!(
            quick.report.levels > 2 * sample.report.levels,
            "quick {} vs sample {}",
            quick.report.levels,
            sample.report.levels
        );
        assert!(quick.report.total_launches() > sample.report.total_launches());
    }

    #[test]
    fn moves_more_data_than_sampleselect() {
        // §IV-A: QuickSelect reads/writes ~2n vs SampleSelect's (1+eps)n.
        let data = uniform(1 << 18, 5);
        let pool = ThreadPool::new(4);
        let cfg = SampleSelectConfig::default();
        let mut device = Device::new(v100(), &pool);
        quick_select_on_device(&mut device, &data, 1 << 17, &cfg).unwrap();
        let quick_bytes: u64 = device
            .records()
            .iter()
            .map(|r| r.cost.total_global_bytes())
            .sum();
        device.reset();
        crate::recursion::sample_select_on_device(&mut device, &data, 1 << 17, &cfg).unwrap();
        let sample_bytes: u64 = device
            .records()
            .iter()
            .map(|r| r.cost.total_global_bytes())
            .sum();
        assert!(
            quick_bytes > sample_bytes,
            "quick {quick_bytes} vs sample {sample_bytes}"
        );
    }

    #[test]
    fn sorted_and_reverse_sorted_inputs() {
        let asc: Vec<f32> = (0..20_000).map(|i| i as f32).collect();
        let desc: Vec<f32> = (0..20_000).map(|i| (20_000 - i) as f32).collect();
        let cfg = SampleSelectConfig::default();
        assert_eq!(select(&asc, 500, &cfg).value, 500.0);
        assert_eq!(select(&desc, 500, &cfg).value, 501.0);
    }

    #[test]
    fn propagates_errors() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let cfg = SampleSelectConfig::default();
        assert_eq!(
            quick_select_on_device::<f32>(&mut device, &[], 0, &cfg).unwrap_err(),
            SelectError::EmptyInput
        );
        assert!(matches!(
            quick_select_on_device(&mut device, &[1.0f32], 1, &cfg).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
    }

    #[test]
    fn works_on_doubles() {
        let mut rng = SplitMix64::new(6);
        let data: Vec<f64> = (0..60_000).map(|_| rng.next_f64()).collect();
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let res =
            quick_select_on_device(&mut device, &data, 42, &SampleSelectConfig::default()).unwrap();
        assert_eq!(res.value, reference_select(&data, 42).unwrap());
    }
}
