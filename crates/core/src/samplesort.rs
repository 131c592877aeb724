//! A complete sorting algorithm built from the SampleSelect kernels —
//! the paper's second future-work item (§VI: "the extension to a
//! complete sorting algorithm").
//!
//! This is precisely (super-scalar) sample sort: instead of descending
//! into the single bucket containing a target rank, *every* bucket is
//! extracted (the fused filter with range `0..b`, which orders the data
//! by bucket) and sorted recursively. Equality buckets need no further
//! work — every element in them is identical — so duplicate-heavy inputs
//! get faster, not slower.

use crate::count::count_kernel;
use crate::element::SelectElement;
use crate::filter::filter_kernel;
use crate::instrument::SelectReport;
use crate::params::SampleSelectConfig;
use crate::recursion::base_case_select_with;
use crate::reduce::reduce_kernel;
use crate::rng::SplitMix64;
use crate::verify::check_filter_size;
use crate::SelectError;
use gpu_sim::arch::v100;
use gpu_sim::{Device, LaunchOrigin};

/// Result of a device sort.
#[derive(Debug, Clone)]
pub struct SortResult<T> {
    /// The input, ascending.
    pub sorted: Vec<T>,
    /// Measurement report.
    pub report: SelectReport,
}

const MAX_DEPTH: u32 = 48;

/// Sort `data` ascending on a simulated device using recursive sample
/// partitioning.
pub fn sample_sort_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    cfg: &SampleSelectConfig,
) -> Result<SortResult<T>, SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    let n = data.len();
    let records_before = device.records().len();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut max_depth = 0u32;
    let sorted = sort_rec(device, data, cfg, &mut rng, 0, &mut max_depth)?;
    let report = SelectReport::from_records(
        "samplesort",
        n,
        &device.records()[records_before..],
        max_depth,
        false,
    );
    Ok(SortResult { sorted, report })
}

fn sort_rec<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    cfg: &SampleSelectConfig,
    rng: &mut SplitMix64,
    level: u32,
    max_depth: &mut u32,
) -> Result<Vec<T>, SelectError> {
    *max_depth = (*max_depth).max(level);
    if level >= MAX_DEPTH {
        return Err(SelectError::RecursionLimit);
    }
    let origin = if level == 0 {
        LaunchOrigin::Host
    } else {
        LaunchOrigin::Device
    };
    // Sorting switches to the bitonic base case earlier than selection:
    // per-segment kernel-launch overhead dominates tiny partitions, so a
    // segment is sorted block-locally as soon as it fits a (generous)
    // shared-memory tile — as real sample-sort implementations do.
    let sort_base = cfg.base_case_size.max(cfg.sample_size() * 16);
    if data.len() <= sort_base {
        let mut buf = data.to_vec();
        if buf.len() > 1 {
            // The base-case kernel leaves its working copy sorted.
            base_case_select_with(device, data, 0, cfg, origin, &mut buf, &mut Vec::new());
        }
        return Ok(buf);
    }

    let tree = crate::splitter::sample_kernel(device, data, cfg, rng, origin)?;
    let count = count_kernel(device, data, &tree, cfg, true, origin);
    let red = reduce_kernel(device, &count, LaunchOrigin::Device);
    let b = tree.num_buckets() as u32;

    // One fused filter pass extracts everything, ordered by bucket.
    let partitioned = filter_kernel(device, data, &count, &red, 0..b, cfg, LaunchOrigin::Device);
    // Sliced at bucket boundaries below, so checked whatever the
    // verify policy.
    check_filter_size(partitioned.len(), data.len() as u64)?;

    let mut out = Vec::with_capacity(data.len());
    for bucket in 0..b as usize {
        let lo = red.bucket_offsets[bucket] as usize;
        let hi = red.bucket_offsets[bucket + 1] as usize;
        if lo == hi {
            continue;
        }
        let segment = &partitioned[lo..hi];
        if tree.is_equality_bucket(bucket) {
            // All equal: already sorted.
            out.extend_from_slice(segment);
        } else {
            // Degenerate splits (sample fails to separate anything) are
            // safe: the next level resamples, and equality buckets bound
            // the depth for duplicate-only content.
            let sub = sort_rec(device, segment, cfg, rng, level + 1, max_depth)?;
            out.extend(sub);
        }
    }
    Ok(out)
}

/// Sort on a default simulated device (Tesla V100).
pub fn sample_sort<T: SelectElement>(
    data: &[T],
    cfg: &SampleSelectConfig,
) -> Result<SortResult<T>, SelectError> {
    let mut device = Device::on_global_pool(v100());
    sample_sort_on_device(&mut device, data, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::sort_elements;
    use hpc_par::ThreadPool;

    fn check<T: SelectElement + PartialEq>(data: &[T]) -> SortResult<T> {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let res = sample_sort_on_device(&mut device, data, &SampleSelectConfig::default()).unwrap();
        let mut expected = data.to_vec();
        sort_elements(&mut expected);
        assert_eq!(res.sorted.len(), expected.len());
        assert!(
            res.sorted
                .iter()
                .zip(expected.iter())
                .all(|(a, b)| a.total_cmp(*b) == std::cmp::Ordering::Equal),
            "sorted output mismatch"
        );
        res
    }

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    #[test]
    fn sorts_random_data() {
        check(&uniform(200_000, 1));
    }

    #[test]
    fn sorts_small_inputs_via_base_case() {
        check(&uniform(100, 2));
        check(&[3.0f32]);
        check::<f32>(&[]);
    }

    #[test]
    fn sorts_duplicate_heavy_input_fast() {
        let mut rng = SplitMix64::new(3);
        let data: Vec<f32> = (0..150_000)
            .map(|_| (rng.next_below(8) as f32) * 0.5)
            .collect();
        let res = check(&data);
        // equality buckets terminate duplicates at level 1
        assert!(res.report.levels <= 1, "levels = {}", res.report.levels);
    }

    #[test]
    fn sorts_presorted_and_reversed() {
        let asc: Vec<u32> = (0..50_000).collect();
        check(&asc);
        let desc: Vec<u32> = (0..50_000).rev().collect();
        check(&desc);
    }

    #[test]
    fn sorts_integers_and_doubles() {
        let mut rng = SplitMix64::new(4);
        let ints: Vec<i64> = (0..60_000).map(|_| rng.next_u64() as i64).collect();
        check(&ints);
        let doubles: Vec<f64> = (0..60_000).map(|_| rng.next_f64() - 0.5).collect();
        check(&doubles);
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let res = check(&uniform(1 << 20, 5));
        // b = 256, sort base = 16384: 2^20 -> one partition level + base
        assert!(res.report.levels <= 1, "levels = {}", res.report.levels);
        // launch count stays in the hundreds, not tens of thousands
        assert!(
            res.report.total_launches() < 600,
            "launches = {}",
            res.report.total_launches()
        );
    }

    #[test]
    fn all_equal_input_is_one_level() {
        let data = vec![5.5f32; 100_000];
        let res = check(&data);
        assert!(res.report.levels <= 1);
    }

    #[test]
    fn report_covers_the_partition_kernels() {
        let res = check(&uniform(1 << 18, 6));
        for name in ["sample", "count", "reduce", "filter", "base_sort"] {
            assert!(res.report.kernel_launches(name) > 0, "missing {name}");
        }
        assert!(res.report.total_time.as_ns() > 0.0);
    }
}
