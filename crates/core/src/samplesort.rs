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
//!
//! The sort runs the shared level loop of [`crate::recursion`] with its
//! `All` target, which any executor can run because every executor's
//! filter is bucket-major; this module holds its device entry points.

use crate::element::SelectElement;
use crate::instrument::SelectReport;
use crate::params::SampleSelectConfig;
use crate::recursion::sort_levels;
use crate::SelectError;
use gpu_sim::Device;

/// Result of a device sort.
#[derive(Debug, Clone)]
pub struct SortResult<T> {
    /// The input, ascending.
    pub sorted: Vec<T>,
    /// Measurement report.
    pub report: SelectReport,
}

/// Sort `data` ascending on a simulated device using recursive sample
/// partitioning.
pub fn sample_sort_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    cfg: &SampleSelectConfig,
) -> Result<SortResult<T>, SelectError> {
    sort_levels(device, data, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::sort_elements;
    use crate::rng::SplitMix64;
    use gpu_sim::arch::v100;
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
        assert!(res.report.terminated_early);
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
        assert_eq!(res.report.levels, 1);
        assert!(res.report.terminated_early);
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
