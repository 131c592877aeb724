//! Fused top-k selection (§IV-I).
//!
//! When not only the kth-smallest element but all larger elements are of
//! interest, the filter kernel is modified to copy "not only elements
//! from the target bucket, but also from all buckets containing larger
//! elements. As the splitters are ordered, the recursion still only
//! needs to descend into the target bucket, but all elements from larger
//! buckets are guaranteed to be part of the top-k selection."
//!
//! Both the top-k and its bottom-k mirror run the shared level loop of
//! [`crate::recursion`]; this module holds their entry points.

use crate::element::SelectElement;
use crate::instrument::SelectReport;
use crate::params::SampleSelectConfig;
use crate::recursion::fused_with_workspace;
use crate::workspace::SelectWorkspace;
use crate::{SelectError, SelectResult};
use gpu_sim::arch::v100;
use gpu_sim::Device;

/// Result of a top-k extraction.
#[derive(Debug, Clone)]
pub struct TopKResult<T> {
    /// The `k` selected elements, in no particular order.
    pub elements: Vec<T>,
    /// The threshold: the smallest element of a top-k set (the
    /// `(n-k)`-th smallest of the input), or the largest of a bottom-k
    /// set (the `(k-1)`-th smallest).
    pub threshold: T,
    /// Measurement report.
    pub report: SelectReport,
}

/// Extract the `k` largest elements on a simulated device.
pub fn top_k_largest_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
) -> Result<TopKResult<T>, SelectError> {
    top_k_largest_with_workspace(device, data, k, cfg, &mut SelectWorkspace::new())
}

/// [`top_k_largest_on_device`] with a reusable [`SelectWorkspace`] (see
/// [`crate::recursion::sample_select_with_workspace`] for the reuse
/// contract).
pub fn top_k_largest_with_workspace<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
) -> Result<TopKResult<T>, SelectError> {
    fused_with_workspace(device, data, k, true, cfg, ws)
}

/// Extract the `k` largest elements on a default simulated device.
pub fn top_k_largest<T: SelectElement>(
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
) -> Result<TopKResult<T>, SelectError> {
    let mut device = Device::on_global_pool(v100());
    top_k_largest_on_device(&mut device, data, k, cfg)
}

/// Extract the `k` smallest elements (bottom-k), the mirror of
/// [`top_k_largest_on_device`]: rank `k - 1` picks the bucket, and the
/// fused filter keeps the target bucket plus every *smaller* bucket.
pub fn bottom_k_smallest_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
) -> Result<TopKResult<T>, SelectError> {
    fused_with_workspace(device, data, k, false, cfg, &mut SelectWorkspace::new())
}

/// Convenience: the kth-largest element (top-k threshold) as a plain
/// [`SelectResult`], without materializing the top-k set.
pub fn kth_largest<T: SelectElement>(
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
) -> Result<SelectResult<T>, SelectError> {
    if k == 0 || k > data.len() {
        return Err(SelectError::RankOutOfRange {
            rank: k,
            len: data.len(),
        });
    }
    crate::sample_select(data, data.len() - k, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::sort_elements;
    use crate::rng::SplitMix64;
    use hpc_par::ThreadPool;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn check_topk(data: &[f32], k: usize) {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let res =
            top_k_largest_on_device(&mut device, data, k, &SampleSelectConfig::default()).unwrap();
        assert_eq!(res.elements.len(), k);

        let mut sorted = data.to_vec();
        sort_elements(&mut sorted);
        let expected: Vec<u32> = sorted[data.len() - k..]
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let mut got: Vec<u32> = res.elements.iter().map(|x| x.to_bits()).collect();
        got.sort_unstable();
        let mut expected = expected;
        expected.sort_unstable();
        assert_eq!(got, expected, "top-{k} multiset mismatch");
        assert_eq!(res.threshold, sorted[data.len() - k]);
    }

    #[test]
    fn small_input_topk() {
        let data = vec![5.0f32, 1.0, 9.0, 3.0, 7.0];
        check_topk(&data, 2);
        check_topk(&data, 5);
    }

    #[test]
    fn large_input_topk() {
        let data = uniform(200_000, 1);
        check_topk(&data, 10);
        check_topk(&data, 1000);
        check_topk(&data, 100_000);
    }

    #[test]
    fn topk_with_duplicates() {
        let mut rng = SplitMix64::new(2);
        let data: Vec<f32> = (0..50_000)
            .map(|_| (rng.next_below(8) as f32) * 1.5)
            .collect();
        // ties at the threshold boundary must still give exactly k
        for k in [1usize, 100, 25_000, 50_000] {
            let pool = ThreadPool::new(4);
            let mut device = Device::new(v100(), &pool);
            let res =
                top_k_largest_on_device(&mut device, &data, k, &SampleSelectConfig::default())
                    .unwrap();
            assert_eq!(res.elements.len(), k);
            let mut sorted = data.clone();
            sort_elements(&mut sorted);
            let threshold = sorted[data.len() - k];
            assert_eq!(res.threshold, threshold);
            assert!(res.elements.iter().all(|&x| x >= threshold));
            // count of strictly-greater elements must match
            let expected_gt = sorted[data.len() - k..]
                .iter()
                .filter(|&&x| x > threshold)
                .count();
            let got_gt = res.elements.iter().filter(|&&x| x > threshold).count();
            assert_eq!(got_gt, expected_gt);
        }
    }

    #[test]
    fn k_equals_n_returns_everything() {
        let data = uniform(5_000, 3);
        check_topk(&data, 5_000);
    }

    #[test]
    fn invalid_k_rejected() {
        let data = vec![1.0f32, 2.0];
        let err = top_k_largest(&data, 0, &SampleSelectConfig::default()).unwrap_err();
        assert!(matches!(err, SelectError::RankOutOfRange { .. }));
        let err = top_k_largest(&data, 3, &SampleSelectConfig::default()).unwrap_err();
        assert!(matches!(err, SelectError::RankOutOfRange { .. }));
    }

    #[test]
    fn bottom_k_is_the_sorted_prefix() {
        let data = uniform(60_000, 9);
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        for k in [1usize, 100, 30_000] {
            let res =
                bottom_k_smallest_on_device(&mut device, &data, k, &SampleSelectConfig::default())
                    .unwrap();
            assert_eq!(res.elements.len(), k);
            let mut sorted = data.clone();
            sort_elements(&mut sorted);
            let mut got: Vec<u32> = res.elements.iter().map(|x| x.to_bits()).collect();
            let mut expected: Vec<u32> = sorted[..k].iter().map(|x| x.to_bits()).collect();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "k = {k}");
            assert_eq!(res.threshold, sorted[k - 1]);
        }
    }

    #[test]
    fn bottom_k_with_ties_at_threshold() {
        let data = vec![2.0f32, 1.0, 2.0, 2.0, 3.0, 0.5];
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let res =
            bottom_k_smallest_on_device(&mut device, &data, 4, &SampleSelectConfig::default())
                .unwrap();
        assert_eq!(res.elements.len(), 4);
        assert_eq!(res.threshold, 2.0);
        assert!(res.elements.iter().all(|&x| x <= 2.0));
        assert_eq!(res.elements.iter().filter(|&&x| x == 2.0).count(), 2);
    }

    #[test]
    fn kth_largest_matches_reference() {
        let data = uniform(30_000, 4);
        let mut sorted = data.clone();
        sort_elements(&mut sorted);
        let res = kth_largest(&data, 7, &SampleSelectConfig::default()).unwrap();
        assert_eq!(res.value, sorted[data.len() - 7]);
    }
}
