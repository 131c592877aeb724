//! Approximate SampleSelect (§II-C, §V-G): one recursion level, no
//! oracles, no filter — return the splitter whose rank is closest to
//! the target.
//!
//! After the count kernel, the splitter ranks `r_i` are available for
//! free as the prefix sums of the bucket counts. The approximate variant
//! "computes only the bucket counts, and selects the splitter that is
//! closest to the target rank": the rank error is at worst half the
//! maximum bucket size, controllable through the bucket count and sample
//! size — which is why the paper recommends the maximal bucket count
//! that still fits shared memory (b ≤ 1024).
//!
//! The level is written once, generic over the level loop's executor:
//! the simulated device charges it as the sample, `count_nowrite` and
//! totals-only `reduce` kernels, and the host backend
//! ([`crate::cpu::cpu_approx_select`]) runs it on a thread pool.

use crate::element::SelectElement;
use crate::instrument::SelectReport;
use crate::params::SampleSelectConfig;
use crate::recursion::{built_tree, validate_input, Executor, SplitterLevels};
use crate::rng::SplitMix64;
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::arch::v100;
use gpu_sim::{Device, LaunchOrigin};

/// Result of an approximate selection.
#[derive(Debug, Clone)]
pub struct ApproxResult<T> {
    /// The chosen splitter: an element whose rank approximates `rank`.
    pub value: T,
    /// The exact rank of `value` in the input (the splitter's prefix
    /// sum `r_i` — known exactly, for free).
    pub achieved_rank: u64,
    /// `|achieved_rank - rank|`.
    pub rank_error: u64,
    /// `rank_error / n` — the paper's Fig. 10 x-axis ("relative
    /// approximation error in terms of the element rank").
    pub relative_error: f64,
    /// Measurement report.
    pub report: SelectReport,
}

/// Approximate selection on a simulated device. Its count writes no
/// oracles; bucket counts up to 1024 are allowed (§V-G).
pub fn approx_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<ApproxResult<T>, SelectError> {
    let records_before = device.records().len();
    let (value, achieved_rank) = nearest_splitter(device, data, rank, cfg)?;
    let (n, rank_error) = (data.len(), achieved_rank.abs_diff(rank as u64));
    let records = &device.records()[records_before..];
    let report = SelectReport::from_records("approx-sampleselect", n, records, 1, true);
    Ok(ApproxResult {
        value,
        achieved_rank,
        rank_error,
        relative_error: rank_error as f64 / n as f64,
        report,
    })
}

/// The splitter whose rank is nearest `rank`, and that rank, by one
/// level on `exec`: sample, a count that stores no oracles, and reduce.
/// The splitter bounding bucket `i` from below has rank
/// `bucket_offsets[i]`; splitters exist for `i = 1..b`.
pub(crate) fn nearest_splitter<T: SelectElement, E: Executor<T, SplitterLevels>>(
    exec: &mut E,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<(T, u64), SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    validate_input(data, rank, cfg)?;
    let (ws, origin) = (&mut SelectWorkspace::new(), LaunchOrigin::Host);
    exec.sample(data, cfg, &mut SplitMix64::new(cfg.seed), origin, ws)?;
    let tree = built_tree(ws);
    let count = exec.count(data, tree, cfg, false, origin, ws)?;
    let offsets = exec.reduce(&count).bucket_offsets;
    let best = (1..tree.num_buckets())
        .min_by_key(|&i| offsets[i].abs_diff(rank as u64))
        .expect("at least one splitter");
    let value = tree.bucket_lower(best).expect("splitter exists");
    Ok((value, offsets[best]))
}

/// Approximate selection on a default simulated device (Tesla V100).
pub fn approx_select<T: SelectElement>(
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<ApproxResult<T>, SelectError> {
    let mut device = Device::on_global_pool(v100());
    approx_select_on_device(&mut device, data, rank, cfg)
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

    fn run(data: &[f32], rank: usize, cfg: &SampleSelectConfig) -> ApproxResult<f32> {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        approx_select_on_device(&mut device, data, rank, cfg).unwrap()
    }

    #[test]
    fn achieved_rank_is_exact() {
        // The reported rank of the returned splitter must equal its true
        // rank in the input (the paper's point: splitter ranks are free).
        let data = uniform(50_000, 1);
        let res = run(&data, 25_000, &SampleSelectConfig::default());
        let true_rank = data.iter().filter(|&&x| x < res.value).count() as u64;
        assert_eq!(res.achieved_rank, true_rank);
        assert_eq!(res.rank_error, true_rank.abs_diff(25_000));
    }

    #[test]
    fn error_bounded_by_max_bucket_size() {
        let data = uniform(100_000, 2);
        let cfg = SampleSelectConfig::default();
        let res = run(&data, 50_000, &cfg);
        // expected bucket size n/b = 390; even with sampling variance
        // the nearest splitter is well within a few bucket widths.
        let bound = 8 * data.len() / cfg.num_buckets;
        assert!(
            (res.rank_error as usize) < bound,
            "error {} exceeds {bound}",
            res.rank_error
        );
        assert!(res.relative_error < 0.05);
    }

    #[test]
    fn more_buckets_reduce_error_on_average() {
        let data = uniform(1 << 18, 3);
        let rank = 1 << 17;
        let avg_err = |buckets: usize| -> f64 {
            (0..5)
                .map(|rep| {
                    let cfg = SampleSelectConfig::default()
                        .with_buckets(buckets)
                        .with_seed(1000 + rep);
                    run(&data, rank, &cfg).relative_error
                })
                .sum::<f64>()
                / 5.0
        };
        let few = avg_err(64);
        let many = avg_err(1024);
        assert!(
            many < few,
            "1024 buckets (err {many}) must beat 64 buckets (err {few})"
        );
    }

    #[test]
    fn approximate_is_faster_than_exact() {
        let data = uniform(1 << 20, 4);
        let rank = 1 << 19;
        let cfg = SampleSelectConfig::default();
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let approx = approx_select_on_device(&mut device, &data, rank, &cfg).unwrap();
        device.reset();
        let exact =
            crate::recursion::sample_select_on_device(&mut device, &data, rank, &cfg).unwrap();
        assert!(
            approx.report.total_time.as_ns() < exact.report.total_time.as_ns(),
            "approx {} vs exact {}",
            approx.report.total_time,
            exact.report.total_time
        );
    }

    #[test]
    fn value_close_to_exact_for_smooth_distribution() {
        let data = uniform(1 << 18, 5);
        let rank = 100_000;
        let res = run(
            &data,
            rank,
            &SampleSelectConfig::default().with_buckets(1024),
        );
        let exact = reference_select(&data, rank).unwrap();
        // uniform data: rank error translates into value error linearly
        assert!(
            (res.value - exact).abs() < 0.05,
            "value {} vs {exact}",
            res.value
        );
    }

    #[test]
    fn up_to_1024_buckets_allowed() {
        let data = uniform(1 << 16, 6);
        let cfg = SampleSelectConfig::default().with_buckets(1024);
        let res = run(&data, 1000, &cfg);
        assert!(res.relative_error < 0.05);
    }

    #[test]
    fn no_filter_or_oracle_kernels_run() {
        let data = uniform(1 << 16, 7);
        let res = run(&data, 1000, &SampleSelectConfig::default());
        assert_eq!(res.report.kernel_launches("filter"), 0);
        assert_eq!(
            res.report.kernel_launches("count"),
            0,
            "count with write must not run"
        );
        assert_eq!(res.report.kernel_launches("count_nowrite"), 1);
    }

    #[test]
    fn propagates_input_errors() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let err =
            approx_select_on_device::<f32>(&mut device, &[], 0, &SampleSelectConfig::default())
                .unwrap_err();
        assert_eq!(err, SelectError::EmptyInput);
    }
}
