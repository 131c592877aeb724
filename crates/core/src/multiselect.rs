//! Multiple-rank selection — the paper's first future-work item
//! (§VI: "extending the SampleSelect algorithm to other typical
//! selection applications like multiple sequence selection").
//!
//! Selecting `m` order statistics at once (e.g. every percentile of a
//! latency distribution) costs barely more than selecting one: the
//! `sample`/`count`/`reduce` work of each level is shared by all target
//! ranks, and the recursion only descends into the (at most `m`)
//! buckets that contain a target. With `b >> m` buckets, the expected
//! extra data touched stays `O(m · n / b)` per level.
//!
//! The selection runs the shared level loop of [`crate::recursion`];
//! this module holds its entry points and the quantile helpers.

use crate::element::SelectElement;
use crate::instrument::SelectReport;
use crate::params::SampleSelectConfig;
use crate::recursion::ranks_with_workspace;
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::arch::v100;
use gpu_sim::Device;

/// Result of a multi-rank selection.
#[derive(Debug, Clone)]
pub struct MultiSelectResult<T> {
    /// `values[i]` is the element of rank `ranks[i]` (same order as the
    /// input ranks).
    pub values: Vec<T>,
    /// Measurement report for the whole batch.
    pub report: SelectReport,
}

/// Select the elements at several ranks at once (0-based, duplicates
/// allowed, any order).
pub fn multi_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    ranks: &[usize],
    cfg: &SampleSelectConfig,
) -> Result<MultiSelectResult<T>, SelectError> {
    ranks_with_workspace(device, data, ranks, cfg, &mut SelectWorkspace::new())
}

/// The `q - 1` target ranks of the `q`-quantiles of an input of length
/// `n`. Rejects the out-of-domain shapes instead of clamping: `q < 2`
/// selects nothing meaningful, and `q > n` would clamp several targets
/// onto the same rank (duplicate work masquerading as distinct
/// quantiles) — the same bound the `selectd` admission path enforces.
/// With `2 <= q <= n` the ranks `i * n / q` are strictly increasing
/// (consecutive targets differ by at least `floor(n / q) >= 1`), so the
/// returned list is duplicate-free by construction.
pub fn quantile_ranks(n: usize, q: usize) -> Result<Vec<usize>, SelectError> {
    if n == 0 {
        return Err(SelectError::EmptyInput);
    }
    if q < 2 {
        return Err(SelectError::InvalidArgument {
            what: format!("q = {q} quantile buckets (need at least 2)"),
        });
    }
    if q > n {
        return Err(SelectError::InvalidArgument {
            what: format!("q = {q} quantile buckets for input of length {n} (need q <= n)"),
        });
    }
    Ok((1..q).map(|i| i * n / q).collect())
}

/// Convenience: the `q`-quantiles of the input (e.g. `q = 100` for
/// percentiles p1..p99). Returns `q - 1` values. Errors with
/// [`SelectError::EmptyInput`] on an empty input and
/// [`SelectError::InvalidArgument`] when `q < 2` or `q > n` (see
/// [`quantile_ranks`]).
pub fn quantiles<T: SelectElement>(
    data: &[T],
    q: usize,
    cfg: &SampleSelectConfig,
) -> Result<MultiSelectResult<T>, SelectError> {
    let ranks = quantile_ranks(data.len(), q)?;
    let mut device = Device::on_global_pool(v100());
    multi_select_on_device(&mut device, data, &ranks, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::rng::SplitMix64;
    use hpc_par::ThreadPool;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn check(data: &[f32], ranks: &[usize]) -> MultiSelectResult<f32> {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let res = multi_select_on_device(&mut device, data, ranks, &SampleSelectConfig::default())
            .unwrap();
        for (i, &rank) in ranks.iter().enumerate() {
            assert_eq!(
                res.values[i],
                reference_select(data, rank).unwrap(),
                "rank {rank}"
            );
        }
        res
    }

    #[test]
    fn selects_multiple_ranks_correctly() {
        let data = uniform(200_000, 1);
        check(&data, &[0, 13, 100_000, 150_000, 199_999]);
    }

    #[test]
    fn handles_duplicate_and_unsorted_ranks() {
        let data = uniform(50_000, 2);
        check(&data, &[40_000, 7, 40_000, 3, 7]);
    }

    #[test]
    fn single_rank_degenerates_to_select() {
        let data = uniform(80_000, 3);
        let res = check(&data, &[12_345]);
        assert_eq!(res.values.len(), 1);
    }

    #[test]
    fn empty_rank_list_is_empty_result() {
        let data = uniform(1_000, 4);
        let device = &mut Device::on_global_pool(v100());
        let res =
            multi_select_on_device(device, &data, &[], &SampleSelectConfig::default()).unwrap();
        assert!(res.values.is_empty());
    }

    #[test]
    fn shares_count_pass_across_queries() {
        // m ranks must NOT cost m count passes over the full input: the
        // level-0 kernels run once regardless of the number of queries.
        let data = uniform(300_000, 5);
        let one = check(&data, &[150_000]);
        let many = check(&data, &[1_000, 50_000, 150_000, 250_000, 299_000]);
        let full_counts = |r: &SelectReport| {
            r.kernels
                .iter()
                .filter(|k| k.name == "count")
                .map(|k| k.cost.global_read_bytes)
                .sum::<u64>()
        };
        // 5 queries read less than 2x the bytes of 1 query (level-0 pass
        // shared; only the small per-bucket recursions multiply).
        assert!(full_counts(&many.report) < 2 * full_counts(&one.report));
    }

    #[test]
    fn quantiles_are_monotone() {
        let data = uniform(100_000, 6);
        let res = quantiles(&data, 10, &SampleSelectConfig::default()).unwrap();
        assert_eq!(res.values.len(), 9);
        assert!(res.values.windows(2).all(|w| w[0] <= w[1]));
        // middle quantile is the median
        assert_eq!(res.values[4], reference_select(&data, 50_000).unwrap());
    }

    #[test]
    fn duplicate_heavy_input_with_many_ranks() {
        let mut rng = SplitMix64::new(7);
        let data: Vec<f32> = (0..100_000)
            .map(|_| (rng.next_below(8) as f32) * 1.25)
            .collect();
        check(&data, &[0, 10_000, 50_000, 90_000, 99_999]);
    }

    #[test]
    fn propagates_rank_errors() {
        let data = uniform(100, 8);
        let device = &mut Device::on_global_pool(v100());
        let err = multi_select_on_device(device, &data, &[5, 100], &SampleSelectConfig::default())
            .unwrap_err();
        assert!(matches!(err, SelectError::RankOutOfRange { .. }));
    }

    #[test]
    fn quantiles_rejects_degenerate_q_without_panicking() {
        // Pre-fix code asserted q >= 2 (a panic in a library path).
        let data = uniform(100, 9);
        let cfg = SampleSelectConfig::default();
        for q in [0, 1] {
            let err = quantiles(&data, q, &cfg).unwrap_err();
            assert!(
                matches!(err, SelectError::InvalidArgument { .. }),
                "q={q}: got {err}"
            );
        }
    }

    #[test]
    fn quantiles_rejects_q_above_n() {
        // Pre-fix code clamped the ranks, silently returning duplicate
        // "quantiles"; the server-side admission bound is 2 <= q <= n.
        let data = uniform(10, 10);
        let err = quantiles(&data, 11, &SampleSelectConfig::default()).unwrap_err();
        match err {
            SelectError::InvalidArgument { what } => {
                assert!(what.contains("11"), "unexpected message: {what}")
            }
            other => panic!("expected InvalidArgument, got {other}"),
        }
    }

    #[test]
    fn quantiles_of_empty_input_is_empty_input_error() {
        let err = quantiles::<f32>(&[], 4, &SampleSelectConfig::default()).unwrap_err();
        assert_eq!(err, SelectError::EmptyInput);
    }

    #[test]
    fn quantile_ranks_are_strictly_increasing_over_valid_domain() {
        for n in [2usize, 3, 7, 100, 1017] {
            for q in [2usize, 3, n / 2 + 1, n]
                .iter()
                .filter(|&&q| (2..=n).contains(&q))
            {
                let ranks = quantile_ranks(n, *q).unwrap();
                assert_eq!(ranks.len(), q - 1, "n={n} q={q}");
                assert!(
                    ranks.windows(2).all(|w| w[0] < w[1]),
                    "duplicate ranks for n={n} q={q}: {ranks:?}"
                );
                assert!(*ranks.last().unwrap() < n);
            }
        }
    }
}
