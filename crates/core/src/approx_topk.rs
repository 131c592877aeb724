//! Bucketed approximate top-k ("Approximate Top-k for Increased
//! Parallelism", PAPERS.md).
//!
//! The exact fused top-k recursion ([`crate::topk`]) synchronizes
//! globally at every level: one splitter sample, one count, one filter
//! over the whole input. The approximate variant trades a bounded
//! recall loss for bucket-level parallelism:
//!
//! 1. partition the input into `b` disjoint buckets (contiguous,
//!    zero-copy slices);
//! 2. run the *local* fused top-`k'` recursion independently per bucket
//!    — no cross-bucket synchronization, so the buckets execute
//!    concurrently and the local phase's critical path is the slowest
//!    bucket, not the sum;
//! 3. union the `b · k'` candidates and finish with **one** exact
//!    fused top-k pass over the (much smaller) union.
//!
//! Recall loss happens exactly when some bucket holds more than `k'` of
//! the true top-k: the surplus never reaches the union. For an input in
//! exchangeable order the count of true top-k elements landing in one
//! bucket is `X ~ Binomial(k, 1/b)`, and the expected recall is
//!
//! ```text
//!   E[recall] = (b / k) · E[min(X, k')] = 1 − (b / k) · E[(X − k')⁺]
//! ```
//!
//! — the paper's binomial model, computed exactly (in log space) by
//! [`expected_recall`]. The `k'/k` **oversampling factor** is the
//! recall-vs-speed knob: `k' = k/b` is the fastest (and loses the most),
//! `k' = k` per bucket can never lose an element. [`plan_for_recall`]
//! inverts the model: given a recall target it returns the smallest
//! `k'` that meets it.
//!
//! The model assumes the input order carries no rank information
//! (exchangeability). Adversarially sorted inputs concentrate the top-k
//! in one bucket and the analytic estimate does not apply — which is
//! why [`measure_recall`] exists and the `recallsweep` bench reports
//! measured recall next to the analytic estimate for every grid point.
//!
//! Exact mode (`b = 1`, `k' ≥ k`) skips the finish pass and is
//! bit-identical to [`crate::topk::top_k_largest`] — pinned by a
//! property test.

use crate::element::SelectElement;
use crate::instrument::SelectReport;
use crate::obs::{self, Counter};
use crate::params::SampleSelectConfig;
use crate::recursion::fused_with_workspace;
use crate::topk::TopKResult;
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::{Device, SimTime};

/// Shape of one approximate top-k run: how many buckets, and how many
/// candidates each contributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxTopKConfig {
    /// Disjoint buckets the input is partitioned into. `1` disables the
    /// approximation (single bucket, exact recursion).
    pub buckets: usize,
    /// The `k'/(k/b)` oversampling factor: each bucket keeps
    /// `k' = ceil(oversample · k / b)` local winners. `1.0` is the
    /// fastest setting; larger values trade speed for recall.
    pub oversample: f64,
}

impl Default for ApproxTopKConfig {
    fn default() -> Self {
        Self {
            buckets: 16,
            oversample: 1.25,
        }
    }
}

impl ApproxTopKConfig {
    /// The per-bucket candidate count `k'` this config implies for a
    /// `k`-element query (before the union-coverage adjustment).
    pub fn k_prime(&self, k: usize) -> usize {
        let per = (self.oversample * k as f64 / self.buckets as f64).ceil();
        (per as usize).max(1)
    }

    /// Validate the knobs: at least one bucket, oversample ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.buckets == 0 {
            return Err("approx top-k needs at least one bucket".to_string());
        }
        if self.oversample.is_nan() || self.oversample < 1.0 {
            return Err(format!(
                "oversample factor {} must be >= 1 (k' may not undercut k/b)",
                self.oversample
            ));
        }
        Ok(())
    }
}

/// Result of one approximate top-k extraction.
#[derive(Debug, Clone)]
pub struct ApproxTopKResult<T> {
    /// `k` candidate elements, in no particular order. A subset of the
    /// true top-k with probability given by the binomial model; exact
    /// when `buckets == 1` or `k' ≥ k`.
    pub elements: Vec<T>,
    /// The smallest element of the returned set (the *approximate*
    /// top-k threshold).
    pub threshold: T,
    /// Buckets the input was partitioned into.
    pub buckets: usize,
    /// Per-bucket candidate count actually used (after the
    /// union-coverage adjustment that guarantees `Σ min(k', mⱼ) ≥ k`).
    pub k_prime: usize,
    /// Analytic expected recall from the binomial model, for the shape
    /// that actually ran.
    pub expected_recall: f64,
    /// Measured recall against the exact top-k, when the caller asked
    /// for verification ([`measure_recall`] fills it in).
    pub measured_recall: Option<f64>,
    /// Critical-path time of the local phase: the *slowest* bucket's
    /// recursion (buckets run concurrently).
    pub local_time: SimTime,
    /// Time of the exact finish pass over the candidate union.
    pub finish_time: SimTime,
    /// Combined report. `total_time` is the critical path
    /// (`local_time + finish_time`), not the serial sum of bucket work.
    pub report: SelectReport,
}

// ---------------------------------------------------------------------
// Binomial recall model
// ---------------------------------------------------------------------

/// Expected recall of bucketed approximate top-k under the binomial
/// model: `k` true winners thrown independently into `b` equal buckets,
/// each bucket keeping at most `k_prime` of them.
///
/// Computed as `1 − (b/k) · E[(X − k')⁺]` with `X ~ Binomial(k, 1/b)`,
/// exactly, by accumulating the probability mass in log space (the
/// usual `(1−p)^k` starting point underflows long before the k ~ 10⁶
/// sizes the benches run).
pub fn expected_recall(k: usize, buckets: usize, k_prime: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if buckets <= 1 || k_prime >= k {
        // One bucket keeps min(k', k) winners; k' >= k keeps them all.
        return (k_prime.min(k) as f64) / k as f64;
    }
    let p = 1.0 / buckets as f64;
    let log_ratio = (p / (1.0 - p)).ln();
    let mut log_pmf = k as f64 * (1.0 - p).ln(); // ln P(X = 0)
    let mut excess = 0.0f64; // E[(X - k')^+]
    for i in 1..=k {
        log_pmf += ((k - i + 1) as f64 / i as f64).ln() + log_ratio;
        if i > k_prime {
            let term = (i - k_prime) as f64 * log_pmf.exp();
            excess += term;
            // The pmf is unimodal: once past the mean and contributing
            // nothing at double precision, later terms never will.
            if i as f64 > k as f64 * p && term < excess * 1e-16 + f64::MIN_POSITIVE {
                break;
            }
        }
    }
    (1.0 - (buckets as f64 / k as f64) * excess).clamp(0.0, 1.0)
}

/// Invert the binomial model: the smallest `k'` whose expected recall
/// meets `target` for a `k`-element query over `buckets` buckets.
pub fn k_prime_for_recall(k: usize, buckets: usize, target: f64) -> usize {
    let floor = k.div_ceil(buckets.max(1));
    if buckets <= 1 {
        return k;
    }
    let target = target.clamp(0.0, 1.0);
    // Expected recall is monotone in k': binary search [ceil(k/b), k].
    let (mut lo, mut hi) = (floor, k);
    if expected_recall(k, buckets, lo) >= target {
        return lo;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if expected_recall(k, buckets, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Plan a config for a recall target: pick a bucket count from the
/// input size (each bucket should stay recursion-worthy), then the
/// smallest `k'` meeting the target. Returns the config and its
/// analytic expected recall.
pub fn plan_for_recall(n: usize, k: usize, target: f64) -> (ApproxTopKConfig, f64) {
    // Buckets of ~64Ki elements keep the local recursions non-trivial;
    // never more buckets than elements, never fewer than one.
    let buckets = (n / (64 * 1024)).clamp(1, 64).min(n.max(1));
    let k_prime = k_prime_for_recall(k, buckets, target);
    let per_bucket = (k as f64 / buckets as f64).max(f64::MIN_POSITIVE);
    let cfg = ApproxTopKConfig {
        buckets,
        oversample: (k_prime as f64 / per_bucket).max(1.0),
    };
    (cfg, expected_recall(k, buckets, k_prime))
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Bucket boundary `i` of `b` even contiguous buckets over `n`
/// elements (same arithmetic as `ShardTopology::even`).
fn bucket_bound(n: usize, b: usize, i: usize) -> usize {
    ((i as u64 * n as u64) / b as u64) as usize
}

/// [`approx_top_k_on_device`] with a reusable workspace: the resilient
/// driver passes a `selectd` worker's.
pub(crate) fn approx_top_k_with_workspace<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    acfg: &ApproxTopKConfig,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
) -> Result<ApproxTopKResult<T>, SelectError> {
    acfg.validate()
        .map_err(|what| SelectError::InvalidArgument { what })?;
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    let n = data.len();
    if k == 0 || k > n {
        return Err(SelectError::RankOutOfRange { rank: k, len: n });
    }
    obs::counter_add(Counter::ApproxTopkQueries, 1);

    // Never more buckets than elements; a bucket must be non-empty.
    let b = acfg.buckets.min(n);
    let mut k_prime = acfg.k_prime(k).min(n);

    // Union coverage: the candidate union must hold at least k
    // elements. Σ min(k', m_j) is monotone in k' and reaches n ≥ k at
    // k' = max m_j, so the smallest sufficient k' exists.
    let bucket_len = |j: usize| bucket_bound(n, b, j + 1) - bucket_bound(n, b, j);
    let union_size = |kp: usize| -> usize { (0..b).map(|j| bucket_len(j).min(kp)).sum() };
    while union_size(k_prime) < k {
        k_prime += 1;
    }

    let exact_mode = b == 1 || k_prime >= k;

    // Local phase: one independent device per bucket (they share no
    // state, model them as concurrent). The workspace is reused
    // sequentially — element buffers carry no device affinity.
    let mut union: Vec<T> = Vec::with_capacity(union_size(k_prime));
    let mut local_time = SimTime::ZERO;
    let mut local_levels = 0u32;
    let mut local_report: Option<SelectReport> = None;
    for j in 0..b {
        let slice = &data[bucket_bound(n, b, j)..bucket_bound(n, b, j + 1)];
        let kj = k_prime.min(slice.len());
        if kj == 0 {
            continue;
        }
        let mut bucket_device = Device::on_global_pool(device.arch().clone());
        let TopKResult {
            elements, report, ..
        } = fused_with_workspace(&mut bucket_device, slice, kj, true, cfg, ws)?;
        local_time = local_time.max(report.total_time);
        local_levels = local_levels.max(report.levels);
        union.extend_from_slice(&elements);
        local_report = Some(report);
    }
    debug_assert!(union.len() >= k);

    // The coordinator waited for the slowest bucket.
    device.advance_time(local_time);

    if exact_mode {
        // b = 1 (or k' ≥ k over one bucket): the single local pass IS
        // the exact answer — bit-identical to `top_k_largest`, no
        // finish pass to reorder or recompute anything.
        let report = local_report.expect("at least one non-empty bucket");
        let threshold = min_element(&union);
        return Ok(ApproxTopKResult {
            elements: union,
            threshold,
            buckets: b,
            k_prime,
            expected_recall: 1.0,
            measured_recall: None,
            local_time,
            finish_time: SimTime::ZERO,
            report,
        });
    }

    // Finish: one exact fused top-k over the candidate union.
    let TopKResult {
        elements,
        threshold,
        report: finish_report,
    } = fused_with_workspace(device, &union, k, true, cfg, ws)?;
    let finish_time = finish_report.total_time;

    let mut report = finish_report;
    report.algorithm = "approx-topk";
    report.n = n;
    report.levels += local_levels;
    report.total_time += local_time;

    Ok(ApproxTopKResult {
        elements,
        threshold,
        buckets: b,
        k_prime,
        expected_recall: expected_recall(k, b, k_prime),
        measured_recall: None,
        local_time,
        finish_time,
        report,
    })
}

/// Approximate top-k extraction on a simulated device.
///
/// The `b` local recursions are independent (no shared state, no
/// cross-bucket barrier), so each runs on its own device timeline and
/// the coordinator clock advances by the *maximum* bucket time — the
/// paper's parallelism argument, made explicit in simulated time. The
/// exact finish pass then runs on `device` itself.
pub fn approx_top_k_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    acfg: &ApproxTopKConfig,
    cfg: &SampleSelectConfig,
) -> Result<ApproxTopKResult<T>, SelectError> {
    approx_top_k_with_workspace(device, data, k, acfg, cfg, &mut SelectWorkspace::new())
}

fn min_element<T: SelectElement>(xs: &[T]) -> T {
    let mut it = xs.iter().copied();
    let first = it.next().expect("non-empty candidate set");
    it.fold(first, |m, x| if x.lt(m) { x } else { m })
}

/// Measure the recall of an approximate result against the exact top-k
/// of `data`: the multiset-intersection size (on sort keys) divided by
/// `k`. Fills `measured_recall` in and also returns it.
///
/// Host-side and O(n log n) — verification, not the serving path.
pub fn measure_recall<T: SelectElement>(data: &[T], result: &mut ApproxTopKResult<T>) -> f64 {
    let k = result.elements.len();
    if k == 0 {
        result.measured_recall = Some(1.0);
        return 1.0;
    }
    let mut keys: Vec<u64> = data.iter().map(|x| x.to_sort_key()).collect();
    keys.sort_unstable();
    let mut truth = keys.split_off(keys.len() - k);
    let mut got: Vec<u64> = result.elements.iter().map(|x| x.to_sort_key()).collect();
    got.sort_unstable();
    truth.sort_unstable();
    // Two-pointer multiset intersection.
    let (mut i, mut j, mut hits) = (0usize, 0usize, 0usize);
    while i < truth.len() && j < got.len() {
        match truth[i].cmp(&got[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                hits += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let recall = hits as f64 / k as f64;
    result.measured_recall = Some(recall);
    recall
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::sort_elements;
    use crate::rng::SplitMix64;
    use crate::topk::top_k_largest_on_device;
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    #[test]
    fn binomial_model_boundary_values() {
        // k' = k loses nothing; k' = 0 loses everything (up to float
        // rounding in the excess accumulation).
        assert_eq!(expected_recall(100, 8, 100), 1.0);
        assert!(expected_recall(100, 8, 0) < 1e-9);
        // One bucket keeping k' of k winners: recall = k'/k exactly.
        assert!((expected_recall(100, 1, 60) - 0.6).abs() < 1e-12);
        // k = 0 is vacuously perfect.
        assert_eq!(expected_recall(0, 8, 1), 1.0);
    }

    #[test]
    fn binomial_model_matches_direct_summation() {
        // Small case checked against a direct f64 binomial sum.
        let (k, b, kp) = (20usize, 4usize, 7usize);
        let p = 1.0 / b as f64;
        let mut direct = 0.0;
        for i in 0..=k {
            let mut choose = 1.0f64;
            for t in 0..i {
                choose *= (k - t) as f64 / (t + 1) as f64;
            }
            let pmf = choose * p.powi(i as i32) * (1.0 - p).powi((k - i) as i32);
            direct += (i.min(kp)) as f64 * pmf;
        }
        direct *= b as f64 / k as f64;
        assert!((expected_recall(k, b, kp) - direct).abs() < 1e-9);
    }

    #[test]
    fn binomial_model_survives_large_k_without_underflow() {
        // (1-p)^k underflows at this size; the log-space walk must not.
        let r = expected_recall(1_000_000, 16, 80_000);
        assert!(r > 0.9 && r <= 1.0, "recall {r} out of range");
        // More oversampling never hurts.
        let r2 = expected_recall(1_000_000, 16, 100_000);
        assert!(r2 >= r);
    }

    #[test]
    fn recall_inversion_is_minimal() {
        for &(k, b, target) in &[(1000usize, 8usize, 0.95f64), (5000, 16, 0.99), (64, 4, 0.9)] {
            let kp = k_prime_for_recall(k, b, target);
            assert!(expected_recall(k, b, kp) >= target);
            if kp > k.div_ceil(b) {
                assert!(
                    expected_recall(k, b, kp - 1) < target,
                    "k'={kp} not minimal for k={k} b={b} target={target}"
                );
            }
        }
    }

    #[test]
    fn approx_topk_meets_its_analytic_recall_on_random_data() {
        let pool = ThreadPool::new(4);
        let data = uniform(400_000, 11);
        let cfg = SampleSelectConfig::default();
        for (buckets, oversample) in [(8usize, 2.0f64), (16, 2.0), (8, 3.0)] {
            let acfg = ApproxTopKConfig {
                buckets,
                oversample,
            };
            let mut device = Device::new(v100(), &pool);
            let mut res = approx_top_k_on_device(&mut device, &data, 10_000, &acfg, &cfg).unwrap();
            assert_eq!(res.elements.len(), 10_000);
            let measured = measure_recall(&data, &mut res);
            // A single deterministic draw sits near the analytic mean;
            // allow a small concentration band below it.
            assert!(
                measured >= res.expected_recall - 0.02,
                "b={buckets} os={oversample}: measured {measured} vs expected {}",
                res.expected_recall
            );
        }
    }

    #[test]
    fn exact_mode_is_bit_identical_to_top_k_largest() {
        let pool = ThreadPool::new(2);
        let data = uniform(120_000, 5);
        let cfg = SampleSelectConfig::default();
        let acfg = ApproxTopKConfig {
            buckets: 1,
            oversample: 1.0,
        };
        for k in [1usize, 777, 60_000] {
            let mut d1 = Device::new(v100(), &pool);
            let exact = top_k_largest_on_device(&mut d1, &data, k, &cfg).unwrap();
            let mut d2 = Device::new(v100(), &pool);
            let approx = approx_top_k_on_device(&mut d2, &data, k, &acfg, &cfg).unwrap();
            let a: Vec<u32> = exact.elements.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = approx.elements.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "k={k}: exact mode must be bit-identical");
            assert_eq!(exact.threshold.to_bits(), approx.threshold.to_bits());
            assert_eq!(approx.expected_recall, 1.0);
        }
    }

    #[test]
    fn approximate_run_beats_exact_at_large_k() {
        // The per-recursion fixed cost (launch overheads + splitter
        // sample) means the two-phase approximate run only wins once
        // the linear term dominates — i.e. at the multi-million-element
        // large-k shapes the workload targets.
        let pool = ThreadPool::new(4);
        let data = uniform(2_400_000, 3);
        let cfg = SampleSelectConfig::default();
        let k = 600_000;
        let mut d1 = Device::new(v100(), &pool);
        let exact = top_k_largest_on_device(&mut d1, &data, k, &cfg).unwrap();
        let mut d2 = Device::new(v100(), &pool);
        // Binomial concentration at this k: a bucket's true-winner
        // count has σ/mean ≈ 0.5%, so 5% oversampling already puts k'
        // ten σ above the mean — recall ≈ 1 at a fraction of the
        // candidate-union (and finish-pass) cost.
        let acfg = ApproxTopKConfig {
            buckets: 16,
            oversample: 1.05,
        };
        let mut approx = approx_top_k_on_device(&mut d2, &data, k, &acfg, &cfg).unwrap();
        assert!(
            approx.report.total_time < exact.report.total_time,
            "approx {:?} must beat exact {:?} at k = {k}",
            approx.report.total_time,
            exact.report.total_time
        );
        assert_eq!(approx.elements.len(), k);
        assert!(approx.expected_recall > 0.999);
        assert!(measure_recall(&data, &mut approx) > 0.999);
    }

    #[test]
    fn tiny_inputs_and_degenerate_shapes() {
        let cfg = SampleSelectConfig::default();
        // More buckets than elements: clamped, still exact coverage.
        let data = vec![3.0f32, 1.0, 2.0];
        let acfg = ApproxTopKConfig {
            buckets: 64,
            oversample: 1.0,
        };
        let mut res =
            approx_top_k_on_device(&mut Device::on_global_pool(v100()), &data, 2, &acfg, &cfg)
                .unwrap();
        let mut got: Vec<f32> = res.elements.clone();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(got, vec![2.0, 3.0]);
        assert_eq!(measure_recall(&data, &mut res), 1.0);
        // k = n returns everything.
        let mut res =
            approx_top_k_on_device(&mut Device::on_global_pool(v100()), &data, 3, &acfg, &cfg)
                .unwrap();
        let mut sorted = data.clone();
        sort_elements(&mut sorted);
        let mut got = res.elements.clone();
        sort_elements(&mut got);
        assert_eq!(got, sorted);
        assert_eq!(measure_recall(&data, &mut res), 1.0);
        // Invalid k.
        assert!(matches!(
            approx_top_k_on_device(&mut Device::on_global_pool(v100()), &data, 0, &acfg, &cfg),
            Err(SelectError::RankOutOfRange { .. })
        ));
        assert!(matches!(
            approx_top_k_on_device(&mut Device::on_global_pool(v100()), &data, 4, &acfg, &cfg),
            Err(SelectError::RankOutOfRange { .. })
        ));
        // Invalid knobs.
        let bad = ApproxTopKConfig {
            buckets: 0,
            oversample: 1.0,
        };
        assert!(matches!(
            approx_top_k_on_device(&mut Device::on_global_pool(v100()), &data, 1, &bad, &cfg),
            Err(SelectError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn planned_config_meets_target_end_to_end() {
        let pool = ThreadPool::new(4);
        let data = uniform(300_000, 21);
        let cfg = SampleSelectConfig::default();
        let (acfg, expected) = plan_for_recall(data.len(), 20_000, 0.98);
        assert!(expected >= 0.98);
        let mut device = Device::new(v100(), &pool);
        let mut res = approx_top_k_on_device(&mut device, &data, 20_000, &acfg, &cfg).unwrap();
        let measured = measure_recall(&data, &mut res);
        assert!(
            measured >= 0.96,
            "planned shape {acfg:?} measured recall {measured}"
        );
    }
}
