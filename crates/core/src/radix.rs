//! Production MSD RadixSelect (Alabi et al. 2012, §III/\[10\]): most
//! significant-digit radix bucketing over the binary key representation,
//! and the repo's only RadixSelect: it is both the §V-D comparator the
//! `robustness` bench runs and a first-class backend of the planner.
//!
//! Each level histograms one 8-bit digit of the (order-preserving) sort
//! key, starting from the most significant, and recurses into the digit
//! bucket containing the target rank. The recursion depth is
//! **data-independent** — at most `key_bits / 8` passes, but never fewer
//! either: the paper's key comparison is that SampleSelect reaches its
//! base case in ~2 data-dependent levels where radix methods burn a
//! fixed number of full passes. RadiK (PAPERS.md) shows the radix family
//! winning anyway at large k and under adversarial splitter regimes,
//! which is why the [`crate::planner`] treats this backend as a
//! first-class candidate instead of a strawman.
//!
//! RadixSelect is not a separate driver: it is the shared level loop of
//! [`crate::recursion`] with digit bucketing. This module supplies the
//! two pieces that differ from SampleSelect:
//!
//! * [`DigitClassifier`], the [`Classifier`] the one count kernel
//!   ([`crate::count::count_kernel_scoped`]) runs with: the bucket of an
//!   element is `(key >> shift) & 0xff`, charged as a shift and a mask
//!   with [`DIGIT_BITS`] ballots per aggregated warp, and the oracle is
//!   always one byte;
//! * its level preparation — the shift of the level's digit — and the
//!   early exit once every key bit is consumed.
//!
//! The level loop gives the backend everything else: the zero-alloc
//! warm path (scratch from the workspace, level buffers from the device
//! [`gpu_sim::BufferPool`]), the ABFT spot checks and unconditional
//! corruption guards, the `max_levels` / work-budget guards, and the
//! spans and gauges.

use crate::count::Classifier;
use crate::element::{fill_sort_keys32, fill_sort_keys64, SelectElement};
use crate::params::SampleSelectConfig;
use crate::recursion::{select_with_workspace, Bucketing};
use crate::workspace::SelectWorkspace;
use crate::{SelectError, SelectResult};
use gpu_sim::{Device, KernelCost};

/// Bits per radix digit (256 buckets, one oracle byte).
pub const DIGIT_BITS: u32 = 8;

/// Buckets per digit pass.
pub const RADIX_BUCKETS: usize = 1 << DIGIT_BITS;

/// Effective key width for a type: the number of bits that can differ.
pub fn key_bits<T: SelectElement>() -> u32 {
    (T::BYTES * 8) as u32
}

/// Digit passes a full radix recursion performs on `T` keys.
pub fn radix_passes<T: SelectElement>() -> u32 {
    key_bits::<T>().div_ceil(DIGIT_BITS)
}

/// Buckets elements by the 8-bit digit of their sort key at `shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigitClassifier {
    /// Bit offset of the digit within the sort key.
    pub shift: u32,
}

impl<T: SelectElement> Classifier<T> for DigitClassifier {
    fn kernel_name(&self, _write_oracles: bool) -> &'static str {
        "digit_count"
    }

    fn num_buckets(&self) -> usize {
        RADIX_BUCKETS
    }

    fn oracle_bytes(&self, _cfg: &SampleSelectConfig) -> usize {
        1
    }

    fn classify_warp(&self, warp: &[T], buckets: &mut [u32]) {
        // Lane-parallel sort-key conversion (the float transform carries
        // NaN/sign branches; the digit shift+mask that follows is
        // trivially vector-friendly).
        let shift = self.shift;
        let level = hpc_par::simd::simd_level();
        if T::BYTES == 4 {
            let mut keys = [0u32; 32];
            let keys = &mut keys[..warp.len()];
            fill_sort_keys32(warp, keys, level);
            for (b, &k) in buckets.iter_mut().zip(keys.iter()) {
                *b = (k >> shift) & 0xff;
            }
        } else {
            let mut keys = [0u64; 32];
            let keys = &mut keys[..warp.len()];
            fill_sort_keys64(warp, keys, level);
            for (b, &k) in buckets.iter_mut().zip(keys.iter()) {
                *b = ((k >> shift) & 0xff) as u32;
            }
        }
    }

    fn charge(&self, len: u64, cost: &mut KernelCost) {
        cost.int_ops += len * 2; // shift + mask
    }

    fn ballots_per_warp(&self) -> u64 {
        // One ballot per digit bit instead of the replay serialization
        // (Fig. 6 analogue).
        DIGIT_BITS as u64
    }
}

/// Exact RadixSelect on a simulated device: the `rank`-th smallest
/// element of `data` (0-based), with a fresh workspace.
pub fn radix_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<SelectResult<T>, SelectError> {
    select_with_workspace(
        device,
        data,
        rank,
        cfg,
        &mut SelectWorkspace::new(),
        Bucketing::Digits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::rng::SplitMix64;
    use gpu_sim::arch::v100;
    use gpu_sim::FaultPlan;
    use hpc_par::ThreadPool;

    fn select<T: SelectElement>(data: &[T], rank: usize) -> SelectResult<T> {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        radix_select_on_device(&mut device, data, rank, &SampleSelectConfig::default()).unwrap()
    }

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32 * 2.0 - 1.0).collect()
    }

    #[test]
    fn matches_reference_on_floats() {
        let data = uniform(100_000, 1);
        for rank in [0usize, 1, 50_000, 99_999] {
            assert_eq!(
                select(&data, rank).value,
                reference_select(&data, rank).unwrap(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn matches_reference_on_integers() {
        let mut rng = SplitMix64::new(2);
        let data: Vec<u32> = (0..80_000).map(|_| rng.next_u64() as u32).collect();
        assert_eq!(
            select(&data, 40_000).value,
            reference_select(&data, 40_000).unwrap()
        );
        let signed: Vec<i32> = (0..80_000).map(|_| rng.next_u64() as i32).collect();
        assert_eq!(
            select(&signed, 12_345).value,
            reference_select(&signed, 12_345).unwrap()
        );
    }

    #[test]
    fn depth_bounded_by_key_bytes() {
        let f32s = uniform(1 << 20, 3);
        let res = select(&f32s, 1 << 19);
        assert!(res.report.levels <= 4, "f32 levels = {}", res.report.levels);
        let mut rng = SplitMix64::new(4);
        let f64s: Vec<f64> = (0..500_000).map(|_| rng.next_f64()).collect();
        let res = select(&f64s, 250_000);
        assert!(res.report.levels <= 8, "f64 levels = {}", res.report.levels);
    }

    #[test]
    fn all_equal_input_exhausts_key_bits() {
        // Identical keys: every digit pass keeps everything, so the
        // recursion burns all 4 passes and exits on bit exhaustion.
        let data = vec![7.5f32; 20_000];
        let res = select(&data, 10_000);
        assert_eq!(res.value, 7.5);
        assert!(res.report.terminated_early);
        assert_eq!(res.report.levels, 4);
    }

    #[test]
    fn negative_floats_ordered_correctly() {
        let vals = [-3.0f32, -1.0, -2.0, 0.0, 2.0, 1.0, -0.5];
        let big: Vec<f32> = (0..50_000)
            .map(|i| vals[i % 7] + (i / 7) as f32 * 1e-7)
            .collect();
        assert_eq!(select(&big, 10).value, reference_select(&big, 10).unwrap());
    }

    #[test]
    fn report_contains_radix_kernels() {
        let data = uniform(200_000, 5);
        let res = select(&data, 100_000);
        assert_eq!(res.report.algorithm, "radixselect");
        for name in ["digit_count", "reduce", "filter", "base_sort"] {
            assert!(
                res.report.kernel_launches(name) > 0,
                "missing kernel {name}"
            );
        }
        assert_eq!(res.report.kernel_launches("sample"), 0);
    }

    #[test]
    fn workspace_path_is_bit_identical_to_fresh() {
        let data = uniform(150_000, 6);
        let rank = 75_000;
        let pool = ThreadPool::new(2);

        let cfg = SampleSelectConfig::default();
        let mut fresh_dev = Device::new(v100(), &pool);
        let fresh = radix_select_on_device(&mut fresh_dev, &data, rank, &cfg).unwrap();

        let mut pooled_dev = Device::new(v100(), &pool);
        pooled_dev.enable_buffer_pool();
        let mut ws: SelectWorkspace<f32> = SelectWorkspace::new();
        let mut run = || {
            let r = select_with_workspace(
                &mut pooled_dev,
                &data,
                rank,
                &cfg,
                &mut ws,
                Bucketing::Digits,
            );
            pooled_dev.reset();
            r.unwrap()
        };
        run();
        run();
        let pooled = run();

        assert_eq!(fresh.value.to_bits(), pooled.value.to_bits());
        assert_eq!(fresh.report.total_time, pooled.report.total_time);
        assert_eq!(fresh.report.levels, pooled.report.levels);
    }

    #[test]
    fn errors_propagate() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        assert_eq!(
            radix_select_on_device::<f32>(&mut device, &[], 0, &SampleSelectConfig::default())
                .unwrap_err(),
            SelectError::EmptyInput
        );
        assert_eq!(
            radix_select_on_device(&mut device, &[1.0f32], 1, &SampleSelectConfig::default())
                .unwrap_err(),
            SelectError::RankOutOfRange { rank: 1, len: 1 }
        );
    }

    #[test]
    fn max_levels_guard_trips_on_tight_cap() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(100_000, 9);
        let cfg = SampleSelectConfig::default().with_max_levels(0);
        assert_eq!(
            radix_select_on_device(&mut device, &data, 50_000, &cfg).unwrap_err(),
            SelectError::RecursionLimit
        );
        let cfg = SampleSelectConfig::default().with_max_levels(8);
        radix_select_on_device(&mut device, &data, 50_000, &cfg).unwrap();
    }

    #[test]
    fn work_budget_guard_trips_on_low_entropy_keys() {
        // Keys whose top three digits never differ: every early pass
        // keeps all n elements, so the scanned-work budget trips.
        let data: Vec<u32> = (0..50_000u32).map(|i| i % 251).collect();
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let cfg = SampleSelectConfig::default().with_work_budget_factor(1.5);
        assert_eq!(
            radix_select_on_device(&mut device, &data, 25_000, &cfg).unwrap_err(),
            SelectError::RecursionLimit
        );
        let cfg = SampleSelectConfig::default().with_work_budget_factor(8.0);
        let res = radix_select_on_device(&mut device, &data, 25_000, &cfg).unwrap();
        assert_eq!(res.value, reference_select(&data, 25_000).unwrap());
    }

    #[test]
    fn spot_checks_catch_injected_histogram_corruption() {
        use crate::verify::VerifyPolicy;
        let data = uniform(100_000, 11);
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        // Corruptible-access index 0 is the level-0 `counts` buffer
        // (radix draws no splitter sample, so counts materialize first).
        device.set_fault_plan(FaultPlan::new(7).corrupt_accesses_at(&[0]));
        let cfg = SampleSelectConfig::default().with_verify(VerifyPolicy::Spot);
        let err = radix_select_on_device(&mut device, &data, 50_000, &cfg).unwrap_err();
        assert!(
            matches!(err, SelectError::Corruption { .. }),
            "expected corruption, got {err:?}"
        );
    }
}
