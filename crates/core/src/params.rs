//! Tuning parameters and configuration (§IV-H of the paper).
//!
//! Every knob the paper lists — work distribution, sample size, number
//! of buckets, unrolling, atomic strategy, base-case size — is a field
//! of [`SampleSelectConfig`], so the Fig. 7 parameter-tuning sweeps are
//! plain loops over configurations.

use crate::verify::VerifyPolicy;
use gpu_sim::arch::GpuArchitecture;

/// Where the bucket counters live (§IV-G): per-block shared-memory
/// counters followed by a reduction, or device-wide global-memory
/// counters updated directly.
///
/// The paper's plot labels `-s` and `-g` correspond to `Shared` and
/// `Global`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicScope {
    /// Block-local counters in shared memory + `reduce` kernel.
    Shared,
    /// One global counter array updated by every thread.
    Global,
}

impl AtomicScope {
    /// The suffix used in the paper's figures ("sample-s", "quick-g", …).
    pub fn suffix(self) -> &'static str {
        match self {
            AtomicScope::Shared => "s",
            AtomicScope::Global => "g",
        }
    }
}

/// Errors from configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Bucket count must be a power of two in `4..=1024` (the implicit
    /// search tree requires a complete binary tree).
    InvalidBucketCount(usize),
    /// Threads per block must be a positive multiple of 32, at most 1024.
    InvalidThreadsPerBlock(u32),
    /// Items per thread (unrolling depth) must be in `1..=16`.
    InvalidItemsPerThread(u32),
    /// Oversampling factor must be at least 1.
    InvalidOversampling(usize),
    /// Base case must be at least 2 elements.
    InvalidBaseCase(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidBucketCount(b) => {
                write!(f, "bucket count {b} is not a power of two in 4..=1024")
            }
            ConfigError::InvalidThreadsPerBlock(t) => {
                write!(
                    f,
                    "threads per block {t} is not a multiple of 32 in 32..=1024"
                )
            }
            ConfigError::InvalidItemsPerThread(i) => {
                write!(f, "items per thread {i} outside 1..=16")
            }
            ConfigError::InvalidOversampling(s) => {
                write!(f, "oversampling factor {s} must be >= 1")
            }
            ConfigError::InvalidBaseCase(b) => write!(f, "base case size {b} must be >= 2"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Upper bound on grid size; larger inputs are covered grid-stride.
/// Bounds the per-block partial-count array of the two-pass scheme.
const MAX_GRID_BLOCKS: u32 = 4096;

/// Full configuration of the SampleSelect (and QuickSelect) drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSelectConfig {
    /// Number of buckets `b` per recursion level (power of two). The
    /// paper's default/fastest exact configuration uses 256 (one oracle
    /// byte); the approximate variant benefits from up to 1024 (§V-G).
    /// Above 256, exact selection stores 2-byte oracles
    /// ([`SampleSelectConfig::oracle_bytes`]), an extension of the
    /// paper's one-byte design.
    pub num_buckets: usize,
    /// Splitters are the `i/b` percentiles of a sample of
    /// `oversampling * num_buckets` elements (§II-B: sample size
    /// controls splitter imbalance).
    pub oversampling: usize,
    /// Threads per block of the data-parallel kernels (Fig. 7 sweeps
    /// 256/512/1024).
    pub threads_per_block: u32,
    /// Elements processed per thread — the unrolling depth of §IV-H(d)
    /// (Fig. 7 sweeps 2/4/8).
    pub items_per_thread: u32,
    /// Shared vs. global atomic counters (§IV-G).
    pub atomic_scope: AtomicScope,
    /// Warp-aggregated atomics (Fig. 6 / §IV-G): one atomic per distinct
    /// bucket per warp instead of one per thread.
    pub warp_aggregation: bool,
    /// Input size below which the driver switches to the bitonic
    /// sorting-based selection (§IV-H(f)).
    pub base_case_size: usize,
    /// Reject inputs containing NaN before running (costs one scan).
    pub check_input: bool,
    /// Seed for the splitter-sampling RNG (fixed for reproducibility;
    /// vary per repetition in benchmarks).
    pub seed: u64,
    /// Cap on recursion levels before the driver gives up with
    /// [`crate::SelectError::RecursionLimit`]. `None` uses the
    /// algorithm's own default (64 for SampleSelect, 512 for
    /// QuickSelect). Under the resilient driver a tripped cap triggers a
    /// backend fallback instead of an error.
    pub max_levels: Option<u32>,
    /// Work budget as a multiple of `n`: once the cumulative elements
    /// processed across recursion levels exceed `factor * n`, the driver
    /// stops with [`crate::SelectError::RecursionLimit`]. `None` means
    /// unlimited. A healthy run processes ~`n * (1 + 1/b + ...)` ≈ `1.1n`
    /// elements, so factors of 2–4 only trip on degenerate recursions.
    pub work_budget_factor: Option<f64>,
    /// Algorithm-based fault-tolerance level (see [`crate::verify`]):
    /// `Off` (default) runs no integrity checks, `Spot` checks the cheap
    /// per-level invariants, `Paranoid` additionally certifies the final
    /// result with one O(n) rank-counting pass.
    pub verify: VerifyPolicy,
    /// Streaming driver only: overlap loading chunk `c + 1` with the
    /// count/filter passes over chunk `c` (double buffering on the host
    /// thread pool). Functionally bit-identical with the setting off;
    /// only wall-clock time changes.
    pub stream_prefetch: bool,
}

impl Default for SampleSelectConfig {
    fn default() -> Self {
        Self {
            num_buckets: 256,
            oversampling: 4,
            threads_per_block: 256,
            items_per_thread: 4,
            atomic_scope: AtomicScope::Shared,
            warp_aggregation: false,
            base_case_size: 1024,
            check_input: false,
            seed: 0x5eed_5e1ec7,
            max_levels: None,
            work_budget_factor: None,
            verify: VerifyPolicy::Off,
            stream_prefetch: true,
        }
    }
}

impl SampleSelectConfig {
    /// The configuration the paper found fastest for a given
    /// architecture (§V-C/§V-E): Kepler favours global atomics with warp
    /// aggregation; Maxwell+ favours native shared atomics without.
    pub fn tuned_for(arch: &GpuArchitecture) -> Self {
        let mut cfg = Self::default();
        if arch.generation.has_native_shared_atomics() {
            cfg.atomic_scope = AtomicScope::Shared;
            cfg.warp_aggregation = false;
        } else {
            cfg.atomic_scope = AtomicScope::Global;
            cfg.warp_aggregation = true;
        }
        cfg
    }

    /// Total sample size drawn by the sample kernel.
    pub fn sample_size(&self) -> usize {
        self.num_buckets * self.oversampling
    }

    /// Number of splitters (`b - 1`).
    pub fn num_splitters(&self) -> usize {
        self.num_buckets - 1
    }

    /// Search-tree height `log2(b)` (Fig. 4's `tree_height`).
    pub fn tree_height(&self) -> u32 {
        self.num_buckets.trailing_zeros()
    }

    /// Bytes per stored oracle: 1 up to 256 buckets, 2 above.
    pub fn oracle_bytes(&self) -> usize {
        if self.num_buckets > 256 {
            2
        } else {
            1
        }
    }

    /// Validate the configuration. The oracle width follows the bucket
    /// count, so every driver accepts up to 1024 buckets (§V-G).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let b = self.num_buckets;
        if !b.is_power_of_two() || !(4..=1024).contains(&b) {
            return Err(ConfigError::InvalidBucketCount(b));
        }
        let t = self.threads_per_block;
        if t == 0 || !t.is_multiple_of(32) || t > 1024 {
            return Err(ConfigError::InvalidThreadsPerBlock(t));
        }
        if !(1..=16).contains(&self.items_per_thread) {
            return Err(ConfigError::InvalidItemsPerThread(self.items_per_thread));
        }
        if self.oversampling == 0 {
            return Err(ConfigError::InvalidOversampling(self.oversampling));
        }
        if self.base_case_size < 2 {
            return Err(ConfigError::InvalidBaseCase(self.base_case_size));
        }
        Ok(())
    }

    /// Shared-memory bytes one block of the count kernel needs: the
    /// implicit search tree (`b-1` nodes of `elem_bytes`) plus `b`
    /// 4-byte counters (only under [`AtomicScope::Shared`]).
    pub fn count_kernel_smem_bytes(&self, elem_bytes: usize) -> u32 {
        let tree = self.num_splitters() * elem_bytes;
        let counters = match self.atomic_scope {
            AtomicScope::Shared => self.num_buckets * 4,
            AtomicScope::Global => 0,
        };
        (tree + counters) as u32
    }

    /// Grid for an `n`-element data-parallel pass.
    pub fn launch_config(&self, n: usize, elem_bytes: usize) -> gpu_sim::LaunchConfig {
        let mut cfg = gpu_sim::LaunchConfig::for_elements(
            n,
            self.threads_per_block,
            self.items_per_thread,
            self.count_kernel_smem_bytes(elem_bytes),
        );
        cfg.blocks = cfg.blocks.min(MAX_GRID_BLOCKS);
        cfg
    }
}

/// Builder-style helpers for the sweeps in the benchmark harness.
impl SampleSelectConfig {
    pub fn with_buckets(mut self, b: usize) -> Self {
        self.num_buckets = b;
        self
    }

    pub fn with_threads(mut self, t: u32) -> Self {
        self.threads_per_block = t;
        self
    }

    pub fn with_items_per_thread(mut self, i: u32) -> Self {
        self.items_per_thread = i;
        self
    }

    pub fn with_atomic_scope(mut self, scope: AtomicScope) -> Self {
        self.atomic_scope = scope;
        self
    }

    pub fn with_warp_aggregation(mut self, on: bool) -> Self {
        self.warp_aggregation = on;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_oversampling(mut self, s: usize) -> Self {
        self.oversampling = s;
        self
    }

    pub fn with_base_case(mut self, b: usize) -> Self {
        self.base_case_size = b;
        self
    }

    pub fn with_max_levels(mut self, levels: u32) -> Self {
        self.max_levels = Some(levels);
        self
    }

    pub fn with_work_budget_factor(mut self, factor: f64) -> Self {
        self.work_budget_factor = Some(factor);
        self
    }

    pub fn with_verify(mut self, policy: VerifyPolicy) -> Self {
        self.verify = policy;
        self
    }

    pub fn with_stream_prefetch(mut self, on: bool) -> Self {
        self.stream_prefetch = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::arch::{k20xm, v100};

    #[test]
    fn default_config_is_valid() {
        SampleSelectConfig::default().validate().unwrap();
    }

    #[test]
    fn tuned_configs_follow_the_paper() {
        let k = SampleSelectConfig::tuned_for(&k20xm());
        assert_eq!(k.atomic_scope, AtomicScope::Global);
        assert!(k.warp_aggregation);
        let v = SampleSelectConfig::tuned_for(&v100());
        assert_eq!(v.atomic_scope, AtomicScope::Shared);
        assert!(!v.warp_aggregation);
    }

    #[test]
    fn non_power_of_two_buckets_rejected() {
        let cfg = SampleSelectConfig::default().with_buckets(100);
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidBucketCount(100)));
    }

    #[test]
    fn bucket_range_enforced() {
        assert!(SampleSelectConfig::default()
            .with_buckets(2)
            .validate()
            .is_err());
        assert!(SampleSelectConfig::default()
            .with_buckets(2048)
            .validate()
            .is_err());
        assert!(SampleSelectConfig::default()
            .with_buckets(4)
            .validate()
            .is_ok());
    }

    #[test]
    fn oracle_width_tracks_bucket_count() {
        assert_eq!(SampleSelectConfig::default().oracle_bytes(), 1);
        assert_eq!(
            SampleSelectConfig::default()
                .with_buckets(512)
                .oracle_bytes(),
            2
        );
    }

    #[test]
    fn thread_count_must_be_warp_multiple() {
        let cfg = SampleSelectConfig::default().with_threads(100);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidThreadsPerBlock(100))
        ));
        assert!(SampleSelectConfig::default()
            .with_threads(0)
            .validate()
            .is_err());
        assert!(SampleSelectConfig::default()
            .with_threads(1024)
            .validate()
            .is_ok());
    }

    #[test]
    fn derived_quantities() {
        let cfg = SampleSelectConfig::default();
        assert_eq!(cfg.sample_size(), 1024);
        assert_eq!(cfg.num_splitters(), 255);
        assert_eq!(cfg.tree_height(), 8);
    }

    #[test]
    fn smem_footprint_depends_on_scope() {
        let shared = SampleSelectConfig::default();
        let global = SampleSelectConfig::default().with_atomic_scope(AtomicScope::Global);
        assert!(
            shared.count_kernel_smem_bytes(4) > global.count_kernel_smem_bytes(4),
            "shared-scope blocks also hold the counters"
        );
        assert_eq!(global.count_kernel_smem_bytes(4), 255 * 4);
    }

    #[test]
    fn launch_config_caps_grid() {
        let cfg = SampleSelectConfig::default();
        let lc = cfg.launch_config(1 << 28, 4);
        assert_eq!(lc.blocks, MAX_GRID_BLOCKS);
        let small = cfg.launch_config(1000, 4);
        assert_eq!(small.blocks, 1);
    }

    #[test]
    fn budget_guards_default_off() {
        let cfg = SampleSelectConfig::default();
        assert_eq!(cfg.max_levels, None);
        assert_eq!(cfg.work_budget_factor, None);
        let guarded = cfg.with_max_levels(8).with_work_budget_factor(3.0);
        assert_eq!(guarded.max_levels, Some(8));
        assert_eq!(guarded.work_budget_factor, Some(3.0));
        guarded.validate().unwrap();
    }
}
