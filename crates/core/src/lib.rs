//! # sampleselect
//!
//! Exact and approximate parallel selection, reproducing Ribizel & Anzt,
//! *Approximate and Exact Selection on GPUs* (2019).
//!
//! The central algorithm is **SampleSelect**: recursive bucket selection
//! with sampled splitters held in an implicit binary search tree, exact
//! per-warp atomic accounting, equality buckets for repeated elements,
//! and a dynamic-parallelism-style tail recursion. An **approximate**
//! variant stops after a single `count` pass and returns the splitter
//! whose rank is closest to the target; a fused **top-k** extraction and
//! a heavily engineered **QuickSelect** reference round out the paper's
//! artifact set.
//!
//! Two execution backends share the algorithmic code paths:
//!
//! * the **simulated device** ([`gpu_sim::Device`]) — warp-accurate
//!   functional execution plus a per-architecture analytic cost model,
//!   used to reproduce the paper's figures;
//! * the **CPU backend** ([`cpu`]) — the same algorithm on real host
//!   threads, used for genuine wall-clock benchmarking.
//!
//! ## Quick start
//!
//! ```
//! use sampleselect::{sample_select, SampleSelectConfig};
//!
//! let data: Vec<f32> = (0..50_000).map(|i| ((i * 37) % 1000) as f32).collect();
//! let cfg = SampleSelectConfig::default();
//! let result = sample_select(&data, 4_999, &cfg).unwrap();
//!
//! let mut sorted = data.clone();
//! sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
//! assert_eq!(result.value, sorted[4_999]);
//! ```

pub mod approx;
pub mod approx_topk;
pub mod bitonic;
pub mod count;
pub mod cpu;
pub mod element;
pub mod filter;
pub mod instrument;
pub mod kv;
pub mod multiselect;
pub mod obs;
pub mod params;
pub mod planner;
pub mod quantile_stream;
pub mod quickselect;
pub mod radix;
pub mod recursion;
pub mod reduce;
pub mod resilient;
pub mod rng;
pub mod samplesort;
pub mod searchtree;
pub mod server;
pub mod shard;
pub mod simt_ref;
pub mod splitter;
pub mod streaming;
pub mod topk;
pub mod verify;
pub mod workspace;

pub use approx::{approx_select, approx_select_on_device, ApproxResult};
pub use approx_topk::{
    approx_top_k_on_device, expected_recall, k_prime_for_recall, measure_recall, plan_for_recall,
    ApproxTopKConfig, ApproxTopKResult,
};
pub use element::SelectElement;
pub use instrument::{ResilienceEvent, ResilienceEvents, SelectReport};
pub use kv::{zip_pairs, Pair};
pub use multiselect::{multi_select_on_device, quantile_ranks, quantiles, MultiSelectResult};
pub use obs::{
    MetricsRegistry, MetricsSnapshot, ObsReport, ObsSession, QuerySpan, SpanGuard, SpanKind,
};
pub use params::{AtomicScope, ConfigError, SampleSelectConfig};
pub use planner::{
    auto_select_on_device, plan_approx_topk_query, plan_rank_query, plan_topk_query, profile_data,
    DataProfile, PlanDecision, PlanSignals, PlannedBackend,
};
pub use quantile_stream::{
    rank_for_prob, run_quantile_stream, QuantileStream, QuantileStreamConfig, QuantileStreamRun,
    WindowQuantiles, WindowSpec, DEFAULT_PROBS,
};
pub use quickselect::{bipartition_on_device, quick_select, quick_select_on_device};
pub use radix::radix_select_on_device;
pub use recursion::sample_select_on_device;
pub use resilient::{
    resilient_select, resilient_select_on_device, resilient_select_planned,
    resilient_streaming_select, Backend, Outcome, ResilienceConfig, ResilientResult, RetryPolicy,
};
pub use samplesort::{sample_sort_on_device, SortResult};
pub use searchtree::SearchTree;
pub use server::{
    BreakerConfig, QueryKind, QueryRequest, QueryResponse, QueryStatus, QuotaConfig, SelectServer,
    ServerConfig, ServerSnapshot, TenantCounters,
};
pub use shard::{
    sharded_select, KillSpec, ShardConfig, ShardFaults, ShardReport, ShardTopology, ShardedResult,
};
pub use streaming::{
    streaming_select, streaming_select_with_checkpoint, ChunkError, ChunkSource, SliceChunks,
    StreamingResult,
};
pub use topk::{bottom_k_smallest_on_device, top_k_largest, top_k_largest_on_device};
pub use verify::VerifyPolicy;
pub use workspace::{KernelScratch, SelectWorkspace};

use gpu_sim::arch::v100;
use gpu_sim::Device;

/// Errors returned by the selection drivers.
///
/// The taxonomy distinguishes *permanent* errors (bad input, bad
/// configuration — retrying cannot help) from *transient* faults
/// surfaced by the device's fault-injection layer, which the
/// [`resilient`] driver retries; [`SelectError::is_transient`] encodes
/// the split.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectError {
    /// The input slice is empty.
    EmptyInput,
    /// The requested rank is not in `0..len`.
    RankOutOfRange { rank: usize, len: usize },
    /// The configuration failed validation.
    InvalidConfig(ConfigError),
    /// Input validation found a NaN (only with
    /// [`SampleSelectConfig::check_input`]).
    NanInput { index: usize },
    /// A caller-supplied argument is outside the operation's domain
    /// (e.g. a quantile count `q < 2` or `q > n`). Permanent: retrying
    /// with the same argument cannot help.
    InvalidArgument {
        /// Which argument was rejected and why.
        what: String,
    },
    /// The recursion failed to converge within its depth or work budget
    /// — degenerate splitter draws, or an internal bug. The resilient
    /// driver treats this as a signal to fall back to a different
    /// algorithm rather than retry the same one.
    RecursionLimit,
    /// A device fault (injected launch failure or memory exhaustion)
    /// corrupted the run. Transient: a retry may succeed.
    DeviceFault(gpu_sim::LaunchError),
    /// A chunk of an out-of-core dataset could not be loaded, even after
    /// the streaming driver's per-chunk retries.
    ChunkLoad(ChunkError),
    /// An algorithm-level integrity check (ABFT invariant or rank
    /// certificate, see [`verify`]) caught silently corrupted data.
    /// Transient: a retry with re-seeded sampling recomputes every
    /// intermediate buffer from the (intact) input.
    Corruption {
        /// Which invariant failed (e.g. `"histogram-sum"`).
        invariant: &'static str,
        /// Human-readable detail of the violation.
        detail: String,
    },
    /// The `selectd` server refused to admit the query: the tenant's
    /// token bucket is empty, the admission queue is full, or the
    /// server is draining. Explicit backpressure — the client must slow
    /// down or retry later; the internal resilience loop deliberately
    /// does *not* absorb it ([`SelectError::is_transient`] is false),
    /// because hiding overload behind retries defeats load shedding.
    Overloaded {
        /// Why admission was refused (`"quota"`, `"queue-full"`,
        /// `"draining"`).
        reason: &'static str,
        /// The tenant whose request was refused.
        tenant: String,
    },
    /// A thread-level reference kernel addressed shared memory out of
    /// bounds with the SIMT sanitizer disarmed (armed, the access is
    /// reported as a [`gpu_sim::SanitizerFinding`] instead). Permanent:
    /// the kernel itself is wrong.
    SharedOutOfBounds {
        /// Kernel that performed the access.
        kernel: &'static str,
        /// Offending word index.
        index: usize,
        /// Size of the shared allocation in words.
        len: usize,
    },
}

impl SelectError {
    /// Whether retrying the same operation can plausibly succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            SelectError::DeviceFault(_) => true,
            SelectError::ChunkLoad(e) => e.transient,
            SelectError::Corruption { .. } => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::EmptyInput => write!(f, "cannot select from an empty input"),
            SelectError::RankOutOfRange { rank, len } => {
                write!(f, "rank {rank} out of range for input of length {len}")
            }
            SelectError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SelectError::NanInput { index } => {
                write!(f, "input contains NaN at index {index}")
            }
            SelectError::InvalidArgument { what } => {
                write!(f, "invalid argument: {what}")
            }
            SelectError::RecursionLimit => write!(f, "selection recursion failed to converge"),
            SelectError::DeviceFault(e) => write!(f, "device fault: {e}"),
            SelectError::ChunkLoad(e) => write!(f, "chunk load failed: {e}"),
            SelectError::Corruption { invariant, detail } => {
                write!(f, "data corruption detected ({invariant}): {detail}")
            }
            SelectError::Overloaded { reason, tenant } => {
                write!(
                    f,
                    "server overloaded ({reason}): tenant `{tenant}` rejected"
                )
            }
            SelectError::SharedOutOfBounds { kernel, index, len } => {
                write!(
                    f,
                    "kernel {kernel}: shared-memory access out of bounds (word {index} of {len})"
                )
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// Result of an exact selection run: the selected value and the
/// measurement report.
#[derive(Debug, Clone)]
pub struct SelectResult<T> {
    /// The `rank`-th smallest element of the input.
    pub value: T,
    /// Timing/instrumentation of the run on the simulated device.
    pub report: SelectReport,
}

/// Exact SampleSelect on a default simulated device (Tesla V100 on the
/// process-global thread pool). For architecture sweeps, build a
/// [`gpu_sim::Device`] and call [`sample_select_on_device`].
pub fn sample_select<T: SelectElement>(
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<SelectResult<T>, SelectError> {
    let mut device = Device::on_global_pool(v100());
    sample_select_on_device(&mut device, data, rank, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_level_select_works() {
        let data: Vec<f32> = (0..10_000).map(|i| ((i * 31) % 500) as f32).collect();
        let result = sample_select(&data, 777, &SampleSelectConfig::default()).unwrap();
        assert_eq!(result.value, element::reference_select(&data, 777).unwrap());
    }

    #[test]
    fn error_display_messages() {
        assert!(format!("{}", SelectError::EmptyInput).contains("empty"));
        let e = SelectError::RankOutOfRange { rank: 9, len: 3 };
        assert!(format!("{e}").contains('9'));
        assert!(format!("{}", SelectError::NanInput { index: 4 }).contains("NaN"));
    }

    #[test]
    fn transient_vs_permanent_taxonomy() {
        use gpu_sim::{FaultKind, LaunchError, SimTime};
        let fault = SelectError::DeviceFault(LaunchError {
            kind: FaultKind::LaunchFailure,
            kernel: "count".to_string(),
            launch_index: 3,
            at: SimTime::ZERO,
        });
        assert!(fault.is_transient());
        assert!(format!("{fault}").contains("count"));

        let transient_chunk = SelectError::ChunkLoad(ChunkError {
            chunk: 2,
            message: "read timed out".to_string(),
            transient: true,
        });
        assert!(transient_chunk.is_transient());
        let permanent_chunk = SelectError::ChunkLoad(ChunkError {
            chunk: 2,
            message: "shard deleted".to_string(),
            transient: false,
        });
        assert!(!permanent_chunk.is_transient());

        let corruption = SelectError::Corruption {
            invariant: "histogram-sum",
            detail: "counts sum to 99 for n=100".to_string(),
        };
        assert!(corruption.is_transient());
        assert!(format!("{corruption}").contains("histogram-sum"));

        for permanent in [
            SelectError::EmptyInput,
            SelectError::RankOutOfRange { rank: 1, len: 1 },
            SelectError::NanInput { index: 0 },
            SelectError::InvalidArgument {
                what: "q = 1 quantile buckets".to_string(),
            },
            SelectError::RecursionLimit,
            SelectError::SharedOutOfBounds {
                kernel: "bitonic-ref",
                index: 64,
                len: 64,
            },
            // Backpressure must reach the client, not be retried away.
            SelectError::Overloaded {
                reason: "quota",
                tenant: "t0".to_string(),
            },
        ] {
            assert!(!permanent.is_transient(), "{permanent} must be permanent");
        }
    }
}
