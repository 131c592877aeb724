//! # gpu-selection
//!
//! A reproduction of *"Approximate and Exact Selection on GPUs"*
//! (Tobias Ribizel, Hartwig Anzt, 2019) as a pure-Rust workspace.
//!
//! The paper's contribution — the **SampleSelect** algorithm, its
//! **approximate** single-level variant, and a heavily engineered
//! **QuickSelect** reference — is implemented in [`sampleselect`], executed
//! either on a warp-accurate SIMT simulator with a per-architecture cost
//! model ([`gpu_sim`]) or on a real multithreaded CPU backend
//! ([`hpc_par`]).
//!
//! This façade crate re-exports every member crate so that examples and
//! downstream users can depend on a single package:
//!
//! ```
//! use gpu_selection::prelude::*;
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.7319).sin()).collect();
//! let k = 1234;
//! let cfg = SampleSelectConfig::default();
//! let result = sample_select(&data, k, &cfg).unwrap();
//!
//! let mut sorted = data.clone();
//! sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
//! assert_eq!(result.value, sorted[k]);
//! ```

pub use gpu_sim;
pub use hpc_par;
pub use sampleselect;
pub use select_baselines as baselines;
pub use select_datagen as datagen;

#[doc(hidden)]
pub mod cli;

/// Convenience re-exports of the most frequently used items.
pub mod prelude {
    pub use gpu_sim::arch::{GpuArchitecture, GpuGeneration};
    pub use gpu_sim::cost::SimTime;
    pub use gpu_sim::device::Device;
    pub use gpu_sim::fault::{FaultKind, FaultPlan, LaunchError};
    pub use sampleselect::approx::{approx_select, ApproxResult};
    pub use sampleselect::cpu::cpu_sample_select;
    pub use sampleselect::element::SelectElement;
    pub use sampleselect::params::{AtomicScope, SampleSelectConfig};
    pub use sampleselect::quickselect::quick_select;
    pub use sampleselect::resilient::{
        resilient_select, Backend, Outcome, ResilienceConfig, ResilientResult, RetryPolicy,
    };
    pub use sampleselect::shard::{
        sharded_select, KillSpec, ShardConfig, ShardFaults, ShardTopology,
    };
    pub use sampleselect::topk::top_k_largest;
    pub use sampleselect::{sample_select, SelectError, SelectResult};
    pub use select_datagen::{Distribution, Workload, WorkloadSpec};
}
