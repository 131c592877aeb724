//! # hpc-par
//!
//! A small, self-contained data-parallel substrate used by the
//! `gpu-selection` workspace: a persistent thread pool with a scoped
//! fork-join API, plus the handful of bulk primitives the selection
//! algorithms need (parallel for, map-reduce, exclusive scan, histograms).
//!
//! The design follows the fork-join model popularized by Rayon, scaled
//! down to exactly what this workspace requires so that the whole
//! workspace builds from first principles:
//!
//! * [`ThreadPool`] — persistent worker threads fed from a shared
//!   injector queue; a process-wide pool is available via
//!   [`ThreadPool::global`].
//! * [`ThreadPool::scope`] — run borrowed closures on the pool and wait
//!   for all of them; panics in tasks propagate to the caller.
//! * [`parallel_for_chunks`] — dynamic chunk scheduling over an index
//!   range.
//! * [`parallel_map_reduce`] — tree-free chunked reduction.
//! * [`scan::exclusive_scan`] / [`scan::parallel_exclusive_scan`] —
//!   prefix sums (the `reduce` step of the paper's two-pass counter
//!   scheme).
//! * [`histogram::parallel_histogram`] — per-worker local bins merged at
//!   the end (the CPU analogue of the paper's shared-memory bucket
//!   counters).
//!
//! Everything is implemented with `std` + `crossbeam` channels +
//! `parking_lot` locks; there is no work stealing — the workloads here
//! are regular, so dynamic chunk distribution from a shared atomic
//! counter achieves good balance with far less machinery.

pub mod histogram;
pub mod iter;
pub mod pool;
pub mod scan;
pub mod simd;
pub mod sync;

pub use histogram::parallel_histogram;
pub use iter::{
    parallel_for_chunks, parallel_for_chunks_aligned, parallel_map_reduce,
    parallel_map_reduce_aligned,
};
pub use pool::{PoolScope, ThreadPool};
pub use scan::{exclusive_scan, parallel_exclusive_scan};
pub use simd::{force_level, simd_level, SimdLevel};
pub use sync::WaitGroup;

/// Default minimum work per chunk before the primitives bother going
/// parallel. Below this, thread coordination costs more than it saves.
pub const DEFAULT_MIN_CHUNK: usize = 4096;

/// Effective minimum chunk size: [`DEFAULT_MIN_CHUNK`] unless the
/// `HPC_PAR_MIN_CHUNK` environment variable overrides it (for tuning
/// the parallel/inline cutover without a rebuild). Read once; later
/// changes to the variable have no effect. Unparsable or zero values
/// fall back to the default.
pub fn min_chunk() -> usize {
    static MIN_CHUNK: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *MIN_CHUNK.get_or_init(|| {
        std::env::var("HPC_PAR_MIN_CHUNK")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_MIN_CHUNK)
    })
}
