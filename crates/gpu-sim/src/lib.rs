//! # gpu-sim
//!
//! A warp-accurate functional SIMT execution model with a per-architecture
//! analytic cost model — the substrate on which this workspace runs the
//! GPU selection kernels of Ribizel & Anzt, *Approximate and Exact
//! Selection on GPUs* (2019), in the absence of real CUDA hardware.
//!
//! ## Structure
//!
//! * [`arch`] — hardware descriptors (Table I of the paper: Tesla K20Xm,
//!   Tesla V100, plus the Tesla C2070 used in the §V-D comparison) and
//!   the cost-model parameters attached to each.
//! * [`warp`] — warp-level intrinsics (`ballot`, `match_any`, shuffles)
//!   with exact per-warp atomic-collision analysis.
//! * [`block`] — a thread-level BSP block executor (the slow reference
//!   interpretation of the SIMT model, used to cross-validate the
//!   vectorized kernels).
//! * [`cost`] — resource counters ([`cost::KernelCost`]) and the
//!   roofline-style overlap model converting them to [`cost::SimTime`].
//! * [`launch`] — launch configurations and occupancy. Dynamic
//!   parallelism is modelled by the [`LaunchOrigin`] a driver passes to
//!   [`Device::commit`]: device-side tail launches pay the lower
//!   device-launch latency.
//! * [`memory`] — scatter buffers for the two-pass counter scheme and
//!   traffic-tracked shared-memory arrays.
//! * [`bufpool`] — size-classed, fault-aware recycling of device
//!   buffers, so steady-state queries allocate nothing (the simulation
//!   analogue of amortizing `cudaMalloc` across kernels).
//! * [`sanitizer`] — the opt-in SIMT sanitizer (a
//!   `compute-sanitizer` analogue): per-phase shared-memory race,
//!   barrier-divergence, uninitialized-read, out-of-bounds, and
//!   mixed-atomic detection, reported as structured findings on the
//!   kernel timeline.
//! * [`device`] — the simulated GPU: block-parallel functional execution
//!   on a host thread pool, a simulated clock, and a kernel timeline.
//! * [`event`] — `cudaEventRecord`-style measurement points.
//! * [`fault`] — deterministic, seed-driven fault injection (failed
//!   launches, memory exhaustion, latency spikes, silent memory
//!   corruption) for exercising the resilience layer built on top of
//!   the simulator.
//! * [`jsonv`] — a strict, dependency-free JSON validator used by the
//!   workspace's tests to prove the hand-rolled exporters (traces,
//!   metrics snapshots) emit well-formed documents.
//!
//! ## Fidelity
//!
//! The *functional* layer is exact: kernels compute bit-identical results
//! to a sequential reference, warp ballots follow CUDA semantics, and
//! atomic collision counts are computed per warp, not sampled. The
//! *timing* layer is analytic: each kernel's resource usage is converted
//! to time with per-architecture parameters, so architecture-dependent
//! effects (Kepler's slow lock-based shared atomics vs. Volta's native
//! ones, same-address global-atomic serialization, launch latencies)
//! shape the results mechanistically.

pub mod arch;
pub mod block;
pub mod bufpool;
pub mod cost;
pub mod device;
pub mod event;
pub mod fault;
pub mod jsonv;
pub mod launch;
pub mod memory;
pub mod sanitizer;
pub mod trace;
pub mod warp;

pub use arch::{GpuArchitecture, GpuGeneration, LinkModel};
pub use block::{BlockExec, SmemAccessError, WarpSchedule};
pub use bufpool::{BufferPool, BufferPoolStats};
pub use cost::{CostBreakdown, KernelCost, SimTime};
pub use device::{Device, KernelRecord, KernelSummary, LaunchOrigin};
pub use event::Event;
pub use fault::{CorruptionOp, FaultInjector, FaultKind, FaultPlan, LaunchError, MemoryCorruption};
pub use launch::{occupancy, LaunchConfig, Occupancy};
pub use memory::{AllocError, CorruptTarget, DeviceMemory, ScatterBuffer, SharedArray};
pub use sanitizer::{
    SanitizerConfig, SanitizerFinding, SanitizerKind, SanitizerReport, SanitizerSink,
};
pub use trace::{chrome_trace, chrome_trace_with_counters, trace_events, CounterTrack};
