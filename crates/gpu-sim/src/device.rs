//! The simulated device: executes kernels functionally (block-parallel on
//! host threads) and keeps a timeline of per-kernel simulated timings.
//!
//! # Fault injection
//!
//! A device optionally carries a [`FaultInjector`] (see
//! [`Device::set_fault_plan`]). Every launch/commit consults it; injected
//! launch failures surface through the fallible entry points
//! ([`Device::try_launch`], [`Device::try_commit`]) as [`LaunchError`]s.
//! The *infallible* entry points keep their historical signatures: on an
//! injected failure they charge the launch overhead, record the failed
//! launch on the timeline, **latch** the error, and return — kernel
//! helpers deep inside an algorithm need no signature changes, and the
//! driver polls [`Device::take_fault`] after each algorithmic step to
//! learn that the step's results are garbage and must be retried.

use crate::arch::GpuArchitecture;
use crate::bufpool::{BufferPool, BufferPoolStats};
use crate::cost::{CostBreakdown, KernelCost, SimTime};
use crate::event::Event;
use crate::fault::{FaultInjector, FaultKind, FaultPlan, LaunchError, MemoryCorruption};
use crate::launch::{occupancy, LaunchConfig};
use crate::memory::{AllocError, CorruptTarget, DeviceMemory, ScatterBuffer};
use crate::sanitizer::{reports_to_json, SanitizerConfig, SanitizerReport, SanitizerSink};
use hpc_par::ThreadPool;
use std::borrow::Cow;

/// Whether a kernel was launched by the host or from the device
/// (CUDA Dynamic Parallelism); the two have different launch latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchOrigin {
    Host,
    Device,
}

/// One executed kernel on the device timeline.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel name, e.g. `"count"` or `"filter"` — used to aggregate the
    /// Fig. 9 breakdown. Borrowed for the static kernel names of the hot
    /// path (recording a launch must not allocate), owned for the few
    /// synthesized names such as `"corrupt:<region>"`.
    pub name: Cow<'static, str>,
    /// Launch configuration used.
    pub config: LaunchConfig,
    /// Simulated start time (after the launch overhead).
    pub start: SimTime,
    /// Simulated execution duration (excluding launch overhead).
    pub duration: SimTime,
    /// Launch latency charged before the kernel ran.
    pub launch_overhead: SimTime,
    /// Aggregated resource usage.
    pub cost: KernelCost,
    /// Per-resource time components (their max is `duration`).
    pub breakdown: CostBreakdown,
    /// How the kernel was launched.
    pub origin: LaunchOrigin,
    /// Injected fault affecting this launch, if any: `LaunchFailure`
    /// means the kernel did not run (zero duration), `LatencySpike`
    /// means it ran slower than modeled.
    pub fault: Option<FaultKind>,
    /// SIMT-sanitizer result for this launch: `Some` (possibly clean)
    /// when the device sanitizer was armed, `None` otherwise.
    pub sanitizer: Option<SanitizerReport>,
}

/// Aggregated statistics for all launches of one kernel name.
#[derive(Debug, Clone)]
pub struct KernelSummary {
    pub name: String,
    pub launches: u64,
    pub total_time: SimTime,
    pub total_launch_overhead: SimTime,
    pub cost: KernelCost,
}

/// A simulated GPU: owns the architecture model, runs kernels
/// block-parallel on the host pool, and advances a simulated clock.
pub struct Device<'p> {
    arch: GpuArchitecture,
    pool: &'p ThreadPool,
    now: SimTime,
    records: Vec<KernelRecord>,
    injector: Option<FaultInjector>,
    latched_fault: Option<LaunchError>,
    launch_counter: u64,
    alloc_counter: u64,
    access_counter: u64,
    memory: DeviceMemory,
    sanitizer: Option<SanitizerSink>,
    buf_pool: Option<BufferPool>,
    /// The launch that [`Device::merged`] is collecting, if any.
    merging: Option<Merging>,
}

/// The kernels committed inside [`Device::merged`], summed into one
/// launch.
struct Merging {
    per_block_read_bytes: u64,
    launch: Option<(Cow<'static, str>, LaunchConfig, LaunchOrigin, KernelCost)>,
}

impl<'p> Device<'p> {
    /// Create a device of the given architecture executing on `pool`.
    pub fn new(arch: GpuArchitecture, pool: &'p ThreadPool) -> Self {
        Self {
            arch,
            pool,
            now: SimTime::ZERO,
            records: Vec::new(),
            injector: None,
            latched_fault: None,
            launch_counter: 0,
            alloc_counter: 0,
            access_counter: 0,
            memory: DeviceMemory::unlimited(),
            sanitizer: None,
            buf_pool: None,
            merging: None,
        }
    }

    /// Convenience constructor on the process-global pool.
    pub fn on_global_pool(arch: GpuArchitecture) -> Device<'static> {
        Device::new(arch, ThreadPool::global())
    }

    pub fn arch(&self) -> &GpuArchitecture {
        &self.arch
    }

    pub fn pool(&self) -> &'p ThreadPool {
        self.pool
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Record a timestamp (the analogue of `cudaEventRecord`).
    pub fn record_event(&self) -> Event {
        Event::at(self.now)
    }

    /// Install a fault plan: every subsequent launch/commit/allocation
    /// consults a fresh [`FaultInjector`] seeded from the plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Remove the fault plan (subsequent launches are fault-free).
    pub fn clear_fault_plan(&mut self) {
        self.injector = None;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(|inj| inj.plan())
    }

    /// Arm the SIMT sanitizer: buffers handed out by
    /// [`Device::scatter_buffer`] grow shadow write-tracking, kernels
    /// may report invariant violations, and every subsequent
    /// [`KernelRecord`] carries a [`SanitizerReport`] (clean or not).
    ///
    /// Deliberately independent of the launch/alloc counters, so arming
    /// the sanitizer never perturbs an installed fault schedule.
    pub fn set_sanitizer(&mut self, cfg: SanitizerConfig) {
        self.sanitizer = Some(SanitizerSink::new(cfg));
    }

    /// Disarm the sanitizer (subsequent records carry no report).
    pub fn clear_sanitizer(&mut self) {
        self.sanitizer = None;
    }

    /// Whether the sanitizer is armed.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// A handle to the findings sink, for kernels that create their own
    /// sanitized structures (e.g. a [`crate::SharedArray`]).
    pub fn sanitizer_sink(&self) -> Option<SanitizerSink> {
        self.sanitizer.clone()
    }

    /// All non-clean sanitizer reports on the timeline, with the kernel
    /// name each belongs to.
    pub fn sanitizer_findings(&self) -> Vec<(&str, &SanitizerReport)> {
        self.records
            .iter()
            .filter_map(|r| match &r.sanitizer {
                Some(rep) if !rep.is_clean() => Some((r.name.as_ref(), rep)),
                _ => None,
            })
            .collect()
    }

    /// True when the sanitizer is armed and no kernel on the timeline
    /// produced a finding.
    pub fn sanitizer_clean(&self) -> bool {
        self.sanitizer.is_some()
            && self.records.iter().all(|r| match &r.sanitizer {
                Some(rep) => rep.is_clean(),
                None => true,
            })
    }

    /// Serialize every record's sanitizer report as JSON (the CI
    /// artifact format; empty array when the sanitizer is off).
    pub fn sanitizer_json(&self) -> String {
        let reports: Vec<(String, SanitizerReport)> = self
            .records
            .iter()
            .filter_map(|r| {
                r.sanitizer
                    .as_ref()
                    .map(|rep| (r.name.to_string(), rep.clone()))
            })
            .collect();
        reports_to_json(&reports)
    }

    /// Allocate a scatter buffer for a kernel's output: plain when the
    /// sanitizer is off (zero overhead), shadow-tracked when armed.
    /// Unlike [`Device::try_alloc_scatter`] this touches no fault or
    /// allocation counters — it exists so kernels can opt into
    /// sanitization without perturbing deterministic fault schedules.
    pub fn scatter_buffer<T>(&self, len: usize, region: &str) -> ScatterBuffer<T> {
        match &self.sanitizer {
            Some(sink) => ScatterBuffer::with_sanitizer(len, sink.clone(), region),
            None => ScatterBuffer::new(len),
        }
    }

    /// Arm the buffer pool: [`Device::pooled_scatter`] and
    /// [`Device::lease_vec`] start drawing storage from recycled
    /// allocations instead of the heap. Like the sanitizer, the pool is
    /// deliberately independent of the launch/alloc counters — arming it
    /// never perturbs a fault schedule — and it survives
    /// [`Device::reset`], since its whole point is reuse across repeated
    /// queries. A region the injector corrupts is poisoned in the pool,
    /// so corrupted buffers are never recycled into a later query.
    pub fn enable_buffer_pool(&mut self) {
        if self.buf_pool.is_none() {
            self.buf_pool = Some(BufferPool::new());
        }
    }

    /// Disarm the buffer pool, dropping every shelved allocation.
    pub fn disable_buffer_pool(&mut self) {
        self.buf_pool = None;
    }

    /// Whether the buffer pool is armed.
    pub fn buffer_pool_enabled(&self) -> bool {
        self.buf_pool.is_some()
    }

    /// Pool effectiveness counters (`None` when the pool is disarmed).
    pub fn buffer_pool_stats(&self) -> Option<BufferPoolStats> {
        self.buf_pool.as_ref().map(|p| p.stats())
    }

    /// [`Device::scatter_buffer`] drawing its storage from the buffer
    /// pool when armed (identical semantics otherwise): the kernels'
    /// allocation-free path. Consume the result with
    /// [`ScatterBuffer::into_vec`] and return the vector via
    /// [`Device::recycle_vec`] once its contents are dead.
    pub fn pooled_scatter<T: Send + 'static>(
        &mut self,
        len: usize,
        region: &'static str,
    ) -> ScatterBuffer<T> {
        match &mut self.buf_pool {
            Some(pool) => {
                let storage = pool.acquire::<T>(len, region);
                match &self.sanitizer {
                    Some(sink) => ScatterBuffer::from_storage_with_sanitizer(
                        storage,
                        len,
                        sink.clone(),
                        region,
                    ),
                    None => ScatterBuffer::from_storage(storage, len),
                }
            }
            None => self.scatter_buffer(len, region),
        }
    }

    /// Lease an empty vector with capacity at least `len` from the
    /// buffer pool (a plain empty vector when disarmed — callers grow it
    /// exactly as the unpooled code always did). Pair with
    /// [`Device::recycle_vec`] under the same region tag.
    pub fn lease_vec<T: Send + 'static>(&mut self, len: usize, region: &'static str) -> Vec<T> {
        match &mut self.buf_pool {
            Some(pool) => pool.acquire::<T>(len, region),
            None => Vec::new(),
        }
    }

    /// Return a dead buffer's allocation to the pool (dropped when the
    /// pool is disarmed, or when `region` was poisoned by an injected
    /// corruption since the last recycle).
    pub fn recycle_vec<T: Send + 'static>(&mut self, region: &'static str, buf: Vec<T>) {
        if let Some(pool) = &mut self.buf_pool {
            pool.recycle(region, buf);
        }
    }

    /// Replace the device-memory accounting (e.g. to impose a capacity).
    pub fn set_device_memory(&mut self, memory: DeviceMemory) {
        self.memory = memory;
    }

    /// Device-memory accounting state.
    pub fn memory(&self) -> &DeviceMemory {
        &self.memory
    }

    /// Take the latched fault, if one was injected since the last poll.
    /// Drivers call this after each algorithmic step; `Some` means the
    /// step's outputs are garbage and the step must be retried (or the
    /// algorithm abandoned to a fallback).
    pub fn take_fault(&mut self) -> Option<LaunchError> {
        self.latched_fault.take()
    }

    /// Whether a fault is latched without consuming it.
    pub fn has_fault(&self) -> bool {
        self.latched_fault.is_some()
    }

    /// Advance the simulated clock by `dt` without running anything —
    /// models host-side waits such as retry backoff, so resilience
    /// overhead shows up in the measured timeline.
    pub fn advance_time(&mut self, dt: SimTime) {
        self.now += dt;
    }

    /// Decide the fate of the next launch and hand out its index.
    fn next_launch_decision(&mut self) -> (u64, Option<FaultKind>, f64) {
        let index = self.launch_counter;
        self.launch_counter += 1;
        match &mut self.injector {
            Some(inj) => {
                let fault = inj.on_launch(index);
                (index, fault, inj.spike_factor())
            }
            None => (index, None, 1.0),
        }
    }

    /// Push one record (normal, spiked, or failed) and advance the clock.
    fn commit_record(
        &mut self,
        name: Cow<'static, str>,
        config: LaunchConfig,
        origin: LaunchOrigin,
        cost: KernelCost,
        fault: Option<FaultKind>,
        spike_factor: f64,
    ) -> SimTime {
        let breakdown = match fault {
            // The launch never ran: no execution time, no resource usage.
            Some(FaultKind::LaunchFailure) => CostBreakdown::default(),
            Some(FaultKind::LatencySpike) => {
                let occ = occupancy(&self.arch, &config);
                cost.time_on(&self.arch, occ.effective_sms)
                    .scale(spike_factor)
            }
            _ => {
                let occ = occupancy(&self.arch, &config);
                cost.time_on(&self.arch, occ.effective_sms)
            }
        };
        let duration = breakdown.total();
        let launch_overhead = match origin {
            LaunchOrigin::Host => SimTime::from_us(self.arch.host_launch_us),
            LaunchOrigin::Device => SimTime::from_us(self.arch.device_launch_us),
        };
        self.now += launch_overhead;
        let start = self.now;
        self.now += duration;
        let cost = if fault == Some(FaultKind::LaunchFailure) {
            KernelCost::new()
        } else {
            cost
        };
        // Findings reported since the previous commit belong to this
        // launch; draining here keeps the sink empty between kernels.
        let sanitizer = self.sanitizer.as_ref().map(|sink| sink.drain());
        self.records.push(KernelRecord {
            name,
            config,
            start,
            duration,
            launch_overhead,
            cost,
            breakdown,
            origin,
            fault,
            sanitizer,
        });
        duration + launch_overhead
    }

    /// Fallible kernel launch: run `kernel(block_id, &mut cost)` for
    /// every block of the grid (parallelized over the host pool), convert
    /// the merged resource usage into simulated time, and advance the
    /// clock.
    ///
    /// With a fault plan installed, an injected launch failure skips the
    /// kernel entirely (its closure never runs), charges the launch
    /// overhead, records the failed launch on the timeline, and returns
    /// the error. A latency spike runs the kernel normally but inflates
    /// its recorded duration.
    ///
    /// Returns the duration including launch overhead.
    pub fn try_launch<F>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        config: LaunchConfig,
        origin: LaunchOrigin,
        kernel: F,
    ) -> Result<SimTime, LaunchError>
    where
        F: Fn(u32, &mut KernelCost) + Sync,
    {
        let name = name.into();
        assert!(self.merging.is_none(), "closure launches are not merged");
        let (index, fault, spike_factor) = self.next_launch_decision();
        if fault == Some(FaultKind::LaunchFailure) {
            self.commit_record(
                name.clone(),
                config,
                origin,
                KernelCost::new(),
                fault,
                spike_factor,
            );
            return Err(LaunchError {
                kind: FaultKind::LaunchFailure,
                kernel: name.into_owned(),
                launch_index: index,
                at: self.now,
            });
        }
        let blocks = config.blocks as usize;
        let cost = hpc_par::parallel_map_reduce(
            self.pool,
            blocks,
            1,
            KernelCost::new(),
            |range, mut acc| {
                for b in range {
                    kernel(b as u32, &mut acc);
                }
                acc
            },
            |mut a, b| {
                a.merge(&b);
                a
            },
        );
        Ok(self.commit_record(name, config, origin, cost, fault, spike_factor))
    }

    /// Launch a kernel through the infallible path: like
    /// [`Device::try_launch`], but an injected failure is latched for
    /// [`Device::take_fault`] instead of returned, and only the launch
    /// overhead is charged.
    pub fn launch<F>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        config: LaunchConfig,
        origin: LaunchOrigin,
        kernel: F,
    ) -> SimTime
    where
        F: Fn(u32, &mut KernelCost) + Sync,
    {
        match self.try_launch(name, config, origin, kernel) {
            Ok(t) => t,
            Err(err) => {
                self.latch(err);
                match origin {
                    LaunchOrigin::Host => SimTime::from_us(self.arch.host_launch_us),
                    LaunchOrigin::Device => SimTime::from_us(self.arch.device_launch_us),
                }
            }
        }
    }

    /// Fallible commit of a kernel whose resource usage was computed by
    /// the caller (used when a kernel's functional work and cost
    /// accounting are produced by one fused pass). An injected failure
    /// means the launch is considered not to have happened: the caller's
    /// outputs must be discarded.
    pub fn try_commit(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        config: LaunchConfig,
        origin: LaunchOrigin,
        cost: KernelCost,
    ) -> Result<SimTime, LaunchError> {
        let name = name.into();
        if let Some(merging) = &mut self.merging {
            match &mut merging.launch {
                None => merging.launch = Some((name, config, origin, cost)),
                Some((first, sum, _, total)) => {
                    debug_assert_eq!(*first, name, "one merged launch runs one kernel");
                    sum.blocks += config.blocks;
                    sum.threads_per_block = sum.threads_per_block.max(config.threads_per_block);
                    sum.shared_mem_bytes = sum.shared_mem_bytes.max(config.shared_mem_bytes);
                    total.merge(&cost);
                }
            }
            return Ok(SimTime::ZERO);
        }
        let (index, fault, spike_factor) = self.next_launch_decision();
        if fault == Some(FaultKind::LaunchFailure) {
            self.commit_record(
                name.clone(),
                config,
                origin,
                KernelCost::new(),
                fault,
                spike_factor,
            );
            return Err(LaunchError {
                kind: FaultKind::LaunchFailure,
                kernel: name.into_owned(),
                launch_index: index,
                at: self.now,
            });
        }
        Ok(self.commit_record(name, config, origin, cost, fault, spike_factor))
    }

    /// Run `f` and charge every kernel it commits as one launch: a
    /// segmented kernel whose grid is the commits' grids side by side.
    /// Its cost is the sum of theirs, plus `per_block_read_bytes` of
    /// global reads for every block (what a block reads to find its
    /// segment); its busy-SM count follows the summed blocks, and its
    /// shared memory per block is the largest of theirs. The launch is
    /// named after, and issued from where, the first commit says, and
    /// it is the one launch the fault injector sees. A closure that
    /// commits nothing launches nothing.
    pub fn merged<R>(&mut self, per_block_read_bytes: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        assert!(self.merging.is_none(), "merged launches do not nest");
        self.merging = Some(Merging {
            per_block_read_bytes,
            launch: None,
        });
        let out = f(self);
        let merging = self.merging.take().expect("still merging");
        if let Some((name, config, origin, mut cost)) = merging.launch {
            cost.global_read_bytes += config.blocks as u64 * merging.per_block_read_bytes;
            self.commit(name, config, origin, cost);
        }
        out
    }

    /// Whether [`Device::merged`] is collecting launches: a kernel
    /// committed now has no record of its own.
    pub fn merging(&self) -> bool {
        self.merging.is_some()
    }

    /// Infallible commit: latches injected failures like
    /// [`Device::launch`].
    pub fn commit(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        config: LaunchConfig,
        origin: LaunchOrigin,
        cost: KernelCost,
    ) -> SimTime {
        match self.try_commit(name, config, origin, cost) {
            Ok(t) => t,
            Err(err) => {
                self.latch(err);
                match origin {
                    LaunchOrigin::Host => SimTime::from_us(self.arch.host_launch_us),
                    LaunchOrigin::Device => SimTime::from_us(self.arch.device_launch_us),
                }
            }
        }
    }

    /// Allocate a tracked scatter buffer of `len` elements, consulting
    /// the fault injector and the device-memory capacity. Failures are
    /// also latched (kernel helpers using the infallible launch pattern
    /// can return early and let the driver poll [`Device::take_fault`]).
    pub fn try_alloc_scatter<T>(&mut self, len: usize) -> Result<ScatterBuffer<T>, AllocError> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let index = self.alloc_counter;
        self.alloc_counter += 1;
        if let Some(inj) = &mut self.injector {
            if inj.on_alloc(index) {
                self.latch(LaunchError {
                    kind: FaultKind::MemoryExhaustion,
                    kernel: "alloc".to_string(),
                    launch_index: index,
                    at: self.now,
                });
                return Err(AllocError::Injected {
                    alloc_index: index,
                    bytes,
                });
            }
        }
        if let Err(err) = self.memory.try_reserve(bytes) {
            self.latch(LaunchError {
                kind: FaultKind::MemoryExhaustion,
                kernel: "alloc".to_string(),
                launch_index: index,
                at: self.now,
            });
            return Err(err);
        }
        Ok(self.scatter_buffer(len, "alloc"))
    }

    /// Return `bytes` of tracked device memory to the pool (paired with
    /// [`Device::try_alloc_scatter`] once the buffer is consumed).
    pub fn release_alloc(&mut self, bytes: u64) {
        self.memory.release(bytes);
    }

    /// Give the fault injector a chance to corrupt the named
    /// device-memory region (one tracked access). With a corruption-free
    /// plan — or no plan — this is a counter bump and nothing else.
    ///
    /// An injected corruption mutates one byte of `buf` in place and is
    /// recorded on the timeline as a zero-duration `"corrupt"` record
    /// (category `"fault"` in the Chrome trace), but it is **not**
    /// latched: memory upsets are silent on real hardware, so detection
    /// is left to algorithm-level integrity checks.
    pub fn corrupt_region<M: CorruptTarget + ?Sized>(
        &mut self,
        region: &str,
        buf: &mut M,
    ) -> Option<MemoryCorruption> {
        let index = self.access_counter;
        self.access_counter += 1;
        let now = self.now;
        let corruption =
            self.injector
                .as_mut()?
                .on_memory_access(index, now, region, buf.len_bytes())?;
        buf.mutate_byte(corruption.byte_offset, corruption.op);
        // The region's backing buffer now holds corrupted bytes: the pool
        // must not recycle it into a later query.
        if let Some(pool) = &mut self.buf_pool {
            pool.poison(region);
        }
        self.records.push(KernelRecord {
            name: Cow::Owned(format!("corrupt:{region}")),
            config: LaunchConfig {
                blocks: 1,
                threads_per_block: 1,
                shared_mem_bytes: 0,
            },
            start: self.now,
            duration: SimTime::ZERO,
            launch_overhead: SimTime::ZERO,
            cost: KernelCost::new(),
            breakdown: CostBreakdown::default(),
            origin: LaunchOrigin::Host,
            fault: Some(FaultKind::MemoryCorruption),
            sanitizer: None,
        });
        Some(corruption)
    }

    /// Number of memory corruptions injected since the last reset.
    pub fn corruptions_injected(&self) -> u64 {
        self.injector
            .as_ref()
            .map_or(0, |inj| inj.corruptions_injected())
    }

    /// Latch `err` for [`Device::take_fault`], keeping the earliest
    /// unconsumed fault (it is the root cause of a failed step).
    fn latch(&mut self, err: LaunchError) {
        self.latched_fault.get_or_insert(err);
    }

    /// Simulated time elapsed since `event` (the analogue of
    /// `cudaEventElapsedTime`).
    pub fn elapsed_since(&self, event: Event) -> SimTime {
        self.now - event.time()
    }

    /// The full kernel timeline since the last reset.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Clear the timeline and reset the clock (between measurements).
    ///
    /// The fault injector is re-seeded from its plan and all fault/alloc
    /// counters restart, so repeated measurement reps see the exact same
    /// fault schedule — same seed, same report. The buffer pool is left
    /// warm: reuse across repeated queries is its purpose, and poisoned
    /// regions stay quarantined until their buffer is dropped.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.records.clear();
        self.latched_fault = None;
        self.launch_counter = 0;
        self.alloc_counter = 0;
        self.access_counter = 0;
        self.memory.reset();
        if let Some(inj) = &self.injector {
            self.injector = Some(FaultInjector::new(inj.plan().clone()));
        }
        if let Some(sink) = &self.sanitizer {
            let _ = sink.drain();
        }
    }

    /// Aggregate the timeline per kernel name, preserving first-seen
    /// order (for Fig. 9-style breakdowns).
    pub fn kernel_summary(&self) -> Vec<KernelSummary> {
        let mut order: Vec<String> = Vec::new();
        let mut out: Vec<KernelSummary> = Vec::new();
        for rec in &self.records {
            let idx = match order.iter().position(|n| n == &rec.name) {
                Some(i) => i,
                None => {
                    order.push(rec.name.to_string());
                    out.push(KernelSummary {
                        name: rec.name.to_string(),
                        launches: 0,
                        total_time: SimTime::ZERO,
                        total_launch_overhead: SimTime::ZERO,
                        cost: KernelCost::new(),
                    });
                    out.len() - 1
                }
            };
            let s = &mut out[idx];
            s.launches += 1;
            s.total_time += rec.duration;
            s.total_launch_overhead += rec.launch_overhead;
            s.cost.merge(&rec.cost);
        }
        out
    }

    /// Total simulated time of every kernel plus launch overheads.
    pub fn total_time(&self) -> SimTime {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::v100;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn device(pool: &ThreadPool) -> Device<'_> {
        Device::new(v100(), pool)
    }

    #[test]
    fn launch_runs_every_block_once() {
        let pool = ThreadPool::new(4);
        let mut dev = device(&pool);
        let cfg = LaunchConfig {
            blocks: 100,
            threads_per_block: 128,
            shared_mem_bytes: 0,
        };
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        dev.launch("touch", cfg, LaunchOrigin::Host, |b, cost| {
            hits[b as usize].fetch_add(1, Ordering::Relaxed);
            cost.global_read_bytes += 4;
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(dev.records().len(), 1);
        assert_eq!(dev.records()[0].cost.global_read_bytes, 400);
    }

    #[test]
    fn clock_advances_by_duration_plus_overhead() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = LaunchConfig {
            blocks: 1000,
            threads_per_block: 256,
            shared_mem_bytes: 0,
        };
        let before = dev.now();
        let total = dev.launch("k", cfg, LaunchOrigin::Host, |_, cost| {
            cost.global_read_bytes += 1_000_000;
        });
        assert!((dev.now() - before).as_ns() > 0.0);
        assert!(((dev.now() - before).as_ns() - total.as_ns()).abs() < 1e-9);
        let rec = &dev.records()[0];
        assert!((rec.launch_overhead.as_us() - dev.arch().host_launch_us).abs() < 1e-9);
    }

    #[test]
    fn merged_commits_are_one_launch_of_their_summed_cost() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        let grid = |blocks, smem| LaunchConfig {
            blocks,
            threads_per_block: 256,
            shared_mem_bytes: smem,
        };
        let cost = |bytes, blocks| KernelCost {
            global_read_bytes: bytes,
            blocks,
            ..KernelCost::new()
        };
        let answer = dev.merged(32, |dev| {
            dev.commit("k", grid(3, 64), LaunchOrigin::Device, cost(1_000, 3));
            dev.commit("k", grid(5, 128), LaunchOrigin::Device, cost(2_000, 5));
            assert_eq!(dev.now(), SimTime::ZERO, "nothing runs before the launch");
            assert!(dev.merging());
            7
        });
        assert_eq!(answer, 7);
        assert!(!dev.merging());
        let [rec] = dev.records() else {
            panic!("one launch, not {:?}", dev.records().len());
        };
        assert_eq!(rec.config, grid(8, 128));
        assert_eq!(rec.cost.global_read_bytes, 3_000 + 8 * 32);
        assert_eq!(rec.cost.blocks, 8);
        assert_eq!(rec.origin, LaunchOrigin::Device);
        let alone = cost(3_000 + 8 * 32, 8)
            .time_on(dev.arch(), occupancy(dev.arch(), &rec.config).effective_sms);
        assert_eq!(rec.duration, alone.total());
        // A closure that commits nothing launches nothing.
        dev.merged(32, |_| ());
        assert_eq!(dev.records().len(), 1);
    }

    #[test]
    fn device_launch_is_cheaper_than_host_launch() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
            shared_mem_bytes: 0,
        };
        dev.launch("h", cfg, LaunchOrigin::Host, |_, _| {});
        dev.launch("d", cfg, LaunchOrigin::Device, |_, _| {});
        let recs = dev.records();
        assert!(recs[0].launch_overhead > recs[1].launch_overhead);
    }

    #[test]
    fn events_measure_elapsed_time() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = LaunchConfig {
            blocks: 100,
            threads_per_block: 256,
            shared_mem_bytes: 0,
        };
        let ev = dev.record_event();
        dev.launch("a", cfg, LaunchOrigin::Host, |_, c| {
            c.global_read_bytes += 500_000;
        });
        let elapsed = dev.elapsed_since(ev);
        assert!(elapsed.as_ns() > 0.0);
        assert!((elapsed.as_ns() - dev.now().as_ns()).abs() < 1e-9);
    }

    #[test]
    fn summary_groups_by_name_in_first_seen_order() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = LaunchConfig {
            blocks: 10,
            threads_per_block: 64,
            shared_mem_bytes: 0,
        };
        dev.launch("count", cfg, LaunchOrigin::Host, |_, c| {
            c.global_read_bytes += 10
        });
        dev.launch("filter", cfg, LaunchOrigin::Host, |_, c| {
            c.global_read_bytes += 20
        });
        dev.launch("count", cfg, LaunchOrigin::Device, |_, c| {
            c.global_read_bytes += 30
        });
        let summary = dev.kernel_summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "count");
        assert_eq!(summary[0].launches, 2);
        assert_eq!(summary[0].cost.global_read_bytes, 400);
        assert_eq!(summary[1].name, "filter");
        assert_eq!(summary[1].launches, 1);
    }

    #[test]
    fn reset_clears_timeline() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 32,
            shared_mem_bytes: 0,
        };
        dev.launch("k", cfg, LaunchOrigin::Host, |_, _| {});
        dev.reset();
        assert!(dev.records().is_empty());
        assert_eq!(dev.now(), SimTime::ZERO);
    }

    fn small_cfg() -> LaunchConfig {
        LaunchConfig {
            blocks: 10,
            threads_per_block: 64,
            shared_mem_bytes: 0,
        }
    }

    #[test]
    fn injected_launch_failure_skips_kernel_and_latches() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(1).fail_launches_at(&[0]));
        let ran = AtomicU32::new(0);
        dev.launch("doomed", small_cfg(), LaunchOrigin::Host, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0, "closure must not run");
        let rec = &dev.records()[0];
        assert_eq!(rec.fault, Some(FaultKind::LaunchFailure));
        assert_eq!(rec.duration, SimTime::ZERO);
        assert!(
            rec.launch_overhead > SimTime::ZERO,
            "overhead still charged"
        );
        let fault = dev.take_fault().expect("fault latched");
        assert_eq!(fault.kind, FaultKind::LaunchFailure);
        assert_eq!(fault.kernel, "doomed");
        assert_eq!(fault.launch_index, 0);
        assert!(dev.take_fault().is_none(), "fault consumed");
        // subsequent launches succeed and run
        dev.launch("fine", small_cfg(), LaunchOrigin::Host, |_, c| {
            c.global_read_bytes += 100;
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 10);
        assert!(dev.take_fault().is_none());
    }

    #[test]
    fn try_launch_returns_error_without_latching_consumable_twice() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(1).fail_launches_at(&[0]));
        let err = dev
            .try_launch("k", small_cfg(), LaunchOrigin::Device, |_, _| {})
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::LaunchFailure);
        assert!(dev.take_fault().is_none(), "try path does not latch");
        assert!(dev
            .try_launch("k", small_cfg(), LaunchOrigin::Device, |_, _| {})
            .is_ok());
    }

    #[test]
    fn latency_spike_inflates_duration_but_runs_kernel() {
        let pool = ThreadPool::new(2);
        let work = |_: u32, c: &mut KernelCost| {
            c.global_read_bytes += 100_000;
        };
        // baseline without faults
        let mut clean = device(&pool);
        clean.launch("k", small_cfg(), LaunchOrigin::Host, work);
        let base = clean.records()[0].duration;

        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(1).latency_spikes(1.0, 4.0));
        let ran = AtomicU32::new(0);
        dev.launch("k", small_cfg(), LaunchOrigin::Host, |b, c| {
            ran.fetch_add(1, Ordering::Relaxed);
            work(b, c);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 10, "spiked kernel still runs");
        let rec = &dev.records()[0];
        assert_eq!(rec.fault, Some(FaultKind::LatencySpike));
        assert!((rec.duration.as_ns() - 4.0 * base.as_ns()).abs() < 1e-6);
        assert!(dev.take_fault().is_none(), "spikes are not errors");
    }

    #[test]
    fn commit_failure_discards_cost() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(1).fail_launches_at(&[0]));
        let cost = KernelCost {
            global_read_bytes: 12345,
            ..Default::default()
        };
        let err = dev
            .try_commit("c", small_cfg(), LaunchOrigin::Host, cost)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::LaunchFailure);
        assert_eq!(dev.records()[0].cost.global_read_bytes, 0);
    }

    #[test]
    fn alloc_faults_and_capacity() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(1).fail_allocs_at(&[0]));
        let err = dev.try_alloc_scatter::<u64>(100).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(
            dev.take_fault().map(|f| f.kind),
            Some(FaultKind::MemoryExhaustion)
        );
        // retry succeeds and is tracked
        let buf = dev.try_alloc_scatter::<u64>(100).unwrap();
        assert_eq!(buf.len(), 100);
        assert_eq!(dev.memory().in_use(), 800);
        dev.release_alloc(800);
        assert_eq!(dev.memory().in_use(), 0);

        // a hard capacity produces a permanent OOM
        dev.clear_fault_plan();
        dev.set_device_memory(DeviceMemory::with_capacity(64));
        let err = dev.try_alloc_scatter::<u64>(100).unwrap_err();
        assert!(!err.is_transient());
        assert!(dev.take_fault().is_some());
    }

    #[test]
    fn reset_reseeds_injector_for_identical_schedules() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(99).launch_failures(0.3));
        let schedule = |dev: &mut Device| {
            for _ in 0..32 {
                dev.launch("k", small_cfg(), LaunchOrigin::Host, |_, _| {});
            }
            let pattern: Vec<bool> = dev.records().iter().map(|r| r.fault.is_some()).collect();
            pattern
        };
        let first = schedule(&mut dev);
        assert!(first.iter().any(|&f| f), "some launches must fail");
        assert!(!first.iter().all(|&f| f), "not all launches fail");
        dev.reset();
        let second = schedule(&mut dev);
        assert_eq!(first, second, "same seed, same schedule");
    }

    #[test]
    fn corrupt_region_mutates_buffer_and_records_without_latching() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(4).corrupt_accesses_at(&[0]));
        let mut counts = vec![0u64; 16];
        let c = dev
            .corrupt_region("counts", counts.as_mut_slice())
            .expect("explicit index fires");
        assert_eq!(c.region, "counts");
        assert!(counts.iter().any(|&v| v != 0), "a bit actually flipped");
        assert!(!dev.has_fault(), "corruption is silent, never latched");
        let rec = &dev.records()[0];
        assert_eq!(rec.name, "corrupt:counts");
        assert_eq!(rec.fault, Some(FaultKind::MemoryCorruption));
        assert_eq!(rec.duration, SimTime::ZERO);
        assert_eq!(dev.corruptions_injected(), 1);
        // access #1 is clean and leaves no record
        let mut more = vec![0u8; 4];
        assert!(dev.corrupt_region("oracles", more.as_mut_slice()).is_none());
        assert_eq!(dev.records().len(), 1);
    }

    #[test]
    fn corrupt_region_without_plan_is_noop() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        let mut buf = vec![1.0f32; 8];
        assert!(dev.corrupt_region("data", buf.as_mut_slice()).is_none());
        assert_eq!(buf, vec![1.0f32; 8]);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn reset_reseeds_corruption_schedule() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        dev.set_fault_plan(FaultPlan::new(21).bitflips(0.5));
        let schedule = |dev: &mut Device| {
            (0..32)
                .map(|_| {
                    let mut buf = vec![0u32; 8];
                    dev.corrupt_region("r", buf.as_mut_slice())
                        .map(|c| (c.byte_offset, c.op, c.access_index))
                })
                .collect::<Vec<_>>()
        };
        let first = schedule(&mut dev);
        assert!(first.iter().any(|c| c.is_some()));
        dev.reset();
        assert_eq!(first, schedule(&mut dev), "same seed, same corruptions");
    }

    #[test]
    fn sanitizer_reports_attach_to_the_launching_kernel() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.set_sanitizer(SanitizerConfig::full());
        assert!(dev.sanitizer_enabled());

        // clean kernel: its record carries an empty report
        let buf = dev.scatter_buffer::<u32>(4, "out");
        assert!(buf.is_sanitized());
        for i in 0..4 {
            unsafe { buf.write(i, i as u32) };
        }
        drop(unsafe { buf.into_vec(4) });
        dev.commit("clean", small_cfg(), LaunchOrigin::Host, KernelCost::new());

        // racy kernel: double write lands on *its* record, not the clean one
        let buf = dev.scatter_buffer::<u32>(2, "out");
        unsafe {
            buf.write(0, 1);
            buf.write(0, 2);
            buf.write(1, 3);
        }
        drop(unsafe { buf.into_vec(2) });
        dev.commit("racy", small_cfg(), LaunchOrigin::Host, KernelCost::new());

        let recs = dev.records();
        assert!(recs[0].sanitizer.as_ref().unwrap().is_clean());
        let racy = recs[1].sanitizer.as_ref().unwrap();
        assert_eq!(racy.findings.len(), 1);
        assert!(!dev.sanitizer_clean());
        assert_eq!(dev.sanitizer_findings().len(), 1);
        assert_eq!(dev.sanitizer_findings()[0].0, "racy");
        assert!(dev.sanitizer_json().contains("write-write-race"));
    }

    #[test]
    fn sanitizer_off_means_no_reports_and_plain_buffers() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        assert!(!dev.scatter_buffer::<u32>(4, "out").is_sanitized());
        dev.commit("k", small_cfg(), LaunchOrigin::Host, KernelCost::new());
        assert!(dev.records()[0].sanitizer.is_none());
        assert!(!dev.sanitizer_clean(), "clean requires the sanitizer armed");
        assert_eq!(dev.sanitizer_json(), "[]");
    }

    #[test]
    fn arming_the_sanitizer_does_not_shift_fault_schedules() {
        let pool = ThreadPool::new(2);
        let run = |sanitize: bool| {
            let mut dev = device(&pool);
            dev.set_fault_plan(FaultPlan::new(99).launch_failures(0.3));
            if sanitize {
                dev.set_sanitizer(SanitizerConfig::full());
            }
            for _ in 0..8 {
                let _buf = dev.scatter_buffer::<u64>(16, "out");
                dev.launch("k", small_cfg(), LaunchOrigin::Host, |_, _| {});
            }
            dev.records()
                .iter()
                .map(|r| r.fault.is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pooled_scatter_reuses_allocations_across_reset() {
        let pool = ThreadPool::new(2);
        let mut dev = device(&pool);
        dev.enable_buffer_pool();
        assert!(dev.buffer_pool_enabled());
        for rep in 0..3 {
            let buf = dev.pooled_scatter::<u64>(64, "count-partials");
            for i in 0..64 {
                unsafe { buf.write(i, i as u64) };
            }
            let v = unsafe { buf.into_vec(64) };
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
            dev.recycle_vec("count-partials", v);
            dev.reset();
            let stats = dev.buffer_pool_stats().unwrap();
            assert_eq!(stats.acquires, rep + 1);
            assert_eq!(stats.hits, rep, "reset keeps the pool warm");
        }
    }

    #[test]
    fn pooled_scatter_without_pool_matches_plain_buffer() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        let buf = dev.pooled_scatter::<u32>(4, "out");
        assert!(!buf.is_sanitized());
        assert_eq!(buf.len(), 4);
        assert!(dev.buffer_pool_stats().is_none());
        // recycling without a pool is a plain drop
        dev.recycle_vec("out", vec![1u32, 2, 3]);
    }

    #[test]
    fn corruption_poisons_the_pool_region() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        dev.enable_buffer_pool();
        dev.set_fault_plan(FaultPlan::new(4).corrupt_accesses_at(&[0]));
        let mut counts = dev.lease_vec::<u64>(16, "counts");
        counts.resize(16, 0);
        dev.corrupt_region("counts", counts.as_mut_slice())
            .expect("explicit index fires");
        dev.recycle_vec("counts", counts);
        let stats = dev.buffer_pool_stats().unwrap();
        assert_eq!(stats.poisoned_dropped, 1, "corrupted buffer never shelved");
        // the next lease misses (no recycled buffer to leak from)
        let clean = dev.lease_vec::<u64>(16, "counts");
        assert!(clean.is_empty());
        assert_eq!(dev.buffer_pool_stats().unwrap().hits, 0);
    }

    #[test]
    fn pooled_scatter_with_sanitizer_still_shadow_tracks() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        dev.enable_buffer_pool();
        dev.set_sanitizer(SanitizerConfig::full());
        // warm the pool with a stale buffer
        dev.recycle_vec("out", vec![0xAAu32; 8]);
        let buf = dev.pooled_scatter::<u32>(4, "out");
        assert!(buf.is_sanitized());
        unsafe {
            buf.write(0, 1);
            buf.write(2, 3);
        }
        let v = unsafe { buf.into_vec(4) };
        assert_eq!(v, vec![1, 0, 3, 0], "stale bytes zero-filled, reported");
        dev.commit("k", small_cfg(), LaunchOrigin::Host, KernelCost::new());
        assert!(!dev.sanitizer_clean());
    }

    #[test]
    fn advance_time_moves_clock_only() {
        let pool = ThreadPool::new(1);
        let mut dev = device(&pool);
        dev.advance_time(SimTime::from_us(5.0));
        assert!((dev.now().as_us() - 5.0).abs() < 1e-12);
        assert!(dev.records().is_empty());
    }
}
