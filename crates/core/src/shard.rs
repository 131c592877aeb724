//! Fault-tolerant sharded selection across multiple simulated devices.
//!
//! The paper's sample-select recursion generalizes to scale-out exactly
//! the way GPU Sample Sort distributes across memory spaces: every
//! shard holds a contiguous partition of the data, the coordinator
//! draws **one global splitter sample** (so the splitter tree is
//! bit-identical to a single-device run), each shard counts its local
//! elements into the shared bucket histogram, the per-shard histograms
//! are all-reduced, and the recursion descends into the winning bucket
//! on every shard at once. Because the `filter` kernel is stable and
//! partitions are concatenated in shard order, the surviving element
//! sequence after every level is exactly the single-device sequence —
//! the whole descent, and therefore the result, is bit-identical to
//! K=1 for any shard count on a clean run.
//!
//! Robustness is the headline:
//!
//! * **Per-shard fault plans** — each shard's device can independently
//!   fail launches, corrupt memory, or spike latency
//!   ([`ShardFaults`]).
//! * **Straggler hedging** — each count launch races a cost-model
//!   deadline; a shard that overshoots it is re-executed on a fresh
//!   spare device and the slow device is abandoned (the classic
//!   tail-at-scale hedge).
//! * **Failed-shard recovery** — a shard that exhausts its retry
//!   budget is replayed from the original input partition through the
//!   recorded per-level `(splitters, bucket)` history onto a spare
//!   device; a FNV-1a fingerprint recorded after every level (the same
//!   machinery the streaming checkpoint uses) proves the replay is
//!   bit-identical before the query continues.
//! * **Quorum degradation** — once the recovery budget is exhausted,
//!   the dead shard's candidates are dropped and the query finishes on
//!   the survivors, returning a *tagged* [`Outcome::Approximate`]
//!   (with the lost-element count as the rank-error bound) instead of
//!   an error or a silently wrong exact answer.
//!
//! Simulated time accounts for coordination: sample gathers, splitter
//! broadcasts, histogram all-reduces, and re-partition traffic are all
//! charged through the architecture's [`gpu_sim::LinkModel`].

use crate::count::{count_kernel_scoped, CountResult};
use crate::element::SelectElement;
use crate::filter::filter_kernel_scoped;
use crate::instrument::ResilienceEvents;
use crate::obs::{self, Counter, Histogram, SpanKind};
use crate::params::SampleSelectConfig;
use crate::recursion::{base_case_select, recycle_count, recycle_level, validate_input};
use crate::reduce::reduce_kernel;
use crate::resilient::{jittered_backoff, Outcome, RetryPolicy};
use crate::rng::SplitMix64;
use crate::searchtree::SearchTree;
use crate::streaming::fnv1a64;
use crate::verify::{check_splitters, corrupt_elements, rank_bounds};
use crate::workspace::KernelScratch;
use crate::{bitonic, SelectError};
use gpu_sim::{
    occupancy, Device, FaultPlan, GpuArchitecture, KernelCost, LaunchConfig, LaunchOrigin, SimTime,
};
use hpc_par::ThreadPool;
use std::ops::Range;

/// Recursion-depth guard (matches the single-device driver's).
const MAX_LEVELS: u32 = 64;

/// How the input is partitioned across shards: `K + 1` monotone
/// boundaries with `boundaries[0] == 0` and `boundaries[K] == n`.
/// Shard `i` owns `boundaries[i]..boundaries[i+1]`.
///
/// The topology participates in the streaming checkpoint fingerprint
/// (a resume under a different shard layout would silently misread
/// offsets), which is why it hashes itself with the same FNV-1a the
/// checkpoint codec uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTopology {
    boundaries: Vec<u64>,
}

impl ShardTopology {
    /// Evenly split `n` elements across `shards` contiguous partitions
    /// (the first `n % shards` partitions get one extra element).
    pub fn even(n: usize, shards: usize) -> Self {
        assert!(shards >= 1, "topology needs at least one shard");
        let mut boundaries = Vec::with_capacity(shards + 1);
        for i in 0..=shards {
            boundaries.push((i as u64 * n as u64) / shards as u64);
        }
        Self { boundaries }
    }

    /// The trivial single-shard topology (what every non-sharded run
    /// implicitly uses).
    pub fn single(n: usize) -> Self {
        Self::even(n, 1)
    }

    /// An explicit (possibly uneven) partition plan. `boundaries` must
    /// start at 0, end at `n`, and be monotone non-decreasing, with at
    /// least one shard.
    pub fn from_boundaries(boundaries: Vec<u64>) -> Self {
        assert!(boundaries.len() >= 2, "topology needs at least one shard");
        assert_eq!(boundaries[0], 0, "first boundary must be 0");
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be monotone"
        );
        Self { boundaries }
    }

    pub fn shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    pub fn total(&self) -> usize {
        *self.boundaries.last().unwrap() as usize
    }

    /// The half-open input range owned by shard `i`.
    pub fn range(&self, i: usize) -> Range<usize> {
        self.boundaries[i] as usize..self.boundaries[i + 1] as usize
    }

    /// FNV-1a hash over the shard count and every partition boundary;
    /// folded into checkpoint fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(8 * (self.boundaries.len() + 1));
        bytes.extend_from_slice(&(self.shards() as u64).to_le_bytes());
        for b in &self.boundaries {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

/// "Kill shard `shard` at the start of recursion level `level`" — the
/// deterministic shard-death injection used by tests and
/// `selectcli --kill-shard i@step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub shard: usize,
    pub level: u32,
}

impl std::str::FromStr for KillSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (shard, level) = s
            .split_once('@')
            .ok_or_else(|| format!("expected SHARD@LEVEL, got {s:?}"))?;
        Ok(KillSpec {
            shard: shard
                .trim()
                .parse()
                .map_err(|e| format!("bad shard index {shard:?}: {e}"))?,
            level: level
                .trim()
                .parse()
                .map_err(|e| format!("bad level {level:?}: {e}"))?,
        })
    }
}

/// Policy knobs of the sharded coordinator.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (devices) the input is partitioned across.
    pub shards: usize,
    /// Hedge stragglers: re-execute a count launch that overshoots the
    /// cost-model deadline on a fresh spare device.
    pub hedge: bool,
    /// A shard is a straggler when its count launch takes more than
    /// `hedge_factor` times the cost-model prediction.
    pub hedge_factor: f64,
    /// How many dead shards may be recovered by partition replay before
    /// the coordinator degrades to a survivor quorum.
    pub max_recoveries: u32,
    /// Per-shard transient-fault retry policy (the jittered backoff
    /// keeps concurrent shards from retrying in lockstep).
    pub retry: RetryPolicy,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            hedge: false,
            hedge_factor: 3.0,
            max_recoveries: 1,
            retry: RetryPolicy::default(),
        }
    }
}

impl ShardConfig {
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    pub fn with_hedge(mut self, on: bool) -> Self {
        self.hedge = on;
        self
    }

    pub fn with_hedge_factor(mut self, factor: f64) -> Self {
        self.hedge_factor = factor;
        self
    }

    pub fn with_recovery_budget(mut self, recoveries: u32) -> Self {
        self.max_recoveries = recoveries;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Fault injection for a sharded run: an optional [`FaultPlan`] per
/// shard plus an optional deterministic shard kill.
#[derive(Debug, Clone, Default)]
pub struct ShardFaults {
    plans: Vec<Option<FaultPlan>>,
    /// Kill one shard outright at the start of a recursion level.
    pub kill: Option<KillSpec>,
}

impl ShardFaults {
    /// Arm `plan` on shard `shard`.
    pub fn with_plan(mut self, shard: usize, plan: FaultPlan) -> Self {
        if self.plans.len() <= shard {
            self.plans.resize(shard + 1, None);
        }
        self.plans[shard] = Some(plan);
        self
    }

    /// Kill shard `shard` at the start of level `level`.
    pub fn kill_shard(mut self, shard: usize, level: u32) -> Self {
        self.kill = Some(KillSpec { shard, level });
        self
    }

    fn plan_for(&self, shard: usize) -> Option<FaultPlan> {
        self.plans.get(shard).cloned().flatten()
    }
}

/// Coordinator-side accounting of one sharded query.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shards the input was partitioned across.
    pub shards: usize,
    /// Recursion levels executed.
    pub levels: u32,
    /// Coordinator clock at completion (the critical-path simulated
    /// time: per-level max over shards plus all interconnect traffic).
    pub sim_time: SimTime,
    /// Simulated time spent on inter-device traffic (gathers,
    /// broadcasts, all-reduces, re-partitioning).
    pub link_time: SimTime,
    /// Bytes moved across the interconnect.
    pub link_bytes: u64,
    /// Stragglers hedged onto a spare device.
    pub stragglers_hedged: u32,
    /// Dead shards recovered by partition replay.
    pub shards_recovered: u32,
    /// 1 when the query finished degraded on a survivor quorum.
    pub quorum_degradations: u32,
    /// Candidate elements lost to dropped shards (0 unless degraded).
    pub lost_elements: u64,
    /// Resilience event log across all shards and the coordinator.
    pub events: ResilienceEvents,
}

/// Result of a sharded selection: the tagged outcome plus the
/// coordinator's report.
#[derive(Debug, Clone)]
pub struct ShardedResult<T> {
    pub outcome: Outcome<T>,
    pub report: ShardReport,
}

/// One shard's state: its device, its share of the surviving
/// candidates, and the bookkeeping recovery needs.
struct ShardSlot<'p, T: SelectElement> {
    device: Device<'p>,
    /// This shard's slice of the current candidate set, in input order.
    local: Vec<T>,
    /// The original input partition (for replay after death).
    origin: Range<usize>,
    alive: bool,
    /// FNV-1a over `local` after the last completed level, so a replay
    /// can prove bit-identity before rejoining the query.
    fingerprint: u64,
    scratch: KernelScratch,
}

fn local_fingerprint<T: SelectElement>(local: &[T]) -> u64 {
    let mut bytes = Vec::with_capacity(local.len() * 8);
    for &x in local {
        bytes.extend_from_slice(&x.to_bits_u64().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Cost-model prediction of one shard's count-kernel time — the
/// straggler deadline is `hedge_factor` times this. Deliberately
/// optimistic (no replay or collision terms): a hedge fires only on a
/// genuinely pathological launch, and a false hedge merely re-executes
/// deterministic work on a spare.
fn predicted_count_time<T: SelectElement>(
    arch: &GpuArchitecture,
    n: usize,
    cfg: &SampleSelectConfig,
) -> SimTime {
    if n == 0 {
        return SimTime::ZERO;
    }
    let launch = cfg.launch_config(n, T::BYTES);
    let occ = occupancy(arch, &launch);
    let height = (cfg.num_buckets.max(2) as f64).log2().ceil() as u64;
    let mut cost = KernelCost::new();
    cost.global_read_bytes = (n * T::BYTES) as u64;
    cost.global_write_bytes = (n * cfg.oracle_bytes()) as u64;
    cost.int_ops = n as u64 * height;
    cost.shared_atomic_warp_ops = n.div_ceil(32) as u64;
    cost.blocks = launch.blocks as u64;
    cost.time_on(arch, occ.effective_sms).total() + SimTime::from_us(arch.host_launch_us)
}

/// Advance every live device that is behind `clock` up to it (devices
/// never rewind; a device ahead of the coordinator stays ahead).
fn sync_devices<T: SelectElement>(shards: &mut [ShardSlot<'_, T>], clock: SimTime) {
    for s in shards.iter_mut().filter(|s| s.alive) {
        if s.device.now() < clock {
            let dt = clock - s.device.now();
            s.device.advance_time(dt);
        }
    }
}

fn max_alive_now<T: SelectElement>(shards: &[ShardSlot<'_, T>]) -> SimTime {
    shards
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.device.now())
        .fold(SimTime::ZERO, SimTime::max)
}

/// Why a shard stopped responding mid-level.
enum ShardDeath {
    RetriesExhausted,
    Killed,
}

/// Sharded selection of the `rank`-th smallest element of `data`
/// across `scfg.shards` simulated devices of architecture `arch`.
///
/// On a clean run the result is bit-identical to
/// [`crate::sampleselect::sample_select_on_device`] with the same
/// `cfg` on one device, for any shard count. Under injected faults the
/// coordinator retries, hedges, and replays as described in the module
/// docs; it returns [`Outcome::Approximate`] only after the recovery
/// budget is exhausted, and never a wrong [`Outcome::Exact`]. A shard
/// count of 0 is rejected with [`SelectError::InvalidArgument`].
pub fn sharded_select<T: SelectElement>(
    arch: &GpuArchitecture,
    pool: &ThreadPool,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    scfg: &ShardConfig,
    faults: &ShardFaults,
) -> Result<ShardedResult<T>, SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    validate_input(data, rank, cfg)?;
    if scfg.shards == 0 {
        return Err(SelectError::InvalidArgument {
            what: "shard count must be at least 1".to_string(),
        });
    }

    let n = data.len();
    let k_shards = scfg.shards;
    let topology = ShardTopology::even(n, k_shards);
    let link = arch.link;
    let b = cfg.num_buckets;
    let base_threshold = cfg.base_case_size.max(cfg.sample_size());

    let mut shards: Vec<ShardSlot<'_, T>> = (0..k_shards)
        .map(|i| {
            let mut device = Device::new(arch.clone(), pool);
            if let Some(plan) = faults.plan_for(i) {
                device.set_fault_plan(plan);
            }
            let range = topology.range(i);
            ShardSlot {
                local: data[range.clone()].to_vec(),
                origin: range,
                device,
                alive: true,
                fingerprint: 0,
                scratch: KernelScratch::new(),
            }
        })
        .collect();
    for s in &mut shards {
        s.fingerprint = local_fingerprint(&s.local);
    }

    obs::counter_add(Counter::ShardsLaunched, k_shards as u64);
    let span_base = obs::span_depth();
    if obs::enabled() {
        obs::span_enter(SpanKind::Query, "sharded", 0, 0.0);
    }

    let mut events = ResilienceEvents::default();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut clock = SimTime::ZERO;
    let mut link_time = SimTime::ZERO;
    let mut link_bytes = 0u64;
    let mut stragglers_hedged = 0u32;
    let mut shards_recovered = 0u32;
    let mut quorum_degradations = 0u32;
    let mut lost_elements = 0u64;
    let mut degraded = false;

    let mut k = rank;
    let mut level: u32 = 0;
    let mut levels_run: u32 = 0;
    // Per-level (splitters, bucket) descent history, for replay.
    let mut history: Vec<(Vec<T>, usize)> = Vec::new();
    let mut level_retries: u32 = 0;
    let mut kill_pending = faults.kill;

    // Handles one shard death: replay onto a spare within budget, or
    // drop the shard and degrade to the survivor quorum. Returns Err
    // only when nothing survives or a replay fails verification.
    macro_rules! handle_death {
        ($idx:expr, $why:expr) => {{
            let idx: usize = $idx;
            let why_detail = match $why {
                ShardDeath::RetriesExhausted => "retry budget exhausted",
                ShardDeath::Killed => "killed",
            };
            shards[idx].alive = false;
            events.fault(format!("shard {idx} dead at level {level}: {why_detail}"));
            clock = clock.max(max_alive_now(&shards));
            if shards_recovered < scfg.max_recoveries {
                // Replay the dead shard's original partition through
                // the recorded descent onto a spare device.
                shards_recovered += 1;
                obs::counter_add(Counter::ShardsRecovered, 1);
                let mut device = Device::new(arch.clone(), pool);
                device.advance_time(clock);
                let origin = shards[idx].origin.clone();
                let mut local = data[origin.clone()].to_vec();
                let part_bytes = (local.len() * T::BYTES) as u64;
                let t = link.transfer_time(part_bytes);
                clock += t;
                link_time += t;
                link_bytes += part_bytes;
                for (splitters, bucket) in &history {
                    let tree = SearchTree::build(splitters);
                    let before = local.len();
                    local.retain(|&x| tree.lookup(x) as usize == *bucket);
                    let mut cost = KernelCost::new();
                    cost.global_read_bytes = (before * T::BYTES) as u64;
                    cost.global_write_bytes = (local.len() * T::BYTES) as u64;
                    cost.int_ops = before as u64 * tree.height() as u64;
                    let launch = cfg.launch_config(before.max(1), T::BYTES);
                    cost.blocks = launch.blocks as u64;
                    device.commit("shard_replay_filter", launch, LaunchOrigin::Device, cost);
                }
                let replayed = local_fingerprint(&local);
                if replayed != shards[idx].fingerprint {
                    return Err(SelectError::Corruption {
                        invariant: "shard-replay-fingerprint",
                        detail: format!(
                            "shard {idx} replay fingerprint {replayed:#018x} != recorded {:#018x}",
                            shards[idx].fingerprint
                        ),
                    });
                }
                clock = clock.max(device.now());
                obs::absorb_device(&shards[idx].device);
                shards[idx].device = device;
                shards[idx].local = local;
                shards[idx].alive = true;
                events.resume(format!(
                    "shard {idx} replayed {} levels from fingerprinted history onto a spare",
                    history.len()
                ));
            } else {
                // Quorum degradation: drop the shard's candidates and
                // finish on the survivors with a tagged approximation.
                quorum_degradations += 1;
                obs::counter_add(Counter::QuorumDegradations, 1);
                degraded = true;
                lost_elements += shards[idx].local.len() as u64;
                obs::absorb_device(&shards[idx].device);
                shards[idx].local = Vec::new();
                let survivors = shards.iter().filter(|s| s.alive).count();
                let remaining: usize = shards
                    .iter()
                    .filter(|s| s.alive)
                    .map(|s| s.local.len())
                    .sum();
                if survivors == 0 || remaining == 0 {
                    return Err(SelectError::Corruption {
                        invariant: "shard-quorum",
                        detail: format!(
                            "no surviving candidates after losing shard {idx} at level {level}"
                        ),
                    });
                }
                k = k.min(remaining - 1);
                events.degrade(format!(
                    "recovery budget exhausted; dropping shard {idx} and continuing on \
                     {survivors}/{k_shards} shards ({lost_elements} candidates lost)"
                ));
            }
            sync_devices(&mut shards, clock);
        }};
    }

    let value = 'recursion: loop {
        if levels_run >= MAX_LEVELS {
            return Err(SelectError::RecursionLimit);
        }

        // Deterministic shard kill at the start of its level.
        if let Some(spec) = kill_pending {
            if spec.level <= level && spec.shard < shards.len() && shards[spec.shard].alive {
                kill_pending = None;
                handle_death!(spec.shard, ShardDeath::Killed);
                continue 'recursion;
            }
        }

        let alive: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].alive).collect();
        let total_len: usize = alive.iter().map(|&i| shards[i].local.len()).sum();
        debug_assert!(total_len > 0);
        let origin = if level == 0 {
            LaunchOrigin::Host
        } else {
            LaunchOrigin::Device
        };
        if obs::enabled() {
            obs::span_enter(SpanKind::Level, "shard-level", level as u64, clock.as_ns());
        }
        levels_run += 1;

        // -- base case: gather the survivors onto one device and sort.
        if total_len <= base_threshold {
            let root = alive[0];
            let mut gathered = Vec::with_capacity(total_len);
            for &i in &alive {
                gathered.extend_from_slice(&shards[i].local);
                if i != root {
                    let bytes = (shards[i].local.len() * T::BYTES) as u64;
                    let t = link.transfer_time(bytes);
                    clock += t;
                    link_time += t;
                    link_bytes += bytes;
                }
            }
            sync_devices(&mut shards, clock);
            let v = base_case_select(&mut shards[root].device, &gathered, k, cfg, origin);
            clock = clock.max(shards[root].device.now());
            if obs::enabled() {
                obs::span_close_to(span_base + 1, clock.as_ns());
            }
            break 'recursion v;
        }

        // -- sample: one global draw, routed to the owning shards.
        let s = cfg.sample_size().max(b);
        let mut sample = Vec::with_capacity(s);
        let mut gather_counts = vec![0u64; shards.len()];
        {
            // Cumulative lengths over the alive shards, in shard order
            // (== offsets into the logical concatenated candidate set).
            let mut cum = Vec::with_capacity(alive.len() + 1);
            cum.push(0usize);
            for &i in &alive {
                cum.push(cum.last().unwrap() + shards[i].local.len());
            }
            for _ in 0..s {
                let g = rng.next_below(total_len);
                let which = cum.partition_point(|&c| c <= g) - 1;
                let shard = alive[which];
                sample.push(shards[shard].local[g - cum[which]]);
                gather_counts[shard] += 1;
            }
        }
        // Charge the per-shard gather kernels and the (parallel,
        // point-to-point) link transfers to the coordinator.
        let mut gather_link = SimTime::ZERO;
        for &i in &alive {
            let g = gather_counts[i];
            if g == 0 {
                continue;
            }
            let mut cost = KernelCost::new();
            cost.uncoalesced_bytes = g * T::BYTES as u64;
            cost.blocks = 1;
            let launch = LaunchConfig {
                blocks: 1,
                threads_per_block: cfg.threads_per_block,
                shared_mem_bytes: 0,
            };
            shards[i]
                .device
                .commit("shard_sample", launch, origin, cost);
            gather_link = gather_link.max(link.transfer_time(g * T::BYTES as u64));
            link_bytes += g * T::BYTES as u64;
        }
        clock = clock.max(max_alive_now(&shards)) + gather_link;
        link_time += gather_link;

        // -- splitters: sort the sample on the root shard, exactly as
        // the single-device sample kernel does.
        let root = alive[0];
        let mut sort_scratch = Vec::new();
        let stats = bitonic::bitonic_sort_with_scratch(&mut sample, &mut sort_scratch);
        let mut splitters: Vec<T> = (1..b).map(|i| sample[i * s / b]).collect();
        {
            let mut cost = KernelCost::new();
            stats.charge::<T>(&mut cost);
            cost.smem_bytes += (s * T::BYTES) as u64;
            cost.global_write_bytes += ((b - 1) * T::BYTES) as u64;
            cost.blocks = 1;
            let launch = LaunchConfig {
                blocks: 1,
                threads_per_block: cfg.threads_per_block,
                shared_mem_bytes: (s * T::BYTES) as u32,
            };
            shards[root]
                .device
                .commit("shard_splitter_sort", launch, origin, cost);
        }
        corrupt_elements(&mut shards[root].device, "splitters", &mut splitters);
        if let Err(e) = check_splitters(&splitters) {
            events.corruption(format!("level {level}: {e}"));
            level_retries += 1;
            if level_retries > scfg.retry.max_retries {
                return Err(e);
            }
            let backoff = jittered_backoff(&scfg.retry, root as u64, level_retries - 1);
            events.retry(format!(
                "level {level} redrawn after corrupt splitters ({backoff})"
            ));
            clock = clock.max(max_alive_now(&shards)) + backoff;
            sync_devices(&mut shards, clock);
            continue 'recursion;
        }
        let splitter_bytes = ((b - 1) * T::BYTES) as u64;
        let t = link.broadcast_time(splitter_bytes, alive.len());
        clock = clock.max(shards[root].device.now()) + t;
        link_time += t;
        link_bytes += splitter_bytes * (alive.len() as u64 - 1);
        sync_devices(&mut shards, clock);
        let tree = SearchTree::build(&splitters);

        // -- count: local histograms, with per-shard retry, straggler
        // hedging, and death on an exhausted budget.
        let mut counts: Vec<Option<CountResult>> = (0..shards.len()).map(|_| None).collect();
        let deadline_base = if scfg.hedge {
            Some(predicted_count_time::<T>(
                arch,
                alive.iter().map(|&i| shards[i].local.len()).max().unwrap(),
                cfg,
            ))
        } else {
            None
        };
        for &i in &alive {
            if shards[i].local.is_empty() {
                continue;
            }
            let started = shards[i].device.now();
            let mut attempt = 0u32;
            let count = loop {
                let slot = &mut shards[i];
                let c = count_kernel_scoped(
                    &mut slot.device,
                    &slot.local,
                    &tree,
                    cfg,
                    true,
                    origin,
                    &slot.scratch,
                );
                if let Some(fault) = slot.device.take_fault() {
                    events.fault(format!("shard {i} count level {level}: {fault}"));
                    recycle_count(&mut slot.device, c);
                    if attempt >= scfg.retry.max_retries {
                        break None;
                    }
                    let backoff = jittered_backoff(&scfg.retry, i as u64, attempt);
                    events.retry(format!(
                        "shard {i} count attempt {} re-launched after {backoff}",
                        attempt + 2
                    ));
                    slot.device.advance_time(backoff);
                    attempt += 1;
                    continue;
                }
                // A corrupted histogram never sums to the shard size;
                // catching it here pinpoints the shard instead of
                // poisoning the all-reduce.
                let sum: u64 = c.counts.iter().sum();
                if sum != slot.local.len() as u64 {
                    events.corruption(format!(
                        "shard {i} level {level}: histogram sums to {sum} for {} elements",
                        slot.local.len()
                    ));
                    recycle_count(&mut slot.device, c);
                    if attempt >= scfg.retry.max_retries {
                        break None;
                    }
                    let backoff = jittered_backoff(&scfg.retry, i as u64, attempt);
                    events.retry(format!(
                        "shard {i} count attempt {} recounted after {backoff}",
                        attempt + 2
                    ));
                    slot.device.advance_time(backoff);
                    attempt += 1;
                    continue;
                }
                break Some(c);
            };
            let Some(count) = count else {
                handle_death!(i, ShardDeath::RetriesExhausted);
                for (d, c) in shards.iter_mut().zip(counts.iter_mut()) {
                    if let Some(c) = c.take() {
                        recycle_count(&mut d.device, c);
                    }
                }
                continue 'recursion;
            };
            // Straggler hedging: race the launch against the deadline;
            // past it, abandon the device and re-execute on a spare.
            if let Some(base) = deadline_base {
                let elapsed = shards[i].device.now() - started;
                let deadline = base * scfg.hedge_factor;
                if elapsed > deadline {
                    stragglers_hedged += 1;
                    obs::counter_add(Counter::StragglersHedged, 1);
                    let mut spare = Device::new(arch.clone(), pool);
                    spare.advance_time(started + deadline);
                    let bytes = (shards[i].local.len() * T::BYTES) as u64;
                    let t = link.transfer_time(bytes);
                    spare.advance_time(t);
                    link_time += t;
                    link_bytes += bytes;
                    let hedged = count_kernel_scoped(
                        &mut spare,
                        &shards[i].local,
                        &tree,
                        cfg,
                        true,
                        origin,
                        &shards[i].scratch,
                    );
                    events.retry(format!(
                        "shard {i} count straggled ({elapsed} > {deadline}); hedged on a spare"
                    ));
                    if spare.now() < shards[i].device.now() {
                        obs::absorb_device(&shards[i].device);
                        recycle_count(&mut shards[i].device, count);
                        shards[i].device = spare;
                        counts[i] = Some(hedged);
                        continue;
                    }
                }
            }
            counts[i] = Some(count);
        }

        // -- all-reduce the histograms through the coordinator.
        clock = clock.max(max_alive_now(&shards));
        let alive: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].alive).collect();
        let mut totals = vec![0u64; b];
        for &i in &alive {
            if let Some(c) = &counts[i] {
                for (t, &c) in totals.iter_mut().zip(c.counts.iter()) {
                    *t += c;
                }
            }
        }
        let hist_bytes = (b * 8) as u64;
        let t = link.all_reduce_time(hist_bytes, alive.len());
        clock += t;
        link_time += t;
        if alive.len() > 1 {
            link_bytes += 2 * hist_bytes * (alive.len() as u64 - 1);
        }
        sync_devices(&mut shards, clock);

        // -- pick the target bucket from the global histogram.
        let mut bucket_offsets = Vec::with_capacity(b + 1);
        let mut running = 0u64;
        for &c in &totals {
            bucket_offsets.push(running);
            running += c;
        }
        bucket_offsets.push(running);
        let bucket = hpc_par::scan::bucket_for_rank(&bucket_offsets[..b], k as u64);
        if totals[bucket] == 0 {
            return Err(SelectError::Corruption {
                invariant: "bucket-for-rank",
                detail: format!("rank {k} maps to empty bucket {bucket} on level {level}"),
            });
        }

        obs::gauge_set(
            crate::obs::Gauge::BucketOccupancy,
            totals.iter().filter(|&&c| c > 0).count() as u64,
        );

        // -- equality bucket: all elements equal, answer found early.
        if tree.is_equality_bucket(bucket) {
            for (d, c) in shards.iter_mut().zip(counts.iter_mut()) {
                if let Some(c) = c.take() {
                    recycle_count(&mut d.device, c);
                }
            }
            let v = tree.equality_value(bucket);
            obs::counter_add(Counter::EqualityBucketExits, 1);
            if obs::enabled() {
                obs::span_close_to(span_base + 1, clock.as_ns());
            }
            break 'recursion v;
        }

        // -- filter: every shard keeps its slice of the target bucket.
        // Outputs are staged and applied only once *every* shard
        // succeeds: a mid-loop fault re-enters the level, and survivors
        // that already filtered must still hold their pre-level locals
        // (`k` is only adjusted after a fully successful filter pass).
        let mut staged: Vec<Option<Vec<T>>> = (0..shards.len()).map(|_| None).collect();
        let mut shard_died = None;
        for &i in &alive {
            let count = match counts[i].take() {
                Some(c) => c,
                None => continue, // empty shard
            };
            let expected = count.counts[bucket];
            let slot = &mut shards[i];
            let red = reduce_kernel(&mut slot.device, &count, LaunchOrigin::Device);
            let next = filter_kernel_scoped(
                &mut slot.device,
                &slot.local,
                &count,
                &red,
                bucket as u32..bucket as u32 + 1,
                cfg,
                LaunchOrigin::Device,
                &slot.scratch,
            );
            let fault = slot.device.take_fault();
            let sized_ok = next.len() as u64 == expected;
            recycle_level(&mut slot.device, count, red);
            if let Some(fault) = fault {
                events.fault(format!("shard {i} filter level {level}: {fault}"));
                shard_died = Some(i);
                break;
            }
            if !sized_ok {
                events.corruption(format!(
                    "shard {i} level {level}: filter extracted {} elements, count says {expected}",
                    next.len()
                ));
                shard_died = Some(i);
                break;
            }
            staged[i] = Some(next);
        }
        if let Some(i) = shard_died {
            // Filter-phase faults share the level-retry budget; past
            // it the shard is declared dead. Either way the level is
            // re-entered (a redraw is cheaper than partial-level
            // bookkeeping, and only faulted runs ever take this path).
            for (d, c) in shards.iter_mut().zip(counts.iter_mut()) {
                if let Some(c) = c.take() {
                    recycle_count(&mut d.device, c);
                }
            }
            level_retries += 1;
            if level_retries > scfg.retry.max_retries {
                handle_death!(i, ShardDeath::RetriesExhausted);
            } else {
                let backoff = jittered_backoff(&scfg.retry, i as u64, level_retries - 1);
                events.retry(format!(
                    "level {level} re-entered after shard {i} filter fault ({backoff})"
                ));
                clock = clock.max(max_alive_now(&shards)) + backoff;
                sync_devices(&mut shards, clock);
            }
            continue 'recursion;
        }

        // -- descend: the whole filter pass succeeded, commit it.
        for (slot, next) in shards.iter_mut().zip(staged) {
            if let Some(next) = next {
                slot.local = next;
            }
        }
        k -= bucket_offsets[bucket] as usize;
        history.push((splitters, bucket));
        for s in shards.iter_mut().filter(|s| s.alive) {
            s.fingerprint = local_fingerprint(&s.local);
        }
        obs::observe(Histogram::LevelKeptElements, totals[bucket]);
        clock = clock.max(max_alive_now(&shards));
        sync_devices(&mut shards, clock);
        if obs::enabled() {
            obs::span_close_to(span_base + 1, clock.as_ns());
        }
        level += 1;
        level_retries = 0;
    };

    clock = clock.max(max_alive_now(&shards));

    // -- ABFT certification on the merged result: each surviving shard
    // certifies the rank of `value` within its *original* partition;
    // the coordinator sums the bounds. Skipped on degraded runs (the
    // outcome is tagged approximate; its error bound is the report's
    // lost-element count).
    if cfg.verify.certify() && !degraded {
        let mut below = 0u64;
        let mut tied = 0u64;
        for s in shards.iter_mut().filter(|s| s.alive) {
            let part = &data[s.origin.clone()];
            let (lo, eq) = rank_bounds(part, value);
            below += lo;
            tied += eq;
            let launch = cfg.launch_config(part.len().max(1), T::BYTES);
            let mut cost = KernelCost::new();
            cost.global_read_bytes = (part.len() * T::BYTES) as u64;
            cost.int_ops = 2 * part.len() as u64;
            cost.blocks = launch.blocks as u64;
            s.device
                .commit("shard_certify", launch, LaunchOrigin::Host, cost);
        }
        let t = link.all_reduce_time(16, shards.iter().filter(|s| s.alive).count());
        clock = clock.max(max_alive_now(&shards)) + t;
        link_time += t;
        if !(below as usize <= rank && rank < (below + tied) as usize) {
            return Err(SelectError::Corruption {
                invariant: "rank-certificate",
                detail: format!(
                    "merged result has ranks {below}..{} but {rank} was requested",
                    below + tied
                ),
            });
        }
        events.certify(format!(
            "merged rank certificate: {rank} within [{below}, {})",
            below + tied
        ));
    }

    let outcome = if degraded {
        // The survivors' answer is exact *for the surviving data*; the
        // dropped candidates bound how far it can sit from the true
        // rank. Report its true achieved rank over what survived.
        let mut below = 0u64;
        for s in shards.iter().filter(|s| s.alive) {
            below += rank_bounds(&data[s.origin.clone()], value).0;
        }
        Outcome::Approximate {
            value,
            achieved_rank: below,
            rank_error: lost_elements,
        }
    } else {
        Outcome::Exact(value)
    };

    obs::counter_add(Counter::Queries, 1);
    obs::counter_add(Counter::RecursionLevels, levels_run as u64);
    for s in shards.iter().filter(|s| s.alive) {
        obs::absorb_device(&s.device);
    }
    if obs::enabled() {
        obs::span_close_to(span_base, clock.as_ns());
    }

    Ok(ShardedResult {
        outcome,
        report: ShardReport {
            shards: k_shards,
            levels: levels_run,
            sim_time: clock,
            link_time,
            link_bytes,
            stragglers_hedged,
            shards_recovered,
            quorum_degradations,
            lost_elements,
            events,
        },
    })
}

/// [`sharded_select`] without fault injection (the clean leg).
pub fn sharded_select_clean<T: SelectElement>(
    arch: &GpuArchitecture,
    pool: &ThreadPool,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    scfg: &ShardConfig,
) -> Result<ShardedResult<T>, SelectError> {
    sharded_select(arch, pool, data, rank, cfg, scfg, &ShardFaults::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::recursion::sample_select_on_device;
    use gpu_sim::arch::v100;

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    fn single_device_value(data: &[f32], rank: usize, cfg: &SampleSelectConfig) -> f32 {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        sample_select_on_device(&mut device, data, rank, cfg)
            .unwrap()
            .value
    }

    #[test]
    fn topology_even_partitions_cover_input() {
        let t = ShardTopology::even(10, 3);
        assert_eq!(t.shards(), 3);
        assert_eq!(t.total(), 10);
        let covered: usize = (0..3).map(|i| t.range(i).len()).sum();
        assert_eq!(covered, 10);
        assert_ne!(t.fingerprint(), ShardTopology::even(10, 2).fingerprint());
        assert_ne!(t.fingerprint(), ShardTopology::even(11, 3).fingerprint());
    }

    #[test]
    fn kill_spec_parses() {
        let spec: KillSpec = "1@2".parse().unwrap();
        assert_eq!(spec, KillSpec { shard: 1, level: 2 });
        assert!("nope".parse::<KillSpec>().is_err());
        assert!("1@x".parse::<KillSpec>().is_err());
    }

    #[test]
    fn clean_sharded_is_bit_identical_to_single_device() {
        let data = uniform(40_000, 42);
        let cfg = SampleSelectConfig::default();
        let rank = 13_337;
        let expected = single_device_value(&data, rank, &cfg);
        let pool = ThreadPool::new(2);
        for k in [1usize, 2, 4, 8] {
            let res = sharded_select_clean(
                &v100(),
                &pool,
                &data,
                rank,
                &cfg,
                &ShardConfig::default().with_shards(k),
            )
            .unwrap();
            assert!(res.outcome.is_exact());
            assert_eq!(
                res.outcome.value().to_bits(),
                expected.to_bits(),
                "K={k} diverged from the single-device result"
            );
            assert!(res.report.events.is_clean());
        }
    }

    #[test]
    fn zero_shards_is_an_invalid_argument() {
        let data = uniform(1_000, 5);
        let pool = ThreadPool::new(1);
        let err = sharded_select_clean(
            &v100(),
            &pool,
            &data,
            500,
            &SampleSelectConfig::default(),
            &ShardConfig::default().with_shards(0),
        )
        .unwrap_err();
        assert!(
            matches!(err, SelectError::InvalidArgument { .. }),
            "0 shards must be rejected, got {err:?}"
        );
    }

    #[test]
    fn sharded_sim_time_scales_down_with_shards() {
        // Large enough that per-shard compute dwarfs the per-level
        // interconnect latency (the regime sharding exists for).
        let data = uniform(1 << 22, 7);
        let cfg = SampleSelectConfig::default();
        let pool = ThreadPool::new(2);
        let mut times = Vec::new();
        for k in [1usize, 4] {
            let res = sharded_select_clean(
                &v100(),
                &pool,
                &data,
                1 << 21,
                &cfg,
                &ShardConfig::default().with_shards(k),
            )
            .unwrap();
            times.push(res.report.sim_time);
        }
        // 4 shards must beat 1 despite the interconnect overhead.
        assert!(
            times[1] < times[0],
            "K=4 ({}) not faster than K=1 ({})",
            times[1],
            times[0]
        );
    }

    #[test]
    fn launch_failures_on_one_shard_are_retried() {
        let data = uniform(30_000, 3);
        let cfg = SampleSelectConfig::default();
        let rank = 10_000;
        let expected = single_device_value(&data, rank, &cfg);
        let pool = ThreadPool::new(2);
        let faults = ShardFaults::default().with_plan(1, FaultPlan::new(5).fail_launches_at(&[1]));
        let res = sharded_select(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default().with_shards(4),
            &faults,
        )
        .unwrap();
        assert_eq!(res.outcome, Outcome::Exact(expected));
        assert!(res.report.events.faults_observed >= 1);
        assert!(res.report.events.retries >= 1);
        assert_eq!(res.report.shards_recovered, 0);
    }

    #[test]
    fn killed_shard_is_recovered_bit_identically() {
        let data = uniform(50_000, 11);
        let cfg = SampleSelectConfig::default();
        let rank = 25_000;
        let expected = single_device_value(&data, rank, &cfg);
        let pool = ThreadPool::new(2);
        for kill_level in [0u32, 1] {
            let faults = ShardFaults::default().kill_shard(1, kill_level);
            let res = sharded_select(
                &v100(),
                &pool,
                &data,
                rank,
                &cfg,
                &ShardConfig::default().with_shards(4),
                &faults,
            )
            .unwrap();
            assert_eq!(
                res.outcome,
                Outcome::Exact(expected),
                "kill at level {kill_level} lost exactness"
            );
            assert_eq!(res.report.shards_recovered, 1);
            assert_eq!(res.report.quorum_degradations, 0);
        }
    }

    #[test]
    fn exhausted_recovery_budget_degrades_to_tagged_approximate() {
        let data = uniform(50_000, 13);
        let cfg = SampleSelectConfig::default();
        let rank = 25_000;
        let pool = ThreadPool::new(2);
        let faults = ShardFaults::default().kill_shard(2, 1);
        let res = sharded_select(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default()
                .with_shards(4)
                .with_recovery_budget(0),
            &faults,
        )
        .unwrap();
        match res.outcome {
            Outcome::Approximate { rank_error, .. } => {
                assert!(rank_error > 0);
                assert_eq!(rank_error, res.report.lost_elements);
            }
            Outcome::Exact(_) => panic!("degraded run must tag its result approximate"),
        }
        assert_eq!(res.report.quorum_degradations, 1);
        assert!(res.report.events.degradations >= 1);
    }

    #[test]
    fn latency_spike_triggers_hedge() {
        let data = uniform(1 << 18, 17);
        let cfg = SampleSelectConfig::default();
        let rank = 1 << 17;
        let expected = single_device_value(&data, rank, &cfg);
        let pool = ThreadPool::new(2);
        let faults =
            ShardFaults::default().with_plan(0, FaultPlan::new(9).latency_spikes(1.0, 50.0));
        let res = sharded_select(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default().with_shards(4).with_hedge(true),
            &faults,
        )
        .unwrap();
        assert_eq!(res.outcome, Outcome::Exact(expected));
        assert!(
            res.report.stragglers_hedged >= 1,
            "a 50x latency spike must trip the cost-model deadline"
        );
        // Hedging bounds the critical path: the run must beat the
        // un-hedged one.
        let unhedged = sharded_select(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default().with_shards(4),
            &ShardFaults::default().with_plan(0, FaultPlan::new(9).latency_spikes(1.0, 50.0)),
        )
        .unwrap();
        assert!(res.report.sim_time < unhedged.report.sim_time);
    }

    #[test]
    fn bitflips_on_one_shard_are_detected_and_retried() {
        let data = uniform(30_000, 23);
        let cfg = SampleSelectConfig::default();
        let rank = 15_000;
        let expected = single_device_value(&data, rank, &cfg);
        let pool = ThreadPool::new(2);
        let faults = ShardFaults::default()
            .with_plan(2, FaultPlan::new(31).bitflips(1.0).max_corruptions(2));
        let res = sharded_select(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default().with_shards(4),
            &faults,
        )
        .unwrap();
        assert_eq!(res.outcome, Outcome::Exact(expected));
        assert!(res.report.events.corruptions_detected >= 1);
    }

    #[test]
    fn certify_runs_on_merged_result() {
        let data = uniform(20_000, 29);
        let cfg = SampleSelectConfig::default().with_verify(crate::verify::VerifyPolicy::Paranoid);
        let rank = 5_000;
        let pool = ThreadPool::new(2);
        let res = sharded_select_clean(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default().with_shards(4),
        )
        .unwrap();
        assert!(res.outcome.is_exact());
        assert_eq!(res.report.events.certified, 1);
        assert_eq!(res.outcome.value(), reference_select(&data, rank).unwrap());
    }

    #[test]
    fn link_traffic_is_accounted() {
        let data = uniform(20_000, 37);
        let cfg = SampleSelectConfig::default();
        let pool = ThreadPool::new(2);
        let res = sharded_select_clean(
            &v100(),
            &pool,
            &data,
            9_999,
            &cfg,
            &ShardConfig::default().with_shards(4),
        )
        .unwrap();
        assert!(res.report.link_bytes > 0);
        assert!(res.report.link_time > SimTime::ZERO);
        assert!(res.report.link_time < res.report.sim_time);
    }
}
