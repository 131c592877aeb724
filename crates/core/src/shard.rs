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
//! The descent is [`crate::recursion`]'s one level loop on the third of
//! its executors, `Shards`: K devices behind a coordinator clock, whose
//! count is every shard's count all-reduced and whose filter is every
//! shard's filter joined in shard order.
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

use crate::bitonic::bitonic_sort_with_scratch;
use crate::count::{count_kernel_scoped, Classifier, CountResult};
use crate::element::SelectElement;
use crate::filter::filter_kernel_scoped;
use crate::instrument::{ResilienceEvents, SelectReport};
use crate::obs::{self, Counter, SpanKind};
use crate::params::SampleSelectConfig;
use crate::recursion::{
    base_case_select_with, built_tree, rank_levels, splitters, validate_input, Executor,
    SplitterLevels,
};
use crate::reduce::{reduce_kernel, ReduceResult};
use crate::resilient::{jittered_backoff, Outcome, RetryPolicy};
use crate::rng::SplitMix64;
use crate::searchtree::SearchTree;
use crate::splitter::draw_splitters;
use crate::streaming::fnv1a64;
use crate::verify::{check_splitters, corrupt_elements, rank_bounds};
use crate::workspace::{KernelScratch, SelectWorkspace};
use crate::SelectError;
use gpu_sim::{
    occupancy, Device, FaultPlan, GpuArchitecture, KernelCost, LaunchConfig, LaunchOrigin, SimTime,
};
use hpc_par::ThreadPool;
use std::borrow::Cow;
use std::ops::Range;

/// A shard is a straggler when its count launch takes more than this
/// many times the cost-model prediction.
const HEDGE_FACTOR: f64 = 3.0;

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

/// Policy knobs of the sharded coordinator. Transient faults are
/// retried under [`RetryPolicy::default`], whose jittered backoff keeps
/// concurrent shards from retrying in lockstep.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (devices) the input is partitioned across.
    pub shards: usize,
    /// Hedge stragglers: re-execute a count launch that overshoots
    /// three times its cost-model prediction on a fresh spare device.
    pub hedge: bool,
    /// How many dead shards may be recovered by partition replay before
    /// the coordinator degrades to a survivor quorum.
    pub max_recoveries: u32,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            hedge: false,
            max_recoveries: 1,
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

    pub fn with_recovery_budget(mut self, recoveries: u32) -> Self {
        self.max_recoveries = recoveries;
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
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Shards the input was partitioned across.
    pub shards: usize,
    /// Recursion levels visited, the base case included.
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

/// One shard: its device and the bookkeeping recovery needs. Its
/// candidates are its slice of the level loop's input, which joins the
/// live shards' candidates in shard order.
struct ShardSlot<'a> {
    device: Device<'a>,
    /// How many candidates the shard holds.
    len: usize,
    /// The original input partition (for replay after death).
    origin: Range<usize>,
    alive: bool,
    /// FNV-1a over the candidates after the last completed level, so a
    /// replay can prove bit-identity before rejoining the query.
    fingerprint: u64,
    scratch: KernelScratch,
    /// This level's count, kept until the filter.
    count: Option<CountResult>,
}

fn local_fingerprint<T: SelectElement>(local: &[T]) -> u64 {
    let bytes: Vec<u8> = local
        .iter()
        .flat_map(|x| x.to_bits_u64().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Cost-model prediction of one shard's count-kernel time — the
/// straggler deadline is [`HEDGE_FACTOR`] times this. Deliberately
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

/// The K-shard executor of the level loop: every step runs on each live
/// shard's device, and the coordinator clock advances by the slowest
/// shard plus the interconnect traffic between them.
struct Shards<'a, T> {
    arch: &'a GpuArchitecture,
    pool: &'a ThreadPool,
    /// The whole input, which replays read their partitions from.
    data: &'a [T],
    cfg: &'a SampleSelectConfig,
    scfg: &'a ShardConfig,
    retry: RetryPolicy,
    slots: Vec<ShardSlot<'a>>,
    kill: Option<KillSpec>,
    clock: SimTime,
    /// Each completed level's splitters and bucket, for replay.
    history: Vec<(Vec<T>, usize)>,
    /// Candidates below the current ones in this run of the loop.
    below: usize,
    /// This level's straggler deadline, when hedging.
    deadline: Option<SimTime>,
    /// The survivors' candidates, joined in shard order, after a
    /// quorum loss ended the loop.
    staged: Option<Vec<T>>,
    report: ShardReport,
}

impl<'a, T: SelectElement> Shards<'a, T> {
    fn new(
        arch: &'a GpuArchitecture,
        pool: &'a ThreadPool,
        data: &'a [T],
        cfg: &'a SampleSelectConfig,
        scfg: &'a ShardConfig,
        faults: &ShardFaults,
    ) -> Self {
        let topology = ShardTopology::even(data.len(), scfg.shards);
        let slots = (0..scfg.shards)
            .map(|i| {
                let mut device = Device::new(arch.clone(), pool);
                if let Some(plan) = faults.plan_for(i) {
                    device.set_fault_plan(plan);
                }
                let origin = topology.range(i);
                ShardSlot {
                    device,
                    len: origin.len(),
                    fingerprint: local_fingerprint(&data[origin.clone()]),
                    origin,
                    alive: true,
                    scratch: KernelScratch::new(),
                    count: None,
                }
            })
            .collect();
        Self {
            arch,
            pool,
            data,
            cfg,
            scfg,
            retry: RetryPolicy::default(),
            slots,
            kill: faults.kill,
            clock: SimTime::ZERO,
            history: Vec::new(),
            below: 0,
            deadline: None,
            staged: None,
            report: ShardReport {
                shards: scfg.shards,
                ..ShardReport::default()
            },
        }
    }

    /// The live shards, in shard order.
    fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive)
            .collect()
    }

    /// Shard `i`'s candidates: its slice of the loop's input `cur`.
    fn local<'c>(&self, i: usize, cur: &'c [T]) -> &'c [T] {
        let start: usize = self.slots[..i].iter().map(|s| s.len).sum();
        &cur[start..start + self.slots[i].len]
    }

    /// Move the clock up to the latest live device.
    fn join(&mut self) {
        let live = self.slots.iter().filter(|s| s.alive);
        self.clock = live.map(|s| s.device.now()).fold(self.clock, SimTime::max);
    }

    /// Advance every live device that is behind the clock up to it
    /// (devices never rewind; a device ahead of the clock stays ahead).
    fn sync(&mut self) {
        let behind = |s: &&mut ShardSlot| s.alive && s.device.now() < self.clock;
        for s in self.slots.iter_mut().filter(behind) {
            let dt = self.clock - s.device.now();
            s.device.advance_time(dt);
        }
    }

    /// Charge `bytes` moved over the interconnect in `time`.
    fn link(&mut self, time: SimTime, bytes: u64) {
        self.report.link_time += time;
        self.report.link_bytes += bytes;
    }

    /// Kill the shard the fault plan names once its level is reached.
    fn kill_due(&mut self, cur: &[T]) -> Result<(), SelectError> {
        let level = self.history.len() as u32;
        let live = |shard| self.slots.get(shard).is_some_and(|s: &ShardSlot| s.alive);
        let Some(spec) = self.kill.filter(|k| k.level <= level && live(k.shard)) else {
            return Ok(());
        };
        self.kill = None;
        self.retire(spec.shard, "killed", cur)
    }

    /// Shard `idx` died: replay it onto a spare within the recovery
    /// budget, or drop it. Dropping it stages the survivors' candidates
    /// and ends the loop with an error, on which [`sharded_select`]
    /// reruns the loop on those candidates if there are any.
    fn retire(&mut self, idx: usize, why: &str, cur: &[T]) -> Result<(), SelectError> {
        let level = self.history.len();
        self.slots[idx].alive = false;
        let events = &mut self.report.events;
        events.fault(format!("shard {idx} dead at level {level}: {why}"));
        self.join();
        obs::absorb_records(self.slots[idx].device.records());
        if self.report.shards_recovered >= self.scfg.max_recoveries {
            self.report.quorum_degradations += 1;
            obs::counter_add(Counter::QuorumDegradations, 1);
            self.report.lost_elements += self.slots[idx].len as u64;
            let live = self.live();
            let mut survivors = Vec::new();
            for &i in &live {
                survivors.extend_from_slice(self.local(i, cur));
            }
            self.slots[idx].len = 0;
            let (k, lost, left) = (self.slots.len(), self.report.lost_elements, survivors.len());
            self.report.events.degrade(format!(
                "recovery budget exhausted; dropping shard {idx} and continuing on \
                 {}/{k} shards ({lost} candidates lost)",
                live.len()
            ));
            self.sync();
            self.staged = Some(survivors);
            return Err(SelectError::Corruption {
                invariant: "shard-quorum",
                detail: format!("{left} candidates survive losing shard {idx} at level {level}"),
            });
        }
        // Replay the dead shard's original partition through the
        // recorded descent onto a spare device.
        self.report.shards_recovered += 1;
        obs::counter_add(Counter::ShardsRecovered, 1);
        let mut device = Device::new(self.arch.clone(), self.pool);
        device.advance_time(self.clock);
        let mut local = self.data[self.slots[idx].origin.clone()].to_vec();
        let part_bytes = (local.len() * T::BYTES) as u64;
        let t = self.arch.link.transfer_time(part_bytes);
        self.clock += t;
        self.link(t, part_bytes);
        for (splitters, bucket) in &self.history {
            let tree = SearchTree::build(splitters);
            let before = local.len();
            local.retain(|&x| tree.lookup(x) as usize == *bucket);
            let mut cost = KernelCost::new();
            cost.global_read_bytes = (before * T::BYTES) as u64;
            cost.global_write_bytes = (local.len() * T::BYTES) as u64;
            cost.int_ops = before as u64 * tree.height() as u64;
            let launch = self.cfg.launch_config(before.max(1), T::BYTES);
            cost.blocks = launch.blocks as u64;
            device.commit("shard_replay_filter", launch, LaunchOrigin::Device, cost);
        }
        let (replayed, recorded) = (local_fingerprint(&local), self.slots[idx].fingerprint);
        if replayed != recorded {
            return Err(SelectError::Corruption {
                invariant: "shard-replay-fingerprint",
                detail: format!(
                    "shard {idx} replay fingerprint {replayed:#018x} != recorded {recorded:#018x}"
                ),
            });
        }
        self.clock = self.clock.max(device.now());
        self.slots[idx].device = device;
        self.slots[idx].alive = true;
        self.report.events.resume(format!(
            "shard {idx} replayed {level} levels from fingerprinted history onto a spare"
        ));
        self.sync();
        Ok(())
    }

    /// Shard `i`'s count of its candidates, retried on a fault or a
    /// histogram that does not sum to the shard's size, hedged when it
    /// straggles, and replayed onto a spare past the retry budget.
    fn count_shard(
        &mut self,
        i: usize,
        cur: &[T],
        classifier: &impl Classifier<T>,
        origin: LaunchOrigin,
    ) -> Result<CountResult, SelectError> {
        let (level, cfg) = (self.history.len(), self.cfg);
        let (mut attempt, mut started) = (0u32, self.slots[i].device.now());
        loop {
            let local = self.local(i, cur);
            let slot = &mut self.slots[i];
            let events = &mut self.report.events;
            let (device, scratch) = (&mut slot.device, &slot.scratch);
            let c = count_kernel_scoped(device, local, classifier, cfg, true, origin, scratch);
            let relaunch = if let Some(fault) = device.take_fault() {
                events.fault(format!("shard {i} count level {level}: {fault}"));
                "re-launched"
            } else if c.total() != local.len() as u64 {
                // A corrupted histogram never sums to the shard size;
                // catching it here pinpoints the shard instead of
                // poisoning the all-reduce.
                events.corruption(format!(
                    "shard {i} level {level}: histogram sums to {} for {} elements",
                    c.total(),
                    local.len()
                ));
                "recounted"
            } else {
                return Ok(self.hedge(i, c, started, local, classifier, origin));
            };
            if attempt >= self.retry.max_retries {
                self.retire(i, "retry budget exhausted", cur)?;
                (attempt, started) = (0, self.slots[i].device.now());
                continue;
            }
            let backoff = jittered_backoff(&self.retry, i as u64, attempt);
            events.retry(format!(
                "shard {i} count attempt {} {relaunch} after {backoff}",
                attempt + 2
            ));
            device.advance_time(backoff);
            attempt += 1;
        }
    }

    /// Straggler hedging: race shard `i`'s count against the deadline;
    /// past it, abandon the device and re-execute on a spare, keeping
    /// whichever finishes first.
    fn hedge(
        &mut self,
        i: usize,
        count: CountResult,
        started: SimTime,
        local: &[T],
        classifier: &impl Classifier<T>,
        origin: LaunchOrigin,
    ) -> CountResult {
        let elapsed = self.slots[i].device.now() - started;
        let Some(deadline) = self.deadline.filter(|&d| elapsed > d) else {
            return count;
        };
        self.report.stragglers_hedged += 1;
        obs::counter_add(Counter::StragglersHedged, 1);
        let mut spare = Device::new(self.arch.clone(), self.pool);
        spare.advance_time(started + deadline);
        let bytes = (local.len() * T::BYTES) as u64;
        let t = self.arch.link.transfer_time(bytes);
        spare.advance_time(t);
        self.link(t, bytes);
        let (cfg, scratch) = (self.cfg, &self.slots[i].scratch);
        let hedged = count_kernel_scoped(&mut spare, local, classifier, cfg, true, origin, scratch);
        self.report.events.retry(format!(
            "shard {i} count straggled ({elapsed} > {deadline}); hedged on a spare"
        ));
        if spare.now() < self.slots[i].device.now() {
            std::mem::swap(&mut self.slots[i].device, &mut spare);
            obs::absorb_records(spare.records());
            return hedged;
        }
        obs::absorb_records(spare.records());
        count
    }

    /// Shard `i`'s filter of `bucket` from its `count`: reduce, filter
    /// and check the output's size. A fault or a wrong size retries the
    /// shard (recount, reduce, filter); past the retry budget the shard
    /// is replayed onto a spare.
    fn filter_shard(
        &mut self,
        i: usize,
        mut count: CountResult,
        bucket: usize,
        cur: &[T],
        ws: &SelectWorkspace<T>,
    ) -> Result<Vec<T>, SelectError> {
        let (level, cfg, origin) = (self.history.len(), self.cfg, LaunchOrigin::Device);
        let mut attempt = 0u32;
        loop {
            let local = self.local(i, cur);
            let slot = &mut self.slots[i];
            let events = &mut self.report.events;
            let (device, scratch) = (&mut slot.device, &slot.scratch);
            let expected = count.counts[bucket];
            let red = reduce_kernel(device, &count, origin);
            let range = bucket as u32..bucket as u32 + 1;
            let next =
                filter_kernel_scoped(device, local, &count, &red, range, cfg, origin, scratch);
            if let Some(fault) = device.take_fault() {
                events.fault(format!("shard {i} filter level {level}: {fault}"));
            } else if next.len() as u64 != expected {
                events.corruption(format!(
                    "shard {i} level {level}: filter extracted {} elements, count says {expected}",
                    next.len()
                ));
            } else {
                return Ok(next);
            }
            if attempt >= self.retry.max_retries {
                self.retire(i, "retry budget exhausted", cur)?;
                attempt = 0;
            } else {
                let backoff = jittered_backoff(&self.retry, i as u64, attempt);
                events.retry(format!(
                    "shard {i} filter attempt {} recounted after {backoff}",
                    attempt + 2
                ));
                device.advance_time(backoff);
                attempt += 1;
            }
            count = self.count_shard(i, cur, built_tree(ws), origin)?;
        }
    }
}

/// The K-shard executor: each step of a level is a coordinator protocol
/// step over the live shards. `cur` is always the live shards'
/// candidates joined in shard order; only single-bucket filters (the
/// exact rank) are supported.
impl<T: SelectElement> Executor<T, SplitterLevels> for Shards<'_, T> {
    fn now(&self) -> f64 {
        self.clock.as_ns()
    }

    /// One global sample, gathered from the shards holding its positions,
    /// sorted on the first live shard and broadcast; corrupt splitters
    /// are redrawn.
    fn sample(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        rng: &mut SplitMix64,
        origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError> {
        self.kill_due(cur)?;
        self.report.levels += 1;
        let (b, link, level) = (cfg.num_buckets, self.arch.link, self.history.len());
        let s = cfg.sample_size().max(b);
        let one_block = |smem: usize| LaunchConfig {
            blocks: 1,
            threads_per_block: cfg.threads_per_block,
            shared_mem_bytes: (smem * T::BYTES) as u32,
        };
        let live = self.live();
        let root = live[0];
        let ends: Vec<usize> = live
            .iter()
            .scan(0, |end, &i| {
                *end += self.slots[i].len;
                Some(*end)
            })
            .collect();
        let mut attempt = 0u32;
        loop {
            // The draw's positions, replayed on a clone of its stream,
            // name the shards each gather reads from.
            let mut gathers = vec![0u64; self.slots.len()];
            let mut probe = rng.clone();
            for _ in 0..s {
                let g = probe.next_below(cur.len());
                gathers[live[ends.partition_point(|&e| e <= g)]] += 1;
            }
            let stats = draw_splitters(cur, cfg, rng, ws, bitonic_sort_with_scratch);
            // Charge the per-shard gather kernels and the (parallel,
            // point-to-point) link transfers to the coordinator.
            let mut gather_link = SimTime::ZERO;
            for &i in live.iter().filter(|&&i| gathers[i] > 0) {
                let bytes = gathers[i] * T::BYTES as u64;
                let mut cost = KernelCost::new();
                cost.uncoalesced_bytes = bytes;
                cost.blocks = 1;
                let device = &mut self.slots[i].device;
                device.commit("shard_sample", one_block(0), origin, cost);
                gather_link = gather_link.max(link.transfer_time(bytes));
                self.report.link_bytes += bytes;
            }
            self.join();
            self.clock += gather_link;
            self.report.link_time += gather_link;
            // Sort the sample on the root shard, exactly as the
            // single-device sample kernel does.
            let mut cost = KernelCost::new();
            stats.charge::<T>(&mut cost);
            cost.smem_bytes += (s * T::BYTES) as u64;
            cost.global_write_bytes += ((b - 1) * T::BYTES) as u64;
            cost.blocks = 1;
            let device = &mut self.slots[root].device;
            device.commit("shard_splitter_sort", one_block(s), origin, cost);
            corrupt_elements(device, "splitters", &mut ws.splitters);
            let Err(e) = check_splitters(&ws.splitters) else {
                break;
            };
            let events = &mut self.report.events;
            events.corruption(format!("level {level}: {e}"));
            if attempt >= self.retry.max_retries {
                return Err(e);
            }
            let backoff = jittered_backoff(&self.retry, root as u64, attempt);
            events.retry(format!(
                "level {level} redrawn after corrupt splitters ({backoff})"
            ));
            attempt += 1;
            self.join();
            self.clock += backoff;
            self.sync();
        }
        let splitter_bytes = ((b - 1) * T::BYTES) as u64;
        let t = link.broadcast_time(splitter_bytes, live.len());
        self.clock = self.clock.max(self.slots[root].device.now()) + t;
        self.link(t, splitter_bytes * (live.len() as u64 - 1));
        self.sync();
        SearchTree::rebuild_into(&mut ws.tree, &ws.splitters);
        Ok(())
    }

    /// Every live shard counts its candidates; the coordinator
    /// all-reduces the histograms and returns the totals. Each shard's
    /// own count stays with it for the filter.
    fn count(
        &mut self,
        cur: &[T],
        classifier: &impl Classifier<T>,
        cfg: &SampleSelectConfig,
        _oracles: bool,
        origin: LaunchOrigin,
        _ws: &SelectWorkspace<T>,
    ) -> Result<CountResult, SelectError> {
        let largest = self.slots.iter().filter(|s| s.alive).map(|s| s.len).max();
        let predicted = || predicted_count_time::<T>(self.arch, largest.unwrap_or(0), cfg);
        self.deadline = self.scfg.hedge.then(|| predicted() * HEDGE_FACTOR);
        for i in 0..self.slots.len() {
            self.slots[i].count = None;
            if self.slots[i].alive && self.slots[i].len > 0 {
                self.slots[i].count = Some(self.count_shard(i, cur, classifier, origin)?);
            }
        }
        self.join();
        let counts = || self.slots.iter().filter_map(|s| s.count.as_ref());
        let totals = (0..cfg.num_buckets).map(|j| counts().map(|c| c.counts[j]).sum());
        let totals: Vec<u64> = totals.collect();
        let (hist_bytes, live) = ((cfg.num_buckets * 8) as u64, self.live().len() as u64);
        let t = self.arch.link.all_reduce_time(hist_bytes, live as usize);
        self.clock += t;
        self.link(t, 2 * hist_bytes * live.saturating_sub(1));
        self.sync();
        Ok(CountResult {
            counts: totals,
            partials: Vec::new(),
            blocks: 0,
            oracles: None,
        })
    }

    /// The bucket offsets of the all-reduced totals, scanned by the
    /// coordinator; each shard reduces its own count in the filter.
    fn reduce(&mut self, count: &CountResult) -> ReduceResult {
        let mut bucket_offsets = count.counts.clone();
        let total = hpc_par::exclusive_scan(&mut bucket_offsets);
        bucket_offsets.push(total);
        ReduceResult {
            offsets: Vec::new(),
            bucket_offsets,
            blocks: 0,
        }
    }

    /// Every live shard filters its candidates; the outputs join in
    /// shard order. A shard's new candidates are committed only once
    /// every shard has succeeded.
    fn filter(
        &mut self,
        cur: &[T],
        _count: &CountResult,
        red: &ReduceResult,
        buckets: &[u32],
        _cfg: &SampleSelectConfig,
        ws: &SelectWorkspace<T>,
    ) -> Result<Vec<T>, SelectError> {
        let &[bucket] = buckets else {
            panic!("the shard executor filters one bucket");
        };
        let bucket = bucket as usize;
        let mut outputs = Vec::with_capacity(self.slots.len());
        for i in 0..self.slots.len() {
            let count = self.slots[i].count.take();
            outputs.push(
                count
                    .map(|c| self.filter_shard(i, c, bucket, cur, ws))
                    .transpose()?,
            );
        }
        let mut next = Vec::with_capacity(red.bucket_size(bucket) as usize);
        for (slot, output) in self.slots.iter_mut().zip(outputs) {
            if let Some(output) = output {
                slot.len = output.len();
                slot.fingerprint = local_fingerprint(&output);
                next.extend_from_slice(&output);
            }
        }
        self.below += red.bucket_offsets[bucket] as usize;
        self.history.push((ws.splitters.clone(), bucket));
        self.join();
        self.sync();
        Ok(next)
    }

    /// Gather every live shard's candidates onto the first and sort
    /// them there.
    fn base_case(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError> {
        self.kill_due(cur)?;
        self.report.levels += 1;
        let live = self.live();
        for &i in &live[1..] {
            let bytes = (self.slots[i].len * T::BYTES) as u64;
            let t = self.arch.link.transfer_time(bytes);
            self.clock += t;
            self.link(t, bytes);
        }
        self.sync();
        let SelectWorkspace {
            base, sort_scratch, ..
        } = ws;
        let device = &mut self.slots[live[0]].device;
        base_case_select_with(device, cur, 0, cfg, origin, base, sort_scratch);
        self.clock = self.clock.max(device.now());
        Ok(())
    }
}

/// The `rank`-th smallest element of `data` through the level loop on
/// `exec`. A quorum loss ends a run of the loop with the survivors'
/// candidates staged; the next run selects among them, mid-query, so its
/// first kernels are device-side tail launches.
fn select_levels<T: SelectElement>(
    exec: &mut Shards<'_, T>,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<T, SelectError> {
    let (ws, report) = (&mut SelectWorkspace::new(), &mut SelectReport::empty(""));
    let (mut input, mut k, mut origin) = (Cow::Borrowed(data), rank, LaunchOrigin::Host);
    loop {
        match rank_levels(exec, &input, k, cfg, ws, report, splitters(cfg), origin) {
            Ok(value) => return Ok(value),
            Err(e) => {
                let survivors = exec.staged.take().filter(|s| !s.is_empty()).ok_or(e)?;
                k = (k - exec.below).min(survivors.len() - 1);
                exec.below = 0;
                input = Cow::Owned(survivors);
                origin = LaunchOrigin::Device;
            }
        }
    }
}

/// Sharded selection of the `rank`-th smallest element of `data`
/// across `scfg.shards` simulated devices of architecture `arch`.
///
/// On a clean run the result is bit-identical to
/// [`crate::recursion::sample_select_on_device`] with the same `cfg` on
/// one device, for any shard count. Under injected faults the
/// coordinator retries, hedges, and replays as described in the module
/// docs; it returns [`Outcome::Approximate`] only after the recovery
/// budget is exhausted, and never a wrong [`Outcome::Exact`]. A shard
/// count of 0 or past the input's length is rejected with
/// [`SelectError::InvalidArgument`].
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
    let (n, shards) = (data.len(), scfg.shards);
    if shards == 0 || shards > n {
        let what = format!("shard count {shards} is outside 1..={n}, the input's length");
        return Err(SelectError::InvalidArgument { what });
    }

    let mut exec = Shards::new(arch, pool, data, cfg, scfg, faults);
    obs::counter_add(Counter::ShardsLaunched, shards as u64);
    let span_base = obs::span_depth();
    obs::span_enter(SpanKind::Query, "sharded", 0, 0.0);

    let value = select_levels(&mut exec, data, rank, cfg)?;
    exec.join();
    let degraded = exec.report.quorum_degradations > 0;

    // -- ABFT certification on the merged result: each surviving shard
    // certifies the rank of `value` within its *original* partition;
    // the coordinator sums the bounds. Skipped on degraded runs (the
    // outcome is tagged approximate; its error bound is the report's
    // lost-element count).
    if cfg.verify.certify() && !degraded {
        let (mut below, mut tied) = (0u64, 0u64);
        for s in exec.slots.iter_mut().filter(|s| s.alive) {
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
        let t = arch.link.all_reduce_time(16, exec.live().len());
        exec.join();
        exec.clock += t;
        exec.link(t, 0);
        if !(below as usize <= rank && rank < (below + tied) as usize) {
            return Err(SelectError::Corruption {
                invariant: "rank-certificate",
                detail: format!(
                    "merged result has ranks {below}..{} but {rank} was requested",
                    below + tied
                ),
            });
        }
        exec.report.events.certify(format!(
            "merged rank certificate: {rank} within [{below}, {})",
            below + tied
        ));
    }

    let outcome = if degraded {
        // The survivors' answer is exact *for the surviving data*; the
        // dropped candidates bound how far it can sit from the true
        // rank. Report its true achieved rank over what survived.
        let live = exec.slots.iter().filter(|s| s.alive);
        let achieved_rank = live.map(|s| rank_bounds(&data[s.origin.clone()], value).0);
        Outcome::Approximate {
            value,
            achieved_rank: achieved_rank.sum(),
            rank_error: exec.report.lost_elements,
        }
    } else {
        Outcome::Exact(value)
    };

    for s in exec.slots.iter().filter(|s| s.alive) {
        obs::absorb_records(s.device.records());
    }
    obs::span_close_to(span_base, exec.clock.as_ns());
    exec.report.sim_time = exec.clock;
    Ok(ShardedResult {
        outcome,
        report: exec.report,
    })
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
            let res = sharded_select(
                &v100(),
                &pool,
                &data,
                rank,
                &cfg,
                &ShardConfig::default().with_shards(k),
                &ShardFaults::default(),
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
        let err = sharded_select(
            &v100(),
            &pool,
            &data,
            500,
            &SampleSelectConfig::default(),
            &ShardConfig::default().with_shards(0),
            &ShardFaults::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, SelectError::InvalidArgument { .. }),
            "0 shards must be rejected, got {err:?}"
        );
    }

    #[test]
    fn more_shards_than_elements_is_an_invalid_argument() {
        let data = uniform(1_000, 5);
        let pool = ThreadPool::new(1);
        let err = sharded_select(
            &v100(),
            &pool,
            &data,
            500,
            &SampleSelectConfig::default(),
            &ShardConfig::default().with_shards(data.len() + 1),
            &ShardFaults::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, SelectError::InvalidArgument { .. }),
            "n + 1 shards must be rejected, got {err:?}"
        );
    }

    #[test]
    fn registry_counts_every_kernel_of_every_shard() {
        // One sample level, then the base case: each shard gathers,
        // counts, reduces and filters, and the first shard also sorts
        // the sample and the base case.
        let data = uniform(200_000, 7);
        let pool = ThreadPool::new(2);
        for k in [1usize, 2, 3, 4, 8] {
            let session = crate::obs::ObsSession::start();
            let res = sharded_select(
                &v100(),
                &pool,
                &data,
                77_777,
                &SampleSelectConfig::default(),
                &ShardConfig::default().with_shards(k),
                &ShardFaults::default(),
            )
            .unwrap();
            let snapshot = session.finish().snapshot;
            assert_eq!(res.report.levels, 2);
            let launches = snapshot.counter("select_kernel_launches_total");
            assert_eq!(launches, 2 + 4 * k as u64, "K={k}");
        }
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
            let res = sharded_select(
                &v100(),
                &pool,
                &data,
                1 << 21,
                &cfg,
                &ShardConfig::default().with_shards(k),
                &ShardFaults::default(),
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
    fn a_rerun_on_the_survivors_launches_from_the_device() {
        // Small buckets, so that the survivors count a level again.
        let data = uniform(50_000, 13);
        let cfg = SampleSelectConfig::default()
            .with_buckets(16)
            .with_base_case(64);
        let (arch, pool) = (v100(), ThreadPool::new(2));
        let scfg = ShardConfig::default()
            .with_shards(4)
            .with_recovery_budget(0);
        let faults = ShardFaults::default().kill_shard(2, 1);
        let mut exec = Shards::new(&arch, &pool, &data, &cfg, &scfg, &faults);
        select_levels(&mut exec, &data, 25_000, &cfg).unwrap();
        assert_eq!(exec.report.quorum_degradations, 1);
        // Only the fresh query's first level launches from the host; the
        // rerun on the survivors is a device-side tail launch throughout.
        for slot in exec.slots.iter().filter(|s| s.alive) {
            let records = slot.device.records();
            let host = records
                .iter()
                .take_while(|r| r.origin == LaunchOrigin::Host);
            let rest = &records[host.count()..];
            assert!(rest.iter().all(|r| r.origin == LaunchOrigin::Device));
            assert!(rest.iter().any(|r| r.name == "count"), "the rerun counts");
        }
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
        let res = sharded_select(
            &v100(),
            &pool,
            &data,
            rank,
            &cfg,
            &ShardConfig::default().with_shards(4),
            &ShardFaults::default(),
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
        let res = sharded_select(
            &v100(),
            &pool,
            &data,
            9_999,
            &cfg,
            &ShardConfig::default().with_shards(4),
            &ShardFaults::default(),
        )
        .unwrap();
        assert!(res.report.link_bytes > 0);
        assert!(res.report.link_time > SimTime::ZERO);
        assert!(res.report.link_time < res.report.sim_time);
    }
}
