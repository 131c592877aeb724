//! Adaptive backend planner: SampleSelect vs QuickSelect vs RadixSelect
//! vs fused top-k, chosen per query.
//!
//! The paper's headline result is that no fixed algorithm dominates:
//! SampleSelect reaches its base case in ~2 data-dependent levels, but
//! pays sampled-splitter and tree-traversal overheads; QuickSelect
//! halves slowly but is cheap per level; RadixSelect burns a fixed
//! `key_bits / 8` passes yet wins when the digits discriminate well
//! (RadiK in PAPERS.md makes the same point for large k). The planner
//! resolves the trade per query from three inputs:
//!
//! 1. a **stack-only data probe** ([`profile_data`]) — a strided sample
//!    of at most [`PROBE_LEN`] sort keys scanned for duplicate pressure,
//!    dead (non-discriminating) leading digits and first-digit skew;
//! 2. the **analytic cost model** — [`gpu_sim::cost::radix_select_estimate`]
//!    plus local estimators for the sample and quickselect recursions,
//!    all in simulated time on the target [`GpuArchitecture`];
//! 3. **live obs signals** ([`PlanSignals`]) — the collision-rate and
//!    bucket-occupancy gauges of prior queries on the same stream; when
//!    they contradict the probe (e.g. the probe missed duplicate
//!    pressure that prior passes observed), the planner overrides the
//!    model's first choice and bumps `select_planner_overrides_total`.
//!
//! The decision is **deterministic** per (data, rank, arch, config,
//! signals): the probe is a fixed stride, the estimators are pure
//! arithmetic, and ties break by the fixed candidate order. This is
//! what makes the differential planner-conformance grid in
//! `tests/planner_matrix.rs` reproducible.
//!
//! Dispatch ([`auto_select_on_device`], [`run_planned`]) calls the *exact same*
//! entry points the forced backends use, so `--algo auto` output is
//! bit-identical to the backend the decision names — pinned by the
//! planner proptests in `tests/properties.rs`.

use crate::element::SelectElement;
use crate::obs::{self, Counter};
use crate::params::SampleSelectConfig;
use crate::quickselect::quick_select_on_device;
use crate::radix::DIGIT_BITS;
use crate::recursion::{select_with_workspace, Bucketing};
use crate::workspace::SelectWorkspace;
use crate::{SelectError, SelectResult};
use gpu_sim::arch::GpuArchitecture;
use gpu_sim::cost::radix_select_estimate;
use gpu_sim::{Device, KernelCost, SimTime};
use hpc_par::simd::{configured_level, SimdLevel};

/// Elements the planner probes (strided) before deciding. Stack-sized:
/// the probe allocates nothing, so planning stays on the zero-alloc
/// warm path.
pub const PROBE_LEN: usize = 256;

/// The backend a plan names. `name()` matches the `algorithm` field of
/// the backend's [`crate::SelectReport`], so a decision can be checked
/// against what actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannedBackend {
    /// Sampled-splitter bucket selection ([`crate::recursion`]).
    Sample,
    /// Median-of-sample three-way partitioning ([`crate::quickselect`]).
    Quick,
    /// MSD radix digit bucketing ([`crate::radix`]).
    Radix,
    /// Fused top-k extraction ([`crate::topk`]) — only planned for
    /// top-k-shaped queries, never for plain rank selection.
    TopK,
    /// Bucketed approximate top-k ([`crate::approx_topk`]) — only
    /// planned for *approximate* top-k queries (a recall target below
    /// 1), where the bucket-parallel local phase beats the exact fused
    /// recursion at large `k`.
    ApproxTopK,
}

impl PlannedBackend {
    /// The `algorithm` label the chosen backend stamps on its report.
    pub fn name(self) -> &'static str {
        match self {
            PlannedBackend::Sample => "sampleselect",
            PlannedBackend::Quick => "quickselect",
            PlannedBackend::Radix => "radixselect",
            PlannedBackend::TopK => "topk-sampleselect",
            PlannedBackend::ApproxTopK => "approx-topk",
        }
    }

    /// The fixed-slot obs counter tallying decisions for this backend.
    pub fn counter(self) -> Counter {
        match self {
            PlannedBackend::Sample => Counter::PlannerSample,
            PlannedBackend::Quick => Counter::PlannerQuick,
            PlannedBackend::Radix => Counter::PlannerRadix,
            PlannedBackend::TopK => Counter::PlannerTopk,
            PlannedBackend::ApproxTopK => Counter::PlannerApproxTopk,
        }
    }

    /// All rank-query candidates, in deterministic tie-break order.
    pub const RANK_CANDIDATES: [PlannedBackend; 3] = [
        PlannedBackend::Sample,
        PlannedBackend::Quick,
        PlannedBackend::Radix,
    ];
}

impl std::fmt::Display for PlannedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a strided probe of the input's sort keys revealed. All shares
/// are in `[0, 1]` over the probe, not the full input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataProfile {
    /// Input length the probe summarizes.
    pub n: usize,
    /// Keys actually probed (`min(n, PROBE_LEN)`).
    pub probe_len: usize,
    /// Distinct sort keys / probed keys. 1.0 means no duplicate was
    /// seen; small values mean heavy duplication (equality-bucket
    /// territory for SampleSelect).
    pub distinct_ratio: f64,
    /// Share of the single most frequent sort key. Drives the expected
    /// same-address atomic replay pressure and QuickSelect's equal-pivot
    /// early exit.
    pub top_value_share: f64,
    /// Leading 8-bit digit positions on which every probed key agrees —
    /// radix passes that scan everything and discriminate nothing
    /// (low-entropy keys, or f64 data in a narrow range).
    pub dead_digits: u32,
    /// Share of the most popular digit value at the first
    /// *discriminating* digit position: radix bucket skew, i.e. how
    /// little the first live pass actually shrinks the problem.
    pub top_digit_share: f64,
}

/// Probe `data` with a fixed stride and summarize its key structure.
///
/// Deterministic (stride `n / PROBE_LEN`, no randomness) and
/// allocation-free: the keys and the digit histogram live on the stack.
pub fn profile_data<T: SelectElement>(data: &[T]) -> DataProfile {
    let n = data.len();
    let key_bits = (T::BYTES * 8) as u32;
    if n == 0 {
        return DataProfile {
            n,
            probe_len: 0,
            distinct_ratio: 1.0,
            top_value_share: 0.0,
            dead_digits: 0,
            top_digit_share: 0.0,
        };
    }
    let take = PROBE_LEN.min(n);
    let stride = n / take;
    let mut keys = [0u64; PROBE_LEN];
    for (i, slot) in keys[..take].iter_mut().enumerate() {
        *slot = data[(i * stride).min(n - 1)].to_sort_key();
    }
    let keys = &mut keys[..take];
    keys.sort_unstable();

    let mut distinct = 1usize;
    let mut run = 1usize;
    let mut max_run = 1usize;
    for i in 1..take {
        if keys[i] == keys[i - 1] {
            run += 1;
        } else {
            distinct += 1;
            max_run = max_run.max(run);
            run = 1;
        }
    }
    max_run = max_run.max(run);

    // Dead leading digits: positions where no probed key differs from
    // the first. The OR of all pairwise XORs marks every bit that
    // varies anywhere in the probe.
    let varying = keys.iter().fold(0u64, |acc, &k| acc | (k ^ keys[0]));
    let total_digits = key_bits / DIGIT_BITS;
    let mut dead_digits = 0u32;
    for d in 0..total_digits {
        let shift = key_bits - DIGIT_BITS * (d + 1);
        if (varying >> shift) & 0xff != 0 {
            break;
        }
        dead_digits += 1;
    }

    // Skew of the first discriminating digit (or of the last digit if
    // every key is identical).
    let live = dead_digits.min(total_digits.saturating_sub(1));
    let shift = key_bits - DIGIT_BITS * (live + 1);
    let mut digit_counts = [0u16; 256];
    for &k in keys.iter() {
        digit_counts[((k >> shift) & 0xff) as usize] += 1;
    }
    let top_digit = digit_counts.iter().copied().max().unwrap_or(0) as f64;

    DataProfile {
        n,
        probe_len: take,
        distinct_ratio: distinct as f64 / take as f64,
        top_value_share: max_run as f64 / take as f64,
        dead_digits,
        top_digit_share: top_digit / take as f64,
    }
}

/// Live observability signals from prior queries on the same stream,
/// fed back into planning. All fields are optional: a cold planner
/// (first query, obs disabled) plans purely from the probe + model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSignals {
    /// Last observed same-address shared-atomic replay rate, in parts
    /// per million of warp ops (the `select_atomic_collision_rate_ppm`
    /// gauge). High values mean heavier duplicate pressure than the
    /// probe saw.
    pub collision_rate_ppm: Option<u64>,
    /// Last observed non-empty bucket count of a count/histogram level
    /// (the `select_bucket_occupancy` gauge). Very low occupancy means
    /// the key space is collapsing into few buckets — bucket skew.
    pub bucket_occupancy: Option<u64>,
}

impl PlanSignals {
    /// Extract the planner-relevant gauges from a metrics snapshot
    /// (e.g. a `selectd` worker's per-session registry).
    pub fn from_snapshot(snap: &crate::obs::MetricsSnapshot) -> Self {
        let read = |name: &str| {
            let v = snap.gauge(name);
            (v != 0).then_some(v)
        };
        PlanSignals {
            collision_rate_ppm: read("select_atomic_collision_rate_ppm"),
            bucket_occupancy: read("select_bucket_occupancy"),
        }
    }
}

/// Outcome of planning one query: the chosen backend, the full estimate
/// table it was chosen from, and whether live signals overrode the
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The backend that will (or did) run.
    pub backend: PlannedBackend,
    /// What the analytic model alone would have picked.
    pub model_choice: PlannedBackend,
    /// Estimated simulated time per candidate, in candidate order.
    pub estimates: Vec<(PlannedBackend, SimTime)>,
    /// True iff live signals overrode the model's first choice.
    pub overridden: bool,
    /// The probe summary the decision was derived from.
    pub profile: DataProfile,
    /// Host SIMD dispatch level active when the plan was made (the
    /// `SELECT_SIMD`-configured level, not any test-forced override, so
    /// planning stays deterministic per process).
    pub host_simd: SimdLevel,
}

impl PlanDecision {
    /// The model's estimate for `backend`, if it was a candidate.
    pub fn estimate_for(&self, backend: PlannedBackend) -> Option<SimTime> {
        self.estimates
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|&(_, t)| t)
    }

    /// Whether two independently planned rank queries may be merged
    /// into one cross-query batch. Queries are co-plannable when the
    /// planner reached the *same* decision for both — same backend pick
    /// means the same execution strategy, so the batcher may supersede
    /// the per-query plans with one shared `multiselect` pass that
    /// amortizes the count phase across the whole group (a group-level
    /// planning decision that beats any per-query backend once two or
    /// more queries share a dataset). Mixed-plan queues never merge:
    /// the plans disagree about the data, so a shared pass would
    /// silently discard one side's decision.
    pub fn merges_with(&self, other: &PlanDecision) -> bool {
        self.backend == other.backend
    }
}

// ---------------------------------------------------------------------
// Analytic estimators
// ---------------------------------------------------------------------

/// Fractional SM occupancy of the standard launch shape over `n`
/// elements — mirror of the (private) heuristic in `gpu_sim::cost`.
fn busy_sms(arch: &GpuArchitecture, n: u64) -> f64 {
    let blocks = n.div_ceil(1024).clamp(1, 4096) as f64;
    blocks.min(arch.num_sms as f64)
}

fn launch_time(arch: &GpuArchitecture, from_device: bool, launches: f64) -> SimTime {
    let us = if from_device && arch.generation.has_dynamic_parallelism() {
        arch.device_launch_us
    } else {
        arch.host_launch_us
    };
    SimTime::from_us(us * launches)
}

fn ceil_log2(n: u64) -> u64 {
    64 - n.max(1).next_power_of_two().leading_zeros() as u64
}

/// Expected same-address replays per warp given the share of the most
/// popular bucket among a warp's 32 lanes.
fn replays_per_warp(top_share: f64) -> u64 {
    ((32.0 * top_share.clamp(0.0, 1.0)) as u64).saturating_sub(1)
}

/// Analytic SampleSelect estimate: sampled splitters, tree-traversal
/// count pass, reduce + filter per level, until the base case — or a
/// single level when duplicate pressure predicts an equality-bucket
/// exit (§IV-C: fewer distinct values than buckets means some splitter
/// pair collides and the target bucket is an equality bucket).
pub fn sample_select_estimate<T: SelectElement>(
    arch: &GpuArchitecture,
    n: u64,
    cfg: &SampleSelectConfig,
    profile: &DataProfile,
) -> SimTime {
    let b = cfg.num_buckets as u64;
    let h = cfg.tree_height() as u64;
    let s = cfg.sample_size() as u64;
    let base = cfg.base_case_size as u64;
    let oracle = cfg.oracle_bytes() as u64;
    let elem = T::BYTES as u64;

    // Duplicate-heavy inputs exit in an equality bucket almost
    // immediately: a saturated probe with fewer distinct keys than
    // half the bucket count predicts splitter collisions on level 0.
    let probe_distinct = (profile.distinct_ratio * profile.probe_len as f64) as u64;
    let equality_exit = profile.probe_len >= PROBE_LEN.min(profile.n) && probe_distinct <= b / 2;

    let mut time = SimTime::ZERO;
    let mut m = n;
    let mut level = 0u32;
    loop {
        if m <= base {
            // Base case: bitonic sort of the remainder.
            let mut c = KernelCost::new();
            c.global_read_bytes = m * elem;
            let lg = ceil_log2(m.max(2));
            c.int_ops = m * lg * lg;
            time += c.time_on(arch, busy_sms(arch, m)).total();
            time += launch_time(arch, level > 0, 1.0);
            break;
        }
        let warps = m.div_ceil(32);
        let mut c = KernelCost::new();
        // Sample draw (uncoalesced gather) + bitonic splitter sort.
        c.uncoalesced_bytes += s * elem;
        let lgs = ceil_log2(s.max(2));
        c.int_ops += s * lgs * lgs;
        // Count: stream keys, traverse the h-level tree, write oracles.
        c.global_read_bytes += m * elem;
        c.global_write_bytes += m * oracle;
        c.smem_bytes += m * ((h + 1) * elem);
        c.int_ops += m * (2 * h + 1);
        c.shared_atomic_warp_ops += warps;
        c.shared_atomic_replays += warps * replays_per_warp(profile.top_value_share);
        time += c.time_on(arch, busy_sms(arch, m)).total();
        // sample + count + reduce launches.
        time += launch_time(arch, level > 0, 3.0);
        if equality_exit {
            // The target bucket is an equality bucket: no filter pass,
            // the recursion returns the splitter value directly.
            break;
        }
        // Filter the target bucket. Sampled splitters are uneven: the
        // expected target bucket holds ~4x the ideal m/b share.
        let survivors = ((4 * m) / b).max(1).min(m / 2);
        let mut f = KernelCost::new();
        f.global_read_bytes = m * elem + m * oracle;
        f.global_write_bytes = survivors * elem;
        f.int_ops = m;
        time += f.time_on(arch, busy_sms(arch, m)).total();
        time += launch_time(arch, true, 2.0);
        m = survivors;
        level += 1;
        if level > 16 {
            break;
        }
    }
    time
}

/// Analytic QuickSelect estimate: a median-of-sample pivot, a count
/// pass and a partition write per level, halving until the base case —
/// with the three-way partition's equal-pivot early exit pulling the
/// expected depth down on duplicate-heavy inputs.
pub fn quick_select_estimate<T: SelectElement>(
    arch: &GpuArchitecture,
    n: u64,
    cfg: &SampleSelectConfig,
    profile: &DataProfile,
) -> SimTime {
    let base = cfg.base_case_size as u64;
    let elem = T::BYTES as u64;

    // If one value dominates — or the probe saturates with only a
    // handful of distinct keys — the median-of-sample pivot is almost
    // surely the target *value* itself and the count pass discovers the
    // rank inside the equal region of the 3-way partition: one pivot
    // draw plus one streaming count, no partition write, no base case.
    let probe_distinct = (profile.distinct_ratio * profile.probe_len as f64) as u64;
    let saturated = profile.probe_len >= PROBE_LEN.min(profile.n);
    if profile.top_value_share >= 0.5 || (saturated && probe_distinct <= 32) {
        let mut c = KernelCost::new();
        c.uncoalesced_bytes += 64 * elem;
        c.int_ops += 64 * 36;
        c.global_read_bytes += n * elem;
        c.int_ops += n;
        return c.time_on(arch, busy_sms(arch, n)).total() + launch_time(arch, false, 2.0);
    }

    // Otherwise: halving from n to base.
    let levels = ceil_log2(n.max(1) / base.max(1)).max(1);

    let mut time = SimTime::ZERO;
    let mut m = n;
    for level in 0..levels {
        let mut c = KernelCost::new();
        // Pivot draw + tiny bitonic median (64 sampled elements).
        c.uncoalesced_bytes += 64 * elem;
        c.int_ops += 64 * 36;
        // Count pass: stream keys, compare against the pivot.
        c.global_read_bytes += m * elem;
        c.int_ops += m;
        // Partition: re-read, write the kept half.
        c.global_read_bytes += m * elem;
        c.global_write_bytes += (m / 2) * elem;
        c.int_ops += m * 2;
        time += c.time_on(arch, busy_sms(arch, m)).total();
        time += launch_time(arch, level > 0, 3.0);
        m = (m / 2).max(base);
    }
    // Base case sort.
    let mut c = KernelCost::new();
    c.global_read_bytes = m.min(base.max(1)) * elem;
    let lg = ceil_log2(base.max(2));
    c.int_ops = base * lg * lg;
    time += c.time_on(arch, busy_sms(arch, base)).total();
    time += launch_time(arch, levels > 0, 1.0);
    time
}

/// Analytic RadixSelect estimate — thin wrapper binding the probe to
/// the cost model's generation-aware radix term.
pub fn radix_estimate<T: SelectElement>(
    arch: &GpuArchitecture,
    n: u64,
    cfg: &SampleSelectConfig,
    profile: &DataProfile,
) -> SimTime {
    // Replay pressure of a live pass follows the first-digit skew; the
    // estimate's dead passes already charge worst-case pressure.
    let replay_rate = profile.top_digit_share.clamp(0.0, 1.0);
    radix_select_estimate(
        arch,
        n,
        T::BYTES as u32,
        profile.dead_digits,
        replay_rate,
        cfg.base_case_size as u64,
    )
}

/// Analytic bucketed-approximate-top-k estimate: the local phase is
/// `b` *concurrent* per-bucket recursions (critical path = one bucket
/// over `n/b` elements), then one exact finish pass over the
/// `b · k'` candidate union.
pub fn approx_topk_estimate<T: SelectElement>(
    arch: &GpuArchitecture,
    n: u64,
    k: u64,
    acfg: &crate::approx_topk::ApproxTopKConfig,
    cfg: &SampleSelectConfig,
    profile: &DataProfile,
) -> SimTime {
    let b = (acfg.buckets as u64).clamp(1, n.max(1));
    let k_prime = acfg.k_prime(k as usize) as u64;
    let bucket = n.div_ceil(b);
    // Local phase: one bucket's rank recursion plus its k' fused write.
    let local = sample_select_estimate::<T>(arch, bucket, cfg, profile)
        + SimTime::from_ns(k_prime as f64 * T::BYTES as f64 / arch.bytes_per_ns());
    // Finish: exact fused top-k over the union (k of b·k' candidates).
    let union = (b * k_prime).min(n);
    let finish = sample_select_estimate::<T>(arch, union, cfg, profile)
        + SimTime::from_ns(k as f64 * T::BYTES as f64 / arch.bytes_per_ns());
    local + finish
}

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

/// Near-tie band for the host-throughput tie-breaker: candidates whose
/// simulated estimate is within this factor of the model winner are
/// considered indistinguishable to the model. Kept well inside the
/// planner-matrix regret gate (1.25x) so a tie falling either way can
/// never fail the gate.
const HOST_TIE_BAND: f64 = 1.05;

/// How much each backend's host hot path gains from wide SIMD dispatch,
/// as a rank (higher = bigger measured win). The sampled-splitter tree
/// descent is a gathered multi-level walk and vectorizes best; the
/// quickselect pivot masks plus compress come next; the radix digit
/// count was already a shift/mask stream the compiler vectorized, so it
/// gains least.
fn host_simd_rank(b: PlannedBackend) -> u8 {
    match b {
        PlannedBackend::Sample => 3,
        PlannedBackend::Quick => 2,
        PlannedBackend::Radix => 1,
        PlannedBackend::TopK => 0,
        PlannedBackend::ApproxTopK => 0,
    }
}

/// Plan a plain rank query from the probe and the cost model alone.
pub fn plan_rank_query<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> PlanDecision {
    plan_rank_query_with_signals(arch, data, rank, cfg, &PlanSignals::default())
}

/// Plan a plain rank query, folding in live obs signals from earlier
/// queries on the same stream.
///
/// Signal overrides are deliberately conservative — they only *demote*
/// the radix backend, never promote it: a strided probe can miss
/// duplicate pressure or bucket collapse that a full prior pass
/// observed, but the reverse (probe pessimistic, stream healthy) is
/// structurally impossible since the probe is a subset of the data.
pub fn plan_rank_query_with_signals<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    signals: &PlanSignals,
) -> PlanDecision {
    let _ = rank; // rank position does not change exact-selection cost
    let profile = profile_data(data);
    let n = data.len() as u64;

    let estimates: Vec<(PlannedBackend, SimTime)> = PlannedBackend::RANK_CANDIDATES
        .iter()
        .map(|&b| {
            let t = match b {
                PlannedBackend::Sample => sample_select_estimate::<T>(arch, n, cfg, &profile),
                PlannedBackend::Quick => quick_select_estimate::<T>(arch, n, cfg, &profile),
                PlannedBackend::Radix => radix_estimate::<T>(arch, n, cfg, &profile),
                PlannedBackend::TopK | PlannedBackend::ApproxTopK => {
                    unreachable!("top-k backends are not rank candidates")
                }
            };
            (b, t)
        })
        .collect();

    let model_choice = estimates
        .iter()
        .min_by(|a, b| a.1.as_ns().total_cmp(b.1.as_ns()))
        .map(|&(b, _)| b)
        .expect("at least one candidate");

    // Host-throughput near-tie breaker. Simulated estimates rank the
    // *device* cost and stay authoritative, but when candidates sit
    // within HOST_TIE_BAND of the winner the ordering is noise to the
    // model — break such ties toward the backend whose host kernels
    // gain the most from the active SIMD dispatch level.
    let host_simd = configured_level();
    let mut backend = model_choice;
    if host_simd == SimdLevel::Avx2 {
        let best_ns = estimates
            .iter()
            .find(|(b, _)| *b == model_choice)
            .map(|&(_, t)| t.as_ns())
            .unwrap_or(0.0);
        backend = estimates
            .iter()
            .filter(|(_, t)| t.as_ns() <= best_ns * HOST_TIE_BAND)
            .max_by_key(|(b, _)| host_simd_rank(*b))
            .map(|&(b, _)| b)
            .unwrap_or(model_choice);
    }

    // Live-signal overrides: prior passes on this stream saw pressure
    // the probe did not.
    let mut overridden = false;
    if backend == PlannedBackend::Radix {
        let hot_collisions = signals.collision_rate_ppm.is_some_and(|ppm| ppm >= 500_000);
        let collapsed_buckets = signals.bucket_occupancy.is_some_and(|occ| occ <= 2);
        if hot_collisions || collapsed_buckets {
            // Duplicate/skew pressure makes radix passes degenerate
            // (few live digits, worst-case replays); fall back to the
            // cheaper of the data-adaptive recursions.
            backend = estimates
                .iter()
                .filter(|(b, _)| *b != PlannedBackend::Radix)
                .min_by(|a, b| a.1.as_ns().total_cmp(b.1.as_ns()))
                .map(|&(b, _)| b)
                .unwrap_or(PlannedBackend::Sample);
            overridden = true;
        }
    }

    obs::counter_add(backend.counter(), 1);
    obs::gauge_set(obs::Gauge::SimdDispatchLevel, host_simd as u64);
    if overridden {
        obs::counter_add(Counter::PlannerOverrides, 1);
    }

    PlanDecision {
        backend,
        model_choice,
        estimates,
        overridden,
        profile,
        host_simd,
    }
}

/// Plan a top-k query: fused top-k extraction vs threshold-then-filter
/// via the best rank backend.
///
/// The fused kernel materializes all `k` elements in one recursion; for
/// large `k/n` the extra write traffic exceeds what a plain rank
/// selection plus one filter pass would cost, but the fused path still
/// wins operationally (single kernel family, one workspace). The
/// planner keeps the decision simple and deterministic: fused top-k for
/// `k/n <= 1/2`, otherwise the best rank backend computes the threshold.
pub fn plan_topk_query<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
) -> PlanDecision {
    let n = data.len().max(1);
    let rank = n.saturating_sub(k).min(n - 1);
    let mut rank_plan = plan_rank_query(arch, data, rank, cfg);
    if k.saturating_mul(2) <= n {
        // Fused extraction: the rank recursion plus one k-element write.
        let extra = SimTime::from_ns(k as f64 * T::BYTES as f64 / arch.bytes_per_ns());
        let base = rank_plan
            .estimate_for(rank_plan.backend)
            .unwrap_or(SimTime::ZERO);
        rank_plan
            .estimates
            .push((PlannedBackend::TopK, base + extra));
        rank_plan.model_choice = PlannedBackend::TopK;
        rank_plan.backend = PlannedBackend::TopK;
        obs::counter_add(Counter::PlannerTopk, 1);
    }
    rank_plan
}

/// Plan an *approximate* top-k query (a recall target below 1): the
/// bucketed approximate backend vs the exact fused recursion.
///
/// The exact recursion trivially meets every recall target, so the
/// approximation is chosen only where it actually pays: when the
/// bucket-parallel estimate undercuts the exact fused estimate —
/// which happens at large `k`, where the exact filter's candidate
/// copies dominate. Deterministic per (data, k, shape, arch, config).
pub fn plan_approx_topk_query<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    k: usize,
    acfg: &crate::approx_topk::ApproxTopKConfig,
    cfg: &SampleSelectConfig,
) -> PlanDecision {
    let mut plan = plan_topk_query(arch, data, k, cfg);
    let profile = plan.profile;
    let n = data.len() as u64;
    let approx = approx_topk_estimate::<T>(arch, n, k as u64, acfg, cfg, &profile);
    let exact = plan.estimate_for(plan.backend).unwrap_or(SimTime::ZERO);
    plan.estimates.push((PlannedBackend::ApproxTopK, approx));
    if approx < exact && acfg.buckets > 1 {
        plan.model_choice = PlannedBackend::ApproxTopK;
        plan.backend = PlannedBackend::ApproxTopK;
        obs::counter_add(Counter::PlannerApproxTopk, 1);
    }
    plan
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// Run a rank query on the backend a decision names — the shared
/// dispatcher for `--algo auto` and the planner proptests.
pub fn run_planned<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
    backend: PlannedBackend,
) -> Result<SelectResult<T>, SelectError> {
    match backend {
        PlannedBackend::Sample => {
            select_with_workspace(device, data, rank, cfg, ws, Bucketing::Splitters)
        }
        PlannedBackend::Quick => quick_select_on_device(device, data, rank, cfg),
        PlannedBackend::Radix => {
            select_with_workspace(device, data, rank, cfg, ws, Bucketing::Digits)
        }
        // Top-k plans answer top-k queries (`selectd` serves them through
        // the resilient driver); no rank plan names them.
        PlannedBackend::TopK | PlannedBackend::ApproxTopK => Err(SelectError::InvalidArgument {
            what: format!("{} is not a rank backend", backend.name()),
        }),
    }
}

/// Plan and run one rank query on a fresh workspace, dispatching to
/// exactly the entry point the forced backend would use (this is what
/// makes `--algo auto` bit-identical to its chosen backend).
pub fn auto_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<(PlanDecision, SelectResult<T>), SelectError> {
    let decision = plan_rank_query(device.arch(), data, rank, cfg);
    let ws = &mut SelectWorkspace::new();
    let result = run_planned(device, data, rank, cfg, ws, decision.backend)?;
    Ok((decision, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::rng::SplitMix64;
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;

    fn uniform_f32(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32 * 2.0 - 1.0).collect()
    }

    #[test]
    fn profile_sees_duplicates() {
        let dup = vec![42.0f32; 10_000];
        let p = profile_data(&dup);
        assert_eq!(p.probe_len, PROBE_LEN);
        assert!(p.top_value_share > 0.99);
        assert!(p.distinct_ratio < 0.01);
        // All four digit positions of an all-equal key are dead... but
        // dead_digits only counts them while they lead.
        assert_eq!(p.dead_digits, 4);

        let uni = uniform_f32(10_000, 1);
        let p = profile_data(&uni);
        assert!(p.distinct_ratio > 0.9);
        assert!(p.top_value_share < 0.1);
    }

    #[test]
    fn profile_sees_dead_digits() {
        // u32 keys in 0..251: the top three digit positions never vary.
        let data: Vec<u32> = (0..50_000u32).map(|i| i % 251).collect();
        let p = profile_data(&data);
        assert_eq!(p.dead_digits, 3);
        // The low digit is nearly uniform over 251 values.
        assert!(p.top_digit_share < 0.1);
    }

    #[test]
    fn planning_is_deterministic() {
        let data = uniform_f32(200_000, 7);
        let cfg = SampleSelectConfig::default();
        let arch = v100();
        let a = plan_rank_query(&arch, &data, 100_000, &cfg);
        let b = plan_rank_query(&arch, &data, 100_000, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn low_entropy_keys_avoid_radix() {
        // Three dead digit passes make the radix estimate blow up.
        let data: Vec<u32> = (0..400_000u32).map(|i| i % 251).collect();
        let cfg = SampleSelectConfig::default();
        let d = plan_rank_query(&v100(), &data, 200_000, &cfg);
        assert_ne!(d.backend, PlannedBackend::Radix);
        let radix = d.estimate_for(PlannedBackend::Radix).unwrap();
        let chosen = d.estimate_for(d.backend).unwrap();
        assert!(radix.as_ns() > chosen.as_ns());
    }

    #[test]
    fn duplicate_heavy_prefers_equality_exit() {
        // 16 distinct values: QuickSelect's median-of-sample pivot hits
        // the target value and the count pass discovers the rank inside
        // the equal region — one pivot draw plus one streaming count,
        // the cheapest shape of any backend here.
        let data: Vec<f32> = (0..300_000).map(|i| (i % 16) as f32).collect();
        let cfg = SampleSelectConfig::default();
        let d = plan_rank_query(&v100(), &data, 150_000, &cfg);
        assert_eq!(d.backend, PlannedBackend::Quick);
        let quick = d.estimate_for(PlannedBackend::Quick).unwrap();
        let sample = d.estimate_for(PlannedBackend::Sample).unwrap();
        assert!(quick.as_ns() < sample.as_ns());
    }

    #[test]
    fn signals_demote_radix() {
        let data: Vec<u32> = uniform_f32(200_000, 9)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let cfg = SampleSelectConfig::default();
        let arch = v100();
        let clean = plan_rank_query(&arch, &data, 100_000, &cfg);
        if clean.backend != PlannedBackend::Radix {
            // Signals only demote radix; nothing to assert on this arch.
            return;
        }
        let hot = PlanSignals {
            collision_rate_ppm: Some(900_000),
            bucket_occupancy: None,
        };
        let d = plan_rank_query_with_signals(&arch, &data, 100_000, &cfg, &hot);
        assert_ne!(d.backend, PlannedBackend::Radix);
        assert!(d.overridden);
        assert_eq!(d.model_choice, PlannedBackend::Radix);
    }

    #[test]
    fn auto_matches_reference_and_reports_chosen_backend() {
        let pool = ThreadPool::new(4);
        let cfg = SampleSelectConfig::default();
        for (name, data) in [
            ("uniform", uniform_f32(120_000, 3)),
            (
                "duplicate-heavy",
                (0..120_000).map(|i| (i % 8) as f32).collect(),
            ),
            ("sorted", (0..120_000).map(|i| i as f32).collect()),
        ] {
            let mut device = Device::new(v100(), &pool);
            let rank = 60_000;
            let (decision, res) = auto_select_on_device(&mut device, &data, rank, &cfg).unwrap();
            assert_eq!(
                res.value.to_bits(),
                reference_select(&data, rank).unwrap().to_bits(),
                "{name}"
            );
            assert_eq!(
                res.report.algorithm,
                decision.backend.name(),
                "{name}: report/decision mismatch"
            );
        }
    }

    #[test]
    fn topk_planning_prefers_fused_for_small_k() {
        let data = uniform_f32(100_000, 5);
        let cfg = SampleSelectConfig::default();
        let small = plan_topk_query(&v100(), &data, 100, &cfg);
        assert_eq!(small.backend, PlannedBackend::TopK);
        let large = plan_topk_query(&v100(), &data, 90_000, &cfg);
        assert_ne!(large.backend, PlannedBackend::TopK);
    }

    #[test]
    fn co_plannability_requires_equal_plans() {
        let dup: Vec<f32> = (0..200_000).map(|i| (i % 16) as f32).collect();
        let cfg = SampleSelectConfig::default();
        let a = plan_rank_query(&v100(), &dup, 100_000, &cfg);
        let b = plan_rank_query(&v100(), &dup, 50_000, &cfg);
        assert_eq!(a.backend, PlannedBackend::Quick);
        assert!(a.merges_with(&b), "same data, same plan: must merge");

        let low: Vec<u32> = (0..200_000u32).map(|i| i % 251).collect();
        let c = plan_rank_query(&v100(), &low, 100_000, &cfg);
        if c.backend != a.backend {
            assert!(!a.merges_with(&c), "differing plans must not merge");
        }
    }
}
