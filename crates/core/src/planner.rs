//! Adaptive backend planner: SampleSelect vs RadixSelect, chosen per
//! query.
//!
//! The paper's headline result is that no fixed algorithm dominates:
//! SampleSelect reaches its base case in ~2 data-dependent levels, but
//! pays sampled-splitter and tree-traversal overheads; RadixSelect burns
//! a fixed `key_bits / 8` passes yet wins when the digits discriminate
//! well (RadiK in PAPERS.md makes the same point for large k). The
//! planner resolves the trade per query from two inputs:
//!
//! 1. a **stack-only data probe** ([`profile_data`]) — a strided sample
//!    of at most [`PROBE_LEN`] sort keys scanned for duplicate pressure,
//!    dead (non-discriminating) leading digits and first-digit skew;
//! 2. the **analytic cost model** — [`gpu_sim::cost::radix_select_estimate`]
//!    plus a local estimator for the sample recursion, in simulated time
//!    on the target [`GpuArchitecture`].
//!
//! `selectd` does not consult the model: it serves every exact rank and
//! every top-k threshold (the rank n − k) as SampleSelect after the
//! probe's certify-first count.
//!
//! **Certify-first.** The rank's own key lies within sampling noise of
//! its probe position p = rank · 256 / n, which spreads by
//! sd = sqrt(p (256 − p) / 256) slots. The candidates are the probe key
//! at p and the keys just below and above its run, minus NaN and ±0.0
//! (their `lt` tie classes hold several bit patterns). They are counted
//! when they are the only keys within 1.5 sd (at least 4 slots) of p, or
//! when the key at p alone fills 0.5 sd (at least 1 slot) on each side.
//! One `certify` count of them ([`crate::verify::rank_intervals`]) runs
//! first; a candidate whose tie range holds the rank is the answer,
//! certified by construction. Otherwise the planned backend runs.
//!
//! The decision is **deterministic** per (data, rank, arch, config):
//! the probe is a fixed stride, the estimators are pure arithmetic, and
//! ties break by the fixed candidate order. This is what makes the
//! differential planner-conformance grid in `tests/planner_matrix.rs`
//! reproducible.
//!
//! Dispatch ([`auto_select_on_device`], [`run_planned`]) calls the *exact same*
//! entry points the forced backends use, so `--algo auto` output is
//! bit-identical to the backend the decision names — pinned by the
//! planner proptests in `tests/properties.rs`.

use crate::element::SelectElement;
use crate::instrument::SelectReport;
use crate::obs::{self, Counter};
use crate::params::SampleSelectConfig;
use crate::radix::DIGIT_BITS;
use crate::recursion::{select_with_workspace, validate_input, Bucketing};
use crate::verify::rank_intervals;
use crate::workspace::SelectWorkspace;
use crate::{SelectError, SelectResult};
use gpu_sim::arch::GpuArchitecture;
use gpu_sim::cost::radix_select_estimate;
use gpu_sim::{Device, KernelCost, LaunchOrigin, SimTime};
use hpc_par::simd::configured_level;

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
    /// MSD radix digit bucketing ([`crate::radix`]).
    Radix,
}

impl PlannedBackend {
    /// The `algorithm` label the chosen backend stamps on its report.
    pub fn name(self) -> &'static str {
        match self {
            PlannedBackend::Sample => "sampleselect",
            PlannedBackend::Radix => "radixselect",
        }
    }

    /// The fixed-slot obs counter tallying decisions for this backend.
    pub fn counter(self) -> Counter {
        match self {
            PlannedBackend::Sample => Counter::PlannerSample,
            PlannedBackend::Radix => Counter::PlannerRadix,
        }
    }

    /// All rank-query candidates, in deterministic tie-break order.
    pub const RANK_CANDIDATES: [PlannedBackend; 2] =
        [PlannedBackend::Sample, PlannedBackend::Radix];
}

impl std::fmt::Display for PlannedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a rank query's drivers carry of its plan: the backend, and the
/// input positions of up to three probe elements, with distinct values,
/// whose certify-first count runs before it (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankPlan {
    pub backend: PlannedBackend,
    pub candidates: [Option<usize>; 3],
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
    /// same-address atomic replay pressure.
    pub top_value_share: f64,
    /// Leading 8-bit digit positions on which every probed key agrees —
    /// radix passes that scan everything and discriminate nothing
    /// (low-entropy keys, or f64 data in a narrow range).
    pub dead_digits: u32,
    /// Share of the most popular digit value at the first
    /// *discriminating* digit position: radix bucket skew, i.e. how
    /// little the first live pass actually shrinks the problem.
    pub top_digit_share: f64,
    /// Probe slots holding the key at the rank's probe position (0 when
    /// profiled without a rank).
    pub rank_slots: usize,
}

/// Probe `data` with a fixed stride and summarize its key structure.
///
/// Deterministic (stride `n / PROBE_LEN`, no randomness) and
/// allocation-free: the keys and the digit histogram live on the stack.
pub fn profile_data<T: SelectElement>(data: &[T]) -> DataProfile {
    probe(data, None).0
}

/// [`profile_data`], plus, for a rank, the slots its probe key fills and
/// the certify-first candidates of the module docs.
pub(crate) fn probe<T: SelectElement>(
    data: &[T],
    rank: Option<usize>,
) -> (DataProfile, [Option<usize>; 3]) {
    let n = data.len();
    let key_bits = (T::BYTES * 8) as u32;
    let mut candidates = [None; 3];
    if n == 0 {
        let profile = DataProfile {
            n,
            probe_len: 0,
            distinct_ratio: 1.0,
            top_value_share: 0.0,
            dead_digits: 0,
            top_digit_share: 0.0,
            rank_slots: 0,
        };
        return (profile, candidates);
    }
    let take = PROBE_LEN.min(n);
    let stride = n / take;
    let slot_at = |i: usize| (i * stride).min(n - 1);
    let mut keys = [0u64; PROBE_LEN];
    for (i, slot) in keys[..take].iter_mut().enumerate() {
        *slot = data[slot_at(i)].to_sort_key();
    }
    let keys = &mut keys[..take];
    keys.sort_unstable();

    // Runs of equal keys: one per distinct key.
    let runs = || keys.chunk_by(|a, b| a == b);
    let (distinct, max_run) = (runs().count(), runs().map(<[u64]>::len).max().unwrap_or(1));

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

    // The rank's probe slot (clamped: drivers validate ranks), its key's run, certify-first.
    let mut rank_slots = 0;
    if let Some(p) = rank.map(|r| (r.saturating_mul(take) / n).min(take - 1)) {
        let start = keys.partition_point(|&k| k < keys[p]);
        let end = keys.partition_point(|&k| k <= keys[p]);
        rank_slots = end - start;
        let sd = ((p * (take - p)) as f64 / take as f64).sqrt();
        let reach = |m: f64, min: usize| min.max((m * sd).ceil() as usize);
        let near = |r: usize| (0..take).filter(move |q| q.abs_diff(p) <= r);
        let picks = [start.saturating_sub(1), p, end.min(take - 1)].map(|q| keys[q]);
        let covered = near(reach(1.5, 4)).all(|q| picks.contains(&keys[q]));
        if covered || near(reach(0.5, 1)).all(|q| keys[q] == keys[p]) {
            // Never count NaN or ±0.0 (`lt` ties them to other bits), nor around such a rank key.
            let signed_zeros = T::from_f64(0.0).to_bits_u64() != T::from_f64(-0.0).to_bits_u64();
            let countable = |v: T| !(v.is_nan() || signed_zeros && v.to_f64() == 0.0);
            let find = |key| (0..take).position(|q| data[slot_at(q)].to_sort_key() == key);
            let found = picks.map(|key| slot_at(find(key).expect("picks are probe keys")));
            let (mut slots, mut last) = (candidates.iter_mut(), None);
            let rank_key = countable(data[found[1]]);
            for (key, at) in picks.into_iter().zip(found).filter(|_| rank_key) {
                if last.replace(key) != Some(key) && countable(data[at]) {
                    *slots.next().expect("one slot per pick") = Some(at);
                }
            }
        }
    }

    let profile = DataProfile {
        n,
        probe_len: take,
        distinct_ratio: distinct as f64 / take as f64,
        top_value_share: max_run as f64 / take as f64,
        dead_digits,
        top_digit_share: top_digit / take as f64,
        rank_slots,
    };
    (profile, candidates)
}

/// Outcome of planning one query: the chosen backend and the full
/// estimate table it was chosen from.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The backend that will (or did) run.
    pub backend: PlannedBackend,
    /// The certify-first candidates counted before `backend` runs (all
    /// `None` when the rank's probe key does not repeat).
    pub candidates: [Option<usize>; 3],
    /// Estimated simulated time per candidate, in candidate order.
    pub estimates: Vec<(PlannedBackend, SimTime)>,
    /// The probe summary the decision was derived from.
    pub profile: DataProfile,
}

impl PlanDecision {
    /// What the query's drivers carry of this decision.
    pub fn plan(&self) -> RankPlan {
        RankPlan {
            backend: self.backend,
            candidates: self.candidates,
        }
    }

    /// The model's estimate for `backend`, if it was a candidate.
    pub fn estimate_for(&self, backend: PlannedBackend) -> Option<SimTime> {
        self.estimates
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|&(_, t)| t)
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
/// pair collides, and when the rank's own key repeats, the target
/// bucket is an equality bucket).
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
    // half the bucket count predicts splitter collisions on level 0,
    // and a repeated key at the rank's probe position puts the rank
    // inside one of the colliding values.
    let probe_distinct = (profile.distinct_ratio * profile.probe_len as f64) as u64;
    let equality_exit = profile.probe_len >= PROBE_LEN.min(profile.n)
        && probe_distinct <= b / 2
        && profile.rank_slots >= 2;

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

// ---------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------

/// Near-tie band. Within this factor of RadixSelect's estimate the
/// ordering is noise to the model, and the tie goes to SampleSelect:
/// its estimate is the pessimistic one on random-order input (at 2^17,
/// 46.7-47.2 µs estimated against 33.1-34.8 µs run, while radix runs
/// about as estimated), and its tree descent gains the most from wide
/// SIMD on the host. Kept well inside the planner-matrix regret gate
/// (1.25x), so a tie falling either way can never fail the gate.
const NEAR_TIE_BAND: f64 = 1.05;

/// Plan a plain rank query from the probe and the cost model.
pub fn plan_rank_query<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> PlanDecision {
    let (profile, candidates) = probe(data, Some(rank));
    let n = data.len() as u64;

    use PlannedBackend::{Radix, Sample};
    let sample = sample_select_estimate::<T>(arch, n, cfg, &profile);
    let radix = radix_estimate::<T>(arch, n, cfg, &profile);
    let estimates = vec![(Sample, sample), (Radix, radix)];
    let near_tie = sample.as_ns() <= radix.as_ns() * NEAR_TIE_BAND;
    let radix_wins = radix < sample && !near_tie;
    let backend = if radix_wins { Radix } else { Sample };

    obs::counter_add(backend.counter(), 1);
    obs::gauge_set(obs::Gauge::SimdDispatchLevel, configured_level() as u64);

    PlanDecision {
        backend,
        candidates,
        estimates,
        profile,
    }
}

/// Plan a top-k query: the rank query of its threshold, the rank n − k.
pub fn plan_topk_query<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
) -> PlanDecision {
    plan_rank_query(arch, data, data.len().saturating_sub(k), cfg)
}

/// Plan an *approximate* top-k query: [`plan_topk_query`]'s decision,
/// since `selectd` serves every recall target exactly. The bucketed
/// pass of [`crate::approx_topk`] charges `b` concurrent devices for its
/// local phase, and on one device its bucket runs cost more than the
/// exact path. `acfg` is unused; once the benchmark's layer replay
/// (`perfbench`) stops calling this function, it can go.
pub fn plan_approx_topk_query<T: SelectElement>(
    arch: &GpuArchitecture,
    data: &[T],
    k: usize,
    _acfg: &crate::approx_topk::ApproxTopKConfig,
    cfg: &SampleSelectConfig,
) -> PlanDecision {
    plan_topk_query(arch, data, k, cfg)
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
        PlannedBackend::Radix => {
            select_with_workspace(device, data, rank, cfg, ws, Bucketing::Digits)
        }
    }
}

/// The report label of an answer the certify-first count proved.
pub const CERTIFY_FIRST: &str = "certify-first";

/// The certify-first count of a rank plan over the untouched input: the
/// candidate whose tie range holds `rank`, or `None` (no candidates, or
/// a miss). The caller records the certificate once the count is known
/// not to have faulted.
pub(crate) fn certify_first<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    candidates: &[Option<usize>; 3],
    cfg: &SampleSelectConfig,
) -> Option<T> {
    let values: Vec<T> = candidates.iter().flatten().map(|&i| data[i]).collect();
    if values.is_empty() {
        return None;
    }
    let intervals = rank_intervals(device, data, &values, cfg, LaunchOrigin::Host);
    let r = rank as u64;
    let (value, _) = (values.into_iter().zip(intervals)).find(|(_, i)| i.contains(&r))?;
    Some(value)
}

/// Plan and run one rank query on a fresh workspace: the certify-first
/// count, then, unless it proved the answer, exactly the entry point the
/// forced backend would use (this is what makes `--algo auto`
/// bit-identical to its chosen backend).
pub fn auto_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<(PlanDecision, SelectResult<T>), SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    validate_input(data, rank, cfg)?;
    let decision = plan_rank_query(device.arch(), data, rank, cfg);
    let start = device.records().len();
    if let Some(value) = certify_first(device, data, rank, &decision.candidates, cfg) {
        obs::absorb_device(device);
        let records = &device.records()[start..];
        let mut report = SelectReport::from_records(CERTIFY_FIRST, data.len(), records, 0, false);
        report
            .resilience
            .certify(format!("rank {rank} by {CERTIFY_FIRST}"));
        return Ok((decision, SelectResult { value, report }));
    }
    let ws = &mut SelectWorkspace::new();
    let mut result = run_planned(device, data, rank, cfg, ws, decision.backend)?;
    // A count that proved nothing still took its time.
    result.report.aggregate(&device.records()[start..]);
    Ok((decision, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::rng::SplitMix64;
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;
    use proptest::prelude::*;

    /// Auto against the reference and the forced backend on a fresh
    /// device, with the certify-first launch count: one `certify` when
    /// the plan carries candidates, and nothing else on a hit. The
    /// registry counts one query, certified iff the count answered, and
    /// the report's time covers every launch, the count's included.
    fn check_certify_first<T: SelectElement>(data: &[T], rank: usize) -> Result<(), TestCaseError> {
        let cfg = SampleSelectConfig::default()
            .with_buckets(8)
            .with_oversampling(2)
            .with_base_case(16);
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let session = crate::obs::ObsSession::start();
        let (decision, auto) = auto_select_on_device(&mut device, data, rank, &cfg).unwrap();
        let snap = session.finish().snapshot;
        let want = reference_select(data, rank).unwrap();
        prop_assert!(
            !auto.value.lt(want) && !want.lt(auto.value),
            "{auto:?} vs {want:?}"
        );

        let mut forced_dev = Device::new(v100(), &pool);
        let ws = &mut SelectWorkspace::new();
        let forced = run_planned(&mut forced_dev, data, rank, &cfg, ws, decision.backend).unwrap();
        prop_assert_eq!(auto.value.to_bits_u64(), forced.value.to_bits_u64());

        let names: Vec<&str> = device.records().iter().map(|r| r.name.as_ref()).collect();
        let counts = names.iter().filter(|&&n| n == "certify").count();
        let planned = decision.candidates.iter().any(Option::is_some);
        prop_assert_eq!(counts, usize::from(planned));
        let hit = auto.report.algorithm == CERTIFY_FIRST;
        if hit {
            prop_assert_eq!(names, ["certify"]);
        }
        prop_assert_eq!(snap.counter("select_queries_total"), 1);
        prop_assert_eq!(snap.counter("select_certified_total"), u64::from(hit));
        let records = device.records().iter();
        let total: SimTime = records.map(|r| r.duration + r.launch_overhead).sum();
        prop_assert_eq!(auto.report.total_time, total);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Small-alphabet data with one repeated value on top.
        #[test]
        fn certify_first_answers_exactly_on_small_alphabets_u32(
            seed in any::<u64>(),
            n in 1usize..3_000,
            share in 0.0f64..0.9,
            rank_frac in 0.0f64..1.0,
        ) {
            let mut rng = SplitMix64::new(seed);
            let data: Vec<u32> = (0..n)
                .map(|_| match rng.next_f64() < share {
                    true => 5,
                    false => rng.next_below(8) as u32,
                })
                .collect();
            check_certify_first(&data, ((n - 1) as f64 * rank_frac) as usize)?;
        }

        /// The same with NaN payloads and signed zeros in the alphabet,
        /// whose tie classes are never candidates.
        #[test]
        fn certify_first_answers_exactly_on_small_alphabets_f32(
            seed in any::<u64>(),
            n in 1usize..3_000,
            share in 0.0f64..0.9,
            rank_frac in 0.0f64..1.0,
        ) {
            let alphabet = [
                -1.5f32, -0.0, 0.0, 0.25, 3.0, f32::NAN, f32::from_bits(0xffc0_0001), 7.0,
            ];
            let mut rng = SplitMix64::new(seed);
            let dominant = alphabet[rng.next_below(8) as usize];
            let data: Vec<f32> = (0..n)
                .map(|_| match rng.next_f64() < share {
                    true => dominant,
                    false => alphabet[rng.next_below(8) as usize],
                })
                .collect();
            check_certify_first(&data, ((n - 1) as f64 * rank_frac) as usize)?;
        }
    }

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
        // 16 distinct values: the rank's probe key fills 16 slots, so
        // the plan counts it and its neighbours first, and one
        // `certify` pass proves the answer.
        let data: Vec<f32> = (0..300_000).map(|i| (i % 16) as f32).collect();
        let cfg = SampleSelectConfig::default();
        let d = plan_rank_query(&v100(), &data, 150_000, &cfg);
        assert_eq!(d.backend, PlannedBackend::Sample);
        let values: Vec<f32> = d.candidates.iter().flatten().map(|&i| data[i]).collect();
        assert_eq!(values, [7.0, 8.0, 9.0]);

        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let (_, res) = auto_select_on_device(&mut device, &data, 150_000, &cfg).unwrap();
        assert_eq!(res.value, 8.0);
        assert_eq!(res.report.algorithm, CERTIFY_FIRST);
        let names: Vec<&str> = device.records().iter().map(|r| r.name.as_ref()).collect();
        assert_eq!(names, ["certify"]);
        assert_eq!(res.report.resilience.certified, 1);
    }

    #[test]
    fn certify_first_skips_signed_zeros_and_nans() {
        let cfg = SampleSelectConfig::default();
        let mut rng = SplitMix64::new(5);
        let mut coin = move || rng.next_u64() as usize % 2;
        let zeros: Vec<f32> = (0..4_096).map(|_| [0.0, -0.0][coin()]).collect();
        let d = plan_rank_query(&v100(), &zeros, 2_000, &cfg);
        assert_eq!(d.candidates, [None; 3]);
        let nans: Vec<f32> = (0..4_096).map(|_| [1.0, f32::NAN][coin()]).collect();
        let d = plan_rank_query(&v100(), &nans, 3_000, &cfg);
        assert_eq!(d.candidates, [None; 3]);
        // A rank inside the zeros counts nothing, not even the 1.0 above
        // them: the answer is never a candidate.
        let mixed: Vec<f32> = (0..4_096).map(|i| [0.0, -0.0, 1.0][i % 3]).collect();
        let d = plan_rank_query(&v100(), &mixed, 1_000, &cfg);
        assert_eq!(d.candidates, [None; 3]);
        // Integer zero has one bit pattern.
        let small: Vec<u32> = (0..4_096).map(|_| coin() as u32).collect();
        let d = plan_rank_query(&v100(), &small, 1_000, &cfg);
        let values: Vec<u32> = d.candidates.iter().flatten().map(|&i| small[i]).collect();
        assert_eq!(values, [0, 1]);
    }

    #[test]
    fn equality_exit_needs_the_rank_inside_a_repeated_key() {
        // 70 % of the elements equal 0.5, the rest are continuous on
        // both sides of it: few enough distinct probe keys to predict
        // splitter collisions, but rank n/10 lands in the continuous
        // part.
        let mut rng = SplitMix64::new(11);
        let data: Vec<f32> = (0..1 << 17)
            .map(|_| match rng.next_u64() % 20 {
                0..=2 => rng.next_f64() as f32 * 0.4,
                3..=5 => 0.6 + rng.next_f64() as f32 * 0.4,
                _ => 0.5,
            })
            .collect();
        let (cfg, arch) = (SampleSelectConfig::default(), v100());
        let outside = plan_rank_query(&arch, &data, data.len() / 10, &cfg);
        let inside = plan_rank_query(&arch, &data, data.len() / 2, &cfg);
        assert_eq!(outside.profile.rank_slots, 1);
        assert_eq!(outside.candidates, [None; 3]);
        assert!(inside.profile.rank_slots >= 2);
        assert_ne!(inside.candidates, [None; 3]);
        let sample = |d: &PlanDecision| d.estimate_for(PlannedBackend::Sample).unwrap();
        assert!(sample(&outside).as_ns() > sample(&inside).as_ns());
    }

    #[test]
    fn auto_matches_reference_and_reports_chosen_backend() {
        let pool = ThreadPool::new(4);
        let cfg = SampleSelectConfig::default();
        for (name, data, certified) in [
            ("uniform", uniform_f32(120_000, 3), false),
            (
                "duplicate-heavy",
                (0..120_000).map(|i| (i % 8) as f32).collect(),
                true,
            ),
            ("sorted", (0..120_000).map(|i| i as f32).collect(), false),
        ] {
            let mut device = Device::new(v100(), &pool);
            let rank = 60_000;
            let (decision, res) = auto_select_on_device(&mut device, &data, rank, &cfg).unwrap();
            assert_eq!(
                res.value.to_bits(),
                reference_select(&data, rank).unwrap().to_bits(),
                "{name}"
            );
            let label = match certified {
                true => CERTIFY_FIRST,
                false => decision.backend.name(),
            };
            assert_eq!(
                res.report.algorithm, label,
                "{name}: report/decision mismatch"
            );
        }
    }

    #[test]
    fn a_topk_plan_is_the_plan_of_the_rank_n_minus_k() {
        let data = uniform_f32(100_000, 5);
        let cfg = SampleSelectConfig::default();
        for k in [1, 100, 50_000, 90_000, 100_000] {
            let topk = plan_topk_query(&v100(), &data, k, &cfg);
            assert_eq!(topk, plan_rank_query(&v100(), &data, 100_000 - k, &cfg));
        }
    }

    #[test]
    fn certify_first_candidates_follow_the_rank() {
        let dup: Vec<f32> = (0..200_000).map(|i| (i % 16) as f32).collect();
        let cfg = SampleSelectConfig::default();
        let a = plan_rank_query(&v100(), &dup, 100_000, &cfg);
        let b = plan_rank_query(&v100(), &dup, 50_000, &cfg);
        assert_eq!(a.backend, PlannedBackend::Sample);
        assert_ne!(a.candidates, [None; 3], "certify-first plan");
        assert_ne!(a.candidates, b.candidates);
    }
}
