//! The one level loop behind every exact, fused top-k, multi-rank and
//! sort query: recursive bucket selection (Fig. 1 / §IV-E) with the
//! recursion kept "on the device".
//!
//! Each level runs `count → reduce → (select_bucket) → filter` and
//! descends into the bucket(s) holding the target. Three traits are the
//! loop's axes. `LevelBucketing` is how an element gets its bucket:
//! SampleSelect draws a splitter sample and rebuilds the search tree,
//! RadixSelect takes the next 8-bit digit of the sort key. `Target` is
//! what the query selects: one rank (`Rank`), the fused top-k of §IV-I
//! or its bottom-k mirror (`Fused`), several ranks (`Ranks`), or every
//! bucket, which is sample sort (`All`, §VI). The filter takes a set of
//! buckets and writes them bucket-major, so `Ranks` and `All` slice one
//! output at the bucket bounds.
//! `Executor` is where a level's steps run: a simulated [`Device`]
//! charges them as kernels, the host executor of [`crate::cpu`] runs them
//! on a thread pool and charges nothing, and the shard executor of
//! [`crate::shard`] runs them on K devices behind a coordinator. The
//! checks, guards, spans and report exist once.
//!
//! A level is every pending segment of one depth, breadth first: the
//! base case sorts the small ones, and each step of the others runs once
//! for all of them. On a simulated device each step of a level is one
//! launch ([`segmented_launch`]) that charges honestly: the sum of the
//! segments' kernel costs, plus every block's read of its segment's
//! descriptor and, for the count, of its segment's search tree, with
//! the busy SMs of all their blocks. `Rank` and `Fused` have one segment
//! per level, so their launches are the plain kernels. Because the
//! recursion depth is not known a priori and host↔device round trips
//! are expensive, the paper keeps the control flow on the GPU with CUDA
//! Dynamic Parallelism tail launches; the simulator charges every launch
//! after level 0's count kernel the (lower) device-launch latency by
//! committing it with [`LaunchOrigin::Device`].

use crate::bitonic::bitonic_select_with_scratch;
use crate::count::{count_kernel_scoped, Classifier, CountResult, OracleBuf};
use crate::element::SelectElement;
use crate::filter::{bucket_set, filter_buckets};
use crate::instrument::SelectReport;
use crate::multiselect::MultiSelectResult;
use crate::obs::{self, Gauge, Histogram, SpanKind, Track};
use crate::params::SampleSelectConfig;
use crate::radix::{key_bits, DigitClassifier, DIGIT_BITS};
use crate::reduce::{reduce_kernel, reduce_totals_kernel, ReduceResult};
use crate::rng::SplitMix64;
use crate::samplesort::SortResult;
use crate::searchtree::SearchTree;
use crate::splitter::sample_kernel_into;
use crate::topk::TopKResult;
use crate::verify::{check_filter_size, check_histogram};
use crate::workspace::SelectWorkspace;
use crate::{SelectError, SelectResult};
use gpu_sim::{Device, KernelCost, KernelRecord, LaunchConfig, LaunchOrigin};

/// Safety net: the expected depth is `log_b(n / base) + 1`, i.e. 2-3 for
/// every practical input (and at most `key_bits / 8` digit passes);
/// anything past this indicates a logic error.
const MAX_LEVELS: u32 = 64;

/// Validate common select preconditions; shared with the other drivers.
pub fn validate_input<T: SelectElement>(
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<(), SelectError> {
    if data.is_empty() {
        return Err(SelectError::EmptyInput);
    }
    if rank >= data.len() {
        return Err(SelectError::RankOutOfRange {
            rank,
            len: data.len(),
        });
    }
    if cfg.check_input {
        if let Some(index) = data.iter().position(|x| x.is_nan()) {
            return Err(SelectError::NanInput { index });
        }
    }
    Ok(())
}

/// Charge and record the base-case sorting kernel (§IV-D): load the
/// remaining elements into shared memory, bitonic-sort, return rank `k`.
pub fn base_case_select<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> T {
    base_case_select_with(
        device,
        data,
        k,
        cfg,
        origin,
        &mut Vec::new(),
        &mut Vec::new(),
    )
}

/// [`base_case_select`] with caller-owned element scratch: `buf` receives
/// the working copy and `sort_scratch` the padded bitonic buffer, so a
/// warm workspace makes the base case allocation-free.
pub fn base_case_select_with<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    k: usize,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
    buf: &mut Vec<T>,
    sort_scratch: &mut Vec<T>,
) -> T {
    buf.clear();
    buf.extend_from_slice(data);
    let (value, stats) = bitonic_select_with_scratch(buf, k, sort_scratch);
    let mut cost = KernelCost::new();
    cost.blocks = 1;
    cost.global_read_bytes += (data.len() * T::BYTES) as u64;
    stats.charge::<T>(&mut cost);
    let launch = LaunchConfig {
        blocks: 1,
        threads_per_block: cfg.threads_per_block,
        shared_mem_bytes: (stats.padded_len * T::BYTES) as u32,
    };
    device.commit("base_sort", launch, origin, cost);
    value
}

/// Charge the tiny device-side kernel that picks the bucket containing
/// the rank and computes the launch parameters for the next level
/// (§IV-E: "additional kernels that select the bucket containing the
/// kth-smallest element, and compute the kernel launch parameters").
fn select_bucket_kernel(device: &mut Device, num_buckets: usize, origin: LaunchOrigin) {
    let mut cost = KernelCost::new();
    cost.blocks = 1;
    cost.global_read_bytes += num_buckets as u64 * 4;
    cost.int_ops += num_buckets as u64;
    let launch = LaunchConfig {
        blocks: 1,
        threads_per_block: 32,
        shared_mem_bytes: 0,
    };
    device.commit("select_bucket", launch, origin, cost);
}

/// Hand a finished level's device buffers back to the buffer pool (a
/// no-op drop when the pool is disarmed). Regions poisoned by injected
/// corruption are dropped by the pool instead of being recycled.
pub(crate) fn recycle_level(device: &mut Device, count: CountResult, red: ReduceResult) {
    recycle_count(device, count);
    device.recycle_vec("reduce-offsets", red.offsets);
    device.recycle_vec("bucket-offsets", red.bucket_offsets);
}

/// Return a dead count-kernel result's buffers to the device pool
/// (used standalone by the streaming histogram pass, which has no
/// reduce result).
pub(crate) fn recycle_count(device: &mut Device, count: CountResult) {
    device.recycle_vec("counts", count.counts);
    device.recycle_vec("count-partials", count.partials);
    match count.oracles {
        Some(OracleBuf::U8(v)) => device.recycle_vec("oracles", v),
        Some(OracleBuf::U16(v)) => device.recycle_vec("oracles", v),
        None => {}
    }
}

/// How the level loop buckets elements: the strategy of a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucketing {
    /// SampleSelect: search-tree descent over sampled splitters.
    Splitters,
    /// RadixSelect: one 8-bit digit of the sort key per level.
    Digits,
}

/// Exact SampleSelect on a simulated device: the `rank`-th smallest
/// element of `data` (0-based).
pub fn sample_select_on_device<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
) -> Result<SelectResult<T>, SelectError> {
    let ws = &mut SelectWorkspace::new();
    select_with_workspace(device, data, rank, cfg, ws, Bucketing::Splitters)
}

/// Exact selection with a reusable [`SelectWorkspace`]: all host-side
/// element scratch (sample, splitters, sort buffers, base-case copy,
/// search tree, kernel scratch) lives in `ws` and is reused across
/// levels and across queries, and the level buffers (counts, partials,
/// oracles, prefix sums, filter output) are leased from and recycled to
/// the device [`gpu_sim::BufferPool`] when it is armed. The result is
/// bit-identical to the workspace-less path (pinned by a property test).
pub fn select_with_workspace<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
    bucketing: Bucketing,
) -> Result<SelectResult<T>, SelectError> {
    let mut report = SelectReport::empty("");
    let value = select_into(device, data, rank, cfg, ws, &mut report, bucketing)?;
    Ok(SelectResult { value, report })
}

/// [`select_with_workspace`] writing into a caller-owned report.
///
/// The report shell is re-aggregated in place, so a caller that keeps
/// the same [`SelectReport`] across queries (as the zero-alloc suite
/// and long-lived `selectd` workers do) pays **zero** heap allocations
/// for an entire warm query — kernels, level buffers, and report
/// assembly included. On error the report keeps its previous contents.
pub fn select_into<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
    report: &mut SelectReport,
    bucketing: Bucketing,
) -> Result<T, SelectError> {
    let host = LaunchOrigin::Host;
    match bucketing {
        Bucketing::Splitters => {
            rank_levels(device, data, rank, cfg, ws, report, splitters(cfg), host)
        }
        Bucketing::Digits => {
            let digits = DigitClassifier { shift: 0 };
            rank_levels(device, data, rank, cfg, ws, report, digits, host)
        }
    }
}

/// The `rank`-th smallest element of `data` through the level loop,
/// whose first kernels are launched from `origin`: the host for a fresh
/// query, the device for a query that reruns mid-way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_levels<T: SelectElement, B: LevelBucketing<T>, E: Executor<T, B>>(
    exec: &mut E,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
    report: &mut SelectReport,
    bucketing: B,
    origin: LaunchOrigin,
) -> Result<T, SelectError> {
    let mut target = Rank {
        pending: Some((Vec::new(), 0, rank)),
        value: None,
    };
    let ranks = std::slice::from_ref(&rank);
    let run = (&mut target, origin);
    level_loop(exec, data, ranks, cfg, ws, report, bucketing, run)?;
    Ok(target.value.expect("the level loop resolves its rank"))
}

/// The `k` largest (`largest`) or smallest elements of `data`: the fused
/// top-k of §IV-I or its bottom-k mirror, by SampleSelect's levels run
/// on `exec`.
pub(crate) fn fused_with_workspace<T: SelectElement, E: Executor<T, SplitterLevels>>(
    exec: &mut E,
    data: &[T],
    k: usize,
    largest: bool,
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
) -> Result<TopKResult<T>, SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    if k == 0 || k > data.len() {
        let len = data.len();
        return Err(SelectError::RankOutOfRange { rank: k, len });
    }
    let rank = if largest { data.len() - k } else { k - 1 };
    let mut fused = Fused {
        largest,
        pending: Some((Vec::new(), 0, rank)),
        elements: Vec::with_capacity(k),
        threshold: None,
    };
    let (mut report, levels) = (SelectReport::empty(""), splitters(cfg));
    let ranks = std::slice::from_ref(&rank);
    let run = (&mut fused, LaunchOrigin::Host);
    level_loop(exec, data, ranks, cfg, ws, &mut report, levels, run)?;
    let threshold = fused.threshold.expect("the loop resolves the threshold");
    let elements = fused.elements;
    Ok(TopKResult {
        elements,
        threshold,
        report,
    })
}

/// The elements of `data` at each of `ranks` (any order, duplicates
/// allowed), by SampleSelect's levels run on `exec`.
pub(crate) fn ranks_with_workspace<T: SelectElement, E: Executor<T, SplitterLevels>>(
    exec: &mut E,
    data: &[T],
    ranks: &[usize],
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
) -> Result<MultiSelectResult<T>, SelectError> {
    // No rank, no segment: nothing launches.
    let goal = || (Vec::new(), 0, ranks.iter().copied().enumerate().collect());
    let mut multi = Ranks {
        pending: Vec::from_iter((!ranks.is_empty()).then(goal)),
        values: vec![None; ranks.len()],
    };
    let (mut report, levels) = (SelectReport::empty(""), splitters(cfg));
    let run = (&mut multi, LaunchOrigin::Host);
    level_loop(exec, data, ranks, cfg, ws, &mut report, levels, run)?;
    let values = multi.values.into_iter().collect::<Option<_>>();
    let values = values.expect("the loop resolves every rank");
    Ok(MultiSelectResult { values, report })
}

/// `data` ascending: sample sort (§VI), SampleSelect's levels with every
/// bucket descending, run on `exec`.
pub(crate) fn sort_levels<T: SelectElement, E: Executor<T, SplitterLevels>>(
    exec: &mut E,
    data: &[T],
    cfg: &SampleSelectConfig,
) -> Result<SortResult<T>, SelectError> {
    // An input of one element is sorted and launches nothing.
    let pending = Vec::from_iter((data.len() > 1).then_some((Vec::new(), 0, 0)));
    let (sorted, ws) = (data.to_vec(), &mut SelectWorkspace::new());
    let (mut all, mut report) = (All { pending, sorted }, SelectReport::empty(""));
    let (levels, run) = (splitters(cfg), (&mut all, LaunchOrigin::Host));
    level_loop(exec, data, &[], cfg, ws, &mut report, levels, run)?;
    let sorted = all.sorted;
    Ok(SortResult { sorted, report })
}

/// What a backend of the level loop decides: the bucketing axis.
pub(crate) trait LevelBucketing<T: SelectElement>: Sized {
    /// Report label and query-span name.
    const ALGORITHM: &'static str;

    /// Buckets at or below this size go to the base-case sort.
    fn base_case_size(cfg: &SampleSelectConfig) -> usize;

    /// Whether the elements remaining at depth `level` are known to be
    /// all equal before another level runs.
    fn exhausted(&self, _level: u32) -> bool {
        false
    }

    /// Set up the classifier of each of a level's `segments` segments,
    /// whose elements `curs` yields in order.
    #[allow(clippy::too_many_arguments)]
    fn prepare<'c, E: Executor<T, Self>>(
        &mut self,
        exec: &mut E,
        curs: impl Iterator<Item = &'c [T]>,
        segments: usize,
        cfg: &SampleSelectConfig,
        origin: LaunchOrigin,
        level_ix: u64,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError>
    where
        T: 'c;

    /// The classifier the count kernel runs with on segment `seg` of the
    /// level.
    fn classifier<'a>(&'a self, ws: &'a SelectWorkspace<T>, seg: usize) -> &'a impl Classifier<T>;

    /// Work between the reduce and the filter of a one-segment level.
    fn after_reduce<E: Executor<T, Self>>(&self, _exec: &mut E, _ws: &SelectWorkspace<T>) {}

    /// The value every element of `bucket` of segment `seg` equals, when
    /// the bucket is known to hold a single value (§IV-C early
    /// termination).
    fn equality_value(&self, _ws: &SelectWorkspace<T>, _seg: usize, _bucket: usize) -> Option<T> {
        None
    }
}

/// SampleSelect's levels: a fresh splitter sample and search tree each.
pub(crate) struct SplitterLevels {
    rng: SplitMix64,
}

pub(crate) fn splitters(cfg: &SampleSelectConfig) -> SplitterLevels {
    SplitterLevels {
        rng: SplitMix64::new(cfg.seed),
    }
}

/// The search tree the last sample step built for a level's first (or
/// only) segment.
pub(crate) fn built_tree<T: SelectElement>(ws: &SelectWorkspace<T>) -> &SearchTree<T> {
    ws.segment_tree(0)
}

impl<T: SelectElement> LevelBucketing<T> for SplitterLevels {
    const ALGORITHM: &'static str = "sampleselect";

    fn base_case_size(cfg: &SampleSelectConfig) -> usize {
        cfg.base_case_size.max(cfg.sample_size())
    }

    fn prepare<'c, E: Executor<T, Self>>(
        &mut self,
        exec: &mut E,
        curs: impl Iterator<Item = &'c [T]>,
        segments: usize,
        cfg: &SampleSelectConfig,
        origin: LaunchOrigin,
        level_ix: u64,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError>
    where
        T: 'c,
    {
        // Splitter order is checked inside the sample step (always on:
        // an unsorted tree is unusable, not merely inaccurate).
        obs::span_enter(SpanKind::Kernel, "sample", level_ix, exec.now());
        let rng = &mut self.rng;
        exec.segmented(segments, 0, |exec| {
            for (seg, cur) in curs.enumerate() {
                ws.with_segment_tree(seg, |ws| exec.sample(cur, cfg, rng, origin, ws))?;
            }
            Ok::<_, SelectError>(())
        })?;
        obs::span_exit(exec.now());
        Ok(())
    }

    fn classifier<'a>(&'a self, ws: &'a SelectWorkspace<T>, seg: usize) -> &'a impl Classifier<T> {
        ws.segment_tree(seg)
    }

    fn after_reduce<E: Executor<T, Self>>(&self, exec: &mut E, ws: &SelectWorkspace<T>) {
        exec.select_bucket(built_tree(ws).num_buckets());
    }

    fn equality_value(&self, ws: &SelectWorkspace<T>, seg: usize, bucket: usize) -> Option<T> {
        let tree = ws.segment_tree(seg);
        tree.is_equality_bucket(bucket)
            .then(|| tree.equality_value(bucket))
    }
}

/// RadixSelect's levels: one digit per depth, most significant first.
impl<T: SelectElement> LevelBucketing<T> for DigitClassifier {
    const ALGORITHM: &'static str = "radixselect";

    fn base_case_size(cfg: &SampleSelectConfig) -> usize {
        cfg.base_case_size
    }

    fn exhausted(&self, level: u32) -> bool {
        // All key bits consumed: the remaining elements share one sort
        // key, i.e. they are all equal under the element order.
        level * DIGIT_BITS >= key_bits::<T>()
    }

    fn prepare<'c, E: Executor<T, Self>>(
        &mut self,
        _exec: &mut E,
        _curs: impl Iterator<Item = &'c [T]>,
        _segments: usize,
        _cfg: &SampleSelectConfig,
        _origin: LaunchOrigin,
        level_ix: u64,
        _ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError>
    where
        T: 'c,
    {
        // Every segment of a level takes the same digit.
        self.shift = key_bits::<T>() - DIGIT_BITS * (level_ix as u32 + 1);
        Ok(())
    }

    fn classifier<'a>(
        &'a self,
        _ws: &'a SelectWorkspace<T>,
        _seg: usize,
    ) -> &'a impl Classifier<T> {
        self
    }
}

/// Bytes of a segment's descriptor (where its elements, its partial
/// counts and its filter output start, and its length), which every
/// block of a launch over several segments reads to find its segment.
pub const SEGMENT_BYTES: u64 = 32;

/// Run `step`, one step of a level over its `segments` segments, on
/// `device`: with one segment, the kernel `step` commits is launched as
/// it is; with several, every kernel it commits joins one launch whose
/// grid is theirs side by side, whose cost is the sum of theirs, and
/// each of whose blocks also reads its segment's descriptor
/// ([`SEGMENT_BYTES`]) and `table_bytes` of its segment's classifier
/// from global memory.
pub fn segmented_launch<'p, R>(
    device: &mut Device<'p>,
    segments: usize,
    table_bytes: u64,
    step: impl FnOnce(&mut Device<'p>) -> R,
) -> R {
    match segments {
        0 | 1 => step(device),
        _ => device.merged(SEGMENT_BYTES + table_bytes, step),
    }
}

/// Where a level's steps run: the executor axis of the level loop.
///
/// The loop reads its clock and hands its buffers back only through the
/// executor. The simulated executor, a [`Device`] itself, charges every
/// step as a kernel in the paper's order, one launch per step of a level
/// whatever its number of segments; the host executor of [`crate::cpu`]
/// runs the steps on a thread pool, charges nothing and keeps its clock
/// at 0; the shard executor of [`crate::shard`] runs them on every
/// shard's device and ends the loop with an error when it loses its
/// quorum.
pub(crate) trait Executor<T: SelectElement, B> {
    /// The clock the loop's spans read, in ns.
    fn now(&self) -> f64;

    /// Run `step`, one step of a level over its `segments` segments,
    /// which calls this executor once per segment. A launch that covers
    /// several segments also has each block read its segment's
    /// descriptor and `table_bytes` of its segment's classifier.
    fn segmented<R>(
        &mut self,
        _segments: usize,
        _table_bytes: u64,
        step: impl FnOnce(&mut Self) -> R,
    ) -> R {
        step(self)
    }

    /// Draw a splitter sample of `cur` and build the level's search tree
    /// in `ws`.
    fn sample(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        rng: &mut SplitMix64,
        origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError>;

    /// Count the elements of `cur` per bucket of `classifier`, storing
    /// each element's bucket as an oracle if `oracles`.
    fn count(
        &mut self,
        cur: &[T],
        classifier: &impl Classifier<T>,
        cfg: &SampleSelectConfig,
        oracles: bool,
        origin: LaunchOrigin,
        ws: &SelectWorkspace<T>,
    ) -> Result<CountResult, SelectError>;

    /// Prefix-sum a level's counts into bucket and filter offsets.
    fn reduce(&mut self, count: &CountResult) -> ReduceResult;

    /// Pick the bucket holding the rank among `num_buckets`.
    fn select_bucket(&mut self, _num_buckets: usize) {}

    /// The elements of `cur` in `buckets` (ascending), bucket-major and
    /// in input order within a bucket, so that every executor returns
    /// the same sequence. [`Fused`], [`Ranks`] and [`All`] slice the
    /// output at the bucket bounds.
    fn filter(
        &mut self,
        cur: &[T],
        count: &CountResult,
        red: &ReduceResult,
        buckets: &[u32],
        cfg: &SampleSelectConfig,
        ws: &SelectWorkspace<T>,
    ) -> Result<Vec<T>, SelectError>;

    /// Sort `cur` into `ws.base`, where the target reads its rank(s).
    fn base_case(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError>;

    /// An empty buffer for at least `len` elements of a segment.
    fn lease(&mut self, len: usize) -> Vec<T> {
        Vec::with_capacity(len)
    }

    /// Hand back the elements of a finished segment.
    fn recycle(&mut self, _elements: Vec<T>) {}

    /// Hand back the buffers of a finished level.
    fn recycle_level(&mut self, _count: CountResult, _red: ReduceResult) {}

    /// Feed the kernel records to the observability session.
    fn absorb(&mut self) {}

    /// The kernel records so far, for the report.
    fn records(&self) -> &[KernelRecord] {
        &[]
    }
}

/// The simulated executor: every step is a kernel charged to the
/// device, a step over several segments one merged launch of one block
/// per segment (sample, base case) or of their blocks side by side, and
/// the buffers go back to its pool.
impl<T: SelectElement, B: LevelBucketing<T>> Executor<T, B> for Device<'_> {
    fn now(&self) -> f64 {
        Device::now(self).as_ns()
    }

    fn segmented<R>(
        &mut self,
        segments: usize,
        table_bytes: u64,
        step: impl FnOnce(&mut Self) -> R,
    ) -> R {
        segmented_launch(self, segments, table_bytes, step)
    }

    fn sample(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        rng: &mut SplitMix64,
        origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError> {
        sample_kernel_into(self, cur, cfg, rng, origin, ws)
    }

    fn count(
        &mut self,
        cur: &[T],
        classifier: &impl Classifier<T>,
        cfg: &SampleSelectConfig,
        oracles: bool,
        origin: LaunchOrigin,
        ws: &SelectWorkspace<T>,
    ) -> Result<CountResult, SelectError> {
        let count = count_kernel_scoped(self, cur, classifier, cfg, oracles, origin, &ws.scratch);
        if obs::enabled() {
            // Derived samples computed only when a session is installed
            // (the occupancy scan would otherwise be pure overhead).
            let ts_us = Device::now(self).as_us();
            let occupied = count.counts.iter().filter(|&&c| c != 0).count() as u64;
            obs::gauge_set(Gauge::BucketOccupancy, occupied);
            obs::track_sample(Track::BucketOccupancy, ts_us, occupied as f64);
            // A merged launch has no record yet: its segments' counts
            // sample no collision rate.
            let last = Device::records(self).last().filter(|_| !self.merging());
            if let Some(rec) = last {
                let replays = rec.cost.shared_atomic_replays * 1_000_000;
                if let Some(ppm) = replays.checked_div(rec.cost.shared_atomic_warp_ops) {
                    obs::gauge_set(Gauge::AtomicCollisionRatePpm, ppm);
                    obs::track_sample(Track::AtomicCollisionRate, ts_us, ppm as f64 / 1e6);
                }
            }
        }
        Ok(count)
    }

    fn reduce(&mut self, count: &CountResult) -> ReduceResult {
        // A count without oracles feeds no filter: its totals suffice.
        match count.oracles {
            Some(_) => reduce_kernel(self, count, LaunchOrigin::Device),
            None => reduce_totals_kernel(self, count, LaunchOrigin::Device),
        }
    }

    fn select_bucket(&mut self, num_buckets: usize) {
        select_bucket_kernel(self, num_buckets, LaunchOrigin::Device);
    }

    fn filter(
        &mut self,
        cur: &[T],
        count: &CountResult,
        red: &ReduceResult,
        buckets: &[u32],
        cfg: &SampleSelectConfig,
        ws: &SelectWorkspace<T>,
    ) -> Result<Vec<T>, SelectError> {
        // The kernel's output order is (bucket, block, position in the
        // block): bucket-major.
        let (origin, scratch) = (LaunchOrigin::Device, &ws.scratch);
        let out = filter_buckets(self, cur, count, red, buckets, cfg, origin, scratch);
        Ok(out)
    }

    fn base_case(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError> {
        let SelectWorkspace {
            base, sort_scratch, ..
        } = ws;
        base_case_select_with(self, cur, 0, cfg, origin, base, sort_scratch);
        Ok(())
    }

    fn lease(&mut self, len: usize) -> Vec<T> {
        self.lease_vec(len, "filter-out")
    }

    fn recycle(&mut self, elements: Vec<T>) {
        self.recycle_vec("filter-out", elements);
    }

    fn recycle_level(&mut self, count: CountResult, red: ReduceResult) {
        recycle_level(self, count, red);
    }

    fn absorb(&mut self) {
        obs::absorb_device(self);
        obs::pool_sample(self);
    }

    fn records(&self) -> &[KernelRecord] {
        Device::records(self)
    }
}

/// A pending piece of a query: the elements filtered into it (unused at
/// depth 0, which reads the input), its depth, and what it still has to
/// resolve.
type Segment<T, G> = (Vec<T>, u32, G);

/// The segments of a level with their elements, depth 0 reading the
/// input: those above `base` elements, which descend, if `big`, or
/// else those the base case sorts.
fn split<'a, T, G>(
    data: &'a [T],
    segs: &'a [Segment<T, G>],
    base: usize,
    big: bool,
) -> impl Iterator<Item = (&'a Segment<T, G>, &'a [T])> {
    let elements = move |seg: &'a Segment<T, G>| (seg, if seg.1 == 0 { data } else { &seg.0[..] });
    let keep = move |(_, cur): &(_, &[T])| (cur.len() > base) == big;
    segs.iter().map(elements).filter(keep)
}

/// The pending segments of a target, all of one depth: an `Option` for
/// the targets that descend into one bucket, a `Vec` for the others.
trait Segments<S>: Default {
    fn as_mut_slice(&mut self) -> &mut [S];
}

impl<S> Segments<S> for Option<S> {
    fn as_mut_slice(&mut self) -> &mut [S] {
        Option::as_mut_slice(self)
    }
}

impl<S> Segments<S> for Vec<S> {
    fn as_mut_slice(&mut self) -> &mut [S] {
        Vec::as_mut_slice(self)
    }
}

/// What a query selects: the target axis of the level loop. A target
/// picks the rank(s) that choose a level's bucket(s), the filter's
/// bucket set, what becomes of the filter output and how an equality
/// bucket ends the descent.
trait Target<T: SelectElement> {
    /// What a segment still has to resolve: a rank, several, or an offset.
    type Goal;

    /// The pending segments.
    type Level: Segments<Segment<T, Self::Goal>>;

    /// Whether each level launches `select_bucket`; only the exact rank
    /// is charged for it.
    const SELECTS_BUCKET: bool = false;

    /// Whether a base-case segment's depth counts in `levels`.
    const COUNTS_BASE_DEPTH: bool = false;

    /// Report label and query-span name, given the backend's.
    fn label(&self, backend: &'static str) -> &'static str {
        backend
    }

    /// The base-case size, given the backend's.
    fn base_case_size(backend: usize, _cfg: &SampleSelectConfig) -> usize {
        backend
    }

    /// The segments that the next level runs; descending queues the
    /// level after it here.
    fn pending(&mut self) -> &mut Self::Level;

    /// Resolve a segment from its elements in sorted order.
    fn resolve(&mut self, goal: &Self::Goal, sorted: &[T]);

    /// Pick the bucket(s) of a counted segment, filter them and queue
    /// the segments to descend into.
    fn descend<B: LevelBucketing<T>, E: Executor<T, B>>(
        &mut self,
        goal: &Self::Goal,
        level: &mut Level<'_, T, B, E>,
    ) -> Result<(), SelectError>;
}

/// One counted level, as a target sees it while it descends one of its
/// segments.
struct Level<'a, T: SelectElement, B, E> {
    exec: &'a mut E,
    cfg: &'a SampleSelectConfig,
    ws: &'a SelectWorkspace<T>,
    bucketing: &'a B,
    depth: u32,
    /// The segment being descended: its place among the level's counted
    /// segments, and its elements.
    seg: usize,
    cur: &'a [T],
    /// Whether an equality bucket answered part of the query.
    early: bool,
    /// Whether the level's filter span is open.
    filtering: bool,
}

impl<'a, T: SelectElement, B: LevelBucketing<T>, E: Executor<T, B>> Level<'a, T, B, E> {
    /// The segment's bucket and filter offsets.
    fn red(&self) -> &'a ReduceResult {
        &self.ws.reds[self.seg]
    }

    /// The bucket holding `rank`.
    fn bucket_for_rank(&self, rank: usize) -> Result<usize, SelectError> {
        let bucket = self.red().bucket_for_rank(rank as u64);
        if self.red().bucket_size(bucket) == 0 {
            // Healthy runs always land the rank in a non-empty bucket;
            // an empty one means the counts (or their prefix sums) were
            // corrupted after the histogram was assembled.
            return Err(SelectError::Corruption {
                invariant: "bucket-for-rank",
                detail: format!("rank {rank} mapped to empty bucket {bucket}"),
            });
        }
        Ok(bucket)
    }

    /// The value of `bucket` when it is an equality bucket, which ends
    /// the descent there.
    fn equality_exit(&mut self, bucket: usize) -> Option<T> {
        let value = self.bucketing.equality_value(self.ws, self.seg, bucket);
        self.early |= value.is_some();
        value
    }

    /// The elements of `buckets` (ascending), bucket by bucket. Their
    /// number is checked under the spot checks, or always when the
    /// target slices the output (`sliced`).
    fn filter(&mut self, buckets: &[u32], sliced: bool) -> Result<Vec<T>, SelectError> {
        let (ws, cfg, red) = (self.ws, self.cfg, self.red());
        let expected = buckets.iter().map(|&b| red.bucket_size(b as usize)).sum();
        if !self.filtering {
            // One span covers the level's filter launch.
            self.filtering = true;
            let now = self.exec.now();
            obs::span_enter(SpanKind::Kernel, "filter", self.depth as u64, now);
        }
        let count = &ws.counts[self.seg];
        let next = self.exec.filter(self.cur, count, red, buckets, cfg, ws)?;
        obs::observe(Histogram::LevelKeptElements, next.len() as u64);
        if sliced || cfg.verify.spot_checks() {
            check_filter_size(next.len(), expected)?;
        }
        Ok(next)
    }

    /// `elements` in a buffer of their own from the executor, so that
    /// its pool gets back as many buffers as it handed out.
    fn copy(&mut self, elements: &[T]) -> Vec<T> {
        let mut piece = self.exec.lease(elements.len());
        piece.extend_from_slice(elements);
        piece
    }

    /// `rank` relative to the start of `bucket`, which descends with
    /// `len` filtered elements.
    fn descended(&self, rank: usize, bucket: usize, len: usize) -> Result<usize, SelectError> {
        let next_rank = rank - self.red().bucket_offsets[bucket] as usize;
        if next_rank >= len {
            // Unconditionally guarded (not just under `verify`): a
            // corrupted oracle or count buffer can shrink the filter
            // output below the descending rank, and indexing past it at
            // the next level would panic instead of surfacing a
            // retryable error.
            return Err(SelectError::Corruption {
                invariant: "filter-size",
                detail: format!(
                    "descending rank {next_rank} outside filtered bucket of {len} elements"
                ),
            });
        }
        Ok(next_rank)
    }
}

/// One exact rank: descend into the bucket holding it.
struct Rank<T> {
    pending: Option<Segment<T, usize>>,
    value: Option<T>,
}

impl<T: SelectElement> Target<T> for Rank<T> {
    type Goal = usize;
    type Level = Option<Segment<T, usize>>;
    const SELECTS_BUCKET: bool = true;

    fn pending(&mut self) -> &mut Self::Level {
        &mut self.pending
    }

    fn resolve(&mut self, &rank: &usize, sorted: &[T]) {
        self.value = Some(sorted[rank]);
    }

    fn descend<B: LevelBucketing<T>, E: Executor<T, B>>(
        &mut self,
        &rank: &usize,
        level: &mut Level<'_, T, B, E>,
    ) -> Result<(), SelectError> {
        let bucket = level.bucket_for_rank(rank)?;
        if let Some(value) = level.equality_exit(bucket) {
            self.value = Some(value);
            return Ok(());
        }
        let next = level.filter(bucket_set(bucket as u32..bucket as u32 + 1), false)?;
        let rank = level.descended(rank, bucket, next.len())?;
        self.pending = Some((next, level.depth + 1, rank));
        Ok(())
    }
}

/// The `k` largest (or smallest) elements (§IV-I): rank `n - k` (or
/// `k - 1`) picks the bucket, and the filter range also covers every
/// larger (or smaller) bucket, whose elements all join the result.
struct Fused<T> {
    largest: bool,
    pending: Option<Segment<T, usize>>,
    elements: Vec<T>,
    threshold: Option<T>,
}

impl<T: SelectElement> Target<T> for Fused<T> {
    type Goal = usize;
    type Level = Option<Segment<T, usize>>;

    fn label(&self, _backend: &'static str) -> &'static str {
        match self.largest {
            true => "topk-sampleselect",
            false => "bottomk-sampleselect",
        }
    }

    fn pending(&mut self) -> &mut Self::Level {
        &mut self.pending
    }

    fn resolve(&mut self, &rank: &usize, sorted: &[T]) {
        let part = if self.largest {
            rank..sorted.len()
        } else {
            0..rank + 1
        };
        self.elements.extend_from_slice(&sorted[part]);
        self.threshold = Some(sorted[rank]);
    }

    fn descend<B: LevelBucketing<T>, E: Executor<T, B>>(
        &mut self,
        &rank: &usize,
        level: &mut Level<'_, T, B, E>,
    ) -> Result<(), SelectError> {
        let bucket = level.bucket_for_rank(rank)?;
        let (b, buckets) = (bucket as u32, level.red().bucket_offsets.len() as u32 - 1);
        let range = if self.largest { b..buckets } else { 0..b + 1 };
        let mut next = level.filter(bucket_set(range), true)?;
        // The target bucket leads a top-k range and ends a bottom-k one
        // in the filter output. The other buckets join the result,
        // leaving the target bucket in `next`.
        let (len, size) = (next.len(), level.red().bucket_size(bucket) as usize);
        let others = if self.largest {
            size..len
        } else {
            0..len - size
        };
        self.elements.extend(next.drain(others));
        let rank = level.descended(rank, bucket, size)?;
        if let Some(value) = level.equality_exit(bucket) {
            // Every element of the bucket equals the threshold; take the
            // ties the result still needs.
            let need = if self.largest { size - rank } else { rank + 1 };
            self.elements.extend_from_slice(&next[..need]);
            self.threshold = Some(value);
            level.exec.recycle(next);
            return Ok(());
        }
        self.pending = Some((next, level.depth + 1, rank));
        Ok(())
    }
}

/// Several ranks at once (§VI): a segment's ranks are grouped by
/// bucket, one filter takes every bucket holding one, and each of them
/// descends as its own segment of the next level.
struct Ranks<T> {
    /// Goals are `(query index, rank within the segment)` pairs.
    pending: Vec<Segment<T, Vec<(usize, usize)>>>,
    values: Vec<Option<T>>,
}

impl<T: SelectElement> Target<T> for Ranks<T> {
    type Goal = Vec<(usize, usize)>;
    type Level = Vec<Segment<T, Self::Goal>>;
    const COUNTS_BASE_DEPTH: bool = true;

    fn label(&self, _backend: &'static str) -> &'static str {
        "multiselect"
    }

    fn pending(&mut self) -> &mut Self::Level {
        &mut self.pending
    }

    fn resolve(&mut self, goal: &Self::Goal, sorted: &[T]) {
        for &(qi, rank) in goal {
            self.values[qi] = Some(sorted[rank]);
        }
    }

    fn descend<B: LevelBucketing<T>, E: Executor<T, B>>(
        &mut self,
        goal: &Self::Goal,
        level: &mut Level<'_, T, B, E>,
    ) -> Result<(), SelectError> {
        let mut by_bucket: Vec<(usize, Self::Goal)> = Vec::new();
        for &(qi, rank) in goal {
            let bucket = level.bucket_for_rank(rank)?;
            match by_bucket.iter_mut().find(|(b, _)| *b == bucket) {
                Some((_, queries)) => queries.push((qi, rank)),
                None => by_bucket.push((bucket, vec![(qi, rank)])),
            }
        }
        by_bucket.sort_unstable_by_key(|&(bucket, _)| bucket);
        let mut buckets = Vec::with_capacity(by_bucket.len());
        by_bucket.retain(|(bucket, queries)| match level.equality_exit(*bucket) {
            Some(value) => {
                queries
                    .iter()
                    .for_each(|&(qi, _)| self.values[qi] = Some(value));
                false
            }
            None => {
                buckets.push(*bucket as u32);
                true
            }
        });
        if buckets.is_empty() {
            return Ok(());
        }
        // Sliced at every bucket bound, so checked whatever the policy.
        let (next, mut lo) = (level.filter(&buckets, true)?, 0);
        for (bucket, queries) in by_bucket {
            let size = level.red().bucket_size(bucket) as usize;
            let elements = level.copy(&next[lo..lo + size]);
            lo += size;
            let local = |(qi, rank)| Ok((qi, level.descended(rank, bucket, size)?));
            let goal = queries.into_iter().map(local).collect::<Result<_, _>>()?;
            self.pending.push((elements, level.depth + 1, goal));
        }
        level.exec.recycle(next);
        Ok(())
    }
}

/// Every bucket (sample sort, §VI): each bucket of a level descends as
/// its own segment, and a goal is the segment's offset in `sorted`.
struct All<T> {
    pending: Vec<Segment<T, usize>>,
    sorted: Vec<T>,
}

impl<T: SelectElement> Target<T> for All<T> {
    type Goal = usize;
    type Level = Vec<Segment<T, usize>>;

    fn label(&self, _backend: &'static str) -> &'static str {
        "samplesort"
    }

    /// A segment that fits a (generous) shared-memory tile is sorted in
    /// one block: launch overhead dominates tiny partitions.
    fn base_case_size(backend: usize, cfg: &SampleSelectConfig) -> usize {
        backend.max(16 * cfg.sample_size())
    }

    fn pending(&mut self) -> &mut Self::Level {
        &mut self.pending
    }

    fn resolve(&mut self, &offset: &usize, sorted: &[T]) {
        self.sorted[offset..offset + sorted.len()].copy_from_slice(sorted);
    }

    fn descend<B: LevelBucketing<T>, E: Executor<T, B>>(
        &mut self,
        &offset: &usize,
        level: &mut Level<'_, T, B, E>,
    ) -> Result<(), SelectError> {
        let (buckets, depth) = (level.red().bucket_offsets.len() - 1, level.depth + 1);
        // Sliced at every bucket bound, so checked whatever the policy.
        let next = level.filter(bucket_set(0..buckets as u32), true)?;
        for bucket in 0..buckets {
            let offsets = &level.red().bucket_offsets;
            let (lo, hi) = (offsets[bucket] as usize, offsets[bucket + 1] as usize);
            if hi - lo > 1 && level.equality_exit(bucket).is_none() {
                // A degenerate split resamples at the next level.
                let elements = level.copy(&next[lo..hi]);
                self.pending.push((elements, depth, offset + lo));
            } else {
                // Empty, one element or all equal: already in order.
                self.resolve(&(offset + lo), &next[lo..hi]);
            }
        }
        level.exec.recycle(next);
        Ok(())
    }
}

/// The one level loop behind every exact, fused top-k, multi-rank and
/// sort query on either backend and any executor; `ranks` are the
/// requested ranks, and `run` is the target with the origin of its
/// first level's launches.
///
/// A level is every pending segment of one depth, breadth first: the
/// base case sorts the small ones, and each step of the others (sample,
/// count, reduce, filter) runs once for all of them, so a simulated
/// device charges one launch per kernel per level.
#[allow(clippy::too_many_arguments)]
fn level_loop<T: SelectElement, B: LevelBucketing<T>, Q: Target<T>, E: Executor<T, B>>(
    exec: &mut E,
    data: &[T],
    ranks: &[usize],
    cfg: &SampleSelectConfig,
    ws: &mut SelectWorkspace<T>,
    report: &mut SelectReport,
    mut bucketing: B,
    (target, first): (&mut Q, LaunchOrigin),
) -> Result<(), SelectError> {
    cfg.validate().map_err(SelectError::InvalidConfig)?;
    for &rank in ranks {
        validate_input(data, rank, cfg)?;
    }

    let n = data.len();
    let label = target.label(B::ALGORITHM);
    let records_before = exec.records().len();
    obs::span_enter(SpanKind::Query, label, 0, exec.now());
    let max_levels = cfg.max_levels.unwrap_or(MAX_LEVELS).min(MAX_LEVELS);
    let work_budget: Option<f64> = cfg.work_budget_factor.map(|f| f * n as f64);
    let mut work_done: f64 = 0.0;
    let mut levels = 0u32;
    let mut terminated_early = false;
    let base_case_size = Q::base_case_size(B::base_case_size(cfg), cfg);

    for depth in 0.. {
        let mut level = std::mem::take(target.pending());
        let segs = level.as_mut_slice();
        if segs.is_empty() {
            break;
        }
        // Level 0's first kernels come from the host (or, for a query
        // rerun mid-way, the device); everything after is a device-side
        // tail launch.
        let origin = if depth == 0 {
            first
        } else {
            LaunchOrigin::Device
        };
        if Q::COUNTS_BASE_DEPTH {
            levels = levels.max(depth + 1);
        }
        let small = split(data, segs, base_case_size, false).count();
        if small > 0 {
            obs::span_enter(SpanKind::Kernel, "base_sort", depth as u64, exec.now());
            exec.segmented(small, 0, |exec| {
                for (seg, cur) in split(data, segs, base_case_size, false) {
                    exec.base_case(cur, cfg, origin, ws)?;
                    target.resolve(&seg.2, &ws.base);
                }
                Ok::<_, SelectError>(())
            })?;
            obs::span_exit(exec.now());
        }
        let counted = segs.len() - small;
        let curs = || split(data, segs, base_case_size, true);
        if counted > 0 && bucketing.exhausted(depth) {
            // All equal, hence already in order.
            curs().for_each(|(seg, cur)| target.resolve(&seg.2, cur));
            terminated_early = true;
        } else if counted > 0 {
            if depth >= max_levels {
                return Err(SelectError::RecursionLimit);
            }
            if let Some(budget) = work_budget {
                // Degenerate splitters or low-entropy keys barely shrink
                // the bucket, so the cumulative elements scanned blow
                // past the budget long before the depth cap trips.
                work_done += curs().map(|(_, cur)| cur.len() as f64).sum::<f64>();
                if work_done > budget {
                    return Err(SelectError::RecursionLimit);
                }
            }
            let level_ix = depth as u64;
            levels = levels.max(depth + 1);
            obs::span_enter(SpanKind::Level, "level", level_ix, exec.now());

            let elements = curs().map(|(_, cur)| cur);
            bucketing.prepare(exec, elements, counted, cfg, origin, level_ix, ws)?;
            ws.counts.clear();
            ws.reds.clear();
            let classifier = bucketing.classifier(ws, 0);
            let (count_name, table) = (classifier.kernel_name(true), classifier.table_bytes());
            obs::span_enter(SpanKind::Kernel, count_name, level_ix, exec.now());
            exec.segmented(counted, table, |exec| {
                for (seg, (_, cur)) in curs().enumerate() {
                    let classifier = bucketing.classifier(ws, seg);
                    let count = exec.count(cur, classifier, cfg, true, origin, ws)?;
                    ws.counts.push(count);
                }
                Ok::<_, SelectError>(())
            })?;
            obs::span_exit(exec.now());
            if cfg.verify.spot_checks() {
                for (count, (_, cur)) in ws.counts.iter().zip(curs()) {
                    check_histogram(&count.counts, cur.len())?;
                }
            }
            obs::span_enter(SpanKind::Kernel, "reduce", level_ix, exec.now());
            let SelectWorkspace { counts, reds, .. } = &mut *ws;
            exec.segmented(counted, 0, |exec| {
                reds.extend(counts.iter().map(|count| exec.reduce(count)));
            });
            if Q::SELECTS_BUCKET {
                bucketing.after_reduce(exec, ws);
            }
            obs::span_exit(exec.now());

            let ws_ref = &*ws;
            let (early, filtered) = exec.segmented(counted, 0, |exec| {
                let mut level = Level {
                    exec,
                    cfg,
                    ws: ws_ref,
                    bucketing: &bucketing,
                    depth,
                    seg: 0,
                    cur: &[],
                    early: false,
                    filtering: false,
                };
                for (seg, (segment, cur)) in curs().enumerate() {
                    (level.seg, level.cur) = (seg, cur);
                    target.descend(&segment.2, &mut level)?;
                }
                Ok::<_, SelectError>((level.early, level.filtering))
            })?;
            if filtered {
                obs::span_exit(exec.now());
            }
            terminated_early |= early;
            let SelectWorkspace { counts, reds, .. } = &mut *ws;
            for (count, red) in counts.drain(..).zip(reds.drain(..)) {
                exec.recycle_level(count, red);
            }
            obs::span_exit(exec.now());
        }
        for seg in level.as_mut_slice() {
            exec.recycle(std::mem::take(&mut seg.0));
        }
    }

    exec.absorb();
    obs::span_exit(exec.now());
    let records = &exec.records()[records_before..];
    report.refill_from_records(label, n, records, levels, terminated_early);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;
    use crate::multiselect::multi_select_on_device;
    use crate::params::AtomicScope;
    use crate::topk::{bottom_k_smallest_on_device, top_k_largest_on_device};
    use gpu_sim::arch::{k20xm, v100};
    use gpu_sim::SimTime;
    use hpc_par::ThreadPool;

    fn select_f32(data: &[f32], rank: usize, cfg: &SampleSelectConfig) -> SelectResult<f32> {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        sample_select_on_device(&mut device, data, rank, cfg).unwrap()
    }

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    #[test]
    fn matches_reference_on_random_data() {
        let cfg = SampleSelectConfig::default();
        let data = uniform(100_000, 1);
        for rank in [0usize, 1, 50_000, 99_998, 99_999] {
            let result = select_f32(&data, rank, &cfg);
            assert_eq!(
                result.value,
                reference_select(&data, rank).unwrap(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn matches_reference_for_all_configs() {
        let data = uniform(30_000, 2);
        let rank = 12_345;
        let expected = reference_select(&data, rank).unwrap();
        for scope in [AtomicScope::Shared, AtomicScope::Global] {
            for agg in [false, true] {
                for buckets in [64usize, 256] {
                    let cfg = SampleSelectConfig::default()
                        .with_buckets(buckets)
                        .with_atomic_scope(scope)
                        .with_warp_aggregation(agg);
                    let result = select_f32(&data, rank, &cfg);
                    assert_eq!(
                        result.value, expected,
                        "scope {scope:?} agg {agg} b {buckets}"
                    );
                }
            }
        }
    }

    #[test]
    fn handles_duplicate_heavy_input_via_equality_buckets() {
        // d = 16 distinct values over 100k elements: most buckets become
        // equality buckets and the recursion terminates early.
        let mut rng = SplitMix64::new(3);
        let data: Vec<f32> = (0..100_000)
            .map(|_| (rng.next_below(16) as f32) * 2.5)
            .collect();
        let cfg = SampleSelectConfig::default();
        for rank in [0usize, 31_337, 99_999] {
            let result = select_f32(&data, rank, &cfg);
            assert_eq!(result.value, reference_select(&data, rank).unwrap());
        }
    }

    #[test]
    fn all_equal_input_terminates_early() {
        let data = vec![7.25f32; 50_000];
        let result = select_f32(&data, 25_000, &SampleSelectConfig::default());
        assert_eq!(result.value, 7.25);
        assert!(result.report.terminated_early);
        assert_eq!(result.report.levels, 1);
    }

    #[test]
    fn small_input_goes_straight_to_base_case() {
        let data: Vec<f32> = (0..100).map(|i| (100 - i) as f32).collect();
        let result = select_f32(&data, 10, &SampleSelectConfig::default());
        assert_eq!(result.value, 11.0);
        assert_eq!(result.report.levels, 0);
        assert_eq!(result.report.kernel_launches("base_sort"), 1);
        assert_eq!(result.report.kernel_launches("count"), 0);
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        // 2^20 elements with 256 buckets: one level reduces to ~4k,
        // which is under sample_size, so exactly one level + base case.
        let data = uniform(1 << 20, 4);
        let result = select_f32(&data, 500_000, &SampleSelectConfig::default());
        assert!(
            result.report.levels <= 2,
            "levels = {}",
            result.report.levels
        );
        assert_eq!(result.value, reference_select(&data, 500_000).unwrap());
    }

    #[test]
    fn error_on_empty_input() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let err =
            sample_select_on_device::<f32>(&mut device, &[], 0, &SampleSelectConfig::default())
                .unwrap_err();
        assert_eq!(err, SelectError::EmptyInput);
    }

    #[test]
    fn error_on_rank_out_of_range() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let err = sample_select_on_device(
            &mut device,
            &[1.0f32, 2.0],
            2,
            &SampleSelectConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, SelectError::RankOutOfRange { rank: 2, len: 2 });
    }

    #[test]
    fn error_on_nan_with_check_enabled() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let cfg = SampleSelectConfig {
            check_input: true,
            ..SampleSelectConfig::default()
        };
        let data = vec![1.0f32, f32::NAN, 3.0];
        let err = sample_select_on_device(&mut device, &data, 0, &cfg).unwrap_err();
        assert_eq!(err, SelectError::NanInput { index: 1 });
    }

    #[test]
    fn error_on_invalid_config() {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let cfg = SampleSelectConfig::default().with_buckets(48); // not a power of two
        let err = sample_select_on_device(&mut device, &[1.0f32; 10], 0, &cfg).unwrap_err();
        assert!(matches!(err, SelectError::InvalidConfig(_)));
    }

    #[test]
    fn max_levels_guard_trips_on_tight_cap() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(100_000, 9);
        let cfg = SampleSelectConfig::default().with_max_levels(0);
        let err = sample_select_on_device(&mut device, &data, 50_000, &cfg).unwrap_err();
        assert_eq!(err, SelectError::RecursionLimit);
        // A generous cap does not interfere.
        let cfg = SampleSelectConfig::default().with_max_levels(32);
        sample_select_on_device(&mut device, &data, 50_000, &cfg).unwrap();
    }

    #[test]
    fn work_budget_guard_trips_when_exhausted() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(100_000, 10);
        // First level alone scans n elements > 0.5 * n.
        let cfg = SampleSelectConfig::default().with_work_budget_factor(0.5);
        let err = sample_select_on_device(&mut device, &data, 50_000, &cfg).unwrap_err();
        assert_eq!(err, SelectError::RecursionLimit);
        // A healthy run needs barely more than n.
        let cfg = SampleSelectConfig::default().with_work_budget_factor(2.0);
        sample_select_on_device(&mut device, &data, 50_000, &cfg).unwrap();
    }

    /// The launches `device` recorded from record `from` on: what each
    /// kernel was and what it cost, without its place on the clock.
    fn launches(device: &Device, from: usize) -> Vec<(String, LaunchConfig, KernelCost, SimTime)> {
        let records = device.records()[from..].iter();
        records
            .map(|r| (r.name.to_string(), r.config, r.cost, r.duration))
            .collect()
    }

    #[test]
    fn one_warm_workspace_serves_every_target_as_the_one_shot_entries_do() {
        // A `selectd` worker runs every query kind on one workspace and
        // one pooled device: each answer and each kernel record must be
        // the one-shot entry's on a fresh, unpooled device.
        let (pool, cfg) = (ThreadPool::new(2), SampleSelectConfig::default());
        let data = uniform(1 << 17, 11);
        let n = data.len();
        let ranks: Vec<usize> = (1..8).map(|i| i * n / 8).collect();
        let mut warm = Device::new(v100(), &pool);
        warm.enable_buffer_pool();
        let mut ws = SelectWorkspace::new();
        for step in 0..5 {
            let (from, mut one) = (warm.records().len(), Device::new(v100(), &pool));
            match step {
                0 | 4 => {
                    let k = if step == 0 { n / 3 } else { 1 };
                    let a = fused_with_workspace(&mut warm, &data, k, true, &cfg, &mut ws).unwrap();
                    let b = top_k_largest_on_device(&mut one, &data, k, &cfg).unwrap();
                    assert_eq!((a.elements, a.threshold), (b.elements, b.threshold));
                }
                1 => {
                    let k = n / 5;
                    let a =
                        fused_with_workspace(&mut warm, &data, k, false, &cfg, &mut ws).unwrap();
                    let b = bottom_k_smallest_on_device(&mut one, &data, k, &cfg).unwrap();
                    assert_eq!((a.elements, a.threshold), (b.elements, b.threshold));
                }
                2 => {
                    let a = ranks_with_workspace(&mut warm, &data, &ranks, &cfg, &mut ws).unwrap();
                    let b = multi_select_on_device(&mut one, &data, &ranks, &cfg).unwrap();
                    assert_eq!(a.values, b.values);
                }
                _ => {
                    let splitters = Bucketing::Splitters;
                    let a =
                        select_with_workspace(&mut warm, &data, n / 2, &cfg, &mut ws, splitters);
                    let b = sample_select_on_device(&mut one, &data, n / 2, &cfg).unwrap();
                    assert_eq!(a.unwrap().value, b.value);
                }
            }
            assert_eq!(launches(&warm, from), launches(&one, 0), "query {step}");
        }
    }

    #[test]
    fn report_contains_all_level_kernels() {
        let data = uniform(200_000, 5);
        let result = select_f32(&data, 100_000, &SampleSelectConfig::default());
        for name in [
            "sample",
            "count",
            "reduce",
            "select_bucket",
            "filter",
            "base_sort",
        ] {
            assert!(
                result.report.kernel_launches(name) > 0,
                "missing kernel {name}"
            );
        }
        assert!(result.report.total_time.as_ns() > 0.0);
        assert!(result.report.throughput() > 0.0);
    }

    #[test]
    fn deeper_levels_use_device_launches() {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let data = uniform(1 << 20, 6);
        sample_select_on_device(&mut device, &data, 1 << 19, &SampleSelectConfig::default())
            .unwrap();
        let device_launches = device
            .records()
            .iter()
            .filter(|r| r.origin == LaunchOrigin::Device)
            .count();
        assert!(
            device_launches > 0,
            "tail recursion must launch from device"
        );
        // level-0 sample and count come from the host
        assert_eq!(device.records()[0].origin, LaunchOrigin::Host);
    }

    #[test]
    fn works_on_integers_and_doubles() {
        let mut rng = SplitMix64::new(7);
        let ints: Vec<u32> = (0..50_000).map(|_| rng.next_u64() as u32).collect();
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let r = sample_select_on_device(&mut device, &ints, 25_000, &SampleSelectConfig::default())
            .unwrap();
        assert_eq!(r.value, reference_select(&ints, 25_000).unwrap());

        let doubles: Vec<f64> = (0..50_000).map(|_| rng.next_f64()).collect();
        let r = sample_select_on_device(&mut device, &doubles, 100, &SampleSelectConfig::default())
            .unwrap();
        assert_eq!(r.value, reference_select(&doubles, 100).unwrap());
    }

    #[test]
    fn kepler_and_volta_agree_functionally() {
        let data = uniform(150_000, 8);
        let pool = ThreadPool::new(4);
        let cfg_k = SampleSelectConfig::tuned_for(&k20xm());
        let cfg_v = SampleSelectConfig::tuned_for(&v100());
        let mut dk = Device::new(k20xm(), &pool);
        let mut dv = Device::new(v100(), &pool);
        let rk = sample_select_on_device(&mut dk, &data, 75_000, &cfg_k).unwrap();
        let rv = sample_select_on_device(&mut dv, &data, 75_000, &cfg_v).unwrap();
        assert_eq!(rk.value, rv.value);
        assert_eq!(rk.value, reference_select(&data, 75_000).unwrap());
    }
}
