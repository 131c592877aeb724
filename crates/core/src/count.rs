//! The `count` kernel (§IV-B.b): classify every element into its bucket,
//! increment the bucket counter, and memoize the bucket index as a
//! one-byte *oracle*.
//!
//! How an element gets its bucket is the one thing the backends do
//! differently, so it sits behind [`Classifier`]: SampleSelect descends
//! the implicit search tree over sampled splitters ([`SearchTree`]),
//! RadixSelect extracts one digit of the sort key
//! ([`crate::radix::DigitClassifier`]). Everything else — pooled
//! partials and oracles, warp-exact atomic accounting, the corruption
//! hooks — is this one kernel body.
//!
//! Four variants are modelled, matching the paper's §IV-G / Fig. 8
//! (right): {shared, global} atomic counters × {with, without} warp
//! aggregation. The functional result (bucket counts, oracles) is
//! identical in all four; what differs is the resource usage — and with
//! it the simulated time.

use crate::element::SelectElement;
use crate::params::{AtomicScope, SampleSelectConfig};
use crate::searchtree::SearchTree;
use crate::workspace::KernelScratch;
use gpu_sim::warp::{warp_atomic_stats, WARP_SIZE};
use gpu_sim::{Device, KernelCost, LaunchOrigin};

/// How the count kernel assigns elements to buckets, and what that
/// classification costs on the device.
pub trait Classifier<T>: Sync {
    /// Kernel name on the device timeline.
    fn kernel_name(&self, write_oracles: bool) -> &'static str;
    /// Buckets per pass.
    fn num_buckets(&self) -> usize;
    /// Bytes one stored oracle occupies.
    fn oracle_bytes(&self, cfg: &SampleSelectConfig) -> usize;
    /// Write the bucket of every element of `batch` into `buckets`
    /// (`buckets.len() == batch.len()`), for a batch of any length.
    fn classify(&self, batch: &[T], buckets: &mut [u32]);
    /// Charge the classification work of `len` elements to `cost`.
    fn charge(&self, len: u64, cost: &mut KernelCost);
    /// Ballots one warp spends on aggregating its atomics (Fig. 6).
    fn ballots_per_warp(&self) -> u64;
    /// Bytes of classifier state a block loads from global memory when
    /// its launch covers several segments, each classified its own way:
    /// a search tree's splitters; a digit needs none.
    fn table_bytes(&self) -> u64 {
        0
    }
}

impl<T: SelectElement> Classifier<T> for SearchTree<T> {
    fn kernel_name(&self, write_oracles: bool) -> &'static str {
        if write_oracles {
            "count"
        } else {
            "count_nowrite"
        }
    }

    fn num_buckets(&self) -> usize {
        SearchTree::num_buckets(self)
    }

    fn oracle_bytes(&self, cfg: &SampleSelectConfig) -> usize {
        cfg.oracle_bytes()
    }

    fn classify(&self, batch: &[T], buckets: &mut [u32]) {
        // Lane-parallel descent, a warp at a time (the SIMD analogue of
        // all 32 threads walking the tree in lock-step).
        self.lookup_batch(batch, buckets);
    }

    fn charge(&self, len: u64, cost: &mut KernelCost) {
        // One shared-memory node read and a couple of integer ops per
        // tree level per element.
        let height = self.height() as u64;
        cost.smem_bytes += len * height * T::BYTES as u64;
        cost.int_ops += len * (2 * height + 1);
    }

    fn ballots_per_warp(&self) -> u64 {
        // Fig. 6: tree_height ballots per warp.
        self.height() as u64
    }

    fn table_bytes(&self) -> u64 {
        (self.splitters().len() * T::BYTES) as u64
    }
}

/// Per-element bucket indexes, stored as narrowly as possible
/// ("we use a single byte to store each oracle", §IV-B; two bytes for
/// b > 256 is this workspace's extension).
#[derive(Debug, Clone)]
pub enum OracleBuf {
    U8(Vec<u8>),
    U16(Vec<u16>),
}

impl OracleBuf {
    /// Bucket index of element `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        match self {
            OracleBuf::U8(v) => v[idx] as u32,
            OracleBuf::U16(v) => v[idx] as u32,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            OracleBuf::U8(v) => v.len(),
            OracleBuf::U16(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes one oracle occupies.
    pub fn entry_bytes(&self) -> usize {
        match self {
            OracleBuf::U8(_) => 1,
            OracleBuf::U16(_) => 2,
        }
    }

    /// The raw one-byte oracle array, when this buffer is the narrow
    /// variant (the SIMD filter path compares 32 oracle bytes per
    /// vector instruction).
    pub fn as_u8_slice(&self) -> Option<&[u8]> {
        match self {
            OracleBuf::U8(v) => Some(v),
            OracleBuf::U16(_) => None,
        }
    }
}

/// Output of one count-kernel launch.
#[derive(Debug)]
pub struct CountResult {
    /// Total elements per bucket (`n_i` of §II-A).
    pub counts: Vec<u64>,
    /// Block-local partial counts in *bucket-major* layout:
    /// `partials[bucket * blocks + block]`. The exclusive scan of this
    /// array is exactly what the `reduce` kernel produces and the
    /// `filter` kernel consumes (§IV-G: "the prefix sums from one kernel
    /// can be used in the other one").
    pub partials: Vec<u64>,
    /// Grid size that produced the partials.
    pub blocks: usize,
    /// Per-element oracles (absent in count-only / approximate mode).
    pub oracles: Option<OracleBuf>,
}

impl CountResult {
    /// Number of elements counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Elements one [`Classifier::classify`] call of the count kernel
/// covers: four warps, as in the host's batched classification.
const BATCH: usize = 4 * WARP_SIZE;

/// A batch's buckets narrowed to the oracle type `W`.
fn narrow<W: Copy + Default>(buckets: &[u32], to: fn(u32) -> W) -> [W; BATCH] {
    let mut oracles = [W::default(); BATCH];
    (oracles.iter_mut().zip(buckets)).for_each(|(w, &bucket)| *w = to(bucket));
    oracles
}

/// Run the count kernel over `data` on `device`.
///
/// `write_oracles = false` is the count-only mode used by approximate
/// selection (§V-G) — it skips the oracle store entirely ("count w.o.
/// write" in Fig. 9).
pub fn count_kernel<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    tree: &SearchTree<T>,
    cfg: &SampleSelectConfig,
    write_oracles: bool,
    origin: LaunchOrigin,
) -> CountResult {
    count_kernel_scoped(
        device,
        data,
        tree,
        cfg,
        write_oracles,
        origin,
        &KernelScratch::new(),
    )
}

/// [`count_kernel`] for any [`Classifier`], with caller-provided
/// closure scratch: the per-worker bucket counters and warp-collision
/// arrays are leased from `scratch` instead of freshly allocated, and
/// the partials/oracle buffers come from the device
/// [`gpu_sim::BufferPool`] when it is armed. With a warm pool + scratch,
/// the kernel is allocation-free.
pub fn count_kernel_scoped<T: SelectElement, C: Classifier<T>>(
    device: &mut Device,
    data: &[T],
    classifier: &C,
    cfg: &SampleSelectConfig,
    write_oracles: bool,
    origin: LaunchOrigin,
    scratch: &KernelScratch,
) -> CountResult {
    let n = data.len();
    let b = classifier.num_buckets();
    let launch = cfg.launch_config(n, T::BYTES);
    let blocks = launch.blocks as usize;
    let chunk = launch.block_chunk(n);
    let ballots = classifier.ballots_per_warp();
    let oracle_bytes = classifier.oracle_bytes(cfg);

    let partials = device.pooled_scatter::<u64>(b * blocks, "count-partials");
    let oracle_u8 = if write_oracles && oracle_bytes == 1 {
        Some(device.pooled_scatter::<u8>(n, "count-oracles"))
    } else {
        None
    };
    let oracle_u16 = if write_oracles && oracle_bytes == 2 {
        Some(device.pooled_scatter::<u16>(n, "count-oracles"))
    } else {
        None
    };

    // One parallel pass over the grid: each simulated block classifies
    // its chunk a batch of warps at a time, with exact per-warp
    // collision analysis.
    let partials_ref = &partials;
    let oracle_u8_ref = &oracle_u8;
    let oracle_u16_ref = &oracle_u16;
    let (mut cost, distinct_total) = hpc_par::parallel_map_reduce(
        device.pool(),
        blocks,
        1,
        (KernelCost::new(), 0u64),
        |range, (mut cost, mut distinct_total)| {
            let mut local = scratch.lease_u64(b);
            let mut warp_scratch = scratch.lease_u32(b);
            let mut batch_buckets = [0u32; BATCH];
            for block in range {
                let start = block * chunk;
                let end = ((block + 1) * chunk).min(n);
                local.iter_mut().for_each(|c| *c = 0);
                // Batches start at the block's first element, so each
                // 32-lane chunk of a batch is one of the block's warps.
                for first in (start..end).step_by(BATCH) {
                    let batch = &data[first..end.min(first + BATCH)];
                    let buckets = &mut batch_buckets[..batch.len()];
                    classifier.classify(batch, buckets);
                    for &bucket in buckets.iter() {
                        local[bucket as usize] += 1;
                    }
                    // SAFETY: each element index is owned by exactly one
                    // block chunk, and the batch lies inside it.
                    unsafe {
                        if let Some(o) = oracle_u8_ref {
                            o.write_slice(first, &narrow(buckets, |k| k as u8)[..batch.len()]);
                        } else if let Some(o) = oracle_u16_ref {
                            o.write_slice(first, &narrow(buckets, |k| k as u16)[..batch.len()]);
                        }
                    }
                    for warp in buckets.chunks(WARP_SIZE) {
                        let stats = warp_atomic_stats(warp, &mut warp_scratch);
                        distinct_total += stats.distinct as u64;
                        match cfg.atomic_scope {
                            AtomicScope::Shared => {
                                // One warp-wide atomic instruction; extra
                                // same-address replays unless aggregated.
                                cost.shared_atomic_warp_ops += 1;
                                if !cfg.warp_aggregation {
                                    cost.shared_atomic_replays +=
                                        stats.max_multiplicity.saturating_sub(1) as u64;
                                }
                            }
                            AtomicScope::Global => {
                                cost.global_atomic_ops += if cfg.warp_aggregation {
                                    stats.distinct as u64
                                } else {
                                    stats.lanes as u64
                                };
                            }
                        }
                        if cfg.warp_aggregation {
                            cost.warp_intrinsics += ballots;
                        }
                    }
                }
                // Store this block's partial counts (bucket-major slot).
                for (bucket, &c) in local.iter().enumerate() {
                    // SAFETY: (bucket, block) pairs are unique per block.
                    unsafe { partials_ref.write(bucket * blocks + block, c) };
                }
                if start >= end {
                    // empty tail block: zero partials already written
                    continue;
                }
                let len = (end - start) as u64;
                cost.global_read_bytes += len * T::BYTES as u64;
                classifier.charge(len, &mut cost);
                if write_oracles {
                    cost.global_write_bytes += len * oracle_bytes as u64;
                }
                match cfg.atomic_scope {
                    AtomicScope::Shared => {
                        // Block writes its b partial counters to global
                        // memory for the reduce kernel.
                        cost.global_write_bytes += b as u64 * 4;
                    }
                    AtomicScope::Global => {
                        // Counters live in global memory already; no
                        // partial store needed.
                    }
                }
                cost.blocks += 1;
            }
            scratch.give_u64(local);
            scratch.give_u32(warp_scratch);
            (cost, distinct_total)
        },
        |(mut cost, a), (other, b)| {
            cost.merge(&other);
            (cost, a + b)
        },
    );

    // SAFETY: every (bucket, block) slot was written exactly once above.
    let partials = unsafe { partials.into_vec(b * blocks) };
    let mut counts = device.lease_vec::<u64>(b, "counts");
    counts.resize(b, 0);
    for bucket in 0..b {
        counts[bucket] = partials[bucket * blocks..(bucket + 1) * blocks]
            .iter()
            .sum();
    }

    // Same-address serialization for the global-counter variant: the
    // hottest address receives `max(counts)` increments device-wide;
    // warp aggregation reduces per-address traffic by the measured
    // dedup factor.
    if cfg.atomic_scope == AtomicScope::Global {
        let hot = counts.iter().copied().max().unwrap_or(0);
        cost.global_atomic_hot_ops = if cfg.warp_aggregation && n > 0 {
            let factor = distinct_total as f64 / n.max(1) as f64;
            (hot as f64 * factor).ceil() as u64
        } else {
            hot
        };
    }

    device.commit(classifier.kernel_name(write_oracles), launch, origin, cost);

    let mut oracles = match (oracle_u8, oracle_u16) {
        // SAFETY: all n element slots were written exactly once.
        (Some(o), None) => Some(OracleBuf::U8(unsafe { o.into_vec(n) })),
        (None, Some(o)) => Some(OracleBuf::U16(unsafe { o.into_vec(n) })),
        _ => None,
    };

    // Give the fault injector its shot at the freshly materialized
    // buffers: the bucket histogram and the oracle array are exactly the
    // device-memory regions a real upset would hit between kernels.
    // Corruption is silent — the ABFT checks in `verify` (histogram sum,
    // filter size, rank certificate) are what catch it downstream.
    device.corrupt_region("counts", counts.as_mut_slice());
    match &mut oracles {
        Some(OracleBuf::U8(v)) => {
            device.corrupt_region("oracles", v.as_mut_slice());
        }
        Some(OracleBuf::U16(v)) => {
            device.corrupt_region("oracles", v.as_mut_slice());
        }
        None => {}
    }

    CountResult {
        counts,
        partials,
        blocks,
        oracles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::DigitClassifier;
    use crate::rng::SplitMix64;
    use gpu_sim::arch::{k20xm, v100};
    use hpc_par::ThreadPool;

    fn tree4() -> SearchTree<f32> {
        // buckets: (-inf,10) [10,20) [20,30) [30,inf)
        SearchTree::build(&[10.0, 20.0, 30.0])
    }

    fn cfg4() -> SampleSelectConfig {
        SampleSelectConfig::default().with_buckets(4)
    }

    fn run(
        data: &[f32],
        cfg: &SampleSelectConfig,
        write_oracles: bool,
    ) -> (CountResult, gpu_sim::KernelCost) {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let res = count_kernel(
            &mut device,
            data,
            &tree4(),
            cfg,
            write_oracles,
            LaunchOrigin::Host,
        );
        let cost = device.records()[0].cost;
        (res, cost)
    }

    #[test]
    fn counts_match_reference() {
        let data = vec![5.0f32, 15.0, 25.0, 35.0, 10.0, 20.0, 30.0, 9.99];
        let (res, _) = run(&data, &cfg4(), true);
        assert_eq!(res.counts, vec![2, 2, 2, 2]);
        assert_eq!(res.total(), 8);
    }

    #[test]
    fn oracles_record_bucket_of_every_element() {
        let data = vec![5.0f32, 15.0, 25.0, 35.0];
        let (res, _) = run(&data, &cfg4(), true);
        let oracles = res.oracles.unwrap();
        assert_eq!(oracles.entry_bytes(), 1);
        assert_eq!(
            (0..4).map(|i| oracles.get(i)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn count_only_mode_skips_oracles() {
        let data = vec![5.0f32, 15.0];
        let (res, cost) = run(&data, &cfg4(), false);
        assert!(res.oracles.is_none());
        // Only the per-block partial-count store remains (b counters x
        // 4 bytes x 1 block) — no per-element oracle bytes.
        assert_eq!(cost.global_write_bytes, 4 * 4);
    }

    #[test]
    fn partials_sum_to_counts_across_blocks() {
        let mut rng = SplitMix64::new(5);
        let data: Vec<f32> = (0..100_000).map(|_| rng.next_f64() as f32 * 40.0).collect();
        let cfg = cfg4();
        let (res, _) = run(&data, &cfg, true);
        assert!(res.blocks > 1, "need a multi-block grid for this test");
        for bucket in 0..4 {
            let sum: u64 = res.partials[bucket * res.blocks..(bucket + 1) * res.blocks]
                .iter()
                .sum();
            assert_eq!(sum, res.counts[bucket]);
        }
        // reference counts
        let mut expected = vec![0u64; 4];
        for &x in &data {
            expected[tree4().lookup(x) as usize] += 1;
        }
        assert_eq!(res.counts, expected);
    }

    #[test]
    fn shared_scope_charges_shared_atomics_only() {
        let data: Vec<f32> = (0..10_000).map(|i| (i % 40) as f32).collect();
        let cfg = cfg4().with_atomic_scope(AtomicScope::Shared);
        let (_, cost) = run(&data, &cfg, true);
        assert!(cost.shared_atomic_warp_ops > 0);
        assert_eq!(cost.global_atomic_ops, 0);
        assert_eq!(cost.global_atomic_hot_ops, 0);
    }

    #[test]
    fn global_scope_charges_global_atomics_only() {
        let data: Vec<f32> = (0..10_000).map(|i| (i % 40) as f32).collect();
        let cfg = cfg4().with_atomic_scope(AtomicScope::Global);
        let (res, cost) = run(&data, &cfg, true);
        assert_eq!(cost.shared_atomic_warp_ops, 0);
        assert_eq!(
            cost.global_atomic_ops, 10_000,
            "one op per element without aggregation"
        );
        assert_eq!(
            cost.global_atomic_hot_ops,
            *res.counts.iter().max().unwrap()
        );
    }

    #[test]
    fn duplicate_heavy_input_collides_without_aggregation() {
        // d = 1: every element hits the same counter.
        let data = vec![5.0f32; 32 * 100];
        let no_agg = cfg4().with_warp_aggregation(false);
        let agg = cfg4().with_warp_aggregation(true);
        let (_, cost_no) = run(&data, &no_agg, true);
        let (_, cost_agg) = run(&data, &agg, true);
        // Without aggregation each full warp pays 31 extra same-address
        // replays; with aggregation none.
        assert_eq!(cost_no.shared_atomic_warp_ops, 100);
        assert_eq!(cost_no.shared_atomic_replays, 31 * 100);
        assert_eq!(cost_agg.shared_atomic_warp_ops, 100);
        assert_eq!(cost_agg.shared_atomic_replays, 0);
        // Aggregation pays ballots instead.
        assert_eq!(cost_no.warp_intrinsics, 0);
        assert_eq!(cost_agg.warp_intrinsics, 100 * 2); // height = log2(4) = 2
    }

    #[test]
    fn aggregation_reduces_global_hot_ops_for_duplicates() {
        let data = vec![5.0f32; 3200];
        let base = cfg4().with_atomic_scope(AtomicScope::Global);
        let (_, cost_no) = run(&data, &base.clone().with_warp_aggregation(false), true);
        let (_, cost_agg) = run(&data, &base.with_warp_aggregation(true), true);
        assert_eq!(cost_no.global_atomic_hot_ops, 3200);
        assert!(cost_agg.global_atomic_hot_ops <= 3200 / 16);
    }

    #[test]
    fn memory_traffic_accounts_reads_and_oracle_writes() {
        let data: Vec<f32> = (0..50_000).map(|i| (i % 40) as f32).collect();
        let (_, cost) = run(&data, &cfg4(), true);
        assert!(cost.global_read_bytes >= 50_000 * 4);
        // oracle store: 1 byte per element; plus per-block partial store
        assert!(cost.global_write_bytes >= 50_000);
    }

    #[test]
    fn kepler_vs_volta_shared_atomic_times_differ() {
        // The same workload on the two architectures: identical
        // functional result, very different simulated cost.
        let pool = ThreadPool::new(4);
        let mut rng = SplitMix64::new(9);
        let data: Vec<f32> = (0..200_000).map(|_| rng.next_f64() as f32 * 40.0).collect();
        let cfg = cfg4();
        let mut dk = Device::new(k20xm(), &pool);
        let mut dv = Device::new(v100(), &pool);
        let rk = count_kernel(&mut dk, &data, &tree4(), &cfg, true, LaunchOrigin::Host);
        let rv = count_kernel(&mut dv, &data, &tree4(), &cfg, true, LaunchOrigin::Host);
        assert_eq!(
            rk.counts, rv.counts,
            "functional result is arch-independent"
        );
        let tk = dk.records()[0].duration;
        let tv = dv.records()[0].duration;
        assert!(tk.as_ns() > tv.as_ns(), "K20Xm must be slower overall");
    }

    #[test]
    fn empty_tail_blocks_are_harmless() {
        // n much smaller than one block's capacity: grid has one block.
        let data = vec![1.0f32, 11.0, 21.0, 31.0];
        let (res, _) = run(&data, &cfg4(), true);
        assert_eq!(res.blocks, 1);
        assert_eq!(res.total(), 4);
    }

    /// `classifier.classify` one element at a time.
    fn elementwise<T: SelectElement, C: Classifier<T>>(classifier: &C, data: &[T]) -> Vec<u32> {
        let mut bucket = [0u32];
        (data.iter())
            .map(|x| {
                classifier.classify(std::slice::from_ref(x), &mut bucket);
                bucket[0]
            })
            .collect()
    }

    /// Every classifier takes a batch of any length and answers as it
    /// does element by element.
    #[test]
    fn batches_of_any_length_classify_like_single_elements() {
        fn check<T: SelectElement, C: Classifier<T>>(classifier: &C, data: &[T]) {
            for len in [128, 517] {
                let mut buckets = vec![u32::MAX; len];
                classifier.classify(&data[..len], &mut buckets);
                assert_eq!(
                    buckets,
                    elementwise(classifier, &data[..len]),
                    "batch of {len}"
                );
            }
        }
        let mut rng = SplitMix64::new(30);
        let mut wide: Vec<f64> = (0..517).map(|_| rng.next_f64() * 2e6 - 1e6).collect();
        wide[..6].copy_from_slice(&[f64::NAN, -0.0, 0.0, f64::INFINITY, -1e300, 1e300]);
        wide[200..240].fill(3.5);
        let floats: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
        let splitters = |b: usize| (1..b).map(move |i| i as f64 * 2e6 / b as f64 - 1e6);
        for b in [4, 256, 512] {
            let tree32 = SearchTree::build(&splitters(b).map(|s| s as f32).collect::<Vec<_>>());
            check(&tree32, &floats);
            check(&SearchTree::build(&splitters(b).collect::<Vec<_>>()), &wide);
        }
        for shift in [0, 8, 16, 24] {
            check(&DigitClassifier { shift }, &floats);
            check(&DigitClassifier { shift }, &wide);
        }
        for shift in [32, 56] {
            check(&DigitClassifier { shift }, &wide);
        }
    }

    /// The count kernel as a per-warp loop over one-element
    /// classifications: counts, bucket-major partials, oracles and cost.
    fn per_warp_reference<T: SelectElement, C: Classifier<T>>(
        data: &[T],
        classifier: &C,
        cfg: &SampleSelectConfig,
        write_oracles: bool,
    ) -> (Vec<u64>, Vec<u64>, Vec<u32>, KernelCost) {
        let n = data.len();
        let b = classifier.num_buckets();
        let launch = cfg.launch_config(n, T::BYTES);
        let blocks = launch.blocks as usize;
        let chunk = launch.block_chunk(n);
        let mut partials = vec![0u64; b * blocks];
        let mut oracles = vec![0u32; n];
        let mut cost = KernelCost::new();
        let mut distinct = 0u64;
        let mut scratch = vec![0u32; b];
        for block in 0..blocks {
            let (start, end) = (block * chunk, ((block + 1) * chunk).min(n));
            if start >= end {
                continue;
            }
            for first in (start..end).step_by(WARP_SIZE) {
                let warp = elementwise(classifier, &data[first..end.min(first + WARP_SIZE)]);
                for (lane, &bucket) in warp.iter().enumerate() {
                    partials[bucket as usize * blocks + block] += 1;
                    oracles[first + lane] = bucket;
                }
                let stats = warp_atomic_stats(&warp, &mut scratch);
                distinct += stats.distinct as u64;
                match cfg.atomic_scope {
                    AtomicScope::Shared => {
                        cost.shared_atomic_warp_ops += 1;
                        if !cfg.warp_aggregation {
                            cost.shared_atomic_replays += stats.max_multiplicity as u64 - 1;
                        }
                    }
                    AtomicScope::Global if cfg.warp_aggregation => {
                        cost.global_atomic_ops += stats.distinct as u64
                    }
                    AtomicScope::Global => cost.global_atomic_ops += stats.lanes as u64,
                }
                if cfg.warp_aggregation {
                    cost.warp_intrinsics += classifier.ballots_per_warp();
                }
            }
            let len = (end - start) as u64;
            cost.global_read_bytes += len * T::BYTES as u64;
            classifier.charge(len, &mut cost);
            if write_oracles {
                cost.global_write_bytes += len * classifier.oracle_bytes(cfg) as u64;
            }
            if cfg.atomic_scope == AtomicScope::Shared {
                cost.global_write_bytes += b as u64 * 4;
            }
            cost.blocks += 1;
        }
        let counts: Vec<u64> = partials.chunks(blocks).map(|p| p.iter().sum()).collect();
        if cfg.atomic_scope == AtomicScope::Global {
            let hot = *counts.iter().max().unwrap();
            cost.global_atomic_hot_ops = if cfg.warp_aggregation {
                (hot as f64 * (distinct as f64 / n as f64)).ceil() as u64
            } else {
                hot
            };
        }
        (counts, partials, oracles, cost)
    }

    /// The batched count kernel equals the per-warp reference in every
    /// atomic variant, oracle width and classifier, on grids whose block
    /// chunks are not whole warps or batches.
    #[test]
    fn batched_count_equals_the_per_warp_reference() {
        fn check<C: Classifier<f32>>(data: &[f32], classifier: &C, cfg: &SampleSelectConfig) {
            let launch = cfg.launch_config(data.len(), 4);
            assert_ne!(launch.block_chunk(data.len()) % WARP_SIZE, 0);
            let pool = ThreadPool::new(2);
            for write_oracles in [true, false] {
                let mut device = Device::new(v100(), &pool);
                let scratch = KernelScratch::new();
                let res = count_kernel_scoped(
                    &mut device,
                    data,
                    classifier,
                    cfg,
                    write_oracles,
                    LaunchOrigin::Host,
                    &scratch,
                );
                let (counts, partials, oracles, cost) =
                    per_warp_reference(data, classifier, cfg, write_oracles);
                assert_eq!(res.counts, counts);
                assert_eq!(res.partials, partials);
                assert_eq!(res.blocks, launch.blocks as usize);
                match res.oracles {
                    Some(o) => {
                        assert!(write_oracles);
                        let width = if classifier.num_buckets() > 256 { 2 } else { 1 };
                        assert_eq!(o.entry_bytes(), width);
                        assert!((0..data.len()).all(|i| o.get(i) == oracles[i]));
                    }
                    None => assert!(!write_oracles),
                }
                assert_eq!(device.records()[0].cost, cost);
            }
        }
        let mut rng = SplitMix64::new(31);
        for n in [10_000, (1 << 16) + 37] {
            // Half the elements repeat a few values, so warps collide.
            let data: Vec<f32> = (0..n)
                .map(|i| {
                    if i % 64 < 32 {
                        rng.next_f64() as f32
                    } else {
                        (rng.next_u64() % 5) as f32 / 5.0
                    }
                })
                .collect();
            for scope in [AtomicScope::Shared, AtomicScope::Global] {
                for aggregation in [true, false] {
                    let cfg = |b: usize| {
                        (SampleSelectConfig::default().with_buckets(b))
                            .with_atomic_scope(scope)
                            .with_warp_aggregation(aggregation)
                    };
                    for b in [256, 512] {
                        let splitters: Vec<f32> = (1..b).map(|i| i as f32 / b as f32).collect();
                        check(&data, &SearchTree::build(&splitters), &cfg(b));
                    }
                    for shift in [0, 16, 24] {
                        check(&data, &DigitClassifier { shift }, &cfg(256));
                    }
                }
            }
        }
    }

    #[test]
    fn wide_oracles_for_512_buckets() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let splitters: Vec<f32> = (1..512).map(|i| i as f32).collect();
        let tree = SearchTree::build(&splitters);
        let cfg = SampleSelectConfig::default().with_buckets(512);
        let data: Vec<f32> = (0..2048).map(|i| (i % 600) as f32).collect();
        let res = count_kernel(&mut device, &data, &tree, &cfg, true, LaunchOrigin::Host);
        let oracles = res.oracles.unwrap();
        assert_eq!(oracles.entry_bytes(), 2);
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(oracles.get(i), tree.lookup(x));
        }
    }
}
