//! The real multithreaded CPU backend: SampleSelect's one level loop
//! ([`crate::recursion`]) run by a host executor.
//!
//! The executor runs each level's sample, count, reduce, filter and base
//! case on host threads for genuine wall-clock speed and charges nothing
//! to a simulated clock. Its levels have the device's shape, with chunks
//! in the role of blocks: the count keeps bucket-major per-chunk counts,
//! the reduce scans them, and each chunk of the filter writes its
//! elements straight to the slots the scan gives it. So the filter output
//! is the device's, element for element. As in the paper, the count
//! stores each element's bucket as an oracle and the filter reads the
//! oracles instead of classifying the elements again. Approximate
//! selection is [`crate::approx`]'s one level on this executor.
//! Criterion benchmarks in the `select-bench` crate measure this backend;
//! it is also a practically useful parallel `nth_element`.

use crate::approx::nearest_splitter;
use crate::count::{Classifier, CountResult, OracleBuf};
use crate::element::{sort_elements, SelectElement};
use crate::instrument::SelectReport;
use crate::params::SampleSelectConfig;
use crate::recursion::{
    fused_with_workspace, rank_levels, ranks_with_workspace, splitters, Executor, SplitterLevels,
};
use crate::reduce::ReduceResult;
use crate::rng::SplitMix64;
use crate::searchtree::SearchTree;
use crate::splitter::draw_splitters;
use crate::verify::check_splitters;
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::warp::WARP_SIZE;
use gpu_sim::{LaunchOrigin, ScatterBuffer};
use hpc_par::simd::{self, SimdLevel};
use hpc_par::ThreadPool;
use std::ops::Range;

/// Tuning knobs of the CPU backend.
#[derive(Debug, Clone)]
pub struct CpuSelectConfig {
    /// Buckets per recursion level: a power of two from 4 to 1024.
    pub num_buckets: usize,
    /// Sample size = `oversampling * num_buckets`.
    pub oversampling: usize,
    /// Below this size, sort sequentially and return directly.
    pub base_case_size: usize,
    /// RNG seed for splitter sampling.
    pub seed: u64,
}

impl Default for CpuSelectConfig {
    fn default() -> Self {
        Self {
            num_buckets: 256,
            oversampling: 4,
            base_case_size: 8192,
            seed: 0xc0ffee,
        }
    }
}

impl CpuSelectConfig {
    /// The level loop's configuration for these knobs; the loop
    /// validates it with the host executor's rule.
    fn loop_config(&self) -> SampleSelectConfig {
        SampleSelectConfig {
            num_buckets: self.num_buckets,
            oversampling: self.oversampling,
            base_case_size: self.base_case_size,
            seed: self.seed,
            ..SampleSelectConfig::default()
        }
    }
}

/// Statistics of one CPU selection run.
#[derive(Debug, Clone, Default)]
pub struct CpuSelectStats {
    /// Recursion levels executed.
    pub levels: u32,
    /// Total elements touched across all levels (the `(1+ε)n` of §IV-A).
    pub elements_scanned: u64,
    /// Whether an equality bucket terminated the run early.
    pub terminated_early: bool,
}

/// The host executor of the level loop: SampleSelect's steps on a
/// thread pool, with nothing charged and the span clock held at 0. Like
/// the paper's count kernel, its count stores each element's bucket as
/// an oracle, and its filter reads only the oracles. It keeps the
/// executor's default validation: the oracles are two bytes wide above
/// 256 buckets, so the host needs no `wide_oracles` switch.
struct Host<'a> {
    pool: &'a ThreadPool,
    /// Elements counted so far, across all levels.
    scanned: u64,
}

impl<T: SelectElement> Executor<T, SplitterLevels> for Host<'_> {
    fn now(&self) -> f64 {
        0.0
    }

    fn sample(
        &mut self,
        cur: &[T],
        cfg: &SampleSelectConfig,
        rng: &mut SplitMix64,
        _origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) -> Result<(), SelectError> {
        draw_splitters(cur, cfg, rng, ws, |sample, _| sort_elements(sample));
        check_splitters(&ws.splitters)?;
        SearchTree::rebuild_into(&mut ws.tree, &ws.splitters);
        Ok(())
    }

    fn count(
        &mut self,
        cur: &[T],
        classifier: &impl Classifier<T>,
        cfg: &SampleSelectConfig,
        oracles: bool,
        _origin: LaunchOrigin,
        _ws: &SelectWorkspace<T>,
    ) -> CountResult {
        self.scanned += cur.len() as u64;
        // The oracle width follows the configured bucket count.
        assert_eq!(classifier.num_buckets(), cfg.num_buckets);
        let (pool, n) = (self.pool, cur.len());
        if !oracles {
            return classify(pool, cur, classifier, &mut vec![(); n], |_| ());
        }
        let (count, oracles) = if cfg.oracle_bytes() == 1 {
            let mut o = vec![0u8; n];
            let count = classify(pool, cur, classifier, &mut o, |k| k as u8);
            (count, OracleBuf::U8(o))
        } else {
            let mut o = vec![0u16; n];
            let count = classify(pool, cur, classifier, &mut o, |k| k as u16);
            (count, OracleBuf::U16(o))
        };
        let oracles = Some(oracles);
        CountResult { oracles, ..count }
    }

    fn reduce(&mut self, count: &CountResult) -> ReduceResult {
        // Scan the bucket-major partials as the reduce kernel does; a
        // bucket starts at its first chunk's offset.
        let (mut offsets, blocks) = (count.partials.clone(), count.blocks);
        let total = hpc_par::exclusive_scan(&mut offsets);
        let starts = offsets.iter().step_by(blocks).copied();
        let bucket_offsets = starts.chain([total]).collect();
        ReduceResult {
            offsets,
            bucket_offsets,
            blocks,
        }
    }

    fn filter(
        &mut self,
        cur: &[T],
        count: &CountResult,
        red: &ReduceResult,
        range: Range<u32>,
        _cfg: &SampleSelectConfig,
        _ws: &SelectWorkspace<T>,
    ) -> Vec<T> {
        let (first, last, level) = (range.start, range.end - 1, simd::simd_level());
        let (pool, oracles) = (self.pool, count.oracles.as_ref());
        match oracles.expect("the host count writes oracles") {
            OracleBuf::U8(o) if first == last => scatter(pool, cur, o, red, range, |w| {
                simd::eq_mask_u8(w, first as u8, level)
            }),
            OracleBuf::U8(o) => scatter(pool, cur, o, red, range, |w| {
                in_range(w, first, last, level)
            }),
            OracleBuf::U16(o) => scatter(pool, cur, o, red, range, |w| {
                in_range(w, first, last, level)
            }),
        }
    }

    fn base_case(
        &mut self,
        cur: &[T],
        _cfg: &SampleSelectConfig,
        _origin: LaunchOrigin,
        ws: &mut SelectWorkspace<T>,
    ) {
        ws.base.clear();
        ws.base.extend_from_slice(cur);
        sort_elements(&mut ws.base);
    }
}

/// Elements per parallel chunk of a level: a whole number of warps, and
/// few enough for a chunk's `u32` bucket counts.
fn chunk_len(pool: &ThreadPool, n: usize) -> usize {
    let chunk = n.div_ceil(pool.num_threads() * 8).max(hpc_par::min_chunk());
    chunk.min(1 << 31).next_multiple_of(WARP_SIZE)
}

/// The counts per bucket of `classifier` over `cur`, per chunk as
/// bucket-major partials (`[bucket * chunks + chunk]`) and in total,
/// writing each element's bucket to `oracles` as `oracle` stores it: a
/// `u8` or `u16`, or `()` for a count that stores none. Chunks run in
/// parallel; each adds into four interleaved `u32` sub-histograms,
/// consecutive elements into different ones, so that a run of one bucket
/// does not wait on its own last increment, and sums them at its end.
fn classify<T: SelectElement, W: Copy + Send>(
    pool: &ThreadPool,
    cur: &[T],
    classifier: &impl Classifier<T>,
    oracles: &mut [W],
    oracle: impl Fn(u32) -> W + Sync,
) -> CountResult {
    let b = classifier.num_buckets();
    let chunk = chunk_len(pool, cur.len());
    let sub = || [(); 4].map(|_| vec![0u32; b]);
    let mut parts: Vec<_> = oracles.chunks_mut(chunk).map(|o| (o, sub())).collect();
    hpc_par::iter::parallel_chunks_mut(pool, &mut parts, 1, |c, part| {
        let (oracles, [s0, s1, s2, s3]) = &mut part[0];
        let mut buckets = [0u32; 128];
        let chunk = cur[c * chunk..][..oracles.len()].chunks(buckets.len());
        for (batch, oracles) in chunk.zip(oracles.chunks_mut(buckets.len())) {
            let buckets = &mut buckets[..batch.len()];
            classifier.classify_warp(batch, buckets);
            for (&bucket, stored) in buckets.iter().zip(oracles) {
                *stored = oracle(bucket);
            }
            let mut quads = buckets.chunks_exact(4);
            for quad in &mut quads {
                s0[quad[0] as usize] += 1;
                s1[quad[1] as usize] += 1;
                s2[quad[2] as usize] += 1;
                s3[quad[3] as usize] += 1;
            }
            for &bucket in quads.remainder() {
                s0[bucket as usize] += 1;
            }
        }
        for (bucket, total) in s0.iter_mut().enumerate() {
            *total += s1[bucket] + s2[bucket] + s3[bucket];
        }
    });
    let blocks = parts.len();
    let partial = |i: usize| parts[i % blocks].1[0][i / blocks] as u64;
    let partials: Vec<u64> = (0..b * blocks).map(partial).collect();
    let counts = partials.chunks(blocks).map(|p| p.iter().sum()).collect();
    CountResult {
        counts,
        partials,
        blocks,
        oracles: None,
    }
}

/// The elements of `cur` in the buckets of `range`, bucket-major and in
/// input order within a bucket, as the filter kernel writes them. Chunks
/// run in parallel a warp at a time: `lanes` marks a warp's elements in
/// the range, and each is written to the next slot of its bucket in its
/// chunk, which starts at the chunk's scanned partial in `red`.
fn scatter<T: SelectElement, W: Copy + Into<u32> + Sync>(
    pool: &ThreadPool,
    cur: &[T],
    oracles: &[W],
    red: &ReduceResult,
    range: Range<u32>,
    lanes: impl Fn(&[W]) -> u32 + Sync,
) -> Vec<T> {
    let (n, chunks, chunk) = (cur.len(), red.blocks, chunk_len(pool, cur.len()));
    let base = red.bucket_offsets[range.start as usize];
    let len = (red.bucket_offsets[range.end as usize] - base) as usize;
    let out = ScatterBuffer::from_storage(Vec::new(), len);
    hpc_par::iter::parallel_for_chunks(pool, chunks, 1, |cs| {
        for c in cs {
            let slot = |k: u32| (red.offsets[k as usize * chunks + c] - base) as usize;
            // The next slot of each bucket in the range. `put` sees only
            // oracles in the range, and validation caps the buckets at
            // 1024, so `% 1024` changes no index; it lets the compiler
            // drop a bounds check worth an eighth of the filter time of
            // a top-k at k = n - 1000.
            let mut next = [0usize; 1024];
            range.clone().for_each(|k| next[k as usize] = slot(k));
            let mut put = |x: T, oracle: W| {
                let next = &mut next[oracle.into() as usize % 1024];
                // SAFETY: chunk `c` owns, per bucket, the slots from its
                // scanned partial on, as many as the partial counts; each
                // of its elements in the bucket takes the next one.
                unsafe { out.write(*next, x) };
                *next += 1;
            };
            let span = c * chunk..n.min((c + 1) * chunk);
            let warps = cur[span.clone()].chunks(WARP_SIZE);
            for (warp, oracles) in warps.zip(oracles[span].chunks(WARP_SIZE)) {
                let mut lanes = lanes(oracles);
                if lanes == u32::MAX {
                    // A whole warp in the range, as most are in a top-k
                    // with k near n: no lane to look up.
                    lanes = 0;
                    warp.iter().zip(oracles).for_each(|(&x, &o)| put(x, o));
                }
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize;
                    put(warp[lane], oracles[lane]);
                    lanes &= lanes - 1;
                }
            }
        }
    });
    // SAFETY: the partials count exactly the elements each chunk wrote,
    // so their scan leaves no slot of `0..len` unwritten.
    unsafe { out.into_vec(len) }
}

/// The lanes of a warp whose oracles lie in `first..=last`, as a bit
/// mask: one flag byte per lane, then `eq_mask_u8`. Testing each lane
/// with a branch ran up to 80 % slower on a top-k at k = n/2.
fn in_range<W: Copy + Into<u32>>(oracles: &[W], first: u32, last: u32, level: SimdLevel) -> u32 {
    let mut inside = [0u8; WARP_SIZE];
    for (flag, &oracle) in inside.iter_mut().zip(oracles) {
        *flag = (oracle.into().wrapping_sub(first) <= last - first) as u8;
    }
    simd::eq_mask_u8(&inside[..oracles.len()], 1, level)
}

/// Parallel exact selection on the host: the `rank`-th smallest element.
pub fn cpu_sample_select<T: SelectElement>(
    pool: &ThreadPool,
    data: &[T],
    rank: usize,
    cfg: &CpuSelectConfig,
) -> Result<(T, CpuSelectStats), SelectError> {
    let (cfg, mut host) = (cfg.loop_config(), Host { pool, scanned: 0 });
    let (ws, report) = (&mut SelectWorkspace::new(), &mut SelectReport::empty(""));
    let value = rank_levels(&mut host, data, rank, &cfg, ws, report, splitters(&cfg))?;
    let stats = CpuSelectStats {
        levels: report.levels,
        elements_scanned: host.scanned,
        terminated_early: report.terminated_early,
    };
    Ok((value, stats))
}

/// Parallel approximate selection on the host: one histogram level,
/// returning `(value, achieved_rank)` for the splitter nearest `rank`.
pub fn cpu_approx_select<T: SelectElement>(
    pool: &ThreadPool,
    data: &[T],
    rank: usize,
    cfg: &CpuSelectConfig,
) -> Result<(T, u64), SelectError> {
    let (cfg, mut host) = (cfg.loop_config(), Host { pool, scanned: 0 });
    nearest_splitter(&mut host, data, rank, &cfg)
}

/// Parallel top-k on the host: the `k` largest elements (unordered)
/// and the threshold value.
pub fn cpu_top_k<T: SelectElement>(
    pool: &ThreadPool,
    data: &[T],
    k: usize,
    cfg: &CpuSelectConfig,
) -> Result<(Vec<T>, T), SelectError> {
    let (cfg, mut host) = (cfg.loop_config(), Host { pool, scanned: 0 });
    let top = fused_with_workspace(&mut host, data, k, true, &cfg, &mut SelectWorkspace::new())?;
    Ok((top.elements, top.threshold))
}

/// Parallel multi-rank selection on the host: values for several ranks
/// sharing one histogram pass per level (the future-work extension of
/// SS VI, host edition).
pub fn cpu_multi_select<T: SelectElement>(
    pool: &ThreadPool,
    data: &[T],
    ranks: &[usize],
    cfg: &CpuSelectConfig,
) -> Result<Vec<T>, SelectError> {
    let (cfg, mut host) = (cfg.loop_config(), Host { pool, scanned: 0 });
    let ws = &mut SelectWorkspace::new();
    Ok(ranks_with_workspace(&mut host, data, ranks, &cfg, ws)?.values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::reference_select;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn uniform(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() as f32).collect()
    }

    #[test]
    fn matches_reference_on_random_data() {
        let p = pool();
        let data = uniform(300_000, 1);
        let cfg = CpuSelectConfig::default();
        for rank in [0usize, 1, 150_000, 299_999] {
            let (v, _) = cpu_sample_select(&p, &data, rank, &cfg).unwrap();
            assert_eq!(v, reference_select(&data, rank).unwrap(), "rank {rank}");
        }
    }

    #[test]
    fn handles_duplicates_with_early_termination() {
        let p = pool();
        let mut rng = SplitMix64::new(2);
        let data: Vec<f32> = (0..200_000)
            .map(|_| (rng.next_below(4) as f32) * 3.0)
            .collect();
        let cfg = CpuSelectConfig::default();
        let (v, stats) = cpu_sample_select(&p, &data, 100_000, &cfg).unwrap();
        assert_eq!(v, reference_select(&data, 100_000).unwrap());
        assert!(stats.terminated_early);
    }

    #[test]
    fn all_equal_input() {
        let p = pool();
        let data = vec![9.5f32; 100_000];
        let (v, stats) = cpu_sample_select(&p, &data, 50_000, &CpuSelectConfig::default()).unwrap();
        assert_eq!(v, 9.5);
        assert!(stats.terminated_early);
    }

    #[test]
    fn scans_close_to_n_elements() {
        // The (1+eps)n property of §IV-A: total scanned work across all
        // levels is barely more than n.
        let p = pool();
        let data = uniform(1 << 20, 3);
        let session = crate::ObsSession::start();
        let (_, stats) =
            cpu_sample_select(&p, &data, 1 << 19, &CpuSelectConfig::default()).unwrap();
        let scanned = stats.elements_scanned as f64;
        let n = data.len() as f64;
        assert!(scanned < 1.1 * n, "scanned {scanned} vs n {n}");
        // The loop's spans are there, and the host charges them no time.
        let log = session.finish().span_log();
        for name in "sampleselect level sample count filter base_sort".split(' ') {
            assert!(log.contains(name), "span {name} missing from\n{log}");
        }
        let untimed = |l: &str| l.ends_with("start=0.0ns dur=0.0ns");
        assert!(log.lines().all(untimed), "{log}");
    }

    #[test]
    fn integer_and_double_types() {
        let p = pool();
        let mut rng = SplitMix64::new(4);
        let ints: Vec<i64> = (0..100_000).map(|_| rng.next_u64() as i64).collect();
        let (v, _) = cpu_sample_select(&p, &ints, 70_000, &CpuSelectConfig::default()).unwrap();
        assert_eq!(v, reference_select(&ints, 70_000).unwrap());
        let doubles: Vec<f64> = (0..100_000).map(|_| rng.next_f64() - 0.5).collect();
        let (v, _) = cpu_sample_select(&p, &doubles, 99_999, &CpuSelectConfig::default()).unwrap();
        assert_eq!(v, reference_select(&doubles, 99_999).unwrap());
    }

    #[test]
    fn small_inputs_use_base_case() {
        let p = pool();
        let data = vec![3.0f32, 1.0, 2.0];
        let (v, stats) = cpu_sample_select(&p, &data, 1, &CpuSelectConfig::default()).unwrap();
        assert_eq!(v, 2.0);
        assert_eq!(stats.levels, 0);
    }

    #[test]
    fn errors() {
        let p = pool();
        let cfg = CpuSelectConfig::default();
        assert_eq!(
            cpu_sample_select::<f32>(&p, &[], 0, &cfg).unwrap_err(),
            SelectError::EmptyInput
        );
        assert!(matches!(
            cpu_sample_select(&p, &[1.0f32], 5, &cfg).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
    }

    #[test]
    fn approx_rank_is_exact_rank_of_value() {
        let p = pool();
        let data = uniform(200_000, 5);
        let (v, achieved) =
            cpu_approx_select(&p, &data, 100_000, &CpuSelectConfig::default()).unwrap();
        let true_rank = data.iter().filter(|&&x| x < v).count() as u64;
        assert_eq!(achieved, true_rank);
        assert!(achieved.abs_diff(100_000) < 20_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = pool();
        let data = uniform(150_000, 6);
        let cfg = CpuSelectConfig::default();
        let (v1, s1) = cpu_sample_select(&p, &data, 42, &cfg).unwrap();
        let (v2, s2) = cpu_sample_select(&p, &data, 42, &cfg).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(s1.levels, s2.levels);
    }

    #[test]
    fn cpu_top_k_matches_sorted_suffix() {
        let p = pool();
        let data = uniform(100_000, 10);
        for k in [1usize, 100, 50_000] {
            let (top, threshold) = cpu_top_k(&p, &data, k, &CpuSelectConfig::default()).unwrap();
            assert_eq!(top.len(), k);
            let mut sorted = data.clone();
            crate::element::sort_elements(&mut sorted);
            assert_eq!(threshold, sorted[data.len() - k]);
            let mut got: Vec<u32> = top.iter().map(|x| x.to_bits()).collect();
            let mut expected: Vec<u32> = sorted[data.len() - k..]
                .iter()
                .map(|x| x.to_bits())
                .collect();
            got.sort_unstable();
            expected.sort_unstable();
            assert_eq!(got, expected, "k = {k}");
        }
    }

    #[test]
    fn cpu_top_k_with_boundary_ties() {
        let p = pool();
        let data = vec![1.0f32, 2.0, 2.0, 2.0, 3.0];
        let (top, threshold) = cpu_top_k(&p, &data, 3, &CpuSelectConfig::default()).unwrap();
        assert_eq!(threshold, 2.0);
        assert_eq!(top.len(), 3);
        assert!(top.contains(&3.0));
        assert_eq!(top.iter().filter(|&&x| x == 2.0).count(), 2);
    }

    #[test]
    fn cpu_multi_select_matches_reference() {
        let p = pool();
        let data = uniform(150_000, 11);
        let ranks = [0usize, 42, 75_000, 149_999];
        let values = cpu_multi_select(&p, &data, &ranks, &CpuSelectConfig::default()).unwrap();
        for (i, &r) in ranks.iter().enumerate() {
            assert_eq!(values[i], reference_select(&data, r).unwrap(), "rank {r}");
        }
    }

    #[test]
    fn cpu_multi_select_duplicate_heavy() {
        let p = pool();
        let mut rng = SplitMix64::new(12);
        let data: Vec<f32> = (0..80_000)
            .map(|_| (rng.next_below(4) as f32) * 2.0)
            .collect();
        let ranks = [0usize, 40_000, 79_999];
        let values = cpu_multi_select(&p, &data, &ranks, &CpuSelectConfig::default()).unwrap();
        for (i, &r) in ranks.iter().enumerate() {
            assert_eq!(values[i], reference_select(&data, r).unwrap());
        }
    }

    #[test]
    fn cpu_top_k_errors() {
        let p = pool();
        let data = vec![1.0f32];
        assert!(cpu_top_k(&p, &data, 0, &CpuSelectConfig::default()).is_err());
        assert!(cpu_top_k(&p, &data, 2, &CpuSelectConfig::default()).is_err());
    }

    /// The elements' bits, for bit-exact comparison.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn host_filter_equals_the_filter_kernel() {
        use crate::count::count_kernel;
        use crate::filter::filter_kernel;
        use crate::recursion::built_tree;
        use crate::reduce::reduce_kernel;
        use gpu_sim::arch::v100;
        use gpu_sim::Device;

        let n = 1 << 16;
        let mut rng = SplitMix64::new(14);
        let d16: Vec<f32> = (0..n).map(|_| rng.next_below(16) as f32).collect();
        let inputs = [uniform(n, 15), d16];
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for (data, b) in inputs.iter().flat_map(|d| [4, 256, 1024].map(|b| (d, b))) {
                let cfg = CpuSelectConfig {
                    num_buckets: b,
                    ..CpuSelectConfig::default()
                }
                .loop_config();
                let mut host = Host {
                    pool: &pool,
                    scanned: 0,
                };
                let (ws, origin) = (&mut SelectWorkspace::new(), LaunchOrigin::Host);
                host.sample(data, &cfg, &mut SplitMix64::new(cfg.seed), origin, ws)
                    .unwrap();
                let tree = built_tree(ws);
                let count = host.count(data, tree, &cfg, true, origin, ws);
                let red = Executor::<f32, SplitterLevels>::reduce(&mut host, &count);
                let mut device = Device::new(v100(), &pool);
                let dev_count = count_kernel(&mut device, data, tree, &cfg, true, origin);
                let dev_red = reduce_kernel(&mut device, &dev_count, origin);
                assert_eq!(red.bucket_offsets, dev_red.bucket_offsets);
                let t = b as u32 / 2;
                for range in [t..t + 1, t..b as u32, 0..t + 1, t - 1..t + 2] {
                    let case = format!("{threads} threads, b = {b}, range {range:?}");
                    let out = host.filter(data, &count, &red, range.clone(), &cfg, ws);
                    let (c, r) = (&dev_count, &dev_red);
                    let want = filter_kernel(&mut device, data, c, r, range, &cfg, origin);
                    assert_eq!(bits(&out), bits(&want), "{case}");
                }
            }
        }
    }

    #[test]
    fn host_sort_equals_the_device_sort() {
        use crate::recursion::sort_levels;
        use gpu_sim::arch::v100;
        use gpu_sim::Device;

        let n = 100_000;
        let mut rng = SplitMix64::new(16);
        let d16: Vec<f32> = (0..n).map(|_| rng.next_below(16) as f32 - 7.5).collect();
        let cfg = CpuSelectConfig::default().loop_config();
        for data in [uniform(n, 17), d16] {
            let mut want = data.clone();
            sort_elements(&mut want);
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads);
                let mut host = Host {
                    pool: &pool,
                    scanned: 0,
                };
                let got = sort_levels(&mut host, &data, &cfg).unwrap().sorted;
                let device = sort_levels(&mut Device::new(v100(), &pool), &data, &cfg);
                assert_eq!(
                    bits(&got),
                    bits(&device.unwrap().sorted),
                    "{threads} threads"
                );
                assert_eq!(bits(&got), bits(&want), "{threads} threads");
            }
        }
    }

    #[test]
    fn bad_config_is_an_error_on_every_entry_point() {
        let p = pool();
        let data = uniform(20_000, 13);
        let expected = reference_select(&data, 15_000).unwrap();
        let base = CpuSelectConfig::default();
        let invalid = |e: SelectError| matches!(e, SelectError::InvalidConfig(_));
        for (num_buckets, oversampling) in [
            (0, 4),
            (3, 4),
            (6, 4),
            (2048, 4),
            (256, 0),
            (512, 4),
            (1024, 4),
        ] {
            let cfg = &CpuSelectConfig {
                num_buckets,
                oversampling,
                ..base.clone()
            };
            let select = cpu_sample_select(&p, &data, 15_000, cfg).map(|(v, _)| v);
            let approx = cpu_approx_select(&p, &data, 15_000, cfg).map(|(v, _)| v);
            let top = cpu_top_k(&p, &data, 5_000, cfg).map(|(_, t)| t);
            let multi = cpu_multi_select(&p, &data, &[15_000], cfg).map(|v| v[0]);
            let no_ranks = cpu_multi_select(&p, &data, &[], cfg);
            if matches!(num_buckets, 512 | 1024) {
                // Two-byte oracles carry the host past 256 buckets.
                for result in [select, top, multi] {
                    assert_eq!(result.unwrap(), expected, "{cfg:?}");
                }
                approx.unwrap();
                assert_eq!(no_ranks.unwrap(), Vec::<f32>::new());
            } else {
                for result in [select, approx, top, multi] {
                    assert!(invalid(result.unwrap_err()), "{cfg:?}");
                }
                assert!(invalid(no_ranks.unwrap_err()), "{cfg:?}");
            }
        }
    }
}
