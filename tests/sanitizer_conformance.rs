//! Differential kernel-conformance suite for the SIMT sanitizer.
//!
//! Every kernel family of the paper's pipeline runs under three
//! schedules — the vectorized fast path (with the device sanitizer
//! armed), and the thread-level [`BlockExec`] reference under a
//! deterministic and two seed-shuffled warp orderings — and must
//! produce bit-identical outputs with zero sanitizer findings:
//!
//! 1. sample / bitonic sorting network,
//! 2. count + search-tree oracle classification,
//! 3. reduce / exclusive prefix sum,
//! 4. two-pass filter extraction,
//! 5. QuickSelect bipartition,
//! 6. fused top-k suffix extraction,
//! 7. RadixSelect digit-count + digit-scatter,
//! 8. the segmented level launch: one sample, count, reduce, filter
//!    (over a bucket set) and base-case launch for every segment of a
//!    level, whose outputs must be the per-segment kernels' bit for bit
//!    and whose cost their sum plus each block's descriptor and tree
//!    reads; the multi-rank level loop is checked to launch exactly
//!    these.
//!
//! The negative half: one deliberately-racy mutant per detector class
//! (`sampleselect::simt_ref::mutants`) proving the corresponding
//! detector fires, plus a zero-overhead check that arming the sanitizer
//! changes neither results nor the simulated clock on the bench paths.

use std::sync::atomic::{AtomicUsize, Ordering};

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::sanitizer::{SanitizerConfig, SanitizerKind};
use gpu_selection::gpu_sim::{
    occupancy, Device, KernelCost, KernelRecord, LaunchOrigin, WarpSchedule,
};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::bitonic::{bitonic_sort, bitonic_sort_on_block};
use gpu_selection::sampleselect::count::{count_kernel, count_kernel_scoped, CountResult};
use gpu_selection::sampleselect::element::SelectElement;
use gpu_selection::sampleselect::filter::{bucket_set, filter_buckets, filter_kernel};
use gpu_selection::sampleselect::multiselect::{multi_select_on_device, quantile_ranks};
use gpu_selection::sampleselect::radix::DigitClassifier;
use gpu_selection::sampleselect::recursion::{base_case_select, segmented_launch, SEGMENT_BYTES};
use gpu_selection::sampleselect::reduce::{reduce_kernel, ReduceResult};
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::searchtree::SearchTree;
use gpu_selection::sampleselect::simt_ref::{self, mutants};
use gpu_selection::sampleselect::splitter::sample_kernel;
use gpu_selection::sampleselect::streaming::{
    streaming_select, streaming_select_with_checkpoint, ChunkError, ChunkSource,
};
use gpu_selection::sampleselect::{
    bipartition_on_device, sample_select_on_device, top_k_largest_on_device, KernelScratch,
    SampleSelectConfig, SelectError,
};

/// The three schedules every reference kernel must agree under.
fn schedules() -> [WarpSchedule; 3] {
    [
        WarpSchedule::Sequential,
        WarpSchedule::Shuffled { seed: 0x5eed },
        WarpSchedule::Shuffled { seed: 1_234_517 },
    ]
}

fn gen_u32(n: usize, seed: u64, modulo: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_u64() % modulo as u64) as u32)
        .collect()
}

/// Run sample → count → reduce on an armed device and hand back the
/// pieces the per-family tests compare against.
fn armed_pipeline(
    device: &mut Device,
    data: &[u32],
    cfg: &SampleSelectConfig,
) -> (SearchTree<u32>, CountResult, ReduceResult, Vec<u32>) {
    let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
    let tree = sample_kernel(device, data, cfg, &mut rng, LaunchOrigin::Host).unwrap();
    let count = count_kernel(device, data, &tree, cfg, true, LaunchOrigin::Host);
    let red = reduce_kernel(device, &count, LaunchOrigin::Device);
    let oracles = count.oracles.as_ref().unwrap();
    let oracle: Vec<u32> = (0..data.len()).map(|i| oracles.get(i)).collect();
    (tree, count, red, oracle)
}

fn small_cfg() -> SampleSelectConfig {
    SampleSelectConfig::default().with_buckets(16)
}

#[test]
fn bitonic_family_conformance() {
    let data = gen_u32(97, 0xb1701c, 1_000_000);
    let mut expect = data.clone();
    bitonic_sort(&mut expect);
    for schedule in schedules() {
        let (got, report) = bitonic_sort_on_block(&data, schedule, Some(SanitizerConfig::full()));
        assert_eq!(got, expect, "bitonic reference diverged under {schedule:?}");
        let report = report.unwrap();
        assert!(
            report.is_clean(),
            "bitonic reference dirty: {}",
            report.to_json()
        );
    }
    // The unsanitized reference agrees too (and reports nothing).
    let (got, report) = bitonic_sort_on_block(&data, WarpSchedule::Sequential, None);
    assert_eq!(got, expect);
    assert!(report.is_none());
}

#[test]
fn count_family_conformance() {
    let pool = ThreadPool::new(4);
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let data = gen_u32(3000, 0xc0417, 50_000);
    let cfg = small_cfg();
    let (tree, count, _red, oracle) = armed_pipeline(&mut device, &data, &cfg);

    // The stored oracles match the search tree's reference traversal.
    for (i, &x) in data.iter().enumerate() {
        assert_eq!(
            oracle[i],
            tree.lookup_reference(x),
            "oracle mismatch at {i}"
        );
    }

    // Thread-level histogram over the oracles reproduces the counts
    // bit-for-bit under every schedule, sanitizer-clean.
    for schedule in schedules() {
        let (counts, report) = simt_ref::block_histogram(
            &oracle,
            tree.num_buckets(),
            schedule,
            Some(SanitizerConfig::full()),
        );
        assert_eq!(
            counts, count.counts,
            "histogram diverged under {schedule:?}"
        );
        assert!(report.unwrap().is_clean());
    }
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());
}

#[test]
fn reduce_family_conformance() {
    let pool = ThreadPool::new(4);
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let data = gen_u32(3000, 0x4ed0ce, 50_000);
    let cfg = small_cfg();
    let (_tree, count, red, _oracle) = armed_pipeline(&mut device, &data, &cfg);

    let partials: Vec<u32> = count.partials.iter().map(|&p| p as u32).collect();
    for schedule in schedules() {
        let (scan, report) =
            simt_ref::block_exclusive_scan(&partials, schedule, Some(SanitizerConfig::full()));
        let scan64: Vec<u64> = scan.iter().map(|&x| x as u64).collect();
        assert_eq!(scan64, red.offsets, "scan diverged under {schedule:?}");
        assert!(report.unwrap().is_clean());
    }
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());
}

#[test]
fn filter_family_conformance() {
    let pool = ThreadPool::new(4);
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let data = gen_u32(2000, 0xf117e4, 40_000);
    let cfg = small_cfg();
    let (_tree, count, red, oracle) = armed_pipeline(&mut device, &data, &cfg);

    let bucket = red.bucket_for_rank(data.len() as u64 / 2) as u32;
    let got = filter_kernel(
        &mut device,
        &data,
        &count,
        &red,
        bucket..bucket + 1,
        &cfg,
        LaunchOrigin::Device,
    );
    for schedule in schedules() {
        let (want, report) = simt_ref::block_bucket_concat(
            &data,
            &oracle,
            bucket,
            bucket + 1,
            schedule,
            Some(SanitizerConfig::full()),
        );
        assert_eq!(got, want, "filter diverged under {schedule:?}");
        assert!(report.unwrap().is_clean());
    }
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());
}

#[test]
fn bipartition_family_conformance() {
    let pool = ThreadPool::new(4);
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let data = gen_u32(2000, 0xb142, 300);
    let pivot = 150u32;
    let cfg = small_cfg();
    let (got, smaller, equal) =
        bipartition_on_device(&mut device, &data, pivot, &cfg, LaunchOrigin::Host);
    for schedule in schedules() {
        let (want, s, e, report) =
            simt_ref::block_bipartition(&data, pivot, schedule, Some(SanitizerConfig::full()));
        assert_eq!(got, want, "bipartition diverged under {schedule:?}");
        assert_eq!((s, e), (smaller, equal));
        assert!(report.unwrap().is_clean());
    }
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());
}

#[test]
fn topk_family_conformance() {
    let pool = ThreadPool::new(4);
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let data = gen_u32(2000, 0x70b4, 40_000);
    let cfg = small_cfg();
    let (tree, count, red, oracle) = armed_pipeline(&mut device, &data, &cfg);

    // The fused top-k extraction pulls the target bucket plus every
    // larger bucket in one filter pass (§IV-I).
    let k = 400usize;
    let rank = (data.len() - k) as u64;
    let bucket = red.bucket_for_rank(rank) as u32;
    let b = tree.num_buckets() as u32;
    let fused = filter_kernel(
        &mut device,
        &data,
        &count,
        &red,
        bucket..b,
        &cfg,
        LaunchOrigin::Device,
    );
    for schedule in schedules() {
        let (want, report) = simt_ref::block_bucket_concat(
            &data,
            &oracle,
            bucket,
            b,
            schedule,
            Some(SanitizerConfig::full()),
        );
        assert_eq!(fused, want, "fused top-k diverged under {schedule:?}");
        assert!(report.unwrap().is_clean());
    }
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());

    // End to end: the full fused driver on an armed device stays clean
    // and returns exactly the k largest elements.
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let res = top_k_largest_on_device(&mut device, &data, k, &cfg).unwrap();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    let mut got = res.elements.clone();
    got.sort_unstable();
    assert_eq!(got, sorted[data.len() - k..].to_vec());
    assert_eq!(res.threshold, sorted[data.len() - k]);
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());
}

/// The one record `merged` of a segmented launch is the records `alone`
/// of its segments' own kernels side by side: their blocks, the largest
/// shared memory, their summed cost plus `per_block` bytes read by each
/// block, and the time the device gives that cost.
fn assert_merged(alone: &[KernelRecord], merged: &KernelRecord, per_block: u64, device: &Device) {
    let name = &merged.name;
    assert!(alone.len() > 1 && alone.iter().all(|r| &r.name == name));
    let blocks: u32 = alone.iter().map(|r| r.config.blocks).sum();
    let smem = alone
        .iter()
        .map(|r| r.config.shared_mem_bytes)
        .max()
        .unwrap();
    assert_eq!(
        (merged.config.blocks, merged.config.shared_mem_bytes),
        (blocks, smem),
        "{name}"
    );
    let mut cost = KernelCost::new();
    alone.iter().for_each(|r| cost.merge(&r.cost));
    cost.global_read_bytes += blocks as u64 * per_block;
    assert_eq!(merged.cost, cost, "{name}");
    let busy = occupancy(device.arch(), &merged.config).effective_sms;
    assert_eq!(
        merged.duration,
        cost.time_on(device.arch(), busy).total(),
        "{name}"
    );
    assert_eq!(merged.origin, alone[0].origin, "{name}");
}

#[test]
fn segmented_level_family_conformance() {
    let pool = ThreadPool::new(4);
    let cfg = small_cfg();
    let data = gen_u32(20_000, 0x5e6, 1_000_000);
    // Segments of different grid sizes, each filtering a bucket set of
    // its own shape: one bucket, a range, a set with gaps, all buckets.
    let segments = [
        &data[..9_000],
        &data[9_000..12_000],
        &data[12_000..12_700],
        &data[12_700..],
    ];
    let sets = [&[3][..], bucket_set(2..6), &[0, 7, 15], bucket_set(0..16)];
    let n = segments.len();
    let origin = LaunchOrigin::Device;
    let scratch = KernelScratch::new();
    let mut alone = Device::new(v100(), &pool);
    let mut level = Device::new(v100(), &pool);
    level.set_sanitizer(SanitizerConfig::full());
    let launched = |d: &Device| d.records().len();

    let (mut rng_a, mut rng_l) = (SplitMix64::new(7), SplitMix64::new(7));
    let sample = |d: &mut Device, rng: &mut SplitMix64| -> Vec<SearchTree<u32>> {
        let trees = segments
            .iter()
            .map(|s| sample_kernel(d, s, &cfg, rng, origin).unwrap());
        trees.collect()
    };
    let trees = sample(&mut alone, &mut rng_a);
    let merged = segmented_launch(&mut level, n, 0, |d| sample(d, &mut rng_l));
    for (a, m) in trees.iter().zip(&merged) {
        assert_eq!(a.splitters(), m.splitters());
    }
    assert_merged(
        &alone.records()[..n],
        &level.records()[0],
        SEGMENT_BYTES,
        &level,
    );

    let count = |d: &mut Device| -> Vec<CountResult> {
        let counts = segments.iter().zip(&trees);
        counts
            .map(|(s, t)| count_kernel(d, s, t, &cfg, true, origin))
            .collect()
    };
    let counts = count(&mut alone);
    let tree_bytes = 15 * 4;
    let merged = segmented_launch(&mut level, n, tree_bytes, count);
    for (a, m) in counts.iter().zip(&merged) {
        assert_eq!(
            (&a.counts, &a.partials, a.blocks),
            (&m.counts, &m.partials, m.blocks)
        );
        let oracles = |c: &CountResult| c.oracles.as_ref().unwrap().as_u8_slice().unwrap().to_vec();
        assert_eq!(oracles(a), oracles(m));
    }
    let (a0, l0) = (launched(&alone) - n, launched(&level) - 1);
    assert_merged(
        &alone.records()[a0..],
        &level.records()[l0],
        SEGMENT_BYTES + tree_bytes,
        &level,
    );

    let reduce = |d: &mut Device| -> Vec<ReduceResult> {
        counts.iter().map(|c| reduce_kernel(d, c, origin)).collect()
    };
    let reds = reduce(&mut alone);
    let merged = segmented_launch(&mut level, n, 0, reduce);
    for (a, m) in reds.iter().zip(&merged) {
        assert_eq!(
            (&a.offsets, &a.bucket_offsets),
            (&m.offsets, &m.bucket_offsets)
        );
    }
    let (a0, l0) = (launched(&alone) - n, launched(&level) - 1);
    assert_merged(
        &alone.records()[a0..],
        &level.records()[l0],
        SEGMENT_BYTES,
        &level,
    );

    let filter = |d: &mut Device| -> Vec<Vec<u32>> {
        let steps = segments.iter().zip(&counts).zip(&reds).zip(sets);
        let out =
            steps.map(|(((s, c), r), set)| filter_buckets(d, s, c, r, set, &cfg, origin, &scratch));
        out.collect()
    };
    let outputs = filter(&mut alone);
    let merged = segmented_launch(&mut level, n, 0, filter);
    assert_eq!(outputs, merged);
    let (a0, l0) = (launched(&alone) - n, launched(&level) - 1);
    assert_merged(
        &alone.records()[a0..],
        &level.records()[l0],
        SEGMENT_BYTES,
        &level,
    );
    // Against the thread-level reference: each segment's output is its
    // set's buckets, each gathered block by block, in set order.
    for ((s, c), (set, got)) in segments.iter().zip(&counts).zip(sets.iter().zip(&merged)) {
        let o = c.oracles.as_ref().unwrap();
        let oracle: Vec<u32> = (0..s.len()).map(|i| o.get(i)).collect();
        for schedule in schedules() {
            let mut want = Vec::new();
            for &k in set.iter() {
                let sanitize = Some(SanitizerConfig::full());
                let (part, report) =
                    simt_ref::block_bucket_concat(s, &oracle, k, k + 1, schedule, sanitize);
                assert!(report.unwrap().is_clean());
                want.extend(part);
            }
            assert_eq!(got, &want, "set {set:?} diverged under {schedule:?}");
        }
    }

    let base = |d: &mut Device| -> Vec<u32> {
        let tiles = segments.iter().map(|s| &s[..s.len().min(1000)]);
        tiles
            .map(|s| base_case_select(d, s, s.len() / 2, &cfg, origin))
            .collect()
    };
    let values = base(&mut alone);
    assert_eq!(values, segmented_launch(&mut level, n, 0, base));
    let (a0, l0) = (launched(&alone) - n, launched(&level) - 1);
    assert_merged(
        &alone.records()[a0..],
        &level.records()[l0],
        SEGMENT_BYTES,
        &level,
    );

    // One launch per step; one segment is the plain kernel.
    assert_eq!(launched(&level), 5);
    let one = segmented_launch(&mut level, 1, tree_bytes, |d| {
        reduce_kernel(d, &counts[0], origin)
    });
    assert_eq!(one.offsets, reds[0].offsets);
    assert_eq!(level.records()[5].cost, alone.records()[2 * n].cost);
    assert!(level.sanitizer_clean(), "{}", level.sanitizer_json());
}

#[test]
fn multi_rank_levels_are_segmented_launches() {
    // Replays the multi-rank level loop by hand, one segmented launch
    // per step of a level: base case, sample, count, reduce, filter.
    let pool = ThreadPool::new(4);
    let cfg = SampleSelectConfig::default();
    let data = gen_u32(1 << 19, 0x1e7e15, u32::MAX);
    let ranks = quantile_ranks(data.len(), 8).unwrap();
    let (origin, scratch) = (LaunchOrigin::Device, KernelScratch::new());
    let mut replay = Device::new(v100(), &pool);
    let mut rng = SplitMix64::new(cfg.seed);
    let mut values = vec![0u32; ranks.len()];
    let mut level = vec![(
        data.clone(),
        ranks.iter().copied().enumerate().collect::<Vec<_>>(),
    )];
    for depth in 0.. {
        if level.is_empty() {
            break;
        }
        let first = if depth == 0 {
            LaunchOrigin::Host
        } else {
            origin
        };
        let (small, big): (Vec<_>, Vec<_>) = level.into_iter().partition(|(s, _)| s.len() <= 1024);
        segmented_launch(&mut replay, small.len(), 0, |d| {
            for (segment, goal) in &small {
                base_case_select(d, segment, 0, &cfg, first);
                let mut sorted = segment.clone();
                sorted.sort_unstable();
                goal.iter()
                    .for_each(|&(qi, rank)| values[qi] = sorted[rank]);
            }
        });
        let trees: Vec<SearchTree<u32>> = segmented_launch(&mut replay, big.len(), 0, |d| {
            let trees = big
                .iter()
                .map(|(s, _)| sample_kernel(d, s, &cfg, &mut rng, first));
            trees.map(Result::unwrap).collect()
        });
        let counts: Vec<CountResult> = segmented_launch(&mut replay, big.len(), 255 * 4, |d| {
            let counts = big.iter().zip(&trees);
            counts
                .map(|((s, _), t)| count_kernel(d, s, t, &cfg, true, first))
                .collect()
        });
        let reds: Vec<ReduceResult> = segmented_launch(&mut replay, big.len(), 0, |d| {
            counts.iter().map(|c| reduce_kernel(d, c, origin)).collect()
        });
        level = segmented_launch(&mut replay, big.len(), 0, |d| {
            let mut next = Vec::new();
            for (((segment, goal), count), red) in big.iter().zip(&counts).zip(&reds) {
                let mut set: Vec<u32> = goal
                    .iter()
                    .map(|&(_, rank)| red.bucket_for_rank(rank as u64) as u32)
                    .collect();
                set.sort_unstable();
                set.dedup();
                let mut out = filter_buckets(d, segment, count, red, &set, &cfg, origin, &scratch);
                let mut pieces = Vec::new();
                for &k in set.iter().rev() {
                    let lo = out.len() - red.bucket_size(k as usize) as usize;
                    let start = red.bucket_offsets[k as usize] as usize;
                    let goal = goal
                        .iter()
                        .filter(|&&(_, rank)| red.bucket_for_rank(rank as u64) == k as usize)
                        .map(|&(qi, rank)| (qi, rank - start))
                        .collect();
                    pieces.push((out.split_off(lo), goal));
                }
                next.extend(pieces.into_iter().rev());
            }
            next
        });
    }

    let mut device = Device::new(v100(), &pool);
    let got = multi_select_on_device(&mut device, &data, &ranks, &cfg).unwrap();
    assert_eq!(got.values, values);
    let shape = |r: &KernelRecord| (r.name.to_string(), r.config, r.origin, r.cost, r.duration);
    let want: Vec<_> = replay.records().iter().map(shape).collect();
    assert_eq!(device.records().iter().map(shape).collect::<Vec<_>>(), want);
    // One launch per kernel per level: far below one per segment.
    assert!(want.len() <= 10, "{} launches", want.len());
}

// ---------------------------------------------------------------------
// Negative half: each detector class fires on its mutant, under every
// schedule.
// ---------------------------------------------------------------------

#[test]
fn radix_family_conformance() {
    let pool = ThreadPool::new(4);
    let mut device = Device::new(v100(), &pool);
    device.set_sanitizer(SanitizerConfig::full());
    let data = gen_u32(3000, 0x4ad1c5, 60_000);
    let cfg = SampleSelectConfig::default();
    let scratch = KernelScratch::new();
    let keys: Vec<u64> = data.iter().map(|x| x.to_sort_key()).collect();

    // Values stay under 2^16, so shift 8 exercises a discriminating
    // digit and shift 0 the low byte; the dead digits at 24/16 are
    // covered by the all-in-bucket-zero histogram they produce anyway.
    for shift in [24u32, 8, 0] {
        let count = count_kernel_scoped(
            &mut device,
            &data,
            &DigitClassifier { shift },
            &cfg,
            true,
            LaunchOrigin::Host,
            &scratch,
        );

        // The stored oracle bytes are exactly the extracted digits.
        let oracles = count.oracles.as_ref().unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                oracles.get(i) as u64,
                (k >> shift) & 0xff,
                "digit oracle mismatch at {i} (shift {shift})"
            );
        }

        // Thread-level digit histogram reproduces the counts
        // bit-for-bit under every schedule, sanitizer-clean.
        for schedule in schedules() {
            let (counts, report) = simt_ref::block_digit_histogram(
                &keys,
                shift,
                schedule,
                Some(SanitizerConfig::full()),
            );
            assert_eq!(
                counts, count.counts,
                "digit histogram diverged under {schedule:?} (shift {shift})"
            );
            assert!(report.unwrap().is_clean());
        }

        // The production scatter (reduce → filter over the digit bucket
        // holding the median rank) agrees with the thread-level
        // flag/scan/scatter reference.
        let red = reduce_kernel(&mut device, &count, LaunchOrigin::Device);
        let bucket = red.bucket_for_rank(data.len() as u64 / 2) as u32;
        let got = filter_kernel(
            &mut device,
            &data,
            &count,
            &red,
            bucket..bucket + 1,
            &cfg,
            LaunchOrigin::Device,
        );
        for schedule in schedules() {
            let (want, report) = simt_ref::block_digit_scatter(
                &data,
                &keys,
                shift,
                bucket,
                schedule,
                Some(SanitizerConfig::full()),
            );
            assert_eq!(
                got, want,
                "digit scatter diverged under {schedule:?} (shift {shift})"
            );
            assert!(report.unwrap().is_clean());
        }
    }
    assert!(device.sanitizer_clean(), "{}", device.sanitizer_json());
}

#[test]
fn mutant_racy_digit_histogram_detected() {
    // Four distinct digits across 256 keys: plenty of same-word plain
    // read-modify-write collisions for the write-write detector.
    let keys: Vec<u64> = (0..256u64).map(|i| (i % 4) << 8).collect();
    for schedule in schedules() {
        let report = mutants::racy_digit_histogram(&keys, 8, schedule, SanitizerConfig::full());
        assert!(
            report.count_of(SanitizerKind::WriteWriteRace) > 0,
            "racy digit histogram must trip the write-write detector under {schedule:?}: {}",
            report.to_json()
        );
    }
}

#[test]
fn mutant_write_write_race_detected() {
    for schedule in schedules() {
        let r = mutants::write_write_race(schedule, SanitizerConfig::full());
        assert!(
            r.count_of(SanitizerKind::WriteWriteRace) > 0,
            "{}",
            r.to_json()
        );
        assert!(!r.is_clean());
    }
}

#[test]
fn mutant_read_write_race_detected() {
    for schedule in schedules() {
        let r = mutants::read_write_race(schedule, SanitizerConfig::full());
        assert!(
            r.count_of(SanitizerKind::ReadWriteRace) > 0,
            "{}",
            r.to_json()
        );
    }
}

#[test]
fn mutant_barrier_divergence_detected() {
    for schedule in schedules() {
        let r = mutants::barrier_divergence(schedule, SanitizerConfig::full());
        assert!(
            r.count_of(SanitizerKind::BarrierDivergence) > 0,
            "{}",
            r.to_json()
        );
    }
}

#[test]
fn mutant_uninit_read_detected() {
    for schedule in schedules() {
        let r = mutants::uninit_read(schedule, SanitizerConfig::full());
        assert!(r.count_of(SanitizerKind::UninitRead) > 0, "{}", r.to_json());
    }
}

#[test]
fn mutant_out_of_bounds_detected_and_degrades_without_sanitizer() {
    for schedule in schedules() {
        let r = mutants::oob_access(schedule, Some(SanitizerConfig::full())).unwrap();
        assert!(
            r.count_of(SanitizerKind::OutOfBounds) > 0,
            "{}",
            r.to_json()
        );
    }
    // Disarmed, the checked accessor surfaces a structured error rather
    // than a panic (the former smem OOB behaviour).
    let err = mutants::oob_access(WarpSchedule::Sequential, None).unwrap_err();
    assert!(
        matches!(err, SelectError::SharedOutOfBounds { .. }),
        "{err:?}"
    );
    assert!(!err.is_transient(), "an OOB kernel bug is permanent");
}

#[test]
fn mutant_mixed_atomic_detected() {
    for schedule in schedules() {
        let r = mutants::mixed_atomic(schedule, SanitizerConfig::full());
        assert!(
            r.count_of(SanitizerKind::MixedAtomic) > 0,
            "{}",
            r.to_json()
        );
    }
}

// ---------------------------------------------------------------------
// Overhead and determinism guarantees.
// ---------------------------------------------------------------------

/// Arming the sanitizer must not move the simulated clock or the
/// result on the fig8/fig9 bench paths: detectors live on the
/// `BlockExec` reference path and in allocation shadows, never in the
/// vectorized kernels' cost model.
#[test]
fn sanitizer_off_has_zero_overhead_on_bench_paths() {
    let data = gen_u32(50_000, 0x0f8f9, 1 << 20);
    let rank = 12_345usize;
    let cfg = SampleSelectConfig::default();
    let pool = ThreadPool::new(4);

    let mut plain = Device::new(v100(), &pool);
    let base = sample_select_on_device(&mut plain, &data, rank, &cfg).unwrap();

    let mut armed = Device::new(v100(), &pool);
    armed.set_sanitizer(SanitizerConfig::full());
    let sanitized = sample_select_on_device(&mut armed, &data, rank, &cfg).unwrap();

    assert_eq!(base.value, sanitized.value);
    assert_eq!(
        plain.total_time(),
        armed.total_time(),
        "sanitizer must cost zero simulated time"
    );
    assert_eq!(plain.records().len(), armed.records().len());
    for (p, a) in plain.records().iter().zip(armed.records()) {
        assert_eq!(p.duration, a.duration, "kernel {} slowed down", p.name);
        assert!(
            p.sanitizer.is_none(),
            "disarmed device must not attach reports"
        );
        let report = a
            .sanitizer
            .as_ref()
            .expect("armed device attaches a report");
        assert!(report.is_clean(), "{}", report.to_json());
    }
    assert!(armed.sanitizer_clean());
}

/// A chunk source that fails `fail_times` loads of chunk `target`.
struct FlakyChunks<'a> {
    data: &'a [u32],
    chunk_len: usize,
    target: usize,
    fail_times: usize,
    failures: AtomicUsize,
}

impl ChunkSource<u32> for FlakyChunks<'_> {
    fn num_chunks(&self) -> usize {
        self.data.len().div_ceil(self.chunk_len).max(1)
    }

    fn load_chunk(&self, idx: usize) -> Result<Vec<u32>, ChunkError> {
        if idx == self.target && self.failures.load(Ordering::SeqCst) < self.fail_times {
            self.failures.fetch_add(1, Ordering::SeqCst);
            return Err(ChunkError {
                chunk: idx,
                message: "injected I/O failure".to_string(),
                transient: true,
            });
        }
        let start = (idx * self.chunk_len).min(self.data.len());
        let end = ((idx + 1) * self.chunk_len).min(self.data.len());
        Ok(self.data[start..end].to_vec())
    }

    fn total_len(&self) -> usize {
        self.data.len()
    }
}

/// Satellite: resuming a checkpointed streaming run on a *different*
/// thread-pool size (a different warp-level interleaving of the host
/// backend) still lands on the bit-identical result — position handout
/// is scan-based, never a first-come atomic cursor.
#[test]
fn checkpoint_resume_is_pool_size_invariant() {
    let data = gen_u32(1 << 15, 0x57e5a, 1 << 18);
    let rank = 11_111usize;
    let cfg = SampleSelectConfig::default();
    let ckpt = std::env::temp_dir().join(format!(
        "gpu-selection-conformance-ckpt-{}.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ckpt);

    // Uninterrupted reference on a single-threaded pool.
    let pool1 = ThreadPool::new(1);
    let mut device = Device::new(v100(), &pool1);
    let healthy = FlakyChunks {
        data: &data,
        chunk_len: 1 << 12,
        target: usize::MAX,
        fail_times: 0,
        failures: AtomicUsize::new(0),
    };
    let expected = streaming_select(&mut device, &healthy, rank, &cfg).unwrap();

    // Crash at chunk 3 on a two-thread pool, checkpointing progress...
    let pool2 = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool2);
    let dying = FlakyChunks {
        data: &data,
        chunk_len: 1 << 12,
        target: 3,
        fail_times: usize::MAX,
        failures: AtomicUsize::new(0),
    };
    let err = streaming_select_with_checkpoint(&mut device, &dying, rank, &cfg, &ckpt, false)
        .unwrap_err();
    assert!(matches!(err, SelectError::ChunkLoad(_)));
    assert!(ckpt.exists());

    // ...and resume on a five-thread pool: bit-identical value.
    let pool5 = ThreadPool::new(5);
    let mut device = Device::new(v100(), &pool5);
    let resumed =
        streaming_select_with_checkpoint(&mut device, &healthy, rank, &cfg, &ckpt, true).unwrap();
    assert_eq!(resumed.value, expected.value);
    assert_eq!(resumed.report.resilience.resumed, 1);
    assert!(!ckpt.exists(), "checkpoint removed after success");
}
