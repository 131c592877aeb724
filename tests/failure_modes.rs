//! Failure-injection tests: every driver must reject malformed input
//! with the right error, never panic, and never return garbage — and
//! under *injected device/I/O faults*, the resilient driver must keep
//! returning the exact answer (or a tagged approximation) with a
//! deterministic record of what it took.

use gpu_selection::baselines::bucket_select;
use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::{Device, FaultPlan, SimTime};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::cpu::{cpu_sample_select, CpuSelectConfig};
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::streaming::{streaming_select, ChunkError, ChunkSource};
use gpu_selection::sampleselect::{
    approx_select, quick_select, radix_select_on_device, resilient_select_on_device,
    resilient_streaming_select, sample_select, top_k_largest, Backend, ConfigError, Outcome,
    ResilienceConfig, SampleSelectConfig, SelectError,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn cfg() -> SampleSelectConfig {
    SampleSelectConfig::default()
}

#[test]
fn empty_input_rejected_by_every_driver() {
    let empty: Vec<f32> = vec![];
    assert_eq!(
        sample_select(&empty, 0, &cfg()).unwrap_err(),
        SelectError::EmptyInput
    );
    assert_eq!(
        quick_select(&empty, 0, &cfg()).unwrap_err(),
        SelectError::EmptyInput
    );
    assert_eq!(
        approx_select(&empty, 0, &cfg()).unwrap_err(),
        SelectError::EmptyInput
    );
    assert_eq!(
        bucket_select(&empty, 0, &cfg()).unwrap_err(),
        SelectError::EmptyInput
    );
    assert_eq!(
        radix_select_on_device(&mut Device::on_global_pool(v100()), &empty, 0, &cfg()).unwrap_err(),
        SelectError::EmptyInput
    );
    let pool = ThreadPool::new(1);
    assert_eq!(
        cpu_sample_select(&pool, &empty, 0, &CpuSelectConfig::default()).unwrap_err(),
        SelectError::EmptyInput
    );
}

#[test]
fn out_of_range_rank_rejected_by_every_driver() {
    let data = vec![1.0f32, 2.0, 3.0];
    for rank in [3usize, 100] {
        assert!(matches!(
            sample_select(&data, rank, &cfg()).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
        assert!(matches!(
            quick_select(&data, rank, &cfg()).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
        assert!(matches!(
            approx_select(&data, rank, &cfg()).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
        assert!(matches!(
            bucket_select(&data, rank, &cfg()).unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
        assert!(matches!(
            radix_select_on_device(&mut Device::on_global_pool(v100()), &data, rank, &cfg())
                .unwrap_err(),
            SelectError::RankOutOfRange { .. }
        ));
    }
}

#[test]
fn nan_rejected_when_validation_enabled() {
    let mut config = cfg();
    config.check_input = true;
    let data = vec![1.0f32, 2.0, f32::NAN, 4.0];
    assert_eq!(
        sample_select(&data, 0, &config).unwrap_err(),
        SelectError::NanInput { index: 2 }
    );
    assert_eq!(
        quick_select(&data, 0, &config).unwrap_err(),
        SelectError::NanInput { index: 2 }
    );
    // validation off: no panic (result quality is unspecified for NaN
    // inputs, but execution must stay safe)
    let mut permissive = cfg();
    permissive.check_input = false;
    let _ = sample_select(&data, 0, &permissive);
}

#[test]
fn invalid_configs_rejected_with_specific_errors() {
    let data = vec![1.0f32; 100];
    let bad_buckets = cfg().with_buckets(48);
    assert_eq!(
        sample_select(&data, 0, &bad_buckets).unwrap_err(),
        SelectError::InvalidConfig(ConfigError::InvalidBucketCount(48))
    );
    let too_many = cfg().with_buckets(512);
    assert_eq!(
        sample_select(&data, 0, &too_many).unwrap_err(),
        SelectError::InvalidConfig(ConfigError::TooManyBucketsForOracles(512))
    );
    let bad_threads = cfg().with_threads(100);
    assert_eq!(
        sample_select(&data, 0, &bad_threads).unwrap_err(),
        SelectError::InvalidConfig(ConfigError::InvalidThreadsPerBlock(100))
    );
    let bad_unroll = cfg().with_items_per_thread(0);
    assert!(matches!(
        sample_select(&data, 0, &bad_unroll).unwrap_err(),
        SelectError::InvalidConfig(ConfigError::InvalidItemsPerThread(0))
    ));
    let bad_oversampling = cfg().with_oversampling(0);
    assert!(matches!(
        sample_select(&data, 0, &bad_oversampling).unwrap_err(),
        SelectError::InvalidConfig(ConfigError::InvalidOversampling(0))
    ));
}

#[test]
fn topk_boundary_ks() {
    let data = vec![3.0f32, 1.0, 2.0];
    assert!(matches!(
        top_k_largest(&data, 0, &cfg()).unwrap_err(),
        SelectError::RankOutOfRange { .. }
    ));
    assert!(matches!(
        top_k_largest(&data, 4, &cfg()).unwrap_err(),
        SelectError::RankOutOfRange { .. }
    ));
    let top1 = top_k_largest(&data, 1, &cfg()).unwrap();
    assert_eq!(top1.elements, vec![3.0]);
}

#[test]
fn single_element_input_works_everywhere() {
    let data = vec![42.0f32];
    assert_eq!(sample_select(&data, 0, &cfg()).unwrap().value, 42.0);
    assert_eq!(quick_select(&data, 0, &cfg()).unwrap().value, 42.0);
    assert_eq!(bucket_select(&data, 0, &cfg()).unwrap().value, 42.0);
    assert_eq!(
        radix_select_on_device(&mut Device::on_global_pool(v100()), &data, 0, &cfg())
            .unwrap()
            .value,
        42.0
    );
    assert_eq!(top_k_largest(&data, 1, &cfg()).unwrap().threshold, 42.0);
}

#[test]
fn extreme_values_do_not_break_selection() {
    let data = vec![
        f32::MAX,
        f32::MIN,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0,
        -1.0,
        f32::MAX,
        f32::MIN,
    ];
    let mut sorted = data.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (rank, &expected) in sorted.iter().enumerate() {
        let got = sample_select(&data, rank, &cfg()).unwrap().value;
        // Numeric equality: -0.0 and +0.0 are tied under the comparison
        // order, so either bit pattern is a correct answer at their rank.
        assert_eq!(got, expected, "rank {rank}");
    }
}

#[test]
fn all_max_values_terminate() {
    // The equality-bucket saturation path (next_up(MAX) == MAX).
    let data = vec![u32::MAX; 50_000];
    let r = sample_select(&data, 25_000, &cfg()).unwrap();
    assert_eq!(r.value, u32::MAX);
    let r = quick_select(&data, 25_000, &cfg()).unwrap();
    assert_eq!(r.value, u32::MAX);
}

#[test]
fn subnormal_floats_select_correctly() {
    let tiny = f32::MIN_POSITIVE / 8.0; // subnormal
    let data: Vec<f32> = (0..10_000).map(|i| tiny * ((i % 37) as f32)).collect();
    let mut sorted = data.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let got = sample_select(&data, 5_000, &cfg()).unwrap().value;
    assert_eq!(got.to_bits(), sorted[5_000].to_bits());
}

fn gen_data(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
        })
        .collect()
}

/// A chunk source whose `target` chunk fails transiently for its first
/// `fail_times` loads, then recovers (deterministic: the counter is the
/// only state).
struct FlakyChunks<'a> {
    data: &'a [f32],
    chunk_len: usize,
    target: usize,
    fail_times: usize,
    failures: AtomicUsize,
}

impl ChunkSource<f32> for FlakyChunks<'_> {
    fn num_chunks(&self) -> usize {
        self.data.len().div_ceil(self.chunk_len).max(1)
    }

    fn load_chunk(&self, idx: usize) -> Result<Vec<f32>, ChunkError> {
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

#[test]
fn injected_launch_failure_mid_recursion_still_exact() {
    let data = gen_data(150_000, 0xfa01);
    let rank = 75_000;
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    // Launch #4 is the first level's filter kernel, so the first attempt
    // dies mid-recursion after partial progress.
    device.set_fault_plan(FaultPlan::new(21).fail_launches_at(&[4]));
    let res = resilient_select_on_device(
        &mut device,
        &data,
        rank,
        &SampleSelectConfig::default(),
        &ResilienceConfig::default(),
    )
    .unwrap();
    assert_eq!(
        res.outcome,
        Outcome::Exact(reference_select(&data, rank).unwrap())
    );
    assert_eq!(res.report.resilience.faults_observed, 1);
    assert_eq!(res.report.resilience.retries, 1);
    assert_eq!(res.report.resilience.fallbacks, 0);
    assert_eq!(res.backend, Backend::SampleSelect);
}

#[test]
fn chunk_load_failure_with_eventual_success() {
    let data = gen_data(1 << 17, 0xfa02);
    let rank = 1 << 16;
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    let source = FlakyChunks {
        data: &data,
        chunk_len: 1 << 15,
        target: 1,
        fail_times: 2,
        failures: AtomicUsize::new(0),
    };
    let res = streaming_select(&mut device, &source, rank, &SampleSelectConfig::default()).unwrap();
    assert_eq!(res.value, reference_select(&data, rank).unwrap());
    assert_eq!(res.report.resilience.retries, 2);
    assert!(res
        .report
        .resilience
        .log
        .iter()
        .all(|l| l.to_string().contains("chunk 1")));
}

#[test]
fn budget_exhaustion_degrades_with_valid_rank_bound() {
    let data = gen_data(200_000, 0xfa03);
    let rank = 123_456;
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    let rcfg = ResilienceConfig::default().with_time_budget(SimTime::ZERO);
    let res = resilient_select_on_device(
        &mut device,
        &data,
        rank,
        &SampleSelectConfig::default(),
        &rcfg,
    )
    .unwrap();
    match res.outcome {
        Outcome::Approximate {
            value,
            achieved_rank,
            rank_error,
        } => {
            // The tag must be verifiable against the data itself.
            let true_rank = data.iter().filter(|&&x| x < value).count() as u64;
            assert_eq!(achieved_rank, true_rank, "claimed rank must be exact");
            assert_eq!(rank_error, true_rank.abs_diff(rank as u64));
            // Single-level approximation: error within a few expected
            // bucket widths (n/b ≈ 780 here).
            assert!(
                rank_error < (8 * data.len() / 256) as u64,
                "rank error {rank_error} implausibly large"
            );
        }
        Outcome::Exact(_) => panic!("zero budget must force degradation"),
    }
    assert_eq!(res.report.resilience.degradations, 1);
}

#[test]
fn combined_faults_deterministic_and_exact() {
    // The acceptance scenario: one seeded plan failing >= 1 launch plus
    // a chunk source failing >= 1 load; the resilient streaming driver
    // must return the exact k-th element and an identical event log on
    // every run with the same seeds.
    let data = gen_data(1 << 17, 0xfa04);
    let rank = 99_999;
    let expected = reference_select(&data, rank).unwrap();

    let run = || {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        device.set_fault_plan(FaultPlan::new(1234).fail_launches_at(&[3]));
        let source = FlakyChunks {
            data: &data,
            chunk_len: 1 << 15,
            target: 2,
            fail_times: 1,
            failures: AtomicUsize::new(0),
        };
        resilient_streaming_select(
            &mut device,
            &source,
            rank,
            &SampleSelectConfig::default(),
            &ResilienceConfig::default(),
        )
        .unwrap()
    };

    let a = run();
    assert_eq!(a.outcome, Outcome::Exact(expected));
    assert!(
        a.report.resilience.faults_observed >= 1,
        "launch fault seen"
    );
    assert!(a.report.resilience.retries >= 1, "retries recorded");

    let b = run();
    assert_eq!(b.outcome, a.outcome);
    assert_eq!(b.backend, a.backend);
    assert_eq!(
        b.report.resilience, a.report.resilience,
        "same seeds must reproduce the exact event log"
    );
    assert_eq!(b.report.total_launches(), a.report.total_launches());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever single backend is knocked out — SampleSelect by early
    /// launch faults, both device backends by a zero depth budget, or
    /// every device kernel by a 100% failure rate — the fallback chain
    /// still produces the exact k-th element.
    #[test]
    fn fallback_chain_is_exact_under_any_single_faulted_backend(
        data in prop::collection::vec(-1000i32..1000, 1..400),
        rank_frac in 0.0f64..1.0,
        scenario in 0usize..3,
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = SampleSelectConfig::default()
            .with_buckets(8)
            .with_oversampling(2)
            .with_base_case(16);
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let mut rcfg = ResilienceConfig::default().with_max_retries(1);
        match scenario {
            0 => {
                // kill the first attempts' early launches: SampleSelect
                // must retry or hand over to QuickSelect
                device.set_fault_plan(FaultPlan::new(7).fail_launches_at(&[0, 1, 2]));
            }
            1 => {
                // starve both device recursions of depth
                rcfg = rcfg.with_max_levels(0);
            }
            _ => {
                // no device kernel ever completes: CPU sort territory
                device.set_fault_plan(FaultPlan::new(8).launch_failures(1.0));
            }
        }
        let res = resilient_select_on_device(&mut device, &data, rank, &cfg, &rcfg).unwrap();
        prop_assert_eq!(
            res.outcome,
            Outcome::Exact(reference_select(&data, rank).unwrap())
        );
    }
}

#[test]
fn device_reuse_across_runs_is_clean() {
    // Reusing one device for many selections must not leak state
    // between runs (reports slice only their own records).
    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    let data: Vec<f32> = (0..20_000).map(|i| ((i * 31) % 997) as f32).collect();
    let mut launches_prev = 0;
    for rank in [10usize, 5_000, 19_999] {
        let r =
            gpu_selection::sampleselect::sample_select_on_device(&mut device, &data, rank, &cfg())
                .unwrap();
        let launches = r.report.total_launches();
        if launches_prev > 0 {
            // same input, similar work: the per-run report must not
            // accumulate previous runs
            assert!(launches < 2 * launches_prev + 8);
        }
        launches_prev = launches;
    }
}

// ---------------------------------------------------------------------
// Data-plane faults: silent bit flips, ABFT verification, rank
// certification, and checkpoint/resume for streaming jobs.
// ---------------------------------------------------------------------

use gpu_selection::sampleselect::streaming::{streaming_select_with_checkpoint, SliceChunks};
use gpu_selection::sampleselect::verify::rank_bounds;
use gpu_selection::sampleselect::{sample_select_on_device, sample_sort_on_device, VerifyPolicy};

/// The acceptance scenario for silent corruption: a fault plan that
/// flips bits in every exposed buffer (splitters, counts, oracles). The
/// resilient driver under paranoid verification must still return the
/// exact k-th element, the detections must show up in the resilience
/// events, the injected corruptions on the kernel trace, and the whole
/// episode must replay identically from the same seeds.
#[test]
fn bitflips_under_paranoid_verify_stay_exact_and_deterministic() {
    let data = gen_data(1 << 17, 0xfa05);
    let rank = 70_000;
    let expected = reference_select(&data, rank).unwrap();

    let run = || {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        device.set_fault_plan(FaultPlan::new(41).bitflips(1.0));
        let cfg = SampleSelectConfig::default().with_verify(VerifyPolicy::Paranoid);
        let res = resilient_select_on_device(
            &mut device,
            &data,
            rank,
            &cfg,
            &ResilienceConfig::default(),
        )
        .unwrap();
        let corrupt_records = device
            .records()
            .iter()
            .filter(|r| r.name.starts_with("corrupt:"))
            .count();
        (res, corrupt_records)
    };

    let (a, corrupt_a) = run();
    assert_eq!(a.outcome, Outcome::Exact(expected));
    assert!(
        corrupt_a >= 1,
        "injected corruption must appear on the trace"
    );
    assert!(
        a.report.resilience.corruptions_detected >= 1,
        "ABFT checks must notice the corrupted buffers"
    );
    assert!(
        a.report.resilience.certified >= 1,
        "the final answer must carry a rank certificate"
    );

    let (b, corrupt_b) = run();
    assert_eq!(b.outcome, a.outcome);
    assert_eq!(b.backend, a.backend);
    assert_eq!(
        b.report.resilience, a.report.resilience,
        "same fault seed must reproduce the event log"
    );
    assert_eq!(corrupt_b, corrupt_a, "same corruption trace");
}

/// CI fault matrix: `FAULT_MATRIX_CLASS` selects one injected fault
/// class (`launch`, `alloc`, `bitflip`, `chunk-load`) and
/// `FAULT_MATRIX_SEED` overrides its fault seed; with neither set, all
/// four classes run with the default seed. Every class must end in the
/// exact answer regardless of what the injector does.
#[test]
fn fault_matrix_every_class_recovers_exact() {
    let class_env = std::env::var("FAULT_MATRIX_CLASS").ok();
    let seed: u64 = std::env::var("FAULT_MATRIX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1729);
    let classes: Vec<&str> = match class_env.as_deref() {
        Some(c) => vec![c],
        None => vec!["launch", "alloc", "bitflip", "chunk-load"],
    };
    let data = gen_data(1 << 17, 0xfa06);
    let rank = 50_000;
    let expected = reference_select(&data, rank).unwrap();

    for class in classes {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let rcfg = ResilienceConfig::default();
        let outcome = match class {
            "launch" => {
                device.set_fault_plan(
                    FaultPlan::new(seed)
                        .launch_failures(0.2)
                        .max_launch_failures(6),
                );
                resilient_select_on_device(&mut device, &data, rank, &cfg(), &rcfg)
                    .unwrap()
                    .outcome
            }
            "alloc" => {
                device.set_fault_plan(
                    FaultPlan::new(seed)
                        .alloc_failures(0.3)
                        .max_alloc_failures(4),
                );
                resilient_select_on_device(&mut device, &data, rank, &cfg(), &rcfg)
                    .unwrap()
                    .outcome
            }
            "bitflip" => {
                device.set_fault_plan(FaultPlan::new(seed).bitflips(0.5).max_corruptions(8));
                let vcfg = cfg().with_verify(VerifyPolicy::Paranoid);
                resilient_select_on_device(&mut device, &data, rank, &vcfg, &rcfg)
                    .unwrap()
                    .outcome
            }
            "chunk-load" => {
                let source = FlakyChunks {
                    data: &data,
                    chunk_len: 1 << 15,
                    target: 1,
                    fail_times: 2,
                    failures: AtomicUsize::new(0),
                };
                resilient_streaming_select(&mut device, &source, rank, &cfg(), &rcfg)
                    .unwrap()
                    .outcome
            }
            other => panic!("unknown FAULT_MATRIX_CLASS `{other}`"),
        };
        assert_eq!(
            outcome,
            Outcome::Exact(expected),
            "fault class `{class}` (seed {seed}) must recover the exact answer"
        );
    }
}

#[test]
fn killed_streaming_job_resumes_from_checkpoint() {
    let data = gen_data(1 << 16, 0xfa07);
    let rank = 31_337;
    let scfg = SampleSelectConfig::default();
    let ckpt =
        std::env::temp_dir().join(format!("gpu-selection-fm-ckpt-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let pool = ThreadPool::new(2);

    // Uninterrupted reference run.
    let mut device = Device::new(v100(), &pool);
    let healthy = SliceChunks::new(&data, 1 << 13);
    let expected = streaming_select(&mut device, &healthy, rank, &scfg).unwrap();

    // The same job dies at chunk 5 (the source never recovers) but
    // persists its per-chunk progress...
    let mut device = Device::new(v100(), &pool);
    let dying = FlakyChunks {
        data: &data,
        chunk_len: 1 << 13,
        target: 5,
        fail_times: usize::MAX,
        failures: AtomicUsize::new(0),
    };
    let err = streaming_select_with_checkpoint(&mut device, &dying, rank, &scfg, &ckpt, false)
        .unwrap_err();
    assert!(matches!(err, SelectError::ChunkLoad(_)));
    assert!(ckpt.exists(), "checkpoint must survive the crash");

    // ...so the restarted process resumes instead of starting over and
    // lands on the bit-identical answer.
    let mut device = Device::new(v100(), &pool);
    let resumed =
        streaming_select_with_checkpoint(&mut device, &healthy, rank, &scfg, &ckpt, true).unwrap();
    assert_eq!(resumed.value.to_bits(), expected.value.to_bits());
    assert_eq!(resumed.report.resilience.resumed, 1, "resume event logged");
    assert!(!ckpt.exists(), "checkpoint deleted after success");
}

#[test]
fn corrupted_checkpoint_falls_back_to_clean_restart() {
    let data = gen_data(1 << 16, 0xfa08);
    let rank = 9_999;
    let scfg = SampleSelectConfig::default();
    let ckpt = std::env::temp_dir().join(format!(
        "gpu-selection-fm-bad-ckpt-{}.bin",
        std::process::id()
    ));
    std::fs::write(&ckpt, b"SSCKgarbage-that-is-not-a-checkpoint").unwrap();

    let pool = ThreadPool::new(2);
    let mut device = Device::new(v100(), &pool);
    let source = SliceChunks::new(&data, 1 << 13);
    let res =
        streaming_select_with_checkpoint(&mut device, &source, rank, &scfg, &ckpt, true).unwrap();
    assert_eq!(
        res.value.to_bits(),
        reference_select(&data, rank).unwrap().to_bits()
    );
    assert_eq!(
        res.report.resilience.corruptions_detected, 1,
        "checksum rejection must be logged as a detected corruption"
    );
    assert_eq!(res.report.resilience.resumed, 0, "no resume from garbage");
    assert!(!ckpt.exists(), "checkpoint deleted after success");
}

/// Drivers that filter a range of buckets in one pass (fused top-k,
/// sample sort) slice the output at count-derived bucket boundaries. A
/// corrupted oracle makes the filter fall back to an input-order gather
/// that is no longer grouped by bucket, so those drivers must report
/// the corruption instead of slicing it. Multi-rank selection, which
/// filters one bucket per target, rides along. Every run under Spot
/// checks is either the exact answer or a corruption error.
#[test]
fn fused_ranges_surface_oracle_corruption() {
    use gpu_selection::sampleselect::element::sort_elements;
    use gpu_selection::sampleselect::rng::SplitMix64;
    use gpu_selection::sampleselect::{
        multi_select_on_device, sample_sort_on_device, top_k_largest_on_device,
    };

    let n = 300_000;
    let mut rng = SplitMix64::new(0x1e7e_1100);
    let data: Vec<f32> = (0..n).map(|_| rng.next_f64() as f32).collect();
    let mut sorted = data.clone();
    sort_elements(&mut sorted);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let k = n / 3;
    let mut want_top = bits(&sorted[n - k..]);
    want_top.sort_unstable();
    let ranks = [n / 10, n / 3, n / 2, 9 * n / 10];
    let want_ranks: Vec<u32> = ranks.iter().map(|&r| sorted[r].to_bits()).collect();
    let want_sorted = bits(&sorted);

    let cfg = SampleSelectConfig::default().with_verify(VerifyPolicy::Spot);
    let pool = ThreadPool::new(2);
    let mut wrong = Vec::new();
    for seed in [0x9a17u64, 1, 2, 3] {
        for at in 0..14u64 {
            let device = || {
                let mut device = Device::new(v100(), &pool);
                device.set_fault_plan(FaultPlan::new(seed).corrupt_accesses_at(&[at]));
                device
            };
            let topk = top_k_largest_on_device(&mut device(), &data, k, &cfg).map(|r| {
                let mut got = bits(&r.elements);
                got.sort_unstable();
                got == want_top && r.threshold.to_bits() == sorted[n - k].to_bits()
            });
            let multi = multi_select_on_device(&mut device(), &data, &ranks, &cfg)
                .map(|r| bits(&r.values) == want_ranks);
            let sort = sample_sort_on_device(&mut device(), &data, &cfg)
                .map(|r| bits(&r.sorted) == want_sorted);
            for (driver, outcome) in [("top-k", topk), ("multi-rank", multi), ("sort", sort)] {
                match outcome {
                    Ok(true) | Err(SelectError::Corruption { .. }) => {}
                    Ok(false) => wrong.push(format!("{driver} seed {seed:#x} access {at}: wrong")),
                    Err(e) => wrong.push(format!("{driver} seed {seed:#x} access {at}: {e}")),
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NaN orders above every number (`element.rs` total order), so the
    /// samplesort, quickselect, and streaming pipelines must all return
    /// a value occupying the requested rank even when the input carries
    /// NaNs. Ties may resolve to different (bit-equal-ranked)
    /// representatives, so agreement is asserted through the rank
    /// certificate bounds rather than bit equality.
    #[test]
    fn nan_inputs_rank_consistently_across_algorithms(
        mut data in prop::collection::vec(-1.0e6f32..1.0e6, 32..400),
        nan_positions in prop::collection::vec(0usize..400, 1..10),
        rank_frac in 0.0f64..1.0,
    ) {
        let len = data.len();
        for &p in &nan_positions {
            data[p % len] = f32::NAN;
        }
        let rank = ((len - 1) as f64 * rank_frac) as usize;
        let cfg = SampleSelectConfig::default()
            .with_buckets(8)
            .with_oversampling(2)
            .with_base_case(16);
        let pool = ThreadPool::new(1);

        let mut device = Device::new(v100(), &pool);
        let ss = sample_select_on_device(&mut device, &data, rank, &cfg).unwrap().value;
        let qs = quick_select(&data, rank, &cfg).unwrap().value;
        let sorted = sample_sort_on_device(&mut Device::on_global_pool(v100()), &data, &cfg)
            .unwrap()
            .sorted;
        let so = sorted[rank];
        let mut device = Device::new(v100(), &pool);
        let source = SliceChunks::new(&data, 64);
        let st = streaming_select(&mut device, &source, rank, &cfg).unwrap().value;

        for (name, v) in [
            ("samplesort", so),
            ("quickselect", qs),
            ("sampleselect", ss),
            ("streaming", st),
        ] {
            let (below, tied) = rank_bounds(&data, v);
            prop_assert!(
                below <= rank as u64 && (rank as u64) < below + tied,
                "{} returned {:?} occupying ranks [{}, {}) but rank {} was requested",
                name, v, below, below + tied, rank
            );
        }
    }
}
