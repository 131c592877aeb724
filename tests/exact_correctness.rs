//! Cross-crate correctness: every selection algorithm on every
//! distribution, element type, and rank position must agree with the
//! reference (`select_nth_unstable`, the Rust analogue of the paper's
//! `std::nth_element` validation, §V-A).

use gpu_selection::baselines::bucket_select_on_device;
use gpu_selection::datagen::{Distribution, RankChoice, WorkloadSpec};
use gpu_selection::gpu_sim::arch::{c2070, k20xm, v100};
use gpu_selection::gpu_sim::Device;
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::cpu::{cpu_sample_select, CpuSelectConfig};
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::{
    quick_select_on_device, radix_select_on_device, sample_select_on_device, SampleSelectConfig,
};

const N: usize = 50_000;

fn distributions() -> Vec<Distribution> {
    vec![
        Distribution::Uniform,
        Distribution::UniformDistinct { distinct: 1 },
        Distribution::UniformDistinct { distinct: 16 },
        Distribution::UniformDistinct { distinct: 1024 },
        Distribution::Normal {
            mean: 0.0,
            std_dev: 3.0,
        },
        Distribution::Exponential { lambda: 0.5 },
        Distribution::SortedAscending,
        Distribution::SortedDescending,
        Distribution::ClusteredOutliers,
        Distribution::GeometricCascade,
    ]
}

fn ranks(n: usize) -> Vec<usize> {
    vec![0, 1, n / 4, n / 2, n - 2, n - 1]
}

#[test]
fn sampleselect_matches_reference_everywhere() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    for dist in distributions() {
        let spec = WorkloadSpec {
            n: N,
            distribution: dist,
            rank: RankChoice::Median,
            seed: 11,
        };
        let w = spec.instantiate::<f32>(0);
        for rank in ranks(N) {
            let mut device = Device::new(v100(), &pool);
            let got = sample_select_on_device(&mut device, &w.data, rank, &cfg)
                .unwrap()
                .value;
            let expected = reference_select(&w.data, rank).unwrap();
            assert_eq!(
                got.to_bits(),
                expected.to_bits(),
                "{} rank {rank}",
                dist.label()
            );
        }
    }
}

#[test]
fn quickselect_matches_reference_everywhere() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    for dist in distributions() {
        let spec = WorkloadSpec {
            n: N,
            distribution: dist,
            rank: RankChoice::Median,
            seed: 12,
        };
        let w = spec.instantiate::<f32>(0);
        for rank in [0, N / 2, N - 1] {
            let mut device = Device::new(v100(), &pool);
            let got = quick_select_on_device(&mut device, &w.data, rank, &cfg)
                .unwrap()
                .value;
            assert_eq!(
                got.to_bits(),
                reference_select(&w.data, rank).unwrap().to_bits(),
                "{} rank {rank}",
                dist.label()
            );
        }
    }
}

#[test]
fn baselines_match_reference_everywhere() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    for dist in distributions() {
        let spec = WorkloadSpec {
            n: N,
            distribution: dist,
            rank: RankChoice::Median,
            seed: 13,
        };
        let w = spec.instantiate::<f32>(0);
        let rank = N / 3;
        let expected = reference_select(&w.data, rank).unwrap();
        let mut device = Device::new(v100(), &pool);
        let bucket = bucket_select_on_device(&mut device, &w.data, rank, &cfg)
            .unwrap()
            .value;
        assert_eq!(
            bucket.to_bits(),
            expected.to_bits(),
            "bucketselect {}",
            dist.label()
        );
        let radix = radix_select_on_device(&mut device, &w.data, rank, &cfg)
            .unwrap()
            .value;
        assert_eq!(
            radix.to_bits(),
            expected.to_bits(),
            "radixselect {}",
            dist.label()
        );
    }
}

#[test]
fn cpu_backend_matches_reference_everywhere() {
    let pool = ThreadPool::new(4);
    let cfg = CpuSelectConfig::default();
    for dist in distributions() {
        let spec = WorkloadSpec {
            n: N * 4, // CPU backend is fast; exercise a larger input
            distribution: dist,
            rank: RankChoice::Median,
            seed: 14,
        };
        let w = spec.instantiate::<f32>(0);
        let rank = w.data.len() / 2;
        let (got, _) = cpu_sample_select(&pool, &w.data, rank, &cfg).unwrap();
        assert_eq!(
            got.to_bits(),
            reference_select(&w.data, rank).unwrap().to_bits(),
            "{}",
            dist.label()
        );
    }
}

#[test]
fn all_element_types_select_correctly() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();

    macro_rules! check {
        ($t:ty, $gen:expr) => {{
            let data: Vec<$t> = (0..N).map($gen).collect();
            let rank = N / 2;
            let mut device = Device::new(v100(), &pool);
            let got = sample_select_on_device(&mut device, &data, rank, &cfg)
                .unwrap()
                .value;
            assert_eq!(got, reference_select(&data, rank).unwrap(), stringify!($t));
        }};
    }

    check!(f32, |i| ((i * 2654435761) % 100_000) as f32 * 0.01 - 500.0);
    check!(f64, |i| ((i * 2654435761) % 100_000) as f64 * 1e-3);
    check!(u32, |i| (i as u32).wrapping_mul(2654435761));
    check!(u64, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    check!(i32, |i| (i as u32).wrapping_mul(2654435761) as i32);
    check!(i64, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) as i64);
}

#[test]
fn identical_results_across_architectures() {
    // The functional layer is architecture-independent: only simulated
    // time differs.
    let pool = ThreadPool::new(2);
    let w = WorkloadSpec::uniform(N, 15).instantiate::<f32>(0);
    let mut values = Vec::new();
    for arch in [c2070(), k20xm(), v100()] {
        let cfg = SampleSelectConfig::tuned_for(&arch);
        let mut device = Device::new(arch, &pool);
        values.push(
            sample_select_on_device(&mut device, &w.data, w.rank, &cfg)
                .unwrap()
                .value,
        );
    }
    assert!(values.windows(2).all(|v| v[0] == v[1]));
    assert_eq!(values[0], reference_select(&w.data, w.rank).unwrap());
}

#[test]
fn every_rank_of_a_small_input_is_correct() {
    // Exhaustive rank sweep on a smaller input: catches off-by-one
    // boundary errors between buckets and the base case.
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default()
        .with_buckets(16)
        .with_base_case(64)
        .with_oversampling(2);
    let w = WorkloadSpec::with_distinct(3000, 100, 16).instantiate::<f32>(0);
    let mut sorted = w.data.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (rank, &expected) in sorted.iter().enumerate() {
        let mut device = Device::new(v100(), &pool);
        let got = sample_select_on_device(&mut device, &w.data, rank, &cfg)
            .unwrap()
            .value;
        assert_eq!(got, expected, "rank {rank}");
    }
}
