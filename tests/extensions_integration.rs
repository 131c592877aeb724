//! Cross-crate integration tests for the future-work extensions:
//! streaming selection over datagen distributions, multiselect and
//! samplesort consistency, bottom-k/top-k duality, and trace export of
//! real runs.

use gpu_selection::datagen::{Distribution, RankChoice, WorkloadSpec};
use gpu_selection::gpu_sim::arch::{k20xm, v100};
use gpu_selection::gpu_sim::{trace_events, Device};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::reference_select;
use gpu_selection::sampleselect::multiselect::multi_select_on_device;
use gpu_selection::sampleselect::samplesort::sample_sort_on_device;
use gpu_selection::sampleselect::streaming::{streaming_select, SliceChunks};
use gpu_selection::sampleselect::topk::{bottom_k_smallest_on_device, top_k_largest_on_device};
use gpu_selection::sampleselect::{SampleSelectConfig, SelectError};

const N: usize = 100_000;

fn workloads() -> Vec<WorkloadSpec> {
    [
        Distribution::Uniform,
        Distribution::UniformDistinct { distinct: 16 },
        Distribution::ClusteredOutliers,
        Distribution::SortedDescending,
    ]
    .into_iter()
    .map(|distribution| WorkloadSpec {
        n: N,
        distribution,
        rank: RankChoice::Median,
        seed: 77,
    })
    .collect()
}

#[test]
fn streaming_matches_in_memory_on_every_distribution() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    for spec in workloads() {
        let w = spec.instantiate::<f32>(0);
        let mut device = Device::new(v100(), &pool);
        let source = SliceChunks::new(&w.data, 1 << 14);
        let res = streaming_select(&mut device, &source, w.rank, &cfg).unwrap();
        assert_eq!(
            res.value.to_bits(),
            reference_select(&w.data, w.rank).unwrap().to_bits(),
            "{}",
            w.label
        );
    }
}

#[test]
fn multiselect_is_consistent_with_samplesort() {
    // The two extensions must agree: multiselect's values at ranks R
    // equal the samplesorted array at positions R.
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    let w = WorkloadSpec::uniform(N, 78).instantiate::<f32>(0);
    let ranks: Vec<usize> = (0..10).map(|i| i * N / 10).collect();

    let mut device = Device::new(v100(), &pool);
    let multi = multi_select_on_device(&mut device, &w.data, &ranks, &cfg).unwrap();
    device.reset();
    let sorted = sample_sort_on_device(&mut device, &w.data, &cfg).unwrap();
    for (i, &rank) in ranks.iter().enumerate() {
        assert_eq!(multi.values[i].to_bits(), sorted.sorted[rank].to_bits());
    }
}

#[test]
fn samplesort_obeys_the_level_cap() {
    let pool = ThreadPool::new(2);
    let data = WorkloadSpec::uniform(200_000, 79)
        .instantiate::<f32>(0)
        .data;
    let mut device = Device::new(v100(), &pool);
    let cfg = SampleSelectConfig::default().with_max_levels(0);
    let err = sample_sort_on_device(&mut device, &data, &cfg).unwrap_err();
    assert_eq!(err, SelectError::RecursionLimit);
}

#[test]
fn samplesort_obeys_the_work_budget() {
    // The first level alone scans n elements, more than 0.5 * n.
    let pool = ThreadPool::new(2);
    let data = WorkloadSpec::uniform(200_000, 80)
        .instantiate::<f32>(0)
        .data;
    let mut device = Device::new(v100(), &pool);
    let cfg = SampleSelectConfig::default().with_work_budget_factor(0.5);
    let err = sample_sort_on_device(&mut device, &data, &cfg).unwrap_err();
    assert_eq!(err, SelectError::RecursionLimit);
}

#[test]
fn bottom_k_and_top_k_tile_the_input() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    let w = WorkloadSpec::uniform(N, 79).instantiate::<f32>(0);
    let k = N / 4;
    let mut device = Device::new(v100(), &pool);
    let bottom = bottom_k_smallest_on_device(&mut device, &w.data, k, &cfg).unwrap();
    let top = top_k_largest_on_device(&mut device, &w.data, N - k, &cfg).unwrap();
    // bottom-k ∪ top-(n-k) = the whole input (as multisets)
    let mut combined: Vec<u32> = bottom
        .elements
        .iter()
        .chain(top.elements.iter())
        .map(|x| x.to_bits())
        .collect();
    let mut expected: Vec<u32> = w.data.iter().map(|x| x.to_bits()).collect();
    combined.sort_unstable();
    expected.sort_unstable();
    assert_eq!(combined, expected);
    // thresholds are adjacent ranks
    let mut sorted = w.data.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(bottom.threshold, sorted[k - 1]);
    assert_eq!(top.threshold, sorted[k]);
}

#[test]
fn trace_export_covers_a_full_run_in_order() {
    let pool = ThreadPool::new(2);
    let cfg = SampleSelectConfig::default();
    let w = WorkloadSpec::uniform(N, 80).instantiate::<f32>(0);
    let mut device = Device::new(v100(), &pool);
    gpu_selection::sampleselect::sample_select_on_device(&mut device, &w.data, w.rank, &cfg)
        .unwrap();
    let events = trace_events(&device);
    assert_eq!(events.len(), device.records().len() * 2);
    // strictly ordered timeline
    let mut last_end = 0.0f64;
    for ev in &events {
        assert!(ev.ts >= last_end - 1e-9, "overlap at {}", ev.name);
        last_end = ev.ts + ev.dur;
    }
    // the JSON serializes
    let json = gpu_selection::gpu_sim::chrome_trace(&device);
    assert!(json.len() > 100);
}

#[test]
fn streaming_matches_across_architectures() {
    let pool = ThreadPool::new(2);
    let w = WorkloadSpec::with_distinct(N, 1024, 81).instantiate::<f32>(0);
    let mut results = Vec::new();
    for arch in [k20xm(), v100()] {
        let cfg = SampleSelectConfig::tuned_for(&arch);
        let mut device = Device::new(arch, &pool);
        let source = SliceChunks::new(&w.data, 1 << 13);
        results.push(
            streaming_select(&mut device, &source, w.rank, &cfg)
                .unwrap()
                .value,
        );
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], reference_select(&w.data, w.rank).unwrap());
}
