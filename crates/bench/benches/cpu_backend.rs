//! Real wall-clock benchmarks of the host-side implementations: the
//! multithreaded CPU SampleSelect backend against the classical
//! sequential selection algorithms. This is the genuinely-measured
//! (non-simulated) half of the benchmark suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpc_par::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sampleselect::cpu::{
    cpu_approx_select, cpu_multi_select, cpu_sample_select, cpu_top_k, CpuSelectConfig,
};
use sampleselect::multiselect::quantile_ranks;
use select_baselines::{floyd_rivest_select, hoare_quickselect, sort_select, std_select};

fn data(n: usize) -> (Vec<f32>, usize) {
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
    let rank = rng.gen_range(0..n);
    (data, rank)
}

fn bench_selection(c: &mut Criterion) {
    let n = 1 << 20;
    let (input, rank) = data(n);
    let pool = ThreadPool::global();
    let cfg = CpuSelectConfig::default();

    let mut group = c.benchmark_group("cpu-selection");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("cpu-sampleselect", n), |b| {
        b.iter(|| cpu_sample_select(pool, &input, rank, &cfg).unwrap().0)
    });
    group.bench_function(BenchmarkId::new("cpu-approx-sampleselect", n), |b| {
        b.iter(|| cpu_approx_select(pool, &input, rank, &cfg).unwrap().0)
    });
    // Top-k and multi-rank selection filter bucket ranges and several
    // buckets per level, where single-rank selection filters one. The
    // range grows with k: a few buckets at k = 1024, half of them at
    // k = n/2, nearly all at k = n - 1000.
    for (name, k) in [
        ("cpu-top-k-1024", 1024),
        ("cpu-top-k-half", n / 2),
        ("cpu-top-k-all-but-1000", n - 1000),
    ] {
        group.bench_function(BenchmarkId::new(name, n), |b| {
            b.iter(|| cpu_top_k(pool, &input, k, &cfg).unwrap().1)
        });
    }
    let ranks = quantile_ranks(n, 16).unwrap();
    group.bench_function(BenchmarkId::new("cpu-multi-select-q16", n), |b| {
        b.iter(|| cpu_multi_select(pool, &input, &ranks, &cfg).unwrap())
    });
    group.bench_function(BenchmarkId::new("std-introselect", n), |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| std_select(&mut v, rank),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("floyd-rivest", n), |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| floyd_rivest_select(&mut v, rank),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("hoare-quickselect", n), |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| hoare_quickselect(&mut v, rank),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function(BenchmarkId::new("full-sort", n), |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| sort_select(&mut v, rank),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_duplicates(c: &mut Criterion) {
    // Duplicate-heavy input: equality buckets should keep the CPU
    // backend fast.
    let n = 1 << 20;
    let mut rng = StdRng::seed_from_u64(7);
    let input: Vec<f32> = (0..n).map(|_| rng.gen_range(0..16) as f32).collect();
    let rank = n / 2;
    let pool = ThreadPool::global();
    let cfg = CpuSelectConfig::default();

    let mut group = c.benchmark_group("cpu-selection-duplicates");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    group.bench_function("cpu-sampleselect-d16", |b| {
        b.iter(|| cpu_sample_select(pool, &input, rank, &cfg).unwrap().0)
    });
    group.bench_function("std-introselect-d16", |b| {
        b.iter_batched(
            || input.clone(),
            |mut v| std_select(&mut v, rank),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_selection, bench_duplicates);
criterion_main!(benches);
