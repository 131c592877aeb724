//! Microbenchmarks of the algorithmic building blocks (real wall-clock):
//! the bitonic sorting network, search-tree construction and traversal,
//! and prefix sums.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpc_par::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sampleselect::bitonic::bitonic_sort;
use sampleselect::searchtree::SearchTree;

fn bench_bitonic(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitonic-sort");
    group.sample_size(20);
    for n in [256usize, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f32> = (0..n).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter_batched(
                || data.clone(),
                |mut v| bitonic_sort(&mut v),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_searchtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("searchtree");
    let mut rng = StdRng::seed_from_u64(2);
    for b_count in [64usize, 256, 1024] {
        let mut splitters: Vec<f32> = (0..b_count - 1).map(|_| rng.gen()).collect();
        splitters.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let tree = SearchTree::build(&splitters);
        let queries: Vec<f32> = (0..4096).map(|_| rng.gen()).collect();
        group.throughput(Throughput::Elements(queries.len() as u64));
        group.bench_function(BenchmarkId::new("lookup", b_count), |bch| {
            bch.iter(|| {
                let mut acc = 0u32;
                for &q in &queries {
                    acc = acc.wrapping_add(tree.lookup(q));
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::new("build", b_count), |bch| {
            bch.iter(|| SearchTree::build(&splitters))
        });
    }
    group.finish();
}

fn bench_scan(c: &mut Criterion) {
    let pool = ThreadPool::global();
    let n = 1 << 20;
    let mut rng = StdRng::seed_from_u64(3);
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..100)).collect();

    let mut group = c.benchmark_group("primitives");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("exclusive-scan-sequential", |b| {
        b.iter_batched(
            || values.clone(),
            |mut v| hpc_par::exclusive_scan(&mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("exclusive-scan-parallel", |b| {
        b.iter_batched(
            || values.clone(),
            |mut v| hpc_par::parallel_exclusive_scan(pool, &mut v),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_bitonic, bench_searchtree, bench_scan);
criterion_main!(benches);
