//! Allocation accounting for the zero-allocation hot path.
//!
//! A counting `#[global_allocator]` shim proves the hot path's central
//! property: with the device buffer pool armed and a warm
//! [`SelectWorkspace`], the steady-state recursion kernels (sample →
//! count → reduce → filter at level >= 1) perform **zero** heap
//! allocations, and so does an entire warm SampleSelect or RadixSelect
//! query that fills a caller-owned report.
//!
//! Everything runs inside one `#[test]` so no sibling test thread can
//! allocate while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::{Device, LaunchOrigin};
use gpu_selection::hpc_par::simd;
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::count::{count_kernel_scoped, OracleBuf};
use gpu_selection::sampleselect::filter::filter_kernel_scoped;
use gpu_selection::sampleselect::instrument::SelectReport;
use gpu_selection::sampleselect::obs;
use gpu_selection::sampleselect::recursion::{select_into, Bucketing};
use gpu_selection::sampleselect::reduce::reduce_kernel;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::splitter::sample_kernel_into;
use gpu_selection::sampleselect::{SampleSelectConfig, SelectWorkspace};

/// Counts every heap allocation (and reallocation) while armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

fn uniform(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() as f32).collect()
}

/// One full recursion level driven through the kernel-layer API exactly
/// as `sample_select_with_workspace` drives it, returning the size of
/// the filtered bucket. Every pooled buffer is recycled at the end, as
/// the driver does between levels.
fn one_level(
    device: &mut Device,
    ws: &mut SelectWorkspace<f32>,
    data: &[f32],
    cfg: &SampleSelectConfig,
) -> usize {
    // Fresh RNG per pass: identical splitters, buckets, and buffer
    // shapes, so the warm pool always has a fitting allocation.
    let mut rng = SplitMix64::new(cfg.seed);
    sample_kernel_into(device, data, cfg, &mut rng, LaunchOrigin::Host, ws)
        .expect("non-degenerate sample");
    let tree = ws.tree().expect("tree built");
    let count = count_kernel_scoped(
        device,
        data,
        tree,
        cfg,
        true,
        LaunchOrigin::Host,
        &ws.scratch,
    );
    let red = reduce_kernel(device, &count, LaunchOrigin::Device);
    let bucket = red.bucket_for_rank((data.len() / 2) as u64) as u32;
    let out = filter_kernel_scoped(
        device,
        data,
        &count,
        &red,
        bucket..bucket + 1,
        cfg,
        LaunchOrigin::Device,
        &ws.scratch,
    );
    let kept = out.len();
    device.recycle_vec("filter-out", out);
    device.recycle_vec("counts", count.counts);
    device.recycle_vec("count-partials", count.partials);
    match count.oracles {
        Some(OracleBuf::U8(v)) => device.recycle_vec("oracles", v),
        Some(OracleBuf::U16(v)) => device.recycle_vec("oracles", v),
        None => {}
    }
    device.recycle_vec("reduce-offsets", red.offsets);
    device.recycle_vec("bucket-offsets", red.bucket_offsets);
    kept
}

#[test]
fn steady_state_hot_path_does_not_allocate() {
    // Single-threaded pool: the parallel primitives run inline, so the
    // counter observes the kernel bodies themselves rather than task
    // spawning (which real GPU streams amortize the same way).
    let pool = ThreadPool::new(1);
    let mut device = Device::new(v100(), &pool);
    device.enable_buffer_pool();
    let cfg = SampleSelectConfig::default();
    let data = uniform(1 << 16, 0xa110c);

    let mut ws: SelectWorkspace<f32> = SelectWorkspace::new();

    // Two cold passes warm the workspace, the device pool, and the
    // record buffer's capacity.
    let k1 = one_level(&mut device, &mut ws, &data, &cfg);
    device.reset();
    let k2 = one_level(&mut device, &mut ws, &data, &cfg);
    assert_eq!(k1, k2, "identical seed must reproduce the pass");
    device.reset();

    // Steady state: an entire sample/count/reduce/filter level must not
    // touch the heap at all.
    let before = device.buffer_pool_stats().expect("pool armed");
    let (k3, allocs) = counted(|| one_level(&mut device, &mut ws, &data, &cfg));
    assert_eq!(k3, k1);
    assert_eq!(
        allocs, 0,
        "steady-state recursion level allocated {allocs} times"
    );
    let after = device.buffer_pool_stats().expect("pool armed");
    assert_eq!(
        after.misses, before.misses,
        "warm pool must serve every steady-state lease"
    );
    assert!(after.hits > before.hits, "the pass leased from the pool");

    // Every SIMD dispatch level rides the same zero-allocation budget:
    // the compress staging, key mirrors, and descent buffers live on
    // the stack or in pre-sized workspace vectors, so forcing the
    // scalar fallback or AVX2 must not add a single heap allocation —
    // and must reproduce the exact same bucket size.
    for level in [simd::SimdLevel::Scalar, simd::SimdLevel::Avx2] {
        if level == simd::SimdLevel::Avx2 && !simd::avx2_available() {
            continue;
        }
        device.reset();
        simd::force_level(Some(level));
        let (k_lvl, lvl_allocs) = counted(|| one_level(&mut device, &mut ws, &data, &cfg));
        simd::force_level(None);
        assert_eq!(k_lvl, k1, "dispatch level {level} must be bit-identical");
        assert_eq!(
            lvl_allocs, 0,
            "steady-state level at dispatch {level} allocated {lvl_allocs} times"
        );
    }
    device.reset();

    // Full driver query: with a warm workspace, pool, and a
    // caller-owned report shell, an ENTIRE query of either backend
    // (sample or digit pass, count, reduce, filter recursion, base-case
    // sort, report re-aggregation) performs zero heap allocations.
    let rank = 1 << 15;
    for (bucketing, algorithm) in [
        (Bucketing::Splitters, "sampleselect"),
        (Bucketing::Digits, "radixselect"),
    ] {
        let mut query_ws: SelectWorkspace<f32> = SelectWorkspace::new();
        let mut report = SelectReport::empty("");
        let mut query = |device: &mut Device| {
            select_into(
                device,
                &data,
                rank,
                &cfg,
                &mut query_ws,
                &mut report,
                bucketing,
            )
            .expect("select succeeds")
        };
        // Two cold queries warm the workspace, the pool shapes, the
        // record buffer, and the report's kernel-summary slots.
        let v_cold = query(&mut device);
        device.reset();
        assert_eq!(query(&mut device), v_cold);
        device.reset();

        let pool_before = device.buffer_pool_stats().expect("pool armed");
        let (v_warm, query_allocs) = counted(|| query(&mut device));
        assert_eq!(v_warm, v_cold);
        assert_eq!(
            query_allocs, 0,
            "warm {algorithm} query allocated {query_allocs} times (must be zero)"
        );
        let pool_after = device.buffer_pool_stats().expect("pool armed");
        assert_eq!(
            pool_after.misses, pool_before.misses,
            "warm pool must serve every {algorithm} lease"
        );
        assert!(
            pool_after.hits > pool_before.hits,
            "the {algorithm} query leased from the pool"
        );
        assert_eq!(report.algorithm, algorithm);
        assert!(report.total_launches() > 0);
        device.reset();
    }

    // With no ObsSession installed, every observability entry point the
    // drivers call on the hot path must be a branch-and-return: zero
    // heap allocations, zero pool traffic.
    assert!(!obs::enabled(), "no session may be active in this test");
    let (_, obs_allocs) = counted(|| {
        for i in 0..1000u64 {
            obs::counter_add(obs::Counter::KernelLaunches, 1);
            obs::gauge_set(obs::Gauge::BucketOccupancy, i);
            obs::observe(obs::Histogram::KernelDurationNs, i * 97);
            obs::span_enter(obs::SpanKind::Kernel, "noop", i, i as f64);
            obs::track_sample(obs::Track::BucketOccupancy, i as f64, 0.5);
            obs::span_exit(i as f64);
            obs::absorb_device(&device);
            obs::pool_sample(&device);
            let _ = obs::span_depth();
        }
    });
    assert_eq!(
        obs_allocs, 0,
        "disabled observability allocated {obs_allocs} times across 9000 calls"
    );
}
