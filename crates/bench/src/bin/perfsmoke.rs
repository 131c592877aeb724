//! `perfsmoke` — the zero-allocation hot-path regression bench.
//!
//! Runs the paper's fig8 (throughput) and fig9 (per-kernel breakdown)
//! shapes plus an out-of-core streaming shape, each in two legs:
//!
//! * **fresh** — the pre-pooling behavior: a new device and fresh
//!   allocations for every query (one `Device` + driver call per rep);
//! * **pooled** — the hot path: one persistent device with the buffer
//!   pool armed and a [`SelectWorkspace`] reused across reps.
//!
//! For every shape it records wall time, simulated time, heap
//! allocation counts (via a counting global allocator), and bytes
//! moved, then writes `BENCH_hotpath.json` for CI to diff against
//! `bench/baselines/hotpath.json` (see `scripts/check_perf.py`). The
//! streaming shape additionally compares `stream_prefetch` on vs off
//! against a chunk source with realistic load latency.
//!
//! ```text
//! cargo run --release --bin perfsmoke [-- --reps N --threads N --full]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use gpu_sim::arch::v100;
use gpu_sim::Device;
use hpc_par::ThreadPool;
use sampleselect::recursion::{select_with_workspace, Bucketing};
use sampleselect::rng::SplitMix64;
use sampleselect::streaming::{streaming_select, ChunkError, ChunkSource};
use sampleselect::{
    sample_select_on_device, ObsSession, SampleSelectConfig, SelectReport, SelectWorkspace,
};
use select_bench::HarnessArgs;
use select_datagen::WorkloadSpec;

// ---------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------

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

/// Run `f`, returning its result plus (wall seconds, heap allocations).
fn clocked<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    ARMED.store(false, Ordering::SeqCst);
    (out, wall, ALLOCS.load(Ordering::SeqCst))
}

// ---------------------------------------------------------------------
// Measurement legs
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Leg {
    /// Best-of-reps wall seconds for one query (minimum across reps:
    /// the least-noise estimator on a shared machine).
    wall_s: f64,
    /// Mean wall seconds per query.
    wall_mean_s: f64,
    sim_ns: f64,
    allocs: u64,
    bytes_moved: u64,
}

impl Leg {
    fn absorb(&mut self, wall: f64, allocs: u64) {
        self.wall_s = if self.wall_s == 0.0 {
            wall
        } else {
            self.wall_s.min(wall)
        };
        self.wall_mean_s += wall;
        self.allocs += allocs;
    }
}

fn bytes_moved(report: &SelectReport) -> u64 {
    report
        .kernels
        .iter()
        .map(|k| k.cost.global_read_bytes + k.cost.global_write_bytes)
        .sum()
}

/// One fig8/fig9-style selection shape, measured in both legs.
///
/// The legs are interleaved per rep (fresh query, then the same query
/// on the pooled device) so slow drift on a shared machine hits both
/// sides equally, and each leg reports its best-of-reps per-query wall
/// time — the noise-robust estimator.
fn select_shape(name: &str, n: usize, pool: &ThreadPool, reps: usize) -> (String, Leg, Leg) {
    let spec = WorkloadSpec::uniform(n, 0xf188a5e);
    let workloads: Vec<_> = (0..reps as u64)
        .map(|rep| spec.instantiate::<f32>(rep))
        .collect();
    let cfg_for = |rep: u64| SampleSelectConfig::default().with_seed(500 + rep);

    // Persistent pooled device + reusable workspace; one unmeasured
    // query warms the pool and the workspace.
    let mut pooled_dev = Device::new(v100(), pool);
    pooled_dev.enable_buffer_pool();
    let mut ws: SelectWorkspace<f32> = SelectWorkspace::new();
    let _ = select_with_workspace(
        &mut pooled_dev,
        &workloads[0].data,
        workloads[0].rank,
        &cfg_for(0),
        &mut ws,
        Bucketing::Splitters,
    )
    .expect("warm-up select");
    pooled_dev.reset();

    let mut fresh = Leg::default();
    let mut pooled = Leg::default();
    for (rep, w) in workloads.iter().enumerate() {
        let cfg = cfg_for(rep as u64);

        // Fresh leg: pre-pooling behavior, a new device + fresh
        // allocations for every query.
        let (rf, wall_f, allocs_f) = clocked(|| {
            let mut device = Device::new(v100(), pool);
            sample_select_on_device(&mut device, &w.data, w.rank, &cfg).expect("fresh select")
        });
        fresh.absorb(wall_f, allocs_f);
        fresh.sim_ns += rf.report.total_time.as_ns();
        fresh.bytes_moved += bytes_moved(&rf.report);

        // Pooled leg: the steady-state hot path.
        let (rp, wall_p, allocs_p) = clocked(|| {
            let splitters = Bucketing::Splitters;
            select_with_workspace(&mut pooled_dev, &w.data, w.rank, &cfg, &mut ws, splitters)
                .expect("pooled select")
        });
        pooled_dev.reset();
        pooled.absorb(wall_p, allocs_p);
        pooled.sim_ns += rp.report.total_time.as_ns();
        pooled.bytes_moved += bytes_moved(&rp.report);

        assert_eq!(rf.value, rp.value, "pooled leg must be bit-identical");
        assert_eq!(
            rf.report.total_time, rp.report.total_time,
            "pooled leg must not change the simulated timeline"
        );
    }
    fresh.wall_mean_s /= reps as f64;
    pooled.wall_mean_s /= reps as f64;
    (name.to_string(), fresh, pooled)
}

// ---------------------------------------------------------------------
// Streaming shape: prefetch off vs on
// ---------------------------------------------------------------------

/// A chunk source with realistic load latency: chunk contents are
/// generated deterministically and each load stalls like an I/O read
/// would. With `stream_prefetch` the driver hides this latency behind
/// the count/filter compute of the previous chunk.
struct LatentChunks {
    n: usize,
    chunk_len: usize,
    seed: u64,
    latency: std::time::Duration,
}

impl ChunkSource<f32> for LatentChunks {
    fn num_chunks(&self) -> usize {
        self.n.div_ceil(self.chunk_len).max(1)
    }
    fn load_chunk(&self, idx: usize) -> Result<Vec<f32>, ChunkError> {
        std::thread::sleep(self.latency);
        let start = (idx * self.chunk_len).min(self.n);
        let end = ((idx + 1) * self.chunk_len).min(self.n);
        let mut rng = SplitMix64::new(self.seed.wrapping_add(start as u64));
        Ok((start..end).map(|_| rng.next_f64() as f32).collect())
    }
    fn total_len(&self) -> usize {
        self.n
    }
    fn source_name(&self) -> &str {
        "latent-chunks"
    }
}

fn streaming_shape(n: usize, pool: &ThreadPool, reps: usize) -> (Leg, Leg) {
    let source = LatentChunks {
        n,
        chunk_len: n / 16,
        seed: 0x57e3a,
        latency: std::time::Duration::from_millis(2),
    };
    let rank = n / 2;
    let cfg_off = SampleSelectConfig::default()
        .with_seed(7)
        .with_stream_prefetch(false);
    let cfg_on = SampleSelectConfig::default()
        .with_seed(7)
        .with_stream_prefetch(true);
    let mut dev_off = Device::new(v100(), pool);
    let mut dev_on = Device::new(v100(), pool);
    let mut off = Leg::default();
    let mut on = Leg::default();
    for _ in 0..reps {
        dev_off.reset();
        let (r_off, wall, allocs) = clocked(|| {
            streaming_select(&mut dev_off, &source, rank, &cfg_off).expect("streaming select")
        });
        off.absorb(wall, allocs);
        off.sim_ns += r_off.report.total_time.as_ns();
        off.bytes_moved += bytes_moved(&r_off.report);

        dev_on.reset();
        let (r_on, wall, allocs) = clocked(|| {
            streaming_select(&mut dev_on, &source, rank, &cfg_on).expect("streaming select")
        });
        on.absorb(wall, allocs);
        on.sim_ns += r_on.report.total_time.as_ns();
        on.bytes_moved += bytes_moved(&r_on.report);

        assert_eq!(r_off.value, r_on.value, "prefetch must be bit-identical");
    }
    off.wall_mean_s /= reps as f64;
    on.wall_mean_s /= reps as f64;
    (off, on)
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

fn leg_json(leg: &Leg) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"wall_mean_s\": {:.6}, \"sim_ns\": {:.1}, \"allocs\": {}, \"bytes_moved\": {}}}",
        leg.wall_s, leg.wall_mean_s, leg.sim_ns, leg.allocs, leg.bytes_moved
    )
}

fn main() {
    let args = HarnessArgs::parse();
    let pool = args.thread_pool();
    let reps = args.reps_or(5);
    let fig8_n: usize = if args.full { 1 << 24 } else { 1 << 22 };
    let fig9_n: usize = 1 << 21;
    let stream_n: usize = 1 << 20;

    eprintln!("perfsmoke: fig8 shape (n=2^{})...", fig8_n.trailing_zeros());
    let (_, fig8_fresh, fig8_pooled) = select_shape("fig8", fig8_n, pool, reps);
    eprintln!("perfsmoke: fig9 shape (n=2^{})...", fig9_n.trailing_zeros());
    let (_, fig9_fresh, fig9_pooled) = select_shape("fig9", fig9_n, pool, reps);
    eprintln!(
        "perfsmoke: streaming shape (n=2^{})...",
        stream_n.trailing_zeros()
    );
    let (stream_off, stream_on) = streaming_shape(stream_n, pool, reps);

    // One extra pooled query under an ObsSession, outside every clocked
    // and allocation-counted leg, so the bench artifact carries a
    // metrics snapshot without perturbing the regression numbers.
    eprintln!("perfsmoke: metrics snapshot query...");
    let metrics_json = {
        let spec = WorkloadSpec::uniform(fig9_n, 0xf188a5e);
        let w = spec.instantiate::<f32>(0);
        let mut device = Device::new(v100(), pool);
        device.enable_buffer_pool();
        let session = ObsSession::start();
        let _ = sample_select_on_device(
            &mut device,
            &w.data,
            w.rank,
            &SampleSelectConfig::default().with_seed(500),
        )
        .expect("metrics query");
        let report = session.finish();
        // Indent the snapshot so it nests cleanly in the artifact.
        report.snapshot.to_json().trim_end().replace('\n', "\n  ")
    };

    let speedup8 = fig8_fresh.wall_mean_s / fig8_pooled.wall_mean_s;
    let speedup9 = fig9_fresh.wall_mean_s / fig9_pooled.wall_mean_s;
    let stream_speedup = stream_off.wall_mean_s / stream_on.wall_mean_s;
    let alloc_ratio8 = fig8_fresh.allocs as f64 / fig8_pooled.allocs.max(1) as f64;

    let json = format!(
        "{{\n  \"schema\": \"perfsmoke-v1\",\n  \"reps\": {reps},\n  \"threads\": {},\n  \
         \"fig8\": {{\"n\": {fig8_n}, \"fresh\": {}, \"pooled\": {}, \"wall_speedup\": {speedup8:.3}, \"alloc_ratio\": {alloc_ratio8:.1}}},\n  \
         \"fig9\": {{\"n\": {fig9_n}, \"fresh\": {}, \"pooled\": {}, \"wall_speedup\": {speedup9:.3}}},\n  \
         \"streaming\": {{\"n\": {stream_n}, \"prefetch_off\": {}, \"prefetch_on\": {}, \"wall_speedup\": {stream_speedup:.3}}},\n  \
         \"metrics\": {metrics_json}\n}}\n",
        pool.num_threads(),
        leg_json(&fig8_fresh),
        leg_json(&fig8_pooled),
        leg_json(&fig9_fresh),
        leg_json(&fig9_pooled),
        leg_json(&stream_off),
        leg_json(&stream_on),
    );
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("{json}");
    eprintln!(
        "fig8 wall speedup {speedup8:.2}x, fig9 {speedup9:.2}x, streaming prefetch {stream_speedup:.2}x, \
         fig8 alloc reduction {alloc_ratio8:.0}x"
    );
}
