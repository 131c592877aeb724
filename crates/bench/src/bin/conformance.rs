//! Differential kernel-conformance runner: the CI face of the SIMT
//! sanitizer.
//!
//! Executes every kernel family under the vectorized fast path (device
//! sanitizer armed) and the thread-level `BlockExec` reference under
//! deterministic and seed-shuffled warp schedules, checking bit-identical
//! outputs and zero findings; runs the deliberately-racy mutants to prove
//! each detector class fires; and smoke-checks that arming the sanitizer
//! adds zero simulated time to the fig8/fig9 bench paths.
//!
//! ```text
//! cargo run --release --bin conformance [--csv] [--json PATH]
//! ```
//!
//! Exits nonzero on any violation. `--json PATH` (default
//! `target/sanitizer-report.json`) writes every collected
//! `SanitizerReport` as a JSON artifact for CI upload.

use gpu_sim::arch::v100;
use gpu_sim::sanitizer::{reports_to_json, SanitizerConfig, SanitizerKind, SanitizerReport};
use gpu_sim::{Device, LaunchOrigin, WarpSchedule};
use hpc_par::ThreadPool;
use sampleselect::approx::approx_select_on_device;
use sampleselect::bitonic::{bitonic_sort, bitonic_sort_on_block};
use sampleselect::count::count_kernel;
use sampleselect::filter::{filter_buckets, filter_kernel};
use sampleselect::recursion::segmented_launch;
use sampleselect::reduce::reduce_kernel;
use sampleselect::rng::SplitMix64;
use sampleselect::simt_ref::{self, mutants};
use sampleselect::splitter::sample_kernel;
use sampleselect::{
    bipartition_on_device, sample_select_on_device, KernelScratch, SampleSelectConfig,
};
use select_bench::Table;

fn schedules() -> [(&'static str, WarpSchedule); 3] {
    [
        ("sequential", WarpSchedule::Sequential),
        ("shuffled:5eed", WarpSchedule::Shuffled { seed: 0x5eed }),
        (
            "shuffled:1234517",
            WarpSchedule::Shuffled { seed: 1_234_517 },
        ),
    ]
}

fn gen_u32(n: usize, seed: u64, modulo: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_u64() % modulo as u64) as u32)
        .collect()
}

struct Outcome {
    matched: bool,
    report: Option<SanitizerReport>,
}

/// One family × schedule cell: reference output vs the precomputed
/// vectorized output.
fn check<F>(reference: F) -> Outcome
where
    F: FnOnce() -> (bool, Option<SanitizerReport>),
{
    let (matched, report) = reference();
    Outcome { matched, report }
}

fn main() {
    let mut csv = false;
    let mut json_path = "target/sanitizer-report.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--json" => {
                json_path = args.next().expect("--json needs a path");
            }
            other => panic!("unknown flag {other}; known: --csv --json PATH"),
        }
    }

    let pool = ThreadPool::global();
    let cfg = SampleSelectConfig::default().with_buckets(16);
    let full = SanitizerConfig::full();
    let mut failures = 0usize;
    let mut collected: Vec<(String, SanitizerReport)> = Vec::new();
    let mut table = Table::new(vec!["family", "schedule", "status", "findings"]);

    // ---- vectorized outputs, produced once on an armed device ----
    let data = gen_u32(3000, 0xc0f0, 50_000);
    let mut device = Device::new(v100(), pool);
    device.set_sanitizer(full);
    let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
    let tree = sample_kernel(&mut device, &data, &cfg, &mut rng, LaunchOrigin::Host)
        .expect("sampling cannot fail on non-degenerate data");
    let count = count_kernel(&mut device, &data, &tree, &cfg, true, LaunchOrigin::Host);
    let red = reduce_kernel(&mut device, &count, LaunchOrigin::Device);
    let oracles = count.oracles.as_ref().unwrap();
    let oracle: Vec<u32> = (0..data.len()).map(|i| oracles.get(i)).collect();
    let b = tree.num_buckets() as u32;
    let mid_bucket = red.bucket_for_rank(data.len() as u64 / 2) as u32;
    let topk_bucket = red.bucket_for_rank((data.len() - 400) as u64) as u32;
    let filtered = filter_kernel(
        &mut device,
        &data,
        &count,
        &red,
        mid_bucket..mid_bucket + 1,
        &cfg,
        LaunchOrigin::Device,
    );
    let fused = filter_kernel(
        &mut device,
        &data,
        &count,
        &red,
        topk_bucket..b,
        &cfg,
        LaunchOrigin::Device,
    );
    // A bucket set with gaps and a single bucket, filtered as the two
    // segments of one segmented level launch.
    let mut set = vec![0, mid_bucket, b - 1];
    set.dedup();
    let (origin, scratch) = (LaunchOrigin::Device, KernelScratch::new());
    let (set_filtered, one_filtered) = segmented_launch(&mut device, 2, 0, |d| {
        let one = [mid_bucket];
        let set = filter_buckets(d, &data, &count, &red, &set, &cfg, origin, &scratch);
        let one = filter_buckets(d, &data, &count, &red, &one, &cfg, origin, &scratch);
        (set, one)
    });
    let pivot = 25_000u32;
    let (bipart, smaller, equal) =
        bipartition_on_device(&mut device, &data, pivot, &cfg, LaunchOrigin::Host);
    let mut sorted_small = gen_u32(97, 0xb170, 1 << 20);
    let bitonic_input = sorted_small.clone();
    bitonic_sort(&mut sorted_small);
    let partials_u32: Vec<u32> = count.partials.iter().map(|&p| p as u32).collect();
    if !device.sanitizer_clean() {
        eprintln!(
            "vectorized pipeline reported findings:\n{}",
            device.sanitizer_json()
        );
        failures += 1;
    }
    for (name, report) in device.sanitizer_findings() {
        collected.push((format!("vectorized:{name}"), report.clone()));
    }

    // ---- family × schedule matrix ----
    for (sched_name, schedule) in schedules() {
        let families: Vec<(&str, Outcome)> = vec![
            (
                "sample/bitonic",
                check(|| {
                    let (got, r) = bitonic_sort_on_block(&bitonic_input, schedule, Some(full));
                    (got == sorted_small, r)
                }),
            ),
            (
                "count/oracle",
                check(|| {
                    let (counts, r) =
                        simt_ref::block_histogram(&oracle, b as usize, schedule, Some(full));
                    (counts == count.counts, r)
                }),
            ),
            (
                "reduce/scan",
                check(|| {
                    let (scan, r) =
                        simt_ref::block_exclusive_scan(&partials_u32, schedule, Some(full));
                    let scan64: Vec<u64> = scan.iter().map(|&x| x as u64).collect();
                    (scan64 == red.offsets, r)
                }),
            ),
            (
                "filter",
                check(|| {
                    let (want, r) = simt_ref::block_bucket_concat(
                        &data,
                        &oracle,
                        mid_bucket,
                        mid_bucket + 1,
                        schedule,
                        Some(full),
                    );
                    (want == filtered, r)
                }),
            ),
            (
                "filter/segmented-set",
                check(|| {
                    // Each bucket gathered block by block, in set order;
                    // the first dirty report, or the last.
                    let (mut want, mut report) = (Vec::new(), None);
                    for &k in &set {
                        let sanitize = Some(full);
                        let (part, r) = simt_ref::block_bucket_concat(
                            &data,
                            &oracle,
                            k,
                            k + 1,
                            schedule,
                            sanitize,
                        );
                        want.extend(part);
                        if report.as_ref().is_none_or(SanitizerReport::is_clean) {
                            report = r;
                        }
                    }
                    (want == set_filtered && one_filtered == filtered, report)
                }),
            ),
            (
                "bipartition",
                check(|| {
                    let (want, s, e, r) =
                        simt_ref::block_bipartition(&data, pivot, schedule, Some(full));
                    (want == bipart && (s, e) == (smaller, equal), r)
                }),
            ),
            (
                "fused-topk",
                check(|| {
                    let (want, r) = simt_ref::block_bucket_concat(
                        &data,
                        &oracle,
                        topk_bucket,
                        b,
                        schedule,
                        Some(full),
                    );
                    (want == fused, r)
                }),
            ),
        ];
        for (family, outcome) in families {
            let report = outcome.report.expect("sanitizer was armed");
            let clean = report.is_clean();
            let ok = outcome.matched && clean;
            if !ok {
                failures += 1;
            }
            let status = match (outcome.matched, clean) {
                (true, true) => "ok",
                (false, _) => "MISMATCH",
                (_, false) => "DIRTY",
            };
            table.row(vec![
                family.to_string(),
                sched_name.to_string(),
                status.to_string(),
                report.findings.len().to_string(),
            ]);
            collected.push((format!("{family}@{sched_name}"), report));
        }
    }

    // ---- mutants: each detector class must fire ----
    let mutant_runs: Vec<(&str, SanitizerKind, SanitizerReport)> = vec![
        (
            "mutant:write-write",
            SanitizerKind::WriteWriteRace,
            mutants::write_write_race(WarpSchedule::Sequential, full),
        ),
        (
            "mutant:read-write",
            SanitizerKind::ReadWriteRace,
            mutants::read_write_race(WarpSchedule::Sequential, full),
        ),
        (
            "mutant:barrier-divergence",
            SanitizerKind::BarrierDivergence,
            mutants::barrier_divergence(WarpSchedule::Sequential, full),
        ),
        (
            "mutant:uninit-read",
            SanitizerKind::UninitRead,
            mutants::uninit_read(WarpSchedule::Sequential, full),
        ),
        (
            "mutant:out-of-bounds",
            SanitizerKind::OutOfBounds,
            mutants::oob_access(WarpSchedule::Sequential, Some(full))
                .expect("armed OOB mutant reports, not errors"),
        ),
        (
            "mutant:mixed-atomic",
            SanitizerKind::MixedAtomic,
            mutants::mixed_atomic(WarpSchedule::Sequential, full),
        ),
    ];
    for (name, kind, report) in mutant_runs {
        let fired = report.count_of(kind) > 0;
        if !fired {
            failures += 1;
        }
        table.row(vec![
            name.to_string(),
            "sequential".to_string(),
            if fired { "fired" } else { "SILENT" }.to_string(),
            report.findings.len().to_string(),
        ]);
        collected.push((name.to_string(), report));
    }

    // ---- zero-overhead smoke on the fig8/fig9 bench paths ----
    let bench_data = gen_u32(50_000, 0x0f8f9, 1 << 20);
    let rank = 12_345usize;
    let bench_cfg = SampleSelectConfig::default();
    let overhead_paths: Vec<(&str, f64, f64)> = vec![
        (
            "fig8:sampleselect",
            {
                let mut plain = Device::new(v100(), pool);
                sample_select_on_device(&mut plain, &bench_data, rank, &bench_cfg).unwrap();
                plain.total_time().as_ns()
            },
            {
                let mut armed = Device::new(v100(), pool);
                armed.set_sanitizer(full);
                sample_select_on_device(&mut armed, &bench_data, rank, &bench_cfg).unwrap();
                armed.total_time().as_ns()
            },
        ),
        (
            "fig9:approx-count",
            {
                let mut plain = Device::new(v100(), pool);
                approx_select_on_device(&mut plain, &bench_data, rank, &bench_cfg).unwrap();
                plain.total_time().as_ns()
            },
            {
                let mut armed = Device::new(v100(), pool);
                armed.set_sanitizer(full);
                approx_select_on_device(&mut armed, &bench_data, rank, &bench_cfg).unwrap();
                armed.total_time().as_ns()
            },
        ),
    ];
    for (path, plain_ns, armed_ns) in overhead_paths {
        let zero = plain_ns == armed_ns;
        if !zero {
            failures += 1;
        }
        table.row(vec![
            path.to_string(),
            "overhead".to_string(),
            if zero { "zero" } else { "NONZERO" }.to_string(),
            format!("{:+.1}ns", armed_ns - plain_ns),
        ]);
    }

    if csv {
        print!("{}", table.render_csv());
    } else {
        print!("{}", table.render());
    }

    if let Some(parent) = std::path::Path::new(&json_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&json_path, reports_to_json(&collected))
        .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
    println!("sanitizer reports written to {json_path}");

    if failures > 0 {
        eprintln!("conformance FAILED: {failures} violation(s)");
        std::process::exit(1);
    }
    println!("conformance OK: every family bit-identical, every detector fired");
}
