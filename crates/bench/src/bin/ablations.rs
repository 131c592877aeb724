//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Sample size (oversampling)** vs splitter imbalance and
//!    approximate-selection error — the §II-B trade-off ("we can use the
//!    sample size s to control the imbalance between bucket sizes").
//! 2. **Base-case size** — §IV-H(f) claims the impact is negligible;
//!    verify.
//! 3. **Oracle width**: the paper fixes one byte (≤256 buckets); this
//!    workspace's 2-byte-oracle extension enables 512/1024-bucket
//!    *exact* selection — measure whether the deeper bucketing pays for
//!    the doubled oracle traffic.
//! 4. **Equality buckets**: early-termination statistics across
//!    duplicate densities.
//!
//! ```text
//! cargo run --release --bin ablations [--csv] [--reps N]
//! ```

use gpu_sim::arch::v100;
use gpu_sim::Device;
use hpc_par::ThreadPool;
use sampleselect::{approx_select_on_device, sample_select_on_device, SampleSelectConfig};
use select_bench::{fmt_throughput, measure, HarnessArgs, Stats, Table};
use select_datagen::WorkloadSpec;

const N: usize = 1 << 22;

fn oversampling_ablation(pool: &ThreadPool, reps: usize, csv: bool) {
    let mut t = Table::new(vec![
        "oversampling",
        "sample-size",
        "max/mean bucket",
        "approx-rel-err(%)",
        "throughput(el/s)",
    ]);
    let arch = v100();
    let spec = WorkloadSpec::uniform(N, 0xab11);
    for oversampling in [1usize, 2, 4, 8, 16, 32] {
        let cfg = SampleSelectConfig::tuned_for(&arch).with_oversampling(oversampling);
        let mut imbalances = Vec::new();
        let mut errors = Vec::new();
        let stats = measure(reps, |rep| {
            let w = spec.instantiate::<f32>(rep);
            let cfg = cfg.clone().with_seed(50 + rep);
            let mut device = Device::new(arch.clone(), pool);
            // measure bucket imbalance through one count pass
            let mut rng = sampleselect::rng::SplitMix64::new(cfg.seed);
            let tree = sampleselect::splitter::sample_kernel(
                &mut device,
                &w.data,
                &cfg,
                &mut rng,
                gpu_sim::LaunchOrigin::Host,
            )
            .unwrap();
            let count = sampleselect::count::count_kernel(
                &mut device,
                &w.data,
                &tree,
                &cfg,
                false,
                gpu_sim::LaunchOrigin::Host,
            );
            let mean = N as f64 / cfg.num_buckets as f64;
            let max = *count.counts.iter().max().unwrap() as f64;
            imbalances.push(max / mean);
            device.reset();
            let approx = approx_select_on_device(&mut device, &w.data, w.rank, &cfg).unwrap();
            errors.push(approx.relative_error * 100.0);
            approx.report.throughput()
        });
        let imb = Stats::from_samples(&imbalances);
        let err = Stats::from_samples(&errors);
        t.row(vec![
            oversampling.to_string(),
            (oversampling * 256).to_string(),
            format!("{:.2}", imb.mean),
            format!("{:.4}", err.mean),
            fmt_throughput(stats.mean),
        ]);
    }
    println!("Ablation 1: oversampling factor (SS II-B: sample size controls imbalance)\n");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

fn base_case_ablation(pool: &ThreadPool, reps: usize, csv: bool) {
    let mut t = Table::new(vec!["base-case", "levels", "throughput(el/s)"]);
    let arch = v100();
    let spec = WorkloadSpec::uniform(N, 0xab12);
    for base in [1024usize, 4096, 16384, 65536] {
        let mut levels = 0;
        let stats = measure(reps, |rep| {
            let w = spec.instantiate::<f32>(rep);
            let cfg = SampleSelectConfig::tuned_for(&arch)
                .with_base_case(base)
                .with_seed(60 + rep);
            let mut device = Device::new(arch.clone(), pool);
            let r = sample_select_on_device(&mut device, &w.data, w.rank, &cfg).unwrap();
            levels = r.report.levels;
            r.report.throughput()
        });
        t.row(vec![
            base.to_string(),
            levels.to_string(),
            fmt_throughput(stats.mean),
        ]);
    }
    println!("Ablation 2: base-case size (SS IV-H(f): impact should be negligible)\n");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

fn oracle_width_ablation(pool: &ThreadPool, reps: usize, csv: bool) {
    let mut t = Table::new(vec![
        "buckets",
        "oracle-bytes",
        "levels",
        "throughput(el/s)",
    ]);
    let arch = v100();
    let spec = WorkloadSpec::uniform(N, 0xab13);
    for buckets in [64usize, 256, 512, 1024] {
        let mut levels = 0;
        let stats = measure(reps, |rep| {
            let w = spec.instantiate::<f32>(rep);
            let cfg = SampleSelectConfig::tuned_for(&arch)
                .with_buckets(buckets)
                .with_seed(70 + rep);
            let mut device = Device::new(arch.clone(), pool);
            let r = sample_select_on_device(&mut device, &w.data, w.rank, &cfg).unwrap();
            levels = r.report.levels;
            r.report.throughput()
        });
        let cfg = SampleSelectConfig::default().with_buckets(buckets);
        t.row(vec![
            buckets.to_string(),
            cfg.oracle_bytes().to_string(),
            levels.to_string(),
            fmt_throughput(stats.mean),
        ]);
    }
    println!("Ablation 3: exact selection beyond the paper's one-byte oracle limit");
    println!("(2-byte oracles above 256 buckets; the paper caps exact selection at 256)\n");
    print!("{}", if csv { t.render_csv() } else { t.render() });
    println!();
}

fn equality_bucket_ablation(pool: &ThreadPool, reps: usize, csv: bool) {
    let mut t = Table::new(vec![
        "distinct",
        "early-terminated",
        "levels",
        "throughput(el/s)",
    ]);
    let arch = v100();
    for d in [1usize, 16, 1024, N] {
        let spec = WorkloadSpec::with_distinct(N, d, 0xab14);
        let mut early = 0usize;
        let mut levels = 0;
        let stats = measure(reps, |rep| {
            let w = spec.instantiate::<f32>(rep);
            let cfg = SampleSelectConfig::tuned_for(&arch).with_seed(80 + rep);
            let mut device = Device::new(arch.clone(), pool);
            let r = sample_select_on_device(&mut device, &w.data, w.rank, &cfg).unwrap();
            if r.report.terminated_early {
                early += 1;
            }
            levels = levels.max(r.report.levels);
            r.report.throughput()
        });
        t.row(vec![
            d.to_string(),
            format!("{early}/{reps}"),
            levels.to_string(),
            fmt_throughput(stats.mean),
        ]);
    }
    println!("Ablation 4: equality-bucket early termination (SS IV-C) vs duplicate density\n");
    print!("{}", if csv { t.render_csv() } else { t.render() });
}

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.reps_or(3);
    let pool = args.thread_pool();
    oversampling_ablation(pool, reps, args.csv);
    base_case_ablation(pool, reps, args.csv);
    oracle_width_ablation(pool, reps, args.csv);
    equality_bucket_ablation(pool, reps, args.csv);
}
