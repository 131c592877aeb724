//! `plannersweep` — the planner-vs-fixed-backend regret sweep.
//!
//! Runs the planner conformance grid ({uniform, duplicate-heavy,
//! sorted, reverse-sorted, low-entropy-key, large-k, and the four
//! dominant-value shapes of `tests/planner_matrix.rs` at ranks n/10,
//! n/2 and 9n/10} x {u32, u64, f32}) and, per cell, measures the
//! simulated time of each fixed backend (SampleSelect and RadixSelect,
//! the planner's candidates, and QuickSelect, the paper's comparator)
//! plus the `--algo auto` run on fresh devices, certify-first count
//! included. Every cell also cross-checks that the auto answer is
//! bit-identical to every fixed backend's.
//!
//! Writes `BENCH_planner.json` (schema `plannersweep-v1`) for
//! `scripts/check_perf.py --planner`, which fails CI when the planner's
//! pick regresses more than 15% against the best fixed backend in any
//! cell.
//!
//! ```text
//! cargo run --release --bin plannersweep [-- --full --threads N --csv]
//! ```

use gpu_sim::arch::v100;
use gpu_sim::Device;
use hpc_par::ThreadPool;
use sampleselect::element::SelectElement;
use sampleselect::planner::{run_planned, PlannedBackend};
use sampleselect::rng::SplitMix64;
use sampleselect::{
    auto_select_on_device, quick_select_on_device, SampleSelectConfig, SelectWorkspace,
};
use select_bench::{HarnessArgs, Table};

const DISTS: [&str; 10] = [
    "uniform",
    "duplicate-heavy",
    "sorted",
    "reverse-sorted",
    "low-entropy-key",
    "large-k",
    "dominant-50",
    "dominant-70",
    "dominant-50-few",
    "dominant-70-few",
];

struct Cell {
    dist: String,
    ty: &'static str,
    chosen: &'static str,
    auto_us: f64,
    fixed_us: Vec<(&'static str, f64)>,
}

/// The value most elements of a dominant shape take.
const DOMINANT: f64 = (1u64 << 20) as f64;

/// The rest of a dominant shape: `spread` values, half below the
/// dominant value and half above it, each side leaving a gap.
fn off_dominant(rng: &mut SplitMix64, spread: u64) -> f64 {
    let half = spread / 2;
    let step = (1u64 << 19) / half;
    let j = rng.next_u64() % spread;
    match j < half {
        true => (j * step) as f64,
        false => DOMINANT + ((j - half + 1) * step) as f64,
    }
}

/// The data of `dist` and its ranks, each with its cell label.
fn gen_data<T: SelectElement>(dist: &str, n: usize, seed: u64) -> (Vec<T>, Vec<(String, usize)>) {
    let mut rng = SplitMix64::new(seed);
    let dominant = match dist {
        "dominant-50" | "dominant-50-few" => Some(0.5),
        "dominant-70" | "dominant-70-few" => Some(0.7),
        _ => None,
    };
    let spread = if dist.ends_with("-few") { 8 } else { 1 << 20 };
    let data: Vec<T> = (0..n)
        .map(|i| {
            let v = match dist {
                "uniform" | "large-k" => rng.next_f64() * 1e9,
                "duplicate-heavy" => (rng.next_u64() % 16) as f64,
                "sorted" => i as f64,
                "reverse-sorted" => (n - i) as f64,
                "low-entropy-key" => (rng.next_u64() % 251) as f64,
                _ => match dominant {
                    Some(share) if rng.next_f64() < share => DOMINANT,
                    Some(_) => off_dominant(&mut rng, spread),
                    None => panic!("unknown distribution {dist}"),
                },
            };
            T::from_f64(v)
        })
        .collect();
    let ranks = match (dist, dominant) {
        ("large-k", _) => vec![(dist.to_string(), n - n / 3)],
        (_, Some(_)) => [("n/10", n / 10), ("n/2", n / 2), ("9n/10", n - n / 10)]
            .map(|(at, rank)| (format!("{dist}@{at}"), rank))
            .to_vec(),
        _ => vec![(dist.to_string(), n / 2)],
    };
    (data, ranks)
}

fn run_cells<T: SelectElement>(
    dist: &'static str,
    ty: &'static str,
    n: usize,
    seed: u64,
    pool: &ThreadPool,
) -> Vec<Cell> {
    let (data, ranks) = gen_data::<T>(dist, n, seed);
    let cfg = SampleSelectConfig::default();
    let arch = v100();

    let mut cells = Vec::new();
    for (dist, rank) in ranks {
        let mut fixed_us = Vec::new();
        let mut bits: Option<u64> = None;
        let mut record = |name: &'static str, value: T, us: f64| {
            let b = value.to_bits_u64();
            assert_eq!(*bits.get_or_insert(b), b, "{dist}/{ty}: backends disagree");
            fixed_us.push((name, us));
        };
        for backend in PlannedBackend::RANK_CANDIDATES {
            let mut device = Device::new(arch.clone(), pool);
            let mut ws = SelectWorkspace::new();
            let res = run_planned(&mut device, &data, rank, &cfg, &mut ws, backend)
                .unwrap_or_else(|e| panic!("{dist}/{ty}: fixed {} errored: {e}", backend.name()));
            record(backend.name(), res.value, res.report.total_time.as_us());
        }
        let mut device = Device::new(arch.clone(), pool);
        let res = quick_select_on_device(&mut device, &data, rank, &cfg)
            .unwrap_or_else(|e| panic!("{dist}/{ty}: fixed quickselect errored: {e}"));
        record("quickselect", res.value, res.report.total_time.as_us());

        let mut device = Device::new(arch.clone(), pool);
        let (_, auto) = auto_select_on_device(&mut device, &data, rank, &cfg)
            .unwrap_or_else(|e| panic!("{dist}/{ty}: auto errored: {e}"));
        assert_eq!(
            auto.value.to_bits_u64(),
            bits.unwrap(),
            "{dist}/{ty}: auto answer diverged from the fixed backends"
        );

        cells.push(Cell {
            dist,
            ty,
            // The planned backend, or `certify-first` when the count
            // proved the answer.
            chosen: auto.report.algorithm,
            auto_us: auto.report.total_time.as_us(),
            fixed_us,
        });
    }
    cells
}

fn main() {
    let args = HarnessArgs::parse();
    let pool = ThreadPool::new(args.threads.unwrap_or(4));
    let n: usize = if args.full { 1 << 20 } else { 1 << 17 };
    let seed = 0x9a71;

    let mut cells = Vec::new();
    for dist in DISTS {
        cells.extend(run_cells::<u32>(dist, "u32", n, seed, &pool));
        cells.extend(run_cells::<u64>(dist, "u64", n, seed, &pool));
        cells.extend(run_cells::<f32>(dist, "f32", n, seed, &pool));
    }

    let mut t = Table::new(vec![
        "dist",
        "type",
        "chosen",
        "auto_us",
        "sample_us",
        "quick_us",
        "radix_us",
        "regret",
    ]);
    let mut rows_json = Vec::new();
    for c in &cells {
        let best = c
            .fixed_us
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        let regret = c.auto_us / best;
        let fixed: Vec<String> = c
            .fixed_us
            .iter()
            .map(|&(name, t)| format!("\"{name}_us\": {t:.3}"))
            .collect();
        rows_json.push(format!(
            "{{\"dist\": \"{}\", \"type\": \"{}\", \"chosen\": \"{}\", \
             \"auto_us\": {:.3}, {}, \"best_us\": {best:.3}}}",
            c.dist,
            c.ty,
            c.chosen,
            c.auto_us,
            fixed.join(", ")
        ));
        let us = |name: &str| c.fixed_us.iter().find(|&&(b, _)| b == name).unwrap().1;
        t.row(vec![
            c.dist.clone(),
            c.ty.to_string(),
            c.chosen.to_string(),
            format!("{:.1}", c.auto_us),
            format!("{:.1}", us("sampleselect")),
            format!("{:.1}", us("quickselect")),
            format!("{:.1}", us("radixselect")),
            format!("{regret:.2}x"),
        ]);
    }

    let json = format!(
        "{{\n  \"schema\": \"plannersweep-v1\",\n  \"n\": {n},\n  \"seed\": {seed},\n  \
         \"cells\": [\n    {}\n  ]\n}}\n",
        rows_json.join(",\n    ")
    );
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");

    println!(
        "Planner regret sweep (Tesla V100, n = 2^{}, rank = n/2 except large-k and @)\n",
        n.trailing_zeros()
    );
    print!("{}", t.render());
    println!();
    println!("regret = auto sim-time / best fixed backend sim-time per cell.");
    println!("BENCH_planner.json written; gate with scripts/check_perf.py --planner.");
}
