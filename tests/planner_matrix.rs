//! CI planner-conformance matrix: the adaptive planner against every
//! fixed backend, over adversarial data shapes and element types.
//!
//! Grid: {uniform, duplicate-heavy, sorted, reverse-sorted,
//! low-entropy-key, large-k, and four dominant-value shapes} x {u32,
//! u64, f32}. The dominant shapes put 50 % or 70 % of the elements on
//! one value, the rest spread over 2^20 integers (`dominant-50`,
//! `dominant-70`) or over 8 values (`dominant-50-few`,
//! `dominant-70-few`), split below and above it with a gap on each
//! side; they run at ranks n/10, n/2 and 9n/10, inside and outside the
//! dominant value. For every cell the test runs each fixed backend
//! (SampleSelect and RadixSelect, the planner's candidates, and
//! QuickSelect, the paper's comparator) and `--algo auto` on fresh
//! simulated devices and asserts:
//!
//! 1. **bit-identity** — auto's answer has exactly the bit pattern of
//!    every fixed backend (they must all agree);
//! 2. **never slowest** — auto's own simulated time, certify-first
//!    count included, is below the slowest fixed backend's (unless all
//!    tie);
//! 3. **bounded regret** — auto's own simulated time is within 1.25x
//!    of the best fixed backend's.
//!
//! `PLANNER_MATRIX_DIST` / `PLANNER_MATRIX_TYPE` pin one cell for the
//! CI matrix; `PLANNER_MATRIX_SEED` overrides the data seed. With
//! nothing set the whole grid runs. Every cell appends one JSON line to
//! `target/planner_matrix_report.jsonl` (override the path with
//! `PLANNER_MATRIX_REPORT`) so CI can upload the sweep on failure.

use std::io::Write as _;

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::Device;
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::SelectElement;
use gpu_selection::sampleselect::planner::{run_planned, PlannedBackend, CERTIFY_FIRST};
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::{
    auto_select_on_device, plan_rank_query, quick_select_on_device, SampleSelectConfig,
    SelectWorkspace,
};

const ALL_DISTS: [&str; 10] = [
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
const ALL_TYPES: [&str; 3] = ["u32", "u64", "f32"];

/// The planner may pick a backend up to this factor slower than the
/// best fixed backend — the acceptance bound of the issue.
const MAX_REGRET: f64 = 1.25;

const N: usize = 1 << 17;

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

fn gen_data<T: SelectElement>(dist: &str, n: usize, seed: u64) -> (Vec<T>, Vec<usize>) {
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
                    None => panic!("unknown PLANNER_MATRIX_DIST `{dist}`"),
                },
            };
            T::from_f64(v)
        })
        .collect();
    // Median rank for the classic shapes except the large-k cell, which
    // models a big top-k extraction (k = n/3 from the top); the
    // dominant shapes run inside and outside the dominant value.
    let ranks = match (dist, dominant) {
        ("large-k", _) => vec![n - n / 3],
        (_, Some(_)) => vec![n / 10, n / 2, n - n / 10],
        _ => vec![n / 2],
    };
    (data, ranks)
}

fn report_line(line: &str) {
    let path = std::env::var("PLANNER_MATRIX_REPORT")
        .unwrap_or_else(|_| "target/planner_matrix_report.jsonl".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "{line}");
    }
}

fn run_cell<T: SelectElement>(dist: &str, ty: &str, seed: u64) {
    let (data, ranks) = gen_data::<T>(dist, N, seed);
    for rank in ranks {
        run_rank(&data, rank, &format!("{dist}/{ty}"), seed);
    }
}

fn run_rank<T: SelectElement>(data: &[T], rank: usize, cell: &str, seed: u64) {
    let cfg = SampleSelectConfig::default();
    let arch = v100();
    let pool = ThreadPool::new(2);
    let cell = format!("{cell} @ {rank}");

    let decision = plan_rank_query(&arch, data, rank, &cfg);

    // Each fixed backend on its own device: simulated time + bit answer.
    let mut fixed: Vec<(&str, f64, u64)> = Vec::new();
    for backend in PlannedBackend::RANK_CANDIDATES {
        let mut device = Device::new(arch.clone(), &pool);
        let mut ws = SelectWorkspace::new();
        let res = run_planned(&mut device, data, rank, &cfg, &mut ws, backend)
            .unwrap_or_else(|e| panic!("cell {cell}: fixed {} errored: {e}", backend.name()));
        let time = res.report.total_time.as_us();
        fixed.push((backend.name(), time, res.value.to_bits_u64()));
    }
    let mut device = Device::new(arch.clone(), &pool);
    let res = quick_select_on_device(&mut device, data, rank, &cfg)
        .unwrap_or_else(|e| panic!("cell {cell}: fixed quickselect errored: {e}"));
    let time = res.report.total_time.as_us();
    fixed.push(("quickselect", time, res.value.to_bits_u64()));

    let mut device = Device::new(arch.clone(), &pool);
    let (live, auto_res) = auto_select_on_device(&mut device, data, rank, &cfg)
        .unwrap_or_else(|e| panic!("cell {cell}: auto errored: {e}"));
    assert_eq!(
        live, decision,
        "cell {cell}: planning must be deterministic"
    );
    let certified = auto_res.report.algorithm == CERTIFY_FIRST;
    if !certified {
        assert_eq!(auto_res.report.algorithm, decision.backend.name());
    }
    assert!(
        !certified || decision.candidates.iter().any(Option::is_some),
        "cell {cell}: a certify-first answer needs candidates"
    );

    // 1. Bit-identity: auto equals every fixed backend, and every exact
    // backend agrees with every other (same multiset, same rank, total
    // order on sort keys).
    let auto_bits = auto_res.value.to_bits_u64();
    for &(name, _, bits) in &fixed {
        assert_eq!(
            auto_bits, bits,
            "cell {cell}: auto ({}) and fixed {name} disagree bit-for-bit",
            auto_res.report.algorithm
        );
    }

    let auto_time = auto_res.report.total_time.as_us();
    let best = fixed
        .iter()
        .map(|&(_, t, _)| t)
        .fold(f64::INFINITY, f64::min);
    let worst = fixed.iter().map(|&(_, t, _)| t).fold(0.0, f64::max);

    let times: Vec<String> = fixed
        .iter()
        .map(|&(name, t, _)| format!("\"{name}\": {t:.3}"))
        .collect();
    report_line(&format!(
        "{{\"cell\": \"{cell}\", \"n\": {N}, \"rank\": {rank}, \"seed\": {seed}, \
         \"chosen\": \"{}\", \"auto\": \"{}\", \"auto_us\": {auto_time:.3}, {}}}",
        decision.backend.name(),
        auto_res.report.algorithm,
        times.join(", ")
    ));

    // 2. Never the slowest (ties excepted).
    if worst > best * 1.001 {
        assert!(
            auto_time < worst,
            "cell {cell}: auto ({}) took {auto_time:.1}us, as slow as the slowest backend \
             (best {best:.1}us, worst {worst:.1}us): {fixed:?}",
            auto_res.report.algorithm
        );
    }

    // 3. Bounded regret vs the best fixed backend.
    assert!(
        auto_time <= best * MAX_REGRET,
        "cell {cell}: auto ({}) took {auto_time:.1}us, more than {MAX_REGRET}x the best \
         fixed backend ({best:.1}us): {fixed:?}",
        auto_res.report.algorithm
    );
}

#[test]
fn planner_matrix_never_slowest_and_bounded_regret() {
    let dist_env = std::env::var("PLANNER_MATRIX_DIST").ok();
    let type_env = std::env::var("PLANNER_MATRIX_TYPE").ok();
    let seed: u64 = std::env::var("PLANNER_MATRIX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x9a71);

    let dists: Vec<&str> = match dist_env.as_deref() {
        Some(d) => vec![ALL_DISTS
            .iter()
            .copied()
            .find(|&x| x == d)
            .unwrap_or_else(|| panic!("unknown PLANNER_MATRIX_DIST `{d}`"))],
        None => ALL_DISTS.to_vec(),
    };
    let types: Vec<&str> = match type_env.as_deref() {
        Some(t) => vec![ALL_TYPES
            .iter()
            .copied()
            .find(|&x| x == t)
            .unwrap_or_else(|| panic!("unknown PLANNER_MATRIX_TYPE `{t}`"))],
        None => ALL_TYPES.to_vec(),
    };

    for dist in &dists {
        for ty in &types {
            match *ty {
                "u32" => run_cell::<u32>(dist, ty, seed),
                "u64" => run_cell::<u64>(dist, ty, seed),
                "f32" => run_cell::<f32>(dist, ty, seed),
                other => unreachable!("type {other}"),
            }
        }
    }
}
