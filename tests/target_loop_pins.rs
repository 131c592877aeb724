//! Exact simulated-cost pins for the fused top-k, multi-rank and
//! approximate selection drivers.
//!
//! Every case runs one query on a fresh simulated V100 and pins, as
//! literals: a digest of the answer bits (the top-k set sorted by bit
//! pattern behind its threshold, the selected values in query order, or
//! the approximate value's bits and achieved rank), the total simulated time, the launch-overhead share, the
//! level count, the early-exit flag and the per-kernel
//! `(name, launches, bytes moved)` sequence.
//!
//! The grid covers {f32, u32} x {shared, global} atomics x {with,
//! without} warp aggregation x {uniform, 16 distinct values, all equal,
//! low-entropy `i % 251`} inputs. Top-k runs with k in {1, n/3, n};
//! multi-rank selection runs with spread, duplicated, unsorted and
//! adjacent (one-bucket) rank sets. Deep cases at n = 300,000 add a
//! second sample level. Approximate selection runs at rank n/3 on
//! uniform input with {4, 256, 1024} buckets.
//!
//! Every case also runs under an observability session and must match
//! the unobserved run exactly; the span and gauge output itself is not
//! pinned. On a mismatch the test prints the full observed table in the
//! literal format below.

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::Device;
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::SelectElement;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::{
    approx_select_on_device, multi_select_on_device, top_k_largest_on_device, AtomicScope,
    ObsSession, SampleSelectConfig, SelectReport,
};

/// Input size of the grid cases.
const N: usize = 20_000;
/// Input size of the deep cases: two sample levels.
const N_DEEP: usize = 300_000;

/// One pinned case.
struct Pin {
    case: &'static str,
    answer: u64,
    total_ns: f64,
    launch_overhead_ns: f64,
    levels: u32,
    early: bool,
    kernels: &'static [(&'static str, u64, u64)],
}

/// What one run produced, in the shape of a [`Pin`].
#[derive(Debug, PartialEq)]
struct Observed {
    answer: u64,
    total_ns: f64,
    launch_overhead_ns: f64,
    levels: u32,
    early: bool,
    kernels: Vec<(String, u64, u64)>,
}

impl Observed {
    fn new(answer: u64, report: &SelectReport) -> Self {
        Self {
            answer,
            total_ns: report.total_time.as_ns(),
            launch_overhead_ns: report.launch_overhead.as_ns(),
            levels: report.levels,
            early: report.terminated_early,
            kernels: report
                .kernels
                .iter()
                .map(|k| {
                    (
                        k.name.clone(),
                        k.launches,
                        k.cost.global_read_bytes + k.cost.global_write_bytes,
                    )
                })
                .collect(),
        }
    }

    fn matches(&self, pin: &Pin) -> bool {
        self.answer == pin.answer
            && self.total_ns.to_bits() == pin.total_ns.to_bits()
            && self.launch_overhead_ns.to_bits() == pin.launch_overhead_ns.to_bits()
            && self.levels == pin.levels
            && self.early == pin.early
            && self.kernels.len() == pin.kernels.len()
            && self
                .kernels
                .iter()
                .zip(pin.kernels)
                .all(|((n, l, b), &(pn, pl, pb))| n == pn && *l == pl && *b == pb)
    }

    fn literal(&self, case: &str) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|(n, l, b)| format!("({n:?}, {l}, {b})"))
            .collect();
        format!(
            "    Pin {{ case: {case:?}, answer: {:#018x}, total_ns: {:?}, launch_overhead_ns: {:?}, \
             levels: {}, early: {}, kernels: &[{}] }},",
            self.answer,
            self.total_ns,
            self.launch_overhead_ns,
            self.levels,
            self.early,
            kernels.join(", "),
        )
    }
}

/// FNV-1a over a sequence of 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Element types of the grid, generated from raw random bits or from a
/// small integer (the duplicate-heavy inputs).
trait PinElement: SelectElement {
    fn from_random(bits: u64) -> Self;
    fn from_small(i: u32) -> Self;
}

impl PinElement for f32 {
    fn from_random(bits: u64) -> Self {
        ((bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    }
    fn from_small(i: u32) -> Self {
        i as f32 * 2.5 - 7.0
    }
}

impl PinElement for u32 {
    fn from_random(bits: u64) -> Self {
        bits as u32
    }
    fn from_small(i: u32) -> Self {
        i
    }
}

fn gen<T: PinElement>(input: &str, n: usize) -> Vec<T> {
    let mut rng = SplitMix64::new(0x1e7e_1100);
    (0..n)
        .map(|i| match input {
            "uniform" => T::from_random(rng.next_u64()),
            "dup16" => T::from_small(rng.next_below(16) as u32),
            "equal" => T::from_small(7),
            "lowent" => T::from_small(i as u32 % 251),
            _ => unreachable!("unknown input {input}"),
        })
        .collect()
}

/// What one case asks for.
#[derive(Clone, Copy)]
enum Query {
    TopK(usize),
    Ranks(&'static str),
    Approx(usize),
}

fn rank_set(name: &str, n: usize) -> Vec<usize> {
    match name {
        "spread" => vec![0, n / 4, n / 2, 3 * n / 4, n - 1],
        "dup" => vec![n / 3, n / 3, 7, 7],
        "unsorted" => vec![n - 2, 5, n / 2, n / 7, 100],
        "adjacent" => vec![n / 2, n / 2 + 1, n / 2 + 2, n / 2 + 5],
        _ => unreachable!("unknown rank set {name}"),
    }
}

/// Run one query on a fresh device, optionally under an observability
/// session.
fn run_once<T: SelectElement>(
    pool: &ThreadPool,
    data: &[T],
    query: Query,
    cfg: &SampleSelectConfig,
    observe: bool,
) -> Observed {
    let mut device = Device::new(v100(), pool);
    let session = observe.then(ObsSession::start);
    let observed = match query {
        Query::TopK(k) => {
            let res = top_k_largest_on_device(&mut device, data, k, cfg).expect("top-k failed");
            let mut bits: Vec<u64> = res.elements.iter().map(|x| x.to_bits_u64()).collect();
            bits.sort_unstable();
            let answer = digest(std::iter::once(res.threshold.to_bits_u64()).chain(bits));
            Observed::new(answer, &res.report)
        }
        Query::Ranks(name) => {
            let ranks = rank_set(name, data.len());
            let res = multi_select_on_device(&mut device, data, &ranks, cfg)
                .expect("multi-rank selection failed");
            let answer = digest(res.values.iter().map(|x| x.to_bits_u64()));
            Observed::new(answer, &res.report)
        }
        Query::Approx(rank) => {
            let res = approx_select_on_device(&mut device, data, rank, cfg)
                .expect("approximate selection failed");
            let answer = digest([res.value.to_bits_u64(), res.achieved_rank]);
            Observed::new(answer, &res.report)
        }
    };
    if let Some(session) = session {
        session.finish();
    }
    observed
}

fn observe_case<T: PinElement>(
    pool: &ThreadPool,
    input: &str,
    n: usize,
    query: Query,
    cfg: &SampleSelectConfig,
    case: &str,
) -> Observed {
    let data = gen::<T>(input, n);
    let plain = run_once(pool, &data, query, cfg, false);
    let observed = run_once(pool, &data, query, cfg, true);
    // Observability must not perturb a single simulated charge.
    assert_eq!(plain, observed, "{case}: observed run diverged");
    plain
}

fn queries(n: usize) -> Vec<(String, Query)> {
    let mut out: Vec<(String, Query)> = [1, n / 3, n]
        .into_iter()
        .map(|k| (format!("topk{k}"), Query::TopK(k)))
        .collect();
    for set in ["spread", "dup", "unsorted", "adjacent"] {
        out.push((format!("ranks-{set}"), Query::Ranks(set)));
    }
    out
}

/// Every case of the grid, in table order.
fn all_cases(pool: &ThreadPool) -> Vec<(String, Observed)> {
    let mut out = Vec::new();
    for ty in ["f32", "u32"] {
        for scope in [AtomicScope::Shared, AtomicScope::Global] {
            for agg in [false, true] {
                for input in ["uniform", "dup16", "equal", "lowent"] {
                    let cfg = SampleSelectConfig::default()
                        .with_atomic_scope(scope)
                        .with_warp_aggregation(agg);
                    for (name, query) in queries(N) {
                        let case = format!(
                            "{ty}/{}/{}/{input}/{name}",
                            match scope {
                                AtomicScope::Shared => "shared",
                                AtomicScope::Global => "global",
                            },
                            if agg { "agg" } else { "noagg" }
                        );
                        let obs = match ty {
                            "f32" => observe_case::<f32>(pool, input, N, query, &cfg, &case),
                            _ => observe_case::<u32>(pool, input, N, query, &cfg, &case),
                        };
                        out.push((case, obs));
                    }
                }
            }
        }
    }
    let base = SampleSelectConfig::default();
    for (name, query) in queries(N_DEEP) {
        let case = format!("f32/deep/uniform/{name}");
        let obs = observe_case::<f32>(pool, "uniform", N_DEEP, query, &base, &case);
        out.push((case, obs));
    }
    for (name, query) in queries(N_DEEP) {
        let case = format!("u32/deep/lowent/{name}");
        let obs = observe_case::<u32>(pool, "lowent", N_DEEP, query, &base, &case);
        out.push((case, obs));
    }
    for ty in ["f32", "u32"] {
        for (scope, scope_name) in [
            (AtomicScope::Shared, "shared"),
            (AtomicScope::Global, "global"),
        ] {
            for b in [4, 256, 1024] {
                let cfg = base.clone().with_atomic_scope(scope).with_buckets(b);
                let case = format!("{ty}/{scope_name}/b{b}/uniform/approx");
                let query = Query::Approx(N / 3);
                let obs = match ty {
                    "f32" => observe_case::<f32>(pool, "uniform", N, query, &cfg, &case),
                    _ => observe_case::<u32>(pool, "uniform", N, query, &cfg, &case),
                };
                out.push((case, obs));
            }
        }
    }
    out
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { case: "f32/shared/noagg/uniform/topk1", answer: 0x446ed9035a4bd559, total_ns: 26760.083935309973, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20356), ("base_sort", 1, 276)] },
    Pin { case: "f32/shared/noagg/uniform/topk6666", answer: 0xddb5ee99a4cbcbb8, total_ns: 28859.127938005393, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 53996), ("base_sort", 1, 572)] },
    Pin { case: "f32/shared/noagg/uniform/topk20000", answer: 0x22f5eff2ed11ecaa, total_ns: 30466.385822102427, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 840)] },
    Pin { case: "f32/shared/noagg/uniform/ranks-spread", answer: 0x1a4f2e2b37c625a7, total_ns: 53448.218935309975, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 5, 102976), ("base_sort", 5, 2576)] },
    Pin { case: "f32/shared/noagg/uniform/ranks-dup", answer: 0x327caeef18a3c289, total_ns: 33743.53293800539, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "f32/shared/noagg/uniform/ranks-unsorted", answer: 0xe3ee009dbe64dd2d, total_ns: 46336.20440700808, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 82024), ("base_sort", 4, 1704)] },
    Pin { case: "f32/shared/noagg/uniform/ranks-adjacent", answer: 0xcf309b704af95969, total_ns: 26791.70793800539, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20428), ("base_sort", 1, 348)] },
    Pin { case: "f32/shared/noagg/dup16/topk1", answer: 0x33b4cdfe05ef88bd, total_ns: 24920.517938005396, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "f32/shared/noagg/dup16/topk6666", answer: 0xfc69183b79bbac36, total_ns: 25466.997938005396, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "f32/shared/noagg/dup16/topk20000", answer: 0x43380eac157717bc, total_ns: 27034.24491913747, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "f32/shared/noagg/dup16/ranks-spread", answer: 0x22e502b595897ad6, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/dup16/ranks-dup", answer: 0x0cdcf834b4864ea5, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/dup16/ranks-unsorted", answer: 0x47a366854f3b4e41, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/dup16/ranks-adjacent", answer: 0x09ba56a05e768d25, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/equal/topk1", answer: 0xa14a55e873cdb2f5, total_ns: 27639.933153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/shared/noagg/equal/topk6666", answer: 0x77616d9e57821c4a, total_ns: 27639.933153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/shared/noagg/equal/topk20000", answer: 0x5608d36fc368443a, total_ns: 27639.933153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/shared/noagg/equal/ranks-spread", answer: 0x7da6c0f67e15b21a, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/equal/ranks-dup", answer: 0x87c7e860f8338545, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/equal/ranks-unsorted", answer: 0x7da6c0f67e15b21a, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/equal/ranks-adjacent", answer: 0x87c7e860f8338545, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/noagg/lowent/topk1", answer: 0x3c4a264f047091b5, total_ns: 26800.857938005392, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "f32/shared/noagg/lowent/topk6666", answer: 0x3b1a6febc3f70679, total_ns: 28214.986981132075, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "f32/shared/noagg/lowent/topk20000", answer: 0xd02a67a7827ce40c, total_ns: 30155.315822102428, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "f32/shared/noagg/lowent/ranks-spread", answer: 0x58c061f2ab160064, total_ns: 45986.23293800539, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "f32/shared/noagg/lowent/ranks-dup", answer: 0xf9e235275e221ec5, total_ns: 33199.48293800539, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "f32/shared/noagg/lowent/ranks-unsorted", answer: 0x72e91370ce59dacd, total_ns: 39592.85793800539, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "f32/shared/noagg/lowent/ranks-adjacent", answer: 0x1e04ebd1e8af9ea5, total_ns: 20407.482938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/uniform/topk1", answer: 0x446ed9035a4bd559, total_ns: 26730.743935309976, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20356), ("base_sort", 1, 276)] },
    Pin { case: "f32/shared/agg/uniform/topk6666", answer: 0xddb5ee99a4cbcbb8, total_ns: 28552.587938005392, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 53996), ("base_sort", 1, 572)] },
    Pin { case: "f32/shared/agg/uniform/topk20000", answer: 0x22f5eff2ed11ecaa, total_ns: 30437.045822102427, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 840)] },
    Pin { case: "f32/shared/agg/uniform/ranks-spread", answer: 0x1a4f2e2b37c625a7, total_ns: 53415.368935309976, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 5, 102976), ("base_sort", 5, 2576)] },
    Pin { case: "f32/shared/agg/uniform/ranks-dup", answer: 0x327caeef18a3c289, total_ns: 33712.212938005396, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "f32/shared/agg/uniform/ranks-unsorted", answer: 0xe3ee009dbe64dd2d, total_ns: 46304.569407008086, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 82024), ("base_sort", 4, 1704)] },
    Pin { case: "f32/shared/agg/uniform/ranks-adjacent", answer: 0xcf309b704af95969, total_ns: 26761.962938005392, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20428), ("base_sort", 1, 348)] },
    Pin { case: "f32/shared/agg/dup16/topk1", answer: 0x33b4cdfe05ef88bd, total_ns: 24780.837938005392, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "f32/shared/agg/dup16/topk6666", answer: 0xfc69183b79bbac36, total_ns: 25048.587938005392, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "f32/shared/agg/dup16/topk20000", answer: 0x43380eac157717bc, total_ns: 26925.929919137467, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "f32/shared/agg/dup16/ranks-spread", answer: 0x22e502b595897ad6, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/dup16/ranks-dup", answer: 0x0cdcf834b4864ea5, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/dup16/ranks-unsorted", answer: 0x47a366854f3b4e41, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/dup16/ranks-adjacent", answer: 0x09ba56a05e768d25, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/equal/topk1", answer: 0xa14a55e873cdb2f5, total_ns: 26768.733153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/shared/agg/equal/topk6666", answer: 0x77616d9e57821c4a, total_ns: 26768.733153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/shared/agg/equal/topk20000", answer: 0x5608d36fc368443a, total_ns: 26768.733153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/shared/agg/equal/ranks-spread", answer: 0x7da6c0f67e15b21a, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/equal/ranks-dup", answer: 0x87c7e860f8338545, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/equal/ranks-unsorted", answer: 0x7da6c0f67e15b21a, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/equal/ranks-adjacent", answer: 0x87c7e860f8338545, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/shared/agg/lowent/topk1", answer: 0x3c4a264f047091b5, total_ns: 26764.587938005392, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "f32/shared/agg/lowent/topk6666", answer: 0x3b1a6febc3f70679, total_ns: 28178.71698113208, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "f32/shared/agg/lowent/topk20000", answer: 0xd02a67a7827ce40c, total_ns: 30119.045822102427, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "f32/shared/agg/lowent/ranks-spread", answer: 0x58c061f2ab160064, total_ns: 45949.962938005396, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "f32/shared/agg/lowent/ranks-dup", answer: 0xf9e235275e221ec5, total_ns: 33163.212938005396, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "f32/shared/agg/lowent/ranks-unsorted", answer: 0x72e91370ce59dacd, total_ns: 39556.587938005396, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "f32/shared/agg/lowent/ranks-adjacent", answer: 0x1e04ebd1e8af9ea5, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/uniform/topk1", answer: 0x446ed9035a4bd559, total_ns: 51450.74393530997, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20356), ("base_sort", 1, 276)] },
    Pin { case: "f32/global/noagg/uniform/topk6666", answer: 0xddb5ee99a4cbcbb8, total_ns: 60569.89293800539, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 53996), ("base_sort", 1, 572)] },
    Pin { case: "f32/global/noagg/uniform/topk20000", answer: 0x22f5eff2ed11ecaa, total_ns: 77995.2129380054, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 840)] },
    Pin { case: "f32/global/noagg/uniform/ranks-spread", answer: 0x1a4f2e2b37c625a7, total_ns: 77702.52355795147, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 5, 102976), ("base_sort", 5, 2576)] },
    Pin { case: "f32/global/noagg/uniform/ranks-dup", answer: 0x327caeef18a3c289, total_ns: 58234.04636118598, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "f32/global/noagg/uniform/ranks-unsorted", answer: 0xe3ee009dbe64dd2d, total_ns: 70832.4614555256, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 82024), ("base_sort", 4, 1704)] },
    Pin { case: "f32/global/noagg/uniform/ranks-adjacent", answer: 0xcf309b704af95969, total_ns: 51453.65498652291, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20428), ("base_sort", 1, 348)] },
    Pin { case: "f32/global/noagg/dup16/topk1", answer: 0x33b4cdfe05ef88bd, total_ns: 49720.092938005386, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "f32/global/noagg/dup16/topk6666", answer: 0xfc69183b79bbac36, total_ns: 58030.81293800539, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "f32/global/noagg/dup16/topk20000", answer: 0x43380eac157717bc, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "f32/global/noagg/dup16/ranks-spread", answer: 0x22e502b595897ad6, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/dup16/ranks-dup", answer: 0x0cdcf834b4864ea5, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/dup16/ranks-unsorted", answer: 0x47a366854f3b4e41, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/dup16/ranks-adjacent", answer: 0x09ba56a05e768d25, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/equal/topk1", answer: 0xa14a55e873cdb2f5, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/global/noagg/equal/topk6666", answer: 0x77616d9e57821c4a, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/global/noagg/equal/topk20000", answer: 0x5608d36fc368443a, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/global/noagg/equal/ranks-spread", answer: 0x7da6c0f67e15b21a, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/equal/ranks-dup", answer: 0x87c7e860f8338545, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/equal/ranks-unsorted", answer: 0x7da6c0f67e15b21a, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/equal/ranks-adjacent", answer: 0x87c7e860f8338545, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/noagg/lowent/topk1", answer: 0x3c4a264f047091b5, total_ns: 51452.36118598383, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "f32/global/noagg/lowent/topk6666", answer: 0x3b1a6febc3f70679, total_ns: 60465.61293800539, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "f32/global/noagg/lowent/topk20000", answer: 0xd02a67a7827ce40c, total_ns: 77677.2129380054, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "f32/global/noagg/lowent/ranks-spread", answer: 0x58c061f2ab160064, total_ns: 70536.1293800539, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "f32/global/noagg/lowent/ranks-dup", answer: 0xf9e235275e221ec5, total_ns: 57813.83288409703, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "f32/global/noagg/lowent/ranks-unsorted", answer: 0x72e91370ce59dacd, total_ns: 64174.98113207547, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "f32/global/noagg/lowent/ranks-adjacent", answer: 0x1e04ebd1e8af9ea5, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/uniform/topk1", answer: 0x446ed9035a4bd559, total_ns: 49575.02393530997, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20356), ("base_sort", 1, 276)] },
    Pin { case: "f32/global/agg/uniform/topk6666", answer: 0xddb5ee99a4cbcbb8, total_ns: 51035.77326145552, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 53996), ("base_sort", 1, 572)] },
    Pin { case: "f32/global/agg/uniform/topk20000", answer: 0x22f5eff2ed11ecaa, total_ns: 53281.32582210242, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 840)] },
    Pin { case: "f32/global/agg/uniform/ranks-spread", answer: 0x1a4f2e2b37c625a7, total_ns: 75743.64355795148, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 5, 102976), ("base_sort", 5, 2576)] },
    Pin { case: "f32/global/agg/uniform/ranks-dup", answer: 0x327caeef18a3c289, total_ns: 56302.886361185985, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "f32/global/agg/uniform/ranks-unsorted", answer: 0xe3ee009dbe64dd2d, total_ns: 68901.3014555256, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 82024), ("base_sort", 4, 1704)] },
    Pin { case: "f32/global/agg/uniform/ranks-adjacent", answer: 0xcf309b704af95969, total_ns: 49577.93498652291, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20428), ("base_sort", 1, 348)] },
    Pin { case: "f32/global/agg/dup16/topk1", answer: 0x33b4cdfe05ef88bd, total_ns: 33940.812938005394, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "f32/global/agg/dup16/topk6666", answer: 0xfc69183b79bbac36, total_ns: 34663.88668463612, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "f32/global/agg/dup16/topk20000", answer: 0x43380eac157717bc, total_ns: 36786.68991913747, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "f32/global/agg/dup16/ranks-spread", answer: 0x22e502b595897ad6, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/dup16/ranks-dup", answer: 0x0cdcf834b4864ea5, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/dup16/ranks-unsorted", answer: 0x47a366854f3b4e41, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/dup16/ranks-adjacent", answer: 0x09ba56a05e768d25, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/equal/topk1", answer: 0xa14a55e873cdb2f5, total_ns: 25933.533153638815, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/global/agg/equal/topk6666", answer: 0x77616d9e57821c4a, total_ns: 25933.533153638815, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/global/agg/equal/topk20000", answer: 0x5608d36fc368443a, total_ns: 25933.533153638815, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "f32/global/agg/equal/ranks-spread", answer: 0x7da6c0f67e15b21a, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/equal/ranks-dup", answer: 0x87c7e860f8338545, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/equal/ranks-unsorted", answer: 0x7da6c0f67e15b21a, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/equal/ranks-adjacent", answer: 0x87c7e860f8338545, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/global/agg/lowent/topk1", answer: 0x3c4a264f047091b5, total_ns: 47384.12118598383, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "f32/global/agg/lowent/topk6666", answer: 0x3b1a6febc3f70679, total_ns: 48830.47698113207, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "f32/global/agg/lowent/topk20000", answer: 0xd02a67a7827ce40c, total_ns: 50770.805822102426, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "f32/global/agg/lowent/ranks-spread", answer: 0x58c061f2ab160064, total_ns: 66467.88938005391, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "f32/global/agg/lowent/ranks-dup", answer: 0xf9e235275e221ec5, total_ns: 53745.59288409703, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "f32/global/agg/lowent/ranks-unsorted", answer: 0x72e91370ce59dacd, total_ns: 60106.74113207547, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "f32/global/agg/lowent/ranks-adjacent", answer: 0x1e04ebd1e8af9ea5, total_ns: 41022.97293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/uniform/topk1", answer: 0xe2c7906c119dd631, total_ns: 26636.59770889488, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20272), ("base_sort", 1, 192)] },
    Pin { case: "u32/shared/noagg/uniform/topk6666", answer: 0x9d6d18853d8a74b4, total_ns: 28540.42293800539, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 54432), ("base_sort", 1, 388)] },
    Pin { case: "u32/shared/noagg/uniform/topk20000", answer: 0xe2600a4e975e34a2, total_ns: 30466.295822102427, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 564)] },
    Pin { case: "u32/shared/noagg/uniform/ranks-spread", answer: 0x8a27aeb0237ec3e1, total_ns: 53642.057708894885, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 5, 102832), ("base_sort", 5, 2432)] },
    Pin { case: "u32/shared/noagg/uniform/ranks-dup", answer: 0x47039c2b8245b579, total_ns: 34082.08293800539, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "u32/shared/noagg/uniform/ranks-unsorted", answer: 0x365bd3cac612f387, total_ns: 46222.42770889488, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 81688), ("base_sort", 4, 1368)] },
    Pin { case: "u32/shared/noagg/uniform/ranks-adjacent", answer: 0x10e428c1591bc92f, total_ns: 26762.47293800539, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20360), ("base_sort", 1, 280)] },
    Pin { case: "u32/shared/noagg/dup16/topk1", answer: 0x7830a97489bc6b05, total_ns: 24920.517938005396, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "u32/shared/noagg/dup16/topk6666", answer: 0x2fd67d3a41afd1ec, total_ns: 25466.997938005396, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "u32/shared/noagg/dup16/topk20000", answer: 0x9ead8c676ed1a44f, total_ns: 27034.24491913747, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "u32/shared/noagg/dup16/ranks-spread", answer: 0xbf9ea85d3ac4beea, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/dup16/ranks-dup", answer: 0xb30ce021d1cd4705, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/dup16/ranks-unsorted", answer: 0x86a954931d99dde0, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/dup16/ranks-adjacent", answer: 0x8224d3c7bb1c17a5, total_ns: 20479.527938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/equal/topk1", answer: 0xf816337c488dfa05, total_ns: 27639.933153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/shared/noagg/equal/topk6666", answer: 0xac934348b3bc29c2, total_ns: 27639.933153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/shared/noagg/equal/topk20000", answer: 0x55d8baeb306de962, total_ns: 27639.933153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/shared/noagg/equal/ranks-spread", answer: 0x911f8ceb6194f922, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/equal/ranks-dup", answer: 0xe065073a847488e5, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/equal/ranks-unsorted", answer: 0x911f8ceb6194f922, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/equal/ranks-adjacent", answer: 0xe065073a847488e5, total_ns: 21242.412938005393, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/noagg/lowent/topk1", answer: 0x293918c80849afe5, total_ns: 26800.857938005392, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "u32/shared/noagg/lowent/topk6666", answer: 0x800c9fef09e5f5f3, total_ns: 28214.986981132075, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "u32/shared/noagg/lowent/topk20000", answer: 0x08901e00ed008a15, total_ns: 30155.315822102428, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "u32/shared/noagg/lowent/ranks-spread", answer: 0x55e1669261bf3ae7, total_ns: 45986.23293800539, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "u32/shared/noagg/lowent/ranks-dup", answer: 0xd65abd69a3e76645, total_ns: 33199.48293800539, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "u32/shared/noagg/lowent/ranks-unsorted", answer: 0x4e5ab5f3700ba220, total_ns: 39592.85793800539, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "u32/shared/noagg/lowent/ranks-adjacent", answer: 0xf99bfdd09e94a665, total_ns: 20407.482938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/uniform/topk1", answer: 0xe2c7906c119dd631, total_ns: 26607.34770889488, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20272), ("base_sort", 1, 192)] },
    Pin { case: "u32/shared/agg/uniform/topk6666", answer: 0x9d6d18853d8a74b4, total_ns: 28237.212938005392, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 54432), ("base_sort", 1, 388)] },
    Pin { case: "u32/shared/agg/uniform/topk20000", answer: 0xe2600a4e975e34a2, total_ns: 30437.045822102427, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 564)] },
    Pin { case: "u32/shared/agg/uniform/ranks-spread", answer: 0x8a27aeb0237ec3e1, total_ns: 53609.972708894886, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 5, 102832), ("base_sort", 5, 2432)] },
    Pin { case: "u32/shared/agg/uniform/ranks-dup", answer: 0x47039c2b8245b579, total_ns: 34051.212938005396, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "u32/shared/agg/uniform/ranks-unsorted", answer: 0x365bd3cac612f387, total_ns: 46192.09770889488, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 81688), ("base_sort", 4, 1368)] },
    Pin { case: "u32/shared/agg/uniform/ranks-adjacent", answer: 0x10e428c1591bc92f, total_ns: 26733.087938005392, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20360), ("base_sort", 1, 280)] },
    Pin { case: "u32/shared/agg/dup16/topk1", answer: 0x7830a97489bc6b05, total_ns: 24780.837938005392, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "u32/shared/agg/dup16/topk6666", answer: 0x2fd67d3a41afd1ec, total_ns: 25048.587938005392, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "u32/shared/agg/dup16/topk20000", answer: 0x9ead8c676ed1a44f, total_ns: 26925.929919137467, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "u32/shared/agg/dup16/ranks-spread", answer: 0xbf9ea85d3ac4beea, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/dup16/ranks-dup", answer: 0xb30ce021d1cd4705, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/dup16/ranks-unsorted", answer: 0x86a954931d99dde0, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/dup16/ranks-adjacent", answer: 0x8224d3c7bb1c17a5, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/equal/topk1", answer: 0xf816337c488dfa05, total_ns: 26768.733153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/shared/agg/equal/topk6666", answer: 0xac934348b3bc29c2, total_ns: 26768.733153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/shared/agg/equal/topk20000", answer: 0x55d8baeb306de962, total_ns: 26768.733153638816, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/shared/agg/equal/ranks-spread", answer: 0x911f8ceb6194f922, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/equal/ranks-dup", answer: 0xe065073a847488e5, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/equal/ranks-unsorted", answer: 0x911f8ceb6194f922, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/equal/ranks-adjacent", answer: 0xe065073a847488e5, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/shared/agg/lowent/topk1", answer: 0x293918c80849afe5, total_ns: 26764.587938005392, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "u32/shared/agg/lowent/topk6666", answer: 0x800c9fef09e5f5f3, total_ns: 28178.71698113208, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "u32/shared/agg/lowent/topk20000", answer: 0x08901e00ed008a15, total_ns: 30119.045822102427, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "u32/shared/agg/lowent/ranks-spread", answer: 0x55e1669261bf3ae7, total_ns: 45949.962938005396, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "u32/shared/agg/lowent/ranks-dup", answer: 0xd65abd69a3e76645, total_ns: 33163.212938005396, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "u32/shared/agg/lowent/ranks-unsorted", answer: 0x4e5ab5f3700ba220, total_ns: 39556.587938005396, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "u32/shared/agg/lowent/ranks-adjacent", answer: 0xf99bfdd09e94a665, total_ns: 20371.212938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/uniform/topk1", answer: 0xe2c7906c119dd631, total_ns: 51327.34770889488, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20272), ("base_sort", 1, 192)] },
    Pin { case: "u32/global/noagg/uniform/topk6666", answer: 0x9d6d18853d8a74b4, total_ns: 60158.17293800539, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 54432), ("base_sort", 1, 388)] },
    Pin { case: "u32/global/noagg/uniform/topk20000", answer: 0xe2600a4e975e34a2, total_ns: 77995.2129380054, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 564)] },
    Pin { case: "u32/global/noagg/uniform/ranks-spread", answer: 0x8a27aeb0237ec3e1, total_ns: 77845.84043126684, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 5, 102832), ("base_sort", 5, 2432)] },
    Pin { case: "u32/global/noagg/uniform/ranks-dup", answer: 0x47039c2b8245b579, total_ns: 58484.65293800539, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "u32/global/noagg/uniform/ranks-unsorted", answer: 0x365bd3cac612f387, total_ns: 70738.95557951482, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 81688), ("base_sort", 4, 1368)] },
    Pin { case: "u32/global/noagg/uniform/ranks-adjacent", answer: 0x10e428c1591bc92f, total_ns: 51450.90566037736, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20360), ("base_sort", 1, 280)] },
    Pin { case: "u32/global/noagg/dup16/topk1", answer: 0x7830a97489bc6b05, total_ns: 49720.092938005386, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "u32/global/noagg/dup16/topk6666", answer: 0x2fd67d3a41afd1ec, total_ns: 58030.81293800539, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "u32/global/noagg/dup16/topk20000", answer: 0x9ead8c676ed1a44f, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "u32/global/noagg/dup16/ranks-spread", answer: 0xbf9ea85d3ac4beea, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/dup16/ranks-dup", answer: 0xb30ce021d1cd4705, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/dup16/ranks-unsorted", answer: 0x86a954931d99dde0, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/dup16/ranks-adjacent", answer: 0x8224d3c7bb1c17a5, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/equal/topk1", answer: 0xf816337c488dfa05, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/global/noagg/equal/topk6666", answer: 0xac934348b3bc29c2, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/global/noagg/equal/topk20000", answer: 0x55d8baeb306de962, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/global/noagg/equal/ranks-spread", answer: 0x911f8ceb6194f922, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/equal/ranks-dup", answer: 0xe065073a847488e5, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/equal/ranks-unsorted", answer: 0x911f8ceb6194f922, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/equal/ranks-adjacent", answer: 0xe065073a847488e5, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/noagg/lowent/topk1", answer: 0x293918c80849afe5, total_ns: 51452.36118598383, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "u32/global/noagg/lowent/topk6666", answer: 0x800c9fef09e5f5f3, total_ns: 60465.61293800539, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "u32/global/noagg/lowent/topk20000", answer: 0x08901e00ed008a15, total_ns: 77677.2129380054, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "u32/global/noagg/lowent/ranks-spread", answer: 0x55e1669261bf3ae7, total_ns: 70536.1293800539, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "u32/global/noagg/lowent/ranks-dup", answer: 0xd65abd69a3e76645, total_ns: 57813.83288409703, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "u32/global/noagg/lowent/ranks-unsorted", answer: 0x4e5ab5f3700ba220, total_ns: 64174.98113207547, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "u32/global/noagg/lowent/ranks-adjacent", answer: 0xf99bfdd09e94a665, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/uniform/topk1", answer: 0xe2c7906c119dd631, total_ns: 49518.947708894884, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20272), ("base_sort", 1, 192)] },
    Pin { case: "u32/global/agg/uniform/topk6666", answer: 0x9d6d18853d8a74b4, total_ns: 50779.43288409704, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 54432), ("base_sort", 1, 388)] },
    Pin { case: "u32/global/agg/uniform/topk20000", answer: 0xe2600a4e975e34a2, total_ns: 53348.64582210243, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 564)] },
    Pin { case: "u32/global/agg/uniform/ranks-spread", answer: 0x8a27aeb0237ec3e1, total_ns: 75979.73563342319, launch_overhead_ns: 45000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 5, 102832), ("base_sort", 5, 2432)] },
    Pin { case: "u32/global/agg/uniform/ranks-dup", answer: 0x47039c2b8245b579, total_ns: 56662.78059299192, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 41328), ("base_sort", 2, 1168)] },
    Pin { case: "u32/global/agg/uniform/ranks-unsorted", answer: 0x365bd3cac612f387, total_ns: 68929.61078167116, launch_overhead_ns: 39000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 81688), ("base_sort", 4, 1368)] },
    Pin { case: "u32/global/agg/uniform/ranks-adjacent", answer: 0x10e428c1591bc92f, total_ns: 49642.50566037736, launch_overhead_ns: 21000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20360), ("base_sort", 1, 280)] },
    Pin { case: "u32/global/agg/dup16/topk1", answer: 0x7830a97489bc6b05, total_ns: 33940.812938005394, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 25096)] },
    Pin { case: "u32/global/agg/dup16/topk6666", answer: 0x2fd67d3a41afd1ec, total_ns: 34663.88668463612, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 56600)] },
    Pin { case: "u32/global/agg/dup16/topk20000", answer: 0x9ead8c676ed1a44f, total_ns: 36786.68991913747, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 119600)] },
    Pin { case: "u32/global/agg/dup16/ranks-spread", answer: 0xbf9ea85d3ac4beea, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/dup16/ranks-dup", answer: 0xb30ce021d1cd4705, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/dup16/ranks-unsorted", answer: 0x86a954931d99dde0, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/dup16/ranks-adjacent", answer: 0x8224d3c7bb1c17a5, total_ns: 30231.972938005394, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/equal/topk1", answer: 0xf816337c488dfa05, total_ns: 25933.533153638815, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/global/agg/equal/topk6666", answer: 0xac934348b3bc29c2, total_ns: 25933.533153638815, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/global/agg/equal/topk20000", answer: 0x55d8baeb306de962, total_ns: 25933.533153638815, launch_overhead_ns: 18000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 100160)] },
    Pin { case: "u32/global/agg/equal/ranks-spread", answer: 0x911f8ceb6194f922, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/equal/ranks-dup", answer: 0xe065073a847488e5, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/equal/ranks-unsorted", answer: 0x911f8ceb6194f922, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/equal/ranks-adjacent", answer: 0xe065073a847488e5, total_ns: 19536.01293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "u32/global/agg/lowent/topk1", answer: 0x293918c80849afe5, total_ns: 47384.12118598383, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20396), ("base_sort", 1, 316)] },
    Pin { case: "u32/global/agg/lowent/topk6666", answer: 0x800c9fef09e5f5f3, total_ns: 48830.47698113207, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 53680), ("base_sort", 1, 640)] },
    Pin { case: "u32/global/agg/lowent/topk20000", answer: 0x08901e00ed008a15, total_ns: 50770.805822102426, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 320)] },
    Pin { case: "u32/global/agg/lowent/ranks-spread", answer: 0x55e1669261bf3ae7, total_ns: 66467.88938005391, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 4, 81592), ("base_sort", 4, 1272)] },
    Pin { case: "u32/global/agg/lowent/ranks-dup", answer: 0xd65abd69a3e76645, total_ns: 53745.59288409703, launch_overhead_ns: 27000.0, levels: 2, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 2, 40800), ("base_sort", 2, 640)] },
    Pin { case: "u32/global/agg/lowent/ranks-unsorted", answer: 0x4e5ab5f3700ba220, total_ns: 60106.74113207547, launch_overhead_ns: 33000.0, levels: 2, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 3, 61196), ("base_sort", 3, 956)] },
    Pin { case: "u32/global/agg/lowent/ranks-adjacent", answer: 0xf99bfdd09e94a665, total_ns: 41022.97293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960)] },
    Pin { case: "f32/deep/uniform/topk1", answer: 0x9cd731ba274e2c95, total_ns: 33833.65691374663, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 1800032), ("reduce", 1, 600064), ("filter", 1, 303660), ("base_sort", 1, 2488)] },
    Pin { case: "f32/deep/uniform/topk100000", answer: 0x6ebd40f9f775ba92, total_ns: 38196.19423180593, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 1800032), ("reduce", 1, 600064), ("filter", 1, 805240), ("base_sort", 1, 4012)] },
    Pin { case: "f32/deep/uniform/topk300000", answer: 0xa600b8c214d85e10, total_ns: 42305.921064690025, launch_overhead_ns: 21000.0, levels: 1, early: false, kernels: &[("sample", 1, 1020), ("count", 1, 1800032), ("reduce", 1, 600064), ("filter", 1, 1800032), ("base_sort", 1, 3948)] },
    Pin { case: "f32/deep/uniform/ranks-spread", answer: 0xee8acedc1ff5b7f0, total_ns: 101317.33437331536, launch_overhead_ns: 69000.0, levels: 3, early: false, kernels: &[("sample", 3, 3060), ("count", 3, 1819343), ("reduce", 3, 608256), ("filter", 7, 1529743), ("base_sort", 5, 8652)] },
    Pin { case: "f32/deep/uniform/ranks-dup", answer: 0xd3de7aa9b4963fa9, total_ns: 57438.22892857142, launch_overhead_ns: 39000.0, levels: 3, early: false, kernels: &[("sample", 2, 2040), ("count", 2, 1808995), ("reduce", 2, 604160), ("filter", 3, 613243), ("base_sort", 2, 3976)] },
    Pin { case: "f32/deep/uniform/ranks-unsorted", answer: 0xa9c093e9a3f313e6, total_ns: 74373.55787735849, launch_overhead_ns: 51000.0, levels: 3, early: false, kernels: &[("sample", 2, 2040), ("count", 2, 1809615), ("reduce", 2, 604160), ("filter", 5, 1219455), ("base_sort", 4, 7224)] },
    Pin { case: "f32/deep/uniform/ranks-adjacent", answer: 0xb247d855ba99d34b, total_ns: 47883.44466981132, launch_overhead_ns: 33000.0, levels: 3, early: false, kernels: &[("sample", 2, 2040), ("count", 2, 1809615), ("reduce", 2, 604160), ("filter", 2, 308751), ("base_sort", 1, 36)] },
    Pin { case: "u32/deep/lowent/topk1", answer: 0x293918c80849afe5, total_ns: 46827.45375336927, launch_overhead_ns: 30000.0, levels: 2, early: true, kernels: &[("sample", 2, 2040), ("count", 2, 1808055), ("reduce", 2, 604160), ("filter", 2, 311943)] },
    Pin { case: "u32/deep/lowent/topk100000", answer: 0x0c50d3b44d2c379e, total_ns: 50444.84920485175, launch_overhead_ns: 30000.0, levels: 2, early: true, kernels: &[("sample", 2, 2040), ("count", 2, 1815054), ("reduce", 2, 606208), ("filter", 2, 815906)] },
    Pin { case: "u32/deep/lowent/topk300000", answer: 0xfdeae1797c29bd09, total_ns: 55201.71119946091, launch_overhead_ns: 30000.0, levels: 2, early: true, kernels: &[("sample", 2, 2040), ("count", 2, 1808060), ("reduce", 2, 604160), ("filter", 2, 1806028)] },
    Pin { case: "u32/deep/lowent/ranks-spread", answer: 0x29114fde303a6260, total_ns: 112726.50392183289, launch_overhead_ns: 75000.0, levels: 2, early: true, kernels: &[("sample", 6, 6120), ("count", 6, 1840152), ("reduce", 6, 620544), ("filter", 5, 1529764)] },
    Pin { case: "u32/deep/lowent/ranks-dup", answer: 0xd65abd69a3e76645, total_ns: 59685.930107816705, launch_overhead_ns: 39000.0, levels: 2, early: true, kernels: &[("sample", 3, 3060), ("count", 3, 1823082), ("reduce", 3, 610304), ("filter", 2, 616688)] },
    Pin { case: "u32/deep/lowent/ranks-unsorted", answer: 0x6d557cfc7afaec41, total_ns: 94995.2159838275, launch_overhead_ns: 63000.0, levels: 2, early: true, kernels: &[("sample", 5, 5100), ("count", 5, 1832134), ("reduce", 5, 616448), ("filter", 4, 1223816)] },
    Pin { case: "u32/deep/lowent/ranks-adjacent", answer: 0xf99bfdd09e94a665, total_ns: 41796.91466981132, launch_overhead_ns: 27000.0, levels: 2, early: true, kernels: &[("sample", 2, 2040), ("count", 2, 1808055), ("reduce", 2, 604160), ("filter", 1, 305952)] },
    Pin { case: "f32/shared/b4/uniform/approx", answer: 0x327b7f94e2299a96, total_ns: 17187.382520215633, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 12), ("count_nowrite", 1, 80320), ("reduce", 1, 32)] },
    Pin { case: "f32/shared/b256/uniform/approx", answer: 0xf555af4503a27280, total_ns: 20400.552938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count_nowrite", 1, 100480), ("reduce", 1, 2048)] },
    Pin { case: "f32/shared/b1024/uniform/approx", answer: 0xc3b29d07ba51af4e, total_ns: 38368.73175202156, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 4092), ("count_nowrite", 1, 161920), ("reduce", 1, 8192)] },
    Pin { case: "f32/global/b4/uniform/approx", answer: 0x327b7f94e2299a96, total_ns: 41448.51752021564, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 12), ("count_nowrite", 1, 80000), ("reduce", 1, 32)] },
    Pin { case: "f32/global/b256/uniform/approx", answer: 0xf555af4503a27280, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count_nowrite", 1, 80000), ("reduce", 1, 2048)] },
    Pin { case: "f32/global/b1024/uniform/approx", answer: 0xc3b29d07ba51af4e, total_ns: 63076.85175202156, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 4092), ("count_nowrite", 1, 80000), ("reduce", 1, 8192)] },
    Pin { case: "u32/shared/b4/uniform/approx", answer: 0x03346b2eccd188a8, total_ns: 17288.94752021563, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 12), ("count_nowrite", 1, 80320), ("reduce", 1, 32)] },
    Pin { case: "u32/shared/b256/uniform/approx", answer: 0x9d68beac28820706, total_ns: 20400.462938005392, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count_nowrite", 1, 100480), ("reduce", 1, 2048)] },
    Pin { case: "u32/shared/b1024/uniform/approx", answer: 0x3d35c90f695d9719, total_ns: 38368.50675202156, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 4092), ("count_nowrite", 1, 161920), ("reduce", 1, 8192)] },
    Pin { case: "u32/global/b4/uniform/approx", answer: 0x03346b2eccd188a8, total_ns: 41448.51752021564, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 12), ("count_nowrite", 1, 80000), ("reduce", 1, 32)] },
    Pin { case: "u32/global/b256/uniform/approx", answer: 0x9d68beac28820706, total_ns: 45091.21293800539, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 1020), ("count_nowrite", 1, 80000), ("reduce", 1, 2048)] },
    Pin { case: "u32/global/b1024/uniform/approx", answer: 0x3d35c90f695d9719, total_ns: 63076.85175202156, launch_overhead_ns: 15000.0, levels: 1, early: true, kernels: &[("sample", 1, 4092), ("count_nowrite", 1, 80000), ("reduce", 1, 8192)] },
];

#[test]
fn fused_and_multi_rank_drivers_charge_exactly_the_pinned_costs() {
    let pool = ThreadPool::new(2);
    let observed = all_cases(&pool);
    let mut mismatched = Vec::new();
    for (i, (case, obs)) in observed.iter().enumerate() {
        match PINS.get(i) {
            Some(pin) if pin.case == case && obs.matches(pin) => {}
            _ => mismatched.push(case.clone()),
        }
    }
    if !mismatched.is_empty() || PINS.len() != observed.len() {
        let table: Vec<String> = observed.iter().map(|(c, o)| o.literal(c)).collect();
        panic!(
            "{} of {} cases drifted from their pins: {:?}\nobserved table:\n{}",
            mismatched.len(),
            observed.len(),
            mismatched,
            table.join("\n")
        );
    }
}
