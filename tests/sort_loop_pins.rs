//! Exact simulated-cost pins for the sample sort.
//!
//! Every case sorts one input on a fresh simulated V100 and pins, as
//! literals: a digest of the sorted bits, a digest of the full kernel
//! timeline (name, origin, start, duration and launch overhead of every
//! record, in launch order), the total simulated time, the
//! launch-overhead share and the per-kernel `(name, launches, bytes
//! moved)` sequence. The level count and the early-exit flag are not
//! pinned.
//!
//! The grid covers {f32, u32} x {shared, global} atomics x {uniform, 16
//! distinct values, all equal, low-entropy `i % 251`} inputs at
//! n = 20,000. Cases at n = 300,000 fill every bucket of a level with a
//! base case, and a small configuration (8 buckets, oversampling 2, base
//! case 16) recurses several levels deep at n = 20,000.
//!
//! Every case also runs under an observability session and must match
//! the unobserved run exactly; the span and gauge output itself is not
//! pinned. On a mismatch the test prints the full observed table in the
//! literal format below.

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::{Device, LaunchOrigin};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::SelectElement;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::{
    sample_sort_on_device, AtomicScope, ObsSession, SampleSelectConfig,
};

/// Input size of the grid and small-configuration cases.
const N: usize = 20_000;
/// Input size of the large cases.
const N_DEEP: usize = 300_000;

/// One pinned case.
struct Pin {
    case: &'static str,
    sorted: u64,
    timeline: u64,
    total_ns: f64,
    launch_overhead_ns: f64,
    kernels: &'static [(&'static str, u64, u64)],
}

/// What one run produced, in the shape of a [`Pin`].
#[derive(Debug, PartialEq)]
struct Observed {
    sorted: u64,
    timeline: u64,
    total_ns: f64,
    launch_overhead_ns: f64,
    kernels: Vec<(String, u64, u64)>,
}

impl Observed {
    fn matches(&self, pin: &Pin) -> bool {
        self.sorted == pin.sorted
            && self.timeline == pin.timeline
            && self.total_ns.to_bits() == pin.total_ns.to_bits()
            && self.launch_overhead_ns.to_bits() == pin.launch_overhead_ns.to_bits()
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
            "    Pin {{ case: {case:?}, sorted: {:#018x}, timeline: {:#018x}, total_ns: {:?}, \
             launch_overhead_ns: {:?}, kernels: &[{}] }},",
            self.sorted,
            self.timeline,
            self.total_ns,
            self.launch_overhead_ns,
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

/// Sort once on a fresh device, optionally under an observability
/// session.
fn run_once<T: SelectElement>(
    pool: &ThreadPool,
    data: &[T],
    cfg: &SampleSelectConfig,
    observe: bool,
) -> Observed {
    let mut device = Device::new(v100(), pool);
    let session = observe.then(ObsSession::start);
    let res = sample_sort_on_device(&mut device, data, cfg).expect("sample sort failed");
    if let Some(session) = session {
        session.finish();
    }
    let timeline = digest(device.records().iter().flat_map(|r| {
        let name = digest(r.name.bytes().map(u64::from));
        let origin = (r.origin == LaunchOrigin::Device) as u64;
        let times = [r.start, r.duration, r.launch_overhead].map(|t| t.as_ns().to_bits());
        [name, origin, times[0], times[1], times[2]]
    }));
    let report = &res.report;
    Observed {
        sorted: digest(res.sorted.iter().map(|x| x.to_bits_u64())),
        timeline,
        total_ns: report.total_time.as_ns(),
        launch_overhead_ns: report.launch_overhead.as_ns(),
        kernels: report
            .kernels
            .iter()
            .map(|k| {
                let bytes = k.cost.global_read_bytes + k.cost.global_write_bytes;
                (k.name.clone(), k.launches, bytes)
            })
            .collect(),
    }
}

fn observe_case<T: PinElement>(
    pool: &ThreadPool,
    input: &str,
    n: usize,
    cfg: &SampleSelectConfig,
    case: &str,
) -> Observed {
    let data = gen::<T>(input, n);
    let plain = run_once(pool, &data, cfg, false);
    let observed = run_once(pool, &data, cfg, true);
    // Observability must not perturb a single simulated charge.
    assert_eq!(plain, observed, "{case}: observed run diverged");
    plain
}

/// Every case of the grid, in table order.
fn all_cases(pool: &ThreadPool) -> Vec<(String, Observed)> {
    let mut out = Vec::new();
    for ty in ["f32", "u32"] {
        for (scope, scope_name) in [
            (AtomicScope::Shared, "shared"),
            (AtomicScope::Global, "global"),
        ] {
            let cfg = SampleSelectConfig::default().with_atomic_scope(scope);
            for input in ["uniform", "dup16", "equal", "lowent"] {
                let case = format!("{ty}/{scope_name}/{input}");
                let obs = match ty {
                    "f32" => observe_case::<f32>(pool, input, N, &cfg, &case),
                    _ => observe_case::<u32>(pool, input, N, &cfg, &case),
                };
                out.push((case, obs));
            }
        }
    }
    let base = SampleSelectConfig::default();
    for (ty, input) in [("f32", "uniform"), ("u32", "lowent")] {
        let case = format!("{ty}/deep/{input}");
        let obs = match ty {
            "f32" => observe_case::<f32>(pool, input, N_DEEP, &base, &case),
            _ => observe_case::<u32>(pool, input, N_DEEP, &base, &case),
        };
        out.push((case, obs));
    }
    let small = SampleSelectConfig::default()
        .with_buckets(8)
        .with_oversampling(2)
        .with_base_case(16);
    for (ty, input) in [("f32", "uniform"), ("f32", "dup16"), ("u32", "lowent")] {
        let case = format!("{ty}/small/{input}");
        let obs = match ty {
            "f32" => observe_case::<f32>(pool, input, N, &small, &case),
            _ => observe_case::<u32>(pool, input, N, &small, &case),
        };
        out.push((case, obs));
    }
    out
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { case: "f32/shared/uniform", sorted: 0xfaf9de280c8381f8, timeline: 0x89512dafe2f7d092, total_ns: 30319.46082210243, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 88192)] },
    Pin { case: "f32/shared/dup16", sorted: 0x2f5880bcc191987c, timeline: 0x728180866ec58ed1, total_ns: 27041.36082210243, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "f32/shared/equal", sorted: 0x93012ac380335825, timeline: 0x466c28c9e7e94df2, total_ns: 27804.245822102428, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "f32/shared/lowent", sorted: 0x950595902211010c, timeline: 0xe75e63a9c274b1f9, total_ns: 30309.165822102426, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 67464)] },
    Pin { case: "f32/global/uniform", sorted: 0xfaf9de280c8381f8, timeline: 0xa56dd5304e2ff401, total_ns: 77848.2879380054, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 88192)] },
    Pin { case: "f32/global/dup16", sorted: 0x2f5880bcc191987c, timeline: 0xd0ac97f29fd3001a, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "f32/global/equal", sorted: 0x93012ac380335825, timeline: 0xd0ac97f29fd3001a, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "f32/global/lowent", sorted: 0x950595902211010c, timeline: 0x5185c3e99885b6ab, total_ns: 77831.0629380054, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 67464)] },
    Pin { case: "u32/shared/uniform", sorted: 0x8cc69bcb8c8fa0a1, timeline: 0x41c302de3f7d51d1, total_ns: 30317.595822102427, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 88192)] },
    Pin { case: "u32/shared/dup16", sorted: 0xc04d3205ee470daf, timeline: 0x728180866ec58ed1, total_ns: 27041.36082210243, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "u32/shared/equal", sorted: 0x582a901a0e3df125, timeline: 0x466c28c9e7e94df2, total_ns: 27804.245822102428, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "u32/shared/lowent", sorted: 0x8d026ecf8b3fc5f5, timeline: 0xe75e63a9c274b1f9, total_ns: 30309.165822102426, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 67464)] },
    Pin { case: "u32/global/uniform", sorted: 0x8cc69bcb8c8fa0a1, timeline: 0xcef24d25187a69fc, total_ns: 77846.5129380054, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 88192)] },
    Pin { case: "u32/global/dup16", sorted: 0xc04d3205ee470daf, timeline: 0xd0ac97f29fd3001a, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "u32/global/equal", sorted: 0x582a901a0e3df125, timeline: 0xd0ac97f29fd3001a, total_ns: 74491.2129380054, launch_overhead_ns: 18000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480)] },
    Pin { case: "u32/global/lowent", sorted: 0x8d026ecf8b3fc5f5, timeline: 0x5185c3e99885b6ab, total_ns: 77831.0629380054, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 120480), ("base_sort", 1, 67464)] },
    Pin { case: "f32/deep/uniform", sorted: 0x3bc28939a76f3f61, timeline: 0xb098c34da5a35a91, total_ns: 53895.52106469002, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 1800032), ("reduce", 1, 600064), ("filter", 1, 1800032), ("base_sort", 1, 1208192)] },
    Pin { case: "u32/deep/lowent", sorted: 0x66769e22c81f1069, timeline: 0x99baa6c986fe78fd, total_ns: 53922.061064690024, launch_overhead_ns: 21000.0, kernels: &[("sample", 1, 1020), ("count", 1, 1800032), ("reduce", 1, 600064), ("filter", 1, 1800032), ("base_sort", 1, 975908)] },
    Pin { case: "f32/small/uniform", sorted: 0xfaf9de280c8381f8, timeline: 0x145eb4dcf25034a8, total_ns: 78934.15692469678, launch_overhead_ns: 63000.0, kernels: &[("sample", 4, 2368), ("count", 4, 299071), ("reduce", 4, 6848), ("filter", 4, 297447), ("base_sort", 3, 88992)] },
    Pin { case: "f32/small/dup16", sorted: 0x2f5880bcc191987c, timeline: 0x3d8ea9b1f68ebb48, total_ns: 55788.566071135596, launch_overhead_ns: 42000.0, kernels: &[("sample", 3, 628), ("count", 3, 216033), ("reduce", 3, 4064), ("filter", 3, 215221)] },
    Pin { case: "u32/small/lowent", sorted: 0x8d026ecf8b3fc5f5, timeline: 0x5e749b166c9d8957, total_ns: 80134.37089872733, launch_overhead_ns: 63000.0, kernels: &[("sample", 4, 2128), ("count", 4, 287039), ("reduce", 4, 6272), ("filter", 4, 285583), ("base_sort", 3, 67556)] },
];

#[test]
fn sample_sort_charges_exactly_the_pinned_costs() {
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
