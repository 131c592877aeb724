//! Exact simulated-cost pins for the SampleSelect and RadixSelect
//! level loops.
//!
//! Every case runs one exact query on a fresh simulated V100 and pins,
//! as literals: the answer's bit pattern, the total simulated time, the
//! launch-overhead share, the level count, the early-exit flag, the
//! per-kernel `(name, launches, bytes moved)` sequence, and — where the
//! run fails — the error (the violated invariant for corruption). A
//! digest of the observability output (span log, metrics snapshot and
//! counter tracks) pins the span trees and gauges on top.
//!
//! The grid covers both backends over {f32, f64, u32, i32} x {shared,
//! global} atomics x {with, without} warp aggregation x {uniform,
//! 16 distinct values, all equal, low-entropy `i % 251`} inputs, plus
//! the `max_levels` and work-budget guards and Spot-verified runs with
//! memory corruption injected at fixed access indexes.
//!
//! Unlike the 15 % drift tolerance of the perf gate, these pins are
//! exact: any refactor of the level loop or the count kernel must keep
//! every simulated charge bit-identical. On a mismatch the test prints
//! the full observed table in the literal format below.

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::{Device, FaultPlan};
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::SelectElement;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::{
    radix_select_on_device, sample_select_on_device, AtomicScope, ObsSession, SampleSelectConfig,
    SelectError, SelectReport, SelectResult, VerifyPolicy,
};

/// Input size of the grid cases: one sample level (or one to four
/// digit passes) before the base case.
const N: usize = 20_000;
/// Input size of the deep cases: two SampleSelect levels.
const N_DEEP: usize = 300_000;

/// One pinned case.
struct Pin {
    case: &'static str,
    value_bits: u64,
    total_ns: f64,
    launch_overhead_ns: f64,
    levels: u32,
    early: bool,
    error: Option<&'static str>,
    kernels: &'static [(&'static str, u64, u64)],
    obs_digest: u64,
}

/// What one run produced, in the shape of a [`Pin`].
#[derive(Debug, PartialEq)]
struct Observed {
    value_bits: u64,
    total_ns: f64,
    launch_overhead_ns: f64,
    levels: u32,
    early: bool,
    error: Option<String>,
    kernels: Vec<(String, u64, u64)>,
    obs_digest: u64,
}

impl Observed {
    fn matches(&self, pin: &Pin) -> bool {
        self.value_bits == pin.value_bits
            && self.total_ns.to_bits() == pin.total_ns.to_bits()
            && self.launch_overhead_ns.to_bits() == pin.launch_overhead_ns.to_bits()
            && self.levels == pin.levels
            && self.early == pin.early
            && self.error.as_deref() == pin.error
            && self.kernels.len() == pin.kernels.len()
            && self
                .kernels
                .iter()
                .zip(pin.kernels)
                .all(|((n, l, b), &(pn, pl, pb))| n == pn && *l == pl && *b == pb)
            && self.obs_digest == pin.obs_digest
    }

    fn literal(&self, case: &str) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|(n, l, b)| format!("({n:?}, {l}, {b})"))
            .collect();
        format!(
            "    Pin {{ case: {case:?}, value_bits: {:#x}, total_ns: {:?}, launch_overhead_ns: {:?}, \
             levels: {}, early: {}, error: {:?}, kernels: &[{}], obs_digest: {:#018x} }},",
            self.value_bits,
            self.total_ns,
            self.launch_overhead_ns,
            self.levels,
            self.early,
            self.error,
            kernels.join(", "),
            self.obs_digest,
        )
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
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

impl PinElement for f64 {
    fn from_random(bits: u64) -> Self {
        (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
    fn from_small(i: u32) -> Self {
        i as f64 * 2.5 - 7.0
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

impl PinElement for i32 {
    fn from_random(bits: u64) -> Self {
        bits as i32
    }
    fn from_small(i: u32) -> Self {
        i as i32 - 100
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

type Driver<T> =
    fn(&mut Device, &[T], usize, &SampleSelectConfig) -> Result<SelectResult<T>, SelectError>;

fn driver<T: SelectElement>(backend: &str) -> Driver<T> {
    match backend {
        "sample" => sample_select_on_device::<T>,
        "radix" => radix_select_on_device::<T>,
        _ => unreachable!("unknown backend {backend}"),
    }
}

/// Run one query on a fresh device, optionally under an observability
/// session. Returns the outcome as an [`Observed`] with a zero digest,
/// plus the digest of the session's output (zero when unobserved).
fn run_once<T: SelectElement>(
    pool: &ThreadPool,
    backend: &str,
    data: &[T],
    rank: usize,
    cfg: &SampleSelectConfig,
    faults: Option<&[u64]>,
    observe: bool,
) -> (Observed, u64) {
    let mut device = Device::new(v100(), pool);
    if let Some(indices) = faults {
        device.set_fault_plan(FaultPlan::new(0x9a17).corrupt_accesses_at(indices));
    }
    let session = observe.then(ObsSession::start);
    let result = driver::<T>(backend)(&mut device, data, rank, cfg);
    let digest = session.map_or(0, |s| {
        let report = s.finish();
        let mut text = report.span_log();
        text.push_str(&report.snapshot.to_json());
        text.push_str(&format!("{:?}", report.tracks));
        fnv1a(text.as_bytes())
    });
    let (value_bits, report, error) = match result {
        Ok(r) => (r.value.to_bits_u64(), r.report, None),
        Err(e) => {
            let name = match &e {
                SelectError::Corruption { invariant, .. } => invariant.to_string(),
                other => format!("{other:?}"),
            };
            let report =
                SelectReport::from_records("failed", data.len(), device.records(), 0, false);
            (0, report, Some(name))
        }
    };
    let observed = Observed {
        value_bits,
        total_ns: report.total_time.as_ns(),
        launch_overhead_ns: report.launch_overhead.as_ns(),
        levels: report.levels,
        early: report.terminated_early,
        error,
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
        obs_digest: 0,
    };
    (observed, digest)
}

fn observe_case<T: PinElement>(
    pool: &ThreadPool,
    backend: &str,
    input: &str,
    n: usize,
    cfg: &SampleSelectConfig,
    faults: Option<&[u64]>,
) -> Observed {
    let data = gen::<T>(input, n);
    let rank = n / 3 + 1;
    let (mut plain, _) = run_once(pool, backend, &data, rank, cfg, faults, false);
    let (mut observed, digest) = run_once(pool, backend, &data, rank, cfg, faults, true);
    // Observability must not perturb a single simulated charge.
    observed.obs_digest = 0;
    assert_eq!(plain, observed, "{backend}/{input}: observed run diverged");
    plain.obs_digest = digest;
    plain
}

fn scope_name(scope: AtomicScope) -> &'static str {
    match scope {
        AtomicScope::Shared => "shared",
        AtomicScope::Global => "global",
    }
}

/// Every case of the grid, in table order.
fn all_cases(pool: &ThreadPool) -> Vec<(String, Observed)> {
    let mut out = Vec::new();
    for backend in ["sample", "radix"] {
        for ty in ["f32", "f64", "u32", "i32"] {
            for scope in [AtomicScope::Shared, AtomicScope::Global] {
                for agg in [false, true] {
                    for input in ["uniform", "dup16", "equal", "lowent"] {
                        let cfg = SampleSelectConfig::default()
                            .with_atomic_scope(scope)
                            .with_warp_aggregation(agg);
                        let case = format!(
                            "{backend}/{ty}/{}/{}/{input}",
                            scope_name(scope),
                            if agg { "agg" } else { "noagg" }
                        );
                        let obs = match ty {
                            "f32" => observe_case::<f32>(pool, backend, input, N, &cfg, None),
                            "f64" => observe_case::<f64>(pool, backend, input, N, &cfg, None),
                            "u32" => observe_case::<u32>(pool, backend, input, N, &cfg, None),
                            _ => observe_case::<i32>(pool, backend, input, N, &cfg, None),
                        };
                        out.push((case, obs));
                    }
                }
            }
        }
        let base = SampleSelectConfig::default();
        out.push((
            format!("{backend}/f32/deep/uniform"),
            observe_case::<f32>(pool, backend, "uniform", N_DEEP, &base, None),
        ));
        out.push((
            format!("{backend}/u32/deep/lowent"),
            observe_case::<u32>(pool, backend, "lowent", N_DEEP, &base, None),
        ));
        let capped = base.clone().with_max_levels(0);
        out.push((
            format!("{backend}/f32/max_levels0/uniform"),
            observe_case::<f32>(pool, backend, "uniform", N, &capped, None),
        ));
        let budget = base.clone().with_work_budget_factor(1.5);
        for input in ["uniform", "lowent"] {
            out.push((
                format!("{backend}/u32/budget1.5/{input}"),
                observe_case::<u32>(pool, backend, input, N, &budget, None),
            ));
        }
        let spot = base.clone().with_verify(VerifyPolicy::Spot);
        for at in [0u64, 1, 2, 3, 5] {
            out.push((
                format!("{backend}/f32/spot/corrupt{at}"),
                observe_case::<f32>(pool, backend, "uniform", N_DEEP, &spot, Some(&[at])),
            ));
        }
        // Without Spot checks only the unconditional corruption guards
        // stand between a flipped count or oracle and a wrong answer.
        for at in [0u64, 1, 2] {
            out.push((
                format!("{backend}/f32/unverified/corrupt{at}"),
                observe_case::<f32>(pool, backend, "uniform", N_DEEP, &base, Some(&[at])),
            ));
        }
    }
    out
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { case: "sample/f32/shared/noagg/uniform", value_bits: 0xbea517d3, total_ns: 31121.494690026953, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20408), ("base_sort", 1, 328)], obs_digest: 0x008f091c81b4d3bf },
    Pin { case: "sample/f32/shared/noagg/dup16", value_bits: 0x40b00000, total_ns: 24804.37969002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x51fde977de1b7d4b },
    Pin { case: "sample/f32/shared/noagg/equal", value_bits: 0x41280000, total_ns: 25567.264690026954, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x3bad178b7aea88bb },
    Pin { case: "sample/f32/shared/noagg/lowent", value_bits: 0x43488000, total_ns: 31128.334690026953, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0x54267e604951b302 },
    Pin { case: "sample/f32/shared/agg/uniform", value_bits: 0xbea517d3, total_ns: 31092.064690026957, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20408), ("base_sort", 1, 328)], obs_digest: 0xc1cb388f1bcd63de },
    Pin { case: "sample/f32/shared/agg/dup16", value_bits: 0x40b00000, total_ns: 24696.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x38718913c4d22a61 },
    Pin { case: "sample/f32/shared/agg/equal", value_bits: 0x41280000, total_ns: 24696.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xae31933d8fb43297 },
    Pin { case: "sample/f32/shared/agg/lowent", value_bits: 0x43488000, total_ns: 31092.064690026957, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xa018d3c6c502997c },
    Pin { case: "sample/f32/global/noagg/uniform", value_bits: 0xbea517d3, total_ns: 55777.698113207545, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20408), ("base_sort", 1, 328)], obs_digest: 0x90b9b42278075468 },
    Pin { case: "sample/f32/global/noagg/dup16", value_bits: 0x40b00000, total_ns: 49416.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x6384752addbc2476 },
    Pin { case: "sample/f32/global/noagg/equal", value_bits: 0x41280000, total_ns: 49416.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xf73e42f78dd086cc },
    Pin { case: "sample/f32/global/noagg/lowent", value_bits: 0x43488000, total_ns: 55777.37466307277, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xb89a2e1e5bd8108c },
    Pin { case: "sample/f32/global/agg/uniform", value_bits: 0xbea517d3, total_ns: 53901.978113207544, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20408), ("base_sort", 1, 328)], obs_digest: 0x5c99a2494bc24438 },
    Pin { case: "sample/f32/global/agg/dup16", value_bits: 0x40b00000, total_ns: 34556.82469002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x1bb16e467b0e6d83 },
    Pin { case: "sample/f32/global/agg/equal", value_bits: 0x41280000, total_ns: 23860.864690026952, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x4fa9f20cea60061c },
    Pin { case: "sample/f32/global/agg/lowent", value_bits: 0x43488000, total_ns: 51709.13466307277, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xbf726ecb165b6fd2 },
    Pin { case: "sample/f64/shared/noagg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 34667.49469002696, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20736), ("base_sort", 1, 656)], obs_digest: 0xbaa612f0667dc107 },
    Pin { case: "sample/f64/shared/noagg/dup16", value_bits: 0x4016000000000000, total_ns: 28164.37969002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x3ac0f47f044ae812 },
    Pin { case: "sample/f64/shared/noagg/equal", value_bits: 0x4025000000000000, total_ns: 28927.264690026954, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x204b56831e0fab42 },
    Pin { case: "sample/f64/shared/noagg/lowent", value_bits: 0x4069100000000000, total_ns: 34674.33469002695, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20720), ("base_sort", 1, 640)], obs_digest: 0xcc3555938f15e710 },
    Pin { case: "sample/f64/shared/agg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 34638.06469002696, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20736), ("base_sort", 1, 656)], obs_digest: 0xe25659090de3af51 },
    Pin { case: "sample/f64/shared/agg/dup16", value_bits: 0x4016000000000000, total_ns: 28056.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x42bc2c027b1e1953 },
    Pin { case: "sample/f64/shared/agg/equal", value_bits: 0x4025000000000000, total_ns: 28056.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x40a830a342ef5b3b },
    Pin { case: "sample/f64/shared/agg/lowent", value_bits: 0x4069100000000000, total_ns: 34638.06469002696, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 200480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20720), ("base_sort", 1, 640)], obs_digest: 0xba0871ca26e22569 },
    Pin { case: "sample/f64/global/noagg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 59336.959568733146, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20736), ("base_sort", 1, 656)], obs_digest: 0xd62d8ec842c5349e },
    Pin { case: "sample/f64/global/noagg/dup16", value_bits: 0x4016000000000000, total_ns: 52776.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x4b0f7e792971991f },
    Pin { case: "sample/f64/global/noagg/equal", value_bits: 0x4025000000000000, total_ns: 52776.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x4d014fc2866c31e5 },
    Pin { case: "sample/f64/global/noagg/lowent", value_bits: 0x4069100000000000, total_ns: 59336.31266846361, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20720), ("base_sort", 1, 640)], obs_digest: 0x0dd5ba5af25ca83a },
    Pin { case: "sample/f64/global/agg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 57459.919568733145, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20736), ("base_sort", 1, 656)], obs_digest: 0x1998126105d924f4 },
    Pin { case: "sample/f64/global/agg/dup16", value_bits: 0x4016000000000000, total_ns: 37916.82469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x2bb8a14da4b00d7d },
    Pin { case: "sample/f64/global/agg/equal", value_bits: 0x4025000000000000, total_ns: 27831.59029649596, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xfa30805ec125c8cb },
    Pin { case: "sample/f64/global/agg/lowent", value_bits: 0x4069100000000000, total_ns: 55268.07266846361, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 2040), ("count", 1, 180000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20720), ("base_sort", 1, 640)], obs_digest: 0x7e7c1e60028438f4 },
    Pin { case: "sample/u32/shared/noagg/uniform", value_bits: 0x551fa282, total_ns: 31576.669690026956, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20684), ("base_sort", 1, 604)], obs_digest: 0xda7846feee4f6cef },
    Pin { case: "sample/u32/shared/noagg/dup16", value_bits: 0x5, total_ns: 24804.37969002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x51fde977de1b7d4b },
    Pin { case: "sample/u32/shared/noagg/equal", value_bits: 0x7, total_ns: 25567.264690026954, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x3bad178b7aea88bb },
    Pin { case: "sample/u32/shared/noagg/lowent", value_bits: 0x53, total_ns: 31128.334690026953, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0x54267e604951b302 },
    Pin { case: "sample/u32/shared/agg/uniform", value_bits: 0x551fa282, total_ns: 31546.564690026957, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20684), ("base_sort", 1, 604)], obs_digest: 0x502844e27e288f6b },
    Pin { case: "sample/u32/shared/agg/dup16", value_bits: 0x5, total_ns: 24696.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x38718913c4d22a61 },
    Pin { case: "sample/u32/shared/agg/equal", value_bits: 0x7, total_ns: 24696.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xae31933d8fb43297 },
    Pin { case: "sample/u32/shared/agg/lowent", value_bits: 0x53, total_ns: 31092.064690026957, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xa018d3c6c502997c },
    Pin { case: "sample/u32/global/noagg/uniform", value_bits: 0x551fa282, total_ns: 56119.38469002695, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20684), ("base_sort", 1, 604)], obs_digest: 0xbe8c69d055242be4 },
    Pin { case: "sample/u32/global/noagg/dup16", value_bits: 0x5, total_ns: 49416.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x6384752addbc2476 },
    Pin { case: "sample/u32/global/noagg/equal", value_bits: 0x7, total_ns: 49416.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xf73e42f78dd086cc },
    Pin { case: "sample/u32/global/noagg/lowent", value_bits: 0x53, total_ns: 55777.37466307277, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xb89a2e1e5bd8108c },
    Pin { case: "sample/u32/global/agg/uniform", value_bits: 0x551fa282, total_ns: 54298.45714285714, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20684), ("base_sort", 1, 604)], obs_digest: 0x614e58ae7c903d96 },
    Pin { case: "sample/u32/global/agg/dup16", value_bits: 0x5, total_ns: 34556.82469002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x1bb16e467b0e6d83 },
    Pin { case: "sample/u32/global/agg/equal", value_bits: 0x7, total_ns: 23860.864690026952, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x4fa9f20cea60061c },
    Pin { case: "sample/u32/global/agg/lowent", value_bits: 0x53, total_ns: 51709.13466307277, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xbf726ecb165b6fd2 },
    Pin { case: "sample/i32/shared/noagg/uniform", value_bits: 0xd4198ca6, total_ns: 31083.793787061997, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0xdb4a4a97fd43f3ee },
    Pin { case: "sample/i32/shared/noagg/dup16", value_bits: 0xffffffa1, total_ns: 24804.37969002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x51fde977de1b7d4b },
    Pin { case: "sample/i32/shared/noagg/equal", value_bits: 0xffffffa3, total_ns: 25567.264690026954, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x3bad178b7aea88bb },
    Pin { case: "sample/i32/shared/noagg/lowent", value_bits: 0xffffffef, total_ns: 31128.334690026953, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0x54267e604951b302 },
    Pin { case: "sample/i32/shared/agg/uniform", value_bits: 0xd4198ca6, total_ns: 31054.948787061996, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0x3bc09d96d25faac1 },
    Pin { case: "sample/i32/shared/agg/dup16", value_bits: 0xffffffa1, total_ns: 24696.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x38718913c4d22a61 },
    Pin { case: "sample/i32/shared/agg/equal", value_bits: 0xffffffa3, total_ns: 24696.064690026957, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xae31933d8fb43297 },
    Pin { case: "sample/i32/shared/agg/lowent", value_bits: 0xffffffef, total_ns: 31092.064690026957, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xa018d3c6c502997c },
    Pin { case: "sample/i32/global/noagg/uniform", value_bits: 0xd4198ca6, total_ns: 55774.94878706199, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0x5877b6b3094d2b0a },
    Pin { case: "sample/i32/global/noagg/dup16", value_bits: 0xffffffa1, total_ns: 49416.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x6384752addbc2476 },
    Pin { case: "sample/i32/global/noagg/equal", value_bits: 0xffffffa3, total_ns: 49416.06469002695, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0xf73e42f78dd086cc },
    Pin { case: "sample/i32/global/noagg/lowent", value_bits: 0xffffffef, total_ns: 55777.37466307277, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xb89a2e1e5bd8108c },
    Pin { case: "sample/i32/global/agg/uniform", value_bits: 0xd4198ca6, total_ns: 54015.388787061995, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0xd6be3a668e9e5a97 },
    Pin { case: "sample/i32/global/agg/dup16", value_bits: 0xffffffa1, total_ns: 34556.82469002696, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x1bb16e467b0e6d83 },
    Pin { case: "sample/i32/global/agg/equal", value_bits: 0xffffffa3, total_ns: 23860.864690026952, launch_overhead_ns: 18000.0, levels: 1, early: true, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024)], obs_digest: 0x4fa9f20cea60061c },
    Pin { case: "sample/i32/global/agg/lowent", value_bits: 0xffffffef, total_ns: 51709.13466307277, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 100000), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0xbf726ecb165b6fd2 },
    Pin { case: "sample/f32/deep/uniform", value_bits: 0xbeaa1726, total_ns: 56431.01787735849, launch_overhead_ns: 39000.0, levels: 2, early: false, error: None, kernels: &[("sample", 2, 2040), ("count", 2, 1808995), ("reduce", 2, 604160), ("select_bucket", 2, 2048), ("filter", 2, 308147), ("base_sort", 1, 52)], obs_digest: 0x4fec206e76f9e639 },
    Pin { case: "sample/u32/deep/lowent", value_bits: 0x53, total_ns: 50602.57067385444, launch_overhead_ns: 33000.0, levels: 2, early: true, error: None, kernels: &[("sample", 2, 2040), ("count", 2, 1815054), ("reduce", 2, 606208), ("select_bucket", 2, 2048), ("filter", 1, 310732)], obs_digest: 0xb257af78b0ff9dba },
    Pin { case: "sample/f32/max_levels0/uniform", value_bits: 0x0, total_ns: 0.0, launch_overhead_ns: 0.0, levels: 0, early: false, error: Some("RecursionLimit"), kernels: &[], obs_digest: 0xe8ee8c390c6d014f },
    Pin { case: "sample/u32/budget1.5/uniform", value_bits: 0x551fa282, total_ns: 31576.669690026956, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20684), ("base_sort", 1, 604)], obs_digest: 0xda7846feee4f6cef },
    Pin { case: "sample/u32/budget1.5/lowent", value_bits: 0x53, total_ns: 31128.334690026953, launch_overhead_ns: 24000.0, levels: 1, early: false, error: None, kernels: &[("sample", 1, 1020), ("count", 1, 120480), ("reduce", 1, 40960), ("select_bucket", 1, 1024), ("filter", 1, 20400), ("base_sort", 1, 320)], obs_digest: 0x54267e604951b302 },
    Pin { case: "sample/f32/spot/corrupt0", value_bits: 0x0, total_ns: 9360.0, launch_overhead_ns: 6000.0, levels: 0, early: false, error: Some("splitter-order"), kernels: &[("sample", 1, 1020), ("corrupt:splitters", 1, 0)], obs_digest: 0x793a35ec183c820e },
    Pin { case: "sample/f32/spot/corrupt1", value_bits: 0x0, total_ns: 19534.665, launch_overhead_ns: 12000.0, levels: 0, early: false, error: Some("histogram-sum"), kernels: &[("sample", 1, 1020), ("count", 1, 1800032), ("corrupt:counts", 1, 0)], obs_digest: 0xde6fbfa20b77a5f3 },
    Pin { case: "sample/f32/spot/corrupt2", value_bits: 0xbeaa1726, total_ns: 56431.01787735849, launch_overhead_ns: 39000.0, levels: 2, early: false, error: None, kernels: &[("sample", 2, 2040), ("count", 2, 1808995), ("corrupt:oracles", 1, 0), ("reduce", 2, 604160), ("select_bucket", 2, 2048), ("filter", 2, 308147), ("base_sort", 1, 52)], obs_digest: 0x4ad2fd9b683beda3 },
    Pin { case: "sample/f32/spot/corrupt3", value_bits: 0x0, total_ns: 38304.793483827496, launch_overhead_ns: 24000.0, levels: 0, early: false, error: Some("splitter-order"), kernels: &[("sample", 2, 2040), ("count", 1, 1800032), ("reduce", 1, 600064), ("select_bucket", 1, 1024), ("filter", 1, 306704), ("corrupt:splitters", 1, 0)], obs_digest: 0x25193ec9b2023024 },
    Pin { case: "sample/f32/spot/corrupt5", value_bits: 0xbeaa1726, total_ns: 56431.01787735849, launch_overhead_ns: 39000.0, levels: 2, early: false, error: None, kernels: &[("sample", 2, 2040), ("count", 2, 1808995), ("reduce", 2, 604160), ("select_bucket", 2, 2048), ("filter", 2, 308147), ("corrupt:oracles", 1, 0), ("base_sort", 1, 52)], obs_digest: 0x36994122ab864918 },
    Pin { case: "sample/f32/unverified/corrupt0", value_bits: 0x0, total_ns: 9360.0, launch_overhead_ns: 6000.0, levels: 0, early: false, error: Some("splitter-order"), kernels: &[("sample", 1, 1020), ("corrupt:splitters", 1, 0)], obs_digest: 0x793a35ec183c820e },
    Pin { case: "sample/f32/unverified/corrupt1", value_bits: 0xbeaa1726, total_ns: 56431.01787735849, launch_overhead_ns: 39000.0, levels: 2, early: false, error: None, kernels: &[("sample", 2, 2040), ("count", 2, 1808995), ("corrupt:counts", 1, 0), ("reduce", 2, 604160), ("select_bucket", 2, 2048), ("filter", 2, 308147), ("base_sort", 1, 52)], obs_digest: 0x4ad2fd9b683beda3 },
    Pin { case: "sample/f32/unverified/corrupt2", value_bits: 0xbeaa1726, total_ns: 56431.01787735849, launch_overhead_ns: 39000.0, levels: 2, early: false, error: None, kernels: &[("sample", 2, 2040), ("count", 2, 1808995), ("corrupt:oracles", 1, 0), ("reduce", 2, 604160), ("select_bucket", 2, 2048), ("filter", 2, 308147), ("base_sort", 1, 52)], obs_digest: 0x4ad2fd9b683beda3 },
    Pin { case: "radix/f32/shared/noagg/uniform", value_bits: 0xbea517d3, total_ns: 30138.294380053907, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 142741), ("reduce", 2, 49152), ("filter", 2, 38321), ("base_sort", 1, 60)], obs_digest: 0x821fc6d5a3795685 },
    Pin { case: "radix/f32/shared/noagg/dup16", value_bits: 0x40b00000, total_ns: 54667.91130727763, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 151443), ("reduce", 4, 55296), ("filter", 4, 48651)], obs_digest: 0xac54788b0c3b44d6 },
    Pin { case: "radix/f32/shared/noagg/equal", value_bits: 0x41280000, total_ns: 64117.145013477086, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xa978008e8583c12a },
    Pin { case: "radix/f32/shared/noagg/lowent", value_bits: 0x43488000, total_ns: 31455.346846361186, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 194183), ("reduce", 2, 65536), ("filter", 2, 81863), ("base_sort", 1, 320)], obs_digest: 0x1264194614ec5c71 },
    Pin { case: "radix/f32/shared/agg/uniform", value_bits: 0xbea517d3, total_ns: 29722.629380053906, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 142741), ("reduce", 2, 49152), ("filter", 2, 38321), ("base_sort", 1, 60)], obs_digest: 0xd5248c155b9f24e6 },
    Pin { case: "radix/f32/shared/agg/dup16", value_bits: 0x40b00000, total_ns: 52394.59400269541, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 151443), ("reduce", 4, 55296), ("filter", 4, 48651)], obs_digest: 0x47185b694684f075 },
    Pin { case: "radix/f32/shared/agg/equal", value_bits: 0x41280000, total_ns: 60632.34501347708, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xcea417a170b618ff },
    Pin { case: "radix/f32/shared/agg/lowent", value_bits: 0x43488000, total_ns: 30707.266846361188, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 194183), ("reduce", 2, 65536), ("filter", 2, 81863), ("base_sort", 1, 320)], obs_digest: 0xce72e1220476b28e },
    Pin { case: "radix/f32/global/noagg/uniform", value_bits: 0xbea517d3, total_ns: 80005.15245283018, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 118165), ("reduce", 2, 49152), ("filter", 2, 38321), ("base_sort", 1, 60)], obs_digest: 0xf333506332ad661d },
    Pin { case: "radix/f32/global/noagg/dup16", value_bits: 0x40b00000, total_ns: 163980.25175202155, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 123795), ("reduce", 4, 55296), ("filter", 4, 48651)], obs_digest: 0xaa90032921110248 },
    Pin { case: "radix/f32/global/noagg/equal", value_bits: 0x41280000, total_ns: 251524.85175202158, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0x1a85afde9d05d2c0 },
    Pin { case: "radix/f32/global/noagg/lowent", value_bits: 0x43488000, total_ns: 94672.33520215635, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 161415), ("reduce", 2, 65536), ("filter", 2, 81863), ("base_sort", 1, 320)], obs_digest: 0x92c03b5675d8d162 },
    Pin { case: "radix/f32/global/agg/uniform", value_bits: 0xbea517d3, total_ns: 53554.99245283019, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 118165), ("reduce", 2, 49152), ("filter", 2, 38321), ("base_sort", 1, 60)], obs_digest: 0x0efcd72d5eae9176 },
    Pin { case: "radix/f32/global/agg/dup16", value_bits: 0x40b00000, total_ns: 52144.70900269541, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 123795), ("reduce", 4, 55296), ("filter", 4, 48651)], obs_digest: 0x06980e1322817025 },
    Pin { case: "radix/f32/global/agg/equal", value_bits: 0x41280000, total_ns: 57291.545013477094, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xf3d1fc80d0755bc9 },
    Pin { case: "radix/f32/global/agg/lowent", value_bits: 0x43488000, total_ns: 55767.856172506734, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 161415), ("reduce", 2, 65536), ("filter", 2, 81863), ("base_sort", 1, 320)], obs_digest: 0x8742012edd6bdf57 },
    Pin { case: "radix/f64/shared/noagg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 33534.23753369272, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 300207), ("reduce", 2, 61440), ("filter", 2, 110647), ("base_sort", 1, 1040)], obs_digest: 0x3be5e1a3406a4d2d },
    Pin { case: "radix/f64/shared/noagg/dup16", value_bits: 0x4016000000000000, total_ns: 121089.41101078168, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 427397), ("reduce", 8, 96256), ("filter", 8, 228953)], obs_digest: 0xcd2210da594d9b11 },
    Pin { case: "radix/f64/shared/noagg/equal", value_bits: 0x4025000000000000, total_ns: 151110.30080862535, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 1603840), ("reduce", 8, 327680), ("filter", 8, 1440640)], obs_digest: 0x72ced66b51d7f30c },
    Pin { case: "radix/f64/shared/noagg/lowent", value_bits: 0x4069100000000000, total_ns: 36764.348894878705, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 398080), ("reduce", 2, 81920), ("filter", 2, 199200), ("base_sort", 1, 1920)], obs_digest: 0xc9333c99fbfa533d },
    Pin { case: "radix/f64/shared/agg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 32986.36253369272, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 300207), ("reduce", 2, 61440), ("filter", 2, 110647), ("base_sort", 1, 1040)], obs_digest: 0xda8be79cdfe01932 },
    Pin { case: "radix/f64/shared/agg/dup16", value_bits: 0x4016000000000000, total_ns: 117359.14150943398, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 427397), ("reduce", 8, 96256), ("filter", 8, 228953)], obs_digest: 0xaa907bcf776758d3 },
    Pin { case: "radix/f64/shared/agg/equal", value_bits: 0x4025000000000000, total_ns: 144140.70080862538, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 1603840), ("reduce", 8, 327680), ("filter", 8, 1440640)], obs_digest: 0x85b9f8acb4a6ed28 },
    Pin { case: "radix/f64/shared/agg/lowent", value_bits: 0x4069100000000000, total_ns: 35743.208894878706, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 398080), ("reduce", 2, 81920), ("filter", 2, 199200), ("base_sort", 1, 1920)], obs_digest: 0xf41bb1bdf281d7cc },
    Pin { case: "radix/f64/global/noagg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 91787.90587601079, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 269487), ("reduce", 2, 61440), ("filter", 2, 110647), ("base_sort", 1, 1040)], obs_digest: 0x63e390d6c82a0ea4 },
    Pin { case: "radix/f64/global/noagg/dup16", value_bits: 0x4016000000000000, total_ns: 340418.14350404317, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 379269), ("reduce", 8, 96256), ("filter", 8, 228953)], obs_digest: 0xb59cebe5bce7185d },
    Pin { case: "radix/f64/global/noagg/equal", value_bits: 0x4025000000000000, total_ns: 500049.70350404317, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 1440000), ("reduce", 8, 327680), ("filter", 8, 1440640)], obs_digest: 0xb66cf7be6baca70f },
    Pin { case: "radix/f64/global/noagg/lowent", value_bits: 0x4069100000000000, total_ns: 104342.42587601079, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 357120), ("reduce", 2, 81920), ("filter", 2, 199200), ("base_sort", 1, 1920)], obs_digest: 0xff857c803ef72b74 },
    Pin { case: "radix/f64/global/agg/uniform", value_bits: 0xbfd4a2fa66cae224, total_ns: 50835.46253369273, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 269487), ("reduce", 2, 61440), ("filter", 2, 110647), ("base_sort", 1, 1040)], obs_digest: 0xebe8ed7b45c728e1 },
    Pin { case: "radix/f64/global/agg/dup16", value_bits: 0x4016000000000000, total_ns: 124038.0426954178, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 379269), ("reduce", 8, 96256), ("filter", 8, 228953)], obs_digest: 0xfb2072fa2a45a473 },
    Pin { case: "radix/f64/global/agg/equal", value_bits: 0x4025000000000000, total_ns: 142344.90566037735, launch_overhead_ns: 75000.0, levels: 8, early: true, error: None, kernels: &[("digit_count", 8, 1440000), ("reduce", 8, 327680), ("filter", 8, 1440640)], obs_digest: 0x7e09b6e192761c8b },
    Pin { case: "radix/f64/global/agg/lowent", value_bits: 0x4069100000000000, total_ns: 42578.15450134771, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 357120), ("reduce", 2, 81920), ("filter", 2, 199200), ("base_sort", 1, 1920)], obs_digest: 0xec0e3a5f4928bfb7 },
    Pin { case: "radix/u32/shared/noagg/uniform", value_bits: 0x551fa282, total_ns: 17428.24293800539, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20416), ("base_sort", 1, 336)], obs_digest: 0x012bbff14892e2f5 },
    Pin { case: "radix/u32/shared/noagg/dup16", value_bits: 0x5, total_ns: 61404.00169811321, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0xe5ca4cff713b4450 },
    Pin { case: "radix/u32/shared/noagg/equal", value_bits: 0x7, total_ns: 64117.145013477086, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xa978008e8583c12a },
    Pin { case: "radix/u32/shared/noagg/lowent", value_bits: 0x53, total_ns: 63245.07169811321, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 320640), ("base_sort", 1, 320)], obs_digest: 0xe7295e2604ff8f1c },
    Pin { case: "radix/u32/shared/agg/uniform", value_bits: 0x551fa282, total_ns: 17401.96293800539, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20416), ("base_sort", 1, 336)], obs_digest: 0x03a135f2db972834 },
    Pin { case: "radix/u32/shared/agg/dup16", value_bits: 0x5, total_ns: 58652.9716981132, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0xa18d03dda9a9ecd0 },
    Pin { case: "radix/u32/shared/agg/equal", value_bits: 0x7, total_ns: 60632.34501347708, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xcea417a170b618ff },
    Pin { case: "radix/u32/shared/agg/lowent", value_bits: 0x53, total_ns: 60631.4716981132, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 320640), ("base_sort", 1, 320)], obs_digest: 0x2596e5a7edd83e94 },
    Pin { case: "radix/u32/global/noagg/uniform", value_bits: 0x551fa282, total_ns: 42093.16981132075, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20416), ("base_sort", 1, 336)], obs_digest: 0x8098a1787f0340a5 },
    Pin { case: "radix/u32/global/noagg/dup16", value_bits: 0x5, total_ns: 226691.69175202158, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0x8eab30cf0e11f13f },
    Pin { case: "radix/u32/global/noagg/equal", value_bits: 0x7, total_ns: 251524.85175202158, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0x1a85afde9d05d2c0 },
    Pin { case: "radix/u32/global/noagg/lowent", value_bits: 0x53, total_ns: 228486.16172506742, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 320640), ("base_sort", 1, 320)], obs_digest: 0xc53c8606d2715787 },
    Pin { case: "radix/u32/global/agg/uniform", value_bits: 0x551fa282, total_ns: 40550.08981132075, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20416), ("base_sort", 1, 336)], obs_digest: 0x8fb8819a0f706bc4 },
    Pin { case: "radix/u32/global/agg/dup16", value_bits: 0x5, total_ns: 65303.431698113214, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0xe998c18b7ebf719c },
    Pin { case: "radix/u32/global/agg/equal", value_bits: 0x7, total_ns: 57291.545013477094, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xf3d1fc80d0755bc9 },
    Pin { case: "radix/u32/global/agg/lowent", value_bits: 0x53, total_ns: 82811.18167115904, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 320640), ("base_sort", 1, 320)], obs_digest: 0xbb172cd527d117ca },
    Pin { case: "radix/i32/shared/noagg/uniform", value_bits: 0xd4198ca6, total_ns: 17396.10703504043, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0x631285d3473f3792 },
    Pin { case: "radix/i32/shared/noagg/dup16", value_bits: 0xffffffa1, total_ns: 61404.00169811321, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0xe5ca4cff713b4450 },
    Pin { case: "radix/i32/shared/noagg/equal", value_bits: 0xffffffa3, total_ns: 64117.145013477086, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xa978008e8583c12a },
    Pin { case: "radix/i32/shared/noagg/lowent", value_bits: 0xffffffef, total_ns: 61564.47088948787, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 265056), ("reduce", 4, 90112), ("filter", 4, 140496), ("base_sort", 1, 320)], obs_digest: 0x6a8eb6cb2ea89244 },
    Pin { case: "radix/i32/shared/agg/uniform", value_bits: 0xd4198ca6, total_ns: 17370.09703504043, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0x3e4c913e3ee464a2 },
    Pin { case: "radix/i32/shared/agg/dup16", value_bits: 0xffffffa1, total_ns: 58652.9716981132, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0xa18d03dda9a9ecd0 },
    Pin { case: "radix/i32/shared/agg/equal", value_bits: 0xffffffa3, total_ns: 60632.34501347708, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 481920), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xcea417a170b618ff },
    Pin { case: "radix/i32/shared/agg/lowent", value_bits: 0xffffffef, total_ns: 59005.77088948787, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 265056), ("reduce", 4, 90112), ("filter", 4, 140496), ("base_sort", 1, 320)], obs_digest: 0xa6e4ca98b7c6337f },
    Pin { case: "radix/i32/global/noagg/uniform", value_bits: 0xd4198ca6, total_ns: 42090.09703504043, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0xf87fa0c469f2bf6c },
    Pin { case: "radix/i32/global/noagg/dup16", value_bits: 0xffffffa1, total_ns: 226691.69175202158, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0x8eab30cf0e11f13f },
    Pin { case: "radix/i32/global/noagg/equal", value_bits: 0xffffffa3, total_ns: 251524.85175202158, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0x1a85afde9d05d2c0 },
    Pin { case: "radix/i32/global/noagg/lowent", value_bits: 0xffffffef, total_ns: 212734.85175202158, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 220000), ("reduce", 4, 90112), ("filter", 4, 140496), ("base_sort", 1, 320)], obs_digest: 0xeec53203d74e887d },
    Pin { case: "radix/i32/global/agg/uniform", value_bits: 0xd4198ca6, total_ns: 40547.01703504043, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 100000), ("reduce", 1, 40960), ("filter", 1, 20340), ("base_sort", 1, 260)], obs_digest: 0x2729d4ac31d88f7f },
    Pin { case: "radix/i32/global/agg/dup16", value_bits: 0xffffffa1, total_ns: 65303.431698113214, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 325068)], obs_digest: 0xe998c18b7ebf719c },
    Pin { case: "radix/i32/global/agg/equal", value_bits: 0xffffffa3, total_ns: 57291.545013477094, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 400000), ("reduce", 4, 163840), ("filter", 4, 400320)], obs_digest: 0xf3d1fc80d0755bc9 },
    Pin { case: "radix/i32/global/agg/lowent", value_bits: 0xffffffef, total_ns: 81163.77088948787, launch_overhead_ns: 42000.0, levels: 4, early: false, error: None, kernels: &[("digit_count", 4, 220000), ("reduce", 4, 90112), ("filter", 4, 140496), ("base_sort", 1, 320)], obs_digest: 0xcc6814693b76a038 },
    Pin { case: "radix/f32/deep/uniform", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("reduce", 2, 712704), ("filter", 2, 583586), ("base_sort", 1, 1204)], obs_digest: 0xa5756bf7fcc03833 },
    Pin { case: "radix/u32/deep/lowent", value_bits: 0x53, total_ns: 94009.89858490565, launch_overhead_ns: 39000.0, levels: 4, early: true, error: None, kernels: &[("digit_count", 4, 7200128), ("reduce", 4, 2400256), ("filter", 4, 4809468)], obs_digest: 0xd5df9103c9bed562 },
    Pin { case: "radix/f32/max_levels0/uniform", value_bits: 0x0, total_ns: 0.0, launch_overhead_ns: 0.0, levels: 0, early: false, error: Some("RecursionLimit"), kernels: &[], obs_digest: 0x16ae23b822fed1bd },
    Pin { case: "radix/u32/budget1.5/uniform", value_bits: 0x551fa282, total_ns: 17428.24293800539, launch_overhead_ns: 15000.0, levels: 1, early: false, error: None, kernels: &[("digit_count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 20416), ("base_sort", 1, 336)], obs_digest: 0x012bbff14892e2f5 },
    Pin { case: "radix/u32/budget1.5/lowent", value_bits: 0x0, total_ns: 18279.286253369275, launch_overhead_ns: 12000.0, levels: 0, early: false, error: Some("RecursionLimit"), kernels: &[("digit_count", 1, 120480), ("reduce", 1, 40960), ("filter", 1, 100080)], obs_digest: 0x8ac9a3718ace3948 },
    Pin { case: "radix/f32/spot/corrupt0", value_bits: 0x0, total_ns: 10741.83, launch_overhead_ns: 6000.0, levels: 0, early: false, error: Some("histogram-sum"), kernels: &[("digit_count", 1, 1800032), ("corrupt:counts", 1, 0)], obs_digest: 0x7ef3000eb1b8d981 },
    Pin { case: "radix/f32/spot/corrupt1", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("corrupt:oracles", 1, 0), ("reduce", 2, 712704), ("filter", 2, 583586), ("base_sort", 1, 1204)], obs_digest: 0xde54e067bd8d8365 },
    Pin { case: "radix/f32/spot/corrupt2", value_bits: 0x0, total_ns: 27414.51559544229, launch_overhead_ns: 15000.0, levels: 0, early: false, error: Some("histogram-sum"), kernels: &[("digit_count", 2, 2137342), ("reduce", 1, 600064), ("filter", 1, 525964), ("corrupt:counts", 1, 0)], obs_digest: 0x93000fd7654d4061 },
    Pin { case: "radix/f32/spot/corrupt3", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("reduce", 2, 712704), ("filter", 2, 583586), ("corrupt:oracles", 1, 0), ("base_sort", 1, 1204)], obs_digest: 0xc0bc0f7bb7c29d8b },
    Pin { case: "radix/f32/spot/corrupt5", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("reduce", 2, 712704), ("filter", 2, 583586), ("base_sort", 1, 1204)], obs_digest: 0xa5756bf7fcc03833 },
    Pin { case: "radix/f32/unverified/corrupt0", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("corrupt:counts", 1, 0), ("reduce", 2, 712704), ("filter", 2, 583586), ("base_sort", 1, 1204)], obs_digest: 0x81921f02c00b707c },
    Pin { case: "radix/f32/unverified/corrupt1", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("corrupt:oracles", 1, 0), ("reduce", 2, 712704), ("filter", 2, 583586), ("base_sort", 1, 1204)], obs_digest: 0xde54e067bd8d8365 },
    Pin { case: "radix/f32/unverified/corrupt2", value_bits: 0xbeaa1726, total_ns: 38322.08671526587, launch_overhead_ns: 24000.0, levels: 2, early: false, error: None, kernels: &[("digit_count", 2, 2137342), ("reduce", 2, 712704), ("filter", 2, 583586), ("corrupt:counts", 1, 0), ("base_sort", 1, 1204)], obs_digest: 0xc0bc0f7bb7c29d8b },
];

#[test]
fn level_loops_charge_exactly_the_pinned_costs() {
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
