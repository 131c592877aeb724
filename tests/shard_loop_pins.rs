//! Exact simulated-cost pins for sharded selection.
//!
//! Every case partitions one input across K simulated V100s with
//! `sharded_select` and runs it twelve times: verify {off, paranoid} x
//! hedging {off, on} x rank {0, n/3, n - 1}, all without injected
//! faults. Each run contributes its answer's bits, the coordinator's
//! simulated time and link time (as bits), the bytes moved over the
//! interconnect, the levels visited, the stragglers hedged and the
//! number of resilience events; a case pins the FNV-1a digest of those
//! words over its twelve runs, as a literal.
//!
//! The grid covers {f32, u32} x {uniform, 16 distinct values, all equal,
//! low-entropy `i % 251`} inputs x n in {20,000, 300,000} x K in {1, 2,
//! 3, 4, 8}. Metrics-registry counters are not pinned.
//!
//! Any refactor of the shard coordinator must keep every pinned charge
//! bit-identical. On a mismatch the test prints the full observed table
//! in the literal format below.

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::element::SelectElement;
use gpu_selection::sampleselect::rng::SplitMix64;
use gpu_selection::sampleselect::{
    sharded_select, SampleSelectConfig, ShardConfig, ShardFaults, VerifyPolicy,
};

/// Input sizes of the grid: one sample level, and two.
const SIZES: [usize; 2] = [20_000, 300_000];
/// Shard counts of the grid.
const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

/// One pinned case.
struct Pin {
    case: &'static str,
    digest: u64,
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

/// The digest of one case's twelve runs.
fn observe_case<T: PinElement>(pool: &ThreadPool, input: &str, n: usize, shards: usize) -> u64 {
    let data = gen::<T>(input, n);
    let mut words = Vec::new();
    for verify in [VerifyPolicy::Off, VerifyPolicy::Paranoid] {
        let cfg = SampleSelectConfig::default().with_verify(verify);
        for hedge in [false, true] {
            let scfg = ShardConfig::default().with_shards(shards).with_hedge(hedge);
            for rank in [0, n / 3, n - 1] {
                let faults = ShardFaults::default();
                let res = sharded_select(&v100(), pool, &data, rank, &cfg, &scfg, &faults)
                    .unwrap_or_else(|e| panic!("{input} n={n} K={shards} rank {rank}: {e}"));
                let r = &res.report;
                words.extend([
                    res.outcome.value().to_bits_u64(),
                    r.sim_time.as_ns().to_bits(),
                    r.link_time.as_ns().to_bits(),
                    r.link_bytes,
                    r.levels as u64,
                    r.stragglers_hedged as u64,
                    r.events.log.len() as u64,
                ]);
            }
        }
    }
    digest(words)
}

/// Every case of the grid, in table order.
fn all_cases(pool: &ThreadPool) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for ty in ["f32", "u32"] {
        for input in ["uniform", "dup16", "equal", "lowent"] {
            for n in SIZES {
                for k in SHARDS {
                    let case = format!("{ty}/{input}/n{n}/k{k}");
                    let d = match ty {
                        "f32" => observe_case::<f32>(pool, input, n, k),
                        _ => observe_case::<u32>(pool, input, n, k),
                    };
                    out.push((case, d));
                }
            }
        }
    }
    out
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { case: "f32/uniform/n20000/k1", digest: 0x233a35ed1b6a2f3d },
    Pin { case: "f32/uniform/n20000/k2", digest: 0x375716b5a2aed779 },
    Pin { case: "f32/uniform/n20000/k3", digest: 0x361270e89c10c9e1 },
    Pin { case: "f32/uniform/n20000/k4", digest: 0xe1869719ec339621 },
    Pin { case: "f32/uniform/n20000/k8", digest: 0x3708d554f49a3869 },
    Pin { case: "f32/uniform/n300000/k1", digest: 0x8281baac961b1071 },
    Pin { case: "f32/uniform/n300000/k2", digest: 0x84ec38e112d7ada5 },
    Pin { case: "f32/uniform/n300000/k3", digest: 0x579514e290f024f9 },
    Pin { case: "f32/uniform/n300000/k4", digest: 0xcec0a43760b990dd },
    Pin { case: "f32/uniform/n300000/k8", digest: 0xdeab55c0bebc5715 },
    Pin { case: "f32/dup16/n20000/k1", digest: 0xdae018170ced9301 },
    Pin { case: "f32/dup16/n20000/k2", digest: 0x51c6446520654969 },
    Pin { case: "f32/dup16/n20000/k3", digest: 0x799ba06f8d2d051d },
    Pin { case: "f32/dup16/n20000/k4", digest: 0x1d12bd55884b4fd1 },
    Pin { case: "f32/dup16/n20000/k8", digest: 0xc71860b1b24163c1 },
    Pin { case: "f32/dup16/n300000/k1", digest: 0x775d69c20e42da41 },
    Pin { case: "f32/dup16/n300000/k2", digest: 0x40f74d21693f4181 },
    Pin { case: "f32/dup16/n300000/k3", digest: 0xfc0b670cd17f54c5 },
    Pin { case: "f32/dup16/n300000/k4", digest: 0x8a457577c0c02d3d },
    Pin { case: "f32/dup16/n300000/k8", digest: 0x5782c4f8c68e5bc9 },
    Pin { case: "f32/equal/n20000/k1", digest: 0xa4a0689351b625dd },
    Pin { case: "f32/equal/n20000/k2", digest: 0x8658dccff9796eb1 },
    Pin { case: "f32/equal/n20000/k3", digest: 0x18a3ec5ebe884a81 },
    Pin { case: "f32/equal/n20000/k4", digest: 0x6a25673a67c044dd },
    Pin { case: "f32/equal/n20000/k8", digest: 0xfd630b2cc92379a1 },
    Pin { case: "f32/equal/n300000/k1", digest: 0xedbf1c736dbc4b65 },
    Pin { case: "f32/equal/n300000/k2", digest: 0xd9e05b59a88002b1 },
    Pin { case: "f32/equal/n300000/k3", digest: 0x96f2df37af66c615 },
    Pin { case: "f32/equal/n300000/k4", digest: 0x77f4e90e3b06bcb9 },
    Pin { case: "f32/equal/n300000/k8", digest: 0x8cf44b9789edd635 },
    Pin { case: "f32/lowent/n20000/k1", digest: 0x5c797e40d2fe5dcd },
    Pin { case: "f32/lowent/n20000/k2", digest: 0x69359c63ac9b4f25 },
    Pin { case: "f32/lowent/n20000/k3", digest: 0x176c98e33531b639 },
    Pin { case: "f32/lowent/n20000/k4", digest: 0xd9fd5933616a6fc9 },
    Pin { case: "f32/lowent/n20000/k8", digest: 0x3faaebe9b6eb9f29 },
    Pin { case: "f32/lowent/n300000/k1", digest: 0xaf247ac9c8424a95 },
    Pin { case: "f32/lowent/n300000/k2", digest: 0x81a1ee3318d748f1 },
    Pin { case: "f32/lowent/n300000/k3", digest: 0x1424e4736a299d21 },
    Pin { case: "f32/lowent/n300000/k4", digest: 0x9a8f5f0a194b709d },
    Pin { case: "f32/lowent/n300000/k8", digest: 0xddcd5a89dc467fbd },
    Pin { case: "u32/uniform/n20000/k1", digest: 0x9341499811e74de1 },
    Pin { case: "u32/uniform/n20000/k2", digest: 0xa02e4430dba32b09 },
    Pin { case: "u32/uniform/n20000/k3", digest: 0x17907584eeb7682d },
    Pin { case: "u32/uniform/n20000/k4", digest: 0xdbdc4657a892d735 },
    Pin { case: "u32/uniform/n20000/k8", digest: 0x218b14bedd69463d },
    Pin { case: "u32/uniform/n300000/k1", digest: 0x641e3dce8da0cdf5 },
    Pin { case: "u32/uniform/n300000/k2", digest: 0xdb2b931416b403b5 },
    Pin { case: "u32/uniform/n300000/k3", digest: 0x9f326257b999e6c1 },
    Pin { case: "u32/uniform/n300000/k4", digest: 0x4f4be2a191b4e7a1 },
    Pin { case: "u32/uniform/n300000/k8", digest: 0xe7485ee01003dcc1 },
    Pin { case: "u32/dup16/n20000/k1", digest: 0x19f95b8c69b0ea11 },
    Pin { case: "u32/dup16/n20000/k2", digest: 0x59a3178ee46a7cfd },
    Pin { case: "u32/dup16/n20000/k3", digest: 0x5a8c2338f6010ce5 },
    Pin { case: "u32/dup16/n20000/k4", digest: 0x3c6b54c71703685d },
    Pin { case: "u32/dup16/n20000/k8", digest: 0x241aa236d8ab8331 },
    Pin { case: "u32/dup16/n300000/k1", digest: 0x450053788ab631dd },
    Pin { case: "u32/dup16/n300000/k2", digest: 0x98226d55cd61b015 },
    Pin { case: "u32/dup16/n300000/k3", digest: 0xae43a16796f225bd },
    Pin { case: "u32/dup16/n300000/k4", digest: 0x60c7f7b9ef7de04d },
    Pin { case: "u32/dup16/n300000/k8", digest: 0x38954fed96b0b3c1 },
    Pin { case: "u32/equal/n20000/k1", digest: 0xb1b7ff824a62ec0d },
    Pin { case: "u32/equal/n20000/k2", digest: 0xf2440dbc7f23fd91 },
    Pin { case: "u32/equal/n20000/k3", digest: 0x10a224289677d5e9 },
    Pin { case: "u32/equal/n20000/k4", digest: 0x7c50e3eb801cb6d5 },
    Pin { case: "u32/equal/n20000/k8", digest: 0x824a4bf01c80fc7d },
    Pin { case: "u32/equal/n300000/k1", digest: 0x281407321cff72a1 },
    Pin { case: "u32/equal/n300000/k2", digest: 0xe089c24f21c176d5 },
    Pin { case: "u32/equal/n300000/k3", digest: 0xfe259c6ea785eee5 },
    Pin { case: "u32/equal/n300000/k4", digest: 0x9c479ecdbda754d9 },
    Pin { case: "u32/equal/n300000/k8", digest: 0x18a8f9a4bc596585 },
    Pin { case: "u32/lowent/n20000/k1", digest: 0xb7128e2c7bd1ac6d },
    Pin { case: "u32/lowent/n20000/k2", digest: 0x868991e66b80f179 },
    Pin { case: "u32/lowent/n20000/k3", digest: 0x148cab9bbfa759d1 },
    Pin { case: "u32/lowent/n20000/k4", digest: 0x38cb295f06161075 },
    Pin { case: "u32/lowent/n20000/k8", digest: 0xee6f1999e47ac40d },
    Pin { case: "u32/lowent/n300000/k1", digest: 0x3728bb92d3f5a4a5 },
    Pin { case: "u32/lowent/n300000/k2", digest: 0x66c020a099f32ba5 },
    Pin { case: "u32/lowent/n300000/k3", digest: 0xe2227ff7b6eb065d },
    Pin { case: "u32/lowent/n300000/k4", digest: 0x3eceabcd1ca67791 },
    Pin { case: "u32/lowent/n300000/k8", digest: 0x4274c7777c2c0145 },
];

#[test]
fn sharded_select_charges_exactly_the_pinned_costs() {
    let pool = ThreadPool::new(2);
    let observed = all_cases(&pool);
    let mut mismatched = Vec::new();
    for (i, (case, d)) in observed.iter().enumerate() {
        match PINS.get(i) {
            Some(pin) if pin.case == case && pin.digest == *d => {}
            _ => mismatched.push(case.clone()),
        }
    }
    if !mismatched.is_empty() || PINS.len() != observed.len() {
        let table: Vec<String> = observed
            .iter()
            .map(|(c, d)| format!("    Pin {{ case: {c:?}, digest: {d:#018x} }},"))
            .collect();
        panic!(
            "{} of {} cases drifted from their pins: {:?}\nobserved table:\n{}",
            mismatched.len(),
            observed.len(),
            mismatched,
            table.join("\n")
        );
    }
}
