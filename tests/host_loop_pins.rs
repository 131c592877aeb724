//! Exact answer pins for the host backend (`sampleselect::cpu`).
//!
//! Every case runs the four host entry points on one input and pins, as
//! literals:
//!
//! * `cpu_sample_select`: the value's bit pattern and its
//!   `CpuSelectStats` (levels, elements scanned, early exit);
//! * `cpu_top_k` with `k = rank + 1`: the threshold's bit pattern and a
//!   digest of the output's bit-pattern multiset (its sorted bits,
//!   hashed without sorting);
//! * `cpu_multi_select` over all five ranks at once: the values;
//! * `cpu_approx_select`: the value and its achieved rank.
//!
//! The grid covers uniform, 16-distinct-value, all-equal and sorted
//! `f32` inputs of n in {1, 100, 8193, 2^17, 2^20}, five ranks per input
//! and two sampling seeds on the default configuration, and the same up
//! to 2^17 on a small configuration that recurses up to three levels
//! deep. Each case runs on a 1-thread and a 4-thread pool, and both
//! must agree with the pin: the host backend's answers and statistics
//! do not depend on the pool width.
//!
//! On a mismatch the test prints the full observed table in the literal
//! format below; paste it back only for an intended change of answers.

use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::cpu::{
    cpu_approx_select, cpu_multi_select, cpu_sample_select, cpu_top_k, CpuSelectConfig,
};
use gpu_selection::sampleselect::rng::SplitMix64;

const INPUTS: [&str; 4] = ["uniform", "dup16", "equal", "sorted"];
const SIZES: [usize; 5] = [1, 100, 8193, 1 << 17, 1 << 20];
const SEEDS: [u64; 2] = [1, 2];

/// One pinned case.
struct Pin {
    case: &'static str,
    /// Per rank: value bits, levels, elements scanned, early exit.
    select: [(u32, u32, u64, bool); 5],
    /// Per `k = rank + 1`: threshold bits, multiset digest of the output.
    topk: [(u32, u64); 5],
    /// The five ranks in one call.
    multi: [u32; 5],
    /// Per rank: value bits, achieved rank.
    approx: [(u32, u64); 5],
}

/// What one case produced, in the shape of a [`Pin`].
#[derive(Debug, PartialEq)]
struct Observed {
    select: [(u32, u32, u64, bool); 5],
    topk: [(u32, u64); 5],
    multi: [u32; 5],
    approx: [(u32, u64); 5],
}

impl Observed {
    fn matches(&self, pin: &Pin) -> bool {
        self.select == pin.select
            && self.topk == pin.topk
            && self.multi == pin.multi
            && self.approx == pin.approx
    }

    fn literal(&self, case: &str) -> String {
        let select: Vec<String> = self
            .select
            .iter()
            .map(|(v, l, s, e)| format!("({v:#x}, {l}, {s}, {e})"))
            .collect();
        let topk: Vec<String> = self
            .topk
            .iter()
            .map(|(t, d)| format!("({t:#x}, {d:#018x})"))
            .collect();
        let multi: Vec<String> = self.multi.iter().map(|v| format!("{v:#x}")).collect();
        let approx: Vec<String> = self
            .approx
            .iter()
            .map(|(v, r)| format!("({v:#x}, {r})"))
            .collect();
        format!(
            "    Pin {{ case: {case:?}, select: [{}], topk: [{}], multi: [{}], approx: [{}] }},",
            select.join(", "),
            topk.join(", "),
            multi.join(", "),
            approx.join(", "),
        )
    }
}

/// An order-free digest of a bit-pattern multiset: the wrapping sum of
/// each pattern's SplitMix64 finalizer. Equal multisets (equal sorted
/// bit lists) give equal digests, whatever order the output comes in.
fn multiset_digest(elements: &[f32]) -> u64 {
    let mix = |bits: u32| {
        let mut z = (bits as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let sum = elements.iter().map(|x| mix(x.to_bits()));
    sum.fold(0u64, u64::wrapping_add)
}

fn gen(input: &str, n: usize) -> Vec<f32> {
    let mut rng = SplitMix64::new(0x4057_1009);
    (0..n)
        .map(|i| match input {
            "uniform" => rng.next_f64() as f32 * 2.0 - 1.0,
            "dup16" => rng.next_below(16) as f32 * 2.5 - 7.0,
            "equal" => 3.25,
            "sorted" => i as f32 * 0.5 - 1000.0,
            _ => unreachable!("unknown input {input}"),
        })
        .collect()
}

/// The configurations of the grid and the largest input each runs.
fn configs() -> [(&'static str, CpuSelectConfig, usize); 2] {
    let deep = CpuSelectConfig {
        num_buckets: 16,
        oversampling: 2,
        base_case_size: 64,
        ..CpuSelectConfig::default()
    };
    [
        ("default", CpuSelectConfig::default(), 1 << 20),
        ("deep", deep, 1 << 17),
    ]
}

fn ranks(n: usize) -> [usize; 5] {
    [0, n / 4, n / 2, 3 * n / 4, n - 1]
}

fn observe(pool: &ThreadPool, data: &[f32], cfg: &CpuSelectConfig) -> Observed {
    let ranks = ranks(data.len());
    let select = ranks.map(|r| {
        let (v, stats) = cpu_sample_select(pool, data, r, cfg).unwrap();
        let early = stats.terminated_early;
        (v.to_bits(), stats.levels, stats.elements_scanned, early)
    });
    let topk = ranks.map(|r| {
        let (elements, threshold) = cpu_top_k(pool, data, r + 1, cfg).unwrap();
        assert_eq!(elements.len(), r + 1, "top-k returns exactly k elements");
        (threshold.to_bits(), multiset_digest(&elements))
    });
    let values = cpu_multi_select(pool, data, &ranks, cfg).unwrap();
    let multi = std::array::from_fn(|i| values[i].to_bits());
    let approx = ranks.map(|r| {
        let (v, achieved) = cpu_approx_select(pool, data, r, cfg).unwrap();
        (v.to_bits(), achieved)
    });
    Observed {
        select,
        topk,
        multi,
        approx,
    }
}

/// Every case of the grid, in table order, checked for agreement
/// between the two pool widths.
fn all_cases(pools: &[ThreadPool; 2]) -> Vec<(String, Observed)> {
    let mut out = Vec::new();
    for (name, base, max_n) in configs() {
        for input in INPUTS {
            for n in SIZES.into_iter().filter(|&n| n <= max_n) {
                let data = gen(input, n);
                for seed in SEEDS {
                    let cfg = CpuSelectConfig {
                        seed,
                        ..base.clone()
                    };
                    let case = format!("{name}/{input}/{n}/s{seed}");
                    let narrow = observe(&pools[0], &data, &cfg);
                    let wide = observe(&pools[1], &data, &cfg);
                    assert_eq!(narrow, wide, "{case}: 1 and 4 threads disagree");
                    out.push((case, narrow));
                }
            }
        }
    }
    out
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { case: "default/uniform/1/s1", select: [(0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false)], topk: [(0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935)], multi: [0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80], approx: [(0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0)] },
    Pin { case: "default/uniform/1/s2", select: [(0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false)], topk: [(0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935)], multi: [0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80], approx: [(0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0)] },
    Pin { case: "default/uniform/100/s1", select: [(0xbf7a13b2, 0, 0, false), (0xbf080acf, 0, 0, false), (0xbc7764c0, 0, 0, false), (0x3f25c404, 0, 0, false), (0x3f7ac6e8, 0, 0, false)], topk: [(0x3f7ac6e8, 0xcd419fd7124e7fc3), (0x3ef5f858, 0xdf47ebcc26a299b3), (0xbcb93760, 0x6048100116b06729), (0xbf1da34d, 0x427f66cd29502e56), (0xbf7a13b2, 0xede9e6669ef5384e)], multi: [0xbf7a13b2, 0xbf080acf, 0xbc7764c0, 0x3f25c404, 0x3f7ac6e8], approx: [(0xbf7a13b2, 0), (0xbf1da34c, 25), (0xbcb9375f, 50), (0x3ef5f859, 75), (0x3f798ac9, 99)] },
    Pin { case: "default/uniform/100/s2", select: [(0xbf7a13b2, 0, 0, false), (0xbf080acf, 0, 0, false), (0xbc7764c0, 0, 0, false), (0x3f25c404, 0, 0, false), (0x3f7ac6e8, 0, 0, false)], topk: [(0x3f7ac6e8, 0xcd419fd7124e7fc3), (0x3ef5f858, 0xdf47ebcc26a299b3), (0xbcb93760, 0x6048100116b06729), (0xbf1da34d, 0x427f66cd29502e56), (0xbf7a13b2, 0xede9e6669ef5384e)], multi: [0xbf7a13b2, 0xbf080acf, 0xbc7764c0, 0x3f25c404, 0x3f7ac6e8], approx: [(0xbf7a13b2, 0), (0xbf1da34c, 25), (0xbcb9375f, 50), (0x3f25c404, 75), (0x3f798ac9, 99)] },
    Pin { case: "default/uniform/8193/s1", select: [(0xbf7fdbe7, 1, 8193, false), (0xbf00978c, 1, 8193, false), (0xbc2da400, 1, 8193, false), (0x3f02a9c0, 1, 8193, false), (0x3f7fe272, 1, 8193, false)], topk: [(0x3f7fe272, 0x2df7954657f888d9), (0x3f02a9c0, 0x32330023f963f3bf), (0xbc2da400, 0x5de6cda8e6ffe0d8), (0xbf00978c, 0x5cef3f5523667401), (0xbf7fdbe7, 0x902cd7970c01ecb0)], multi: [0xbf7fdbe7, 0xbf00978c, 0xbc2da400, 0x3f02a9c0, 0x3f7fe272], approx: [(0xbf79c3b7, 94), (0xbeff8844, 2061), (0xbc37ca00, 4093), (0x3f02c0e2, 6145), (0x3f7e7510, 8169)] },
    Pin { case: "default/uniform/8193/s2", select: [(0xbf7fdbe7, 1, 8193, false), (0xbf00978c, 1, 8193, false), (0xbc2da400, 1, 8193, false), (0x3f02a9c0, 1, 8193, false), (0x3f7fe272, 1, 8193, false)], topk: [(0x3f7fe272, 0x2df7954657f888d9), (0x3f02a9c0, 0x32330023f963f3bf), (0xbc2da400, 0x5de6cda8e6ffe0d8), (0xbf00978c, 0x5cef3f5523667401), (0xbf7fdbe7, 0x902cd7970c01ecb0)], multi: [0xbf7fdbe7, 0xbf00978c, 0xbc2da400, 0x3f02a9c0, 0x3f7fe272], approx: [(0xbf7c6795, 51), (0xbf000482, 2055), (0xbc3e4180, 4091), (0x3f01a540, 6132), (0x3f7ce77a, 8144)] },
    Pin { case: "default/uniform/131072/s1", select: [(0xbf7fff51, 1, 131072, false), (0xbf00c4ce, 1, 131072, false), (0xbbb71900, 1, 131072, false), (0x3eff8598, 1, 131072, false), (0x3f7fff9a, 1, 131072, false)], topk: [(0x3f7fff9a, 0x4ef13506768c3f14), (0x3eff8510, 0x201897bcb396e212), (0xbbb7ca00, 0xd56189f059ae77ea), (0xbf00c559, 0x5dba47887a1d3559), (0xbf7fff51, 0xefee6ed6dfe0e4fb)], multi: [0xbf7fff51, 0xbf00c4ce, 0xbbb71900, 0x3eff8598, 0x3f7fff9a], approx: [(0xbf7df18c, 487), (0xbf00c8fc, 32761), (0xbbc9d100, 65488), (0x3efdb424, 98066), (0x3f7c78ae, 130190)] },
    Pin { case: "default/uniform/131072/s2", select: [(0xbf7fff51, 1, 131072, false), (0xbf00c4ce, 1, 131072, false), (0xbbb71900, 1, 131072, false), (0x3eff8598, 1, 131072, false), (0x3f7fff9a, 1, 131072, false)], topk: [(0x3f7fff9a, 0x4ef13506768c3f14), (0x3eff8510, 0x201897bcb396e212), (0xbbb7ca00, 0xd56189f059ae77ea), (0xbf00c559, 0x5dba47887a1d3559), (0xbf7fff51, 0xefee6ed6dfe0e4fb)], multi: [0xbf7fff51, 0xbf00c4ce, 0xbbb71900, 0x3eff8598, 0x3f7fff9a], approx: [(0xbf7d5b94, 638), (0xbf00f74a, 32712), (0xbbddb380, 65449), (0x3eff768c, 98294), (0x3f7e3348, 130652)] },
    Pin { case: "default/uniform/1048576/s1", select: [(0xbf7fff93, 1, 1048576, false), (0xbf000898, 2, 1056997, false), (0xba35e000, 1, 1048576, false), (0x3effe5cc, 1, 1048576, false), (0x3f7fffe4, 1, 1048576, false)], topk: [(0x3f7fffe4, 0x5b7a808e6a9d21c1), (0x3effe57c, 0xb522fb44a914066f), (0xba38e800, 0x56790ca048ff2f94), (0xbf0008ee, 0x896912a9ec45b9f4), (0xbf7fff93, 0x62ecfe6399989baa)], multi: [0xbf7fff93, 0xbf000898, 0xba35e000, 0x3effe5cc, 0x3f7fffe4], approx: [(0xbf7ce9f4, 6154), (0xbefcc5de, 265485), (0xb9bd5000, 524492), (0x3eff9fd0, 786129), (0x3f7fb458, 1048009)] },
    Pin { case: "default/uniform/1048576/s2", select: [(0xbf7fff93, 2, 1057524, false), (0xbf000898, 2, 1056986, false), (0xba35e000, 1, 1048576, false), (0x3effe5cc, 1, 1048576, false), (0x3f7fffe4, 1, 1048576, false)], topk: [(0x3f7fffe4, 0x5b7a808e6a9d21c1), (0x3effe57c, 0xb522fb44a914066f), (0xba38e800, 0x56790ca048ff2f94), (0xbf0008ee, 0x896912a9ec45b9f4), (0xbf7fff93, 0x62ecfe6399989baa)], multi: [0xbf7fff93, 0xbf000898, 0xba35e000, 0x3effe5cc, 0x3f7fffe4], approx: [(0xbf7b9162, 8948), (0xbefdad44, 264579), (0xb9843800, 524555), (0x3f005e7c, 787282), (0x3f7c2dc4, 1040758)] },
    Pin { case: "default/dup16/1/s1", select: [(0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false)], topk: [(0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe)], multi: [0x41280000, 0x41280000, 0x41280000, 0x41280000, 0x41280000], approx: [(0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0)] },
    Pin { case: "default/dup16/1/s2", select: [(0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false)], topk: [(0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe)], multi: [0x41280000, 0x41280000, 0x41280000, 0x41280000, 0x41280000], approx: [(0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0)] },
    Pin { case: "default/dup16/100/s1", select: [(0xc0e00000, 0, 0, false), (0x3f000000, 0, 0, false), (0x41280000, 0, 0, false), (0x41cc0000, 0, 0, false), (0x41f40000, 0, 0, false)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0x418773739a155c37), (0x41280000, 0xb9b6dd840fed53c3), (0x3f000000, 0xb4fbab5d42ce79f2), (0xc0e00000, 0x852b53deeeee4276)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41cc0000, 0x41f40000], approx: [(0xc0e00000, 0), (0xbfffffff, 23), (0x41280001, 52), (0x41a40001, 75), (0x41f40001, 100)] },
    Pin { case: "default/dup16/100/s2", select: [(0xc0e00000, 0, 0, false), (0x3f000000, 0, 0, false), (0x41280000, 0, 0, false), (0x41cc0000, 0, 0, false), (0x41f40000, 0, 0, false)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0x418773739a155c37), (0x41280000, 0xb9b6dd840fed53c3), (0x3f000000, 0xb4fbab5d42ce79f2), (0xc0e00000, 0x852b53deeeee4276)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41cc0000, 0x41f40000], approx: [(0xc0e00000, 0), (0xbfffffff, 23), (0x41280001, 52), (0x41a40001, 75), (0x41f40001, 100)] },
    Pin { case: "default/dup16/8193/s1", select: [(0xc0e00000, 1, 8193, true), (0x3f000000, 1, 8193, true), (0x41280000, 1, 8193, true), (0x41b80000, 1, 8193, true), (0x41f40000, 1, 8193, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41b80000, 0x824b3f89a13ff0f1), (0x41280000, 0x7b7bf2011d33b3e7), (0x3f000000, 0x632b7b99aad9f396), (0xc0e00000, 0xdede500ecf987950)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41b80000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000001, 2056), (0x41280001, 4139), (0x41a40001, 6109), (0x41f40001, 8193)] },
    Pin { case: "default/dup16/8193/s2", select: [(0xc0e00000, 1, 8193, true), (0x3f000000, 1, 8193, true), (0x41280000, 1, 8193, true), (0x41b80000, 1, 8193, true), (0x41f40000, 1, 8193, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41b80000, 0x824b3f89a13ff0f1), (0x41280000, 0x7b7bf2011d33b3e7), (0x3f000000, 0x632b7b99aad9f396), (0xc0e00000, 0xdede500ecf987950)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41b80000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000001, 2056), (0x41280001, 4139), (0x41a40001, 6109), (0x41f40001, 8193)] },
    Pin { case: "default/dup16/131072/s1", select: [(0xc0e00000, 1, 131072, true), (0x3f000000, 1, 131072, true), (0x41280000, 1, 131072, true), (0x41a40000, 1, 131072, true), (0x41f40000, 1, 131072, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0xb71b9b7cf04ec020), (0x41280000, 0xd3c1768df1fc2381), (0x3f000000, 0x1376f7a22aa025a1), (0xc0e00000, 0xa0551f10a5e8dcb0)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41a40000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000001, 32959), (0x41280001, 65900), (0x41a40001, 98379), (0x41f40001, 131072)] },
    Pin { case: "default/dup16/131072/s2", select: [(0xc0e00000, 1, 131072, true), (0x3f000000, 1, 131072, true), (0x41280000, 1, 131072, true), (0x41a40000, 1, 131072, true), (0x41f40000, 1, 131072, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0xb71b9b7cf04ec020), (0x41280000, 0xd3c1768df1fc2381), (0x3f000000, 0x1376f7a22aa025a1), (0xc0e00000, 0xa0551f10a5e8dcb0)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41a40000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000001, 32959), (0x41280001, 65900), (0x41a40001, 98379), (0x41f40001, 131072)] },
    Pin { case: "default/dup16/1048576/s1", select: [(0xc0e00000, 1, 1048576, true), (0x3f000000, 1, 1048576, true), (0x41280000, 1, 1048576, true), (0x41a40000, 1, 1048576, true), (0x41f40000, 1, 1048576, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0x67ef83d95b68b46d), (0x41280000, 0x9c4e59ccd9af1995), (0x3f000000, 0xf1477a4e67b8914c), (0xc0e00000, 0x69d65c1ccd56a0c3)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41a40000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000001, 262228), (0x41280001, 524682), (0x41a40001, 786530), (0x41f40001, 1048576)] },
    Pin { case: "default/dup16/1048576/s2", select: [(0xc0e00000, 1, 1048576, true), (0x3f000000, 1, 1048576, true), (0x41280000, 1, 1048576, true), (0x41a40000, 1, 1048576, true), (0x41f40000, 1, 1048576, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0x67ef83d95b68b46d), (0x41280000, 0x9c4e59ccd9af1995), (0x3f000000, 0xf1477a4e67b8914c), (0xc0e00000, 0x69d65c1ccd56a0c3)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41a40000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000001, 262228), (0x41280001, 524682), (0x41a40001, 786530), (0x41f40001, 1048576)] },
    Pin { case: "default/equal/1/s1", select: [(0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0)] },
    Pin { case: "default/equal/1/s2", select: [(0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0)] },
    Pin { case: "default/equal/100/s1", select: [(0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xe911076fa91d0e28), (0x40500000, 0x357a04bd7cf411ec), (0x40500000, 0x81e3020b50cb15b0), (0x40500000, 0x31a3f5374f5c0f10)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 100), (0x40500001, 100)] },
    Pin { case: "default/equal/100/s2", select: [(0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xe911076fa91d0e28), (0x40500000, 0x357a04bd7cf411ec), (0x40500000, 0x81e3020b50cb15b0), (0x40500000, 0x31a3f5374f5c0f10)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 100), (0x40500001, 100)] },
    Pin { case: "default/equal/8193/s1", select: [(0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xdcf918cc05992a64), (0x40500000, 0x1d4a277635ec4a64), (0x40500000, 0x5d9b3620663f6a64), (0x40500000, 0x9dec44ca96928a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 8193), (0x40500001, 8193)] },
    Pin { case: "default/equal/8193/s2", select: [(0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xdcf918cc05992a64), (0x40500000, 0x1d4a277635ec4a64), (0x40500000, 0x5d9b3620663f6a64), (0x40500000, 0x9dec44ca96928a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 8193), (0x40500001, 8193)] },
    Pin { case: "default/equal/131072/s1", select: [(0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xa1b8f4c4da780a64), (0x40500000, 0xa6c9df67dfaa0a64), (0x40500000, 0xabdaca0ae4dc0a64), (0x40500000, 0x1443aa8c14c80000)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 131072), (0x40500001, 131072)] },
    Pin { case: "default/equal/131072/s2", select: [(0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xa1b8f4c4da780a64), (0x40500000, 0xa6c9df67dfaa0a64), (0x40500000, 0xabdaca0ae4dc0a64), (0x40500000, 0x1443aa8c14c80000)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 131072), (0x40500001, 131072)] },
    Pin { case: "default/equal/1048576/s1", select: [(0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xc52f5f39fed60a64), (0x40500000, 0xedb6b45228660a64), (0x40500000, 0x163e096a51f60a64), (0x40500000, 0xa21d5460a6400000)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 1048576), (0x40500001, 1048576)] },
    Pin { case: "default/equal/1048576/s2", select: [(0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true), (0x40500000, 1, 1048576, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xc52f5f39fed60a64), (0x40500000, 0xedb6b45228660a64), (0x40500000, 0x163e096a51f60a64), (0x40500000, 0xa21d5460a6400000)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 1048576), (0x40500001, 1048576)] },
    Pin { case: "default/sorted/1/s1", select: [(0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false)], topk: [(0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e)], multi: [0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000], approx: [(0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0)] },
    Pin { case: "default/sorted/1/s2", select: [(0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false)], topk: [(0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e)], multi: [0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000], approx: [(0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0)] },
    Pin { case: "default/sorted/100/s1", select: [(0xc47a0000, 0, 0, false), (0xc476e000, 0, 0, false), (0xc473c000, 0, 0, false), (0xc470a000, 0, 0, false), (0xc46da000, 0, 0, false)], topk: [(0xc46da000, 0x903c1b98d943b7fa), (0xc470c000, 0xeac3f7dfc6588a52), (0xc473e000, 0xfd0f0edac12c10c0), (0xc4770000, 0x60fc57071ba88e1a), (0xc47a0000, 0x77764bd64085d983)], multi: [0xc47a0000, 0xc476e000, 0xc473c000, 0xc470a000, 0xc46da000], approx: [(0xc47a0000, 0), (0xc476ffff, 25), (0xc473c000, 50), (0xc470bfff, 75), (0xc46da000, 99)] },
    Pin { case: "default/sorted/100/s2", select: [(0xc47a0000, 0, 0, false), (0xc476e000, 0, 0, false), (0xc473c000, 0, 0, false), (0xc470a000, 0, 0, false), (0xc46da000, 0, 0, false)], topk: [(0xc46da000, 0x903c1b98d943b7fa), (0xc470c000, 0xeac3f7dfc6588a52), (0xc473e000, 0xfd0f0edac12c10c0), (0xc4770000, 0x60fc57071ba88e1a), (0xc47a0000, 0x77764bd64085d983)], multi: [0xc47a0000, 0xc476e000, 0xc473c000, 0xc470a000, 0xc46da000], approx: [(0xc47a0000, 0), (0xc476ffff, 25), (0xc473dfff, 50), (0xc470bfff, 75), (0xc46dbfff, 99)] },
    Pin { case: "default/sorted/8193/s1", select: [(0xc47a0000, 1, 8193, false), (0x41c00000, 1, 8193, false), (0x44830000, 1, 8193, false), (0x45018000, 1, 8193, false), (0x45418000, 1, 8193, false)], topk: [(0x45418000, 0x6b80e41373734c77), (0x45018000, 0x6c6cba648b1d8e4a), (0x44830000, 0x7ef92e47eea8e458), (0x41c00000, 0x2e0ef4a7479eb5da), (0xc47a0000, 0x9dd4c3e979b6d9df)], multi: [0xc47a0000, 0x41c00000, 0x44830000, 0x45018000, 0x45418000], approx: [(0xc4772000, 23), (0x41bc0000, 2047), (0x44835000, 4101), (0x45018000, 6144), (0x4540b000, 8166)] },
    Pin { case: "default/sorted/8193/s2", select: [(0xc47a0000, 1, 8193, false), (0x41c00000, 1, 8193, false), (0x44830000, 1, 8193, false), (0x45018000, 1, 8193, false), (0x45418000, 1, 8193, false)], topk: [(0x45418000, 0x6b80e41373734c77), (0x45018000, 0x6c6cba648b1d8e4a), (0x44830000, 0x7ef92e47eea8e458), (0x41c00000, 0x2e0ef4a7479eb5da), (0xc47a0000, 0x9dd4c3e979b6d9df)], multi: [0xc47a0000, 0x41c00000, 0x44830000, 0x45018000, 0x45418000], approx: [(0xc477c000, 18), (0x41a00000, 2040), (0x4482f000, 4095), (0x45010800, 6129), (0x453ee800, 8109)] },
    Pin { case: "default/sorted/131072/s1", select: [(0xc47a0000, 1, 131072, false), (0x46706000, 1, 131072, false), (0x46f83000, 1, 131072, false), (0x473c1800, 1, 131072, false), (0x477c1780, 1, 131072, false)], topk: [(0x477c1780, 0xa4651499f1cfd307), (0x473c1780, 0xdb772f5e3e31c7db), (0x46f82f00, 0x56969a7ab7409b7d), (0x46705e00, 0xf9624e2fb5e7cec1), (0xc47a0000, 0x526685a4ad37310a)], multi: [0xc47a0000, 0x46706000, 0x46f83000, 0x473c1800, 0x477c1780], approx: [(0xc44be000, 369), (0x46705600, 32763), (0x46f87a00, 65610), (0x473c1700, 98302), (0x477b4680, 130653)] },
    Pin { case: "default/sorted/131072/s2", select: [(0xc47a0000, 1, 131072, false), (0x46706000, 1, 131072, false), (0x46f83000, 1, 131072, false), (0x473c1800, 1, 131072, false), (0x477c1780, 1, 131072, false)], topk: [(0x477c1780, 0xa4651499f1cfd307), (0x473c1780, 0xdb772f5e3e31c7db), (0x46f82f00, 0x56969a7ab7409b7d), (0x46705e00, 0xf9624e2fb5e7cec1), (0xc47a0000, 0x526685a4ad37310a)], multi: [0xc47a0000, 0x46706000, 0x46f83000, 0x473c1800, 0x477c1780], approx: [(0xc454c000, 298), (0x466f6c00, 32646), (0x46f82600, 65526), (0x473b9c80, 98057), (0x47797880, 129729)] },
    Pin { case: "default/sorted/1048576/s1", select: [(0xc47a0000, 1, 1048576, false), (0x47fe0c00, 1, 1048576, false), (0x487f0600, 1, 1048576, false), (0x48bf8300, 1, 1048576, false), (0x48ff82f0, 1, 1048576, false)], topk: [(0x48ff82f0, 0x8d4ec09efce5b7bc), (0x48bf82f0, 0x9dce71addb0dcb8d), (0x487f05e0, 0xcf1c2be045e65e76), (0x47fe0bc0, 0x0f80d82272eb6537), (0xc47a0000, 0xd71df3ac8a5d9c42)], multi: [0xc47a0000, 0x47fe0c00, 0x487f0600, 0x48bf8300, 0x48ff82f0], approx: [(0x43ef0000, 2956), (0x47fe02c0, 262107), (0x487f50a0, 524885), (0x48bf8200, 786416), (0x48feb180, 1045224)] },
    Pin { case: "default/sorted/1048576/s2", select: [(0xc47a0000, 1, 1048576, false), (0x47fe0c00, 1, 1048576, false), (0x487f0600, 1, 1048576, false), (0x48bf8300, 1, 1048576, false), (0x48ff82f0, 2, 1059313, false)], topk: [(0x48ff82f0, 0x8d4ec09efce5b7bc), (0x48bf82f0, 0x9dce71addb0dcb8d), (0x487f05e0, 0xcf1c2be045e65e76), (0x47fe0bc0, 0x0f80d82272eb6537), (0xc47a0000, 0xd71df3ac8a5d9c42)], multi: [0xc47a0000, 0x47fe0c00, 0x487f0600, 0x48bf8300, 0x48ff82f0], approx: [(0x43428000, 2389), (0x47fd1840, 261169), (0x487efcc0, 524214), (0x48bf07d0, 784461), (0x48fce3f0, 1037839)] },
    Pin { case: "deep/uniform/1/s1", select: [(0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false)], topk: [(0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935)], multi: [0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80], approx: [(0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0)] },
    Pin { case: "deep/uniform/1/s2", select: [(0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false), (0xbc72fd80, 0, 0, false)], topk: [(0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935), (0xbc72fd80, 0xdfede6b9bc6f5935)], multi: [0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80, 0xbc72fd80], approx: [(0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0), (0xbc72fd80, 0)] },
    Pin { case: "deep/uniform/100/s1", select: [(0xbf7a13b2, 1, 100, false), (0xbf080acf, 1, 100, false), (0xbc7764c0, 1, 100, false), (0x3f25c404, 1, 100, false), (0x3f7ac6e8, 1, 100, false)], topk: [(0x3f7ac6e8, 0xcd419fd7124e7fc3), (0x3ef5f858, 0xdf47ebcc26a299b3), (0xbcb93760, 0x6048100116b06729), (0xbf1da34d, 0x427f66cd29502e56), (0xbf7a13b2, 0xede9e6669ef5384e)], multi: [0xbf7a13b2, 0xbf080acf, 0xbc7764c0, 0x3f25c404, 0x3f7ac6e8], approx: [(0xbf4dabce, 9), (0xbeecc16c, 28), (0x3d1f8120, 55), (0x3ef5f858, 74), (0x3f722aa2, 96)] },
    Pin { case: "deep/uniform/100/s2", select: [(0xbf7a13b2, 1, 100, false), (0xbf080acf, 1, 100, false), (0xbc7764c0, 1, 100, false), (0x3f25c404, 1, 100, false), (0x3f7ac6e8, 1, 100, false)], topk: [(0x3f7ac6e8, 0xcd419fd7124e7fc3), (0x3ef5f858, 0xdf47ebcc26a299b3), (0xbcb93760, 0x6048100116b06729), (0xbf1da34d, 0x427f66cd29502e56), (0xbf7a13b2, 0xede9e6669ef5384e)], multi: [0xbf7a13b2, 0xbf080acf, 0xbc7764c0, 0x3f25c404, 0x3f7ac6e8], approx: [(0xbf4c44ba, 11), (0xbf080acf, 25), (0x3c37ab00, 52), (0x3f2e2bc0, 77), (0x3f68f848, 93)] },
    Pin { case: "deep/uniform/8193/s1", select: [(0xbf7fdbe7, 2, 8561, false), (0xbf00978c, 3, 9425, false), (0xbc2da400, 2, 8707, false), (0x3f02a9c0, 2, 8540, false), (0x3f7fe272, 2, 8771, false)], topk: [(0x3f7fe272, 0x2df7954657f888d9), (0x3f02a9c0, 0x32330023f963f3bf), (0xbc2da400, 0x5de6cda8e6ffe0d8), (0xbf00978c, 0x5cef3f5523667401), (0xbf7fdbe7, 0x902cd7970c01ecb0)], multi: [0xbf7fdbe7, 0xbf00978c, 0xbc2da400, 0x3f02a9c0, 0x3f7fe272], approx: [(0xbf693814, 368), (0xbf14f82d, 1703), (0x3d294700, 4314), (0x3f0dd038, 6309), (0x3f5e9f3c, 7615)] },
    Pin { case: "deep/uniform/8193/s2", select: [(0xbf7fdbe7, 3, 9817, false), (0xbf00978c, 2, 8809, false), (0xbc2da400, 2, 8919, false), (0x3f02a9c0, 2, 8702, false), (0x3f7fe272, 2, 8551, false)], topk: [(0x3f7fe272, 0x2df7954657f888d9), (0x3f02a9c0, 0x32330023f963f3bf), (0xbc2da400, 0x5de6cda8e6ffe0d8), (0xbf00978c, 0x5cef3f5523667401), (0xbf7fdbe7, 0x902cd7970c01ecb0)], multi: [0xbf7fdbe7, 0xbf00978c, 0xbc2da400, 0x3f02a9c0, 0x3f7fe272], approx: [(0xbf1feac9, 1511), (0xbef89924, 2127), (0x3d689b20, 4375), (0x3f128f1a, 6396), (0x3f6b17bc, 7835)] },
    Pin { case: "deep/uniform/131072/s1", select: [(0xbf7fff51, 3, 156465, false), (0xbf00c4ce, 4, 137777, false), (0xbbb71900, 3, 137251, false), (0x3eff8598, 3, 142229, false), (0x3f7fff9a, 3, 137677, false)], topk: [(0x3f7fff9a, 0x4ef13506768c3f14), (0x3eff8510, 0x201897bcb396e212), (0xbbb7ca00, 0xd56189f059ae77ea), (0xbf00c559, 0x5dba47887a1d3559), (0xbf7fff51, 0xefee6ed6dfe0e4fb)], multi: [0xbf7fff51, 0xbf00c4ce, 0xbbb71900, 0x3eff8598, 0x3f7fff9a], approx: [(0xbf21acd8, 24255), (0xbf02b78b, 32260), (0xbc932400, 64696), (0x3f0f26d2, 102262), (0x3f67941c, 124912)] },
    Pin { case: "deep/uniform/131072/s2", select: [(0xbf7fff51, 3, 133997, false), (0xbf00c4ce, 4, 139778, false), (0xbbb71900, 4, 142193, false), (0x3eff8598, 4, 149163, false), (0x3f7fff9a, 3, 137005, false)], topk: [(0x3f7fff9a, 0x4ef13506768c3f14), (0x3eff8510, 0x201897bcb396e212), (0xbbb7ca00, 0xd56189f059ae77ea), (0xbf00c559, 0x5dba47887a1d3559), (0xbf7fff51, 0xefee6ed6dfe0e4fb)], multi: [0xbf7fff51, 0xbf00c4ce, 0xbbb71900, 0x3eff8598, 0x3f7fff9a], approx: [(0xbf75e930, 2662), (0xbf0a48c6, 30284), (0xbd8d5598, 61313), (0x3f0eacce, 102143), (0x3f6aa13e, 125660)] },
    Pin { case: "deep/dup16/1/s1", select: [(0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false)], topk: [(0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe)], multi: [0x41280000, 0x41280000, 0x41280000, 0x41280000, 0x41280000], approx: [(0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0)] },
    Pin { case: "deep/dup16/1/s2", select: [(0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false), (0x41280000, 0, 0, false)], topk: [(0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe), (0x41280000, 0xe0dd8b45f39cf9fe)], multi: [0x41280000, 0x41280000, 0x41280000, 0x41280000, 0x41280000], approx: [(0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0), (0x41280000, 0)] },
    Pin { case: "deep/dup16/100/s1", select: [(0xc0e00000, 1, 100, false), (0x3f000000, 1, 100, false), (0x41280000, 1, 100, false), (0x41cc0000, 1, 100, false), (0x41f40000, 1, 100, false)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0x418773739a155c37), (0x41280000, 0xb9b6dd840fed53c3), (0x3f000000, 0xb4fbab5d42ce79f2), (0xc0e00000, 0x852b53deeeee4276)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41cc0000, 0x41f40000], approx: [(0xc0900000, 7), (0x40400000, 27), (0x41500000, 52), (0x41a40001, 75), (0x41e00001, 90)] },
    Pin { case: "deep/dup16/100/s2", select: [(0xc0e00000, 1, 100, false), (0x3f000000, 1, 100, false), (0x41280000, 1, 100, false), (0x41cc0000, 1, 100, true), (0x41f40000, 1, 100, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0x418773739a155c37), (0x41280000, 0xb9b6dd840fed53c3), (0x3f000000, 0xb4fbab5d42ce79f2), (0xc0e00000, 0x852b53deeeee4276)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41cc0000, 0x41f40000], approx: [(0xc0900000, 7), (0x3f000000, 23), (0x41500000, 52), (0x41cc0000, 75), (0x41f40001, 100)] },
    Pin { case: "deep/dup16/8193/s1", select: [(0xc0e00000, 2, 8694, true), (0x3f000000, 2, 9277, true), (0x41280000, 2, 8706, true), (0x41b80000, 2, 8696, true), (0x41f40000, 2, 8740, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41b80000, 0x824b3f89a13ff0f1), (0x41280000, 0x7b7bf2011d33b3e7), (0x3f000000, 0x632b7b99aad9f396), (0xc0e00000, 0xdede500ecf987950)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41b80000, 0x41f40000], approx: [(0xc0e00000, 0), (0x3f000000, 1509), (0x41500000, 4139), (0x41a40001, 6109), (0x41e00001, 7646)] },
    Pin { case: "deep/dup16/8193/s2", select: [(0xc0e00000, 2, 9702, true), (0x3f000000, 2, 8740, true), (0x41280000, 2, 8706, true), (0x41b80000, 2, 9730, true), (0x41f40000, 2, 8740, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41b80000, 0x824b3f89a13ff0f1), (0x41280000, 0x7b7bf2011d33b3e7), (0x3f000000, 0x632b7b99aad9f396), (0xc0e00000, 0xdede500ecf987950)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41b80000, 0x41f40000], approx: [(0x3f000000, 1509), (0x40400000, 2056), (0x41500000, 4139), (0x41a40001, 6109), (0x41f40000, 7646)] },
    Pin { case: "deep/dup16/131072/s1", select: [(0xc0e00000, 2, 147556, true), (0x3f000000, 2, 139365, true), (0x41280000, 1, 131072, true), (0x41a40000, 2, 139165, true), (0x41f40000, 2, 139268, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0xb71b9b7cf04ec020), (0x41280000, 0xd3c1768df1fc2381), (0x3f000000, 0x1376f7a22aa025a1), (0xc0e00000, 0xa0551f10a5e8dcb0)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41a40000, 0x41f40000], approx: [(0xc0000000, 16484), (0x40400000, 32959), (0x41280001, 65900), (0x41b80000, 98379), (0x41f40000, 122876)] },
    Pin { case: "deep/dup16/131072/s2", select: [(0xc0e00000, 1, 131072, true), (0x3f000000, 2, 139365, true), (0x41280000, 2, 139286, true), (0x41a40000, 2, 147145, true), (0x41f40000, 2, 139268, true)], topk: [(0x41f40000, 0x4b972b560b840257), (0x41a40000, 0xb71b9b7cf04ec020), (0x41280000, 0xd3c1768df1fc2381), (0x3f000000, 0x1376f7a22aa025a1), (0xc0e00000, 0xa0551f10a5e8dcb0)], multi: [0xc0e00000, 0x3f000000, 0x41280000, 0x41a40000, 0x41f40000], approx: [(0xc0e00000, 0), (0x40400000, 32959), (0x41500000, 65900), (0x41b80000, 98379), (0x41f40000, 122876)] },
    Pin { case: "deep/equal/1/s1", select: [(0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0)] },
    Pin { case: "deep/equal/1/s2", select: [(0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false), (0x40500000, 0, 0, false)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0x9ca80a21d5460a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500000, 0)] },
    Pin { case: "deep/equal/100/s1", select: [(0x40500000, 1, 100, true), (0x40500000, 1, 100, true), (0x40500000, 1, 100, true), (0x40500000, 1, 100, true), (0x40500000, 1, 100, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xe911076fa91d0e28), (0x40500000, 0x357a04bd7cf411ec), (0x40500000, 0x81e3020b50cb15b0), (0x40500000, 0x31a3f5374f5c0f10)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 100), (0x40500001, 100)] },
    Pin { case: "deep/equal/100/s2", select: [(0x40500000, 1, 100, true), (0x40500000, 1, 100, true), (0x40500000, 1, 100, true), (0x40500000, 1, 100, true), (0x40500000, 1, 100, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xe911076fa91d0e28), (0x40500000, 0x357a04bd7cf411ec), (0x40500000, 0x81e3020b50cb15b0), (0x40500000, 0x31a3f5374f5c0f10)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 100), (0x40500001, 100)] },
    Pin { case: "deep/equal/8193/s1", select: [(0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xdcf918cc05992a64), (0x40500000, 0x1d4a277635ec4a64), (0x40500000, 0x5d9b3620663f6a64), (0x40500000, 0x9dec44ca96928a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 8193), (0x40500001, 8193)] },
    Pin { case: "deep/equal/8193/s2", select: [(0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true), (0x40500000, 1, 8193, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xdcf918cc05992a64), (0x40500000, 0x1d4a277635ec4a64), (0x40500000, 0x5d9b3620663f6a64), (0x40500000, 0x9dec44ca96928a64)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 8193), (0x40500001, 8193)] },
    Pin { case: "deep/equal/131072/s1", select: [(0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xa1b8f4c4da780a64), (0x40500000, 0xa6c9df67dfaa0a64), (0x40500000, 0xabdaca0ae4dc0a64), (0x40500000, 0x1443aa8c14c80000)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 131072), (0x40500001, 131072)] },
    Pin { case: "deep/equal/131072/s2", select: [(0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true), (0x40500000, 1, 131072, true)], topk: [(0x40500000, 0x9ca80a21d5460a64), (0x40500000, 0xa1b8f4c4da780a64), (0x40500000, 0xa6c9df67dfaa0a64), (0x40500000, 0xabdaca0ae4dc0a64), (0x40500000, 0x1443aa8c14c80000)], multi: [0x40500000, 0x40500000, 0x40500000, 0x40500000, 0x40500000], approx: [(0x40500000, 0), (0x40500000, 0), (0x40500000, 0), (0x40500001, 131072), (0x40500001, 131072)] },
    Pin { case: "deep/sorted/1/s1", select: [(0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false)], topk: [(0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e)], multi: [0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000], approx: [(0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0)] },
    Pin { case: "deep/sorted/1/s2", select: [(0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false), (0xc47a0000, 0, 0, false)], topk: [(0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e), (0xc47a0000, 0x515b50a8ac07704e)], multi: [0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000, 0xc47a0000], approx: [(0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0), (0xc47a0000, 0)] },
    Pin { case: "deep/sorted/100/s1", select: [(0xc47a0000, 1, 100, false), (0xc476e000, 1, 100, false), (0xc473c000, 1, 100, false), (0xc470a000, 1, 100, false), (0xc46da000, 1, 100, false)], topk: [(0xc46da000, 0x903c1b98d943b7fa), (0xc470c000, 0xeac3f7dfc6588a52), (0xc473e000, 0xfd0f0edac12c10c0), (0xc4770000, 0x60fc57071ba88e1a), (0xc47a0000, 0x77764bd64085d983)], multi: [0xc47a0000, 0xc476e000, 0xc473c000, 0xc470a000, 0xc46da000], approx: [(0xc4794000, 6), (0xc4768000, 28), (0xc473a000, 51), (0xc470c000, 74), (0xc46de000, 97)] },
    Pin { case: "deep/sorted/100/s2", select: [(0xc47a0000, 1, 100, false), (0xc476e000, 1, 100, false), (0xc473c000, 1, 100, false), (0xc470a000, 1, 100, false), (0xc46da000, 1, 100, false)], topk: [(0xc46da000, 0x903c1b98d943b7fa), (0xc470c000, 0xeac3f7dfc6588a52), (0xc473e000, 0xfd0f0edac12c10c0), (0xc4770000, 0x60fc57071ba88e1a), (0xc47a0000, 0x77764bd64085d983)], multi: [0xc47a0000, 0xc476e000, 0xc473c000, 0xc470a000, 0xc46da000], approx: [(0xc4778000, 20), (0xc4776000, 21), (0xc4738000, 52), (0xc470c000, 74), (0xc46ea000, 91)] },
    Pin { case: "deep/sorted/8193/s1", select: [(0xc47a0000, 3, 8804, false), (0x41c00000, 3, 9640, false), (0x44830000, 2, 8689, false), (0x45018000, 2, 8588, false), (0x45418000, 2, 8431, false)], topk: [(0x45418000, 0x6b80e41373734c77), (0x45018000, 0x6c6cba648b1d8e4a), (0x44830000, 0x7ef92e47eea8e458), (0x41c00000, 0x2e0ef4a7479eb5da), (0xc47a0000, 0x9dd4c3e979b6d9df)], multi: [0xc47a0000, 0x41c00000, 0x44830000, 0x45018000, 0x45418000], approx: [(0xc4368000, 540), (0x43298000, 2339), (0x448af000, 4223), (0x45007000, 6110), (0x453a1800, 7955)] },
    Pin { case: "deep/sorted/8193/s2", select: [(0xc47a0000, 3, 10108, false), (0x41c00000, 3, 9020, false), (0x44830000, 3, 9443, false), (0x45018000, 2, 8400, false), (0x45418000, 2, 8880, false)], topk: [(0x45418000, 0x6b80e41373734c77), (0x45018000, 0x6c6cba648b1d8e4a), (0x44830000, 0x7ef92e47eea8e458), (0x41c00000, 0x2e0ef4a7479eb5da), (0xc47a0000, 0x9dd4c3e979b6d9df)], multi: [0xc47a0000, 0x41c00000, 0x44830000, 0x45018000, 0x45418000], approx: [(0xc3348000, 1639), (0xc30b0000, 1722), (0x448ff000, 4303), (0x44fe0000, 6064), (0x452c1000, 7506)] },
    Pin { case: "deep/sorted/131072/s1", select: [(0xc47a0000, 4, 140960, false), (0x46706000, 4, 154474, false), (0x46f83000, 3, 139364, false), (0x473c1800, 3, 138222, false), (0x477c1780, 3, 135101, false)], topk: [(0x477c1780, 0xa4651499f1cfd307), (0x473c1780, 0xdb772f5e3e31c7db), (0x46f82f00, 0x56969a7ab7409b7d), (0x46705e00, 0xf9624e2fb5e7cec1), (0xc47a0000, 0x526685a4ad37310a)], multi: [0xc47a0000, 0x46706000, 0x46f83000, 0x473c1800, 0x477c1780], approx: [(0x454fa800, 8645), (0x468a5e00, 37422), (0x47001100, 67570), (0x473b0380, 97751), (0x4774ab80, 127271)] },
    Pin { case: "deep/sorted/131072/s2", select: [(0xc47a0000, 4, 162268, false), (0x46706000, 4, 144471, false), (0x46f83000, 3, 151070, false), (0x473c1800, 3, 134602, false), (0x477c1780, 4, 143122, false)], topk: [(0x477c1780, 0xa4651499f1cfd307), (0x473c1780, 0xdb772f5e3e31c7db), (0x46f82f00, 0x56969a7ab7409b7d), (0x46705e00, 0xf9624e2fb5e7cec1), (0xc47a0000, 0x526685a4ad37310a)], multi: [0xc47a0000, 0x46706000, 0x46f83000, 0x473c1800, 0x477c1780], approx: [(0x463d5000, 26232), (0x46479a00, 27549), (0x47028d80, 68843), (0x47399880, 97025), (0x4766a380, 120087)] },
];

#[test]
fn host_backend_answers_exactly_the_pinned_values() {
    let pools = [ThreadPool::new(1), ThreadPool::new(4)];
    let observed = all_cases(&pools);
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
