//! `simdsweep` — scalar-vs-SIMD microbench for the vectorized host
//! kernels behind `SELECT_SIMD`.
//!
//! Measures four hot-loop shapes as per-element code and at every
//! dispatch level the machine supports, interleaved per rep so machine
//! drift hits all columns equally:
//!
//! * **count** — batched search-tree descent (`lookup_batch`)
//!   feeding a 256-bucket histogram;
//! * **filter** — oracle-byte compare-mask + stable compress of
//!   the matching lanes (the single-bucket filter fast path);
//! * **bipartition** — three-way pivot masks + masked compress into
//!   smaller/equal/larger outputs;
//! * **digitcount** — float→sort-key conversion + radix digit
//!   histogram.
//!
//! Columns: `per_element` (a one-element-at-a-time loop written here,
//! over the per-element reference code such as `SearchTree::lookup`),
//! `scalar` (the portable unrolled fallback primitives) and `avx2`
//! (when the CPU has it). Every rep checksums each column's full
//! output; any divergence marks the leg non-identical — the
//! deterministic signal `scripts/check_perf.py --simd` hard-fails on. A
//! final pipeline leg runs one complete SampleSelect query at `scalar`
//! and at the widest level and requires bit-identical answers *and*
//! identical simulated time: SIMD may only change wall clock, never the
//! modeled cost.
//!
//! Writes `BENCH_simd.json` (schema `simdsweep-v2`).
//!
//! ```text
//! cargo run --release --bin simdsweep [-- --reps N --full]
//! ```

use std::time::Instant;

use gpu_sim::arch::v100;
use gpu_sim::Device;
use hpc_par::simd::{self, SimdLevel};
use sampleselect::element::{fill_sort_keys32, SelectElement};
use sampleselect::rng::SplitMix64;
use sampleselect::searchtree::SearchTree;
use sampleselect::{sample_select_on_device, SampleSelectConfig};
use select_bench::HarnessArgs;

const BUCKETS: usize = 256;
const GROUP: usize = 32;

fn fnv(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x100_0000_01b3)
}

#[derive(Debug, Clone, Copy, Default)]
struct LegStats {
    wall_s: f64,
    wall_mean_s: f64,
}

impl LegStats {
    fn absorb(&mut self, wall: f64) {
        self.wall_s = if self.wall_s == 0.0 {
            wall
        } else {
            self.wall_s.min(wall)
        };
        self.wall_mean_s += wall;
    }
}

/// One measured column: the per-element loop (`None`) or a dispatch
/// level of the lane-parallel primitives.
type Column = Option<SimdLevel>;

fn column_name(column: Column) -> &'static str {
    column.map_or("per_element", SimdLevel::name)
}

/// Run one leg in every column, interleaved per rep. Returns
/// per-column stats plus whether every column produced the same output
/// checksum.
fn run_leg(
    columns: &[Column],
    reps: usize,
    mut work: impl FnMut(Column) -> u64,
) -> (Vec<LegStats>, bool) {
    let mut stats = vec![LegStats::default(); columns.len()];
    let mut identical = true;
    for _ in 0..reps {
        let mut reference: Option<u64> = None;
        for (li, &column) in columns.iter().enumerate() {
            let start = Instant::now();
            let cs = work(column);
            stats[li].absorb(start.elapsed().as_secs_f64());
            match reference {
                None => reference = Some(cs),
                Some(r) => identical &= r == cs,
            }
        }
    }
    for s in &mut stats {
        s.wall_mean_s /= reps as f64;
    }
    (stats, identical)
}

/// Batched tree descent into a bucket histogram (the count hot loop).
fn count_leg(data: &[f32], tree: &SearchTree<f32>, column: Column) -> u64 {
    let mut hist = [0u64; BUCKETS];
    if let Some(level) = column {
        simd::force_level(Some(level));
        let mut buckets = [0u32; 128];
        let mut i = 0;
        while i < data.len() {
            let len = (data.len() - i).min(128);
            tree.lookup_batch(&data[i..i + len], &mut buckets[..len]);
            for &b in &buckets[..len] {
                hist[b as usize] += 1;
            }
            i += len;
        }
        simd::force_level(None);
    } else {
        for &x in data {
            hist[tree.lookup(x) as usize] += 1;
        }
    }
    hist.iter().fold(0xcbf2_9ce4_8422_2325, |a, &c| fnv(a, c))
}

/// Oracle compare-mask + stable compress (the filter fast path).
fn filter_leg(bits: &[u32], oracle: &[u8], out: &mut [u32], column: Column) -> u64 {
    let mut cursor = 0usize;
    if let Some(level) = column {
        let mut staging = [0u32; GROUP];
        let mut i = 0;
        while i < bits.len() {
            let len = (bits.len() - i).min(GROUP);
            let mask = simd::eq_mask_u8(&oracle[i..i + len], 1, level);
            let cnt = simd::compress_u32(&bits[i..i + len], mask, &mut staging, level);
            out[cursor..cursor + cnt].copy_from_slice(&staging[..cnt]);
            cursor += cnt;
            i += len;
        }
    } else {
        for (i, &o) in oracle.iter().enumerate() {
            if o == 1 {
                out[cursor] = bits[i];
                cursor += 1;
            }
        }
    }
    out[..cursor]
        .iter()
        .fold(fnv(0xcbf2_9ce4_8422_2325, cursor as u64), |a, &v| {
            fnv(a, v as u64)
        })
}

/// Three-way pivot masks + masked compress (the bipartition hot loop).
fn bipartition_leg(bits: &[u32], pivot: u32, outs: &mut [Vec<u32>; 3], column: Column) -> u64 {
    let mut cursors = [0usize; 3];
    if let Some(level) = column {
        let mut staging = [0u32; GROUP];
        let mut i = 0;
        while i < bits.len() {
            let len = (bits.len() - i).min(GROUP);
            let group = &bits[i..i + len];
            let (lt, eq) = simd::pivot_masks_u32(group, pivot, level);
            let gt = !(lt | eq) & simd::mask_for_len(len);
            for (lane, mask) in [(0usize, lt), (1, eq), (2, gt)] {
                let cnt = simd::compress_u32(group, mask, &mut staging, level);
                outs[lane][cursors[lane]..cursors[lane] + cnt].copy_from_slice(&staging[..cnt]);
                cursors[lane] += cnt;
            }
            i += len;
        }
    } else {
        for &k in bits {
            let lane = if k < pivot {
                0
            } else if k == pivot {
                1
            } else {
                2
            };
            outs[lane][cursors[lane]] = k;
            cursors[lane] += 1;
        }
    }
    let mut cs = 0xcbf2_9ce4_8422_2325u64;
    for (lane, out) in outs.iter().enumerate() {
        cs = fnv(cs, cursors[lane] as u64);
        for &v in &out[..cursors[lane]] {
            cs = fnv(cs, v as u64);
        }
    }
    cs
}

/// Float→sort-key conversion + radix digit histogram (digit count).
fn digitcount_leg(data: &[f32], shift: u32, column: Column) -> u64 {
    let mut hist = [0u64; 256];
    if let Some(level) = column {
        let mut keys = [0u32; GROUP];
        let mut i = 0;
        while i < data.len() {
            let len = (data.len() - i).min(GROUP);
            fill_sort_keys32(&data[i..i + len], &mut keys[..len], level);
            for &k in &keys[..len] {
                hist[((k >> shift) & 0xff) as usize] += 1;
            }
            i += len;
        }
    } else {
        for &x in data {
            hist[((x.to_sort_key() >> shift) & 0xff) as usize] += 1;
        }
    }
    hist.iter().fold(0xcbf2_9ce4_8422_2325, |a, &c| fnv(a, c))
}

fn stats_json(s: &LegStats) -> String {
    format!(
        "{{\"wall_s\": {:.6}, \"wall_mean_s\": {:.6}}}",
        s.wall_s, s.wall_mean_s
    )
}

fn leg_json(n: usize, columns: &[Column], stats: &[LegStats], identical: bool) -> String {
    let mut body = format!("{{\"n\": {n}, \"identical\": {identical}");
    for (li, &column) in columns.iter().enumerate() {
        body += &format!(", \"{}\": {}", column_name(column), stats_json(&stats[li]));
    }
    // Speedup of the widest level over the per-element code.
    let speedup = stats[0].wall_s / stats[columns.len() - 1].wall_s.max(1e-12);
    body += &format!(", \"speedup\": {speedup:.3}}}");
    body
}

fn main() {
    let args = HarnessArgs::parse();
    let reps = args.reps_or(7);
    let n: usize = if args.full { 1 << 22 } else { 1 << 20 };
    let avx2 = simd::avx2_available();
    let widest = if avx2 {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    };
    let mut columns = vec![None, Some(SimdLevel::Scalar)];
    if avx2 {
        columns.push(Some(SimdLevel::Avx2));
    }

    // Deterministic inputs shared by every level and rep.
    let mut rng = SplitMix64::new(0x51d5_0eeb);
    let data: Vec<f32> = (0..n).map(|_| rng.next_f64() as f32 * 2.0 - 1.0).collect();
    let bits: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    let oracle: Vec<u8> = (0..n).map(|_| (rng.next_u64() % 4) as u8).collect();
    let mut splitters: Vec<f32> = (0..BUCKETS - 1)
        .map(|i| (i as f32 + 0.5) / BUCKETS as f32 * 2.0 - 1.0)
        .collect();
    splitters.sort_unstable_by(|a, b| a.total_cmp(b));
    let tree = SearchTree::build(&splitters);
    let pivot = bits[n / 2];

    eprintln!(
        "simdsweep: n=2^{}, reps={reps}, columns={:?}",
        n.trailing_zeros(),
        columns.iter().map(|&c| column_name(c)).collect::<Vec<_>>()
    );

    let (count_stats, count_ok) = run_leg(&columns, reps, |c| count_leg(&data, &tree, c));

    let mut filter_out = vec![0u32; n];
    let (filter_stats, filter_ok) = run_leg(&columns, reps, |c| {
        filter_leg(&bits, &oracle, &mut filter_out, c)
    });

    let mut part_outs = [vec![0u32; n], vec![0u32; n], vec![0u32; n]];
    let (part_stats, part_ok) = run_leg(&columns, reps, |c| {
        bipartition_leg(&bits, pivot, &mut part_outs, c)
    });

    let (digit_stats, digit_ok) = run_leg(&columns, reps, |c| digitcount_leg(&data, 16, c));

    // Pipeline identity: one full SampleSelect query at scalar vs the
    // widest level. The answer must be bit-identical and the simulated
    // timeline unchanged — SIMD is a wall-clock optimization only.
    eprintln!("simdsweep: pipeline identity check...");
    let pool = args.thread_pool();
    let cfg = SampleSelectConfig::default().with_seed(41);
    let run_at = |level: SimdLevel| {
        simd::force_level(Some(level));
        let mut device = Device::new(v100(), pool);
        let r = sample_select_on_device(&mut device, &data, n / 2, &cfg).expect("pipeline select");
        simd::force_level(None);
        (r.value.to_bits(), r.report.total_time.as_ns())
    };
    let (val_scalar, sim_scalar) = run_at(SimdLevel::Scalar);
    let (val_simd, sim_simd) = run_at(widest);
    let pipeline_ok = val_scalar == val_simd && sim_scalar == sim_simd;

    let json = format!(
        "{{\n  \"schema\": \"simdsweep-v2\",\n  \"reps\": {reps},\n  \
         \"avx2_available\": {avx2},\n  \"widest\": \"{}\",\n  \"legs\": {{\n    \
         \"count\": {},\n    \"filter\": {},\n    \"bipartition\": {},\n    \
         \"digitcount\": {}\n  }},\n  \
         \"pipeline\": {{\"n\": {n}, \"identical\": {pipeline_ok}, \
         \"sim_ns_scalar\": {sim_scalar:.1}, \"sim_ns_simd\": {sim_simd:.1}}}\n}}\n",
        widest.name(),
        leg_json(n, &columns, &count_stats, count_ok),
        leg_json(n, &columns, &filter_stats, filter_ok),
        leg_json(n, &columns, &part_stats, part_ok),
        leg_json(n, &columns, &digit_stats, digit_ok),
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("{json}");

    let speedup = |s: &[LegStats]| s[0].wall_s / s[columns.len() - 1].wall_s.max(1e-12);
    eprintln!(
        "count {:.2}x, filter {:.2}x, bipartition {:.2}x, digitcount {:.2}x ({} vs per-element)",
        speedup(&count_stats),
        speedup(&filter_stats),
        speedup(&part_stats),
        speedup(&digit_stats),
        widest.name(),
    );
}
