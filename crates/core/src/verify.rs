//! Algorithm-based fault tolerance (ABFT) for the selection pipeline.
//!
//! Selection is naturally self-verifiable: every intermediate buffer of
//! SampleSelect obeys cheap algebraic invariants, and the final answer
//! admits an O(n) *rank certificate* — one counting pass that proves the
//! returned value really has the requested rank. This module collects
//! both layers:
//!
//! * **Spot checks** validate the invariants of each recursion level as
//!   it completes: the count histogram must sum to the level's input
//!   size, the sampled splitters must be monotone, and the filter output
//!   must be exactly as large as the selected bucket's count. They cost
//!   O(b) per level and catch most silent corruptions near where they
//!   happened.
//! * **Rank certification** ([`certify_ranks`], and [`certify_rank`]
//!   for one answer) recounts, directly against the untouched input, how
//!   many elements fall below and tie with each candidate answer
//!   ([`rank_intervals`]). It catches *any* wrong answer regardless of
//!   which buffer was corrupted, at the price of one more pass: O(n) for
//!   one answer, O(n log q) for q. The planner's certify-first step
//!   runs the same pass *before* selecting, over a few probe values.
//!
//! Violations surface as [`SelectError::Corruption`], which
//! [`crate::resilient`] treats as transient: re-running with re-seeded
//! sampling recomputes every intermediate buffer from the intact input.
//!
//! The module also hosts [`corrupt_elements`], the bridge that exposes
//! typed element buffers to the simulator's bit-flip injector
//! ([`gpu_sim::Device::corrupt_region`]).

use crate::element::SelectElement;
use crate::params::SampleSelectConfig;
use crate::SelectError;
use gpu_sim::{Device, KernelCost, LaunchOrigin, MemoryCorruption};
use std::ops::Range;

/// How much self-verification a selection run performs.
///
/// The default is [`VerifyPolicy::Off`]: verification costs extra kernel
/// launches, and fault-free runs (the common case) don't need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// No integrity checking (the fast path).
    #[default]
    Off,
    /// Per-level invariant spot checks: histogram sum, splitter
    /// monotonicity, filter output size. O(b) extra work per level.
    Spot,
    /// Spot checks plus an exact rank certificate on the final answer
    /// (one extra O(n) counting pass).
    Paranoid,
}

impl VerifyPolicy {
    /// Whether per-level invariant checks run.
    pub fn spot_checks(self) -> bool {
        matches!(self, VerifyPolicy::Spot | VerifyPolicy::Paranoid)
    }

    /// Whether the final answer gets a rank certificate.
    pub fn certify(self) -> bool {
        matches!(self, VerifyPolicy::Paranoid)
    }
}

impl std::str::FromStr for VerifyPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(VerifyPolicy::Off),
            "spot" => Ok(VerifyPolicy::Spot),
            "paranoid" => Ok(VerifyPolicy::Paranoid),
            other => Err(format!(
                "unknown verify policy `{other}` (expected off, spot or paranoid)"
            )),
        }
    }
}

impl std::fmt::Display for VerifyPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyPolicy::Off => write!(f, "off"),
            VerifyPolicy::Spot => write!(f, "spot"),
            VerifyPolicy::Paranoid => write!(f, "paranoid"),
        }
    }
}

/// Expose a typed element buffer to the device's memory-corruption
/// injector.
///
/// The simulator corrupts raw byte images; element types are bridged
/// through their lossless bit representation
/// ([`SelectElement::to_bits_u64`]), so an injected bit flip lands on a
/// real bit of a real element — including NaN payloads and sign bits.
/// Returns the corruption descriptor when one fired.
pub fn corrupt_elements<T: SelectElement>(
    device: &mut Device,
    region: &str,
    data: &mut [T],
) -> Option<MemoryCorruption> {
    device.fault_plan()?;
    // The image is the lossless 64-bit representation, clamped to the
    // element width (key-value pairs image only their key).
    let width = T::BYTES.min(8);
    let mut bytes: Vec<u8> = Vec::with_capacity(data.len() * width);
    for &x in data.iter() {
        bytes.extend_from_slice(&x.to_bits_u64().to_le_bytes()[..width]);
    }
    let corruption = device.corrupt_region(region, bytes.as_mut_slice())?;
    // Deserialize only the element the corruption landed on, leaving
    // every other element (and any payload bits outside the image)
    // untouched.
    let idx = corruption.byte_offset / width;
    if idx < data.len() {
        let mut buf = [0u8; 8];
        buf[..width].copy_from_slice(&bytes[idx * width..(idx + 1) * width]);
        data[idx] = T::from_bits_u64(u64::from_le_bytes(buf));
    }
    Some(corruption)
}

/// ABFT invariant: the count histogram of a level must sum to the number
/// of elements the level was given.
pub fn check_histogram(counts: &[u64], n: usize) -> Result<(), SelectError> {
    let total: u64 = counts.iter().sum();
    if total != n as u64 {
        return Err(SelectError::Corruption {
            invariant: "histogram-sum",
            detail: format!("bucket counts sum to {total} for input of {n} elements"),
        });
    }
    Ok(())
}

/// ABFT invariant: sampled splitters must be monotonically non-decreasing
/// (they come from a sorted sample, so any inversion means corruption).
pub fn check_splitters<T: SelectElement>(splitters: &[T]) -> Result<(), SelectError> {
    for (i, w) in splitters.windows(2).enumerate() {
        if w[1].lt(w[0]) {
            return Err(SelectError::Corruption {
                invariant: "splitter-order",
                detail: format!("splitter {} sorts below splitter {}", i + 1, i),
            });
        }
    }
    Ok(())
}

/// ABFT invariant: the filter output must contain exactly as many
/// elements as the selected bucket's count claimed.
pub fn check_filter_size(actual: usize, expected: u64) -> Result<(), SelectError> {
    if actual as u64 != expected {
        return Err(SelectError::Corruption {
            invariant: "filter-size",
            detail: format!("filter extracted {actual} elements, bucket count says {expected}"),
        });
    }
    Ok(())
}

/// Count how many elements of `data` sort strictly below `value` and how
/// many tie with it (under the total order of [`SelectElement::lt`]).
///
/// `value` has valid rank `r` iff `below <= r < below + tied`. Plain
/// host-side helper — [`certify_rank`] is the instrumented device
/// version.
pub fn rank_bounds<T: SelectElement>(data: &[T], value: T) -> (u64, u64) {
    let mut below = 0u64;
    let mut tied = 0u64;
    for &x in data {
        if x.lt(value) {
            below += 1;
        } else if !value.lt(x) {
            tied += 1;
        }
    }
    (below, tied)
}

/// Exact rank certificate: one counting pass over the untouched input
/// proving that `value` really is a `rank`-th smallest element — the
/// single-answer case of [`certify_ranks`], at its cost: `n` element
/// reads and `2n` integer operations.
pub fn certify_rank<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    value: T,
    rank: usize,
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> Result<(), SelectError> {
    certify_ranks(device, data, &[value], &[rank], cfg, origin)
}

/// Exact rank certificate for a vector of answers: one counting pass
/// over the untouched input ([`rank_intervals`]) proving that every
/// `values[i]` really is a `ranks[i]`-th smallest element. Fails with
/// [`SelectError::Corruption`] when some rank lies outside its value's
/// interval `[below, below + tied)` — which can only happen if some
/// intermediate buffer was corrupted into a self-consistent but wrong
/// state that the spot checks couldn't see.
pub fn certify_ranks<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    values: &[T],
    ranks: &[usize],
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> Result<(), SelectError> {
    assert_eq!(values.len(), ranks.len(), "one answer per rank");
    let intervals = rank_intervals(device, data, values, cfg, origin);
    let mut answers = intervals.iter().zip(ranks);
    match answers.find(|(i, &r)| !i.contains(&(r as u64))) {
        None => Ok(()),
        Some((&Range { start: lo, end: hi }, rank)) => Err(SelectError::Corruption {
            invariant: "rank-certificate",
            detail: format!("returned value has rank interval [{lo}, {hi}), requested rank {rank}"),
        }),
    }
}

/// The ranks each of `values` holds in `data` — from the count of
/// elements sorting below it to that plus its ties — in one counting
/// pass: each element is placed among the sorted distinct values by a
/// branch-free binary search, so the pass costs O(n log q). Commits a
/// `certify` kernel (same grid as a count pass, no oracle writes) so
/// the pass shows up in timings and traces.
pub fn rank_intervals<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    values: &[T],
    cfg: &SampleSelectConfig,
    origin: LaunchOrigin,
) -> Vec<Range<u64>> {
    let n = data.len();
    let launch = cfg.launch_config(n, T::BYTES);
    let blocks = launch.blocks as usize;
    let chunk = launch.block_chunk(n);

    let keys = certify_keys(values);
    let m = keys.len();
    // Slot 2i counts the elements sorting between keys[i-1] and
    // keys[i], slot 2i+1 the ties with keys[i], slot 2m those above
    // every key.
    let slots = hpc_par::parallel_map_reduce(
        device.pool(),
        blocks,
        1,
        vec![0u64; 2 * m + 1],
        |range, mut acc| {
            for block in range {
                let start = block * chunk;
                let end = ((block + 1) * chunk).min(n);
                for &x in &data[start..end] {
                    acc[certify_slot(&keys, x.to_lt_key())] += 1;
                }
            }
            acc
        },
        |mut a, b| {
            a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
            a
        },
    );

    // One comparison per element for the tally, plus the binary search.
    let probes = u64::from(usize::BITS - m.leading_zeros());
    let mut cost = KernelCost::new();
    cost.global_read_bytes = n as u64 * T::BYTES as u64;
    cost.int_ops = (1 + probes) * n as u64;
    cost.blocks = blocks as u64;
    device.commit("certify", launch, origin, cost);

    (values.iter())
        .map(|&value| {
            let i = certify_slot(&keys, value.to_lt_key()) / 2;
            let below: u64 = slots[..2 * i + 1].iter().sum();
            below..below + slots[2 * i + 1]
        })
        .collect()
}

/// The `lt` keys ([`SelectElement::to_lt_key`]) of the distinct
/// `values`, strictly increasing.
fn certify_keys<T: SelectElement>(values: &[T]) -> Vec<u64> {
    let mut keys: Vec<u64> = values.iter().map(|v| v.to_lt_key()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The certify slot of an element with `lt` key `x` among the strictly
/// increasing `keys`: twice the number of keys below `x`, plus one if `x`
/// ties a key. The binary search runs a trip count fixed by `keys.len()`
/// and each step is a select, not a branch (plain integer arithmetic on
/// the comparison still compiles to one), so random input costs no
/// mispredicted branches.
#[inline]
fn certify_slot(keys: &[u64], x: u64) -> usize {
    if keys.is_empty() {
        return 0;
    }
    let mut base = 0;
    let mut len = keys.len();
    while len > 1 {
        let half = len / 2;
        base = std::hint::select_unpredictable(keys[base + half] < x, base + half, base);
        len -= half;
    }
    let below = base + usize::from(keys[base] < x);
    2 * below + usize::from(keys[below.min(keys.len() - 1)] == x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::arch::v100;
    use gpu_sim::FaultPlan;
    use hpc_par::ThreadPool;

    #[test]
    fn policy_parsing_and_gates() {
        assert_eq!("off".parse::<VerifyPolicy>().unwrap(), VerifyPolicy::Off);
        assert_eq!("spot".parse::<VerifyPolicy>().unwrap(), VerifyPolicy::Spot);
        assert_eq!(
            "paranoid".parse::<VerifyPolicy>().unwrap(),
            VerifyPolicy::Paranoid
        );
        assert!("bogus".parse::<VerifyPolicy>().is_err());
        assert_eq!(VerifyPolicy::default(), VerifyPolicy::Off);

        assert!(!VerifyPolicy::Off.spot_checks());
        assert!(VerifyPolicy::Spot.spot_checks());
        assert!(!VerifyPolicy::Spot.certify());
        assert!(VerifyPolicy::Paranoid.spot_checks());
        assert!(VerifyPolicy::Paranoid.certify());
        assert_eq!(VerifyPolicy::Paranoid.to_string(), "paranoid");
    }

    #[test]
    fn histogram_check_accepts_and_rejects() {
        assert!(check_histogram(&[3, 4, 5], 12).is_ok());
        let err = check_histogram(&[3, 4, 5], 13).unwrap_err();
        assert!(matches!(
            err,
            SelectError::Corruption {
                invariant: "histogram-sum",
                ..
            }
        ));
    }

    #[test]
    fn splitter_check_accepts_sorted_rejects_inverted() {
        assert!(check_splitters(&[1.0f32, 2.0, 2.0, 5.0]).is_ok());
        assert!(check_splitters::<f32>(&[]).is_ok());
        // NaN collapses to the maximum sort key, so a trailing NaN is fine…
        assert!(check_splitters(&[1.0f32, f32::NAN]).is_ok());
        // …but a leading NaN is an inversion.
        let err = check_splitters(&[f32::NAN, 1.0f32]).unwrap_err();
        assert!(matches!(
            err,
            SelectError::Corruption {
                invariant: "splitter-order",
                ..
            }
        ));
    }

    #[test]
    fn filter_size_check() {
        assert!(check_filter_size(7, 7).is_ok());
        let err = check_filter_size(6, 7).unwrap_err();
        assert!(matches!(
            err,
            SelectError::Corruption {
                invariant: "filter-size",
                ..
            }
        ));
    }

    #[test]
    fn rank_bounds_counts_below_and_ties() {
        let data = [5.0f32, 1.0, 3.0, 3.0, 9.0];
        assert_eq!(rank_bounds(&data, 3.0f32), (1, 2));
        assert_eq!(rank_bounds(&data, 9.0f32), (4, 1));
        assert_eq!(rank_bounds(&data, 0.5f32), (0, 0));
    }

    #[test]
    fn certificate_accepts_true_rank_rejects_wrong_value() {
        let pool = ThreadPool::new(4);
        let mut device = Device::new(v100(), &pool);
        let data: Vec<f32> = (0..10_000).map(|i| ((i * 37) % 1000) as f32).collect();
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cfg = SampleSelectConfig::default();

        let rank = 1234;
        assert!(certify_rank(
            &mut device,
            &data,
            sorted[rank],
            rank,
            &cfg,
            LaunchOrigin::Host
        )
        .is_ok());
        let err = certify_rank(
            &mut device,
            &data,
            sorted[rank] + 1.0,
            rank,
            &cfg,
            LaunchOrigin::Host,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SelectError::Corruption {
                invariant: "rank-certificate",
                ..
            }
        ));

        let rec = device
            .records()
            .iter()
            .find(|r| r.name == "certify")
            .unwrap();
        assert_eq!(rec.cost.global_read_bytes, 10_000 * 4);
        assert_eq!(rec.cost.int_ops, 20_000);
    }

    fn certify_host<T: SelectElement>(
        data: &[T],
        values: &[T],
        ranks: &[usize],
    ) -> (Result<(), SelectError>, KernelCost) {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let cfg = SampleSelectConfig::default();
        let res = certify_ranks(&mut device, data, values, ranks, &cfg, LaunchOrigin::Host);
        (res, device.records()[0].cost)
    }

    #[test]
    fn single_answer_certificate_agrees_with_rank_bounds_at_the_old_cost() {
        let data: Vec<f32> = (0..5_000).map(|i| ((i * 53) % 701) as f32).collect();
        for (value, rank) in [
            (3.0f32, 21),
            (3.0, 29),
            (3.0, 28),
            (3.5, 28),
            (700.0, 4_999),
        ] {
            let (below, tied) = rank_bounds(&data, value);
            let (res, cost) = certify_host(&data, &[value], &[rank]);
            let r = rank as u64;
            assert_eq!(
                res.is_ok(),
                below <= r && r < below + tied,
                "{value} @ {rank}"
            );
            assert_eq!(
                (cost.global_read_bytes, cost.int_ops),
                (5_000 * 4, 2 * 5_000)
            );
        }
    }

    #[test]
    fn rank_vector_certificate_rejects_one_wrong_value() {
        let data: Vec<f32> = (0..8_192).map(|i| ((i * 97) % 8_192) as f32).collect();
        let ranks = [8_000usize, 10, 4_096, 2_048, 6_000];
        let mut values = ranks.map(|r| r as f32);
        assert!(certify_host(&data, &values, &ranks).0.is_ok());
        values[3] = 2_049.0;
        let (res, cost) = certify_host(&data, &values, &ranks);
        match res {
            Err(SelectError::Corruption { invariant, detail }) => {
                assert_eq!(invariant, "rank-certificate");
                assert!(detail.contains("[2049, 2050)"), "{detail}");
            }
            other => panic!("expected a rank-certificate corruption, got {other:?}"),
        }
        // Five answers: one tally plus three binary-search probes each.
        assert_eq!(cost.int_ops, 4 * 8_192);
    }

    #[test]
    fn rank_vector_certificate_handles_ties() {
        // 16 values, 100 copies each: value v fills ranks [100v, 100v + 100).
        let data: Vec<u32> = (0..1_600).map(|i| i % 16).collect();
        let ranks = [0usize, 99, 100, 150, 199, 1_599, 150];
        assert!(certify_host(&data, &[0, 0, 1, 1, 1, 15, 1], &ranks)
            .0
            .is_ok());
        assert!(certify_host(&data, &[1, 2], &[150, 199]).0.is_err());
    }

    /// The slot the certify pass gave each element before it went
    /// branch-free: a `partition_point` over the distinct values sorted
    /// by `total_cmp`.
    fn binary_search_slot<T: SelectElement>(values: &[T], x: T) -> usize {
        let mut keys = values.to_vec();
        keys.sort_unstable_by(|a, b| a.total_cmp(*b));
        keys.dedup_by(|a, b| !a.lt(*b) && !b.lt(*a));
        let i = keys.partition_point(|&k| k.lt(x));
        2 * i + usize::from(i < keys.len() && !x.lt(keys[i]))
    }

    #[test]
    fn branch_free_slots_equal_the_binary_search() {
        fn check<T: SelectElement>(pool: &[T]) {
            // Every window of up to 6 candidates, and every element.
            for len in 0..=6 {
                for start in 0..=pool.len() - len {
                    let values = &pool[start..start + len];
                    let keys = certify_keys(values);
                    for &x in pool {
                        let slot = certify_slot(&keys, x.to_lt_key());
                        assert_eq!(slot, binary_search_slot(values, x), "{x:?} in {values:?}");
                    }
                }
            }
        }
        let nan = f32::from_bits(0xffc0_0001);
        check(&[
            1.0f32,
            f32::NAN,
            -0.0,
            0.0,
            1.0,
            1.0,
            -1e30,
            nan,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            0.0,
            f32::MAX,
            -0.0,
            f32::MIN,
            2.0,
        ]);
        check(&[
            0.0f64,
            f64::NAN,
            -0.0,
            3.0,
            3.0,
            f64::NEG_INFINITY,
            -3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -0.0,
            f64::INFINITY,
        ]);
        check(&[5i32, -5, 5, i32::MIN, i32::MAX, 0, 7, -1, 0]);
        check(&[5u64, 0, u64::MAX, 5, 1 << 40, 3, 0, u64::MAX - 1]);
    }

    #[test]
    fn corrupt_elements_changes_exactly_one_element() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        device.set_fault_plan(FaultPlan::new(7).corrupt_accesses_at(&[0]));
        let original: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut data = original.clone();
        let corruption = corrupt_elements(&mut device, "splitters", &mut data).unwrap();
        assert_eq!(corruption.region, "splitters");
        let changed = data
            .iter()
            .zip(&original)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(changed, 1, "one bit flip must hit exactly one element");
    }

    #[test]
    fn corrupt_elements_without_plan_is_noop() {
        let pool = ThreadPool::new(2);
        let mut device = Device::new(v100(), &pool);
        let mut data = vec![1.0f32, 2.0, 3.0];
        assert!(corrupt_elements(&mut device, "splitters", &mut data).is_none());
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
    }
}
