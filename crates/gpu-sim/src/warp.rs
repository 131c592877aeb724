//! Warp-level primitives.
//!
//! A *warp* is a group of 32 threads executing in lockstep. The functions
//! here reproduce the semantics of the CUDA warp intrinsics the paper's
//! kernels rely on (`__ballot_sync`, `__shfl_*_sync`) operating on
//! per-lane value slices. Partial warps (fewer than 32 active lanes, at
//! the tail of a data chunk) are supported throughout: lane `i` of the
//! slice is lane `i` of the warp and inactive lanes do not participate.

/// Threads per warp on every NVIDIA architecture to date.
pub const WARP_SIZE: usize = 32;

/// `__ballot_sync`: build a bitmask with bit `i` set iff lane `i`'s
/// predicate is true. Lanes beyond `preds.len()` are inactive (bit 0).
///
/// # Panics
/// Panics if more than 32 lanes are supplied.
pub fn ballot(preds: &[bool]) -> u32 {
    assert!(preds.len() <= WARP_SIZE, "a warp has at most 32 lanes");
    let mut mask = 0u32;
    for (lane, &p) in preds.iter().enumerate() {
        if p {
            mask |= 1 << lane;
        }
    }
    mask
}

/// Mask with one bit set for each active lane of a (possibly partial)
/// warp: `__activemask()` for a tail warp of `lanes` threads.
pub fn active_mask(lanes: usize) -> u32 {
    assert!(lanes <= WARP_SIZE);
    if lanes == WARP_SIZE {
        u32::MAX
    } else {
        (1u32 << lanes) - 1
    }
}

/// `__shfl_sync`: every lane reads the value held by `src_lane`.
pub fn shfl<T: Copy>(values: &[T], src_lane: usize) -> T {
    values[src_lane]
}

/// `__shfl_down_sync`-based butterfly sum: the warp-wide sum every lane
/// would observe after a standard shuffle reduction.
pub fn warp_sum(values: &[u64]) -> u64 {
    values.iter().sum()
}

/// Per-lane equality masks, the result of the paper's Fig. 6 loop:
/// `out[i]` has a bit set for every active lane holding the same value as
/// lane `i` (including lane `i` itself).
///
/// This is the semantics of the Volta `__match_any_sync` intrinsic, which
/// pre-Volta architectures emulate with `tree_height` ballots — see
/// [`match_any_via_ballots`] for the paper's emulation, which this
/// function is tested against.
pub fn match_any(values: &[u32]) -> Vec<u32> {
    assert!(values.len() <= WARP_SIZE);
    let mut out = vec![0u32; values.len()];
    for (i, &vi) in values.iter().enumerate() {
        let mut mask = 0u32;
        for (j, &vj) in values.iter().enumerate() {
            if vi == vj {
                mask |= 1 << j;
            }
        }
        out[i] = mask;
    }
    out
}

/// The paper's Fig. 6 warp-aggregation mask computation, verbatim: for
/// each of the `bits` bit positions of the bucket index, ballot the bit
/// and intersect, keeping exactly the lanes that agree with this lane on
/// every bit.
///
/// Returns the per-lane masks along with the number of ballots executed
/// (`bits`), which the caller charges as warp intrinsics.
pub fn match_any_via_ballots(values: &[u32], bits: u32) -> (Vec<u32>, u64) {
    assert!(values.len() <= WARP_SIZE);
    let lanes = values.len();
    let full = active_mask(lanes);
    let mut masks = vec![full; lanes];
    for b in 0..bits {
        let step: Vec<bool> = values.iter().map(|v| v & (1 << b) != 0).collect();
        let step_mask = ballot(&step);
        for (lane, mask) in masks.iter_mut().enumerate() {
            if step[lane] {
                // keep all threads that have the bit set
                *mask &= step_mask;
            } else {
                // keep all threads that don't have the bit set
                *mask &= !step_mask & full;
            }
        }
    }
    (masks, bits as u64)
}

/// Outcome of analysing one warp's worth of atomic-increment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpAtomicStats {
    /// Number of distinct addresses targeted by the warp.
    pub distinct: u32,
    /// Maximum number of lanes hitting the same address — the hardware
    /// replay/serialization depth for a non-aggregated atomic.
    pub max_multiplicity: u32,
    /// Number of active lanes.
    pub lanes: u32,
}

/// Analyse the per-lane atomic targets of one warp.
///
/// `scratch` must be a zeroed slice at least `num_targets` long; it is
/// returned zeroed (every lane's slot is reset), so one allocation can be
/// reused across all warps of a block. Each lane bumps its slot; a lane
/// whose bump makes the count 1 is the first at its address, so the
/// distinct addresses are counted without a branch per lane.
pub fn warp_atomic_stats(targets: &[u32], scratch: &mut [u32]) -> WarpAtomicStats {
    assert!(targets.len() <= WARP_SIZE);
    let mut distinct = 0u32;
    let mut max_mult = 0u32;
    for &t in targets {
        let slot = &mut scratch[t as usize];
        *slot += 1;
        distinct += u32::from(*slot == 1);
        max_mult = max_mult.max(*slot);
    }
    for &t in targets {
        scratch[t as usize] = 0;
    }
    WarpAtomicStats {
        distinct,
        max_multiplicity: max_mult,
        lanes: targets.len() as u32,
    }
}

/// The serialized "replay units" hardware spends on one warp-wide atomic:
/// with warp aggregation a single lane per distinct address issues the
/// op (conflict-free, one unit); without, same-address lanes replay.
pub fn replay_units(stats: WarpAtomicStats, aggregated: bool) -> u64 {
    if stats.lanes == 0 {
        return 0;
    }
    if aggregated {
        1
    } else {
        stats.max_multiplicity as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_basic() {
        assert_eq!(ballot(&[true, false, true]), 0b101);
        assert_eq!(ballot(&[false; 32]), 0);
        assert_eq!(ballot(&[true; 32]), u32::MAX);
        assert_eq!(ballot(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn ballot_rejects_oversized_warp() {
        ballot(&[true; 33]);
    }

    #[test]
    fn active_mask_partial_and_full() {
        assert_eq!(active_mask(0), 0);
        assert_eq!(active_mask(1), 1);
        assert_eq!(active_mask(5), 0b11111);
        assert_eq!(active_mask(32), u32::MAX);
    }

    #[test]
    fn shfl_reads_source_lane() {
        let vals = [10, 20, 30, 40];
        assert_eq!(shfl(&vals, 2), 30);
    }

    #[test]
    fn match_any_groups_equal_values() {
        let masks = match_any(&[7, 3, 7, 7]);
        assert_eq!(masks[0], 0b1101);
        assert_eq!(masks[1], 0b0010);
        assert_eq!(masks[2], 0b1101);
        assert_eq!(masks[3], 0b1101);
    }

    #[test]
    fn fig6_ballot_emulation_matches_match_any() {
        // Exhaustive-ish: pseudo-random bucket indices in [0, 256).
        let mut state = 0x12345678u64;
        for len in [1usize, 7, 31, 32] {
            for _ in 0..50 {
                let values: Vec<u32> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((state >> 33) % 256) as u32
                    })
                    .collect();
                let (emulated, ballots) = match_any_via_ballots(&values, 8);
                assert_eq!(ballots, 8);
                assert_eq!(emulated, match_any(&values), "values {values:?}");
            }
        }
    }

    #[test]
    fn fig6_with_fewer_bits_than_needed_conflates_buckets() {
        // Using fewer ballot bits than the index width merges buckets
        // that agree on the low bits — verifying the loop really uses
        // `tree_height` iterations for correctness.
        let values = [0u32, 8];
        let (masks, _) = match_any_via_ballots(&values, 3);
        // 0 and 8 agree on bits 0..3, so with 3 ballots they look equal.
        assert_eq!(masks[0], 0b11);
    }

    #[test]
    fn warp_stats_all_same() {
        let mut scratch = vec![0u32; 256];
        let stats = warp_atomic_stats(&[5; 32], &mut scratch);
        assert_eq!(stats.distinct, 1);
        assert_eq!(stats.max_multiplicity, 32);
        assert!(scratch.iter().all(|&c| c == 0), "scratch must be reset");
    }

    #[test]
    fn warp_stats_all_distinct() {
        let targets: Vec<u32> = (0..32).collect();
        let mut scratch = vec![0u32; 256];
        let stats = warp_atomic_stats(&targets, &mut scratch);
        assert_eq!(stats.distinct, 32);
        assert_eq!(stats.max_multiplicity, 1);
    }

    #[test]
    fn warp_stats_partial_warp() {
        let mut scratch = vec![0u32; 16];
        let stats = warp_atomic_stats(&[3, 3, 9], &mut scratch);
        assert_eq!(stats.distinct, 2);
        assert_eq!(stats.max_multiplicity, 2);
        assert_eq!(stats.lanes, 3);
    }

    proptest::proptest! {
        /// The stats equal a naive per-address count over any partial
        /// warp and bucket count, and the scratch comes back all zero.
        #[test]
        fn warp_stats_equal_a_naive_per_address_count(
            buckets in 1usize..1025,
            raw in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..33),
        ) {
            let targets: Vec<u32> = raw.iter().map(|&r| r % buckets as u32).collect();
            let mut per_address = vec![0u32; buckets];
            for &t in &targets {
                per_address[t as usize] += 1;
            }
            let mut scratch = vec![0u32; buckets];
            let stats = warp_atomic_stats(&targets, &mut scratch);
            let distinct = per_address.iter().filter(|&&c| c > 0).count() as u32;
            proptest::prop_assert_eq!(stats.distinct, distinct);
            let max = per_address.iter().copied().max().unwrap_or(0);
            proptest::prop_assert_eq!(stats.max_multiplicity, max);
            proptest::prop_assert_eq!(stats.lanes, targets.len() as u32);
            proptest::prop_assert!(scratch.iter().all(|&c| c == 0), "scratch must be reset");
        }
    }

    #[test]
    fn replay_units_model() {
        let mut scratch = vec![0u32; 64];
        let collide = warp_atomic_stats(&[1; 32], &mut scratch);
        assert_eq!(replay_units(collide, false), 32);
        assert_eq!(replay_units(collide, true), 1);
        let spread: Vec<u32> = (0..32).collect();
        let free = warp_atomic_stats(&spread, &mut scratch);
        assert_eq!(replay_units(free, false), 1);
        assert_eq!(replay_units(free, true), 1);
        let empty = warp_atomic_stats(&[], &mut scratch);
        assert_eq!(replay_units(empty, false), 0);
    }

    #[test]
    fn warp_sum_sums() {
        assert_eq!(warp_sum(&[1, 2, 3]), 6);
        assert_eq!(warp_sum(&[]), 0);
    }
}
