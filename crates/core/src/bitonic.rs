//! The bitonic sorting network (§IV-D, Batcher 1968).
//!
//! The paper implements "a simple bitonic sorting kernel operating in
//! shared memory" and uses it for (1) splitter selection in
//! SampleSelect, (2) pivot selection in QuickSelect, and (3) the
//! recursion base case of both algorithms. Bitonic sorting is chosen
//! because the compare-exchange schedule is data-independent — a perfect
//! fit for lockstep warps — at the price of `O(n log² n)` comparisons
//! and one block-wide barrier per stage.
//!
//! This implementation executes the exact network (same stages, same
//! compare-exchange pairs) sequentially per simulated block and reports
//! the resource usage the block would generate: compare-exchanges,
//! barrier count (one per `j`-stage), and shared-memory traffic.

use crate::element::SelectElement;
use gpu_sim::sanitizer::{SanitizerConfig, SanitizerReport};
use gpu_sim::warp::WARP_SIZE;
use gpu_sim::{BlockExec, KernelCost, WarpSchedule};

/// Resource usage of one bitonic sort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitonicStats {
    /// Compare-exchange operations executed (padded network).
    pub compare_exchanges: u64,
    /// Compare-exchanges whose partner distance is a multiple of the
    /// 32-bank shared-memory width (j >= 32; every such stride maps both
    /// operands of neighbouring threads into the same bank — a 2-way
    /// bank conflict that doubles the shared-memory transaction count).
    pub conflicted_exchanges: u64,
    /// Block-wide barriers (`__syncthreads`) — one per inner stage.
    pub barriers: u64,
    /// Network size after padding to a power of two.
    pub padded_len: usize,
}

impl BitonicStats {
    /// Charge this sort's work to a kernel cost record.
    ///
    /// Each compare-exchange is two shared-memory reads plus up to two
    /// writes and a comparison; barriers are charged as warp intrinsics
    /// (a `__syncthreads` costs on the order of a ballot).
    pub fn charge<T: SelectElement>(&self, cost: &mut KernelCost) {
        cost.smem_bytes += self.compare_exchanges * 4 * T::BYTES as u64;
        // bank-conflicted exchanges replay their transactions once more
        cost.smem_bytes += self.conflicted_exchanges * 4 * T::BYTES as u64;
        cost.int_ops += self.compare_exchanges;
        cost.warp_intrinsics += self.barriers;
    }
}

/// Sort `data` ascending with the bitonic network, returning the
/// network statistics.
///
/// Arbitrary lengths are supported by padding (conceptually) with
/// `T::max_value()` to the next power of two; the padded lanes
/// participate in the network like real GPU threads whose elements are
/// sentinel-initialized shared-memory slots.
pub fn bitonic_sort<T: SelectElement>(data: &mut [T]) -> BitonicStats {
    bitonic_sort_with_scratch(data, &mut Vec::new())
}

/// [`bitonic_sort`] with a caller-provided padded buffer, so repeated
/// sorts (one per recursion level / query) reuse one allocation. The
/// buffer is cleared and regrown to the padded length; contents after
/// the call are unspecified.
pub fn bitonic_sort_with_scratch<T: SelectElement>(
    data: &mut [T],
    buf: &mut Vec<T>,
) -> BitonicStats {
    let n = data.len();
    if n <= 1 {
        return BitonicStats {
            compare_exchanges: 0,
            conflicted_exchanges: 0,
            barriers: 0,
            padded_len: n,
        };
    }
    let padded = n.next_power_of_two();
    buf.clear();
    buf.extend_from_slice(data);
    buf.resize(padded, T::max_value());

    let mut stats = BitonicStats {
        compare_exchanges: 0,
        conflicted_exchanges: 0,
        barriers: 0,
        padded_len: padded,
    };

    // Standard bitonic network: k = size of the bitonic sequences being
    // merged, j = compare-exchange distance within a merge step.
    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            let conflicted = j >= 32;
            for i in 0..padded {
                let partner = i ^ j;
                if partner > i {
                    let ascending = i & k == 0;
                    let a = buf[i];
                    let b = buf[partner];
                    stats.compare_exchanges += 1;
                    if conflicted {
                        stats.conflicted_exchanges += 1;
                    }
                    if b.lt(a) == ascending {
                        buf.swap(i, partner);
                    }
                }
            }
            stats.barriers += 1;
            j /= 2;
        }
        k *= 2;
    }

    data.copy_from_slice(&buf[..n]);
    stats
}

/// The same bitonic network executed thread-level on a [`BlockExec`]:
/// the conformance reference for the vectorized [`bitonic_sort`].
///
/// Each `j`-stage is one BSP phase. The pair `(i, i ^ j)` is owned by
/// the lower-indexed thread, which reads and (conditionally) writes
/// both words — every shared word has exactly one accessor per phase,
/// so the kernel is race-free under any [`WarpSchedule`] and clean
/// under the sanitizer; both properties are what the conformance suite
/// asserts.
///
/// Returns the sorted keys plus the sanitizer report when `sanitize`
/// is set.
pub fn bitonic_sort_on_block(
    values: &[u32],
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u32>, Option<SanitizerReport>) {
    let n = values.len();
    if n <= 1 {
        return (
            values.to_vec(),
            sanitize.map(|_| SanitizerReport::default()),
        );
    }
    let padded = n.next_power_of_two();
    let threads = padded.max(WARP_SIZE);
    let mut block = match sanitize {
        Some(cfg) => BlockExec::with_sanitizer(threads, padded, cfg),
        None => BlockExec::new(threads, padded),
    };
    block.set_schedule(schedule);

    // load phase: lane i owns word i (padding lanes store the sentinel)
    block.phase(|tid, b| {
        if tid < padded {
            let v = values.get(tid).copied().unwrap_or(u32::MAX);
            b.smem_write(tid, v);
        }
    });

    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            block.phase(|tid, b| {
                let partner = tid ^ j;
                if tid < padded && partner > tid {
                    let ascending = tid & k == 0;
                    let a = b.smem_read(tid);
                    let v = b.smem_read(partner);
                    if (v < a) == ascending {
                        b.smem_write(tid, v);
                        b.smem_write(partner, a);
                    }
                }
            });
            j /= 2;
        }
        k *= 2;
    }

    let sorted = block.shared()[..n].to_vec();
    let report = block.take_sanitizer_report();
    (sorted, report)
}

/// Sorting-network-based selection: sort and pick rank `k`, with a
/// caller-provided padded sorting buffer. This is the base case of
/// both SampleSelect and QuickSelect (§IV-D).
pub fn bitonic_select_with_scratch<T: SelectElement>(
    data: &mut [T],
    k: usize,
    buf: &mut Vec<T>,
) -> (T, BitonicStats) {
    debug_assert!(k < data.len());
    let stats = bitonic_sort_with_scratch(data, buf);
    (data[k], stats)
}

/// Theoretical compare-exchange count of the padded network:
/// `p/2 * s * (s+1) / 2` for `p = 2^s`. Used to cross-check the
/// implementation in tests and to size cost estimates without running.
pub fn network_compare_exchanges(padded_len: usize) -> u64 {
    if padded_len <= 1 {
        return 0;
    }
    debug_assert!(padded_len.is_power_of_two());
    let s = padded_len.trailing_zeros() as u64;
    (padded_len as u64 / 2) * s * (s + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::sort_elements;
    use crate::rng::SplitMix64;

    fn is_sorted<T: SelectElement>(data: &[T]) -> bool {
        data.windows(2).all(|w| !w[1].lt(w[0]))
    }

    #[test]
    fn sorts_empty_and_singleton() {
        let mut empty: Vec<f32> = vec![];
        let stats = bitonic_sort(&mut empty);
        assert_eq!(stats.compare_exchanges, 0);
        let mut one = vec![3.0f32];
        bitonic_sort(&mut one);
        assert_eq!(one, vec![3.0]);
    }

    #[test]
    fn sorts_power_of_two_sizes() {
        let mut rng = SplitMix64::new(5);
        for exp in 1..=10 {
            let n = 1usize << exp;
            let mut data: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
            let mut expected = data.clone();
            sort_elements(&mut expected);
            bitonic_sort(&mut data);
            assert_eq!(data, expected, "n = {n}");
        }
    }

    #[test]
    fn sorts_non_power_of_two_sizes() {
        let mut rng = SplitMix64::new(17);
        for n in [3usize, 5, 7, 100, 1000, 1023] {
            let mut data: Vec<f64> = (0..n).map(|_| rng.next_f64() * 100.0 - 50.0).collect();
            let mut expected = data.clone();
            sort_elements(&mut expected);
            bitonic_sort(&mut data);
            assert_eq!(data, expected, "n = {n}");
        }
    }

    #[test]
    fn sorts_with_duplicates_and_max_values() {
        // max_value() padding must not corrupt real MAX elements.
        let mut data = vec![f32::MAX, 1.0, f32::MAX, -2.0, 1.0];
        bitonic_sort(&mut data);
        assert_eq!(data, vec![-2.0, 1.0, 1.0, f32::MAX, f32::MAX]);
    }

    #[test]
    fn zero_one_principle_spot_check() {
        // The 0-1 principle: a network sorting all 0/1 sequences sorts
        // everything. Exhaustively verify all 2^10 binary inputs for
        // n = 10 (padded to 16).
        for bits in 0u32..(1 << 10) {
            let mut data: Vec<u32> = (0..10).map(|i| (bits >> i) & 1).collect();
            bitonic_sort(&mut data);
            assert!(is_sorted(&data), "failed for pattern {bits:#b}");
        }
    }

    #[test]
    fn compare_exchange_count_matches_formula() {
        for exp in 1..=8 {
            let n = 1usize << exp;
            let mut data: Vec<u32> = (0..n as u32).rev().collect();
            let stats = bitonic_sort(&mut data);
            assert_eq!(
                stats.compare_exchanges,
                network_compare_exchanges(n),
                "n = {n}"
            );
            // barriers = s*(s+1)/2 stages
            let s = exp as u64;
            assert_eq!(stats.barriers, s * (s + 1) / 2);
        }
    }

    #[test]
    fn select_returns_kth_smallest() {
        let mut rng = SplitMix64::new(23);
        let data: Vec<i32> = (0..200).map(|_| rng.next_u64() as i32 % 50).collect();
        let mut sorted = data.clone();
        sort_elements(&mut sorted);
        for k in [0usize, 1, 42, 99, 199] {
            let mut copy = data.clone();
            let (v, _) = bitonic_select_with_scratch(&mut copy, k, &mut Vec::new());
            assert_eq!(v, sorted[k], "k = {k}");
        }
    }

    #[test]
    fn stats_charge_accumulates_cost() {
        let mut data: Vec<f32> = (0..64).map(|i| (64 - i) as f32).collect();
        let stats = bitonic_sort(&mut data);
        let mut cost = KernelCost::new();
        stats.charge::<f32>(&mut cost);
        assert_eq!(
            cost.smem_bytes,
            (stats.compare_exchanges + stats.conflicted_exchanges) * 16
        );
        assert_eq!(cost.int_ops, stats.compare_exchanges);
        assert_eq!(cost.warp_intrinsics, stats.barriers);
        // n = 64: stages with j = 32 exist, so some conflicts occur...
        assert!(stats.conflicted_exchanges > 0);
        // ...but most strides are sub-warp
        assert!(stats.conflicted_exchanges < stats.compare_exchanges / 2);
    }

    #[test]
    fn block_reference_matches_vectorized_network() {
        let mut rng = SplitMix64::new(31);
        for n in [1usize, 2, 7, 32, 100, 256] {
            let data: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
            let mut expected = data.clone();
            bitonic_sort(&mut expected);
            for schedule in [WarpSchedule::Sequential, WarpSchedule::Shuffled { seed: 3 }] {
                let (sorted, report) =
                    bitonic_sort_on_block(&data, schedule, Some(SanitizerConfig::full()));
                assert_eq!(sorted, expected, "n = {n}, schedule {schedule:?}");
                assert!(report.unwrap().is_clean());
            }
        }
    }

    #[test]
    fn small_networks_have_no_bank_conflicts() {
        // j < 32 throughout: all accesses land in distinct banks.
        let mut data: Vec<u32> = (0..32).rev().collect();
        let stats = bitonic_sort(&mut data);
        assert_eq!(stats.conflicted_exchanges, 0);
    }
}
