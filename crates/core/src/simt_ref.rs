//! Thread-level SIMT reference kernels for the differential conformance
//! suite.
//!
//! Each kernel family in this crate has a *vectorized* implementation
//! (slice iterators standing in for coalesced device loops) that the
//! drivers use, and the conformance suite (`tests/sanitizer_conformance.rs`)
//! needs an independent second opinion: the same algorithm written
//! thread-by-thread on [`BlockExec`], with every inter-thread
//! communication going through shared memory and explicit barriers —
//! the way the CUDA artifact actually executes.
//!
//! Running these references under the SIMT sanitizer
//! ([`BlockExec::with_sanitizer`]) and under *shuffled* warp schedules
//! ([`WarpSchedule::Shuffled`]) checks two things at once:
//!
//! 1. the reference itself is data-race-free (sanitizer-clean and
//!    schedule-independent), so its output is well-defined; and
//! 2. the vectorized fast path agrees with it bit-for-bit.
//!
//! The [`mutants`] submodule holds deliberately-broken variants — one
//! per sanitizer detector class — proving each detector actually fires.
//! They are test fixtures, not algorithm code.
//!
//! All references are deterministic across warp schedules by
//! construction: output positions are handed out by prefix sums, never
//! by atomic cursors, so a seed-shuffled schedule permutes only the
//! execution order, not the result.

use crate::SelectError;
use gpu_sim::sanitizer::{SanitizerConfig, SanitizerReport};
use gpu_sim::warp::WARP_SIZE;
use gpu_sim::{BlockExec, WarpSchedule};

/// Round a thread count up to a whole number of warps (at least one).
fn warp_round(n: usize) -> usize {
    n.max(1).div_ceil(WARP_SIZE) * WARP_SIZE
}

/// Build a block with the requested schedule, sanitized or not.
fn make_block(
    threads: usize,
    words: usize,
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> BlockExec {
    let mut block = match sanitize {
        Some(cfg) => BlockExec::with_sanitizer(threads, words, cfg),
        None => BlockExec::new(threads, words),
    };
    block.set_schedule(schedule);
    block
}

/// Merge an optional report into an accumulator.
fn fold_report(acc: &mut Option<SanitizerReport>, part: Option<SanitizerReport>) {
    match (acc.as_mut(), part) {
        (Some(a), Some(p)) => a.merge(&p),
        (None, Some(p)) => *acc = Some(p),
        _ => {}
    }
}

/// Thread-level histogram over per-element bucket indices — the
/// accumulation half of the `count` kernel (§IV-C), using the same
/// warp-cooperative shared-memory atomics as the vectorized path.
///
/// `targets[i]` is the bucket oracle of element `i` (as produced by
/// `count_kernel` with `write_oracles = true`); any index `>= counters`
/// is counted into no bucket (the caller guarantees this never happens
/// for real oracles).
pub fn block_histogram(
    targets: &[u32],
    counters: usize,
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u64>, Option<SanitizerReport>) {
    let threads = warp_round(counters);
    let mut block = make_block(threads, counters.max(1), schedule, sanitize);

    // Phase 0: zero the counters (one word per thread, race-free).
    block.phase(|tid, b| {
        if tid < counters {
            b.smem_write(tid, 0);
        }
    });

    // One warp-atomic instruction per 32-element chunk, all inside a
    // single barrier interval with no plain access to the counter words.
    for chunk in targets.chunks(WARP_SIZE) {
        block.warp_shared_atomic_add(0, chunk);
    }
    block.barrier();

    let counts = block.shared()[..counters]
        .iter()
        .map(|&c| c as u64)
        .collect();
    (counts, block.take_sanitizer_report())
}

/// Thread-level exclusive prefix sum — the `reduce` kernel (§IV-G) on a
/// single block: a double-buffered Hillis–Steele sweep (each step reads
/// one buffer and writes the other, so no phase both reads and writes
/// the same word).
pub fn block_exclusive_scan(
    values: &[u32],
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u32>, Option<SanitizerReport>) {
    let n = values.len();
    if n == 0 {
        let mut block = make_block(WARP_SIZE, 1, schedule, sanitize);
        return (Vec::new(), block.take_sanitizer_report());
    }
    let threads = warp_round(n);
    // Ping buffer at words [0, n), pong at [n, 2n).
    let mut block = make_block(threads, 2 * n, schedule, sanitize);

    block.phase(|tid, b| {
        if tid < n {
            b.smem_write(tid, values[tid]);
        }
    });

    let mut src = 0usize;
    let mut d = 1usize;
    while d < n {
        let dst = n - src;
        block.phase(|tid, b| {
            if tid < n {
                let mut v = b.smem_read(src + tid);
                if tid >= d {
                    v = v.wrapping_add(b.smem_read(src + tid - d));
                }
                b.smem_write(dst + tid, v);
            }
        });
        src = dst;
        d *= 2;
    }

    // Shift the inclusive scan right by one into the other buffer.
    let dst = n - src;
    block.phase(|tid, b| {
        if tid < n {
            let v = if tid == 0 {
                0
            } else {
                b.smem_read(src + tid - 1)
            };
            b.smem_write(dst + tid, v);
        }
    });

    let out = block.shared()[dst..dst + n].to_vec();
    (out, block.take_sanitizer_report())
}

/// Thread-level stream compaction — the `filter` kernel (§IV-G, step 3)
/// on a single block: flag, scan, scatter. Output positions come from
/// the in-block prefix sum, so the result preserves input order and is
/// identical under every warp schedule.
pub fn block_filter(
    data: &[u32],
    keep: &[bool],
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u32>, Option<SanitizerReport>) {
    assert_eq!(data.len(), keep.len());
    let n = data.len();
    if n == 0 {
        let mut block = make_block(WARP_SIZE, 1, schedule, sanitize);
        return (Vec::new(), block.take_sanitizer_report());
    }
    let threads = warp_round(n);
    // Scan ping/pong at [0, 2n), compacted output at [2n, 3n).
    let mut block = make_block(threads, 3 * n, schedule, sanitize);

    block.phase(|tid, b| {
        if tid < n {
            b.smem_write(tid, keep[tid] as u32);
        }
    });

    let mut src = 0usize;
    let mut d = 1usize;
    while d < n {
        let dst = n - src;
        block.phase(|tid, b| {
            if tid < n {
                let mut v = b.smem_read(src + tid);
                if tid >= d {
                    v = v.wrapping_add(b.smem_read(src + tid - d));
                }
                b.smem_write(dst + tid, v);
            }
        });
        src = dst;
        d *= 2;
    }

    // The inclusive scan lives in `src`; each flagged thread owns the
    // distinct slot `scan[tid] - 1`.
    let matched = block.shared()[src + n - 1] as usize;
    block.phase(|tid, b| {
        if tid < n && keep[tid] {
            let pos = b.smem_read(src + tid) as usize - 1;
            b.smem_write(2 * n + pos, data[tid]);
        }
    });

    let out = block.shared()[2 * n..2 * n + matched].to_vec();
    (out, block.take_sanitizer_report())
}

/// Thread-level MSD radix digit histogram — the reference for the count
/// kernel run with [`crate::radix::DigitClassifier`] (the `digit_count`
/// launches of RadixSelect): extract the 8-bit digit at `shift` from
/// every sort key (a register-only operation), then count into
/// [`crate::radix::RADIX_BUCKETS`] shared counters with the same
/// warp-cooperative atomics as [`block_histogram`]. Bucketing by digit
/// instead of by search-tree oracle is the *only* difference from the
/// sample-select count family, which is why production shares one count
/// kernel body and this reference shares one accumulator.
pub fn block_digit_histogram(
    keys: &[u64],
    shift: u32,
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u64>, Option<SanitizerReport>) {
    let digits: Vec<u32> = keys.iter().map(|&k| ((k >> shift) & 0xff) as u32).collect();
    block_histogram(&digits, crate::radix::RADIX_BUCKETS, schedule, sanitize)
}

/// Thread-level radix scatter — the filter half of a RadixSelect pass:
/// keep exactly the elements whose digit at `shift` equals `digit`, in
/// input order (flag → scan → scatter, positions from the prefix sum,
/// so the result is schedule-independent like the vectorized
/// `filter_kernel` it checks).
pub fn block_digit_scatter(
    data: &[u32],
    keys: &[u64],
    shift: u32,
    digit: u32,
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u32>, Option<SanitizerReport>) {
    assert_eq!(data.len(), keys.len());
    let keep: Vec<bool> = keys
        .iter()
        .map(|&k| ((k >> shift) & 0xff) as u32 == digit)
        .collect();
    block_filter(data, &keep, schedule, sanitize)
}

/// Thread-level QuickSelect bipartition (§V-B): three compaction passes
/// producing `smaller ++ equal ++ larger`, each region in input order —
/// exactly the layout `bipartition_kernel` produces (its per-block scan
/// offsets also fill each region in input order).
pub fn block_bipartition(
    data: &[u32],
    pivot: u32,
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u32>, u64, u64, Option<SanitizerReport>) {
    let lt: Vec<bool> = data.iter().map(|&x| x < pivot).collect();
    let eq: Vec<bool> = data.iter().map(|&x| x == pivot).collect();
    let gt: Vec<bool> = data.iter().map(|&x| x > pivot).collect();

    let (mut out, r0) = block_filter(data, &lt, schedule, sanitize);
    let (mid, r1) = block_filter(data, &eq, schedule, sanitize);
    let (hi, r2) = block_filter(data, &gt, schedule, sanitize);

    let smaller = out.len() as u64;
    let equal = mid.len() as u64;
    out.extend(mid);
    out.extend(hi);

    let mut report = None;
    fold_report(&mut report, r0);
    fold_report(&mut report, r1);
    fold_report(&mut report, r2);
    (out, smaller, equal, report)
}

/// Thread-level bucket-range extraction — the shape of both the filter
/// stage of exact SampleSelect and the fused top-k gather: concatenate
/// the elements of buckets `lo..hi` in bucket-major order, each bucket's
/// elements in input order (the layout the vectorized `filter_kernel`
/// produces from its bucket-major scan offsets).
pub fn block_bucket_concat(
    data: &[u32],
    oracle: &[u32],
    lo: u32,
    hi: u32,
    schedule: WarpSchedule,
    sanitize: Option<SanitizerConfig>,
) -> (Vec<u32>, Option<SanitizerReport>) {
    assert_eq!(data.len(), oracle.len());
    let mut out = Vec::new();
    let mut report = None;
    for bucket in lo..hi {
        let keep: Vec<bool> = oracle.iter().map(|&o| o == bucket).collect();
        let (part, r) = block_filter(data, &keep, schedule, sanitize);
        out.extend(part);
        fold_report(&mut report, r);
    }
    if out.is_empty() && report.is_none() {
        // Degenerate empty range: still surface a (clean) report when
        // sanitizing so callers can assert on it uniformly.
        let mut block = make_block(WARP_SIZE, 1, schedule, sanitize);
        report = block.take_sanitizer_report();
    }
    (out, report)
}

/// Deliberately-broken kernels, one per sanitizer detector class.
///
/// These are the *negative* half of the conformance suite: each mutant
/// re-creates a real CUDA bug pattern (missing `__syncthreads`, in-place
/// scan, divergent barrier, …) and the suite asserts the corresponding
/// [`gpu_sim::SanitizerKind`] actually fires. None of them panic with
/// the sanitizer armed — findings are reported, execution degrades
/// gracefully, exactly like `compute-sanitizer` on hardware.
pub mod mutants {
    use super::*;

    /// Every thread stores to word 0 in one phase — the canonical
    /// write/write race (a block-wide "last writer wins" reduction
    /// written without atomics).
    pub fn write_write_race(schedule: WarpSchedule, cfg: SanitizerConfig) -> SanitizerReport {
        let mut block = make_block(2 * WARP_SIZE, 1, schedule, Some(cfg));
        block.phase(|tid, b| {
            b.smem_write(0, tid as u32);
        });
        block.take_sanitizer_report().expect("sanitizer was armed")
    }

    /// An *in-place* Hillis–Steele scan step: thread `tid` reads word
    /// `tid - 1` while thread `tid - 1` writes it in the same phase —
    /// the classic missing-double-buffer bug.
    pub fn read_write_race(schedule: WarpSchedule, cfg: SanitizerConfig) -> SanitizerReport {
        let n = 2 * WARP_SIZE;
        let mut block = make_block(n, n, schedule, Some(cfg));
        block.phase(|tid, b| {
            b.smem_write(tid, 1);
        });
        block.phase(|tid, b| {
            if tid > 0 {
                let v = b.smem_read(tid - 1);
                let own = b.smem_read(tid);
                b.smem_write(tid, own.wrapping_add(v));
            }
        });
        block.take_sanitizer_report().expect("sanitizer was armed")
    }

    /// Half the block executes a conditional `__syncthreads` the other
    /// half skips — barrier divergence (deadlock or undefined behaviour
    /// on hardware).
    pub fn barrier_divergence(schedule: WarpSchedule, cfg: SanitizerConfig) -> SanitizerReport {
        let n = 2 * WARP_SIZE;
        let mut block = make_block(n, n, schedule, Some(cfg));
        block.phase(|tid, b| {
            if tid < n / 2 {
                b.thread_barrier();
            }
        });
        block.take_sanitizer_report().expect("sanitizer was armed")
    }

    /// Reads shared words that no thread ever initialised (a reduction
    /// over a partially-zeroed scratch buffer).
    pub fn uninit_read(schedule: WarpSchedule, cfg: SanitizerConfig) -> SanitizerReport {
        let n = 2 * WARP_SIZE;
        let mut block = make_block(n, n, schedule, Some(cfg));
        block.phase(|tid, b| {
            let _ = b.smem_read(tid);
        });
        block.take_sanitizer_report().expect("sanitizer was armed")
    }

    /// Thread 0 stores one word past the end of the shared allocation.
    ///
    /// With the sanitizer armed the access is reported as a finding and
    /// dropped; disarmed, the checked accessor surfaces it as
    /// [`SelectError::SharedOutOfBounds`] instead of a panic — the
    /// satellite contract for the former `smem_write` OOB panic.
    pub fn oob_access(
        schedule: WarpSchedule,
        sanitize: Option<SanitizerConfig>,
    ) -> Result<SanitizerReport, SelectError> {
        let words = 16usize;
        let armed = sanitize.is_some();
        let mut block = make_block(WARP_SIZE, words, schedule, sanitize);
        let mut oob: Option<SelectError> = None;
        block.phase(|tid, b| {
            if tid == 0 {
                if let Err(e) = b.try_smem_write(words, 7) {
                    oob = Some(SelectError::SharedOutOfBounds {
                        kernel: "oob-mutant",
                        index: e.index,
                        len: e.len,
                    });
                }
            }
        });
        if armed {
            Ok(block.take_sanitizer_report().expect("sanitizer was armed"))
        } else {
            Err(oob.expect("out-of-bounds store must be rejected"))
        }
    }

    /// A radix digit histogram accumulated with *plain* shared-memory
    /// read-modify-write instead of atomics: every thread loads its
    /// digit's counter and stores `+1` back in the same phase, so any
    /// two threads sharing a digit race on the counter word — the
    /// classic dropped-increment histogram bug (`counts[d]++` without
    /// `atomicAdd`). Feed it duplicate-heavy keys and the write-write
    /// detector must fire.
    pub fn racy_digit_histogram(
        keys: &[u64],
        shift: u32,
        schedule: WarpSchedule,
        cfg: SanitizerConfig,
    ) -> SanitizerReport {
        let counters = crate::radix::RADIX_BUCKETS;
        let threads = warp_round(counters.max(keys.len()));
        let mut block = make_block(threads, counters, schedule, Some(cfg));
        block.phase(|tid, b| {
            if tid < counters {
                b.smem_write(tid, 0);
            }
        });
        block.phase(|tid, b| {
            if tid < keys.len() {
                let d = ((keys[tid] >> shift) & 0xff) as usize;
                let v = b.smem_read(d);
                b.smem_write(d, v.wrapping_add(1));
            }
        });
        block.take_sanitizer_report().expect("sanitizer was armed")
    }

    /// Warp atomics and a plain load hit the same counter word inside
    /// one barrier interval — the missing `__syncthreads` between
    /// histogram accumulation and readback.
    pub fn mixed_atomic(schedule: WarpSchedule, cfg: SanitizerConfig) -> SanitizerReport {
        let counters = 4usize;
        let mut block = make_block(WARP_SIZE, counters, schedule, Some(cfg));
        block.phase(|tid, b| {
            if tid < counters {
                b.smem_write(tid, 0);
            }
        });
        let targets: Vec<u32> = (0..WARP_SIZE as u32).map(|i| i % counters as u32).collect();
        block.warp_shared_atomic_add(0, &targets);
        // No barrier here: the plain read below lands in the same
        // interval as the atomics above.
        block.phase(|tid, b| {
            if tid == 0 {
                let _ = b.smem_read(0);
            }
        });
        block.take_sanitizer_report().expect("sanitizer was armed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::sanitizer::SanitizerKind;

    fn schedules() -> [WarpSchedule; 3] {
        [
            WarpSchedule::Sequential,
            WarpSchedule::Shuffled { seed: 0xfeed },
            WarpSchedule::Shuffled { seed: 42 },
        ]
    }

    #[test]
    fn histogram_matches_host_and_is_clean() {
        let targets: Vec<u32> = (0..500).map(|i| (i * 7 + 3) % 16).collect();
        let mut expect = vec![0u64; 16];
        for &t in &targets {
            expect[t as usize] += 1;
        }
        for schedule in schedules() {
            let (counts, report) =
                block_histogram(&targets, 16, schedule, Some(SanitizerConfig::full()));
            assert_eq!(counts, expect);
            assert!(report.unwrap().is_clean());
        }
    }

    #[test]
    fn exclusive_scan_matches_host_and_is_clean() {
        let values: Vec<u32> = (0..100).map(|i| (i * 13 + 1) % 9).collect();
        let mut expect = Vec::with_capacity(values.len());
        let mut run = 0u32;
        for &v in &values {
            expect.push(run);
            run += v;
        }
        for schedule in schedules() {
            let (scan, report) =
                block_exclusive_scan(&values, schedule, Some(SanitizerConfig::full()));
            assert_eq!(scan, expect);
            assert!(report.unwrap().is_clean());
        }
    }

    #[test]
    fn filter_preserves_input_order_and_is_clean() {
        let data: Vec<u32> = (0..200).map(|i| i * 3 % 101).collect();
        let keep: Vec<bool> = data.iter().map(|&x| x % 2 == 0).collect();
        let expect: Vec<u32> = data
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&x, _)| x)
            .collect();
        for schedule in schedules() {
            let (out, report) = block_filter(&data, &keep, schedule, Some(SanitizerConfig::full()));
            assert_eq!(out, expect);
            assert!(report.unwrap().is_clean());
        }
    }

    #[test]
    fn bipartition_layout_matches_host_partition() {
        let data: Vec<u32> = (0..150).map(|i| (i * 31 + 5) % 40).collect();
        let pivot = 17;
        let (out, smaller, equal, report) = block_bipartition(
            &data,
            pivot,
            WarpSchedule::Shuffled { seed: 9 },
            Some(SanitizerConfig::full()),
        );
        assert_eq!(out.len(), data.len());
        let s = smaller as usize;
        let e = equal as usize;
        assert!(out[..s].iter().all(|&x| x < pivot));
        assert!(out[s..s + e].iter().all(|&x| x == pivot));
        assert!(out[s + e..].iter().all(|&x| x > pivot));
        assert!(report.unwrap().is_clean());
    }

    #[test]
    fn empty_inputs_yield_clean_reports() {
        let (counts, r) = block_histogram(
            &[],
            4,
            WarpSchedule::Sequential,
            Some(SanitizerConfig::full()),
        );
        assert_eq!(counts, vec![0; 4]);
        assert!(r.unwrap().is_clean());
        let (scan, r) =
            block_exclusive_scan(&[], WarpSchedule::Sequential, Some(SanitizerConfig::full()));
        assert!(scan.is_empty());
        assert!(r.unwrap().is_clean());
        let (out, r) = block_filter(
            &[],
            &[],
            WarpSchedule::Sequential,
            Some(SanitizerConfig::full()),
        );
        assert!(out.is_empty());
        assert!(r.unwrap().is_clean());
    }

    #[test]
    fn mutants_trip_their_detectors() {
        let cfg = SanitizerConfig::full();
        let s = WarpSchedule::Sequential;
        assert!(mutants::write_write_race(s, cfg).count_of(SanitizerKind::WriteWriteRace) > 0);
        assert!(mutants::read_write_race(s, cfg).count_of(SanitizerKind::ReadWriteRace) > 0);
        assert!(mutants::barrier_divergence(s, cfg).count_of(SanitizerKind::BarrierDivergence) > 0);
        assert!(mutants::uninit_read(s, cfg).count_of(SanitizerKind::UninitRead) > 0);
        assert!(
            mutants::oob_access(s, Some(cfg))
                .unwrap()
                .count_of(SanitizerKind::OutOfBounds)
                > 0
        );
        assert!(mutants::mixed_atomic(s, cfg).count_of(SanitizerKind::MixedAtomic) > 0);
    }

    #[test]
    fn oob_mutant_surfaces_select_error_when_disarmed() {
        let err = mutants::oob_access(WarpSchedule::Sequential, None).unwrap_err();
        match err {
            SelectError::SharedOutOfBounds { kernel, index, len } => {
                assert_eq!(kernel, "oob-mutant");
                assert_eq!(index, 16);
                assert_eq!(len, 16);
            }
            other => panic!("expected SharedOutOfBounds, got {other:?}"),
        }
    }
}
