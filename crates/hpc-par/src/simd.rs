//! Lane-parallel CPU primitives for the selection hot path.
//!
//! The `hpc-par` backend is the workspace's only real-wall-clock path,
//! and its profile is dominated by three scalar per-element loops: the
//! search-tree descent of the count kernel, the oracle compare +
//! compress of the filter kernel, and the pivot compare of the
//! bipartition kernels. This module provides explicit-SIMD versions of
//! exactly those primitives — 8 lanes of `u32` / 4 lanes of `u64` per
//! step via AVX2 (`core::arch::x86_64`), with a portable unrolled-scalar
//! fallback — all operating on **order-preserving unsigned sort keys**
//! so the float/NaN total order is preserved bit-for-bit.
//!
//! ## Dispatch policy
//!
//! The active level is selected **once at startup** (first call to
//! [`simd_level`]) from the `SELECT_SIMD` environment variable:
//!
//! * `scalar` — the portable unrolled key-based fallback (no
//!   intrinsics), the reference level;
//! * `avx2`   — the AVX2 path (silently demoted to `scalar` when the
//!   CPU lacks AVX2, so the knob is safe on any runner);
//! * anything else (`on`, `auto`, unset, …) — best available: `avx2`
//!   when detected, otherwise `scalar`.
//!
//! Benches and bit-identity tests can override the startup choice at
//! runtime with [`force_level`]; because every level computes
//! bit-identical results, a concurrent reader racing a forced switch
//! still gets a correct answer — only its speed differs.
//!
//! ## Key-based descent
//!
//! All primitives compare *unsigned keys*, never raw elements: the
//! caller maps elements through a monotone `element order ⇔ unsigned
//! key order` transform (see `SelectElement::to_lt_key` in the core
//! crate) and the tree nodes through the same transform. Unsigned
//! comparison is implemented on AVX2 by XOR-ing both sides with the
//! sign bit and using the signed compare — the classic bias trick.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How wide the widest 32-bit-lane path is. Parallel chunk boundaries
/// aligned to this keep every chunk's SIMD main loop identical no
/// matter how many threads split the work.
pub const MAX_LANES: usize = 8;

/// The dispatch level of the lane-parallel primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable unrolled key-based descent (no intrinsics); the
    /// reference level.
    Scalar = 1,
    /// AVX2: 8×u32 / 4×u64 lanes per step.
    Avx2 = 2,
}

impl SimdLevel {
    /// Stable lowercase name (CLI output, metrics, bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether this CPU supports the AVX2 dispatch level.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The level configured at startup from `SELECT_SIMD` (read once;
/// later changes to the variable have no effect).
pub fn configured_level() -> SimdLevel {
    static CONFIGURED: OnceLock<SimdLevel> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        let choice = std::env::var("SELECT_SIMD").unwrap_or_default();
        match choice.trim().to_ascii_lowercase().as_str() {
            "scalar" => SimdLevel::Scalar,
            "avx2" => {
                if avx2_available() {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Scalar
                }
            }
            // "on", "auto", unset, or anything else: best available.
            _ => {
                if avx2_available() {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Scalar
                }
            }
        }
    })
}

/// Runtime override used by interleaved benches and bit-identity tests:
/// `0xff` means "no override", otherwise the `SimdLevel` discriminant.
static FORCED: AtomicU8 = AtomicU8::new(0xff);

/// Override (or clear) the dispatch level at runtime. `Avx2` requests
/// on non-AVX2 hardware are demoted to `Scalar`.
pub fn force_level(level: Option<SimdLevel>) {
    let v = match level {
        None => 0xff,
        Some(SimdLevel::Avx2) if !avx2_available() => SimdLevel::Scalar as u8,
        Some(l) => l as u8,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// The effective dispatch level: a [`force_level`] override when one is
/// set, the startup [`configured_level`] otherwise.
#[inline]
pub fn simd_level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        _ => configured_level(),
    }
}

// ---------------------------------------------------------------------
// Order-preserving key transforms for floats
// ---------------------------------------------------------------------
//
// The integer element types map to keys with a copy or a sign-bit XOR,
// which LLVM vectorizes on its own; only the float transforms (NaN
// normalization + sign-magnitude flip) carry branches worth lifting
// into explicit SIMD. The scalar definitions below are the reference
// semantics; the AVX2 bodies must (and do — pinned by tests) match
// them bit-for-bit.

/// `f32` sort key: IEEE total order with every NaN collapsed to the
/// maximum key. Must stay bit-identical to `SelectElement::to_sort_key`
/// for `f32` in the core crate.
#[inline]
pub fn sort_key_f32(v: f32) -> u32 {
    if v.is_nan() {
        return u32::MAX;
    }
    let bits = v.to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000
    }
}

/// `f32` comparison key: [`sort_key_f32`] with `-0.0` collapsed onto
/// `0.0`, so `a < b` under the kernel comparison (`SelectElement::lt`)
/// iff `lt_key_f32(a) < lt_key_f32(b)` — with no exceptions at all.
#[inline]
pub fn lt_key_f32(v: f32) -> u32 {
    if v == 0.0 {
        0x8000_0000
    } else {
        sort_key_f32(v)
    }
}

/// `f64` sort key (see [`sort_key_f32`]).
#[inline]
pub fn sort_key_f64(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    let bits = v.to_bits();
    if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits ^ 0x8000_0000_0000_0000
    }
}

/// `f64` comparison key (see [`lt_key_f32`]).
#[inline]
pub fn lt_key_f64(v: f64) -> u64 {
    if v == 0.0 {
        0x8000_0000_0000_0000
    } else {
        sort_key_f64(v)
    }
}

/// `dst[i] = lt_key_f32(src[i])`, SIMD when the level allows.
pub fn lt_keys_f32(src: &[f32], dst: &mut [u32], level: SimdLevel) {
    debug_assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        unsafe { lt_keys_f32_avx2(src, dst) };
        return;
    }
    let _ = level;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = lt_key_f32(s);
    }
}

/// `dst[i] = sort_key_f32(src[i])`, SIMD when the level allows.
pub fn sort_keys_f32(src: &[f32], dst: &mut [u32], level: SimdLevel) {
    debug_assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        unsafe { sort_keys_f32_avx2(src, dst) };
        return;
    }
    let _ = level;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = sort_key_f32(s);
    }
}

/// `dst[i] = lt_key_f64(src[i])`, SIMD when the level allows.
pub fn lt_keys_f64(src: &[f64], dst: &mut [u64], level: SimdLevel) {
    debug_assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        unsafe { lt_keys_f64_avx2(src, dst) };
        return;
    }
    let _ = level;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = lt_key_f64(s);
    }
}

/// `dst[i] = sort_key_f64(src[i])`, SIMD when the level allows.
pub fn sort_keys_f64(src: &[f64], dst: &mut [u64], level: SimdLevel) {
    debug_assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        unsafe { sort_keys_f64_avx2(src, dst) };
        return;
    }
    let _ = level;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = sort_key_f64(s);
    }
}

// ---------------------------------------------------------------------
// Branchless search-tree descent
// ---------------------------------------------------------------------

/// Walk every key down an implicit (Eytzinger-layout) splitter tree of
/// `nodes.len() = b - 1` key-transformed nodes and store each key's
/// bucket index. All lanes descend exactly `height = log2(b)` levels
/// with the branch-free update `i = 2i + 2 - (key < node[i])`, so the
/// result is independent of lane width and identical to the scalar
/// reference `SearchTree::lookup`.
pub fn descend_u32(keys: &[u32], nodes: &[u32], height: u32, out: &mut [u32], level: SimdLevel) {
    debug_assert!(out.len() >= keys.len());
    debug_assert_eq!(nodes.len() + 1, 1usize << height);
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        unsafe { descend_u32_avx2(keys, nodes, height, out) };
        return;
    }
    let _ = level;
    descend_u32_scalar(keys, nodes, height, out);
}

/// 64-bit-key variant of [`descend_u32`] (4 AVX2 lanes per step).
pub fn descend_u64(keys: &[u64], nodes: &[u64], height: u32, out: &mut [u32], level: SimdLevel) {
    debug_assert!(out.len() >= keys.len());
    debug_assert_eq!(nodes.len() + 1, 1usize << height);
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        unsafe { descend_u64_avx2(keys, nodes, height, out) };
        return;
    }
    let _ = level;
    descend_u64_scalar(keys, nodes, height, out);
}

/// Portable fallback: four independent descents interleaved per
/// iteration so the serially-dependent level walks overlap in the
/// pipeline even without vector registers.
fn descend_u32_scalar(keys: &[u32], nodes: &[u32], height: u32, out: &mut [u32]) {
    let b1 = nodes.len();
    let n = keys.len();
    let mut i = 0;
    while i + 4 <= n {
        let (k0, k1, k2, k3) = (keys[i], keys[i + 1], keys[i + 2], keys[i + 3]);
        let (mut i0, mut i1, mut i2, mut i3) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..height {
            i0 = 2 * i0 + 2 - (k0 < nodes[i0]) as usize;
            i1 = 2 * i1 + 2 - (k1 < nodes[i1]) as usize;
            i2 = 2 * i2 + 2 - (k2 < nodes[i2]) as usize;
            i3 = 2 * i3 + 2 - (k3 < nodes[i3]) as usize;
        }
        out[i] = (i0 - b1) as u32;
        out[i + 1] = (i1 - b1) as u32;
        out[i + 2] = (i2 - b1) as u32;
        out[i + 3] = (i3 - b1) as u32;
        i += 4;
    }
    for j in i..n {
        let k = keys[j];
        let mut ix = 0usize;
        for _ in 0..height {
            ix = 2 * ix + 2 - (k < nodes[ix]) as usize;
        }
        out[j] = (ix - b1) as u32;
    }
}

fn descend_u64_scalar(keys: &[u64], nodes: &[u64], height: u32, out: &mut [u32]) {
    let b1 = nodes.len();
    let n = keys.len();
    let mut i = 0;
    while i + 4 <= n {
        let (k0, k1, k2, k3) = (keys[i], keys[i + 1], keys[i + 2], keys[i + 3]);
        let (mut i0, mut i1, mut i2, mut i3) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..height {
            i0 = 2 * i0 + 2 - (k0 < nodes[i0]) as usize;
            i1 = 2 * i1 + 2 - (k1 < nodes[i1]) as usize;
            i2 = 2 * i2 + 2 - (k2 < nodes[i2]) as usize;
            i3 = 2 * i3 + 2 - (k3 < nodes[i3]) as usize;
        }
        out[i] = (i0 - b1) as u32;
        out[i + 1] = (i1 - b1) as u32;
        out[i + 2] = (i2 - b1) as u32;
        out[i + 3] = (i3 - b1) as u32;
        i += 4;
    }
    for j in i..n {
        let k = keys[j];
        let mut ix = 0usize;
        for _ in 0..height {
            ix = 2 * ix + 2 - (k < nodes[ix]) as usize;
        }
        out[j] = (ix - b1) as u32;
    }
}

// ---------------------------------------------------------------------
// Compare-mask primitives (filter / bipartition)
// ---------------------------------------------------------------------

/// Bit `i` of the result is set iff `bytes[i] == target`.
/// `bytes.len()` must be at most 32 (one warp of one-byte oracles).
pub fn eq_mask_u8(bytes: &[u8], target: u8, level: SimdLevel) -> u32 {
    debug_assert!(bytes.len() <= 32);
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 && bytes.len() == 32 {
        return unsafe { eq_mask_u8_avx2(bytes, target) };
    }
    let _ = level;
    let mut m = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        m |= ((b == target) as u32) << i;
    }
    m
}

/// `(lt, eq)` bit masks of up to 32 keys against a pivot key: bit `i`
/// of `lt` is set iff `keys[i] < pivot`, of `eq` iff `keys[i] == pivot`.
pub fn pivot_masks_u32(keys: &[u32], pivot: u32, level: SimdLevel) -> (u32, u32) {
    debug_assert!(keys.len() <= 32);
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        return unsafe { pivot_masks_u32_avx2(keys, pivot) };
    }
    let _ = level;
    let (mut lt, mut eq) = (0u32, 0u32);
    for (i, &k) in keys.iter().enumerate() {
        lt |= ((k < pivot) as u32) << i;
        eq |= ((k == pivot) as u32) << i;
    }
    (lt, eq)
}

/// 64-bit-key variant of [`pivot_masks_u32`].
pub fn pivot_masks_u64(keys: &[u64], pivot: u64, level: SimdLevel) -> (u32, u32) {
    debug_assert!(keys.len() <= 32);
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        return unsafe { pivot_masks_u64_avx2(keys, pivot) };
    }
    let _ = level;
    let (mut lt, mut eq) = (0u32, 0u32);
    for (i, &k) in keys.iter().enumerate() {
        lt |= ((k < pivot) as u32) << i;
        eq |= ((k == pivot) as u32) << i;
    }
    (lt, eq)
}

// ---------------------------------------------------------------------
// Masked compress (stable left-pack)
// ---------------------------------------------------------------------

/// Byte-permutation table: entry `m` lists, in ascending order, the
/// positions of the set bits of the 8-bit mask `m` (unused tail slots
/// repeat the last position; they are never stored past the popcount).
static COMPRESS8: [[u8; 8]; 256] = build_compress8();

const fn build_compress8() -> [[u8; 8]; 256] {
    let mut table = [[0u8; 8]; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut out = 0usize;
        let mut bit = 0usize;
        while bit < 8 {
            if m & (1 << bit) != 0 {
                table[m][out] = bit as u8;
                out += 1;
            }
            bit += 1;
        }
        // pad with the last valid lane so permuted garbage lanes read
        // in-bounds data
        let pad = if out > 0 { table[m][out - 1] } else { 0 };
        while out < 8 {
            table[m][out] = pad;
            out += 1;
        }
        m += 1;
    }
    table
}

/// Left-pack the elements of `src` whose mask bit is set into the front
/// of `dst`, preserving their relative order (stability). Returns the
/// number packed. `dst.len()` must be at least `src.len()` — the AVX2
/// path stores full vectors and advances by the popcount, so it may
/// scribble up to a vector past the packed prefix (never past
/// `src.len()` slots).
pub fn compress_u32(src: &[u32], mask: u32, dst: &mut [u32], level: SimdLevel) -> usize {
    debug_assert!(src.len() <= 32);
    debug_assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 && src.len() == 32 {
        return unsafe { compress_u32_avx2(src, mask, dst) };
    }
    let _ = level;
    compress_by_bits_u32(src, mask, dst)
}

/// 64-bit element variant of [`compress_u32`] (nibble-mask groups).
pub fn compress_u64(src: &[u64], mask: u32, dst: &mut [u64], level: SimdLevel) -> usize {
    debug_assert!(src.len() <= 32);
    debug_assert!(dst.len() >= src.len());
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 && src.len() == 32 {
        return unsafe { compress_u64_avx2(src, mask, dst) };
    }
    let _ = level;
    compress_by_bits_u64(src, mask, dst)
}

fn compress_by_bits_u32(src: &[u32], mask: u32, dst: &mut [u32]) -> usize {
    let mut m = mask & mask_for_len(src.len());
    let mut out = 0;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        dst[out] = src[lane];
        out += 1;
        m &= m - 1;
    }
    out
}

fn compress_by_bits_u64(src: &[u64], mask: u32, dst: &mut [u64]) -> usize {
    let mut m = mask & mask_for_len(src.len());
    let mut out = 0;
    while m != 0 {
        let lane = m.trailing_zeros() as usize;
        dst[out] = src[lane];
        out += 1;
        m &= m - 1;
    }
    out
}

/// All-ones mask covering `len` lanes (`len <= 32`).
#[inline]
pub fn mask_for_len(len: usize) -> u32 {
    if len >= 32 {
        u32::MAX
    } else {
        (1u32 << len) - 1
    }
}

// ---------------------------------------------------------------------
// AVX2 bodies
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::COMPRESS8;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lt_keys_f32_avx2(src: &[f32], dst: &mut [u32]) {
        float_keys_f32(src, dst, true)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sort_keys_f32_avx2(src: &[f32], dst: &mut [u32]) {
        float_keys_f32(src, dst, false)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn float_keys_f32(src: &[f32], dst: &mut [u32], collapse_zero: bool) {
        let n = src.len();
        let top = _mm256_set1_epi32(i32::MIN);
        let all = _mm256_set1_epi32(-1);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(src.as_ptr().add(i));
            let bits = _mm256_castps_si256(v);
            // sign-magnitude -> biased unsigned: positive ^= TOP, negative = !bits
            let sign = _mm256_srai_epi32::<31>(bits);
            let flip = _mm256_or_si256(sign, top);
            let mut key = _mm256_xor_si256(bits, flip);
            // every NaN collapses to the maximum key
            let nan = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
            key = _mm256_blendv_epi8(key, all, nan);
            if collapse_zero {
                // -0.0 and 0.0 tie under the kernel comparison
                let zero = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_EQ_OQ>(v, _mm256_setzero_ps()));
                key = _mm256_blendv_epi8(key, top, zero);
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, key);
            i += 8;
        }
        for j in i..n {
            dst[j] = if collapse_zero {
                super::lt_key_f32(src[j])
            } else {
                super::sort_key_f32(src[j])
            };
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lt_keys_f64_avx2(src: &[f64], dst: &mut [u64]) {
        float_keys_f64(src, dst, true)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sort_keys_f64_avx2(src: &[f64], dst: &mut [u64]) {
        float_keys_f64(src, dst, false)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn float_keys_f64(src: &[f64], dst: &mut [u64], collapse_zero: bool) {
        let n = src.len();
        let top = _mm256_set1_epi64x(i64::MIN);
        let all = _mm256_set1_epi64x(-1);
        let zeros = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(src.as_ptr().add(i));
            let bits = _mm256_castpd_si256(v);
            // AVX2 has no 64-bit arithmetic shift; sign mask via signed cmp
            let sign = _mm256_cmpgt_epi64(zeros, bits);
            let flip = _mm256_or_si256(sign, top);
            let mut key = _mm256_xor_si256(bits, flip);
            let nan = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_UNORD_Q>(v, v));
            key = _mm256_blendv_epi8(key, all, nan);
            if collapse_zero {
                let zero = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_EQ_OQ>(v, _mm256_setzero_pd()));
                key = _mm256_blendv_epi8(key, top, zero);
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, key);
            i += 4;
        }
        for j in i..n {
            dst[j] = if collapse_zero {
                super::lt_key_f64(src[j])
            } else {
                super::sort_key_f64(src[j])
            };
        }
    }

    /// One 8-lane descent step bundle: walks 4 independent vectors
    /// (one warp of 32 keys) so the serially-dependent gather chains
    /// overlap.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn descend_u32_avx2(keys: &[u32], nodes: &[u32], height: u32, out: &mut [u32]) {
        let n = keys.len();
        let base = nodes.as_ptr() as *const i32;
        let top = _mm256_set1_epi32(i32::MIN);
        let two = _mm256_set1_epi32(2);
        let b1 = _mm256_set1_epi32(nodes.len() as i32);
        let mut i = 0;
        while i + 32 <= n {
            let k0 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i),
                top,
            );
            let k1 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i + 8) as *const __m256i),
                top,
            );
            let k2 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i + 16) as *const __m256i),
                top,
            );
            let k3 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i + 24) as *const __m256i),
                top,
            );
            let mut i0 = _mm256_setzero_si256();
            let mut i1 = _mm256_setzero_si256();
            let mut i2 = _mm256_setzero_si256();
            let mut i3 = _mm256_setzero_si256();
            for _ in 0..height {
                let n0 = _mm256_xor_si256(_mm256_i32gather_epi32::<4>(base, i0), top);
                let n1 = _mm256_xor_si256(_mm256_i32gather_epi32::<4>(base, i1), top);
                let n2 = _mm256_xor_si256(_mm256_i32gather_epi32::<4>(base, i2), top);
                let n3 = _mm256_xor_si256(_mm256_i32gather_epi32::<4>(base, i3), top);
                // i = 2i + 2 + (-1 if key < node): cmpgt(node, key) is
                // all-ones exactly where the descent goes left.
                i0 = step(i0, _mm256_cmpgt_epi32(n0, k0), two);
                i1 = step(i1, _mm256_cmpgt_epi32(n1, k1), two);
                i2 = step(i2, _mm256_cmpgt_epi32(n2, k2), two);
                i3 = step(i3, _mm256_cmpgt_epi32(n3, k3), two);
            }
            store_buckets(out.as_mut_ptr().add(i), i0, b1);
            store_buckets(out.as_mut_ptr().add(i + 8), i1, b1);
            store_buckets(out.as_mut_ptr().add(i + 16), i2, b1);
            store_buckets(out.as_mut_ptr().add(i + 24), i3, b1);
            i += 32;
        }
        while i + 8 <= n {
            let k = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i),
                top,
            );
            let mut ix = _mm256_setzero_si256();
            for _ in 0..height {
                let nd = _mm256_xor_si256(_mm256_i32gather_epi32::<4>(base, ix), top);
                ix = step(ix, _mm256_cmpgt_epi32(nd, k), two);
            }
            store_buckets(out.as_mut_ptr().add(i), ix, b1);
            i += 8;
        }
        if i < n {
            super::descend_u32_scalar(&keys[i..], nodes, height, &mut out[i..]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step(idx: __m256i, left_mask: __m256i, two: __m256i) -> __m256i {
        _mm256_add_epi32(
            _mm256_add_epi32(_mm256_slli_epi32::<1>(idx), two),
            left_mask,
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_buckets(dst: *mut u32, idx: __m256i, b1: __m256i) {
        _mm256_storeu_si256(dst as *mut __m256i, _mm256_sub_epi32(idx, b1));
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn descend_u64_avx2(keys: &[u64], nodes: &[u64], height: u32, out: &mut [u32]) {
        let n = keys.len();
        let base = nodes.as_ptr() as *const i64;
        let top = _mm256_set1_epi64x(i64::MIN);
        let two = _mm256_set1_epi64x(2);
        let b1 = nodes.len() as u64;
        let mut i = 0;
        while i + 16 <= n {
            let k0 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i),
                top,
            );
            let k1 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i + 4) as *const __m256i),
                top,
            );
            let k2 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i + 8) as *const __m256i),
                top,
            );
            let k3 = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i + 12) as *const __m256i),
                top,
            );
            let mut i0 = _mm256_setzero_si256();
            let mut i1 = _mm256_setzero_si256();
            let mut i2 = _mm256_setzero_si256();
            let mut i3 = _mm256_setzero_si256();
            for _ in 0..height {
                let n0 = _mm256_xor_si256(_mm256_i64gather_epi64::<8>(base, i0), top);
                let n1 = _mm256_xor_si256(_mm256_i64gather_epi64::<8>(base, i1), top);
                let n2 = _mm256_xor_si256(_mm256_i64gather_epi64::<8>(base, i2), top);
                let n3 = _mm256_xor_si256(_mm256_i64gather_epi64::<8>(base, i3), top);
                i0 = step64(i0, _mm256_cmpgt_epi64(n0, k0), two);
                i1 = step64(i1, _mm256_cmpgt_epi64(n1, k1), two);
                i2 = step64(i2, _mm256_cmpgt_epi64(n2, k2), two);
                i3 = step64(i3, _mm256_cmpgt_epi64(n3, k3), two);
            }
            store_buckets64(out.as_mut_ptr().add(i), i0, b1);
            store_buckets64(out.as_mut_ptr().add(i + 4), i1, b1);
            store_buckets64(out.as_mut_ptr().add(i + 8), i2, b1);
            store_buckets64(out.as_mut_ptr().add(i + 12), i3, b1);
            i += 16;
        }
        while i + 4 <= n {
            let k = _mm256_xor_si256(
                _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i),
                top,
            );
            let mut ix = _mm256_setzero_si256();
            for _ in 0..height {
                let nd = _mm256_xor_si256(_mm256_i64gather_epi64::<8>(base, ix), top);
                ix = step64(ix, _mm256_cmpgt_epi64(nd, k), two);
            }
            store_buckets64(out.as_mut_ptr().add(i), ix, b1);
            i += 4;
        }
        if i < n {
            super::descend_u64_scalar(&keys[i..], nodes, height, &mut out[i..]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step64(idx: __m256i, left_mask: __m256i, two: __m256i) -> __m256i {
        _mm256_add_epi64(
            _mm256_add_epi64(_mm256_slli_epi64::<1>(idx), two),
            left_mask,
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_buckets64(dst: *mut u32, idx: __m256i, b1: u64) {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, idx);
        for (j, &l) in lanes.iter().enumerate() {
            *dst.add(j) = (l - b1) as u32;
        }
    }

    /// # Safety
    /// Requires AVX2; `bytes.len() == 32`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn eq_mask_u8_avx2(bytes: &[u8], target: u8) -> u32 {
        let v = _mm256_loadu_si256(bytes.as_ptr() as *const __m256i);
        let t = _mm256_set1_epi8(target as i8);
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, t)) as u32
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pivot_masks_u32_avx2(keys: &[u32], pivot: u32) -> (u32, u32) {
        let n = keys.len();
        let top = _mm256_set1_epi32(i32::MIN);
        let p = _mm256_xor_si256(_mm256_set1_epi32(pivot as i32), top);
        let praw = _mm256_set1_epi32(pivot as i32);
        let (mut lt, mut eq) = (0u32, 0u32);
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i);
            let k = _mm256_xor_si256(raw, top);
            let ltm = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(p, k))) as u32;
            let eqm = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(raw, praw))) as u32;
            lt |= ltm << i;
            eq |= eqm << i;
            i += 8;
        }
        for (j, &key) in keys.iter().enumerate().skip(i) {
            lt |= ((key < pivot) as u32) << j;
            eq |= ((key == pivot) as u32) << j;
        }
        (lt, eq)
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pivot_masks_u64_avx2(keys: &[u64], pivot: u64) -> (u32, u32) {
        let n = keys.len();
        let top = _mm256_set1_epi64x(i64::MIN);
        let p = _mm256_xor_si256(_mm256_set1_epi64x(pivot as i64), top);
        let praw = _mm256_set1_epi64x(pivot as i64);
        let (mut lt, mut eq) = (0u32, 0u32);
        let mut i = 0;
        while i + 4 <= n {
            let raw = _mm256_loadu_si256(keys.as_ptr().add(i) as *const __m256i);
            let k = _mm256_xor_si256(raw, top);
            let ltm = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(p, k))) as u32;
            let eqm = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(raw, praw))) as u32;
            lt |= ltm << i;
            eq |= eqm << i;
            i += 4;
        }
        for (j, &key) in keys.iter().enumerate().skip(i) {
            lt |= ((key < pivot) as u32) << j;
            eq |= ((key == pivot) as u32) << j;
        }
        (lt, eq)
    }

    /// # Safety
    /// Requires AVX2; `src.len() == 32`, `dst.len() >= 32`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn compress_u32_avx2(src: &[u32], mask: u32, dst: &mut [u32]) -> usize {
        let mut out = 0usize;
        let dp = dst.as_mut_ptr();
        for g in 0..4 {
            let m = ((mask >> (8 * g)) & 0xff) as usize;
            if m == 0 {
                continue;
            }
            let v = _mm256_loadu_si256(src.as_ptr().add(8 * g) as *const __m256i);
            let idx =
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(COMPRESS8[m].as_ptr() as *const __m128i));
            let packed = _mm256_permutevar8x32_epi32(v, idx);
            // Full-vector store; only the first popcount lanes are
            // meaningful, and the caller guarantees >= src.len() slots.
            _mm256_storeu_si256(dp.add(out) as *mut __m256i, packed);
            out += (m as u32).count_ones() as usize;
        }
        out
    }

    /// # Safety
    /// Requires AVX2; `src.len() == 32`, `dst.len() >= 32`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn compress_u64_avx2(src: &[u64], mask: u32, dst: &mut [u64]) -> usize {
        let mut out = 0usize;
        let dp = dst.as_mut_ptr();
        for g in 0..8 {
            let m = ((mask >> (4 * g)) & 0xf) as usize;
            if m == 0 {
                continue;
            }
            let v = _mm256_loadu_si256(src.as_ptr().add(4 * g) as *const __m256i);
            // expand the nibble's byte-position table to 32-bit lane
            // pairs: u64 lane p occupies 32-bit lanes (2p, 2p+1)
            let t = &COMPRESS8[m];
            let idx = _mm256_setr_epi32(
                2 * t[0] as i32,
                2 * t[0] as i32 + 1,
                2 * t[1] as i32,
                2 * t[1] as i32 + 1,
                2 * t[2] as i32,
                2 * t[2] as i32 + 1,
                2 * t[3] as i32,
                2 * t[3] as i32 + 1,
            );
            let packed = _mm256_permutevar8x32_epi32(v, idx);
            _mm256_storeu_si256(dp.add(out) as *mut __m256i, packed);
            out += (m as u32).count_ones() as usize;
        }
        out
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{
    compress_u32_avx2, compress_u64_avx2, descend_u32_avx2, descend_u64_avx2, eq_mask_u8_avx2,
    lt_keys_f32_avx2, lt_keys_f64_avx2, pivot_masks_u32_avx2, pivot_masks_u64_avx2,
    sort_keys_f32_avx2, sort_keys_f64_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        let mut v = vec![SimdLevel::Scalar];
        if avx2_available() {
            v.push(SimdLevel::Avx2);
        }
        v
    }

    /// Simple deterministic xorshift for test data.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    fn reference_descend_u32(keys: &[u32], nodes: &[u32], height: u32) -> Vec<u32> {
        keys.iter()
            .map(|&k| {
                let mut i = 0usize;
                for _ in 0..height {
                    i = 2 * i + if k < nodes[i] { 1 } else { 2 };
                }
                (i - nodes.len()) as u32
            })
            .collect()
    }

    #[test]
    fn env_knob_parses_known_values() {
        // configured_level() is process-wide; only sanity-check names.
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn forced_level_round_trips() {
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(simd_level(), SimdLevel::Scalar);
        force_level(Some(SimdLevel::Avx2));
        let expect = if avx2_available() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        };
        assert_eq!(simd_level(), expect);
        force_level(None);
        assert_eq!(simd_level(), configured_level());
    }

    #[test]
    fn float_keys_match_scalar_reference() {
        let specials = [
            0.0f32,
            -0.0,
            1.5,
            -1.5,
            f32::MAX,
            f32::MIN,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // payload NaN
            f32::from_bits(0xffc0_0001), // negative payload NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        let mut rng = Rng(7);
        let mut vals: Vec<f32> = specials.to_vec();
        for _ in 0..1000 {
            vals.push(f32::from_bits(rng.next() as u32));
        }
        for level in levels() {
            let mut lt = vec![0u32; vals.len()];
            let mut sk = vec![0u32; vals.len()];
            lt_keys_f32(&vals, &mut lt, level);
            sort_keys_f32(&vals, &mut sk, level);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(lt[i], lt_key_f32(v), "lt key {v:?} at {level}");
                assert_eq!(sk[i], sort_key_f32(v), "sort key {v:?} at {level}");
            }
        }
        // f64 as well
        let mut vals64: Vec<f64> = vec![0.0, -0.0, f64::NAN, -f64::NAN, 1.5e300, -2.5];
        for _ in 0..1000 {
            vals64.push(f64::from_bits(rng.next()));
        }
        for level in levels() {
            let mut lt = vec![0u64; vals64.len()];
            let mut sk = vec![0u64; vals64.len()];
            lt_keys_f64(&vals64, &mut lt, level);
            sort_keys_f64(&vals64, &mut sk, level);
            for (i, &v) in vals64.iter().enumerate() {
                assert_eq!(lt[i], lt_key_f64(v), "lt key {v:?} at {level}");
                assert_eq!(sk[i], sort_key_f64(v), "sort key {v:?} at {level}");
            }
        }
    }

    #[test]
    fn descent_matches_reference_all_levels_and_lengths() {
        let mut rng = Rng(42);
        for height in 1..=8u32 {
            let b = 1usize << height;
            let mut nodes32: Vec<u32> = (0..b - 1).map(|_| rng.next() as u32).collect();
            nodes32.sort_unstable();
            // Eytzinger fill (in-order traversal)
            let mut eyt32 = vec![0u32; b - 1];
            fill_eyt(&mut eyt32, &nodes32, 0, &mut 0);
            for len in [0usize, 1, 3, 7, 8, 15, 31, 32, 33, 64, 100] {
                let keys: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
                let expect = reference_descend_u32(&keys, &eyt32, height);
                for level in levels() {
                    let mut out = vec![0u32; len];
                    descend_u32(&keys, &eyt32, height, &mut out, level);
                    assert_eq!(out, expect, "u32 h={height} len={len} {level}");
                }
                // u64 keys with the widened node array
                let eyt64: Vec<u64> = eyt32.iter().map(|&x| x as u64).collect();
                let keys64: Vec<u64> = keys.iter().map(|&x| x as u64).collect();
                for level in levels() {
                    let mut out = vec![0u32; len];
                    descend_u64(&keys64, &eyt64, height, &mut out, level);
                    assert_eq!(out, expect, "u64 h={height} len={len} {level}");
                }
            }
        }
    }

    fn fill_eyt(nodes: &mut [u32], sorted: &[u32], node: usize, next: &mut usize) {
        if node >= nodes.len() {
            return;
        }
        fill_eyt(nodes, sorted, 2 * node + 1, next);
        nodes[node] = sorted[*next];
        *next += 1;
        fill_eyt(nodes, sorted, 2 * node + 2, next);
    }

    #[test]
    fn eq_mask_and_pivot_masks_match_scalar() {
        let mut rng = Rng(9);
        for len in [1usize, 7, 8, 15, 31, 32] {
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next() % 4) as u8).collect();
            let keys32: Vec<u32> = (0..len).map(|_| (rng.next() % 8) as u32).collect();
            let keys64: Vec<u64> = keys32.iter().map(|&k| k as u64).collect();
            let expect_eq = eq_mask_u8(&bytes, 2, SimdLevel::Scalar);
            let expect_p32 = pivot_masks_u32(&keys32, 4, SimdLevel::Scalar);
            let expect_p64 = pivot_masks_u64(&keys64, 4, SimdLevel::Scalar);
            for level in levels() {
                assert_eq!(eq_mask_u8(&bytes, 2, level), expect_eq, "len={len} {level}");
                assert_eq!(pivot_masks_u32(&keys32, 4, level), expect_p32);
                assert_eq!(pivot_masks_u64(&keys64, 4, level), expect_p64);
            }
        }
    }

    #[test]
    fn compress_is_stable_and_exact() {
        let mut rng = Rng(11);
        for len in [1usize, 8, 17, 32] {
            let src32: Vec<u32> = (0..len).map(|_| rng.next() as u32).collect();
            let src64: Vec<u64> = (0..len).map(|_| rng.next()).collect();
            for _ in 0..50 {
                let mask = (rng.next() as u32) & mask_for_len(len);
                let mut expect32 = Vec::new();
                for (i, &v) in src32.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        expect32.push(v);
                    }
                }
                for level in levels() {
                    let mut dst = vec![0u32; len.max(32)];
                    let cnt = compress_u32(&src32, mask, &mut dst, level);
                    assert_eq!(cnt, expect32.len());
                    assert_eq!(&dst[..cnt], &expect32[..], "u32 len={len} {level}");
                    let mut dst64 = vec![0u64; len.max(32)];
                    let cnt64 = compress_u64(&src64, mask, &mut dst64, level);
                    assert_eq!(cnt64, mask.count_ones() as usize);
                    let expect64: Vec<u64> = (0..len)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(|i| src64[i])
                        .collect();
                    assert_eq!(&dst64[..cnt64], &expect64[..], "u64 len={len} {level}");
                }
            }
        }
    }
}
