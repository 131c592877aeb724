//! The implicit binary search tree over the bucket splitters
//! (Fig. 3 / Fig. 4 of the paper) and the equality-bucket treatment of
//! repeated elements (§IV-C).
//!
//! Splitters are stored in a complete binary tree laid out implicitly in
//! an array with binary-heap indexing (node `i` has children `2i+1`,
//! `2i+2`). A lookup descends `tree_height = log2(b)` levels with the
//! branch-free update `i = 2i + (x < tree[i] ? 1 : 2)` and lands on a
//! virtual leaf whose offset is the bucket index — no sorted-array
//! binary-search index arithmetic required (the technique from
//! super-scalar sample sort, Sanders & Winkel 2004).
//!
//! ## Equality buckets
//!
//! When the sample contains a value `v` so frequently that several
//! chosen splitters collapse to `v` (`s_a = … = s_e = v < s_{e+1}`), the
//! last duplicate is replaced by `ṽ = next_up(v)`. Elements equal to
//! `v` then fall into the bucket `[v, ṽ) = {v}` — an *equality bucket*.
//! If the target rank lands in an equality bucket the recursion can
//! terminate immediately and return `v` (§IV-C: "the algorithm can
//! terminate early by just returning the corresponding lower bound
//! splitter").

use crate::element::{fill_lt_keys32, fill_lt_keys64, SelectElement};
use hpc_par::simd;

/// A built splitter search tree for one recursion level.
#[derive(Debug, Clone)]
pub struct SearchTree<T> {
    /// Internal nodes (`b - 1` splitters) in implicit heap layout.
    nodes: Vec<T>,
    /// The sorted (and possibly ε-adjusted) splitters, `S[0..b-1]`;
    /// bucket `i > 0` has lower bound `S[i-1]`.
    splitters: Vec<T>,
    /// Bucket count `b` (power of two).
    num_buckets: usize,
    /// `log2(b)` traversal steps.
    height: u32,
    /// `equality[i]`: bucket `i` contains exactly one distinct value.
    equality: Vec<bool>,
    /// `nodes` mapped through `to_lt_key`, narrowed to 32 bits — the
    /// gather array for the lane-parallel descent of 4-byte element
    /// types. Empty for 8-byte types or when SIMD is off.
    lt_key_nodes32: Vec<u32>,
    /// As `lt_key_nodes32` for 8-byte element types.
    lt_key_nodes64: Vec<u64>,
}

impl<T: SelectElement> SearchTree<T> {
    /// Build a tree from `b - 1` sorted splitter values (duplicates
    /// allowed; they trigger the equality-bucket transformation).
    ///
    /// # Panics
    /// Panics if `sorted_splitters.len() + 1` is not a power of two >= 2
    /// or the input is not sorted.
    pub fn build(sorted_splitters: &[T]) -> Self {
        let mut slot = None;
        Self::rebuild_into(&mut slot, sorted_splitters);
        slot.expect("rebuild_into fills the slot")
    }

    /// Build a tree into `slot`, reusing the previous tree's node,
    /// splitter, and equality arrays when the bucket count is unchanged
    /// (the common case: every recursion level of one query uses the
    /// same `b`). With a warm slot this performs no heap allocation.
    ///
    /// # Panics
    /// Same contract as [`SearchTree::build`].
    pub fn rebuild_into(slot: &mut Option<Self>, sorted_splitters: &[T]) {
        let b = sorted_splitters.len() + 1;
        assert!(
            b.is_power_of_two() && b >= 2,
            "need 2^k - 1 splitters, got {}",
            sorted_splitters.len()
        );
        debug_assert!(
            sorted_splitters.windows(2).all(|w| !w[1].lt(w[0])),
            "splitters must be sorted"
        );
        match slot {
            Some(tree) if tree.num_buckets == b => tree.assemble(sorted_splitters),
            _ => {
                let mut tree = Self {
                    nodes: Vec::new(),
                    splitters: Vec::new(),
                    num_buckets: b,
                    height: b.trailing_zeros(),
                    equality: Vec::new(),
                    lt_key_nodes32: Vec::new(),
                    lt_key_nodes64: Vec::new(),
                };
                tree.assemble(sorted_splitters);
                *slot = Some(tree);
            }
        }
    }

    /// (Re)populate all derived arrays from a sorted splitter slice of
    /// the matching bucket count, reusing existing capacity.
    fn assemble(&mut self, sorted_splitters: &[T]) {
        let m = sorted_splitters.len();
        debug_assert_eq!(m + 1, self.num_buckets);
        self.splitters.clear();
        self.splitters.extend_from_slice(sorted_splitters);
        self.equality.clear();
        self.equality.resize(self.num_buckets, false);
        let splitters = &mut self.splitters;
        let equality = &mut self.equality;

        // Find runs of equal splitters and apply the ε transformation.
        let mut run_start = 0;
        while run_start < m {
            let v = splitters[run_start];
            let mut run_end = run_start;
            while run_end + 1 < m && !v.lt(splitters[run_end + 1]) {
                run_end += 1;
            }
            if run_end > run_start {
                let bumped = v.next_up();
                if bumped.lt(v) || v.lt(bumped) {
                    // Normal case: bucket `run_end` becomes [v, v+ε) = {v}.
                    splitters[run_end] = bumped;
                    equality[run_end] = true;
                } else {
                    // v saturates (v == type max): every element equal to
                    // v lands right of all v-splitters, in the bucket
                    // whose lower bound is the last one — and nothing can
                    // be larger, so that bucket holds exactly {v}.
                    equality[run_end + 1] = true;
                }
            }
            run_start = run_end + 1;
        }

        // Eytzinger layout: in-order traversal of the implicit complete
        // tree visits the sorted splitters in order.
        self.nodes.clear();
        self.nodes.resize(m, T::min_value());
        let mut next = 0usize;
        fill_in_order(&mut self.nodes, &self.splitters, 0, &mut next);
        debug_assert_eq!(next, m);

        // Key-space mirror of the node array for the SIMD descent.
        // Built unconditionally (it is m entries, negligible next to
        // one kernel pass) so runtime dispatch-level switches — the
        // interleaved scalar-vs-SIMD benches — never see a tree built
        // under a different level. The clear+resize pattern reuses
        // capacity, so a warm slot stays allocation-free across
        // recursion levels.
        let level = simd::simd_level();
        if T::BYTES == 4 {
            self.lt_key_nodes32.clear();
            self.lt_key_nodes32.resize(m, 0);
            fill_lt_keys32(&self.nodes, &mut self.lt_key_nodes32, level);
        } else {
            self.lt_key_nodes64.clear();
            self.lt_key_nodes64.resize(m, 0);
            fill_lt_keys64(&self.nodes, &mut self.lt_key_nodes64, level);
        }
    }

    /// Fig. 4's traversal loop: the bucket index of `x`.
    #[inline]
    pub fn lookup(&self, x: T) -> u32 {
        let mut i = 0usize;
        for _ in 0..self.height {
            // i = 2 * i + (element < tree[i] ? 1 : 2)
            i = 2 * i + if x.lt(self.nodes[i]) { 1 } else { 2 };
        }
        (i - (self.num_buckets - 1)) as u32
    }

    /// Lane-parallel [`SearchTree::lookup`]: `out[i] = lookup(data[i])`,
    /// bit-identical to the scalar loop at every dispatch level.
    ///
    /// The batch descends in key space — elements and nodes mapped
    /// through the exactly-`lt`-equivalent `to_lt_key` transform — so
    /// 8 (u32 keys) or 4 (u64 keys) lanes walk the tree per vector
    /// step. Small runs stage keys in stack buffers: no allocation.
    pub fn lookup_batch(&self, data: &[T], out: &mut [u32]) {
        debug_assert!(out.len() >= data.len());
        let level = simd::simd_level();
        if T::BYTES == 4 {
            let mut keys = [0u32; 32];
            let mut i = 0;
            while i < data.len() {
                let len = (data.len() - i).min(32);
                fill_lt_keys32(&data[i..i + len], &mut keys[..len], level);
                simd::descend_u32(
                    &keys[..len],
                    &self.lt_key_nodes32,
                    self.height,
                    &mut out[i..i + len],
                    level,
                );
                i += len;
            }
        } else {
            let mut keys = [0u64; 32];
            let mut i = 0;
            while i < data.len() {
                let len = (data.len() - i).min(32);
                fill_lt_keys64(&data[i..i + len], &mut keys[..len], level);
                simd::descend_u64(
                    &keys[..len],
                    &self.lt_key_nodes64,
                    self.height,
                    &mut out[i..i + len],
                    level,
                );
                i += len;
            }
        }
    }

    /// Bucket count `b`.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Traversal depth `log2(b)`.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The adjusted sorted splitters `S[0..b-1]`.
    pub fn splitters(&self) -> &[T] {
        &self.splitters
    }

    /// The implicit-layout node array (for inspection/tests).
    pub fn nodes(&self) -> &[T] {
        &self.nodes
    }

    /// Lower-bound splitter of bucket `i` (`None` for the leftmost
    /// bucket, whose bound is conceptually `-∞`).
    pub fn bucket_lower(&self, bucket: usize) -> Option<T> {
        if bucket == 0 || bucket > self.splitters.len() {
            None
        } else {
            Some(self.splitters[bucket - 1])
        }
    }

    /// Whether bucket `i` is an equality bucket (all elements equal).
    pub fn is_equality_bucket(&self, bucket: usize) -> bool {
        self.equality.get(bucket).copied().unwrap_or(false)
    }

    /// The single value an equality bucket contains.
    ///
    /// # Panics
    /// Panics if `bucket` is not an equality bucket.
    pub fn equality_value(&self, bucket: usize) -> T {
        assert!(
            self.is_equality_bucket(bucket),
            "bucket {bucket} is not an equality bucket"
        );
        // An equality bucket always has a lower-bound splitter: the
        // transformation only marks buckets with index >= 1.
        self.splitters[bucket - 1]
    }

    /// Reference bucket computation by linear scan over the splitters
    /// (for tests): the number of splitters `<= x`.
    pub fn lookup_reference(&self, x: T) -> u32 {
        self.splitters.iter().filter(|s| !x.lt(**s)).count() as u32
    }
}

/// In-order fill of the implicit complete binary tree.
fn fill_in_order<T: Copy>(nodes: &mut [T], sorted: &[T], node: usize, next: &mut usize) {
    if node >= nodes.len() {
        return;
    }
    fill_in_order(nodes, sorted, 2 * node + 1, next);
    nodes[node] = sorted[*next];
    *next += 1;
    fill_in_order(nodes, sorted, 2 * node + 2, next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn fig3_layout_eight_buckets() {
        // Fig. 3: splitters s1..s7 for 8 buckets; root must be the
        // median (s4), children s2 / s6 (1-indexed as in the figure).
        let splitters: Vec<f32> = (1..=7).map(|i| i as f32).collect();
        let tree = SearchTree::build(&splitters);
        assert_eq!(tree.nodes()[0], 4.0);
        assert_eq!(tree.nodes()[1], 2.0);
        assert_eq!(tree.nodes()[2], 6.0);
        assert_eq!(&tree.nodes()[3..], &[1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn lookup_matches_linear_reference_random() {
        let mut rng = SplitMix64::new(77);
        for b in [4usize, 8, 64, 256] {
            let mut splitters: Vec<f64> = (0..b - 1).map(|_| rng.next_f64() * 100.0).collect();
            splitters.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let tree = SearchTree::build(&splitters);
            for _ in 0..500 {
                let x = rng.next_f64() * 120.0 - 10.0;
                assert_eq!(tree.lookup(x), tree.lookup_reference(x), "x = {x}, b = {b}");
            }
            // splitter values themselves land in the bucket they bound
            for (i, &s) in tree.splitters().iter().enumerate() {
                assert_eq!(tree.lookup(s) as usize, i + 1, "splitter {i}");
            }
        }
    }

    #[test]
    fn bucket_boundaries_are_half_open() {
        // buckets: (-inf,10) [10,20) [20,30) [30,inf)
        let tree = SearchTree::build(&[10.0f32, 20.0, 30.0]);
        assert_eq!(tree.lookup(9.99), 0);
        assert_eq!(tree.lookup(10.0), 1);
        assert_eq!(tree.lookup(19.99), 1);
        assert_eq!(tree.lookup(20.0), 2);
        assert_eq!(tree.lookup(30.0), 3);
        assert_eq!(tree.lookup(1e9), 3);
        assert_eq!(tree.lookup(-1e9), 0);
    }

    #[test]
    fn duplicate_splitters_create_equality_bucket() {
        // splitters (3,5,5,5,9,12,15) -> run of 5s at indices 1..=3
        let tree = SearchTree::build(&[3.0f32, 5.0, 5.0, 5.0, 9.0, 12.0, 15.0]);
        // the run's last splitter becomes next_up(5)
        let eps5 = SelectElement::next_up(5.0f32);
        assert_eq!(tree.splitters()[3], eps5);
        assert!(tree.is_equality_bucket(3));
        assert_eq!(tree.equality_value(3), 5.0);
        // every element equal to 5 lands in bucket 3
        assert_eq!(tree.lookup(5.0), 3);
        // nearby values don't
        assert_eq!(tree.lookup(4.999), 1);
        assert_eq!(tree.lookup(eps5), 4);
        assert_eq!(tree.lookup(5.001), 4);
    }

    #[test]
    fn all_equal_splitters() {
        // d = 1 workloads produce all-identical samples.
        let tree = SearchTree::build(&[7.0f32; 255]);
        let bucket = tree.lookup(7.0) as usize;
        assert!(tree.is_equality_bucket(bucket));
        assert_eq!(tree.equality_value(bucket), 7.0);
        // smaller and larger values avoid the equality bucket
        assert_ne!(tree.lookup(6.9) as usize, bucket);
        assert_ne!(tree.lookup(7.1) as usize, bucket);
    }

    #[test]
    fn integer_equality_buckets() {
        let tree = SearchTree::build(&[2u32, 5, 5, 5, 5, 8, 11]);
        let bucket = tree.lookup(5) as usize;
        assert!(tree.is_equality_bucket(bucket));
        assert_eq!(tree.equality_value(bucket), 5);
        assert_eq!(tree.lookup(6), bucket as u32 + 1);
        assert_eq!(tree.lookup(4), 1);
    }

    #[test]
    fn saturated_max_value_equality() {
        // All splitters equal to the type maximum: next_up saturates, so
        // the *following* bucket becomes the equality bucket.
        let tree = SearchTree::build(&[u32::MAX; 7]);
        let bucket = tree.lookup(u32::MAX) as usize;
        assert!(tree.is_equality_bucket(bucket), "bucket {bucket}");
        assert_eq!(tree.equality_value(bucket), u32::MAX);
        assert!(!tree.is_equality_bucket(tree.lookup(0) as usize));
    }

    #[test]
    fn multiple_duplicate_runs() {
        let tree = SearchTree::build(&[1.0f64, 1.0, 4.0, 4.0, 4.0, 9.0, 9.0]);
        let b1 = tree.lookup(1.0) as usize;
        let b4 = tree.lookup(4.0) as usize;
        let b9 = tree.lookup(9.0) as usize;
        assert!(tree.is_equality_bucket(b1));
        assert!(tree.is_equality_bucket(b4));
        assert!(tree.is_equality_bucket(b9));
        assert_eq!(tree.equality_value(b1), 1.0);
        assert_eq!(tree.equality_value(b4), 4.0);
        assert_eq!(tree.equality_value(b9), 9.0);
        assert!(!tree.is_equality_bucket(tree.lookup(2.0) as usize));
    }

    #[test]
    fn bucket_lower_bounds() {
        let tree = SearchTree::build(&[10.0f32, 20.0, 30.0]);
        assert_eq!(tree.bucket_lower(0), None);
        assert_eq!(tree.bucket_lower(1), Some(10.0));
        assert_eq!(tree.bucket_lower(3), Some(30.0));
        assert_eq!(tree.bucket_lower(4), None);
    }

    #[test]
    #[should_panic(expected = "2^k - 1 splitters")]
    fn rejects_wrong_splitter_count() {
        SearchTree::build(&[1.0f32, 2.0]);
    }

    #[test]
    fn rebuild_into_reuses_arrays_when_bucket_count_matches() {
        let mut slot = None;
        SearchTree::rebuild_into(&mut slot, &[10.0f32, 20.0, 30.0]);
        let nodes_ptr = slot.as_ref().unwrap().nodes().as_ptr();
        SearchTree::rebuild_into(&mut slot, &[1.0f32, 2.0, 3.0]);
        let tree = slot.as_ref().unwrap();
        assert_eq!(tree.nodes().as_ptr(), nodes_ptr, "node array reused");
        assert_eq!(tree.lookup(2.5), 2);
        assert_eq!(tree.lookup(0.5), 0);
    }

    #[test]
    fn rebuild_into_matches_fresh_build() {
        let mut rng = SplitMix64::new(41);
        let mut slot = None;
        for b in [4usize, 4, 8, 8, 4] {
            let mut splitters: Vec<f64> = (0..b - 1).map(|_| rng.next_f64() * 50.0).collect();
            splitters.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // duplicate a run sometimes to exercise equality buckets
            if b == 8 {
                splitters[2] = splitters[1];
            }
            SearchTree::rebuild_into(&mut slot, &splitters);
            let rebuilt = slot.as_ref().unwrap();
            let fresh = SearchTree::build(&splitters);
            assert_eq!(rebuilt.nodes(), fresh.nodes());
            assert_eq!(rebuilt.splitters(), fresh.splitters());
            assert_eq!(rebuilt.num_buckets(), fresh.num_buckets());
            for i in 0..b {
                assert_eq!(rebuilt.is_equality_bucket(i), fresh.is_equality_bucket(i));
            }
            for _ in 0..200 {
                let x = rng.next_f64() * 60.0 - 5.0;
                assert_eq!(rebuilt.lookup(x), fresh.lookup(x));
            }
        }
    }

    #[test]
    fn lookup_batch_matches_scalar_at_every_level() {
        let mut rng = SplitMix64::new(99);
        let levels = &[simd::SimdLevel::Scalar, simd::SimdLevel::Avx2];
        for b in [2usize, 8, 64, 256] {
            // f32 with duplicates, ±0.0, and NaN payloads
            let mut splitters: Vec<f32> =
                (0..b - 1).map(|_| (rng.next_f64() * 8.0) as f32).collect();
            splitters.sort_by(|a, b| a.total_cmp(b));
            let tree = SearchTree::build(&splitters);
            let mut data: Vec<f32> = (0..517)
                .map(|_| (rng.next_f64() * 10.0 - 1.0) as f32)
                .collect();
            data.extend_from_slice(&[
                0.0,
                -0.0,
                f32::NAN,
                f32::from_bits(0xFFC0_0001),
                f32::MAX,
                f32::MIN,
            ]);
            let expect: Vec<u32> = data.iter().map(|&x| tree.lookup(x)).collect();
            for &level in levels {
                simd::force_level(Some(level));
                let mut out = vec![0u32; data.len()];
                tree.lookup_batch(&data, &mut out);
                assert_eq!(out, expect, "f32 b={b} level={level}");
            }
            simd::force_level(None);

            // u64 keys exercise the 4-lane descent
            let mut spl64: Vec<u64> = (0..b - 1).map(|_| rng.next_u64() % 1000).collect();
            spl64.sort_unstable();
            let tree64 = SearchTree::build(&spl64);
            let data64: Vec<u64> = (0..263).map(|_| rng.next_u64() % 1200).collect();
            let expect64: Vec<u32> = data64.iter().map(|&x| tree64.lookup(x)).collect();
            for &level in levels {
                simd::force_level(Some(level));
                let mut out = vec![0u32; data64.len()];
                tree64.lookup_batch(&data64, &mut out);
                assert_eq!(out, expect64, "u64 b={b} level={level}");
            }
            simd::force_level(None);
        }
    }

    #[test]
    fn minimal_tree_two_buckets() {
        let tree = SearchTree::build(&[5.0f32]);
        assert_eq!(tree.num_buckets(), 2);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.lookup(4.0), 0);
        assert_eq!(tree.lookup(5.0), 1);
        assert_eq!(tree.lookup(6.0), 1);
    }
}
