//! Reusable selection workspaces: the zero-allocation hot path.
//!
//! A real GPU implementation of SampleSelect allocates its device
//! buffers (oracles, per-block counters, splitter scratch, filter
//! output) once and reuses them across recursion levels and across
//! repeated queries — `cudaMalloc` in the middle of a recursion would
//! dwarf the kernels themselves. This module is the simulation analogue:
//!
//! * [`KernelScratch`] pools the small per-worker buffers the kernels'
//!   data-parallel closures need (block-local bucket counters, warp
//!   atomic-collision scratch, filter cursors);
//! * [`SelectWorkspace`] owns the per-query element buffers — the
//!   splitter sample, the bitonic sorting scratch, the staged splitters,
//!   the built [`SearchTree`]s, one per segment of a level (node arrays
//!   reused across levels when the bucket count is unchanged), the
//!   base-case copy, and the slots for a level's count and reduce
//!   results.
//!
//! Together with the device-side [`gpu_sim::BufferPool`] (oracles,
//! partial counts, prefix sums, filter output), a warmed-up
//! [`crate::recursion::sample_select_with_workspace`] run performs zero
//! heap allocations in the level kernels — a property pinned by the
//! `zero_alloc` integration test with a counting global allocator.
//!
//! ## Ownership rules
//!
//! * A `SelectWorkspace` may be reused across queries and across inputs,
//!   but not concurrently: each concurrent driver needs its own.
//! * `KernelScratch` *is* safe to share across the worker threads of one
//!   kernel launch (leases go through a mutex; each worker holds its
//!   lease only for the duration of its chunk).
//! * Buffers leased from the device [`gpu_sim::BufferPool`] are returned
//!   by the driver at the end of each recursion level; the pool — not
//!   the workspace — owns their allocations between queries. Poisoned
//!   regions (hit by injected corruption) are never recycled.

use crate::count::CountResult;
use crate::element::SelectElement;
use crate::reduce::ReduceResult;
use crate::searchtree::SearchTree;
use std::sync::Mutex;

/// Best-fit take: the smallest shelved buffer with `capacity >= len`.
fn take_best<U>(shelf: &mut Vec<Vec<U>>, len: usize) -> Option<Vec<U>> {
    shelf
        .iter()
        .enumerate()
        .filter(|(_, v)| v.capacity() >= len)
        .min_by_key(|(_, v)| v.capacity())
        .map(|(i, _)| i)
        .map(|i| shelf.swap_remove(i))
}

/// A pool of the small integer buffers the kernel closures use per
/// worker (bucket counters, collision scratch, filter cursors).
///
/// Shareable across the worker threads of a parallel kernel launch;
/// construction is allocation-free, so the legacy (workspace-less)
/// kernel entry points create one per call at no cost.
#[derive(Debug, Default)]
pub struct KernelScratch {
    u64s: Mutex<Vec<Vec<u64>>>,
    u32s: Mutex<Vec<Vec<u32>>>,
}

impl KernelScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease a zeroed `len`-element `u64` buffer.
    pub fn lease_u64(&self, len: usize) -> Vec<u64> {
        let mut v = take_best(&mut self.u64s.lock().unwrap(), len).unwrap_or_default();
        v.clear();
        v.resize(len, 0);
        v
    }

    /// Return a `u64` buffer for later reuse.
    pub fn give_u64(&self, buf: Vec<u64>) {
        if buf.capacity() > 0 {
            self.u64s.lock().unwrap().push(buf);
        }
    }

    /// Lease a zeroed `len`-element `u32` buffer.
    pub fn lease_u32(&self, len: usize) -> Vec<u32> {
        let mut v = take_best(&mut self.u32s.lock().unwrap(), len).unwrap_or_default();
        v.clear();
        v.resize(len, 0);
        v
    }

    /// Return a `u32` buffer for later reuse.
    pub fn give_u32(&self, buf: Vec<u32>) {
        if buf.capacity() > 0 {
            self.u32s.lock().unwrap().push(buf);
        }
    }
}

/// Reusable per-query element buffers for the SampleSelect drivers.
///
/// Create once, pass to [`crate::recursion::sample_select_with_workspace`]
/// (or the splitter/base-case helpers) for every query; all level-local
/// element storage is reused instead of reallocated. The functional
/// result is bit-identical to the workspace-less path — the equivalence
/// is pinned by a property test.
#[derive(Debug)]
pub struct SelectWorkspace<T> {
    /// Closure-local integer scratch, shared by all kernels of a run.
    pub scratch: KernelScratch,
    /// The splitter sample drawn by the sample kernel.
    pub(crate) sample: Vec<T>,
    /// Staged splitters (percentiles of the sorted sample).
    pub(crate) splitters: Vec<T>,
    /// Padded buffer for the bitonic sorting network.
    pub(crate) sort_scratch: Vec<T>,
    /// The splitter search tree, rebuilt in place level after level:
    /// the one of a level's first segment.
    pub(crate) tree: Option<SearchTree<T>>,
    /// The trees of a level's other segments, in order.
    pub(crate) segment_trees: Vec<Option<SearchTree<T>>>,
    /// Base-case copy of the final bucket.
    pub(crate) base: Vec<T>,
    /// A level's count results, one per counted segment.
    pub(crate) counts: Vec<CountResult>,
    /// A level's reduce results, one per counted segment.
    pub(crate) reds: Vec<ReduceResult>,
}

impl<T> Default for SelectWorkspace<T> {
    fn default() -> Self {
        Self {
            scratch: KernelScratch::new(),
            sample: Vec::new(),
            splitters: Vec::new(),
            sort_scratch: Vec::new(),
            tree: None,
            segment_trees: Vec::new(),
            base: Vec::new(),
            counts: Vec::new(),
            reds: Vec::new(),
        }
    }
}

impl<T: SelectElement> SelectWorkspace<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The search tree built by the most recent sample-kernel run.
    pub fn tree(&self) -> Option<&SearchTree<T>> {
        self.tree.as_ref()
    }

    /// Take ownership of the most recently built search tree.
    pub fn take_tree(&mut self) -> Option<SearchTree<T>> {
        self.tree.take()
    }

    /// Run `f` with the tree slot of segment `seg` of a level in
    /// `self.tree`, where the sample step builds it: the first segment's
    /// tree lives there, the others' are swapped in and back out.
    pub(crate) fn with_segment_tree<R>(&mut self, seg: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        if seg == 0 {
            return f(self);
        }
        if self.segment_trees.len() < seg {
            self.segment_trees.resize_with(seg, || None);
        }
        std::mem::swap(&mut self.tree, &mut self.segment_trees[seg - 1]);
        let out = f(self);
        std::mem::swap(&mut self.tree, &mut self.segment_trees[seg - 1]);
        out
    }

    /// The tree of segment `seg`, built by the level's sample step.
    pub(crate) fn segment_tree(&self, seg: usize) -> &SearchTree<T> {
        let tree = match seg {
            0 => &self.tree,
            _ => &self.segment_trees[seg - 1],
        };
        tree.as_ref().expect("the sample step built a tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr_of<U>(v: &[U]) -> *const U {
        v.as_ptr()
    }

    #[test]
    fn scratch_reuses_allocations() {
        let scratch = KernelScratch::new();
        let a = scratch.lease_u64(256);
        let a_ptr = ptr_of(&a);
        scratch.give_u64(a);
        let b = scratch.lease_u64(256);
        assert_eq!(ptr_of(&b), a_ptr, "same allocation handed back");
        assert!(b.iter().all(|&x| x == 0), "lease returns zeroed buffers");
    }

    #[test]
    fn scratch_leases_are_zeroed_after_dirty_give() {
        let scratch = KernelScratch::new();
        let mut a = scratch.lease_u32(8);
        a.iter_mut().for_each(|x| *x = 7);
        scratch.give_u32(a);
        let b = scratch.lease_u32(8);
        assert_eq!(b, vec![0u32; 8]);
    }

    #[test]
    fn scratch_best_fit_avoids_regrowing() {
        let scratch = KernelScratch::new();
        // Shelve a 1-element and a 256-element buffer.
        scratch.give_u64(Vec::with_capacity(1));
        scratch.give_u64(Vec::with_capacity(256));
        let big = scratch.lease_u64(200);
        assert!(big.capacity() >= 256, "picked the sufficient buffer");
        let small = scratch.lease_u64(1);
        assert!(small.capacity() < 256, "best fit kept the small one");
    }

    #[test]
    fn workspace_tree_roundtrip() {
        let mut ws: SelectWorkspace<f32> = SelectWorkspace::new();
        assert!(ws.tree().is_none());
        SearchTree::rebuild_into(&mut ws.tree, &[10.0f32, 20.0, 30.0]);
        assert_eq!(ws.tree().unwrap().num_buckets(), 4);
        let tree = ws.take_tree().unwrap();
        assert_eq!(tree.lookup(15.0), 1);
        assert!(ws.tree().is_none());
    }
}
