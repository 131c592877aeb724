//! Size-classed, fault-aware device buffer pooling.
//!
//! Real GPU selection pipelines amortize `cudaMalloc` across kernels and
//! queries: allocation latency and page-table churn would otherwise
//! dominate the sub-millisecond kernels of the paper. [`BufferPool`]
//! models that practice for the simulation's host-side buffers — the
//! recursion driver leases storage for counters, oracles, and filtered
//! outputs, and returns it when a level finishes so the next level (or
//! the next query on the same device) reuses the allocation instead of
//! touching the heap.
//!
//! # Fault awareness
//!
//! A region that the fault injector corrupted is *poisoned*: the next
//! buffer recycled under that region tag is dropped instead of shelved,
//! so a memory upset can never leak bytes into a later query through the
//! pool. This is deliberately conservative — poisoning is tracked per
//! region tag, not per allocation, so a single corruption quarantines
//! whatever buffer currently backs that region.

use std::any::{Any, TypeId};
use std::collections::{HashMap, HashSet};

/// Counters describing pool effectiveness since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Lease requests served (hits + misses).
    pub acquires: u64,
    /// Leases satisfied from a shelved buffer (no heap allocation).
    pub hits: u64,
    /// Leases that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers returned to the shelf.
    pub recycled: u64,
    /// Buffers dropped on return because their region was poisoned.
    pub poisoned_dropped: u64,
}

/// A shelf of reusable allocations for one element type, plus the set of
/// poisoned region tags. See the module docs for the recycling contract.
#[derive(Default)]
pub struct BufferPool {
    shelves: HashMap<TypeId, Box<dyn Any + Send>>,
    poisoned: HashSet<String>,
    stats: BufferPoolStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("shelves", &self.shelves.len())
            .field("poisoned", &self.poisoned)
            .field("stats", &self.stats)
            .finish()
    }
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease an empty `Vec<T>` with capacity at least `len`.
    ///
    /// Best-fit within the element type's size class: the shelved buffer
    /// with the smallest sufficient capacity is taken, so one oversized
    /// allocation does not get burned on a tiny request. When nothing
    /// fits, a fresh allocation of exactly `len` is made (a miss) and the
    /// largest shelved buffer of the type is dropped: every shelved one
    /// is too small, and the new buffer takes its place when it comes
    /// back, so the pool never owns more buffers of a type than were
    /// ever leased at once. The returned vector always has length zero;
    /// callers fill it (or hand it to a scatter buffer) and later return
    /// it via [`BufferPool::recycle`] under the same region tag family.
    pub fn acquire<T: Send + 'static>(&mut self, len: usize, _tag: &str) -> Vec<T> {
        self.stats.acquires += 1;
        if let Some(shelf) = self
            .shelves
            .get_mut(&TypeId::of::<T>())
            .and_then(|s| s.downcast_mut::<Vec<Vec<T>>>())
        {
            let best = shelf
                .iter()
                .enumerate()
                .filter(|(_, v)| v.capacity() >= len)
                .min_by_key(|(_, v)| v.capacity())
                .map(|(i, _)| i);
            if let Some(i) = best {
                self.stats.hits += 1;
                return shelf.swap_remove(i);
            }
            let largest = shelf.iter().enumerate().max_by_key(|(_, v)| v.capacity());
            if let Some((i, _)) = largest {
                shelf.swap_remove(i);
            }
        }
        self.stats.misses += 1;
        Vec::with_capacity(len)
    }

    /// Return a buffer to the shelf under `tag`.
    ///
    /// If `tag` was poisoned by [`BufferPool::poison`] since the last
    /// recycle, the buffer is dropped (and the poison cleared): corrupted
    /// bytes must not survive into a later lease. Contents are always
    /// cleared before shelving — the pool recycles capacity, never data.
    pub fn recycle<T: Send + 'static>(&mut self, tag: &str, mut buf: Vec<T>) {
        if self.poisoned.remove(tag) {
            self.stats.poisoned_dropped += 1;
            return;
        }
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        self.stats.recycled += 1;
        self.shelves
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Box::new(Vec::<Vec<T>>::new()) as Box<dyn Any + Send>)
            .downcast_mut::<Vec<Vec<T>>>()
            .expect("shelf holds the element type it was keyed under")
            .push(buf);
    }

    /// Mark `region` as corrupted: the next buffer recycled under that
    /// tag is dropped instead of shelved.
    pub fn poison(&mut self, region: &str) {
        self.poisoned.insert(region.to_string());
    }

    /// Whether `region` is currently poisoned.
    pub fn is_poisoned(&self, region: &str) -> bool {
        self.poisoned.contains(region)
    }

    /// Effectiveness counters since construction.
    pub fn stats(&self) -> BufferPoolStats {
        self.stats
    }

    /// Number of buffers currently shelved for element type `T`.
    pub fn shelved<T: 'static>(&self) -> usize {
        self.shelves
            .get(&TypeId::of::<T>())
            .and_then(|s| s.downcast_ref::<Vec<Vec<T>>>())
            .map_or(0, |shelf| shelf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_miss_then_hit_roundtrip() {
        let mut pool = BufferPool::new();
        let mut v = pool.acquire::<u64>(100, "counts");
        assert_eq!(v.capacity(), 100);
        assert!(v.is_empty());
        v.extend(0..100u64);
        let cap = v.capacity();
        pool.recycle("counts", v);
        assert_eq!(pool.shelved::<u64>(), 1);
        let v2 = pool.acquire::<u64>(80, "counts");
        assert_eq!(v2.capacity(), cap, "recycled allocation reused");
        assert!(v2.is_empty(), "contents cleared on recycle");
        let s = pool.stats();
        assert_eq!(s.acquires, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.recycled, 1);
    }

    #[test]
    fn best_fit_picks_smallest_sufficient_capacity() {
        let mut pool = BufferPool::new();
        pool.recycle("a", Vec::<u32>::with_capacity(1000));
        pool.recycle("a", Vec::<u32>::with_capacity(64));
        pool.recycle("a", Vec::<u32>::with_capacity(256));
        let v = pool.acquire::<u32>(100, "a");
        assert_eq!(v.capacity(), 256);
        let v2 = pool.acquire::<u32>(100, "a");
        assert_eq!(v2.capacity(), 1000);
        // only the 64-cap buffer remains: too small, so miss
        let v3 = pool.acquire::<u32>(100, "a");
        assert_eq!(v3.capacity(), 100);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn growing_leases_keep_one_shelved_buffer() {
        // One buffer leased at a time, each lease larger than the last:
        // every lease misses, and the shelf holds only the latest buffer
        // instead of every size ever allocated.
        let mut pool = BufferPool::new();
        for len in (1..=20).map(|i| i * 100) {
            let v = pool.acquire::<f32>(len, "filter-out");
            assert_eq!(v.capacity(), len);
            pool.recycle("filter-out", v);
            assert_eq!(pool.shelved::<f32>(), 1, "len {len}");
        }
        assert_eq!(pool.stats().misses, 20);
    }

    #[test]
    fn shelves_are_per_type() {
        let mut pool = BufferPool::new();
        pool.recycle("x", Vec::<u64>::with_capacity(10));
        assert_eq!(pool.shelved::<u64>(), 1);
        assert_eq!(pool.shelved::<u8>(), 0);
        let v = pool.acquire::<u8>(10, "x");
        assert_eq!(v.capacity(), 10);
        assert_eq!(pool.stats().misses, 1, "u64 shelf cannot serve u8");
    }

    #[test]
    fn poisoned_region_drops_next_recycle_then_clears() {
        let mut pool = BufferPool::new();
        pool.poison("oracles");
        assert!(pool.is_poisoned("oracles"));
        pool.recycle("oracles", vec![0xFFu8; 64]);
        assert_eq!(pool.shelved::<u8>(), 0, "corrupted buffer not shelved");
        assert_eq!(pool.stats().poisoned_dropped, 1);
        assert!(!pool.is_poisoned("oracles"), "poison consumed");
        // a clean buffer under the same tag shelves normally afterwards
        pool.recycle("oracles", Vec::<u8>::with_capacity(64));
        assert_eq!(pool.shelved::<u8>(), 1);
    }

    #[test]
    fn poison_is_per_region() {
        let mut pool = BufferPool::new();
        pool.poison("counts");
        pool.recycle("splitters", Vec::<u64>::with_capacity(8));
        assert_eq!(pool.shelved::<u64>(), 1, "other regions unaffected");
        assert!(pool.is_poisoned("counts"));
    }

    #[test]
    fn zero_capacity_buffers_are_not_shelved() {
        let mut pool = BufferPool::new();
        pool.recycle("a", Vec::<u64>::new());
        assert_eq!(pool.shelved::<u64>(), 0);
        assert_eq!(pool.stats().recycled, 0);
    }
}
