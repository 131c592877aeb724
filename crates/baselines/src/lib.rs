//! # select-baselines
//!
//! The comparison algorithms of the paper's related-work section (§III,
//! §V-D), re-implemented from their published descriptions:
//!
//! * [`bucketselect`] — Alabi et al.'s BucketSelect: recursive bucketing
//!   by *uniformly splitting the input value range*. The fastest
//!   algorithm of \[10\] on uniform data — and the motivating example for
//!   SampleSelect's robustness claim, because its bucket boundaries are
//!   computed from values, not ranks.
//! * [`cpu`] — sequential host-side references: Hoare quickselect,
//!   Floyd–Rivest, median-of-medians (deterministic O(n)), full-sort
//!   selection, and the `std` introselect wrapper the tests validate
//!   against (the paper validates against C++ `std::nth_element`).
//!
//! Alabi et al.'s RadixSelect, the other comparator of §V-D, is not
//! here: it is the core crate's radix backend
//! (`sampleselect::radix::{radix_select, radix_select_on_device}`), the
//! shared level loop with digit bucketing, which the planner also runs.

pub mod bucketselect;
pub mod cpu;

pub use bucketselect::{bucket_select, bucket_select_on_device};
pub use cpu::{
    floyd_rivest_select, hoare_quickselect, median_of_medians_select, sort_select, std_select,
};
