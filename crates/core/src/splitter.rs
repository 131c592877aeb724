//! The `sample` kernel (§IV-B.a): draw a random sample, sort it in
//! shared memory with the bitonic network, pick the `i/b` percentiles as
//! splitters, and build the implicit search tree.

use crate::bitonic::bitonic_sort_with_scratch;
use crate::element::SelectElement;
use crate::params::SampleSelectConfig;
use crate::rng::SplitMix64;
use crate::searchtree::SearchTree;
use crate::workspace::SelectWorkspace;
use crate::SelectError;
use gpu_sim::{Device, KernelCost, LaunchConfig, LaunchOrigin};

/// Run the sample kernel on `device`, returning the splitter tree.
///
/// The kernel is a single thread block: it gathers
/// `cfg.sample_size()` elements at random positions (uncoalesced
/// global loads), bitonic-sorts them in shared memory, selects the
/// `i/b` percentiles for `i = 1..b` as splitters, and writes the
/// `b - 1` tree nodes back to global memory.
pub fn sample_kernel<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    cfg: &SampleSelectConfig,
    rng: &mut SplitMix64,
    origin: LaunchOrigin,
) -> Result<SearchTree<T>, SelectError> {
    let mut ws = SelectWorkspace::new();
    sample_kernel_into(device, data, cfg, rng, origin, &mut ws)?;
    Ok(ws.take_tree().expect("sample_kernel_into built a tree"))
}

/// [`sample_kernel`] writing into a reusable [`SelectWorkspace`]: the
/// sample, sorting scratch, splitter staging, and search-tree arrays are
/// all reused across calls, so a warm workspace makes this kernel
/// allocation-free. The built tree lands in `ws.tree`.
pub fn sample_kernel_into<T: SelectElement>(
    device: &mut Device,
    data: &[T],
    cfg: &SampleSelectConfig,
    rng: &mut SplitMix64,
    origin: LaunchOrigin,
    ws: &mut SelectWorkspace<T>,
) -> Result<(), SelectError> {
    assert!(!data.is_empty(), "sample kernel requires a non-empty input");
    let b = cfg.num_buckets;
    let s = cfg.sample_size().max(b);

    let mut cost = KernelCost::new();
    cost.blocks = 1;
    // Random-position gathers are textbook uncoalesced accesses.
    cost.uncoalesced_bytes += (s * T::BYTES) as u64;

    // Gather the sample, sort it in shared memory and pick the splitters.
    let stats = draw_splitters(data, cfg, rng, ws, bitonic_sort_with_scratch);
    stats.charge::<T>(&mut cost);

    // Write the search tree to global memory.
    cost.global_write_bytes += ((b - 1) * T::BYTES) as u64;
    cost.int_ops += (b - 1) as u64;

    let launch = LaunchConfig {
        blocks: 1,
        threads_per_block: cfg.threads_per_block,
        shared_mem_bytes: (s * T::BYTES) as u32,
    };
    device.commit("sample", launch, origin, cost);

    // The splitter buffer lives in global memory between kernels, so it
    // is a target for the device's silent-corruption injector. The order
    // invariant is checked unconditionally (it costs O(b) and the search
    // tree is unusable — not just wrong — on unsorted splitters).
    crate::verify::corrupt_elements(device, "splitters", &mut ws.splitters);
    crate::verify::check_splitters(&ws.splitters)?;

    SearchTree::rebuild_into(&mut ws.tree, &ws.splitters);
    Ok(())
}

/// The splitter draw every executor shares: gather `s = b·oversampling`
/// elements of `data` at positions from one `rng` stream (with
/// replacement, matching the §II-B analysis) into `ws.sample`, order
/// them with `sort`, and stage the `i/b` percentiles `sample[i·s/b]`
/// for `i = 1..b` in `ws.splitters`. Returns what `sort` returns.
pub(crate) fn draw_splitters<T: SelectElement, R>(
    data: &[T],
    cfg: &SampleSelectConfig,
    rng: &mut SplitMix64,
    ws: &mut SelectWorkspace<T>,
    sort: impl FnOnce(&mut [T], &mut Vec<T>) -> R,
) -> R {
    let b = cfg.num_buckets;
    let s = cfg.sample_size().max(b);
    let SelectWorkspace {
        sample,
        splitters,
        sort_scratch,
        ..
    } = ws;
    sample.clear();
    sample.extend((0..s).map(|_| data[rng.next_below(data.len())]));
    let sorted = sort(sample, sort_scratch);
    splitters.clear();
    splitters.extend((1..b).map(|i| sample[i * s / b]));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::arch::v100;
    use hpc_par::ThreadPool;

    fn setup() -> (ThreadPool, SampleSelectConfig) {
        (ThreadPool::new(2), SampleSelectConfig::default())
    }

    #[test]
    fn splitters_are_sorted_and_from_data() {
        let (pool, cfg) = setup();
        let mut device = Device::new(v100(), &pool);
        let mut rng = SplitMix64::new(1);
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.37).sin()).collect();
        let tree = sample_kernel(&mut device, &data, &cfg, &mut rng, LaunchOrigin::Host).unwrap();
        let s = tree.splitters();
        assert_eq!(s.len(), cfg.num_buckets - 1);
        assert!(s.windows(2).all(|w| !w[1].lt(w[0])), "splitters sorted");
    }

    #[test]
    fn splitters_approximate_percentiles() {
        let (pool, _) = setup();
        let cfg = SampleSelectConfig::default()
            .with_buckets(16)
            .with_oversampling(64);
        let mut device = Device::new(v100(), &pool);
        let mut rng = SplitMix64::new(2);
        // Uniform data in [0, 1): the i/16 percentile is ~i/16.
        let data: Vec<f64> = (0..100_000)
            .map(|_| SplitMix64::new(rng.next_u64()).next_f64())
            .collect();
        let tree = sample_kernel(&mut device, &data, &cfg, &mut rng, LaunchOrigin::Host).unwrap();
        for (i, &s) in tree.splitters().iter().enumerate() {
            let expected = (i + 1) as f64 / 16.0;
            assert!(
                (s - expected).abs() < 0.08,
                "splitter {i}: {s} vs expected {expected}"
            );
        }
    }

    #[test]
    fn records_sample_kernel_on_timeline() {
        let (pool, cfg) = setup();
        let mut device = Device::new(v100(), &pool);
        let mut rng = SplitMix64::new(3);
        let data: Vec<f32> = (0..5_000).map(|i| i as f32).collect();
        sample_kernel(&mut device, &data, &cfg, &mut rng, LaunchOrigin::Host).unwrap();
        let recs = device.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "sample");
        assert_eq!(recs[0].config.blocks, 1);
        assert!(recs[0].cost.uncoalesced_bytes >= (cfg.sample_size() * 4) as u64);
        assert!(recs[0].cost.smem_bytes > 0, "bitonic sort traffic charged");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (pool, cfg) = setup();
        let data: Vec<f32> = (0..50_000).map(|i| ((i * 17) % 1000) as f32).collect();
        let mut d1 = Device::new(v100(), &pool);
        let mut d2 = Device::new(v100(), &pool);
        let t1 = sample_kernel(
            &mut d1,
            &data,
            &cfg,
            &mut SplitMix64::new(9),
            LaunchOrigin::Host,
        )
        .unwrap();
        let t2 = sample_kernel(
            &mut d2,
            &data,
            &cfg,
            &mut SplitMix64::new(9),
            LaunchOrigin::Host,
        )
        .unwrap();
        assert_eq!(t1.splitters(), t2.splitters());
    }

    #[test]
    fn small_input_smaller_than_sample() {
        let (pool, cfg) = setup();
        let mut device = Device::new(v100(), &pool);
        let mut rng = SplitMix64::new(4);
        // 10 elements but sample_size is 1024: sampling with replacement
        // still yields a valid (duplicate-heavy) splitter set.
        let data: Vec<u32> = (0..10).collect();
        let tree = sample_kernel(&mut device, &data, &cfg, &mut rng, LaunchOrigin::Host).unwrap();
        assert_eq!(tree.num_buckets(), cfg.num_buckets);
        // every data value must land in *some* bucket consistent with
        // the reference lookup
        for &x in &data {
            assert_eq!(tree.lookup(x), tree.lookup_reference(x));
        }
    }
}
